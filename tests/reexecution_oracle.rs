//! Re-execution against a per-execution oracle built from public API
//! only.
//!
//! The deployment evaluates re-execution sample by sample: when a
//! sample's execution maps strike only neuron operations, its distinct
//! maps share one multi-map drive pass and identical executions run
//! once; otherwise each execution injects its map and runs on its own.
//! The oracle here is the definition instead — every execution heals
//! (`reload_parameters`), draws its map from the pinned
//! `derive_seed(scenario.seed, sample·runs + k)`, injects it, and runs
//! the engine's reference formulation — and the two must give equal
//! `EvalResult`s (accuracy, abstentions and the whole confusion matrix).

use rand::Rng as _;
use snn_faults::fault_map::FaultMap;
use snn_faults::injector::inject;
use snn_faults::location::{FaultDomain, FaultSite};
use snn_hw::engine::{DirectRead, NoGuard, StuckWeightBit, MAX_CHUNK};
use snn_sim::assignment::Assignment;
use snn_sim::config::SnnConfig;
use snn_sim::eval::EvalResult;
use snn_sim::network::Network;
use snn_sim::quant::QuantizedNetwork;
use snn_sim::rng::{derive_seed, seeded_rng};
use softsnn_core::methodology::{
    EncodedTestSet, EngineBackendKind, FaultScenario, SoftSnnDeployment, DEFAULT_REEXEC_EXPOSURE,
};
use softsnn_core::mitigation::{majority_vote, Technique};

const N_CLASSES: usize = 3;

/// A small deployment with random weights and a round-robin class
/// decoder — enough spiking for predictions to vary with the faults.
fn deployment(n_inputs: usize, n_neurons: usize, seed: u64) -> SoftSnnDeployment {
    let cfg = SnnConfig::builder()
        .n_inputs(n_inputs)
        .n_neurons(n_neurons)
        .v_thresh(1.0)
        .v_leak(0.05)
        .v_inh(0.5)
        .t_refrac(1)
        .timesteps(20)
        .max_rate(0.6)
        .build()
        .unwrap();
    let net = Network::new(cfg, &mut seeded_rng(seed));
    let qn = QuantizedNetwork::from_network_default(&net);
    let labels = (0..n_neurons).map(|j| Some(j % N_CLASSES)).collect();
    let assignment = Assignment::from_labels(labels, N_CLASSES).unwrap();
    SoftSnnDeployment::new(qn, assignment).unwrap()
}

fn test_set(d: &SoftSnnDeployment, n_samples: usize, seed: u64) -> EncodedTestSet {
    let n_inputs = d.quantized().n_inputs;
    let mut rng = seeded_rng(seed);
    let images: Vec<Vec<f32>> = (0..n_samples)
        .map(|_| (0..n_inputs).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let labels: Vec<usize> = (0..n_samples).map(|s| s % N_CLASSES).collect();
    d.encode_test_set(&images, &labels, seed + 1).unwrap()
}

/// Execution `k` of `sample`'s fault map, exactly as re-execution draws
/// it.
fn exec_map(
    d: &SoftSnnDeployment,
    scenario: &FaultScenario,
    exposure: f64,
    runs: u32,
    sample: usize,
    k: u32,
) -> FaultMap {
    let space = scenario.space(d.quantized().n_inputs, d.quantized().n_neurons);
    let rate = scenario.rate * exposure;
    if scenario.is_clean() || rate == 0.0 {
        return FaultMap::empty(&space);
    }
    let seed = derive_seed(
        scenario.seed,
        sample as u64 * u64::from(runs) + u64::from(k),
    );
    FaultMap::generate(&space, rate, seed)
}

/// Re-execution by definition: every execution heals, injects its own
/// map and runs the reference formulation; the predictions are
/// majority-voted.
fn oracle(
    d: &mut SoftSnnDeployment,
    runs: u32,
    scenario: &FaultScenario,
    exposure: f64,
    set: &EncodedTestSet,
) -> EvalResult {
    let mut result = EvalResult::new(d.assignment().n_classes());
    for (sample, (train, &label)) in set.trains().iter().zip(set.labels()).enumerate() {
        let votes: Vec<Option<usize>> = (0..runs)
            .map(|k| {
                let map = exec_map(d, scenario, exposure, runs, sample, k);
                d.engine_mut().reload_parameters(&mut NoGuard);
                inject(d.engine_mut(), &map).unwrap();
                let counts = d
                    .engine_mut()
                    .run_sample_reference(train, &DirectRead, &mut NoGuard);
                d.assignment().predict(&counts)
            })
            .collect();
        result.record(majority_vote(&votes), label);
    }
    result
}

/// Requires `evaluate_encoded` per scenario and `evaluate_encoded_group`
/// over the whole group to equal the oracle.
fn assert_matches_oracle(
    d: &mut SoftSnnDeployment,
    runs: u32,
    group: &[FaultScenario],
    exposure: f64,
    set: &EncodedTestSet,
    context: &str,
) {
    let technique = Technique::ReExecution { runs };
    let expected: Vec<EvalResult> = group
        .iter()
        .map(|scenario| oracle(d, runs, scenario, exposure, set))
        .collect();
    for (i, scenario) in group.iter().enumerate() {
        let single = d.evaluate_encoded(technique, scenario, set).unwrap();
        assert_eq!(
            single, expected[i],
            "{context}: evaluate_encoded, scenario {i}"
        );
    }
    let grouped = d.evaluate_encoded_group(technique, group, set).unwrap();
    assert_eq!(grouped, expected, "{context}: evaluate_encoded_group");
}

fn neuron_scenario(rate: f64, seed: u64) -> FaultScenario {
    FaultScenario {
        domain: FaultDomain::Neurons(None),
        rate,
        seed,
    }
}

#[test]
fn neuron_domain_reexecution_matches_per_execution_oracle() {
    let base = deployment(16, 24, 3);
    let set = test_set(&base, 12, 40);
    // 96 neuron-op locations: at the default exposure, rate 0.05 rounds
    // every execution map to zero sites, while 0.5 and 1.0 strike 2 and
    // 5 sites per execution.
    let group = [
        FaultScenario::clean(),
        neuron_scenario(0.05, 11),
        neuron_scenario(0.5, 12),
        neuron_scenario(1.0, 13),
    ];
    let exec_len = |scenario: &FaultScenario, exposure: f64| {
        exec_map(&base, scenario, exposure, 3, 0, 0).len()
    };
    assert_eq!(exec_len(&group[1], DEFAULT_REEXEC_EXPOSURE), 0);
    assert!(exec_len(&group[1], 1.0) > 0);
    assert!(exec_len(&group[2], DEFAULT_REEXEC_EXPOSURE) > 0);

    let stuck = [
        StuckWeightBit {
            row: 0,
            col: 0,
            bit: 7,
            stuck_at: true,
        },
        StuckWeightBit {
            row: 5,
            col: 9,
            bit: 6,
            stuck_at: false,
        },
    ];
    for backend in [EngineBackendKind::Dense, EngineBackendKind::Event] {
        for with_stuck in [false, true] {
            let mut d = base.clone();
            d.set_backend(backend);
            if with_stuck {
                d.engine_mut().install_stuck_bits(&stuck).unwrap();
            }
            let clean = oracle(&mut d, 1, &group[0], 1.0, &set);
            assert!(
                clean.abstained < clean.total,
                "the fixture must make predictions"
            );
            assert_ne!(
                oracle(&mut d, 1, &group[3], 1.0, &set),
                clean,
                "neuron faults must change predictions"
            );
            for exposure in [DEFAULT_REEXEC_EXPOSURE, 0.0, 1.0] {
                d.set_reexec_exposure(exposure);
                for runs in [0, 1, 2, 5] {
                    let context = format!(
                        "{backend:?}, stuck bits {with_stuck}, exposure {exposure}, runs {runs}"
                    );
                    assert_matches_oracle(&mut d, runs, &group, exposure, &set, &context);
                }
            }
        }
    }
}

#[test]
fn reexecution_group_wider_than_one_chunk_matches_oracle() {
    let base = deployment(16, 24, 5);
    let set = test_set(&base, 6, 50);
    let group: Vec<FaultScenario> = (0..4).map(|t| neuron_scenario(0.5, 70 + t)).collect();
    let runs = 5;
    // Every execution of sample 0 strikes its own map, so the shared
    // pass carries 20 distinct overlays — more than one chunk.
    let mut distinct: Vec<FaultMap> = Vec::new();
    for scenario in &group {
        for k in 0..runs {
            let map = exec_map(&base, scenario, 1.0, runs, 0, k);
            if !distinct.iter().any(|m| m.sites() == map.sites()) {
                distinct.push(map);
            }
        }
    }
    assert!(distinct.len() > MAX_CHUNK, "{} overlays", distinct.len());
    for backend in [EngineBackendKind::Dense, EngineBackendKind::Event] {
        let mut d = base.clone();
        d.set_backend(backend);
        d.set_reexec_exposure(1.0);
        assert_matches_oracle(&mut d, runs, &group, 1.0, &set, &format!("{backend:?}"));
    }
}

#[test]
fn mixed_domain_reexecution_takes_both_branches_and_matches_oracle() {
    // Two inputs and eight neurons: 16 weight cells beside 32 neuron
    // ops, so an execution map of one or two sites is neuron-only about
    // half the time.
    let base = deployment(2, 8, 9);
    let set = test_set(&base, 40, 60);
    let exposure = DEFAULT_REEXEC_EXPOSURE;
    let runs = 3;
    let group = [
        FaultScenario {
            domain: FaultDomain::ComputeEngine,
            rate: 0.6,
            seed: 21,
        },
        FaultScenario {
            domain: FaultDomain::ComputeEngine,
            rate: 0.6,
            seed: 22,
        },
    ];
    // Which samples can share one drive pass: those whose every
    // execution map (across the group, or of one scenario alone) is
    // neuron-only.
    let neuron_only = |scenarios: &[FaultScenario], sample: usize| {
        scenarios.iter().all(|scenario| {
            (0..runs).all(|k| {
                let map = exec_map(&base, scenario, exposure, runs, sample, k);
                assert!(!map.is_empty());
                map.sites()
                    .iter()
                    .all(|s| matches!(s, FaultSite::NeuronOp { .. }))
            })
        })
    };
    for scenarios in [&group[..1], &group[..]] {
        let shared: Vec<bool> = (0..set.len()).map(|s| neuron_only(scenarios, s)).collect();
        assert!(shared.contains(&false), "some sample strikes a weight bit");
        assert!(
            shared.windows(2).any(|w| !w[0] && w[1]),
            "some shared sample follows a weight-bit sample: {shared:?}"
        );
    }
    let mut d = base.clone();
    assert_ne!(
        oracle(&mut d, runs, &group[0], exposure, &set),
        oracle(&mut d, runs, &FaultScenario::clean(), exposure, &set),
        "the execution faults must change predictions"
    );
    for backend in [EngineBackendKind::Dense, EngineBackendKind::Event] {
        let mut d = base.clone();
        d.set_backend(backend);
        assert_matches_oracle(
            &mut d,
            runs,
            &group,
            exposure,
            &set,
            &format!("{backend:?}"),
        );
    }
}
