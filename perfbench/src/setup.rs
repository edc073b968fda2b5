//! Bench set-up, decomposed into the stages `workbench::prepare` runs.
//!
//! `SoftSnnDeployment::train` is one call; the benchmark instead calls
//! its parts (`train_unsupervised`, `assign_classes`,
//! `QuantizedNetwork::from_network_default`, `SoftSnnDeployment::new`)
//! in the same order with the same RNG stream, so each stage gets its own
//! span while the resulting deployment stays bit-identical. At
//! `seed = workbench::BASE_SEED` with unscaled inputs on the dense
//! backend, the result is exactly `workbench::prepare`'s bench.

use snn_data::transform::scale_intensity;
use snn_data::workload::Workload;
use snn_sim::network::Network;
use snn_sim::quant::QuantizedNetwork;
use snn_sim::rng::{derive_seed, seeded_rng};
use snn_sim::trainer::{assign_classes, train_unsupervised, TrainOptions};
use softsnn_core::methodology::{EngineBackendKind, SoftSnnDeployment};
use softsnn_exp::profile::Profile;
use softsnn_exp::workbench::{self, Bench};

use crate::trace::{SpanId, Tracer};

/// Network and data scale of a bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Excitatory neurons.
    pub n_neurons: usize,
    /// Training samples.
    pub n_train: usize,
    /// Test samples (the evaluation set every trial runs).
    pub n_test: usize,
    /// Unsupervised training epochs.
    pub epochs: usize,
}

impl Scale {
    /// The scale `fig13 --profile <profile>` trains its first network at.
    pub fn of(profile: Profile) -> Self {
        Self {
            n_neurons: profile.sizes()[0],
            n_train: profile.n_train(),
            n_test: profile.n_test(),
            epochs: profile.epochs(),
        }
    }
}

/// What a bench is built from, besides the workload seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchSpec {
    /// Synthetic dataset family.
    pub workload: Workload,
    /// Network and data scale.
    pub scale: Scale,
    /// Test-image intensity gain (`transform::scale_intensity`) applied
    /// before encoding; `None` keeps the images as generated.
    pub input_gain: Option<f32>,
    /// Backend every evaluation after the clean one runs through.
    pub backend: EngineBackendKind,
}

/// Builds a bench from seed `seed` with one span per stage under
/// `parent`:
///
/// - data `Workload::generate(.., derive_seed(seed, n))`
/// - training RNG `derive_seed(seed, 1000 + n)`
/// - encoding seed `derive_seed(seed, 2000 + n)`
///
/// Training and the clean evaluation run on the dense backend; the
/// deployment is switched to `spec.backend` afterwards, as
/// `workbench::prepare_with_backend` does.
///
/// # Errors
///
/// Propagates dataset, training and evaluation errors.
pub fn prepare(
    spec: &BenchSpec,
    seed: u64,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<Bench, Box<dyn std::error::Error>> {
    let Scale {
        n_neurons: n,
        n_train,
        n_test,
        epochs,
    } = spec.scale;
    let (train, test) = tracer.span("snn_data.generate", parent, |_| {
        spec.workload
            .generate(n_train, n_test, derive_seed(seed, n as u64))
    });
    let mut rng = seeded_rng(derive_seed(seed, 1000 + n as u64));
    let mut net = tracer.span("snn.train", parent, |id| {
        tracer.annotate(id, "samples", (train.len() * epochs) as u64);
        let mut net = Network::new(workbench::paper_config(n), &mut rng);
        train_unsupervised(
            &mut net,
            train.images(),
            TrainOptions {
                epochs,
                shuffle: true,
            },
            &mut rng,
        )
        .map(|_| net)
    })?;
    let assignment = tracer.span("snn.assign", parent, |_| {
        assign_classes(
            &mut net,
            train.images(),
            train.labels(),
            train.n_classes(),
            &mut rng,
        )
    })?;
    let qn = tracer.span("snn.quantize", parent, |_| {
        QuantizedNetwork::from_network_default(&net)
    });
    let mut deployment = tracer.span("softsnn_core.deploy", parent, |_| {
        SoftSnnDeployment::new(qn, assignment)
    })?;
    let test = match spec.input_gain {
        None => test,
        Some(gain) => {
            let mut images = test.images().to_vec();
            for image in &mut images {
                scale_intensity(image, gain);
            }
            snn_data::dataset::Dataset::new(
                test.width(),
                test.height(),
                test.n_classes(),
                images,
                test.labels().to_vec(),
            )?
        }
    };
    let encoded = tracer.span("softsnn_core.encode", parent, |_| {
        deployment.encode_test_set(
            test.images(),
            test.labels(),
            derive_seed(seed, 2000 + n as u64),
        )
    })?;
    let clean_accuracy = tracer.span("softsnn_core.clean_eval", parent, |_| {
        workbench::measure_clean(&mut deployment, &encoded)
    })?;
    if spec.backend != EngineBackendKind::Dense {
        deployment.set_backend(spec.backend);
    }
    Ok(Bench {
        workload: spec.workload,
        deployment,
        test,
        encoded,
        clean_accuracy,
    })
}
