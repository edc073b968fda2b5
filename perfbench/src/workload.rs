//! The three benchmark workloads: what each one runs, how it is timed,
//! and the independent reference path its output is checked against.

use std::path::Path;

use snn_data::workload::Workload;
use snn_faults::grid::{GridPointCtx, GridResults, GridRunner, GridSpec};
use snn_faults::location::FaultDomain;
use snn_faults::rate::PAPER_RATES;
use snn_faults::service::{CampaignService, JobHandle, RunOptions, RunOutcome};
use snn_faults::stats::{Lookahead, StopRule};
use softsnn_core::methodology::{
    EncodedTestSet, EngineBackendKind, FaultScenario, MethodologyError, SoftSnnDeployment,
};
use softsnn_core::mitigation::Technique;
use softsnn_exp::profile::Profile;
use softsnn_exp::workbench::Bench;
use softsnn_exp::{campaign, fig13};

use crate::setup::{BenchSpec, Scale};
use crate::trace::{SpanId, Tracer};

type BoxError = Box<dyn std::error::Error>;

/// Span of one `evaluate_shard*` call (one cell's trial group).
pub const SHARD_SPAN: &str = "softsnn_exp.shard";
/// Span of a one-shot `GridRunner` pass.
pub const GRID_SPAN: &str = "snn_faults.grid";
/// Span of one `JobHandle::run` pass.
pub const SERVICE_RUN_SPAN: &str = "snn_faults.service.run";

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `fig13 --profile quick --workload mnist`: fixed budget,
    /// `GridRunner::run_grouped`, dense backend.
    Fig13Quick,
    /// One adaptive campaign-service job over the neuron-only domain.
    CampaignNeuronAdaptive,
    /// A campaign-service job on the event backend over sparse inputs,
    /// interrupted after half its cells and resumed from checkpoints.
    ResumeSparseEvent,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [
        Kind::Fig13Quick,
        Kind::CampaignNeuronAdaptive,
        Kind::ResumeSparseEvent,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig13Quick => "fig13_quick",
            Kind::CampaignNeuronAdaptive => "campaign_neuron_adaptive",
            Kind::ResumeSparseEvent => "resume_sparse_event",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Everything a workload's job is built from, besides the seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Which workload.
    pub kind: Kind,
    /// How its bench is set up.
    pub bench: BenchSpec,
    /// Per-cell trial budget of the Fig. 13 grid.
    pub trials: usize,
    /// Where every scenario injects.
    pub domain: FaultDomain,
    /// Adaptive stop rule (`None` runs the fixed budget).
    pub stop_rule: Option<StopRule>,
}

impl Plan {
    /// The workload at the scale `fig13 --profile <profile>` trains at.
    /// The benchmark runs `Profile::Quick`; tests use `Profile::Smoke`.
    ///
    /// # Panics
    ///
    /// Panics only if the built-in stop rule were invalid.
    pub fn new(kind: Kind, profile: Profile) -> Self {
        let bench = BenchSpec {
            workload: Workload::Mnist,
            scale: Scale::of(profile),
            input_gain: None,
            backend: EngineBackendKind::Dense,
        };
        match kind {
            Kind::Fig13Quick => Self {
                kind,
                bench,
                trials: profile.trials(),
                domain: FaultDomain::ComputeEngine,
                stop_rule: None,
            },
            Kind::CampaignNeuronAdaptive => Self {
                kind,
                bench,
                trials: ADAPTIVE_BUDGET,
                domain: FaultDomain::Neurons(None),
                stop_rule: Some(
                    StopRule::new(
                        ADAPTIVE_MIN_TRIALS,
                        ADAPTIVE_BUDGET,
                        ADAPTIVE_HALF_WIDTH,
                        ADAPTIVE_CONFIDENCE,
                    )
                    .expect("built-in stop rule is valid"),
                ),
            },
            Kind::ResumeSparseEvent => Self {
                kind,
                bench: BenchSpec {
                    input_gain: Some(SPARSE_GAIN),
                    backend: EngineBackendKind::Event,
                    ..bench
                },
                trials: SPARSE_TRIALS,
                domain: FaultDomain::ComputeEngine,
                stop_rule: None,
            },
        }
    }

    /// The Fig. 13 grid (5 techniques × 4 rates × `trials`) seeded from
    /// the workload seed.
    pub fn grid_spec(&self, seed: u64) -> GridSpec {
        GridSpec::new(
            13,
            seed,
            Technique::PAPER_SET.iter().map(|t| t.id()).collect(),
            PAPER_RATES.to_vec(),
            self.trials,
        )
    }
}

/// Name of the campaign-service job inside each fresh root.
const JOB: &str = "bench";

/// Deep per-cell budget of the adaptive workload.
pub const ADAPTIVE_BUDGET: usize = 16;
/// Trials every adaptive cell runs before the rule may stop it.
pub const ADAPTIVE_MIN_TRIALS: usize = 4;
/// Target interval half-width (accuracy points) of the adaptive rule.
pub const ADAPTIVE_HALF_WIDTH: f64 = 30.0;
/// Confidence level of the adaptive rule's interval.
pub const ADAPTIVE_CONFIDENCE: f64 = 0.75;
/// Test-image intensity gain of the sparse workload.
pub const SPARSE_GAIN: f32 = 0.03;
/// Per-cell trial budget of the sparse workload.
pub const SPARSE_TRIALS: usize = 6;

/// One finished job: its grid and its rendered `fig13.json` bytes.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// The aggregated grid the artifact was rendered from.
    pub grid: GridResults,
    /// `fig13.json` exactly as `artifact::write_json` writes it.
    pub artifact: String,
}

/// Renders a finished grid as the `fig13.json` the figure binary writes.
pub fn render_artifact(bench: &Bench, grid: &GridResults) -> String {
    let mut text = fig13::to_json(&campaign::fig13_results(bench, grid)).render();
    text.push('\n');
    text
}

/// Times the workload's job end to end: from grid spec (or service
/// submission) to `fig13.json` rendered. `work_dir` is a fresh,
/// not-yet-existing campaign root for the service workloads.
///
/// # Errors
///
/// Propagates evaluation and campaign-service errors, and rejects an
/// interrupted or resumed pass that did not stop where it should.
pub fn run_job(
    plan: &Plan,
    bench: &Bench,
    seed: u64,
    work_dir: &Path,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<JobOutput, BoxError> {
    let spec = plan.grid_spec(seed);
    let evaluate = |span: Option<SpanId>| {
        move |deployment: &mut SoftSnnDeployment, shard: &[GridPointCtx]| {
            probed_shard(tracer, span, deployment, shard, &bench.encoded, plan.domain)
        }
    };
    let grid = match plan.kind {
        Kind::Fig13Quick => tracer.span(GRID_SPAN, parent, |g| {
            GridRunner::new(spec).run_grouped(&bench.deployment, evaluate(g))
        })?,
        Kind::CampaignNeuronAdaptive => {
            let service = CampaignService::new(work_dir);
            let job = submit(&service, bench, spec, tracer, parent)?;
            let opts = RunOptions {
                max_cells: None,
                stop_rule: plan.stop_rule,
                lookahead: Lookahead::Auto,
            };
            let outcome = tracer.span(SERVICE_RUN_SPAN, parent, |r| {
                job.run(&bench.deployment, opts, evaluate(r))
            })?;
            read_back(&job, outcome, tracer, parent)?
        }
        Kind::ResumeSparseEvent => {
            let total = spec.n_cells();
            let half = total / 2;
            let service = CampaignService::new(work_dir);
            let job = submit(&service, bench, spec, tracer, parent)?;
            let opts = RunOptions {
                max_cells: Some(half),
                ..RunOptions::default()
            };
            let outcome = tracer.span(SERVICE_RUN_SPAN, parent, |r| {
                job.run(&bench.deployment, opts, evaluate(r))
            })?;
            if !matches!(outcome, RunOutcome::Interrupted { done, .. } if done == half) {
                return Err(format!("first pass should stop after {half} cells").into());
            }
            // Resume as a fresh process would: a new service handle on
            // the same root, the fingerprint re-validated, the
            // checkpoints scanned for the missing cells.
            let job = tracer.span("snn_faults.service.resume", parent, |r| {
                let job = CampaignService::new(work_dir).open(JOB)?;
                let fingerprint = tracer.span("softsnn_exp.job_fingerprint", r, |_| {
                    campaign::job_fingerprint(bench)
                });
                if job.fingerprint() != Some(fingerprint) {
                    return Err::<_, BoxError>("resumed job fingerprint drifted".into());
                }
                let missing = job.missing_cells()?.len();
                if missing != total - half {
                    return Err(
                        format!("{missing} cells missing, expected {}", total - half).into(),
                    );
                }
                Ok(job)
            })?;
            let outcome = tracer.span(SERVICE_RUN_SPAN, parent, |r| {
                job.run(&bench.deployment, RunOptions::default(), evaluate(r))
            })?;
            read_back(&job, outcome, tracer, parent)?
        }
    };
    let artifact = tracer.span("softsnn_exp.artifact", parent, |_| {
        render_artifact(bench, &grid)
    });
    Ok(JobOutput { grid, artifact })
}

fn submit(
    service: &CampaignService,
    bench: &Bench,
    spec: GridSpec,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<JobHandle, BoxError> {
    let fingerprint = tracer.span("softsnn_exp.job_fingerprint", parent, |_| {
        campaign::job_fingerprint(bench)
    });
    let job = tracer.span("snn_faults.service.submit", parent, |_| {
        service.submit(JOB, spec, Some(fingerprint))
    })?;
    Ok(job)
}

/// Reads a finished job back from its checkpoints (`results()`, as
/// `campaignd results` does) and requires it to equal the grid the final
/// pass returned.
fn read_back(
    job: &JobHandle,
    outcome: RunOutcome,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<GridResults, BoxError> {
    let RunOutcome::Complete(ran) = outcome else {
        return Err("the final pass stopped before completion".into());
    };
    let read = tracer
        .span("snn_faults.service.results", parent, |_| job.results())?
        .ok_or("a complete job has no results")?;
    if read != ran {
        return Err("results() disagrees with the completed run".into());
    }
    Ok(read)
}

/// `fig13::evaluate_shard_in_domain` inside a shard span carrying the
/// counters the per-layer metrics need: the cell, the trials evaluated,
/// executions per trial, and the read-cache rebuild/restore deltas of
/// this shard's deployment clone.
fn probed_shard(
    tracer: &Tracer,
    parent: Option<SpanId>,
    deployment: &mut SoftSnnDeployment,
    shard: &[GridPointCtx],
    encoded: &EncodedTestSet,
    domain: FaultDomain,
) -> Result<Vec<f64>, MethodologyError> {
    tracer.span(SHARD_SPAN, parent, |id| {
        if id.is_none() {
            return fig13::evaluate_shard_in_domain(deployment, shard, encoded, domain);
        }
        let before = deployment.engine_mut().read_cache_stats();
        let out = fig13::evaluate_shard_in_domain(deployment, shard, encoded, domain);
        let after = deployment.engine_mut().read_cache_stats();
        let first = &shard[0];
        let executions = match Technique::PAPER_SET[first.technique_idx] {
            Technique::ReExecution { runs } => u64::from(runs),
            _ => 1,
        };
        let steps_per_trial =
            executions * encoded.len() as u64 * u64::from(deployment.quantized().timesteps);
        for (key, value) in [
            ("technique", first.technique_idx as u64),
            ("rate", first.rate_idx as u64),
            ("trials", shard.len() as u64),
            ("sample_steps", shard.len() as u64 * steps_per_trial),
            ("rebuilds", after.rebuilds - before.rebuilds),
            ("restores", after.restores - before.restores),
        ] {
            tracer.annotate(id, key, value);
        }
        out
    })
}

/// The independent path each workload's artifact must match bit for
/// bit, per the repository's equivalence contracts:
///
/// - `fig13_quick`: per-point `GridRunner::run` with one
///   `evaluate_encoded` call per point (no trial grouping);
/// - `campaign_neuron_adaptive`: in-memory `GridRunner::run_adaptive`
///   with the trial-at-a-time `Lookahead::Fixed(1)`;
/// - `resume_sparse_event`: one uninterrupted `run_grouped` pass on the
///   dense backend over the same sparse test set.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn run_reference(plan: &Plan, bench: &Bench, seed: u64) -> Result<JobOutput, BoxError> {
    let spec = plan.grid_spec(seed);
    let encoded = &bench.encoded;
    let domain = plan.domain;
    let grid = match plan.kind {
        Kind::Fig13Quick => GridRunner::new(spec).run(&bench.deployment, |deployment, p| {
            deployment
                .evaluate_encoded(
                    Technique::PAPER_SET[p.technique_idx],
                    &FaultScenario {
                        domain,
                        rate: p.rate,
                        seed: p.seed,
                    },
                    encoded,
                )
                .map(|r| r.accuracy_pct())
        })?,
        Kind::CampaignNeuronAdaptive => {
            let rule = plan.stop_rule.ok_or("adaptive workload without a rule")?;
            GridRunner::new(spec)
                .with_stop_rule(rule)?
                .with_lookahead(Lookahead::Fixed(1))?
                .run_adaptive(&bench.deployment, |deployment, shard| {
                    fig13::evaluate_shard_in_domain(deployment, shard, encoded, domain)
                })?
        }
        Kind::ResumeSparseEvent => {
            let mut dense = bench.deployment.clone();
            dense.set_backend(EngineBackendKind::Dense);
            GridRunner::new(spec).run_grouped(&dense, |deployment, shard| {
                fig13::evaluate_shard_in_domain(deployment, shard, encoded, domain)
            })?
        }
    };
    let artifact = render_artifact(bench, &grid);
    Ok(JobOutput { grid, artifact })
}
