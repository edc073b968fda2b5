//! One benchmark run: set up the bench several times, compute the
//! reference artifact, then run the workload's job back to back (a
//! closed loop with one client) for the requested time, checking every
//! job's output.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use snn_faults::fault_map::FaultMap;
use snn_faults::location::FaultSpace;
use softsnn_core::methodology::encode_invocations;
use softsnn_exp::campaign;
use softsnn_exp::profile::Profile;
use softsnn_exp::workbench::{self, Bench, BASE_SEED};

use crate::calibrate;
use crate::check::{check_cells, digest, recorded_digest, CellTally};
use crate::metrics::{layer_metrics, median, Metric, RepTrace, RunTrace};
use crate::setup;
use crate::trace::Tracer;
use crate::workload::{run_job, run_reference, Kind, Plan};

type BoxError = Box<dyn std::error::Error>;

/// Bench set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Scale of every bench: that of `fig13 --profile quick`.
pub const PROFILE: Profile = Profile::Quick;
/// Fewest timed jobs per untraced run, whatever `--seconds` says.
pub const MIN_JOBS: usize = 3;
/// Fewest timed jobs per traced run: two untraced and two traced.
pub const MIN_TRACED_JOBS: usize = 4;

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub kind: Kind,
    /// Workload seed: the only source of the run's inputs.
    pub seed: u64,
    /// How long to keep starting timed jobs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one
    /// (end-to-end metrics).
    pub trace: bool,
    /// Working directory for campaign roots; trace files go beside it.
    pub work_dir: PathBuf,
    /// Where to write the first job's `fig13.json`, if anywhere.
    pub emit_artifact: Option<PathBuf>,
}

/// The result line's content plus what the caller prints beside it.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Cells checked over all timed jobs.
    pub attempted: usize,
    /// Cells that failed a check.
    pub failed: usize,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Digest of the jobs' `fig13.json`.
    pub digest: u64,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
}

/// Runs one workload.
///
/// # Errors
///
/// Returns set-up and reference failures, and I/O failures on the work
/// directory. Failures of the timed jobs are counted as failed cells
/// instead.
pub fn run(opts: &Options) -> Result<Report, BoxError> {
    let started = Instant::now();
    let tracer = Tracer::new(opts.trace);
    let plan = Plan::new(opts.kind, PROFILE);
    let seed = opts.seed;
    let encodes_before = encode_invocations();
    let cache_hits_before = workbench::cache_stats().hits;
    let mut problems = Vec::new();

    // A fixed kernel measures the host's speed before the first set-up
    // and the first job, and after every set-up and job. Each set-up and
    // job time is scaled to reference speed by the mean of the speeds
    // measured right before and right after it (see `calibrate`).
    let mut speeds = Vec::new();
    let mut calibrate_host = || {
        let speed = tracer.span("calibrate", None, |_| calibrate::host_speed());
        speeds.push(speed);
        speed
    };
    let mut speed = calibrate_host();
    let mut setup_raw = Vec::with_capacity(SETUPS);
    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut setup_spans = Vec::with_capacity(SETUPS);
    let mut bench: Option<Bench> = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let prepared = tracer.span("setup", None, |s| {
            setup_spans.extend(s);
            setup::prepare(&plan.bench, seed, &tracer, s)
        })?;
        let secs = t.elapsed().as_secs_f64();
        let after = calibrate_host();
        setup_raw.push(secs);
        setup_secs.push(secs * (speed + after) / 2.0);
        speed = after;
        match &bench {
            None => bench = Some(prepared),
            Some(first)
                if campaign::job_fingerprint(first) != campaign::job_fingerprint(&prepared) =>
            {
                problems.push("two set-ups from one seed built different benches".to_owned());
            }
            Some(_) => {}
        }
    }
    let bench = bench.expect("SETUPS > 0");
    let n_test = bench.encoded.len();
    // Every set-up encodes its test set once; nothing after set-up may
    // encode again (trials share the encoded set). The shipped-program
    // check below encodes through `workbench::prepare` and is excluded.
    let encodes_after_setup = encode_invocations();
    let setup_encodes = encodes_after_setup - encodes_before;
    let mut shipped_encodes = 0;

    let reference = tracer.span("reference", None, |_| run_reference(&plan, &bench, seed))?;
    let reference_digest = digest(reference.artifact.as_bytes());
    if let Some(recorded) = recorded_digest(opts.kind.name(), seed) {
        if recorded != reference_digest {
            problems.push(format!(
                "reference digest {reference_digest:016x} != recorded {recorded:016x}"
            ));
        }
    }
    if seed == BASE_SEED && plan.bench.input_gain.is_none() {
        // The decomposed set-up must build exactly the bench the figure
        // binaries build.
        let before = encode_invocations();
        let shipped = tracer.span("shipped_check", None, |_| {
            workbench::prepare(plan.bench.workload, plan.bench.scale.n_neurons, PROFILE)
        })?;
        shipped_encodes = encode_invocations() - before;
        if campaign::job_fingerprint(&shipped) != campaign::job_fingerprint(&bench) {
            problems.push("set-up fingerprint differs from workbench::prepare".to_owned());
        }
    }

    let spec = plan.grid_spec(seed);
    let mut tally = CellTally::default();
    let mut job_raw = Vec::new();
    let mut untraced_secs = Vec::new();
    let mut traced_secs = Vec::new();
    let mut reps = Vec::new();
    let min_jobs = if opts.trace {
        MIN_TRACED_JOBS
    } else {
        MIN_JOBS
    };
    let budget = Duration::from_secs_f64(opts.seconds);
    let measuring = Instant::now();
    let mut job = 0;
    speed = calibrate_host();
    while job < min_jobs || measuring.elapsed() < budget {
        // A traced run alternates untraced and traced jobs, so the
        // tracing overhead is measured within one process.
        let traced = opts.trace && job % 2 == 1;
        let dir = opts.work_dir.join(format!("job{job}"));
        let name = if traced {
            "campaign"
        } else {
            "campaign.untraced"
        };
        let (outcome, secs, span) = tracer.span(name, None, |c| {
            tracer.set_enabled(traced);
            let t = Instant::now();
            let outcome = run_job(&plan, &bench, seed, &dir, &tracer, c);
            let secs = t.elapsed().as_secs_f64();
            tracer.set_enabled(opts.trace);
            (outcome, secs, c)
        });
        let ok = tracer.span("check", None, |_| match outcome {
            Ok(out) => {
                check_cells(&mut tally, &out.grid, &reference.grid, &spec, n_test);
                let d = digest(out.artifact.as_bytes());
                if d != reference_digest {
                    problems.push(format!(
                        "job {job}: digest {d:016x} != reference {reference_digest:016x}"
                    ));
                }
                if let (Some(path), 0) = (&opts.emit_artifact, job) {
                    std::fs::write(path, &out.artifact)?;
                }
                if traced {
                    reps.push(RepTrace {
                        span: span.expect("traced job has a span"),
                        kept: out.grid.trials_run(),
                    });
                }
                Ok::<_, BoxError>(true)
            }
            Err(e) => {
                tally.record_lost(spec.n_cells(), format!("job {job}: {e}"));
                Ok(false)
            }
        })?;
        tracer.span("cleanup", None, |_| remove_dir(&dir))?;
        let after = calibrate_host();
        let scaled = secs * (speed + after) / 2.0;
        speed = after;
        if ok {
            job_raw.push(secs);
            if traced {
                traced_secs.push(scaled);
            } else {
                untraced_secs.push(scaled);
            }
        }
        job += 1;
    }
    let host_speed = median(&speeds);

    let later_encodes = encode_invocations() - encodes_after_setup - shipped_encodes;
    if setup_encodes != SETUPS as u64 || later_encodes != 0 {
        problems.push(format!(
            "{setup_encodes} test-set encodes in {SETUPS} set-ups and {later_encodes} after, \
             expected one per set-up and none after"
        ));
    }
    let encodes = setup_encodes + later_encodes;
    problems.extend(tally.problems.iter().cloned());
    let correct = problems.is_empty() && tally.failed == 0;
    let metrics = if opts.trace {
        let probe_span = tracer.span("probe", None, |_| {
            let stats = bench.encoded.activity_stats();
            let q = bench.deployment.quantized();
            let space = FaultSpace::new(q.n_inputs, q.n_neurons, plan.domain);
            let points = spec.points();
            let sites: usize = points
                .iter()
                .map(|p| FaultMap::generate(&space, p.rate, p.seed).len())
                .sum();
            (stats, sites as f64 / points.len() as f64)
        });
        let wall = started.elapsed().as_secs_f64();
        let tree = tracer.snapshot();
        let trace_file = opts
            .work_dir
            .with_file_name(format!("trace-{}-{seed}.json", opts.kind.name()));
        std::fs::write(&trace_file, tree.to_json())?;
        eprintln!("[perfbench] spans written to {}", trace_file.display());
        eprintln!("[perfbench] self time by span: name, spans, seconds");
        for (name, count, secs) in tree.self_time_by_name() {
            eprintln!("[perfbench]   {name:<40} {count:>5} {secs:>10.4}");
        }
        layer_metrics(&RunTrace {
            tree: &tree,
            wall_s: wall,
            setups: &setup_spans,
            reps: &reps,
            n_cells: spec.n_cells(),
            trials_per_cell: spec.trials,
            encode_invocations: encodes,
            bench_cache_hits: workbench::cache_stats().hits - cache_hits_before,
            activity: probe_span.0,
            sites_per_trial: probe_span.1,
            traced_s: median(&traced_secs),
            untraced_s: median(&untraced_secs),
            host_speed,
        })
    } else {
        let campaign_s = median(&untraced_secs);
        vec![
            Metric::new("setup_s", median(&setup_secs), "s"),
            Metric::new("campaign_s", campaign_s, "s"),
            Metric::new(
                "trials_per_s",
                reference.grid.trials_run() as f64 / campaign_s,
                "1/s",
            ),
            Metric::new("peak_rss_mb", peak_rss_mb()?, "MB"),
        ]
    };
    eprintln!(
        "[perfbench] {} seed {seed}: {job} jobs; wall times: set-ups {setup_raw:?} s, \
         jobs {job_raw:?} s; host speeds {speeds:?}; failed_frac {}",
        opts.kind.name(),
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    Ok(Report {
        correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        digest: reference_digest,
        problems,
    })
}

fn remove_dir(dir: &Path) -> std::io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Errors
///
/// Fails where `/proc/self/status` is unreadable or lacks `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, BoxError> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
