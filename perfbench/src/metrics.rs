//! Per-layer metrics, derived after a traced run from its spans.

use std::collections::BTreeMap;

use softsnn_core::methodology::SpikeActivityStats;

use crate::trace::{SpanId, SpanTree};
use crate::workload::{GRID_SPAN, SERVICE_RUN_SPAN, SHARD_SPAN};

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; non-finite values (an empty ratio) are reported as 0,
    /// and an empty sum's `-0.0` as `0.0`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value: if value.is_finite() { value + 0.0 } else { 0.0 },
            unit,
        }
    }
}

/// Median of a sample (mean of the middle two for even sizes; 0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One traced job.
#[derive(Debug, Clone, Copy)]
pub struct RepTrace {
    /// Its top-level `campaign` span.
    pub span: SpanId,
    /// Trials its grid kept.
    pub kept: usize,
}

/// Everything a traced run hands the metric derivation.
#[derive(Debug)]
pub struct RunTrace<'a> {
    /// All recorded spans.
    pub tree: &'a SpanTree,
    /// Wall clock of the whole run (s).
    pub wall_s: f64,
    /// The `setup` spans.
    pub setups: &'a [SpanId],
    /// The traced jobs.
    pub reps: &'a [RepTrace],
    /// Cells in the grid.
    pub n_cells: usize,
    /// Per-cell trial budget.
    pub trials_per_cell: usize,
    /// `EncodedTestSet::encode` calls during the run.
    pub encode_invocations: u64,
    /// Cross-job bench-cache hits during the run.
    pub bench_cache_hits: u64,
    /// Input activity of the encoded test set.
    pub activity: SpikeActivityStats,
    /// Mean fault sites per trial map over the grid's points.
    pub sites_per_trial: f64,
    /// Median time of the traced jobs at reference host speed (s).
    pub traced_s: f64,
    /// Median time of the untraced jobs of the same run at reference
    /// host speed (s).
    pub untraced_s: f64,
    /// Median host speed the run's calibrations showed
    /// (`calibrate::host_speed`).
    pub host_speed: f64,
}

/// Technique names in `Technique::PAPER_SET` order.
const TECHNIQUES: [&str; 5] = ["no_mitigation", "reexecution", "bnp1", "bnp2", "bnp3"];

/// The per-layer metrics, in `BENCHMARK.json` order. Set-up metrics are
/// medians over the run's set-ups; job metrics are medians over its
/// traced jobs.
pub fn layer_metrics(run: &RunTrace<'_>) -> Vec<Metric> {
    let tree = run.tree;
    let over_setups = |f: &dyn Fn(SpanId) -> f64| -> f64 {
        median(&run.setups.iter().map(|&s| f(s)).collect::<Vec<_>>())
    };
    let jobs: Vec<JobStats> = run.reps.iter().map(|&r| JobStats::of(tree, r)).collect();
    let over_reps =
        |f: &dyn Fn(&JobStats) -> f64| -> f64 { median(&jobs.iter().map(f).collect::<Vec<_>>()) };
    let stage = |name: &'static str| move |s: SpanId| tree.total_secs(s, name);

    let mut out = vec![
        Metric::new(
            "snn_data.generate_s",
            over_setups(&stage("snn_data.generate")),
            "s",
        ),
        Metric::new("snn.train_s", over_setups(&stage("snn.train")), "s"),
        Metric::new(
            "snn.train_samples_per_s",
            over_setups(&|s| {
                let train = tree.descendants(s, "snn.train");
                let samples: u64 = train.iter().map(|&t| tree.get(t).attr("samples")).sum();
                samples as f64 / tree.total_secs(s, "snn.train")
            }),
            "1/s",
        ),
        Metric::new("snn.assign_s", over_setups(&stage("snn.assign")), "s"),
        Metric::new("snn.quantize_s", over_setups(&stage("snn.quantize")), "s"),
        Metric::new(
            "softsnn_core.deploy_s",
            over_setups(&stage("softsnn_core.deploy")),
            "s",
        ),
        Metric::new(
            "softsnn_core.encode_s",
            over_setups(&stage("softsnn_core.encode")),
            "s",
        ),
        Metric::new(
            "softsnn_core.clean_eval_s",
            over_setups(&stage("softsnn_core.clean_eval")),
            "s",
        ),
        Metric::new("setup.self_s", over_setups(&|s| tree.self_secs(s)), "s"),
        Metric::new(
            "softsnn_core.encode_invocations",
            run.encode_invocations as f64,
            "count",
        ),
    ];
    for (t, name) in TECHNIQUES.iter().enumerate() {
        out.push(Metric::new(
            format!("softsnn_exp.shard_busy_s.{name}"),
            over_reps(&|j| j.busy_by_technique[t]),
            "s",
        ));
    }
    out.extend([
        Metric::new(
            "snn_hw.sample_steps",
            over_reps(&|j| j.sample_steps),
            "count",
        ),
        Metric::new(
            "snn_hw.ns_per_sample_step",
            over_reps(&|j| j.busy_s * 1e9 / j.sample_steps),
            "ns",
        ),
        Metric::new(
            "snn_hw.read_cache_rebuilds",
            over_reps(&|j| j.rebuilds),
            "count",
        ),
        Metric::new(
            "snn_hw.read_cache_hit_ratio",
            over_reps(&|j| j.restores / (j.restores + j.rebuilds)),
            "ratio",
        ),
        Metric::new(
            "snn_faults.grid.busy_ratio",
            over_reps(&|j| j.busy_ratio),
            "ratio",
        ),
        Metric::new("snn_faults.grid.tail_s", over_reps(&|j| j.tail_s), "s"),
        Metric::new(
            "snn_faults.grid.self_s",
            over_reps(&|j| j.self_of(GRID_SPAN)),
            "s",
        ),
        Metric::new(
            "snn_faults.cell_ms_p50",
            over_reps(&|j| median(&j.cell_ms)),
            "ms",
        ),
        Metric::new(
            "snn_faults.cell_ms_max",
            over_reps(&|j| j.cell_ms.iter().copied().fold(0.0, f64::max)),
            "ms",
        ),
        Metric::new(
            "snn_faults.cell_count",
            over_reps(&|j| j.cell_ms.len() as f64),
            "count",
        ),
        Metric::new(
            "snn_faults.stats.kept_per_evaluated",
            over_reps(&|j| j.kept / j.evaluated),
            "ratio",
        ),
        Metric::new(
            "snn_faults.stats.trials_saved",
            over_reps(&|j| (run.n_cells * run.trials_per_cell) as f64 - j.evaluated),
            "count",
        ),
        Metric::new(
            "snn_faults.service.run_self_s",
            over_reps(&|j| j.self_of(SERVICE_RUN_SPAN)),
            "s",
        ),
        Metric::new(
            "snn_faults.service.resume_s",
            over_reps(&|j| j.total_of("snn_faults.service.resume")),
            "s",
        ),
        Metric::new(
            "snn_faults.service.results_s",
            over_reps(&|j| j.total_of("snn_faults.service.results")),
            "s",
        ),
        Metric::new(
            "softsnn_exp.job_fingerprint_s",
            over_reps(&|j| j.total_of("softsnn_exp.job_fingerprint")),
            "s",
        ),
        Metric::new(
            "softsnn_exp.artifact_s",
            over_reps(&|j| j.total_of("softsnn_exp.artifact")),
            "s",
        ),
        Metric::new(
            "softsnn_exp.bench_cache_hits",
            run.bench_cache_hits as f64,
            "count",
        ),
        Metric::new(
            "campaign.self_s",
            over_reps(&|j| tree.self_secs(j.span)),
            "s",
        ),
        Metric::new(
            "input.silent_fraction",
            run.activity.silent_fraction(),
            "ratio",
        ),
        Metric::new(
            "input.events_per_cycle",
            run.activity.events_per_cycle(),
            "events",
        ),
        Metric::new("snn_faults.sites_per_trial", run.sites_per_trial, "count"),
        Metric::new(
            "trace.coverage",
            tree.roots()
                .iter()
                .map(|&r| tree.get(r).secs())
                .sum::<f64>()
                / run.wall_s,
            "ratio",
        ),
        Metric::new(
            "trace.overhead_frac",
            run.traced_s / run.untraced_s - 1.0,
            "ratio",
        ),
        Metric::new("host.speed", run.host_speed, "ratio"),
    ]);
    out
}

/// What one traced job's spans add up to.
struct JobStats<'a> {
    tree: &'a SpanTree,
    span: SpanId,
    busy_by_technique: [f64; 5],
    busy_s: f64,
    sample_steps: f64,
    rebuilds: f64,
    restores: f64,
    evaluated: f64,
    kept: f64,
    busy_ratio: f64,
    tail_s: f64,
    cell_ms: Vec<f64>,
}

impl<'a> JobStats<'a> {
    fn of(tree: &'a SpanTree, rep: RepTrace) -> Self {
        let mut stats = Self {
            tree,
            span: rep.span,
            busy_by_technique: [0.0; 5],
            busy_s: 0.0,
            sample_steps: 0.0,
            rebuilds: 0.0,
            restores: 0.0,
            evaluated: 0.0,
            kept: rep.kept as f64,
            busy_ratio: 0.0,
            tail_s: 0.0,
            cell_ms: Vec::new(),
        };
        let workers = std::thread::available_parallelism().map_or(1, usize::from);
        // Per cell: first shard start and last shard end (an adaptive
        // cell spans several shard calls).
        let mut cells: BTreeMap<(u64, u64), (u64, u64)> = BTreeMap::new();
        let mut capacity_s = 0.0;
        for pass in [GRID_SPAN, SERVICE_RUN_SPAN] {
            for e in tree.descendants(rep.span, pass) {
                let pass_span = tree.get(e);
                let shards = tree.children(e);
                // Last shard end per worker thread.
                let mut last_end: BTreeMap<u64, u64> = BTreeMap::new();
                let mut pass_cells = std::collections::BTreeSet::new();
                for &s in &shards {
                    let shard = tree.get(s);
                    if shard.name != SHARD_SPAN {
                        continue;
                    }
                    let secs = shard.secs();
                    let technique = shard.attr("technique");
                    stats.busy_by_technique[technique as usize] += secs;
                    stats.busy_s += secs;
                    stats.sample_steps += shard.attr("sample_steps") as f64;
                    stats.rebuilds += shard.attr("rebuilds") as f64;
                    stats.restores += shard.attr("restores") as f64;
                    stats.evaluated += shard.attr("trials") as f64;
                    let key = (technique, shard.attr("rate"));
                    pass_cells.insert(key);
                    let cell = cells.entry(key).or_insert((shard.start_ns, shard.end_ns));
                    cell.0 = cell.0.min(shard.start_ns);
                    cell.1 = cell.1.max(shard.end_ns);
                    let end = last_end.entry(shard.thread).or_insert(0);
                    *end = (*end).max(shard.end_ns);
                }
                let pass_workers = workers.min(pass_cells.len()).max(1);
                capacity_s += pass_workers as f64 * pass_span.secs();
                let first_idle = if last_end.len() < pass_workers {
                    pass_span.start_ns
                } else {
                    last_end.values().copied().min().unwrap_or(pass_span.end_ns)
                };
                stats.tail_s += pass_span.end_ns.saturating_sub(first_idle) as f64 * 1e-9;
            }
        }
        stats.busy_ratio = stats.busy_s / capacity_s;
        stats.cell_ms = cells
            .values()
            .map(|&(start, end)| (end - start) as f64 * 1e-6)
            .collect();
        stats
    }

    fn self_of(&self, name: &str) -> f64 {
        self.tree
            .descendants(self.span, name)
            .iter()
            .map(|&s| self.tree.self_secs(s))
            .sum()
    }

    fn total_of(&self, name: &str) -> f64 {
        self.tree.total_secs(self.span, name)
    }
}
