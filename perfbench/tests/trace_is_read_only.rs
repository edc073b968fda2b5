//! Tracing is read-only: a traced job renders the same `fig13.json`
//! bytes as an untraced one, and both match the workload's reference
//! path. Runs every workload at smoke scale; use `--release` for speed.

use perfbench::check::digest;
use perfbench::setup;
use perfbench::trace::Tracer;
use perfbench::workload::{run_job, run_reference, Kind, Plan, SHARD_SPAN};
use softsnn_exp::campaign::job_fingerprint;
use softsnn_exp::profile::Profile;
use softsnn_exp::workbench::{self, BASE_SEED};

const SEED: u64 = 7;

#[test]
fn tracing_changes_no_output_digest() {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace_is_read_only");
    let _ = std::fs::remove_dir_all(&root);
    for kind in Kind::ALL {
        let plan = Plan::new(kind, Profile::Smoke);
        let off = Tracer::new(false);
        let on = Tracer::new(true);
        let bench = setup::prepare(&plan.bench, SEED, &off, None).unwrap();
        let traced_bench = on.span("setup", None, |s| setup::prepare(&plan.bench, SEED, &on, s));
        assert_eq!(
            job_fingerprint(&bench),
            job_fingerprint(&traced_bench.unwrap()),
            "{}: tracing changed the set-up",
            kind.name()
        );

        let dir = root.join(kind.name());
        let untraced = run_job(&plan, &bench, SEED, &dir.join("off"), &off, None).unwrap();
        let traced = on
            .span("campaign", None, |c| {
                run_job(&plan, &bench, SEED, &dir.join("on"), &on, c)
            })
            .unwrap();
        assert_eq!(
            digest(untraced.artifact.as_bytes()),
            digest(traced.artifact.as_bytes()),
            "{}: tracing changed the artifact",
            kind.name()
        );
        let reference = run_reference(&plan, &bench, SEED).unwrap();
        assert_eq!(
            reference.artifact,
            untraced.artifact,
            "{}: job differs from its reference path",
            kind.name()
        );
        let tree = on.snapshot();
        assert!(
            tree.spans().iter().any(|s| s.name == SHARD_SPAN),
            "{}: the traced job recorded no shard spans",
            kind.name()
        );
        assert!(off.snapshot().spans().is_empty());
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn decomposed_setup_builds_the_workbench_bench() {
    let plan = Plan::new(Kind::Fig13Quick, Profile::Smoke);
    let decomposed = setup::prepare(&plan.bench, BASE_SEED, &Tracer::new(false), None).unwrap();
    let shipped = workbench::prepare(
        plan.bench.workload,
        plan.bench.scale.n_neurons,
        Profile::Smoke,
    )
    .unwrap();
    assert_eq!(job_fingerprint(&decomposed), job_fingerprint(&shipped));
    assert_eq!(decomposed.clean_accuracy, shipped.clean_accuracy);
}
