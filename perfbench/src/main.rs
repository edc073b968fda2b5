//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints progress on stderr and, as the last line of stdout, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Untraced runs
//! report the end-to-end metrics, traced runs the per-layer metrics.
//! Optional: `--emit-artifact FILE` writes the first job's `fig13.json`.

use std::path::PathBuf;

use perfbench::runner::{self, Options};
use perfbench::workload::Kind;
use softsnn_exp::workbench::BASE_SEED;

const USAGE: &str = "usage: perfbench --workload <fig13_quick|campaign_neuron_adaptive|\
                     resume_sparse_event> [--seed N] [--seconds S] [--trace 0|1] \
                     [--emit-artifact FILE]";

fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut it = args.into_iter();
    let mut kind = None;
    let mut opts = Options {
        kind: Kind::Fig13Quick,
        seed: BASE_SEED,
        seconds: 30.0,
        trace: false,
        work_dir: PathBuf::new(),
        emit_artifact: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value; {USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!("unknown workload `{v}`; {USAGE}"))?);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}` (0|1)")),
                };
            }
            "--emit-artifact" => opts.emit_artifact = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`; {USAGE}")),
        }
    }
    opts.kind = kind.ok_or(USAGE)?;
    if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_owned());
    }
    Ok(opts)
}

fn main() {
    let mut opts = match parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    // Campaign roots and trace files stay inside the working directory
    // (the checkout the benchmark runs from).
    let out_dir = PathBuf::from(".perfbench");
    opts.work_dir = out_dir.join(format!("work-{}", std::process::id()));
    let outcome = runner::run(&opts);
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench {} failed: {e}", opts.kind.name());
            std::process::exit(1);
        }
    };
    for problem in &report.problems {
        eprintln!("[perfbench] check failed: {problem}");
    }
    eprintln!("[perfbench] fig13.json digest {:016x}", report.digest);
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
}
