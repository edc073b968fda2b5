//! Output checks: every cell of every measured job is checked on its own,
//! and the whole artifact against the reference path's digest and, for
//! the seeds recorded in `digests.txt`, against the recorded digest.

use snn_faults::grid::{GridResults, GridSpec};

/// FNV-1a (64-bit) over raw bytes: the artifact digest. Implemented here
/// so a change to the program's own hashing cannot move the benchmark's
/// recorded digests.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `fig13.json` digests recorded for fixed seeds, one
/// `<workload> <seed> <digest as 16 hex digits>` line each. The
/// `fig13_quick` entry at `workbench::BASE_SEED` is the digest of
/// `fig13 --profile quick --workload mnist`'s own `fig13.json`.
const RECORDED: &str = include_str!("../digests.txt");

/// The recorded digest for `(workload, seed)`, if there is one.
///
/// # Panics
///
/// Panics if `digests.txt` holds a malformed line (it is compiled in).
pub fn recorded_digest(workload: &str, seed: u64) -> Option<u64> {
    RECORDED
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .find_map(|line| {
            let mut fields = line.split_whitespace();
            let (name, s, d) = (fields.next()?, fields.next()?, fields.next()?);
            let s: u64 = s.parse().expect("digests.txt: seed is a decimal u64");
            let d = u64::from_str_radix(d, 16).expect("digests.txt: digest is hex");
            (name == workload && s == seed).then_some(d)
        })
}

/// Cells checked and cells that failed a check, with the first few
/// reasons.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellTally {
    /// Cells checked.
    pub attempted: usize,
    /// Cells that failed at least one check.
    pub failed: usize,
    /// Human-readable reasons (capped).
    pub problems: Vec<String>,
}

impl CellTally {
    /// Counts one cell; `problem` is `Some` when it failed.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(p);
            }
        }
    }

    /// Counts `n` cells that all failed for one reason (an evaluation
    /// error loses the whole job).
    pub fn record_lost(&mut self, n: usize, why: String) {
        self.attempted += n;
        self.failed += n;
        if self.problems.len() < 8 {
            self.problems.push(why);
        }
    }
}

/// Checks one job's grid cell by cell:
///
/// - it has exactly the spec's cells;
/// - each cell ran at most the trial budget and holds that many values;
/// - each accuracy lies in [0, 100] and is a whole number of correct
///   samples out of `n_test` (a multiple of 100 / `n_test`);
/// - each cell equals the reference grid's cell bit for bit.
pub fn check_cells(
    tally: &mut CellTally,
    grid: &GridResults,
    reference: &GridResults,
    spec: &GridSpec,
    n_test: usize,
) {
    let cells = grid.cells();
    if cells.len() != spec.n_cells() {
        tally.record_lost(
            spec.n_cells(),
            format!("{} cells, expected {}", cells.len(), spec.n_cells()),
        );
        return;
    }
    for (cell, want) in cells.iter().zip(reference.cells()) {
        let at = format!(
            "cell (technique {}, rate {})",
            cell.key.technique_idx, cell.key.rate_idx
        );
        let problem = if cell.trials_run > spec.trials || cell.trials.len() != cell.trials_run {
            Some(format!(
                "{at}: {} trials run, {} values, budget {}",
                cell.trials_run,
                cell.trials.len(),
                spec.trials
            ))
        } else if let Some(&bad) = cell.trials.iter().find(|&&a| !is_accuracy(a, n_test)) {
            Some(format!(
                "{at}: accuracy {bad} is not k*100/{n_test} in [0, 100]"
            ))
        } else if cell != want {
            Some(format!("{at}: differs from the reference"))
        } else {
            None
        };
        tally.record(problem);
    }
}

/// Whether `pct` is `100·k/n_test` for a whole `k` in `0..=n_test`.
pub fn is_accuracy(pct: f64, n_test: usize) -> bool {
    let correct = pct * n_test as f64 / 100.0;
    (0.0..=100.0).contains(&pct) && (correct - correct.round()).abs() < 1e-6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn accuracies_are_whole_sample_counts() {
        assert!(is_accuracy(81.25, 80));
        assert!(is_accuracy(0.0, 80));
        assert!(is_accuracy(100.0, 80));
        assert!(!is_accuracy(81.3, 80));
        assert!(!is_accuracy(101.25, 80));
        assert!(!is_accuracy(-1.25, 80));
    }
}
