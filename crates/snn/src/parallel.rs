//! Minimal scoped-thread parallel map for embarrassingly parallel work
//! grids.
//!
//! Every grid point in the fault-injection experiments is independent
//! (own deployment clone, own derived seed), so they parallelize across
//! however many cores the host has. On a single-core host this degrades
//! gracefully to a sequential loop.
//!
//! This lives in `snn-sim` (the workspace's root crate); the grid cell
//! loop in `snn-faults` is its one caller.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every item, using up to `available_parallelism` worker
/// threads, and returns outputs in input order.
///
/// `f` must be `Sync` (it is shared by reference across workers); use
/// interior cloning for per-task mutable state.
///
/// # Examples
///
/// ```
/// let squares = snn_sim::parallel::parallel_map(&[1, 2, 3], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9]);
/// ```
pub fn parallel_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n_workers = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(items.len().max(1));
    if n_workers <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<U>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..n_workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let out = f(&items[i]);
                results.lock().expect("poisoned results")[i] = Some(out);
            });
        }
    });
    results
        .into_inner()
        .expect("poisoned results")
        .into_iter()
        .map(|o| o.expect("every index visited"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&items, |&x| x + 1);
        assert_eq!(out, (1..101).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = parallel_map(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        assert_eq!(parallel_map(&[7], |&x| x * 2), vec![14]);
    }

    #[test]
    fn handles_non_copy_outputs() {
        let out = parallel_map(&[1, 2], |&x| vec![x; x]);
        assert_eq!(out, vec![vec![1], vec![2, 2]]);
    }

    #[test]
    fn matches_sequential_map_exactly() {
        let items: Vec<u64> = (0..257).collect();
        let parallel = parallel_map(&items, |&x| x.wrapping_mul(0x9E3779B97F4A7C15));
        let sequential: Vec<u64> = items
            .iter()
            .map(|&x| x.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        assert_eq!(parallel, sequential);
    }
}
