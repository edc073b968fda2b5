//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts by a third over
//! minutes (co-tenants, frequency changes). A run measured in a slow
//! phase would read as a regression of the program. To cancel that, the
//! runner runs a fixed calibration kernel on every CPU around each timed
//! interval, and scales the interval's wall time by how much faster than
//! [`REFERENCE_S`] the kernel ran around it.
//!
//! The kernel is frozen: it depends on nothing in the repository, so no
//! change to the program can speed it up or slow it down. It does the
//! engine's kind of work — sparse rows of `i16` weights accumulated into
//! `i32` membranes, then a leak/threshold/reset pass — with a working set
//! that stays in cache like the engine's.

use std::fs::File;
use std::hint::black_box;
use std::io::Read;
use std::sync::OnceLock;
use std::time::Instant;

/// Kernel time (s) of one thread on a host running at the speed the
/// benchmark's times are expressed in: about the fastest the kernel ran
/// on a 2-vCPU Xeon (Sapphire Rapids) KVM guest.
pub const REFERENCE_S: f64 = 0.08;

const INPUTS: usize = 784;
const NEURONS: usize = 400;
const ACTIVE_ROWS: usize = 28;
const STEPS: usize = 40_000;
const THRESHOLD: i32 = 20_000;
const LEAK: i32 = 3;

static WEIGHTS: OnceLock<Vec<i16>> = OnceLock::new();

/// Runs the kernel once on every available CPU at once and returns the
/// host speed: the mean over the threads of [`REFERENCE_S`] ÷ the CPU
/// time the thread's kernel took. The mean, because the grid's workers
/// share cells dynamically, so a job's throughput follows the sum of the
/// CPUs' speeds. CPU time, not wall time: the scheduler sometimes starts
/// both threads on one vCPU, and a kernel that waited for its turn says
/// nothing about how fast the host runs code. The threads allocate
/// nothing, so the process's heap (and `peak_rss_mb`) is left as it was.
pub fn host_speed() -> f64 {
    let weights = WEIGHTS.get_or_init(weights);
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let total: f64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let cpu = thread_cpu_s();
                    let t = Instant::now();
                    black_box(kernel(black_box(weights)));
                    let wall = t.elapsed().as_secs_f64();
                    let secs = match (cpu, thread_cpu_s()) {
                        (Some(before), Some(after)) if after > before => after - before,
                        _ => wall,
                    };
                    REFERENCE_S / secs
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread"))
            .sum()
    });
    total / threads as f64
}

/// On-CPU time of the calling thread (s), from the first field of
/// `/proc/thread-self/schedstat` (nanoseconds, exact at context switches
/// and updated every scheduler tick); `None` where that is unavailable.
fn thread_cpu_s() -> Option<f64> {
    let mut buf = [0_u8; 96];
    let n = File::open("/proc/thread-self/schedstat")
        .and_then(|mut f| f.read(&mut buf))
        .ok()?;
    let ns: u64 = std::str::from_utf8(&buf[..n])
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(ns as f64 / 1e9)
}

fn weights() -> Vec<i16> {
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    (0..INPUTS * NEURONS)
        .map(|_| {
            state = lcg(state);
            ((state >> 40) % 256) as i16 - 96
        })
        .collect()
}

fn lcg(state: u64) -> u64 {
    state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

fn kernel(weights: &[i16]) -> u64 {
    let mut state = lcg(1);
    let mut v = [0_i32; NEURONS];
    let mut fired = 0_u64;
    for _ in 0..STEPS {
        for _ in 0..ACTIVE_ROWS {
            state = lcg(state);
            let row = (state >> 33) as usize % INPUTS;
            let w = &weights[row * NEURONS..(row + 1) * NEURONS];
            for (vj, &wj) in v.iter_mut().zip(w) {
                *vj += i32::from(wj);
            }
        }
        for vj in &mut v {
            if *vj >= THRESHOLD {
                *vj = 0;
                fired += 1;
            } else {
                *vj = (*vj - LEAK).max(0);
            }
        }
    }
    fired
}
