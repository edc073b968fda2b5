//! End-to-end campaign benchmark for the SoftSNN reproduction.
//!
//! Each run builds a bench from a workload seed, then runs one named
//! workload's fault-injection job back to back through the public APIs of
//! `snn_data`, `snn_sim`, `softsnn_core`, `snn_faults` and `softsnn_exp`,
//! checking every job's output. See `README.md` for the workloads and
//! metrics.

pub mod calibrate;
pub mod check;
pub mod metrics;
pub mod runner;
pub mod setup;
pub mod trace;
pub mod workload;
