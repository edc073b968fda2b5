//! # softsnn-core — the SoftSNN methodology (DAC 2022)
//!
//! This crate implements the paper's contribution: run-time mitigation of
//! soft errors in SNN accelerator compute engines **without re-execution**,
//! via three steps (paper Sec. 3, Fig. 8):
//!
//! 1. **SNN fault-tolerance analysis** ([`analysis`]) — characterize the
//!    clean (fault-free) trained network: its weight distribution, maximum
//!    weight `wgh_max` (the *safe range* bound), and most probable weight
//!    `wgh_hp`.
//! 2. **Bound-and-Protect (BnP)** — *weight bounding* ([`bounding`]):
//!    every weight read as `wgh ≥ wgh_th` is replaced with `wgh_def`
//!    (Eq. 1), with three variants — BnP1 (`wgh_def = 0`), BnP2
//!    (`wgh_def = wgh_max`), BnP3 (`wgh_def = wgh_hp`) — and *neuron
//!    protection* ([`protection`]): a monitor that watches each neuron's
//!    `Vmem ≥ Vth` comparator and disables spike generation once it has
//!    been true for ≥ 2 consecutive cycles (the faulty-`Vmem reset`
//!    signature), until parameter replacement.
//! 3. **Lightweight hardware support** ([`enhanced`]) —
//!    radiation-hardened comparator+mux per synapse, shared threshold /
//!    default registers, and per-neuron protection logic, priced through
//!    the `snn-hw` cost models (hardening factors in
//!    `snn_hw::components`; area 1.14× / 1.18×, energy ≈1.3× / 1.56×,
//!    clock ≈1.0× / 1.06× — paper Fig. 14).
//!
//! [`mitigation`] defines the comparison set of the paper's evaluation
//! (No-Mitigation, Re-execution/TMR, BnP1-3) and [`methodology`] ties
//! everything into an end-to-end deployment: train → quantize → deploy →
//! inject → mitigate → evaluate.
//!
//! ```
//! use softsnn_core::bounding::{BnpVariant, BoundingConfig};
//! use softsnn_core::analysis::WeightAnalysis;
//! use snn_sim::{config::SnnConfig, network::Network, rng::seeded_rng};
//! use snn_sim::quant::QuantizedNetwork;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = SnnConfig::builder().n_inputs(16).n_neurons(4).build()?;
//! let net = Network::new(cfg, &mut seeded_rng(0));
//! let qn = QuantizedNetwork::from_network_default(&net);
//! let analysis = WeightAnalysis::of_clean_network(&qn);
//! let bnp1 = BoundingConfig::for_variant(BnpVariant::Bnp1, &analysis);
//! assert_eq!(bnp1.default_code, 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod bounding;
pub mod conventional;
pub mod enhanced;
pub mod fingerprint;
pub mod methodology;
pub mod mitigation;
pub mod overhead;
pub mod protection;

pub use analysis::WeightAnalysis;
pub use bounding::{BnpVariant, BoundedRead, BoundingConfig};
pub use methodology::SoftSnnDeployment;
pub use mitigation::Technique;
pub use protection::ResetMonitor;
