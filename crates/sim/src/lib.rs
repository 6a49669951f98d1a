//! # rxl-sim — Flit-level Monte-Carlo simulation of CXL/RXL paths
//!
//! The paper's evaluation is analytic; this crate provides the complementary
//! simulation evidence. A [`PathSim`] instantiates one
//! host–device pair connected either directly or through a chain of
//! switching devices, drives bidirectional transaction traffic through the
//! real link-layer state machines (`rxl-link`), the real FEC/CRC codecs
//! (`rxl-fec`, `rxl-crc`) and the real switch model (`rxl-switch`), injects
//! channel errors, and audits every delivered message against ground truth
//! (`rxl-transport`).
//!
//! Because the paper's operating point (BER 10⁻⁶, FER_UC 3×10⁻⁵) makes
//! interesting events rare, experiments typically run the channel at an
//! accelerated BER and/or for many Monte-Carlo trials; the
//! [`montecarlo`] module parallelises independent trials across cores with
//! rayon and aggregates failure statistics.
//!
//! * [`topology`] — the path description (direct, or N switch levels),
//! * [`workload`] — deterministic message-stream generators,
//! * [`path`] — the slot-synchronous path simulator,
//! * [`montecarlo`] — parallel multi-trial aggregation,
//! * [`report`] — per-trial and aggregate result types.

pub mod montecarlo;
pub mod path;
pub mod report;
pub mod topology;
pub mod workload;

pub use montecarlo::{trial_seed, MonteCarlo, MonteCarloReport};
pub use path::{PathSim, SimConfig};
pub use report::SimReport;
pub use topology::Topology;
pub use workload::{request_stream, response_stream, TrafficPattern};
