//! # rxl-core — the paper's FIT analysis projected onto whole fabrics
//!
//! [`FabricSpec`] scales the per-device FIT analysis of Section 7.1 up to a
//! multi-node fabric: how often does a 16K-GPU training job see an
//! interconnect-induced ordering failure under baseline CXL, and under RXL?
//! [`FabricSpec::simulate`] backs that projection with `rxl-fabric`
//! discrete-event simulation evidence at an accelerated BER.
//!
//! The link itself — the send/receive state machines that bind every flit
//! to its sequence number through the ISN ECRC, or, under baseline CXL,
//! check it only when the header carries an explicit FSN — is
//! `rxl-link`'s `LinkTx` / `LinkRx` / `LinkEndpoint`, the same receiver every
//! simulator runs.
//!
//! # Quickstart
//!
//! ```
//! use rxl_core::{FabricSpec, ProtocolKind};
//!
//! // A Llama-3.1-scale job: 16K accelerators behind one switch level, 54 days.
//! let job_hours = 54.0 * 24.0;
//! let cxl = FabricSpec::new(ProtocolKind::Cxl, 16_384, 1).project(job_hours);
//! let rxl = FabricSpec::new(ProtocolKind::Rxl, 16_384, 1).project(job_hours);
//!
//! // Baseline CXL expects interconnect-induced failures during the job;
//! // RXL's implicit sequence numbers make them vanishingly rare.
//! assert!(cxl.failures_per_job > 1.0);
//! assert!(rxl.failures_per_job < 1e-6 * cxl.failures_per_job);
//! ```

pub mod fabric;

pub use fabric::{
    FabricReliability, FabricSimEvidence, FabricSimOptions, FabricSpec, ProtocolKind,
};
