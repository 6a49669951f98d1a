//! # rxl-core — The paper's contribution as a library
//!
//! This crate packages the Implicit Sequence Number (ISN) mechanism and the
//! RXL protocol stack behind a small, session-oriented API:
//!
//! * [`stack`] — [`RxlStack`] and [`CxlStack`]: one endpoint's send/receive
//!   session at flit granularity. The RXL stack binds every transmitted flit
//!   to a sequence number through the ISN ECRC and rejects anything that is
//!   corrupted, dropped-ahead-of, or replayed; the CXL stack reproduces the
//!   baseline behaviour (explicit FSN checks only when the header carries
//!   one) for comparison.
//! * [`config`] — [`StackConfig`] / [`ProtocolKind`]: which protocol, which
//!   ISN folding mode, how many sequence bits.
//! * [`fabric`] — [`FabricSpec`]: projecting the paper's per-device FIT
//!   analysis onto whole multi-node fabrics (how often does a 16K-GPU
//!   training job see an interconnect-induced failure?), and
//!   [`FabricSpec::simulate`]: backing that projection with `rxl-fabric`
//!   discrete-event simulation evidence at an accelerated BER.
//!
//! The lower layers remain available as independent crates (`rxl-crc`,
//! `rxl-fec`, `rxl-flit`, `rxl-link`, `rxl-switch`, `rxl-sim`) for users who
//! need the mechanisms rather than the sessions.
//!
//! # Quickstart
//!
//! ```
//! use rxl_core::{RxlStack, ReceiveError};
//! use rxl_flit::{Flit256, FlitHeader, MemOp, Message};
//!
//! let mut sender = RxlStack::new();
//! let mut receiver = RxlStack::new();
//!
//! // Two flits leave the sender...
//! let mut flit_a = Flit256::new(FlitHeader::ack(0));
//! flit_a.pack_messages(&[Message::request(MemOp::RdCurr, 0x1000, 0, 0)]).unwrap();
//! let wire_a = sender.send(&flit_a);
//! let wire_b = sender.send(&flit_a);
//!
//! // ...but the first one is silently dropped. The receiver immediately
//! // notices when the second one arrives.
//! assert!(matches!(
//!     receiver.receive(&wire_b),
//!     Err(ReceiveError::SequenceOrDataMismatch)
//! ));
//! // Once the dropped flit is replayed, in-order delivery resumes.
//! assert!(receiver.receive(&wire_a).is_ok());
//! assert!(receiver.receive(&wire_b).is_ok());
//! ```

pub mod config;
pub mod fabric;
pub mod stack;

pub use config::{ProtocolKind, StackConfig};
pub use fabric::{FabricReliability, FabricSimEvidence, FabricSimOptions, FabricSpec};
pub use stack::{CxlStack, ReceiveError, RxlStack};
