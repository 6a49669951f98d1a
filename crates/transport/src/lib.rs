//! # rxl-transport — Transaction-layer endpoints and failure auditing
//!
//! The paper defines a protocol failure as either corrupted data reaching the
//! application layer (`Fail_data`) or data reaching it in the wrong order
//! (`Fail_order`) — Section 7.1. This crate provides the transaction-layer
//! machinery that turns link-layer events into those failure categories:
//!
//! * [`audit`] — the delivery auditor: given the transmit-order ground truth,
//!   it classifies every delivered message as in-order, duplicate,
//!   out-of-order (within a CQID), or corrupted, and tallies missing ones,
//! * [`stream`] — that ground truth as a value: a [`SentStream`] is built
//!   once per workload and shared by every trial's injector and auditor,
//! * [`requester`] / [`completer`] — a request/response/data transaction
//!   engine (the CXL.mem-style three-message exchange of Section 2.2) used by
//!   the workload generators,
//! * [`coherence`] — a MESI-lite directory that demonstrates how duplicated
//!   or reordered requests corrupt coherence state (Section 4.2),
//! * [`failure`] — the failure counters shared by the simulator and the
//!   experiment harnesses.

pub mod audit;
#[cfg(test)]
mod audit_reference;
pub mod coherence;
pub mod completer;
pub mod failure;
pub mod requester;
pub mod stream;

pub use audit::{mix64, DeliveryAuditor, DeliveryVerdict, FastMap, FxHasher};
pub use coherence::{CoherenceDirectory, CoherenceViolation, LineState};
pub use completer::Completer;
pub use failure::FailureCounts;
pub use requester::{OutstandingRequest, Requester};
pub use stream::SentStream;
