//! # rxl-transport — Transaction-layer failure auditing
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
//! * [`failure`] — the failure counters shared by the simulator and the
//!   experiment harnesses,
//! * [`mix64`] — the bijective finalizer behind the fabric's message keys.
//!
//! Nothing here hashes per message: the auditor indexes stream positions,
//! and the probes' inject → deliver joins index `(dst, tag)` through
//! `rxl_fabric::SpanJoin`.

pub mod audit;
#[cfg(test)]
mod audit_reference;
pub mod failure;
pub mod stream;

pub use audit::{mix64, DeliveryAuditor, DeliveryVerdict};
pub use failure::FailureCounts;
pub use stream::SentStream;
