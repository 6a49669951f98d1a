//! # rxl-link — Link layer for the CXL/RXL reproduction
//!
//! This crate implements the link-layer machinery Section 4 and Section 6 of
//! the paper reason about:
//!
//! * [`channel`] — bit-error channel models (i.i.d. BER plus a DFE-style
//!   burst-propagation model) used to corrupt wire flits in flight,
//! * [`seq`] — wrap-aware 10-bit sequence-number arithmetic,
//! * [`retry`] — the transmit replay buffer and go-back-N bookkeeping,
//! * [`ack`] — ACK scheduling: coalescing level and piggybacking policy,
//! * [`variant`] — the three protocol variants evaluated in the paper:
//!   CXL with ACK piggybacking, CXL with standalone ACK flits, and RXL —
//!   and [`LinkCodec`], the flit codec each one puts on the wire,
//! * [`tx`] / [`rx`] — transmit and receive state machines for one direction
//!   of a link, faithful to the failure semantics of Fig. 4 (the baseline CXL
//!   receiver cannot check the sequence of ACK-carrying flits and forwards
//!   them blindly; the RXL receiver validates every flit via the ISN ECRC),
//! * [`endpoint`] — a convenience pairing of a TX and an RX that wires local
//!   ACK/NACK feedback together, as a full-duplex port would,
//! * [`stats`] — link-layer counters used by the experiments.

pub mod ack;
pub mod channel;
pub mod credit;
pub mod endpoint;
pub mod retry;
pub mod rx;
pub mod seq;
pub mod stats;
pub mod tx;
#[cfg(test)]
mod tx_reference;
pub mod variant;

pub use ack::{AckPolicy, AckScheduler};
pub use channel::{
    clamp_ber, geometric_failures, BurstModel, Channel, ChannelErrorModel, ErrorPrediction,
    EventCursor, MAX_BER,
};
pub use credit::CreditCounter;
pub use endpoint::LinkEndpoint;
pub use retry::ReplayBuffer;
pub use rx::{Delivered, LinkRx, RxResult};
pub use seq::{seq_add, seq_distance, seq_next, SEQ_MASK, SEQ_SPACE};
pub use stats::LinkStats;
pub use tx::{FlitRef, LinkTx, TxEmission};
pub use variant::{LinkCodec, LinkConfig, ProtocolVariant};
