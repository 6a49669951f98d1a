//! # rxl-flit — CXL/RXL flit formats and codec pipelines
//!
//! This crate models the data units the paper reasons about:
//!
//! * [`header`] — the 2-byte flit header with its 10-bit Flit Sequence
//!   Number (FSN) and 2-bit ReplayCmd field (Fig. 3 of the paper),
//! * [`message`] — transaction-layer messages (requests, responses, data)
//!   with Command Queue IDs (CQIDs), the units whose ordering and duplication
//!   failures Section 4.2 analyses,
//! * [`slots`] — packing/unpacking of messages into the 240-byte flit
//!   payload,
//! * [`flit256`] — the 256-byte full-speed flit,
//! * [`codec`] — the one wire pipeline (ISN CRC, then FEC): **RXL** binds
//!   each flit to its sequence number, and the **CXL baseline** (link-layer
//!   CRC over header‖payload, explicit FSN) is the same codec bound to
//!   sequence 0.
//!
//! # Example
//!
//! ```
//! use rxl_flit::{Flit256, FlitHeader, Message, MemOp, RxlFlitCodec};
//!
//! let codec = RxlFlitCodec::new();
//! let mut flit = Flit256::new(FlitHeader::ack(0));
//! flit.pack_messages(&[Message::request(MemOp::RdCurr, 0x8000, 3, 1)]).unwrap();
//!
//! // Sender binds the flit to sequence number 7.
//! let wire = codec.encode(&flit, 7);
//! // Receiver expecting sequence 7 accepts it ...
//! assert!(codec.decode(&wire, 7).accepted());
//! // ... but a receiver expecting sequence 8 (a flit was dropped) rejects it.
//! assert!(!codec.decode(&wire, 8).accepted());
//! ```

pub mod codec;
pub mod flit256;
pub mod header;
pub mod message;
pub mod slots;

pub use codec::{CxlFlitCodec, FlitDecode, RxlFlitCodec, WireFlit, WIRE_FLIT_LEN};
pub use flit256::{Flit256, FLIT_PAYLOAD_LEN};
pub use header::{FlitHeader, FlitType, ReplayCmd, FSN_BITS, FSN_MASK};
pub use message::{MemOp, Message, RspStatus};
pub use slots::{
    encode_slot, pack_messages, pack_messages_into, unpack_messages, unpack_messages_into,
    SlotError, MESSAGES_PER_FLIT, SLOT_LEN,
};
