//! The 256-byte full-speed flit.
//!
//! Structure (Fig. 3 of the paper): 2-byte header, 240-byte payload, 8-byte
//! CRC and 6-byte FEC. This module models the *unencoded* flit (header +
//! payload); the CRC and FEC are attached by the codecs in [`crate::codec`].

use crate::header::FlitHeader;
use crate::message::Message;
use crate::slots::{pack_messages_into, unpack_messages, SlotError};

/// Payload bytes per 256-byte flit.
pub const FLIT_PAYLOAD_LEN: usize = 240;
/// Header bytes per flit.
pub const FLIT_HEADER_LEN: usize = 2;
/// CRC bytes per flit.
pub const FLIT_CRC_LEN: usize = 8;
/// FEC bytes per flit.
pub const FLIT_FEC_LEN: usize = 6;
/// Total wire size of a 256-byte flit.
pub const FLIT_TOTAL_LEN: usize = FLIT_HEADER_LEN + FLIT_PAYLOAD_LEN + FLIT_CRC_LEN + FLIT_FEC_LEN;

/// An unencoded 256-byte-class flit: header plus 240-byte payload.
#[derive(Clone, PartialEq, Eq)]
pub struct Flit256 {
    /// The 2-byte control header.
    pub header: FlitHeader,
    /// The 240-byte payload.
    pub payload: [u8; FLIT_PAYLOAD_LEN],
}

impl std::fmt::Debug for Flit256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Flit256")
            .field("header", &self.header)
            .field("payload_prefix", &&self.payload[..8])
            .finish()
    }
}

impl Flit256 {
    /// Creates a flit with an all-zero payload.
    pub fn new(header: FlitHeader) -> Self {
        Flit256 {
            header,
            payload: [0u8; FLIT_PAYLOAD_LEN],
        }
    }

    /// Creates a flit with the given payload.
    pub fn with_payload(header: FlitHeader, payload: [u8; FLIT_PAYLOAD_LEN]) -> Self {
        Flit256 { header, payload }
    }

    /// Creates an idle flit (no messages).
    pub fn idle() -> Self {
        Flit256::new(FlitHeader {
            flit_type: crate::header::FlitType::Idle,
            ..FlitHeader::default()
        })
    }

    /// Packs transaction messages into the payload, replacing its contents.
    /// Writes the slots in place — no intermediate buffer.
    pub fn pack_messages(&mut self, messages: &[Message]) -> Result<(), SlotError> {
        pack_messages_into(messages, &mut self.payload)
    }

    /// Unpacks the transaction messages currently in the payload.
    pub fn unpack_messages(&self) -> Result<Vec<Message>, SlotError> {
        unpack_messages(&self.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{FlitType, ReplayCmd};
    use crate::message::MemOp;

    #[test]
    fn size_constants_add_up_to_256() {
        assert_eq!(FLIT_TOTAL_LEN, 256);
        assert_eq!(FLIT_HEADER_LEN + FLIT_PAYLOAD_LEN + FLIT_CRC_LEN, 250);
    }

    #[test]
    fn new_flit_has_zero_payload() {
        let f = Flit256::new(FlitHeader::with_seq(3));
        assert!(f.payload.iter().all(|&b| b == 0));
        assert_eq!(f.header.fsn, 3);
    }

    #[test]
    fn idle_flit_type() {
        let f = Flit256::idle();
        assert_eq!(f.header.flit_type, FlitType::Idle);
        assert_eq!(f.header.replay_cmd, ReplayCmd::SeqNum);
    }

    #[test]
    fn message_round_trip_through_payload() {
        let mut f = Flit256::new(FlitHeader::ack(100));
        let msgs = vec![
            Message::request(MemOp::RdCurr, 0x1000, 0, 1),
            Message::request(MemOp::RdCurr, 0x2000, 0, 2),
        ];
        f.pack_messages(&msgs).unwrap();
        assert_eq!(f.unpack_messages().unwrap(), msgs);
    }

    #[test]
    fn debug_is_compact() {
        let f = Flit256::new(FlitHeader::with_seq(1));
        let s = format!("{f:?}");
        assert!(s.contains("payload_prefix"));
        assert!(s.len() < 300);
    }
}
