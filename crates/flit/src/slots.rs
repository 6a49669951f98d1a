//! Packing transaction messages into flit payloads.
//!
//! The 240-byte flit payload is divided into fixed 16-byte slots, each
//! carrying one serialized [`Message`] (or marked empty). The real CXL slot
//! format is denser (the paper quotes up to 44 messages per 128-byte group);
//! the exact packing efficiency does not affect any reliability result, so
//! this reproduction favours a simple, fully self-describing layout that the
//! transaction-layer failure scenarios can decode unambiguously.

use crate::message::{MemOp, Message, RspStatus, DATA_CHUNK_LEN};

/// Bytes per payload slot.
pub const SLOT_LEN: usize = 16;
/// Number of slots (and therefore messages) per 240-byte payload.
pub const MESSAGES_PER_FLIT: usize = 240 / SLOT_LEN;

const KIND_EMPTY: u8 = 0;
const KIND_REQUEST: u8 = 1;
const KIND_RESPONSE: u8 = 2;
const KIND_DATA_HEADER: u8 = 3;
const KIND_DATA: u8 = 4;

/// Errors that can occur while packing or unpacking payload slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotError {
    /// More messages were supplied than the payload has slots.
    TooManyMessages {
        /// Number of messages supplied.
        given: usize,
        /// Number of slots available.
        capacity: usize,
    },
    /// The payload length is not the expected flit payload size.
    BadPayloadLength(usize),
    /// A slot carried an unknown message kind byte.
    UnknownKind(u8),
}

impl std::fmt::Display for SlotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlotError::TooManyMessages { given, capacity } => {
                write!(
                    f,
                    "{given} messages exceed the {capacity}-slot payload capacity"
                )
            }
            SlotError::BadPayloadLength(len) => write!(f, "payload length {len} is not valid"),
            SlotError::UnknownKind(k) => write!(f, "unknown slot kind {k}"),
        }
    }
}

impl std::error::Error for SlotError {}

fn encode_slot(msg: &Message) -> [u8; SLOT_LEN] {
    let mut slot = [0u8; SLOT_LEN];
    match *msg {
        Message::Request {
            op,
            addr,
            cqid,
            tag,
        } => {
            slot[0] = KIND_REQUEST;
            slot[1] = op as u8;
            slot[2..4].copy_from_slice(&cqid.to_le_bytes());
            slot[4..6].copy_from_slice(&tag.to_le_bytes());
            slot[6..14].copy_from_slice(&addr.to_le_bytes());
        }
        Message::Response { cqid, tag, status } => {
            slot[0] = KIND_RESPONSE;
            slot[1] = status as u8;
            slot[2..4].copy_from_slice(&cqid.to_le_bytes());
            slot[4..6].copy_from_slice(&tag.to_le_bytes());
        }
        Message::DataHeader { cqid, tag, chunks } => {
            slot[0] = KIND_DATA_HEADER;
            slot[1] = chunks;
            slot[2..4].copy_from_slice(&cqid.to_le_bytes());
            slot[4..6].copy_from_slice(&tag.to_le_bytes());
        }
        Message::Data {
            cqid,
            tag,
            chunk_idx,
            bytes,
        } => {
            slot[0] = KIND_DATA;
            slot[1] = chunk_idx;
            slot[2..4].copy_from_slice(&cqid.to_le_bytes());
            slot[4..6].copy_from_slice(&tag.to_le_bytes());
            slot[6..6 + DATA_CHUNK_LEN].copy_from_slice(&bytes);
        }
    }
    slot
}

fn decode_slot(slot: &[u8]) -> Result<Option<Message>, SlotError> {
    let cqid = u16::from_le_bytes([slot[2], slot[3]]);
    let tag = u16::from_le_bytes([slot[4], slot[5]]);
    match slot[0] {
        KIND_EMPTY => Ok(None),
        KIND_REQUEST => {
            let mut addr_bytes = [0u8; 8];
            addr_bytes.copy_from_slice(&slot[6..14]);
            Ok(Some(Message::Request {
                op: MemOp::from_bits(slot[1]),
                addr: u64::from_le_bytes(addr_bytes),
                cqid,
                tag,
            }))
        }
        KIND_RESPONSE => Ok(Some(Message::Response {
            cqid,
            tag,
            status: RspStatus::from_bits(slot[1]),
        })),
        KIND_DATA_HEADER => Ok(Some(Message::DataHeader {
            cqid,
            tag,
            chunks: slot[1],
        })),
        KIND_DATA => {
            let mut bytes = [0u8; DATA_CHUNK_LEN];
            bytes.copy_from_slice(&slot[6..6 + DATA_CHUNK_LEN]);
            Ok(Some(Message::Data {
                cqid,
                tag,
                chunk_idx: slot[1],
                bytes,
            }))
        }
        other => Err(SlotError::UnknownKind(other)),
    }
}

/// Packs up to [`MESSAGES_PER_FLIT`] messages into a payload of `payload_len`
/// bytes (`payload_len` must be a multiple of [`SLOT_LEN`]). Unused slots are
/// marked empty.
pub fn pack_messages(messages: &[Message], payload_len: usize) -> Result<Vec<u8>, SlotError> {
    if payload_len == 0 || !payload_len.is_multiple_of(SLOT_LEN) {
        return Err(SlotError::BadPayloadLength(payload_len));
    }
    let mut payload = vec![0u8; payload_len];
    pack_messages_into(messages, &mut payload)?;
    Ok(payload)
}

/// Packs messages directly into an existing payload buffer (zeroing unused
/// slots) — the allocation-free form of [`pack_messages`] used by the flit
/// builders on the transmit hot path.
pub fn pack_messages_into(messages: &[Message], payload: &mut [u8]) -> Result<(), SlotError> {
    if payload.is_empty() || !payload.len().is_multiple_of(SLOT_LEN) {
        return Err(SlotError::BadPayloadLength(payload.len()));
    }
    let capacity = payload.len() / SLOT_LEN;
    if messages.len() > capacity {
        return Err(SlotError::TooManyMessages {
            given: messages.len(),
            capacity,
        });
    }
    for (i, msg) in messages.iter().enumerate() {
        payload[i * SLOT_LEN..(i + 1) * SLOT_LEN].copy_from_slice(&encode_slot(msg));
    }
    payload[messages.len() * SLOT_LEN..].fill(0);
    Ok(())
}

/// Unpacks all non-empty messages from a payload.
pub fn unpack_messages(payload: &[u8]) -> Result<Vec<Message>, SlotError> {
    if payload.is_empty() || !payload.len().is_multiple_of(SLOT_LEN) {
        return Err(SlotError::BadPayloadLength(payload.len()));
    }
    let mut out = Vec::new();
    for slot in payload.chunks_exact(SLOT_LEN) {
        if let Some(msg) = decode_slot(slot)? {
            out.push(msg);
        }
    }
    Ok(out)
}

/// Unpacks all non-empty messages from a payload into the front of `out`,
/// returning how many were written — the allocation-free form of
/// [`unpack_messages`] used on the receive hot path. `out` must have room
/// for one message per payload slot (`[Message; MESSAGES_PER_FLIT]` for a
/// 240-byte payload); entries past the returned count are left untouched.
pub fn unpack_messages_into(payload: &[u8], out: &mut [Message]) -> Result<usize, SlotError> {
    if payload.is_empty() || !payload.len().is_multiple_of(SLOT_LEN) {
        return Err(SlotError::BadPayloadLength(payload.len()));
    }
    let slots = payload.len() / SLOT_LEN;
    if slots > out.len() {
        return Err(SlotError::TooManyMessages {
            given: slots,
            capacity: out.len(),
        });
    }
    let mut len = 0;
    for slot in payload.chunks_exact(SLOT_LEN) {
        if let Some(msg) = decode_slot(slot)? {
            out[len] = msg;
            len += 1;
        }
    }
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::request(MemOp::RdCurr, 0xDEAD_BEEF_0000, 1, 10),
            Message::request(MemOp::WrLine, 0x4000, 2, 11),
            Message::response_ok(1, 10),
            Message::Response {
                cqid: 2,
                tag: 11,
                status: RspStatus::Conflict,
            },
            Message::DataHeader {
                cqid: 1,
                tag: 10,
                chunks: 2,
            },
            Message::data(1, 10, 0, [1, 2, 3, 4, 5, 6, 7, 8]),
            Message::data(1, 10, 1, [9, 10, 11, 12, 13, 14, 15, 16]),
        ]
    }

    #[test]
    fn round_trip_preserves_messages_and_order() {
        let msgs = sample_messages();
        let payload = pack_messages(&msgs, 240).unwrap();
        assert_eq!(payload.len(), 240);
        let decoded = unpack_messages(&payload).unwrap();
        assert_eq!(decoded, msgs);
    }

    #[test]
    fn unpack_into_matches_the_allocating_form() {
        let msgs = sample_messages();
        let mut payload = pack_messages(&msgs, 240).unwrap();
        let filler = Message::response_ok(0xFFFF, 0xFFFF);
        let mut out = [filler; MESSAGES_PER_FLIT];
        let len = unpack_messages_into(&payload, &mut out).unwrap();
        assert_eq!(&out[..len], &msgs[..]);
        assert!(out[len..].iter().all(|m| *m == filler));

        // Same errors as `unpack_messages`, plus a too-small output buffer.
        assert_eq!(
            unpack_messages_into(&payload, &mut out[..14]),
            Err(SlotError::TooManyMessages {
                given: 15,
                capacity: 14
            })
        );
        assert_eq!(
            unpack_messages_into(&[0u8; 7], &mut out),
            Err(SlotError::BadPayloadLength(7))
        );
        payload[SLOT_LEN] = 0xEE;
        assert_eq!(
            unpack_messages_into(&payload, &mut out),
            Err(SlotError::UnknownKind(0xEE))
        );
    }

    #[test]
    fn empty_payload_round_trips_to_no_messages() {
        let payload = pack_messages(&[], 240).unwrap();
        assert!(unpack_messages(&payload).unwrap().is_empty());
    }

    #[test]
    fn capacity_is_fifteen_messages_for_a_256b_flit_payload() {
        assert_eq!(MESSAGES_PER_FLIT, 15);
        let msgs: Vec<Message> = (0..15)
            .map(|i| Message::request(MemOp::RdShared, i as u64 * 64, 0, i as u16))
            .collect();
        assert!(pack_messages(&msgs, 240).is_ok());
        let too_many: Vec<Message> = (0..16)
            .map(|i| Message::request(MemOp::RdShared, i as u64 * 64, 0, i as u16))
            .collect();
        assert_eq!(
            pack_messages(&too_many, 240),
            Err(SlotError::TooManyMessages {
                given: 16,
                capacity: 15
            })
        );
    }

    #[test]
    fn bad_payload_lengths_are_rejected() {
        assert_eq!(pack_messages(&[], 0), Err(SlotError::BadPayloadLength(0)));
        assert_eq!(
            pack_messages(&[], 100),
            Err(SlotError::BadPayloadLength(100))
        );
        assert_eq!(
            unpack_messages(&[0u8; 7]),
            Err(SlotError::BadPayloadLength(7))
        );
    }

    #[test]
    fn unknown_kind_is_reported() {
        let mut payload = pack_messages(&[], 64).unwrap();
        payload[0] = 0xEE;
        assert_eq!(unpack_messages(&payload), Err(SlotError::UnknownKind(0xEE)));
    }

    #[test]
    fn smaller_payloads_work_for_68_byte_flits() {
        // The 68B flit payload (64 bytes) holds 4 slots.
        let msgs: Vec<Message> = (0..4)
            .map(|i| Message::request(MemOp::RdOwn, i as u64, 3, i as u16))
            .collect();
        let payload = pack_messages(&msgs, 64).unwrap();
        assert_eq!(unpack_messages(&payload).unwrap(), msgs);
    }

    #[test]
    fn error_display_strings() {
        let e = SlotError::TooManyMessages {
            given: 20,
            capacity: 15,
        };
        assert!(e.to_string().contains("20"));
        assert!(SlotError::BadPayloadLength(3).to_string().contains('3'));
        assert!(SlotError::UnknownKind(9).to_string().contains('9'));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_message() -> impl Strategy<Value = Message> {
            prop_oneof![
                (any::<u8>(), any::<u64>(), any::<u16>(), any::<u16>()).prop_map(
                    |(op, addr, cqid, tag)| {
                        Message::Request {
                            op: MemOp::from_bits(op % 6),
                            addr,
                            cqid,
                            tag,
                        }
                    }
                ),
                (any::<u16>(), any::<u16>(), any::<u8>()).prop_map(|(cqid, tag, st)| {
                    Message::Response {
                        cqid,
                        tag,
                        status: RspStatus::from_bits(st % 3),
                    }
                }),
                (any::<u16>(), any::<u16>(), any::<u8>())
                    .prop_map(|(cqid, tag, chunks)| Message::DataHeader { cqid, tag, chunks }),
                (
                    any::<u16>(),
                    any::<u16>(),
                    any::<u8>(),
                    any::<[u8; DATA_CHUNK_LEN]>()
                )
                    .prop_map(|(cqid, tag, idx, bytes)| Message::Data {
                        cqid,
                        tag,
                        chunk_idx: idx,
                        bytes,
                    }),
            ]
        }

        proptest! {
            #[test]
            fn arbitrary_message_sets_round_trip(msgs in proptest::collection::vec(arb_message(), 0..15)) {
                let payload = pack_messages(&msgs, 240).unwrap();
                prop_assert_eq!(unpack_messages(&payload).unwrap(), msgs.clone());
                let mut out = [Message::response_ok(0, 0); MESSAGES_PER_FLIT];
                let len = unpack_messages_into(&payload, &mut out).unwrap();
                prop_assert_eq!(&out[..len], &msgs[..]);
            }
        }
    }
}
