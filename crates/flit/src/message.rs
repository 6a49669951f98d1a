//! Transaction-layer messages carried inside flit payloads.
//!
//! The CXL transaction layer exchanges cache-coherent requests, responses and
//! data (Section 2.2 of the paper). A transaction is identified by a Command
//! Queue ID (CQID) plus a tag; data belonging to the same CQID must be
//! delivered in order, while different CQIDs may complete out of order
//! (Section 4.2 / Fig. 5b). These messages are what the failure scenarios of
//! the paper ultimately corrupt, duplicate, or reorder.

/// Memory operation codes for request messages (a simplified MESI-oriented
/// subset of the CXL.cache / CXL.mem opcodes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MemOp {
    /// Read the current value without changing coherence state.
    RdCurr = 0,
    /// Read with intent to cache in Shared state.
    RdShared = 1,
    /// Read for ownership (intent to modify).
    RdOwn = 2,
    /// Write back a modified line.
    WrLine = 3,
    /// Invalidate a line (ownership request without data).
    Invalidate = 4,
    /// Uncached write (write-through style).
    WrPtl = 5,
}

impl MemOp {
    /// Decodes the opcode byte; unknown values map to `RdCurr`.
    pub fn from_bits(bits: u8) -> Self {
        match bits {
            1 => MemOp::RdShared,
            2 => MemOp::RdOwn,
            3 => MemOp::WrLine,
            4 => MemOp::Invalidate,
            5 => MemOp::WrPtl,
            _ => MemOp::RdCurr,
        }
    }
}

/// Response status codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum RspStatus {
    /// The request completed successfully.
    Success = 0,
    /// The request hit a conflict and must be retried by the requester.
    Conflict = 1,
    /// The request failed (poisoned data / unsupported address).
    Error = 2,
}

impl RspStatus {
    /// Decodes the status byte; unknown values map to `Error`.
    pub fn from_bits(bits: u8) -> Self {
        match bits {
            0 => RspStatus::Success,
            1 => RspStatus::Conflict,
            _ => RspStatus::Error,
        }
    }
}

/// Number of data bytes carried by one data message slot.
pub const DATA_CHUNK_LEN: usize = 8;

/// A transaction-layer message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Message {
    /// A coherent memory request.
    Request {
        /// The operation requested.
        op: MemOp,
        /// The (cache-line-aligned) address.
        addr: u64,
        /// Command queue the transaction belongs to.
        cqid: u16,
        /// Per-queue transaction tag.
        tag: u16,
    },
    /// A response completing (or rejecting) a request.
    Response {
        /// Command queue of the original request.
        cqid: u16,
        /// Tag of the original request.
        tag: u16,
        /// Completion status.
        status: RspStatus,
    },
    /// A header announcing a data transfer of `chunks` chunks.
    DataHeader {
        /// Command queue of the transfer.
        cqid: u16,
        /// Tag of the transfer.
        tag: u16,
        /// Number of following [`Message::Data`] chunks.
        chunks: u8,
    },
    /// One chunk of transferred data.
    Data {
        /// Command queue of the transfer.
        cqid: u16,
        /// Tag of the transfer.
        tag: u16,
        /// Index of this chunk within the transfer.
        chunk_idx: u8,
        /// The data bytes.
        bytes: [u8; DATA_CHUNK_LEN],
    },
}

impl Message {
    /// Convenience constructor for a request.
    pub fn request(op: MemOp, addr: u64, cqid: u16, tag: u16) -> Self {
        Message::Request {
            op,
            addr,
            cqid,
            tag,
        }
    }

    /// Convenience constructor for a successful response.
    pub fn response_ok(cqid: u16, tag: u16) -> Self {
        Message::Response {
            cqid,
            tag,
            status: RspStatus::Success,
        }
    }

    /// Convenience constructor for a data chunk.
    pub fn data(cqid: u16, tag: u16, chunk_idx: u8, bytes: [u8; DATA_CHUNK_LEN]) -> Self {
        Message::Data {
            cqid,
            tag,
            chunk_idx,
            bytes,
        }
    }

    /// The command queue this message belongs to.
    pub fn cqid(&self) -> u16 {
        match *self {
            Message::Request { cqid, .. }
            | Message::Response { cqid, .. }
            | Message::DataHeader { cqid, .. }
            | Message::Data { cqid, .. } => cqid,
        }
    }

    /// The transaction tag of this message.
    pub fn tag(&self) -> u16 {
        match *self {
            Message::Request { tag, .. }
            | Message::Response { tag, .. }
            | Message::DataHeader { tag, .. }
            | Message::Data { tag, .. } => tag,
        }
    }

    /// `true` for data-bearing messages (the kind whose ordering within a
    /// CQID matters, per Fig. 5b).
    pub fn is_data(&self) -> bool {
        matches!(self, Message::Data { .. })
    }

    /// `true` for request messages (the kind whose duplication Fig. 5a
    /// analyses).
    pub fn is_request(&self) -> bool {
        matches!(self, Message::Request { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let req = Message::request(MemOp::RdOwn, 0x1000, 7, 42);
        assert_eq!(req.cqid(), 7);
        assert_eq!(req.tag(), 42);
        assert!(req.is_request());
        assert!(!req.is_data());

        let data = Message::data(3, 9, 1, [0xAA; DATA_CHUNK_LEN]);
        assert_eq!(data.cqid(), 3);
        assert_eq!(data.tag(), 9);
        assert!(data.is_data());

        let rsp = Message::response_ok(1, 2);
        assert_eq!(rsp.cqid(), 1);
        assert!(!rsp.is_request());

        let dh = Message::DataHeader {
            cqid: 4,
            tag: 5,
            chunks: 8,
        };
        assert_eq!(dh.tag(), 5);
    }

    #[test]
    fn memop_round_trip_and_semantics() {
        for op in [
            MemOp::RdCurr,
            MemOp::RdShared,
            MemOp::RdOwn,
            MemOp::WrLine,
            MemOp::Invalidate,
            MemOp::WrPtl,
        ] {
            assert_eq!(MemOp::from_bits(op as u8), op);
        }
        assert_eq!(MemOp::from_bits(0xFF), MemOp::RdCurr);
    }

    #[test]
    fn rsp_status_round_trip() {
        for st in [RspStatus::Success, RspStatus::Conflict, RspStatus::Error] {
            assert_eq!(RspStatus::from_bits(st as u8), st);
        }
        assert_eq!(RspStatus::from_bits(99), RspStatus::Error);
    }
}
