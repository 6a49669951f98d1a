//! The 2-byte CXL/RXL flit header.
//!
//! Per Fig. 3 of the paper, the 256-byte flit dedicates two bytes to control
//! information: a 10-bit Flit Sequence Number (FSN), a 2-bit ReplayCmd that
//! selects how the FSN is interpreted, and a 4-bit type field. The FSN is
//! deliberately multiplexed between sequence number and acknowledgement
//! number — the very design decision whose reliability consequences the paper
//! analyses (Section 4.1).

/// Number of bits in the Flit Sequence Number field: the width of the
/// sequence number the ISN CRC folds in.
pub const FSN_BITS: u32 = rxl_crc::isn::SEQ_BITS;
/// Mask selecting the valid FSN bits.
pub const FSN_MASK: u16 = (1 << FSN_BITS) - 1;

/// Interpretation of the FSN field, selected by the 2-bit ReplayCmd.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum ReplayCmd {
    /// `ReplayCmd = 0`: the FSN carries this flit's own sequence number
    /// (or, in RXL, zeros — the sequence rides in the CRC instead).
    #[default]
    SeqNum = 0,
    /// `ReplayCmd = 1`: the FSN carries an acknowledgement number
    /// (ACK piggybacking).
    Ack = 1,
    /// `ReplayCmd = 2`: NACK requesting a go-back-N retry starting after the
    /// FSN value (the last correctly received sequence number).
    NackGoBackN = 2,
    /// `ReplayCmd = 3`: NACK requesting a single-flit retry of the flit after
    /// the FSN value.
    NackSingleRetry = 3,
}

impl ReplayCmd {
    /// Decodes the 2-bit field.
    pub fn from_bits(bits: u8) -> Self {
        match bits & 0b11 {
            0 => ReplayCmd::SeqNum,
            1 => ReplayCmd::Ack,
            2 => ReplayCmd::NackGoBackN,
            _ => ReplayCmd::NackSingleRetry,
        }
    }

    /// Encodes to the 2-bit field.
    pub fn to_bits(self) -> u8 {
        self as u8
    }

    /// `true` if this flit's FSN field does *not* carry its own sequence
    /// number — the case that leaves baseline CXL blind to drops.
    pub fn hides_own_sequence(self) -> bool {
        !matches!(self, ReplayCmd::SeqNum)
    }
}

/// The 4-bit flit type field.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum FlitType {
    /// A flit carrying transaction-layer messages.
    #[default]
    Protocol = 0,
    /// An idle flit (no payload content).
    Idle = 1,
    /// A link-management flit (credit returns, retry control).
    LinkControl = 2,
    /// A flit that carries only an acknowledgement (no piggybacking).
    StandaloneAck = 3,
}

impl FlitType {
    /// Decodes the 4-bit field (unknown values map to `Protocol`).
    pub fn from_bits(bits: u8) -> Self {
        match bits & 0x0F {
            1 => FlitType::Idle,
            2 => FlitType::LinkControl,
            3 => FlitType::StandaloneAck,
            _ => FlitType::Protocol,
        }
    }

    /// Encodes to the 4-bit field.
    pub fn to_bits(self) -> u8 {
        self as u8
    }
}

/// The 2-byte flit header.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct FlitHeader {
    /// The 10-bit FSN field (sequence number, ack number, or NACK reference,
    /// depending on [`FlitHeader::replay_cmd`]).
    pub fsn: u16,
    /// How the FSN is to be interpreted.
    pub replay_cmd: ReplayCmd,
    /// The flit type.
    pub flit_type: FlitType,
}

impl FlitHeader {
    /// A protocol flit carrying its own sequence number in the FSN field.
    pub fn with_seq(seq: u16) -> Self {
        FlitHeader {
            fsn: seq & FSN_MASK,
            replay_cmd: ReplayCmd::SeqNum,
            flit_type: FlitType::Protocol,
        }
    }

    /// A protocol flit piggybacking an acknowledgement number.
    pub fn ack(ack_num: u16) -> Self {
        FlitHeader {
            fsn: ack_num & FSN_MASK,
            replay_cmd: ReplayCmd::Ack,
            flit_type: FlitType::Protocol,
        }
    }

    /// A NACK header requesting a go-back-N retry after `last_good`.
    pub fn nack_go_back_n(last_good: u16) -> Self {
        FlitHeader {
            fsn: last_good & FSN_MASK,
            replay_cmd: ReplayCmd::NackGoBackN,
            flit_type: FlitType::LinkControl,
        }
    }

    /// A standalone (non-piggybacked) acknowledgement flit.
    pub fn standalone_ack(ack_num: u16) -> Self {
        FlitHeader {
            fsn: ack_num & FSN_MASK,
            replay_cmd: ReplayCmd::Ack,
            flit_type: FlitType::StandaloneAck,
        }
    }

    /// Serialises the header into its 2-byte wire form.
    ///
    /// Layout: byte 0 holds FSN\[7:0\]; byte 1 holds FSN\[9:8\] in bits
    /// \[1:0\], ReplayCmd in bits \[3:2\] and the flit type in bits \[7:4\].
    pub fn to_bytes(self) -> [u8; 2] {
        let fsn = self.fsn & FSN_MASK;
        let b0 = (fsn & 0xFF) as u8;
        let b1 = ((fsn >> 8) as u8 & 0b11)
            | (self.replay_cmd.to_bits() << 2)
            | (self.flit_type.to_bits() << 4);
        [b0, b1]
    }

    /// Parses a header from its 2-byte wire form.
    pub fn from_bytes(bytes: [u8; 2]) -> Self {
        let fsn = bytes[0] as u16 | (((bytes[1] & 0b11) as u16) << 8);
        FlitHeader {
            fsn,
            replay_cmd: ReplayCmd::from_bits((bytes[1] >> 2) & 0b11),
            flit_type: FlitType::from_bits(bytes[1] >> 4),
        }
    }

    /// `true` if the receiver can read this flit's own sequence number from
    /// the header (baseline CXL behaviour with `ReplayCmd = 0`).
    pub fn carries_own_sequence(&self) -> bool {
        self.replay_cmd == ReplayCmd::SeqNum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_field_combinations() {
        for fsn in [0u16, 1, 255, 256, 511, 1023] {
            for cmd in [
                ReplayCmd::SeqNum,
                ReplayCmd::Ack,
                ReplayCmd::NackGoBackN,
                ReplayCmd::NackSingleRetry,
            ] {
                for ty in [
                    FlitType::Protocol,
                    FlitType::Idle,
                    FlitType::LinkControl,
                    FlitType::StandaloneAck,
                ] {
                    let h = FlitHeader {
                        fsn,
                        replay_cmd: cmd,
                        flit_type: ty,
                    };
                    assert_eq!(FlitHeader::from_bytes(h.to_bytes()), h);
                }
            }
        }
    }

    #[test]
    fn fsn_is_truncated_to_ten_bits() {
        let h = FlitHeader::with_seq(0x7FF); // 11 bits
        assert_eq!(h.fsn, 0x3FF);
        let b = h.to_bytes();
        assert_eq!(FlitHeader::from_bytes(b).fsn, 0x3FF);
    }

    #[test]
    fn replay_cmd_semantics() {
        assert!(!FlitHeader::with_seq(5).replay_cmd.hides_own_sequence());
        assert!(FlitHeader::ack(100).replay_cmd.hides_own_sequence());
        assert!(FlitHeader::nack_go_back_n(7)
            .replay_cmd
            .hides_own_sequence());
        assert!(FlitHeader::with_seq(5).carries_own_sequence());
        assert!(!FlitHeader::ack(100).carries_own_sequence());
    }

    #[test]
    fn constructors_set_expected_types() {
        assert_eq!(FlitHeader::with_seq(1).flit_type, FlitType::Protocol);
        assert_eq!(FlitHeader::ack(1).flit_type, FlitType::Protocol);
        assert_eq!(
            FlitHeader::nack_go_back_n(1).flit_type,
            FlitType::LinkControl
        );
        assert_eq!(
            FlitHeader::standalone_ack(1).flit_type,
            FlitType::StandaloneAck
        );
    }

    #[test]
    fn replay_cmd_and_type_bit_codecs() {
        for bits in 0..4u8 {
            assert_eq!(ReplayCmd::from_bits(bits).to_bits(), bits);
        }
        for bits in 0..4u8 {
            assert_eq!(FlitType::from_bits(bits).to_bits(), bits);
        }
        // Unknown type values degrade to Protocol.
        assert_eq!(FlitType::from_bits(0xF), FlitType::Protocol);
    }

    #[test]
    fn wire_layout_is_stable() {
        // Guard the exact bit layout: FSN 0x2A5 (10 bits), Ack, LinkControl.
        let h = FlitHeader {
            fsn: 0x2A5,
            replay_cmd: ReplayCmd::Ack,
            flit_type: FlitType::LinkControl,
        };
        let bytes = h.to_bytes();
        assert_eq!(bytes[0], 0xA5);
        assert_eq!(bytes[1], 0b0010_0110); // type=2 << 4 | cmd=1 << 2 | fsn_hi=0b10
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn any_two_bytes_reparse_consistently(b0: u8, b1: u8) {
                // Parsing arbitrary bytes and re-serialising must be stable
                // after one round (idempotent normalisation).
                let h = FlitHeader::from_bytes([b0, b1]);
                let reserialised = h.to_bytes();
                prop_assert_eq!(FlitHeader::from_bytes(reserialised), h);
            }
        }
    }
}
