//! The Implicit Sequence Number (ISN) CRC construction.
//!
//! ISN is the paper's core mechanism (Section 5): instead of transmitting a
//! flit sequence number in the header, the sender folds its local `SeqNum`
//! into the CRC computation. The receiver recomputes the CRC using its local
//! *expected* sequence number (`ESeqNum`). If the flit was corrupted **or** if
//! any preceding flit was silently dropped (so that `SeqNum != ESeqNum`), the
//! recomputed CRC differs from the received one and the receiver initiates a
//! retry. Sequence integrity therefore rides on the existing data-integrity
//! check at zero header cost.
//!
//! Two equivalent constructions are provided:
//!
//! * [`IsnMode::XorIntoPayload`] — the hardware-oriented formulation of
//!   Section 7.3: the 10-bit sequence number is XORed into the lowest 10 bits
//!   of the payload before it enters the (unchanged) CRC datapath. This adds
//!   only 10 XOR gates and one level of logic depth in hardware.
//! * [`IsnMode::AppendToInput`] — the conceptual formulation of Fig. 6b: the
//!   CRC is computed over `header ‖ payload ‖ SeqNum`.
//!
//! Both guarantee that a sequence mismatch is *always* detected: by CRC
//! linearity, the difference between the CRC computed with `SeqNum` and with
//! `ESeqNum` depends only on the XOR of the two numbers, which is a non-zero
//! pattern confined to at most 10 bits — far inside the 64-bit burst length
//! that the flit CRC detects with certainty.

use crate::catalog::Crc64;
use crate::spec::CrcSpec;

/// How the sequence number is folded into the CRC input.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum IsnMode {
    /// XOR the sequence number into the low bits of the payload before the
    /// CRC (hardware formulation, Section 7.3 of the paper).
    #[default]
    XorIntoPayload,
    /// Append the little-endian sequence-number bytes to the CRC input
    /// (conceptual formulation, Fig. 6b of the paper).
    AppendToInput,
}

/// Width, in bits, of the CXL flit sequence number (FSN) field.
pub const DEFAULT_SEQ_BITS: u32 = 10;

/// An ISN-capable 64-bit CRC codec for flits.
#[derive(Clone, Debug)]
pub struct IsnCrc64 {
    crc: Crc64,
    mode: IsnMode,
    seq_bits: u32,
}

impl IsnCrc64 {
    /// Creates an ISN codec with the default mode ([`IsnMode::XorIntoPayload`])
    /// and the CXL 10-bit sequence-number width.
    pub fn new(spec: CrcSpec) -> Self {
        Self::with_mode(spec, IsnMode::default(), DEFAULT_SEQ_BITS)
    }

    /// Creates an ISN codec with an explicit folding mode and sequence width.
    pub fn with_mode(spec: CrcSpec, mode: IsnMode, seq_bits: u32) -> Self {
        assert!(
            (1..=16).contains(&seq_bits),
            "sequence number width must be 1..=16 bits"
        );
        assert_eq!(spec.width, 64, "ISN flit CRC must be 64 bits wide");
        IsnCrc64 {
            crc: Crc64::with_spec(spec),
            mode,
            seq_bits,
        }
    }

    /// The folding mode in use.
    pub fn mode(&self) -> IsnMode {
        self.mode
    }

    /// The sequence-number width in bits.
    pub fn seq_bits(&self) -> u32 {
        self.seq_bits
    }

    /// Mask selecting the valid sequence-number bits.
    #[inline]
    pub fn seq_mask(&self) -> u16 {
        ((1u32 << self.seq_bits) - 1) as u16
    }

    /// Wraps a sequence counter to the valid range.
    #[inline]
    pub fn wrap_seq(&self, seq: u64) -> u16 {
        (seq & self.seq_mask() as u64) as u16
    }

    /// Computes the baseline (non-ISN) CRC over `header ‖ payload`, exactly as
    /// the unmodified CXL link layer does.
    pub fn encode_explicit(&self, header: &[u8], payload: &[u8]) -> u64 {
        let mut reg = self.crc.init_register();
        reg = self.crc.update(reg, header);
        reg = self.crc.update(reg, payload);
        self.crc.finalize(reg)
    }

    /// Computes the ISN CRC binding `header ‖ payload` to `seq`.
    pub fn encode(&self, header: &[u8], payload: &[u8], seq: u16) -> u64 {
        let seq = seq & self.seq_mask();
        match self.mode {
            IsnMode::XorIntoPayload => {
                assert!(
                    payload.len() >= 2,
                    "XorIntoPayload requires at least 2 payload bytes"
                );
                let mut reg = self.crc.init_register();
                reg = self.crc.update(reg, header);
                // Fold the sequence number into the first two payload bytes
                // (the low `seq_bits` bits of the payload, little-endian).
                let folded = [
                    payload[0] ^ (seq & 0xFF) as u8,
                    payload[1] ^ (seq >> 8) as u8,
                ];
                reg = self.crc.update(reg, &folded);
                reg = self.crc.update(reg, &payload[2..]);
                self.crc.finalize(reg)
            }
            IsnMode::AppendToInput => {
                let mut reg = self.crc.init_register();
                reg = self.crc.update(reg, header);
                reg = self.crc.update(reg, payload);
                reg = self.crc.update(reg, &seq.to_le_bytes());
                self.crc.finalize(reg)
            }
        }
    }

    /// Verifies a received flit: recomputes the ISN CRC with the receiver's
    /// expected sequence number and compares it to the received CRC.
    ///
    /// Returns `true` only if the payload is intact **and** the sequence
    /// numbers agree, which is exactly the pass/fail semantics of Section 5.
    #[inline]
    pub fn verify(
        &self,
        header: &[u8],
        payload: &[u8],
        expected_seq: u16,
        received_crc: u64,
    ) -> bool {
        self.encode(header, payload, expected_seq) == received_crc
    }

    /// Verifies a baseline (non-ISN) flit CRC, as the unmodified CXL link
    /// layer does: only data integrity is checked.
    #[inline]
    pub fn verify_explicit(&self, header: &[u8], payload: &[u8], received_crc: u64) -> bool {
        self.encode_explicit(header, payload) == received_crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::FLIT_CRC64;

    fn payload(seed: u8) -> Vec<u8> {
        (0..240u32)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn matching_sequence_verifies() {
        for mode in [IsnMode::XorIntoPayload, IsnMode::AppendToInput] {
            let isn = IsnCrc64::with_mode(FLIT_CRC64, mode, 10);
            let hdr = [0x12, 0x34];
            let pl = payload(7);
            for seq in [0u16, 1, 511, 1023] {
                let crc = isn.encode(&hdr, &pl, seq);
                assert!(isn.verify(&hdr, &pl, seq, crc), "mode {mode:?} seq {seq}");
            }
        }
    }

    #[test]
    fn every_sequence_mismatch_is_detected() {
        // The paper's key claim: a SeqNum/ESeqNum mismatch *always* yields a
        // CRC mismatch because the difference pattern spans at most 10 bits.
        for mode in [IsnMode::XorIntoPayload, IsnMode::AppendToInput] {
            let isn = IsnCrc64::with_mode(FLIT_CRC64, mode, 10);
            let hdr = [0u8; 2];
            let pl = payload(3);
            let tx_seq = 137u16;
            let crc = isn.encode(&hdr, &pl, tx_seq);
            for eseq in 0..1024u16 {
                let ok = isn.verify(&hdr, &pl, eseq, crc);
                assert_eq!(ok, eseq == tx_seq, "mode {mode:?} eseq {eseq}");
            }
        }
    }

    #[test]
    fn payload_corruption_is_detected_alongside_sequence() {
        let isn = IsnCrc64::new(FLIT_CRC64);
        let hdr = [0xAA, 0x55];
        let pl = payload(11);
        let crc = isn.encode(&hdr, &pl, 42);
        let mut corrupted = pl.clone();
        corrupted[100] ^= 0x01;
        assert!(!isn.verify(&hdr, &corrupted, 42, crc));
        // Corruption in the header is covered too.
        let bad_hdr = [0xAB, 0x55];
        assert!(!isn.verify(&bad_hdr, &pl, 42, crc));
    }

    #[test]
    fn sequence_numbers_wrap_at_field_width() {
        let isn = IsnCrc64::new(FLIT_CRC64);
        let hdr = [0u8; 2];
        let pl = payload(9);
        // 1024 wraps to 0 for a 10-bit field.
        assert_eq!(isn.encode(&hdr, &pl, 1024), isn.encode(&hdr, &pl, 0));
        assert_eq!(isn.wrap_seq(1023 + 1), 0);
        assert_eq!(isn.wrap_seq(1025), 1);
        assert_eq!(isn.seq_mask(), 0x3FF);
    }

    #[test]
    fn explicit_encoding_ignores_sequence() {
        let isn = IsnCrc64::new(FLIT_CRC64);
        let hdr = [1u8, 2];
        let pl = payload(1);
        let c = isn.encode_explicit(&hdr, &pl);
        assert!(isn.verify_explicit(&hdr, &pl, c));
        // Baseline CRC equals ISN CRC with sequence zero in XOR mode: folding
        // zero is a no-op, which is what makes the construction backward
        // compatible for the very first flit.
        assert_eq!(c, isn.encode(&hdr, &pl, 0));
    }

    #[test]
    fn modes_produce_different_checksums_but_same_guarantees() {
        let xor = IsnCrc64::with_mode(FLIT_CRC64, IsnMode::XorIntoPayload, 10);
        let app = IsnCrc64::with_mode(FLIT_CRC64, IsnMode::AppendToInput, 10);
        let hdr = [0u8; 2];
        let pl = payload(5);
        let seq = 600;
        assert_ne!(xor.encode(&hdr, &pl, seq), app.encode(&hdr, &pl, seq));
        assert!(xor.verify(&hdr, &pl, seq, xor.encode(&hdr, &pl, seq)));
        assert!(app.verify(&hdr, &pl, seq, app.encode(&hdr, &pl, seq)));
    }

    #[test]
    #[should_panic]
    fn xor_mode_requires_two_payload_bytes() {
        let isn = IsnCrc64::new(FLIT_CRC64);
        let _ = isn.encode(&[0, 0], &[0xFF], 3);
    }

    #[test]
    #[should_panic]
    fn rejects_narrow_crc() {
        let _ = IsnCrc64::new(crate::catalog::CRC32_ISO_HDLC);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn round_trip_for_random_payloads(
                data in proptest::collection::vec(any::<u8>(), 2..256),
                hdr in proptest::collection::vec(any::<u8>(), 0..4),
                seq in 0u16..1024,
            ) {
                for mode in [IsnMode::XorIntoPayload, IsnMode::AppendToInput] {
                    let isn = IsnCrc64::with_mode(FLIT_CRC64, mode, 10);
                    let crc = isn.encode(&hdr, &data, seq);
                    prop_assert!(isn.verify(&hdr, &data, seq, crc));
                }
            }

            #[test]
            fn wrong_sequence_never_verifies(
                data in proptest::collection::vec(any::<u8>(), 2..256),
                seq in 0u16..1024,
                delta in 1u16..1024,
            ) {
                let isn = IsnCrc64::new(FLIT_CRC64);
                let hdr = [0u8; 2];
                let crc = isn.encode(&hdr, &data, seq);
                let wrong = (seq + delta) & isn.seq_mask();
                prop_assume!(wrong != seq);
                prop_assert!(!isn.verify(&hdr, &data, wrong, crc));
            }

            #[test]
            fn single_bit_payload_flip_never_verifies(
                data in proptest::collection::vec(any::<u8>(), 2..256),
                seq in 0u16..1024,
                flip_byte in 0usize..256,
                flip_bit in 0u8..8,
            ) {
                let isn = IsnCrc64::new(FLIT_CRC64);
                let hdr = [0u8; 2];
                let crc = isn.encode(&hdr, &data, seq);
                let mut corrupted = data.clone();
                let idx = flip_byte % corrupted.len();
                corrupted[idx] ^= 1 << flip_bit;
                prop_assert!(!isn.verify(&hdr, &corrupted, seq, crc));
            }
        }
    }
}
