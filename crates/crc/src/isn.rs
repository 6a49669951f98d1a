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
//! # One CRC pass and one table lookup
//!
//! The hardware formulation of Section 7.3 XORs the 10-bit sequence number
//! into the lowest 10 bits of the payload (payload bytes 0–1, little-endian)
//! before the unchanged CRC datapath: 10 XOR gates and one level of logic
//! depth. A CRC is affine over GF(2): for inputs of one length,
//! `crc(m ⊕ e) = crc(m) ⊕ L(e)` with `L` linear and independent of `m`, the
//! initial register and the final XOR. The fold is such an `e`, so
//!
//! ```text
//! ISN(header, payload, s) = crc(header ‖ payload) ⊕ D[s]
//! ```
//!
//! where `D[s] = L(s in payload bytes 0–1)` depends on nothing but `s` and
//! the [`PAYLOAD_LEN`] − 2 bytes that follow the folded bits. `D` is one
//! table of `2^`[`SEQ_BITS`] entries, built at compile time from its ten
//! basis entries `D[1 << b]` (linearity: `D[s ⊕ t] = D[s] ⊕ D[t]`), and
//! [`IsnCrc64::encode`] is one CRC pass plus one lookup.
//!
//! Two consequences the rest of the workspace builds on:
//!
//! * **`D[0] = 0`.** Folding sequence 0 is a no-op, which is what makes RXL
//!   backward compatible (Section 7.3): the CXL link CRC *is* the ISN CRC at
//!   sequence 0, so one flit codec serves both protocols.
//! * **Every mismatch is detected.** The received CRC XOR the plain CRC of
//!   the received block — its [`IsnCrc64::residue`] — is `D[SeqNum]` for an
//!   intact flit, and checking it against `ESeqNum` compares
//!   `D[SeqNum] ⊕ D[ESeqNum] = D[SeqNum ⊕ ESeqNum]` with zero. The difference
//!   pattern is a non-zero burst of at most 10 bits, far inside the 64-bit
//!   burst length the flit CRC detects with certainty, so every entry but
//!   `D[0]` is non-zero (the tests check all 1 023, and that they are
//!   distinct).
//! * **The residue names the sender's sequence.** Because the entries are
//!   distinct, an intact flit's residue `D[SeqNum]` identifies `SeqNum`
//!   itself, not just "equal or not": [`IsnCrc64::seq_of`] inverts `D` with
//!   a second compile-time table. The low [`SEQ_BITS`] bits of the 1 024
//!   entries are already distinct, so that table is indexed by them and the
//!   full 64-bit entry confirms the match. A receiver can thereby tell a
//!   duplicate (behind its expectation) from a drop (ahead of it). A
//!   corrupted flit's residue is an arbitrary 64-bit value and names some
//!   sequence only by a `2^-64`-per-entry accident.
//!
//! Fig. 6b draws the same idea as a CRC over `header ‖ payload ‖ SeqNum`.
//! That appended form is linear in the sequence number too, and detects
//! every mismatch for the same reason, but it yields different checksums and
//! no longer reduces to the plain CRC at sequence 0; the wire carries the
//! folded form, and it is the only one implemented here.

use crate::catalog::{Crc64, FLIT_CRC64};
use crate::spec::CrcSpec;

/// Width, in bits, of the sequence number folded into the flit CRC: the CXL
/// flit sequence number (FSN) width. The flit header's FSN field and the
/// link layer's sequence space are derived from it.
pub const SEQ_BITS: u32 = 10;

/// Entries of the ISN table, one per sequence number.
const SEQ_SPACE: usize = 1 << SEQ_BITS;

/// Bytes of flit header ahead of the payload.
pub const HEADER_LEN: usize = 2;

/// Bytes of flit payload the ISN table is defined for: the sequence bits
/// are folded into its first two, and each entry depends on how many bytes
/// follow them.
pub const PAYLOAD_LEN: usize = 240;

/// Bytes of the contiguous `header ‖ payload` block the CRC protects.
pub const BLOCK_LEN: usize = HEADER_LEN + PAYLOAD_LEN;

/// `D` for the flit CRC, evaluated at compile time.
static FLIT_ISN_TABLE: [u64; SEQ_SPACE] = isn_table(&FLIT_CRC64);

/// The inverse of `D`, indexed by an entry's low [`SEQ_BITS`] bits.
static FLIT_ISN_INDEX: [u16; SEQ_SPACE] = isn_index(&FLIT_ISN_TABLE);

/// Builds `D` for a fully reflected 64-bit CRC: the ten basis entries are
/// the register (zero initial value, no final XOR) after one sequence bit in
/// the first two payload bytes and the rest of the payload as zeros; every
/// other entry is the XOR of the basis entries of its set bits.
const fn isn_table(spec: &CrcSpec) -> [u64; SEQ_SPACE] {
    assert!(
        spec.width == 64 && spec.reflect_in && spec.reflect_out,
        "the ISN table is built for a fully reflected 64-bit CRC"
    );
    let poly = spec.poly.reverse_bits();
    let mut basis = [0u64; SEQ_BITS as usize];
    let mut bit = 0;
    while bit < SEQ_BITS as usize {
        let mut reg = 0u64;
        let mut i = 0;
        while i < PAYLOAD_LEN {
            if i == bit / 8 {
                reg ^= 1 << (bit % 8);
            }
            let mut k = 0;
            while k < 8 {
                reg = if reg & 1 != 0 {
                    (reg >> 1) ^ poly
                } else {
                    reg >> 1
                };
                k += 1;
            }
            i += 1;
        }
        basis[bit] = reg;
        bit += 1;
    }
    let mut table = [0u64; SEQ_SPACE];
    let mut s = 1;
    while s < SEQ_SPACE {
        table[s] = table[s & (s - 1)] ^ basis[s.trailing_zeros() as usize];
        s += 1;
    }
    table
}

/// Maps the low [`SEQ_BITS`] bits of each `D[s]` back to `s`. The assertion
/// makes the build fail unless those bits are distinct across all entries,
/// i.e. unless the 10-bit index is a bijection onto the sequence space.
const fn isn_index(table: &[u64; SEQ_SPACE]) -> [u16; SEQ_SPACE] {
    const EMPTY: u16 = u16::MAX;
    let mut index = [EMPTY; SEQ_SPACE];
    let mut s = 0;
    while s < SEQ_SPACE {
        let slot = table[s] as usize & (SEQ_SPACE - 1);
        assert!(
            index[slot] == EMPTY,
            "two ISN entries share their low sequence-width bits"
        );
        index[slot] = s as u16;
        s += 1;
    }
    index
}

/// The ISN CRC-64 for flits: the flit CRC, the table `D` and its inverse
/// (module docs). All three are compile-time statics, so constructing one
/// costs three pointer copies.
#[derive(Clone)]
pub struct IsnCrc64 {
    crc: Crc64,
    table: &'static [u64; SEQ_SPACE],
    index: &'static [u16; SEQ_SPACE],
}

impl std::fmt::Debug for IsnCrc64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IsnCrc64")
            .field("crc", &self.crc)
            .finish_non_exhaustive()
    }
}

impl IsnCrc64 {
    /// The ISN codec over `spec`.
    ///
    /// # Panics
    ///
    /// Unless `spec` is [`FLIT_CRC64`], the CRC the table is built for.
    pub fn new(spec: CrcSpec) -> Self {
        assert!(
            spec == FLIT_CRC64,
            "the ISN table is built for {}, not {}",
            FLIT_CRC64.name,
            spec.name
        );
        IsnCrc64 {
            crc: Crc64::flit(),
            table: &FLIT_ISN_TABLE,
            index: &FLIT_ISN_INDEX,
        }
    }

    /// `D[seq]`: what binding a flit to `seq` XORs onto its plain CRC. Only
    /// the low [`SEQ_BITS`] bits of `seq` count, and `delta(0) == 0`.
    #[inline]
    pub fn delta(&self, seq: u16) -> u64 {
        self.table[usize::from(seq) & (SEQ_SPACE - 1)]
    }

    /// The sequence number `residue` names: `Some(s)` iff `residue == D[s]`,
    /// so `seq_of(delta(s)) == Some(s)` and `seq_of(0) == Some(0)`. Any other
    /// residue — a corrupted block's — names nothing. One indexed load and
    /// one compare; no scan.
    #[inline]
    pub fn seq_of(&self, residue: u64) -> Option<u16> {
        let seq = self.index[residue as usize & (SEQ_SPACE - 1)];
        (self.table[usize::from(seq)] == residue).then_some(seq)
    }

    /// The ISN CRC binding `header ‖ payload` to `seq`.
    #[inline]
    pub fn encode(&self, header: &[u8; HEADER_LEN], payload: &[u8; PAYLOAD_LEN], seq: u16) -> u64 {
        let reg = self.crc.update(self.crc.init_register(), header);
        self.crc.finalize(self.crc.update(reg, payload)) ^ self.delta(seq)
    }

    /// `received_crc` XOR the plain CRC of `block`: `delta(s)` for an intact
    /// block bound to `s`, so zero for one bound to sequence 0.
    #[inline]
    pub fn residue(&self, block: &[u8; BLOCK_LEN], received_crc: u64) -> u64 {
        received_crc ^ self.crc.checksum(block)
    }

    /// Verifies a received flit: recomputes the ISN CRC with the receiver's
    /// expected sequence number and compares it to the received CRC.
    ///
    /// Returns `true` only if the payload is intact **and** the sequence
    /// numbers agree, which is exactly the pass/fail semantics of Section 5.
    #[inline]
    pub fn verify(
        &self,
        header: &[u8; HEADER_LEN],
        payload: &[u8; PAYLOAD_LEN],
        expected_seq: u16,
        received_crc: u64,
    ) -> bool {
        self.encode(header, payload, expected_seq) == received_crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn payload(seed: u8) -> [u8; PAYLOAD_LEN] {
        std::array::from_fn(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
    }

    /// Section 7.3's fold done literally: the sequence number XORed into
    /// payload bytes 0–1 (little-endian), then the plain CRC.
    fn direct_fold(header: &[u8; HEADER_LEN], payload: &[u8; PAYLOAD_LEN], seq: u16) -> u64 {
        let seq = seq & (SEQ_SPACE as u16 - 1);
        let mut block = [0u8; BLOCK_LEN];
        block[..HEADER_LEN].copy_from_slice(header);
        block[HEADER_LEN..].copy_from_slice(payload);
        block[HEADER_LEN] ^= seq as u8;
        block[HEADER_LEN + 1] ^= (seq >> 8) as u8;
        Crc64::flit().checksum(&block)
    }

    #[test]
    fn the_table_is_linear_distinct_and_zero_at_zero() {
        let isn = IsnCrc64::new(FLIT_CRC64);
        assert_eq!(isn.delta(0), 0, "folding sequence 0 is a no-op");
        let mut seen = std::collections::HashSet::new();
        for s in 1..SEQ_SPACE as u16 {
            let d = isn.delta(s);
            assert_ne!(d, 0, "sequence {s} would be indistinguishable from 0");
            assert!(seen.insert(d), "D[{s}] repeats an earlier entry");
            let from_basis = (0..SEQ_BITS)
                .filter(|b| s >> b & 1 == 1)
                .fold(0, |acc, b| acc ^ isn.delta(1 << b));
            assert_eq!(d, from_basis, "D[{s}] is not the XOR of its basis entries");
        }
    }

    #[test]
    fn seq_of_inverts_the_table_at_every_sequence() {
        let isn = IsnCrc64::new(FLIT_CRC64);
        for s in 0..SEQ_SPACE as u16 {
            assert_eq!(isn.seq_of(isn.delta(s)), Some(s), "D[{s}]");
        }
    }

    #[test]
    fn a_residue_one_bit_off_any_entry_names_no_sequence() {
        let isn = IsnCrc64::new(FLIT_CRC64);
        for s in 0..SEQ_SPACE as u16 {
            for k in 0..64 {
                let residue = isn.delta(s) ^ 1 << k;
                assert_eq!(isn.seq_of(residue), None, "D[{s}] ^ bit {k}");
            }
        }
    }

    #[test]
    fn encode_matches_the_direct_fold_at_every_sequence() {
        let isn = IsnCrc64::new(FLIT_CRC64);
        let mut rng = StdRng::seed_from_u64(0x15_4E);
        for _ in 0..8 {
            let header: [u8; HEADER_LEN] = rng.random();
            let payload: [u8; PAYLOAD_LEN] = rng.random();
            for seq in 0..SEQ_SPACE as u16 {
                assert_eq!(
                    isn.encode(&header, &payload, seq),
                    direct_fold(&header, &payload, seq),
                    "seq {seq}"
                );
            }
        }
    }

    #[test]
    fn the_residue_of_an_intact_block_is_its_delta() {
        let isn = IsnCrc64::new(FLIT_CRC64);
        let (header, pl) = ([0x5A, 0xC3], payload(2));
        let mut block = [0u8; BLOCK_LEN];
        block[..HEADER_LEN].copy_from_slice(&header);
        block[HEADER_LEN..].copy_from_slice(&pl);
        for seq in [0u16, 1, 300, 1023] {
            let crc = isn.encode(&header, &pl, seq);
            assert_eq!(isn.residue(&block, crc), isn.delta(seq));
        }
    }

    #[test]
    fn matching_sequence_verifies() {
        let isn = IsnCrc64::new(FLIT_CRC64);
        let hdr = [0x12, 0x34];
        let pl = payload(7);
        for seq in [0u16, 1, 511, 1023] {
            let crc = isn.encode(&hdr, &pl, seq);
            assert!(isn.verify(&hdr, &pl, seq, crc), "seq {seq}");
        }
    }

    #[test]
    fn every_sequence_mismatch_is_detected() {
        // The paper's key claim: a SeqNum/ESeqNum mismatch *always* yields a
        // CRC mismatch because the difference pattern spans at most 10 bits.
        let isn = IsnCrc64::new(FLIT_CRC64);
        let hdr = [0u8; 2];
        let pl = payload(3);
        let tx_seq = 137u16;
        let crc = isn.encode(&hdr, &pl, tx_seq);
        for eseq in 0..1024u16 {
            assert_eq!(
                isn.verify(&hdr, &pl, eseq, crc),
                eseq == tx_seq,
                "eseq {eseq}"
            );
        }
    }

    #[test]
    fn payload_corruption_is_detected_alongside_sequence() {
        let isn = IsnCrc64::new(FLIT_CRC64);
        let hdr = [0xAA, 0x55];
        let pl = payload(11);
        let crc = isn.encode(&hdr, &pl, 42);
        let mut corrupted = pl;
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
        assert_eq!(isn.delta(1025), isn.delta(1));
    }

    #[test]
    fn sequence_zero_is_the_plain_crc() {
        // Folding zero is a no-op: the baseline link CRC over
        // `header ‖ payload` is the ISN CRC at sequence 0, which is what
        // makes the construction backward compatible.
        let isn = IsnCrc64::new(FLIT_CRC64);
        let hdr = [1u8, 2];
        let pl = payload(1);
        let mut block = hdr.to_vec();
        block.extend_from_slice(&pl);
        assert_eq!(isn.encode(&hdr, &pl, 0), Crc64::flit().checksum(&block));
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
                data in any::<[u8; PAYLOAD_LEN]>(),
                hdr in any::<[u8; 2]>(),
                seq in 0u16..1024,
            ) {
                let isn = IsnCrc64::new(FLIT_CRC64);
                let crc = isn.encode(&hdr, &data, seq);
                prop_assert!(isn.verify(&hdr, &data, seq, crc));
            }

            #[test]
            fn wrong_sequence_never_verifies(
                data in any::<[u8; PAYLOAD_LEN]>(),
                seq in 0u16..1024,
                delta in 1u16..1024,
            ) {
                let isn = IsnCrc64::new(FLIT_CRC64);
                let hdr = [0u8; 2];
                let crc = isn.encode(&hdr, &data, seq);
                let wrong = (seq + delta) & (SEQ_SPACE as u16 - 1);
                prop_assert!(!isn.verify(&hdr, &data, wrong, crc));
            }

            #[test]
            fn single_bit_payload_flip_never_verifies(
                data in any::<[u8; PAYLOAD_LEN]>(),
                seq in 0u16..1024,
                flip_byte in 0usize..PAYLOAD_LEN,
                flip_bit in 0u8..8,
            ) {
                let isn = IsnCrc64::new(FLIT_CRC64);
                let hdr = [0u8; 2];
                let crc = isn.encode(&hdr, &data, seq);
                let mut corrupted = data;
                corrupted[flip_byte] ^= 1 << flip_bit;
                prop_assert!(!isn.verify(&hdr, &corrupted, seq, crc));
            }
        }
    }
}
