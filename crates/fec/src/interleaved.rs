//! The CXL 256-byte flit FEC layout: 3-way interleaved single-symbol
//! correction.
//!
//! Per Section 2.5 / Fig. 3 of the paper, the 250-byte block formed by the
//! 2-byte header, 240-byte payload and 8-byte CRC is distributed round-robin
//! over three sub-blocks of 84/83/83 bytes. Each sub-block receives two
//! Reed–Solomon parity bytes (shortened RS(255, 253)), giving transmitted
//! sub-blocks of 86/85/85 bytes = 256 bytes total.
//!
//! On the wire, byte `i` of the 256-byte block belongs to way `i % 3`
//! (this holds for the parity region too, because 250 ≡ 1 (mod 3) and the
//! parity bytes are laid out to continue the round-robin). Consequently a
//! burst of up to three consecutive bytes places at most one error in each
//! sub-block and is always corrected; longer bursts overload at least one
//! sub-block and are detected with the probabilities analysed in
//! [`crate::stats`].
//!
//! # One kernel for both directions
//!
//! The generator of the mother code is `g(x) = (x − 1)(x − α)`, so a way's
//! word `c(x)` (first wire symbol = highest degree) is a codeword exactly
//! when its two syndromes `S0 = c(1)` and `S1 = c(α)` vanish. Both encoding
//! and decoding reduce to evaluating that pair for every way over an
//! interleaved run of symbols, which one kernel (`syndromes`) does without
//! de-interleaving: `S0` is the XOR of the way's symbols and `S1` a Horner
//! evaluation at `α`, sliced eight symbols wide through the product tables
//! [`ALPHA_POW_MUL`] (`T[m − 1][x] = x·α^m`, eight 256-entry tables, 2 KiB):
//!
//! ```text
//! S1 ← T[7][S1] ⊕ T[6][s₀] ⊕ T[5][s₁] ⊕ … ⊕ T[0][s₆] ⊕ s₇
//! ```
//!
//! Only the first lookup depends on the previous step, so a way's 86 symbols
//! cost about a dozen dependent loads rather than 86 dependent multiplies;
//! the remaining loads of all ways overlap freely.
//!
//! *Decoding* runs the kernel over the whole block. *Encoding* runs it over
//! the data symbols alone, giving `D0 = d(1)` and `D1 = d(α)`; the codeword
//! is `c(x) = d(x)·x² + p1·x + p0`, and requiring `c(1) = c(α) = 0` yields
//! the parity directly from that pair:
//!
//! ```text
//! p1 = (D0 + α²·D1)·(1 + α)⁻¹        p0 = D0 + p1
//! ```
//!
//! # The GFNI kernel for the CXL flit
//!
//! For three ways and at most 256 symbols — the CXL flit, the one geometry
//! any codec or switch builds — a CPU with AVX-512BW and GFNI runs a second
//! kernel for the same pair ([`kernel`] names the one in use). GFNI
//! multiplies in GF(2⁸) modulo `x⁸ + x⁴ + x³ + x + 1` (0x11B); this code's
//! field is modulo `x⁸ + x⁴ + x³ + x² + 1` (0x11D). Let `β` be a root of the
//! latter polynomial in the 0x11B field. Then
//!
//! ```text
//! φ(Σ aᵢ·αⁱ) = Σ aᵢ·βⁱ
//! ```
//!
//! is a field isomorphism (`α` and `β` have the same minimal polynomial),
//! and it is GF(2)-linear, so one `vgf2p8affineqb` with an 8×8 bit matrix
//! whose column `j` is `βʲ` maps 64 symbols at once. With wire position
//! `i`, way `w = i mod 3` and `n_w` symbols in way `w`,
//!
//! ```text
//! S1_w = Σ cᵢ·α^(n_w − 1 − ⌊i/3⌋) = α^(n_w − 1) · φ⁻¹( Σ φ(cᵢ)·φ(α^−⌊i/3⌋) )
//! ```
//!
//! summing over `i ≡ w (mod 3)`. `vgf2p8mulb` multiplies every mapped
//! symbol by its position's constant `φ(α^−⌊i/3⌋)`, three byte masks
//! (`i mod 3`) split the products into the ways' sums, a horizontal XOR
//! reduces each, and a 256-byte `φ⁻¹` table and the scale `α^(n_w − 1)`
//! finish `S1`. `S0` is the masked XOR of the raw symbols (`φ` is linear, so
//! it needs no mapping). A masked load reads the 250-byte encode input
//! without a padded copy. The result is the table kernel's, byte for byte;
//! that kernel stays the fallback and the oracle of the differential tests.

use rxl_gf256::{ConstMul, Gf256, ALPHA_POW_MUL, ALPHA_POW_STEPS};

use crate::decoder::RsDecodeOutcome;

mod gfni;
#[cfg(test)]
mod reference;

/// Number of protected data bytes per CXL 256B flit (header + payload + CRC).
pub const CXL_FLIT_DATA_LEN: usize = 250;
/// Number of FEC parity bytes per CXL 256B flit.
pub const CXL_FLIT_FEC_LEN: usize = 6;
/// Total transmitted flit size.
pub const CXL_FLIT_TOTAL_LEN: usize = CXL_FLIT_DATA_LEN + CXL_FLIT_FEC_LEN;
/// Interleaving factor.
pub const CXL_FEC_WAYS: usize = 3;

/// Maximum interleave factor supported by the allocation-free codec paths.
pub const MAX_FEC_WAYS: usize = 8;

/// Parity symbols per way: the two of the RS(255, 253) mother code.
const PARITY_PER_WAY: usize = 2;

/// Multiplication by `(1 + α)⁻¹`, the scale of the parity identity (see the
/// module docs). `α = 0x02`, so `1 + α = 0x03`, whose inverse is `0xF4`.
const DIV_ONE_PLUS_ALPHA: ConstMul = ConstMul::new(0xF4);

/// Per-way decode outcomes, stored inline (no heap allocation on the decode
/// path). Dereferences to a slice, so indexing, `len()` and iteration behave
/// like the `Vec` this replaced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PerWayOutcomes {
    outcomes: [RsDecodeOutcome; MAX_FEC_WAYS],
    len: u8,
}

impl PerWayOutcomes {
    /// `outcomes[..ways]` are the verdicts; the rest must be `NoError` so
    /// that equality compares the verdicts alone.
    fn new(outcomes: [RsDecodeOutcome; MAX_FEC_WAYS], ways: usize) -> Self {
        debug_assert!(outcomes[ways..]
            .iter()
            .all(|o| *o == RsDecodeOutcome::NoError));
        PerWayOutcomes {
            outcomes,
            len: ways as u8,
        }
    }
}

impl std::ops::Deref for PerWayOutcomes {
    type Target = [RsDecodeOutcome];

    fn deref(&self) -> &[RsDecodeOutcome] {
        &self.outcomes[..self.len as usize]
    }
}

/// Result of decoding one interleaved FEC block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlitFecResult {
    /// Aggregate outcome across all interleaved ways.
    pub outcome: RsDecodeOutcome,
    /// Per-way outcomes, in interleave order.
    pub per_way: PerWayOutcomes,
}

impl FlitFecResult {
    /// `true` if the flit was accepted (clean or fully corrected).
    pub fn accepted(&self) -> bool {
        self.outcome.accepted()
    }
}

/// `(S0, S1)`, each indexed by way; entries past the way count are zero.
type Syndromes = ([u8; MAX_FEC_WAYS], [u8; MAX_FEC_WAYS]);

/// The syndrome kernel: `S0 = c(1)` and `S1 = c(α)` of each of the `WAYS`
/// words interleaved round-robin in `symbols` (symbol `i` belongs to way
/// `i % WAYS`; a way's first symbol is its highest-degree coefficient).
///
/// Each step consumes [`ALPHA_POW_STEPS`] symbols of every way; the symbols
/// left over (fewer than `8·WAYS`) take the one-symbol Horner step. `WAYS`
/// is a const parameter so the stride is a compile-time constant and each
/// way's pair stays in registers across the loop.
#[inline(always)]
fn syndromes<const WAYS: usize>(symbols: &[u8]) -> Syndromes {
    const LAST: usize = ALPHA_POW_STEPS - 1;
    let t = &ALPHA_POW_MUL;
    let (mut s0, mut s1) = ([0u8; MAX_FEC_WAYS], [0u8; MAX_FEC_WAYS]);
    let mut steps = symbols.chunks_exact(ALPHA_POW_STEPS * WAYS);
    for step in &mut steps {
        for w in 0..WAYS {
            // Everything but the `T[7][S1]` lookup is independent of the
            // previous step; fold it first so only one load and one XOR sit
            // on the way's dependency chain.
            let last = step[w + LAST * WAYS];
            let (mut sum, mut horner) = (last, last);
            for k in 0..LAST {
                let s = step[w + k * WAYS];
                sum ^= s;
                horner ^= t[LAST - 1 - k][s as usize];
            }
            s0[w] ^= sum;
            s1[w] = t[LAST][s1[w] as usize] ^ horner;
        }
    }
    // A whole number of rows was consumed, so the tail starts at way 0.
    for row in steps.remainder().chunks(WAYS) {
        for (w, &s) in row.iter().enumerate() {
            s0[w] ^= s;
            s1[w] = t[0][s1[w] as usize] ^ s;
        }
    }
    (s0, s1)
}

/// The syndrome kernel [`InterleavedFec`] runs on this CPU for the CXL flit
/// geometry (three ways, at most 256 symbols): `"avx512bw+gfni"` or
/// `"table"` (the sliced product tables every other geometry uses).
pub fn kernel() -> &'static str {
    if gfni::available() {
        "avx512bw+gfni"
    } else {
        "table"
    }
}

/// An N-way interleaved single-symbol-correct FEC block codec.
///
/// Every way is protected by the two-parity shortened RS(255, 253) mother
/// code. The codec is plain data — a geometry, no tables or per-way state of
/// its own — and both directions are allocation-free passes of the one
/// syndrome kernel over the interleaved block (see the module docs): encoding
/// derives each way's parity from the data's syndrome pair, decoding applies
/// at most one in-place correction per way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InterleavedFec {
    data_len: usize,
    ways: usize,
}

impl InterleavedFec {
    /// Builds an interleaved FEC over `data_len` bytes with `ways`
    /// round-robin sub-blocks, each protected by a shortened RS(255, 253).
    /// Supports up to [`MAX_FEC_WAYS`] ways.
    pub fn new(data_len: usize, ways: usize) -> Self {
        assert!(ways >= 1, "at least one interleave way required");
        assert!(
            ways <= MAX_FEC_WAYS,
            "at most {MAX_FEC_WAYS} ways supported"
        );
        assert!(data_len >= ways, "data must cover every way");
        assert!(
            data_len.div_ceil(ways) <= 255 - PARITY_PER_WAY,
            "sub-block exceeds the mother code's k"
        );
        InterleavedFec { data_len, ways }
    }

    /// The CXL 256-byte flit geometry: 250 data bytes, 3 ways, 6 parity bytes.
    pub fn cxl_flit() -> Self {
        let fec = Self::new(CXL_FLIT_DATA_LEN, CXL_FEC_WAYS);
        debug_assert_eq!(fec.encoded_len(), CXL_FLIT_TOTAL_LEN);
        fec
    }

    /// Number of protected data bytes.
    pub fn data_len(&self) -> usize {
        self.data_len
    }

    /// Number of interleave ways.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of parity bytes appended by [`InterleavedFec::encode`].
    pub fn parity_len(&self) -> usize {
        PARITY_PER_WAY * self.ways
    }

    /// Total encoded length (data + parity).
    pub fn encoded_len(&self) -> usize {
        self.data_len + self.parity_len()
    }

    /// Sub-block data lengths, in way order (84/83/83 for the CXL flit):
    /// way `w` receives data bytes `w, w + ways, w + 2·ways, …`.
    pub fn way_data_lens(&self) -> Vec<usize> {
        (0..self.ways)
            .map(|w| (self.data_len - w).div_ceil(self.ways))
            .collect()
    }

    /// The way that wire position `i` of the encoded block belongs to.
    #[inline]
    pub fn way_of_position(&self, i: usize) -> usize {
        i % self.ways
    }

    /// Runs the syndrome kernel over `symbols`, monomorphised per way count.
    /// This `match` is the only per-`ways` code in the codec.
    #[inline]
    fn syndromes(&self, symbols: &[u8]) -> Syndromes {
        match self.ways {
            1 => syndromes::<1>(symbols),
            2 => syndromes::<2>(symbols),
            3 => gfni::syndromes3(symbols).unwrap_or_else(|| syndromes::<3>(symbols)),
            4 => syndromes::<4>(symbols),
            5 => syndromes::<5>(symbols),
            6 => syndromes::<6>(symbols),
            7 => syndromes::<7>(symbols),
            8 => syndromes::<8>(symbols),
            _ => unreachable!("way count is checked in InterleavedFec::new"),
        }
    }

    /// Encodes `data` (exactly [`data_len`](Self::data_len) bytes) into a
    /// transmitted block: the original data followed by the per-way parity
    /// bytes, laid out so the whole block stays round-robin interleaved.
    ///
    /// Allocating convenience wrapper over [`Self::encode_into`].
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        assert_eq!(data.len(), self.data_len, "wrong data length for this FEC");
        let mut out = vec![0u8; self.encoded_len()];
        out[..self.data_len].copy_from_slice(data);
        self.encode_into(&mut out);
        out
    }

    /// Computes the parity tail in place: `block[..data_len]` must already
    /// hold the data; the parity bytes are written to `block[data_len..]`.
    /// Allocation-free — this is the hot-path entry point used by the flit
    /// codecs and switches.
    ///
    /// Each way's parity follows from the kernel's `(D0, D1)` over its data
    /// symbols by the identity in the module docs (virtual leading zeros of
    /// the shortened code change neither). The parity region continues the
    /// round-robin: its first `ways` positions take the `p1` (degree-1)
    /// symbols, its last `ways` the `p0` symbols, from way `data_len % ways`.
    pub fn encode_into(&self, block: &mut [u8]) {
        assert_eq!(
            block.len(),
            self.encoded_len(),
            "wrong block length for this FEC"
        );
        let (data, parity) = block.split_at_mut(self.data_len);
        let (d0, d1) = self.syndromes(data);
        let (high, low) = parity.split_at_mut(self.ways);
        for (i, (p1, p0)) in high.iter_mut().zip(low).enumerate() {
            let w = (self.data_len + i) % self.ways;
            *p1 = DIV_ONE_PLUS_ALPHA.mul(d0[w] ^ ALPHA_POW_MUL[1][d1[w] as usize]);
            *p0 = d0[w] ^ *p1;
        }
    }

    /// Decodes a transmitted block in place.
    ///
    /// If every way is clean or correctable, the corrected block is written
    /// back and the aggregate outcome is reported. If any way detects an
    /// uncorrectable pattern the block is left untouched (a real switch or
    /// endpoint would discard it) and the aggregate outcome is
    /// [`RsDecodeOutcome::DetectedUncorrectable`].
    ///
    /// Allocation-free: the kernel evaluates each way's `(S0, S1)` over the
    /// interleaved block directly. All-zero syndromes — the common case —
    /// return at once. Otherwise a way with exactly one corrupted symbol
    /// `e` at degree `p` has `S0 = e`, `S1 = e·α^p`, so `S1/S0` locates it
    /// and `S0` repairs it; a location past the shortened word, or exactly
    /// one zero syndrome, is detected as uncorrectable. These are the
    /// semantics of [`crate::ShortenedRs::decode_in_place`] per way, verified
    /// against it by the property tests below.
    pub fn decode(&self, block: &mut [u8]) -> FlitFecResult {
        assert_eq!(
            block.len(),
            self.encoded_len(),
            "wrong block length for this FEC"
        );
        let ways = self.ways;
        let (s0, s1) = self.syndromes(block);
        let mut per_way = [RsDecodeOutcome::NoError; MAX_FEC_WAYS];
        if s0 == [0; MAX_FEC_WAYS] && s1 == [0; MAX_FEC_WAYS] {
            return FlitFecResult {
                outcome: RsDecodeOutcome::NoError,
                per_way: PerWayOutcomes::new(per_way, ways),
            };
        }

        // Per-way verdicts and correction candidates, applied only once every
        // way is known to accept (else the block is left untouched).
        let mut fix: [Option<(usize, u8)>; MAX_FEC_WAYS] = [None; MAX_FEC_WAYS];
        let mut corrected = 0usize;
        for w in 0..ways {
            let (s0, s1) = (Gf256::new(s0[w]), Gf256::new(s1[w]));
            per_way[w] = match (s0.is_zero(), s1.is_zero()) {
                (true, true) => RsDecodeOutcome::NoError,
                (false, false) => {
                    let word_len = (block.len() - w).div_ceil(ways);
                    let p = (s1 / s0)
                        .log()
                        .expect("ratio of non-zero elements is non-zero")
                        as usize;
                    // Corrections landing in the virtual zero padding of
                    // the shortened code are detected, not applied.
                    if p < word_len {
                        fix[w] = Some((w + (word_len - 1 - p) * ways, s0.value()));
                        corrected += 1;
                        RsDecodeOutcome::Corrected { symbols: 1 }
                    } else {
                        RsDecodeOutcome::DetectedUncorrectable
                    }
                }
                _ => RsDecodeOutcome::DetectedUncorrectable,
            };
        }

        let uncorrectable = per_way[..ways].contains(&RsDecodeOutcome::DetectedUncorrectable);
        let outcome = if uncorrectable {
            RsDecodeOutcome::DetectedUncorrectable
        } else {
            for &(pos, magnitude) in fix[..ways].iter().flatten() {
                block[pos] ^= magnitude;
            }
            RsDecodeOutcome::Corrected { symbols: corrected }
        };
        FlitFecResult {
            outcome,
            per_way: PerWayOutcomes::new(per_way, ways),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shortened::ShortenedRs;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_data(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.random()).collect()
    }

    #[test]
    fn cxl_flit_geometry() {
        let fec = InterleavedFec::cxl_flit();
        assert_eq!(fec.data_len(), 250);
        assert_eq!(fec.ways(), 3);
        assert_eq!(fec.parity_len(), 6);
        assert_eq!(fec.encoded_len(), 256);
        let lens = fec.way_data_lens();
        assert_eq!(lens.iter().sum::<usize>(), 250);
        assert_eq!(lens, vec![84, 83, 83]);
        // Every wire position, parity included, follows the i % 3 rule.
        for i in 0..256 {
            assert_eq!(fec.way_of_position(i), i % 3);
        }
    }

    #[test]
    fn clean_round_trip() {
        let fec = InterleavedFec::cxl_flit();
        let data = random_data(250, 1);
        let mut block = fec.encode(&data);
        assert_eq!(block.len(), 256);
        let res = fec.decode(&mut block);
        assert_eq!(res.outcome, RsDecodeOutcome::NoError);
        assert!(res.accepted());
        assert_eq!(&block[..250], &data[..]);
    }

    #[test]
    fn corrects_three_byte_bursts_anywhere_including_the_parity_tail() {
        let fec = InterleavedFec::cxl_flit();
        let data = random_data(250, 2);
        let clean = fec.encode(&data);
        let mut rng = StdRng::seed_from_u64(0xB0257);
        for start in 0..=253 {
            // One fixed burst, then random magnitudes.
            let mut burst = [0xFF, 0x3C, 0x81];
            for _ in 0..16 {
                let mut block = clean.clone();
                for (byte, flip) in block[start..start + 3].iter_mut().zip(burst) {
                    *byte ^= flip;
                }
                let res = fec.decode(&mut block);
                assert!(res.outcome.is_corrected(), "burst at {start} not corrected");
                assert_eq!(res.outcome.corrected_symbols(), 3);
                assert_eq!(
                    &block[..250],
                    &data[..],
                    "burst at {start} produced wrong data"
                );
                assert_eq!(block, clean, "burst at {start} left parity corrupted");
                burst = burst.map(|_| rng.random_range(1..=255u8));
            }
        }
    }

    #[test]
    fn corrects_single_errors_in_the_parity_region() {
        let fec = InterleavedFec::cxl_flit();
        let data = random_data(250, 3);
        let clean = fec.encode(&data);
        for pos in 250..256 {
            let mut block = clean.clone();
            block[pos] ^= 0x42;
            let res = fec.decode(&mut block);
            assert!(
                res.outcome.is_corrected(),
                "parity error at {pos} not corrected"
            );
            assert_eq!(&block[..250], &data[..]);
        }
    }

    #[test]
    fn per_way_outcomes_are_reported() {
        let fec = InterleavedFec::cxl_flit();
        let data = random_data(250, 4);
        let clean = fec.encode(&data);
        let mut block = clean.clone();
        // Bytes 0 and 3 both belong to way 0; byte 1 → way 1.
        block[0] ^= 0x01;
        block[1] ^= 0x02;
        let res = fec.decode(&mut block);
        assert!(res.outcome.is_corrected());
        assert_eq!(res.per_way.len(), 3);
        assert!(res.per_way[0].is_corrected());
        assert!(res.per_way[1].is_corrected());
        assert_eq!(res.per_way[2], RsDecodeOutcome::NoError);
    }

    #[test]
    fn overloaded_way_with_equal_magnitudes_is_detected_and_block_untouched() {
        let fec = InterleavedFec::cxl_flit();
        let data = random_data(250, 5);
        let clean = fec.encode(&data);
        let mut block = clean.clone();
        // Two equal-magnitude errors in the same way (positions 0 and 3 are
        // both way 0) force S0 = 0, S1 ≠ 0 → detected uncorrectable.
        block[0] ^= 0x99;
        block[3] ^= 0x99;
        let snapshot = block.clone();
        let res = fec.decode(&mut block);
        assert_eq!(res.outcome, RsDecodeOutcome::DetectedUncorrectable);
        assert!(!res.accepted());
        assert_eq!(block, snapshot, "uncorrectable block must not be modified");
    }

    #[test]
    fn six_byte_bursts_are_mostly_detected() {
        let mut rng = StdRng::seed_from_u64(6);
        let fec = InterleavedFec::cxl_flit();
        let data = random_data(250, 7);
        let clean = fec.encode(&data);
        let mut accepted = 0;
        let mut rejected = 0;
        for _ in 0..200 {
            let mut block = clean.clone();
            let start = rng.random_range(0usize..250);
            for i in 0..6 {
                block[start + i] ^= rng.random_range(1..=255u8);
            }
            let res = fec.decode(&mut block);
            if res.accepted() {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        assert!(
            rejected > accepted,
            "6-byte bursts should mostly be detected"
        );
        assert_eq!(rejected + accepted, 200);
    }

    #[test]
    fn other_geometries_are_supported() {
        // 68-byte flit style geometry: 66 data bytes, 2 ways.
        let fec = InterleavedFec::new(66, 2);
        assert_eq!(fec.encoded_len(), 70);
        let data = random_data(66, 8);
        let mut block = fec.encode(&data);
        block[10] ^= 0x10;
        block[11] ^= 0x20;
        let res = fec.decode(&mut block);
        assert!(res.outcome.is_corrected());
        assert_eq!(&block[..66], &data[..]);
    }

    #[test]
    #[should_panic]
    fn encode_length_mismatch_panics() {
        let fec = InterleavedFec::cxl_flit();
        let _ = fec.encode(&[0u8; 100]);
    }

    #[test]
    #[should_panic]
    fn decode_length_mismatch_panics() {
        let fec = InterleavedFec::cxl_flit();
        let mut block = vec![0u8; 200];
        let _ = fec.decode(&mut block);
    }

    /// Reference implementation of the pre-streaming codec: de-interleave,
    /// decode each way with [`ShortenedRs`], re-interleave. The streaming
    /// paths must match it bit for bit.
    fn reference_decode(fec: &InterleavedFec, block: &mut [u8]) -> RsDecodeOutcome {
        let ways = fec.ways();
        let mut words: Vec<Vec<u8>> = (0..ways).map(|_| Vec::new()).collect();
        for (i, &b) in block.iter().enumerate() {
            words[i % ways].push(b);
        }
        let mut total = 0usize;
        for (w, word) in words.iter_mut().enumerate() {
            match ShortenedRs::cxl_subblock(word.len() - 2).decode_in_place(word) {
                RsDecodeOutcome::Corrected { symbols } => total += symbols,
                RsDecodeOutcome::DetectedUncorrectable => {
                    return RsDecodeOutcome::DetectedUncorrectable
                }
                RsDecodeOutcome::NoError => {}
            }
            let _ = w;
        }
        let mut cursors = vec![0usize; ways];
        for (i, slot) in block.iter_mut().enumerate() {
            let w = i % ways;
            *slot = words[w][cursors[w]];
            cursors[w] += 1;
        }
        if total == 0 {
            RsDecodeOutcome::NoError
        } else {
            RsDecodeOutcome::Corrected { symbols: total }
        }
    }

    #[test]
    fn streaming_decode_matches_per_way_reference_under_random_noise() {
        let mut rng = StdRng::seed_from_u64(99);
        let fec = InterleavedFec::cxl_flit();
        let data = random_data(250, 100);
        let clean = fec.encode(&data);
        for trial in 0..300 {
            let mut block = clean.clone();
            let errors = rng.random_range(0usize..=4);
            for _ in 0..errors {
                let pos = rng.random_range(0..block.len());
                block[pos] ^= rng.random_range(1..=255u8);
            }
            let mut reference = block.clone();
            let res = fec.decode(&mut block);
            let ref_outcome = reference_decode(&fec, &mut reference);
            assert_eq!(res.outcome, ref_outcome, "trial {trial}");
            if res.accepted() {
                assert_eq!(block, reference, "trial {trial}");
            } else {
                // Uncorrectable blocks are left untouched by both.
                assert_eq!(reference_decode(&fec, &mut block), ref_outcome);
            }
        }
    }

    #[test]
    fn encode_into_matches_per_way_reference() {
        for (data_len, ways) in [(250usize, 3usize), (66, 2), (40, 4)] {
            let fec = InterleavedFec::new(data_len, ways);
            let data = random_data(data_len, data_len as u64);
            let block = fec.encode(&data);
            // Reference: per-way parity via ShortenedRs on gathered symbols.
            let mut words: Vec<Vec<u8>> = (0..ways).map(|_| Vec::new()).collect();
            for (i, &b) in data.iter().enumerate() {
                words[i % ways].push(b);
            }
            let parities: Vec<Vec<u8>> = words
                .iter()
                .map(|w| {
                    ShortenedRs::cxl_subblock(w.len())
                        .code()
                        .parity_shortened(w)
                })
                .collect();
            let mut expected = data.clone();
            let mut cursors = vec![0usize; ways];
            for i in data_len..fec.encoded_len() {
                let w = i % ways;
                expected.push(parities[w][cursors[w]]);
                cursors[w] += 1;
            }
            assert_eq!(block, expected, "({data_len}, {ways})");
        }
    }

    #[test]
    fn parity_scale_is_the_inverse_of_one_plus_alpha() {
        let scale = Gf256::new(DIV_ONE_PLUS_ALPHA.constant());
        assert_eq!(scale * (Gf256::ONE + Gf256::ALPHA), Gf256::ONE);
    }

    /// Encodes `data` and applies `flips` (position taken modulo the block
    /// length), then requires the kernel codec and the byte-serial
    /// [`reference`] to agree on everything observable: the encoded block,
    /// the decoded block, the aggregate outcome and the per-way outcomes.
    fn assert_matches_reference(fec: &InterleavedFec, data: &[u8], flips: &[(usize, u8)]) {
        let geometry = (fec.data_len(), fec.ways());
        let mut block = fec.encode(data);
        let mut expected = block.clone();
        reference::encode_into(fec, &mut expected);
        assert_eq!(block, expected, "encode {geometry:?}");
        for &(pos, flip) in flips {
            let pos = pos % block.len();
            block[pos] ^= flip;
            expected[pos] ^= flip;
        }
        let got = fec.decode(&mut block);
        let want = reference::decode(fec, &mut expected);
        assert_eq!(got, want, "decode {geometry:?} {flips:?}");
        assert_eq!(block, expected, "decoded block {geometry:?} {flips:?}");
    }

    /// Every way count with every data length from the shortest legal one up
    /// to three kernel steps: between them both kernel passes (over
    /// `data_len` symbols when encoding, `data_len + 2·ways` when decoding)
    /// see zero, one and several full steps followed by every possible tail
    /// length `0..8·ways`.
    fn every_geometry() -> impl Iterator<Item = InterleavedFec> {
        (1..=MAX_FEC_WAYS).flat_map(|ways| {
            (ways..=ways + 3 * ALPHA_POW_STEPS * ways)
                .map(move |data_len| InterleavedFec::new(data_len, ways))
        })
    }

    #[test]
    fn kernel_matches_reference_for_every_way_count_and_tail_length() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for fec in every_geometry() {
            let data = random_data(fec.data_len(), rng.random());
            let len = fec.encoded_len();
            let ways = fec.ways();
            let (a, b) = (rng.random_range(0..len), rng.random_range(0..len));
            let flip = rng.random_range(1..=255u8);
            assert_matches_reference(&fec, &data, &[]);
            // One error, two errors anywhere, an equal-magnitude pair in one
            // way (S0 = 0), and an error in each parity symbol of way 0.
            assert_matches_reference(&fec, &data, &[(a, flip)]);
            assert_matches_reference(&fec, &data, &[(a, flip), (b, 0x3C)]);
            assert_matches_reference(&fec, &data, &[(a, flip), (a + ways, flip)]);
            assert_matches_reference(&fec, &data, &[(len - 1, flip), (len - 1 - ways, 0x81)]);
        }
    }

    #[test]
    fn encode_into_output_has_zero_syndromes_for_every_geometry() {
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        for fec in every_geometry() {
            let ways = fec.ways();
            let data = random_data(fec.data_len(), rng.random());
            let mut block = fec.encode(&data);
            // Judged by the per-way mother code, not by the kernel.
            for w in 0..ways {
                let word: Vec<u8> = block.iter().skip(w).step_by(ways).copied().collect();
                assert!(
                    ShortenedRs::cxl_subblock(word.len() - 2).is_codeword(&word),
                    "way {w} of ({}, {ways})",
                    fec.data_len()
                );
            }
            let (s0, s1) = fec.syndromes(&block);
            assert_eq!((s0, s1), ([0; MAX_FEC_WAYS], [0; MAX_FEC_WAYS]));
            let res = fec.decode(&mut block);
            assert_eq!(res.outcome, RsDecodeOutcome::NoError);
            assert_eq!(res.per_way.len(), ways);
            assert!(res.per_way.iter().all(|o| *o == RsDecodeOutcome::NoError));
            assert_eq!(&block[..fec.data_len()], &data[..]);
        }
    }

    #[test]
    fn every_single_symbol_error_in_a_cxl_flit_is_corrected() {
        let fec = InterleavedFec::cxl_flit();
        let clean = fec.encode(&random_data(250, 11));
        for pos in 0..CXL_FLIT_TOTAL_LEN {
            for magnitude in 1..=255u8 {
                let mut block = clean.clone();
                block[pos] ^= magnitude;
                let res = fec.decode(&mut block);
                assert_eq!(
                    res.outcome,
                    RsDecodeOutcome::Corrected { symbols: 1 },
                    "position {pos}, magnitude {magnitude:#04x}"
                );
                for (w, outcome) in res.per_way.iter().enumerate() {
                    assert_eq!(outcome.is_corrected(), w == pos % 3, "position {pos}");
                }
                assert_eq!(
                    block, clean,
                    "position {pos}, magnitude {magnitude:#04x} not restored"
                );
            }
        }
    }

    #[test]
    fn gfni_kernel_matches_the_table_kernel_at_every_length() {
        let mut rng = StdRng::seed_from_u64(0x6F4E);
        for len in 3..=256 {
            let (a, b) = (rng.random(), rng.random());
            for block in [vec![0xFF; len], random_data(len, a), random_data(len, b)] {
                let got = gfni::syndromes3(&block);
                assert_eq!(got.is_some(), gfni::available(), "len {len}");
                if let Some(got) = got {
                    assert_eq!(got, syndromes::<3>(&block), "len {len}");
                }
            }
        }
        assert_eq!(gfni::syndromes3(&[0u8; 257]), None);
        assert_eq!(gfni::syndromes3(&[1u8; 2]), None);
    }

    #[test]
    fn kernel_names_the_path_the_cxl_flit_takes() {
        assert_eq!(gfni::available(), kernel() == "avx512bw+gfni");
        assert!(["avx512bw+gfni", "table"].contains(&kernel()));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            #[test]
            fn kernel_matches_reference_on_random_geometries(
                ways in 1usize..=MAX_FEC_WAYS,
                len_seed in 0usize..100_000,
                bytes in proptest::collection::vec(any::<u8>(), 600),
                flips in proptest::collection::vec((0usize..100_000, 1u8..=255), 0..=5),
            ) {
                // Any legal length up to 600 bytes, so long words (p close
                // to 255) and every tail length are drawn.
                let max_len = (253 * ways).min(bytes.len());
                let data_len = ways + len_seed % (max_len - ways + 1);
                let fec = InterleavedFec::new(data_len, ways);
                assert_matches_reference(&fec, &bytes[..data_len], &flips);
            }

            #[test]
            fn streaming_decode_matches_reference(
                data in proptest::collection::vec(any::<u8>(), 250),
                flips in proptest::collection::vec((0usize..256, 1u8..=255), 0..5),
            ) {
                let fec = InterleavedFec::cxl_flit();
                let mut block = fec.encode(&data);
                for (pos, flip) in flips {
                    block[pos] ^= flip;
                }
                let mut reference = block.clone();
                let res = fec.decode(&mut block);
                let ref_outcome = reference_decode(&fec, &mut reference);
                prop_assert_eq!(res.outcome, ref_outcome);
                if res.accepted() {
                    prop_assert_eq!(block, reference);
                }
            }

            #[test]
            fn any_three_byte_burst_is_corrected(
                data in proptest::collection::vec(any::<u8>(), 250),
                start in 0usize..254,
                flips in proptest::collection::vec(1u8..=255, 3),
            ) {
                let fec = InterleavedFec::cxl_flit();
                let clean = fec.encode(&data);
                let mut block = clean.clone();
                for (i, f) in flips.iter().enumerate() {
                    block[start + i] ^= f;
                }
                let res = fec.decode(&mut block);
                prop_assert!(res.outcome.is_corrected());
                prop_assert_eq!(&block[..250], &data[..]);
            }
        }
    }
}
