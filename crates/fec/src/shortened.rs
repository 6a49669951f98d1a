//! Shortened Reed–Solomon codes.
//!
//! CXL flit sub-blocks carry only 83–84 data bytes but are protected by the
//! RS(255, 253) mother code: the remaining 170 leading data positions are
//! virtual zeros that are never transmitted (Section 2.5 of the paper).
//! Shortening has two consequences this module captures:
//!
//! 1. **Encoding** skips the virtual zeros (they do not change the parity).
//! 2. **Decoding** gains extra detection power: if the error-locator points at
//!    a virtual position, the word cannot be a correctable single-error
//!    pattern, so the decoder reports *detected uncorrectable* instead of
//!    miscorrecting. For the CXL geometry roughly two thirds of otherwise
//!    miscorrected patterns are caught this way.

use crate::decoder::{RsDecodeOutcome, RsDecoder};
use crate::rs::RsCode;
use crate::ssc::SingleSymbolCorrector;

/// A shortened Reed–Solomon code: `data_len` data symbols protected by the
/// parity of a longer mother code.
#[derive(Clone, Debug)]
pub struct ShortenedRs {
    code: RsCode,
    data_len: usize,
    corrector: Corrector,
}

/// How received words are corrected, built once per code: the two-syndrome
/// fast path for two-parity codes, the Berlekamp–Massey decoder otherwise.
#[derive(Clone, Debug)]
enum Corrector {
    Single(SingleSymbolCorrector),
    General(RsDecoder),
}

impl ShortenedRs {
    /// Creates a shortened code carrying `data_len` data symbols.
    pub fn new(code: RsCode, data_len: usize) -> Self {
        assert!(
            data_len >= 1,
            "shortened code needs at least one data symbol"
        );
        assert!(
            data_len <= code.k(),
            "shortened data length exceeds the mother code's k"
        );
        let corrector = if code.parity_len() == 2 {
            Corrector::Single(SingleSymbolCorrector::new(code.clone()))
        } else {
            Corrector::General(RsDecoder::new(code.clone()))
        };
        ShortenedRs {
            code,
            data_len,
            corrector,
        }
    }

    /// A CXL flit sub-block: `data_len` bytes protected by RS(255, 253).
    pub fn cxl_subblock(data_len: usize) -> Self {
        Self::new(RsCode::rs_255_253(), data_len)
    }

    /// Number of data symbols per shortened word.
    pub fn data_len(&self) -> usize {
        self.data_len
    }

    /// Number of parity symbols appended to each word.
    pub fn parity_len(&self) -> usize {
        self.code.parity_len()
    }

    /// Total transmitted word length (data + parity).
    pub fn word_len(&self) -> usize {
        self.data_len + self.code.parity_len()
    }

    /// The mother code.
    pub fn code(&self) -> &RsCode {
        &self.code
    }

    /// Fraction of mother-code positions actually used by the shortened word;
    /// miscorrections land outside this fraction (and are therefore detected)
    /// with probability ≈ `1 − used_fraction`.
    pub fn used_fraction(&self) -> f64 {
        self.word_len() as f64 / self.code.n() as f64
    }

    /// Encodes `data` (exactly `data_len` symbols) into a transmitted word of
    /// `data ‖ parity`.
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        assert_eq!(data.len(), self.data_len, "wrong shortened data length");
        let mut out = Vec::with_capacity(self.word_len());
        out.extend_from_slice(data);
        out.extend_from_slice(&self.code.parity_shortened(data));
        out
    }

    /// Decodes a transmitted word in place. Corrections that would land on a
    /// virtual (padded) position are reported as detected-uncorrectable.
    pub fn decode_in_place(&self, word: &mut [u8]) -> RsDecodeOutcome {
        assert_eq!(word.len(), self.word_len(), "wrong shortened word length");
        let decoder = match &self.corrector {
            // The SSC path already rejects out-of-range corrections.
            Corrector::Single(ssc) => return ssc.decode_in_place(word).0,
            Corrector::General(decoder) => decoder,
        };
        // Virtual leading zeros do not move a Horner syndrome, so the clean
        // case is decided on the word as transmitted, without a buffer.
        if self.code.has_zero_syndromes(word) {
            return RsDecodeOutcome::NoError;
        }
        // Otherwise pad to the mother-code length, decode, and reject
        // corrections that touch the padding.
        let pad = self.code.n() - self.word_len();
        let mut full = vec![0u8; pad];
        full.extend_from_slice(word);
        let (outcome, locations) = decoder.decode_with_locations(&mut full);
        match outcome {
            RsDecodeOutcome::NoError => RsDecodeOutcome::NoError,
            RsDecodeOutcome::DetectedUncorrectable => RsDecodeOutcome::DetectedUncorrectable,
            RsDecodeOutcome::Corrected { symbols } => {
                if locations.iter().any(|&l| l < pad) {
                    return RsDecodeOutcome::DetectedUncorrectable;
                }
                word.copy_from_slice(&full[pad..]);
                RsDecodeOutcome::Corrected { symbols }
            }
        }
    }

    /// Returns `true` if `word` is a valid shortened codeword: all syndromes
    /// of the word as transmitted vanish (the virtual leading zeros of the
    /// mother codeword contribute nothing to them).
    pub fn is_codeword(&self, word: &[u8]) -> bool {
        assert_eq!(word.len(), self.word_len());
        self.code.has_zero_syndromes(word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn geometry_of_the_cxl_subblock() {
        let sb = ShortenedRs::cxl_subblock(83);
        assert_eq!(sb.data_len(), 83);
        assert_eq!(sb.parity_len(), 2);
        assert_eq!(sb.word_len(), 85);
        assert!((sb.used_fraction() - 85.0 / 255.0).abs() < 1e-12);
    }

    #[test]
    fn encode_decode_round_trip_without_errors() {
        let sb = ShortenedRs::cxl_subblock(84);
        let data: Vec<u8> = (0..84).map(|i| (i * 11) as u8).collect();
        let mut word = sb.encode(&data);
        assert!(sb.is_codeword(&word));
        assert_eq!(sb.decode_in_place(&mut word), RsDecodeOutcome::NoError);
        assert_eq!(&word[..84], &data[..]);
    }

    #[test]
    fn corrects_single_errors_everywhere() {
        let sb = ShortenedRs::cxl_subblock(83);
        let data: Vec<u8> = (0..83).map(|i| (i as u8).wrapping_mul(29)).collect();
        let clean = sb.encode(&data);
        for pos in 0..clean.len() {
            let mut word = clean.clone();
            word[pos] ^= 0x5A;
            assert_eq!(
                sb.decode_in_place(&mut word),
                RsDecodeOutcome::Corrected { symbols: 1 }
            );
            assert_eq!(word, clean);
        }
    }

    #[test]
    fn double_error_detection_rate_is_about_two_thirds() {
        let mut rng = StdRng::seed_from_u64(2024);
        let sb = ShortenedRs::cxl_subblock(83);
        let data: Vec<u8> = (0..83).map(|_| rng.random()).collect();
        let clean = sb.encode(&data);
        let trials = 4000;
        let mut detected = 0u32;
        let mut miscorrected = 0u32;
        for _ in 0..trials {
            let mut word = clean.clone();
            let p1 = rng.random_range(0..word.len());
            let mut p2 = rng.random_range(0..word.len());
            while p2 == p1 {
                p2 = rng.random_range(0..word.len());
            }
            word[p1] ^= rng.random_range(1..=255u8);
            word[p2] ^= rng.random_range(1..=255u8);
            match sb.decode_in_place(&mut word) {
                RsDecodeOutcome::DetectedUncorrectable => detected += 1,
                RsDecodeOutcome::Corrected { .. } => {
                    if word != clean {
                        miscorrected += 1;
                    }
                }
                RsDecodeOutcome::NoError => {}
            }
        }
        let frac = detected as f64 / trials as f64;
        assert!(
            (0.58..0.76).contains(&frac),
            "expected ≈2/3 detection, measured {frac:.3} (miscorrected {miscorrected})"
        );
    }

    #[test]
    fn general_path_also_respects_virtual_positions() {
        // Use a t = 2 mother code so the non-SSC path is exercised.
        let sb = ShortenedRs::new(RsCode::new(255, 251), 60);
        let data: Vec<u8> = (0..60).map(|i| (i + 1) as u8).collect();
        let clean = sb.encode(&data);
        // Single and double errors inside the word are corrected.
        let mut word = clean.clone();
        word[10] ^= 0x0F;
        word[40] ^= 0xF0;
        assert!(sb.decode_in_place(&mut word).is_corrected());
        assert_eq!(word, clean);
        // Triple errors are mostly detected; verify at least that the decode
        // never claims success while leaving wrong data silently *and*
        // reporting corrections into the padding (structural guarantee).
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let mut w = clean.clone();
            for _ in 0..3 {
                let p = rng.random_range(0..w.len());
                w[p] ^= rng.random_range(1..=255u8);
            }
            // Outcome may be Corrected (miscorrection) or Detected; both are
            // legal. What must never happen is a panic or a buffer of the
            // wrong length.
            let _ = sb.decode_in_place(&mut w);
            assert_eq!(w.len(), clean.len());
        }
    }

    #[test]
    fn unpadded_syndrome_check_agrees_with_the_padded_mother_code() {
        // `is_codeword` and the clean exit of the general decode path judge
        // the word as transmitted; padding it out to the mother code's
        // length first (what both used to do) must give the same answer.
        let mut rng = StdRng::seed_from_u64(9);
        for sb in [
            ShortenedRs::new(RsCode::new(255, 251), 64),
            ShortenedRs::new(RsCode::new(255, 251), 1),
            ShortenedRs::cxl_subblock(83),
        ] {
            let padded = |word: &[u8]| {
                let mut full = vec![0u8; sb.code().n() - word.len()];
                full.extend_from_slice(word);
                sb.code().is_codeword(&full)
            };
            let data: Vec<u8> = (0..sb.data_len()).map(|_| rng.random()).collect();
            let clean = sb.encode(&data);
            assert!(sb.is_codeword(&clean) && padded(&clean));
            let mut word = clean.clone();
            assert_eq!(sb.decode_in_place(&mut word), RsDecodeOutcome::NoError);
            assert_eq!(word, clean);
            for pos in 0..clean.len() {
                let mut word = clean.clone();
                word[pos] ^= rng.random_range(1..=255u8);
                assert!(!sb.is_codeword(&word) && !padded(&word));
                assert!(sb.decode_in_place(&mut word).is_corrected());
                assert_eq!(word, clean);
            }
        }
    }

    #[test]
    #[should_panic]
    fn encode_rejects_wrong_length() {
        let sb = ShortenedRs::cxl_subblock(83);
        let _ = sb.encode(&[0u8; 10]);
    }

    #[test]
    #[should_panic]
    fn data_len_larger_than_k_is_rejected() {
        let _ = ShortenedRs::new(RsCode::new(15, 11), 12);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn single_error_round_trip(
                data in proptest::collection::vec(any::<u8>(), 83),
                pos in 0usize..85,
                flip in 1u8..=255,
            ) {
                let sb = ShortenedRs::cxl_subblock(83);
                let clean = sb.encode(&data);
                let mut word = clean.clone();
                word[pos] ^= flip;
                prop_assert_eq!(sb.decode_in_place(&mut word), RsDecodeOutcome::Corrected { symbols: 1 });
                prop_assert_eq!(word, clean);
            }
        }
    }
}
