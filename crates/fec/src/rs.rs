//! Systematic Reed–Solomon encoding over GF(2^8).
//!
//! An `RS(n, k)` code over 8-bit symbols has codewords of `n ≤ 255` symbols,
//! of which `k` carry data and `n − k = 2t` carry parity; it corrects up to
//! `t` symbol errors. Codewords are laid out data-first:
//! `[d_0 … d_{k-1} | p_0 … p_{2t-1}]`.
//!
//! The generator polynomial is `g(x) = Π_{i=0}^{2t-1} (x − α^{fcr+i})` where
//! `fcr` is the first consecutive root exponent (0 in this crate).

use rxl_gf256::{ConstMul, Gf256, GfPoly};

/// First consecutive root exponent used throughout this crate.
pub const FIRST_CONSECUTIVE_ROOT: u32 = 0;

/// An `RS(n, k)` Reed–Solomon code description plus its generator polynomial.
#[derive(Clone, Debug)]
pub struct RsCode {
    n: usize,
    k: usize,
    generator: GfPoly,
    /// Nibble-split multipliers for the generator coefficients
    /// `g_0 … g_{2t-1}` (the parity LFSR taps), in ascending degree order.
    /// The monic leading coefficient needs no table.
    gen_mul: Vec<ConstMul>,
    /// Nibble-split multipliers for the syndrome evaluation points
    /// `α^{fcr+j}`, one per syndrome (the Horner step constants).
    syndrome_mul: Vec<ConstMul>,
}

impl RsCode {
    /// Creates an `RS(n, k)` code. Panics unless `k < n ≤ 255` and `n − k` is
    /// even and at least 2.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(n <= 255, "RS over GF(2^8) requires n ≤ 255");
        assert!(k < n, "k must be smaller than n");
        let parity = n - k;
        assert!(
            parity >= 2 && parity.is_multiple_of(2),
            "n − k must be an even number ≥ 2"
        );
        let generator = Self::build_generator(parity);
        let gen_mul = generator.coeffs()[..parity]
            .iter()
            .map(|c| ConstMul::new(c.value()))
            .collect();
        let syndrome_mul = (0..parity)
            .map(|j| ConstMul::new(Gf256::alpha_pow(FIRST_CONSECUTIVE_ROOT + j as u32).value()))
            .collect();
        RsCode {
            n,
            k,
            generator,
            gen_mul,
            syndrome_mul,
        }
    }

    /// The CXL flit sub-block code: a shortened RS(255, 253) mother code with
    /// two parity symbols (single-symbol correction).
    pub fn rs_255_253() -> Self {
        Self::new(255, 253)
    }

    fn build_generator(parity: usize) -> GfPoly {
        // g(x) = Π (x − α^{fcr+i}); subtraction equals addition in GF(2^8).
        let mut g = GfPoly::one();
        for i in 0..parity {
            let root = Gf256::alpha_pow(FIRST_CONSECUTIVE_ROOT + i as u32);
            let factor = GfPoly::from_coeffs(vec![root, Gf256::ONE]);
            g = g.mul(&factor);
        }
        g
    }

    /// Codeword length in symbols.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Data length in symbols.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of parity symbols (`2t`).
    pub fn parity_len(&self) -> usize {
        self.n - self.k
    }

    /// Maximum number of correctable symbol errors `t`.
    pub fn t(&self) -> usize {
        (self.n - self.k) / 2
    }

    /// The generator polynomial (ascending degree order).
    pub fn generator(&self) -> &GfPoly {
        &self.generator
    }

    /// Computes the parity symbols for a full-length (`k`-symbol) data block.
    ///
    /// The parity is the remainder of `data(x) · x^{2t}` divided by the
    /// generator polynomial, returned most-significant-first so the codeword
    /// is simply `data ‖ parity`.
    pub fn parity(&self, data: &[u8]) -> Vec<u8> {
        assert_eq!(data.len(), self.k, "data must be exactly k symbols");
        self.parity_unchecked(data)
    }

    /// Computes parity for a data block of *at most* `k` symbols, treating the
    /// missing leading symbols as zeros (shortened-code encoding). The virtual
    /// zeros contribute nothing to the LFSR state, so they can be skipped.
    pub fn parity_shortened(&self, data: &[u8]) -> Vec<u8> {
        assert!(data.len() <= self.k, "data longer than k symbols");
        self.parity_unchecked(data)
    }

    fn parity_unchecked(&self, data: &[u8]) -> Vec<u8> {
        let parity_len = self.parity_len();
        // LFSR division: process data symbols most-significant-first.
        // `lfsr[0]` holds the coefficient that is about to shift out. The
        // generator is monic of degree parity_len, and each tap multiply
        // goes through its precomputed nibble-split half-tables.
        let mut lfsr = vec![0u8; parity_len];
        for &d in data {
            let feedback = d ^ lfsr[0];
            for i in 0..parity_len {
                let next = if i + 1 < parity_len { lfsr[i + 1] } else { 0 };
                lfsr[i] = next ^ self.gen_mul[parity_len - 1 - i].mul(feedback);
            }
        }
        lfsr
    }

    /// Encodes a full-length data block into an `n`-symbol codeword.
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.n);
        out.extend_from_slice(data);
        out.extend_from_slice(&self.parity(data));
        out
    }

    /// Returns `true` if `codeword` (length `n`) is a valid codeword, i.e. all
    /// syndromes are zero.
    pub fn is_codeword(&self, codeword: &[u8]) -> bool {
        assert_eq!(codeword.len(), self.n);
        self.has_zero_syndromes(codeword)
    }

    /// Returns `true` if every syndrome of `received` is zero, without
    /// allocating. `received` may be shorter than `n`: it is read as the
    /// low-degree tail of a mother-code word whose omitted leading symbols
    /// are zero, which is how a shortened word is checked unpadded.
    pub(crate) fn has_zero_syndromes(&self, received: &[u8]) -> bool {
        self.syndrome_mul
            .iter()
            .all(|xm| Self::horner(xm, received) == 0)
    }

    /// Computes the `2t` syndromes `S_j = r(α^{fcr+j})` of a received word.
    /// The received word is interpreted with its **first** symbol as the
    /// highest-degree coefficient (matching the data-first codeword layout).
    pub fn syndromes(&self, received: &[u8]) -> Vec<Gf256> {
        self.syndrome_mul
            .iter()
            .map(|xm| Gf256::new(Self::horner(xm, received)))
            .collect()
    }

    /// Horner evaluation of `received` (first symbol = highest degree) at the
    /// point `xm` multiplies by; the per-symbol multiply runs branch-free
    /// through the point's nibble-split half-tables.
    fn horner(xm: &ConstMul, received: &[u8]) -> u8 {
        received.iter().fold(0u8, |acc, &r| xm.mul(acc) ^ r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_has_expected_degree_and_roots() {
        let code = RsCode::new(255, 239); // t = 8
        let g = code.generator();
        assert_eq!(g.degree(), 16);
        for i in 0..16 {
            assert!(
                g.eval(Gf256::alpha_pow(i)).is_zero(),
                "α^{i} must be a root"
            );
        }
        // A non-root should not evaluate to zero.
        assert!(!g.eval(Gf256::alpha_pow(20)).is_zero());
    }

    #[test]
    fn encoded_words_have_zero_syndromes() {
        for (n, k) in [(255usize, 253usize), (255, 239), (15, 11), (10, 6)] {
            let code = RsCode::new(n, k);
            let data: Vec<u8> = (0..k).map(|i| (i * 13 + 7) as u8).collect();
            let cw = code.encode(&data);
            assert_eq!(cw.len(), n);
            assert!(
                code.is_codeword(&cw),
                "RS({n},{k}) produced invalid codeword"
            );
        }
    }

    #[test]
    fn corrupting_a_codeword_breaks_the_syndromes() {
        let code = RsCode::rs_255_253();
        let data: Vec<u8> = (0..253).map(|i| i as u8).collect();
        let mut cw = code.encode(&data);
        assert!(code.is_codeword(&cw));
        cw[100] ^= 0x40;
        assert!(!code.is_codeword(&cw));
    }

    #[test]
    fn shortened_parity_matches_zero_padded_full_encoding() {
        let code = RsCode::rs_255_253();
        let short_data: Vec<u8> = (0..83u32).map(|i| (i * 3 + 1) as u8).collect();
        let parity_short = code.parity_shortened(&short_data);

        let mut padded = vec![0u8; 253 - 83];
        padded.extend_from_slice(&short_data);
        let parity_full = code.parity(&padded);
        assert_eq!(parity_short, parity_full);
    }

    #[test]
    fn parameters_accessors() {
        let code = RsCode::new(255, 239);
        assert_eq!(code.n(), 255);
        assert_eq!(code.k(), 239);
        assert_eq!(code.parity_len(), 16);
        assert_eq!(code.t(), 8);
        assert_eq!(RsCode::rs_255_253().t(), 1);
    }

    #[test]
    #[should_panic]
    fn odd_parity_count_is_rejected() {
        let _ = RsCode::new(10, 7);
    }

    #[test]
    #[should_panic]
    fn oversized_codeword_is_rejected() {
        let _ = RsCode::new(300, 200);
    }

    #[test]
    #[should_panic]
    fn parity_requires_exact_length() {
        let code = RsCode::new(15, 11);
        let _ = code.parity(&[1, 2, 3]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn every_encoded_word_is_a_codeword(data in proptest::collection::vec(any::<u8>(), 11)) {
                let code = RsCode::new(15, 11);
                prop_assert!(code.is_codeword(&code.encode(&data)));
            }

            #[test]
            fn linearity_of_the_code(a in proptest::collection::vec(any::<u8>(), 11),
                                     b in proptest::collection::vec(any::<u8>(), 11)) {
                // The XOR (sum in GF(2^8)) of two codewords is a codeword.
                let code = RsCode::new(15, 11);
                let ca = code.encode(&a);
                let cb = code.encode(&b);
                let sum: Vec<u8> = ca.iter().zip(&cb).map(|(x, y)| x ^ y).collect();
                prop_assert!(code.is_codeword(&sum));
            }
        }
    }
}
