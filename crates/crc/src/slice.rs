//! Slice-by-8 CRC engine for 64-bit reflected algorithms, with a
//! carry-less-multiply fold for long inputs.
//!
//! The byte-at-a-time table engine ([`crate::table`]) performs one table
//! lookup (plus a shift and XOR) per input byte — 250 dependent lookups per
//! 256-byte flit. Slice-by-8 processes eight bytes per step through eight
//! independent 256-entry tables whose lookups have no data dependency on one
//! another, cutting the dependency chain per 8 bytes from 8 lookups to 1 XOR
//! tree. This is the classic Intel slicing construction, specialised to the
//! fully reflected 64-bit case used by the flit CRC ([`crate::catalog::CRC64_XZ`]).
//!
//! The register is kept in *reflected* form internally (the natural form for
//! reflected algorithms, where the next input byte XORs into the low byte).
//! Checksums are bit-identical to the other engines — the construction is an
//! implementation strategy, not a different code — which the unit and
//! property tests below pin against [`crate::TableCrc`] and [`BitwiseCrc`].
//!
//! All tables are built by a `const fn`, so the [`FLIT_CRC64_SLICE`] engine
//! is materialised at compile time and costs nothing to reference at runtime.
//!
//! # The carry-less-multiply fold
//!
//! On a CPU with PCLMULQDQ, [`SliceBy8Crc64::update`] folds inputs of 32
//! bytes or more sixteen bytes per step (after Gopal et al., *Fast CRC
//! Computation for Generic Polynomials Using PCLMULQDQ*, Intel 2009). The
//! register after a message `M` is `M·x⁶⁴ mod P`, so any shorter message
//! congruent to `M` modulo `P` leaves the same register. Write the leading
//! sixteen bytes as `A = H·x⁶⁴ + L` followed by `8m` more bits; then
//!
//! ```text
//! A·x^(8m) = (H·x¹⁹² + L·x¹²⁸)·x^(8m−128)
//!          ≡ (H·(x¹⁹² mod P) + L·(x¹²⁸ mod P))·x^(8m−128)   (mod P)
//! ```
//!
//! and the bracket, a polynomial of degree below 128, replaces `A` and is
//! XORed into the next sixteen bytes. In reflected form the little-endian
//! low lane of the 16-byte state is `H` and the high lane is `L`, and a
//! carry-less multiply of two reflected 64-bit operands returns the reflected
//! 128-bit product times `x`. The constants are therefore
//! `K₁₉₁ = reflect₆₄(x¹⁹¹ mod P)` and `K₁₂₇ = reflect₆₄(x¹²⁷ mod P)`:
//!
//! ```text
//! s ← clmul(s.lo, K₁₉₁) ⊕ clmul(s.hi, K₁₂₇) ⊕ next16
//! ```
//!
//! Both are computed in [`SliceBy8Crc64::new`] from the spec's polynomial,
//! so the fold serves any fully reflected 64-bit spec. The register enters
//! by XOR into the first eight bytes (exactly as a slice-by-8 step takes
//! it); the sixteen state bytes left at the end are reduced by the tables
//! from register 0, and the sub-16-byte tail follows them. Without
//! PCLMULQDQ, and for shorter inputs, `update` is the table kernel alone.

mod clmul;

use crate::catalog::CRC64_XZ;
use crate::engine::BitwiseCrc;
use crate::spec::CrcSpec;

/// A slice-by-8 engine for a fully reflected 64-bit CRC.
#[derive(Clone)]
pub struct SliceBy8Crc64 {
    spec: CrcSpec,
    /// `tables[k][b]` is the CRC contribution of byte value `b` followed by
    /// `k` zero bytes; a whole aligned 8-byte chunk is folded with one lookup
    /// in each table.
    tables: [[u64; 256]; 8],
    /// `[K₁₉₁, K₁₂₇]`, the carry-less-multiply fold constants (module docs).
    fold_keys: [u64; 2],
}

impl std::fmt::Debug for SliceBy8Crc64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SliceBy8Crc64")
            .field("spec", &self.spec)
            .finish()
    }
}

/// The compile-time slice-by-8 engine for the 256-byte flit CRC.
pub static FLIT_CRC64_SLICE: SliceBy8Crc64 = SliceBy8Crc64::new(CRC64_XZ);

/// The CRC-64 kernel [`SliceBy8Crc64::update`] runs on this CPU:
/// `"pclmulqdq"` (the fold, for inputs of 32 bytes or more) or
/// `"slice-by-8"` (the tables alone).
pub fn kernel() -> &'static str {
    if clmul::available() {
        "pclmulqdq"
    } else {
        "slice-by-8"
    }
}

/// `xⁿ mod (x⁶⁴ + poly)`, in normal (non-reflected) form.
const fn x_pow_mod(n: u32, poly: u64) -> u64 {
    let mut r = 1u64;
    let mut i = 0;
    while i < n {
        r = (r << 1) ^ if r >> 63 != 0 { poly } else { 0 };
        i += 1;
    }
    r
}

impl SliceBy8Crc64 {
    /// Builds the eight lookup tables for a fully reflected 64-bit spec.
    ///
    /// `const`-evaluable; panics (at compile time when used in a `const`
    /// context) unless `spec` is 64 bits wide with reflected input *and*
    /// output — the precondition for the reflected-register formulation.
    pub const fn new(spec: CrcSpec) -> Self {
        assert!(spec.width == 64, "slice-by-8 engine requires a 64-bit CRC");
        assert!(
            spec.reflect_in && spec.reflect_out,
            "slice-by-8 engine requires a fully reflected CRC"
        );
        let poly_reflected = spec.poly.reverse_bits();
        let mut tables = [[0u64; 256]; 8];
        let mut b = 0;
        while b < 256 {
            let mut crc = b as u64;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ poly_reflected
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            tables[0][b] = crc;
            b += 1;
        }
        let mut k = 1;
        while k < 8 {
            let mut b = 0;
            while b < 256 {
                let prev = tables[k - 1][b];
                tables[k][b] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
                b += 1;
            }
            k += 1;
        }
        let fold_keys = [
            x_pow_mod(191, spec.poly).reverse_bits(),
            x_pow_mod(127, spec.poly).reverse_bits(),
        ];
        SliceBy8Crc64 {
            spec,
            tables,
            fold_keys,
        }
    }

    /// The algorithm parameters.
    pub const fn spec(&self) -> &CrcSpec {
        &self.spec
    }

    /// Returns the initial register value (reflected form).
    #[inline]
    pub const fn init_register(&self) -> u64 {
        // For a fully reflected algorithm the reflected register is the
        // bit-reversal of the normal-form register.
        self.spec.init.reverse_bits()
    }

    /// Feeds `data` through the register (reflected form) and returns the
    /// updated register. Inputs of 32 bytes or more take the
    /// carry-less-multiply fold when the CPU has it (module docs); the result
    /// is the table kernel's either way, for any split of the input.
    #[inline]
    pub fn update(&self, reg: u64, data: &[u8]) -> u64 {
        let (blocks, tail) = data.split_at(data.len() - data.len() % 16);
        match clmul::fold(reg, blocks, self.fold_keys) {
            Some(state) => self.update_tables(self.update_tables(0, &state), tail),
            None => self.update_tables(reg, data),
        }
    }

    /// The slice-by-8 table kernel: the fallback of [`Self::update`] and the
    /// oracle its tests compare against.
    #[inline]
    pub(crate) fn update_tables(&self, mut reg: u64, data: &[u8]) -> u64 {
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            let v = reg ^ u64::from_le_bytes(chunk.try_into().expect("chunk of 8"));
            reg = self.tables[7][(v & 0xFF) as usize]
                ^ self.tables[6][((v >> 8) & 0xFF) as usize]
                ^ self.tables[5][((v >> 16) & 0xFF) as usize]
                ^ self.tables[4][((v >> 24) & 0xFF) as usize]
                ^ self.tables[3][((v >> 32) & 0xFF) as usize]
                ^ self.tables[2][((v >> 40) & 0xFF) as usize]
                ^ self.tables[1][((v >> 48) & 0xFF) as usize]
                ^ self.tables[0][(v >> 56) as usize];
        }
        for &byte in chunks.remainder() {
            reg = (reg >> 8) ^ self.tables[0][((reg ^ byte as u64) & 0xFF) as usize];
        }
        reg
    }

    /// Applies the final XOR to a (reflected-form) register value.
    ///
    /// Output reflection is already implicit in the register form: for a
    /// fully reflected algorithm the reflected register *is* the
    /// output-reflected value.
    #[inline]
    pub const fn finalize(&self, reg: u64) -> u64 {
        reg ^ self.spec.xor_out
    }

    /// Computes the checksum of `data` in one call.
    #[inline]
    pub fn checksum(&self, data: &[u8]) -> u64 {
        self.finalize(self.update(self.init_register(), data))
    }

    /// Returns the bitwise reference engine for the same spec.
    pub const fn reference(&self) -> BitwiseCrc {
        BitwiseCrc::new(self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    const CHECK_INPUT: &[u8] = b"123456789";

    #[test]
    fn check_value_matches_catalogue() {
        assert_eq!(FLIT_CRC64_SLICE.checksum(CHECK_INPUT), 0x995DC9BBDF1939FA);
    }

    #[test]
    fn matches_table_engine_on_structured_data() {
        let table = crate::table::TableCrc::new(catalog::CRC64_XZ);
        for len in [0usize, 1, 2, 7, 8, 9, 15, 16, 63, 64, 240, 242, 250, 256] {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            assert_eq!(
                FLIT_CRC64_SLICE.checksum(&data),
                table.checksum(&data),
                "len {len}"
            );
        }
    }

    #[test]
    fn incremental_update_matches_one_shot_at_any_split() {
        let data: Vec<u8> = (0..1024).map(|i| (i % 251) as u8).collect();
        let one_shot = FLIT_CRC64_SLICE.checksum(&data);
        for split in [0usize, 1, 2, 7, 8, 9, 241, 242, 512, 1023, 1024] {
            let mut reg = FLIT_CRC64_SLICE.init_register();
            reg = FLIT_CRC64_SLICE.update(reg, &data[..split]);
            reg = FLIT_CRC64_SLICE.update(reg, &data[split..]);
            assert_eq!(FLIT_CRC64_SLICE.finalize(reg), one_shot, "split {split}");
        }
    }

    /// CRC-64/GO-ISO: a second fully reflected 64-bit spec, with a
    /// polynomial unrelated to the flit CRC's, so fold constants hard-coded
    /// for CRC-64/XZ would show here.
    const CRC64_GO_ISO: CrcSpec =
        CrcSpec::new("CRC-64/GO-ISO", 64, 0x1B, u64::MAX, true, true, u64::MAX);

    /// Deterministic pseudo-random bytes (SplitMix64).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn update_matches_the_table_kernel_and_bitwise_at_every_length() {
        for spec in [catalog::CRC64_XZ, CRC64_GO_ISO] {
            let engine = SliceBy8Crc64::new(spec);
            let bitwise = BitwiseCrc::new(spec);
            let data = noise(600, spec.poly);
            for len in 0..=600 {
                let data = &data[..len];
                let init = engine.init_register();
                let reg = engine.update(init, data);
                assert_eq!(
                    reg,
                    engine.update_tables(init, data),
                    "{} len {len}",
                    spec.name
                );
                assert_eq!(
                    engine.finalize(reg),
                    bitwise.checksum(data),
                    "{} len {len}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn update_matches_the_table_kernel_at_every_split_of_a_flit() {
        for spec in [catalog::CRC64_XZ, CRC64_GO_ISO] {
            let engine = SliceBy8Crc64::new(spec);
            let flit = noise(242, 242);
            let whole = BitwiseCrc::new(spec).checksum(&flit);
            for split in 0..=flit.len() {
                let (head, tail) = flit.split_at(split);
                let reg = engine.update(engine.init_register(), head);
                assert_eq!(reg, engine.update_tables(engine.init_register(), head));
                let reg = engine.update(reg, tail);
                assert_eq!(engine.finalize(reg), whole, "{} split {split}", spec.name);
            }
        }
    }

    #[test]
    fn update_matches_the_table_kernel_from_random_registers() {
        for spec in [catalog::CRC64_XZ, CRC64_GO_ISO] {
            let engine = SliceBy8Crc64::new(spec);
            for seed in 0..200u64 {
                let reg = u64::from_le_bytes(noise(8, !seed).try_into().unwrap());
                let data = noise(seed as usize * 3, seed);
                assert_eq!(
                    engine.update(reg, &data),
                    engine.update_tables(reg, &data),
                    "{} reg {reg:#x} len {}",
                    spec.name,
                    data.len()
                );
            }
        }
    }

    #[test]
    fn second_spec_check_value() {
        let engine = SliceBy8Crc64::new(CRC64_GO_ISO);
        assert_eq!(engine.checksum(CHECK_INPUT), 0xB909_56C7_75A4_1001);
        assert_eq!(
            engine.checksum(CHECK_INPUT),
            engine.reference().checksum(CHECK_INPUT)
        );
    }

    #[test]
    fn kernel_names_the_path_update_takes() {
        assert_eq!(clmul::available(), kernel() == "pclmulqdq");
        assert!(["pclmulqdq", "slice-by-8"].contains(&kernel()));
    }

    #[test]
    #[should_panic]
    fn non_reflected_spec_is_rejected() {
        let _ = SliceBy8Crc64::new(catalog::CRC64_ECMA_182);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn slice_matches_bitwise_for_random_data(
                data in proptest::collection::vec(any::<u8>(), 0..600),
            ) {
                let bitwise = BitwiseCrc::new(catalog::CRC64_XZ);
                prop_assert_eq!(
                    FLIT_CRC64_SLICE.checksum(&data),
                    bitwise.checksum(&data)
                );
            }

            #[test]
            fn split_point_does_not_matter(
                data in proptest::collection::vec(any::<u8>(), 1..512),
                split in 0usize..512,
            ) {
                let split = split % data.len();
                let mut reg = FLIT_CRC64_SLICE.init_register();
                reg = FLIT_CRC64_SLICE.update(reg, &data[..split]);
                reg = FLIT_CRC64_SLICE.update(reg, &data[split..]);
                prop_assert_eq!(
                    FLIT_CRC64_SLICE.finalize(reg),
                    FLIT_CRC64_SLICE.checksum(&data)
                );
            }
        }
    }
}
