//! Slice-by-8 CRC engine for 64-bit reflected algorithms.
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

/// The precomputed slice-by-8 engine for `spec`, if one exists.
pub fn cached_slice64(spec: &CrcSpec) -> Option<&'static SliceBy8Crc64> {
    if *spec == CRC64_XZ {
        Some(&FLIT_CRC64_SLICE)
    } else {
        None
    }
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
        SliceBy8Crc64 { spec, tables }
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
    /// updated register.
    #[inline]
    pub fn update(&self, mut reg: u64, data: &[u8]) -> u64 {
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

    #[test]
    fn cached_lookup_only_matches_the_flit_spec() {
        assert!(cached_slice64(&catalog::CRC64_XZ).is_some());
        assert!(cached_slice64(&catalog::FLIT_CRC64).is_some());
        assert!(cached_slice64(&catalog::CRC64_ECMA_182).is_none());
        assert!(cached_slice64(&catalog::CRC32_ISO_HDLC).is_none());
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
