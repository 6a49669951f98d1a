//! Table-driven (byte-at-a-time) CRC engine.
//!
//! Builds a 256-entry lookup table from a [`CrcSpec`] and processes input one
//! byte per step. This is the engine used on the hot paths (flit encode /
//! decode in `rxl-flit` and the Monte-Carlo simulator); its output is
//! verified against the bitwise reference engine by unit and property tests.

use crate::engine::BitwiseCrc;
use crate::spec::{reflect_bits, CrcSpec};

/// A byte-at-a-time table-driven CRC engine.
#[derive(Clone)]
pub struct TableCrc {
    spec: CrcSpec,
    table: [u64; 256],
}

impl std::fmt::Debug for TableCrc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableCrc")
            .field("spec", &self.spec)
            .finish()
    }
}

impl TableCrc {
    /// Builds the lookup table for the given algorithm.
    ///
    /// This is a `const fn`, so an engine for a fixed algorithm can be
    /// evaluated at compile time into a `static`.
    pub const fn new(spec: CrcSpec) -> Self {
        let mut table = [0u64; 256];
        let top = spec.top_bit();
        let mask = spec.mask();
        let mut i = 0;
        while i < 256 {
            // Table is indexed by the (possibly reflected) input byte already
            // XORed into the top of the register.
            let mut reg = (i as u64) << (spec.width - 8);
            let mut bit = 0;
            while bit < 8 {
                reg = if reg & top != 0 {
                    ((reg << 1) ^ spec.poly) & mask
                } else {
                    (reg << 1) & mask
                };
                bit += 1;
            }
            table[i] = reg;
            i += 1;
        }
        TableCrc { spec, table }
    }

    /// The algorithm parameters.
    pub const fn spec(&self) -> &CrcSpec {
        &self.spec
    }

    /// Returns the initial (pre-finalisation) register value.
    #[inline]
    pub fn init_register(&self) -> u64 {
        self.spec.init & self.spec.mask()
    }

    /// Feeds `data` through the register and returns the updated register.
    #[inline]
    pub fn update(&self, mut reg: u64, data: &[u8]) -> u64 {
        let w = self.spec.width;
        if self.spec.reflect_in {
            for &byte in data {
                let b = byte.reverse_bits();
                let idx = (((reg >> (w - 8)) ^ b as u64) & 0xFF) as usize;
                reg = ((reg << 8) & self.spec.mask()) ^ self.table[idx];
            }
        } else {
            for &byte in data {
                let idx = (((reg >> (w - 8)) ^ byte as u64) & 0xFF) as usize;
                reg = ((reg << 8) & self.spec.mask()) ^ self.table[idx];
            }
        }
        reg
    }

    /// Applies output reflection and the final XOR to a register value.
    #[inline]
    pub fn finalize(&self, mut reg: u64) -> u64 {
        if self.spec.reflect_out {
            reg = reflect_bits(reg, self.spec.width);
        }
        (reg ^ self.spec.xor_out) & self.spec.mask()
    }

    /// Computes the checksum of `data` in one call.
    #[inline]
    pub fn checksum(&self, data: &[u8]) -> u64 {
        let reg = self.update(self.init_register(), data);
        self.finalize(reg)
    }

    /// Returns the bitwise reference engine for the same spec (used by tests
    /// and by code paths that favour clarity over speed).
    pub fn reference(&self) -> BitwiseCrc {
        BitwiseCrc::new(self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    const CHECK_INPUT: &[u8] = b"123456789";

    #[test]
    fn check_values_match_catalogue() {
        assert_eq!(
            TableCrc::new(catalog::CRC32_ISO_HDLC).checksum(CHECK_INPUT),
            0xCBF43926
        );
        assert_eq!(
            TableCrc::new(catalog::CRC16_CCITT_FALSE).checksum(CHECK_INPUT),
            0x29B1
        );
        assert_eq!(
            TableCrc::new(catalog::CRC16_ARC).checksum(CHECK_INPUT),
            0xBB3D
        );
        assert_eq!(
            TableCrc::new(catalog::CRC64_XZ).checksum(CHECK_INPUT),
            0x995DC9BBDF1939FA
        );
        assert_eq!(
            TableCrc::new(catalog::CRC64_ECMA_182).checksum(CHECK_INPUT),
            0x6C40DF5F0B497347
        );
        assert_eq!(
            TableCrc::new(catalog::CRC8_SMBUS).checksum(CHECK_INPUT),
            0xF4
        );
    }

    #[test]
    fn matches_bitwise_engine_on_structured_data() {
        for spec in [
            catalog::CRC64_XZ,
            catalog::CRC64_ECMA_182,
            catalog::CRC32_ISO_HDLC,
            catalog::CRC16_CCITT_FALSE,
            catalog::CRC16_ARC,
            catalog::CRC8_SMBUS,
        ] {
            let t = TableCrc::new(spec);
            let b = BitwiseCrc::new(spec);
            for len in [0usize, 1, 2, 7, 63, 64, 240, 256] {
                let data: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
                assert_eq!(
                    t.checksum(&data),
                    b.checksum(&data),
                    "spec {} len {len}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn incremental_update_matches_one_shot() {
        let t = TableCrc::new(catalog::FLIT_CRC64);
        let data: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        let mut reg = t.init_register();
        for chunk in data.chunks(13) {
            reg = t.update(reg, chunk);
        }
        assert_eq!(t.finalize(reg), t.checksum(&data));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn table_matches_bitwise_for_random_data(data in proptest::collection::vec(any::<u8>(), 0..512)) {
                for spec in [catalog::CRC64_XZ, catalog::CRC32_ISO_HDLC, catalog::CRC16_CCITT_FALSE] {
                    let t = TableCrc::new(spec);
                    let b = BitwiseCrc::new(spec);
                    prop_assert_eq!(t.checksum(&data), b.checksum(&data));
                }
            }

            #[test]
            fn split_point_does_not_matter(data in proptest::collection::vec(any::<u8>(), 1..256), split in 0usize..256) {
                let split = split % data.len();
                let t = TableCrc::new(catalog::FLIT_CRC64);
                let mut reg = t.init_register();
                reg = t.update(reg, &data[..split]);
                reg = t.update(reg, &data[split..]);
                prop_assert_eq!(t.finalize(reg), t.checksum(&data));
            }
        }
    }
}
