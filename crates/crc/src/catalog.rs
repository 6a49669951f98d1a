//! Catalogue of standard CRC algorithms used across the repository.
//!
//! The CXL 3.x specification protects each 256-byte flit with an 8-byte CRC
//! computed over the 2-byte header and 240-byte payload (Section 4.1 of the
//! paper). The exact polynomial is not reproduced in the paper, so this
//! reproduction uses the widely deployed CRC-64/XZ (ECMA-182 polynomial with
//! reflected I/O) as [`FLIT_CRC64`]. The reliability analysis only depends on
//! the CRC being a "good" 64-bit code (undetected error fraction ≈ 2⁻⁶⁴ and
//! full coverage of bursts up to 64 bits), which holds for this choice and is
//! verified empirically by `rxl-crc::analysis` and the `table_crc_detection`
//! experiment harness.

use crate::slice::{SliceBy8Crc64, FLIT_CRC64_SLICE};
use crate::spec::CrcSpec;

/// CRC-64/XZ (a.k.a. CRC-64/GO-ECMA): ECMA-182 polynomial, reflected,
/// init/xorout all-ones. Check value for "123456789": `0x995DC9BBDF1939FA`.
pub const CRC64_XZ: CrcSpec = CrcSpec::new(
    "CRC-64/XZ",
    64,
    0x42F0_E1EB_A9EA_3693,
    u64::MAX,
    true,
    true,
    u64::MAX,
);

/// CRC-64/ECMA-182 (non-reflected, zero init). Check value:
/// `0x6C40DF5F0B497347`.
pub const CRC64_ECMA_182: CrcSpec = CrcSpec::new(
    "CRC-64/ECMA-182",
    64,
    0x42F0_E1EB_A9EA_3693,
    0,
    false,
    false,
    0,
);

/// The 64-bit CRC used for CXL/RXL 256-byte flits in this reproduction.
pub const FLIT_CRC64: CrcSpec = CRC64_XZ;

/// CRC-32/ISO-HDLC (the ubiquitous zlib/Ethernet CRC-32).
/// Check value: `0xCBF43926`.
pub const CRC32_ISO_HDLC: CrcSpec = CrcSpec::new(
    "CRC-32/ISO-HDLC",
    32,
    0x04C1_1DB7,
    0xFFFF_FFFF,
    true,
    true,
    0xFFFF_FFFF,
);

/// CRC-16/CCITT-FALSE. Check value: `0x29B1`.
pub const CRC16_CCITT_FALSE: CrcSpec =
    CrcSpec::new("CRC-16/CCITT-FALSE", 16, 0x1021, 0xFFFF, false, false, 0);

/// CRC-16/ARC (IBM). Check value: `0xBB3D`.
pub const CRC16_ARC: CrcSpec = CrcSpec::new("CRC-16/ARC", 16, 0x8005, 0, true, true, 0);

/// CRC-8/SMBUS. Check value: `0xF4`.
pub const CRC8_SMBUS: CrcSpec = CrcSpec::new("CRC-8/SMBus", 8, 0x07, 0, false, false, 0);

/// Convenience wrapper: the CRC-64 flit CRC.
///
/// Checksums route through the compile-time slice-by-8 engine
/// ([`crate::slice::FLIT_CRC64_SLICE`], with its carry-less-multiply fold),
/// so construction is a reference copy; [`crate::IsnCrc64`] drives its
/// register directly.
#[derive(Clone, Debug)]
pub struct Crc64 {
    engine: &'static SliceBy8Crc64,
}

impl Crc64 {
    /// Creates the flit CRC-64 engine.
    pub fn flit() -> Self {
        Crc64 {
            engine: &FLIT_CRC64_SLICE,
        }
    }

    #[inline]
    pub(crate) fn init_register(&self) -> u64 {
        self.engine.init_register()
    }

    #[inline]
    pub(crate) fn update(&self, reg: u64, data: &[u8]) -> u64 {
        self.engine.update(reg, data)
    }

    #[inline]
    pub(crate) fn finalize(&self, reg: u64) -> u64 {
        self.engine.finalize(reg)
    }

    /// Computes the checksum of `data`.
    #[inline]
    pub fn checksum(&self, data: &[u8]) -> u64 {
        self.finalize(self.update(self.init_register(), data))
    }
}

impl Default for Crc64 {
    fn default() -> Self {
        Self::flit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableCrc;

    #[test]
    fn crc64_wrapper_matches_raw_engine() {
        let data: Vec<u8> = (0..240u32).map(|i| (i * 7) as u8).collect();
        assert_eq!(
            Crc64::flit().checksum(&data),
            TableCrc::new(FLIT_CRC64).checksum(&data)
        );
    }

    #[test]
    fn flit_crc_is_64_bits_wide() {
        assert_eq!(FLIT_CRC64.width, 64);
        assert_eq!(FLIT_CRC64.bytes(), 8);
    }

    #[test]
    fn distinct_specs_produce_distinct_checksums() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let a = TableCrc::new(CRC64_XZ).checksum(data);
        let b = TableCrc::new(CRC64_ECMA_182).checksum(data);
        assert_ne!(a, b);
    }
}
