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

use crate::spec::CrcSpec;
use crate::table::TableCrc;

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

// Precomputed table-driven engines for every catalogue algorithm. The lookup
// tables are evaluated at compile time (`TableCrc::new` is `const`), so
// borrowing one of these — or copying it into a wrapper — never rebuilds the
// 256-entry table at runtime. The hot paths (flit codecs, switches, the
// Monte-Carlo simulators) construct engines per endpoint per trial, which
// made the old run-time table build a measurable cost.

/// Compile-time CRC-64/XZ (= [`FLIT_CRC64`]) engine.
pub static CRC64_XZ_ENGINE: TableCrc = TableCrc::new(CRC64_XZ);
/// Compile-time CRC-64/ECMA-182 engine.
pub static CRC64_ECMA_182_ENGINE: TableCrc = TableCrc::new(CRC64_ECMA_182);
/// Compile-time CRC-32/ISO-HDLC engine.
pub static CRC32_ISO_HDLC_ENGINE: TableCrc = TableCrc::new(CRC32_ISO_HDLC);
/// Compile-time CRC-16/CCITT-FALSE engine.
pub static CRC16_CCITT_FALSE_ENGINE: TableCrc = TableCrc::new(CRC16_CCITT_FALSE);
/// Compile-time CRC-16/ARC engine.
pub static CRC16_ARC_ENGINE: TableCrc = TableCrc::new(CRC16_ARC);
/// Compile-time CRC-8/SMBus engine.
pub static CRC8_SMBUS_ENGINE: TableCrc = TableCrc::new(CRC8_SMBUS);

/// The precomputed engine for `spec`, if it is a catalogue algorithm.
pub fn cached_engine(spec: &CrcSpec) -> Option<&'static TableCrc> {
    // FLIT_CRC64 is an alias of CRC64_XZ, so it hits the first arm.
    match *spec {
        s if s == CRC64_XZ => Some(&CRC64_XZ_ENGINE),
        s if s == CRC64_ECMA_182 => Some(&CRC64_ECMA_182_ENGINE),
        s if s == CRC32_ISO_HDLC => Some(&CRC32_ISO_HDLC_ENGINE),
        s if s == CRC16_CCITT_FALSE => Some(&CRC16_CCITT_FALSE_ENGINE),
        s if s == CRC16_ARC => Some(&CRC16_ARC_ENGINE),
        s if s == CRC8_SMBUS => Some(&CRC8_SMBUS_ENGINE),
        _ => None,
    }
}

/// A table-driven engine for `spec`: a copy of the precomputed table for
/// catalogue algorithms, a fresh table build otherwise.
pub fn engine_for(spec: CrcSpec) -> TableCrc {
    match cached_engine(&spec) {
        Some(engine) => engine.clone(),
        None => TableCrc::new(spec),
    }
}

/// Convenience wrapper: a CRC-64 flit CRC.
///
/// Checksums route through the compile-time slice-by-8 engine
/// ([`crate::slice::SliceBy8Crc64`], with its carry-less-multiply fold) when
/// one is cached for the spec (the flit CRC always is — construction is then
/// just a reference copy), and fall back to a boxed byte-at-a-time
/// [`TableCrc`] otherwise. Both produce identical checksums. The two keep
/// their registers in different bit orders, but a register never crosses
/// engines, so the distinction is invisible; [`crate::IsnCrc64`] drives the
/// register directly.
#[derive(Clone, Debug)]
pub struct Crc64 {
    engine: Crc64Engine,
}

#[derive(Clone, Debug)]
enum Crc64Engine {
    Fast(&'static crate::slice::SliceBy8Crc64),
    Table(Box<TableCrc>),
}

impl Crc64 {
    /// Creates the default flit CRC-64 engine.
    pub fn flit() -> Self {
        Crc64 {
            engine: Crc64Engine::Fast(&crate::slice::FLIT_CRC64_SLICE),
        }
    }

    /// Creates a CRC-64 engine for an arbitrary 64-bit spec.
    pub fn with_spec(spec: CrcSpec) -> Self {
        assert_eq!(spec.width, 64, "Crc64 requires a 64-bit spec");
        let engine = match crate::slice::cached_slice64(&spec) {
            Some(fast) => Crc64Engine::Fast(fast),
            None => Crc64Engine::Table(Box::new(engine_for(spec))),
        };
        Crc64 { engine }
    }

    #[inline]
    pub(crate) fn init_register(&self) -> u64 {
        match &self.engine {
            Crc64Engine::Fast(e) => e.init_register(),
            Crc64Engine::Table(e) => e.init_register(),
        }
    }

    #[inline]
    pub(crate) fn update(&self, reg: u64, data: &[u8]) -> u64 {
        match &self.engine {
            Crc64Engine::Fast(e) => e.update(reg, data),
            Crc64Engine::Table(e) => e.update(reg, data),
        }
    }

    #[inline]
    pub(crate) fn finalize(&self, reg: u64) -> u64 {
        match &self.engine {
            Crc64Engine::Fast(e) => e.finalize(reg),
            Crc64Engine::Table(e) => e.finalize(reg),
        }
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
    #[should_panic]
    fn crc64_wrapper_rejects_narrow_spec() {
        let _ = Crc64::with_spec(CRC32_ISO_HDLC);
    }

    #[test]
    fn distinct_specs_produce_distinct_checksums() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let a = TableCrc::new(CRC64_XZ).checksum(data);
        let b = TableCrc::new(CRC64_ECMA_182).checksum(data);
        assert_ne!(a, b);
    }
}
