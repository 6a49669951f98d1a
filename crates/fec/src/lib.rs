//! # rxl-fec — Shortened Reed–Solomon FEC for CXL/RXL flits
//!
//! This crate implements the link-layer forward error correction that both
//! the baseline CXL 3.x protocol and the paper's RXL extension rely on
//! (paper Sections 2.5 and 6.4):
//!
//! * [`rs`] — a systematic Reed–Solomon encoder over GF(2^8) for arbitrary
//!   `RS(n, k)` parameters with `n ≤ 255`,
//! * [`decoder`] — a full syndrome / Berlekamp–Massey / Chien / Forney
//!   decoder that corrects up to `t = (n−k)/2` symbol errors and flags most
//!   uncorrectable patterns,
//! * [`ssc`] — the fast single-symbol-correct (t = 1) path used per flit
//!   sub-block,
//! * [`shortened`] — shortened-code handling: virtual zero padding plus the
//!   extra *detection* capability that arises when a would-be correction
//!   lands on a padded (constant-zero) position,
//! * [`interleaved`] — the CXL 256-byte flit layout: the 250-byte
//!   header+payload+CRC block is split 83/83/84 across three interleaved
//!   sub-blocks, each protected by two Reed–Solomon parity bytes, so that
//!   bursts of up to three symbols are always correctable,
//! * [`stats`] — Monte-Carlo harnesses that measure correction/detection/
//!   miscorrection fractions versus burst length, reproducing the 2/3, 8/9
//!   and 26/27 detection figures quoted in Section 2.5.
//!
//! # Example
//!
//! ```
//! use rxl_fec::InterleavedFec;
//!
//! let fec = InterleavedFec::cxl_flit();
//! let mut block = vec![0u8; 250];
//! block[10] = 0xAB;
//! let mut encoded = fec.encode(&block);
//! assert_eq!(encoded.len(), 256);
//!
//! // A three-byte burst (one symbol per interleaved sub-block) is corrected.
//! encoded[40] ^= 0xFF;
//! encoded[41] ^= 0x55;
//! encoded[42] ^= 0x0F;
//! let out = fec.decode(&mut encoded);
//! assert!(out.outcome.is_corrected());
//! assert_eq!(&encoded[..250], &block[..]);
//! ```

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod decoder;
pub mod interleaved;
pub mod rs;
pub mod shortened;
pub mod ssc;
pub mod stats;

pub use decoder::{RsDecodeOutcome, RsDecoder};
pub use interleaved::{
    kernel, FlitFecResult, InterleavedFec, CXL_FLIT_DATA_LEN, CXL_FLIT_TOTAL_LEN,
};
pub use rs::RsCode;
pub use shortened::ShortenedRs;
pub use ssc::SingleSymbolCorrector;
