//! # rxl-crc — CRC engines and the Implicit Sequence Number (ISN) CRC
//!
//! This crate implements the cyclic-redundancy-check machinery used by the
//! RXL reproduction of *"Scaling Out Chip Interconnect Networks with Implicit
//! Sequence Numbers"* (SC 2025):
//!
//! * a generic, parameterised CRC model ([`CrcSpec`]) covering widths from 8
//!   to 64 bits with both a reference bitwise engine ([`engine`]) and a fast
//!   table-driven engine ([`table`]),
//! * a catalog of standard algorithms ([`catalog`]) including the 64-bit CRC
//!   protecting CXL 256-byte flits, CRC-32 and CRC-16,
//! * the **ISN construction** ([`isn`]): folding the 10-bit flit sequence
//!   number into the CRC computation so that a sequence mismatch at the
//!   receiver manifests as a CRC error — the paper's core mechanism. By CRC
//!   linearity the fold is one table entry `D[seq]` XORed onto the plain
//!   CRC, with `D[0] = 0`,
//! * error-detection analysis helpers ([`analysis`]): burst-error coverage,
//!   random multi-bit error coverage, and undetected-error-rate estimation
//!   used to reproduce the claims of Section 4.1 and Section 7.1.
//!
//! # Example: detecting a dropped flit with ISN
//!
//! ```
//! use rxl_crc::{IsnCrc64, catalog::FLIT_CRC64};
//!
//! let isn = IsnCrc64::new(FLIT_CRC64);
//! let header = [0u8; 2];
//! let payload = [0xAB; 240];
//!
//! // Sender: flit N and flit N+1 carry CRCs bound to their sequence numbers.
//! let crc_n1 = isn.encode(&header, &payload, 43);
//!
//! // Receiver expected flit N (seq 42) but flit N was silently dropped, so it
//! // checks flit N+1 against expected sequence number 42 — mismatch detected.
//! assert!(!isn.verify(&header, &payload, 42, crc_n1));
//! // With the correct expected sequence number the same flit verifies.
//! assert!(isn.verify(&header, &payload, 43, crc_n1));
//!
//! // The binding is one table entry on top of the plain CRC, and sequence 0
//! // binds nothing: the baseline CXL link CRC is the ISN CRC at sequence 0.
//! assert_eq!(crc_n1 ^ isn.encode(&header, &payload, 0), isn.delta(43));
//! assert_eq!(isn.delta(0), 0);
//! ```

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod analysis;
pub mod catalog;
pub mod engine;
pub mod isn;
pub mod slice;
pub mod spec;
pub mod table;

pub use catalog::{Crc64, FLIT_CRC64};
pub use engine::BitwiseCrc;
pub use isn::IsnCrc64;
pub use slice::{kernel, SliceBy8Crc64, FLIT_CRC64_SLICE};
pub use spec::CrcSpec;
pub use table::TableCrc;
