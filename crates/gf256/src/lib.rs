//! # rxl-gf256 — Galois field GF(2^8) arithmetic
//!
//! Finite-field arithmetic substrate for the shortened Reed–Solomon forward
//! error correction (FEC) used by CXL 3.x 256-byte flits and by the RXL
//! protocol reproduction (see the `rxl-fec` crate).
//!
//! The field is GF(2^8) constructed over the primitive polynomial
//! `x^8 + x^4 + x^3 + x^2 + 1` (0x11D), the conventional choice for
//! byte-oriented Reed–Solomon codes (e.g. RS(255, k) codes in storage and
//! wired-communication standards). Elements are represented as `u8`.
//!
//! The crate provides:
//!
//! * [`Gf256`] — a copyable field-element wrapper with `+`, `-`, `*`, `/`
//!   operator overloads (addition and subtraction are both XOR),
//! * [`tables`] — precomputed exponent/logarithm tables built at first use,
//! * [`nibble`] — branch-free multiplication by a fixed constant: two
//!   16-entry half-tables per constant ([`ConstMul`], used by the general
//!   `RsCode` encoder and syndrome evaluator) and the eight full tables
//!   `x·α^m` ([`ALPHA_POW_MUL`]) behind the flit FEC's syndrome kernel,
//! * [`poly`] — dense polynomials over GF(2^8) (evaluation, arithmetic,
//!   formal derivative) used by the Reed–Solomon encoder and decoder.
//!
//! # Example
//!
//! ```
//! use rxl_gf256::Gf256;
//!
//! let a = Gf256::new(0x53);
//! let b = Gf256::new(0xCA);
//! let p = a * b;
//! // Multiplication is invertible for non-zero elements.
//! assert_eq!(p / b, a);
//! // Addition is XOR, so every element is its own additive inverse.
//! assert_eq!(a + a, Gf256::ZERO);
//! ```

pub mod field;
pub mod nibble;
pub mod poly;
pub mod tables;

pub use field::Gf256;
pub use nibble::{ConstMul, ALPHA_POW_MUL, ALPHA_POW_STEPS};
pub use poly::GfPoly;
pub use tables::{exp_table, log_table, GF256_PRIMITIVE_POLY};
