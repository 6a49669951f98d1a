//! Nibble-split constant multiplication in GF(2^8).
//!
//! Multiplying a stream of bytes by one *fixed* field constant is the inner
//! loop of every Reed–Solomon syndrome accumulation and LFSR encode pass.
//! The log/exp route costs two dependent table lookups plus a zero branch
//! per byte, and a full 256-entry product table per constant costs 256
//! bytes of cache. GF(2)-linearity of carry-less multiplication gives a
//! cheaper shape: with `x = x_hi·16 ⊕ x_lo`,
//!
//! ```text
//! c·x = c·x_lo ⊕ c·(x_hi·16)
//! ```
//!
//! so two 16-entry half-tables per constant answer any byte with two loads
//! and one XOR — 32 bytes of table per constant instead of 256, branch-free,
//! and exactly the shape compilers turn into 16-lane byte shuffles
//! (`pshufb`/`tbl`) when the surrounding loop vectorizes. [`ConstMul`]
//! builds both half-tables in a `const fn`, so a code's generator and
//! syndrome-point constants cost nothing at runtime. `rxl_fec::RsCode` (the
//! general `RS(n, k)` encoder and syndrome evaluator) is its user.
//!
//! The 256-byte flit FEC does not go through [`ConstMul`]: a byte-serial
//! Horner chain `acc = α·acc ⊕ s` is bound by the latency of that one
//! multiply, however cheap. [`ALPHA_POW_MUL`] holds the eight full product
//! tables `x·α^m, m = 1..=8`, which let a syndrome loop take eight symbols
//! per step (`acc = α⁸·acc ⊕ α⁷·s₀ ⊕ … ⊕ α·s₆ ⊕ s₇`): one dependent lookup
//! per eight symbols, the other seven independent of the accumulator.

use crate::tables::GF256_PRIMITIVE_POLY;

/// Carry-less ("Russian peasant") multiplication, `const` so half-tables
/// can be built at compile time. Mirrors [`crate::tables::mul_slow`], which
/// stays the documented reference implementation for tests.
const fn mul_const(mut a: u8, mut b: u8) -> u8 {
    let mut acc: u8 = 0;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        let carry = a & 0x80 != 0;
        a <<= 1;
        if carry {
            a ^= (GF256_PRIMITIVE_POLY & 0xFF) as u8;
        }
        b >>= 1;
    }
    acc
}

/// Multiplication by one fixed GF(2^8) constant via two 16-entry
/// half-tables (see the module docs for the decomposition).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConstMul {
    /// `lo[n] = c · n` for the low nibble `n`.
    lo: [u8; 16],
    /// `hi[n] = c · (n << 4)` for the high nibble `n`.
    hi: [u8; 16],
}

impl ConstMul {
    /// Builds the half-tables for multiplication by `c`.
    pub const fn new(c: u8) -> Self {
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        let mut n = 0;
        while n < 16 {
            lo[n] = mul_const(c, n as u8);
            hi[n] = mul_const(c, (n as u8) << 4);
            n += 1;
        }
        ConstMul { lo, hi }
    }

    /// `c · x`.
    #[inline(always)]
    pub fn mul(&self, x: u8) -> u8 {
        self.lo[(x & 0x0F) as usize] ^ self.hi[(x >> 4) as usize]
    }

    /// The constant this table multiplies by (`c = c · 1`).
    pub fn constant(&self) -> u8 {
        self.lo[1]
    }
}

/// Number of product tables in [`ALPHA_POW_MUL`], i.e. how many symbols one
/// step of a sliced Horner evaluation at `α` consumes.
pub const ALPHA_POW_STEPS: usize = 8;

const fn build_alpha_pow_mul() -> [[u8; 256]; ALPHA_POW_STEPS] {
    let mut tables = [[0u8; 256]; ALPHA_POW_STEPS];
    let mut alpha_pow = 1u8;
    let mut m = 0;
    while m < ALPHA_POW_STEPS {
        alpha_pow = mul_const(alpha_pow, crate::tables::GF256_GENERATOR);
        let mut x = 0;
        while x < 256 {
            tables[m][x] = mul_const(alpha_pow, x as u8);
            x += 1;
        }
        m += 1;
    }
    tables
}

/// Full product tables for the first eight powers of the generator:
/// `ALPHA_POW_MUL[m - 1][x] = x · α^m` for `m = 1..=8` (2 KiB of `.rodata`).
/// One lookup per multiply, so a Horner evaluation at `α` sliced eight
/// symbols wide has a single table load on its dependency chain per step.
pub static ALPHA_POW_MUL: [[u8; 256]; ALPHA_POW_STEPS] = build_alpha_pow_mul();

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::{mul, mul_slow};

    #[test]
    fn const_fn_mul_matches_the_reference() {
        for a in 0..=255u16 {
            for b in 0..=255u16 {
                assert_eq!(mul_const(a as u8, b as u8), mul_slow(a as u8, b as u8));
            }
        }
    }

    #[test]
    fn nibble_split_matches_full_multiplication_for_every_constant() {
        for c in 0..=255u16 {
            let table = ConstMul::new(c as u8);
            assert_eq!(table.constant(), c as u8);
            for x in 0..=255u16 {
                assert_eq!(
                    table.mul(x as u8),
                    mul(c as u8, x as u8),
                    "mismatch at {c} * {x}"
                );
            }
        }
    }

    #[test]
    fn alpha_power_tables_match_full_multiplication() {
        for (m, table) in ALPHA_POW_MUL.iter().enumerate() {
            let alpha_pow = crate::tables::pow(crate::tables::GF256_GENERATOR, m as u32 + 1);
            for x in 0..=255u8 {
                assert_eq!(table[x as usize], mul(alpha_pow, x), "α^{} · {x}", m + 1);
            }
        }
    }

    #[test]
    fn half_tables_are_buildable_in_const_context() {
        const ALPHA: ConstMul = ConstMul::new(0x02);
        assert_eq!(ALPHA.mul(0x80), (GF256_PRIMITIVE_POLY & 0xFF) as u8);
        assert_eq!(ALPHA.mul(0x01), 0x02);
    }
}
