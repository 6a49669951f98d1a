//! Precomputed exponent and logarithm tables for GF(2^8).
//!
//! The tables are computed once (at compile time, via `const fn`) from the
//! primitive polynomial 0x11D with generator element α = 0x02. They back the
//! multiplicative operations in [`crate::field`].

/// The primitive polynomial used to construct GF(2^8):
/// `x^8 + x^4 + x^3 + x^2 + 1` (0x11D). The standard choice for RS(255, k)
/// codes over 8-bit symbols.
pub const GF256_PRIMITIVE_POLY: u16 = 0x11D;

/// The generator (primitive element) of the multiplicative group, α = 2.
pub const GF256_GENERATOR: u8 = 0x02;

/// Exponent table: `EXP[i] = α^i` for `i in 0..512`.
///
/// The table is doubled in length so `EXP[log(a) + log(b)]` never needs a
/// modular reduction of the index during multiplication.
const fn build_exp() -> [u8; 512] {
    let mut exp = [0u8; 512];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        exp[i + 255] = x as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= GF256_PRIMITIVE_POLY;
        }
        i += 1;
    }
    // Positions 510 and 511 are never indexed (max index is 254 + 254 = 508)
    // but fill them consistently anyway.
    exp[510] = exp[0];
    exp[511] = exp[1];
    exp
}

/// Logarithm table: `LOG[a] = i` such that `α^i = a`, for `a in 1..=255`.
/// `LOG[0]` is set to 0 but must never be used (log of zero is undefined).
const fn build_log() -> [u8; 256] {
    let exp = build_exp();
    let mut log = [0u8; 256];
    let mut i = 0;
    while i < 255 {
        log[exp[i] as usize] = i as u8;
        i += 1;
    }
    log
}

static EXP: [u8; 512] = build_exp();
static LOG: [u8; 256] = build_log();

/// Returns the exponent table `α^i` (512 entries, period 255 repeated twice).
#[inline]
pub fn exp_table() -> &'static [u8; 512] {
    &EXP
}

/// Returns the logarithm table. `log_table()[0]` is a placeholder; the log of
/// zero is undefined and callers must special-case zero.
#[inline]
pub fn log_table() -> &'static [u8; 256] {
    &LOG
}

/// Raw table-based multiplication of two field elements.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let la = LOG[a as usize] as usize;
    let lb = LOG[b as usize] as usize;
    EXP[la + lb]
}

/// Raw multiplicative inverse. Panics on zero.
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "GF(2^8): inverse of zero is undefined");
    let la = LOG[a as usize] as usize;
    EXP[255 - la]
}

/// Raw table-based division `a / b`. Panics if `b == 0`.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "GF(2^8): division by zero");
    if a == 0 {
        return 0;
    }
    let la = LOG[a as usize] as usize;
    let lb = LOG[b as usize] as usize;
    EXP[la + 255 - lb]
}

/// Raw exponentiation `a^n` in the field.
#[inline]
pub fn pow(a: u8, n: u32) -> u8 {
    if n == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    let la = LOG[a as usize] as u32;
    let idx = (la as u64 * n as u64) % 255;
    EXP[idx as usize]
}

/// Slow carry-less ("Russian peasant") multiplication used to cross-check the
/// table construction in tests and to document the field definition.
pub fn mul_slow(mut a: u8, mut b: u8) -> u8 {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_table_has_period_255() {
        let exp = exp_table();
        assert_eq!(exp[0], 1);
        for i in 0..255 {
            assert_eq!(exp[i], exp[i + 255]);
        }
    }

    #[test]
    fn exp_table_covers_all_nonzero_elements() {
        let exp = exp_table();
        let mut seen = [false; 256];
        for i in 0..255 {
            assert!(!seen[exp[i] as usize], "duplicate α^{i}");
            seen[exp[i] as usize] = true;
        }
        assert!(!seen[0], "α^i must never be zero");
        assert_eq!(seen.iter().filter(|&&s| s).count(), 255);
    }

    #[test]
    fn log_is_inverse_of_exp() {
        let exp = exp_table();
        let log = log_table();
        for i in 0..255usize {
            assert_eq!(log[exp[i] as usize] as usize, i);
        }
        for a in 1..=255u16 {
            assert_eq!(exp[log[a as usize] as usize], a as u8);
        }
    }

    #[test]
    fn table_mul_matches_slow_mul() {
        for a in 0..=255u16 {
            for b in 0..=255u16 {
                assert_eq!(
                    mul(a as u8, b as u8),
                    mul_slow(a as u8, b as u8),
                    "mismatch at {a} * {b}"
                );
            }
        }
    }

    #[test]
    fn inverse_round_trips() {
        for a in 1..=255u16 {
            let a = a as u8;
            assert_eq!(mul(a, inv(a)), 1, "a * a^-1 != 1 for a = {a}");
        }
    }

    #[test]
    fn division_matches_mul_by_inverse() {
        for a in 0..=255u16 {
            for b in 1..=255u16 {
                assert_eq!(div(a as u8, b as u8), mul(a as u8, inv(b as u8)));
            }
        }
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for a in [0u8, 1, 2, 3, 0x1D, 0x80, 0xFF] {
            let mut acc = 1u8;
            for n in 0..600u32 {
                assert_eq!(pow(a, n), acc, "a={a} n={n}");
                acc = mul(acc, a);
            }
        }
    }

    #[test]
    #[should_panic]
    fn inverse_of_zero_panics() {
        let _ = inv(0);
    }

    #[test]
    #[should_panic]
    fn division_by_zero_panics() {
        let _ = div(7, 0);
    }
}
