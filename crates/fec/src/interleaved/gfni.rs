//! The AVX-512BW + GFNI syndrome kernel for three ways and at most 256
//! symbols — the CXL flit geometry — under `InterleavedFec`'s `syndromes`.
//!
//! This module and `rxl-crc`'s carry-less-multiply fold are the only places
//! in either crate that detect CPU features or use `unsafe`. The isomorphism
//! it computes through is derived in the parent module's docs.

// Off x86_64 `available()` is false and the tables and imports go unused.
#![cfg_attr(not(target_arch = "x86_64"), allow(dead_code, unused_imports))]

use rxl_gf256::tables::{GF256_GENERATOR, GF256_PRIMITIVE_POLY};
use rxl_gf256::{exp_table, Gf256};

use super::{Syndromes, CXL_FEC_WAYS as WAYS, CXL_FLIT_TOTAL_LEN as MAX_LEN, MAX_FEC_WAYS};

/// `a · b` in GF(2⁸) modulo `x⁸ + low` (`low` is the polynomial's low byte).
const fn mul_mod(mut a: u8, mut b: u8, low: u8) -> u8 {
    let mut acc = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        a = (a << 1) ^ if a & 0x80 != 0 { low } else { 0 };
        b >>= 1;
    }
    acc
}

/// Low byte of the repo's field polynomial, `x⁸ + x⁴ + x³ + x² + 1` (0x11D).
const RS_LOW: u8 = (GF256_PRIMITIVE_POLY & 0xFF) as u8;
/// Low byte of GFNI's field polynomial, `x⁸ + x⁴ + x³ + x + 1` (0x11B).
const AES_LOW: u8 = 0x1B;

/// The first root `β` of 0x11D's polynomial in the 0x11B field; `φ` sends
/// `α` to it.
const BETA: u8 = {
    let mut b = 2u16;
    loop {
        assert!(b < 256, "0x11D's polynomial has a root in every GF(2⁸)");
        let x = b as u8;
        let x2 = mul_mod(x, x, AES_LOW);
        let x4 = mul_mod(x2, x2, AES_LOW);
        let x3 = mul_mod(x2, x, AES_LOW);
        let x8 = mul_mod(x4, x4, AES_LOW);
        if x8 ^ x4 ^ x3 ^ x2 ^ 1 == 0 {
            break x;
        }
        b += 1;
    }
};

/// `φ(a) = Σ aᵢ·βⁱ`: the field isomorphism from 0x11D to 0x11B.
const fn phi(a: u8) -> u8 {
    let (mut out, mut beta_pow, mut i) = (0u8, 1u8, 0);
    while i < 8 {
        if a >> i & 1 != 0 {
            out ^= beta_pow;
        }
        beta_pow = mul_mod(beta_pow, BETA, AES_LOW);
        i += 1;
    }
    out
}

/// `φ` as the 8×8 bit matrix `vgf2p8affineqb` applies to every byte: byte
/// `7 − i` of the qword is row `i`, whose bit `j` is bit `i` of `φ(2ʲ) = βʲ`.
const PHI_MATRIX: u64 = {
    let mut m = 0u64;
    let mut i = 0;
    while i < 8 {
        let mut row = 0u64;
        let mut j = 0;
        while j < 8 {
            row |= (((phi(1 << j) >> i) & 1) as u64) << j;
            j += 1;
        }
        m |= row << (8 * (7 - i));
        i += 1;
    }
    m
};

/// `φ⁻¹`, as a table.
const PHI_INV: [u8; 256] = {
    let mut inv = [0u8; 256];
    let mut a = 0;
    while a < 256 {
        inv[phi(a as u8) as usize] = a as u8;
        a += 1;
    }
    inv
};

/// `POSITION[i] = φ(α^−⌊i/3⌋)`: the weight of wire position `i` in its
/// way's `S1`, before the way's `α^(n_w − 1)` scale.
static POSITION: [u8; MAX_LEN] = {
    // α⁻¹ = α²⁵⁴.
    let mut alpha_inv = 1u8;
    let mut k = 0;
    while k < 254 {
        alpha_inv = mul_mod(alpha_inv, GF256_GENERATOR, RS_LOW);
        k += 1;
    }
    let mut table = [0u8; MAX_LEN];
    let mut weight = 1u8;
    let mut i = 0;
    while i < MAX_LEN {
        table[i] = phi(weight);
        if i % WAYS == WAYS - 1 {
            weight = mul_mod(weight, alpha_inv, RS_LOW);
        }
        i += 1;
    }
    table
};

/// `WAY_MASKS[v][w]` selects the bytes of the `v`-th 64-byte vector that
/// belong to way `w`: bit `b` is set when `(64·v + b) mod 3 = w`.
const WAY_MASKS: [[u64; WAYS]; MAX_LEN / 64] = {
    let mut masks = [[0u64; WAYS]; MAX_LEN / 64];
    let mut i = 0;
    while i < MAX_LEN {
        masks[i / 64][i % WAYS] |= 1 << (i % 64);
        i += 1;
    }
    masks
};

/// Whether this CPU runs the kernel.
pub(super) fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx512f")
            && std::is_x86_feature_detected!("avx512bw")
            && std::is_x86_feature_detected!("gfni")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `(S0, S1)` of the three ways interleaved in `symbols`, equal to
/// `syndromes::<3>(symbols)`. `None` when `symbols` is not 3..=256 bytes (at
/// most one CXL flit: four 64-byte vectors) or the CPU lacks AVX-512BW or
/// GFNI.
#[inline]
pub(super) fn syndromes3(symbols: &[u8]) -> Option<Syndromes> {
    if !(WAYS..=MAX_LEN).contains(&symbols.len()) || !available() {
        return None;
    }
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `available()` just confirmed AVX-512F, AVX-512BW and GFNI
        // on this CPU.
        let (s0, phi_sums) = unsafe { sums_avx512_gfni(symbols) };
        let (mut out0, mut out1) = ([0u8; MAX_FEC_WAYS], [0u8; MAX_FEC_WAYS]);
        for w in 0..WAYS {
            // Way `w` holds `n_w ≥ 1` symbols, so its scale `α^(n_w − 1)`
            // is one `exp_table` entry.
            let n_w = (symbols.len() - w).div_ceil(WAYS);
            let scale = Gf256::new(exp_table()[n_w - 1]);
            out0[w] = s0[w];
            out1[w] = (Gf256::new(PHI_INV[phi_sums[w] as usize]) * scale).value();
        }
        Some((out0, out1))
    }
    #[cfg(not(target_arch = "x86_64"))]
    None
}

/// Per way `w`: the XOR of its raw symbols (`S0`) and
/// `Σ φ(cᵢ)·φ(α^−⌊i/3⌋)` over its positions `i`, in the 0x11B field.
///
/// # Safety
///
/// The caller must have checked that the CPU supports AVX-512F, AVX-512BW
/// and GFNI.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,gfni")]
unsafe fn sums_avx512_gfni(symbols: &[u8]) -> ([u8; WAYS], [u8; WAYS]) {
    use std::arch::x86_64::{
        __m512i, _mm512_gf2p8affine_epi64_epi8, _mm512_gf2p8mul_epi8, _mm512_loadu_si512,
        _mm512_maskz_loadu_epi8, _mm512_maskz_mov_epi8, _mm512_set1_epi64, _mm512_setzero_si512,
        _mm512_xor_si512,
    };
    let phi_matrix = _mm512_set1_epi64(PHI_MATRIX as i64);
    let mut raw_acc = [_mm512_setzero_si512(); WAYS];
    let mut phi_acc = [_mm512_setzero_si512(); WAYS];
    let vectors = symbols.chunks(64).zip(POSITION.chunks_exact(64));
    for ((chunk, weights), masks) in vectors.zip(&WAY_MASKS) {
        let load = match chunk.len() {
            64 => u64::MAX,
            len => (1u64 << len) - 1,
        };
        // SAFETY: `load` selects the `chunk.len()` bytes of `chunk` alone;
        // masked-off bytes are neither read nor able to fault.
        let raw = unsafe { _mm512_maskz_loadu_epi8(load, chunk.as_ptr().cast()) };
        // SAFETY: `weights` is 64 readable bytes; the load is unaligned.
        let weights = unsafe { _mm512_loadu_si512(weights.as_ptr().cast::<__m512i>()) };
        let weighted =
            _mm512_gf2p8mul_epi8(_mm512_gf2p8affine_epi64_epi8::<0>(raw, phi_matrix), weights);
        for (w, &mask) in masks.iter().enumerate() {
            raw_acc[w] = _mm512_xor_si512(raw_acc[w], _mm512_maskz_mov_epi8(mask, raw));
            phi_acc[w] = _mm512_xor_si512(phi_acc[w], _mm512_maskz_mov_epi8(mask, weighted));
        }
    }
    let (mut s0, mut sums) = ([0u8; WAYS], [0u8; WAYS]);
    for w in 0..WAYS {
        s0[w] = xor_bytes(raw_acc[w]);
        sums[w] = xor_bytes(phi_acc[w]);
    }
    (s0, sums)
}

/// The XOR of the 64 bytes of `v`.
///
/// # Safety
///
/// A safe `#[target_feature]` function: callable without `unsafe` only from
/// code that has AVX-512F enabled, which the compiler checks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn xor_bytes(v: std::arch::x86_64::__m512i) -> u8 {
    use std::arch::x86_64::{
        _mm256_castsi256_si128, _mm256_extracti128_si256, _mm256_xor_si256, _mm512_castsi512_si256,
        _mm512_extracti64x4_epi64, _mm_cvtsi128_si64, _mm_extract_epi64, _mm_xor_si128,
    };
    let v = _mm256_xor_si256(_mm512_castsi512_si256(v), _mm512_extracti64x4_epi64::<1>(v));
    let v = _mm_xor_si128(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
    let mut x = (_mm_cvtsi128_si64(v) ^ _mm_extract_epi64::<1>(v)) as u64;
    x ^= x >> 32;
    x ^= x >> 16;
    x ^= x >> 8;
    x as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phi_is_a_field_isomorphism_sending_alpha_to_beta() {
        assert_eq!(phi(GF256_GENERATOR), BETA);
        assert_eq!(phi(1), 1);
        for a in 0..=255u8 {
            assert_eq!(
                PHI_INV[phi(a) as usize],
                a,
                "φ is not a bijection at {a:#04x}"
            );
            for b in 0..=255u8 {
                assert_eq!(
                    phi(mul_mod(a, b, RS_LOW)),
                    mul_mod(phi(a), phi(b), AES_LOW),
                    "φ({a:#04x}·{b:#04x})"
                );
            }
        }
    }

    #[test]
    fn way_masks_partition_every_vector() {
        for masks in WAY_MASKS {
            assert_eq!(masks[0] | masks[1] | masks[2], u64::MAX);
            assert_eq!(
                masks[0] & masks[1] | masks[1] & masks[2] | masks[0] & masks[2],
                0
            );
        }
    }
}
