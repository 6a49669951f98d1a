//! The PCLMULQDQ fold under [`SliceBy8Crc64::update`](super::SliceBy8Crc64::update).
//!
//! This module and `rxl-fec`'s GFNI syndrome kernel are the only places in
//! either crate that detect CPU features or use `unsafe`. The derivation of
//! the fold and its constants is in the parent module's docs.

/// Shortest input the fold takes; shorter inputs stay on the tables.
const MIN_LEN: usize = 32;

/// Whether this CPU runs the fold.
pub(super) fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("pclmulqdq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Folds `blocks` (a whole number of 16-byte blocks), with `reg` XORed into
/// its first eight bytes, to one 16-byte block congruent to it modulo the
/// polynomial whose constants are `[K₁₉₁, K₁₂₇]`. `None` when the input is
/// shorter than [`MIN_LEN`] or the CPU lacks PCLMULQDQ.
#[inline]
pub(super) fn fold(reg: u64, blocks: &[u8], keys: [u64; 2]) -> Option<[u8; 16]> {
    debug_assert_eq!(blocks.len() % 16, 0);
    if blocks.len() < MIN_LEN || !available() {
        return None;
    }
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `available()` just confirmed PCLMULQDQ on this CPU, and
        // SSE2 is part of the x86_64 baseline.
        Some(unsafe { fold_pclmulqdq(reg, blocks, keys) })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (reg, keys);
        None
    }
}

/// The fold itself: `s ← clmul(s.lo, K₁₉₁) ⊕ clmul(s.hi, K₁₂₇) ⊕ next16`.
///
/// # Safety
///
/// The caller must have checked that the CPU supports PCLMULQDQ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq")]
unsafe fn fold_pclmulqdq(reg: u64, blocks: &[u8], [k191, k127]: [u64; 2]) -> [u8; 16] {
    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_cvtsi64_si128, _mm_loadu_si128, _mm_set_epi64x,
        _mm_storeu_si128, _mm_xor_si128,
    };
    // Low lane K₁₉₁ (multiplies the state's low lane), high lane K₁₂₇.
    let keys = _mm_set_epi64x(k127 as i64, k191 as i64);
    let mut chunks = blocks.chunks_exact(16);
    let mut state = _mm_cvtsi64_si128(reg as i64);
    if let Some(first) = chunks.next() {
        // SAFETY: `first` is 16 readable bytes; the load is unaligned.
        let first = unsafe { _mm_loadu_si128(first.as_ptr().cast::<__m128i>()) };
        state = _mm_xor_si128(state, first);
    }
    for chunk in chunks {
        // SAFETY: `chunk` is 16 readable bytes; the load is unaligned.
        let next = unsafe { _mm_loadu_si128(chunk.as_ptr().cast::<__m128i>()) };
        let lo = _mm_clmulepi64_si128::<0x00>(state, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(state, keys);
        state = _mm_xor_si128(_mm_xor_si128(lo, hi), next);
    }
    let mut out = [0u8; 16];
    // SAFETY: `out` is 16 writable bytes; the store is unaligned.
    unsafe { _mm_storeu_si128(out.as_mut_ptr().cast::<__m128i>(), state) };
    out
}
