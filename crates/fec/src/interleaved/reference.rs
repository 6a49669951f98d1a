//! The byte-serial codec the syndrome kernel replaced, kept as the reference
//! the differential tests in [`super`] compare against: a two-stage parity
//! LFSR per way for encoding and a one-symbol-per-step Horner evaluation for
//! the syndromes, both walking the interleaved block in wire order. It shares
//! no code with the kernel — not the product tables, not the parity identity,
//! not the emission order logic.

use rxl_gf256::{ConstMul, Gf256};

use super::{FlitFecResult, InterleavedFec, PerWayOutcomes, MAX_FEC_WAYS};
use crate::decoder::RsDecodeOutcome;
use crate::rs::RsCode;

/// LFSR encode: `block[..data_len]` holds the data, the parity tail is
/// written to `block[data_len..]`.
pub(super) fn encode_into(fec: &InterleavedFec, block: &mut [u8]) {
    assert_eq!(block.len(), fec.encoded_len());
    let (data_len, ways) = (fec.data_len(), fec.ways());
    // g(x) = x² + g1·x + g0, the generator of the RS(255, 253) mother code.
    let code = RsCode::rs_255_253();
    let gen = code.generator().coeffs();
    assert_eq!(gen.len(), 3, "two-parity generator has degree 2");
    let mul_g0 = ConstMul::new(gen[0].value());
    let mul_g1 = ConstMul::new(gen[1].value());

    // Virtual leading zeros of the shortened code are skipped — they cannot
    // change the LFSR state.
    let mut lfsr = [[0u8; 2]; MAX_FEC_WAYS];
    for (i, &b) in block[..data_len].iter().enumerate() {
        let [l0, l1] = lfsr[i % ways];
        let feedback = b ^ l0;
        lfsr[i % ways] = [l1 ^ mul_g1.mul(feedback), mul_g0.mul(feedback)];
    }
    // Emit parity bytes continuing the round-robin pattern at wire
    // positions data_len..encoded_len.
    let mut cursors = [0usize; MAX_FEC_WAYS];
    for (i, slot) in block.iter_mut().enumerate().skip(data_len) {
        let w = i % ways;
        *slot = lfsr[w][cursors[w]];
        cursors[w] += 1;
    }
}

/// Horner decode with the single-symbol-correct semantics of
/// [`InterleavedFec::decode`].
pub(super) fn decode(fec: &InterleavedFec, block: &mut [u8]) -> FlitFecResult {
    assert_eq!(block.len(), fec.encoded_len());
    let ways = fec.ways();
    let mul_alpha = ConstMul::new(Gf256::ALPHA.value());

    // Pass 1 — per-way syndromes over the strided symbols. Each way's word
    // is its data symbols followed by its parity symbols, which is exactly
    // the order its wire positions appear in.
    let mut s0_raw = [0u8; MAX_FEC_WAYS];
    let mut s1_raw = [0u8; MAX_FEC_WAYS];
    let mut word_len = [0usize; MAX_FEC_WAYS];
    for (i, &b) in block.iter().enumerate() {
        let w = i % ways;
        s0_raw[w] ^= b;
        s1_raw[w] = mul_alpha.mul(s1_raw[w]) ^ b;
        word_len[w] += 1;
    }
    let s0 = s0_raw.map(Gf256::new);
    let s1 = s1_raw.map(Gf256::new);

    // Pass 2 — per-way verdicts and correction candidates, applied only once
    // every way is known to accept.
    let mut per_way = [RsDecodeOutcome::NoError; MAX_FEC_WAYS];
    let mut fix: [Option<(usize, u8)>; MAX_FEC_WAYS] = [None; MAX_FEC_WAYS];
    let mut total_corrected = 0usize;
    let mut any_uncorrectable = false;
    for w in 0..ways {
        per_way[w] = if s0[w].is_zero() && s1[w].is_zero() {
            RsDecodeOutcome::NoError
        } else if s0[w].is_zero() || s1[w].is_zero() {
            RsDecodeOutcome::DetectedUncorrectable
        } else {
            // Single error at degree p: S1/S0 = α^p.
            let p = (s1[w] / s0[w]).log().unwrap() as usize;
            if p >= word_len[w] {
                RsDecodeOutcome::DetectedUncorrectable
            } else {
                let wire_pos = w + (word_len[w] - 1 - p) * ways;
                fix[w] = Some((wire_pos, s0[w].value()));
                RsDecodeOutcome::Corrected { symbols: 1 }
            }
        };
        match per_way[w] {
            RsDecodeOutcome::Corrected { symbols } => total_corrected += symbols,
            RsDecodeOutcome::DetectedUncorrectable => any_uncorrectable = true,
            RsDecodeOutcome::NoError => {}
        }
    }

    let per_way = PerWayOutcomes::new(per_way, ways);
    if any_uncorrectable {
        return FlitFecResult {
            outcome: RsDecodeOutcome::DetectedUncorrectable,
            per_way,
        };
    }
    for &(pos, magnitude) in fix[..ways].iter().flatten() {
        block[pos] ^= magnitude;
    }
    let outcome = if total_corrected == 0 {
        RsDecodeOutcome::NoError
    } else {
        RsDecodeOutcome::Corrected {
            symbols: total_corrected,
        }
    };
    FlitFecResult { outcome, per_way }
}
