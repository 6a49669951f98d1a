//! Bit-error channel models.
//!
//! The paper's reliability analysis assumes independent bit errors at a
//! configurable BER (10⁻⁶ for CXL 3.0), optionally extended with DFE error
//! propagation that turns a first symbol error into a short burst
//! (Section 2.2). [`ChannelErrorModel`] corrupts wire-level byte buffers
//! accordingly; it is the only place physical-layer behaviour enters the
//! simulation, which is what makes the laptop-scale reproduction of the
//! paper's hardware testbed sound (see DESIGN.md, substitution table).
//!
//! # Event-jump sampling
//!
//! At realistic BERs almost every flit traversal is error-free, so paying
//! one RNG draw per traversal just to conclude "no error" dominates quiet
//! links. [`Channel::next_error_slot`] inverts the loop: the channel samples
//! the *traversal index of its next error event* directly (a geometric /
//! exponential jump), and the engine-side [`EventCursor`] caches that
//! prediction so traversals strictly before it cost **zero draws and zero
//! `corrupt` calls**. When the predicted traversal arrives,
//! [`Channel::corrupt_at_event`] applies corruption *conditioned on at least
//! one error* (a truncated-geometric first bit), which keeps the per-dirty-
//! flit statistics identical to the per-traversal Bernoulli process the jump
//! replaced.

use rand::{Rng, RngCore};

/// Highest effective BER any scaling helper will produce: the asserted
/// invariant everywhere in this workspace is `ber ∈ [0, 1)`, so scaling
/// saturates just below 1 instead of crossing it.
pub const MAX_BER: f64 = 0.999_999;

/// Clamps a (possibly scaled) bit-error rate into the valid `[0, MAX_BER]`
/// range. Negative and NaN inputs clamp to `0.0` (an ideal channel), values
/// at or above 1 clamp to [`MAX_BER`].
pub fn clamp_ber(ber: f64) -> f64 {
    if ber.is_nan() || ber <= 0.0 {
        0.0
    } else {
        ber.min(MAX_BER)
    }
}

/// A channel's forecast of its next error event, returned by
/// [`Channel::next_error_slot`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrorPrediction {
    /// Absolute traversal index (on the caller's `now_slot` clock) of the
    /// next traversal that experiences at least one error. `u64::MAX` means
    /// "never" — the channel cannot err under its current parameters.
    pub slot: u64,
    /// Simulation time at which this prediction stops being valid and must
    /// be discarded and resampled — [`f64::INFINITY`] for stationary
    /// channels, the next piecewise boundary for time-varying ones.
    /// Discard-and-resample is distribution-exact because the underlying
    /// per-traversal error process is memoryless.
    pub expires_ns: f64,
}

impl ErrorPrediction {
    /// A prediction that never fires (and never expires).
    pub fn never() -> Self {
        ErrorPrediction {
            slot: u64::MAX,
            expires_ns: f64::INFINITY,
        }
    }

    /// A permanently valid prediction for traversal `slot`.
    pub fn at(slot: u64) -> Self {
        ErrorPrediction {
            slot,
            expires_ns: f64::INFINITY,
        }
    }

    /// A prediction for traversal `slot` that must be resampled once
    /// simulation time reaches `expires_ns`.
    pub fn until(slot: u64, expires_ns: f64) -> Self {
        ErrorPrediction { slot, expires_ns }
    }
}

/// A wire-corruption process a simulated link traversal runs each flit
/// through.
///
/// [`ChannelErrorModel`] is the stationary implementation the paper's
/// analysis assumes; time-varying implementations (bursty Gilbert–Elliott
/// states, piecewise BER schedules — see the `rxl-chaos`
/// crate) model the non-stationary regimes real fabrics fail in. The fabric
/// engine keeps the stationary model on a monomorphised zero-cost path and
/// dispatches through `dyn Channel` only for links a scenario has overridden.
///
/// # RNG-draw-order invariant (event-jump shape)
///
/// The fabric engine owns a **single** RNG per trial and visits links in a
/// fixed order (see the `FabricSim` type docs in `rxl-fabric`). Since the
/// skip-ahead rework, the engine does *not* call into the channel on every
/// traversal: it keeps one [`EventCursor`] per link, asks the channel for
/// its [`Channel::next_error_slot`] prediction, and touches the RNG again
/// only at the predicted error traversal (or when a prediction expires at a
/// piecewise boundary). Every implementation must uphold:
///
/// * all randomness comes from the `rng` argument of the trait's methods,
///   and only during those calls — no internal RNGs, no draws in
///   constructors;
/// * the *number* of draws is a deterministic function of the channel's own
///   state and the call's arguments — never of global state or wall-clock
///   time;
/// * a decision whose outcome is deterministic must not consume a draw: a
///   channel that cannot err under its current parameters (zero BER, a
///   pinned Gilbert–Elliott state, an all-ideal schedule) returns
///   [`ErrorPrediction::never`] **without drawing**, exactly as
///   [`ChannelErrorModel::apply`] draws nothing at BER 0. This keeps every
///   ideal-channel configuration *bit-identical* to
///   [`ChannelErrorModel::ideal`] — same bytes out **and** same RNG stream
///   afterwards — which the golden-digest regression relies on.
///
/// Predictions are sampled lazily per link in the engine's fixed link-visit
/// order, so trials remain byte-for-byte reproducible per seed and
/// independent of worker-thread count; the contract's *shape* (draws at
/// event-sampling points rather than one per traversal) was re-pinned by
/// the golden digest when skip-ahead landed — see
/// `tests/fabric_golden_digest.rs`.
pub trait Channel {
    /// Corrupts `data` in place for one traversal at simulated time
    /// `now_ns`, drawing any randomness from `rng`. Returns the number of
    /// bits flipped.
    ///
    /// This is the per-traversal entry point: implementations decide
    /// *whether* an error occurs as well as where. Every simulator goes
    /// through [`Self::next_error_slot`] + [`Self::corrupt_at_event`] (the
    /// fabric engine) or calls [`ChannelErrorModel::apply`] directly
    /// (`rxl-sim`'s `PathSim`); this method is the per-traversal reference
    /// the skip-ahead statistics are compared against
    /// (`crates/chaos/tests/channel_properties.rs`).
    fn corrupt(&mut self, data: &mut [u8], now_ns: f64, rng: &mut dyn RngCore) -> usize;

    /// Samples the traversal index of the channel's next error event, given
    /// that traversal `now_slot` (at simulated time `now_ns`, carrying
    /// `bits` bits) is about to happen. `prediction.slot == now_slot` means
    /// "this very traversal errs"; `u64::MAX` means the channel cannot err.
    fn next_error_slot(
        &mut self,
        now_slot: u64,
        now_ns: f64,
        bits: u64,
        rng: &mut dyn RngCore,
    ) -> ErrorPrediction;

    /// Corrupts `data` in place for a traversal [`Self::next_error_slot`]
    /// predicted as an error event: the flips are conditioned on "at least
    /// one error" (see [`ChannelErrorModel::apply_conditioned`]).
    fn corrupt_at_event(&mut self, data: &mut [u8], now_ns: f64, rng: &mut dyn RngCore) -> usize;
}

impl Channel for ChannelErrorModel {
    fn corrupt(&mut self, data: &mut [u8], _now_ns: f64, rng: &mut dyn RngCore) -> usize {
        self.apply(data, rng)
    }

    fn next_error_slot(
        &mut self,
        now_slot: u64,
        _now_ns: f64,
        bits: u64,
        rng: &mut dyn RngCore,
    ) -> ErrorPrediction {
        let p_flit = self.unit_error_probability(bits as usize);
        if p_flit <= 0.0 {
            return ErrorPrediction::never();
        }
        ErrorPrediction::at(now_slot.saturating_add(geometric_failures(p_flit, rng)))
    }

    fn corrupt_at_event(&mut self, data: &mut [u8], _now_ns: f64, rng: &mut dyn RngCore) -> usize {
        self.apply_conditioned(data, rng)
    }
}

/// DFE-style burst extension: once a bit error occurs, each following bit is
/// also flipped with probability `continue_prob`, producing geometric bursts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstModel {
    /// Probability that an error burst continues into the next bit.
    pub continue_prob: f64,
}

impl BurstModel {
    /// A moderate DFE propagation model (mean burst length 1 / (1 - p) ≈ 2).
    pub fn dfe_default() -> Self {
        BurstModel { continue_prob: 0.5 }
    }
}

/// An additive bit-error channel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChannelErrorModel {
    /// Probability that any given transmitted bit starts an error event.
    pub ber: f64,
    /// Optional burst extension applied after each initial bit error.
    pub burst: Option<BurstModel>,
}

impl ChannelErrorModel {
    /// A perfect channel (no errors).
    pub fn ideal() -> Self {
        ChannelErrorModel {
            ber: 0.0,
            burst: None,
        }
    }

    /// A random-error channel with the given BER and no burst extension.
    pub fn random(ber: f64) -> Self {
        assert!((0.0..1.0).contains(&ber), "BER must be in [0, 1)");
        ChannelErrorModel { ber, burst: None }
    }

    /// The CXL 3.0 operating point: BER 10⁻⁶ with DFE burst propagation.
    pub fn cxl3() -> Self {
        ChannelErrorModel {
            ber: 1e-6,
            burst: Some(BurstModel::dfe_default()),
        }
    }

    /// Same error statistics but with the BER scaled by `factor`; used to
    /// accelerate Monte-Carlo experiments (and by `rxl-chaos` BER storms)
    /// while keeping the burst shape. The result is clamped into the
    /// asserted `[0, 1)` range via [`clamp_ber`], so arbitrarily large
    /// acceleration factors saturate at [`MAX_BER`] instead of producing an
    /// invalid probability (and non-finite or negative factors clamp to an
    /// ideal channel rather than an invalid one).
    pub fn scaled(&self, factor: f64) -> Self {
        ChannelErrorModel {
            ber: clamp_ber(self.ber * factor),
            burst: self.burst,
        }
    }

    /// Corrupts `data` in place; returns the number of bits flipped.
    ///
    /// Error *starts* are sampled with geometric gap sampling so the cost is
    /// proportional to the number of errors, not the number of bits — at
    /// BER 10⁻⁶ and 2048-bit flits the vast majority of flits are untouched.
    pub fn apply<R: Rng + ?Sized>(&self, data: &mut [u8], rng: &mut R) -> usize {
        if self.ber <= 0.0 || data.is_empty() {
            return 0;
        }
        let total_bits = (data.len() * 8) as u64;
        // Geometric gap to the first error start; usually past the buffer.
        let first = geometric_failures(self.ber, rng);
        if first >= total_bits {
            return 0;
        }
        self.corrupt_from(data, first, rng)
    }

    /// Corrupts `data` in place *conditioned on at least one error event*:
    /// the first error bit follows the truncated geometric distribution
    /// `P(first = j) = (1 − ber)ʲ · ber / p_unit` over `j < bits`, then
    /// burst extension and further (unconditional) geometric error starts
    /// proceed exactly as in [`Self::apply`]. Always flips at least one bit.
    ///
    /// This is the [`Channel::corrupt_at_event`] half of event-jump
    /// sampling: the event jump already decided *that* this traversal errs
    /// (with probability `p_unit` per traversal), so sampling the within-
    /// flit pattern from the conditional distribution reproduces the
    /// per-traversal statistics of [`Self::apply`] without re-rolling the
    /// "does anything happen" Bernoulli.
    pub fn apply_conditioned<R: Rng + ?Sized>(&self, data: &mut [u8], rng: &mut R) -> usize {
        if self.ber <= 0.0 || data.is_empty() {
            return 0;
        }
        let total_bits = (data.len() * 8) as u64;
        let p_unit = self.unit_error_probability(data.len() * 8);
        // Inverse-CDF sample of the truncated geometric: smallest j with
        // 1 − (1−ber)^(j+1) > u·p_unit. The min() guards the fp edge where
        // rounding lands exactly on total_bits.
        let u: f64 = rng.random::<f64>();
        let j = (f64::ln_1p(-u * p_unit) / f64::ln_1p(-self.ber)).floor();
        let first = if j.is_finite() && j > 0.0 {
            (j as u64).min(total_bits - 1)
        } else {
            0
        };
        self.corrupt_from(data, first, rng)
    }

    /// The shared tail of [`Self::apply`] and [`Self::apply_conditioned`]:
    /// flips `first_bit` (which must be in range), extends its burst, and
    /// continues with unconditional geometric error starts to the end of the
    /// buffer. The draw sequence from `first_bit` on is identical between
    /// the two entry points, so conditioning only changes how the first bit
    /// was chosen.
    fn corrupt_from<R: Rng + ?Sized>(&self, data: &mut [u8], first_bit: u64, rng: &mut R) -> usize {
        let total_bits = (data.len() * 8) as u64;
        debug_assert!(first_bit < total_bits);
        let mut flipped = 0usize;
        let mut pos = first_bit;
        loop {
            // Flip the starting bit, then optionally extend the burst.
            data[(pos / 8) as usize] ^= 1 << (pos % 8);
            flipped += 1;
            if let Some(burst) = self.burst {
                let mut next = pos + 1;
                while next < total_bits && rng.random_bool(burst.continue_prob) {
                    data[(next / 8) as usize] ^= 1 << (next % 8);
                    flipped += 1;
                    next += 1;
                }
                pos = next;
            } else {
                pos += 1;
            }
            // Geometric gap to the next error start.
            let gap = geometric_failures(self.ber, rng);
            pos = match pos.checked_add(gap) {
                Some(p) => p,
                None => break,
            };
            if pos >= total_bits {
                break;
            }
        }
        flipped
    }

    /// Probability that a buffer of `bits` transmitted bits experiences at
    /// least one error event (ignores burst extension; matches Eqn (1) of the
    /// paper for error-start statistics).
    ///
    /// Computed as `−expm1(bits · ln1p(−ber))`, which is exact for any
    /// `bits` that fits in an `f64` mantissa product — the naive
    /// `1 − (1 − ber)^bits` form loses all precision at small BERs and the
    /// earlier `powi(bits as i32)` truncated (and could wrap) bit counts
    /// beyond `i32::MAX`.
    pub fn unit_error_probability(&self, bits: usize) -> f64 {
        if self.ber <= 0.0 || bits == 0 {
            return 0.0;
        }
        if self.ber >= 1.0 {
            return 1.0;
        }
        -f64::exp_m1(bits as f64 * f64::ln_1p(-self.ber))
    }
}

/// Samples the number of independent failures (probability `p` each) before
/// the first success — the geometric jump shared by every event-jump
/// sampler in the workspace: intra-flit error-start gaps and whole-flit
/// skip-ahead here, Gilbert–Elliott state-dwell lengths in `rxl-chaos`.
///
/// Degenerate probabilities cost **no draw** (the outcome is
/// deterministic, per the [`Channel`] draw-order rules): `p ≤ 0` (or NaN)
/// returns `u64::MAX` ("never"), `p ≥ 1` returns 0 ("immediately"). For
/// `p ∈ (0, 1)` one uniform draw is inverted through the geometric CDF,
/// `floor(ln U / ln(1 − p))`, clamping to `u64::MAX` when the jump
/// overflows — at `p` near [`MAX_BER`] the result is almost surely 0, at
/// `p` near 0 the mean jump `1/p` grows without bound. Below
/// `p ≈ 2⁻⁵³` the naive `ln(1 − p)` denominator rounds to zero; the
/// sampler switches to `ln_1p(−p)` there (and only there — the naive form
/// is kept bit-for-bit where it is sound, because `ChannelErrorModel::apply`
/// results at the paper's BERs are pinned by golden values).
pub fn geometric_failures<R: Rng + ?Sized>(p: f64, rng: &mut R) -> u64 {
    if p.is_nan() || p <= 0.0 {
        return u64::MAX;
    }
    if p >= 1.0 {
        return 0;
    }
    let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    // floor(ln(U) / ln(1 - p)) is the standard inverse-CDF sample.
    let mut denom = (1.0 - p).ln();
    if denom == 0.0 {
        denom = f64::ln_1p(-p);
    }
    let g = (u.ln() / denom).floor();
    if g < 0.0 {
        0
    } else if g >= u64::MAX as f64 {
        u64::MAX
    } else {
        g as u64
    }
}

/// Engine-side skip-ahead state for one link: a traversal counter plus the
/// cached [`ErrorPrediction`] of the link's channel. The cursor is indexed
/// by *traversal count*, not wall-clock slot — an endpoint attachment link
/// can be traversed twice in one slot (injection and delivery), and
/// slot-indexing would silently halve its effective error rate.
///
/// [`EventCursor::advance`] is the only way traversals happen: it
/// pre-increments the counter, resamples the prediction when it is absent,
/// expired (`now_ns` reached `expires_ns`), or was sampled for a different
/// flit size, and calls [`Channel::corrupt_at_event`] exactly at predicted
/// traversals. Quiet traversals — the overwhelming majority at realistic
/// BERs — return without touching the RNG or the flit.
#[derive(Clone, Copy, Debug)]
pub struct EventCursor {
    /// Traversals advanced so far; the first traversal is index 1, so 0 is
    /// free to serve as the "unsampled" sentinel for `at`.
    traversals: u64,
    /// Absolute traversal index of the predicted next error; 0 = unsampled.
    at: u64,
    /// Expiry of the cached prediction (simulation nanoseconds).
    expires_ns: f64,
    /// Flit size (bits) the prediction was sampled for.
    bits: u64,
}

impl Default for EventCursor {
    fn default() -> Self {
        Self::new()
    }
}

impl EventCursor {
    /// A cursor with no traversals and no cached prediction.
    pub fn new() -> Self {
        EventCursor {
            traversals: 0,
            at: 0,
            expires_ns: f64::INFINITY,
            bits: 0,
        }
    }

    /// Discards the cached prediction (the traversal counter keeps
    /// counting). Call when the link's channel is replaced or reset: the
    /// next [`Self::advance`] resamples from the new channel.
    pub fn reset(&mut self) {
        self.at = 0;
        self.expires_ns = f64::INFINITY;
        self.bits = 0;
    }

    /// Traversals advanced so far.
    pub fn traversals(&self) -> u64 {
        self.traversals
    }

    /// Runs one traversal of `data` over `channel` at simulated time
    /// `now_ns`; returns the number of bits flipped. Traversals before the
    /// cached predicted error cost zero RNG draws and zero channel calls.
    pub fn advance<C: Channel + ?Sized>(
        &mut self,
        channel: &mut C,
        data: &mut [u8],
        now_ns: f64,
        rng: &mut dyn RngCore,
    ) -> usize {
        if self.step(channel, (data.len() * 8) as u64, now_ns, rng) {
            self.corrupt_event(channel, data, now_ns, rng)
        } else {
            0
        }
    }

    /// Advances one traversal of a `bits`-bit flit *without touching any
    /// flit bytes*: returns `true` iff this traversal is the predicted error
    /// event, performing only the prediction-(re)sampling draws `advance`
    /// would. On a hit the caller MUST follow up with exactly one
    /// [`Self::corrupt_event`] call before the next `step` — the split
    /// exists so engines that keep flits in an un-materialised "known clean"
    /// form can encode wire bytes lazily, only when a traversal actually
    /// corrupts them, while preserving `advance`'s RNG draw order exactly.
    pub fn step<C: Channel + ?Sized>(
        &mut self,
        channel: &mut C,
        bits: u64,
        now_ns: f64,
        rng: &mut dyn RngCore,
    ) -> bool {
        self.traversals += 1;
        let t = self.traversals;
        if self.at == 0 || now_ns >= self.expires_ns || bits != self.bits {
            let p = channel.next_error_slot(t, now_ns, bits, rng);
            // A slot in the past means "errs now": clamp so the sentinel
            // and the fire comparison below stay simple.
            self.at = p.slot.max(t);
            self.expires_ns = p.expires_ns;
            self.bits = bits;
        }
        t >= self.at
    }

    /// Performs the error event [`Self::step`] just predicted: corrupts
    /// `data` through the channel and samples the next event. Returns the
    /// number of bits flipped. Must be called exactly once after each
    /// `step` that returned `true`, with a `data` of the same bit length.
    pub fn corrupt_event<C: Channel + ?Sized>(
        &mut self,
        channel: &mut C,
        data: &mut [u8],
        now_ns: f64,
        rng: &mut dyn RngCore,
    ) -> usize {
        debug_assert_eq!((data.len() * 8) as u64, self.bits);
        let t = self.traversals;
        let flipped = channel.corrupt_at_event(data, now_ns, rng);
        let next = channel.next_error_slot(t.saturating_add(1), now_ns, self.bits, rng);
        self.at = next.slot.max(t.saturating_add(1));
        self.expires_ns = next.expires_ns;
        flipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ideal_channel_never_corrupts() {
        let mut rng = StdRng::seed_from_u64(1);
        let ch = ChannelErrorModel::ideal();
        let mut data = vec![0xAB; 256];
        let orig = data.clone();
        assert_eq!(ch.apply(&mut data, &mut rng), 0);
        assert_eq!(data, orig);
    }

    #[test]
    fn high_ber_corrupts_roughly_the_expected_number_of_bits() {
        let mut rng = StdRng::seed_from_u64(2);
        let ch = ChannelErrorModel::random(0.01);
        let mut total = 0usize;
        let trials = 200;
        for _ in 0..trials {
            let mut data = vec![0u8; 256];
            total += ch.apply(&mut data, &mut rng);
        }
        let expected = 0.01 * 2048.0 * trials as f64;
        let measured = total as f64;
        assert!(
            (measured - expected).abs() < expected * 0.2,
            "measured {measured}, expected ≈ {expected}"
        );
    }

    #[test]
    fn flip_count_matches_popcount_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        let ch = ChannelErrorModel::random(0.005);
        let mut data = vec![0u8; 512];
        let flipped = ch.apply(&mut data, &mut rng);
        let ones: usize = data.iter().map(|b| b.count_ones() as usize).sum();
        assert_eq!(flipped, ones);
    }

    #[test]
    fn burst_model_produces_longer_bursts() {
        let mut rng = StdRng::seed_from_u64(4);
        let bursty = ChannelErrorModel {
            ber: 0.002,
            burst: Some(BurstModel { continue_prob: 0.8 }),
        };
        let plain = ChannelErrorModel::random(0.002);
        let mut bursty_bits = 0;
        let mut plain_bits = 0;
        for _ in 0..300 {
            let mut a = vec![0u8; 256];
            let mut b = vec![0u8; 256];
            bursty_bits += bursty.apply(&mut a, &mut rng);
            plain_bits += plain.apply(&mut b, &mut rng);
        }
        assert!(
            bursty_bits > plain_bits * 2,
            "burst extension should multiply flipped bits: {bursty_bits} vs {plain_bits}"
        );
    }

    #[test]
    fn unit_error_probability_matches_the_paper_eqn_1() {
        // FER = 1 − (1 − BER)^2048 ≈ 2.0e-3 at BER 1e-6.
        let ch = ChannelErrorModel::random(1e-6);
        let fer = ch.unit_error_probability(2048);
        assert!((fer - 2.046e-3).abs() < 5e-5, "fer = {fer}");
    }

    #[test]
    fn unit_error_probability_survives_huge_bit_counts() {
        // 4e9 bits does not fit in an i32; the old powi(bits as i32) form
        // would have wrapped the exponent. The expm1/ln1p closed form gives
        // 1 − (1 − 1e-12)^(4e9) = 1 − exp(4e9 · ln(1 − 1e-12)) ≈ 3.992e-3.
        let ch = ChannelErrorModel::random(1e-12);
        let bits = 4_000_000_000usize;
        assert!(bits > i32::MAX as usize);
        let p = ch.unit_error_probability(bits);
        let reference = -f64::exp_m1(bits as f64 * f64::ln_1p(-1e-12));
        assert!((p - reference).abs() < 1e-15, "p = {p}");
        assert!((p - 3.992e-3).abs() < 1e-5, "p = {p}");
        // Small-bit agreement with the naive closed form stays tight.
        let small = ChannelErrorModel::random(1e-6);
        let naive = 1.0 - (1.0 - 1e-6f64).powi(2048);
        assert!((small.unit_error_probability(2048) - naive).abs() < 1e-12);
        // Degenerate inputs.
        assert_eq!(ch.unit_error_probability(0), 0.0);
        assert_eq!(ChannelErrorModel::ideal().unit_error_probability(2048), 0.0);
    }

    #[test]
    fn scaled_keeps_burst_configuration() {
        let base = ChannelErrorModel::cxl3();
        let fast = base.scaled(1000.0);
        assert!((fast.ber - 1e-3).abs() < 1e-12);
        assert_eq!(fast.burst, base.burst);
        // Scaling cannot exceed probability 1.
        assert!(base.scaled(1e9).ber < 1.0);
    }

    #[test]
    #[should_panic]
    fn invalid_ber_is_rejected() {
        let _ = ChannelErrorModel::random(1.5);
    }

    #[test]
    fn scaling_clamps_into_the_valid_ber_range() {
        let base = ChannelErrorModel::cxl3();
        // Any scaled result must stay constructible via the asserting
        // constructor, i.e. inside [0, 1).
        for factor in [0.0, 1.0, 1e6, 1e9, 1e30, f64::INFINITY] {
            let scaled = base.scaled(factor);
            assert!(
                (0.0..1.0).contains(&scaled.ber),
                "factor {factor}: ber {} escaped [0, 1)",
                scaled.ber
            );
            let _ = ChannelErrorModel::random(scaled.ber);
        }
        assert_eq!(base.scaled(f64::INFINITY).ber, MAX_BER);
        // Degenerate factors clamp to an ideal channel, not a negative or
        // NaN probability.
        assert_eq!(base.scaled(-5.0).ber, 0.0);
        assert_eq!(base.scaled(f64::NAN).ber, 0.0);
        assert_eq!(clamp_ber(2.0), MAX_BER);
        assert_eq!(clamp_ber(0.25), 0.25);
    }

    #[test]
    fn channel_trait_matches_apply_for_the_stationary_model() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let model = ChannelErrorModel::random(0.01);
        let mut dynamic = model;
        let mut data_a = vec![0u8; 128];
        let mut data_b = vec![0u8; 128];
        let flipped_a = model.apply(&mut data_a, &mut a);
        let flipped_b = Channel::corrupt(&mut dynamic, &mut data_b, 123.0, &mut b);
        assert_eq!(flipped_a, flipped_b);
        assert_eq!(data_a, data_b);
        // Same draws consumed: the streams stay in lockstep afterwards.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn degenerate_probabilities_sample_without_drawing() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut twin = StdRng::seed_from_u64(11);
        assert_eq!(geometric_failures(0.0, &mut rng), u64::MAX);
        assert_eq!(geometric_failures(-1.0, &mut rng), u64::MAX);
        assert_eq!(geometric_failures(f64::NAN, &mut rng), u64::MAX);
        assert_eq!(geometric_failures(1.0, &mut rng), 0);
        assert_eq!(geometric_failures(2.0, &mut rng), 0);
        // No draw happened: the stream is still in lockstep with its twin.
        assert_eq!(rng.next_u64(), twin.next_u64());
    }

    proptest! {
        /// The shared sampler at extreme probabilities: near-zero p must
        /// produce huge (mean 1/p) but finite, non-panicking jumps; p near
        /// MAX_BER must produce (almost always) zero jumps; and every
        /// in-range p consumes exactly one draw.
        #[test]
        fn geometric_sampler_extremes(seed in 0u64..512, tiny_exp in 9i32..300, big_steps in 0u64..1_000_000) {
            let tiny = 10f64.powi(-tiny_exp);
            let p_big = MAX_BER - big_steps as f64 * 1e-12;
            let mut rng = StdRng::seed_from_u64(seed);
            let g_tiny = geometric_failures(tiny, &mut rng);
            // Mean 1/tiny ≥ 1e9; a jump below 100 has probability < 1e-7
            // per draw — rule out only the pathological zero to stay
            // deterministic across the strategy space.
            prop_assert!(g_tiny >= 1, "tiny p {tiny} jumped only {g_tiny}");
            let g_big = geometric_failures(p_big, &mut rng);
            prop_assert!(g_big <= 2, "p {p_big} jumped {g_big}");
            // Exactly one draw per in-range sample: twin stream proof.
            let mut a = StdRng::seed_from_u64(seed ^ 0xDEAD);
            let mut b = StdRng::seed_from_u64(seed ^ 0xDEAD);
            let _ = geometric_failures(tiny, &mut a);
            let _ = b.random::<f64>();
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }

        /// Jump composition is exact: skipping ahead with the whole-flit
        /// probability and then conditioning within the flit yields the
        /// same mean error-start count per traversal as per-flit Bernoulli.
        #[test]
        fn conditioned_corruption_always_flips(seed in 0u64..256, ber_steps in 1u32..5000) {
            let ber = ber_steps as f64 * 1e-4;
            let ch = ChannelErrorModel::random(ber);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut data = vec![0u8; 32];
            let flipped = ch.apply_conditioned(&mut data, &mut rng);
            prop_assert!(flipped >= 1, "conditioned corruption must err");
            let ones: usize = data.iter().map(|b| b.count_ones() as usize).sum();
            prop_assert_eq!(flipped, ones);
        }
    }

    #[test]
    fn conditioned_first_bit_is_truncated_geometric() {
        // With n=16 bits and high BER the truncation matters: the mean of
        // the conditional first-error position must match the closed form
        // sum_{j<n} j·q^j·p / p_unit, not the unconditional 1/p − 1.
        let ber = 0.1f64;
        let n_bits = 16usize;
        let ch = ChannelErrorModel::random(ber);
        let p_unit = ch.unit_error_probability(n_bits);
        let expected: f64 = (0..n_bits)
            .map(|j| j as f64 * (1.0 - ber).powi(j as i32) * ber / p_unit)
            .sum();
        let mut rng = StdRng::seed_from_u64(77);
        let trials = 200_000;
        let mut sum = 0.0;
        for _ in 0..trials {
            let mut data = [0u8; 2];
            ch.apply_conditioned(&mut data, &mut rng);
            let first = (0..n_bits)
                .find(|&b| data[b / 8] & (1 << (b % 8)) != 0)
                .expect("at least one flip") as f64;
            sum += first;
        }
        let mean = sum / trials as f64;
        assert!(
            (mean - expected).abs() < 0.05,
            "mean first bit {mean}, expected {expected}"
        );
    }

    #[test]
    fn event_cursor_matches_per_flit_bernoulli_statistics() {
        // Error-traversal frequency under skip-ahead must match the
        // per-traversal Bernoulli probability p_unit.
        let ch = ChannelErrorModel::random(2e-3);
        let p_unit = ch.unit_error_probability(64 * 8);
        let traversals = 100_000u64;
        let mut skip = ch;
        let mut cursor = EventCursor::new();
        let mut rng = StdRng::seed_from_u64(21);
        let mut dirty = 0u64;
        for s in 0..traversals {
            let mut data = [0u8; 64];
            if cursor.advance(&mut skip, &mut data, s as f64, &mut rng) > 0 {
                dirty += 1;
            }
        }
        let expected = p_unit * traversals as f64;
        let sigma = (traversals as f64 * p_unit * (1.0 - p_unit)).sqrt();
        assert!(
            (dirty as f64 - expected).abs() < 4.0 * sigma,
            "dirty {dirty}, expected {expected} ± {sigma}"
        );
    }

    #[test]
    fn event_cursor_is_draw_free_on_an_ideal_channel() {
        let mut ch = ChannelErrorModel::ideal();
        let mut cursor = EventCursor::new();
        let mut rng = StdRng::seed_from_u64(5);
        let mut twin = StdRng::seed_from_u64(5);
        for s in 0..10_000u64 {
            let mut data = [0xA5u8; 64];
            assert_eq!(cursor.advance(&mut ch, &mut data, s as f64, &mut rng), 0);
            assert!(data.iter().all(|&b| b == 0xA5));
        }
        // Ten thousand quiet traversals: not one draw.
        assert_eq!(rng.next_u64(), twin.next_u64());
    }

    #[test]
    fn event_cursor_reset_resamples_from_the_new_channel() {
        let mut cursor = EventCursor::new();
        let mut noisy = ChannelErrorModel::random(0.5);
        let mut rng = StdRng::seed_from_u64(3);
        let mut data = [0u8; 8];
        // Drive a few traversals on a noisy channel, then reset and swap in
        // an ideal one: no further flips, no further draws.
        for s in 0..32u64 {
            let mut d = [0u8; 8];
            let _ = cursor.advance(&mut noisy, &mut d, s as f64, &mut rng);
        }
        cursor.reset();
        let mut ideal = ChannelErrorModel::ideal();
        let mut twin = rng.clone();
        for s in 32..64u64 {
            assert_eq!(cursor.advance(&mut ideal, &mut data, s as f64, &mut rng), 0);
        }
        assert_eq!(rng.next_u64(), twin.next_u64());
        assert_eq!(cursor.traversals(), 64);
    }
}
