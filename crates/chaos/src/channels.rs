//! Time-varying channel models.
//!
//! The paper's channel model (PAPER.md §2.2) assumes independent bit errors
//! at one stationary BER. Real fabrics break that assumption in two
//! characteristic ways, each modelled here as an implementation of the
//! [`Channel`] trait from `rxl-link`:
//!
//! * [`GilbertElliott`] — a two-state bursty channel: long stretches of a
//!   *good* BER interrupted by *bad*-state storms with a much higher BER,
//!   the classic model for correlated link-quality excursions;
//! * [`BerSchedule`] — a piecewise-stationary BER: the channel switches
//!   between static operating points at configured simulation times
//!   (degradation ramps, maintenance windows).
//!
//! Both follow the RNG-draw-order rules documented on [`Channel`]:
//! randomness only from the passed RNG, draw counts a deterministic function
//! of channel state and inputs, and **no draws for deterministic decisions**
//! — a Gilbert–Elliott channel pinned to its good state by zero transition
//! probabilities, or an all-ideal schedule, consumes exactly the draws of
//! the static model it degenerates to (none, when ideal), which keeps it
//! bit-identical to [`ChannelErrorModel::ideal`].
//!
//! Both also implement the event-jump half of the trait
//! ([`Channel::next_error_slot`] / [`Channel::corrupt_at_event`]):
//! Gilbert–Elliott samples geometric state-dwell lengths and walks dwell
//! segments until one contains an error event, while the schedule samples
//! a geometric jump under the currently active model and expires the
//! prediction at its next time boundary — discarding an unexpired jump at a
//! boundary is distribution-exact because the per-traversal error process
//! is memoryless.

use rand::{Rng, RngCore};
use rxl_link::{geometric_failures, Channel, ChannelErrorModel, ErrorPrediction};

/// Which state a [`GilbertElliott`] channel is in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GeState {
    /// The low-BER operating state.
    Good,
    /// The high-BER storm state.
    Bad,
}

/// A two-state Gilbert–Elliott bursty channel.
///
/// Before each flit traversal the state machine takes one step: from `Good`
/// it enters `Bad` with probability `p_good_to_bad`, from `Bad` it recovers
/// with probability `p_bad_to_good`; the flit is then corrupted by the
/// current state's [`ChannelErrorModel`]. State dwell times are therefore
/// geometric with means `1/p_good_to_bad` and `1/p_bad_to_good` flits, and
/// the long-run fraction of flits seeing the bad state is
/// `p_good_to_bad / (p_good_to_bad + p_bad_to_good)` — see
/// [`Self::stationary_ber`], whose value the property-test suite pins the
/// simulated long-run error rate against.
///
/// Under the event-jump path ([`Channel::next_error_slot`]) the same chain
/// is simulated dwell-by-dwell: state residence lengths are sampled
/// geometrically and only dwells that contain an error event cost any
/// per-traversal work, so a channel pinned to an ideal good state is
/// entirely draw-free.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GilbertElliott {
    /// Error model of the good state.
    pub good: ChannelErrorModel,
    /// Error model of the bad state.
    pub bad: ChannelErrorModel,
    /// Per-flit probability of a good → bad transition.
    pub p_good_to_bad: f64,
    /// Per-flit probability of a bad → good recovery.
    pub p_bad_to_good: f64,
    state: GeState,
    /// Event-jump dwell bookkeeping: the traversal index at which the state
    /// machine next flips, or `0` when the current dwell has not been
    /// sampled yet (traversal indices handed to [`Channel::next_error_slot`]
    /// by [`rxl_link::EventCursor`] start at 1, so 0 is a free sentinel).
    /// Only the skip-ahead path uses this; the legacy per-traversal
    /// [`Channel::corrupt`] path clears it so the two entry points can't
    /// disagree about the dwell.
    flip_at: u64,
}

impl GilbertElliott {
    /// Creates the channel in its good state.
    pub fn new(
        good: ChannelErrorModel,
        bad: ChannelErrorModel,
        p_good_to_bad: f64,
        p_bad_to_good: f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_good_to_bad) && (0.0..=1.0).contains(&p_bad_to_good),
            "transition probabilities must be in [0, 1]"
        );
        GilbertElliott {
            good,
            bad,
            p_good_to_bad,
            p_bad_to_good,
            state: GeState::Good,
            flip_at: 0,
        }
    }

    /// The current state.
    pub fn state(&self) -> GeState {
        self.state
    }

    /// Long-run fraction of flit traversals spent in the bad state.
    pub fn stationary_bad_fraction(&self) -> f64 {
        let denom = self.p_good_to_bad + self.p_bad_to_good;
        if denom == 0.0 {
            // No transitions ever: the channel stays in its initial (good)
            // state forever.
            return 0.0;
        }
        self.p_good_to_bad / denom
    }

    /// Long-run average error-start rate per transmitted bit: the
    /// state-occupancy-weighted mix of the two BERs. Burst extensions
    /// multiply the *flipped bit* count beyond this rate, exactly as they do
    /// for the stationary model.
    pub fn stationary_ber(&self) -> f64 {
        let pi_bad = self.stationary_bad_fraction();
        self.good.ber * (1.0 - pi_bad) + self.bad.ber * pi_bad
    }

    /// Returns the channel scaled by `factor` in both states (BER storms
    /// compose multiplicatively with bursty channels).
    pub fn scaled(&self, factor: f64) -> Self {
        GilbertElliott {
            good: self.good.scaled(factor),
            bad: self.bad.scaled(factor),
            ..*self
        }
    }
}

impl GilbertElliott {
    /// The probability of leaving the current state on one traversal.
    fn p_leave(&self) -> f64 {
        match self.state {
            GeState::Good => self.p_good_to_bad,
            GeState::Bad => self.p_bad_to_good,
        }
    }

    fn flip_state(&mut self) {
        self.state = match self.state {
            GeState::Good => GeState::Bad,
            GeState::Bad => GeState::Good,
        };
    }
}

impl Channel for GilbertElliott {
    fn corrupt(&mut self, data: &mut [u8], _now_ns: f64, rng: &mut dyn RngCore) -> usize {
        // Legacy per-traversal stepping invalidates any dwell the skip-ahead
        // path may have sampled; the two entry points must never disagree
        // about when the state flips.
        self.flip_at = 0;
        // One state-machine step per traversal. A zero-probability
        // transition is deterministic and must not consume a draw (see the
        // trait's draw-order rules).
        let p = self.p_leave();
        if p > 0.0 && rng.random_bool(p) {
            self.flip_state();
        }
        match self.state {
            GeState::Good => self.good.apply(data, rng),
            GeState::Bad => self.bad.apply(data, rng),
        }
    }

    fn next_error_slot(
        &mut self,
        now_slot: u64,
        _now_ns: f64,
        bits: u64,
        rng: &mut dyn RngCore,
    ) -> ErrorPrediction {
        let p_good = self.good.unit_error_probability(bits as usize);
        let p_bad = self.bad.unit_error_probability(bits as usize);
        if p_good <= 0.0 && p_bad <= 0.0 {
            // Both states are ideal: the state trajectory is unobservable,
            // so the channel degenerates to ideal with zero draws — exactly
            // what the legacy path does for a pinned all-ideal channel.
            return ErrorPrediction::never();
        }
        // Walk dwell segments from `now_slot` until one contains an error
        // event. Within a dwell the error process is Bernoulli(p_flit) per
        // traversal, so the offset of the first error is Geom₀(p_flit); a
        // candidate that lands at or past the flip is discarded, which is
        // distribution-exact by memorylessness.
        let mut cur = now_slot;
        loop {
            if self.flip_at == 0 {
                // Resuming mid-dwell: memorylessness makes "flip at
                // cur + Geom₀(p_leave)" exact regardless of how long the
                // state has already been occupied. Note the legacy stepper
                // flips *before* corrupting, so a flip at `cur` itself is
                // possible here, unlike after a walked flip below.
                let p = self.p_leave();
                self.flip_at = if p <= 0.0 {
                    u64::MAX
                } else {
                    cur.saturating_add(geometric_failures(p, rng))
                };
            }
            if cur < self.flip_at {
                let p_flit = match self.state {
                    GeState::Good => p_good,
                    GeState::Bad => p_bad,
                };
                if p_flit > 0.0 {
                    let candidate = cur.saturating_add(geometric_failures(p_flit, rng));
                    if candidate < self.flip_at {
                        return ErrorPrediction::at(candidate);
                    }
                }
            }
            if self.flip_at == u64::MAX {
                return ErrorPrediction::never();
            }
            cur = self.flip_at;
            self.flip_state();
            // The new state first applies to traversal `cur` (the legacy
            // stepper corrupts with the post-flip state), so its dwell of
            // 1 + Geom₀(p_leave) traversals ends at cur + that length.
            let p = self.p_leave();
            self.flip_at = if p <= 0.0 {
                u64::MAX
            } else {
                cur.saturating_add(1)
                    .saturating_add(geometric_failures(p, rng))
            };
        }
    }

    fn corrupt_at_event(&mut self, data: &mut [u8], _now_ns: f64, rng: &mut dyn RngCore) -> usize {
        let model = match self.state {
            GeState::Good => self.good,
            GeState::Bad => self.bad,
        };
        model.apply_conditioned(data, rng)
    }
}

/// One piece of a [`BerSchedule`].
#[derive(Clone, Copy, Debug, PartialEq)]
struct Segment {
    /// Simulation time this segment takes effect.
    start_ns: f64,
    model: ChannelErrorModel,
}

/// A piecewise-stationary BER: a sequence of static operating points, each
/// taking effect at a configured simulation time. The segment active at
/// `now_ns` is the last one whose start is ≤ `now_ns`; before the first
/// configured change the `initial` model applies.
#[derive(Clone, Debug, PartialEq)]
pub struct BerSchedule {
    segments: Vec<Segment>,
}

impl BerSchedule {
    /// A schedule that starts at `initial` and never changes (until
    /// [`Self::then_at`] appends later segments).
    pub fn new(initial: ChannelErrorModel) -> Self {
        BerSchedule {
            segments: vec![Segment {
                start_ns: f64::NEG_INFINITY,
                model: initial,
            }],
        }
    }

    /// Appends a segment taking effect at `start_ns`. Starts must be
    /// appended in strictly ascending order.
    pub fn then_at(mut self, start_ns: f64, model: ChannelErrorModel) -> Self {
        let last = self.segments.last().expect("schedule is never empty");
        assert!(
            start_ns > last.start_ns,
            "schedule segments must start in ascending order"
        );
        self.segments.push(Segment { start_ns, model });
        self
    }

    /// The model active at `now_ns`.
    pub fn model_at(&self, now_ns: f64) -> &ChannelErrorModel {
        let idx = self
            .segments
            .iter()
            .rposition(|s| s.start_ns <= now_ns)
            .expect("first segment starts at -inf");
        &self.segments[idx].model
    }

    /// Returns the schedule with every segment start multiplied by `scale`
    /// — how slot-denominated scenario schedules convert to simulation
    /// nanoseconds (`scale` = the flit time) when instantiated.
    pub fn with_time_scale(&self, scale: f64) -> Self {
        assert!(scale > 0.0, "time scale must be positive");
        BerSchedule {
            segments: self
                .segments
                .iter()
                .map(|s| Segment {
                    start_ns: s.start_ns * scale,
                    model: s.model,
                })
                .collect(),
        }
    }

    /// Returns the schedule with every segment's BER scaled by `factor`.
    pub fn scaled(&self, factor: f64) -> Self {
        BerSchedule {
            segments: self
                .segments
                .iter()
                .map(|s| Segment {
                    start_ns: s.start_ns,
                    model: s.model.scaled(factor),
                })
                .collect(),
        }
    }
}

impl Channel for BerSchedule {
    fn corrupt(&mut self, data: &mut [u8], now_ns: f64, rng: &mut dyn RngCore) -> usize {
        let model = *self.model_at(now_ns);
        model.apply(data, rng)
    }

    fn next_error_slot(
        &mut self,
        now_slot: u64,
        now_ns: f64,
        bits: u64,
        rng: &mut dyn RngCore,
    ) -> ErrorPrediction {
        let idx = self
            .segments
            .iter()
            .rposition(|s| s.start_ns <= now_ns)
            .expect("first segment starts at -inf");
        // The prediction is only valid while this segment is active; the
        // cursor resamples at the first traversal past the boundary, which
        // is exact because discarding an unfired memoryless jump is free.
        let expires_ns = self
            .segments
            .get(idx + 1)
            .map_or(f64::INFINITY, |s| s.start_ns);
        let p_flit = self.segments[idx]
            .model
            .unit_error_probability(bits as usize);
        if p_flit <= 0.0 {
            return ErrorPrediction::until(u64::MAX, expires_ns);
        }
        ErrorPrediction::until(
            now_slot.saturating_add(geometric_failures(p_flit, rng)),
            expires_ns,
        )
    }

    fn corrupt_at_event(&mut self, data: &mut [u8], now_ns: f64, rng: &mut dyn RngCore) -> usize {
        let model = *self.model_at(now_ns);
        model.apply_conditioned(data, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gilbert_elliott_stationary_helpers() {
        let ge = GilbertElliott::new(
            ChannelErrorModel::random(1e-6),
            ChannelErrorModel::random(1e-3),
            0.01,
            0.09,
        );
        assert!((ge.stationary_bad_fraction() - 0.1).abs() < 1e-12);
        let expected = 1e-6 * 0.9 + 1e-3 * 0.1;
        assert!((ge.stationary_ber() - expected).abs() < 1e-15);
        // Pinned channel: no transitions, stays good.
        let pinned = GilbertElliott::new(
            ChannelErrorModel::ideal(),
            ChannelErrorModel::random(0.5),
            0.0,
            0.0,
        );
        assert_eq!(pinned.stationary_ber(), 0.0);
    }

    #[test]
    fn gilbert_elliott_visits_both_states() {
        let mut ge = GilbertElliott::new(
            ChannelErrorModel::ideal(),
            ChannelErrorModel::random(0.25),
            0.2,
            0.2,
        );
        let mut rng = StdRng::seed_from_u64(7);
        let (mut clean, mut dirty) = (0, 0);
        for _ in 0..400 {
            let mut data = [0u8; 64];
            if ge.corrupt(&mut data, 0.0, &mut rng) == 0 {
                clean += 1;
            } else {
                dirty += 1;
            }
        }
        assert!(clean > 50, "good state must appear: {clean}");
        assert!(dirty > 50, "bad state must appear: {dirty}");
    }

    #[test]
    fn schedule_picks_the_active_segment() {
        let sched = BerSchedule::new(ChannelErrorModel::ideal())
            .then_at(100.0, ChannelErrorModel::random(1e-3))
            .then_at(200.0, ChannelErrorModel::random(1e-5));
        assert_eq!(sched.model_at(0.0).ber, 0.0);
        assert_eq!(sched.model_at(99.9).ber, 0.0);
        assert_eq!(sched.model_at(100.0).ber, 1e-3);
        assert_eq!(sched.model_at(150.0).ber, 1e-3);
        assert_eq!(sched.model_at(1e9).ber, 1e-5);
    }

    #[test]
    #[should_panic]
    fn schedule_rejects_out_of_order_segments() {
        let _ = BerSchedule::new(ChannelErrorModel::ideal())
            .then_at(100.0, ChannelErrorModel::random(1e-3))
            .then_at(50.0, ChannelErrorModel::random(1e-4));
    }

    #[test]
    fn pinned_good_gilbert_elliott_is_draw_free_under_skip_ahead() {
        let mut ge = GilbertElliott::new(
            ChannelErrorModel::ideal(),
            ChannelErrorModel::random(0.5),
            0.0,
            0.0,
        );
        let mut cursor = rxl_link::EventCursor::new();
        let mut rng = StdRng::seed_from_u64(11);
        let mut twin = StdRng::seed_from_u64(11);
        let mut data = [0u8; 64];
        for slot in 0..10_000u64 {
            assert_eq!(cursor.advance(&mut ge, &mut data, slot as f64, &mut rng), 0);
        }
        // The pinned channel never observes its bad state, so it must be as
        // draw-free as an ideal static channel: the twin stream stayed in
        // lockstep.
        assert_eq!(rng.random::<u64>(), twin.random::<u64>());
        assert_eq!(ge.state(), GeState::Good);
    }

    #[test]
    fn gilbert_elliott_skip_ahead_matches_stationary_statistics() {
        // Good state ideal, bad state noisy: every error event is a bad-state
        // traversal, so the event rate pins both the dwell statistics and the
        // per-traversal error probability at once.
        let ge_template = GilbertElliott::new(
            ChannelErrorModel::random(0.0),
            ChannelErrorModel::random(1e-3),
            0.01,
            0.09,
        );
        let trials = 200_000u64;
        let bits = 64 * 8;
        let p_bad = ge_template.bad.unit_error_probability(bits);
        let expected = trials as f64 * ge_template.stationary_bad_fraction() * p_bad;

        let mut ge = ge_template;
        let mut cursor = rxl_link::EventCursor::new();
        let mut rng = StdRng::seed_from_u64(0xD1CE);
        let mut events = 0u64;
        for slot in 0..trials {
            let mut data = [0u8; 64];
            if cursor.advance(&mut ge, &mut data, slot as f64, &mut rng) > 0 {
                events += 1;
            }
        }
        // Dwell correlation inflates the variance well beyond binomial, so
        // the envelope is generous; it still catches occupancy or rate being
        // off by a state's worth.
        let lo = expected * 0.85;
        let hi = expected * 1.15;
        assert!(
            (events as f64) > lo && (events as f64) < hi,
            "GE skip-ahead event count {events} outside [{lo:.0}, {hi:.0}] (expected {expected:.0})"
        );
    }

    #[test]
    fn schedule_skip_ahead_respects_boundaries() {
        let mut sched = BerSchedule::new(ChannelErrorModel::ideal())
            .then_at(100.0, ChannelErrorModel::random(0.25))
            .then_at(200.0, ChannelErrorModel::ideal());
        let mut cursor = rxl_link::EventCursor::new();
        let mut rng = StdRng::seed_from_u64(5);
        let mut noisy_traversals = 0;
        for slot in 0..1_000u64 {
            let now_ns = slot as f64;
            let mut data = [0u8; 64];
            let flips = cursor.advance(&mut sched, &mut data, now_ns, &mut rng);
            if (100.0..200.0).contains(&now_ns) {
                if flips > 0 {
                    noisy_traversals += 1;
                }
            } else {
                assert_eq!(flips, 0, "ideal segment corrupted at {now_ns}");
            }
        }
        // At BER 0.25 the per-flit error probability is ~1, so essentially
        // every traversal inside the noisy window fires.
        assert!(
            noisy_traversals > 95,
            "noisy window barely fired: {noisy_traversals}/100"
        );
    }
}
