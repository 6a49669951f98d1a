//! Latency telemetry aggregation: an HDR-style log-bucketed histogram and
//! the summary statistics the sweep reports print.
//!
//! The fabric engine keeps no latency state of its own: it reports inject
//! and deliver events on its probe seam, and a [`LatencyProbe`] riding each
//! trial joins them into slot-denominated latencies. Monte-Carlo shards
//! merge the per-trial [`Histogram`]s exactly (elementwise counter
//! addition), so a sharded sweep aggregates bit-identically for any
//! worker-thread count.

use std::fmt;

use rxl_fabric::{DeliverEvent, InjectEvent, Probe, SpanJoin};

/// An HDR-style log-bucketed histogram of `u64` values.
///
/// Every power-of-two range `[2^k, 2^(k+1))` is split into `2^SUB_BITS`
/// linear sub-buckets, so any recorded value lands in a bucket whose width
/// is at most `2^-SUB_BITS` (12.5% at the default `SUB_BITS = 3`) of its
/// magnitude; values below `2^SUB_BITS` get one exact bucket each. The
/// bucket layout covers **all** of `u64` — recording 0 or `u64::MAX` is
/// total, no clamping, no panics.
///
/// `record` is integer-only (a `leading_zeros`, a shift, a mask — no
/// floats) and touches a fixed-size array: no allocation ever. `BUCKETS`
/// must equal `(64 − SUB_BITS + 1) × 2^SUB_BITS`, checked at compile time;
/// use the [`LatencyHistogram`] alias unless you need a custom resolution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram<const SUB_BITS: u32, const BUCKETS: usize> {
    counts: [u64; BUCKETS],
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// The workspace's standard latency histogram: 12.5% worst-case bucket
/// width over the full `u64` range, 496 buckets, ~4 KiB.
pub type LatencyHistogram = Histogram<3, 496>;

impl<const SUB_BITS: u32, const BUCKETS: usize> Default for Histogram<SUB_BITS, BUCKETS> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const SUB_BITS: u32, const BUCKETS: usize> Histogram<SUB_BITS, BUCKETS> {
    /// Compile-time layout check: `BUCKETS` must cover u64 exactly.
    const LAYOUT_OK: () = assert!(
        BUCKETS == (64 - SUB_BITS as usize + 1) << SUB_BITS,
        "BUCKETS must equal (64 - SUB_BITS + 1) * 2^SUB_BITS"
    );

    /// An empty histogram.
    pub fn new() -> Self {
        #[allow(clippy::let_unit_value)]
        let () = Self::LAYOUT_OK;
        Histogram {
            counts: [0; BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index of `value` — a `leading_zeros`, a shift and a mask.
    #[inline]
    pub fn index_of(value: u64) -> usize {
        if value < (1 << SUB_BITS) {
            value as usize
        } else {
            let msb = 63 - value.leading_zeros();
            let group = (msb - SUB_BITS + 1) as usize;
            let offset = ((value >> (msb - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize;
            (group << SUB_BITS) + offset
        }
    }

    /// The smallest value that lands in bucket `index` (the inverse of
    /// [`Self::index_of`] up to bucket resolution).
    pub fn bucket_low(index: usize) -> u64 {
        assert!(index < BUCKETS, "bucket index out of range");
        let group = index >> SUB_BITS;
        if group == 0 {
            index as u64
        } else {
            let offset = (index & ((1 << SUB_BITS) - 1)) as u64;
            let msb = group as u32 + SUB_BITS - 1;
            (1u64 << msb) + (offset << (msb - SUB_BITS))
        }
    }

    /// Records one value. Total over all of `u64`; never panics, never
    /// allocates.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::index_of(value)] += 1;
        self.total += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges `other` in. `merge` is exact: merging two histograms equals
    /// recording the concatenation of their input streams (elementwise
    /// counter addition — pinned by a property test).
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Number of recorded values above `threshold`, at bucket resolution:
    /// every value in a strictly higher bucket counts, values sharing
    /// `threshold`'s bucket do not. SLO accounting ("deliveries slower than
    /// the objective") divides this by [`Self::count`]; the ≤12.5% bucket
    /// width is far below the burn-rate thresholds it feeds.
    pub fn count_above(&self, threshold: u64) -> u64 {
        self.counts[Self::index_of(threshold) + 1..].iter().sum()
    }

    /// The value at quantile `q ∈ [0, 1]`: the lower bound of the bucket
    /// holding the `ceil(q·n)`-th smallest recorded value, clamped into the
    /// exact `[min, max]` envelope. Monotone non-decreasing in `q` (pinned
    /// by a property test); 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        if rank == self.total {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_low(i).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// Summary statistics of one latency distribution, in flit slots.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: u64,
    /// Exact mean latency (slots).
    pub mean: f64,
    /// Median (bucket-resolution, slots).
    pub p50: u64,
    /// 90th percentile (slots).
    pub p90: u64,
    /// 99th percentile (slots).
    pub p99: u64,
    /// 99.9th percentile (slots).
    pub p999: u64,
    /// Exact maximum (slots).
    pub max: u64,
}

impl LatencyStats {
    /// Summarises a histogram.
    pub fn from_histogram<const S: u32, const B: usize>(h: &Histogram<S, B>) -> Self {
        LatencyStats {
            count: h.count(),
            mean: h.mean(),
            p50: h.quantile(0.50),
            p90: h.quantile(0.90),
            p99: h.quantile(0.99),
            p999: h.quantile(0.999),
            max: h.max(),
        }
    }
}

impl fmt::Display for LatencyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} p50={} p90={} p99={} p99.9={} max={} slots",
            self.count, self.mean, self.p50, self.p90, self.p99, self.p999, self.max
        )
    }
}

/// Times every message of a trial from injection to first delivery.
///
/// `on_inject` opens the message's span in a [`SpanJoin`] carrying the
/// inject slot, and the first `on_deliver` of the message closes it
/// straight into [`Self::hist`]. For paced injection the span opens at the
/// message's arrival slot; greedy injection opens everything at slot 0, so
/// latency includes head-of-line waiting in the endpoint's message queue.
#[derive(Clone, Debug, Default)]
pub struct LatencyProbe {
    spans: SpanJoin<u64>,
    /// Injection→delivery latencies of both directions, in slots.
    pub hist: LatencyHistogram,
    /// Deliveries that found no open span: duplicate deliveries of an
    /// already-timed message (the first delivery closed its span).
    pub untracked: u64,
}

impl Probe for LatencyProbe {
    fn on_inject(&mut self, ev: InjectEvent) {
        self.spans.open(ev.dst, ev.tag, ev.key, ev.slot);
    }

    fn on_deliver(&mut self, ev: DeliverEvent) {
        match self.spans.close(ev.dst, ev.tag, ev.key) {
            Some(injected_at) => self.hist.record(ev.slot - injected_at),
            None => self.untracked += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxl_fabric::{
        CountingProbe, FabricConfig, FabricSim, FabricTopology, FabricWorkload, RoutingTable,
    };
    use rxl_link::{ChannelErrorModel, ProtocolVariant};

    /// One leaf–spine trial carrying a [`LatencyProbe`] beside a
    /// [`CountingProbe`] (an independent count of deliver events).
    fn timed_trial(config: FabricConfig, messages: usize) -> (LatencyProbe, CountingProbe) {
        let t = FabricTopology::leaf_spine(2, 1, 2);
        let routing = RoutingTable::new(&t);
        let workload = FabricWorkload::symmetric(t.session_count(), messages, 8, 7);
        let probes = (LatencyProbe::default(), CountingProbe::default());
        let mut sim = FabricSim::with_probe(&t, &routing, config, probes);
        sim.begin(&workload);
        let _ = sim.step(u64::MAX);
        let (report, probes) = sim.finish_with_probe();
        assert!(report.drained);
        probes
    }

    #[test]
    fn latency_probe_times_every_message_once() {
        let ideal =
            FabricConfig::new(ProtocolVariant::Rxl).with_channel(ChannelErrorModel::ideal());
        for config in [ideal, ideal.with_offered_load(0.1)] {
            let (lat, counted) = timed_trial(config, 45);
            // 4 sessions x 2 directions x 45 messages, each timed once.
            assert_eq!(lat.hist.count(), 4 * 2 * 45);
            assert_eq!(lat.hist.count(), counted.injects);
            assert_eq!(lat.untracked, 0);
            // Every sample covers at least the 3-hop path (leaf, spine,
            // leaf), and queueing makes the samples non-trivial.
            assert!(lat.hist.min() >= 3);
            assert!(lat.hist.max() > lat.hist.min());
        }

        // Baseline CXL on a noisy channel re-delivers replayed messages:
        // the duplicates are counted beside the distribution, not in it.
        let noisy = FabricConfig::new(ProtocolVariant::CxlPiggyback)
            .with_channel(ChannelErrorModel::random(2e-4));
        let (lat, counted) = timed_trial(noisy, 400);
        assert!(
            lat.untracked > 0,
            "the noisy CXL run produced no duplicates"
        );
        assert_eq!(lat.hist.count() + lat.untracked, counted.delivers);
        assert!(lat.hist.count() <= counted.injects);
    }

    #[test]
    fn latency_probe_measures_queueing_delay_growth_with_load() {
        // At a near-saturating load the same workload must show a higher
        // mean latency than at a light load (queueing delay).
        let mean_at = |load: f64| {
            let config = FabricConfig::new(ProtocolVariant::Rxl)
                .with_channel(ChannelErrorModel::ideal())
                .with_offered_load(load);
            timed_trial(config, 150).0.hist.mean()
        };
        let light = mean_at(0.02);
        let heavy = mean_at(0.9);
        assert!(
            heavy > 2.0 * light,
            "queueing delay must grow with load: light {light}, heavy {heavy}"
        );
    }

    #[test]
    fn exact_below_the_sub_bucket_threshold() {
        let mut h = LatencyHistogram::new();
        for v in 0..8u64 {
            h.record(v);
            assert_eq!(LatencyHistogram::index_of(v), v as usize);
            assert_eq!(LatencyHistogram::bucket_low(v as usize), v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 7);
        assert!((h.mean() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn extremes_are_total() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(LatencyHistogram::index_of(u64::MAX), 495);
    }

    #[test]
    fn quantiles_of_a_known_stream() {
        let mut h = LatencyHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // Bucket resolution is 12.5%, so pin with tolerance.
        let p50 = h.quantile(0.5);
        assert!((44..=50).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((88..=99).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile(1.0), 100);
        assert_eq!(h.quantile(0.0), 1);
    }

    #[test]
    fn count_above_matches_the_bucket_layout() {
        let mut h = LatencyHistogram::new();
        for v in [1u64, 2, 3, 100, 200, 4000] {
            h.record(v);
        }
        // Thresholds below the sub-bucket limit are exact.
        assert_eq!(h.count_above(2), 4);
        assert_eq!(h.count_above(0), 6);
        // Everything above the maximum counts nothing, even at u64::MAX.
        assert_eq!(h.count_above(4000), 0);
        assert_eq!(h.count_above(u64::MAX), 0);
        // A threshold between populated buckets counts exactly the tail.
        assert_eq!(h.count_above(1000), 1);
        assert_eq!(LatencyHistogram::new().count_above(0), 0);
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        let stats = LatencyStats::from_histogram(&h);
        assert_eq!(stats.count, 0);
    }

    #[test]
    fn merge_equals_concatenated_recording() {
        let (mut a, mut b, mut both) = (
            LatencyHistogram::new(),
            LatencyHistogram::new(),
            LatencyHistogram::new(),
        );
        for v in [3u64, 17, 900, 12_345, 3] {
            a.record(v);
            both.record(v);
        }
        for v in [0u64, 5_000_000, 17] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn display_mentions_the_tail() {
        let mut h = LatencyHistogram::new();
        for v in [4u64, 5, 6, 900] {
            h.record(v);
        }
        let s = LatencyStats::from_histogram(&h).to_string();
        assert!(s.contains("p99"), "{s}");
        assert!(s.contains("max=900"), "{s}");
    }
}
