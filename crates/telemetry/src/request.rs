//! Request-scale observability: per-request span tracing over the probe
//! seam, straggler attribution, the open-system request sweep driver, and
//! the operating-point recommender.
//!
//! `rxl-load`'s [`RequestGenerator`] maps an open-loop arrival process into
//! fanout cohorts of message spans; this module closes the loop on the
//! observation side:
//!
//! * [`RequestProbe`] — a [`rxl_fabric::Probe`] that joins engine delivery
//!   events back to requests through a [`SpanJoin`] pre-filled from the
//!   trial's [`RequestMap`], records a request completion at the **max**
//!   of its shard deliveries, attributes
//!   each completion's critical path to the straggling shard's session, and
//!   folds request-level latency/availability into a
//!   [`WindowedTelemetry`] (plus, optionally, per-shard spans and
//!   `request_complete` instants into a bounded [`TraceRecorder`]).
//! * [`RequestSweep`] — the open-system ladder driver: per rung, each trial
//!   builds its request workload from the trial seed alone, runs
//!   [`rxl_fabric::FabricSim::run_to_horizon`] (no drain tail), and the
//!   per-trial probes/registries merge exactly in trial order — the whole
//!   report is bit-identical for any rayon worker-thread count.
//! * [`StragglerLink`] — the join between straggler sessions and the
//!   spatial [`BottleneckReport`]: which physical link on the straggling
//!   session's path ranks hottest, i.e. the *link behind the straggler*.
//! * [`OperatingPoint`] — the recommender: the highest ladder load whose
//!   warmup-discarded steady-state request tail meets an [`SloSpec`],
//!   named together with the binding bottleneck link.
//!
//! Per the probe seam's contract none of this touches the trial RNG, so a
//! probed trial is byte-identical to an unprobed one (pinned by
//! `tests/telemetry_neutrality.rs`).

use std::fmt;
use std::num::NonZeroU32;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

use rxl_fabric::{
    DeliverEvent, FabricConfig, FabricSim, FabricTopology, InjectEvent, Probe, RoutingTable,
    SpanJoin,
};
use rxl_flit::MESSAGES_PER_FLIT;
use rxl_load::{
    detect_knee, ArrivalProcess, FanoutShape, LoadPoint, RequestGenerator, RequestMap,
    MAX_STREAM_MESSAGES,
};
use rxl_sim::trial_seed;
use rxl_transport::{DeliveryVerdict, FailureCounts};

use crate::metrics::{BottleneckReport, LinkPressure, MetricsProbe, MetricsRegistry};
use crate::slo::SloSpec;
use crate::trace::{InstantKind, TraceRecorder};
use crate::window::{SteadyStateSummary, WindowedTelemetry};

/// Salt separating the request-arrival RNG stream from the engine's channel
/// RNG and from `rxl_load::sweep`'s message-arrival stream.
const REQUEST_ARRIVAL_SALT: u64 = 0x9E0_5751_CA1E_D000;

/// Per-request join state while shards are in flight.
#[derive(Clone, Debug)]
struct RequestState {
    arrival: u64,
    remaining: u32,
    injected: u32,
    last_deliver: u64,
    straggler_session: u32,
    clean: bool,
}

/// A shard's payload in the request join.
#[derive(Clone, Copy, Debug)]
struct Shard {
    /// Owning request's index plus one: non-zero, so `Option<Shard>` needs
    /// no tag and a join slot stays 16 bytes.
    request: NonZeroU32,
    /// Slots from the request's arrival to the shard's release, written on
    /// injection by a traced probe. Never negative: the arrival is the
    /// earliest of the request's shard release slots.
    released_after: u32,
}

impl Shard {
    fn index(self) -> usize {
        self.request.get() as usize - 1
    }
}

// ≈ 768 000 shard slots live at once in one `serving_subknee` trial.
const _: () = assert!(SpanJoin::<Shard>::SLOT_BYTES <= 16);

/// A [`Probe`] folding engine events into request-level telemetry.
///
/// Construction takes the trial's [`RequestMap`] — the request→shard join
/// table — and resolves each event's span identity back to its request. A
/// request's completion slot is the max of its shard delivery slots; its
/// latency is `completion − arrival`; its critical path is attributed to
/// the session of the shard that delivered last (the *straggler*). Latency
/// lands in the completion slot's window, availability in the arrival
/// slot's window — the same attribution split as the message-level
/// [`crate::SloProbe`].
///
/// # The join
///
/// [`Self::new`] opens every shard of the map in a [`SpanJoin`] up front,
/// each slot carrying its request (see the join's rustdoc for the index and
/// its rules). An injection looks its shard up without retiring it, so
/// injections after the delivery find nothing; the first delivery retires
/// it. A live slot therefore means an undelivered shard, not an open span:
/// a traced probe counts open spans in its recorder. The table costs 16 B
/// per shard message for the life of the trial only ([`Self::finish`]
/// releases it).
///
/// [`RequestProbe::merge`] is exact (windowed-telemetry merge plus counter
/// addition), so merging per-trial probes in trial order is
/// thread-count-independent. Traces do not merge — the first trial's trace
/// stands alone.
#[derive(Clone, Debug)]
pub struct RequestProbe {
    fanout: usize,
    shape: String,
    join: SpanJoin<Shard>,
    states: Vec<RequestState>,
    windows: WindowedTelemetry,
    straggler_counts: Vec<u64>,
    completed: u64,
    started: u64,
    inflight: u64,
    peak_inflight: u64,
    trace: Option<TraceRecorder>,
}

impl RequestProbe {
    /// A probe joining deliveries through `map`, with `window_slots`-slot
    /// request-level windows and straggler counts over `sessions` sessions.
    ///
    /// Panics if two shards of `map` share a `(dst, tag)` — the dense join's
    /// one precondition, which holds for every stream of at most
    /// [`MAX_STREAM_MESSAGES`] messages.
    pub fn new(map: &RequestMap, sessions: usize, window_slots: u64) -> Self {
        // Tags ascend densely within a destination, so each lane grows by
        // one slot per shard as the map is walked.
        let mut join = SpanJoin::default();
        let mut states = Vec::with_capacity(map.len());
        for r in 0..map.len() {
            let request = u32::try_from(r + 1)
                .ok()
                .and_then(NonZeroU32::new)
                .expect("a request map is indexed by u32");
            for shard in map.shards(r) {
                let payload = Shard {
                    request,
                    released_after: 0,
                };
                let displaced = join.open(shard.dst, shard.tag, shard.key, payload);
                assert!(
                    displaced.is_none(),
                    "session {} reuses tag {} at destination {}: the dense join needs (dst, tag) \
                     unique, i.e. at most {MAX_STREAM_MESSAGES} messages per stream \
                     (rxl_load::MAX_STREAM_MESSAGES)",
                    shard.session,
                    shard.tag,
                    shard.dst
                );
            }
            states.push(RequestState {
                arrival: map.arrival_slot(r),
                remaining: map.fanout as u32,
                injected: 0,
                last_deliver: 0,
                straggler_session: 0,
                clean: true,
            });
        }
        RequestProbe {
            fanout: map.fanout,
            shape: map.shape.clone(),
            join,
            states,
            windows: WindowedTelemetry::new(window_slots),
            straggler_counts: vec![0; sessions],
            completed: 0,
            started: 0,
            inflight: 0,
            peak_inflight: 0,
            trace: None,
        }
    }

    /// Like [`Self::new`], plus a bounded trace of per-shard spans and
    /// `request_complete` instants (`trace_capacity` each, oldest evicted).
    pub fn with_trace(
        map: &RequestMap,
        sessions: usize,
        window_slots: u64,
        trace_capacity: usize,
    ) -> Self {
        RequestProbe {
            trace: Some(TraceRecorder::new(trace_capacity)),
            ..RequestProbe::new(map, sessions, window_slots)
        }
    }

    /// Ends the trial: releases the join table and the per-request state
    /// (both dead once the engine stops emitting events) and keeps what
    /// [`Self::merge`] and the exports read — windows, straggler counts,
    /// counters and the trace. A finished probe ignores further events.
    pub fn finish(self) -> Self {
        RequestProbe {
            join: SpanJoin::default(),
            states: Vec::new(),
            ..self
        }
    }

    /// Shards per request.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Fanout-shape label.
    pub fn shape(&self) -> &str {
        &self.shape
    }

    /// The request-level windowed telemetry.
    pub fn windows(&self) -> &WindowedTelemetry {
        &self.windows
    }

    /// Requests whose every shard was delivered.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Requests with at least one shard injected.
    pub fn started(&self) -> u64 {
        self.started
    }

    /// Requests started but not yet complete.
    pub fn inflight(&self) -> u64 {
        self.inflight
    }

    /// Peak concurrently in-flight requests. After [`Self::merge`] this is
    /// the *sum* of per-trial peaks — the fleet-wide peak with trials
    /// modelled as independent replicas.
    pub fn peak_inflight(&self) -> u64 {
        self.peak_inflight
    }

    /// Completed requests whose critical path ended on each session
    /// (straggler attribution), indexed by session.
    pub fn straggler_counts(&self) -> &[u64] {
        &self.straggler_counts
    }

    /// The trace recorder, if this probe was built with one.
    pub fn trace(&self) -> Option<&TraceRecorder> {
        self.trace.as_ref()
    }

    /// Merges another trial's request telemetry in (exact; panics on
    /// differing window lengths or session counts). Traces do not merge.
    pub fn merge(&mut self, other: &RequestProbe) {
        assert_eq!(
            self.straggler_counts.len(),
            other.straggler_counts.len(),
            "cannot merge probes over different session spaces"
        );
        self.windows.merge(&other.windows);
        for (a, b) in self
            .straggler_counts
            .iter_mut()
            .zip(&other.straggler_counts)
        {
            *a += b;
        }
        self.completed += other.completed;
        self.started += other.started;
        self.inflight += other.inflight;
        self.peak_inflight += other.peak_inflight;
    }

    /// Joins straggler sessions to the spatial bottleneck ranking: for each
    /// session with stragglers, the hottest-ranked physical link on that
    /// session's minimal path — the link behind the straggler. Descending
    /// by count, session ascending on ties.
    pub fn straggler_attribution(
        &self,
        topology: &FabricTopology,
        bottleneck: &BottleneckReport,
    ) -> Vec<StragglerLink> {
        let rank_of = |link: usize| bottleneck.links.iter().position(|l| l.link == link);
        let mut out: Vec<StragglerLink> = self
            .straggler_counts
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(session, &count)| {
                let best = session_path_links(topology, session)
                    .into_iter()
                    .min_by_key(|&l| rank_of(l).unwrap_or(usize::MAX))
                    .expect("a session path has at least its endpoint links");
                StragglerLink {
                    session,
                    count,
                    share: count as f64 / self.completed.max(1) as f64,
                    link: best,
                    description: bottleneck
                        .links
                        .iter()
                        .find(|l| l.link == best)
                        .map(|l| l.description.clone())
                        .unwrap_or_default(),
                    bottleneck_rank: rank_of(best),
                }
            })
            .collect();
        out.sort_by(|a, b| b.count.cmp(&a.count).then(a.session.cmp(&b.session)));
        out
    }

    /// Prometheus exposition of the request-level metric families:
    /// `rxl_request_latency_p99` (steady-state request p99, slots),
    /// `rxl_request_inflight` (peak in-flight requests) and
    /// `rxl_request_straggler_link` (completions whose critical path ended
    /// behind each link).
    pub fn prometheus(
        &self,
        topology: &FabricTopology,
        steady: &SteadyStateSummary,
        bottleneck: &BottleneckReport,
    ) -> String {
        use std::fmt::Write;
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let mut out = String::new();
        let labels = format!("fanout=\"{}\",shape=\"{}\"", self.fanout, esc(&self.shape));
        writeln!(
            out,
            "# HELP rxl_request_latency_p99 steady-state request completion latency p99 (slots)"
        )
        .unwrap();
        writeln!(out, "# TYPE rxl_request_latency_p99 gauge").unwrap();
        writeln!(
            out,
            "rxl_request_latency_p99{{{labels}}} {}",
            steady.stats.p99
        )
        .unwrap();
        writeln!(
            out,
            "# HELP rxl_request_inflight peak in-flight requests (per-trial peaks summed)"
        )
        .unwrap();
        writeln!(out, "# TYPE rxl_request_inflight gauge").unwrap();
        writeln!(
            out,
            "rxl_request_inflight{{{labels}}} {}",
            self.peak_inflight
        )
        .unwrap();
        writeln!(
            out,
            "# HELP rxl_request_straggler_link completed requests whose critical path ended behind this link"
        )
        .unwrap();
        writeln!(out, "# TYPE rxl_request_straggler_link counter").unwrap();
        for s in self.straggler_attribution(topology, bottleneck) {
            writeln!(
                out,
                "rxl_request_straggler_link{{{labels},link=\"{}\",session=\"{}\"}} {}",
                esc(&s.description),
                s.session,
                s.count
            )
            .unwrap();
        }
        out
    }
}

impl Probe for RequestProbe {
    fn on_inject(&mut self, ev: InjectEvent) {
        let Some(shard) = self.join.get_mut(ev.dst, ev.tag, ev.key) else {
            return;
        };
        let state = &mut self.states[shard.index()];
        if let Some(trace) = &mut self.trace {
            shard.released_after = u32::try_from(ev.slot - state.arrival)
                .expect("a shard is released within 2^32 slots of its request's arrival");
            trace.open_span();
        }
        state.injected += 1;
        if state.injected == 1 {
            self.windows.record_inject(state.arrival);
            self.started += 1;
            self.inflight += 1;
            self.peak_inflight = self.peak_inflight.max(self.inflight);
        }
    }

    fn on_deliver(&mut self, ev: DeliverEvent) {
        // Retire the slot on first delivery: a duplicate finds nothing,
        // matching the single-span-per-shard semantics.
        let Some(shard) = self.join.close(ev.dst, ev.tag, ev.key) else {
            return;
        };
        let state = &mut self.states[shard.index()];
        if ev.verdict != DeliveryVerdict::InOrder {
            state.clean = false;
        }
        if ev.slot >= state.last_deliver {
            state.last_deliver = ev.slot;
            state.straggler_session = ev.session as u32;
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            let latency = state.last_deliver.saturating_sub(state.arrival);
            self.windows.record_latency(state.last_deliver, latency);
            self.windows.record_outcome(state.arrival, state.clean);
            self.straggler_counts[state.straggler_session as usize] += 1;
            self.completed += 1;
            self.inflight -= 1;
            if let Some(trace) = &mut self.trace {
                trace.instant(
                    state.last_deliver,
                    InstantKind::RequestComplete,
                    shard.index() as u64,
                    latency,
                );
            }
        }
        if let Some(trace) = &mut self.trace {
            trace.close_span(state.arrival + shard.released_after as u64, ev);
        }
    }
}

/// The physical links a session's downstream shard traffic can cross: both
/// endpoint attachment links plus, when host and device sit on different
/// switches, every trunk incident to either switch (covering all minimal
/// routes on the workspace's two-tier fabrics).
fn session_path_links(topology: &FabricTopology, session: usize) -> Vec<usize> {
    let s = &topology.sessions[session];
    let mut links = vec![s.host, s.device];
    let (hs, ds) = (
        topology.endpoints[s.host].switch,
        topology.endpoints[s.device].switch,
    );
    if hs != ds {
        let endpoints = topology.endpoint_count();
        for (i, t) in topology.trunks.iter().enumerate() {
            if t.a.0 == hs || t.b.0 == hs || t.a.0 == ds || t.b.0 == ds {
                links.push(endpoints + i);
            }
        }
    }
    links
}

/// One straggler session joined to the spatial bottleneck ranking.
#[derive(Clone, Debug)]
pub struct StragglerLink {
    /// Session whose shard delivered last.
    pub session: usize,
    /// Completed requests whose critical path ended on this session.
    pub count: u64,
    /// `count / completed requests`.
    pub share: f64,
    /// Dense index of the hottest-ranked link on the session's path.
    pub link: usize,
    /// Human-readable link description.
    pub description: String,
    /// Rank of that link in the [`BottleneckReport`] (0 = hottest fabric
    /// link overall).
    pub bottleneck_rank: Option<usize>,
}

/// Ladder shape of an open-system request sweep.
#[derive(Clone, Debug)]
pub struct RequestSweepConfig {
    /// Offered per-session *message* load ladder, ascending fractions of
    /// line rate in `(0, 1]` — held fixed per rung for any fanout (the
    /// request rate compensates; see [`RequestGenerator`]).
    pub loads: Vec<f64>,
    /// Shards per request (`k`).
    pub fanout: usize,
    /// Shard placement shape.
    pub shape: FanoutShape,
    /// Command queues per shard stream.
    pub cqids: u16,
    /// Monte-Carlo trials per rung.
    pub trials: u64,
    /// Unit-rate request arrival-process template.
    pub arrival: ArrivalProcess,
    /// Slots each trial's arrivals span (the measurement horizon): the
    /// per-rung request count is derived so every rung, light or heavy,
    /// offers arrivals for this long.
    pub measure_slots: u64,
    /// Request-telemetry window length, in slots.
    pub window_slots: u64,
    /// Consecutive settled windows the warmup detector requires.
    pub warmup_run: usize,
    /// Relative p50 tolerance of the warmup detector.
    pub warmup_tolerance: f64,
    /// Per-trial trace capacity (spans + instants); `0` disables tracing.
    pub trace_capacity: usize,
}

impl Default for RequestSweepConfig {
    fn default() -> Self {
        RequestSweepConfig {
            loads: vec![0.05, 0.10, 0.20, 0.40],
            fanout: 4,
            shape: FanoutShape::Uniform,
            cqids: 8,
            trials: 2,
            arrival: ArrivalProcess::poisson(1.0),
            measure_slots: 2_000,
            window_slots: 400,
            warmup_run: 3,
            warmup_tolerance: 0.25,
            trace_capacity: 0,
        }
    }
}

/// One rung of the request-level curve, aggregated over its trials.
#[derive(Clone, Debug)]
pub struct RequestPoint {
    /// Offered per-session message load this rung ran at.
    pub offered_load: f64,
    /// Requests offered per slot (fabric-wide).
    pub offered_requests_per_slot: f64,
    /// Requests offered across all trials.
    pub requests_offered: u64,
    /// Requests fully completed across all trials.
    pub requests_completed: u64,
    /// Requests started but cut by the horizon (the open-system tail).
    pub unresolved: u64,
    /// Simulated slots summed over trials.
    pub slots: u64,
    /// Warmup cut used (first measurement window).
    pub warmup_window: usize,
    /// Warmup-discarded steady-state request summary (exact merge over
    /// trials; horizon = the ladder's shortest trial horizon).
    pub steady: SteadyStateSummary,
    /// Peak in-flight requests (per-trial peaks summed).
    pub peak_inflight: u64,
    /// Straggler sessions joined to the rung's bottleneck ranking.
    pub straggler: Vec<StragglerLink>,
    /// The rung's hottest link.
    pub top_link: Option<LinkPressure>,
    /// The rung's congestion-signature label.
    pub signature: &'static str,
}

/// Everything a rung accumulated, for exports the summary rows drop.
#[derive(Clone, Debug)]
pub struct RequestRung {
    /// Merged request probe (trial-order merge; trial 0's trace).
    pub probe: RequestProbe,
    /// Merged spatial metrics registry.
    pub registry: MetricsRegistry,
    /// Simulated slots summed over trials.
    pub slots: u64,
}

/// The request-level latency-vs-load curve of one open-system sweep.
#[derive(Clone, Debug)]
pub struct RequestSweepReport {
    /// Topology label.
    pub topology: String,
    /// Protocol variant name.
    pub protocol: &'static str,
    /// Fanout-shape label.
    pub shape: String,
    /// Shards per request.
    pub fanout: usize,
    /// Sessions shards were placed on.
    pub loaded_sessions: usize,
    /// One point per ladder rung, in ladder order.
    pub points: Vec<RequestPoint>,
    /// Detected saturation knee, if the ladder crossed one (request-level
    /// [`detect_knee`] over the steady-state summaries).
    pub knee: Option<usize>,
}

impl RequestSweepReport {
    /// Offered load at the detected knee.
    pub fn knee_load(&self) -> Option<f64> {
        self.knee.map(|i| self.points[i].offered_load)
    }

    /// The rungs' steady summaries reshaped as [`LoadPoint`]s so the
    /// message-level knee detector applies unchanged: `efficiency` is the
    /// steady-state request availability (uncompleted requests burn it).
    pub fn as_load_points(&self) -> Vec<LoadPoint> {
        self.points
            .iter()
            .map(|p| LoadPoint {
                offered_load: p.offered_load,
                offered_msgs_per_slot: p.offered_requests_per_slot,
                injected_messages: p.steady.injected,
                delivered_messages: p.steady.hist.count(),
                untracked_deliveries: 0,
                slots: p.slots,
                delivered_per_slot: 0.0,
                efficiency: p.steady.availability,
                drained_trials: 0,
                trials: 0,
                failures: FailureCounts::default(),
                histogram: p.steady.hist.clone(),
                stats: p.steady.stats,
            })
            .collect()
    }
}

impl fmt::Display for RequestSweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== request latency vs offered load: {} · {} · fanout {} · {} shape · {} sessions ==",
            self.topology, self.protocol, self.fanout, self.shape, self.loaded_sessions
        )?;
        writeln!(
            f,
            "{:>6} | {:>8} | {:>9} | {:>6} | {:>6} | {:>6} | {:>7} | {:>7} | straggler",
            "load", "offered", "completed", "avail", "p50", "p99", "p99.9", "max"
        )?;
        writeln!(f, "{}", "-".repeat(100))?;
        for (i, p) in self.points.iter().enumerate() {
            let marker = if self.knee == Some(i) {
                " ← knee"
            } else {
                ""
            };
            let straggler = p
                .straggler
                .first()
                .map(|s| format!("s{} via {}", s.session, s.description))
                .unwrap_or_else(|| "-".to_string());
            writeln!(
                f,
                "{:>6.2} | {:>8} | {:>9} | {:>6.3} | {:>6} | {:>6} | {:>7} | {:>7} | {}{}",
                p.offered_load,
                p.requests_offered,
                p.requests_completed,
                p.steady.availability,
                p.steady.stats.p50,
                p.steady.stats.p99,
                p.steady.stats.p999,
                p.steady.stats.max,
                straggler,
                marker
            )?;
        }
        Ok(())
    }
}

/// The open-system request sweep driver.
///
/// Unlike [`rxl_load::LoadSweep`], which drains every trial to completion,
/// each trial here runs [`FabricSim::run_to_horizon`] — the run stops at
/// its measurement horizon with work still in flight, and only complete,
/// warmup-discarded windows count (see
/// [`WindowedTelemetry::steady_state`]). Everything derives from
/// `(config.seed, global_trial)` alone, trials shard over rayon, and merges
/// happen in trial order — bit-identical for any worker-thread count.
#[derive(Clone, Debug)]
pub struct RequestSweep {
    topology: FabricTopology,
    config: FabricConfig,
    sweep: RequestSweepConfig,
}

impl RequestSweep {
    /// Creates a sweep over `topology` with per-trial engine `config`.
    pub fn new(topology: FabricTopology, config: FabricConfig, sweep: RequestSweepConfig) -> Self {
        topology.validate();
        assert!(!sweep.loads.is_empty(), "the load ladder must not be empty");
        assert!(
            sweep.loads.iter().all(|&l| l > 0.0 && l <= 1.0),
            "loads must be fractions of line rate in (0, 1]"
        );
        assert!(
            sweep.loads.windows(2).all(|w| w[0] < w[1]),
            "the load ladder must be strictly ascending"
        );
        assert!(sweep.fanout >= 1 && sweep.trials > 0 && sweep.measure_slots > 0);
        // Message tags are the stream ordinal `as u16`: a longer stream
        // would repeat identities (the auditor refuses them mid-trial) and
        // break the `(dst, tag)` uniqueness `RequestProbe::new` asserts.
        for (rung, &load) in sweep.loads.iter().enumerate() {
            let per_stream =
                (load * sweep.measure_slots as f64 * MESSAGES_PER_FLIT as f64).ceil() as usize;
            assert!(
                per_stream <= MAX_STREAM_MESSAGES,
                "rung {rung} (load {load}) offers {per_stream} messages per session stream over \
                 {} slots; the limit is {MAX_STREAM_MESSAGES} (16-bit message tags)",
                sweep.measure_slots
            );
        }
        RequestSweep {
            topology,
            config,
            sweep,
        }
    }

    /// The topology under test.
    pub fn topology(&self) -> &FabricTopology {
        &self.topology
    }

    /// Requests per trial at `load`: enough arrivals to span
    /// `measure_slots`, never fewer than one.
    fn requests_for(&self, load: f64, loaded: usize) -> usize {
        let rate = load * loaded as f64 / self.sweep.fanout as f64;
        let per_slot = rate * MESSAGES_PER_FLIT as f64;
        ((self.sweep.measure_slots as f64 * per_slot).ceil() as usize).max(1)
    }

    /// Runs the ladder. See [`Self::run_detailed`] for the per-rung
    /// accumulators the summary rows drop.
    pub fn run(&self) -> RequestSweepReport {
        self.run_detailed().0
    }

    /// Runs the ladder and additionally returns each rung's merged probe
    /// and metrics registry (for Prometheus/trace exports).
    pub fn run_detailed(&self) -> (RequestSweepReport, Vec<RequestRung>) {
        let routing = RoutingTable::new(&self.topology);
        let loaded = self.sweep.shape.loaded_sessions(&self.topology);
        let mut points = Vec::with_capacity(self.sweep.loads.len());
        let mut rungs = Vec::with_capacity(self.sweep.loads.len());
        for (pi, &load) in self.sweep.loads.iter().enumerate() {
            let requests = self.requests_for(load, loaded.len());
            let generator = RequestGenerator {
                fanout: self.sweep.fanout,
                requests,
                shape: self.sweep.shape,
                arrival: self.sweep.arrival,
                cqids: self.sweep.cqids,
            };
            let trials: Vec<(RequestProbe, MetricsRegistry, u64, u64)> = (0..self.sweep.trials)
                .into_par_iter()
                .map(|trial| {
                    let global = pi as u64 * self.sweep.trials + trial;
                    self.run_trial(&routing, &generator, load, global)
                })
                .collect();

            let mut iter = trials.into_iter();
            let (mut probe, mut registry, mut slots, mut horizon) =
                iter.next().expect("at least one trial");
            for (p, r, s, h) in iter {
                probe.merge(&p);
                registry.merge(&r);
                slots += s;
                // The merged steady state may only count windows every
                // trial measured completely.
                horizon = horizon.min(h);
            }

            let warmup = probe
                .windows()
                .warmup_window(self.sweep.warmup_run, self.sweep.warmup_tolerance)
                .unwrap_or(1)
                .max(1);
            let steady = probe.windows().steady_state(warmup, horizon);
            let bottleneck = BottleneckReport::analyze(&self.topology, &registry, slots);
            let straggler = probe.straggler_attribution(&self.topology, &bottleneck);
            points.push(RequestPoint {
                offered_load: load,
                offered_requests_per_slot: load * loaded.len() as f64 / self.sweep.fanout as f64
                    * MESSAGES_PER_FLIT as f64,
                requests_offered: requests as u64 * self.sweep.trials,
                requests_completed: probe.completed(),
                unresolved: probe.inflight(),
                slots,
                warmup_window: warmup,
                steady,
                peak_inflight: probe.peak_inflight(),
                straggler,
                top_link: bottleneck.links.first().cloned(),
                signature: bottleneck.signature.label(),
            });
            rungs.push(RequestRung {
                probe,
                registry,
                slots,
            });
        }

        let mut report = RequestSweepReport {
            topology: self.topology.name.clone(),
            protocol: self.config.variant.name(),
            shape: self.sweep.shape.label(),
            fanout: self.sweep.fanout,
            loaded_sessions: loaded.len(),
            points,
            knee: None,
        };
        report.knee = detect_knee(&report.as_load_points());
        (report, rungs)
    }

    /// One open-system trial: build the request workload from the trial
    /// seed, run to the horizon (no drain tail), hand back the finished
    /// probes — the request join is trial-scoped and is released here, not
    /// carried into the rung's merge.
    fn run_trial(
        &self,
        routing: &RoutingTable,
        generator: &RequestGenerator,
        load: f64,
        global_trial: u64,
    ) -> (RequestProbe, MetricsRegistry, u64, u64) {
        let engine_seed = trial_seed(self.config.seed, global_trial);
        let mut arrival_rng = StdRng::seed_from_u64(trial_seed(
            self.config.seed ^ REQUEST_ARRIVAL_SALT,
            global_trial,
        ));
        let (workload, pacing, map) =
            generator.build(&self.topology, load, engine_seed, &mut arrival_rng);
        // One window of slack past the last arrival so completions near the
        // measurement boundary land; the final partial window is dropped by
        // the steady-state fold either way.
        let horizon = map.last_arrival() + self.sweep.window_slots;
        let sessions = self.topology.session_count();
        let request_probe = if self.sweep.trace_capacity > 0 {
            RequestProbe::with_trace(
                &map,
                sessions,
                self.sweep.window_slots,
                self.sweep.trace_capacity,
            )
        } else {
            RequestProbe::new(&map, sessions, self.sweep.window_slots)
        };
        let metrics = MetricsProbe::for_topology(&self.topology, self.config.vc_count);
        let config = FabricConfig {
            seed: engine_seed,
            max_slots: u64::MAX,
            ..self.config
        };
        let mut sim =
            FabricSim::with_probe(&self.topology, routing, config, (request_probe, metrics));
        sim.begin_paced(&workload, &pacing);
        let _ = sim.run_to_horizon(horizon);
        let (report, (request_probe, metrics)) = sim.finish_with_probe();
        (
            request_probe.finish(),
            metrics.into_registry(),
            report.slots,
            horizon,
        )
    }
}

/// The operating-point recommendation: the highest ladder load whose
/// steady-state request tail meets the SLO, plus the binding bottleneck
/// link at the first rung that does not.
#[derive(Clone, Debug)]
pub struct OperatingPoint {
    /// Latency threshold applied to the steady-state request p99 (slots).
    pub slo_threshold_slots: u64,
    /// Availability objective applied to the steady-state request
    /// availability.
    pub availability_objective: f64,
    /// Highest ladder load meeting both objectives (`None` if the lightest
    /// rung already violates).
    pub max_safe_load: Option<f64>,
    /// Steady request p99 at [`Self::max_safe_load`].
    pub max_safe_p99: Option<u64>,
    /// The first ladder load violating the SLO, if any.
    pub binding_load: Option<f64>,
    /// The hottest link at the binding rung (or the ladder's top rung when
    /// nothing violates) — the binding physical constraint.
    pub binding_link: Option<LinkPressure>,
    /// Offered load at the detected request-level knee.
    pub knee_load: Option<f64>,
    /// The recommendation, as an operator-facing sentence.
    pub summary: String,
}

impl OperatingPoint {
    /// Recommends an operating point from a sweep report. Rungs are judged
    /// on their warmup-discarded steady state: request p99 within
    /// `slo.latency_threshold_slots` and availability within
    /// `slo.availability_objective`. The safe region is the ladder prefix
    /// before the first violation.
    pub fn recommend(report: &RequestSweepReport, slo: &SloSpec) -> OperatingPoint {
        let meets = |p: &RequestPoint| {
            p.steady.stats.p99 <= slo.latency_threshold_slots
                && p.steady.availability >= slo.availability_objective
        };
        let first_bad = report.points.iter().position(|p| !meets(p));
        let safe_idx = match first_bad {
            Some(0) => None,
            Some(i) => Some(i - 1),
            None => report.points.len().checked_sub(1),
        };
        let binding_idx = first_bad
            .or(report.knee)
            .or_else(|| report.points.len().checked_sub(1));
        let binding_link = binding_idx.and_then(|i| report.points[i].top_link.clone());
        let constraint = binding_link
            .as_ref()
            .map(|l| l.description.clone())
            .unwrap_or_else(|| "unknown".to_string());
        let summary = match safe_idx {
            Some(i) => {
                let p = &report.points[i];
                format!(
                    "max safe offered load {:.2} at fanout {}: steady request p99 {} ≤ SLO {} slots, availability {:.4}; binding constraint: {}",
                    p.offered_load,
                    report.fanout,
                    p.steady.stats.p99,
                    slo.latency_threshold_slots,
                    p.steady.availability,
                    constraint
                )
            }
            None => format!(
                "no ladder rung meets the request SLO (p99 ≤ {} slots); binding constraint: {}",
                slo.latency_threshold_slots, constraint
            ),
        };
        OperatingPoint {
            slo_threshold_slots: slo.latency_threshold_slots,
            availability_objective: slo.availability_objective,
            max_safe_load: safe_idx.map(|i| report.points[i].offered_load),
            max_safe_p99: safe_idx.map(|i| report.points[i].steady.stats.p99),
            binding_load: first_bad.map(|i| report.points[i].offered_load),
            binding_link,
            knee_load: report.knee_load(),
            summary,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxl_link::{ChannelErrorModel, ProtocolVariant};
    use rxl_load::ShardRef;
    use std::collections::HashMap;

    /// Two requests of two shards, each shard alone on its destination
    /// (so every tag is 0).
    fn tiny_map() -> RequestMap {
        let shard = |session: usize, key: u64| ShardRef {
            session,
            dst: session + 4,
            key,
            tag: 0,
        };
        RequestMap::new(
            2,
            "uniform".to_string(),
            vec![0, 1, 2, 3],
            vec![10, 30],
            vec![shard(0, 100), shard(1, 200), shard(2, 300), shard(3, 400)],
        )
    }

    fn inject(slot: u64, session: usize, dst: usize, key: u64) -> InjectEvent {
        InjectEvent {
            slot,
            session,
            src: 0,
            dst,
            downstream: true,
            key,
            tag: 0,
        }
    }

    fn deliver(slot: u64, session: usize, dst: usize, key: u64) -> DeliverEvent {
        DeliverEvent {
            slot,
            session,
            src: 0,
            dst,
            downstream: true,
            key,
            tag: 0,
            verdict: DeliveryVerdict::InOrder,
        }
    }

    #[test]
    fn request_completes_at_the_max_shard_and_names_the_straggler() {
        let map = tiny_map();
        let mut p = RequestProbe::with_trace(&map, 4, 100, 32);
        p.on_inject(inject(10, 0, 4, 100));
        p.on_inject(inject(10, 1, 5, 200));
        assert_eq!(p.started(), 1);
        assert_eq!(p.inflight(), 1);
        p.on_deliver(deliver(40, 0, 4, 100));
        assert_eq!(p.completed(), 0, "one shard outstanding");
        p.on_deliver(deliver(95, 1, 5, 200));
        assert_eq!(p.completed(), 1);
        assert_eq!(p.inflight(), 0);
        assert_eq!(p.straggler_counts(), &[0, 1, 0, 0]);
        let stats = p.windows().stats();
        // Arrival window 0: injected + clean; completion latency 85 lands
        // in the delivery window.
        assert_eq!(stats[0].injected, 1);
        assert_eq!(stats[0].clean, 1);
        assert_eq!(stats[0].latency.max, 85);
        let trace = p.trace().expect("trace enabled");
        assert_eq!(trace.spans().count(), 2, "one span per shard");
        assert!(trace.to_jsonl().contains("\"kind\":\"request_complete\""));
    }

    #[test]
    fn merge_is_exact_and_sums_counters() {
        let map = tiny_map();
        let mut a = RequestProbe::new(&map, 4, 100);
        a.on_inject(inject(10, 0, 4, 100));
        a.on_inject(inject(10, 1, 5, 200));
        a.on_deliver(deliver(20, 0, 4, 100));
        a.on_deliver(deliver(25, 1, 5, 200));
        let mut b = RequestProbe::new(&map, 4, 100);
        b.on_inject(inject(30, 2, 6, 300));
        b.on_inject(inject(30, 3, 7, 400));
        b.on_deliver(deliver(55, 3, 7, 400));
        b.on_deliver(deliver(90, 2, 6, 300));
        a.merge(&b);
        assert_eq!(a.completed(), 2);
        assert_eq!(a.straggler_counts(), &[0, 1, 1, 0]);
        assert_eq!(a.windows().stats()[0].injected, 2);
    }

    fn pod_sweep(loads: Vec<f64>, shape: FanoutShape, fanout: usize) -> RequestSweep {
        RequestSweep::new(
            FabricTopology::leaf_spine(2, 1, 2),
            FabricConfig::new(ProtocolVariant::Rxl)
                .with_channel(ChannelErrorModel::ideal())
                .with_seed(0x5E47),
            RequestSweepConfig {
                loads,
                fanout,
                shape,
                trials: 1,
                measure_slots: 1_200,
                window_slots: 300,
                ..RequestSweepConfig::default()
            },
        )
    }

    #[test]
    fn open_system_sweep_measures_steady_windows_and_amplifies_with_load() {
        let report = pod_sweep(vec![0.05, 0.40], FanoutShape::Uniform, 2).run();
        assert_eq!(report.points.len(), 2);
        for p in &report.points {
            assert!(p.requests_completed > 0);
            assert!(p.steady.windows_used >= 1, "steady windows measured");
            assert!(p.warmup_window >= 1, "warmup excluded");
            assert!(p.steady.hist.count() > 0);
            assert!(!p.straggler.is_empty());
        }
        assert!(
            report.points[1].steady.stats.p99 >= report.points[0].steady.stats.p99,
            "request tail grows with load"
        );
        assert!(report
            .to_string()
            .contains("request latency vs offered load"));
    }

    #[test]
    fn operating_point_names_the_incast_uplink_on_a_shallow_pod() {
        let topology = FabricTopology::leaf_spine(2, 1, 2);
        let uplink = topology.trunk_between(0, 2).expect("leaf0→spine trunk");
        let sweep = RequestSweep::new(
            topology,
            FabricConfig {
                queue_capacity: 8,
                ..FabricConfig::new(ProtocolVariant::Rxl)
                    .with_channel(ChannelErrorModel::ideal())
                    .with_seed(0x407_5707)
            },
            RequestSweepConfig {
                loads: vec![0.05, 0.60],
                fanout: 2,
                shape: FanoutShape::Incast { leaf: 1 },
                trials: 1,
                measure_slots: 1_500,
                window_slots: 300,
                ..RequestSweepConfig::default()
            },
        );
        let (report, rungs) = sweep.run_detailed();
        let op = OperatingPoint::recommend(&report, &SloSpec::default());
        let binding = op.binding_link.as_ref().expect("a binding link");
        assert_eq!(
            binding.link,
            uplink.index(),
            "binding constraint must be the leaf0→spine uplink, got {}",
            binding.description
        );
        assert!(op.summary.contains(&binding.description));
        // The Prometheus exposition carries all three request families.
        let rung = &rungs[1];
        let bottleneck = BottleneckReport::analyze(sweep.topology(), &rung.registry, rung.slots);
        let steady = report.points[1].steady.clone();
        let page = rung
            .probe
            .prometheus(sweep.topology(), &steady, &bottleneck);
        assert!(page.contains("rxl_request_latency_p99{fanout=\"2\""));
        assert!(page.contains("rxl_request_inflight{"));
        assert!(page.contains("rxl_request_straggler_link{"));
    }

    #[test]
    #[should_panic(expected = "session 1 reuses tag 7 at destination 4")]
    fn a_repeated_tag_within_a_destination_is_refused() {
        let shard = |session: usize, key: u64| ShardRef {
            session,
            dst: 4,
            key,
            tag: 7,
        };
        let map = RequestMap::new(
            2,
            "uniform".to_string(),
            vec![0, 1],
            vec![0],
            vec![shard(0, 100), shard(1, 200)],
        );
        RequestProbe::new(&map, 2, 100);
    }

    #[test]
    #[should_panic(expected = "rung 1 (load 0.5) offers 75000 messages per session stream")]
    fn a_rung_past_the_tag_space_is_refused_at_construction() {
        RequestSweep::new(
            FabricTopology::leaf_spine(2, 1, 2),
            FabricConfig::new(ProtocolVariant::Rxl),
            RequestSweepConfig {
                loads: vec![0.05, 0.5],
                measure_slots: 10_000,
                ..RequestSweepConfig::default()
            },
        );
    }

    /// The trial-scoped join: what `run_trial` hands the rung merge holds no
    /// join table and no per-request state, and renders exactly what a
    /// probe that kept them renders.
    #[test]
    fn a_finished_probe_holds_no_join_state_and_renders_the_same() {
        let sweep = pod_sweep(vec![0.2], FanoutShape::Uniform, 2);
        let routing = RoutingTable::new(sweep.topology());
        let generator = RequestGenerator {
            fanout: 2,
            requests: sweep.requests_for(0.2, sweep.topology().session_count()),
            shape: FanoutShape::Uniform,
            arrival: sweep.sweep.arrival,
            cqids: sweep.sweep.cqids,
        };
        let (finished, registry, slots, _) = sweep.run_trial(&routing, &generator, 0.2, 0);
        assert!(finished.completed() > 0);
        let released = format!("{:?}", SpanJoin::<Shard>::default());
        assert_eq!(
            format!("{:?}", finished.join),
            released,
            "join table released"
        );
        assert_eq!(finished.states.capacity(), 0, "request state released");

        // The same trial with the join state kept alive to the end.
        let engine_seed = trial_seed(sweep.config.seed, 0);
        let mut rng =
            StdRng::seed_from_u64(trial_seed(sweep.config.seed ^ REQUEST_ARRIVAL_SALT, 0));
        let (workload, pacing, map) = generator.build(sweep.topology(), 0.2, engine_seed, &mut rng);
        let kept = RequestProbe::new(&map, sweep.topology().session_count(), 300);
        let config = FabricConfig {
            seed: engine_seed,
            max_slots: u64::MAX,
            ..sweep.config
        };
        let mut sim = FabricSim::with_probe(sweep.topology(), &routing, config, kept);
        sim.begin_paced(&workload, &pacing);
        let _ = sim.run_to_horizon(map.last_arrival() + 300);
        let (_, kept) = sim.finish_with_probe();
        assert!(format!("{:?}", kept.join) != released && kept.states.len() == map.len());

        let bottleneck = BottleneckReport::analyze(sweep.topology(), &registry, slots);
        let steady = finished.windows().steady_state(1, u64::MAX);
        assert_eq!(
            finished.prometheus(sweep.topology(), &steady, &bottleneck),
            kept.prometheus(sweep.topology(), &steady, &bottleneck)
        );
        assert_eq!(
            format!(
                "{:?}",
                finished.straggler_attribution(sweep.topology(), &bottleneck)
            ),
            format!(
                "{:?}",
                kept.straggler_attribution(sweep.topology(), &bottleneck)
            )
        );
        assert_eq!(
            format!("{:?}", finished.windows()),
            format!("{:?}", kept.windows())
        );
    }

    /// The hashed join the dense one replaced, kept as the differential
    /// reference: `(dst, key) → request` in a map, removed on delivery.
    struct ReferenceJoin {
        lookup: HashMap<(u64, u64), u32>,
        states: Vec<RequestState>,
        windows: WindowedTelemetry,
        straggler_counts: Vec<u64>,
        completed: u64,
        started: u64,
        inflight: u64,
        peak_inflight: u64,
    }

    impl ReferenceJoin {
        fn new(map: &RequestMap, sessions: usize, window_slots: u64) -> Self {
            let mut lookup = HashMap::new();
            let mut states = Vec::new();
            for r in 0..map.len() {
                for shard in map.shards(r) {
                    lookup.insert((shard.dst as u64, shard.key), r as u32);
                }
                states.push(RequestState {
                    arrival: map.arrival_slot(r),
                    remaining: map.fanout as u32,
                    injected: 0,
                    last_deliver: 0,
                    straggler_session: 0,
                    clean: true,
                });
            }
            ReferenceJoin {
                lookup,
                states,
                windows: WindowedTelemetry::new(window_slots),
                straggler_counts: vec![0; sessions],
                completed: 0,
                started: 0,
                inflight: 0,
                peak_inflight: 0,
            }
        }
    }

    impl Probe for ReferenceJoin {
        fn on_inject(&mut self, ev: InjectEvent) {
            let Some(&idx) = self.lookup.get(&(ev.dst as u64, ev.key)) else {
                return;
            };
            let state = &mut self.states[idx as usize];
            state.injected += 1;
            if state.injected == 1 {
                self.windows.record_inject(state.arrival);
                self.started += 1;
                self.inflight += 1;
                self.peak_inflight = self.peak_inflight.max(self.inflight);
            }
        }

        fn on_deliver(&mut self, ev: DeliverEvent) {
            let Some(idx) = self.lookup.remove(&(ev.dst as u64, ev.key)) else {
                return;
            };
            let state = &mut self.states[idx as usize];
            if ev.verdict != DeliveryVerdict::InOrder {
                state.clean = false;
            }
            if ev.slot >= state.last_deliver {
                state.last_deliver = ev.slot;
                state.straggler_session = ev.session as u32;
            }
            state.remaining -= 1;
            if state.remaining == 0 {
                let latency = state.last_deliver.saturating_sub(state.arrival);
                self.windows.record_latency(state.last_deliver, latency);
                self.windows.record_outcome(state.arrival, state.clean);
                self.straggler_counts[state.straggler_session as usize] += 1;
                self.completed += 1;
                self.inflight -= 1;
            }
        }
    }

    /// Endpoint the differential map's session `s` delivers to.
    const DIFF_DST_BASE: usize = 3;

    /// A map of `requests` requests at fanout `k` round-robined over
    /// `sessions` sessions, shaped like `RequestGenerator::build`'s: tags
    /// are per-session stream ordinals, keys are engine-style mixed hashes.
    fn differential_map(sessions: usize, k: usize, requests: usize) -> RequestMap {
        let mut cursor = vec![0u16; sessions];
        let mut arrivals = Vec::new();
        let mut shards = Vec::new();
        for r in 0..requests {
            arrivals.push(7 * r as u64);
            for j in 0..k {
                let session = (r * k + j) % sessions;
                let tag = cursor[session];
                cursor[session] += 1;
                shards.push(ShardRef {
                    session,
                    dst: DIFF_DST_BASE + session,
                    key: rxl_transport::mix64(((session as u64) << 32) | tag as u64),
                    tag,
                });
            }
        }
        RequestMap::new(
            k,
            "uniform".to_string(),
            (0..sessions).collect(),
            arrivals,
            shards,
        )
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The dense tag-indexed join and the hashed reference agree on
        /// every observable for any event sequence: shards injected and
        /// delivered in any order across and within sessions, duplicate
        /// deliveries, injections after delivery, non-`InOrder` verdicts,
        /// and events that belong to no shard of the map (unknown key at a
        /// live `(dst, tag)`, tag past the stream, destination outside the
        /// map, a known key under the wrong tag).
        #[test]
        fn dense_join_matches_the_hashed_reference(
            sessions in 1usize..=4,
            k in 1usize..=3,
            requests in 1usize..12,
            ops in proptest::collection::vec(
                (0u8..10, any::<u32>(), 0u64..40, any::<bool>()),
                0..160,
            ),
        ) {
            let map = differential_map(sessions, k, requests);
            let flat: Vec<ShardRef> = (0..map.len()).flat_map(|r| map.shards(r).to_vec()).collect();
            let mut dense = RequestProbe::new(&map, sessions, 50);
            let mut reference = ReferenceJoin::new(&map, sessions, 50);
            let mut injected = vec![false; flat.len()];
            let mut slot = 0u64;
            for (kind, pick, advance, clean) in ops {
                slot += advance;
                let i = pick as usize % flat.len();
                let sh = flat[i];
                let inject = |dst: usize, key: u64, tag: u16| InjectEvent {
                    slot,
                    session: sh.session,
                    src: 0,
                    dst,
                    downstream: true,
                    key,
                    tag,
                };
                let deliver = |dst: usize, key: u64, tag: u16| DeliverEvent {
                    slot,
                    session: sh.session,
                    src: 0,
                    dst,
                    downstream: true,
                    key,
                    tag,
                    verdict: if clean {
                        DeliveryVerdict::InOrder
                    } else {
                        DeliveryVerdict::OutOfOrder
                    },
                };
                let mut injects = Vec::new();
                let mut delivers = Vec::new();
                match kind {
                    0..=2 => {
                        injected[i] = true;
                        injects.push(inject(sh.dst, sh.key, sh.tag));
                    }
                    3..=6 => {
                        // The engine never delivers what it has not
                        // injected (and a request completing unstarted
                        // would underflow `inflight` in both joins).
                        if !injected[i] {
                            injected[i] = true;
                            injects.push(inject(sh.dst, sh.key, sh.tag));
                        }
                        delivers.push(deliver(sh.dst, sh.key, sh.tag));
                    }
                    7 => {
                        // Foreign traffic at a live (dst, tag): wrong key.
                        injects.push(inject(sh.dst, sh.key ^ 1, sh.tag));
                        delivers.push(deliver(sh.dst, sh.key ^ 1, sh.tag));
                    }
                    8 => {
                        // Past the stream, and outside the map's endpoints.
                        delivers.push(deliver(sh.dst, sh.key ^ 2, u16::MAX));
                        injects.push(inject(DIFF_DST_BASE + sessions + 1, sh.key, sh.tag));
                        delivers.push(deliver(0, sh.key, sh.tag));
                    }
                    _ => {
                        // Another session's key under this shard's tag:
                        // the map has no such (dst, key) either.
                        let other = flat[(i + 1) % flat.len()];
                        if other.dst != sh.dst {
                            delivers.push(deliver(sh.dst, other.key, sh.tag));
                        }
                    }
                }
                for ev in injects {
                    dense.on_inject(ev);
                    reference.on_inject(ev);
                }
                for ev in delivers {
                    dense.on_deliver(ev);
                    reference.on_deliver(ev);
                }
                prop_assert_eq!(dense.completed(), reference.completed);
                prop_assert_eq!(dense.started(), reference.started);
                prop_assert_eq!(dense.inflight(), reference.inflight);
                prop_assert_eq!(dense.peak_inflight(), reference.peak_inflight);
            }
            prop_assert_eq!(dense.straggler_counts(), &reference.straggler_counts[..]);
            prop_assert_eq!(
                format!("{:?}", dense.windows()),
                format!("{:?}", reference.windows)
            );
        }
    }
}
