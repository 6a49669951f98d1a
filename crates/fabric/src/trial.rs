//! What a fabric trial runs and what it reports: its [`FabricConfig`], its
//! [`FabricWorkload`] and optional [`InjectionPacing`], the final
//! [`FabricReport`], the mid-run [`FabricCounters`], and why a
//! [`FabricSim::step`] call returned. The trial itself is [`FabricSim`].

use std::sync::Arc;

use rxl_flit::{Message, MESSAGES_PER_FLIT};
use rxl_link::{ChannelErrorModel, LinkConfig, LinkStats, ProtocolVariant};
use rxl_switch::{InternalErrorModel, LinkCrcMode, SwitchConfig, SwitchStats};
use rxl_transport::{FailureCounts, SentStream};

#[cfg(doc)]
use crate::{FabricSim, RoutingTable};

/// Configuration of one fabric simulation trial.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FabricConfig {
    /// Protocol variant every endpoint speaks.
    pub variant: ProtocolVariant,
    /// Per-link channel error model (applied on every link traversal).
    pub channel: ChannelErrorModel,
    /// ACK coalescing level (one ACK per this many accepted flits).
    pub ack_coalescing: u32,
    /// Depth of every switch output lane (one per port and VC), in flits:
    /// the credit count advertised to the upstream sender. At least 1.
    pub queue_capacity: usize,
    /// Hard limit on simulated slots.
    pub max_slots: u64,
    /// Stall guard: if no endpoint accepts a single flit for this many
    /// consecutive slots, the trial is declared stalled and aborted early
    /// (`drained = false`). Baseline CXL with piggybacked ACKs can wedge
    /// unrecoverably when a NACK references a sequence number that already
    /// left the replay buffer (the count-based receiver expectation diverged
    /// after undetected drops); real links would escape via retrain/viral,
    /// which this model does not simulate. The guard is several multiples of
    /// the replay watchdog timeout, so a genuinely recoverable exchange is
    /// never cut off.
    pub stall_slots: u64,
    /// RNG seed for channel errors and switch faults.
    pub seed: u64,
    /// Virtual channels per switch output port, in `1..=8`.
    /// Each VC owns a private buffer of [`Self::queue_capacity`] flits with
    /// its own credit. `1` (the default) reproduces the pre-VC engine
    /// byte-for-byte — including its ring(span ≥ 2) credit deadlock. `≥ 2`
    /// enables the dateline escape scheme (VC 0 pre-dateline, VC 1
    /// post-dateline) that breaks cyclic trunk-credit waits on ring/torus/
    /// dragonfly fabrics; `≥ 3` additionally frees VCs `2..` for
    /// minimal-adaptive routing (see [`Self::adaptive`]).
    pub vc_count: usize,
    /// Route flits minimal-adaptively: among the minimal next-hop candidates
    /// of [`RoutingTable::candidates`], pick the adaptive VC (`2..vc_count`)
    /// of the least-occupied egress port with a free credit, falling back to
    /// the deterministic escape path when none has one. Requires
    /// `vc_count ≥ 3` (two escape VCs + at least one adaptive VC). Path
    /// choices are flowlet-gated: a destination's pinned path is re-chosen
    /// only while it has no flits in flight, so adaptive spreading never
    /// reorders a session's flit stream (see `SwitchActor::plan`). The
    /// choice is a deterministic function of queue state — no RNG draws —
    /// so the engine's draw-order reproducibility contract is untouched.
    pub adaptive: bool,
    /// Open-loop offered load as a fraction of per-session line rate
    /// (`1.0` ⇒ [`MESSAGES_PER_FLIT`] new messages per slot per
    /// session-direction, the most a fully packed one-flit-per-slot endpoint
    /// can inject). `Some(f)` makes [`FabricSim::begin`] pace each session's
    /// injection at a deterministic fixed rate instead of making the whole
    /// workload due at once; `None` (the default) keeps the greedy path —
    /// **byte-for-byte identical** to the pre-pacing engine, as the golden
    /// digest regression requires. Richer arrival processes (Poisson-like,
    /// bursty on/off) come from `rxl-load`, which builds an explicit
    /// [`InjectionPacing`] and calls [`FabricSim::begin_paced`].
    pub offered_load: Option<f64>,
}

impl FabricConfig {
    /// The paper's operating point for a given variant, with a slot budget
    /// suited to the bounded workloads of tests and benches.
    pub fn new(variant: ProtocolVariant) -> Self {
        FabricConfig {
            variant,
            channel: ChannelErrorModel::cxl3(),
            ack_coalescing: 10,
            queue_capacity: 64,
            max_slots: 400_000,
            stall_slots: 8_000,
            seed: 0,
            vc_count: 1,
            adaptive: false,
            offered_load: None,
        }
    }

    /// Sets the number of virtual channels per output port (see
    /// [`FabricConfig::vc_count`]).
    pub fn with_vc_count(mut self, vc_count: usize) -> Self {
        self.vc_count = vc_count;
        self
    }

    /// Enables minimal-adaptive routing (see [`FabricConfig::adaptive`];
    /// requires `vc_count ≥ 3`).
    pub fn with_adaptive(mut self, adaptive: bool) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// Replaces the channel error model.
    pub fn with_channel(mut self, channel: ChannelErrorModel) -> Self {
        self.channel = channel;
        self
    }

    /// Replaces the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the open-loop offered load (fraction of per-session line rate;
    /// see [`FabricConfig::offered_load`]).
    pub fn with_offered_load(mut self, fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction.is_finite(),
            "offered load must be a positive finite fraction"
        );
        self.offered_load = Some(fraction);
        self
    }

    /// The link configuration every endpoint runs.
    pub fn link_config(&self) -> LinkConfig {
        LinkConfig {
            ack_coalescing: self.ack_coalescing,
            ..LinkConfig::cxl3_x16(self.variant)
        }
    }

    pub(crate) fn switch_config(&self, ports: usize) -> SwitchConfig {
        SwitchConfig {
            ports,
            internal_error: InternalErrorModel::none(),
            crc_mode: match self.variant {
                ProtocolVariant::Rxl => LinkCrcMode::Passthrough,
                _ => LinkCrcMode::Regenerate,
            },
        }
    }
}

/// Per-session message streams driving one fabric run.
///
/// Each stream is a shared [`SentStream`]: a trial takes a handle on it for
/// its injector and its auditor and copies nothing, so one workload serves
/// every trial of a Monte-Carlo run (cloning a workload clones handles).
/// Wrap a generated `Vec<Message>` by move: `Arc::new(SentStream::new(v))`.
#[derive(Clone, Debug)]
pub struct FabricWorkload {
    /// `downstream[s]` is what session `s`'s host transmits to its device.
    pub downstream: Vec<Arc<SentStream>>,
    /// `upstream[s]` is what session `s`'s device transmits to its host.
    pub upstream: Vec<Arc<SentStream>>,
}

impl FabricWorkload {
    /// A symmetric workload: every session's host streams `messages` ordered
    /// data messages over `cqids` command queues and its device streams the
    /// same volume back. Equal volume in both directions keeps the measured
    /// ACK-piggybacking fraction at the configured coalescing level in both
    /// directions, which is what the analytic cross-check assumes.
    pub fn symmetric(sessions: usize, messages: usize, cqids: u16, seed: u64) -> Self {
        use rxl_sim::{request_stream, response_stream, TrafficPattern};
        let downstream: Vec<Vec<Message>> = (0..sessions)
            .map(|s| {
                request_stream(
                    messages,
                    TrafficPattern::DataStream { cqids },
                    seed ^ (0x5E55_0000 + s as u64),
                )
            })
            .collect();
        let upstream: Vec<Vec<Message>> = (0..sessions)
            .map(|s| response_stream(messages, cqids, seed ^ (0x5E55_8000 + s as u64)))
            .collect();
        // Wrapped (by move) only once every stream exists, so the large
        // message buffers are allocated back to back as they always were.
        // Interleaving the small `Arc` boxes between them changed how the
        // allocator recycles the buffers when a workload is rebuilt, and
        // more than doubled the set-up time the perf ledger measures on
        // one of its workloads.
        let share = |streams: Vec<Vec<Message>>| -> Vec<Arc<SentStream>> {
            streams
                .into_iter()
                .map(|msgs| Arc::new(SentStream::new(msgs)))
                .collect()
        };
        let (downstream, upstream) = (share(downstream), share(upstream));
        FabricWorkload {
            downstream,
            upstream,
        }
    }

    /// Number of sessions this workload drives.
    pub fn sessions(&self) -> usize {
        self.downstream.len()
    }

    /// Total messages across both directions of every session.
    pub fn total_messages(&self) -> usize {
        self.downstream
            .iter()
            .chain(&self.upstream)
            .map(|stream| stream.len())
            .sum()
    }
}

/// Per-message arrival slots pacing a workload's open-loop injection:
/// `downstream[s][i]` is the slot at which session `s`'s host may first
/// transmit `workload.downstream[s][i]` (and symmetrically for `upstream`).
/// Slots must be non-decreasing within each stream. Built either by
/// [`InjectionPacing::fixed_rate`] (the [`FabricConfig::offered_load`] knob)
/// or by the arrival processes of `rxl-load`.
///
/// Pacing draws **nothing** from the trial RNG: schedules are computed
/// before the trial starts, so the engine's RNG-draw-order contract (see
/// [`FabricSim`]) is untouched — a paced trial differs from a greedy one
/// only in *when* messages become eligible for flitization.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InjectionPacing {
    /// Arrival slots for `workload.downstream`, stream-aligned.
    pub downstream: Vec<Vec<u64>>,
    /// Arrival slots for `workload.upstream`, stream-aligned.
    pub upstream: Vec<Vec<u64>>,
}

impl InjectionPacing {
    /// Deterministic fixed-rate pacing at a mean of `msgs_per_slot` messages
    /// per slot, injected in flit-sized cohorts: messages
    /// `[b·M, (b+1)·M)` (with `M =` [`MESSAGES_PER_FLIT`]) all arrive at
    /// slot `floor(b·M / msgs_per_slot)`. Cohort granularity is what makes
    /// offered load mean *fraction of link flit slots*: a host that released
    /// single messages would emit one nearly-empty flit per message, so the
    /// wire would saturate at `1/M` of line rate no matter the knob — real
    /// transmitters fill flits, and so does this pacing. This is what the
    /// [`FabricConfig::offered_load`] knob expands to (with
    /// `msgs_per_slot = offered_load × MESSAGES_PER_FLIT`).
    pub fn fixed_rate(workload: &FabricWorkload, msgs_per_slot: f64) -> Self {
        assert!(
            msgs_per_slot > 0.0 && msgs_per_slot.is_finite(),
            "injection rate must be positive and finite"
        );
        let schedule = |stream: &Arc<SentStream>| -> Vec<u64> {
            (0..stream.len())
                .map(|k| {
                    let cohort_first = (k / MESSAGES_PER_FLIT) * MESSAGES_PER_FLIT;
                    (cohort_first as f64 / msgs_per_slot) as u64
                })
                .collect()
        };
        InjectionPacing {
            downstream: workload.downstream.iter().map(schedule).collect(),
            upstream: workload.upstream.iter().map(schedule).collect(),
        }
    }

    /// Panics unless this pacing covers `workload` exactly (same streams,
    /// same lengths) with non-decreasing slots.
    pub(crate) fn validate(&self, workload: &FabricWorkload) {
        assert_eq!(
            self.downstream.len(),
            workload.downstream.len(),
            "pacing must cover every downstream stream"
        );
        assert_eq!(
            self.upstream.len(),
            workload.upstream.len(),
            "pacing must cover every upstream stream"
        );
        let aligned = |slots: &[Vec<u64>], msgs: &[Arc<SentStream>]| {
            for (sl, ms) in slots.iter().zip(msgs) {
                assert_eq!(sl.len(), ms.len(), "pacing must cover every message");
                assert!(
                    sl.windows(2).all(|w| w[0] <= w[1]),
                    "arrival slots must be non-decreasing"
                );
            }
        };
        aligned(&self.downstream, &workload.downstream);
        aligned(&self.upstream, &workload.upstream);
    }
}

/// Aggregate outcome of one fabric trial.
#[derive(Clone, Debug, Default)]
pub struct FabricReport {
    /// Failure audit of all host → device streams.
    pub downstream: FailureCounts,
    /// Failure audit of all device → host streams.
    pub upstream: FailureCounts,
    /// Combined per-session failure counts (both directions), in session
    /// order.
    pub per_session: Vec<FailureCounts>,
    /// Link-layer counters merged over every endpoint.
    pub links: LinkStats,
    /// Switch counters merged over every switching device.
    pub switches: SwitchStats,
    /// Silent drops whose first post-gap arrival was forwarded without a
    /// sequence check — the paper's `Fail_order` events, counted one per
    /// drop episode.
    pub undetected_drop_events: u64,
    /// Silent switch drops that hit protocol (payload-bearing) flits,
    /// retransmissions included.
    pub protocol_flit_drops: u64,
    /// Silent drops of first-transmission payload flits.
    pub payload_drops: u64,
    /// Of [`Self::payload_drops`], those that struck while the destination
    /// receiver was in normal flow (not already replaying or gapped) — the
    /// drops the first-order analytic model exposes to the piggybacked-ACK
    /// blind spot.
    pub eligible_payload_drops: u64,
    /// Mis-ordered data an ACK-carrying flit leaked through *during* a
    /// detected drop's go-back-N replay window — a latency-dependent failure
    /// channel of baseline CXL that the paper's first-order model does not
    /// count (and [`Self::undetected_drop_events`] therefore excludes).
    pub replay_leak_events: u64,
    /// Slots in which a sender held a flit back for lack of downstream
    /// credit (backpressure observability).
    pub credit_stalls: u64,
    /// Flits destroyed by fault injection: consumed by a dead switch,
    /// purged from its queues at failure time, or dropped because routing
    /// had no surviving path to their destination. Always 0 without an
    /// active scenario.
    pub blackholed_flits: u64,
    /// Number of simulated slots.
    pub slots: u64,
    /// Simulated time in nanoseconds.
    pub sim_time_ns: f64,
    /// `true` if every session drained before the slot limit — including
    /// trials that delivered every message and then tripped the stall guard
    /// on undeliverable control-plane residue (see
    /// [`Self::post_delivery_wedge`]).
    pub drained: bool,
    /// `true` if the stall guard tripped while flits were wedged in switch
    /// queues (or endpoint stall registers) with *no flit motion anywhere*
    /// for the whole guard window — a credit deadlock, as the ring(span ≥ 2)
    /// topology exhibits under saturation when run with a single virtual
    /// channel (cyclic trunk-credit dependency; `vc_count ≥ 2` installs the
    /// dateline escape VCs that provably break it). Distinct from the
    /// baseline-CXL stale-NACK livelock, where replay traffic keeps moving
    /// but nothing is accepted: that wedge reports
    /// `drained = false, deadlock = false`.
    pub deadlock: bool,
    /// `true` if the stall guard tripped *after* every workload message of
    /// every session had been delivered: the residue is control-plane replay
    /// (a retransmitted ACK/NACK exchange that can no longer converge), not
    /// undelivered payload. Such a trial is reported `drained = true` — all
    /// cohorts delivered, the audits close clean — with this flag
    /// classifying the residual wedge. Shows up on multi-hop fabrics at
    /// BER ≳ 4 × 10⁻⁴, where a stale NACK can survive repeated corruption.
    pub post_delivery_wedge: bool,
    /// Slot of the first undetected-drop (`Fail_order`) event, if any —
    /// the time-to-first-failure statistic scenario reports aggregate.
    pub first_fail_order_slot: Option<u64>,
}

impl FabricReport {
    /// Combined failure counts over both directions.
    pub fn total_failures(&self) -> FailureCounts {
        let mut f = self.downstream;
        f.merge(&self.upstream);
        f
    }

    /// First-transmission payload flits across every endpoint — the exposure
    /// denominator of the per-flit failure rates the cross-check compares
    /// (the analytic model's flit rate likewise counts payload flits; at the
    /// paper's real operating point retransmissions are a ~10⁻⁵ fraction).
    pub fn payload_flits(&self) -> u64 {
        self.links.flits_sent
    }

    /// Undetected-drop (`Fail_order`) events per payload flit.
    pub fn event_rate(&self) -> f64 {
        let flits = self.payload_flits();
        if flits == 0 {
            return 0.0;
        }
        self.undetected_drop_events as f64 / flits as f64
    }
}

/// Why a [`FabricSim::step`] call returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// Every session drained; the trial is complete.
    Drained,
    /// The stall guard tripped: livelock or credit deadlock (see
    /// [`FabricReport::deadlock`]). The trial is over.
    Stalled,
    /// [`FabricConfig::max_slots`] was reached with work remaining.
    SlotLimit,
    /// The per-call slot budget ran out with work remaining; call
    /// [`FabricSim::step`] again to continue (scenario engines use this to
    /// pause at epoch boundaries).
    Budget,
    /// [`FabricSim::run_to_horizon`] reached its measurement horizon with
    /// work still in flight — the expected outcome of an open-system run,
    /// which measures a steady-state window and never waits for the drain
    /// tail.
    Horizon,
}

/// Mid-run snapshot of a trial's cumulative counters, taken with
/// [`FabricSim::counters`]. Scenario engines difference two snapshots to
/// report per-epoch activity. Message *losses* are only attributed when the
/// trial finalizes, so `failures` here never includes `lost_messages`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FabricCounters {
    /// Slots simulated so far.
    pub slots: u64,
    /// Audit counters over both directions of every session so far.
    pub failures: FailureCounts,
    /// Undetected-drop (`Fail_order`) events so far.
    pub undetected_drop_events: u64,
    /// Replay-window leak events so far.
    pub replay_leak_events: u64,
    /// Silent drops of first-transmission payload flits so far.
    pub payload_drops: u64,
    /// Silent drops of protocol flits (retransmissions included) so far.
    pub protocol_flit_drops: u64,
    /// Fault-injection blackhole drops so far.
    pub blackholed_flits: u64,
    /// Credit-stall slot count so far.
    pub credit_stalls: u64,
}
