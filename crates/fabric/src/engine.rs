//! The fabric-scale discrete-event engine.
//!
//! One [`FabricSim`] instantiates every endpoint of a [`FabricTopology`] as a
//! real `rxl-link` [`LinkEndpoint`] (go-back-N retry, ACK coalescing, the
//! full FEC/CRC codec stack) and every switch as a real `rxl-switch`
//! [`Switch`] running its silent-drop forwarding pipeline. Time advances in
//! flit slots (2 ns at the ×16 CXL 3.0 rate): per slot every endpoint gets
//! one transmit opportunity and every switch port forwards at most one flit,
//! so trunk links shared by many sessions are genuinely serialised and
//! congestion propagates upstream through credit backpressure.
//!
//! # Flow control
//!
//! Every switch port owns an output queue of bounded depth. A sender — an
//! endpoint injecting its emission, or an upstream switch port forwarding its
//! queue head — transmits only while the downstream queue advertises a free
//! credit; otherwise the flit is held in place (endpoints hold it in a
//! one-flit stall register, switches leave it at the head of their queue).
//! Nothing is ever dropped for lack of buffering, exactly like the
//! credit-based flow control of real CXL links; the only in-fabric losses
//! are the FEC-uncorrectable silent drops the paper analyses.
//!
//! # Routing metadata
//!
//! CXL 3.0 fabrics route flits by a destination port identifier carried in
//! the flit (PBR DPID). The engine models that identifier out of band: each
//! queued flit carries its destination endpoint index, which the
//! deterministic shortest-path tables of [`RoutingTable`] translate into an
//! egress port at every switch. The wire bytes the switches decode, corrupt
//! and re-encode are exactly the 256-byte flits of the single-path simulator.

use std::collections::VecDeque;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rxl_flit::{
    CxlFlitCodec, Flit256, Message, RxlFlitCodec, WireFlit, MESSAGES_PER_FLIT, WIRE_FLIT_LEN,
};
use rxl_link::{
    Channel, ChannelErrorModel, EventCursor, FlitRef, LinkConfig, LinkEndpoint, LinkStats,
    ProtocolVariant,
};
use rxl_switch::{
    InternalErrorModel, LinkCrcMode, ProcessVerdict, Switch, SwitchConfig, SwitchStats, VcArbiter,
    VcCredits, MAX_VCS,
};
use rxl_transport::{DeliveryAuditor, DeliveryVerdict, FailureCounts, SentStream};

use crate::injector::Injector;
use crate::probe::{
    ChannelErrorEvent, DeliverEvent, EnginePhase, InjectEvent, LinkHop, LinkTraversalEvent,
    NullProbe, Probe,
};
use crate::routing::{RoutingTable, NO_ROUTE};
use crate::topology::{FabricTopology, LinkId, NodeRole};

/// Configuration of one fabric simulation trial.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FabricConfig {
    /// Protocol variant every endpoint speaks.
    pub variant: ProtocolVariant,
    /// Per-link channel error model (applied on every link traversal).
    pub channel: ChannelErrorModel,
    /// Switch-internal corruption model.
    pub switch_internal: InternalErrorModel,
    /// ACK coalescing level (one ACK per this many accepted flits).
    pub ack_coalescing: u32,
    /// Depth of every switch-port output queue, in flits (the credit count
    /// advertised to the upstream sender).
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
    /// Virtual channels per switch output port, in `1..=`[`rxl_switch::MAX_VCS`].
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
    /// reorders a session's flit stream (see [`FabricSim::plan_hop`]). The
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
            switch_internal: InternalErrorModel::none(),
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

    fn switch_config(&self, ports: usize) -> SwitchConfig {
        SwitchConfig {
            ports,
            queue_capacity: self.queue_capacity,
            internal_error: self.switch_internal,
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
    fn validate(&self, workload: &FabricWorkload) {
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

/// Identity of a message in probe events — the same `(cqid, tag, kind,
/// chunk)` quadruple the delivery auditor keys on, packed and
/// splitmix64-finalized into one u64. The finalizer is bijective,
/// so distinct quadruples keep distinct keys, but the key uses **all 64
/// bits** and it is unique only *within a destination endpoint* (sessions
/// reuse cqid/tag spaces). Consumers correlating inject/deliver events
/// across the fabric must key on the `(dst, key)` *pair* — no bit-packing
/// of `dst` into the key can stay collision-free.
#[inline]
pub fn message_key(msg: &Message) -> u64 {
    let (kind, chunk) = match msg {
        Message::Request { .. } => (0u64, 0u64),
        Message::Response { .. } => (1, 0),
        Message::DataHeader { .. } => (2, 0),
        Message::Data { chunk_idx, .. } => (3, *chunk_idx as u64),
    };
    // splitmix64-finalized (bijective): the raw packing has all its entropy
    // in high bit fields, which FxHash-backed maps index terribly (see
    // `rxl_transport::mix64`).
    rxl_transport::mix64(
        ((msg.cqid() as u64) << 32) | ((msg.tag() as u64) << 16) | (kind << 8) | chunk,
    )
}

/// Opens the inject → deliver span of every message in `msgs` (one
/// `src → dst` batch of `session`, released at `slot`) on the probe. Call
/// sites keep the `if P::ENABLED` guard, like every other emission.
fn inject_events<P: Probe>(
    probe: &mut P,
    slot: u64,
    session: usize,
    src: usize,
    dst: usize,
    downstream: bool,
    msgs: &[Message],
) {
    for m in msgs {
        probe.on_inject(InjectEvent {
            slot,
            session,
            src,
            dst,
            downstream,
            key: message_key(m),
            tag: m.tag(),
        });
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

/// The engine-held flit encoder, fixed per trial by
/// [`FabricConfig::variant`]. `LinkTx`/`LinkRx` always run their codecs in
/// default mode (there is no per-link codec knob; the switch-level
/// [`LinkCrcMode`] is a forwarding-pipeline concept), so a wire image
/// produced here is bit-identical to what the emitting endpoint's
/// transmitter would have produced.
enum SimCodec {
    Cxl(CxlFlitCodec),
    Rxl(RxlFlitCodec),
}

impl SimCodec {
    fn for_variant(variant: ProtocolVariant) -> Self {
        match variant {
            ProtocolVariant::Rxl => SimCodec::Rxl(RxlFlitCodec::new()),
            _ => SimCodec::Cxl(CxlFlitCodec::new()),
        }
    }

    /// Encodes `flit` bound to link-layer sequence number `seq` (ignored by
    /// the CXL codec, whose CRC has no sequence component).
    #[inline]
    fn encode(&self, flit: &Flit256, seq: u16) -> WireFlit {
        match self {
            SimCodec::Cxl(c) => c.encode(flit),
            SimCodec::Rxl(c) => c.encode(flit, seq),
        }
    }
}

/// The payload of an in-fabric flit: either a handle to the *logical* flit
/// plus its bound sequence number (no wire bytes materialised yet — the state
/// every flit starts in and, on a quiet link, stays in for its whole
/// journey), or the explicit 256-byte wire image (forced the moment a channel
/// corrupts the flit or a switch pipeline needs real bytes).
///
/// Because a clean wire image is a pure function of `(flit, seq)`, deferring
/// the encode is invisible to the simulation: a flit that reaches its
/// destination still `Clean` is handed to [`LinkEndpoint::receive_trusted`],
/// whose outcome is provably identical to encode-then-`receive` (see the
/// equivalence argument on [`rxl_link::LinkRx::receive_trusted`]).
///
/// # Ownership
///
/// `Clean` holds the very [`FlitRef`] the transmitter emitted — the same
/// allocation its replay buffer retains — from injection until delivery (or
/// a drop), so a clean hop moves a pointer and a retransmission re-injects
/// the same flit, not a copy. The shared flit is never written through this
/// handle: [`Self::materialize`] encodes it into a private `Box<WireFlit>`,
/// which is what corruption and FEC correction mutate, and releases the
/// handle. `Wire` is boxed because it is the rare state (< 1 % of hops at
/// realistic BER); inline it would make every queued flit 256 bytes.
#[derive(Clone)]
enum FlitPayload {
    Clean { flit: FlitRef, seq: u16 },
    Wire(Box<WireFlit>),
}

impl FlitPayload {
    /// Forces the wire image into existence (encoding on first call) and
    /// returns it for in-place mutation.
    #[inline]
    fn materialize(&mut self, codec: &SimCodec) -> &mut WireFlit {
        if let FlitPayload::Clean { flit, seq } = self {
            *self = FlitPayload::Wire(Box::new(codec.encode(flit, *seq)));
        }
        match self {
            FlitPayload::Wire(wire) => wire,
            FlitPayload::Clean { .. } => unreachable!("materialize just set Wire"),
        }
    }
}

/// A flit in flight through the fabric, with its out-of-band routing
/// metadata (the modelled PBR destination identifier).
#[derive(Clone)]
struct RoutedFlit {
    payload: FlitPayload,
    /// Destination endpoint index.
    dst: usize,
    /// `true` for payload-bearing protocol flits (as opposed to standalone
    /// ACK / NACK control flits) — the population the failure analysis
    /// counts.
    protocol: bool,
    /// `true` if this is a retransmission from a replay buffer.
    retransmission: bool,
    /// Virtual channel the flit currently occupies (the lane it was staged
    /// into at its current switch). Endpoint-held flits use 0.
    vc: u8,
    /// Per-dimension dateline-crossing bits (bit `d` set once the flit has
    /// crossed dimension `d`'s dateline trunk). Updated on arrival at the
    /// far switch of a dateline trunk; the escape-VC class of every later
    /// hop in that dimension is 1.
    crossed: u8,
}

// A hop moves a `RoutedFlit` by value three times (queue pop, transmit,
// stage); it must stay a handle plus metadata, never a payload.
const _: () = assert!(std::mem::size_of::<RoutedFlit>() <= 32);

/// What sits on the far side of a switch port.
#[derive(Clone, Copy, Debug)]
enum PortPeer {
    Endpoint(usize),
    Trunk { switch: usize, trunk: usize },
    Unconnected,
}

/// Outcome of planning a flit's next hop at a switch (see
/// [`FabricSim::plan_hop`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HopPlan {
    /// No surviving route: the flit is swallowed by fault injection.
    Blackhole,
    /// Buffer the flit in VC `vc` of output port `egress`.
    Lane { egress: usize, vc: usize },
    /// Every usable lane is out of credits; the flit holds its place.
    Blocked,
}

/// Sentinel for an [`FabricSim::adaptive_pin`] entry no flit has set yet.
const NO_PIN: u32 = u32::MAX;

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

/// One fabric trial: every endpoint, switch, queue and auditor.
///
/// # Determinism and RNG draw order (event-jump shape)
///
/// The trial owns a single `StdRng` seeded from [`FabricConfig::seed`], and
/// every random decision draws from it in a fixed order: phase 1 visits
/// endpoints in ascending index order, phase 2 visits switch output ports in
/// ascending `(switch, port)` order, and a draw happens only when a flit is
/// actually present. Channel randomness is *event-jump shaped*: every link
/// owns an [`EventCursor`] that counts the link's flit traversals and caches
/// the traversal index of the channel's next error event
/// ([`Channel::next_error_slot`] — one geometric jump per error event, plus
/// one resample per piecewise boundary or state dwell for time-varying
/// channels), so a traversal short of the cached event consumes **zero**
/// draws and a quiet link costs no RNG work per slot. The active-port
/// bitmaps compose with this unchanged: skipping an empty port skips no
/// draws, and skipping a pre-event traversal skips none either. What the
/// reproducibility contract (`tests/fabric_golden_digest.rs`, and the
/// 1-vs-N-thread test in [`crate::montecarlo`]) pins is therefore the visit
/// order — endpoints ascending, then `(switch, port)` ascending, each link's
/// cursor consulted exactly once per traversal in that order. Relative to
/// the pre-event-jump engine the draw *sequence* differs (the golden digest
/// was re-pinned for this contract); per-link error statistics are pinned
/// instead by the statistical-equivalence suite
/// (`tests/skip_ahead_equivalence.rs`), and an ideal channel is draw-free
/// under both shapes, so ideal-channel trials stayed bit-identical across
/// the change.
///
/// Fault injection composes with this contract rather than weakening it:
/// per-link channel overrides are driven through the same per-link cursor
/// and draw from the same RNG at exactly the points the static channel
/// would (the [`Channel`] trait documents the sampling rules
/// implementations must follow). Installing or resetting an override resets
/// only that link's cursor — the chaos runner reinstalls only on a real
/// spec change, so an unchanged channel keeps its cached event and its
/// draw stream. With no overrides installed the static `config.channel`
/// path is taken unchanged, so a scenario-free trial, and every trial
/// before its first scenario event, remains bit-identical to the pristine
/// engine.
///
/// Injection composes the same way: it never draws from the trial RNG
/// (arrival schedules are precomputed). Every endpoint has an [`Injector`]
/// over its session's shared stream, which tops the transmitter up to one
/// flit's worth of pending messages before each transmit opportunity — the
/// transmitter packs at most that many per flit, so it behaves exactly as if
/// it had been handed every due message at once. With `offered_load` unset
/// everything is due at `begin` and no slot does release work — pinned,
/// again, by the golden digest.
///
/// Probes are the third composition point, and the strictest: the `P`
/// type parameter (default [`NullProbe`]) receives structured lifecycle
/// events from every phase, but **a probe never draws from the trial RNG
/// and never feeds state back into the engine** — see the
/// [`crate::probe`] module docs for the full contract. With `P =
/// NullProbe` every `if P::ENABLED` guard is a constant `false` and the
/// instrumentation compiles out entirely, so [`FabricSim::new`] remains
/// the pristine engine the golden digest pins.
pub struct FabricSim<'a, P: Probe = NullProbe> {
    topology: &'a FabricTopology,
    routing: &'a RoutingTable,
    config: FabricConfig,
    /// [`FabricConfig::vc_count`], hoisted for the hot path.
    vcc: usize,
    endpoints: Vec<LinkEndpoint>,
    switches: Vec<Switch>,
    /// `out_q[switch][port * vcc + vc]`: flits awaiting transmission on that
    /// port's virtual channel `vc` (the *lane*). With `vc_count == 1` the
    /// lane index degenerates to the port index — the pre-VC layout.
    out_q: Vec<Vec<VecDeque<RoutedFlit>>>,
    /// Flits that arrived this slot, appended to `out_q` at slot end so a
    /// flit crosses at most one switch per slot. Lane-indexed like `out_q`.
    /// The inner vectors are drained, never dropped, so their capacity is
    /// reused across slots.
    staged: Vec<Vec<Vec<RoutedFlit>>>,
    /// Per-(switch, port) VC credit ledgers — the authoritative occupancy
    /// count over `out_q` + `staged` lanes, and the congestion signal the
    /// adaptive egress choice compares.
    credits: Vec<Vec<VcCredits>>,
    /// Per-(switch, port) round-robin VC output arbiters.
    arb: Vec<Vec<VcArbiter>>,
    /// Per-trunk ring dimension (from [`FabricTopology::trunk_class`]).
    trunk_dim: Vec<u8>,
    /// Per-trunk `crossed`-bitmask delta: `1 << dim` for a dateline trunk,
    /// 0 otherwise, OR-ed into a flit's `crossed` bits on arrival.
    trunk_dateline_mask: Vec<u8>,
    /// Flits currently inside the fabric per destination endpoint — the
    /// flowlet gate for adaptive routing: a destination's path pins are
    /// frozen while any of its flits are in flight, so adaptive spreading
    /// can never reorder a session's flit stream (an overtaken flit would
    /// otherwise trigger the link layer's go-back-N replay).
    in_flight: Vec<u32>,
    /// `adaptive_pin[switch][dst]`: the egress port the last flit bound for
    /// `dst` took out of `switch` ([`NO_PIN`] before any did). Recorded on
    /// every forwarded hop; a flit is free to *deviate* from the pin (and
    /// re-choose by occupancy) only when `in_flight[dst]` says the
    /// destination's stream is otherwise idle. Empty unless
    /// `config.adaptive`.
    adaptive_pin: Vec<Vec<u32>>,
    /// Active-work tracking: `out_nonempty[switch]` is a bitmap (one bit per
    /// port) of ports with a non-empty `out_q`, `sw_out_any` a bitmap (one
    /// bit per switch) of switches with any such port, so the per-slot
    /// forwarding phase visits exactly the ports holding flits — a quiet
    /// fabric costs a few zero-word scans per slot instead of a dense
    /// switch×port sweep. `staged_*` mirrors the same structure for the
    /// flits staged during the current slot.
    out_nonempty: Vec<Vec<u64>>,
    sw_out_any: Vec<u64>,
    sw_out_count: Vec<usize>,
    staged_nonempty: Vec<Vec<u64>>,
    sw_staged_any: Vec<u64>,
    sw_staged_count: Vec<usize>,
    /// Total non-empty output queues (the phase-3 quiescence check).
    nonempty_out_ports: usize,
    /// One-flit stall register per endpoint (credit backpressure).
    stalled: Vec<Option<RoutedFlit>>,
    /// `port_peer[switch][port]`.
    port_peer: Vec<Vec<PortPeer>>,
    /// Session index of every endpoint.
    session_of: Vec<usize>,
    /// Peer endpoint of every endpoint.
    peer_of: Vec<usize>,
    /// Per-endpoint mirror of the receiving auditor's open-gap state at the
    /// end of the previous delivery, so each drop episode is counted as one
    /// undetected-drop event exactly once.
    gap_open: Vec<bool>,
    downstream_audits: Vec<DeliveryAuditor>,
    upstream_audits: Vec<DeliveryAuditor>,
    undetected_drop_events: u64,
    protocol_flit_drops: u64,
    payload_drops: u64,
    eligible_payload_drops: u64,
    replay_leak_events: u64,
    credit_stalls: u64,
    /// `true` once any endpoint accepted a flit in the current slot (stall
    /// guard bookkeeping).
    accepted_this_slot: bool,
    rng: StdRng,
    /// Per-link channel overrides installed by a fault-injection scenario,
    /// indexed by [`LinkId::index`] (endpoint attachment links first, then
    /// trunks). `None` ⇒ every link runs the static `config.channel` — the
    /// zero-cost path scenario-free trials stay on.
    link_channels: Option<Vec<Option<Box<dyn Channel>>>>,
    /// Per-link skip-ahead cursors (indexed like `link_channels`): each
    /// counts the link's traversals and caches the traversal index of the
    /// channel's next error event, so traversals short of the event consume
    /// zero RNG draws. Reset whenever that link's channel is replaced.
    link_cursors: Vec<EventCursor>,
    /// `true` when the switch forwarding pipeline is provably the identity
    /// on clean flits (`switch_internal` disabled): lets a zero-flip
    /// traversal take [`Switch::forward_clean`] instead of the full
    /// decode/CRC/re-encode pipeline. Hoisted from `config` for the hot
    /// path.
    clean_switch: bool,
    /// The engine-held flit encoder used to materialise deferred
    /// ([`FlitPayload::Clean`]) wire images on demand. Matches the
    /// endpoints' codecs bit-for-bit (see [`SimCodec`]).
    codec: SimCodec,
    /// Routing recomputed after a switch drain/failure; `None` ⇒ the shared
    /// pristine table.
    routing_override: Option<RoutingTable>,
    /// Switches that failed hard: queues purged, all ingress blackholed.
    dead_switches: Vec<bool>,
    /// Switches excluded from transit routing (drained or dead).
    no_transit: Vec<bool>,
    blackholed_flits: u64,
    first_fail_order_slot: Option<u64>,
    /// Slot at which a flit last moved anywhere (staged, consumed by a
    /// switch pipeline, delivered, or blackholed). Distinguishes a credit
    /// deadlock (flits wedged, zero motion) from the baseline-CXL replay
    /// livelock (constant motion, zero acceptance) when the stall guard
    /// trips.
    last_motion_slot: u64,
    deadlock: bool,
    post_delivery_wedge: bool,
    /// One injector per endpoint, feeding its transmitter from the session's
    /// shared stream (empty until [`Self::begin`]).
    injectors: Vec<Injector>,
    /// Messages not yet due under paced injection (drain gate; always 0 on
    /// the greedy path, where everything is due at `begin`).
    pending_paced: usize,
    /// The lifecycle-event probe ([`NullProbe`] unless built with
    /// [`FabricSim::with_probe`]). Write-only from the engine's point of
    /// view: events go in, nothing comes back.
    probe: P,
    // Run-loop state, persisted across `step` calls so scenario engines can
    // pause the trial at epoch boundaries.
    workload_loaded: bool,
    slots: u64,
    drained: bool,
    last_accept_slot: u64,
    flit_time_ns: f64,
}

impl<'a> FabricSim<'a> {
    /// Builds one trial over a validated topology and its routing tables,
    /// with instrumentation disabled ([`NullProbe`] — zero cost, pinned
    /// bit-identical to the pre-probe engine by the golden digest).
    pub fn new(
        topology: &'a FabricTopology,
        routing: &'a RoutingTable,
        config: FabricConfig,
    ) -> Self {
        FabricSim::with_probe(topology, routing, config, NullProbe)
    }
}

impl<'a, P: Probe> FabricSim<'a, P> {
    /// Builds one trial with an explicit lifecycle-event [`Probe`]. The
    /// probe observes; it never draws from the trial RNG or influences the
    /// trial (see [`crate::probe`]), so the simulated outcome is identical
    /// for every probe type. Retrieve the probe with [`Self::probe`] /
    /// [`Self::probe_mut`] mid-run or [`Self::finish_with_probe`] at the
    /// end.
    pub fn with_probe(
        topology: &'a FabricTopology,
        routing: &'a RoutingTable,
        config: FabricConfig,
        probe: P,
    ) -> Self {
        topology.validate();
        let vcc = config.vc_count;
        assert!(
            (1..=MAX_VCS).contains(&vcc),
            "vc_count must be in 1..={MAX_VCS}"
        );
        assert!(
            !config.adaptive || vcc >= 3,
            "adaptive routing needs two escape VCs plus at least one adaptive VC (vc_count >= 3)"
        );
        let link_cfg = config.link_config();
        let endpoints: Vec<LinkEndpoint> = topology
            .endpoints
            .iter()
            .map(|_| LinkEndpoint::new(link_cfg))
            .collect();
        let switches: Vec<Switch> = topology
            .switches
            .iter()
            .map(|sw| Switch::new(config.switch_config(sw.ports)))
            .collect();

        let mut port_peer: Vec<Vec<PortPeer>> = topology
            .switches
            .iter()
            .map(|sw| vec![PortPeer::Unconnected; sw.ports])
            .collect();
        for (id, ep) in topology.endpoints.iter().enumerate() {
            port_peer[ep.switch][ep.port] = PortPeer::Endpoint(id);
        }
        for (ti, t) in topology.trunks.iter().enumerate() {
            port_peer[t.a.0][t.a.1] = PortPeer::Trunk {
                switch: t.b.0,
                trunk: ti,
            };
            port_peer[t.b.0][t.b.1] = PortPeer::Trunk {
                switch: t.a.0,
                trunk: ti,
            };
        }

        let mut session_of = vec![usize::MAX; topology.endpoints.len()];
        let mut peer_of = vec![usize::MAX; topology.endpoints.len()];
        for (s, session) in topology.sessions.iter().enumerate() {
            session_of[session.host] = s;
            session_of[session.device] = s;
            peer_of[session.host] = session.device;
            peer_of[session.device] = session.host;
        }

        let out_q = topology
            .switches
            .iter()
            .map(|sw| (0..sw.ports * vcc).map(|_| VecDeque::new()).collect())
            .collect();
        let staged = topology
            .switches
            .iter()
            .map(|sw| (0..sw.ports * vcc).map(|_| Vec::new()).collect())
            .collect();
        let credits = topology
            .switches
            .iter()
            .map(|sw| {
                (0..sw.ports)
                    .map(|_| VcCredits::new(vcc, config.queue_capacity))
                    .collect()
            })
            .collect();
        let arb = topology
            .switches
            .iter()
            .map(|sw| vec![VcArbiter::new(); sw.ports])
            .collect();
        let trunk_dim = (0..topology.trunks.len())
            .map(|ti| topology.trunk_class(ti).dim)
            .collect();
        let trunk_dateline_mask = (0..topology.trunks.len())
            .map(|ti| {
                let class = topology.trunk_class(ti);
                if class.dateline {
                    1u8 << class.dim
                } else {
                    0
                }
            })
            .collect();
        let port_bitmaps: Vec<Vec<u64>> = topology
            .switches
            .iter()
            .map(|sw| vec![0u64; sw.ports.div_ceil(64)])
            .collect();
        let sw_bitmap = vec![0u64; topology.switches.len().div_ceil(64)];
        let adaptive_pin = if config.adaptive {
            vec![vec![NO_PIN; topology.endpoints.len()]; topology.switches.len()]
        } else {
            Vec::new()
        };

        FabricSim {
            vcc,
            endpoints,
            switches,
            out_q,
            staged,
            credits,
            arb,
            trunk_dim,
            trunk_dateline_mask,
            in_flight: vec![0; topology.endpoints.len()],
            adaptive_pin,
            out_nonempty: port_bitmaps.clone(),
            sw_out_any: sw_bitmap.clone(),
            sw_out_count: vec![0; topology.switches.len()],
            staged_nonempty: port_bitmaps,
            sw_staged_any: sw_bitmap,
            sw_staged_count: vec![0; topology.switches.len()],
            nonempty_out_ports: 0,
            stalled: vec![None; topology.endpoints.len()],
            port_peer,
            session_of,
            peer_of,
            gap_open: vec![false; topology.endpoints.len()],
            downstream_audits: vec![DeliveryAuditor::new(); topology.sessions.len()],
            upstream_audits: vec![DeliveryAuditor::new(); topology.sessions.len()],
            undetected_drop_events: 0,
            protocol_flit_drops: 0,
            payload_drops: 0,
            eligible_payload_drops: 0,
            replay_leak_events: 0,
            credit_stalls: 0,
            accepted_this_slot: false,
            rng: StdRng::seed_from_u64(config.seed),
            link_channels: None,
            link_cursors: vec![EventCursor::new(); topology.link_count()],
            clean_switch: config.switch_internal.per_flit_probability <= 0.0,
            codec: SimCodec::for_variant(config.variant),
            routing_override: None,
            dead_switches: vec![false; topology.switches.len()],
            no_transit: vec![false; topology.switches.len()],
            blackholed_flits: 0,
            first_fail_order_slot: None,
            last_motion_slot: 0,
            deadlock: false,
            post_delivery_wedge: false,
            injectors: Vec::new(),
            pending_paced: 0,
            probe,
            workload_loaded: false,
            slots: 0,
            drained: false,
            last_accept_slot: 0,
            flit_time_ns: config.link_config().flit_time_ns,
            topology,
            routing,
            config,
        }
    }

    /// Simulated time in nanoseconds. The slot counter is the engine's only
    /// clock: `step` derives this once per slot and hands it down to every
    /// channel, transmitter and receiver it drives.
    #[inline]
    fn now(&self) -> f64 {
        self.slots as f64 * self.flit_time_ns
    }

    /// The active egress lookup: the scenario-recomputed table once a switch
    /// has been drained or failed, the pristine shared table otherwise.
    #[inline]
    fn egress_of(&self, sw: usize, dst: usize) -> usize {
        match &self.routing_override {
            Some(r) => r.egress(sw, dst),
            None => self.routing.egress(sw, dst),
        }
    }

    /// The active minimal next-hop candidate set (adaptive choice set),
    /// with the same override dispatch as [`Self::egress_of`].
    #[inline]
    fn candidates_of(&self, sw: usize, dst: usize) -> &[usize] {
        match &self.routing_override {
            Some(r) => r.candidates(sw, dst),
            None => self.routing.candidates(sw, dst),
        }
    }

    /// The escape VC a flit with dateline-crossing state `crossed` rides on
    /// egress port `egress` of switch `sw`: VC 1 once the flit has crossed
    /// the dateline of the egress trunk's ring dimension, VC 0 before (and
    /// always for endpoint-facing egresses, which are unconditional sinks).
    /// With fewer than two VCs everything is clamped to VC 0 — the pre-VC
    /// single-queue behaviour, deadlock included.
    #[inline]
    fn escape_vc(&self, sw: usize, egress: usize, crossed: u8) -> usize {
        if self.vcc < 2 {
            return 0;
        }
        match self.port_peer[sw][egress] {
            PortPeer::Trunk { trunk, .. } => ((crossed >> self.trunk_dim[trunk]) & 1) as usize,
            _ => 0,
        }
    }

    /// Runs a flit through the channel of link `link` (a raw
    /// [`LinkId::index`]) via that link's skip-ahead cursor, returning the
    /// number of bits flipped. A traversal short of the cached next-error
    /// event consumes zero draws *and materialises no wire bytes* — the
    /// common case on every realistic-BER link: the flit stays
    /// [`FlitPayload::Clean`] and only the cursor's traversal counter moves.
    /// Only when the cursor says this traversal is the cached error event is
    /// the wire image encoded (if still deferred) and corrupted in place.
    /// With no overrides installed the cursor drives the static
    /// `config.channel`.
    #[inline]
    fn corrupt_on_link(&mut self, link: usize, payload: &mut FlitPayload, now: f64) -> usize {
        let cursor = &mut self.link_cursors[link];
        let channel: &mut dyn Channel = match &mut self.link_channels {
            Some(overrides) => match &mut overrides[link] {
                Some(ch) => ch.as_mut(),
                None => &mut self.config.channel,
            },
            None => &mut self.config.channel,
        };
        if !cursor.step(channel, (WIRE_FLIT_LEN * 8) as u64, now, &mut self.rng) {
            return 0;
        }
        let wire = payload.materialize(&self.codec);
        cursor.corrupt_event(channel, wire, now, &mut self.rng)
    }

    /// Records a fault-injection blackhole drop at switch `sw` (which is
    /// flit motion for deadlock-classification purposes: state changed).
    fn note_blackhole(&mut self, sw: usize) {
        self.blackholed_flits += 1;
        self.last_motion_slot = self.slots;
        if P::ENABLED {
            self.probe.on_blackhole(self.slots, sw);
        }
    }

    /// Self-profiler phase boundary: with a live clock (only ever `Some`
    /// when `P::ENABLED && P::PROFILE`), reports the nanoseconds since the
    /// previous boundary to the probe and restarts the clock. Wall-clock
    /// readings flow *only* into the probe — never back into simulation
    /// state — so profiled trials stay bit-identical to unprofiled ones.
    #[inline]
    fn phase_mark(&mut self, clock: &mut Option<std::time::Instant>, phase: EnginePhase) {
        if let Some(t) = clock {
            let mark = std::time::Instant::now();
            self.probe
                .on_phase(phase, mark.duration_since(*t).as_nanos() as u64);
            *t = mark;
        }
    }

    /// Lane index of `(port, vc)` in the flat per-switch lane arrays.
    #[inline]
    fn lane(&self, port: usize, vc: usize) -> usize {
        port * self.vcc + vc
    }

    /// Free credit on VC `vc` of output port `(sw, port)`. The ledger counts
    /// flits that already arrived this slot (staged) as occupying.
    #[inline]
    fn has_credit(&self, sw: usize, port: usize, vc: usize) -> bool {
        debug_assert_eq!(
            self.credits[sw][port].occupancy(vc),
            self.out_q[sw][self.lane(port, vc)].len() + self.staged[sw][self.lane(port, vc)].len(),
            "credit ledger must mirror the lane queues"
        );
        self.credits[sw][port].has_credit(vc)
    }

    /// Where the next hop of a flit bound for `dst`, arriving at switch `sw`
    /// with dateline state `crossed`, will be buffered — or why it can't be.
    ///
    /// `others` is the number of *other* flits bound for `dst` currently in
    /// the fabric. Adaptive spreading is flowlet-gated on it: while a
    /// destination's stream has flits in flight, this switch's pinned egress
    /// is the only adaptive candidate, so consecutive flits can never take
    /// divergent equal-length paths and overtake each other (which the link
    /// layer's go-back-N replay would punish as a drop). Only an idle stream
    /// (`others == 0`) re-chooses its path by occupancy. The escape lane
    /// stays available as the Duato valve either way, so deadlock freedom
    /// never depends on the pins.
    fn plan_hop(&self, sw: usize, dst: usize, crossed: u8, others: u32) -> HopPlan {
        let escape = self.egress_of(sw, dst);
        if escape == NO_ROUTE {
            return HopPlan::Blackhole;
        }
        // Minimal-adaptive first: the adaptive VC (2..vcc) of the
        // least-occupied candidate port with a free credit, ties broken by
        // (port, vc) — a pure function of queue state, no RNG draws.
        if self.config.adaptive {
            let pinned = if others > 0 {
                self.adaptive_pin[sw][dst]
            } else {
                NO_PIN
            };
            let mut best: Option<(usize, usize, usize)> = None;
            for &port in self.candidates_of(sw, dst) {
                if matches!(self.port_peer[sw][port], PortPeer::Endpoint(_)) {
                    // Final-hop delivery always rides VC 0 of the endpoint
                    // lane (an unconditional sink — nothing to adapt).
                    continue;
                }
                if pinned != NO_PIN && port as u32 != pinned {
                    continue;
                }
                let occupancy = self.credits[sw][port].total_occupancy();
                for vc in 2..self.vcc {
                    if self.has_credit(sw, port, vc) {
                        let key = (occupancy, port, vc);
                        if best.is_none_or(|b| key < b) {
                            best = Some(key);
                        }
                        break; // lower vc of the same port always wins
                    }
                }
            }
            if let Some((_, port, vc)) = best {
                return HopPlan::Lane { egress: port, vc };
            }
        }
        // Escape path: the deterministic route on the dateline-classed VC.
        let vc = self.escape_vc(sw, escape, crossed);
        if self.has_credit(sw, escape, vc) {
            HopPlan::Lane { egress: escape, vc }
        } else {
            HopPlan::Blocked
        }
    }

    /// Records that `staged[sw][port]` became non-empty this slot.
    #[inline]
    fn mark_staged(&mut self, sw: usize, port: usize) {
        let (wi, mask) = (port / 64, 1u64 << (port % 64));
        if self.staged_nonempty[sw][wi] & mask == 0 {
            self.staged_nonempty[sw][wi] |= mask;
            if self.sw_staged_count[sw] == 0 {
                self.sw_staged_any[sw / 64] |= 1u64 << (sw % 64);
            }
            self.sw_staged_count[sw] += 1;
        }
    }

    /// Records that `out_q[sw][port]` became non-empty (phase 3 merge).
    #[inline]
    fn mark_out_nonempty(&mut self, sw: usize, port: usize) {
        let (wi, mask) = (port / 64, 1u64 << (port % 64));
        if self.out_nonempty[sw][wi] & mask == 0 {
            self.out_nonempty[sw][wi] |= mask;
            self.nonempty_out_ports += 1;
            if self.sw_out_count[sw] == 0 {
                self.sw_out_any[sw / 64] |= 1u64 << (sw % 64);
            }
            self.sw_out_count[sw] += 1;
        }
    }

    /// Clears the tracking bit for port `port` if the lane pop that just
    /// happened emptied *every* lane of the port (the bitmaps stay
    /// port-granular; lanes share their port's bit).
    #[inline]
    fn note_out_pop(&mut self, sw: usize, port: usize) {
        let first = self.lane(port, 0);
        if self.out_q[sw][first..first + self.vcc]
            .iter()
            .all(VecDeque::is_empty)
        {
            let (wi, mask) = (port / 64, 1u64 << (port % 64));
            debug_assert_ne!(self.out_nonempty[sw][wi] & mask, 0);
            self.out_nonempty[sw][wi] &= !mask;
            self.nonempty_out_ports -= 1;
            self.sw_out_count[sw] -= 1;
            if self.sw_out_count[sw] == 0 {
                self.sw_out_any[sw / 64] &= !(1u64 << (sw % 64));
            }
        }
    }

    /// Transmits `rf` into switch `sw` over link `link` (applying that
    /// link's channel error and the switch's forwarding pipeline) towards
    /// the lane chosen by [`Self::plan_hop`] — `rf.crossed` must already
    /// reflect the dateline crossing of the link just traversed. Returns the
    /// flit untouched if every usable lane is out of credits; `None` once it
    /// has been queued, silently dropped, or blackholed by fault injection
    /// (dead switch / no surviving route).
    fn transmit_into(
        &mut self,
        sw: usize,
        link: usize,
        mut rf: RoutedFlit,
        now: f64,
    ) -> Option<RoutedFlit> {
        // An injection (endpoint attachment link) is not yet counted in
        // `in_flight`; a trunk arrival is.
        let injecting = link < self.endpoints.len();
        let others = self.in_flight[rf.dst] - u32::from(!injecting);
        if self.dead_switches[sw] {
            if !injecting {
                self.in_flight[rf.dst] -= 1;
            }
            self.note_blackhole(sw);
            return None;
        }
        let (egress, vc) = match self.plan_hop(sw, rf.dst, rf.crossed, others) {
            HopPlan::Blackhole => {
                if !injecting {
                    self.in_flight[rf.dst] -= 1;
                }
                self.note_blackhole(sw);
                return None;
            }
            HopPlan::Blocked => {
                self.credit_stalls += 1;
                if P::ENABLED {
                    // Charge the stall to the planned escape egress — the
                    // port whose lanes were out of credit — so spatial
                    // probes can attribute ingress stalls to the congested
                    // link. Plan state is pure queue/table lookup: no RNG.
                    let egress = self.egress_of(sw, rf.dst);
                    let evc = self.escape_vc(sw, egress, rf.crossed);
                    self.probe
                        .on_credit_stall(self.slots, sw, Some(egress), Some(evc));
                }
                return Some(rf);
            }
            HopPlan::Lane { egress, vc } => (egress, vc),
        };
        self.last_motion_slot = self.slots;
        if P::ENABLED {
            self.probe.on_link_traversal(LinkTraversalEvent {
                slot: self.slots,
                link,
                hop: if injecting {
                    LinkHop::Inject
                } else {
                    LinkHop::Trunk
                },
                protocol: rf.protocol,
                retransmission: rf.retransmission,
            });
        }
        let flips = self.corrupt_on_link(link, &mut rf.payload, now);
        // Known-clean bypass: zero channel flips and a disabled internal
        // model mean the full pipeline is the identity and draw-free on this
        // flit (the previous hop emitted a valid codeword with a matching
        // CRC), so only the statistics need touching. This is where the
        // skip-ahead path earns its quiet-link speedup: no FEC decode, no
        // CRC verify, no re-encode — and, for a still-deferred
        // [`FlitPayload::Clean`] flit, no wire bytes at all.
        let verdict = if flips == 0 && self.clean_switch {
            self.switches[sw].forward_clean();
            ProcessVerdict::Forwarded {
                corrected_symbols: 0,
                internally_corrupted: false,
            }
        } else {
            let wire = rf.payload.materialize(&self.codec);
            self.switches[sw].process_in_place(wire, &mut self.rng)
        };
        match verdict {
            ProcessVerdict::Forwarded {
                corrected_symbols, ..
            } => {
                if P::ENABLED && corrected_symbols > 0 {
                    self.probe.on_channel_error(ChannelErrorEvent {
                        slot: self.slots,
                        switch: sw,
                        link,
                        dropped: false,
                        corrected_symbols,
                    });
                }
                rf.vc = vc as u8;
                let dst = rf.dst;
                let lane = self.lane(egress, vc);
                self.staged[sw][lane].push(rf);
                if injecting {
                    self.in_flight[dst] += 1;
                }
                if self.config.adaptive {
                    // Record the path taken at *every* hop, not just the
                    // choosing one: a lead flit reaches downstream switches
                    // after its followers were injected, and those switches
                    // must replay its exact ports or the followers could
                    // overtake it on a divergent equal-length path.
                    self.adaptive_pin[sw][dst] = egress as u32;
                }
                self.credits[sw][egress].occupy(vc);
                if P::ENABLED {
                    let occupancy = self.credits[sw][egress].occupancy(vc);
                    self.probe
                        .on_vc_occupancy(self.slots, sw, egress, vc, occupancy);
                }
                self.mark_staged(sw, egress);
            }
            ProcessVerdict::DroppedUncorrectable => {
                if P::ENABLED {
                    self.probe.on_channel_error(ChannelErrorEvent {
                        slot: self.slots,
                        switch: sw,
                        link,
                        dropped: true,
                        corrected_symbols: 0,
                    });
                }
                if !injecting {
                    self.in_flight[rf.dst] -= 1;
                }
                // Silent drop; the endpoints' retry machinery (or lack of
                // it, for baseline CXL's blind spot) is on its own.
                if rf.protocol {
                    self.protocol_flit_drops += 1;
                    if !rf.retransmission {
                        self.payload_drops += 1;
                        if !self.gap_open[rf.dst] && !self.endpoints[rf.dst].rx().awaiting_replay()
                        {
                            self.eligible_payload_drops += 1;
                        }
                    }
                }
            }
        }
        None
    }

    /// One output port's transmit opportunity for this slot: scan the port's
    /// virtual channels in round-robin order and act on the first head flit
    /// able to move — deliver to the attached endpoint, blackhole on a dead
    /// next hop, or forward into the next switch's planned lane. Any action
    /// (blackholes included, matching the pre-VC engine) consumes the
    /// opportunity and advances the arbiter; a head with no downstream
    /// credit lets the scan continue to the next VC, and a port where
    /// *every* non-empty VC was blocked records one credit-stall slot —
    /// with `vc_count == 1` exactly the pre-VC per-port accounting.
    fn forward_port(&mut self, sw: usize, port: usize, now: f64) {
        let vcc = self.vcc;
        let mut any_blocked = false;
        let mut blocked_vc: Option<usize> = None;
        for k in 0..vcc {
            let vc = self.arb[sw][port].pick(k, vcc);
            let lane = self.lane(port, vc);
            let Some(head) = self.out_q[sw][lane].front() else {
                continue;
            };
            let head_dst = head.dst;
            let head_crossed = head.crossed;
            match self.port_peer[sw][port] {
                PortPeer::Endpoint(dst) => {
                    debug_assert_eq!(head_dst, dst);
                    let rf = self.out_q[sw][lane].pop_front().expect("head exists");
                    self.in_flight[dst] -= 1;
                    self.credits[sw][port].release(vc);
                    self.note_out_pop(sw, port);
                    self.arb[sw][port].grant(vc, vcc);
                    self.deliver_to_endpoint(dst, rf, now);
                    return;
                }
                PortPeer::Trunk {
                    switch: next,
                    trunk,
                } => {
                    // A dead next hop (or a destination no surviving route
                    // reaches) swallows the flit instead of wedging the
                    // queue.
                    if self.dead_switches[next] || self.egress_of(next, head_dst) == NO_ROUTE {
                        let _ = self.out_q[sw][lane].pop_front().expect("head exists");
                        self.in_flight[head_dst] -= 1;
                        self.credits[sw][port].release(vc);
                        self.note_out_pop(sw, port);
                        self.arb[sw][port].grant(vc, vcc);
                        self.note_blackhole(next);
                        return;
                    }
                    // Plan the hop (lane + credit) against the next switch
                    // before popping: crossing a dateline trunk updates the
                    // flit's `crossed` bits on arrival, so the plan uses the
                    // post-crossing state while the trunk itself was
                    // traversed under the pre-crossing class.
                    let crossed = head_crossed | self.trunk_dateline_mask[trunk];
                    let others = self.in_flight[head_dst] - 1;
                    if self.plan_hop(next, head_dst, crossed, others) == HopPlan::Blocked {
                        any_blocked = true;
                        if blocked_vc.is_none() {
                            blocked_vc = Some(vc);
                        }
                        continue;
                    }
                    let mut rf = self.out_q[sw][lane].pop_front().expect("head exists");
                    rf.crossed = crossed;
                    self.credits[sw][port].release(vc);
                    self.note_out_pop(sw, port);
                    self.arb[sw][port].grant(vc, vcc);
                    let link = self.endpoints.len() + trunk;
                    let held = self.transmit_into(next, link, rf, now);
                    debug_assert!(held.is_none(), "credit was checked above");
                    return;
                }
                PortPeer::Unconnected => {
                    unreachable!("routing never targets unconnected ports")
                }
            }
        }
        if any_blocked {
            self.credit_stalls += 1;
            if P::ENABLED {
                self.probe
                    .on_credit_stall(self.slots, sw, Some(port), blocked_vc);
            }
        }
    }

    /// Delivers one flit to its destination endpoint, audits the delivered
    /// messages and classifies undetected-drop events.
    fn deliver_to_endpoint(&mut self, dst: usize, mut rf: RoutedFlit, now: f64) {
        self.last_motion_slot = self.slots;
        if P::ENABLED {
            self.probe.on_link_traversal(LinkTraversalEvent {
                slot: self.slots,
                link: dst,
                hop: LinkHop::Deliver,
                protocol: rf.protocol,
                retransmission: rf.retransmission,
            });
        }
        self.corrupt_on_link(dst, &mut rf.payload, now);
        // A flit still `Clean` after its last traversal never needed wire
        // bytes at all: the receiver takes the trusted path (no FEC decode,
        // no CRC verify) whose outcome is provably identical. Anything that
        // was ever corrupted — even if a switch FEC-corrected it back —
        // stays `Wire` and takes the full decode, byte-for-byte the
        // eager-encode engine's behaviour.
        let result = match &rf.payload {
            FlitPayload::Clean { flit, seq } => {
                self.endpoints[dst].receive_trusted(flit, *seq, now)
            }
            FlitPayload::Wire(wire) => self.endpoints[dst].receive(wire, now),
        };
        self.accepted_this_slot |= result.accepted;

        let session = self.session_of[dst];
        let is_device = self.topology.endpoints[dst].role == NodeRole::Device;
        let audit = if is_device {
            &mut self.downstream_audits[session]
        } else {
            &mut self.upstream_audits[session]
        };
        let mut out_of_order = false;
        for msg in &result.delivered {
            let verdict = audit.observe_delivery(msg);
            out_of_order |= verdict == DeliveryVerdict::OutOfOrder;
            if P::ENABLED {
                self.probe.on_deliver(DeliverEvent {
                    slot: self.slots,
                    session,
                    dst,
                    downstream: is_device,
                    key: message_key(msg),
                    tag: msg.tag(),
                    verdict,
                });
            }
        }

        // One undetected-drop (`Fail_order`) event per drop episode — the
        // channel of the paper's Eqn (7): a dropped flit whose successor
        // carried a piggybacked AckNum, so the receiver forwarded mis-ordered
        // data *without noticing the gap*. The counter requires all of:
        //
        // * the flit was forwarded without a sequence check (AckNum in the
        //   FSN field),
        // * its messages jumped over a still-missing predecessor (the
        //   auditor saw an out-of-order delivery),
        // * the receiver was *not* already in a go-back-N replay — data an
        //   ACK-carrying flit leaks through during a detected drop's replay
        //   window is mis-ordered too, but it is a latency-dependent
        //   second-order channel outside the analytic model,
        // * no gap episode is already open (each episode counts once, until
        //   the auditor sees the gap filled by a replay).
        //
        // RXL never forwards unchecked, so it can never produce such events.
        if result.delivered_header.is_some() {
            if result.accepted && !result.sequence_checked && out_of_order {
                if self.endpoints[dst].rx().awaiting_replay() {
                    self.replay_leak_events += 1;
                } else if !self.gap_open[dst] {
                    self.undetected_drop_events += 1;
                    if self.first_fail_order_slot.is_none() {
                        self.first_fail_order_slot = Some(self.slots);
                    }
                    if P::ENABLED {
                        self.probe.on_fail_order(self.slots, session, dst);
                    }
                }
            }
            self.gap_open[dst] = audit.has_open_gaps();
        }
    }

    /// Loads the workload: takes a handle on every stream for the receiving
    /// side's ground-truth auditor and the sending side's injector (no
    /// message is copied; the first trial over a workload builds each
    /// stream's audit index, later ones reuse it). Must be called exactly
    /// once, before [`Self::step`].
    ///
    /// With [`FabricConfig::offered_load`] unset every message is due at its
    /// sending endpoint immediately (the greedy path, byte-for-byte the
    /// pre-pacing engine); with it set, injection is paced at the configured
    /// deterministic fixed rate via [`InjectionPacing::fixed_rate`].
    pub fn begin(&mut self, workload: &FabricWorkload) {
        match self.config.offered_load {
            Some(fraction) => {
                let pacing =
                    InjectionPacing::fixed_rate(workload, fraction * MESSAGES_PER_FLIT as f64);
                self.load_workload(workload, Some(&pacing));
            }
            None => self.load_workload(workload, None),
        }
    }

    /// Like [`Self::begin`], but with an explicit per-message arrival
    /// schedule (ignoring the [`FabricConfig::offered_load`] knob). The
    /// arrival processes of `rxl-load` build these schedules.
    pub fn begin_paced(&mut self, workload: &FabricWorkload, pacing: &InjectionPacing) {
        self.load_workload(workload, Some(pacing));
    }

    fn load_workload(&mut self, workload: &FabricWorkload, pacing: Option<&InjectionPacing>) {
        assert!(!self.workload_loaded, "begin must be called exactly once");
        let sessions = self.topology.sessions.len();
        assert!(
            workload.downstream.len() == sessions && workload.upstream.len() == sessions,
            "workload must cover every session in both directions: {sessions} sessions, \
             {} downstream and {} upstream streams",
            workload.downstream.len(),
            workload.upstream.len()
        );
        if let Some(p) = pacing {
            p.validate(workload);
        }
        self.workload_loaded = true;

        self.injectors = vec![Injector::default(); self.topology.endpoints.len()];
        for (s, session) in self.topology.sessions.iter().enumerate() {
            let (down, up) = (&workload.downstream[s], &workload.upstream[s]);
            self.downstream_audits[s] = DeliveryAuditor::for_stream(Arc::clone(down));
            self.upstream_audits[s] = DeliveryAuditor::for_stream(Arc::clone(up));
            let (host, device) = (session.host, session.device);
            match pacing {
                Some(p) => {
                    // `InjectionPacing` is borrowed, so its schedules are
                    // the one per-message copy a paced trial still makes.
                    self.injectors[host] =
                        Injector::paced(Arc::clone(down), p.downstream[s].clone());
                    self.injectors[device] = Injector::paced(Arc::clone(up), p.upstream[s].clone());
                    self.pending_paced += down.len() + up.len();
                }
                None => {
                    if P::ENABLED {
                        inject_events(&mut self.probe, 0, s, host, device, true, down);
                        inject_events(&mut self.probe, 0, s, device, host, false, up);
                    }
                    self.injectors[host] = Injector::greedy(Arc::clone(down));
                    self.injectors[device] = Injector::greedy(Arc::clone(up));
                }
            }
        }
    }

    /// Makes every paced message whose arrival slot has been reached due at
    /// its endpoint's injector (phase 0 of a slot). A release counts as
    /// trial progress for the stall guard: an open-loop gap between arrivals
    /// (a bursty on/off process can idle for thousands of slots) must not be
    /// classified as a wedge while injections are pending.
    fn release_due(&mut self) {
        let now_slot = self.slots;
        let mut released = 0;
        for (e, injector) in self.injectors.iter_mut().enumerate() {
            let batch = injector.release(now_slot);
            if P::ENABLED && !batch.is_empty() {
                let (session, dst) = (self.session_of[e], self.peer_of[e]);
                let down = self.topology.endpoints[dst].role == NodeRole::Device;
                inject_events(&mut self.probe, now_slot, session, e, dst, down, batch);
            }
            released += batch.len();
        }
        if released > 0 {
            self.pending_paced -= released;
            self.last_accept_slot = now_slot;
        }
    }

    /// Advances the trial by at most `budget` slots (scenario engines pass
    /// the distance to the next epoch boundary; [`Self::run`] passes
    /// `u64::MAX`). Returns why the call stopped; only
    /// [`StepOutcome::Budget`] means the trial can continue.
    pub fn step(&mut self, budget: u64) -> StepOutcome {
        assert!(self.workload_loaded, "step requires begin");
        if self.drained {
            return StepOutcome::Drained;
        }
        let mut stepped = 0u64;
        while self.slots < self.config.max_slots {
            if stepped == budget {
                return StepOutcome::Budget;
            }
            stepped += 1;
            self.slots += 1;
            let now = self.now();
            self.accepted_this_slot = false;
            let mut all_endpoints_idle = true;

            // Self-profiler clock: a constant condition, so unprofiled
            // builds (NullProbe *and* enabled-but-unprofiled probes)
            // compile every phase mark away.
            let mut phase_clock = if P::ENABLED && P::PROFILE {
                Some(std::time::Instant::now())
            } else {
                None
            };

            // Phase 0 — paced injection: messages whose arrival slot has come
            // become due. Free (one integer compare) on the greedy path.
            if self.pending_paced > 0 {
                self.release_due();
            }
            self.phase_mark(&mut phase_clock, EnginePhase::PacedRelease);

            // Phase 1 — endpoint transmit opportunities, in endpoint order.
            for e in 0..self.endpoints.len() {
                let sw = self.topology.endpoints[e].switch;
                if let Some(rf) = self.stalled[e].take() {
                    // A stalled flit consumes this slot's opportunity.
                    all_endpoints_idle = false;
                    self.stalled[e] = self.transmit_into(sw, e, rf, now);
                    continue;
                }
                self.injectors[e].feed(&mut self.endpoints[e]);
                let emission = self.endpoints[e].emit(now);
                let (protocol, retransmission) = match &emission {
                    rxl_link::TxEmission::Protocol { retransmission, .. } => {
                        (true, *retransmission)
                    }
                    _ => (false, false),
                };
                if P::ENABLED {
                    if retransmission {
                        self.probe.on_retransmit(self.slots, e, self.session_of[e]);
                    } else if matches!(&emission, rxl_link::TxEmission::Nack { .. }) {
                        self.probe.on_nack(self.slots, e, self.session_of[e]);
                    }
                }
                if let Some((flit, seq)) = emission.into_flit() {
                    all_endpoints_idle = false;
                    // The wire image is *not* encoded here: the flit enters
                    // the fabric in deferred (`Clean`) form — the emission's
                    // own handle, bound to the sequence number its
                    // transmitter assigned — and only a corrupting traversal
                    // forces the encode.
                    let rf = RoutedFlit {
                        payload: FlitPayload::Clean { flit, seq },
                        dst: self.peer_of[e],
                        protocol,
                        retransmission,
                        vc: 0,
                        crossed: 0,
                    };
                    self.stalled[e] = self.transmit_into(sw, e, rf, now);
                }
            }
            self.phase_mark(&mut phase_clock, EnginePhase::EndpointTx);

            // Phase 2 — every non-empty switch output port forwards at most
            // one flit, in ascending (switch, port) order — exactly the
            // visit order of the dense sweep this replaces, restricted to
            // ports that actually hold flits (empty ports made no RNG draws,
            // so skipping them is bit-identical; see the type-level docs).
            // The word snapshots are safe because processing a port can only
            // clear its *own* bit (the single pop below) and set *staged*
            // bits, never other out-queue bits.
            for swi in 0..self.sw_out_any.len() {
                let mut sw_word = self.sw_out_any[swi];
                while sw_word != 0 {
                    let sw = swi * 64 + sw_word.trailing_zeros() as usize;
                    sw_word &= sw_word - 1;
                    for pwi in 0..self.out_nonempty[sw].len() {
                        let mut port_word = self.out_nonempty[sw][pwi];
                        while port_word != 0 {
                            let port = pwi * 64 + port_word.trailing_zeros() as usize;
                            port_word &= port_word - 1;
                            self.forward_port(sw, port, now);
                        }
                    }
                }
            }
            self.phase_mark(&mut phase_clock, EnginePhase::SwitchForward);

            // Phase 3 — flits that arrived this slot become visible next
            // slot (one switch traversal per slot). Only ports that staged
            // something are touched; the staged buffers keep their capacity.
            for swi in 0..self.sw_staged_any.len() {
                let sw_word = std::mem::take(&mut self.sw_staged_any[swi]);
                let mut bits = sw_word;
                while bits != 0 {
                    let sw = swi * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    for pwi in 0..self.staged_nonempty[sw].len() {
                        let mut port_word = std::mem::take(&mut self.staged_nonempty[sw][pwi]);
                        while port_word != 0 {
                            let port = pwi * 64 + port_word.trailing_zeros() as usize;
                            port_word &= port_word - 1;
                            let (queues, staged) = (&mut self.out_q[sw], &mut self.staged[sw]);
                            for lane in (port * self.vcc)..((port + 1) * self.vcc) {
                                queues[lane].extend(staged[lane].drain(..));
                            }
                            self.mark_out_nonempty(sw, port);
                        }
                    }
                    self.sw_staged_count[sw] = 0;
                }
            }
            self.phase_mark(&mut phase_clock, EnginePhase::StageMerge);
            let queues_empty = self.nonempty_out_ports == 0;

            if all_endpoints_idle
                && queues_empty
                && self.stalled.iter().all(Option::is_none)
                && self.injectors.iter().all(Injector::exhausted)
                && self.endpoints.iter().all(LinkEndpoint::is_quiescent)
            {
                self.drained = true;
                return StepOutcome::Drained;
            }

            // Livelock guard: abort once nothing has been accepted anywhere
            // for the configured window (see `FabricConfig::stall_slots`).
            // While paced injections are still pending the guard is held
            // off: an open-loop arrival gap (bursty processes can idle for
            // many thousands of slots) is scheduled quiet time, not a wedge;
            // a genuinely wedged paced trial is still caught one guard
            // window after its final release.
            if self.accepted_this_slot {
                self.last_accept_slot = self.slots;
            } else if self.config.stall_slots > 0
                && self.pending_paced == 0
                && self.slots - self.last_accept_slot >= self.config.stall_slots
            {
                // If every workload message of every session has been
                // delivered, the wedge is control-plane residue (a
                // retransmitted ACK/NACK exchange that can no longer
                // converge), not lost payload: the trial *did* drain the
                // workload. Report it drained and classify the residual.
                if self
                    .downstream_audits
                    .iter()
                    .chain(&self.upstream_audits)
                    .all(DeliveryAuditor::all_delivered)
                {
                    self.post_delivery_wedge = true;
                    self.drained = true;
                    return StepOutcome::Drained;
                }
                // Classify the wedge: flits stuck in the fabric with no
                // motion anywhere for at least half the guard window is a
                // credit deadlock (once the cyclic credit wait closes,
                // motion ceases entirely); motion without acceptance is the
                // documented replay livelock, which keeps flits moving every
                // few slots right up to the guard.
                self.deadlock = (self.nonempty_out_ports > 0
                    || self.stalled.iter().any(Option::is_some))
                    && self.slots - self.last_motion_slot >= self.config.stall_slots.div_ceil(2);
                return StepOutcome::Stalled;
            }
        }
        StepOutcome::SlotLimit
    }

    /// Open-system serving mode: advances the trial until `horizon` slots
    /// have been simulated, then stops *without draining* — the tail of
    /// in-flight work past the horizon is deliberately left unmeasured, so
    /// steady-state windows are not contaminated by the drain transient a
    /// closed run ends with. Returns [`StepOutcome::Horizon`] when the
    /// horizon was reached with work still in flight; a trial that drains
    /// or wedges before the horizon passes its outcome through unchanged.
    ///
    /// [`FabricConfig::max_slots`] must exceed `horizon` for the horizon to
    /// be reachable (otherwise the slot limit fires first, as in any run).
    /// Call [`Self::finish_with_probe`] afterwards as usual: the report's
    /// `drained` flag records that the run was cut at the horizon.
    pub fn run_to_horizon(&mut self, horizon: u64) -> StepOutcome {
        match self.step(horizon.saturating_sub(self.slots)) {
            StepOutcome::Budget => StepOutcome::Horizon,
            other => other,
        }
    }

    /// Runs the trial to quiescence (or the slot limit) and reports.
    pub fn run(mut self, workload: &FabricWorkload) -> FabricReport {
        self.begin(workload);
        let _ = self.step(u64::MAX);
        self.finish()
    }

    /// Closes the audits (attributing losses) and assembles the final
    /// report.
    pub fn finish(self) -> FabricReport {
        self.finish_with_probe().0
    }

    /// Like [`Self::finish`], additionally handing back the probe with
    /// everything it recorded over the trial.
    pub fn finish_with_probe(self) -> (FabricReport, P) {
        let sim_time_ns = self.now();
        let mut links = LinkStats::default();
        for ep in &self.endpoints {
            links.merge(&ep.stats());
        }
        let mut switches = SwitchStats::default();
        for sw in &self.switches {
            switches.merge(sw.stats());
        }
        let mut downstream = FailureCounts::default();
        let mut upstream = FailureCounts::default();
        let mut per_session = Vec::with_capacity(self.downstream_audits.len());
        for (down, up) in self.downstream_audits.into_iter().zip(self.upstream_audits) {
            let d = down.finalize();
            let u = up.finalize();
            downstream.merge(&d);
            upstream.merge(&u);
            let mut both = d;
            both.merge(&u);
            per_session.push(both);
        }

        let report = FabricReport {
            downstream,
            upstream,
            per_session,
            links,
            switches,
            undetected_drop_events: self.undetected_drop_events,
            protocol_flit_drops: self.protocol_flit_drops,
            payload_drops: self.payload_drops,
            eligible_payload_drops: self.eligible_payload_drops,
            replay_leak_events: self.replay_leak_events,
            credit_stalls: self.credit_stalls,
            blackholed_flits: self.blackholed_flits,
            slots: self.slots,
            sim_time_ns,
            drained: self.drained,
            deadlock: self.deadlock,
            post_delivery_wedge: self.post_delivery_wedge,
            first_fail_order_slot: self.first_fail_order_slot,
        };
        (report, self.probe)
    }

    /// The trial's probe (read access mid-run).
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// The trial's probe, mutably — scenario engines use this to feed it
    /// out-of-band events ([`Probe::on_epoch`]) at epoch boundaries.
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.probe
    }

    /// Slots simulated so far.
    pub fn slot(&self) -> u64 {
        self.slots
    }

    /// The per-trial configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Snapshot of the cumulative counters, for per-epoch deltas.
    pub fn counters(&self) -> FabricCounters {
        let mut failures = FailureCounts::default();
        for audit in self.downstream_audits.iter().chain(&self.upstream_audits) {
            failures.merge(audit.counts());
        }
        FabricCounters {
            slots: self.slots,
            failures,
            undetected_drop_events: self.undetected_drop_events,
            replay_leak_events: self.replay_leak_events,
            payload_drops: self.payload_drops,
            protocol_flit_drops: self.protocol_flit_drops,
            blackholed_flits: self.blackholed_flits,
            credit_stalls: self.credit_stalls,
        }
    }

    /// Slot of the first undetected-drop (`Fail_order`) event so far.
    pub fn first_fail_order_slot(&self) -> Option<u64> {
        self.first_fail_order_slot
    }

    /// Installs a (possibly time-varying) channel on one link, replacing the
    /// static `config.channel` for that link until
    /// [`Self::reset_link_channel`]. The scenario engine in `rxl-chaos` is
    /// the intended caller.
    pub fn set_link_channel(&mut self, link: LinkId, channel: Box<dyn Channel>) {
        let n = self.topology.link_count();
        assert!(link.index() < n, "link out of range");
        let overrides = self
            .link_channels
            .get_or_insert_with(|| (0..n).map(|_| None).collect());
        overrides[link.index()] = Some(channel);
        // The cached next-error event belonged to the replaced channel;
        // resample from the new one at the next traversal. Callers dedup
        // unchanged specs (the chaos runner does), so an untouched link
        // keeps its cache.
        self.link_cursors[link.index()].reset();
    }

    /// Reverts one link to the static `config.channel`.
    pub fn reset_link_channel(&mut self, link: LinkId) {
        if let Some(overrides) = &mut self.link_channels {
            if overrides[link.index()].take().is_some() {
                self.link_cursors[link.index()].reset();
            }
        }
    }

    /// Excludes switch `sw` from transit routing (a graceful drain): its
    /// attached endpoints stay reachable and queued flits still forward, but
    /// no recomputed route crosses it. Destinations only reachable through
    /// it are blackholed.
    pub fn drain_switch(&mut self, sw: usize) {
        assert!(sw < self.switches.len(), "switch out of range");
        if self.no_transit[sw] {
            return;
        }
        self.no_transit[sw] = true;
        if P::ENABLED {
            self.probe.on_switch_drain(self.slots, sw, false);
        }
        self.rebuild_routing();
    }

    /// Restores a drained (not failed) switch to transit eligibility.
    pub fn undrain_switch(&mut self, sw: usize) {
        assert!(sw < self.switches.len(), "switch out of range");
        if self.dead_switches[sw] || !self.no_transit[sw] {
            return;
        }
        self.no_transit[sw] = false;
        if P::ENABLED {
            self.probe.on_switch_drain(self.slots, sw, true);
        }
        self.rebuild_routing();
    }

    /// Kills switch `sw` outright: every flit queued or staged on it is
    /// lost, all future ingress is blackholed, and routing is recomputed so
    /// surviving sessions reroute (destination-based lookups re-resolve at
    /// every hop, so flits already in flight elsewhere reroute too).
    /// Endpoints attached to it are orphaned; their traffic blackholes.
    pub fn fail_switch(&mut self, sw: usize) {
        assert!(sw < self.switches.len(), "switch out of range");
        if self.dead_switches[sw] {
            return;
        }
        self.dead_switches[sw] = true;
        self.no_transit[sw] = true;
        let purged_before = self.blackholed_flits;
        for port in 0..self.topology.switches[sw].ports {
            let (mut queued, mut staged) = (0usize, 0usize);
            for vc in 0..self.vcc {
                let lane = port * self.vcc + vc;
                for rf in std::mem::take(&mut self.out_q[sw][lane]) {
                    self.in_flight[rf.dst] -= 1;
                    queued += 1;
                }
                for rf in std::mem::take(&mut self.staged[sw][lane]) {
                    self.in_flight[rf.dst] -= 1;
                    staged += 1;
                }
            }
            if queued > 0 {
                self.blackholed_flits += queued as u64;
                let (wi, mask) = (port / 64, 1u64 << (port % 64));
                debug_assert_ne!(self.out_nonempty[sw][wi] & mask, 0);
                self.out_nonempty[sw][wi] &= !mask;
                self.nonempty_out_ports -= 1;
                self.sw_out_count[sw] -= 1;
            }
            if staged > 0 {
                self.blackholed_flits += staged as u64;
                let (wi, mask) = (port / 64, 1u64 << (port % 64));
                debug_assert_ne!(self.staged_nonempty[sw][wi] & mask, 0);
                self.staged_nonempty[sw][wi] &= !mask;
                self.sw_staged_count[sw] -= 1;
            }
            self.credits[sw][port].purge();
        }
        debug_assert_eq!(self.sw_out_count[sw], 0);
        debug_assert_eq!(self.sw_staged_count[sw], 0);
        self.sw_out_any[sw / 64] &= !(1u64 << (sw % 64));
        self.sw_staged_any[sw / 64] &= !(1u64 << (sw % 64));
        self.last_motion_slot = self.slots;
        if P::ENABLED {
            self.probe
                .on_switch_fail(self.slots, sw, self.blackholed_flits - purged_before);
        }
        self.rebuild_routing();
    }

    fn rebuild_routing(&mut self) {
        self.routing_override = Some(RoutingTable::degraded(
            self.topology,
            &self.no_transit,
            &self.dead_switches,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_one(
        topology: &FabricTopology,
        variant: ProtocolVariant,
        channel: ChannelErrorModel,
        seed: u64,
        messages: usize,
    ) -> FabricReport {
        let routing = RoutingTable::new(topology);
        let config = FabricConfig::new(variant)
            .with_channel(channel)
            .with_seed(seed);
        let workload = FabricWorkload::symmetric(topology.session_count(), messages, 8, 7);
        FabricSim::new(topology, &routing, config).run(&workload)
    }

    #[test]
    fn error_free_leaf_spine_delivers_everything_cleanly() {
        let t = FabricTopology::leaf_spine(2, 2, 1);
        for variant in [ProtocolVariant::CxlPiggyback, ProtocolVariant::Rxl] {
            let report = run_one(&t, variant, ChannelErrorModel::ideal(), 1, 45);
            assert!(report.drained, "{variant:?} did not drain");
            assert!(report.downstream.is_clean(), "{:?}", report.downstream);
            assert!(report.upstream.is_clean(), "{:?}", report.upstream);
            assert_eq!(report.downstream.clean_deliveries, 2 * 45);
            assert_eq!(report.upstream.clean_deliveries, 2 * 45);
            assert_eq!(report.undetected_drop_events, 0);
            assert!(report.switches.flits_forwarded > 0);
            assert_eq!(report.switches.flits_dropped_uncorrectable, 0);
            assert_eq!(report.per_session.len(), 2);
        }
    }

    #[test]
    fn error_free_ring_and_fat_tree_deliver_cleanly() {
        for t in [
            FabricTopology::ring(4, 1, 2),
            FabricTopology::fat_tree2(2, 1, 1),
        ] {
            let report = run_one(&t, ProtocolVariant::Rxl, ChannelErrorModel::ideal(), 2, 30);
            assert!(report.drained, "{} did not drain", t.name);
            assert!(report.total_failures().is_clean());
        }
    }

    #[test]
    fn rxl_fabric_survives_noise_without_protocol_failures() {
        let t = FabricTopology::ring(4, 1, 1);
        let report = run_one(
            &t,
            ProtocolVariant::Rxl,
            ChannelErrorModel::random(2e-4),
            42,
            120,
        );
        assert!(report.drained, "RXL must drain despite drops");
        assert!(
            report.total_failures().is_clean(),
            "{:?}",
            report.total_failures()
        );
        assert_eq!(report.undetected_drop_events, 0);
        assert!(report.switches.flits_dropped_uncorrectable > 0);
        assert!(report.links.flits_retransmitted > 0);
    }

    #[test]
    fn cxl_piggyback_fabric_exhibits_undetected_drop_events() {
        // Aggregate over seeds: any single short trial may get lucky.
        let t = FabricTopology::ring(4, 1, 1);
        let mut events = 0;
        let mut failures = 0;
        for seed in 0..6 {
            let report = run_one(
                &t,
                ProtocolVariant::CxlPiggyback,
                ChannelErrorModel::random(2e-4),
                seed,
                400,
            );
            events += report.undetected_drop_events;
            let f = report.total_failures();
            failures += f.ordering_failures + f.duplicate_deliveries;
        }
        assert!(events > 0, "expected undetected-drop events");
        assert!(failures > 0, "events must surface as application failures");
    }

    #[test]
    fn tiny_queues_backpressure_without_losing_flits() {
        // Eight sessions funnel through one spine with single-flit queues:
        // heavy credit stalling, but nothing is dropped and (with an ideal
        // channel) everything still arrives cleanly.
        let t = FabricTopology::leaf_spine(2, 1, 4);
        let routing = RoutingTable::new(&t);
        let config = FabricConfig {
            queue_capacity: 1,
            ..FabricConfig::new(ProtocolVariant::Rxl)
        }
        .with_channel(ChannelErrorModel::ideal());
        let workload = FabricWorkload::symmetric(t.session_count(), 40, 8, 3);
        let report = FabricSim::new(&t, &routing, config).run(&workload);
        assert!(report.drained);
        assert!(report.credit_stalls > 0, "single-flit queues must stall");
        assert_eq!(report.switches.flits_dropped_queue_full, 0);
        assert!(
            report.total_failures().is_clean(),
            "{:?}",
            report.total_failures()
        );
    }

    #[test]
    fn trials_are_deterministic_per_seed() {
        let t = FabricTopology::leaf_spine(2, 2, 1);
        let a = run_one(
            &t,
            ProtocolVariant::Rxl,
            ChannelErrorModel::random(2e-4),
            9,
            60,
        );
        let b = run_one(
            &t,
            ProtocolVariant::Rxl,
            ChannelErrorModel::random(2e-4),
            9,
            60,
        );
        assert_eq!(a.links, b.links);
        assert_eq!(a.switches, b.switches);
        assert_eq!(a.slots, b.slots);
        assert_eq!(a.total_failures(), b.total_failures());
    }

    /// The ring(span ≥ 2) saturation wedge (cyclic trunk-credit dependency
    /// with a single virtual channel) must surface as a *detectable*
    /// outcome — `deadlock = true` — rather than a silent stall-guard abort
    /// indistinguishable from the CXL replay livelock. This is the
    /// `vc_count = 1` regression anchor: the deadlock the escape VCs exist
    /// to break must stay reproducible at one VC.
    #[test]
    fn saturated_ring_span2_reports_credit_deadlock() {
        let t = FabricTopology::ring(6, 2, 2);
        let routing = RoutingTable::new(&t);
        let config = FabricConfig {
            queue_capacity: 4,
            ..FabricConfig::new(ProtocolVariant::Rxl)
        }
        .with_channel(ChannelErrorModel::ideal())
        .with_vc_count(1);
        let workload = FabricWorkload::symmetric(t.session_count(), 2_000, 8, 2);
        let report = FabricSim::new(&t, &routing, config).run(&workload);
        assert!(!report.drained, "saturated span-2 ring must wedge");
        assert!(report.deadlock, "the wedge must be classified as deadlock");
        assert!(report.credit_stalls > 0);
    }

    /// The tentpole fix: the *same* saturated span-2 ring that deadlocks at
    /// one VC drains completely once the dateline escape VCs are installed
    /// (`vc_count = 2`), with every message delivered cleanly.
    #[test]
    fn escape_vcs_drain_the_saturated_span2_ring() {
        let t = FabricTopology::ring(6, 2, 2);
        let routing = RoutingTable::new(&t);
        let config = FabricConfig {
            queue_capacity: 4,
            ..FabricConfig::new(ProtocolVariant::Rxl)
        }
        .with_channel(ChannelErrorModel::ideal())
        .with_vc_count(2);
        let workload = FabricWorkload::symmetric(t.session_count(), 2_000, 8, 2);
        let report = FabricSim::new(&t, &routing, config).run(&workload);
        assert!(report.drained, "escape VCs must break the credit cycle");
        assert!(!report.deadlock);
        assert!(
            report.total_failures().is_clean(),
            "{:?}",
            report.total_failures()
        );
    }

    /// Same pairing on the torus: wrap-around links in both dimensions close
    /// credit cycles at `vc_count = 1` under saturation; the per-dimension
    /// dateline classes break every one of them at `vc_count = 2`. The
    /// 4-wide torus matters: antipodal sessions travel two x-hops, so the
    /// trunk-credit dependency chain wraps a whole row ring (a 3×3 torus
    /// routes one hop per dimension and cannot close the cycle).
    #[test]
    fn saturated_torus_deadlocks_at_one_vc_and_drains_with_escape_vcs() {
        let t = FabricTopology::torus(4, 3, 2);
        let routing = RoutingTable::new(&t);
        let workload = FabricWorkload::symmetric(t.session_count(), 1_500, 8, 2);
        let run = |vcs: usize| {
            let config = FabricConfig {
                queue_capacity: 4,
                ..FabricConfig::new(ProtocolVariant::Rxl)
            }
            .with_channel(ChannelErrorModel::ideal())
            .with_vc_count(vcs);
            FabricSim::new(&t, &routing, config).run(&workload)
        };
        let wedged = run(1);
        assert!(!wedged.drained, "saturated torus must wedge at one VC");
        assert!(wedged.deadlock, "the wedge is a credit deadlock");
        let fixed = run(2);
        assert!(fixed.drained, "escape VCs must drain the torus");
        assert!(!fixed.deadlock);
        assert!(fixed.total_failures().is_clean());
    }

    /// Minimal-adaptive routing (escape VCs + adaptive VC 2) delivers the
    /// same saturated torus workload cleanly: adaptive spreading must never
    /// cost correctness or deadlock freedom.
    #[test]
    fn adaptive_torus_drains_cleanly_under_saturation() {
        let t = FabricTopology::torus(3, 3, 2);
        let routing = RoutingTable::new(&t);
        let config = FabricConfig {
            queue_capacity: 4,
            ..FabricConfig::new(ProtocolVariant::Rxl)
        }
        .with_channel(ChannelErrorModel::ideal())
        .with_vc_count(3)
        .with_adaptive(true);
        let workload = FabricWorkload::symmetric(t.session_count(), 1_500, 8, 2);
        let report = FabricSim::new(&t, &routing, config).run(&workload);
        assert!(report.drained, "adaptive torus must drain");
        assert!(!report.deadlock);
        assert!(report.total_failures().is_clean());
    }

    /// Dragonfly: saturated global links drain with escape VCs, and the
    /// custom ≤1-global routing keeps every delivery clean.
    #[test]
    fn dragonfly_drains_cleanly_with_escape_vcs() {
        let t = FabricTopology::dragonfly(3, 2, 1);
        let routing = RoutingTable::new(&t);
        let config = FabricConfig {
            queue_capacity: 4,
            ..FabricConfig::new(ProtocolVariant::Rxl)
        }
        .with_channel(ChannelErrorModel::ideal())
        .with_vc_count(2);
        let workload = FabricWorkload::symmetric(t.session_count(), 600, 8, 5);
        let report = FabricSim::new(&t, &routing, config).run(&workload);
        assert!(report.drained, "dragonfly must drain with escape VCs");
        assert!(!report.deadlock);
        assert!(report.total_failures().is_clean());
    }

    /// Adaptive routing needs an adaptive VC on top of the two escape
    /// classes; the constructor enforces it.
    #[test]
    #[should_panic(expected = "adaptive")]
    fn adaptive_routing_requires_three_vcs() {
        let t = FabricTopology::ring(4, 1, 1);
        let routing = RoutingTable::new(&t);
        let config = FabricConfig::new(ProtocolVariant::Rxl)
            .with_vc_count(2)
            .with_adaptive(true);
        let _ = FabricSim::new(&t, &routing, config);
    }

    /// The baseline-CXL stale-NACK wedge keeps replay traffic moving, so it
    /// must NOT be classified as a credit deadlock.
    #[test]
    fn cxl_livelock_wedge_is_not_classified_as_deadlock() {
        let t = FabricTopology::ring(4, 1, 1);
        let report = run_one(
            &t,
            ProtocolVariant::CxlPiggyback,
            ChannelErrorModel::random(1e-3),
            0,
            600,
        );
        assert!(!report.drained, "this operating point wedges (livelock)");
        assert!(!report.deadlock, "livelock is not a credit deadlock");
    }

    #[test]
    fn failing_a_spine_mid_run_reroutes_over_the_survivor() {
        let t = FabricTopology::leaf_spine(2, 2, 1);
        let routing = RoutingTable::new(&t);
        let config =
            FabricConfig::new(ProtocolVariant::Rxl).with_channel(ChannelErrorModel::ideal());
        let workload = FabricWorkload::symmetric(t.session_count(), 2_000, 8, 3);
        let mut sim = FabricSim::new(&t, &routing, config);
        sim.begin(&workload);
        assert_eq!(sim.step(60), StepOutcome::Budget, "traffic still flowing");
        let mid = sim.counters();
        sim.fail_switch(2); // first spine
        assert_eq!(sim.step(u64::MAX), StepOutcome::Drained);
        let report = sim.finish();
        // The blackholed flits look like silent drops to RXL's go-back-N
        // machinery, so everything is retried over the surviving spine and
        // the audit stays clean.
        assert!(report.drained);
        assert!(
            report.total_failures().is_clean(),
            "{:?}",
            report.total_failures()
        );
        assert!(report.blackholed_flits > 0, "spine queues held flits");
        assert!(
            report.total_failures().clean_deliveries > mid.failures.clean_deliveries,
            "traffic must keep delivering after the failure"
        );
    }

    #[test]
    fn per_link_channel_override_corrupts_only_that_link() {
        let t = FabricTopology::leaf_spine(2, 1, 1);
        let routing = RoutingTable::new(&t);
        let config =
            FabricConfig::new(ProtocolVariant::Rxl).with_channel(ChannelErrorModel::ideal());
        let workload = FabricWorkload::symmetric(t.session_count(), 120, 8, 5);
        let mut sim = FabricSim::new(&t, &routing, config);
        let uplink = t.trunk_between(0, 2).expect("leaf 0 ⇄ spine trunk");
        sim.set_link_channel(uplink, Box::new(ChannelErrorModel::random(1e-3)));
        sim.begin(&workload);
        let _ = sim.step(u64::MAX);
        let report = sim.finish();
        assert!(
            report.switches.flits_dropped_uncorrectable > 0,
            "the noisy uplink must produce silent drops"
        );
        assert!(report.drained);
        assert!(report.total_failures().is_clean());
        // And resetting the link restores the (ideal) static path.
        let mut sim = FabricSim::new(&t, &routing, config);
        sim.set_link_channel(uplink, Box::new(ChannelErrorModel::random(1e-3)));
        sim.reset_link_channel(uplink);
        sim.begin(&workload);
        let _ = sim.step(u64::MAX);
        let report = sim.finish();
        assert_eq!(report.switches.flits_dropped_uncorrectable, 0);
    }

    #[test]
    fn paced_injection_delivers_everything_and_stretches_the_run() {
        let t = FabricTopology::leaf_spine(2, 1, 1);
        let routing = RoutingTable::new(&t);
        let workload = FabricWorkload::symmetric(t.session_count(), 60, 8, 3);
        let base = FabricConfig::new(ProtocolVariant::Rxl).with_channel(ChannelErrorModel::ideal());

        let greedy = FabricSim::new(&t, &routing, base).run(&workload);
        assert!(greedy.drained);

        // 1% of line rate ⇒ one message every ~6.7 slots per stream; the run
        // must take far longer than the greedy one yet stay clean.
        let paced_cfg = base.with_offered_load(0.01);
        let paced = FabricSim::new(&t, &routing, paced_cfg).run(&workload);
        assert!(paced.drained, "paced run must drain");
        assert!(paced.total_failures().is_clean());
        assert_eq!(
            paced.total_failures().clean_deliveries,
            greedy.total_failures().clean_deliveries
        );
        assert!(
            paced.slots > 3 * greedy.slots,
            "pacing must stretch the run: {} vs {}",
            paced.slots,
            greedy.slots
        );
    }

    #[test]
    fn paced_idle_gaps_do_not_trip_the_stall_guard() {
        // One message per 500 slots with a 300-slot stall guard: without the
        // release-counts-as-progress rule this would abort as stalled.
        let t = FabricTopology::leaf_spine(2, 1, 1);
        let routing = RoutingTable::new(&t);
        let workload = FabricWorkload::symmetric(t.session_count(), 10, 8, 3);
        let pacing = InjectionPacing {
            downstream: workload
                .downstream
                .iter()
                .map(|m| (0..m.len() as u64).map(|k| k * 500).collect())
                .collect(),
            upstream: workload
                .upstream
                .iter()
                .map(|m| (0..m.len() as u64).map(|k| k * 500).collect())
                .collect(),
        };
        let config = FabricConfig {
            stall_slots: 300,
            ..FabricConfig::new(ProtocolVariant::Rxl)
        }
        .with_channel(ChannelErrorModel::ideal());
        let mut sim = FabricSim::new(&t, &routing, config);
        sim.begin_paced(&workload, &pacing);
        assert_eq!(sim.step(u64::MAX), StepOutcome::Drained);
        let report = sim.finish();
        assert!(report.drained);
        assert!(report.total_failures().is_clean());
        assert!(report.slots >= 9 * 500);
    }

    #[test]
    fn sim_time_is_the_slot_count_times_the_flit_time() {
        let t = FabricTopology::leaf_spine(2, 1, 1);
        let routing = RoutingTable::new(&t);
        let config =
            FabricConfig::new(ProtocolVariant::Rxl).with_channel(ChannelErrorModel::ideal());
        let flit_time_ns = config.link_config().flit_time_ns;
        let workload = FabricWorkload::symmetric(t.session_count(), 45, 8, 7);

        let drained = FabricSim::new(&t, &routing, config).run(&workload);
        assert!(drained.drained);
        assert_eq!(drained.sim_time_ns, drained.slots as f64 * flit_time_ns);

        // Cut mid-flight by the open-system horizon: time still tracks the
        // slot counter, not the drain.
        let mut sim = FabricSim::new(&t, &routing, config.with_offered_load(0.05));
        sim.begin(&workload);
        assert_eq!(sim.run_to_horizon(37), StepOutcome::Horizon);
        let cut = sim.finish();
        assert!(!cut.drained);
        assert_eq!(cut.slots, 37);
        assert_eq!(cut.sim_time_ns, 37.0 * flit_time_ns);
    }

    #[test]
    fn slot_limit_is_respected() {
        let t = FabricTopology::ring(3, 1, 1);
        let routing = RoutingTable::new(&t);
        let config = FabricConfig {
            max_slots: 40,
            ..FabricConfig::new(ProtocolVariant::Rxl)
        }
        .with_channel(ChannelErrorModel::ideal());
        let workload = FabricWorkload::symmetric(t.session_count(), 2_000, 8, 1);
        let report = FabricSim::new(&t, &routing, config).run(&workload);
        assert!(!report.drained);
        assert_eq!(report.slots, 40);
    }

    #[test]
    #[should_panic(expected = "workload must cover every session in both directions")]
    fn a_workload_short_of_an_upstream_stream_is_rejected_at_begin() {
        let t = FabricTopology::leaf_spine(2, 1, 1);
        let routing = RoutingTable::new(&t);
        let mut workload = FabricWorkload::symmetric(t.session_count(), 30, 8, 1);
        workload.upstream.pop();
        FabricSim::new(&t, &routing, FabricConfig::new(ProtocolVariant::Rxl)).begin(&workload);
    }
}
