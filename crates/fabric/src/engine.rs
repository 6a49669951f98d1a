//! The fabric-scale discrete-event engine.
//!
//! One [`FabricSim`] instantiates every endpoint of a [`FabricTopology`] as a
//! real [`rxl_link::LinkEndpoint`] (go-back-N retry, ACK coalescing, the
//! full FEC/CRC codec stack) and every switch as a real
//! [`rxl_switch::Switch`] running its silent-drop forwarding pipeline. Time
//! advances in flit slots (2 ns at the ×16 CXL 3.0 rate): per slot every
//! endpoint gets one transmit opportunity and every switch port forwards at
//! most one flit, so trunk links shared by many sessions are genuinely
//! serialised and congestion propagates upstream through credit backpressure.
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

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rxl_flit::{Message, WireFlit, MESSAGES_PER_FLIT, WIRE_FLIT_LEN};
use rxl_link::{
    Channel, ChannelErrorModel, EventCursor, FlitRef, LinkCodec, LinkConfig, LinkStats,
    ProtocolVariant,
};
use rxl_switch::{
    InternalErrorModel, LinkCrcMode, ProcessVerdict, SwitchConfig, SwitchStats, MAX_VCS,
};
use rxl_transport::{DeliveryAuditor, DeliveryVerdict, FailureCounts, SentStream};

use crate::injector::Injector;
use crate::node::{EndpointNode, PortPeer, PortSet, SwitchNode, NO_PIN};
use crate::probe::{
    message_key, ChannelErrorEvent, DeliverEvent, EnginePhase, InjectEvent, LinkHop,
    LinkTraversalEvent, NullProbe, Probe,
};
use crate::routing::{RoutingTable, NO_ROUTE};
use crate::topology::{FabricTopology, LinkId};

/// Configuration of one fabric simulation trial.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FabricConfig {
    /// Protocol variant every endpoint speaks.
    pub variant: ProtocolVariant,
    /// Per-link channel error model (applied on every link traversal).
    pub channel: ChannelErrorModel,
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
    /// reorders a session's flit stream (see `FabricSim::plan_hop`). The
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

    fn switch_config(&self, ports: usize) -> SwitchConfig {
        SwitchConfig {
            ports,
            queue_capacity: self.queue_capacity,
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

/// The payload of an in-fabric flit: either a handle to the *logical* flit
/// plus its bound sequence number (no wire bytes materialised yet — the state
/// every flit starts in and, on a quiet link, stays in for its whole
/// journey), or the explicit 256-byte wire image (forced the moment a channel
/// corrupts the flit or a switch pipeline needs real bytes).
///
/// Because a clean wire image is a pure function of `(flit, seq)`, deferring
/// the encode is invisible to the simulation: a flit that reaches its
/// destination still `Clean` is handed to
/// [`rxl_link::LinkEndpoint::receive_trusted`], whose outcome is provably
/// identical to encode-then-`receive` (see the equivalence argument on
/// [`rxl_link::LinkRx::receive_trusted`]).
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
    fn materialize(&mut self, codec: &LinkCodec) -> &mut WireFlit {
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
pub(crate) struct RoutedFlit {
    payload: FlitPayload,
    /// Destination endpoint index.
    pub(crate) dst: usize,
    /// Low 32 bits of the slot in which the flit entered its current lane
    /// (written by [`SwitchNode::push`], compared by [`SwitchNode::head`]):
    /// a head stamped with the running slot arrived during it and must wait
    /// for the next one. The full slot does not fit the 32-byte budget
    /// below; the truncation can only misread a head that has waited an
    /// exact multiple of 2³² slots (8.6 simulated seconds, half a million
    /// default stall-guard windows) as fresh, which holds it back one more
    /// slot and neither loses nor reorders it.
    pub(crate) staged_at: u32,
    /// `true` for payload-bearing protocol flits (as opposed to standalone
    /// ACK / NACK control flits) — the population the failure analysis
    /// counts.
    protocol: bool,
    /// `true` if this is a retransmission from a replay buffer.
    retransmission: bool,
    /// Per-dimension dateline-crossing bits (bit `d` set once the flit has
    /// crossed dimension `d`'s dateline trunk). Updated on arrival at the
    /// far switch of a dateline trunk; the escape-VC class of every later
    /// hop in that dimension is 1.
    crossed: u8,
}

// A hop moves a `RoutedFlit` by value three times (lane pop, transmit, lane
// push); it must stay a handle plus metadata, never a payload.
const _: () = assert!(std::mem::size_of::<RoutedFlit>() <= 32);

/// Outcome of planning a flit's next hop at a switch (see
/// [`FabricSim::plan_hop`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HopPlan {
    /// Dead switch or no surviving route: the flit is swallowed by fault
    /// injection.
    Blackhole,
    /// Buffer the flit in VC `vc` of output port `egress`.
    Lane { egress: usize, vc: usize },
    /// Every usable lane is out of credits; the flit holds its place.
    Blocked,
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

/// What a fault-injection scenario has done to the fabric. A scenario-free
/// trial keeps every field at its initial value and stays on the static
/// `config.channel` and the shared pristine routing table.
struct Faults {
    /// Per-link channel overrides, indexed by [`LinkId::index`] (endpoint
    /// attachment links first, then trunks). `None` ⇒ every link runs the
    /// static `config.channel`.
    link_channels: Option<Vec<Option<Box<dyn Channel>>>>,
    /// Routing recomputed after a switch drain/failure; `None` ⇒ the shared
    /// pristine table.
    routing_override: Option<RoutingTable>,
    /// Switches that failed hard: lanes purged, all ingress blackholed.
    dead_switches: Vec<bool>,
    /// Switches excluded from transit routing (drained or dead).
    no_transit: Vec<bool>,
}

/// One fabric trial: a `SwitchNode` per switch, an `EndpointNode` per
/// endpoint, and the slot loop ([`Self::step`]) that drives them.
///
/// Each slot, phase 0 makes paced arrivals due, phase 1 gives every endpoint
/// one transmit opportunity into a lane of its switch, and phase 2 gives
/// every switch output port holding a flit one: the port's arbiter picks a
/// virtual channel and that lane's head is delivered to the attached
/// endpoint or sent over the trunk into a lane of the next switch, against a
/// free credit of that lane. A lane is one FIFO queue; a flit is stamped with
/// the slot it entered its lane in, and a head stamped with the running slot
/// reads as absent (`SwitchNode::head`), so a flit crosses at most one
/// switch per slot even when ascending port order reaches its new lane later
/// in the same phase.
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
/// draws and a quiet link costs no RNG work per slot. The `PortSet`s that
/// steer phase 2 (each switch's ports with a non-empty lane, the engine's
/// switches with such a port) compose with this unchanged: an empty port, or
/// one holding only flits that arrived this slot, does nothing and draws
/// nothing when visited, so skipping it changes nothing. What the
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
/// (arrival schedules are precomputed). Every endpoint has an `Injector`
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
    endpoints: Vec<EndpointNode>,
    switches: Vec<SwitchNode>,
    /// Switches with an active port (see [`SwitchNode::active`]); empty
    /// exactly when no lane anywhere holds a flit.
    active_switches: PortSet,
    /// The report under construction: event tallies, `first_fail_order_slot`
    /// and the outcome flags accumulate here as the trial runs;
    /// [`Self::finish_with_probe`] adds the audits, statistics and clock.
    report: FabricReport,
    /// `true` once any endpoint accepted a flit in the current slot (stall
    /// guard bookkeeping).
    accepted_this_slot: bool,
    rng: StdRng,
    faults: Faults,
    /// Per-link skip-ahead cursors (indexed like [`Faults::link_channels`]):
    /// each counts the link's traversals and caches the traversal index of
    /// the channel's next error event, so traversals short of the event
    /// consume zero RNG draws. Reset whenever that link's channel is
    /// replaced.
    link_cursors: Vec<EventCursor>,
    /// The engine-held flit encoder used to materialise deferred
    /// ([`FlitPayload::Clean`]) wire images on demand: the
    /// [`LinkCodec`] of [`FabricConfig::variant`], the same one every
    /// endpoint's transmitter holds, so the image is bit-identical to what
    /// the emitting transmitter would have produced.
    codec: LinkCodec,
    /// Slot at which a flit last moved anywhere (entered a lane, consumed by
    /// a switch pipeline, delivered, or blackholed). Distinguishes a credit
    /// deadlock (flits wedged, zero motion) from the baseline-CXL replay
    /// livelock (constant motion, zero acceptance) when the stall guard
    /// trips.
    last_motion_slot: u64,
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
        let mut endpoints: Vec<EndpointNode> = topology
            .endpoints
            .iter()
            .map(|ep| EndpointNode::new(link_cfg, ep))
            .collect();
        for (s, session) in topology.sessions.iter().enumerate() {
            for (e, peer) in [
                (session.host, session.device),
                (session.device, session.host),
            ] {
                let node = &mut endpoints[e];
                assert!(
                    node.session == usize::MAX,
                    "endpoint {e} is claimed by two sessions, {} and {s}",
                    node.session
                );
                (node.session, node.peer) = (s, peer);
            }
        }

        let pins = if config.adaptive {
            vec![NO_PIN; topology.endpoints.len()]
        } else {
            Vec::new()
        };
        let mut switches: Vec<SwitchNode> = topology
            .switches
            .iter()
            .map(|sw| SwitchNode::new(config.switch_config(sw.ports), vcc, pins.clone()))
            .collect();
        for (id, ep) in topology.endpoints.iter().enumerate() {
            switches[ep.switch].peers[ep.port] = PortPeer::Endpoint(id);
        }
        for (trunk, t) in topology.trunks.iter().enumerate() {
            let class = topology.trunk_class(trunk);
            let (dim, dateline) = (class.dim, u8::from(class.dateline) << class.dim);
            for (near, far) in [(t.a, t.b), (t.b, t.a)] {
                switches[near.0].peers[near.1] = PortPeer::Trunk {
                    switch: far.0,
                    trunk,
                    dim,
                    dateline,
                };
            }
        }

        FabricSim {
            endpoints,
            active_switches: PortSet::new(switches.len()),
            switches,
            report: FabricReport::default(),
            accepted_this_slot: false,
            rng: StdRng::seed_from_u64(config.seed),
            faults: Faults {
                link_channels: None,
                routing_override: None,
                dead_switches: vec![false; topology.switches.len()],
                no_transit: vec![false; topology.switches.len()],
            },
            link_cursors: vec![EventCursor::new(); topology.link_count()],
            codec: LinkCodec::for_variant(config.variant),
            last_motion_slot: 0,
            pending_paced: 0,
            probe,
            workload_loaded: false,
            slots: 0,
            last_accept_slot: 0,
            flit_time_ns: link_cfg.flit_time_ns,
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

    /// The active routing table: the scenario-recomputed one once a switch
    /// has been drained or failed, the pristine shared table otherwise.
    #[inline]
    fn routes(&self) -> &RoutingTable {
        self.faults
            .routing_override
            .as_ref()
            .unwrap_or(self.routing)
    }

    /// The escape VC a flit with dateline-crossing state `crossed` rides on
    /// egress port `egress` of switch `sw`: VC 1 once the flit has crossed
    /// the dateline of the egress trunk's ring dimension, VC 0 before (and
    /// always for endpoint-facing egresses, which are unconditional sinks).
    /// With fewer than two VCs everything is clamped to VC 0 — the pre-VC
    /// single-queue behaviour, deadlock included.
    #[inline]
    fn escape_vc(&self, sw: usize, egress: usize, crossed: u8) -> usize {
        match self.switches[sw].peers[egress] {
            PortPeer::Trunk { dim, .. } if self.config.vc_count >= 2 => {
                ((crossed >> dim) & 1) as usize
            }
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
        let channel: &mut dyn Channel = match &mut self.faults.link_channels {
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
        self.report.blackholed_flits += 1;
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

    /// Takes the head of lane `(port, vc)` of switch `sw` out of the fabric
    /// (see [`SwitchNode::pop`]), keeping the active-switch set and the
    /// destination's in-flight count in step.
    #[inline]
    fn pop(&mut self, sw: usize, port: usize, vc: usize) -> RoutedFlit {
        let rf = self.switches[sw].pop(port, vc);
        if self.switches[sw].active.is_empty() {
            self.active_switches.remove(sw);
        }
        self.endpoints[rf.dst].in_flight -= 1;
        rf
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
        let escape = self.routes().egress(sw, dst);
        if self.faults.dead_switches[sw] || escape == NO_ROUTE {
            return HopPlan::Blackhole;
        }
        let node = &self.switches[sw];
        // Minimal-adaptive first: the adaptive VC (2..vcc) of the
        // least-occupied candidate port with a free credit, ties broken by
        // (port, vc) — a pure function of queue state, no RNG draws.
        if self.config.adaptive {
            let pinned = if others > 0 { node.pins[dst] } else { NO_PIN };
            let mut best: Option<(usize, usize, usize)> = None;
            for &port in self.routes().candidates(sw, dst) {
                if matches!(node.peers[port], PortPeer::Endpoint(_)) {
                    // Final-hop delivery always rides VC 0 of the endpoint
                    // lane (an unconditional sink — nothing to adapt).
                    continue;
                }
                if pinned != NO_PIN && port as u32 != pinned {
                    continue;
                }
                let occupancy = node.credits(port).total_occupancy();
                for vc in 2..self.config.vc_count {
                    if node.has_credit(port, vc) {
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
        if node.has_credit(escape, vc) {
            HopPlan::Lane { egress: escape, vc }
        } else {
            HopPlan::Blocked
        }
    }

    /// Endpoint `e`'s transmit opportunity: plans `rf`'s hop into the
    /// endpoint's switch `sw` and sends it there. Returns the flit untouched
    /// if every usable lane is out of credits; `None` once it has been
    /// queued, silently dropped, or blackholed by fault injection.
    fn inject(&mut self, sw: usize, e: usize, rf: RoutedFlit, now: f64) -> Option<RoutedFlit> {
        // `rf` is freshly emitted, so `in_flight` counts only the other
        // flits of its stream.
        let others = self.endpoints[rf.dst].in_flight;
        match self.plan_hop(sw, rf.dst, rf.crossed, others) {
            HopPlan::Blackhole => self.note_blackhole(sw),
            HopPlan::Blocked => {
                self.report.credit_stalls += 1;
                if P::ENABLED {
                    // Charge the stall to the planned escape egress — the
                    // port whose lanes were out of credit — so spatial
                    // probes can attribute ingress stalls to the congested
                    // link. Plan state is pure queue/table lookup: no RNG.
                    let egress = self.routes().egress(sw, rf.dst);
                    let evc = self.escape_vc(sw, egress, rf.crossed);
                    self.probe
                        .on_credit_stall(self.slots, sw, Some(egress), Some(evc));
                }
                return Some(rf);
            }
            HopPlan::Lane { egress, vc } => self.enter_lane(sw, e, egress, vc, rf, now),
        }
        None
    }

    /// Sends `rf` over link `link` into lane `(egress, vc)` of switch `sw`
    /// — the lane [`Self::plan_hop`] chose, so it has a credit — applying
    /// the link's channel error and the switch's forwarding pipeline, which
    /// may silently drop the flit instead. `rf.crossed` must already reflect
    /// the dateline crossing of the link just traversed.
    fn enter_lane(
        &mut self,
        sw: usize,
        link: usize,
        egress: usize,
        vc: usize,
        mut rf: RoutedFlit,
        now: f64,
    ) {
        self.last_motion_slot = self.slots;
        if P::ENABLED {
            self.probe.on_link_traversal(LinkTraversalEvent {
                slot: self.slots,
                link,
                hop: if link < self.endpoints.len() {
                    LinkHop::Inject
                } else {
                    LinkHop::Trunk
                },
                protocol: rf.protocol,
                retransmission: rf.retransmission,
            });
        }
        let flips = self.corrupt_on_link(link, &mut rf.payload, now);
        // Known-clean bypass: zero channel flips mean the full pipeline is
        // the identity and draw-free on this flit (the previous hop emitted a
        // valid codeword with a matching CRC, and fabric switches have no
        // internal error model), so only the statistics need touching. This
        // is where the skip-ahead path earns its quiet-link speedup: no FEC
        // decode, no CRC verify, no re-encode — and, for a still-deferred
        // [`FlitPayload::Clean`] flit, no wire bytes at all.
        let verdict = if flips == 0 {
            self.switches[sw].switch.forward_clean();
            ProcessVerdict::Forwarded {
                corrected_symbols: 0,
                internally_corrupted: false,
            }
        } else {
            let wire = rf.payload.materialize(&self.codec);
            self.switches[sw]
                .switch
                .process_in_place(wire, &mut self.rng)
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
                self.endpoints[rf.dst].in_flight += 1;
                let node = &mut self.switches[sw];
                if self.config.adaptive {
                    // Record the path taken at *every* hop, not just the
                    // choosing one: a lead flit reaches downstream switches
                    // after its followers were injected, and those switches
                    // must replay its exact ports or the followers could
                    // overtake it on a divergent equal-length path.
                    node.pins[rf.dst] = egress as u32;
                }
                node.push(egress, vc, rf, self.slots);
                self.active_switches.insert(sw);
                if P::ENABLED {
                    let occupancy = self.switches[sw].credits(egress).occupancy(vc);
                    self.probe
                        .on_vc_occupancy(self.slots, sw, egress, vc, occupancy);
                }
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
                // Silent drop; the endpoints' retry machinery (or lack of
                // it, for baseline CXL's blind spot) is on its own.
                if rf.protocol {
                    self.report.protocol_flit_drops += 1;
                    if !rf.retransmission {
                        self.report.payload_drops += 1;
                        let dst = &self.endpoints[rf.dst];
                        if !dst.gap_open && !dst.link.rx().awaiting_replay() {
                            self.report.eligible_payload_drops += 1;
                        }
                    }
                }
            }
        }
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
        let mut any_blocked = false;
        let mut blocked_vc: Option<usize> = None;
        for k in 0..self.config.vc_count {
            let node = &self.switches[sw];
            let (vc, Some(head)) = node.head(port, k, self.slots) else {
                continue;
            };
            let (head_dst, head_crossed) = (head.dst, head.crossed);
            match node.peers[port] {
                PortPeer::Endpoint(dst) => {
                    debug_assert_eq!(head_dst, dst);
                    let rf = self.pop(sw, port, vc);
                    self.deliver_to_endpoint(dst, rf, now);
                    return;
                }
                PortPeer::Trunk {
                    switch: next,
                    trunk,
                    dateline,
                    ..
                } => {
                    // Plan the hop (lane + credit) against the next switch
                    // before popping: crossing a dateline trunk updates the
                    // flit's `crossed` bits on arrival, so the plan uses the
                    // post-crossing state while the trunk itself was
                    // traversed under the pre-crossing class. The head is
                    // itself in flight, hence the `- 1`; the pop touches
                    // `sw` and the plan read `next`, so the plan still holds
                    // after it.
                    let crossed = head_crossed | dateline;
                    let others = self.endpoints[head_dst].in_flight - 1;
                    match self.plan_hop(next, head_dst, crossed, others) {
                        // A dead next hop (or a destination no surviving
                        // route reaches) swallows the flit instead of
                        // wedging the queue.
                        HopPlan::Blackhole => {
                            let _ = self.pop(sw, port, vc);
                            self.note_blackhole(next);
                        }
                        HopPlan::Blocked => {
                            any_blocked = true;
                            if blocked_vc.is_none() {
                                blocked_vc = Some(vc);
                            }
                            continue;
                        }
                        HopPlan::Lane {
                            egress,
                            vc: next_vc,
                        } => {
                            let mut rf = self.pop(sw, port, vc);
                            rf.crossed = crossed;
                            let link = self.endpoints.len() + trunk;
                            self.enter_lane(next, link, egress, next_vc, rf, now);
                        }
                    }
                    return;
                }
                PortPeer::Unconnected => {
                    unreachable!("routing never targets unconnected ports")
                }
            }
        }
        if any_blocked {
            self.report.credit_stalls += 1;
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
        let node = &mut self.endpoints[dst];
        let result = match &rf.payload {
            FlitPayload::Clean { flit, seq } => node.link.receive_trusted(flit, *seq, now),
            FlitPayload::Wire(wire) => node.link.receive(wire, now),
        };
        self.accepted_this_slot |= result.accepted;

        let mut out_of_order = false;
        for msg in &result.delivered {
            let verdict = node.audit.observe_delivery(msg);
            out_of_order |= verdict == DeliveryVerdict::OutOfOrder;
            if P::ENABLED {
                self.probe.on_deliver(DeliverEvent {
                    slot: self.slots,
                    session: node.session,
                    src: node.peer,
                    dst,
                    downstream: node.is_device,
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
                if node.link.rx().awaiting_replay() {
                    self.report.replay_leak_events += 1;
                } else if !node.gap_open {
                    self.report.undetected_drop_events += 1;
                    self.report.first_fail_order_slot.get_or_insert(self.slots);
                    if P::ENABLED {
                        self.probe.on_fail_order(self.slots, node.session, dst);
                    }
                }
            }
            node.gap_open = node.audit.has_open_gaps();
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

        for (s, session) in self.topology.sessions.iter().enumerate() {
            let (down, up) = (&workload.downstream[s], &workload.upstream[s]);
            let (host, device) = (session.host, session.device);
            // Each side audits the stream the other side sends.
            self.endpoints[device].audit = DeliveryAuditor::for_stream(Arc::clone(down));
            self.endpoints[host].audit = DeliveryAuditor::for_stream(Arc::clone(up));
            match pacing {
                Some(p) => {
                    // `InjectionPacing` is borrowed, so its schedules are
                    // the one per-message copy a paced trial still makes.
                    self.endpoints[host].injector =
                        Injector::paced(Arc::clone(down), p.downstream[s].clone());
                    self.endpoints[device].injector =
                        Injector::paced(Arc::clone(up), p.upstream[s].clone());
                    self.pending_paced += down.len() + up.len();
                }
                None => {
                    if P::ENABLED {
                        inject_events(&mut self.probe, 0, s, host, device, true, down);
                        inject_events(&mut self.probe, 0, s, device, host, false, up);
                    }
                    self.endpoints[host].injector = Injector::greedy(Arc::clone(down));
                    self.endpoints[device].injector = Injector::greedy(Arc::clone(up));
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
        for (e, node) in self.endpoints.iter_mut().enumerate() {
            let batch = node.injector.release(now_slot);
            if P::ENABLED && !batch.is_empty() {
                let (session, dst, down) = (node.session, node.peer, !node.is_device);
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
        if self.report.drained {
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
                let node = &mut self.endpoints[e];
                let (sw, session, dst) = (node.switch, node.session, node.peer);
                if let Some(rf) = node.stalled.take() {
                    // A stalled flit consumes this slot's opportunity.
                    all_endpoints_idle = false;
                    self.endpoints[e].stalled = self.inject(sw, e, rf, now);
                    continue;
                }
                node.injector.feed(&mut node.link);
                let emission = node.link.emit(now);
                let (protocol, retransmission) = match &emission {
                    rxl_link::TxEmission::Protocol { retransmission, .. } => {
                        (true, *retransmission)
                    }
                    _ => (false, false),
                };
                if P::ENABLED {
                    if retransmission {
                        self.probe.on_retransmit(self.slots, e, session);
                    } else if matches!(&emission, rxl_link::TxEmission::Nack { .. }) {
                        self.probe.on_nack(self.slots, e, session);
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
                        dst,
                        staged_at: 0,
                        protocol,
                        retransmission,
                        crossed: 0,
                    };
                    self.endpoints[e].stalled = self.inject(sw, e, rf, now);
                }
            }
            self.phase_mark(&mut phase_clock, EnginePhase::EndpointTx);

            // Phase 2 — every active switch output port forwards at most one
            // flit, in ascending (switch, port) order: the visit order of a
            // dense sweep, restricted to ports that hold flits (see the
            // type-level docs). Walking snapshots is safe: forwarding from a
            // port removes at most that port from the sets, and what it adds
            // holds only a flit that arrived this slot, where a visit does
            // nothing.
            for swi in 0..self.active_switches.words() {
                for sw in self.active_switches.snapshot(swi) {
                    for pwi in 0..self.switches[sw].active.words() {
                        for port in self.switches[sw].active.snapshot(pwi) {
                            self.forward_port(sw, port, now);
                        }
                    }
                }
            }
            self.phase_mark(&mut phase_clock, EnginePhase::SwitchForward);

            if all_endpoints_idle
                && self.active_switches.is_empty()
                && self.endpoints.iter().all(|node| {
                    node.stalled.is_none() && node.injector.exhausted() && node.link.is_quiescent()
                })
            {
                self.report.drained = true;
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
                if self.endpoints.iter().all(|node| node.audit.all_delivered()) {
                    self.report.post_delivery_wedge = true;
                    self.report.drained = true;
                    return StepOutcome::Drained;
                }
                // Classify the wedge: flits stuck in the fabric with no
                // motion anywhere for at least half the guard window is a
                // credit deadlock (once the cyclic credit wait closes,
                // motion ceases entirely); motion without acceptance is the
                // documented replay livelock, which keeps flits moving every
                // few slots right up to the guard.
                self.report.deadlock = (!self.active_switches.is_empty()
                    || self.endpoints.iter().any(|node| node.stalled.is_some()))
                    && self.slots - self.last_motion_slot >= self.config.stall_slots.div_ceil(2);
                return StepOutcome::Stalled;
            }
            self.phase_mark(&mut phase_clock, EnginePhase::StageMerge);
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
    pub fn finish_with_probe(mut self) -> (FabricReport, P) {
        let sim_time_ns = self.now();
        let mut links = LinkStats::default();
        for node in &self.endpoints {
            links.merge(&node.link.stats());
        }
        let mut switches = SwitchStats::default();
        for node in &self.switches {
            switches.merge(node.switch.stats());
        }
        let mut downstream = FailureCounts::default();
        let mut upstream = FailureCounts::default();
        let mut per_session = Vec::with_capacity(self.topology.sessions.len());
        for session in &self.topology.sessions {
            let d = std::mem::take(&mut self.endpoints[session.device].audit).finalize();
            let u = std::mem::take(&mut self.endpoints[session.host].audit).finalize();
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
            slots: self.slots,
            sim_time_ns,
            ..self.report
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
        for node in &self.endpoints {
            failures.merge(node.audit.counts());
        }
        FabricCounters {
            slots: self.slots,
            failures,
            undetected_drop_events: self.report.undetected_drop_events,
            replay_leak_events: self.report.replay_leak_events,
            payload_drops: self.report.payload_drops,
            protocol_flit_drops: self.report.protocol_flit_drops,
            blackholed_flits: self.report.blackholed_flits,
            credit_stalls: self.report.credit_stalls,
        }
    }

    /// Slot of the first undetected-drop (`Fail_order`) event so far.
    pub fn first_fail_order_slot(&self) -> Option<u64> {
        self.report.first_fail_order_slot
    }

    /// Installs a (possibly time-varying) channel on one link, replacing the
    /// static `config.channel` for that link until
    /// [`Self::reset_link_channel`]. The scenario engine in `rxl-chaos` is
    /// the intended caller.
    pub fn set_link_channel(&mut self, link: LinkId, channel: Box<dyn Channel>) {
        let n = self.topology.link_count();
        assert!(link.index() < n, "link out of range");
        let overrides = self
            .faults
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
        if let Some(overrides) = &mut self.faults.link_channels {
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
        if self.faults.no_transit[sw] {
            return;
        }
        self.faults.no_transit[sw] = true;
        if P::ENABLED {
            self.probe.on_switch_drain(self.slots, sw);
        }
        self.rebuild_routing();
    }

    /// Kills switch `sw` outright: every flit queued on it is lost, all
    /// future ingress is blackholed, and routing is recomputed so surviving
    /// sessions reroute (destination-based lookups re-resolve at every hop,
    /// so flits already in flight elsewhere reroute too). Endpoints attached
    /// to it are orphaned; their traffic blackholes.
    pub fn fail_switch(&mut self, sw: usize) {
        assert!(sw < self.switches.len(), "switch out of range");
        if self.faults.dead_switches[sw] {
            return;
        }
        self.faults.dead_switches[sw] = true;
        self.faults.no_transit[sw] = true;
        let mut purged = 0u64;
        self.switches[sw].purge(|rf| {
            self.endpoints[rf.dst].in_flight -= 1;
            purged += 1;
        });
        self.active_switches.remove(sw);
        self.report.blackholed_flits += purged;
        self.last_motion_slot = self.slots;
        if P::ENABLED {
            self.probe.on_switch_fail(self.slots, sw, purged);
        }
        self.rebuild_routing();
    }

    fn rebuild_routing(&mut self) {
        self.faults.routing_override = Some(RoutingTable::degraded(
            self.topology,
            &self.faults.no_transit,
            &self.faults.dead_switches,
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

    #[test]
    #[should_panic(expected = "endpoint 5 is claimed by two sessions, 0 and 1")]
    fn an_endpoint_claimed_by_two_sessions_is_rejected() {
        let mut t = FabricTopology::leaf_spine(2, 1, 2);
        t.sessions[1].device = t.sessions[0].device;
        let routing = RoutingTable::new(&t);
        let _ = FabricSim::new(&t, &routing, FabricConfig::new(ProtocolVariant::Rxl));
    }

    #[test]
    fn an_endpoint_in_no_session_stays_legal_and_silent() {
        let full = FabricTopology::leaf_spine(2, 1, 2);
        let mut t = full.clone();
        let idle = t.sessions.pop().expect("four sessions");
        let routing = RoutingTable::new(&t);
        let config =
            FabricConfig::new(ProtocolVariant::Rxl).with_channel(ChannelErrorModel::ideal());
        let workload = FabricWorkload::symmetric(t.session_count(), 60, 8, 7);
        let mut sim = FabricSim::new(&t, &routing, config);
        sim.begin(&workload);
        assert_eq!(sim.step(u64::MAX), StepOutcome::Drained);
        for e in [idle.host, idle.device] {
            // Idle slots are all an unclaimed endpoint ever "sends".
            let stats = LinkStats {
                idle_flits_sent: 0,
                ..sim.endpoints[e].link.stats()
            };
            assert_eq!(stats, LinkStats::default());
        }
        let report = sim.finish();
        assert_eq!(report.per_session.len(), 3);
        assert!(report.total_failures().is_clean());
        assert_eq!(report.total_failures().clean_deliveries, 3 * 2 * 60);
    }

    /// Slot and link of every endpoint-link traversal.
    #[derive(Default)]
    struct HopRecorder(Vec<(u64, usize, LinkHop)>);

    impl Probe for HopRecorder {
        fn on_link_traversal(&mut self, ev: LinkTraversalEvent) {
            self.0.push((ev.slot, ev.link, ev.hop));
        }
    }

    /// The propagation model, pinned directly: a flit delivered `n` slots
    /// after its injection crossed `n` switches. Leaf 0 → spine 2 → leaf 1
    /// is the route on which ascending `(switch, port)` order reaches the
    /// flit's new lane later in the very slot it arrived.
    #[test]
    fn a_flit_crosses_exactly_one_switch_per_slot() {
        for mut t in [
            FabricTopology::leaf_spine(2, 1, 1),
            FabricTopology::ring(5, 1, 2),
            FabricTopology::torus(3, 3, 1),
            FabricTopology::dragonfly(3, 2, 1),
        ] {
            // One session, one message each way: nothing contends for a port.
            t.sessions.truncate(1);
            let (host, device) = (t.sessions[0].host, t.sessions[0].device);
            let routing = RoutingTable::new(&t);
            let config = FabricConfig::new(ProtocolVariant::Rxl)
                .with_channel(ChannelErrorModel::ideal())
                .with_vc_count(2);
            let mut sim = FabricSim::with_probe(&t, &routing, config, HopRecorder::default());
            sim.begin(&FabricWorkload::symmetric(1, 1, 8, 7));
            assert_eq!(sim.step(u64::MAX), StepOutcome::Drained);
            let switches_between = |src: usize, dst: usize| {
                let (mut sw, mut crossed) = (t.endpoints[src].switch, 1);
                while let PortPeer::Trunk { switch, .. } =
                    sim.switches[sw].peers[routing.egress(sw, dst)]
                {
                    (sw, crossed) = (switch, crossed + 1);
                }
                assert_eq!(sw, t.endpoints[dst].switch);
                crossed
            };
            let first = |link: usize, hop: LinkHop| {
                let seen = sim.probe().0.iter().find(|ev| ev.1 == link && ev.2 == hop);
                seen.expect("the flit traversed this link").0
            };
            let mut longest = 0;
            for (src, dst) in [(host, device), (device, host)] {
                let crossed = switches_between(src, dst);
                assert_eq!(
                    first(dst, LinkHop::Deliver) - first(src, LinkHop::Inject),
                    crossed,
                    "{}: {src} → {dst}",
                    t.name
                );
                longest = longest.max(crossed);
            }
            assert!(
                longest >= 2,
                "{}: the route must leave its first switch",
                t.name
            );
        }
    }

    impl<P: Probe> FabricSim<'_, P> {
        /// The conservation invariants that hold between slots: every
        /// switch's own ([`SwitchNode::check_invariants`]), the active-switch
        /// set naming exactly the switches with an active port, every
        /// endpoint's `in_flight` counting exactly the flits queued for it,
        /// and, on RXL, every transmitter's replay window covering its
        /// peer's expected sequence number: the oldest unacknowledged flit,
        /// `next_seq − in_flight`, is at or before it, and nothing past
        /// `next_seq` is expected.
        fn check_invariants(&self) {
            let mut bound_for = vec![0u32; self.endpoints.len()];
            let mut busy = Vec::new();
            for (sw, node) in self.switches.iter().enumerate() {
                node.check_invariants(self.slots, &mut bound_for);
                if !node.active.is_empty() {
                    busy.push(sw);
                }
            }
            assert_eq!(self.active_switches.members(), busy, "active switches");
            let in_flight: Vec<u32> = self.endpoints.iter().map(|e| e.in_flight).collect();
            assert_eq!(in_flight, bound_for, "in-flight counts");
            if self.config.variant != ProtocolVariant::Rxl {
                return;
            }
            for (ep, node) in self.endpoints.iter().enumerate() {
                if node.session == usize::MAX {
                    continue;
                }
                let tx = node.link.tx();
                let oldest = rxl_link::seq_add(tx.next_seq(), -(tx.in_flight() as i32));
                let expected = self.endpoints[node.peer].link.rx().expected_seq();
                assert!(
                    rxl_link::seq_distance(oldest, expected) as usize <= tx.in_flight(),
                    "slot {}: endpoint {ep}'s replay window [{oldest}, +{}) does not cover \
                     endpoint {}'s expected sequence {expected}",
                    self.slots,
                    tx.in_flight(),
                    node.peer
                );
            }
        }

        /// Every endpoint's receiver's expected sequence number.
        fn expected_seqs(&self) -> Vec<u16> {
            self.endpoints
                .iter()
                .map(|e| e.link.rx().expected_seq())
                .collect()
        }

        /// Steps to the end of the trial one slot at a time, checking the
        /// invariants after every slot — and that no receiver's expected
        /// sequence number moved backwards — and calling `at_slot` between
        /// slots.
        fn run_checked(&mut self, mut at_slot: impl FnMut(&mut Self)) -> StepOutcome {
            let mut expected = self.expected_seqs();
            loop {
                let outcome = self.step(1);
                self.check_invariants();
                let now = self.expected_seqs();
                for (ep, (&before, &after)) in expected.iter().zip(&now).enumerate() {
                    assert!(
                        rxl_link::seq::seq_ge(after, before),
                        "slot {}: endpoint {ep}'s expected sequence moved back {before} → {after}",
                        self.slots
                    );
                }
                expected = now;
                if outcome != StepOutcome::Budget {
                    return outcome;
                }
                at_slot(self);
            }
        }
    }

    #[test]
    fn invariants_hold_after_every_slot() {
        let noisy = ChannelErrorModel::random(2e-4);
        let cases = [
            (FabricTopology::leaf_spine(2, 2, 2), 1, false, None, 16),
            (FabricTopology::ring(6, 2, 2), 2, false, None, 4),
            (FabricTopology::torus(3, 3, 2), 3, true, None, 4),
            (FabricTopology::ring(4, 1, 2), 2, false, Some(0.3), 8),
            (FabricTopology::dragonfly(3, 2, 1), 3, true, Some(0.6), 2),
        ];
        for (t, vcs, adaptive, load, queue_capacity) in cases {
            let routing = RoutingTable::new(&t);
            let mut config = FabricConfig {
                queue_capacity,
                ..FabricConfig::new(ProtocolVariant::Rxl)
            }
            .with_channel(noisy)
            .with_seed(11)
            .with_vc_count(vcs)
            .with_adaptive(adaptive);
            config.offered_load = load;
            let workload = FabricWorkload::symmetric(t.session_count(), 150, 8, 3);
            let mut sim = FabricSim::new(&t, &routing, config);
            sim.begin(&workload);
            assert_eq!(sim.run_checked(|_| ()), StepOutcome::Drained, "{}", t.name);
            let report = sim.finish();
            assert!(report.total_failures().is_clean(), "{}", t.name);
            assert!(report.switches.flits_forwarded > 0);
        }
    }

    #[test]
    fn invariants_hold_across_a_switch_failure_and_a_drain() {
        let t = FabricTopology::leaf_spine(2, 3, 2);
        let routing = RoutingTable::new(&t);
        let config = FabricConfig::new(ProtocolVariant::Rxl)
            .with_channel(ChannelErrorModel::ideal())
            .with_vc_count(2);
        let workload = FabricWorkload::symmetric(t.session_count(), 600, 8, 3);
        let mut sim = FabricSim::new(&t, &routing, config);
        sim.begin(&workload);
        let outcome = sim.run_checked(|sim| match sim.slot() {
            40 => {
                sim.fail_switch(2);
                sim.check_invariants();
            }
            80 => sim.drain_switch(3),
            _ => {}
        });
        assert_eq!(outcome, StepOutcome::Drained);
        let report = sim.finish();
        assert!(report.blackholed_flits > 0, "the failed spine held flits");
        assert!(report.total_failures().is_clean());
    }
}
