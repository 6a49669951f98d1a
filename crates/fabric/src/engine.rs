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

use std::borrow::Cow;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rxl_flit::MESSAGES_PER_FLIT;
use rxl_link::{Channel, LinkCodec, LinkStats};
use rxl_switch::SwitchStats;
use rxl_transport::{DeliveryAuditor, FailureCounts};

use crate::injector::{inject_events, Injector};
use crate::node::{
    EndpointActor, HopPlan, PortPeer, PortSet, RoutedFlit, SlotCtx, StallGuard, SwitchActor, Wire,
    NO_PIN,
};
use crate::probe::{EnginePhase, LinkHop, NullProbe, Probe};
use crate::routing::RoutingTable;
use crate::topology::{FabricTopology, LinkId};
pub use crate::trial::{
    FabricConfig, FabricCounters, FabricReport, FabricWorkload, InjectionPacing, StepOutcome,
};

/// Upper bound on `FabricConfig::vc_count`. Small on purpose: a port's
/// round-robin index is a `u8`, and real CXL switches carry single-digit VC
/// counts.
const MAX_VCS: usize = 8;

/// One fabric trial: an actor per switch and per endpoint, a wire per link,
/// and the slot loop ([`Self::step`]) that gives each its turn. What a turn
/// does lives on the actors (the crate-private `node` module); the engine
/// owns the one hop path, by which a flit enters a switch the same way
/// whether an endpoint injects it or a trunk forwards it.
///
/// Each slot, phase 0 makes paced arrivals due, phase 1 gives every endpoint
/// one transmit opportunity into a lane of its switch, and phase 2 gives
/// every switch output port holding a flit one: the port's arbiter picks a
/// virtual channel and that lane's head is delivered to the attached
/// endpoint or sent over the trunk into a lane of the next switch, against a
/// free credit of that lane. A lane is one FIFO queue; a flit is stamped with
/// the slot it entered its lane in, and a head stamped with the running slot
/// reads as absent, so a flit crosses at most one switch per slot even when
/// ascending port order reaches its new lane later in the same phase.
///
/// # Determinism and RNG draw order (event-jump shape)
///
/// The trial owns a single `StdRng` seeded from [`FabricConfig::seed`], and
/// every random decision draws from it in a fixed order: phase 1 visits
/// endpoints in ascending index order, phase 2 visits switch output ports in
/// ascending `(switch, port)` order, and a draw happens only when a flit is
/// actually present. Channel randomness is *event-jump shaped*: every link
/// owns an [`EventCursor`](rxl_link::EventCursor) that counts the link's flit traversals and caches
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
    /// The shared pristine table, until a switch drain or failure replaces
    /// it with one recomputed around the excluded switches.
    routing: Cow<'a, RoutingTable>,
    config: FabricConfig,
    endpoints: Vec<EndpointActor>,
    switches: Vec<SwitchActor>,
    /// One per link, indexed by [`LinkId::index`].
    wires: Vec<Wire>,
    /// Switches with an active port (see `SwitchActor::active`); empty
    /// exactly when no lane anywhere holds a flit.
    active_switches: PortSet,
    /// The clock, the RNG, the probe and the report's tallies.
    ctx: SlotCtx<P>,
    /// Messages not yet due under paced injection (drain gate; always 0 on
    /// the greedy path, where everything is due at `begin`).
    pending_paced: usize,
    workload_loaded: bool,
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
            config.queue_capacity >= 1,
            "queue_capacity must be at least 1: a lane needs a credit"
        );
        assert!(
            !config.adaptive || vcc >= 3,
            "adaptive routing needs two escape VCs plus at least one adaptive VC (vc_count >= 3)"
        );
        let link_cfg = config.link_config();
        let mut endpoints: Vec<EndpointActor> = topology
            .endpoints
            .iter()
            .map(|ep| EndpointActor::new(link_cfg, ep))
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
        let mut switches: Vec<SwitchActor> = topology
            .switches
            .iter()
            .enumerate()
            .map(|(id, sw)| {
                let switch = config.switch_config(sw.ports);
                SwitchActor::new(id, switch, vcc, config.queue_capacity, pins.clone())
            })
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
            wires: (0..topology.link_count())
                .map(|_| Wire::default())
                .collect(),
            ctx: SlotCtx {
                slot: 0,
                now: 0.0,
                rng: StdRng::seed_from_u64(config.seed),
                codec: LinkCodec::for_variant(config.variant),
                channel: config.channel,
                probe,
                report: FabricReport::default(),
                guard: StallGuard::default(),
            },
            pending_paced: 0,
            workload_loaded: false,
            topology,
            routing: Cow::Borrowed(routing),
            config,
        }
    }

    /// Takes the head of lane `(port, vc)` of switch `sw` out of the fabric
    /// (see `SwitchActor::pop`), keeping the active-switch set and the
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

    /// One hop over link `link` into switch `sw`, whether an endpoint
    /// injects the flit or a trunk forwards it. The flit is bound for `dst`
    /// with dateline state `crossed` (the crossing of `link` included), and
    /// `others` other flits of its stream are in flight. The hop is planned
    /// before `take` hands the flit over: if every usable lane is out of
    /// credits nothing moves, and `false` leaves the stall to the caller.
    fn hop(
        &mut self,
        sw: usize,
        link: usize,
        (dst, crossed, others): (usize, u8, u32),
        take: impl FnOnce(&mut Self) -> RoutedFlit,
    ) -> bool {
        let (egress, vc) = match self.switches[sw].plan(&self.routing, dst, crossed, others) {
            HopPlan::Blocked => return false,
            HopPlan::Blackhole => {
                // Fault injection swallows the flit: motion, for the
                // deadlock classification, since state changed.
                take(self);
                let ctx = &mut self.ctx;
                ctx.report.blackholed_flits += 1;
                ctx.guard.last_motion = ctx.slot;
                if P::ENABLED {
                    ctx.probe.on_blackhole(ctx.slot, sw);
                }
                return true;
            }
            HopPlan::Lane { egress, vc } => (egress, vc),
        };
        let mut rf = take(self);
        rf.crossed = crossed;
        let kind = if link < self.endpoints.len() {
            LinkHop::Inject
        } else {
            LinkHop::Trunk
        };
        let flips = self.wires[link].traverse(&mut self.ctx, link, kind, &mut rf);
        let dst = &mut self.endpoints[dst];
        if self.switches[sw].accept(&mut self.ctx, dst, link, (egress, vc), rf, flips) {
            self.active_switches.insert(sw);
        }
        true
    }

    /// Endpoint `e`'s transmit opportunity for `rf`, the flit held in its
    /// stall register or the one it just emitted. A blocked hop puts the
    /// flit back in the register and charges the stall to the planned
    /// escape egress, the port whose lanes were out of credit.
    fn inject(&mut self, e: usize, rf: RoutedFlit) {
        // `rf` is not in the fabric yet, so `in_flight` counts only the
        // other flits of its stream.
        let (sw, dst, crossed) = (self.endpoints[e].switch, rf.dst, rf.crossed);
        let others = self.endpoints[dst].in_flight;
        let mut held = Some(rf);
        let take = |_: &mut Self| held.take().expect("a hop takes its flit once");
        if !self.hop(sw, e, (dst, crossed, others), take) {
            self.endpoints[e].stalled = held;
            self.ctx.report.credit_stalls += 1;
            if P::ENABLED {
                let egress = self.routing.egress(sw, dst);
                let evc = self.switches[sw].escape_vc(egress, crossed);
                self.ctx
                    .probe
                    .on_credit_stall(self.ctx.slot, sw, Some(egress), Some(evc));
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
    /// *every* non-empty VC was blocked records one credit-stall slot,
    /// charged to the first blocked VC — with `vc_count == 1` exactly the
    /// pre-VC per-port accounting.
    fn forward_port(&mut self, sw: usize, port: usize) {
        let mut blocked = None;
        for k in 0..self.config.vc_count {
            let node = &self.switches[sw];
            let (vc, Some(head)) = node.head(port, k, self.ctx.slot) else {
                continue;
            };
            let (dst, crossed) = (head.dst, head.crossed);
            let take = move |sim: &mut Self| sim.pop(sw, port, vc);
            match node.peers[port] {
                PortPeer::Endpoint(e) => {
                    debug_assert_eq!(dst, e);
                    let mut rf = take(self);
                    self.wires[e].traverse(&mut self.ctx, e, LinkHop::Deliver, &mut rf);
                    self.endpoints[e].deliver(e, &mut self.ctx, rf);
                    return;
                }
                PortPeer::Trunk {
                    switch: next,
                    trunk,
                    dateline,
                    ..
                } => {
                    // Crossing a dateline trunk updates the flit's `crossed`
                    // bits on arrival, so the plan uses the post-crossing
                    // state while the trunk itself was traversed under the
                    // pre-crossing class. The head is itself in flight,
                    // hence the `- 1`; the pop touches `sw` and the plan
                    // reads `next`, so the plan still holds after it.
                    let others = self.endpoints[dst].in_flight - 1;
                    let link = self.endpoints.len() + trunk;
                    if self.hop(next, link, (dst, crossed | dateline, others), take) {
                        return;
                    }
                    blocked.get_or_insert(vc);
                }
                PortPeer::Unconnected => {
                    unreachable!("routing never targets unconnected ports")
                }
            }
        }
        if let Some(vc) = blocked {
            self.ctx.report.credit_stalls += 1;
            if P::ENABLED {
                self.ctx
                    .probe
                    .on_credit_stall(self.ctx.slot, sw, Some(port), Some(vc));
            }
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
        let pacing = self.config.offered_load.map(|fraction| {
            InjectionPacing::fixed_rate(workload, fraction * MESSAGES_PER_FLIT as f64)
        });
        self.load_workload(workload, pacing.as_ref());
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
                        inject_events(&mut self.ctx.probe, 0, s, host, device, true, down);
                        inject_events(&mut self.ctx.probe, 0, s, device, host, false, up);
                    }
                    self.endpoints[host].injector = Injector::greedy(Arc::clone(down));
                    self.endpoints[device].injector = Injector::greedy(Arc::clone(up));
                }
            }
        }
    }

    /// Advances the trial by at most `budget` slots (scenario engines pass
    /// the distance to the next epoch boundary; [`Self::run`] passes
    /// `u64::MAX`). Returns why the call stopped; only
    /// [`StepOutcome::Budget`] means the trial can continue.
    pub fn step(&mut self, budget: u64) -> StepOutcome {
        assert!(self.workload_loaded, "step requires begin");
        if self.ctx.report.drained {
            return StepOutcome::Drained;
        }
        let flit_time_ns = self.config.link_config().flit_time_ns;
        let mut stepped = 0u64;
        while self.ctx.slot < self.config.max_slots {
            if stepped == budget {
                return StepOutcome::Budget;
            }
            stepped += 1;
            self.ctx.slot += 1;
            let slot = self.ctx.slot;
            self.ctx.now = slot as f64 * flit_time_ns;

            // Self-profiler clock: a constant condition, so unprofiled
            // builds (NullProbe *and* enabled-but-unprofiled probes)
            // compile every phase mark away.
            let mut phase_clock = if P::ENABLED && P::PROFILE {
                Some(std::time::Instant::now())
            } else {
                None
            };

            // Phase 0 — paced injection: messages whose arrival slot has come
            // become due (free on the greedy path). A release counts as trial
            // progress for the stall guard: an open-loop gap between arrivals
            // (a bursty on/off process can idle for thousands of slots) is
            // not a wedge while injections are pending.
            if self.pending_paced > 0 {
                let mut released = 0;
                for (e, node) in self.endpoints.iter_mut().enumerate() {
                    let batch = node.injector.release(slot);
                    if P::ENABLED && !batch.is_empty() {
                        let (session, dst, down) = (node.session, node.peer, !node.is_device);
                        inject_events(&mut self.ctx.probe, slot, session, e, dst, down, batch);
                    }
                    released += batch.len();
                }
                if released > 0 {
                    self.pending_paced -= released;
                    self.ctx.guard.last_accept = slot;
                }
            }
            self.ctx
                .phase_mark(&mut phase_clock, EnginePhase::PacedRelease);

            // Phase 1 — endpoint transmit opportunities, in endpoint order.
            // A flit held in an endpoint's stall register goes first;
            // otherwise the endpoint emits, and its flit hops at once.
            let mut all_endpoints_idle = true;
            for e in 0..self.endpoints.len() {
                let node = &mut self.endpoints[e];
                if let Some(rf) = node.stalled.take().or_else(|| node.emit(e, &mut self.ctx)) {
                    all_endpoints_idle = false;
                    self.inject(e, rf);
                }
            }
            self.ctx
                .phase_mark(&mut phase_clock, EnginePhase::EndpointTx);

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
                            self.forward_port(sw, port);
                        }
                    }
                }
            }
            self.ctx
                .phase_mark(&mut phase_clock, EnginePhase::SwitchForward);

            if all_endpoints_idle
                && self.active_switches.is_empty()
                && self.endpoints.iter().all(|node| {
                    node.stalled.is_none() && node.injector.exhausted() && node.link.is_quiescent()
                })
            {
                self.ctx.report.drained = true;
                return StepOutcome::Drained;
            }

            // Livelock guard: abort once nothing has been accepted anywhere
            // for the configured window (see `FabricConfig::stall_slots`).
            // While paced injections are still pending the guard is held
            // off: an open-loop arrival gap (bursty processes can idle for
            // many thousands of slots) is scheduled quiet time, not a wedge;
            // a genuinely wedged paced trial is still caught one guard
            // window after its final release. An acceptance in this slot
            // reads as a zero-slot gap.
            let (guard, window) = (self.ctx.guard, self.config.stall_slots);
            if window > 0 && self.pending_paced == 0 && slot - guard.last_accept >= window {
                // If every workload message of every session has been
                // delivered, the wedge is control-plane residue (a
                // retransmitted ACK/NACK exchange that can no longer
                // converge), not lost payload: the trial *did* drain the
                // workload. Report it drained and classify the residual.
                let report = &mut self.ctx.report;
                if self.endpoints.iter().all(|node| node.audit.all_delivered()) {
                    report.post_delivery_wedge = true;
                    report.drained = true;
                    return StepOutcome::Drained;
                }
                // Classify the wedge: flits stuck in the fabric with no
                // motion anywhere for at least half the guard window is a
                // credit deadlock (once the cyclic credit wait closes,
                // motion ceases entirely); motion without acceptance is the
                // documented replay livelock, which keeps flits moving every
                // few slots right up to the guard.
                report.deadlock = (!self.active_switches.is_empty()
                    || self.endpoints.iter().any(|node| node.stalled.is_some()))
                    && slot - guard.last_motion >= window.div_ceil(2);
                return StepOutcome::Stalled;
            }
            self.ctx
                .phase_mark(&mut phase_clock, EnginePhase::StageMerge);
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
        match self.step(horizon.saturating_sub(self.ctx.slot)) {
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
            slots: self.ctx.slot,
            sim_time_ns: self.ctx.now,
            ..self.ctx.report
        };
        (report, self.ctx.probe)
    }

    /// The trial's probe (read access mid-run).
    pub fn probe(&self) -> &P {
        &self.ctx.probe
    }

    /// The trial's probe, mutably — scenario engines use this to feed it
    /// out-of-band events ([`Probe::on_epoch`]) at epoch boundaries.
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.ctx.probe
    }

    /// Slots simulated so far.
    pub fn slot(&self) -> u64 {
        self.ctx.slot
    }

    /// Snapshot of the cumulative counters, for per-epoch deltas.
    pub fn counters(&self) -> FabricCounters {
        let mut failures = FailureCounts::default();
        for node in &self.endpoints {
            failures.merge(node.audit.counts());
        }
        let report = &self.ctx.report;
        FabricCounters {
            slots: self.ctx.slot,
            failures,
            undetected_drop_events: report.undetected_drop_events,
            replay_leak_events: report.replay_leak_events,
            payload_drops: report.payload_drops,
            protocol_flit_drops: report.protocol_flit_drops,
            blackholed_flits: report.blackholed_flits,
            credit_stalls: report.credit_stalls,
        }
    }

    /// Installs a (possibly time-varying) channel on one link, replacing the
    /// static `config.channel` for that link until
    /// [`Self::reset_link_channel`]. The scenario engine in `rxl-chaos` is
    /// the intended caller. Panics if `link` is not a link of the topology.
    pub fn set_link_channel(&mut self, link: LinkId, channel: Box<dyn Channel>) {
        self.wire(link).set_channel(Some(channel));
    }

    /// Reverts one link to the static `config.channel`. Panics if `link` is
    /// not a link of the topology, whether or not any channel was installed.
    pub fn reset_link_channel(&mut self, link: LinkId) {
        self.wire(link).set_channel(None);
    }

    fn wire(&mut self, link: LinkId) -> &mut Wire {
        assert!(link.index() < self.wires.len(), "link out of range");
        &mut self.wires[link.index()]
    }

    /// Excludes switch `sw` from transit routing (a graceful drain): its
    /// attached endpoints stay reachable and queued flits still forward, but
    /// no recomputed route crosses it. Destinations only reachable through
    /// it are blackholed.
    pub fn drain_switch(&mut self, sw: usize) {
        assert!(sw < self.switches.len(), "switch out of range");
        if self.switches[sw].no_transit {
            return;
        }
        self.switches[sw].no_transit = true;
        if P::ENABLED {
            self.ctx.probe.on_switch_drain(self.ctx.slot, sw);
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
        let node = &mut self.switches[sw];
        if node.dead {
            return;
        }
        (node.dead, node.no_transit) = (true, true);
        let mut purged = 0u64;
        node.purge(|rf| {
            self.endpoints[rf.dst].in_flight -= 1;
            purged += 1;
        });
        self.active_switches.remove(sw);
        self.ctx.report.blackholed_flits += purged;
        self.ctx.guard.last_motion = self.ctx.slot;
        if P::ENABLED {
            self.ctx.probe.on_switch_fail(self.ctx.slot, sw, purged);
        }
        self.rebuild_routing();
    }

    fn rebuild_routing(&mut self) {
        let (no_transit, dead): (Vec<bool>, Vec<bool>) =
            self.switches.iter().map(|s| (s.no_transit, s.dead)).unzip();
        let degraded = RoutingTable::degraded(self.topology, &no_transit, &dead);
        self.routing = Cow::Owned(degraded);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::LinkTraversalEvent;
    use rxl_link::{ChannelErrorModel, ProtocolVariant};

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

    /// A VC count outside `1..=MAX_VCS` is rejected by the constructor.
    #[test]
    #[should_panic(expected = "vc_count must be in 1..=8")]
    fn zero_vcs_are_rejected() {
        let t = FabricTopology::ring(4, 1, 1);
        let routing = RoutingTable::new(&t);
        let config = FabricConfig::new(ProtocolVariant::Rxl).with_vc_count(0);
        let _ = FabricSim::new(&t, &routing, config);
    }

    #[test]
    #[should_panic(expected = "vc_count must be in 1..=8")]
    fn more_than_max_vcs_are_rejected() {
        let t = FabricTopology::ring(4, 1, 1);
        let routing = RoutingTable::new(&t);
        let config = FabricConfig::new(ProtocolVariant::Rxl).with_vc_count(MAX_VCS + 1);
        let _ = FabricSim::new(&t, &routing, config);
    }

    /// A lane with no credit could never accept a flit.
    #[test]
    #[should_panic(expected = "queue_capacity must be at least 1")]
    fn zero_queue_capacity_is_rejected() {
        let t = FabricTopology::ring(4, 1, 1);
        let routing = RoutingTable::new(&t);
        let config = FabricConfig {
            queue_capacity: 0,
            ..FabricConfig::new(ProtocolVariant::Rxl)
        };
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
    #[should_panic(expected = "link out of range")]
    fn resetting_a_link_of_another_topology_panics_before_any_override() {
        let t = FabricTopology::leaf_spine(2, 1, 1);
        let routing = RoutingTable::new(&t);
        let mut sim = FabricSim::new(&t, &routing, FabricConfig::new(ProtocolVariant::Rxl));
        let bigger = FabricTopology::leaf_spine(2, 2, 2);
        let foreign = bigger.trunk_between(1, 3).expect("leaf 1 ⇄ spine 3 trunk");
        assert!(foreign.index() >= t.link_count());
        sim.reset_link_channel(foreign);
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
        /// switch's own ([`SwitchActor::check_invariants`]), the active-switch
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
                node.check_invariants(self.ctx.slot, &mut bound_for);
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
                    self.ctx.slot,
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
                        self.ctx.slot
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
