//! The actors of a fabric trial: a [`SwitchActor`] plans a flit's next hop
//! and accepts it into a lane, an [`EndpointActor`] emits its flit for the
//! slot and takes delivery, and a [`Wire`] runs the traversal every hop opens
//! with. The engine's slot loop decides who acts when (see `FabricSim`);
//! every action reads and writes the trial-wide state through a [`SlotCtx`].

use std::collections::VecDeque;
use std::time::Instant;

use rand::rngs::StdRng;

use rxl_flit::{WireFlit, WIRE_FLIT_LEN};
use rxl_link::{
    Channel, ChannelErrorModel, EventCursor, FlitRef, LinkCodec, LinkConfig, LinkEndpoint,
    TxEmission,
};
use rxl_switch::{ProcessVerdict, Switch, SwitchConfig};
use rxl_transport::{DeliveryAuditor, DeliveryVerdict};

use crate::injector::Injector;
use crate::probe::{
    message_key, ChannelErrorEvent, DeliverEvent, EnginePhase, LinkHop, LinkTraversalEvent, Probe,
};
use crate::routing::{RoutingTable, NO_ROUTE};
use crate::topology::{EndpointNode, NodeRole};
use crate::trial::FabricReport;

/// A set of small indices — the ports of one switch that hold flits, or the
/// switches of the fabric that have such a port — as bit words, so the
/// forwarding phase visits exactly the ports with work: a quiet fabric costs
/// a few zero-word scans per slot instead of a dense switch × port sweep.
pub(crate) struct PortSet(Vec<u64>);

impl PortSet {
    /// The empty set over indices `0..capacity`.
    pub(crate) fn new(capacity: usize) -> Self {
        PortSet(vec![0; capacity.div_ceil(64)])
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.0.iter().all(|&word| word == 0)
    }

    #[inline]
    pub(crate) fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    pub(crate) fn remove(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }

    /// Number of 64-index words, for [`Self::snapshot`].
    #[inline]
    pub(crate) fn words(&self) -> usize {
        self.0.len()
    }

    /// The members in word `wi`, ascending, as they were at the call: the
    /// iterator owns a copy of the word, so the set may change while it is
    /// walked (a member removed meanwhile is still yielded, one added is
    /// not).
    #[inline]
    pub(crate) fn snapshot(&self, wi: usize) -> impl Iterator<Item = usize> {
        let mut word = self.0[wi];
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let i = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                i
            })
        })
    }
}

/// What sits on the far side of a switch port.
#[derive(Clone, Copy, Debug)]
pub(crate) enum PortPeer {
    Endpoint(usize),
    /// A trunk to `switch`. `dim` is the trunk's ring dimension (from
    /// [`crate::FabricTopology::trunk_class`]) and `dateline` the bits a
    /// flit's `crossed` mask gains on arrival over it: `1 << dim` for a
    /// dateline trunk, 0 otherwise.
    Trunk {
        switch: usize,
        trunk: usize,
        dim: u8,
        dateline: u8,
    },
    Unconnected,
}

/// Sentinel for a [`SwitchActor::pins`] entry no flit has set yet.
pub(crate) const NO_PIN: u32 = u32::MAX;

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
pub(crate) struct RoutedFlit {
    payload: FlitPayload,
    /// Destination endpoint index.
    pub(crate) dst: usize,
    /// Low 32 bits of the slot in which the flit entered its current lane
    /// (written by [`SwitchActor::push`], compared by [`SwitchActor::head`]):
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
    pub(crate) crossed: u8,
}

// A hop moves a `RoutedFlit` by value three times (lane pop, transmit, lane
// push); it must stay a handle plus metadata, never a payload.
const _: () = assert!(std::mem::size_of::<RoutedFlit>() <= 32);

/// Outcome of planning a flit's next hop at a switch (see
/// [`SwitchActor::plan`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum HopPlan {
    /// Dead switch or no surviving route: the flit is swallowed by fault
    /// injection.
    Blackhole,
    /// Buffer the flit in VC `vc` of output port `egress`.
    Lane { egress: usize, vc: usize },
    /// Every usable lane is out of credits; the flit holds its place.
    Blocked,
}

/// When the trial last made progress, for the stall guard: the slot an
/// endpoint last accepted a flit (or a paced message became due), and the
/// slot a flit last moved anywhere (entered a lane, was consumed by a switch
/// pipeline, delivered, or blackholed). The second tells a credit deadlock
/// (flits wedged, zero motion) from the baseline-CXL replay livelock
/// (constant motion, zero acceptance) when the guard trips.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct StallGuard {
    pub(crate) last_accept: u64,
    pub(crate) last_motion: u64,
}

/// The trial-wide state every node action reads and writes. The engine
/// keeps one for the whole trial and advances its clock each slot.
pub(crate) struct SlotCtx<P> {
    /// The running slot: the engine's only clock.
    pub(crate) slot: u64,
    /// Simulated time of `slot` in nanoseconds.
    pub(crate) now: f64,
    pub(crate) rng: StdRng,
    /// Materialises deferred ([`FlitPayload::Clean`]) wire images: the
    /// [`LinkCodec`] every endpoint's transmitter holds, so an image is
    /// bit-identical to what the transmitter would have produced.
    pub(crate) codec: LinkCodec,
    /// `FabricConfig::channel`, run by every [`Wire`] without its own.
    pub(crate) channel: ChannelErrorModel,
    /// Write-only from the engine's point of view: events go in, nothing
    /// comes back.
    pub(crate) probe: P,
    /// The report under construction: event tallies, `first_fail_order_slot`
    /// and the outcome flags accumulate here as the trial runs.
    pub(crate) report: FabricReport,
    pub(crate) guard: StallGuard,
}

impl<P: Probe> SlotCtx<P> {
    /// Self-profiler phase boundary: with a live clock (only ever `Some`
    /// when `P::ENABLED && P::PROFILE`), reports the nanoseconds since the
    /// previous boundary to the probe and restarts the clock. Wall-clock
    /// readings flow *only* into the probe — never back into simulation
    /// state — so profiled trials stay bit-identical to unprofiled ones.
    #[inline]
    pub(crate) fn phase_mark(&mut self, clock: &mut Option<Instant>, phase: EnginePhase) {
        if let Some(t) = clock {
            let mark = Instant::now();
            self.probe
                .on_phase(phase, mark.duration_since(*t).as_nanos() as u64);
            *t = mark;
        }
    }
}

/// One physical link, indexed by [`crate::LinkId::index`] (endpoint
/// attachment links first, then trunks): the skip-ahead cursor that counts
/// the link's traversals and caches the traversal index of its channel's
/// next error event, and the channel a fault-injection scenario installed on
/// it, if any.
#[derive(Default)]
pub(crate) struct Wire {
    cursor: EventCursor,
    channel: Option<Box<dyn Channel>>,
}

impl Wire {
    /// Installs `channel` on this link, or with `None` reverts it to the
    /// static channel. The cached next-error event belonged to the replaced
    /// channel, so the cursor resamples at the next traversal; reverting a
    /// link that runs the static channel already keeps its cache, and so
    /// does every untouched link (callers dedup unchanged specs, as the
    /// chaos runner does).
    pub(crate) fn set_channel(&mut self, channel: Option<Box<dyn Channel>>) {
        if channel.is_some() || self.channel.is_some() {
            self.cursor.reset();
        }
        self.channel = channel;
    }

    /// One traversal of `rf` over this wire (link `link`) in the running
    /// slot, the opening every hop shares: stamps the motion, reports the
    /// traversal, and runs the flit through the link's channel, returning
    /// the number of bits flipped. A traversal short of the cached
    /// next-error event consumes zero draws *and materialises no wire
    /// bytes* — the common case on every realistic-BER link: the flit stays
    /// [`FlitPayload::Clean`] and only the cursor's traversal counter moves.
    /// Only the event itself encodes the wire image (if still deferred) and
    /// corrupts it in place.
    #[inline]
    pub(crate) fn traverse<P: Probe>(
        &mut self,
        ctx: &mut SlotCtx<P>,
        link: usize,
        hop: LinkHop,
        rf: &mut RoutedFlit,
    ) -> usize {
        ctx.guard.last_motion = ctx.slot;
        if P::ENABLED {
            ctx.probe.on_link_traversal(LinkTraversalEvent {
                slot: ctx.slot,
                link,
                hop,
                protocol: rf.protocol,
                retransmission: rf.retransmission,
            });
        }
        let channel: &mut dyn Channel = match &mut self.channel {
            Some(ch) => ch.as_mut(),
            None => &mut ctx.channel,
        };
        let bits = (WIRE_FLIT_LEN * 8) as u64;
        if !self.cursor.step(channel, bits, ctx.now, &mut ctx.rng) {
            return 0;
        }
        let wire = rf.payload.materialize(&ctx.codec);
        self.cursor
            .corrupt_event(channel, wire, ctx.now, &mut ctx.rng)
    }
}

/// One switching device of a trial: the `rxl-switch` forwarding pipeline
/// plus the bounded output lanes of its ports.
///
/// A lane is the one record of its buffer: its length is the credit count
/// a sender checks (a lane holds at most `capacity` flits), and a port's
/// lanes summed are the congestion signal the adaptive egress choice
/// compares. Each VC owns a private lane, so an escape VC makes progress
/// while the adaptive VCs of the same port are wedged (the dateline scheme
/// on the topology types).
pub(crate) struct SwitchActor {
    /// This switch's index in the topology, as the probe names it.
    id: usize,
    pub(crate) switch: Switch,
    /// `lanes[port * vcc + vc]`: flits awaiting transmission on virtual
    /// channel `vc` of that port, oldest first. With `vc_count == 1` the
    /// lane index degenerates to the port index — the pre-VC layout.
    lanes: Vec<VecDeque<RoutedFlit>>,
    /// Flits one lane may hold: `FabricConfig::queue_capacity`.
    capacity: usize,
    /// `next[port]`: the VC that port's round-robin output arbitration
    /// scans first. A grant moves it one past the winner, so every
    /// non-empty VC, the escape VC included, is served within `vcc` grants.
    next: Vec<u8>,
    pub(crate) peers: Vec<PortPeer>,
    /// Ports with a flit in any lane (the bits stay port-granular; lanes
    /// share their port's bit).
    pub(crate) active: PortSet,
    /// `pins[dst]`: the egress port the last flit bound for `dst` took out
    /// of this switch ([`NO_PIN`] before any did). Recorded on every
    /// forwarded hop; a flit is free to *deviate* from the pin (and
    /// re-choose by occupancy) only when [`EndpointActor::in_flight`] says
    /// the destination's stream is otherwise idle. Empty unless
    /// `config.adaptive`, which is how [`Self::plan`] tells an adaptive
    /// switch.
    pub(crate) pins: Vec<u32>,
    vcc: usize,
    /// The switch failed hard: its lanes were purged and every flit sent to
    /// it is blackholed.
    pub(crate) dead: bool,
    /// Excluded from transit routing (drained or dead).
    pub(crate) no_transit: bool,
}

impl SwitchActor {
    /// Switch `id` with `config.ports` unconnected ports of `vcc` empty
    /// lanes, each `capacity` flits deep.
    pub(crate) fn new(
        id: usize,
        config: SwitchConfig,
        vcc: usize,
        capacity: usize,
        pins: Vec<u32>,
    ) -> Self {
        let ports = config.ports;
        SwitchActor {
            id,
            lanes: (0..ports * vcc).map(|_| VecDeque::new()).collect(),
            capacity,
            next: vec![0; ports],
            peers: vec![PortPeer::Unconnected; ports],
            active: PortSet::new(ports),
            switch: Switch::new(config),
            pins,
            vcc,
            dead: false,
            no_transit: false,
        }
    }

    /// Free credit on VC `vc` of output port `port`.
    #[inline]
    pub(crate) fn has_credit(&self, port: usize, vc: usize) -> bool {
        self.lanes[port * self.vcc + vc].len() < self.capacity
    }

    /// The lanes of output port `port`, VC 0 first.
    #[inline]
    fn port_lanes(&self, port: usize) -> &[VecDeque<RoutedFlit>] {
        &self.lanes[port * self.vcc..][..self.vcc]
    }

    /// The escape VC a flit with dateline-crossing state `crossed` rides on
    /// egress port `egress`: VC 1 once the flit has crossed the dateline of
    /// the egress trunk's ring dimension, VC 0 before (and always for
    /// endpoint-facing egresses, which are unconditional sinks). With fewer
    /// than two VCs everything is clamped to VC 0 — the pre-VC single-queue
    /// behaviour, deadlock included.
    #[inline]
    pub(crate) fn escape_vc(&self, egress: usize, crossed: u8) -> usize {
        match self.peers[egress] {
            PortPeer::Trunk { dim, .. } if self.vcc >= 2 => ((crossed >> dim) & 1) as usize,
            _ => 0,
        }
    }

    /// Where the next hop of a flit bound for `dst`, arriving at this switch
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
    #[inline]
    pub(crate) fn plan(
        &self,
        routes: &RoutingTable,
        dst: usize,
        crossed: u8,
        others: u32,
    ) -> HopPlan {
        let escape = routes.egress(self.id, dst);
        if self.dead || escape == NO_ROUTE {
            return HopPlan::Blackhole;
        }
        // Minimal-adaptive first: the adaptive VC (2..vcc) of the
        // least-occupied candidate port with a free credit, ties broken by
        // (port, vc) — a pure function of queue state, no RNG draws.
        if !self.pins.is_empty() {
            let pinned = if others > 0 { self.pins[dst] } else { NO_PIN };
            let mut best: Option<(usize, usize, usize)> = None;
            for &port in routes.candidates(self.id, dst) {
                if matches!(self.peers[port], PortPeer::Endpoint(_)) {
                    // Final-hop delivery always rides VC 0 of the endpoint
                    // lane (an unconditional sink — nothing to adapt).
                    continue;
                }
                if pinned != NO_PIN && port as u32 != pinned {
                    continue;
                }
                let occupancy: usize = self.port_lanes(port).iter().map(VecDeque::len).sum();
                for vc in 2..self.vcc {
                    if self.has_credit(port, vc) {
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
        let vc = self.escape_vc(escape, crossed);
        if self.has_credit(escape, vc) {
            HopPlan::Lane { egress: escape, vc }
        } else {
            HopPlan::Blocked
        }
    }

    /// Takes `rf`, which just crossed link `link` with `flips` bits flipped,
    /// through this switch's forwarding pipeline into lane `(egress, vc)` —
    /// the lane [`Self::plan`] chose, so it has a credit — unless the
    /// pipeline silently drops it. `dst` is the flit's destination. Returns
    /// `true` if the flit was queued.
    pub(crate) fn accept<P: Probe>(
        &mut self,
        ctx: &mut SlotCtx<P>,
        dst: &mut EndpointActor,
        link: usize,
        (egress, vc): (usize, usize),
        mut rf: RoutedFlit,
        flips: usize,
    ) -> bool {
        // Known-clean bypass: zero channel flips mean the full pipeline is
        // the identity and draw-free on this flit (the previous hop emitted a
        // valid codeword with a matching CRC, and fabric switches have no
        // internal error model), so only the statistics need touching. This
        // is where the skip-ahead path earns its quiet-link speedup: no FEC
        // decode, no CRC verify, no re-encode — and, for a still-deferred
        // [`FlitPayload::Clean`] flit, no wire bytes at all. `corrected` is
        // `None` once the pipeline dropped the flit as uncorrectable.
        let corrected = if flips == 0 {
            self.switch.forward_clean();
            Some(0)
        } else {
            let wire = rf.payload.materialize(&ctx.codec);
            match self.switch.process_in_place(wire, &mut ctx.rng) {
                ProcessVerdict::Forwarded {
                    corrected_symbols, ..
                } => Some(corrected_symbols),
                ProcessVerdict::DroppedUncorrectable => None,
            }
        };
        if P::ENABLED && corrected != Some(0) {
            ctx.probe.on_channel_error(ChannelErrorEvent {
                slot: ctx.slot,
                switch: self.id,
                link,
                dropped: corrected.is_none(),
                corrected_symbols: corrected.unwrap_or(0),
            });
        }
        if corrected.is_none() {
            // Silent drop; the endpoints' retry machinery (or lack of it,
            // for baseline CXL's blind spot) is on its own.
            if rf.protocol {
                let report = &mut ctx.report;
                report.protocol_flit_drops += 1;
                if !rf.retransmission {
                    report.payload_drops += 1;
                    if !dst.gap_open && !dst.link.rx().awaiting_replay() {
                        report.eligible_payload_drops += 1;
                    }
                }
            }
            return false;
        }
        dst.in_flight += 1;
        if !self.pins.is_empty() {
            // Record the path taken at *every* hop, not just the choosing
            // one: a lead flit reaches downstream switches after its
            // followers were injected, and those switches must replay its
            // exact ports or the followers could overtake it on a divergent
            // equal-length path.
            self.pins[rf.dst] = egress as u32;
        }
        self.push(egress, vc, rf, ctx.slot);
        if P::ENABLED {
            let occupancy = self.lanes[egress * self.vcc + vc].len();
            ctx.probe
                .on_vc_occupancy(ctx.slot, self.id, egress, vc, occupancy);
        }
        true
    }

    /// Buffers `rf` in lane `(port, vc)`, stamped as having entered it in
    /// `slot`.
    #[inline]
    pub(crate) fn push(&mut self, port: usize, vc: usize, mut rf: RoutedFlit, slot: u64) {
        rf.staged_at = slot as u32;
        self.lanes[port * self.vcc + vc].push_back(rf);
        self.active.insert(port);
    }

    /// The `k`-th VC in `port`'s arbitration order and the flit its lane may
    /// transmit in `slot`: the lane's head, unless that entered the lane in
    /// this very slot — a flit crosses at most one switch per slot. Lanes are
    /// FIFO, so a fresh head means every flit behind it is fresh too and the
    /// lane reads as empty.
    #[inline]
    pub(crate) fn head(&self, port: usize, k: usize, slot: u64) -> (usize, Option<&RoutedFlit>) {
        let vc = (usize::from(self.next[port]) + k) % self.vcc;
        let head = self.lanes[port * self.vcc + vc].front();
        (vc, head.filter(|rf| rf.staged_at != slot as u32))
    }

    /// Takes the head of lane `(port, vc)`, returning its credit and moving
    /// the port's arbitration one past `vc`.
    #[inline]
    pub(crate) fn pop(&mut self, port: usize, vc: usize) -> RoutedFlit {
        let lanes = &mut self.lanes[port * self.vcc..][..self.vcc];
        let rf = lanes[vc].pop_front().expect("pop follows head");
        self.next[port] = ((vc + 1) % self.vcc) as u8;
        if lanes.iter().all(VecDeque::is_empty) {
            self.active.remove(port);
        }
        rf
    }

    /// Empties every lane (the switch failed), handing each flit to `lost`.
    pub(crate) fn purge(&mut self, mut lost: impl FnMut(RoutedFlit)) {
        for lane in &mut self.lanes {
            lane.drain(..).for_each(&mut lost);
        }
        self.active = PortSet::new(self.peers.len());
    }
}

/// One endpoint of a trial: its `rxl-link` state machine and what the trial
/// tracks about it.
pub(crate) struct EndpointActor {
    pub(crate) link: LinkEndpoint,
    /// Feeds the transmitter from the session's shared stream (empty until
    /// `begin`).
    pub(crate) injector: Injector,
    /// One-flit stall register: the flit this endpoint emitted and has not
    /// yet sent into its switch for lack of credit (backpressure). While it
    /// is full the endpoint emits nothing.
    pub(crate) stalled: Option<RoutedFlit>,
    /// Ground-truth audit of what this endpoint receives: its session's
    /// downstream stream at a device, the upstream one at a host.
    pub(crate) audit: DeliveryAuditor,
    /// Mirror of `audit`'s open-gap state at the end of the previous
    /// delivery, so each drop episode is counted as one undetected-drop
    /// event exactly once.
    pub(crate) gap_open: bool,
    /// Flits bound for this endpoint currently inside the fabric — the
    /// flowlet gate for adaptive routing: a destination's path pins are
    /// frozen while any of its flits are in flight, so adaptive spreading
    /// can never reorder a session's flit stream (an overtaken flit would
    /// otherwise trigger the link layer's go-back-N replay).
    pub(crate) in_flight: u32,
    /// Session index and peer endpoint (`usize::MAX` for an endpoint no
    /// session claims; it never emits and nothing is routed to it).
    pub(crate) session: usize,
    pub(crate) peer: usize,
    /// The switch this endpoint is attached to.
    pub(crate) switch: usize,
    pub(crate) is_device: bool,
}

impl EndpointActor {
    /// The idle, session-less endpoint `ep` describes.
    pub(crate) fn new(link: LinkConfig, ep: &EndpointNode) -> Self {
        EndpointActor {
            link: LinkEndpoint::new(link),
            injector: Injector::default(),
            stalled: None,
            audit: DeliveryAuditor::new(),
            gap_open: false,
            in_flight: 0,
            session: usize::MAX,
            peer: usize::MAX,
            switch: ep.switch,
            is_device: ep.role == NodeRole::Device,
        }
    }

    /// Endpoint `e`'s emission for the slot: tops the transmitter up from
    /// the injector, takes its emission and, if that carries a flit, wraps
    /// it for the fabric, bound for the peer.
    #[inline]
    pub(crate) fn emit<P: Probe>(&mut self, e: usize, ctx: &mut SlotCtx<P>) -> Option<RoutedFlit> {
        self.injector.feed(&mut self.link);
        let emission = self.link.emit(ctx.now);
        let (protocol, retransmission) = match &emission {
            TxEmission::Protocol { retransmission, .. } => (true, *retransmission),
            _ => (false, false),
        };
        if P::ENABLED {
            if retransmission {
                ctx.probe.on_retransmit(ctx.slot, e, self.session);
            } else if matches!(&emission, TxEmission::Nack { .. }) {
                ctx.probe.on_nack(ctx.slot, e, self.session);
            }
        }
        // The wire image is *not* encoded here: the flit enters the fabric
        // in deferred (`Clean`) form — the emission's own handle, bound to
        // the sequence number its transmitter assigned — and only a
        // corrupting traversal forces the encode.
        let (flit, seq) = emission.into_flit()?;
        Some(RoutedFlit {
            payload: FlitPayload::Clean { flit, seq },
            dst: self.peer,
            staged_at: 0,
            protocol,
            retransmission,
            crossed: 0,
        })
    }

    /// Takes delivery of `rf` at this endpoint (`e`) after its last link
    /// traversal: receives it, audits the delivered messages and classifies
    /// undetected-drop events.
    pub(crate) fn deliver<P: Probe>(&mut self, e: usize, ctx: &mut SlotCtx<P>, rf: RoutedFlit) {
        // A flit still `Clean` after its last traversal never needed wire
        // bytes at all: the receiver takes the trusted path (no FEC decode,
        // no CRC verify) whose outcome is provably identical. Anything that
        // was ever corrupted — even if a switch FEC-corrected it back —
        // stays `Wire` and takes the full decode, byte-for-byte the
        // eager-encode engine's behaviour.
        let result = match &rf.payload {
            FlitPayload::Clean { flit, seq } => self.link.receive_trusted(flit, *seq, ctx.now),
            FlitPayload::Wire(wire) => self.link.receive(wire, ctx.now),
        };
        if result.accepted {
            ctx.guard.last_accept = ctx.slot;
        }

        let mut out_of_order = false;
        for msg in &result.delivered {
            let verdict = self.audit.observe_delivery(msg);
            out_of_order |= verdict == DeliveryVerdict::OutOfOrder;
            if P::ENABLED {
                ctx.probe.on_deliver(DeliverEvent {
                    slot: ctx.slot,
                    session: self.session,
                    src: self.peer,
                    dst: e,
                    downstream: self.is_device,
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
                if self.link.rx().awaiting_replay() {
                    ctx.report.replay_leak_events += 1;
                } else if !self.gap_open {
                    ctx.report.undetected_drop_events += 1;
                    ctx.report.first_fail_order_slot.get_or_insert(ctx.slot);
                    if P::ENABLED {
                        ctx.probe.on_fail_order(ctx.slot, self.session, e);
                    }
                }
            }
            self.gap_open = self.audit.has_open_gaps();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::FabricTopology;
    use rxl_flit::Flit256;
    use rxl_switch::{InternalErrorModel, LinkCrcMode};

    impl PortSet {
        /// Every member, ascending.
        pub(crate) fn members(&self) -> Vec<usize> {
            (0..self.words()).flat_map(|wi| self.snapshot(wi)).collect()
        }
    }

    impl SwitchActor {
        /// Panics unless, at the end of slot `slot`, no lane holds more
        /// than `capacity` flits, `active` holds exactly the ports with a
        /// non-empty lane, and no flit is stamped later than `slot`. Adds
        /// each queued flit to `bound_for[its destination]`.
        pub(crate) fn check_invariants(&self, slot: u64, bound_for: &mut [u32]) {
            let mut busy = Vec::new();
            for port in 0..self.peers.len() {
                let lanes = self.port_lanes(port);
                for lane in lanes {
                    assert!(lane.len() <= self.capacity, "lane over capacity");
                    for rf in lane {
                        assert!(u64::from(rf.staged_at) <= slot, "stamped in the future");
                        bound_for[rf.dst] += 1;
                    }
                }
                if lanes.iter().any(|lane| !lane.is_empty()) {
                    busy.push(port);
                }
            }
            assert_eq!(self.active.members(), busy, "active ports");
        }
    }

    #[test]
    fn port_set_tracks_members_across_word_boundaries() {
        for capacity in [63, 64, 65] {
            let mut set = PortSet::new(capacity);
            assert_eq!(set.words(), capacity.div_ceil(64));
            assert!(set.is_empty() && set.members().is_empty());
            // Insertion order does not matter, and inserting twice is once.
            let last = capacity - 1;
            for i in [last, 0, 31, last, 0] {
                set.insert(i);
            }
            assert_eq!(set.members(), [0, 31, last], "capacity {capacity}");
            assert!(!set.is_empty());
            // Removing an absent member changes nothing; removing twice is once.
            set.remove(5);
            set.remove(31);
            set.remove(31);
            assert_eq!(set.members(), [0, last]);
            set.remove(0);
            assert!(!set.is_empty(), "the last word still holds {last}");
            set.remove(last);
            assert!(set.is_empty() && set.members().is_empty());
        }
    }

    #[test]
    fn a_snapshot_is_not_disturbed_by_changes_to_the_set() {
        let mut set = PortSet::new(130);
        for i in [3, 64, 70, 129] {
            set.insert(i);
        }
        let word1 = set.snapshot(1);
        set.remove(64);
        set.insert(100);
        assert_eq!(word1.collect::<Vec<_>>(), [64, 70]);
        assert_eq!(set.members(), [3, 70, 100, 129]);
    }

    /// A protocol flit bound for endpoint `dst`, in deferred form.
    fn flit(dst: usize) -> RoutedFlit {
        RoutedFlit {
            payload: FlitPayload::Clean {
                flit: FlitRef::new(Flit256::idle()),
                seq: 0,
            },
            dst,
            staged_at: 0,
            protocol: true,
            retransmission: false,
            crossed: 0,
        }
    }

    /// One switch driven on its own, with no engine around it: output port 0
    /// has two VC lanes holding flits under credit and sends one flit per
    /// slot.
    #[test]
    fn a_port_serves_its_two_lanes_round_robin_under_credit() {
        let config = SwitchConfig {
            ports: 2,
            internal_error: InternalErrorModel::none(),
            crc_mode: LinkCrcMode::Passthrough,
        };
        let mut sw = SwitchActor::new(0, config, 2, 2, Vec::new());
        // Slot 1: flits 10 and 12 fill VC 0's two credits, 11 enters VC 1.
        for (dst, vc) in [(10, 0), (11, 1), (12, 0)] {
            assert!(sw.has_credit(0, vc));
            sw.push(0, vc, flit(dst), 1);
        }
        assert!(!sw.has_credit(0, 0), "VC 0 is out of credit");
        assert!(sw.has_credit(0, 1));
        assert_eq!(sw.active.members(), [0]);
        // A head that entered in this slot reads as absent.
        assert!((0..2).all(|k| sw.head(0, k, 1).1.is_none()));

        let mut granted = Vec::new();
        for slot in 2..=5 {
            let (vc, dst) = (0..2)
                .find_map(|k| {
                    let (vc, head) = sw.head(0, k, slot);
                    head.map(|rf| (vc, rf.dst))
                })
                .expect("a head is waiting");
            assert_eq!(sw.pop(0, vc).dst, dst);
            assert!(sw.has_credit(0, vc), "the pop returned the credit");
            granted.push((vc, dst));
            if slot == 2 {
                // Entered in slot 2, behind 11: served after VC 0's turn.
                sw.push(0, 1, flit(13), slot);
            }
            let mut bound_for = [0; 14];
            sw.check_invariants(slot, &mut bound_for);
            let queued: u32 = bound_for.iter().sum();
            assert_eq!(queued as usize, 3 - (slot - 2) as usize);
            assert_eq!(sw.active.is_empty(), queued == 0, "slot {slot}");
        }
        // Each grant moved the arbiter one past the winner, so the lanes
        // alternate, and the port left `active` with its last flit.
        assert_eq!(granted, [(0, 10), (1, 11), (0, 12), (1, 13)]);
        assert!(sw.active.is_empty());
    }

    /// Leaf 0 of `leaf_spine(2, 3, 1)` on its own, adaptive at 3 VCs with
    /// lanes 2 flits deep. Its uplinks, ports 2, 3 and 4, are the candidate
    /// ports towards endpoint 3 (the device on leaf 1), and port 2 is the
    /// escape route. VCs 0 and 1 are the escape lanes, VC 2 the adaptive one.
    #[test]
    fn adaptive_plan_prefers_the_emptiest_port_and_falls_back_to_escape() {
        let t = FabricTopology::leaf_spine(2, 3, 1);
        let routes = RoutingTable::new(&t);
        let config = SwitchConfig::simple(t.switches[0].ports);
        let pins = vec![NO_PIN; t.endpoints.len()];
        let mut sw = SwitchActor::new(0, config, 3, 2, pins);
        for (id, ep) in t.endpoints.iter().enumerate() {
            if ep.switch == 0 {
                sw.peers[ep.port] = PortPeer::Endpoint(id);
            }
        }
        for (trunk, link) in t.trunks.iter().enumerate() {
            for (near, far) in [(link.a, link.b), (link.b, link.a)] {
                if near.0 == 0 {
                    sw.peers[near.1] = PortPeer::Trunk {
                        switch: far.0,
                        trunk,
                        dim: 0,
                        dateline: 0,
                    };
                }
            }
        }
        let dst = 3;
        assert_eq!(routes.candidates(0, dst), [2, 3, 4]);
        assert_eq!(routes.egress(0, dst), 2);
        let plan = |sw: &SwitchActor, others| sw.plan(&routes, dst, 0, others);
        let lane = |egress, vc| HopPlan::Lane { egress, vc };

        // Empty ports tie at 0; the lowest port wins.
        assert_eq!(plan(&sw, 0), lane(2, 2));
        // A flit in port 2's escape lane counts: ports 3 and 4 now tie.
        sw.push(2, 0, flit(dst), 1);
        assert_eq!(plan(&sw, 0), lane(3, 2));

        // Port 3 is the emptiest (2 flits) but its adaptive lane is full;
        // ports 2 and 4 hold 3 flits each, and port 2 wins the tie.
        sw.push(2, 1, flit(dst), 1);
        sw.push(2, 1, flit(dst), 1);
        for (port, vc) in [(3, 2), (3, 2), (4, 0), (4, 0), (4, 1)] {
            sw.push(port, vc, flit(dst), 1);
        }
        assert!(!sw.has_credit(3, 2));
        assert_eq!(plan(&sw, 0), lane(2, 2));

        // A pin binds while other flits of the stream are in flight, and is
        // ignored once the stream is idle.
        sw.pins[dst] = 4;
        assert_eq!(plan(&sw, 1), lane(4, 2));
        assert_eq!(plan(&sw, 0), lane(2, 2));
        // Pinned to port 3, whose adaptive lane is full: the escape lane.
        sw.pins[dst] = 3;
        assert_eq!(plan(&sw, 1), lane(2, 0));

        // Every adaptive lane full: the escape lane, then nothing.
        for port in [2, 4] {
            sw.push(port, 2, flit(dst), 1);
            sw.push(port, 2, flit(dst), 1);
        }
        assert_eq!(plan(&sw, 0), lane(2, 0));
        sw.push(2, 0, flit(dst), 1);
        assert_eq!(plan(&sw, 0), HopPlan::Blocked);
        let mut bound_for = vec![0; t.endpoints.len()];
        sw.check_invariants(1, &mut bound_for);
        assert_eq!(bound_for[dst], 13);
    }
}
