//! Zero-cost engine instrumentation: the [`Probe`] seam.
//!
//! A [`Probe`] is threaded through [`FabricSim`](crate::FabricSim) as a
//! monomorphized type parameter and receives structured lifecycle events
//! from the engine's hot loop: message injection and delivery,
//! retransmissions, NACKs, credit stalls, VC-occupancy samples, channel
//! errors, fault-injection blackholes, switch failures/drains and scenario
//! epoch boundaries. Consumers live in `rxl-telemetry` (windowed SLO
//! metrics, burn-rate accounting, incident traces); the seam itself is
//! deliberately dependency-free so the engine stays at the bottom of the
//! crate graph.
//!
//! # Zero cost when disabled
//!
//! The default probe, [`NullProbe`], sets [`Probe::ENABLED`] to `false`.
//! Every emission site in the engine is guarded by `if P::ENABLED { … }`
//! with a *constant* condition, so for `FabricSim<NullProbe>` (what
//! [`FabricSim::new`](crate::FabricSim::new) builds) the event payloads are
//! never even constructed — the whole instrumentation layer compiles to
//! nothing. `tests/fabric_golden_digest.rs` pins that the disabled path is
//! bit-identical to the pre-probe engine.
//!
//! # The RNG-draw-order contract
//!
//! The engine's Monte-Carlo reproducibility rests on a fixed RNG draw order
//! (see the [`FabricSim`](crate::FabricSim) type-level docs). Probes are
//! part of that contract: **a probe never touches the trial RNG**. The seam
//! enforces this structurally — no [`Probe`] method receives an RNG, a
//! `FabricSim`, or any handle through which a draw could happen; probes see
//! immutable event data and their own state, nothing else. A probe may not
//! influence the trial in any way: the engine ignores probe state
//! everywhere, so an enabled probe observes a byte-for-byte identical trial
//! to a disabled one (pinned by `tests/telemetry_neutrality.rs`).
//!
//! Implementations should also stay allocation-light: events fire from the
//! per-slot hot loop, so an enabled probe's cost is whatever its handlers
//! do. [`CountingProbe`] (a few integer increments per event) is the
//! reference for "cheap but enabled".
//!
//! # Spans
//!
//! A message's [`InjectEvent`] opens its span and its first [`DeliverEvent`]
//! closes it. Every consumer that pairs the two — latency, SLO windows,
//! request completion, incident traces — does so through one [`SpanJoin`],
//! indexed by the events' `(dst, tag)` and verified by [`message_key`].

use rxl_flit::Message;
use rxl_transport::DeliveryVerdict;

/// One message entering the fabric: the span-opening event of a message's
/// inject → deliver lifecycle. Greedy workloads inject everything at slot 0;
/// paced workloads inject at each message's arrival slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InjectEvent {
    /// Slot at which the message became transmittable.
    pub slot: u64,
    /// Session the message belongs to.
    pub session: usize,
    /// Transmitting endpoint index.
    pub src: usize,
    /// Destination endpoint index.
    pub dst: usize,
    /// `true` for host → device traffic.
    pub downstream: bool,
    /// Message identity within its destination (see [`message_key`]): what
    /// a [`SpanJoin`] checks before it pairs this event with a delivery.
    pub key: u64,
    /// The message's position in its destination's stream: generators tag
    /// message `i` of a stream `i as u16`, and each destination receives one
    /// stream, so `(dst, tag)` is the dense index of a [`SpanJoin`].
    pub tag: u16,
}

/// One message delivered to its destination endpoint: the span-closing
/// event. `slot − inject.slot` is the message's injection→delivery latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliverEvent {
    /// Delivery slot.
    pub slot: u64,
    /// Session the message belongs to.
    pub session: usize,
    /// Transmitting endpoint index (the destination's session peer).
    pub src: usize,
    /// Destination endpoint index.
    pub dst: usize,
    /// `true` for host → device traffic.
    pub downstream: bool,
    /// Message identity within `dst` (pairs with [`InjectEvent::key`]).
    pub key: u64,
    /// The message's tag (pairs with [`InjectEvent::tag`]).
    pub tag: u16,
    /// The ground-truth auditor's verdict for this delivery.
    pub verdict: DeliveryVerdict,
}

/// Identity of a message in probe events: the `(cqid, tag, kind, chunk)`
/// quadruple the delivery auditor keys on, packed into one u64 and
/// splitmix64-finalized (bijective, so distinct quadruples keep distinct
/// keys). It is unique only *within a destination endpoint* — sessions reuse
/// cqid/tag spaces — and serves as the verifier of a [`SpanJoin`] slot,
/// never as an index on its own.
#[inline]
pub fn message_key(msg: &Message) -> u64 {
    let (kind, chunk) = match msg {
        Message::Request { .. } => (0u64, 0u64),
        Message::Response { .. } => (1, 0),
        Message::DataHeader { .. } => (2, 0),
        Message::Data { chunk_idx, .. } => (3, *chunk_idx as u64),
    };
    rxl_transport::mix64(
        ((msg.cqid() as u64) << 32) | ((msg.tag() as u64) << 16) | (kind << 8) | chunk,
    )
}

/// The inject → deliver span join: pairs each message's [`InjectEvent`]
/// with its first [`DeliverEvent`], carrying a payload `T` (an inject slot,
/// an owning request) from one to the other.
///
/// Within one destination a message's position in its stream *is* its
/// identity, so the join is one `Vec` lane per destination endpoint:
///
/// * **tag = index** — the dense per-stream ordinal; no hashing.
/// * **key = verifier** — an event matches only a slot opened for its key,
///   so foreign traffic and out-of-range `(dst, tag)` pairs match nothing.
/// * **first delivery wins** — [`Self::close`] retires the slot, so a
///   duplicate delivery matches nothing.
///
/// The index is exact for every workload the engine runs: each destination
/// receives one stream (the engine rejects an endpoint claimed by two
/// sessions), generators tag message `i` as `i as u16`, and the delivery
/// auditor refuses streams longer than 65 536 messages. There a `SpanJoin`
/// answers what a map keyed on `(dst, key)` would (a differential property
/// test pins it). Cost: one indexed load per event and [`Self::SLOT_BYTES`]
/// per slot up to the destination's highest tag.
#[derive(Clone, Debug)]
pub struct SpanJoin<T> {
    lanes: Vec<Vec<SpanSlot<T>>>,
    live: usize,
}

#[derive(Clone, Copy, Debug)]
struct SpanSlot<T> {
    key: u64,
    payload: Option<T>,
}

impl<T> Default for SpanJoin<T> {
    fn default() -> Self {
        SpanJoin {
            lanes: Vec::new(),
            live: 0,
        }
    }
}

impl<T: Copy> SpanJoin<T> {
    /// Bytes one slot occupies: the key plus `Option<T>`.
    pub const SLOT_BYTES: usize = std::mem::size_of::<SpanSlot<T>>();

    /// Opens the span of message `key` at `(dst, tag)` with `payload`,
    /// growing the table to reach it. Returns the payload of the open span
    /// the slot held before, whatever its key.
    pub fn open(&mut self, dst: usize, tag: u16, key: u64, payload: T) -> Option<T> {
        if self.lanes.len() <= dst {
            self.lanes.resize_with(dst + 1, Vec::new);
        }
        let lane = &mut self.lanes[dst];
        let vacant = SpanSlot { key, payload: None };
        if lane.len() <= tag as usize {
            lane.resize(tag as usize + 1, vacant);
        }
        let slot = &mut lane[tag as usize];
        slot.key = key;
        let displaced = slot.payload.replace(payload);
        self.live += usize::from(displaced.is_none());
        displaced
    }

    /// The slot at `(dst, tag)`, if it was last opened for `key`.
    fn slot(&mut self, dst: usize, tag: u16, key: u64) -> Option<&mut SpanSlot<T>> {
        let slot = self.lanes.get_mut(dst)?.get_mut(tag as usize)?;
        (slot.key == key).then_some(slot)
    }

    /// The payload of the open span at `(dst, tag)`, if it was opened for
    /// `key`.
    pub fn get_mut(&mut self, dst: usize, tag: u16, key: u64) -> Option<&mut T> {
        self.slot(dst, tag, key)?.payload.as_mut()
    }

    /// Closes the open span at `(dst, tag)` if it was opened for `key`, and
    /// returns its payload. The slot is retired: closing it again matches
    /// nothing.
    pub fn close(&mut self, dst: usize, tag: u16, key: u64) -> Option<T> {
        let payload = self.slot(dst, tag, key)?.payload.take()?;
        self.live -= 1;
        Some(payload)
    }

    /// Spans opened and not yet closed.
    pub fn live(&self) -> usize {
        self.live
    }
}

/// A flit corrupted on a link and caught (or not) by a switch pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelErrorEvent {
    /// Slot of the traversal.
    pub slot: u64,
    /// Switch whose ingress pipeline observed the error.
    pub switch: usize,
    /// Dense [`LinkId::index`](crate::topology::LinkId::index) of the link
    /// the flit was corrupted on — spatial metrics attribute errors per
    /// physical link, not just per observing switch.
    pub link: usize,
    /// `true` if the flit was silently dropped as FEC-uncorrectable; `false`
    /// if the FEC corrected it and the flit was forwarded.
    pub dropped: bool,
    /// Symbols the ingress FEC corrected (0 on the uncorrectable path).
    pub corrected_symbols: usize,
}

/// Which kind of hop a link traversal was. Endpoint attachment links carry
/// [`LinkHop::Inject`] traffic in one direction and [`LinkHop::Deliver`]
/// traffic in the other; trunks only ever see [`LinkHop::Trunk`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkHop {
    /// An endpoint put the flit onto its attachment link towards its switch.
    Inject,
    /// A switch forwarded the flit over a trunk to the next switch.
    Trunk,
    /// A switch put the flit onto an attachment link towards its endpoint.
    Deliver,
}

/// One flit traversing one physical link — the utilization event. Fired
/// once per link crossing, *before* the receiving pipeline's verdict, so a
/// flit the switch then drops as uncorrectable still occupied the wire.
/// Blocked (credit-stalled) and blackholed flits never fire it: a stalled
/// flit traverses exactly once, on the slot it finally moves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkTraversalEvent {
    /// Slot of the traversal.
    pub slot: u64,
    /// Dense [`LinkId::index`](crate::topology::LinkId::index) of the link.
    pub link: usize,
    /// Direction/kind of the crossing.
    pub hop: LinkHop,
    /// `true` for protocol (payload-bearing) flits, `false` for standalone
    /// control flits (ACK/NACK).
    pub protocol: bool,
    /// `true` if this flit is a go-back-N replay retransmission.
    pub retransmission: bool,
}

/// The slot loop's phases, in execution order — the engine self-profiler's
/// accounting buckets (see [`Probe::on_phase`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnginePhase {
    /// Phase 0: paced-injection release of due arrivals.
    PacedRelease = 0,
    /// Phase 1: endpoint transmit opportunities (emission, replay, and the
    /// injection hop into the endpoint's switch: the injection link's
    /// channel pass and the switch pipeline).
    EndpointTx = 1,
    /// Phase 2: switch output-port forwarding — trunk hops *and* endpoint
    /// deliveries (delivery happens inside this phase's port scan).
    SwitchForward = 2,
    /// The slot epilogue: the quiescence check and the stall guard, which no
    /// other phase accounts for. Named for the queue merge that once ended a
    /// slot; the perf ledger keys `fabric.phase_stage_merge_share` on the label.
    StageMerge = 3,
}

impl EnginePhase {
    /// Every phase, in execution order.
    pub const ALL: [EnginePhase; 4] = [
        EnginePhase::PacedRelease,
        EnginePhase::EndpointTx,
        EnginePhase::SwitchForward,
        EnginePhase::StageMerge,
    ];

    /// Dense index (0..4) for flat per-phase accumulators.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short human-readable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            EnginePhase::PacedRelease => "paced_release",
            EnginePhase::EndpointTx => "endpoint_tx",
            EnginePhase::SwitchForward => "switch_forward",
            EnginePhase::StageMerge => "stage_merge",
        }
    }
}

/// Structured lifecycle events emitted by the fabric engine.
///
/// Every method has an empty default body, so implementations override only
/// what they consume. See the [module docs](self) for the zero-cost
/// guarantee and the RNG-draw-order contract.
pub trait Probe {
    /// `false` compiles every emission site to nothing ([`NullProbe`]).
    /// Keep `true` (the default) for any probe that observes events.
    const ENABLED: bool = true;

    /// Opt-in for the engine self-profiler: when `true` (and
    /// [`Probe::ENABLED`]), the slot loop reads a monotonic clock around
    /// each [`EnginePhase`] and reports the elapsed nanoseconds via
    /// [`Probe::on_phase`]. The guard is `P::ENABLED && P::PROFILE`, a
    /// *constant* condition, so the default `false` compiles the timers
    /// away entirely — an enabled-but-unprofiled probe (e.g. an SLO probe)
    /// pays nothing for them, and `NullProbe` builds stay bit- and
    /// instruction-identical. Wall-clock readings never feed back into the
    /// simulation (they flow only into the probe), so profiled trials
    /// remain bit-identical to unprofiled ones — but the *timings
    /// themselves* are wall-clock and therefore not reproducible; keep them
    /// out of any exact-merge aggregate.
    const PROFILE: bool = false;

    /// A message became transmittable at its source endpoint.
    fn on_inject(&mut self, _ev: InjectEvent) {}

    /// A message was delivered (with the auditor's verdict).
    fn on_deliver(&mut self, _ev: DeliverEvent) {}

    /// A delivery was classified as an undetected-drop (`Fail_order`) event
    /// — the paper's silent-failure channel, fired at most once per drop
    /// episode, immediately after the deliveries of the flit that exposed
    /// it.
    fn on_fail_order(&mut self, _slot: u64, _session: usize, _dst: usize) {}

    /// An endpoint put a retransmission (go-back-N replay) on the wire.
    fn on_retransmit(&mut self, _slot: u64, _endpoint: usize, _session: usize) {}

    /// An endpoint put a NACK / retry-request control flit on the wire.
    fn on_nack(&mut self, _slot: u64, _endpoint: usize, _session: usize) {}

    /// A sender held a flit for lack of downstream credit this slot.
    ///
    /// `port` names the output port of `switch` the stall is charged to —
    /// the port facing the congested link: for switch-to-switch holds the
    /// holding output port whose head flit(s) could not move, for an
    /// endpoint injection stalled at switch ingress the *planned escape
    /// egress* whose lanes were out of credit. The engine always passes
    /// `Some` for both cases; `None` is reserved for stalls no port can be
    /// named for. `vc` is the blocked VC lane at that port: the first
    /// blocked head's lane (in arbiter scan order) for transit holds, the
    /// escape lane the injection would have ridden for ingress stalls.
    fn on_credit_stall(
        &mut self,
        _slot: u64,
        _switch: usize,
        _port: Option<usize>,
        _vc: Option<usize>,
    ) {
    }

    /// A flit traversed a physical link (see [`LinkTraversalEvent`]). This
    /// is the spatial-utilization event: per-link heatmaps, utilization and
    /// retransmit counters all derive from it. Fired from the per-flit hot
    /// path — keep handlers to a few integer operations.
    fn on_link_traversal(&mut self, _ev: LinkTraversalEvent) {}

    /// The slot loop finished `phase`, which took `nanos` wall-clock
    /// nanoseconds this slot. Only fired when `Self::PROFILE` (and
    /// `Self::ENABLED`) is `true` — see the [`Probe::PROFILE`] contract.
    fn on_phase(&mut self, _phase: EnginePhase, _nanos: u64) {}

    /// A flit was buffered into VC `vc` of output port `(switch, port)`;
    /// `occupancy` is that lane's queue depth after the arrival. Fired on
    /// every hop, so probes can down-sample as coarsely as they like.
    fn on_vc_occupancy(
        &mut self,
        _slot: u64,
        _switch: usize,
        _port: usize,
        _vc: usize,
        _occupancy: usize,
    ) {
    }

    /// A switch ingress pipeline observed a corrupted flit (corrected or
    /// silently dropped).
    fn on_channel_error(&mut self, _ev: ChannelErrorEvent) {}

    /// A flit was destroyed by fault injection in transit (dead switch or
    /// no surviving route). `switch` is the switch the flit vanished at —
    /// the dead switch it was entering, or the switch that swallowed it for
    /// want of a surviving route. Queue purges at failure time are reported
    /// via [`Probe::on_switch_fail`] instead.
    fn on_blackhole(&mut self, _slot: u64, _switch: usize) {}

    /// A switch failed hard, purging `purged_flits` queued flits.
    fn on_switch_fail(&mut self, _slot: u64, _switch: usize, _purged_flits: u64) {}

    /// A switch was drained from transit eligibility.
    fn on_switch_drain(&mut self, _slot: u64, _switch: usize) {}

    /// A scenario epoch boundary was applied at `slot` (fired by the
    /// `rxl-chaos` runner, not the engine itself; `epoch` indexes the epoch
    /// that *starts* here).
    fn on_epoch(&mut self, _slot: u64, _epoch: usize) {}
}

/// The disabled probe: no state, no events, no cost. The engine's default —
/// [`FabricSim::new`](crate::FabricSim::new) builds a
/// `FabricSim<NullProbe>`, which is bit-identical *and* instruction-
/// identical to the pre-probe engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {
    const ENABLED: bool = false;
}

/// Two probes riding one trial: every event is forwarded to `A` first,
/// then `B`. Composition preserves the seam's contract — neither half can
/// perturb the trial, so a `(RequestProbe, MetricsProbe)` pair observes the
/// same byte-identical run either probe would alone. The constants fold:
/// a pair is enabled (profiled) iff either half is, so pairing with
/// [`NullProbe`] costs nothing extra at the emission sites.
impl<A: Probe, B: Probe> Probe for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;
    const PROFILE: bool = A::PROFILE || B::PROFILE;

    fn on_inject(&mut self, ev: InjectEvent) {
        self.0.on_inject(ev);
        self.1.on_inject(ev);
    }
    fn on_deliver(&mut self, ev: DeliverEvent) {
        self.0.on_deliver(ev);
        self.1.on_deliver(ev);
    }
    fn on_fail_order(&mut self, slot: u64, session: usize, dst: usize) {
        self.0.on_fail_order(slot, session, dst);
        self.1.on_fail_order(slot, session, dst);
    }
    fn on_retransmit(&mut self, slot: u64, endpoint: usize, session: usize) {
        self.0.on_retransmit(slot, endpoint, session);
        self.1.on_retransmit(slot, endpoint, session);
    }
    fn on_nack(&mut self, slot: u64, endpoint: usize, session: usize) {
        self.0.on_nack(slot, endpoint, session);
        self.1.on_nack(slot, endpoint, session);
    }
    fn on_credit_stall(
        &mut self,
        slot: u64,
        switch: usize,
        port: Option<usize>,
        vc: Option<usize>,
    ) {
        self.0.on_credit_stall(slot, switch, port, vc);
        self.1.on_credit_stall(slot, switch, port, vc);
    }
    fn on_link_traversal(&mut self, ev: LinkTraversalEvent) {
        self.0.on_link_traversal(ev);
        self.1.on_link_traversal(ev);
    }
    fn on_phase(&mut self, phase: EnginePhase, nanos: u64) {
        self.0.on_phase(phase, nanos);
        self.1.on_phase(phase, nanos);
    }
    fn on_vc_occupancy(&mut self, slot: u64, switch: usize, port: usize, vc: usize, occ: usize) {
        self.0.on_vc_occupancy(slot, switch, port, vc, occ);
        self.1.on_vc_occupancy(slot, switch, port, vc, occ);
    }
    fn on_channel_error(&mut self, ev: ChannelErrorEvent) {
        self.0.on_channel_error(ev);
        self.1.on_channel_error(ev);
    }
    fn on_blackhole(&mut self, slot: u64, switch: usize) {
        self.0.on_blackhole(slot, switch);
        self.1.on_blackhole(slot, switch);
    }
    fn on_switch_fail(&mut self, slot: u64, switch: usize, purged_flits: u64) {
        self.0.on_switch_fail(slot, switch, purged_flits);
        self.1.on_switch_fail(slot, switch, purged_flits);
    }
    fn on_switch_drain(&mut self, slot: u64, switch: usize) {
        self.0.on_switch_drain(slot, switch);
        self.1.on_switch_drain(slot, switch);
    }
    fn on_epoch(&mut self, slot: u64, epoch: usize) {
        self.0.on_epoch(slot, epoch);
        self.1.on_epoch(slot, epoch);
    }
}

/// A minimal enabled probe: one counter per event class. Used by the
/// neutrality regression (an enabled probe must not change any trial
/// outcome) and as an independent event count beside other probes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountingProbe {
    /// Messages injected.
    pub injects: u64,
    /// Messages delivered.
    pub delivers: u64,
    /// `Fail_order` classifications.
    pub fail_orders: u64,
    /// Retransmission emissions.
    pub retransmits: u64,
    /// NACK emissions.
    pub nacks: u64,
    /// Credit-stall observations.
    pub credit_stalls: u64,
    /// Link traversals (one per physical link crossing).
    pub link_traversals: u64,
    /// VC-occupancy samples (one per buffered hop).
    pub vc_samples: u64,
    /// Peak lane occupancy seen by any VC sample.
    pub peak_occupancy: usize,
    /// Channel-error observations (corrected + dropped).
    pub channel_errors: u64,
    /// In-transit fault-injection blackholes.
    pub blackholes: u64,
    /// Switch failures.
    pub switch_fails: u64,
    /// Switch drains/restores.
    pub switch_drains: u64,
    /// Epoch boundaries.
    pub epochs: u64,
}

impl Probe for CountingProbe {
    fn on_inject(&mut self, _ev: InjectEvent) {
        self.injects += 1;
    }
    fn on_deliver(&mut self, _ev: DeliverEvent) {
        self.delivers += 1;
    }
    fn on_fail_order(&mut self, _slot: u64, _session: usize, _dst: usize) {
        self.fail_orders += 1;
    }
    fn on_retransmit(&mut self, _slot: u64, _endpoint: usize, _session: usize) {
        self.retransmits += 1;
    }
    fn on_nack(&mut self, _slot: u64, _endpoint: usize, _session: usize) {
        self.nacks += 1;
    }
    fn on_credit_stall(
        &mut self,
        _slot: u64,
        _switch: usize,
        _port: Option<usize>,
        _vc: Option<usize>,
    ) {
        self.credit_stalls += 1;
    }
    fn on_link_traversal(&mut self, _ev: LinkTraversalEvent) {
        self.link_traversals += 1;
    }
    fn on_vc_occupancy(
        &mut self,
        _slot: u64,
        _switch: usize,
        _port: usize,
        _vc: usize,
        occupancy: usize,
    ) {
        self.vc_samples += 1;
        self.peak_occupancy = self.peak_occupancy.max(occupancy);
    }
    fn on_channel_error(&mut self, _ev: ChannelErrorEvent) {
        self.channel_errors += 1;
    }
    fn on_blackhole(&mut self, _slot: u64, _switch: usize) {
        self.blackholes += 1;
    }
    fn on_switch_fail(&mut self, _slot: u64, _switch: usize, _purged_flits: u64) {
        self.switch_fails += 1;
    }
    fn on_switch_drain(&mut self, _slot: u64, _switch: usize) {
        self.switch_drains += 1;
    }
    fn on_epoch(&mut self, _slot: u64, _epoch: usize) {
        self.epochs += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The key the engine would give message `tag` of `dst`'s stream.
    fn key_of(dst: usize, tag: u16) -> u64 {
        rxl_transport::mix64(((dst as u64) << 16) | tag as u64)
    }

    #[test]
    fn same_key_different_destination_stays_distinct() {
        let mut join = SpanJoin::default();
        join.open(3, 0, 7, 1u64);
        join.open(4, 0, 7, 2u64);
        assert_eq!(join.close(4, 0, 7), Some(2));
        assert_eq!(join.live(), 1);
        assert_eq!(join.close(3, 0, 7), Some(1));
    }

    /// The hashed join `SpanJoin` replaced, as the reference: `(dst, key)` →
    /// payload, removed on the first delivery.
    type Reference = HashMap<(usize, u64), u32>;

    /// Destinations and tags the property opens spans at.
    const DSTS: usize = 4;
    const TAGS: u16 = 48;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A `SpanJoin` answers every operation exactly as the hashed
        /// reference does: opens (re-opens included), first and duplicate
        /// deliveries, a foreign key at a live tag, a tag past the lane and
        /// a destination past the table.
        #[test]
        fn span_join_matches_the_hashed_reference(
            ops in proptest::collection::vec(
                (0u8..7, 0usize..DSTS, 0u16..TAGS, any::<u32>()),
                0..200,
            ),
        ) {
            let mut join = SpanJoin::default();
            let mut reference = Reference::new();
            let mut opened: Vec<(usize, u16)> = Vec::new();
            for (kind, dst, tag, payload) in ops {
                // An already opened span, when there is one.
                let (od, ot) = opened
                    .get(payload as usize % opened.len().max(1))
                    .copied()
                    .unwrap_or((dst, tag));
                let (d, t, key, open) = match kind {
                    0 | 1 => (dst, tag, key_of(dst, tag), true),
                    // A first or a duplicate delivery.
                    2 | 3 => (od, ot, key_of(od, ot), false),
                    // Foreign traffic at a live tag.
                    4 => (od, ot, key_of(od, ot) ^ 1, false),
                    // A tag past every lane.
                    5 => (dst, TAGS + tag, key_of(dst, TAGS + tag), false),
                    // A destination past the table.
                    _ => (DSTS + dst, tag, key_of(DSTS + dst, tag), false),
                };
                if open {
                    opened.push((d, t));
                    prop_assert_eq!(
                        join.open(d, t, key, payload),
                        reference.insert((d, key), payload)
                    );
                } else {
                    prop_assert_eq!(
                        join.get_mut(d, t, key).copied(),
                        reference.get(&(d, key)).copied()
                    );
                    prop_assert_eq!(join.close(d, t, key), reference.remove(&(d, key)));
                }
                prop_assert_eq!(join.live(), reference.len());
            }
        }
    }
}
