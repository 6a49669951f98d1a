//! The two actors of a fabric trial: a [`SwitchNode`] owns one switch's
//! pipeline, output lanes, credit ledgers and arbiters, an [`EndpointNode`]
//! one endpoint's link state machine, injector and auditor. The engine's slot
//! loop drives them; what must stay in step within a node is kept so here.

use std::collections::VecDeque;

use rxl_link::{LinkConfig, LinkEndpoint};
use rxl_switch::{Switch, SwitchConfig, VcArbiter, VcCredits};
use rxl_transport::DeliveryAuditor;

use crate::engine::RoutedFlit;
use crate::injector::Injector;
use crate::topology::NodeRole;

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

/// Sentinel for a [`SwitchNode::pins`] entry no flit has set yet.
pub(crate) const NO_PIN: u32 = u32::MAX;

/// One switching device of a trial: the `rxl-switch` forwarding pipeline
/// plus the bounded output lanes of its ports.
pub(crate) struct SwitchNode {
    pub(crate) switch: Switch,
    /// `lanes[port * vcc + vc]`: flits awaiting transmission on virtual
    /// channel `vc` of that port, oldest first. With `vc_count == 1` the
    /// lane index degenerates to the port index — the pre-VC layout.
    lanes: Vec<VecDeque<RoutedFlit>>,
    /// Per-port VC credit ledgers — the occupancy count over `lanes` that
    /// senders check, and the congestion signal the adaptive egress choice
    /// compares.
    credits: Vec<VcCredits>,
    /// Per-port round-robin VC output arbiters.
    arb: Vec<VcArbiter>,
    pub(crate) peers: Vec<PortPeer>,
    /// Ports with a flit in any lane (the bits stay port-granular; lanes
    /// share their port's bit).
    pub(crate) active: PortSet,
    /// `pins[dst]`: the egress port the last flit bound for `dst` took out
    /// of this switch ([`NO_PIN`] before any did). Recorded on every
    /// forwarded hop; a flit is free to *deviate* from the pin (and
    /// re-choose by occupancy) only when [`EndpointNode::in_flight`] says
    /// the destination's stream is otherwise idle. Empty unless
    /// `config.adaptive`.
    pub(crate) pins: Vec<u32>,
    vcc: usize,
}

impl SwitchNode {
    /// A switch with `config.ports` unconnected ports of `vcc` empty lanes,
    /// each `config.queue_capacity` flits deep.
    pub(crate) fn new(config: SwitchConfig, vcc: usize, pins: Vec<u32>) -> Self {
        let ports = config.ports;
        SwitchNode {
            lanes: (0..ports * vcc).map(|_| VecDeque::new()).collect(),
            credits: vec![VcCredits::new(vcc, config.queue_capacity); ports],
            arb: vec![VcArbiter::new(); ports],
            peers: vec![PortPeer::Unconnected; ports],
            active: PortSet::new(ports),
            switch: Switch::new(config),
            pins,
            vcc,
        }
    }

    /// Free credit on VC `vc` of output port `port`.
    #[inline]
    pub(crate) fn has_credit(&self, port: usize, vc: usize) -> bool {
        debug_assert_eq!(
            self.credits[port].occupancy(vc),
            self.lanes[port * self.vcc + vc].len(),
            "credit ledger must mirror the lane"
        );
        self.credits[port].has_credit(vc)
    }

    /// The occupancy ledger of `port`'s lanes.
    #[inline]
    pub(crate) fn credits(&self, port: usize) -> &VcCredits {
        &self.credits[port]
    }

    /// Buffers `rf` in lane `(port, vc)`, stamped as having entered it in
    /// `slot`.
    #[inline]
    pub(crate) fn push(&mut self, port: usize, vc: usize, mut rf: RoutedFlit, slot: u64) {
        rf.staged_at = slot as u32;
        self.lanes[port * self.vcc + vc].push_back(rf);
        self.credits[port].occupy(vc);
        self.active.insert(port);
    }

    /// The `k`-th VC in `port`'s arbitration order and the flit its lane may
    /// transmit in `slot`: the lane's head, unless that entered the lane in
    /// this very slot — a flit crosses at most one switch per slot. Lanes are
    /// FIFO, so a fresh head means every flit behind it is fresh too and the
    /// lane reads as empty.
    #[inline]
    pub(crate) fn head(&self, port: usize, k: usize, slot: u64) -> (usize, Option<&RoutedFlit>) {
        let vc = self.arb[port].pick(k, self.vcc);
        let head = self.lanes[port * self.vcc + vc].front();
        (vc, head.filter(|rf| rf.staged_at != slot as u32))
    }

    /// Takes the head of lane `(port, vc)`, returning its credit and moving
    /// the port's arbiter one past `vc`.
    #[inline]
    pub(crate) fn pop(&mut self, port: usize, vc: usize) -> RoutedFlit {
        let lanes = &mut self.lanes[port * self.vcc..][..self.vcc];
        let rf = lanes[vc].pop_front().expect("pop follows head");
        self.credits[port].release(vc);
        self.arb[port].grant(vc, self.vcc);
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
        self.credits.iter_mut().for_each(VcCredits::purge);
        self.active = PortSet::new(self.peers.len());
    }
}

/// One endpoint of a trial: its `rxl-link` state machine and what the trial
/// tracks about it.
pub(crate) struct EndpointNode {
    pub(crate) link: LinkEndpoint,
    /// Feeds the transmitter from the session's shared stream (empty until
    /// `begin`).
    pub(crate) injector: Injector,
    /// One-flit stall register (credit backpressure).
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

impl EndpointNode {
    /// The idle, session-less endpoint `ep` describes.
    pub(crate) fn new(link: LinkConfig, ep: &crate::topology::EndpointNode) -> Self {
        EndpointNode {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PortSet {
        /// Every member, ascending.
        pub(crate) fn members(&self) -> Vec<usize> {
            (0..self.words()).flat_map(|wi| self.snapshot(wi)).collect()
        }
    }

    impl SwitchNode {
        /// Panics unless, at the end of slot `slot`, every lane is as long
        /// as its credit ledger says, `active` holds exactly the ports with
        /// a non-empty lane, and no flit is stamped later than `slot`. Adds
        /// each queued flit to `bound_for[its destination]`.
        pub(crate) fn check_invariants(&self, slot: u64, bound_for: &mut [u32]) {
            let mut busy = Vec::new();
            for port in 0..self.peers.len() {
                let lanes = &self.lanes[port * self.vcc..][..self.vcc];
                for (vc, lane) in lanes.iter().enumerate() {
                    assert_eq!(lane.len(), self.credits[port].occupancy(vc), "ledger");
                    for rf in lane {
                        assert!(u64::from(rf.staged_at) <= slot, "stamped in the future");
                        bound_for[rf.dst] += 1;
                    }
                }
                let queued: usize = lanes.iter().map(VecDeque::len).sum();
                assert_eq!(queued, self.credits[port].total_occupancy(), "ledger total");
                if queued > 0 {
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
}
