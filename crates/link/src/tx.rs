//! The transmit side of one link direction.
//!
//! [`LinkTx`] turns a stream of transaction messages into wire flits, retains
//! transmitted flits in a replay buffer until they are acknowledged, and
//! services retransmission requests (go-back-N NACKs and watchdog timeouts).
//! ACK piggybacking and NACK emission on behalf of the co-located receiver are
//! also handled here, because they compete for the same transmit slots.

use std::collections::VecDeque;
use std::rc::Rc;

use rxl_flit::{encode_slot, Flit256, FlitHeader, Message, WireFlit, MESSAGES_PER_FLIT, SLOT_LEN};

use crate::retry::ReplayBuffer;
use crate::seq::{seq_add, seq_next};
use crate::stats::LinkStats;
use crate::variant::{LinkCodec, LinkConfig, ProtocolVariant};

/// A shared handle to one *logical* flit — the unit of ownership from first
/// emission to delivery.
///
/// ISN binds the sequence number in the CRC and spends no header bytes on
/// it, so the logical flit is the same object on its first transmission and
/// on every go-back-N replay. The simulator mirrors that: [`LinkTx::emit`]
/// writes a flit exactly once, and from then on only handles move.
///
/// # Ownership contract
///
/// * **A flit is never mutated after `emit` returns it**; every holder sees
///   the same immutable [`Flit256`].
/// * The **replay buffer** holds one handle per unacknowledged protocol flit,
///   from `emit` until the cumulative ACK (or a NACK's implied ACK) covers it.
/// * The **retransmit queue** holds a *snapshot* of handles taken when a
///   NACK or the watchdog fires; a flit acknowledged after that snapshot is
///   still retransmitted (the receiver discards it as a duplicate).
/// * Each [`TxEmission`] carries one handle, which the caller keeps while the
///   flit is in flight (`rxl-fabric`: until the destination endpoint has
///   received it). A retransmitted emission is `Rc::ptr_eq` to the
///   replay-buffer entry it came from. Control flits are never retained, so
///   their emission holds the only handle.
/// * **Corruption never touches the shared flit**: a caller that must flip
///   bits materialises a private wire image ([`LinkTx::encode_emission`];
///   the fabric boxes it) and drops its handle.
///
/// One alias on purpose: nothing needs `Send` today (a trial builds and drops
/// its endpoints on one thread); intra-trial parallelism would flip this to
/// `Arc` here and nowhere else.
pub type FlitRef = Rc<Flit256>;

/// What the transmitter put on the wire for one transmit slot.
///
/// Emissions carry the *logical* flit plus the sequence number it is bound
/// to, not encoded wire bytes: a clean wire image is a pure function of
/// `(flit, bound_seq)`, so callers that only traverse clean links (the
/// fabric engine's skip-ahead fast path) never pay the FEC/CRC encode at
/// all. Callers that need real bytes — a lossy channel about to flip bits,
/// or a wire-level test — materialise them with
/// [`LinkTx::encode_emission`] (or [`crate::LinkEndpoint::encode_emission`]),
/// which is bit-identical to what the transmitter used to emit eagerly.
///
/// The flit is a [`FlitRef`]: cloning an emission or taking its flit with
/// [`Self::into_flit`] shares the handle, it never copies the flit (see the
/// ownership contract there).
#[derive(Clone, Debug)]
pub enum TxEmission {
    /// A protocol flit carrying payload (new or retransmitted).
    Protocol {
        /// The logical flit (encode with [`LinkTx::encode_emission`]).
        flit: FlitRef,
        /// The transport sequence number bound to this flit.
        seq: u16,
        /// `true` if this is a retransmission from the replay buffer.
        retransmission: bool,
    },
    /// A standalone acknowledgement flit (no payload).
    StandaloneAck {
        /// The logical control flit.
        flit: FlitRef,
        /// The acknowledged sequence number.
        ack: u16,
    },
    /// A NACK / retry-request control flit.
    Nack {
        /// The logical control flit.
        flit: FlitRef,
        /// The last correctly received sequence number.
        last_good: u16,
    },
    /// Nothing to send this slot.
    Idle,
}

impl TxEmission {
    /// The logical flit of this emission, if any.
    pub fn flit(&self) -> Option<&Flit256> {
        match self {
            TxEmission::Protocol { flit, .. }
            | TxEmission::StandaloneAck { flit, .. }
            | TxEmission::Nack { flit, .. } => Some(flit),
            TxEmission::Idle => None,
        }
    }

    /// Consumes the emission into its flit handle and [`Self::bound_seq`]
    /// (no copy, no reference-count traffic) — how a fabric takes a flit in
    /// flight. `None` for idle slots.
    pub fn into_flit(self) -> Option<(FlitRef, u16)> {
        match self {
            TxEmission::Protocol { flit, seq, .. } => Some((flit, seq)),
            TxEmission::StandaloneAck { flit, .. } | TxEmission::Nack { flit, .. } => {
                Some((flit, 0))
            }
            TxEmission::Idle => None,
        }
    }

    /// The sequence number the wire encoding is bound to: the transport
    /// sequence for protocol flits, 0 for control flits (which live outside
    /// the transport sequence space), `None` for idle slots.
    pub fn bound_seq(&self) -> Option<u16> {
        match self {
            TxEmission::Protocol { seq, .. } => Some(*seq),
            TxEmission::StandaloneAck { .. } | TxEmission::Nack { .. } => Some(0),
            TxEmission::Idle => None,
        }
    }

    /// `true` if nothing was emitted.
    pub fn is_idle(&self) -> bool {
        matches!(self, TxEmission::Idle)
    }
}

/// The transmit state machine for one link direction.
pub struct LinkTx {
    config: LinkConfig,
    codec: LinkCodec,
    next_seq: u16,
    replay: ReplayBuffer,
    pending_msgs: VecDeque<Message>,
    /// Snapshot of replay-buffer handles scheduled for retransmission.
    retransmit_queue: VecDeque<(u16, FlitRef)>,
    pending_ack: Option<u16>,
    pending_nack: Option<u16>,
    last_progress_ns: f64,
    stats: LinkStats,
}

impl LinkTx {
    /// Creates a transmitter with the given configuration.
    pub fn new(config: LinkConfig) -> Self {
        LinkTx {
            codec: LinkCodec::for_variant(config.variant),
            next_seq: 0,
            replay: ReplayBuffer::new(config.replay_capacity),
            pending_msgs: VecDeque::new(),
            retransmit_queue: VecDeque::new(),
            pending_ack: None,
            pending_nack: None,
            last_progress_ns: 0.0,
            stats: LinkStats::default(),
            config,
        }
    }

    /// The link configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Accumulated transmit-side statistics.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// The sequence number the next *new* flit will carry.
    pub fn next_seq(&self) -> u16 {
        self.next_seq
    }

    /// Number of messages waiting to be flitized.
    pub fn backlog(&self) -> usize {
        self.pending_msgs.len()
    }

    /// Number of unacknowledged flits currently held for replay.
    pub fn in_flight(&self) -> usize {
        self.replay.len()
    }

    /// `true` if the transmitter has nothing left to send or await.
    pub fn is_quiescent(&self) -> bool {
        self.pending_msgs.is_empty()
            && self.retransmit_queue.is_empty()
            && self.replay.is_empty()
            && self.pending_ack.is_none()
            && self.pending_nack.is_none()
    }

    /// Queues transaction messages for transmission, all of them now. A
    /// caller holding a long stream feeds it with [`Self::top_up`] instead,
    /// so the queue never holds more than a flit's worth.
    pub fn enqueue_messages<I: IntoIterator<Item = Message>>(&mut self, msgs: I) {
        self.pending_msgs.extend(msgs);
    }

    /// Tops the pending queue up to one flit's worth
    /// ([`MESSAGES_PER_FLIT`]) from the front of `due` — the caller's
    /// messages that are ready to send, in order — and returns how many it
    /// took. Called before every [`Self::emit`], this is indistinguishable
    /// from having enqueued all of `due` up front: a new flit takes at most
    /// `MESSAGES_PER_FLIT` pending messages, and the queue is empty only
    /// when `due` is.
    #[inline]
    pub fn top_up(&mut self, due: &[Message]) -> usize {
        let take = MESSAGES_PER_FLIT
            .saturating_sub(self.pending_msgs.len())
            .min(due.len());
        self.pending_msgs.extend(&due[..take]);
        take
    }

    /// Requests that an acknowledgement for `seq` be conveyed to the peer
    /// (called by the co-located receiver).
    pub fn queue_ack(&mut self, seq: u16) {
        self.pending_ack = Some(seq);
    }

    /// Requests that a NACK for "last good = `last_good`" be conveyed to the
    /// peer (called by the co-located receiver).
    pub fn queue_nack(&mut self, last_good: u16) {
        self.pending_nack = Some(last_good);
    }

    /// Handles a cumulative acknowledgement received from the peer.
    pub fn handle_peer_ack(&mut self, ack_seq: u16, now_ns: f64) {
        let released = self.replay.ack_up_to(ack_seq);
        if released > 0 {
            self.last_progress_ns = now_ns;
        }
    }

    /// Handles a go-back-N NACK received from the peer: the NACK's
    /// "last good" value is a cumulative acknowledgement of everything up to
    /// and including it, and everything after it is scheduled for
    /// retransmission.
    ///
    /// The schedule is a *snapshot*: the retransmit queue takes handles to
    /// what the replay buffer holds now, and a later ACK that releases some
    /// of those flits from the buffer does not cancel their retransmission.
    pub fn handle_peer_nack(&mut self, last_good: u16, now_ns: f64) {
        let released = self.replay.ack_up_to(last_good);
        let replay = self.replay.replay_from(seq_next(last_good));
        if replay.len() > 0 || released > 0 {
            self.retransmit_queue.clear();
            self.retransmit_queue.extend(replay);
            self.last_progress_ns = now_ns;
        }
    }

    /// Materialises the wire bytes of an emission — bit-identical to what
    /// [`Self::emit`] describes. Emission is lazy so callers on all-clean
    /// paths (the fabric engine's known-clean fast path) never pay the
    /// FEC/CRC encode; wire-level consumers call this when they need bytes.
    pub fn encode_emission(&self, emission: &TxEmission) -> Option<WireFlit> {
        emission
            .flit()
            .zip(emission.bound_seq())
            .map(|(flit, seq)| self.codec.encode(flit, seq))
    }

    /// Produces the emission for the current transmit slot.
    ///
    /// Allocates exactly once per *new* flit (protocol or control) — the
    /// flit itself, behind its [`FlitRef`] — and never for a retransmission
    /// or an idle slot.
    pub fn emit(&mut self, now_ns: f64) -> TxEmission {
        // 1. NACKs are the most urgent: the peer is stalled until it rewinds.
        if let Some(last_good) = self.pending_nack.take() {
            self.stats.nacks_sent += 1;
            return TxEmission::Nack {
                flit: Rc::new(Flit256::new(FlitHeader::nack_go_back_n(last_good))),
                last_good,
            };
        }

        // 2. Watchdog: if nothing has progressed for too long while flits are
        //    outstanding, replay everything unacknowledged.
        if self.retransmit_queue.is_empty()
            && !self.replay.is_empty()
            && now_ns - self.last_progress_ns > self.config.replay_timeout_ns
        {
            if let Some(oldest) = self.replay.oldest_seq() {
                self.retransmit_queue
                    .extend(self.replay.replay_from(oldest));
            }
            self.last_progress_ns = now_ns;
        }

        // 3. Pending retransmissions.
        if let Some((seq, flit)) = self.retransmit_queue.pop_front() {
            self.stats.flits_retransmitted += 1;
            return TxEmission::Protocol {
                flit,
                seq,
                retransmission: true,
            };
        }

        // 4. New protocol flits (with ACK piggybacking where the variant
        //    allows it).
        if !self.pending_msgs.is_empty() && !self.replay.is_full() {
            let count = self.pending_msgs.len().min(MESSAGES_PER_FLIT);
            let seq = self.next_seq;

            let header = if self.config.variant.piggybacks_acks() {
                if let Some(ack) = self.pending_ack.take() {
                    self.stats.acks_sent += 1;
                    FlitHeader::ack(ack)
                } else {
                    self.default_protocol_header(seq)
                }
            } else {
                self.default_protocol_header(seq)
            };

            // The one write of this flit, in place: the pending messages are
            // encoded slot by slot straight into the flit's allocation
            // (`Flit256::new` left the unused slots empty). From here on it
            // is shared, not copied (replay buffer and emission hold the
            // same handle).
            let mut flit = Rc::new(Flit256::new(header));
            let slots = Rc::get_mut(&mut flit)
                .expect("a new flit has one handle")
                .payload
                .chunks_exact_mut(SLOT_LEN);
            for (slot, msg) in slots.zip(self.pending_msgs.range(..count)) {
                slot.copy_from_slice(&encode_slot(msg));
            }
            self.pending_msgs.drain(..count);
            self.replay.push(seq, Rc::clone(&flit));
            self.next_seq = seq_next(seq);
            self.stats.flits_sent += 1;
            self.last_progress_ns = now_ns;
            return TxEmission::Protocol {
                flit,
                seq,
                retransmission: false,
            };
        }

        // 5. Acknowledgements with no outgoing payload to ride on (or a
        //    variant that never piggybacks) go out as standalone ACK flits.
        if let Some(ack) = self.pending_ack.take() {
            self.stats.standalone_acks_sent += 1;
            self.stats.acks_sent += 1;
            return TxEmission::StandaloneAck {
                flit: Rc::new(Flit256::new(FlitHeader::standalone_ack(ack))),
                ack,
            };
        }

        self.stats.idle_flits_sent += 1;
        TxEmission::Idle
    }

    fn default_protocol_header(&self, seq: u16) -> FlitHeader {
        match self.config.variant {
            // Baseline CXL carries the explicit sequence number.
            ProtocolVariant::CxlPiggyback | ProtocolVariant::CxlStandaloneAck => {
                FlitHeader::with_seq(seq)
            }
            // RXL leaves the FSN field zeroed; the sequence rides in the ECRC.
            ProtocolVariant::Rxl => FlitHeader::with_seq(0),
        }
    }

    /// Sequence number of the most recently transmitted new flit, if any.
    pub fn last_sent_seq(&self) -> Option<u16> {
        if self.stats.flits_sent == 0 {
            None
        } else {
            Some(seq_add(self.next_seq, -1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxl_flit::{CxlFlitCodec, MemOp, RxlFlitCodec};

    fn msgs(n: usize) -> Vec<Message> {
        (0..n)
            .map(|i| Message::request(MemOp::RdCurr, (i * 64) as u64, 0, i as u16))
            .collect()
    }

    fn tx(variant: ProtocolVariant) -> LinkTx {
        LinkTx::new(LinkConfig::cxl3_x16(variant))
    }

    #[test]
    fn idle_when_nothing_pending() {
        let mut t = tx(ProtocolVariant::CxlPiggyback);
        assert!(t.emit(0.0).is_idle());
        assert!(t.is_quiescent());
    }

    #[test]
    fn new_flits_consume_sequence_numbers_in_order() {
        let mut t = tx(ProtocolVariant::CxlPiggyback);
        t.enqueue_messages(msgs(40));
        let mut seqs = Vec::new();
        loop {
            match t.emit(0.0) {
                TxEmission::Protocol {
                    seq,
                    retransmission,
                    ..
                } => {
                    assert!(!retransmission);
                    seqs.push(seq);
                }
                TxEmission::Idle => break,
                other => panic!("unexpected emission {other:?}"),
            }
        }
        // 40 messages → 3 flits (15 + 15 + 10).
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(t.backlog(), 0);
        assert_eq!(t.in_flight(), 3);
        assert_eq!(t.last_sent_seq(), Some(2));
    }

    #[test]
    fn topping_up_before_each_emit_matches_enqueueing_everything() {
        for n in [0usize, 1, 14, 15, 16, 100] {
            let stream = msgs(n);
            let mut all = tx(ProtocolVariant::Rxl);
            let mut fed = tx(ProtocolVariant::Rxl);
            all.enqueue_messages(stream.iter().copied());
            let mut taken = 0;
            loop {
                taken += fed.top_up(&stream[taken..]);
                assert!(fed.backlog() <= MESSAGES_PER_FLIT);
                assert_eq!(all.backlog(), fed.backlog() + (n - taken));
                let (a, b) = (all.emit(0.0), fed.emit(0.0));
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "{n} messages");
                if a.is_idle() {
                    break;
                }
            }
            assert_eq!(taken, n);
            assert_eq!(all.stats(), fed.stats());
        }
    }

    #[test]
    fn ack_releases_replay_buffer() {
        let mut t = tx(ProtocolVariant::CxlPiggyback);
        t.enqueue_messages(msgs(30));
        while !t.emit(0.0).is_idle() {}
        assert_eq!(t.in_flight(), 2);
        t.handle_peer_ack(0, 10.0);
        assert_eq!(t.in_flight(), 1);
        t.handle_peer_ack(1, 12.0);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn nack_triggers_go_back_n_replay() {
        let mut t = tx(ProtocolVariant::Rxl);
        t.enqueue_messages(msgs(45));
        while !t.emit(0.0).is_idle() {}
        assert_eq!(t.in_flight(), 3);
        // Peer says: last good was 0 → resend 1 and 2.
        t.handle_peer_nack(0, 50.0);
        let mut replayed = Vec::new();
        loop {
            match t.emit(51.0) {
                TxEmission::Protocol {
                    seq,
                    retransmission,
                    ..
                } => {
                    assert!(retransmission);
                    replayed.push(seq);
                }
                TxEmission::Idle => break,
                other => panic!("unexpected emission {other:?}"),
            }
        }
        assert_eq!(replayed, vec![1, 2]);
        assert_eq!(t.stats().flits_retransmitted, 2);
    }

    #[test]
    fn a_flit_acked_after_the_nack_is_still_replayed() {
        let mut t = tx(ProtocolVariant::Rxl);
        t.enqueue_messages(msgs(60));
        let mut first = Vec::new();
        loop {
            match t.emit(0.0) {
                TxEmission::Protocol { flit, seq, .. } => {
                    // Emission and replay buffer share one allocation.
                    assert!(Rc::ptr_eq(&flit, t.replay.get(seq).unwrap()));
                    first.push(flit);
                }
                TxEmission::Idle => break,
                other => panic!("unexpected emission {other:?}"),
            }
        }
        assert_eq!(first.len(), 4);
        // NACK(0) schedules 1, 2, 3; the ACK that follows releases 1 and 2
        // from the replay buffer but not from the schedule, which is a
        // snapshot taken when the NACK arrived.
        t.handle_peer_nack(0, 50.0);
        t.handle_peer_ack(2, 51.0);
        assert_eq!(t.in_flight(), 1);
        for expected in 1..=3u16 {
            match t.emit(52.0) {
                TxEmission::Protocol {
                    flit,
                    seq,
                    retransmission,
                } => {
                    assert!(retransmission);
                    assert_eq!(seq, expected);
                    assert!(Rc::ptr_eq(&flit, &first[seq as usize]), "replay copied");
                }
                other => panic!("unexpected emission {other:?}"),
            }
        }
        assert!(t.emit(53.0).is_idle());

        // A NACK that neither releases nor finds anything to replay leaves
        // a retransmission in progress alone.
        t.handle_peer_nack(2, 60.0);
        t.handle_peer_nack(7, 61.0);
        assert!(matches!(
            t.emit(62.0),
            TxEmission::Protocol {
                seq: 3,
                retransmission: true,
                ..
            }
        ));
    }

    #[test]
    fn piggyback_variant_attaches_ack_to_protocol_flit() {
        let mut t = tx(ProtocolVariant::CxlPiggyback);
        t.queue_ack(100);
        t.enqueue_messages(msgs(1));
        // Round-trip through the lazily encoded wire image, proving the
        // emission's `(flit, bound_seq)` pair fully determines the bytes.
        let emission = t.emit(0.0);
        let wire = t.encode_emission(&emission).expect("protocol emission");
        match emission {
            TxEmission::Protocol { .. } => {
                let codec = CxlFlitCodec::new();
                let out = codec.decode(&wire);
                let flit = out.flit.unwrap();
                assert_eq!(flit.header.fsn, 100);
                assert_eq!(flit.header.replay_cmd, rxl_flit::ReplayCmd::Ack);
            }
            other => panic!("unexpected emission {other:?}"),
        }
        assert_eq!(t.stats().acks_sent, 1);
    }

    #[test]
    fn standalone_variant_never_piggybacks() {
        let mut t = tx(ProtocolVariant::CxlStandaloneAck);
        t.queue_ack(7);
        t.enqueue_messages(msgs(1));
        // The protocol flit goes out with its own sequence number...
        match t.emit(0.0) {
            TxEmission::Protocol { flit, seq, .. } => {
                assert_eq!(flit.header.fsn, seq);
                assert!(flit.header.carries_own_sequence());
            }
            other => panic!("unexpected emission {other:?}"),
        }
        // ... and the acknowledgement follows as a standalone flit.
        match t.emit(2.0) {
            TxEmission::StandaloneAck { ack, .. } => assert_eq!(ack, 7),
            other => panic!("unexpected emission {other:?}"),
        }
        assert_eq!(t.stats().standalone_acks_sent, 1);
    }

    #[test]
    fn nack_control_flit_is_emitted_first() {
        let mut t = tx(ProtocolVariant::Rxl);
        t.enqueue_messages(msgs(5));
        t.queue_nack(42);
        let emission = t.emit(0.0);
        match &emission {
            TxEmission::Nack { last_good, .. } => {
                assert_eq!(*last_good, 42);
                // Control flits are bound to sequence 0 on the wire.
                assert_eq!(emission.bound_seq(), Some(0));
                let wire = t.encode_emission(&emission).unwrap();
                let codec = RxlFlitCodec::new();
                let out = codec.decode(&wire, 0);
                assert!(out.accepted());
                let flit = out.flit.unwrap();
                assert_eq!(flit.header.replay_cmd, rxl_flit::ReplayCmd::NackGoBackN);
                assert_eq!(flit.header.fsn, 42);
            }
            other => panic!("unexpected emission {other:?}"),
        }
    }

    #[test]
    fn watchdog_timeout_replays_unacknowledged_flits() {
        let mut t = tx(ProtocolVariant::Rxl);
        t.enqueue_messages(msgs(20));
        while !t.emit(0.0).is_idle() {}
        assert_eq!(t.in_flight(), 2);
        // Nothing happens before the timeout elapses...
        assert!(t.emit(100.0).is_idle());
        // ...but after the watchdog fires the whole window is replayed.
        let timeout = t.config().replay_timeout_ns;
        match t.emit(timeout + 200.0) {
            TxEmission::Protocol {
                retransmission,
                seq,
                ..
            } => {
                assert!(retransmission);
                assert_eq!(seq, 0);
            }
            other => panic!("unexpected emission {other:?}"),
        }
    }

    #[test]
    fn rxl_protocol_flits_keep_fsn_zero_unless_piggybacking() {
        let mut t = tx(ProtocolVariant::Rxl);
        t.enqueue_messages(msgs(1));
        let emission = t.emit(0.0);
        match &emission {
            TxEmission::Protocol { seq, .. } => {
                let wire = t.encode_emission(&emission).unwrap();
                let codec = RxlFlitCodec::new();
                let out = codec.decode(&wire, *seq);
                assert!(out.accepted());
                let flit = out.flit.unwrap();
                assert_eq!(
                    flit.header.fsn, 0,
                    "RXL must not spend header bits on the sequence"
                );
            }
            other => panic!("unexpected emission {other:?}"),
        }
    }
}
