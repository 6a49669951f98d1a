//! A full-duplex link endpoint: one transmitter plus one receiver, with the
//! local ACK/NACK feedback paths wired together.
//!
//! The simulator (`rxl-sim`) owns two [`LinkEndpoint`]s per link (one per
//! node) and moves wire flits between them through channel error models and,
//! in switched topologies, through `rxl-switch` devices.

use rxl_flit::{Flit256, Message, WireFlit};

use crate::rx::{LinkRx, RxResult};
use crate::stats::LinkStats;
use crate::tx::{LinkTx, TxEmission};
use crate::variant::LinkConfig;

/// A paired transmitter and receiver sharing one link configuration.
pub struct LinkEndpoint {
    tx: LinkTx,
    rx: LinkRx,
}

impl LinkEndpoint {
    /// Creates an endpoint with the given configuration.
    pub fn new(config: LinkConfig) -> Self {
        LinkEndpoint {
            tx: LinkTx::new(config),
            rx: LinkRx::new(config),
        }
    }

    /// The link configuration.
    pub fn config(&self) -> &LinkConfig {
        self.tx.config()
    }

    /// Queues transaction messages for transmission to the peer.
    pub fn enqueue_messages<I: IntoIterator<Item = Message>>(&mut self, msgs: I) {
        self.tx.enqueue_messages(msgs);
    }

    /// Feeds the transmitter from the front of `due`, up to one flit's
    /// worth pending; returns how many messages it took (see
    /// [`LinkTx::top_up`]).
    #[inline]
    pub fn top_up(&mut self, due: &[Message]) -> usize {
        self.tx.top_up(due)
    }

    /// Number of messages waiting to be flitized.
    pub fn backlog(&self) -> usize {
        self.tx.backlog()
    }

    /// `true` when the endpoint neither holds pending work nor awaits ACKs.
    pub fn is_quiescent(&self) -> bool {
        self.tx.is_quiescent()
    }

    /// Produces the next wire emission for this endpoint's transmit slot.
    ///
    /// If the transmitter has nothing to send but the receiver is sitting on
    /// a below-threshold coalesced acknowledgement, the acknowledgement is
    /// flushed (delayed-ACK behaviour) so the peer's replay buffer drains.
    pub fn emit(&mut self, now_ns: f64) -> TxEmission {
        let emission = self.tx.emit(now_ns);
        if emission.is_idle() {
            if let Some(ack) = self.rx.flush_ack() {
                self.tx.queue_ack(ack);
                return self.tx.emit(now_ns);
            }
        }
        emission
    }

    /// Processes one arriving wire flit, wiring the receiver's feedback
    /// (extracted peer ACK/NACK, generated local ACK/NACK) into the local
    /// transmitter. Returns the receive result so the caller can forward
    /// delivered messages to its transaction layer.
    pub fn receive(&mut self, wire: &WireFlit, now_ns: f64) -> RxResult {
        let result = self.rx.receive(wire);
        self.wire_feedback(&result, now_ns);
        result
    }

    /// Like [`Self::receive`], but for a flit that is *known clean*: the
    /// arriving wire image is bit-identical to `encode(flit, tx_seq)`, so
    /// the FEC/CRC decode is skipped entirely (see
    /// [`LinkRx::receive_trusted`]). Feedback wiring is identical.
    pub fn receive_trusted(&mut self, flit: &Flit256, tx_seq: u16, now_ns: f64) -> RxResult {
        let result = self.rx.receive_trusted(flit, tx_seq);
        self.wire_feedback(&result, now_ns);
        result
    }

    fn wire_feedback(&mut self, result: &RxResult, now_ns: f64) {
        if let Some(ack) = result.peer_ack {
            self.tx.handle_peer_ack(ack, now_ns);
        }
        if let Some(nack) = result.peer_nack {
            self.tx.handle_peer_nack(nack, now_ns);
        }
        if let Some(ack) = result.send_ack {
            self.tx.queue_ack(ack);
        }
        if let Some(nack) = result.send_nack {
            self.tx.queue_nack(nack);
        }
    }

    /// Materialises the wire bytes of an emission produced by
    /// [`Self::emit`] — see [`LinkTx::encode_emission`].
    pub fn encode_emission(&self, emission: &TxEmission) -> Option<WireFlit> {
        self.tx.encode_emission(emission)
    }

    /// Combined transmit + receive statistics for this endpoint: the two
    /// halves' counters summed. Both halves count a NACK (the receiver its
    /// decision, the transmitter its flit), so here
    /// [`LinkStats::nacks_sent`] counts each emitted NACK twice.
    pub fn stats(&self) -> LinkStats {
        let mut s = *self.tx.stats();
        s.merge(self.rx.stats());
        s
    }

    /// Access to the transmit state machine.
    pub fn tx(&self) -> &LinkTx {
        &self.tx
    }

    /// Access to the receive state machine.
    pub fn rx(&self) -> &LinkRx {
        &self.rx
    }

    /// Mutable access to the transmit state machine (used by tests and by
    /// the simulator's workload injection).
    pub fn tx_mut(&mut self) -> &mut LinkTx {
        &mut self.tx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variant::{LinkConfig, ProtocolVariant};
    use rxl_flit::{MemOp, Message};

    /// Drives two endpoints over a lossless full-duplex link until both are
    /// quiescent, returning the messages delivered at each side.
    fn run_duplex(
        a: &mut LinkEndpoint,
        b: &mut LinkEndpoint,
        max_slots: usize,
    ) -> (Vec<Message>, Vec<Message>) {
        let mut at_a = Vec::new();
        let mut at_b = Vec::new();
        let mut now = 0.0;
        for _ in 0..max_slots {
            now += 2.0;
            let ea = a.emit(now);
            let eb = b.emit(now);
            if let Some(wire) = a.encode_emission(&ea) {
                at_b.extend_from_slice(&b.receive(&wire, now).delivered);
            }
            if let Some(wire) = b.encode_emission(&eb) {
                at_a.extend_from_slice(&a.receive(&wire, now).delivered);
            }
            if ea.is_idle() && eb.is_idle() && a.is_quiescent() && b.is_quiescent() {
                break;
            }
        }
        (at_a, at_b)
    }

    #[test]
    fn bidirectional_traffic_is_delivered_in_order() {
        for variant in [
            ProtocolVariant::CxlPiggyback,
            ProtocolVariant::CxlStandaloneAck,
            ProtocolVariant::Rxl,
        ] {
            let cfg = LinkConfig::cxl3_x16(variant);
            let mut a = LinkEndpoint::new(cfg);
            let mut b = LinkEndpoint::new(cfg);
            let downstream: Vec<Message> = (0..50)
                .map(|i| Message::request(MemOp::RdCurr, i as u64 * 64, 1, i as u16))
                .collect();
            let upstream: Vec<Message> =
                (0..30).map(|i| Message::response_ok(1, i as u16)).collect();
            a.enqueue_messages(downstream.clone());
            b.enqueue_messages(upstream.clone());

            let (at_a, at_b) = run_duplex(&mut a, &mut b, 10_000);
            assert_eq!(at_b, downstream, "{variant:?} downstream");
            assert_eq!(at_a, upstream, "{variant:?} upstream");
        }
    }

    #[test]
    fn acknowledgements_eventually_drain_the_replay_buffers() {
        let cfg = LinkConfig::cxl3_x16(ProtocolVariant::Rxl);
        let mut a = LinkEndpoint::new(cfg);
        let mut b = LinkEndpoint::new(cfg);
        a.enqueue_messages((0..100).map(|i| Message::response_ok(0, i as u16)));
        let _ = run_duplex(&mut a, &mut b, 20_000);
        assert_eq!(a.tx().in_flight(), 0, "all flits must be acknowledged");
        assert!(a.is_quiescent());
    }

    #[test]
    fn stats_are_aggregated_across_tx_and_rx() {
        let cfg = LinkConfig::cxl3_x16(ProtocolVariant::Rxl);
        let mut a = LinkEndpoint::new(cfg);
        let mut b = LinkEndpoint::new(cfg);
        a.enqueue_messages((0..10).map(|i| Message::response_ok(0, i as u16)));
        let _ = run_duplex(&mut a, &mut b, 5_000);
        assert!(a.stats().flits_sent >= 1);
        assert!(b.stats().flits_accepted >= 1);
        assert!(b.stats().acks_sent >= 1);
    }

    #[test]
    fn a_lost_final_ack_is_recovered_by_re_acking_the_replayed_duplicates() {
        let cfg = LinkConfig::cxl3_x16(ProtocolVariant::Rxl);
        let mut x = LinkEndpoint::new(cfg);
        let mut y = LinkEndpoint::new(cfg);
        for tag in 0..3 {
            x.enqueue_messages([Message::response_ok(0, tag)]);
            let emission = x.emit(0.0);
            let wire = x.encode_emission(&emission).expect("a protocol flit");
            assert_eq!(y.receive(&wire, 0.0).delivered.len(), 1);
        }
        // Below the coalescing level, so Y acknowledges only when its link
        // goes idle: the flushed ACK of flit 2, which is lost.
        assert!(matches!(
            y.emit(0.0),
            TxEmission::StandaloneAck { ack: 2, .. }
        ));
        assert_eq!(x.tx().in_flight(), 3);

        // X's watchdog replays the three flits. Y, which already holds them,
        // must discard the duplicates without a NACK and acknowledge again,
        // or X never learns they arrived.
        let (_, at_y) = run_duplex(&mut x, &mut y, 20_000);
        assert!(at_y.is_empty(), "no message is delivered twice");
        assert!(
            x.is_quiescent(),
            "X still holds {} flits",
            x.tx().in_flight()
        );
        assert_eq!(y.stats().flits_accepted, 3);
        assert_eq!(y.rx().stats().nacks_sent, 0);
    }

    #[test]
    fn one_detected_drop_counts_one_nack_per_half_and_two_on_the_endpoint() {
        let cfg = LinkConfig::cxl3_x16(ProtocolVariant::Rxl);
        let mut a = LinkEndpoint::new(cfg);
        let mut b = LinkEndpoint::new(cfg);
        let mut send = |tag: u16| {
            a.enqueue_messages([Message::response_ok(0, tag)]);
            let emission = a.emit(0.0);
            a.encode_emission(&emission).expect("a protocol flit")
        };
        let (w0, _dropped, w2) = (send(0), send(1), send(2));
        assert!(b.receive(&w0, 0.0).accepted);
        let out = b.receive(&w2, 0.0);
        assert_eq!(out.send_nack, Some(0), "the drop is detected");

        // The receive half counts the NACK decision...
        assert_eq!(b.rx().stats().nacks_sent, 1);
        assert_eq!(b.tx().stats().nacks_sent, 0);
        assert_eq!(b.stats().nacks_sent, 1);
        // ...and the transmit half the NACK flit, so the endpoint sums two.
        assert!(matches!(b.emit(0.0), TxEmission::Nack { last_good: 0, .. }));
        assert_eq!(b.rx().stats().nacks_sent, 1);
        assert_eq!(b.tx().stats().nacks_sent, 1);
        assert_eq!(b.stats().nacks_sent, 2);
    }
}
