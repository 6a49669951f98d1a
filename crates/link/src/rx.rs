//! The receive side of one link direction.
//!
//! [`LinkRx`] is where the paper's central reliability difference lives:
//!
//! * the **baseline CXL** receiver can verify a flit's position in the stream
//!   only when the flit's FSN field carries its own sequence number. When the
//!   field carries a piggybacked ACK instead, the receiver must forward the
//!   flit after a data-integrity check alone — so a silently dropped
//!   predecessor goes unnoticed until a later FSN-carrying flit arrives
//!   (Fig. 4), by which time mis-ordered messages have already escaped to the
//!   transaction layer;
//! * the **RXL** receiver validates every flit against its expected sequence
//!   number through the ISN ECRC, so a drop is caught on the very next flit
//!   and nothing out of order is ever forwarded.
//!
//! The ISN ECRC says more than "expected or not": an intact flit's CRC
//! residue is the table entry of the sequence number the sender bound it to,
//! and the table is invertible (`rxl-crc`'s ISN docs). So the RXL receiver
//! reads that sequence number and acts on where it falls:
//!
//! * **equal** to the expectation — accept and forward;
//! * **behind** it (1 to 511 back) — a duplicate of a flit already
//!   accepted, put back on the wire by a go-back-N rewind or a watchdog
//!   replay: discard it without a NACK, and answer with a cumulative ACK of
//!   the last accepted flit so a sender whose ACK was lost stops replaying;
//! * **ahead** of it, or naming no sequence at all (corrupted) — reject and
//!   NACK, as for a drop.
//!
//! Only an exact match delivers, so a corrupted flit misread as a duplicate
//! (its residue would have to hit one of the ≤ 511 "behind" entries,
//! ≈ 511 / 2⁶⁴ per corrupted flit) delays a retry until the next flit, and
//! never causes a wrong delivery.
//!
//! Each variant makes its decision in one place. [`LinkRx::receive`]
//! decodes a wire flit and [`LinkRx::receive_trusted`] takes a flit known to
//! be clean; both hand the outcome of the integrity checks to the same
//! per-variant dispatch, and every rejection that asks for a retry goes
//! through one NACK-once transition.

use rxl_flit::{Flit256, FlitHeader, FlitType, Message, ReplayCmd, WireFlit, MESSAGES_PER_FLIT};

use crate::ack::{AckPolicy, AckScheduler};
use crate::seq::{seq_add, seq_distance, seq_next, SEQ_SPACE};
use crate::stats::LinkStats;
use crate::variant::{LinkCodec, LinkConfig, ProtocolVariant};

/// The transaction messages one flit forwarded to the upper layer: at most
/// [`MESSAGES_PER_FLIT`], held inline so a receive allocates nothing. Derefs
/// to `[Message]`.
#[derive(Clone, Copy)]
pub struct Delivered {
    len: usize,
    msgs: [Message; MESSAGES_PER_FLIT],
}

impl Default for Delivered {
    fn default() -> Self {
        Delivered {
            len: 0,
            msgs: [Message::response_ok(0, 0); MESSAGES_PER_FLIT],
        }
    }
}

impl std::ops::Deref for Delivered {
    type Target = [Message];

    fn deref(&self) -> &[Message] {
        &self.msgs[..self.len]
    }
}

impl<'a> IntoIterator for &'a Delivered {
    type Item = &'a Message;
    type IntoIter = std::slice::Iter<'a, Message>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl std::fmt::Debug for Delivered {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Everything the receiver decided about one arriving wire flit.
#[derive(Clone, Debug, Default)]
pub struct RxResult {
    /// `true` if the link layer accepted the flit (payload forwarded, or a
    /// control flit consumed).
    pub accepted: bool,
    /// Transaction messages forwarded to the upper layer by this flit.
    pub delivered: Delivered,
    /// Header of the forwarded flit, if one was forwarded.
    pub delivered_header: Option<FlitHeader>,
    /// `true` if the flit's position in the sequence was actually verified
    /// before forwarding (always true for RXL; false for ACK-carrying flits
    /// in baseline CXL).
    pub sequence_checked: bool,
    /// Acknowledgement number extracted from the peer's flit, to be passed to
    /// the co-located transmitter.
    pub peer_ack: Option<u16>,
    /// Go-back-N NACK extracted from the peer's flit, to be passed to the
    /// co-located transmitter.
    pub peer_nack: Option<u16>,
    /// The receiver wants to acknowledge this sequence number to the peer.
    pub send_ack: Option<u16>,
    /// The receiver wants to request a retry after this sequence number.
    pub send_nack: Option<u16>,
    /// `true` if the flit was rejected (FEC uncorrectable, CRC/ECRC mismatch,
    /// or explicit sequence mismatch) or, under RXL, discarded as a
    /// duplicate of a flit already accepted.
    pub rejected: bool,
}

/// The receive state machine for one link direction.
pub struct LinkRx {
    config: LinkConfig,
    codec: LinkCodec,
    /// Count-based expected sequence number of the next protocol flit.
    expected_seq: u16,
    /// Last sequence number that was explicitly verified (CXL only).
    last_verified_fsn: Option<u16>,
    /// `true` while waiting for a requested go-back-N replay to arrive.
    awaiting_replay: bool,
    acks: AckScheduler,
    stats: LinkStats,
}

impl LinkRx {
    /// Creates a receiver with the given configuration.
    pub fn new(config: LinkConfig) -> Self {
        let policy = if config.variant.piggybacks_acks() {
            AckPolicy::Piggyback
        } else {
            AckPolicy::Standalone
        };
        LinkRx {
            codec: LinkCodec::for_variant(config.variant),
            expected_seq: 0,
            last_verified_fsn: None,
            awaiting_replay: false,
            acks: AckScheduler::new(policy, config.ack_coalescing),
            stats: LinkStats::default(),
            config,
        }
    }

    /// The link configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Accumulated receive-side statistics.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// The sequence number the receiver expects next.
    pub fn expected_seq(&self) -> u16 {
        self.expected_seq
    }

    /// `true` while the receiver is discarding flits waiting for a replay.
    pub fn awaiting_replay(&self) -> bool {
        self.awaiting_replay
    }

    /// Takes whatever acknowledgement is pending even if the coalescing
    /// threshold has not been reached — the delayed-ACK flush used when the
    /// link would otherwise go idle with unacknowledged flits outstanding.
    pub fn flush_ack(&mut self) -> Option<u16> {
        self.acks.flush()
    }

    /// Processes one arriving wire flit: decode it once, then dispatch on
    /// what the integrity checks found.
    pub fn receive(&mut self, wire: &WireFlit) -> RxResult {
        let decode = self.codec.decode(wire, self.expected_seq);
        let Some(flit) = &decode.flit else {
            return self.reject_unreadable();
        };
        match self.config.variant {
            ProtocolVariant::Rxl => {
                // The sequence the residue names. A match with the
                // expectation is already known; the inverse lookup runs
                // only on a mismatch.
                let bound = if decode.crc_ok {
                    Some(self.expected_seq)
                } else {
                    self.codec.seq_of(decode.residue)
                };
                self.dispatch_rxl(flit, bound)
            }
            ProtocolVariant::CxlPiggyback | ProtocolVariant::CxlStandaloneAck => {
                if decode.crc_ok {
                    self.dispatch_cxl(flit)
                } else {
                    self.reject_unreadable()
                }
            }
        }
    }

    /// Processes one arriving flit that is *known clean*: the wire image the
    /// peer put on the link was bit-identical to `encode(flit, tx_seq)` and
    /// no traversal corrupted it, so decoding is pure overhead. This is the
    /// receiver half of the fabric engine's known-clean fast path. It runs
    /// the same dispatch as [`Self::receive`] and only supplies, without a
    /// decode, what the integrity checks would have found for such a wire:
    ///
    /// * FEC always accepts a clean codeword with zero corrections;
    /// * a clean wire's CRC residue is zero under CXL, whose link CRC
    ///   therefore always verifies;
    /// * an RXL flit's residue is `D[tx_seq]` (zero for a control flit,
    ///   which is bound to sequence 0), and the ISN table's entries are
    ///   distinct, so the sequence the decode path reads back from it is
    ///   exactly `tx_seq` (`rxl-crc`'s ISN docs).
    ///
    /// `tests/trusted_receive.rs` decodes every wire image it compares and
    /// checks its residue against `tx_seq` this way.
    pub fn receive_trusted(&mut self, flit: &Flit256, tx_seq: u16) -> RxResult {
        match self.config.variant {
            ProtocolVariant::Rxl => self.dispatch_rxl(flit, Some(tx_seq)),
            ProtocolVariant::CxlPiggyback | ProtocolVariant::CxlStandaloneAck => {
                self.dispatch_cxl(flit)
            }
        }
    }

    /// Everything the baseline receiver does once FEC and link CRC have
    /// passed. All decisions below depend only on header bits and receiver
    /// state, never on wire bytes.
    fn dispatch_cxl(&mut self, flit: &Flit256) -> RxResult {
        let mut result = RxResult::default();
        if flit.header.flit_type != FlitType::Protocol {
            consume_control(&flit.header, &mut result);
            return result;
        }

        match flit.header.replay_cmd {
            ReplayCmd::Ack => {
                // The paper's blind spot: the flit's own sequence number is
                // not visible, so the receiver can only check data integrity
                // (already done) and must forward the flit.
                result.peer_ack = Some(flit.header.fsn);
                result.sequence_checked = false;
                self.stats.unchecked_sequence_accepts += 1;
                self.accept_and_forward(flit, &mut result);
            }
            ReplayCmd::SeqNum => {
                if flit.header.fsn == self.expected_seq {
                    self.last_verified_fsn = Some(flit.header.fsn);
                    self.awaiting_replay = false;
                    result.sequence_checked = true;
                    self.accept_and_forward(flit, &mut result);
                } else {
                    // Explicit sequence mismatch: a drop is finally visible.
                    // While a replay is already on its way the flit is only
                    // discarded, and counted as nothing else.
                    if !self.awaiting_replay {
                        self.stats.explicit_sequence_mismatches += 1;
                        self.stats.flits_rejected += 1;
                    }
                    self.nack_once(&mut result);
                }
            }
            ReplayCmd::NackGoBackN | ReplayCmd::NackSingleRetry => {
                // NACK information piggybacked on a protocol flit.
                result.peer_nack = Some(flit.header.fsn);
                result.accepted = true;
            }
        }
        result
    }

    /// Everything the RXL receiver does once the FEC has accepted, given the
    /// sequence number `bound` the flit's ISN ECRC names (`None` if it names
    /// none: the flit is corrupted). A control flit must be bound to 0. A
    /// protocol flit has three outcomes (module docs):
    ///
    /// * `bound` equals the expected sequence: accept and forward;
    /// * `bound` is behind it by 1 to `SEQ_SPACE / 2 − 1`: a duplicate.
    ///   Discard it without a NACK, ignore the ACK it carries, and ask the
    ///   transmitter to re-acknowledge the last accepted flit
    ///   (`send_ack = expected − 1`); counted in
    ///   [`LinkStats::flits_discarded_in_replay`];
    /// * otherwise (ahead, or no sequence): an ECRC rejection, NACKed once.
    fn dispatch_rxl(&mut self, flit: &Flit256, bound: Option<u16>) -> RxResult {
        let mut result = RxResult::default();
        if flit.header.flit_type != FlitType::Protocol {
            if bound == Some(0) {
                consume_control(&flit.header, &mut result);
            } else {
                self.stats.flits_rejected += 1;
                result.rejected = true;
            }
            return result;
        }

        match bound {
            Some(seq) if seq == self.expected_seq => {
                // Data intact *and* sequence as expected: forward.
                self.awaiting_replay = false;
                result.sequence_checked = true;
                if flit.header.replay_cmd == ReplayCmd::Ack {
                    result.peer_ack = Some(flit.header.fsn);
                }
                self.accept_and_forward(flit, &mut result);
            }
            Some(seq) if seq_distance(seq, self.expected_seq) < SEQ_SPACE / 2 => {
                // Intact, but already accepted: a replayed copy. A NACK
                // would rewind the sender over flits still in flight, which
                // arrive as duplicates in turn; the re-ACK instead releases
                // what the sender may still hold because an ACK was lost.
                result.rejected = true;
                self.stats.flits_discarded_in_replay += 1;
                result.send_ack = Some(seq_add(self.expected_seq, -1));
            }
            _ => {
                // Either the payload is corrupted or (at least) one flit
                // before this one was dropped. Both trigger the same
                // response: retry.
                self.stats.ecrc_rejections += 1;
                self.stats.flits_rejected += 1;
                self.nack_once(&mut result);
            }
        }
        result
    }

    /// A flit the FEC could not repair (or, under CXL, whose link CRC
    /// failed): nothing in it can be trusted, so discard it and request a
    /// retry.
    fn reject_unreadable(&mut self) -> RxResult {
        let mut result = RxResult::default();
        self.stats.flits_rejected += 1;
        self.nack_once(&mut result);
        result
    }

    /// The one reject transition of both variants: the first rejection
    /// NACKs back to [`Self::nack_reference`] and waits for the replay; every
    /// rejection after it is discarded until the replay arrives.
    fn nack_once(&mut self, result: &mut RxResult) {
        result.rejected = true;
        if self.awaiting_replay {
            self.stats.flits_discarded_in_replay += 1;
            return;
        }
        let last_good = self.nack_reference();
        result.send_nack = Some(last_good);
        self.stats.nacks_sent += 1;
        self.expected_seq = seq_next(last_good);
        self.awaiting_replay = true;
    }

    /// The sequence number a NACK refers to: under CXL the last *verified*
    /// FSN if one exists, otherwise one before the count-based expectation.
    /// RXL never records a verified FSN, so its NACK always names the flit
    /// before the expected one and leaves the expectation where it is.
    fn nack_reference(&self) -> u16 {
        self.last_verified_fsn
            .unwrap_or_else(|| seq_add(self.expected_seq, -1))
    }

    fn accept_and_forward(&mut self, flit: &Flit256, result: &mut RxResult) {
        result.accepted = true;
        result.delivered_header = Some(flit.header);
        // A payload that fails to unpack forwards nothing.
        result.delivered.len =
            rxl_flit::unpack_messages_into(&flit.payload, &mut result.delivered.msgs).unwrap_or(0);
        self.stats.flits_accepted += 1;

        let accepted_seq = self.expected_seq;
        self.expected_seq = seq_next(self.expected_seq);
        self.acks.record_accepted(accepted_seq);
        if let Some(ack) = self.acks.take_due_ack() {
            result.send_ack = Some(ack);
        }
    }
}

/// Consumes a verified control flit (NACK, standalone ACK, idle): the link
/// layer takes what it carries for the co-located transmitter and forwards
/// nothing.
fn consume_control(header: &FlitHeader, result: &mut RxResult) {
    result.accepted = true;
    match header.flit_type {
        FlitType::LinkControl => result.peer_nack = Some(header.fsn),
        FlitType::StandaloneAck => result.peer_ack = Some(header.fsn),
        FlitType::Idle | FlitType::Protocol => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::{LinkTx, TxEmission};
    use rxl_flit::{CxlFlitCodec, MemOp};

    fn config(variant: ProtocolVariant) -> LinkConfig {
        LinkConfig::cxl3_x16(variant)
    }

    fn protocol_wire(tx: &mut LinkTx, tag: u16) -> (Box<WireFlit>, u16) {
        tx.enqueue_messages([Message::request(MemOp::RdCurr, tag as u64 * 64, 1, tag)]);
        let emission = tx.emit(0.0);
        match &emission {
            TxEmission::Protocol { seq, .. } => (
                Box::new(tx.encode_emission(&emission).expect("protocol wire")),
                *seq,
            ),
            other => panic!("expected protocol flit, got {other:?}"),
        }
    }

    #[test]
    fn in_order_flits_are_forwarded_by_both_variants() {
        for variant in [
            ProtocolVariant::CxlPiggyback,
            ProtocolVariant::CxlStandaloneAck,
            ProtocolVariant::Rxl,
        ] {
            let mut tx = LinkTx::new(config(variant));
            let mut rx = LinkRx::new(config(variant));
            for tag in 0..5u16 {
                let (wire, _) = protocol_wire(&mut tx, tag);
                let out = rx.receive(&wire);
                assert!(out.accepted, "{variant:?} tag {tag}");
                assert_eq!(out.delivered.len(), 1);
                assert_eq!(out.delivered[0].tag(), tag);
                assert!(!out.rejected);
            }
            assert_eq!(rx.expected_seq(), 5);
            assert_eq!(rx.stats().flits_accepted, 5);
        }
    }

    #[test]
    fn cxl_forwards_ack_carrying_flit_despite_a_drop() {
        // Reproduces Fig. 4: flit #1 is dropped; flit #2 carries an ACK so the
        // baseline receiver forwards it without any sequence check.
        let variant = ProtocolVariant::CxlPiggyback;
        let mut tx = LinkTx::new(config(variant));
        let mut rx = LinkRx::new(config(variant));

        let (w0, _) = protocol_wire(&mut tx, 0);
        assert!(rx.receive(&w0).accepted);

        let (_w1_dropped, _) = protocol_wire(&mut tx, 1);

        // Flit #2 piggybacks an acknowledgement (FSN field = AckNum).
        tx.queue_ack(100);
        let (w2, _) = protocol_wire(&mut tx, 2);
        let out = rx.receive(&w2);
        assert!(
            out.accepted,
            "CXL cannot detect the gap on an ACK-carrying flit"
        );
        assert!(!out.sequence_checked);
        assert_eq!(out.peer_ack, Some(100));
        assert_eq!(out.delivered[0].tag(), 2);
        assert_eq!(rx.stats().unchecked_sequence_accepts, 1);

        // Flit #3 carries its own FSN (= 3) and finally exposes the gap.
        let (w3, _) = protocol_wire(&mut tx, 3);
        let out = rx.receive(&w3);
        assert!(out.rejected);
        assert_eq!(
            out.send_nack,
            Some(0),
            "NACK references the last verified FSN"
        );
        assert!(rx.awaiting_replay());
        assert_eq!(rx.stats().explicit_sequence_mismatches, 1);
    }

    #[test]
    fn rxl_detects_the_drop_on_the_very_next_flit() {
        let variant = ProtocolVariant::Rxl;
        let mut tx = LinkTx::new(config(variant));
        let mut rx = LinkRx::new(config(variant));

        let (w0, _) = protocol_wire(&mut tx, 0);
        assert!(rx.receive(&w0).accepted);

        let (_w1_dropped, _) = protocol_wire(&mut tx, 1);

        tx.queue_ack(100);
        let (w2, _) = protocol_wire(&mut tx, 2);
        let out = rx.receive(&w2);
        assert!(!out.accepted, "RXL must reject the out-of-sequence flit");
        assert!(out.rejected);
        assert_eq!(out.send_nack, Some(0));
        assert!(out.delivered.is_empty());
        assert_eq!(rx.stats().ecrc_rejections, 1);
        // Nothing was forwarded, so the expected sequence is still 1.
        assert_eq!(rx.expected_seq(), 1);
    }

    #[test]
    fn rxl_recovers_in_order_after_a_replay() {
        let variant = ProtocolVariant::Rxl;
        let mut tx = LinkTx::new(config(variant));
        let mut rx = LinkRx::new(config(variant));

        // Send 0, drop 1, send 2 → NACK(0) → replay 1, 2 → all delivered once,
        // in order.
        let (w0, _) = protocol_wire(&mut tx, 10);
        assert!(rx.receive(&w0).accepted);
        let (_w1, _) = protocol_wire(&mut tx, 11);
        let (w2, _) = protocol_wire(&mut tx, 12);
        let out = rx.receive(&w2);
        let nack = out.send_nack.expect("drop must trigger a NACK");
        tx.handle_peer_nack(nack, 100.0);

        let mut delivered_tags = vec![10u16];
        loop {
            let emission = tx.emit(101.0);
            match &emission {
                TxEmission::Protocol { .. } => {
                    let wire = tx.encode_emission(&emission).unwrap();
                    let out = rx.receive(&wire);
                    if out.accepted {
                        delivered_tags.extend(out.delivered.iter().map(|m| m.tag()));
                    }
                }
                TxEmission::Idle => break,
                _ => {}
            }
        }
        assert_eq!(delivered_tags, vec![10, 11, 12]);
        assert_eq!(rx.expected_seq(), 3);
    }

    #[test]
    fn corrupted_flit_is_rejected_and_nacked_once() {
        let variant = ProtocolVariant::Rxl;
        let mut tx = LinkTx::new(config(variant));
        let mut rx = LinkRx::new(config(variant));
        let (w0, _) = protocol_wire(&mut tx, 0);
        assert!(rx.receive(&w0).accepted);

        let (w1, _) = protocol_wire(&mut tx, 1);
        let mut corrupted = *w1;
        // Massive corruption that overwhelms the FEC (same-way equal flips).
        corrupted[0] ^= 0x55;
        corrupted[3] ^= 0x55;
        let out = rx.receive(&corrupted);
        assert!(out.rejected);
        assert_eq!(out.send_nack, Some(0));
        // A second bad flit while awaiting replay does not NACK again.
        let (w2, _) = protocol_wire(&mut tx, 2);
        let out2 = rx.receive(&w2);
        assert!(out2.rejected);
        assert_eq!(out2.send_nack, None);
        assert_eq!(rx.stats().nacks_sent, 1);
        assert_eq!(rx.stats().flits_discarded_in_replay, 1);
    }

    #[test]
    fn control_flits_are_consumed_not_forwarded() {
        for variant in [ProtocolVariant::CxlPiggyback, ProtocolVariant::Rxl] {
            let mut tx = LinkTx::new(config(variant));
            let mut rx = LinkRx::new(config(variant));
            tx.queue_nack(5);
            let emission = tx.emit(0.0);
            let nack_wire = match &emission {
                TxEmission::Nack { .. } => tx.encode_emission(&emission).unwrap(),
                other => panic!("expected NACK, got {other:?}"),
            };
            let out = rx.receive(&nack_wire);
            assert!(out.accepted);
            assert_eq!(out.peer_nack, Some(5));
            assert!(out.delivered.is_empty());

            tx.queue_ack(9);
            let emission = tx.emit(1.0);
            let ack_wire = match &emission {
                TxEmission::StandaloneAck { .. } => tx.encode_emission(&emission).unwrap(),
                other => panic!("expected standalone ACK, got {other:?}"),
            };
            let out = rx.receive(&ack_wire);
            assert!(out.accepted);
            assert_eq!(out.peer_ack, Some(9));
            // Control flits never advance the protocol sequence.
            assert_eq!(rx.expected_seq(), 0);
        }
    }

    #[test]
    fn acks_are_scheduled_at_the_coalescing_level() {
        let mut cfg = config(ProtocolVariant::Rxl);
        cfg.ack_coalescing = 3;
        let mut tx = LinkTx::new(cfg);
        let mut rx = LinkRx::new(cfg);
        let mut acks = Vec::new();
        for tag in 0..9u16 {
            let (wire, _) = protocol_wire(&mut tx, tag);
            let out = rx.receive(&wire);
            if let Some(a) = out.send_ack {
                acks.push(a);
            }
        }
        assert_eq!(acks, vec![2, 5, 8]);
    }

    #[test]
    fn cxl_idle_flits_are_accepted_without_side_effects() {
        let mut rx = LinkRx::new(config(ProtocolVariant::CxlPiggyback));
        let codec = CxlFlitCodec::new();
        let wire = codec.encode(&Flit256::idle());
        let out = rx.receive(&wire);
        assert!(out.accepted);
        assert!(out.delivered.is_empty());
        assert_eq!(rx.expected_seq(), 0);
    }

    #[test]
    fn rxl_rejects_a_duplicate_of_an_accepted_flit() {
        let variant = ProtocolVariant::Rxl;
        let mut tx = LinkTx::new(config(variant));
        let mut rx = LinkRx::new(config(variant));
        let (w0, _) = protocol_wire(&mut tx, 0);
        let (w1, _) = protocol_wire(&mut tx, 1);
        assert!(rx.receive(&w0).accepted);
        assert!(rx.receive(&w1).accepted);

        // A replayed copy of flit 1 is bound to sequence 1, one behind the
        // expected 2: the residue names it, so it is a duplicate, not a drop.
        // Nothing is forwarded, nothing NACKed, and the last accepted flit
        // is acknowledged again.
        let out = rx.receive(&w1);
        assert!(out.rejected && !out.accepted && out.delivered.is_empty());
        assert_eq!(out.send_nack, None);
        assert_eq!(out.send_ack, Some(1));
        assert_eq!(out.peer_ack, None, "an unverified flit's ACK is ignored");
        assert_eq!(rx.expected_seq(), 2);
        assert!(!rx.awaiting_replay());
        let stats = rx.stats();
        assert_eq!(stats.ecrc_rejections, 0);
        assert_eq!((stats.flits_rejected, stats.nacks_sent), (0, 0));
        assert_eq!(stats.flits_discarded_in_replay, 1);
    }

    #[test]
    fn cxl_corrupted_flit_is_rejected_and_nacked_once() {
        let variant = ProtocolVariant::CxlPiggyback;
        let mut tx = LinkTx::new(config(variant));
        let mut rx = LinkRx::new(config(variant));
        let (w0, _) = protocol_wire(&mut tx, 0);
        assert!(rx.receive(&w0).accepted);

        // Corruption the FEC cannot repair (same-way equal flips).
        let (w1, _) = protocol_wire(&mut tx, 1);
        let mut corrupted = *w1;
        corrupted[1] ^= 0x40;
        corrupted[4] ^= 0x40;
        let out = rx.receive(&corrupted);
        assert!(out.rejected && !out.accepted);
        assert_eq!(out.send_nack, Some(0), "the last verified FSN");
        assert!(rx.awaiting_replay());
        // The next flit is discarded while the replay is on its way.
        let (w2, _) = protocol_wire(&mut tx, 2);
        let out = rx.receive(&w2);
        assert!(out.rejected && out.send_nack.is_none());
        let stats = rx.stats();
        assert_eq!(
            (stats.flits_rejected, stats.nacks_sent),
            (1, 1),
            "the discarded flit is not counted as a CXL rejection"
        );
        assert_eq!(stats.flits_discarded_in_replay, 1);
        assert_eq!(stats.explicit_sequence_mismatches, 0);
    }
}
