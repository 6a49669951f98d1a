//! Test-only oracle for [`LinkTx`]: the transmitter as it was before flits
//! became shared handles. It clones every new flit into its replay buffer and
//! deep-copies the replay window into the retransmit queue on every NACK and
//! watchdog expiry — slow, but with no sharing there is nothing to get wrong.
//! The differential property below drives it and the real [`LinkTx`] with
//! the same random operation sequences and demands identical emissions.

use std::collections::VecDeque;
use std::rc::Rc;

use proptest::prelude::*;
use rxl_flit::{Flit256, FlitHeader, MemOp, Message, MESSAGES_PER_FLIT};

use crate::seq::{seq_add, seq_distance, seq_next};
use crate::stats::LinkStats;
use crate::tx::{LinkTx, TxEmission};
use crate::variant::{LinkConfig, ProtocolVariant};

/// What one transmit slot put on the wire, by value: `(kind, seq / ack /
/// last_good, retransmission, flit)`; `None` for an idle slot.
type Observed = Option<(&'static str, u16, bool, Flit256)>;

fn observe(emission: &TxEmission) -> Observed {
    match emission {
        TxEmission::Protocol {
            flit,
            seq,
            retransmission,
        } => Some(("protocol", *seq, *retransmission, Flit256::clone(flit))),
        TxEmission::StandaloneAck { flit, ack } => Some(("ack", *ack, false, Flit256::clone(flit))),
        TxEmission::Nack { flit, last_good } => {
            Some(("nack", *last_good, false, Flit256::clone(flit)))
        }
        TxEmission::Idle => None,
    }
}

struct ReferenceTx {
    config: LinkConfig,
    next_seq: u16,
    replay: VecDeque<(u16, Flit256)>,
    pending_msgs: VecDeque<Message>,
    retransmit_queue: VecDeque<(u16, Flit256)>,
    pending_ack: Option<u16>,
    pending_nack: Option<u16>,
    last_progress_ns: f64,
    stats: LinkStats,
}

impl ReferenceTx {
    fn new(config: LinkConfig) -> Self {
        ReferenceTx {
            config,
            next_seq: 0,
            replay: VecDeque::new(),
            pending_msgs: VecDeque::new(),
            retransmit_queue: VecDeque::new(),
            pending_ack: None,
            pending_nack: None,
            last_progress_ns: 0.0,
            stats: LinkStats::default(),
        }
    }

    fn ack_up_to(&mut self, ack_seq: u16) -> usize {
        let Some(&(oldest, _)) = self.replay.front() else {
            return 0;
        };
        let span = seq_distance(oldest, ack_seq) as usize + 1;
        if span > self.replay.len() {
            return 0;
        }
        for _ in 0..span {
            self.replay.pop_front();
        }
        span
    }

    fn replay_from(&self, from_seq: u16) -> Vec<(u16, Flit256)> {
        let Some(&(oldest, _)) = self.replay.front() else {
            return Vec::new();
        };
        let skip = seq_distance(oldest, from_seq) as usize;
        self.replay.iter().skip(skip).cloned().collect()
    }

    fn handle_peer_ack(&mut self, ack_seq: u16, now_ns: f64) {
        if self.ack_up_to(ack_seq) > 0 {
            self.last_progress_ns = now_ns;
        }
    }

    fn handle_peer_nack(&mut self, last_good: u16, now_ns: f64) {
        let released = self.ack_up_to(last_good);
        let replay = self.replay_from(seq_next(last_good));
        if !replay.is_empty() || released > 0 {
            self.retransmit_queue = replay.into();
            self.last_progress_ns = now_ns;
        }
    }

    fn default_protocol_header(&self, seq: u16) -> FlitHeader {
        match self.config.variant {
            ProtocolVariant::Rxl => FlitHeader::with_seq(0),
            _ => FlitHeader::with_seq(seq),
        }
    }

    fn emit(&mut self, now_ns: f64) -> Observed {
        if let Some(last_good) = self.pending_nack.take() {
            self.stats.nacks_sent += 1;
            let flit = Flit256::new(FlitHeader::nack_go_back_n(last_good));
            return Some(("nack", last_good, false, flit));
        }
        if self.retransmit_queue.is_empty()
            && !self.replay.is_empty()
            && now_ns - self.last_progress_ns > self.config.replay_timeout_ns
        {
            self.retransmit_queue = self.replay.clone();
            self.last_progress_ns = now_ns;
        }
        if let Some((seq, flit)) = self.retransmit_queue.pop_front() {
            self.stats.flits_retransmitted += 1;
            return Some(("protocol", seq, true, flit));
        }
        if !self.pending_msgs.is_empty() && self.replay.len() < self.config.replay_capacity {
            let count = self.pending_msgs.len().min(MESSAGES_PER_FLIT);
            let msgs: Vec<Message> = self.pending_msgs.drain(..count).collect();
            let seq = self.next_seq;
            let header = match self.pending_ack {
                Some(ack) if self.config.variant.piggybacks_acks() => {
                    self.pending_ack = None;
                    self.stats.acks_sent += 1;
                    FlitHeader::ack(ack)
                }
                _ => self.default_protocol_header(seq),
            };
            let mut flit = Flit256::new(header);
            flit.pack_messages(&msgs).expect("at most 15 messages");
            self.replay.push_back((seq, flit.clone()));
            self.next_seq = seq_next(seq);
            self.stats.flits_sent += 1;
            self.last_progress_ns = now_ns;
            return Some(("protocol", seq, false, flit));
        }
        if let Some(ack) = self.pending_ack.take() {
            self.stats.standalone_acks_sent += 1;
            self.stats.acks_sent += 1;
            let flit = Flit256::new(FlitHeader::standalone_ack(ack));
            return Some(("ack", ack, false, flit));
        }
        self.stats.idle_flits_sent += 1;
        None
    }
}

fn variant_of(index: u8) -> ProtocolVariant {
    match index % 3 {
        0 => ProtocolVariant::CxlPiggyback,
        1 => ProtocolVariant::CxlStandaloneAck,
        _ => ProtocolVariant::Rxl,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random enqueue / peer-ACK / peer-NACK / local-ACK / local-NACK / emit
    /// sequences (with occasional jumps past the watchdog timeout and a
    /// replay window small enough to fill): both transmitters emit the same
    /// `(variant, seq, retransmission, header, payload)` stream and keep the
    /// same statistics, and every retransmission of the real transmitter is
    /// the flit it first emitted — the same allocation, not an equal copy.
    #[test]
    fn shared_handle_tx_matches_the_cloning_reference(
        variant in 0u8..3,
        capacity in 2usize..12,
        ops in proptest::collection::vec((0u8..10, any::<u16>()), 1..200),
    ) {
        let mut config = LinkConfig::cxl3_x16(variant_of(variant));
        config.replay_capacity = capacity;
        let mut tx = LinkTx::new(config);
        let mut reference = ReferenceTx::new(config);
        // The handle each sequence number was first emitted with (fewer than
        // 200 new flits per case, so the 10-bit space never wraps).
        let mut first_emitted: Vec<Option<crate::FlitRef>> = vec![None; 200];
        let mut now = 0.0f64;
        let mut tag = 0u16;

        for (kind, arg) in ops {
            // ACK/NACK targets straddle the live window: two before its
            // oldest flit to two past its newest.
            let in_flight = tx.in_flight() as i32;
            let near_window = seq_add(tx.next_seq(), (arg as i32 % (in_flight + 4)) - in_flight - 2);
            match kind {
                0 | 1 => {
                    let n = arg as usize % 40;
                    let msgs: Vec<Message> = (0..n)
                        .map(|_| {
                            tag = tag.wrapping_add(1);
                            Message::request(MemOp::RdCurr, tag as u64 * 64, arg % 4, tag)
                        })
                        .collect();
                    tx.enqueue_messages(msgs.iter().copied());
                    reference.pending_msgs.extend(msgs);
                }
                2 => {
                    tx.handle_peer_ack(near_window, now);
                    reference.handle_peer_ack(near_window, now);
                }
                3 => {
                    tx.handle_peer_nack(near_window, now);
                    reference.handle_peer_nack(near_window, now);
                }
                4 => {
                    tx.queue_ack(arg & crate::SEQ_MASK);
                    reference.pending_ack = Some(arg & crate::SEQ_MASK);
                }
                5 => {
                    tx.queue_nack(arg & crate::SEQ_MASK);
                    reference.pending_nack = Some(arg & crate::SEQ_MASK);
                }
                _ => {
                    // One in sixteen emits jumps past the watchdog timeout.
                    now += if arg % 16 == 0 { config.replay_timeout_ns + 2.0 } else { 2.0 };
                    let emission = tx.emit(now);
                    prop_assert_eq!(observe(&emission), reference.emit(now));
                    if let TxEmission::Protocol { flit, seq, retransmission } = &emission {
                        let first = &mut first_emitted[*seq as usize];
                        if *retransmission {
                            let original = first.as_ref().expect("replayed before first emission");
                            prop_assert!(Rc::ptr_eq(flit, original), "seq {} was copied", seq);
                        } else {
                            prop_assert!(first.is_none(), "seq {} emitted as new twice", seq);
                            *first = Some(Rc::clone(flit));
                        }
                    }
                }
            }
            prop_assert_eq!(tx.in_flight(), reference.replay.len());
            prop_assert_eq!(tx.backlog(), reference.pending_msgs.len());
            prop_assert_eq!(tx.next_seq(), reference.next_seq);
            prop_assert_eq!(tx.stats(), &reference.stats);
        }
    }
}
