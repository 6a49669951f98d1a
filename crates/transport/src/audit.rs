//! The delivery auditor: ground-truth classification of what the link layer
//! handed to the application.
//!
//! The auditor is the measurement instrument behind every failure-rate
//! experiment: the workload registers each message when it is submitted for
//! transmission, and the receiving endpoint reports each message the link
//! layer forwarded. The auditor then classifies deliveries into the paper's
//! failure categories (Section 7.1, Fig. 5):
//!
//! * **in order** — the message is the next undelivered one of its CQID,
//! * **out of order** — an earlier message of the same CQID is still missing
//!   (`Fail_order`),
//! * **duplicate** — the message was already delivered (Fig. 5a),
//! * **corrupted** — the content differs from what was sent (`Fail_data`),
//! * **unexpected** — the message was never sent at all (also `Fail_data`),
//! * **lost** — counted at the end for sent messages never delivered.

use std::sync::Arc;

use rxl_flit::Message;

use crate::failure::FailureCounts;
use crate::stream::{read_at, SentStream};

/// Classification of a single observed delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryVerdict {
    /// Delivered exactly once, content intact, in CQID order.
    InOrder,
    /// Delivered while an earlier message of the same CQID is still missing.
    OutOfOrder,
    /// Delivered a second (or later) time.
    Duplicate,
    /// Content does not match what was sent.
    Corrupted,
    /// No such message was ever sent.
    Unexpected,
}

/// The splitmix64 finalizer: a cheap bijective mixer whose every output bit
/// depends on every input bit. Public because `rxl_fabric::message_key`
/// finalizes its packed message identity with it.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Delivery cursor of one CQID over its shared position list
/// (`StreamIndex::cqs[slot].positions`): the per-trial half of the audit
/// state, the other half being the delivered bitset.
#[derive(Clone, Copy, Debug, Default)]
struct CqidCursor {
    /// Lowest send-order rank not yet delivered.
    next_undelivered: u32,
    /// One past the rank of the CQID's last delivery (duplicates included):
    /// where the next verdict looks first.
    after_last: u32,
    /// Messages delivered (at least once) in this CQID.
    delivered_count: u32,
}

impl CqidCursor {
    /// `true` while some message has been delivered ahead of a still-missing
    /// earlier message of the same CQID: ranks `0..next_undelivered` are the
    /// contiguous delivered prefix, so any delivery beyond it means a gap is
    /// open.
    fn gapped(&self) -> bool {
        self.delivered_count > self.next_undelivered
    }
}

/// Ground-truth auditor for one direction of traffic.
///
/// The sent messages and their per-CQID position index live in a
/// [`SentStream`] that every trial over the same workload shares (see its
/// ownership contract); what one trial owns is a delivered bit per stream
/// position and one cursor per CQID — about a bit per message.
///
/// # The run state
///
/// An auditor starts in the *run state*: every delivery so far was exactly
/// `stream[..prefix]`, in send order, once each (`prefix` being the count
/// of messages delivered). A link that delivers in send order — RXL, whose
/// implicit sequence numbers reject every out-of-order flit — keeps it
/// there for the whole trial. In it, [`Self::observe_flit`] judges a flit
/// whose messages are the stream's next contiguous run with one slice
/// compare and two counter bumps, and leaves the bitset and the cursors
/// stale.
///
/// The verdicts and counters are those of the per-message path, by
/// construction: with the delivered set a prefix of the stream, each
/// CQID's delivered messages are a prefix of its ranks, so no CQID has a
/// gap, and the rank after the CQID's last delivery holds exactly
/// `stream[prefix + i]` — the per-message path would find message `i` of
/// the run there, intact and in order.
///
/// The first delivery that is not the stream's next run (a duplicate, a
/// jump, a corrupted copy, a never-sent identity), and any call of
/// [`Self::observe_delivery`], leaves the run state for good: one step
/// sets bits `[0, prefix)` and rebuilds each CQID's cursor at `k`, the
/// number of its positions below `prefix`, which is what the per-message
/// path would have left.
#[derive(Clone, Debug, Default)]
pub struct DeliveryAuditor {
    stream: Arc<SentStream>,
    /// Bit `p` set once the message at stream position `p` was delivered
    /// (stale in the run state).
    delivered: Vec<u64>,
    /// Parallel to the stream index's CQID slots (stale in the run state).
    cursors: Vec<CqidCursor>,
    counts: FailureCounts,
    /// Number of CQIDs currently holding an ordering gap (a delivered
    /// message ahead of a missing earlier one).
    gapped_cqids: usize,
    /// Total messages delivered at least once across all CQIDs; in the run
    /// state, the length of the delivered prefix of the stream.
    delivered_unique: usize,
    /// `false` in the run state; `true` once `delivered` and `cursors` are
    /// kept per message.
    cursors_live: bool,
}

impl DeliveryAuditor {
    /// Creates an empty auditor over a private stream, to be filled with
    /// [`Self::record_sent`].
    pub fn new() -> Self {
        Self::default()
    }

    /// An auditor over an already-built stream, sharing it: nothing is
    /// copied, and the stream's index is built here if no earlier auditor
    /// did (panicking on a duplicate message identity, like
    /// [`Self::record_sent`]).
    pub fn for_stream(stream: Arc<SentStream>) -> Self {
        let cqids = stream.index().cqs.len();
        DeliveryAuditor {
            delivered: vec![0; stream.len().div_ceil(64)],
            cursors: vec![CqidCursor::default(); cqids],
            stream,
            counts: FailureCounts::default(),
            gapped_cqids: 0,
            delivered_unique: 0,
            cursors_live: false,
        }
    }

    /// Registers a message that is about to be transmitted. Must be called in
    /// transmit order.
    pub fn record_sent(&mut self, msg: &Message) {
        let stream = Arc::make_mut(&mut self.stream);
        stream.push(*msg);
        self.delivered.resize(stream.len().div_ceil(64), 0);
        self.cursors
            .resize(stream.index().cqs.len(), CqidCursor::default());
    }

    /// Number of messages registered for transmission.
    pub fn sent_count(&self) -> usize {
        self.stream.len()
    }

    /// Classifies the messages of one delivered flit, in order, handing
    /// each with its verdict to `each`; the counters end as if every
    /// message had gone through [`Self::observe_delivery`].
    ///
    /// In the run state (see the type docs) a flit that is the stream's
    /// next contiguous run is `msgs.len()` in-order verdicts at the cost of
    /// one slice compare; any other flit leaves the run state and is judged
    /// message by message.
    #[inline]
    pub fn observe_flit(
        &mut self,
        msgs: &[Message],
        mut each: impl FnMut(&Message, DeliveryVerdict),
    ) {
        if !self.cursors_live {
            if self.stream[self.delivered_unique..].starts_with(msgs) {
                self.delivered_unique += msgs.len();
                self.counts.clean_deliveries += msgs.len() as u64;
                for msg in msgs {
                    each(msg, DeliveryVerdict::InOrder);
                }
                return;
            }
            self.leave_run();
        }
        for msg in msgs {
            let verdict = self.classify(msg);
            each(msg, verdict);
        }
    }

    /// Leaves the run state: marks the delivered prefix `[0, prefix)` in
    /// the bitset and sets every CQID's cursor to `k`, the number of its
    /// positions below `prefix` — its delivered, contiguous, in-order
    /// ranks.
    #[cold]
    #[inline(never)]
    fn leave_run(&mut self) {
        self.cursors_live = true;
        let prefix = self.delivered_unique;
        for (cursor, cq) in self.cursors.iter_mut().zip(&self.stream.index().cqs) {
            let k = cq.positions.partition_point(|&q| (q as usize) < prefix) as u32;
            *cursor = CqidCursor {
                next_undelivered: k,
                after_last: k,
                delivered_count: k,
            };
        }
        let (full, rest) = (prefix / 64, prefix % 64);
        self.delivered[..full].fill(u64::MAX);
        if rest != 0 {
            self.delivered[full] = (1 << rest) - 1;
        }
    }

    /// Classifies one delivered message and updates the counters, leaving
    /// the run state first (see the type docs).
    pub fn observe_delivery(&mut self, msg: &Message) -> DeliveryVerdict {
        if !self.cursors_live {
            self.leave_run();
        }
        self.classify(msg)
    }

    /// The per-message verdict, over live cursors and bitset.
    ///
    /// Every verdict starts at the rank after the CQID's last delivery: one
    /// whole-message compare with the stream message there decides the
    /// common case — an in-order delivery when that rank is the next
    /// undelivered one, and one of a run delivered past a lost message or
    /// of a go-back-N duplicate window otherwise. On a miss (a jump, a
    /// corrupted copy, a never-sent identity) the search steps outward from
    /// that rank, so its cost grows with the distance jumped, not with the
    /// CQID's length.
    fn classify(&mut self, msg: &Message) -> DeliveryVerdict {
        let stream: &SentStream = &self.stream;
        let index = stream.index();
        let Some(slot) = index.slot_of(msg.cqid()) else {
            return self.unexpected();
        };
        let cq = &index.cqs[slot];
        let positions = &cq.positions[..];
        let cursor = &mut self.cursors[slot];
        let hint = cursor.after_last as usize;
        let (order, intact) = match positions.get(hint) {
            Some(&p) if read_at(stream, p) == msg => (hint, true),
            _ => match cq.find(stream, msg, hint) {
                Some(order) => (order, stream[positions[order] as usize] == *msg),
                None => return self.unexpected(),
            },
        };
        cursor.after_last = order as u32 + 1;
        let pos = positions[order] as usize;
        let (word, bit) = (pos / 64, 1u64 << (pos % 64));
        if self.delivered[word] & bit != 0 {
            self.counts.duplicate_deliveries += 1;
            return DeliveryVerdict::Duplicate;
        }
        self.delivered[word] |= bit;
        let mut next = cursor.next_undelivered as usize;
        let in_order = order == next;
        let was_gapped = cursor.gapped();
        cursor.delivered_count += 1;
        self.delivered_unique += 1;
        // Advance the next-undelivered cursor over everything now delivered.
        while positions
            .get(next)
            .is_some_and(|&p| self.delivered[p as usize / 64] >> (p % 64) & 1 != 0)
        {
            next += 1;
        }
        cursor.next_undelivered = next as u32;
        match (was_gapped, cursor.gapped()) {
            (false, true) => self.gapped_cqids += 1,
            (true, false) => self.gapped_cqids -= 1,
            _ => {}
        }

        if !intact {
            self.counts.data_failures += 1;
            return DeliveryVerdict::Corrupted;
        }
        if !in_order {
            self.counts.ordering_failures += 1;
            return DeliveryVerdict::OutOfOrder;
        }
        self.counts.clean_deliveries += 1;
        DeliveryVerdict::InOrder
    }

    /// The verdict on a never-sent identity.
    #[cold]
    #[inline(never)]
    fn unexpected(&mut self) -> DeliveryVerdict {
        self.counts.data_failures += 1;
        DeliveryVerdict::Unexpected
    }

    /// Counters accumulated so far (losses not yet included).
    pub fn counts(&self) -> &FailureCounts {
        &self.counts
    }

    /// `true` while at least one CQID has an ordering gap open: a message
    /// was delivered while an earlier message of the same CQID is still
    /// missing. Gap-episode trackers (the fabric simulator's undetected-drop
    /// event counter) use this to count each drop episode exactly once, from
    /// the first out-of-order delivery until a replay fills the gap.
    pub fn has_open_gaps(&self) -> bool {
        self.gapped_cqids > 0
    }

    /// `true` once every registered message has been delivered at least
    /// once. The fabric engine consults this when its stall guard trips:
    /// a stalled fabric whose auditors all report `all_delivered` is a
    /// *post-delivery wedge* (control-plane replay churning after the last
    /// payload arrived), not a credit deadlock.
    pub fn all_delivered(&self) -> bool {
        self.delivered_unique == self.stream.len()
    }

    /// Closes the audit: every sent-but-undelivered message is counted as
    /// lost. Returns the final counters.
    pub fn finalize(mut self) -> FailureCounts {
        self.counts.lost_messages += (self.stream.len() - self.delivered_unique) as u64;
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::READS;
    use rxl_flit::{MemOp, Message};
    use std::cell::Cell;

    fn req(cqid: u16, tag: u16) -> Message {
        Message::request(MemOp::RdCurr, tag as u64 * 64, cqid, tag)
    }

    fn data(cqid: u16, tag: u16, chunk: u8) -> Message {
        Message::data(cqid, tag, chunk, [chunk; 8])
    }

    #[test]
    fn clean_in_order_delivery() {
        let mut a = DeliveryAuditor::new();
        let msgs: Vec<Message> = (0..5).map(|i| req(1, i)).collect();
        for m in &msgs {
            a.record_sent(m);
        }
        for m in &msgs {
            assert_eq!(a.observe_delivery(m), DeliveryVerdict::InOrder);
        }
        let counts = a.finalize();
        assert!(counts.is_clean());
        assert_eq!(counts.clean_deliveries, 5);
    }

    #[test]
    fn duplicate_detection_matches_fig_5a() {
        // Requests A, B, C; C is delivered, then the retry replays B and C:
        // the second C is a duplicate.
        let mut a = DeliveryAuditor::new();
        let (ra, rb, rc) = (req(0, 0), req(1, 1), req(2, 2));
        for m in [&ra, &rb, &rc] {
            a.record_sent(m);
        }
        assert_eq!(a.observe_delivery(&ra), DeliveryVerdict::InOrder);
        assert_eq!(a.observe_delivery(&rc), DeliveryVerdict::InOrder); // different CQID → in order
        assert_eq!(a.observe_delivery(&rb), DeliveryVerdict::InOrder);
        assert_eq!(a.observe_delivery(&rc), DeliveryVerdict::Duplicate);
        let counts = a.finalize();
        assert_eq!(counts.duplicate_deliveries, 1);
        assert_eq!(counts.clean_deliveries, 3);
        assert_eq!(counts.lost_messages, 0);
    }

    #[test]
    fn same_cqid_reordering_matches_fig_5b() {
        // Data B and C share a CQID and must arrive in order; delivering C
        // before B is an ordering failure.
        let mut a = DeliveryAuditor::new();
        let b = data(7, 1, 0);
        let c = data(7, 2, 0);
        a.record_sent(&b);
        a.record_sent(&c);
        assert_eq!(a.observe_delivery(&c), DeliveryVerdict::OutOfOrder);
        assert_eq!(a.observe_delivery(&b), DeliveryVerdict::InOrder);
        let counts = a.finalize();
        assert_eq!(counts.ordering_failures, 1);
        assert_eq!(counts.clean_deliveries, 1);
    }

    #[test]
    fn different_cqids_may_interleave_freely() {
        let mut a = DeliveryAuditor::new();
        let m1 = data(1, 1, 0);
        let m2 = data(2, 2, 0);
        let m3 = data(1, 3, 0);
        for m in [&m1, &m2, &m3] {
            a.record_sent(m);
        }
        // Delivery order m2, m1, m3 violates nothing: CQID 1 still sees m1
        // before m3 and CQID 2 only has one message.
        assert_eq!(a.observe_delivery(&m2), DeliveryVerdict::InOrder);
        assert_eq!(a.observe_delivery(&m1), DeliveryVerdict::InOrder);
        assert_eq!(a.observe_delivery(&m3), DeliveryVerdict::InOrder);
        assert!(a.finalize().is_clean());
    }

    #[test]
    fn corruption_and_unexpected_messages_are_data_failures() {
        let mut a = DeliveryAuditor::new();
        let sent = req(3, 9);
        a.record_sent(&sent);
        // Same identity, different address → corrupted.
        let corrupted = Message::request(MemOp::RdCurr, 0xBAD, 3, 9);
        assert_eq!(a.observe_delivery(&corrupted), DeliveryVerdict::Corrupted);
        // Never-sent identity → unexpected.
        assert_eq!(a.observe_delivery(&req(9, 9)), DeliveryVerdict::Unexpected);
        let counts = a.finalize();
        assert_eq!(counts.data_failures, 2);
    }

    #[test]
    fn losses_are_counted_at_finalize() {
        let mut a = DeliveryAuditor::new();
        for i in 0..4 {
            a.record_sent(&req(0, i));
        }
        a.observe_delivery(&req(0, 0));
        a.observe_delivery(&req(0, 1));
        let counts = a.finalize();
        assert_eq!(counts.lost_messages, 2);
        assert_eq!(counts.clean_deliveries, 2);
    }

    #[test]
    fn data_chunks_with_distinct_indices_are_distinct_messages() {
        let mut a = DeliveryAuditor::new();
        a.record_sent(&data(1, 1, 0));
        a.record_sent(&data(1, 1, 1));
        assert_eq!(a.observe_delivery(&data(1, 1, 0)), DeliveryVerdict::InOrder);
        assert_eq!(a.observe_delivery(&data(1, 1, 1)), DeliveryVerdict::InOrder);
        assert!(a.finalize().is_clean());
    }

    #[test]
    fn out_of_order_then_gap_filled_recovers() {
        let mut a = DeliveryAuditor::new();
        for i in 0..3 {
            a.record_sent(&data(5, i, 0));
        }
        assert!(!a.has_open_gaps());
        assert_eq!(
            a.observe_delivery(&data(5, 1, 0)),
            DeliveryVerdict::OutOfOrder
        );
        assert!(a.has_open_gaps(), "gap opens on the out-of-order delivery");
        assert_eq!(a.observe_delivery(&data(5, 0, 0)), DeliveryVerdict::InOrder);
        assert!(!a.has_open_gaps(), "gap closes once the hole is filled");
        // After the gap is filled, the cursor has advanced past both.
        assert_eq!(a.observe_delivery(&data(5, 2, 0)), DeliveryVerdict::InOrder);
        assert!(!a.has_open_gaps());
        let counts = a.finalize();
        assert_eq!(counts.ordering_failures, 1);
        assert_eq!(counts.clean_deliveries, 2);
    }

    #[test]
    fn gaps_are_tracked_per_cqid_and_duplicates_do_not_reopen_them() {
        let mut a = DeliveryAuditor::new();
        for cq in [1u16, 2] {
            for i in 0..3 {
                a.record_sent(&data(cq, 10 * cq + i, 0));
            }
        }
        // Open gaps in both CQIDs.
        a.observe_delivery(&data(1, 12, 0));
        a.observe_delivery(&data(2, 22, 0));
        assert!(a.has_open_gaps());
        // Fill CQID 1 only — CQID 2 still gapped.
        a.observe_delivery(&data(1, 10, 0));
        a.observe_delivery(&data(1, 11, 0));
        assert!(a.has_open_gaps());
        // A duplicate delivery must not disturb gap accounting.
        assert_eq!(
            a.observe_delivery(&data(1, 12, 0)),
            DeliveryVerdict::Duplicate
        );
        assert!(a.has_open_gaps());
        // Fill CQID 2 — all gaps closed.
        a.observe_delivery(&data(2, 20, 0));
        a.observe_delivery(&data(2, 21, 0));
        assert!(!a.has_open_gaps());
    }

    #[test]
    #[should_panic]
    fn duplicate_registration_panics() {
        let mut a = DeliveryAuditor::new();
        a.record_sent(&req(1, 1));
        a.record_sent(&req(1, 1));
    }

    #[test]
    #[should_panic(expected = "duplicate message identity")]
    fn duplicate_identity_in_a_shared_stream_panics() {
        // Wrapping is unchecked (a move); the first auditor builds the index.
        let stream = Arc::new(SentStream::new(vec![req(1, 1), req(2, 1), req(1, 1)]));
        let _ = DeliveryAuditor::for_stream(stream);
    }

    #[test]
    fn auditors_over_one_stream_share_it_and_keep_private_verdicts() {
        let stream = Arc::new(SentStream::new((0..4).map(|i| req(0, i)).collect()));
        let mut a = DeliveryAuditor::for_stream(Arc::clone(&stream));
        let mut b = DeliveryAuditor::for_stream(Arc::clone(&stream));
        assert_eq!(Arc::strong_count(&stream), 3, "nothing was copied");
        assert_eq!(a.observe_delivery(&req(0, 0)), DeliveryVerdict::InOrder);
        assert_eq!(a.observe_delivery(&req(0, 0)), DeliveryVerdict::Duplicate);
        assert_eq!(b.observe_delivery(&req(0, 2)), DeliveryVerdict::OutOfOrder);
        assert_eq!(b.observe_delivery(&req(0, 0)), DeliveryVerdict::InOrder);
        assert_eq!(a.finalize().lost_messages, 3);
        assert_eq!(b.finalize().lost_messages, 2);
    }

    #[test]
    fn a_flit_that_is_the_streams_next_run_reads_no_position() {
        let sent: Vec<Message> = (0..40)
            .flat_map(|tag| (0..3).map(move |cq| req(cq, tag)))
            .collect();
        let mut a = DeliveryAuditor::for_stream(Arc::new(SentStream::new(sent.clone())));
        let before = READS.with(Cell::get);
        for flit in sent[..90].chunks(15) {
            a.observe_flit(flit, |_, verdict| {
                assert_eq!(verdict, DeliveryVerdict::InOrder)
            });
        }
        assert_eq!(
            READS.with(Cell::get),
            before,
            "the run path reads no position"
        );
        // A replayed flit is not the next run: the auditor leaves the run
        // state and finds duplicates, then continues in order.
        let mut verdicts = Vec::new();
        a.observe_flit(&sent[75..95], |_, verdict| verdicts.push(verdict));
        assert_eq!(verdicts[..15], [DeliveryVerdict::Duplicate; 15]);
        assert_eq!(verdicts[15..], [DeliveryVerdict::InOrder; 5]);
        assert!(!a.has_open_gaps());
        let counts = a.finalize();
        assert_eq!(counts.clean_deliveries, 95);
        assert_eq!(counts.duplicate_deliveries, 15);
        assert_eq!(counts.lost_messages, 25);
    }

    #[test]
    fn a_verdict_reads_only_positions_near_its_cqids_last_delivery() {
        // The baseline-CXL failure at fabric scale: 8 CQIDs × 2 000
        // messages, round-robin; message 0 of CQID 0 is lost, the rest
        // arrive in order, then a go-back-N replay repeats the last 64.
        const REWIND: usize = 64;
        let sent: Vec<Message> = (0..2_000)
            .flat_map(|tag| (0..8).map(move |cqid| req(cqid, tag)))
            .collect();
        let mut a = DeliveryAuditor::for_stream(Arc::new(SentStream::new(sent.clone())));
        let mut observe = |m: &Message| {
            let before = READS.with(Cell::get);
            let verdict = a.observe_delivery(m);
            (verdict, READS.with(Cell::get) - before)
        };

        for m in &sent[1..] {
            let (verdict, reads) = observe(m);
            let want = match m.cqid() {
                0 => DeliveryVerdict::OutOfOrder,
                _ => DeliveryVerdict::InOrder,
            };
            assert_eq!(verdict, want, "{m:?}");
            assert!(reads <= 2, "{m:?}: {verdict:?} read {reads} positions");
        }
        let bound = 2 * REWIND.ilog2() as u64 + 2;
        for m in &sent[sent.len() - REWIND..] {
            let (verdict, reads) = observe(m);
            assert_eq!(verdict, DeliveryVerdict::Duplicate, "{m:?}");
            assert!(reads <= bound, "{m:?}: duplicate read {reads} > {bound}");
        }
        assert!(a.has_open_gaps());
        let counts = a.finalize();
        assert_eq!(counts.ordering_failures, 1_999);
        assert_eq!(counts.duplicate_deliveries, REWIND as u64);
        assert_eq!(counts.lost_messages, 1);
    }
}
