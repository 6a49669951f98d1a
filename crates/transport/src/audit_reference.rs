//! Test-only oracle for [`DeliveryAuditor`]: the auditor as it was before
//! streams became shared values. It copies every registered message into a
//! per-CQID record with its own `delivered` flag — slow and memory-hungry,
//! but with nothing shared and no bit arithmetic there is nothing to get
//! wrong. The differential property below drives it and the real auditor
//! with the same random streams and delivery scripts and demands identical
//! verdicts and counters after every step.

use std::sync::{Arc, Barrier};

use proptest::prelude::*;
use rxl_flit::{MemOp, Message, RspStatus};

use crate::audit::{DeliveryAuditor, DeliveryVerdict};
use crate::failure::FailureCounts;
use crate::stream::{ident_of, SentStream};

struct SentRecord {
    ident: u32,
    delivered: bool,
    message: Message,
}

/// Audit state of one CQID: the registered messages in send order plus the
/// delivery cursor.
struct CqidAudit {
    records: Vec<SentRecord>,
    next_undelivered: usize,
    delivered_count: usize,
    sorted: bool,
}

impl CqidAudit {
    fn gapped(&self) -> bool {
        self.delivered_count > self.next_undelivered
    }
}

#[derive(Default)]
struct ReferenceAuditor {
    /// `(cqid, its audit)`, in first-registration order.
    cqs: Vec<(u16, CqidAudit)>,
    counts: FailureCounts,
    gapped_cqids: usize,
    registered: usize,
    delivered_unique: usize,
}

impl ReferenceAuditor {
    fn record_sent(&mut self, msg: &Message) {
        let slot = match self.cqs.iter().position(|(c, _)| *c == msg.cqid()) {
            Some(slot) => slot,
            None => {
                self.cqs.push((
                    msg.cqid(),
                    CqidAudit {
                        records: Vec::new(),
                        next_undelivered: 0,
                        delivered_count: 0,
                        sorted: true,
                    },
                ));
                self.cqs.len() - 1
            }
        };
        let cq = &mut self.cqs[slot].1;
        let ident = ident_of(msg);
        let unique = match cq.records.last() {
            None => true,
            Some(last) if cq.sorted && last.ident < ident => true,
            _ => {
                cq.sorted = false;
                cq.records.iter().all(|r| r.ident != ident)
            }
        };
        assert!(unique, "duplicate message identity registered");
        cq.records.push(SentRecord {
            ident,
            delivered: false,
            message: *msg,
        });
        self.registered += 1;
    }

    fn observe_delivery(&mut self, msg: &Message) -> DeliveryVerdict {
        let ident = ident_of(msg);
        let Some(slot) = self.cqs.iter().position(|(c, _)| *c == msg.cqid()) else {
            self.counts.data_failures += 1;
            return DeliveryVerdict::Unexpected;
        };
        let cq = &mut self.cqs[slot].1;
        let order = if cq.next_undelivered < cq.records.len()
            && cq.records[cq.next_undelivered].ident == ident
        {
            cq.next_undelivered
        } else {
            let found = if cq.sorted {
                cq.records.binary_search_by_key(&ident, |r| r.ident).ok()
            } else {
                cq.records.iter().position(|r| r.ident == ident)
            };
            match found {
                Some(i) => i,
                None => {
                    self.counts.data_failures += 1;
                    return DeliveryVerdict::Unexpected;
                }
            }
        };
        let record = &mut cq.records[order];
        if record.delivered {
            self.counts.duplicate_deliveries += 1;
            return DeliveryVerdict::Duplicate;
        }
        record.delivered = true;
        let intact = record.message == *msg;
        let was_gapped = cq.gapped();
        cq.delivered_count += 1;
        self.delivered_unique += 1;
        let in_order = order == cq.next_undelivered;
        while cq.next_undelivered < cq.records.len() && cq.records[cq.next_undelivered].delivered {
            cq.next_undelivered += 1;
        }
        match (was_gapped, cq.gapped()) {
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

    fn has_open_gaps(&self) -> bool {
        self.gapped_cqids > 0
    }

    fn all_delivered(&self) -> bool {
        self.delivered_unique == self.registered
    }

    fn finalize(mut self) -> FailureCounts {
        self.counts.lost_messages += (self.registered - self.delivered_unique) as u64;
        self.counts
    }
}

/// A message with identity `(cqid, tag, kind, chunk)`; `salt` varies the
/// content that is *not* identity (address, status, chunk count, bytes), so
/// two salts give a message and a corrupted copy of it.
fn message(cqid: u16, tag: u16, kind: u8, chunk: u8, salt: u8) -> Message {
    match kind % 4 {
        0 => Message::request(MemOp::RdCurr, (tag as u64) << 8 | salt as u64, cqid, tag),
        1 => Message::Response {
            cqid,
            tag,
            status: RspStatus::from_bits(salt % 3),
        },
        2 => Message::DataHeader {
            cqid,
            tag,
            chunks: salt,
        },
        _ => Message::data(cqid, tag, chunk, [salt; 8]),
    }
}

/// A stream of unique identities from raw draws: a handful of CQIDs, tags
/// from a range small enough that Data chunks share them. `sorted` orders it
/// by identity (the workload generators' order); otherwise it stays as
/// drawn, which exercises the linear-scan paths.
fn stream_of(draws: &[(u8, u8, u8, u8)], sorted: bool) -> Vec<Message> {
    let mut msgs: Vec<Message> = Vec::new();
    for &(cqid, tag, kind, chunk) in draws {
        let m = message(cqid as u16 % 5, tag as u16 % 24, kind, chunk % 3, 0);
        if msgs
            .iter()
            .all(|o| (o.cqid(), ident_of(o)) != (m.cqid(), ident_of(&m)))
        {
            msgs.push(m);
        }
    }
    if sorted {
        msgs.sort_by_key(ident_of);
    }
    msgs
}

/// A stream shaped like a fabric workload's: one message per draw, on CQID
/// `cqid % cqids`, each CQID's tags counting up from 0 — so every CQID
/// holds a long run of identities, increasing in registration order when
/// `sorted` and scrambled (in blocks of 64) otherwise.
fn long_stream(draws: &[(u8, u8, u8)], cqids: u8, sorted: bool) -> Vec<Message> {
    let mut next_tag = [0u16; 256];
    draws
        .iter()
        .map(|&(cqid, kind, chunk)| {
            let cqid = cqid % cqids;
            let n = next_tag[cqid as usize];
            next_tag[cqid as usize] += 1;
            let tag = if sorted { n } else { n ^ 0x2d };
            message(cqid as u16, tag, kind, chunk, 0)
        })
        .collect()
}

/// One scripted delivery over `stream` (non-empty): in-send-order walks,
/// random picks (reordering, duplicates, and — by omission — drops),
/// corrupted copies, never-sent identities, and the walk's CXL-shaped
/// jumps.
fn delivery(stream: &[Message], walk: &mut usize, op: u8, arg: u16) -> Message {
    let pick = stream[arg as usize % stream.len()];
    let k = arg as usize % (stream.len() + 1);
    let step = |walk: &mut usize| {
        *walk += 1;
        stream[(*walk - 1) % stream.len()]
    };
    match op {
        0..=2 => step(walk),
        // A drop: the walk skips `k` messages, so each later delivery of
        // the same CQID lands ahead of a lost one.
        10 => {
            *walk += k;
            step(walk)
        }
        // A rewind: the walk steps back `k`, a go-back-N duplicate window.
        11 => {
            *walk = walk.saturating_sub(k);
            step(walk)
        }
        3 | 4 => pick,
        5 => {
            let (kind, chunk) = ((ident_of(&pick) >> 8) as u8, ident_of(&pick) as u8);
            message(
                pick.cqid(),
                pick.tag(),
                kind,
                chunk,
                1 + (arg >> 8) as u8 % 2,
            )
        }
        // A CQID no stream uses, or a tag past the drawn range.
        6 => message(9, arg, (arg >> 4) as u8, 0, 0),
        _ => message(pick.cqid(), 1000 + arg % 50, (arg >> 4) as u8, 0, 0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random multi-CQID streams and random delivery scripts, with
    /// late registrations interleaved: the shared-stream auditor (built
    /// either way) and the record-copying reference give the same verdict
    /// sequence and the same `counts()` / `has_open_gaps()` /
    /// `all_delivered()` after every step, and the same `finalize()`.
    #[test]
    fn shared_stream_auditor_matches_the_record_copying_reference(
        draws in proptest::collection::vec((any::<u8>(), any::<u8>(), 0u8..4, any::<u8>()), 0..90),
        late in proptest::collection::vec((any::<u8>(), any::<u8>(), 0u8..4, any::<u8>()), 0..12),
        sorted in any::<bool>(),
        shared in any::<bool>(),
        script in proptest::collection::vec((0u8..10, any::<u16>()), 0..250),
    ) {
        let mut stream = stream_of(&draws, sorted);
        // Late registrations use tags the initial stream cannot hold.
        let mut late: Vec<Message> = stream_of(&late, sorted)
            .iter()
            .map(|m| message(m.cqid(), m.tag() + 24, (ident_of(m) >> 8) as u8, ident_of(m) as u8, 0))
            .collect();
        if sorted {
            // `pop` then registers in increasing identity order too.
            late.reverse();
        }

        let mut reference = ReferenceAuditor::default();
        stream.iter().for_each(|m| reference.record_sent(m));
        let mut audit = if shared {
            DeliveryAuditor::for_stream(Arc::new(SentStream::new(stream.clone())))
        } else {
            let mut a = DeliveryAuditor::new();
            stream.iter().for_each(|m| a.record_sent(m));
            a
        };
        prop_assert_eq!(audit.sent_count(), stream.len());

        let mut walk = 0usize;
        for (op, arg) in script {
            if op == 9 {
                // `record_sent` after deliveries began (on a shared stream
                // this detaches the auditor onto its own copy).
                if let Some(m) = late.pop() {
                    audit.record_sent(&m);
                    reference.record_sent(&m);
                    stream.push(m);
                }
            } else if !stream.is_empty() {
                let m = delivery(&stream, &mut walk, op, arg);
                prop_assert_eq!(audit.observe_delivery(&m), reference.observe_delivery(&m));
            }
            prop_assert_eq!(audit.counts(), &reference.counts);
            prop_assert_eq!(audit.has_open_gaps(), reference.has_open_gaps());
            prop_assert_eq!(audit.all_delivered(), reference.all_delivered());
            prop_assert_eq!(audit.sent_count(), reference.registered);
        }
        prop_assert_eq!(audit.finalize(), reference.finalize());
    }

    /// CXL-shaped traffic over long per-CQID runs: mostly in-order walks,
    /// with drops (runs delivered ahead of a lost message) and rewinds
    /// (go-back-N duplicate windows) of up to the whole stream, plus the
    /// occasional pick, corrupted copy or never-sent identity. The auditor
    /// and the reference agree after every step and at `finalize()`.
    #[test]
    fn cxl_shaped_walks_match_the_record_copying_reference(
        draws in proptest::collection::vec((any::<u8>(), any::<u8>(), 0u8..3), 1..400),
        cqids in 1u8..5,
        sorted in any::<bool>(),
        shared in any::<bool>(),
        script in proptest::collection::vec((any::<u8>(), any::<u16>()), 0..600),
    ) {
        let stream = long_stream(&draws, cqids, sorted);
        let mut reference = ReferenceAuditor::default();
        stream.iter().for_each(|m| reference.record_sent(m));
        let mut audit = if shared {
            DeliveryAuditor::for_stream(Arc::new(SentStream::new(stream.clone())))
        } else {
            let mut a = DeliveryAuditor::new();
            stream.iter().for_each(|m| a.record_sent(m));
            a
        };

        let mut walk = 0usize;
        for (op, arg) in script {
            // Of 17 steps: 9 walk, 3 drop, 2 rewind, and one each picks,
            // corrupts or invents a message.
            let op = [0, 0, 0, 0, 0, 0, 0, 0, 0, 10, 10, 10, 11, 11, 3, 5, 7][op as usize % 17];
            let m = delivery(&stream, &mut walk, op, arg);
            prop_assert_eq!(audit.observe_delivery(&m), reference.observe_delivery(&m));
            prop_assert_eq!(audit.counts(), &reference.counts);
            prop_assert_eq!(audit.has_open_gaps(), reference.has_open_gaps());
            prop_assert_eq!(audit.all_delivered(), reference.all_delivered());
        }
        prop_assert_eq!(audit.finalize(), reference.finalize());
    }
}

/// Two auditors over one `Arc<SentStream>` on two threads — racing to build
/// its index — agree with two private ones fed by `record_sent`.
#[test]
fn auditors_sharing_one_stream_across_threads_agree_with_private_ones() {
    let draws: Vec<(u8, u8, u8, u8)> = (0..400u32)
        .map(|i| (i as u8, (i / 5) as u8, (i % 4) as u8, (i / 7) as u8))
        .collect();
    let stream = stream_of(&draws, true);
    // Script `t` walks the stream in order, but every (5 + t)-th step
    // delivers a random pick instead and every 11th a corrupted copy; the
    // walk therefore never reaches the tail, which is lost.
    let script = |t: usize| -> Vec<Message> {
        let mut walk = 0;
        (0..stream.len())
            .map(|i| {
                let op = if i % (5 + t) == 0 {
                    3
                } else if i % 11 == 0 {
                    5
                } else {
                    0
                };
                delivery(&stream, &mut walk, op, (i * 7) as u16)
            })
            .collect()
    };
    let run = |mut audit: DeliveryAuditor, script: &[Message]| {
        let verdicts: Vec<DeliveryVerdict> =
            script.iter().map(|m| audit.observe_delivery(m)).collect();
        (verdicts, audit.has_open_gaps(), audit.finalize())
    };

    let shared = Arc::new(SentStream::new(stream.clone()));
    let barrier = Barrier::new(2);
    let concurrent: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let (shared, barrier, script) = (Arc::clone(&shared), &barrier, script(t));
                scope.spawn(move || {
                    // Both threads reach `for_stream` (the index build)
                    // together.
                    barrier.wait();
                    run(DeliveryAuditor::for_stream(shared), &script)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("audit thread panicked"))
            .collect()
    });

    for (t, got) in concurrent.iter().enumerate() {
        let mut private = DeliveryAuditor::new();
        stream.iter().for_each(|m| private.record_sent(m));
        let want = run(private, &script(t));
        assert_eq!(got, &want, "thread {t}");
        assert!(want.2.lost_messages > 0 && want.2.duplicate_deliveries > 0);
    }
}
