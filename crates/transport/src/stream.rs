//! A message stream registered once and shared by every trial that sends it.

#[cfg(test)]
use std::cell::Cell;
use std::cmp::Ordering;
use std::fmt;
use std::ops::Deref;
use std::sync::OnceLock;

use rxl_flit::Message;

#[cfg(test)]
thread_local! {
    /// Stream messages read by audit verdicts on this thread, in test builds
    /// only: it pins what a verdict costs, not just what it answers.
    pub(crate) static READS: Cell<u64> = const { Cell::new(0) };
}

/// The message at stream position `p`, read on behalf of a verdict (and
/// counted in `READS` in test builds).
#[inline(always)]
pub(crate) fn read_at(msgs: &[Message], p: u32) -> &Message {
    #[cfg(test)]
    READS.with(|reads| reads.set(reads.get() + 1));
    &msgs[p as usize]
}

/// One direction's messages in send order — the ground truth an injector
/// feeds from and a [`crate::DeliveryAuditor`] judges deliveries against.
///
/// A Monte-Carlo experiment runs many channel seeds over *one* workload, so
/// the workload is a value built once and handed to every trial as an
/// `Arc<SentStream>`; no trial copies a [`Message`] to inject or audit it.
///
/// # Ownership contract
///
/// * **The messages never change after [`SentStream::new`]**: every holder
///   of a handle reads the same immutable slice (through `Deref`).
/// * The **position index** (per CQID, the stream positions of its messages
///   in send order, checked for unique identities) is built at most once,
///   under a [`OnceLock`], by the first auditor created over the stream
///   ([`crate::DeliveryAuditor::for_stream`]) — never at construction, so
///   wrapping a `Vec<Message>` is a move — and read by every later one, on
///   any thread. A verdict reads it from the rank after its CQID's last
///   delivery and searches outward from there only on a miss.
/// * **Who holds handles**: the workload that built the stream, for as long
///   as the experiment runs; each trial's injector, from `begin` until the
///   trial is dropped; each trial's auditor, from `begin` until `finalize`.
///   The stream is freed when the last of them goes.
/// * An auditor built with `new()` + `record_sent` owns a private stream
///   and extends it (messages and index together) as it registers; a stream
///   that is shared is never extended — a clone of such an auditor that
///   registers more detaches onto its own copy first.
#[derive(Clone, Default)]
pub struct SentStream {
    msgs: Vec<Message>,
    index: OnceLock<StreamIndex>,
}

/// Per-CQID send-order positions over one [`SentStream`].
#[derive(Clone, Debug, Default)]
pub(crate) struct StreamIndex {
    /// `cqid_slot[cqid]` → index into `cqs` ([`NO_CQID`] if unregistered).
    /// Grown to the highest registered CQID + 1; CQIDs are 16-bit, so the
    /// worst case is a 256 KiB table and the typical workload a few words.
    cqid_slot: Vec<u32>,
    pub(crate) cqs: Vec<CqidIndex>,
}

/// The messages of one CQID: where each sits in the stream, in send order.
///
/// A delivery usually follows the previous one of its CQID: in order on a
/// quiet link, and still one rank on during a run delivered past a lost
/// message or a go-back-N duplicate window. So an auditor classifies one by
/// comparing it with the message one rank after the CQID's last delivery —
/// no hashing, no probing, sequential access. Workload generators register
/// identities in increasing order, which keeps `sorted` true; a miss then
/// searches outward from that rank ([`Self::find`]), costing O(log
/// distance). An unsorted registration order merely downgrades the miss to
/// a linear scan.
#[derive(Clone, Debug)]
pub(crate) struct CqidIndex {
    pub(crate) positions: Vec<u32>,
    /// `true` while the identities at `positions` are strictly increasing.
    sorted: bool,
}

/// Sentinel in [`StreamIndex::cqid_slot`] for a CQID never registered.
const NO_CQID: u32 = u32::MAX;

/// Identity of a message *within its CQID*, packed as
/// `tag:16 | kind:8 | chunk:8` (the CQID itself selects the per-CQID
/// position list, so it needs no representation here).
#[inline]
pub(crate) fn ident_of(msg: &Message) -> u32 {
    let (kind, chunk) = match msg {
        Message::Request { .. } => (0u8, 0u8),
        Message::Response { .. } => (1, 0),
        Message::DataHeader { .. } => (2, 0),
        Message::Data { chunk_idx, .. } => (3, *chunk_idx),
    };
    (msg.tag() as u32) << 16 | (kind as u32) << 8 | chunk as u32
}

impl StreamIndex {
    /// Registers `msg` as the message at stream position `pos`; `msgs` holds
    /// (at least) every earlier position, all registered already. Panics if
    /// the identity was registered before.
    fn register(&mut self, msgs: &[Message], msg: &Message, pos: usize) {
        let pos32 = u32::try_from(pos).expect("a stream holds at most u32::MAX messages");
        let cqid = msg.cqid() as usize;
        if self.cqid_slot.len() <= cqid {
            self.cqid_slot.resize(cqid + 1, NO_CQID);
        }
        if self.cqid_slot[cqid] == NO_CQID {
            self.cqid_slot[cqid] = self.cqs.len() as u32;
            self.cqs.push(CqidIndex {
                positions: Vec::new(),
                sorted: true,
            });
        }
        let cq = &mut self.cqs[self.cqid_slot[cqid] as usize];
        let ident = ident_of(msg);
        // Uniqueness check: free while registration order is strictly
        // increasing by identity (every workload generator's order); a
        // non-monotonic registration falls back to a scan.
        let unique = match cq.positions.last() {
            None => true,
            Some(&last) if cq.sorted && ident_of(&msgs[last as usize]) < ident => true,
            _ => {
                cq.sorted = false;
                cq.positions
                    .iter()
                    .all(|&p| ident_of(&msgs[p as usize]) != ident)
            }
        };
        assert!(
            unique,
            "duplicate message identity registered: cqid {} ident {ident:#010x}",
            msg.cqid()
        );
        cq.positions.push(pos32);
    }

    /// Slot in [`Self::cqs`] of `cqid`, if any message of it was registered.
    #[inline]
    pub(crate) fn slot_of(&self, cqid: u16) -> Option<usize> {
        match self.cqid_slot.get(cqid as usize) {
            Some(&slot) if slot != NO_CQID => Some(slot as usize),
            _ => None,
        }
    }
}

impl CqidIndex {
    /// Send-order rank within this CQID of the message with `msg`'s
    /// identity, if one was registered, searched for near rank `hint`
    /// (at most the CQID's length): the caller has already compared `msg`
    /// with the message at `hint` and found it different.
    ///
    /// On a sorted index the search steps outward from `hint` by 1, 2, 4, …
    /// ranks until it brackets the identity, then binary-searches only
    /// inside the bracket, so a rank `d` away costs O(log d) reads.
    #[cold]
    #[inline(never)]
    pub(crate) fn find(&self, msgs: &[Message], msg: &Message, hint: usize) -> Option<usize> {
        let ident = ident_of(msg);
        let ident_at_pos = |p: u32| ident_of(read_at(msgs, p));
        let ident_at = |rank: usize| ident_at_pos(self.positions[rank]);
        let n = self.positions.len();
        if !self.sorted {
            return (0..n).find(|&rank| ident_at(rank) == ident);
        }
        // The identity, if registered, lies in ranks `lo..hi`. The rank at
        // `hint` is re-read uncounted: the caller's compare counted it.
        let (mut lo, mut hi) = (0, n);
        let below = match self.positions.get(hint) {
            None => true,
            Some(&p) => match ident.cmp(&ident_of(&msgs[p as usize])) {
                Ordering::Equal => return Some(hint),
                Ordering::Less => true,
                Ordering::Greater => false,
            },
        };
        let mut step = 1;
        if below {
            hi = hint;
            while step <= hint {
                let rank = hint - step;
                match ident.cmp(&ident_at(rank)) {
                    Ordering::Equal => return Some(rank),
                    Ordering::Greater => {
                        lo = rank + 1;
                        break;
                    }
                    Ordering::Less => hi = rank,
                }
                step *= 2;
            }
        } else {
            lo = hint + 1;
            while hint + step < n {
                let rank = hint + step;
                match ident.cmp(&ident_at(rank)) {
                    Ordering::Equal => return Some(rank),
                    Ordering::Less => {
                        hi = rank;
                        break;
                    }
                    Ordering::Greater => lo = rank + 1,
                }
                step *= 2;
            }
        }
        self.positions[lo..hi]
            .binary_search_by(|&p| ident_at_pos(p).cmp(&ident))
            .ok()
            .map(|i| lo + i)
    }
}

impl SentStream {
    /// Wraps `msgs` (send order) by move; the index is built on first use.
    pub fn new(msgs: Vec<Message>) -> Self {
        SentStream {
            msgs,
            index: OnceLock::new(),
        }
    }

    /// The position index, built (and uniqueness-checked) on first call.
    pub(crate) fn index(&self) -> &StreamIndex {
        self.index.get_or_init(|| {
            let mut index = StreamIndex::default();
            for (pos, msg) in self.msgs.iter().enumerate() {
                index.register(&self.msgs, msg, pos);
            }
            index
        })
    }

    /// Appends one message, extending the index with it (an auditor growing
    /// its private stream).
    pub(crate) fn push(&mut self, msg: Message) {
        self.index();
        self.index
            .get_mut()
            .expect("index was built just above")
            .register(&self.msgs, &msg, self.msgs.len());
        self.msgs.push(msg);
    }
}

impl Deref for SentStream {
    type Target = [Message];

    #[inline]
    fn deref(&self) -> &[Message] {
        &self.msgs
    }
}

/// The messages only — the same text whether or not the index exists yet.
impl fmt::Debug for SentStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.msgs.fmt(f)
    }
}
