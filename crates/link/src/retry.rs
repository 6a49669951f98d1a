//! The transmit replay buffer.
//!
//! Every transmitted protocol flit is retained until the peer acknowledges it
//! so it can be retransmitted on a NACK (go-back-N) or on a single-flit retry
//! request. The buffer is indexed by sequence number and enforces the
//! sliding-window invariant that at most half the sequence space is in flight.
//!
//! Entries are [`FlitRef`] handles: retaining, replaying and releasing a flit
//! moves a pointer, never the 244-byte flit (see the ownership contract on
//! [`FlitRef`]).

use std::collections::VecDeque;

use crate::seq::{seq_distance, seq_next, SEQ_SPACE};
use crate::tx::FlitRef;

/// One retained flit awaiting acknowledgement.
#[derive(Clone, Debug)]
struct ReplayEntry {
    seq: u16,
    flit: FlitRef,
}

/// A sequence-indexed replay buffer.
#[derive(Clone, Debug)]
pub struct ReplayBuffer {
    entries: VecDeque<ReplayEntry>,
    capacity: usize,
}

impl ReplayBuffer {
    /// Creates a buffer holding at most `capacity` unacknowledged flits.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1);
        assert!(
            capacity < (SEQ_SPACE / 2) as usize,
            "replay capacity must stay below half the sequence space"
        );
        ReplayBuffer {
            entries: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Number of unacknowledged flits currently retained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no flits are outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` if the buffer cannot accept another flit.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The sequence number of the oldest unacknowledged flit, if any.
    pub fn oldest_seq(&self) -> Option<u16> {
        self.entries.front().map(|e| e.seq)
    }

    /// Retains a newly transmitted flit. Panics if the buffer is full or the
    /// sequence number does not directly follow the previously pushed one.
    pub fn push(&mut self, seq: u16, flit: FlitRef) {
        assert!(!self.is_full(), "replay buffer overflow");
        if let Some(back) = self.entries.back() {
            assert_eq!(
                seq,
                seq_next(back.seq),
                "flits must be pushed in sequence order"
            );
        }
        self.entries.push_back(ReplayEntry { seq, flit });
    }

    /// Releases every flit up to and including `ack_seq` (cumulative ACK).
    /// Returns the number of flits released. Acknowledgements for sequence
    /// numbers not currently held — stale (before the oldest) or bogus
    /// (beyond the newest) — are ignored.
    pub fn ack_up_to(&mut self, ack_seq: u16) -> usize {
        let Some(oldest) = self.oldest_seq() else {
            return 0;
        };
        // How many entries does the cumulative ACK cover?
        let span = seq_distance(oldest, ack_seq) as usize + 1;
        if span > self.entries.len() {
            return 0;
        }
        self.entries.drain(..span);
        span
    }

    /// Handles to the retained flits from `from_seq` to the newest, in order,
    /// for a go-back-N retransmission — the flits themselves are not copied.
    /// Empty if `from_seq` is not retained.
    pub fn replay_from(&self, from_seq: u16) -> impl ExactSizeIterator<Item = (u16, FlitRef)> + '_ {
        let skip = match self.oldest_seq() {
            Some(oldest) => (seq_distance(oldest, from_seq) as usize).min(self.entries.len()),
            None => 0,
        };
        self.entries
            .range(skip..)
            .map(|e| (e.seq, FlitRef::clone(&e.flit)))
    }

    /// The single retained flit with sequence `seq`, if present (selective /
    /// single-flit retry).
    pub fn get(&self, seq: u16) -> Option<&FlitRef> {
        let oldest = self.oldest_seq()?;
        let idx = seq_distance(oldest, seq) as usize;
        self.entries
            .get(idx)
            .filter(|e| e.seq == seq)
            .map(|e| &e.flit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxl_flit::{Flit256, FlitHeader};

    fn flit(tag: u16) -> FlitRef {
        let mut f = Flit256::new(FlitHeader::with_seq(tag));
        f.payload[0] = tag as u8;
        FlitRef::new(f)
    }

    #[test]
    fn push_and_cumulative_ack() {
        let mut buf = ReplayBuffer::new(8);
        for s in 0..5u16 {
            buf.push(s, flit(s));
        }
        assert_eq!(buf.len(), 5);
        assert_eq!(buf.oldest_seq(), Some(0));
        assert_eq!(buf.ack_up_to(2), 3);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.oldest_seq(), Some(3));
        assert_eq!(buf.ack_up_to(4), 2);
        assert!(buf.is_empty());
    }

    #[test]
    fn stale_and_out_of_window_acks_are_ignored() {
        let mut buf = ReplayBuffer::new(8);
        for s in 10..14u16 {
            buf.push(s, flit(s));
        }
        // ACK for something already released.
        assert_eq!(buf.ack_up_to(5), 0);
        assert_eq!(buf.len(), 4);
        // ACK far beyond what is held.
        assert_eq!(buf.ack_up_to(200), 0);
        assert_eq!(buf.len(), 4);
    }

    #[test]
    fn replay_from_returns_the_tail_in_order() {
        let mut buf = ReplayBuffer::new(8);
        for s in 0..6u16 {
            buf.push(s, flit(s));
        }
        let replay: Vec<_> = buf.replay_from(3).collect();
        assert_eq!(replay.len(), 3);
        assert_eq!(replay[0].0, 3);
        assert_eq!(replay[2].0, 5);
        assert_eq!(replay[0].1.payload[0], 3);
        // A replayed flit is the retained flit itself, not a copy.
        assert!(FlitRef::ptr_eq(&replay[0].1, buf.get(3).unwrap()));
        assert_eq!(buf.replay_from(9).len(), 0);
        assert_eq!(ReplayBuffer::new(4).replay_from(0).len(), 0);
    }

    #[test]
    fn single_flit_lookup() {
        let mut buf = ReplayBuffer::new(8);
        for s in 100..104u16 {
            buf.push(s, flit(s));
        }
        assert_eq!(buf.get(102).unwrap().payload[0], 102);
        assert!(buf.get(99).is_none());
        assert!(buf.get(104).is_none());
    }

    #[test]
    fn wrap_around_sequences_work() {
        let mut buf = ReplayBuffer::new(8);
        for i in 0..6u16 {
            let s = (1021 + i) & crate::seq::SEQ_MASK;
            buf.push(s, flit(i));
        }
        assert_eq!(buf.oldest_seq(), Some(1021));
        // ACK across the wrap point.
        assert_eq!(buf.ack_up_to(0), 4); // releases 1021,1022,1023,0
        assert_eq!(buf.oldest_seq(), Some(1));
        assert_eq!(buf.replay_from(1).len(), 2);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut buf = ReplayBuffer::new(2);
        buf.push(0, flit(0));
        buf.push(1, flit(1));
        assert!(buf.is_full());
    }

    #[test]
    #[should_panic]
    fn overflow_panics() {
        let mut buf = ReplayBuffer::new(1);
        buf.push(0, flit(0));
        buf.push(1, flit(1));
    }

    #[test]
    #[should_panic]
    fn out_of_order_push_panics() {
        let mut buf = ReplayBuffer::new(4);
        buf.push(0, flit(0));
        buf.push(2, flit(2));
    }
}
