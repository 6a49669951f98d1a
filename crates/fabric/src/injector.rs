//! Per-endpoint injection over a shared message stream.

use std::sync::Arc;

use rxl_flit::Message;
use rxl_link::LinkEndpoint;
use rxl_transport::SentStream;

use crate::probe::{message_key, InjectEvent, Probe};

/// One endpoint's injection state: a handle on the stream it sends (shared
/// with the workload and the receiving auditor — see [`SentStream`]) and two
/// cursors over it. Messages `[0, due)` have *arrived* (their inject events
/// have fired); messages `[0, fed)` have been handed to the transmitter.
///
/// The transmitter never holds the stream: [`Self::feed`] tops it up to one
/// flit's worth of pending messages before each transmit opportunity, which
/// it cannot tell from having been given all of `[0, due)` at once (see
/// [`rxl_link::LinkTx::top_up`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct Injector {
    stream: Arc<SentStream>,
    /// Arrival slot of each message; empty for a greedy injector, whose
    /// messages are all due from the start.
    slots: Vec<u64>,
    due: usize,
    fed: usize,
}

impl Injector {
    /// Everything is due at `begin`.
    pub(crate) fn greedy(stream: Arc<SentStream>) -> Self {
        Injector {
            due: stream.len(),
            stream,
            slots: Vec::new(),
            fed: 0,
        }
    }

    /// Message `i` becomes due at slot `slots[i]` (non-decreasing, one per
    /// message).
    pub(crate) fn paced(stream: Arc<SentStream>, slots: Vec<u64>) -> Self {
        debug_assert_eq!(slots.len(), stream.len());
        Injector {
            stream,
            slots,
            due: 0,
            fed: 0,
        }
    }

    /// Marks every message whose arrival slot is at most `now_slot` due and
    /// returns the ones that just became so.
    pub(crate) fn release(&mut self, now_slot: u64) -> &[Message] {
        let start = self.due;
        while self.due < self.slots.len() && self.slots[self.due] <= now_slot {
            self.due += 1;
        }
        if self.due == start {
            // The common slot: nothing arrived, and the stream is not touched.
            return &[];
        }
        &self.stream[start..self.due]
    }

    /// Tops `endpoint`'s transmitter up from the due, not yet fed messages.
    #[inline]
    pub(crate) fn feed(&mut self, endpoint: &mut LinkEndpoint) {
        if self.fed < self.due {
            self.fed += endpoint.top_up(&self.stream[self.fed..self.due]);
        }
    }

    /// `true` once the transmitter has been handed the whole stream.
    pub(crate) fn exhausted(&self) -> bool {
        self.fed == self.stream.len()
    }
}

/// Opens the inject → deliver span of every message in `msgs` (one
/// `src → dst` batch of `session`, released at `slot`) on the probe. Call
/// sites keep the `if P::ENABLED` guard, like every other emission.
pub(crate) fn inject_events<P: Probe>(
    probe: &mut P,
    slot: u64,
    session: usize,
    src: usize,
    dst: usize,
    downstream: bool,
    msgs: &[Message],
) {
    for m in msgs {
        probe.on_inject(InjectEvent {
            slot,
            session,
            src,
            dst,
            downstream,
            key: message_key(m),
            tag: m.tag(),
        });
    }
}
