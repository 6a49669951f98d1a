//! Structured incident traces: bounded ring buffers of per-message spans
//! and point events, exportable as JSONL or Chrome tracing JSON.
//!
//! A [`TraceRecorder`] records the [`MessageSpan`]s (inject slot → deliver
//! slot, endpoints, verdict) its owning probe's span join closes, and
//! everything without a natural duration — retransmissions, NACKs,
//! blackholes, switch fails/drains, epoch boundaries — as
//! [`InstantEvent`]s. The recorder joins nothing itself: the probe that owns
//! it pairs each message once, in its [`rxl_fabric::SpanJoin`]. Both buffers
//! are bounded rings: when full, the *oldest* entry is evicted and a dropped
//! counter bumps, so a recorder attached to a long run keeps the most recent
//! history at fixed memory.
//!
//! Retransmissions are endpoint-level instants, not sub-events of a span:
//! the transport's go-back-N replay resends *everything* past the
//! cumulative ack point, so a single replay is not attributable to one
//! message.
//!
//! Export formats:
//!
//! * [`TraceRecorder::to_jsonl`] — one JSON object per line, spans and
//!   instants interleaved in slot order; grep/jq-friendly.
//! * [`TraceRecorder::to_chrome_trace`] — the Chrome tracing / Perfetto
//!   JSON object format (`chrome://tracing`, <https://ui.perfetto.dev>):
//!   spans become `ph:"X"` complete events (pid = session, tid =
//!   destination endpoint, ts = inject slot, dur = latency), instants
//!   become `ph:"i"` events.

use std::collections::VecDeque;
use std::fmt::Write as _;

use rxl_fabric::DeliverEvent;
use rxl_transport::DeliveryVerdict;

/// One message's life: injection to delivery, with the auditor's verdict.
#[derive(Clone, Copy, Debug)]
pub struct MessageSpan {
    /// Slot the message became transmittable.
    pub inject_slot: u64,
    /// Slot the destination endpoint delivered it.
    pub deliver_slot: u64,
    /// Workload session the message belongs to.
    pub session: usize,
    /// Source endpoint.
    pub src: usize,
    /// Destination endpoint.
    pub dst: usize,
    /// `true` for host→device direction.
    pub downstream: bool,
    /// Engine message key (unique per destination; see
    /// [`rxl_fabric::message_key`]).
    pub key: u64,
    /// The downstream auditor's classification of the delivery.
    pub verdict: DeliveryVerdict,
}

/// What kind of point event an [`InstantEvent`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstantKind {
    /// A go-back-N retransmission was emitted (`a` = endpoint, `b` =
    /// session).
    Retransmit,
    /// A NACK was emitted (`a` = endpoint, `b` = session).
    Nack,
    /// The auditor classified an undetected drop (`a` = session, `b` =
    /// destination endpoint).
    FailOrder,
    /// A fault-injection blackhole swallowed a flit (`a`, `b` unused).
    Blackhole,
    /// A switch was killed (`a` = switch, `b` = flits purged).
    SwitchFail,
    /// A switch was drained (`a` = switch, `b` unused).
    SwitchDrain,
    /// A chaos epoch boundary was crossed (`a` = epoch index, `b` unused).
    Epoch,
    /// A fanout request completed — all shard spans delivered (`a` =
    /// request index, `b` = arrival→completion latency in slots). Recorded
    /// by the request probe; the shard message spans themselves are the
    /// request's child spans.
    RequestComplete,
}

impl InstantKind {
    fn name(self) -> &'static str {
        match self {
            InstantKind::Retransmit => "retransmit",
            InstantKind::Nack => "nack",
            InstantKind::FailOrder => "fail_order",
            InstantKind::Blackhole => "blackhole",
            InstantKind::SwitchFail => "switch_fail",
            InstantKind::SwitchDrain => "switch_drain",
            InstantKind::Epoch => "epoch",
            InstantKind::RequestComplete => "request_complete",
        }
    }
}

/// A point event: something that happened at one slot.
#[derive(Clone, Copy, Debug)]
pub struct InstantEvent {
    /// Slot the event fired.
    pub slot: u64,
    /// What happened.
    pub kind: InstantKind,
    /// First payload (meaning per [`InstantKind`]).
    pub a: u64,
    /// Second payload (meaning per [`InstantKind`]).
    pub b: u64,
}

/// Bounded ring-buffer recorder of message spans and instant events.
#[derive(Clone, Debug)]
pub struct TraceRecorder {
    capacity: usize,
    open_spans: usize,
    spans: VecDeque<MessageSpan>,
    instants: VecDeque<InstantEvent>,
    dropped_spans: u64,
    dropped_instants: u64,
}

impl TraceRecorder {
    /// A recorder keeping at most `capacity` spans and `capacity` instants
    /// (oldest evicted first).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a trace ring needs a positive capacity");
        TraceRecorder {
            capacity,
            open_spans: 0,
            spans: VecDeque::new(),
            instants: VecDeque::new(),
            dropped_spans: 0,
            dropped_instants: 0,
        }
    }

    /// Counts a span the owning probe opened (a message injected); the meta
    /// line's `open_spans` is what was opened and not yet closed.
    pub fn open_span(&mut self) {
        self.open_spans += 1;
    }

    /// Records the span the owning probe closed on `ev`, the first delivery
    /// of a message injected at `inject_slot`, and counts it closed.
    pub fn close_span(&mut self, inject_slot: u64, ev: DeliverEvent) {
        self.open_spans -= 1;
        if self.spans.len() == self.capacity {
            self.spans.pop_front();
            self.dropped_spans += 1;
        }
        self.spans.push_back(MessageSpan {
            inject_slot,
            deliver_slot: ev.slot,
            session: ev.session,
            src: ev.src,
            dst: ev.dst,
            downstream: ev.downstream,
            key: ev.key,
            verdict: ev.verdict,
        });
    }

    /// Records a point event.
    pub fn instant(&mut self, slot: u64, kind: InstantKind, a: u64, b: u64) {
        if self.instants.len() == self.capacity {
            self.instants.pop_front();
            self.dropped_instants += 1;
        }
        self.instants.push_back(InstantEvent { slot, kind, a, b });
    }

    /// Completed spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &MessageSpan> {
        self.spans.iter()
    }

    /// Instant events, oldest first.
    pub fn instants(&self) -> impl Iterator<Item = &InstantEvent> {
        self.instants.iter()
    }

    /// Spans evicted from the ring.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans
    }

    /// Instants evicted from the ring.
    pub fn dropped_instants(&self) -> u64 {
        self.dropped_instants
    }

    /// JSONL export: one object per line, spans (`"type":"span"`) and
    /// instants (`"type":"instant"`) merged in slot order (span sort key =
    /// inject slot), closed by one `"type":"meta"` line carrying the
    /// ring-truncation counters — a reader that ignores the dropped-span
    /// counter would silently mistake a truncated ring for full coverage.
    pub fn to_jsonl(&self) -> String {
        enum Line<'a> {
            Span(&'a MessageSpan),
            Instant(&'a InstantEvent),
        }
        let mut lines: Vec<(u64, Line<'_>)> = self
            .spans
            .iter()
            .map(|s| (s.inject_slot, Line::Span(s)))
            .chain(self.instants.iter().map(|i| (i.slot, Line::Instant(i))))
            .collect();
        lines.sort_by_key(|(slot, _)| *slot);
        let mut out = String::new();
        for (_, line) in lines {
            match line {
                Line::Span(s) => {
                    let _ = writeln!(
                        out,
                        "{{\"type\":\"span\",\"inject_slot\":{},\"deliver_slot\":{},\
                         \"latency\":{},\"session\":{},\"src\":{},\"dst\":{},\
                         \"downstream\":{},\"key\":{},\"verdict\":\"{:?}\"}}",
                        s.inject_slot,
                        s.deliver_slot,
                        s.deliver_slot - s.inject_slot,
                        s.session,
                        s.src,
                        s.dst,
                        s.downstream,
                        s.key,
                        s.verdict,
                    );
                }
                Line::Instant(i) => {
                    let _ = writeln!(
                        out,
                        "{{\"type\":\"instant\",\"slot\":{},\"kind\":\"{}\",\"a\":{},\"b\":{}}}",
                        i.slot,
                        i.kind.name(),
                        i.a,
                        i.b,
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "{{\"type\":\"meta\",\"spans\":{},\"instants\":{},\"open_spans\":{},\
             \"dropped_spans\":{},\"dropped_instants\":{}}}",
            self.spans.len(),
            self.instants.len(),
            self.open_spans,
            self.dropped_spans,
            self.dropped_instants,
        );
        out
    }

    /// Chrome tracing / Perfetto export (JSON object format). Time unit is
    /// the flit slot, mapped 1:1 onto microseconds for display; spans carry
    /// `pid` = session and `tid` = destination endpoint so per-session
    /// per-endpoint lanes line up. The top-level `otherData` object carries
    /// the ring-truncation counters (`dropped_spans` / `dropped_instants`).
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for s in &self.spans {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"msg {}\",\"cat\":\"message\",\"ph\":\"X\",\"ts\":{},\
                 \"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{\"src\":{},\
                 \"downstream\":{},\"verdict\":\"{:?}\"}}}}",
                s.key,
                s.inject_slot,
                s.deliver_slot - s.inject_slot,
                s.session,
                s.dst,
                s.src,
                s.downstream,
                s.verdict,
            );
        }
        for i in &self.instants {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"fabric\",\"ph\":\"i\",\"ts\":{},\"s\":\"g\",\
                 \"pid\":0,\"tid\":0,\"args\":{{\"a\":{},\"b\":{}}}}}",
                i.kind.name(),
                i.slot,
                i.a,
                i.b,
            );
        }
        let _ = write!(
            out,
            "],\"otherData\":{{\"dropped_spans\":{},\"dropped_instants\":{}}}}}",
            self.dropped_spans, self.dropped_instants,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The clean first delivery of message `key` at `dst`.
    fn deliver(slot: u64, dst: usize, key: u64) -> DeliverEvent {
        DeliverEvent {
            slot,
            session: 1,
            src: 0,
            dst,
            downstream: true,
            key,
            tag: key as u16,
            verdict: DeliveryVerdict::InOrder,
        }
    }

    /// Opens and closes one span, as the owning probe does.
    fn record(t: &mut TraceRecorder, inject_slot: u64, ev: DeliverEvent) {
        t.open_span();
        t.close_span(inject_slot, ev);
    }

    #[test]
    fn open_spans_count_what_the_probe_opened_and_not_yet_closed() {
        let mut t = TraceRecorder::new(8);
        t.open_span();
        t.open_span();
        assert!(t.to_jsonl().contains("\"open_spans\":2"));
        t.close_span(10, deliver(35, 3, 42));
        assert!(t.to_jsonl().contains("\"open_spans\":1"));
        let recorded = t.spans().next().expect("one span");
        assert_eq!(recorded.inject_slot, 10);
        assert_eq!(recorded.deliver_slot, 35);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut t = TraceRecorder::new(2);
        for k in 0..4u64 {
            record(&mut t, k, deliver(k + 5, 0, k));
        }
        assert_eq!(t.spans().count(), 2);
        assert_eq!(t.dropped_spans(), 2);
        assert_eq!(t.spans().next().unwrap().key, 2, "oldest evicted first");
        for s in 0..5u64 {
            t.instant(s, InstantKind::Retransmit, 1, 0);
        }
        assert_eq!(t.instants().count(), 2);
        assert_eq!(t.dropped_instants(), 3);
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line_in_slot_order() {
        let mut t = TraceRecorder::new(8);
        t.instant(50, InstantKind::SwitchFail, 2, 17);
        record(&mut t, 10, deliver(90, 1, 0));
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"type\":\"span\""), "{}", lines[0]);
        assert!(lines[0].contains("\"latency\":80"));
        assert!(lines[1].contains("\"kind\":\"switch_fail\""));
        assert!(lines[2].contains("\"type\":\"meta\""), "{}", lines[2]);
        assert!(lines[2].contains("\"dropped_spans\":0"));
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "{l}");
        }
    }

    #[test]
    fn exports_surface_ring_truncation() {
        let mut t = TraceRecorder::new(2);
        for k in 0..5u64 {
            record(&mut t, k, deliver(k + 3, 0, k));
        }
        let meta = t.to_jsonl();
        let meta_line = meta.lines().last().expect("meta line closes the export");
        assert!(meta_line.contains("\"type\":\"meta\""));
        assert!(meta_line.contains("\"spans\":2"));
        assert!(meta_line.contains("\"dropped_spans\":3"), "{meta_line}");
        let chrome = t.to_chrome_trace();
        assert!(
            chrome.contains("\"otherData\":{\"dropped_spans\":3,\"dropped_instants\":0}"),
            "{chrome}"
        );
    }

    #[test]
    fn chrome_trace_has_complete_and_instant_events() {
        let mut t = TraceRecorder::new(8);
        record(&mut t, 10, deliver(90, 1, 0));
        t.instant(55, InstantKind::Epoch, 1, 0);
        let json = t.to_chrome_trace();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":80"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"epoch\""));
    }
}
