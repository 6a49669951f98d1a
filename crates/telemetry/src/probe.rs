//! [`SloProbe`]: the standard telemetry consumer of the fabric probe seam.
//!
//! One `SloProbe` per trial folds probe events into a
//! [`WindowedTelemetry`] (and, optionally, a [`TraceRecorder`]): injection
//! counts into the injection window, latency + outcome on delivery, counter
//! events into the window they fire in. Latency is computed here — the
//! probe pairs each [`InjectEvent`] with its first delivery through a
//! [`SpanJoin`] carrying the inject slot, and hands each span it closes to
//! the trace recorder, so a traced probe joins every message once.
//!
//! Per the seam's contract the probe never touches the RNG and the engine
//! never reads probe state, so attaching an `SloProbe` leaves every trial
//! outcome byte-identical (pinned by `tests/telemetry_neutrality.rs`).
//! Per-trial probes merge exactly: [`SloProbe::merge`] delegates to the
//! exact [`WindowedTelemetry::merge`], so a Monte-Carlo that merges its
//! trial probes in trial order reports the same windows for any worker
//! thread count.

use rxl_fabric::{ChannelErrorEvent, DeliverEvent, InjectEvent, Probe, SpanJoin};
use rxl_transport::DeliveryVerdict;

use crate::trace::{InstantKind, TraceRecorder};
use crate::window::WindowedTelemetry;

/// A probe accumulating windowed SLO telemetry (and optionally a bounded
/// incident trace) from engine events.
#[derive(Clone, Debug)]
pub struct SloProbe {
    windows: WindowedTelemetry,
    spans: SpanJoin<u64>,
    trace: Option<TraceRecorder>,
}

impl SloProbe {
    /// A probe with `window_slots`-slot windows and no trace recorder.
    pub fn new(window_slots: u64) -> Self {
        SloProbe {
            windows: WindowedTelemetry::new(window_slots),
            spans: SpanJoin::default(),
            trace: None,
        }
    }

    /// A probe that additionally records a bounded incident trace
    /// (`trace_capacity` spans + instants, oldest evicted).
    pub fn with_trace(window_slots: u64, trace_capacity: usize) -> Self {
        SloProbe {
            trace: Some(TraceRecorder::new(trace_capacity)),
            ..SloProbe::new(window_slots)
        }
    }

    /// The accumulated windowed telemetry.
    pub fn windows(&self) -> &WindowedTelemetry {
        &self.windows
    }

    /// The trace recorder, if this probe was built with one.
    pub fn trace(&self) -> Option<&TraceRecorder> {
        self.trace.as_ref()
    }

    /// Messages injected but never delivered (in flight at run end, or
    /// lost).
    pub fn unresolved(&self) -> usize {
        self.spans.live()
    }

    /// Merges another trial's telemetry in (exact; panics on differing
    /// window lengths). Traces do not merge — each trial's trace stands
    /// alone.
    pub fn merge(&mut self, other: &SloProbe) {
        self.windows.merge(&other.windows);
    }
}

impl Probe for SloProbe {
    fn on_inject(&mut self, ev: InjectEvent) {
        self.windows.record_inject(ev.slot);
        self.spans.open(ev.dst, ev.tag, ev.key, ev.slot);
        if let Some(trace) = &mut self.trace {
            trace.open_span();
        }
    }

    fn on_deliver(&mut self, ev: DeliverEvent) {
        // Duplicate deliveries find no open span: the first delivery
        // consumed it, which is exactly the single-span-per-message
        // semantics we want.
        let Some(inject_slot) = self.spans.close(ev.dst, ev.tag, ev.key) else {
            return;
        };
        self.windows.record_latency(ev.slot, ev.slot - inject_slot);
        self.windows
            .record_outcome(inject_slot, ev.verdict == DeliveryVerdict::InOrder);
        if let Some(trace) = &mut self.trace {
            trace.close_span(inject_slot, ev);
        }
    }

    fn on_fail_order(&mut self, slot: u64, session: usize, dst: usize) {
        self.windows.record_fail_order(slot);
        if let Some(trace) = &mut self.trace {
            trace.instant(slot, InstantKind::FailOrder, session as u64, dst as u64);
        }
    }

    fn on_retransmit(&mut self, slot: u64, endpoint: usize, session: usize) {
        self.windows.record_retransmit(slot);
        if let Some(trace) = &mut self.trace {
            trace.instant(
                slot,
                InstantKind::Retransmit,
                endpoint as u64,
                session as u64,
            );
        }
    }

    fn on_nack(&mut self, slot: u64, endpoint: usize, session: usize) {
        self.windows.record_nack(slot);
        if let Some(trace) = &mut self.trace {
            trace.instant(slot, InstantKind::Nack, endpoint as u64, session as u64);
        }
    }

    fn on_credit_stall(
        &mut self,
        slot: u64,
        _switch: usize,
        _port: Option<usize>,
        _vc: Option<usize>,
    ) {
        // Counter only: stalls fire per held flit per slot, far too hot for
        // the trace ring. Per-port/per-lane attribution is MetricsProbe's
        // job (see `crate::metrics`).
        self.windows.record_credit_stall(slot);
    }

    fn on_channel_error(&mut self, ev: ChannelErrorEvent) {
        self.windows.record_channel_error(ev.slot);
    }

    fn on_blackhole(&mut self, slot: u64, switch: usize) {
        self.windows.record_blackhole(slot);
        if let Some(trace) = &mut self.trace {
            trace.instant(slot, InstantKind::Blackhole, switch as u64, 0);
        }
    }

    fn on_switch_fail(&mut self, slot: u64, switch: usize, purged_flits: u64) {
        self.windows.record_switch_event(slot);
        if let Some(trace) = &mut self.trace {
            trace.instant(slot, InstantKind::SwitchFail, switch as u64, purged_flits);
        }
    }

    fn on_switch_drain(&mut self, slot: u64, switch: usize) {
        self.windows.record_switch_event(slot);
        if let Some(trace) = &mut self.trace {
            trace.instant(slot, InstantKind::SwitchDrain, switch as u64, 0);
        }
    }

    fn on_epoch(&mut self, slot: u64, epoch: usize) {
        if let Some(trace) = &mut self.trace {
            trace.instant(slot, InstantKind::Epoch, epoch as u64, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inject(slot: u64, dst: usize, key: u64) -> InjectEvent {
        InjectEvent {
            slot,
            session: 0,
            src: 1,
            dst,
            downstream: true,
            key,
            tag: key as u16,
        }
    }

    fn deliver(slot: u64, dst: usize, key: u64, verdict: DeliveryVerdict) -> DeliverEvent {
        DeliverEvent {
            slot,
            session: 0,
            src: 1,
            dst,
            downstream: true,
            key,
            tag: key as u16,
            verdict,
        }
    }

    #[test]
    fn pairs_injection_with_delivery_and_attributes_windows() {
        let mut p = SloProbe::new(100);
        p.on_inject(inject(40, 2, 9));
        p.on_deliver(deliver(250, 2, 9, DeliveryVerdict::InOrder));
        let stats = p.windows().stats();
        assert_eq!(stats[0].injected, 1);
        assert_eq!(stats[0].clean, 1);
        assert_eq!(stats[2].deliveries, 1);
        assert_eq!(stats[2].latency.max, 210);
        assert_eq!(p.unresolved(), 0);
    }

    #[test]
    fn duplicates_and_corruption_are_not_clean() {
        let mut p = SloProbe::new(10);
        p.on_inject(inject(0, 1, 0));
        p.on_deliver(deliver(5, 1, 0, DeliveryVerdict::Corrupted));
        // A duplicate of the same message records nothing further.
        p.on_deliver(deliver(6, 1, 0, DeliveryVerdict::Duplicate));
        let s = &p.windows().stats()[0];
        assert_eq!(s.injected, 1);
        assert_eq!(s.clean, 0);
        assert_eq!(s.deliveries, 1);
        assert_eq!(s.availability, 0.0);
    }

    #[test]
    fn lost_messages_stay_unresolved() {
        let mut p = SloProbe::new(10);
        p.on_inject(inject(3, 1, 0));
        p.on_inject(inject(4, 1, 1));
        p.on_deliver(deliver(8, 1, 1, DeliveryVerdict::InOrder));
        assert_eq!(p.unresolved(), 1);
        let s = &p.windows().stats()[0];
        assert_eq!(s.injected, 2);
        assert_eq!(s.clean, 1);
        assert!((s.availability - 0.5).abs() < 1e-12);
    }

    #[test]
    fn trace_records_spans_and_instants_when_enabled() {
        let mut p = SloProbe::with_trace(10, 16);
        p.on_inject(inject(1, 1, 0));
        p.on_deliver(deliver(7, 1, 0, DeliveryVerdict::InOrder));
        p.on_retransmit(4, 2, 0);
        p.on_epoch(5, 1);
        let trace = p.trace().expect("trace enabled");
        assert_eq!(trace.spans().count(), 1);
        assert_eq!(trace.instants().count(), 2);
        let mut bare = SloProbe::new(10);
        bare.on_retransmit(4, 2, 0);
        assert!(bare.trace().is_none());
    }

    #[test]
    fn merge_combines_windows_exactly() {
        let mut a = SloProbe::new(50);
        a.on_inject(inject(10, 1, 0));
        a.on_deliver(deliver(20, 1, 0, DeliveryVerdict::InOrder));
        let mut b = SloProbe::new(50);
        b.on_inject(inject(60, 1, 0));
        b.on_deliver(deliver(80, 1, 0, DeliveryVerdict::InOrder));
        a.merge(&b);
        let stats = a.windows().stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].injected + stats[1].injected, 2);
        assert_eq!(stats[0].deliveries, 1);
        assert_eq!(stats[1].deliveries, 1);
    }
}
