//! Scenario timelines: deterministic sequences of epochal fault events.
//!
//! A [`Scenario`] is a list of [`TimedEvent`]s applied to named links and
//! switches of a `FabricTopology` at configured slot times. Scenarios carry
//! no RNG of their own — all randomness stays inside the trial's single
//! seeded RNG — so a scenario run is exactly as seed-reproducible as a
//! scenario-free one, and the sharded Monte-Carlo in [`crate::montecarlo`]
//! stays bit-identical across worker-thread counts.
//!
//! The timeline is compiled into **epochs**: the sorted set of slot
//! boundaries at which any event starts or expires. At each boundary the
//! scenario runner recomputes the effective channel of every targeted link
//! from scratch (degrade base → storm scaling), applies switch
//! drains/failures, and resumes the simulation until the next boundary —
//! which is where the per-epoch failure counts of the chaos reports come
//! from.

use rxl_fabric::{FabricTopology, LinkId};
use rxl_link::{Channel, ChannelErrorModel};

use crate::channels::{BerSchedule, GilbertElliott};

/// A cloneable description of a channel, instantiated into a fresh
/// [`Channel`] trait object per trial (stateful channels like
/// [`GilbertElliott`] must not share state across trials). Specs compare
/// with `==` so the scenario runner can tell whether a link's effective
/// channel actually changed at an epoch boundary — an unchanged spec keeps
/// its live channel object (and any accumulated state) installed.
#[derive(Clone, Debug, PartialEq)]
pub enum ChannelSpec {
    /// The stationary independent-bit-error model.
    Static(ChannelErrorModel),
    /// A two-state bursty channel.
    GilbertElliott(GilbertElliott),
    /// A piecewise BER schedule. Inside a spec the segment starts are
    /// denominated in **slots** (like every other scenario time) and are
    /// converted to simulation nanoseconds by [`Self::instantiate`];
    /// a raw `BerSchedule` used directly as a `Channel` is in nanoseconds.
    Schedule(BerSchedule),
}

impl ChannelSpec {
    /// Builds a fresh channel object for one trial. `flit_time_ns` converts
    /// this spec's slot-denominated times (schedule segment starts) into
    /// simulation nanoseconds.
    pub fn instantiate(&self, flit_time_ns: f64) -> Box<dyn Channel> {
        match self {
            ChannelSpec::Static(m) => Box::new(*m),
            ChannelSpec::GilbertElliott(ge) => Box::new(*ge),
            ChannelSpec::Schedule(s) => Box::new(s.with_time_scale(flit_time_ns)),
        }
    }

    /// The spec with its BER(s) scaled by `factor` — how BER storms compose
    /// over already-degraded links. Scaling clamps into `[0, 1)` via
    /// `ChannelErrorModel::scaled`.
    pub fn scaled(&self, factor: f64) -> ChannelSpec {
        match self {
            ChannelSpec::Static(m) => ChannelSpec::Static(m.scaled(factor)),
            ChannelSpec::GilbertElliott(ge) => ChannelSpec::GilbertElliott(ge.scaled(factor)),
            ChannelSpec::Schedule(s) => ChannelSpec::Schedule(s.scaled(factor)),
        }
    }
}

/// One fault-injection action.
#[derive(Clone, Debug)]
pub enum ChaosEvent {
    /// Multiplies the BER of `links` by `factor` for `duration` slots — a
    /// localized error-rate storm.
    BerStorm {
        /// Links the storm hits.
        links: Vec<LinkId>,
        /// Multiplicative BER acceleration (clamped into `[0, 1)`).
        factor: f64,
        /// Storm length in slots.
        duration: u64,
    },
    /// Permanently replaces the channel of `links` (until a later degrade
    /// replaces it again) — a cable gone marginal.
    LinkDegrade {
        /// Links degraded.
        links: Vec<LinkId>,
        /// Their new channel.
        channel: ChannelSpec,
    },
    /// Gracefully drains a switch: recomputed routes avoid it as a transit
    /// hop while its endpoints stay reachable and its queues keep
    /// forwarding.
    SwitchDrain {
        /// The switch drained.
        switch: usize,
    },
    /// Kills a switch outright: queues purged, ingress blackholed, routing
    /// recomputed so surviving sessions reroute.
    SwitchFail {
        /// The switch killed.
        switch: usize,
    },
}

impl ChaosEvent {
    /// Slots after its start slot the event stays active (`None` =
    /// permanent).
    fn duration(&self) -> Option<u64> {
        match self {
            ChaosEvent::BerStorm { duration, .. } => Some(*duration),
            _ => None,
        }
    }

    /// Short human-readable label for reports.
    pub fn label(&self, topology: &FabricTopology) -> String {
        match self {
            ChaosEvent::BerStorm {
                links,
                factor,
                duration,
            } => format!(
                "BER storm ×{factor} for {duration} slots on {}",
                describe_links(topology, links)
            ),
            ChaosEvent::LinkDegrade { links, .. } => {
                format!("degrade {}", describe_links(topology, links))
            }
            ChaosEvent::SwitchDrain { switch } => format!("drain switch {switch}"),
            ChaosEvent::SwitchFail { switch } => format!("fail switch {switch}"),
        }
    }
}

fn describe_links(topology: &FabricTopology, links: &[LinkId]) -> String {
    match links {
        [] => "no links".to_string(),
        [one] => topology.describe_link(*one),
        many => format!("{} links", many.len()),
    }
}

/// An event and the slot it fires at.
#[derive(Clone, Debug)]
pub struct TimedEvent {
    /// Slot the event takes effect (an epoch boundary).
    pub at_slot: u64,
    /// The action.
    pub event: ChaosEvent,
}

/// A deterministic fault-injection timeline.
#[derive(Clone, Debug, Default)]
pub struct Scenario {
    /// Scenario label for reports.
    pub name: String,
    /// The timeline, in insertion order (simultaneous events apply in this
    /// order).
    pub events: Vec<TimedEvent>,
}

impl Scenario {
    /// An empty scenario (runs the fabric unperturbed).
    pub fn named(name: impl Into<String>) -> Self {
        Scenario {
            name: name.into(),
            events: Vec::new(),
        }
    }

    fn push(mut self, at_slot: u64, event: ChaosEvent) -> Self {
        self.events.push(TimedEvent { at_slot, event });
        self
    }

    /// Adds a BER storm of `factor`× on `links`, slots `[at, at + duration)`.
    pub fn ber_storm(self, at: u64, duration: u64, links: Vec<LinkId>, factor: f64) -> Self {
        assert!(duration > 0, "a storm needs a positive duration");
        self.push(
            at,
            ChaosEvent::BerStorm {
                links,
                factor,
                duration,
            },
        )
    }

    /// Permanently degrades `links` to `channel` from slot `at`.
    pub fn link_degrade(self, at: u64, links: Vec<LinkId>, channel: ChannelSpec) -> Self {
        self.push(at, ChaosEvent::LinkDegrade { links, channel })
    }

    /// Drains `switch` at slot `at`.
    pub fn switch_drain(self, at: u64, switch: usize) -> Self {
        self.push(at, ChaosEvent::SwitchDrain { switch })
    }

    /// Kills `switch` at slot `at`.
    pub fn switch_fail(self, at: u64, switch: usize) -> Self {
        self.push(at, ChaosEvent::SwitchFail { switch })
    }

    /// The sorted, deduplicated epoch boundaries up to `horizon`: slot 0,
    /// every event start and expiry below the horizon, and the horizon
    /// itself. Epoch `i` covers slots `(boundaries[i], boundaries[i + 1]]`.
    pub fn boundaries(&self, horizon: u64) -> Vec<u64> {
        let mut b = vec![0, horizon];
        for te in &self.events {
            if te.at_slot < horizon {
                b.push(te.at_slot);
                if let Some(d) = te.event.duration() {
                    let end = te.at_slot.saturating_add(d);
                    if end < horizon {
                        b.push(end);
                    }
                }
            }
        }
        b.sort_unstable();
        b.dedup();
        b
    }

    /// Every link any event of this scenario targets, sorted by id.
    pub fn targeted_links(&self) -> Vec<LinkId> {
        let mut links: Vec<LinkId> = self
            .events
            .iter()
            .flat_map(|te| match &te.event {
                ChaosEvent::BerStorm { links, .. } | ChaosEvent::LinkDegrade { links, .. } => {
                    links.clone()
                }
                _ => Vec::new(),
            })
            .collect();
        links.sort_unstable();
        links.dedup();
        links
    }

    /// The effective channel of `link` at slot `at_slot`, or `None` when the
    /// link is back on the fabric's static configuration. Composition order:
    /// the latest active [`ChaosEvent::LinkDegrade`] forms the base (default
    /// `static_channel`) and active storms scale it multiplicatively.
    pub fn effective_channel(
        &self,
        link: LinkId,
        at_slot: u64,
        static_channel: ChannelErrorModel,
    ) -> Option<ChannelSpec> {
        let mut base: Option<ChannelSpec> = None;
        let mut base_at: Option<u64> = None;
        let mut storm_factor = 1.0f64;
        for te in &self.events {
            if te.at_slot > at_slot {
                continue;
            }
            let active = |d: u64| at_slot < te.at_slot.saturating_add(d);
            match &te.event {
                // The degrade in force is the one with the greatest start
                // slot (timeline order, not insertion order); simultaneous
                // degrades resolve to the later insertion.
                ChaosEvent::LinkDegrade { links, channel }
                    if links.contains(&link) && base_at.is_none_or(|at| te.at_slot >= at) =>
                {
                    base = Some(channel.clone());
                    base_at = Some(te.at_slot);
                }
                ChaosEvent::BerStorm {
                    links,
                    factor,
                    duration,
                } if links.contains(&link) && active(*duration) => {
                    storm_factor *= factor;
                }
                _ => {}
            }
        }
        if base.is_none() && storm_factor == 1.0 {
            return None;
        }
        let mut spec = base.unwrap_or(ChannelSpec::Static(static_channel));
        if storm_factor != 1.0 {
            spec = spec.scaled(storm_factor);
        }
        Some(spec)
    }

    /// Labels of the events firing exactly at `at_slot`, for epoch reports.
    pub fn labels_at(&self, at_slot: u64, topology: &FabricTopology) -> Vec<String> {
        let mut labels: Vec<String> = self
            .events
            .iter()
            .filter(|te| te.at_slot == at_slot)
            .map(|te| te.event.label(topology))
            .collect();
        labels.extend(
            self.events
                .iter()
                .filter(|te| {
                    te.event
                        .duration()
                        .is_some_and(|d| te.at_slot.saturating_add(d) == at_slot)
                })
                .map(|te| format!("end of: {}", te.event.label(topology))),
        );
        labels
    }

    /// The switch drains/failures firing exactly at `at_slot`, in timeline
    /// order: `(switch, fatal)`.
    pub fn switch_events_at(&self, at_slot: u64) -> Vec<(usize, bool)> {
        self.events
            .iter()
            .filter(|te| te.at_slot == at_slot)
            .filter_map(|te| match te.event {
                ChaosEvent::SwitchDrain { switch } => Some((switch, false)),
                ChaosEvent::SwitchFail { switch } => Some((switch, true)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> FabricTopology {
        FabricTopology::leaf_spine(2, 2, 1)
    }

    #[test]
    fn boundaries_cover_starts_ends_and_horizon() {
        let t = topo();
        let uplink = t.trunk_between(0, 2).unwrap();
        let s = Scenario::named("demo")
            .ber_storm(100, 50, vec![uplink], 30.0)
            .switch_fail(400, 2);
        assert_eq!(s.boundaries(1_000), vec![0, 100, 150, 400, 1_000]);
        // Events at or past the horizon do not create boundaries.
        assert_eq!(s.boundaries(120), vec![0, 100, 120]);
        assert_eq!(s.boundaries(100), vec![0, 100]);
    }

    #[test]
    fn effective_channel_composes_degrade_storm_and_expiry() {
        let t = topo();
        let uplink = t.trunk_between(0, 2).unwrap();
        let base = ChannelErrorModel::random(1e-6);
        let s = Scenario::named("compose")
            .link_degrade(
                50,
                vec![uplink],
                ChannelSpec::Static(ChannelErrorModel::random(1e-5)),
            )
            .ber_storm(100, 100, vec![uplink], 10.0);
        // Untouched before anything fires.
        assert!(s.effective_channel(uplink, 0, base).is_none());
        // Degrade only.
        match s.effective_channel(uplink, 60, base) {
            Some(ChannelSpec::Static(m)) => assert!((m.ber - 1e-5).abs() < 1e-18),
            other => panic!("expected static degrade, got {other:?}"),
        }
        // Degrade × storm.
        match s.effective_channel(uplink, 150, base) {
            Some(ChannelSpec::Static(m)) => assert!((m.ber - 1e-4).abs() < 1e-17),
            other => panic!("expected scaled degrade, got {other:?}"),
        }
        // Storm expired at 200: back to the degrade alone.
        match s.effective_channel(uplink, 200, base) {
            Some(ChannelSpec::Static(m)) => assert!((m.ber - 1e-5).abs() < 1e-18),
            other => panic!("expected static degrade, got {other:?}"),
        }
        // Other links untouched throughout.
        let other = t.trunk_between(1, 3).unwrap();
        assert!(s.effective_channel(other, 150, base).is_none());
    }

    #[test]
    fn storm_on_a_clean_link_scales_the_static_channel() {
        let t = topo();
        let uplink = t.trunk_between(0, 2).unwrap();
        let base = ChannelErrorModel::random(2e-5);
        let s = Scenario::named("storm").ber_storm(10, 20, vec![uplink], 50.0);
        match s.effective_channel(uplink, 10, base) {
            Some(ChannelSpec::Static(m)) => assert!((m.ber - 1e-3).abs() < 1e-15),
            other => panic!("expected scaled static, got {other:?}"),
        }
        assert!(s.effective_channel(uplink, 30, base).is_none());
    }

    #[test]
    fn degrades_resolve_by_timeline_order_not_insertion_order() {
        let t = topo();
        let uplink = t.trunk_between(0, 2).unwrap();
        let base = ChannelErrorModel::random(1e-6);
        let late = ChannelSpec::Static(ChannelErrorModel::random(1e-3));
        let early = ChannelSpec::Static(ChannelErrorModel::random(1e-5));
        // Inserted out of chronological order: the slot-500 degrade must
        // still win after slot 500.
        let s = Scenario::named("ooo")
            .link_degrade(500, vec![uplink], late.clone())
            .link_degrade(100, vec![uplink], early.clone());
        assert_eq!(s.effective_channel(uplink, 200, base), Some(early));
        assert_eq!(s.effective_channel(uplink, 600, base), Some(late.clone()));
        // Simultaneous degrades resolve to the later insertion.
        let s2 = Scenario::named("tie")
            .link_degrade(100, vec![uplink], ChannelSpec::Static(base))
            .link_degrade(100, vec![uplink], late.clone());
        assert_eq!(s2.effective_channel(uplink, 100, base), Some(late));
    }

    #[test]
    fn schedule_specs_are_slot_denominated() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // A spec schedule switching to a heavy-noise segment at *slot* 100
        // must corrupt from simulation time 100 × flit_time onwards.
        let spec = ChannelSpec::Schedule(
            BerSchedule::new(ChannelErrorModel::ideal())
                .then_at(100.0, ChannelErrorModel::random(0.25)),
        );
        let flit_time_ns = 2.0;
        let mut ch = spec.instantiate(flit_time_ns);
        let mut rng = StdRng::seed_from_u64(1);
        let mut data = [0u8; 64];
        // Slot 75 (150 ns): still ideal.
        assert_eq!(ch.corrupt(&mut data, 150.0, &mut rng), 0);
        // Slot 125 (250 ns): the noisy segment is active.
        assert!(ch.corrupt(&mut data, 250.0, &mut rng) > 0);
    }

    #[test]
    fn switch_events_and_labels() {
        let t = topo();
        let s = Scenario::named("ops")
            .switch_drain(10, 3)
            .switch_fail(10, 2);
        assert_eq!(s.switch_events_at(10), vec![(3, false), (2, true)]);
        assert_eq!(s.switch_events_at(11), vec![]);
        let labels = s.labels_at(10, &t);
        assert_eq!(labels.len(), 2);
        assert!(labels[0].contains("drain switch 3"));
        assert!(labels[1].contains("fail switch 2"));
    }
}
