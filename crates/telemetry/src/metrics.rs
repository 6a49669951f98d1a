//! Spatial metrics & congestion attribution: per-link/VC heatmaps, a
//! bottleneck analyzer, and the engine self-profiler.
//!
//! PR 7's windowed telemetry is the *temporal* half of observability; this
//! module is the *spatial* half — when the latency knee hits or a storm
//! burns budget, it answers **which trunk, switch, or VC lane** is
//! responsible.
//!
//! * [`MetricsRegistry`] — a fixed-layout, allocation-free counter registry
//!   sized once from the topology: per-link utilization / error /
//!   retransmit counters, per-switch forwarded / credit-stall / blackhole
//!   counters, per-VC-lane occupancy gauges, per-VC-class occupancy
//!   histograms, and an optional link × window traversal heatmap. Exact
//!   merge in trial order ⇒ bit-identical for any worker-thread count, like
//!   every other aggregate in the workspace.
//! * [`MetricsProbe`] — the [`Probe`] implementation feeding the registry
//!   from engine events. A few integer increments per event; never touches
//!   the trial RNG (the seam enforces it), so a metrics-probed trial is
//!   byte-identical to an unprobed one.
//! * [`BottleneckReport`] — ranks links and switches by utilization × stall
//!   pressure and classifies the congestion signature (hotspot / incast /
//!   storm / uniform).
//! * [`AttributedSweep`] — a [`LoadSweep`] run with per-rung attribution:
//!   the knee report names the saturated trunk(s) behind the knee.
//! * [`EngineProfiler`] — per-phase slot-loop wall-clock accounting behind
//!   the `P::ENABLED && P::PROFILE` monomorphization (see
//!   [`Probe::PROFILE`]); replaces the unreliable external-profiler
//!   workflow for "where do the slots go?" questions.
//!
//! # Utilization convention
//!
//! Every physical link is bidirectional and can carry at most one flit per
//! direction per slot, so a link's capacity over a trial is `2 × slots`
//! flit-traversals and `utilization = traversals / (2 × slots)`. Endpoint
//! attachment links see [`rxl_fabric::LinkHop::Inject`] traffic one way and
//! [`rxl_fabric::LinkHop::Deliver`] traffic the other; trunks see
//! [`rxl_fabric::LinkHop::Trunk`] hops from both sides.
//!
//! # Stall attribution
//!
//! The engine charges every credit stall to the output port facing the
//! congested link (for an injection stalled at ingress: the planned escape
//! egress — see [`Probe::on_credit_stall`]). The registry keeps the
//! per-port and per-lane counts; the analyzer folds both sides of each link
//! together, so "312 credit-stall slots" on a trunk means 312 slots in
//! which some flit could not move onto or across that trunk.

use std::fmt;

use rxl_fabric::{
    ChannelErrorEvent, EnginePhase, FabricTopology, LinkHop, LinkTraversalEvent, Probe,
};
use rxl_load::{LatencyHistogram, LoadSweep, LoadSweepReport};

/// Log-bucketed occupancy histogram — the same exact-merge HDR shape the
/// latency pipeline uses, recording queue depths instead of slots.
pub type OccupancyHistogram = LatencyHistogram;

/// Fixed-layout spatial counter registry, sized once from a topology.
///
/// All counters merge exactly ([`MetricsRegistry::merge`]) and the whole
/// struct is `PartialEq`/`Debug`, so Monte-Carlo aggregation in trial order
/// is bit-identical for any thread count (pinned by
/// `tests/telemetry_neutrality.rs`).
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsRegistry {
    vcc: usize,
    endpoints: usize,
    /// Prefix sums of per-switch port counts; `port_base[switches]` is the
    /// fabric's total port count.
    port_base: Vec<usize>,
    link_traversals: Vec<u64>,
    link_inject: Vec<u64>,
    link_deliver: Vec<u64>,
    link_payload: Vec<u64>,
    link_retransmits: Vec<u64>,
    link_corrected: Vec<u64>,
    link_dropped: Vec<u64>,
    switch_forwarded: Vec<u64>,
    switch_stalls: Vec<u64>,
    switch_blackholes: Vec<u64>,
    port_stalls: Vec<u64>,
    lane_stalls: Vec<u64>,
    lane_samples: Vec<u64>,
    lane_occupancy_sum: Vec<u64>,
    lane_peak: Vec<u32>,
    vc_occupancy: Vec<OccupancyHistogram>,
    heat_window: u64,
    heat: Vec<Vec<u64>>,
}

impl MetricsRegistry {
    /// Builds an all-zero registry laid out for `topology` with `vc_count`
    /// virtual channels per output port. The layout (link space, switch
    /// port space, lane space) is fixed here; recording never allocates
    /// except for heatmap window growth when a heatmap is enabled.
    pub fn for_topology(topology: &FabricTopology, vc_count: usize) -> Self {
        assert!(vc_count >= 1, "vc_count must be at least 1");
        let links = topology.link_count();
        let switches = topology.switch_count();
        let mut port_base = Vec::with_capacity(switches + 1);
        let mut total_ports = 0usize;
        for sw in &topology.switches {
            port_base.push(total_ports);
            total_ports += sw.ports;
        }
        port_base.push(total_ports);
        MetricsRegistry {
            vcc: vc_count,
            endpoints: topology.endpoint_count(),
            port_base,
            link_traversals: vec![0; links],
            link_inject: vec![0; links],
            link_deliver: vec![0; links],
            link_payload: vec![0; links],
            link_retransmits: vec![0; links],
            link_corrected: vec![0; links],
            link_dropped: vec![0; links],
            switch_forwarded: vec![0; switches],
            switch_stalls: vec![0; switches],
            switch_blackholes: vec![0; switches],
            port_stalls: vec![0; total_ports],
            lane_stalls: vec![0; total_ports * vc_count],
            lane_samples: vec![0; total_ports * vc_count],
            lane_occupancy_sum: vec![0; total_ports * vc_count],
            lane_peak: vec![0; total_ports * vc_count],
            vc_occupancy: vec![OccupancyHistogram::new(); vc_count],
            heat_window: 0,
            heat: Vec::new(),
        }
    }

    /// Number of physical links in the layout.
    pub fn link_count(&self) -> usize {
        self.link_traversals.len()
    }

    /// Number of switches in the layout.
    pub fn switch_count(&self) -> usize {
        self.switch_forwarded.len()
    }

    /// Virtual channels per output port in the layout.
    pub fn vc_count(&self) -> usize {
        self.vcc
    }

    #[inline]
    fn lane_index(&self, sw: usize, port: usize, vc: usize) -> usize {
        (self.port_base[sw] + port) * self.vcc + vc
    }

    /// Total traversals (both directions) of link `link`.
    pub fn traversals(&self, link: usize) -> u64 {
        self.link_traversals[link]
    }

    /// Injection-direction traversals of link `link` (endpoint → switch;
    /// zero for trunks).
    pub fn inject_traversals(&self, link: usize) -> u64 {
        self.link_inject[link]
    }

    /// Retransmission (go-back-N replay) flit traversals of link `link`.
    pub fn retransmit_traversals(&self, link: usize) -> u64 {
        self.link_retransmits[link]
    }

    /// Channel errors on link `link` the receiving pipeline corrected.
    pub fn corrected_errors(&self, link: usize) -> u64 {
        self.link_corrected[link]
    }

    /// Flits silently dropped as uncorrectable after corruption on `link`.
    pub fn dropped_flits(&self, link: usize) -> u64 {
        self.link_dropped[link]
    }

    /// Utilization of link `link` over `slots` simulated slots: traversals
    /// divided by the link's bidirectional capacity `2 × slots`.
    pub fn utilization(&self, link: usize, slots: u64) -> f64 {
        if slots == 0 {
            return 0.0;
        }
        self.link_traversals[link] as f64 / (2.0 * slots as f64)
    }

    /// Flits switch `sw` forwarded into its output lanes.
    pub fn switch_forwarded(&self, sw: usize) -> u64 {
        self.switch_forwarded[sw]
    }

    /// Credit-stall slots charged to switch `sw` (all its ports).
    pub fn switch_stalls(&self, sw: usize) -> u64 {
        self.switch_stalls[sw]
    }

    /// Flits blackholed at switch `sw` by fault injection.
    pub fn switch_blackholes(&self, sw: usize) -> u64 {
        self.switch_blackholes[sw]
    }

    /// Credit-stall slots charged to output port `(sw, port)`.
    pub fn port_stalls(&self, sw: usize, port: usize) -> u64 {
        self.port_stalls[self.port_base[sw] + port]
    }

    /// Credit-stall slots charged to VC lane `(sw, port, vc)`.
    pub fn lane_stalls(&self, sw: usize, port: usize, vc: usize) -> u64 {
        self.lane_stalls[self.lane_index(sw, port, vc)]
    }

    /// Occupancy samples recorded for VC lane `(sw, port, vc)` — one per
    /// flit buffered into the lane.
    pub fn lane_samples(&self, sw: usize, port: usize, vc: usize) -> u64 {
        self.lane_samples[self.lane_index(sw, port, vc)]
    }

    /// Peak queue depth seen by VC lane `(sw, port, vc)`.
    pub fn lane_peak_occupancy(&self, sw: usize, port: usize, vc: usize) -> u32 {
        self.lane_peak[self.lane_index(sw, port, vc)]
    }

    /// Fabric-wide occupancy histogram of VC class `vc` (all lanes of that
    /// VC index pooled).
    pub fn vc_occupancy(&self, vc: usize) -> &OccupancyHistogram {
        &self.vc_occupancy[vc]
    }

    /// Heatmap window width in slots; 0 means the heatmap is disabled.
    pub fn heat_window(&self) -> u64 {
        self.heat_window
    }

    /// The link × window traversal heatmap, indexed `[window][link]` —
    /// empty unless a heatmap window was set via
    /// [`MetricsProbe::with_heatmap`].
    pub fn heatmap(&self) -> &[Vec<u64>] {
        &self.heat
    }

    fn record_traversal(&mut self, ev: &LinkTraversalEvent) {
        self.link_traversals[ev.link] += 1;
        match ev.hop {
            LinkHop::Inject => self.link_inject[ev.link] += 1,
            LinkHop::Deliver => self.link_deliver[ev.link] += 1,
            LinkHop::Trunk => {}
        }
        if ev.protocol {
            self.link_payload[ev.link] += 1;
        }
        if ev.retransmission {
            self.link_retransmits[ev.link] += 1;
        }
        if let Some(w) = ev.slot.checked_div(self.heat_window) {
            let w = w as usize;
            if w >= self.heat.len() {
                self.heat.resize(w + 1, vec![0; self.link_traversals.len()]);
            }
            self.heat[w][ev.link] += 1;
        }
    }

    fn record_stall(&mut self, sw: usize, port: Option<usize>, vc: Option<usize>) {
        self.switch_stalls[sw] += 1;
        if let Some(p) = port {
            self.port_stalls[self.port_base[sw] + p] += 1;
            if let Some(v) = vc {
                let i = self.lane_index(sw, p, v);
                self.lane_stalls[i] += 1;
            }
        }
    }

    fn record_occupancy(&mut self, sw: usize, port: usize, vc: usize, occupancy: usize) {
        self.switch_forwarded[sw] += 1;
        let i = self.lane_index(sw, port, vc);
        self.lane_samples[i] += 1;
        self.lane_occupancy_sum[i] += occupancy as u64;
        self.lane_peak[i] = self.lane_peak[i].max(occupancy as u32);
        self.vc_occupancy[vc].record(occupancy as u64);
    }

    fn record_channel_error(&mut self, ev: &ChannelErrorEvent) {
        if ev.dropped {
            self.link_dropped[ev.link] += 1;
        } else {
            self.link_corrected[ev.link] += 1;
        }
    }

    /// Merges another registry of the same layout into this one: counters
    /// add, peaks take the max, histograms merge exactly, heatmaps extend
    /// to the longer run. Merging per-trial registries in trial order
    /// reproduces the single-threaded aggregate bit for bit.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        assert_eq!(self.vcc, other.vcc, "VC layout mismatch");
        assert_eq!(self.port_base, other.port_base, "port layout mismatch");
        assert_eq!(
            self.link_traversals.len(),
            other.link_traversals.len(),
            "link layout mismatch"
        );
        assert_eq!(self.heat_window, other.heat_window, "heat window mismatch");
        fn add(a: &mut [u64], b: &[u64]) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += *y;
            }
        }
        add(&mut self.link_traversals, &other.link_traversals);
        add(&mut self.link_inject, &other.link_inject);
        add(&mut self.link_deliver, &other.link_deliver);
        add(&mut self.link_payload, &other.link_payload);
        add(&mut self.link_retransmits, &other.link_retransmits);
        add(&mut self.link_corrected, &other.link_corrected);
        add(&mut self.link_dropped, &other.link_dropped);
        add(&mut self.switch_forwarded, &other.switch_forwarded);
        add(&mut self.switch_stalls, &other.switch_stalls);
        add(&mut self.switch_blackholes, &other.switch_blackholes);
        add(&mut self.port_stalls, &other.port_stalls);
        add(&mut self.lane_stalls, &other.lane_stalls);
        add(&mut self.lane_samples, &other.lane_samples);
        add(&mut self.lane_occupancy_sum, &other.lane_occupancy_sum);
        for (x, y) in self.lane_peak.iter_mut().zip(&other.lane_peak) {
            *x = (*x).max(*y);
        }
        for (h, o) in self.vc_occupancy.iter_mut().zip(&other.vc_occupancy) {
            h.merge(o);
        }
        if other.heat.len() > self.heat.len() {
            self.heat
                .resize(other.heat.len(), vec![0; self.link_traversals.len()]);
        }
        for (row, orow) in self.heat.iter_mut().zip(&other.heat) {
            add(row, orow);
        }
    }

    /// Prometheus-style text exposition of the registry: one counter/gauge
    /// family per metric class, labelled by link / switch / lane, plus the
    /// derived utilization gauges for `slots` simulated slots. Zero-sample
    /// lanes are skipped to keep the page bounded on big fabrics.
    pub fn prometheus(&self, topology: &FabricTopology, slots: u64) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        writeln!(out, "# HELP rxl_slots_total simulated flit slots").unwrap();
        writeln!(out, "# TYPE rxl_slots_total counter").unwrap();
        writeln!(out, "rxl_slots_total {slots}").unwrap();
        let link_label = |link: usize| {
            let kind = if link < self.endpoints {
                "endpoint"
            } else {
                "trunk"
            };
            format!(
                "link=\"{link}\",kind=\"{kind}\",desc=\"{}\"",
                esc(&topology.describe_link(if link < self.endpoints {
                    topology.endpoint_link(link)
                } else {
                    topology.trunk_link(link - self.endpoints)
                }))
            )
        };
        type LinkFamily<'f> = (&'f str, &'f str, &'f dyn Fn(usize) -> u64);
        let link_families: [LinkFamily; 5] = [
            (
                "rxl_link_traversals_total",
                "flits that crossed the link (both directions)",
                &|l| self.link_traversals[l],
            ),
            (
                "rxl_link_retransmit_flits_total",
                "go-back-N replay flits that crossed the link",
                &|l| self.link_retransmits[l],
            ),
            (
                "rxl_link_payload_flits_total",
                "protocol (payload-bearing) flits that crossed the link",
                &|l| self.link_payload[l],
            ),
            (
                "rxl_link_corrected_errors_total",
                "link corruptions the receiving pipeline corrected",
                &|l| self.link_corrected[l],
            ),
            (
                "rxl_link_dropped_flits_total",
                "flits dropped uncorrectable after corruption on the link",
                &|l| self.link_dropped[l],
            ),
        ];
        for (name, help, get) in link_families {
            writeln!(out, "# HELP {name} {help}").unwrap();
            writeln!(out, "# TYPE {name} counter").unwrap();
            for l in 0..self.link_traversals.len() {
                writeln!(out, "{name}{{{}}} {}", link_label(l), get(l)).unwrap();
            }
        }
        writeln!(
            out,
            "# HELP rxl_link_utilization traversals / (2 x slots), per link"
        )
        .unwrap();
        writeln!(out, "# TYPE rxl_link_utilization gauge").unwrap();
        for l in 0..self.link_traversals.len() {
            writeln!(
                out,
                "rxl_link_utilization{{{}}} {:.6}",
                link_label(l),
                self.utilization(l, slots)
            )
            .unwrap();
        }
        let switch_families: [(&str, &str, &Vec<u64>); 3] = [
            (
                "rxl_switch_forwarded_flits_total",
                "flits the switch forwarded into output lanes",
                &self.switch_forwarded,
            ),
            (
                "rxl_switch_credit_stalls_total",
                "credit-stall slots charged to the switch",
                &self.switch_stalls,
            ),
            (
                "rxl_switch_blackholed_flits_total",
                "flits destroyed at the switch by fault injection",
                &self.switch_blackholes,
            ),
        ];
        for (name, help, values) in switch_families {
            writeln!(out, "# HELP {name} {help}").unwrap();
            writeln!(out, "# TYPE {name} counter").unwrap();
            for (sw, v) in values.iter().enumerate() {
                writeln!(out, "{name}{{switch=\"{sw}\"}} {v}").unwrap();
            }
        }
        writeln!(
            out,
            "# HELP rxl_vc_lane_peak_occupancy peak queue depth of the VC lane"
        )
        .unwrap();
        writeln!(out, "# TYPE rxl_vc_lane_peak_occupancy gauge").unwrap();
        for sw in 0..self.switch_count() {
            let ports = self.port_base[sw + 1] - self.port_base[sw];
            for port in 0..ports {
                for vc in 0..self.vcc {
                    let i = self.lane_index(sw, port, vc);
                    if self.lane_samples[i] == 0 {
                        continue;
                    }
                    writeln!(
                        out,
                        "rxl_vc_lane_peak_occupancy{{switch=\"{sw}\",port=\"{port}\",vc=\"{vc}\"}} {}",
                        self.lane_peak[i]
                    )
                    .unwrap();
                }
            }
        }
        writeln!(
            out,
            "# HELP rxl_vc_class_occupancy_p99 p99 queue depth across all lanes of the VC class"
        )
        .unwrap();
        writeln!(out, "# TYPE rxl_vc_class_occupancy_p99 gauge").unwrap();
        for (vc, h) in self.vc_occupancy.iter().enumerate() {
            writeln!(
                out,
                "rxl_vc_class_occupancy_p99{{vc=\"{vc}\"}} {}",
                h.quantile(0.99)
            )
            .unwrap();
        }
        out
    }
}

/// The spatial-metrics [`Probe`]: feeds a [`MetricsRegistry`] from engine
/// events. Handlers are a few integer increments (plus one histogram bucket
/// update per buffered hop) — cheap enough to ride every `LoadSweep` trial.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsProbe {
    registry: MetricsRegistry,
}

impl MetricsProbe {
    /// A probe with an all-zero registry laid out for `topology` with
    /// `vc_count` VCs per output port (pass the engine config's
    /// `vc_count`). The heatmap starts disabled.
    pub fn for_topology(topology: &FabricTopology, vc_count: usize) -> Self {
        MetricsProbe {
            registry: MetricsRegistry::for_topology(topology, vc_count),
        }
    }

    /// Enables the link × window traversal heatmap with windows of
    /// `window_slots` slots.
    pub fn with_heatmap(mut self, window_slots: u64) -> Self {
        assert!(window_slots > 0, "heat window must be positive");
        self.registry.heat_window = window_slots;
        self
    }

    /// The registry accumulated so far.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Consumes the probe, handing the registry back.
    pub fn into_registry(self) -> MetricsRegistry {
        self.registry
    }
}

impl Probe for MetricsProbe {
    fn on_link_traversal(&mut self, ev: LinkTraversalEvent) {
        self.registry.record_traversal(&ev);
    }

    fn on_credit_stall(
        &mut self,
        _slot: u64,
        switch: usize,
        port: Option<usize>,
        vc: Option<usize>,
    ) {
        self.registry.record_stall(switch, port, vc);
    }

    fn on_vc_occupancy(&mut self, _slot: u64, switch: usize, port: usize, vc: usize, occ: usize) {
        self.registry.record_occupancy(switch, port, vc, occ);
    }

    fn on_channel_error(&mut self, ev: ChannelErrorEvent) {
        self.registry.record_channel_error(&ev);
    }

    fn on_blackhole(&mut self, _slot: u64, switch: usize) {
        self.registry.switch_blackholes[switch] += 1;
    }
}

/// Congestion signature classes the bottleneck analyzer distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CongestionSignature {
    /// The top link's error/retransmit rate dominates: a link-quality storm
    /// (retransmission pressure), not an offered-load problem.
    Storm,
    /// The top-pressure link is an endpoint attachment link: traffic
    /// converging on a destination faster than it can sink it.
    Incast,
    /// A small subset of links runs far hotter than the fabric median:
    /// localized overload of specific trunks.
    Hotspot,
    /// Load (and any congestion) is spread evenly — no single spatial
    /// culprit.
    Uniform,
}

impl CongestionSignature {
    /// Short lowercase label for tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            CongestionSignature::Storm => "storm",
            CongestionSignature::Incast => "incast",
            CongestionSignature::Hotspot => "hotspot",
            CongestionSignature::Uniform => "uniform",
        }
    }
}

/// One link's pressure summary, as ranked by [`BottleneckReport::analyze`].
#[derive(Clone, Debug, PartialEq)]
pub struct LinkPressure {
    /// Dense link index ([`rxl_fabric::topology::LinkId::index`]).
    pub link: usize,
    /// Human-readable link description from the topology.
    pub description: String,
    /// `true` for endpoint attachment links, `false` for trunks.
    pub endpoint_link: bool,
    /// Total traversals (both directions).
    pub traversals: u64,
    /// Traversals / (2 × slots).
    pub utilization: f64,
    /// Credit-stall slots charged to the ports facing this link (both
    /// sides folded together).
    pub stall_slots: u64,
    /// Channel errors on the link (corrected + dropped).
    pub errors: u64,
    /// Retransmission flits across the link.
    pub retransmits: u64,
    /// Ranking score: `utilization × (1 + stall_slots / slots)`.
    pub score: f64,
}

/// One switch's pressure summary.
#[derive(Clone, Debug, PartialEq)]
pub struct SwitchPressure {
    /// Switch index.
    pub switch: usize,
    /// Flits forwarded into the switch's output lanes.
    pub forwarded: u64,
    /// Credit-stall slots charged to the switch.
    pub stall_slots: u64,
    /// Flits blackholed at the switch.
    pub blackholes: u64,
    /// `forwarded / slots` — mean flits the switch moved per slot.
    pub forwarded_per_slot: f64,
    /// Ranking score: `forwarded_per_slot × (1 + stall_slots / slots)`.
    pub score: f64,
}

/// The bottleneck analyzer's output: links and switches ranked by
/// utilization × stall pressure (descending score, ties broken by
/// traversals then index — fully deterministic), plus the congestion
/// signature classification.
#[derive(Clone, Debug, PartialEq)]
pub struct BottleneckReport {
    /// Slots the registry was accumulated over (summed across trials).
    pub slots: u64,
    /// Every link, hottest first.
    pub links: Vec<LinkPressure>,
    /// Every switch, hottest first.
    pub switches: Vec<SwitchPressure>,
    /// The classified congestion signature.
    pub signature: CongestionSignature,
}

impl BottleneckReport {
    /// Ranks `registry`'s links and switches over `slots` simulated slots
    /// and classifies the congestion signature. Pure arithmetic on the
    /// registry — deterministic given a deterministic registry.
    pub fn analyze(topology: &FabricTopology, registry: &MetricsRegistry, slots: u64) -> Self {
        let endpoints = topology.endpoint_count();
        let mut links: Vec<LinkPressure> = (0..registry.link_count())
            .map(|link| {
                let stall_slots = if link < endpoints {
                    let ep = &topology.endpoints[link];
                    registry.port_stalls(ep.switch, ep.port)
                } else {
                    let t = &topology.trunks[link - endpoints];
                    registry.port_stalls(t.a.0, t.a.1) + registry.port_stalls(t.b.0, t.b.1)
                };
                let utilization = registry.utilization(link, slots);
                let stall_rate = if slots > 0 {
                    stall_slots as f64 / slots as f64
                } else {
                    0.0
                };
                let id = if link < endpoints {
                    topology.endpoint_link(link)
                } else {
                    topology.trunk_link(link - endpoints)
                };
                LinkPressure {
                    link,
                    description: topology.describe_link(id),
                    endpoint_link: link < endpoints,
                    traversals: registry.traversals(link),
                    utilization,
                    stall_slots,
                    errors: registry.corrected_errors(link) + registry.dropped_flits(link),
                    retransmits: registry.retransmit_traversals(link),
                    score: utilization * (1.0 + stall_rate),
                }
            })
            .collect();
        links.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then(b.traversals.cmp(&a.traversals))
                .then(a.link.cmp(&b.link))
        });

        let mut switches: Vec<SwitchPressure> = (0..registry.switch_count())
            .map(|sw| {
                let forwarded = registry.switch_forwarded(sw);
                let stall_slots = registry.switch_stalls(sw);
                let forwarded_per_slot = if slots > 0 {
                    forwarded as f64 / slots as f64
                } else {
                    0.0
                };
                let stall_rate = if slots > 0 {
                    stall_slots as f64 / slots as f64
                } else {
                    0.0
                };
                SwitchPressure {
                    switch: sw,
                    forwarded,
                    stall_slots,
                    blackholes: registry.switch_blackholes(sw),
                    forwarded_per_slot,
                    score: forwarded_per_slot * (1.0 + stall_rate),
                }
            })
            .collect();
        switches.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then(b.forwarded.cmp(&a.forwarded))
                .then(a.switch.cmp(&b.switch))
        });

        let signature = Self::classify(&links);
        BottleneckReport {
            slots,
            links,
            switches,
            signature,
        }
    }

    /// Classifies the congestion signature from the ranked links:
    ///
    /// 1. **storm** — the top link's error + retransmit rate exceeds 1% of
    ///    its traversals (pressure is link quality, not offered load);
    /// 2. **incast** — the top-pressure link is an endpoint attachment link
    ///    (convergence at a destination sink);
    /// 3. **hotspot** — the top link runs ≥ 1.5× the median utilization of
    ///    active links (a localized hot subset);
    /// 4. **uniform** — otherwise.
    fn classify(links: &[LinkPressure]) -> CongestionSignature {
        let Some(top) = links.first() else {
            return CongestionSignature::Uniform;
        };
        if top.traversals == 0 {
            return CongestionSignature::Uniform;
        }
        if (top.errors + top.retransmits) as f64 > 0.01 * top.traversals as f64 {
            return CongestionSignature::Storm;
        }
        if top.endpoint_link {
            return CongestionSignature::Incast;
        }
        let mut active: Vec<f64> = links
            .iter()
            .filter(|l| l.traversals > 0)
            .map(|l| l.utilization)
            .collect();
        active.sort_by(f64::total_cmp);
        let median = active[active.len() / 2];
        if top.utilization >= 1.5 * median {
            return CongestionSignature::Hotspot;
        }
        CongestionSignature::Uniform
    }

    /// The `k` hottest links.
    pub fn top_links(&self, k: usize) -> &[LinkPressure] {
        &self.links[..k.min(self.links.len())]
    }
}

impl fmt::Display for BottleneckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== bottlenecks over {} slots · {} signature ==",
            self.slots,
            self.signature.label()
        )?;
        for (rank, l) in self.top_links(5).iter().enumerate() {
            writeln!(
                f,
                "#{} {} — {:.1}% util, {} stall slots, {} retransmits, {} errors (score {:.3})",
                rank + 1,
                l.description,
                l.utilization * 100.0,
                l.stall_slots,
                l.retransmits,
                l.errors,
                l.score
            )?;
        }
        Ok(())
    }
}

/// One ladder rung's spatial attribution in an [`AttributedSweep`].
#[derive(Clone, Debug, PartialEq)]
pub struct RungAttribution {
    /// Offered load of the rung.
    pub offered_load: f64,
    /// Slots summed over the rung's trials (the utilization denominator).
    pub slots: u64,
    /// Top-k links by pressure, hottest first. Never empty for a rung that
    /// moved any flit.
    pub top: Vec<LinkPressure>,
    /// The rung's congestion signature.
    pub signature: CongestionSignature,
}

/// A [`LoadSweep`] with per-rung congestion attribution: every ladder point
/// carries a merged [`MetricsRegistry`] and its top-k bottleneck links, so
/// the knee report can *name* the saturated trunk behind the knee instead
/// of just locating it on the load axis.
#[derive(Clone, Debug)]
pub struct AttributedSweep {
    /// The plain latency-vs-load curve.
    pub report: LoadSweepReport,
    /// Per-rung attribution, parallel to `report.points`.
    pub rungs: Vec<RungAttribution>,
    /// Per-rung merged registries (trial order), parallel to
    /// `report.points` — heatmap and Prometheus exports read these.
    pub registries: Vec<MetricsRegistry>,
}

impl AttributedSweep {
    /// Runs `sweep` with a [`MetricsProbe`] on every trial, merging
    /// per-trial registries in trial order (bit-identical for any worker
    /// thread count) and keeping the `k` hottest links per rung.
    pub fn run(sweep: &LoadSweep, k: usize) -> Self {
        Self::run_with_heatmap(sweep, k, 0)
    }

    /// Like [`Self::run`], additionally recording the link × window
    /// heatmap with `heat_window` slots per window (0 disables it).
    pub fn run_with_heatmap(sweep: &LoadSweep, k: usize, heat_window: u64) -> Self {
        let vcc = sweep.config().vc_count;
        let (report, probes) = sweep.run_probed(|_| {
            let probe = MetricsProbe::for_topology(sweep.topology(), vcc);
            if heat_window > 0 {
                probe.with_heatmap(heat_window)
            } else {
                probe
            }
        });
        let mut rungs = Vec::with_capacity(report.points.len());
        let mut registries = Vec::with_capacity(report.points.len());
        for (pi, trial_probes) in probes.into_iter().enumerate() {
            let mut merged: Option<MetricsRegistry> = None;
            for probe in trial_probes {
                match &mut merged {
                    None => merged = Some(probe.into_registry()),
                    Some(m) => m.merge(probe.registry()),
                }
            }
            let registry = merged.expect("every rung runs at least one trial");
            let point = &report.points[pi];
            let analysis = BottleneckReport::analyze(sweep.topology(), &registry, point.slots);
            rungs.push(RungAttribution {
                offered_load: point.offered_load,
                slots: point.slots,
                top: analysis.top_links(k).to_vec(),
                signature: analysis.signature,
            });
            registries.push(registry);
        }
        AttributedSweep {
            report,
            rungs,
            registries,
        }
    }

    /// The knee rung's attribution, if the ladder crossed a knee.
    pub fn knee_attribution(&self) -> Option<&RungAttribution> {
        self.report.knee.map(|i| &self.rungs[i])
    }
}

impl fmt::Display for AttributedSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.report)?;
        for rung in &self.rungs {
            let Some(top) = rung.top.first() else {
                continue;
            };
            writeln!(
                f,
                "load {:.2} [{}]: {} — {:.1}% util, {} credit-stall slots",
                rung.offered_load,
                rung.signature.label(),
                top.description,
                top.utilization * 100.0,
                top.stall_slots
            )?;
        }
        if let Some(knee) = self.knee_attribution() {
            if let Some(top) = knee.top.first() {
                writeln!(
                    f,
                    "knee at {:.2}: {} at {:.0}% util, {} credit-stall slots ({} signature)",
                    knee.offered_load,
                    top.description,
                    top.utilization * 100.0,
                    top.stall_slots,
                    knee.signature.label()
                )?;
            }
        }
        Ok(())
    }
}

/// The engine self-profiler: a [`Probe`] with [`Probe::PROFILE`] set, so
/// the slot loop reports per-phase wall-clock nanoseconds to it (see
/// [`rxl_fabric::EnginePhase`]). The timings never feed back into the
/// trial, so a profiled trial is bit-identical to an unprofiled one — but
/// the nanoseconds themselves are wall-clock: real, machine-local, and
/// **not** reproducible. Keep them out of exact-merge aggregates; this
/// replaces the external-profiler workflow for "which phase eats the slot
/// budget?" questions.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineProfiler {
    nanos: [u64; 4],
    slots: u64,
}

impl EngineProfiler {
    /// A zeroed profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated per-phase profile.
    pub fn profile(&self) -> PhaseProfile {
        PhaseProfile {
            nanos: self.nanos,
            slots: self.slots,
        }
    }
}

impl Probe for EngineProfiler {
    const PROFILE: bool = true;

    fn on_phase(&mut self, phase: EnginePhase, nanos: u64) {
        self.nanos[phase.index()] += nanos;
        if phase == EnginePhase::PacedRelease {
            self.slots += 1;
        }
    }
}

/// Per-phase slot-loop accounting from an [`EngineProfiler`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Wall-clock nanoseconds per [`EnginePhase`], indexed by
    /// [`EnginePhase::index`].
    pub nanos: [u64; 4],
    /// Slots profiled.
    pub slots: u64,
}

impl PhaseProfile {
    /// Total profiled nanoseconds across all phases.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Fraction of profiled time spent in `phase`.
    pub fn share(&self, phase: EnginePhase) -> f64 {
        let total = self.total_nanos();
        if total == 0 {
            return 0.0;
        }
        self.nanos[phase.index()] as f64 / total as f64
    }

    /// Mean nanoseconds per slot spent in `phase`.
    pub fn nanos_per_slot(&self, phase: EnginePhase) -> f64 {
        if self.slots == 0 {
            return 0.0;
        }
        self.nanos[phase.index()] as f64 / self.slots as f64
    }
}

impl fmt::Display for PhaseProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== engine self-profile over {} slots ==", self.slots)?;
        for phase in EnginePhase::ALL {
            writeln!(
                f,
                "{:>14}: {:>6.1}% · {:>8.1} ns/slot",
                phase.label(),
                self.share(phase) * 100.0,
                self.nanos_per_slot(phase)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxl_fabric::{FabricConfig, FabricSim, FabricWorkload, RoutingTable};
    use rxl_link::{ChannelErrorModel, ProtocolVariant};
    use rxl_load::{ArrivalProcess, LoadSweepConfig, TrafficMatrix};

    fn pod() -> FabricTopology {
        FabricTopology::leaf_spine(2, 1, 2)
    }

    #[test]
    fn registry_layout_matches_topology() {
        let t = pod();
        let reg = MetricsRegistry::for_topology(&t, 2);
        assert_eq!(reg.link_count(), t.link_count());
        assert_eq!(reg.switch_count(), t.switch_count());
        assert_eq!(reg.vc_count(), 2);
        assert_eq!(reg.traversals(0), 0);
        assert_eq!(reg.utilization(0, 100), 0.0);
    }

    #[test]
    fn merge_is_exact_and_peaks_take_max() {
        let t = pod();
        let mut a = MetricsRegistry::for_topology(&t, 1);
        let mut b = MetricsRegistry::for_topology(&t, 1);
        a.record_occupancy(0, 0, 0, 3);
        b.record_occupancy(0, 0, 0, 7);
        b.record_stall(0, Some(1), Some(0));
        a.merge(&b);
        assert_eq!(a.switch_forwarded(0), 2);
        assert_eq!(a.lane_samples(0, 0, 0), 2);
        assert_eq!(a.lane_peak_occupancy(0, 0, 0), 7);
        assert_eq!(a.port_stalls(0, 1), 1);
        assert_eq!(a.lane_stalls(0, 1, 0), 1);
        assert_eq!(a.switch_stalls(0), 1);
    }

    #[test]
    fn heatmap_buckets_by_window() {
        let t = pod();
        let mut probe = MetricsProbe::for_topology(&t, 1).with_heatmap(100);
        for slot in [5u64, 150, 250] {
            probe.on_link_traversal(LinkTraversalEvent {
                slot,
                link: 2,
                hop: LinkHop::Inject,
                protocol: true,
                retransmission: false,
            });
        }
        let reg = probe.registry();
        assert_eq!(reg.heatmap().len(), 3);
        assert_eq!(reg.heatmap()[0][2], 1);
        assert_eq!(reg.heatmap()[1][2], 1);
        assert_eq!(reg.heatmap()[2][2], 1);
        assert_eq!(reg.traversals(2), 3);
        assert_eq!(reg.inject_traversals(2), 3);
    }

    #[test]
    fn classifier_distinguishes_signatures() {
        let storm = vec![LinkPressure {
            link: 8,
            description: "trunk".into(),
            endpoint_link: false,
            traversals: 1000,
            utilization: 0.5,
            stall_slots: 10,
            errors: 40,
            retransmits: 60,
            score: 0.5,
        }];
        assert_eq!(
            BottleneckReport::classify(&storm),
            CongestionSignature::Storm
        );

        let incast = vec![LinkPressure {
            endpoint_link: true,
            errors: 0,
            retransmits: 0,
            ..storm[0].clone()
        }];
        assert_eq!(
            BottleneckReport::classify(&incast),
            CongestionSignature::Incast
        );

        let mk = |link: usize, util: f64| LinkPressure {
            link,
            description: format!("trunk {link}"),
            endpoint_link: false,
            traversals: 1000,
            utilization: util,
            stall_slots: 0,
            errors: 0,
            retransmits: 0,
            score: util,
        };
        let hotspot = vec![mk(0, 0.9), mk(1, 0.3), mk(2, 0.3), mk(3, 0.2)];
        assert_eq!(
            BottleneckReport::classify(&hotspot),
            CongestionSignature::Hotspot
        );
        let uniform = vec![mk(0, 0.4), mk(1, 0.38), mk(2, 0.36), mk(3, 0.35)];
        assert_eq!(
            BottleneckReport::classify(&uniform),
            CongestionSignature::Uniform
        );
        assert_eq!(
            BottleneckReport::classify(&[]),
            CongestionSignature::Uniform
        );
    }

    #[test]
    fn metrics_probe_counts_a_real_trial() {
        let t = pod();
        let routing = RoutingTable::new(&t);
        let config = FabricConfig::new(ProtocolVariant::Rxl)
            .with_channel(ChannelErrorModel::ideal())
            .with_seed(0x5EA7);
        let probe = MetricsProbe::for_topology(&t, config.vc_count).with_heatmap(64);
        let mut sim = FabricSim::with_probe(&t, &routing, config, probe);
        sim.begin(&FabricWorkload::symmetric(t.session_count(), 200, 8, 3));
        let _ = sim.step(u64::MAX);
        let (report, probe) = sim.finish_with_probe();
        assert!(report.drained);
        let reg = probe.registry();
        let total: u64 = (0..reg.link_count()).map(|l| reg.traversals(l)).sum();
        assert!(total > 0, "traversals must be observed");
        // Injection-direction endpoint-link traversals are exactly the
        // non-idle wire flits the endpoints emitted.
        let injected: u64 = (0..t.endpoint_count())
            .map(|e| reg.inject_traversals(e))
            .sum();
        assert_eq!(
            injected,
            report.links.total_wire_flits() - report.links.idle_flits_sent
        );
        // The heatmap holds the same traversals, window-bucketed.
        let heat_total: u64 = reg.heatmap().iter().flatten().sum();
        assert_eq!(heat_total, total);
        // Prometheus exposition renders and carries the totals.
        let page = reg.prometheus(&t, report.slots);
        assert!(page.contains("rxl_link_traversals_total"));
        assert!(page.contains("rxl_switch_forwarded_flits_total"));
        assert!(page.contains(&format!("rxl_slots_total {}", report.slots)));
    }

    #[test]
    fn profiler_accounts_every_phase() {
        let t = pod();
        let routing = RoutingTable::new(&t);
        let config = FabricConfig::new(ProtocolVariant::Rxl)
            .with_channel(ChannelErrorModel::ideal())
            .with_seed(0x9A0F);
        let mut sim = FabricSim::with_probe(&t, &routing, config, EngineProfiler::new());
        sim.begin(&FabricWorkload::symmetric(t.session_count(), 100, 8, 5));
        let _ = sim.step(u64::MAX);
        let (report, profiler) = sim.finish_with_probe();
        let profile = profiler.profile();
        assert_eq!(profile.slots, report.slots);
        assert!(profile.total_nanos() > 0);
        let share_sum: f64 = EnginePhase::ALL.iter().map(|&p| profile.share(p)).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
        assert!(profile.to_string().contains("engine self-profile"));
    }

    #[test]
    fn attributed_sweep_names_the_saturated_uplink() {
        let t = pod();
        // Incast onto leaf 1: both leaf-0 hosts inject downstream-only at
        // 0.8 of line rate into leaf 0's single uplink (1.6× oversubscribed).
        // A shallow queue keeps the backlog visible as credit stalls instead
        // of silently absorbed buffering.
        let sweep = LoadSweep::new(
            t.clone(),
            FabricConfig {
                queue_capacity: 8,
                ..FabricConfig::new(ProtocolVariant::Rxl)
                    .with_channel(ChannelErrorModel::ideal())
                    .with_seed(0xA77B)
            },
            LoadSweepConfig {
                loads: vec![0.8],
                messages_per_session: 600,
                trials: 2,
                matrix: TrafficMatrix::Incast { leaf: 1 },
                arrival: ArrivalProcess::fixed(1.0),
                ..LoadSweepConfig::default()
            },
        );
        let attributed = AttributedSweep::run(&sweep, 3);
        let rung = &attributed.rungs[0];
        assert!(!rung.top.is_empty());
        let hot = t.trunk_between(0, 2).expect("leaf0 uplink exists");
        assert_eq!(
            rung.top[0].link,
            hot.index(),
            "top-ranked link must be the leaf0→spine trunk: {:?}",
            rung.top
        );
        assert!(rung.top[0].stall_slots > 0, "saturation must stall");
        assert!(attributed.to_string().contains("credit-stall slots"));
    }
}
