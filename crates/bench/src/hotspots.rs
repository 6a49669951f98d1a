//! Spatial congestion attribution measurement (`fabric_hotspots`).
//!
//! Runs the incast load sweep on the canonical leaf–spine pod with a
//! [`MetricsProbe`](rxl_telemetry::MetricsProbe) riding every trial, then
//! reports *where* the fabric hurts: per-link utilization at the saturation
//! knee, per-rung top-k bottleneck attribution (the knee report names the
//! saturated leaf-0 uplink instead of just locating the knee on the load
//! axis), and a link × window traversal heatmap. (Where the *simulator's*
//! wall-clock goes is the perf ledger's business: `benchmark/` reports the
//! engine self-profiler's phases as `fabric.phase_*`.) The machine-readable
//! form (`BENCH_hotspots.json`) is compared byte for byte with the committed
//! file by `tests/artifacts.rs`, like the other `BENCH_*.json` trajectories.
//!
//! The workload is deliberately asymmetric — [`TrafficMatrix::Incast`] onto
//! leaf 1 loads only the two leaf-0 hosts, downstream-only — because a
//! symmetric matrix heats every link on a session's path equally (path
//! conservation) and both trunks of the two-leaf pod would tie exactly.
//! Under incast the trunks still tie on *utilization*, but every credit
//! stall lands on the leaf-0 → spine uplink, so stall pressure uniquely
//! identifies the bottleneck. A shallow `queue_capacity` keeps that backlog
//! visible as stalls instead of silently absorbed buffering.

use rxl_fabric::{FabricConfig, FabricTopology};
use rxl_link::{ChannelErrorModel, ProtocolVariant};
use rxl_load::{ArrivalProcess, LoadSweep, LoadSweepConfig, TrafficMatrix};
use rxl_telemetry::AttributedSweep;

use crate::json::{JsonDocument, JsonRow};
use crate::render_table;

/// Heatmap window width, in slots.
pub const HEAT_WINDOW_SLOTS: u64 = 64;

/// Links to name per rung in the attribution rows.
pub const TOP_K: usize = 3;

/// The full spatial-attribution measurement.
#[derive(Clone, Debug)]
pub struct HotspotsReport {
    /// Topology name.
    pub topology: String,
    /// The topology object (for link descriptions in exports).
    pub fabric: FabricTopology,
    /// Traffic-matrix label.
    pub matrix: String,
    /// Protocol variant simulated.
    pub protocol: &'static str,
    /// The load sweep with per-rung congestion attribution.
    pub sweep: AttributedSweep,
}

/// Runs the spatial-attribution suite (incast onto leaf 1 of the leaf–spine
/// pod, RXL, ideal channel).
pub fn run_hotspots() -> HotspotsReport {
    // Both leaf-0 hosts inject downstream-only, so the uplink crosses line
    // rate at per-session load 0.5; the ladder brackets that knee.
    let (loads, messages, trials) = (vec![0.10, 0.20, 0.30, 0.40, 0.60, 0.80], 2_000, 4);
    let topology = FabricTopology::leaf_spine(2, 1, 2);
    let config = FabricConfig {
        // Shallow lanes surface the incast backlog as credit stalls.
        queue_capacity: 8,
        ..FabricConfig::new(ProtocolVariant::Rxl)
            .with_channel(ChannelErrorModel::ideal())
            .with_seed(0x407_5707)
    };
    let sweep = LoadSweep::new(
        topology.clone(),
        config,
        LoadSweepConfig {
            loads,
            messages_per_session: messages,
            trials,
            matrix: TrafficMatrix::Incast { leaf: 1 },
            arrival: ArrivalProcess::fixed(1.0),
            ..LoadSweepConfig::default()
        },
    );
    let attributed = AttributedSweep::run_with_heatmap(&sweep, TOP_K, HEAT_WINDOW_SLOTS);

    HotspotsReport {
        topology: attributed.report.topology.clone(),
        fabric: topology,
        matrix: attributed.report.matrix.clone(),
        protocol: crate::variant_name(ProtocolVariant::Rxl),
        sweep: attributed,
    }
}

/// Renders the report as an aligned text table: per-rung attribution and
/// the knee sentence.
pub fn hotspots_table(report: &HotspotsReport) -> String {
    let mut rows = Vec::new();
    for rung in &report.sweep.rungs {
        for (rank, l) in rung.top.iter().enumerate() {
            rows.push(vec![
                format!("{:.2}", rung.offered_load),
                rung.signature.label().to_string(),
                format!("#{}", rank + 1),
                l.description.clone(),
                format!("{:.1}%", l.utilization * 100.0),
                l.stall_slots.to_string(),
                format!("{:.3}", l.score),
            ]);
        }
    }
    let mut out = render_table(
        "Congestion attribution (incast onto leaf 1; leaf-spine pod, RXL)",
        &[
            "load",
            "signature",
            "rank",
            "link",
            "util",
            "stalls",
            "score",
        ],
        &rows,
    );
    match report.sweep.knee_attribution() {
        Some(knee) => {
            let top = knee.top.first().expect("knee rung moved flits");
            out.push_str(&format!(
                "knee at {:.2}: {} at {:.0}% util, {} credit-stall slots ({})\n",
                knee.offered_load,
                top.description,
                top.utilization * 100.0,
                top.stall_slots,
                knee.signature.label()
            ));
        }
        None => out.push_str("no saturation knee inside the ladder\n"),
    }
    out
}

/// Serialises the report as a JSON document (hand-rolled — the build
/// container has no serde) for `BENCH_hotspots.json`. Three row kinds share
/// the document:
///
/// * `"link"` — per-link totals of the hottest analyzed rung (the knee
///   rung, or the heaviest rung when the ladder never crossed a knee).
/// * `"attribution"` — per-rung top-k bottleneck links with signature.
/// * `"heat"` — the hottest rung's link × window traversal matrix, one row
///   per window (`counts` in link-index order).
pub fn hotspots_json(report: &HotspotsReport) -> String {
    let sweep = &report.sweep;
    let hot_rung = sweep.report.knee.unwrap_or(sweep.rungs.len() - 1);
    let rung = &sweep.rungs[hot_rung];
    let registry = &sweep.registries[hot_rung];
    let mut rows = Vec::new();

    let analysis = rxl_telemetry::BottleneckReport::analyze(&report.fabric, registry, rung.slots);
    for l in &analysis.links {
        rows.push(
            JsonRow::new()
                .str("kind", "link")
                .num("load", rung.offered_load, 2)
                .raw("link", l.link)
                .str("desc", &l.description)
                .raw("endpoint_link", l.endpoint_link)
                .raw("traversals", l.traversals)
                .num("utilization", l.utilization, 4)
                .raw("stall_slots", l.stall_slots)
                .raw("retransmits", l.retransmits)
                .raw("errors", l.errors)
                .num("score", l.score, 4)
                .finish(),
        );
    }

    for (i, r) in sweep.rungs.iter().enumerate() {
        for (rank, l) in r.top.iter().enumerate() {
            rows.push(
                JsonRow::new()
                    .str("kind", "attribution")
                    .num("load", r.offered_load, 2)
                    .raw("knee", sweep.report.knee == Some(i))
                    .str("signature", r.signature.label())
                    .raw("rank", rank + 1)
                    .raw("link", l.link)
                    .str("desc", &l.description)
                    .num("utilization", l.utilization, 4)
                    .raw("stall_slots", l.stall_slots)
                    .num("score", l.score, 4)
                    .finish(),
            );
        }
    }

    for (w, counts) in registry.heatmap().iter().enumerate() {
        let joined = counts
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        rows.push(
            JsonRow::new()
                .str("kind", "heat")
                .num("load", rung.offered_load, 2)
                .raw("window", w)
                .raw("start_slot", w as u64 * HEAT_WINDOW_SLOTS)
                .raw("counts", format!("[{joined}]"))
                .finish(),
        );
    }

    JsonDocument::new("hotspots")
        .field(
            "topology",
            format!("\"{}\"", crate::json_escape(&report.topology)),
        )
        .field(
            "matrix",
            format!("\"{}\"", crate::json_escape(&report.matrix)),
        )
        .field("protocol", format!("\"{}\"", report.protocol))
        .field("heat_window_slots", HEAT_WINDOW_SLOTS)
        .rows(rows)
}

/// Writes the JSON form to `BENCH_hotspots.json` in `out` (the repo root
/// when `None`) and returns the path written.
pub fn write_hotspots_json(
    report: &HotspotsReport,
    out: Option<&std::path::Path>,
) -> std::path::PathBuf {
    crate::json::write_artifact("BENCH_hotspots.json", out, &hotspots_json(report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_attributes_the_uplink_and_serialises() {
        let report = run_hotspots();
        // The heavy rung's top attribution names the leaf-0 uplink (dense
        // link 8 = first trunk of the 8-endpoint pod): a stalling trunk,
        // not just the hottest utilization tie.
        let heavy = report.sweep.rungs.last().expect("ladder is non-empty");
        assert_eq!(heavy.top[0].link, 8, "top link: {:?}", heavy.top);
        assert!(heavy.top[0].stall_slots > 0);
        assert!(heavy.top[0].description.contains("trunk"));
        for l in report.sweep.rungs.iter().flat_map(|r| &r.top) {
            assert!((0.0..=1.0).contains(&l.utilization), "{l:?}");
        }
        // One heat count per link in every window of the hot rung.
        let hot = report
            .sweep
            .report
            .knee
            .expect("the ladder crosses the knee");
        let links = report.fabric.link_count();
        for counts in report.sweep.registries[hot].heatmap() {
            assert_eq!(counts.len(), links);
        }
        let table = hotspots_table(&report);
        assert!(table.contains("Congestion attribution"));
        let json = hotspots_json(&report);
        assert!(json.contains("\"bench\": \"hotspots\""));
        for kind in ["link", "attribution", "heat"] {
            assert!(
                json.contains(&format!("\"kind\": \"{kind}\"")),
                "missing row kind {kind}"
            );
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
