//! Latency-vs-offered-load measurement (`latency_sweep`).
//!
//! Runs the `rxl-load` open-loop sweep over the canonical leaf–spine pod
//! for both protocols and reports one row per ladder point: delivered
//! throughput, efficiency, and the latency distribution (p50/p90/p99/p99.9/
//! max, in flit slots). The machine-readable form (`BENCH_latency.json`) is
//! the repository's latency trajectory, compared byte for byte with the
//! committed file by `tests/artifacts.rs`.

use rxl_fabric::{FabricConfig, FabricTopology};
use rxl_link::{ChannelErrorModel, ProtocolVariant};
use rxl_load::{ArrivalProcess, LoadSweep, LoadSweepConfig, TrafficMatrix};

use crate::json::{JsonDocument, JsonRow};
use crate::{render_table, sci};

/// One ladder point of one sweep.
#[derive(Clone, Debug)]
pub struct LatencyRow {
    /// Topology name.
    pub workload: String,
    /// Protocol variant simulated.
    pub protocol: &'static str,
    /// Traffic-matrix label.
    pub matrix: String,
    /// Arrival-process label.
    pub arrival: &'static str,
    /// Offered load (fraction of line rate).
    pub offered_load: f64,
    /// Concurrent sessions.
    pub sessions: usize,
    /// Messages per loaded session per direction.
    pub messages_per_session: usize,
    /// Monte-Carlo trials at this point.
    pub trials: u64,
    /// Messages injected across trials.
    pub injected_messages: u64,
    /// Messages with recorded latency across trials.
    pub delivered_messages: u64,
    /// Pooled delivered throughput (messages per slot).
    pub delivered_per_slot: f64,
    /// Delivered / offered rate.
    pub efficiency: f64,
    /// Median latency (slots).
    pub p50: u64,
    /// 90th-percentile latency (slots).
    pub p90: u64,
    /// 99th-percentile latency (slots).
    pub p99: u64,
    /// 99.9th-percentile latency (slots).
    pub p999: u64,
    /// Maximum latency (slots).
    pub max: u64,
    /// Mean latency (slots).
    pub mean_slots: f64,
    /// `true` if this point is the sweep's detected saturation knee.
    pub knee: bool,
}

/// Runs the latency sweep suite (leaf–spine pod × CXL and RXL) and returns
/// one row per ladder point.
pub fn run_latency_sweep() -> Vec<LatencyRow> {
    let (loads, messages, trials) = (vec![0.05, 0.10, 0.20, 0.30, 0.50, 0.80], 600, 4);
    let topology = FabricTopology::leaf_spine(2, 1, 2);
    let mut rows = Vec::new();
    for variant in [ProtocolVariant::CxlPiggyback, ProtocolVariant::Rxl] {
        let sweep = LoadSweep::new(
            topology.clone(),
            FabricConfig::new(variant)
                .with_channel(ChannelErrorModel::ideal())
                .with_seed(0x10AD_BE2C),
            LoadSweepConfig {
                loads: loads.clone(),
                messages_per_session: messages,
                trials,
                matrix: TrafficMatrix::Uniform,
                arrival: ArrivalProcess::fixed(1.0),
                ..LoadSweepConfig::default()
            },
        );
        let report = sweep.run();
        for (i, p) in report.points.iter().enumerate() {
            rows.push(LatencyRow {
                workload: report.topology.clone(),
                protocol: crate::variant_name(variant),
                matrix: report.matrix.clone(),
                arrival: report.arrival,
                offered_load: p.offered_load,
                sessions: report.sessions,
                messages_per_session: messages,
                trials: p.trials,
                injected_messages: p.injected_messages,
                delivered_messages: p.delivered_messages,
                delivered_per_slot: p.delivered_per_slot,
                efficiency: p.efficiency,
                p50: p.stats.p50,
                p90: p.stats.p90,
                p99: p.stats.p99,
                p999: p.stats.p999,
                max: p.stats.max,
                mean_slots: p.stats.mean,
                knee: report.knee == Some(i),
            });
        }
    }
    rows
}

/// Renders the rows as an aligned text table.
pub fn latency_table(rows: &[LatencyRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.protocol.to_string(),
                format!(
                    "{:.2}{}",
                    r.offered_load,
                    if r.knee { " ←knee" } else { "" }
                ),
                sci(r.delivered_per_slot),
                format!("{:.2}", r.efficiency),
                r.p50.to_string(),
                r.p90.to_string(),
                r.p99.to_string(),
                r.p999.to_string(),
                r.max.to_string(),
                format!("{:.1}", r.mean_slots),
            ]
        })
        .collect();
    render_table(
        "Latency vs offered load (slots; leaf-spine pod, ideal channel)",
        &[
            "protocol",
            "load",
            "delivered/s",
            "eff",
            "p50",
            "p90",
            "p99",
            "p99.9",
            "max",
            "mean",
        ],
        &table_rows,
    )
}

/// Serialises the rows as a JSON document (hand-rolled — the build
/// container has no serde) for `BENCH_latency.json`.
pub fn latency_json(rows: &[LatencyRow]) -> String {
    JsonDocument::new("latency_sweep").rows(rows.iter().map(|r| {
        JsonRow::new()
            .str("workload", &r.workload)
            .str("protocol", r.protocol)
            .str("matrix", &r.matrix)
            .str("arrival", r.arrival)
            .num("offered_load", r.offered_load, 4)
            .raw("sessions", r.sessions)
            .raw("messages_per_session", r.messages_per_session)
            .raw("trials", r.trials)
            .raw("injected_messages", r.injected_messages)
            .raw("delivered_messages", r.delivered_messages)
            .num("delivered_per_slot", r.delivered_per_slot, 4)
            .num("efficiency", r.efficiency, 4)
            .raw("p50", r.p50)
            .raw("p90", r.p90)
            .raw("p99", r.p99)
            .raw("p999", r.p999)
            .raw("max", r.max)
            .num("mean_slots", r.mean_slots, 3)
            .raw("knee", r.knee)
            .finish()
    }))
}

/// Writes the JSON form to `BENCH_latency.json` in `out` (the repo root
/// when `None`) and returns the path written.
pub fn write_latency_json(
    rows: &[LatencyRow],
    out: Option<&std::path::Path>,
) -> std::path::PathBuf {
    crate::json::write_artifact("BENCH_latency.json", out, &latency_json(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_runs_and_serialises() {
        let rows = run_latency_sweep();
        // 2 protocols × 6 ladder points.
        assert_eq!(rows.len(), 12);
        for protocol in ["CXL", "RXL"] {
            assert_eq!(rows.iter().filter(|r| r.protocol == protocol).count(), 6);
        }
        for r in &rows {
            assert!(r.offered_load > 0.0 && r.offered_load <= 1.0);
            assert!(r.delivered_messages > 0);
            assert_eq!(r.injected_messages, r.delivered_messages);
            assert!(r.p50 > 0);
            assert!(r.p50 <= r.p90 && r.p90 <= r.p99 && r.p99 <= r.p999 && r.p999 <= r.max);
            assert!(r.efficiency > 0.0);
        }
        let table = latency_table(&rows);
        assert!(table.contains("Latency vs offered load"));
        let json = latency_json(&rows);
        assert!(json.contains("\"bench\": \"latency_sweep\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
