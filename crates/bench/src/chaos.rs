//! Chaos sweep: scenario Monte-Carlo measurements for the bench harness.
//!
//! `chaos_sweep` runs two canonical fault-injection scenarios from
//! `rxl-chaos` over a leaf–spine pod, once per protocol variant:
//!
//! * **uplink storm** — a BER storm of configurable acceleration on one
//!   leaf → spine trunk, with epoch boundaries at the storm's start and end
//!   so the per-epoch `Fail_order` counts separate before / during / after;
//! * **spine failover** — one of two spines dies mid-traffic; surviving
//!   sessions must reroute and keep delivering.
//!
//! The JSON form (`BENCH_chaos.json`) extends the repository's
//! machine-readable trajectory: baseline CXL's storm-window failure counts
//! and availability sit next to RXL's clean rows at the same operating
//! points.

use rxl_chaos::{ChaosMonteCarlo, ChaosMonteCarloReport, Scenario};
use rxl_fabric::{FabricConfig, FabricTopology, FabricWorkload};
use rxl_link::{ChannelErrorModel, ProtocolVariant};

use crate::json::{JsonDocument, JsonRow};
use crate::{render_table, sci};

/// One scenario × protocol measurement.
#[derive(Clone, Debug)]
pub struct ChaosRow {
    /// Scenario identifier (`uplink_storm_x<N>` / `spine_failover`).
    pub scenario: String,
    /// Protocol simulated.
    pub variant: &'static str,
    /// Storm BER acceleration factor (0 for non-storm scenarios).
    pub factor: f64,
    /// Monte-Carlo trials.
    pub trials: u64,
    /// Concurrent sessions.
    pub sessions: usize,
    /// Messages per session per direction.
    pub messages_per_session: usize,
    /// `Fail_order` events in the epoch before the fault.
    pub before_events: u64,
    /// `Fail_order` events while the fault is active (for the failover
    /// scenario: after the failure).
    pub during_events: u64,
    /// `Fail_order` events after the fault cleared (0 for permanent faults).
    pub after_events: u64,
    /// Clean deliveries while the fault is active — the "fabric still
    /// works" signal of the failover scenario.
    pub during_clean_deliveries: u64,
    /// Application-visible failures (ordering + duplicates + corruption;
    /// losses are only attributed at trial end) observed while the fault is
    /// active.
    pub during_failures: u64,
    /// Total application-visible failures over all trials (losses included).
    pub total_failures: u64,
    /// Flits destroyed by fault injection.
    pub blackholed_flits: u64,
    /// Mean availability over trials.
    pub availability_mean: f64,
    /// Worst-trial availability.
    pub availability_min: f64,
    /// Trials that drained.
    pub drained_trials: u64,
    /// Trials classified as credit deadlock.
    pub deadlocked_trials: u64,
    /// Trials that stalled only after delivering every message
    /// (control-plane replay wedge; counted as drained).
    pub post_delivery_wedge_trials: u64,
    /// Earliest first-`Fail_order` slot across trials (−1 = none).
    pub earliest_fail_order_slot: i64,
}

/// Extracts the (before, during, after) `Fail_order` sums from a report's
/// epochs, tolerating scenarios with only two epochs (permanent faults).
fn epoch_events(report: &ChaosMonteCarloReport) -> (u64, u64, u64) {
    let ev = |i: usize| {
        report
            .epochs
            .get(i)
            .map(|e| e.undetected_drop_events)
            .unwrap_or(0)
    };
    (ev(0), ev(1), ev(2))
}

fn row_from_report(
    scenario: String,
    variant: ProtocolVariant,
    factor: f64,
    sessions: usize,
    messages: usize,
    report: &ChaosMonteCarloReport,
) -> ChaosRow {
    let (before_events, during_events, after_events) = epoch_events(report);
    ChaosRow {
        scenario,
        variant: crate::variant_name(variant),
        factor,
        trials: report.trials,
        sessions,
        messages_per_session: messages,
        before_events,
        during_events,
        after_events,
        during_clean_deliveries: report
            .epochs
            .get(1)
            .map(|e| e.failures.clean_deliveries)
            .unwrap_or(0),
        during_failures: report
            .epochs
            .get(1)
            .map(|e| e.failures.total_failures())
            .unwrap_or(0),
        total_failures: report.failures.total_failures(),
        blackholed_flits: report.blackholed_flits,
        availability_mean: report.availability_mean(),
        availability_min: report.availability_min(),
        drained_trials: report.drained_trials,
        deadlocked_trials: report.deadlocked_trials,
        post_delivery_wedge_trials: report.post_delivery_wedge_trials,
        earliest_fail_order_slot: report
            .earliest_fail_order_slot
            .map(|s| s as i64)
            .unwrap_or(-1),
    }
}

/// Runs the chaos sweep and returns the measured rows.
pub fn run_chaos_sweep() -> Vec<ChaosRow> {
    let (messages, trials, storm_start, storm_len) = (12_000, 4, 400, 600);
    let factors = [10.0, 20.0, 50.0];
    let base_ber = 1e-5;
    let mut rows = Vec::new();

    // Uplink-storm sweep: one spine, so every session crosses the stormed
    // leaf 0 → spine trunk in one of its directions.
    for factor in factors {
        let topology = FabricTopology::leaf_spine(2, 1, 2);
        let sessions = topology.session_count();
        let uplink = topology.trunk_between(0, 2).expect("leaf 0 uplink");
        let scenario = Scenario::named(format!("uplink_storm_x{factor}")).ber_storm(
            storm_start,
            storm_len,
            vec![uplink],
            factor,
        );
        let workload = FabricWorkload::symmetric(sessions, messages, 8, 0xC4A05);
        for variant in [ProtocolVariant::CxlPiggyback, ProtocolVariant::Rxl] {
            let config = FabricConfig {
                // Livelocked baseline-CXL trials would otherwise idle
                // against the 400k-slot default limit.
                max_slots: 40_000,
                ..FabricConfig::new(variant)
            }
            .with_channel(ChannelErrorModel::random(base_ber))
            .with_seed(0xC4A0_5EED);
            let name = scenario.name.clone();
            let report = ChaosMonteCarlo::new(topology.clone(), config, scenario.clone(), trials)
                .run(&workload);
            rows.push(row_from_report(
                name, variant, factor, sessions, messages, &report,
            ));
        }
    }

    // Spine failover: two spines, one dies mid-traffic.
    {
        let topology = FabricTopology::leaf_spine(2, 2, 2);
        let sessions = topology.session_count();
        let fail_at = storm_start;
        let scenario = Scenario::named("spine_failover").switch_fail(fail_at, 2);
        let workload = FabricWorkload::symmetric(sessions, messages, 8, 0xFA11);
        for variant in [ProtocolVariant::CxlPiggyback, ProtocolVariant::Rxl] {
            let config = FabricConfig {
                max_slots: 40_000,
                ..FabricConfig::new(variant)
            }
            .with_channel(ChannelErrorModel::ideal())
            .with_seed(0xFA11_5EED);
            let name = scenario.name.clone();
            let report = ChaosMonteCarlo::new(topology.clone(), config, scenario.clone(), trials)
                .run(&workload);
            rows.push(row_from_report(
                name, variant, 0.0, sessions, messages, &report,
            ));
        }
    }
    rows
}

/// Renders the rows as an aligned text table.
pub fn chaos_table(rows: &[ChaosRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                r.variant.to_string(),
                r.before_events.to_string(),
                r.during_events.to_string(),
                r.after_events.to_string(),
                r.during_failures.to_string(),
                r.total_failures.to_string(),
                r.blackholed_flits.to_string(),
                sci(r.availability_mean),
                format!("{}/{}", r.drained_trials, r.trials),
                r.post_delivery_wedge_trials.to_string(),
                if r.earliest_fail_order_slot < 0 {
                    "-".to_string()
                } else {
                    r.earliest_fail_order_slot.to_string()
                },
            ]
        })
        .collect();
    render_table(
        "Chaos scenarios: Fail_order events before/during/after the fault",
        &[
            "scenario",
            "protocol",
            "before",
            "during",
            "after",
            "during fails",
            "failures",
            "blackholed",
            "avail",
            "drained",
            "wedged",
            "first-fail slot",
        ],
        &table_rows,
    )
}

/// Serialises the rows as `BENCH_chaos.json` content (hand-rolled — no
/// serde in the build container).
pub fn chaos_json(rows: &[ChaosRow]) -> String {
    JsonDocument::new("chaos_sweep").rows(rows.iter().map(|r| {
        JsonRow::new()
            .str("scenario", &r.scenario)
            .str("protocol", r.variant)
            .raw("factor", r.factor)
            .raw("trials", r.trials)
            .raw("sessions", r.sessions)
            .raw("messages_per_session", r.messages_per_session)
            .raw("before_events", r.before_events)
            .raw("during_events", r.during_events)
            .raw("after_events", r.after_events)
            .raw("during_clean_deliveries", r.during_clean_deliveries)
            .raw("during_failures", r.during_failures)
            .raw("total_failures", r.total_failures)
            .raw("blackholed_flits", r.blackholed_flits)
            .num("availability_mean", r.availability_mean, 6)
            .num("availability_min", r.availability_min, 6)
            .raw("drained_trials", r.drained_trials)
            .raw("deadlocked_trials", r.deadlocked_trials)
            .raw("post_delivery_wedge_trials", r.post_delivery_wedge_trials)
            .raw("earliest_fail_order_slot", r.earliest_fail_order_slot)
            .finish()
    }))
}

/// Writes the JSON form to `BENCH_chaos.json` in `out` (the repo root when
/// `None`) and returns the path written.
pub fn write_chaos_json(rows: &[ChaosRow], out: Option<&std::path::Path>) -> std::path::PathBuf {
    crate::json::write_artifact("BENCH_chaos.json", out, &chaos_json(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_and_serialises() {
        let rows = run_chaos_sweep();
        assert_eq!(rows.len(), 8, "3 storm factors + failover, × 2 variants");
        for r in &rows {
            assert!(r.trials > 0);
            assert!(r.availability_mean > 0.0 && r.availability_mean <= 1.0);
        }
        // RXL rows never show Fail_order events, nor any other failure.
        for r in rows.iter().filter(|r| r.variant == "RXL") {
            assert_eq!(
                (r.before_events, r.during_events, r.after_events),
                (0, 0, 0),
                "{}",
                r.scenario
            );
            assert_eq!(r.total_failures, 0, "{}", r.scenario);
        }
        let storms = rows
            .iter()
            .filter(|r| r.scenario.starts_with("uplink_storm"));
        assert_eq!(storms.count(), 6);
        // The failover scenario keeps delivering after the failure for both
        // protocols.
        let failover: Vec<&ChaosRow> = rows
            .iter()
            .filter(|r| r.scenario == "spine_failover")
            .collect();
        assert_eq!(failover.len(), 2);
        for r in failover {
            assert!(r.during_clean_deliveries > 0, "{} rerouted", r.variant);
            assert!(r.blackholed_flits > 0);
        }
        let table = chaos_table(&rows);
        assert!(table.contains("Chaos scenarios"));
        let json = chaos_json(&rows);
        assert!(json.contains("\"bench\": \"chaos_sweep\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
