//! SLO incident replays for the bench harness (`slo_replay`).
//!
//! Re-runs the chaos sweep's two canonical incidents — the ×20 uplink BER
//! storm and the spine failover — as **scored SLO incidents** through
//! `rxl-telemetry`: one `SloProbe` per trial feeds fixed-width windows of
//! latency/availability, the windows feed error-budget burn rates, and the
//! burn series is scored against the incident interval (burn during vs
//! after, peak, time to recovery, alert coverage).
//!
//! Unlike the chaos sweep (greedy injection — the whole offered load lands
//! in window 0), these replays pace injection at a fraction of line rate via
//! [`FabricConfig::with_offered_load`], so arrivals spread across the run
//! and the windowed series shows the incident's *shape*, not just its
//! totals. The measured shape is a classic lagging-indicator outage: during
//! the storm both protocols keep delivering (deliveries dip as the replay
//! backlog builds), and the budget burns in the post-storm drain tail when
//! the delayed messages finally land — with one decisive difference: only
//! baseline CXL taints the availability budget (its drained backlog
//! includes `Fail_order` corruption), while RXL's tail is pure latency.
//!
//! The JSON form (`BENCH_slo.json`) carries two row kinds, discriminated by
//! `"kind"`: one `summary` row per scenario × protocol, and the full
//! per-window `window` series (p50/p99/p99.9, availability, burn rates,
//! alert flags) behind it.

use rxl_chaos::Scenario;
use rxl_fabric::{FabricConfig, FabricTopology, FabricWorkload};
use rxl_link::{ChannelErrorModel, ProtocolVariant};
use rxl_telemetry::{IncidentReplay, IncidentReport, SloSpec};

use crate::json::{JsonDocument, JsonRow};
use crate::{render_table, sci};

/// One scenario × protocol incident replay.
#[derive(Clone, Debug)]
pub struct SloMeasurement {
    /// Scenario identifier (`uplink_storm_x<N>` / `spine_failover`).
    pub scenario: String,
    /// Protocol simulated.
    pub variant: &'static str,
    /// Monte-Carlo trials.
    pub trials: u64,
    /// Concurrent sessions.
    pub sessions: usize,
    /// Messages per session per direction.
    pub messages_per_session: usize,
    /// Offered load the injection was paced at.
    pub offered_load: f64,
    /// Telemetry window length (slots).
    pub window_slots: u64,
    /// The scored replay output.
    pub report: IncidentReport,
}

/// Runs both incident replays for both protocols and returns the scored
/// measurements.
pub fn run_slo_replay() -> Vec<SloMeasurement> {
    let (messages, trials, fault_at, storm_len, window_slots) = (12_000, 4, 2_000, 2_000, 500);
    // 10% of line rate: each stream's arrivals spread over
    // `messages / (0.10 × MESSAGES_PER_FLIT)` slots, so the fault interval
    // sits mid-run with settled windows before it and a visible recovery
    // tail after it. The shared leaf 0 → spine trunk saturates near 12% per
    // stream, so 10% leaves headroom in calm windows while the ×20 storm
    // (≈33% flit error rate) genuinely overruns it.
    let offered_load = 0.10;
    let slo = SloSpec::default();
    let mut out = Vec::new();

    // Uplink storm: one spine, every session crosses the stormed trunk.
    {
        let topology = FabricTopology::leaf_spine(2, 1, 2);
        let sessions = topology.session_count();
        let uplink = topology.trunk_between(0, 2).expect("leaf 0 uplink");
        let scenario =
            Scenario::named("uplink_storm_x20").ber_storm(fault_at, storm_len, vec![uplink], 20.0);
        let workload = FabricWorkload::symmetric(sessions, messages, 8, 0xC4A05);
        for variant in [ProtocolVariant::CxlPiggyback, ProtocolVariant::Rxl] {
            let config = FabricConfig {
                max_slots: 120_000,
                ..FabricConfig::new(variant)
            }
            .with_channel(ChannelErrorModel::random(1e-5))
            .with_seed(0xC4A0_5EED)
            .with_offered_load(offered_load);
            let replay = IncidentReplay::new(
                topology.clone(),
                config,
                scenario.clone(),
                trials,
                window_slots,
                slo,
            );
            out.push(SloMeasurement {
                scenario: scenario.name.clone(),
                variant: crate::variant_name(variant),
                trials,
                sessions,
                messages_per_session: messages,
                offered_load,
                window_slots,
                report: replay.run(&workload),
            });
        }
    }

    // Spine failover: two spines, one dies mid-traffic.
    {
        let topology = FabricTopology::leaf_spine(2, 2, 2);
        let sessions = topology.session_count();
        let scenario = Scenario::named("spine_failover").switch_fail(fault_at, 2);
        let workload = FabricWorkload::symmetric(sessions, messages, 8, 0xFA11);
        for variant in [ProtocolVariant::CxlPiggyback, ProtocolVariant::Rxl] {
            let config = FabricConfig {
                max_slots: 120_000,
                ..FabricConfig::new(variant)
            }
            .with_channel(ChannelErrorModel::ideal())
            .with_seed(0xFA11_5EED)
            .with_offered_load(offered_load);
            let replay = IncidentReplay::new(
                topology.clone(),
                config,
                scenario.clone(),
                trials,
                window_slots,
                slo,
            );
            out.push(SloMeasurement {
                scenario: scenario.name.clone(),
                variant: crate::variant_name(variant),
                trials,
                sessions,
                messages_per_session: messages,
                offered_load,
                window_slots,
                report: replay.run(&workload),
            });
        }
    }
    out
}

/// Renders the incident summaries as an aligned text table.
pub fn slo_table(measurements: &[SloMeasurement]) -> String {
    let rows: Vec<Vec<String>> = measurements
        .iter()
        .map(|m| {
            let r = &m.report;
            let score = r.score.as_ref();
            let worst_avail = r
                .stats
                .iter()
                .map(|w| w.availability)
                .fold(1.0f64, f64::min);
            let worst_p999 = r.stats.iter().map(|w| w.latency.p999).max().unwrap_or(0);
            vec![
                m.scenario.clone(),
                m.variant.to_string(),
                r.stats.len().to_string(),
                sci(score.map(|s| s.burn_during).unwrap_or(0.0)),
                sci(score.map(|s| s.burn_after).unwrap_or(0.0)),
                sci(score.map(|s| s.peak_burn).unwrap_or(0.0)),
                score
                    .and_then(|s| s.time_to_recovery_slots)
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "-".to_string()),
                format!(
                    "{}/{}",
                    score.map(|s| s.fast_alert_windows).unwrap_or(0),
                    score.map(|s| s.slow_alert_windows).unwrap_or(0)
                ),
                sci(worst_avail),
                worst_p999.to_string(),
            ]
        })
        .collect();
    render_table(
        "SLO incident replays: error-budget burn during vs after the fault",
        &[
            "scenario",
            "protocol",
            "windows",
            "burn during",
            "burn after",
            "peak burn",
            "recovery (slots)",
            "fast/slow alerts",
            "worst avail",
            "worst p99.9",
        ],
        &rows,
    )
}

/// Serialises the measurements as `BENCH_slo.json` content: one `summary`
/// row per measurement plus its full per-window `window` series.
pub fn slo_json(measurements: &[SloMeasurement]) -> String {
    let mut rows: Vec<String> = Vec::new();
    for m in measurements {
        let r = &m.report;
        let slo = &r.slo;
        let mut summary = JsonRow::new()
            .str("kind", "summary")
            .str("scenario", &m.scenario)
            .str("protocol", m.variant)
            .raw("trials", m.trials)
            .raw("sessions", m.sessions)
            .raw("messages_per_session", m.messages_per_session)
            .num("offered_load", m.offered_load, 2)
            .raw("window_slots", m.window_slots)
            .raw("windows", r.stats.len())
            .raw("latency_threshold_slots", slo.latency_threshold_slots)
            .num("latency_objective", slo.latency_objective, 4)
            .num("availability_objective", slo.availability_objective, 4)
            .num("availability_mean", r.aggregate.availability_mean(), 6)
            .raw(
                "warmup_window",
                r.warmup_window.map(|w| w as i64).unwrap_or(-1),
            );
        if let Some(s) = &r.score {
            summary = summary
                .raw("incident_start", s.incident_start)
                .raw("incident_end", s.incident_end)
                .num("burn_during", s.burn_during, 3)
                .num("burn_after", s.burn_after, 3)
                .num("peak_burn", s.peak_burn, 3)
                .raw(
                    "time_to_recovery_slots",
                    s.time_to_recovery_slots.map(|t| t as i64).unwrap_or(-1),
                )
                .raw("fast_alert_windows", s.fast_alert_windows)
                .raw("slow_alert_windows", s.slow_alert_windows);
        }
        rows.push(summary.finish());
        for (w, b) in r.stats.iter().zip(&r.burn) {
            rows.push(
                JsonRow::new()
                    .str("kind", "window")
                    .str("scenario", &m.scenario)
                    .str("protocol", m.variant)
                    .raw("index", w.index)
                    .raw("start_slot", w.start_slot)
                    .raw("injected", w.injected)
                    .raw("deliveries", w.deliveries)
                    .raw("clean", w.clean)
                    .num("availability", w.availability, 6)
                    .raw("p50", w.latency.p50)
                    .raw("p99", w.latency.p99)
                    .raw("p999", w.latency.p999)
                    .raw("retransmits", w.retransmits)
                    .raw("credit_stalls", w.credit_stalls)
                    .raw("fail_orders", w.fail_orders)
                    .num("latency_burn", b.latency_burn, 3)
                    .num("availability_burn", b.availability_burn, 3)
                    .num("burn", b.burn, 3)
                    .raw("fast_alert", b.fast_alert)
                    .raw("slow_alert", b.slow_alert)
                    .finish(),
            );
        }
    }
    JsonDocument::new("slo_replay").rows(rows)
}

/// Writes the JSON form to `BENCH_slo.json` in `out` (the repo root when
/// `None`) and returns the path written.
pub fn write_slo_json(
    measurements: &[SloMeasurement],
    out: Option<&std::path::Path>,
) -> std::path::PathBuf {
    crate::json::write_artifact("BENCH_slo.json", out, &slo_json(measurements))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_runs_and_serialises() {
        let ms = run_slo_replay();
        assert_eq!(ms.len(), 4, "storm + failover, × 2 variants");
        assert!(ms[0].scenario.starts_with("uplink_storm"));
        assert_eq!(ms[3].scenario, "spine_failover");
        for m in &ms {
            assert!(
                m.report.stats.len() > 1,
                "{}: paced arrivals spread over windows",
                m.scenario
            );
            assert_eq!(m.report.stats.len(), m.report.burn.len());
            let score = m.report.score.as_ref().expect("both scenarios have events");
            assert_eq!(score.incident_start, 2_000);
            for (w, b) in m.report.stats.iter().zip(&m.report.burn) {
                assert!((0.0..=1.0).contains(&w.availability), "{}", m.scenario);
                assert!(b.burn >= 0.0, "{}", m.scenario);
            }
            // Paced injection puts arrivals in more than the first window.
            let windows_with_arrivals = m.report.stats.iter().filter(|w| w.injected > 0).count();
            assert!(windows_with_arrivals > 1, "{}", m.scenario);
        }
        let table = slo_table(&ms);
        assert!(table.contains("SLO incident replays"));
        let json = slo_json(&ms);
        assert!(json.contains("\"bench\": \"slo_replay\""));
        assert!(json.contains("\"kind\": \"summary\""));
        assert!(json.contains("\"kind\": \"window\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
