//! Fabric-scale Monte-Carlo cross-check of the analytic FIT projection.
//!
//! `fabric_fit_crosscheck` drives whole ring fabrics of concurrent sessions
//! through the `rxl-fabric` discrete-event simulator at an accelerated BER —
//! once as baseline CXL, once as RXL — and tabulates the empirical
//! `Fail_order` rate next to `FabricSpec`'s analytic projection evaluated at
//! the measured accelerated operating point. The machine-readable JSON form
//! seeds the repository's performance/accuracy trajectory
//! (`BENCH_fabric.json`).

use rxl_core::{FabricSimEvidence, FabricSimOptions, FabricSpec, ProtocolKind};

use crate::json::{JsonDocument, JsonRow};
use crate::{render_table, sci};

/// Devices of the committed `BENCH_fabric.json` fabric (simulated with
/// `FabricSimOptions::default()`).
pub const DEVICES: u64 = 16_384;

/// Switching levels of the committed `BENCH_fabric.json` fabric.
pub const LEVELS: u32 = 2;

/// One protocol's worth of fabric cross-check evidence.
#[derive(Clone, Debug)]
pub struct FabricCheckRow {
    /// Protocol simulated.
    pub kind: ProtocolKind,
    /// The spec whose projection was cross-checked.
    pub spec: FabricSpec,
    /// Simulation evidence (report + empirical-vs-analytic comparison).
    pub evidence: FabricSimEvidence,
}

/// Runs the cross-check for both protocols over a fabric of `devices`
/// devices behind `levels` switching levels.
pub fn run_fabric_crosscheck(
    devices: u64,
    levels: u32,
    opts: &FabricSimOptions,
) -> Vec<FabricCheckRow> {
    [ProtocolKind::Cxl, ProtocolKind::Rxl]
        .into_iter()
        .map(|kind| {
            let spec = FabricSpec::new(kind, devices, levels);
            let evidence = spec.simulate(opts);
            FabricCheckRow {
                kind,
                spec,
                evidence,
            }
        })
        .collect()
}

/// Renders the cross-check rows as an aligned text table with a summary of
/// the agreement.
pub fn fabric_crosscheck_table(rows: &[FabricCheckRow], opts: &FabricSimOptions) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let cc = &row.evidence.crosscheck;
            vec![
                row.kind.name().to_string(),
                row.evidence.sessions.to_string(),
                cc.payload_flits.to_string(),
                cc.silent_drops.to_string(),
                cc.undetected_drop_events.to_string(),
                sci(cc.measured_drop_rate),
                sci(cc.measured_p_coalescing),
                sci(cc.empirical_fit),
                sci(cc.analytic_fit),
                if cc.agrees_within(3.0) { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    let mut out = render_table(
        &format!(
            "Fabric FIT cross-check ({} topology, accelerated BER {:.0e}, {} trials)",
            rows.first()
                .map(|r| r.evidence.topology.as_str())
                .unwrap_or("?"),
            opts.ber,
            opts.trials,
        ),
        &[
            "protocol",
            "sessions",
            "payload flits",
            "silent drops",
            "Fail_order events",
            "drop rate/hop",
            "p_coalescing",
            "empirical FIT",
            "analytic FIT",
            "agree (3 sigma)",
        ],
        &table_rows,
    );
    for row in rows {
        out.push_str(&format!(
            "\n{}: fabric of {} devices -> empirical {} FIT vs analytic {} FIT at the accelerated point",
            row.kind.name(),
            row.spec.devices,
            sci(row.evidence.empirical_fabric_fit),
            sci(row.evidence.analytic_fabric_fit),
        ));
    }
    out.push_str(
        "\nExpected shape (paper Section 7.1): CXL's empirical Fail_order rate tracks the analytic\n\
         levels x FER_UC x p_coalescing projection; RXL observes zero undetected failures.\n",
    );
    out
}

/// Serialises the cross-check rows as a JSON document (hand-rolled — the
/// build container has no serde) for `BENCH_fabric.json`.
pub fn fabric_crosscheck_json(rows: &[FabricCheckRow], opts: &FabricSimOptions) -> String {
    JsonDocument::new("fabric_fit_crosscheck")
        .field("ber", format!("{:e}", opts.ber))
        .field("trials", opts.trials)
        .field("messages_per_session", opts.messages_per_session)
        .rows(rows.iter().map(|row| {
            let cc = &row.evidence.crosscheck;
            let r = &row.evidence.report;
            JsonRow::new()
                .str("protocol", row.kind.name())
                .str("topology", &row.evidence.topology)
                .raw("devices", row.spec.devices)
                .raw("switch_levels", cc.path_switches)
                .raw("sessions", row.evidence.sessions)
                .raw("payload_flits", cc.payload_flits)
                .raw("silent_drops", cc.silent_drops)
                .raw("fail_order_events", cc.undetected_drop_events)
                .raw("replay_leak_events", r.replay_leak_events)
                .sci("drop_rate_per_hop", cc.measured_drop_rate)
                .sci("p_coalescing", cc.measured_p_coalescing)
                .sci("empirical_failure_rate", cc.empirical_failure_rate)
                .sci("analytic_failure_rate", cc.analytic_failure_rate)
                .sci("empirical_fit", cc.empirical_fit)
                .sci("analytic_fit", cc.analytic_fit)
                .sci("empirical_fabric_fit", row.evidence.empirical_fabric_fit)
                .sci("analytic_fabric_fit", row.evidence.analytic_fabric_fit)
                .raw("ordering_failures", r.failures.ordering_failures)
                .raw("duplicate_deliveries", r.failures.duplicate_deliveries)
                .raw("clean_deliveries", r.failures.clean_deliveries)
                .raw("drained_trials", r.drained_trials)
                .raw("agrees_3sigma", cc.agrees_within(3.0))
                .finish()
        }))
}

/// Writes the JSON form of the cross-check to `BENCH_fabric.json` in `out`
/// (the repo root when `None`; shared by the `run_all` and
/// `fabric_fit_crosscheck` binaries' `--json` flag) and returns the path
/// written.
pub fn write_fabric_json(
    rows: &[FabricCheckRow],
    opts: &FabricSimOptions,
    out: Option<&std::path::Path>,
) -> std::path::PathBuf {
    crate::json::write_artifact(
        "BENCH_fabric.json",
        out,
        &fabric_crosscheck_json(rows, opts),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> FabricSimOptions {
        FabricSimOptions {
            ber: 1e-4,
            sessions: 3,
            messages_per_session: 60,
            trials: 2,
            base_seed: 9,
        }
    }

    #[test]
    fn crosscheck_rows_cover_both_protocols() {
        let rows = run_fabric_crosscheck(64, 2, &tiny_opts());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].kind, ProtocolKind::Cxl);
        assert_eq!(rows[1].kind, ProtocolKind::Rxl);
        assert_eq!(rows[1].evidence.crosscheck.undetected_drop_events, 0);
    }

    #[test]
    fn table_and_json_render_both_rows() {
        let opts = tiny_opts();
        let rows = run_fabric_crosscheck(64, 2, &opts);
        let table = fabric_crosscheck_table(&rows, &opts);
        assert!(table.contains("CXL"));
        assert!(table.contains("RXL"));
        assert!(table.contains("Fabric FIT cross-check"));

        let json = fabric_crosscheck_json(&rows, &opts);
        assert!(json.contains("\"bench\": \"fabric_fit_crosscheck\""));
        assert!(json.contains("\"protocol\": \"CXL\""));
        assert!(json.contains("\"protocol\": \"RXL\""));
        // Balanced braces/brackets — a cheap structural sanity check in the
        // absence of a JSON parser.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in:\n{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
