//! # rxl-bench — experiment harness
//!
//! One function per table or figure of the paper's evaluation, each
//! returning a formatted text table that places the paper's reported value,
//! this reproduction's analytic model, and (where meaningful) a Monte-Carlo
//! simulation measurement side by side. The binaries under `src/bin/` are
//! thin wrappers that print these tables; `cargo run -p rxl-bench --bin
//! run_all --release` regenerates every experiment at once (that output is
//! the basis of `EXPERIMENTS.md`).
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table_reliability` | Eqns (1)–(10), Sections 7.1.1–7.1.3 |
//! | `fig8_fit_vs_levels` | Fig. 8 |
//! | `table_bandwidth` | Eqns (11)–(14), Section 7.2 |
//! | `table_hw_overhead` | Section 7.3 |
//! | `table_fec_detection` | Section 2.5 detection fractions |
//! | `table_crc_detection` | Section 4.1 CRC claims |
//! | `table_header_overhead` | Section 2.4 / Fig. 2 comparison |
//! | `fig4_scenario` | Fig. 4 link-layer failure trace |
//! | `fig5_scenarios` | Fig. 5a/5b transaction-layer failure traces |
//! | `fig6_isn_scenario` | Fig. 6c ISN drop-detection trace |
//! | `sim_crosscheck` | accelerated-BER simulation vs. analytic model |
//! | `fabric_fit_crosscheck` | fabric-scale Monte-Carlo vs. `FabricSpec` projection |
//! | `chaos_sweep` | fault-injection scenarios: BER storms, spine failover |
//! | `latency_sweep` | latency vs offered load, saturation knee |
//! | `slo_replay` | chaos incidents scored as SLO burn (windowed telemetry) |
//! | `fabric_hotspots` | spatial congestion attribution: per-link heatmaps, bottleneck ranking |
//! | `request_tail` | open-system serving mode: request tail amplification vs fanout, operating-point recommendation |
//!
//! `run_all` and `fabric_fit_crosscheck` accept `--json` to additionally
//! write machine-readable results to `BENCH_fabric.json`;
//! `chaos_sweep --json` writes `BENCH_chaos.json`;
//! `latency_sweep --json` writes `BENCH_latency.json`;
//! `slo_replay --json` writes `BENCH_slo.json`;
//! `fabric_hotspots --json` writes `BENCH_hotspots.json`;
//! `request_tail --json` writes `BENCH_requests.json`.
//! Artifacts land at the repository root regardless of the invoking working
//! directory; every bin takes `--out DIR` to redirect them ([`cli`] is the
//! one parser they share). Each sweep has one configuration, and the
//! committed file is what the bin writes: `cargo test -p rxl-bench --test
//! artifacts` checks all six byte for byte. Host-speed numbers are not
//! produced here: the perf ledger under `benchmark/` (declared by
//! `BENCHMARK.json`) owns those.

pub mod chaos;
pub mod cli;
pub mod fabriccheck;
pub mod hotspots;
pub mod json;
pub mod latency;
pub mod requests;
pub mod scenarios;
pub mod simcheck;
pub mod slo;
pub mod tables;

pub use chaos::{chaos_json, chaos_table, run_chaos_sweep, write_chaos_json, ChaosRow};
pub use fabriccheck::{
    fabric_crosscheck_json, fabric_crosscheck_table, run_fabric_crosscheck, write_fabric_json,
};
pub use hotspots::{
    hotspots_json, hotspots_table, run_hotspots, write_hotspots_json, HotspotsReport,
};
pub use latency::{latency_json, latency_table, run_latency_sweep, write_latency_json, LatencyRow};
pub use requests::{
    requests_json, requests_table, run_requests, write_requests_json, FanoutRow, RequestsReport,
};
pub use scenarios::{fig4_scenario, fig5a_scenario, fig5b_scenario, fig6_isn_scenario};
pub use simcheck::sim_crosscheck_table;
pub use slo::{run_slo_replay, slo_json, slo_table, write_slo_json, SloMeasurement};
pub use tables::{
    bandwidth_table, buffering_table, crc_detection_table, fec_detection_table, fig8_table,
    header_overhead_table, hw_overhead_table, reliability_table,
};

/// Short protocol label for report rows, shared by every measurement
/// module (`chaos`, `latency`, `slo`, …).
pub(crate) fn variant_name(variant: rxl_link::ProtocolVariant) -> &'static str {
    match variant {
        rxl_link::ProtocolVariant::Rxl => "RXL",
        _ => "CXL",
    }
}

/// Escapes a string for embedding in a JSON string literal (shared by the
/// hand-rolled `BENCH_*.json` writers; the build container has no serde).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a floating-point value in compact scientific notation.
pub fn sci(x: f64) -> String {
    if x == 0.0 {
        return "0".to_string();
    }
    if (1e-3..1e4).contains(&x.abs()) {
        format!("{x:.4}")
    } else {
        format!("{x:.2e}")
    }
}

/// Renders a simple aligned text table.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:<width$}", width = widths[i]))
        .collect();
    out.push_str(&header_line.join(" | "));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 3 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<width$}", width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        out.push_str(&line.join(" | "));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sci_formatting() {
        assert_eq!(sci(0.0), "0");
        assert_eq!(sci(0.0015), "0.0015");
        assert!(sci(1.6e-24).contains('e'));
        assert!(sci(5.4e15).contains('e'));
    }

    #[test]
    fn table_rendering_aligns_columns() {
        let t = render_table(
            "demo",
            &["name", "value"],
            &[
                vec!["a".to_string(), "1".to_string()],
                vec!["longer".to_string(), "2".to_string()],
            ],
        );
        assert!(t.contains("== demo =="));
        assert!(t.contains("longer | 2"));
        assert!(t.lines().count() >= 4);
    }
}
