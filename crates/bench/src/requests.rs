//! Request-tail measurement (`request_tail`): fanout tail amplification and
//! the operating-point recommendation.
//!
//! Two experiments share the report:
//!
//! * **Fanout ladder** — the open-system serving mode runs the uniform
//!   fanout workload at a *fixed per-message load* while the fanout `k`
//!   climbs. Message-level percentiles barely move; the request p99 (the
//!   max of `k` shard latencies) amplifies monotonically with `k` — the
//!   classic tail-at-scale effect, measured for baseline CXL and RXL side
//!   by side.
//! * **Operating point** — the incast request ladder on the shallow
//!   leaf–spine pod climbs until the steady-state request tail breaks the
//!   SLO; [`OperatingPoint`] names the max safe offered load *and* the
//!   binding bottleneck link (the leaf-0 → spine uplink), joining the
//!   request-scale view to the spatial bottleneck ranking.
//!
//! The machine-readable form (`BENCH_requests.json`) is compared byte for
//! byte with the committed file by `tests/artifacts.rs`; the per-shard span
//! trace of the binding rung exports as JSONL with its dropped-span
//! counters surfaced (bounded rings truncate, and the export must say so).

use rxl_fabric::{FabricConfig, FabricTopology};
use rxl_link::{ChannelErrorModel, ProtocolVariant};
use rxl_load::{ArrivalProcess, FanoutShape};
use rxl_telemetry::{
    BottleneckReport, OperatingPoint, RequestSweep, RequestSweepConfig, RequestSweepReport, SloSpec,
};

use crate::json::{JsonDocument, JsonRow};
use crate::render_table;

/// Fixed per-session message load of the fanout ladder (well below the
/// pod's saturation, so amplification is pure max-of-`k` statistics, not
/// queueing collapse).
pub const FANOUT_MESSAGE_LOAD: f64 = 0.08;

/// Per-trial trace capacity of the operating-point ladder.
const TRACE_CAPACITY: usize = 512;

/// One fanout rung of one protocol.
#[derive(Clone, Debug)]
pub struct FanoutRow {
    /// Protocol label (`RXL` / `CXL`).
    pub protocol: &'static str,
    /// Shards per request.
    pub fanout: usize,
    /// The rung's sweep point (single-load ladder).
    pub point: rxl_telemetry::RequestPoint,
    /// `p99(k) / p99(1)` within the same protocol.
    pub amplification: f64,
}

/// The full request-tail measurement.
#[derive(Clone, Debug)]
pub struct RequestsReport {
    /// Topology name.
    pub topology: String,
    /// The topology object (for link descriptions in exports).
    pub fabric: FabricTopology,
    /// Fanout ladder rows, protocol-major, fanout-ascending.
    pub fanout_rows: Vec<FanoutRow>,
    /// The incast operating-point ladder (RXL).
    pub ladder: RequestSweepReport,
    /// The SLO the recommender judged against.
    pub slo: SloSpec,
    /// The operating-point recommendation.
    pub operating: OperatingPoint,
    /// Prometheus exposition of the binding rung's request families.
    pub prometheus: String,
    /// JSONL span trace of the binding rung (trial 0).
    pub trace_jsonl: String,
    /// Spans retained in the binding rung's trace ring.
    pub trace_spans: usize,
    /// Spans evicted from the ring (surfaced per the truncation contract).
    pub dropped_spans: u64,
}

fn pod_config(variant: ProtocolVariant, seed: u64) -> FabricConfig {
    FabricConfig {
        queue_capacity: 8,
        ..FabricConfig::new(variant)
            .with_channel(ChannelErrorModel::ideal())
            .with_seed(seed)
    }
}

/// Runs the request-tail suite.
pub fn run_requests() -> RequestsReport {
    let fanouts = [1, 2, 4, 8];
    // The incast pod's two leaf-0 streams cross uplink line rate at
    // per-session load 0.5; the ladder brackets that crossing.
    let ladder_loads = vec![0.05, 0.10, 0.20, 0.30, 0.40, 0.60];
    let (trials, measure_slots) = (2, 4_000);
    let topology = FabricTopology::leaf_spine(2, 1, 2);

    let mut fanout_rows = Vec::new();
    for variant in [ProtocolVariant::CxlPiggyback, ProtocolVariant::Rxl] {
        let mut base_p99 = None;
        for k in fanouts {
            let report = RequestSweep::new(
                topology.clone(),
                // Same seed at every fanout: the generator's shared arrival
                // schedule then makes the k-rungs pathwise nested (fanout 4
                // requests are unions of fanout 2 requests), so the measured
                // amplification is exactly the max-of-k effect.
                pod_config(variant, 0x7E57_0000),
                RequestSweepConfig {
                    loads: vec![FANOUT_MESSAGE_LOAD],
                    fanout: k,
                    shape: FanoutShape::Uniform,
                    trials,
                    arrival: ArrivalProcess::poisson(1.0),
                    measure_slots,
                    window_slots: 400,
                    ..RequestSweepConfig::default()
                },
            )
            .run();
            let point = report.points.into_iter().next().expect("one rung");
            let p99 = point.steady.stats.p99 as f64;
            let base = *base_p99.get_or_insert(p99.max(1.0));
            fanout_rows.push(FanoutRow {
                protocol: crate::variant_name(variant),
                fanout: k,
                point,
                amplification: p99 / base,
            });
        }
    }

    let slo = SloSpec::default();
    let sweep = RequestSweep::new(
        topology.clone(),
        pod_config(ProtocolVariant::Rxl, 0x407_5707),
        RequestSweepConfig {
            loads: ladder_loads,
            fanout: 2,
            shape: FanoutShape::Incast { leaf: 1 },
            trials,
            arrival: ArrivalProcess::poisson(1.0),
            measure_slots,
            window_slots: 400,
            trace_capacity: TRACE_CAPACITY,
            ..RequestSweepConfig::default()
        },
    );
    let (ladder, rungs) = sweep.run_detailed();
    let operating = OperatingPoint::recommend(&ladder, &slo);
    let binding_idx = ladder
        .points
        .iter()
        .position(|p| Some(p.offered_load) == operating.binding_load)
        .unwrap_or(ladder.points.len() - 1);
    let rung = &rungs[binding_idx];
    let bottleneck = BottleneckReport::analyze(&topology, &rung.registry, rung.slots);
    let prometheus =
        rung.probe
            .prometheus(&topology, &ladder.points[binding_idx].steady, &bottleneck);
    let trace = rung.probe.trace().expect("ladder runs with tracing");
    RequestsReport {
        topology: ladder.topology.clone(),
        fabric: topology,
        fanout_rows,
        slo,
        operating,
        prometheus,
        trace_jsonl: trace.to_jsonl(),
        trace_spans: trace.spans().count(),
        dropped_spans: trace.dropped_spans(),
        ladder,
    }
}

/// Renders the report as aligned text tables plus the operating-point
/// sentence and the trace truncation line.
pub fn requests_table(report: &RequestsReport) -> String {
    let rows: Vec<Vec<String>> = report
        .fanout_rows
        .iter()
        .map(|r| {
            let straggler = r
                .point
                .straggler
                .first()
                .map(|s| s.description.clone())
                .unwrap_or_else(|| "-".to_string());
            vec![
                r.protocol.to_string(),
                r.fanout.to_string(),
                r.point.requests_completed.to_string(),
                r.point.steady.stats.p50.to_string(),
                r.point.steady.stats.p99.to_string(),
                r.point.steady.stats.p999.to_string(),
                format!("{:.2}×", r.amplification),
                straggler,
            ]
        })
        .collect();
    let mut out = render_table(
        &format!(
            "Request tail amplification vs fanout (uniform shape, per-message load {FANOUT_MESSAGE_LOAD:.2})"
        ),
        &[
            "protocol", "k", "completed", "p50", "p99", "p99.9", "amp", "straggler link",
        ],
        &rows,
    );
    out.push('\n');
    out.push_str(&report.ladder.to_string());
    out.push_str(&format!("operating point: {}\n", report.operating.summary));
    out.push_str(&format!(
        "trace: {} spans retained, {} dropped (bounded ring)\n",
        report.trace_spans, report.dropped_spans
    ));
    out
}

/// Serialises the report for `BENCH_requests.json` (hand-rolled — the build
/// container has no serde). Four row kinds share the document:
///
/// * `"fanout"` — request-tail amplification per protocol × fanout at the
///   fixed per-message load.
/// * `"rung"` — the incast operating-point ladder, steady-state request
///   percentiles plus the rung's hottest link.
/// * `"operating_point"` — the recommendation: max safe load, binding load
///   and binding link.
/// * `"trace"` — span-trace truncation counters of the binding rung.
pub fn requests_json(report: &RequestsReport) -> String {
    let mut rows = Vec::new();
    for r in &report.fanout_rows {
        let straggler = r.point.straggler.first();
        rows.push(
            JsonRow::new()
                .str("kind", "fanout")
                .str("protocol", r.protocol)
                .raw("fanout", r.fanout)
                .num("message_load", FANOUT_MESSAGE_LOAD, 2)
                .raw("completed", r.point.requests_completed)
                .raw("unresolved", r.point.unresolved)
                .raw("p50", r.point.steady.stats.p50)
                .raw("p99", r.point.steady.stats.p99)
                .raw("p999", r.point.steady.stats.p999)
                .raw("max", r.point.steady.stats.max)
                .num("amplification", r.amplification, 3)
                .num("availability", r.point.steady.availability, 6)
                .str(
                    "straggler_link",
                    straggler.map(|s| s.description.as_str()).unwrap_or(""),
                )
                .raw(
                    "straggler_session",
                    straggler.map(|s| s.session as i64).unwrap_or(-1),
                )
                .finish(),
        );
    }

    for (i, p) in report.ladder.points.iter().enumerate() {
        let top = p.top_link.as_ref();
        rows.push(
            JsonRow::new()
                .str("kind", "rung")
                .num("load", p.offered_load, 2)
                .raw("knee", report.ladder.knee == Some(i))
                .raw("offered", p.requests_offered)
                .raw("completed", p.requests_completed)
                .raw("unresolved", p.unresolved)
                .raw("warmup_window", p.warmup_window)
                .raw("windows_used", p.steady.windows_used)
                .raw("p50", p.steady.stats.p50)
                .raw("p99", p.steady.stats.p99)
                .raw("p999", p.steady.stats.p999)
                .num("availability", p.steady.availability, 6)
                .raw("peak_inflight", p.peak_inflight)
                .str("signature", p.signature)
                .raw("top_link", top.map(|l| l.link as i64).unwrap_or(-1))
                .str(
                    "top_link_desc",
                    top.map(|l| l.description.as_str()).unwrap_or(""),
                )
                .finish(),
        );
    }

    let binding = report.operating.binding_link.as_ref();
    rows.push(
        JsonRow::new()
            .str("kind", "operating_point")
            .raw("slo_threshold_slots", report.operating.slo_threshold_slots)
            .num(
                "availability_objective",
                report.operating.availability_objective,
                4,
            )
            .raw(
                "max_safe_load",
                report
                    .operating
                    .max_safe_load
                    .map(|l| format!("{l:.2}"))
                    .unwrap_or_else(|| "null".to_string()),
            )
            .raw(
                "max_safe_p99",
                report
                    .operating
                    .max_safe_p99
                    .map(|p| p.to_string())
                    .unwrap_or_else(|| "null".to_string()),
            )
            .raw(
                "binding_load",
                report
                    .operating
                    .binding_load
                    .map(|l| format!("{l:.2}"))
                    .unwrap_or_else(|| "null".to_string()),
            )
            .raw("binding_link", binding.map(|l| l.link as i64).unwrap_or(-1))
            .str(
                "binding_link_desc",
                binding.map(|l| l.description.as_str()).unwrap_or(""),
            )
            .raw(
                "knee_load",
                report
                    .operating
                    .knee_load
                    .map(|l| format!("{l:.2}"))
                    .unwrap_or_else(|| "null".to_string()),
            )
            .str("summary", &report.operating.summary)
            .finish(),
    );

    rows.push(
        JsonRow::new()
            .str("kind", "trace")
            .raw("spans", report.trace_spans)
            .raw("dropped_spans", report.dropped_spans)
            .finish(),
    );

    JsonDocument::new("requests")
        .field(
            "topology",
            format!("\"{}\"", crate::json_escape(&report.topology)),
        )
        .field("fanout_shape", "\"uniform\"")
        .field("ladder_shape", format!("\"{}\"", report.ladder.shape))
        .field("ladder_fanout", report.ladder.fanout)
        .rows(rows)
}

/// Writes the JSON form to `BENCH_requests.json` in `out` (the repo root
/// when `None`) and returns the path written.
pub fn write_requests_json(
    report: &RequestsReport,
    out: Option<&std::path::Path>,
) -> std::path::PathBuf {
    crate::json::write_artifact("BENCH_requests.json", out, &requests_json(report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_amplifies_the_tail_and_names_the_uplink() {
        let report = run_requests();
        assert_eq!(report.ladder.fanout, 2);
        // The request p99 is monotone in fanout, and fanout 8 amplifies it
        // over fanout 1, for both protocols at the same per-message load.
        for proto in ["CXL", "RXL"] {
            let rows: Vec<&FanoutRow> = report
                .fanout_rows
                .iter()
                .filter(|r| r.protocol == proto)
                .collect();
            assert_eq!(rows.len(), 4, "{proto}");
            assert!(
                rows.windows(2)
                    .all(|w| { w[1].point.steady.stats.p99 >= w[0].point.steady.stats.p99 }),
                "{proto} p99 not monotone in fanout"
            );
            assert!(
                rows.last().unwrap().amplification > 1.0,
                "{proto} tail not amplified"
            );
        }
        // The binding constraint is the leaf-0 uplink (dense link 8).
        let binding = report.operating.binding_link.as_ref().expect("binding");
        assert_eq!(binding.link, 8, "binding link: {}", binding.description);
        assert!(binding.description.contains("trunk"));
        assert!(report.operating.summary.contains("binding constraint"));
        // Exports carry the request families and the truncation counters.
        assert!(report.prometheus.contains("rxl_request_latency_p99"));
        // The span trace closes with exactly one meta line that counts the
        // retained spans and both truncation counters, and every span's
        // latency is its deliver slot minus its inject slot.
        let field = |line: &str, key: &str| -> u64 {
            let rest = line.split(&format!("\"{key}\":")).nth(1).expect(key);
            let digits = rest.split(|c: char| !c.is_ascii_digit()).next();
            digits.unwrap().parse().expect(key)
        };
        let kind = |k: &'static str| {
            let tag = format!("\"type\":\"{k}\"");
            report.trace_jsonl.lines().filter(move |l| l.contains(&tag))
        };
        let meta: Vec<&str> = kind("meta").collect();
        assert_eq!(meta.len(), 1);
        assert_eq!(report.trace_jsonl.lines().last(), Some(meta[0]));
        assert!(report.trace_spans > 0);
        assert_eq!(field(meta[0], "spans"), report.trace_spans as u64);
        assert_eq!(field(meta[0], "dropped_spans"), report.dropped_spans);
        assert!(meta[0].contains("\"dropped_instants\""));
        assert_eq!(kind("span").count(), report.trace_spans);
        for span in kind("span") {
            assert_eq!(
                field(span, "latency"),
                field(span, "deliver_slot") - field(span, "inject_slot"),
                "{span}"
            );
        }
        let table = requests_table(&report);
        assert!(table.contains("Request tail amplification"));
        assert!(table.contains("operating point:"));
        assert!(table.contains("spans retained"));
        let json = requests_json(&report);
        assert!(json.contains("\"bench\": \"requests\""));
        for kind in ["fanout", "rung", "operating_point", "trace"] {
            assert!(
                json.contains(&format!("\"kind\": \"{kind}\"")),
                "missing row kind {kind}"
            );
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
