//! The metric names, units, directions and bounds every later issue refers
//! to. `BENCHMARK.json` lists the subset the driver protocol can carry (see
//! [`Def::driver_bound`]); a unit test keeps the two in step.

use crate::stats::{Better, Bound};

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// How `--compare` judges two result files of the same seed.
    pub bound: Bound,
    /// For end-to-end metrics: the bound under which the metric is listed in
    /// `BENCHMARK.json`. Those runs are separate processes on a shared
    /// sandbox with a different seed each time, so the bound is about three
    /// times the widest inter-quartile spread seen over ten such runs (host
    /// time up to 8.9 %, memory 2.5 %, simulated statistics 1.5 %) — and a
    /// simulated statistic gets a small share there instead of `Exact`.
    /// `None` keeps the metric out of `BENCHMARK.json`: it is 0 on healthy
    /// runs, or defined on one workload only.
    pub driver_bound: Option<f64>,
}

const fn host(
    name: &'static str,
    unit: &'static str,
    better: Better,
    share: f64,
    floor: f64,
    driver_bound: f64,
) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Bound::Share { share, floor },
        driver_bound: Some(driver_bound),
    }
}

const fn sim(
    name: &'static str,
    unit: &'static str,
    better: Better,
    driver_bound: Option<f64>,
) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Bound::Exact,
        driver_bound,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported per workload from untraced runs. *Host*
/// metrics are simulator speed; *sim* metrics are what the modelled fabric
/// did and repeat exactly for a fixed seed.
pub const END_TO_END: &[Def] = &[
    host("setup_s", "s", Lower, 0.20, 0.05, 0.25),
    host("wall_s", "s", Lower, 0.10, 0.0, 0.25),
    host("hop_flits_per_s", "1/s", Higher, 0.10, 0.0, 0.25),
    host("payload_flits_per_s", "1/s", Higher, 0.10, 0.0, 0.25),
    host("slots_per_s", "1/s", Higher, 0.10, 0.0, 0.25),
    host("peak_rss_mb", "MiB", Lower, 0.05, 0.0, 0.10),
    sim("failed_share", "ratio", Lower, None),
    sim("goodput_flits_per_slot", "flits/slot", Higher, Some(0.05)),
    sim("wire_overhead_share", "ratio", Lower, Some(0.05)),
    sim("fail_order_events", "count", Lower, None),
    sim("p99_latency_slots", "slots", Lower, None),
];

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> Def {
    Def {
        name,
        unit,
        better,
        bound: if exact { Bound::Exact } else { Bound::None },
        driver_bound: None,
    }
}

const fn ns(name: &'static str) -> Def {
    layer(name, "ns", Lower, false)
}

/// Per-layer metrics, reported per workload from the traced run
/// (`--trace 1`). Wall-clock ones carry no bound; counts from the traced
/// trials are deterministic and must repeat exactly.
pub const PER_LAYER: &[Def] = &[
    // Microbenchmarks of public functions (the same on every workload).
    ns("gf256.mul_ns"),
    ns("gf256.const_mul_ns"),
    ns("fec.rs68_encode_ns"),
    ns("fec.rs68_decode_clean_ns"),
    ns("fec.flit_encode_ns"),
    ns("fec.flit_decode_clean_ns"),
    ns("fec.flit_decode_burst3_ns"),
    ns("crc.slice8_240B_ns"),
    ns("crc.isn_encode_ns"),
    ns("crc.isn_verify_ns"),
    ns("flit.rxl_encode_ns"),
    ns("flit.rxl_decode_clean_ns"),
    ns("flit.cxl_encode_ns"),
    ns("flit.cxl_decode_clean_ns"),
    ns("link.tx_emit_ns"),
    ns("link.tx_encode_emission_ns"),
    ns("link.rx_receive_ns"),
    ns("link.rx_receive_trusted_ns"),
    ns("link.cursor_step_quiet_ns"),
    ns("link.cursor_step_noisy_ns"),
    ns("link.channel_apply_ns"),
    ns("switch.forward_clean_ns"),
    ns("switch.process_in_place_clean_ns"),
    ns("switch.process_in_place_corrected_ns"),
    ns("transport.audit_record_sent_ns"),
    ns("transport.audit_observe_delivery_ns"),
    ns("fabric.slot_idle_ns"),
    ns("fabric.slot_half_ns"),
    ns("fabric.slot_saturated_ns"),
    ns("load.arrival_schedule_ns_per_msg"),
    ns("load.request_build_ns_per_msg"),
    ns("load.histogram_record_ns"),
    layer("telemetry.prometheus_render_ms", "ms", Lower, false),
    // Counts and shares from the traced trials.
    layer("fabric.slots", "count", Lower, true),
    layer("fabric.hop_flits_per_slot", "flits/slot", Higher, true),
    layer("fabric.credit_stalls", "count", Lower, true),
    layer("fabric.materialised_share", "ratio", Lower, true),
    layer("fabric.phase_paced_release_share", "ratio", Lower, false),
    layer("fabric.phase_endpoint_tx_share", "ratio", Lower, false),
    layer("fabric.phase_switch_forward_share", "ratio", Lower, false),
    layer("fabric.phase_stage_merge_share", "ratio", Lower, false),
    layer("fabric.phase_ns_per_slot", "ns", Lower, false),
    layer("fabric.driver_overhead_share", "ratio", Lower, false),
    layer("link.retransmit_share", "ratio", Lower, true),
    layer("link.standalone_ack_share", "ratio", Lower, true),
    layer("link.nacks_sent", "count", Lower, true),
    layer("link.flits_rejected", "count", Lower, true),
    layer("switch.corrected_share", "ratio", Lower, true),
    layer("switch.uncorrectable_drop_share", "ratio", Lower, true),
    layer("transport.clean_deliveries", "count", Higher, true),
    layer("transport.failures_total", "count", Lower, true),
    layer("telemetry.probe_overhead_share", "ratio", Lower, false),
    layer("chaos.runner_overhead_share", "ratio", Lower, false),
    layer("sim.path_hop_flit_ns", "ns", Lower, false),
    layer("stack.predicted_ns_per_hop_flit", "ns", Lower, false),
    layer("stack.measured_ns_per_hop_flit", "ns", Lower, false),
    layer("stack.unexplained_share", "ratio", Lower, false),
    layer("trace.overhead_share", "ratio", Lower, false),
];

pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::workloads::SPECS;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
    }

    fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        doc.get(key).and_then(Value::as_arr).unwrap()
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_exactly_the_driver_metrics() {
        let doc = manifest();
        let listed: Vec<(String, String, String, Option<f64>)> = entries(&doc, "end_to_end")
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().as_str().unwrap().to_string(),
                    m.get("unit").unwrap().as_str().unwrap().to_string(),
                    m.get("better").unwrap().as_str().unwrap().to_string(),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect();
        let expected: Vec<_> = END_TO_END
            .iter()
            .filter(|d| d.driver_bound.is_some())
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.label().to_string(),
                    d.driver_bound,
                )
            })
            .collect();
        assert_eq!(listed, expected);

        let layers: Vec<(String, String, String)> = entries(&doc, "per_layer")
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().as_str().unwrap().to_string(),
                    m.get("unit").unwrap().as_str().unwrap().to_string(),
                    m.get("better").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect();
        let expected: Vec<_> = PER_LAYER
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.label().to_string(),
                )
            })
            .collect();
        assert_eq!(layers, expected);
    }

    #[test]
    fn benchmark_json_lists_the_six_workloads_with_their_reasons() {
        let doc = manifest();
        let listed: Vec<(&str, &str)> = entries(&doc, "workloads")
            .iter()
            .map(|w| {
                (
                    w.get("name").unwrap().as_str().unwrap(),
                    w.get("why").unwrap().as_str().unwrap(),
                )
            })
            .collect();
        let expected: Vec<(&str, &str)> = SPECS.iter().map(|s| (s.name, s.why)).collect();
        assert_eq!(listed, expected);
        assert_eq!(
            doc.get("paths").unwrap().as_arr().unwrap(),
            [Value::from("benchmark")]
        );
    }
}
