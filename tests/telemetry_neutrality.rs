//! Telemetry-neutrality regression: probes observe, they never perturb.
//!
//! The probe seam's contract (see `rxl_fabric::probe`) has two halves, and
//! each gets pinned here from the outside of the stack:
//!
//! * **Disabled costs nothing and changes nothing** — the golden-digest
//!   suite (`tests/fabric_golden_digest.rs`) already pins the default
//!   `NullProbe` path bit-identical to the pre-probe engine.
//! * **Enabled changes nothing either** — a probe receives lifecycle events
//!   but never draws from the trial RNG and never feeds state back, so the
//!   simulated trial with a probe attached is bit-identical to the trial
//!   without one, and everything a probe accumulates merges exactly across
//!   any rayon worker-thread count.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rxl::chaos::{ChaosMonteCarlo, Scenario};
use rxl::fabric::{
    CountingProbe, FabricConfig, FabricSim, FabricTopology, FabricWorkload, RoutingTable,
};
use rxl::link::{ChannelErrorModel, ProtocolVariant};
use rxl::load::{
    ArrivalProcess, FanoutShape, LatencyHistogram, LatencyProbe, LoadSweep, LoadSweepConfig,
    RequestGenerator, TrafficMatrix,
};
use rxl::telemetry::{
    MetricsProbe, MetricsRegistry, RequestProbe, RequestSweep, RequestSweepConfig, SloProbe,
    WindowedTelemetry,
};

/// A noisy single-trial configuration: enough channel errors to exercise
/// retransmission, NACK and verdict paths, so any probe-induced RNG drift
/// would cascade into visibly different aggregates.
fn noisy_config(variant: ProtocolVariant) -> FabricConfig {
    FabricConfig::new(variant)
        .with_channel(ChannelErrorModel::random(2e-4))
        .with_seed(0xD16E57)
}

#[test]
fn enabled_probe_observes_a_bit_identical_trial() {
    let topology = FabricTopology::ring(4, 1, 1);
    let routing = RoutingTable::new(&topology);
    let workload = FabricWorkload::symmetric(topology.session_count(), 600, 8, 7);

    for variant in [ProtocolVariant::CxlPiggyback, ProtocolVariant::Rxl] {
        let baseline = FabricSim::new(&topology, &routing, noisy_config(variant)).run(&workload);

        let mut sim = FabricSim::with_probe(
            &topology,
            &routing,
            noisy_config(variant),
            CountingProbe::default(),
        );
        sim.begin(&workload);
        let _ = sim.step(u64::MAX);
        let (probed, counts) = sim.finish_with_probe();

        // The full `Debug` rendering covers every aggregate — counters,
        // stats, exact f64 rates — so equality here means the probed trial
        // was the same trial, bit for bit.
        assert_eq!(
            format!("{baseline:?}"),
            format!("{probed:?}"),
            "{variant:?}: attaching an enabled probe changed the simulation"
        );
        // And the probe actually watched it happen.
        assert_eq!(counts.injects, 2 * 4 * 600, "{variant:?}");
        assert!(
            counts.delivers >= probed.total_failures().clean_deliveries,
            "{variant:?}: every clean delivery passes through the probe (saw {}, clean {})",
            counts.delivers,
            probed.total_failures().clean_deliveries,
        );
        assert!(counts.channel_errors > 0, "{variant:?}: noisy channel");
    }
}

fn storm_experiment(variant: ProtocolVariant) -> (ChaosMonteCarlo, FabricWorkload) {
    let topology = FabricTopology::leaf_spine(2, 1, 2);
    let uplink = topology.trunk_between(0, 2).expect("leaf 0 uplink");
    let scenario = Scenario::named("neutrality storm").ber_storm(300, 400, vec![uplink], 50.0);
    let workload = FabricWorkload::symmetric(topology.session_count(), 900, 8, 11);
    let config = noisy_config(variant).with_seed(0x510);
    (
        ChaosMonteCarlo::new(topology, config, scenario, 4),
        workload,
    )
}

#[test]
fn slo_probe_leaves_chaos_aggregates_unchanged() {
    for variant in [ProtocolVariant::CxlPiggyback, ProtocolVariant::Rxl] {
        let (mc, workload) = storm_experiment(variant);
        let unprobed = mc.run(&workload);
        let (probed, probes) = mc.run_probed(&workload, |_| SloProbe::new(200));
        assert_eq!(
            format!("{unprobed:?}"),
            format!("{probed:?}"),
            "{variant:?}: SloProbe perturbed the Monte-Carlo aggregates"
        );
        assert_eq!(probes.len(), 4);
        assert!(probes.iter().all(|p| !p.windows().is_empty()));
    }
}

/// Runs the probed storm Monte-Carlo on a dedicated `threads`-wide rayon
/// pool and returns the report plus the trial-order merge of the per-trial
/// windows.
fn probed_on_pool(variant: ProtocolVariant, threads: usize) -> (String, String) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build rayon pool");
    pool.install(|| {
        let (mc, workload) = storm_experiment(variant);
        let (report, probes) = mc.run_probed(&workload, |_| SloProbe::new(200));
        let mut merged = WindowedTelemetry::new(200);
        for probe in &probes {
            merged.merge(probe.windows());
        }
        (format!("{report:?}"), format!("{merged:?}"))
    })
}

#[test]
fn probed_aggregates_are_thread_count_independent() {
    for variant in [ProtocolVariant::CxlPiggyback, ProtocolVariant::Rxl] {
        let (report_1, windows_1) = probed_on_pool(variant, 1);
        let (report_4, windows_4) = probed_on_pool(variant, 4);
        assert_eq!(
            report_1, report_4,
            "{variant:?}: FailureCounts/epoch aggregates drifted with thread count"
        );
        assert_eq!(
            windows_1, windows_4,
            "{variant:?}: merged telemetry windows drifted with thread count"
        );
    }
}

#[test]
fn metrics_probe_observes_a_bit_identical_trial() {
    let topology = FabricTopology::ring(4, 1, 1);
    let routing = RoutingTable::new(&topology);
    let workload = FabricWorkload::symmetric(topology.session_count(), 600, 8, 7);

    for variant in [ProtocolVariant::CxlPiggyback, ProtocolVariant::Rxl] {
        let baseline = FabricSim::new(&topology, &routing, noisy_config(variant)).run(&workload);

        let config = noisy_config(variant);
        let probe = MetricsProbe::for_topology(&topology, config.vc_count);
        let mut sim = FabricSim::with_probe(&topology, &routing, config, probe);
        sim.begin(&workload);
        let _ = sim.step(u64::MAX);
        let (probed, probe) = sim.finish_with_probe();

        assert_eq!(
            format!("{baseline:?}"),
            format!("{probed:?}"),
            "{variant:?}: attaching a MetricsProbe changed the simulation"
        );
        let reg = probe.registry();
        let traversals: u64 = (0..reg.link_count()).map(|l| reg.traversals(l)).sum();
        assert!(traversals > 0, "{variant:?}: registry saw the trial");
        let forwarded: u64 = (0..reg.switch_count())
            .map(|s| reg.switch_forwarded(s))
            .sum();
        assert!(forwarded > 0, "{variant:?}: switches forwarded flits");
    }
}

/// The attributed incast sweep of the metrics layer, run on a dedicated
/// `threads`-wide rayon pool; returns the per-rung trial-order registry
/// merges.
fn metrics_sweep_on_pool(threads: usize) -> Vec<MetricsRegistry> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build rayon pool");
    pool.install(|| {
        let topology = FabricTopology::leaf_spine(2, 1, 2);
        let config = FabricConfig {
            queue_capacity: 8,
            ..noisy_config(ProtocolVariant::Rxl)
        };
        let vcc = config.vc_count;
        let sweep = LoadSweep::new(
            topology.clone(),
            config,
            LoadSweepConfig {
                loads: vec![0.3, 0.8],
                messages_per_session: 400,
                trials: 4,
                matrix: TrafficMatrix::Incast { leaf: 1 },
                arrival: ArrivalProcess::fixed(1.0),
                ..LoadSweepConfig::default()
            },
        );
        let (_, probes) = sweep.run_probed(|_| MetricsProbe::for_topology(&topology, vcc));
        probes
            .into_iter()
            .map(|trial_probes| {
                let mut merged: Option<MetricsRegistry> = None;
                for p in trial_probes {
                    match &mut merged {
                        None => merged = Some(p.into_registry()),
                        Some(m) => m.merge(p.registry()),
                    }
                }
                merged.expect("each rung ran trials")
            })
            .collect()
    })
}

#[test]
fn metrics_registries_are_thread_count_independent() {
    let single = metrics_sweep_on_pool(1);
    let wide = metrics_sweep_on_pool(4);
    assert_eq!(
        single, wide,
        "per-rung registry merges drifted with thread count"
    );
    assert!(single.iter().any(|r| (0..r.switch_count())
        .map(|s| r.switch_stalls(s))
        .sum::<u64>()
        > 0));
}

#[test]
fn probe_traversals_agree_with_engine_link_stats() {
    let topology = FabricTopology::leaf_spine(2, 1, 2);
    let routing = RoutingTable::new(&topology);
    let workload = FabricWorkload::symmetric(topology.session_count(), 400, 8, 3);

    for channel in [ChannelErrorModel::ideal(), ChannelErrorModel::random(2e-4)] {
        for variant in [ProtocolVariant::CxlPiggyback, ProtocolVariant::Rxl] {
            let config = FabricConfig::new(variant)
                .with_channel(channel)
                .with_seed(0xD16E57);
            let probe = MetricsProbe::for_topology(&topology, config.vc_count);
            let mut sim = FabricSim::with_probe(&topology, &routing, config, probe);
            sim.begin(&workload);
            let _ = sim.step(u64::MAX);
            let (report, probe) = sim.finish_with_probe();
            assert!(report.drained, "{variant:?}");

            let reg = probe.registry();
            let injected: u64 = (0..topology.endpoint_count())
                .map(|e| reg.inject_traversals(e))
                .sum();
            // Injection-direction traversals are the endpoints' non-idle
            // wire flits. `LinkStats` tallies payload, replay and
            // standalone-ACK flits individually; standalone NACK emissions
            // also occupy the wire but are folded into the NACK counter, so
            // the identity is exact on an ideal channel (no NACKs) and
            // NACK-bounded on a noisy one.
            let non_idle = report.links.total_wire_flits() - report.links.idle_flits_sent;
            assert!(
                injected >= non_idle && injected <= non_idle + report.links.nacks_sent,
                "{variant:?}: probe saw {injected} injected flits, engine wire counters \
                 bound [{non_idle}, {}]",
                non_idle + report.links.nacks_sent
            );
            if report.links.nacks_sent == 0 {
                assert_eq!(injected, non_idle, "{variant:?}: exact on an ideal channel");
            }
        }
    }
}

#[test]
fn request_probe_observes_a_bit_identical_open_system_trial() {
    let topology = FabricTopology::leaf_spine(2, 1, 2);
    let routing = RoutingTable::new(&topology);
    let generator = RequestGenerator {
        fanout: 4,
        requests: 600,
        shape: FanoutShape::Uniform,
        arrival: ArrivalProcess::poisson(1.0),
        cqids: 8,
    };

    for variant in [ProtocolVariant::CxlPiggyback, ProtocolVariant::Rxl] {
        let config = FabricConfig {
            max_slots: u64::MAX,
            ..noisy_config(variant)
        };
        let (workload, pacing, map) =
            generator.build(&topology, 0.2, config.seed, &mut StdRng::seed_from_u64(42));
        let horizon = map.last_arrival() + 400;

        // Baseline: the identical undrained open-system run, no probe.
        let mut sim = FabricSim::new(&topology, &routing, config);
        sim.begin_paced(&workload, &pacing);
        let _ = sim.run_to_horizon(horizon);
        let baseline = sim.finish();

        let probe = RequestProbe::new(&map, topology.session_count(), 200);
        let mut sim = FabricSim::with_probe(&topology, &routing, config, probe);
        sim.begin_paced(&workload, &pacing);
        let _ = sim.run_to_horizon(horizon);
        let (probed, probe) = sim.finish_with_probe();

        assert_eq!(
            format!("{baseline:?}"),
            format!("{probed:?}"),
            "{variant:?}: attaching a RequestProbe changed the open-system trial"
        );
        assert!(probe.completed() > 0, "{variant:?}: probe saw completions");
        assert_eq!(
            probe.started(),
            map.len() as u64,
            "{variant:?}: every request's first shard passed the probe"
        );
    }
}

/// The open-system request sweep on a dedicated `threads`-wide rayon pool;
/// returns the full report and per-rung probe/registry renderings.
fn request_sweep_on_pool(variant: ProtocolVariant, threads: usize) -> (String, String) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build rayon pool");
    pool.install(|| {
        let topology = FabricTopology::leaf_spine(2, 1, 2);
        let config = FabricConfig {
            queue_capacity: 8,
            ..noisy_config(variant)
        };
        let sweep = RequestSweep::new(
            topology,
            config,
            RequestSweepConfig {
                loads: vec![0.1, 0.4],
                fanout: 2,
                shape: FanoutShape::Incast { leaf: 1 },
                trials: 4,
                measure_slots: 1_200,
                window_slots: 300,
                ..RequestSweepConfig::default()
            },
        );
        let (report, rungs) = sweep.run_detailed();
        let rungs: Vec<String> = rungs
            .iter()
            .map(|r| format!("{:?} {:?} {}", r.probe.windows(), r.registry, r.slots))
            .collect();
        (format!("{report:?}"), rungs.join("\n"))
    })
}

#[test]
fn request_telemetry_is_thread_count_independent() {
    for variant in [ProtocolVariant::CxlPiggyback, ProtocolVariant::Rxl] {
        let (report_1, rungs_1) = request_sweep_on_pool(variant, 1);
        let (report_4, rungs_4) = request_sweep_on_pool(variant, 4);
        assert_eq!(
            report_1, report_4,
            "{variant:?}: request sweep report drifted with thread count"
        );
        assert_eq!(
            rungs_1, rungs_4,
            "{variant:?}: merged request windows/registries drifted with thread count"
        );
    }
}

#[test]
fn latency_probe_and_slo_probe_agree_bucket_for_bucket() {
    let topology = FabricTopology::leaf_spine(2, 1, 2);
    let routing = RoutingTable::new(&topology);
    let workload = FabricWorkload::symmetric(topology.session_count(), 400, 8, 3);

    for variant in [ProtocolVariant::CxlPiggyback, ProtocolVariant::Rxl] {
        let baseline = FabricSim::new(&topology, &routing, noisy_config(variant)).run(&workload);

        let probes = (LatencyProbe::default(), SloProbe::new(100));
        let mut sim = FabricSim::with_probe(&topology, &routing, noisy_config(variant), probes);
        sim.begin(&workload);
        let _ = sim.step(u64::MAX);
        let (report, (latency, slo)) = sim.finish_with_probe();
        assert_eq!(
            format!("{baseline:?}"),
            format!("{report:?}"),
            "{variant:?}: the two latency observers changed the simulation"
        );

        let mut slo_hist = LatencyHistogram::default();
        for w in slo.windows().windows() {
            slo_hist.merge(&w.hist);
        }
        // Same population, bucket for bucket: two independent joins of the
        // same inject/deliver events, one flat and one partitioned into
        // delivery windows.
        assert_eq!(
            format!("{:?}", latency.hist),
            format!("{slo_hist:?}"),
            "{variant:?}: LatencyProbe and SloProbe histograms disagree"
        );
        assert_eq!(latency.hist.count(), slo_hist.count(), "{variant:?}");
        assert!(latency.hist.count() > 0, "{variant:?}");
    }
}
