//! The six workloads: what each builds from the seed, the public driver one
//! timed repetition runs, and the same trials stepped one at a time from
//! outside (for slot counts, per-trial walls, the merge check and tracing).
//!
//! Sizing rule: `rxl_sim::request_stream` tags messages `i as u16`, so a
//! stream of more than 65 536 messages panics three layers down in
//! `DeliveryAuditor::record_sent`. Workloads therefore grow by
//! **trials × sessions**, never by messages per stream; the builders check
//! the cap and fail with one line naming the workload.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rxl::chaos::{run_scenario_probed, ChaosMonteCarlo, Scenario};
use rxl::fabric::{
    FabricConfig, FabricMonteCarlo, FabricReport, FabricSim, FabricTopology, FabricWorkload, Probe,
    RoutingTable, StepOutcome,
};
use rxl::flit::{Message, MESSAGES_PER_FLIT};
use rxl::link::{ChannelErrorModel, LinkStats, ProtocolVariant};
use rxl::load::{ArrivalProcess, FanoutShape, RequestGenerator};
use rxl::sim::{
    request_stream, response_stream, trial_seed, MonteCarlo, PathSim, SimConfig, TrafficPattern,
};
use rxl::switch::SwitchStats;
use rxl::telemetry::{RequestSweep, RequestSweepConfig};
use rxl::transport::FailureCounts;

use crate::spans::Spans;

/// The pinned default `--seed`; the committed digests belong to it.
pub const DEFAULT_SEED: u64 = 0x52_584C;

/// Messages one stream may hold before its 16-bit tags repeat.
pub const TAG_CAP: usize = 65_536;

/// Messages per stream of every workload whose channel has errors: 1000
/// flits, one lap of the 10-bit link sequence space. Longer RXL streams can
/// wedge after a drop once the sequence has wrapped (the trial ends
/// `Stalled` with lost messages: 9 of 240 chaos trials at 60 000 msgs, 3 of
/// 240 at 30 000, 0 of 3 840 at <= 15 360), and a workload on which trials
/// fail cannot be a benchmark.
const STREAM_MESSAGES: usize = 15_000;

/// Mirrors the private `REQUEST_ARRIVAL_SALT` of `rxl_telemetry::request`,
/// so the outside-in trials of `serving_subknee` draw the arrival schedule
/// `RequestSweep::run` draws. The slot-count merge check fails if the two
/// ever diverge.
const REQUEST_ARRIVAL_SALT: u64 = 0x9E0_5751_CA1E_D000;

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// FNV-1a of the driver's merged report at [`DEFAULT_SEED`] — the
    /// RNG-contract stamp: it changes exactly when
    /// `tests/fabric_golden_digest.rs` would need re-pinning.
    pub digest: u64,
}

pub const SPECS: [Spec; 6] = [
    Spec {
        name: "pod_clean_rxl",
        why: "Saturated leaf-spine pod at BER 1e-6, RXL: >99% of hops take the clean fast paths, so the rxl-fabric slot loop does the work.",
        digest: 0x82EA_2E47_F38A_C2D1,
    },
    Spec {
        name: "pod_clean_cxl",
        why: "Same pod, CXL piggyback baseline: explicit sequence numbers and ACK flits, so a gain for RXL that costs the baseline shows.",
        digest: 0x7DDD_E825_6470_7FD3,
    },
    Spec {
        name: "ring_noisy_rxl",
        why: "Ring(8,2,2) with 2 VCs at BER 3e-5: flits materialise, so per-hop FEC/CRC, NACK replay and dateline VC arbitration carry weight.",
        digest: 0x947B_C2E9_97BE_6A5C,
    },
    Spec {
        name: "serving_subknee",
        why: "Open-loop request sweep below the knee (loads 0.02-0.08): mostly idle slots, with RequestProbe, MetricsRegistry and rxl-load generation running.",
        digest: 0xA1A3_51D6_4CC9_7502,
    },
    Spec {
        name: "chaos_storm_rxl",
        why: "ChaosMonteCarlo with a 20x BER storm on one uplink: epoch-stepped FabricSim::step, channel overrides and a replay-heavy window.",
        digest: 0xE5BC_9876_726A_5C7E,
    },
    Spec {
        name: "path_eager_rxl",
        why: "PathSim encodes, FEC-decodes and CRC-checks every flit at every hop and never enters rxl-fabric: the codec stack does the work.",
        digest: 0x3CF4_D802_8475_C229,
    },
];

/// Simulated facts summed over the trials of one repetition. Every field
/// is a deterministic function of the seed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    pub trials: u64,
    /// Trials that drained (closed workloads) or reached their horizon
    /// (`serving_subknee`) rather than stalling or hitting the slot limit.
    pub ok_trials: u64,
    pub slots: u64,
    pub links: LinkStats,
    pub switches: SwitchStats,
    pub failures: FailureCounts,
    pub fail_order_events: u64,
    pub credit_stalls: u64,
}

/// What a sweep driver's merged report says about the same quantities;
/// `None` where the driver's report does not carry the field.
#[derive(Debug, Default)]
pub struct DriverFacts {
    pub trials: u64,
    pub ok_trials: u64,
    pub slots: Option<u64>,
    pub links: Option<LinkStats>,
    pub switches: Option<SwitchStats>,
    pub failures: Option<FailureCounts>,
    pub fail_order_events: Option<u64>,
    /// `serving_subknee`: steady-state request p99 at the top rung.
    pub p99_latency_slots: Option<u64>,
}

impl DriverFacts {
    /// Every field the driver reports must equal the outside-in trials'
    /// sum; returns one line per mismatch.
    pub fn mismatches(&self, t: &Totals) -> Vec<String> {
        fn check<T: PartialEq + std::fmt::Debug>(
            out: &mut Vec<String>,
            what: &str,
            driver: Option<T>,
            merged: T,
        ) {
            if let Some(d) = driver.filter(|d| *d != merged) {
                out.push(format!(
                    "{what}: driver {d:?} != per-trial merge {merged:?}"
                ));
            }
        }
        let mut out = Vec::new();
        check(&mut out, "trials", Some(self.trials), t.trials);
        check(&mut out, "ok_trials", Some(self.ok_trials), t.ok_trials);
        check(&mut out, "slots", self.slots, t.slots);
        check(&mut out, "LinkStats", self.links, t.links);
        check(&mut out, "SwitchStats", self.switches, t.switches);
        check(&mut out, "FailureCounts", self.failures, t.failures);
        check(
            &mut out,
            "fail_order_events",
            self.fail_order_events,
            t.fail_order_events,
        );
        out
    }
}

/// One driver repetition: the wall of the driver call alone, the `Debug`
/// text of its merged report (digested by the caller) and the comparable
/// facts.
pub struct DriverRun {
    pub wall_s: f64,
    pub debug: String,
    pub facts: DriverFacts,
}

/// Times `f` alone, so formatting the report stays out of `wall_s`.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// The outside-in pass: every trial of the unit stepped one at a time.
pub struct TrialPass<P> {
    pub totals: Totals,
    /// Summed wall of the per-trial `run` calls alone (no input building).
    pub run_wall_s: f64,
    /// One probe per trial, in trial order (empty for `path_eager_rxl`,
    /// which has no probe seam).
    pub probes: Vec<P>,
}

enum FabricDriver {
    MonteCarlo(FabricMonteCarlo),
    Chaos(ChaosMonteCarlo, Scenario),
}

pub struct FabricInputs {
    ber: f64,
    topology: FabricTopology,
    routing: RoutingTable,
    config: FabricConfig,
    workload: FabricWorkload,
    trials: u64,
    driver: FabricDriver,
}

pub struct ServingInputs {
    topology: FabricTopology,
    routing: RoutingTable,
    config: FabricConfig,
    sweep: RequestSweepConfig,
    driver: RequestSweep,
}

pub struct PathInputs {
    config: SimConfig,
    downstream: Vec<Message>,
    upstream: Vec<Message>,
    trials: u64,
    driver: MonteCarlo,
}

pub enum Inputs {
    Fabric(Box<FabricInputs>),
    Serving(Box<ServingInputs>),
    Path(Box<PathInputs>),
}

/// The config seed is derived, not equal to the message seed, so the two
/// RNG streams never coincide.
fn config_seed(seed: u64) -> u64 {
    trial_seed(seed, 0xC0F1)
}

fn guard_stream(workload: &str, messages: usize) -> Result<(), String> {
    if messages > TAG_CAP {
        return Err(format!(
            "{workload}: {messages} messages per stream exceeds the {TAG_CAP}-message 16-bit tag cap; grow the workload by trials x sessions instead"
        ));
    }
    Ok(())
}

struct FabricShape {
    topology: fn() -> FabricTopology,
    variant: ProtocolVariant,
    ber: f64,
    vc_count: usize,
    messages: usize,
    trials: u64,
    /// Adds the BER storm of `chaos_storm_rxl`.
    storm: bool,
}

fn fabric_shape(name: &str) -> Option<FabricShape> {
    let pod = || FabricTopology::leaf_spine(4, 2, 4);
    Some(match name {
        "pod_clean_rxl" | "pod_clean_cxl" => FabricShape {
            topology: pod,
            variant: if name.ends_with("cxl") {
                ProtocolVariant::CxlPiggyback
            } else {
                ProtocolVariant::Rxl
            },
            ber: 1e-6,
            vc_count: 1,
            messages: STREAM_MESSAGES,
            trials: 56,
            storm: false,
        },
        "ring_noisy_rxl" => FabricShape {
            topology: || FabricTopology::ring(8, 2, 2),
            variant: ProtocolVariant::Rxl,
            ber: 3e-5,
            vc_count: 2,
            messages: STREAM_MESSAGES,
            trials: 24,
            storm: false,
        },
        "chaos_storm_rxl" => FabricShape {
            topology: || FabricTopology::leaf_spine(2, 1, 2),
            variant: ProtocolVariant::Rxl,
            ber: 1e-5,
            vc_count: 1,
            messages: STREAM_MESSAGES,
            trials: 160,
            storm: true,
        },
        _ => return None,
    })
}

fn build_fabric(
    name: &str,
    shape: FabricShape,
    seed: u64,
    spans: &mut Spans,
) -> Result<Inputs, String> {
    guard_stream(name, shape.messages)?;
    let topology = spans.scope("topology.build", |_| (shape.topology)());
    let routing = spans.scope("routing.build", |_| RoutingTable::new(&topology));
    let workload = spans.scope("workload.generate", |_| {
        FabricWorkload::symmetric(topology.session_count(), shape.messages, 8, seed)
    });
    let config = FabricConfig::new(shape.variant)
        .with_channel(ChannelErrorModel::random(shape.ber))
        .with_seed(config_seed(seed))
        .with_vc_count(shape.vc_count);
    let driver = if shape.storm {
        let scenario = spans.scope("scenario.build", |_| {
            let uplink = topology
                .trunk_between(0, 2)
                .expect("leaf 0 and spine 0 share a trunk");
            Scenario::named("uplink storm").ber_storm(1_000, 3_000, vec![uplink], 20.0)
        });
        FabricDriver::Chaos(
            ChaosMonteCarlo::new(topology.clone(), config, scenario.clone(), shape.trials),
            scenario,
        )
    } else {
        FabricDriver::MonteCarlo(FabricMonteCarlo::new(
            topology.clone(),
            config,
            shape.trials,
        ))
    };
    Ok(Inputs::Fabric(Box::new(FabricInputs {
        ber: shape.ber,
        topology,
        routing,
        config,
        workload,
        trials: shape.trials,
        driver,
    })))
}

fn build_serving(name: &str, seed: u64, spans: &mut Spans) -> Result<Inputs, String> {
    let sweep = RequestSweepConfig {
        loads: vec![0.02, 0.05, 0.08],
        fanout: 4,
        shape: FanoutShape::Uniform,
        arrival: ArrivalProcess::poisson(1.0),
        measure_slots: 40_000,
        window_slots: 2_000,
        trials: 6,
        ..RequestSweepConfig::default()
    };
    for &load in &sweep.loads {
        let per_stream = (load * sweep.measure_slots as f64 * MESSAGES_PER_FLIT as f64).ceil();
        guard_stream(name, per_stream as usize)?;
    }
    let topology = spans.scope("topology.build", |_| FabricTopology::leaf_spine(4, 2, 4));
    let routing = spans.scope("routing.build", |_| RoutingTable::new(&topology));
    let config = FabricConfig {
        queue_capacity: 8,
        ..FabricConfig::new(ProtocolVariant::Rxl)
            .with_channel(ChannelErrorModel::ideal())
            .with_seed(config_seed(seed))
    };
    let inputs = ServingInputs {
        driver: RequestSweep::new(topology.clone(), config, sweep.clone()),
        topology,
        routing,
        config,
        sweep,
    };
    // The sweep generates its own request streams per trial from the seed;
    // set-up times one such generation (the top rung's first trial), which
    // is the rxl-load arrival/request work a trial pays before it runs.
    spans.scope("pacing.schedule", |_| {
        let top = inputs.sweep.loads.len() - 1;
        std::hint::black_box(inputs.serving_trial(top, 0));
    });
    Ok(Inputs::Serving(Box::new(inputs)))
}

fn build_path(name: &str, seed: u64, spans: &mut Spans) -> Result<Inputs, String> {
    const DOWN: usize = STREAM_MESSAGES;
    const UP: usize = STREAM_MESSAGES / 2;
    const TRIALS: u64 = 448;
    guard_stream(name, DOWN.max(UP))?;
    let (downstream, upstream) = spans.scope("workload.generate", |_| {
        (
            request_stream(DOWN, TrafficPattern::DataStream { cqids: 8 }, seed),
            response_stream(UP, 8, seed ^ 1),
        )
    });
    let config = SimConfig::new(ProtocolVariant::Rxl, 2)
        .with_channel(ChannelErrorModel::random(1e-5))
        .with_seed(config_seed(seed));
    Ok(Inputs::Path(Box::new(PathInputs {
        config,
        downstream,
        upstream,
        trials: TRIALS,
        driver: MonteCarlo::new(config, TRIALS),
    })))
}

/// Builds the named workload's inputs from `seed` (timed by the caller as
/// `setup_s`).
pub fn build(name: &str, seed: u64, spans: &mut Spans) -> Result<Inputs, String> {
    match name {
        "serving_subknee" => build_serving(name, seed, spans),
        "path_eager_rxl" => build_path(name, seed, spans),
        _ => match fabric_shape(name) {
            Some(shape) => build_fabric(name, shape, seed, spans),
            None => Err(format!(
                "unknown workload {name:?}; expected one of {:?}",
                SPECS.map(|s| s.name)
            )),
        },
    }
}

impl FabricInputs {
    /// Bit-error rate of every link outside a storm.
    pub fn ber(&self) -> f64 {
        self.ber
    }

    /// Messages one trial sends, every session and direction.
    pub fn total_messages(&self) -> usize {
        self.workload.total_messages()
    }
}

impl PathInputs {
    /// Messages one trial sends, both directions.
    pub fn total_messages(&self) -> usize {
        self.downstream.len() + self.upstream.len()
    }
}

/// One open-system trial's generated inputs.
struct ServingTrial {
    workload: FabricWorkload,
    pacing: rxl::fabric::InjectionPacing,
    horizon: u64,
    engine_seed: u64,
}

impl ServingInputs {
    /// Reproduces `RequestSweep::run_trial`'s input generation for rung
    /// `rung`, trial `trial`.
    fn serving_trial(&self, rung: usize, trial: u64) -> ServingTrial {
        let load = self.sweep.loads[rung];
        let loaded = self.sweep.shape.loaded_sessions(&self.topology).len();
        let per_slot = load * loaded as f64 / self.sweep.fanout as f64 * MESSAGES_PER_FLIT as f64;
        let generator = RequestGenerator {
            fanout: self.sweep.fanout,
            requests: ((self.sweep.measure_slots as f64 * per_slot).ceil() as usize).max(1),
            shape: self.sweep.shape,
            arrival: self.sweep.arrival,
            cqids: self.sweep.cqids,
        };
        let global = rung as u64 * self.sweep.trials + trial;
        let engine_seed = trial_seed(self.config.seed, global);
        let mut arrival_rng =
            StdRng::seed_from_u64(trial_seed(self.config.seed ^ REQUEST_ARRIVAL_SALT, global));
        let (workload, pacing, map) =
            generator.build(&self.topology, load, engine_seed, &mut arrival_rng);
        ServingTrial {
            horizon: map.last_arrival() + self.sweep.window_slots,
            workload,
            pacing,
            engine_seed,
        }
    }
}

impl Inputs {
    pub fn trials(&self) -> u64 {
        match self {
            Inputs::Fabric(f) => f.trials,
            Inputs::Serving(s) => s.sweep.trials * s.sweep.loads.len() as u64,
            Inputs::Path(p) => p.trials,
        }
    }

    /// What one timed repetition runs, for the provenance manifest.
    pub fn unit(&self) -> String {
        match self {
            Inputs::Fabric(f) => format!(
                "{}, {}, {:?}, BER {:e}, vc {}, {} sessions x {} msgs/stream, {} trials",
                match f.driver {
                    FabricDriver::MonteCarlo(_) => "FabricMonteCarlo::run",
                    FabricDriver::Chaos(..) =>
                        "ChaosMonteCarlo::run (x20 BER storm on trunk 0-2, slots 1000-4000)",
                },
                f.topology.name,
                f.config.variant,
                f.ber,
                f.config.vc_count,
                f.workload.sessions(),
                f.workload.downstream[0].len(),
                f.trials
            ),
            Inputs::Serving(s) => format!(
                "RequestSweep::run, {}, {:?}, ideal channel, queue {}, loads {:?}, fanout {}, {} slots, {} trials/rung",
                s.topology.name,
                s.config.variant,
                s.config.queue_capacity,
                s.sweep.loads,
                s.sweep.fanout,
                s.sweep.measure_slots,
                s.sweep.trials
            ),
            Inputs::Path(p) => format!(
                "rxl_sim::MonteCarlo::run, {} switch levels, {:?}, {} down + {} up msgs, {} trials",
                p.config.topology.levels(),
                p.config.variant,
                p.downstream.len(),
                p.upstream.len(),
                p.trials
            ),
        }
    }

    /// `true` when every endpoint speaks RXL, which never forwards an
    /// unchecked flit: any `Fail_order` event is then a bug.
    pub fn is_rxl(&self) -> bool {
        let variant = match self {
            Inputs::Fabric(f) => f.config.variant,
            Inputs::Serving(s) => s.config.variant,
            Inputs::Path(p) => p.config.variant,
        };
        variant == ProtocolVariant::Rxl
    }

    /// The topology and engine config, for the workloads that run the
    /// fabric engine.
    pub fn fabric(&self) -> Option<(&FabricTopology, &FabricConfig)> {
        match self {
            Inputs::Fabric(f) => Some((&f.topology, &f.config)),
            Inputs::Serving(s) => Some((&s.topology, &s.config)),
            Inputs::Path(_) => None,
        }
    }

    /// One timed repetition: the public sweep driver, untraced.
    pub fn run_driver(&self) -> DriverRun {
        match self {
            Inputs::Fabric(f) => match &f.driver {
                FabricDriver::MonteCarlo(mc) => {
                    let (wall_s, r) = timed(|| mc.run(&f.workload));
                    DriverRun {
                        wall_s,
                        debug: format!("{r:?}"),
                        facts: DriverFacts {
                            trials: r.trials,
                            ok_trials: r.drained_trials,
                            links: Some(r.links),
                            switches: Some(r.switches),
                            failures: Some(r.failures),
                            fail_order_events: Some(r.undetected_drop_events),
                            ..Default::default()
                        },
                    }
                }
                FabricDriver::Chaos(mc, _) => {
                    let (wall_s, r) = timed(|| mc.run(&f.workload));
                    DriverRun {
                        wall_s,
                        debug: format!("{r:?}"),
                        facts: DriverFacts {
                            trials: r.trials,
                            ok_trials: r.drained_trials,
                            slots: Some(r.epochs.iter().map(|e| e.slots).sum()),
                            failures: Some(r.failures),
                            fail_order_events: Some(r.undetected_drop_events),
                            ..Default::default()
                        },
                    }
                }
            },
            Inputs::Serving(s) => {
                let (wall_s, r) = timed(|| s.driver.run());
                DriverRun {
                    wall_s,
                    debug: format!("{r:?}"),
                    facts: DriverFacts {
                        trials: self.trials(),
                        // The report has no per-trial outcome; a trial that
                        // stalled short of its horizon shows as a slot-count
                        // mismatch against the outside-in trials.
                        ok_trials: self.trials(),
                        slots: Some(r.points.iter().map(|p| p.slots).sum()),
                        p99_latency_slots: r.points.last().map(|p| p.steady.stats.p99),
                        ..Default::default()
                    },
                }
            }
            Inputs::Path(p) => {
                let (wall_s, r) = timed(|| p.driver.run(&p.downstream, &p.upstream));
                DriverRun {
                    wall_s,
                    debug: format!("{r:?}"),
                    facts: DriverFacts {
                        trials: r.trials,
                        ok_trials: r.drained_trials,
                        links: Some(r.links),
                        switches: Some(r.switches),
                        failures: Some(r.failures),
                        ..Default::default()
                    },
                }
            }
        }
    }

    /// For `chaos_storm_rxl`: a chaos driver over the same inputs with an
    /// empty scenario, the plain fabric driver, both cut to `trials` trials,
    /// and the workload they run — the pair behind
    /// `chaos.runner_overhead_share`.
    pub fn chaos_overhead_pair(
        &self,
        trials: u64,
    ) -> Option<(ChaosMonteCarlo, FabricMonteCarlo, &FabricWorkload)> {
        match self {
            Inputs::Fabric(f) if matches!(f.driver, FabricDriver::Chaos(..)) => Some((
                ChaosMonteCarlo::new(
                    f.topology.clone(),
                    f.config,
                    Scenario::named("none"),
                    trials,
                ),
                FabricMonteCarlo::new(f.topology.clone(), f.config, trials),
                &f.workload,
            )),
            _ => None,
        }
    }

    /// Steps every trial of the unit one at a time with the seed the driver
    /// would give it, a probe from `probe` riding each fabric trial.
    pub fn run_trials<P: Probe>(&self, spans: &mut Spans, probe: impl Fn() -> P) -> TrialPass<P> {
        let mut pass = TrialPass {
            totals: Totals::default(),
            run_wall_s: 0.0,
            probes: Vec::new(),
        };
        match self {
            Inputs::Fabric(f) => {
                for trial in 0..f.trials {
                    let config = f.config.with_seed(trial_seed(f.config.seed, trial));
                    spans.scope(&format!("trial:{trial}"), |spans| match &f.driver {
                        FabricDriver::MonteCarlo(_) => {
                            pass.fabric_trial(spans, "fabric.run", || {
                                let mut sim =
                                    FabricSim::with_probe(&f.topology, &f.routing, config, probe());
                                sim.begin(&f.workload);
                                let _ = sim.step(u64::MAX);
                                let (report, probe) = sim.finish_with_probe();
                                let ok = report.drained;
                                (report, probe, ok)
                            })
                        }
                        FabricDriver::Chaos(_, scenario) => {
                            pass.fabric_trial(spans, "chaos.run_scenario", || {
                                let (report, probe) = run_scenario_probed(
                                    &f.topology,
                                    &f.routing,
                                    config,
                                    &f.workload,
                                    scenario,
                                    probe(),
                                );
                                let ok = report.fabric.drained;
                                (report.fabric, probe, ok)
                            })
                        }
                    });
                }
            }
            Inputs::Serving(s) => {
                for rung in 0..s.sweep.loads.len() {
                    for trial in 0..s.sweep.trials {
                        let id = rung as u64 * s.sweep.trials + trial;
                        spans.scope(&format!("trial:{id}"), |spans| {
                            let t =
                                spans.scope("workload.generate", |_| s.serving_trial(rung, trial));
                            pass.fabric_trial(spans, "fabric.run", || {
                                let config = FabricConfig {
                                    seed: t.engine_seed,
                                    max_slots: u64::MAX,
                                    ..s.config
                                };
                                let mut sim =
                                    FabricSim::with_probe(&s.topology, &s.routing, config, probe());
                                sim.begin_paced(&t.workload, &t.pacing);
                                let outcome = sim.run_to_horizon(t.horizon);
                                let (report, probe) = sim.finish_with_probe();
                                let ok =
                                    matches!(outcome, StepOutcome::Horizon | StepOutcome::Drained);
                                (report, probe, ok)
                            });
                        });
                    }
                }
            }
            Inputs::Path(p) => {
                for trial in 0..p.trials {
                    let config = p.config.with_seed(trial_seed(p.config.seed, trial));
                    spans.scope(&format!("trial:{trial}"), |spans| {
                        let start = Instant::now();
                        let r = spans.scope("sim.path_run", |_| {
                            PathSim::new(config).run(&p.downstream, &p.upstream)
                        });
                        pass.run_wall_s += start.elapsed().as_secs_f64();
                        let t = &mut pass.totals;
                        t.trials += 1;
                        t.ok_trials += u64::from(r.drained);
                        t.slots += r.slots;
                        t.links.merge(&r.host_link);
                        t.links.merge(&r.device_link);
                        t.switches.merge(&r.switches);
                        let failures = r.total_failures();
                        t.failures.merge(&failures);
                        // The path simulator has no undetected-drop
                        // classifier; its Fail_order count is the auditor's.
                        t.fail_order_events += failures.ordering_failures;
                    });
                }
            }
        }
        pass
    }
}

impl<P> TrialPass<P> {
    /// Times one fabric trial inside a span named `name` and folds its
    /// report (`ok`: it drained or reached its horizon) into the pass.
    fn fabric_trial(
        &mut self,
        spans: &mut Spans,
        name: &str,
        run: impl FnOnce() -> (FabricReport, P, bool),
    ) {
        let start = Instant::now();
        let (report, probe, ok) = spans.scope(name, |_| run());
        self.run_wall_s += start.elapsed().as_secs_f64();
        self.probes.push(probe);
        let t = &mut self.totals;
        t.trials += 1;
        t.ok_trials += u64::from(ok);
        t.slots += report.slots;
        t.links.merge(&report.links);
        t.switches.merge(&report.switches);
        t.failures.merge(&report.total_failures());
        t.fail_order_events += report.undetected_drop_events;
        t.credit_stalls += report.credit_stalls;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_guard_names_the_workload_and_the_limit() {
        assert!(guard_stream("w", TAG_CAP).is_ok());
        let err = guard_stream("pod_clean_rxl", TAG_CAP + 1).unwrap_err();
        assert!(
            err.contains("pod_clean_rxl") && err.contains("65536"),
            "{err}"
        );
        assert!(!err.contains('\n'));
    }

    #[test]
    fn unknown_workloads_are_rejected_by_name() {
        let err = build("nope", 1, &mut Spans::new()).err().unwrap();
        assert!(err.contains("nope") && err.contains("pod_clean_rxl"));
    }

    #[test]
    fn every_spec_builds_within_the_tag_cap() {
        for spec in &SPECS {
            let inputs = build(spec.name, DEFAULT_SEED, &mut Spans::new());
            assert!(inputs.is_ok(), "{}: {:?}", spec.name, inputs.err());
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
    }
}
