//! The offered-load sweep driver: latency-vs-load curves with saturation
//! knee detection.
//!
//! A [`LoadSweep`] runs one topology × protocol configuration over a ladder
//! of offered loads. Each ladder point shards its Monte-Carlo trials across
//! rayon workers with the workspace's SplitMix64 per-trial seeding
//! ([`rxl_sim::trial_seed`]): every trial builds its own workload, arrival
//! schedule and paced [`FabricSim`] from that seed alone, and per-trial
//! [`LatencyHistogram`]s are merged in trial order — so the whole sweep
//! report is bit-identical for any worker-thread count (pinned by
//! `tests/load_latency.rs`).

use std::fmt;
use std::sync::Arc;

use rayon::prelude::*;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rxl_fabric::{
    FabricConfig, FabricSim, FabricTopology, FabricWorkload, InjectionPacing, NullProbe, Probe,
    RoutingTable,
};
use rxl_flit::MESSAGES_PER_FLIT;
use rxl_sim::{request_stream, response_stream, trial_seed};
use rxl_transport::{FailureCounts, SentStream};

use crate::arrival::ArrivalProcess;
use crate::matrix::TrafficMatrix;
use crate::telemetry::{LatencyHistogram, LatencyProbe, LatencyStats};

/// Salt separating the arrival-schedule RNG stream from the engine's
/// channel RNG (both derive from the same per-trial seed).
const ARRIVAL_SALT: u64 = 0xA11A_170A_D5EE_D000;

/// Workload shape and ladder of a load sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadSweepConfig {
    /// Offered-load ladder, ascending fractions of line rate in `(0, 1]`.
    pub loads: Vec<f64>,
    /// Messages per loaded session per direction.
    pub messages_per_session: usize,
    /// Command queues per stream.
    pub cqids: u16,
    /// Monte-Carlo trials per ladder point.
    pub trials: u64,
    /// How load distributes over sessions.
    pub matrix: TrafficMatrix,
    /// Line-rate arrival-process template; each stream runs it scaled by
    /// that stream's offered fraction (see [`ArrivalProcess::scaled`]).
    pub arrival: ArrivalProcess,
}

impl Default for LoadSweepConfig {
    fn default() -> Self {
        LoadSweepConfig {
            loads: vec![0.05, 0.10, 0.15, 0.20, 0.30, 0.50, 0.80],
            messages_per_session: 600,
            cqids: 8,
            trials: 4,
            matrix: TrafficMatrix::Uniform,
            arrival: ArrivalProcess::fixed(1.0),
        }
    }
}

/// One point of the latency-vs-load curve, aggregated over its trials.
#[derive(Clone, Debug)]
pub struct LoadPoint {
    /// Offered load (fraction of line rate) this point ran at.
    pub offered_load: f64,
    /// Fabric-wide offered message rate (messages per slot, both
    /// directions of every session summed).
    pub offered_msgs_per_slot: f64,
    /// Messages injected across all trials.
    pub injected_messages: u64,
    /// Messages whose injection→delivery latency was recorded.
    pub delivered_messages: u64,
    /// Duplicate deliveries that found no live timestamp.
    pub untracked_deliveries: u64,
    /// Simulated slots summed over trials.
    pub slots: u64,
    /// Pooled delivered throughput: `delivered_messages / slots`.
    pub delivered_per_slot: f64,
    /// `delivered_per_slot / offered_msgs_per_slot`, capped at 1.0 — a run
    /// spans one fewer inter-arrival gap than it has cohorts, so an
    /// uncapped light-load ratio lands marginally above 1. 1.0 while the
    /// fabric keeps up, collapsing past saturation (drain time dominates).
    pub efficiency: f64,
    /// Trials that drained before their slot limit.
    pub drained_trials: u64,
    /// Trials run.
    pub trials: u64,
    /// Failure-audit counts summed over trials.
    pub failures: FailureCounts,
    /// Merged latency histogram (both directions, all trials).
    pub histogram: LatencyHistogram,
    /// Summary statistics of [`Self::histogram`].
    pub stats: LatencyStats,
}

/// The full latency-vs-offered-load curve of one sweep.
#[derive(Clone, Debug)]
pub struct LoadSweepReport {
    /// Topology label.
    pub topology: String,
    /// Protocol variant name.
    pub protocol: &'static str,
    /// Traffic-matrix label.
    pub matrix: String,
    /// Arrival-process label.
    pub arrival: &'static str,
    /// Sessions driven.
    pub sessions: usize,
    /// One point per ladder load, in ladder order.
    pub points: Vec<LoadPoint>,
    /// Index into [`Self::points`] of the detected saturation knee, if the
    /// ladder crossed one (see [`detect_knee`]).
    pub knee: Option<usize>,
}

impl LoadSweepReport {
    /// Offered load at the detected knee.
    pub fn knee_load(&self) -> Option<f64> {
        self.knee.map(|i| self.points[i].offered_load)
    }
}

impl fmt::Display for LoadSweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== latency vs offered load: {} · {} · {} matrix · {} arrivals · {} sessions ==",
            self.topology, self.protocol, self.matrix, self.arrival, self.sessions
        )?;
        writeln!(
            f,
            "{:>6} | {:>9} | {:>11} | {:>5} | {:>6} | {:>6} | {:>6} | {:>7} | {:>7} | {:>8}",
            "load", "offered/s", "delivered/s", "eff", "p50", "p90", "p99", "p99.9", "max", "mean"
        )?;
        writeln!(f, "{}", "-".repeat(96))?;
        for (i, p) in self.points.iter().enumerate() {
            let marker = if self.knee == Some(i) {
                "  ← knee"
            } else {
                ""
            };
            writeln!(
                f,
                "{:>6.2} | {:>9.2} | {:>11.2} | {:>5.2} | {:>6} | {:>6} | {:>6} | {:>7} | {:>7} | {:>8.1}{}",
                p.offered_load,
                p.offered_msgs_per_slot,
                p.delivered_per_slot,
                p.efficiency,
                p.stats.p50,
                p.stats.p90,
                p.stats.p99,
                p.stats.p999,
                p.stats.max,
                p.stats.mean,
                marker
            )?;
        }
        match self.knee {
            Some(i) => writeln!(
                f,
                "saturation knee at offered load {:.2} (latencies in flit slots)",
                self.points[i].offered_load
            ),
            None => writeln!(f, "no saturation knee inside the ladder"),
        }
    }
}

/// One trial's contribution to a ladder point.
struct TrialOutcome {
    hist: LatencyHistogram,
    injected: u64,
    delivered: u64,
    untracked: u64,
    slots: u64,
    drained: bool,
    failures: FailureCounts,
}

/// An offered-load sweep over one topology and protocol configuration.
#[derive(Clone, Debug)]
pub struct LoadSweep {
    topology: FabricTopology,
    config: FabricConfig,
    sweep: LoadSweepConfig,
}

impl LoadSweep {
    /// Creates a sweep. `config.max_slots` becomes the *post-arrival drain
    /// budget*: each trial's hard slot limit is its last scheduled arrival
    /// plus this budget, so slow ladder points get the horizon they need.
    pub fn new(topology: FabricTopology, config: FabricConfig, sweep: LoadSweepConfig) -> Self {
        topology.validate();
        assert!(!sweep.loads.is_empty(), "the load ladder must not be empty");
        assert!(
            sweep.loads.iter().all(|&l| l > 0.0 && l <= 1.0),
            "loads must be fractions of line rate in (0, 1]"
        );
        assert!(
            sweep.loads.windows(2).all(|w| w[0] < w[1]),
            "the load ladder must be strictly ascending"
        );
        assert!(sweep.trials > 0 && sweep.messages_per_session > 0);
        LoadSweep {
            topology,
            config,
            sweep,
        }
    }

    /// The topology under test.
    pub fn topology(&self) -> &FabricTopology {
        &self.topology
    }

    /// The per-trial engine configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Runs the ladder and returns the latency-vs-load curve. Bit-identical
    /// for any worker-thread count (see the module docs).
    pub fn run(&self) -> LoadSweepReport {
        self.run_probed(|_| NullProbe).0
    }

    /// Like [`Self::run`], but every trial carries a lifecycle-event
    /// [`Probe`] built by `probe_for_trial` from the trial's *global* index
    /// (`ladder_point * trials + trial` — the same index that seeds the
    /// trial). The probes come back grouped per ladder point, in trial
    /// order inside each point, so consumers can merge per-trial state
    /// deterministically — the same thread-count-independence contract as
    /// the report itself. Probes observe and never perturb, so
    /// `run_probed(..).0` is bit-identical to [`Self::run`]. This is the
    /// seam the spatial-metrics layer (`rxl_telemetry::metrics`) uses to
    /// attribute a latency knee to the saturated links behind it.
    pub fn run_probed<P, F>(&self, probe_for_trial: F) -> (LoadSweepReport, Vec<Vec<P>>)
    where
        P: Probe + Send,
        F: Fn(u64) -> P + Sync,
    {
        let routing = RoutingTable::new(&self.topology);
        let mut points = Vec::with_capacity(self.sweep.loads.len());
        let mut point_probes = Vec::with_capacity(self.sweep.loads.len());
        for (pi, &load) in self.sweep.loads.iter().enumerate() {
            let session_loads = self.sweep.matrix.session_loads(&self.topology, load);
            let offered_msgs_per_slot: f64 = session_loads
                .iter()
                .map(|l| (l.downstream + l.upstream) * MESSAGES_PER_FLIT as f64)
                .sum();

            let (outcomes, probes): (Vec<TrialOutcome>, Vec<P>) = (0..self.sweep.trials)
                .into_par_iter()
                .map(|trial| {
                    let global = pi as u64 * self.sweep.trials + trial;
                    self.run_trial(&routing, &session_loads, global, probe_for_trial(global))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .unzip();
            point_probes.push(probes);

            let mut point = LoadPoint {
                offered_load: load,
                offered_msgs_per_slot,
                injected_messages: 0,
                delivered_messages: 0,
                untracked_deliveries: 0,
                slots: 0,
                delivered_per_slot: 0.0,
                efficiency: 0.0,
                drained_trials: 0,
                trials: self.sweep.trials,
                failures: FailureCounts::default(),
                histogram: LatencyHistogram::new(),
                stats: LatencyStats::default(),
            };
            for o in outcomes {
                point.injected_messages += o.injected;
                point.delivered_messages += o.delivered;
                point.untracked_deliveries += o.untracked;
                point.slots += o.slots;
                point.drained_trials += u64::from(o.drained);
                point.failures.merge(&o.failures);
                point.histogram.merge(&o.hist);
            }
            point.delivered_per_slot = if point.slots > 0 {
                point.delivered_messages as f64 / point.slots as f64
            } else {
                0.0
            };
            point.efficiency = if offered_msgs_per_slot > 0.0 {
                (point.delivered_per_slot / offered_msgs_per_slot).min(1.0)
            } else {
                0.0
            };
            point.stats = LatencyStats::from_histogram(&point.histogram);
            points.push(point);
        }

        let knee = detect_knee(&points);
        (
            LoadSweepReport {
                topology: self.topology.name.clone(),
                protocol: self.config.variant.name(),
                matrix: self.sweep.matrix.label(),
                arrival: self.sweep.arrival.label(),
                sessions: self.topology.sessions.len(),
                points,
                knee,
            },
            point_probes,
        )
    }

    /// One paced trial, timed by a [`LatencyProbe`] riding beside the
    /// caller's probe. Everything (workload content, arrival schedule,
    /// channel errors) derives from `(config.seed, global_trial)` alone; the
    /// probes observe without perturbing.
    fn run_trial<P: Probe>(
        &self,
        routing: &RoutingTable,
        session_loads: &[crate::matrix::SessionLoad],
        global_trial: u64,
        probe: P,
    ) -> (TrialOutcome, P) {
        let engine_seed = trial_seed(self.config.seed, global_trial);
        let mut arrival_rng =
            StdRng::seed_from_u64(trial_seed(self.config.seed ^ ARRIVAL_SALT, global_trial));

        let n = self.sweep.messages_per_session;
        let mut workload = FabricWorkload {
            downstream: Vec::with_capacity(session_loads.len()),
            upstream: Vec::with_capacity(session_loads.len()),
        };
        let mut pacing = InjectionPacing::default();
        // Streams are built and scheduled in a fixed order (downstream then
        // upstream, session-ascending inside each) so the arrival RNG draw
        // sequence is deterministic.
        for (s, sl) in session_loads.iter().enumerate() {
            let (msgs, slots) = if sl.downstream > 0.0 {
                let msgs = request_stream(
                    n,
                    self.sweep.matrix.request_pattern(s, self.sweep.cqids),
                    engine_seed ^ (0x10AD_0000 + s as u64),
                );
                let slots = self
                    .sweep
                    .arrival
                    .scaled(sl.downstream)
                    .schedule(msgs.len(), &mut arrival_rng);
                (msgs, slots)
            } else {
                (Vec::new(), Vec::new())
            };
            workload.downstream.push(Arc::new(SentStream::new(msgs)));
            pacing.downstream.push(slots);
        }
        for (s, sl) in session_loads.iter().enumerate() {
            let (msgs, slots) = if sl.upstream > 0.0 {
                let msgs =
                    response_stream(n, self.sweep.cqids, engine_seed ^ (0x10AD_8000 + s as u64));
                let slots = self
                    .sweep
                    .arrival
                    .scaled(sl.upstream)
                    .schedule(msgs.len(), &mut arrival_rng);
                (msgs, slots)
            } else {
                (Vec::new(), Vec::new())
            };
            workload.upstream.push(Arc::new(SentStream::new(msgs)));
            pacing.upstream.push(slots);
        }

        let horizon = pacing
            .downstream
            .iter()
            .chain(&pacing.upstream)
            .filter_map(|s| s.last().copied())
            .max()
            .unwrap_or(0);
        let config = FabricConfig {
            seed: engine_seed,
            max_slots: horizon.saturating_add(self.config.max_slots),
            ..self.config
        };

        let probes = (LatencyProbe::default(), probe);
        let mut sim = FabricSim::with_probe(&self.topology, routing, config, probes);
        sim.begin_paced(&workload, &pacing);
        let _ = sim.step(u64::MAX);
        let (report, (latency, probe)) = sim.finish_with_probe();
        (
            TrialOutcome {
                injected: workload.total_messages() as u64,
                delivered: latency.hist.count(),
                untracked: latency.untracked,
                slots: report.slots,
                drained: report.drained,
                failures: report.total_failures(),
                hist: latency.hist,
            },
            probe,
        )
    }
}

/// Finds the saturation knee of a ladder: the first point whose tail
/// latency has blown past twice the lightest-load p99, or whose delivered
/// throughput has fallen below 75% of the ladder's best efficiency —
/// whichever the ladder hits first. `None` if the whole ladder stays below
/// both thresholds (the fabric never saturated).
pub fn detect_knee(points: &[LoadPoint]) -> Option<usize> {
    let first = points.first()?;
    let base_p99 = first.stats.p99.max(1);
    let best_eff = points.iter().map(|p| p.efficiency).fold(0.0, f64::max);
    points
        .iter()
        .position(|p| p.stats.p99 >= 2 * base_p99 || p.efficiency < 0.75 * best_eff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxl_link::{ChannelErrorModel, ProtocolVariant};

    fn small_sweep(loads: Vec<f64>) -> LoadSweep {
        LoadSweep::new(
            FabricTopology::leaf_spine(2, 1, 2),
            FabricConfig::new(ProtocolVariant::Rxl).with_channel(ChannelErrorModel::ideal()),
            LoadSweepConfig {
                loads,
                messages_per_session: 300,
                trials: 2,
                ..LoadSweepConfig::default()
            },
        )
    }

    #[test]
    fn sweep_produces_a_point_per_load_and_times_every_message() {
        let sweep = small_sweep(vec![0.05, 0.5]);
        let report = sweep.run();
        assert_eq!(report.points.len(), 2);
        for p in &report.points {
            assert_eq!(p.trials, 2);
            assert_eq!(p.drained_trials, 2);
            assert_eq!(p.injected_messages, p.delivered_messages);
            assert_eq!(p.untracked_deliveries, 0);
            assert!(p.failures.is_clean());
            assert_eq!(p.histogram.count(), p.delivered_messages);
            assert!(p.stats.p50 > 0);
        }
        // Heavier load ⇒ heavier tail on the shared trunk.
        assert!(report.points[1].stats.p99 > report.points[0].stats.p99);
        assert!(report.to_string().contains("latency vs offered load"));
    }

    #[test]
    fn ladder_must_be_ascending_fractions() {
        let result = std::panic::catch_unwind(|| small_sweep(vec![0.5, 0.2]));
        assert!(result.is_err());
        let result = std::panic::catch_unwind(|| small_sweep(vec![0.2, 1.5]));
        assert!(result.is_err());
    }

    /// Minimal-adaptive routing must buy real tail latency on a congested
    /// fabric: under the hotspot matrix the deterministic DOR table funnels
    /// the boosted sessions' two-hop routes through the same x-trunks, while
    /// the adaptive VC drains onto the less-occupied minimal alternative —
    /// strictly lower p99 at the same offered load and VC budget.
    #[test]
    fn adaptive_routing_lowers_hotspot_tail_latency() {
        let run = |adaptive: bool| {
            LoadSweep::new(
                FabricTopology::torus(4, 4, 1),
                FabricConfig::new(ProtocolVariant::Rxl)
                    .with_channel(ChannelErrorModel::ideal())
                    .with_seed(0xADA7)
                    .with_vc_count(3)
                    .with_adaptive(adaptive),
                LoadSweepConfig {
                    loads: vec![0.25],
                    messages_per_session: 300,
                    trials: 2,
                    matrix: TrafficMatrix::Hotspot {
                        hot_sessions: 4,
                        boost: 3.0,
                    },
                    ..LoadSweepConfig::default()
                },
            )
            .run()
        };
        let deterministic = run(false);
        let adaptive = run(true);
        let (det, ada) = (&deterministic.points[0], &adaptive.points[0]);
        assert_eq!(det.drained_trials, det.trials);
        assert_eq!(ada.drained_trials, ada.trials);
        assert!(det.failures.is_clean() && ada.failures.is_clean());
        assert!(
            ada.stats.p99 < det.stats.p99,
            "adaptive p99 {} must beat deterministic p99 {}",
            ada.stats.p99,
            det.stats.p99
        );
    }

    #[test]
    fn knee_detection_finds_the_blow_up() {
        // leaf_spine(2,1,2): 4 session-streams share each trunk direction,
        // so the trunk saturates near load 0.25; a ladder crossing it must
        // report a knee at or after the crossing.
        let report = small_sweep(vec![0.05, 0.10, 0.20, 0.40, 0.80]).run();
        let knee = report.knee.expect("ladder crosses saturation");
        assert!(
            report.points[knee].offered_load >= 0.2,
            "knee at {} is below the capacity crossing",
            report.points[knee].offered_load
        );
        assert!(report.knee_load().unwrap() >= 0.2);
        // And a ladder entirely below the knee reports none.
        let calm = small_sweep(vec![0.02, 0.05]).run();
        assert_eq!(calm.knee, None);
    }
}
