//! Parallel Monte-Carlo execution of independent path-simulation trials.
//!
//! Each trial runs the same configuration with a different RNG seed; trials
//! are embarrassingly parallel and are distributed across cores with rayon.
//! The aggregate report keeps both summed counters and per-trial rates so
//! harnesses can print means with confidence intervals.

use std::sync::Arc;

use rayon::prelude::*;

use rxl_flit::Message;
use rxl_link::LinkStats;
use rxl_switch::SwitchStats;
use rxl_transport::{FailureCounts, SentStream};

use crate::path::{PathSim, SimConfig};
use crate::report::SimReport;

/// A Monte-Carlo experiment: one configuration, many seeds.
#[derive(Clone, Debug)]
pub struct MonteCarlo {
    config: SimConfig,
    trials: u64,
    base_seed: u64,
}

/// Aggregate results over all trials.
#[derive(Clone, Debug, Default)]
pub struct MonteCarloReport {
    /// Number of trials executed.
    pub trials: u64,
    /// Summed failure counts over both directions of every trial.
    pub failures: FailureCounts,
    /// Summed link statistics (host + device) over every trial.
    pub links: LinkStats,
    /// Summed switch statistics over every trial.
    pub switches: SwitchStats,
    /// Number of trials that drained before their slot limit.
    pub drained_trials: u64,
    /// Per-trial ordering failure rates (for dispersion estimates).
    pub ordering_rates: Vec<f64>,
    /// Per-trial bandwidth overheads.
    pub bandwidth_overheads: Vec<f64>,
}

impl MonteCarloReport {
    /// Mean of the per-trial ordering failure rates.
    pub fn mean_ordering_rate(&self) -> f64 {
        mean(&self.ordering_rates)
    }

    /// Probability (over delivered messages, pooled across trials) that a
    /// message experienced any failure.
    pub fn pooled_failure_rate(&self) -> f64 {
        self.failures.failure_rate()
    }
}

/// Derives the RNG seed of one trial from the experiment's base seed.
///
/// A SplitMix64-style finalizer rather than `base + trial * stride`: the
/// multiply–xor–shift cascade decorrelates trials even when base seeds are
/// small consecutive integers (the common case in tests and sweeps), and it
/// cannot overflow-panic in debug builds for any trial count.
///
/// Public because every sharded Monte-Carlo driver in the workspace
/// (including `rxl-fabric`'s) must derive per-trial seeds the same way for
/// results to be bit-identical regardless of worker-thread count.
pub fn trial_seed(base: u64, trial: u64) -> u64 {
    let mut z = base ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

impl MonteCarlo {
    /// Creates an experiment running `trials` independent trials of `config`.
    pub fn new(config: SimConfig, trials: u64) -> Self {
        MonteCarlo {
            config,
            trials,
            base_seed: config.seed,
        }
    }

    /// Number of trials configured.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Runs every trial (in parallel) with the given per-direction workloads
    /// and aggregates the results.
    ///
    /// Results are bit-for-bit reproducible for a fixed `base_seed`
    /// regardless of how many rayon worker threads execute the trials: each
    /// trial's RNG seed depends only on `(base_seed, trial)`, and the
    /// parallel collect preserves trial order, so the per-trial vectors in
    /// the report are always in trial order too.
    pub fn run(&self, downstream: &[Message], upstream: &[Message]) -> MonteCarloReport {
        let base = self.base_seed;
        // One copy per run, shared (with its audit index) by every trial.
        let downstream = Arc::new(SentStream::new(downstream.to_vec()));
        let upstream = Arc::new(SentStream::new(upstream.to_vec()));
        let reports: Vec<SimReport> = (0..self.trials)
            .into_par_iter()
            .map(|trial| {
                let config = self.config.with_seed(trial_seed(base, trial));
                PathSim::new(config).run_shared(&downstream, &upstream)
            })
            .collect();
        self.aggregate(reports)
    }

    fn aggregate(&self, reports: Vec<SimReport>) -> MonteCarloReport {
        let mut agg = MonteCarloReport {
            trials: reports.len() as u64,
            ..Default::default()
        };
        for r in reports {
            agg.failures.merge(&r.total_failures());
            agg.links.merge(&r.host_link);
            agg.links.merge(&r.device_link);
            agg.switches.merge(&r.switches);
            if r.drained {
                agg.drained_trials += 1;
            }
            agg.ordering_rates.push(r.ordering_failure_rate());
            agg.bandwidth_overheads.push(r.bandwidth_overhead());
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use crate::workload::{request_stream, response_stream, TrafficPattern};
    use rxl_link::{ChannelErrorModel, ProtocolVariant};

    #[test]
    fn clean_channel_yields_zero_failures_across_trials() {
        let config =
            SimConfig::new(ProtocolVariant::Rxl, 1).with_channel(ChannelErrorModel::ideal());
        let mc = MonteCarlo::new(config, 4);
        let down = request_stream(60, TrafficPattern::Reads { cqids: 2 }, 5);
        let up = response_stream(30, 2, 6);
        let report = mc.run(&down, &up);
        assert_eq!(report.trials, 4);
        assert_eq!(report.drained_trials, 4);
        assert!(report.failures.is_clean());
        assert_eq!(report.mean_ordering_rate(), 0.0);
        assert_eq!(report.pooled_failure_rate(), 0.0);
        assert_eq!(report.ordering_rates.len(), 4);
    }

    #[test]
    fn trials_use_distinct_seeds_and_aggregate_counts() {
        let config =
            SimConfig::new(ProtocolVariant::Rxl, 1).with_channel(ChannelErrorModel::random(3e-4));
        let mc = MonteCarlo::new(config, 3);
        let down = request_stream(150, TrafficPattern::Reads { cqids: 4 }, 9);
        let up = response_stream(50, 4, 10);
        let report = mc.run(&down, &up);
        assert_eq!(report.trials, 3);
        // Total clean deliveries should be close to 3 × (150 + 50); RXL never
        // fails, it only retries.
        assert_eq!(report.failures.clean_deliveries, 3 * 200);
        assert!(report.links.flits_sent > 0);
        assert!(report.switches.flits_in > 0);
    }

    /// The reproducibility contract: for a fixed `base_seed` the aggregate
    /// report is identical no matter how many rayon worker threads run the
    /// trials. Trial seeds depend only on `(base_seed, trial)` and the
    /// parallel collect preserves trial order, so nothing may vary.
    #[test]
    fn reports_are_reproducible_across_thread_counts() {
        let config = SimConfig::new(ProtocolVariant::Rxl, 2)
            .with_channel(ChannelErrorModel::random(2e-4))
            .with_seed(0xC0FFEE);
        let down = request_stream(120, TrafficPattern::Reads { cqids: 4 }, 11);
        let up = response_stream(60, 4, 12);

        // An explicit thread pool per count — no process-global state, so
        // this test cannot race with siblings in the same test binary.
        let run_with_threads = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("shim pool build is infallible");
            pool.install(|| MonteCarlo::new(config, 8).run(&down, &up))
        };

        let reference = run_with_threads(1);
        for threads in [2, 3, 8] {
            let report = run_with_threads(threads);
            assert_eq!(report.trials, reference.trials, "{threads} threads");
            assert_eq!(report.failures, reference.failures, "{threads} threads");
            assert_eq!(report.links, reference.links, "{threads} threads");
            assert_eq!(report.switches, reference.switches, "{threads} threads");
            assert_eq!(
                report.drained_trials, reference.drained_trials,
                "{threads} threads"
            );
            // Bit-exact per-trial vectors, in trial order.
            assert_eq!(
                report.ordering_rates, reference.ordering_rates,
                "{threads} threads"
            );
            assert_eq!(
                report.bandwidth_overheads, reference.bandwidth_overheads,
                "{threads} threads"
            );
        }
    }

    /// Distinct trials must not share RNG streams even for adjacent base
    /// seeds — the failure mode of naive `base + trial * stride` derivations.
    #[test]
    fn trial_seeds_do_not_collide_for_adjacent_bases() {
        let mut seen = std::collections::HashSet::new();
        for base in 0..64u64 {
            for trial in 0..64u64 {
                assert!(
                    seen.insert(trial_seed(base, trial)),
                    "seed collision at base={base} trial={trial}"
                );
            }
        }
    }

    #[test]
    fn statistics_helpers_behave() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        let mc_cfg = SimConfig {
            topology: Topology::Direct,
            ..SimConfig::new(ProtocolVariant::Rxl, 0)
        };
        assert_eq!(MonteCarlo::new(mc_cfg, 7).trials(), 7);
    }
}
