//! # rxl-chaos — fault injection & scenario engine
//!
//! The paper evaluates RXL's reliability under a stationary, fabric-wide
//! BER. Real CXL fabrics fail in bursts: individual cables degrade, BER
//! storms hit single links, switches drain for maintenance or die
//! mid-traffic. This crate turns the `rxl-fabric` simulator into a scenario
//! exploration engine for exactly those regimes — and stress-tests whether
//! RXL's retry/replay machinery still holds where the paper's
//! independent-bit-error assumption breaks down.
//!
//! * [`channels`] — time-varying per-link channel models behind the
//!   `rxl_link::Channel` trait: a Gilbert–Elliott two-state bursty channel
//!   and a piecewise BER schedule;
//! * [`scenario`] — deterministic, seed-reproducible timelines of epochal
//!   events (`BerStorm`, `LinkDegrade`, `SwitchDrain`, `SwitchFail`)
//!   applied to named links and switches of a
//!   `FabricTopology`;
//! * [`runner`] — executes a scenario against one `FabricSim` trial,
//!   pausing at epoch boundaries to mutate channels and rout­ing, and
//!   reporting per-epoch failure-count deltas, availability and
//!   time-to-first-`Fail_order`;
//! * [`montecarlo`] — sharded scenario trials with the workspace's
//!   SplitMix64 per-trial seeding: aggregates are bit-identical for any
//!   worker-thread count.
//!
//! # Example: a BER storm on one leaf–spine uplink
//!
//! ```
//! use rxl_chaos::{ChaosMonteCarlo, Scenario};
//! use rxl_fabric::{FabricConfig, FabricTopology, FabricWorkload};
//! use rxl_link::{ChannelErrorModel, ProtocolVariant};
//!
//! let topology = FabricTopology::leaf_spine(2, 1, 2);
//! let uplink = topology.trunk_between(0, 2).expect("leaf 0 ⇄ spine 0");
//! let scenario = Scenario::named("uplink storm")
//!     .ber_storm(100, 200, vec![uplink], 50.0);
//! let config = FabricConfig::new(ProtocolVariant::Rxl)
//!     .with_channel(ChannelErrorModel::random(1e-5));
//! let workload = FabricWorkload::symmetric(topology.session_count(), 400, 8, 1);
//! let report = ChaosMonteCarlo::new(topology, config, scenario, 2).run(&workload);
//! // RXL retries every storm-induced drop: the audit stays clean.
//! assert!(report.failures.is_clean());
//! ```

pub mod channels;
pub mod montecarlo;
pub mod runner;
pub mod scenario;

pub use channels::{BerSchedule, GeState, GilbertElliott};
pub use montecarlo::{ChaosMonteCarlo, ChaosMonteCarloReport, EpochAggregate};
pub use runner::{run_scenario, run_scenario_probed, ChaosReport, EpochReport};
pub use scenario::{ChannelSpec, ChaosEvent, Scenario, TimedEvent};
