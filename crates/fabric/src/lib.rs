//! # rxl-fabric — Fabric-scale discrete-event simulation
//!
//! The single-path simulator (`rxl-sim`) answers "what happens on one
//! host–device path"; this crate answers the paper's fleet-scale question:
//! what happens when *thousands of endpoints* share the switches of a real
//! fabric. It instantiates whole topologies — every endpoint a real
//! `rxl-link` state machine, every switch a real `rxl-switch` silent-drop
//! device — and drives N concurrent transaction sessions through them at
//! flit-slot granularity with credit backpressure on every queue.
//!
//! * [`topology`] — leaf–spine, fat-tree, ring, torus and dragonfly
//!   generators with per-trunk dateline metadata for the escape VCs,
//! * [`routing`] — deterministic shortest-path (ECMP-spread) tables plus
//!   minimal-adaptive candidate sets,
//! * [`engine`] — the slot-synchronous fabric engine ([`FabricSim`]): the
//!   slot loop, the one hop path and the fault-injection calls,
//! * `node` (crate-private) — the actors the slot loop drives: a switch
//!   actor plans a flit's next hop and accepts it into a lane, an endpoint
//!   actor emits and takes delivery, a wire runs every link traversal,
//! * `trial` (crate-private, re-exported by [`engine`]) — a trial's
//!   configuration, workload, pacing and report,
//! * [`montecarlo`] — sharded, thread-count-independent trial aggregation,
//! * [`crosscheck`] — empirical-vs-analytic FIT comparison at an
//!   accelerated BER.
//!
//! # Example
//!
//! ```
//! use rxl_fabric::{FabricConfig, FabricMonteCarlo, FabricTopology, FabricWorkload};
//! use rxl_link::{ChannelErrorModel, ProtocolVariant};
//!
//! let topology = FabricTopology::leaf_spine(2, 2, 1);
//! let config = FabricConfig::new(ProtocolVariant::Rxl)
//!     .with_channel(ChannelErrorModel::ideal());
//! let workload = FabricWorkload::symmetric(topology.session_count(), 30, 8, 1);
//! let report = FabricMonteCarlo::new(topology, config, 2).run(&workload);
//! assert!(report.failures.is_clean());
//! ```

pub mod crosscheck;
pub mod engine;
mod injector;
pub mod montecarlo;
mod node;
pub mod probe;
pub mod routing;
pub mod topology;
mod trial;

pub use crosscheck::FitCrosscheck;
pub use engine::{
    FabricConfig, FabricCounters, FabricReport, FabricSim, FabricWorkload, InjectionPacing,
    StepOutcome,
};
pub use montecarlo::{FabricMonteCarlo, FabricMonteCarloReport};
pub use probe::{
    message_key, ChannelErrorEvent, CountingProbe, DeliverEvent, EnginePhase, InjectEvent, LinkHop,
    LinkTraversalEvent, NullProbe, Probe, SpanJoin,
};
pub use routing::{RoutingTable, NO_ROUTE};
pub use topology::{
    EndpointNode, FabricTopology, LinkId, NodeRole, Session, SwitchNode, TopologyLayout,
    TrunkClass, TrunkLink,
};
