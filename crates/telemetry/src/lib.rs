//! `rxl-telemetry` — windowed SLO telemetry, burn-rate accounting and
//! structured incident traces over the RXL fabric engine's probe seam.
//!
//! The end-of-run reports (`FabricReport`, `ChaosMonteCarloReport`) answer
//! "how did the run end?"; this crate answers the operator's questions:
//! *what did the p99.9 look like during the storm, how fast did the error
//! budget burn, when would the pager have fired, and how long did recovery
//! take?*
//!
//! The crate is a pure consumer of [`rxl_fabric::Probe`] — the engine's
//! zero-cost instrumentation seam. Per that seam's contract a probe never
//! touches the trial RNG and the engine never reads probe state, so every
//! number here is observed from byte-identical trials, and disabling
//! telemetry (the default [`rxl_fabric::NullProbe`]) compiles the whole
//! layer away.
//!
//! # Layers
//!
//! * [`window`] — [`WindowedTelemetry`]: fixed-width windows of latency
//!   histograms + availability and event counters, with exact merge
//!   (thread-count-independent Monte-Carlo aggregation) and warmup
//!   detection. Latency is attributed to the *delivery* window,
//!   availability to the *injection* window.
//! * [`slo`] — [`SloSpec`] / [`burn_series`] / [`score_incident`]:
//!   error-budget burn rates per window, Google-SRE-style multi-window
//!   fast/slow alerts, and incident scoring (burn during vs after, peak,
//!   time to recovery).
//! * [`trace`] — [`TraceRecorder`]: bounded ring buffers of per-message
//!   spans and instant events, exportable as JSONL or Chrome tracing JSON.
//!   The recorder joins nothing: its owning probe hands it the spans its
//!   [`rxl_fabric::SpanJoin`] closes.
//! * [`probe`] — [`SloProbe`]: the [`rxl_fabric::Probe`] implementation
//!   feeding all of the above from engine events.
//! * [`metrics`] — [`MetricsProbe`] / [`MetricsRegistry`] /
//!   [`BottleneckReport`] / [`AttributedSweep`] / [`EngineProfiler`]: the
//!   *spatial* half — fixed-layout per-link/VC counter registries,
//!   utilization × stall-pressure bottleneck ranking with congestion
//!   signatures, per-rung load-sweep attribution, Prometheus exposition,
//!   and the engine's per-phase self-profiler.
//! * [`replay`] — [`IncidentReplay`]: a chaos scenario re-run as a scored
//!   SLO incident over a [`rxl_chaos::ChaosMonteCarlo`].
//! * [`request`] — [`RequestProbe`] / [`RequestSweep`] / [`OperatingPoint`]:
//!   the request-scale layer — an open-system serving mode that joins
//!   engine deliveries back to fanout requests, attributes each request's
//!   critical path to its straggling shard (and the link behind it), and
//!   recommends the max safe offered load under a request SLO.
//!
//! # Example
//!
//! ```
//! use rxl_chaos::Scenario;
//! use rxl_fabric::{FabricConfig, FabricTopology, FabricWorkload};
//! use rxl_link::{ChannelErrorModel, ProtocolVariant};
//! use rxl_telemetry::{IncidentReplay, SloSpec};
//!
//! let topology = FabricTopology::leaf_spine(2, 1, 2);
//! let uplink = topology.trunk_between(0, 2).unwrap();
//! let scenario = Scenario::named("storm").ber_storm(300, 400, vec![uplink], 2e4);
//! let config = FabricConfig::new(ProtocolVariant::Rxl)
//!     .with_channel(ChannelErrorModel::random(1e-7));
//! let replay = IncidentReplay::new(topology, config, scenario, 2, 200, SloSpec::default());
//! let report = replay.run(&FabricWorkload::symmetric(4, 600, 8, 11));
//! let score = report.score.expect("the storm anchors an incident interval");
//! assert_eq!(score.incident_start, 300);
//! for b in &report.burn {
//!     println!("window {:>3} burn {:8.1} fast={}", b.index, b.burn, b.fast_alert);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod probe;
pub mod replay;
pub mod request;
pub mod slo;
pub mod trace;
pub mod window;

pub use metrics::{
    AttributedSweep, BottleneckReport, CongestionSignature, EngineProfiler, LinkPressure,
    MetricsProbe, MetricsRegistry, OccupancyHistogram, PhaseProfile, RungAttribution,
    SwitchPressure,
};
pub use probe::SloProbe;
pub use replay::{IncidentReplay, IncidentReport};
pub use request::{
    OperatingPoint, RequestPoint, RequestProbe, RequestRung, RequestSweep, RequestSweepConfig,
    RequestSweepReport, StragglerLink,
};
pub use slo::{burn_series, incident_interval, score_incident, IncidentScore, SloSpec, WindowBurn};
pub use trace::{InstantEvent, InstantKind, MessageSpan, TraceRecorder};
pub use window::{SteadyStateSummary, WindowAccum, WindowStat, WindowedTelemetry};
