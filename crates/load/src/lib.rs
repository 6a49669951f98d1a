//! # rxl-load — open-loop traffic generation & latency telemetry
//!
//! The fabric simulator (`rxl-fabric`) and the chaos engine (`rxl-chaos`)
//! answer *does it fail?*; this crate answers *how fast is it under load?*.
//! Instead of draining a pre-built message vector greedily, it paces
//! injection into the fabric through open-loop arrival processes, times
//! every message from injection to delivery, and sweeps an offered-load
//! ladder into latency-vs-load curves with a detected saturation knee — the
//! serving-scale axis (tail latency, incast, bursty arrivals, saturation)
//! the reliability experiments alone cannot see.
//!
//! * [`arrival`] — [`ArrivalProcess`]: deterministic fixed-rate,
//!   Poisson-like geometric inter-arrivals, and bursty on/off (MMPP-2)
//!   cohort schedules, under the same RNG-draw-order discipline as
//!   `rxl_link::Channel` (documented draw counts, bit-identical schedules
//!   for a given seed regardless of thread count);
//! * [`matrix`] — [`TrafficMatrix`]: uniform, permutation, hotspot-k and
//!   incast session load shapes;
//! * [`telemetry`] — [`Histogram`], an HDR-style log-bucketed latency
//!   histogram (integer-only record, exact merge), [`LatencyStats`]
//!   summaries, and [`LatencyProbe`], which times each message on the
//!   fabric's probe seam;
//! * [`request`] — [`RequestGenerator`]: request-scale fanout workloads
//!   for the open-system serving mode (a request fans out into `k` shard
//!   messages and completes at the max of its parts);
//! * [`sweep`] — [`LoadSweep`]: the offered-load ladder driver, sharded
//!   Monte-Carlo per point, knee detection, printable reports.
//!
//! # Example: find the saturation knee of a leaf–spine pod
//!
//! ```
//! use rxl_load::{ArrivalProcess, LoadSweep, LoadSweepConfig, TrafficMatrix};
//! use rxl_fabric::{FabricConfig, FabricTopology};
//! use rxl_link::{ChannelErrorModel, ProtocolVariant};
//!
//! let sweep = LoadSweep::new(
//!     FabricTopology::leaf_spine(2, 1, 2),
//!     FabricConfig::new(ProtocolVariant::Rxl).with_channel(ChannelErrorModel::ideal()),
//!     LoadSweepConfig {
//!         loads: vec![0.05, 0.2, 0.6],
//!         messages_per_session: 150,
//!         trials: 1,
//!         matrix: TrafficMatrix::Uniform,
//!         arrival: ArrivalProcess::fixed(1.0),
//!         ..LoadSweepConfig::default()
//!     },
//! );
//! let report = sweep.run();
//! assert_eq!(report.points.len(), 3);
//! // Tail latency grows monotonically toward (and past) the knee.
//! assert!(report.points[2].stats.p99 >= report.points[0].stats.p99);
//! ```

pub mod arrival;
pub mod matrix;
pub mod request;
pub mod sweep;
pub mod telemetry;

pub use arrival::ArrivalProcess;
pub use matrix::{SessionLoad, TrafficMatrix};
pub use request::{
    request_completion_slot, FanoutShape, RequestGenerator, RequestMap, ShardRef,
    MAX_STREAM_MESSAGES,
};
pub use sweep::{detect_knee, LoadPoint, LoadSweep, LoadSweepConfig, LoadSweepReport};
pub use telemetry::{Histogram, LatencyHistogram, LatencyProbe, LatencyStats};
