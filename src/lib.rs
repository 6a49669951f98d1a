//! # rxl — umbrella crate
//!
//! Re-exports every crate of the RXL / Implicit Sequence Number (ISN)
//! reproduction so examples and downstream users can depend on a single
//! crate. See the individual crates for detailed documentation:
//!
//! * [`gf256`] — GF(2^8) arithmetic substrate.
//! * [`crc`] — CRC engines and the ISN (implicit sequence number) CRC.
//! * [`fec`] — shortened Reed–Solomon FEC with the CXL 3-way interleaved layout.
//! * [`flit`] — CXL/RXL flit formats and transaction-message packing.
//! * [`link`] — link layer: channel error models, retry, ACK handling.
//! * [`switch`] — stateless switching devices that drop uncorrectable flits.
//! * [`transport`] — delivery auditing: `Fail_data` / `Fail_order` classification.
//! * [`sim`] — discrete-event simulator and Monte-Carlo harness for one
//!   host–device path.
//! * [`fabric`] — fabric-scale simulator: whole topologies (leaf–spine,
//!   fat-tree, ring) of concurrent sessions over shared switches, with a
//!   sharded Monte-Carlo driver and an analytic FIT cross-check.
//! * [`chaos`] — fault injection & scenario engine: time-varying per-link
//!   channels (Gilbert–Elliott, BER schedules), switch
//!   drain/fail timelines, and a sharded scenario Monte-Carlo with
//!   per-epoch failure reports.
//! * [`load`] — open-loop traffic generation & latency telemetry: arrival
//!   processes (fixed-rate, Poisson-like, bursty on/off), session traffic
//!   matrices (uniform, permutation, hotspot, incast), HDR-style latency
//!   histograms, and offered-load sweeps with saturation-knee detection.
//! * [`telemetry`] — windowed SLO telemetry over the fabric engine's
//!   zero-cost probe seam: per-window latency/availability series,
//!   error-budget burn-rate accounting with multi-window alerts, bounded
//!   incident traces (JSONL / Chrome tracing), and chaos-scenario incident
//!   replays.
//! * [`analysis`] — closed-form reliability / bandwidth / hardware models.
//! * [`core`] — the per-device FIT analysis projected onto whole fabrics.

pub use rxl_analysis as analysis;
pub use rxl_chaos as chaos;
pub use rxl_core as core;
pub use rxl_crc as crc;
pub use rxl_fabric as fabric;
pub use rxl_fec as fec;
pub use rxl_flit as flit;
pub use rxl_gf256 as gf256;
pub use rxl_link as link;
pub use rxl_load as load;
pub use rxl_sim as sim;
pub use rxl_switch as switch;
pub use rxl_telemetry as telemetry;
pub use rxl_transport as transport;

/// Convenience prelude bringing the most commonly used types into scope.
pub mod prelude {
    pub use rxl_analysis::reliability::ReliabilityModel;
    pub use rxl_chaos::{ChaosMonteCarlo, GilbertElliott, Scenario};
    pub use rxl_core::{FabricSimOptions, FabricSpec, ProtocolKind};
    pub use rxl_crc::{Crc64, IsnCrc64};
    pub use rxl_fabric::{
        FabricConfig, FabricMonteCarlo, FabricTopology, FabricWorkload, FitCrosscheck,
    };
    pub use rxl_fec::InterleavedFec;
    pub use rxl_flit::{Flit256, FlitHeader, Message};
    pub use rxl_link::{ChannelErrorModel, LinkConfig};
    pub use rxl_load::{
        ArrivalProcess, LatencyHistogram, LatencyStats, LoadSweep, LoadSweepConfig, TrafficMatrix,
    };
    pub use rxl_sim::{MonteCarlo, SimConfig, Topology};
    pub use rxl_telemetry::{IncidentReplay, SloProbe, SloSpec, WindowedTelemetry};
}
