//! Fabric-level reliability projection.
//!
//! The paper motivates RXL with fleet-scale incidents (Llama-3.1 training
//! interruptions, the Delta system's 6.9-hour NVLink MTBE). This module
//! projects the per-device FIT analysis of Section 7.1 onto whole fabrics so
//! examples can answer questions like "how often would a 16K-accelerator job
//! be interrupted by an undetected interconnect ordering failure?".

use rxl_analysis::ReliabilityModel;
use rxl_fabric::{
    FabricConfig, FabricMonteCarlo, FabricMonteCarloReport, FabricTopology, FabricWorkload,
    FitCrosscheck, RoutingTable,
};
use rxl_link::{ChannelErrorModel, ProtocolVariant};

/// Which protocol a fabric runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum ProtocolKind {
    /// Baseline CXL 3.x: link-layer CRC, explicit (multiplexed) FSN.
    Cxl,
    /// RXL: transport-layer ECRC with the Implicit Sequence Number.
    #[default]
    Rxl,
}

impl ProtocolKind {
    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Cxl => "CXL",
            ProtocolKind::Rxl => "RXL",
        }
    }
}

/// Description of a scaled-out fabric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FabricSpec {
    /// Protocol the fabric runs.
    pub kind: ProtocolKind,
    /// Number of devices (accelerators) attached to the fabric.
    pub devices: u64,
    /// Switching levels between any host–device pair.
    pub switch_levels: u32,
    /// Virtual channels per trunk lane in the simulated fabric. `1`
    /// reproduces the pre-VC engine (and its ring(span ≥ 2) credit
    /// deadlock); `≥ 2` installs the dateline escape VCs.
    pub vc_count: usize,
    /// Route adaptively over the minimal candidate set (requires
    /// `vc_count ≥ 3`; escape VCs stay deterministic).
    pub adaptive: bool,
    /// The per-link reliability operating point.
    pub model: ReliabilityModel,
}

/// Projected reliability of a fabric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FabricReliability {
    /// FIT (failures per 10⁹ hours) of a single device's connection.
    pub per_device_fit: f64,
    /// FIT of the whole fabric (any device failing).
    pub fabric_fit: f64,
    /// Mean time between failures for the whole fabric, in hours.
    pub fabric_mtbf_hours: f64,
    /// Expected number of failures during a job of the given duration.
    pub failures_per_job: f64,
    /// The job duration used for `failures_per_job`, in hours.
    pub job_hours: f64,
}

/// Parameters of a [`FabricSpec::simulate`] run: how hard to accelerate the
/// channel and how much fabric to actually instantiate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FabricSimOptions {
    /// Accelerated per-link BER the simulated fabric runs at (the real
    /// operating point's failure events are ~10²⁰× too rare to observe in
    /// software).
    pub ber: f64,
    /// Target number of concurrent host–device sessions to instantiate
    /// (rounded up to fill the generated topology's switches evenly).
    pub sessions: usize,
    /// Messages per session per direction.
    pub messages_per_session: usize,
    /// Monte-Carlo trials, sharded across worker threads.
    pub trials: u64,
    /// Base seed; every trial derives its own seed deterministically.
    pub base_seed: u64,
}

impl Default for FabricSimOptions {
    fn default() -> Self {
        FabricSimOptions {
            ber: 1e-4,
            sessions: 8,
            messages_per_session: 600,
            trials: 8,
            base_seed: 0xFA_B51C,
        }
    }
}

/// Simulation evidence for a fabric projection: the raw Monte-Carlo report
/// plus the empirical-vs-analytic comparison at the accelerated operating
/// point.
#[derive(Clone, Debug)]
pub struct FabricSimEvidence {
    /// Label of the generated topology.
    pub topology: String,
    /// Sessions actually instantiated (≥ the requested target).
    pub sessions: usize,
    /// Aggregate simulation results.
    pub report: FabricMonteCarloReport,
    /// Per-device empirical-vs-analytic FIT comparison at the accelerated
    /// BER (both sides use the measured drop rate and coalescing fraction).
    pub crosscheck: FitCrosscheck,
    /// `crosscheck.empirical_fit` scaled to the whole fabric
    /// (`devices` × per-device FIT).
    pub empirical_fabric_fit: f64,
    /// `crosscheck.analytic_fit` scaled to the whole fabric — by
    /// construction identical to `FabricSpec::project` evaluated with the
    /// measured accelerated-point model.
    pub analytic_fabric_fit: f64,
}

impl FabricSpec {
    /// A fabric at the paper's CXL 3.0 ×16 operating point.
    pub fn new(kind: ProtocolKind, devices: u64, switch_levels: u32) -> Self {
        FabricSpec {
            kind,
            devices,
            switch_levels,
            vc_count: 1,
            adaptive: false,
            model: ReliabilityModel::cxl3_x16(),
        }
    }

    /// Sets the number of virtual channels per trunk lane in simulation.
    pub fn with_vc_count(mut self, vc_count: usize) -> Self {
        self.vc_count = vc_count;
        self
    }

    /// Enables minimal-adaptive routing in simulation (needs
    /// `vc_count ≥ 3`).
    pub fn with_adaptive(mut self, adaptive: bool) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// FIT of one device's connection under this fabric's protocol.
    pub fn per_device_fit(&self) -> f64 {
        match self.kind {
            ProtocolKind::Cxl => self.model.fit_cxl_levels(self.switch_levels),
            ProtocolKind::Rxl => self.model.fit_rxl_levels(self.switch_levels),
        }
    }

    /// Projects reliability for a job of `job_hours` hours using the whole
    /// fabric.
    pub fn project(&self, job_hours: f64) -> FabricReliability {
        let per_device_fit = self.per_device_fit();
        let fabric_fit = per_device_fit * self.devices as f64;
        let fabric_mtbf_hours = if fabric_fit > 0.0 {
            1e9 / fabric_fit
        } else {
            f64::INFINITY
        };
        FabricReliability {
            per_device_fit,
            fabric_fit,
            fabric_mtbf_hours,
            failures_per_job: fabric_fit * job_hours / 1e9,
            job_hours,
        }
    }

    /// Instantiates the canonical accelerated-BER ring fabric this spec's
    /// simulation evidence runs on: the topology, protocol variant and trial
    /// configuration of [`Self::simulate`].
    fn instantiate(
        &self,
        opts: &FabricSimOptions,
    ) -> (FabricTopology, ProtocolVariant, FabricConfig) {
        let levels = self.switch_levels.max(1);
        let span = (levels - 1) as usize;
        // One host/device pair per switch keeps the ring's trunks at (or
        // below) their one-flit-per-slot-per-direction capacity for shallow
        // spans, so the measured coalescing fraction is not an artefact of
        // sustained congestion; the ring also needs at least 2×span switches
        // for `span` to be the shortest path. Very large session targets cap
        // at 64 switches and stack extra pairs per switch instead.
        let switches = (2 * span).max(3).max(opts.sessions.min(64));
        let pairs = opts.sessions.div_ceil(switches).max(1);
        let topology = FabricTopology::ring(switches, pairs, span);

        let variant = match self.kind {
            ProtocolKind::Cxl => ProtocolVariant::CxlPiggyback,
            ProtocolKind::Rxl => ProtocolVariant::Rxl,
        };
        let ack_coalescing = if self.model.p_coalescing > 0.0 {
            (1.0 / self.model.p_coalescing).round().max(1.0) as u32
        } else {
            u32::MAX
        };
        let config = FabricConfig {
            ack_coalescing,
            ..FabricConfig::new(variant)
        }
        .with_channel(ChannelErrorModel::random(opts.ber))
        .with_seed(opts.base_seed)
        .with_vc_count(self.vc_count)
        .with_adaptive(self.adaptive);
        (topology, variant, config)
    }

    /// Gathers independent simulation evidence for this spec's analytic
    /// projection by running the `rxl-fabric` discrete-event simulator at an
    /// accelerated BER.
    ///
    /// A ring fabric whose every session crosses exactly
    /// `switch_levels.max(1)` switches is instantiated with (at least)
    /// `opts.sessions` concurrent host–device sessions, each driving real
    /// link/FEC/CRC state machines through shared silent-drop switches. The
    /// aggregated failure counts become an empirical per-device FIT that is
    /// compared — via [`FitCrosscheck`] — against this spec's own analytic
    /// formula evaluated at the *measured* accelerated operating point (the
    /// measured per-hop drop rate standing in for the PCIe `FER_UC` bound,
    /// the measured piggybacking fraction for `p_coalescing`).
    ///
    /// Direct connections (`switch_levels == 0`) have no fabric to simulate,
    /// so they are simulated at depth 1, the shallowest switched path.
    pub fn simulate(&self, opts: &FabricSimOptions) -> FabricSimEvidence {
        let levels = self.switch_levels.max(1);
        let (topology, variant, config) = self.instantiate(opts);
        let name = topology.name.clone();
        let sessions = topology.session_count();

        let routing = RoutingTable::new(&topology);
        let hops = routing
            .uniform_session_depth(&topology)
            .expect("ring sessions share one depth");
        debug_assert_eq!(hops, levels);

        let workload =
            FabricWorkload::symmetric(sessions, opts.messages_per_session, 8, opts.base_seed);
        let report = FabricMonteCarlo::new(topology, config, opts.trials).run(&workload);
        let crosscheck = FitCrosscheck::with_model(&report, variant, hops, opts.ber, &self.model);

        // The analytic side of the crosscheck is, by construction, exactly
        // this spec evaluated at the measured accelerated operating point:
        let accelerated = FabricSpec {
            model: ReliabilityModel {
                ber: opts.ber,
                fer_uc: crosscheck.measured_drop_rate,
                p_coalescing: crosscheck.measured_p_coalescing,
                ..self.model
            },
            switch_levels: levels,
            ..*self
        };
        debug_assert!(
            (accelerated.per_device_fit() - crosscheck.analytic_fit).abs()
                <= 1e-9 * crosscheck.analytic_fit.abs().max(1.0),
            "crosscheck must evaluate the spec's own projection"
        );

        FabricSimEvidence {
            topology: name,
            sessions,
            empirical_fabric_fit: crosscheck.empirical_fit * self.devices as f64,
            analytic_fabric_fit: accelerated.project(1.0).fabric_fit,
            report,
            crosscheck,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(ProtocolKind::Cxl.name(), "CXL");
        assert_eq!(ProtocolKind::Rxl.name(), "RXL");
    }

    #[test]
    fn cxl_fabric_at_scale_fails_constantly_rxl_practically_never() {
        // A Llama-3.1-scale job: 16K accelerators, 54 days, one switch level.
        let job_hours = 54.0 * 24.0;
        let cxl = FabricSpec::new(ProtocolKind::Cxl, 16_384, 1).project(job_hours);
        let rxl = FabricSpec::new(ProtocolKind::Rxl, 16_384, 1).project(job_hours);

        // Baseline CXL: the projected ordering-failure MTBF is far below one
        // hour — the job cannot finish without hitting the failure mode.
        assert!(cxl.fabric_mtbf_hours < 1e-3);
        assert!(cxl.failures_per_job > 1e6);

        // RXL: a vanishing number of expected failures over the whole job,
        // and a fabric-level MTBF measured in millennia.
        assert!(rxl.failures_per_job < 1e-3);
        assert!(rxl.fabric_mtbf_hours > 1e7);
    }

    #[test]
    fn direct_connections_are_reliable_for_both_protocols() {
        let cxl = FabricSpec::new(ProtocolKind::Cxl, 8, 0).project(1000.0);
        let rxl = FabricSpec::new(ProtocolKind::Rxl, 8, 0).project(1000.0);
        assert!(cxl.failures_per_job < 1e-6);
        assert!(rxl.failures_per_job < 1e-6);
    }

    #[test]
    fn fabric_fit_scales_linearly_with_device_count() {
        let small = FabricSpec::new(ProtocolKind::Cxl, 100, 1).project(1.0);
        let large = FabricSpec::new(ProtocolKind::Cxl, 200, 1).project(1.0);
        assert!((large.fabric_fit / small.fabric_fit - 2.0).abs() < 1e-9);
    }

    #[test]
    fn simulate_backs_rxl_projection_with_clean_fabric_evidence() {
        let spec = FabricSpec::new(ProtocolKind::Rxl, 1_000, 2);
        let opts = FabricSimOptions {
            ber: 1e-4,
            sessions: 3,
            messages_per_session: 90,
            trials: 2,
            base_seed: 5,
        };
        let ev = spec.simulate(&opts);
        assert!(ev.sessions >= 3);
        assert_eq!(ev.report.trials, 2);
        assert_eq!(ev.report.drained_trials, 2);
        // RXL: every silent drop is retried; nothing reaches the
        // application out of order, so the empirical FIT is zero and the
        // analytic projection is ~2⁻⁶⁴ of the drop rate — agreement is
        // immediate.
        assert!(ev.report.failures.is_clean(), "{:?}", ev.report.failures);
        assert_eq!(ev.crosscheck.undetected_drop_events, 0);
        assert!(ev.crosscheck.agrees_within(3.0));
        assert_eq!(ev.empirical_fabric_fit, 0.0);
        assert!(ev.analytic_fabric_fit >= 0.0);
        assert!(ev.topology.contains("ring"));
    }

    #[test]
    fn simulate_maps_switch_levels_onto_the_ring_depth() {
        let opts = FabricSimOptions {
            ber: 1e-4,
            sessions: 1,
            messages_per_session: 30,
            trials: 1,
            base_seed: 1,
        };
        for levels in [0u32, 1, 3] {
            let ev = FabricSpec::new(ProtocolKind::Cxl, 16, levels).simulate(&opts);
            assert_eq!(ev.crosscheck.path_switches, levels.max(1));
        }
    }

    #[test]
    fn projection_reports_the_job_duration() {
        let p = FabricSpec::new(ProtocolKind::Rxl, 4, 2).project(42.0);
        assert_eq!(p.job_hours, 42.0);
        assert!(p.per_device_fit > 0.0);
    }
}
