//! The slot-synchronous path simulator.
//!
//! One simulation instantiates a host endpoint and a device endpoint joined
//! either directly or through a chain of switches. Every slot (one flit time,
//! 2 ns at the ×16 CXL 3.0 rate) each endpoint gets one transmit opportunity;
//! the emitted flit traverses every link of the path (each traversal applies
//! the channel error model) and every switch (each applies the paper's
//! decode–drop–re-encode behaviour) before reaching the far endpoint in the
//! same slot. Propagation latency is therefore not modelled — it does not
//! affect any failure-rate or ordering result, and the bandwidth analysis
//! uses the analytic retry-occupancy model of `rxl-analysis` with retry
//! *rates* measured here.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rxl_flit::{Message, WireFlit};
use rxl_link::{ChannelErrorModel, LinkConfig, LinkEndpoint, ProtocolVariant};
use rxl_switch::{InternalErrorModel, LinkCrcMode, Switch, SwitchConfig};
use rxl_transport::{DeliveryAuditor, SentStream};

use crate::report::SimReport;
use crate::topology::Topology;

/// Configuration of one path simulation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimConfig {
    /// Protocol variant under test.
    pub variant: ProtocolVariant,
    /// Path topology.
    pub topology: Topology,
    /// Per-link channel error model.
    pub channel: ChannelErrorModel,
    /// ACK coalescing level (one ACK per this many accepted flits).
    pub ack_coalescing: u32,
    /// Hard limit on simulated transmit slots.
    pub max_slots: u64,
    /// RNG seed for channel errors and switch faults.
    pub seed: u64,
}

impl SimConfig {
    /// A convenient default: the given variant and switching depth at the
    /// paper's operating point, with a slot budget suited to small workloads.
    pub fn new(variant: ProtocolVariant, levels: u32) -> Self {
        SimConfig {
            variant,
            topology: Topology::from_levels(levels),
            channel: ChannelErrorModel::cxl3(),
            ack_coalescing: 10,
            max_slots: 2_000_000,
            seed: 0,
        }
    }

    /// Replaces the channel error model.
    pub fn with_channel(mut self, channel: ChannelErrorModel) -> Self {
        self.channel = channel;
        self
    }

    /// Replaces the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The link configuration implied by this simulation configuration.
    pub fn link_config(&self) -> LinkConfig {
        LinkConfig {
            ack_coalescing: self.ack_coalescing,
            ..LinkConfig::cxl3_x16(self.variant)
        }
    }

    fn switch_config(&self) -> SwitchConfig {
        SwitchConfig {
            ports: 2,
            internal_error: InternalErrorModel::none(),
            crc_mode: match self.variant {
                ProtocolVariant::Rxl => LinkCrcMode::Passthrough,
                _ => LinkCrcMode::Regenerate,
            },
        }
    }
}

/// One host–device pair connected through the configured path.
pub struct PathSim {
    config: SimConfig,
    host: LinkEndpoint,
    device: LinkEndpoint,
    switches: Vec<Switch>,
    rng: StdRng,
}

impl PathSim {
    /// Builds the path described by `config`.
    pub fn new(config: SimConfig) -> Self {
        let link_cfg = config.link_config();
        let switches = (0..config.topology.levels())
            .map(|_| Switch::new(config.switch_config()))
            .collect();
        PathSim {
            host: LinkEndpoint::new(link_cfg),
            device: LinkEndpoint::new(link_cfg),
            switches,
            rng: StdRng::seed_from_u64(config.seed),
            config,
        }
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Carries one wire flit from the host side towards the device,
    /// traversing every link and switch. Returns the flit that arrives at the
    /// device, or `None` if a switch dropped it.
    fn traverse_downstream(&mut self, mut wire: WireFlit) -> Option<WireFlit> {
        self.config.channel.apply(&mut wire, &mut self.rng);
        for sw in self.switches.iter_mut() {
            if !sw.process_in_place(&mut wire, &mut self.rng).forwarded() {
                return None;
            }
            self.config.channel.apply(&mut wire, &mut self.rng);
        }
        Some(wire)
    }

    /// Carries one wire flit from the device side towards the host.
    fn traverse_upstream(&mut self, mut wire: WireFlit) -> Option<WireFlit> {
        self.config.channel.apply(&mut wire, &mut self.rng);
        for sw in self.switches.iter_mut().rev() {
            if !sw.process_in_place(&mut wire, &mut self.rng).forwarded() {
                return None;
            }
            self.config.channel.apply(&mut wire, &mut self.rng);
        }
        Some(wire)
    }

    /// Runs the simulation: the host transmits `downstream` and the device
    /// transmits `upstream`; both sides' deliveries are audited against those
    /// ground-truth streams. Copies each slice once into a [`SentStream`];
    /// a caller running many trials over one workload wraps it once and
    /// calls [`Self::run_shared`].
    pub fn run(self, downstream: &[Message], upstream: &[Message]) -> SimReport {
        self.run_shared(
            &Arc::new(SentStream::new(downstream.to_vec())),
            &Arc::new(SentStream::new(upstream.to_vec())),
        )
    }

    /// [`Self::run`] over streams shared with other trials: the auditors
    /// take handles (and reuse the streams' audit index once a first trial
    /// has built it), and each transmitter is fed a flit's worth at a time
    /// (see [`rxl_link::LinkTx::top_up`]), so the trial copies no stream.
    pub fn run_shared(
        mut self,
        downstream: &Arc<SentStream>,
        upstream: &Arc<SentStream>,
    ) -> SimReport {
        let flit_time = self.config.link_config().flit_time_ns;

        let mut downstream_audit = DeliveryAuditor::for_stream(Arc::clone(downstream));
        let mut upstream_audit = DeliveryAuditor::for_stream(Arc::clone(upstream));
        // Messages of each stream handed to its transmitter so far.
        let (mut host_fed, mut device_fed) = (0, 0);

        let mut now = 0.0f64;
        let mut slots = 0u64;
        let mut drained = false;
        while slots < self.config.max_slots {
            slots += 1;
            now += flit_time;

            host_fed += self.host.top_up(&downstream[host_fed..]);
            device_fed += self.device.top_up(&upstream[device_fed..]);
            let host_emission = self.host.emit(now);
            let device_emission = self.device.emit(now);

            if let Some(wire) = self.host.encode_emission(&host_emission) {
                if let Some(arrived) = self.traverse_downstream(wire) {
                    let result = self.device.receive(&arrived, now);
                    for msg in &result.delivered {
                        downstream_audit.observe_delivery(msg);
                    }
                }
            }
            if let Some(wire) = self.device.encode_emission(&device_emission) {
                if let Some(arrived) = self.traverse_upstream(wire) {
                    let result = self.host.receive(&arrived, now);
                    for msg in &result.delivered {
                        upstream_audit.observe_delivery(msg);
                    }
                }
            }

            if host_emission.is_idle()
                && device_emission.is_idle()
                && host_fed == downstream.len()
                && device_fed == upstream.len()
                && self.host.is_quiescent()
                && self.device.is_quiescent()
            {
                drained = true;
                break;
            }
        }

        let mut switch_stats = rxl_switch::SwitchStats::default();
        for sw in &self.switches {
            switch_stats.merge(sw.stats());
        }
        SimReport {
            downstream: downstream_audit.finalize(),
            upstream: upstream_audit.finalize(),
            host_link: self.host.stats(),
            device_link: self.device.stats(),
            switches: switch_stats,
            slots,
            sim_time_ns: now,
            drained,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{request_stream, response_stream, TrafficPattern};

    fn workloads(n_down: usize, n_up: usize) -> (Vec<Message>, Vec<Message>) {
        (
            request_stream(n_down, TrafficPattern::Reads { cqids: 4 }, 11),
            response_stream(n_up, 4, 12),
        )
    }

    #[test]
    fn error_free_direct_path_delivers_everything_cleanly() {
        for variant in [
            ProtocolVariant::CxlPiggyback,
            ProtocolVariant::CxlStandaloneAck,
            ProtocolVariant::Rxl,
        ] {
            let config = SimConfig::new(variant, 0).with_channel(ChannelErrorModel::ideal());
            let (down, up) = workloads(120, 60);
            let report = PathSim::new(config).run(&down, &up);
            assert!(report.drained, "{variant:?} did not drain");
            assert!(
                report.downstream.is_clean(),
                "{variant:?}: {:?}",
                report.downstream
            );
            assert!(
                report.upstream.is_clean(),
                "{variant:?}: {:?}",
                report.upstream
            );
            assert_eq!(report.downstream.clean_deliveries, 120);
            assert_eq!(report.upstream.clean_deliveries, 60);
        }
    }

    #[test]
    fn error_free_switched_path_delivers_everything_cleanly() {
        for levels in [1u32, 3] {
            let config = SimConfig::new(ProtocolVariant::Rxl, levels)
                .with_channel(ChannelErrorModel::ideal());
            let (down, up) = workloads(90, 45);
            let report = PathSim::new(config).run(&down, &up);
            assert!(report.drained);
            assert!(report.downstream.is_clean());
            assert!(report.upstream.is_clean());
            assert!(report.switches.flits_forwarded > 0);
            assert_eq!(report.switches.flits_dropped_uncorrectable, 0);
        }
    }

    #[test]
    fn rxl_survives_a_noisy_switched_path_without_protocol_failures() {
        // Accelerated BER so drops actually happen within a small trial.
        let channel = ChannelErrorModel::random(2e-4);
        let config = SimConfig::new(ProtocolVariant::Rxl, 1)
            .with_channel(channel)
            .with_seed(42);
        let (down, up) = workloads(400, 200);
        let report = PathSim::new(config).run(&down, &up);
        assert!(report.drained, "RXL must drain despite drops");
        // RXL's guarantee: retries may happen, but nothing is delivered out
        // of order, duplicated, corrupted, or lost.
        assert!(report.downstream.is_clean(), "{:?}", report.downstream);
        assert!(report.upstream.is_clean(), "{:?}", report.upstream);
    }

    #[test]
    fn cxl_piggyback_on_a_noisy_switched_path_exhibits_protocol_failures() {
        // Same noisy path as the RXL test; baseline CXL with piggybacked ACKs
        // eventually forwards mis-ordered or duplicated messages. A few seeds
        // are tried because any individual short trial may get lucky.
        let mut total_failures = 0u64;
        for seed in 0..8u64 {
            let channel = ChannelErrorModel::random(2e-4);
            let config = SimConfig::new(ProtocolVariant::CxlPiggyback, 1)
                .with_channel(channel)
                .with_seed(seed);
            let (down, up) = workloads(400, 200);
            let report = PathSim::new(config).run(&down, &up);
            let totals = report.total_failures();
            total_failures += totals.ordering_failures + totals.duplicate_deliveries;
        }
        assert!(
            total_failures > 0,
            "expected at least one ordering/duplicate failure across seeds"
        );
    }

    #[test]
    fn switch_drop_counters_reflect_the_channel_error_rate() {
        let channel = ChannelErrorModel::random(5e-4);
        let config = SimConfig::new(ProtocolVariant::Rxl, 1)
            .with_channel(channel)
            .with_seed(3);
        let (down, up) = workloads(300, 150);
        let report = PathSim::new(config).run(&down, &up);
        assert!(report.switches.flits_in > 0);
        // With this BER some flits are corrected and occasionally dropped.
        assert!(report.switches.flits_corrected > 0);
    }

    #[test]
    fn slot_limit_is_respected() {
        let config = SimConfig {
            max_slots: 50,
            ..SimConfig::new(ProtocolVariant::Rxl, 0)
        }
        .with_channel(ChannelErrorModel::ideal());
        let (down, up) = workloads(5_000, 0);
        let report = PathSim::new(config).run(&down, &up);
        assert!(!report.drained);
        assert_eq!(report.slots, 50);
    }
}
