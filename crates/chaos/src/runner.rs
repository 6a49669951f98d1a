//! Executes one scenario against one fabric trial.
//!
//! The runner compiles the scenario into epoch boundaries, and at each
//! boundary mutates the paused [`FabricSim`]: switch drains/failures first
//! (routing recomputes, surviving sessions reroute), then the effective
//! channel of every targeted link is rebuilt from the timeline and installed
//! (or reset to the static configuration). Between boundaries the engine
//! runs untouched, so a trial with an empty scenario is bit-identical to a
//! scenario-free `FabricSim::run`.

use rxl_fabric::{
    FabricConfig, FabricCounters, FabricReport, FabricSim, FabricTopology, FabricWorkload,
    NullProbe, Probe, RoutingTable, StepOutcome,
};
use rxl_transport::FailureCounts;

use crate::scenario::{ChannelSpec, Scenario};

/// What one epoch of a scenario run observed.
#[derive(Clone, Debug)]
pub struct EpochReport {
    /// Epoch index (position between consecutive boundaries).
    pub index: usize,
    /// First boundary of the epoch (events fire at this slot).
    pub start_slot: u64,
    /// Last slot actually simulated (< the next boundary if the trial
    /// drained or stalled mid-epoch).
    pub end_slot: u64,
    /// Labels of the events applied at the epoch's start boundary.
    pub events: Vec<String>,
    /// Counter deltas over the epoch (losses excluded: they are only
    /// attributed at trial finalization).
    pub delta: FabricCounters,
    /// Why the epoch ended.
    pub outcome: StepOutcome,
}

/// Full outcome of one scenario trial.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Scenario label.
    pub scenario: String,
    /// Topology label.
    pub topology: String,
    /// Per-epoch observations, in time order.
    pub epochs: Vec<EpochReport>,
    /// The underlying trial report (final counts, losses attributed).
    pub fabric: FabricReport,
    /// Messages offered by the workload (both directions).
    pub offered_messages: u64,
    /// Fraction of offered messages delivered exactly once, in order,
    /// intact — the availability figure of the scenario summaries.
    pub availability: f64,
    /// Slot of the first undetected-drop (`Fail_order`) event, if any.
    pub time_to_first_fail_order: Option<u64>,
}

fn sub_failures(after: &FailureCounts, before: &FailureCounts) -> FailureCounts {
    FailureCounts {
        data_failures: after.data_failures - before.data_failures,
        ordering_failures: after.ordering_failures - before.ordering_failures,
        duplicate_deliveries: after.duplicate_deliveries - before.duplicate_deliveries,
        lost_messages: after.lost_messages - before.lost_messages,
        clean_deliveries: after.clean_deliveries - before.clean_deliveries,
    }
}

fn sub_counters(after: &FabricCounters, before: &FabricCounters) -> FabricCounters {
    FabricCounters {
        slots: after.slots - before.slots,
        failures: sub_failures(&after.failures, &before.failures),
        undetected_drop_events: after.undetected_drop_events - before.undetected_drop_events,
        replay_leak_events: after.replay_leak_events - before.replay_leak_events,
        payload_drops: after.payload_drops - before.payload_drops,
        protocol_flit_drops: after.protocol_flit_drops - before.protocol_flit_drops,
        blackholed_flits: after.blackholed_flits - before.blackholed_flits,
        credit_stalls: after.credit_stalls - before.credit_stalls,
    }
}

/// Runs `scenario` over one trial of `config` on `topology` and reports
/// per-epoch deltas plus the final fabric report. `routing` is the pristine
/// table (shared read-only across Monte-Carlo trials); scenario-induced
/// recomputations happen inside the engine.
pub fn run_scenario(
    topology: &FabricTopology,
    routing: &RoutingTable,
    config: FabricConfig,
    workload: &FabricWorkload,
    scenario: &Scenario,
) -> ChaosReport {
    run_scenario_probed(topology, routing, config, workload, scenario, NullProbe).0
}

/// Like [`run_scenario`], with a lifecycle-event [`Probe`] observing the
/// trial. On top of the engine-emitted events, the runner fires
/// [`Probe::on_epoch`] at every epoch boundary (before the boundary's switch
/// events and channel installs), so probe consumers can attribute windows to
/// scenario epochs. The probe obeys the engine's observation contract —
/// the simulated trial is bit-identical to [`run_scenario`]'s.
pub fn run_scenario_probed<P: Probe>(
    topology: &FabricTopology,
    routing: &RoutingTable,
    config: FabricConfig,
    workload: &FabricWorkload,
    scenario: &Scenario,
    probe: P,
) -> (ChaosReport, P) {
    let flit_time_ns = config.link_config().flit_time_ns;
    let boundaries = scenario.boundaries(config.max_slots);
    let targeted = scenario.targeted_links();

    let mut sim = FabricSim::with_probe(topology, routing, config, probe);
    sim.begin(workload);
    let mut epochs: Vec<EpochReport> = Vec::with_capacity(boundaries.len() - 1);
    let mut prev = sim.counters();
    // The spec currently installed on each targeted link. A boundary only
    // replaces a link's channel object when its *effective spec* changed —
    // a stateful channel (Gilbert–Elliott mid-dwell) keeps its state across
    // boundaries created by unrelated events.
    let mut installed: Vec<Option<ChannelSpec>> = vec![None; targeted.len()];
    for w in boundaries.windows(2) {
        let (start, end) = (w[0], w[1]);
        if P::ENABLED {
            sim.probe_mut().on_epoch(start, epochs.len());
        }
        for (switch, fatal) in scenario.switch_events_at(start) {
            if fatal {
                sim.fail_switch(switch);
            } else {
                sim.drain_switch(switch);
            }
        }
        for (slot, &link) in installed.iter_mut().zip(&targeted) {
            let spec = scenario.effective_channel(link, start, config.channel);
            if spec != *slot {
                match &spec {
                    Some(s) => sim.set_link_channel(link, s.instantiate(flit_time_ns)),
                    None => sim.reset_link_channel(link),
                }
                *slot = spec;
            }
        }
        let mut outcome = sim.step(end - start);
        if outcome == StepOutcome::Budget && end == config.max_slots {
            // The budget of the final epoch *is* the slot limit.
            outcome = StepOutcome::SlotLimit;
        }
        let counters = sim.counters();
        epochs.push(EpochReport {
            index: epochs.len(),
            start_slot: start,
            end_slot: counters.slots,
            events: scenario.labels_at(start, topology),
            delta: sub_counters(&counters, &prev),
            outcome,
        });
        prev = counters;
        if outcome != StepOutcome::Budget {
            break;
        }
    }

    let offered_messages: u64 = workload
        .downstream
        .iter()
        .chain(&workload.upstream)
        .map(|m| m.len() as u64)
        .sum();
    let (fabric, probe) = sim.finish_with_probe();
    let clean = fabric.total_failures().clean_deliveries;
    let report = ChaosReport {
        scenario: scenario.name.clone(),
        topology: topology.name.clone(),
        epochs,
        offered_messages,
        availability: if offered_messages > 0 {
            clean as f64 / offered_messages as f64
        } else {
            1.0
        },
        time_to_first_fail_order: fabric.first_fail_order_slot,
        fabric,
    };
    (report, probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxl_link::{ChannelErrorModel, ProtocolVariant};

    #[test]
    fn empty_scenario_is_bit_identical_to_a_plain_run() {
        let t = FabricTopology::ring(4, 1, 1);
        let routing = RoutingTable::new(&t);
        let config = FabricConfig::new(ProtocolVariant::CxlPiggyback)
            .with_channel(ChannelErrorModel::random(2e-4))
            .with_seed(0xABC);
        let workload = FabricWorkload::symmetric(t.session_count(), 300, 8, 7);
        let plain = FabricSim::new(&t, &routing, config).run(&workload);
        let chaos = run_scenario(&t, &routing, config, &workload, &Scenario::named("no-op"));
        assert_eq!(format!("{plain:?}"), format!("{:?}", chaos.fabric));
        assert_eq!(chaos.epochs.len(), 1);
        assert_eq!(chaos.epochs[0].delta.slots, plain.slots);
    }

    /// Epoch boundaries created by *unrelated* events must not disturb a
    /// stateful channel: a Gilbert–Elliott channel mid-dwell keeps its state
    /// across them, so adding a no-op boundary (a factor-1.0 storm on a
    /// different link) leaves the whole trial bit-identical.
    #[test]
    fn unrelated_boundaries_preserve_stateful_channel_state() {
        use crate::channels::GilbertElliott;
        use crate::scenario::ChannelSpec;
        let t = FabricTopology::leaf_spine(2, 1, 1);
        let uplink = t.trunk_between(0, 2).unwrap();
        let other = t.endpoint_link(0);
        let routing = RoutingTable::new(&t);
        let config = FabricConfig::new(ProtocolVariant::Rxl)
            .with_channel(ChannelErrorModel::ideal())
            .with_seed(0x6E);
        let workload = FabricWorkload::symmetric(t.session_count(), 1_500, 8, 5);
        let ge = ChannelSpec::GilbertElliott(GilbertElliott::new(
            ChannelErrorModel::ideal(),
            ChannelErrorModel::random(0.02),
            0.3,
            0.3,
        ));
        let plain = Scenario::named("ge").link_degrade(0, vec![uplink], ge.clone());
        // Same degrade plus two extra epoch boundaries (slots 50 and 150)
        // that change nothing about any link's effective channel.
        let marked = Scenario::named("ge+markers")
            .link_degrade(0, vec![uplink], ge)
            .ber_storm(50, 100, vec![other], 1.0);
        let a = run_scenario(&t, &routing, config, &workload, &plain);
        let b = run_scenario(&t, &routing, config, &workload, &marked);
        assert_eq!(b.epochs.len(), 3, "markers must create boundaries");
        assert_eq!(format!("{:?}", a.fabric), format!("{:?}", b.fabric));
    }

    #[test]
    fn epoch_deltas_sum_to_the_final_counters() {
        let t = FabricTopology::leaf_spine(2, 1, 2);
        let uplink = t.trunk_between(0, 2).unwrap();
        let routing = RoutingTable::new(&t);
        let config = FabricConfig::new(ProtocolVariant::Rxl)
            .with_channel(ChannelErrorModel::random(1e-5))
            .with_seed(3);
        let workload = FabricWorkload::symmetric(t.session_count(), 2_000, 8, 9);
        let scenario = Scenario::named("storm").ber_storm(40, 60, vec![uplink], 40.0);
        let report = run_scenario(&t, &routing, config, &workload, &scenario);
        let total_slots: u64 = report.epochs.iter().map(|e| e.delta.slots).sum();
        assert_eq!(total_slots, report.fabric.slots);
        let mut clean = 0;
        for e in &report.epochs {
            clean += e.delta.failures.clean_deliveries;
        }
        assert_eq!(clean, report.fabric.total_failures().clean_deliveries);
        assert!(report.availability > 0.99, "{}", report.availability);
        // Epoch 1 is the storm epoch and carries its label.
        assert_eq!(report.epochs[1].start_slot, 40);
        assert!(report.epochs[1].events[0].contains("BER storm"));
    }
}
