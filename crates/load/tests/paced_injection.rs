//! Coverage for the paced-injection path of the fabric engine.
//!
//! Two contracts anchor the subsystem:
//!
//! 1. **The greedy path is untouched.** With `offered_load` unset the slot
//!    loop takes the pre-pacing path byte for byte — the workspace-level
//!    `tests/fabric_golden_digest.rs` pins that against digests captured
//!    *before* this subsystem existed. Here we additionally pin that the
//!    greedy path is deterministic and that `run()` ≡ `begin`/`step`/
//!    `finish` with pacing disabled.
//! 2. **Saturation convergence.** Paced injection at full line rate must
//!    converge to the greedy (saturated) throughput: the whole point of
//!    the `offered_load` knob is that 1.0 means "as fast as the wire" — if
//!    a saturating paced run took materially longer than the greedy run,
//!    offered load would not be a fraction of the line rate.

use rxl_fabric::{FabricConfig, FabricSim, FabricTopology, FabricWorkload, RoutingTable};
use rxl_link::{ChannelErrorModel, ProtocolVariant};

fn topology() -> FabricTopology {
    FabricTopology::leaf_spine(2, 1, 2)
}

#[test]
fn greedy_run_equals_begin_step_finish_and_is_deterministic() {
    let t = topology();
    let routing = RoutingTable::new(&t);
    let config = FabricConfig::new(ProtocolVariant::CxlPiggyback)
        .with_channel(ChannelErrorModel::random(1e-4))
        .with_seed(0x90_1D);
    assert_eq!(config.offered_load, None, "default must stay greedy");
    let workload = FabricWorkload::symmetric(t.session_count(), 400, 8, 7);

    let via_run = FabricSim::new(&t, &routing, config).run(&workload);
    let mut sim = FabricSim::new(&t, &routing, config);
    sim.begin(&workload);
    let _ = sim.step(u64::MAX);
    let via_steps = sim.finish();
    assert_eq!(
        format!("{via_run:?}"),
        format!("{via_steps:?}"),
        "run() and begin/step/finish must agree exactly on the greedy path"
    );
}

#[test]
fn saturating_pace_converges_to_greedy_throughput() {
    let t = topology();
    let routing = RoutingTable::new(&t);
    let base = FabricConfig::new(ProtocolVariant::Rxl).with_channel(ChannelErrorModel::ideal());
    let workload = FabricWorkload::symmetric(t.session_count(), 600, 8, 3);

    let greedy = FabricSim::new(&t, &routing, base).run(&workload);
    assert!(greedy.drained);

    let paced = FabricSim::new(&t, &routing, base.with_offered_load(1.0)).run(&workload);
    assert!(paced.drained);
    assert_eq!(
        paced.total_failures().clean_deliveries,
        greedy.total_failures().clean_deliveries
    );
    // Throughput (messages per slot) within 10% of greedy: at line rate the
    // endpoints never starve, so pacing adds only the initial arrival skew.
    let rate =
        |r: &rxl_fabric::FabricReport| r.total_failures().clean_deliveries as f64 / r.slots as f64;
    let ratio = rate(&paced) / rate(&greedy);
    assert!(
        (0.9..=1.05).contains(&ratio),
        "paced-at-saturation throughput must match greedy: ratio {ratio} \
         (paced {} slots, greedy {} slots)",
        paced.slots,
        greedy.slots
    );
}

#[test]
fn sub_saturation_pace_tracks_the_offered_rate() {
    // At 10% of line rate the delivered rate must sit within the arrival
    // envelope: offered = 0.1 × 15 messages/slot/stream.
    let t = topology();
    let routing = RoutingTable::new(&t);
    let config = FabricConfig::new(ProtocolVariant::Rxl)
        .with_channel(ChannelErrorModel::ideal())
        .with_offered_load(0.1);
    let workload = FabricWorkload::symmetric(t.session_count(), 300, 8, 5);
    let report = FabricSim::new(&t, &routing, config).run(&workload);
    assert!(report.drained);
    assert!(report.total_failures().is_clean());
    // 8 streams × 300 messages at 1.5 messages/slot/stream: the arrival
    // horizon alone is (300/15 − 1) cohorts × 10 slots = 190 slots.
    assert!(
        report.slots >= 190,
        "paced run must span the arrival horizon, got {}",
        report.slots
    );
    let delivered_per_slot = report.total_failures().clean_deliveries as f64 / report.slots as f64;
    let offered = 8.0 * 0.1 * 15.0;
    assert!(
        delivered_per_slot <= offered * 1.05,
        "delivered rate {delivered_per_slot} exceeds offered {offered}"
    );
    assert!(
        delivered_per_slot >= offered * 0.75,
        "delivered rate {delivered_per_slot} far below offered {offered}"
    );
}
