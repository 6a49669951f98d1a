//! Golden digests of the engine paths `tests/fabric_golden_digest.rs` does
//! not reach: that file pins `ring(4, 1, 1)` at one virtual channel with
//! 64-flit queues, where no credit stall, dateline VC, adaptive choice or
//! fault injection ever runs. Each case here is one `FabricSim` trial with
//! small queues (so `credit_stalls > 0`), pinned twice:
//!
//! * the CRC-64 of the trial's full `FabricReport` `Debug` rendering (f64
//!   `Debug` output is exact, so this pins bits), and
//! * the CRC-64 of every probe event in emission order, rendered with
//!   `Debug`, from the same trial run with a recording probe. A probe never
//!   perturbs the trial, so the probed report must equal the plain one; the
//!   event digest pins the order of the slot loop's visits (endpoints
//!   ascending, then `(switch, port)` ascending) and what each emission
//!   site reports.
//!
//! Any drift means the change altered simulation behaviour, not just code
//! shape.

use rxl::crc::Crc64;
use rxl::fabric::{
    ChannelErrorEvent, DeliverEvent, FabricConfig, FabricReport, FabricSim, FabricTopology,
    FabricWorkload, InjectEvent, LinkTraversalEvent, NullProbe, Probe, RoutingTable, StepOutcome,
};
use rxl::link::{ChannelErrorModel, ProtocolVariant};

/// Every probe event, rendered with `Debug`, one per line.
#[derive(Default)]
struct EventLog(String);

impl EventLog {
    fn push(&mut self, event: std::fmt::Arguments) {
        use std::fmt::Write;
        writeln!(self.0, "{event}").expect("writing to a String cannot fail");
    }
}

impl Probe for EventLog {
    fn on_inject(&mut self, ev: InjectEvent) {
        self.push(format_args!("{ev:?}"));
    }
    fn on_deliver(&mut self, ev: DeliverEvent) {
        self.push(format_args!("{ev:?}"));
    }
    fn on_fail_order(&mut self, slot: u64, session: usize, dst: usize) {
        self.push(format_args!("fail_order {slot} {session} {dst}"));
    }
    fn on_retransmit(&mut self, slot: u64, endpoint: usize, session: usize) {
        self.push(format_args!("retransmit {slot} {endpoint} {session}"));
    }
    fn on_nack(&mut self, slot: u64, endpoint: usize, session: usize) {
        self.push(format_args!("nack {slot} {endpoint} {session}"));
    }
    fn on_credit_stall(
        &mut self,
        slot: u64,
        switch: usize,
        port: Option<usize>,
        vc: Option<usize>,
    ) {
        self.push(format_args!("stall {slot} {switch} {port:?} {vc:?}"));
    }
    fn on_link_traversal(&mut self, ev: LinkTraversalEvent) {
        self.push(format_args!("{ev:?}"));
    }
    fn on_vc_occupancy(
        &mut self,
        slot: u64,
        switch: usize,
        port: usize,
        vc: usize,
        occupancy: usize,
    ) {
        self.push(format_args!("vc {slot} {switch} {port} {vc} {occupancy}"));
    }
    fn on_channel_error(&mut self, ev: ChannelErrorEvent) {
        self.push(format_args!("{ev:?}"));
    }
    fn on_blackhole(&mut self, slot: u64, switch: usize) {
        self.push(format_args!("blackhole {slot} {switch}"));
    }
    fn on_switch_fail(&mut self, slot: u64, switch: usize, purged: u64) {
        self.push(format_args!("switch_fail {slot} {switch} {purged}"));
    }
    fn on_switch_drain(&mut self, slot: u64, switch: usize) {
        self.push(format_args!("switch_drain {slot} {switch}"));
    }
}

fn crc(text: &str) -> u64 {
    Crc64::flit().checksum(text.as_bytes())
}

/// A mid-run fault-injection call, made between slots.
enum Fault {
    /// Install a random-error channel at this BER on the trunk between two
    /// switches.
    Noisy((usize, usize), f64),
    /// Revert that trunk to the static channel.
    Reset((usize, usize)),
    Fail(usize),
    Drain(usize),
}

/// One pinned trial: a topology, a configuration, a workload size and the
/// faults to inject after the given slots.
struct Case {
    topology: FabricTopology,
    config: FabricConfig,
    messages: usize,
    faults: &'static [(u64, Fault)],
}

/// Runs `case` one slot at a time, injecting its faults between slots.
fn run<P: Probe>(case: &Case, probe: P) -> (FabricReport, P) {
    let t = &case.topology;
    let routing = RoutingTable::new(t);
    let workload = FabricWorkload::symmetric(t.session_count(), case.messages, 8, 0x44);
    let mut sim = FabricSim::with_probe(t, &routing, case.config, probe);
    sim.begin(&workload);
    let trunk = |(a, b): (usize, usize)| t.trunk_between(a, b).expect("trunk exists");
    while sim.step(1) == StepOutcome::Budget {
        let slot = sim.slot();
        for (_, fault) in case.faults.iter().filter(|(at, _)| *at == slot) {
            match *fault {
                Fault::Noisy(ends, ber) => {
                    sim.set_link_channel(trunk(ends), Box::new(ChannelErrorModel::random(ber)))
                }
                Fault::Reset(ends) => sim.reset_link_channel(trunk(ends)),
                Fault::Fail(sw) => sim.fail_switch(sw),
                Fault::Drain(sw) => sim.drain_switch(sw),
            }
        }
    }
    sim.finish_with_probe()
}

/// The report digest and the event digest of `case`, after checking that
/// it stalls on credit and that the probed trial equals the plain one.
fn digests(case: &Case) -> (FabricReport, u64, u64) {
    let (plain, _) = run(case, NullProbe);
    assert!(plain.credit_stalls > 0, "the case must stall on credit");
    let (probed, log) = run(case, EventLog::default());
    let text = format!("{plain:?}");
    assert_eq!(text, format!("{probed:?}"), "a probe changed the trial");
    (plain, crc(&text), crc(&log.0))
}

/// `ring(6, 2, 2)` at two VCs: dateline escape lanes, trunk-to-trunk hops
/// and both stall charges (endpoint stall register, per-port all-blocked).
fn ring_two_vcs() -> Case {
    Case {
        topology: FabricTopology::ring(6, 2, 2),
        config: FabricConfig {
            queue_capacity: 3,
            ..FabricConfig::new(ProtocolVariant::Rxl)
        }
        .with_channel(ChannelErrorModel::random(1e-4))
        .with_seed(0xE1)
        .with_vc_count(2),
        messages: 300,
        faults: &[],
    }
}

/// `torus(3, 3, 2)` at three VCs with minimal-adaptive routing: the
/// occupancy-ranked adaptive lane, the flowlet pins and the escape valve.
fn torus_adaptive() -> Case {
    Case {
        topology: FabricTopology::torus(3, 3, 2),
        config: FabricConfig {
            queue_capacity: 2,
            ..FabricConfig::new(ProtocolVariant::Rxl)
        }
        .with_channel(ChannelErrorModel::random(1e-4))
        .with_seed(0xE2)
        .with_vc_count(3)
        .with_adaptive(true),
        messages: 1_500,
        faults: &[],
    }
}

/// `leaf_spine(2, 3, 2)` under fault injection: a noisy uplink installed
/// and reset, a spine failed and another drained, mid-run.
fn leaf_spine_faults() -> Case {
    Case {
        topology: FabricTopology::leaf_spine(2, 3, 2),
        config: FabricConfig {
            queue_capacity: 2,
            ..FabricConfig::new(ProtocolVariant::Rxl)
        }
        .with_channel(ChannelErrorModel::random(3e-5))
        .with_seed(0xE3)
        .with_vc_count(2),
        messages: 400,
        faults: &[
            (20, Fault::Noisy((0, 3), 2e-3)),
            (45, Fault::Fail(2)),
            (70, Fault::Reset((0, 3))),
            (90, Fault::Drain(4)),
            (110, Fault::Noisy((1, 3), 5e-4)),
            (300, Fault::Reset((1, 3))),
        ],
    }
}

fn check(case: Case, golden: (u64, u64)) {
    let (report, r, e) = digests(&case);
    assert_eq!(
        (r, e),
        golden,
        "engine-path digests drifted: got (0x{r:016X}, 0x{e:016X}); {report:#?}"
    );
}

// Pinned on the engine before its per-node behaviour moved onto the nodes.
// Regenerate ONLY for a deliberate, documented change of simulation
// semantics, with `cargo test --test engine_path_digest -- --ignored
// --nocapture` (the `print_golden` helper below).
const GOLDEN_RING: (u64, u64) = (0x1DF0_C0BA_D366_FE01, 0x8891_EE75_DC0B_D9ED);
const GOLDEN_TORUS: (u64, u64) = (0x5DA8_B755_B8CE_5DD9, 0xAA29_99D6_BAAB_6567);
const GOLDEN_LEAF_SPINE: (u64, u64) = (0x2D9E_25C6_76B4_29C5, 0x12E8_E723_DD5D_C9CA);

#[test]
fn ring_at_two_vcs_matches_its_golden_digests() {
    check(ring_two_vcs(), GOLDEN_RING);
}

#[test]
fn adaptive_torus_at_three_vcs_matches_its_golden_digests() {
    check(torus_adaptive(), GOLDEN_TORUS);
}

#[test]
fn leaf_spine_under_mid_run_faults_matches_its_golden_digests() {
    check(leaf_spine_faults(), GOLDEN_LEAF_SPINE);
}

/// Prints the current golden values (run with `--nocapture --ignored`).
#[test]
#[ignore = "capture helper, not a regression test"]
fn print_golden() {
    for (name, case) in [
        ("RING", ring_two_vcs()),
        ("TORUS", torus_adaptive()),
        ("LEAF_SPINE", leaf_spine_faults()),
    ] {
        let (report, r, e) = digests(&case);
        println!(
            "{name}: (0x{r:016X}, 0x{e:016X}) credit_stalls {} blackholed {} drained {} slots {}",
            report.credit_stalls, report.blackholed_flits, report.drained, report.slots
        );
    }
}
