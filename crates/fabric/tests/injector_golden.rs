//! The per-endpoint injector feeds each transmitter a flit's worth at a time
//! from the shared stream instead of enqueueing the whole workload at
//! `begin`. That must be invisible: every report below is pinned — as the
//! FNV-1a digest of its `Debug` text — to what the engine produced when it
//! still copied every stream into `LinkTx::pending_msgs` up front (the
//! parent of the change that introduced the injector), for stream lengths
//! around the flit boundary (`MESSAGES_PER_FLIT` = 15) and for a full-size
//! stream, greedy and paced, stepped in one call or paused and resumed
//! mid-feed, drained or cut at a horizon before the feed is exhausted.

use rxl_fabric::{
    FabricConfig, FabricReport, FabricSim, FabricTopology, FabricWorkload, RoutingTable,
    StepOutcome,
};
use rxl_link::{ChannelErrorModel, ProtocolVariant};

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(report: &FabricReport) -> u64 {
    fnv1a(&format!("{report:?}"))
}

fn config(variant: ProtocolVariant, offered_load: Option<f64>) -> FabricConfig {
    FabricConfig {
        offered_load,
        ..FabricConfig::new(variant)
            .with_channel(ChannelErrorModel::random(3e-5))
            .with_seed(0x1B)
    }
}

/// One trial on `leaf_spine(2, 2, 2)` (4 sessions) with `messages` per
/// stream per direction, advanced `budget` slots per `step` call.
fn trial(
    variant: ProtocolVariant,
    offered_load: Option<f64>,
    messages: usize,
    budget: u64,
) -> FabricReport {
    let topology = FabricTopology::leaf_spine(2, 2, 2);
    let routing = RoutingTable::new(&topology);
    let workload = FabricWorkload::symmetric(topology.session_count(), messages, 8, 0xFEED);
    let mut sim = FabricSim::new(&topology, &routing, config(variant, offered_load));
    sim.begin(&workload);
    while sim.step(budget) == StepOutcome::Budget {}
    sim.finish()
}

/// `(messages, greedy RXL, greedy CXL, 0.3-load RXL)` digests, recorded at
/// the parent commit. (Up to two flits per stream the three agree: nothing
/// is corrupted, and the delayed-ACK flush, not the second flit, ends the
/// trial.) The paced 15 000-message RXL digest was re-pinned once, from
/// `0x8184ec53bfbdbc14`, when the RXL receiver began discarding a duplicate
/// that is behind its expectation with a re-ACK instead of a NACK; the
/// other columns did not move.
const PINNED: [(usize, u64, u64, u64); 6] = [
    (
        0,
        0xd87d01b01bdb417d,
        0xd87d01b01bdb417d,
        0xd87d01b01bdb417d,
    ),
    (
        1,
        0x22dbcb4c7b388211,
        0x22dbcb4c7b388211,
        0x22dbcb4c7b388211,
    ),
    (
        14,
        0x5bef44022c331137,
        0x5bef44022c331137,
        0x5bef44022c331137,
    ),
    (
        15,
        0x820aa403cf5ba111,
        0x820aa403cf5ba111,
        0x820aa403cf5ba111,
    ),
    (
        16,
        0x7e3699017bbe162b,
        0x7e3699017bbe162b,
        0x7e3699017bbe162b,
    ),
    (
        15_000,
        0xec9e7c3b005418de,
        0xa33b002640576368,
        0xa8811690d6bcc1fe,
    ),
];

#[test]
fn reports_match_the_enqueue_everything_engine_at_every_stream_length() {
    for (messages, rxl, cxl, paced) in PINNED {
        let got = (
            messages,
            digest(&trial(ProtocolVariant::Rxl, None, messages, u64::MAX)),
            digest(&trial(
                ProtocolVariant::CxlPiggyback,
                None,
                messages,
                u64::MAX,
            )),
            digest(&trial(ProtocolVariant::Rxl, Some(0.3), messages, u64::MAX)),
        );
        assert_eq!(got, (messages, rxl, cxl, paced), "{messages} messages");
    }
}

/// The chaos runner's epoch stepping: pausing after every slot, or every
/// seventh, lands mid-feed thousands of times and must change nothing.
#[test]
fn pausing_and_resuming_mid_feed_changes_nothing() {
    for (messages, rxl, _, paced) in PINNED {
        if messages == 15_000 {
            // Budget 1 over a full-size stream is slow in debug builds; the
            // boundary lengths and the budget-7 run below cover it.
            assert_eq!(digest(&trial(ProtocolVariant::Rxl, None, messages, 7)), rxl);
            continue;
        }
        for budget in [1, 7] {
            assert_eq!(
                digest(&trial(ProtocolVariant::Rxl, None, messages, budget)),
                rxl,
                "{messages} messages, budget {budget}"
            );
            assert_eq!(
                digest(&trial(ProtocolVariant::Rxl, Some(0.3), messages, budget)),
                paced,
                "{messages} messages paced, budget {budget}"
            );
        }
    }
}

/// `(greedy, 0.3-load)` digests of a 15 000-message trial cut at slot 300,
/// recorded at the parent commit.
const PINNED_HORIZON: (u64, u64) = (0x490e70ecee48f170, 0xd47af42043c6d248);

#[test]
fn a_horizon_cut_before_the_feed_is_exhausted_reports_undrained() {
    let topology = FabricTopology::leaf_spine(2, 2, 2);
    let routing = RoutingTable::new(&topology);
    let workload = FabricWorkload::symmetric(topology.session_count(), 15_000, 8, 0xFEED);
    let cut = |offered_load| {
        let mut sim = FabricSim::new(
            &topology,
            &routing,
            config(ProtocolVariant::Rxl, offered_load),
        );
        sim.begin(&workload);
        assert_eq!(sim.run_to_horizon(300), StepOutcome::Horizon);
        let report = sim.finish();
        assert!(!report.drained);
        assert_eq!(report.slots, 300);
        // At most one flit per slot per endpoint left the feed.
        assert!(report.links.flits_sent <= 300 * topology.endpoints.len() as u64);
        let lost = report.total_failures().lost_messages;
        assert!(lost > 0 && lost < workload.total_messages() as u64);
        digest(&report)
    };
    let got = (cut(None), cut(Some(0.3)));
    assert_eq!(got, PINNED_HORIZON);
}
