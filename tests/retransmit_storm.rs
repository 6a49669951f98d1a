//! A perfect link retransmits (almost) nothing.
//!
//! On an error-free `leaf_spine(4, 2, 4)` pod every RXL retransmission is
//! spurious. The transmitter's 4 µs watchdog still fires when an endpoint
//! sat on unacknowledged flits through a long injection stall, and replays
//! its whole window. Those replayed flits arrive *behind* the receiver's
//! expectation. A receiver that cannot tell a duplicate from a drop NACKs
//! them, the NACK's go-back-N rewinds over flits still in flight, and those
//! arrive as duplicates in turn: a self-sustaining storm that retransmitted
//! half of all first sends on this pod.
//!
//! The RXL receiver reads the sender's sequence number from the ISN CRC
//! residue, discards a duplicate without a NACK and re-ACKs it. What is
//! left are the watchdog fires themselves, about 1 % of first sends.

use rxl::fabric::{FabricConfig, FabricMonteCarlo, FabricTopology, FabricWorkload};
use rxl::link::{ChannelErrorModel, ProtocolVariant};

#[test]
fn an_ideal_rxl_pod_sends_no_nack_and_retransmits_at_most_two_percent() {
    let topology = FabricTopology::leaf_spine(4, 2, 4);
    let sessions = topology.session_count();
    let config = FabricConfig::new(ProtocolVariant::Rxl).with_channel(ChannelErrorModel::ideal());
    let workload = FabricWorkload::symmetric(sessions, 15_000, 8, 0x52584C);
    let report = FabricMonteCarlo::new(topology, config, 2).run(&workload);

    assert_eq!(report.drained_trials, 2, "every trial drains");
    assert!(report.failures.is_clean(), "{:?}", report.failures);
    assert_eq!(report.protocol_flit_drops, 0, "the channel is ideal");

    let links = &report.links;
    assert_eq!(links.nacks_sent, 0, "a perfect link never NACKs");
    assert_eq!(links.ecrc_rejections, 0);
    let share = links.flits_retransmitted as f64 / links.flits_sent as f64;
    assert!(
        share <= 0.02,
        "{} retransmissions for {} first sends ({:.1} %)",
        links.flits_retransmitted,
        links.flits_sent,
        share * 100.0
    );
}
