//! Quickstart: two RXL link endpoints, one silent drop, and the Implicit
//! Sequence Number catching it on the very next flit — then the go-back-N
//! replay that repairs it.
//!
//! Run with:
//! ```text
//! cargo run --example quickstart
//! ```

use rxl::flit::{MemOp, Message};
use rxl::link::{LinkConfig, LinkEndpoint, ProtocolVariant, TxEmission};

fn main() {
    // Both ends of one full-duplex RXL link. The host sends, the device
    // receives and answers with link-layer feedback on its own transmitter.
    let config = LinkConfig::cxl3_x16(ProtocolVariant::Rxl);
    let mut host = LinkEndpoint::new(config);
    let mut device = LinkEndpoint::new(config);
    let now = 0.0;

    // Three flits, each carrying one coherent read request. None of the
    // headers carries a sequence number: the FSN field is free to carry a
    // piggybacked acknowledgement (here, for imaginary upstream traffic). The
    // transmitter binds each flit to its sequence number by folding it into
    // the 64-bit CRC (ISN).
    let wires: Vec<_> = (0..3u16)
        .map(|i| {
            host.enqueue_messages([Message::request(
                MemOp::RdCurr,
                0x4000 + 64 * i as u64,
                0,
                i,
            )]);
            host.tx_mut().queue_ack(100 + i);
            let emission = host.emit(now);
            host.encode_emission(&emission).expect("a protocol flit")
        })
        .collect();
    println!(
        "host encoded {} flits (next sequence = {})",
        wires.len(),
        host.tx().next_seq()
    );

    // Flit 0 arrives intact.
    let mut delivered = Vec::new();
    let out = device.receive(&wires[0], now);
    println!("device received flit 0 carrying {:?}", out.delivered[0]);
    delivered.extend_from_slice(&out.delivered);

    // Flit 1 is silently dropped by a switch. When flit 2 arrives, the device
    // recomputes the CRC with its *expected* sequence number (1) and the
    // check fails — corruption and drops are indistinguishable and both
    // trigger a retry, which is exactly the paper's design point.
    let out = device.receive(&wires[2], now);
    assert!(out.rejected, "the ISN ECRC must expose the drop");
    let last_good = out.send_nack.expect("the first rejection NACKs");
    println!("flit 2 rejected: the ISN ECRC exposed the dropped flit; device NACKs after sequence {last_good}");

    // The device's transmitter carries the NACK back to the host, whose
    // transmitter goes back to the flit after the last good one.
    let nack = device.emit(now);
    let nack_wire = device.encode_emission(&nack).expect("a NACK flit");
    let feedback = host.receive(&nack_wire, now);
    let nacked = feedback
        .peer_nack
        .expect("the host's receiver takes the NACK");
    println!("host received the NACK (last good = {nacked}) and goes back");

    // The replay: the same flits, re-sent from the replay buffer, accepted in
    // order.
    loop {
        let emission = host.emit(now);
        let TxEmission::Protocol { seq, .. } = &emission else {
            break;
        };
        let wire = host.encode_emission(&emission).expect("a protocol flit");
        let out = device.receive(&wire, now);
        println!(
            "replayed flit {seq} delivered in order: {:?}",
            out.delivered[0]
        );
        delivered.extend_from_slice(&out.delivered);
    }
    let tags: Vec<u16> = delivered.iter().map(Message::tag).collect();
    assert_eq!(tags, [0, 1, 2], "every request exactly once, in order");

    let stats = device.rx().stats();
    println!(
        "device accepted {} flits, rejected {}, expected sequence is now {}",
        stats.flits_accepted,
        stats.flits_rejected,
        device.rx().expected_seq()
    );
}
