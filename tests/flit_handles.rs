//! Write-once flits, end to end through the facade: one allocation per flit
//! shared from the transmitter's replay buffer to delivery, and a receive
//! that hands its messages back inline.

use std::rc::Rc;

use rxl::flit::{unpack_messages, MemOp, Message};
use rxl::link::{FlitRef, LinkConfig, LinkEndpoint, LinkRx, LinkTx, ProtocolVariant, TxEmission};
use rxl::sim::{PathSim, SimConfig};

fn requests(n: usize) -> Vec<Message> {
    (0..n)
        .map(|i| Message::request(MemOp::RdCurr, i as u64 * 64, (i % 4) as u16, i as u16))
        .collect()
}

/// Emits until idle, returning each protocol flit's `(seq, handle)`.
fn emit_all(tx: &mut LinkTx, now: f64) -> Vec<(u16, FlitRef)> {
    let mut out = Vec::new();
    while let TxEmission::Protocol { flit, seq, .. } = tx.emit(now) {
        out.push((seq, flit));
    }
    out
}

#[test]
fn a_dropped_flit_is_replayed_and_delivered_from_its_first_allocation() {
    let cfg = LinkConfig::cxl3_x16(ProtocolVariant::Rxl);
    let (mut a, mut b) = (LinkEndpoint::new(cfg), LinkEndpoint::new(cfg));
    let sent = requests(60);
    a.enqueue_messages(sent.iter().copied());
    let first = emit_all(a.tx_mut(), 2.0);
    assert_eq!(first.len(), 4);

    // Flit 1 is lost in flight; flit 2 arrives clean and exposes the gap.
    let mut delivered = Vec::new();
    delivered.extend_from_slice(&b.receive_trusted(&first[0].1, 0, 4.0).delivered);
    let gap = b.receive_trusted(&first[2].1, 2, 6.0);
    assert!(gap.rejected && gap.delivered.is_empty());
    let TxEmission::Nack { last_good, .. } = b.emit(8.0) else {
        panic!("the receiver must NACK the gap");
    };
    assert_eq!(last_good, 0);

    // The go-back-N replay re-emits the very flits first sent — same
    // allocation, no copy — and the receiver takes them in order.
    a.tx_mut().handle_peer_nack(last_good, 10.0);
    for expected in 1..4u16 {
        let TxEmission::Protocol {
            flit,
            seq,
            retransmission: true,
        } = a.emit(12.0)
        else {
            panic!("expected the replay of flit {expected}");
        };
        assert_eq!(seq, expected);
        assert!(Rc::ptr_eq(&flit, &first[seq as usize].1));
        delivered.extend_from_slice(&b.receive_trusted(&flit, seq, 14.0).delivered);
    }
    assert_eq!(delivered, sent);
}

#[test]
fn releasing_the_replay_buffer_frees_a_delivered_flit() {
    let mut tx = LinkTx::new(LinkConfig::cxl3_x16(ProtocolVariant::Rxl));
    tx.enqueue_messages(requests(30));
    let flits = emit_all(&mut tx, 2.0);
    // In flight: the emission's handle plus the replay buffer's.
    assert!(flits.iter().all(|(_, f)| Rc::strong_count(f) == 2));
    tx.handle_peer_ack(0, 4.0);
    assert_eq!(Rc::strong_count(&flits[0].1), 1, "ACKed: only ours is left");
    assert_eq!(Rc::strong_count(&flits[1].1), 2, "still awaiting its ACK");
}

#[test]
fn decoded_and_trusted_receives_deliver_the_same_inline_messages() {
    for variant in [
        ProtocolVariant::CxlPiggyback,
        ProtocolVariant::CxlStandaloneAck,
        ProtocolVariant::Rxl,
    ] {
        let cfg = LinkConfig::cxl3_x16(variant);
        let mut tx = LinkTx::new(cfg);
        let (mut decoded, mut trusted) = (LinkRx::new(cfg), LinkRx::new(cfg));
        // A full flit, then a partial one.
        tx.enqueue_messages(requests(22));
        for _ in 0..2 {
            let emission = tx.emit(2.0);
            let wire = tx.encode_emission(&emission).expect("protocol flit");
            let (flit, seq) = emission.clone().into_flit().expect("protocol flit");
            let by_wire = decoded.receive(&wire);
            let by_handle = trusted.receive_trusted(&flit, seq);
            assert!(by_wire.accepted && by_handle.accepted, "{variant:?}");
            assert_eq!(&by_wire.delivered[..], &by_handle.delivered[..]);
            assert_eq!(
                by_handle.delivered.to_vec(),
                unpack_messages(&flit.payload).unwrap()
            );
            assert_eq!(
                by_handle.delivered.iter().count(),
                by_handle.delivered.len()
            );
        }
        assert_eq!(decoded.expected_seq(), trusted.expected_seq());
    }
}

#[test]
fn a_noisy_path_still_delivers_every_message_exactly_once_in_order() {
    // PathSim encodes, corrupts and decodes every flit, so every replay here
    // goes through the shared-handle retransmit queue.
    let config = SimConfig::new(ProtocolVariant::Rxl, 2)
        .with_channel(rxl::link::ChannelErrorModel::random(4e-4));
    let down = requests(3_000);
    let up: Vec<Message> = (0..1_500)
        .map(|i| Message::response_ok(1, i as u16))
        .collect();
    let report = PathSim::new(config).run(&down, &up);
    assert!(report.drained);
    assert!(
        report.host_link.flits_retransmitted + report.device_link.flits_retransmitted > 0,
        "the channel must have forced at least one replay"
    );
    assert!(report.downstream.is_clean(), "{:?}", report.downstream);
    assert!(report.upstream.is_clean(), "{:?}", report.upstream);
    assert_eq!(report.downstream.clean_deliveries, 3_000);
    assert_eq!(report.upstream.clean_deliveries, 1_500);
}
