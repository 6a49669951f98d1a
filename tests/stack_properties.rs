//! Property-based integration tests on the link guarantees the paper is
//! about, driven through the transmitter and receiver every simulator runs
//! (`LinkTx` / `LinkRx` / `LinkEndpoint`).

use proptest::prelude::*;

use rxl::flit::{Message, WireFlit, MESSAGES_PER_FLIT};
use rxl::link::{LinkConfig, LinkEndpoint, LinkRx, LinkTx, ProtocolVariant, TxEmission};

fn link(variant: ProtocolVariant) -> (LinkTx, LinkRx) {
    let config = LinkConfig::cxl3_x16(variant);
    (LinkTx::new(config), LinkRx::new(config))
}

/// Up to one flit of data messages whose bytes repeat `seed`, so the flit
/// payload carries arbitrary contents.
fn data_messages(seed: &[u8], tag: u16) -> Vec<Message> {
    let count = 1 + seed.len() % MESSAGES_PER_FLIT;
    (0..count)
        .map(|i| {
            let bytes = std::array::from_fn(|b| seed[(8 * i + b) % seed.len()]);
            Message::data(i as u16, tag, i as u8, bytes)
        })
        .collect()
}

/// Emits one new protocol flit carrying `msgs`, piggybacking `ack` if the
/// variant allows it, and returns its wire image.
fn send(tx: &mut LinkTx, msgs: &[Message], ack: Option<u16>) -> WireFlit {
    tx.enqueue_messages(msgs.iter().copied());
    if let Some(ack) = ack {
        tx.queue_ack(ack);
    }
    let emission = tx.emit(0.0);
    assert!(
        matches!(
            emission,
            TxEmission::Protocol {
                retransmission: false,
                ..
            }
        ),
        "expected a new protocol flit, got {emission:?}"
    );
    tx.encode_emission(&emission).expect("a protocol flit")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Delivering the sender's flits in order always succeeds, regardless of
    /// payload contents or piggybacked ACK values.
    #[test]
    fn rxl_in_order_delivery_always_succeeds(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..32), 1..20),
        acks in proptest::collection::vec(0u16..1024, 1..20),
    ) {
        let (mut tx, mut rx) = link(ProtocolVariant::Rxl);
        for (i, p) in payloads.iter().enumerate() {
            let ack = acks[i % acks.len()];
            let msgs = data_messages(p, i as u16);
            let out = rx.receive(&send(&mut tx, &msgs, Some(ack)));
            prop_assert!(out.accepted && out.sequence_checked);
            prop_assert_eq!(&out.delivered[..], &msgs[..]);
            prop_assert_eq!(out.peer_ack, Some(ack));
        }
        prop_assert_eq!(rx.stats().flits_rejected, 0);
        prop_assert_eq!(rx.expected_seq() as usize, payloads.len());
    }

    /// Dropping any single flit from a stream makes the very next flit fail
    /// verification under RXL — no matter where the drop happens — and the
    /// receiver NACKs back to the flit before the drop.
    #[test]
    fn rxl_any_single_drop_is_detected_on_the_next_flit(
        n_flits in 2usize..20,
        drop_index in 0usize..19,
        seed in any::<u8>(),
    ) {
        let drop_index = drop_index % (n_flits - 1); // never drop the last flit
        let (mut tx, mut rx) = link(ProtocolVariant::Rxl);
        let mut outcome_after_drop = None;
        for i in 0..n_flits {
            let wire = send(&mut tx, &data_messages(&[seed, i as u8], i as u16), Some(0));
            if i == drop_index {
                continue; // silently dropped
            }
            let out = rx.receive(&wire);
            if i < drop_index {
                prop_assert!(out.accepted);
            } else if outcome_after_drop.is_none() {
                outcome_after_drop = Some(out);
            }
        }
        let out = outcome_after_drop.expect("a flit follows the drop");
        prop_assert!(out.rejected && !out.accepted && out.delivered.is_empty());
        prop_assert_eq!(out.send_nack, Some(drop_index.wrapping_sub(1) as u16 & 0x3FF));
        // Every later flit is rejected too, and the episode NACKs once.
        prop_assert_eq!(rx.stats().ecrc_rejections as usize, n_flits - 1 - drop_index);
        prop_assert_eq!(rx.stats().nacks_sent, 1);
        prop_assert_eq!(rx.expected_seq() as usize, drop_index);
    }

    /// Under baseline CXL the same drop goes unnoticed whenever the following
    /// flit piggybacks an ACK (and is therefore accepted).
    #[test]
    fn cxl_drop_followed_by_ack_flit_is_never_detected(
        tag in 0u16..100,
        ack in 0u16..1024,
    ) {
        let (mut tx, mut rx) = link(ProtocolVariant::CxlPiggyback);
        let first = [Message::data(0, tag, 0, [tag as u8; 8])];
        prop_assert!(rx.receive(&send(&mut tx, &first, None)).accepted);

        // Flit 1 is dropped.
        let _dropped = send(&mut tx, &[Message::response_ok(0, tag)], None);

        // Flit 2 piggybacks an ACK: baseline CXL accepts it blindly.
        let third = [Message::response_ok(0, tag.wrapping_add(1))];
        let out = rx.receive(&send(&mut tx, &third, Some(ack)));
        prop_assert!(out.accepted && !out.rejected && !out.sequence_checked);
        prop_assert_eq!(&out.delivered[..], &third[..]);
        prop_assert_eq!(out.peer_ack, Some(ack));
        prop_assert_eq!(rx.stats().unchecked_sequence_accepts, 1);
    }

    /// Single-bit corruption anywhere in the wire image never produces an
    /// accepted-but-wrong flit under RXL: it is either repaired bit-exactly
    /// by the FEC or rejected.
    #[test]
    fn rxl_single_bit_corruption_never_silently_corrupts(
        byte in 0usize..256,
        bit in 0u8..8,
        seed in any::<u8>(),
    ) {
        let (mut tx, mut rx) = link(ProtocolVariant::Rxl);
        let msgs = data_messages(&[seed, 0x5A], 3);
        tx.enqueue_messages(msgs.iter().copied());
        tx.queue_ack(3);
        let emission = tx.emit(0.0);
        let flit = emission.flit().expect("a protocol flit");
        let mut wire = tx.encode_emission(&emission).expect("a protocol flit");
        wire[byte] ^= 1 << bit;
        let out = rx.receive(&wire);
        prop_assert!(out.accepted != out.rejected);
        if out.accepted {
            prop_assert_eq!(out.delivered_header, Some(flit.header));
            prop_assert_eq!(&out.delivered[..], &msgs[..]);
        }
    }
}

/// A stream longer than the 10-bit sequence space crosses the wrap with
/// every flit accepted in order, and both counters land on `1030 mod 1024`.
#[test]
fn sequence_counters_wrap_cleanly() {
    let config = LinkConfig::cxl3_x16(ProtocolVariant::Rxl);
    let (mut host, mut device) = (LinkEndpoint::new(config), LinkEndpoint::new(config));
    let mut now = 0.0;
    for i in 0..1030u16 {
        now += 2.0;
        host.enqueue_messages([Message::response_ok(0, i)]);
        let emission = host.emit(now);
        assert!(matches!(emission, TxEmission::Protocol { .. }), "flit {i}");
        let wire = host.encode_emission(&emission).expect("a protocol flit");
        let out = device.receive(&wire, now);
        assert!(out.accepted && !out.rejected, "flit {i}");
        assert_eq!(out.delivered[0].tag(), i);
        // The device's ACKs keep the host's replay buffer from filling.
        let feedback = device.emit(now);
        if let Some(wire) = device.encode_emission(&feedback) {
            host.receive(&wire, now);
        }
    }
    assert_eq!(host.tx().next_seq(), 1030 % 1024);
    assert_eq!(device.rx().expected_seq(), 1030 % 1024);
    assert_eq!(device.rx().stats().flits_accepted, 1030);
    assert_eq!(device.rx().stats().flits_rejected, 0);
}
