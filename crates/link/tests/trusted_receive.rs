//! The known-clean fast path against the decode path: one `LinkTx` feeds two
//! `LinkRx`s the same emissions, one through
//! `receive(encode_emission(..))`, the other through
//! `receive_trusted(flit, seq)` with no wire bytes at all. The fabric engine
//! relies on the two being indistinguishable, so after every step they must
//! return the same `RxResult` and hold the same statistics, expected
//! sequence and replay state.
//!
//! Every wire image is also decoded on its own, and its CRC residue must
//! name the `tx_seq` the trusted receiver was handed: `D[tx_seq]` for an RXL
//! protocol flit, zero for a CXL flit or a control flit. That is the
//! property `LinkRx::receive_trusted` substitutes for the decode.
//!
//! Schedules are random per case and cover every protocol variant: drops of
//! k flits, go-back-N rewinds and watchdog replays that redeliver
//! duplicates (which RXL discards and re-ACKs, on both paths alike),
//! interleaved standalone ACK / NACK control flits, lost reverse-direction
//! feedback, and streams spanning more than three laps of the 10-bit
//! sequence space.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rxl_flit::{FlitType, MemOp, Message, RxlFlitCodec, WireFlit, MESSAGES_PER_FLIT};
use rxl_link::{
    seq_add, LinkConfig, LinkRx, LinkTx, ProtocolVariant, RxResult, TxEmission, SEQ_MASK, SEQ_SPACE,
};

const VARIANTS: [ProtocolVariant; 3] = [
    ProtocolVariant::CxlPiggyback,
    ProtocolVariant::CxlStandaloneAck,
    ProtocolVariant::Rxl,
];

/// New protocol flits each schedule sends: past the third wrap.
const LAPS_OF_FLITS: u64 = 3 * SEQ_SPACE as u64 + 64;

/// Steps after which a schedule gives up on reaching [`LAPS_OF_FLITS`].
const MAX_STEPS: usize = 40_000;

/// One transmitter, the two receivers under comparison, and the
/// reverse-direction feedback loop between them.
struct Harness {
    variant: ProtocolVariant,
    /// Decodes each wire image for its residue.
    codec: RxlFlitCodec,
    tx: LinkTx,
    decoded: LinkRx,
    trusted: LinkRx,
    now: f64,
    next_tag: u16,
    /// Receive results that rejected a flit, for the ledger check.
    rejections: u64,
    /// Rejections that discarded a duplicate behind the expectation and
    /// re-ACKed it instead of NACKing (RXL only).
    duplicates: u64,
    /// Control flits (standalone ACK, NACK) both receivers consumed.
    controls: u64,
    /// The next delivery's feedback (its ACK / NACK) is lost on the way
    /// back to the transmitter.
    lose_feedback: bool,
}

impl Harness {
    fn new(variant: ProtocolVariant) -> Self {
        let config = LinkConfig::cxl3_x16(variant);
        Harness {
            variant,
            codec: RxlFlitCodec::new(),
            tx: LinkTx::new(config),
            decoded: LinkRx::new(config),
            trusted: LinkRx::new(config),
            now: 0.0,
            next_tag: 0,
            rejections: 0,
            duplicates: 0,
            controls: 0,
            lose_feedback: false,
        }
    }

    /// Keeps between zero and two flits' worth of messages pending, so new
    /// flits carry 1–15 messages and the transmitter sometimes runs dry
    /// (which is when piggybacking variants send standalone ACKs).
    fn top_up(&mut self, rng: &mut StdRng) {
        if self.tx.backlog() < MESSAGES_PER_FLIT {
            let n = rng.random_range(0..=2 * MESSAGES_PER_FLIT);
            let msgs: Vec<Message> = (0..n)
                .map(|_| {
                    self.next_tag = self.next_tag.wrapping_add(1);
                    let tag = self.next_tag;
                    Message::request(MemOp::RdCurr, u64::from(tag) * 64, tag % 4, tag)
                })
                .collect();
            self.tx.enqueue_messages(msgs);
        }
    }

    /// Emits one transmit slot; the flit is delivered to both receivers
    /// unless `drop` loses it in flight.
    fn slot(&mut self, drop: bool) -> Result<(), TestCaseError> {
        self.now += 2.0;
        let emission = self.tx.emit(self.now);
        let (Some(flit), Some(seq)) = (emission.flit(), emission.bound_seq()) else {
            return Ok(());
        };
        if drop {
            return Ok(());
        }
        let wire = self
            .tx
            .encode_emission(&emission)
            .expect("non-idle emission");
        self.check_residue(&wire, flit.header.flit_type, seq)?;
        let by_wire = self.decoded.receive(&wire);
        let by_handle = self.trusted.receive_trusted(flit, seq);
        self.check(&by_wire, &by_handle)?;
        self.controls += u64::from(!matches!(emission, TxEmission::Protocol { .. }));

        if std::mem::take(&mut self.lose_feedback) {
            return Ok(());
        }
        if let Some(ack) = by_wire.send_ack {
            self.tx.handle_peer_ack(ack, self.now);
        }
        if let Some(last_good) = by_wire.send_nack {
            self.tx.handle_peer_nack(last_good, self.now);
        }
        Ok(())
    }

    /// The wire says what `receive_trusted` is told: an intact wire's
    /// residue is `D[tx_seq]` for an RXL protocol flit and zero otherwise.
    fn check_residue(
        &self,
        wire: &WireFlit,
        flit_type: FlitType,
        tx_seq: u16,
    ) -> Result<(), TestCaseError> {
        let decode = self.codec.decode(wire, tx_seq);
        prop_assert!(decode.fec.accepted() && decode.flit.is_some());
        let expected = if self.variant == ProtocolVariant::Rxl && flit_type == FlitType::Protocol {
            self.codec.delta(tx_seq)
        } else {
            0
        };
        prop_assert_eq!(
            decode.residue,
            expected,
            "{:?} {:?} tx_seq {}",
            self.variant,
            flit_type,
            tx_seq
        );
        Ok(())
    }

    fn check(&mut self, by_wire: &RxResult, by_handle: &RxResult) -> Result<(), TestCaseError> {
        prop_assert_eq!(format!("{by_wire:?}"), format!("{by_handle:?}"));
        prop_assert_eq!(self.decoded.stats(), self.trusted.stats());
        prop_assert_eq!(self.decoded.expected_seq(), self.trusted.expected_seq());
        prop_assert_eq!(
            self.decoded.awaiting_replay(),
            self.trusted.awaiting_replay()
        );

        // On a clean link every rejection is a sequence rejection, and each
        // one either sends the one NACK of its episode, is discarded while
        // the replay is on its way, or (RXL) is a duplicate behind the
        // expectation, discarded and re-ACKed without a NACK.
        self.rejections += u64::from(by_wire.rejected);
        if by_wire.rejected && by_wire.send_ack.is_some() {
            prop_assert_eq!(self.variant, ProtocolVariant::Rxl);
            prop_assert_eq!(by_wire.send_nack, None);
            prop_assert_eq!(
                by_wire.send_ack,
                Some(seq_add(self.decoded.expected_seq(), -1))
            );
            self.duplicates += 1;
        }
        let s = self.decoded.stats();
        prop_assert_eq!(
            s.flits_rejected,
            s.ecrc_rejections + s.explicit_sequence_mismatches
        );
        prop_assert_eq!(s.nacks_sent + s.flits_discarded_in_replay, self.rejections);
        Ok(())
    }

    /// One randomly drawn schedule step.
    fn step(&mut self, rng: &mut StdRng) -> Result<(), TestCaseError> {
        self.top_up(rng);
        match rng.random_range(0u32..20) {
            // Mostly: the next slot arrives.
            0..=12 => self.slot(false)?,
            // A burst of k consecutive slots is lost in flight.
            13 => {
                for _ in 0..rng.random_range(1..=4) {
                    self.slot(true)?;
                }
            }
            // A go-back-N rewind to a flit the receivers may already hold:
            // the replay redelivers duplicates.
            14 => {
                let window = self.tx.in_flight() as i32;
                let back = rng.random_range(1..=window + 1);
                self.tx
                    .handle_peer_nack(seq_add(self.tx.next_seq(), -back), self.now);
            }
            // The watchdog fires and replays everything unacknowledged.
            15 => self.now += self.tx.config().replay_timeout_ns + 2.0,
            // Control flits for the receivers to consume: a standalone ACK
            // (piggybacked instead when a protocol flit goes out first) and
            // a NACK.
            16 => self.tx.queue_ack(rng.random_range(0..SEQ_SPACE)),
            17 => self.tx.queue_nack(rng.random::<u16>() & SEQ_MASK),
            // The next delivery's ACK / NACK never makes it back.
            _ => self.lose_feedback = true,
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn trusted_receive_matches_decode_then_receive(seed in any::<u64>()) {
        for variant in VARIANTS {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut h = Harness::new(variant);
            let mut steps = 0;
            while h.tx.stats().flits_sent < LAPS_OF_FLITS && steps < MAX_STEPS {
                h.step(&mut rng)?;
                steps += 1;
            }
            prop_assert!(
                h.tx.stats().flits_sent >= LAPS_OF_FLITS,
                "{:?}: {} new flits in {} steps",
                variant,
                h.tx.stats().flits_sent,
                steps
            );
            // The schedule exercised every branch it is meant to cover.
            let s = h.decoded.stats();
            prop_assert!(s.nacks_sent > 0 && s.flits_discarded_in_replay > 0, "{:?}", s);
            prop_assert!(h.tx.stats().flits_retransmitted > 0 && h.controls > 0);
            // RXL reads the sender's sequence from the residue and
            // discarded at least one duplicate without a NACK.
            prop_assert_eq!(h.duplicates > 0, variant == ProtocolVariant::Rxl, "{:?}", variant);
        }
    }
}
