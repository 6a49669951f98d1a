//! The wire codec for 256-byte flits: one pipeline for RXL and the CXL
//! baseline.
//!
//! Both protocols share the wire geometry of Fig. 3 / Section 6.2 of the
//! paper: `2B header ‖ 240B payload ‖ 8B CRC`, protected by a 6-byte 3-way
//! interleaved FEC for a total of 256 bytes. They differ only in the
//! sequence number the CRC is bound to:
//!
//! * **RXL** ([`RxlFlitCodec`]) — the CRC is a transport-layer ECRC with the
//!   Implicit Sequence Number folded in, so the header FSN field is free to
//!   carry acknowledgements (or zeros) at all times, yet every flit remains
//!   bound to its position in the stream.
//! * **CXL baseline** ([`CxlFlitCodec`]) — the CRC is a link-layer check over
//!   `header ‖ payload` only; sequence tracking relies on the explicit FSN
//!   header field, which is unavailable whenever the flit piggybacks an ACK.
//!   Folding sequence 0 is a no-op (`rxl-crc`'s ISN docs), so this is the
//!   RXL codec bound to sequence 0, and it puts the same bytes on the wire.
//!
//! Encode and decode each run the CRC once over `header ‖ payload` and XOR
//! one table entry onto it; a decode reads the block in place, without
//! re-serialising the header or copying the payload first. It reports the
//! [`FlitDecode::residue`], the received CRC XOR the plain CRC of the
//! received block, which is `delta(s)` for an intact flit bound to sequence
//! `s` whatever sequence the decode expected, so [`RxlFlitCodec::seq_of`]
//! reads `s` back from it.

use rxl_crc::catalog::FLIT_CRC64;
use rxl_crc::isn::{IsnCrc64, BLOCK_LEN};
use rxl_fec::{FlitFecResult, InterleavedFec};

use crate::flit256::{Flit256, FLIT_CRC_LEN, FLIT_HEADER_LEN, FLIT_TOTAL_LEN};
use crate::header::FlitHeader;

/// Total bytes of a wire flit.
pub const WIRE_FLIT_LEN: usize = FLIT_TOTAL_LEN;

/// A fully encoded 256-byte flit as it travels over a link.
pub type WireFlit = [u8; WIRE_FLIT_LEN];

const FEC_DATA_LEN: usize = BLOCK_LEN + FLIT_CRC_LEN; // 250

/// Result of decoding a wire flit.
#[derive(Clone, Debug)]
pub struct FlitDecode {
    /// Outcome of the link-layer FEC stage.
    pub fec: FlitFecResult,
    /// Whether the CRC matched the sequence number the decode was bound to.
    pub crc_ok: bool,
    /// The recovered flit (present whenever the FEC accepted the block).
    pub flit: Option<Flit256>,
    /// The received CRC XOR the plain CRC of the received `header ‖ payload`
    /// block: `delta(s)` for an intact flit bound to sequence `s`, so zero
    /// for a CXL flit or an RXL control flit. Zero when the FEC rejected the
    /// block.
    pub residue: u64,
}

impl FlitDecode {
    /// `true` if the receiver would accept this flit: the FEC accepted it
    /// *and* its CRC matched the sequence number the decode was bound to.
    pub fn accepted(&self) -> bool {
        self.fec.accepted() && self.crc_ok
    }
}

/// The flit codec: the ISN CRC bound to a sequence number, then the
/// link-layer FEC.
#[derive(Clone, Debug)]
pub struct RxlFlitCodec {
    isn: IsnCrc64,
    fec: InterleavedFec,
}

impl Default for RxlFlitCodec {
    fn default() -> Self {
        Self::new()
    }
}

impl RxlFlitCodec {
    /// Creates the codec with the flit CRC-64 and the CXL FEC geometry.
    pub fn new() -> Self {
        RxlFlitCodec {
            isn: IsnCrc64::new(FLIT_CRC64),
            fec: InterleavedFec::cxl_flit(),
        }
    }

    /// What binding a flit to `seq` XORs onto its plain CRC (zero at
    /// sequence 0): the residue an intact flit bound to `seq` decodes to.
    pub fn delta(&self, seq: u16) -> u64 {
        self.isn.delta(seq)
    }

    /// The sequence number a decoded flit's [`FlitDecode::residue`] names:
    /// the one an intact flit was bound to, `None` for a residue no
    /// sequence produces (a corrupted flit's, up to a `2^-64`-per-entry
    /// accident). Inverts [`Self::delta`].
    pub fn seq_of(&self, residue: u64) -> Option<u16> {
        self.isn.seq_of(residue)
    }

    /// Encodes a flit bound to sequence number `seq`. Allocation-free: the
    /// protected block is assembled directly in the wire image and the FEC
    /// parity is computed in place.
    pub fn encode(&self, flit: &Flit256, seq: u16) -> WireFlit {
        let header = flit.header.to_bytes();
        let crc = self.isn.encode(&header, &flit.payload, seq);
        let mut wire = [0u8; WIRE_FLIT_LEN];
        wire[..FLIT_HEADER_LEN].copy_from_slice(&header);
        wire[FLIT_HEADER_LEN..BLOCK_LEN].copy_from_slice(&flit.payload);
        wire[BLOCK_LEN..FEC_DATA_LEN].copy_from_slice(&crc.to_le_bytes());
        self.fec.encode_into(&mut wire);
        wire
    }

    /// Decodes a wire flit: FEC first, then the CRC checked against
    /// `expected_seq`.
    pub fn decode(&self, wire: &WireFlit, expected_seq: u16) -> FlitDecode {
        let mut block = *wire;
        let fec = self.fec.decode(&mut block);
        if !fec.accepted() {
            return FlitDecode {
                fec,
                crc_ok: false,
                flit: None,
                residue: 0,
            };
        }
        let crc = u64::from_le_bytes(block[BLOCK_LEN..FEC_DATA_LEN].try_into().expect("8 bytes"));
        let protected = block.first_chunk().expect("a wire flit holds the block");
        let residue = self.isn.residue(protected, crc);
        let header = FlitHeader::from_bytes([block[0], block[1]]);
        let payload = block[FLIT_HEADER_LEN..BLOCK_LEN]
            .try_into()
            .expect("240 bytes");
        FlitDecode {
            fec,
            crc_ok: residue == self.isn.delta(expected_seq),
            flit: Some(Flit256::with_payload(header, payload)),
            residue,
        }
    }
}

/// The CXL-baseline flit codec: [`RxlFlitCodec`] bound to sequence 0, whose
/// CRC is the plain link CRC over `header ‖ payload`.
#[derive(Clone, Debug, Default)]
pub struct CxlFlitCodec(RxlFlitCodec);

impl CxlFlitCodec {
    /// Creates the codec with the flit CRC-64 and the CXL FEC geometry.
    pub fn new() -> Self {
        CxlFlitCodec(RxlFlitCodec::new())
    }

    /// Encodes a flit into its 256-byte wire form.
    pub fn encode(&self, flit: &Flit256) -> WireFlit {
        self.0.encode(flit, 0)
    }

    /// Decodes a wire flit: FEC first, then the link-layer CRC.
    pub fn decode(&self, wire: &WireFlit) -> FlitDecode {
        self.0.decode(wire, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit256::FLIT_PAYLOAD_LEN;
    use crate::header::ReplayCmd;
    use crate::message::{MemOp, Message};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_flit(seed: u8) -> Flit256 {
        let mut flit = Flit256::new(FlitHeader::with_seq(seed as u16));
        flit.pack_messages(&[
            Message::request(MemOp::RdCurr, 0x40 * seed as u64, 1, seed as u16),
            Message::response_ok(1, seed as u16),
        ])
        .unwrap();
        flit
    }

    #[test]
    fn cxl_round_trip_clean() {
        let codec = CxlFlitCodec::new();
        let flit = sample_flit(3);
        let wire = codec.encode(&flit);
        let out = codec.decode(&wire);
        assert!(out.accepted());
        assert_eq!(out.flit.unwrap(), flit);
    }

    #[test]
    fn rxl_round_trip_clean() {
        let codec = RxlFlitCodec::new();
        let flit = sample_flit(4);
        let wire = codec.encode(&flit, 12);
        let out = codec.decode(&wire, 12);
        assert!(out.accepted());
        assert_eq!(out.flit.unwrap(), flit);
    }

    #[test]
    fn rxl_detects_sequence_mismatch_cxl_does_not() {
        // The heart of the paper: after a silent drop, the next flit arrives
        // with a sequence the receiver does not expect. RXL notices via the
        // ECRC; baseline CXL (when the flit piggybacks an ACK) has no way to
        // tell and accepts it.
        let rxl = RxlFlitCodec::new();
        let cxl = CxlFlitCodec::new();

        let mut flit = sample_flit(5);
        flit.header = FlitHeader::ack(100); // piggybacking: no own FSN visible

        let rxl_wire = rxl.encode(&flit, 2);
        let cxl_wire = cxl.encode(&flit);

        // Receiver expected sequence 1 (flit 1 was dropped).
        assert!(!rxl.decode(&rxl_wire, 1).accepted());
        assert!(rxl.decode(&rxl_wire, 2).accepted());
        // CXL's check has no sequence component at all.
        let cxl_out = cxl.decode(&cxl_wire);
        assert!(cxl_out.accepted());
        assert_eq!(cxl_out.flit.unwrap().header.replay_cmd, ReplayCmd::Ack);
    }

    #[test]
    fn three_byte_bursts_are_transparent_to_both_codecs() {
        let mut rng = StdRng::seed_from_u64(9);
        let cxl = CxlFlitCodec::new();
        let rxl = RxlFlitCodec::new();
        let flit = sample_flit(6);
        let cxl_wire = cxl.encode(&flit);
        let rxl_wire = rxl.encode(&flit, 900);
        for _ in 0..20 {
            let start = rng.random_range(0usize..253);
            let mut w1 = cxl_wire;
            let mut w2 = rxl_wire;
            for i in 0..3 {
                let flip: u8 = rng.random_range(1..=255);
                w1[start + i] ^= flip;
                w2[start + i] ^= flip;
            }
            assert!(cxl.decode(&w1).accepted());
            let out = rxl.decode(&w2, 900);
            assert!(out.accepted());
            assert_eq!(out.flit.unwrap(), flit);
        }
    }

    #[test]
    fn uncorrectable_fec_is_reported_and_flit_withheld() {
        let cxl = CxlFlitCodec::new();
        let flit = sample_flit(7);
        let mut wire = cxl.encode(&flit);
        // Two equal-magnitude errors in the same FEC way (positions 0 and 3).
        wire[0] ^= 0x77;
        wire[3] ^= 0x77;
        let out = cxl.decode(&wire);
        assert!(!out.accepted());
        assert!(out.flit.is_none());
        assert!(!out.fec.accepted());
    }

    #[test]
    fn corruption_that_slips_past_fec_is_caught_by_the_crc() {
        // Simulate corruption *inside a switch*, i.e. applied to the protected
        // block before FEC re-encoding, so the FEC cannot see it. Only the
        // (E)CRC can. We model it by re-encoding a tampered flit without
        // updating the CRC: impossible to do through the public API, so build
        // the wire image manually.
        let rxl = RxlFlitCodec::new();
        let flit = sample_flit(8);
        let wire = rxl.encode(&flit, 33);
        // Decode the FEC layer, flip a payload bit, re-encode the FEC layer
        // (exactly what a corrupting switch would do).
        let fec = InterleavedFec::cxl_flit();
        let mut block = wire.to_vec();
        let res = fec.decode(&mut block);
        assert!(res.accepted());
        block[10] ^= 0x01; // corrupt payload inside the "switch"
        let reencoded = fec.encode(&block[..FEC_DATA_LEN]);
        let mut tampered = [0u8; WIRE_FLIT_LEN];
        tampered.copy_from_slice(&reencoded);

        let out = rxl.decode(&tampered, 33);
        assert!(
            out.fec.accepted(),
            "FEC cannot see switch-internal corruption"
        );
        assert!(!out.crc_ok, "the end-to-end CRC must catch it");
        assert!(!out.accepted());
    }

    #[test]
    fn cxl_crc_failure_is_distinguished_from_fec_failure() {
        let cxl = CxlFlitCodec::new();
        let flit = sample_flit(9);
        let wire = cxl.encode(&flit);
        let fec = InterleavedFec::cxl_flit();
        let mut block = wire.to_vec();
        assert!(fec.decode(&mut block).accepted());
        block[50] ^= 0x80;
        let reencoded = fec.encode(&block[..FEC_DATA_LEN]);
        let mut tampered = [0u8; WIRE_FLIT_LEN];
        tampered.copy_from_slice(&reencoded);
        let out = cxl.decode(&tampered);
        assert!(out.fec.accepted());
        assert!(!out.crc_ok);
        assert!(!out.accepted());
        // The flit is still surfaced for diagnostics even though it fails CRC.
        assert!(out.flit.is_some());
    }

    #[test]
    fn header_bits_the_parser_ignores_are_still_checked() {
        // `FlitHeader::from_bytes` reads type values 4–15 as `Protocol`, so a
        // flip of the type field's top bit behind the FEC leaves the parsed
        // header unchanged. The CRC covers the received bytes, not their
        // re-serialisation, so it still fails.
        let cxl = CxlFlitCodec::new();
        let flit = sample_flit(11);
        let fec = InterleavedFec::cxl_flit();
        let mut block = cxl.encode(&flit).to_vec();
        assert!(fec.decode(&mut block).accepted());
        block[1] ^= 0x80;
        let mut tampered = [0u8; WIRE_FLIT_LEN];
        tampered.copy_from_slice(&fec.encode(&block[..FEC_DATA_LEN]));
        let out = cxl.decode(&tampered);
        assert_eq!(out.flit.unwrap().header, flit.header);
        assert!(!out.crc_ok);
    }

    #[test]
    fn rxl_sequence_space_wraps_at_ten_bits() {
        let rxl = RxlFlitCodec::new();
        let flit = sample_flit(10);
        let wire = rxl.encode(&flit, 1024 + 5);
        assert!(rxl.decode(&wire, 5).accepted());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn rxl_round_trips_any_payload_and_sequence(
                payload in proptest::collection::vec(any::<u8>(), FLIT_PAYLOAD_LEN),
                seq in 0u16..1024,
                ack in 0u16..1024,
            ) {
                let codec = RxlFlitCodec::new();
                let mut arr = [0u8; FLIT_PAYLOAD_LEN];
                arr.copy_from_slice(&payload);
                let flit = Flit256::with_payload(FlitHeader::ack(ack), arr);
                let wire = codec.encode(&flit, seq);
                let out = codec.decode(&wire, seq);
                prop_assert!(out.accepted());
                prop_assert_eq!(out.flit.unwrap(), flit);
            }

            #[test]
            fn cxl_encode_is_rxl_encode_at_sequence_zero(
                payload in any::<[u8; FLIT_PAYLOAD_LEN]>(),
                header in any::<[u8; 2]>(),
            ) {
                let flit = Flit256::with_payload(FlitHeader::from_bytes(header), payload);
                let cxl = CxlFlitCodec::new().encode(&flit);
                prop_assert_eq!(&cxl[..], &RxlFlitCodec::new().encode(&flit, 0)[..]);
            }

            #[test]
            fn cxl_round_trips_any_payload(
                payload in proptest::collection::vec(any::<u8>(), FLIT_PAYLOAD_LEN),
                seq in 0u16..1024,
            ) {
                let codec = CxlFlitCodec::new();
                let mut arr = [0u8; FLIT_PAYLOAD_LEN];
                arr.copy_from_slice(&payload);
                let flit = Flit256::with_payload(FlitHeader::with_seq(seq), arr);
                let wire = codec.encode(&flit);
                let out = codec.decode(&wire);
                prop_assert!(out.accepted());
                prop_assert_eq!(out.flit.unwrap(), flit);
            }
        }
    }
}
