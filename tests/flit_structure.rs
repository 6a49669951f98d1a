//! E01 — structural integration test: the 256-byte flit layout of Fig. 3,
//! built from the real codecs across crates.

use rxl::crc::{catalog::FLIT_CRC64, Crc64, IsnCrc64};
use rxl::fec::InterleavedFec;
use rxl::flit::{CxlFlitCodec, Flit256, FlitHeader, MemOp, Message, RxlFlitCodec, WIRE_FLIT_LEN};

fn sample_flit() -> Flit256 {
    let mut flit = Flit256::new(FlitHeader::with_seq(9));
    flit.pack_messages(&[
        Message::request(MemOp::RdCurr, 0x40, 1, 1),
        Message::request(MemOp::RdOwn, 0x80, 2, 2),
    ])
    .unwrap();
    flit
}

#[test]
fn wire_flit_is_exactly_256_bytes_with_the_fig3_layout() {
    assert_eq!(WIRE_FLIT_LEN, 256);
    let codec = CxlFlitCodec::new();
    let flit = sample_flit();
    let wire = codec.encode(&flit);

    // Bytes 0..2: header.
    assert_eq!(&wire[..2], &flit.header.to_bytes());
    // Bytes 2..242: payload.
    assert_eq!(&wire[2..242], &flit.payload[..]);
    // Bytes 242..250: the 64-bit link CRC over header ‖ payload.
    let expected_crc = Crc64::flit().checksum(&wire[..242]);
    assert_eq!(&wire[242..250], &expected_crc.to_le_bytes());
    // Bytes 250..256: FEC parity — re-encoding the protected block must
    // reproduce them exactly.
    let fec = InterleavedFec::cxl_flit();
    let reencoded = fec.encode(&wire[..250]);
    assert_eq!(&wire[250..], &reencoded[250..]);
}

#[test]
fn rxl_wire_flit_shares_the_layout_but_binds_the_crc_to_the_sequence() {
    let codec = RxlFlitCodec::new();
    let flit = sample_flit();
    let wire = codec.encode(&flit, 77);

    assert_eq!(&wire[..2], &flit.header.to_bytes());
    assert_eq!(&wire[2..242], &flit.payload[..]);
    let stored_crc = u64::from_le_bytes(wire[242..250].try_into().unwrap());
    let isn = IsnCrc64::new(FLIT_CRC64);
    assert_eq!(
        stored_crc,
        isn.encode(&flit.header.to_bytes(), &flit.payload, 77)
    );
    assert_ne!(stored_crc, Crc64::flit().checksum(&wire[..242]));
}

#[test]
fn fec_geometry_matches_the_paper_83_83_84_plus_2() {
    let fec = InterleavedFec::cxl_flit();
    let mut lens = fec.way_data_lens();
    lens.sort_unstable();
    assert_eq!(lens, vec![83, 83, 84]);
    assert_eq!(fec.parity_len(), 6);
    assert_eq!(fec.encoded_len(), 256);
}

#[test]
fn flit_redundancy_is_5_5_percent_of_the_flit() {
    // 14 bytes of CRC + FEC per 256-byte flit (Section 4.1).
    let redundancy = 8 + 6;
    let fraction = redundancy as f64 / 256.0;
    assert!((fraction - 0.0546875).abs() < 1e-9);
}
