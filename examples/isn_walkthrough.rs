//! A layer-by-layer walkthrough of the RXL flit pipeline (Fig. 3, Fig. 6 and
//! Fig. 7 of the paper): message packing, ISN CRC, interleaved FEC, the
//! switch's link-layer view, and the endpoint's transport-layer view.
//!
//! Run with:
//! ```text
//! cargo run --example isn_walkthrough
//! ```

use rxl::crc::{catalog::FLIT_CRC64, IsnCrc64};
use rxl::fec::InterleavedFec;
use rxl::flit::{Flit256, FlitHeader, MemOp, Message, RxlFlitCodec};

fn main() {
    // ------------------------------------------------------------------
    // 1. Transaction layer: pack messages into a 240-byte payload.
    // ------------------------------------------------------------------
    let messages = vec![
        Message::request(MemOp::RdOwn, 0x1_0000, 3, 41),
        Message::request(MemOp::RdShared, 0x1_0040, 3, 42),
        Message::response_ok(7, 9),
    ];
    let mut flit = Flit256::new(FlitHeader::ack(0));
    flit.pack_messages(&messages).unwrap();
    println!(
        "packed {} transaction messages into the 240B payload",
        messages.len()
    );

    // ------------------------------------------------------------------
    // 2. Transport layer: the ISN CRC binds payload AND sequence number.
    // ------------------------------------------------------------------
    let isn = IsnCrc64::new(FLIT_CRC64);
    let seq = 5u16;
    let ecrc = isn.encode(&flit.header.to_bytes(), &flit.payload, seq);
    println!("ISN ECRC for sequence {seq}: 0x{ecrc:016X}");
    println!(
        "  verify with expected sequence 5 -> {}",
        isn.verify(&flit.header.to_bytes(), &flit.payload, 5, ecrc)
    );
    println!(
        "  verify with expected sequence 6 -> {}  (a dropped flit would look exactly like this)",
        isn.verify(&flit.header.to_bytes(), &flit.payload, 6, ecrc)
    );

    // ------------------------------------------------------------------
    // 3. Link layer: the 250B protected block gets 6B of 3-way interleaved
    //    Reed-Solomon parity, for a 256B wire flit.
    // ------------------------------------------------------------------
    let codec = RxlFlitCodec::new();
    let wire = codec.encode(&flit, seq);
    println!(
        "wire flit is {} bytes ({}B data + 6B FEC)",
        wire.len(),
        wire.len() - 6
    );

    // A 3-byte burst anywhere on the wire is repaired by the FEC alone — the
    // switch never needs the CRC.
    let fec = InterleavedFec::cxl_flit();
    let mut corrupted = wire;
    corrupted[80] ^= 0xFF;
    corrupted[81] ^= 0x55;
    corrupted[82] ^= 0x0F;
    let mut block = corrupted.to_vec();
    let fec_result = fec.decode(&mut block);
    println!(
        "switch FEC view of a 3-byte burst: {:?} (corrected back to the original: {})",
        fec_result.outcome,
        block[..250] == wire[..250]
    );

    // ------------------------------------------------------------------
    // 4. Endpoint: FEC first, then the ISN ECRC against the expected
    //    sequence number.
    // ------------------------------------------------------------------
    let decode_ok = codec.decode(&corrupted, 5);
    println!(
        "endpoint decode with expected seq 5: fec accepted = {}, ecrc ok = {}",
        decode_ok.fec.accepted(),
        decode_ok.crc_ok
    );
    let decode_wrong_seq = codec.decode(&corrupted, 6);
    println!(
        "endpoint decode with expected seq 6: fec accepted = {}, ecrc ok = {}  <- drop detected",
        decode_wrong_seq.fec.accepted(),
        decode_wrong_seq.crc_ok
    );

    // ------------------------------------------------------------------
    // 5. The recovered flit still carries the original messages.
    // ------------------------------------------------------------------
    let recovered = decode_ok.flit.unwrap();
    assert_eq!(recovered.unpack_messages().unwrap(), messages);
    println!("recovered all {} messages intact", messages.len());
}
