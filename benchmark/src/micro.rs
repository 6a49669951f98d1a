//! Per-layer microbenchmarks: ns per call of each crate's public functions,
//! median of >= 7 batches. Every batch gets fresh state from an untimed
//! set-up closure, so a number never depends on what ran before it.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rxl::crc::{IsnCrc64, FLIT_CRC64, FLIT_CRC64_SLICE};
use rxl::fabric::{
    FabricConfig, FabricSim, FabricTopology, FabricWorkload, InjectionPacing, RoutingTable,
};
use rxl::fec::{InterleavedFec, RsCode, ShortenedRs};
use rxl::flit::{CxlFlitCodec, Flit256, FlitHeader, Message, RxlFlitCodec, WireFlit};
use rxl::gf256::{ConstMul, Gf256};
use rxl::link::{
    ChannelErrorModel, EventCursor, LinkConfig, LinkRx, LinkTx, ProtocolVariant, TxEmission,
};
use rxl::load::{ArrivalProcess, FanoutShape, LatencyHistogram, RequestGenerator};
use rxl::sim::{request_stream, TrafficPattern};
use rxl::switch::{Switch, SwitchConfig};
use rxl::telemetry::MetricsProbe;
use rxl::transport::DeliveryAuditor;

use crate::stats::median;

const MIN_BATCHES: usize = 7;
const MAX_BATCHES: usize = 200;
/// Wall budget per metric once the minimum batch count is in.
const BUDGET: Duration = Duration::from_millis(25);

/// Median wall nanoseconds per operation. `setup` builds fresh state for a
/// batch (untimed); `run` performs a batch and returns how many operations
/// it did. The first batch only warms caches and is not counted.
fn ns_per_op<S>(mut setup: impl FnMut() -> S, mut run: impl FnMut(&mut S) -> u64) -> f64 {
    let mut samples = Vec::with_capacity(MIN_BATCHES);
    let started = Instant::now();
    let mut warm = false;
    while samples.len() < MIN_BATCHES || (started.elapsed() < BUDGET && samples.len() < MAX_BATCHES)
    {
        let mut state = setup();
        let t = Instant::now();
        let ops = run(&mut state);
        let ns = t.elapsed().as_nanos() as f64;
        black_box(&mut state);
        if warm {
            samples.push(ns / ops as f64);
        }
        warm = true;
    }
    median(&samples)
}

/// [`ns_per_op`] for one call at a time: `REPS` calls of `f` per batch, on
/// the batch's fresh state.
fn ns_per_call<S>(setup: impl FnMut() -> S, mut f: impl FnMut(&mut S)) -> f64 {
    ns_per_op(setup, |state| {
        (0..REPS).for_each(|_| f(state));
        REPS
    })
}

/// Calls per batch of the per-call microbenchmarks.
const REPS: u64 = 256;

/// Per-layer results by metric name.
pub struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("microbenchmark {name} was not run"))
            .1
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().copied()
    }
}

fn payload240() -> [u8; 240] {
    std::array::from_fn(|i| (i as u32 * 31 + 7) as u8)
}

fn stream(messages: usize) -> Vec<Message> {
    request_stream(messages, TrafficPattern::DataStream { cqids: 8 }, 0x1A7E)
}

/// A transmitter loaded with exactly one replay window of full flits.
fn loaded_tx(variant: ProtocolVariant) -> LinkTx {
    let config = LinkConfig::cxl3_x16(variant);
    let mut tx = LinkTx::new(config);
    tx.enqueue_messages(stream(
        config.replay_capacity * rxl::flit::MESSAGES_PER_FLIT,
    ));
    tx
}

/// One replay window of emissions from a fresh transmitter.
fn emissions(variant: ProtocolVariant) -> (LinkTx, Vec<TxEmission>) {
    let mut tx = loaded_tx(variant);
    let n = tx.config().replay_capacity;
    let out = (0..n).map(|i| tx.emit(i as f64 * 2.0)).collect();
    (tx, out)
}

fn pod() -> FabricTopology {
    FabricTopology::leaf_spine(4, 2, 4)
}

/// Runs every microbenchmark once.
pub fn run_all() -> Layers {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let mut rng = StdRng::seed_from_u64(0xBE_4C);

    // --- gf256: a dependent multiply chain, as the FEC inner loops use it.
    let bytes: Vec<u8> = (0..4096u32).map(|i| (i * 37 + 11) as u8).collect();
    let alpha = Gf256::new(rxl::gf256::tables::GF256_GENERATOR);
    let nib = ConstMul::new(rxl::gf256::tables::GF256_GENERATOR);
    out.push((
        "gf256.mul_ns",
        ns_per_op(
            || (),
            |_| {
                let mut acc = 0u8;
                for &x in black_box(&bytes) {
                    acc = (alpha * Gf256::new(acc)).value() ^ x;
                }
                black_box(acc);
                bytes.len() as u64
            },
        ),
    ));
    out.push((
        "gf256.const_mul_ns",
        ns_per_op(
            || (),
            |_| {
                let mut acc = 0u8;
                for &x in black_box(&bytes) {
                    acc = nib.mul(acc) ^ x;
                }
                black_box(acc);
                bytes.len() as u64
            },
        ),
    ));

    // --- fec
    let rs68 = ShortenedRs::new(RsCode::new(255, 251), 64);
    let data64: Vec<u8> = (0..64u32).map(|i| (i * 13 + 3) as u8).collect();
    let clean68 = rs68.encode(&data64);
    out.push((
        "fec.rs68_encode_ns",
        ns_per_call(
            || (),
            |_| {
                black_box(rs68.encode(black_box(&data64)));
            },
        ),
    ));
    out.push((
        "fec.rs68_decode_clean_ns",
        ns_per_call(
            || clean68.clone(),
            |word| {
                black_box(rs68.decode_in_place(black_box(word)));
            },
        ),
    ));
    let fec = InterleavedFec::cxl_flit();
    let data250: Vec<u8> = (0..250u32).map(|i| (i * 11 + 1) as u8).collect();
    let clean256 = fec.encode(&data250);
    let mut burst256 = clean256.clone();
    burst256[100] ^= 0xFF;
    burst256[101] ^= 0x3C;
    burst256[102] ^= 0x81;
    out.push((
        "fec.flit_encode_ns",
        ns_per_call(
            || clean256.clone(),
            |block| {
                fec.encode_into(black_box(block));
            },
        ),
    ));
    out.push((
        "fec.flit_decode_clean_ns",
        ns_per_call(
            || clean256.clone(),
            |block| {
                black_box(fec.decode(black_box(block)));
            },
        ),
    ));
    out.push((
        "fec.flit_decode_burst3_ns",
        ns_per_call(
            || burst256.clone(),
            |block| {
                block.copy_from_slice(&burst256);
                black_box(fec.decode(black_box(block)));
            },
        ),
    ));

    // --- crc
    let payload = payload240();
    let header = FlitHeader::with_seq(5).to_bytes();
    let isn = IsnCrc64::new(FLIT_CRC64);
    let isn_crc = isn.encode(&header, &payload, 5);
    out.push((
        "crc.slice8_240B_ns",
        ns_per_call(
            || (),
            |_| {
                black_box(FLIT_CRC64_SLICE.checksum(black_box(&payload)));
            },
        ),
    ));
    out.push((
        "crc.isn_encode_ns",
        ns_per_call(
            || (),
            |_| {
                black_box(isn.encode(&header, black_box(&payload), black_box(5)));
            },
        ),
    ));
    out.push((
        "crc.isn_verify_ns",
        ns_per_call(
            || (),
            |_| {
                black_box(isn.verify(&header, black_box(&payload), 5, isn_crc));
            },
        ),
    ));

    // --- flit
    let mut flit = Flit256::new(FlitHeader::with_seq(5));
    flit.payload.copy_from_slice(&payload);
    let cxl = CxlFlitCodec::new();
    let rxl_codec = RxlFlitCodec::new();
    let cxl_wire = cxl.encode(&flit);
    let rxl_wire = rxl_codec.encode(&flit, 5);
    out.push((
        "flit.rxl_encode_ns",
        ns_per_call(
            || (),
            |_| {
                black_box(rxl_codec.encode(black_box(&flit), 5));
            },
        ),
    ));
    out.push((
        "flit.rxl_decode_clean_ns",
        ns_per_call(
            || (),
            |_| {
                black_box(rxl_codec.decode(black_box(&rxl_wire), 5));
            },
        ),
    ));
    out.push((
        "flit.cxl_encode_ns",
        ns_per_call(
            || (),
            |_| {
                black_box(cxl.encode(black_box(&flit)));
            },
        ),
    ));
    out.push((
        "flit.cxl_decode_clean_ns",
        ns_per_call(
            || (),
            |_| {
                black_box(cxl.decode(black_box(&cxl_wire)));
            },
        ),
    ));

    // --- link: one replay window (256 flits) per batch, RXL.
    let variant = ProtocolVariant::Rxl;
    out.push((
        "link.tx_emit_ns",
        ns_per_op(
            || loaded_tx(variant),
            |tx| {
                let n = tx.config().replay_capacity as u64;
                for i in 0..n {
                    black_box(tx.emit(i as f64 * 2.0));
                }
                n
            },
        ),
    ));
    out.push((
        "link.tx_encode_emission_ns",
        ns_per_op(
            || emissions(variant),
            |(tx, ems)| {
                for e in ems.iter() {
                    black_box(tx.encode_emission(black_box(e)));
                }
                ems.len() as u64
            },
        ),
    ));
    out.push((
        "link.rx_receive_ns",
        ns_per_op(
            || {
                let (tx, ems) = emissions(variant);
                let wires: Vec<WireFlit> = ems
                    .iter()
                    .map(|e| tx.encode_emission(e).expect("protocol flit"))
                    .collect();
                (LinkRx::new(*tx.config()), wires)
            },
            |(rx, wires)| {
                for w in wires.iter() {
                    black_box(rx.receive(black_box(w)));
                }
                wires.len() as u64
            },
        ),
    ));
    out.push((
        "link.rx_receive_trusted_ns",
        ns_per_op(
            || {
                let (tx, ems) = emissions(variant);
                (LinkRx::new(*tx.config()), ems)
            },
            |(rx, ems)| {
                for e in ems.iter() {
                    let (flit, seq) = (e.flit().expect("protocol flit"), e.bound_seq());
                    black_box(rx.receive_trusted(flit, seq.expect("protocol flit")));
                }
                ems.len() as u64
            },
        ),
    ));
    for (name, ber) in [
        ("link.cursor_step_quiet_ns", 1e-6),
        ("link.cursor_step_noisy_ns", 3e-5),
    ] {
        const STEPS: u64 = 16_384;
        out.push((
            name,
            ns_per_op(
                || {
                    (
                        ChannelErrorModel::random(ber),
                        EventCursor::new(),
                        [0u8; 256],
                    )
                },
                |(channel, cursor, data)| {
                    for slot in 0..STEPS {
                        let now = slot as f64 * 2.0;
                        if cursor.step(channel, 2048, now, &mut rng) {
                            black_box(cursor.corrupt_event(channel, data, now, &mut rng));
                        }
                    }
                    STEPS
                },
            ),
        ));
    }
    // The per-traversal Bernoulli sampling `PathSim` still uses (BER 1e-5).
    out.push((
        "link.channel_apply_ns",
        ns_per_call(
            || (ChannelErrorModel::random(1e-5), [0u8; 256]),
            |(channel, data)| {
                black_box(channel.apply(black_box(data), &mut rng));
            },
        ),
    ));

    // --- switch
    let mut corrupted = rxl_wire;
    corrupted[40] ^= 0x5A;
    out.push((
        "switch.forward_clean_ns",
        ns_per_op(
            || Switch::new(SwitchConfig::simple(4)),
            |sw| {
                const N: u64 = 16_384;
                for _ in 0..N {
                    black_box(&mut *sw).forward_clean();
                }
                N
            },
        ),
    ));
    out.push((
        "switch.process_in_place_clean_ns",
        ns_per_call(
            || (Switch::new(SwitchConfig::simple(4)), rxl_wire),
            |(sw, wire)| {
                black_box(sw.process_in_place(black_box(wire), &mut rng));
            },
        ),
    ));
    out.push((
        "switch.process_in_place_corrected_ns",
        ns_per_call(
            || (Switch::new(SwitchConfig::simple(4)), rxl_wire),
            |(sw, wire)| {
                *wire = corrupted;
                black_box(sw.process_in_place(black_box(wire), &mut rng));
            },
        ),
    ));

    // --- transport: one benchmark stream (1000 flits of messages).
    let msgs = stream(15_000);
    out.push((
        "transport.audit_record_sent_ns",
        ns_per_op(DeliveryAuditor::new, |audit| {
            for m in &msgs {
                audit.record_sent(black_box(m));
            }
            msgs.len() as u64
        }),
    ));
    out.push((
        "transport.audit_observe_delivery_ns",
        ns_per_op(
            || {
                let mut audit = DeliveryAuditor::new();
                msgs.iter().for_each(|m| audit.record_sent(m));
                audit
            },
            |audit| {
                for m in &msgs {
                    black_box(audit.observe_delivery(black_box(m)));
                }
                msgs.len() as u64
            },
        ),
    ));

    // --- fabric: one engine slot on the pod at three injection levels.
    let topology = pod();
    let routing = RoutingTable::new(&topology);
    let sessions = topology.session_count();
    let workload = FabricWorkload::symmetric(sessions, 15_000, 8, 0x51_07);
    let never = InjectionPacing {
        downstream: vec![vec![u64::MAX / 2; 15_000]; sessions],
        upstream: vec![vec![u64::MAX / 2; 15_000]; sessions],
    };
    let base = FabricConfig {
        max_slots: u64::MAX,
        stall_slots: u64::MAX,
        ..FabricConfig::new(ProtocolVariant::Rxl).with_channel(ChannelErrorModel::random(1e-6))
    };
    const SLOTS: u64 = 1_000;
    let slot_ns = |load: Option<f64>, idle: bool| {
        ns_per_op(
            || {
                let config = FabricConfig {
                    offered_load: load,
                    ..base
                };
                let mut sim = FabricSim::new(&topology, &routing, config);
                if idle {
                    sim.begin_paced(&workload, &never);
                } else {
                    sim.begin(&workload);
                }
                // Past the pipeline fill, into steady state.
                let _ = sim.step(300);
                sim
            },
            |sim| {
                black_box(sim.step(SLOTS));
                SLOTS
            },
        )
    };
    out.push(("fabric.slot_idle_ns", slot_ns(None, true)));
    out.push(("fabric.slot_half_ns", slot_ns(Some(0.5), false)));
    out.push(("fabric.slot_saturated_ns", slot_ns(None, false)));

    // --- load
    const SCHEDULED: usize = 48_000;
    let arrival = ArrivalProcess::poisson(1.0).scaled(0.08);
    out.push((
        "load.arrival_schedule_ns_per_msg",
        ns_per_op(
            || StdRng::seed_from_u64(7),
            |rng| {
                black_box(arrival.schedule(SCHEDULED, rng));
                SCHEDULED as u64
            },
        ),
    ));
    let generator = RequestGenerator {
        fanout: 4,
        requests: 4_800,
        shape: FanoutShape::Uniform,
        arrival: ArrivalProcess::poisson(1.0),
        cqids: 8,
    };
    out.push((
        "load.request_build_ns_per_msg",
        ns_per_op(
            || StdRng::seed_from_u64(7),
            |rng| {
                let (_, _, map) = black_box(generator.build(&topology, 0.08, 11, rng));
                map.total_messages() as u64
            },
        ),
    ));
    let latencies: Vec<u64> = (0..4096u64)
        .map(|i| (i * 2_654_435_761) % 100_000)
        .collect();
    out.push((
        "load.histogram_record_ns",
        ns_per_op(LatencyHistogram::new, |h| {
            for &v in &latencies {
                h.record(black_box(v));
            }
            latencies.len() as u64
        }),
    ));

    // --- telemetry: Prometheus exposition of the pod's registry after a
    // short probed trial, in milliseconds per render.
    let registry = {
        let probe = MetricsProbe::for_topology(&topology, 1);
        let mut sim = FabricSim::with_probe(&topology, &routing, base, probe);
        sim.begin(&FabricWorkload::symmetric(sessions, 600, 8, 3));
        let _ = sim.step(u64::MAX);
        sim.finish_with_probe().1.into_registry()
    };
    out.push((
        "telemetry.prometheus_render_ms",
        ns_per_op(
            || (),
            |_| {
                black_box(registry.prometheus(&topology, 1_000));
                1
            },
        ) / 1e6,
    ));

    Layers(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_reports_the_median_batch_and_skips_the_warm_up() {
        let mut batch = 0u32;
        let ns = ns_per_op(
            || (),
            |_| {
                batch += 1;
                // The first (warm-up) batch is 100x slower and must not count.
                let spin = if batch == 1 { 2_000_000 } else { 20_000 };
                let mut x = 0u64;
                for i in 0..spin {
                    x = black_box(x.wrapping_add(i));
                }
                black_box(x);
                1_000
            },
        );
        assert!(batch as usize > MIN_BATCHES);
        assert!(ns > 0.0 && ns < 1_000.0, "{ns} ns/op");
    }
}
