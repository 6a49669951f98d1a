//! The request join under both protocols on a lossy channel.
//!
//! The dense tag-indexed join in [`RequestProbe`](rxl_telemetry::RequestProbe)
//! has one path for every protocol and delivery order; replays, NACKs and
//! CXL's explicit-sequence deliveries are where the order of events differs
//! most from the ideal channel. Per rung the join must account for every
//! offered request exactly once — completed, or cut by the horizon — and
//! the merged report may not depend on the worker-thread count.

use rxl_fabric::{FabricConfig, FabricTopology};
use rxl_link::{ChannelErrorModel, ProtocolVariant};
use rxl_load::FanoutShape;
use rxl_telemetry::{RequestSweep, RequestSweepConfig, RequestSweepReport};

/// `0.3 × 2000 slots × 15` = 9 000 messages per stream at the top rung: one
/// lap of the link sequence space is 15 000, and longer RXL streams can
/// wedge after a wrap (benchmark/README.md, "Sizing rule").
fn sweep_on_pool(variant: ProtocolVariant, ber: f64, threads: usize) -> RequestSweepReport {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build rayon pool");
    pool.install(|| {
        RequestSweep::new(
            FabricTopology::leaf_spine(2, 1, 2),
            FabricConfig::new(variant)
                .with_channel(ChannelErrorModel::random(ber))
                .with_seed(0x10_1A7E),
            RequestSweepConfig {
                loads: vec![0.1, 0.3],
                fanout: 3,
                shape: FanoutShape::Uniform,
                trials: 3,
                measure_slots: 2_000,
                window_slots: 400,
                ..RequestSweepConfig::default()
            },
        )
        .run()
    })
}

#[test]
fn every_offered_request_is_joined_once_under_both_protocols() {
    for (variant, ber) in [
        (ProtocolVariant::CxlPiggyback, 1e-5),
        (ProtocolVariant::Rxl, 3e-5),
    ] {
        let serial = sweep_on_pool(variant, ber, 1);
        for p in &serial.points {
            assert!(p.requests_completed > 0, "{variant:?}: {p:?}");
            assert_eq!(
                p.requests_completed + p.unresolved,
                p.requests_offered,
                "{variant:?} load {}: a request was lost or counted twice by the join",
                p.offered_load
            );
        }
        let parallel = sweep_on_pool(variant, ber, 4);
        assert_eq!(
            format!("{serial:?}"),
            format!("{parallel:?}"),
            "{variant:?}: request sweep report drifted with thread count"
        );
    }
}
