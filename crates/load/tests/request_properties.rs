//! Property tests for the request-fanout workload generator.
//!
//! * **Completion is the max** — a request completes when its slowest
//!   shard completes, for any set of shard delivery slots.
//! * **Streams are fanout-invariant** — at a fixed per-message load the
//!   per-session paced message stream does not depend on the fanout, only
//!   the grouping of messages into requests does (the fanout ladder's
//!   "fixed per-message load" contract).
//! * **Join-table integrity** — every generated span identity is unique,
//!   every request has exactly `fanout` shards, and per-session pacing
//!   slots are non-decreasing.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use rxl_fabric::FabricTopology;
use rxl_load::{request_completion_slot, ArrivalProcess, FanoutShape, RequestGenerator};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// request_completion_slot == max over the shard delivery slots, for
    /// any slot values (0 and u64::MAX included); None only when empty.
    #[test]
    fn completion_slot_is_the_max_of_shard_slots(
        slots in proptest::collection::vec(any::<u64>(), 0..24)
    ) {
        let expect = slots.iter().copied().max();
        prop_assert_eq!(request_completion_slot(&slots), expect);
        // Order-independence: any permutation (here: reversal) agrees.
        let mut rev = slots.clone();
        rev.reverse();
        prop_assert_eq!(request_completion_slot(&rev), expect);
    }

    /// At a fixed per-message load, each session's paced (slot, message)
    /// stream at fanout 1 is a prefix of its stream at fanout `k` with the
    /// same request count — the wire traffic is fanout-invariant.
    #[test]
    fn per_session_streams_are_fanout_invariant(
        k in 1usize..=8,
        requests in 16usize..80,
        load_pct in 5u32..60,
        seed in any::<u64>(),
    ) {
        let t = FabricTopology::leaf_spine(2, 1, 2);
        let load = load_pct as f64 / 100.0;
        let build = |fanout: usize| {
            RequestGenerator {
                fanout,
                requests,
                shape: FanoutShape::Uniform,
                arrival: ArrivalProcess::poisson(1.0),
                cqids: 8,
            }
            .build(&t, load, seed, &mut StdRng::seed_from_u64(seed ^ 0xA12))
        };
        let (w1, p1, m1) = build(1);
        let (wk, pk, mk) = build(k);
        prop_assert_eq!(m1.total_messages() * k, mk.total_messages());
        for s in 0..t.session_count() {
            let n = p1.downstream[s].len();
            prop_assert!(pk.downstream[s].len() >= n);
            prop_assert_eq!(&p1.downstream[s][..], &pk.downstream[s][..n]);
            prop_assert_eq!(&w1.downstream[s][..], &wk.downstream[s][..n]);
            // Pacing slots never regress within a stream.
            prop_assert!(pk.downstream[s].windows(2).all(|w| w[0] <= w[1]));
        }
    }

    /// The request→shard join table is exact: unique span identities,
    /// `fanout` shards per request, arrivals at the earliest shard release.
    #[test]
    fn join_table_is_exact(
        k in 1usize..=4,
        requests in 8usize..40,
        seed in any::<u64>(),
    ) {
        let t = FabricTopology::leaf_spine(2, 1, 2);
        let (_, pacing, map) = RequestGenerator {
            fanout: k,
            requests,
            shape: FanoutShape::Uniform,
            arrival: ArrivalProcess::poisson(1.0),
            cqids: 8,
        }
        .build(&t, 0.2, seed, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(map.len(), requests);
        prop_assert_eq!(map.fanout, k);
        prop_assert_eq!(map.total_messages(), requests * k);
        let mut ids = std::collections::HashSet::new();
        let mut cursor = vec![0usize; t.session_count()];
        for r in 0..map.len() {
            prop_assert_eq!(map.shards(r).len(), k);
            let mut earliest = u64::MAX;
            for sh in map.shards(r) {
                prop_assert!(ids.insert((sh.dst, sh.key)));
                // The tag is the shard's ordinal in its session's stream.
                prop_assert_eq!(sh.tag as usize, cursor[sh.session]);
                earliest = earliest.min(pacing.downstream[sh.session][cursor[sh.session]]);
                cursor[sh.session] += 1;
            }
            prop_assert_eq!(map.arrival_slot(r), earliest);
        }
        prop_assert!(map.last_arrival() >= map.arrival_slot(0));
    }
}
