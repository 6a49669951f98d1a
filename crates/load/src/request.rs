//! Request-scale fanout workloads for the open-system serving mode.
//!
//! A *request* is what a user experiences: one logical operation that fans
//! out into `k` shard messages across `k` sessions and completes only when
//! the **slowest** shard completes. Message-level percentiles systematically
//! understate that experience — at fanout `k` the request p99 samples the
//! max of `k` message latencies, so the message-level tail is amplified
//! (the classic "tail at scale" effect) even at fixed per-message load.
//!
//! A [`RequestGenerator`] maps an open-loop request arrival process into:
//!
//! * a [`FabricWorkload`] + [`InjectionPacing`] pair driving the engine
//!   (each shard rides its own session's flit-cohort arrival stream,
//!   downstream-only — see [`RequestGenerator::build`] for why the
//!   schedule is per-session rather than per-request), and
//! * a [`RequestMap`] recording, for each request, exactly which message
//!   spans belong to it — each as `(dst, tag)`, the message's dense
//!   position in its destination's stream, plus the key (see
//!   [`rxl_fabric::message_key`]) that verifies it — the entries the request
//!   probe in `rxl-telemetry` pre-fills its [`rxl_fabric::SpanJoin`] with to
//!   fold engine delivery events back into request completions.
//!
//! Generation follows the workspace's RNG discipline: all randomness comes
//! from the caller's `rng` during [`RequestGenerator::build`] (one shared
//! arrival-schedule realization; shard placement is deterministic), so a
//! trial's request workload is bit-identical for a given seed regardless
//! of worker thread count.

use std::sync::Arc;

use rand::rngs::StdRng;
use rxl_fabric::{message_key, FabricTopology, FabricWorkload, InjectionPacing};
use rxl_sim::{request_stream, TrafficPattern};
use rxl_transport::SentStream;

use crate::arrival::ArrivalProcess;

/// Seed salt separating per-session shard message streams from the other
/// stream families (`0x10AD_*` in the load sweep, `0x5E55_*` in the
/// symmetric workload).
const SHARD_STREAM_SALT: u64 = 0xFA17_0000;

/// How a request's `k` shards are spread over the topology's sessions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FanoutShape {
    /// Shards round-robin over every session: request `r` uses sessions
    /// `(r·k + j) mod S` — each request touches `k` distinct sessions when
    /// `k ≤ S`, and load spreads evenly in the long run.
    Uniform,
    /// One shard per leaf switch (a sharded index: every leaf holds one
    /// shard replica group). Shard `j` goes to leaf group `j mod G`, and
    /// rotates over that group's sessions across requests.
    PerLeafShard,
    /// Every shard lands on a session whose *device* attaches to `leaf` —
    /// the request-level analogue of
    /// [`TrafficMatrix::Incast`](crate::TrafficMatrix::Incast): all shard
    /// traffic funnels through the target leaf's uplink.
    Incast {
        /// Leaf switch index the shard devices attach to.
        leaf: usize,
    },
}

impl FanoutShape {
    /// The sessions this shape places shards on, ascending. For
    /// [`FanoutShape::Incast`] this matches the session set
    /// `TrafficMatrix::Incast` loads (device attached to the target leaf);
    /// the other shapes use every session.
    pub fn loaded_sessions(&self, topology: &FabricTopology) -> Vec<usize> {
        match *self {
            FanoutShape::Uniform | FanoutShape::PerLeafShard => {
                (0..topology.session_count()).collect()
            }
            FanoutShape::Incast { leaf } => (0..topology.session_count())
                .filter(|&s| {
                    let device = topology.sessions[s].device;
                    topology.endpoints[device].switch == leaf
                })
                .collect(),
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match *self {
            FanoutShape::Uniform => "uniform".to_string(),
            FanoutShape::PerLeafShard => "per_leaf_shard".to_string(),
            FanoutShape::Incast { leaf } => format!("incast_leaf{leaf}"),
        }
    }
}

/// Longest message stream one session can carry in a trial:
/// [`request_stream`] tags message `i` of a stream `i as u16`, so past
/// `2^16` messages a tag repeats within its command queue and the stream's
/// audit index (`DeliveryAuditor::for_stream`) refuses the duplicate
/// identity. The same
/// bound is what makes a shard's tag a *dense* per-destination ordinal — the
/// invariant every [`rxl_fabric::SpanJoin`] is built on (`RequestProbe::new`
/// in `rxl-telemetry` asserts `(dst, tag)` uniqueness).
pub const MAX_STREAM_MESSAGES: usize = 1 << 16;

/// One shard of a request: the message span it rides on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardRef {
    /// Session carrying the shard message.
    pub session: usize,
    /// Destination endpoint (the session's device; shards are
    /// downstream-only).
    pub dst: usize,
    /// Engine message key (see [`rxl_fabric::message_key`]): verifies a
    /// join match at `(dst, tag)`.
    pub key: u64,
    /// The message's tag: its ordinal in the session's stream, hence dense
    /// and unique within `dst` (see [`MAX_STREAM_MESSAGES`]).
    pub tag: u16,
}

/// The request→shard join table for one trial, in request-arrival order.
///
/// Every request has exactly [`Self::fanout`] shards, so the table is two
/// flat arrays — one arrival slot per request and `fanout` consecutive
/// [`ShardRef`]s per request — rather than a `Vec` per request: building a
/// trial's map is two allocations whatever the request count.
///
/// A request is complete when **every** shard has been delivered; its
/// completion slot is the max of its shard delivery slots (see
/// [`request_completion_slot`]).
///
/// Each [`ShardRef`] names its message as an [`rxl_fabric::SpanJoin`] does:
/// `(dst, tag)` indexes it, `key` verifies it. `RequestProbe` in
/// `rxl-telemetry` pre-fills its join from the map.
#[derive(Clone, Debug)]
pub struct RequestMap {
    /// Shards per request.
    pub fanout: usize,
    /// Fanout-shape label (for reports).
    pub shape: String,
    /// The sessions shards were placed on, ascending.
    pub loaded_sessions: Vec<usize>,
    /// Arrival slot of each request, in dispatch (request-index) order.
    arrivals: Vec<u64>,
    /// `fanout` shards per request, request-major.
    shards: Vec<ShardRef>,
}

impl RequestMap {
    /// A map over `arrivals.len()` requests, request `r` owning
    /// `shards[r * fanout..(r + 1) * fanout]`. Panics unless `shards` holds
    /// exactly `fanout` entries per request.
    pub fn new(
        fanout: usize,
        shape: String,
        loaded_sessions: Vec<usize>,
        arrivals: Vec<u64>,
        shards: Vec<ShardRef>,
    ) -> Self {
        assert_eq!(
            shards.len(),
            arrivals.len() * fanout,
            "a request map holds exactly `fanout` shards per request"
        );
        RequestMap {
            fanout,
            shape,
            loaded_sessions,
            arrivals,
            shards,
        }
    }

    /// Requests in the trial.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// `true` for a map without requests.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Slot request `r` was dispatched: the earliest release slot among its
    /// shard messages (shards on other sessions may release a few slots
    /// later, riding their own stream's cohort schedule). Arrival slots are
    /// approximately ascending in `r`; per-session shard release slots are
    /// exactly non-decreasing.
    pub fn arrival_slot(&self, r: usize) -> u64 {
        self.arrivals[r]
    }

    /// Request `r`'s `fanout` shard spans, in shard order.
    pub fn shards(&self, r: usize) -> &[ShardRef] {
        &self.shards[r * self.fanout..(r + 1) * self.fanout]
    }

    /// Total shard messages across all requests.
    pub fn total_messages(&self) -> usize {
        self.shards.len()
    }

    /// Latest request arrival slot (0 for an empty map). Arrival slots are
    /// only approximately ascending in request order, so this scans.
    pub fn last_arrival(&self) -> u64 {
        self.arrivals.iter().copied().max().unwrap_or(0)
    }
}

/// The completion slot of a request given its shard delivery slots: the
/// **max** (a request is as slow as its slowest shard). `None` while any
/// shard is outstanding (callers pass only completed cohorts).
pub fn request_completion_slot(shard_deliver_slots: &[u64]) -> Option<u64> {
    shard_deliver_slots.iter().copied().max()
}

/// Open-loop generator mapping request arrivals into fanout cohorts of
/// message spans.
#[derive(Clone, Debug)]
pub struct RequestGenerator {
    /// Shards per request (`k`).
    pub fanout: usize,
    /// Requests per trial.
    pub requests: usize,
    /// Shard placement shape.
    pub shape: FanoutShape,
    /// Arrival process *template*, normally unit-rate
    /// (`ArrivalProcess::poisson(1.0)`): [`RequestGenerator::build`] scales
    /// it to the caller's `offered_load` and paces every loaded session's
    /// **message** stream with one shared realization of it, so the
    /// per-session message load (and its flit-cohort burst structure) is
    /// identical at every fanout — the fanout ladder's "fixed per-message
    /// load" axis.
    pub arrival: ArrivalProcess,
    /// Command-queue spread of the shard messages.
    pub cqids: u16,
}

impl RequestGenerator {
    /// Session of shard `j` of request `r`. Deterministic (no RNG):
    /// placement is part of the workload's identity, not its noise.
    fn shard_session(&self, r: usize, j: usize, loaded: &[usize], groups: &[Vec<usize>]) -> usize {
        match self.shape {
            FanoutShape::Uniform | FanoutShape::Incast { .. } => {
                loaded[(r * self.fanout + j) % loaded.len()]
            }
            FanoutShape::PerLeafShard => {
                let group = &groups[j % groups.len()];
                group[(r + j / groups.len()) % group.len()]
            }
        }
    }

    /// Builds one trial's workload: shard message streams, the pacing that
    /// releases each shard on its session's message-stream schedule, and
    /// the request→shard join table. `offered_load` is the per-session
    /// message load fraction; `seed` derives the shard message content;
    /// `rng` drives the arrival schedule (the only randomness — one
    /// [`ArrivalProcess::schedule`] call sized to the busiest session).
    ///
    /// The schedule is denominated in **messages per session**, not
    /// requests: a request-level schedule would change every session's
    /// burst shape as fanout varies (partial flit cohorts at low fanout,
    /// full ones at high), confounding the fanout ladder's "fixed
    /// per-message load" axis. Instead every loaded session's stream is
    /// paced by the same flit-cohort realization — full flits at every
    /// fanout — and a request groups the next message of each of its `k`
    /// sessions, arriving at the earliest of those release slots and
    /// completing at the max of their deliveries. Because the grouping is
    /// consecutive (request `r` takes per-session cursor positions that
    /// nest as `k` doubles), the request-latency distribution is
    /// stochastically non-decreasing in fanout by construction — the
    /// tail-at-scale effect the request sweep's fanout ladder measures.
    pub fn build(
        &self,
        topology: &FabricTopology,
        offered_load: f64,
        seed: u64,
        rng: &mut StdRng,
    ) -> (FabricWorkload, InjectionPacing, RequestMap) {
        assert!(self.fanout >= 1, "a request needs at least one shard");
        assert!(self.requests >= 1, "a trial needs at least one request");
        assert!(
            offered_load > 0.0 && offered_load <= 1.0,
            "offered load must be a fraction of line rate in (0, 1]"
        );
        let loaded = self.shape.loaded_sessions(topology);
        assert!(!loaded.is_empty(), "the fanout shape loads no session");

        // Leaf groups for the per-leaf-shard shape: loaded sessions grouped
        // by the switch their device attaches to, ascending by switch.
        let groups: Vec<Vec<usize>> = {
            let mut switches: Vec<usize> = loaded
                .iter()
                .map(|&s| topology.endpoints[topology.sessions[s].device].switch)
                .collect();
            switches.sort_unstable();
            switches.dedup();
            switches
                .iter()
                .map(|&sw| {
                    loaded
                        .iter()
                        .copied()
                        .filter(|&s| topology.endpoints[topology.sessions[s].device].switch == sw)
                        .collect()
                })
                .collect()
        };

        // Pass 1 — deterministic shard placement, counting messages per
        // session so the per-session streams can be generated in one shot.
        let mut per_session = vec![0usize; topology.session_count()];
        for r in 0..self.requests {
            for j in 0..self.fanout {
                per_session[self.shard_session(r, j, &loaded, &groups)] += 1;
            }
        }
        let n_max = per_session.iter().copied().max().unwrap_or(0);
        assert!(
            n_max <= MAX_STREAM_MESSAGES,
            "{} requests at fanout {} put {n_max} messages on one session stream; \
             the limit is {MAX_STREAM_MESSAGES} (16-bit message tags)",
            self.requests,
            self.fanout
        );

        // One shared message-arrival schedule realization at the offered
        // per-message load, indexed by each session's own cursor (see the
        // method docs): a request dispatches all its shards at once, so
        // every loaded session's stream sees the *same* flit-cohort slots —
        // full flits at every fanout — and request latency isolates
        // fabric-side skew (queueing, trunk contention) rather than
        // generator-side drift between independent per-session schedules.
        // Draw count: exactly one `schedule` call sized to the busiest
        // session, a prefix-consistent function of the message count.
        let scaled = self.arrival.scaled(offered_load);
        let template = if n_max == 0 {
            Vec::new()
        } else {
            scaled.schedule(n_max, rng)
        };

        // Per-session shard message streams (content identity only; arrival
        // timing rides the pacing below).
        let streams: Vec<Vec<rxl_flit::Message>> = per_session
            .iter()
            .enumerate()
            .map(|(s, &n)| {
                if n == 0 {
                    Vec::new()
                } else {
                    request_stream(
                        n,
                        TrafficPattern::DataStream { cqids: self.cqids },
                        seed ^ (SHARD_STREAM_SALT + s as u64),
                    )
                }
            })
            .collect();

        // Pass 2 — walk requests arrival-ascending, consuming each
        // session's stream and the shared schedule in order: the stream
        // cursor is the shard's tag, and each session's pacing is the
        // schedule prefix its stream covers (non-decreasing by
        // construction).
        let mut cursor = vec![0usize; topology.session_count()];
        let mut arrivals = Vec::with_capacity(self.requests);
        let mut shards = Vec::with_capacity(self.requests * self.fanout);
        for r in 0..self.requests {
            let mut arrival_slot = u64::MAX;
            for j in 0..self.fanout {
                let s = self.shard_session(r, j, &loaded, &groups);
                let msg = &streams[s][cursor[s]];
                arrival_slot = arrival_slot.min(template[cursor[s]]);
                cursor[s] += 1;
                shards.push(ShardRef {
                    session: s,
                    dst: topology.sessions[s].device,
                    key: message_key(msg),
                    tag: msg.tag(),
                });
            }
            arrivals.push(arrival_slot);
        }
        // Streams were sized exactly, so they are the workload as they are.
        debug_assert!(streams.iter().zip(&cursor).all(|(st, &c)| st.len() == c));
        let pacing = InjectionPacing {
            downstream: per_session
                .iter()
                .map(|&n| template[..n].to_vec())
                .collect(),
            upstream: vec![Vec::new(); topology.session_count()],
        };
        let workload = FabricWorkload {
            downstream: streams
                .into_iter()
                .map(|msgs| Arc::new(SentStream::new(msgs)))
                .collect(),
            // Immutable, so every session can share the one empty stream.
            upstream: vec![Arc::default(); topology.session_count()],
        };

        (
            workload,
            pacing,
            RequestMap::new(self.fanout, self.shape.label(), loaded, arrivals, shards),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn generator(fanout: usize, shape: FanoutShape) -> RequestGenerator {
        RequestGenerator {
            fanout,
            requests: 40,
            shape,
            arrival: ArrivalProcess::fixed(1.0),
            cqids: 8,
        }
    }

    #[test]
    fn uniform_fanout_spreads_distinct_sessions_per_request() {
        let t = FabricTopology::leaf_spine(2, 1, 2);
        let (workload, pacing, map) =
            generator(4, FanoutShape::Uniform).build(&t, 0.2, 7, &mut StdRng::seed_from_u64(1));
        assert_eq!(map.len(), 40);
        assert_eq!(map.total_messages(), 160);
        assert_eq!(workload.total_messages(), 160);
        for r in 0..map.len() {
            let mut sessions: Vec<usize> = map.shards(r).iter().map(|s| s.session).collect();
            sessions.sort_unstable();
            sessions.dedup();
            assert_eq!(sessions.len(), 4, "k ≤ S shards land on distinct sessions");
        }
        // Pacing slots are per-stream non-decreasing and request-aligned.
        for s in 0..t.session_count() {
            assert!(pacing.downstream[s].windows(2).all(|w| w[0] <= w[1]));
            assert!(pacing.upstream[s].is_empty());
            assert!(workload.upstream[s].is_empty());
        }
    }

    #[test]
    fn incast_shape_matches_the_incast_matrix_session_set() {
        let t = FabricTopology::leaf_spine(2, 1, 2);
        let shape = FanoutShape::Incast { leaf: 1 };
        let loaded = shape.loaded_sessions(&t);
        let matrix_loaded: Vec<usize> = crate::TrafficMatrix::Incast { leaf: 1 }
            .session_loads(&t, 0.4)
            .iter()
            .enumerate()
            .filter(|(_, l)| l.downstream > 0.0)
            .map(|(s, _)| s)
            .collect();
        assert_eq!(loaded, matrix_loaded);
        let (workload, _, map) =
            shape_build(&t, generator(2, shape), 0.3, &mut StdRng::seed_from_u64(2));
        for r in 0..map.len() {
            for shard in map.shards(r) {
                assert_eq!(t.endpoints[shard.dst].switch, 1);
            }
        }
        for s in 0..t.session_count() {
            if !loaded.contains(&s) {
                assert!(workload.downstream[s].is_empty());
            }
        }
    }

    fn shape_build(
        t: &FabricTopology,
        g: RequestGenerator,
        load: f64,
        rng: &mut StdRng,
    ) -> (FabricWorkload, InjectionPacing, RequestMap) {
        g.build(t, load, 11, rng)
    }

    #[test]
    fn per_leaf_shard_places_one_shard_per_leaf() {
        let t = FabricTopology::leaf_spine(2, 1, 2);
        let (_, _, map) = generator(2, FanoutShape::PerLeafShard).build(
            &t,
            0.2,
            5,
            &mut StdRng::seed_from_u64(3),
        );
        for r in 0..map.len() {
            let shards = map.shards(r);
            let mut leaves: Vec<usize> = shards.iter().map(|s| t.endpoints[s.dst].switch).collect();
            leaves.sort_unstable();
            leaves.dedup();
            assert_eq!(leaves.len(), 2, "one shard per leaf: {shards:?}");
        }
    }

    #[test]
    fn span_identities_are_unique_and_streams_are_fanout_invariant() {
        let t = FabricTopology::leaf_spine(2, 1, 2);
        let mut ids = std::collections::HashSet::new();
        let (_, _, map) =
            generator(3, FanoutShape::Uniform).build(&t, 0.2, 9, &mut StdRng::seed_from_u64(4));
        let mut tags = std::collections::HashSet::new();
        for r in 0..map.len() {
            for sh in map.shards(r) {
                assert!(ids.insert((sh.dst, sh.key)), "duplicate span id {sh:?}");
                assert!(tags.insert((sh.dst, sh.tag)), "duplicate (dst, tag) {sh:?}");
            }
        }
        // Fixed per-message load: each session's paced message stream at
        // fanout 1 is a prefix of its stream at fanout 4 (same request
        // count ⇒ 4× the messages per session) — the wire sees the same
        // arrival process, only the request grouping changes.
        let mut g1 = generator(1, FanoutShape::Uniform);
        let mut g4 = generator(4, FanoutShape::Uniform);
        g1.arrival = ArrivalProcess::poisson(1.0);
        g4.arrival = ArrivalProcess::poisson(1.0);
        let (w1, p1, _) = g1.build(&t, 0.2, 9, &mut StdRng::seed_from_u64(5));
        let (w4, p4, _) = g4.build(&t, 0.2, 9, &mut StdRng::seed_from_u64(5));
        for s in 0..t.session_count() {
            let n = p1.downstream[s].len();
            assert!(n > 0 && p4.downstream[s].len() == 4 * n);
            assert_eq!(p1.downstream[s], p4.downstream[s][..n]);
            assert_eq!(w1.downstream[s][..], w4.downstream[s][..n]);
        }
    }

    #[test]
    #[should_panic(expected = "the limit is 65536 (16-bit message tags)")]
    fn a_stream_past_the_tag_space_is_refused_up_front() {
        let t = FabricTopology::leaf_spine(2, 1, 2);
        let mut g = generator(1, FanoutShape::Uniform);
        g.requests = t.session_count() * MAX_STREAM_MESSAGES + 1;
        g.build(&t, 0.5, 3, &mut StdRng::seed_from_u64(6));
    }

    #[test]
    fn completion_is_the_max_of_shard_completions() {
        assert_eq!(request_completion_slot(&[]), None);
        assert_eq!(request_completion_slot(&[42]), Some(42));
        assert_eq!(request_completion_slot(&[10, 99, 11]), Some(99));
    }
}
