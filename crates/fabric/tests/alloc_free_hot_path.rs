//! Allocation guard for the engine's steady-state slot loop.
//!
//! A flit is written once, by `LinkTx::emit`, into the allocation behind its
//! `FlitRef`; from there to delivery only handles move. So after warm-up
//! (queues and replay buffers at their steady capacity) the only thing a
//! saturated, clean fabric may allocate is that one flit per *new* emission:
//! nothing per switch hop, nothing per delivery (`RxResult` carries its
//! messages inline), and — checked on a bare `LinkTx` — nothing per
//! retransmission.
//!
//! The counter is per thread, so the test harness's own threads cannot
//! disturb it; this file holds the single test that reads it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rxl_fabric::{
    FabricConfig, FabricSim, FabricTopology, FabricWorkload, LinkHop, LinkTraversalEvent, Probe,
    RoutingTable, StepOutcome,
};
use rxl_flit::Message;
use rxl_link::{ChannelErrorModel, LinkConfig, LinkTx, ProtocolVariant, TxEmission};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The system allocator, counting every `alloc`/`realloc` of the calling
/// thread (frees are not counted: releasing an ACKed flit is expected).
struct CountingAlloc;

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are being
    // torn down, when the counter is gone and there is nothing to count.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` with no destructor, so touching it never allocates or
// re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System`, and the caller vouched for
        // `layout` and `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Counts flit movements by kind; plain integer fields, so the probe itself
/// allocates nothing.
#[derive(Clone, Copy, Debug, Default)]
struct HopCounter {
    /// Flits an endpoint put into the fabric for the first time (protocol
    /// and control flits; replays excluded).
    new_emissions: u64,
    /// Replayed flits re-entering the fabric.
    retransmissions: u64,
    /// Switch-to-switch hops.
    trunk_hops: u64,
    /// Flits handed to their destination endpoint.
    deliveries: u64,
}

impl Probe for HopCounter {
    fn on_link_traversal(&mut self, ev: LinkTraversalEvent) {
        match ev.hop {
            LinkHop::Inject if ev.retransmission => self.retransmissions += 1,
            LinkHop::Inject => self.new_emissions += 1,
            LinkHop::Trunk => self.trunk_hops += 1,
            LinkHop::Deliver => self.deliveries += 1,
        }
    }
}

#[test]
fn steady_state_allocates_only_the_flit_of_each_new_emission() {
    const WARMUP_SLOTS: u64 = 1_000;
    const WINDOW_SLOTS: u64 = 2_500;

    for variant in [ProtocolVariant::Rxl, ProtocolVariant::CxlPiggyback] {
        let topology = FabricTopology::leaf_spine(2, 1, 2);
        let routing = RoutingTable::new(&topology);
        let config = FabricConfig::new(variant).with_channel(ChannelErrorModel::ideal());
        // Enough messages that every endpoint is still saturated when the
        // window closes (15 messages per flit, at most one flit per slot),
        // within the 65 536 messages a stream's 16-bit tags allow.
        let per_session = 15 * (WARMUP_SLOTS + WINDOW_SLOTS) as usize + 10_000;
        let workload = FabricWorkload::symmetric(topology.session_count(), per_session, 8, 7);

        let mut sim = FabricSim::with_probe(&topology, &routing, config, HopCounter::default());
        sim.begin(&workload);
        assert_eq!(sim.step(WARMUP_SLOTS), StepOutcome::Budget);

        let (allocs_before, before) = (allocs_on_this_thread(), *sim.probe());
        let outcome = sim.step(WINDOW_SLOTS);
        let (allocs_after, after) = (allocs_on_this_thread(), *sim.probe());
        assert_eq!(outcome, StepOutcome::Budget, "{variant:?}: still loaded");

        let allocs = allocs_after - allocs_before;
        let new_emissions = after.new_emissions - before.new_emissions;
        let trunk_hops = after.trunk_hops - before.trunk_hops;
        let deliveries = after.deliveries - before.deliveries;
        // The window really exercised what it claims to guard.
        assert!(
            new_emissions >= WINDOW_SLOTS,
            "{variant:?}: {new_emissions}"
        );
        assert!(trunk_hops >= WINDOW_SLOTS, "{variant:?}: {trunk_hops}");
        assert!(deliveries >= WINDOW_SLOTS, "{variant:?}: {deliveries}");
        assert!(
            allocs <= new_emissions,
            "{variant:?}: {allocs} allocations for {new_emissions} new emissions \
             ({trunk_hops} trunk hops, {deliveries} deliveries, {} retransmissions) — \
             a hop, a delivery or a replay allocated",
            after.retransmissions - before.retransmissions,
        );

        assert_eq!(sim.counters().failures.total_failures(), 0);
    }

    // The ideal channel above never replays, so the go-back-N path is
    // guarded at the link: once the retransmit queue has its capacity, a
    // NACK reschedules the window and every replayed flit goes out again
    // without a single allocation.
    let mut tx = LinkTx::new(LinkConfig::cxl3_x16(ProtocolVariant::Rxl));
    tx.enqueue_messages((0..300).map(|i| Message::response_ok(0, i)));
    while !tx.emit(0.0).is_idle() {}
    assert_eq!(tx.in_flight(), 20);
    let mut replay_window = |now: f64| {
        tx.handle_peer_nack(4, now);
        let mut replayed = 0;
        while let TxEmission::Protocol { retransmission, .. } = tx.emit(now) {
            assert!(retransmission);
            replayed += 1;
        }
        replayed
    };
    assert_eq!(replay_window(10.0), 15);
    let allocs_before = allocs_on_this_thread();
    assert_eq!(replay_window(20.0), 15);
    assert_eq!(
        allocs_on_this_thread() - allocs_before,
        0,
        "a replay allocated"
    );
}
