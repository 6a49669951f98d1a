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
//! Before the slot loop, `begin` registers the workload by taking handles on
//! its shared streams: once a first trial has built the streams' audit
//! index, building and loading a trial allocates the fabric's own state and
//! a delivered *bit* per message — not the ~40 bytes per message that
//! copying each stream into audit records and a transmit queue used to.
//!
//! The counters are per thread, so neither the test harness's own threads
//! nor the other test in this file can disturb a reading.

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
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes requested by every `alloc`/`realloc` of this thread so far.
fn bytes_on_this_thread() -> u64 {
    BYTES.with(Cell::get)
}

/// The system allocator, counting every `alloc`/`realloc` of the calling
/// thread and summing the bytes they ask for (frees are not counted:
/// releasing an ACKed flit is expected).
struct CountingAlloc;

fn count_one(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are being
    // torn down, when the counters are gone and there is nothing to count.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` with no destructor (as is the byte sum), so touching
// them never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
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

#[test]
fn a_trial_over_a_registered_workload_allocates_no_per_message_state() {
    let topology = FabricTopology::leaf_spine(4, 2, 4);
    let routing = RoutingTable::new(&topology);
    let config = FabricConfig::new(ProtocolVariant::Rxl);
    let workload = FabricWorkload::symmetric(topology.session_count(), 15_000, 8, 7);
    let messages = workload.total_messages() as u64;
    assert_eq!(messages, 480_000);

    // Bytes allocated by building one trial, and by loading the workload.
    let new_and_begin = || {
        let start = bytes_on_this_thread();
        let mut sim = FabricSim::new(&topology, &routing, config);
        let built = bytes_on_this_thread();
        sim.begin(&workload);
        (built - start, bytes_on_this_thread() - built, sim)
    };

    // The first trial builds every stream's audit index: 4 bytes a message,
    // more while the position lists grow.
    let (_, first_begin, _sim) = new_and_begin();
    assert!(
        first_begin > 4 * messages,
        "{first_begin} bytes: the index was not built"
    );

    // Every later trial finds it there, and `begin` is left with a
    // delivered bit per message plus a few words per stream. (It used to
    // allocate ~19 MiB here — a 24-byte audit record and a 16-byte queued
    // copy of every message; `new`, the fabric's own ~163 KiB of endpoints,
    // queues and tables, was and is independent of the workload — 166 872
    // bytes here, down from 271 414 when every flit codec and switch still
    // built per-way Reed–Solomon state for its FEC. Nothing is copied later
    // either: the steady-state test above allows the slot loop one
    // allocation per new flit.)
    let (new, begin, _sim) = new_and_begin();
    assert!(
        begin < messages / 4,
        "{begin} bytes to load an already registered workload of {messages} messages"
    );
    assert!(new + begin < 256 * 1024, "{new} + {begin} bytes");
    let (new_again, begin_again, _sim) = new_and_begin();
    assert_eq!(
        (new, begin),
        (new_again, begin_again),
        "a trial's set-up allocation is deterministic"
    );
}
