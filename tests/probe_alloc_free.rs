//! A probe round trip does not allocate in steady state.
//!
//! Monitors, ndb senders and linearizable counter writers probe a small
//! leaf-spine. After a warm-up (frame pool filled, per-host tables and
//! result vectors grown), the heap allocations the rest of the run makes
//! are counted against the round trips it delivers. Building a probe
//! draws a pooled buffer from a cached builder, the switches execute it
//! in place, and every echo decoder reads the hop records straight from
//! the frame, so what is left is amortised growth of the result vectors.
//!
//! The counter is process-wide, so this file holds a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use tpp::apps::microburst::MicroburstMonitor;
use tpp::apps::ndb::{NdbProbeSender, TraceCollector};
use tpp::apps::{CounterTask, CounterWriteMode};
use tpp::host::EchoReceiver;
use tpp::netsim::{
    leaf_spine_with, time, HostApp, HostId, LeafSpineParams, RunLimit, SimConfig, Simulator,
};
use tpp::wire::EthernetAddress;

/// Counts every allocation and reallocation, then defers to `System`.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const HOSTS_PER_LEAF: usize = 4;
const SENDERS: usize = 8;
const PROBE_GAP_NS: u64 = 10_000;

#[derive(Clone, Copy, PartialEq)]
enum Role {
    Monitor,
    Ndb,
    Writer,
}

fn role(i: usize) -> Role {
    match i % 4 {
        0 => Role::Monitor,
        1 => Role::Ndb,
        _ => Role::Writer,
    }
}

/// Sender `i` probes host `i + SENDERS`, on the far half of the fabric.
fn build() -> Simulator {
    let apps: Vec<Box<dyn HostApp>> = (0..2 * SENDERS)
        .map(|i| -> Box<dyn HostApp> {
            let peer = EthernetAddress::from_host_id((i + SENDERS) as u32);
            match (i < SENDERS, role(i % SENDERS)) {
                (true, Role::Monitor) => Box::new(MicroburstMonitor::new(
                    peer,
                    3,
                    PROBE_GAP_NS,
                    i as u64 * 1_000,
                    u64::MAX,
                )),
                (true, Role::Ndb) => Box::new(NdbProbeSender::new(peer, 3, PROBE_GAP_NS, u32::MAX)),
                // Writers gate on their own leaf, numbered 0x10 + leaf.
                (true, Role::Writer) => Box::new(CounterTask::new(
                    peer,
                    0x10 + (i / HOSTS_PER_LEAF) as u32,
                    0,
                    u32::MAX,
                    CounterWriteMode::Linearizable,
                )),
                (false, Role::Ndb) => Box::new(TraceCollector::default()),
                (false, _) => Box::new(EchoReceiver::default()),
            }
        })
        .collect();
    let params = LeafSpineParams {
        n_leaves: 4,
        n_spines: 2,
        hosts_per_leaf: HOSTS_PER_LEAF,
        ..Default::default()
    };
    leaf_spine_with(SimConfig::new().sequential(), params, apps).0
}

/// `(round trips delivered, ndb traces kept)` so far, over all senders.
fn delivered(sim: &Simulator) -> (u64, u64) {
    let (mut ops, mut traces) = (0, 0);
    for i in 0..SENDERS {
        match role(i) {
            Role::Monitor => ops += sim.host_app::<MicroburstMonitor>(HostId(i)).echoes_received,
            Role::Ndb => {
                let kept = sim
                    .host_app::<TraceCollector>(HostId(i + SENDERS))
                    .traces
                    .len() as u64;
                ops += kept;
                traces += kept;
            }
            Role::Writer => ops += sim.host_app::<CounterTask>(HostId(i)).round_trips,
        }
    }
    (ops, traces)
}

#[test]
fn steady_state_round_trips_do_not_allocate() {
    let mut sim = build();
    sim.run(RunLimit::Until(time::millis(2)));
    let (ops0, traces0) = delivered(&sim);
    let allocs0 = ALLOCATIONS.load(Ordering::Relaxed);
    sim.run(RunLimit::Until(time::millis(12)));
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs0;
    let (ops1, traces1) = delivered(&sim);
    let ops = ops1 - ops0;
    assert!(ops > 5_000, "too few round trips to measure: {ops}");
    let increments: u32 = (0..SENDERS)
        .filter(|&i| role(i) == Role::Writer)
        .map(|i| sim.host_app::<CounterTask>(HostId(i)).completed)
        .sum();
    assert!(increments > 0, "the writers' increments never applied");
    // Each trace the collector keeps owns its hop list: that is the
    // collector's output, one allocation per trace, not round-trip cost.
    let overhead = allocs.saturating_sub(traces1 - traces0);
    let per_op = overhead as f64 / ops as f64;
    assert!(
        per_op <= 0.1,
        "{overhead} allocations beyond kept traces over {ops} round trips ({per_op:.3}/op)"
    );
}
