//! Allocation budget of the dist message path (ROADMAP item 6(a)'s pattern:
//! an exact, host-independent work counter as a tier-1 gate).
//!
//! A counting global allocator pins how many heap allocations one chaotic
//! dist crash state costs, and that a warm fabric send/receive round trip
//! costs none. The count is thread-local, so tests running in parallel
//! cannot pollute it; the campaign runs at `threads: 1`, which drives every
//! task on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use adcc::campaign::engine::{run_campaign, CampaignConfig};
use adcc::campaign::scenario::Registry;
use adcc::campaign::schedule::Schedule;
use adcc::dist::net::{Fabric, FaultProfile, NetTiming};
use adcc::sim::system::{MemorySystem, SystemConfig};

/// Counts the allocations and reallocations of the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Allocations (and reallocations) per crash state of the chaotic campaign
/// below, rounded up: 477 while every message allocated its encoded
/// buffer, its queue slot and its decoded copy; 166 with the fabric's
/// in-flight arena. A change that allocates more per state fails here.
const BUDGET_PER_STATE: u64 = 166;

fn chaotic(seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed,
        budget_states: 1500,
        schedule: Schedule::Stratified,
        threads: 1,
        telemetry: false,
        dense_units: 80,
        registry: Registry::Dist,
        faults: FaultProfile::Chaotic,
        ..CampaignConfig::default()
    }
}

#[test]
fn a_chaotic_dist_crash_state_stays_inside_its_allocation_budget() {
    // The warm-up touches every lazily built table once.
    run_campaign(&chaotic(42));
    let (report, n) = allocations(|| run_campaign(&chaotic(43)));
    let states = report.totals.total();
    assert_eq!(states, 1500);
    let per_state = n.div_ceil(states);
    eprintln!("{n} allocations over {states} crash states: {per_state} per state");
    assert!(
        per_state <= BUDGET_PER_STATE,
        "{per_state} allocations per chaotic crash state (budget {BUDGET_PER_STATE})"
    );
}

#[test]
fn a_warm_fabric_round_trip_allocates_nothing() {
    let plan = FaultProfile::Chaotic.plan(9);
    let mut fabric = Fabric::with_faults(4, NetTiming::cluster_2017(), 7, plan);
    let mut systems: Vec<MemorySystem> = (0..4)
        .map(|_| MemorySystem::new(SystemConfig::nvm_only(4 << 10, 1 << 16)))
        .collect();
    let mut round = |fabric: &mut Fabric| {
        let pairs = [(0, 1), (1, 2), (3, 0), (0, 1)];
        for (i, &(src, dst)) in pairs.iter().enumerate() {
            fabric.send_with(&mut systems[src], src, dst, |_, out| {
                out.extend((0..6).map(|k| (i * 6 + k) as f64));
            });
        }
        let mut sum = 0.0;
        for &(src, dst) in &pairs {
            sum += fabric.recv_with(&mut systems[dst], src, dst, |_, vals| {
                vals.iter().sum::<f64>()
            });
        }
        assert_eq!(sum, (0..24).sum::<usize>() as f64);
    };
    // The first round grows the arenas to their working size.
    round(&mut fabric);
    let ((), n) = allocations(|| {
        for _ in 0..100 {
            round(&mut fabric);
        }
    });
    assert_eq!(n, 0, "a warm fabric allocates nothing per message");
}
