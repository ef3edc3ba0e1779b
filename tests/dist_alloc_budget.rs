//! Allocation budget of the dist message path: an exact, host-independent
//! work counter as a tier-1 gate.
//!
//! A counting global allocator pins how many heap allocations one chaotic
//! dist crash state costs, and that a warm fabric send/receive round trip
//! and a fork into a warm spare cluster cost none. The count is thread-local, so tests running in parallel
//! cannot pollute it; the campaign runs at `threads: 1`, which drives every
//! task on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use adcc::campaign::engine::{run_campaign, CampaignConfig};
use adcc::campaign::scenario::Registry;
use adcc::campaign::schedule::Schedule;
use adcc::dist::cluster::RankFailure;
use adcc::dist::net::{Fabric, FaultProfile, NetTiming};
use adcc::dist::stencil::{DistStencil, StencilConfig};
use adcc::dist::trial::{run_superstep, DistKernel, RecoveryMode};
use adcc::sim::crash::{CrashSite, CrashTrigger};
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
/// in-flight arena; 55 once every replay of a batch forks into one spare
/// cluster and resume states are gathered a line at a time. A change that
/// allocates more per state fails here.
const BUDGET_PER_STATE: u64 = 55;

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

#[test]
fn a_recycled_fork_allocates_nothing() {
    let cfg = StencilConfig::campaign_for(RecoveryMode::AlgorithmDirected, FaultProfile::Chaotic);
    let mut live = adcc::dist::Cluster::new(cfg.cluster(), None);
    let mut kernel = DistStencil::setup(&mut live, cfg);
    for iter in 1..=3 {
        assert!(run_superstep(&mut kernel, &mut live, iter, true).is_none());
    }
    let armed = [RankFailure::node_loss(
        5,
        CrashTrigger::AtSite {
            site: CrashSite::new(adcc::dist::sites::PH_MID, 6),
            occurrence: 1,
        },
    )];
    // The spare replays a superstep of its own, then takes one fork: from
    // then on it holds everything a fork of this instant needs.
    let mut spare = live.fork();
    assert!(run_superstep(&mut kernel.clone(), &mut spare, 4, true).is_none());
    live.fork_armed_into(&armed, &mut spare);
    let ((), n) = allocations(|| live.fork_armed_into(&armed, &mut spare));
    assert_eq!(n, 0, "a fork into a warm spare allocates nothing");
    assert!(spare.armed_pending() && spare.node_loss(5));
    assert!(kernel.iters() > 6, "the armed site lies ahead");
}
