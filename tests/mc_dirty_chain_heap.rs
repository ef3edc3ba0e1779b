//! Heap budget of `mc-selective`'s dirty chain: an exact, host-independent
//! memory counter as a tier-1 gate.
//!
//! A chain of dirty restarts materializes each harvested delta image only
//! when its state boots. At most two machines are alive: the pilot, which
//! runs from the first state to the end, and the state stepping beside it
//! until it joins — whichever flushed index it booted at. A machine owns
//! its image as its NVM pool, so two machines are two images plus their
//! caches; the pilot's shadows of its followers' stream detectors are
//! 152 B each. A thread-local counting allocator records the chain's
//! peak of live heap bytes and holds it to two machines, each as large as
//! one restart alone gets: a chain that materialized an image ahead of its
//! turn (one image more) or kept a third machine fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use adcc::core::mc::sim::{McMode, McSim};
use adcc::core::mc::{sites, McProblem};
use adcc::sim::crash::{poll_groups, CrashEmulator, CrashSite, CrashTrigger};
use adcc::sim::image::DeltaImage;
use adcc::sim::system::{MemorySystem, SystemConfig};

/// Counts the live heap bytes of the calling thread and their peak.
struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn track(delta: i64) {
    // A thread being torn down has no counter left to move.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the most heap it held at once on this thread, above
/// what was live when it started.
fn peak_heap<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let out = f();
    (out, (PEAK.with(Cell::get) - before) as u64)
}

const LOOKUPS: u64 = 1_200;

/// The `mc-selective` campaign scenario's run: its problem, platform, loop
/// length, seed and flush interval.
fn selective() -> (McProblem, SystemConfig, McMode) {
    let problem = McProblem::generate(36, 64, 305);
    let nvm = (problem.grid_bytes() + (1 << 20)).next_power_of_two();
    let mut cfg = SystemConfig::nvm_only(16 << 10, nvm);
    cfg.dram_capacity = 2 << 20;
    (problem, cfg, McMode::Selective { interval: 64 })
}

#[test]
fn a_selective_dirty_chain_holds_two_machines_at_most() {
    let (problem, cfg, mode) = selective();
    let mut sys = MemorySystem::new(cfg.clone());
    let mc = McSim::setup(&mut sys, problem, LOOKUPS, 42, mode);
    let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
    // Twenty states over the first half of the run: runs of two or three
    // per flushed index, ten indices in all.
    let units: Vec<u64> = (0..20).map(|k| 10 + 30 * k).collect();
    emu.arm_harvest(units.iter().map(|&u| {
        let site = CrashSite::new(sites::PH_LOOKUP, u);
        (
            CrashTrigger::AtSite {
                site,
                occurrence: 1,
            },
            u,
        )
    }));
    assert!(mc.run(&mut emu, 0, LOOKUPS).completed().is_some());
    let harvests = emu.take_harvests();
    let states: Vec<&DeltaImage> = poll_groups(&harvests)
        .map(|group| &group[0].image)
        .collect();
    assert_eq!(states.len(), units.len());
    let mut indices: Vec<u64> = states
        .iter()
        .map(|image| image.read_u64(mc.idx_cell.addr()))
        .collect();
    indices.dedup();
    assert!(indices.len() >= 5, "flushed indices {indices:?}");
    drop(emu);

    // One image, and one machine: the first state's restart alone, its
    // image materialized and booted, run to the end of the loop.
    let (_, image) = peak_heap(|| states[0].materialize());
    let (alone, machine) = peak_heap(|| mc.dirty_chain(&cfg, [states[0]]));
    let (chain, peak) = peak_heap(|| mc.dirty_chain(&cfg, states.iter().copied()));
    eprintln!(
        "peak {peak} B over {} states: a machine {machine} B, an image {image} B",
        states.len()
    );
    assert_eq!(chain.answers[0], alone.answers[0]);
    // The followers did step beside the pilot: more than its run was
    // simulated.
    assert!(chain.simulated_accesses > alone.simulated_accesses);
    // What is held to the bound: a third machine or an image ahead would
    // cross it by most of an image.
    assert!(machine > image && machine < 2 * image);
    assert!(
        peak <= 2 * machine,
        "the chain held {peak} B at its peak: two machines are {} B, an image {image} B",
        2 * machine
    );
}
