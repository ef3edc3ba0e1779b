//! Mutation-testing half of the analyzer's validity proof, ds side.
//!
//! Two seeded mutants, each a classic persistent-data-structure bug:
//!
//! - the drop-persist hook skips `PAlloc::reinit`'s ordered head persist
//!   → the hottest metadata line is still dirty when the fence retires
//!   (`unpersisted-store`).
//! - the seeded bug in `Checkpoint::store` (`hook::seeded`) persists the
//!   *stale* slot line instead of the one it just wrote → the two-slot
//!   publish is reordered (`redundant-flush` on the clean line, plus an
//!   `unpersisted-store` on the written one).
//!
//! The clean tree must be silent on both protocols.

use adcc_analyze::{analyze, Checks, Diagnostic, Region, Role};
use adcc_ds::{Checkpoint, PAlloc};
use adcc_sim::events::EventRecorder;
use adcc_sim::hook::{self, Op};
use adcc_sim::line::LINE_SIZE;
use adcc_sim::system::{MemorySystem, SystemConfig};

fn sys() -> MemorySystem {
    MemorySystem::new(SystemConfig::nvm_only(4096, 1 << 20))
}

/// Reinitialize an 8-block allocator under the recorder, through
/// `reinit`, and return the sanitizer's protocol diagnostics.
fn alloc_reinit_diagnostics(reinit: impl FnOnce(&PAlloc, &mut MemorySystem)) -> Vec<Diagnostic> {
    let mut s = sys();
    let a = PAlloc::new(&mut s, 8);
    let layout = a.layout();
    let mut rec = EventRecorder::new();
    rec.track_range(layout.head_base, LINE_SIZE);
    rec.track_range(layout.next_base, 8 * 8);
    s.attach_recorder(rec);
    reinit(&a, &mut s);
    let rec = s.take_recorder().expect("recorder attached");
    let regions = vec![
        Region::from_range(
            "ds/alloc-head",
            layout.head_base,
            LINE_SIZE,
            Role::Payload,
            0,
            Checks::ALL,
        ),
        Region::from_range(
            "ds/alloc-next",
            layout.next_base,
            8 * 8,
            Role::Payload,
            0,
            Checks::ALL,
        ),
    ];
    analyze(rec.events(), &regions).protocol
}

/// Store one value through the two-slot checkpoint under the recorder
/// and return the sanitizer's protocol diagnostics.
fn ckpt_store_diagnostics() -> Vec<Diagnostic> {
    let mut s = sys();
    let ck = Checkpoint::new(&mut s);
    let [slot_a, slot_b] = ck.line_addrs();
    let mut rec = EventRecorder::new();
    rec.track_range(slot_a, LINE_SIZE);
    rec.track_range(slot_b, LINE_SIZE);
    s.attach_recorder(rec);
    ck.store(&mut s, 7);
    let rec = s.take_recorder().expect("recorder attached");
    let regions = vec![
        Region::from_range(
            "ds/ckpt-slot-a",
            slot_a,
            LINE_SIZE,
            Role::Payload,
            0,
            Checks::ALL,
        ),
        Region::from_range(
            "ds/ckpt-slot-b",
            slot_b,
            LINE_SIZE,
            Role::Payload,
            0,
            Checks::ALL,
        ),
    ];
    analyze(rec.events(), &regions).protocol
}

#[test]
fn clean_alloc_reinit_reports_zero_diagnostics() {
    let diags = alloc_reinit_diagnostics(|a, s| a.reinit(s));
    assert!(diags.is_empty(), "clean tree must be silent: {diags:?}");
}

#[test]
fn clean_ckpt_store_reports_zero_diagnostics() {
    let diags = ckpt_store_diagnostics();
    assert!(diags.is_empty(), "clean tree must be silent: {diags:?}");
}

#[test]
fn skipped_head_persist_is_flagged_as_unpersisted_store() {
    use adcc_analyze::Category;
    let mut sites = Vec::new();
    alloc_reinit_diagnostics(|a, s| sites = hook::record(|| a.reinit(s)).1);
    // `reinit` persists the link array, then the head.
    let persists: Vec<_> = sites
        .into_iter()
        .filter(|s| s.op == Op::Flush && s.at.file().ends_with("alloc.rs"))
        .collect();
    assert_eq!(persists.len(), 2, "{persists:?}");
    let head = persists[1];
    let diags = alloc_reinit_diagnostics(|a, s| hook::mutating(head, || a.reinit(s)));
    assert!(!diags.is_empty(), "mutant must be caught");
    assert!(
        diags
            .iter()
            .all(|d| d.category == Category::UnpersistedStore && d.region == "ds/alloc-head"),
        "wrong category or region: {diags:?}"
    );
}

#[test]
fn reordered_two_slot_publish_is_flagged() {
    use adcc_analyze::Category;
    let (_, sites) = hook::record(ckpt_store_diagnostics);
    let seeds: Vec<_> = sites.into_iter().filter(|s| s.op == Op::Seed).collect();
    assert_eq!(seeds.len(), 1, "{seeds:?}");
    let diags = hook::mutating(seeds[0], ckpt_store_diagnostics);
    assert!(
        diags.iter().any(|d| d.category == Category::RedundantFlush),
        "the stale-slot flush must be flagged redundant: {diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.category == Category::UnpersistedStore),
        "the written slot must be flagged unpersisted: {diags:?}"
    );
}
