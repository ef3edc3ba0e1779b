//! Mutation-testing half of the analyzer's validity proof, sim side.
//!
//! The same epoch-publish protocol runs twice — as written, and with the
//! drop-persist hook skipping the fence the epoch barrier issues, so its
//! lines are flushed but never ordered. The persist-order sanitizer must
//! stay silent on the first and flag the second with the correct category
//! (`missing-fence`).

use adcc_analyze::{analyze, Checks, Diagnostic, Region, Role};
use adcc_sim::epoch::EpochPersist;
use adcc_sim::events::EventRecorder;
use adcc_sim::hook::{self, Op};
use adcc_sim::line::LINE_SIZE;
use adcc_sim::system::{MemorySystem, SystemConfig};

/// Dirty four lines, publish them through an epoch barrier, and return
/// the sanitizer's protocol diagnostics.
fn epoch_publish_diagnostics() -> Vec<Diagnostic> {
    let mut s = MemorySystem::new(SystemConfig::nvm_only(4096, 1 << 20));
    let a = s.alloc_nvm(4 * LINE_SIZE);
    let mut rec = EventRecorder::new();
    rec.track_range(a, 4 * LINE_SIZE);
    s.attach_recorder(rec);

    for i in 0..4u64 {
        s.write_bytes(a + i * LINE_SIZE as u64, &[i as u8 + 1; 8]);
    }
    let mut e = EpochPersist::new();
    e.note_range(a, 4 * LINE_SIZE);
    e.barrier(&mut s);

    let rec = s.take_recorder().expect("recorder attached");
    let regions = vec![Region::from_range(
        "epoch/payload",
        a,
        4 * LINE_SIZE,
        Role::Payload,
        0,
        Checks::ALL,
    )];
    analyze(rec.events(), &regions).protocol
}

#[test]
fn clean_epoch_publish_reports_zero_diagnostics() {
    let diags = epoch_publish_diagnostics();
    assert!(diags.is_empty(), "clean tree must be silent: {diags:?}");
}

#[test]
fn dropped_epoch_fence_is_flagged_as_missing_fence() {
    use adcc_analyze::Category;
    let (_, sites) = hook::record(epoch_publish_diagnostics);
    let fence = *sites
        .iter()
        .find(|s| s.op == Op::Fence && s.at.file().ends_with("epoch.rs"))
        .expect("the barrier fences");
    let diags = hook::mutating(fence, epoch_publish_diagnostics);
    assert_eq!(diags.len(), 4, "one open window per line: {diags:?}");
    assert!(
        diags.iter().all(|d| d.category == Category::MissingFence),
        "wrong category: {diags:?}"
    );
    assert!(diags.iter().all(|d| d.region == "epoch/payload"));
}
