//! Mutation-testing half of the analyzer's validity proof, pmem side.
//!
//! With the drop-persist hook skipping `UndoPool::tx_commit`'s data
//! writeback, commit truncates the log (persist state = IDLE — the
//! publishing store recovery trusts) before the transaction's data lines
//! are durable: the classic commit-before-data bug. With the pool state
//! line declared `Role::Publish` and the data `Role::Payload` in the same
//! group, the sanitizer must flag an `ordering-race` at the truncation
//! fence — and stay silent on the clean tree.

use adcc_analyze::{analyze, Checks, Diagnostic, Region, Role};
use adcc_pmem::UndoPool;
use adcc_sim::events::EventRecorder;
use adcc_sim::hook::{self, Op};
use adcc_sim::line::LINE_SIZE;
use adcc_sim::parray::PArray;
use adcc_sim::system::{MemorySystem, SystemConfig};

/// Run one undo transaction over two data lines under the recorder,
/// committing through `commit`, and return the sanitizer's protocol
/// diagnostics.
fn tx_commit_diagnostics(commit: impl FnOnce(&mut UndoPool, &mut MemorySystem)) -> Vec<Diagnostic> {
    let mut s = MemorySystem::new(SystemConfig::nvm_only(4096, 1 << 20));
    let data = PArray::<u64>::alloc_nvm(&mut s, 16); // two lines
    data.fill(&mut s, 0);
    data.persist_all(&mut s);
    s.sfence();
    let mut pool = UndoPool::new(&mut s, 8);
    let layout = pool.layout();

    let mut rec = EventRecorder::new();
    rec.track_range(data.base(), 2 * LINE_SIZE);
    rec.track_range(layout.state_addr, 8);
    s.attach_recorder(rec);

    pool.tx_begin(&mut s);
    pool.tx_add_range(&mut s, data.addr(0), 2 * LINE_SIZE);
    for i in 0..16 {
        data.set(&mut s, i, i as u64 + 1);
    }
    commit(&mut pool, &mut s);

    let rec = s.take_recorder().expect("recorder attached");
    let no_redundant = Checks {
        // tx state flips IDLE->ACTIVE->IDLE with a persist each time;
        // the second persist legitimately follows a fresh store, but the
        // data lines are re-flushed by eviction-order variance — keep
        // the check focused on the mutant's categories.
        redundant_flush: false,
        ..Checks::ALL
    };
    let regions = vec![
        Region::from_range(
            "pmem/tx-data",
            data.base(),
            2 * LINE_SIZE,
            Role::Payload,
            0,
            no_redundant,
        ),
        Region::from_range(
            "pmem/tx-state",
            layout.state_addr,
            8,
            Role::Publish,
            0,
            no_redundant,
        ),
    ];
    analyze(rec.events(), &regions).protocol
}

#[test]
fn clean_tx_commit_reports_zero_diagnostics() {
    let diags = tx_commit_diagnostics(|p, s| p.tx_commit(s));
    assert!(diags.is_empty(), "clean tree must be silent: {diags:?}");
}

#[test]
fn skipped_commit_writeback_is_flagged_as_ordering_race() {
    use adcc_analyze::Category;
    let mut sites = Vec::new();
    tx_commit_diagnostics(|p, s| sites = hook::record(|| p.tx_commit(s)).1);
    // Commit writes the data back first, then truncates the log.
    let writeback = *sites
        .iter()
        .find(|s| s.op == Op::Flush && s.at.file().ends_with("undo.rs"))
        .expect("commit persists");
    let diags = tx_commit_diagnostics(|p, s| hook::mutating(writeback, || p.tx_commit(s)));
    assert!(
        diags
            .iter()
            .any(|d| d.category == Category::OrderingRace && d.region == "pmem/tx-state"),
        "the log truncation must race ahead of the data: {diags:?}"
    );
}
