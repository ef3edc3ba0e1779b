//! The classic checkpoint-overhead mitigations from the paper's
//! introduction ([1]–[10]), exercised on one workload: full NVM
//! double-buffering, page-incremental, two-level local+remote, and
//! diskless N+1 parity — including the failure modes each one covers.
//!
//! Run with: `cargo run --release --example checkpoint_strategies`

use adcc::prelude::*;

fn main() {
    let cfg = SystemConfig::nvm_only(16 << 10, 16 << 20);
    let mut sys = MemorySystem::new(cfg.clone());

    // Application state: a vector evolving over steps.
    let x = PArray::<f64>::alloc_nvm(&mut sys, 512);
    for i in 0..512 {
        x.set(&mut sys, i, i as f64);
    }
    let regions = vec![(x.base(), x.byte_len())];

    // --- 1. Full double-buffered NVM checkpoint -------------------------
    let full = MemCheckpoint::new(&mut sys, x.byte_len(), false);
    let seq = full.checkpoint(&mut sys, &regions);
    println!("[full]        checkpoint seq {seq} taken");

    // --- 2. Incremental: only dirty pages are re-copied -----------------
    let mut inc = IncrementalCheckpoint::new(&mut sys, regions.clone(), 1024, false);
    inc.checkpoint(&mut sys); // slot A: full
    inc.checkpoint(&mut sys); // slot B: full
    x.set(&mut sys, 7, 777.0);
    inc.mark_dirty(x.addr(7), 8);
    let rep = inc.checkpoint(&mut sys);
    println!(
        "[incremental] seq {}: copied {}/{} pages after a 1-element update",
        rep.seq, rep.pages_copied, rep.pages_total
    );

    // --- 3. Two-level: local NVM + remote node --------------------------
    let mut remote = RemoteStore::new();
    let mut ml = MultilevelCheckpoint::new(
        &mut sys,
        x.byte_len(),
        false,
        2,
        RemoteTiming::burst_buffer(),
    );
    ml.checkpoint(&mut sys, &regions, &mut remote); // local only
    let r = ml.checkpoint(&mut sys, &regions, &mut remote); // local + remote
    println!(
        "[two-level]   seq {} shipped_remote={} (remote holds seq {:?})",
        r.seq,
        r.shipped_remote,
        remote.seq()
    );

    // Node loss: local NVM gone, restore from the remote copy on a fresh
    // machine.
    let mut fresh = MemorySystem::new(cfg.clone());
    let _shadow = PArray::<f64>::alloc_nvm(&mut fresh, 512); // same layout
    let got = MultilevelCheckpoint::restore_from_remote(
        &mut fresh,
        &regions,
        &remote,
        RemoteTiming::burst_buffer(),
    );
    println!(
        "[two-level]   after node loss: restored seq {:?}, x[7] = {}",
        got,
        x.get(&mut fresh, 7)
    );

    // --- 4. Diskless N+1 parity -----------------------------------------
    let mut parity = ParityNode::new();
    let mut dl = DisklessCheckpoint::new(4, x.byte_len(), RemoteTiming::burst_buffer());
    let seq = dl.checkpoint(&mut sys, &regions, &mut parity);
    println!("[diskless]    group checkpoint seq {seq} (parity over 4 ranks)");

    // Rank 0's node dies; rebuild its checkpoint from parity + peers.
    let mut fresh = MemorySystem::new(cfg);
    let _shadow = PArray::<f64>::alloc_nvm(&mut fresh, 512);
    let got = DisklessCheckpoint::reconstruct_rank0(
        &mut fresh,
        &regions,
        4,
        RemoteTiming::burst_buffer(),
        &parity,
    );
    println!(
        "[diskless]    reconstructed seq {:?} from XOR parity, x[7] = {}",
        got,
        x.get(&mut fresh, 7)
    );
    assert_eq!(x.get(&mut fresh, 7), 777.0);

    println!("\nEvery strategy pays a copy (and sometimes a network) bill per step;");
    println!("`repro ckpt-strategies` quantifies them against the algorithm-directed approach.");
}
