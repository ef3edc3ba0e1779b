//! LU under the baseline mechanisms: per-block checkpointing and
//! PMDK-style undo-log transactions, both configured for at-most-one-block
//! recomputation (the paper's fairness condition).

use adcc_ckpt::manager::CkptManager;
use adcc_pmem::undo::UndoPool;
use adcc_sim::crash::{CrashEmulator, CrashSite, RunOutcome};

use super::checksum_lu::ChecksumLu;
use super::sites;

/// Run the factorization natively (checksums still computed — the ABFT
/// arithmetic is part of the kernel — but nothing is flushed).
pub fn run_native(emu: &mut CrashEmulator, lu: &ChecksumLu) -> RunOutcome<()> {
    for b in 0..lu.blocks() {
        let cols = b * lu.bk..((b + 1) * lu.bk).min(lu.n);
        for c in cols {
            lu.process_column(emu, c);
            if emu.poll(CrashSite::new(sites::PH_AFTER_COL, c as u64)) {
                return RunOutcome::Crashed(emu.crash_now());
            }
        }
        if emu.poll(CrashSite::new(sites::PH_BLOCK_END, b as u64)) {
            return RunOutcome::Crashed(emu.crash_now());
        }
    }
    RunOutcome::Completed(())
}

/// Run with a full checkpoint of the factor after every block.
pub fn run_with_ckpt(
    emu: &mut CrashEmulator,
    lu: &ChecksumLu,
    mgr: &mut CkptManager,
) -> RunOutcome<()> {
    for b in 0..lu.blocks() {
        let cols = b * lu.bk..((b + 1) * lu.bk).min(lu.n);
        for c in cols {
            lu.process_column(emu, c);
            if emu.poll(CrashSite::new(sites::PH_AFTER_COL, c as u64)) {
                return RunOutcome::Crashed(emu.crash_now());
            }
        }
        lu.blk_cell.set(emu, (b + 1) as u64);
        mgr.checkpoint(emu);
        if emu.poll(CrashSite::new(sites::PH_BLOCK_END, b as u64)) {
            return RunOutcome::Crashed(emu.crash_now());
        }
    }
    RunOutcome::Completed(())
}

/// Restore from the newest checkpoint, or wipe the factor back to zeros
/// when none exists yet. Returns `(completed_blocks, restored)`.
pub fn ckpt_restore(emu: &mut CrashEmulator, lu: &ChecksumLu, mgr: &CkptManager) -> (usize, bool) {
    match mgr.restore(emu) {
        Some(_) => (lu.blk_cell.get(emu) as usize, true),
        None => {
            // No checkpoint: wipe the factor back to zeros.
            let zero = vec![0.0f64; lu.n + 1];
            for j in 0..lu.n {
                lu.f.row(j).store_slice(emu, &zero);
            }
            (0, false)
        }
    }
}

/// Restore from the newest checkpoint and resume. Returns the number of
/// blocks re-executed.
pub fn ckpt_restore_and_resume(
    emu: &mut CrashEmulator,
    lu: &ChecksumLu,
    mgr: &mut CkptManager,
) -> u64 {
    let (start, _) = ckpt_restore(emu, lu, mgr);
    let mut executed = 0u64;
    for b in start..lu.blocks() {
        let cols = b * lu.bk..((b + 1) * lu.bk).min(lu.n);
        for c in cols {
            lu.process_column(emu, c);
        }
        executed += 1;
    }
    executed
}

/// The checkpointable regions for the checkpoint variant: the whole
/// factor, the `U` digests, and the progress counter.
pub fn lu_ckpt_regions(lu: &ChecksumLu) -> Vec<(u64, usize)> {
    vec![
        (lu.f.array().base(), lu.f.array().byte_len()),
        (lu.cs_u.base(), lu.cs_u.byte_len()),
        (lu.blk_cell.addr(), 8),
    ]
}

/// Run with each block wrapped in an undo-log transaction covering the
/// block's columns (the naive PMDK port — left-looking writes exactly the
/// block, so the transaction ranges are the block's columns).
pub fn run_with_pmem(
    emu: &mut CrashEmulator,
    lu: &ChecksumLu,
    pool: &mut UndoPool,
) -> RunOutcome<()> {
    for b in 0..lu.blocks() {
        let cols = b * lu.bk..((b + 1) * lu.bk).min(lu.n);
        pool.tx_begin(emu);
        for c in cols.clone() {
            pool.tx_add_range(emu, lu.f.row(c).base(), (lu.n + 1) * 8);
            pool.tx_add_range(emu, lu.cs_u.addr(c), 8);
        }
        pool.tx_add_range(emu, lu.blk_cell.addr(), 8);
        for c in cols {
            lu.process_column(emu, c);
        }
        lu.blk_cell.set(emu, (b + 1) as u64);
        pool.tx_commit(emu);
        if emu.poll(CrashSite::new(sites::PH_BLOCK_END, b as u64)) {
            return RunOutcome::Crashed(emu.crash_now());
        }
    }
    RunOutcome::Completed(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::host::{dominant_matrix, lu_host};
    use adcc_sim::crash::CrashTrigger;
    use adcc_sim::system::{MemorySystem, SystemConfig};

    fn cfg() -> SystemConfig {
        SystemConfig::nvm_only(8 << 10, 64 << 20)
    }

    #[test]
    fn native_matches_host() {
        let a = dominant_matrix(16, 41);
        let mut sys = MemorySystem::new(cfg());
        let lu = ChecksumLu::setup(&mut sys, &a, 4);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        run_native(&mut emu, &lu).completed().unwrap();
        assert!(lu.peek_factor(&emu).max_abs_diff(&lu_host(&a)) < 1e-10);
    }

    #[test]
    fn ckpt_crash_restores_block_granular() {
        let a = dominant_matrix(16, 42);
        let mut sys = MemorySystem::new(cfg());
        let lu = ChecksumLu::setup(&mut sys, &a, 4);
        let mut mgr = CkptManager::new_nvm(&mut sys, lu_ckpt_regions(&lu), false);
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_AFTER_COL, 9),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = run_with_ckpt(&mut emu, &lu, &mut mgr).crashed().unwrap();
        let sys2 = MemorySystem::from_image(cfg(), &image);
        let mut emu2 = CrashEmulator::from_system(sys2, CrashTrigger::Never);
        let redone = ckpt_restore_and_resume(&mut emu2, &lu, &mut mgr);
        assert_eq!(redone, 2, "blocks 2 and 3 re-run after restore at 2");
        assert!(lu.peek_factor(&emu2).max_abs_diff(&lu_host(&a)) < 1e-10);
    }

    #[test]
    fn pmem_variant_matches_host_and_costs_more() {
        let a = dominant_matrix(16, 43);

        let mut sys = MemorySystem::new(cfg());
        let lu = ChecksumLu::setup(&mut sys, &a, 4);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        let t0 = emu.now();
        run_native(&mut emu, &lu).completed().unwrap();
        let native_time = (emu.now() - t0).ps();

        let mut sys = MemorySystem::new(cfg());
        let lu = ChecksumLu::setup(&mut sys, &a, 4);
        let lines = 4 * (lu.n + 1) + 16;
        let mut pool = UndoPool::new(&mut sys, lines);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        let t0 = emu.now();
        run_with_pmem(&mut emu, &lu, &mut pool).completed().unwrap();
        let pmem_time = (emu.now() - t0).ps();

        assert!(lu.peek_factor(&emu).max_abs_diff(&lu_host(&a)) < 1e-10);
        assert!(
            pmem_time > native_time,
            "undo logging must cost more: {pmem_time} vs {native_time}"
        );
    }
}
