//! LU under the baseline mechanisms, one unit per block: what
//! [`ChecksumLu`] states of [`Baseline`]. The loops are
//! [`crate::baseline`]'s. (Natively the checksums are still computed — the
//! ABFT arithmetic is part of the kernel — but nothing is flushed.)

use adcc_linalg::dense::Matrix;
use adcc_pmem::undo::UndoPool;
use adcc_sim::crash::{CrashEmulator, CrashSite, RunOutcome};
use adcc_sim::parray::PScalar;
use adcc_sim::system::MemorySystem;

use super::checksum_lu::ChecksumLu;
use super::sites;
use crate::baseline::{Baseline, Poll};

impl Baseline for ChecksumLu {
    type Carry = ();
    type Answer = Matrix;

    fn units(&self) -> usize {
        self.blocks()
    }

    fn end_site(&self, b: usize) -> CrashSite {
        CrashSite::new(sites::PH_BLOCK_END, b as u64)
    }

    fn unit(&self, emu: &mut CrashEmulator, b: usize, (): ()) -> RunOutcome<()> {
        if self.block_crashes(emu, b, |emu, site| emu.poll(site)) {
            return RunOutcome::Crashed(emu.crash_now());
        }
        RunOutcome::Completed(())
    }

    fn progress(&self) -> PScalar<u64> {
        self.blk_cell
    }

    fn store_carry(&self, _: &mut MemorySystem, (): ()) {}

    fn load_carry(&self, _: &mut MemorySystem) {}

    /// The whole factor, the `U` digests, and the progress counter.
    fn regions(&self) -> Vec<(u64, usize)> {
        vec![
            (self.f.array().base(), self.f.array().byte_len()),
            (self.cs_u.base(), self.cs_u.byte_len()),
            (self.blk_cell.addr(), 8),
        ]
    }

    /// Wipe the factor back to zeros.
    fn reinit(&self, sys: &mut MemorySystem) {
        let zero = vec![0.0f64; self.n + 1];
        for j in 0..self.n {
            self.f.row(j).store_slice(sys, &zero);
        }
    }

    fn log_lines(&self) -> usize {
        self.bk * (self.n + 1)
    }

    /// Left-looking writes exactly the block, so the transaction's ranges
    /// are the block's columns (the naive PMDK port).
    fn tx_open(&self, sys: &mut MemorySystem, pool: &mut UndoPool, b: usize) {
        for c in self.block_cols(b) {
            pool.tx_add_range(sys, self.f.row(c).base(), (self.n + 1) * 8);
            pool.tx_add_range(sys, self.cs_u.addr(c), 8);
        }
        pool.tx_add_range(sys, self.blk_cell.addr(), 8);
    }

    fn unit_logged<P: Poll>(
        &self,
        emu: &mut CrashEmulator,
        pool: &mut UndoPool,
        b: usize,
        (): (),
        poll: &mut P,
    ) -> RunOutcome<()> {
        if self.block_crashes(emu, b, |emu, site| poll(emu, pool, site)) {
            return RunOutcome::Crashed(emu.crash_now());
        }
        RunOutcome::Completed(())
    }

    fn peek(&self, sys: &MemorySystem) -> Matrix {
        self.peek_factor(sys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::tests::{at, ckpt, native, pmem, run_case};
    use crate::lu::host::{dominant_matrix, lu_host};
    use adcc_sim::crash::CrashTrigger;
    use adcc_sim::system::SystemConfig;

    fn cfg() -> SystemConfig {
        SystemConfig::nvm_only(8 << 10, 64 << 20)
    }

    fn blocked(a: &Matrix) -> impl Fn(&mut MemorySystem) -> (ChecksumLu, ()) + '_ {
        move |sys| (ChecksumLu::setup(sys, a, 4), ())
    }

    #[test]
    fn native_matches_host() {
        let a = dominant_matrix(16, 41);
        let ran = run_case(&cfg(), blocked(&a), native, CrashTrigger::Never);
        assert!(ran.answer.max_abs_diff(&lu_host(&a)) < 1e-10);
    }

    #[test]
    fn ckpt_crash_restores_block_granular() {
        let a = dominant_matrix(16, 42);
        let ran = run_case(&cfg(), blocked(&a), ckpt(1), at(sites::PH_AFTER_COL, 9));
        assert_eq!(ran.resumed_from, Some(2), "blocks 2 and 3 re-run");
        assert!(ran.answer.max_abs_diff(&lu_host(&a)) < 1e-10);
    }

    #[test]
    fn pmem_variant_matches_host_and_costs_more() {
        let a = dominant_matrix(16, 43);
        let plain = run_case(&cfg(), blocked(&a), native, CrashTrigger::Never);
        let pmem = run_case(&cfg(), blocked(&a), pmem(1, 16), CrashTrigger::Never);
        assert!(pmem.answer.max_abs_diff(&lu_host(&a)) < 1e-10);
        assert!(
            pmem.loop_ps > plain.loop_ps,
            "undo logging must cost more: {} vs {}",
            pmem.loop_ps,
            plain.loop_ps
        );
    }

    #[test]
    fn pmem_crash_mid_block_rolls_the_block_back() {
        let a = dominant_matrix(16, 44);
        let ran = run_case(&cfg(), blocked(&a), pmem(1, 16), at(sites::PH_AFTER_COL, 9));
        assert_eq!(ran.resumed_from, Some(2), "block 2's transaction aborts");
        assert!(ran.answer.max_abs_diff(&lu_host(&a)) < 1e-10);
    }
}
