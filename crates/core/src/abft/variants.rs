//! ABFT MM under the baseline mechanisms (the paper's Fig. 8 setup):
//! checkpoint `Cf` at the end of each sub-matrix multiplication, or wrap
//! each panel update in an undo-log transaction on `Cf` — both sized so
//! the recomputation cost is one panel, matching the algorithm-directed
//! scheme. What the original loop and its progress cell state of
//! [`Baseline`]; the loops are [`crate::baseline`]'s.

use std::borrow::Borrow;

use adcc_ckpt::manager::CkptManager;
use adcc_linalg::dense::Matrix;
use adcc_pmem::undo::UndoPool;
use adcc_sim::crash::{CrashEmulator, CrashSite, RunOutcome};
use adcc_sim::parray::PScalar;
use adcc_sim::system::MemorySystem;

use super::original::OriginalAbft;
use super::sites;
use crate::baseline::{self, Baseline};

/// Persistent panel-progress cell for the checkpoint and PMEM variants
/// (the original loop keeps none).
pub struct MmProgress {
    pub cell: PScalar<u64>,
}

impl MmProgress {
    pub fn new(sys: &mut MemorySystem) -> Self {
        MmProgress {
            cell: PScalar::<u64>::alloc_nvm(sys),
        }
    }
}

/// The checkpointable regions: the whole `Cf` plus the progress counter.
pub fn mm_regions(mm: &OriginalAbft, progress: &MmProgress) -> Vec<(u64, usize)> {
    vec![
        (mm.cf.array().base(), mm.cf.array().byte_len()),
        (progress.cell.addr(), 8),
    ]
}

/// The original loop beside its progress cell, owned or borrowed.
impl<M: Borrow<OriginalAbft>, C: Borrow<MmProgress>> Baseline for (M, C) {
    type Carry = ();
    type Answer = Matrix;

    fn units(&self) -> usize {
        self.0.borrow().panels()
    }

    fn end_site(&self, s: usize) -> CrashSite {
        CrashSite::new(sites::PH_ORIG_ITER, s as u64)
    }

    fn unit(&self, emu: &mut CrashEmulator, s: usize, (): ()) -> RunOutcome<()> {
        self.0.borrow().iteration(emu, s);
        RunOutcome::Completed(())
    }

    fn progress(&self) -> PScalar<u64> {
        self.1.borrow().cell
    }

    fn store_carry(&self, _: &mut MemorySystem, (): ()) {}

    fn load_carry(&self, _: &mut MemorySystem) {}

    fn regions(&self) -> Vec<(u64, usize)> {
        mm_regions(self.0.borrow(), self.1.borrow())
    }

    /// Clear `Cf`.
    fn reinit(&self, sys: &mut MemorySystem) {
        let mm = self.0.borrow();
        for i in 0..=mm.n {
            for j in 0..=mm.n {
                mm.cf.set(sys, i, j, 0.0);
            }
        }
    }

    fn log_lines(&self) -> usize {
        self.0.borrow().cf.array().byte_len().div_ceil(64)
    }

    /// "Each submatrix multiplication is a transaction and we enable
    /// transaction update on the submatrix multiplication result."
    fn tx_open(&self, sys: &mut MemorySystem, pool: &mut UndoPool, _: usize) {
        for (addr, len) in self.regions() {
            pool.tx_add_range(sys, addr, len);
        }
    }

    fn peek(&self, sys: &MemorySystem) -> Matrix {
        self.0.borrow().peek_product(sys)
    }
}

/// Run the original ABFT loop, checkpointing `Cf` after every panel.
pub fn run_with_ckpt(
    emu: &mut CrashEmulator,
    mm: &OriginalAbft,
    progress: &MmProgress,
    mgr: &mut CkptManager,
) -> RunOutcome<()> {
    baseline::run_with_ckpt(emu, &(mm, progress), (), mgr, 1)
}

/// Run the original ABFT loop with each panel update wrapped in an
/// undo-log transaction on `Cf`.
pub fn run_with_pmem(
    emu: &mut CrashEmulator,
    mm: &OriginalAbft,
    progress: &MmProgress,
    pool: &mut UndoPool,
) -> RunOutcome<()> {
    baseline::run_with_pmem(emu, &(mm, progress), (), pool, 1, baseline::poll)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::tests::{at, ckpt, native, pmem, run_case};
    use adcc_sim::crash::CrashTrigger;
    use adcc_sim::system::SystemConfig;

    fn cfg() -> SystemConfig {
        SystemConfig::nvm_only(32 << 10, 64 << 20)
    }

    type Owned = (OriginalAbft, MmProgress);

    fn product<'a>(a: &'a Matrix, b: &'a Matrix) -> impl Fn(&mut MemorySystem) -> (Owned, ()) + 'a {
        move |sys| {
            let mm = OriginalAbft::setup(sys, a, b, 4, false);
            ((mm, MmProgress::new(sys)), ())
        }
    }

    #[test]
    fn ckpt_crash_restore_computes_exact_product() {
        let a = Matrix::random(16, 16, 31);
        let b = Matrix::random(16, 16, 32);
        let ran = run_case(&cfg(), product(&a, &b), ckpt(1), at(sites::PH_ORIG_ITER, 2));
        assert_eq!(ran.resumed_from, Some(3), "panel 2 was checkpointed");
        assert!(ran.answer.max_abs_diff(&a.mul_naive(&b)) < 1e-9);
    }

    #[test]
    fn pmem_crash_recovers_exact_product() {
        let a = Matrix::random(16, 16, 33);
        let b = Matrix::random(16, 16, 34);
        let ran = run_case(
            &cfg(),
            product(&a, &b),
            pmem(1, 4),
            at(sites::PH_ORIG_ITER, 2),
        );
        assert_eq!(ran.resumed_from, Some(3), "crash after panel 2 committed");
        assert!(ran.answer.max_abs_diff(&a.mul_naive(&b)) < 1e-9);
    }

    #[test]
    fn pmem_costs_more_than_ckpt_costs_more_than_native() {
        let a = Matrix::random(16, 16, 35);
        let b = Matrix::random(16, 16, 36);
        let native = run_case(&cfg(), product(&a, &b), native, CrashTrigger::Never).loop_ps;
        let ckpt = run_case(&cfg(), product(&a, &b), ckpt(1), CrashTrigger::Never).loop_ps;
        let pmem = run_case(&cfg(), product(&a, &b), pmem(1, 4), CrashTrigger::Never).loop_ps;
        assert!(ckpt > native, "ckpt {ckpt} !> native {native}");
        assert!(pmem > ckpt, "pmem {pmem} !> ckpt {ckpt}");
    }
}
