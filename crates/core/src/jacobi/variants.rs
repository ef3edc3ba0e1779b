//! Jacobi under the baseline mechanisms: what [`PlainJacobi`] states of
//! [`Baseline`]. The loops are [`crate::baseline`]'s.

use adcc_pmem::undo::UndoPool;
use adcc_sim::crash::{CrashEmulator, CrashSite, RunOutcome};
use adcc_sim::parray::PScalar;
use adcc_sim::system::MemorySystem;

use super::plain::PlainJacobi;
use super::sites;
use crate::baseline::{Baseline, Poll};

impl Baseline for PlainJacobi {
    type Carry = ();
    type Answer = Vec<f64>;

    fn units(&self) -> usize {
        self.iters
    }

    fn end_site(&self, u: usize) -> CrashSite {
        CrashSite::new(sites::PH_ITER_END, u as u64)
    }

    fn unit(&self, emu: &mut CrashEmulator, u: usize, (): ()) -> RunOutcome<()> {
        self.step(emu);
        if emu.poll(CrashSite::new(sites::PH_AFTER_X, u as u64)) {
            return RunOutcome::Crashed(emu.crash_now());
        }
        RunOutcome::Completed(())
    }

    fn progress(&self) -> PScalar<u64> {
        self.iter_cell
    }

    fn store_carry(&self, _: &mut MemorySystem, (): ()) {}

    fn load_carry(&self, _: &mut MemorySystem) {}

    /// `x` plus the counter.
    fn regions(&self) -> Vec<(u64, usize)> {
        vec![
            (self.x.base(), self.x.byte_len()),
            (self.iter_cell.addr(), 8),
        ]
    }

    /// Back to the initial zero iterate.
    fn reinit(&self, sys: &mut MemorySystem) {
        self.x.fill(sys, 0.0);
    }

    fn log_lines(&self) -> usize {
        (self.n * 8).div_ceil(64)
    }

    /// [`PlainJacobi::step`] with every `x` update snapshotted first (the
    /// naive PMDK port).
    fn unit_logged<P: Poll>(
        &self,
        emu: &mut CrashEmulator,
        pool: &mut UndoPool,
        _: usize,
        (): (),
        _: &mut P,
    ) -> RunOutcome<()> {
        self.a.spmv(emu, self.x, self.ax);
        for j in 0..self.n {
            pool.tx_add_range(emu, self.x.addr(j), 8);
            let v = self.x.get(emu, j)
                + super::OMEGA * self.dinv.get(emu, j) * (self.b.get(emu, j) - self.ax.get(emu, j));
            self.x.set(emu, j, v);
        }
        emu.charge_flops(4 * self.n as u64);
        pool.tx_add_range(emu, self.iter_cell.addr(), 8);
        RunOutcome::Completed(())
    }

    fn peek(&self, sys: &MemorySystem) -> Vec<f64> {
        self.peek_solution(sys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::tests::{at, ckpt, native, pmem, run_case};
    use crate::jacobi::plain::jacobi_host;
    use adcc_linalg::csr::CsrMatrix;
    use adcc_linalg::spd::CgClass;
    use adcc_linalg::vecops::max_diff;
    use adcc_sim::crash::CrashTrigger;
    use adcc_sim::system::SystemConfig;

    fn cfg() -> SystemConfig {
        SystemConfig::nvm_only(32 << 10, 64 << 20)
    }

    fn problem(seed: u64) -> (CsrMatrix, Vec<f64>) {
        let a = CgClass::TEST.matrix(seed);
        let b = CgClass::TEST.rhs(&a);
        (a, b)
    }

    #[test]
    fn ckpt_variant_matches_reference_without_crash() {
        let (a, b) = problem(24);
        let setup = |sys: &mut MemorySystem| (PlainJacobi::setup(sys, &a, &b, 7), ());
        let ran = run_case(&cfg(), setup, ckpt(1), CrashTrigger::Never);
        assert!(max_diff(&ran.answer, &jacobi_host(&a, &b, 7)) < 1e-12);
    }

    #[test]
    fn ckpt_crash_restore_loses_at_most_one_iteration() {
        let (a, b) = problem(25);
        let setup = |sys: &mut MemorySystem| (PlainJacobi::setup(sys, &a, &b, 10), ());
        let ran = run_case(&cfg(), setup, ckpt(1), at(sites::PH_AFTER_X, 6));
        assert_eq!(
            ran.resumed_from,
            Some(6),
            "restored at iter 6, reruns 6..10"
        );
        assert!(max_diff(&ran.answer, &jacobi_host(&a, &b, 10)) < 1e-9);
    }

    #[test]
    fn pmem_variant_matches_reference_and_costs_more() {
        let (a, b) = problem(26);
        let setup = |sys: &mut MemorySystem| (PlainJacobi::setup(sys, &a, &b, 5), ());
        let plain = run_case(&cfg(), setup, native, CrashTrigger::Never);
        let pmem = run_case(&cfg(), setup, pmem(1, 8), CrashTrigger::Never);
        assert!(max_diff(&pmem.answer, &jacobi_host(&a, &b, 5)) < 1e-12);
        assert!(
            pmem.loop_ps > 2 * plain.loop_ps,
            "undo logging should dominate: {} vs {}",
            pmem.loop_ps,
            plain.loop_ps
        );
    }

    #[test]
    fn pmem_crash_recovers_to_committed_iteration() {
        let (a, b) = problem(27);
        let setup = |sys: &mut MemorySystem| (PlainJacobi::setup(sys, &a, &b, 8), ());
        let ran = run_case(
            &cfg(),
            setup,
            pmem(1, 8),
            CrashTrigger::AtAccessCount(30_000),
        );
        assert!(ran.resumed_from.is_some(), "access budget must trigger");
        assert!(max_diff(&ran.answer, &jacobi_host(&a, &b, 8)) < 1e-9);
    }
}
