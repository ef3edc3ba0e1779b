//! CG under the baseline mechanisms (the paper's test cases 1–5): what
//! [`PlainCg`] states of [`Baseline`], and the entry points by the names
//! Fig. 4's callers know. The loops are [`crate::baseline`]'s.

use adcc_ckpt::manager::CkptManager;
use adcc_pmem::undo::UndoPool;
use adcc_sim::crash::{CrashEmulator, CrashSite, RunOutcome};
use adcc_sim::parray::PScalar;
use adcc_sim::system::MemorySystem;

use super::plain::PlainCg;
use super::sites;
use crate::baseline::{self, Baseline, Poll};

impl Baseline for PlainCg {
    type Carry = f64;
    type Answer = Vec<f64>;

    fn units(&self) -> usize {
        self.iters
    }

    fn end_site(&self, u: usize) -> CrashSite {
        CrashSite::new(sites::PH_ITER_END, u as u64)
    }

    fn unit(&self, emu: &mut CrashEmulator, u: usize, rho: f64) -> RunOutcome<f64> {
        let rho = self.step(emu, rho);
        if emu.poll(CrashSite::new(sites::PH_LINE10, u as u64)) {
            return RunOutcome::Crashed(emu.crash_now());
        }
        RunOutcome::Completed(rho)
    }

    fn progress(&self) -> PScalar<u64> {
        self.iter_cell
    }

    fn store_carry(&self, sys: &mut MemorySystem, rho: f64) {
        self.rho_cell.set(sys, rho);
    }

    fn load_carry(&self, sys: &mut MemorySystem) -> f64 {
        self.rho_cell.get(sys)
    }

    fn regions(&self) -> Vec<(u64, usize)> {
        self.ckpt_regions()
    }

    /// The initial state is seeded in NVM: reset the work vectors from `b`.
    fn reinit(&self, sys: &mut MemorySystem) {
        for j in 0..self.n {
            let v = self.b.get(sys, j);
            self.p.set(sys, j, v);
            self.r.set(sys, j, v);
            self.z.set(sys, j, 0.0);
        }
    }

    fn log_lines(&self) -> usize {
        3 * (self.n * 8).div_ceil(64)
    }

    /// One CG iteration with PMDK-style per-element `tx_add_range` coverage
    /// of the state vectors — the "naive port" an application programmer
    /// writes by wrapping every update, which is what produces the paper's
    /// 329% overhead / 4.3x preliminary slowdown. Polls after each vector
    /// update, so a crash can land mid-transaction.
    fn unit_logged<P: Poll>(
        &self,
        emu: &mut CrashEmulator,
        pool: &mut UndoPool,
        u: usize,
        rho: f64,
        poll: &mut P,
    ) -> RunOutcome<f64> {
        let mut crashes_at = |emu: &mut CrashEmulator, pool: &UndoPool, phase| {
            poll(emu, pool, CrashSite::new(phase, u as u64))
        };
        self.a.spmv(emu, self.p, self.q);
        let pq = adcc_linalg::simops::dot(emu, self.p, self.q);
        let alpha = rho / pq;
        for j in 0..self.n {
            pool.tx_add_range(emu, self.z.addr(j), 8);
            let v = self.z.get(emu, j) + alpha * self.p.get(emu, j);
            self.z.set(emu, j, v);
        }
        if crashes_at(emu, pool, sites::PH_AFTER_Z) {
            return RunOutcome::Crashed(emu.crash_now());
        }
        for j in 0..self.n {
            pool.tx_add_range(emu, self.r.addr(j), 8);
            let v = self.r.get(emu, j) - alpha * self.q.get(emu, j);
            self.r.set(emu, j, v);
        }
        if crashes_at(emu, pool, sites::PH_AFTER_R) {
            return RunOutcome::Crashed(emu.crash_now());
        }
        emu.charge_flops(4 * self.n as u64);
        let rho_new = adcc_linalg::simops::dot(emu, self.r, self.r);
        let beta = rho_new / rho;
        for j in 0..self.n {
            pool.tx_add_range(emu, self.p.addr(j), 8);
            let v = self.r.get(emu, j) + beta * self.p.get(emu, j);
            self.p.set(emu, j, v);
        }
        emu.charge_flops(2 * self.n as u64);
        if crashes_at(emu, pool, sites::PH_LINE10) {
            return RunOutcome::Crashed(emu.crash_now());
        }
        pool.tx_add_range(emu, self.rho_cell.addr(), 8);
        pool.tx_add_range(emu, self.iter_cell.addr(), 8);
        RunOutcome::Completed(rho_new)
    }

    fn peek(&self, sys: &MemorySystem) -> Vec<f64> {
        self.peek_solution(sys)
    }
}

/// Run plain CG natively (no persistence mechanism at all).
pub fn run_native(emu: &mut CrashEmulator, cg: &PlainCg, rho0: f64) -> RunOutcome<f64> {
    baseline::run_native(emu, cg, rho0)
}

/// Run plain CG, checkpointing `p, r, z, rho, i` at the end of every
/// iteration.
pub fn run_with_ckpt(
    emu: &mut CrashEmulator,
    cg: &PlainCg,
    rho0: f64,
    mgr: &mut CkptManager,
) -> RunOutcome<f64> {
    baseline::run_with_ckpt(emu, cg, rho0, mgr, 1)
}

/// [`baseline::ckpt_restore`]: `(completed_iterations, rho, restored)`.
pub fn ckpt_restore(
    emu: &mut CrashEmulator,
    cg: &PlainCg,
    rho0: f64,
    mgr: &CkptManager,
) -> (usize, f64, bool) {
    baseline::ckpt_restore(emu, cg, rho0, mgr)
}

/// Run plain CG with each iteration wrapped in an undo-log transaction on
/// `p, r, z` (+ scalar state), as the paper does with the Intel PMEM
/// library.
pub fn run_with_pmem(
    emu: &mut CrashEmulator,
    cg: &PlainCg,
    rho0: f64,
    pool: &mut UndoPool,
) -> RunOutcome<f64> {
    baseline::run_with_pmem(emu, cg, rho0, pool, 1, baseline::poll)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::tests::{at, ckpt, native, pmem, run_case};
    use crate::cg::plain::cg_host;
    use adcc_linalg::csr::CsrMatrix;
    use adcc_linalg::spd::CgClass;
    use adcc_linalg::vecops::max_diff;
    use adcc_sim::crash::CrashTrigger;
    use adcc_sim::system::SystemConfig;
    use adcc_sim::timing::HddTiming;

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
        let (a, b) = problem(4);
        let setup = |sys: &mut MemorySystem| PlainCg::setup(sys, &a, &b, 7);
        let ran = run_case(&cfg(), setup, ckpt(1), CrashTrigger::Never);
        assert!(max_diff(&ran.answer, &cg_host(&a, &b, 7)) < 1e-10);
    }

    #[test]
    fn ckpt_crash_restore_loses_at_most_one_iteration() {
        let (a, b) = problem(5);
        let setup = |sys: &mut MemorySystem| PlainCg::setup(sys, &a, &b, 10);
        // Crash after the iteration body but before the checkpoint of
        // iteration 6 — worst case for the checkpoint scheme.
        let ran = run_case(&cfg(), setup, ckpt(1), at(sites::PH_LINE10, 6));
        assert_eq!(ran.resumed_from, Some(6), "iteration 5's checkpoint");
        assert!(max_diff(&ran.answer, &cg_host(&a, &b, 10)) < 1e-9);
    }

    #[test]
    fn hdd_ckpt_variant_roundtrip() {
        let (a, b) = problem(6);
        let mut sys = MemorySystem::new(cfg());
        let (cg, rho0) = PlainCg::setup(&mut sys, &a, &b, 5);
        let mut mgr = CkptManager::new_hdd(cg.ckpt_regions(), HddTiming::local_disk());
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        run_with_ckpt(&mut emu, &cg, rho0, &mut mgr)
            .completed()
            .unwrap();
        let io = emu.clock().bucket_total(adcc_sim::clock::Bucket::Io);
        assert!(io.ps() > 0, "HDD checkpoints must charge device time");
    }

    #[test]
    fn pmem_variant_matches_reference_and_costs_more() {
        let (a, b) = problem(8);
        let setup = |sys: &mut MemorySystem| PlainCg::setup(sys, &a, &b, 5);
        let plain = run_case(&cfg(), setup, native, CrashTrigger::Never);
        let pmem = run_case(&cfg(), setup, pmem(1, 8), CrashTrigger::Never);
        assert!(max_diff(&pmem.answer, &cg_host(&a, &b, 5)) < 1e-10);
        assert!(
            pmem.loop_ps > 2 * plain.loop_ps,
            "undo logging should cost far more than native: {} vs {}",
            pmem.loop_ps,
            plain.loop_ps
        );
    }

    #[test]
    fn pmem_crash_recovers_to_committed_iteration() {
        let (a, b) = problem(9);
        let setup = |sys: &mut MemorySystem| PlainCg::setup(sys, &a, &b, 8);
        // Crash mid-run: the in-flight transaction aborts on recovery and
        // the state is exactly the last committed iteration's.
        let ran = run_case(
            &cfg(),
            setup,
            pmem(1, 8),
            CrashTrigger::AtAccessCount(40_000),
        );
        assert!(ran.resumed_from.is_some(), "access budget must trigger");
        assert!(max_diff(&ran.answer, &cg_host(&a, &b, 8)) < 1e-9);
    }
}
