//! Jacobi under the baseline mechanisms: per-iteration checkpointing and
//! PMDK-style undo-log transactions, configured (like the paper's CG
//! comparison) for the same at-most-one-iteration recomputation cost as
//! the algorithm-directed scheme.

use adcc_ckpt::manager::CkptManager;
use adcc_pmem::undo::UndoPool;
use adcc_sim::crash::{CrashEmulator, CrashSite, RunOutcome};

use super::plain::PlainJacobi;
use super::sites;

/// Run plain Jacobi natively (no persistence mechanism).
pub fn run_native(emu: &mut CrashEmulator, jac: &PlainJacobi) -> RunOutcome<()> {
    for i in 0..jac.iters {
        jac.step(emu);
        if emu.poll(CrashSite::new(sites::PH_ITER_END, i as u64)) {
            return RunOutcome::Crashed(emu.crash_now());
        }
    }
    RunOutcome::Completed(())
}

/// Run plain Jacobi, checkpointing `x` and the counter every iteration.
pub fn run_with_ckpt(
    emu: &mut CrashEmulator,
    jac: &PlainJacobi,
    mgr: &mut CkptManager,
) -> RunOutcome<()> {
    for i in 0..jac.iters {
        jac.step(emu);
        if emu.poll(CrashSite::new(sites::PH_AFTER_X, i as u64)) {
            return RunOutcome::Crashed(emu.crash_now());
        }
        jac.iter_cell.set(emu, (i + 1) as u64);
        mgr.checkpoint(emu);
        if emu.poll(CrashSite::new(sites::PH_ITER_END, i as u64)) {
            return RunOutcome::Crashed(emu.crash_now());
        }
    }
    RunOutcome::Completed(())
}

/// Restore from the newest checkpoint, or reset `x` to the initial zero
/// iterate when none exists yet. Returns `(completed_iterations,
/// restored)`.
pub fn ckpt_restore(
    emu: &mut CrashEmulator,
    jac: &PlainJacobi,
    mgr: &CkptManager,
) -> (usize, bool) {
    match mgr.restore(emu) {
        Some(_) => (jac.iter_cell.get(emu) as usize, true),
        None => {
            for j in 0..jac.n {
                jac.x.set(emu, j, 0.0);
            }
            (0, false)
        }
    }
}

/// Restore from the newest checkpoint and resume to completion. Returns
/// the number of iterations re-executed.
pub fn ckpt_restore_and_resume(
    emu: &mut CrashEmulator,
    jac: &PlainJacobi,
    mgr: &mut CkptManager,
) -> u64 {
    let (start, _) = ckpt_restore(emu, jac, mgr);
    let mut executed = 0u64;
    for _ in start..jac.iters {
        jac.step(emu);
        executed += 1;
    }
    executed
}

/// Run plain Jacobi with each iteration's `x` update wrapped in an
/// undo-log transaction (the naive PMDK port).
pub fn run_with_pmem(
    emu: &mut CrashEmulator,
    jac: &PlainJacobi,
    pool: &mut UndoPool,
) -> RunOutcome<()> {
    for i in 0..jac.iters {
        pool.tx_begin(emu);
        jac.a.spmv(emu, jac.x, jac.ax);
        for j in 0..jac.n {
            pool.tx_add_range(emu, jac.x.addr(j), 8);
            let v = jac.x.get(emu, j)
                + super::OMEGA * jac.dinv.get(emu, j) * (jac.b.get(emu, j) - jac.ax.get(emu, j));
            jac.x.set(emu, j, v);
        }
        emu.charge_flops(4 * jac.n as u64);
        pool.tx_add_range(emu, jac.iter_cell.addr(), 8);
        jac.iter_cell.set(emu, (i + 1) as u64);
        pool.tx_commit(emu);
        if emu.poll(CrashSite::new(sites::PH_ITER_END, i as u64)) {
            return RunOutcome::Crashed(emu.crash_now());
        }
    }
    RunOutcome::Completed(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi::plain::jacobi_host;
    use adcc_linalg::spd::CgClass;
    use adcc_linalg::vecops::max_diff;
    use adcc_sim::crash::CrashTrigger;
    use adcc_sim::system::{MemorySystem, SystemConfig};

    fn cfg() -> SystemConfig {
        SystemConfig::nvm_only(32 << 10, 64 << 20)
    }

    #[test]
    fn ckpt_variant_matches_reference_without_crash() {
        let class = CgClass::TEST;
        let a = class.matrix(24);
        let b = class.rhs(&a);
        let mut sys = MemorySystem::new(cfg());
        let jac = PlainJacobi::setup(&mut sys, &a, &b, 7);
        let mut mgr = CkptManager::new_nvm(&mut sys, jac.ckpt_regions(), false);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        run_with_ckpt(&mut emu, &jac, &mut mgr).completed().unwrap();
        assert!(max_diff(&jac.peek_solution(&emu), &jacobi_host(&a, &b, 7)) < 1e-12);
    }

    #[test]
    fn ckpt_crash_restore_loses_at_most_one_iteration() {
        let class = CgClass::TEST;
        let a = class.matrix(25);
        let b = class.rhs(&a);
        let mut sys = MemorySystem::new(cfg());
        let jac = PlainJacobi::setup(&mut sys, &a, &b, 10);
        let mut mgr = CkptManager::new_nvm(&mut sys, jac.ckpt_regions(), false);
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_AFTER_X, 6),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = run_with_ckpt(&mut emu, &jac, &mut mgr).crashed().unwrap();
        let sys2 = MemorySystem::from_image(cfg(), &image);
        let mut emu2 = CrashEmulator::from_system(sys2, CrashTrigger::Never);
        let re_executed = ckpt_restore_and_resume(&mut emu2, &jac, &mut mgr);
        assert_eq!(re_executed, 4, "restored at iter 6, reruns 6..10");
        assert!(max_diff(&jac.peek_solution(&emu2), &jacobi_host(&a, &b, 10)) < 1e-9);
    }

    #[test]
    fn pmem_variant_matches_reference_and_costs_more() {
        let class = CgClass::TEST;
        let a = class.matrix(26);
        let b = class.rhs(&a);

        let mut sys = MemorySystem::new(cfg());
        let jac = PlainJacobi::setup(&mut sys, &a, &b, 5);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        let t0 = emu.now();
        run_native(&mut emu, &jac).completed().unwrap();
        let native_time = (emu.now() - t0).ps();

        let mut sys = MemorySystem::new(cfg());
        let jac = PlainJacobi::setup(&mut sys, &a, &b, 5);
        let lines = (jac.n * 8).div_ceil(64) + 8;
        let mut pool = UndoPool::new(&mut sys, lines);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        let t0 = emu.now();
        run_with_pmem(&mut emu, &jac, &mut pool)
            .completed()
            .unwrap();
        let pmem_time = (emu.now() - t0).ps();

        assert!(max_diff(&jac.peek_solution(&emu), &jacobi_host(&a, &b, 5)) < 1e-12);
        assert!(
            pmem_time > 2 * native_time,
            "undo logging should dominate: {pmem_time} vs {native_time}"
        );
    }

    #[test]
    fn pmem_crash_recovers_to_committed_iteration() {
        let class = CgClass::TEST;
        let a = class.matrix(27);
        let b = class.rhs(&a);
        let mut sys = MemorySystem::new(cfg());
        let jac = PlainJacobi::setup(&mut sys, &a, &b, 8);
        let lines = (jac.n * 8).div_ceil(64) + 8;
        let mut pool = UndoPool::new(&mut sys, lines);
        let layout = pool.layout();
        let trig = CrashTrigger::AtAccessCount(30_000);
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = run_with_pmem(&mut emu, &jac, &mut pool)
            .crashed()
            .expect("access budget must trigger");
        let mut sys2 = MemorySystem::from_image(cfg(), &image);
        UndoPool::recover(layout, &mut sys2);
        let committed = jac.iter_cell.get(&mut sys2) as usize;
        let mut emu2 = CrashEmulator::from_system(sys2, CrashTrigger::Never);
        for _ in committed..jac.iters {
            jac.step(&mut emu2);
        }
        assert!(max_diff(&jac.peek_solution(&emu2), &jacobi_host(&a, &b, 8)) < 1e-9);
    }
}
