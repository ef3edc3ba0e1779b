//! CG under the baseline mechanisms: per-iteration checkpointing and
//! PMDK-style undo-log transactions (the paper's test cases 2–5).
//!
//! Both are configured for the same recomputation cost as the
//! algorithm-directed scheme (at most one iteration), which is the paper's
//! fairness condition for the runtime comparison of Fig. 4.

use adcc_ckpt::manager::CkptManager;
use adcc_pmem::undo::UndoPool;
use adcc_sim::crash::{CrashEmulator, CrashSite, RunOutcome};

use super::plain::PlainCg;
use super::sites;

/// Run plain CG natively (no persistence mechanism at all).
pub fn run_native(emu: &mut CrashEmulator, cg: &PlainCg, rho0: f64) -> RunOutcome<f64> {
    let mut rho = rho0;
    for i in 0..cg.iters {
        rho = cg.step(emu, rho);
        if emu.poll(CrashSite::new(sites::PH_ITER_END, i as u64)) {
            return RunOutcome::Crashed(emu.crash_now());
        }
    }
    RunOutcome::Completed(rho)
}

/// Run plain CG, checkpointing `p, r, z, rho, i` at the end of every
/// iteration (the paper's frequent-checkpoint configuration: "checkpoint
/// at the end of each iteration results in the same recomputation cost as
/// our algorithm-based approach").
pub fn run_with_ckpt(
    emu: &mut CrashEmulator,
    cg: &PlainCg,
    rho0: f64,
    mgr: &mut CkptManager,
) -> RunOutcome<f64> {
    let mut rho = rho0;
    for i in 0..cg.iters {
        rho = cg.step(emu, rho);
        if emu.poll(CrashSite::new(sites::PH_LINE10, i as u64)) {
            return RunOutcome::Crashed(emu.crash_now());
        }
        cg.rho_cell.set(emu, rho);
        // iter_cell holds the count of completed iterations.
        cg.iter_cell.set(emu, (i + 1) as u64);
        mgr.checkpoint(emu);
        if emu.poll(CrashSite::new(sites::PH_ITER_END, i as u64)) {
            return RunOutcome::Crashed(emu.crash_now());
        }
    }
    RunOutcome::Completed(rho)
}

/// Restore from the newest checkpoint, or rebuild the initial state when
/// none exists yet. Returns `(completed_iterations, rho, restored)` —
/// `restored == false` means the crash beat the first checkpoint.
pub fn ckpt_restore(
    emu: &mut CrashEmulator,
    cg: &PlainCg,
    rho0: f64,
    mgr: &CkptManager,
) -> (usize, f64, bool) {
    match mgr.restore(emu) {
        Some(_) => {
            let rho = cg.rho_cell.get(emu);
            let done = cg.iter_cell.get(emu) as usize;
            (done, rho, true)
        }
        None => {
            // No checkpoint yet: restart from the initial state, which is
            // seeded in NVM. Reset the work vectors from b.
            for j in 0..cg.n {
                let v = cg.b.get(emu, j);
                cg.p.set(emu, j, v);
                cg.r.set(emu, j, v);
                cg.z.set(emu, j, 0.0);
            }
            (0, rho0, false)
        }
    }
}

/// Restore from the newest checkpoint and resume to completion. Returns
/// `(final_rho, iterations_re_executed)`.
pub fn ckpt_restore_and_resume(
    emu: &mut CrashEmulator,
    cg: &PlainCg,
    rho0: f64,
    mgr: &mut CkptManager,
) -> (f64, u64) {
    let (start, mut rho, _) = ckpt_restore(emu, cg, rho0, mgr);
    let mut executed = 0u64;
    for _ in start..cg.iters {
        rho = cg.step(emu, rho);
        executed += 1;
    }
    (rho, executed)
}

/// One CG iteration with PMDK-style per-element `tx_add_range` coverage of
/// the state vectors — the "naive port" an application programmer writes
/// by wrapping every update, which is what produces the paper's 329%
/// overhead / 4.3x preliminary slowdown.
fn step_pmem(cg: &PlainCg, emu: &mut CrashEmulator, pool: &mut UndoPool, rho: f64) -> f64 {
    cg.a.spmv(emu, cg.p, cg.q);
    let pq = adcc_linalg::simops::dot(emu, cg.p, cg.q);
    let alpha = rho / pq;
    for j in 0..cg.n {
        pool.tx_add_range(emu, cg.z.addr(j), 8);
        let v = cg.z.get(emu, j) + alpha * cg.p.get(emu, j);
        cg.z.set(emu, j, v);
    }
    for j in 0..cg.n {
        pool.tx_add_range(emu, cg.r.addr(j), 8);
        let v = cg.r.get(emu, j) - alpha * cg.q.get(emu, j);
        cg.r.set(emu, j, v);
    }
    emu.charge_flops(4 * cg.n as u64);
    let rho_new = adcc_linalg::simops::dot(emu, cg.r, cg.r);
    let beta = rho_new / rho;
    for j in 0..cg.n {
        pool.tx_add_range(emu, cg.p.addr(j), 8);
        let v = cg.r.get(emu, j) + beta * cg.p.get(emu, j);
        cg.p.set(emu, j, v);
    }
    emu.charge_flops(2 * cg.n as u64);
    rho_new
}

/// Run plain CG with each iteration wrapped in an undo-log transaction on
/// `p, r, z` (+ scalar state), as the paper does with the Intel PMEM
/// library ("each iteration of the main loop of CG is a transaction").
pub fn run_with_pmem(
    emu: &mut CrashEmulator,
    cg: &PlainCg,
    rho0: f64,
    pool: &mut UndoPool,
) -> RunOutcome<f64> {
    let mut rho = rho0;
    for i in 0..cg.iters {
        pool.tx_begin(emu);
        rho = step_pmem(cg, emu, pool, rho);
        pool.tx_add_range(emu, cg.rho_cell.addr(), 8);
        pool.tx_add_range(emu, cg.iter_cell.addr(), 8);
        cg.rho_cell.set(emu, rho);
        // iter_cell holds the count of committed iterations.
        cg.iter_cell.set(emu, (i + 1) as u64);
        pool.tx_commit(emu);
        if emu.poll(CrashSite::new(sites::PH_ITER_END, i as u64)) {
            return RunOutcome::Crashed(emu.crash_now());
        }
    }
    RunOutcome::Completed(rho)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::plain::cg_host;
    use adcc_linalg::spd::CgClass;
    use adcc_linalg::vecops::max_diff;
    use adcc_sim::crash::CrashTrigger;
    use adcc_sim::system::{MemorySystem, SystemConfig};
    use adcc_sim::timing::HddTiming;

    fn cfg() -> SystemConfig {
        SystemConfig::nvm_only(32 << 10, 64 << 20)
    }

    #[test]
    fn ckpt_variant_matches_reference_without_crash() {
        let class = CgClass::TEST;
        let a = class.matrix(4);
        let b = class.rhs(&a);
        let mut sys = MemorySystem::new(cfg());
        let (cg, rho0) = PlainCg::setup(&mut sys, &a, &b, 7);
        let mut mgr = CkptManager::new_nvm(&mut sys, cg.ckpt_regions(), false);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        run_with_ckpt(&mut emu, &cg, rho0, &mut mgr)
            .completed()
            .unwrap();
        let got = cg.peek_solution(&emu);
        assert!(max_diff(&got, &cg_host(&a, &b, 7)) < 1e-10);
    }

    #[test]
    fn ckpt_crash_restore_loses_at_most_one_iteration() {
        let class = CgClass::TEST;
        let a = class.matrix(5);
        let b = class.rhs(&a);
        let mut sys = MemorySystem::new(cfg());
        let (cg, rho0) = PlainCg::setup(&mut sys, &a, &b, 10);
        let mut mgr = CkptManager::new_nvm(&mut sys, cg.ckpt_regions(), false);
        // Crash after the iteration body but before the checkpoint of
        // iteration 6 — worst case for the checkpoint scheme.
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_LINE10, 6),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = run_with_ckpt(&mut emu, &cg, rho0, &mut mgr)
            .crashed()
            .unwrap();

        let sys2 = MemorySystem::from_image(cfg(), &image);
        let mut emu2 = CrashEmulator::from_system(sys2, CrashTrigger::Never);
        let (_, re_executed) = ckpt_restore_and_resume(&mut emu2, &cg, rho0, &mut mgr);
        // Restored checkpoint is from iteration 5; iterations 6..9 rerun.
        assert_eq!(re_executed, 4);
        let got = cg.peek_solution(&emu2);
        assert!(max_diff(&got, &cg_host(&a, &b, 10)) < 1e-9);
    }

    #[test]
    fn hdd_ckpt_variant_roundtrip() {
        let class = CgClass::TEST;
        let a = class.matrix(6);
        let b = class.rhs(&a);
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
        let class = CgClass::TEST;
        let a = class.matrix(8);
        let b = class.rhs(&a);

        // Native timing.
        let mut sys = MemorySystem::new(cfg());
        let (cg, rho0) = PlainCg::setup(&mut sys, &a, &b, 5);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        let t0 = emu.now();
        run_native(&mut emu, &cg, rho0).completed().unwrap();
        let native_time = (emu.now() - t0).ps();

        // PMEM timing.
        let mut sys = MemorySystem::new(cfg());
        let (cg, rho0) = PlainCg::setup(&mut sys, &a, &b, 5);
        let lines = 3 * (cg.n * 8).div_ceil(64) + 8;
        let mut pool = UndoPool::new(&mut sys, lines);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        let t0 = emu.now();
        run_with_pmem(&mut emu, &cg, rho0, &mut pool)
            .completed()
            .unwrap();
        let pmem_time = (emu.now() - t0).ps();

        let got = cg.peek_solution(&emu);
        assert!(max_diff(&got, &cg_host(&a, &b, 5)) < 1e-10);
        assert!(
            pmem_time > 2 * native_time,
            "undo logging should cost far more than native: {pmem_time} vs {native_time}"
        );
    }

    #[test]
    fn pmem_crash_recovers_to_committed_iteration() {
        let class = CgClass::TEST;
        let a = class.matrix(9);
        let b = class.rhs(&a);
        let mut sys = MemorySystem::new(cfg());
        let (cg, rho0) = PlainCg::setup(&mut sys, &a, &b, 8);
        let lines = 3 * (cg.n * 8).div_ceil(64) + 8;
        let mut pool = UndoPool::new(&mut sys, lines);
        let layout = pool.layout();
        // Crash mid-run: the in-flight transaction aborts on recovery and
        // the state is exactly the last committed iteration's.
        let trig = CrashTrigger::AtAccessCount(40_000);
        let mut emu = CrashEmulator::from_system(sys, trig);
        let outcome = run_with_pmem(&mut emu, &cg, rho0, &mut pool);
        let image = outcome.crashed().expect("access budget must trigger");
        let mut sys2 = MemorySystem::from_image(cfg(), &image);
        UndoPool::recover(layout, &mut sys2);
        let committed = cg.iter_cell.get(&mut sys2) as usize;
        let rho = if committed == 0 {
            rho0
        } else {
            cg.rho_cell.get(&mut sys2)
        };
        let mut emu2 = CrashEmulator::from_system(sys2, CrashTrigger::Never);
        let mut r = rho;
        for _ in committed..cg.iters {
            r = cg.step(&mut emu2, r);
        }
        let got = cg.peek_solution(&emu2);
        assert!(max_diff(&got, &cg_host(&a, &b, 8)) < 1e-9);
    }
}
