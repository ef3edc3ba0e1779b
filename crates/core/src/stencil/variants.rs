//! Stencil under the baseline mechanisms: per-sweep checkpointing and
//! PMDK-style undo-log transactions.

use adcc_ckpt::manager::CkptManager;
use adcc_pmem::undo::UndoPool;
use adcc_sim::crash::{CrashEmulator, CrashSite, RunOutcome};

use super::plain::PlainStencil;
use super::sites;

/// Run the ping-pong stencil natively.
pub fn run_native(emu: &mut CrashEmulator, st: &PlainStencil) -> RunOutcome<()> {
    for t in 0..st.sweeps {
        st.sweep(emu, t);
        if emu.poll(CrashSite::new(sites::PH_SWEEP_END, t as u64)) {
            return RunOutcome::Crashed(emu.crash_now());
        }
    }
    RunOutcome::Completed(())
}

/// Run with a full checkpoint (both buffers + counter) after every sweep.
pub fn run_with_ckpt(
    emu: &mut CrashEmulator,
    st: &PlainStencil,
    mgr: &mut CkptManager,
) -> RunOutcome<()> {
    for t in 0..st.sweeps {
        st.sweep(emu, t);
        st.sweep_cell.set(emu, (t + 1) as u64);
        mgr.checkpoint(emu);
        if emu.poll(CrashSite::new(sites::PH_SWEEP_END, t as u64)) {
            return RunOutcome::Crashed(emu.crash_now());
        }
    }
    RunOutcome::Completed(())
}

/// Re-seed both ping-pong buffers from the initial condition (charged —
/// part of the recovery bill when no checkpoint exists yet).
pub fn reseed_initial(emu: &mut CrashEmulator, st: &PlainStencil) {
    for b in &st.bufs {
        for r in 0..st.rows {
            for c in 0..st.cols {
                b.set(emu, r, c, super::initial_value(st.rows, st.cols, r, c));
            }
        }
    }
}

/// Restore from the newest checkpoint, or re-seed the initial condition
/// when none exists yet. Returns `(completed_sweeps, restored)`.
pub fn ckpt_restore(
    emu: &mut CrashEmulator,
    st: &PlainStencil,
    mgr: &CkptManager,
) -> (usize, bool) {
    match mgr.restore(emu) {
        Some(_) => (st.sweep_cell.get(emu) as usize, true),
        None => {
            reseed_initial(emu, st);
            (0, false)
        }
    }
}

/// Restore from the newest checkpoint and resume. Returns the number of
/// sweeps re-executed.
pub fn ckpt_restore_and_resume(
    emu: &mut CrashEmulator,
    st: &PlainStencil,
    mgr: &mut CkptManager,
) -> u64 {
    let (start, _) = ckpt_restore(emu, st, mgr);
    let mut executed = 0u64;
    for t in start..st.sweeps {
        st.sweep(emu, t);
        executed += 1;
    }
    executed
}

/// Run with each sweep's destination buffer wrapped in an undo-log
/// transaction (the naive PMDK port).
pub fn run_with_pmem(
    emu: &mut CrashEmulator,
    st: &PlainStencil,
    pool: &mut UndoPool,
) -> RunOutcome<()> {
    for t in 0..st.sweeps {
        pool.tx_begin(emu);
        let dst = st.bufs[(t + 1) % 2];
        for r in 1..st.rows - 1 {
            pool.tx_add_range(emu, dst.addr(r, 1), (st.cols - 2) * 8);
        }
        pool.tx_add_range(emu, st.sweep_cell.addr(), 8);
        st.sweep(emu, t);
        st.sweep_cell.set(emu, (t + 1) as u64);
        pool.tx_commit(emu);
        if emu.poll(CrashSite::new(sites::PH_SWEEP_END, t as u64)) {
            return RunOutcome::Crashed(emu.crash_now());
        }
    }
    RunOutcome::Completed(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::plain::heat_host;
    use adcc_linalg::vecops::max_diff;
    use adcc_sim::crash::CrashTrigger;
    use adcc_sim::system::{MemorySystem, SystemConfig};

    fn cfg() -> SystemConfig {
        SystemConfig::nvm_only(16 << 10, 64 << 20)
    }

    #[test]
    fn ckpt_variant_matches_reference_without_crash() {
        let mut sys = MemorySystem::new(cfg());
        let st = PlainStencil::setup(&mut sys, 12, 12, 6);
        let mut mgr = CkptManager::new_nvm(&mut sys, st.ckpt_regions(), false);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        run_with_ckpt(&mut emu, &st, &mut mgr).completed().unwrap();
        assert!(max_diff(&st.peek_grid(&emu, 6), &heat_host(12, 12, 6)) < 1e-12);
    }

    #[test]
    fn ckpt_crash_restore_loses_at_most_one_sweep() {
        let mut sys = MemorySystem::new(cfg());
        let st = PlainStencil::setup(&mut sys, 12, 12, 9);
        let mut mgr = CkptManager::new_nvm(&mut sys, st.ckpt_regions(), false);
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_SWEEP_END, 5),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = run_with_ckpt(&mut emu, &st, &mut mgr).crashed().unwrap();
        let sys2 = MemorySystem::from_image(cfg(), &image);
        let mut emu2 = CrashEmulator::from_system(sys2, CrashTrigger::Never);
        let redone = ckpt_restore_and_resume(&mut emu2, &st, &mut mgr);
        assert_eq!(redone, 3, "restored at sweep 6, reruns 6..9");
        assert!(max_diff(&st.peek_grid(&emu2, 9), &heat_host(12, 12, 9)) < 1e-12);
    }

    #[test]
    fn pmem_variant_matches_reference_and_costs_more() {
        let mut sys = MemorySystem::new(cfg());
        let st = PlainStencil::setup(&mut sys, 12, 12, 5);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        let t0 = emu.now();
        run_native(&mut emu, &st).completed().unwrap();
        let native_time = (emu.now() - t0).ps();

        let mut sys = MemorySystem::new(cfg());
        let st = PlainStencil::setup(&mut sys, 12, 12, 5);
        let lines = 12 * 12 / 8 + 32;
        let mut pool = UndoPool::new(&mut sys, lines);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        let t0 = emu.now();
        run_with_pmem(&mut emu, &st, &mut pool).completed().unwrap();
        let pmem_time = (emu.now() - t0).ps();

        assert!(max_diff(&st.peek_grid(&emu, 5), &heat_host(12, 12, 5)) < 1e-12);
        assert!(
            pmem_time > native_time,
            "undo logging must cost more: {pmem_time} vs {native_time}"
        );
    }

    #[test]
    fn pmem_crash_recovers_to_committed_sweep() {
        let mut sys = MemorySystem::new(cfg());
        let st = PlainStencil::setup(&mut sys, 12, 12, 7);
        let lines = 12 * 12 / 8 + 32;
        let mut pool = UndoPool::new(&mut sys, lines);
        let layout = pool.layout();
        let trig = CrashTrigger::AtAccessCount(4_000);
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = run_with_pmem(&mut emu, &st, &mut pool)
            .crashed()
            .expect("access budget must trigger");
        let mut sys2 = MemorySystem::from_image(cfg(), &image);
        UndoPool::recover(layout, &mut sys2);
        let committed = st.sweep_cell.get(&mut sys2) as usize;
        let mut emu2 = CrashEmulator::from_system(sys2, CrashTrigger::Never);
        for t in committed..st.sweeps {
            st.sweep(&mut emu2, t);
        }
        assert!(max_diff(&st.peek_grid(&emu2, 7), &heat_host(12, 12, 7)) < 1e-12);
    }
}
