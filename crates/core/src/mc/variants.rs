//! MC under the baseline mechanisms (checkpoint / PMEM transactions),
//! checkpointing the same state at the same frequency as the paper:
//! "macro_xs_vector and five counters at every 0.01% of total number of
//! iterations".

use adcc_ckpt::manager::CkptManager;
use adcc_pmem::undo::UndoPool;
use adcc_sim::crash::{CrashEmulator, CrashSite, RunOutcome};

use super::sim::McSim;
use super::sites;

/// The regions a checkpoint (or transaction) must protect.
pub fn mc_regions(mc: &McSim) -> Vec<(u64, usize)> {
    vec![
        (mc.macro_xs.base(), mc.macro_xs.byte_len()),
        (mc.counters.base(), mc.counters.byte_len()),
        (mc.idx_cell.addr(), 8),
    ]
}

/// Run MC checkpointing every `interval` lookups. The [`McSim`] should be
/// in [`super::sim::McMode::Native`] (the checkpoint replaces flushing).
pub fn run_with_ckpt(
    emu: &mut CrashEmulator,
    mc: &McSim,
    mgr: &mut CkptManager,
    interval: u64,
) -> RunOutcome<()> {
    for i in 0..mc.lookups {
        let t = mc.one_lookup(emu, i);
        let c = mc.counters.get(emu, t) + 1;
        mc.counters.set(emu, t, c);
        if (i + 1) % interval.max(1) == 0 {
            mc.idx_cell.set(emu, i + 1);
            mgr.checkpoint(emu);
        }
        if emu.poll(CrashSite::new(sites::PH_LOOKUP, i)) {
            return RunOutcome::Crashed(emu.crash_now());
        }
    }
    RunOutcome::Completed(())
}

/// Restore the newest checkpoint and replay to completion. Returns the
/// lookup index resumed from.
pub fn ckpt_restore_and_resume(emu: &mut CrashEmulator, mc: &McSim, mgr: &mut CkptManager) -> u64 {
    let resumed_from = match mgr.restore(emu) {
        Some(_) => mc.idx_cell.get(emu),
        None => {
            // No checkpoint yet: zero the state and restart.
            for c in 0..super::XS_CHANNELS {
                mc.counters.set(emu, c, 0);
            }
            0
        }
    };
    mc.run(emu, resumed_from, mc.lookups)
        .completed()
        .expect("resume must not crash");
    resumed_from
}

/// Run MC with an undo-log transaction spanning each `interval`-lookup
/// chunk (pre-images of the counters/accumulator/index taken at chunk
/// start, committed at chunk end).
pub fn run_with_pmem(
    emu: &mut CrashEmulator,
    mc: &McSim,
    pool: &mut UndoPool,
    interval: u64,
) -> RunOutcome<()> {
    let interval = interval.max(1);
    let mut in_tx = false;
    for i in 0..mc.lookups {
        if !in_tx {
            pool.tx_begin(emu);
            for (addr, len) in mc_regions(mc) {
                pool.tx_add_range(emu, addr, len);
            }
            in_tx = true;
        }
        let t = mc.one_lookup(emu, i);
        let c = mc.counters.get(emu, t) + 1;
        mc.counters.set(emu, t, c);
        if (i + 1) % interval == 0 {
            mc.idx_cell.set(emu, i + 1);
            pool.tx_commit(emu);
            in_tx = false;
        }
        if emu.poll(CrashSite::new(sites::PH_LOOKUP, i)) {
            return RunOutcome::Crashed(emu.crash_now());
        }
    }
    if in_tx {
        mc.idx_cell.set(emu, mc.lookups);
        pool.tx_commit(emu);
    }
    RunOutcome::Completed(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::grids::McProblem;
    use crate::mc::sim::McMode;
    use adcc_sim::crash::CrashTrigger;
    use adcc_sim::system::{MemorySystem, SystemConfig};

    fn problem() -> McProblem {
        McProblem::generate(36, 128, 21)
    }

    fn cfg(p: &McProblem) -> SystemConfig {
        SystemConfig::nvm_only(16 << 10, (p.grid_bytes() + (1 << 20)).next_power_of_two())
    }

    fn reference_counts(p: &McProblem, lookups: u64) -> [u64; 5] {
        let mut sys = MemorySystem::new(cfg(p));
        let mc = McSim::setup(&mut sys, p.clone(), lookups, 42, McMode::Native);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        mc.run(&mut emu, 0, lookups).completed().unwrap();
        mc.peek_counts(&emu)
    }

    #[test]
    fn variant_loop_body_matches_mcsim() {
        let p = problem();
        let lookups = 300;
        let want = reference_counts(&p, lookups);
        // Checkpoint variant without crash must count identically.
        let mut sys = MemorySystem::new(cfg(&p));
        let mc = McSim::setup(&mut sys, p.clone(), lookups, 42, McMode::Native);
        let mut mgr = CkptManager::new_nvm(&mut sys, mc_regions(&mc), false);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        run_with_ckpt(&mut emu, &mc, &mut mgr, 50)
            .completed()
            .unwrap();
        assert_eq!(mc.peek_counts(&emu), want);
    }

    #[test]
    fn ckpt_crash_restore_reproduces_counts() {
        let p = problem();
        let lookups = 1_000;
        let want = reference_counts(&p, lookups);
        let mut sys = MemorySystem::new(cfg(&p));
        let mc = McSim::setup(&mut sys, p.clone(), lookups, 42, McMode::Native);
        let mut mgr = CkptManager::new_nvm(&mut sys, mc_regions(&mc), false);
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_LOOKUP, 620),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = run_with_ckpt(&mut emu, &mc, &mut mgr, 100)
            .crashed()
            .unwrap();
        let sys2 = MemorySystem::from_image(cfg(&p), &image);
        let mut emu2 = CrashEmulator::from_system(sys2, CrashTrigger::Never);
        let resumed = ckpt_restore_and_resume(&mut emu2, &mc, &mut mgr);
        assert_eq!(resumed, 600);
        assert_eq!(mc.peek_counts(&emu2), want);
    }

    #[test]
    fn pmem_variant_counts_match_reference() {
        let p = problem();
        let lookups = 400;
        let want = reference_counts(&p, lookups);
        let mut sys = MemorySystem::new(cfg(&p));
        let mc = McSim::setup(&mut sys, p.clone(), lookups, 42, McMode::Native);
        let mut pool = UndoPool::new(&mut sys, 16);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        run_with_pmem(&mut emu, &mc, &mut pool, 50)
            .completed()
            .unwrap();
        assert_eq!(mc.peek_counts(&emu), want);
    }

    #[test]
    fn pmem_crash_recovers_to_committed_chunk() {
        let p = problem();
        let lookups = 1_000;
        let want = reference_counts(&p, lookups);
        let mut sys = MemorySystem::new(cfg(&p));
        let mc = McSim::setup(&mut sys, p.clone(), lookups, 42, McMode::Native);
        let mut pool = UndoPool::new(&mut sys, 16);
        let layout = pool.layout();
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_LOOKUP, 730),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = run_with_pmem(&mut emu, &mc, &mut pool, 100)
            .crashed()
            .unwrap();
        let mut sys2 = MemorySystem::from_image(cfg(&p), &image);
        UndoPool::recover(layout, &mut sys2);
        let resumed = mc.idx_cell.get(&mut sys2);
        assert_eq!(resumed, 700, "undo must land on the last committed chunk");
        let mut emu2 = CrashEmulator::from_system(sys2, CrashTrigger::Never);
        mc.run(&mut emu2, resumed, lookups).completed().unwrap();
        assert_eq!(mc.peek_counts(&emu2), want);
    }
}
