//! MC under the baseline mechanisms (checkpoint / PMEM transactions),
//! persisting the same state at the same frequency as the paper:
//! "macro_xs_vector and five counters at every 0.01% of total number of
//! iterations". One unit is one lookup, so `interval` is the period of
//! [`crate::baseline`]'s loops; a native-mode [`McSim`] states the rest.

use adcc_ckpt::manager::CkptManager;
use adcc_pmem::undo::UndoPool;
use adcc_sim::crash::{CrashEmulator, CrashSite, RunOutcome};
use adcc_sim::parray::PScalar;
use adcc_sim::system::MemorySystem;

use super::sim::McSim;
use super::{sites, XS_CHANNELS};
use crate::baseline::{self, Baseline};

/// The regions a checkpoint (or transaction) must protect.
pub fn mc_regions(mc: &McSim) -> Vec<(u64, usize)> {
    vec![
        (mc.macro_xs.base(), mc.macro_xs.byte_len()),
        (mc.counters.base(), mc.counters.byte_len()),
        (mc.idx_cell.addr(), 8),
    ]
}

/// The [`McSim`] should be in [`super::sim::McMode::Native`]: the
/// mechanism replaces flushing.
impl Baseline for McSim {
    type Carry = ();
    type Answer = [u64; XS_CHANNELS];

    fn units(&self) -> usize {
        self.lookups as usize
    }

    fn end_site(&self, i: usize) -> CrashSite {
        CrashSite::new(sites::PH_LOOKUP, i as u64)
    }

    fn unit(&self, emu: &mut CrashEmulator, i: usize, (): ()) -> RunOutcome<()> {
        let t = self.one_lookup(emu, i as u64);
        let c = self.counters.get(emu, t) + 1;
        self.counters.set(emu, t, c);
        RunOutcome::Completed(())
    }

    fn progress(&self) -> PScalar<u64> {
        self.idx_cell
    }

    fn store_carry(&self, _: &mut MemorySystem, (): ()) {}

    fn load_carry(&self, _: &mut MemorySystem) {}

    fn regions(&self) -> Vec<(u64, usize)> {
        mc_regions(self)
    }

    /// Zero the tallies.
    fn reinit(&self, sys: &mut MemorySystem) {
        for c in 0..XS_CHANNELS {
            self.counters.set(sys, c, 0);
        }
    }

    /// The accumulator's line, the two the counters straddle, the index's.
    fn log_lines(&self) -> usize {
        4
    }

    /// Pre-images of the accumulator, the counters and the index, taken
    /// once per chunk.
    fn tx_open(&self, sys: &mut MemorySystem, pool: &mut UndoPool, _: usize) {
        for (addr, len) in mc_regions(self) {
            pool.tx_add_range(sys, addr, len);
        }
    }

    fn peek(&self, sys: &MemorySystem) -> [u64; XS_CHANNELS] {
        self.peek_counts(sys)
    }
}

/// Run MC checkpointing every `interval` lookups.
pub fn run_with_ckpt(
    emu: &mut CrashEmulator,
    mc: &McSim,
    mgr: &mut CkptManager,
    interval: u64,
) -> RunOutcome<()> {
    baseline::run_with_ckpt(emu, mc, (), mgr, interval.max(1) as usize)
}

/// Run MC with an undo-log transaction spanning each `interval`-lookup
/// chunk, committed at chunk end.
pub fn run_with_pmem(
    emu: &mut CrashEmulator,
    mc: &McSim,
    pool: &mut UndoPool,
    interval: u64,
) -> RunOutcome<()> {
    let period = interval.max(1) as usize;
    baseline::run_with_pmem(emu, mc, (), pool, period, baseline::poll)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::tests::{at, ckpt, native, pmem, run_case};
    use crate::mc::grids::McProblem;
    use crate::mc::sim::McMode;
    use adcc_sim::crash::CrashTrigger;
    use adcc_sim::system::SystemConfig;

    fn cfg(p: &McProblem) -> SystemConfig {
        SystemConfig::nvm_only(16 << 10, (p.grid_bytes() + (1 << 20)).next_power_of_two())
    }

    /// The problem, its machine, and `lookups` of it in native mode.
    fn lookups(
        lookups: u64,
    ) -> (
        SystemConfig,
        impl Fn(&mut MemorySystem) -> (McSim, ()),
        [u64; XS_CHANNELS],
    ) {
        let p = McProblem::generate(36, 128, 21);
        let cfg = cfg(&p);
        let setup = move |sys: &mut MemorySystem| {
            (
                McSim::setup(sys, p.clone(), lookups, 42, McMode::Native),
                (),
            )
        };
        let mut sys = MemorySystem::new(cfg.clone());
        let (mc, ()) = setup(&mut sys);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        mc.run(&mut emu, 0, lookups).completed().unwrap();
        let want = mc.peek_counts(&emu);
        (cfg, setup, want)
    }

    #[test]
    fn variant_loop_body_matches_mcsim() {
        let (cfg, setup, want) = lookups(300);
        assert_eq!(
            run_case(&cfg, &setup, native, CrashTrigger::Never).answer,
            want
        );
        // Checkpoint variant without crash must count identically.
        let ran = run_case(&cfg, &setup, ckpt(50), CrashTrigger::Never);
        assert_eq!(ran.answer, want);
    }

    #[test]
    fn ckpt_crash_restore_reproduces_counts() {
        let (cfg, setup, want) = lookups(1_000);
        let ran = run_case(&cfg, setup, ckpt(100), at(sites::PH_LOOKUP, 620));
        assert_eq!(ran.resumed_from, Some(600));
        assert_eq!(ran.answer, want);
    }

    #[test]
    fn pmem_variant_counts_match_reference() {
        let (cfg, setup, want) = lookups(400);
        let ran = run_case(&cfg, setup, pmem(50, 12), CrashTrigger::Never);
        assert_eq!(ran.answer, want);
    }

    #[test]
    fn pmem_crash_recovers_to_committed_chunk() {
        let (cfg, setup, want) = lookups(1_000);
        let ran = run_case(&cfg, setup, pmem(100, 12), at(sites::PH_LOOKUP, 730));
        assert_eq!(
            ran.resumed_from,
            Some(700),
            "undo must land on the last committed chunk"
        );
        assert_eq!(ran.answer, want);
    }
}
