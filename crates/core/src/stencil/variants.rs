//! Stencil under the baseline mechanisms: what [`PlainStencil`] states
//! of [`Baseline`]. The loops are [`crate::baseline`]'s.

use adcc_pmem::undo::UndoPool;
use adcc_sim::crash::{CrashEmulator, CrashSite, RunOutcome};
use adcc_sim::parray::PScalar;
use adcc_sim::system::MemorySystem;

use super::plain::PlainStencil;
use super::sites;
use crate::baseline::Baseline;

impl Baseline for PlainStencil {
    type Carry = ();
    type Answer = Vec<f64>;

    fn units(&self) -> usize {
        self.sweeps
    }

    fn end_site(&self, t: usize) -> CrashSite {
        CrashSite::new(sites::PH_SWEEP_END, t as u64)
    }

    fn unit(&self, emu: &mut CrashEmulator, t: usize, (): ()) -> RunOutcome<()> {
        self.sweep(emu, t);
        RunOutcome::Completed(())
    }

    fn progress(&self) -> PScalar<u64> {
        self.sweep_cell
    }

    fn store_carry(&self, _: &mut MemorySystem, (): ()) {}

    fn load_carry(&self, _: &mut MemorySystem) {}

    /// Both buffers + the counter; the ping-pong overwrite makes anything
    /// less unsafe.
    fn regions(&self) -> Vec<(u64, usize)> {
        vec![
            (self.bufs[0].array().base(), self.bufs[0].array().byte_len()),
            (self.bufs[1].array().base(), self.bufs[1].array().byte_len()),
            (self.sweep_cell.addr(), 8),
        ]
    }

    /// Re-seed both ping-pong buffers from the initial condition.
    fn reinit(&self, sys: &mut MemorySystem) {
        for b in &self.bufs {
            for r in 0..self.rows {
                for c in 0..self.cols {
                    b.set(sys, r, c, super::initial_value(self.rows, self.cols, r, c));
                }
            }
        }
    }

    fn log_lines(&self) -> usize {
        (self.rows * self.cols * 8).div_ceil(64)
    }

    /// The interior of the sweep's destination buffer, row by row (the
    /// naive PMDK port).
    fn tx_open(&self, sys: &mut MemorySystem, pool: &mut UndoPool, t: usize) {
        let dst = self.bufs[(t + 1) % 2];
        for r in 1..self.rows - 1 {
            pool.tx_add_range(sys, dst.addr(r, 1), (self.cols - 2) * 8);
        }
        pool.tx_add_range(sys, self.sweep_cell.addr(), 8);
    }

    fn peek(&self, sys: &MemorySystem) -> Vec<f64> {
        self.peek_grid(sys, self.sweeps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::tests::{at, ckpt, native, pmem, run_case};
    use crate::stencil::plain::heat_host;
    use adcc_linalg::vecops::max_diff;
    use adcc_sim::crash::CrashTrigger;
    use adcc_sim::system::SystemConfig;

    fn cfg() -> SystemConfig {
        SystemConfig::nvm_only(16 << 10, 64 << 20)
    }

    fn grid(sweeps: usize) -> impl Fn(&mut MemorySystem) -> (PlainStencil, ()) {
        move |sys| (PlainStencil::setup(sys, 12, 12, sweeps), ())
    }

    #[test]
    fn ckpt_variant_matches_reference_without_crash() {
        let ran = run_case(&cfg(), grid(6), ckpt(1), CrashTrigger::Never);
        assert!(max_diff(&ran.answer, &heat_host(12, 12, 6)) < 1e-12);
    }

    #[test]
    fn ckpt_crash_restore_loses_at_most_one_sweep() {
        let ran = run_case(&cfg(), grid(9), ckpt(1), at(sites::PH_SWEEP_END, 5));
        assert_eq!(
            ran.resumed_from,
            Some(6),
            "restored at sweep 6, reruns 6..9"
        );
        assert!(max_diff(&ran.answer, &heat_host(12, 12, 9)) < 1e-12);
    }

    #[test]
    fn pmem_variant_matches_reference_and_costs_more() {
        let plain = run_case(&cfg(), grid(5), native, CrashTrigger::Never);
        let pmem = run_case(&cfg(), grid(5), pmem(1, 32), CrashTrigger::Never);
        assert!(max_diff(&pmem.answer, &heat_host(12, 12, 5)) < 1e-12);
        assert!(
            pmem.loop_ps > plain.loop_ps,
            "undo logging must cost more: {} vs {}",
            pmem.loop_ps,
            plain.loop_ps
        );
    }

    #[test]
    fn pmem_crash_recovers_to_committed_sweep() {
        let ran = run_case(
            &cfg(),
            grid(7),
            pmem(1, 32),
            CrashTrigger::AtAccessCount(4_000),
        );
        assert!(ran.resumed_from.is_some(), "access budget must trigger");
        assert!(max_diff(&ran.answer, &heat_host(12, 12, 7)) < 1e-12);
    }
}
