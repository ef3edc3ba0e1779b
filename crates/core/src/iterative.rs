//! The paper's iterate-history protocol (§III, Figs. 2–3), stated once.
//!
//! The method is the same for every iterative kernel: give the iterate an
//! iteration dimension so no unit's data is overwritten, flush one counter
//! line per unit, and at restart let an algorithm invariant decide which
//! history rows in NVM are consistent. A kernel states what is its own —
//! the loop body, the invariant scan, how the loop is re-entered — as the
//! hooks of [`Extended`]; recovery ([`recover_and_resume`]), the
//! EasyCrash-style [`dirty_restart`] and the normalization run
//! ([`timed_full_run`]) are written here over those hooks.
//!
//! Not every kernel in this crate follows it: LU, ABFT-MM and MC recover
//! from block statuses, checksums and tallies, and the plain kernels under
//! the baseline mechanisms count *completed* units — that convention, and
//! their loops, are [`crate::baseline`]'s.

use adcc_sim::clock::SimTime;
use adcc_sim::crash::{CrashEmulator, CrashTrigger, RunOutcome};
use adcc_sim::image::NvmImage;
use adcc_sim::parray::PScalar;
use adcc_sim::system::{MemorySystem, SystemConfig};

use crate::traits::{DirtyRestart, RecoveryReport};

/// `true` when this build carries the seeded `mutant-trust-counter` bug
/// (see [`recover_and_resume`]); the mutation suite reads it to know which
/// verdict to assert.
#[doc(hidden)]
pub const MUTANT_TRUST_COUNTER: bool = cfg!(feature = "mutant-trust-counter");

/// An iterative kernel extended with an iterate history: unit `i` (an
/// iteration, a sweep) reads history row `i` and writes row `i + 1`, and
/// [`counter`](Extended::counter) holds the unit in flight.
pub trait Extended {
    /// The loop-carried scalar (`rho` for the Krylov solvers, `()` for a
    /// stationary iteration).
    type Carry: Copy;
    /// The answer after the last unit; `Into<Vec<f64>>` is the layout a
    /// [`DirtyRestart`] reports it in.
    type Solution: Into<Vec<f64>>;

    /// Units of the main loop.
    fn units(&self) -> usize;

    /// The one cell flushed at the start of every unit.
    fn counter(&self) -> PScalar<u64>;

    /// The invariant scan (charged): the newest completed unit whose
    /// history rows in NVM verify, `None` if none does. Reads the counter
    /// itself to bound the scan.
    fn detect_restart(&self, sys: &mut MemorySystem) -> Option<usize>;

    /// Make the loop enterable after `verified` (charged): derive the
    /// carry entering unit `j + 1` from verified history, or — `None` —
    /// rebuild unit 0's rows, which a bounded ring may have overwritten.
    fn reenter(&self, sys: &mut MemorySystem, verified: Option<usize>) -> Self::Carry;

    /// The carry entering unit `c` from whatever rows survived, verified
    /// or not (charged).
    fn reenter_dirty(&self, sys: &mut MemorySystem, c: usize) -> Self::Carry;

    /// Run units `[from, to)`; `carry` must be the one entering `from`.
    /// Returns the crash image if the emulator's trigger fires.
    fn run(
        &self,
        emu: &mut CrashEmulator,
        from: usize,
        to: usize,
        carry: Self::Carry,
    ) -> RunOutcome<Self::Carry>;

    /// Uncharged extraction of the answer after the last unit.
    fn peek(&self, sys: &MemorySystem, carry: Self::Carry) -> Self::Solution;
}

/// What recovery did, plus the answer it produced.
#[derive(Debug, Clone)]
pub struct Recovery<S> {
    /// The completed unit accepted as the restart point (`None` = restart
    /// from the initial state).
    pub restart_from: Option<usize>,
    /// Report in the paper's units (units lost, detect/resume split).
    pub report: RecoveryReport,
    /// The recovered answer after the last unit.
    pub solution: S,
}

/// The restart candidates after a crash in unit `crashed`, newest first:
/// the completed units whose input and output rows a history ring of
/// `window` rows can still hold (the rows of older units have been
/// overwritten; unit `crashed`'s output row is being overwritten).
pub fn candidates(crashed: usize, units: usize, window: usize) -> impl Iterator<Item = usize> {
    let hi = crashed.min(units - 1);
    let lo = (crashed + 1).saturating_sub(window.saturating_sub(1));
    (lo..=hi).rev()
}

fn run_to<K: Extended>(
    k: &K,
    emu: &mut CrashEmulator,
    from: usize,
    to: usize,
    carry: K::Carry,
) -> K::Carry {
    k.run(emu, from, to, carry)
        .completed()
        .expect("trigger is Never")
}

/// Full recovery: boot from the crash image, detect the restart point
/// (`detect_time`), re-enter the loop and resume to the crashed unit
/// (`resume_time`, the paper's "resuming computation time"), then run to
/// completion.
///
/// With the `mutant-trust-counter` feature the invariant scan is skipped
/// and the flushed counter is believed — the bug the scan exists to
/// prevent, seeded for the mutation suite.
pub fn recover_and_resume<K: Extended>(
    k: &K,
    image: &NvmImage,
    cfg: SystemConfig,
) -> Recovery<K::Solution> {
    let units = k.units();
    let mut sys = MemorySystem::from_image(cfg, image);
    let crashed = k.counter().get(&mut sys) as usize;

    let t0 = sys.now();
    let restart_from = if MUTANT_TRUST_COUNTER {
        Some(crashed.min(units - 1))
    } else {
        k.detect_restart(&mut sys)
    };
    let t1 = sys.now();

    let resume_at = restart_from.map_or(0, |j| j + 1);
    let carry = k.reenter(&mut sys, restart_from);
    // Resume back to the crash point (measured), then continue.
    let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
    let back_at_crash = (crashed + 1).min(units).max(resume_at);
    let carry = run_to(k, &mut emu, resume_at, back_at_crash, carry);
    let t2 = emu.now();
    let carry = run_to(k, &mut emu, back_at_crash, units, carry);

    Recovery {
        restart_from,
        report: RecoveryReport {
            detect_time: t1 - t0,
            resume_time: t2 - t1,
            lost_units: (crashed + 1 - resume_at) as u64,
            restart_unit: resume_at as u64,
        },
        solution: k.peek(&emu, carry),
    }
}

/// EasyCrash-style dirty restart: reboot from the raw image, trust the
/// flushed counter verbatim, re-enter on whatever rows survived and run to
/// the termination bound — no invariant scan, no restart-point search.
pub fn dirty_restart<K: Extended>(k: &K, image: &NvmImage, cfg: SystemConfig) -> DirtyRestart {
    let units = k.units();
    let mut sys = MemorySystem::dirty_reboot(cfg, image);
    let t0 = sys.now();
    let c = k.counter().get(&mut sys) as usize;
    if c >= units {
        // The loop bound itself rejects a counter past the end.
        return DirtyRestart::rejected((sys.now() - t0).ps());
    }
    let carry = k.reenter_dirty(&mut sys, c);
    let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
    let carry = run_to(k, &mut emu, c, units, carry);
    DirtyRestart {
        solution: Some(k.peek(&emu, carry).into()),
        extra_units: (units - c) as u64,
        sim_time_ps: (emu.now() - t0).ps(),
    }
}

/// The average simulated time of one unit over a crash-free run from
/// unit 0 with the carry `carry0` — the paper's normalization (the clock
/// is read around the main loop).
pub fn timed_full_run<K: Extended>(k: &K, sys: MemorySystem, carry0: K::Carry) -> SimTime {
    let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
    let t0 = emu.now();
    run_to(k, &mut emu, 0, k.units(), carry0);
    SimTime((emu.now() - t0).ps() / k.units() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::{CgRecovery, CgSolution, ExtendedCg};
    use crate::jacobi::JacobiRecovery;
    use adcc_linalg::spd::CgClass;

    #[test]
    fn the_kernel_recovery_names_are_the_one_struct() {
        let report = RecoveryReport {
            detect_time: SimTime(3),
            resume_time: SimTime(4),
            lost_units: 2,
            restart_unit: 5,
        };
        let rec: CgRecovery = Recovery {
            restart_from: Some(4),
            report,
            solution: CgSolution {
                z: vec![1.0, 2.0],
                rho: 0.5,
            },
        };
        assert_eq!(rec.solution.z, [1.0, 2.0]);
        assert_eq!(rec.restart_from, Some(4));
        assert_eq!(rec.report.total(), SimTime(7));
        let flat: JacobiRecovery = Recovery {
            restart_from: rec.restart_from,
            report: rec.report,
            solution: rec.solution.into(),
        };
        assert_eq!(flat.solution, [1.0, 2.0]);
    }

    #[test]
    fn a_counter_past_the_end_is_rejected_before_any_reentry_access() {
        let class = CgClass::TEST;
        let a = class.matrix(5);
        let b = class.rhs(&a);
        let cfg = SystemConfig::nvm_only(16 << 10, 64 << 20);
        let mut sys = MemorySystem::new(cfg.clone());
        let (cg, _) = ExtendedCg::setup(&mut sys, &a, &b, 6);
        cg.iter_cell.set(&mut sys, 6);
        cg.iter_cell.persist(&mut sys);
        let image = sys.crash();

        let mut counter_read = MemorySystem::dirty_reboot(cfg.clone(), &image);
        let t0 = counter_read.now();
        cg.iter_cell.get(&mut counter_read);
        let one_read = (counter_read.now() - t0).ps();

        let d = dirty_restart(&cg, &image, cfg);
        assert_eq!(d, DirtyRestart::rejected(one_read));
    }
}
