//! Properties stated once and instantiated per kernel: the crash-anywhere
//! property of the iterate-history protocol over [`Extended`]
//! (`proptest_*crash_anywhere`), the same for the baseline mechanisms over
//! [`Baseline`] (`proptest_baseline_crash_anywhere`), and the cost
//! ordering of the seven cases (`seven_cases`, `ext_mechanism_ordering`).
//! Each suite uses its own subset.
#![allow(dead_code)]

use proptest::prelude::*;

use adcc::core::baseline::{self, Baseline, Mechanism};
use adcc::core::iterative::{self, Extended};
use adcc::prelude::*;

/// A crash after a random number of accesses, or at the first poll of a
/// random `(phase, unit)` site.
pub fn anywhere(
    accesses: std::ops::Range<u64>,
    phases: &[u32],
    units: u64,
) -> impl Strategy<Value = CrashTrigger> {
    let site = (proptest::sample::select(phases.to_vec()), 0..units).prop_map(|(phase, unit)| {
        CrashTrigger::AtSite {
            site: CrashSite::new(phase, unit),
            occurrence: 1,
        }
    });
    prop_oneof![accesses.prop_map(CrashTrigger::AtAccessCount), site]
}

/// `diff` is within `tol`; a zero tolerance demands a bitwise-equal answer.
fn within(diff: f64, tol: f64) -> bool {
    if tol == 0.0 {
        diff == 0.0
    } else {
        diff < tol
    }
}

/// Run the kernel `setup` builds under `trigger`. If the crash lands
/// beyond the run, the completed answer is `reference` within
/// `tol_completed`; otherwise `recover_and_resume` reproduces `reference`
/// within `tol_recovered`, loses at most every unit, and — when it
/// restarts from verified history — at most what a ring of `window` rows
/// can hold behind the crash.
pub fn crash_anywhere_recovers<K: Extended>(
    cfg: SystemConfig,
    trigger: CrashTrigger,
    setup: impl FnOnce(&mut MemorySystem) -> (K, K::Carry),
    window: usize,
    reference: &[f64],
    (tol_completed, tol_recovered): (f64, f64),
) -> Result<(), TestCaseError> {
    let mut sys = MemorySystem::new(cfg.clone());
    let (k, carry0) = setup(&mut sys);
    let units = k.units();
    let mut emu = CrashEmulator::from_system(sys, trigger);
    match k.run(&mut emu, 0, units, carry0) {
        RunOutcome::Completed(carry) => {
            let got: Vec<f64> = k.peek(&emu, carry).into();
            let diff = max_diff(&got, reference);
            prop_assert!(within(diff, tol_completed), "completed run off by {diff}");
        }
        RunOutcome::Crashed(image) => {
            let rec = iterative::recover_and_resume(&k, &image, cfg);
            let got: Vec<f64> = rec.solution.into();
            let diff = max_diff(&got, reference);
            prop_assert!(
                within(diff, tol_recovered),
                "recovered answer off by {diff}"
            );
            let lost = rec.report.lost_units;
            prop_assert!(lost <= units as u64, "lost {lost} of {units} units");
            if rec.restart_from.is_some() {
                let rows = window.min(units + 1) as u64;
                prop_assert!(lost + 2 <= rows, "lost {lost} units behind {rows} rows");
            }
        }
    }
    Ok(())
}

/// Checkpoint (`true`) or undo-log transaction every `period` units, on the
/// machine `k` was just set up on.
pub fn arm<K: Baseline>(ckpt: bool, period: usize, sys: &mut MemorySystem, k: &K) -> Mechanism {
    if ckpt {
        Mechanism::nvm_ckpt(sys, k, period, false)
    } else {
        Mechanism::pmem(sys, k, period, 64)
    }
}

/// Run the plain kernel `setup` builds under a checkpoint or a transaction
/// every `period` units, with `trigger` armed. Wherever the crash lands,
/// restore → resume ends on the native run's answer *bitwise* (the
/// mechanisms add persistence, not arithmetic), never resumes past the
/// crashed unit (`unit_of` its site), and loses at most one period.
pub fn crash_anywhere_restores<K: Baseline>(
    cfg: SystemConfig,
    trigger: CrashTrigger,
    setup: impl Fn(&mut MemorySystem) -> (K, K::Carry),
    (ckpt, period): (bool, usize),
    unit_of: impl Fn(&K, CrashSite) -> usize,
) -> Result<(), TestCaseError>
where
    K::Answer: PartialEq + std::fmt::Debug,
{
    let mut sys = MemorySystem::new(cfg.clone());
    let (k, carry0) = setup(&mut sys);
    let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
    baseline::run_native(&mut emu, &k, carry0)
        .completed()
        .expect("trigger is Never");
    let reference = k.peek(&emu);

    let mut sys = MemorySystem::new(cfg.clone());
    let (k, carry0) = setup(&mut sys);
    let mut mechanism = arm(ckpt, period, &mut sys, &k);
    let mut emu = CrashEmulator::from_system(sys, trigger);
    if let RunOutcome::Crashed(image) = mechanism.run(&mut emu, &k, carry0) {
        let crashed = unit_of(&k, emu.fired_site().expect("crashed"));
        let sys = MemorySystem::from_image(cfg, &image);
        emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        let (start, carry, restored) = mechanism.restore(&mut emu, &k, carry0);
        prop_assert!(
            restored || start == 0,
            "nothing restored, yet resumed at {start}"
        );
        prop_assert!(
            start <= crashed + 1,
            "resumed at {start}, past unit {crashed}"
        );
        let lost = crashed + 1 - start;
        prop_assert!(lost <= period, "lost {lost} units, period {period}");
        baseline::resume(&mut emu, &k, start, carry);
    }
    prop_assert_eq!(k.peek(&emu), reference);
    Ok(())
}

/// The cost ordering the paper's evaluation is built on, for one family:
/// `time` of each case of `chain` strictly increases — but for a native run
/// at its head, which an algorithm-directed run may equal.
pub fn assert_cost_ordering(family: &str, chain: &[Case], time: impl Fn(Case) -> u64) {
    let times: Vec<u64> = chain.iter().map(|&case| time(case)).collect();
    for (i, pair) in times.windows(2).enumerate() {
        let (lo, hi) = (chain[i], chain[i + 1]);
        let ordered = pair[0] < pair[1] || (lo == Case::Native && pair[0] == pair[1]);
        assert!(
            ordered,
            "{family}: {} {} !< {} {}",
            lo.name(),
            pair[0],
            hi.name(),
            pair[1]
        );
    }
}
