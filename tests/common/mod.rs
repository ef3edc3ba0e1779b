//! The crash-anywhere property of the iterate-history protocol, stated
//! once over [`Extended`] and instantiated per kernel by the
//! `proptest_*crash_anywhere` suites.

use proptest::prelude::*;

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
