//! Shared batched-harvest harness.
//!
//! Every scenario's `run_batch` has the same shape: set the workload up,
//! arm the emulator's harvest plan with one trigger per scheduled unit,
//! run the forward execution **once** to completion, then classify each
//! harvested crash state streaming (materializing one image at a time, so
//! peak memory stays flat no matter how many crash points the batch
//! carries). Units whose trigger never fired completed cleanly; they share
//! one completion-classified trial template.
//!
//! A crash *state* is not a crash *unit*: every unit whose trigger fired
//! at the same poll saw the same machine ([`poll_groups`]). Scenarios
//! therefore hand the harness two steps. The **per-state** step gets the
//! image and the site and does all the work — reboot, recover, resume,
//! compare — once per poll group; its signature has no unit, so it cannot
//! make the result depend on one. The **per-unit** step turns that state
//! into the `Trial` of each unit in the group and must be cheap.

use adcc_core::DirtyRestart;
use adcc_resilience::{DirtyClass, DirtyTrial, Tolerance};
use adcc_sim::crash::{poll_groups, CrashEmulator, CrashSite, CrashTrigger, Harvest};
use adcc_sim::image::NvmImage;
use adcc_telemetry::{ExecutionProfile, Probe};

use crate::memstats::ImageMemory;
use crate::outcome::Outcome;
use crate::scenario::Trial;

/// What recovering one crash state came to, before it is charged to a
/// unit: a [`Trial`] minus its `unit`. The per-state result of every
/// scenario whose classification is a function of the state alone.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Classified {
    pub outcome: Outcome,
    pub lost_units: u64,
    pub sim_time_ps: u64,
    pub telemetry: Option<ExecutionProfile>,
}

impl Classified {
    /// The trial of `unit`, one of the units that crashed in this state.
    pub(crate) fn for_unit(&self, unit: u64) -> Trial {
        Trial {
            unit,
            outcome: self.outcome,
            lost_units: self.lost_units,
            sim_time_ps: self.sim_time_ps,
            telemetry: self.telemetry,
        }
    }
}

/// Run one harvested batch execution and classify its trials.
///
/// * `units` — sorted, distinct scheduled units.
/// * `trigger_of` — unit → crash trigger (usually `Scenario::trigger_of`).
/// * `emu` — freshly set-up emulator (trigger [`CrashTrigger::Never`]).
/// * `run` — drives the forward execution to completion, returning
///   whatever completion context the scenario needs (e.g. a final `rho`).
/// * `crash_state` — the per-state step: recovers and classifies one crash
///   state from its materialized image, once per poll group (`k` is the
///   harvest ordinal of the group's first capture — scenarios keeping
///   per-capture sidecars index them with it); must match the `run_trial`
///   crash arm exactly.
/// * `unit_trial` — the per-unit step: the trial of one unit of the group.
/// * `complete_trial` — classifies the completed run (called at most once;
///   its trial is replicated, with the unit overridden, across every unit
///   whose trigger never fired).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_harvested<T, S>(
    units: &[u64],
    telemetry: bool,
    mem: &ImageMemory,
    mut emu: CrashEmulator,
    trigger_of: impl Fn(u64) -> CrashTrigger,
    run: impl FnOnce(&mut CrashEmulator) -> T,
    crash_state: impl FnMut(usize, CrashSite, &NvmImage, Option<ExecutionProfile>) -> S,
    unit_trial: impl Fn(&S, u64) -> Trial,
    complete_trial: impl FnOnce(T, &CrashEmulator, Option<ExecutionProfile>) -> Trial,
) -> Vec<Trial> {
    run_harvested_ref(
        units,
        telemetry,
        mem,
        &mut emu,
        trigger_of,
        run,
        crash_state,
        unit_trial,
        complete_trial,
    )
}

/// Like [`run_harvested`], but borrowing the emulator so the caller can
/// inspect it afterwards — the analyzed batch path detaches the
/// persist-order event recorder from the system once the run is done.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_harvested_ref<T, S>(
    units: &[u64],
    telemetry: bool,
    mem: &ImageMemory,
    emu: &mut CrashEmulator,
    trigger_of: impl Fn(u64) -> CrashTrigger,
    run: impl FnOnce(&mut CrashEmulator) -> T,
    mut crash_state: impl FnMut(usize, CrashSite, &NvmImage, Option<ExecutionProfile>) -> S,
    unit_trial: impl Fn(&S, u64) -> Trial,
    complete_trial: impl FnOnce(T, &CrashEmulator, Option<ExecutionProfile>) -> Trial,
) -> Vec<Trial> {
    let probe = telemetry.then(|| Probe::attach(emu));
    let (end, harvests) = harvest(units, mem, emu, trigger_of, run);

    let mut by_unit: Vec<Option<Trial>> = vec![None; units.len()];
    let mut k = 0;
    for group in poll_groups(&harvests) {
        let h = &group[0];
        let profile = probe.as_ref().map(|p| {
            p.finish_at(&h.at)
                .with_dirty_lines(h.image.dirty_lines_at_crash())
        });
        // Materialize one image at a time: classification is streaming.
        let image = h.image.materialize();
        let state = crash_state(k, h.site, &image, profile);
        for h in group {
            by_unit[slot(units, h.unit)] = Some(unit_trial(&state, h.unit));
        }
        k += group.len();
    }
    fill_completed(units, &mut by_unit, || {
        let profile = probe.as_ref().map(|p| p.finish(emu));
        complete_trial(end, emu, profile)
    })
}

/// One dirty restart's classification, before it is charged to a unit: a
/// [`DirtyTrial`] minus its `unit`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DirtyState {
    class: DirtyClass,
    extra_units: u64,
    sim_time_ps: u64,
}

/// Run one harvested batch execution in dirty-restart mode.
///
/// Same harvest mechanics as [`run_harvested`], but each crash state is
/// handed to `dirty_state` (which reboots it dirty and classifies the
/// outcome) instead of the scenario's recovery path — once per poll
/// group; a dirty restart consults no mechanism, so nothing about it can
/// depend on the unit and the harness charges it to the group itself.
/// Units whose trigger never fires complete cleanly: nothing was lost,
/// nothing rebooted, so they classify as [`DirtyClass::ConvergedExact`]
/// with zero extra work.
pub(crate) fn run_dirty(
    units: &[u64],
    mem: &ImageMemory,
    mut emu: CrashEmulator,
    trigger_of: impl Fn(u64) -> CrashTrigger,
    run: impl FnOnce(&mut CrashEmulator),
    mut dirty_state: impl FnMut(&NvmImage) -> DirtyState,
) -> Vec<DirtyTrial> {
    let ((), harvests) = harvest(units, mem, &mut emu, trigger_of, run);

    let mut trials: Vec<DirtyTrial> = units
        .iter()
        .map(|&unit| DirtyTrial {
            unit,
            class: DirtyClass::ConvergedExact,
            extra_units: 0,
            sim_time_ps: 0,
        })
        .collect();
    for group in poll_groups(&harvests) {
        // Materialize one image at a time: classification is streaming.
        let image = group[0].image.materialize();
        let state = dirty_state(&image);
        for h in group {
            trials[slot(units, h.unit)] = DirtyTrial {
                unit: h.unit,
                class: state.class,
                extra_units: state.extra_units,
                sim_time_ps: state.sim_time_ps,
            };
        }
    }
    trials
}

/// The forward half both runners share: arm one harvest point per unit,
/// run to completion, take the captures (poll order) and record their
/// memory facts.
fn harvest<T>(
    units: &[u64],
    mem: &ImageMemory,
    emu: &mut CrashEmulator,
    trigger_of: impl Fn(u64) -> CrashTrigger,
    run: impl FnOnce(&mut CrashEmulator) -> T,
) -> (T, Vec<Harvest>) {
    debug_assert!(units.windows(2).all(|w| w[0] < w[1]), "units unsorted");
    debug_assert_eq!(
        emu.trigger(),
        CrashTrigger::Never,
        "batch executions must run to completion"
    );
    emu.arm_harvest(units.iter().map(|&u| (trigger_of(u), u)));
    let end = run(emu);
    let harvests = emu.take_harvests();
    record(mem, emu, &harvests);
    (end, harvests)
}

/// Engine-order position of a harvested unit.
fn slot(units: &[u64], unit: u64) -> usize {
    units
        .binary_search(&unit)
        .expect("harvested unit was scheduled")
}

/// Classify one kernel dirty-restart against the scenario reference: a
/// restart the application's own audit rejected is `detected-dirty-again`;
/// otherwise the max elementwise difference runs through the tolerance
/// ladder (NaN anywhere maps to infinity, hence diverged).
pub(crate) fn classify_dirty(d: &DirtyRestart, reference: &[f64], tol: &Tolerance) -> DirtyState {
    let (detected, diff) = match &d.solution {
        None => (true, 0.0),
        Some(sol) => (false, super::max_diff(sol, reference)),
    };
    DirtyState {
        class: tol.classify(detected, diff),
        extra_units: d.extra_units,
        sim_time_ps: d.sim_time_ps,
    }
}

/// Record one batched execution's crash-image memory facts. Images and
/// delta bytes count per scheduled unit (what the batch would hold without
/// payload sharing); the poll groups are the distinct states.
fn record(mem: &ImageMemory, emu: &CrashEmulator, harvests: &[Harvest]) {
    let pool = emu.config().nvm_capacity as u64;
    let delta_bytes: u64 = harvests.iter().map(|h| h.image.delta_bytes()).sum();
    let distinct = poll_groups(harvests).count() as u64;
    mem.record_execution(pool, delta_bytes, harvests.len() as u64, distinct, pool);
}

/// Replicate a lazily-built completion trial over every unit still missing
/// one, then unwrap into engine order.
fn fill_completed(
    units: &[u64],
    by_unit: &mut [Option<Trial>],
    template: impl FnOnce() -> Trial,
) -> Vec<Trial> {
    if by_unit.iter().any(Option::is_none) {
        let template = template();
        for (i, t) in by_unit.iter_mut().enumerate() {
            if t.is_none() {
                *t = Some(Trial {
                    unit: units[i],
                    ..template
                });
            }
        }
    }
    by_unit
        .iter()
        .map(|t| t.expect("every unit classified"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcc_sim::parray::PArray;
    use adcc_sim::system::SystemConfig;

    /// Four polls, two accesses apart; unit `u` fires at the first poll
    /// with at least `u` accesses, so units 1..=2 share the second poll,
    /// 3..=4 the third, 5..=6 the fourth, and 7 never fires.
    fn emu_and_run() -> (CrashEmulator, impl FnOnce(&mut CrashEmulator)) {
        let mut emu =
            CrashEmulator::new(SystemConfig::nvm_only(4096, 1 << 16), CrashTrigger::Never);
        let a = PArray::<u64>::alloc_nvm(&mut emu, 8);
        let run = move |e: &mut CrashEmulator| {
            for i in 0..4u64 {
                assert!(!e.poll(CrashSite::new(0, i)));
                a.set(e, 2 * i as usize, i);
                a.set(e, 2 * i as usize + 1, i);
            }
        };
        (emu, run)
    }

    #[test]
    fn per_state_step_runs_once_per_distinct_poll() {
        let units: Vec<u64> = (1..=7).collect();
        let mem = ImageMemory::default();
        let (emu, run) = emu_and_run();
        let mut states: Vec<(usize, CrashSite)> = Vec::new();
        let trials = run_harvested(
            &units,
            false,
            &mem,
            emu,
            CrashTrigger::AtAccessCount,
            run,
            |k, site, _image, _profile| {
                states.push((k, site));
                site.index
            },
            |&poll_index, unit| Trial {
                unit,
                outcome: Outcome::RecoveredExact,
                lost_units: poll_index,
                sim_time_ps: 0,
                telemetry: None,
            },
            |(), _e, _profile| super::super::verified_completion(true, 0, None),
        );
        // One call per poll that captured anything, keyed by the ordinal
        // of the group's first harvest.
        let sites: Vec<(usize, u64)> = states.iter().map(|(k, s)| (*k, s.index)).collect();
        assert_eq!(sites, [(0, 1), (2, 2), (4, 3)]);
        // Every unit still gets its own trial, built from its group's state.
        let got: Vec<(u64, u64)> = trials.iter().map(|t| (t.unit, t.lost_units)).collect();
        assert_eq!(
            got,
            [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (6, 3), (7, 0)]
        );
        assert_eq!(trials[6].outcome, Outcome::CompletedClean);
        let m = mem.summary();
        assert_eq!((m.images, m.distinct_states), (6, Some(3)));
    }

    #[test]
    fn dirty_step_runs_once_per_distinct_poll() {
        let units: Vec<u64> = (1..=7).collect();
        let mem = ImageMemory::default();
        let (emu, run) = emu_and_run();
        let mut calls = 0u64;
        let trials = run_dirty(
            &units,
            &mem,
            emu,
            CrashTrigger::AtAccessCount,
            run,
            |_image| {
                calls += 1;
                DirtyState {
                    class: DirtyClass::ConvergedWrong,
                    extra_units: calls,
                    sim_time_ps: 0,
                }
            },
        );
        assert_eq!(calls, 3);
        let got: Vec<(u64, u64)> = trials.iter().map(|t| (t.unit, t.extra_units)).collect();
        assert_eq!(
            got,
            [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (6, 3), (7, 0)]
        );
        assert_eq!(trials[6].class, DirtyClass::ConvergedExact);
    }
}
