//! The one kernel/ds scenario driver.
//!
//! The experiment is always the same: crash a workload at a point, recover
//! from what NVM holds, compare with the crash-free answer. A scenario
//! states its half of that **once**, as the hooks of [`Workload`] — set-up,
//! forward run, per-state recovery, per-unit charge, completion check, and
//! optionally a dirty-restart step and protocol regions — and this module
//! derives every way of running it:
//!
//! * [`run_trial`], the per-unit reference: arm the unit's real trigger,
//!   run until it fires, recover from the `crash_now` full-copy image. The
//!   oracle the delta-equivalence suite compares the batch against.
//! * the batch, in the three steps of [`Scenario::harvest`]:
//!   1. [`harvest`] — arm one harvest point per scheduled unit and run the
//!      forward execution **once** to completion. One thread, once per
//!      batch.
//!   2. [`Batch::run_next`] — one job per *distinct crash state*: recover,
//!      dirty-restart, whichever were asked for, each from an image
//!      materialized for it and handed over by value. A job reads the batch
//!      (`&Live`, the harvests, the probe) and writes only its own result
//!      slot, so any number of threads may take jobs from one batch at
//!      once; each holds one materialized image, so peak memory is flat in
//!      the number of crash points and linear in the number of workers. A
//!      workload that [chains](Workload::chains) takes its states
//!      *together*: each requested per-state pass is one job — the recover
//!      chain, then the dirty chain, two jobs of the one cursor, so two
//!      workers can take one each — which pulls the states in poll order
//!      one image at a time. Both kinds of job go through the same two
//!      hooks ([`Workload::recover_chain`],
//!      [`Workload::dirty_restart_chain`]): a job of one state is a chain
//!      of one.
//!   3. [`Batch::finish`] — charge the recovered states to their units in
//!      poll order, add the units that ran to completion, run the analysis.
//!      One thread, once per batch, after every job.
//!
//!   The forward machine does not outlive step 1: what step 3 wants of it
//!   — the completed run's classification, the event record — is taken
//!   when the forward run ends.
//!
//!   [`Scenario::run_passes`] is those three steps on one thread; the
//!   engine lets idle workers take step-2 jobs of a batch another worker
//!   owns. Either way the merge reads group-indexed slots in poll order,
//!   so the output is the same bytes.
//!
//! A crash *state* is not a crash *unit*: every unit whose trigger fired
//! at the same poll saw the same machine ([`poll_groups`]). The per-state
//! hooks ([`Workload::recover`], [`Workload::dirty_restart`]) therefore run
//! once per poll group, take the live handles by shared reference and have
//! no unit in their signature, so they can neither make the result depend
//! on a unit nor on which job ran first; [`CrashState::charge`] turns a
//! recovered state into the `Trial` of each unit in the group and must be
//! cheap.
//!
//! Hooks are resolved by monomorphization (`impl<W: Workload> Scenario for
//! W`): no boxed closure sits on a per-state path.

use adcc_analyze::{analyze, Region};
use adcc_core::{DirtyRestart, RecoveryReport};
use adcc_linalg::vecops::max_diff;
use adcc_pmem::LogStats;
use adcc_resilience::{DirtyClass, DirtyTrial, Tolerance};
use adcc_sim::crash::{poll_groups, CrashEmulator, CrashSite, CrashTrigger, Harvest, RunOutcome};
use adcc_sim::events::EventRecorder;
use adcc_sim::image::NvmImage;
use adcc_sim::line::{LINE_SHIFT, LINE_SIZE};
use adcc_telemetry::{ExecutionProfile, Probe};

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use super::never_crashed;
use crate::memstats::ImageMemory;
use crate::outcome::{classify, Outcome};
use crate::scenario::{
    Analyzed, Harvested, PassOutput, Passes, ResilienceBatch, Scenario, ScenarioInfo, Trial, Whole,
};

/// One kernel or data-structure workload under one persistence mechanism,
/// stated as the hooks the driver needs. Everything a hook may depend on
/// is in its signature:
///
/// * [`setup`](Workload::setup) — `self` only (the problem is fixed at
///   construction), so every execution starts from the same machine.
/// * [`forward`](Workload::forward) — the live state and the emulator.
///   Must poll the emulator and return `Crashed` when a poll fires; with
///   the `Never` trigger of a batch it runs to completion.
/// * [`recover`](Workload::recover) — the crash state (site + image) and
///   a shared reference to the live mechanism handles (layouts, the
///   checkpoint manager), never a unit and never the forward emulator.
///   Several recoveries of one batch may run at once.
/// * [`recover_chain`](Workload::recover_chain) — `recover` for every
///   crash state of the batch at once, for a workload whose recoveries
///   share work; the same states out as `recover` would give one by one.
/// * [`CrashState::charge`] — the recovered state and the unit.
/// * [`dirty_restart`](Workload::dirty_restart) — the image and the live
///   kernel handle; no mechanism is consulted.
/// * [`dirty_restart_chain`](Workload::dirty_restart_chain) — what
///   `recover_chain` is to `recover`.
pub(crate) trait Workload: Send + Sync {
    /// What set-up leaves behind: the kernel handle plus whatever its
    /// mechanism owns (checkpoint manager, undo pool, log sidecar).
    type Live: Send + Sync;
    /// Completion context of the forward run (e.g. CG's final `rho`).
    type End: Send + Sync;
    /// What recovering one crash state came to, before it is charged to a
    /// unit — [`Classified`] for every scenario whose classification is a
    /// function of the state alone.
    type State: CrashState + Send;

    /// Who this scenario is.
    fn info(&self) -> &ScenarioInfo;
    /// Crash trigger for a site-grain unit.
    fn site_trigger(&self, unit: u64) -> CrashTrigger;

    /// Build a fresh machine armed with `trigger` and set the workload up
    /// on it.
    fn setup(&self, trigger: CrashTrigger) -> (CrashEmulator, Self::Live);

    /// Drive the forward execution until it completes or a poll fires.
    fn forward(&self, live: &mut Self::Live, emu: &mut CrashEmulator) -> RunOutcome<Self::End>;

    /// The per-state step: reboot `image`, recover through the mechanism,
    /// resume to the end, compare with the reference. `profile` is the
    /// forward execution's cost up to the crash, when telemetry is on.
    fn recover(
        &self,
        live: &Self::Live,
        site: CrashSite,
        image: &NvmImage,
        profile: Option<ExecutionProfile>,
    ) -> Self::State;

    /// Whether [`recover_chain`](Workload::recover_chain) and
    /// [`dirty_restart_chain`](Workload::dirty_restart_chain) are handed all
    /// the crash states of one batch together. Default: one state at a
    /// time. [`recover`](Workload::recover) stays the per-unit oracle
    /// ([`run_trial`]) either way.
    fn chains(&self) -> bool {
        false
    }

    /// The recover step over crash states of one forward execution — all
    /// of a batch's, in poll order, for a workload that
    /// [`chains`](Workload::chains), one otherwise: one [`Workload::State`]
    /// per state in the order given, each equal to what
    /// [`recover`](Workload::recover) makes of that state alone, which is
    /// what the default does. A state's image is materialized when it is
    /// pulled from `states` and handed over by value, so a workload that can
    /// boot from it without a copy does, and a chain holds as many images as
    /// it has not dropped.
    fn recover_chain(
        &self,
        live: &Self::Live,
        states: &mut dyn Iterator<Item = HarvestedState>,
    ) -> Vec<Self::State> {
        states
            .map(|s| self.recover(live, s.site, &s.image, s.profile))
            .collect()
    }

    /// Classify the completed run (the crash point landed beyond it). The
    /// driver overrides the trial's `unit`.
    fn complete(
        &self,
        live: &Self::Live,
        end: Self::End,
        emu: &CrashEmulator,
        profile: Option<ExecutionProfile>,
    ) -> Trial;

    /// Mechanism log counters the emulator cannot see, folded into every
    /// telemetry profile: as of harvest ordinal `harvest`'s instant, or —
    /// `None` — as of now (the run has stopped, crashed or complete).
    /// Default: the mechanism keeps no log.
    fn log_stats(&self, live: &Self::Live, harvest: Option<usize>) -> Option<LogStats> {
        let _ = (live, harvest);
        None
    }

    /// The dirty-restart pass's yardstick: the residual tolerance ladder
    /// and the reference answer in [`DirtyRestart::solution`]'s layout.
    /// Default `None`: the workload has no loop to re-enter, so it has no
    /// dirty-restart pass.
    fn dirty_reference(&self) -> Option<(Tolerance, Vec<f64>)> {
        None
    }

    /// The per-state dirty step: reboot `image` as it is and run to the
    /// natural termination bound. Only called when
    /// [`dirty_reference`](Workload::dirty_reference) is `Some`.
    fn dirty_restart(&self, live: &Self::Live, image: &NvmImage) -> DirtyRestart {
        let _ = (live, image);
        unreachable!("{} declares no dirty reference", Workload::info(self).name)
    }

    /// The dirty step over crash states of one forward execution, as
    /// [`recover_chain`](Workload::recover_chain) is the recover step: one
    /// [`DirtyRestart`] per image in the order given, each equal to what
    /// [`dirty_restart`](Workload::dirty_restart) makes of that state alone,
    /// which is what the default does.
    fn dirty_restart_chain(
        &self,
        live: &Self::Live,
        images: &mut dyn Iterator<Item = NvmImage>,
    ) -> Vec<DirtyRestart> {
        images
            .map(|image| self.dirty_restart(live, &image))
            .collect()
    }

    /// Protocol regions for the persist-order analyzer. Default empty: no
    /// analyze pass.
    fn regions(&self) -> Vec<Region> {
        Vec::new()
    }
}

impl<W: Workload> Scenario for W {
    fn info(&self) -> &ScenarioInfo {
        Workload::info(self)
    }
    fn site_trigger(&self, unit: u64) -> CrashTrigger {
        Workload::site_trigger(self, unit)
    }
    fn chains(&self) -> bool {
        Workload::chains(self)
    }
    fn run_trial(&self, unit: u64, telemetry: bool) -> Trial {
        run_trial(self, unit, telemetry)
    }
    fn harvest<'a>(
        &'a self,
        units: &'a [u64],
        passes: Passes,
        mem: &ImageMemory,
    ) -> Box<dyn Harvested + 'a> {
        harvest(self, units, passes, mem)
    }
}

/// One distinct crash state of a batch, as [`Workload::recover_chain`]
/// receives it: what [`Workload::recover`] takes, by value.
pub(crate) struct HarvestedState {
    pub site: CrashSite,
    pub image: NvmImage,
    /// The forward execution's cost up to the crash, when telemetry is on.
    pub profile: Option<ExecutionProfile>,
}

/// A recovered crash state: the result of the per-state step.
pub(crate) trait CrashState {
    /// The per-unit step: the trial of `unit`, one of the units that
    /// crashed in this state.
    fn charge(&self, unit: u64) -> Trial;
}

/// What recovering one crash state came to, before it is charged to a
/// unit: a [`Trial`] minus its `unit`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Classified {
    pub outcome: Outcome,
    pub lost_units: u64,
    pub sim_time_ps: u64,
    pub telemetry: Option<ExecutionProfile>,
}

impl Classified {
    /// Classify a recovery that re-executed `lost_units` work units in
    /// `sim_time_ps` of simulated detect + resume time.
    pub(crate) fn new(
        detected: bool,
        matches: bool,
        lost_units: u64,
        sim_time_ps: u64,
        telemetry: Option<ExecutionProfile>,
    ) -> Classified {
        Classified {
            outcome: classify(detected, matches, lost_units),
            lost_units,
            sim_time_ps,
            telemetry,
        }
    }

    /// Classify a recovery the kernel itself measured (the
    /// algorithm-directed `recover_and_resume` paths).
    pub(crate) fn from_report(
        detected: bool,
        matches: bool,
        report: &RecoveryReport,
        telemetry: Option<ExecutionProfile>,
    ) -> Classified {
        Classified::new(
            detected,
            matches,
            report.lost_units,
            report.total().ps(),
            telemetry,
        )
    }
}

impl CrashState for Classified {
    fn charge(&self, unit: u64) -> Trial {
        Trial {
            unit,
            outcome: self.outcome,
            lost_units: self.lost_units,
            sim_time_ps: self.sim_time_ps,
            telemetry: self.telemetry,
        }
    }
}

/// `profile` plus the mechanism's log counters, where it keeps any.
fn with_log<W: Workload>(
    w: &W,
    live: &W::Live,
    harvest: Option<usize>,
    profile: ExecutionProfile,
) -> ExecutionProfile {
    match w.log_stats(live, harvest) {
        Some(log) => profile.with_log(log),
        None => profile,
    }
}

/// The per-unit reference run: one instrumented execution under `unit`'s
/// real trigger, recovery from the full-copy `crash_now` image.
pub(crate) fn run_trial<W: Workload>(w: &W, unit: u64, telemetry: bool) -> Trial {
    let (mut emu, mut live) = w.setup(w.trigger_of(unit));
    let probe = telemetry.then(|| Probe::attach(&emu));
    match w.forward(&mut live, &mut emu) {
        RunOutcome::Completed(end) => {
            let profile = probe.map(|p| with_log(w, &live, None, p.finish(&emu)));
            Trial {
                unit,
                ..w.complete(&live, end, &emu, profile)
            }
        }
        RunOutcome::Crashed(image) => {
            let profile =
                probe.map(|p| with_log(w, &live, None, p.finish(&emu).with_image(&image)));
            let site = emu.fired_site().expect("crashed");
            w.recover(&live, site, &image, profile).charge(unit)
        }
    }
}

/// One harvested batch of `w`: everything the forward execution left
/// behind, the poll groups as jobs, one result slot per group.
struct Batch<'a, W: Workload> {
    w: &'a W,
    units: &'a [u64],
    recover: bool,
    /// Each per-state pass is one job for the whole batch — a chain over
    /// its states — not part of each group's job.
    chained: bool,
    dirty_ref: Option<(Tolerance, Vec<f64>)>,
    regions: Vec<Region>,
    live: W::Live,
    probe: Option<Probe>,
    /// The trial of every unit whose trigger never fired, but for its
    /// `unit`: the completed run, classified before its machine was
    /// dropped. `None` when every unit fired (or nobody recovers).
    completed: Option<Trial>,
    /// The forward execution's event record, when regions were declared.
    recorded: Option<EventRecorder>,
    harvests: Vec<Harvest>,
    /// Each poll group as its range of `harvests`. The range's start is
    /// the ordinal of the group's first harvest: log sidecars are per
    /// capture.
    groups: Vec<Range<usize>>,
    /// The next job nobody has claimed: the groups in poll order, or — of a
    /// chained batch — the chains.
    next: AtomicUsize,
    /// Group-indexed results.
    done: Vec<Mutex<Recovered<W::State>>>,
}

/// What the jobs made of one crash state: one entry per requested
/// per-state pass, `None` until the job that owes it has stored it.
struct Recovered<S> {
    state: Option<S>,
    /// The dirty trial of every unit in the group, but for its `unit`.
    dirty: Option<DirtyTrial>,
}

/// Step 1: one forward execution harvesting every unit of `units` (sorted,
/// distinct).
fn harvest<'a, W: Workload>(
    w: &'a W,
    units: &'a [u64],
    passes: Passes,
    mem: &ImageMemory,
) -> Box<dyn Harvested + 'a> {
    debug_assert!(units.windows(2).all(|w| w[0] < w[1]), "units unsorted");
    let dirty_ref = passes.dirty.then(|| w.dirty_reference()).flatten();
    let regions = if passes.analyze {
        w.regions()
    } else {
        Vec::new()
    };
    if !passes.recover && dirty_ref.is_none() && regions.is_empty() {
        return Box::new(Whole(PassOutput::default()));
    }

    let (mut emu, mut live) = w.setup(CrashTrigger::Never);
    if !regions.is_empty() {
        // Attach the recorder only after setup: the protocol under
        // analysis starts at the forward run, not at heap construction.
        let mut rec = EventRecorder::new();
        for r in &regions {
            rec.track_range(
                r.first_line << LINE_SHIFT,
                r.line_count as usize * LINE_SIZE,
            );
        }
        emu.system_mut().attach_recorder(rec);
    }
    let probe = (passes.recover && passes.telemetry).then(|| Probe::attach(&emu));
    let base_bytes = emu
        .arm_harvest(units.iter().map(|&u| (w.trigger_of(u), u)))
        .resident_bytes();
    let end = w
        .forward(&mut live, &mut emu)
        .completed()
        .expect("a Never trigger runs to completion");
    let harvests = emu.take_harvests();
    let mut end_of_last = 0;
    let groups: Vec<Range<usize>> = poll_groups(&harvests)
        .map(|group| {
            let start = end_of_last;
            end_of_last += group.len();
            start..end_of_last
        })
        .collect();
    record(mem, &emu, base_bytes, &harvests, groups.len() as u64);
    // The last two things anybody wants of the forward machine; a job boots
    // its own. Dropped here, it is not held across every job of the batch.
    let completed = (passes.recover && harvests.len() < units.len()).then(|| {
        let profile = probe
            .as_ref()
            .map(|p| with_log(w, &live, None, p.finish(&emu)));
        w.complete(&live, end, &emu, profile)
    });
    let recorded =
        (!regions.is_empty()).then(|| emu.system_mut().take_recorder().expect("recorder attached"));
    drop(emu);
    Box::new(Batch {
        w,
        units,
        recover: passes.recover,
        chained: w.chains(),
        dirty_ref,
        regions,
        live,
        probe,
        completed,
        recorded,
        harvests,
        next: AtomicUsize::new(0),
        done: groups
            .iter()
            .map(|_| {
                Mutex::new(Recovered {
                    state: None,
                    dirty: None,
                })
            })
            .collect(),
        groups,
    })
}

impl<W: Workload> Batch<'_, W> {
    /// The forward execution's profile as of `group`'s crash, when
    /// telemetry is on.
    fn profile_at(&self, group: &Range<usize>) -> Option<ExecutionProfile> {
        let h = &self.harvests[group.start];
        self.probe.as_ref().map(|p| {
            let at_crash = p
                .finish_at(&h.at)
                .with_dirty_lines(h.image.dirty_lines_at_crash());
            with_log(self.w, &self.live, Some(group.start), at_crash)
        })
    }

    /// Store what a job made of group `g`.
    fn store(&self, g: usize, put: impl FnOnce(&mut Recovered<W::State>)) {
        put(&mut self.done[g].lock().expect("a job never panics mid-store"));
    }

    /// The dirty trial of `group`'s units, but for its `unit`.
    fn dirty_trial(&self, group: &Range<usize>, d: &DirtyRestart) -> Option<DirtyTrial> {
        let (tolerance, reference) = self.dirty_ref.as_ref()?;
        Some(DirtyTrial {
            unit: self.harvests[group.start].unit,
            class: classify_dirty(d, reference, tolerance),
            extra_units: d.extra_units,
            sim_time_ps: d.sim_time_ps,
        })
    }

    /// Store what a hook made of the states of `groups`, one result each.
    fn store_each<T>(
        &self,
        groups: Range<usize>,
        results: Vec<T>,
        put: impl Fn(&mut Recovered<W::State>, &Range<usize>, T),
    ) {
        assert_eq!(
            results.len(),
            groups.len(),
            "{}: a chain returns one result per crash state",
            Workload::info(self.w).name
        );
        for (g, result) in groups.zip(results) {
            self.store(g, |slot| put(slot, &self.groups[g], result));
        }
    }

    /// The recover pass over the states of `groups`, together.
    fn recover_states(&self, groups: Range<usize>) {
        let mut states = self.groups[groups.clone()].iter().map(|group| {
            let h = &self.harvests[group.start];
            HarvestedState {
                site: h.site,
                image: h.image.materialize(),
                profile: self.profile_at(group),
            }
        });
        let recovered = self.w.recover_chain(&self.live, &mut states);
        self.store_each(groups, recovered, |slot, _, state| slot.state = Some(state));
    }

    /// The dirty pass over the states of `groups`, together.
    fn restart_states(&self, groups: Range<usize>) {
        let mut images = self.groups[groups.clone()]
            .iter()
            .map(|group| self.harvests[group.start].image.materialize());
        let restarted = self.w.dirty_restart_chain(&self.live, &mut images);
        self.store_each(groups, restarted, |slot, group, d| {
            slot.dirty = self.dirty_trial(group, &d)
        });
    }
}

impl<W: Workload> Harvested for Batch<'_, W> {
    /// Step 2, one job: every requested per-state pass over the next
    /// unclaimed poll group's machine state, or — of a chained batch — the
    /// next pass over all of them. Either way a pass goes through the
    /// workload's chain hook, which gets each image by value, materialized
    /// for it: a job of one state is a chain of one.
    fn run_next(&self) -> bool {
        // The claim publishes nothing: what a job reads was written before
        // the batch was shared, what it writes goes through its slot's lock.
        let job = self.next.fetch_add(1, Ordering::Relaxed);
        let passes: [Option<fn(&Self, Range<usize>)>; 2] = [
            self.recover.then_some(Self::recover_states),
            self.dirty_ref.is_some().then_some(Self::restart_states),
        ];
        let mut passes = passes.into_iter().flatten();
        let all = 0..self.groups.len();
        if self.chained {
            match passes.nth(job) {
                Some(pass) => pass(self, all),
                None => return false,
            }
        } else if all.contains(&job) {
            passes.for_each(|pass| pass(self, job..job + 1));
        } else {
            return false;
        }
        true
    }

    /// Step 3: merge the group slots in poll order, then the units that
    /// never crashed and the analysis.
    fn finish(self: Box<Self>) -> PassOutput {
        let Batch {
            w,
            units,
            recover,
            dirty_ref,
            regions,
            completed,
            recorded,
            harvests,
            groups,
            done,
            ..
        } = *self;
        let slot = |unit: u64| {
            units
                .binary_search(&unit)
                .expect("harvested unit was scheduled")
        };
        let mut trials: Vec<Option<Trial>> = vec![None; if recover { units.len() } else { 0 }];
        let mut dirty: Vec<DirtyTrial> = if dirty_ref.is_some() {
            units.iter().map(|&unit| never_crashed(unit)).collect()
        } else {
            Vec::new()
        };
        for (group, out) in groups.into_iter().zip(done) {
            // A result still owed means the job that claimed it died (a
            // panicking `recover` on a helper thread): fail the batch here
            // rather than report a state nobody classified.
            let out = out.into_inner().expect("a job never panics mid-store");
            assert!(
                out.state.is_some() == recover && out.dirty.is_some() == dirty_ref.is_some(),
                "{}: the job recovering the crash state of unit {} did not finish",
                Workload::info(w).name,
                harvests[group.start].unit
            );
            for h in &harvests[group] {
                if let Some(state) = &out.state {
                    trials[slot(h.unit)] = Some(state.charge(h.unit));
                }
                if let Some(d) = out.dirty {
                    dirty[slot(h.unit)] = DirtyTrial { unit: h.unit, ..d };
                }
            }
        }
        if let Some(template) = completed {
            for (t, &unit) in trials.iter_mut().zip(units) {
                t.get_or_insert(Trial { unit, ..template });
            }
        }

        let analysis = recorded.map(|rec| {
            let mut found = analyze(rec.events(), &regions);
            Analyzed {
                facts: units
                    .iter()
                    .map(|u| found.at_crashes.remove(u).unwrap_or_default())
                    .collect(),
                protocol: found.protocol,
            }
        });
        PassOutput {
            trials: trials.into_iter().flatten().collect(),
            dirty: dirty_ref.map(|(tolerance, _)| ResilienceBatch {
                trials: dirty,
                tolerance,
            }),
            analysis,
        }
    }
}

/// Classify one dirty restart against the scenario reference: a restart
/// the application's own audit rejected is `detected-dirty-again`;
/// otherwise the max elementwise difference runs through the tolerance
/// ladder (NaN anywhere maps to infinity, hence diverged).
fn classify_dirty(d: &DirtyRestart, reference: &[f64], tol: &Tolerance) -> DirtyClass {
    match &d.solution {
        None => tol.classify(true, 0.0),
        Some(sol) => tol.classify(false, max_diff(sol, reference)),
    }
}

/// Record one batched execution's crash-image memory facts. Images and
/// delta bytes count per scheduled unit (what the batch would hold without
/// payload sharing); the poll groups are the distinct states, of which each
/// worker on the batch materializes one at a time.
fn record(
    mem: &ImageMemory,
    emu: &CrashEmulator,
    base_bytes: u64,
    harvests: &[Harvest],
    distinct: u64,
) {
    let delta_bytes: u64 = harvests.iter().map(|h| h.image.delta_bytes()).sum();
    let materialized = harvests
        .iter()
        .map(|h| h.image.materialized_bytes())
        .max()
        .unwrap_or(0)
        * distinct.min(mem.workers());
    mem.record_execution(
        base_bytes,
        delta_bytes,
        harvests.len() as u64,
        distinct,
        materialized,
        emu.config().nvm_capacity as u64,
    );
}

/// Harvest the first 128-unit chunk of `w` and check that no crash image
/// holds more than the run ever wrote: a host-independent "bytes copied"
/// gate, so a regression back to capacity-sized image buffers fails a test
/// instead of a noisy timing. Returns the pool capacity the images span.
#[cfg(test)]
pub(crate) fn assert_images_hold_only_the_written_prefix<W: Workload>(
    w: &W,
    written_max: usize,
) -> usize {
    let units: Vec<u64> = (0..w.total_units().min(128)).collect();
    let (mut emu, mut live) = w.setup(CrashTrigger::Never);
    let pool = emu.config().nvm_capacity;
    let base = emu.arm_harvest(units.iter().map(|&u| (w.trigger_of(u), u)));
    assert_eq!(base.len(), pool);
    assert!(base.resident_bytes() as usize <= written_max);
    assert!(w.forward(&mut live, &mut emu).completed().is_some());
    // The backing store's prefix only grows: at the end of the run it ends
    // at the highest line the run wrote.
    let written = emu.nvm_snapshot().prefix().len();
    assert!(written <= written_max, "{written} B written of {pool}");
    let harvests = emu.take_harvests();
    assert!(poll_groups(&harvests).count() > 1);
    for group in poll_groups(&harvests) {
        let image = group[0].image.materialize();
        assert_eq!(image.len(), pool, "len() stays the logical pool size");
        assert!(image.prefix().len() <= written, "unit {}", group[0].unit);
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_tasks, Task};
    use crate::scenario::{Kernel, Mechanism, UnitSpace};
    use adcc_sim::parray::PArray;
    use adcc_sim::system::SystemConfig;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::sync::{Arc, Barrier};
    use std::thread::ThreadId;

    /// Four polls, two accesses apart; unit `u` fires at the first poll
    /// with at least `u` accesses, so units 1..=2 share the second poll,
    /// 3..=4 the third, 5..=6 the fourth, and 7 never fires. Counts how
    /// often each per-state hook ran.
    #[derive(Default)]
    struct Toy {
        recovers: Arc<AtomicU64>,
        dirties: Arc<AtomicU64>,
        /// When set, the first two recoveries do not return before both
        /// have started: two workers are inside one batch at once.
        meet: Option<Barrier>,
        /// With `meet`: a recovery running on any thread but the one that
        /// ran the forward execution panics.
        helpers_panic: bool,
        /// Take each batch's states through one `recover_chain` and one
        /// `dirty_restart_chain` call. With `meet`, neither returns before
        /// both have started.
        chained: bool,
        chains_run: Arc<AtomicU64>,
        dirty_chains_run: Arc<AtomicU64>,
        /// The dirty chain panics, whichever thread runs it.
        dirty_chain_panics: bool,
        /// `chained` of every toy sharing this log, in set-up order.
        set_up: Arc<Mutex<Vec<bool>>>,
    }

    /// The toy's array plus a mechanism log the emulator cannot see, kept
    /// the way `ds` keeps its undo-log counters: `appends` is the number
    /// of polls passed, `logs[k]` its value when harvest `k` was captured.
    struct ToyLive {
        a: PArray<u64>,
        owner: ThreadId,
        polls: u64,
        logs: Vec<LogStats>,
    }

    impl Toy {
        /// A chained toy's two chains wait for each other at `meet`.
        fn meet_in_chain(&self) {
            if let Some(meet) = self.meet.as_ref().filter(|_| self.chained) {
                meet.wait();
            }
        }
    }

    fn polls_passed(polls: u64) -> LogStats {
        LogStats {
            appends: polls,
            ..LogStats::default()
        }
    }

    impl Workload for Toy {
        type Live = ToyLive;
        type End = ();
        /// `lost_units` carries the crash site's poll index.
        type State = Classified;

        fn info(&self) -> &ScenarioInfo {
            const TOY: ScenarioInfo =
                ScenarioInfo::new("toy", Kernel::Cg, Mechanism::Extended, UnitSpace::new(8, 2));
            &TOY
        }
        fn site_trigger(&self, unit: u64) -> CrashTrigger {
            CrashTrigger::AtAccessCount(unit)
        }
        fn setup(&self, trigger: CrashTrigger) -> (CrashEmulator, ToyLive) {
            self.set_up.lock().unwrap().push(self.chained);
            let mut emu = CrashEmulator::new(SystemConfig::nvm_only(4096, 1 << 16), trigger);
            let live = ToyLive {
                a: PArray::<u64>::alloc_nvm(&mut emu, 8),
                owner: std::thread::current().id(),
                polls: 0,
                logs: Vec::new(),
            };
            (emu, live)
        }
        fn forward(&self, live: &mut ToyLive, e: &mut CrashEmulator) -> RunOutcome<()> {
            for i in 0..4u64 {
                let fired = e.poll(CrashSite::new(0, i));
                live.polls = i + 1;
                while live.logs.len() < e.harvest_count() {
                    live.logs.push(polls_passed(live.polls));
                }
                if fired {
                    return RunOutcome::Crashed(e.crash_now());
                }
                live.a.set(e, 2 * i as usize, i);
                live.a.set(e, 2 * i as usize + 1, i);
            }
            RunOutcome::Completed(())
        }
        fn recover(
            &self,
            live: &ToyLive,
            site: CrashSite,
            _image: &NvmImage,
            profile: Option<ExecutionProfile>,
        ) -> Classified {
            let earlier = self.recovers.fetch_add(1, Relaxed);
            if let Some(meet) = self.meet.as_ref().filter(|_| earlier < 2 && !self.chained) {
                meet.wait();
                if self.helpers_panic && std::thread::current().id() != live.owner {
                    panic!("toy: a helper's recovery failed");
                }
            }
            Classified {
                outcome: Outcome::RecoveredExact,
                lost_units: site.index,
                sim_time_ps: 0,
                telemetry: profile,
            }
        }
        fn chains(&self) -> bool {
            self.chained
        }
        fn recover_chain(
            &self,
            live: &ToyLive,
            states: &mut dyn Iterator<Item = HarvestedState>,
        ) -> Vec<Classified> {
            self.chains_run.fetch_add(1, Relaxed);
            self.meet_in_chain();
            states
                .map(|s| self.recover(live, s.site, &s.image, s.profile))
                .collect()
        }
        fn dirty_restart_chain(
            &self,
            live: &ToyLive,
            images: &mut dyn Iterator<Item = NvmImage>,
        ) -> Vec<DirtyRestart> {
            self.dirty_chains_run.fetch_add(1, Relaxed);
            self.meet_in_chain();
            assert!(!self.dirty_chain_panics, "toy: the dirty chain failed");
            images.map(|i| self.dirty_restart(live, &i)).collect()
        }
        fn complete(
            &self,
            _live: &ToyLive,
            (): (),
            _e: &CrashEmulator,
            profile: Option<ExecutionProfile>,
        ) -> Trial {
            super::super::verified_completion(true, 0, profile)
        }
        fn dirty_reference(&self) -> Option<(Tolerance, Vec<f64>)> {
            Some((Tolerance::exact_only(0.0), vec![0.0]))
        }
        fn log_stats(&self, live: &ToyLive, harvest: Option<usize>) -> Option<LogStats> {
            Some(harvest.map_or(polls_passed(live.polls), |k| live.logs[k]))
        }
        fn dirty_restart(&self, _live: &ToyLive, _image: &NvmImage) -> DirtyRestart {
            // Wrong answer, so a dirty trial is distinguishable from the
            // converged-exact default of a unit that never fired.
            DirtyRestart {
                solution: Some(vec![1.0]),
                extra_units: self.dirties.fetch_add(1, Relaxed) + 1,
                sim_time_ps: 0,
            }
        }
    }

    const UNITS: [u64; 7] = [1, 2, 3, 4, 5, 6, 7];

    fn lost(trials: &[Trial]) -> Vec<(u64, u64)> {
        trials.iter().map(|t| (t.unit, t.lost_units)).collect()
    }

    fn extra(batch: &ResilienceBatch) -> Vec<(u64, u64)> {
        batch
            .trials
            .iter()
            .map(|t| (t.unit, t.extra_units))
            .collect()
    }

    #[test]
    fn per_state_step_runs_once_per_distinct_poll() {
        let (toy, mem) = (Toy::default(), ImageMemory::default());
        let out = toy.run_passes(&UNITS, Passes::recover(false), &mem);
        // One call per poll that captured anything; no dirty pass ran.
        assert_eq!(toy.recovers.load(Relaxed), 3);
        assert_eq!(toy.dirties.load(Relaxed), 0);
        assert!(out.dirty.is_none() && out.analysis.is_none());
        // Every unit still gets its own trial, built from its group's state.
        assert_eq!(
            lost(&out.trials),
            [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (6, 3), (7, 0)]
        );
        assert_eq!(out.trials[6].outcome, Outcome::CompletedClean);
        let m = mem.summary();
        assert_eq!((m.executions, m.images, m.distinct_states), (1, 6, Some(3)));
    }

    #[test]
    fn dirty_step_runs_once_per_distinct_poll() {
        let (toy, mem) = (Toy::default(), ImageMemory::default());
        let out = toy.run_passes(&UNITS, Passes::default().and_dirty(), &mem);
        assert_eq!(toy.dirties.load(Relaxed), 3);
        assert_eq!(toy.recovers.load(Relaxed), 0);
        assert!(out.trials.is_empty());
        let batch = out.dirty.expect("toy declares a dirty reference");
        assert_eq!(
            extra(&batch),
            [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (6, 3), (7, 0)]
        );
        assert_eq!(batch.trials[0].class, DirtyClass::ConvergedWrong);
        assert_eq!(batch.trials[6].class, DirtyClass::ConvergedExact);
    }

    #[test]
    fn fused_passes_share_one_execution_and_equal_the_single_pass_runs() {
        let (toy, mem) = (Toy::default(), ImageMemory::default());
        let fused = toy.run_passes(&UNITS, Passes::recover(false).and_dirty(), &mem);
        // Each per-state step still ran once per distinct poll, over one
        // forward execution.
        assert_eq!(toy.recovers.load(Relaxed), 3);
        assert_eq!(toy.dirties.load(Relaxed), 3);
        assert_eq!(mem.summary().executions, 1);

        let solo = Toy::default();
        let mem = ImageMemory::default();
        let recovered = solo.run_passes(&UNITS, Passes::recover(false), &mem);
        let dirtied = solo.run_passes(&UNITS, Passes::default().and_dirty(), &mem);
        assert_eq!(mem.summary().executions, 2);
        assert_eq!(lost(&fused.trials), lost(&recovered.trials));
        let (fused_dirty, solo_dirty) = (fused.dirty.unwrap(), dirtied.dirty.unwrap());
        assert_eq!(fused_dirty.trials, solo_dirty.trials);
        assert_eq!(fused_dirty.tolerance, solo_dirty.tolerance);
    }

    #[test]
    fn passes_the_workload_lacks_are_skipped_and_nothing_runs_for_none() {
        let (toy, mem) = (Toy::default(), ImageMemory::default());
        // The toy declares no regions: the analyze pass degrades to the
        // recover pass it rode on.
        let out = toy.run_passes(&UNITS, Passes::recover(false).and_analyze(), &mem);
        assert!(out.analysis.is_none());
        assert_eq!(out.trials.len(), UNITS.len());
        // No pass at all: no forward execution either.
        let none = toy.run_passes(&UNITS, Passes::default(), &mem);
        assert!(none.trials.is_empty() && none.dirty.is_none());
        assert_eq!(mem.summary().executions, 1);
    }

    #[test]
    fn derived_run_trial_equals_the_batch_unit_for_unit() {
        let (toy, mem) = (Toy::default(), ImageMemory::default());
        for telemetry in [false, true] {
            let batch = toy
                .run_passes(&UNITS, Passes::recover(telemetry), &mem)
                .trials;
            for (b, &unit) in batch.iter().zip(&UNITS) {
                let t = run_trial(&toy, unit, telemetry);
                assert_eq!(whole(b), whole(&t), "unit {unit} telemetry={telemetry}");
                assert_eq!(t.telemetry.is_some(), telemetry);
            }
            // Unit 7's trigger never fires: both paths report the clean run.
            assert_eq!(batch[6].outcome, Outcome::CompletedClean);
            // The log sidecar is read at the group's *first harvest
            // ordinal* (0, 2, 4), not at its group index: each profile
            // carries the polls passed when its state was captured.
            if telemetry {
                let logged: Vec<u64> = batch
                    .iter()
                    .map(|t| t.telemetry.expect("asked for").log_appends)
                    .collect();
                assert_eq!(logged, [2, 2, 3, 3, 4, 4, 4]);
            }
        }
    }

    /// Everything of a trial, in comparable form.
    fn whole(t: &Trial) -> (u64, Outcome, u64, u64, Option<ExecutionProfile>) {
        (t.unit, t.outcome, t.lost_units, t.sim_time_ps, t.telemetry)
    }

    #[test]
    fn a_chained_batch_recovers_in_one_job_and_equals_the_unchained_batch() {
        let fused = Passes::recover(true).and_dirty();
        let alone = Toy::default().run_passes(&UNITS, fused, &ImageMemory::default());
        let toy = Toy {
            chained: true,
            ..Toy::default()
        };
        let dirty_only = Passes::default().and_dirty();
        for (passes, jobs) in [(Passes::recover(true), 1), (fused, 2), (dirty_only, 1)] {
            let batch = toy.harvest(&UNITS, passes, &ImageMemory::default());
            let mut ran = 0;
            while batch.run_next() {
                ran += 1;
            }
            // One chain per pass asked for, and no job per distinct poll.
            assert_eq!(ran, jobs);
            let out = batch.finish();
            // Telemetry and the log sidecar of each state reached the chain.
            if passes.recover {
                assert_eq!(
                    out.trials.iter().map(whole).collect::<Vec<_>>(),
                    alone.trials.iter().map(whole).collect::<Vec<_>>()
                );
            }
            // The toy numbers its dirty restarts: a chain restarts the
            // states in poll order, as one thread's per-state jobs do.
            let dirty = out.dirty.map(|d| extra(&d));
            assert_eq!(dirty.is_some(), passes.dirty);
            if let Some(dirty) = dirty {
                assert_eq!(dirty, extra(alone.dirty.as_ref().unwrap()));
                toy.dirties.store(0, Relaxed);
            }
        }
        assert_eq!(toy.chains_run.load(Relaxed), 2, "one chain per batch");
        assert_eq!(toy.dirty_chains_run.load(Relaxed), 2);
        assert_eq!(toy.recovers.load(Relaxed), 2 * 3);
    }

    #[test]
    fn the_two_chains_of_a_batch_run_on_a_worker_each() {
        let passes = Passes::recover(true).and_dirty();
        let alone = Toy::default().run_passes(&UNITS, passes, &ImageMemory::default());
        // Neither chain gets past the barrier until the other has started.
        let toy = Toy {
            chained: true,
            meet: Some(Barrier::new(2)),
            ..Toy::default()
        };
        let shared = within_a_minute(move || pooled(toy, passes, &ImageMemory::for_workers(2)));
        assert_eq!(
            shared.trials.iter().map(whole).collect::<Vec<_>>(),
            alone.trials.iter().map(whole).collect::<Vec<_>>()
        );
        assert_eq!(shared.dirty.unwrap().trials, alone.dirty.unwrap().trials);
    }

    #[test]
    fn a_dirty_chain_that_panics_fails_the_run_instead_of_hanging_it() {
        // Both chains are inside the batch, on a worker each, when it fails.
        let toy = Toy {
            chained: true,
            meet: Some(Barrier::new(2)),
            dirty_chain_panics: true,
            ..Toy::default()
        };
        let outcome = within_a_minute(move || {
            let passes = Passes::recover(false).and_dirty();
            std::panic::catch_unwind(|| pooled(toy, passes, &ImageMemory::for_workers(2)))
                .map(|out| out.trials.len())
        });
        assert!(outcome.is_err(), "the dirty chain's panic was swallowed");
    }

    #[test]
    fn chained_tasks_are_claimed_first_and_merged_in_plan_order() {
        let set_up = Arc::new(Mutex::new(Vec::new()));
        let toy = |chained| -> Box<dyn Scenario> {
            Box::new(Toy {
                chained,
                set_up: set_up.clone(),
                ..Toy::default()
            })
        };
        let scenarios = [toy(false), toy(true), toy(false)];
        let tasks: Vec<Task> = [(0, [1, 2]), (1, [3, 4]), (1, [5, 6]), (2, [3, 7])]
            .into_iter()
            .map(|(scenario, units)| Task {
                scenario,
                units: units.to_vec(),
            })
            .collect();
        let mem = ImageMemory::default();
        let out = run_tasks(
            &scenarios,
            &tasks,
            1,
            Passes::recover(false),
            Scenario::harvest,
            &mem,
        );
        // Both chained tasks ran before either of the others, each group in
        // plan order...
        assert_eq!(*set_up.lock().unwrap(), [true, true, false, false]);
        // ...and every output sits in its task's slot.
        for (task, out) in tasks.iter().zip(&out) {
            let units: Vec<u64> = out.trials.iter().map(|t| t.unit).collect();
            assert_eq!(units, task.units);
        }
    }

    /// One toy batch through the engine's pool on two workers.
    fn pooled(toy: Toy, passes: Passes, mem: &ImageMemory) -> PassOutput {
        let scenarios: Vec<Box<dyn Scenario>> = vec![Box::new(toy)];
        let tasks = [Task {
            scenario: 0,
            units: UNITS.to_vec(),
        }];
        let mut out = run_tasks(&scenarios, &tasks, 2, passes, Scenario::harvest, mem);
        out.pop().expect("one task")
    }

    /// Run `f` on its own thread and fail, rather than hang the suite, if
    /// it is still running after a minute.
    fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || done.send(f()));
        finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the pool neither finished nor panicked")
    }

    #[test]
    fn two_workers_sharing_a_batch_run_each_per_state_step_once() {
        let passes = Passes::recover(true).and_dirty();
        let alone = Toy::default().run_passes(&UNITS, passes, &ImageMemory::default());

        let toy = Toy {
            meet: Some(Barrier::new(2)),
            ..Toy::default()
        };
        let (recovers, dirties) = (toy.recovers.clone(), toy.dirties.clone());
        let mem = Arc::new(ImageMemory::for_workers(2));
        let shared = {
            let mem = mem.clone();
            within_a_minute(move || pooled(toy, passes, &mem))
        };
        // The barrier let nobody through until a second worker was inside
        // the batch — and still: one call per distinct poll, not per worker.
        assert_eq!(recovers.load(Relaxed), 3);
        assert_eq!(dirties.load(Relaxed), 3);
        // Same trials, telemetry and log sidecars included, in unit order.
        assert_eq!(
            shared.trials.iter().map(whole).collect::<Vec<_>>(),
            alone.trials.iter().map(whole).collect::<Vec<_>>()
        );
        // The toy's dirty step numbers its calls, so only which unit got a
        // dirty trial at all is order-independent.
        let class = |b: &ResilienceBatch| b.trials.iter().map(|t| t.class).collect::<Vec<_>>();
        assert_eq!(class(&shared.dirty.unwrap()), class(&alone.dirty.unwrap()));
        // Sharing bought no forward execution and no image.
        let m = mem.summary();
        assert_eq!((m.executions, m.images, m.distinct_states), (1, 6, Some(3)));
    }

    #[test]
    fn a_recovery_that_panics_on_a_helper_fails_the_run_instead_of_hanging_it() {
        let toy = Toy {
            meet: Some(Barrier::new(2)),
            helpers_panic: true,
            ..Toy::default()
        };
        let outcome = within_a_minute(move || {
            std::panic::catch_unwind(|| {
                pooled(toy, Passes::recover(false), &ImageMemory::for_workers(2))
            })
            .map(|out| out.trials.len())
        });
        assert!(outcome.is_err(), "the helper's panic was swallowed");
    }

    #[test]
    fn cg_images_hold_a_fraction_of_the_pool() {
        let w = super::super::cg::extended(&super::super::cg::problem());
        let pool = assert_images_hold_only_the_written_prefix(&w, 128 << 10);
        assert!(pool >= 2 << 20, "{pool}");
    }
}
