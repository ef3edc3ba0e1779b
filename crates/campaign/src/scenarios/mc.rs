//! Monte-Carlo scenarios: selective flushing (replay recovery, with the
//! count-total audit as its dirty-state detector) and epoch-tagged
//! counters (exact replay under arbitrary eviction).
//!
//! Both harvest every scheduled crash point from **one** instrumented
//! execution: the lookup loop runs once with the emulator's harvest plan
//! armed, each `(PH_LOOKUP, i)` poll forks a copy-on-write delta image,
//! and replay recovery classifies the states streaming — O(run + points ×
//! recovery) instead of O(points × run).
//!
//! `mc-epoch` goes one step further. Its recovery replays to the *end of
//! the run*, every picosecond of it reported, so a batch's states are
//! recovered as one [`McSim::recover_chain`]: a replay that reaches a
//! machine an earlier state's replay already stood on reads the rest of
//! its clock off that one — O(run + points × a few dozen lookups). Its
//! dirty restarts all re-enter at lookup 0 of a cold machine and differ
//! only in the tallies they run on, which the loop never looks at: they are
//! one [`McSim::dirty_chain`], at the same cost. (`mc-selective`'s are not:
//! NVM with DRAM's timing prefetches, so the stream detector is an input,
//! and a cold restart's never lines up with a warm one's.)

use std::borrow::Cow;
use std::sync::OnceLock;

use adcc_core::mc::sim::{McMode, McRecovery, McSim};
use adcc_core::mc::{McProblem, XS_CHANNELS};
use adcc_core::DirtyRestart;
use adcc_resilience::Tolerance;
use adcc_sim::crash::{CrashEmulator, CrashSite, CrashTrigger, RunOutcome};
use adcc_sim::image::NvmImage;
use adcc_sim::system::{MemorySystem, SystemConfig};
use adcc_telemetry::ExecutionProfile;

use super::harness::{HarvestedState, Workload};
use super::{trim_dram, verified_completion};
use crate::scenario::{Classified, Kernel, Mechanism, ScenarioInfo, UnitSpace};

const LOOKUPS: u64 = 1_200;
const INTERVAL: u64 = 64;
const MC_SEED: u64 = 42;
const PROBLEM_SEED: u64 = 305;
/// Access-count spacing of dense crash points (one full lookup loop
/// issues ~444k element accesses; a 48-access stride carries ~9.2k
/// points).
const DENSE_STRIDE: u64 = 48;
/// One crash point after every lookup.
const UNIT_SPACE: UnitSpace = UnitSpace::new(LOOKUPS, DENSE_STRIDE);

/// Dirty-restart tolerance: tallies are integers, so the only acceptable
/// answer is the exact reference — everything the count-total audit does
/// not already reject is either bit-exact or wrong.
fn dirty_tolerance() -> Tolerance {
    Tolerance::exact_only(0.0)
}

/// One MC workload × persistence-mode pair.
pub struct McCampaign {
    problem: McProblem,
    mode: McMode,
    cfg: SystemConfig,
    info: ScenarioInfo,
    reference: [u64; XS_CHANNELS],
}

/// Counts of one crash-free simulated [`McMode::Native`] execution under
/// `cfg`.
fn native_counts(problem: &McProblem, cfg: &SystemConfig) -> [u64; XS_CHANNELS] {
    let mut sys = MemorySystem::new(cfg.clone());
    let mc = McSim::setup(&mut sys, problem.clone(), LOOKUPS, MC_SEED, McMode::Native);
    let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
    mc.run(&mut emu, 0, LOOKUPS)
        .completed()
        .expect("trigger is Never");
    mc.peek_counts(&emu)
}

/// The one problem both scenarios run: generated once per process, its
/// grids shared by every clone.
fn problem() -> McProblem {
    static PROBLEM: OnceLock<McProblem> = OnceLock::new();
    PROBLEM
        .get_or_init(|| McProblem::generate(36, 64, PROBLEM_SEED))
        .clone()
}

fn selective_config(grid_bytes: usize) -> SystemConfig {
    trim_dram(SystemConfig::nvm_only(
        16 << 10,
        (grid_bytes + (1 << 20)).next_power_of_two(),
    ))
}

/// Deliberately hostile tiny heterogeneous caches (counter lines evicted
/// at arbitrary times).
fn epoch_config(grid_bytes: usize) -> SystemConfig {
    trim_dram(SystemConfig::heterogeneous(
        4 << 10,
        16 << 10,
        (grid_bytes + (1 << 20)).next_power_of_two(),
    ))
}

/// The crash-free reference counts every MC scenario is checked against.
/// They are mode- and platform-independent (the sampled physics only
/// depends on the MC seed) and a pure function of this file's constants,
/// so the full simulated forward execution behind them runs once per
/// process, not once per registry build.
pub fn reference_counts() -> [u64; XS_CHANNELS] {
    static COUNTS: OnceLock<[u64; XS_CHANNELS]> = OnceLock::new();
    *COUNTS.get_or_init(|| {
        let problem = problem();
        native_counts(&problem, &selective_config(problem.grid_bytes()))
    })
}

impl McCampaign {
    /// The paper's fixed MC scheme: flush state every `INTERVAL` lookups,
    /// replay from the flushed index.
    pub fn new_selective(reference: [u64; XS_CHANNELS]) -> Self {
        let problem = problem();
        McCampaign {
            cfg: selective_config(problem.grid_bytes()),
            problem,
            mode: McMode::Selective { interval: INTERVAL },
            info: ScenarioInfo::new("mc-selective", Kernel::Mc, Mechanism::Selective, UNIT_SPACE),
            reference,
        }
    }

    /// The epoch extension under [`epoch_config`]'s hostile caches.
    pub fn new_epoch(reference: [u64; XS_CHANNELS]) -> Self {
        let problem = problem();
        McCampaign {
            cfg: epoch_config(problem.grid_bytes()),
            problem,
            mode: McMode::Epoch { interval: INTERVAL },
            info: ScenarioInfo {
                platform: "hetero",
                ..ScenarioInfo::new("mc-epoch", Kernel::Mc, Mechanism::Epoch, UNIT_SPACE)
            },
            reference,
        }
    }

    /// Classify one recovery against the reference counts.
    fn classify(&self, rec: &McRecovery, telemetry: Option<ExecutionProfile>) -> Classified {
        let total: u64 = rec.counts.iter().sum();
        // The count-total audit is the mechanism's integrity check: replay
        // can only ever double-count (evicted counter lines are newer than
        // the flushed index), so any discrepancy shows up here.
        let detected = total != LOOKUPS;
        let matches = rec.counts == self.reference;
        Classified::from_report(detected, matches, &rec.report, telemetry)
    }
}

impl Workload for McCampaign {
    type Live = McSim;
    type End = ();

    fn info(&self) -> &ScenarioInfo {
        &self.info
    }
    fn site_trigger(&self, unit: u64) -> CrashTrigger {
        CrashTrigger::AtSite {
            site: CrashSite::new(adcc_core::mc::sites::PH_LOOKUP, unit),
            occurrence: 1,
        }
    }

    fn setup(&self, trigger: CrashTrigger) -> (CrashEmulator, McSim) {
        let mut sys = MemorySystem::new(self.cfg.clone());
        let mc = McSim::setup(&mut sys, self.problem.clone(), LOOKUPS, MC_SEED, self.mode);
        (CrashEmulator::from_system(sys, trigger), mc)
    }

    fn forward(&self, mc: &mut McSim, emu: &mut CrashEmulator) -> RunOutcome<()> {
        mc.run(emu, 0, LOOKUPS)
    }

    /// Recover from a crash image taken right after lookup `site.index`
    /// completed (`lookups_done = site.index + 1`), resume, classify.
    fn recover(
        &self,
        mc: &McSim,
        site: CrashSite,
        image: &NvmImage,
        telemetry: Option<ExecutionProfile>,
    ) -> Classified {
        let rec = mc.recover_and_resume(image, self.cfg.clone(), site.index + 1);
        self.classify(&rec, telemetry)
    }

    /// Epoch recovery replays every state to the end of the run, and so
    /// does every dirty restart: the states of one execution share that
    /// tail.
    fn chains(&self) -> bool {
        matches!(self.mode, McMode::Epoch { .. })
    }

    fn recover_chain(
        &self,
        mc: &McSim,
        states: &mut dyn Iterator<Item = HarvestedState>,
    ) -> Vec<Classified> {
        let mut profiles = Vec::new();
        let chain = mc.recover_chain(
            &self.cfg,
            states.map(|s| {
                profiles.push(s.profile);
                (s.site.index + 1, Cow::Owned(s.image))
            }),
        );
        chain
            .answers
            .iter()
            .zip(profiles)
            .map(|(rec, profile)| self.classify(rec, profile))
            .collect()
    }

    fn complete(
        &self,
        mc: &McSim,
        (): (),
        emu: &CrashEmulator,
        profile: Option<ExecutionProfile>,
    ) -> Classified {
        verified_completion(mc.peek_counts(emu) == self.reference, profile)
    }

    fn dirty_reference(&self) -> Option<(Tolerance, Vec<f64>)> {
        let want = self.reference.iter().map(|&c| c as f64).collect();
        Some((dirty_tolerance(), want))
    }

    fn dirty_restart(&self, mc: &McSim, image: &NvmImage) -> DirtyRestart {
        mc.dirty_restart(image, self.cfg.clone())
    }

    fn dirty_restart_chain(
        &self,
        mc: &McSim,
        images: &mut dyn Iterator<Item = NvmImage>,
    ) -> Vec<DirtyRestart> {
        mc.dirty_chain(&self.cfg, images.map(Cow::Owned)).answers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn one_reference_serves_both_scenarios() {
        let reference = reference_counts();
        for s in [
            McCampaign::new_selective(reference),
            McCampaign::new_epoch(reference),
        ] {
            assert_eq!(s.reference, reference, "{}", s.info.name);
            // Still what the scenario would have computed for itself.
            assert_eq!(
                native_counts(&s.problem, &s.cfg),
                reference,
                "{}",
                s.info.name
            );
        }
    }

    /// A work invariant in the spirit of
    /// `assert_images_hold_only_the_written_prefix`: selective recovery
    /// re-executes at most one flush interval, so the accesses it
    /// simulates are bounded by an interval's worth wherever the crash
    /// lands. Simulating the untimed rest of the run made a crash at lookup
    /// 12 cost ~50x one at lookup 1170.
    #[test]
    fn selective_recovery_simulates_one_interval_wherever_the_crash_lands() {
        let s = McCampaign::new_selective(reference_counts());
        let units = [12, 1170];
        let (mut emu, mut mc) = s.setup(CrashTrigger::Never);
        emu.arm_harvest(units.iter().map(|&u| (s.trigger_of(u), u)));
        assert!(s.forward(&mut mc, &mut emu).completed().is_some());
        let interval_worth = emu.access_count() * INTERVAL / LOOKUPS;
        let harvests = emu.take_harvests();
        assert_eq!(harvests.len(), units.len());
        for h in &harvests {
            let image = h.image.materialize();
            let rec = mc.recover_and_resume(&image, s.cfg.clone(), h.site.index + 1);
            assert!(rec.report.lost_units <= INTERVAL, "unit {}", h.unit);
            assert!(
                rec.accesses <= 2 * interval_worth,
                "unit {}: {} accesses simulated, an interval is worth {interval_worth}",
                h.unit,
                rec.accesses
            );
        }
    }

    /// What `McMode::Epoch`'s periodic flush is for: "the periodic flush
    /// only bounds the replay distance". It persists both counter lines
    /// every `INTERVAL` lookups, so wherever the crash lands, each line's
    /// NVM epoch is at most an interval (plus the few lookups since the
    /// line's last update) behind it. On this run the clean tree replays at
    /// most 65 lookups over all 1 200 site crash points; without the flush
    /// (`adcc_core/mutant-epoch-no-flush`) only natural eviction bounds it,
    /// and 52 of them replay more than the bound, up to 132.
    #[test]
    fn epoch_recovery_replays_about_one_interval_wherever_the_crash_lands() {
        let s = McCampaign::new_epoch(reference_counts());
        let (mut emu, mut mc) = s.setup(CrashTrigger::Never);
        emu.arm_harvest((0..LOOKUPS).map(|u| (s.trigger_of(u), u)));
        assert!(s.forward(&mut mc, &mut emu).completed().is_some());
        let harvests = emu.take_harvests();
        assert_eq!(harvests.len() as u64, LOOKUPS);
        let chain = mc.recover_chain(
            &s.cfg,
            harvests
                .iter()
                .map(|h| (h.site.index + 1, Cow::Owned(h.image.materialize()))),
        );
        for (h, r) in harvests.iter().zip(&chain.answers) {
            assert!(
                r.report.lost_units <= INTERVAL + INTERVAL / 4,
                "unit {}: {} lookups replayed, the flush interval is {INTERVAL}",
                h.unit,
                r.report.lost_units
            );
        }
    }

    /// The same kind of invariant for `mc-epoch`, whose every recovery
    /// replays to the end of the run: alone, 20 states spread over the run
    /// simulate ~10 forward runs' worth of accesses between them; chained,
    /// each simulates the few dozen lookups until it stands where an
    /// earlier replay stood, and one pilot simulates the run.
    #[test]
    fn a_chain_of_epoch_recoveries_simulates_less_than_two_forward_runs() {
        let s = McCampaign::new_epoch(reference_counts());
        let units: Vec<u64> = (0..20).map(|k| 25 + 60 * k).collect();
        let (mut emu, mut mc) = s.setup(CrashTrigger::Never);
        emu.arm_harvest(units.iter().map(|&u| (s.trigger_of(u), u)));
        assert!(s.forward(&mut mc, &mut emu).completed().is_some());
        let forward_run = emu.access_count();
        let harvests = emu.take_harvests();
        assert_eq!(harvests.len(), units.len());
        let chain = mc.recover_chain(
            &s.cfg,
            harvests
                .iter()
                .map(|h| (h.site.index + 1, Cow::Owned(h.image.materialize()))),
        );
        let alone: u64 = chain.answers.iter().map(|r| r.accesses).sum();
        assert!(
            alone > 8 * forward_run,
            "{alone} accesses alone, a forward run is {forward_run}"
        );
        assert!(
            chain.simulated_accesses <= 2 * forward_run,
            "{} accesses simulated, a forward run is {forward_run}",
            chain.simulated_accesses
        );
        // Exact: the followers join at the boundaries they always joined at.
        assert_eq!(chain.simulated_accesses, 645_468);
        for r in &chain.answers {
            assert_eq!(r.counts, s.reference, "epoch recovery is exact");
        }
    }

    /// And for its dirty restarts, which all run the whole loop again: alone,
    /// ten of them simulate ten forward runs; chained, every follower stands
    /// where the pilot stood — but for its tallies — a couple of dozen
    /// lookups in (one that did not would take the pilot to the end with it
    /// and put the chain past two runs on its own), and is right anyway.
    #[test]
    fn a_chain_of_epoch_dirty_restarts_simulates_less_than_two_forward_runs() {
        let s = McCampaign::new_epoch(reference_counts());
        for (states, simulated) in [(10, 508_142), (20, 578_442)] {
            let units: Vec<u64> = (0..states).map(|k| 25 + (1200 / states) * k).collect();
            let (mut emu, mut mc) = s.setup(CrashTrigger::Never);
            emu.arm_harvest(units.iter().map(|&u| (s.trigger_of(u), u)));
            assert!(s.forward(&mut mc, &mut emu).completed().is_some());
            let forward_run = emu.access_count();
            let harvests = emu.take_harvests();
            assert_eq!(harvests.len(), units.len());
            let chain = mc.dirty_chain(
                &s.cfg,
                harvests.iter().map(|h| Cow::Owned(h.image.materialize())),
            );
            let mut alone = 0;
            for (h, chained) in harvests.iter().zip(&chain.answers) {
                let one = mc.dirty_chain(&s.cfg, [Cow::Owned(h.image.materialize())]);
                assert_eq!(
                    one.answers,
                    std::slice::from_ref(chained),
                    "unit {}",
                    h.unit
                );
                assert_eq!(chained.extra_units, LOOKUPS);
                alone += one.simulated_accesses;
            }
            assert!(
                alone >= (states - 1) * forward_run,
                "{states} states: {alone} accesses alone, a forward run is {forward_run}"
            );
            assert!(
                chain.simulated_accesses <= 2 * forward_run,
                "{states} states: {} accesses simulated, a forward run is {forward_run}",
                chain.simulated_accesses
            );
            assert_eq!(chain.simulated_accesses, simulated, "{states} states");
        }
    }
}
