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
//! Both also chain their per-state passes. `mc-epoch`'s recovery replays
//! to the *end of the run*, every picosecond of it reported, so a batch's
//! states are recovered as one [`McSim::recover_chain`]: a replay that
//! reaches a machine an earlier state's replay already stood on reads the
//! rest of its clock off that one — O(run + points × a few dozen lookups).
//! (`mc-selective`'s recoveries share nothing; its chain recovers them one
//! by one.) Every dirty restart runs to the end of the run too, from the
//! loop index its image holds, on a cold machine, so a batch's restarts
//! are one [`McSim::dirty_chain`]: restarts differ only in cells the loop
//! never reads but to add to or to overwrite, once their caches hold the
//! same lines, and in the stream detectors the pilot prices for them. The
//! chain simulates one run and a few dozen lookups per later flushed index.

use std::borrow::Cow;
use std::sync::OnceLock;

use adcc_core::mc::sim::{McMode, McRecovery, McSim};
use adcc_core::mc::{McProblem, XS_CHANNELS};
use adcc_core::DirtyRestart;
use adcc_resilience::Tolerance;
use adcc_sim::crash::{CrashEmulator, CrashSite, CrashTrigger, RunOutcome};
use adcc_sim::image::{DeltaImage, NvmImage};
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

    /// Every dirty restart runs to the end of the run, and so does epoch
    /// recovery: the states of one execution share that tail. (Selective
    /// recoveries share nothing; their chain recovers them one by one.)
    fn chains(&self) -> bool {
        true
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
        images: &mut dyn Iterator<Item = &DeltaImage>,
    ) -> Vec<DirtyRestart> {
        mc.dirty_chain(&self.cfg, images).answers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use adcc_sim::crash::poll_groups;
    use adcc_sim::hook::{self, Op, Site};

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

    /// Lookups each `mc-epoch` recovery replays, one crash state per site
    /// crash point.
    fn epoch_replays() -> Vec<u64> {
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
        chain.answers.iter().map(|r| r.report.lost_units).collect()
    }

    /// Each counter line's NVM epoch may trail the crash by an interval
    /// plus the few lookups since the line's last update.
    const REPLAY_BOUND: u64 = INTERVAL + INTERVAL / 4;

    /// What `McMode::Epoch`'s periodic flush is for: "the periodic flush
    /// only bounds the replay distance". It persists both counter lines
    /// every `INTERVAL` lookups, so wherever the crash lands, a recovery
    /// replays at most [`REPLAY_BOUND`] lookups: on this run at most 65
    /// over all 1 200 site crash points.
    #[test]
    fn epoch_recovery_replays_about_one_interval_wherever_the_crash_lands() {
        for (unit, lost) in epoch_replays().into_iter().enumerate() {
            assert!(
                lost <= REPLAY_BOUND,
                "unit {unit}: {lost} lookups replayed, the flush interval is {INTERVAL}"
            );
        }
    }

    /// Without that flush (the drop-persist hook skips it) only natural
    /// eviction bounds the replay: 52 of the 1 200 crash points replay past
    /// the bound, up to 132 lookups. Recovery stays exact, so the campaign's
    /// outcome histogram cannot see it; this bound can.
    #[test]
    fn without_the_epoch_flush_recovery_replays_past_the_bound() {
        let (_, sites) = hook::record(epoch_replays);
        let flushes: Vec<Site> = sites
            .into_iter()
            .filter(|s| s.op == Op::Flush && s.at.file().ends_with("mc/sim.rs"))
            .collect();
        assert_eq!(flushes.len(), 1, "one periodic counter flush: {flushes:?}");
        let replays = hook::mutating(flushes[0], epoch_replays);
        let past: Vec<u64> = replays.into_iter().filter(|&l| l > REPLAY_BOUND).collect();
        assert_eq!(past.len(), 52, "{past:?}");
        assert_eq!(past.iter().max(), Some(&132));
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

    /// `mc-selective`'s dirty restarts re-enter at the loop index flushed
    /// every `INTERVAL` lookups, on a cold machine. The states of one index
    /// join where they boot; a state of a later index joins the pilot once
    /// the pilot, stepped up to that index, and the cold machine hold the
    /// same lines — NVM with DRAM's timing prefetches, and the pilot prices
    /// the cold stream detector it never lines up with. So the chain
    /// simulates the pilot's run and a few dozen lookups per later index,
    /// not one run per index: under a third of that here, pinned. Among the
    /// states are the idx = 0 ones every dense crash point lands in (the
    /// 400 dense points of a campaign all fall inside lookups 0..52).
    #[test]
    fn a_chain_of_selective_dirty_restarts_joins_across_flushed_indices() {
        let s = McCampaign::new_selective(reference_counts());
        let sites = (0..40).map(|k| 7 + 30 * k);
        let dense = (0..10).map(|d| LOOKUPS + 40 * d);
        let units: Vec<u64> = sites.chain(dense).collect();
        let (mut emu, mut mc) = s.setup(CrashTrigger::Never);
        emu.arm_harvest(units.iter().map(|&u| (s.trigger_of(u), u)));
        assert!(s.forward(&mut mc, &mut emu).completed().is_some());
        let harvests = emu.take_harvests();
        assert_eq!(harvests.len(), units.len());
        let states: Vec<&DeltaImage> = poll_groups(&harvests)
            .map(|group| &group[0].image)
            .collect();
        let indices: Vec<u64> = states
            .iter()
            .map(|image| image.read_u64(mc.idx_cell.addr()))
            .collect();
        assert!(indices.windows(2).all(|w| w[0] <= w[1]), "{indices:?}");
        let dense_group = indices.iter().filter(|&&i| i == 0).count();
        assert!(dense_group > 10, "{dense_group} states at idx 0");

        let chain = mc.dirty_chain(&s.cfg, states.iter().copied());
        let mut one_run_per_index = 0;
        for (k, (&image, chained)) in states.iter().zip(&chain.answers).enumerate() {
            let one = mc.dirty_chain(&s.cfg, [image]);
            assert_eq!(one.answers, std::slice::from_ref(chained), "state {k}");
            // What a chain that joined only where states boot would simulate:
            // each index's first state runs to the end, the rest read the
            // index and join.
            let pilots = k == 0 || indices[k - 1] != indices[k];
            one_run_per_index += if pilots { one.simulated_accesses } else { 1 };
        }
        let flushed = 1 + indices.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(flushed > 10, "{flushed} flushed indices");
        assert!(
            3 * chain.simulated_accesses < one_run_per_index,
            "{} accesses simulated, {one_run_per_index} one run per flushed index",
            chain.simulated_accesses
        );
        assert_eq!(one_run_per_index, 4_389_663);
        assert_eq!(chain.simulated_accesses, 679_474);
    }

    /// And for its dirty restarts, which all run the whole loop again: alone,
    /// ten of them simulate ten forward runs. Chained, every follower boots
    /// where the pilot booted — lookup 0 of a cold machine — on a machine
    /// that differs from the pilot's only in its tallies and epoch words, and
    /// joins there: the chain is the pilot's run plus one index read per
    /// follower, and right anyway.
    #[test]
    fn a_chain_of_epoch_dirty_restarts_simulates_less_than_two_forward_runs() {
        let s = McCampaign::new_epoch(reference_counts());
        for (states, simulated) in [(10, 444_881), (20, 444_891)] {
            let units: Vec<u64> = (0..states).map(|k| 25 + (1200 / states) * k).collect();
            let (mut emu, mut mc) = s.setup(CrashTrigger::Never);
            emu.arm_harvest(units.iter().map(|&u| (s.trigger_of(u), u)));
            assert!(s.forward(&mut mc, &mut emu).completed().is_some());
            let forward_run = emu.access_count();
            let harvests = emu.take_harvests();
            assert_eq!(harvests.len(), units.len());
            let chain = mc.dirty_chain(&s.cfg, harvests.iter().map(|h| &h.image));
            let mut alone = 0;
            let mut pilot = None;
            for (h, chained) in harvests.iter().zip(&chain.answers) {
                let one = mc.dirty_chain(&s.cfg, [&h.image]);
                pilot.get_or_insert(one.simulated_accesses);
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
            let joined_at_boot = pilot.expect("a pilot") + (states - 1);
            assert_eq!(chain.simulated_accesses, joined_at_boot, "{states} states");
            assert_eq!(chain.simulated_accesses, simulated, "{states} states");
        }
    }
}
