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
//!
//! Most of those replays are not simulated at all. A cold replay from an
//! image that is the set-up image outside the dead cells (`macro_xs`, the
//! tallies, the epoch words) and the loop index `k` charges what the
//! crash-free replay from the set-up image at `k` charges, and adds the
//! same tally increments (see `adcc_core::mc::sim::cold`), and every image
//! a run harvests is such an image. So each scenario keeps two tables, a
//! slot per flushed index, once per process, used only for a state the
//! image check passes:
//!
//! - `mc-selective`'s recoveries, which replay at most one interval, read
//!   off a [`ColdRecovery`] reference per index, never under a hook that
//!   changes machines. A slot is built first only as far as the state that
//!   asks needs, which simulates what recovering that state does, and to
//!   the end of the interval when a later state asks past it.
//! - A dirty restart from `k` is that replay run to the end of the loop, so
//!   its clock is one number per `k`: the [`RestartEnds`] slot of `k`. The
//!   restart chains fill it: the first restart of an empty slot chains and
//!   records its clock, and the later ones of the batch, or of any later
//!   batch, read it (`mc-epoch`'s, which never write the index, all read
//!   slot 0). A slot already filled must agree. Nothing is read or filled
//!   while any hook mutates (`hook::runs_unmutated`): under the seed that
//!   skips the image check, a fill would hand a poisoned clock to every
//!   later restart in the process.
//!
//! Filling costs no simulation, so a process that runs one campaign, where
//! most indices are asked for once, simulates no more than it did without
//! the tables, and one that runs many reads nearly every restart off them.

use std::borrow::Cow;
use std::ptr;
use std::sync::{Arc, Mutex, OnceLock};

use adcc_core::mc::sim::{Chain, ColdCheck, ColdRecovery, McMode, McRecovery, McSim};
use adcc_core::mc::{McProblem, XS_CHANNELS};
use adcc_core::DirtyRestart;
use adcc_resilience::Tolerance;
use adcc_sim::crash::{CrashEmulator, CrashSite, CrashTrigger, RunOutcome};
use adcc_sim::hook;
use adcc_sim::image::{DeltaImage, NvmImage};
use adcc_sim::system::{MemorySystem, SystemConfig};
use adcc_telemetry::ExecutionProfile;

use super::harness::{HarvestedState, Workload};
use super::{once_per_process, trim_dram, verified_completion};
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

    /// This scenario's cold references, a slot per flushed loop index,
    /// process-wide.
    fn cold_references(&self) -> &'static [Mutex<Option<Arc<ColdRecovery>>>] {
        once_per_process((self.info.name, "cold references"), || {
            let flushed = LOOKUPS.div_ceil(INTERVAL);
            (0..flushed).map(|_| Mutex::default()).collect::<Vec<_>>()
        })
    }

    /// This scenario's cold reference from the flushed loop index `k`, built
    /// at least to `to`, at most an interval past `k` (see the module docs);
    /// `None` past the loop.
    fn cold_reference(&self, mc: &McSim, k: u64, to: u64) -> Option<Arc<ColdRecovery>> {
        let slot = self
            .cold_references()
            .get(usize::try_from(k / INTERVAL).ok()?)?;
        let mut held = slot.lock().expect("a reference build never panics");
        if let Some(built) = held.as_ref().filter(|built| built.reaches(to)) {
            return Some(Arc::clone(built));
        }
        // First as far as this state needs, then at least the interval.
        let to = held.as_ref().map_or(to, |_| to.max(k + INTERVAL));
        let fresh = Arc::new(mc.cold_recovery(&self.cfg, k, to));
        *held = Some(Arc::clone(&fresh));
        Some(fresh)
    }

    /// `image`'s recovery to `crashed_at`, read off the cold reference from
    /// the loop index it holds: for a `mc-selective` image `check` vouches
    /// for, crashed within the interval that index opens, while machines run
    /// as configured; `None` otherwise.
    fn tabled_recovery(
        &self,
        mc: &McSim,
        check: &mut ColdCheck,
        image: &DeltaImage,
        crashed_at: u64,
    ) -> Option<McRecovery> {
        if !matches!(self.mode, McMode::Selective { .. }) || !hook::runs_as_configured() {
            return None;
        }
        let k = image.read_u64(mc.idx_cell.addr());
        let replayed = crashed_at.checked_sub(k);
        if !k.is_multiple_of(INTERVAL)
            || replayed.is_none_or(|n| n > INTERVAL)
            || !vouched(|| check.is_cold(image))
        {
            return None;
        }
        mc.recovery_off(&*self.cold_reference(mc, k, crashed_at)?, image, crashed_at)
    }

    /// This scenario's restart clocks, process-wide: the table the
    /// [`Workload`] hook reads and fills.
    fn restart_ends(&self) -> &'static RestartEnds {
        once_per_process((self.info.name, "restart ends"), RestartEnds::default)
    }

    /// The slot in `ends` of `image`'s restart clock: for an image `check`
    /// vouches for that holds a flushed loop index, while nothing is mutated;
    /// `None` otherwise.
    fn restart_slot<'e>(
        &self,
        mc: &McSim,
        check: &mut ColdCheck,
        ends: &'e RestartEnds,
        image: &DeltaImage,
    ) -> Option<&'e OnceLock<u64>> {
        if !hook::runs_unmutated() {
            return None;
        }
        let slot = ends.slot(image.read_u64(mc.idx_cell.addr()))?;
        vouched(|| check.is_cold(image)).then_some(slot)
    }

    /// [`Workload::recover_chain`], and how many states it read off the
    /// table.
    fn recoveries(
        &self,
        mc: &McSim,
        states: &mut dyn Iterator<Item = HarvestedState>,
    ) -> (Vec<Classified>, usize) {
        let mut check = ColdCheck::new(mc);
        let mut profiles = Vec::new();
        let states = states.map(|s| {
            profiles.push(s.profile);
            (s.site.index + 1, s.image)
        });
        let (recoveries, tabled) = table_or_chain(
            states,
            |(crashed_at, image)| self.tabled_recovery(mc, &mut check, image, *crashed_at),
            |rest| {
                let rest =
                    rest.map(|(crashed_at, image)| (crashed_at, Cow::Owned(image.materialize())));
                mc.recover_chain(&self.cfg, rest)
            },
            |recovery| recovery,
        );
        let verdicts = recoveries
            .answers
            .iter()
            .zip(profiles)
            .map(|(rec, profile)| self.classify(rec, profile))
            .collect();
        (verdicts, tabled)
    }

    /// [`Workload::dirty_restart_chain`] over `ends`, and how many states
    /// it read off it. A state whose slot is filled reads it; the first
    /// state of an empty slot chains and fills it with its clock, and the
    /// later ones of that slot read it then. The rest chain.
    fn restarts(
        &self,
        mc: &McSim,
        images: &mut dyn Iterator<Item = &DeltaImage>,
        ends: &RestartEnds,
    ) -> (Chain<DirtyRestart>, usize) {
        let mut check = ColdCheck::new(mc);
        let states = images.map(|image| (image, self.restart_slot(mc, &mut check, ends, image)));
        let mut filling: Vec<&OnceLock<u64>> = Vec::new();
        table_or_chain(
            states,
            |&(image, slot)| {
                let slot = slot?;
                if slot.get().is_some() || filling.iter().any(|f| ptr::eq(*f, slot)) {
                    return Some((image, slot));
                }
                filling.push(slot);
                None
            },
            |rest| {
                let mut fills = Vec::new();
                let chain = mc.dirty_chain(
                    &self.cfg,
                    rest.map(|(image, slot)| {
                        fills.push(slot);
                        image
                    }),
                );
                for (answer, slot) in chain.answers.iter().zip(fills) {
                    if let Some(slot) = slot {
                        RestartEnds::record(slot, answer.sim_time_ps);
                    }
                }
                chain
            },
            |(image, slot)| {
                let end = slot.get().expect("filled by the chain or before it");
                mc.restart_off(*end, image)
            },
        )
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

    /// The recoveries the table answers are read off it; the rest chain,
    /// each image materialized when its turn comes.
    fn recover_chain(
        &self,
        mc: &McSim,
        states: &mut dyn Iterator<Item = HarvestedState>,
    ) -> Vec<Classified> {
        self.recoveries(mc, states).0
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

    /// The restarts the table answers are read off it; the rest chain.
    fn dirty_restart_chain(
        &self,
        mc: &McSim,
        images: &mut dyn Iterator<Item = &DeltaImage>,
    ) -> Vec<DirtyRestart> {
        self.restarts(mc, images, self.restart_ends()).0.answers
    }
}

/// The clock (`sim_time_ps`) of a dirty restart of a vouched image from
/// each flushed loop index, as the chains record it: a slot per index.
pub(crate) struct RestartEnds(Vec<OnceLock<u64>>);

impl Default for RestartEnds {
    fn default() -> Self {
        let flushed = LOOKUPS.div_ceil(INTERVAL);
        RestartEnds((0..flushed).map(|_| OnceLock::new()).collect())
    }
}

impl RestartEnds {
    /// The slot of the restarts from loop index `k`; `None` unless the
    /// loop flushes `k`.
    fn slot(&self, k: u64) -> Option<&OnceLock<u64>> {
        if !k.is_multiple_of(INTERVAL) {
            return None;
        }
        self.0.get(usize::try_from(k / INTERVAL).ok()?)
    }

    /// Record `sim_time_ps`, a chained restart's clock, in its `slot`. A
    /// slot already filled must hold the same clock.
    fn record(slot: &OnceLock<u64>, sim_time_ps: u64) {
        let held = *slot.get_or_init(|| sim_time_ps);
        assert_eq!(
            held, sim_time_ps,
            "two vouched restarts from one flushed index ran different clocks"
        );
    }
}

/// Each state's answer, in order: where `tabled` finds it on a table, what
/// `read` reads there once one `chain` has run over the rest (a chain may
/// fill what a later state reads); and how many were read.
fn table_or_chain<S, R, T>(
    states: impl Iterator<Item = S>,
    mut tabled: impl FnMut(&S) -> Option<R>,
    chain: impl FnOnce(&mut dyn Iterator<Item = S>) -> Chain<T>,
    mut read: impl FnMut(R) -> T,
) -> (Chain<T>, usize) {
    let mut read_off = Vec::new();
    let Chain {
        answers,
        simulated_accesses,
    } = chain(&mut states.filter_map(|s| {
        let found = tabled(&s);
        let rest = found.is_none().then_some(s);
        read_off.push(found);
        rest
    }));
    let hits = read_off.iter().flatten().count();
    let mut chained = answers.into_iter();
    let answers = read_off
        .into_iter()
        .map(|found| found.map_or_else(|| chained.next(), |found| Some(read(found))))
        .collect::<Option<_>>()
        .expect("one answer per state");
    let chain = Chain {
        answers,
        simulated_accesses,
    };
    (chain, hits)
}

/// Whether `check` vouches for an image: the one place the image check is
/// asked. A seeded bug skips it.
fn vouched(check: impl FnOnce() -> bool) -> bool {
    hook::seeded() || check()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{plan, CampaignConfig};
    use crate::scenario::{Registry, Scenario};
    use adcc_core::RecoveryReport;
    use adcc_sim::crash::poll_groups;
    use adcc_sim::hook::{Op, Site};

    /// Both scenarios, over the one reference.
    fn both() -> [McCampaign; 2] {
        let reference = reference_counts();
        [
            McCampaign::new_selective(reference),
            McCampaign::new_epoch(reference),
        ]
    }

    /// One forward run of `s` harvesting `units` (sorted): the live sim and
    /// each distinct crash state as (site, image), in poll order.
    fn harvest(s: &McCampaign, units: &[u64]) -> (McSim, Vec<(CrashSite, DeltaImage)>) {
        let (mut emu, mut mc) = s.setup(CrashTrigger::Never);
        emu.arm_harvest(units.iter().map(|&u| (s.trigger_of(u), u)));
        assert!(s.forward(&mut mc, &mut emu).completed().is_some());
        let harvests = emu.take_harvests();
        let states = poll_groups(&harvests)
            .map(|group| (group[0].site, group[0].image.clone()))
            .collect();
        (mc, states)
    }

    /// Everything a recovery reports, in comparable form.
    fn facts(r: &McRecovery) -> (u64, [u64; XS_CHANNELS], RecoveryReport, u64) {
        (r.resumed_from, r.counts, r.report, r.accesses)
    }

    /// Every site poll and a dense sample of 62 points across the run. (A
    /// dense point crashes at the poll after its access count: its state is
    /// a site poll's.)
    fn site_polls_and_dense_sample() -> Vec<u64> {
        (0..LOOKUPS + 9_200)
            .filter(|&u| u < LOOKUPS || u % 150 == 0)
            .collect()
    }

    /// `states` as the recover hook receives them.
    fn handed(states: &[(CrashSite, DeltaImage)]) -> impl Iterator<Item = HarvestedState> + '_ {
        states.iter().map(|(site, image)| HarvestedState {
            site: *site,
            image: image.clone(),
            profile: None,
        })
    }

    /// `image`'s dirty restart, read off its slot in `ends` once a chain has
    /// filled it; `None` otherwise.
    fn tabled_restart(
        s: &McCampaign,
        mc: &McSim,
        check: &mut ColdCheck,
        ends: &RestartEnds,
        image: &DeltaImage,
    ) -> Option<DirtyRestart> {
        let end = *s.restart_slot(mc, check, ends, image)?.get()?;
        Some(mc.restart_off(end, image))
    }

    /// How many slots of `ends` a chain has filled.
    fn filled(ends: &RestartEnds) -> usize {
        ends.0.iter().filter(|slot| slot.get().is_some()).count()
    }

    /// The tables answer what the simulation answers, field for field: each
    /// `mc-selective` recovery, and each dirty restart of both scenarios once
    /// the hook's own chain has filled a fresh table, at every site poll and
    /// a dense sample. The hooks' whole answers equal the simulated chains'
    /// too, and each flushed index's first tabled restart the restart alone.
    #[test]
    fn every_tabled_answer_is_the_simulated_one() {
        let units = site_polls_and_dense_sample();
        for s in both() {
            let name = s.info.name;
            let (mc, states) = harvest(&s, &units);
            assert_eq!(states.len(), LOOKUPS as usize, "{name}");
            let mut check = ColdCheck::new(&mc);
            let mut recovered = 0;
            for (site, image) in &states {
                let crashed_at = site.index + 1;
                if let Some(got) = s.tabled_recovery(&mc, &mut check, image, crashed_at) {
                    let alone =
                        mc.recover_and_resume(&image.materialize(), s.cfg.clone(), crashed_at);
                    assert_eq!(facts(&got), facts(&alone), "{name} at {site:?}");
                    recovered += 1;
                }
            }
            let simulated = mc.dirty_chain(&s.cfg, states.iter().map(|(_, image)| image));
            let ends = RestartEnds::default();
            let (hooked, read) = s.restarts(&mc, &mut states.iter().map(|(_, image)| image), &ends);
            assert_eq!(hooked.answers, simulated.answers, "{name}");
            let mut indices = Vec::new();
            for ((site, image), want) in states.iter().zip(&simulated.answers) {
                let got = tabled_restart(&s, &mc, &mut check, &ends, image);
                assert_eq!(got.as_ref(), Some(want), "{name} at {site:?}");
                let k = image.read_u64(mc.idx_cell.addr());
                if !indices.contains(&k) {
                    indices.push(k);
                    let alone = s.dirty_restart(&mc, &image.materialize());
                    assert_eq!(want, &alone, "{name} at {site:?}");
                }
            }
            // Each slot's first state chained; the rest read it.
            assert_eq!(indices.len(), filled(&ends), "{name}");
            assert_eq!(read, states.len() - indices.len(), "{name}");
            let (hooked, _) = s.recoveries(&mc, &mut handed(&states));
            let verdict = |c: &Classified| (c.outcome, c.lost_units, c.sim_time_ps);
            for (got, (site, image)) in hooked.iter().zip(&states) {
                let want = s.recover(&mc, *site, &image.materialize(), None);
                assert_eq!(verdict(got), verdict(&want), "{name} at {site:?}");
            }
            match s.mode {
                // Every recovery replays at most an interval; the loop
                // flushes 19 indices.
                McMode::Selective { .. } => {
                    assert_eq!((recovered, indices.len()), (states.len(), 19))
                }
                // Epoch mode never writes the index: every restart boots at 0.
                _ => assert_eq!((recovered, indices.len()), (0, 1), "{name}"),
            }
        }
    }

    /// `image` with `bytes` written at `addr`, its written prefix grown as
    /// far as needed.
    fn with_bytes(image: &NvmImage, addr: u64, bytes: &[u8]) -> NvmImage {
        let at = addr as usize;
        let mut prefix = image.prefix().to_vec();
        prefix.resize(prefix.len().max(at + bytes.len()), 0);
        prefix[at..at + bytes.len()].copy_from_slice(bytes);
        NvmImage::new(prefix, image.len())
    }

    /// The addresses the image check must not let pass: a byte of the
    /// energy grid, a byte of the cross-section grid (each flipped), a byte
    /// beside the loop index on its line and a byte past the last line of
    /// the loop's state (each stray, nonzero).
    fn corruptions(mc: &McSim, image: &DeltaImage) -> [(&'static str, u64, u8); 4] {
        let flip = |addr: u64| (addr, image.read_u8(addr) ^ 0x10);
        let hi = mc.idx_cell.addr() + 3 * adcc_sim::line::LINE_SIZE as u64;
        let energy = flip(mc.grids.energy.addr(100) + 6);
        let xs = flip(mc.grids.xs.addr(5 * 100 + 2) + 6);
        [
            ("an energy grid byte", energy.0, energy.1),
            ("a cross-section byte", xs.0, xs.1),
            ("a stray byte beside the index", mc.idx_cell.addr() + 13, 1),
            ("a stray byte past the state", hi + 5, 1),
        ]
    }

    /// An image the check refuses falls back to simulation and answers what
    /// the per-trial oracle's `recover` answers for it: one whose base is
    /// corrupted, with no delta.
    #[test]
    fn a_corrupted_image_falls_back_to_simulation() {
        for s in both() {
            let name = s.info.name;
            // Units 20 and 90: loop index 0 and 64 in `mc-selective`.
            let (mc, states) = harvest(&s, &[20, 90]);
            for (site, image) in &states {
                let mut check = ColdCheck::new(&mc);
                assert!(check.is_cold(image), "{name}: a harvested image is cold");
                for (what, addr, byte) in corruptions(&mc, image) {
                    let bad = with_bytes(&image.materialize(), addr, &[byte]);
                    let delta = DeltaImage::whole(bad.clone());
                    assert!(!check.is_cold(&delta), "{name}: {what}");
                    let tabled = s.tabled_recovery(&mc, &mut check, &delta, site.index + 1);
                    assert!(tabled.is_none());
                    let state = HarvestedState {
                        site: *site,
                        image: delta,
                        profile: None,
                    };
                    let (batch, hits) = s.recoveries(&mc, &mut std::iter::once(state));
                    let oracle = s.recover(&mc, *site, &bad, None);
                    let verdict = |c: &Classified| (c.outcome, c.lost_units, c.sim_time_ps);
                    assert_eq!(verdict(&batch[0]), verdict(&oracle), "{name}: {what}");
                    assert_eq!(hits, 0, "{name}: {what}");
                }
            }
        }
    }

    /// The same for the delta images the dirty pass reads: a run that has
    /// its NVM written behind its back after lookup 10 harvests images whose
    /// deltas carry the corruption. None is read off a table, and the hooks'
    /// answers are the per-trial recoveries and restarts.
    #[test]
    fn a_corrupted_delta_image_falls_back_to_simulation() {
        for s in both() {
            let name = s.info.name;
            let (live, clean) = harvest(&s, &[20]);
            for (what, addr, byte) in corruptions(&live, &clean[0].1) {
                let (mut emu, mc) = s.setup(CrashTrigger::Never);
                let units = [20, 40, 60];
                emu.arm_harvest(units.map(|u| (s.trigger_of(u), u)));
                assert!(mc.run(&mut emu, 0, 10).completed().is_some());
                emu.seed_bytes(addr, &[byte]);
                assert!(mc.run(&mut emu, 10, LOOKUPS).completed().is_some());
                let states: Vec<(CrashSite, DeltaImage)> = emu
                    .take_harvests()
                    .into_iter()
                    .map(|h| (h.site, h.image))
                    .collect();
                assert_eq!(states.len(), units.len());
                let mut check = ColdCheck::new(&mc);
                for (_, image) in &states {
                    assert_eq!(image.read_u64(mc.idx_cell.addr()), 0);
                    assert!(!check.is_cold(image), "{name}: {what}");
                }
                // Slot 0 filled by a clean restart, and not read.
                let ends = RestartEnds::default();
                s.restarts(&live, &mut std::iter::once(&clean[0].1), &ends);
                assert_eq!(filled(&ends), 1);
                let (hooked, hits) =
                    s.restarts(&mc, &mut states.iter().map(|(_, image)| image), &ends);
                let alone: Vec<DirtyRestart> = states
                    .iter()
                    .map(|(_, image)| s.dirty_restart(&mc, &image.materialize()))
                    .collect();
                assert_eq!((hooked.answers, hits), (alone, 0), "{name}: {what}");
                let (hooked, hits) = s.recoveries(&mc, &mut handed(&states));
                let verdict = |c: &Classified| (c.outcome, c.lost_units, c.sim_time_ps);
                for (got, (site, image)) in hooked.iter().zip(&states) {
                    let want = s.recover(&mc, *site, &image.materialize(), None);
                    assert_eq!(verdict(got), verdict(&want), "{name}: {what}");
                }
                assert_eq!(hits, 0, "{name}: {what}");
            }
        }
    }

    /// The seeded bug in [`vouched`] — the image check skipped — is killed
    /// by the fallback differential: a recovery from an image whose fuel
    /// energy grid is another one is read off the clean reference, and its
    /// clock is not what recovering it gives, because the energy grid steers
    /// each lookup's binary search and so the lines it reads. (A campaign
    /// cannot see the bug: every image a run harvests passes the check.)
    #[test]
    fn a_skipped_image_check_is_killed_by_the_fallback_differential() {
        let s = McCampaign::new_selective(reference_counts());
        let (mc, states) = harvest(&s, &[60]);
        let (site, image) = &states[0];
        let poisoned = poisoned(&mc, image);
        let delta = DeltaImage::whole(poisoned.clone());
        let crashed_at = site.index + 1;
        let ask = || s.tabled_recovery(&mc, &mut ColdCheck::new(&mc), &delta, crashed_at);
        let (clean, seeds) = hook::record(ask);
        assert!(clean.is_none(), "the check refuses the poison");
        let seeds: Vec<Site> = seeds.into_iter().filter(|s| s.op == Op::Seed).collect();
        assert_eq!(seeds.len(), 1, "the one image check: {seeds:?}");
        let simulated = mc.recover_and_resume(&poisoned, s.cfg.clone(), crashed_at);
        let seeded = hook::mutating(seeds[0], ask).expect("the seed skips the check");
        assert_ne!(
            seeded.report.resume_time, simulated.report.resume_time,
            "the poison must show"
        );
    }

    /// `image` with another fuel energy grid, skewed towards its low end.
    fn poisoned(mc: &McSim, image: &DeltaImage) -> NvmImage {
        let mut bytes = image.materialize().prefix().to_vec();
        let points = mc.grids.grid_points;
        for g in 0..points {
            let at = mc.grids.energy.addr(g) as usize;
            let skewed = (g as f64 / points as f64).powi(4);
            bytes[at..at + 8].copy_from_slice(&skewed.to_le_bytes());
        }
        NvmImage::new(bytes, image.len())
    }

    /// The seed that skips the image check neither reads the restart table
    /// nor fills it: a poisoned image's restart under it is the simulated
    /// one, before and after a clean restart fills its slot, and the slot
    /// holds the clean clock. A fill under the seed would have stored the
    /// poisoned clock for every later restart in the process: an unhooked
    /// restart of the clean image through the process-wide table is still
    /// the restart alone.
    #[test]
    fn a_restart_under_the_skipped_image_check_neither_reads_nor_fills_the_table() {
        let s = McCampaign::new_selective(reference_counts());
        let (mc, states) = harvest(&s, &[60]);
        let image = &states[0].1;
        let poisoned = poisoned(&mc, image);
        let delta = DeltaImage::whole(poisoned.clone());
        let ends = RestartEnds::default();
        let restart = |image: &DeltaImage| {
            let (chain, read) = s.restarts(&mc, &mut std::iter::once(image), &ends);
            (chain.answers, read)
        };
        let (_, sites) = hook::record(|| restart(&delta));
        let seeds: Vec<Site> = sites
            .into_iter()
            .filter(|s| s.op == Op::Seed && s.at.file().ends_with("scenarios/mc.rs"))
            .collect();
        assert_eq!(seeds.len(), 1, "the one image check: {seeds:?}");
        let simulated = s.dirty_restart(&mc, &poisoned);
        let clean = s.dirty_restart(&mc, &image.materialize());
        assert_ne!(
            simulated.sim_time_ps, clean.sim_time_ps,
            "the poison must show"
        );
        for filled_before in [0, 1] {
            let seeded = hook::mutating(seeds[0], || restart(&delta));
            assert_eq!(seeded, (vec![simulated.clone()], 0));
            assert_eq!(filled(&ends), filled_before);
            let read = usize::from(filled_before == 1);
            assert_eq!(restart(image), (vec![clean.clone()], read));
        }
        assert_eq!(
            ends.slot(0).and_then(OnceLock::get),
            Some(&clean.sim_time_ps)
        );
        let through_the_process =
            |image: &DeltaImage| s.dirty_restart_chain(&mc, &mut std::iter::once(image));
        hook::mutating(seeds[0], || through_the_process(&delta));
        assert_eq!(through_the_process(image), [clean]);
    }

    /// How many distinct crash states of a kernel campaign at seed 42 each
    /// MC scenario's hooks read off the tables, and of how many: `[recover
    /// hits, dirty hits, states]`, the dirty pass run only for `resilience`,
    /// over each scenario's restart table in `ends`; and the accesses its
    /// restart chains simulated.
    fn table_hits(
        budget_states: u64,
        resilience: bool,
        ends: &[RestartEnds; 2],
    ) -> [(&'static str, [usize; 3], u64); 2] {
        let cfg = CampaignConfig {
            budget_states,
            dense_units: 400,
            seed: 42,
            ..CampaignConfig::default()
        };
        let registry = Registry::Kernel.scenarios();
        let planned = plan(&cfg, &registry);
        let mut ends = ends.iter();
        both().map(|s| {
            let ends = ends.next().expect("a table per scenario");
            let at = registry.iter().position(|r| r.name() == s.info.name);
            let (mut hits, mut simulated) = ([0; 3], 0);
            for chunk in planned[at.expect("registered")].chunks(cfg.max_batch as usize) {
                let (mc, states) = harvest(&s, chunk);
                hits[0] += s.recoveries(&mc, &mut handed(&states)).1;
                if resilience {
                    let images = &mut states.iter().map(|(_, image)| image);
                    let (chain, read) = s.restarts(&mc, images, ends);
                    hits[1] += read;
                    simulated += chain.simulated_accesses;
                }
                hits[2] += states.len();
            }
            (s.info.name, hits, simulated)
        })
    }

    /// A change that quietly stops reading the tables fails here: the
    /// states of the `kernel-sweep` (260 states, 400 dense units, no dirty
    /// pass) and `resilience-sweep` (130, 400) campaigns at seed 42 that
    /// each hook reads off them, on fresh restart tables. `mc-epoch`'s
    /// recoveries chain. One resilience campaign fills a slot from each
    /// flushed index's first restart and reads the later ones of that index
    /// off it, so it simulates no more restart accesses than chaining every
    /// `mc-selective` restart (491 267) and running `mc-epoch`'s loop once
    /// (444 872). A second campaign on the same tables reads every restart
    /// off them. No cold recovery reference the sweeps built holds more than
    /// an interval.
    #[test]
    fn the_sweeps_read_as_many_states_off_the_tables_as_pinned() {
        let fresh = || [RestartEnds::default(), RestartEnds::default()];
        let [selective, epoch] = table_hits(260, false, &fresh());
        assert_eq!(selective, ("mc-selective", [20, 0, 20], 0));
        assert_eq!(epoch, ("mc-epoch", [0, 0, 20], 0));
        let ends = fresh();
        let [selective, epoch] = table_hits(130, true, &ends);
        assert_eq!(selective, ("mc-selective", [10, 2, 10], 491_265));
        assert_eq!(epoch, ("mc-epoch", [0, 9, 10], 444_872));
        let [selective, epoch] = table_hits(130, true, &ends);
        assert_eq!(selective, ("mc-selective", [10, 10, 10], 0));
        assert_eq!(epoch, ("mc-epoch", [0, 10, 10], 0));
        for s in both() {
            for (k, slot) in (0..).step_by(INTERVAL as usize).zip(s.cold_references()) {
                let held = slot.lock().expect("a reference build never panics");
                let past = held
                    .as_ref()
                    .filter(|built| built.reaches(k + INTERVAL + 1));
                assert!(past.is_none(), "{}: the reference from {k}", s.info.name);
            }
        }
    }

    /// Under a hook that changes machines — a dropped persist, another CPU
    /// cache — no table answers, and no restart fills one: the process-wide
    /// tables stand for the machines as configured.
    #[test]
    fn no_table_answers_while_a_hook_changes_machines() {
        for s in both() {
            let name = s.info.name;
            let (mc, states) = harvest(&s, &[20]);
            let (site, image) = &states[0];
            let ends = RestartEnds::default();
            let restart = || s.restarts(&mc, &mut std::iter::once(image), &ends).1;
            let ask = || {
                let mut check = ColdCheck::new(&mc);
                let recovered = s.tabled_recovery(&mc, &mut check, image, site.index + 1);
                let restarted = tabled_restart(&s, &mc, &mut check, &ends, image);
                (recovered.is_some(), restarted.is_some())
            };
            let (mut emu, mut live) = s.setup(CrashTrigger::Never);
            let (_, sites) = hook::record(|| s.forward(&mut live, &mut emu));
            let flush = sites.iter().find(|s| s.op == Op::Flush).expect("a persist");
            let big = adcc_sim::lru::CacheConfig::new(1 << 20, 16);
            assert_eq!(hook::mutating(*flush, restart), 0, "{name}");
            assert_eq!(hook::with_cpu_cache(big, restart), 0, "{name}");
            assert_eq!(filled(&ends), 0, "{name}: filled under a hook");
            assert_eq!(restart(), 0, "{name}");
            assert_eq!(filled(&ends), 1, "{name}");
            let selective = matches!(s.mode, McMode::Selective { .. });
            assert_eq!(ask(), (selective, true), "{name}");
            assert_eq!(hook::mutating(*flush, ask), (false, false), "{name}");
            assert_eq!(hook::with_cpu_cache(big, ask), (false, false), "{name}");
            assert_eq!(hook::mutating(*flush, restart), 0, "{name}");
            assert_eq!(restart(), 1, "{name}");
        }
    }

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
        // Exact: the followers join where the pilot leads their crash-free
        // future (645 468 while `lead` compared NVM under dirty lines too).
        assert_eq!(chain.simulated_accesses, 548_458);
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
