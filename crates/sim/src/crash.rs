//! The crash emulator: trigger specifications and the poll protocol.
//!
//! The paper's PIN-based emulator lets the user trigger a crash either
//! "after a specific statement is executed" (an inserted
//! `crash_sim_output()` call) or "after a specific number of instructions".
//! We mirror both: applications poll the emulator at instrumented
//! *crash sites* (statement granularity), and an access-count trigger fires
//! at the first poll after the threshold (instruction-count granularity).

use std::ops::{Deref, DerefMut};

use crate::image::{DeltaImage, NvmImage};
use crate::system::{CounterSnapshot, DeltaBase, MemorySystem, SystemConfig};

/// An instrumented program point: a phase identifier plus a loop index.
///
/// Conventions used by `adcc-core`: the phase names the loop or pseudocode
/// line (e.g. "CG line 10", "ABFT loop 1"), the index is the iteration
/// number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CrashSite {
    /// Phase identifier (which loop / pseudocode line).
    pub phase: u32,
    /// Loop index within the phase.
    pub index: u64,
}

impl CrashSite {
    /// Site at `(phase, index)`.
    pub const fn new(phase: u32, index: u64) -> Self {
        CrashSite { phase, index }
    }
}

/// When the emulated machine should crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashTrigger {
    /// Run to completion.
    Never,
    /// Crash at the `occurrence`-th poll of exactly this site (1-based).
    AtSite {
        /// The instrumented site to watch.
        site: CrashSite,
        /// Which poll of the site fires the crash (1-based).
        occurrence: u32,
    },
    /// Crash at the first poll of any site in this phase with
    /// `index >= index` (useful when indices are data-dependent).
    AtPhaseIndex {
        /// Phase to watch.
        phase: u32,
        /// Minimum index that fires the crash.
        index: u64,
    },
    /// Crash at the first poll after `count` element accesses.
    AtAccessCount(u64),
    /// Crash at the first poll after the simulated clock passes `ps`.
    AtSimTimePs(u64),
}

/// One crash state captured by an armed harvest plan (see
/// [`CrashEmulator::arm_harvest`]): the copy-on-write image plus the poll
/// site and counter snapshot at the fork instant. Together they are
/// everything a campaign needs to classify the crash point later — the
/// image for recovery, the site for loss attribution, the counters for a
/// cumulative cost profile — while the shared execution keeps running.
///
/// Harvests with equal [`Harvest::poll`] are one **crash state**: they were
/// captured by the same poll, so machine state, `site`, `at` and the image
/// (one shared delta payload) are identical and only `unit` differs. See
/// [`poll_groups`].
#[derive(Debug)]
pub struct Harvest {
    /// The scheduled unit this crash state belongs to.
    pub unit: u64,
    /// Ordinal of the capturing poll among this emulator's polls since the
    /// plan was armed (1-based). Two polls never share an ordinal, even of
    /// the same site with no access in between.
    pub poll: u64,
    /// The instrumented site whose poll captured the state.
    pub site: CrashSite,
    /// Copy-on-write crash image at the fork instant.
    pub image: DeltaImage,
    /// Deterministic counters at the fork instant.
    pub at: CounterSnapshot,
}

/// One pending harvest point: the trigger condition to watch plus the unit
/// it belongs to. Site-occurrence counting mirrors [`CrashTrigger::AtSite`].
#[derive(Debug)]
struct PlanPoint {
    trigger: CrashTrigger,
    unit: u64,
    site_hits: u32,
    done: bool,
}

/// The armed harvest state: the delta base every capture is diffed
/// against, the pending points, and the captures so far.
#[derive(Debug)]
struct HarvestState {
    base: DeltaBase,
    points: Vec<PlanPoint>,
    pending: usize,
    polls: u64,
    out: Vec<Harvest>,
}

/// Split harvests (capture order, as [`CrashEmulator::take_harvests`] and
/// [`CrashEmulator::drain_harvests`] return them) into crash-state
/// equivalence classes: maximal runs captured by the same poll. Recovery
/// is a function of the machine state alone, so a consumer classifies
/// `group[0]` once and charges the result to every `unit` in the group.
pub fn poll_groups(harvests: &[Harvest]) -> impl Iterator<Item = &[Harvest]> {
    harvests.chunk_by(|a, b| a.poll == b.poll)
}

/// The crash emulator: a [`MemorySystem`] plus a trigger. Dereferences to
/// the system so application code reads/writes through it directly.
pub struct CrashEmulator {
    sys: MemorySystem,
    trigger: CrashTrigger,
    site_hits: u32,
    fired: bool,
    fired_site: Option<CrashSite>,
    harvest: Option<HarvestState>,
}

impl CrashEmulator {
    /// Fresh system from `cfg`, armed with `trigger`.
    pub fn new(cfg: SystemConfig, trigger: CrashTrigger) -> Self {
        Self::from_system(MemorySystem::new(cfg), trigger)
    }

    /// Wrap an existing system (e.g. one restored from an image).
    pub fn from_system(sys: MemorySystem, trigger: CrashTrigger) -> Self {
        CrashEmulator {
            sys,
            trigger,
            site_hits: 0,
            fired: false,
            fired_site: None,
            harvest: None,
        }
    }

    /// The trigger this emulator is armed with.
    pub fn trigger(&self) -> CrashTrigger {
        self.trigger
    }

    /// Whether the trigger already fired.
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// The site whose poll fired the trigger, if it has fired. For
    /// access-count and sim-time triggers this is how the application
    /// learns *where* in the computation the crash actually landed.
    pub fn fired_site(&self) -> Option<CrashSite> {
        self.fired_site
    }

    /// Arm a harvest plan: at every poll, any listed trigger condition
    /// that is met captures a copy-on-write crash image (plus site and
    /// counter snapshot) for its unit — without crashing, so one
    /// instrumented execution yields an image per scheduled crash point.
    /// Each point fires at most once; capture order is poll order. The
    /// delta base is taken now (see [`MemorySystem::delta_base`]) and
    /// returned, so a driver can account for the memory it pins.
    ///
    /// The armed crash `trigger` still works independently; a poll that
    /// both harvests and fires the trigger captures the harvest first, so
    /// the image equals what [`CrashEmulator::crash_now`] is about to
    /// return.
    pub fn arm_harvest(
        &mut self,
        points: impl IntoIterator<Item = (CrashTrigger, u64)>,
    ) -> &DeltaBase {
        let base = self.sys.delta_base();
        let points: Vec<PlanPoint> = points
            .into_iter()
            .map(|(trigger, unit)| PlanPoint {
                trigger,
                unit,
                site_hits: 0,
                done: matches!(trigger, CrashTrigger::Never),
            })
            .collect();
        let pending = points.iter().filter(|p| !p.done).count();
        let armed = self.harvest.insert(HarvestState {
            base,
            points,
            pending,
            polls: 0,
            out: Vec::new(),
        });
        &armed.base
    }

    /// Crash states captured so far by the armed harvest plan.
    pub fn harvest_count(&self) -> usize {
        self.harvest.as_ref().map_or(0, |h| h.out.len())
    }

    /// Disarm the harvest plan and take the captured crash states (poll
    /// order), retiring the plan's delta base: the system stops journaling
    /// NVM writes. Empty if no plan was armed.
    pub fn take_harvests(&mut self) -> Vec<Harvest> {
        let Some(plan) = self.harvest.take() else {
            return Vec::new();
        };
        self.sys.retire_delta_base();
        plan.out
    }

    /// Take the crash states captured since the last drain, leaving the
    /// plan armed (poll order). Batch drivers drain at phase boundaries so
    /// each harvested state can be replayed while the cluster state at its
    /// capture boundary is still live; [`CrashEmulator::take_harvests`]
    /// at the end would be too late for that.
    pub fn drain_harvests(&mut self) -> Vec<Harvest> {
        self.harvest
            .as_mut()
            .map(|h| std::mem::take(&mut h.out))
            .unwrap_or_default()
    }

    /// Evaluate the armed harvest plan at a poll of `site`.
    fn harvest_at(&mut self, site: CrashSite) {
        let Some(h) = self.harvest.as_mut() else {
            return;
        };
        h.polls += 1;
        if h.pending == 0 {
            return;
        }
        let access = self.sys.access_count();
        let now_ps = self.sys.now().ps();
        let mut fired: Vec<u64> = Vec::new();
        for p in h.points.iter_mut() {
            if p.done {
                continue;
            }
            if trigger_fires(p.trigger, site, &mut p.site_hits, access, now_ps) {
                p.done = true;
                h.pending -= 1;
                fired.push(p.unit);
            }
        }
        if fired.is_empty() {
            return;
        }
        let base = h.base.clone();
        let at = self.sys.counter_snapshot();
        // Points firing at the same poll see the same machine state: fork
        // the delta once and share it (dense access-grain points are often
        // spaced closer than the polls that can capture them). The shared
        // `poll` ordinal is what tells consumers so.
        let image = self.sys.crash_fork_delta(&base);
        // Mark each harvested crash point in the (optional) persistency
        // event stream so the analyzer can tie diagnostics to units.
        for &unit in &fired {
            self.sys.record_crash_mark(unit);
        }
        let h = self.harvest.as_mut().expect("harvest armed");
        let poll = h.polls;
        for unit in fired {
            h.out.push(Harvest {
                unit,
                poll,
                site,
                image: image.clone(),
                at,
            });
        }
    }

    /// Poll at an instrumented site; returns `true` when the application
    /// must crash now (it should then call [`CrashEmulator::crash_now`] and
    /// unwind).
    #[inline]
    pub fn poll(&mut self, site: CrashSite) -> bool {
        self.harvest_at(site);
        if self.fired {
            return false;
        }
        let fire = trigger_fires(
            self.trigger,
            site,
            &mut self.site_hits,
            self.sys.access_count(),
            self.sys.now().ps(),
        );
        if fire {
            self.fired = true;
            self.fired_site = Some(site);
        }
        fire
    }

    /// Crash the machine (volatile state discarded) and return the NVM
    /// image a recovery process would see.
    pub fn crash_now(&mut self) -> NvmImage {
        self.fired = true;
        self.sys.crash()
    }

    /// Consume the emulator, returning the underlying system (run completed
    /// without a crash).
    pub fn into_system(self) -> MemorySystem {
        self.sys
    }

    /// Access the underlying system explicitly.
    pub fn system(&self) -> &MemorySystem {
        &self.sys
    }

    /// Access the underlying system explicitly (mutable).
    pub fn system_mut(&mut self) -> &mut MemorySystem {
        &mut self.sys
    }
}

impl Deref for CrashEmulator {
    type Target = MemorySystem;
    fn deref(&self) -> &MemorySystem {
        &self.sys
    }
}

impl DerefMut for CrashEmulator {
    fn deref_mut(&mut self) -> &mut MemorySystem {
        &mut self.sys
    }
}

/// The one trigger-evaluation rule, shared by the crash path
/// ([`CrashEmulator::poll`]) and the harvest path — the two must never
/// drift, or batch-harvested crash states stop matching per-trial ones.
/// `site_hits` is the caller's per-trigger occurrence counter (bumped here
/// on every poll of a watched site).
#[inline]
fn trigger_fires(
    trigger: CrashTrigger,
    site: CrashSite,
    site_hits: &mut u32,
    access_count: u64,
    now_ps: u64,
) -> bool {
    match trigger {
        CrashTrigger::Never => false,
        CrashTrigger::AtSite {
            site: s,
            occurrence,
        } => {
            if s == site {
                *site_hits += 1;
                *site_hits >= occurrence
            } else {
                false
            }
        }
        CrashTrigger::AtPhaseIndex { phase, index } => site.phase == phase && site.index >= index,
        CrashTrigger::AtAccessCount(n) => access_count >= n,
        CrashTrigger::AtSimTimePs(ps) => now_ps >= ps,
    }
}

/// Outcome of running an instrumented application on a [`CrashEmulator`].
pub enum RunOutcome<T> {
    /// The run finished; the emulator (with final state) is returned.
    Completed(T),
    /// The trigger fired; recovery can inspect the image.
    Crashed(NvmImage),
}

impl<T> RunOutcome<T> {
    /// The completion value, if the run finished.
    pub fn completed(self) -> Option<T> {
        match self {
            RunOutcome::Completed(t) => Some(t),
            RunOutcome::Crashed(_) => None,
        }
    }

    /// The crash image, if the trigger fired.
    pub fn crashed(self) -> Option<NvmImage> {
        match self {
            RunOutcome::Completed(_) => None,
            RunOutcome::Crashed(img) => Some(img),
        }
    }

    /// Whether the trigger fired.
    pub fn is_crashed(&self) -> bool {
        matches!(self, RunOutcome::Crashed(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parray::PArray;

    fn emu(trigger: CrashTrigger) -> CrashEmulator {
        CrashEmulator::new(SystemConfig::nvm_only(4096, 1 << 16), trigger)
    }

    #[test]
    fn never_trigger_never_fires() {
        let mut e = emu(CrashTrigger::Never);
        for i in 0..100 {
            assert!(!e.poll(CrashSite::new(0, i)));
        }
    }

    #[test]
    fn site_trigger_fires_on_nth_occurrence() {
        let site = CrashSite::new(2, 7);
        let mut e = emu(CrashTrigger::AtSite {
            site,
            occurrence: 3,
        });
        assert!(!e.poll(site));
        assert!(!e.poll(CrashSite::new(2, 8))); // different site
        assert!(!e.poll(site));
        assert!(e.poll(site));
        // After firing, polls return false (application already crashed).
        assert!(!e.poll(site));
    }

    #[test]
    fn phase_index_trigger() {
        let mut e = emu(CrashTrigger::AtPhaseIndex { phase: 1, index: 5 });
        assert!(!e.poll(CrashSite::new(1, 4)));
        assert!(!e.poll(CrashSite::new(0, 10)));
        assert!(e.poll(CrashSite::new(1, 5)));
    }

    #[test]
    fn access_count_trigger_fires_at_next_poll() {
        let mut e = emu(CrashTrigger::AtAccessCount(5));
        let a = PArray::<u64>::alloc_nvm(&mut e, 16);
        assert!(!e.poll(CrashSite::new(0, 0)));
        for i in 0..5 {
            a.set(&mut e, i, i as u64);
        }
        assert!(e.poll(CrashSite::new(0, 1)));
    }

    #[test]
    fn sim_time_trigger() {
        let mut e = emu(CrashTrigger::AtSimTimePs(1));
        let a = PArray::<u64>::alloc_nvm(&mut e, 1);
        assert!(!e.poll(CrashSite::new(0, 0)));
        a.set(&mut e, 0, 1);
        assert!(e.poll(CrashSite::new(0, 1)));
    }

    #[test]
    fn crash_now_returns_consistent_image() {
        let mut e = emu(CrashTrigger::AtSite {
            site: CrashSite::new(0, 1),
            occurrence: 1,
        });
        let a = PArray::<u64>::alloc_nvm(&mut e, 1);
        a.set(&mut e, 0, 42);
        a.persist_all(&mut e);
        assert!(e.poll(CrashSite::new(0, 1)));
        let img = e.crash_now();
        assert_eq!(img.read_u64(a.addr(0)), 42);
    }

    #[test]
    fn fork_image_matches_crash_now_and_keeps_running() {
        let mut e = emu(CrashTrigger::Never);
        let a = PArray::<u64>::alloc_nvm(&mut e, 4);
        a.set(&mut e, 0, 1);
        a.persist_all(&mut e);
        a.set(&mut e, 1, 2); // stranded in cache
        let fork = e.system().crash_fork();
        // The run continues unharmed...
        assert_eq!(a.get(&mut e, 1), 2);
        // ...and the fork equals the real crash image taken at that point.
        let crashed = e.crash_now();
        assert_eq!(fork, crashed);
        assert_eq!(fork.read_u64(a.addr(0)), 1);
        assert_eq!(fork.read_u64(a.addr(1)), 0);
    }

    #[test]
    fn armed_harvest_captures_images_without_crashing() {
        let mut e = emu(CrashTrigger::Never);
        let a = PArray::<u64>::alloc_nvm(&mut e, 8);
        e.arm_harvest([
            (
                CrashTrigger::AtSite {
                    site: CrashSite::new(0, 1),
                    occurrence: 1,
                },
                10,
            ),
            (
                CrashTrigger::AtSite {
                    site: CrashSite::new(0, 3),
                    occurrence: 1,
                },
                11,
            ),
        ]);
        for i in 0..6u64 {
            a.set(&mut e, i as usize, i + 100);
            a.persist_all(&mut e);
            assert!(!e.poll(CrashSite::new(0, i)), "harvesting never crashes");
        }
        let harvests = e.take_harvests();
        assert_eq!(harvests.len(), 2);
        assert_eq!(harvests[0].unit, 10);
        assert_eq!(harvests[0].site, CrashSite::new(0, 1));
        // The image is the state at the fork instant, not the end.
        assert_eq!(harvests[0].image.read_u64(a.addr(1)), 101);
        assert_eq!(harvests[0].image.read_u64(a.addr(3)), 0);
        assert_eq!(harvests[1].image.read_u64(a.addr(3)), 103);
        // Counter snapshots are cumulative and ordered.
        assert!(harvests[0].at.now_ps < harvests[1].at.now_ps);
    }

    #[test]
    fn harvest_matches_the_crash_image_at_the_same_poll() {
        // Two emulators, identical executions: one crashes at the site,
        // one harvests it. Images must be byte-identical.
        let site = CrashSite::new(2, 3);
        let run = |e: &mut CrashEmulator| -> Option<NvmImage> {
            let a = PArray::<u64>::alloc_nvm(e, 8);
            for i in 0..6u64 {
                a.set(e, i as usize, i * 7);
                if i.is_multiple_of(2) {
                    a.persist_all(e);
                }
                if e.poll(CrashSite::new(2, i)) {
                    return Some(e.crash_now());
                }
            }
            None
        };
        let mut crasher = emu(CrashTrigger::AtSite {
            site,
            occurrence: 1,
        });
        let crashed = run(&mut crasher).expect("trigger fires");
        assert_eq!(crasher.fired_site(), Some(site));

        let mut harvester = emu(CrashTrigger::Never);
        harvester.arm_harvest([(
            CrashTrigger::AtSite {
                site,
                occurrence: 1,
            },
            0,
        )]);
        assert!(run(&mut harvester).is_none());
        let h = harvester.take_harvests().remove(0);
        assert_eq!(h.image.materialize(), crashed);
        assert_eq!(
            h.image.dirty_lines_at_crash(),
            crashed.dirty_lines_at_crash()
        );
    }

    #[test]
    fn harvest_supports_occurrence_access_and_time_points() {
        let mut e = emu(CrashTrigger::Never);
        let a = PArray::<u64>::alloc_nvm(&mut e, 8);
        e.arm_harvest([
            (
                CrashTrigger::AtSite {
                    site: CrashSite::new(1, 0),
                    occurrence: 3,
                },
                0,
            ),
            (CrashTrigger::AtAccessCount(4), 1),
            (CrashTrigger::AtSimTimePs(1), 2),
        ]);
        for i in 0..5u64 {
            a.set(&mut e, i as usize, i);
            assert!(!e.poll(CrashSite::new(1, 0)));
        }
        let mut harvests = e.take_harvests();
        assert_eq!(harvests.len(), 3);
        harvests.sort_by_key(|h| h.unit);
        // Occurrence 3 of the repeated site fired on the third poll.
        assert_eq!(harvests[0].at.stats.accesses, 3);
        // Access threshold 4 fired at the first poll with >= 4 accesses.
        assert_eq!(harvests[1].at.stats.accesses, 4);
        // The sim-time point fired at the first poll after time advanced.
        assert_eq!(harvests[2].at.stats.accesses, 1);
    }

    #[test]
    fn points_firing_at_one_poll_share_the_poll_and_the_payload() {
        let mut e = emu(CrashTrigger::Never);
        let a = PArray::<u64>::alloc_nvm(&mut e, 8);
        // Three access-count points spaced closer than the polls.
        e.arm_harvest((0..3).map(|u| (CrashTrigger::AtAccessCount(1 + u), u)));
        for i in 0..4u64 {
            a.set(&mut e, i as usize, i);
        }
        a.persist_all(&mut e);
        assert!(!e.poll(CrashSite::new(0, 0)));
        let harvests = e.take_harvests();
        assert_eq!(harvests.len(), 3);
        let mut groups = poll_groups(&harvests);
        let group = groups.next().expect("one group");
        assert_eq!(group.len(), 3);
        assert!(groups.next().is_none());
        for h in &group[1..] {
            assert_eq!(h.poll, group[0].poll);
            assert!(std::sync::Arc::ptr_eq(
                &h.image.delta,
                &group[0].image.delta
            ));
        }
    }

    #[test]
    fn back_to_back_polls_of_one_site_are_distinct_crash_states() {
        let site = CrashSite::new(3, 0);
        let mut e = emu(CrashTrigger::Never);
        let a = PArray::<u64>::alloc_nvm(&mut e, 4);
        e.arm_harvest((1..=2).map(|occurrence| {
            let trigger = CrashTrigger::AtSite { site, occurrence };
            (trigger, occurrence as u64)
        }));
        a.set(&mut e, 0, 9);
        // Same site, no access and no simulated time in between.
        assert!(!e.poll(site));
        assert!(!e.poll(site));
        let harvests = e.take_harvests();
        assert_eq!(harvests.len(), 2);
        assert_eq!(harvests[0].site, harvests[1].site);
        assert_eq!(harvests[0].at.stats.accesses, harvests[1].at.stats.accesses);
        assert_eq!(harvests[0].at.now_ps, harvests[1].at.now_ps);
        assert_ne!(harvests[0].poll, harvests[1].poll);
        assert_eq!(poll_groups(&harvests).count(), 2);
        assert!(!std::sync::Arc::ptr_eq(
            &harvests[0].image.delta,
            &harvests[1].image.delta
        ));
    }

    #[test]
    fn harvest_and_trigger_can_fire_at_the_same_poll() {
        let site = CrashSite::new(4, 2);
        let mut e = emu(CrashTrigger::AtSite {
            site,
            occurrence: 1,
        });
        let a = PArray::<u64>::alloc_nvm(&mut e, 4);
        e.arm_harvest([(
            CrashTrigger::AtSite {
                site,
                occurrence: 1,
            },
            9,
        )]);
        a.set(&mut e, 0, 5);
        a.persist_all(&mut e);
        assert!(e.poll(site), "the armed trigger still fires");
        let img = e.crash_now();
        let h = e.take_harvests().remove(0);
        assert_eq!(h.unit, 9);
        assert_eq!(h.image.materialize(), img);
    }

    #[test]
    fn run_outcome_accessors() {
        let o: RunOutcome<i32> = RunOutcome::Completed(3);
        assert!(!o.is_crashed());
        assert_eq!(o.completed(), Some(3));
        let o: RunOutcome<i32> = RunOutcome::Crashed(NvmImage::new(vec![], 0));
        assert!(o.is_crashed());
        assert!(o.crashed().is_some());
    }
}
