//! Distributed scenarios: the `adcc_dist` kernels under both recovery
//! modes, unit-addressable so the schedule machinery enumerates
//! rank-granular failure sets.
//!
//! ## Unit space
//!
//! The site-grain space is laid out in three blocks:
//!
//! * **Block A — singleton crashes** (`ranks * iters * 2` units): unit `u`
//!   decodes to rank `u % ranks`, then `(u / ranks) / 2 + 1` as the
//!   superstep and `(u / ranks) % 2` as the phase (`PH_MID` / `PH_END`),
//!   so any schedule prefix already spreads crash points across ranks
//!   *and* supersteps.
//! * **Block B — cascading failures** (`2 * ranks` units): a first crash
//!   on rank `c % ranks` at a mid-run or late superstep, plus a second,
//!   staggered crash on the next rank armed to fire *while the cluster is
//!   still recovering or resuming* from the first. Occurrence counts are
//!   chosen per recovery mode so the second trigger lands inside the
//!   recovery re-execution (GlobalRestart) or the resumed superstep
//!   (AlgorithmDirected).
//! * **Block C — node loss** (`ranks` units, chaotic profile +
//!   AlgorithmDirected only): the failed rank's NVM image is destroyed
//!   with the process, forcing recovery to restore from the remote
//!   checkpoint level end-to-end. Requires the profile to configure a
//!   remote level, so the block exists only under `--faults chaotic`.
//!
//! Dense units (at or above `total_units`) map to access-count triggers
//! on rank `d % ranks` with thresholds spaced by the scenario's measured
//! stride — the same subdivision the single-rank scenarios use, per rank.
//!
//! ## One forward execution per chunk
//!
//! Every unit is a harvest point. A failure set's forward execution up to
//! its *first* crash is the crash-free execution — an armed trigger that
//! has not fired perturbs nothing — so the batch path harvests the first
//! failure of a cascade or node loss exactly like a singleton, and hands
//! the rest of the set (the node-loss flag, the second failure) to
//! `adcc_dist::trial::run_dist_batch` as the point's `FollowUp`, which
//! arms it on the replay's fork. One cluster is built and run forward per
//! chunk whatever the passes: each drained state is forked for recovery
//! and/or for the dirty reboot. Dedicated per-unit clusters survive only
//! behind [`Scenario::run_trial`] — the oracle the batch path is checked
//! against.

use std::sync::{Arc, OnceLock};

use adcc_dist::cg::{DistCg, Spd};
use adcc_dist::cluster::{Cluster, RankFailure};
use adcc_dist::jacobi::DistJacobi;
use adcc_dist::net::FaultProfile;
use adcc_dist::preset::{DistConfig, Shape};
use adcc_dist::sites;
use adcc_dist::stencil::DistStencil;
use adcc_dist::trial::{
    reference_run, run_dist_batch, run_dist_trial, BatchPasses, BatchPoint, DirtyReboot,
    DistKernel, DistTrial, FollowUp, RecoveryMode, ReferenceRun,
};
use adcc_linalg::vecops::max_diff;
use adcc_resilience::{DirtyTrial, Tolerance};
use adcc_sim::crash::{CrashSite, CrashTrigger};

use super::{merge, once_per_process, verified_completion, StateResult};
use crate::memstats::ImageMemory;
use crate::scenario::{
    Classified, Harvested, Kernel, Mechanism, PassOutput, Passes, Scenario, ScenarioInfo, Trial,
    UnitSpace, Whole,
};

const TOL: f64 = 1e-9;

/// Builds a fresh cluster + program for one execution under one recovery
/// mode, with a failure set armed.
type Build<K> = dyn Fn(RecoveryMode, &[RankFailure]) -> (Cluster, K) + Send + Sync;

/// One distributed kernel family under one fabric fault profile: what its
/// local-recovery and global-restart scenarios share.
#[derive(Clone)]
struct DistFamily<K> {
    kernel: Kernel,
    /// Scenario names under local recovery, then under global restart.
    names: [&'static str; 2],
    faults: FaultProfile,
    ranks: u64,
    iters: u64,
    /// Access-count spacing of dense crash points per rank (calibrated to
    /// the kernel's measured crash-free per-rank access count).
    dense_stride: u64,
    /// Residual tolerance the resilience sweep classifies dirty
    /// continuations against.
    dirty_tolerance: Tolerance,
    build: Arc<Build<K>>,
}

impl<K> DistFamily<K> {
    /// The family of `P`'s campaign preset under `faults`: every execution
    /// sets `setup` up on a cluster built from the preset of its mode.
    fn new<P: Shape + 'static>(
        kernel: Kernel,
        names: [&'static str; 2],
        faults: FaultProfile,
        dense_stride: u64,
        dirty_tolerance: Tolerance,
        setup: impl Fn(&mut Cluster, DistConfig<P>) -> K + Send + Sync + 'static,
    ) -> Self {
        let preset = DistConfig::<P>::campaign_for(RecoveryMode::AlgorithmDirected, faults);
        DistFamily {
            kernel,
            names,
            faults,
            ranks: preset.ranks as u64,
            iters: preset.iters,
            dense_stride,
            dirty_tolerance,
            build: Arc::new(move |mode, failures| {
                DistConfig::campaign_for(mode, faults).launch(failures, &setup)
            }),
        }
    }
}

impl DistFamily<DistStencil> {
    fn stencil(faults: FaultProfile) -> Self {
        DistFamily::new(
            Kernel::Stencil,
            ["dist-stencil-local", "dist-stencil-restart"],
            faults,
            // ~5.4k crash-free accesses per rank.
            100,
            // The explicit diffusion update is contractive, so a dirty block
            // heals toward the reference; 1e-3 on a unit-scale rod accepts a
            // visibly-healed plate without waving through a cold one.
            Tolerance::new(TOL, 1e-3, 1e3),
            DistStencil::setup,
        )
    }
}

impl DistFamily<DistJacobi> {
    fn jacobi(faults: FaultProfile) -> Self {
        DistFamily::new(
            Kernel::Jacobi,
            ["dist-jacobi-local", "dist-jacobi-restart"],
            faults,
            // ~9.7k crash-free accesses per rank.
            150,
            // Jacobi smoothing contracts faster than the 1-D rod (four
            // neighbors average in), so a slightly looser acceptable band
            // still tells healed blocks from cold ones.
            Tolerance::new(TOL, 1e-2, 1e3),
            DistJacobi::setup,
        )
    }
}

impl DistFamily<DistCg> {
    /// The host-side SPD problem is built here, once, and shared by both
    /// scenarios' clusters: it is a pure function of the fixed shape (the
    /// fault profile changes ranks, never the matrix), and rebuilding it per
    /// execution would dominate dist-CG setup.
    fn cg(faults: FaultProfile) -> Self {
        let (a, b) = Spd::CAMPAIGN.problem();
        DistFamily::new(
            Kernel::Cg,
            ["dist-cg-local", "dist-cg-restart"],
            faults,
            // ~15k crash-free accesses per rank.
            250,
            // The Krylov recurrence has no self-correction: a dirty segment
            // either resumes from naturally-consistent residue (exact) or
            // derails, so the acceptable band mostly documents the cliff.
            Tolerance::new(TOL, 1e-4, 1e3),
            move |cl: &mut Cluster, cfg| DistCg::setup_with_problem(cl, cfg, &a, &b),
        )
    }
}

/// What one scheduled unit asks the cluster to survive.
enum UnitKind {
    /// Block A: one fail-stop crash.
    Single(RankFailure),
    /// Block B: a first crash plus a second one staggered to land during
    /// recovery or the resumed tail.
    Cascade(RankFailure, RankFailure),
    /// Block C: one crash whose NVM image dies with the node — recovery
    /// goes through the remote-restore path.
    NodeLoss(RankFailure),
    /// Access-grain dense tail.
    Dense(RankFailure),
}

impl UnitKind {
    /// The failure set in firing order: the first failure — what a
    /// per-trial cluster arms together with the second, and what the batch
    /// path harvests — and the staggered second one, if any, which rides
    /// the batch path's replay forks.
    fn failures(&self) -> (RankFailure, Option<RankFailure>) {
        match *self {
            UnitKind::Single(f) | UnitKind::NodeLoss(f) | UnitKind::Dense(f) => (f, None),
            UnitKind::Cascade(first, second) => (first, Some(second)),
        }
    }
}

fn at_site(phase: u32, iter: u64, occurrence: u32) -> CrashTrigger {
    CrashTrigger::AtSite {
        site: CrashSite::new(phase, iter),
        occurrence,
    }
}

/// A distributed scenario: one kernel family under one recovery mode,
/// classified against its own crash-free cluster run.
struct Dist<K> {
    family: DistFamily<K>,
    mode: RecoveryMode,
    info: ScenarioInfo,
    /// Site-grain block sizes `(singleton, cascade, node_loss)`.
    blocks: (u64, u64, u64),
    /// The crash-free cluster execution, looked up on first use (see
    /// [`Dist::reference`]) and then shared by every trial of this
    /// scenario: per-trial classification needs its solution, the batch
    /// path also its per-superstep resume states (to short-circuit resumed
    /// tails).
    reference: OnceLock<&'static ReferenceRun>,
}

impl<K: DistKernel> Dist<K> {
    fn new(family: DistFamily<K>, mode: RecoveryMode) -> Self {
        let (name, mechanism) = match mode {
            RecoveryMode::AlgorithmDirected => (family.names[0], Mechanism::Extended),
            RecoveryMode::GlobalRestart => (family.names[1], Mechanism::Checkpoint),
        };
        let chaotic = family.faults == FaultProfile::Chaotic;
        // Node-loss units restore from the remote checkpoint level: only the
        // chaotic profile configures one, and only local recovery uses it.
        let node_loss = chaotic && mechanism == Mechanism::Extended;
        let ranks = family.ranks;
        let blocks = (
            ranks * family.iters * 2,
            2 * ranks,
            if node_loss { ranks } else { 0 },
        );
        let info = ScenarioInfo {
            name,
            kernel: family.kernel,
            mechanism,
            platform: if chaotic {
                "dist-16rank-grid"
            } else {
                "dist-4rank"
            },
            unit_space: UnitSpace::new(blocks.0 + blocks.1 + blocks.2, family.dense_stride),
        };
        Dist {
            family,
            mode,
            info,
            blocks,
            reference: OnceLock::new(),
        }
    }

    /// A fresh cluster + program with `failures` armed.
    fn build(&self, failures: &[RankFailure]) -> (Cluster, K) {
        (self.family.build)(self.mode, failures)
    }

    /// The crash-free cluster execution: a pure function of the scenario's
    /// fixed config, which its name (kernel family and recovery mode) and
    /// fault profile pin, so it runs once per process (see [`once_per_process`]).
    fn reference(&self) -> &'static ReferenceRun {
        self.reference.get_or_init(|| {
            once_per_process((self.info.name, self.family.faults.name()), || {
                let (mut cl, mut kernel) = self.build(&[]);
                reference_run(&mut cl, &mut kernel)
            })
        })
    }

    /// Classify one distributed trial against the cached reference — the
    /// single classification path both [`Scenario::run_trial`] and the
    /// recover pass of [`Scenario::harvest`] go through (the latter once
    /// per replay: every unit a replay answers for gets the same verdict).
    fn classify_dist(&self, t: DistTrial) -> Classified {
        let matches = max_diff(&t.solution, &self.reference().solution) < TOL;
        if t.completed_clean {
            return verified_completion(matches, t.profile);
        }
        Classified::new(t.detected, matches, t.lost_units, t.sim_time_ps, t.profile)
    }

    /// The dirty trial of `unit`, whose crash state rebooted dirty to `d`.
    fn dirty_trial(&self, unit: u64, d: &DirtyReboot) -> DirtyTrial {
        let diff = max_diff(&d.solution, &self.reference().solution);
        DirtyTrial {
            unit,
            class: self.family.dirty_tolerance.classify(false, diff),
            extra_units: 0,
            sim_time_ps: d.sim_time_ps,
        }
    }

    /// The second failure of a cascade led by a `PH_MID` crash on `rank1`
    /// at `iter1`: the next rank up, armed to fire while the cluster is
    /// still digesting the first crash.
    ///
    /// Occurrence counting keys off the poll protocol — polls sweep ranks
    /// ascending and stop at the first firing rank, so ranks below
    /// `rank1` have already consumed one occurrence of the first crash's
    /// site when it fires, and ranks above it have not:
    ///
    /// * AlgorithmDirected resumes the crashed superstep itself, so the
    ///   same `(PH_MID, iter1)` site is re-polled in the resumed tail.
    /// * GlobalRestart re-executes from the last checkpoint up to the
    ///   frontier (`iter1 - 1`), so that superstep's MID poll recurs
    ///   *inside* recovery — the second occurrence lands mid-rollback.
    fn cascade_second(&self, rank1: usize, iter1: u64) -> RankFailure {
        let ranks = self.family.ranks as usize;
        let rank2 = (rank1 + 1) % ranks;
        let repolled_occurrence = if rank2 < rank1 { 2 } else { 1 };
        match self.mode {
            RecoveryMode::AlgorithmDirected => {
                RankFailure::crash(rank2, at_site(sites::PH_MID, iter1, repolled_occurrence))
            }
            RecoveryMode::GlobalRestart => {
                if iter1 >= 2 {
                    RankFailure::crash(rank2, at_site(sites::PH_MID, iter1 - 1, 2))
                } else {
                    RankFailure::crash(rank2, at_site(sites::PH_MID, 1, repolled_occurrence))
                }
            }
        }
    }

    /// Decode a scheduled unit into the failure set to arm.
    fn decode(&self, unit: u64) -> UnitKind {
        let (ranks, iters) = (self.family.ranks, self.family.iters);
        let (a, b, c) = self.blocks;
        if unit < a {
            let rank = (unit % ranks) as usize;
            let rest = unit / ranks;
            let iter = rest / 2 + 1;
            let phase = if rest.is_multiple_of(2) {
                sites::PH_MID
            } else {
                sites::PH_END
            };
            UnitKind::Single(RankFailure::crash(rank, at_site(phase, iter, 1)))
        } else if unit < a + b {
            let d = unit - a;
            let rank1 = (d % ranks) as usize;
            let iter1 = if d / ranks == 0 {
                (iters / 2).max(1)
            } else {
                (iters - 1).max(1)
            };
            UnitKind::Cascade(
                RankFailure::crash(rank1, at_site(sites::PH_MID, iter1, 1)),
                self.cascade_second(rank1, iter1),
            )
        } else if unit < a + b + c {
            let rank = ((unit - a - b) % ranks) as usize;
            UnitKind::NodeLoss(RankFailure::node_loss(
                rank,
                at_site(sites::PH_END, (iters / 2).max(1), 1),
            ))
        } else {
            let d = unit - (a + b + c);
            let rank = (d % ranks) as usize;
            UnitKind::Dense(RankFailure::crash(
                rank,
                CrashTrigger::AtAccessCount((d / ranks + 1) * self.family.dense_stride),
            ))
        }
    }

    /// Everything a per-trial cluster arms for `unit`, in firing order.
    fn failure_set(&self, unit: u64) -> Vec<RankFailure> {
        let (first, second) = self.decode(unit).failures();
        std::iter::once(first).chain(second).collect()
    }
}

impl<K: DistKernel + Clone + 'static> Scenario for Dist<K> {
    fn info(&self) -> &ScenarioInfo {
        &self.info
    }
    fn site_trigger(&self, unit: u64) -> CrashTrigger {
        self.trigger_of(unit)
    }
    fn trigger_of(&self, unit: u64) -> CrashTrigger {
        // The *first* failure's trigger: schedules only need a stable
        // per-unit label, and cascades are keyed by their leading crash.
        self.decode(unit).failures().0.trigger
    }

    /// The oracle: one dedicated cluster with the unit's whole failure set
    /// armed, run forward, recovered and resumed to the last superstep.
    fn run_trial(&self, unit: u64, telemetry: bool) -> Trial {
        let (mut cl, mut kernel) = self.build(&self.failure_set(unit));
        let t = run_dist_trial(&mut cl, &mut kernel, telemetry);
        self.classify_dist(t).trial(unit)
    }

    /// One forward cluster execution serves every unit and every pass:
    /// each unit's first failure is harvested as a copy-on-write delta, and
    /// each drained state is replayed on forks of the live cluster with
    /// the rest of the unit's failure set armed on them.
    ///
    /// * recover — the state replays through recovery, short-circuiting
    ///   resumed tails against the cached reference run. Trials identical
    ///   to per-unit `run_trial` (the delta-equivalence suite pins this).
    /// * dirty — the state reboots dirty. Units whose trigger never fires
    ///   completed clean — nothing crashed, nothing rebooted — and
    ///   classify as converged-exact at zero cost.
    ///
    /// The drain recovers its states as it goes, so the batch is one job:
    /// the harvest step returns it [`Whole`].
    fn harvest<'a>(
        &'a self,
        units: &'a [u64],
        passes: Passes,
        mem: &ImageMemory,
    ) -> Box<dyn Harvested + 'a> {
        debug_assert!(units.windows(2).all(|w| w[0] < w[1]), "units unsorted");
        if !(passes.recover || passes.dirty) {
            return Box::new(Whole(PassOutput::default()));
        }
        let points: Vec<BatchPoint> = units
            .iter()
            .map(|&unit| {
                let (first, second) = self.decode(unit).failures();
                BatchPoint {
                    unit,
                    rank: first.rank,
                    trigger: first.trigger,
                    follow: FollowUp {
                        node_loss: first.node_loss,
                        second,
                    },
                }
            })
            .collect();
        let (mut cl, mut kernel) = self.build(&[]);
        let (replays, stats) = run_dist_batch(
            &mut cl,
            &mut kernel,
            &points,
            BatchPasses {
                recover: passes.recover,
                telemetry: passes.telemetry,
                dirty: passes.dirty,
            },
            self.reference(),
        );
        mem.record_execution(
            stats.base_bytes,
            stats.delta_bytes,
            stats.images,
            stats.distinct_states,
            stats.materialized_bytes,
            stats.pool_bytes,
        );

        let states = replays.into_iter().map(|replay| StateResult {
            verdict: replay.trial.map(|t| self.classify_dist(t)),
            dirty: replay.dirty.map(|d| self.dirty_trial(replay.units[0], &d)),
            units: replay.units,
        });
        let tolerance = passes.dirty.then_some(self.family.dirty_tolerance);
        Box::new(Whole(merge(units, passes.recover, tolerance, states, None)))
    }
}

/// Every distributed scenario (the `dist` registry) under one fabric fault
/// profile, in report order: three kernel families, each under
/// algorithm-directed local recovery and global checkpoint restart. The
/// chaotic profile swaps every cluster to the 16-rank 2-D grid presets
/// with a remote checkpoint level and appends node-loss units to the
/// local-recovery scenarios.
pub fn all_with(faults: FaultProfile) -> Vec<Box<dyn Scenario>> {
    fn both<K: DistKernel + Clone + 'static>(family: DistFamily<K>) -> [Box<dyn Scenario>; 2] {
        [
            Box::new(Dist::new(family.clone(), RecoveryMode::AlgorithmDirected)),
            Box::new(Dist::new(family, RecoveryMode::GlobalRestart)),
        ]
    }
    [
        both(DistFamily::stencil(faults)),
        both(DistFamily::jacobi(faults)),
        both(DistFamily::cg(faults)),
    ]
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::Outcome;
    use adcc_dist::trial::run_dist_dirty_trial;

    fn stencil(mode: RecoveryMode) -> Dist<DistStencil> {
        Dist::new(DistFamily::stencil(FaultProfile::Off), mode)
    }

    #[test]
    fn unit_decode_interleaves_ranks_then_supersteps() {
        let s = stencil(RecoveryMode::AlgorithmDirected);
        let ranks = s.family.ranks;
        // Units 0..ranks are the MID polls of superstep 1, one per rank.
        for u in 0..ranks {
            let UnitKind::Single(f) = s.decode(u) else {
                panic!("unit {u} should be a singleton");
            };
            assert_eq!(f.rank as u64, u);
            assert!(!f.node_loss);
            assert_eq!(f.trigger, at_site(sites::PH_MID, 1, 1));
        }
        // The next block is the END polls of superstep 1.
        let UnitKind::Single(f) = s.decode(ranks) else {
            panic!("should be a singleton");
        };
        assert_eq!(f.trigger, at_site(sites::PH_END, 1, 1));
        // Dense units spread across ranks with growing thresholds.
        let total = s.total_units();
        let UnitKind::Dense(f) = s.decode(total + 5) else {
            panic!("should be dense");
        };
        assert_eq!(f.rank as u64, 5 % ranks);
        assert_eq!(f.trigger, CrashTrigger::AtAccessCount(200));
    }

    #[test]
    fn cascade_units_stagger_a_second_crash_onto_the_next_rank() {
        let s = stencil(RecoveryMode::AlgorithmDirected);
        let (ranks, iters) = (s.family.ranks, s.family.iters);
        let (a, b, _) = s.blocks;
        assert_eq!(b, 2 * ranks);
        // First cascade variant: mid-run crash.
        let UnitKind::Cascade(first, second) = s.decode(a) else {
            panic!("should be a cascade");
        };
        assert_eq!(first.rank, 0);
        assert_eq!(first.trigger, at_site(sites::PH_MID, iters / 2, 1));
        assert_eq!(second.rank, 1);
        // Rank 1 sits above rank 0, so its re-polled site is occurrence 1.
        assert_eq!(second.trigger, at_site(sites::PH_MID, iters / 2, 1));
        // Wrap-around: the last rank's cascade partner is rank 0, which
        // was polled once before the first crash fired.
        let UnitKind::Cascade(first, second) = s.decode(a + ranks - 1) else {
            panic!("should be a cascade");
        };
        assert_eq!(first.rank as u64, ranks - 1);
        assert_eq!(second.rank, 0);
        assert_eq!(second.trigger, at_site(sites::PH_MID, iters / 2, 2));
        // GlobalRestart staggers the second crash into the rollback
        // re-execution: one superstep earlier, second occurrence.
        let s = stencil(RecoveryMode::GlobalRestart);
        let UnitKind::Cascade(_, second) = s.decode(a + ranks) else {
            panic!("should be a cascade");
        };
        assert_eq!(second.trigger, at_site(sites::PH_MID, iters - 2, 2));
    }

    #[test]
    fn node_loss_units_exist_only_under_chaotic_local_recovery() {
        let off = stencil(RecoveryMode::AlgorithmDirected);
        assert_eq!(off.blocks.2, 0);
        let family = DistFamily::stencil(FaultProfile::Chaotic);
        let chaotic = Dist::new(family.clone(), RecoveryMode::AlgorithmDirected);
        let ranks = chaotic.family.ranks;
        assert_eq!(ranks, 16, "chaotic tier runs the 4x4 grid");
        assert_eq!(chaotic.blocks.2, ranks);
        assert_eq!(chaotic.info.platform, "dist-16rank-grid");
        let (a, b, _) = chaotic.blocks;
        let UnitKind::NodeLoss(f) = chaotic.decode(a + b + 3) else {
            panic!("should be node loss");
        };
        assert_eq!(f.rank, 3);
        assert!(f.node_loss);
        // GlobalRestart cannot use the remote level: no node-loss block.
        let restart = Dist::new(family, RecoveryMode::GlobalRestart);
        assert_eq!(restart.blocks.2, 0);
    }

    #[test]
    fn every_site_unit_of_one_superstep_recovers_exactly_under_local() {
        let s = stencil(RecoveryMode::AlgorithmDirected);
        let ranks = s.family.ranks;
        // Superstep 4's MID and END units across all ranks.
        for u in (3 * 2 * ranks)..(4 * 2 * ranks) {
            let t = s.run_trial(u, false);
            assert_eq!(t.outcome, Outcome::RecoveredExact, "unit {u}");
        }
    }

    #[test]
    fn cascade_units_recover_or_detect_under_both_modes() {
        for mode in [RecoveryMode::AlgorithmDirected, RecoveryMode::GlobalRestart] {
            let s = stencil(mode);
            let (a, b, _) = s.blocks;
            for u in [a, a + 1, a + b - 1] {
                let t = s.run_trial(u, false);
                assert!(
                    matches!(
                        t.outcome,
                        Outcome::RecoveredExact
                            | Outcome::RecoveredRecomputed
                            | Outcome::DetectedDirty
                    ),
                    "{mode:?} unit {u}: {:?}",
                    t.outcome
                );
            }
        }
    }

    #[test]
    fn restart_units_recover_by_recomputation_between_checkpoints() {
        let family = DistFamily::jacobi(FaultProfile::Off);
        let s = Dist::new(family, RecoveryMode::GlobalRestart);
        let ranks = s.family.ranks;
        // Superstep 5 MID (frontier 4, checkpoint 3): one superstep of
        // cluster-wide re-execution.
        let unit = (5 - 1) * 2 * ranks;
        let t = s.run_trial(unit, true);
        assert_eq!(t.outcome, Outcome::RecoveredRecomputed);
        assert_eq!(t.lost_units, ranks);
        let p = t.telemetry.expect("telemetry requested");
        assert!(p.recovery_net_bytes > 0);
    }

    #[test]
    fn dense_units_past_the_run_complete_clean() {
        let family = DistFamily::cg(FaultProfile::Off);
        let s = Dist::new(family, RecoveryMode::AlgorithmDirected);
        let t = s.run_trial(s.total_units() + 100 * s.family.ranks, false);
        assert_eq!(t.outcome, Outcome::CompletedClean);
    }

    #[test]
    fn node_loss_units_restore_from_the_remote_level_exactly() {
        let family = DistFamily::jacobi(FaultProfile::Chaotic);
        let s = Dist::new(family, RecoveryMode::AlgorithmDirected);
        let (a, b, c) = s.blocks;
        assert!(c > 0);
        let t = s.run_trial(a + b + 1, true);
        assert_eq!(t.outcome, Outcome::RecoveredExact);
        let p = t.telemetry.expect("telemetry requested");
        assert!(p.remote_restore_bytes > 0, "remote level was read");
        assert!(p.net_dropped > 0, "chaotic fabric dropped messages");
    }

    #[test]
    fn the_reference_run_executes_once_per_process() {
        let lossy = || DistFamily::jacobi(FaultProfile::Lossy);
        let first = Dist::new(lossy(), RecoveryMode::GlobalRestart);
        let rebuilt = Dist::new(lossy(), RecoveryMode::GlobalRestart);
        // A second registry build is handed the first one's run — the same
        // allocation, so no cluster was executed for it...
        assert!(std::ptr::eq(first.reference(), rebuilt.reference()));
        // ...and it is bit for bit what a fresh execution would produce.
        let (mut cl, mut kernel) = rebuilt.build(&[]);
        let fresh = reference_run(&mut cl, &mut kernel);
        assert!(fresh == *rebuilt.reference());
        // The key is (kernel family, recovery mode, fault profile).
        for other in [
            Dist::new(lossy(), RecoveryMode::AlgorithmDirected),
            Dist::new(
                DistFamily::jacobi(FaultProfile::Off),
                RecoveryMode::GlobalRestart,
            ),
        ] {
            assert!(!std::ptr::eq(first.reference(), other.reference()));
        }
    }

    /// The dirty pass's oracle: one dedicated cluster with the unit's
    /// whole failure set armed, rebooted dirty at every crash.
    fn dirty_oracle<K: DistKernel>(s: &Dist<K>, unit: u64) -> DirtyTrial {
        let (mut cl, mut kernel) = s.build(&s.failure_set(unit));
        match run_dist_dirty_trial(&mut cl, &mut kernel) {
            Some(d) => s.dirty_trial(unit, &d),
            None => super::super::never_crashed(unit),
        }
    }

    /// Every cascade and node-loss unit of one chaotic-tier scenario, plus
    /// the singletons that share a poll with a cascade leader and with a
    /// node loss: one cluster, one forward execution, and a dirty trial
    /// per unit equal to the per-trial oracle's.
    fn dirty_failure_sets_match_the_oracle<K: DistKernel + Clone + 'static>(
        family: DistFamily<K>,
        mode: RecoveryMode,
    ) {
        let s = Dist::new(family, mode);
        let (ranks, iters) = (s.family.ranks, s.family.iters);
        let (a, b, c) = s.blocks;
        let mid = (iters / 2).max(1);
        let mut units = vec![(mid - 1) * 2 * ranks + 3, ((mid - 1) * 2 + 1) * ranks + 3];
        units.extend(a..a + b + c);
        let mem = ImageMemory::default();
        let swept = s.run_resilience(&units, &mem).expect("dist sweeps dirty");
        let m = mem.summary();
        assert_eq!(m.executions, 1, "{}: one cluster per chunk", s.name());
        assert!(m.distinct_states.unwrap() < m.images, "{}", s.name());
        for (&unit, got) in units.iter().zip(&swept.trials) {
            assert_eq!(*got, dirty_oracle(&s, unit), "{} unit {unit}", s.name());
        }
    }

    #[test]
    fn dirty_pass_of_every_failure_set_unit_equals_the_per_trial_oracle() {
        let faults = FaultProfile::Chaotic;
        for mode in [RecoveryMode::AlgorithmDirected, RecoveryMode::GlobalRestart] {
            dirty_failure_sets_match_the_oracle(DistFamily::stencil(faults), mode);
            dirty_failure_sets_match_the_oracle(DistFamily::jacobi(faults), mode);
            dirty_failure_sets_match_the_oracle(DistFamily::cg(faults), mode);
        }
    }
}
