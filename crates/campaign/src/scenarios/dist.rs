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

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use adcc_dist::cg::{CgConfig, DistCg};
use adcc_dist::cluster::{Cluster, RankFailure};
use adcc_dist::jacobi::{DistJacobi, JacobiConfig};
use adcc_dist::net::FaultProfile;
use adcc_dist::sites;
use adcc_dist::stencil::{DistStencil, StencilConfig};
use adcc_dist::trial::{
    reference_run, run_dist_batch, run_dist_trial, BatchPasses, BatchPoint, DistKernel, DistTrial,
    FollowUp, RecoveryMode, ReferenceRun,
};
use adcc_linalg::vecops::max_diff;
use adcc_resilience::{DirtyClass, DirtyTrial, Tolerance};
use adcc_sim::crash::{CrashSite, CrashTrigger};

use super::verified_completion;
use crate::memstats::ImageMemory;
use crate::outcome::classify;
use crate::scenario::{
    Harvested, Kernel, Mechanism, PassOutput, Passes, ResilienceBatch, Scenario, Trial, UnitSpace,
    Whole,
};

const TOL: f64 = 1e-9;

/// One distributed kernel family: how to name it and build a fresh
/// cluster + program for one trial, under one fabric fault profile.
trait DistSpec: Send + Sync {
    type K: DistKernel + Clone;
    fn kernel(&self) -> Kernel;
    fn name(&self, mode: RecoveryMode) -> &'static str;
    fn faults(&self) -> FaultProfile;
    fn ranks(&self) -> u64;
    fn iters(&self) -> u64;
    /// Access-count spacing of dense crash points per rank (calibrated to
    /// the kernel's measured crash-free per-rank access count).
    fn dense_stride(&self) -> u64;
    /// Residual tolerance the resilience sweep classifies dirty
    /// continuations against.
    fn dirty_tolerance(&self) -> Tolerance;
    fn build(&self, mode: RecoveryMode, failures: &[RankFailure]) -> (Cluster, Self::K);
}

struct StencilSpec {
    faults: FaultProfile,
}

impl DistSpec for StencilSpec {
    type K = DistStencil;
    fn kernel(&self) -> Kernel {
        Kernel::Stencil
    }
    fn name(&self, mode: RecoveryMode) -> &'static str {
        match mode {
            RecoveryMode::AlgorithmDirected => "dist-stencil-local",
            RecoveryMode::GlobalRestart => "dist-stencil-restart",
        }
    }
    fn faults(&self) -> FaultProfile {
        self.faults
    }
    fn ranks(&self) -> u64 {
        StencilConfig::campaign_for(RecoveryMode::AlgorithmDirected, self.faults).ranks as u64
    }
    fn iters(&self) -> u64 {
        StencilConfig::campaign_for(RecoveryMode::AlgorithmDirected, self.faults).iters
    }
    fn dense_stride(&self) -> u64 {
        // ~5.4k crash-free accesses per rank.
        100
    }
    fn dirty_tolerance(&self) -> Tolerance {
        // The explicit diffusion update is contractive, so a dirty block
        // heals toward the reference; 1e-3 on a unit-scale rod accepts a
        // visibly-healed plate without waving through a cold one.
        Tolerance::new(TOL, 1e-3, 1e3)
    }
    fn build(&self, mode: RecoveryMode, failures: &[RankFailure]) -> (Cluster, DistStencil) {
        let cfg = StencilConfig::campaign_for(mode, self.faults);
        let mut cl = Cluster::new_multi(cfg.cluster(), failures);
        let prog = DistStencil::setup(&mut cl, cfg);
        (cl, prog)
    }
}

struct JacobiSpec {
    faults: FaultProfile,
}

impl DistSpec for JacobiSpec {
    type K = DistJacobi;
    fn kernel(&self) -> Kernel {
        Kernel::Jacobi
    }
    fn name(&self, mode: RecoveryMode) -> &'static str {
        match mode {
            RecoveryMode::AlgorithmDirected => "dist-jacobi-local",
            RecoveryMode::GlobalRestart => "dist-jacobi-restart",
        }
    }
    fn faults(&self) -> FaultProfile {
        self.faults
    }
    fn ranks(&self) -> u64 {
        JacobiConfig::campaign_for(RecoveryMode::AlgorithmDirected, self.faults).ranks as u64
    }
    fn iters(&self) -> u64 {
        JacobiConfig::campaign_for(RecoveryMode::AlgorithmDirected, self.faults).iters
    }
    fn dense_stride(&self) -> u64 {
        // ~9.7k crash-free accesses per rank.
        150
    }
    fn dirty_tolerance(&self) -> Tolerance {
        // Jacobi smoothing contracts faster than the 1-D rod (four
        // neighbors average in), so a slightly looser acceptable band
        // still tells healed blocks from cold ones.
        Tolerance::new(TOL, 1e-2, 1e3)
    }
    fn build(&self, mode: RecoveryMode, failures: &[RankFailure]) -> (Cluster, DistJacobi) {
        let cfg = JacobiConfig::campaign_for(mode, self.faults);
        let mut cl = Cluster::new_multi(cfg.cluster(), failures);
        let prog = DistJacobi::setup(&mut cl, cfg);
        (cl, prog)
    }
}

/// Caches the host-side SPD problem: it is a pure function of the fixed
/// config (the fault profile changes ranks, never the matrix), and
/// rebuilding it per trial would dominate dist-CG setup.
struct CgSpec {
    faults: FaultProfile,
    a: adcc_linalg::csr::CsrMatrix,
    b: Vec<f64>,
}

impl CgSpec {
    fn new(faults: FaultProfile) -> Self {
        let (a, b) = CgConfig::campaign(RecoveryMode::AlgorithmDirected).problem();
        CgSpec { faults, a, b }
    }
}

impl DistSpec for CgSpec {
    type K = DistCg;
    fn kernel(&self) -> Kernel {
        Kernel::Cg
    }
    fn name(&self, mode: RecoveryMode) -> &'static str {
        match mode {
            RecoveryMode::AlgorithmDirected => "dist-cg-local",
            RecoveryMode::GlobalRestart => "dist-cg-restart",
        }
    }
    fn faults(&self) -> FaultProfile {
        self.faults
    }
    fn ranks(&self) -> u64 {
        CgConfig::campaign_for(RecoveryMode::AlgorithmDirected, self.faults).ranks as u64
    }
    fn iters(&self) -> u64 {
        CgConfig::campaign_for(RecoveryMode::AlgorithmDirected, self.faults).iters
    }
    fn dense_stride(&self) -> u64 {
        // ~15k crash-free accesses per rank.
        250
    }
    fn dirty_tolerance(&self) -> Tolerance {
        // The Krylov recurrence has no self-correction: a dirty segment
        // either resumes from naturally-consistent residue (exact) or
        // derails, so the acceptable band mostly documents the cliff.
        Tolerance::new(TOL, 1e-4, 1e3)
    }
    fn build(&self, mode: RecoveryMode, failures: &[RankFailure]) -> (Cluster, DistCg) {
        let cfg = CgConfig::campaign_for(mode, self.faults);
        let mut cl = Cluster::new_multi(cfg.cluster(), failures);
        let prog = DistCg::setup_with_problem(&mut cl, cfg, &self.a, &self.b);
        (cl, prog)
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
struct Dist<S: DistSpec> {
    spec: S,
    mode: RecoveryMode,
    /// The crash-free cluster execution, looked up on first use (see
    /// [`cached_reference`]) and then shared by every trial of this
    /// scenario: per-trial classification needs its solution, the batch
    /// path also its per-superstep resume states (to short-circuit resumed
    /// tails).
    reference: OnceLock<&'static ReferenceRun>,
}

/// The process-wide reference cache. A crash-free run is a pure function
/// of the scenario's fixed config — which its name (kernel family and
/// recovery mode) and fault profile pin — and every `run_campaign`
/// rebuilds the registry, so the cluster execution behind it runs once per
/// process rather than once per registry build (as
/// [`super::mc::reference_counts`] does for MC). The map hands out one
/// leaked cell per key; the run itself happens outside the map's lock, so
/// scenarios compute their references concurrently.
fn cached_reference(
    name: &'static str,
    faults: FaultProfile,
    run: impl FnOnce() -> ReferenceRun,
) -> &'static ReferenceRun {
    type Cells = Mutex<HashMap<(&'static str, &'static str), &'static OnceLock<ReferenceRun>>>;
    static CELLS: OnceLock<Cells> = OnceLock::new();
    let cell: &'static OnceLock<ReferenceRun> = CELLS
        .get_or_init(Cells::default)
        .lock()
        .expect("reference cache poisoned")
        .entry((name, faults.name()))
        .or_insert_with(|| Box::leak(Box::default()));
    cell.get_or_init(run)
}

impl<S: DistSpec> Dist<S> {
    fn new(spec: S, mode: RecoveryMode) -> Self {
        Dist {
            spec,
            mode,
            reference: OnceLock::new(),
        }
    }

    fn reference(&self) -> &'static ReferenceRun {
        self.reference.get_or_init(|| {
            cached_reference(self.spec.name(self.mode), self.spec.faults(), || {
                let (mut cl, mut kernel) = self.spec.build(self.mode, &[]);
                reference_run(&mut cl, &mut kernel)
            })
        })
    }

    /// Classify one distributed trial against the cached reference — the
    /// single classification path both [`Scenario::run_trial`] and the
    /// recover pass of [`Scenario::harvest`] go through (the latter once
    /// per replay: every unit a replay answers for gets the same verdict).
    fn classify_dist(&self, unit: u64, t: DistTrial) -> Trial {
        let matches = max_diff(&t.solution, &self.reference().solution) < TOL;
        if t.completed_clean {
            return verified_completion(matches, unit, t.profile);
        }
        Trial {
            unit,
            outcome: classify(t.detected, matches, t.lost_units),
            lost_units: t.lost_units,
            sim_time_ps: t.sim_time_ps,
            telemetry: t.profile,
        }
    }

    /// Does this scenario enumerate node-loss units? Only the chaotic
    /// profile configures the remote checkpoint level they restore from,
    /// and only AlgorithmDirected recovery can use it.
    fn has_node_loss(&self) -> bool {
        self.spec.faults() == FaultProfile::Chaotic
            && matches!(self.mode, RecoveryMode::AlgorithmDirected)
    }

    /// Site-grain block sizes `(singleton, cascade, node_loss)`.
    fn blocks(&self) -> (u64, u64, u64) {
        let ranks = self.spec.ranks();
        (
            ranks * self.spec.iters() * 2,
            2 * ranks,
            if self.has_node_loss() { ranks } else { 0 },
        )
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
        let ranks = self.spec.ranks() as usize;
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
        let ranks = self.spec.ranks();
        let iters = self.spec.iters();
        let (a, b, c) = self.blocks();
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
                CrashTrigger::AtAccessCount((d / ranks + 1) * self.dense_stride()),
            ))
        }
    }

    /// Everything a per-trial cluster arms for `unit`, in firing order.
    fn failure_set(&self, unit: u64) -> Vec<RankFailure> {
        let (first, second) = self.decode(unit).failures();
        std::iter::once(first).chain(second).collect()
    }
}

impl<S: DistSpec> Scenario for Dist<S> {
    fn name(&self) -> &'static str {
        self.spec.name(self.mode)
    }
    fn kernel(&self) -> Kernel {
        self.spec.kernel()
    }
    fn mechanism(&self) -> Mechanism {
        match self.mode {
            RecoveryMode::AlgorithmDirected => Mechanism::Extended,
            RecoveryMode::GlobalRestart => Mechanism::Checkpoint,
        }
    }
    fn platform_name(&self) -> &'static str {
        match self.spec.faults() {
            FaultProfile::Chaotic => "dist-16rank-grid",
            _ => "dist-4rank",
        }
    }
    fn unit_space(&self) -> UnitSpace {
        let (a, b, c) = self.blocks();
        UnitSpace::new(a + b + c, self.spec.dense_stride())
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
        let (mut cl, mut kernel) = self.spec.build(self.mode, &self.failure_set(unit));
        let t = run_dist_trial(&mut cl, &mut kernel, telemetry);
        self.classify_dist(unit, t)
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
        let mut out = PassOutput::default();
        if !(passes.recover || passes.dirty) {
            return Box::new(Whole(out));
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
        let (mut cl, mut kernel) = self.spec.build(self.mode, &[]);
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

        let tolerance = self.spec.dirty_tolerance();
        let mut trials: HashMap<u64, Trial> = HashMap::with_capacity(units.len());
        let mut dirty: HashMap<u64, DirtyTrial> = HashMap::with_capacity(units.len());
        for replay in replays {
            if let Some(t) = replay.trial {
                let t = self.classify_dist(replay.units[0], t);
                trials.extend(replay.units.iter().map(|&unit| (unit, Trial { unit, ..t })));
            }
            if let Some(d) = replay.dirty {
                let diff = max_diff(&d.solution, &self.reference().solution);
                let class = tolerance.classify(false, diff);
                dirty.extend(replay.units.iter().map(|&unit| {
                    let t = DirtyTrial {
                        unit,
                        class,
                        extra_units: 0,
                        sim_time_ps: d.sim_time_ps,
                    };
                    (unit, t)
                }));
            }
        }
        if passes.recover {
            out.trials = units
                .iter()
                .map(|u| trials.remove(u).expect("batch covered every unit"))
                .collect();
        }
        if passes.dirty {
            let trials = units
                .iter()
                .map(|&unit| {
                    dirty.remove(&unit).unwrap_or(DirtyTrial {
                        unit,
                        class: DirtyClass::ConvergedExact,
                        extra_units: 0,
                        sim_time_ps: 0,
                    })
                })
                .collect();
            out.dirty = Some(ResilienceBatch { trials, tolerance });
        }
        Box::new(Whole(out))
    }
}

/// Every distributed scenario under one fabric fault profile, in report
/// order: each kernel family under algorithm-directed local recovery and
/// global checkpoint restart.
pub fn all_with(faults: FaultProfile) -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(Dist::new(
            StencilSpec { faults },
            RecoveryMode::AlgorithmDirected,
        )),
        Box::new(Dist::new(
            StencilSpec { faults },
            RecoveryMode::GlobalRestart,
        )),
        Box::new(Dist::new(
            JacobiSpec { faults },
            RecoveryMode::AlgorithmDirected,
        )),
        Box::new(Dist::new(
            JacobiSpec { faults },
            RecoveryMode::GlobalRestart,
        )),
        Box::new(Dist::new(
            CgSpec::new(faults),
            RecoveryMode::AlgorithmDirected,
        )),
        Box::new(Dist::new(CgSpec::new(faults), RecoveryMode::GlobalRestart)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::Outcome;
    use adcc_dist::trial::run_dist_dirty_trial;

    fn stencil(mode: RecoveryMode) -> Dist<StencilSpec> {
        Dist::new(
            StencilSpec {
                faults: FaultProfile::Off,
            },
            mode,
        )
    }

    #[test]
    fn unit_decode_interleaves_ranks_then_supersteps() {
        let s = stencil(RecoveryMode::AlgorithmDirected);
        let ranks = s.spec.ranks();
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
        let ranks = s.spec.ranks();
        let iters = s.spec.iters();
        let (a, b, _) = s.blocks();
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
        assert_eq!(off.blocks().2, 0);
        let chaotic = Dist::new(
            StencilSpec {
                faults: FaultProfile::Chaotic,
            },
            RecoveryMode::AlgorithmDirected,
        );
        let ranks = chaotic.spec.ranks();
        assert_eq!(ranks, 16, "chaotic tier runs the 4x4 grid");
        assert_eq!(chaotic.blocks().2, ranks);
        assert_eq!(chaotic.platform_name(), "dist-16rank-grid");
        let (a, b, _) = chaotic.blocks();
        let UnitKind::NodeLoss(f) = chaotic.decode(a + b + 3) else {
            panic!("should be node loss");
        };
        assert_eq!(f.rank, 3);
        assert!(f.node_loss);
        // GlobalRestart cannot use the remote level: no node-loss block.
        let restart = Dist::new(
            StencilSpec {
                faults: FaultProfile::Chaotic,
            },
            RecoveryMode::GlobalRestart,
        );
        assert_eq!(restart.blocks().2, 0);
    }

    #[test]
    fn every_site_unit_of_one_superstep_recovers_exactly_under_local() {
        let s = stencil(RecoveryMode::AlgorithmDirected);
        let ranks = s.spec.ranks();
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
            let (a, b, _) = s.blocks();
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
        let s = Dist::new(
            JacobiSpec {
                faults: FaultProfile::Off,
            },
            RecoveryMode::GlobalRestart,
        );
        let ranks = s.spec.ranks();
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
        let s = Dist::new(
            CgSpec::new(FaultProfile::Off),
            RecoveryMode::AlgorithmDirected,
        );
        let t = s.run_trial(s.total_units() + 100 * s.spec.ranks(), false);
        assert_eq!(t.outcome, Outcome::CompletedClean);
    }

    #[test]
    fn node_loss_units_restore_from_the_remote_level_exactly() {
        let s = Dist::new(
            JacobiSpec {
                faults: FaultProfile::Chaotic,
            },
            RecoveryMode::AlgorithmDirected,
        );
        let (a, b, c) = s.blocks();
        assert!(c > 0);
        let t = s.run_trial(a + b + 1, true);
        assert_eq!(t.outcome, Outcome::RecoveredExact);
        let p = t.telemetry.expect("telemetry requested");
        assert!(p.remote_restore_bytes > 0, "remote level was read");
        assert!(p.net_dropped > 0, "chaotic fabric dropped messages");
    }

    #[test]
    fn the_reference_run_executes_once_per_process() {
        let first = Dist::new(
            JacobiSpec {
                faults: FaultProfile::Lossy,
            },
            RecoveryMode::GlobalRestart,
        );
        let rebuilt = Dist::new(
            JacobiSpec {
                faults: FaultProfile::Lossy,
            },
            RecoveryMode::GlobalRestart,
        );
        // A second registry build is handed the first one's run — the same
        // allocation, so no cluster was executed for it...
        assert!(std::ptr::eq(first.reference(), rebuilt.reference()));
        // ...and it is bit for bit what a fresh execution would produce.
        let (mut cl, mut kernel) = rebuilt.spec.build(rebuilt.mode, &[]);
        let fresh = reference_run(&mut cl, &mut kernel);
        assert!(fresh == *rebuilt.reference());
        // The key is (kernel family, recovery mode, fault profile).
        for other in [
            Dist::new(
                JacobiSpec {
                    faults: FaultProfile::Lossy,
                },
                RecoveryMode::AlgorithmDirected,
            ),
            Dist::new(
                JacobiSpec {
                    faults: FaultProfile::Off,
                },
                RecoveryMode::GlobalRestart,
            ),
        ] {
            assert!(!std::ptr::eq(first.reference(), other.reference()));
        }
    }

    /// The dirty pass's oracle: one dedicated cluster with the unit's
    /// whole failure set armed, rebooted dirty at every crash.
    fn dirty_oracle<S: DistSpec>(s: &Dist<S>, unit: u64) -> DirtyTrial {
        let (mut cl, mut kernel) = s.spec.build(s.mode, &s.failure_set(unit));
        let rebooted = run_dist_dirty_trial(&mut cl, &mut kernel);
        DirtyTrial {
            unit,
            class: rebooted.as_ref().map_or(DirtyClass::ConvergedExact, |d| {
                let diff = max_diff(&d.solution, &s.reference().solution);
                s.spec.dirty_tolerance().classify(false, diff)
            }),
            extra_units: 0,
            sim_time_ps: rebooted.map_or(0, |d| d.sim_time_ps),
        }
    }

    /// Every cascade and node-loss unit of one chaotic-tier scenario, plus
    /// the singletons that share a poll with a cascade leader and with a
    /// node loss: one cluster, one forward execution, and a dirty trial
    /// per unit equal to the per-trial oracle's.
    fn dirty_failure_sets_match_the_oracle<S: DistSpec>(spec: S, mode: RecoveryMode) {
        let s = Dist::new(spec, mode);
        let (ranks, iters) = (s.spec.ranks(), s.spec.iters());
        let (a, b, c) = s.blocks();
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
            dirty_failure_sets_match_the_oracle(StencilSpec { faults }, mode);
            dirty_failure_sets_match_the_oracle(JacobiSpec { faults }, mode);
            dirty_failure_sets_match_the_oracle(CgSpec::new(faults), mode);
        }
    }
}
