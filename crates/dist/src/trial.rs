//! The shared distributed-trial driver: forward execution, rank-granular
//! crash, recovery in either mode, recovery-traffic measurement, and
//! cluster-wide telemetry rollup.
//!
//! Two ways to run a failure set, one answer:
//!
//! * **Per trial — the oracle.** [`run_dist_trial`] (and
//!   [`run_dist_dirty_trial`] for dirty reboots) takes a cluster built with
//!   the whole failure set armed, runs it forward to the first crash, then
//!   recovers and resumes to the last superstep, looping if another armed
//!   trigger fires on the way.
//! * **Batched.** [`run_dist_batch`] runs one *crash-free* cluster forward
//!   once for a whole chunk of units and harvests the **first** failure of
//!   each as a copy-on-write image — singleton, cascade leader and node
//!   loss alike, because an armed trigger that has not fired perturbs
//!   nothing. Each drained state is replayed on forks of the live cluster:
//!   one for recovery, one for the dirty reboot, as [`BatchPasses`] asks.
//!   The rest of the set — the node-loss flag, the second failure — is the
//!   point's [`FollowUp`], armed **on the fork**
//!   ([`Cluster::fork_armed`]) with its occurrence discounted by the polls
//!   the live run already made. From the crash instant on, both paths run
//!   the same post-crash loops; the batch path alone may cut a resumed
//!   tail short against the [`ReferenceRun`], and only once no armed
//!   trigger on the fork is still pending.

use std::cmp::Ordering;
use std::collections::HashMap;

use adcc_sim::crash::{poll_groups, CrashSite, CrashTrigger, Harvest};
use adcc_sim::image::NvmImage;
use adcc_sim::parray::PArray;
use adcc_sim::system::MemorySystem;
use adcc_telemetry::{ExecutionProfile, Probe};

use crate::cluster::{Cluster, RankFailure};
use crate::persist::{self, Mechanism};
use crate::sites;

/// How a rank failure is repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Coordinated cluster-wide rollback to the last global checkpoint
    /// (taken via `adcc_ckpt` every few supersteps) and re-execution by
    /// every rank — the classic checkpoint/restart answer.
    GlobalRestart,
    /// The paper's idea lifted to partitions: each rank persists its
    /// naturally-consistent iterate every superstep; the failed rank
    /// rebuilds from its own NVM residue plus neighbor-assisted
    /// halo/segment reconstruction while survivors keep volatile state.
    AlgorithmDirected,
}

impl RecoveryMode {
    /// Stable identifier used in scenario names and reports.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryMode::GlobalRestart => "restart",
            RecoveryMode::AlgorithmDirected => "local",
        }
    }
}

/// One rank failure: where it happened and the NVM image it left behind.
#[derive(Debug)]
pub struct CrashInfo {
    /// The rank that died.
    pub rank: usize,
    /// Superstep (1-based) in flight when the trigger fired.
    pub iter: u64,
    /// The instrumented site whose poll fired.
    pub site: CrashSite,
    /// The failed rank's surviving NVM bytes.
    pub image: NvmImage,
    /// Whole-node loss: the NVM in `image` went down with the node and
    /// recovery must *not* read it (restore from a remote store instead).
    pub node_loss: bool,
}

impl CrashInfo {
    /// The last globally completed superstep when the crash landed: the
    /// in-flight superstep itself for an end-of-superstep crash (persists
    /// done), the previous one for a mid-superstep crash.
    pub fn frontier(&self) -> u64 {
        if self.site.phase == sites::PH_END {
            self.iter
        } else {
            self.iter - 1
        }
    }
}

/// What one recovery did, as reported by the kernel.
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    /// A mechanism detector flagged inconsistent persistent state (e.g. a
    /// missing checkpoint forced a from-scratch restart).
    pub detected: bool,
    /// Completed rank-supersteps re-executed because of the crash
    /// (cluster-wide: a global rollback of `k` supersteps on `P` ranks
    /// loses `k * P` units).
    pub lost_units: u64,
    /// First superstep the resumed forward loop runs.
    pub resume_iter: u64,
    /// Whether that superstep must re-run its opening exchange (false when
    /// recovery already reconstructed the failed rank's halos/segments and
    /// the survivors' volatile copies are still valid).
    pub resume_exchange: bool,
    /// Payload bytes pulled from a remote checkpoint store (node-loss
    /// recoveries only; zero when the local NVM image sufficed).
    pub remote_restore_bytes: u64,
}

/// One distributed kernel under one persistence/recovery mode. Drivers
/// step it through BSP supersteps and hand rank failures back to it.
///
/// A superstep is split in two halves around the shared poll boundaries
/// (see [`run_superstep`], the only driver of the halves): the kernel
/// owns no poll loop, so the per-trial path, the batch-harvest path, and
/// global-restart re-execution all poll identically by construction.
///
/// Recovery is not the kernel's: [`DistKernel::recover`] and
/// [`DistKernel::dirty_reboot`] are provided by [`crate::persist`], which
/// drives the kernel's [`Mechanism`] through the hooks below
/// ([`DistKernel::mechanism`] to [`DistKernel::reinit`]). A kernel owns
/// its arithmetic, its exchanges and its copy loops.
pub trait DistKernel {
    /// Supersteps in a full run (1-based loop `1..=iters`).
    fn iters(&self) -> u64;

    /// First half of superstep `iter`: the opening halo/segment exchange
    /// (when `exchange`) plus every rank's local compute, in rank order,
    /// up to the `PH_MID` poll boundary. Persistent state must not be
    /// touched here — a `PH_MID` crash leaves all ranks at the same
    /// persisted frontier.
    fn compute(&mut self, cl: &mut Cluster, iter: u64, exchange: bool);

    /// Second half of superstep `iter`: everything between the `PH_MID`
    /// and `PH_END` poll boundaries — collectives on the computed
    /// partials, the iterate commit, and the mechanism's persists — ranks
    /// always in rank order.
    fn commit(&mut self, cl: &mut Cluster, iter: u64);

    /// Gather the global solution (uncharged peek; classification only).
    fn solution(&self, cl: &Cluster) -> Vec<f64>;

    /// Every volatile value the remaining supersteps read that is not
    /// re-derived before use (uncharged peek, deterministic order). Two
    /// clusters with bitwise-equal resume states at the same superstep
    /// boundary produce bitwise-equal solutions from there on — the
    /// invariant [`ReferenceRun`] exploits to short-circuit resumed tails
    /// (and `tests/delta_equivalence.rs` pins against the per-trial path).
    fn resume_state(&self, cl: &Cluster) -> Vec<f64>;

    /// Repair the failure: reboot the rank from its image and bring the
    /// cluster back to the pre-crash frontier under this kernel's
    /// [`RecoveryMode`] ([`crate::persist::recover`]). Everything charged
    /// here (and every message sent) is the price of recovery.
    fn recover(&mut self, cl: &mut Cluster, crash: CrashInfo) -> Recovery {
        persist::recover(self, cl, crash)
    }

    /// EasyCrash-style dirty reboot: bring the crashed rank back from its
    /// raw NVM image with **no** recovery mechanism — no checkpoint
    /// rollback, no detection pass, no neighbor-assisted reconstruction —
    /// install whatever counters/values survived into the volatile working
    /// set, and return the superstep the dirty continuation resumes at
    /// (always the frontier's successor, with a full opening exchange).
    /// Survivor ranks keep their volatile state untouched. Nothing here
    /// may assert on the state it finds: torn, stale, or blank residue is
    /// the input, and the classification ladder is the judge
    /// ([`crate::persist::dirty_reboot`]).
    fn dirty_reboot(&mut self, cl: &mut Cluster, crash: &CrashInfo) -> u64 {
        persist::dirty_reboot(self, cl, crash)
    }

    /// The kernel's mechanism.
    fn mechanism(&mut self) -> &mut Mechanism;

    /// Copy a persisted iterate slot into `rank`'s volatile working set
    /// (charged; the restore-side copy loop).
    fn load_slot(&self, sys: &mut MemorySystem, rank: usize, slot: PArray<f64>);

    /// Install the restored global scalar (kernels that carry one).
    fn set_scalar(&mut self, _value: f64) {}

    /// Rebuild what `rank`'s restored iterate does not hold: re-derivable
    /// boundary cells always, and — when `assist` — the halos/segments of
    /// the in-flight superstep, re-sent by the survivors.
    fn reconstruct(&mut self, cl: &mut Cluster, rank: usize, assist: bool);

    /// Re-set the constants of the program text a dirty reboot wiped
    /// (fixed boundary values — not recovered state).
    fn dirty_constants(&self, _cl: &mut Cluster, _rank: usize) {}

    /// Reset `rank`'s interior to the re-derivable iterate 0 (charged),
    /// for a rollback that found no valid checkpoint. Kernels whose
    /// iterate is data-dependent cannot, and need not: the setup
    /// checkpoint is taken before the first poll.
    fn reinit(&self, _sys: &mut MemorySystem, _rank: usize) {
        panic!("the setup checkpoint always exists");
    }
}

/// Poll one phase boundary on every rank, in rank order, returning the
/// crash at the first fired poll (later ranks are then not polled — the
/// rank died mid-boundary). Polls are free of simulated cost and touch no
/// kernel state, so a boundary where nothing fires is invisible.
pub fn poll_phase(cl: &mut Cluster, phase: u32, iter: u64) -> Option<CrashInfo> {
    let site = CrashSite::new(phase, iter);
    for rank in 0..cl.ranks() {
        if cl.poll(rank, site) {
            return Some(CrashInfo {
                rank,
                iter,
                site,
                image: cl.crash_rank(rank),
                node_loss: cl.node_loss(rank),
            });
        }
    }
    None
}

/// Drive one superstep through the shared poll protocol:
/// [`DistKernel::compute`], the `PH_MID` boundary, [`DistKernel::commit`],
/// the `PH_END` boundary, closing barrier. Every execution path — forward
/// trials, batch harvesting, global-restart re-execution, resumed tails —
/// steps supersteps through this one function, so their poll sequences
/// cannot drift apart.
pub fn run_superstep<K: DistKernel + ?Sized>(
    kernel: &mut K,
    cl: &mut Cluster,
    iter: u64,
    exchange: bool,
) -> Option<CrashInfo> {
    superstep_with(kernel, cl, iter, exchange, |_, _, _| {})
}

/// [`run_superstep`] with `after_poll` called after each poll boundary
/// where nothing fired, before the superstep goes on: the batch driver
/// drains the crash states the boundary harvested there.
fn superstep_with<K: DistKernel + ?Sized>(
    kernel: &mut K,
    cl: &mut Cluster,
    iter: u64,
    exchange: bool,
    mut after_poll: impl FnMut(&mut Cluster, &K, u32),
) -> Option<CrashInfo> {
    kernel.compute(cl, iter, exchange);
    if let Some(crash) = poll_phase(cl, sites::PH_MID, iter) {
        return Some(crash);
    }
    after_poll(cl, kernel, sites::PH_MID);
    kernel.commit(cl, iter);
    if let Some(crash) = poll_phase(cl, sites::PH_END, iter) {
        return Some(crash);
    }
    after_poll(cl, kernel, sites::PH_END);
    cl.barrier();
    None
}

/// Outcome facts of one distributed trial, classified by the campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct DistTrial {
    /// Gathered global solution after completion (or recovery + resume).
    pub solution: Vec<f64>,
    /// The armed trigger never fired; the run completed crash-free.
    pub completed_clean: bool,
    /// A recovery-side detector flagged dirty persistent state.
    pub detected: bool,
    /// Rank-supersteps re-executed by recovery.
    pub lost_units: u64,
    /// Simulated cluster time spent between the crash and the return to
    /// the pre-crash frontier, picoseconds.
    pub sim_time_ps: u64,
    /// Fabric messages sent inside the recovery window.
    pub recovery_net_msgs: u64,
    /// Fabric payload bytes sent inside the recovery window — the
    /// headline cost the two recovery modes are compared on.
    pub recovery_net_bytes: u64,
    /// Payload bytes pulled from a remote checkpoint store to rebuild a
    /// rank whose NVM went down with its node (zero otherwise).
    pub remote_restore_bytes: u64,
    /// Per-rank forward-execution profiles rolled into one cluster total
    /// (present when the trial ran with telemetry), with
    /// `recovery_net_bytes` and the failed rank's dirty residency attached.
    pub profile: Option<ExecutionProfile>,
}

impl DistTrial {
    /// A trial that has recovered nothing (yet): no losses, no recovery
    /// window, no solution gathered.
    fn unrecovered(completed_clean: bool) -> DistTrial {
        DistTrial {
            solution: Vec::new(),
            completed_clean,
            detected: false,
            lost_units: 0,
            sim_time_ps: 0,
            recovery_net_msgs: 0,
            recovery_net_bytes: 0,
            remote_restore_bytes: 0,
            profile: None,
        }
    }

    /// The trial of a run no armed trigger fired in: the live cluster's
    /// solution and, with probes attached, its whole-run profile.
    fn clean_completion<K: DistKernel>(
        cl: &Cluster,
        kernel: &K,
        probes: Option<&[Probe]>,
    ) -> DistTrial {
        DistTrial {
            solution: kernel.solution(cl),
            profile: probes.map(|p| roll_up(p, cl)),
            ..DistTrial::unrecovered(true)
        }
    }
}

/// Roll every rank's probe window into one cluster-wide profile.
fn roll_up(probes: &[Probe], cl: &Cluster) -> ExecutionProfile {
    let mut total = ExecutionProfile::default();
    for (rank, probe) in probes.iter().enumerate() {
        total.merge(&probe.finish(cl.system(rank)));
    }
    total
}

/// Drive one distributed trial: forward supersteps until completion or the
/// first armed crash, then recovery and resume (`recover_and_resume`) —
/// which loops, because with a failure *set* armed a second crash can land
/// in the resumed tail (or, under checkpoint/restart's re-execution, inside
/// recovery itself — see [`crate::persist`]). Telemetry probes are passive counter snapshots, so the
/// `telemetry` flag never changes the simulated execution.
///
/// This is the **oracle**: one cluster per failure set, nothing forked,
/// nothing harvested, the tail always executed. [`run_dist_batch`] must
/// agree with it unit for unit.
pub fn run_dist_trial<K: DistKernel>(
    cl: &mut Cluster,
    kernel: &mut K,
    telemetry: bool,
) -> DistTrial {
    let probes: Option<Vec<Probe>> = telemetry.then(|| attach_probes(cl));
    let Some(first) = forward_to_first_crash(cl, kernel) else {
        return DistTrial::clean_completion(cl, kernel, probes.as_deref());
    };
    // The forward window ends at the first crash instant: counters survive
    // the crash, and the failed rank's system is still the crashed one
    // (its replacement happens inside `recover`).
    let dirty_lines = first.image.dirty_lines_at_crash();
    let forward = probes.map(|p| roll_up(&p, cl).with_dirty_lines(dirty_lines));
    recover_and_resume(cl, kernel, first, forward, None)
}

fn attach_probes(cl: &Cluster) -> Vec<Probe> {
    (0..cl.ranks())
        .map(|r| Probe::attach(cl.system(r)))
        .collect()
}

/// Run supersteps from the start until the first armed trigger fires.
fn forward_to_first_crash<K: DistKernel>(cl: &mut Cluster, kernel: &mut K) -> Option<CrashInfo> {
    (1..=kernel.iters()).find_map(|iter| run_superstep(kernel, cl, iter, true))
}

/// Everything after the first crash of a trial: recover, resume, and —
/// when another armed trigger fires in the resumed tail — recover again,
/// until the run reaches its last superstep. Each armed trigger fires at
/// most once, so the cascade terminates. Recovery windows (simulated time,
/// fabric traffic, losses) accumulate across the cascade.
///
/// `cl`/`kernel` are the per-trial cluster itself (`reference` is `None`:
/// the oracle executes every superstep) or a fork of a live harvesting
/// cluster with the rest of the failure set armed on it. With a
/// `reference`, the tail is cut short at the first superstep boundary
/// whose resume state equals the crash-free run's — but **only once no
/// armed trigger is still pending** ([`Cluster::armed_pending`]): until
/// then a crash is still to come and the tail is not the reference's.
fn recover_and_resume<K: DistKernel>(
    cl: &mut Cluster,
    kernel: &mut K,
    first: CrashInfo,
    forward: Option<ExecutionProfile>,
    reference: Option<&ReferenceRun>,
) -> DistTrial {
    // `states[0]` is unused (supersteps are 1-based), so a resume at
    // superstep 1 always re-executes.
    let on_reference = |kernel: &K, cl: &Cluster, boundary: u64| {
        reference.is_some_and(|r| {
            boundary >= 1
                && !cl.armed_pending()
                && kernel
                    .resume_state(cl)
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(r.states[boundary as usize].iter().copied())
        })
    };
    let iters = kernel.iters();
    let mut t = DistTrial::unrecovered(false);
    let mut matched = false;
    let mut pending = Some(first);
    while let Some(c) = pending.take() {
        let traffic_before = cl.traffic();
        let now_before = cl.max_now_ps();
        let recovery = kernel.recover(cl, c);
        let w = cl.traffic().since(&traffic_before);
        t.recovery_net_msgs += w.msgs;
        t.recovery_net_bytes += w.bytes;
        // Saturating: a reboot discards the crashed rank's clock, so when
        // that rank had run ahead of every survivor the frontier itself
        // steps back across the recovery window.
        t.sim_time_ps += cl.max_now_ps().saturating_sub(now_before);
        t.detected |= recovery.detected;
        t.lost_units += recovery.lost_units;
        t.remote_restore_bytes += recovery.remote_restore_bytes;

        // Entry-state short-circuit: when recovery lands exactly on a
        // reference boundary (a checkpoint restore, or a bit-exact
        // reconstruction), the whole tail — supersteps included — is
        // already committed to the reference solution.
        let entry = recovery.resume_iter;
        matched = on_reference(kernel, cl, entry - 1);
        if matched {
            break;
        }
        for iter in entry..=iters {
            let exchange = iter != entry || recovery.resume_exchange;
            if let Some(next) = run_superstep(kernel, cl, iter, exchange) {
                // A cascading failure in the resumed tail: loop back into
                // recovery.
                pending = Some(next);
                break;
            }
            matched = on_reference(kernel, cl, iter);
            if matched {
                break;
            }
        }
    }
    t.solution = match reference {
        Some(r) if matched => r.solution.clone(),
        _ => kernel.solution(cl),
    };
    t.profile = forward.map(|p| {
        p.with_recovery_net_bytes(t.recovery_net_bytes)
            .with_remote_restore_bytes(t.remote_restore_bytes)
    });
    t
}

/// The crash-free execution of one scenario, computed once and shared by
/// every batched trial of that scenario.
///
/// `states[k]` holds the bits of [`DistKernel::resume_state`] at the
/// boundary after superstep `k` (index 0 is unused; supersteps are
/// 1-based). A resumed trial whose state matches the reference at any
/// boundary is bit-for-bit committed to the reference solution — the tail
/// is a deterministic function of the resume state — so the batch driver
/// stops re-executing there and returns the cached solution.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceRun {
    /// Solution of the crash-free run.
    pub solution: Vec<f64>,
    /// Resume-state bits after each superstep (`states[0]` unused).
    states: Vec<Vec<u64>>,
}

/// Execute the scenario crash-free and record the resume state at every
/// superstep boundary. The cluster and kernel must be freshly built (no
/// triggers armed).
pub fn reference_run<K: DistKernel>(cl: &mut Cluster, kernel: &mut K) -> ReferenceRun {
    let iters = kernel.iters();
    let mut states = Vec::with_capacity(iters as usize + 1);
    states.push(Vec::new());
    for iter in 1..=iters {
        let crash = run_superstep(kernel, cl, iter, true);
        debug_assert!(crash.is_none(), "reference runs are crash-free");
        states.push(
            kernel
                .resume_state(cl)
                .iter()
                .map(|v| v.to_bits())
                .collect(),
        );
    }
    ReferenceRun {
        solution: kernel.solution(cl),
        states,
    }
}

/// What the rest of a unit's failure set does once its first failure has
/// fired. The first failure is what a [`BatchPoint`] harvests; the
/// follow-up rides on the replay's fork. Units captured by one poll share
/// the crash image, but only units with *equal* follow-ups share a replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FollowUp {
    /// The first failure takes the rank's NVM down with it: recovery must
    /// not read the harvested image (see [`CrashInfo::node_loss`]).
    pub node_loss: bool,
    /// A second failure, armed to land while the cluster is still
    /// recovering or resuming from the first. Must be a
    /// [`CrashTrigger::AtSite`] on another rank that the forward run has
    /// not already exhausted when the first failure fires.
    pub second: Option<RankFailure>,
}

/// One scheduled crash point of a batched campaign chunk: the first
/// failure of the unit's failure set (harvested from the live forward
/// execution) plus what follows it.
#[derive(Debug, Clone, Copy)]
pub struct BatchPoint {
    /// Campaign unit this point reports as.
    pub unit: u64,
    /// Rank whose emulator the trigger is armed on.
    pub rank: usize,
    /// The (first) trigger itself.
    pub trigger: CrashTrigger,
    /// The rest of the failure set; `FollowUp::default()` for a plain
    /// fail-stop crash.
    pub follow: FollowUp,
}

/// Which replays [`run_dist_batch`] runs per harvested crash state. Both
/// work on forks of the same live cluster at the same drain, so asking for
/// both costs one forward execution.
#[derive(Debug, Clone, Copy)]
pub struct BatchPasses {
    /// Recover each state through the kernel's mechanism ([`DistTrial`]).
    pub recover: bool,
    /// Attach the forward-execution profile to each recovered trial (only
    /// meaningful with `recover`).
    pub telemetry: bool,
    /// Reboot each state dirty, with no mechanism ([`DirtyReboot`]).
    pub dirty: bool,
}

/// One replayed crash state and the units it is charged to: every unit
/// captured by the same poll under the same [`FollowUp`]. The units that
/// never crashed come back as one last entry whose `trial` completed clean.
#[derive(Debug)]
pub struct BatchReplay {
    /// The scheduled units this replay answers for (harvest order).
    pub units: Vec<u64>,
    /// The follow-up the replay ran under.
    pub follow: FollowUp,
    /// The recover pass; `None` when not requested.
    pub trial: Option<DistTrial>,
    /// The dirty pass; `None` when not requested — or when nothing
    /// crashed, so nothing was rebooted.
    pub dirty: Option<DirtyReboot>,
}

/// Image-memory accounting of one batch execution, reported to the
/// campaign's `ImageMemory` gauge.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchStats {
    /// Resident bytes the armed ranks' copy-on-write bases pin (one
    /// written-prefix NVM snapshot per armed rank).
    pub base_bytes: u64,
    /// Total delta bytes across all harvested crash states.
    pub delta_bytes: u64,
    /// Harvested crash states, one per scheduled point that fired.
    pub images: u64,
    /// Distinct crash states among `images`: points captured by the same
    /// poll are one state. A state is replayed once per distinct
    /// [`FollowUp`] among its units, so replays ≥ `distinct_states`.
    pub distinct_states: u64,
    /// Resident bytes of the largest image materialized for a replay (one
    /// is live at a time).
    pub materialized_bytes: u64,
    /// Logical bytes of one crash image, what a dense full-pool copy per
    /// state would have cost (per-rank NVM capacity).
    pub pool_bytes: u64,
}

/// Outcome facts of one dirty continuation, classified by the campaign's
/// resilience sweep. Dirty reboots never roll back — the cluster resumes
/// at the frontier's successor — so no completed work is re-executed and
/// the only cost is the simulated time of the reboot plus the tail.
#[derive(Debug, Clone, PartialEq)]
pub struct DirtyReboot {
    /// Gathered global solution after the dirty continuation terminated.
    pub solution: Vec<f64>,
    /// Simulated cluster time from the reboot through the tail's end,
    /// picoseconds.
    pub sim_time_ps: u64,
}

/// Run one batch of crash points through a single forward cluster
/// execution.
///
/// Each rank with scheduled points gets a harvest plan: its polls capture
/// a copy-on-write [`adcc_sim::image::DeltaImage`] instead of crashing, and
/// the forward run continues unperturbed (harvest capture is uncharged, so
/// the cluster state at every later poll is exactly what each per-trial run
/// would have seen — a per-trial run's forward execution up to its *first*
/// crash is a prefix of this run's, whatever else its failure set arms: an
/// armed trigger that has not fired perturbs nothing). After each poll
/// boundary the driver drains the captured states and replays each on forks
/// of the live cluster, as `passes` asks: through recovery (the resumed tail
/// short-circuited against `reference`) and/or through a dirty reboot. A
/// point's [`FollowUp`] is armed on its forks, so cascades and node losses
/// are cut from the same execution as singleton crashes.
///
/// Returns one [`BatchReplay`] per replay in harvest order — then one for
/// the points whose trigger never fired, which complete clean with the
/// live cluster's outcome — plus the batch's image-memory accounting.
pub fn run_dist_batch<K: DistKernel + Clone>(
    cl: &mut Cluster,
    kernel: &mut K,
    points: &[BatchPoint],
    passes: BatchPasses,
    reference: &ReferenceRun,
) -> (Vec<BatchReplay>, BatchStats) {
    let ranks = cl.ranks();
    let mut stats = BatchStats {
        pool_bytes: cl.system(0).config().nvm_capacity as u64,
        ..BatchStats::default()
    };
    for rank in 0..ranks {
        let pts: Vec<(CrashTrigger, u64)> = points
            .iter()
            .filter(|p| p.rank == rank)
            .map(|p| (p.trigger, p.unit))
            .collect();
        if !pts.is_empty() {
            stats.base_bytes += cl.arm_harvest(rank, pts).resident_bytes();
        }
    }
    let probes = (passes.recover && passes.telemetry).then(|| attach_probes(cl));
    let mut drain = Drain {
        spare: None,
        kernel: None,
        follows: points
            .iter()
            .filter(|p| p.follow != FollowUp::default())
            .map(|p| (p.unit, p.follow))
            .collect(),
        probes: probes.as_deref(),
        passes,
        reference,
    };

    let mut out: Vec<BatchReplay> = Vec::with_capacity(points.len());
    for iter in 1..=kernel.iters() {
        let fired = superstep_with(kernel, cl, iter, true, |cl, kernel, phase| {
            drain.replay_boundary(
                cl,
                kernel,
                CrashSite::new(phase, iter),
                &mut out,
                &mut stats,
            );
        });
        debug_assert!(fired.is_none(), "harvest plans capture instead of crashing");
    }

    // Points that never fired complete clean, exactly as their per-trial
    // runs would: the harvest plans never perturbed the forward execution.
    let crashed: std::collections::HashSet<u64> =
        out.iter().flat_map(|r| r.units.iter().copied()).collect();
    let clean: Vec<u64> = points
        .iter()
        .map(|p| p.unit)
        .filter(|u| !crashed.contains(u))
        .collect();
    if !clean.is_empty() {
        out.push(BatchReplay {
            units: clean,
            follow: FollowUp::default(),
            trial: passes
                .recover
                .then(|| DistTrial::clean_completion(cl, kernel, probes.as_deref())),
            dirty: None,
        });
    }
    (out, stats)
}

/// What every drain of one batch execution shares.
struct Drain<'a, K> {
    /// The cluster every replay runs on: the first fork of the batch
    /// allocates it, every later one overwrites it in place
    /// ([`Cluster::fork_armed_into`]).
    spare: Option<Cluster>,
    /// The kernel every replay runs, copied from the live one the same
    /// way (`clone_from`).
    kernel: Option<K>,
    /// The non-default follow-ups, by unit.
    follows: HashMap<u64, FollowUp>,
    probes: Option<&'a [Probe]>,
    passes: BatchPasses,
    reference: &'a ReferenceRun,
}

impl<K: DistKernel + Clone> Drain<'_, K> {
    /// Drain the crash states the poll boundary at `site` captured and
    /// replay each distinct machine state ([`poll_groups`]; each boundary
    /// polls a rank once, so a rank's drain is a single group) once per
    /// distinct follow-up among its units.
    fn replay_boundary(
        &mut self,
        cl: &mut Cluster,
        kernel: &K,
        site: CrashSite,
        out: &mut Vec<BatchReplay>,
        stats: &mut BatchStats,
    ) {
        for rank in 0..cl.ranks() {
            let harvests = cl.drain_harvests(rank);
            debug_assert!(harvests.iter().all(|h| h.site == site));
            stats.images += harvests.len() as u64;
            stats.delta_bytes += harvests.iter().map(|h| h.image.delta_bytes()).sum::<u64>();
            for group in poll_groups(&harvests) {
                stats.distinct_states += 1;
                stats.materialized_bytes = stats
                    .materialized_bytes
                    .max(group[0].image.materialized_bytes());
                let group_start = out.len();
                for h in group {
                    let follow = self.follows.get(&h.unit).copied().unwrap_or_default();
                    match out[group_start..].iter_mut().find(|r| r.follow == follow) {
                        Some(served) => served.units.push(h.unit),
                        None => out.push(self.replay(cl, kernel, rank, h, follow)),
                    }
                }
            }
        }
    }

    /// Reboot one harvested crash state on forks of the live cluster and
    /// drive it exactly as the per-trial drivers would from the same
    /// instant: [`recover_and_resume`] as [`run_dist_trial`] does,
    /// [`dirty_continuation`] as [`run_dist_dirty_trial`] does. A fork
    /// copies the systems and the fabric with its jitter sequence, so a
    /// replay sees the survivors' volatile state — which neighbor-assisted
    /// reconstruction reads — and the same message timing the per-trial
    /// run would; the unit's second failure, if any, is armed on it. Every
    /// fork lands in the batch's one spare cluster, so what an earlier
    /// replay left there is overwritten, never inherited. The forward
    /// profile is read from the live probes at the drain boundary: nothing
    /// is charged between a poll and its drain, so the live counters *are*
    /// the crash-instant counters.
    fn replay(
        &mut self,
        cl: &Cluster,
        kernel: &K,
        rank: usize,
        h: &Harvest,
        follow: FollowUp,
    ) -> BatchReplay {
        let armed = follow
            .second
            .map(|second| arm_on_fork(second, h.unit, rank, h.site));
        let crash = CrashInfo {
            rank,
            iter: h.site.index,
            site: h.site,
            image: h.image.materialize(),
            node_loss: follow.node_loss,
        };
        let dirty = self.passes.dirty.then(|| {
            let fork = fork_into(&mut self.spare, cl, armed.as_slice());
            dirty_continuation(fork, clone_into(&mut self.kernel, kernel), &crash)
        });
        let trial = self.passes.recover.then(|| {
            let dirty_lines = crash.image.dirty_lines_at_crash();
            let forward = self
                .probes
                .map(|p| roll_up(p, cl).with_dirty_lines(dirty_lines));
            let fork = fork_into(&mut self.spare, cl, armed.as_slice());
            recover_and_resume(
                fork,
                clone_into(&mut self.kernel, kernel),
                crash,
                forward,
                Some(self.reference),
            )
        });
        BatchReplay {
            units: vec![h.unit],
            follow,
            trial,
            dirty,
        }
    }
}

/// Fork `cl` with `pending` armed into the batch's spare cluster, building
/// the spare on first use.
fn fork_into<'s>(
    spare: &'s mut Option<Cluster>,
    cl: &Cluster,
    pending: &[RankFailure],
) -> &'s mut Cluster {
    match spare {
        Some(into) => cl.fork_armed_into(pending, into),
        None => *spare = Some(cl.fork_armed(pending)),
    }
    spare.as_mut().expect("the spare was just filled")
}

/// Copy `kernel` into the batch's spare kernel, building it on first use.
fn clone_into<'s, K: Clone>(spare: &'s mut Option<K>, kernel: &K) -> &'s mut K {
    match spare {
        Some(into) => into.clone_from(kernel),
        None => *spare = Some(kernel.clone()),
    }
    spare.as_mut().expect("the spare was just filled")
}

/// The second failure of a unit as a fork taken at the first failure's
/// instant must arm it. A per-trial run arms the whole failure set before
/// superstep 1, so by the time the first failure fires the second rank's
/// emulator has already counted the polls the forward run made of its
/// site; a fork's emulator is fresh, so the occurrence is discounted by
/// exactly those polls. Under the [`run_superstep`] protocol a crash-free
/// forward run polls each site once per rank, in superstep-then-phase
/// order, ranks ascending, and the sweep stops at the firing rank — so the
/// second rank has polled its site once if the site lies before the first
/// failure's, or is the same site and the rank sits below the failed one,
/// and never otherwise.
///
/// Panics — naming the unit — when the failure set cannot be served from a
/// harvest of its first failure: a follow-up that is not a site trigger,
/// sits on the failed rank itself, or was exhausted by the forward run (it
/// would have fired *before* the "first" failure, or can never fire).
fn arm_on_fork(
    second: RankFailure,
    unit: u64,
    crash_rank: usize,
    crash_site: CrashSite,
) -> RankFailure {
    let CrashTrigger::AtSite { site, occurrence } = second.trigger else {
        panic!(
            "unit {unit}: a follow-up failure must be a site trigger, got {:?}",
            second.trigger
        );
    };
    assert_ne!(
        second.rank, crash_rank,
        "unit {unit}: the follow-up failure sits on the rank that failed first"
    );
    let order = |s: CrashSite| (s.index, s.phase);
    let seen = match order(site).cmp(&order(crash_site)) {
        Ordering::Less => 1,
        Ordering::Equal => u32::from(second.rank < crash_rank),
        Ordering::Greater => 0,
    };
    assert!(
        occurrence > seen,
        "unit {unit}: follow-up failure on rank {} ({site:?}, occurrence {occurrence}) is \
         exhausted — the forward run polled that site {seen} time(s) on that rank before the \
         first failure fired on rank {crash_rank} at {crash_site:?}",
        second.rank
    );
    RankFailure {
        trigger: CrashTrigger::AtSite {
            site,
            occurrence: occurrence - seen,
        },
        ..second
    }
}

/// Everything after the first crash of a dirty trial: bring the crashed
/// rank back from its raw image via [`DistKernel::dirty_reboot`] — no
/// mechanism consulted — and run the scenario to its natural termination
/// bound. A second armed failure landing in the dirty tail reboots dirty
/// again; each armed trigger fires at most once, so the cascade
/// terminates. `cl`/`kernel` are the per-trial cluster itself or a fork of
/// a live harvesting cluster (survivors' volatile state — which the
/// resumed exchanges read — exactly what the crash instant left).
fn dirty_continuation<K: DistKernel>(
    cl: &mut Cluster,
    kernel: &mut K,
    first: &CrashInfo,
) -> DirtyReboot {
    let now_before = cl.max_now_ps();
    let iters = kernel.iters();
    let mut entry = kernel.dirty_reboot(cl, first);
    while let Some(next) = (entry..=iters).find_map(|iter| run_superstep(kernel, cl, iter, true)) {
        entry = kernel.dirty_reboot(cl, &next);
    }
    DirtyReboot {
        solution: kernel.solution(cl),
        // Saturating, matching `recover_and_resume`: rebooting a rank that
        // ran ahead of every survivor steps the frontier back.
        sim_time_ps: cl.max_now_ps().saturating_sub(now_before),
    }
}

/// Drive one failure set through forward execution and dirty continuations
/// — the per-trial oracle of [`run_dist_batch`]'s dirty pass, as
/// [`run_dist_trial`] is of its recover pass. Returns `None` when no armed
/// trigger fired (the run completed clean).
pub fn run_dist_dirty_trial<K: DistKernel>(
    cl: &mut Cluster,
    kernel: &mut K,
) -> Option<DirtyReboot> {
    let first = forward_to_first_crash(cl, kernel)?;
    Some(dirty_continuation(cl, kernel, &first))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::{DistStencil, Rod, StencilConfig};

    fn at_site(phase: u32, iter: u64, occurrence: u32) -> CrashTrigger {
        CrashTrigger::AtSite {
            site: CrashSite::new(phase, iter),
            occurrence,
        }
    }

    fn build(failures: &[RankFailure]) -> (Cluster, DistStencil) {
        let cfg = StencilConfig {
            shape: Rod { cells: 64 },
            ..StencilConfig::campaign(RecoveryMode::AlgorithmDirected)
        };
        cfg.launch(failures, DistStencil::setup)
    }

    #[test]
    fn a_follow_up_below_the_failed_rank_fires_on_its_first_re_poll() {
        // Rank 3 fails at (MID, 4). The sweep had already polled rank 0
        // there once, so a per-trial "occurrence 2" on rank 0 means the
        // *next* poll of that site — occurrence 1 on a fresh fork.
        let crash_site = CrashSite::new(sites::PH_MID, 4);
        let second = RankFailure::crash(0, at_site(sites::PH_MID, 4, 2));
        let armed = arm_on_fork(second, 9, 3, crash_site);
        assert_eq!(armed, RankFailure::crash(0, at_site(sites::PH_MID, 4, 1)));
        let (live, _) = build(&[]);
        let mut fork = live.fork_armed(&[armed]);
        assert!(fork.poll(0, crash_site), "fires on the first re-poll");

        // A rank above the failed one was never reached by the sweep, and
        // a site still ahead was never polled at all: no discount.
        let above = RankFailure::crash(2, at_site(sites::PH_MID, 4, 1));
        assert_eq!(arm_on_fork(above, 9, 1, crash_site), above);
        let ahead = RankFailure::node_loss(0, at_site(sites::PH_END, 4, 1));
        assert_eq!(arm_on_fork(ahead, 9, 3, crash_site), ahead);
        // A site already behind was polled once on every rank.
        let behind = RankFailure::crash(2, at_site(sites::PH_MID, 3, 2));
        assert_eq!(
            arm_on_fork(behind, 9, 1, crash_site),
            RankFailure::crash(2, at_site(sites::PH_MID, 3, 1))
        );
    }

    #[test]
    #[should_panic(expected = "unit 77: follow-up failure on rank 0")]
    fn an_exhausted_follow_up_panics_naming_the_unit() {
        // Occurrence 1 on a rank the sweep already polled: the per-trial
        // run would have felled rank 0 *before* rank 3 — the failure set
        // is mis-ordered, and a fork armed with it would never fire.
        let second = RankFailure::crash(0, at_site(sites::PH_MID, 4, 1));
        arm_on_fork(second, 77, 3, CrashSite::new(sites::PH_MID, 4));
    }

    #[test]
    #[should_panic(expected = "unit 78: a follow-up failure must be a site trigger")]
    fn a_follow_up_that_is_not_a_site_trigger_panics_naming_the_unit() {
        let second = RankFailure::crash(0, CrashTrigger::AtAccessCount(10));
        arm_on_fork(second, 78, 3, CrashSite::new(sites::PH_MID, 4));
    }

    /// Everything about a cluster a replay can observe or report: per
    /// rank clock, buckets, counters and resume state; the fabric's
    /// traffic; the armed flags.
    fn observable(cl: &Cluster, kernel: &DistStencil) -> impl PartialEq + std::fmt::Debug {
        let ranks: Vec<_> = (0..cl.ranks())
            .map(|r| {
                let s = cl.system(r);
                let counters = (s.now(), s.clock().bucket_totals(), *s.stats());
                (counters, s.access_count(), cl.node_loss(r))
            })
            .collect();
        let state: Vec<u64> = kernel
            .resume_state(cl)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        (ranks, state, cl.traffic(), cl.armed_pending())
    }

    #[test]
    fn a_recycled_spare_replays_exactly_as_a_fresh_fork() {
        let reference = {
            let (mut cl, mut kernel) = build(&[]);
            reference_run(&mut cl, &mut kernel)
        };
        let first = RankFailure::crash(1, at_site(sites::PH_END, 3, 1));
        let (mut live, mut kernel) = build(&[first]);
        let crash = forward_to_first_crash(&mut live, &mut kernel).expect("armed");
        let copy = || CrashInfo {
            image: crash.image.clone(),
            ..crash
        };
        // A spare with a past: it carried another failure set (a node loss
        // still pending on rank 2, a crash on rank 3 that fired), rebooted
        // two ranks, ran the tail — its clocks, fabric sequence and traffic
        // all ahead of the live run — and was left with a message in
        // flight.
        let mut spare = live.fork_armed(&[
            RankFailure::node_loss(2, at_site(sites::PH_MID, kernel.iters() + 1, 1)),
            RankFailure::crash(3, at_site(sites::PH_MID, 5, 1)),
        ]);
        recover_and_resume(&mut spare, &mut kernel.clone(), copy(), None, None);
        assert!(spare.armed_pending() && spare.node_loss(2));
        assert!(spare.max_now_ps() > live.max_now_ps());
        spare.send_with(0, 1, |_, out| out.extend([1.0, 2.0, 3.0]));

        let second = [RankFailure::crash(0, at_site(sites::PH_MID, 5, 1))];
        live.fork_armed_into(&second, &mut spare);
        let mut fresh = live.fork_armed(&second);
        assert_eq!(observable(&spare, &kernel), observable(&fresh, &kernel));
        let replay = |cl: &mut Cluster| {
            let mut kernel = kernel.clone();
            let t = recover_and_resume(cl, &mut kernel, copy(), None, Some(&reference));
            (t, observable(cl, &kernel))
        };
        assert_eq!(replay(&mut spare), replay(&mut fresh));

        // And once more for a dirty reboot on the spare the recovery left.
        live.fork_armed_into(&second, &mut spare);
        let mut fresh = live.fork_armed(&second);
        let dirty = |cl: &mut Cluster| {
            let mut kernel = kernel.clone();
            let d = dirty_continuation(cl, &mut kernel, &crash);
            (d, observable(cl, &kernel))
        };
        assert_eq!(dirty(&mut spare), dirty(&mut fresh));
    }

    #[test]
    fn the_tail_short_circuit_is_refused_while_a_trigger_is_pending() {
        let reference = {
            let (mut cl, mut kernel) = build(&[]);
            reference_run(&mut cl, &mut kernel)
        };
        let first = RankFailure::crash(1, at_site(sites::PH_END, 3, 1));
        let (mut live, mut kernel) = build(&[first]);
        let crash = forward_to_first_crash(&mut live, &mut kernel).expect("armed");
        let resume = |mut cl: Cluster, reference: Option<&ReferenceRun>| {
            let crash = CrashInfo {
                image: crash.image.clone(),
                ..crash
            };
            let t = recover_and_resume(&mut cl, &mut kernel.clone(), crash, None, reference);
            (t, cl.max_now_ps())
        };
        // The oracle executes every superstep; an unarmed fork lands on
        // the reference right after recovery and stops there.
        let (oracle, ran_to_the_end) = resume(live.fork(), None);
        let (cut, stopped_at) = resume(live.fork(), Some(&reference));
        assert_eq!(cut, oracle);
        assert!(stopped_at < ran_to_the_end, "the unarmed tail is cut short");
        // A trigger that is armed but never reached: the same answer, but
        // only by running the whole tail — a crash could still be coming.
        let never = RankFailure::crash(2, at_site(sites::PH_MID, kernel.iters() + 1, 1));
        let armed = live.fork_armed(&[never]);
        assert!(armed.armed_pending());
        let (waited, ran) = resume(armed, Some(&reference));
        assert_eq!(waited, oracle);
        assert_eq!(ran, ran_to_the_end, "every superstep executed");
    }
}
