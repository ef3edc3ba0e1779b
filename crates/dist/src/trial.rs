//! The shared distributed-trial driver: forward execution, rank-granular
//! crash, recovery in either mode, recovery-traffic measurement, and
//! cluster-wide telemetry rollup.

use adcc_sim::crash::{poll_groups, CrashSite, CrashTrigger};
use adcc_sim::image::{DeltaImage, NvmImage};
use adcc_telemetry::{ExecutionProfile, Probe};

use crate::cluster::Cluster;
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
/// (see [`run_superstep`], the only driver of the halves): the kernel no
/// longer owns its poll loops, so the per-trial path, the batch-harvest
/// path, and global-restart re-execution all poll identically by
/// construction.
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

    /// Coordinated rollback of the GlobalRestart mechanism: re-attach the
    /// `failed` rank's checkpoint area, restore every rank, and return
    /// `(detected, restored_iterate)` — the iterate must be globally
    /// agreed (see [`global_restart_recover`], which re-executes from it).
    fn restart_rollback(&mut self, cl: &mut Cluster, failed: usize) -> (bool, u64);

    /// Repair the failure: reboot the rank from its image and bring the
    /// cluster back to the pre-crash frontier under this kernel's
    /// [`RecoveryMode`]. Everything charged here (and every message sent)
    /// is the price of recovery.
    fn recover(&mut self, cl: &mut Cluster, crash: CrashInfo) -> Recovery;

    /// Gather the global solution (uncharged peek; classification only).
    fn solution(&self, cl: &Cluster) -> Vec<f64>;

    /// Every volatile value the remaining supersteps read that is not
    /// re-derived before use (uncharged peek, deterministic order). Two
    /// clusters with bitwise-equal resume states at the same superstep
    /// boundary produce bitwise-equal solutions from there on — the
    /// invariant [`ReferenceRun`] exploits to short-circuit resumed tails
    /// (and `tests/delta_equivalence.rs` pins against the per-trial path).
    fn resume_state(&self, cl: &Cluster) -> Vec<f64>;

    /// EasyCrash-style dirty reboot: bring the crashed rank back from its
    /// raw NVM image with **no** recovery mechanism — no checkpoint
    /// rollback, no detection pass, no neighbor-assisted reconstruction —
    /// install whatever counters/values survived into the volatile working
    /// set, and return the superstep the dirty continuation resumes at
    /// (always the frontier's successor, with a full opening exchange).
    /// Survivor ranks keep their volatile state untouched. Nothing here
    /// may assert on the state it finds: torn, stale, or blank residue is
    /// the input, and the classification ladder is the judge.
    fn dirty_reboot(&mut self, cl: &mut Cluster, crash: &CrashInfo) -> u64;
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
    kernel.compute(cl, iter, exchange);
    if let Some(crash) = poll_phase(cl, sites::PH_MID, iter) {
        return Some(crash);
    }
    kernel.commit(cl, iter);
    if let Some(crash) = poll_phase(cl, sites::PH_END, iter) {
        return Some(crash);
    }
    cl.barrier();
    None
}

/// The resume plan shared by every kernel's AlgorithmDirected arm: a
/// mid-superstep crash re-runs the in-flight superstep without its
/// opening exchange (recovery already reconstructed the failed rank's
/// halos/segments; the survivors' volatile copies are still valid), an
/// end-of-superstep crash resumes at the next superstep with a full
/// exchange. Nothing is lost either way — the restored iterate *is* the
/// frontier.
pub fn algorithm_directed_plan(crash: &CrashInfo) -> Recovery {
    if crash.site.phase == sites::PH_MID {
        Recovery {
            detected: false,
            lost_units: 0,
            resume_iter: crash.iter,
            resume_exchange: false,
            remote_restore_bytes: 0,
        }
    } else {
        Recovery {
            detected: false,
            lost_units: 0,
            resume_iter: crash.iter + 1,
            resume_exchange: true,
            remote_restore_bytes: 0,
        }
    }
}

/// The coordinated-restore pass shared by the grid kernels'
/// [`DistKernel::restart_rollback`]: re-attach the failed rank's
/// checkpoint area, restore every rank under
/// [`adcc_sim::clock::Bucket::Resume`], and return the globally agreed
/// checkpoint iterate — or `None` when any rank lacks a valid level, in
/// which case the caller must drag the **whole cluster** back to a
/// re-derivable iterate 0 (a partial rollback would mix iterates).
/// Panics if the restored iterates disagree: coordinated checkpoints are
/// taken between the same poll boundaries on every rank, so disagreement
/// is a protocol bug, never a recoverable state.
pub fn coordinated_restore(
    cl: &mut Cluster,
    failed: usize,
    ckpts: &mut [adcc_ckpt::mem::MemCheckpoint],
    layouts: &[adcc_ckpt::mem::MemCheckpointLayout],
    regions: &[Vec<(u64, usize)>],
    ck_iters: &[adcc_sim::parray::PArray<u64>],
) -> Option<u64> {
    use adcc_sim::clock::Bucket;
    ckpts[failed] = adcc_ckpt::mem::MemCheckpoint::attach(layouts[failed], false);
    let mut restored: Vec<Option<u64>> = Vec::with_capacity(cl.ranks());
    for r in 0..cl.ranks() {
        let sys = cl.system_mut(r);
        let prev = sys.clock_mut().set_bucket(Bucket::Resume);
        let got = ckpts[r]
            .restore(sys, &regions[r])
            .map(|_seq| ck_iters[r].get(sys, 0));
        sys.clock_mut().set_bucket(prev);
        restored.push(got);
    }
    let iters = restored.iter().copied().collect::<Option<Vec<u64>>>()?;
    assert!(
        iters.iter().all(|&i| i == iters[0]),
        "coordinated checkpoints disagree across ranks: {iters:?}"
    );
    Some(iters[0])
}

/// The GlobalRestart arm shared by every kernel: coordinated rollback
/// (the kernel's [`DistKernel::restart_rollback`] hook), then
/// cluster-wide re-execution — full exchanges included, which is exactly
/// the recovery traffic this mode pays — back to the pre-crash frontier.
///
/// Re-execution polls the same sites the lost forward window did, so a
/// *second* armed failure can land mid-recovery. It is recovered
/// recursively — each armed trigger fires at most once, so the cascade
/// terminates — and its costs fold into the returned plan.
pub fn global_restart_recover<K: DistKernel + ?Sized>(
    kernel: &mut K,
    cl: &mut Cluster,
    crash: &CrashInfo,
) -> Recovery {
    let frontier = crash.frontier();
    let ranks = cl.ranks() as u64;
    let (detected, cc) = kernel.restart_rollback(cl, crash.rank);
    debug_assert!(cc <= frontier);
    let mut rec = Recovery {
        detected,
        lost_units: (frontier - cc) * ranks,
        resume_iter: frontier + 1,
        resume_exchange: true,
        remote_restore_bytes: 0,
    };
    let mut k = cc + 1;
    let mut exchange = true;
    while k <= frontier {
        match run_superstep(kernel, cl, k, exchange) {
            None => {
                k += 1;
                exchange = true;
            }
            Some(again) => {
                let inner = kernel.recover(cl, again);
                rec.detected |= inner.detected;
                rec.lost_units += inner.lost_units;
                rec.remote_restore_bytes += inner.remote_restore_bytes;
                k = inner.resume_iter;
                exchange = inner.resume_exchange;
            }
        }
    }
    rec
}

/// Outcome facts of one distributed trial, classified by the campaign.
/// `Clone` exists for the batch path: crash points harvested at the same
/// poll are one crash state ([`poll_groups`]), so one replayed recovery
/// serves them all.
#[derive(Debug, Clone)]
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

/// Roll every rank's probe window into one cluster-wide profile.
fn roll_up(probes: &[Probe], cl: &Cluster) -> ExecutionProfile {
    let mut total = ExecutionProfile::default();
    for (rank, probe) in probes.iter().enumerate() {
        total.merge(&probe.finish(cl.system(rank)));
    }
    total
}

/// Drive one distributed trial: forward supersteps until completion or the
/// first armed crash, then recovery and resume — looping, because with a
/// failure *set* armed a second crash can land in the resumed tail (or,
/// via [`global_restart_recover`], inside recovery itself). Telemetry
/// probes are passive counter snapshots, so the `telemetry` flag never
/// changes the simulated execution.
pub fn run_dist_trial<K: DistKernel>(
    cl: &mut Cluster,
    kernel: &mut K,
    telemetry: bool,
) -> DistTrial {
    let probes: Option<Vec<Probe>> = telemetry.then(|| {
        (0..cl.ranks())
            .map(|r| Probe::attach(cl.system(r)))
            .collect()
    });
    let iters = kernel.iters();
    let mut crash = None;
    for iter in 1..=iters {
        if let Some(c) = run_superstep(kernel, cl, iter, true) {
            crash = Some(c);
            break;
        }
    }
    let Some(first) = crash else {
        return DistTrial {
            solution: kernel.solution(cl),
            completed_clean: true,
            detected: false,
            lost_units: 0,
            sim_time_ps: 0,
            recovery_net_msgs: 0,
            recovery_net_bytes: 0,
            remote_restore_bytes: 0,
            profile: probes.map(|p| roll_up(&p, cl)),
        };
    };

    // The forward window ends at the first crash instant: counters survive
    // the crash, and the failed rank's system is still the crashed one
    // (its replacement happens inside `recover`).
    let dirty_lines = first.image.dirty_lines_at_crash();
    let forward = probes.map(|p| roll_up(&p, cl).with_dirty_lines(dirty_lines));

    let mut detected = false;
    let mut lost_units = 0u64;
    let mut remote_restore_bytes = 0u64;
    let mut recovery_msgs = 0u64;
    let mut recovery_bytes = 0u64;
    let mut sim_time_ps = 0u64;
    let mut pending = Some(first);
    while let Some(c) = pending.take() {
        let traffic_before = cl.traffic();
        let now_before = cl.max_now_ps();
        let recovery = kernel.recover(cl, c);
        let w = cl.traffic().since(&traffic_before);
        recovery_msgs += w.msgs;
        recovery_bytes += w.bytes;
        // Saturating: a reboot discards the crashed rank's clock, so when
        // that rank had run ahead of every survivor the frontier itself
        // steps back across the recovery window.
        sim_time_ps += cl.max_now_ps().saturating_sub(now_before);
        detected |= recovery.detected;
        lost_units += recovery.lost_units;
        remote_restore_bytes += recovery.remote_restore_bytes;

        for iter in recovery.resume_iter..=iters {
            let exchange = iter != recovery.resume_iter || recovery.resume_exchange;
            if let Some(next) = run_superstep(kernel, cl, iter, exchange) {
                // A cascading failure in the resumed tail: loop back into
                // recovery (each armed trigger fires at most once, so the
                // cascade terminates).
                pending = Some(next);
                break;
            }
        }
    }

    DistTrial {
        solution: kernel.solution(cl),
        completed_clean: false,
        detected,
        lost_units,
        sim_time_ps,
        recovery_net_msgs: recovery_msgs,
        recovery_net_bytes: recovery_bytes,
        remote_restore_bytes,
        profile: forward.map(|p| {
            p.with_recovery_net_bytes(recovery_bytes)
                .with_remote_restore_bytes(remote_restore_bytes)
        }),
    }
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
#[derive(Debug, Clone)]
pub struct ReferenceRun {
    /// Solution of the crash-free run.
    pub solution: Vec<f64>,
    /// Resume-state bits after each superstep (`states[0]` unused).
    states: Vec<Vec<u64>>,
}

fn resume_state_bits<K: DistKernel + ?Sized>(kernel: &K, cl: &Cluster) -> Vec<u64> {
    kernel
        .resume_state(cl)
        .iter()
        .map(|v| v.to_bits())
        .collect()
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
        states.push(resume_state_bits(kernel, cl));
    }
    ReferenceRun {
        solution: kernel.solution(cl),
        states,
    }
}

/// One scheduled crash point of a batched campaign chunk.
#[derive(Debug, Clone, Copy)]
pub struct BatchPoint {
    /// Campaign unit this point reports as.
    pub unit: u64,
    /// Rank whose emulator the trigger is armed on.
    pub rank: usize,
    /// The trigger itself.
    pub trigger: CrashTrigger,
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
    /// Distinct crash states among `images` (points captured by the same
    /// poll are one state, replayed once).
    pub distinct_states: u64,
    /// Resident bytes of the largest image materialized for a replay (one
    /// is live at a time).
    pub materialized_bytes: u64,
    /// Logical bytes of one crash image, what a dense full-pool copy per
    /// state would have cost (per-rank NVM capacity).
    pub pool_bytes: u64,
}

/// Run one batch of crash points through a single forward cluster
/// execution.
///
/// Each rank with scheduled points gets a harvest plan: its polls capture
/// a copy-on-write [`DeltaImage`] instead of crashing, and the forward run
/// continues unperturbed (harvest capture is uncharged, so the cluster
/// state at every later poll is exactly what each per-trial run would have
/// seen — per-trial arms only one rank, whose poll sequence up to its fire
/// is a prefix of this run's). After each poll boundary the driver drains
/// the captured states and replays each through recovery on a forked
/// cluster, with the resumed tail short-circuited against `reference`.
///
/// Returns `(unit, trial)` pairs in harvest order plus the batch's
/// image-memory accounting. Points whose trigger never fires complete
/// clean with the live cluster's outcome.
pub fn run_dist_batch<K: DistKernel + Clone>(
    cl: &mut Cluster,
    kernel: &mut K,
    points: &[BatchPoint],
    telemetry: bool,
    reference: &ReferenceRun,
) -> (Vec<(u64, DistTrial)>, BatchStats) {
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
    let probes: Option<Vec<Probe>> =
        telemetry.then(|| (0..ranks).map(|r| Probe::attach(cl.system(r))).collect());

    let mut results: Vec<(u64, DistTrial)> = Vec::with_capacity(points.len());
    let iters = kernel.iters();
    for iter in 1..=iters {
        kernel.compute(cl, iter, true);
        let fired = poll_phase(cl, sites::PH_MID, iter);
        debug_assert!(fired.is_none(), "harvest plans capture instead of crashing");
        drain_and_replay(
            cl,
            kernel,
            iter,
            sites::PH_MID,
            probes.as_deref(),
            reference,
            &mut results,
            &mut stats,
        );
        kernel.commit(cl, iter);
        let fired = poll_phase(cl, sites::PH_END, iter);
        debug_assert!(fired.is_none(), "harvest plans capture instead of crashing");
        drain_and_replay(
            cl,
            kernel,
            iter,
            sites::PH_END,
            probes.as_deref(),
            reference,
            &mut results,
            &mut stats,
        );
        cl.barrier();
    }

    // Points that never fired complete clean, exactly as their per-trial
    // runs would: the harvest plans never perturbed the forward execution.
    let crashed: std::collections::HashSet<u64> = results.iter().map(|(u, _)| *u).collect();
    let clean: Vec<u64> = points
        .iter()
        .map(|p| p.unit)
        .filter(|u| !crashed.contains(u))
        .collect();
    if !clean.is_empty() {
        let template = DistTrial {
            solution: kernel.solution(cl),
            completed_clean: true,
            detected: false,
            lost_units: 0,
            sim_time_ps: 0,
            recovery_net_msgs: 0,
            recovery_net_bytes: 0,
            remote_restore_bytes: 0,
            profile: probes.as_ref().map(|p| roll_up(p, cl)),
        };
        for unit in clean {
            results.push((unit, template.clone()));
        }
    }
    (results, stats)
}

/// Drain the crash states captured at one poll boundary and run `replay`
/// once per distinct machine state ([`poll_groups`]; each boundary polls a
/// rank once, so a rank's drain is a single group), charging the result to
/// every unit of the group.
fn drain_groups<T: Clone>(
    cl: &mut Cluster,
    site: CrashSite,
    results: &mut Vec<(u64, T)>,
    stats: &mut BatchStats,
    mut replay: impl FnMut(&Cluster, usize, &DeltaImage) -> T,
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
            let replayed = replay(cl, rank, &group[0].image);
            // Most groups are a single unit and a replay carries the global
            // solution: clone for all but the last.
            let (last, rest) = group.split_last().expect("poll groups are non-empty");
            results.extend(rest.iter().map(|h| (h.unit, replayed.clone())));
            results.push((last.unit, replayed));
        }
    }
}

/// Drain one poll boundary and replay each distinct crash state through
/// recovery + resume on a forked cluster.
#[allow(clippy::too_many_arguments)]
fn drain_and_replay<K: DistKernel + Clone>(
    cl: &mut Cluster,
    kernel: &K,
    iter: u64,
    phase: u32,
    probes: Option<&[Probe]>,
    reference: &ReferenceRun,
    results: &mut Vec<(u64, DistTrial)>,
    stats: &mut BatchStats,
) {
    let site = CrashSite::new(phase, iter);
    drain_groups(cl, site, results, stats, |cl, rank, image| {
        replay_recovery(cl, kernel, rank, iter, site, image, probes, reference)
    });
}

/// Reboot one harvested crash state and drive it through recovery and the
/// resumed tail, exactly as [`run_dist_trial`] would from the same
/// instant. The live cluster is forked (systems, emulators-as-`Never`,
/// fabric with its jitter sequence), so the replay sees the survivors'
/// volatile state — which neighbor-assisted reconstruction reads — and
/// the same message timing the per-trial run would. The forward profile is
/// read from the live probes at the drain boundary: nothing is charged
/// between a poll and its drain, so the live counters *are* the
/// crash-instant counters.
#[allow(clippy::too_many_arguments)]
fn replay_recovery<K: DistKernel + Clone>(
    cl: &Cluster,
    kernel: &K,
    rank: usize,
    iter: u64,
    site: CrashSite,
    image: &DeltaImage,
    probes: Option<&[Probe]>,
    reference: &ReferenceRun,
) -> DistTrial {
    let dirty_lines = image.dirty_lines_at_crash();
    let forward = probes.map(|p| roll_up(p, cl).with_dirty_lines(dirty_lines));

    let mut cl = cl.fork();
    let mut kernel = kernel.clone();
    let crash = CrashInfo {
        rank,
        iter,
        site,
        image: image.materialize(),
        node_loss: cl.node_loss(rank),
    };
    let traffic_before = cl.traffic();
    let now_before = cl.max_now_ps();
    let recovery = kernel.recover(&mut cl, crash);
    let rec_traffic = cl.traffic().since(&traffic_before);
    // Saturating, matching `run_dist_trial`: rebooting a rank that ran
    // ahead of every survivor steps the frontier back.
    let sim_time_ps = cl.max_now_ps().saturating_sub(now_before);

    let iters = kernel.iters();
    // Entry-state short-circuit: when recovery lands exactly on a
    // reference boundary (a checkpoint restore, or a bit-exact
    // reconstruction), the whole tail — supersteps included — is already
    // committed to the reference solution. `states[0]` is unused, so a
    // resume at superstep 1 always re-executes.
    let entry = recovery.resume_iter;
    let mut solution = if entry >= 2
        && resume_state_bits(&kernel, &cl) == reference.states[(entry - 1) as usize]
    {
        Some(reference.solution.clone())
    } else {
        None
    };
    if solution.is_none() {
        for it in entry..=iters {
            let exchange = it != entry || recovery.resume_exchange;
            let again = run_superstep(&mut kernel, &mut cl, it, exchange);
            debug_assert!(again.is_none(), "forked emulators have no triggers");
            if resume_state_bits(&kernel, &cl) == reference.states[it as usize] {
                solution = Some(reference.solution.clone());
                break;
            }
        }
    }
    DistTrial {
        solution: solution.unwrap_or_else(|| kernel.solution(&cl)),
        completed_clean: false,
        detected: recovery.detected,
        lost_units: recovery.lost_units,
        sim_time_ps,
        recovery_net_msgs: rec_traffic.msgs,
        recovery_net_bytes: rec_traffic.bytes,
        remote_restore_bytes: recovery.remote_restore_bytes,
        profile: forward.map(|p| {
            p.with_recovery_net_bytes(rec_traffic.bytes)
                .with_remote_restore_bytes(recovery.remote_restore_bytes)
        }),
    }
}

/// Outcome facts of one dirty continuation, classified by the campaign's
/// resilience sweep. Dirty reboots never roll back — the cluster resumes
/// at the frontier's successor — so no completed work is re-executed and
/// the only cost is the simulated time of the reboot plus the tail.
#[derive(Debug, Clone)]
pub struct DirtyReboot {
    /// Gathered global solution after the dirty continuation terminated.
    pub solution: Vec<f64>,
    /// Simulated cluster time from the reboot through the tail's end,
    /// picoseconds.
    pub sim_time_ps: u64,
}

/// Reboot one harvested crash state dirty and run the scenario to its
/// natural termination bound. The live cluster is forked so the survivors'
/// volatile state — which the resumed exchanges read — is exactly what the
/// crash instant left; the failed rank comes back from the raw image via
/// [`DistKernel::dirty_reboot`] with no mechanism consulted.
pub fn replay_dirty<K: DistKernel + Clone>(
    cl: &Cluster,
    kernel: &K,
    rank: usize,
    iter: u64,
    site: CrashSite,
    image: &DeltaImage,
) -> DirtyReboot {
    let mut cl = cl.fork();
    let mut kernel = kernel.clone();
    let crash = CrashInfo {
        rank,
        iter,
        site,
        image: image.materialize(),
        node_loss: cl.node_loss(rank),
    };
    let now_before = cl.max_now_ps();
    let entry = kernel.dirty_reboot(&mut cl, &crash);
    let iters = kernel.iters();
    for it in entry..=iters {
        let again = run_superstep(&mut kernel, &mut cl, it, true);
        debug_assert!(again.is_none(), "forked emulators have no triggers");
    }
    DirtyReboot {
        solution: kernel.solution(&cl),
        // Saturating, matching `replay_recovery`: rebooting a rank that
        // ran ahead of every survivor steps the frontier back.
        sim_time_ps: cl.max_now_ps().saturating_sub(now_before),
    }
}

/// Run one batch of crash points through a single forward execution and a
/// dirty continuation per harvested state — the resilience-sweep analogue
/// of [`run_dist_batch`]. Points whose trigger never fires are absent from
/// the results (the caller fills them as clean completions).
pub fn run_dist_dirty_batch<K: DistKernel + Clone>(
    cl: &mut Cluster,
    kernel: &mut K,
    points: &[BatchPoint],
) -> (Vec<(u64, DirtyReboot)>, BatchStats) {
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
    let mut results: Vec<(u64, DirtyReboot)> = Vec::with_capacity(points.len());
    let iters = kernel.iters();
    for iter in 1..=iters {
        kernel.compute(cl, iter, true);
        let fired = poll_phase(cl, sites::PH_MID, iter);
        debug_assert!(fired.is_none(), "harvest plans capture instead of crashing");
        drain_and_replay_dirty(cl, kernel, iter, sites::PH_MID, &mut results, &mut stats);
        kernel.commit(cl, iter);
        let fired = poll_phase(cl, sites::PH_END, iter);
        debug_assert!(fired.is_none(), "harvest plans capture instead of crashing");
        drain_and_replay_dirty(cl, kernel, iter, sites::PH_END, &mut results, &mut stats);
        cl.barrier();
    }
    (results, stats)
}

/// Drain one poll boundary and run each distinct crash state through a
/// dirty continuation.
fn drain_and_replay_dirty<K: DistKernel + Clone>(
    cl: &mut Cluster,
    kernel: &K,
    iter: u64,
    phase: u32,
    results: &mut Vec<(u64, DirtyReboot)>,
    stats: &mut BatchStats,
) {
    let site = CrashSite::new(phase, iter);
    drain_groups(cl, site, results, stats, |cl, rank, image| {
        replay_dirty(cl, kernel, rank, iter, site, image)
    });
}

/// Drive one failure set through forward execution and dirty continuations
/// — the per-trial analogue of [`run_dist_trial`] for failure sets the
/// batch path cannot harvest (cascades, node loss). Returns `None` when no
/// armed trigger fired (the run completed clean). A second crash landing
/// in a dirty tail reboots dirty again; each armed trigger fires at most
/// once, so the cascade terminates.
pub fn run_dist_dirty_trial<K: DistKernel>(
    cl: &mut Cluster,
    kernel: &mut K,
) -> Option<DirtyReboot> {
    let iters = kernel.iters();
    let mut crash = None;
    for iter in 1..=iters {
        if let Some(c) = run_superstep(kernel, cl, iter, true) {
            crash = Some(c);
            break;
        }
    }
    let first = crash?;
    let now_before = cl.max_now_ps();
    let mut pending = Some(first);
    while let Some(c) = pending.take() {
        let entry = kernel.dirty_reboot(cl, &c);
        for iter in entry..=iters {
            if let Some(next) = run_superstep(kernel, cl, iter, true) {
                pending = Some(next);
                break;
            }
        }
    }
    Some(DirtyReboot {
        solution: kernel.solution(cl),
        sim_time_ps: cl.max_now_ps().saturating_sub(now_before),
    })
}
