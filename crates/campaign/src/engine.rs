//! The campaign engine: schedule crash points per scenario, fan the work
//! out across OS threads, aggregate a deterministic report.
//!
//! Two grains of work. A **task** is one forward execution: a scenario
//! plus a `max_batch`-sized chunk of its crash points, claimed from one
//! cursor in plan order; the worker that claims it runs
//! [`Scenario::harvest`] and owns the batch. A **job** is one distinct crash
//! state of a harvested batch ([`Harvested::run_next`]): the owner takes its
//! own jobs, and a worker the task list has nothing left for takes jobs of
//! batches other workers still own — so a campaign ends when its work does,
//! not when its longest task does. The exception is a scenario that
//! [chains](Scenario::chains): each pass over its batch's states is **one**
//! job — the recover chain, the dirty chain — which nobody can take a share
//! of, so its tasks are claimed first and the rest of the plan fills in
//! around them. Every worker holds at most one batch and runs at most one
//! job at a time, and a batch's forward machine is dropped when its forward
//! run ends, so no more than `threads` forward executions and `threads`
//! recoveries (a chain holding two machines, its pilot and one follower) are
//! alive at once. Job results land
//! in per-batch slots indexed by poll order, batch outputs in slots indexed
//! by task, and both merges read their slots in index order: neither the
//! thread count nor the batch size nor who helped whom can reorder a byte.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::Instant;

use adcc_dist::net::FaultProfile;
use adcc_resilience::NaturalResilience;
use adcc_telemetry::ExecutionProfile;

use crate::memstats::ImageMemory;
use crate::report::{CampaignReport, DiagnosticsBlock, ScenarioReport};
use crate::scenario::{Harvested, PassOutput, Passes, Registry, Scenario, Trial, Whole};
use crate::schedule::Schedule;

/// Campaign inputs. `(seed, budget_states, schedule, dense_units)` fully
/// determine the canonical report; `threads` and `max_batch` only affect
/// wall-clock and memory.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seed driving every stochastic schedule decision.
    pub seed: u64,
    /// Total crash states across the whole campaign, split evenly over
    /// the registry (remainder to the earliest scenarios; below the
    /// registry size, later scenarios get no trials).
    pub budget_states: u64,
    /// Crash-point selection policy.
    pub schedule: Schedule,
    /// Worker OS threads; `0` picks the host parallelism.
    pub threads: usize,
    /// Capture every trial's [`ExecutionProfile`] (flushes, fences, log
    /// traffic, dirty residency) and embed the per-scenario aggregate in
    /// the report's telemetry block. Probes are passive, so outcomes are
    /// identical either way.
    pub telemetry: bool,
    /// Extra access-grain (dense) crash points appended after each
    /// scenario's site-grain unit space, subdividing the crash-point
    /// space below statement granularity (see
    /// [`crate::scenario::UnitSpace::dense_stride`]). `0` keeps the site-grain unit space —
    /// and its report bytes. Recorded in the canonical report when
    /// nonzero, so replays reproduce it.
    pub dense_units: u64,
    /// Crash points harvested per forward execution in the batched
    /// delta-image pass. Larger batches amortize the forward execution
    /// over more states; smaller ones parallelize better.
    pub max_batch: u64,
    /// Which named scenario registry to sweep (`--registry <name>`):
    /// the default compute-kernel registry, the distributed
    /// (`adcc::dist`) one, or the persistent data-structure (`adcc::ds`)
    /// one. Recorded in the canonical report, so replays reproduce it.
    pub registry: Registry,
    /// Run shard `i` of an `n`-way campaign split: each scenario's
    /// scheduled crash points are partitioned positionally (point index
    /// `k` belongs to shard `k % n`), so the `n` partial reports cover the
    /// full schedule exactly once between them. The partial report carries
    /// a `shard` marker; `CampaignReport::merge_shards` folds the full set
    /// back into a report byte-identical to an unsharded run of the same
    /// `(seed, budget, schedule)`. `None` runs everything.
    pub shard: Option<(u64, u64)>,
    /// Fabric fault profile injected under every dist-registry cluster
    /// (`--faults <off|lossy|chaotic>`). The chaotic tier also swaps the
    /// dist presets to 16-rank 2-D grids with a remote checkpoint level
    /// and node-loss units. Ignored by the other registries. Recorded in
    /// the canonical report when not `off`, so replays reproduce it.
    pub faults: FaultProfile,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 42,
            budget_states: 500,
            schedule: Schedule::Stratified,
            threads: 0,
            telemetry: false,
            dense_units: 0,
            max_batch: 128,
            registry: Registry::Kernel,
            shard: None,
            faults: FaultProfile::Off,
        }
    }
}

impl CampaignConfig {
    /// Check the config for incoherent values (a shard index past its
    /// count, a fault profile on a registry without a fabric) before the
    /// engine sees them; errors name the offending flag exactly as the CLI
    /// reports it.
    pub fn validate(&self) -> Result<(), String> {
        if let Some((shard, of)) = self.shard {
            if of == 0 || shard >= of {
                return Err(format!("shard index {shard} out of range for {of} shards"));
            }
        }
        if self.max_batch == 0 {
            return Err("--max-batch must be at least 1".to_string());
        }
        if self.faults != FaultProfile::Off && self.registry != Registry::Dist {
            return Err(format!(
                "--faults {} applies to the dist registry only (pass --registry dist)",
                self.faults.name()
            ));
        }
        Ok(())
    }
}

/// One forward execution's worth of work: a scenario index plus the crash
/// points it evaluates, a `max_batch`-sized chunk of the scenario's plan.
pub(crate) struct Task {
    pub(crate) scenario: usize,
    pub(crate) units: Vec<u64>,
}

/// A driven campaign, before it is aggregated: the registry, what every
/// scenario's tasks produced (merged in task order), and the host facts
/// of the run.
pub(crate) struct Driven {
    pub(crate) scenarios: Vec<Box<dyn Scenario>>,
    /// Per scenario (registry order), every chunk's output appended in
    /// schedule order.
    pub(crate) outputs: Vec<PassOutput>,
    mem: ImageMemory,
    threads: u64,
    start: Instant,
}

/// Plan → chunk → pool → task-ordered merge, the loop every engine entry
/// point shares. `passes` is what each task asks its scenario for, and
/// `harvest` how.
///
/// Trials are pure functions of `(scenario, unit)` — every forward
/// execution and every recovery owns its own `MemorySystem`, so the
/// single-clock simulator is never shared — and [`run_tasks`] returns
/// outputs in task order, so neither the thread count nor the batch size
/// can reorder anything.
pub(crate) fn drive(cfg: &CampaignConfig, passes: Passes, harvest: Harvest) -> Driven {
    let start = Instant::now();
    let scenarios = cfg.registry.scenarios_with(cfg.faults);
    let chunk = cfg.max_batch.max(1) as usize;
    let tasks: Vec<Task> = plan(cfg, &scenarios)
        .iter()
        .enumerate()
        .flat_map(|(scenario, units)| {
            units.chunks(chunk).map(move |units| Task {
                scenario,
                units: units.to_vec(),
            })
        })
        .collect();

    let threads = match cfg.threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    let mem = ImageMemory::for_workers(threads);
    let results = run_tasks(&scenarios, &tasks, threads, passes, harvest, &mem);

    let mut outputs: Vec<PassOutput> = scenarios.iter().map(|_| PassOutput::default()).collect();
    for (task, out) in tasks.iter().zip(results) {
        outputs[task.scenario].absorb(out);
    }
    Driven {
        scenarios,
        outputs,
        mem,
        threads: threads as u64,
        start,
    }
}

/// How a task's units become a batch: [`Scenario::harvest`], or the
/// oracle's [`one_by_one`].
pub(crate) type Harvest = for<'a> fn(
    &'a (dyn Scenario + 'static),
    &'a [u64],
    Passes,
    &ImageMemory,
) -> Box<dyn Harvested + 'a>;

/// Each unit through [`Scenario::run_trial`]: nothing harvested, no job to
/// share, so the batch comes back [`Whole`].
fn one_by_one<'a>(
    s: &'a (dyn Scenario + 'static),
    units: &'a [u64],
    passes: Passes,
    _: &ImageMemory,
) -> Box<dyn Harvested + 'a> {
    Box::new(Whole(PassOutput {
        trials: units
            .iter()
            .map(|&unit| s.run_trial(unit, passes.telemetry))
            .collect(),
        ..PassOutput::default()
    }))
}

/// What the workers of one [`run_tasks`] call share.
struct Pool<'a> {
    /// One slot per worker: the batch it owns between harvest and merge.
    /// Readers run jobs of the batch; the owner takes the write lock to
    /// install it and to take it back, which waits out every job a helper
    /// still has in flight.
    owned: Vec<RwLock<Option<Box<dyn Harvested + 'a>>>>,
    /// The next task nobody has claimed.
    next_task: AtomicUsize,
    /// Batch tasks whose harvest has not ended yet. A helper that found no
    /// job may leave only at zero: until then a batch can still appear.
    unharvested: Mutex<usize>,
    harvested: Condvar,
}

/// Locks here guard single assignments, so a poisoned one still holds a
/// consistent value — and the worker that poisoned it is already taking
/// the whole scope down with its own panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Ends one task's harvest on drop — by return or by unwind, so a forward
/// execution that panics cannot leave the helpers waiting for its batch.
struct HarvestEnds<'p, 'a>(&'p Pool<'a>);

impl Drop for HarvestEnds<'_, '_> {
    fn drop(&mut self) {
        *lock(&self.0.unharvested) -= 1;
        self.0.harvested.notify_all();
    }
}

impl<'a> Pool<'a> {
    /// Run jobs of worker `of`'s batch until none is unclaimed; whether
    /// any ran.
    fn run_jobs(&self, of: usize) -> bool {
        let slot = self.owned[of]
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let mut ran = false;
        if let Some(batch) = slot.as_ref() {
            while batch.run_next() {
                ran = true;
            }
        }
        ran
    }

    /// Harvest one batch task as worker `me`, share it, run what jobs the
    /// helpers leave, merge.
    fn run_batch(
        &self,
        me: usize,
        harvest: impl FnOnce() -> Box<dyn Harvested + 'a>,
    ) -> PassOutput {
        let own = |batch| {
            let mut slot = self.owned[me]
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            std::mem::replace(&mut *slot, batch)
        };
        {
            let _ends = HarvestEnds(self);
            own(Some(harvest()));
        }
        self.run_jobs(me);
        own(None).expect("installed above").finish()
    }

    /// The idle loop: take jobs of whatever batches the other workers own
    /// until every task is harvested and no batch has a job left.
    fn help(&self, me: usize) {
        loop {
            // Read before the scan: a harvest that ends during it shows up
            // as a changed count below, and the scan runs again.
            let left = *lock(&self.unharvested);
            let mut ran = false;
            for of in (0..self.owned.len()).filter(|&of| of != me) {
                ran |= self.run_jobs(of);
            }
            if ran {
                continue;
            }
            if left == 0 {
                return;
            }
            drop(
                self.harvested
                    .wait_while(lock(&self.unharvested), |now| *now == left)
                    .unwrap_or_else(PoisonError::into_inner),
            );
        }
    }
}

/// Run `tasks` on up to `threads` workers and return their outputs in task
/// order. Workers claim tasks in order; one that finds the list empty
/// helps with the jobs of the batches still open (module docs). A panic
/// in any task or job propagates once every worker has stopped.
pub(crate) fn run_tasks(
    scenarios: &[Box<dyn Scenario>],
    tasks: &[Task],
    threads: usize,
    passes: Passes,
    harvest: Harvest,
    mem: &ImageMemory,
) -> Vec<PassOutput> {
    // No batch has more jobs than units: more workers than that would only
    // ever wait.
    let most: usize = tasks.iter().map(|t| t.units.len()).sum();
    let workers = threads.min(most).max(1);
    let pool = Pool {
        owned: (0..workers).map(|_| RwLock::new(None)).collect(),
        next_task: AtomicUsize::new(0),
        unharvested: Mutex::new(tasks.len()),
        harvested: Condvar::new(),
    };
    let outputs: Vec<Mutex<Option<PassOutput>>> = tasks.iter().map(|_| Mutex::new(None)).collect();
    // Plan order, but for the chained tasks, which go first: started last, a
    // job nobody can help with is the tail everyone waits for. Outputs are
    // slotted by task, so the order of claims cannot reach a byte.
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by_key(|&i| !scenarios[tasks[i].scenario].chains());
    let work = |me: usize| {
        // The cursor hands out indices and publishes nothing.
        while let Some(&i) = order.get(pool.next_task.fetch_add(1, Ordering::Relaxed)) {
            let task = &tasks[i];
            let s = scenarios[task.scenario].as_ref();
            let out = pool.run_batch(me, || harvest(s, &task.units, passes, mem));
            *lock(&outputs[i]) = Some(out);
        }
        pool.help(me);
    };
    if workers == 1 {
        work(0);
    } else {
        std::thread::scope(|scope| {
            let work = &work;
            for me in 0..workers {
                scope.spawn(move || work(me));
            }
        });
    }
    outputs
        .into_iter()
        .map(|out| {
            out.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every task ran")
        })
        .collect()
}

/// Aggregate → totals → report, the other half every entry point shares.
/// A scenario's `natural_resilience` block is its dirty pass, when one
/// ran; `diagnostics` is the triage engine's block.
pub(crate) fn assemble(
    cfg: &CampaignConfig,
    driven: Driven,
    diagnostics: Option<DiagnosticsBlock>,
) -> CampaignReport {
    let scenario_reports: Vec<ScenarioReport> = driven
        .scenarios
        .iter()
        .zip(&driven.outputs)
        .map(|(s, out)| {
            let mut report = aggregate(s.as_ref(), cfg.dense_units, &out.trials);
            report.natural_resilience = out
                .dirty
                .as_ref()
                .map(|d| NaturalResilience::from_trials(d.tolerance, &d.trials))
                .into();
            report
        })
        .collect();
    let mut totals = crate::outcome::OutcomeCounts::default();
    let mut telemetry: Option<Box<ExecutionProfile>> = None;
    for r in &scenario_reports {
        totals.merge(&r.outcomes);
        if let Some(t) = r.telemetry.as_ref() {
            telemetry.get_or_insert_with(Box::default).merge(t);
        }
    }
    CampaignReport {
        seed: cfg.seed,
        budget_states: cfg.budget_states,
        schedule: cfg.schedule.name().into(),
        dense_units: cfg.dense_units,
        registry: cfg.registry,
        faults: cfg.faults,
        shard: cfg.shard,
        scenarios: scenario_reports,
        totals,
        telemetry,
        diagnostics,
        image_memory: driven.mem.summary(),
        wall_clock_ms: driven.start.elapsed().as_millis() as u64,
        threads: driven.threads,
    }
}

/// Run a full campaign. Deterministic in `(seed, budget_states,
/// schedule, dense_units)`; the thread count and the batch size only
/// affect wall-clock and memory.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let driven = drive(cfg, Passes::recover(cfg.telemetry), Scenario::harvest);
    assemble(cfg, driven, None)
}

/// The oracle [`run_campaign`] is judged against: the same plan with every
/// unit evaluated alone by [`Scenario::run_trial`] — its own instrumented
/// execution, its own crash, its own full image. Same canonical report,
/// byte for byte (`tests/delta_equivalence.rs`); ~5 ms per kernel state.
#[doc(hidden)]
pub fn run_per_trial(cfg: &CampaignConfig) -> CampaignReport {
    let one = CampaignConfig {
        max_batch: 1,
        ..cfg.clone()
    };
    let driven = drive(&one, Passes::recover(cfg.telemetry), one_by_one);
    assemble(cfg, driven, None)
}

/// Crash points per scenario (registry order), drawn over the site-grain
/// space plus any configured dense extension. A shard keeps the positions
/// `k % n == i` of each scenario's full plan — the partition is over the
/// *planned* sequence, not the unit values, so it is stable under
/// duplicate points and exactly tiles the unsharded plan.
pub(crate) fn plan(cfg: &CampaignConfig, scenarios: &[Box<dyn Scenario>]) -> Vec<Vec<u64>> {
    let n = scenarios.len() as u64;
    let base = cfg.budget_states / n;
    let rem = cfg.budget_states % n;
    scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let budget = base + u64::from((i as u64) < rem);
            let full = cfg.schedule.crash_points(
                cfg.seed,
                s.name(),
                s.total_units() + cfg.dense_units,
                budget,
            );
            match cfg.shard {
                None => full,
                Some((shard, of)) => full
                    .into_iter()
                    .enumerate()
                    .filter(|(k, _)| *k as u64 % of == shard)
                    .map(|(_, u)| u)
                    .collect(),
            }
        })
        .collect()
}

fn aggregate(s: &dyn Scenario, dense_units: u64, trials: &[Trial]) -> ScenarioReport {
    let mut outcomes = crate::outcome::OutcomeCounts::default();
    let mut lost_total = 0u64;
    let mut lost_max = 0u64;
    let mut sim_total = 0u64;
    let mut telemetry: Option<ExecutionProfile> = None;
    for t in trials {
        outcomes.add(t.outcome);
        lost_total += t.lost_units;
        lost_max = lost_max.max(t.lost_units);
        sim_total += t.sim_time_ps;
        if let Some(profile) = &t.telemetry {
            telemetry
                .get_or_insert_with(ExecutionProfile::default)
                .merge(profile);
        }
    }
    let info = s.info();
    ScenarioReport {
        name: info.name.to_string(),
        kernel: info.kernel.name().to_string(),
        mechanism: info.mechanism.name().to_string(),
        platform: info.platform.to_string(),
        total_units: info.unit_space.sites + dense_units,
        trials: trials.len() as u64,
        outcomes,
        lost_units_total: lost_total,
        lost_units_max: lost_max,
        sim_time_ps_total: sim_total,
        telemetry: telemetry.into(),
        natural_resilience: None.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::run_resilience;
    use crate::triage::run_triage;

    /// A small campaign is deterministic across thread counts — the heavy
    /// version (larger budget, byte-compare of files) lives in the root
    /// `tests/campaign_determinism.rs` suite.
    #[test]
    fn tiny_campaign_is_deterministic_across_threads() {
        let mut cfg = CampaignConfig {
            budget_states: 13,
            threads: 1,
            ..CampaignConfig::default()
        };
        let a = run_campaign(&cfg);
        cfg.threads = 4;
        let b = run_campaign(&cfg);
        assert_eq!(a.canonical_string(), b.canonical_string());
        assert_eq!(a.totals.total(), 13);
    }

    /// `threads: 0` takes the host's parallelism, any other count as given.
    #[test]
    fn zero_threads_resolves_to_the_host_parallelism() {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        for (asked, want) in [(0, host), (3, 3)] {
            let cfg = CampaignConfig {
                registry: Registry::Ds,
                budget_states: 4,
                threads: asked,
                ..CampaignConfig::default()
            };
            assert_eq!(run_campaign(&cfg).threads, want as u64);
        }
    }

    #[test]
    fn validate_rejects_incoherent_flag_combinations() {
        let cfg = |shard, max_batch| CampaignConfig {
            registry: Registry::Ds,
            shard,
            max_batch,
            ..CampaignConfig::default()
        };
        assert_eq!(cfg(Some((1, 4)), 128).validate(), Ok(()));
        assert!(cfg(Some((4, 4)), 128).validate().is_err());
        assert!(cfg(None, 0).validate().is_err());
    }

    #[test]
    fn budget_splits_evenly_with_remainder_first() {
        let cfg = CampaignConfig {
            budget_states: 14,
            schedule: Schedule::Stratified,
            ..CampaignConfig::default()
        };
        let scenarios = Registry::Kernel.scenarios();
        let points = plan(&cfg, &scenarios);
        let n = scenarios.len();
        assert_eq!(points.len(), n);
        let total: usize = points.iter().map(Vec::len).sum();
        assert_eq!(total, 14);
        assert!(points[0].len() >= points[n - 1].len());
    }

    /// The seam the three entry points share: a sharded config plans half
    /// a schedule, so the report must say so — a half-campaign labelled as
    /// a full run would merge, compare and replay as something it is not.
    #[test]
    fn every_entry_point_stamps_the_shard_it_planned() {
        let cfg = CampaignConfig {
            budget_states: 26,
            threads: 1,
            shard: Some((0, 2)),
            ..CampaignConfig::default()
        };
        for report in [
            run_campaign(&cfg),
            run_resilience(&cfg),
            run_triage(&cfg).report,
        ] {
            assert_eq!(report.shard, Some((0, 2)));
            assert!(report.canonical_string().contains("\"shard\": \"0/2\""));
            assert_eq!(
                report.totals.total(),
                13,
                "the shard's trials, not the budget's"
            );
        }
    }

    /// The fused resilience sweep asks for recover + dirty in one call,
    /// so a kernel chunk runs forward once — same executions and images as
    /// the plain campaign of that config, not twice as many.
    #[test]
    fn fused_resilience_harvests_each_kernel_chunk_once() {
        let cfg = CampaignConfig {
            budget_states: 39,
            dense_units: 40,
            threads: 1,
            ..CampaignConfig::default()
        };
        let (plain, fused) = (run_campaign(&cfg), run_resilience(&cfg));
        assert!(plain.image_memory.executions > 0);
        assert_eq!(fused.image_memory.executions, plain.image_memory.executions);
        assert_eq!(fused.image_memory.images, plain.image_memory.images);
        assert!(fused
            .scenarios
            .iter()
            .all(|s| s.natural_resilience.is_some()));
    }
}
