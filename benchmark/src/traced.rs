//! The traced pass of the campaign workloads: the engine's loop rebuilt
//! from public calls with a span around each, the replica pipelines, and
//! the per-layer metrics derived from both.

use std::time::Instant;

use adcc_campaign::memstats::{ImageMemory, ImageMemorySummary};
use adcc_campaign::outcome::OutcomeCounts;
use adcc_campaign::report::{CampaignReport, ScenarioReport};
use adcc_campaign::scenario::{Registry, Scenario, Trial};
use adcc_telemetry::ExecutionProfile;

use crate::campaigns::{check, engine_campaign, tally, Pass};
use crate::host;
use crate::metrics;
use crate::plan;
use crate::replica::{
    self, CgCkptReplica, CgExtendedReplica, CgPmemReplica, CgProblem, DistJacobiReplica,
    DsQueueUndoReplica, KernelReplica, McSelectiveReplica,
};
use crate::run::{Check, MetricSet, RunOutput};
use crate::stats::median;
use crate::trace::{self, Rollup, RollupKey, Tracer};
use crate::workloads::{CampaignShape, Engine, Workload};

/// One scenario's outcomes over one campaign, summed from direct
/// `Scenario::run_batch` calls.
#[derive(Debug, Clone, Default, PartialEq)]
struct Tally {
    trials: u64,
    outcomes: OutcomeCounts,
    lost_units_total: u64,
    sim_time_ps_total: u64,
}

impl Tally {
    fn add(&mut self, t: &Trial) {
        self.trials += 1;
        self.outcomes.add(t.outcome);
        self.lost_units_total += t.lost_units;
        self.sim_time_ps_total += t.sim_time_ps;
    }

    fn of_report(s: &ScenarioReport) -> Tally {
        Tally {
            trials: s.trials,
            outcomes: s.outcomes,
            lost_units_total: s.lost_units_total,
            sim_time_ps_total: s.sim_time_ps_total,
        }
    }
}

/// One campaign of the engine's loop rebuilt from public calls, on one
/// thread: a registry build, the plan, then `Scenario::run_batch` per
/// chunk — each under a span. Returns the host time and the per-scenario
/// tallies.
fn orchestrated_campaign(
    shape: &CampaignShape,
    seed: u64,
    campaign: u64,
    tr: &mut Tracer,
) -> (f64, Vec<Tally>) {
    let start = Instant::now();
    let span = tr.begin("bench", "campaign", "");
    let cfg = shape.config(seed, campaign, 1);
    let scenarios = tr.leaf(
        "campaign",
        "registry_build",
        shape.registry.name(),
        1,
        || shape.registry.scenarios_with(shape.faults),
    );
    let points = plan::crash_points(&cfg, &scenarios);
    let mem = ImageMemory::default();
    let mut tallies = vec![Tally::default(); scenarios.len()];
    for chunk in plan::chunks(&points, cfg.max_batch) {
        let s = scenarios[chunk.scenario].as_ref();
        let units = &chunk.units;
        let trials: Vec<Trial> = match shape.engine {
            Engine::Plain | Engine::Resilience => tr.leaf(
                "campaign",
                "run_batch",
                s.name(),
                units.len() as u64,
                || run_batch(s, units, &mem),
            ),
            Engine::Triage => tr.leaf(
                "campaign",
                "run_analyzed",
                s.name(),
                units.len() as u64,
                || match s.run_analyzed(units, &mem) {
                    Some(batch) => batch.trials.into_iter().map(|t| t.trial).collect(),
                    None => run_batch(s, units, &mem),
                },
            ),
        };
        if shape.engine == Engine::Resilience {
            tr.leaf(
                "campaign",
                "run_resilience",
                s.name(),
                units.len() as u64,
                || std::hint::black_box(s.run_resilience(units, &mem)),
            );
        }
        for t in &trials {
            tallies[chunk.scenario].add(t);
        }
    }
    tr.end(span, cfg.budget_states);
    (start.elapsed().as_secs_f64(), tallies)
}

/// `Scenario::run_batch` with the engine's per-trial fallback.
fn run_batch(s: &dyn Scenario, units: &[u64], mem: &ImageMemory) -> Vec<Trial> {
    s.run_batch(units, false, mem)
        .unwrap_or_else(|| units.iter().map(|&u| s.run_trial(u, false)).collect())
}

/// What the replica section measured besides its spans.
#[derive(Default)]
struct ReplicaFacts {
    ds_replayed_ops: u64,
    events_recorded: u64,
}

/// One full chunk (`max_batch` units) of scenario `name`, scheduled the
/// way the engine schedules it: enough harvested states for per-state
/// medians whatever the workload's per-campaign budget.
fn replica_chunk(
    shape: &CampaignShape,
    seed: u64,
    scenarios: &[Box<dyn Scenario>],
    name: &str,
) -> Option<(usize, Vec<u64>)> {
    let cfg = shape.config(seed, 0, 1);
    let idx = scenarios.iter().position(|s| s.name() == name)?;
    let s = &scenarios[idx];
    let units = cfg.schedule.crash_points(
        cfg.seed,
        s.name(),
        s.total_units() + cfg.dense_units,
        cfg.max_batch,
    );
    (!units.is_empty()).then_some((idx, units))
}

/// Run one kernel replica over one chunk of its scenario: unarmed forward
/// run, replica pipeline, and the equality check against `run_batch`.
fn kernel_replica<R: KernelReplica>(
    r: &R,
    shape: &CampaignShape,
    seed: u64,
    scenarios: &[Box<dyn Scenario>],
    tr: &mut Tracer,
    checks: &mut Vec<Check>,
) {
    let Some((idx, units)) = replica_chunk(shape, seed, scenarios, R::KEY) else {
        return;
    };
    let s = scenarios[idx].as_ref();
    replica::forward_unarmed(r, tr);
    let trials = replica::run_chunk(r, s, &units, tr);
    let mem = ImageMemory::default();
    let want = tr.leaf(
        "campaign",
        "run_batch_check",
        R::KEY,
        units.len() as u64,
        || run_batch(s, &units, &mem),
    );
    check(
        checks,
        format!(
            "{}: replica pipeline trials equal Scenario::run_batch ({} units)",
            R::KEY,
            units.len()
        ),
        replica::trials_equal(&trials, &want),
    );
}

/// The replica section of the traced pass: the layer split a `run_batch`
/// span cannot give from outside.
fn replicas(
    w: Workload,
    shape: &CampaignShape,
    seed: u64,
    tr: &mut Tracer,
    checks: &mut Vec<Check>,
) -> ReplicaFacts {
    let mut facts = ReplicaFacts::default();
    let scenarios = shape.registry.scenarios_with(shape.faults);
    let section = tr.begin("bench", "replicas", "");
    match w {
        Workload::KernelSweep => {
            let cg = CgExtendedReplica(CgProblem::new());
            kernel_replica(&cg, shape, seed, &scenarios, tr, checks);
            let cg = CgCkptReplica(CgProblem::new());
            kernel_replica(&cg, shape, seed, &scenarios, tr, checks);
            let cg = CgPmemReplica(CgProblem::new());
            kernel_replica(&cg, shape, seed, &scenarios, tr, checks);
            let mc = McSelectiveReplica::new();
            kernel_replica(&mc, shape, seed, &scenarios, tr, checks);
        }
        Workload::ResilienceSweep => {
            let cg = CgExtendedReplica(CgProblem::new());
            if let Some((idx, units)) =
                replica_chunk(shape, seed, &scenarios, CgExtendedReplica::KEY)
            {
                let s = scenarios[idx].as_ref();
                replica::forward_unarmed(&cg, tr);
                let dirty = cg.run_dirty_chunk(s, &units, tr);
                let mem = ImageMemory::default();
                let want = tr.leaf(
                    "campaign",
                    "run_resilience_check",
                    CgExtendedReplica::KEY,
                    units.len() as u64,
                    || s.run_resilience(&units, &mem),
                );
                check(
                    checks,
                    format!(
                        "cg-extended: replica dirty-restart trials equal Scenario::run_resilience ({} units)",
                        units.len()
                    ),
                    want.is_some_and(|b| b.trials == dirty),
                );
            }
        }
        Workload::DistChaos => {
            let jac = DistJacobiReplica::new();
            if let Some((idx, units)) =
                replica_chunk(shape, seed, &scenarios, DistJacobiReplica::KEY)
            {
                let s = scenarios[idx].as_ref();
                let units = jac.harvestable(&units);
                let trials = jac.run_chunk(s, &units, tr);
                let mem = ImageMemory::default();
                let want = tr.leaf(
                    "campaign",
                    "run_batch_check",
                    DistJacobiReplica::KEY,
                    units.len() as u64,
                    || run_batch(s, &units, &mem),
                );
                check(
                    checks,
                    format!(
                        "dist-jacobi-local: replica pipeline trials equal Scenario::run_batch ({} units)",
                        units.len()
                    ),
                    replica::trials_equal(&trials, &want),
                );
            }
        }
        Workload::DsSweep | Workload::DsTriage => {
            let ds = DsQueueUndoReplica::new();
            let record = w == Workload::DsTriage;
            if let Some((idx, units)) =
                replica_chunk(shape, seed, &scenarios, DsQueueUndoReplica::KEY)
            {
                let s = scenarios[idx].as_ref();
                let (trials, fact_counts, f) = ds.run_chunk(s, &units, tr, record);
                facts.ds_replayed_ops = f.replayed_ops;
                facts.events_recorded = f.events;
                let mem = ImageMemory::default();
                let ok = if record {
                    let want = tr.leaf(
                        "campaign",
                        "run_analyzed_check",
                        DsQueueUndoReplica::KEY,
                        units.len() as u64,
                        || s.run_analyzed(&units, &mem),
                    );
                    want.is_some_and(|b| {
                        let want_trials: Vec<Trial> = b.trials.iter().map(|t| t.trial).collect();
                        let want_facts: Vec<usize> =
                            b.trials.iter().map(|t| t.facts.len()).collect();
                        replica::trials_equal(&trials, &want_trials) && fact_counts == want_facts
                    })
                } else {
                    let want = tr.leaf(
                        "campaign",
                        "run_batch_check",
                        DsQueueUndoReplica::KEY,
                        units.len() as u64,
                        || run_batch(s, &units, &mem),
                    );
                    replica::trials_equal(&trials, &want)
                };
                check(
                    checks,
                    format!(
                        "ds-queue-undo: replica pipeline trials equal Scenario::{} ({} units)",
                        if record { "run_analyzed" } else { "run_batch" },
                        units.len()
                    ),
                    ok,
                );
            }
        }
        Workload::PaperForward => unreachable!("paper-forward has no campaign shape"),
    }
    tr.end(section, 1);
    facts
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Median per-call duration of the spans matching `(layer, name)` and, if
/// given, `key`, in nanoseconds.
fn median_ns(
    roll: &std::collections::BTreeMap<RollupKey, Rollup>,
    layer: &str,
    name: &str,
    key: Option<&str>,
) -> Option<f64> {
    let all: Vec<f64> = roll
        .iter()
        .filter(|((l, n, k), _)| *l == layer && *n == name && key.is_none_or(|want| *k == want))
        .flat_map(|(_, r)| r.durations_ns.iter().map(|&d| d as f64))
        .collect();
    (!all.is_empty()).then(|| median(&all))
}

fn total_of(
    roll: &std::collections::BTreeMap<RollupKey, Rollup>,
    layer: &str,
    name: &str,
) -> (u64, u64) {
    roll.iter()
        .filter(|((l, n, _), _)| *l == layer && *n == name)
        .fold((0, 0), |(ns, count), (_, r)| {
            (ns + r.total_ns, count + r.count)
        })
}

fn sum_memory<'a>(reports: impl Iterator<Item = &'a CampaignReport>) -> ImageMemorySummary {
    let mut m = ImageMemorySummary::default();
    for r in reports {
        let i = &r.image_memory;
        m.executions += i.executions;
        m.images += i.images;
        m.base_bytes += i.base_bytes;
        m.delta_bytes += i.delta_bytes;
        m.full_copy_bytes += i.full_copy_bytes;
        m.peak_live_bytes = m.peak_live_bytes.max(i.peak_live_bytes);
    }
    m
}

fn sum_telemetry<'a>(reports: impl Iterator<Item = &'a CampaignReport>) -> ExecutionProfile {
    let mut total = ExecutionProfile::default();
    for t in reports.filter_map(|r| r.telemetry.as_ref()) {
        total.merge(t);
    }
    total
}

/// Median over the campaigns of `a[i] / b[i]`: the cost of `a` relative to
/// `b`. The two sides of every pair ran back to back, so the sandbox's
/// slow drift cancels within a pair and the median drops disturbed pairs.
fn paired_ratio(a: &[f64], b: &[f64]) -> f64 {
    median(&a.iter().zip(b).map(|(x, y)| x / y).collect::<Vec<_>>())
}

/// The traced pass: fixed work, one thread for everything the tracer sees.
///
/// Campaign by campaign, five variants run back to back: the orchestrated
/// loop with the tracer on, the same with it off, the engine at one
/// thread, the engine at the benchmark's thread count, and that engine's
/// companion (telemetry on; for `run_triage`, the plain engine). Every
/// overhead is a median of per-campaign ratios of neighbours in time.
pub fn traced(
    w: Workload,
    shape: CampaignShape,
    seed: u64,
    out_dir: &std::path::Path,
) -> RunOutput {
    let host_block = host::host_block();
    let threads = host::bench_threads();
    let mut checks = Vec::new();
    // `run_triage` has no telemetry switch; its companion is the plain
    // engine over the same plan, which prices the recording.
    let companion_shape = CampaignShape {
        engine: match shape.engine {
            Engine::Triage => Engine::Plain,
            other => other,
        },
        ..shape
    };
    let companion_telemetry = shape.engine != Engine::Triage;

    let mut tr = Tracer::new(true);
    let mut silent = Tracer::new(false);
    let (mut on_s, mut off_s) = (Vec::new(), Vec::new());
    let mut tallies_agree = true;
    let mut one = Pass::default();
    let mut many = Pass::default();
    let mut companion = Pass::default();
    for i in 0..shape.campaigns {
        // Alternate which side of the traced/untraced pair runs first.
        let ((t_on, tallies_on), (t_off, tallies_off)) = if i % 2 == 0 {
            let on = orchestrated_campaign(&shape, seed, i, &mut tr);
            (on, orchestrated_campaign(&shape, seed, i, &mut silent))
        } else {
            let off = orchestrated_campaign(&shape, seed, i, &mut silent);
            (orchestrated_campaign(&shape, seed, i, &mut tr), off)
        };
        on_s.push(t_on);
        off_s.push(t_off);
        let at_one = engine_campaign(&shape, seed, i, 1, false);
        let engine_tallies: Option<Vec<Tally>> = at_one
            .as_ref()
            .map(|r| r.report.scenarios.iter().map(Tally::of_report).collect());
        tallies_agree &= engine_tallies.is_some_and(|t| t == tallies_on && t == tallies_off);
        one.push(at_one);
        many.push(engine_campaign(&shape, seed, i, threads, false));
        companion.push(engine_campaign(
            &companion_shape,
            seed,
            i,
            threads,
            companion_telemetry,
        ));
    }
    let facts = replicas(w, &shape, seed, &mut tr, &mut checks);

    let panicked = one.panicked + many.panicked + companion.panicked;
    check(&mut checks, "no campaign panicked", panicked == 0);
    check(
        &mut checks,
        format!("threads=1 and threads={threads} engine runs give byte-identical documents"),
        one.docs() == many.docs(),
    );
    check(
        &mut checks,
        "silent_corruption_total() == 0",
        one.silent() + many.silent() + companion.silent() == 0,
    );
    check(
        &mut checks,
        "direct Scenario::run_batch outcomes sum to the engine's report, scenario by scenario",
        tallies_agree,
    );
    check(
        &mut checks,
        if companion_telemetry {
            "telemetry is outcome-neutral: totals equal the plain run's"
        } else {
            "recording is outcome-neutral: triage totals equal the plain campaign's"
        },
        companion.reports().map(|r| r.totals).collect::<Vec<_>>()
            == many.reports().map(|r| r.totals).collect::<Vec<_>>(),
    );

    let spans = tr.spans();
    let roll = trace::rollup(spans);
    let named_share = trace::named_layer_share_pct(spans);
    check(
        &mut checks,
        format!("named layer spans cover >= 90% of the traced wall ({named_share:.1}%)"),
        named_share >= 90.0,
    );

    let mut set = MetricSet::new(w, true);
    set.exact("campaign.traced_named_share_pct", named_share);
    // With a panicked campaign the timing lists no longer pair up; the run
    // has failed already, so the ratios are left out.
    if panicked == 0 {
        let pct = |a: &[f64], b: &[f64]| (paired_ratio(a, b) - 1.0) * 100.0;
        let (one_s, many_s, companion_s) = (one.seconds(), many.seconds(), companion.seconds());
        set.exact("campaign.trace_overhead_pct", pct(&on_s, &off_s));
        set.exact("campaign.engine_overhead_pct", pct(&one_s, &off_s));
        set.exact(
            "campaign.parallel_efficiency",
            paired_ratio(&one_s, &many_s) / threads as f64,
        );
        if companion_telemetry {
            set.exact("telemetry.probe_overhead_pct", pct(&companion_s, &many_s));
        } else {
            set.exact("analyze.recording_overhead_pct", pct(&many_s, &companion_s));
        }
    }
    if let Some(ns) = median_ns(&roll, "campaign", "registry_build", None) {
        set.exact("campaign.registry_build_ms", ns / 1e6);
    }
    // Per-scenario host time of one campaign (run_batch + run_resilience).
    for s in one.runs.first().map_or(&[][..], |r| &r.report.scenarios) {
        let ns: u64 = roll
            .iter()
            .filter(|((layer, name, key), _)| {
                *layer == "campaign"
                    && matches!(*name, "run_batch" | "run_analyzed" | "run_resilience")
                    && *key == s.name
            })
            .map(|(_, r)| r.total_ns)
            .sum();
        set.exact(
            &format!("campaign.scenario_ms.{}", s.name),
            ms(ns) / shape.campaigns as f64,
        );
    }

    // Report write beside read, on the first campaign's report.
    if let Some(report) = one.reports().next() {
        let t = Instant::now();
        let text = report.to_string_pretty();
        set.exact(
            "campaign.report_serialize_ms",
            t.elapsed().as_secs_f64() * 1e3,
        );
        let t = Instant::now();
        let parsed = CampaignReport::parse(&text);
        set.exact("campaign.report_parse_ms", t.elapsed().as_secs_f64() * 1e3);
        set.exact("campaign.report_bytes", text.len() as f64);
        check(
            &mut checks,
            "the report parses back to the same canonical form",
            parsed.is_ok_and(|p| p.canonical_string() == report.canonical_string()),
        );
    }

    // Exact image accounting of the one-thread engine run.
    let mem = sum_memory(one.reports());
    let states = one.states();
    set.exact("campaign.forward_executions", mem.executions as f64);
    set.exact("campaign.images_harvested", mem.images as f64);
    set.exact(
        "campaign.image_bytes_per_state",
        mem.bytes_per_crash_state() as f64,
    );
    set.exact("campaign.peak_live_bytes", mem.peak_live_bytes as f64);
    set.exact(
        "sim.delta_bytes_per_state",
        (mem.delta_bytes.checked_div(mem.images).unwrap_or(0)) as f64,
    );

    // The exact work counters of the telemetry-on companion.
    if companion_telemetry {
        let probed = &companion;
        let t = sum_telemetry(probed.reports());
        set.exact("sim.accesses", t.accesses as f64);
        set.exact("sim.nvm_line_writes", t.nvm_line_writes as f64);
        set.exact("sim.flushes", t.flush_total() as f64);
        set.exact("sim.sfences", t.sfences as f64);
        set.exact("pmem.log_bytes", t.log_bytes as f64);
        set.exact("pmem.log_appends", t.log_appends as f64);
        if shape.registry == Registry::Ds {
            set.exact("ds.ops_replayed", t.ds_ops_replayed as f64);
        }
        if shape.registry == Registry::Dist {
            set.exact("dist.net_msgs", t.net_msgs as f64);
            set.exact("dist.net_bytes", t.net_bytes as f64);
            set.exact("dist.net_retries", t.net_retries as f64);
            set.exact("dist.net_dropped", t.net_dropped as f64);
            set.exact("dist.remote_restore_bytes", t.remote_restore_bytes as f64);
            for (suffix, metric) in [
                ("-local", "dist.recovery_net_bytes_per_trial.local"),
                ("-restart", "dist.recovery_net_bytes_per_trial.restart"),
            ] {
                let (bytes, crashing) = probed
                    .scenarios()
                    .filter(|s| s.name.ends_with(suffix))
                    .fold((0u64, 0u64), |(b, c), s| {
                        (
                            b + s.telemetry.map_or(0, |t| t.recovery_net_bytes),
                            c + s.trials - s.outcomes.completed_clean,
                        )
                    });
                set.exact(metric, bytes as f64 / crashing.max(1) as f64);
            }
        }
    }

    // Layer split from the replica spans.
    if let Some(ns) = median_ns(&roll, "sim", "materialize", None) {
        set.exact("sim.materialize_us", ns / 1e3);
        set.exact(
            "sim.materialize_bytes",
            total_of(&roll, "sim", "materialize").1 as f64,
        );
    }
    if let Some(ns) = median_ns(&roll, "sim", "from_image", None) {
        set.exact("sim.from_image_us", ns / 1e3);
    }
    let (armed_ns, harvested) = roll
        .iter()
        .filter(|((l, n, _), _)| *l == "sim" && *n == "forward_harvest")
        .fold((0u64, 0u64), |(ns, c), (_, r)| {
            (ns + r.self_ns, c + r.count)
        });
    let unarmed_ns = total_of(&roll, "sim", "forward_unarmed").0;
    if unarmed_ns > 0 && harvested > 0 {
        set.exact(
            "sim.harvest_fork_us",
            us(armed_ns.saturating_sub(unarmed_ns)) / harvested as f64,
        );
    }
    for key in metrics::KERNEL_REPLICAS {
        if let Some(ns) = median_ns(&roll, "core", "recover_resume", Some(key)) {
            set.exact(&format!("core.recover_resume_ms.{key}"), ns / 1e6);
        }
    }
    if let Some(ns) = median_ns(&roll, "core", "detect", Some("cg-extended")) {
        set.exact("core.detect_ms.cg-extended", ns / 1e6);
    }
    if let Some(ns) = median_ns(&roll, "core", "dirty_restart", Some("cg-extended")) {
        set.exact("core.dirty_restart_ms.cg-extended", ns / 1e6);
    }
    if let Some(ns) = median_ns(&roll, "pmem", "undo_recover", None) {
        set.exact("pmem.undo_recover_us", ns / 1e3);
    }
    match shape.registry {
        Registry::Dist => {
            if let Some(ns) = median_ns(&roll, "dist", "reference_run", None) {
                set.exact("dist.reference_run_ms", ns / 1e6);
            }
            if let Some(ns) = median_ns(&roll, "dist", "fork", None) {
                set.exact("dist.fork_us", ns / 1e3);
            }
            let (ns, units) = total_of(&roll, "campaign", "run_batch");
            set.exact("dist.batch_us_per_state", us(ns) / units.max(1) as f64);
        }
        Registry::Ds => {
            let (ns, units) = match shape.engine {
                Engine::Triage => total_of(&roll, "campaign", "run_analyzed"),
                _ => total_of(&roll, "campaign", "run_batch"),
            };
            set.exact("ds.batch_us_per_state", us(ns) / units.max(1) as f64);
            let (ns, _) = total_of(&roll, "ds", "recover_verify_resume");
            set.exact(
                "ds.replay_us_per_op",
                us(ns) / facts.ds_replayed_ops.max(1) as f64,
            );
            if shape.engine == Engine::Triage {
                set.exact("analyze.events_recorded", facts.events_recorded as f64);
                let (ns, events) = total_of(&roll, "analyze", "sanitize");
                set.exact(
                    "analyze.sanitize_us_per_kevent",
                    us(ns) / (events.max(1) as f64 / 1e3),
                );
            }
        }
        Registry::Kernel => {}
    }
    if shape.engine == Engine::Resilience {
        let (mut ok, mut trials, mut extra) = (0u64, 0u64, 0u64);
        for r in one
            .scenarios()
            .filter_map(|s| s.natural_resilience.as_ref())
        {
            ok += r.classes.converged_ok();
            trials += r.trials();
            extra += r.extra_units_total;
        }
        set.exact(
            "resilience.converged_ok_ppm",
            (ok * 1_000_000).checked_div(trials).unwrap_or(0) as f64,
        );
        set.exact("resilience.extra_units_total", extra as f64);
        set.exact(
            "resilience.images_per_state",
            mem.images as f64 / states.max(1) as f64,
        );
    }

    let wrote = trace::write(out_dir, w.name(), spans);
    check(
        &mut checks,
        format!("trace written under {}", out_dir.display()),
        wrote.is_ok(),
    );

    let (attempted, failed) = tally(
        &checks,
        one.states() + many.states() + companion.states(),
        one.silent() + many.silent() + companion.silent(),
        panicked,
    );
    RunOutput {
        workload: w,
        seed,
        traced: true,
        metrics: set.finish(),
        checks,
        attempted,
        failed,
        host: host_block,
        calibration: None,
    }
}
