//! The five campaign workloads: engine passes and the timed repeats
//! (tracing off). The traced pass is in `traced.rs`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use adcc_campaign::engine::run_campaign;
use adcc_campaign::report::{CampaignReport, ScenarioReport};
use adcc_campaign::{run_resilience, run_triage};

use crate::calib::Calibrator;
use crate::host;
use crate::plan;
use crate::run::{Calibration, Check, MetricSet, RunOutput};
use crate::stats::{steady_rate, Summary};
use crate::workloads::{CampaignShape, Engine, Workload};

/// One campaign of a pass.
pub struct CampaignRun {
    pub host_s: f64,
    /// The canonical report (the triage document for `run_triage`):
    /// byte-identical across reruns and thread counts.
    doc: String,
    pub report: CampaignReport,
}

impl CampaignRun {
    fn states(&self) -> u64 {
        self.report.totals.total()
    }

    fn dirty_restarts(&self) -> u64 {
        self.report
            .scenarios
            .iter()
            .filter_map(|s| s.natural_resilience.as_ref())
            .map(|r| r.trials())
            .sum()
    }
}

/// What one back-to-back pass over the shape's campaigns produced.
#[derive(Default)]
pub struct Pass {
    pub runs: Vec<CampaignRun>,
    pub panicked: u64,
}

impl Pass {
    pub fn docs(&self) -> Vec<&str> {
        self.runs.iter().map(|r| r.doc.as_str()).collect()
    }

    pub fn reports(&self) -> impl Iterator<Item = &CampaignReport> {
        self.runs.iter().map(|r| &r.report)
    }

    pub fn states(&self) -> u64 {
        self.runs.iter().map(CampaignRun::states).sum()
    }

    pub fn silent(&self) -> u64 {
        self.reports()
            .map(CampaignReport::silent_corruption_total)
            .sum()
    }

    pub fn scenarios(&self) -> impl Iterator<Item = &ScenarioReport> {
        self.reports().flat_map(|r| &r.scenarios)
    }

    pub fn push(&mut self, run: Option<CampaignRun>) {
        match run {
            Some(run) => self.runs.push(run),
            None => self.panicked += 1,
        }
    }

    /// Host seconds per campaign, in campaign order.
    pub fn seconds(&self) -> Vec<f64> {
        self.runs.iter().map(|r| r.host_s).collect()
    }

    /// `lost_units_total` over crashing trials, from the canonical reports.
    fn recompute_units_per_crash(&self) -> f64 {
        let lost: u64 = self.scenarios().map(|s| s.lost_units_total).sum();
        let crashing: u64 = self
            .scenarios()
            .map(|s| s.trials - s.outcomes.completed_clean)
            .sum();
        lost as f64 / crashing.max(1) as f64
    }
}

/// One campaign through the public engine function. Only the engine call
/// is timed; building the comparison document is not. `None` when the
/// campaign panicked: that costs the campaign, not the run.
pub fn engine_campaign(
    shape: &CampaignShape,
    seed: u64,
    campaign: u64,
    threads: usize,
    telemetry: bool,
) -> Option<CampaignRun> {
    let mut cfg = shape.config(seed, campaign, threads);
    cfg.telemetry = telemetry;
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| match shape.engine {
        Engine::Plain => (run_campaign(&cfg), None),
        Engine::Resilience => (run_resilience(&cfg), None),
        Engine::Triage => {
            let t = run_triage(&cfg);
            (t.report.clone(), Some(t))
        }
    }));
    let host_s = start.elapsed().as_secs_f64();
    let (report, triage) = result.ok()?;
    let doc = triage.map_or_else(|| report.canonical_string(), |t| t.to_string_pretty());
    Some(CampaignRun {
        host_s,
        doc,
        report,
    })
}

/// The shape's campaigns one after another.
fn engine_pass(shape: &CampaignShape, seed: u64, threads: usize, telemetry: bool) -> Pass {
    let mut pass = Pass::default();
    for i in 0..shape.campaigns {
        pass.push(engine_campaign(shape, seed, i, threads, telemetry));
    }
    pass
}

/// Crash states the shape's plan schedules, from the reconstruction.
fn planned_states(shape: &CampaignShape, seed: u64) -> u64 {
    let scenarios = shape.registry.scenarios_with(shape.faults);
    (0..shape.campaigns)
        .map(|i| {
            plan::crash_points(&shape.config(seed, i, 1), &scenarios)
                .iter()
                .map(|p| p.len() as u64)
                .sum::<u64>()
        })
        .sum()
}

pub fn check(checks: &mut Vec<Check>, name: impl Into<String>, ok: bool) {
    checks.push(Check {
        name: name.into(),
        ok,
    });
}

/// `(attempted, failed)` of a run: operations (crash states or forward
/// executions) plus output checks made, against silent corruptions,
/// panicked campaigns and failed checks.
pub fn tally(checks: &[Check], states: u64, silent: u64, panicked: u64) -> (u64, u64) {
    let failed_checks = checks.iter().filter(|c| !c.ok).count() as u64;
    (
        states + checks.len() as u64 + panicked,
        silent + panicked + failed_checks,
    )
}

/// Timed repeats of fixed work for `seconds`, tracing off.
pub fn timed(
    w: Workload,
    shape: CampaignShape,
    seed: u64,
    seconds: f64,
    setups: usize,
) -> RunOutput {
    let host_block = host::host_block();
    let threads = host::bench_threads();
    let mut checks = Vec::new();
    // One reference slice before every timed interval (see `calib.rs`).
    let mut calib = Calibrator::new(threads);

    // A set-up builds the inputs (registry, plan) and runs the warm-up at
    // one thread and at the benchmark's thread count. It is taken several
    // times before the first repeat and again before every later one; the
    // repeats alone count against `seconds`. As many repeats as fit, at
    // least one.
    let warm = shape.warmup();
    let mut setup_s = Vec::new();
    let mut planned = 0;
    let mut warm_equal = true;
    let mut passes: Vec<Pass> = Vec::new();
    let mut timed_s = 0.0;
    loop {
        for _ in 0..crate::setups_due(&setup_s, setups) {
            calib.slice();
            let t = Instant::now();
            planned = planned_states(&shape, seed);
            let one = engine_pass(&warm, seed, 1, false);
            let many = engine_pass(&warm, seed, threads, false);
            warm_equal &= one.docs() == many.docs() && one.panicked + many.panicked == 0;
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let begin = Instant::now();
        let mut pass = Pass::default();
        for i in 0..shape.campaigns {
            calib.slice();
            pass.push(engine_campaign(&shape, seed, i, threads, false));
        }
        passes.push(pass);
        timed_s += begin.elapsed().as_secs_f64();
        if timed_s + timed_s / passes.len() as f64 / 2.0 >= seconds {
            break;
        }
    }
    check(
        &mut checks,
        format!("warm-up campaign: threads=1 and threads={threads} give byte-identical documents"),
        warm_equal,
    );

    let first = &passes[0];
    check(
        &mut checks,
        format!("all {} repeats give byte-identical documents", passes.len()),
        passes.iter().all(|p| p.docs() == first.docs()),
    );
    check(
        &mut checks,
        format!("every repeat classified the {planned} planned crash states"),
        passes.iter().all(|p| p.states() == planned),
    );
    check(
        &mut checks,
        "silent_corruption_total() == 0",
        passes.iter().all(|p| p.silent() == 0),
    );
    let states: u64 = passes.iter().map(Pass::states).sum();
    let silent: u64 = passes.iter().map(Pass::silent).sum();
    let panicked: u64 = passes.iter().map(|p| p.panicked).sum();
    let (attempted, failed) = tally(&checks, states, silent, panicked);

    let slowdown = calib.slowdown();
    let mut set = MetricSet::new(w, false);
    set.set("setup_s", Summary::of(&setup_s).scaled(1.0 / slowdown));
    // Throughput: each campaign timed at its median over the repeats (a
    // repeat that lost a campaign to a panic has no complete timing).
    let complete: Vec<&Pass> = passes.iter().filter(|p| p.panicked == 0).collect();
    let seconds: Vec<Vec<f64>> = complete.iter().map(|p| p.seconds()).collect();
    let mut throughput = |name: &str, count: fn(&CampaignRun) -> u64| {
        let work = |p: &Pass| p.runs.iter().map(count).sum::<u64>() as f64;
        let per_repeat: Vec<f64> = complete
            .iter()
            .map(|p| work(p) / p.seconds().iter().sum::<f64>())
            .collect();
        if let Some(first) = complete.first() {
            set.set(
                name,
                Summary::around(steady_rate(work(first), &seconds), &per_repeat).scaled(slowdown),
            );
        }
    };
    throughput("states_per_s", CampaignRun::states);
    if w == Workload::ResilienceSweep {
        throughput("dirty_restarts_per_s", CampaignRun::dirty_restarts);
    }
    set.exact(
        "recompute_units_per_crash",
        first.recompute_units_per_crash(),
    );
    set.exact(
        "passed_share_pct",
        100.0 * (1.0 - failed as f64 / attempted as f64),
    );
    set.exact("peak_heap_mb", crate::heap::peak_heap_mb());
    RunOutput {
        workload: w,
        seed,
        traced: false,
        metrics: set.finish(),
        checks,
        attempted,
        failed,
        host: host_block,
        calibration: Some(Calibration::of(&calib)),
    }
}
