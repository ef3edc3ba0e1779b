//! `paper-forward`: crash-free forward executions of the paper's three
//! algorithms under `native`, `ckpt-nvm`, `pmem-nvm` and `algo-nvm` on the
//! NVM-only platform. Built from the same `adcc_core` setup/run calls the
//! harness' `fig4/fig8/fig13::run_case` make, so the simulator's counters
//! and clock buckets can be read; `harness.figure_match` pins the copy.
//!
//! The per-access simulator hot path does all the work here and
//! harvest/recovery do none: this is the bypass workload for every
//! crash-path optimisation and the plain single-threaded baseline.

use std::time::Instant;

use adcc_ckpt::manager::CkptManager;
use adcc_core::abft::variants::{mm_regions, MmProgress};
use adcc_core::abft::{OriginalAbft, TwoLoopAbft};
use adcc_core::cg::{cg_host, ExtendedCg, PlainCg};
use adcc_core::mc::grids::McProblem;
use adcc_core::mc::sim::{McMode, McSim};
use adcc_core::mc::variants::mc_regions;
use adcc_core::mc::XS_CHANNELS;
use adcc_harness::fig10::McDims;
use adcc_harness::fig3::{cg_nvm_capacity, CG_ITERS};
use adcc_harness::fig7::mm_nvm_capacity;
use adcc_harness::{Case, Platform};
use adcc_linalg::csr::CsrMatrix;
use adcc_linalg::dense::Matrix;
use adcc_linalg::spd::CgClass;
use adcc_pmem::stats::LogStats;
use adcc_pmem::undo::UndoPool;
use adcc_sim::clock::Bucket;
use adcc_sim::crash::{CrashEmulator, CrashTrigger};
use adcc_sim::stats::MemStats;
use adcc_sim::system::MemorySystem;

use crate::calib::Calibrator;
use crate::campaigns::tally;
use crate::host;
use crate::run::{Calibration, Check, MetricSet, RunOutput};
use crate::stats::{max_diff, steady_rate, Summary};
use crate::trace::Tracer;
use crate::workloads::Workload;

/// The four mechanisms compared, all on the NVM-only platform.
pub const CASES: [Case; 4] = [Case::Native, Case::CkptNvm, Case::PmemNvm, Case::AlgoNvm];
pub const KERNELS: [&str; 3] = ["cg", "mm", "mc"];

const CG_TOL: f64 = 1e-8;
const MM_TOL: f64 = 1e-9;

#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub cg: CgClass,
    pub mm_n: usize,
    pub mm_k: usize,
    pub mc: McDims,
}

impl Sizes {
    /// CG class A (n = 14000, ~4.9 MB of matrix + vectors over a 1 MiB
    /// modelled CPU cache), ABFT-MM n = 256 rank 16 (~1.5 MB over 128 KiB),
    /// MC 68 nuclides x 2048 grid points (~6.7 MB over 256 KiB). Modelled
    /// caches start empty.
    pub const FULL: Sizes = Sizes {
        cg: CgClass::A,
        mm_n: 256,
        mm_k: 16,
        mc: McDims {
            nuclides: 68,
            grid_points: 2048,
            lookups: 12_000,
        },
    };

    /// ~1/20 of the full work, same shapes.
    pub const SMOKE: Sizes = Sizes {
        cg: CgClass::S,
        mm_n: 64,
        mm_k: 16,
        mc: McDims {
            nuclides: 36,
            grid_points: 256,
            lookups: 1_200,
        },
    };

    /// Warm-up size: touches every code path of the twelve runs.
    pub const WARMUP: Sizes = Sizes {
        cg: CgClass::TEST,
        mm_n: 32,
        mm_k: 8,
        mc: McDims {
            nuclides: 36,
            grid_points: 64,
            lookups: 400,
        },
    };
}

/// Host-side problems and references, generated from the seed.
pub struct Inputs {
    pub sizes: Sizes,
    pub seed: u64,
    cg_a: CsrMatrix,
    cg_b: Vec<f64>,
    cg_ref: Vec<f64>,
    mm_a: Matrix,
    mm_b: Matrix,
    mm_ref: Matrix,
    mc_problem: McProblem,
}

impl Inputs {
    /// Problem seeds follow the harness convention: CG matrix `seed`, MM
    /// operands `seed` / `seed + 1`, MC grids and sampling `seed`.
    pub fn generate(sizes: Sizes, seed: u64) -> Inputs {
        let cg_a = sizes.cg.matrix(seed);
        let cg_b = sizes.cg.rhs(&cg_a);
        let cg_ref = cg_host(&cg_a, &cg_b, CG_ITERS);
        let mm_a = Matrix::random(sizes.mm_n, sizes.mm_n, seed);
        let mm_b = Matrix::random(sizes.mm_n, sizes.mm_n, seed + 1);
        let mm_ref = mm_a.mul_blocked(&mm_b, sizes.mm_k);
        let mc_problem = sizes.mc.problem(seed);
        Inputs {
            sizes,
            seed,
            cg_a,
            cg_b,
            cg_ref,
            mm_a,
            mm_b,
            mm_ref,
            mc_problem,
        }
    }
}

/// What one forward execution produced.
#[derive(Debug, Clone)]
pub struct CaseRun {
    pub kernel: &'static str,
    pub case: Case,
    /// Simulated main-loop time, as the harness figures define it.
    pub loop_ps: u64,
    /// Simulator counters at the end of the run.
    pub stats: MemStats,
    /// Simulated time per clock bucket at the end of the run.
    pub buckets: [u64; Bucket::COUNT],
    /// Undo-log counters (pmem-nvm only).
    pub log: LogStats,
    /// Host time of the main loop.
    pub loop_host_ns: u64,
    /// Element accesses issued inside the main loop.
    pub loop_accesses: u64,
    /// Median host time of one extra `CkptManager::checkpoint` call after
    /// the run (ckpt-nvm, traced pass only).
    pub ckpt_probe_ns: Option<u64>,
    /// Result equals the host reference within tolerance.
    pub solution_ok: bool,
    /// Host time of the whole execution (set-up and loop). Filled in by
    /// [`run_all`].
    pub host_s: f64,
}

/// Host and simulated facts of one measured main loop.
struct LoopFacts {
    loop_ps: u64,
    host_ns: u64,
    accesses: u64,
}

/// Run `body` as the measured main loop on `sys` (the `core.forward` span).
fn measure<T>(
    tr: &mut Tracer,
    kernel: &'static str,
    sys: MemorySystem,
    body: impl FnOnce(&mut CrashEmulator) -> T,
) -> (CrashEmulator, T, LoopFacts) {
    let (t0_ps, accesses0) = (sys.now().ps(), sys.access_count());
    let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
    let span = tr.begin("core", "forward", kernel);
    let host0 = Instant::now();
    let out = body(&mut emu);
    let host_ns = host0.elapsed().as_nanos() as u64;
    let accesses = emu.access_count() - accesses0;
    tr.end(span, accesses);
    let facts = LoopFacts {
        loop_ps: emu.now().ps() - t0_ps,
        host_ns,
        accesses,
    };
    (emu, out, facts)
}

impl CaseRun {
    fn collect(
        kernel: &'static str,
        case: Case,
        sys: &MemorySystem,
        facts: LoopFacts,
        log: LogStats,
        solution_ok: bool,
    ) -> CaseRun {
        CaseRun {
            kernel,
            case,
            loop_ps: facts.loop_ps,
            stats: *sys.stats(),
            buckets: sys.clock().bucket_totals(),
            log,
            loop_host_ns: facts.host_ns,
            loop_accesses: facts.accesses,
            ckpt_probe_ns: None,
            solution_ok,
            host_s: 0.0,
        }
    }
}

/// Median host time of `reps` extra checkpoints taken after the measured
/// loop ended (so they perturb nothing that is reported).
fn probe_checkpoint(mgr: &mut CkptManager, emu: &mut CrashEmulator, reps: usize) -> u64 {
    let ns: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(mgr.checkpoint(emu));
            t.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&ns) as u64
}

pub const DONE: &str = "Never trigger completes";

fn run_cg(inp: &Inputs, case: Case, tr: &mut Tracer, probe: bool) -> CaseRun {
    let (a, b) = (&inp.cg_a, &inp.cg_b);
    let span = tr.begin("core", "setup", "cg");
    let cfg = Platform::NvmOnly.cg_config(cg_nvm_capacity(a, CG_ITERS));
    let mut sys = MemorySystem::new(cfg);
    if case == Case::AlgoNvm {
        let (cg, rho0) = ExtendedCg::setup(&mut sys, a, b, CG_ITERS);
        tr.end(span, 1);
        let (emu, rho, facts) = measure(tr, "cg", sys, |e| {
            cg.run(e, 0, CG_ITERS, rho0).completed().expect(DONE)
        });
        let ok = max_diff(&cg.peek_solution(&emu, rho).z, &inp.cg_ref) < CG_TOL;
        return CaseRun::collect("cg", case, &emu, facts, LogStats::default(), ok);
    }
    let (cg, rho0) = PlainCg::setup(&mut sys, a, b, CG_ITERS);
    let mut log = LogStats::default();
    let mut ckpt_probe_ns = None;
    let (emu, facts) = match case {
        Case::Native => {
            tr.end(span, 1);
            let (emu, _, facts) = measure(tr, "cg", sys, |e| {
                adcc_core::cg::variants::run_native(e, &cg, rho0)
                    .completed()
                    .expect(DONE)
            });
            (emu, facts)
        }
        Case::CkptNvm => {
            let mut mgr = CkptManager::new_nvm(&mut sys, cg.ckpt_regions(), false);
            tr.end(span, 1);
            let (mut emu, _, facts) = measure(tr, "cg", sys, |e| {
                adcc_core::cg::variants::run_with_ckpt(e, &cg, rho0, &mut mgr)
                    .completed()
                    .expect(DONE)
            });
            // Read the counters before the probe's extra checkpoints land.
            let run = CaseRun::collect("cg", case, &emu, facts, log, true);
            if probe {
                ckpt_probe_ns = Some(tr.leaf("ckpt", "checkpoint_probe", "cg", 5, || {
                    probe_checkpoint(&mut mgr, &mut emu, 5)
                }));
            }
            let ok = max_diff(&cg.peek_solution(&emu), &inp.cg_ref) < CG_TOL;
            return CaseRun {
                ckpt_probe_ns,
                solution_ok: ok,
                ..run
            };
        }
        Case::PmemNvm => {
            let lines = 3 * (cg.n * 8).div_ceil(64) + 16;
            let mut pool = UndoPool::new(&mut sys, lines);
            tr.end(span, 1);
            let (emu, _, facts) = measure(tr, "cg", sys, |e| {
                adcc_core::cg::variants::run_with_pmem(e, &cg, rho0, &mut pool)
                    .completed()
                    .expect(DONE)
            });
            log = pool.log_stats();
            (emu, facts)
        }
        other => unreachable!("paper-forward runs NVM-only cases, not {other:?}"),
    };
    let ok = max_diff(&cg.peek_solution(&emu), &inp.cg_ref) < CG_TOL;
    CaseRun::collect("cg", case, &emu, facts, log, ok)
}

fn run_mm(inp: &Inputs, case: Case, tr: &mut Tracer) -> CaseRun {
    let (n, k) = (inp.sizes.mm_n, inp.sizes.mm_k);
    let (a, b) = (&inp.mm_a, &inp.mm_b);
    let span = tr.begin("core", "setup", "mm");
    let cfg = Platform::NvmOnly.mm_config(mm_nvm_capacity(n, k));
    let mut sys = MemorySystem::new(cfg);
    let tol = MM_TOL * n as f64;
    if case == Case::AlgoNvm {
        let mm = TwoLoopAbft::setup(&mut sys, a, b, k);
        tr.end(span, 1);
        let (emu, _, facts) = measure(tr, "mm", sys, |e| mm.run(e).completed().expect(DONE));
        let ok = mm.peek_product(&emu).max_abs_diff(&inp.mm_ref) < tol;
        return CaseRun::collect("mm", case, &emu, facts, LogStats::default(), ok);
    }
    let mm = OriginalAbft::setup(&mut sys, a, b, k, false);
    let mut log = LogStats::default();
    let (emu, _, facts) = match case {
        Case::Native => {
            tr.end(span, 1);
            measure(tr, "mm", sys, |e| mm.run(e).completed().expect(DONE))
        }
        Case::CkptNvm => {
            let progress = MmProgress::new(&mut sys);
            let mut mgr = CkptManager::new_nvm(&mut sys, mm_regions(&mm, &progress), false);
            tr.end(span, 1);
            measure(tr, "mm", sys, |e| {
                adcc_core::abft::variants::run_with_ckpt(e, &mm, &progress, &mut mgr)
                    .completed()
                    .expect(DONE)
            })
        }
        Case::PmemNvm => {
            let progress = MmProgress::new(&mut sys);
            let lines = ((n + 1) * (n + 1) * 8).div_ceil(64) + 16;
            let mut pool = UndoPool::new(&mut sys, lines);
            tr.end(span, 1);
            let out = measure(tr, "mm", sys, |e| {
                adcc_core::abft::variants::run_with_pmem(e, &mm, &progress, &mut pool)
                    .completed()
                    .expect(DONE)
            });
            log = pool.log_stats();
            out
        }
        other => unreachable!("paper-forward runs NVM-only cases, not {other:?}"),
    };
    let ok = mm.peek_product(&emu).max_abs_diff(&inp.mm_ref) < tol;
    CaseRun::collect("mm", case, &emu, facts, log, ok)
}

/// MC has no host oracle: the check is the tally audit (every lookup
/// counted once) here, and agreement with the native counts in
/// [`run_all`].
fn run_mc(inp: &Inputs, case: Case, tr: &mut Tracer) -> (CaseRun, [u64; XS_CHANNELS]) {
    let dims = inp.sizes.mc;
    let span = tr.begin("core", "setup", "mc");
    let p = inp.mc_problem.clone();
    let cfg = Platform::NvmOnly.mc_config(dims.nvm_capacity(&p));
    let interval = dims.interval();
    let mut sys = MemorySystem::new(cfg);
    let mode = match case {
        Case::AlgoNvm => McMode::Selective { interval },
        _ => McMode::Native,
    };
    let mc = McSim::setup(&mut sys, p, dims.lookups, inp.seed, mode);
    let mut log = LogStats::default();
    let (emu, _, facts) = match case {
        Case::Native | Case::AlgoNvm => {
            tr.end(span, 1);
            measure(tr, "mc", sys, |e| {
                mc.run(e, 0, dims.lookups).completed().expect(DONE)
            })
        }
        Case::CkptNvm => {
            let mut mgr = CkptManager::new_nvm(&mut sys, mc_regions(&mc), false);
            tr.end(span, 1);
            measure(tr, "mc", sys, |e| {
                adcc_core::mc::variants::run_with_ckpt(e, &mc, &mut mgr, interval)
                    .completed()
                    .expect(DONE)
            })
        }
        Case::PmemNvm => {
            let mut pool = UndoPool::new(&mut sys, 32);
            tr.end(span, 1);
            let out = measure(tr, "mc", sys, |e| {
                adcc_core::mc::variants::run_with_pmem(e, &mc, &mut pool, interval)
                    .completed()
                    .expect(DONE)
            });
            log = pool.log_stats();
            out
        }
        other => unreachable!("paper-forward runs NVM-only cases, not {other:?}"),
    };
    let counts = mc.peek_counts(&emu);
    let ok = counts.iter().sum::<u64>() == dims.lookups;
    (CaseRun::collect("mc", case, &emu, facts, log, ok), counts)
}

/// All twelve forward executions, in kernel-major order. `probe` adds the
/// post-run checkpoint timing probe (traced pass only); `calib` takes a
/// reference slice before each execution (timed repeats only).
pub fn run_all(
    inp: &Inputs,
    tr: &mut Tracer,
    probe: bool,
    mut calib: Option<&mut Calibrator>,
) -> Vec<CaseRun> {
    let mut runs: Vec<CaseRun> = Vec::with_capacity(12);
    let mut native_counts = None;
    for kernel in KERNELS {
        for case in CASES {
            if let Some(c) = calib.as_deref_mut() {
                c.slice();
            }
            let start = Instant::now();
            let mut run = match kernel {
                "cg" => run_cg(inp, case, tr, probe),
                "mm" => run_mm(inp, case, tr),
                _ => {
                    let (mut run, counts) = run_mc(inp, case, tr);
                    // The sampled physics depends only on the MC seed, so
                    // every mechanism must reproduce the native tallies.
                    let native = *native_counts.get_or_insert(counts);
                    run.solution_ok &= counts == native;
                    run
                }
            };
            run.host_s = start.elapsed().as_secs_f64();
            runs.push(run);
        }
    }
    runs
}

fn find<'a>(runs: &'a [CaseRun], kernel: &str, case: Case) -> &'a CaseRun {
    runs.iter()
        .find(|r| r.kernel == kernel && r.case == case)
        .expect("all twelve cases ran")
}

/// Simulated main-loop overhead of `case` over native, percent.
pub fn overhead_pct(runs: &[CaseRun], kernel: &str, case: Case) -> f64 {
    let native = find(runs, kernel, Case::Native).loop_ps as f64;
    (find(runs, kernel, case).loop_ps as f64 / native - 1.0) * 100.0
}

/// The abstract's headline: the largest `algo-nvm` overhead of the three
/// kernels.
pub fn algo_overhead_pct(runs: &[CaseRun]) -> f64 {
    KERNELS
        .iter()
        .map(|k| overhead_pct(runs, k, Case::AlgoNvm))
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Output checks; returns one `(name, ok)` per check.
pub fn check_runs(runs: &[CaseRun]) -> Vec<(String, bool)> {
    let mut checks = Vec::new();
    for k in KERNELS {
        let t = |c| find(runs, k, c).loop_ps;
        checks.push((
            format!("{k}: native <= algo-nvm < pmem-nvm (simulated loop time)"),
            t(Case::Native) <= t(Case::AlgoNvm) && t(Case::AlgoNvm) < t(Case::PmemNvm),
        ));
    }
    for r in runs {
        checks.push((
            format!(
                "{}/{}: result matches the reference",
                r.kernel,
                r.case.name()
            ),
            r.solution_ok,
        ));
    }
    checks
}

/// How many of the twelve simulated loop times equal the harness'
/// `fig4/fig8/fig13::run_case` on the same inputs (must be 12).
pub fn figure_match(inp: &Inputs, runs: &[CaseRun]) -> u64 {
    let s = inp.sizes;
    let mut matches = 0;
    for case in CASES {
        let fig4 = adcc_harness::fig4::run_case(case, s.cg, inp.seed).loop_ps;
        matches += u64::from(fig4 == find(runs, "cg", case).loop_ps);
        let fig8 = adcc_harness::fig8::run_case(case, s.mm_n, s.mm_k, inp.seed);
        matches += u64::from(fig8 == find(runs, "mm", case).loop_ps);
        let fig13 = adcc_harness::fig13::run_case(case, s.mc, inp.seed);
        matches += u64::from(fig13 == find(runs, "mc", case).loop_ps);
    }
    matches
}

// ---------------------------------------------------------------------
// Timed repeats and the traced pass
// ---------------------------------------------------------------------

fn host_s(runs: &[CaseRun]) -> f64 {
    runs.iter().map(|r| r.host_s).sum()
}

/// `(kernel, case, loop_ps)` of every run: the simulated facts that must
/// not move between repeats.
fn simulated(runs: &[CaseRun]) -> Vec<(&'static str, &'static str, u64, u64)> {
    runs.iter()
        .map(|r| (r.kernel, r.case.name(), r.loop_ps, r.stats.accesses))
        .collect()
}

fn push_checks(checks: &mut Vec<Check>, runs: &[CaseRun], label: &str) {
    for (name, ok) in check_runs(runs) {
        checks.push(Check {
            name: format!("{label}: {name}"),
            ok,
        });
    }
}

/// Timed repeats of the twelve forward executions for `seconds`, tracing
/// off, single-threaded.
pub fn timed(sizes: Sizes, seed: u64, seconds: f64, setups: usize) -> RunOutput {
    let host_block = host::host_block();
    let mut checks = Vec::new();
    let mut off = Tracer::new(false);
    // One reference slice before every timed interval (see `calib.rs`).
    let mut calib = Calibrator::new(1);

    // A set-up generates the problems and their host references and runs
    // the warm-up size through all twelve cases. It is taken several times
    // before the first repeat and again before every later one; the
    // repeats alone count against `seconds`.
    let mut setup_s = Vec::new();
    let mut inputs = None;
    let mut repeats: Vec<Vec<CaseRun>> = Vec::new();
    let mut timed_s = 0.0;
    loop {
        for _ in 0..crate::setups_due(&setup_s, setups) {
            calib.slice();
            let t = Instant::now();
            inputs = Some(Inputs::generate(sizes, seed));
            let warm = run_all(
                &Inputs::generate(Sizes::WARMUP, seed),
                &mut off,
                false,
                None,
            );
            setup_s.push(t.elapsed().as_secs_f64());
            if setup_s.len() == 1 {
                push_checks(&mut checks, &warm, "warm-up");
            }
        }
        let inputs = inputs.as_ref().expect("at least one set-up");
        let begin = Instant::now();
        repeats.push(run_all(inputs, &mut off, false, Some(&mut calib)));
        timed_s += begin.elapsed().as_secs_f64();
        if timed_s + timed_s / repeats.len() as f64 / 2.0 >= seconds {
            break;
        }
    }

    let first = &repeats[0];
    push_checks(&mut checks, first, "repeat 1");
    checks.push(Check {
        name: format!(
            "all {} repeats give identical simulated times and access counts",
            repeats.len()
        ),
        ok: repeats.iter().all(|r| simulated(r) == simulated(first)),
    });
    checks.push(Check {
        name: "every repeat's results match the references".into(),
        ok: repeats.iter().all(|r| r.iter().all(|c| c.solution_ok)),
    });
    let (attempted, failed) = tally(&checks, 12 * repeats.len() as u64, 0, 0);

    let slowdown = calib.slowdown();
    let mut set = MetricSet::new(Workload::PaperForward, false);
    set.set("setup_s", Summary::of(&setup_s).scaled(1.0 / slowdown));
    // Each of the twelve executions timed at its median over the repeats.
    let accesses: u64 = first.iter().map(|r| r.stats.accesses).sum();
    let seconds: Vec<Vec<f64>> = repeats
        .iter()
        .map(|r| r.iter().map(|c| c.host_s).collect())
        .collect();
    let per_repeat: Vec<f64> = repeats
        .iter()
        .map(|r| accesses as f64 / 1e6 / host_s(r))
        .collect();
    set.set(
        "sim_maccess_per_s",
        Summary::around(steady_rate(accesses as f64 / 1e6, &seconds), &per_repeat).scaled(slowdown),
    );
    set.exact("algo_overhead_pct", algo_overhead_pct(first));
    set.exact(
        "passed_share_pct",
        100.0 * (1.0 - failed as f64 / attempted as f64),
    );
    set.exact("peak_heap_mb", crate::heap::peak_heap_mb());
    RunOutput {
        workload: Workload::PaperForward,
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

/// The traced pass: the twelve executions once with spans, once without,
/// then the harness' own `run_case`s for `harness.figure_match`.
pub fn traced(sizes: Sizes, seed: u64, out_dir: &std::path::Path) -> RunOutput {
    let host_block = host::host_block();
    let mut checks = Vec::new();
    let inputs = Inputs::generate(sizes, seed);

    let mut tr = Tracer::new(true);
    let root = tr.begin("bench", "workload", Workload::PaperForward.name());
    let runs = run_all(&inputs, &mut tr, true, None);
    tr.end(root, 12);
    let untraced = run_all(&inputs, &mut Tracer::new(false), true, None);

    push_checks(&mut checks, &runs, "traced");
    checks.push(Check {
        name: "traced and untraced executions give identical simulated times and access counts"
            .into(),
        ok: simulated(&runs) == simulated(&untraced),
    });
    let matched = figure_match(&inputs, &runs);
    checks.push(Check {
        name: format!("harness.figure_match: {matched} of 12 equal fig4/fig8/fig13::run_case"),
        ok: matched == 12,
    });
    let spans = tr.spans().to_vec();
    let named_share = crate::trace::named_layer_share_pct(&spans);
    checks.push(Check {
        name: format!("named layer spans cover >= 90% of the traced wall ({named_share:.1}%)"),
        ok: named_share >= 90.0,
    });

    let mut set = MetricSet::new(Workload::PaperForward, true);
    set.exact("campaign.traced_named_share_pct", named_share);
    set.exact(
        "campaign.trace_overhead_pct",
        (host_s(&runs) / host_s(&untraced) - 1.0) * 100.0,
    );
    set.exact("harness.figure_match", matched as f64);

    let loop_ns: u64 = runs.iter().map(|r| r.loop_host_ns).sum();
    let loop_accesses: u64 = runs.iter().map(|r| r.loop_accesses).sum();
    set.exact(
        "sim.forward_ns_per_access",
        loop_ns as f64 / loop_accesses.max(1) as f64,
    );
    for k in KERNELS {
        let ns: u64 = runs
            .iter()
            .filter(|r| r.kernel == k)
            .map(|r| r.loop_host_ns)
            .sum();
        set.exact(&format!("core.forward_ms.{k}"), ns as f64 / 1e6);
        for (case, mech) in CASES[1..].iter().zip(crate::metrics::MECHANISMS) {
            set.exact(
                &format!("core.overhead_pct.{k}.{mech}"),
                overhead_pct(&runs, k, *case),
            );
        }
    }

    let sum = |f: fn(&CaseRun) -> u64| -> f64 { runs.iter().map(f).sum::<u64>() as f64 };
    set.exact("sim.accesses", sum(|r| r.stats.accesses));
    let (hits, misses) = (sum(|r| r.stats.cpu.hits), sum(|r| r.stats.cpu.misses));
    set.exact(
        "sim.hit_ratio_ppm",
        (hits * 1e6 / (hits + misses).max(1.0)).floor(),
    );
    set.exact("sim.nvm_line_writes", sum(|r| r.stats.nvm_line_writes));
    set.exact("sim.flushes", sum(|r| r.stats.flush_total()));
    set.exact("sim.sfences", sum(|r| r.stats.sfences));
    for name in crate::metrics::BUCKETS {
        let bucket = Bucket::ALL
            .into_iter()
            .find(|b| b.name() == name)
            .expect("reported buckets exist");
        let ps: u64 = runs.iter().map(|r| r.buckets[bucket as usize]).sum();
        set.exact(&format!("sim.bucket_ps.{name}"), ps as f64);
    }
    set.exact("pmem.log_bytes", sum(|r| r.log.bytes));
    set.exact("pmem.log_appends", sum(|r| r.log.appends));
    set.exact(
        "ckpt.copy_ps",
        sum(|r| r.buckets[Bucket::CkptCopy as usize]),
    );
    if let Some(ns) = runs.iter().find_map(|r| r.ckpt_probe_ns) {
        set.exact("ckpt.checkpoint_ms", ns as f64 / 1e6);
    }

    checks.push(Check {
        name: format!("trace written under {}", out_dir.display()),
        ok: crate::trace::write(out_dir, Workload::PaperForward.name(), &spans).is_ok(),
    });

    let (attempted, failed) = tally(&checks, 24, 0, 0);
    RunOutput {
        workload: Workload::PaperForward,
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
