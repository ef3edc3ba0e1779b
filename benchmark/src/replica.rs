//! Replicas of the campaign harvest pipeline, built only from public calls
//! into `sim`, `core`, `pmem`, `ckpt`, `ds`, `dist` and `analyze`, with a
//! span around each call — the one place the traced pass can split a
//! `Scenario::run_batch` into forward+harvest / materialize / from_image /
//! detect / recover+resume / classify.
//!
//! Each replica mirrors one scenario of `crates/campaign/src/scenarios/`
//! (whose problem constants are private, so they are restated here). The
//! caller checks every replica's `Trial`s against `Scenario::run_batch`
//! for the same units, so a drifted copy fails the run instead of
//! reporting numbers for a pipeline nobody ships.

use adcc_analyze::{analyze, Checks, Region, Role};
use adcc_campaign::outcome::{classify, Outcome};
use adcc_campaign::scenario::{Scenario, Trial};
use adcc_ckpt::manager::CkptManager;
use adcc_core::cg::{cg_host, sites as cg_sites, ExtendedCg, PlainCg};
use adcc_core::mc::sim::{McMode, McSim};
use adcc_core::mc::{McProblem, XS_CHANNELS};
use adcc_dist::cluster::Cluster;
use adcc_dist::jacobi::{DistJacobi, JacobiConfig};
use adcc_dist::net::FaultProfile;
use adcc_dist::trial::{
    poll_phase, reference_run, run_superstep, CrashInfo, DistKernel, RecoveryMode,
};
use adcc_ds::sites::PH_DS_COMMIT;
use adcc_ds::{
    recover_verify_resume, DsLayout, OpStream, OpStreamCfg, Protection, Workload as DsWorkload,
    WorkloadCfg,
};
use adcc_linalg::csr::CsrMatrix;
use adcc_linalg::spd::CgClass;
use adcc_pmem::undo::{UndoPool, UndoPoolLayout};
use adcc_resilience::{DirtyClass, DirtyTrial, Tolerance};
use adcc_sim::crash::{CrashEmulator, CrashSite, CrashTrigger, Harvest, RunOutcome};
use adcc_sim::events::EventRecorder;
use adcc_sim::image::{DeltaImage, NvmImage};
use adcc_sim::line::{LINE_SHIFT, LINE_SIZE};
use adcc_sim::system::{MemorySystem, SystemConfig};

use crate::forward::DONE;
use crate::stats::max_diff;
use crate::trace::Tracer;

/// Campaign systems keep 2 MiB of volatile scratch (the campaign crate's
/// private `trim_dram`).
fn trim_dram(mut cfg: SystemConfig) -> SystemConfig {
    cfg.dram_capacity = 2 << 20;
    cfg
}

/// The shared completion classification (unit filled in by the caller).
fn completion(matches: bool) -> Trial {
    Trial {
        unit: 0,
        outcome: if matches {
            Outcome::CompletedClean
        } else {
            Outcome::SilentCorruption
        },
        lost_units: 0,
        sim_time_ps: 0,
        telemetry: None,
    }
}

/// Field-by-field equality of two trial lists (telemetry is off on both
/// sides, so the four classified fields are the whole trial).
pub fn trials_equal(a: &[Trial], b: &[Trial]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.unit == y.unit
                && x.outcome == y.outcome
                && x.lost_units == y.lost_units
                && x.sim_time_ps == y.sim_time_ps
        })
}

/// One kernel scenario's pipeline as hooks: set up, run forward, recover
/// one crash state, classify a clean completion.
pub trait KernelReplica {
    /// Scenario name (span key).
    const KEY: &'static str;
    /// Handles the forward run and recovery share (kernel state, pools).
    type Live;
    /// What the completed forward run hands to `complete_trial`.
    type End;
    fn setup(&self) -> (Self::Live, CrashEmulator);
    fn forward(&self, live: &mut Self::Live, emu: &mut CrashEmulator) -> Self::End;
    fn crash_trial(
        &self,
        live: &mut Self::Live,
        tr: &mut Tracer,
        h: &Harvest,
        image: &NvmImage,
    ) -> Trial;
    fn complete_trial(&self, live: &Self::Live, end: Self::End, emu: &CrashEmulator) -> Trial;
}

fn materialize(tr: &mut Tracer, key: &'static str, image: &DeltaImage) -> NvmImage {
    tr.leaf("sim", "materialize", key, image.len() as u64, || {
        image.materialize()
    })
}

/// Boot a system from `image` under a span (`sim.from_image_us`).
fn from_image(
    tr: &mut Tracer,
    key: &'static str,
    cfg: &SystemConfig,
    image: &NvmImage,
) -> MemorySystem {
    tr.leaf("sim", "from_image", key, image.len() as u64, || {
        MemorySystem::from_image(cfg.clone(), image)
    })
}

/// Arm `units` on a fresh setup, run forward once, and hand back the
/// harvests (the `sim/forward_harvest` span) with the live handles.
fn forward_harvest<R: KernelReplica>(
    r: &R,
    s: &dyn Scenario,
    units: &[u64],
    tr: &mut Tracer,
) -> (R::Live, CrashEmulator, R::End, Vec<Harvest>) {
    let span = tr.begin("core", "setup", R::KEY);
    let (mut live, mut emu) = r.setup();
    tr.end(span, 1);
    let span = tr.begin("sim", "forward_harvest", R::KEY);
    emu.arm_harvest(units.iter().map(|&u| (s.trigger_of(u), u)));
    let end = r.forward(&mut live, &mut emu);
    let harvests = emu.take_harvests();
    tr.end(span, harvests.len() as u64);
    (live, emu, end, harvests)
}

/// The same forward execution with no harvest plan armed: the baseline
/// `sim.harvest_fork_us` subtracts.
pub fn forward_unarmed<R: KernelReplica>(r: &R, tr: &mut Tracer) {
    let span = tr.begin("core", "setup", R::KEY);
    let (mut live, mut emu) = r.setup();
    tr.end(span, 1);
    let span = tr.begin("sim", "forward_unarmed", R::KEY);
    r.forward(&mut live, &mut emu);
    tr.end(span, 1);
}

/// One chunk through a kernel replica: the replica of `run_batch`.
pub fn run_chunk<R: KernelReplica>(
    r: &R,
    s: &dyn Scenario,
    units: &[u64],
    tr: &mut Tracer,
) -> Vec<Trial> {
    let chunk = tr.begin("bench", "replica_chunk", R::KEY);
    let (mut live, emu, end, harvests) = forward_harvest(r, s, units, tr);
    let mut by_unit: Vec<Option<Trial>> = vec![None; units.len()];
    for h in &harvests {
        let idx = units
            .binary_search(&h.unit)
            .expect("harvested unit was scheduled");
        let image = materialize(tr, R::KEY, &h.image);
        by_unit[idx] = Some(r.crash_trial(&mut live, tr, h, &image));
    }
    let template = by_unit
        .iter()
        .any(Option::is_none)
        .then(|| r.complete_trial(&live, end, &emu));
    let trials = by_unit
        .into_iter()
        .zip(units)
        .map(|(t, &unit)| {
            t.unwrap_or_else(|| Trial {
                unit,
                ..template.expect("template built when a unit completed clean")
            })
        })
        .collect();
    tr.end(chunk, units.len() as u64);
    trials
}

// ---------------------------------------------------------------------
// CG replicas (mirror crates/campaign/src/scenarios/cg.rs)
// ---------------------------------------------------------------------

const CG_ITERS: usize = 12;
const CG_TOL: f64 = 1e-9;
const CG_PROBLEM_SEED: u64 = 301;

/// The CG campaign problem and its crash-free host reference.
pub struct CgProblem {
    a: CsrMatrix,
    b: Vec<f64>,
    reference: Vec<f64>,
    cfg: SystemConfig,
}

impl CgProblem {
    pub fn new() -> CgProblem {
        let class = CgClass::TEST;
        let a = class.matrix(CG_PROBLEM_SEED);
        let b = class.rhs(&a);
        let reference = cg_host(&a, &b, CG_ITERS);
        let cap = 4 * (CG_ITERS + 2) * a.n() * 8 + a.nnz() * 12 + (a.n() + 1) * 4 + (2 << 20);
        let cfg = trim_dram(SystemConfig::nvm_only(16 << 10, cap));
        CgProblem {
            a,
            b,
            reference,
            cfg,
        }
    }
}

pub struct CgExtendedReplica(pub CgProblem);

impl KernelReplica for CgExtendedReplica {
    const KEY: &'static str = "cg-extended";
    type Live = (ExtendedCg, f64);
    type End = f64;

    fn setup(&self) -> (Self::Live, CrashEmulator) {
        let mut sys = MemorySystem::new(self.0.cfg.clone());
        let (cg, rho0) = ExtendedCg::setup(&mut sys, &self.0.a, &self.0.b, CG_ITERS);
        (
            (cg, rho0),
            CrashEmulator::from_system(sys, CrashTrigger::Never),
        )
    }

    fn forward(&self, (cg, rho0): &mut Self::Live, emu: &mut CrashEmulator) -> f64 {
        cg.run(emu, 0, CG_ITERS, *rho0).completed().expect(DONE)
    }

    fn crash_trial(
        &self,
        (cg, _): &mut Self::Live,
        tr: &mut Tracer,
        h: &Harvest,
        image: &NvmImage,
    ) -> Trial {
        // Probes: `recover_and_resume` boots and scans internally, so the
        // boot and the invariant scan are timed on their own copies first.
        let mut probe = from_image(tr, Self::KEY, &self.0.cfg, image);
        tr.leaf("core", "detect", Self::KEY, 1, || {
            std::hint::black_box(cg.detect_restart(&mut probe))
        });
        let rec = tr.leaf("core", "recover_resume", Self::KEY, 1, || {
            cg.recover_and_resume(image, self.0.cfg.clone())
        });
        tr.leaf("campaign", "classify", Self::KEY, 1, || {
            let matches = max_diff(&rec.solution.z, &self.0.reference) < CG_TOL;
            Trial {
                unit: h.unit,
                outcome: classify(rec.restart_from.is_none(), matches, rec.report.lost_units),
                lost_units: rec.report.lost_units,
                sim_time_ps: rec.report.total().ps(),
                telemetry: None,
            }
        })
    }

    fn complete_trial(&self, (cg, _): &Self::Live, rho: f64, emu: &CrashEmulator) -> Trial {
        completion(max_diff(&cg.peek_solution(emu, rho).z, &self.0.reference) < CG_TOL)
    }
}

impl CgExtendedReplica {
    /// The dirty-restart pipeline of `cg-extended` (mirror of the
    /// scenario's `run_resilience`): same harvest, no recovery.
    pub fn run_dirty_chunk(
        &self,
        s: &dyn Scenario,
        units: &[u64],
        tr: &mut Tracer,
    ) -> Vec<DirtyTrial> {
        let chunk = tr.begin("bench", "replica_chunk", Self::KEY);
        let tolerance = Tolerance::new(CG_TOL, 1e-4, 1e3);
        let ((cg, _), _emu, _rho, harvests) = forward_harvest(self, s, units, tr);
        let mut by_unit: Vec<Option<DirtyTrial>> = vec![None; units.len()];
        for h in &harvests {
            let idx = units
                .binary_search(&h.unit)
                .expect("harvested unit was scheduled");
            let image = materialize(tr, Self::KEY, &h.image);
            let d = tr.leaf("core", "dirty_restart", Self::KEY, 1, || {
                cg.dirty_restart(&image, self.0.cfg.clone())
            });
            let (detected, diff) = match &d.solution {
                None => (true, 0.0),
                Some(sol) => (false, max_diff(sol, &self.0.reference)),
            };
            by_unit[idx] = Some(DirtyTrial {
                unit: h.unit,
                class: tolerance.classify(detected, diff),
                extra_units: d.extra_units,
                sim_time_ps: d.sim_time_ps,
            });
        }
        let trials = by_unit
            .into_iter()
            .zip(units)
            .map(|(t, &unit)| {
                t.unwrap_or(DirtyTrial {
                    unit,
                    class: DirtyClass::ConvergedExact,
                    extra_units: 0,
                    sim_time_ps: 0,
                })
            })
            .collect();
        tr.end(chunk, units.len() as u64);
        trials
    }
}

pub struct CgCkptReplica(pub CgProblem);

impl KernelReplica for CgCkptReplica {
    const KEY: &'static str = "cg-ckpt";
    type Live = (PlainCg, f64, CkptManager);
    type End = f64;

    fn setup(&self) -> (Self::Live, CrashEmulator) {
        let mut sys = MemorySystem::new(self.0.cfg.clone());
        let (cg, rho0) = PlainCg::setup(&mut sys, &self.0.a, &self.0.b, CG_ITERS);
        let mgr = CkptManager::new_nvm(&mut sys, cg.ckpt_regions(), false);
        (
            (cg, rho0, mgr),
            CrashEmulator::from_system(sys, CrashTrigger::Never),
        )
    }

    fn forward(&self, (cg, rho0, mgr): &mut Self::Live, emu: &mut CrashEmulator) -> f64 {
        adcc_core::cg::variants::run_with_ckpt(emu, cg, *rho0, mgr)
            .completed()
            .expect(DONE)
    }

    fn crash_trial(
        &self,
        (cg, rho0, mgr): &mut Self::Live,
        tr: &mut Tracer,
        h: &Harvest,
        image: &NvmImage,
    ) -> Trial {
        let sys2 = from_image(tr, Self::KEY, &self.0.cfg, image);
        let span = tr.begin("core", "recover_resume", Self::KEY);
        let mut emu2 = CrashEmulator::from_system(sys2, CrashTrigger::Never);
        let t0 = emu2.now();
        let (start, mut rho, restored) =
            adcc_core::cg::variants::ckpt_restore(&mut emu2, cg, *rho0, mgr);
        for _ in start..CG_ITERS {
            rho = cg.step(&mut emu2, rho);
        }
        let sim_time_ps = (emu2.now() - t0).ps();
        tr.end(span, 1);
        tr.leaf("campaign", "classify", Self::KEY, 1, || {
            // Both polled sites sit after iteration `index`'s step.
            let lost = (h.site.index + 1).saturating_sub(start as u64);
            let matches = max_diff(&cg.peek_solution(&emu2), &self.0.reference) < CG_TOL;
            Trial {
                unit: h.unit,
                outcome: classify(!restored, matches, lost),
                lost_units: lost,
                sim_time_ps,
                telemetry: None,
            }
        })
    }

    fn complete_trial(&self, (cg, ..): &Self::Live, _rho: f64, emu: &CrashEmulator) -> Trial {
        completion(max_diff(&cg.peek_solution(emu), &self.0.reference) < CG_TOL)
    }
}

pub struct CgPmemReplica(pub CgProblem);

impl CgPmemReplica {
    /// One undo-logged CG iteration with in-transaction crash polls (the
    /// scenario's private `pmem_iteration`, minus its telemetry sidecar).
    fn iteration(
        cg: &PlainCg,
        emu: &mut CrashEmulator,
        pool: &mut UndoPool,
        i: usize,
        rho: f64,
    ) -> f64 {
        let poll = |emu: &mut CrashEmulator, phase: u32| {
            let crashed = emu.poll(CrashSite::new(phase, i as u64));
            assert!(!crashed, "{DONE}");
        };
        pool.tx_begin(emu);
        cg.a.spmv(emu, cg.p, cg.q);
        let pq = adcc_linalg::simops::dot(emu, cg.p, cg.q);
        let alpha = rho / pq;
        for j in 0..cg.n {
            pool.tx_add_range(emu, cg.z.addr(j), 8);
            let v = cg.z.get(emu, j) + alpha * cg.p.get(emu, j);
            cg.z.set(emu, j, v);
        }
        poll(emu, cg_sites::PH_AFTER_Z);
        for j in 0..cg.n {
            pool.tx_add_range(emu, cg.r.addr(j), 8);
            let v = cg.r.get(emu, j) - alpha * cg.q.get(emu, j);
            cg.r.set(emu, j, v);
        }
        poll(emu, cg_sites::PH_AFTER_R);
        emu.charge_flops(4 * cg.n as u64);
        let rho_new = adcc_linalg::simops::dot(emu, cg.r, cg.r);
        let beta = rho_new / rho;
        for j in 0..cg.n {
            pool.tx_add_range(emu, cg.p.addr(j), 8);
            let v = cg.r.get(emu, j) + beta * cg.p.get(emu, j);
            cg.p.set(emu, j, v);
        }
        emu.charge_flops(2 * cg.n as u64);
        poll(emu, cg_sites::PH_LINE10);
        pool.tx_add_range(emu, cg.rho_cell.addr(), 8);
        pool.tx_add_range(emu, cg.iter_cell.addr(), 8);
        cg.rho_cell.set(emu, rho_new);
        cg.iter_cell.set(emu, (i + 1) as u64);
        pool.tx_commit(emu);
        poll(emu, cg_sites::PH_ITER_END);
        rho_new
    }
}

impl KernelReplica for CgPmemReplica {
    const KEY: &'static str = "cg-pmem";
    type Live = (PlainCg, f64, UndoPool, UndoPoolLayout);
    type End = ();

    fn setup(&self) -> (Self::Live, CrashEmulator) {
        let mut sys = MemorySystem::new(self.0.cfg.clone());
        let (cg, rho0) = PlainCg::setup(&mut sys, &self.0.a, &self.0.b, CG_ITERS);
        let lines = 3 * (cg.n * 8).div_ceil(64) + 8;
        let pool = UndoPool::new(&mut sys, lines);
        let layout = pool.layout();
        (
            (cg, rho0, pool, layout),
            CrashEmulator::from_system(sys, CrashTrigger::Never),
        )
    }

    fn forward(&self, (cg, rho0, pool, _): &mut Self::Live, emu: &mut CrashEmulator) {
        let mut rho = *rho0;
        for i in 0..CG_ITERS {
            rho = Self::iteration(cg, emu, pool, i, rho);
        }
    }

    fn crash_trial(
        &self,
        (cg, rho0, _, layout): &mut Self::Live,
        tr: &mut Tracer,
        h: &Harvest,
        image: &NvmImage,
    ) -> Trial {
        let mut sys2 = from_image(tr, Self::KEY, &self.0.cfg, image);
        let t0 = sys2.now();
        tr.leaf("pmem", "undo_recover", Self::KEY, 1, || {
            UndoPool::recover(*layout, &mut sys2)
        });
        let span = tr.begin("core", "recover_resume", Self::KEY);
        let committed = cg.iter_cell.get(&mut sys2) as usize;
        let mut rho = if committed == 0 {
            *rho0
        } else {
            cg.rho_cell.get(&mut sys2)
        };
        let mut emu2 = CrashEmulator::from_system(sys2, CrashTrigger::Never);
        for _ in committed..CG_ITERS {
            rho = cg.step(&mut emu2, rho);
        }
        let sim_time_ps = (emu2.now() - t0).ps();
        tr.end(span, 1);
        tr.leaf("campaign", "classify", Self::KEY, 1, || {
            let lost = (h.site.index + 1).saturating_sub(committed as u64);
            let matches = max_diff(&cg.peek_solution(&emu2), &self.0.reference) < CG_TOL;
            Trial {
                unit: h.unit,
                outcome: classify(false, matches, lost),
                lost_units: lost,
                sim_time_ps,
                telemetry: None,
            }
        })
    }

    fn complete_trial(&self, (cg, ..): &Self::Live, (): (), emu: &CrashEmulator) -> Trial {
        completion(max_diff(&cg.peek_solution(emu), &self.0.reference) < CG_TOL)
    }
}

// ---------------------------------------------------------------------
// mc-selective replica (mirror crates/campaign/src/scenarios/mc.rs)
// ---------------------------------------------------------------------

const MC_LOOKUPS: u64 = 1_200;
const MC_INTERVAL: u64 = 64;
const MC_SEED: u64 = 42;
const MC_PROBLEM_SEED: u64 = 305;

pub struct McSelectiveReplica {
    problem: McProblem,
    cfg: SystemConfig,
    reference: [u64; XS_CHANNELS],
}

impl McSelectiveReplica {
    pub fn new() -> McSelectiveReplica {
        let problem = McProblem::generate(36, 64, MC_PROBLEM_SEED);
        let cfg = trim_dram(SystemConfig::nvm_only(
            16 << 10,
            (problem.grid_bytes() + (1 << 20)).next_power_of_two(),
        ));
        let mut sys = MemorySystem::new(cfg.clone());
        let mc = McSim::setup(
            &mut sys,
            problem.clone(),
            MC_LOOKUPS,
            MC_SEED,
            McMode::Native,
        );
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        mc.run(&mut emu, 0, MC_LOOKUPS).completed().expect(DONE);
        let reference = mc.peek_counts(&emu);
        McSelectiveReplica {
            problem,
            cfg,
            reference,
        }
    }
}

impl KernelReplica for McSelectiveReplica {
    const KEY: &'static str = "mc-selective";
    type Live = McSim;
    type End = ();

    fn setup(&self) -> (McSim, CrashEmulator) {
        let mut sys = MemorySystem::new(self.cfg.clone());
        let mode = McMode::Selective {
            interval: MC_INTERVAL,
        };
        let mc = McSim::setup(&mut sys, self.problem.clone(), MC_LOOKUPS, MC_SEED, mode);
        (mc, CrashEmulator::from_system(sys, CrashTrigger::Never))
    }

    fn forward(&self, mc: &mut McSim, emu: &mut CrashEmulator) {
        mc.run(emu, 0, MC_LOOKUPS).completed().expect(DONE)
    }

    fn crash_trial(&self, mc: &mut McSim, tr: &mut Tracer, h: &Harvest, image: &NvmImage) -> Trial {
        let rec = tr.leaf("core", "recover_resume", Self::KEY, 1, || {
            mc.recover_and_resume(image, self.cfg.clone(), h.site.index + 1)
        });
        tr.leaf("campaign", "classify", Self::KEY, 1, || {
            let total: u64 = rec.counts.iter().sum();
            Trial {
                unit: h.unit,
                outcome: classify(
                    total != MC_LOOKUPS,
                    rec.counts == self.reference,
                    rec.report.lost_units,
                ),
                lost_units: rec.report.lost_units,
                sim_time_ps: rec.report.total().ps(),
                telemetry: None,
            }
        })
    }

    fn complete_trial(&self, mc: &McSim, (): (), emu: &CrashEmulator) -> Trial {
        completion(mc.peek_counts(emu) == self.reference)
    }
}

// ---------------------------------------------------------------------
// ds-queue-undo replica (mirror crates/campaign/src/scenarios/ds.rs)
// ---------------------------------------------------------------------

pub struct DsQueueUndoReplica {
    cfg: WorkloadCfg,
    stream: OpStream,
    layout: DsLayout,
}

/// Exact op counts one ds replica chunk replayed.
#[derive(Debug, Clone, Copy, Default)]
pub struct DsFacts {
    pub replayed_ops: u64,
    pub events: u64,
}

impl DsQueueUndoReplica {
    pub const KEY: &'static str = "ds-queue-undo";

    pub fn new() -> DsQueueUndoReplica {
        let cfg = WorkloadCfg::queue(Protection::Undo, OpStreamCfg::default());
        let stream = OpStream::generate(cfg.stream);
        let mut sys = MemorySystem::new(cfg.system());
        let layout = DsWorkload::setup(&mut sys, cfg).layout();
        DsQueueUndoReplica {
            cfg,
            stream,
            layout,
        }
    }

    /// The scenario's declared protocol regions for the queue under undo
    /// logging (its private `protocol_regions`).
    fn protocol_regions(&self) -> Vec<Region> {
        let checks = Checks {
            redundant_flush: false,
            ..Checks::ALL
        };
        let l = &self.layout;
        let region = |name: &str, addr: u64, len: usize, role: Role, group: u32| {
            Region::from_range(name, addr, len, role, group, checks)
        };
        let undo = l.undo.expect("undo protection has a pool layout");
        vec![
            region(
                "ds/queue-ctrl",
                l.queue_ctrl,
                2 * LINE_SIZE,
                Role::Payload,
                0,
            ),
            region(
                "ds/alloc-head",
                l.alloc.head_base,
                LINE_SIZE,
                Role::Payload,
                1,
            ),
            region(
                "ds/alloc-next",
                l.alloc.next_base,
                (l.alloc.blocks * 8) as usize,
                Role::Payload,
                1,
            ),
            region("ds/watermark", l.ckpt_base, 2 * LINE_SIZE, Role::Payload, 2),
            region("ds/op-table", l.optable_base, LINE_SIZE, Role::Payload, 3),
            region("ds/undo-state", undo.state_addr, 8, Role::Publish, 0),
        ]
    }

    fn crash_trial(
        &self,
        tr: &mut Tracer,
        h: &Harvest,
        image: &NvmImage,
        facts: &mut DsFacts,
    ) -> Trial {
        // Probe: the undo rollback alone, on its own booted copy.
        let mut probe = from_image(tr, Self::KEY, &self.cfg.system(), image);
        let undo = self.layout.undo.expect("undo protection has a pool layout");
        tr.leaf("pmem", "undo_recover", Self::KEY, 1, || {
            std::hint::black_box(UndoPool::recover(undo, &mut probe))
        });
        let span = tr.begin("ds", "recover_verify_resume", Self::KEY);
        let r = recover_verify_resume(
            self.cfg,
            self.layout,
            self.cfg.system(),
            image,
            &self.stream,
        );
        tr.end(span, r.replayed);
        facts.replayed_ops += r.replayed;
        tr.leaf("campaign", "classify", Self::KEY, 1, || {
            let applied = if h.site.phase == PH_DS_COMMIT {
                h.site.index
            } else {
                h.site.index - 1
            };
            let lost = applied.saturating_sub(r.resume_from);
            Trial {
                unit: h.unit,
                outcome: classify(r.detected, r.matches, lost),
                lost_units: lost,
                sim_time_ps: r.sim_time_ps,
                telemetry: None,
            }
        })
    }

    /// One chunk, optionally with the event recorder attached and the
    /// sanitizer run over the trace (the replica of `run_analyzed`).
    /// Returns the trials, the sanitizer's per-unit fact counts (empty
    /// when not recording) and the exact op/event counts.
    pub fn run_chunk(
        &self,
        s: &dyn Scenario,
        units: &[u64],
        tr: &mut Tracer,
        record: bool,
    ) -> (Vec<Trial>, Vec<usize>, DsFacts) {
        let chunk = tr.begin("bench", "replica_chunk", Self::KEY);
        let span = tr.begin("ds", "setup", Self::KEY);
        let mut emu = CrashEmulator::new(self.cfg.system(), CrashTrigger::Never);
        let mut w = DsWorkload::setup(emu.system_mut(), self.cfg);
        let regions = self.protocol_regions();
        if record {
            let mut rec = EventRecorder::new();
            for r in &regions {
                rec.track_range(
                    r.first_line << LINE_SHIFT,
                    r.line_count as usize * LINE_SIZE,
                );
            }
            emu.system_mut().attach_recorder(rec);
        }
        tr.end(span, 1);

        let span = tr.begin("sim", "forward_harvest", Self::KEY);
        emu.arm_harvest(units.iter().map(|&u| (s.trigger_of(u), u)));
        for op in self.stream.ops() {
            match w.apply_op(&mut emu, op, None) {
                RunOutcome::Completed(()) => {}
                RunOutcome::Crashed(_) => unreachable!("{DONE}"),
            }
        }
        let matches = w.completed_matches(&mut emu, &self.stream);
        let harvests = emu.take_harvests();
        tr.end(span, harvests.len() as u64);

        let mut facts = DsFacts::default();
        let mut by_unit: Vec<Option<Trial>> = vec![None; units.len()];
        for h in &harvests {
            let idx = units
                .binary_search(&h.unit)
                .expect("harvested unit was scheduled");
            let image = materialize(tr, Self::KEY, &h.image);
            by_unit[idx] = Some(self.crash_trial(tr, h, &image, &mut facts));
        }
        let trials: Vec<Trial> = by_unit
            .into_iter()
            .zip(units)
            .map(|(t, &unit)| {
                t.unwrap_or(Trial {
                    unit,
                    ..completion(matches)
                })
            })
            .collect();

        let mut fact_counts = Vec::new();
        if record {
            let rec = emu.system_mut().take_recorder().expect("recorder attached");
            facts.events = rec.len() as u64;
            let analysis = tr.leaf("analyze", "sanitize", Self::KEY, facts.events, || {
                analyze(rec.events(), &regions)
            });
            fact_counts = trials
                .iter()
                .map(|t| analysis.at_crashes.get(&t.unit).map_or(0, Vec::len))
                .collect();
        }
        tr.end(chunk, units.len() as u64);
        (trials, fact_counts, facts)
    }
}

// ---------------------------------------------------------------------
// dist-jacobi-local replica under the chaotic profile
// (mirror crates/campaign/src/scenarios/dist.rs + dist::trial's batch)
// ---------------------------------------------------------------------

pub struct DistJacobiReplica {
    cfg: JacobiConfig,
}

impl DistJacobiReplica {
    pub const KEY: &'static str = "dist-jacobi-local";
    const TOL: f64 = 1e-9;

    pub fn new() -> DistJacobiReplica {
        DistJacobiReplica {
            cfg: JacobiConfig::campaign_for(RecoveryMode::AlgorithmDirected, FaultProfile::Chaotic),
        }
    }

    fn build(&self) -> (Cluster, DistJacobi) {
        let mut cl = Cluster::new_multi(self.cfg.cluster(), &[]);
        let prog = DistJacobi::setup(&mut cl, self.cfg.clone());
        (cl, prog)
    }

    /// Site-grain block sizes `(singleton, cascade, node_loss)` of the
    /// scenario's unit space.
    fn blocks(&self) -> (u64, u64, u64) {
        let ranks = self.cfg.ranks as u64;
        (ranks * self.cfg.iters * 2, 2 * ranks, ranks)
    }

    /// The units of `units` one forward execution can harvest: singleton
    /// crashes and the dense tail. Cascades and node losses change the
    /// execution itself and run as dedicated trials inside `run_batch`.
    pub fn harvestable(&self, units: &[u64]) -> Vec<u64> {
        let (a, b, c) = self.blocks();
        units
            .iter()
            .copied()
            .filter(|&u| u < a || u >= a + b + c)
            .collect()
    }

    fn rank_of(&self, unit: u64) -> usize {
        let (a, b, c) = self.blocks();
        let ranks = self.cfg.ranks as u64;
        if unit < a {
            (unit % ranks) as usize
        } else {
            ((unit - (a + b + c)) % ranks) as usize
        }
    }

    fn state_bits(kernel: &DistJacobi, cl: &Cluster) -> Vec<u64> {
        kernel
            .resume_state(cl)
            .iter()
            .map(|v| v.to_bits())
            .collect()
    }

    /// Replay one harvested crash state on a forked cluster: recovery,
    /// then the resumed tail, cut short at the first boundary whose resume
    /// state equals the reference's.
    #[allow(clippy::too_many_arguments)]
    fn replay(
        &self,
        tr: &mut Tracer,
        cl: &Cluster,
        kernel: &DistJacobi,
        rank: usize,
        site: CrashSite,
        image: &DeltaImage,
        reference: &[f64],
        states: &[Vec<u64>],
    ) -> Trial {
        let mut f = tr.leaf("dist", "fork", Self::KEY, 1, || cl.fork());
        let mut k = kernel.clone();
        let crash = CrashInfo {
            rank,
            iter: site.index,
            site,
            image: materialize(tr, Self::KEY, image),
            node_loss: f.node_loss(rank),
        };
        let span = tr.begin("dist", "recover", Self::KEY);
        let now_before = f.max_now_ps();
        let recovery = k.recover(&mut f, crash);
        let sim_time_ps = f.max_now_ps().saturating_sub(now_before);
        tr.end(span, 1);

        let span = tr.begin("dist", "resume_tail", Self::KEY);
        let iters = k.iters();
        let entry = recovery.resume_iter;
        let mut on_reference =
            entry >= 2 && Self::state_bits(&k, &f) == states[(entry - 1) as usize];
        let mut supersteps = 0;
        if !on_reference {
            for it in entry..=iters {
                let exchange = it != entry || recovery.resume_exchange;
                let again = run_superstep(&mut k, &mut f, it, exchange);
                assert!(again.is_none(), "forked emulators have no triggers");
                supersteps += 1;
                if Self::state_bits(&k, &f) == states[it as usize] {
                    on_reference = true;
                    break;
                }
            }
        }
        let matches = on_reference || max_diff(&k.solution(&f), reference) < Self::TOL;
        tr.end(span, supersteps);
        Trial {
            unit: 0,
            outcome: classify(recovery.detected, matches, recovery.lost_units),
            lost_units: recovery.lost_units,
            sim_time_ps,
            telemetry: None,
        }
    }

    /// One chunk of harvestable units through the replica of
    /// `run_dist_batch`. `units` must come from [`Self::harvestable`].
    pub fn run_chunk(&self, s: &dyn Scenario, units: &[u64], tr: &mut Tracer) -> Vec<Trial> {
        let chunk = tr.begin("bench", "replica_chunk", Self::KEY);
        let (a, b, c) = self.blocks();
        assert_eq!(s.total_units(), a + b + c, "dist-jacobi-local unit space");

        // The crash-free reference: the public `reference_run` keeps its
        // per-superstep states private, so a second crash-free pass
        // records them through the public `resume_state`.
        let span = tr.begin("dist", "reference_run", Self::KEY);
        let (mut cl0, mut k0) = self.build();
        let reference = reference_run(&mut cl0, &mut k0).solution;
        tr.end(span, 1);
        let span = tr.begin("dist", "reference_states", Self::KEY);
        let (mut cl0, mut k0) = self.build();
        let mut states: Vec<Vec<u64>> = vec![Vec::new()];
        for iter in 1..=k0.iters() {
            assert!(run_superstep(&mut k0, &mut cl0, iter, true).is_none());
            states.push(Self::state_bits(&k0, &cl0));
        }
        tr.end(span, 1);

        let span = tr.begin("dist", "setup", Self::KEY);
        let (mut cl, mut kernel) = self.build();
        for rank in 0..cl.ranks() {
            let pts: Vec<(CrashTrigger, u64)> = units
                .iter()
                .filter(|&&u| self.rank_of(u) == rank)
                .map(|&u| (s.trigger_of(u), u))
                .collect();
            if !pts.is_empty() {
                cl.arm_harvest(rank, pts);
            }
        }
        tr.end(span, 1);

        let mut harvested = 0;
        let mut by_unit: Vec<Option<Trial>> = vec![None; units.len()];
        let forward = tr.begin("dist", "forward_harvest", Self::KEY);
        for iter in 1..=kernel.iters() {
            kernel.compute(&mut cl, iter, true);
            for phase in [adcc_dist::sites::PH_MID, adcc_dist::sites::PH_END] {
                if phase == adcc_dist::sites::PH_END {
                    kernel.commit(&mut cl, iter);
                }
                let fired = poll_phase(&mut cl, phase, iter);
                assert!(fired.is_none(), "harvest plans capture instead of crashing");
                let site = CrashSite::new(phase, iter);
                for rank in 0..cl.ranks() {
                    let harvests = cl.drain_harvests(rank);
                    let Some(first) = harvests.first() else {
                        continue;
                    };
                    // States drained for one rank at one boundary share
                    // one machine state: one replay serves them all.
                    let trial = self.replay(
                        tr,
                        &cl,
                        &kernel,
                        rank,
                        site,
                        &first.image,
                        &reference,
                        &states,
                    );
                    for h in &harvests {
                        let idx = units
                            .binary_search(&h.unit)
                            .expect("harvested unit was scheduled");
                        by_unit[idx] = Some(Trial {
                            unit: h.unit,
                            ..trial
                        });
                        harvested += 1;
                    }
                }
            }
            cl.barrier();
        }
        tr.end(forward, harvested);

        let clean = completion(max_diff(&kernel.solution(&cl), &reference) < Self::TOL);
        let trials = by_unit
            .into_iter()
            .zip(units)
            .map(|(t, &unit)| t.unwrap_or(Trial { unit, ..clean }))
            .collect();
        tr.end(chunk, units.len() as u64);
        trials
    }
}
