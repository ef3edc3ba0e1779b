//! CG scenarios: algorithm-directed extension, per-iteration checkpoint,
//! and PMDK-style undo-log transactions.

use adcc_ckpt::manager::CkptManager;
use adcc_core::cg::{cg_host, sites, ExtendedCg, PlainCg};
use adcc_linalg::csr::CsrMatrix;
use adcc_linalg::spd::CgClass;
use adcc_pmem::stats::LogStats;
use adcc_pmem::undo::UndoPool;
use adcc_sim::crash::{CrashEmulator, CrashSite, CrashTrigger, RunOutcome};
use adcc_sim::image::NvmImage;
use adcc_sim::system::{MemorySystem, SystemConfig};
use adcc_telemetry::{ExecutionProfile, Probe};

use adcc_resilience::Tolerance;

use super::harness::{self, Classified};
use super::{max_diff, trim_dram, verified_completion};
use crate::memstats::ImageMemory;
use crate::outcome::classify;
use crate::scenario::{Kernel, Mechanism, ResilienceBatch, Scenario, Trial, UnitSpace};

const ITERS: usize = 12;
const TOL: f64 = 1e-9;
const PROBLEM_SEED: u64 = 301;
/// Access-count spacing of dense crash points. One full CG run on the
/// TEST problem issues ~100k element accesses, so a 10-access stride
/// carries ~10k dense points before spilling past the run.
const DENSE_STRIDE: u64 = 10;

fn problem() -> (CsrMatrix, Vec<f64>, Vec<f64>) {
    let class = CgClass::TEST;
    let a = class.matrix(PROBLEM_SEED);
    let b = class.rhs(&a);
    let reference = cg_host(&a, &b, ITERS);
    (a, b, reference)
}

/// Dirty-restart residual tolerance. Krylov continuation on a torn
/// history rarely lands back on the exact trajectory, so `acceptable` is
/// loose relative to the verification tolerance; anything past the
/// divergence bound is a blow-up, not an answer.
fn dirty_tolerance() -> Tolerance {
    Tolerance::new(TOL, 1e-4, 1e3)
}

fn config(a: &CsrMatrix) -> SystemConfig {
    // History (4 arrays × (iters + 2) rows) + matrix + vectors + slack:
    // small enough that per-trial crash images stay a ~3 MB memcpy.
    let cap = 4 * (ITERS + 2) * a.n() * 8 + a.nnz() * 12 + (a.n() + 1) * 4 + (2 << 20);
    trim_dram(SystemConfig::nvm_only(16 << 10, cap))
}

// ---------------------------------------------------------------------
// cg-extended
// ---------------------------------------------------------------------

/// Extended CG with invariant-scan recovery; crash points sweep the four
/// instrumented statements of every iteration.
pub struct CgExtended {
    a: CsrMatrix,
    b: Vec<f64>,
    reference: Vec<f64>,
}

impl CgExtended {
    pub fn new() -> Self {
        let (a, b, reference) = problem();
        CgExtended { a, b, reference }
    }

    fn crash_trial(
        &self,
        cg: &ExtendedCg,
        cfg: SystemConfig,
        image: &NvmImage,
        profile: Option<ExecutionProfile>,
    ) -> Classified {
        let rec = cg.recover_and_resume(image, cfg);
        let matches = max_diff(&rec.solution.z, &self.reference) < TOL;
        let detected = rec.restart_from.is_none();
        Classified {
            outcome: classify(detected, matches, rec.report.lost_units),
            lost_units: rec.report.lost_units,
            sim_time_ps: rec.report.total().ps(),
            telemetry: profile,
        }
    }
}

impl Default for CgExtended {
    fn default() -> Self {
        Self::new()
    }
}

const CG_PHASES: [u32; 4] = [
    sites::PH_AFTER_Q,
    sites::PH_AFTER_Z,
    sites::PH_AFTER_R,
    sites::PH_LINE10,
];

impl Scenario for CgExtended {
    fn name(&self) -> &'static str {
        "cg-extended"
    }
    fn kernel(&self) -> Kernel {
        Kernel::Cg
    }
    fn mechanism(&self) -> Mechanism {
        Mechanism::Extended
    }
    fn unit_space(&self) -> UnitSpace {
        UnitSpace::new((CG_PHASES.len() * ITERS) as u64, DENSE_STRIDE)
    }

    fn site_trigger(&self, unit: u64) -> CrashTrigger {
        let iter = unit / CG_PHASES.len() as u64;
        let phase = CG_PHASES[(unit % CG_PHASES.len() as u64) as usize];
        CrashTrigger::AtSite {
            site: CrashSite::new(phase, iter),
            occurrence: 1,
        }
    }

    fn run_trial(&self, unit: u64, telemetry: bool) -> Trial {
        let cfg = config(&self.a);
        let mut sys = MemorySystem::new(cfg.clone());
        let (cg, rho0) = ExtendedCg::setup(&mut sys, &self.a, &self.b, ITERS);
        let mut emu = CrashEmulator::from_system(sys, self.trigger_of(unit));
        let probe = telemetry.then(|| Probe::attach(&emu));
        match cg.run(&mut emu, 0, ITERS, rho0) {
            RunOutcome::Completed(rho) => {
                let profile = probe.map(|p| p.finish(&emu));
                let sol = cg.peek_solution(&emu, rho);
                verified_completion(max_diff(&sol.z, &self.reference) < TOL, unit, profile)
            }
            RunOutcome::Crashed(image) => {
                let profile = probe.map(|p| p.finish(&emu).with_image(&image));
                self.crash_trial(&cg, cfg, &image, profile).for_unit(unit)
            }
        }
    }

    fn run_batch(&self, units: &[u64], telemetry: bool, mem: &ImageMemory) -> Option<Vec<Trial>> {
        let cfg = config(&self.a);
        let mut sys = MemorySystem::new(cfg.clone());
        let (cg, rho0) = ExtendedCg::setup(&mut sys, &self.a, &self.b, ITERS);
        let emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        Some(harness::run_harvested(
            units,
            telemetry,
            mem,
            emu,
            |u| self.trigger_of(u),
            |e| {
                cg.run(e, 0, ITERS, rho0)
                    .completed()
                    .expect("Never trigger completes")
            },
            |_k, _site, image, profile| self.crash_trial(&cg, cfg.clone(), image, profile),
            Classified::for_unit,
            |rho, e, profile| {
                let sol = cg.peek_solution(e, rho);
                verified_completion(max_diff(&sol.z, &self.reference) < TOL, 0, profile)
            },
        ))
    }

    fn run_resilience(&self, units: &[u64], mem: &ImageMemory) -> Option<ResilienceBatch> {
        let cfg = config(&self.a);
        let mut sys = MemorySystem::new(cfg.clone());
        let (cg, rho0) = ExtendedCg::setup(&mut sys, &self.a, &self.b, ITERS);
        let emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        let tolerance = dirty_tolerance();
        let trials = harness::run_dirty(
            units,
            mem,
            emu,
            |u| self.trigger_of(u),
            |e| {
                cg.run(e, 0, ITERS, rho0)
                    .completed()
                    .expect("Never trigger completes");
            },
            |image| {
                let d = cg.dirty_restart(image, cfg.clone());
                harness::classify_dirty(&d, &self.reference, &tolerance)
            },
        );
        Some(ResilienceBatch { trials, tolerance })
    }
}

// ---------------------------------------------------------------------
// cg-ckpt
// ---------------------------------------------------------------------

/// Plain CG with a double-buffered NVM checkpoint every iteration.
/// Even units crash after the step but before the checkpoint (one
/// iteration lost); odd units crash right after it (nothing lost).
pub struct CgCkpt {
    a: CsrMatrix,
    b: Vec<f64>,
    reference: Vec<f64>,
}

impl CgCkpt {
    pub fn new() -> Self {
        let (a, b, reference) = problem();
        CgCkpt { a, b, reference }
    }

    /// Iterations whose step had completed when the crash landed at
    /// `site`: both polled sites (`PH_LINE10` before the checkpoint,
    /// `PH_ITER_END` after it) sit after iteration `index`'s step.
    fn completed_steps(site: CrashSite) -> u64 {
        site.index + 1
    }

    #[allow(clippy::too_many_arguments)]
    fn crash_trial(
        &self,
        cg: &PlainCg,
        mgr: &mut CkptManager,
        cfg: SystemConfig,
        rho0: f64,
        completed: u64,
        image: &NvmImage,
        profile: Option<ExecutionProfile>,
    ) -> Classified {
        let sys2 = MemorySystem::from_image(cfg, image);
        let mut emu2 = CrashEmulator::from_system(sys2, CrashTrigger::Never);
        let t0 = emu2.now();
        let (start, mut rho, restored) =
            adcc_core::cg::variants::ckpt_restore(&mut emu2, cg, rho0, mgr);
        for _ in start..ITERS {
            rho = cg.step(&mut emu2, rho);
        }
        let sim_time_ps = (emu2.now() - t0).ps();

        // Completed-but-uncheckpointed iterations are re-executed.
        let lost = completed.saturating_sub(start as u64);
        let matches = max_diff(&cg.peek_solution(&emu2), &self.reference) < TOL;
        Classified {
            outcome: classify(!restored, matches, lost),
            lost_units: lost,
            sim_time_ps,
            telemetry: profile,
        }
    }
}

impl Default for CgCkpt {
    fn default() -> Self {
        Self::new()
    }
}

impl Scenario for CgCkpt {
    fn name(&self) -> &'static str {
        "cg-ckpt"
    }
    fn kernel(&self) -> Kernel {
        Kernel::Cg
    }
    fn mechanism(&self) -> Mechanism {
        Mechanism::Checkpoint
    }
    fn unit_space(&self) -> UnitSpace {
        UnitSpace::new(2 * ITERS as u64, DENSE_STRIDE)
    }

    fn site_trigger(&self, unit: u64) -> CrashTrigger {
        let iter = unit / 2;
        let phase = if unit.is_multiple_of(2) {
            sites::PH_LINE10
        } else {
            sites::PH_ITER_END
        };
        CrashTrigger::AtSite {
            site: CrashSite::new(phase, iter),
            occurrence: 1,
        }
    }

    fn run_trial(&self, unit: u64, telemetry: bool) -> Trial {
        let cfg = config(&self.a);
        let mut sys = MemorySystem::new(cfg.clone());
        let (cg, rho0) = PlainCg::setup(&mut sys, &self.a, &self.b, ITERS);
        let mut mgr = CkptManager::new_nvm(&mut sys, cg.ckpt_regions(), false);
        let mut emu = CrashEmulator::from_system(sys, self.trigger_of(unit));
        let probe = telemetry.then(|| Probe::attach(&emu));
        let image = match adcc_core::cg::variants::run_with_ckpt(&mut emu, &cg, rho0, &mut mgr) {
            RunOutcome::Completed(_) => {
                let profile = probe.map(|p| p.finish(&emu));
                let sol = cg.peek_solution(&emu);
                return verified_completion(max_diff(&sol, &self.reference) < TOL, unit, profile);
            }
            RunOutcome::Crashed(image) => image,
        };
        let profile = probe.map(|p| p.finish(&emu).with_image(&image));
        let completed = Self::completed_steps(emu.fired_site().expect("crashed"));
        self.crash_trial(&cg, &mut mgr, cfg, rho0, completed, &image, profile)
            .for_unit(unit)
    }

    fn run_batch(&self, units: &[u64], telemetry: bool, mem: &ImageMemory) -> Option<Vec<Trial>> {
        let cfg = config(&self.a);
        let mut sys = MemorySystem::new(cfg.clone());
        let (cg, rho0) = PlainCg::setup(&mut sys, &self.a, &self.b, ITERS);
        let mgr = CkptManager::new_nvm(&mut sys, cg.ckpt_regions(), false);
        let mgr = std::cell::RefCell::new(mgr);
        let emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        Some(harness::run_harvested(
            units,
            telemetry,
            mem,
            emu,
            |u| self.trigger_of(u),
            |e| {
                adcc_core::cg::variants::run_with_ckpt(e, &cg, rho0, &mut mgr.borrow_mut())
                    .completed()
                    .expect("Never trigger completes")
            },
            |_k, site, image, profile| {
                self.crash_trial(
                    &cg,
                    &mut mgr.borrow_mut(),
                    cfg.clone(),
                    rho0,
                    Self::completed_steps(site),
                    image,
                    profile,
                )
            },
            Classified::for_unit,
            |_rho, e, profile| {
                let sol = cg.peek_solution(e);
                verified_completion(max_diff(&sol, &self.reference) < TOL, 0, profile)
            },
        ))
    }

    fn run_resilience(&self, units: &[u64], mem: &ImageMemory) -> Option<ResilienceBatch> {
        let cfg = config(&self.a);
        let mut sys = MemorySystem::new(cfg.clone());
        let (cg, rho0) = PlainCg::setup(&mut sys, &self.a, &self.b, ITERS);
        let mgr = CkptManager::new_nvm(&mut sys, cg.ckpt_regions(), false);
        let mgr = std::cell::RefCell::new(mgr);
        let emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        let tolerance = dirty_tolerance();
        let trials = harness::run_dirty(
            units,
            mem,
            emu,
            |u| self.trigger_of(u),
            |e| {
                adcc_core::cg::variants::run_with_ckpt(e, &cg, rho0, &mut mgr.borrow_mut())
                    .completed()
                    .expect("Never trigger completes");
            },
            |image| {
                let d = cg.dirty_restart(image, cfg.clone(), rho0);
                harness::classify_dirty(&d, &self.reference, &tolerance)
            },
        );
        Some(ResilienceBatch { trials, tolerance })
    }
}

// ---------------------------------------------------------------------
// cg-pmem
// ---------------------------------------------------------------------

/// Plain CG with every iteration in an undo-log transaction, crash points
/// inside and at the end of the transaction. Mirrors
/// `adcc_core::cg::variants::run_with_pmem` but polls *inside* the
/// transaction too, so the campaign exercises mid-transaction rollback.
pub struct CgPmem {
    a: CsrMatrix,
    b: Vec<f64>,
    reference: Vec<f64>,
}

impl CgPmem {
    pub fn new() -> Self {
        let (a, b, reference) = problem();
        CgPmem { a, b, reference }
    }
}

impl Default for CgPmem {
    fn default() -> Self {
        Self::new()
    }
}

const PMEM_PHASES: [u32; 4] = [
    sites::PH_AFTER_Z,
    sites::PH_AFTER_R,
    sites::PH_LINE10,
    sites::PH_ITER_END,
];

/// Record the undo pool's log counters for every harvest the emulator just
/// captured (`logs[k]` belongs to harvest `k`). Log state cannot change
/// between the capturing poll and this call, so the sample is exact.
fn note_logs(emu: &CrashEmulator, pool: &UndoPool, logs: &mut Option<&mut Vec<LogStats>>) {
    if let Some(logs) = logs {
        while logs.len() < emu.harvest_count() {
            logs.push(pool.log_stats());
        }
    }
}

impl CgPmem {
    /// One undo-logged CG iteration with in-transaction crash polls.
    fn pmem_iteration(
        &self,
        cg: &PlainCg,
        emu: &mut CrashEmulator,
        pool: &mut UndoPool,
        i: usize,
        rho: f64,
        mut logs: Option<&mut Vec<LogStats>>,
    ) -> RunOutcome<f64> {
        pool.tx_begin(emu);
        cg.a.spmv(emu, cg.p, cg.q);
        let pq = adcc_linalg::simops::dot(emu, cg.p, cg.q);
        let alpha = rho / pq;
        for j in 0..cg.n {
            pool.tx_add_range(emu, cg.z.addr(j), 8);
            let v = cg.z.get(emu, j) + alpha * cg.p.get(emu, j);
            cg.z.set(emu, j, v);
        }
        let crashed = emu.poll(CrashSite::new(sites::PH_AFTER_Z, i as u64));
        note_logs(emu, pool, &mut logs);
        if crashed {
            return RunOutcome::Crashed(emu.crash_now());
        }
        for j in 0..cg.n {
            pool.tx_add_range(emu, cg.r.addr(j), 8);
            let v = cg.r.get(emu, j) - alpha * cg.q.get(emu, j);
            cg.r.set(emu, j, v);
        }
        let crashed = emu.poll(CrashSite::new(sites::PH_AFTER_R, i as u64));
        note_logs(emu, pool, &mut logs);
        if crashed {
            return RunOutcome::Crashed(emu.crash_now());
        }
        emu.charge_flops(4 * cg.n as u64);
        let rho_new = adcc_linalg::simops::dot(emu, cg.r, cg.r);
        let beta = rho_new / rho;
        for j in 0..cg.n {
            pool.tx_add_range(emu, cg.p.addr(j), 8);
            let v = cg.r.get(emu, j) + beta * cg.p.get(emu, j);
            cg.p.set(emu, j, v);
        }
        emu.charge_flops(2 * cg.n as u64);
        let crashed = emu.poll(CrashSite::new(sites::PH_LINE10, i as u64));
        note_logs(emu, pool, &mut logs);
        if crashed {
            return RunOutcome::Crashed(emu.crash_now());
        }
        pool.tx_add_range(emu, cg.rho_cell.addr(), 8);
        pool.tx_add_range(emu, cg.iter_cell.addr(), 8);
        cg.rho_cell.set(emu, rho_new);
        cg.iter_cell.set(emu, (i + 1) as u64);
        pool.tx_commit(emu);
        let crashed = emu.poll(CrashSite::new(sites::PH_ITER_END, i as u64));
        note_logs(emu, pool, &mut logs);
        if crashed {
            return RunOutcome::Crashed(emu.crash_now());
        }
        RunOutcome::Completed(rho_new)
    }

    /// Recovery + classification for one crash state. `iter` is the
    /// iteration the crash landed in (from the fired/harvested site).
    #[allow(clippy::too_many_arguments)]
    fn crash_trial(
        &self,
        cg: &PlainCg,
        layout: adcc_pmem::undo::UndoPoolLayout,
        cfg: SystemConfig,
        rho0: f64,
        iter: u64,
        image: &NvmImage,
        profile: Option<ExecutionProfile>,
    ) -> Classified {
        let mut sys2 = MemorySystem::from_image(cfg, image);
        let t0 = sys2.now();
        UndoPool::recover(layout, &mut sys2);
        let committed = cg.iter_cell.get(&mut sys2) as usize;
        let mut rho = if committed == 0 {
            rho0
        } else {
            cg.rho_cell.get(&mut sys2)
        };
        let mut emu2 = CrashEmulator::from_system(sys2, CrashTrigger::Never);
        for _ in committed..ITERS {
            rho = cg.step(&mut emu2, rho);
        }
        let sim_time_ps = (emu2.now() - t0).ps();

        // The in-flight transaction (if any) rolls back and its iteration
        // is re-executed: mid-transaction crashes at iteration `i` leave
        // `committed == i` (one lost), ITER_END crashes land post-commit
        // with `committed == i + 1` (nothing lost).
        let lost = (iter + 1).saturating_sub(committed as u64);
        let matches = max_diff(&cg.peek_solution(&emu2), &self.reference) < TOL;
        Classified {
            outcome: classify(false, matches, lost),
            lost_units: lost,
            sim_time_ps,
            telemetry: profile,
        }
    }
}

impl Scenario for CgPmem {
    fn name(&self) -> &'static str {
        "cg-pmem"
    }
    fn kernel(&self) -> Kernel {
        Kernel::Cg
    }
    fn mechanism(&self) -> Mechanism {
        Mechanism::Pmem
    }
    fn unit_space(&self) -> UnitSpace {
        UnitSpace::new((PMEM_PHASES.len() * ITERS) as u64, DENSE_STRIDE)
    }

    fn site_trigger(&self, unit: u64) -> CrashTrigger {
        let iter = unit / PMEM_PHASES.len() as u64;
        let phase = PMEM_PHASES[(unit % PMEM_PHASES.len() as u64) as usize];
        CrashTrigger::AtSite {
            site: CrashSite::new(phase, iter),
            occurrence: 1,
        }
    }

    fn run_trial(&self, unit: u64, telemetry: bool) -> Trial {
        let cfg = config(&self.a);
        let mut sys = MemorySystem::new(cfg.clone());
        let (cg, rho0) = PlainCg::setup(&mut sys, &self.a, &self.b, ITERS);
        let lines = 3 * (cg.n * 8).div_ceil(64) + 8;
        let mut pool = UndoPool::new(&mut sys, lines);
        let layout = pool.layout();
        let mut emu = CrashEmulator::from_system(sys, self.trigger_of(unit));
        let probe = telemetry.then(|| Probe::attach(&emu));
        let mut rho = rho0;
        let mut crash: Option<NvmImage> = None;
        for i in 0..ITERS {
            match self.pmem_iteration(&cg, &mut emu, &mut pool, i, rho, None) {
                RunOutcome::Completed(r) => rho = r,
                RunOutcome::Crashed(image) => {
                    crash = Some(image);
                    break;
                }
            }
        }
        let Some(image) = crash else {
            let profile = probe.map(|p| p.finish(&emu).with_log(pool.log_stats()));
            let sol = cg.peek_solution(&emu);
            return verified_completion(max_diff(&sol, &self.reference) < TOL, unit, profile);
        };
        let profile = probe.map(|p| p.finish(&emu).with_image(&image).with_log(pool.log_stats()));
        let iter = emu.fired_site().expect("crashed").index;
        self.crash_trial(&cg, layout, cfg, rho0, iter, &image, profile)
            .for_unit(unit)
    }

    fn run_batch(&self, units: &[u64], telemetry: bool, mem: &ImageMemory) -> Option<Vec<Trial>> {
        let cfg = config(&self.a);
        let mut sys = MemorySystem::new(cfg.clone());
        let (cg, rho0) = PlainCg::setup(&mut sys, &self.a, &self.b, ITERS);
        let lines = 3 * (cg.n * 8).div_ceil(64) + 8;
        let pool = std::cell::RefCell::new(UndoPool::new(&mut sys, lines));
        let layout = pool.borrow().layout();
        // Sidecar per-harvest undo-log counters (the emulator cannot see
        // the pool): `logs[k]` is the log state at harvest `k`'s instant.
        let logs: std::cell::RefCell<Vec<LogStats>> = std::cell::RefCell::new(Vec::new());
        let emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        Some(harness::run_harvested(
            units,
            telemetry,
            mem,
            emu,
            |u| self.trigger_of(u),
            |e| {
                let mut pool = pool.borrow_mut();
                let mut logs = logs.borrow_mut();
                let mut rho = rho0;
                for i in 0..ITERS {
                    match self.pmem_iteration(&cg, e, &mut pool, i, rho, Some(&mut *logs)) {
                        RunOutcome::Completed(r) => rho = r,
                        RunOutcome::Crashed(_) => unreachable!("Never trigger"),
                    }
                }
            },
            |k, site, image, profile| {
                let profile = profile.map(|p| p.with_log(logs.borrow()[k]));
                self.crash_trial(&cg, layout, cfg.clone(), rho0, site.index, image, profile)
            },
            Classified::for_unit,
            |(), e, profile| {
                let profile = profile.map(|p| p.with_log(pool.borrow().log_stats()));
                let sol = cg.peek_solution(e);
                verified_completion(max_diff(&sol, &self.reference) < TOL, 0, profile)
            },
        ))
    }

    fn run_resilience(&self, units: &[u64], mem: &ImageMemory) -> Option<ResilienceBatch> {
        let cfg = config(&self.a);
        let mut sys = MemorySystem::new(cfg.clone());
        let (cg, rho0) = PlainCg::setup(&mut sys, &self.a, &self.b, ITERS);
        let lines = 3 * (cg.n * 8).div_ceil(64) + 8;
        let pool = std::cell::RefCell::new(UndoPool::new(&mut sys, lines));
        let emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        let tolerance = dirty_tolerance();
        let trials = harness::run_dirty(
            units,
            mem,
            emu,
            |u| self.trigger_of(u),
            |e| {
                let mut pool = pool.borrow_mut();
                let mut rho = rho0;
                for i in 0..ITERS {
                    match self.pmem_iteration(&cg, e, &mut pool, i, rho, None) {
                        RunOutcome::Completed(r) => rho = r,
                        RunOutcome::Crashed(_) => unreachable!("Never trigger"),
                    }
                }
            },
            |image| {
                let d = cg.dirty_restart(image, cfg.clone(), rho0);
                harness::classify_dirty(&d, &self.reference, &tolerance)
            },
        );
        Some(ResilienceBatch { trials, tolerance })
    }
}
