//! Jacobi scenarios: algorithm extension and per-iteration checkpoint.

use std::cell::RefCell;

use adcc_ckpt::manager::CkptManager;
use adcc_core::jacobi::{jacobi_host, sites, ExtendedJacobi, PlainJacobi};
use adcc_linalg::csr::CsrMatrix;
use adcc_linalg::spd::CgClass;
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
const PROBLEM_SEED: u64 = 303;
/// Access-count spacing of dense crash points (one full run issues
/// ~79k element accesses; an 8-access stride carries ~9.8k points).
const DENSE_STRIDE: u64 = 8;

fn problem() -> (CsrMatrix, Vec<f64>, Vec<f64>) {
    let class = CgClass::TEST;
    let a = class.matrix(PROBLEM_SEED);
    let b = class.rhs(&a);
    let reference = jacobi_host(&a, &b, ITERS);
    (a, b, reference)
}

/// Dirty-restart residual tolerance. Weighted Jacobi is a fixed-point
/// contraction: stale or torn iterates are perturbations the remaining
/// iterations damp, so a loose `acceptable` band captures the natural
/// resilience the EasyCrash argument predicts.
fn dirty_tolerance() -> Tolerance {
    Tolerance::new(TOL, 1e-2, 1e3)
}

fn config(a: &CsrMatrix) -> SystemConfig {
    let cap = (ITERS + 2) * a.n() * 8 + a.nnz() * 12 + (a.n() + 1) * 4 + (2 << 20);
    trim_dram(SystemConfig::nvm_only(16 << 10, cap))
}

// ---------------------------------------------------------------------
// jacobi-extended
// ---------------------------------------------------------------------

/// Extended Jacobi (iterate-history ring) with update-equation recovery.
pub struct JacobiExtended {
    a: CsrMatrix,
    b: Vec<f64>,
    reference: Vec<f64>,
}

impl JacobiExtended {
    pub fn new() -> Self {
        let (a, b, reference) = problem();
        JacobiExtended { a, b, reference }
    }

    fn crash_trial(
        &self,
        jac: &ExtendedJacobi,
        cfg: SystemConfig,
        image: &NvmImage,
        profile: Option<ExecutionProfile>,
    ) -> Classified {
        let rec = jac.recover_and_resume(image, cfg);
        let matches = max_diff(&rec.solution, &self.reference) < TOL;
        let detected = rec.restart_from.is_none();
        Classified {
            outcome: classify(detected, matches, rec.report.lost_units),
            lost_units: rec.report.lost_units,
            sim_time_ps: rec.report.total().ps(),
            telemetry: profile,
        }
    }
}

impl Default for JacobiExtended {
    fn default() -> Self {
        Self::new()
    }
}

impl Scenario for JacobiExtended {
    fn name(&self) -> &'static str {
        "jacobi-extended"
    }
    fn kernel(&self) -> Kernel {
        Kernel::Jacobi
    }
    fn mechanism(&self) -> Mechanism {
        Mechanism::Extended
    }
    fn unit_space(&self) -> UnitSpace {
        UnitSpace::new(ITERS as u64, DENSE_STRIDE)
    }

    fn site_trigger(&self, unit: u64) -> CrashTrigger {
        CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_AFTER_X, unit),
            occurrence: 1,
        }
    }

    fn run_trial(&self, unit: u64, telemetry: bool) -> Trial {
        let cfg = config(&self.a);
        let mut sys = MemorySystem::new(cfg.clone());
        let jac = ExtendedJacobi::setup(&mut sys, &self.a, &self.b, ITERS);
        let mut emu = CrashEmulator::from_system(sys, self.trigger_of(unit));
        let probe = telemetry.then(|| Probe::attach(&emu));
        match jac.run(&mut emu, 0, ITERS) {
            RunOutcome::Completed(()) => {
                let profile = probe.map(|p| p.finish(&emu));
                let sol = jac.peek_solution(&emu);
                verified_completion(max_diff(&sol, &self.reference) < TOL, unit, profile)
            }
            RunOutcome::Crashed(image) => {
                let profile = probe.map(|p| p.finish(&emu).with_image(&image));
                self.crash_trial(&jac, cfg, &image, profile).for_unit(unit)
            }
        }
    }

    fn run_batch(&self, units: &[u64], telemetry: bool, mem: &ImageMemory) -> Option<Vec<Trial>> {
        let cfg = config(&self.a);
        let mut sys = MemorySystem::new(cfg.clone());
        let jac = ExtendedJacobi::setup(&mut sys, &self.a, &self.b, ITERS);
        let emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        Some(harness::run_harvested(
            units,
            telemetry,
            mem,
            emu,
            |u| self.trigger_of(u),
            |e| {
                jac.run(e, 0, ITERS)
                    .completed()
                    .expect("Never trigger completes");
            },
            |_k, _site, image, profile| self.crash_trial(&jac, cfg.clone(), image, profile),
            Classified::for_unit,
            |(), e, profile| {
                let sol = jac.peek_solution(e);
                verified_completion(max_diff(&sol, &self.reference) < TOL, 0, profile)
            },
        ))
    }

    fn run_resilience(&self, units: &[u64], mem: &ImageMemory) -> Option<ResilienceBatch> {
        let cfg = config(&self.a);
        let mut sys = MemorySystem::new(cfg.clone());
        let jac = ExtendedJacobi::setup(&mut sys, &self.a, &self.b, ITERS);
        let emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        let tolerance = dirty_tolerance();
        let trials = harness::run_dirty(
            units,
            mem,
            emu,
            |u| self.trigger_of(u),
            |e| {
                jac.run(e, 0, ITERS)
                    .completed()
                    .expect("Never trigger completes");
            },
            |image| {
                let d = jac.dirty_restart(image, cfg.clone());
                harness::classify_dirty(&d, &self.reference, &tolerance)
            },
        );
        Some(ResilienceBatch { trials, tolerance })
    }
}

// ---------------------------------------------------------------------
// jacobi-ckpt
// ---------------------------------------------------------------------

/// Plain Jacobi with a checkpoint of `x` every iteration. Even units
/// crash before the checkpoint, odd units after it.
pub struct JacobiCkpt {
    a: CsrMatrix,
    b: Vec<f64>,
    reference: Vec<f64>,
}

impl JacobiCkpt {
    pub fn new() -> Self {
        let (a, b, reference) = problem();
        JacobiCkpt { a, b, reference }
    }

    /// Iterations whose step had completed when the crash landed at
    /// `site`: both polled sites (`PH_AFTER_X` before the checkpoint,
    /// `PH_ITER_END` after it) sit after iteration `index`'s step.
    fn completed_steps(site: CrashSite) -> u64 {
        site.index + 1
    }

    #[allow(clippy::too_many_arguments)]
    fn crash_trial(
        &self,
        jac: &PlainJacobi,
        mgr: &mut CkptManager,
        cfg: SystemConfig,
        completed: u64,
        image: &NvmImage,
        profile: Option<ExecutionProfile>,
    ) -> Classified {
        let sys2 = MemorySystem::from_image(cfg, image);
        let mut emu2 = CrashEmulator::from_system(sys2, CrashTrigger::Never);
        let t0 = emu2.now();
        let (start, restored) = adcc_core::jacobi::variants::ckpt_restore(&mut emu2, jac, mgr);
        for _ in start..ITERS {
            jac.step(&mut emu2);
        }
        let sim_time_ps = (emu2.now() - t0).ps();

        let lost = completed.saturating_sub(start as u64);
        let matches = max_diff(&jac.peek_solution(&emu2), &self.reference) < TOL;
        Classified {
            outcome: classify(!restored, matches, lost),
            lost_units: lost,
            sim_time_ps,
            telemetry: profile,
        }
    }
}

impl Default for JacobiCkpt {
    fn default() -> Self {
        Self::new()
    }
}

impl Scenario for JacobiCkpt {
    fn name(&self) -> &'static str {
        "jacobi-ckpt"
    }
    fn kernel(&self) -> Kernel {
        Kernel::Jacobi
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
            sites::PH_AFTER_X
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
        let jac = PlainJacobi::setup(&mut sys, &self.a, &self.b, ITERS);
        let mut mgr = CkptManager::new_nvm(&mut sys, jac.ckpt_regions(), false);
        let mut emu = CrashEmulator::from_system(sys, self.trigger_of(unit));
        let probe = telemetry.then(|| Probe::attach(&emu));
        let image = match adcc_core::jacobi::variants::run_with_ckpt(&mut emu, &jac, &mut mgr) {
            RunOutcome::Completed(()) => {
                let profile = probe.map(|p| p.finish(&emu));
                let sol = jac.peek_solution(&emu);
                return verified_completion(max_diff(&sol, &self.reference) < TOL, unit, profile);
            }
            RunOutcome::Crashed(image) => image,
        };
        let profile = probe.map(|p| p.finish(&emu).with_image(&image));
        let completed = Self::completed_steps(emu.fired_site().expect("crashed"));
        self.crash_trial(&jac, &mut mgr, cfg, completed, &image, profile)
            .for_unit(unit)
    }

    fn run_batch(&self, units: &[u64], telemetry: bool, mem: &ImageMemory) -> Option<Vec<Trial>> {
        let cfg = config(&self.a);
        let mut sys = MemorySystem::new(cfg.clone());
        let jac = PlainJacobi::setup(&mut sys, &self.a, &self.b, ITERS);
        let mgr = RefCell::new(CkptManager::new_nvm(&mut sys, jac.ckpt_regions(), false));
        let emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        Some(harness::run_harvested(
            units,
            telemetry,
            mem,
            emu,
            |u| self.trigger_of(u),
            |e| {
                adcc_core::jacobi::variants::run_with_ckpt(e, &jac, &mut mgr.borrow_mut())
                    .completed()
                    .expect("Never trigger completes");
            },
            |_k, site, image, profile| {
                self.crash_trial(
                    &jac,
                    &mut mgr.borrow_mut(),
                    cfg.clone(),
                    Self::completed_steps(site),
                    image,
                    profile,
                )
            },
            Classified::for_unit,
            |(), e, profile| {
                let sol = jac.peek_solution(e);
                verified_completion(max_diff(&sol, &self.reference) < TOL, 0, profile)
            },
        ))
    }

    fn run_resilience(&self, units: &[u64], mem: &ImageMemory) -> Option<ResilienceBatch> {
        let cfg = config(&self.a);
        let mut sys = MemorySystem::new(cfg.clone());
        let jac = PlainJacobi::setup(&mut sys, &self.a, &self.b, ITERS);
        let mgr = RefCell::new(CkptManager::new_nvm(&mut sys, jac.ckpt_regions(), false));
        let emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        let tolerance = dirty_tolerance();
        let trials = harness::run_dirty(
            units,
            mem,
            emu,
            |u| self.trigger_of(u),
            |e| {
                adcc_core::jacobi::variants::run_with_ckpt(e, &jac, &mut mgr.borrow_mut())
                    .completed()
                    .expect("Never trigger completes");
            },
            |image| {
                let d = jac.dirty_restart(image, cfg.clone());
                harness::classify_dirty(&d, &self.reference, &tolerance)
            },
        );
        Some(ResilienceBatch { trials, tolerance })
    }
}
