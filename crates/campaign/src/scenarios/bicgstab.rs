//! BiCGSTAB scenarios: the algorithm extension with full and bounded
//! (ring-buffer) iteration histories.

use adcc_core::bicgstab::{bicgstab_host, sites, ExtendedBiCgStab};
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

const ITERS: usize = 10;
const WINDOW: usize = 4;
const TOL: f64 = 1e-8;
const PROBLEM_SEED: u64 = 302;
/// Access-count spacing of dense crash points (one full run issues
/// ~156k element accesses; a 16-access stride carries ~9.7k points).
const DENSE_STRIDE: u64 = 16;

/// Dirty-restart residual tolerance. BiCGSTAB's recurrence has no
/// self-correction: continuing on a torn `(x, r, p)` triple rarely comes
/// back to the true solution, which is exactly the contrast the
/// resilience sweep is meant to expose against the contractive kernels.
fn dirty_tolerance() -> Tolerance {
    Tolerance::new(TOL, 1e-4, 1e3)
}

/// Extended BiCGSTAB; `window == iters + 1` is the paper-style full
/// history, smaller windows bound the recovery horizon.
pub struct BiExtended {
    a: CsrMatrix,
    b: Vec<f64>,
    reference: Vec<f64>,
    rho0: f64,
    window: usize,
}

impl BiExtended {
    fn new(window: usize) -> Self {
        let class = CgClass::TEST;
        let a = class.matrix(PROBLEM_SEED);
        let b = class.rhs(&a);
        let reference = bicgstab_host(&a, &b, ITERS);
        let rho0: f64 = b.iter().map(|v| v * v).sum();
        BiExtended {
            a,
            b,
            reference,
            rho0,
            window,
        }
    }

    pub fn new_full() -> Self {
        Self::new(ITERS + 1)
    }

    pub fn new_windowed() -> Self {
        Self::new(WINDOW)
    }

    fn config(&self) -> SystemConfig {
        let n = self.a.n();
        let cap = 3 * (ITERS + 2) * n * 8
            + (ITERS + 2) * 4 * 8
            + self.a.nnz() * 12
            + (n + 1) * 4
            + (2 << 20);
        trim_dram(SystemConfig::nvm_only(16 << 10, cap))
    }

    fn crash_trial(
        &self,
        bi: &ExtendedBiCgStab,
        cfg: SystemConfig,
        image: &NvmImage,
        profile: Option<ExecutionProfile>,
    ) -> Classified {
        let rec = bi.recover_and_resume(image, cfg);
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

const BI_PHASES: [u32; 2] = [sites::PH_AFTER_XR, sites::PH_ITER_END];

impl Scenario for BiExtended {
    fn name(&self) -> &'static str {
        if self.window > ITERS {
            "bicgstab-extended"
        } else {
            "bicgstab-extended-windowed"
        }
    }
    fn kernel(&self) -> Kernel {
        Kernel::BiCgStab
    }
    fn mechanism(&self) -> Mechanism {
        if self.window > ITERS {
            Mechanism::Extended
        } else {
            Mechanism::ExtendedWindowed
        }
    }
    fn unit_space(&self) -> UnitSpace {
        UnitSpace::new((BI_PHASES.len() * ITERS) as u64, DENSE_STRIDE)
    }

    fn site_trigger(&self, unit: u64) -> CrashTrigger {
        let iter = unit / BI_PHASES.len() as u64;
        let phase = BI_PHASES[(unit % BI_PHASES.len() as u64) as usize];
        CrashTrigger::AtSite {
            site: CrashSite::new(phase, iter),
            occurrence: 1,
        }
    }

    fn run_trial(&self, unit: u64, telemetry: bool) -> Trial {
        let cfg = self.config();
        let mut sys = MemorySystem::new(cfg.clone());
        let bi = ExtendedBiCgStab::setup_windowed(&mut sys, &self.a, &self.b, ITERS, self.window);
        let mut emu = CrashEmulator::from_system(sys, self.trigger_of(unit));
        let probe = telemetry.then(|| Probe::attach(&emu));
        match bi.run(&mut emu, 0, ITERS, self.rho0) {
            RunOutcome::Completed(_) => {
                let profile = probe.map(|p| p.finish(&emu));
                let sol = bi.peek_solution(&emu);
                verified_completion(max_diff(&sol, &self.reference) < TOL, unit, profile)
            }
            RunOutcome::Crashed(image) => {
                let profile = probe.map(|p| p.finish(&emu).with_image(&image));
                self.crash_trial(&bi, cfg, &image, profile).for_unit(unit)
            }
        }
    }

    fn run_batch(&self, units: &[u64], telemetry: bool, mem: &ImageMemory) -> Option<Vec<Trial>> {
        let cfg = self.config();
        let mut sys = MemorySystem::new(cfg.clone());
        let bi = ExtendedBiCgStab::setup_windowed(&mut sys, &self.a, &self.b, ITERS, self.window);
        let emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        Some(harness::run_harvested(
            units,
            telemetry,
            mem,
            emu,
            |u| self.trigger_of(u),
            |e| {
                bi.run(e, 0, ITERS, self.rho0)
                    .completed()
                    .expect("Never trigger completes");
            },
            |_k, _site, image, profile| self.crash_trial(&bi, cfg.clone(), image, profile),
            Classified::for_unit,
            |(), e, profile| {
                let sol = bi.peek_solution(e);
                verified_completion(max_diff(&sol, &self.reference) < TOL, 0, profile)
            },
        ))
    }

    fn run_resilience(&self, units: &[u64], mem: &ImageMemory) -> Option<ResilienceBatch> {
        let cfg = self.config();
        let mut sys = MemorySystem::new(cfg.clone());
        let bi = ExtendedBiCgStab::setup_windowed(&mut sys, &self.a, &self.b, ITERS, self.window);
        let emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        let tolerance = dirty_tolerance();
        let trials = harness::run_dirty(
            units,
            mem,
            emu,
            |u| self.trigger_of(u),
            |e| {
                bi.run(e, 0, ITERS, self.rho0)
                    .completed()
                    .expect("Never trigger completes");
            },
            |image| {
                let d = bi.dirty_restart(image, cfg.clone());
                harness::classify_dirty(&d, &self.reference, &tolerance)
            },
        );
        Some(ResilienceBatch { trials, tolerance })
    }
}
