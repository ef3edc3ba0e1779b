//! BiCGSTAB scenarios: the algorithm extension with full and bounded
//! (ring-buffer) iteration histories.

use adcc_core::bicgstab::{bicgstab_host, sites, ExtendedBiCgStab};
use adcc_core::DirtyRestart;
use adcc_linalg::csr::CsrMatrix;
use adcc_linalg::spd::CgClass;
use adcc_resilience::Tolerance;
use adcc_sim::crash::{CrashEmulator, CrashSite, CrashTrigger, RunOutcome};
use adcc_sim::image::NvmImage;
use adcc_sim::system::{MemorySystem, SystemConfig};
use adcc_telemetry::ExecutionProfile;

use super::harness::{Classified, Workload};
use super::{max_diff, trim_dram, verified_completion};
use crate::scenario::{Kernel, Mechanism, Trial, UnitSpace};

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
}

const BI_PHASES: [u32; 2] = [sites::PH_AFTER_XR, sites::PH_ITER_END];

impl Workload for BiExtended {
    type Live = ExtendedBiCgStab;
    type End = f64;
    type State = Classified;

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

    fn setup(&self, trigger: CrashTrigger) -> (CrashEmulator, ExtendedBiCgStab) {
        let mut sys = MemorySystem::new(self.config());
        let bi = ExtendedBiCgStab::setup_windowed(&mut sys, &self.a, &self.b, ITERS, self.window);
        (CrashEmulator::from_system(sys, trigger), bi)
    }

    fn forward(&self, bi: &mut ExtendedBiCgStab, emu: &mut CrashEmulator) -> RunOutcome<f64> {
        bi.run(emu, 0, ITERS, self.rho0)
    }

    fn recover(
        &self,
        bi: &ExtendedBiCgStab,
        _site: CrashSite,
        image: &NvmImage,
        profile: Option<ExecutionProfile>,
    ) -> Classified {
        let rec = bi.recover_and_resume(image, self.config());
        let matches = max_diff(&rec.solution, &self.reference) < TOL;
        let detected = rec.restart_from.is_none();
        Classified::from_report(detected, matches, &rec.report, profile)
    }

    fn complete(
        &self,
        bi: &ExtendedBiCgStab,
        _rho: f64,
        emu: &CrashEmulator,
        profile: Option<ExecutionProfile>,
    ) -> Trial {
        let sol = bi.peek_solution(emu);
        verified_completion(max_diff(&sol, &self.reference) < TOL, 0, profile)
    }

    fn dirty_reference(&self) -> Option<(Tolerance, Vec<f64>)> {
        Some((dirty_tolerance(), self.reference.clone()))
    }

    fn dirty_restart(&self, bi: &ExtendedBiCgStab, image: &NvmImage) -> DirtyRestart {
        bi.dirty_restart(image, self.config())
    }
}
