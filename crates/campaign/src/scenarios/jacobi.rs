//! Jacobi scenarios: algorithm extension and per-iteration checkpoint.

use std::sync::Arc;

use adcc_ckpt::manager::CkptManager;
use adcc_core::jacobi::{jacobi_host, sites, ExtendedJacobi, PlainJacobi};
use adcc_core::DirtyRestart;
use adcc_linalg::csr::CsrMatrix;
use adcc_linalg::vecops::max_diff;
use adcc_resilience::Tolerance;
use adcc_sim::crash::{CrashEmulator, CrashSite, CrashTrigger, RunOutcome};
use adcc_sim::image::NvmImage;
use adcc_sim::system::{MemorySystem, SystemConfig};
use adcc_telemetry::ExecutionProfile;

use super::harness::{Classified, Workload};
use super::iterative::Iterative;
use super::{phase_trigger, trim_dram, verified_completion, Linear};
use crate::scenario::{Kernel, Mechanism, Trial, UnitSpace};

const ITERS: usize = 12;
const TOL: f64 = 1e-9;
const PROBLEM_SEED: u64 = 303;
/// Access-count spacing of dense crash points (one full run issues
/// ~79k element accesses; an 8-access stride carries ~9.8k points).
const DENSE_STRIDE: u64 = 8;

pub(crate) fn problem() -> Arc<Linear> {
    Linear::new(PROBLEM_SEED, |a, b| jacobi_host(a, b, ITERS))
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

/// Extended Jacobi (iterate-history ring) with update-equation recovery;
/// unit `i` crashes after iteration `i`'s update.
pub(crate) fn extended(p: &Arc<Linear>) -> impl Workload {
    let p = p.clone();
    Iterative {
        name: "jacobi-extended",
        kernel: Kernel::Jacobi,
        mechanism: Mechanism::Extended,
        unit_space: UnitSpace::new(ITERS as u64, DENSE_STRIDE),
        site_trigger: |unit| phase_trigger(&[sites::PH_AFTER_X], unit),
        config: config(&p.a),
        tol: TOL,
        dirty_tolerance: dirty_tolerance(),
        reference: p.reference.clone(),
        setup: move |sys: &mut MemorySystem| (ExtendedJacobi::setup(sys, &p.a, &p.b, ITERS), ()),
    }
}

// ---------------------------------------------------------------------
// jacobi-ckpt
// ---------------------------------------------------------------------

/// Plain Jacobi with a checkpoint of `x` every iteration. Even units
/// crash before the checkpoint, odd units after it.
pub(crate) struct JacobiCkpt(pub(crate) Arc<Linear>);

impl Workload for JacobiCkpt {
    type Live = (PlainJacobi, CkptManager);
    type End = ();
    type State = Classified;

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
        phase_trigger(&[sites::PH_AFTER_X, sites::PH_ITER_END], unit)
    }

    fn setup(&self, trigger: CrashTrigger) -> (CrashEmulator, Self::Live) {
        let mut sys = MemorySystem::new(config(&self.0.a));
        let jac = PlainJacobi::setup(&mut sys, &self.0.a, &self.0.b, ITERS);
        let mgr = CkptManager::new_nvm(&mut sys, jac.ckpt_regions(), false);
        (CrashEmulator::from_system(sys, trigger), (jac, mgr))
    }

    fn forward(&self, (jac, mgr): &mut Self::Live, emu: &mut CrashEmulator) -> RunOutcome<()> {
        adcc_core::jacobi::variants::run_with_ckpt(emu, jac, mgr)
    }

    fn recover(
        &self,
        (jac, mgr): &Self::Live,
        site: CrashSite,
        image: &NvmImage,
        profile: Option<ExecutionProfile>,
    ) -> Classified {
        let sys2 = MemorySystem::from_image(config(&self.0.a), image);
        let mut emu2 = CrashEmulator::from_system(sys2, CrashTrigger::Never);
        let t0 = emu2.now();
        let (start, restored) = adcc_core::jacobi::variants::ckpt_restore(&mut emu2, jac, mgr);
        for _ in start..ITERS {
            jac.step(&mut emu2);
        }
        let sim_time_ps = (emu2.now() - t0).ps();

        // Both polled sites (`PH_AFTER_X` before the checkpoint,
        // `PH_ITER_END` after it) sit after iteration `index`'s step.
        let lost = (site.index + 1).saturating_sub(start as u64);
        let matches = max_diff(&jac.peek_solution(&emu2), &self.0.reference) < TOL;
        Classified::new(!restored, matches, lost, sim_time_ps, profile)
    }

    fn complete(
        &self,
        (jac, _): &Self::Live,
        (): (),
        emu: &CrashEmulator,
        profile: Option<ExecutionProfile>,
    ) -> Trial {
        let sol = jac.peek_solution(emu);
        verified_completion(max_diff(&sol, &self.0.reference) < TOL, 0, profile)
    }

    fn dirty_reference(&self) -> Option<(Tolerance, Vec<f64>)> {
        Some((dirty_tolerance(), self.0.reference.to_vec()))
    }

    fn dirty_restart(&self, (jac, _): &Self::Live, image: &NvmImage) -> DirtyRestart {
        jac.dirty_restart(image, config(&self.0.a))
    }
}
