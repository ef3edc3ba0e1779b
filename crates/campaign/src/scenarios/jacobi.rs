//! Jacobi scenarios: algorithm extension and per-iteration checkpoint.

use std::sync::Arc;

use adcc_core::baseline;
use adcc_core::jacobi::{jacobi_host, sites, ExtendedJacobi, PlainJacobi};
use adcc_linalg::csr::CsrMatrix;
use adcc_resilience::Tolerance;
use adcc_sim::system::{MemorySystem, SystemConfig};

use super::baseline::{lost_since, BaselineCase};
use super::harness::Workload;
use super::iterative::Iterative;
use super::{phase_trigger, trim_dram, Linear};
use crate::scenario::{Kernel, Mechanism, ScenarioInfo, UnitSpace};

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
        info: ScenarioInfo::new(
            "jacobi-extended",
            Kernel::Jacobi,
            Mechanism::Extended,
            UnitSpace::new(ITERS as u64, DENSE_STRIDE),
        ),
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
pub(crate) fn ckpt(p: &Arc<Linear>) -> impl Workload {
    let p = p.clone();
    BaselineCase {
        info: ScenarioInfo::new(
            "jacobi-ckpt",
            Kernel::Jacobi,
            Mechanism::Checkpoint,
            UnitSpace::new(2 * ITERS as u64, DENSE_STRIDE),
        ),
        site_trigger: |unit| phase_trigger(&[sites::PH_AFTER_X, sites::PH_ITER_END], unit),
        config: config(&p.a),
        tol: TOL,
        dirty_tolerance: dirty_tolerance(),
        reference: p.reference.clone(),
        setup: move |sys: &mut MemorySystem| (PlainJacobi::setup(sys, &p.a, &p.b, ITERS), ()),
        lost_units: lost_since,
        dirty_restart: baseline::dirty_restart,
    }
}
