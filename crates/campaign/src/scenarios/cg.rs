//! CG scenarios: the algorithm-directed extension, and the plain kernel
//! under the two baseline mechanisms — a checkpoint and a PMDK-style
//! undo-log transaction every iteration — as two values of
//! [`BaselineCase`].

use std::sync::{Arc, OnceLock};

use adcc_core::baseline;
use adcc_core::cg::{cg_host, sites, ExtendedCg, PlainCg};
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
const PROBLEM_SEED: u64 = 301;
/// Access-count spacing of dense crash points. One full CG run on the
/// TEST problem issues ~100k element accesses, so a 10-access stride
/// carries ~10k dense points before spilling past the run.
const DENSE_STRIDE: u64 = 10;

/// The family's problem, built once per process.
pub(crate) fn problem() -> Arc<Linear> {
    static PROBLEM: OnceLock<Arc<Linear>> = OnceLock::new();
    let solve = || Linear::new(PROBLEM_SEED, |a, b| cg_host(a, b, ITERS));
    PROBLEM.get_or_init(solve).clone()
}

/// Dirty-restart residual tolerance. Krylov continuation on a torn
/// history rarely lands back on the exact trajectory, so `acceptable` is
/// loose relative to the verification tolerance; anything past the
/// divergence bound is a blow-up, not an answer.
fn dirty_tolerance() -> Tolerance {
    Tolerance::new(TOL, 1e-4, 1e3)
}

fn config(a: &CsrMatrix) -> SystemConfig {
    // History (4 arrays × (iters + 2) rows) + matrix + vectors + slack.
    // Crash images hold only the written prefix, so the slack costs nothing.
    let cap = 4 * (ITERS + 2) * a.n() * 8 + a.nnz() * 12 + (a.n() + 1) * 4 + (2 << 20);
    trim_dram(SystemConfig::nvm_only(16 << 10, cap))
}

// ---------------------------------------------------------------------
// cg-extended
// ---------------------------------------------------------------------

const CG_PHASES: [u32; 4] = [
    sites::PH_AFTER_Q,
    sites::PH_AFTER_Z,
    sites::PH_AFTER_R,
    sites::PH_LINE10,
];

/// Extended CG with invariant-scan recovery; crash points sweep the four
/// instrumented statements of every iteration.
pub(crate) fn extended(
    p: &Arc<Linear>,
) -> Iterative<impl Fn(&mut MemorySystem) -> (ExtendedCg, f64) + Send + Sync> {
    let p = p.clone();
    Iterative {
        info: ScenarioInfo::new(
            "cg-extended",
            Kernel::Cg,
            Mechanism::Extended,
            UnitSpace::new((CG_PHASES.len() * ITERS) as u64, DENSE_STRIDE),
        ),
        site_trigger: |unit| phase_trigger(&CG_PHASES, unit),
        config: config(&p.a),
        tol: TOL,
        dirty_tolerance: dirty_tolerance(),
        reference: p.reference.clone(),
        setup: move |sys: &mut MemorySystem| ExtendedCg::setup(sys, &p.a, &p.b, ITERS),
    }
}

// ---------------------------------------------------------------------
// cg-ckpt
// ---------------------------------------------------------------------

/// Plain CG with a double-buffered NVM checkpoint every iteration.
/// Even units crash after the step but before the checkpoint (one
/// iteration lost); odd units crash right after it (nothing lost).
pub(crate) fn ckpt(p: &Arc<Linear>) -> impl Workload {
    let p = p.clone();
    BaselineCase {
        info: ScenarioInfo::new(
            "cg-ckpt",
            Kernel::Cg,
            Mechanism::Checkpoint,
            UnitSpace::new(2 * ITERS as u64, DENSE_STRIDE),
        ),
        site_trigger: |unit| phase_trigger(&[sites::PH_LINE10, sites::PH_ITER_END], unit),
        config: config(&p.a),
        tol: TOL,
        dirty_tolerance: dirty_tolerance(),
        reference: p.reference.clone(),
        setup: move |sys: &mut MemorySystem| PlainCg::setup(sys, &p.a, &p.b, ITERS),
        lost_units: lost_since,
        dirty_restart: baseline::dirty_restart,
    }
}

// ---------------------------------------------------------------------
// cg-pmem
// ---------------------------------------------------------------------

/// Plain CG with every iteration in an undo-log transaction, crash points
/// inside and at the end of the transaction, so the campaign exercises
/// mid-transaction rollback: a crash inside iteration `i` rolls back to
/// `i` (one lost), one at its end lands after the commit (nothing lost).
pub(crate) fn pmem(p: &Arc<Linear>) -> impl Workload {
    const PHASES: [u32; 4] = [
        sites::PH_AFTER_Z,
        sites::PH_AFTER_R,
        sites::PH_LINE10,
        sites::PH_ITER_END,
    ];
    let p = p.clone();
    BaselineCase {
        info: ScenarioInfo::new(
            "cg-pmem",
            Kernel::Cg,
            Mechanism::Pmem,
            UnitSpace::new((PHASES.len() * ITERS) as u64, DENSE_STRIDE),
        ),
        site_trigger: |unit| phase_trigger(&PHASES, unit),
        config: config(&p.a),
        tol: TOL,
        dirty_tolerance: dirty_tolerance(),
        reference: p.reference.clone(),
        setup: move |sys: &mut MemorySystem| PlainCg::setup(sys, &p.a, &p.b, ITERS),
        lost_units: lost_since,
        dirty_restart: baseline::dirty_restart,
    }
}
