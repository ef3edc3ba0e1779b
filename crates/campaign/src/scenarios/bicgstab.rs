//! BiCGSTAB scenarios: the algorithm extension with full and bounded
//! (ring-buffer) iteration histories.

use std::sync::Arc;

use adcc_core::bicgstab::{bicgstab_host, sites, ExtendedBiCgStab};
use adcc_resilience::Tolerance;
use adcc_sim::system::{MemorySystem, SystemConfig};

use super::harness::Workload;
use super::iterative::Iterative;
use super::{phase_trigger, trim_dram, Linear};
use crate::scenario::{Kernel, Mechanism, ScenarioInfo, UnitSpace};

const ITERS: usize = 10;
/// The paper-style full history.
pub(crate) const FULL: usize = ITERS + 1;
/// A bounded history: the recovery horizon is `WINDOW - 1` iterations.
pub(crate) const WINDOW: usize = 4;
const TOL: f64 = 1e-8;
const PROBLEM_SEED: u64 = 302;
/// Access-count spacing of dense crash points (one full run issues
/// ~156k element accesses; a 16-access stride carries ~9.7k points).
const DENSE_STRIDE: u64 = 16;

pub(crate) fn problem() -> Arc<Linear> {
    Linear::new(PROBLEM_SEED, |a, b| bicgstab_host(a, b, ITERS))
}

/// Dirty-restart residual tolerance. BiCGSTAB's recurrence has no
/// self-correction: continuing on a torn `(x, r, p)` triple rarely comes
/// back to the true solution, which is exactly the contrast the
/// resilience sweep is meant to expose against the contractive kernels.
fn dirty_tolerance() -> Tolerance {
    Tolerance::new(TOL, 1e-4, 1e3)
}

fn config(p: &Linear) -> SystemConfig {
    let n = p.a.n();
    let cap =
        3 * (ITERS + 2) * n * 8 + (ITERS + 2) * 4 * 8 + p.a.nnz() * 12 + (n + 1) * 4 + (2 << 20);
    trim_dram(SystemConfig::nvm_only(16 << 10, cap))
}

const BI_PHASES: [u32; 2] = [sites::PH_AFTER_XR, sites::PH_ITER_END];

/// Extended BiCGSTAB over a history of `window` rows ([`FULL`] or
/// [`WINDOW`]).
pub(crate) fn extended(p: &Arc<Linear>, window: usize) -> impl Workload {
    let p = p.clone();
    let (name, mechanism) = if window > ITERS {
        ("bicgstab-extended", Mechanism::Extended)
    } else {
        ("bicgstab-extended-windowed", Mechanism::ExtendedWindowed)
    };
    let rho0: f64 = p.b.iter().map(|v| v * v).sum();
    Iterative {
        info: ScenarioInfo::new(
            name,
            Kernel::BiCgStab,
            mechanism,
            UnitSpace::new((BI_PHASES.len() * ITERS) as u64, DENSE_STRIDE),
        ),
        site_trigger: |unit| phase_trigger(&BI_PHASES, unit),
        config: config(&p),
        tol: TOL,
        dirty_tolerance: dirty_tolerance(),
        reference: p.reference.clone(),
        setup: move |sys: &mut MemorySystem| {
            let bi = ExtendedBiCgStab::setup_windowed(sys, &p.a, &p.b, ITERS, window);
            (bi, rho0)
        },
    }
}
