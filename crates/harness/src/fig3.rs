//! Figure 3: CG recomputation cost (detect + resume, normalized by the
//! average per-iteration time) across input classes, crash at the paper's
//! site — "Line 10 (Figure 2) in the 15th iteration of the main loop".

use adcc_core::cg::{sites, ExtendedCg};
use adcc_core::iterative::{self, Extended, Recovery};
use adcc_linalg::csr::CsrMatrix;
use adcc_linalg::spd::CgClass;
use adcc_sim::crash::{CrashEmulator, CrashSite, CrashTrigger};
use adcc_sim::system::{MemorySystem, SystemConfig};

use crate::platform::{Platform, Scale};
use crate::report::Table;

/// Iterations of the main loop (the paper crashes in the 15th).
pub const CG_ITERS: usize = 15;
/// Crash iteration (0-based): the 15th iteration.
pub const CRASH_ITER: u64 = 14;

/// NVM bytes needed for an extended-CG run of this matrix.
pub fn cg_nvm_capacity(a: &CsrMatrix, iters: usize) -> usize {
    let histories = 4 * (iters + 1) * a.n() * 8;
    let matrix = a.nnz() * 12 + (a.n() + 1) * 4;
    let vectors = 8 * a.n() * 8;
    histories + matrix + vectors + (8 << 20)
}

/// Result of one class's crash experiment.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    pub class: &'static str,
    pub n: usize,
    pub lost_iterations: u64,
    pub detect_norm: f64,
    pub resume_norm: f64,
}

/// What one crash cost, in units of the crash-free run's average
/// per-unit time.
pub(crate) struct Recompute {
    pub lost_units: u64,
    pub restart_from: Option<usize>,
    pub detect_norm: f64,
    pub resume_norm: f64,
}

/// Crash a fresh run of the kernel `setup` builds at the first poll of
/// `site`, and recover it.
pub(crate) fn crash_and_recover<K: Extended>(
    cfg: &SystemConfig,
    setup: impl FnOnce(&mut MemorySystem) -> (K, K::Carry),
    site: CrashSite,
) -> Recovery<K::Solution> {
    let mut sys = MemorySystem::new(cfg.clone());
    let (k, carry0) = setup(&mut sys);
    let trig = CrashTrigger::AtSite {
        site,
        occurrence: 1,
    };
    let mut emu = CrashEmulator::from_system(sys, trig);
    let image = k
        .run(&mut emu, 0, k.units(), carry0)
        .crashed()
        .expect("crash trigger must fire");
    iterative::recover_and_resume(&k, &image, cfg.clone())
}

/// The recomputation experiment on any iterate-history kernel: a
/// crash-free run for the normalization, then [`crash_and_recover`].
pub(crate) fn recompute_row<K: Extended>(
    cfg: &SystemConfig,
    setup: impl Fn(&mut MemorySystem) -> (K, K::Carry),
    site: CrashSite,
) -> Recompute {
    let mut sys = MemorySystem::new(cfg.clone());
    let (k, carry0) = setup(&mut sys);
    let per_unit = iterative::timed_full_run(&k, sys, carry0);
    let rec = crash_and_recover(cfg, &setup, site);
    Recompute {
        lost_units: rec.report.lost_units,
        restart_from: rec.restart_from,
        detect_norm: rec.report.detect_time.ps() as f64 / per_unit.ps() as f64,
        resume_norm: rec.report.resume_time.ps() as f64 / per_unit.ps() as f64,
    }
}

/// Run the Fig. 3 experiment for one class on the heterogeneous platform.
pub fn run_class(class: CgClass, seed: u64) -> Fig3Row {
    let a = class.matrix(seed);
    let b = class.rhs(&a);
    let cfg = Platform::Hetero.cg_config(cg_nvm_capacity(&a, CG_ITERS));
    let r = recompute_row(
        &cfg,
        |sys| ExtendedCg::setup(sys, &a, &b, CG_ITERS),
        CrashSite::new(sites::PH_LINE10, CRASH_ITER),
    );
    Fig3Row {
        class: class.name,
        n: class.n,
        lost_iterations: r.lost_units,
        detect_norm: r.detect_norm,
        resume_norm: r.resume_norm,
    }
}

/// Run the whole figure.
pub fn run(scale: Scale) -> Table {
    let classes: &[CgClass] = if scale.is_quick() {
        &[CgClass::S, CgClass::W]
    } else {
        &CgClass::ALL
    };
    let mut t = Table::new(
        "Fig. 3 — CG recomputation cost vs input class (crash at iteration 15, NVM/DRAM platform)",
        &[
            "class",
            "n",
            "iterations lost",
            "detect (iters)",
            "resume (iters)",
            "total (iters)",
        ],
    );
    for class in classes {
        let r = run_class(*class, 12345);
        t.row(vec![
            r.class.to_string(),
            r.n.to_string(),
            r.lost_iterations.to_string(),
            format!("{:.2}", r.detect_norm),
            format!("{:.2}", r.resume_norm),
            format!("{:.2}", r.detect_norm + r.resume_norm),
        ]);
    }
    t.note("Paper: classes S and W lose all 15 iterations; classes B and C lose only 1.");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_class_loses_everything_large_class_loses_little() {
        let small = run_class(CgClass::S, 1);
        assert_eq!(
            small.lost_iterations, 15,
            "class S fits in cache: all iterations lost"
        );
        // A mid-size class on the same platform loses fewer.
        let mid = run_class(CgClass::TEST, 1);
        let _ = mid; // TEST is tiny; the real gradient is asserted in integration tests.
    }
}
