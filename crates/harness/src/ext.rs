//! Extension-kernel experiments (DESIGN.md §5a): the paper's methodology
//! instantiated on Jacobi, checksum-LU, and the heat stencil, measured
//! with the same two questions the paper asks of CG/MM/MC — what does a
//! crash cost (recomputation), and what does the runtime extension cost
//! (overhead vs the seven-case baselines)?

use adcc_core::bicgstab::{self, ExtendedBiCgStab};
use adcc_core::iterative::Extended;
use adcc_core::jacobi::{self, ExtendedJacobi, PlainJacobi};
use adcc_core::lu::{self, dominant_matrix, ChecksumLu, LuBlockStatus};
use adcc_core::stencil::{self, ExtendedStencil, PlainStencil};
use adcc_linalg::csr::CsrMatrix;
use adcc_linalg::spd::CgClass;
use adcc_sim::crash::{CrashEmulator, CrashSite, CrashTrigger};
use adcc_sim::system::MemorySystem;

use crate::cases::{seven_case_rows, time_case, Case};
use crate::fig3::recompute_row;
use crate::platform::{Platform, Scale};
use crate::report::{pct_overhead, Table};

/// Jacobi main-loop iterations (crash in the 15th, like the paper's CG).
pub const JACOBI_ITERS: usize = 15;

/// NVM bytes for an extended-Jacobi run.
pub fn jacobi_nvm_capacity(a: &CsrMatrix, iters: usize) -> usize {
    let history = (iters + 1) * a.n() * 8;
    let matrix = a.nnz() * 12 + (a.n() + 1) * 4;
    history + matrix + 4 * a.n() * 8 + (8 << 20)
}

// ---------------------------------------------------------------------
// E1 — Jacobi
// ---------------------------------------------------------------------

/// A recomputation-cost-vs-input-class table (the Fig. 3 analogue) for a
/// sparse solver: one [`recompute_row`] per class, crashed at `site`.
fn class_recompute<K: Extended>(
    title: &str,
    note: &str,
    scale: Scale,
    seed: u64,
    capacity: fn(&CsrMatrix, usize) -> usize,
    setup: impl Fn(&mut MemorySystem, &CsrMatrix, &[f64]) -> (K, K::Carry),
    site: CrashSite,
) -> Table {
    let classes: &[CgClass] = if scale.is_quick() {
        &[CgClass::S, CgClass::W]
    } else {
        &CgClass::ALL
    };
    let mut t = Table::new(
        title,
        &[
            "class",
            "n",
            "iterations lost",
            "detect (iters)",
            "resume (iters)",
        ],
    );
    for class in classes {
        let a = class.matrix(seed);
        let b = class.rhs(&a);
        let cfg = Platform::Hetero.cg_config(capacity(&a, JACOBI_ITERS));
        let r = recompute_row(&cfg, |sys| setup(sys, &a, &b), site);
        t.row(vec![
            class.name.to_string(),
            class.n.to_string(),
            r.lost_units.to_string(),
            format!("{:.2}", r.detect_norm),
            format!("{:.2}", r.resume_norm),
        ]);
    }
    t.note(note);
    t
}

/// E1a: Jacobi recomputation cost vs input class (the Fig. 3 analogue).
pub fn jacobi_recompute(scale: Scale) -> Table {
    class_recompute(
        "E1a — Jacobi recomputation cost vs input class (crash at iteration 15, NVM/DRAM platform)",
        "Same mechanism as Fig. 3: small classes stay cached and lose everything; large classes lose ~1 iteration.",
        scale,
        1001,
        jacobi_nvm_capacity,
        |sys, a, b| (ExtendedJacobi::setup(sys, a, b, JACOBI_ITERS), ()),
        CrashSite::new(jacobi::sites::PH_AFTER_X, 14),
    )
}

/// E1b: Jacobi runtime under the mechanisms (the Fig. 4 analogue).
pub fn jacobi_runtime(scale: Scale) -> Table {
    let class = if scale.is_quick() {
        CgClass::W
    } else {
        CgClass::B
    };
    let a = class.matrix(1002);
    let b = class.rhs(&a);
    let cap = jacobi_nvm_capacity(&a, JACOBI_ITERS);

    let time_on = |case: Case, platform: Platform| -> u64 {
        time_case(
            case,
            platform,
            |p| p.cg_config(cap),
            |sys| (PlainJacobi::setup(sys, &a, &b, JACOBI_ITERS), ()),
            (1, 16),
            |sys| {
                let jac = ExtendedJacobi::setup(sys, &a, &b, JACOBI_ITERS);
                move |emu| jac.run(emu, 0, JACOBI_ITERS)
            },
        )
        .loop_ps
    };
    let mut t = Table::new(
        format!(
            "E1b — Jacobi runtime with the seven mechanisms (class {})",
            class.name
        ),
        &["case", "platform", "normalized time", "overhead"],
    );
    seven_case_rows(&mut t, &[], 3, time_on);
    t.note("The CG ordering carries over: algo ≈ native, ckpt pays copy+flush, pmem pays logging.");
    t
}

// ---------------------------------------------------------------------
// E4 — BiCGSTAB
// ---------------------------------------------------------------------

/// NVM bytes for an extended-BiCGSTAB run (three history arrays).
pub fn bicgstab_nvm_capacity(a: &CsrMatrix, iters: usize) -> usize {
    let history = 3 * (iters + 1) * a.n() * 8;
    let matrix = a.nnz() * 12 + (a.n() + 1) * 4;
    history + matrix + 6 * a.n() * 8 + (8 << 20)
}

/// E4: BiCGSTAB recomputation cost vs input class — the Fig. 3 analogue
/// for a nonsymmetric-capable Krylov solver with a two-invariant check.
pub fn bicgstab_recompute(scale: Scale) -> Table {
    class_recompute(
        "E4 — BiCGSTAB recomputation cost vs input class (crash at iteration 15, NVM/DRAM platform)",
        "Two SpMVs per candidate (residual identity + direction recurrence) instead of CG's one; the caching-effects shape is unchanged.",
        scale,
        1004,
        bicgstab_nvm_capacity,
        |sys, a, b| {
            let rho0: f64 = b.iter().map(|v| v * v).sum();
            (ExtendedBiCgStab::setup(sys, a, b, JACOBI_ITERS), rho0)
        },
        CrashSite::new(bicgstab::sites::PH_ITER_END, 14),
    )
}

// ---------------------------------------------------------------------
// E2 — checksum LU
// ---------------------------------------------------------------------

/// NVM bytes for a checksum-LU run.
pub fn lu_nvm_capacity(n: usize) -> usize {
    2 * n * (n + 1) * 8 + n * 8 + (8 << 20)
}

/// E2a: LU recomputation cost vs matrix size (the Fig. 7 analogue).
pub fn lu_recompute(scale: Scale) -> Table {
    let sizes: &[usize] = if scale.is_quick() {
        &[32, 96]
    } else {
        &[32, 64, 96, 128]
    };
    let mut t = Table::new(
        "E2a — checksum-LU recomputation cost vs matrix size (crash mid-way through the second-to-last block)",
        &["n", "blocks", "stale completed blocks", "blocks lost", "detect (blocks)", "resume (blocks)"],
    );
    for &n in sizes {
        let bk = (n / 8).max(2);
        let a = dominant_matrix(n, 2001);
        let cfg = Platform::Hetero.lu_config(lu_nvm_capacity(n));

        let mut sys = MemorySystem::new(cfg.clone());
        let luf = ChecksumLu::setup(&mut sys, &a, bk);
        let (_, per_block) = luf.timed_full_run(sys);

        let mut sys = MemorySystem::new(cfg.clone());
        let luf = ChecksumLu::setup(&mut sys, &a, bk);
        let crash_col = n - bk - bk / 2; // inside the second-to-last block
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(lu::sites::PH_AFTER_COL, crash_col as u64),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = luf
            .run(&mut emu, 0)
            .crashed()
            .expect("crash trigger must fire");
        let rec = luf.recover_and_resume(&image, cfg);
        let stale = rec
            .statuses
            .iter()
            .filter(|s| **s == LuBlockStatus::Inconsistent)
            .count();
        t.row(vec![
            n.to_string(),
            luf.blocks().to_string(),
            stale.to_string(),
            rec.report.lost_units.to_string(),
            format!(
                "{:.2}",
                rec.report.detect_time.ps() as f64 / per_block.ps() as f64
            ),
            format!(
                "{:.2}",
                rec.report.resume_time.ps() as f64 / per_block.ps() as f64
            ),
        ]);
    }
    t.note("Fig. 7's mechanism: bigger factors evict older blocks, so only the in-flight (and sometimes the newest completed) block is lost.");
    t
}

/// E2b: LU runtime — native vs per-block checkpoint vs PMEM vs
/// algorithm-directed.
pub fn lu_runtime(scale: Scale) -> Table {
    let n = if scale.is_quick() { 48 } else { 96 };
    let bk = n / 8;
    let a = dominant_matrix(n, 2002);
    let cap = lu_nvm_capacity(n);
    let time = |case: Case| -> u64 {
        time_case(
            case,
            Platform::NvmOnly,
            |p| p.lu_config(cap),
            |sys| (ChecksumLu::setup(sys, &a, bk), ()),
            (1, 32),
            |sys| {
                let luf = ChecksumLu::setup(sys, &a, bk);
                move |emu| luf.run(emu, 0)
            },
        )
        .loop_ps
    };
    let native = time(Case::Native);

    let mut t = Table::new(
        format!("E2b — checksum-LU runtime by mechanism (n = {n}, k = {bk}, NVM-only)"),
        &["mechanism", "normalized time", "overhead"],
    );
    for (name, ps) in [
        ("native", native),
        ("algo (flush checksums only)", time(Case::AlgoNvm)),
        ("ckpt per block", time(Case::CkptNvm)),
        ("pmem undo-log per block", time(Case::PmemNvm)),
    ] {
        let norm = ps as f64 / native as f64;
        t.row(vec![name.into(), format!("{norm:.3}"), pct_overhead(norm)]);
    }
    t.note("The Fig. 8 ordering for MM carries over to LU.");
    t
}

// ---------------------------------------------------------------------
// E3 — heat stencil
// ---------------------------------------------------------------------

/// NVM bytes for an extended-stencil run.
pub fn stencil_nvm_capacity(rows: usize, cols: usize, window: usize) -> usize {
    (window + 2) * rows * cols * 8 + (8 << 20)
}

/// Sweeps per stencil experiment.
pub const STENCIL_SWEEPS: usize = 12;

/// E3a: stencil recomputation cost vs grid size.
pub fn stencil_recompute(scale: Scale) -> Table {
    let sizes: &[usize] = if scale.is_quick() {
        &[16, 64]
    } else {
        &[16, 32, 64, 96]
    };
    let mut t = Table::new(
        "E3a — stencil recomputation cost vs grid size (crash at the end of sweep 10, NVM/DRAM platform)",
        &["grid", "sweeps lost", "restart from", "detect (sweeps)", "resume (sweeps)"],
    );
    for &g in sizes {
        let cfg = Platform::Hetero.stencil_config(stencil_nvm_capacity(g, g, 3));
        let r = recompute_row(
            &cfg,
            |sys| (ExtendedStencil::setup(sys, g, g, STENCIL_SWEEPS, 3, 4), ()),
            CrashSite::new(stencil::sites::PH_SWEEP_END, 10),
        );
        t.row(vec![
            format!("{g}x{g}"),
            r.lost_units.to_string(),
            r.restart_from
                .map(|s| s.to_string())
                .unwrap_or_else(|| "scratch".into()),
            format!("{:.2}", r.detect_norm),
            format!("{:.2}", r.resume_norm),
        ]);
    }
    t.note("Grids larger than the volatile caches lose only the in-flight sweep; cached grids fall back to the initial condition.");
    t
}

/// E3b: stencil runtime — native vs per-sweep checkpoint vs PMEM vs
/// algorithm-directed.
pub fn stencil_runtime(scale: Scale) -> Table {
    let g = if scale.is_quick() { 32 } else { 64 };
    let cap = stencil_nvm_capacity(g, g, 3);
    let time = |case: Case| -> u64 {
        time_case(
            case,
            Platform::NvmOnly,
            |p| p.stencil_config(cap),
            |sys| (PlainStencil::setup(sys, g, g, STENCIL_SWEEPS), ()),
            (1, 32),
            |sys| {
                let st = ExtendedStencil::setup(sys, g, g, STENCIL_SWEEPS, 3, 4);
                move |emu| st.run(emu, 0, STENCIL_SWEEPS)
            },
        )
        .loop_ps
    };
    let native = time(Case::Native);

    let mut t = Table::new(
        format!("E3b — stencil runtime by mechanism ({g}x{g}, NVM-only)"),
        &["mechanism", "normalized time", "overhead"],
    );
    for (name, ps) in [
        ("native (ping-pong)", native),
        ("algo (ring + tagged block sums)", time(Case::AlgoNvm)),
        ("ckpt per sweep", time(Case::CkptNvm)),
        ("pmem undo-log per sweep", time(Case::PmemNvm)),
    ] {
        let norm = ps as f64 / native as f64;
        t.row(vec![name.into(), format!("{norm:.3}"), pct_overhead(norm)]);
    }
    t.note("The ring costs extra buffer traffic but removes all copying; checkpoint copies the whole grid every sweep.");
    t
}

/// All extension-kernel tables.
pub fn run(scale: Scale) -> Vec<Table> {
    vec![
        jacobi_recompute(scale),
        jacobi_runtime(scale),
        lu_recompute(scale),
        lu_runtime(scale),
        stencil_recompute(scale),
        stencil_runtime(scale),
        bicgstab_recompute(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jacobi_recompute_rows_match_classes() {
        let t = jacobi_recompute(Scale::Quick);
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn lu_recompute_reports_blocks() {
        let t = lu_recompute(Scale::Quick);
        assert_eq!(t.rows.len(), 2);
        // blocks column is numeric and > 1
        for row in &t.rows {
            assert!(row[1].parse::<usize>().unwrap() > 1);
        }
    }
}
