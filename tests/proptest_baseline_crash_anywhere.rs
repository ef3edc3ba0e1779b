//! Property tests: the paper's baseline mechanisms — a checkpoint or an
//! undo-log transaction every unit — recover a crash at an *arbitrary*
//! point (a site, or the first poll after a random number of accesses)
//! to the native run's answer, bit for bit, losing at most the unit in
//! flight. One property (`common::crash_anywhere_restores`), six kernels.

mod common;

use proptest::prelude::*;

use adcc::core::abft::variants::MmProgress;
use adcc::core::{abft, cg, jacobi, lu, mc, stencil};
use adcc::prelude::*;
use common::{anywhere, crash_anywhere_restores};

fn machine(cache_kb: usize) -> SystemConfig {
    SystemConfig::nvm_only(cache_kb << 10, 64 << 20)
}

fn index(site: CrashSite) -> usize {
    site.index as usize
}

const CG_PHASES: [u32; 4] = [
    cg::sites::PH_AFTER_Z,
    cg::sites::PH_AFTER_R,
    cg::sites::PH_LINE10,
    cg::sites::PH_ITER_END,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cg_restores_from_any_crash_point(
        trigger in anywhere(5_000..120_000, &CG_PHASES, 8),
        ckpt in any::<bool>(),
        cache_kb in 2usize..64,
        seed in 0u64..1000,
    ) {
        let a = CgClass::TEST.matrix(seed);
        let b = CgClass::TEST.rhs(&a);
        crash_anywhere_restores(
            machine(cache_kb),
            trigger,
            |sys| PlainCg::setup(sys, &a, &b, 8),
            (ckpt, 1),
            |_, site| index(site),
        )?;
    }

    #[test]
    fn jacobi_restores_from_any_crash_point(
        trigger in anywhere(5_000..60_000, &[jacobi::sites::PH_AFTER_X, jacobi::sites::PH_ITER_END], 8),
        ckpt in any::<bool>(),
        cache_kb in 2usize..64,
        seed in 0u64..1000,
    ) {
        let a = CgClass::TEST.matrix(seed);
        let b = CgClass::TEST.rhs(&a);
        crash_anywhere_restores(
            machine(cache_kb),
            trigger,
            |sys| (PlainJacobi::setup(sys, &a, &b, 8), ()),
            (ckpt, 1),
            |_, site| index(site),
        )?;
    }

    #[test]
    fn stencil_restores_from_any_crash_point(
        trigger in anywhere(500..12_000, &[stencil::sites::PH_SWEEP_END], 8),
        ckpt in any::<bool>(),
        cache_kb in 1usize..16,
    ) {
        crash_anywhere_restores(
            machine(cache_kb),
            trigger,
            |sys| (PlainStencil::setup(sys, 12, 12, 8), ()),
            (ckpt, 1),
            |_, site| index(site),
        )?;
    }

    #[test]
    fn lu_restores_from_any_crash_point(
        trigger in anywhere(500..12_000, &[lu::sites::PH_AFTER_COL, lu::sites::PH_BLOCK_END], 16),
        ckpt in any::<bool>(),
        cache_kb in 1usize..16,
        seed in 0u64..1000,
    ) {
        let a = dominant_matrix(16, seed);
        crash_anywhere_restores(
            machine(cache_kb),
            trigger,
            |sys| (ChecksumLu::setup(sys, &a, 4), ()),
            (ckpt, 1),
            |lu, site| match site.phase {
                lu::sites::PH_AFTER_COL => index(site) / lu.bk,
                _ => index(site),
            },
        )?;
    }

    #[test]
    fn abft_mm_restores_from_any_crash_point(
        trigger in anywhere(2_000..60_000, &[abft::sites::PH_ORIG_ITER], 4),
        ckpt in any::<bool>(),
        cache_kb in 2usize..32,
        seed in 0u64..1000,
    ) {
        let a = Matrix::random(16, 16, seed);
        let b = Matrix::random(16, 16, seed + 1);
        crash_anywhere_restores(
            machine(cache_kb),
            trigger,
            |sys| {
                let mm = OriginalAbft::setup(sys, &a, &b, 4, false);
                ((mm, MmProgress::new(sys)), ())
            },
            (ckpt, 1),
            |_, site| index(site),
        )?;
    }

    /// MC persists every 50 lookups, so a crash loses up to 50.
    #[test]
    fn mc_restores_from_any_crash_point(
        trigger in anywhere(1_000..150_000, &[mc::sites::PH_LOOKUP], 600),
        ckpt in any::<bool>(),
        cache_kb in 2usize..32,
        seed in 0u64..1000,
    ) {
        let p = McProblem::generate(36, 64, seed);
        let cfg = SystemConfig::nvm_only(
            cache_kb << 10,
            (p.grid_bytes() + (1 << 20)).next_power_of_two(),
        );
        crash_anywhere_restores(
            cfg,
            trigger,
            |sys| (McSim::setup(sys, p.clone(), 600, seed, McMode::Native), ()),
            (ckpt, 50),
            |_, site| index(site),
        )?;
    }
}
