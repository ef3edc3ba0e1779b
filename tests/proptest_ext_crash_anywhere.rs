//! Property tests for the extension kernels (DESIGN.md §5a): a crash at
//! an arbitrary point must always be recoverable, and recovery must
//! reproduce the crash-free result — for Jacobi, BiCGSTAB and the heat
//! stencil (instances of `common::crash_anywhere_recovers`) and
//! checksum-LU, across random cache geometries.

mod common;

use proptest::prelude::*;

use adcc::core::{bicgstab, jacobi, stencil};
use adcc::prelude::*;
use common::{anywhere, crash_anywhere_recovers};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Extended Jacobi. Full history only — a bounded Jacobi ring can
    /// verify a pair of iterates one lap stale (ROADMAP's ring hole).
    #[test]
    fn jacobi_recovers_from_any_crash_point(
        trigger in anywhere(5_000..200_000, &[jacobi::sites::PH_AFTER_X, jacobi::sites::PH_ITER_END], 8),
        cache_kb in 2usize..64,
        seed in 0u64..1000,
    ) {
        let class = CgClass::TEST;
        let a = class.matrix(seed);
        let b = class.rhs(&a);
        let iters = 8;
        crash_anywhere_recovers(
            SystemConfig::nvm_only(cache_kb << 10, 64 << 20),
            trigger,
            |sys| (ExtendedJacobi::setup(sys, &a, &b, iters), ()),
            iters + 1,
            &jacobi_host(&a, &b, iters),
            (1e-10, 1e-9),
        )?;
    }

    /// Checksum-LU: crash anywhere; the recovered factor is the host
    /// factor and reconstructs the input.
    #[test]
    fn lu_recovers_from_any_crash_point(
        accesses in 2_000u64..120_000,
        cache_kb in 2usize..32,
        seed in 0u64..1000,
        bk in 2usize..6,
    ) {
        let n = 20;
        let a = dominant_matrix(n, seed);
        let want = lu_host(&a);
        let cfg = SystemConfig::nvm_only(cache_kb << 10, 32 << 20);

        let mut sys = MemorySystem::new(cfg.clone());
        let lu = ChecksumLu::setup(&mut sys, &a, bk);
        let trig = CrashTrigger::AtAccessCount(accesses);
        let mut emu = CrashEmulator::from_system(sys, trig);
        match lu.run(&mut emu, 0) {
            RunOutcome::Completed(()) => {
                prop_assert!(lu.peek_factor(&emu).max_abs_diff(&want) < 1e-10);
            }
            RunOutcome::Crashed(image) => {
                let rec = lu.recover_and_resume(&image, cfg);
                let diff = rec.factor.max_abs_diff(&want);
                prop_assert!(diff < 1e-10, "recovered factor off by {diff}");
                prop_assert!(rec.report.lost_units as usize <= lu.blocks());
                // And it is a genuine factorization of the input.
                let back = lu_reconstruct(&rec.factor);
                prop_assert!(back.max_abs_diff(&a) < 1e-9);
            }
        }
    }

    /// Extended BiCGSTAB (two-invariant detection), full history
    /// (`window` 9) and bounded rings: the flushed per-iteration scalars
    /// tie a verified row to its generation.
    #[test]
    fn bicgstab_recovers_from_any_crash_point(
        trigger in anywhere(5_000..250_000, &[bicgstab::sites::PH_AFTER_XR, bicgstab::sites::PH_ITER_END], 8),
        cache_kb in 2usize..64,
        seed in 0u64..1000,
        window in 3usize..=9,
    ) {
        let class = CgClass::TEST;
        let a = class.matrix(seed);
        let b = class.rhs(&a);
        let iters = 8;
        let rho0: f64 = b.iter().map(|v| v * v).sum();
        crash_anywhere_recovers(
            SystemConfig::nvm_only(cache_kb << 10, 64 << 20),
            trigger,
            |sys| (ExtendedBiCgStab::setup_windowed(sys, &a, &b, iters, window), rho0),
            window,
            &bicgstab_host(&a, &b, iters),
            (1e-9, 1e-8),
        )?;
    }

    /// Heat stencil (exact verification): the recovered grid is bitwise
    /// the crash-free grid. A mid-sweep site is `(PH_AFTER_BLOCK, block)`
    /// at its `sweep + 1`-th poll.
    #[test]
    fn stencil_recovers_from_any_crash_point(
        trigger in prop_oneof![
            anywhere(2_000..150_000, &[stencil::sites::PH_SWEEP_END], 9),
            (0u64..3, 1u32..=9).prop_map(|(block, occurrence)| CrashTrigger::AtSite {
                site: CrashSite::new(stencil::sites::PH_AFTER_BLOCK, block),
                occurrence,
            }),
        ],
        cache_kb in 2usize..32,
        window in 3usize..5,
    ) {
        let (rows, cols, sweeps) = (14, 14, 9);
        crash_anywhere_recovers(
            SystemConfig::nvm_only(cache_kb << 10, 64 << 20),
            trigger,
            |sys| (ExtendedStencil::setup(sys, rows, cols, sweeps, window, 4), ()),
            window,
            &heat_host(rows, cols, sweeps),
            (0.0, 0.0),
        )?;
    }
}
