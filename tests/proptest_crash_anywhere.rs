//! Property tests: a crash at an *arbitrary* point (random access-count
//! trigger, which fires at the next instrumented site) must always be
//! recoverable, and recovery must reproduce the crash-free result.

mod common;

use proptest::prelude::*;

use adcc::core::abft::TwoLoopAbft;
use adcc::core::cg::{cg_host, sites, ExtendedCg};
use adcc::prelude::*;
use common::{anywhere, crash_anywhere_recovers};

const CG_PHASES: [u32; 5] = [
    sites::PH_AFTER_Q,
    sites::PH_AFTER_Z,
    sites::PH_AFTER_R,
    sites::PH_LINE10,
    sites::PH_ITER_END,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Extended CG: recovery finds a valid restart point and converges to
    /// the reference. CG keeps the paper's full history, so the window is
    /// every row.
    #[test]
    fn cg_recovers_from_any_crash_point(
        trigger in anywhere(5_000..250_000, &CG_PHASES, 8),
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
            |sys| ExtendedCg::setup(sys, &a, &b, iters),
            iters + 1,
            &cg_host(&a, &b, iters),
            (1e-9, 1e-9),
        )?;
    }

    /// Two-loop ABFT MM: crash after a random number of accesses; the
    /// recovered product is exact.
    #[test]
    fn abft_recovers_from_any_crash_point(
        accesses in 2_000u64..100_000,
        cache_kb in 2usize..32,
        seed in 0u64..1000,
    ) {
        let n = 16;
        let k = 4;
        let a = Matrix::random(n, n, seed);
        let b = Matrix::random(n, n, seed + 1);
        let want = a.mul_naive(&b);
        let cfg = SystemConfig::nvm_only(cache_kb << 10, 32 << 20);

        let mut sys = MemorySystem::new(cfg.clone());
        let mm = TwoLoopAbft::setup(&mut sys, &a, &b, k);
        let trig = CrashTrigger::AtAccessCount(accesses);
        let mut emu = CrashEmulator::from_system(sys, trig);
        match mm.run(&mut emu) {
            RunOutcome::Completed(()) => {
                prop_assert!(mm.peek_product(&emu).max_abs_diff(&want) < 1e-10);
            }
            RunOutcome::Crashed(image) => {
                let (sys, _rec) = mm.recover_and_resume(&image, cfg);
                let diff = mm.peek_product(&sys).max_abs_diff(&want);
                prop_assert!(diff < 1e-10, "recovered product off by {diff}");
            }
        }
    }

    /// MC with the epoch extension: crash at a random lookup; recovery is
    /// bit-exact regardless of cache geometry.
    #[test]
    fn mc_epoch_recovers_exactly_from_any_crash_point(
        crash_at in 10u64..1_400,
        cache_kb in 2usize..32,
        seed in 0u64..1000,
    ) {
        let p = McProblem::generate(36, 64, seed);
        let lookups = 1_500u64;
        let cfg = SystemConfig::nvm_only(
            cache_kb << 10,
            (p.grid_bytes() + (1 << 20)).next_power_of_two(),
        );
        let mode = McMode::Epoch { interval: 64 };

        // Reference.
        let mut sys = MemorySystem::new(cfg.clone());
        let mc = McSim::setup(&mut sys, p.clone(), lookups, seed, McMode::Native);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        mc.run(&mut emu, 0, lookups).completed().unwrap();
        let want = mc.peek_counts(&emu);

        // Crash + epoch recovery.
        let mut sys = MemorySystem::new(cfg.clone());
        let mc = McSim::setup(&mut sys, p, lookups, seed, mode);
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(adcc::core::mc::sites::PH_LOOKUP, crash_at),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = mc.run(&mut emu, 0, lookups).crashed().expect("must crash");
        let rec = mc.recover_and_resume(&image, cfg, crash_at + 1);
        prop_assert_eq!(rec.counts, want);
    }
}
