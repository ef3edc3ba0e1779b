//! Cross-crate end-to-end contracts: for every scheme, a crash followed by
//! algorithm-directed recovery reproduces the crash-free result.

use adcc::core::abft::{sites as mm_sites, TwoLoopAbft};
use adcc::core::cg::{cg_host, sites as cg_sites, ExtendedCg};
use adcc::core::mc::sites as mc_sites;
use adcc::prelude::*;

#[test]
fn cg_recovery_equivalent_at_every_instrumented_site() {
    let class = CgClass::TEST;
    let a = class.matrix(71);
    let b = class.rhs(&a);
    let iters = 10;
    let reference = cg_host(&a, &b, iters);
    let cfg = SystemConfig::nvm_only(16 << 10, 64 << 20);

    for phase in [
        cg_sites::PH_AFTER_Q,
        cg_sites::PH_AFTER_Z,
        cg_sites::PH_AFTER_R,
        cg_sites::PH_LINE10,
        cg_sites::PH_ITER_END,
    ] {
        for crash_iter in [2u64, 7] {
            let mut sys = MemorySystem::new(cfg.clone());
            let (cg, rho0) = ExtendedCg::setup(&mut sys, &a, &b, iters);
            let trig = CrashTrigger::AtSite {
                site: CrashSite::new(phase, crash_iter),
                occurrence: 1,
            };
            let mut emu = CrashEmulator::from_system(sys, trig);
            let image = cg
                .run(&mut emu, 0, iters, rho0)
                .crashed()
                .expect("trigger must fire");
            let rec = cg.recover_and_resume(&image, cfg.clone());
            let diff = max_diff(&rec.solution.z, &reference);
            assert!(
                diff < 1e-9,
                "phase {phase} iter {crash_iter}: diverged by {diff}"
            );
            assert!(rec.report.lost_units <= crash_iter + 1);
        }
    }
}

#[test]
fn cg_recovery_equivalent_on_heterogeneous_platform() {
    let class = CgClass::TEST;
    let a = class.matrix(72);
    let b = class.rhs(&a);
    let iters = 8;
    let reference = cg_host(&a, &b, iters);
    let cfg = SystemConfig::heterogeneous(8 << 10, 32 << 10, 64 << 20);

    let mut sys = MemorySystem::new(cfg.clone());
    let (cg, rho0) = ExtendedCg::setup(&mut sys, &a, &b, iters);
    let trig = CrashTrigger::AtSite {
        site: CrashSite::new(cg_sites::PH_LINE10, 5),
        occurrence: 1,
    };
    let mut emu = CrashEmulator::from_system(sys, trig);
    let image = cg.run(&mut emu, 0, iters, rho0).crashed().unwrap();
    let rec = cg.recover_and_resume(&image, cfg);
    assert!(max_diff(&rec.solution.z, &reference) < 1e-9);
}

#[test]
fn abft_recovery_equivalent_at_every_block() {
    let n = 20;
    let k = 5;
    let a = Matrix::random(n, n, 81);
    let b = Matrix::random(n, n, 82);
    let want = a.mul_naive(&b);
    let cfg = SystemConfig::nvm_only(4 << 10, 32 << 20);

    for (phase, max_idx) in [
        (mm_sites::PH_LOOP1, n / k),
        (mm_sites::PH_LOOP2, (n + 1) / k),
    ] {
        for idx in 0..max_idx as u64 {
            let mut sys = MemorySystem::new(cfg.clone());
            let mm = TwoLoopAbft::setup(&mut sys, &a, &b, k);
            let trig = CrashTrigger::AtSite {
                site: CrashSite::new(phase, idx),
                occurrence: 1,
            };
            let mut emu = CrashEmulator::from_system(sys, trig);
            let image = mm.run(&mut emu).crashed().expect("trigger must fire");
            let (sys, rec) = mm.recover_and_resume(&image, cfg.clone());
            let diff = mm.peek_product(&sys).max_abs_diff(&want);
            assert!(
                diff < 1e-10,
                "phase {phase} block {idx}: product off by {diff} ({rec:?})"
            );
        }
    }
}

#[test]
fn mc_selective_recovery_exact_on_heterogeneous_platform() {
    let p = McProblem::generate(36, 128, 91);
    let lookups = 2_000u64;
    let cfg = SystemConfig::heterogeneous(8 << 10, 32 << 10, 16 << 20);

    // Reference.
    let mut sys = MemorySystem::new(cfg.clone());
    let mc = McSim::setup(&mut sys, p.clone(), lookups, 5, McMode::Native);
    let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
    mc.run(&mut emu, 0, lookups).completed().unwrap();
    let want = mc.peek_counts(&emu);

    // Crash + selective recovery.
    let mut sys = MemorySystem::new(cfg.clone());
    let mc = McSim::setup(&mut sys, p, lookups, 5, McMode::Selective { interval: 100 });
    let crash_at = 777u64;
    let trig = CrashTrigger::AtSite {
        site: CrashSite::new(mc_sites::PH_LOOKUP, crash_at),
        occurrence: 1,
    };
    let mut emu = CrashEmulator::from_system(sys, trig);
    let image = mc.run(&mut emu, 0, lookups).crashed().unwrap();
    let rec = mc.recover_and_resume(&image, cfg, crash_at + 1);
    // The paper claims "almost the same result": a counter line naturally
    // evicted between flushes makes NVM newer than the flush snapshot, so
    // replay can double-count a handful of lookups (bounded by one flush
    // interval per line). The exact-restart extension (per-line epochs)
    // removes even this residue — see `McMode::Epoch`.
    for c in 0..5 {
        let diff = (rec.counts[c] as i64 - want[c] as i64).unsigned_abs();
        assert!(
            diff <= 100,
            "type {c}: {} vs {} deviates beyond one flush interval",
            rec.counts[c],
            want[c]
        );
    }
    assert!(rec.resumed_from <= crash_at && rec.resumed_from >= crash_at - 100);
}

#[test]
fn pmem_transactional_cg_recovers_through_undo_log() {
    // Cross-crate: core CG + pmem undo pool + sim crash.
    use adcc::core::baseline;
    use adcc::core::cg::variants::run_with_pmem;
    let class = CgClass::TEST;
    let a = class.matrix(73);
    let b = class.rhs(&a);
    let iters = 6;
    let reference = cg_host(&a, &b, iters);
    let cfg = SystemConfig::nvm_only(16 << 10, 64 << 20);
    let mut sys = MemorySystem::new(cfg.clone());
    let (cg, rho0) = PlainCg::setup(&mut sys, &a, &b, iters);
    let mut pool = baseline::undo_pool(&mut sys, &cg, 16);
    let layout = pool.layout();
    let trig = CrashTrigger::AtSite {
        site: CrashSite::new(adcc::core::cg::sites::PH_ITER_END, 3),
        occurrence: 1,
    };
    let mut emu = CrashEmulator::from_system(sys, trig);
    let image = run_with_pmem(&mut emu, &cg, rho0, &mut pool)
        .crashed()
        .unwrap();
    let mut sys2 = MemorySystem::from_image(cfg, &image);
    let (done, rho) = baseline::pmem_restore(&mut sys2, &cg, rho0, layout);
    assert_eq!(done, 4, "iteration 3 committed before its end-site poll");
    let mut emu2 = CrashEmulator::from_system(sys2, CrashTrigger::Never);
    baseline::resume(&mut emu2, &cg, done, rho);
    assert!(max_diff(&cg.peek_solution(&emu2), &reference) < 1e-9);
}
