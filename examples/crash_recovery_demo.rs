//! The seven test cases on one CG workload: run each mechanism, crash it,
//! recover it, and compare runtime overhead and recomputation — the whole
//! paper in one binary.
//!
//! Run with: `cargo run --release --example crash_recovery_demo`

use adcc::ckpt::manager::CkptManager;
use adcc::core::cg::variants::{ckpt_restore_and_resume, run_native, run_with_ckpt, run_with_pmem};
use adcc::core::cg::{plain::cg_host, sites};
use adcc::harness::report::pct_overhead;
use adcc::prelude::*;
use adcc::sim::timing::HddTiming;

fn main() {
    let class = CgClass::A;
    let a = class.matrix(11);
    let b = class.rhs(&a);
    let iters = 15;
    let reference = cg_host(&a, &b, iters);
    let capacity = 4 * (iters + 1) * a.n() * 8 + a.nnz() * 12 + (16 << 20);
    println!(
        "CG class {} (n = {}), {} iterations — all seven mechanisms, crash in iteration 10\n",
        class.name,
        a.n(),
        iters
    );
    println!(
        "{:<16} {:>12} {:>10}   recovery",
        "mechanism", "loop time", "overhead"
    );

    // Per-platform native baselines (the heterogeneous platform's NVM is
    // 8x slower, so its cases are normalized against its own native run).
    let mut native_ps: [u64; 2] = [0, 0];
    let platform_idx = |p: Platform| usize::from(p == Platform::Hetero);
    for platform in [Platform::NvmOnly, Platform::Hetero] {
        let cfg = platform.cg_config(capacity);
        let mut sys = MemorySystem::new(cfg);
        let (cg, rho0) = PlainCg::setup(&mut sys, &a, &b, iters);
        let t0 = sys.now();
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        run_native(&mut emu, &cg, rho0).completed().unwrap();
        native_ps[platform_idx(platform)] = (emu.now() - t0).ps();
    }

    for case in Case::ALL {
        let cfg = case.platform().cg_config(capacity);
        let trigger = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_ITER_END, 9),
            occurrence: 1,
        };
        let (loop_ps, recovery_note, solution) = match case {
            Case::AlgoNvm | Case::AlgoNvmDram => {
                let mut sys = MemorySystem::new(cfg.clone());
                let (cg, rho0) = ExtendedCg::setup(&mut sys, &a, &b, iters);
                let t0 = sys.now();
                let mut emu = CrashEmulator::from_system(sys, trigger);
                let image = cg.run(&mut emu, 0, iters, rho0).crashed().unwrap();
                let crash_time = (emu.now() - t0).ps();
                let rec = cg.recover_and_resume(&image, cfg);
                (
                    // Projected full-loop time: the crash hit at 10/15.
                    crash_time * iters as u64 / 10,
                    format!(
                        "invariant scan -> restart at iter {:?}, {} lost",
                        rec.restart_from.map(|j| j + 1).unwrap_or(0),
                        rec.report.lost_units
                    ),
                    rec.solution.z,
                )
            }
            Case::Native => {
                let mut sys = MemorySystem::new(cfg.clone());
                let (cg, rho0) = PlainCg::setup(&mut sys, &a, &b, iters);
                let t0 = sys.now();
                let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
                run_native(&mut emu, &cg, rho0).completed().unwrap();
                let t = (emu.now() - t0).ps();
                (
                    t,
                    "none (restart from scratch)".into(),
                    cg.peek_solution(&emu),
                )
            }
            Case::CkptHdd | Case::CkptNvm | Case::CkptNvmDram => {
                let mut sys = MemorySystem::new(cfg.clone());
                let (cg, rho0) = PlainCg::setup(&mut sys, &a, &b, iters);
                let mut mgr = match case {
                    Case::CkptHdd => {
                        CkptManager::new_hdd(cg.ckpt_regions(), HddTiming::local_disk())
                    }
                    _ => {
                        CkptManager::new_nvm(&mut sys, cg.ckpt_regions(), case == Case::CkptNvmDram)
                    }
                };
                let t0 = sys.now();
                let mut emu = CrashEmulator::from_system(sys, trigger);
                let image = run_with_ckpt(&mut emu, &cg, rho0, &mut mgr)
                    .crashed()
                    .unwrap();
                let crash_time = (emu.now() - t0).ps();
                let sys2 = MemorySystem::from_image(cfg, &image);
                let mut emu2 = CrashEmulator::from_system(sys2, CrashTrigger::Never);
                let (_, re) = ckpt_restore_and_resume(&mut emu2, &cg, rho0, &mut mgr);
                (
                    crash_time * iters as u64 / 10,
                    format!(
                        "restore newest checkpoint, {} iters re-run",
                        re + 10 - iters as u64
                    ),
                    cg.peek_solution(&emu2),
                )
            }
            Case::PmemNvm => {
                let mut sys = MemorySystem::new(cfg.clone());
                let (cg, rho0) = PlainCg::setup(&mut sys, &a, &b, iters);
                let lines = 3 * (cg.n * 8).div_ceil(64) + 16;
                let mut pool = UndoPool::new(&mut sys, lines);
                let layout = pool.layout();
                let t0 = sys.now();
                let mut emu = CrashEmulator::from_system(sys, trigger);
                let image = run_with_pmem(&mut emu, &cg, rho0, &mut pool)
                    .crashed()
                    .unwrap();
                let crash_time = (emu.now() - t0).ps();
                let mut sys2 = MemorySystem::from_image(cfg, &image);
                let rolled = UndoPool::recover(layout, &mut sys2);
                let done = cg.iter_cell.get(&mut sys2) as usize;
                let mut rho = if done == 0 {
                    rho0
                } else {
                    cg.rho_cell.get(&mut sys2)
                };
                let mut emu2 = CrashEmulator::from_system(sys2, CrashTrigger::Never);
                for _ in done..iters {
                    rho = cg.step(&mut emu2, rho);
                }
                (
                    crash_time * iters as u64 / 10,
                    format!("undo log rolled back {rolled} lines, resumed at iter {done}"),
                    cg.peek_solution(&emu2),
                )
            }
        };
        let baseline = native_ps[platform_idx(case.platform())];
        let overhead = pct_overhead(loop_ps as f64 / baseline as f64);
        let diff = max_diff(&solution, &reference);
        assert!(
            diff < 1e-8 || case == Case::Native,
            "{}: solution diverged by {diff}",
            case.name()
        );
        println!(
            "{:<16} {:>9.1} ms {:>10}   {}",
            case.name(),
            loop_ps as f64 / 1e9,
            overhead,
            recovery_note
        );
    }
    println!("\nAll mechanisms recovered the same solution; only their costs differ.");
}
