//! The seven test cases on one CG workload: run each mechanism, crash it,
//! recover it, and compare runtime overhead and recomputation — the whole
//! paper in one binary.
//!
//! Run with: `cargo run --release --example crash_recovery_demo`

use adcc::ckpt::manager::CkptManager;
use adcc::core::baseline::{self, Mechanism};
use adcc::core::cg::variants::run_native;
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
            // Cases 1-5 are one experiment: the plain kernel under a
            // mechanism that runs it forward and, after the crash,
            // restores where to resume.
            _ => {
                let mut sys = MemorySystem::new(cfg.clone());
                let (cg, rho0) = PlainCg::setup(&mut sys, &a, &b, iters);
                let (mut mechanism, how) = match case {
                    Case::Native => (Mechanism::Native, "none: restart from scratch"),
                    Case::PmemNvm => (
                        Mechanism::pmem(&mut sys, &cg, 1, 16),
                        "undo log rolled back",
                    ),
                    Case::CkptHdd => {
                        let mgr = CkptManager::new_hdd(cg.ckpt_regions(), HddTiming::local_disk());
                        (
                            Mechanism::Ckpt { mgr, period: 1 },
                            "newest checkpoint restored",
                        )
                    }
                    _ => (
                        Mechanism::nvm_ckpt(&mut sys, &cg, 1, case == Case::CkptNvmDram),
                        "newest checkpoint restored",
                    ),
                };
                let t0 = sys.now();
                let mut emu = CrashEmulator::from_system(sys, trigger);
                let image = mechanism.run(&mut emu, &cg, rho0).crashed().unwrap();
                let crash_time = (emu.now() - t0).ps();
                let sys2 = MemorySystem::from_image(cfg, &image);
                let mut emu2 = CrashEmulator::from_system(sys2, CrashTrigger::Never);
                let (start, rho, _) = mechanism.restore(&mut emu2, &cg, rho0);
                baseline::resume(&mut emu2, &cg, start, rho);
                (
                    crash_time * iters as u64 / 10,
                    format!("{how}, {} iters re-run", 10 - start),
                    cg.peek_solution(&emu2),
                )
            }
        };
        let baseline = native_ps[platform_idx(case.platform())];
        let overhead = pct_overhead(loop_ps as f64 / baseline as f64);
        let diff = max_diff(&solution, &reference);
        assert!(diff < 1e-8, "{}: solution diverged by {diff}", case.name());
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
