//! A recovery that crashes again still recovers (ROADMAP 18(a)).
//!
//! Each scenario whose recovery the public API can re-drive is crashed
//! twice, at its registered configuration: the five iterate-history
//! scenarios (`iterative::Extended`: `cg-extended`, `bicgstab-extended`,
//! `bicgstab-extended-windowed`, `jacobi-extended`, `stencil-extended`) and
//! `mc-selective`. The first crash lands at sampled site polls of the
//! forward run. Its recovery is then re-driven through the public hooks
//! `recover_and_resume` itself calls — `counter`, `detect_restart`,
//! `reenter` and `run` for a kernel, `idx_cell` and `McSim::run` for MC —
//! on an emulator armed to harvest a crash image at every poll of the
//! resumed run, which must end on the answer recovery gives. Each image is
//! a second crash, recovered with `recover_and_resume`. No second crash
//! may leave a silent state — an answer off the reference that recovery
//! trusted — and none may lose more than the mechanism's bound.
//!
//! `mc-epoch`, LU and the ds workloads stay out until their recovery can
//! take a trigger: the epoch replay, the checksum repair, the rebuild and
//! the undo rollback run inside their crates and poll nothing, so no
//! public hook re-drives them.

use adcc::core::bicgstab::{self, bicgstab_host, ExtendedBiCgStab};
use adcc::core::cg::{self, cg_host, ExtendedCg};
use adcc::core::iterative::{self, Extended};
use adcc::core::jacobi::{self, jacobi_host, ExtendedJacobi};
use adcc::core::mc::sim::{McMode, McSim};
use adcc::core::mc::{self, McProblem, XS_CHANNELS};
use adcc::core::stencil::{self, heat_host, ExtendedStencil};
use adcc::linalg::spd::CgClass;
use adcc::linalg::vecops::max_diff;
use adcc::sim::crash::{poll_groups, CrashEmulator, CrashSite, CrashTrigger, Harvest};
use adcc::sim::system::{MemorySystem, SystemConfig};

/// Campaign machines keep 2 MB of DRAM-direct scratch.
fn trimmed(mut cfg: SystemConfig) -> SystemConfig {
    cfg.dram_capacity = 2 << 20;
    cfg
}

fn at_site(phase: u32, index: u64, occurrence: u32) -> CrashTrigger {
    CrashTrigger::AtSite {
        site: CrashSite::new(phase, index),
        occurrence,
    }
}

/// A harvest point at each of the first `occurrences` polls of every site
/// `(phase, index)` with `index < indices`: one at every poll of a run
/// whose sites are those.
fn every_poll(phases: &[u32], indices: u64, occurrences: u32) -> Vec<(CrashTrigger, u64)> {
    let mut points = Vec::new();
    for &phase in phases {
        for index in 0..indices {
            for occurrence in 1..=occurrences {
                let unit = points.len() as u64;
                points.push((at_site(phase, index, occurrence), unit));
            }
        }
    }
    points
}

/// `emu`'s harvests, asserted to be one per poll of its run, with none
/// missed between the first and the last: their poll ordinals count up
/// from 1.
fn one_per_poll(emu: &mut CrashEmulator) -> Vec<Harvest> {
    let harvests = emu.take_harvests();
    assert!(!harvests.is_empty(), "the resumed run polled nothing");
    for (ordinal, h) in (1..).zip(&harvests) {
        assert_eq!(
            h.poll, ordinal,
            "a poll without a second crash: {:?}",
            h.site
        );
    }
    harvests
}

/// One iterate-history scenario at its registered configuration.
struct Kernel<F> {
    name: &'static str,
    cfg: SystemConfig,
    setup: F,
    /// Every phase its run polls, and bounds on the index and occurrence of
    /// any site it polls.
    polls: (&'static [u32], u64, u32),
    /// The first crashes: site triggers of its unit space.
    first: Vec<CrashTrigger>,
    /// History rows its recovery can verify.
    window: usize,
    reference: Vec<f64>,
    tol: f64,
}

/// What the second crashes of one scenario came to.
#[derive(Debug, Default)]
struct Tally {
    first: usize,
    second: usize,
    silent: Vec<String>,
}

impl<K, F> Kernel<F>
where
    K: Extended,
    F: Fn(&mut MemorySystem) -> (K, K::Carry),
{
    fn second_crashes(&self) -> Tally {
        let mut sys = MemorySystem::new(self.cfg.clone());
        let (k, carry0) = (self.setup)(&mut sys);
        let units = k.units();
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        emu.arm_harvest(self.first.iter().copied().zip(0..));
        assert!(k.run(&mut emu, 0, units, carry0).completed().is_some());
        let harvests = emu.take_harvests();
        let mut tally = Tally::default();
        for group in poll_groups(&harvests) {
            let first = &group[0];
            let image = first.image.materialize();
            // The recovery `recover_and_resume` runs, by hand.
            let mut sys = MemorySystem::from_image(self.cfg.clone(), &image);
            k.counter().get(&mut sys);
            let verified = k.detect_restart(&mut sys);
            let carry = k.reenter(&mut sys, verified);
            let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
            let (phases, indices, occurrences) = self.polls;
            emu.arm_harvest(every_poll(phases, indices, occurrences));
            let resumed_at = verified.map_or(0, |j| j + 1);
            let end = k.run(&mut emu, resumed_at, units, carry).completed();
            let answer: Vec<f64> = k.peek(&emu, end.expect("trigger is Never")).into();
            let once = iterative::recover_and_resume(&k, &image, self.cfg.clone());
            let want: Vec<f64> = once.solution.into();
            assert!(
                answer
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(want.iter().map(|v| v.to_bits())),
                "{}: the re-driven recovery of {:?} is not the recovery",
                self.name,
                first.site
            );
            for second in one_per_poll(&mut emu) {
                let rec = iterative::recover_and_resume(
                    &k,
                    &second.image.materialize(),
                    self.cfg.clone(),
                );
                let lost = rec.report.lost_units;
                let got: Vec<f64> = rec.solution.into();
                let off = max_diff(&got, &self.reference);
                if rec.restart_from.is_some() && off >= self.tol {
                    tally.silent.push(format!(
                        "first at {:?}, second at {:?}: off by {off:e}",
                        first.site, second.site
                    ));
                }
                let what = || format!("{}: {:?} then {:?}", self.name, first.site, second.site);
                assert!(lost <= units as u64, "{}: lost {lost}", what());
                if rec.restart_from.is_some() {
                    let rows = self.window.min(units + 1) as u64;
                    assert!(
                        lost + 2 <= rows,
                        "{}: lost {lost} behind {rows} rows",
                        what()
                    );
                }
                tally.second += 1;
            }
            tally.first += 1;
        }
        tally
    }
}

/// Every `stride`-th of `units` site units, under `trigger`.
fn sampled(units: u64, stride: u64, trigger: impl Fn(u64) -> CrashTrigger) -> Vec<CrashTrigger> {
    (stride / 2..units)
        .step_by(stride as usize)
        .map(trigger)
        .collect()
}

/// Unit `u` of a per-iteration phase table crashes at `phases[u % len]`
/// of iteration `u / len`.
fn phase_unit(phases: &'static [u32]) -> impl Fn(u64) -> CrashTrigger {
    move |u| {
        let len = phases.len() as u64;
        at_site(phases[(u % len) as usize], u / len, 1)
    }
}

/// No silent state, and enough crashes to mean it.
fn assert_holds(name: &str, tally: &Tally) {
    eprintln!(
        "{name}: {} first crashes, {} second",
        tally.first, tally.second
    );
    assert!(
        tally.first >= 3 && tally.second >= 3 * tally.first,
        "{name}: {tally:?}"
    );
    assert!(
        tally.silent.is_empty(),
        "{name}: silent states {:#?}",
        tally.silent
    );
}

#[test]
fn cg_extended_survives_a_second_crash() {
    const ITERS: usize = 12;
    const PHASES: &[u32] = &[
        cg::sites::PH_AFTER_Q,
        cg::sites::PH_AFTER_Z,
        cg::sites::PH_AFTER_R,
        cg::sites::PH_LINE10,
    ];
    let a = CgClass::TEST.matrix(301);
    let b = CgClass::TEST.rhs(&a);
    let n = a.n();
    let cap = 4 * (ITERS + 2) * n * 8 + a.nnz() * 12 + (n + 1) * 4 + (2 << 20);
    let kernel = Kernel {
        name: "cg-extended",
        cfg: trimmed(SystemConfig::nvm_only(16 << 10, cap)),
        setup: |sys: &mut MemorySystem| ExtendedCg::setup(sys, &a, &b, ITERS),
        polls: (
            &[
                cg::sites::PH_AFTER_Q,
                cg::sites::PH_AFTER_Z,
                cg::sites::PH_AFTER_R,
                cg::sites::PH_LINE10,
                cg::sites::PH_ITER_END,
            ],
            ITERS as u64,
            1,
        ),
        first: sampled((PHASES.len() * ITERS) as u64, 5, phase_unit(PHASES)),
        window: ITERS + 1,
        reference: cg_host(&a, &b, ITERS),
        tol: 1e-9,
    };
    assert_holds(kernel.name, &kernel.second_crashes());
}

/// `bicgstab-extended` over its full history, or `-windowed` over a ring
/// of four rows.
fn bicgstab(name: &'static str, window: usize) {
    const ITERS: usize = 10;
    const PHASES: &[u32] = &[bicgstab::sites::PH_AFTER_XR, bicgstab::sites::PH_ITER_END];
    let a = CgClass::TEST.matrix(302);
    let b = CgClass::TEST.rhs(&a);
    let n = a.n();
    let cap =
        3 * (ITERS + 2) * n * 8 + (ITERS + 2) * 4 * 8 + a.nnz() * 12 + (n + 1) * 4 + (2 << 20);
    let rho0: f64 = b.iter().map(|v| v * v).sum();
    let kernel = Kernel {
        name,
        cfg: trimmed(SystemConfig::nvm_only(16 << 10, cap)),
        setup: |sys: &mut MemorySystem| {
            let bi = ExtendedBiCgStab::setup_windowed(sys, &a, &b, ITERS, window);
            (bi, rho0)
        },
        polls: (PHASES, ITERS as u64, 1),
        first: sampled((PHASES.len() * ITERS) as u64, 3, phase_unit(PHASES)),
        window,
        reference: bicgstab_host(&a, &b, ITERS),
        tol: 1e-8,
    };
    assert_holds(name, &kernel.second_crashes());
}

#[test]
fn bicgstab_extended_survives_a_second_crash() {
    bicgstab("bicgstab-extended", 11);
}

#[test]
fn bicgstab_extended_windowed_survives_a_second_crash() {
    bicgstab("bicgstab-extended-windowed", 4);
}

#[test]
fn jacobi_extended_survives_a_second_crash() {
    const ITERS: usize = 12;
    let a = CgClass::TEST.matrix(303);
    let b = CgClass::TEST.rhs(&a);
    let n = a.n();
    let cap = (ITERS + 2) * n * 8 + a.nnz() * 12 + (n + 1) * 4 + (2 << 20);
    let kernel = Kernel {
        name: "jacobi-extended",
        cfg: trimmed(SystemConfig::nvm_only(16 << 10, cap)),
        setup: |sys: &mut MemorySystem| (ExtendedJacobi::setup(sys, &a, &b, ITERS), ()),
        polls: (
            &[jacobi::sites::PH_AFTER_X, jacobi::sites::PH_ITER_END],
            ITERS as u64,
            1,
        ),
        first: sampled(ITERS as u64, 1, phase_unit(&[jacobi::sites::PH_AFTER_X])),
        window: ITERS + 1,
        reference: jacobi_host(&a, &b, ITERS),
        tol: 1e-9,
    };
    assert_holds(kernel.name, &kernel.second_crashes());
}

#[test]
fn stencil_extended_survives_a_second_crash() {
    const GRID: usize = 24;
    const SWEEPS: usize = 10;
    const WINDOW: usize = 3;
    const ROW_BLOCK: usize = 4;
    let blocks = (GRID as u64 - 2).div_ceil(ROW_BLOCK as u64);
    // Even units crash at a sweep's end, odd ones after a block of it.
    let unit = move |u: u64| {
        let sweep = u / 2;
        if u.is_multiple_of(2) {
            at_site(stencil::sites::PH_SWEEP_END, sweep, 1)
        } else {
            at_site(
                stencil::sites::PH_AFTER_BLOCK,
                sweep % blocks,
                sweep as u32 + 1,
            )
        }
    };
    let cap = (WINDOW + 3) * GRID * GRID * 8 + (2 << 20);
    let kernel = Kernel {
        name: "stencil-extended",
        cfg: trimmed(SystemConfig::nvm_only(4 << 10, cap)),
        setup: |sys: &mut MemorySystem| {
            let st = ExtendedStencil::setup(sys, GRID, GRID, SWEEPS, WINDOW, ROW_BLOCK);
            assert_eq!(st.blocks() as u64, blocks);
            (st, ())
        },
        polls: (
            &[stencil::sites::PH_AFTER_BLOCK, stencil::sites::PH_SWEEP_END],
            SWEEPS as u64,
            SWEEPS as u32,
        ),
        first: sampled(2 * SWEEPS as u64, 3, unit),
        window: WINDOW,
        reference: heat_host(GRID, GRID, SWEEPS),
        tol: 1e-9,
    };
    assert_holds(kernel.name, &kernel.second_crashes());
}

/// `mc-selective`: the paper's MC scheme, a flush of the tallies and the
/// loop index every `INTERVAL` lookups, replayed from the flushed index. A
/// recovery whose tallies do not sum to the lookups is detected (the
/// count-total audit); one that sums right must be the crash-free count,
/// having replayed at most one interval.
#[test]
fn mc_selective_survives_a_second_crash() {
    const LOOKUPS: u64 = 1_200;
    const INTERVAL: u64 = 64;
    let problem = McProblem::generate(36, 64, 305);
    let nvm = (problem.grid_bytes() + (1 << 20)).next_power_of_two();
    let cfg = trimmed(SystemConfig::nvm_only(16 << 10, nvm));
    let setup = |mode| {
        let mut sys = MemorySystem::new(cfg.clone());
        let mc = McSim::setup(&mut sys, problem.clone(), LOOKUPS, 42, mode);
        (mc, CrashEmulator::from_system(sys, CrashTrigger::Never))
    };
    let reference: [u64; XS_CHANNELS] = {
        let (mc, mut emu) = setup(McMode::Native);
        assert!(mc.run(&mut emu, 0, LOOKUPS).completed().is_some());
        mc.peek_counts(&emu)
    };
    let (mc, mut emu) = setup(McMode::Selective { interval: INTERVAL });
    let lookup = |i: u64| at_site(mc::sites::PH_LOOKUP, i, 1);
    // Lookups 127 and 703 end with a flush, so recovery replays nothing and
    // boots the tallies the flush left. Between flushes the small cache
    // evicts tally lines, so recovery double-counts what it replays.
    emu.arm_harvest([127, 150, 400, 703, 950, 1_130].map(|i| (lookup(i), i)));
    assert!(mc.run(&mut emu, 0, LOOKUPS).completed().is_some());
    let mut tally = Tally::default();
    let (mut detected, mut exact) = (0, 0);
    for first in emu.take_harvests() {
        let image = first.image.materialize();
        let mut sys = MemorySystem::from_image(cfg.clone(), &image);
        let resumed_at = mc.idx_cell.get(&mut sys);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        emu.arm_harvest(every_poll(&[mc::sites::PH_LOOKUP], LOOKUPS, 1));
        assert!(mc.run(&mut emu, resumed_at, LOOKUPS).completed().is_some());
        let once = mc.recover_and_resume(&image, cfg.clone(), first.site.index + 1);
        assert_eq!(
            mc.peek_counts(&emu),
            once.counts,
            "the re-driven recovery of {:?} is not the recovery",
            first.site
        );
        for second in one_per_poll(&mut emu) {
            let crashed_at = second.site.index + 1;
            let rec = mc.recover_and_resume(&second.image.materialize(), cfg.clone(), crashed_at);
            let lost = rec.report.lost_units;
            assert!(
                lost <= INTERVAL,
                "{:?} then {:?}: {lost} lookups replayed",
                first.site,
                second.site
            );
            if rec.counts.iter().sum::<u64>() != LOOKUPS {
                detected += 1;
            } else if rec.counts == reference {
                exact += 1;
            } else {
                tally.silent.push(format!(
                    "first at {:?}, second at {:?}: {:?}",
                    first.site, second.site, rec.counts
                ));
            }
            tally.second += 1;
        }
        tally.first += 1;
    }
    eprintln!("mc-selective: {exact} exact, {detected} detected");
    assert!(exact > 0);
    assert_holds("mc-selective", &tally);
}
