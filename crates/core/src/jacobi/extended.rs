//! Extended Jacobi: history dimension + one flushed line per iteration,
//! with update-equation recovery.
//!
//! Mirrors [`crate::cg::extended`]: the iterate `x` gains an iteration
//! dimension (full history or a bounded ring of `window >= 3` rows), and
//! the only explicit persistence is one `persist_line` of the iteration
//! counter per iteration. Recovery scans backwards from the crashed
//! iteration and accepts the first `j` whose NVM data satisfies the update
//! equation `x(j+1) = x(j) + ω·D⁻¹·(b − A·x(j))` — one SpMV per candidate,
//! the same cost class as CG's residual check.

use adcc_linalg::csr::CsrMatrix;
use adcc_linalg::simops::SimCsr;
use adcc_sim::crash::{CrashEmulator, CrashSite, RunOutcome};
use adcc_sim::image::NvmImage;
use adcc_sim::parray::{PArray, PMatrix, PScalar};
use adcc_sim::system::{MemorySystem, SystemConfig};

use super::plain::inv_diag;
use super::{sites, OMEGA};
use crate::iterative::{self, Extended, Recovery};

/// Relative tolerance for the update-equation invariant, scaled by ‖b‖.
const TOL_UPDATE: f64 = 1e-6;

/// What recovery did, plus the iterate after all `iters` iterations.
pub type JacobiRecovery = Recovery<Vec<f64>>;

/// Extended Jacobi state: iterate history over simulated NVM.
pub struct ExtendedJacobi {
    pub a: SimCsr,
    pub b: PArray<f64>,
    pub dinv: PArray<f64>,
    /// `x[i]` is the iterate entering iteration `i` (row `i % window`).
    pub x: PMatrix<f64>,
    /// The one cache line flushed every iteration.
    pub iter_cell: PScalar<u64>,
    /// Volatile scratch for `A·x`.
    ax: PArray<f64>,
    pub n: usize,
    pub iters: usize,
    /// History rows; iteration `i` lives in row `i % window`.
    pub window: usize,
}

impl ExtendedJacobi {
    /// Full-history setup (`iters + 1` rows).
    pub fn setup(sys: &mut MemorySystem, a_host: &CsrMatrix, b_host: &[f64], iters: usize) -> Self {
        Self::setup_windowed(sys, a_host, b_host, iters, iters + 1)
    }

    /// Bounded-history setup: `window >= 3` rows; recovery can restart at
    /// most `window - 2` iterations back.
    pub fn setup_windowed(
        sys: &mut MemorySystem,
        a_host: &CsrMatrix,
        b_host: &[f64],
        iters: usize,
        window: usize,
    ) -> Self {
        let n = a_host.n();
        assert_eq!(b_host.len(), n);
        assert!(window >= 3, "window must hold at least 3 iterations");
        let window = window.min(iters + 1);
        let a = SimCsr::seed_from(sys, a_host);
        let b = PArray::<f64>::alloc_nvm(sys, n);
        b.seed_slice(sys, b_host);
        let dinv = PArray::<f64>::alloc_nvm(sys, n);
        dinv.seed_slice(sys, &inv_diag(a_host));
        let x = PMatrix::<f64>::alloc_nvm(sys, window, n);
        // x[0] = 0 is the zero-initialized NVM.
        let iter_cell = PScalar::<u64>::alloc_nvm(sys);
        let ax = PArray::<f64>::alloc_dram(sys, n);
        ExtendedJacobi {
            a,
            b,
            dinv,
            x,
            iter_cell,
            ax,
            n,
            iters,
            window,
        }
    }

    #[inline]
    fn x_row(&self, i: usize) -> PArray<f64> {
        self.x.row(i % self.window)
    }

    /// Run iterations `[from, to)`. Returns the crash image if the
    /// emulator's trigger fires.
    pub fn run(&self, emu: &mut CrashEmulator, from: usize, to: usize) -> RunOutcome<()> {
        for i in from..to.min(self.iters) {
            // Flush the cache line containing i (the paper's only per-
            // iteration persistence).
            self.iter_cell.set(emu, i as u64);
            self.iter_cell.persist(emu);
            emu.sfence();

            let x_i = self.x_row(i);
            let x_next = self.x_row(i + 1);
            self.a.spmv(emu, x_i, self.ax);
            for j in 0..self.n {
                let v = x_i.get(emu, j)
                    + OMEGA * self.dinv.get(emu, j) * (self.b.get(emu, j) - self.ax.get(emu, j));
                x_next.set(emu, j, v);
            }
            emu.charge_flops(4 * self.n as u64);
            if emu.poll(CrashSite::new(sites::PH_AFTER_X, i as u64)) {
                return RunOutcome::Crashed(emu.crash_now());
            }
            if emu.poll(CrashSite::new(sites::PH_ITER_END, i as u64)) {
                return RunOutcome::Crashed(emu.crash_now());
            }
        }
        RunOutcome::Completed(())
    }

    /// Uncharged extraction of the iterate after iteration `iters`.
    pub fn peek_solution(&self, sys: &MemorySystem) -> Vec<f64> {
        let last = self.x_row(self.iters);
        (0..self.n).map(|j| last.peek(sys, j)).collect()
    }

    /// `‖x(j+1) − (x(j) + ω·D⁻¹·(b − A·x(j)))‖ <= TOL · ‖b‖`, plus a
    /// non-degeneracy guard: a candidate whose `x(j+1)` is all zeros can
    /// only be accepted if the recomputed update is genuinely zero (which
    /// the tolerance check already implies), so no extra case is needed —
    /// unlike CG's orthogonality check, the update equation is one-sided
    /// and cannot be satisfied by unwritten rows unless `b = 0`.
    fn check_update(&self, sys: &mut MemorySystem, j: usize, norm_b: f64) -> bool {
        let x_j = self.x_row(j);
        let x_next = self.x_row(j + 1);
        self.a.spmv(sys, x_j, self.ax);
        let mut err2 = 0.0f64;
        for k in 0..self.n {
            let want = x_j.get(sys, k)
                + OMEGA * self.dinv.get(sys, k) * (self.b.get(sys, k) - self.ax.get(sys, k));
            let got = x_next.get(sys, k);
            let d = want - got;
            err2 += d * d;
        }
        sys.charge_flops(6 * self.n as u64);
        err2.is_finite() && err2.sqrt() <= TOL_UPDATE * norm_b
    }

    /// Full recovery ([`iterative::recover_and_resume`]).
    pub fn recover_and_resume(&self, image: &NvmImage, cfg: SystemConfig) -> JacobiRecovery {
        iterative::recover_and_resume(self, image, cfg)
    }
}

impl Extended for ExtendedJacobi {
    type Carry = ();
    type Solution = Vec<f64>;

    fn units(&self) -> usize {
        self.iters
    }
    fn counter(&self) -> PScalar<u64> {
        self.iter_cell
    }
    /// Algorithm-directed restart detection on a post-crash system:
    /// backwards scan for the newest `j` whose `(x(j), x(j+1))` pair in
    /// NVM satisfies the update equation.
    fn detect_restart(&self, sys: &mut MemorySystem) -> Option<usize> {
        let crashed = self.iter_cell.get(sys) as usize;
        let norm_b = adcc_linalg::simops::dot(sys, self.b, self.b).sqrt();
        iterative::candidates(crashed, self.iters, self.window)
            .find(|&j| self.check_update(sys, j, norm_b))
    }

    /// Nothing is carried; a scratch restart rebuilds `x(0) = 0` (the
    /// ring may have overwritten it).
    fn reenter(&self, sys: &mut MemorySystem, verified: Option<usize>) {
        if verified.is_none() {
            let x0 = self.x_row(0);
            for k in 0..self.n {
                x0.set(sys, k, 0.0);
            }
        }
    }

    fn reenter_dirty(&self, _sys: &mut MemorySystem, _c: usize) {}

    fn run(&self, emu: &mut CrashEmulator, from: usize, to: usize, (): ()) -> RunOutcome<()> {
        ExtendedJacobi::run(self, emu, from, to)
    }
    fn peek(&self, sys: &MemorySystem, (): ()) -> Vec<f64> {
        self.peek_solution(sys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi::plain::jacobi_host;
    use adcc_linalg::spd::CgClass;
    use adcc_linalg::vecops::max_diff;
    use adcc_sim::crash::CrashTrigger;

    fn cfg() -> SystemConfig {
        SystemConfig::nvm_only(32 << 10, 64 << 20)
    }

    fn problem() -> (CsrMatrix, Vec<f64>) {
        let class = CgClass::TEST;
        let a = class.matrix(21);
        let b = class.rhs(&a);
        (a, b)
    }

    #[test]
    fn extended_matches_host_reference() {
        let (a, b) = problem();
        let mut sys = MemorySystem::new(cfg());
        let jac = ExtendedJacobi::setup(&mut sys, &a, &b, 10);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        jac.run(&mut emu, 0, 10).completed().unwrap();
        let got = jac.peek_solution(&emu);
        assert!(max_diff(&got, &jacobi_host(&a, &b, 10)) < 1e-12);
    }

    #[test]
    fn crash_and_recovery_reproduce_no_crash_solution() {
        let (a, b) = problem();
        let want = jacobi_host(&a, &b, 12);
        let mut sys = MemorySystem::new(cfg());
        let jac = ExtendedJacobi::setup(&mut sys, &a, &b, 12);
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_AFTER_X, 8),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = jac.run(&mut emu, 0, 12).crashed().expect("must crash");
        let rec = jac.recover_and_resume(&image, cfg());
        assert!(
            max_diff(&rec.solution, &want) < 1e-9,
            "recovered iterate diverged: {}",
            max_diff(&rec.solution, &want)
        );
        assert!(rec.report.lost_units >= 1);
        assert!(rec.report.detect_time.ps() > 0);
    }

    #[test]
    fn small_cache_recovers_recent_iteration() {
        let (a, b) = problem();
        let tiny = SystemConfig::nvm_only(2 << 10, 64 << 20);
        let mut sys = MemorySystem::new(tiny.clone());
        let jac = ExtendedJacobi::setup(&mut sys, &a, &b, 10);
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_AFTER_X, 7),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = jac.run(&mut emu, 0, 10).crashed().unwrap();
        let rec = jac.recover_and_resume(&image, tiny);
        assert!(rec.restart_from.is_some());
        assert!(rec.report.lost_units <= 3, "lost {}", rec.report.lost_units);
    }

    #[test]
    fn large_cache_restarts_from_scratch() {
        let (a, b) = problem();
        let big = SystemConfig::nvm_only(8 << 20, 64 << 20);
        let mut sys = MemorySystem::new(big.clone());
        let jac = ExtendedJacobi::setup(&mut sys, &a, &b, 10);
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_AFTER_X, 7),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = jac.run(&mut emu, 0, 10).crashed().unwrap();
        let rec = jac.recover_and_resume(&image, big);
        assert_eq!(rec.restart_from, None);
        assert_eq!(rec.report.lost_units, 8);
        assert!(max_diff(&rec.solution, &jacobi_host(&a, &b, 10)) < 1e-9);
    }

    #[test]
    fn windowed_recovery_is_correct() {
        let (a, b) = problem();
        let want = jacobi_host(&a, &b, 12);
        let tiny = SystemConfig::nvm_only(2 << 10, 64 << 20);
        let mut sys = MemorySystem::new(tiny.clone());
        let jac = ExtendedJacobi::setup_windowed(&mut sys, &a, &b, 12, 4);
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_AFTER_X, 9),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = jac.run(&mut emu, 0, 12).crashed().unwrap();
        let rec = jac.recover_and_resume(&image, tiny);
        assert!(rec.restart_from.is_some(), "should restart within window");
        assert!(max_diff(&rec.solution, &want) < 1e-9);
    }

    #[test]
    fn only_one_line_flushed_per_iteration() {
        let (a, b) = problem();
        let mut sys = MemorySystem::new(cfg());
        let jac = ExtendedJacobi::setup(&mut sys, &a, &b, 6);
        let before = sys.stats().clflushes;
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        jac.run(&mut emu, 0, 6).completed().unwrap();
        assert_eq!(emu.stats().clflushes - before, 6);
    }

    #[test]
    fn detection_rejects_torn_iterate() {
        // Manually corrupt half of x[j+1] in NVM and verify the check
        // rejects it.
        let (a, b) = problem();
        let mut sys = MemorySystem::new(cfg());
        let jac = ExtendedJacobi::setup(&mut sys, &a, &b, 6);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        jac.run(&mut emu, 0, 6).completed().unwrap();
        let mut sys = emu.into_system();
        // Persist everything so NVM is the truth, then corrupt x[5]: the
        // scan starts at j = 5 (pair x5/x6) and must reject both j = 5
        // and j = 4 (pair x4/x5) before accepting j = 3 (pair x3/x4).
        jac.x.array().persist_all(&mut sys);
        jac.iter_cell.set(&mut sys, 5);
        jac.iter_cell.persist(&mut sys);
        let x5 = jac.x_row(5);
        for k in 0..jac.n / 2 {
            x5.set(&mut sys, k, 1e30);
        }
        x5.persist_all(&mut sys);
        let image = sys.crash();
        let mut sys2 = MemorySystem::from_image(cfg(), &image);
        assert_eq!(
            jac.detect_restart(&mut sys2),
            Some(3),
            "must reject every candidate whose pair includes x[5]"
        );
    }
}
