//! Extended BiCGSTAB: histories on `x, r, p`, one flushed scalar line per
//! iteration, and two-invariant recovery.

use adcc_linalg::csr::CsrMatrix;
use adcc_linalg::simops::{self, SimCsr};
use adcc_sim::crash::{CrashEmulator, CrashSite, RunOutcome};
use adcc_sim::image::NvmImage;
use adcc_sim::parray::{PArray, PMatrix, PScalar};
use adcc_sim::system::{MemorySystem, SystemConfig};

use super::sites;
use crate::iterative::{self, Extended, Recovery};

/// Relative tolerance for the residual identity, scaled by ‖b‖.
const TOL_RESID: f64 = 1e-6;
/// Relative tolerance for the direction recurrence, scaled by the
/// recomputed direction's norm.
const TOL_DIR: f64 = 1e-6;

/// Scalar-history row layout: `[alpha, omega, beta, rho_next]`.
const SCALARS: usize = 4;

/// What recovery did, plus the iterate after all `iters` iterations.
pub type BiRecovery = Recovery<Vec<f64>>;

/// Extended BiCGSTAB state over simulated NVM.
pub struct ExtendedBiCgStab {
    pub a: SimCsr,
    pub b: PArray<f64>,
    /// `x[i]`, `r[i]`, `p[i]` enter iteration `i` (row `i % window`).
    pub x: PMatrix<f64>,
    pub r: PMatrix<f64>,
    pub p: PMatrix<f64>,
    /// Per-iteration scalars, flushed when the iteration completes
    /// (row `i` = `[alpha_i, omega_i, beta_i, rho_{i+1}]`).
    pub scalars: PMatrix<f64>,
    /// Flushed iteration counter.
    pub iter_cell: PScalar<u64>,
    /// Volatile scratch: `v`, `s`, `t`.
    v: PArray<f64>,
    s: PArray<f64>,
    t: PArray<f64>,
    pub n: usize,
    pub iters: usize,
    /// History rows; iteration `i` lives in row `i % window`.
    pub window: usize,
}

impl ExtendedBiCgStab {
    /// Full-history setup. `r̂ = b` and `x(0) = 0`, so `p(0) = r(0) = b`.
    pub fn setup(sys: &mut MemorySystem, a_host: &CsrMatrix, b_host: &[f64], iters: usize) -> Self {
        Self::setup_windowed(sys, a_host, b_host, iters, iters + 1)
    }

    /// Bounded-history setup (`window >= 3`).
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
        let x = PMatrix::<f64>::alloc_nvm(sys, window, n);
        let r = PMatrix::<f64>::alloc_nvm(sys, window, n);
        let p = PMatrix::<f64>::alloc_nvm(sys, window, n);
        r.row(0).seed_slice(sys, b_host);
        p.row(0).seed_slice(sys, b_host);
        // The scalar history is small (32 B/iteration); keep it full-length
        // so flushed scalars are never overwritten.
        let scalars = PMatrix::<f64>::alloc_nvm(sys, iters + 1, SCALARS);
        let iter_cell = PScalar::<u64>::alloc_nvm(sys);
        let v = PArray::<f64>::alloc_dram(sys, n);
        let s = PArray::<f64>::alloc_dram(sys, n);
        let t = PArray::<f64>::alloc_dram(sys, n);
        ExtendedBiCgStab {
            a,
            b,
            x,
            r,
            p,
            scalars,
            iter_cell,
            v,
            s,
            t,
            n,
            iters,
            window,
        }
    }

    #[inline]
    fn x_row(&self, i: usize) -> PArray<f64> {
        self.x.row(i % self.window)
    }
    #[inline]
    fn r_row(&self, i: usize) -> PArray<f64> {
        self.r.row(i % self.window)
    }
    #[inline]
    fn p_row(&self, i: usize) -> PArray<f64> {
        self.p.row(i % self.window)
    }

    /// Run iterations `[from, to)`; `rho` must be `r(from) · r̂`.
    pub fn run(
        &self,
        emu: &mut CrashEmulator,
        from: usize,
        to: usize,
        rho_in: f64,
    ) -> RunOutcome<f64> {
        let mut rho = rho_in;
        for i in from..to.min(self.iters) {
            self.iter_cell.set(emu, i as u64);
            self.iter_cell.persist(emu);
            emu.sfence();

            let x_i = self.x_row(i);
            let r_i = self.r_row(i);
            let p_i = self.p_row(i);
            let x_next = self.x_row(i + 1);
            let r_next = self.r_row(i + 1);
            let p_next = self.p_row(i + 1);

            self.a.spmv(emu, p_i, self.v);
            let alpha = rho / simops::dot(emu, self.v, self.b);
            // s = r - alpha v
            simops::xpby(emu, r_i, -alpha, self.v, self.s);
            self.a.spmv(emu, self.s, self.t);
            let omega = simops::dot(emu, self.t, self.s) / simops::dot(emu, self.t, self.t);
            // x(i+1) = x + alpha p + omega s
            for j in 0..self.n {
                let val = x_i.get(emu, j) + alpha * p_i.get(emu, j) + omega * self.s.get(emu, j);
                x_next.set(emu, j, val);
            }
            emu.charge_flops(4 * self.n as u64);
            // r(i+1) = s - omega t
            simops::xpby(emu, self.s, -omega, self.t, r_next);
            if emu.poll(CrashSite::new(sites::PH_AFTER_XR, i as u64)) {
                return RunOutcome::Crashed(emu.crash_now());
            }
            let rho_new = simops::dot(emu, r_next, self.b);
            let beta = (rho_new / rho) * (alpha / omega);
            // p(i+1) = r(i+1) + beta (p - omega v)
            for j in 0..self.n {
                let val =
                    r_next.get(emu, j) + beta * (p_i.get(emu, j) - omega * self.v.get(emu, j));
                p_next.set(emu, j, val);
            }
            emu.charge_flops(4 * self.n as u64);

            // Publish this iteration's scalars and flush their line — the
            // only extra persistence beyond the counter.
            self.scalars.set(emu, i, 0, alpha);
            self.scalars.set(emu, i, 1, omega);
            self.scalars.set(emu, i, 2, beta);
            self.scalars.set(emu, i, 3, rho_new);
            emu.persist_range(self.scalars.addr(i, 0), SCALARS * 8);
            emu.sfence();

            rho = rho_new;
            if emu.poll(CrashSite::new(sites::PH_ITER_END, i as u64)) {
                return RunOutcome::Crashed(emu.crash_now());
            }
        }
        RunOutcome::Completed(rho)
    }

    /// Uncharged extraction of the iterate after iteration `iters`.
    pub fn peek_solution(&self, sys: &MemorySystem) -> Vec<f64> {
        let last = self.x_row(self.iters);
        (0..self.n).map(|j| last.peek(sys, j)).collect()
    }

    /// Candidate check, invariant 1: `‖r(j+1) − (b − A·x(j+1))‖ <= tol‖b‖`.
    fn check_residual(&self, sys: &mut MemorySystem, j: usize, norm_b: f64) -> bool {
        self.a.spmv(sys, self.x_row(j + 1), self.v);
        let r_next = self.r_row(j + 1);
        let mut err2 = 0.0f64;
        let mut norm_r2 = 0.0f64;
        for k in 0..self.n {
            let want = self.b.get(sys, k) - self.v.get(sys, k);
            let got = r_next.get(sys, k);
            err2 += (want - got) * (want - got);
            norm_r2 += got * got;
        }
        sys.charge_flops(5 * self.n as u64);
        // Degenerate all-zero rows (never written) only pass if x solves
        // the system exactly, which the norm guard below rejects.
        err2.is_finite() && norm_r2 > 0.0 && err2.sqrt() <= TOL_RESID * norm_b
    }

    /// Candidate check, invariant 2: the direction recurrence
    /// `p(j+1) = r(j+1) + β_j (p(j) − ω_j v(j))` with `v(j) = A·p(j)`
    /// recomputed and `(β_j, ω_j)` from the flushed scalar line.
    fn check_direction(&self, sys: &mut MemorySystem, j: usize) -> bool {
        let omega = self.scalars.get(sys, j, 1);
        let beta = self.scalars.get(sys, j, 2);
        if !(omega.is_finite() && beta.is_finite()) || (omega == 0.0 && beta == 0.0) {
            return false;
        }
        self.a.spmv(sys, self.p_row(j), self.v);
        let r_next = self.r_row(j + 1);
        let p_j = self.p_row(j);
        let p_next = self.p_row(j + 1);
        let mut err2 = 0.0f64;
        let mut ref2 = 0.0f64;
        for k in 0..self.n {
            let want = r_next.get(sys, k) + beta * (p_j.get(sys, k) - omega * self.v.get(sys, k));
            let got = p_next.get(sys, k);
            err2 += (want - got) * (want - got);
            ref2 += want * want;
        }
        sys.charge_flops(8 * self.n as u64);
        err2.is_finite() && ref2 > 0.0 && err2.sqrt() <= TOL_DIR * ref2.sqrt()
    }

    /// Full recovery ([`iterative::recover_and_resume`]).
    pub fn recover_and_resume(&self, image: &NvmImage, cfg: SystemConfig) -> BiRecovery {
        iterative::recover_and_resume(self, image, cfg)
    }
}

impl Extended for ExtendedBiCgStab {
    type Carry = f64;
    type Solution = Vec<f64>;

    fn units(&self) -> usize {
        self.iters
    }
    fn counter(&self) -> PScalar<u64> {
        self.iter_cell
    }
    /// Backwards scan for the newest iteration whose `(x, r, p)` triple in
    /// NVM satisfies both invariants.
    fn detect_restart(&self, sys: &mut MemorySystem) -> Option<usize> {
        let crashed = self.iter_cell.get(sys) as usize;
        let norm_b = simops::dot(sys, self.b, self.b).sqrt();
        iterative::candidates(crashed, self.iters, self.window)
            .find(|&j| self.check_residual(sys, j, norm_b) && self.check_direction(sys, j))
    }

    /// `rho(j+1)` from iteration `j`'s flushed scalar line, or
    /// `x(0) = 0`, `r(0) = p(0) = b` rebuilt from `b`.
    fn reenter(&self, sys: &mut MemorySystem, verified: Option<usize>) -> f64 {
        match verified {
            Some(j) => self.scalars.get(sys, j, 3),
            None => {
                let x0 = self.x_row(0);
                let r0 = self.r_row(0);
                let p0 = self.p_row(0);
                for k in 0..self.n {
                    let bv = self.b.get(sys, k);
                    x0.set(sys, k, 0.0);
                    r0.set(sys, k, bv);
                    p0.set(sys, k, bv);
                }
                simops::dot(sys, self.b, self.b)
            }
        }
    }

    /// `r̂ = b` throughout, so the entering rho is `r(c)ᵀ b`.
    fn reenter_dirty(&self, sys: &mut MemorySystem, c: usize) -> f64 {
        simops::dot(sys, self.r_row(c), self.b)
    }

    fn run(&self, emu: &mut CrashEmulator, from: usize, to: usize, rho: f64) -> RunOutcome<f64> {
        ExtendedBiCgStab::run(self, emu, from, to, rho)
    }
    fn peek(&self, sys: &MemorySystem, _rho: f64) -> Vec<f64> {
        self.peek_solution(sys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bicgstab::plain::bicgstab_host;
    use adcc_linalg::spd::CgClass;
    use adcc_linalg::vecops::max_diff;
    use adcc_sim::crash::CrashTrigger;

    fn cfg() -> SystemConfig {
        SystemConfig::nvm_only(32 << 10, 64 << 20)
    }

    fn problem() -> (CsrMatrix, Vec<f64>) {
        let class = CgClass::TEST;
        let a = class.matrix(95);
        let b = class.rhs(&a);
        (a, b)
    }

    #[test]
    fn extended_matches_host_reference() {
        let (a, b) = problem();
        let mut sys = MemorySystem::new(cfg());
        let bi = ExtendedBiCgStab::setup(&mut sys, &a, &b, 8);
        let rho0: f64 = b.iter().map(|v| v * v).sum();
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        bi.run(&mut emu, 0, 8, rho0).completed().unwrap();
        let got = bi.peek_solution(&emu);
        assert!(
            max_diff(&got, &bicgstab_host(&a, &b, 8)) < 1e-10,
            "sim diverged from host by {}",
            max_diff(&got, &bicgstab_host(&a, &b, 8))
        );
    }

    #[test]
    fn crash_and_recovery_reproduce_no_crash_solution() {
        let (a, b) = problem();
        let want = bicgstab_host(&a, &b, 10);
        let mut sys = MemorySystem::new(cfg());
        let bi = ExtendedBiCgStab::setup(&mut sys, &a, &b, 10);
        let rho0: f64 = b.iter().map(|v| v * v).sum();
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_ITER_END, 7),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = bi.run(&mut emu, 0, 10, rho0).crashed().expect("must crash");
        let rec = bi.recover_and_resume(&image, cfg());
        assert!(
            max_diff(&rec.solution, &want) < 1e-8,
            "recovered iterate diverged: {}",
            max_diff(&rec.solution, &want)
        );
        assert!(rec.report.lost_units >= 1);
    }

    #[test]
    fn small_cache_recovers_recent_iteration() {
        let (a, b) = problem();
        let tiny = SystemConfig::nvm_only(2 << 10, 64 << 20);
        let mut sys = MemorySystem::new(tiny.clone());
        let bi = ExtendedBiCgStab::setup(&mut sys, &a, &b, 10);
        let rho0: f64 = b.iter().map(|v| v * v).sum();
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_ITER_END, 7),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = bi.run(&mut emu, 0, 10, rho0).crashed().unwrap();
        let rec = bi.recover_and_resume(&image, tiny);
        assert!(rec.restart_from.is_some());
        assert!(rec.report.lost_units <= 3, "lost {}", rec.report.lost_units);
    }

    #[test]
    fn large_cache_restarts_from_scratch() {
        let (a, b) = problem();
        let want = bicgstab_host(&a, &b, 10);
        let big = SystemConfig::nvm_only(8 << 20, 64 << 20);
        let mut sys = MemorySystem::new(big.clone());
        let bi = ExtendedBiCgStab::setup(&mut sys, &a, &b, 10);
        let rho0: f64 = b.iter().map(|v| v * v).sum();
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_ITER_END, 7),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = bi.run(&mut emu, 0, 10, rho0).crashed().unwrap();
        let rec = bi.recover_and_resume(&image, big);
        assert_eq!(rec.restart_from, None);
        assert!(max_diff(&rec.solution, &want) < 1e-8);
    }

    #[test]
    fn direction_check_rejects_corrupt_p() {
        // Corrupt p[6] in NVM; candidates using it must be rejected.
        let (a, b) = problem();
        let mut sys = MemorySystem::new(cfg());
        let bi = ExtendedBiCgStab::setup(&mut sys, &a, &b, 8);
        let rho0: f64 = b.iter().map(|v| v * v).sum();
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        bi.run(&mut emu, 0, 8, rho0).completed().unwrap();
        let mut sys = emu.into_system();
        bi.x.array().persist_all(&mut sys);
        bi.r.array().persist_all(&mut sys);
        bi.p.array().persist_all(&mut sys);
        bi.iter_cell.set(&mut sys, 6);
        bi.iter_cell.persist(&mut sys);
        let p6 = bi.p_row(6);
        for k in 0..bi.n / 4 {
            p6.set(&mut sys, k, 1e20);
        }
        p6.persist_all(&mut sys);
        let image = sys.crash();
        let mut sys2 = MemorySystem::from_image(cfg(), &image);
        // j = 6 (pair p6/p7): p6 corrupt -> direction check fails.
        // j = 5 (pair p5/p6): p6 corrupt as p_next -> fails.
        // j = 4: intact.
        assert_eq!(bi.detect_restart(&mut sys2), Some(4));
    }

    #[test]
    fn flush_budget_is_two_lines_per_iteration() {
        let (a, b) = problem();
        let mut sys = MemorySystem::new(cfg());
        let bi = ExtendedBiCgStab::setup(&mut sys, &a, &b, 6);
        let rho0: f64 = b.iter().map(|v| v * v).sum();
        let before = sys.stats().clflushes;
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        bi.run(&mut emu, 0, 6, rho0).completed().unwrap();
        let flushes = emu.stats().clflushes - before;
        assert!(
            flushes <= 2 * 6,
            "BiCGSTAB must flush at most 2 lines per iteration, got {flushes} for 6 iters"
        );
    }
}
