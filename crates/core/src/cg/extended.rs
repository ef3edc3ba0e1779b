//! The paper's extended CG (Fig. 2) and its algorithm-directed recovery.
//!
//! Each of `p, q, r, z` gains an iteration dimension so no iteration's
//! data is ever overwritten; the hardware cache hierarchy is left to evict
//! old iterations to NVM on its own ("opportunistic" crash consistence).
//! The only explicit persistence is one `persist_line` of the iteration
//! counter per iteration.
//!
//! Recovery scans backwards from the crashed iteration, accepting the
//! first iteration `j` whose NVM data satisfies both invariants
//! (orthogonality, cheap; residual identity, one SpMV) — see
//! [`ExtendedCg::detect_restart`].

use adcc_linalg::csr::CsrMatrix;
use adcc_linalg::simops::{self, SimCsr};
use adcc_sim::crash::{CrashEmulator, CrashSite, RunOutcome};
use adcc_sim::image::NvmImage;
use adcc_sim::parray::{load_span, span, PArray, PMatrix, PScalar};
use adcc_sim::system::{MemorySystem, SystemConfig};

use super::sites;
use crate::iterative::{self, Extended, Recovery};
use crate::traits::DirtyRestart;

/// Relative tolerance for the orthogonality invariant
/// `|p(j+1)·q(j)| <= TOL_ORTH * ||p|| * ||q||`.
const TOL_ORTH: f64 = 1e-6;
/// Relative tolerance for the residual invariant
/// `||r(j+1) - (b - A z(j+1))|| <= TOL_RESID * ||b||`.
const TOL_RESID: f64 = 1e-6;

/// Result of a completed (or recovered) CG run.
#[derive(Debug, Clone)]
pub struct CgSolution {
    /// Accumulated solution `z` after the final iteration.
    pub z: Vec<f64>,
    /// Final `rho = rᵀr`.
    pub rho: f64,
}

/// The flattened answer: the solution vector.
impl From<CgSolution> for Vec<f64> {
    fn from(sol: CgSolution) -> Vec<f64> {
        sol.z
    }
}

/// What recovery did, plus the solution it produced.
pub type CgRecovery = Recovery<CgSolution>;

/// Extended CG state (Fig. 2): history matrices over simulated NVM.
///
/// The history is the paper's full `iters + 1` rows: row `i` holds
/// iteration `i`'s data and is never overwritten. A bounded ring would let
/// an unevicted slot keep the generation one lap older in NVM, and that
/// generation passes both invariants; nothing here binds a row's bytes to
/// its iteration, so CG keeps no ring.
pub struct ExtendedCg {
    pub a: SimCsr,
    pub b: PArray<f64>,
    /// `p[i]` is the search direction entering iteration `i`.
    pub p: PMatrix<f64>,
    /// `q[i] = A p[i]`, produced by iteration `i`.
    pub q: PMatrix<f64>,
    /// `r[i]` is the residual entering iteration `i`.
    pub r: PMatrix<f64>,
    /// `z[i]` is the accumulated solution entering iteration `i`.
    pub z: PMatrix<f64>,
    /// The one cache line flushed every iteration (Fig. 2 line 3).
    pub iter_cell: PScalar<u64>,
    pub n: usize,
    pub iters: usize,
}

impl ExtendedCg {
    /// Seed the problem and the initial iteration-0 state into NVM
    /// (uncharged input state; `p[0] = r[0] = b`, `z[0] = 0`). Returns the
    /// state and initial `rho = bᵀb`.
    pub fn setup(
        sys: &mut MemorySystem,
        a_host: &CsrMatrix,
        b_host: &[f64],
        iters: usize,
    ) -> (Self, f64) {
        let n = a_host.n();
        assert_eq!(b_host.len(), n);
        let a = SimCsr::seed_from(sys, a_host);
        let b = PArray::<f64>::alloc_nvm(sys, n);
        b.seed_slice(sys, b_host);
        let p = PMatrix::<f64>::alloc_nvm(sys, iters + 1, n);
        let q = PMatrix::<f64>::alloc_nvm(sys, iters + 1, n);
        let r = PMatrix::<f64>::alloc_nvm(sys, iters + 1, n);
        let z = PMatrix::<f64>::alloc_nvm(sys, iters + 1, n);
        p.row(0).seed_slice(sys, b_host);
        r.row(0).seed_slice(sys, b_host);
        // z[0] and q rows are zero-initialized NVM already.
        let iter_cell = PScalar::<u64>::alloc_nvm(sys);
        let rho0: f64 = b_host.iter().map(|x| x * x).sum();
        (
            ExtendedCg {
                a,
                b,
                p,
                q,
                r,
                z,
                iter_cell,
                n,
                iters,
            },
            rho0,
        )
    }

    /// Run iterations `[from, to)`; `rho` must be `r[from]ᵀ r[from]`.
    /// Returns the crash image if the emulator's trigger fires.
    pub fn run(
        &self,
        emu: &mut CrashEmulator,
        from: usize,
        to: usize,
        rho_in: f64,
    ) -> RunOutcome<f64> {
        let mut rho = rho_in;
        for i in from..to.min(self.iters) {
            // Fig. 2 line 3: flush the cache line containing i.
            self.iter_cell.set(emu, i as u64);
            self.iter_cell.persist(emu);
            emu.sfence();

            let p_i = self.p.row(i);
            let q_i = self.q.row(i);
            self.a.spmv(emu, p_i, q_i);
            if emu.poll(CrashSite::new(sites::PH_AFTER_Q, i as u64)) {
                return RunOutcome::Crashed(emu.crash_now());
            }
            let pq = simops::dot(emu, p_i, q_i);
            let alpha = rho / pq;
            simops::xpby(emu, self.z.row(i), alpha, p_i, self.z.row(i + 1));
            if emu.poll(CrashSite::new(sites::PH_AFTER_Z, i as u64)) {
                return RunOutcome::Crashed(emu.crash_now());
            }
            simops::xpby(emu, self.r.row(i), -alpha, q_i, self.r.row(i + 1));
            if emu.poll(CrashSite::new(sites::PH_AFTER_R, i as u64)) {
                return RunOutcome::Crashed(emu.crash_now());
            }
            let r_next = self.r.row(i + 1);
            let rho_new = simops::dot(emu, r_next, r_next);
            let beta = rho_new / rho;
            simops::xpby(emu, r_next, beta, p_i, self.p.row(i + 1));
            rho = rho_new;
            if emu.poll(CrashSite::new(sites::PH_LINE10, i as u64)) {
                return RunOutcome::Crashed(emu.crash_now());
            }
            if emu.poll(CrashSite::new(sites::PH_ITER_END, i as u64)) {
                return RunOutcome::Crashed(emu.crash_now());
            }
        }
        RunOutcome::Completed(rho)
    }

    /// Uncharged extraction of the solution after iteration `iters`.
    pub fn peek_solution(&self, sys: &MemorySystem, rho: f64) -> CgSolution {
        let last = self.z.row(self.iters);
        CgSolution {
            z: (0..self.n).map(|j| last.peek(sys, j)).collect(),
            rho,
        }
    }

    /// Algorithm-directed restart detection on a post-crash system.
    ///
    /// Scans `j = crashed_iter - 1, ..., 0`, checking the cheap
    /// orthogonality invariant first and confirming with the residual
    /// identity (one SpMV) only when it passes — the order the paper's
    /// performance breakdown implies. Returns the accepted completed
    /// iteration (`None` = no iteration verifiable, restart from scratch).
    pub fn detect_restart(&self, sys: &mut MemorySystem) -> Option<usize> {
        let crashed = self.iter_cell.get(sys) as usize;
        let scratch = PArray::<f64>::alloc_dram(sys, self.n);
        let norm_b = simops::dot(sys, self.b, self.b).sqrt();
        iterative::candidates(crashed, self.iters, self.iters + 1).find(|&j| {
            self.check_orthogonality(sys, j) && self.check_residual(sys, j, scratch, norm_b)
        })
    }

    /// `|p(j+1) · q(j)| <= TOL_ORTH * ||p(j+1)|| * ||q(j)||` (and the data
    /// must be non-degenerate: zero vectors mean the iteration never ran).
    fn check_orthogonality(&self, sys: &mut MemorySystem, j: usize) -> bool {
        let p_next = self.p.row(j + 1);
        let q_j = self.q.row(j);
        let pq = simops::dot(sys, p_next, q_j);
        let np = simops::dot(sys, p_next, p_next).sqrt();
        let nq = simops::dot(sys, q_j, q_j).sqrt();
        if !(np.is_finite() && nq.is_finite() && pq.is_finite()) {
            return false;
        }
        if np == 0.0 || nq == 0.0 {
            return false;
        }
        pq.abs() <= TOL_ORTH * np * nq
    }

    /// `||r(j+1) - (b - A z(j+1))|| <= TOL_RESID * ||b||`.
    fn check_residual(
        &self,
        sys: &mut MemorySystem,
        j: usize,
        scratch: PArray<f64>,
        norm_b: f64,
    ) -> bool {
        self.a.spmv(sys, self.z.row(j + 1), scratch);
        let mut err2 = 0.0f64;
        let ins = [self.b, scratch, self.r.row(j + 1)];
        load_span(sys, ins, |_, [b, ax, got]| {
            let d = (b - ax) - got;
            err2 += d * d;
        });
        sys.charge_flops(4 * self.n as u64);
        err2.is_finite() && err2.sqrt() <= TOL_RESID * norm_b
    }

    /// Full recovery ([`iterative::recover_and_resume`]).
    pub fn recover_and_resume(&self, image: &NvmImage, cfg: SystemConfig) -> CgRecovery {
        iterative::recover_and_resume(self, image, cfg)
    }

    /// EasyCrash-style dirty restart ([`iterative::dirty_restart`]). The
    /// Krylov recurrences are *not* self-correcting, so stale rows usually
    /// end converged-wrong; this is exactly the contrast the
    /// natural-resilience sweep measures.
    pub fn dirty_restart(&self, image: &NvmImage, cfg: SystemConfig) -> DirtyRestart {
        iterative::dirty_restart(self, image, cfg)
    }
}

impl Extended for ExtendedCg {
    type Carry = f64;
    type Solution = CgSolution;

    fn units(&self) -> usize {
        self.iters
    }
    fn counter(&self) -> PScalar<u64> {
        self.iter_cell
    }
    fn detect_restart(&self, sys: &mut MemorySystem) -> Option<usize> {
        ExtendedCg::detect_restart(self, sys)
    }

    /// `rho = r(j+1)ᵀ r(j+1)` from the verified residual row, or
    /// `p(0) = r(0) = b`, `z(0) = 0` rebuilt from `b` (read-only, intact).
    /// Full history never overwrites row 0, so the rebuild rewrites the
    /// bytes already there; it stays because its charge is part of a
    /// scratch restart's `resume_time`.
    fn reenter(&self, sys: &mut MemorySystem, verified: Option<usize>) -> f64 {
        match verified {
            Some(j) => self.reenter_dirty(sys, j + 1),
            None => {
                let rows = [self.p.row(0), self.r.row(0), self.z.row(0)];
                span(sys, [self.b], rows, |_, [v]| [v, v, 0.0]);
                simops::dot(sys, self.b, self.b)
            }
        }
    }

    fn reenter_dirty(&self, sys: &mut MemorySystem, c: usize) -> f64 {
        let r_c = self.r.row(c);
        simops::dot(sys, r_c, r_c)
    }

    fn run(&self, emu: &mut CrashEmulator, from: usize, to: usize, rho: f64) -> RunOutcome<f64> {
        ExtendedCg::run(self, emu, from, to, rho)
    }
    fn peek(&self, sys: &MemorySystem, rho: f64) -> CgSolution {
        self.peek_solution(sys, rho)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcc_linalg::spd::CgClass;
    use adcc_linalg::vecops::max_diff;
    use adcc_sim::crash::CrashTrigger;

    fn cfg() -> SystemConfig {
        SystemConfig::nvm_only(32 << 10, 64 << 20)
    }

    fn problem() -> (CsrMatrix, Vec<f64>) {
        let class = CgClass::TEST;
        let a = class.matrix(7);
        let b = class.rhs(&a);
        (a, b)
    }

    #[test]
    fn extended_matches_host_reference() {
        let (a, b) = problem();
        let mut sys = MemorySystem::new(cfg());
        let (cg, rho0) = ExtendedCg::setup(&mut sys, &a, &b, 10);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        let rho = cg.run(&mut emu, 0, 10, rho0).completed().unwrap();
        let sol = cg.peek_solution(&emu, rho);
        let host = super::super::plain::cg_host(&a, &b, 10);
        assert!(max_diff(&sol.z, &host) < 1e-10);
    }

    #[test]
    fn crash_and_recovery_reproduce_no_crash_solution() {
        let (a, b) = problem();
        // No-crash reference.
        let mut sys = MemorySystem::new(cfg());
        let (cg, rho0) = ExtendedCg::setup(&mut sys, &a, &b, 12);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        let rho = cg.run(&mut emu, 0, 12, rho0).completed().unwrap();
        let want = cg.peek_solution(&emu, rho).z;

        // Crashed run at the paper's site (after the p update) in
        // iteration 8.
        let mut sys = MemorySystem::new(cfg());
        let (cg, rho0) = ExtendedCg::setup(&mut sys, &a, &b, 12);
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_LINE10, 8),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let outcome = cg.run(&mut emu, 0, 12, rho0);
        let image = outcome.crashed().expect("must crash");
        let rec = cg.recover_and_resume(&image, cfg());
        assert!(
            max_diff(&rec.solution.z, &want) < 1e-9,
            "recovered solution diverged: {}",
            max_diff(&rec.solution.z, &want)
        );
        assert!(rec.report.lost_units >= 1);
        assert!(rec.report.detect_time.ps() > 0);
    }

    #[test]
    fn detection_restarts_from_crashed_iteration_for_evicted_data() {
        // Tiny cache: everything is evicted almost immediately, so the
        // previous iteration's data is consistent in NVM and only one
        // iteration is lost.
        let (a, b) = problem();
        let tiny = SystemConfig::nvm_only(2 << 10, 64 << 20);
        let mut sys = MemorySystem::new(tiny.clone());
        let (cg, rho0) = ExtendedCg::setup(&mut sys, &a, &b, 10);
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_LINE10, 7),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = cg.run(&mut emu, 0, 10, rho0).crashed().unwrap();
        let rec = cg.recover_and_resume(&image, tiny);
        // With a 2 KiB cache the iteration-6 data (4 vectors x 200 x 8 B)
        // cannot linger: recovery must find a recent restart point.
        assert!(
            rec.restart_from.is_some(),
            "expected a restart point, got scratch restart"
        );
        assert!(rec.report.lost_units <= 3, "lost {}", rec.report.lost_units);
    }

    #[test]
    fn large_cache_loses_all_iterations() {
        // Cache big enough to hold everything: nothing consistent in NVM,
        // recovery must fall back to the initial state.
        let (a, b) = problem();
        let big = SystemConfig::nvm_only(8 << 20, 64 << 20);
        let mut sys = MemorySystem::new(big.clone());
        let (cg, rho0) = ExtendedCg::setup(&mut sys, &a, &b, 10);
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_LINE10, 7),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = cg.run(&mut emu, 0, 10, rho0).crashed().unwrap();
        let rec = cg.recover_and_resume(&image, big);
        assert_eq!(rec.restart_from, None);
        assert_eq!(rec.report.lost_units, 8); // iterations 0..=7
    }

    #[test]
    fn only_one_line_flushed_per_iteration() {
        let (a, b) = problem();
        let mut sys = MemorySystem::new(cfg());
        let (cg, rho0) = ExtendedCg::setup(&mut sys, &a, &b, 6);
        let flushes_before = sys.stats().clflushes;
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        cg.run(&mut emu, 0, 6, rho0).completed().unwrap();
        let sys = emu.into_system();
        assert_eq!(
            sys.stats().clflushes - flushes_before,
            6,
            "extended CG must flush exactly one line per iteration"
        );
    }
}
