//! Extended stencil: generation ring + per-row-block tagged checksums,
//! with sweep-granular recovery.

use adcc_sim::crash::{CrashEmulator, CrashSite, RunOutcome};
use adcc_sim::image::NvmImage;
use adcc_sim::parray::{PMatrix, PScalar};
use adcc_sim::system::{MemorySystem, SystemConfig};

use super::{initial_value, sites, ALPHA};
use crate::iterative::{self, Extended, Recovery};

/// How block sums are compared during recovery.
///
/// The scan reads the same stored values in the same order the sweep
/// accumulated them, so a consistent block reproduces its flushed sum
/// **bitwise** — [`VerifyMode::Exact`] guarantees the recovered run is
/// identical to a crash-free run.
///
/// [`VerifyMode::Tolerant`] deliberately trades that guarantee away: as
/// the diffusion converges, a generation with a few stale (one-window-old)
/// lines differs from the true one by less than the tolerance, and
/// accepting it restarts *closer to the crash* at the cost of a bounded,
/// self-damping perturbation — the same argument the paper makes for
/// Monte-Carlo ("the inconsistency data is an error" the algorithm
/// tolerates). Only sound for contractive iterations like diffusion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VerifyMode {
    /// Bitwise block-sum comparison (the default).
    Exact,
    /// Accept `|sum − flushed| <= tol · (1 + Σ|value|)`.
    Tolerant(f64),
}

/// What recovery did, plus the final grid (row-major).
pub type StencilRecovery = Recovery<Vec<f64>>;

/// Extended stencil state: a ring of sweep generations over simulated NVM.
pub struct ExtendedStencil {
    /// Generation ring; sweep `t` reads `bufs[t % window]` and writes
    /// `bufs[(t + 1) % window]`.
    pub bufs: Vec<PMatrix<f64>>,
    /// Read-only copy of the initial grid (for from-scratch restarts).
    pub g0: PMatrix<f64>,
    /// Per-slot checksum pairs: `cs[slot][2b] = sweep tag`,
    /// `cs[slot][2b + 1] = block sum`. Flushed per block during the sweep.
    pub cs: PMatrix<f64>,
    /// The one additional cache line flushed at every sweep start.
    pub sweep_cell: PScalar<u64>,
    pub rows: usize,
    pub cols: usize,
    pub sweeps: usize,
    /// Ring size (>= 3).
    pub window: usize,
    /// Rows per checksummed block.
    pub rb: usize,
    /// Recovery verification mode (see [`VerifyMode`]).
    pub verify: VerifyMode,
}

impl ExtendedStencil {
    /// Switch the recovery verification mode.
    pub fn with_verify(mut self, mode: VerifyMode) -> Self {
        self.verify = mode;
        self
    }
}

impl ExtendedStencil {
    /// Seed the ring (every generation starts as the initial condition, so
    /// boundaries are correct in all slots forever) — uncharged input
    /// state.
    pub fn setup(
        sys: &mut MemorySystem,
        rows: usize,
        cols: usize,
        sweeps: usize,
        window: usize,
        rb: usize,
    ) -> Self {
        assert!(
            rows >= 3 && cols >= 3,
            "grid too small for a 5-point stencil"
        );
        assert!(window >= 3, "ring must hold at least 3 generations");
        assert!(rb >= 1, "row block must be positive");
        let mut row = vec![0.0f64; cols];
        let mut seed_grid = |sys: &mut MemorySystem, m: &PMatrix<f64>| {
            for r in 0..rows {
                for (c, v) in row.iter_mut().enumerate() {
                    *v = initial_value(rows, cols, r, c);
                }
                m.row(r).seed_slice(sys, &row);
            }
        };
        let bufs: Vec<PMatrix<f64>> = (0..window)
            .map(|_| PMatrix::<f64>::alloc_nvm(sys, rows, cols))
            .collect();
        for b in &bufs {
            seed_grid(sys, b);
        }
        let g0 = PMatrix::<f64>::alloc_nvm(sys, rows, cols);
        seed_grid(sys, &g0);
        let nblocks = (rows - 2).div_ceil(rb);
        let cs = PMatrix::<f64>::alloc_nvm(sys, window, 2 * nblocks);
        // Tag everything with an impossible sweep so nothing pre-verifies.
        for s in 0..window {
            for b in 0..nblocks {
                cs.set(sys, s, 2 * b, -1.0);
            }
        }
        cs.array().persist_all(sys);
        let sweep_cell = PScalar::<u64>::alloc_nvm(sys);
        ExtendedStencil {
            bufs,
            g0,
            cs,
            sweep_cell,
            rows,
            cols,
            sweeps,
            window,
            rb,
            verify: VerifyMode::Exact,
        }
    }

    /// Number of checksummed row blocks per sweep.
    pub fn blocks(&self) -> usize {
        (self.rows - 2).div_ceil(self.rb)
    }

    /// Interior-row range of block `b`.
    fn block_rows(&self, b: usize) -> std::ops::Range<usize> {
        let lo = 1 + b * self.rb;
        lo..(lo + self.rb).min(self.rows - 1)
    }

    /// Run sweeps `[from, to)`. Returns the crash image if the trigger
    /// fires.
    pub fn run(&self, emu: &mut CrashEmulator, from: usize, to: usize) -> RunOutcome<()> {
        for t in from..to.min(self.sweeps) {
            self.sweep_cell.set(emu, t as u64);
            self.sweep_cell.persist(emu);
            emu.sfence();

            let src = self.bufs[t % self.window];
            let dst = self.bufs[(t + 1) % self.window];
            let slot = (t + 1) % self.window;
            for b in 0..self.blocks() {
                let mut sum = 0.0f64;
                for r in self.block_rows(b) {
                    for c in 1..self.cols - 1 {
                        let v = src.get(emu, r, c)
                            + ALPHA
                                * (src.get(emu, r - 1, c)
                                    + src.get(emu, r + 1, c)
                                    + src.get(emu, r, c - 1)
                                    + src.get(emu, r, c + 1)
                                    - 4.0 * src.get(emu, r, c));
                        dst.set(emu, r, c, v);
                        sum += v;
                    }
                }
                let rows_in_block = self.block_rows(b).len();
                emu.charge_flops(7 * (rows_in_block * (self.cols - 2)) as u64);
                // Publish the block's (tag, sum) pair and flush just it.
                self.cs.set(emu, slot, 2 * b, t as f64);
                self.cs.set(emu, slot, 2 * b + 1, sum);
                emu.persist_range(self.cs.addr(slot, 2 * b), 16);
                if emu.poll(CrashSite::new(sites::PH_AFTER_BLOCK, b as u64)) {
                    return RunOutcome::Crashed(emu.crash_now());
                }
            }
            emu.sfence();
            if emu.poll(CrashSite::new(sites::PH_SWEEP_END, t as u64)) {
                return RunOutcome::Crashed(emu.crash_now());
            }
        }
        RunOutcome::Completed(())
    }

    /// Verify that sweep `s`'s output generation is complete and
    /// consistent in NVM: every block pair carries tag `s` and the block
    /// data reproduces the flushed sum (charged reads).
    pub fn verify_sweep(&self, sys: &mut MemorySystem, s: usize) -> bool {
        let slot = (s + 1) % self.window;
        let buf = self.bufs[slot];
        for b in 0..self.blocks() {
            let tag = self.cs.get(sys, slot, 2 * b);
            if tag != s as f64 {
                return false;
            }
            let want = self.cs.get(sys, slot, 2 * b + 1);
            let mut sum = 0.0f64;
            let mut scale = 1.0f64;
            for r in self.block_rows(b) {
                for c in 1..self.cols - 1 {
                    let v = buf.get(sys, r, c);
                    sum += v;
                    scale += v.abs();
                }
            }
            let rows_in_block = self.block_rows(b).len();
            sys.charge_flops(2 * (rows_in_block * (self.cols - 2)) as u64);
            if !sum.is_finite() {
                return false;
            }
            let ok = match self.verify {
                VerifyMode::Exact => sum.to_bits() == want.to_bits(),
                VerifyMode::Tolerant(tol) => (sum - want).abs() <= tol * scale,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Full recovery ([`iterative::recover_and_resume`]).
    pub fn recover_and_resume(&self, image: &NvmImage, cfg: SystemConfig) -> StencilRecovery {
        iterative::recover_and_resume(self, image, cfg)
    }

    /// Uncharged extraction of the grid after `t` completed sweeps.
    pub fn peek_grid(&self, sys: &MemorySystem, t: usize) -> Vec<f64> {
        let b = self.bufs[t % self.window];
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.push(b.peek(sys, r, c));
            }
        }
        out
    }
}

impl Extended for ExtendedStencil {
    type Carry = ();
    type Solution = Vec<f64>;

    fn units(&self) -> usize {
        self.sweeps
    }
    fn counter(&self) -> PScalar<u64> {
        self.sweep_cell
    }
    /// Algorithm-directed restart detection: the newest sweep `s` whose
    /// output generation verifies. `None` = restart from the initial
    /// condition.
    fn detect_restart(&self, sys: &mut MemorySystem) -> Option<usize> {
        let crashed = self.sweep_cell.get(sys) as usize;
        iterative::candidates(crashed, self.sweeps, self.window)
            .find(|&s| self.verify_sweep(sys, s))
    }

    /// Nothing is carried; a scratch restart rebuilds generation 0 from
    /// the read-only initial grid (a charged copy — part of the recovery
    /// bill).
    fn reenter(&self, sys: &mut MemorySystem, verified: Option<usize>) {
        if verified.is_none() {
            let b0 = self.bufs[0];
            for r in 0..self.rows {
                for c in 0..self.cols {
                    let v = self.g0.get(sys, r, c);
                    b0.set(sys, r, c, v);
                }
            }
        }
    }

    fn reenter_dirty(&self, _sys: &mut MemorySystem, _c: usize) {}

    fn run(&self, emu: &mut CrashEmulator, from: usize, to: usize, (): ()) -> RunOutcome<()> {
        ExtendedStencil::run(self, emu, from, to)
    }
    /// The final grid, row-major.
    fn peek(&self, sys: &MemorySystem, (): ()) -> Vec<f64> {
        self.peek_grid(sys, self.sweeps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::plain::heat_host;
    use adcc_linalg::vecops::max_diff;
    use adcc_sim::crash::CrashTrigger;

    fn cfg() -> SystemConfig {
        SystemConfig::nvm_only(8 << 10, 64 << 20)
    }

    #[test]
    fn extended_matches_host_reference() {
        let mut sys = MemorySystem::new(cfg());
        let st = ExtendedStencil::setup(&mut sys, 14, 14, 9, 3, 4);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        st.run(&mut emu, 0, 9).completed().unwrap();
        let got = st.peek_grid(&emu, 9);
        assert!(max_diff(&got, &heat_host(14, 14, 9)) < 1e-12);
    }

    #[test]
    fn completed_sweeps_verify_incomplete_do_not() {
        let mut sys = MemorySystem::new(cfg());
        let st = ExtendedStencil::setup(&mut sys, 14, 14, 8, 3, 4);
        // Crash after the second block of sweep 5.
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_AFTER_BLOCK, 1),
            occurrence: 6, // blocks 0,1 of sweeps 0..4 = 10 polls; 6th of block-1 is sweep 5
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = st.run(&mut emu, 0, 8).crashed().expect("must crash");
        let mut sys2 = MemorySystem::from_image(cfg(), &image);
        assert!(
            !st.verify_sweep(&mut sys2, 5),
            "the in-flight sweep must not verify (some blocks carry old tags)"
        );
    }

    #[test]
    fn crash_and_recovery_reproduce_no_crash_grid() {
        let want = heat_host(14, 14, 10);
        let mut sys = MemorySystem::new(cfg());
        let st = ExtendedStencil::setup(&mut sys, 14, 14, 10, 3, 4);
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_AFTER_BLOCK, 1),
            occurrence: 7,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = st.run(&mut emu, 0, 10).crashed().expect("must crash");
        let rec = st.recover_and_resume(&image, cfg());
        assert!(
            max_diff(&rec.solution, &want) < 1e-12,
            "recovered grid diverged by {}",
            max_diff(&rec.solution, &want)
        );
        assert!(rec.report.lost_units >= 1);
    }

    #[test]
    fn small_cache_loses_one_sweep() {
        let tiny = SystemConfig::nvm_only(2 << 10, 64 << 20);
        let mut sys = MemorySystem::new(tiny.clone());
        let st = ExtendedStencil::setup(&mut sys, 18, 18, 10, 3, 4);
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_SWEEP_END, 7),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = st.run(&mut emu, 0, 10).crashed().unwrap();
        let rec = st.recover_and_resume(&image, tiny);
        assert!(rec.restart_from.is_some());
        assert!(
            rec.report.lost_units <= 2,
            "a tiny cache should keep old generations consistent, lost {}",
            rec.report.lost_units
        );
        assert!(max_diff(&rec.solution, &heat_host(18, 18, 10)) < 1e-12);
    }

    #[test]
    fn huge_cache_restarts_from_scratch_correctly() {
        let big = SystemConfig::nvm_only(8 << 20, 64 << 20);
        let mut sys = MemorySystem::new(big.clone());
        let st = ExtendedStencil::setup(&mut sys, 14, 14, 9, 3, 4);
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_SWEEP_END, 6),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = st.run(&mut emu, 0, 9).crashed().unwrap();
        let rec = st.recover_and_resume(&image, big);
        // Nothing was evicted, and the checksum pairs were persisted but
        // the payload was not: every candidate fails, scratch restart.
        assert_eq!(rec.restart_from, None);
        assert_eq!(rec.report.lost_units, 7);
        assert!(max_diff(&rec.solution, &heat_host(14, 14, 9)) < 1e-12);
    }

    #[test]
    fn stale_generation_with_old_tag_is_rejected() {
        // After `window` sweeps a slot holds data from two sweeps ago with
        // matching old checksums; the sweep TAG is what rejects it.
        let mut sys = MemorySystem::new(cfg());
        let st = ExtendedStencil::setup(&mut sys, 14, 14, 8, 3, 4);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        st.run(&mut emu, 0, 8).completed().unwrap();
        let mut sys = emu.into_system();
        // Persist everything: now every slot's payload is consistent with
        // its checksums in NVM — but only with its OWN sweep's tag.
        for b in &st.bufs {
            b.array().persist_all(&mut sys);
        }
        st.cs.array().persist_all(&mut sys);
        st.sweep_cell.set(&mut sys, 7);
        st.sweep_cell.persist(&mut sys);
        let image = sys.crash();
        let mut sys2 = MemorySystem::from_image(cfg(), &image);
        // Sweep 7 wrote slot 2; slot 2's tag is 7: verifies.
        assert!(st.verify_sweep(&mut sys2, 7));
        // Sweep 4 also wrote slot 2 (window 3) — same slot, old content
        // replaced: tag is 7, not 4, so 4 must NOT verify.
        assert!(!st.verify_sweep(&mut sys2, 4));
    }

    #[test]
    fn tolerant_mode_restarts_closer_with_bounded_perturbation() {
        // After many sweeps the diffusion has nearly converged; a crash
        // mid-sweep leaves the previous generation's tail lines dirty in
        // cache (stale in NVM by ~1e-9). Exact verification rejects it and
        // restarts further back; tolerant verification accepts it and the
        // perturbation self-damps.
        let want = heat_host(14, 14, 16);
        let run_with = |mode: VerifyMode| -> (Option<usize>, f64) {
            let mut sys = MemorySystem::new(cfg());
            let st = ExtendedStencil::setup(&mut sys, 14, 14, 16, 3, 4).with_verify(mode);
            let trig = CrashTrigger::AtSite {
                site: CrashSite::new(sites::PH_AFTER_BLOCK, 1),
                occurrence: 15, // mid-sweep 14
            };
            let mut emu = CrashEmulator::from_system(sys, trig);
            let image = st.run(&mut emu, 0, 16).crashed().expect("must crash");
            let rec = st.recover_and_resume(&image, cfg());
            let err = rec
                .solution
                .iter()
                .zip(&want)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            (rec.restart_from, err)
        };
        let (exact_from, exact_err) = run_with(VerifyMode::Exact);
        let (tol_from, tol_err) = run_with(VerifyMode::Tolerant(1e-6));
        assert_eq!(exact_err, 0.0, "exact mode must reproduce bitwise");
        assert!(tol_err < 1e-6, "tolerant perturbation must stay bounded");
        assert!(
            tol_from.unwrap_or(0) >= exact_from.unwrap_or(0),
            "tolerant mode must never restart further back than exact"
        );
    }

    #[test]
    fn flush_budget_is_per_block_not_per_grid() {
        let mut sys = MemorySystem::new(cfg());
        let st = ExtendedStencil::setup(&mut sys, 18, 18, 6, 3, 4);
        let before = sys.stats().clflushes;
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        st.run(&mut emu, 0, 6).completed().unwrap();
        let flushes = emu.stats().clflushes - before;
        // Per sweep: 1 counter line + <= blocks() pair flushes (1–2 lines
        // each); far below the grid's line count.
        let per_sweep = flushes / 6;
        let grid_lines = (st.rows * st.cols * 8).div_ceil(64) as u64;
        assert!(
            per_sweep <= 2 * st.blocks() as u64 + 2,
            "per-sweep flushes {per_sweep} exceed the sparse budget"
        );
        assert!(per_sweep < grid_lines);
    }
}
