//! Checksum-augmented left-looking LU over simulated NVM, with
//! algorithm-directed crash recovery.
//!
//! Storage is column-major: `f.row(j)` *in the [`PMatrix`] sense* holds
//! **column** `j` of the augmented factor — `n` working entries (`L`
//! below the diagonal, `U` on/above) plus the maintained `L` checksum in
//! slot `n`. Column-major layout makes each column contiguous, so a
//! column's lines age out of the cache together, which is what gives
//! recovery its "only recent blocks are torn" behaviour.

use adcc_linalg::dense::Matrix;
use adcc_sim::clock::SimTime;
use adcc_sim::crash::{CrashEmulator, CrashSite, CrashTrigger, RunOutcome};
use adcc_sim::image::NvmImage;
use adcc_sim::parray::{PArray, PMatrix, PScalar};
use adcc_sim::system::{MemorySystem, SystemConfig};

use super::sites;
use crate::traits::{DirtyRestart, RecoveryReport};

/// Relative tolerance for checksum verification (scaled by the column's
/// absolute sum; covers elimination-order rounding drift).
const TOL_CKSUM: f64 = 1e-8;

/// Verification verdict for one column block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LuBlockStatus {
    /// Both checksum invariants hold for every column of the block.
    Consistent,
    /// At least one column failed; the block must be refactored.
    Inconsistent,
}

/// What recovery did, plus where the factor ended up.
#[derive(Debug, Clone)]
pub struct LuRecovery {
    /// Verdict per claimed-complete block (index < crashed block).
    pub statuses: Vec<LuBlockStatus>,
    /// Report in the paper's units (blocks lost, detect/resume split).
    pub report: RecoveryReport,
    /// The recovered combined factor (checksum row stripped).
    pub factor: Matrix,
}

/// Checksum-augmented left-looking blocked LU state in simulated NVM.
pub struct ChecksumLu {
    /// Augmented input, column-major: row `j` = column `j` of `[A; vᵀA]`.
    /// Read-only after seeding.
    pub acf: PMatrix<f64>,
    /// Augmented factor, column-major: row `j` = column `j` of
    /// `[L\U; csL]`.
    pub f: PMatrix<f64>,
    /// `U` digests per column, flushed at block completion.
    pub cs_u: PArray<f64>,
    /// Flushed progress counter: the block currently being processed.
    pub blk_cell: PScalar<u64>,
    pub n: usize,
    /// Column-block width.
    pub bk: usize,
}

impl ChecksumLu {
    /// Seed the augmented input into NVM (uncharged input state).
    pub fn setup(sys: &mut MemorySystem, a: &Matrix, bk: usize) -> Self {
        let n = a.rows();
        assert_eq!(n, a.cols(), "LU needs a square matrix");
        assert!(bk >= 1 && bk <= n, "block width {bk} out of range");
        let acf = PMatrix::<f64>::alloc_nvm(sys, n, n + 1);
        let mut col = vec![0.0f64; n + 1];
        for j in 0..n {
            let mut sum = 0.0;
            for (i, c) in col.iter_mut().enumerate().take(n) {
                let v = a.get(i, j);
                *c = v;
                sum += v;
            }
            col[n] = sum;
            acf.row(j).seed_slice(sys, &col);
        }
        let f = PMatrix::<f64>::alloc_nvm(sys, n, n + 1);
        let cs_u = PArray::<f64>::alloc_nvm(sys, n);
        let blk_cell = PScalar::<u64>::alloc_nvm(sys);
        ChecksumLu {
            acf,
            f,
            cs_u,
            blk_cell,
            n,
            bk,
        }
    }

    /// Number of column blocks.
    pub fn blocks(&self) -> usize {
        self.n.div_ceil(self.bk)
    }

    /// Column range of block `b`.
    pub(super) fn block_cols(&self, b: usize) -> std::ops::Range<usize> {
        let lo = b * self.bk;
        lo..(lo + self.bk).min(self.n)
    }

    /// Process one column: copy from the augmented input, apply all
    /// earlier eliminations (left-looking), divide by the pivot, and
    /// record the `U` digest (not yet flushed). Public so the baseline
    /// variants can reuse the identical kernel arithmetic.
    pub fn process_column(&self, sys: &mut MemorySystem, c: usize) {
        self.process_column_inner(sys, c, true);
    }

    /// The column kernel. `strict` guards the zero-pivot assert; the dirty
    /// restart path passes `false` so exactly-cancelled garbage divides
    /// into inf/NaN (classified as divergence) instead of panicking.
    fn process_column_inner(&self, sys: &mut MemorySystem, c: usize, strict: bool) {
        let src = self.acf.row(c);
        let dst = self.f.row(c);
        for i in 0..=self.n {
            let v = src.get(sys, i);
            dst.set(sys, i, v);
        }
        for k in 0..c {
            let w_k = dst.get(sys, k);
            if w_k == 0.0 {
                continue;
            }
            let fk = self.f.row(k);
            for i in k + 1..=self.n {
                let v = dst.get(sys, i) - fk.get(sys, i) * w_k;
                dst.set(sys, i, v);
            }
            sys.charge_flops(2 * (self.n - k) as u64);
        }
        let pivot = dst.get(sys, c);
        assert!(!strict || pivot != 0.0, "zero pivot in column {c}");
        for i in c + 1..=self.n {
            let v = dst.get(sys, i) / pivot;
            dst.set(sys, i, v);
        }
        sys.charge_flops((self.n - c) as u64);
        // U digest: Σ_{i<=c} F[i][c], ascending order (recovery recomputes
        // in the same order).
        let mut u_sum = 0.0;
        for i in 0..=c {
            u_sum += dst.get(sys, i);
        }
        sys.charge_flops((c + 1) as u64);
        self.cs_u.set(sys, c, u_sum);
    }

    /// Factor the columns of block `b`, one by one; `true` as soon as the
    /// `poll` after a column fires.
    pub(super) fn block_crashes(
        &self,
        emu: &mut CrashEmulator,
        b: usize,
        mut poll: impl FnMut(&mut CrashEmulator, CrashSite) -> bool,
    ) -> bool {
        self.block_cols(b).any(|c| {
            self.process_column(emu, c);
            poll(emu, CrashSite::new(sites::PH_AFTER_COL, c as u64))
        })
    }

    /// Process block `b`: flush the progress counter, factor its columns,
    /// then flush only the checksum entries (the paper's sparse-flush
    /// budget: one line per column for `csL` + the block's `cs_u` lines).
    pub fn run_block(&self, emu: &mut CrashEmulator, b: usize) -> RunOutcome<()> {
        self.blk_cell.set(emu, b as u64);
        self.blk_cell.persist(emu);
        emu.sfence();
        if self.block_crashes(emu, b, |emu, site| emu.poll(site)) {
            return RunOutcome::Crashed(emu.crash_now());
        }
        let cols = self.block_cols(b);
        for c in cols.clone() {
            emu.persist_line(self.f.row(c).addr(self.n));
        }
        emu.persist_range(self.cs_u.addr(cols.start), (cols.end - cols.start) * 8);
        emu.sfence();
        if emu.poll(CrashSite::new(sites::PH_BLOCK_END, b as u64)) {
            return RunOutcome::Crashed(emu.crash_now());
        }
        RunOutcome::Completed(())
    }

    /// Run blocks `[from, blocks())`.
    pub fn run(&self, emu: &mut CrashEmulator, from: usize) -> RunOutcome<()> {
        for b in from..self.blocks() {
            if let RunOutcome::Crashed(img) = self.run_block(emu, b) {
                return RunOutcome::Crashed(img);
            }
        }
        RunOutcome::Completed(())
    }

    /// Verify one block's columns against both flushed checksums
    /// (charged reads).
    pub fn verify_block(&self, sys: &mut MemorySystem, b: usize) -> LuBlockStatus {
        for c in self.block_cols(b) {
            let col = self.f.row(c);
            let mut l_sum = 1.0f64;
            let mut u_sum = 0.0f64;
            let mut scale = 1.0f64;
            for i in 0..=self.n - 1 {
                let v = col.get(sys, i);
                if i <= c {
                    u_sum += v;
                } else {
                    l_sum += v;
                }
                scale += v.abs();
            }
            sys.charge_flops(2 * self.n as u64);
            let cs_l = col.get(sys, self.n);
            let cs_u = self.cs_u.get(sys, c);
            if !(l_sum.is_finite() && u_sum.is_finite()) {
                return LuBlockStatus::Inconsistent;
            }
            if (l_sum - cs_l).abs() > TOL_CKSUM * scale || (u_sum - cs_u).abs() > TOL_CKSUM * scale
            {
                return LuBlockStatus::Inconsistent;
            }
        }
        LuBlockStatus::Consistent
    }

    /// Full recovery: verify every claimed-complete block, refactor the
    /// inconsistent ones in ascending order (sound for left-looking LU),
    /// then finish from the in-flight block.
    pub fn recover_and_resume(&self, image: &NvmImage, cfg: SystemConfig) -> LuRecovery {
        let mut sys = MemorySystem::from_image(cfg, image);
        let crashed_blk = (self.blk_cell.get(&mut sys) as usize).min(self.blocks() - 1);

        let t0 = sys.now();
        let statuses: Vec<LuBlockStatus> = (0..crashed_blk)
            .map(|b| self.verify_block(&mut sys, b))
            .collect();
        let t1 = sys.now();

        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        let mut lost = 1u64; // the in-flight block is always redone
        for (b, st) in statuses.iter().enumerate() {
            if *st == LuBlockStatus::Inconsistent {
                lost += 1;
                self.run_block(&mut emu, b)
                    .completed()
                    .expect("trigger is Never");
            }
        }
        // Redo the in-flight block and everything after it.
        self.run_block(&mut emu, crashed_blk)
            .completed()
            .expect("trigger is Never");
        let t2 = emu.now();
        self.run(&mut emu, crashed_blk + 1)
            .completed()
            .expect("trigger is Never");
        let sys = emu.into_system();

        LuRecovery {
            statuses,
            report: RecoveryReport {
                detect_time: t1 - t0,
                resume_time: t2 - t1,
                lost_units: lost,
                restart_unit: crashed_blk as u64,
            },
            factor: self.peek_factor(&sys),
        }
    }

    /// EasyCrash-style dirty restart: reboot from the raw image, trust the
    /// surviving `blk_cell` verbatim (no checksum verification, no
    /// refactoring of torn earlier blocks), and factor the remaining
    /// blocks on top of whatever survived.
    pub fn dirty_restart(&self, image: &NvmImage, cfg: SystemConfig) -> DirtyRestart {
        let mut sys = MemorySystem::dirty_reboot(cfg, image);
        let t0 = sys.now();
        let blk = self.blk_cell.get(&mut sys) as usize;
        if blk >= self.blocks() {
            // The loop bound itself rejects a counter past the end.
            return DirtyRestart::rejected((sys.now() - t0).ps());
        }
        for b in blk..self.blocks() {
            self.blk_cell.set(&mut sys, b as u64);
            self.blk_cell.persist(&mut sys);
            sys.sfence();
            let cols = self.block_cols(b);
            for c in cols.clone() {
                self.process_column_inner(&mut sys, c, false);
            }
            for c in cols.clone() {
                sys.persist_line(self.f.row(c).addr(self.n));
            }
            sys.persist_range(self.cs_u.addr(cols.start), (cols.end - cols.start) * 8);
            sys.sfence();
        }
        DirtyRestart {
            solution: Some(self.peek_factor(&sys).into()),
            extra_units: (self.blocks() - blk) as u64,
            sim_time_ps: (sys.now() - t0).ps(),
        }
    }

    /// Uncharged extraction of the combined factor (checksum row
    /// stripped).
    pub fn peek_factor(&self, sys: &MemorySystem) -> Matrix {
        let mut m = Matrix::zeros(self.n, self.n);
        for j in 0..self.n {
            let col = self.f.row(j);
            for i in 0..self.n {
                m.set(i, j, col.peek(sys, i));
            }
        }
        m
    }

    /// Average per-block simulated time of a crash-free run.
    pub fn timed_full_run(&self, sys: MemorySystem) -> (MemorySystem, SimTime) {
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        let t0 = emu.now();
        self.run(&mut emu, 0).completed().expect("trigger is Never");
        let per_block = SimTime((emu.now() - t0).ps() / self.blocks() as u64);
        (emu.into_system(), per_block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::host::{dominant_matrix, lu_host, lu_reconstruct};
    use adcc_sim::parray::Pod;

    fn cfg() -> SystemConfig {
        SystemConfig::nvm_only(8 << 10, 64 << 20)
    }

    #[test]
    fn factor_matches_host_reference() {
        let a = dominant_matrix(24, 31);
        let mut sys = MemorySystem::new(cfg());
        let lu = ChecksumLu::setup(&mut sys, &a, 6);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        lu.run(&mut emu, 0).completed().unwrap();
        let got = lu.peek_factor(&emu);
        let want = lu_host(&a);
        assert!(
            got.max_abs_diff(&want) < 1e-10,
            "factor diverged by {}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn factor_reconstructs_input() {
        let a = dominant_matrix(20, 32);
        let mut sys = MemorySystem::new(cfg());
        let lu = ChecksumLu::setup(&mut sys, &a, 5);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        lu.run(&mut emu, 0).completed().unwrap();
        let back = lu_reconstruct(&lu.peek_factor(&emu));
        assert!(a.max_abs_diff(&back) < 1e-9);
    }

    #[test]
    fn all_blocks_verify_after_clean_run() {
        let a = dominant_matrix(18, 33);
        let mut sys = MemorySystem::new(cfg());
        let lu = ChecksumLu::setup(&mut sys, &a, 6);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        lu.run(&mut emu, 0).completed().unwrap();
        let mut sys = emu.into_system();
        for b in 0..lu.blocks() {
            assert_eq!(lu.verify_block(&mut sys, b), LuBlockStatus::Consistent);
        }
    }

    #[test]
    fn torn_column_in_nvm_is_detected() {
        let a = dominant_matrix(18, 34);
        let mut sys = MemorySystem::new(cfg());
        let lu = ChecksumLu::setup(&mut sys, &a, 6);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        lu.run(&mut emu, 0).completed().unwrap();
        let mut sys = emu.into_system();
        lu.f.array().persist_all(&mut sys);
        // Corrupt one element of column 7 (block 1) directly in NVM.
        let mut bytes = [0u8; 8];
        42.0f64.to_bytes(&mut bytes);
        sys.seed_bytes(lu.f.row(7).addr(3), &bytes);
        let img = sys.crash();
        let mut sys2 = MemorySystem::from_image(cfg(), &img);
        assert_eq!(lu.verify_block(&mut sys2, 0), LuBlockStatus::Consistent);
        assert_eq!(lu.verify_block(&mut sys2, 1), LuBlockStatus::Inconsistent);
        assert_eq!(lu.verify_block(&mut sys2, 2), LuBlockStatus::Consistent);
    }

    #[test]
    fn crash_and_recovery_match_host_factor() {
        let a = dominant_matrix(24, 35);
        let want = lu_host(&a);
        let mut sys = MemorySystem::new(cfg());
        let lu = ChecksumLu::setup(&mut sys, &a, 4);
        // Crash mid-block-3 (after its second column).
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_AFTER_COL, 13),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = lu.run(&mut emu, 0).crashed().expect("must crash");
        let rec = lu.recover_and_resume(&image, cfg());
        assert!(
            rec.factor.max_abs_diff(&want) < 1e-10,
            "recovered factor diverged by {}",
            rec.factor.max_abs_diff(&want)
        );
        assert!(rec.report.lost_units >= 1);
        assert_eq!(rec.statuses.len(), 3, "blocks 0..3 were claimed complete");
    }

    #[test]
    fn tiny_cache_loses_only_the_inflight_block() {
        let a = dominant_matrix(32, 36);
        let tiny = SystemConfig::nvm_only(2 << 10, 64 << 20);
        let mut sys = MemorySystem::new(tiny.clone());
        let lu = ChecksumLu::setup(&mut sys, &a, 8);
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_AFTER_COL, 26),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = lu.run(&mut emu, 0).crashed().unwrap();
        let rec = lu.recover_and_resume(&image, tiny);
        assert!(
            rec.report.lost_units <= 2,
            "tiny cache should keep old blocks consistent, lost {}",
            rec.report.lost_units
        );
        assert!(rec.factor.max_abs_diff(&lu_host(&a)) < 1e-10);
    }

    #[test]
    fn huge_cache_loses_many_blocks_but_recovers() {
        let a = dominant_matrix(24, 37);
        let big = SystemConfig::nvm_only(8 << 20, 64 << 20);
        let mut sys = MemorySystem::new(big.clone());
        let lu = ChecksumLu::setup(&mut sys, &a, 4);
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_AFTER_COL, 17),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = lu.run(&mut emu, 0).crashed().unwrap();
        let rec = lu.recover_and_resume(&image, big);
        assert!(
            rec.statuses.contains(&LuBlockStatus::Inconsistent),
            "an 8 MiB cache must strand some completed blocks"
        );
        assert!(rec.factor.max_abs_diff(&lu_host(&a)) < 1e-10);
    }

    #[test]
    fn flush_budget_is_sparse() {
        // Per block: 1 counter line + bk checksum-entry lines + the cs_u
        // lines; far less than flushing the O(n·bk) block payload.
        let a = dominant_matrix(32, 38);
        let mut sys = MemorySystem::new(cfg());
        let lu = ChecksumLu::setup(&mut sys, &a, 8);
        let before = sys.stats().clflushes;
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        lu.run(&mut emu, 0).completed().unwrap();
        let flushes = emu.stats().clflushes - before;
        let payload_lines = (lu.n * (lu.n + 1) * 8).div_ceil(64) as u64;
        assert!(
            flushes < payload_lines / 2,
            "flushed {flushes} lines vs {payload_lines} payload lines"
        );
    }

    #[test]
    fn block_width_one_works() {
        let a = dominant_matrix(10, 39);
        let mut sys = MemorySystem::new(cfg());
        let lu = ChecksumLu::setup(&mut sys, &a, 1);
        assert_eq!(lu.blocks(), 10);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        lu.run(&mut emu, 0).completed().unwrap();
        assert!(lu.peek_factor(&emu).max_abs_diff(&lu_host(&a)) < 1e-10);
    }
}
