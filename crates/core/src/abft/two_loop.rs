//! The paper's new ABFT algorithm (Fig. 6): sub-matrix products into
//! temporal matrices (loop 1) followed by row-block additions (loop 2),
//! with checksums selectively flushed so they are reliable in NVM — plus
//! the checksum-guided recovery procedure.

use adcc_linalg::dense::Matrix;
use adcc_sim::clock::SimTime;
use adcc_sim::crash::{CrashEmulator, CrashSite, CrashTrigger, RunOutcome};
use adcc_sim::image::NvmImage;
use adcc_sim::parray::{load_span, PMatrix, PScalar};
use adcc_sim::system::{MemorySystem, SystemConfig};

use super::checksum::{correct_single, encode_ac, encode_br, verify_full, verify_rows};
use super::{phases, sites};
use crate::traits::RecoveryReport;

/// How recovery classified one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockStatus {
    /// Checksums verified: the block in NVM is consistent and reusable.
    Consistent,
    /// A single damaged element was repaired from its checksums.
    Corrected,
    /// The block had to be recomputed.
    Recomputed,
}

/// Outcome of a two-loop recovery.
#[derive(Debug, Clone)]
pub struct AbftRecovery {
    /// Which phase the crash interrupted ([`phases`]).
    pub crashed_phase: u64,
    /// Status per temporal matrix (loop-1 blocks).
    pub loop1_status: Vec<BlockStatus>,
    /// Status per row block of `C_tmp` (loop-2 blocks); empty when the
    /// crash hit loop 1.
    pub loop2_status: Vec<BlockStatus>,
    /// Sub-matrix multiplications re-executed to get back to the crash
    /// point.
    pub lost_multiplications: u64,
    /// Sub-matrix additions re-executed to get back to the crash point.
    pub lost_additions: u64,
    /// Rows of temporal matrices found stale in NVM while re-executing
    /// loop-2 additions, healed by targeted partial products.
    pub healed_source_rows: u64,
    /// Timing in the paper's detect/resume split.
    pub report: RecoveryReport,
}

/// The Fig. 6 implementation over simulated memory.
pub struct TwoLoopAbft {
    pub ac: PMatrix<f64>,
    pub br: PMatrix<f64>,
    /// Temporal matrices `Cˢ_tmp`, one per rank-k panel, each
    /// `(n+1) x (n+1)` with full checksum structure.
    pub ctemps: Vec<PMatrix<f64>>,
    /// The addition target `C_tmp` with row checksums.
    pub ctemp: PMatrix<f64>,
    /// The final result (`Cf ← Cf + C_tmp`; idempotent copy here since a
    /// single product is computed).
    pub cf: PMatrix<f64>,
    /// Persisted phase marker.
    pub phase_cell: PScalar<u64>,
    /// Persisted loop-1 progress (block in progress).
    pub loop1_cell: PScalar<u64>,
    /// Persisted loop-2 progress (row block in progress).
    pub loop2_cell: PScalar<u64>,
    pub n: usize,
    pub k: usize,
}

impl TwoLoopAbft {
    /// Encode and seed the inputs (uncharged); requires `k | n`.
    pub fn setup(sys: &mut MemorySystem, a: &Matrix, b: &Matrix, k: usize) -> Self {
        let n = a.rows();
        assert_eq!(a.cols(), n, "square matrices only");
        assert_eq!(b.rows(), n);
        assert_eq!(b.cols(), n);
        assert!(k >= 1 && n.is_multiple_of(k), "k must divide n");
        let s_blocks = n / k;
        let ac_host = encode_ac(a);
        let br_host = encode_br(b);
        let ac = PMatrix::<f64>::alloc_nvm(sys, n + 1, n);
        let br = PMatrix::<f64>::alloc_nvm(sys, n, n + 1);
        ac.array().seed_slice(sys, ac_host.data());
        br.array().seed_slice(sys, br_host.data());
        let ctemps = (0..s_blocks)
            .map(|_| PMatrix::<f64>::alloc_nvm(sys, n + 1, n + 1))
            .collect();
        let ctemp = PMatrix::<f64>::alloc_nvm(sys, n + 1, n + 1);
        let cf = PMatrix::<f64>::alloc_nvm(sys, n + 1, n + 1);
        let phase_cell = PScalar::<u64>::alloc_nvm(sys);
        let loop1_cell = PScalar::<u64>::alloc_nvm(sys);
        let loop2_cell = PScalar::<u64>::alloc_nvm(sys);
        TwoLoopAbft {
            ac,
            br,
            ctemps,
            ctemp,
            cf,
            phase_cell,
            loop1_cell,
            loop2_cell,
            n,
            k,
        }
    }

    /// Number of loop-1 blocks (sub-matrix multiplications).
    pub fn s_blocks(&self) -> usize {
        self.n / self.k
    }

    /// Number of loop-2 row blocks (sub-matrix additions).
    pub fn row_blocks(&self) -> usize {
        (self.n + 1).div_ceil(self.k)
    }

    /// Rows of loop-2 block `blk`.
    fn block_rows(&self, blk: usize) -> std::ops::Range<usize> {
        let lo = blk * self.k;
        let hi = ((blk + 1) * self.k).min(self.n + 1);
        lo..hi
    }

    /// Loop-1 body: `Cˢ_tmp = Ac(:, s·k..) × Br(s·k.., :)` (fresh write).
    pub fn product_block(&self, sys: &mut MemorySystem, s: usize) {
        let n = self.n;
        let k = self.k;
        let base = s * k;
        let ct = &self.ctemps[s];
        let mut row = vec![0.0f64; n + 1];
        for i in 0..=n {
            row.fill(0.0);
            for l in 0..k {
                let a = self.ac.get(sys, i, base + l);
                load_span(sys, [self.br.row(base + l)], |j, [b]| row[j] += a * b);
            }
            sys.charge_flops((2 * k * (n + 1)) as u64);
            ct.row(i).store_span(sys, |j| row[j]);
        }
    }

    /// Flush the row and column checksums of a temporal matrix (Fig. 6
    /// line 5): the last row plus the last column.
    fn flush_full_checksums(&self, sys: &mut MemorySystem, s: usize) {
        let n = self.n;
        let ct = &self.ctemps[s];
        // Column-checksum row (row n): contiguous.
        sys.persist_range(ct.addr(n, 0), (n + 1) * 8);
        // Row-checksum column (column n): one line per row.
        for i in 0..n {
            sys.persist_line(ct.addr(i, n));
        }
        sys.sfence();
    }

    /// Recompute only the given rows of temporal matrix `s` (targeted
    /// healing during loop-2 recovery).
    pub fn product_block_rows(&self, sys: &mut MemorySystem, s: usize, rows: &[usize]) {
        let n = self.n;
        let k = self.k;
        let base = s * k;
        let ct = &self.ctemps[s];
        let mut row = vec![0.0f64; n + 1];
        for &i in rows {
            row.fill(0.0);
            for l in 0..k {
                let a = self.ac.get(sys, i, base + l);
                load_span(sys, [self.br.row(base + l)], |j, [b]| row[j] += a * b);
            }
            sys.charge_flops((2 * k * (n + 1)) as u64);
            ct.row(i).store_span(sys, |j| row[j]);
        }
    }

    /// Loop-2 body: `C_tmp(rows, :) = Σ_s Cˢ_tmp(rows, :)`.
    pub fn addition_block(&self, sys: &mut MemorySystem, blk: usize) {
        let n = self.n;
        let s_blocks = self.s_blocks();
        let mut row = vec![0.0f64; n + 1];
        for i in self.block_rows(blk) {
            row.fill(0.0);
            for ct in &self.ctemps {
                load_span(sys, [ct.row(i)], |j, [c]| row[j] += c);
            }
            sys.charge_flops((s_blocks * (n + 1)) as u64);
            self.ctemp.row(i).store_span(sys, |j| row[j]);
        }
    }

    /// Flush the row checksums of loop-2 block `blk` (Fig. 6 line 13).
    fn flush_row_checksums(&self, sys: &mut MemorySystem, blk: usize) {
        for i in self.block_rows(blk) {
            sys.persist_line(self.ctemp.addr(i, self.n));
        }
        sys.sfence();
    }

    /// Run loop 1 from block `from_s`, polling after each block.
    pub fn run_loop1(&self, emu: &mut CrashEmulator, from_s: usize) -> RunOutcome<()> {
        if from_s == 0 {
            self.phase_cell.set(emu, phases::LOOP1);
            self.phase_cell.persist(emu);
        }
        for s in from_s..self.s_blocks() {
            self.loop1_cell.set(emu, s as u64);
            self.loop1_cell.persist(emu);
            emu.sfence();
            self.product_block(emu, s);
            self.flush_full_checksums(emu, s);
            if emu.poll(CrashSite::new(sites::PH_LOOP1, s as u64)) {
                return RunOutcome::Crashed(emu.crash_now());
            }
        }
        RunOutcome::Completed(())
    }

    /// Run loop 2 from row block `from_blk`, polling after each block.
    pub fn run_loop2(&self, emu: &mut CrashEmulator, from_blk: usize) -> RunOutcome<()> {
        if from_blk == 0 {
            self.phase_cell.set(emu, phases::LOOP2);
            self.phase_cell.persist(emu);
        }
        for blk in from_blk..self.row_blocks() {
            self.loop2_cell.set(emu, blk as u64);
            self.loop2_cell.persist(emu);
            emu.sfence();
            self.addition_block(emu, blk);
            self.flush_row_checksums(emu, blk);
            if emu.poll(CrashSite::new(sites::PH_LOOP2, blk as u64)) {
                return RunOutcome::Crashed(emu.crash_now());
            }
        }
        RunOutcome::Completed(())
    }

    /// `Cf ← C_tmp` (idempotent finalization; the paper's outer
    /// accumulation context reduces to a copy for a single product).
    pub fn finalize(&self, sys: &mut MemorySystem) {
        let n = self.n;
        for i in 0..=n {
            for j in 0..=n {
                let v = self.ctemp.get(sys, i, j);
                self.cf.set(sys, i, j, v);
            }
        }
        self.phase_cell.set(sys, phases::DONE);
        self.phase_cell.persist(sys);
        sys.sfence();
    }

    /// Full run: loop 1, loop 2, finalize.
    pub fn run(&self, emu: &mut CrashEmulator) -> RunOutcome<()> {
        match self.run_loop1(emu, 0) {
            RunOutcome::Crashed(img) => return RunOutcome::Crashed(img),
            RunOutcome::Completed(()) => {}
        }
        match self.run_loop2(emu, 0) {
            RunOutcome::Crashed(img) => return RunOutcome::Crashed(img),
            RunOutcome::Completed(()) => {}
        }
        self.finalize(emu);
        RunOutcome::Completed(())
    }

    /// Checksum-guided recovery on a crash image, resuming to completion.
    /// Returns the post-recovery system (holding the finished product)
    /// and the recovery report.
    pub fn recover_and_resume(
        &self,
        image: &NvmImage,
        cfg: SystemConfig,
    ) -> (MemorySystem, AbftRecovery) {
        let mut sys = MemorySystem::from_image(cfg, image);
        let crashed_phase = self.phase_cell.get(&mut sys);
        let s_blocks = self.s_blocks();
        let row_blocks = self.row_blocks();

        let t0 = sys.now();
        // --- Detection. ---
        // Crash in loop 1: classify every attempted block by its full
        // checksums. Blocks at or beyond the persisted progress counter
        // were in progress (or untouched) and are recomputed
        // unconditionally; an untouched all-zero block would pass checksum
        // verification vacuously, so the counter — not the checksum —
        // must gate them.
        let s_done = if crashed_phase == phases::LOOP1 {
            self.loop1_cell.get(&mut sys) as usize
        } else {
            s_blocks
        };
        let mut loop1_status = vec![BlockStatus::Consistent; s_blocks];
        if crashed_phase == phases::LOOP1 {
            for (s, status) in loop1_status.iter_mut().enumerate() {
                if s >= s_done {
                    *status = BlockStatus::Recomputed;
                    continue;
                }
                let report = verify_full(&mut sys, &self.ctemps[s]);
                *status = if report.is_consistent() {
                    BlockStatus::Consistent
                } else if correct_single(&mut sys, &self.ctemps[s], &report) {
                    BlockStatus::Corrected
                } else {
                    BlockStatus::Recomputed
                };
            }
        }
        // Crash in loop 2: the paper checks only C_tmp's row checksums
        // ("the row checksums in Ctemp can decide which rows are not
        // consistent and should be recalculated"); temporal-matrix rows
        // are verified lazily, only where an addition must be re-executed.
        let mut loop2_status = Vec::new();
        let blk_done = if crashed_phase == phases::LOOP2 {
            self.loop2_cell.get(&mut sys) as usize
        } else {
            0
        };
        if crashed_phase == phases::LOOP2 {
            loop2_status = vec![BlockStatus::Recomputed; row_blocks];
            for (blk, status) in loop2_status.iter_mut().enumerate().take(blk_done) {
                let bad = verify_rows(&mut sys, &self.ctemp, self.block_rows(blk));
                if bad.is_empty() {
                    *status = BlockStatus::Consistent;
                }
            }
        }
        let t1 = sys.now();

        // --- Resume: re-execute only what was lost up to the crash point. ---
        let mut lost_multiplications = 0u64;
        if crashed_phase == phases::LOOP1 {
            for s in 0..=s_done.min(s_blocks - 1) {
                if loop1_status[s] == BlockStatus::Recomputed {
                    self.product_block(&mut sys, s);
                    self.flush_full_checksums(&mut sys, s);
                    lost_multiplications += 1;
                }
            }
        }
        let mut lost_additions = 0u64;
        let mut healed_source_rows = 0u64;
        if crashed_phase == phases::LOOP2 {
            for blk in 0..=blk_done.min(row_blocks - 1) {
                if loop2_status[blk] != BlockStatus::Recomputed {
                    continue;
                }
                // Heal stale source rows first: each temporal matrix's
                // rows carry row checksums (flushed in loop 1), so
                // staleness is detectable per row and repairable by a
                // targeted partial product.
                let rows = self.block_rows(blk);
                for s in 0..s_blocks {
                    let bad = verify_rows(&mut sys, &self.ctemps[s], rows.clone());
                    if !bad.is_empty() {
                        healed_source_rows += bad.len() as u64;
                        self.product_block_rows(&mut sys, s, &bad);
                    }
                }
                self.addition_block(&mut sys, blk);
                self.flush_row_checksums(&mut sys, blk);
                lost_additions += 1;
            }
        }
        let t2 = sys.now();

        // --- Continue: the rest of the run that never executed. ---
        // After a loop-1 crash every temporal matrix was verified or
        // recomputed, so loop 2 can run normally. After a loop-2 crash the
        // *future* addition blocks must also verify their source rows:
        // any temporal-matrix line still dirty in a volatile cache at
        // crash time is stale in NVM, wherever loop 2's cursor stood.
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        if crashed_phase == phases::LOOP1 {
            let next = (s_done + 1).min(s_blocks);
            self.run_loop1(&mut emu, next).completed().unwrap();
            self.run_loop2(&mut emu, 0).completed().unwrap();
        } else if crashed_phase == phases::LOOP2 {
            let next = (blk_done + 1).min(row_blocks);
            for blk in next..row_blocks {
                let rows = self.block_rows(blk);
                for s in 0..s_blocks {
                    let bad = verify_rows(&mut emu, &self.ctemps[s], rows.clone());
                    if !bad.is_empty() {
                        healed_source_rows += bad.len() as u64;
                        self.product_block_rows(&mut emu, s, &bad);
                    }
                }
                self.addition_block(&mut emu, blk);
                self.flush_row_checksums(&mut emu, blk);
            }
        }
        let mut sys = emu.into_system();
        if crashed_phase != phases::DONE {
            self.finalize(&mut sys);
        }

        let recovery = AbftRecovery {
            crashed_phase,
            loop1_status,
            loop2_status,
            lost_multiplications,
            lost_additions,
            healed_source_rows,
            report: RecoveryReport {
                detect_time: t1 - t0,
                resume_time: t2 - t1,
                lost_units: lost_multiplications + lost_additions,
                restart_unit: 0,
            },
        };
        (sys, recovery)
    }

    /// Average per-block times of a crash-free run (for the paper's
    /// normalization of Fig. 7): `(per multiplication, per addition)`.
    pub fn timed_full_run(&self, sys: MemorySystem) -> (MemorySystem, SimTime, SimTime) {
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        let t0 = emu.now();
        self.run_loop1(&mut emu, 0).completed().unwrap();
        let t1 = emu.now();
        self.run_loop2(&mut emu, 0).completed().unwrap();
        let t2 = emu.now();
        let mut sys = emu.into_system();
        self.finalize(&mut sys);
        let per_mult = SimTime((t1 - t0).ps() / self.s_blocks() as u64);
        let per_add = SimTime((t2 - t1).ps() / self.row_blocks() as u64);
        (sys, per_mult, per_add)
    }

    /// Uncharged extraction of the data part of the final product.
    pub fn peek_product(&self, sys: &MemorySystem) -> Matrix {
        let n = self.n;
        let mut out = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                out.set(i, j, self.cf.array().peek(sys, i * (n + 1) + j));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SystemConfig {
        SystemConfig::nvm_only(16 << 10, 64 << 20)
    }

    fn product_test(n: usize, k: usize, crash: Option<CrashTrigger>) -> Option<AbftRecovery> {
        let a = Matrix::random(n, n, 100 + n as u64);
        let b = Matrix::random(n, n, 200 + n as u64);
        let want = a.mul_naive(&b);
        let mut sys = MemorySystem::new(cfg());
        let mm = TwoLoopAbft::setup(&mut sys, &a, &b, k);
        let trig = crash.unwrap_or(CrashTrigger::Never);
        let mut emu = CrashEmulator::from_system(sys, trig);
        match mm.run(&mut emu) {
            RunOutcome::Completed(()) => {
                let got = mm.peek_product(&emu);
                assert!(got.max_abs_diff(&want) < 1e-9);
                None
            }
            RunOutcome::Crashed(img) => {
                let (sys, rec) = mm.recover_and_resume(&img, cfg());
                let got = mm.peek_product(&sys);
                assert!(
                    got.max_abs_diff(&want) < 1e-9,
                    "recovered product wrong by {}",
                    got.max_abs_diff(&want)
                );
                Some(rec)
            }
        }
    }

    #[test]
    fn two_loop_computes_correct_product() {
        assert!(product_test(24, 6, None).is_none());
        assert!(product_test(20, 4, None).is_none());
    }

    #[test]
    fn crash_in_loop1_recovers_exact_product() {
        let rec = product_test(
            24,
            6,
            Some(CrashTrigger::AtSite {
                site: CrashSite::new(sites::PH_LOOP1, 2),
                occurrence: 1,
            }),
        )
        .expect("must crash");
        assert_eq!(rec.crashed_phase, phases::LOOP1);
        assert!(rec.lost_multiplications >= 1);
        assert_eq!(rec.lost_additions, 0);
    }

    #[test]
    fn crash_in_loop2_recovers_exact_product() {
        let rec = product_test(
            24,
            6,
            Some(CrashTrigger::AtSite {
                site: CrashSite::new(sites::PH_LOOP2, 1),
                occurrence: 1,
            }),
        )
        .expect("must crash");
        assert_eq!(rec.crashed_phase, phases::LOOP2);
        assert!(rec.lost_additions >= 1);
    }

    #[test]
    fn crash_at_every_loop1_block_recovers() {
        for s in 0..4 {
            let rec = product_test(
                16,
                4,
                Some(CrashTrigger::AtSite {
                    site: CrashSite::new(sites::PH_LOOP1, s),
                    occurrence: 1,
                }),
            )
            .expect("must crash");
            assert!(rec.lost_multiplications >= 1);
        }
    }

    #[test]
    fn crash_at_every_loop2_block_recovers() {
        for blk in 0..4 {
            product_test(
                16,
                4,
                Some(CrashTrigger::AtSite {
                    site: CrashSite::new(sites::PH_LOOP2, blk),
                    occurrence: 1,
                }),
            )
            .expect("must crash");
        }
    }

    #[test]
    fn detect_and_resume_times_are_recorded() {
        let rec = product_test(
            24,
            6,
            Some(CrashTrigger::AtSite {
                site: CrashSite::new(sites::PH_LOOP1, 3),
                occurrence: 1,
            }),
        )
        .expect("must crash");
        assert!(rec.report.detect_time.ps() > 0);
        assert!(rec.report.resume_time.ps() > 0);
    }

    #[test]
    fn tiny_cache_loses_only_current_block() {
        // With a very small cache, earlier blocks are fully evicted and
        // verify as consistent: only the in-progress block is recomputed.
        let n = 24;
        let k = 4;
        let small = SystemConfig::nvm_only(2 << 10, 64 << 20);
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let want = a.mul_naive(&b);
        let mut sys = MemorySystem::new(small.clone());
        let mm = TwoLoopAbft::setup(&mut sys, &a, &b, k);
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_LOOP1, 3),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let img = mm.run(&mut emu).crashed().unwrap();
        let (sys, rec) = mm.recover_and_resume(&img, small);
        assert!(mm.peek_product(&sys).max_abs_diff(&want) < 1e-9);
        assert_eq!(
            rec.lost_multiplications, 1,
            "statuses: {:?}",
            rec.loop1_status
        );
    }
}
