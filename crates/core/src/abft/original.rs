//! The original rank-k-update ABFT matrix multiplication (paper Fig. 5):
//! `Cf += Ac(:, s:s+k) × Br(s:s+k, :)` with a checksum verification at the
//! top of every iteration. This is the paper's *native* baseline for the
//! runtime comparison, and the application under the checkpoint and PMEM
//! mechanisms.

use adcc_linalg::dense::Matrix;
use adcc_sim::crash::{CrashEmulator, CrashSite, RunOutcome};
use adcc_sim::parray::PMatrix;
use adcc_sim::system::MemorySystem;

use super::checksum::{encode_ac, encode_br, verify_full};
use super::sites;

/// The Fig. 5 implementation over simulated memory.
pub struct OriginalAbft {
    pub ac: PMatrix<f64>,
    pub br: PMatrix<f64>,
    pub cf: PMatrix<f64>,
    /// Matrix dimension n (data part; encoded matrices are n+1 on one
    /// axis).
    pub n: usize,
    /// Rank of each panel update.
    pub k: usize,
    /// Verify Cf's checksums at every iteration (Fig. 5 line 2).
    pub verify_each_iter: bool,
}

impl OriginalAbft {
    /// Encode `a x b` and seed everything into simulated NVM (uncharged
    /// input state). Requires `k` to divide `n`.
    pub fn setup(
        sys: &mut MemorySystem,
        a: &Matrix,
        b: &Matrix,
        k: usize,
        verify_each_iter: bool,
    ) -> Self {
        let n = a.rows();
        assert_eq!(a.cols(), n, "square matrices only");
        assert_eq!(b.rows(), n);
        assert_eq!(b.cols(), n);
        assert!(k >= 1 && n.is_multiple_of(k), "k must divide n");
        let ac_host = encode_ac(a);
        let br_host = encode_br(b);
        let ac = PMatrix::<f64>::alloc_nvm(sys, n + 1, n);
        let br = PMatrix::<f64>::alloc_nvm(sys, n, n + 1);
        let cf = PMatrix::<f64>::alloc_nvm(sys, n + 1, n + 1);
        ac.array().seed_slice(sys, ac_host.data());
        br.array().seed_slice(sys, br_host.data());
        OriginalAbft {
            ac,
            br,
            cf,
            n,
            k,
            verify_each_iter,
        }
    }

    /// Number of rank-k panels.
    pub fn panels(&self) -> usize {
        self.n / self.k
    }

    /// One panel update: `Cf += Ac(:, s*k .. (s+1)*k) × Br(s*k .., :)`.
    /// Row-buffered kernel (one Cf row is read, accumulated in registers
    /// and written back once — register blocking, as a real kernel does).
    pub fn panel_update(&self, sys: &mut MemorySystem, s: usize) {
        let n = self.n;
        let k = self.k;
        let base = s * k;
        let mut row = vec![0.0f64; n + 1];
        for i in 0..=n {
            for (j, r) in row.iter_mut().enumerate() {
                *r = self.cf.get(sys, i, j);
            }
            for l in 0..k {
                let a = self.ac.get(sys, i, base + l);
                for (j, r) in row.iter_mut().enumerate() {
                    *r += a * self.br.get(sys, base + l, j);
                }
            }
            sys.charge_flops((2 * k * (n + 1)) as u64);
            for (j, r) in row.iter().enumerate() {
                self.cf.set(sys, i, j, *r);
            }
        }
    }

    /// Iteration `s` of the Fig. 5 loop: the checksum verification at its
    /// top (line 2), when enabled, then the panel update.
    pub fn iteration(&self, sys: &mut MemorySystem, s: usize) {
        if self.verify_each_iter {
            let report = verify_full(sys, &self.cf);
            debug_assert!(report.is_consistent(), "soft error detected mid-run");
        }
        self.panel_update(sys, s);
    }

    /// Run the full Fig. 5 loop, polling the crash emulator after each
    /// panel.
    pub fn run(&self, emu: &mut CrashEmulator) -> RunOutcome<()> {
        for s in 0..self.panels() {
            self.iteration(emu, s);
            if emu.poll(CrashSite::new(sites::PH_ORIG_ITER, s as u64)) {
                return RunOutcome::Crashed(emu.crash_now());
            }
        }
        RunOutcome::Completed(())
    }

    /// Uncharged extraction of the data part of `Cf` (without checksums).
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
    use adcc_sim::crash::CrashTrigger;
    use adcc_sim::system::SystemConfig;

    fn cfg() -> SystemConfig {
        SystemConfig::nvm_only(64 << 10, 64 << 20)
    }

    #[test]
    fn original_abft_computes_correct_product() {
        let n = 24;
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let mut sys = MemorySystem::new(cfg());
        let mm = OriginalAbft::setup(&mut sys, &a, &b, 6, true);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        mm.run(&mut emu).completed().unwrap();
        let got = mm.peek_product(&emu);
        let want = a.mul_naive(&b);
        assert!(got.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn final_cf_has_consistent_checksums() {
        let n = 16;
        let a = Matrix::random(n, n, 3);
        let b = Matrix::random(n, n, 4);
        let mut sys = MemorySystem::new(cfg());
        let mm = OriginalAbft::setup(&mut sys, &a, &b, 4, false);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        mm.run(&mut emu).completed().unwrap();
        let mut sys = emu.into_system();
        assert!(verify_full(&mut sys, &mm.cf).is_consistent());
    }

    #[test]
    fn crash_trigger_interrupts_at_panel() {
        let n = 16;
        let a = Matrix::random(n, n, 5);
        let b = Matrix::random(n, n, 6);
        let mut sys = MemorySystem::new(cfg());
        let mm = OriginalAbft::setup(&mut sys, &a, &b, 4, false);
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_ORIG_ITER, 1),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        assert!(mm.run(&mut emu).is_crashed());
    }
}
