//! Distributed conjugate gradient: block-row decomposition with
//! allgathered search directions and rank-ordered allreduces, under both
//! recovery modes.
//!
//! Each rank owns a row block of the SPD matrix (seeded into its NVM) and
//! the matching segments of `x`, `r`, and `p`; the full `p` is replicated
//! via an allgather at the start of every superstep, and the two dot
//! products reduce in rank order. Every superstep hands the iterate
//! segments `x‖r‖p` and the global scalar `rho` to the kernel's
//! [`Mechanism`] (see [`crate::persist`]): the paper's extended scheme
//! lifted to partitions (AlgorithmDirected) or coordinated
//! checkpoint/restart (GlobalRestart). A failed rank's segment
//! reconstruction needs the current `p` — under AlgorithmDirected the
//! survivors re-send only their segments to the one failed rank, versus a
//! cluster-wide rollback, re-allgather, and re-execution under
//! GlobalRestart.

use std::sync::Arc;

use adcc_linalg::csr::CsrMatrix;
use adcc_linalg::spd::random_spd;
use adcc_sim::parray::PArray;
use adcc_sim::system::MemorySystem;

use crate::cluster::Cluster;
use crate::persist::{Mechanism, Partition};
use crate::preset::{DistConfig, Shape};
use crate::trial::DistKernel;

/// The SPD problem. CG's collectives are all-to-all, so the process grid
/// only sizes the rank count.
#[derive(Debug, Clone, Copy)]
pub struct Spd {
    /// Matrix dimension (must divide evenly by `ranks`).
    pub n: usize,
    /// Random off-diagonal entries per row.
    pub extras_per_row: usize,
    /// Problem seed.
    pub seed: u64,
}

impl Spd {
    /// The host-side problem: the matrix and `b = A·1`. Pure function of
    /// the shape — campaign scenarios build it once and share it across
    /// every trial's cluster setup.
    pub fn problem(&self) -> (CsrMatrix, Vec<f64>) {
        let a = random_spd(self.n, self.extras_per_row, self.seed);
        let ones = vec![1.0; self.n];
        let mut b = vec![0.0; self.n];
        a.spmv(&ones, &mut b);
        (a, b)
    }
}

impl Shape for Spd {
    const CAMPAIGN: Spd = Spd {
        n: 96,
        extras_per_row: 4,
        seed: 515,
    };
    const NET_SEED: u64 = 0xd157_0003;
    const POOLS: (usize, usize) = (128 << 10, 512 << 10);
}

/// Problem and mechanism parameters of the distributed CG solve.
pub type CgConfig = DistConfig<Spd>;

/// The distributed CG program. Cloning copies only the handles and
/// host-side bookkeeping (`rho` and the in-flight `pq` partials included)
/// — batch replays clone the kernel alongside [`Cluster::fork`].
#[derive(Clone)]
pub struct DistCg {
    cfg: CgConfig,
    /// Rows (and vector elements) per rank.
    m: usize,
    /// Host copy of each rank's local row pointer (structure metadata;
    /// matrix *values* are read charged from NVM every iteration). Fixed
    /// at setup, so clones share it.
    rowptr: Arc<Vec<Vec<usize>>>,
    /// Current `rho` (every rank holds the same value after the setup and
    /// each superstep's allreduce; recovery re-reads it from NVM/ckpt).
    rho: f64,
    /// Partial `pᵀq` per rank, carried from [`DistKernel::compute`] across
    /// the `PH_MID` boundary into [`DistKernel::commit`]'s allreduce.
    pq: Vec<f64>,
    /// NVM matrix values per rank.
    a_vals: Vec<PArray<f64>>,
    /// NVM matrix column indices per rank.
    a_cols: Vec<PArray<u32>>,
    /// Volatile solution/residual/direction segments per rank.
    x_r: Vec<PArray<f64>>,
    r_r: Vec<PArray<f64>>,
    p_r: Vec<PArray<f64>>,
    /// Volatile scratch `q = A p` segment per rank.
    q_r: Vec<PArray<f64>>,
    /// Volatile replicated full `p` per rank.
    p_full: Vec<PArray<f64>>,
    /// How the segments and `rho` are made durable and brought back. The
    /// static matrix block rides to the remote level too: CG re-reads
    /// `A`'s values from NVM every superstep and a lost node comes back
    /// with blank NVM.
    mech: Mechanism,
}

impl DistCg {
    /// Allocate and initialize the program, deriving the host problem
    /// from the config (see [`DistCg::setup_with_problem`] to share one).
    pub fn setup(cl: &mut Cluster, cfg: CgConfig) -> Self {
        let (a, b) = cfg.shape.problem();
        Self::setup_with_problem(cl, cfg, &a, &b)
    }

    /// Allocate and initialize the program against a prebuilt host
    /// problem: seed the row blocks and `b` segments into per-rank NVM,
    /// start from `x = 0, r = p = b`, compute `rho₀` with a charged
    /// allreduce, persist iterate 0.
    pub fn setup_with_problem(cl: &mut Cluster, cfg: CgConfig, a: &CsrMatrix, b: &[f64]) -> Self {
        let n = cfg.shape.n;
        assert!(n.is_multiple_of(cfg.ranks), "n must split evenly");
        assert_eq!(a.n(), n, "problem/config dimension mismatch");
        let m = n / cfg.ranks;
        let mut prog = DistCg {
            m,
            rowptr: Arc::default(),
            rho: 0.0,
            pq: Vec::new(),
            a_vals: Vec::new(),
            a_cols: Vec::new(),
            x_r: Vec::new(),
            r_r: Vec::new(),
            p_r: Vec::new(),
            q_r: Vec::new(),
            p_full: Vec::new(),
            mech: cfg.mechanism(cl),
            cfg,
        };
        for rank in 0..prog.cfg.ranks {
            let lo = rank * m;
            // Local CSR slice: rows lo..lo+m with a rebased row pointer.
            let mut local_ptr = Vec::with_capacity(m + 1);
            let mut vals = Vec::new();
            let mut cols = Vec::new();
            local_ptr.push(0);
            let (rp, ci, av) = (a.row_ptr(), a.col_idx(), a.vals());
            for row in lo..lo + m {
                for k in rp[row]..rp[row + 1] {
                    vals.push(av[k]);
                    cols.push(ci[k]);
                }
                local_ptr.push(vals.len());
            }
            let sys = cl.system_mut(rank);
            let a_vals = PArray::<f64>::alloc_nvm(sys, vals.len());
            let a_cols = PArray::<u32>::alloc_nvm(sys, cols.len());
            a_vals.seed_slice(sys, &vals);
            a_cols.seed_slice(sys, &cols);
            let b_seg = PArray::<f64>::alloc_nvm(sys, m);
            b_seg.seed_slice(sys, &b[lo..lo + m]);

            let x_r = PArray::<f64>::alloc_dram(sys, m);
            let r_r = PArray::<f64>::alloc_dram(sys, m);
            let p_r = PArray::<f64>::alloc_dram(sys, m);
            let q_r = PArray::<f64>::alloc_dram(sys, m);
            let p_full = PArray::<f64>::alloc_dram(sys, n);
            for j in 0..m {
                let bv = b_seg.get(sys, j);
                x_r.set(sys, j, 0.0);
                r_r.set(sys, j, bv);
                p_r.set(sys, j, bv);
            }
            Arc::make_mut(&mut prog.rowptr).push(local_ptr);
            prog.a_vals.push(a_vals);
            prog.a_cols.push(a_cols);
            prog.x_r.push(x_r);
            prog.r_r.push(r_r);
            prog.p_r.push(p_r);
            prog.q_r.push(q_r);
            prog.p_full.push(p_full);
        }
        // rho₀ = rᵀr via the charged rank-ordered allreduce.
        let partials: Vec<f64> = (0..prog.cfg.ranks)
            .map(|rank| {
                let sys = cl.system_mut(rank);
                (0..m)
                    .map(|j| {
                        let v = prog.r_r[rank].get(sys, j);
                        sys.charge_flops(2);
                        v * v
                    })
                    .sum()
            })
            .collect();
        prog.rho = cl.allreduce_sum(&partials);
        // Persist iterate 0 under the configured mechanism.
        for rank in 0..prog.cfg.ranks {
            let nnz = prog.rowptr[rank][m];
            let segments = [prog.x_r[rank], prog.r_r[rank], prog.p_r[rank]];
            let part = Partition {
                slot_len: 3 * m,
                volatile: &segments.map(|seg| (seg.base(), m * 8)),
                statics: &[
                    (prog.a_vals[rank].base(), nnz * 8),
                    (prog.a_cols[rank].base(), nnz * 4),
                ],
                scalar: Some(prog.rho),
            };
            prog.mech.add_rank(cl.system_mut(rank), part, |sys, slot| {
                store_segments(sys, segments, slot, m)
            });
        }
        prog
    }

    /// Allgather the `p` segments into every rank's replicated `p_full`,
    /// rank order, then synchronize.
    fn allgather_p(&mut self, cl: &mut Cluster) {
        let p = self.cfg.ranks;
        let m = self.m;
        // Each rank reads its segment once and sends it to every peer.
        let mut seg = Vec::with_capacity(m);
        for rank in 0..p {
            let sys = cl.system_mut(rank);
            seg.clear();
            seg.extend((0..m).map(|j| self.p_r[rank].get(sys, j)));
            for dst in 0..p {
                if dst != rank {
                    cl.send_with(rank, dst, |_, out| out.extend_from_slice(&seg));
                }
            }
        }
        for dst in 0..p {
            for src in 0..p {
                if src == dst {
                    let sys = cl.system_mut(dst);
                    for j in 0..m {
                        let v = self.p_r[dst].get(sys, j);
                        self.p_full[dst].set(sys, dst * m + j, v);
                    }
                } else {
                    self.recv_segment(cl, src, dst);
                }
            }
        }
        cl.barrier();
    }

    /// Receive `src`'s `p` segment into `dst`'s replicated `p_full`.
    fn recv_segment(&self, cl: &mut Cluster, src: usize, dst: usize) {
        let (full, m) = (self.p_full[dst], self.m);
        cl.recv_with(src, dst, |sys, seg| {
            for (j, &v) in seg.iter().enumerate() {
                full.set(sys, src * m + j, v);
            }
        });
    }

    /// Segment-assisted reconstruction: every survivor re-sends its `p`
    /// segment to the one failed rank, which refills its replicated
    /// `p_full` (own segment from the restored ring).
    fn segment_assist(&mut self, cl: &mut Cluster, rank: usize) {
        let p = self.cfg.ranks;
        let m = self.m;
        for src in 0..p {
            if src == rank {
                continue;
            }
            let p_src = self.p_r[src];
            cl.send_with(src, rank, |sys, out| {
                out.extend((0..m).map(|j| p_src.get(sys, j)));
            });
        }
        for src in 0..p {
            if src == rank {
                let sys = cl.system_mut(rank);
                for j in 0..m {
                    let v = self.p_r[rank].get(sys, j);
                    self.p_full[rank].set(sys, rank * m + j, v);
                }
            } else {
                self.recv_segment(cl, src, rank);
            }
        }
    }
}

/// Gather one rank's `x‖r‖p` segments into an iterate slot, element by
/// element (the commit-side copy loop).
fn store_segments(
    sys: &mut MemorySystem,
    [x, r, p]: [PArray<f64>; 3],
    slot: PArray<f64>,
    m: usize,
) {
    for j in 0..m {
        let xv = x.get(sys, j);
        let rv = r.get(sys, j);
        let pv = p.get(sys, j);
        slot.set(sys, j, xv);
        slot.set(sys, m + j, rv);
        slot.set(sys, 2 * m + j, pv);
    }
}

impl DistKernel for DistCg {
    fn iters(&self) -> u64 {
        self.cfg.iters
    }

    fn compute(&mut self, cl: &mut Cluster, _iter: u64, exchange: bool) {
        let p = self.cfg.ranks;
        let m = self.m;
        if exchange {
            self.allgather_p(cl);
        }
        // q = A p (local rows), partial pᵀq — no persistence happens
        // before the MID boundary. The partials cross the boundary in
        // `self.pq`, so a batch replay's cloned kernel carries them.
        let mut pq = vec![0.0f64; p];
        for rank in 0..p {
            let sys = cl.system_mut(rank);
            let mut partial = 0.0;
            for j in 0..m {
                let (lo, hi) = (self.rowptr[rank][j], self.rowptr[rank][j + 1]);
                let mut acc = 0.0;
                for k in lo..hi {
                    let v = self.a_vals[rank].get(sys, k);
                    let c = self.a_cols[rank].get(sys, k) as usize;
                    acc += v * self.p_full[rank].get(sys, c);
                }
                sys.charge_flops(2 * (hi - lo) as u64 + 2);
                self.q_r[rank].set(sys, j, acc);
                partial += self.p_full[rank].get(sys, rank * m + j) * acc;
            }
            pq[rank] = partial;
        }
        self.pq = pq;
    }

    fn commit(&mut self, cl: &mut Cluster, iter: u64) {
        let p = self.cfg.ranks;
        let m = self.m;
        let denom = cl.allreduce_sum(&self.pq);
        let alpha = self.rho / denom;
        // Compute phase 2: advance x and r, reduce the new rho, update p.
        let mut rr = vec![0.0f64; p];
        for rank in 0..p {
            let sys = cl.system_mut(rank);
            let mut partial = 0.0;
            for j in 0..m {
                let pj = self.p_full[rank].get(sys, rank * m + j);
                let qj = self.q_r[rank].get(sys, j);
                let xj = self.x_r[rank].get(sys, j) + alpha * pj;
                let rj = self.r_r[rank].get(sys, j) - alpha * qj;
                sys.charge_flops(6);
                self.x_r[rank].set(sys, j, xj);
                self.r_r[rank].set(sys, j, rj);
                partial += rj * rj;
            }
            rr[rank] = partial;
        }
        let rho_new = cl.allreduce_sum(&rr);
        let beta = rho_new / self.rho;
        for rank in 0..p {
            let sys = cl.system_mut(rank);
            for j in 0..m {
                let rj = self.r_r[rank].get(sys, j);
                let pj = self.p_full[rank].get(sys, rank * m + j);
                sys.charge_flops(2);
                self.p_r[rank].set(sys, j, rj + beta * pj);
            }
        }
        self.rho = rho_new;
        // Persist phase for every rank, then END polls.
        for rank in 0..p {
            let segments = [self.x_r[rank], self.r_r[rank], self.p_r[rank]];
            self.mech.commit(
                cl.system_mut(rank),
                rank,
                iter,
                Some(self.rho),
                |sys, slot| store_segments(sys, segments, slot, m),
            );
        }
    }

    fn solution(&self, cl: &Cluster) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.cfg.shape.n);
        for rank in 0..self.cfg.ranks {
            self.x_r[rank].peek_into(cl.system(rank), 0..self.m, &mut out);
        }
        out
    }

    /// `x ‖ r ‖ p` per rank plus the global `rho`: `q` and the replicated
    /// `p_full` are fully rewritten (compute / allgather) before any read
    /// in the remaining supersteps, and the NVM ring is a pure function of
    /// the committed iterates, so this quadruple pins the tail.
    fn resume_state(&self, cl: &Cluster) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.cfg.ranks * 3 * self.m + 1);
        for rank in 0..self.cfg.ranks {
            let sys = cl.system(rank);
            for seg in [self.x_r[rank], self.r_r[rank], self.p_r[rank]] {
                seg.peek_into(sys, 0..self.m, &mut out);
            }
        }
        out.push(self.rho);
        out
    }

    fn mechanism(&mut self) -> &mut Mechanism {
        &mut self.mech
    }

    fn load_slot(&self, sys: &mut MemorySystem, rank: usize, slot: PArray<f64>) {
        let m = self.m;
        for j in 0..m {
            let x = slot.get(sys, j);
            let r = slot.get(sys, m + j);
            let pv = slot.get(sys, 2 * m + j);
            self.x_r[rank].set(sys, j, x);
            self.r_r[rank].set(sys, j, r);
            self.p_r[rank].set(sys, j, pv);
        }
    }

    fn set_scalar(&mut self, rho: f64) {
        self.rho = rho;
    }

    /// The in-flight superstep's replicated `p` was allgathered at its
    /// start and wiped on the failed rank: survivors re-send their
    /// segments to it only.
    fn reconstruct(&mut self, cl: &mut Cluster, rank: usize, assist: bool) {
        if assist {
            self.segment_assist(cl, rank);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preset::tests::{
        crash_at, node_loss_recovers_exactly, restart_costs_more_than_local, run, spd,
    };
    use crate::sites;
    use crate::trial::RecoveryMode;

    #[test]
    fn crash_free_run_converges_toward_ones() {
        let trial = run(spd(RecoveryMode::AlgorithmDirected), DistCg::setup, &[]);
        assert!(trial.completed_clean);
        // b = A·1, so CG heads for the all-ones vector.
        let err = trial
            .solution
            .iter()
            .map(|v| (v - 1.0).abs())
            .fold(0.0f64, f64::max);
        assert!(err < 0.5, "10 iterations should be well on the way: {err}");
    }

    #[test]
    fn both_recovery_modes_reproduce_the_crash_free_solution_bitwise() {
        for mode in [RecoveryMode::AlgorithmDirected, RecoveryMode::GlobalRestart] {
            let reference = run(spd(mode), DistCg::setup, &[]).solution;
            for (rank, phase, iter) in [(1, sites::PH_MID, 6), (2, sites::PH_END, 3)] {
                let trial = run(spd(mode), DistCg::setup, &[crash_at(rank, phase, iter)]);
                assert!(!trial.completed_clean);
                assert_eq!(
                    trial.solution, reference,
                    "{mode:?} rank {rank} phase {phase:#x} iter {iter}"
                );
            }
        }
    }

    #[test]
    fn node_loss_recovers_exactly_from_the_remote_level() {
        node_loss_recovers_exactly(spd(RecoveryMode::AlgorithmDirected), DistCg::setup);
    }

    #[test]
    fn local_recovery_sends_a_fraction_of_restart_traffic() {
        restart_costs_more_than_local(spd, DistCg::setup);
    }
}
