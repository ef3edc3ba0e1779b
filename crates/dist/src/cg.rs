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
use adcc_sim::parray::{gather_span, load_span, map_span, span, PArray};
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

/// One rank's row block: its host structure and its arrays.
#[derive(Clone)]
struct Block {
    /// Host copy of the local row pointer (structure metadata; matrix
    /// *values* are read charged from NVM every iteration).
    rowptr: Vec<usize>,
    /// NVM matrix values.
    a_vals: PArray<f64>,
    /// NVM matrix column indices.
    a_cols: PArray<u32>,
    /// Volatile solution/residual/direction segments.
    x_r: PArray<f64>,
    r_r: PArray<f64>,
    p_r: PArray<f64>,
    /// Volatile scratch `q = A p` segment.
    q_r: PArray<f64>,
    /// Volatile replicated full `p`.
    p_full: PArray<f64>,
}

impl Block {
    /// `x‖r‖p`, the segments an iterate slot holds.
    fn segments(&self) -> [PArray<f64>; 3] {
        [self.x_r, self.r_r, self.p_r]
    }

    /// Rank `rank`'s own segment of the replicated `p`, `m` long.
    fn own_p(&self, rank: usize, m: usize) -> PArray<f64> {
        self.p_full.slice(rank * m, m)
    }
}

/// The distributed CG program. Batch replays clone the kernel alongside
/// [`Cluster::fork`]; a clone shares the blocks and copies the host-side
/// bookkeeping (`rho` and the in-flight `pq` partials included), and
/// `clone_from` reuses its target's buffers.
pub struct DistCg {
    cfg: CgConfig,
    /// Rows (and vector elements) per rank.
    m: usize,
    /// Per rank, fixed at setup, so clones share them.
    blocks: Arc<Vec<Block>>,
    /// Current `rho` (every rank holds the same value after the setup and
    /// each superstep's allreduce; recovery re-reads it from NVM/ckpt).
    rho: f64,
    /// Partial `pᵀq` per rank, carried from [`DistKernel::compute`] across
    /// the `PH_MID` boundary into [`DistKernel::commit`]'s allreduce.
    pq: Vec<f64>,
    /// Host buffer of a superstep's segment copies and partials. Nothing
    /// in it outlives a call, so a clone starts it empty.
    scratch: Vec<f64>,
    /// How the segments and `rho` are made durable and brought back. The
    /// static matrix block rides to the remote level too: CG re-reads
    /// `A`'s values from NVM every superstep and a lost node comes back
    /// with blank NVM.
    mech: Mechanism,
}

impl Clone for DistCg {
    fn clone(&self) -> Self {
        DistCg {
            cfg: self.cfg.clone(),
            m: self.m,
            blocks: Arc::clone(&self.blocks),
            rho: self.rho,
            pq: self.pq.clone(),
            scratch: Vec::new(),
            mech: self.mech.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.cfg.clone_from(&src.cfg);
        self.m = src.m;
        self.blocks.clone_from(&src.blocks);
        self.rho = src.rho;
        self.pq.clone_from(&src.pq);
        self.mech.clone_from(&src.mech);
    }
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
            blocks: Arc::default(),
            rho: 0.0,
            pq: Vec::new(),
            scratch: Vec::new(),
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
            span(sys, [b_seg], [x_r, r_r, p_r], |_, [bv]| [0.0, bv, bv]);
            Arc::make_mut(&mut prog.blocks).push(Block {
                rowptr: local_ptr,
                a_vals,
                a_cols,
                x_r,
                r_r,
                p_r,
                q_r,
                p_full,
            });
        }
        // rho₀ = rᵀr via the charged rank-ordered allreduce.
        let partials: Vec<f64> = (0..prog.cfg.ranks)
            .map(|rank| {
                let sys = cl.system_mut(rank);
                let mut partial = 0.0;
                load_span(sys, [prog.blocks[rank].r_r], |_, [v]| partial += v * v);
                sys.charge_flops(2 * m as u64);
                partial
            })
            .collect();
        prog.rho = cl.allreduce_sum(&partials);
        // Persist iterate 0 under the configured mechanism.
        for rank in 0..prog.cfg.ranks {
            let block = &prog.blocks[rank];
            let nnz = block.rowptr[m];
            let segments = block.segments();
            let part = Partition {
                slot_len: 3 * m,
                volatile: &segments.map(|seg| (seg.base(), m * 8)),
                statics: &[
                    (block.a_vals.base(), nnz * 8),
                    (block.a_cols.base(), nnz * 4),
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
        // Each rank reads its segment once and sends it to every peer.
        let mut seg = std::mem::take(&mut self.scratch);
        for rank in 0..p {
            let sys = cl.system_mut(rank);
            seg.clear();
            load_span(sys, [self.blocks[rank].p_r], |_, [v]| seg.push(v));
            for dst in 0..p {
                if dst != rank {
                    cl.send_with(rank, dst, |_, out| out.extend_from_slice(&seg));
                }
            }
        }
        self.scratch = seg;
        for dst in 0..p {
            for src in 0..p {
                if src == dst {
                    self.copy_own_segment(cl, dst);
                } else {
                    self.recv_segment(cl, src, dst);
                }
            }
        }
        cl.barrier();
    }

    /// Receive `src`'s `p` segment into `dst`'s replicated `p_full`.
    fn recv_segment(&self, cl: &mut Cluster, src: usize, dst: usize) {
        let (full, m) = (self.blocks[dst].p_full, self.m);
        cl.recv_with(src, dst, |sys, seg| {
            full.slice(src * m, m).store_slice(sys, seg)
        });
    }

    /// Copy `rank`'s own `p` segment into its replicated `p_full`.
    fn copy_own_segment(&self, cl: &mut Cluster, rank: usize) {
        let block = &self.blocks[rank];
        let own = block.own_p(rank, self.m);
        map_span(cl.system_mut(rank), [block.p_r], own, |_, [v]| v);
    }

    /// Segment-assisted reconstruction: every survivor re-sends its `p`
    /// segment to the one failed rank, which refills its replicated
    /// `p_full` (own segment from the restored ring).
    fn segment_assist(&mut self, cl: &mut Cluster, rank: usize) {
        let p = self.cfg.ranks;
        for src in 0..p {
            if src == rank {
                continue;
            }
            let p_src = self.blocks[src].p_r;
            cl.send_with(src, rank, |sys, out| {
                load_span(sys, [p_src], |_, [v]| out.push(v));
            });
        }
        for src in 0..p {
            if src == rank {
                self.copy_own_segment(cl, rank);
            } else {
                self.recv_segment(cl, src, rank);
            }
        }
    }
}

/// The `x‖r‖p` thirds of an iterate slot of segments `m` long.
fn thirds(slot: PArray<f64>, m: usize) -> [PArray<f64>; 3] {
    [0, 1, 2].map(|k| slot.slice(k * m, m))
}

/// Gather one rank's `x‖r‖p` segments into an iterate slot, interleaved
/// element by element (the commit-side copy loop).
fn store_segments(sys: &mut MemorySystem, segments: [PArray<f64>; 3], slot: PArray<f64>, m: usize) {
    span(sys, segments, thirds(slot, m), |_, v| v);
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
        self.pq.clear();
        for rank in 0..p {
            let sys = cl.system_mut(rank);
            let Block {
                rowptr,
                a_vals,
                a_cols,
                q_r,
                p_full,
                ..
            } = &self.blocks[rank];
            let mut partial = 0.0;
            for j in 0..m {
                let mut acc = 0.0;
                gather_span(
                    sys,
                    *a_vals,
                    *a_cols,
                    rowptr[j]..rowptr[j + 1],
                    |sys, v, c| acc += v * p_full.get(sys, c as usize),
                );
                q_r.set(sys, j, acc);
                partial += p_full.get(sys, rank * m + j) * acc;
            }
            sys.charge_flops(2 * (rowptr[m] + m) as u64);
            self.pq.push(partial);
        }
    }

    fn commit(&mut self, cl: &mut Cluster, iter: u64) {
        let p = self.cfg.ranks;
        let m = self.m;
        let denom = cl.allreduce_sum(&self.pq);
        let alpha = self.rho / denom;
        // Compute phase 2: advance x and r, reduce the new rho, update p.
        let mut rr = std::mem::take(&mut self.scratch);
        rr.clear();
        for rank in 0..p {
            let sys = cl.system_mut(rank);
            let block = &self.blocks[rank];
            let (x, r) = (block.x_r, block.r_r);
            let mut partial = 0.0;
            span(
                sys,
                [block.own_p(rank, m), block.q_r, x, r],
                [x, r],
                |_, [pj, qj, xj, rj]| {
                    let rj = rj - alpha * qj;
                    partial += rj * rj;
                    [xj + alpha * pj, rj]
                },
            );
            sys.charge_flops(6 * m as u64);
            rr.push(partial);
        }
        let rho_new = cl.allreduce_sum(&rr);
        self.scratch = rr;
        let beta = rho_new / self.rho;
        for rank in 0..p {
            let sys = cl.system_mut(rank);
            let block = &self.blocks[rank];
            let ins = [block.r_r, block.own_p(rank, m)];
            map_span(sys, ins, block.p_r, |_, [rj, pj]| rj + beta * pj);
            sys.charge_flops(2 * m as u64);
        }
        self.rho = rho_new;
        // Persist phase for every rank, then END polls.
        for rank in 0..p {
            let segments = self.blocks[rank].segments();
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
            self.blocks[rank]
                .x_r
                .peek_into(cl.system(rank), 0..self.m, &mut out);
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
            for seg in self.blocks[rank].segments() {
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
        let segments = self.blocks[rank].segments();
        span(sys, thirds(slot, self.m), segments, |_, v| v);
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
