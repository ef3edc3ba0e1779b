//! Distributed 2-D Jacobi (5-point Laplace smoothing): block
//! decomposition over a [`crate::grid::GridCfg`] process grid with
//! edge-and-corner halo exchange, under both recovery modes.
//!
//! The plate's interior (`rows × cols`) is split into `py × px` blocks;
//! every superstep each rank exchanges the halo ring around its block
//! with up to eight neighbors (edges feed the 5-point update; corners are
//! exchanged too so the halo ring is complete and the decomposition
//! generalizes past 5-point), averages its block's neighborhoods, then
//! hands the new iterate to its [`Mechanism`] — the same
//! double-buffered-iterate (AlgorithmDirected) versus coordinated
//! checkpoint (GlobalRestart) pair as [`crate::stencil`] (see
//! [`crate::persist`]), but with row/column-sized halos, so the traffic
//! gap between the two recovery modes is measured on a genuinely 2-D
//! workload. A `1 × p` grid degenerates to the seed's row striping with
//! an identical message schedule.

use std::sync::Arc;

use adcc_sim::parray::{load_span, map_span, span, PArray};
use adcc_sim::system::MemorySystem;

use crate::cluster::Cluster;
use crate::grid::Dir;
use crate::persist::{Mechanism, Partition};
use crate::preset::{DistConfig, Shape};
use crate::trial::DistKernel;

/// Fixed boundary values: top, bottom, left, right.
const TOP_B: f64 = 1.0;
const BOT_B: f64 = 0.0;
const LEFT_B: f64 = 0.75;
const RIGHT_B: f64 = 0.25;

/// The plate's interior.
#[derive(Debug, Clone, Copy)]
pub struct Plate {
    /// Interior rows (must divide evenly by the grid's `py`).
    pub rows: usize,
    /// Interior columns (must divide evenly by the grid's `px`).
    pub cols: usize,
}

impl Shape for Plate {
    const CAMPAIGN: Plate = Plate { rows: 16, cols: 24 };
    const NET_SEED: u64 = 0xd157_0002;
    const POOLS: (usize, usize) = (128 << 10, 512 << 10);
}

/// Problem and mechanism parameters of the distributed Jacobi sweep.
pub type JacobiConfig = DistConfig<Plate>;

/// Deterministic initial interior value.
fn initial(global_row: usize, col: usize) -> f64 {
    ((global_row * 53 + col * 17 + 29) % 113) as f64 / 113.0
}

/// One rank's volatile arrays.
#[derive(Clone, Copy)]
struct Arrays {
    /// Working block, `(rows_b + 2) × (cols_b + 2)` row-major (halo ring:
    /// rows `0` / `rows_b + 1`, columns `0` / `cols_b + 1`).
    x: PArray<f64>,
    /// Next iterate, `rows_b × cols_b`.
    x_new: PArray<f64>,
}

/// The distributed Jacobi program. Batch replays clone the kernel
/// alongside [`Cluster::fork`]; a clone shares the handles and copies the
/// mechanism's host-side state, and `clone_from` reuses its target's
/// buffers.
pub struct DistJacobi {
    cfg: JacobiConfig,
    /// Interior rows per block.
    rows_b: usize,
    /// Interior columns per block.
    cols_b: usize,
    /// Per rank, fixed at setup, so clones share them.
    arrays: Arc<Vec<Arrays>>,
    /// How the blocks are made durable and brought back.
    mech: Mechanism,
}

impl Clone for DistJacobi {
    fn clone(&self) -> Self {
        DistJacobi {
            cfg: self.cfg.clone(),
            rows_b: self.rows_b,
            cols_b: self.cols_b,
            arrays: Arc::clone(&self.arrays),
            mech: self.mech.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.cfg.clone_from(&src.cfg);
        (self.rows_b, self.cols_b) = (src.rows_b, src.cols_b);
        self.arrays.clone_from(&src.arrays);
        self.mech.clone_from(&src.mech);
    }
}

impl DistJacobi {
    fn idx(&self, i: usize, j: usize) -> usize {
        i * (self.cols_b + 2) + j
    }

    /// Each interior row `i` of a block with the index in `x` of its first
    /// interior cell: the row is `cols_b` cells from there.
    fn interior_rows(&self) -> impl Iterator<Item = (usize, usize)> {
        let width = self.cols_b + 2;
        (0..self.rows_b).map(move |i| (i, (i + 1) * width + 1))
    }

    /// Side `d` of a block as a `(first, step, len)` walk over `x`: the
    /// interior boundary row/column/corner a rank sends towards `d`, or —
    /// with `halo` — the halo cells it fills from its `d` neighbor, in the
    /// same cell order.
    fn side(&self, d: Dir, halo: bool) -> (usize, usize, usize) {
        let (rb, cb) = (self.rows_b, self.cols_b);
        let out = usize::from(halo);
        let (top, bottom, left, right) = (1 - out, rb + out, 1 - out, cb + out);
        let width = cb + 2;
        match d {
            Dir::North => (self.idx(top, 1), 1, cb),
            Dir::South => (self.idx(bottom, 1), 1, cb),
            Dir::West => (self.idx(1, left), width, rb),
            Dir::East => (self.idx(1, right), width, rb),
            Dir::NorthWest => (self.idx(top, left), 1, 1),
            Dir::NorthEast => (self.idx(top, right), 1, 1),
            Dir::SouthWest => (self.idx(bottom, left), 1, 1),
            Dir::SouthEast => (self.idx(bottom, right), 1, 1),
        }
    }

    /// Send rank `r`'s face towards direction `d` to that neighbor, `n`.
    fn send_face(&self, cl: &mut Cluster, r: usize, d: Dir, n: usize) {
        let (first, step, len) = self.side(d, false);
        let x = self.arrays[r].x;
        cl.send_with(r, n, |sys, out| {
            if step == 1 {
                load_span(sys, [x.slice(first, len)], |_, [v]| out.push(v));
            } else {
                out.extend((0..len).map(|k| x.get(sys, first + k * step)));
            }
        });
    }

    /// Receive into rank `r`'s halo ring on side `d` from that neighbor,
    /// `n`.
    fn recv_halo(&self, cl: &mut Cluster, r: usize, d: Dir, n: usize) {
        let (first, step, len) = self.side(d, true);
        let x = self.arrays[r].x;
        cl.recv_with(n, r, |sys, vals| {
            debug_assert_eq!(vals.len(), len);
            if step == 1 {
                x.slice(first, len).store_slice(sys, vals);
            } else {
                for (k, &v) in vals.iter().enumerate() {
                    x.set(sys, first + k * step, v);
                }
            }
        });
    }

    /// Reset one rank's fixed boundary cells: the halo sides that face the
    /// plate's physical boundary rather than a neighbor. Corner precedence
    /// matches the serial host: left/right columns win over top/bottom
    /// rows.
    fn set_boundaries(&self, cl: &mut Cluster, r: usize) {
        let (rb, cb) = (self.rows_b, self.cols_b);
        let (c, rw) = self.cfg.grid.coords(r);
        let (px, py) = (self.cfg.grid.px, self.cfg.grid.py);
        let sys = cl.system_mut(r);
        let x = self.arrays[r].x;
        if c == 0 {
            for i in 0..rb + 2 {
                x.set(sys, self.idx(i, 0), LEFT_B);
            }
        }
        if c == px - 1 {
            for i in 0..rb + 2 {
                x.set(sys, self.idx(i, cb + 1), RIGHT_B);
            }
        }
        let (j0, j1) = (
            if c == 0 { 1 } else { 0 },
            if c == px - 1 { cb } else { cb + 1 },
        );
        if rw == 0 {
            x.slice(self.idx(0, j0), j1 + 1 - j0).fill(sys, TOP_B);
        }
        if rw == py - 1 {
            x.slice(self.idx(rb + 1, j0), j1 + 1 - j0).fill(sys, BOT_B);
        }
    }

    /// Allocate and initialize the program on a fresh cluster.
    pub fn setup(cl: &mut Cluster, cfg: JacobiConfig) -> Self {
        let mech = cfg.mechanism(cl);
        let Plate { rows, cols } = cfg.shape;
        assert!(
            rows.is_multiple_of(cfg.grid.py),
            "rows must split evenly over grid rows"
        );
        assert!(
            cols.is_multiple_of(cfg.grid.px),
            "cols must split evenly over grid columns"
        );
        let rows_b = rows / cfg.grid.py;
        let cols_b = cols / cfg.grid.px;
        let mut prog = DistJacobi {
            rows_b,
            cols_b,
            arrays: Arc::default(),
            mech,
            cfg,
        };
        for r in 0..prog.cfg.ranks {
            let sys = cl.system_mut(r);
            let x = PArray::<f64>::alloc_dram(sys, (rows_b + 2) * (cols_b + 2));
            let x_new = PArray::<f64>::alloc_dram(sys, rows_b * cols_b);
            Arc::make_mut(&mut prog.arrays).push(Arrays { x, x_new });
            prog.reinit(sys, r);
            prog.set_boundaries(cl, r);
            let part = Partition {
                slot_len: rows_b * cols_b,
                volatile: &[(x.base(), x.byte_len())],
                statics: &[],
                scalar: None,
            };
            let rows = prog.interior_rows();
            prog.mech.add_rank(cl.system_mut(r), part, |sys, slot| {
                for (i, first) in rows {
                    map_span(
                        sys,
                        [x.slice(first, cols_b)],
                        slot.slice(i * cols_b, cols_b),
                        |_, [v]| v,
                    );
                }
            });
        }
        prog
    }

    /// Exchange the halo ring with every grid neighbor: all sends in rank
    /// order (directions in [`Dir::ALL`] order within a rank), then all
    /// receives the same way — one message per `(src, dst)` pair.
    fn exchange(&mut self, cl: &mut Cluster) {
        let p = self.cfg.ranks;
        for r in 0..p {
            for d in Dir::ALL {
                if let Some(n) = self.cfg.grid.neighbor(r, d) {
                    self.send_face(cl, r, d, n);
                }
            }
        }
        for r in 0..p {
            for d in Dir::ALL {
                if let Some(n) = self.cfg.grid.neighbor(r, d) {
                    self.recv_halo(cl, r, d, n);
                }
            }
        }
        cl.barrier();
    }

    /// Neighbor-assisted halo reconstruction: every neighbor re-sends the
    /// failed rank's halo segment from intact volatile state (the plate
    /// boundary sides are re-derived by [`Self::set_boundaries`]).
    fn halo_assist(&mut self, cl: &mut Cluster, rank: usize) {
        for d in Dir::ALL {
            if let Some(n) = self.cfg.grid.neighbor(rank, d) {
                self.send_face(cl, n, d.opposite(), rank);
                self.recv_halo(cl, rank, d, n);
            }
        }
    }
}

impl DistKernel for DistJacobi {
    fn iters(&self) -> u64 {
        self.cfg.iters
    }

    fn compute(&mut self, cl: &mut Cluster, _iter: u64, exchange: bool) {
        let p = self.cfg.ranks;
        let (rb, cb) = (self.rows_b, self.cols_b);
        if exchange {
            self.exchange(cl);
        }
        for r in 0..p {
            let sys = cl.system_mut(r);
            let Arrays { x, x_new } = self.arrays[r];
            for i in 1..=rb {
                // The `cb` cells from `(i, j)` on.
                let run = |i, j| x.slice(self.idx(i, j), cb);
                span(
                    sys,
                    [run(i - 1, 1), run(i + 1, 1), run(i, 0), run(i, 2)],
                    [x_new.slice((i - 1) * cb, cb)],
                    |_, [up, down, left, right]| [0.25 * (up + down + left + right)],
                );
            }
            sys.charge_flops(4 * (rb * cb) as u64);
        }
    }

    fn commit(&mut self, cl: &mut Cluster, iter: u64) {
        let p = self.cfg.ranks;
        let cb = self.cols_b;
        for r in 0..p {
            let sys = cl.system_mut(r);
            let Arrays { x, x_new } = self.arrays[r];
            for (i, first) in self.interior_rows() {
                map_span(
                    sys,
                    [x_new.slice(i * cb, cb)],
                    x.slice(first, cb),
                    |_, [v]| v,
                );
            }
            self.mech.commit(sys, r, iter, None, |sys, slot| {
                map_span(sys, [x_new], slot, |_, [v]| v)
            });
        }
    }

    fn solution(&self, cl: &Cluster) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.cfg.shape.rows * self.cfg.shape.cols);
        for gi in 0..self.cfg.shape.rows {
            // Each block's interior row is contiguous in its `x`.
            for bj in 0..self.cfg.grid.px {
                let r = self.cfg.grid.rank_at(bj, gi / self.rows_b);
                let first = self.idx(gi % self.rows_b + 1, 1);
                self.arrays[r]
                    .x
                    .peek_into(cl.system(r), first..first + self.cols_b, &mut out);
            }
        }
        out
    }

    /// The full working block, halo ring included: `x_new` is fully
    /// overwritten by the next compute before any read, so `x` alone pins
    /// the tail.
    fn resume_state(&self, cl: &Cluster) -> Vec<f64> {
        let cells = (self.rows_b + 2) * (self.cols_b + 2);
        let mut out = Vec::with_capacity(self.cfg.ranks * cells);
        for r in 0..self.cfg.ranks {
            self.arrays[r].x.peek_into(cl.system(r), 0..cells, &mut out);
        }
        out
    }

    fn mechanism(&mut self) -> &mut Mechanism {
        &mut self.mech
    }

    fn load_slot(&self, sys: &mut MemorySystem, rank: usize, slot: PArray<f64>) {
        let cb = self.cols_b;
        for (i, first) in self.interior_rows() {
            map_span(
                sys,
                [slot.slice(i * cb, cb)],
                self.arrays[rank].x.slice(first, cb),
                |_, [v]| v,
            );
        }
    }

    /// Fixed boundary cells are re-derivable; halo cells are not.
    fn reconstruct(&mut self, cl: &mut Cluster, rank: usize, assist: bool) {
        self.set_boundaries(cl, rank);
        if assist {
            self.halo_assist(cl, rank);
        }
    }

    /// The plate's fixed boundary cells are constants of the program
    /// text; halo cells facing neighbors are refilled by the resumed
    /// superstep's opening exchange.
    fn dirty_constants(&self, cl: &mut Cluster, rank: usize) {
        self.set_boundaries(cl, rank);
    }

    fn reinit(&self, sys: &mut MemorySystem, r: usize) {
        let (c, rw) = self.cfg.grid.coords(r);
        for (i, first) in self.interior_rows() {
            self.arrays[r]
                .x
                .slice(first, self.cols_b)
                .store_span(sys, |j| initial(rw * self.rows_b + i, c * self.cols_b + j));
        }
    }
}

/// Serial host reference (same arithmetic, same element order).
pub fn jacobi_host(rows: usize, cols: usize, iters: u64) -> Vec<f64> {
    let w = cols + 2;
    let mut x = vec![0.0f64; (rows + 2) * w];
    for i in 0..rows + 2 {
        x[i * w] = LEFT_B;
        x[i * w + cols + 1] = RIGHT_B;
    }
    for j in 1..=cols {
        x[j] = TOP_B;
        x[(rows + 1) * w + j] = BOT_B;
    }
    for i in 0..rows {
        for j in 0..cols {
            x[(i + 1) * w + j + 1] = initial(i, j);
        }
    }
    let mut x_new = vec![0.0f64; rows * cols];
    for _ in 0..iters {
        for i in 1..=rows {
            for j in 1..=cols {
                x_new[(i - 1) * cols + j - 1] = 0.25
                    * (x[(i - 1) * w + j]
                        + x[(i + 1) * w + j]
                        + x[i * w + j - 1]
                        + x[i * w + j + 1]);
            }
        }
        for i in 0..rows {
            for j in 0..cols {
                x[(i + 1) * w + j + 1] = x_new[i * cols + j];
            }
        }
    }
    (0..rows)
        .flat_map(|i| (0..cols).map(move |j| (i, j)))
        .map(|(i, j)| x[(i + 1) * w + j + 1])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::RankFailure;
    use crate::grid::GridCfg;
    use crate::net::FaultProfile;
    use crate::preset::tests::{
        crash_at, node_loss_recovers_exactly, plate, restart_costs_more_than_local, run,
    };
    use crate::sites;
    use crate::trial::RecoveryMode;
    use adcc_sim::crash::CrashTrigger;

    fn grid(mode: RecoveryMode) -> JacobiConfig {
        JacobiConfig {
            grid: GridCfg::grid(2, 2),
            ..plate(mode)
        }
    }

    #[test]
    fn crash_free_run_matches_the_serial_host_bitwise() {
        let trial = run(plate(RecoveryMode::GlobalRestart), DistJacobi::setup, &[]);
        assert!(trial.completed_clean);
        assert_eq!(trial.solution, jacobi_host(8, 12, 10));
    }

    #[test]
    fn two_d_block_grid_matches_the_serial_host_bitwise() {
        // A 2x2 block grid exchanges edges *and* corners; the update
        // arithmetic is unchanged, so the solution bits are the striped
        // run's exactly.
        let trial = run(
            grid(RecoveryMode::AlgorithmDirected),
            DistJacobi::setup,
            &[],
        );
        assert!(trial.completed_clean);
        assert_eq!(trial.solution, jacobi_host(8, 12, 10));
    }

    #[test]
    fn two_d_block_recovery_reproduces_the_crash_free_solution() {
        let reference = jacobi_host(8, 12, 10);
        for mode in [RecoveryMode::AlgorithmDirected, RecoveryMode::GlobalRestart] {
            // Rank 3 is the interior-corner block (1,1) of the 2x2 grid.
            for (rank, phase, iter) in [(3, sites::PH_MID, 5), (0, sites::PH_END, 9)] {
                let trial = run(
                    grid(mode),
                    DistJacobi::setup,
                    &[crash_at(rank, phase, iter)],
                );
                assert!(!trial.completed_clean);
                assert_eq!(
                    trial.solution, reference,
                    "{mode:?} rank {rank} phase {phase:#x} iter {iter}"
                );
            }
        }
    }

    #[test]
    fn chaotic_16rank_grid_matches_the_serial_host_bitwise() {
        let cfg =
            JacobiConfig::campaign_for(RecoveryMode::AlgorithmDirected, FaultProfile::Chaotic);
        assert_eq!((cfg.ranks, cfg.grid.px, cfg.grid.py), (16, 4, 4));
        let trial = run(cfg, DistJacobi::setup, &[]);
        assert!(trial.completed_clean);
        assert_eq!(trial.solution, jacobi_host(16, 24, 10));
        let p = trial.profile.expect("telemetry on");
        assert!(p.net_dropped > 0, "chaotic profile observed");
    }

    #[test]
    fn access_count_triggers_land_on_poll_boundaries_and_recover() {
        let reference = jacobi_host(8, 12, 10);
        // A crash-free run of this size issues ~2.6k accesses per rank.
        let failure = RankFailure::crash(2, CrashTrigger::AtAccessCount(1_500));
        let trial = run(
            plate(RecoveryMode::AlgorithmDirected),
            DistJacobi::setup,
            &[failure],
        );
        assert!(!trial.completed_clean, "threshold lands inside the run");
        assert_eq!(trial.solution, reference);
    }

    #[test]
    fn node_loss_recovers_exactly_from_the_remote_level() {
        node_loss_recovers_exactly(plate(RecoveryMode::AlgorithmDirected), DistJacobi::setup);
        node_loss_recovers_exactly(grid(RecoveryMode::AlgorithmDirected), DistJacobi::setup);
    }

    #[test]
    fn restart_loses_cluster_wide_work_and_more_traffic() {
        restart_costs_more_than_local(plate, DistJacobi::setup);
    }
}
