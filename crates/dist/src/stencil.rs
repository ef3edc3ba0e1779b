//! Distributed 1-D heat stencil: block decomposition with one-cell halo
//! exchange, under both recovery modes.
//!
//! A rod of `cells` points is split into `ranks` equal chunks, owned in
//! **boustrophedon chain order** over the process grid
//! ([`crate::grid::GridCfg::chain_pos`]): on a 1-column grid this is the
//! seed's rank ordering exactly, and on a 2-D grid every chain hop is
//! still a physical grid edge. Every superstep each rank updates its
//! chunk from its own cells plus one halo cell per side (received from
//! the chain neighbors at the superstep's opening exchange), then hands
//! the new iterate to its [`Mechanism`] (see [`crate::persist`] for the
//! two protocols):
//!
//! * **AlgorithmDirected** — recovery rebuilds the failed rank's
//!   partition from its own NVM residue (or, after a whole-node loss, the
//!   remote level); the neighbors re-send the one halo cell each that the
//!   crash wiped.
//! * **GlobalRestart** — recovery rolls the whole cluster back to the
//!   last coordinated checkpoint and re-executes every lost superstep,
//!   halo exchanges included.

use std::sync::Arc;

use adcc_sim::clock::Bucket;
use adcc_sim::parray::{map_span, span, PArray};
use adcc_sim::system::MemorySystem;

use crate::cluster::Cluster;
use crate::persist::{Mechanism, Partition};
use crate::preset::{DistConfig, Shape};
use crate::trial::DistKernel;

/// Fixed boundary value at the left end of the rod.
const LEFT_B: f64 = 1.0;
/// Fixed boundary value at the right end of the rod.
const RIGHT_B: f64 = 0.0;
/// Diffusion coefficient (stable for the 3-point explicit scheme).
const K_DIFF: f64 = 0.1;

/// The rod.
#[derive(Debug, Clone, Copy)]
pub struct Rod {
    /// Rod cells (must divide evenly by `ranks`).
    pub cells: usize,
}

impl Shape for Rod {
    const CAMPAIGN: Rod = Rod { cells: 256 };
    const NET_SEED: u64 = 0xd157;
    const POOLS: (usize, usize) = (64 << 10, 256 << 10);
}

/// Problem and mechanism parameters of the distributed stencil.
pub type StencilConfig = DistConfig<Rod>;

/// Deterministic initial temperature profile.
fn initial(global_cell: usize) -> f64 {
    ((global_cell * 37 + 11) % 101) as f64 / 101.0
}

/// One rank's volatile arrays.
#[derive(Clone, Copy)]
struct Arrays {
    /// Working iterate, `m + 2` cells (halo at `0` and `m + 1`).
    x: PArray<f64>,
    /// Next iterate, `m` cells.
    x_new: PArray<f64>,
}

/// The distributed stencil program (handles survive rank crashes; all
/// per-rank state lives in the cluster's simulated memories). Batch
/// replays clone the kernel alongside [`Cluster::fork`]; a clone shares
/// the handles and copies the mechanism's host-side state, and
/// `clone_from` reuses its target's buffers.
pub struct DistStencil {
    cfg: StencilConfig,
    /// Cells per rank.
    m: usize,
    /// Per rank, fixed at setup, so clones share them.
    arrays: Arc<Vec<Arrays>>,
    /// How the partitions are made durable and brought back.
    mech: Mechanism,
}

impl Clone for DistStencil {
    fn clone(&self) -> Self {
        DistStencil {
            cfg: self.cfg.clone(),
            m: self.m,
            arrays: Arc::clone(&self.arrays),
            mech: self.mech.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.cfg.clone_from(&src.cfg);
        self.m = src.m;
        self.arrays.clone_from(&src.arrays);
        self.mech.clone_from(&src.mech);
    }
}

impl DistStencil {
    /// Allocate and initialize the program on a fresh cluster: seed the
    /// initial profile, persist iterate 0 (AlgorithmDirected) or take the
    /// setup checkpoint (GlobalRestart).
    pub fn setup(cl: &mut Cluster, cfg: StencilConfig) -> Self {
        let cells = cfg.shape.cells;
        assert!(cells.is_multiple_of(cfg.ranks), "cells must split evenly");
        let m = cells / cfg.ranks;
        let mut prog = DistStencil {
            m,
            arrays: Arc::default(),
            mech: cfg.mechanism(cl),
            cfg,
        };
        for r in 0..prog.cfg.ranks {
            let sys = cl.system_mut(r);
            let x = PArray::<f64>::alloc_dram(sys, m + 2);
            let x_new = PArray::<f64>::alloc_dram(sys, m);
            Arc::make_mut(&mut prog.arrays).push(Arrays { x, x_new });
            prog.reinit(sys, r);
            prog.set_rod_ends(sys, r);
            let part = Partition {
                slot_len: m,
                volatile: &[(x.addr(1), m * 8)],
                statics: &[],
                scalar: None,
            };
            prog.mech.add_rank(sys, part, |sys, slot| {
                map_span(sys, [x.slice(1, m)], slot, |_, [v]| v)
            });
        }
        prog
    }

    /// Set `r`'s two halo cells to what the program text fixes them at:
    /// the rod's boundary values on the chain's end ranks, zero elsewhere
    /// (refilled by the next exchange).
    fn set_rod_ends(&self, sys: &mut MemorySystem, r: usize) {
        let pos = self.cfg.grid.chain_pos(r);
        self.arrays[r]
            .x
            .set(sys, 0, if pos == 0 { LEFT_B } else { 0.0 });
        let right = if pos == self.cfg.ranks - 1 {
            RIGHT_B
        } else {
            0.0
        };
        self.arrays[r].x.set(sys, self.m + 1, right);
    }

    /// Exchange boundary cells into the chain neighbors' halos (fixed rod
    /// boundaries on the chain's end ranks), rank order, then synchronize.
    fn exchange(&mut self, cl: &mut Cluster) {
        let p = self.cfg.ranks;
        let m = self.m;
        for r in 0..p {
            let sys = cl.system_mut(r);
            let left = self.arrays[r].x.get(sys, 1);
            let right = self.arrays[r].x.get(sys, m);
            if let Some(prev) = self.cfg.grid.chain_prev(r) {
                cl.send_with(r, prev, |_, out| out.push(left));
            }
            if let Some(next) = self.cfg.grid.chain_next(r) {
                cl.send_with(r, next, |_, out| out.push(right));
            }
        }
        for r in 0..p {
            if let Some(prev) = self.cfg.grid.chain_prev(r) {
                let v = cl.recv_with(prev, r, |_, v| v[0]);
                self.arrays[r].x.set(cl.system_mut(r), 0, v);
            } else {
                self.arrays[r].x.set(cl.system_mut(r), 0, LEFT_B);
            }
            if let Some(next) = self.cfg.grid.chain_next(r) {
                let v = cl.recv_with(next, r, |_, v| v[0]);
                self.arrays[r].x.set(cl.system_mut(r), m + 1, v);
            } else {
                self.arrays[r].x.set(cl.system_mut(r), m + 1, RIGHT_B);
            }
        }
        cl.barrier();
    }

    /// Re-send the failed rank's two halo cells from the survivors'
    /// intact volatile state (the neighbor-assisted reconstruction of the
    /// in-flight superstep's halos).
    fn halo_assist(&mut self, cl: &mut Cluster, rank: usize) {
        let m = self.m;
        if let Some(prev) = self.cfg.grid.chain_prev(rank) {
            let sys = cl.system_mut(prev);
            let v = self.arrays[prev].x.get(sys, m);
            cl.send_with(prev, rank, |_, out| out.push(v));
            let v = cl.recv_with(prev, rank, |_, v| v[0]);
            self.arrays[rank].x.set(cl.system_mut(rank), 0, v);
        } else {
            self.arrays[rank].x.set(cl.system_mut(rank), 0, LEFT_B);
        }
        if let Some(next) = self.cfg.grid.chain_next(rank) {
            let sys = cl.system_mut(next);
            let v = self.arrays[next].x.get(sys, 1);
            cl.send_with(next, rank, |_, out| out.push(v));
            let v = cl.recv_with(next, rank, |_, v| v[0]);
            self.arrays[rank].x.set(cl.system_mut(rank), m + 1, v);
        } else {
            self.arrays[rank].x.set(cl.system_mut(rank), m + 1, RIGHT_B);
        }
    }
}

impl DistKernel for DistStencil {
    fn iters(&self) -> u64 {
        self.cfg.iters
    }

    fn compute(&mut self, cl: &mut Cluster, _iter: u64, exchange: bool) {
        let p = self.cfg.ranks;
        let m = self.m;
        if exchange {
            self.exchange(cl);
        }
        // Persistence is untouched here, so a MID crash leaves all ranks
        // at the same persisted frontier.
        for r in 0..p {
            let sys = cl.system_mut(r);
            let Arrays { x, x_new } = self.arrays[r];
            span(
                sys,
                [x.slice(0, m), x.slice(1, m), x.slice(2, m)],
                [x_new],
                |_, [a, b, c]| [b + K_DIFF * (a - 2.0 * b + c)],
            );
            sys.charge_flops(4 * m as u64);
        }
    }

    fn commit(&mut self, cl: &mut Cluster, iter: u64) {
        let p = self.cfg.ranks;
        let m = self.m;
        // Commit + persist for every rank — an END crash means the whole
        // cluster completed this superstep's persists (checkpoints stay
        // coordinated).
        for r in 0..p {
            let sys = cl.system_mut(r);
            let Arrays { x, x_new } = self.arrays[r];
            map_span(sys, [x_new], x.slice(1, m), |_, [v]| v);
            self.mech.commit(sys, r, iter, None, |sys, slot| {
                map_span(sys, [x_new], slot, |_, [v]| v)
            });
        }
    }

    fn solution(&self, cl: &Cluster) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.cfg.shape.cells);
        for pos in 0..self.cfg.ranks {
            let r = self.cfg.grid.chain_rank(pos);
            self.arrays[r]
                .x
                .peek_into(cl.system(r), 1..self.m + 1, &mut out);
        }
        out
    }

    /// The full working iterate, halos included: `x_new` is fully
    /// overwritten by the next compute before any read, and the NVM slots
    /// and counters are pure functions of the committed iterates, so `x`
    /// alone pins the tail.
    fn resume_state(&self, cl: &Cluster) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.cfg.ranks * (self.m + 2));
        for r in 0..self.cfg.ranks {
            self.arrays[r]
                .x
                .peek_into(cl.system(r), 0..self.m + 2, &mut out);
        }
        out
    }

    fn mechanism(&mut self) -> &mut Mechanism {
        &mut self.mech
    }

    fn load_slot(&self, sys: &mut MemorySystem, rank: usize, slot: PArray<f64>) {
        map_span(
            sys,
            [slot],
            self.arrays[rank].x.slice(1, self.m),
            |_, [v]| v,
        );
    }

    /// The in-flight superstep's halos were exchanged at its start and
    /// wiped on the failed rank: neighbors re-send.
    fn reconstruct(&mut self, cl: &mut Cluster, rank: usize, assist: bool) {
        if assist {
            self.halo_assist(cl, rank);
        }
    }

    /// Only the fixed rod boundary — a constant of the program text, not
    /// recovered state — is re-set, inside the reboot's resume window.
    fn dirty_constants(&self, cl: &mut Cluster, rank: usize) {
        let sys = cl.system_mut(rank);
        let prev = sys.clock_mut().set_bucket(Bucket::Resume);
        self.set_rod_ends(sys, rank);
        sys.clock_mut().set_bucket(prev);
    }

    fn reinit(&self, sys: &mut MemorySystem, r: usize) {
        let pos = self.cfg.grid.chain_pos(r);
        self.arrays[r]
            .x
            .slice(1, self.m)
            .store_span(sys, |j| initial(pos * self.m + j));
    }
}

/// Serial host reference: same arithmetic, same element order, so the
/// distributed crash-free run matches it bitwise.
pub fn stencil_host(cells: usize, iters: u64) -> Vec<f64> {
    let mut x: Vec<f64> = (0..cells).map(initial).collect();
    let mut x_new = vec![0.0f64; cells];
    for _ in 0..iters {
        for j in 0..cells {
            let a = if j == 0 { LEFT_B } else { x[j - 1] };
            let b = x[j];
            let c = if j + 1 == cells { RIGHT_B } else { x[j + 1] };
            x_new[j] = b + K_DIFF * (a - 2.0 * b + c);
        }
        std::mem::swap(&mut x, &mut x_new);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridCfg;
    use crate::net::FaultProfile;
    use crate::preset::tests::{
        crash_at, node_loss_recovers_exactly, restart_costs_more_than_local, rod, run,
    };
    use crate::sites;
    use crate::trial::RecoveryMode;

    #[test]
    fn crash_free_run_matches_the_serial_host_bitwise() {
        let trial = run(
            rod(RecoveryMode::AlgorithmDirected),
            DistStencil::setup,
            &[],
        );
        assert!(trial.completed_clean);
        assert_eq!(trial.solution, stencil_host(64, 10));
    }

    #[test]
    fn local_recovery_reproduces_the_crash_free_solution() {
        let cfg = rod(RecoveryMode::AlgorithmDirected);
        let reference = run(cfg.clone(), DistStencil::setup, &[]).solution;
        for (rank, phase, iter) in [
            (1, sites::PH_MID, 4),
            (0, sites::PH_END, 7),
            (3, sites::PH_MID, 1),
        ] {
            let trial = run(
                cfg.clone(),
                DistStencil::setup,
                &[crash_at(rank, phase, iter)],
            );
            assert!(!trial.completed_clean);
            assert_eq!(
                trial.solution, reference,
                "rank {rank} phase {phase:#x} iter {iter}"
            );
            assert_eq!(trial.lost_units, 0, "algorithm-directed recovery is exact");
        }
    }

    #[test]
    fn global_restart_reproduces_the_solution_but_loses_work() {
        let cfg = rod(RecoveryMode::GlobalRestart);
        let reference = run(cfg.clone(), DistStencil::setup, &[]).solution;
        let trial = run(cfg, DistStencil::setup, &[crash_at(2, sites::PH_MID, 8)]);
        assert_eq!(trial.solution, reference);
        // Crash in superstep 8 (frontier 7), last checkpoint at 6: the
        // whole cluster re-executed superstep 7.
        assert_eq!(trial.lost_units, 4);
        assert!(!trial.detected);
    }

    #[test]
    fn boustrophedon_grid_run_matches_the_serial_host_bitwise() {
        // A 4x2 grid walks its ranks serpentine; the chunk ownership
        // reshuffles but the arithmetic (and thus the solution bits) is
        // the 1-D rod's exactly.
        let cfg = StencilConfig {
            ranks: 8,
            grid: GridCfg::grid(4, 2),
            ..rod(RecoveryMode::AlgorithmDirected)
        };
        let trial = run(cfg, DistStencil::setup, &[]);
        assert!(trial.completed_clean);
        assert_eq!(trial.solution, stencil_host(64, 10));
    }

    #[test]
    fn chaotic_fabric_perturbs_time_but_never_the_solution() {
        let cfg = StencilConfig {
            shape: Rod { cells: 64 },
            ..StencilConfig::campaign_for(RecoveryMode::AlgorithmDirected, FaultProfile::Chaotic)
        };
        assert_eq!(cfg.ranks, 16, "chaotic tier runs the 16-rank grid");
        let trial = run(cfg, DistStencil::setup, &[]);
        assert!(trial.completed_clean);
        assert_eq!(trial.solution, stencil_host(64, 10));
        let p = trial.profile.expect("telemetry on");
        assert!(p.net_dropped > 0 && p.net_retries > 0, "faults observed");
    }

    #[test]
    fn node_loss_recovers_exactly_from_the_remote_level() {
        node_loss_recovers_exactly(rod(RecoveryMode::AlgorithmDirected), DistStencil::setup);
    }

    #[test]
    fn restart_recovery_traffic_dwarfs_local_recovery_traffic() {
        restart_costs_more_than_local(rod, DistStencil::setup);
    }
}
