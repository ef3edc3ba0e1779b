//! Distributed 1-D heat stencil: block decomposition with one-cell halo
//! exchange, under both recovery modes.
//!
//! A rod of `cells` points is split into `ranks` equal chunks, owned in
//! **boustrophedon chain order** over the process grid
//! ([`GridCfg::chain_pos`]): on a 1-column grid this is the seed's rank
//! ordering exactly, and on a 2-D grid every chain hop is still a
//! physical grid edge. Every superstep each rank updates its chunk from
//! its own cells plus one halo cell per side (received from the chain
//! neighbors at the superstep's opening exchange), then hands the new
//! iterate to its [`Mechanism`] (see [`crate::persist`] for the two
//! protocols):
//!
//! * **AlgorithmDirected** — recovery rebuilds the failed rank's
//!   partition from its own NVM residue (or, after a whole-node loss, the
//!   remote level); the neighbors re-send the one halo cell each that the
//!   crash wiped.
//! * **GlobalRestart** — recovery rolls the whole cluster back to the
//!   last coordinated checkpoint and re-executes every lost superstep,
//!   halo exchanges included.

use adcc_ckpt::multilevel::RemoteTiming;
use adcc_sim::clock::Bucket;
use adcc_sim::parray::PArray;
use adcc_sim::system::{MemorySystem, SystemConfig};

use crate::cluster::{Cluster, ClusterConfig};
use crate::grid::GridCfg;
use crate::net::{FaultProfile, NetTiming};
use crate::persist::{Mechanism, Partition, Partitioned};
use crate::trial::{CrashInfo, DistKernel, Recovery, RecoveryMode};

/// Fixed boundary value at the left end of the rod.
const LEFT_B: f64 = 1.0;
/// Fixed boundary value at the right end of the rod.
const RIGHT_B: f64 = 0.0;
/// Diffusion coefficient (stable for the 3-point explicit scheme).
const K_DIFF: f64 = 0.1;

/// Problem and mechanism parameters.
#[derive(Debug, Clone)]
pub struct StencilConfig {
    /// Number of ranks.
    pub ranks: usize,
    /// Supersteps.
    pub iters: u64,
    /// Rod cells (must divide evenly by `ranks`).
    pub cells: usize,
    /// Persistence mechanism and recovery mode.
    pub mode: RecoveryMode,
    /// Checkpoint period of the GlobalRestart mechanism, in supersteps.
    pub ckpt_period: u64,
    /// Fabric jitter seed.
    pub net_seed: u64,
    /// Process-grid topology (must cover exactly `ranks`).
    pub grid: GridCfg,
    /// Fabric fault profile injected under the reliable transport.
    pub faults: FaultProfile,
    /// Remote checkpoint level for node-loss recovery (AlgorithmDirected
    /// ships its slots + counter off-node every commit when set).
    pub remote: Option<RemoteTiming>,
}

impl StencilConfig {
    /// The campaign preset: 4 ranks (chain), 10 supersteps, 256 cells.
    pub fn campaign(mode: RecoveryMode) -> Self {
        StencilConfig {
            ranks: 4,
            iters: 10,
            cells: 256,
            mode,
            ckpt_period: 3,
            net_seed: 0xd157,
            grid: GridCfg::chain(4),
            faults: FaultProfile::Off,
            remote: None,
        }
    }

    /// The campaign preset for a fault profile: the chaotic tier moves to
    /// a 16-rank 4x4 grid with a remote checkpoint level (node-loss
    /// trials need it); the other tiers keep the 4-rank chain.
    pub fn campaign_for(mode: RecoveryMode, faults: FaultProfile) -> Self {
        match faults {
            FaultProfile::Chaotic => StencilConfig {
                ranks: 16,
                grid: GridCfg::grid(4, 4),
                remote: Some(RemoteTiming::burst_buffer()),
                faults,
                ..StencilConfig::campaign(mode)
            },
            _ => StencilConfig {
                faults,
                ..StencilConfig::campaign(mode)
            },
        }
    }

    /// The matching cluster configuration (per-rank pool sizes included).
    pub fn cluster(&self) -> ClusterConfig {
        let mut sys = SystemConfig::nvm_only(16 << 10, 64 << 10);
        sys.dram_capacity = 256 << 10;
        ClusterConfig {
            ranks: self.ranks,
            sys,
            net: NetTiming::cluster_2017(),
            net_seed: self.net_seed,
            faults: self
                .faults
                .plan(self.net_seed ^ crate::net::FAULT_SEED_SALT),
        }
    }
}

/// Deterministic initial temperature profile.
fn initial(global_cell: usize) -> f64 {
    ((global_cell * 37 + 11) % 101) as f64 / 101.0
}

/// The distributed stencil program (handles survive rank crashes; all
/// per-rank state lives in the cluster's simulated memories). Cloning
/// copies only the handles and host-side bookkeeping — batch replays
/// clone the kernel alongside [`Cluster::fork`].
#[derive(Clone)]
pub struct DistStencil {
    cfg: StencilConfig,
    /// Cells per rank.
    m: usize,
    /// Volatile working iterate, `m + 2` cells (halo at `0` and `m + 1`).
    x: Vec<PArray<f64>>,
    /// Volatile next iterate, `m` cells.
    x_new: Vec<PArray<f64>>,
    /// How the partitions are made durable and brought back.
    mech: Mechanism,
}

impl DistStencil {
    /// Allocate and initialize the program on a fresh cluster: seed the
    /// initial profile, persist iterate 0 (AlgorithmDirected) or take the
    /// setup checkpoint (GlobalRestart).
    pub fn setup(cl: &mut Cluster, cfg: StencilConfig) -> Self {
        assert!(
            cfg.cells.is_multiple_of(cfg.ranks),
            "cells must split evenly"
        );
        assert_eq!(cl.ranks(), cfg.ranks, "cluster/config rank mismatch");
        cfg.grid.validate(cfg.ranks);
        let m = cfg.cells / cfg.ranks;
        let mut prog = DistStencil {
            m,
            x: Vec::new(),
            x_new: Vec::new(),
            mech: Mechanism::new(cfg.mode, cfg.ckpt_period, cfg.remote),
            cfg,
        };
        for r in 0..prog.cfg.ranks {
            let sys = cl.system_mut(r);
            let x = PArray::<f64>::alloc_dram(sys, m + 2);
            let x_new = PArray::<f64>::alloc_dram(sys, m);
            prog.x.push(x);
            prog.x_new.push(x_new);
            prog.reinit(sys, r);
            prog.set_rod_ends(sys, r);
            let part = Partition {
                slot_len: m,
                volatile: &[(x.addr(1), m * 8)],
                statics: &[],
                scalar: None,
            };
            prog.mech.add_rank(sys, part, |sys, slot| {
                for j in 0..m {
                    let v = x.get(sys, j + 1);
                    slot.set(sys, j, v);
                }
            });
        }
        prog
    }

    /// Set `r`'s two halo cells to what the program text fixes them at:
    /// the rod's boundary values on the chain's end ranks, zero elsewhere
    /// (refilled by the next exchange).
    fn set_rod_ends(&self, sys: &mut MemorySystem, r: usize) {
        let pos = self.cfg.grid.chain_pos(r);
        self.x[r].set(sys, 0, if pos == 0 { LEFT_B } else { 0.0 });
        let right = if pos == self.cfg.ranks - 1 {
            RIGHT_B
        } else {
            0.0
        };
        self.x[r].set(sys, self.m + 1, right);
    }

    /// Exchange boundary cells into the chain neighbors' halos (fixed rod
    /// boundaries on the chain's end ranks), rank order, then synchronize.
    fn exchange(&mut self, cl: &mut Cluster) {
        let p = self.cfg.ranks;
        let m = self.m;
        for r in 0..p {
            let sys = cl.system_mut(r);
            let left = self.x[r].get(sys, 1);
            let right = self.x[r].get(sys, m);
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
                self.x[r].set(cl.system_mut(r), 0, v);
            } else {
                self.x[r].set(cl.system_mut(r), 0, LEFT_B);
            }
            if let Some(next) = self.cfg.grid.chain_next(r) {
                let v = cl.recv_with(next, r, |_, v| v[0]);
                self.x[r].set(cl.system_mut(r), m + 1, v);
            } else {
                self.x[r].set(cl.system_mut(r), m + 1, RIGHT_B);
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
            let v = self.x[prev].get(sys, m);
            cl.send_with(prev, rank, |_, out| out.push(v));
            let v = cl.recv_with(prev, rank, |_, v| v[0]);
            self.x[rank].set(cl.system_mut(rank), 0, v);
        } else {
            self.x[rank].set(cl.system_mut(rank), 0, LEFT_B);
        }
        if let Some(next) = self.cfg.grid.chain_next(rank) {
            let sys = cl.system_mut(next);
            let v = self.x[next].get(sys, 1);
            cl.send_with(next, rank, |_, out| out.push(v));
            let v = cl.recv_with(next, rank, |_, v| v[0]);
            self.x[rank].set(cl.system_mut(rank), m + 1, v);
        } else {
            self.x[rank].set(cl.system_mut(rank), m + 1, RIGHT_B);
        }
    }
}

impl Partitioned for DistStencil {
    fn mechanism(&mut self) -> &mut Mechanism {
        &mut self.mech
    }

    fn load_slot(&self, sys: &mut MemorySystem, rank: usize, slot: PArray<f64>) {
        for j in 0..self.m {
            let v = slot.get(sys, j);
            self.x[rank].set(sys, j + 1, v);
        }
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
        for j in 0..self.m {
            self.x[r].set(sys, j + 1, initial(pos * self.m + j));
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
            for j in 1..=m {
                let a = self.x[r].get(sys, j - 1);
                let b = self.x[r].get(sys, j);
                let c = self.x[r].get(sys, j + 1);
                sys.charge_flops(4);
                self.x_new[r].set(sys, j - 1, b + K_DIFF * (a - 2.0 * b + c));
            }
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
            for j in 0..m {
                let v = self.x_new[r].get(sys, j);
                self.x[r].set(sys, j + 1, v);
            }
            let x_new = self.x_new[r];
            self.mech.commit(sys, r, iter, None, |sys, slot| {
                for j in 0..m {
                    let v = x_new.get(sys, j);
                    slot.set(sys, j, v);
                }
            });
        }
    }

    fn recover(&mut self, cl: &mut Cluster, crash: CrashInfo) -> Recovery {
        crate::persist::recover(self, cl, crash)
    }

    fn solution(&self, cl: &Cluster) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.cfg.cells);
        for pos in 0..self.cfg.ranks {
            let r = self.cfg.grid.chain_rank(pos);
            self.x[r].peek_into(cl.system(r), 1..self.m + 1, &mut out);
        }
        out
    }

    fn dirty_reboot(&mut self, cl: &mut Cluster, crash: &CrashInfo) -> u64 {
        crate::persist::dirty_reboot(self, cl, crash)
    }

    /// The full working iterate, halos included: `x_new` is fully
    /// overwritten by the next compute before any read, and the NVM slots
    /// and counters are pure functions of the committed iterates, so `x`
    /// alone pins the tail.
    fn resume_state(&self, cl: &Cluster) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.cfg.ranks * (self.m + 2));
        for r in 0..self.cfg.ranks {
            self.x[r].peek_into(cl.system(r), 0..self.m + 2, &mut out);
        }
        out
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
    use crate::sites;
    use crate::trial::run_dist_trial;
    use adcc_sim::crash::{CrashSite, CrashTrigger};

    fn run(crash: Option<(usize, CrashTrigger)>, mode: RecoveryMode) -> crate::trial::DistTrial {
        let cfg = StencilConfig {
            cells: 64,
            ..StencilConfig::campaign(mode)
        };
        let mut cl = Cluster::new(cfg.cluster(), crash);
        let mut prog = DistStencil::setup(&mut cl, cfg);
        run_dist_trial(&mut cl, &mut prog, true)
    }

    fn site_trigger(phase: u32, iter: u64) -> CrashTrigger {
        CrashTrigger::AtSite {
            site: CrashSite::new(phase, iter),
            occurrence: 1,
        }
    }

    #[test]
    fn crash_free_run_matches_the_serial_host_bitwise() {
        let trial = run(None, RecoveryMode::AlgorithmDirected);
        assert!(trial.completed_clean);
        assert_eq!(trial.solution, stencil_host(64, 10));
    }

    #[test]
    fn local_recovery_reproduces_the_crash_free_solution() {
        let reference = run(None, RecoveryMode::AlgorithmDirected).solution;
        for (rank, phase, iter) in [
            (1, sites::PH_MID, 4),
            (0, sites::PH_END, 7),
            (3, sites::PH_MID, 1),
        ] {
            let trial = run(
                Some((rank, site_trigger(phase, iter))),
                RecoveryMode::AlgorithmDirected,
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
        let reference = run(None, RecoveryMode::GlobalRestart).solution;
        let trial = run(
            Some((2, site_trigger(sites::PH_MID, 8))),
            RecoveryMode::GlobalRestart,
        );
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
            cells: 64,
            grid: GridCfg::grid(4, 2),
            ..StencilConfig::campaign(RecoveryMode::AlgorithmDirected)
        };
        let mut cl = Cluster::new(cfg.cluster(), None);
        let mut prog = DistStencil::setup(&mut cl, cfg);
        let trial = run_dist_trial(&mut cl, &mut prog, false);
        assert!(trial.completed_clean);
        assert_eq!(trial.solution, stencil_host(64, 10));
    }

    #[test]
    fn chaotic_fabric_perturbs_time_but_never_the_solution() {
        let cfg = StencilConfig {
            cells: 64,
            ..StencilConfig::campaign_for(RecoveryMode::AlgorithmDirected, FaultProfile::Chaotic)
        };
        assert_eq!(cfg.ranks, 16, "chaotic tier runs the 16-rank grid");
        let mut cl = Cluster::new(cfg.cluster(), None);
        let mut prog = DistStencil::setup(&mut cl, cfg);
        let trial = run_dist_trial(&mut cl, &mut prog, true);
        assert!(trial.completed_clean);
        assert_eq!(trial.solution, stencil_host(64, 10));
        let p = trial.profile.expect("telemetry on");
        assert!(p.net_dropped > 0 && p.net_retries > 0, "faults observed");
    }

    #[test]
    fn node_loss_recovers_exactly_from_the_remote_level() {
        use crate::cluster::RankFailure;
        let cfg = StencilConfig {
            cells: 64,
            remote: Some(adcc_ckpt::multilevel::RemoteTiming::burst_buffer()),
            ..StencilConfig::campaign(RecoveryMode::AlgorithmDirected)
        };
        let reference = stencil_host(64, 10);
        for (rank, phase, iter) in [(1, sites::PH_END, 7), (2, sites::PH_MID, 4)] {
            let failure = RankFailure::node_loss(rank, site_trigger(phase, iter));
            let mut cl = Cluster::new_multi(cfg.cluster(), &[failure]);
            let mut prog = DistStencil::setup(&mut cl, cfg.clone());
            let trial = run_dist_trial(&mut cl, &mut prog, true);
            assert!(!trial.completed_clean);
            assert_eq!(trial.solution, reference, "rank {rank} iter {iter}");
            assert_eq!(trial.lost_units, 0, "the remote ships every commit");
            assert!(
                trial.remote_restore_bytes > 0,
                "recovery pulled the remote payload"
            );
            let p = trial.profile.expect("telemetry on");
            assert_eq!(p.remote_restore_bytes, trial.remote_restore_bytes);
        }
    }

    #[test]
    fn restart_recovery_traffic_dwarfs_local_recovery_traffic() {
        let local = run(
            Some((1, site_trigger(sites::PH_MID, 8))),
            RecoveryMode::AlgorithmDirected,
        );
        let restart = run(
            Some((1, site_trigger(sites::PH_MID, 8))),
            RecoveryMode::GlobalRestart,
        );
        assert!(local.recovery_net_bytes > 0, "neighbors assisted");
        assert!(
            restart.recovery_net_bytes > 2 * local.recovery_net_bytes,
            "restart {} !>> local {}",
            restart.recovery_net_bytes,
            local.recovery_net_bytes
        );
        let p = local.profile.expect("telemetry on");
        assert_eq!(p.recovery_net_bytes, local.recovery_net_bytes);
        assert!(
            p.net_msgs > 0 && p.net_ps > 0,
            "forward fabric use measured"
        );
    }
}
