//! Distributed 2-D Jacobi (5-point Laplace smoothing): block
//! decomposition over a [`GridCfg`] process grid with edge-and-corner
//! halo exchange, under both recovery modes.
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

use adcc_ckpt::multilevel::RemoteTiming;
use adcc_sim::parray::PArray;
use adcc_sim::system::{MemorySystem, SystemConfig};

use crate::cluster::{Cluster, ClusterConfig};
use crate::grid::{Dir, GridCfg};
use crate::net::{FaultProfile, NetTiming};
use crate::persist::{Mechanism, Partition, Partitioned};
use crate::trial::{CrashInfo, DistKernel, Recovery, RecoveryMode};

/// Fixed boundary values: top, bottom, left, right.
const TOP_B: f64 = 1.0;
const BOT_B: f64 = 0.0;
const LEFT_B: f64 = 0.75;
const RIGHT_B: f64 = 0.25;

/// Problem and mechanism parameters.
#[derive(Debug, Clone)]
pub struct JacobiConfig {
    /// Number of ranks.
    pub ranks: usize,
    /// Supersteps.
    pub iters: u64,
    /// Interior rows (must divide evenly by the grid's `py`).
    pub rows: usize,
    /// Interior columns (must divide evenly by the grid's `px`).
    pub cols: usize,
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
    /// Remote checkpoint level for node-loss recovery.
    pub remote: Option<RemoteTiming>,
}

impl JacobiConfig {
    /// The campaign preset: 4 ranks (row stripes), 10 supersteps, 16×24.
    pub fn campaign(mode: RecoveryMode) -> Self {
        JacobiConfig {
            ranks: 4,
            iters: 10,
            rows: 16,
            cols: 24,
            mode,
            ckpt_period: 3,
            net_seed: 0xd157_0002,
            grid: GridCfg::chain(4),
            faults: FaultProfile::Off,
            remote: None,
        }
    }

    /// The campaign preset for a fault profile: the chaotic tier runs a
    /// 16-rank 4x4 block grid with a remote checkpoint level.
    pub fn campaign_for(mode: RecoveryMode, faults: FaultProfile) -> Self {
        match faults {
            FaultProfile::Chaotic => JacobiConfig {
                ranks: 16,
                grid: GridCfg::grid(4, 4),
                remote: Some(RemoteTiming::burst_buffer()),
                faults,
                ..JacobiConfig::campaign(mode)
            },
            _ => JacobiConfig {
                faults,
                ..JacobiConfig::campaign(mode)
            },
        }
    }

    /// The matching cluster configuration.
    pub fn cluster(&self) -> ClusterConfig {
        let mut sys = SystemConfig::nvm_only(16 << 10, 128 << 10);
        sys.dram_capacity = 512 << 10;
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

/// Deterministic initial interior value.
fn initial(global_row: usize, col: usize) -> f64 {
    ((global_row * 53 + col * 17 + 29) % 113) as f64 / 113.0
}

/// The distributed Jacobi program. Cloning copies only the handles and
/// host-side bookkeeping — batch replays clone the kernel alongside
/// [`Cluster::fork`].
#[derive(Clone)]
pub struct DistJacobi {
    cfg: JacobiConfig,
    /// Interior rows per block.
    rows_b: usize,
    /// Interior columns per block.
    cols_b: usize,
    /// Volatile working block, `(rows_b + 2) × (cols_b + 2)` row-major
    /// (halo ring: rows `0` / `rows_b + 1`, columns `0` / `cols_b + 1`).
    x: Vec<PArray<f64>>,
    /// Volatile next iterate, `rows_b × cols_b`.
    x_new: Vec<PArray<f64>>,
    /// How the blocks are made durable and brought back.
    mech: Mechanism,
}

impl DistJacobi {
    fn idx(&self, i: usize, j: usize) -> usize {
        i * (self.cols_b + 2) + j
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
        let x = self.x[r];
        cl.send_with(r, n, |sys, out| {
            out.extend((0..len).map(|k| x.get(sys, first + k * step)));
        });
    }

    /// Receive into rank `r`'s halo ring on side `d` from that neighbor,
    /// `n`.
    fn recv_halo(&self, cl: &mut Cluster, r: usize, d: Dir, n: usize) {
        let (first, step, len) = self.side(d, true);
        let x = self.x[r];
        cl.recv_with(n, r, |sys, vals| {
            debug_assert_eq!(vals.len(), len);
            for (k, &v) in vals.iter().enumerate() {
                x.set(sys, first + k * step, v);
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
        if c == 0 {
            for i in 0..rb + 2 {
                self.x[r].set(sys, self.idx(i, 0), LEFT_B);
            }
        }
        if c == px - 1 {
            for i in 0..rb + 2 {
                self.x[r].set(sys, self.idx(i, cb + 1), RIGHT_B);
            }
        }
        let (j0, j1) = (
            if c == 0 { 1 } else { 0 },
            if c == px - 1 { cb } else { cb + 1 },
        );
        if rw == 0 {
            for j in j0..=j1 {
                self.x[r].set(sys, self.idx(0, j), TOP_B);
            }
        }
        if rw == py - 1 {
            for j in j0..=j1 {
                self.x[r].set(sys, self.idx(rb + 1, j), BOT_B);
            }
        }
    }

    /// Allocate and initialize the program on a fresh cluster.
    pub fn setup(cl: &mut Cluster, cfg: JacobiConfig) -> Self {
        assert_eq!(cl.ranks(), cfg.ranks, "cluster/config rank mismatch");
        cfg.grid.validate(cfg.ranks);
        assert!(
            cfg.rows.is_multiple_of(cfg.grid.py),
            "rows must split evenly over grid rows"
        );
        assert!(
            cfg.cols.is_multiple_of(cfg.grid.px),
            "cols must split evenly over grid columns"
        );
        let rows_b = cfg.rows / cfg.grid.py;
        let cols_b = cfg.cols / cfg.grid.px;
        let mut prog = DistJacobi {
            rows_b,
            cols_b,
            x: Vec::new(),
            x_new: Vec::new(),
            mech: Mechanism::new(cfg.mode, cfg.ckpt_period, cfg.remote),
            cfg,
        };
        for r in 0..prog.cfg.ranks {
            let sys = cl.system_mut(r);
            let x = PArray::<f64>::alloc_dram(sys, (rows_b + 2) * (cols_b + 2));
            let x_new = PArray::<f64>::alloc_dram(sys, rows_b * cols_b);
            prog.x.push(x);
            prog.x_new.push(x_new);
            prog.reinit(sys, r);
            prog.set_boundaries(cl, r);
            let part = Partition {
                slot_len: rows_b * cols_b,
                volatile: &[(x.base(), x.byte_len())],
                statics: &[],
                scalar: None,
            };
            let width = cols_b + 2;
            prog.mech.add_rank(cl.system_mut(r), part, |sys, slot| {
                for i in 0..rows_b {
                    for j in 0..cols_b {
                        let v = x.get(sys, (i + 1) * width + j + 1);
                        slot.set(sys, i * cols_b + j, v);
                    }
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

impl Partitioned for DistJacobi {
    fn mechanism(&mut self) -> &mut Mechanism {
        &mut self.mech
    }

    fn load_slot(&self, sys: &mut MemorySystem, rank: usize, slot: PArray<f64>) {
        for i in 0..self.rows_b {
            for j in 0..self.cols_b {
                let v = slot.get(sys, i * self.cols_b + j);
                self.x[rank].set(sys, self.idx(i + 1, j + 1), v);
            }
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
        for i in 0..self.rows_b {
            for j in 0..self.cols_b {
                self.x[r].set(
                    sys,
                    self.idx(i + 1, j + 1),
                    initial(rw * self.rows_b + i, c * self.cols_b + j),
                );
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
            for i in 1..=rb {
                for j in 1..=cb {
                    let up = self.x[r].get(sys, self.idx(i - 1, j));
                    let down = self.x[r].get(sys, self.idx(i + 1, j));
                    let left = self.x[r].get(sys, self.idx(i, j - 1));
                    let right = self.x[r].get(sys, self.idx(i, j + 1));
                    sys.charge_flops(4);
                    self.x_new[r].set(
                        sys,
                        (i - 1) * cb + (j - 1),
                        0.25 * (up + down + left + right),
                    );
                }
            }
        }
    }

    fn commit(&mut self, cl: &mut Cluster, iter: u64) {
        let p = self.cfg.ranks;
        let (rb, cb) = (self.rows_b, self.cols_b);
        for r in 0..p {
            let sys = cl.system_mut(r);
            for i in 0..rb {
                for j in 0..cb {
                    let v = self.x_new[r].get(sys, i * cb + j);
                    self.x[r].set(sys, self.idx(i + 1, j + 1), v);
                }
            }
            let x_new = self.x_new[r];
            self.mech.commit(sys, r, iter, None, |sys, slot| {
                for k in 0..rb * cb {
                    let v = x_new.get(sys, k);
                    slot.set(sys, k, v);
                }
            });
        }
    }

    fn recover(&mut self, cl: &mut Cluster, crash: CrashInfo) -> Recovery {
        crate::persist::recover(self, cl, crash)
    }

    fn solution(&self, cl: &Cluster) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.cfg.rows * self.cfg.cols);
        for gi in 0..self.cfg.rows {
            for gj in 0..self.cfg.cols {
                let r = self.cfg.grid.rank_at(gj / self.cols_b, gi / self.rows_b);
                let sys = cl.system(r);
                out.push(self.x[r].peek(sys, self.idx(gi % self.rows_b + 1, gj % self.cols_b + 1)));
            }
        }
        out
    }

    fn dirty_reboot(&mut self, cl: &mut Cluster, crash: &CrashInfo) -> u64 {
        crate::persist::dirty_reboot(self, cl, crash)
    }

    /// The full working block, halo ring included: `x_new` is fully
    /// overwritten by the next compute before any read, so `x` alone pins
    /// the tail.
    fn resume_state(&self, cl: &Cluster) -> Vec<f64> {
        let cells = (self.rows_b + 2) * (self.cols_b + 2);
        let mut out = Vec::with_capacity(self.cfg.ranks * cells);
        for r in 0..self.cfg.ranks {
            let sys = cl.system(r);
            for k in 0..cells {
                out.push(self.x[r].peek(sys, k));
            }
        }
        out
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
    use crate::sites;
    use crate::trial::run_dist_trial;
    use adcc_sim::crash::{CrashSite, CrashTrigger};

    fn run(crash: Option<(usize, CrashTrigger)>, mode: RecoveryMode) -> crate::trial::DistTrial {
        let cfg = JacobiConfig {
            rows: 8,
            cols: 12,
            ..JacobiConfig::campaign(mode)
        };
        let mut cl = Cluster::new(cfg.cluster(), crash);
        let mut prog = DistJacobi::setup(&mut cl, cfg);
        run_dist_trial(&mut cl, &mut prog, true)
    }

    fn run_grid(
        crash: Option<(usize, CrashTrigger)>,
        mode: RecoveryMode,
    ) -> crate::trial::DistTrial {
        let cfg = JacobiConfig {
            rows: 8,
            cols: 12,
            grid: GridCfg::grid(2, 2),
            ..JacobiConfig::campaign(mode)
        };
        let mut cl = Cluster::new(cfg.cluster(), crash);
        let mut prog = DistJacobi::setup(&mut cl, cfg);
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
        let trial = run(None, RecoveryMode::GlobalRestart);
        assert!(trial.completed_clean);
        assert_eq!(trial.solution, jacobi_host(8, 12, 10));
    }

    #[test]
    fn two_d_block_grid_matches_the_serial_host_bitwise() {
        // A 2x2 block grid exchanges edges *and* corners; the update
        // arithmetic is unchanged, so the solution bits are the striped
        // run's exactly.
        let trial = run_grid(None, RecoveryMode::AlgorithmDirected);
        assert!(trial.completed_clean);
        assert_eq!(trial.solution, jacobi_host(8, 12, 10));
    }

    #[test]
    fn two_d_block_recovery_reproduces_the_crash_free_solution() {
        let reference = jacobi_host(8, 12, 10);
        for mode in [RecoveryMode::AlgorithmDirected, RecoveryMode::GlobalRestart] {
            // Rank 3 is the interior-corner block (1,1) of the 2x2 grid.
            for (rank, phase, iter) in [(3, sites::PH_MID, 5), (0, sites::PH_END, 9)] {
                let trial = run_grid(Some((rank, site_trigger(phase, iter))), mode);
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
        let mut cl = Cluster::new(cfg.cluster(), None);
        let mut prog = DistJacobi::setup(&mut cl, cfg);
        let trial = run_dist_trial(&mut cl, &mut prog, true);
        assert!(trial.completed_clean);
        assert_eq!(trial.solution, jacobi_host(16, 24, 10));
        let p = trial.profile.expect("telemetry on");
        assert!(p.net_dropped > 0, "chaotic profile observed");
    }

    #[test]
    fn node_loss_recovers_exactly_from_the_remote_level() {
        use crate::cluster::RankFailure;
        let cfg = JacobiConfig {
            rows: 8,
            cols: 12,
            grid: GridCfg::grid(2, 2),
            remote: Some(RemoteTiming::burst_buffer()),
            ..JacobiConfig::campaign(RecoveryMode::AlgorithmDirected)
        };
        let reference = jacobi_host(8, 12, 10);
        let failure = RankFailure::node_loss(2, site_trigger(sites::PH_END, 6));
        let mut cl = Cluster::new_multi(cfg.cluster(), &[failure]);
        let mut prog = DistJacobi::setup(&mut cl, cfg);
        let trial = run_dist_trial(&mut cl, &mut prog, true);
        assert!(!trial.completed_clean);
        assert_eq!(trial.solution, reference);
        assert_eq!(trial.lost_units, 0);
        assert!(trial.remote_restore_bytes > 0);
    }

    #[test]
    fn access_count_triggers_land_on_poll_boundaries_and_recover() {
        let reference = jacobi_host(8, 12, 10);
        // A crash-free run of this size issues ~2.6k accesses per rank.
        let trial = run(
            Some((2, CrashTrigger::AtAccessCount(1_500))),
            RecoveryMode::AlgorithmDirected,
        );
        assert!(!trial.completed_clean, "threshold lands inside the run");
        assert_eq!(trial.solution, reference);
    }

    #[test]
    fn restart_loses_cluster_wide_work_and_more_traffic() {
        let local = run(
            Some((2, site_trigger(sites::PH_MID, 8))),
            RecoveryMode::AlgorithmDirected,
        );
        let restart = run(
            Some((2, site_trigger(sites::PH_MID, 8))),
            RecoveryMode::GlobalRestart,
        );
        assert_eq!(local.lost_units, 0);
        assert_eq!(restart.lost_units, 4, "frontier 7, checkpoint 6, 4 ranks");
        assert!(restart.recovery_net_bytes > local.recovery_net_bytes);
    }
}
