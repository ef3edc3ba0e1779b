//! The run preset every distributed kernel shares: ranks, supersteps,
//! recovery mode, fabric and remote level around one problem [`Shape`].
//!
//! A kernel states only its problem (rod cells, plate rows × cols, SPD
//! dimension) plus the two numbers its cluster is sized by — a fabric
//! seed and the per-rank pools. The campaign tiers, the chaotic 16-rank
//! grid with its remote level and the cluster built from a config are
//! written here, once.

use adcc_ckpt::multilevel::RemoteTiming;
use adcc_sim::system::SystemConfig;

use crate::cluster::{Cluster, ClusterConfig, RankFailure};
use crate::grid::GridCfg;
use crate::net::{FaultProfile, NetTiming, FAULT_SEED_SALT};
use crate::persist::Mechanism;
use crate::trial::RecoveryMode;

/// A distributed kernel's problem, with what its campaign preset fixes.
pub trait Shape: Clone + std::fmt::Debug {
    /// The problem the campaign runs.
    const CAMPAIGN: Self;
    /// Fabric jitter seed of the campaign preset.
    const NET_SEED: u64;
    /// Per-rank NVM pool and DRAM capacity, bytes.
    const POOLS: (usize, usize);
}

/// Problem and mechanism parameters of one distributed run.
#[derive(Debug, Clone)]
pub struct DistConfig<P> {
    /// Number of ranks.
    pub ranks: usize,
    /// Supersteps.
    pub iters: u64,
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
    /// The kernel's problem.
    pub shape: P,
}

impl<P: Shape> DistConfig<P> {
    /// The campaign preset: 4 ranks (chain), 10 supersteps, the shape's
    /// campaign problem.
    pub fn campaign(mode: RecoveryMode) -> Self {
        DistConfig {
            ranks: 4,
            iters: 10,
            mode,
            ckpt_period: 3,
            net_seed: P::NET_SEED,
            grid: GridCfg::chain(4),
            faults: FaultProfile::Off,
            remote: None,
            shape: P::CAMPAIGN,
        }
    }

    /// The campaign preset for a fault profile: the chaotic tier moves to
    /// a 16-rank 4x4 grid with a remote checkpoint level (node-loss
    /// trials need it) on the same problem; the other tiers keep the
    /// 4-rank chain.
    pub fn campaign_for(mode: RecoveryMode, faults: FaultProfile) -> Self {
        match faults {
            FaultProfile::Chaotic => DistConfig {
                ranks: 16,
                grid: GridCfg::grid(4, 4),
                remote: Some(RemoteTiming::burst_buffer()),
                faults,
                ..DistConfig::campaign(mode)
            },
            _ => DistConfig {
                faults,
                ..DistConfig::campaign(mode)
            },
        }
    }

    /// A cold cluster for this config with `failures` armed, and the
    /// kernel `setup` puts on it.
    pub fn launch<K>(
        self,
        failures: &[RankFailure],
        setup: impl FnOnce(&mut Cluster, Self) -> K,
    ) -> (Cluster, K) {
        let mut cl = Cluster::new_multi(self.cluster(), failures);
        let kernel = setup(&mut cl, self);
        (cl, kernel)
    }

    /// The matching cluster configuration (per-rank pool sizes included).
    pub fn cluster(&self) -> ClusterConfig {
        let (nvm, dram) = P::POOLS;
        let mut sys = SystemConfig::nvm_only(16 << 10, nvm);
        sys.dram_capacity = dram;
        ClusterConfig {
            ranks: self.ranks,
            sys,
            net: NetTiming::cluster_2017(),
            net_seed: self.net_seed,
            faults: self.faults.plan(self.net_seed ^ FAULT_SEED_SALT),
        }
    }
}

impl<P> DistConfig<P> {
    /// The setup prologue of every kernel: check the config against the
    /// cluster it is set up on, and return its empty mechanism.
    pub(crate) fn mechanism(&self, cl: &Cluster) -> Mechanism {
        assert_eq!(cl.ranks(), self.ranks, "cluster/config rank mismatch");
        self.grid.validate(self.ranks);
        Mechanism::new(self.mode, self.ckpt_period, self.remote)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cg::{CgConfig, DistCg, Spd};
    use crate::jacobi::{DistJacobi, JacobiConfig, Plate};
    use crate::sites;
    use crate::stencil::{DistStencil, Rod, StencilConfig};
    use crate::trial::{run_dist_trial, run_superstep, DistKernel, DistTrial};
    use adcc_sim::clock::Bucket;
    use adcc_sim::crash::{CrashSite, CrashTrigger};
    use adcc_sim::events::EventRecorder;
    use adcc_sim::stats::MemStats;

    type Setup<P, K> = fn(&mut Cluster, DistConfig<P>) -> K;

    /// `shape` on the 4-rank campaign chain.
    fn small<P: Shape>(shape: P, mode: RecoveryMode) -> DistConfig<P> {
        DistConfig {
            shape,
            ..DistConfig::campaign(mode)
        }
    }

    /// The stencil's test problem: a 64-cell rod.
    pub(crate) fn rod(mode: RecoveryMode) -> StencilConfig {
        small(Rod { cells: 64 }, mode)
    }

    /// Jacobi's test problem: an 8x12 plate.
    pub(crate) fn plate(mode: RecoveryMode) -> JacobiConfig {
        small(Plate { rows: 8, cols: 12 }, mode)
    }

    /// CG's test problem: the campaign's SPD family at n = 48.
    pub(crate) fn spd(mode: RecoveryMode) -> CgConfig {
        small(
            Spd {
                n: 48,
                ..Spd::CAMPAIGN
            },
            mode,
        )
    }

    /// The first poll of `(phase, iter)`.
    fn at(phase: u32, iter: u64) -> CrashTrigger {
        CrashTrigger::AtSite {
            site: CrashSite::new(phase, iter),
            occurrence: 1,
        }
    }

    /// A fail-stop crash of `rank` at the first poll of `(phase, iter)`.
    pub(crate) fn crash_at(rank: usize, phase: u32, iter: u64) -> RankFailure {
        RankFailure::crash(rank, at(phase, iter))
    }

    /// Set `cfg` up on a cold cluster with `failures` armed and run it to
    /// the end, telemetry on.
    pub(crate) fn run<P: Shape, K: DistKernel>(
        cfg: DistConfig<P>,
        setup: Setup<P, K>,
        failures: &[RankFailure],
    ) -> DistTrial {
        let (mut cl, mut prog) = cfg.launch(failures, setup);
        run_dist_trial(&mut cl, &mut prog, true)
    }

    /// Node loss under AlgorithmDirected with a remote level: three
    /// `(rank, phase, iter)` sites each recover the crash-free solution
    /// from the remote payload, losing no work.
    pub(crate) fn node_loss_recovers_exactly<P: Shape, K: DistKernel>(
        cfg: DistConfig<P>,
        setup: Setup<P, K>,
    ) {
        let cfg = DistConfig {
            remote: Some(RemoteTiming::burst_buffer()),
            ..cfg
        };
        let reference = run(cfg.clone(), setup, &[]).solution;
        for (rank, phase, iter) in [
            (1, sites::PH_END, 7),
            (2, sites::PH_MID, 4),
            (2, sites::PH_END, 6),
        ] {
            let failure = RankFailure::node_loss(rank, at(phase, iter));
            let trial = run(cfg.clone(), setup, &[failure]);
            let case = format!("{:?} rank {rank} phase {phase:#x} iter {iter}", cfg.shape);
            assert!(!trial.completed_clean, "{case}");
            assert_eq!(trial.solution, reference, "{case}");
            assert_eq!(trial.lost_units, 0, "the remote ships every commit: {case}");
            assert!(
                trial.remote_restore_bytes > 0,
                "recovery pulled the remote payload: {case}"
            );
            let p = trial.profile.expect("telemetry on");
            assert_eq!(p.remote_restore_bytes, trial.remote_restore_bytes, "{case}");
        }
    }

    /// A mid-superstep crash at iteration 8 on rank 1 or 2: local
    /// recovery re-sends a neighbourhood's halos or segments and loses
    /// nothing; global restart rolls every rank back to the last
    /// checkpoint and re-executes, exchanges included.
    pub(crate) fn restart_costs_more_than_local<P: Shape, K: DistKernel>(
        config: fn(RecoveryMode) -> DistConfig<P>,
        setup: Setup<P, K>,
    ) {
        for rank in [1, 2] {
            let failure = [crash_at(rank, sites::PH_MID, 8)];
            let restart_cfg = config(RecoveryMode::GlobalRestart);
            let case = format!("{:?} rank {rank}", restart_cfg.shape);
            let local = run(config(RecoveryMode::AlgorithmDirected), setup, &failure);
            let restart = run(restart_cfg, setup, &failure);
            assert_eq!(local.lost_units, 0, "{case}");
            assert_eq!(
                restart.lost_units, 4,
                "frontier 7, checkpoint 6, 4 ranks: {case}"
            );
            assert!(!restart.detected, "{case}");
            assert!(local.recovery_net_bytes > 0, "neighbors assisted: {case}");
            assert!(
                restart.recovery_net_bytes > 2 * local.recovery_net_bytes,
                "restart {} !>> local {}: {case}",
                restart.recovery_net_bytes,
                local.recovery_net_bytes
            );
            let p = local.profile.expect("telemetry on");
            assert_eq!(p.recovery_net_bytes, local.recovery_net_bytes, "{case}");
            assert!(
                p.net_msgs > 0 && p.net_ps > 0,
                "forward fabric use measured: {case}"
            );
        }
    }

    /// What each rank's charges left that a later charge or verdict can
    /// see: the clock per bucket, the counters and the access count.
    fn charged(cl: &Cluster) -> Vec<([u64; Bucket::COUNT], MemStats, u64)> {
        (0..cl.ranks())
            .map(|r| {
                let sys = cl.system(r);
                (
                    sys.clock().bucket_totals(),
                    *sys.stats(),
                    sys.access_count(),
                )
            })
            .collect()
    }

    /// Set `config(mode)` up twice, one cluster with a recorder on every
    /// rank, so every span element there takes the element path; run two
    /// supersteps, crash rank 1 mid-superstep 3, recover, and resume one
    /// superstep. Both clusters must charge the same at every step. The
    /// rebooted rank comes back without a recorder, so it gets a new one
    /// for the resumed superstep.
    fn spans_charge_what_element_loops_charge<P: Shape, K: DistKernel>(
        config: fn(RecoveryMode) -> DistConfig<P>,
        setup: Setup<P, K>,
    ) {
        for mode in [RecoveryMode::AlgorithmDirected, RecoveryMode::GlobalRestart] {
            let failures = [crash_at(1, sites::PH_MID, 3)];
            let cfg = config(mode);
            let case = format!("{:?} {mode:?}", cfg.shape);
            let (mut spans, mut on_spans) = cfg.clone().launch(&failures, setup);
            let mut elems = Cluster::new_multi(cfg.cluster(), &failures);
            for r in 0..elems.ranks() {
                elems.system_mut(r).attach_recorder(EventRecorder::new());
            }
            let mut on_elems = setup(&mut elems, cfg);
            assert_eq!(charged(&spans), charged(&elems), "{case}: setup");
            for iter in 1..=2 {
                assert!(run_superstep(&mut on_spans, &mut spans, iter, true).is_none());
                assert!(run_superstep(&mut on_elems, &mut elems, iter, true).is_none());
                assert_eq!(charged(&spans), charged(&elems), "{case}: superstep {iter}");
            }
            let crash = run_superstep(&mut on_spans, &mut spans, 3, true).expect("armed");
            let same = run_superstep(&mut on_elems, &mut elems, 3, true).expect("armed");
            assert_eq!((crash.rank, crash.site), (same.rank, same.site), "{case}");
            assert_eq!(charged(&spans), charged(&elems), "{case}: crash");
            let a = on_spans.recover(&mut spans, crash);
            let b = on_elems.recover(&mut elems, same);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{case}: recovery");
            assert_eq!(charged(&spans), charged(&elems), "{case}: recovered");
            let bits = |cl: &Cluster, k: &K| -> Vec<u64> {
                k.resume_state(cl).iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&spans, &on_spans), bits(&elems, &on_elems), "{case}");
            elems.system_mut(1).attach_recorder(EventRecorder::new());
            for (cl, k) in [(&mut spans, &mut on_spans), (&mut elems, &mut on_elems)] {
                assert!(run_superstep(k, cl, a.resume_iter, a.resume_exchange).is_none());
            }
            assert_eq!(charged(&spans), charged(&elems), "{case}: resumed");
            assert_eq!(bits(&spans, &on_spans), bits(&elems, &on_elems), "{case}");
        }
    }

    #[test]
    fn every_kernel_charges_the_same_through_spans_and_element_loops() {
        spans_charge_what_element_loops_charge(rod, DistStencil::setup);
        spans_charge_what_element_loops_charge(plate, DistJacobi::setup);
        spans_charge_what_element_loops_charge(spd, DistCg::setup);
    }
}
