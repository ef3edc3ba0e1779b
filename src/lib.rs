//! # adcc — Algorithm-Directed Crash Consistence in NVM for HPC
//!
//! A from-scratch Rust reproduction of *Algorithm-Directed Crash
//! Consistence in Non-Volatile Memory for HPC* (Yang, Wu, Qiao, Li, Zhai —
//! IEEE CLUSTER 2017, arXiv:1705.05541).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`sim`] | crash emulator: data-tracking write-back cache hierarchy (pluggable LRU/FIFO/PLRU/random replacement), NVM timing model, CLFLUSH/CLFLUSHOPT/CLWB, epoch persist barriers, crash triggers, NVM images, opt-in persistency event recording |
//! | [`analyze`] | persist-order sanitizer + WITCHER-style triage: happens-before-persist checking over recorded event streams (unpersisted stores, missing fences, redundant flushes, ordering races), invariant inference from passing trials, root-cause clustering of failing crash states |
//! | [`pmem`] | PMDK-style persistent heap + undo/redo-log transactions (the paper's Intel-PMEM baseline) |
//! | [`ckpt`] | checkpoint/restart: double-buffered NVM slots, HDD model, page-incremental, two-level local+remote, diskless N+1 parity |
//! | [`linalg`] | CSR/SPD sparse and dense blocked linear algebra, native and simulated |
//! | [`core`] | the paper's contribution — algorithm-directed CG, ABFT-MM and MC — plus four extension kernels (Jacobi, BiCGSTAB, checksum-LU, heat stencil) |
//! | [`harness`] | platforms, the seven test cases, a runner per evaluation figure, extension tables, substrate ablations |
//! | [`campaign`] | deterministic, seedable crash-injection campaign engine: named scenario registries (`kernel`, `dist`, `ds` — selected with `--registry`), crash-point schedules, parallel fan-out, JSON reports, the `campaign` CLI |
//! | [`telemetry`] | crash-consistency cost accounting: flush/fence/log/network counters per execution, dirty-data residency at crash, consistency windows, the pluggable ADR/eADR `CostModel` |
//! | [`dist`] | deterministic multi-rank execution: per-rank crash emulators joined by a seedable message fabric, halo-exchange/allreduce kernels, rank-granular crash injection, algorithm-directed local recovery vs global checkpoint restart |
//! | [`resilience`] | EasyCrash-style dirty restarts: the five-class outcome ladder, per-scenario tolerance configuration, and the `natural_resilience` aggregate rolled into campaign reports |
//! | [`ds`] | persistent data-structure workloads: crash-consistent free-list allocator, detectably-recoverable MSC queue and open-addressing hash table (checkpoint + announce/complete primitives), seeded multi-client op streams, linearizable-replay recovery checks |
//!
//! ## Quick start
//!
//! ```
//! use adcc::prelude::*;
//!
//! // A small sparse SPD system on the paper's NVM-only platform.
//! let class = CgClass::TEST;
//! let a = class.matrix(1);
//! let b = class.rhs(&a);
//! let cfg = SystemConfig::nvm_only(32 << 10, 64 << 20);
//! let mut sys = MemorySystem::new(cfg.clone());
//!
//! // Extended CG (history arrays + one flushed line per iteration).
//! let (cg, rho0) = ExtendedCg::setup(&mut sys, &a, &b, 10);
//!
//! // Crash at the paper's site: after the p-update of iteration 8.
//! let trigger = CrashTrigger::AtSite {
//!     site: CrashSite::new(adcc::core::cg::sites::PH_LINE10, 7),
//!     occurrence: 1,
//! };
//! let mut emu = CrashEmulator::from_system(sys, trigger);
//! let image = cg.run(&mut emu, 0, 10, rho0).crashed().expect("crashed");
//!
//! // Algorithm-directed recovery: invariants find the restart point.
//! let recovery = cg.recover_and_resume(&image, cfg);
//! assert!(recovery.report.lost_units <= 8);
//! ```

pub use adcc_analyze as analyze;
pub use adcc_campaign as campaign;
pub use adcc_ckpt as ckpt;
pub use adcc_core as core;
pub use adcc_dist as dist;
pub use adcc_ds as ds;
pub use adcc_harness as harness;
pub use adcc_linalg as linalg;
pub use adcc_pmem as pmem;
pub use adcc_resilience as resilience;
pub use adcc_sim as sim;
pub use adcc_telemetry as telemetry;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use adcc_campaign::{run_campaign, CampaignConfig, CampaignReport, Outcome, Schedule};
    pub use adcc_ckpt::manager::CkptManager;
    pub use adcc_ckpt::{
        DisklessCheckpoint, IncrementalCheckpoint, MemCheckpoint, MultilevelCheckpoint, ParityNode,
        RemoteStore, RemoteTiming,
    };
    pub use adcc_core::abft::{OriginalAbft, TwoLoopAbft};
    pub use adcc_core::bicgstab::{bicgstab_host, ExtendedBiCgStab};
    pub use adcc_core::cg::{cg_host, CgRecovery, CgSolution, ExtendedCg, PlainCg};
    pub use adcc_core::jacobi::{jacobi_host, ExtendedJacobi, PlainJacobi};
    pub use adcc_core::lu::{dominant_matrix, lu_host, lu_reconstruct, ChecksumLu, LuBlockStatus};
    pub use adcc_core::mc::sim::{McMode, McSim};
    pub use adcc_core::mc::McProblem;
    pub use adcc_core::stencil::{heat_host, ExtendedStencil, PlainStencil};
    pub use adcc_core::RecoveryReport;
    pub use adcc_dist::{run_dist_trial, Cluster, ClusterConfig, NetTiming, RecoveryMode};
    pub use adcc_ds::{
        recover_verify_resume, OpStream, OpStreamCfg, Protection, Structure, Workload, WorkloadCfg,
    };
    pub use adcc_harness::{Case, Platform, Scale};
    pub use adcc_linalg::vecops::max_diff;
    pub use adcc_linalg::{CgClass, CsrMatrix, Matrix};
    pub use adcc_pmem::{LogStats, PersistentHeap, RedoPool, UndoPool};
    pub use adcc_resilience::{
        DirtyClass, DirtyClassCounts, DirtyTrial, NaturalResilience, Tolerance,
    };
    pub use adcc_sim::prelude::*;
    pub use adcc_telemetry::{
        adr_eadr_costs, AdrCost, CostModel, EadrCost, ExecutionProfile, Probe,
    };
}
