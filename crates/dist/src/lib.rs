//! # adcc-dist — deterministic multi-rank execution with rank-granular
//! crash injection
//!
//! The paper targets HPC codes, whose resilience story is distributed:
//! EasyCrash and the NVM-persistence literature both frame NVM crash
//! consistency against the alternative of cluster-wide checkpoint/restart.
//! This crate opens that axis for the reproduction: a single-process,
//! fully deterministic cluster of per-rank [`adcc_sim`] memory systems
//! joined by a seedable message fabric, so crash campaigns can enumerate
//! *(rank, site)* crash points and compare two recovery philosophies
//! head-to-head on the same crash state:
//!
//! * **Global checkpoint restart** — every rank takes a coordinated
//!   per-iteration checkpoint via [`adcc_ckpt`]; a rank failure rolls the
//!   whole cluster back and re-executes (the classic C/R answer, with the
//!   classic cluster-wide cost).
//! * **Algorithm-directed local recovery** — each rank persists its
//!   naturally-consistent iterate (the paper's extended-algorithm idea,
//!   lifted to partitions); the failed rank rebuilds its partition from
//!   its own NVM residue plus neighbor-assisted halo/segment
//!   reconstruction while the survivors keep their volatile state.
//!
//! ## Determinism rules
//!
//! Everything is single-threaded and seeded, so a trial is a pure function
//! of its inputs:
//!
//! * Ranks are always stepped in rank order inside each superstep phase,
//!   and sends/recvs are issued in rank order — the fabric is FIFO per
//!   `(src, dst)` pair, so message matching is deterministic.
//! * Reductions sum contributions in rank order 0, 1, …, P-1; floating
//!   point results are bit-stable across reruns.
//! * Network latency jitter is drawn from an FNV hash of
//!   `(seed, src, dst, message-sequence)` — seeded, not random.
//! * Simulated network time (transfers, receive latency, barrier waits)
//!   is charged to the dedicated [`adcc_sim::clock::Bucket::Network`]
//!   bucket on each rank's own clock.
//!
//! ## Layout
//!
//! * [`net`] — [`net::NetTiming`] and the FIFO [`net::Fabric`] with
//!   traffic accounting.
//! * [`cluster`] — [`cluster::Cluster`]: N per-rank
//!   [`adcc_sim::crash::CrashEmulator`]s plus the fabric; `send_with`/`recv_with`,
//!   allreduce, barrier, rank crash + reboot-from-image.
//! * [`trial`] — the shared trial driver: run a kernel forward, inject the
//!   armed rank crash, hand it to the kernel's recovery, measure recovery
//!   traffic, roll per-rank telemetry into cluster totals. No persist code.
//! * [`persist`] — the one statement of both [`trial::RecoveryMode`]
//!   protocols: what a commit makes durable in which order, and how a
//!   failed rank (or a lost node) is brought back from it.
//! * [`stencil`] / [`jacobi`] / [`cg`] — the distributed kernels:
//!   halo-exchange 1-D heat, halo-exchange 2-D Jacobi, allreduce CG.
//!   Arithmetic, exchange/assist and copy loops only.

#![deny(missing_docs)]

pub mod cg;
pub mod cluster;
pub mod grid;
pub mod jacobi;
pub mod net;
pub mod persist;
pub mod stencil;
pub mod trial;

pub use cluster::{Cluster, ClusterConfig};
pub use net::{Fabric, NetTiming, NetTraffic};
pub use trial::{
    poll_phase, reference_run, run_dist_batch, run_dist_trial, run_superstep, BatchPasses,
    BatchPoint, BatchReplay, BatchStats, CrashInfo, DistKernel, DistTrial, FollowUp, Recovery,
    RecoveryMode, ReferenceRun,
};

/// Instrumented crash-site phases shared by every distributed kernel.
/// Each kernel polls twice per rank per superstep: after its local compute
/// (`PH_MID`, before any persistence of the superstep) and after its
/// persist step (`PH_END`).
pub mod sites {
    /// Poll after a rank's local compute, before the superstep's persists.
    pub const PH_MID: u32 = 0x9000;
    /// Poll after a rank's persist step for the superstep.
    pub const PH_END: u32 = 0x9001;
}
