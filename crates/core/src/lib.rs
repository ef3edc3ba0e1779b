//! # adcc-core — algorithm-directed crash consistence
//!
//! The primary contribution of *Algorithm-Directed Crash Consistence in
//! Non-Volatile Memory for HPC* (CLUSTER 2017), reproduced in Rust over the
//! [`adcc_sim`] crash emulator.
//!
//! Instead of maintaining a consistent NVM state at runtime (checkpoints,
//! undo logs), the application is *slightly extended* so that, at recovery
//! time, **algorithm knowledge decides which data in NVM is consistent**:
//!
//! * [`cg`] — conjugate gradient with an iteration-history dimension on
//!   `p, q, r, z` and one flushed cache line per iteration; recovery scans
//!   backwards checking the invariants `p(i+1)ᵀ·q(i) = 0` and
//!   `r(i+1) = b − A·z(i+1)`.
//! * [`abft`] — checksum-encoded matrix multiplication restructured into a
//!   product loop and an addition loop over temporal matrices whose
//!   checksums are selectively flushed; recovery verifies (and sometimes
//!   corrects) blocks by their checksums and recomputes only the
//!   inconsistent ones.
//! * [`mc`] — Monte-Carlo transport (XSBench-like) where the interaction
//!   counters are selectively flushed every 0.01% of lookups; recovery
//!   restarts from the flushed loop index and replays.
//!
//! Every scheme also ships its plain application, and [`baseline`] runs it
//! natively, checkpointed and PMEM-transactional, so the paper's seven
//! test cases can be compared on identical workloads.
//!
//! ## Extensions beyond the paper (DESIGN.md §5a)
//!
//! The paper's recipe — *history dimension + sparse flushing + invariant
//! checking at recovery* — generalizes past its three case studies. Three
//! more kernels instantiate it:
//!
//! * [`jacobi`] — weighted Jacobi iteration, whose update equation
//!   `x(i+1) = x(i) + ω·D⁻¹·(b − A·x(i))` is directly checkable.
//! * [`bicgstab`] — BiCGSTAB for nonsymmetric systems: the residual
//!   identity plus a scalar-assisted direction-recurrence check (the
//!   iteration's three scalars are flushed as one line per iteration).
//! * [`lu`] — left-looking blocked LU with ABFT column checksums; each
//!   completed panel's `L`/`U` checksum invariants are flushed and verified
//!   at recovery, and only torn panels are refactored.
//! * [`stencil`] — a 2-D heat (5-point Jacobi) stencil over a ring of
//!   sweep buffers with per-row-block checksums flushed during the sweep;
//!   recovery restarts from the newest fully-verified sweep.

pub mod abft;
pub mod baseline;
pub mod bicgstab;
pub mod cg;
pub mod iterative;
pub mod jacobi;
pub mod lu;
pub mod mc;
pub mod stencil;
pub mod traits;

pub use traits::{DirtyRestart, RecoveryReport};
