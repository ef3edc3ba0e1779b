//! # adcc-linalg — numeric substrates for the reproduction
//!
//! The paper's three applications need: a sparse symmetric positive
//! definite system for CG (NPB CG-like), dense matrices with blocked
//! multiplication for ABFT-MM, and vector primitives. Everything exists in
//! two forms:
//!
//! * **native** — plain sequential Rust over host slices (the ground
//!   truth), and
//! * **simulated** — the same math expressed over [`adcc_sim`] persistent
//!   arrays, so every element access goes through the crash emulator's
//!   cache hierarchy and timing model.

pub mod csr;
pub mod dense;
pub mod simops;
pub mod spd;
pub mod vecops;

pub use csr::CsrMatrix;
pub use dense::Matrix;
pub use simops::SimCsr;
pub use spd::{random_spd, CgClass};
