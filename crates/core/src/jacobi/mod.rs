//! Algorithm-directed crash consistence for the weighted Jacobi method
//! (an extension beyond the paper; DESIGN.md §5a).
//!
//! The paper demonstrates its recipe on CG; Jacobi is the natural second
//! iterative solver to instantiate it on, because its update
//!
//! ```text
//! x(i+1) = x(i) + ω · D⁻¹ · (b − A·x(i))
//! ```
//!
//! is itself a checkable invariant: given candidate NVM data for
//! iterations `j` and `j + 1`, recovery recomputes the right-hand side
//! from `x(j)` (one SpMV) and accepts `j` iff it reproduces `x(j+1)`.
//! The runtime extension is identical in spirit to the paper's CG scheme —
//! a history dimension on `x` plus one flushed cache line (the iteration
//! counter) per iteration.

use adcc_sim::parray::{map_span, PArray};
use adcc_sim::system::MemorySystem;

pub mod extended;
pub mod plain;
pub mod variants;

pub use extended::{ExtendedJacobi, JacobiRecovery};
pub use plain::{jacobi_host, PlainJacobi};

/// Damping factor used throughout (safe for strictly diagonally dominant
/// systems and matches the host reference arithmetic exactly).
pub const OMEGA: f64 = 0.8;

/// One weighted-Jacobi update, charged: `next[j] = x[j] + ω · dinv[j] ·
/// (b[j] − ax[j])` for every `j` of `[x, dinv, b, ax]`, each element's four
/// loads (in that order) then its store, paid per line. `next` may be `x`.
pub(crate) fn update(sys: &mut MemorySystem, ins: [PArray<f64>; 4], next: PArray<f64>) {
    map_span(sys, ins, next, |_, [x, d, b, ax]| x + OMEGA * d * (b - ax));
}

/// Crash-site phases for Jacobi (see [`adcc_sim::crash::CrashSite`]).
pub mod sites {
    /// After the `x(i+1)` update completes.
    pub const PH_AFTER_X: u32 = 30;
    /// End of one main-loop iteration.
    pub const PH_ITER_END: u32 = 31;
}
