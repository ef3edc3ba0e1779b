//! Algorithm-directed crash consistence for a 2-D heat-diffusion stencil
//! (an extension beyond the paper; DESIGN.md §5a).
//!
//! Structured-grid sweeps are the third great HPC kernel family after
//! solvers and dense kernels, and the paper's recipe maps onto them
//! cleanly by *combining* its two techniques:
//!
//! * like extended CG's iterate history, the sweep buffers keep several
//!   generations — here a **ring of `window >= 3`** — so no sweep
//!   overwrites its predecessor and old generations drift to NVM by
//!   normal eviction; and
//! * like the ABFT matrix multiplication, each **row block** gets a tiny
//!   checksum — `(sweep tag, block sum)` — computed while the block is
//!   swept and flushed immediately (a line per block), while the O(grid)
//!   payload is never flushed.
//!
//! The sweep tag matters: a slot reused from sweep `s − window` still has
//! matching *old* data + *old* checksum pairs in NVM, so a bare sum check
//! would accept a half-updated buffer. Tagging each checksum with its
//! sweep number makes stale blocks self-identifying.
//!
//! Recovery scans back from the crashed sweep for the newest generation
//! whose blocks all carry the right tag and reproduce their flushed sums,
//! then resumes from the following sweep.

use adcc_sim::parray::{map_span, PMatrix};
use adcc_sim::system::MemorySystem;

pub mod extended;
pub mod plain;
pub mod variants;

pub use extended::{ExtendedStencil, StencilRecovery};
pub use plain::{heat_host, PlainStencil};

/// Diffusion coefficient (stable for the 5-point explicit scheme).
pub const ALPHA: f64 = 0.2;

/// Deterministic initial condition: a hot gaussian bump off-center on a
/// cold plate, plus a warm west edge.
pub fn initial_value(rows: usize, cols: usize, r: usize, c: usize) -> f64 {
    let (rf, cf) = (r as f64 / rows as f64, c as f64 / cols as f64);
    let bump = 80.0 * (-((rf - 0.3).powi(2) + (cf - 0.6).powi(2)) / 0.02).exp();
    let edge = if c == 0 { 40.0 } else { 0.0 };
    bump + edge
}

/// Interior row `r` of one sweep, charged: `dst[r][c] = src[r][c] + α ·
/// (up + down + left + right − 4 · src[r][c])` for `c` in `1..cols − 1`,
/// each element's six loads (`src[r][c]`, its four neighbours, `src[r][c]`
/// again) then its store, in the element loop's order, paid per line. Each
/// new value is handed to `each`, in column order.
pub(crate) fn sweep_row(
    sys: &mut MemorySystem,
    src: PMatrix<f64>,
    dst: PMatrix<f64>,
    r: usize,
    mut each: impl FnMut(f64),
) {
    let inner = |m: PMatrix<f64>, r: usize, from: usize| m.row(r).slice(from, m.cols() - 2);
    let ins = [
        inner(src, r, 1),
        inner(src, r - 1, 1),
        inner(src, r + 1, 1),
        inner(src, r, 0),
        inner(src, r, 2),
        inner(src, r, 1),
    ];
    map_span(
        sys,
        ins,
        inner(dst, r, 1),
        |_, [here, up, down, left, right, centre]| {
            let v = here + ALPHA * (up + down + left + right - 4.0 * centre);
            each(v);
            v
        },
    );
}

/// Crash-site phases for the stencil (see [`adcc_sim::crash::CrashSite`]).
pub mod sites {
    /// After one row block of the current sweep completes.
    pub const PH_AFTER_BLOCK: u32 = 50;
    /// End of one sweep.
    pub const PH_SWEEP_END: u32 = 51;
}
