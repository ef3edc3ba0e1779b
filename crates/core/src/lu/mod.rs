//! Algorithm-directed crash consistence for LU factorization (an
//! extension beyond the paper; DESIGN.md §5a).
//!
//! The paper instantiates its ABFT-based scheme on matrix multiplication;
//! LU factorization is the classic second ABFT kernel (Davies & Chen,
//! HPDC'13 \[17\]; Du et al., PPoPP'12 \[18\]). The crash-consistence recipe
//! carries over with one structural change: the factorization is organized
//! **left-looking** over column blocks, so each block of the factor matrix
//! is written exactly once and previously completed blocks are read-only —
//! the same write-once discipline the paper builds for MM with its
//! temporal matrices (Fig. 6).
//!
//! ## Invariants
//!
//! The input is augmented with a column-checksum row: `Af = [A; vᵀA]`
//! (`v = 1`). Processing the checksum row like any other below-diagonal
//! row maintains, for every **completed** column `j` of the factor `F`
//! (`L` below the diagonal, `U` on/above):
//!
//! ```text
//! F[n][j]  =  (vᵀ·L)[j]  =  1 + Σ_{i>j} F[i][j]        (L checksum, ABFT)
//! csU[j]   =  Σ_{i<=j} F[i][j]                          (U digest)
//! ```
//!
//! The L checksum is maintained *through the arithmetic* (true ABFT); the
//! U digest is computed when the column completes. Both are flushed at
//! block completion — a few cache lines per block, the paper's "sparse
//! flushing" budget — while the O(n·k) block payload is left to normal
//! cache eviction.
//!
//! ## Recovery
//!
//! The flushed block counter names the in-flight block. Every claimed-
//! complete block is verified column-by-column against the two flushed
//! checksums; stale blocks (lines still in cache at the crash) fail and
//! are refactored **in ascending order**, which is sound because a
//! left-looking block depends only on earlier blocks. Typical loss is the
//! in-flight block plus however many recent blocks still had dirty lines
//! cached — the LU analogue of the paper's Fig. 7.

pub mod checksum_lu;
pub mod host;
pub mod variants;

pub use checksum_lu::{ChecksumLu, LuBlockStatus, LuRecovery, LuResumed};
pub use host::{dominant_matrix, lu_host, lu_reconstruct};

/// Crash-site phases for LU (see [`adcc_sim::crash::CrashSite`]).
pub mod sites {
    /// After one column of the current block is fully updated.
    pub const PH_AFTER_COL: u32 = 40;
    /// After a block completes (checksums flushed).
    pub const PH_BLOCK_END: u32 = 41;
}
