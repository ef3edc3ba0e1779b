//! # adcc-sim — crash emulator and NVM performance model
//!
//! The substrate beneath the `adcc` reproduction of *Algorithm-Directed
//! Crash Consistence in Non-Volatile Memory for HPC* (CLUSTER 2017).
//!
//! The paper studies what survives in NVM when an application crashes with
//! volatile caches in front of persistent memory. Its methodology needs two
//! emulators, both rebuilt here in pure Rust:
//!
//! 1. a **crash emulator** (PIN-based in the paper): every load/store of
//!    persistent data goes through a data-tracking write-back LRU cache
//!    hierarchy ([`system::MemorySystem`]), so the NVM image
//!    ([`image::NvmImage`]) diverges from program state exactly as real
//!    hardware caches make it diverge, and
//! 2. an **NVM performance emulator** (Quartz in the paper): every
//!    hierarchy event charges deterministic picoseconds on a simulated
//!    clock ([`clock::SimClock`]) according to a configurable cost table
//!    ([`timing::PlatformTiming`]), including the paper's PCM-like
//!    "1/8 bandwidth, 4x latency" NVM and the volatile 32 MB DRAM cache of
//!    its heterogeneous platform.
//!
//! ## Quick start
//!
//! ```
//! use adcc_sim::prelude::*;
//!
//! // The paper's NVM-only platform: 4 KiB CPU cache, 1 MiB NVM.
//! let mut sys = MemorySystem::new(SystemConfig::nvm_only(4096, 1 << 20));
//! let x = PArray::<f64>::alloc_nvm(&mut sys, 8);
//! x.set(&mut sys, 0, 1.0);          // write lands in cache, not NVM
//! assert_eq!(sys.nvm_snapshot().read_f64(x.addr(0)), 0.0);
//! sys.persist_range(x.addr(0), 8);  // CLFLUSH + (hetero: DRAM-cache evict)
//! let image = sys.crash();          // volatile levels discarded
//! assert_eq!(image.read_f64(x.addr(0)), 1.0);
//! ```

#![deny(missing_docs)]

pub mod alloc;
pub mod backing;
pub mod clock;
pub mod crash;
pub mod epoch;
pub mod events;
pub mod image;
pub mod line;
pub mod lru;
pub mod parray;
pub mod policy;
pub mod stats;
pub mod system;
pub mod timing;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::clock::{Bucket, SimClock, SimTime};
    pub use crate::crash::{CrashEmulator, CrashSite, CrashTrigger, Harvest, RunOutcome};
    pub use crate::epoch::EpochPersist;
    pub use crate::events::{Event, EventKind, EventRecorder};
    pub use crate::image::{DeltaImage, NvmImage};
    pub use crate::line::LINE_SIZE;
    pub use crate::lru::CacheConfig;
    pub use crate::parray::{PArray, PMatrix, PScalar, Pod};
    pub use crate::policy::ReplacementPolicy;
    pub use crate::stats::{LevelStats, MemStats};
    pub use crate::system::{CounterSnapshot, DeltaBase, FlushOp, MemorySystem, SystemConfig};
    pub use crate::timing::{HddTiming, MediaTiming, PlatformTiming};
}
