//! Crash-image memory accounting for the copy-on-write campaign path.
//!
//! The per-trial oracle (`Scenario::run_trial`) materializes a dense
//! `NvmImage` (an O(pool-size) byte copy) per crash state; the engine
//! stores one shared base per forward execution plus O(dirty-lines) per
//! state, and every image — base, delta or materialized — holds only the
//! pool's written prefix.
//! This module counts both sides so reports and benches can show them
//! side by side: `base_bytes`, `delta_bytes` and `peak_live_bytes` are
//! **resident** bytes (what the harness actually held), `full_copy_bytes`
//! is the **logical** yardstick (images × pool capacity, what dense
//! per-state copies would have cost). Everything here is a **host fact**
//! (how much memory the harness itself used), so it lives in the report's
//! non-canonical `host` section — but all counters derive from the
//! deterministic simulation, so they are identical across reruns, and all
//! but `peak_live_bytes` (one transient image *per worker*) across thread
//! counts too.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::Serialize;

/// Shared (thread-safe) accumulator the engine hands to every batched
/// execution. Sums and maxima are order-independent, so the totals are
/// deterministic regardless of worker interleaving.
#[derive(Debug, Default)]
pub struct ImageMemory {
    /// How many workers beyond the first may hold a materialized image of
    /// one execution at the same time. The default accumulator is that of
    /// a caller that runs each batch on its own thread
    /// ([`crate::scenario::Scenario::run_passes`]): none.
    extra_workers: u64,
    executions: AtomicU64,
    images: AtomicU64,
    distinct_states: AtomicU64,
    base_bytes: AtomicU64,
    delta_bytes: AtomicU64,
    full_copy_bytes: AtomicU64,
    peak_live_bytes: AtomicU64,
}

impl ImageMemory {
    /// The accumulator of a pool of `workers` threads that may all take
    /// per-state jobs of one execution at once, each holding the image it
    /// materialized: the worst-case live set [`ImageMemory::record_execution`]
    /// accounts per execution carries one transient image per worker.
    pub fn for_workers(workers: usize) -> Self {
        ImageMemory {
            extra_workers: workers.saturating_sub(1) as u64,
            ..ImageMemory::default()
        }
    }

    /// How many workers may materialize images of one execution at once.
    pub fn workers(&self) -> u64 {
        self.extra_workers + 1
    }

    /// Record one batched forward execution: the resident bytes of the
    /// shared base snapshot(s) it took (`base_bytes`, the written prefix of
    /// the NVM pool), the summed delta payload of the `images` crash states
    /// it harvested (one per scheduled unit that fired), how many of those
    /// were `distinct_states` (units captured by the same poll are one
    /// state, recovered once), the most resident bytes its transient
    /// materializations can come to at any one time (`materialized_bytes`:
    /// its largest image, times however many of its states are recovered
    /// concurrently), and the logical pool size a dense full-copy image of
    /// this scenario would have cost per state.
    pub fn record_execution(
        &self,
        base_bytes: u64,
        delta_bytes: u64,
        images: u64,
        distinct_states: u64,
        materialized_bytes: u64,
        pool_bytes: u64,
    ) {
        self.executions.fetch_add(1, Ordering::Relaxed);
        self.images.fetch_add(images, Ordering::Relaxed);
        self.distinct_states
            .fetch_add(distinct_states, Ordering::Relaxed);
        self.base_bytes.fetch_add(base_bytes, Ordering::Relaxed);
        self.delta_bytes.fetch_add(delta_bytes, Ordering::Relaxed);
        self.full_copy_bytes
            .fetch_add(images.saturating_mul(pool_bytes), Ordering::Relaxed);
        // Live set of one execution: the shared base, every delta of the
        // batch, and the transient materializations classification holds
        // at a time.
        let live = base_bytes + delta_bytes + materialized_bytes;
        self.peak_live_bytes.fetch_max(live, Ordering::Relaxed);
    }

    /// Snapshot the totals.
    pub fn summary(&self) -> ImageMemorySummary {
        ImageMemorySummary {
            executions: self.executions.load(Ordering::Relaxed),
            images: self.images.load(Ordering::Relaxed),
            distinct_states: Some(self.distinct_states.load(Ordering::Relaxed)),
            base_bytes: self.base_bytes.load(Ordering::Relaxed),
            delta_bytes: self.delta_bytes.load(Ordering::Relaxed),
            full_copy_bytes: self.full_copy_bytes.load(Ordering::Relaxed),
            peak_live_bytes: self.peak_live_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Aggregated crash-image memory facts for one campaign run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ImageMemorySummary {
    /// Batched forward executions run.
    pub executions: u64,
    /// Crash states that produced an image (completed-clean states store
    /// nothing).
    pub images: u64,
    /// Distinct crash states among `images`: units captured by the same
    /// poll share one machine state and one recovery. `None` when the
    /// document predates the count (it is emitted only when known).
    pub distinct_states: Option<u64>,
    /// Resident bytes of shared base snapshots (one written prefix per
    /// execution).
    pub base_bytes: u64,
    /// Bytes of per-state delta payload.
    pub delta_bytes: u64,
    /// Logical bytes of the same states: what dense full-pool copies would
    /// have allocated (images × pool capacity).
    pub full_copy_bytes: u64,
    /// Largest single-execution resident set: base + deltas + one
    /// transient materialization per worker that can be recovering one of
    /// its states (so, unlike the other counters, it grows with the thread
    /// count of the run that wrote it).
    pub peak_live_bytes: u64,
}

impl ImageMemorySummary {
    /// Average crash-image bytes per stored state, shared bases amortized
    /// in. Zero when no images were stored.
    pub fn bytes_per_crash_state(&self) -> u64 {
        (self.base_bytes + self.delta_bytes)
            .checked_div(self.images)
            .unwrap_or(0)
    }

    /// Average logical bytes per state (what a dense full-copy image per
    /// state would have paid).
    pub fn full_copy_bytes_per_state(&self) -> u64 {
        self.full_copy_bytes.checked_div(self.images).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_summarizes() {
        let m = ImageMemory::default();
        m.record_execution(300, 200, 4, 2, 400, 1000);
        m.record_execution(500, 100, 1, 1, 600, 2000);
        let s = m.summary();
        assert_eq!(s.executions, 2);
        assert_eq!(s.images, 5);
        assert_eq!(s.distinct_states, Some(3));
        assert_eq!(s.base_bytes, 800);
        assert_eq!(s.delta_bytes, 300);
        assert_eq!(s.full_copy_bytes, 4 * 1000 + 2000);
        assert_eq!(s.peak_live_bytes, 500 + 100 + 600);
        assert_eq!(s.bytes_per_crash_state(), 1100 / 5);
        assert_eq!(s.full_copy_bytes_per_state(), 6000 / 5);
    }

    #[test]
    fn empty_summary_divides_safely() {
        let s = ImageMemorySummary::default();
        assert_eq!(s.bytes_per_crash_state(), 0);
        assert_eq!(s.full_copy_bytes_per_state(), 0);
    }
}
