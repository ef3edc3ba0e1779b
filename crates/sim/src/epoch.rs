//! Epoch persistency helper.
//!
//! The paper's related work (Pelley et al. \[52\], Joshi et al. \[53\], Kolli
//! et al. \[54\]) relaxes persist ordering *within* an epoch: persists issued
//! between two barriers may proceed concurrently, and only the barrier
//! orders them against later stores. The paper notes these proposals "can
//! be complementary to our work to improve the performance of cache
//! flushing (especially for algorithm-directed crash consistence based on
//! ABFT for matrix multiplication)" — this module is that combination.
//!
//! [`EpochPersist`] accumulates the lines an algorithm wants persisted
//! during an epoch and issues them as one batched persist at
//! [`EpochPersist::barrier`], which charges overlapped (not serialized)
//! medium latency via [`MemorySystem::persist_lines_batched`].

use crate::line::line_of;
#[cfg(test)]
use crate::line::LINE_SIZE;
use crate::system::MemorySystem;

/// Accumulates persist requests for one epoch.
#[derive(Debug, Default)]
pub struct EpochPersist {
    lines: Vec<u64>,
    lines_persisted: u64,
}

impl EpochPersist {
    /// New accumulator with no pending requests.
    pub fn new() -> Self {
        EpochPersist {
            lines: Vec::new(),
            lines_persisted: 0,
        }
    }

    /// Number of (not yet deduplicated) pending line requests.
    pub fn pending(&self) -> usize {
        self.lines.len()
    }

    /// Total distinct lines persisted across all barriers issued through
    /// this accumulator (telemetry hook: epoch-batched flush volume).
    pub fn lines_persisted(&self) -> u64 {
        self.lines_persisted
    }

    /// Request persistence of the line containing `addr`.
    #[inline]
    pub fn note(&mut self, addr: u64) {
        self.lines.push(line_of(addr));
    }

    /// Request persistence of every line of `[addr, addr + len)`.
    pub fn note_range(&mut self, addr: u64, len: usize) {
        if len == 0 {
            return;
        }
        let first = line_of(addr);
        let last = line_of(addr + len as u64 - 1);
        // Dedup happens at the barrier; pushing a run here is cheap.
        for line in first..=last {
            self.lines.push(line);
        }
    }

    /// Issue the epoch's persists as one batch and clear the buffer.
    /// Returns the number of distinct lines persisted.
    pub fn barrier(&mut self, sys: &mut MemorySystem) -> usize {
        self.lines.sort_unstable();
        self.lines.dedup();
        let n = self.lines.len();
        #[cfg(not(feature = "mutant-epoch-fence"))]
        sys.persist_lines_batched(&self.lines);
        // Seeded mutant for the analyzer's mutation suite: flush the
        // epoch's lines but drop the ordering fence, opening the
        // missing-fence publish window the sanitizer must flag.
        #[cfg(feature = "mutant-epoch-fence")]
        for &line in &self.lines {
            sys.clflushopt(line << crate::line::LINE_SHIFT);
        }
        self.lines.clear();
        self.lines_persisted += n as u64;
        n
    }

    /// Drop pending requests without persisting (e.g. the epoch's data was
    /// superseded).
    pub fn discard(&mut self) {
        self.lines.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;

    fn sys() -> MemorySystem {
        MemorySystem::new(SystemConfig::nvm_only(4096, 1 << 20))
    }

    #[test]
    fn barrier_makes_lines_durable() {
        let mut s = sys();
        let a = s.alloc_nvm(4 * LINE_SIZE);
        for i in 0..4u64 {
            s.write_bytes(a + i * LINE_SIZE as u64, &[i as u8 + 1; 8]);
        }
        let mut e = EpochPersist::new();
        e.note_range(a, 4 * LINE_SIZE);
        assert_eq!(e.barrier(&mut s), 4);
        let img = s.crash();
        for i in 0..4u64 {
            assert_eq!(img.read_u8(a + i * LINE_SIZE as u64), i as u8 + 1);
        }
    }

    #[test]
    fn batched_is_cheaper_than_serialized() {
        let n_lines = 32usize;
        // Serialized: persist_line + sfence per line.
        let mut s1 = sys();
        let a1 = s1.alloc_nvm(n_lines * LINE_SIZE);
        for i in 0..n_lines {
            s1.write_bytes(a1 + (i * LINE_SIZE) as u64, &[7; 8]);
        }
        let t0 = s1.now();
        for i in 0..n_lines {
            s1.persist_line(a1 + (i * LINE_SIZE) as u64);
            s1.sfence();
        }
        let serialized = s1.now() - t0;

        // Batched epoch.
        let mut s2 = sys();
        let a2 = s2.alloc_nvm(n_lines * LINE_SIZE);
        for i in 0..n_lines {
            s2.write_bytes(a2 + (i * LINE_SIZE) as u64, &[7; 8]);
        }
        let t0 = s2.now();
        let mut e = EpochPersist::new();
        e.note_range(a2, n_lines * LINE_SIZE);
        e.barrier(&mut s2);
        let batched = s2.now() - t0;

        assert!(
            batched.ps() * 2 < serialized.ps(),
            "epoch batching should be at least 2x cheaper: {batched} vs {serialized}"
        );
    }

    #[test]
    fn duplicate_notes_are_deduplicated() {
        let mut s = sys();
        let a = s.alloc_nvm(LINE_SIZE);
        s.write_bytes(a, &[9; 8]);
        let mut e = EpochPersist::new();
        e.note(a);
        e.note(a + 8);
        e.note(a);
        assert_eq!(e.barrier(&mut s), 1);
    }

    #[test]
    fn lines_persisted_accumulates_across_barriers() {
        let mut s = sys();
        let a = s.alloc_nvm(4 * LINE_SIZE);
        let mut e = EpochPersist::new();
        assert_eq!(e.lines_persisted(), 0);
        e.note_range(a, 3 * LINE_SIZE);
        e.barrier(&mut s);
        assert_eq!(e.lines_persisted(), 3);
        e.note(a); // second epoch re-persists a line: still counted
        e.barrier(&mut s);
        assert_eq!(e.lines_persisted(), 4);
        // Discarded requests never count.
        e.note(a + 64);
        e.discard();
        e.barrier(&mut s);
        assert_eq!(e.lines_persisted(), 4);
    }

    #[test]
    fn discard_drops_pending() {
        let mut e = EpochPersist::new();
        e.note(0);
        e.note(64);
        assert_eq!(e.pending(), 2);
        e.discard();
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn empty_barrier_is_free() {
        // An epoch with nothing pending must not skew flush/fence
        // telemetry or the clock (mechanisms may issue barriers
        // unconditionally per epoch).
        let mut s = sys();
        let fences = s.stats().sfences;
        let barriers = s.stats().epoch_barriers;
        let t0 = s.now();
        let mut e = EpochPersist::new();
        assert_eq!(e.barrier(&mut s), 0);
        assert_eq!(s.stats().sfences, fences, "no fence for an empty epoch");
        assert_eq!(s.stats().epoch_barriers, barriers, "no barrier counted");
        assert_eq!(s.now(), t0, "no time charged");
        assert_eq!(e.lines_persisted(), 0);
    }

    #[test]
    fn batched_persist_works_on_hetero() {
        let mut s = MemorySystem::new(SystemConfig::heterogeneous(4096, 16384, 1 << 20));
        let a = s.alloc_nvm(2 * LINE_SIZE);
        s.write_bytes(a, &[3; 8]);
        // Push one line into the DRAM cache first (dirty there).
        s.clflush(a);
        s.write_bytes(a + LINE_SIZE as u64, &[4; 8]);
        let mut e = EpochPersist::new();
        e.note_range(a, 2 * LINE_SIZE);
        e.barrier(&mut s);
        let img = s.crash();
        assert_eq!(img.read_u8(a), 3, "dirty-in-DRAM-cache line persisted");
        assert_eq!(
            img.read_u8(a + LINE_SIZE as u64),
            4,
            "dirty-in-CPU line persisted"
        );
    }
}
