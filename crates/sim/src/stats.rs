//! Event counters for the simulated memory hierarchy.

/// Counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Lookups that found the line resident.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub dirty_evictions: u64,
    /// Clean lines silently dropped on eviction.
    pub clean_evictions: u64,
}

impl LevelStats {
    /// Hit ratio in [0, 1]; zero when no accesses were recorded.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Counters for the whole memory system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// CPU cache level.
    pub cpu: LevelStats,
    /// DRAM cache level (meaningful only on the heterogeneous platform).
    pub dram_cache: LevelStats,
    /// Lines read from the NVM medium.
    pub nvm_line_reads: u64,
    /// Lines written to the NVM medium.
    pub nvm_line_writes: u64,
    /// Lines read from the DRAM-direct region.
    pub dram_line_reads: u64,
    /// Lines written to the DRAM-direct region.
    pub dram_line_writes: u64,
    /// CLFLUSH instructions executed.
    pub clflushes: u64,
    /// CLFLUSHOPT instructions executed.
    pub clflushopts: u64,
    /// CLWB instructions executed.
    pub clwbs: u64,
    /// SFENCE instructions executed.
    pub sfences: u64,
    /// Batched epoch persist barriers executed.
    pub epoch_barriers: u64,
    /// Element-level accesses (reads + writes) issued by the program.
    pub accesses: u64,
    /// Full DRAM-cache drains performed.
    pub dram_drains: u64,
    /// Fabric messages sent by this rank (multi-rank executions only).
    pub net_msgs_sent: u64,
    /// Fabric payload bytes sent by this rank.
    pub net_bytes_sent: u64,
    /// Fabric send attempts lost to injected faults (each one implies a
    /// retransmission charged on this rank's clock).
    pub net_dropped: u64,
    /// Fabric messages spuriously duplicated by injected faults (the
    /// duplicate transmit is charged here; delivery stays exactly-once).
    pub net_duplicated: u64,
    /// Fabric messages delayed out of their nominal delivery order by
    /// injected faults (resequencing latency lands on the receiver).
    pub net_reordered: u64,
    /// Retransmissions this rank performed to mask dropped attempts.
    pub net_retries: u64,
}

impl MemStats {
    /// Total bytes moved to/from NVM.
    pub fn nvm_bytes(&self) -> u64 {
        (self.nvm_line_reads + self.nvm_line_writes) * crate::line::LINE_SIZE as u64
    }

    /// Total cache-line write-back instructions of any flavour
    /// (`CLFLUSH` + `CLFLUSHOPT` + `CLWB`) — the paper's headline
    /// per-iteration cost for algorithm-directed schemes.
    pub fn flush_total(&self) -> u64 {
        self.clflushes + self.clflushopts + self.clwbs
    }

    /// Persist barriers issued: every `SFENCE`, including the one ending
    /// each batched epoch persist. The gaps between consecutive barriers
    /// are the execution's natural consistency windows.
    pub fn persist_barriers(&self) -> u64 {
        self.sfences
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_handles_zero() {
        let s = LevelStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
    }

    #[test]
    fn hit_ratio_math() {
        let s = LevelStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn flush_total_and_persist_barriers() {
        let s = MemStats {
            clflushes: 2,
            clflushopts: 3,
            clwbs: 4,
            sfences: 5,
            ..Default::default()
        };
        assert_eq!(s.flush_total(), 9);
        assert_eq!(s.persist_barriers(), 5);
    }

    #[test]
    fn nvm_bytes_counts_both_directions() {
        let s = MemStats {
            nvm_line_reads: 2,
            nvm_line_writes: 3,
            ..Default::default()
        };
        assert_eq!(s.nvm_bytes(), 5 * 64);
    }
}
