//! Log-traffic counters for the PMDK-style transaction pools.
//!
//! The paper attributes the Intel-PMEM baseline's 329% CG overhead to
//! per-update log machinery (§V "Comparing with the NVM-aware programming
//! model"); these counters let the telemetry layer report exactly how many
//! log entries and bytes a mechanism wrote, next to the flush and fence
//! tallies the simulator keeps in `adcc_sim::stats::MemStats`.

/// Counters for one transaction pool's log traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Log entries appended (undo pre-image snapshots or redo stagings).
    pub appends: u64,
    /// Bytes of log payload written (entries × on-NVM entry size).
    pub bytes: u64,
    /// Transactions begun.
    pub tx_begins: u64,
    /// Transactions committed.
    pub tx_commits: u64,
    /// Transactions rolled back in place (`tx_abort`), excluding post-crash
    /// recovery (which runs on a fresh pool handle).
    pub aborts: u64,
    /// Subset of `appends` attributed to structure *metadata* (allocator
    /// free-list words, directory slots) via `tx_add_range_meta`; lets the
    /// telemetry layer separate bookkeeping traffic from payload traffic.
    pub meta_appends: u64,
    /// Subset of `bytes` attributed to metadata snapshots.
    pub meta_bytes: u64,
}

impl LogStats {
    /// Field-wise accumulation (scenario aggregation).
    pub fn merge(&mut self, other: &LogStats) {
        self.appends += other.appends;
        self.bytes += other.bytes;
        self.tx_begins += other.tx_begins;
        self.tx_commits += other.tx_commits;
        self.aborts += other.aborts;
        self.meta_appends += other.meta_appends;
        self.meta_bytes += other.meta_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_fieldwise() {
        let mut a = LogStats {
            appends: 1,
            bytes: 128,
            tx_begins: 1,
            tx_commits: 1,
            aborts: 0,
            meta_appends: 1,
            meta_bytes: 128,
        };
        let b = LogStats {
            appends: 2,
            bytes: 256,
            tx_begins: 1,
            tx_commits: 0,
            aborts: 1,
            meta_appends: 0,
            meta_bytes: 0,
        };
        a.merge(&b);
        assert_eq!(a.appends, 3);
        assert_eq!(a.bytes, 384);
        assert_eq!(a.tx_begins, 2);
        assert_eq!(a.tx_commits, 1);
        assert_eq!(a.aborts, 1);
        assert_eq!(a.meta_appends, 1);
        assert_eq!(a.meta_bytes, 128);
    }
}
