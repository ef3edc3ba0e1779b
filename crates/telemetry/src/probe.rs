//! The probe: snapshot a [`MemorySystem`]'s counters at attach time, diff
//! them at finish time.
//!
//! Attaching is free of simulated cost (it copies host-side counters) and
//! never perturbs the run, so instrumented and uninstrumented executions
//! take identical simulated paths — the determinism guarantee campaign
//! reports rely on.

use adcc_sim::clock::Bucket;
use adcc_sim::system::{CounterSnapshot, MemorySystem};

use crate::profile::ExecutionProfile;

/// A counter baseline taken at attach time.
///
/// `finish` may be called repeatedly (each call diffs against the same
/// baseline), which is how batch scenarios take cumulative samples at
/// every harvested crash point of a single execution. When the crash
/// points were harvested by an armed plan (the execution moved on before
/// classification), [`Probe::finish_at`] diffs against the
/// [`CounterSnapshot`] each harvest recorded at its fork instant instead
/// of the live system.
#[derive(Debug, Clone)]
pub struct Probe {
    at: CounterSnapshot,
}

impl Probe {
    /// Record the system's current counters as the measurement baseline.
    pub fn attach(sys: &MemorySystem) -> Self {
        Probe {
            at: sys.counter_snapshot(),
        }
    }

    /// Diff the system's counters against the baseline. Call after the
    /// instrumented window (crash or completion); the system's stats
    /// survive a [`MemorySystem::crash`], so post-crash finishing observes
    /// the execution exactly up to the crash instant.
    pub fn finish(&self, sys: &MemorySystem) -> ExecutionProfile {
        self.finish_at(&sys.counter_snapshot())
    }

    /// Diff a recorded [`CounterSnapshot`] against the baseline — the
    /// profile of the window from attach to the instant the snapshot was
    /// taken (e.g. a harvested crash point mid-execution).
    pub fn finish_at(&self, end: &CounterSnapshot) -> ExecutionProfile {
        let now = &end.stats;
        let start = &self.at.stats;
        let bucket = |b: Bucket| end.bucket_ps[b as usize] - self.at.bucket_ps[b as usize];
        ExecutionProfile {
            clflushes: now.clflushes - start.clflushes,
            clflushopts: now.clflushopts - start.clflushopts,
            clwbs: now.clwbs - start.clwbs,
            sfences: now.sfences - start.sfences,
            epoch_barriers: now.epoch_barriers - start.epoch_barriers,
            nvm_line_reads: now.nvm_line_reads - start.nvm_line_reads,
            nvm_line_writes: now.nvm_line_writes - start.nvm_line_writes,
            accesses: now.accesses - start.accesses,
            flush_ps: bucket(Bucket::Flush),
            fence_ps: bucket(Bucket::Fence),
            log_ps: bucket(Bucket::Log),
            ckpt_copy_ps: bucket(Bucket::CkptCopy),
            sim_time_ps: end.now_ps - self.at.now_ps,
            net_msgs: now.net_msgs_sent - start.net_msgs_sent,
            net_bytes: now.net_bytes_sent - start.net_bytes_sent,
            net_ps: bucket(Bucket::Network),
            net_dropped: now.net_dropped - start.net_dropped,
            net_duplicated: now.net_duplicated - start.net_duplicated,
            net_reordered: now.net_reordered - start.net_reordered,
            net_retries: now.net_retries - start.net_retries,
            // The log, dirty-residency, recovery-traffic and ds op counters
            // are the trial drivers' to attach (`with_*`).
            ..ExecutionProfile::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcc_sim::system::SystemConfig;

    #[test]
    fn probe_diffs_against_attach_baseline() {
        let mut sys = MemorySystem::new(SystemConfig::nvm_only(4096, 1 << 20));
        let a = sys.alloc_nvm(256);
        // Pre-attach traffic must not leak into the profile.
        sys.write_bytes(a, &[1; 8]);
        sys.persist_line(a);
        sys.sfence();
        let probe = Probe::attach(&sys);
        sys.write_bytes(a + 64, &[2; 8]);
        sys.persist_line(a + 64);
        sys.sfence();
        let p = probe.finish(&sys);
        assert_eq!(p.clflushes, 1);
        assert_eq!(p.sfences, 1);
        assert!(p.sim_time_ps > 0);
        assert!(p.fence_ps > 0);
    }

    #[test]
    fn probe_survives_a_crash() {
        let mut sys = MemorySystem::new(SystemConfig::nvm_only(4096, 1 << 20));
        let a = sys.alloc_nvm(64);
        let probe = Probe::attach(&sys);
        sys.write_bytes(a, &[3; 8]); // stranded in cache
        let image = sys.crash();
        let p = probe.finish(&sys).with_image(&image);
        assert_eq!(p.dirty_lines_at_crash, 1);
        assert_eq!(p.flush_total(), 0);
    }

    #[test]
    fn repeated_finish_is_cumulative() {
        let mut sys = MemorySystem::new(SystemConfig::nvm_only(4096, 1 << 20));
        let a = sys.alloc_nvm(128);
        let probe = Probe::attach(&sys);
        sys.write_bytes(a, &[1; 8]);
        sys.clflush(a);
        let p1 = probe.finish(&sys);
        sys.write_bytes(a + 64, &[2; 8]);
        sys.clflush(a + 64);
        let p2 = probe.finish(&sys);
        assert_eq!(p1.clflushes, 1);
        assert_eq!(p2.clflushes, 2);
    }
}
