//! The per-execution cost profile: what one instrumented run spent on
//! crash consistence.
//!
//! Every field is an exact `u64` drawn from deterministic simulator
//! counters, so profiles (and every report built from them) are
//! byte-for-byte reproducible across reruns and thread counts — the same
//! replay guarantee the campaign reports already carry.

use adcc_pmem::stats::LogStats;
use adcc_sim::image::NvmImage;

/// Declares [`ExecutionProfile`] from the one table of its counters, in
/// report emission order: the struct, [`ExecutionProfile::merge`],
/// [`ExecutionProfile::counters`] (what the report emits) and
/// [`ExecutionProfile::from_counters`] (what it parses) all expand from the
/// same list, so a counter cannot reach some of them and miss another.
macro_rules! execution_profile {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Counters and attributed time for one instrumented execution window
        /// (typically: scenario setup → crash, or setup → completion).
        ///
        /// Produced by [`crate::probe::Probe::finish`]; aggregated per scenario by
        /// field-wise [`ExecutionProfile::merge`]. The derived metrics —
        /// [`ExecutionProfile::flush_total`],
        /// [`ExecutionProfile::consistency_window_ps`],
        /// [`ExecutionProfile::dirty_bytes_at_crash`] — are the paper's §IV
        /// measurements: flush volume per iteration, the consistency window each
        /// algorithm naturally provides, and dirty-data residency at crash.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct ExecutionProfile {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl ExecutionProfile {
            /// Every counter as `(name, value)`, in report emission order.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($name), self.$name),)*].into_iter()
            }

            /// Build a profile by asking `get` for every counter by name;
            /// the first error wins.
            pub fn from_counters<E>(
                mut get: impl FnMut(&'static str) -> Result<u64, E>,
            ) -> Result<Self, E> {
                Ok(ExecutionProfile {
                    $($name: get(stringify!($name))?,)*
                })
            }

            /// Field-wise accumulation (per-scenario aggregation over trials).
            pub fn merge(&mut self, other: &ExecutionProfile) {
                $(self.$name += other.$name;)*
            }
        }
    };
}

execution_profile! {
    /// `CLFLUSH` instructions executed in the window.
    clflushes,
    /// `CLFLUSHOPT` instructions executed in the window.
    clflushopts,
    /// `CLWB` instructions executed in the window.
    clwbs,
    /// `SFENCE` persist barriers executed in the window.
    sfences,
    /// Batched epoch persist barriers executed in the window.
    epoch_barriers,
    /// Lines read from the NVM medium.
    nvm_line_reads,
    /// Lines written to the NVM medium.
    nvm_line_writes,
    /// Element-level accesses issued by the program.
    accesses,
    /// Simulated picoseconds attributed to cache flushing.
    flush_ps,
    /// Simulated picoseconds attributed to persist barriers.
    fence_ps,
    /// Simulated picoseconds attributed to undo/redo-log traffic.
    log_ps,
    /// Simulated picoseconds attributed to checkpoint data copying.
    ckpt_copy_ps,
    /// Total simulated picoseconds elapsed in the window.
    sim_time_ps,
    /// Transaction-log entries appended (undo snapshots / redo stagings).
    log_appends,
    /// Transaction-log payload bytes written.
    log_bytes,
    /// Distinct dirty NVM-homed cache lines resident in volatile levels at
    /// the crash instant (zero for runs that completed without crashing).
    dirty_lines_at_crash,
    /// Fabric messages sent in the window (multi-rank executions; zero for
    /// single-rank runs).
    net_msgs,
    /// Fabric payload bytes sent in the window.
    net_bytes,
    /// Simulated picoseconds attributed to the network fabric (transfers
    /// and synchronization waits).
    net_ps,
    /// Fabric payload bytes spent getting the cluster back to its pre-crash
    /// frontier — the recovery-traffic cost the dist campaign compares
    /// between global restart and algorithm-directed local recovery. Filled
    /// by the dist trial driver, not by probes.
    recovery_net_bytes,
    /// Transaction-log entries attributed to structure *metadata*
    /// (persistent-allocator free-list words, directory slots) — the
    /// `adcc_ds` allocator's bookkeeping traffic, separated from payload
    /// snapshots. Zero for kernel and dist executions.
    log_meta_appends,
    /// Transaction-log payload bytes attributed to structure metadata.
    log_meta_bytes,
    /// Data-structure operations durably applied when the window closed
    /// (the committed op-stream prefix a crash left behind; the full
    /// stream for completed runs). Filled by the ds trial driver.
    ds_ops_applied,
    /// Data-structure operations re-executed against the recovered
    /// structure to reach the end of the op stream (zero for completed
    /// runs). Filled by the ds trial driver.
    ds_ops_replayed,
    /// Fabric send attempts lost to injected faults in the window (each
    /// implies a retransmission; zero on reliable fabrics).
    net_dropped,
    /// Fabric messages spuriously duplicated by injected faults.
    net_duplicated,
    /// Fabric messages delivered out of their nominal order by injected
    /// faults (resequenced by the transport before the program saw them).
    net_reordered,
    /// Retransmissions performed to mask dropped attempts.
    net_retries,
    /// Payload bytes pulled from a remote checkpoint store to rebuild a
    /// rank whose local NVM image was unrecoverable (node loss). Filled by
    /// the dist trial driver, not by probes.
    remote_restore_bytes,
}

impl ExecutionProfile {
    /// Total write-back instructions of any flavour
    /// (`CLFLUSH` + `CLFLUSHOPT` + `CLWB`).
    pub fn flush_total(&self) -> u64 {
        self.clflushes + self.clflushopts + self.clwbs
    }

    /// Persist points in the window: every `SFENCE`, including the one
    /// ending each batched epoch persist.
    pub fn persist_barriers(&self) -> u64 {
        self.sfences
    }

    /// Average gap between persist barriers — the *consistency window* the
    /// mechanism naturally provides (paper §IV-B: how far NVM state may
    /// trail program state). A window equal to the whole run means the
    /// mechanism never bounded the exposure.
    pub fn consistency_window_ps(&self) -> u64 {
        self.sim_time_ps / (self.sfences + 1)
    }

    /// Dirty residency at crash, in bytes.
    pub fn dirty_bytes_at_crash(&self) -> u64 {
        adcc_sim::line::lines_to_bytes(self.dirty_lines_at_crash)
    }

    /// Dirty-data rate: dirty bytes at crash per million bytes written to
    /// NVM in the window (parts-per-million keeps the metric an exact
    /// integer). Zero when the window wrote nothing.
    pub fn dirty_data_rate_ppm(&self) -> u64 {
        let written = adcc_sim::line::lines_to_bytes(self.nvm_line_writes);
        (self.dirty_bytes_at_crash() * 1_000_000)
            .checked_div(written)
            .unwrap_or(0)
    }

    /// Attach the dirty-residency metadata a crash image carries.
    pub fn with_image(mut self, image: &NvmImage) -> Self {
        self.dirty_lines_at_crash = image.dirty_lines_at_crash();
        self
    }

    /// Attach dirty-residency metadata directly (e.g. from a
    /// [`adcc_sim::image::DeltaImage`], whose metadata survives the
    /// copy-on-write path exactly like a full image's).
    pub fn with_dirty_lines(mut self, lines: u64) -> Self {
        self.dirty_lines_at_crash = lines;
        self
    }

    /// Fold a transaction pool's log counters into the profile.
    pub fn with_log(mut self, log: LogStats) -> Self {
        self.log_appends += log.appends;
        self.log_bytes += log.bytes;
        self.log_meta_appends += log.meta_appends;
        self.log_meta_bytes += log.meta_bytes;
        self
    }

    /// Attach the op-stream counters a ds trial measured: ops durably
    /// applied at the window's close, and ops re-executed during recovery.
    pub fn with_ds_ops(mut self, applied: u64, replayed: u64) -> Self {
        self.ds_ops_applied = applied;
        self.ds_ops_replayed = replayed;
        self
    }

    /// Attach the recovery-traffic bytes a multi-rank trial measured on
    /// its fabric between the crash and the return to the pre-crash
    /// frontier.
    pub fn with_recovery_net_bytes(mut self, bytes: u64) -> Self {
        self.recovery_net_bytes = bytes;
        self
    }

    /// Attach the remote-checkpoint bytes a node-loss recovery pulled to
    /// rebuild a rank with no usable local NVM image.
    pub fn with_remote_restore_bytes(mut self, bytes: u64) -> Self {
        self.remote_restore_bytes = bytes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let p = ExecutionProfile {
            clflushes: 2,
            clflushopts: 3,
            clwbs: 5,
            sfences: 4,
            sim_time_ps: 1_000,
            nvm_line_writes: 10,
            dirty_lines_at_crash: 1,
            ..Default::default()
        };
        assert_eq!(p.flush_total(), 10);
        assert_eq!(p.persist_barriers(), 4);
        assert_eq!(p.consistency_window_ps(), 200);
        assert_eq!(p.dirty_bytes_at_crash(), 64);
        // 64 dirty bytes per 640 written = 100_000 ppm.
        assert_eq!(p.dirty_data_rate_ppm(), 100_000);
    }

    #[test]
    fn window_and_rate_handle_zero_denominators() {
        let p = ExecutionProfile {
            sim_time_ps: 500,
            ..Default::default()
        };
        assert_eq!(p.consistency_window_ps(), 500, "no barrier: whole run");
        assert_eq!(p.dirty_data_rate_ppm(), 0, "nothing written");
    }

    /// Counter *i* of the table holds *i* + 1: all 29 are built in table
    /// order, doubled by `merge` and listed by `counters` at their own
    /// position; the first and last fields pin which end is which. (A field
    /// cannot be in the struct and miss the table: the struct expands from
    /// it. `adcc_campaign::report` emits and re-parses the same profile.)
    #[test]
    fn merge_accumulates_every_field() {
        let mut next = 0;
        let mut p = ExecutionProfile::from_counters(|_| {
            next += 1;
            Ok::<u64, ()>(next)
        })
        .unwrap();
        assert_eq!((p.clflushes, p.remote_restore_bytes), (1, 29));
        let same = p;
        p.merge(&same);
        let doubled: Vec<u64> = p.counters().map(|(_, value)| value).collect();
        assert_eq!(doubled, (1..=29).map(|i| 2 * i).collect::<Vec<u64>>());
    }
}
