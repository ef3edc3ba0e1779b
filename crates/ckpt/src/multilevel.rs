//! Multi-level (hierarchical) checkpointing (paper §I, refs \[1\]–\[3\]).
//!
//! The paper's introduction cites "hierarchical checkpoint to save
//! checkpoint in local compute nodes" (SCR, FTI) as the classic answer to
//! remote-storage checkpoint cost. This module implements the two-level
//! scheme those systems use:
//!
//! * **L1 (local)**: every checkpoint goes to node-local NVM via the
//!   double-buffered [`MemCheckpoint`] — fast, but lost if the *node*
//!   fails (as opposed to the process crashing).
//! * **L2 (remote)**: every `remote_period`-th checkpoint is additionally
//!   shipped to a remote storage node over a modelled network
//!   ([`RemoteTiming`]) — slow, but survives node loss.
//!
//! Recovery prefers L1 ([`MultilevelCheckpoint::restore_local`]); after a
//! node loss (local NVM gone) it falls back to
//! [`MultilevelCheckpoint::restore_from_remote`], accepting the older
//! remote state.

use adcc_sim::clock::Bucket;
use adcc_sim::line::LINE_SIZE;
use adcc_sim::system::MemorySystem;

use crate::mem::{MemCheckpoint, MemCheckpointLayout};

/// Timing model of the path to the remote storage node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteTiming {
    /// Round-trip/setup latency charged once per transfer, in picoseconds.
    pub rtt_ps: u64,
    /// Network + remote-storage bandwidth in bytes per microsecond
    /// (= MB/s).
    pub bytes_per_us: u64,
}

impl RemoteTiming {
    /// ~10 GbE to a burst buffer: 100 us round trip, ~1 GB/s effective.
    pub const fn burst_buffer() -> Self {
        RemoteTiming {
            rtt_ps: 100_000_000,
            bytes_per_us: 1_000,
        }
    }

    /// A parallel file system over the same fabric: same RTT, ~200 MB/s
    /// effective per process.
    pub const fn pfs() -> Self {
        RemoteTiming {
            rtt_ps: 100_000_000,
            bytes_per_us: 200,
        }
    }

    /// Cost of one contiguous transfer of `bytes`.
    #[inline]
    pub fn transfer_cost_ps(&self, bytes: u64) -> u64 {
        self.rtt_ps + bytes * 1_000_000 / self.bytes_per_us
    }
}

/// The remote storage node's view of one process's checkpoints. Survives
/// node loss (it lives outside the node's [`adcc_sim::image::NvmImage`]).
/// `clone_from` copies into the target's buffer.
#[derive(Debug, Default)]
pub struct RemoteStore {
    payload: Vec<u8>,
    seq: Option<u64>,
}

impl Clone for RemoteStore {
    fn clone(&self) -> Self {
        RemoteStore {
            payload: self.payload.clone(),
            seq: self.seq,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.payload.clone_from(&src.payload);
        self.seq = src.seq;
    }
}

impl RemoteStore {
    pub fn new() -> Self {
        RemoteStore::default()
    }

    /// Sequence number of the stored checkpoint, if any.
    pub fn seq(&self) -> Option<u64> {
        self.seq
    }

    /// Stored payload size in bytes.
    pub fn bytes(&self) -> usize {
        self.payload.len()
    }
}

/// A two-level local + remote checkpoint manager.
pub struct MultilevelCheckpoint {
    local: MemCheckpoint,
    timing: RemoteTiming,
    /// Ship to the remote node every `remote_period`-th checkpoint.
    pub remote_period: u64,
    taken: u64,
}

/// What one multilevel checkpoint call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultilevelReport {
    /// Local checkpoint sequence number.
    pub seq: u64,
    /// Whether this checkpoint was also shipped to the remote level.
    pub shipped_remote: bool,
}

impl MultilevelCheckpoint {
    /// Allocate the local level and configure the remote path.
    pub fn new(
        sys: &mut MemorySystem,
        max_bytes: usize,
        drain_dram: bool,
        remote_period: u64,
        timing: RemoteTiming,
    ) -> Self {
        assert!(remote_period >= 1, "remote period must be at least 1");
        MultilevelCheckpoint {
            local: MemCheckpoint::new(sys, max_bytes, drain_dram),
            timing,
            remote_period,
            taken: 0,
        }
    }

    /// The local level's persistent layout.
    pub fn local_layout(&self) -> MemCheckpointLayout {
        self.local.layout()
    }

    /// Re-attach the local level after a process crash (same node, NVM
    /// intact).
    pub fn attach(
        layout: MemCheckpointLayout,
        drain_dram: bool,
        remote_period: u64,
        timing: RemoteTiming,
    ) -> Self {
        MultilevelCheckpoint {
            local: MemCheckpoint::attach(layout, drain_dram),
            timing,
            remote_period,
            taken: 0,
        }
    }

    /// Take a checkpoint: always local; every `remote_period`-th call also
    /// ships the payload to `remote`.
    pub fn checkpoint(
        &mut self,
        sys: &mut MemorySystem,
        regions: &[(u64, usize)],
        remote: &mut RemoteStore,
    ) -> MultilevelReport {
        let seq = self.local.checkpoint(sys, regions);
        self.taken += 1;
        let ship = self.taken.is_multiple_of(self.remote_period);
        if ship {
            MultilevelCheckpoint::ship_to_remote(sys, regions, remote, self.timing, seq);
        }
        MultilevelReport {
            seq,
            shipped_remote: ship,
        }
    }

    /// Serialize the live `regions` (charged line reads) and ship them to
    /// `remote` as checkpoint `seq`, charging the transfer to
    /// [`Bucket::Io`]. This is the L2 half of [`Self::checkpoint`],
    /// exposed for mechanisms whose L1 is *not* a [`MemCheckpoint`] —
    /// e.g. the dist kernels' double-buffered iterate slots — but that
    /// still need a node-loss fallback.
    pub fn ship_to_remote(
        sys: &mut MemorySystem,
        regions: &[(u64, usize)],
        remote: &mut RemoteStore,
        timing: RemoteTiming,
        seq: u64,
    ) {
        let total: usize = regions.iter().map(|r| r.1).sum();
        let prev = sys.clock_mut().set_bucket(Bucket::Io);
        // The store's buffer is overwritten in place.
        let payload = &mut remote.payload;
        payload.clear();
        payload.resize(total, 0);
        let mut off = 0usize;
        let mut buf = [0u8; LINE_SIZE];
        for &(addr, len) in regions {
            let mut done = 0usize;
            while done < len {
                let take = LINE_SIZE.min(len - done);
                sys.read_bytes(addr + done as u64, &mut buf[..take]);
                payload[off + done..off + done + take].copy_from_slice(&buf[..take]);
                done += take;
            }
            off += len;
        }
        sys.charge_io(timing.transfer_cost_ps(total as u64));
        remote.seq = Some(seq);
        sys.clock_mut().set_bucket(prev);
    }

    /// Recover from the local level (process crash; node NVM intact).
    pub fn restore_local(&self, sys: &mut MemorySystem, regions: &[(u64, usize)]) -> Option<u64> {
        self.local.restore(sys, regions)
    }

    /// Recover from the remote level (node loss; local NVM gone). Charges
    /// the network read and writes the payload into the (fresh) system's
    /// regions. Returns the remote sequence number.
    pub fn restore_from_remote(
        sys: &mut MemorySystem,
        regions: &[(u64, usize)],
        remote: &RemoteStore,
        timing: RemoteTiming,
    ) -> Option<u64> {
        let seq = remote.seq?;
        let total: usize = regions.iter().map(|r| r.1).sum();
        assert_eq!(total, remote.payload.len(), "region set changed");
        let prev = sys.clock_mut().set_bucket(Bucket::Io);
        sys.charge_io(timing.transfer_cost_ps(total as u64));
        let mut off = 0usize;
        for &(addr, len) in regions {
            let mut done = 0usize;
            while done < len {
                let take = LINE_SIZE.min(len - done);
                sys.write_bytes(
                    addr + done as u64,
                    &remote.payload[off + done..off + done + take],
                );
                done += take;
            }
            off += len;
        }
        sys.clock_mut().set_bucket(prev);
        Some(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcc_sim::parray::PArray;
    use adcc_sim::system::SystemConfig;

    fn sys() -> MemorySystem {
        MemorySystem::new(SystemConfig::nvm_only(4096, 1 << 20))
    }

    #[test]
    fn ships_remote_on_period() {
        let mut s = sys();
        let a = PArray::<u64>::alloc_nvm(&mut s, 16);
        let regions = [(a.base(), a.byte_len())];
        let mut remote = RemoteStore::new();
        let mut ml =
            MultilevelCheckpoint::new(&mut s, 1024, false, 3, RemoteTiming::burst_buffer());
        for i in 1..=6u64 {
            a.fill(&mut s, i);
            let r = ml.checkpoint(&mut s, &regions, &mut remote);
            assert_eq!(r.seq, i);
            assert_eq!(r.shipped_remote, i % 3 == 0, "call {i}");
        }
        assert_eq!(remote.seq(), Some(6));
    }

    #[test]
    fn local_restore_prefers_newest() {
        let mut s = sys();
        let a = PArray::<u64>::alloc_nvm(&mut s, 16);
        let regions = [(a.base(), a.byte_len())];
        let mut remote = RemoteStore::new();
        let mut ml =
            MultilevelCheckpoint::new(&mut s, 1024, false, 2, RemoteTiming::burst_buffer());
        a.fill(&mut s, 1);
        ml.checkpoint(&mut s, &regions, &mut remote);
        a.fill(&mut s, 2);
        ml.checkpoint(&mut s, &regions, &mut remote); // shipped (seq 2)
        a.fill(&mut s, 3);
        ml.checkpoint(&mut s, &regions, &mut remote); // local only (seq 3)
        a.fill(&mut s, 0);
        assert_eq!(ml.restore_local(&mut s, &regions), Some(3));
        assert_eq!(a.get(&mut s, 0), 3);
        // Remote lags at seq 2 — the price of the hierarchy.
        assert_eq!(remote.seq(), Some(2));
    }

    #[test]
    fn node_loss_recovers_from_remote() {
        let mut s = sys();
        let a = PArray::<u64>::alloc_nvm(&mut s, 16);
        let regions = [(a.base(), a.byte_len())];
        let mut remote = RemoteStore::new();
        let mut ml =
            MultilevelCheckpoint::new(&mut s, 1024, false, 1, RemoteTiming::burst_buffer());
        a.fill(&mut s, 42);
        ml.checkpoint(&mut s, &regions, &mut remote);

        // Node loss: brand-new system, nothing in NVM.
        let mut fresh = sys();
        let _a2 = PArray::<u64>::alloc_nvm(&mut fresh, 16); // same layout
        let got = MultilevelCheckpoint::restore_from_remote(
            &mut fresh,
            &regions,
            &remote,
            RemoteTiming::burst_buffer(),
        );
        assert_eq!(got, Some(1));
        assert_eq!(a.get(&mut fresh, 0), 42);
    }

    #[test]
    fn remote_ship_costs_more_than_local() {
        let mut s = sys();
        let a = PArray::<u64>::alloc_nvm(&mut s, 4096);
        let regions = [(a.base(), a.byte_len())];
        let mut remote = RemoteStore::new();
        let mut ml = MultilevelCheckpoint::new(&mut s, 64 << 10, false, 2, RemoteTiming::pfs());
        let t0 = s.now();
        ml.checkpoint(&mut s, &regions, &mut remote); // local only
        let local_cost = s.now() - t0;
        let t1 = s.now();
        ml.checkpoint(&mut s, &regions, &mut remote); // local + remote
        let both_cost = s.now() - t1;
        assert!(
            both_cost.ps() > 2 * local_cost.ps(),
            "remote ship {both_cost} should dominate local {local_cost}"
        );
    }

    #[test]
    fn standalone_ship_roundtrips_without_a_local_level() {
        // Mechanisms whose L1 is their own persistent slots still get the
        // L2 path: ship live regions, then rebuild a blank node from them.
        let mut s = sys();
        let a = PArray::<u64>::alloc_nvm(&mut s, 8);
        let regions = [(a.base(), a.byte_len())];
        let mut remote = RemoteStore::new();
        a.fill(&mut s, 7);
        let t0 = s.now();
        MultilevelCheckpoint::ship_to_remote(&mut s, &regions, &mut remote, RemoteTiming::pfs(), 5);
        assert!(s.now() > t0, "shipping is charged");
        assert_eq!(remote.seq(), Some(5));
        assert_eq!(remote.bytes(), 64);

        let mut fresh = sys();
        let _a2 = PArray::<u64>::alloc_nvm(&mut fresh, 8);
        let got = MultilevelCheckpoint::restore_from_remote(
            &mut fresh,
            &regions,
            &remote,
            RemoteTiming::pfs(),
        );
        assert_eq!(got, Some(5));
        assert_eq!(a.get(&mut fresh, 0), 7);
    }

    #[test]
    fn empty_remote_store_cannot_restore() {
        let mut s = sys();
        let a = PArray::<u64>::alloc_nvm(&mut s, 4);
        let regions = [(a.base(), a.byte_len())];
        let remote = RemoteStore::new();
        assert_eq!(
            MultilevelCheckpoint::restore_from_remote(
                &mut s,
                &regions,
                &remote,
                RemoteTiming::pfs()
            ),
            None
        );
    }
}
