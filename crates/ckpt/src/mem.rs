//! Double-buffered in-NVM checkpointing.
//!
//! Two payload slots alternate; each checkpoint (1) clears the target
//! slot's completion mark, (2) copies all registered regions into the slot
//! (charged data copy — the "data copying" half of the paper's checkpoint
//! overhead), (3) persists the payload (the "cache flushing" half), and
//! (4) persists a new header with a higher sequence number and a checksum.
//! Restore picks the newest complete slot whose checksum verifies, so a
//! crash at any point leaves at least one valid checkpoint.

use adcc_sim::clock::Bucket;
use adcc_sim::image::NvmImage;
use adcc_sim::line::LINE_SIZE;
use adcc_sim::parray::PArray;
use adcc_sim::system::MemorySystem;

/// Header words per slot: sequence, complete flag, payload length, checksum.
const HDR_WORDS: usize = 4;

/// Persistent addresses of a checkpoint structure (for post-crash
/// re-attachment).
#[derive(Debug, Clone, Copy)]
pub struct MemCheckpointLayout {
    pub header_base: u64,
    pub slot_base: [u64; 2],
    pub slot_bytes: usize,
}

/// A double-buffered NVM checkpoint area. The manager holds only
/// persistent addresses (all payload lives in the simulated NVM), so
/// cloning it — as distributed batch replays do with their kernels — is a
/// handle copy, not a data copy.
#[derive(Clone)]
pub struct MemCheckpoint {
    header: PArray<u64>,
    slots: [PArray<u8>; 2],
    slot_bytes: usize,
    /// Drain the volatile DRAM cache as part of every checkpoint (the
    /// paper's heterogeneous-platform behaviour).
    pub drain_dram: bool,
}

/// Simple 64-bit FNV-style rolling checksum over payload bytes.
fn checksum(acc: u64, chunk: &[u8]) -> u64 {
    let mut h = acc;
    for &b in chunk {
        h = h.wrapping_mul(0x100000001b3) ^ b as u64;
    }
    h
}

impl MemCheckpoint {
    /// Allocate a checkpoint area able to hold `max_bytes` of payload.
    pub fn new(sys: &mut MemorySystem, max_bytes: usize, drain_dram: bool) -> Self {
        let header = PArray::<u64>::alloc_nvm(sys, 2 * HDR_WORDS);
        header.fill(sys, 0);
        header.persist_all(sys);
        sys.sfence();
        let slots = [
            PArray::<u8>::alloc_nvm(sys, max_bytes),
            PArray::<u8>::alloc_nvm(sys, max_bytes),
        ];
        MemCheckpoint {
            header,
            slots,
            slot_bytes: max_bytes,
            drain_dram,
        }
    }

    /// The persistent layout (for recovery re-attachment).
    pub fn layout(&self) -> MemCheckpointLayout {
        MemCheckpointLayout {
            header_base: self.header.base(),
            slot_base: [self.slots[0].base(), self.slots[1].base()],
            slot_bytes: self.slot_bytes,
        }
    }

    /// Re-attach to an existing checkpoint area.
    pub fn attach(layout: MemCheckpointLayout, drain_dram: bool) -> Self {
        MemCheckpoint {
            header: PArray::new(layout.header_base, 2 * HDR_WORDS),
            slots: [
                PArray::new(layout.slot_base[0], layout.slot_bytes),
                PArray::new(layout.slot_base[1], layout.slot_bytes),
            ],
            slot_bytes: layout.slot_bytes,
            drain_dram,
        }
    }

    fn slot_seq(&self, sys: &mut MemorySystem, s: usize) -> (u64, bool) {
        let seq = self.header.get(sys, s * HDR_WORDS);
        let complete = self.header.get(sys, s * HDR_WORDS + 1) == 1;
        (seq, complete)
    }

    /// Take a checkpoint of `regions` (list of `(addr, len)` in simulated
    /// memory). Returns the new checkpoint sequence number.
    pub fn checkpoint(&self, sys: &mut MemorySystem, regions: &[(u64, usize)]) -> u64 {
        let total: usize = regions.iter().map(|r| r.1).sum();
        assert!(
            total <= self.slot_bytes,
            "checkpoint payload {total} exceeds slot capacity {}",
            self.slot_bytes
        );
        let (seq0, _) = self.slot_seq(sys, 0);
        let (seq1, _) = self.slot_seq(sys, 1);
        let target = if seq0 <= seq1 { 0 } else { 1 };
        let new_seq = seq0.max(seq1) + 1;
        let slot = self.slots[target];

        // (1) Invalidate the target slot before touching its payload.
        self.header.set(sys, target * HDR_WORDS + 1, 0);
        sys.persist_line(self.header.addr(target * HDR_WORDS + 1));
        sys.sfence();

        // (2) Copy all regions into the slot (charged), checksumming.
        let prev = sys.clock_mut().set_bucket(Bucket::CkptCopy);
        let mut off = 0usize;
        let mut cksum = 0xcbf29ce484222325u64;
        let mut buf = [0u8; LINE_SIZE];
        for &(addr, len) in regions {
            let mut done = 0usize;
            while done < len {
                let take = LINE_SIZE.min(len - done);
                sys.read_bytes(addr + done as u64, &mut buf[..take]);
                sys.write_bytes(slot.base() + (off + done) as u64, &buf[..take]);
                cksum = checksum(cksum, &buf[..take]);
                done += take;
            }
            off += len;
        }

        // (3) Persist the payload; on the heterogeneous platform also
        // drain the volatile DRAM cache (the paper's "flushing the DRAM
        // cache using memory copy").
        sys.clock_mut().set_bucket(Bucket::Flush);
        sys.persist_range(slot.base(), total);
        if self.drain_dram {
            sys.drain_dram_cache();
        }
        sys.sfence();

        // (4) Publish the new header.
        self.header.set(sys, target * HDR_WORDS, new_seq);
        self.header.set(sys, target * HDR_WORDS + 1, 1);
        self.header.set(sys, target * HDR_WORDS + 2, total as u64);
        self.header.set(sys, target * HDR_WORDS + 3, cksum);
        sys.persist_range(self.header.addr(target * HDR_WORDS), HDR_WORDS * 8);
        sys.sfence();
        sys.clock_mut().set_bucket(prev);
        new_seq
    }

    /// Restore the newest complete, checksum-valid checkpoint back into
    /// `regions`. Returns its sequence number, or `None` if no valid
    /// checkpoint exists.
    pub fn restore(&self, sys: &mut MemorySystem, regions: &[(u64, usize)]) -> Option<u64> {
        let mut candidates = [0, 1].map(|s| {
            let seq = self.header.get(sys, s * HDR_WORDS);
            let complete = self.header.get(sys, s * HDR_WORDS + 1) == 1;
            (complete && seq > 0).then_some((seq, s))
        });
        // Newest first.
        candidates.sort_unstable();
        for (seq, s) in candidates.into_iter().rev().flatten() {
            let total = self.header.get(sys, s * HDR_WORDS + 2) as usize;
            let want = self.header.get(sys, s * HDR_WORDS + 3);
            let slot = self.slots[s];
            // Verify checksum (charged reads).
            let mut cksum = 0xcbf29ce484222325u64;
            let mut buf = [0u8; LINE_SIZE];
            let mut done = 0usize;
            while done < total {
                let take = LINE_SIZE.min(total - done);
                sys.read_bytes(slot.base() + done as u64, &mut buf[..take]);
                cksum = checksum(cksum, &buf[..take]);
                done += take;
            }
            if cksum != want {
                continue; // torn slot, try the older one
            }
            // Copy payload back into the registered regions.
            let mut off = 0usize;
            for &(addr, len) in regions {
                let mut done = 0usize;
                while done < len {
                    let take = LINE_SIZE.min(len - done);
                    sys.read_bytes(slot.base() + (off + done) as u64, &mut buf[..take]);
                    sys.write_bytes(addr + done as u64, &buf[..take]);
                    done += take;
                }
                off += len;
            }
            return Some(seq);
        }
        None
    }

    /// Quick image-level query: newest complete sequence number, if any
    /// (checksum not verified — use [`MemCheckpoint::restore`] for that).
    pub fn newest_seq_in_image(layout: &MemCheckpointLayout, image: &NvmImage) -> Option<u64> {
        let mut best = None;
        for s in 0..2u64 {
            let seq = image.read_u64(layout.header_base + s * (HDR_WORDS as u64 * 8));
            let complete = image.read_u64(layout.header_base + s * (HDR_WORDS as u64 * 8) + 8) == 1;
            if complete && seq > 0 {
                best = best.max(Some(seq));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcc_sim::system::SystemConfig;

    fn sys() -> MemorySystem {
        MemorySystem::new(SystemConfig::nvm_only(4096, 1 << 20))
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let mut s = sys();
        let a = PArray::<f64>::alloc_nvm(&mut s, 32);
        let b = PArray::<f64>::alloc_nvm(&mut s, 16);
        a.store_slice(&mut s, &[1.5; 32]);
        b.store_slice(&mut s, &[2.5; 16]);
        let regions = [(a.base(), a.byte_len()), (b.base(), b.byte_len())];

        let ck = MemCheckpoint::new(&mut s, 4096, false);
        let seq = ck.checkpoint(&mut s, &regions);
        assert_eq!(seq, 1);

        // Clobber live data, then restore.
        a.fill(&mut s, 0.0);
        b.fill(&mut s, 0.0);
        let got = ck.restore(&mut s, &regions);
        assert_eq!(got, Some(1));
        assert_eq!(a.load_vec(&mut s), vec![1.5; 32]);
        assert_eq!(b.load_vec(&mut s), vec![2.5; 16]);
    }

    #[test]
    fn checkpoint_survives_crash() {
        let mut s = sys();
        let a = PArray::<f64>::alloc_nvm(&mut s, 8);
        a.store_slice(&mut s, &[3.0; 8]);
        let regions = [(a.base(), a.byte_len())];
        let ck = MemCheckpoint::new(&mut s, 1024, false);
        ck.checkpoint(&mut s, &regions);
        let layout = ck.layout();

        let img = s.crash();
        assert_eq!(MemCheckpoint::newest_seq_in_image(&layout, &img), Some(1));

        // Boot from image and restore.
        let mut s2 = MemorySystem::from_image(SystemConfig::nvm_only(4096, 1 << 20), &img);
        let ck2 = MemCheckpoint::attach(layout, false);
        assert_eq!(ck2.restore(&mut s2, &regions), Some(1));
        assert_eq!(a.load_vec(&mut s2), vec![3.0; 8]);
    }

    #[test]
    fn alternating_slots_keep_previous_valid() {
        let mut s = sys();
        let a = PArray::<u64>::alloc_nvm(&mut s, 8);
        let regions = [(a.base(), a.byte_len())];
        let ck = MemCheckpoint::new(&mut s, 1024, false);
        a.store_slice(&mut s, &[1; 8]);
        assert_eq!(ck.checkpoint(&mut s, &regions), 1);
        a.store_slice(&mut s, &[2; 8]);
        assert_eq!(ck.checkpoint(&mut s, &regions), 2);
        a.store_slice(&mut s, &[3; 8]);
        assert_eq!(ck.checkpoint(&mut s, &regions), 3);
        // Restore newest.
        a.fill(&mut s, 0);
        assert_eq!(ck.restore(&mut s, &regions), Some(3));
        assert_eq!(a.load_vec(&mut s), vec![3; 8]);
    }

    #[test]
    fn torn_checkpoint_falls_back_to_previous() {
        let mut s = sys();
        let a = PArray::<u64>::alloc_nvm(&mut s, 8);
        let regions = [(a.base(), a.byte_len())];
        let ck = MemCheckpoint::new(&mut s, 1024, false);
        a.store_slice(&mut s, &[1; 8]);
        ck.checkpoint(&mut s, &regions);
        // Begin a second checkpoint but "crash" before the header publish:
        // emulate by invalidating slot and scribbling payload.
        a.store_slice(&mut s, &[2; 8]);
        let target = 1; // slot 0 holds seq 1, next target is slot 1
        ck.header.set(&mut s, target * HDR_WORDS + 1, 0);
        s.persist_line(ck.header.addr(target * HDR_WORDS + 1));
        let img = s.crash();

        let mut s2 = MemorySystem::from_image(SystemConfig::nvm_only(4096, 1 << 20), &img);
        let ck2 = MemCheckpoint::attach(ck.layout(), false);
        // The incomplete slot is ignored; seq-1 restores.
        assert_eq!(ck2.restore(&mut s2, &regions), Some(1));
        assert_eq!(a.load_vec(&mut s2), vec![1; 8]);
    }

    #[test]
    fn copy_and_flush_costs_are_attributed() {
        let mut s = sys();
        let a = PArray::<f64>::alloc_nvm(&mut s, 512);
        let regions = [(a.base(), a.byte_len())];
        let ck = MemCheckpoint::new(&mut s, 8192, false);
        ck.checkpoint(&mut s, &regions);
        assert!(s.clock().bucket_total(Bucket::CkptCopy).ps() > 0);
        assert!(s.clock().bucket_total(Bucket::Flush).ps() > 0);
    }

    #[test]
    #[should_panic(expected = "exceeds slot capacity")]
    fn oversize_payload_panics() {
        let mut s = sys();
        let a = PArray::<f64>::alloc_nvm(&mut s, 512);
        let ck = MemCheckpoint::new(&mut s, 64, false);
        ck.checkpoint(&mut s, &[(a.base(), a.byte_len())]);
    }
}
