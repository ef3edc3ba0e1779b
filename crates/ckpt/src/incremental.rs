//! Incremental checkpointing (paper §I, refs \[4\]–\[7\]).
//!
//! The paper's introduction lists incremental checkpointing — "only
//! checkpoints modified data to reduce checkpoint size" — among the
//! classic attacks on checkpoint overhead. This module implements the
//! compiler-assisted variant (Bronevetsky et al. \[7\]): the application
//! reports the ranges it wrote via [`IncrementalCheckpoint::mark_dirty`],
//! and each checkpoint copies only the dirty **pages** of the registered
//! regions.
//!
//! ## Protocol
//!
//! Two payload slots alternate, as in [`crate::mem::MemCheckpoint`], but a
//! slot is updated *in place*: pages that did not change since the slot
//! was last written are left untouched and remain valid. Correctness
//! requires tracking dirtiness **per slot** (a page modified during epoch
//! `k` must be re-copied into *both* slots, which are written at different
//! times), so the manager keeps one dirty bitmap per slot; `mark_dirty`
//! sets the page bits in both. Per-page checksums stored beside each slot
//! let restore verify integrity page by page.
//!
//! Dirty bitmaps are volatile (exactly like hardware dirty bits or
//! write-protection faults): after a crash, [`IncrementalCheckpoint::attach`]
//! conservatively marks everything dirty, so the first post-recovery
//! checkpoint is a full one.

use adcc_sim::clock::Bucket;
use adcc_sim::image::NvmImage;
use adcc_sim::line::LINE_SIZE;
use adcc_sim::parray::PArray;
use adcc_sim::system::MemorySystem;

/// Header words per slot: sequence, complete flag, payload length, unused.
const HDR_WORDS: usize = 4;

/// FNV-style checksum over one page.
fn page_checksum(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h = h.wrapping_mul(0x100000001b3) ^ b as u64;
    }
    h
}

/// Persistent addresses of an incremental checkpoint structure.
#[derive(Debug, Clone, Copy)]
pub struct IncrementalLayout {
    pub header_base: u64,
    pub slot_base: [u64; 2],
    pub cksum_base: [u64; 2],
    pub payload_bytes: usize,
    pub page_size: usize,
}

/// What one checkpoint call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrementalReport {
    /// New checkpoint sequence number.
    pub seq: u64,
    /// Pages actually copied.
    pub pages_copied: usize,
    /// Total pages in the payload.
    pub pages_total: usize,
}

/// A page-granular, dirty-tracking, double-buffered NVM checkpoint.
pub struct IncrementalCheckpoint {
    regions: Vec<(u64, usize)>,
    /// Flat payload offset of each region (prefix sums of lengths).
    region_off: Vec<usize>,
    payload_bytes: usize,
    page_size: usize,
    pages: usize,
    header: PArray<u64>,
    slots: [PArray<u8>; 2],
    cksums: [PArray<u64>; 2],
    /// Volatile per-slot dirty bitmaps.
    dirty: [Vec<bool>; 2],
    /// Drain the volatile DRAM cache as part of every checkpoint.
    pub drain_dram: bool,
}

impl IncrementalCheckpoint {
    /// Register `regions` and allocate the checkpoint area. `page_size`
    /// is the dirty-tracking granularity (bytes; multiple of the line
    /// size).
    pub fn new(
        sys: &mut MemorySystem,
        regions: Vec<(u64, usize)>,
        page_size: usize,
        drain_dram: bool,
    ) -> Self {
        assert!(
            page_size >= LINE_SIZE && page_size.is_multiple_of(LINE_SIZE),
            "page size {page_size} must be a positive multiple of {LINE_SIZE}"
        );
        let mut region_off = Vec::with_capacity(regions.len());
        let mut payload_bytes = 0usize;
        for &(_, len) in &regions {
            region_off.push(payload_bytes);
            payload_bytes += len;
        }
        let pages = payload_bytes.div_ceil(page_size);
        let header = PArray::<u64>::alloc_nvm(sys, 2 * HDR_WORDS);
        header.fill(sys, 0);
        header.persist_all(sys);
        sys.sfence();
        let slots = [
            PArray::<u8>::alloc_nvm(sys, payload_bytes.max(1)),
            PArray::<u8>::alloc_nvm(sys, payload_bytes.max(1)),
        ];
        let cksums = [
            PArray::<u64>::alloc_nvm(sys, pages.max(1)),
            PArray::<u64>::alloc_nvm(sys, pages.max(1)),
        ];
        IncrementalCheckpoint {
            regions,
            region_off,
            payload_bytes,
            page_size,
            pages,
            header,
            slots,
            cksums,
            // Everything dirty: the first checkpoint into each slot is full.
            dirty: [vec![true; pages], vec![true; pages]],
            drain_dram,
        }
    }

    /// The persistent layout (for recovery re-attachment).
    pub fn layout(&self) -> IncrementalLayout {
        IncrementalLayout {
            header_base: self.header.base(),
            slot_base: [self.slots[0].base(), self.slots[1].base()],
            cksum_base: [self.cksums[0].base(), self.cksums[1].base()],
            payload_bytes: self.payload_bytes,
            page_size: self.page_size,
        }
    }

    /// Re-attach after a crash. Dirty tracking was volatile, so all pages
    /// are conservatively dirty.
    pub fn attach(layout: IncrementalLayout, regions: Vec<(u64, usize)>, drain_dram: bool) -> Self {
        let mut region_off = Vec::with_capacity(regions.len());
        let mut payload_bytes = 0usize;
        for &(_, len) in &regions {
            region_off.push(payload_bytes);
            payload_bytes += len;
        }
        assert_eq!(payload_bytes, layout.payload_bytes, "region set changed");
        let pages = payload_bytes.div_ceil(layout.page_size);
        IncrementalCheckpoint {
            regions,
            region_off,
            payload_bytes,
            page_size: layout.page_size,
            pages,
            header: PArray::new(layout.header_base, 2 * HDR_WORDS),
            slots: [
                PArray::new(layout.slot_base[0], layout.payload_bytes.max(1)),
                PArray::new(layout.slot_base[1], layout.payload_bytes.max(1)),
            ],
            cksums: [
                PArray::new(layout.cksum_base[0], pages.max(1)),
                PArray::new(layout.cksum_base[1], pages.max(1)),
            ],
            dirty: [vec![true; pages], vec![true; pages]],
            drain_dram,
        }
    }

    /// Total pages in the payload.
    pub fn pages_total(&self) -> usize {
        self.pages
    }

    /// Report that the application wrote `[addr, addr + len)`. Ranges
    /// outside the registered regions are ignored.
    pub fn mark_dirty(&mut self, addr: u64, len: usize) {
        if len == 0 {
            return;
        }
        for (i, &(base, rlen)) in self.regions.iter().enumerate() {
            let lo = addr.max(base);
            let hi = (addr + len as u64).min(base + rlen as u64);
            if lo >= hi {
                continue;
            }
            let flat_lo = self.region_off[i] + (lo - base) as usize;
            let flat_hi = self.region_off[i] + (hi - base) as usize;
            let first = flat_lo / self.page_size;
            let last = (flat_hi - 1) / self.page_size;
            for p in first..=last {
                self.dirty[0][p] = true;
                self.dirty[1][p] = true;
            }
        }
    }

    /// Mark the whole payload dirty (forces a full checkpoint next).
    pub fn mark_all_dirty(&mut self) {
        self.dirty[0].iter_mut().for_each(|d| *d = true);
        self.dirty[1].iter_mut().for_each(|d| *d = true);
    }

    fn slot_seq(&self, sys: &mut MemorySystem, s: usize) -> u64 {
        self.header.get(sys, s * HDR_WORDS)
    }

    /// Take an incremental checkpoint: copy only the target slot's dirty
    /// pages, persist them and their checksums, publish the header.
    pub fn checkpoint(&mut self, sys: &mut MemorySystem) -> IncrementalReport {
        let seq0 = self.slot_seq(sys, 0);
        let seq1 = self.slot_seq(sys, 1);
        let target = if seq0 <= seq1 { 0 } else { 1 };
        let new_seq = seq0.max(seq1) + 1;
        let slot = self.slots[target];
        let cks = self.cksums[target];

        // (1) Invalidate the target slot header.
        self.header.set(sys, target * HDR_WORDS + 1, 0);
        sys.persist_line(self.header.addr(target * HDR_WORDS + 1));
        sys.sfence();

        // (2) Copy dirty pages only (charged), updating their checksums.
        let prev = sys.clock_mut().set_bucket(Bucket::CkptCopy);
        let mut copied = 0usize;
        let mut page_buf = vec![0u8; self.page_size];
        for p in 0..self.pages {
            if !self.dirty[target][p] {
                continue;
            }
            copied += 1;
            let off = p * self.page_size;
            let len = self.page_size.min(self.payload_bytes - off);
            self.read_payload(sys, off, &mut page_buf[..len]);
            sys.write_bytes(slot.base() + off as u64, &page_buf[..len]);
            cks.set(sys, p, page_checksum(&page_buf[..len]));

            // (3, interleaved) Persist the page and its checksum.
            sys.clock_mut().set_bucket(Bucket::Flush);
            sys.persist_range(slot.base() + off as u64, len);
            sys.persist_line(cks.addr(p));
            sys.clock_mut().set_bucket(Bucket::CkptCopy);

            self.dirty[target][p] = false;
        }
        sys.clock_mut().set_bucket(Bucket::Flush);
        if self.drain_dram {
            sys.drain_dram_cache();
        }
        sys.sfence();

        // (4) Publish the new header.
        self.header.set(sys, target * HDR_WORDS, new_seq);
        self.header.set(sys, target * HDR_WORDS + 1, 1);
        self.header
            .set(sys, target * HDR_WORDS + 2, self.payload_bytes as u64);
        sys.persist_range(self.header.addr(target * HDR_WORDS), HDR_WORDS * 8);
        sys.sfence();
        sys.clock_mut().set_bucket(prev);

        IncrementalReport {
            seq: new_seq,
            pages_copied: copied,
            pages_total: self.pages,
        }
    }

    /// Charged read of the flat payload range `[off, off + buf.len())`
    /// from the live regions.
    fn read_payload(&self, sys: &mut MemorySystem, off: usize, buf: &mut [u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let flat = off + done;
            // Find the region containing flat offset (regions are few).
            let (i, r_off) = self
                .region_off
                .iter()
                .enumerate()
                .rev()
                .find(|&(_, &ro)| ro <= flat)
                .map(|(i, &ro)| (i, ro))
                .expect("offset within payload");
            let (base, rlen) = self.regions[i];
            let in_region = flat - r_off;
            let take = (rlen - in_region).min(buf.len() - done).min(LINE_SIZE);
            sys.read_bytes(base + in_region as u64, &mut buf[done..done + take]);
            done += take;
        }
    }

    /// Charged write of the flat payload range back into the live regions.
    fn write_payload(&self, sys: &mut MemorySystem, off: usize, buf: &[u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let flat = off + done;
            let (i, r_off) = self
                .region_off
                .iter()
                .enumerate()
                .rev()
                .find(|&(_, &ro)| ro <= flat)
                .map(|(i, &ro)| (i, ro))
                .expect("offset within payload");
            let (base, rlen) = self.regions[i];
            let in_region = flat - r_off;
            let take = (rlen - in_region).min(buf.len() - done).min(LINE_SIZE);
            sys.write_bytes(base + in_region as u64, &buf[done..done + take]);
            done += take;
        }
    }

    /// Restore the newest complete slot whose pages all verify. Returns its
    /// sequence number.
    pub fn restore(&self, sys: &mut MemorySystem) -> Option<u64> {
        let mut candidates: Vec<(u64, usize)> = Vec::new();
        for s in 0..2 {
            let seq = self.header.get(sys, s * HDR_WORDS);
            let complete = self.header.get(sys, s * HDR_WORDS + 1) == 1;
            if complete && seq > 0 {
                candidates.push((seq, s));
            }
        }
        candidates.sort_unstable();
        let mut page_buf = vec![0u8; self.page_size];
        'slot: while let Some((seq, s)) = candidates.pop() {
            let slot = self.slots[s];
            let cks = self.cksums[s];
            // Verify every page first.
            for p in 0..self.pages {
                let off = p * self.page_size;
                let len = self.page_size.min(self.payload_bytes - off);
                sys.read_bytes(slot.base() + off as u64, &mut page_buf[..len]);
                if page_checksum(&page_buf[..len]) != cks.get(sys, p) {
                    continue 'slot;
                }
            }
            // All pages verified: copy back.
            for p in 0..self.pages {
                let off = p * self.page_size;
                let len = self.page_size.min(self.payload_bytes - off);
                sys.read_bytes(slot.base() + off as u64, &mut page_buf[..len]);
                self.write_payload(sys, off, &page_buf[..len]);
            }
            return Some(seq);
        }
        None
    }

    /// Image-level query: newest complete sequence number, if any.
    pub fn newest_seq_in_image(layout: &IncrementalLayout, image: &NvmImage) -> Option<u64> {
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
        MemorySystem::new(SystemConfig::nvm_only(4096, 4 << 20))
    }

    fn setup(s: &mut MemorySystem, n: usize) -> (PArray<f64>, IncrementalCheckpoint) {
        let a = PArray::<f64>::alloc_nvm(s, n);
        let regions = vec![(a.base(), a.byte_len())];
        let ck = IncrementalCheckpoint::new(s, regions, 128, false);
        (a, ck)
    }

    #[test]
    fn first_checkpoint_is_full() {
        let mut s = sys();
        let (a, mut ck) = setup(&mut s, 64); // 512 B = 4 pages of 128 B
        a.fill(&mut s, 1.0);
        let r = ck.checkpoint(&mut s);
        assert_eq!(r.seq, 1);
        assert_eq!(r.pages_total, 4);
        assert_eq!(r.pages_copied, 4);
    }

    #[test]
    fn unchanged_data_copies_nothing_after_warmup() {
        let mut s = sys();
        let (a, mut ck) = setup(&mut s, 64);
        a.fill(&mut s, 1.0);
        ck.checkpoint(&mut s); // slot A full
        ck.checkpoint(&mut s); // slot B full
        let r = ck.checkpoint(&mut s); // nothing dirty
        assert_eq!(r.pages_copied, 0);
    }

    #[test]
    fn only_dirty_pages_are_copied() {
        let mut s = sys();
        let (a, mut ck) = setup(&mut s, 64);
        a.fill(&mut s, 1.0);
        ck.checkpoint(&mut s);
        ck.checkpoint(&mut s);
        // Touch one element -> one 128 B page.
        a.set(&mut s, 3, 9.0);
        ck.mark_dirty(a.addr(3), 8);
        let r = ck.checkpoint(&mut s);
        assert_eq!(r.pages_copied, 1);
    }

    #[test]
    fn restore_roundtrip_after_incremental_updates() {
        let mut s = sys();
        let (a, mut ck) = setup(&mut s, 64);
        for i in 0..64 {
            a.set(&mut s, i, i as f64);
        }
        ck.checkpoint(&mut s);
        a.set(&mut s, 10, 100.0);
        ck.mark_dirty(a.addr(10), 8);
        ck.checkpoint(&mut s);
        // Clobber and restore: must see the seq-2 state.
        a.fill(&mut s, -1.0);
        assert_eq!(ck.restore(&mut s), Some(2));
        assert_eq!(a.get(&mut s, 10), 100.0);
        assert_eq!(a.get(&mut s, 11), 11.0);
    }

    #[test]
    fn slot_alternation_needs_per_slot_dirty_tracking() {
        // A page dirtied once must be re-copied into BOTH slots, otherwise
        // restoring the older slot would resurrect stale data.
        let mut s = sys();
        let (a, mut ck) = setup(&mut s, 64);
        a.fill(&mut s, 1.0);
        ck.checkpoint(&mut s); // seq 1 -> slot 0
        ck.checkpoint(&mut s); // seq 2 -> slot 1
        a.set(&mut s, 0, 7.0);
        ck.mark_dirty(a.addr(0), 8);
        let r3 = ck.checkpoint(&mut s); // seq 3 -> slot 0, copies page 0
        assert_eq!(r3.pages_copied, 1);
        let r4 = ck.checkpoint(&mut s); // seq 4 -> slot 1, must copy it too
        assert_eq!(r4.pages_copied, 1);
        a.fill(&mut s, 0.0);
        assert_eq!(ck.restore(&mut s), Some(4));
        assert_eq!(a.get(&mut s, 0), 7.0);
    }

    #[test]
    fn crash_recovery_restores_last_published_state() {
        let mut s = sys();
        let (a, mut ck) = setup(&mut s, 64);
        for i in 0..64 {
            a.set(&mut s, i, i as f64 + 1.0);
        }
        ck.checkpoint(&mut s);
        a.set(&mut s, 5, 555.0);
        ck.mark_dirty(a.addr(5), 8);
        ck.checkpoint(&mut s);
        let layout = ck.layout();
        let regions = vec![(a.base(), a.byte_len())];
        let img = s.crash();
        assert_eq!(
            IncrementalCheckpoint::newest_seq_in_image(&layout, &img),
            Some(2)
        );
        let mut s2 = MemorySystem::from_image(SystemConfig::nvm_only(4096, 4 << 20), &img);
        let ck2 = IncrementalCheckpoint::attach(layout, regions, false);
        assert_eq!(ck2.restore(&mut s2), Some(2));
        assert_eq!(a.get(&mut s2, 5), 555.0);
        assert_eq!(a.get(&mut s2, 6), 7.0);
    }

    #[test]
    fn incremental_is_cheaper_than_full_for_sparse_updates() {
        // Full checkpoint of 8 KiB vs incremental with one dirty page.
        let mut s = sys();
        let a = PArray::<f64>::alloc_nvm(&mut s, 1024);
        let regions = vec![(a.base(), a.byte_len())];
        let mut ck = IncrementalCheckpoint::new(&mut s, regions, 512, false);
        a.fill(&mut s, 1.0);
        ck.checkpoint(&mut s);
        ck.checkpoint(&mut s);

        a.set(&mut s, 0, 2.0);
        ck.mark_dirty(a.addr(0), 8);
        let t0 = s.now();
        let r = ck.checkpoint(&mut s);
        let incr_cost = s.now() - t0;
        assert_eq!(r.pages_copied, 1);

        a.set(&mut s, 0, 3.0);
        ck.mark_all_dirty();
        let t0 = s.now();
        let r = ck.checkpoint(&mut s);
        let full_cost = s.now() - t0;
        assert_eq!(r.pages_copied, r.pages_total);
        assert!(
            incr_cost.ps() * 4 < full_cost.ps(),
            "incremental {incr_cost} should be far below full {full_cost}"
        );
    }

    #[test]
    fn multi_region_dirty_mapping() {
        let mut s = sys();
        let a = PArray::<f64>::alloc_nvm(&mut s, 32);
        let b = PArray::<f64>::alloc_nvm(&mut s, 32);
        let regions = vec![(a.base(), a.byte_len()), (b.base(), b.byte_len())];
        let mut ck = IncrementalCheckpoint::new(&mut s, regions, 128, false);
        a.fill(&mut s, 1.0);
        b.fill(&mut s, 2.0);
        ck.checkpoint(&mut s);
        ck.checkpoint(&mut s);
        // Dirty only b's second page.
        b.set(&mut s, 20, 9.0);
        ck.mark_dirty(b.addr(20), 8);
        let r = ck.checkpoint(&mut s);
        assert_eq!(r.pages_copied, 1);
        b.fill(&mut s, 0.0);
        a.fill(&mut s, 0.0);
        assert_eq!(ck.restore(&mut s), Some(3));
        assert_eq!(b.get(&mut s, 20), 9.0);
        assert_eq!(a.get(&mut s, 0), 1.0);
    }

    #[test]
    fn out_of_range_marks_are_ignored() {
        let mut s = sys();
        let (_a, mut ck) = setup(&mut s, 64);
        ck.checkpoint(&mut s);
        ck.checkpoint(&mut s);
        ck.mark_dirty(0xDEAD_0000, 64);
        assert_eq!(ck.checkpoint(&mut s).pages_copied, 0);
    }
}
