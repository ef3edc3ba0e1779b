//! Byte-addressable backing stores for the simulated media.
//!
//! The NVM backing store is the ground truth at crash time: whatever bytes
//! it holds when volatile levels are discarded is exactly what a recovery
//! process can observe.

use std::ops::Range;

use crate::line::{outside, LINE_SHIFT, LINE_SIZE};

/// Copy `buf.len()` bytes at offset `off` out of a pool stored as its
/// written `prefix`: bytes past the prefix read as zero. The caller has
/// already bounds-checked the range against the pool's logical length.
#[inline]
pub(crate) fn read_padded(prefix: &[u8], off: usize, buf: &mut [u8]) {
    let have = prefix.len().saturating_sub(off).min(buf.len());
    if have > 0 {
        buf[..have].copy_from_slice(&prefix[off..off + have]);
    }
    buf[have..].fill(0);
}

/// Write `src` at offset `off` of a pool stored as its written `prefix`,
/// materializing the zero fill up to the end of the write first.
///
/// A prefix that has to grow takes an eighth of its capacity as slack, not
/// the doubling `Vec::resize` would: a machine booted from an image holds
/// the image's prefix exactly, its first write past it used to double that
/// allocation, and a campaign keeps several such machines alive per worker.
/// Growth stays geometric, so a run that extends its pool line by line
/// still copies O(final size) bytes in total.
#[inline]
pub(crate) fn write_growing(prefix: &mut Vec<u8>, off: usize, src: &[u8]) {
    let end = off + src.len();
    if end > prefix.len() {
        if end > prefix.capacity() {
            let room = end.max(prefix.capacity() + prefix.capacity() / 8);
            prefix.reserve_exact(room - prefix.len());
        }
        prefix.resize(end, 0);
    }
    prefix[off..end].copy_from_slice(src);
}

/// Length of `bytes` without its trailing zeros. Chunked comparison so a
/// long zero tail is scanned at memcmp speed, not byte-at-a-time.
pub(crate) fn trimmed_len(bytes: &[u8]) -> usize {
    const CHUNK: usize = 1024;
    const ZERO: [u8; CHUNK] = [0; CHUNK];
    let mut live = bytes.len();
    while live >= CHUNK && bytes[live - CHUNK..live] == ZERO {
        live -= CHUNK;
    }
    while live > 0 && bytes[live - 1] == 0 {
        live -= 1;
    }
    live
}

/// A flat byte store with a base address.
///
/// The store can optionally journal writes at line granularity (see
/// [`Backing::mark_journal`]): after a mark, the distinct lines written are
/// recorded, which is what lets a crash-image fork capture only the lines
/// that changed since a base snapshot instead of copying the whole pool.
///
/// Storage is materialized lazily: `bytes` holds only the written prefix
/// of the pool, and everything from `bytes.len()` up to `cap` is logically
/// zero. A simulated pool is typically far larger than the data living in
/// it, so this keeps [`Clone`] — the engine of cluster forks in batched
/// crash replays — O(live data) instead of O(pool capacity).
/// [`Clone::clone_from`] copies into the target's own buffers, so a
/// recycled store whose buffers are large enough allocates nothing.
pub struct Backing {
    base: u64,
    /// The written prefix of the pool; offsets beyond `bytes.len()` (up to
    /// `cap`) read as zero. Grows on write, never past `cap`.
    bytes: Vec<u8>,
    /// Logical pool capacity in bytes.
    cap: usize,
    /// Monotonic epoch; bumped by [`Backing::mark_journal`] and by the
    /// whole-store mutations ([`Backing::restore`], [`Backing::wipe`]) that
    /// invalidate any outstanding journal consumer.
    journal_epoch: u64,
    /// Per-line epoch of the last journal entry (avoids duplicate pushes).
    /// Like `bytes` it spans only the lines written so far, not the pool:
    /// a line past its end has never been journaled (epoch 0).
    line_mark: Vec<u64>,
    /// Distinct lines written since the last mark (unsorted).
    journal: Vec<u64>,
    journaling: bool,
}

impl Clone for Backing {
    fn clone(&self) -> Self {
        Backing {
            bytes: self.bytes.clone(),
            line_mark: self.line_mark.clone(),
            journal: self.journal.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        // Exhaustive, so a new field cannot be left stale in a recycled
        // store; `Vec::clone_from` truncates, so a longer prefix, mark
        // table or journal in the target never survives.
        let Backing {
            base,
            bytes,
            cap,
            journal_epoch,
            line_mark,
            journal,
            journaling,
        } = source;
        self.base = *base;
        self.bytes.clone_from(bytes);
        self.cap = *cap;
        self.journal_epoch = *journal_epoch;
        self.line_mark.clone_from(line_mark);
        self.journal.clone_from(journal);
        self.journaling = *journaling;
    }
}

impl Backing {
    /// Create a zero-initialized store of `capacity` bytes starting at
    /// simulated address `base`. The base must be line-aligned.
    pub fn new(base: u64, capacity: usize) -> Self {
        assert_eq!(base % LINE_SIZE as u64, 0, "base must be line-aligned");
        Backing {
            base,
            bytes: Vec::new(),
            cap: capacity,
            journal_epoch: 0,
            line_mark: Vec::new(),
            journal: Vec::new(),
            journaling: false,
        }
    }

    /// Start (or restart) the write journal: clears any previous journal
    /// and returns the new journal epoch. From now on every line written
    /// is recorded once; [`Backing::journal_lines`] lists them. The
    /// per-line mark table behind that grows with the highest line
    /// journaled (12.5% of the *written* span, not of the pool) — stores
    /// that never journal never pay for it.
    pub fn mark_journal(&mut self) -> u64 {
        self.journal_epoch += 1;
        self.journal.clear();
        self.journaling = true;
        self.journal_epoch
    }

    /// Stop journaling and free the per-line mark table. Invalidates the
    /// outstanding journal consumer like [`Backing::restore`] does (the
    /// epoch moves on), so a fork against a base taken before this call is
    /// caught as stale instead of silently missing lines.
    pub fn end_journal(&mut self) {
        self.journal_epoch += 1;
        self.journaling = false;
        self.journal = Vec::new();
        self.line_mark = Vec::new();
    }

    /// The current journal epoch (compare against the epoch returned by
    /// [`Backing::mark_journal`] to detect a stale journal consumer).
    pub fn journal_epoch(&self) -> u64 {
        self.journal_epoch
    }

    /// Distinct lines written since the last [`Backing::mark_journal`]
    /// (unsorted; empty when journaling is off).
    pub fn journal_lines(&self) -> &[u64] {
        &self.journal
    }

    #[inline]
    fn note_line(&mut self, line: u64) {
        if !self.journaling {
            return;
        }
        let idx = (line - (self.base >> LINE_SHIFT)) as usize;
        debug_assert!(idx < self.cap.div_ceil(LINE_SIZE), "line past the pool");
        if idx >= self.line_mark.len() {
            // Epoch 0 is never current: `mark_journal` starts at 1.
            self.line_mark.resize(idx + 1, 0);
        }
        if self.line_mark[idx] != self.journal_epoch {
            self.line_mark[idx] = self.journal_epoch;
            self.journal.push(line);
        }
    }

    #[inline]
    fn note_range(&mut self, addr: u64, len: usize) {
        if !self.journaling || len == 0 {
            return;
        }
        let first = addr >> LINE_SHIFT;
        let last = (addr + len as u64 - 1) >> LINE_SHIFT;
        for line in first..=last {
            self.note_line(line);
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Base simulated address.
    pub fn base(&self) -> u64 {
        self.base
    }

    #[inline]
    fn index(&self, addr: u64, len: usize) -> usize {
        let off = addr
            .checked_sub(self.base)
            .unwrap_or_else(|| panic!("address {addr:#x} below backing base {:#x}", self.base));
        let off = off as usize;
        assert!(
            off + len <= self.cap,
            "address range {addr:#x}+{len} beyond backing capacity {}",
            self.cap
        );
        off
    }

    /// Read the full line containing byte address `line_addr << 6`.
    #[inline]
    pub fn read_line(&self, line: u64) -> [u8; LINE_SIZE] {
        let addr = line << LINE_SHIFT;
        let off = self.index(addr, LINE_SIZE);
        let mut out = [0u8; LINE_SIZE];
        read_padded(&self.bytes, off, &mut out);
        out
    }

    /// Write a full line.
    #[inline]
    pub fn write_line(&mut self, line: u64, data: &[u8; LINE_SIZE]) {
        let addr = line << LINE_SHIFT;
        let off = self.index(addr, LINE_SIZE);
        self.note_line(line);
        write_growing(&mut self.bytes, off, data);
    }

    /// Raw (uncharged) byte read, used by image snapshots and debugging.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        let off = self.index(addr, buf.len());
        read_padded(&self.bytes, off, buf);
    }

    /// Raw (uncharged) byte write, used to seed initial state.
    pub fn write_bytes(&mut self, addr: u64, src: &[u8]) {
        let off = self.index(addr, src.len());
        self.note_range(addr, src.len());
        write_growing(&mut self.bytes, off, src);
    }

    /// Clone the contents (crash snapshot) as the written prefix: the
    /// pool's bytes from offset 0 up to the highest byte ever written.
    /// Everything from there to [`Backing::capacity`] is zero and is not
    /// stored, so a snapshot costs O(live data), like [`Clone`].
    pub fn snapshot(&self) -> Vec<u8> {
        self.bytes.clone()
    }

    /// Overwrite the full contents with a snapshot given as its written
    /// `prefix` plus the logical pool length `len` (the rest reads as
    /// zero). The prefix becomes the store: nothing is copied. Invalidates
    /// any outstanding write journal: the whole store changed at once.
    pub fn restore(&mut self, mut prefix: Vec<u8>, len: usize) {
        assert_eq!(len, self.cap, "snapshot size mismatch");
        assert!(prefix.len() <= len, "snapshot prefix longer than the pool");
        self.journal_epoch += 1;
        self.journal.clear();
        self.journaling = false;
        // Trailing zeros of the prefix carry no data: drop them so the
        // restored store stays as cheap to clone as its live data allows.
        prefix.truncate(trimmed_len(&prefix));
        self.bytes = prefix;
    }

    /// Whether no later read, snapshot or crash image can tell this store
    /// from `other`, the bytes of the address ranges `cells` (ascending,
    /// disjoint) aside: [`Backing::same_bytes_outside`], and neither keeps a
    /// write journal — a journal is an input to delta forks, and it is not
    /// compared.
    pub(crate) fn same_future_modulo(&self, other: &Self, cells: &[Range<u64>]) -> bool {
        !self.journaling && !other.journaling && self.same_bytes_outside(other, cells)
    }

    /// Whether this store and `other` span one address range and hold the
    /// same bytes outside the address ranges `cells` (ascending, disjoint):
    /// one written prefix may spell out zeros the other leaves implicit.
    /// Compares slices gap by gap, never line by line.
    pub(crate) fn same_bytes_outside(&self, other: &Self, cells: &[Range<u64>]) -> bool {
        let (short, long) = if self.bytes.len() <= other.bytes.len() {
            (&self.bytes, &other.bytes)
        } else {
            (&other.bytes, &self.bytes)
        };
        (self.base, self.cap) == (other.base, other.cap)
            && outside(cells, self.base..self.base + long.len() as u64).all(|gap| {
                let held = gap.start.min(short.len())..gap.end.min(short.len());
                long[held.clone()] == short[held.clone()]
                    && trimmed_len(&long[held.end.max(gap.start)..gap.end]) == 0
            })
    }

    /// Zero everything (volatile medium lost at crash). Invalidates any
    /// outstanding write journal, like [`Backing::restore`].
    pub fn wipe(&mut self) {
        self.journal_epoch += 1;
        self.journal.clear();
        self.journaling = false;
        self.bytes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_growing_prefix_keeps_an_eighth_of_slack_not_a_doubling() {
        let mut b = Backing::new(0, 1 << 20);
        b.restore(vec![7; 64 * 1024], 1 << 20);
        assert_eq!(b.bytes.capacity(), 64 * 1024, "booted exact");
        // The first line past the image's prefix.
        b.write_line(1024, &[1; LINE_SIZE]);
        assert_eq!(b.bytes.len(), 64 * 1024 + LINE_SIZE);
        assert!(b.bytes.capacity() <= 72 * 1024, "{}", b.bytes.capacity());
        // Line-by-line growth reallocates a logarithmic number of times.
        let mut grown = 0;
        for line in 1025..4096 {
            let before = b.bytes.capacity();
            b.write_line(line, &[2; LINE_SIZE]);
            grown += usize::from(b.bytes.capacity() != before);
        }
        assert!(grown <= 12, "{grown} reallocations to quadruple the prefix");
        // A write far past the end reserves what it needs and no more.
        b.write_line(8192, &[3; LINE_SIZE]);
        assert_eq!(b.bytes.capacity(), 8193 * LINE_SIZE);
    }

    #[test]
    fn stores_compare_by_what_reads_would_see_outside_the_cells() {
        let store = |bytes: &[u8]| {
            let mut b = Backing::new(64, 1024);
            b.restore(bytes.to_vec(), 1024);
            b
        };
        let same = |a: &[u8], b: &[u8], cells: &[Range<u64>]| {
            let (a, b) = (store(a), store(b));
            assert_eq!(
                a.same_future_modulo(&b, cells),
                b.same_future_modulo(&a, cells)
            );
            a.same_future_modulo(&b, cells)
        };
        // Cells are addresses: the store starts at 64.
        let cells = [64 + 4..64 + 6, 64 + 10..64 + 12];
        assert!(same(&[1, 2, 3], &[1, 2, 3], &[]));
        assert!(!same(&[1, 2, 3], &[1, 2, 4], &[]));
        assert!(!same(&[1, 2, 3], &[1, 2, 3, 0, 0, 5], &[]));
        // Inside a cell anything goes: spelled out on both sides, on one
        // side only (the other's prefix ends before, inside or between the
        // cells), or on neither.
        let long = [1, 2, 3, 0, 7, 7, 0, 0, 0, 0, 9, 9];
        assert!(same(&long, &[1, 2, 3, 0, 8, 8, 0, 0, 0, 0, 6], &cells));
        assert!(same(&long, &[1, 2, 3, 0, 8], &cells));
        assert!(same(&long, &[1, 2, 3], &cells));
        assert!(same(&long, &[1, 2, 3, 0, 8, 8, 0, 0], &cells));
        assert!(same(&long[..3], &[1, 2, 3], &cells));
        // One byte outside them does not.
        assert!(!same(&long, &[1, 2, 3, 1, 7, 7], &cells));
        assert!(!same(&long, &[1, 2, 3, 0, 7, 7, 1], &cells));
        assert!(!same(
            &long,
            &[1, 2, 3, 0, 7, 7, 0, 0, 0, 0, 9, 9, 1],
            &cells
        ));
        assert!(!same(&[1, 2, 3, 0, 7, 7, 0, 0, 0, 1], &[1, 2, 3], &cells));
        assert!(!same(&long, &[1, 2], &cells));
    }

    #[test]
    fn line_roundtrip() {
        let mut b = Backing::new(0, 1024);
        let mut d = [0u8; LINE_SIZE];
        d[7] = 77;
        b.write_line(3, &d);
        assert_eq!(b.read_line(3)[7], 77);
        assert_eq!(b.read_line(2)[7], 0);
        assert_eq!(b.read_line(15)[7], 0, "beyond the written prefix");
    }

    #[test]
    fn byte_roundtrip_with_base() {
        let base = 1 << 40;
        let mut b = Backing::new(base, 256);
        b.write_bytes(base + 10, &[1, 2, 3]);
        let mut out = [0u8; 3];
        b.read_bytes(base + 10, &mut out);
        assert_eq!(out, [1, 2, 3]);
    }

    #[test]
    fn reads_straddling_the_written_prefix_zero_fill() {
        let mut b = Backing::new(0, 1024);
        b.write_bytes(0, &[9; 10]);
        let mut out = [1u8; 20];
        b.read_bytes(4, &mut out);
        assert_eq!(&out[..6], &[9; 6]);
        assert_eq!(&out[6..], &[0; 14]);
    }

    #[test]
    #[should_panic(expected = "beyond backing capacity")]
    fn out_of_range_panics() {
        let b = Backing::new(0, 64);
        let mut buf = [0u8; 8];
        b.read_bytes(60, &mut buf);
    }

    #[test]
    fn journal_records_distinct_written_lines() {
        let mut b = Backing::new(0, 1024);
        b.write_bytes(0, &[1; 8]); // pre-mark write: not journaled
        let epoch = b.mark_journal();
        assert_eq!(b.journal_epoch(), epoch);
        assert!(b.journal_lines().is_empty());
        b.write_bytes(70, &[2; 8]); // line 1
        b.write_line(3, &[3; LINE_SIZE]);
        b.write_bytes(64, &[4; 8]); // line 1 again: no duplicate entry
        let mut lines = b.journal_lines().to_vec();
        lines.sort_unstable();
        assert_eq!(lines, vec![1, 3]);
        // A straddling write journals both lines.
        b.write_bytes(60, &[5; 8]); // lines 0 and 1
        let mut lines = b.journal_lines().to_vec();
        lines.sort_unstable();
        assert_eq!(lines, vec![0, 1, 3]);
    }

    #[test]
    fn remark_clears_journal_and_bumps_epoch() {
        let mut b = Backing::new(0, 1024);
        let e1 = b.mark_journal();
        b.write_bytes(0, &[1; 8]);
        let e2 = b.mark_journal();
        assert!(e2 > e1);
        assert!(b.journal_lines().is_empty());
        b.write_bytes(128, &[2; 8]);
        assert_eq!(b.journal_lines(), &[2]);
    }

    #[test]
    fn restore_and_wipe_invalidate_the_journal() {
        let mut b = Backing::new(0, 256);
        let snap = b.snapshot();
        let e = b.mark_journal();
        b.write_bytes(0, &[1; 8]);
        b.restore(snap, 256);
        assert!(b.journal_epoch() > e, "restore bumps the epoch");
        assert!(b.journal_lines().is_empty());
        b.write_bytes(0, &[2; 8]);
        assert!(b.journal_lines().is_empty(), "journaling off after restore");
        let e = b.mark_journal();
        b.wipe();
        assert!(b.journal_epoch() > e);
        assert!(b.journal_lines().is_empty());
    }

    #[test]
    fn clone_preserves_contents_journal_and_tail_zeros() {
        let mut b = Backing::new(0, 1024);
        b.write_bytes(100, &[7; 16]);
        b.mark_journal();
        b.write_line(3, &[9; LINE_SIZE]);
        let c = b.clone();
        // Live prefix, untouched tail, and journal state all survive.
        let mut buf = [0u8; 16];
        c.read_bytes(100, &mut buf);
        assert_eq!(buf, [7; 16]);
        assert_eq!(c.read_line(3), [9; LINE_SIZE]);
        assert_eq!(c.read_line(15), [0; LINE_SIZE]);
        assert_eq!(c.journal_epoch(), b.journal_epoch());
        assert_eq!(c.journal_lines(), b.journal_lines());
        // The clone's mark table still suppresses duplicate journal
        // entries for lines already recorded.
        let mut c = c;
        c.write_line(3, &[1; LINE_SIZE]);
        assert_eq!(c.journal_lines(), &[3]);
        // Writes past the written prefix journal normally.
        c.write_line(10, &[2; LINE_SIZE]);
        let mut lines = c.journal_lines().to_vec();
        lines.sort_unstable();
        assert_eq!(lines, vec![3, 10]);
    }

    #[test]
    fn wipe_then_write_keeps_clone_exact() {
        let mut b = Backing::new(0, 512);
        b.write_bytes(0, &[5; 512]);
        b.wipe();
        b.write_bytes(8, &[6; 8]);
        let c = b.clone();
        let mut buf = [0u8; 8];
        c.read_bytes(8, &mut buf);
        assert_eq!(buf, [6; 8]);
        assert_eq!(c.read_line(7), [0; LINE_SIZE], "wiped tail stays zero");
    }

    #[test]
    fn snapshot_is_the_written_prefix_and_roundtrips() {
        let mut b = Backing::new(0, 256);
        assert!(b.snapshot().is_empty(), "nothing written, nothing stored");
        b.write_bytes(0, &[9; 16]);
        let snap = b.snapshot();
        assert_eq!(snap, [9; 16], "snapshot stops at the last written byte");
        b.wipe();
        assert_eq!(b.read_line(0)[0], 0);
        b.restore(snap.clone(), 256);
        assert_eq!(b.read_line(0)[..16], [9; 16]);
        assert_eq!(b.read_line(0)[16..], [0; 48], "past the prefix reads zero");
        assert_eq!(b.read_line(3), [0; LINE_SIZE]);
        assert_eq!(b.snapshot(), snap);
    }

    #[test]
    fn restore_trims_the_trailing_zeros_of_the_prefix() {
        let mut b = Backing::new(0, 8192);
        let mut prefix = vec![0u8; 4096];
        prefix[5] = 1;
        b.restore(prefix, 8192);
        assert_eq!(b.snapshot(), [0, 0, 0, 0, 0, 1]);
        b.restore(vec![0; 100], 8192);
        assert!(b.snapshot().is_empty());
    }

    #[test]
    #[should_panic(expected = "snapshot size mismatch")]
    fn restore_rejects_a_snapshot_of_another_pool_size() {
        Backing::new(0, 128).restore(vec![1; 16], 64);
    }
}
