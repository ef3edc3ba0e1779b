//! Post-crash NVM images.
//!
//! An [`NvmImage`] is what the paper's crash emulator outputs: "the values
//! of data in ... main memory" at the moment of the crash. Recovery logic
//! reads the image (or boots a fresh [`crate::system::MemorySystem`] from
//! it, so that detection work is charged on the simulated clock).
//!
//! A [`DeltaImage`] is the copy-on-write form a crash-injection campaign
//! harvests at scale: an immutable base snapshot shared via [`Arc`] plus
//! only the NVM lines that changed since the base was taken, so storing a
//! crash state costs O(dirty lines) instead of O(pool size). Recovery
//! lazily [`DeltaImage::materialize`]s a standalone image when it needs one.
//!
//! Both carry only what was written: an image stores the pool's **written
//! prefix** plus its logical length, and every byte past the prefix reads
//! as zero — the invariant [`crate::backing::Backing`] keeps for the live
//! pool, held end to end so no crash path allocates or copies the pool's
//! capacity.

use std::borrow::Cow;
use std::sync::Arc;

use crate::backing::{read_padded, trimmed_len};
use crate::line::{line_of, offset_in_line, LINE_SHIFT, LINE_SIZE};
use crate::parray::{PArray, Pod};

/// A byte-exact snapshot of the NVM region at crash time.
///
/// Stored as the written prefix plus the logical length: `len()` is the
/// size of the pool, [`NvmImage::prefix`] the bytes actually held, and
/// every address in `prefix().len()..len()` reads as zero. Nobody may
/// assume the prefix spans the pool. Equality is logical — two images are
/// equal when they have the same length and read the same at every
/// address (trailing zeros of either prefix are insignificant; the
/// dirty-residency metadata is not part of the comparison).
#[derive(Clone)]
pub struct NvmImage {
    /// The written prefix; offsets from `prefix.len()` up to `len` are zero.
    prefix: Vec<u8>,
    /// Logical size of the snapshot (the NVM pool capacity).
    len: usize,
    /// Distinct dirty NVM-homed cache lines resident in volatile levels at
    /// the crash instant (telemetry metadata; zero when not recorded).
    dirty_lines: u64,
}

impl NvmImage {
    /// Wrap a snapshot given as its written `prefix` and logical length
    /// `len` (no dirty-residency metadata attached).
    pub fn new(prefix: Vec<u8>, len: usize) -> Self {
        assert!(prefix.len() <= len, "image prefix longer than the image");
        NvmImage {
            prefix,
            len,
            dirty_lines: 0,
        }
    }

    /// Attach the number of dirty NVM-homed cache lines that were resident
    /// in the volatile hierarchy when this image was taken — the paper's
    /// "dirty data in the cache hierarchy" residency metric. Recorded by
    /// [`crate::system::MemorySystem::crash`] and
    /// [`crate::system::MemorySystem::crash_fork`].
    pub fn with_dirty_lines(mut self, lines: u64) -> Self {
        self.dirty_lines = lines;
        self
    }

    /// Dirty NVM-homed cache lines resident in volatile levels at crash
    /// time (zero when the image was built without residency metadata).
    ///
    /// With battery-backed caches ([`crate::system::SystemConfig::persistent_caches`])
    /// this still reports the pre-drain residency: it measures how much data
    /// *would* have been exposed, not how much was lost.
    pub fn dirty_lines_at_crash(&self) -> u64 {
        self.dirty_lines
    }

    /// [`NvmImage::dirty_lines_at_crash`] converted to bytes.
    pub fn dirty_bytes_at_crash(&self) -> u64 {
        crate::line::lines_to_bytes(self.dirty_lines)
    }

    /// The stored bytes: the written prefix of the snapshot (NVM addresses
    /// index directly). Shorter than [`NvmImage::len`] whenever the pool's
    /// tail was never written; the rest of the image is zero.
    pub fn prefix(&self) -> &[u8] {
        &self.prefix
    }

    /// Give up the stored bytes ([`NvmImage::prefix`]) without copying
    /// them: what a machine booting from an image it owns takes as its pool.
    pub fn into_prefix(self) -> Vec<u8> {
        self.prefix
    }

    /// Bytes of host memory the image holds (its prefix), as opposed to
    /// the logical [`NvmImage::len`].
    pub fn resident_bytes(&self) -> u64 {
        self.prefix.len() as u64
    }

    /// Logical snapshot size in bytes (the NVM pool capacity).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the snapshot is of a zero-byte pool.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copy `buf.len()` bytes starting at NVM address `addr` out of the
    /// image.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        let a = addr as usize;
        assert!(
            a + buf.len() <= self.len,
            "image read at {addr:#x}+{} out of range {}",
            buf.len(),
            self.len
        );
        read_padded(&self.prefix, a, buf);
    }

    /// The `len` bytes starting at NVM address `addr`: borrowed when the
    /// range lies inside the written prefix, a zero-padded copy otherwise.
    /// For a reader that scans a region many times (a read-only table),
    /// one view replaces a bounds-checked padded copy per element.
    pub fn view(&self, addr: u64, len: usize) -> Cow<'_, [u8]> {
        let a = addr as usize;
        match self.prefix.get(a..a + len) {
            Some(held) => Cow::Borrowed(held),
            None => {
                let mut buf = vec![0u8; len];
                self.read_bytes(addr, &mut buf);
                Cow::Owned(buf)
            }
        }
    }

    /// Read a typed value at an NVM address.
    pub fn read<T: Pod>(&self, addr: u64) -> T {
        let mut buf = [0u8; 16];
        assert!(T::SIZE <= buf.len(), "oversized Pod read");
        self.read_bytes(addr, &mut buf[..T::SIZE]);
        T::from_bytes(&buf[..T::SIZE])
    }

    /// Read one byte at an NVM address.
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.read(addr)
    }

    /// Read a little-endian `u64` at an NVM address.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read(addr)
    }

    /// Read an `f64` at an NVM address.
    pub fn read_f64(&self, addr: u64) -> f64 {
        self.read(addr)
    }

    /// Read a whole typed array (by its simulated-memory handle).
    pub fn read_array<T: Pod>(&self, arr: &PArray<T>) -> Vec<T> {
        (0..arr.len()).map(|i| self.read(arr.addr(i))).collect()
    }

    /// Convenience alias for the common f64 case.
    pub fn read_f64_array(&self, arr: &PArray<f64>) -> Vec<f64> {
        self.read_array(arr)
    }
}

impl PartialEq for NvmImage {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.prefix[..trimmed_len(&self.prefix)]
                == other.prefix[..trimmed_len(&other.prefix)]
    }
}

impl Eq for NvmImage {}

impl std::fmt::Debug for NvmImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "NvmImage({} bytes, {} written)",
            self.len,
            self.prefix.len()
        )
    }
}

/// A delta image as a machine boots from it: materialized when the
/// conversion runs, so a chain that converts each image in its turn holds
/// no image ahead of it.
impl<'a> From<&'a DeltaImage> for Cow<'a, NvmImage> {
    fn from(image: &'a DeltaImage) -> Self {
        Cow::Owned(image.materialize())
    }
}

/// A copy-on-write crash image: a shared base snapshot plus the NVM lines
/// that differ from it at crash time.
///
/// Built by [`crate::system::MemorySystem::crash_fork_delta`] against a
/// [`crate::system::DeltaBase`]. Reads see exactly the bytes a full
/// [`crate::system::MemorySystem::crash_fork`] image taken at the same
/// instant would hold; [`DeltaImage::materialize`] proves it by producing
/// that byte-identical [`NvmImage`].
///
/// Cloning is O(1): the delta payload is immutable and shared, so every
/// crash point harvested at one poll holds the same allocation.
#[derive(Clone)]
pub struct DeltaImage {
    base: Arc<NvmImage>,
    pub(crate) delta: Arc<DeltaPayload>,
    dirty_lines: u64,
}

/// The lines of a [`DeltaImage`] that differ from its base.
pub(crate) struct DeltaPayload {
    /// Sorted line numbers present in the delta.
    lines: Vec<u64>,
    /// Concatenated payload: `lines[i]`'s bytes live at `i * LINE_SIZE`.
    data: Vec<u8>,
}

impl DeltaImage {
    /// Assemble a delta over `base`. `lines` must be sorted, distinct line
    /// numbers; `data` holds one [`LINE_SIZE`] payload per line.
    pub(crate) fn new(base: Arc<NvmImage>, lines: Vec<u64>, data: Vec<u8>) -> Self {
        debug_assert_eq!(lines.len() * LINE_SIZE, data.len());
        debug_assert!(lines.windows(2).all(|w| w[0] < w[1]), "lines unsorted");
        DeltaImage {
            base,
            delta: Arc::new(DeltaPayload { lines, data }),
            dirty_lines: 0,
        }
    }

    /// Attach dirty-residency metadata (see [`NvmImage::with_dirty_lines`]).
    pub fn with_dirty_lines(mut self, lines: u64) -> Self {
        self.dirty_lines = lines;
        self
    }

    /// `image` as a delta of no lines over itself.
    pub fn whole(image: NvmImage) -> Self {
        let dirty_lines = image.dirty_lines_at_crash();
        DeltaImage::new(Arc::new(image), Vec::new(), Vec::new()).with_dirty_lines(dirty_lines)
    }

    /// Dirty NVM-homed cache lines resident in volatile levels at crash
    /// time (the same residency metric [`NvmImage::dirty_lines_at_crash`]
    /// carries; it survives materialization).
    pub fn dirty_lines_at_crash(&self) -> u64 {
        self.dirty_lines
    }

    /// [`DeltaImage::dirty_lines_at_crash`] converted to bytes.
    pub fn dirty_bytes_at_crash(&self) -> u64 {
        crate::line::lines_to_bytes(self.dirty_lines)
    }

    /// The shared base snapshot this delta applies to.
    pub fn base(&self) -> &Arc<NvmImage> {
        &self.base
    }

    /// Number of lines stored in the delta.
    pub fn delta_line_count(&self) -> u64 {
        self.delta.lines.len() as u64
    }

    /// The lines that differ from the base, ascending, each with its bytes:
    /// every other address reads as the base does.
    pub fn delta_lines(&self) -> impl Iterator<Item = (u64, &[u8; LINE_SIZE])> {
        let DeltaPayload { lines, data } = &*self.delta;
        lines.iter().copied().zip(
            data.chunks_exact(LINE_SIZE)
                .map(|line| line.try_into().expect("whole lines")),
        )
    }

    /// Bytes of delta payload this crash state owns (excludes the shared
    /// base). This is the per-state memory cost campaigns report.
    pub fn delta_bytes(&self) -> u64 {
        self.delta.data.len() as u64
    }

    /// Logical size of the image in bytes (same as the base snapshot).
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// Length of the written prefix [`DeltaImage::materialize`] produces:
    /// the base's prefix, extended to the end of the last delta line when
    /// that lands beyond it.
    pub fn materialized_bytes(&self) -> u64 {
        let delta_end = self
            .delta
            .lines
            .last()
            .map_or(0, |&line| (line << LINE_SHIFT) + LINE_SIZE as u64);
        self.base.resident_bytes().max(delta_end)
    }

    /// Whether the logical image holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// Copy `buf.len()` bytes starting at NVM address `addr` out of the
    /// logical image (delta lines shadow the base).
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        assert!(
            addr as usize + buf.len() <= self.base.len(),
            "image read at {addr:#x}+{} out of range {}",
            buf.len(),
            self.base.len()
        );
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr + done as u64;
            let off = offset_in_line(a);
            let take = (LINE_SIZE - off).min(buf.len() - done);
            let dst = &mut buf[done..done + take];
            match self.delta.lines.binary_search(&line_of(a)) {
                Ok(i) => {
                    let at = i * LINE_SIZE + off;
                    dst.copy_from_slice(&self.delta.data[at..at + take]);
                }
                Err(_) => read_padded(self.base.prefix(), a as usize, dst),
            }
            done += take;
        }
    }

    /// Read a typed value at an NVM address.
    pub fn read<T: Pod>(&self, addr: u64) -> T {
        let mut buf = [0u8; 16];
        assert!(T::SIZE <= buf.len(), "oversized Pod read");
        self.read_bytes(addr, &mut buf[..T::SIZE]);
        T::from_bytes(&buf[..T::SIZE])
    }

    /// Read one byte at an NVM address.
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.read(addr)
    }

    /// Read a little-endian `u64` at an NVM address.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read(addr)
    }

    /// Read an `f64` at an NVM address.
    pub fn read_f64(&self, addr: u64) -> f64 {
        self.read(addr)
    }

    /// Read a whole typed array (by its simulated-memory handle).
    pub fn read_array<T: Pod>(&self, arr: &PArray<T>) -> Vec<T> {
        (0..arr.len()).map(|i| self.read(arr.addr(i))).collect()
    }

    /// Expand to a standalone [`NvmImage`]: the base's written prefix with
    /// the delta lines applied (growing the prefix only for lines that land
    /// beyond it), dirty-residency metadata carried over. Equal to the
    /// full crash image taken at the same instant.
    pub fn materialize(&self) -> NvmImage {
        let end = self.materialized_bytes() as usize;
        let mut prefix = Vec::with_capacity(end);
        prefix.extend_from_slice(self.base.prefix());
        prefix.resize(end, 0);
        let DeltaPayload { lines, data } = &*self.delta;
        for (&line, payload) in lines.iter().zip(data.chunks_exact(LINE_SIZE)) {
            let off = (line << LINE_SHIFT) as usize;
            prefix[off..off + LINE_SIZE].copy_from_slice(payload);
        }
        NvmImage::new(prefix, self.len()).with_dirty_lines(self.dirty_lines)
    }
}

impl std::fmt::Debug for DeltaImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DeltaImage({} lines over {}-byte base)",
            self.delta.lines.len(),
            self.base.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{MemorySystem, SystemConfig};

    #[test]
    fn image_reads_typed_values() {
        let mut s = MemorySystem::new(SystemConfig::nvm_only(4096, 1 << 16));
        let a = PArray::<f64>::alloc_nvm(&mut s, 4);
        a.store_slice(&mut s, &[1.0, 2.0, 3.0, 4.0]);
        a.persist_all(&mut s);
        let img = s.crash();
        assert_eq!(img.read_f64(a.addr(2)), 3.0);
        assert_eq!(img.read_f64_array(&a), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn image_bounds_checked() {
        let img = NvmImage::new(vec![0; 8], 8);
        let _ = img.read_u64(4);
    }

    #[test]
    fn reads_past_the_prefix_are_zero_and_bounds_are_logical() {
        let img = NvmImage::new(vec![0xff; 12], 64);
        assert_eq!(img.len(), 64);
        assert_eq!(img.resident_bytes(), 12);
        assert_eq!(img.read_u64(0), u64::MAX);
        assert_eq!(img.read_u64(8), 0xffff_ffff, "straddles the prefix end");
        assert_eq!(img.read_u64(56), 0, "wholly past the prefix");
        // A range view borrows inside the prefix and pads beyond it.
        assert!(matches!(img.view(4, 8), Cow::Borrowed(b) if b == [0xff; 8]));
        let mut padded = [0u8; 8];
        padded[..4].fill(0xff);
        assert!(matches!(img.view(8, 8), Cow::Owned(b) if b == padded));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bounds_check_is_against_the_logical_length() {
        let img = NvmImage::new(vec![1; 8], 64);
        let _ = img.read_u64(60);
    }

    #[test]
    fn equality_is_logical() {
        let a = NvmImage::new(vec![1, 2, 0, 0], 64);
        let b = NvmImage::new(vec![1, 2], 64).with_dirty_lines(3);
        assert_eq!(a, b, "trailing zeros of a prefix are insignificant");
        assert_ne!(a, NvmImage::new(vec![1, 2], 128), "length is significant");
        assert_ne!(a, NvmImage::new(vec![1, 3], 64));
        assert_ne!(a, NvmImage::new(vec![1, 2, 0, 4], 64));
    }
}
