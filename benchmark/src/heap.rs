//! Peak live heap of the process: a counting wrapper around the system
//! allocator.
//!
//! `VmHWM` cannot carry a bound here. glibc raises its mmap threshold
//! whenever a large block is freed, so how much freed memory a worker
//! thread's arena keeps depends on thread timing: the same `ds-triage`
//! work peaks anywhere from 12 to 19 MB resident. (Pinning the threshold
//! steadies it and costs `ds-sweep` five sixths of its throughput; one
//! arena costs `ds-triage` a quarter.) What the program *asks* the
//! allocator for does not depend on the allocator's mood.

use std::alloc::{handle_alloc_error, GlobalAlloc, Layout, System};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct CountingAlloc;

// Statistics only: no other data is published through these, so `Relaxed`.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    // The peak moves rarely once the workload is warm; skip the write then.
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged, so `System`'s guarantees
// carry over; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // Forwarded, not emulated: the simulator's multi-megabyte pools are
        // `calloc`ed and rely on the kernel's lazily zeroed pages.
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// A zeroed block taken straight from the system allocator, past the
/// counters: the calibrator's page-touch loop (`calib.rs`) maps tens of
/// megabytes per slice and must not show up in `peak_heap_mb`.
pub struct UncountedZeroed {
    ptr: NonNull<u8>,
    layout: Layout,
}

impl UncountedZeroed {
    pub fn new(bytes: usize) -> UncountedZeroed {
        assert!(bytes > 0, "a block has at least one byte");
        // Word alignment keeps `System` on its `calloc` path, whose large
        // blocks are fresh lazily-zeroed mappings; a larger alignment would
        // make it zero the whole block by hand.
        let layout = Layout::from_size_align(bytes, 8).expect("a valid block size");
        // SAFETY: `layout` has a non-zero size.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        let ptr = NonNull::new(ptr).unwrap_or_else(|| handle_alloc_error(layout));
        UncountedZeroed { ptr, layout }
    }

    pub fn bytes(&mut self) -> &mut [u8] {
        // SAFETY: `ptr` points to `layout.size()` zero-initialised bytes that
        // this value owns until it is dropped, and `&mut self` makes the
        // borrow exclusive.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.layout.size()) }
    }
}

impl Drop for UncountedZeroed {
    fn drop(&mut self) {
        // SAFETY: `ptr` came from `System.alloc_zeroed(self.layout)` and is
        // released exactly once, here.
        unsafe { System.dealloc(self.ptr.as_ptr(), self.layout) };
    }
}

/// Most bytes the process ever held from the allocator at once, in MB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_follows_a_large_allocation_and_survives_its_release() {
        let before = PEAK.load(Ordering::Relaxed);
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        let during = PEAK.load(Ordering::Relaxed);
        assert!(during >= before.max(64 << 20));
        drop(block);
        assert!(PEAK.load(Ordering::Relaxed) >= during);
        assert!(peak_heap_mb() >= 64.0);
    }

    #[test]
    fn uncounted_blocks_are_zeroed_writable_and_past_the_counters() {
        let live = LIVE.load(Ordering::Relaxed);
        // Untouched zero pages cost nothing. Tests running beside this one
        // allocate meanwhile, but nowhere near half of this.
        let mut block = UncountedZeroed::new(256 << 20);
        assert!(LIVE.load(Ordering::Relaxed) < live + (128 << 20));
        let bytes = block.bytes();
        assert_eq!(bytes.len(), 256 << 20);
        assert!(bytes[..1 << 16].iter().all(|&b| b == 0));
        bytes[4096] = 7;
        assert_eq!(block.bytes()[4096], 7);
    }
}
