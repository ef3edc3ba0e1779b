//! Bump allocation over the simulated address space.
//!
//! Allocations are line-aligned by default so that distinct persistent
//! objects never share a cache line (sharing would entangle their crash
//! consistence). [`Bump::alloc_at_line_offset`] deliberately mis-aligns an
//! allocation within a line — used to reproduce the paper's observation
//! that the Monte-Carlo counters straddle cache lines and therefore go
//! stale in NVM at *different* times.

use crate::line::LINE_SIZE;

/// A bump allocator handing out simulated addresses in `[base, end)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bump {
    next: u64,
    end: u64,
}

impl Bump {
    /// Allocator over `[base, base + capacity)`.
    pub fn new(base: u64, capacity: usize) -> Self {
        Bump {
            next: base,
            end: base + capacity as u64,
        }
    }

    /// Bytes still available.
    pub fn remaining(&self) -> u64 {
        self.end - self.next
    }

    /// Allocate `size` bytes with the given alignment (power of two).
    pub fn alloc(&mut self, size: usize, align: usize) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let align = align as u64;
        let addr = (self.next + align - 1) & !(align - 1);
        let new_next = addr + size as u64;
        assert!(
            new_next <= self.end,
            "simulated memory exhausted: need {size} bytes, {} remaining",
            self.remaining()
        );
        self.next = new_next;
        addr
    }

    /// Allocate `size` bytes aligned to a cache line.
    pub fn alloc_lines(&mut self, size: usize) -> u64 {
        self.alloc(size, LINE_SIZE)
    }

    /// Allocate `size` bytes starting exactly `offset` bytes into a fresh
    /// cache line (0 <= offset < 64). Used to force an object to straddle
    /// line boundaries.
    pub fn alloc_at_line_offset(&mut self, size: usize, offset: usize) -> u64 {
        assert!(offset < LINE_SIZE);
        let base = self.alloc(size + offset, LINE_SIZE);
        base + offset as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment() {
        let mut b = Bump::new(0, 4096);
        let a = b.alloc(10, 8);
        assert_eq!(a % 8, 0);
        let c = b.alloc(1, 64);
        assert_eq!(c % 64, 0);
        assert!(c >= a + 10);
    }

    #[test]
    fn line_offset_alloc_straddles() {
        let mut b = Bump::new(0, 4096);
        let a = b.alloc_at_line_offset(40, 48);
        assert_eq!(a % LINE_SIZE as u64, 48);
        // 40 bytes starting at offset 48 cross into the next line.
        assert!(!crate::line::fits_in_line(a, 40));
    }

    #[test]
    #[should_panic(expected = "simulated memory exhausted")]
    fn exhaustion_panics() {
        let mut b = Bump::new(0, 128);
        b.alloc(64, 64);
        b.alloc(64, 64);
        b.alloc(1, 1);
    }

    #[test]
    fn remaining_decreases() {
        let mut b = Bump::new(0, 1024);
        let before = b.remaining();
        b.alloc(100, 64);
        assert!(b.remaining() < before);
    }
}
