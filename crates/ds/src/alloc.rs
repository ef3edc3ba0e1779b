//! A crash-consistent persistent free-list allocator (Makalu/llfree
//! style): fixed-size line-aligned blocks, a persisted free-list head,
//! and per-block link words kept in a separate metadata array.
//!
//! Every metadata update is two one-word writes on two different lines
//! (head + link word), exposed as a two-phase API so the workload driver
//! can place a crash poll *between* them — the ordering window where
//! unprotected allocators leak or double-use blocks. Under the undo-logged
//! protocol each phase snapshots its line first via
//! [`UndoPool::tx_add_range_meta`], so recovery rolls the metadata back to
//! the pre-operation state exactly.
//!
//! A link word of an allocated block holds [`IN_USE`]; a free-list walk
//! that reaches one has found leaked metadata, which is how the recovery
//! audit turns unflushed-allocator bugs into *detected* dirt instead of
//! silent corruption.

use adcc_pmem::undo::UndoPool;
use adcc_sim::line::LINE_SIZE;
use adcc_sim::parray::PArray;
use adcc_sim::system::MemorySystem;

use crate::{IN_USE, NONE_BLOCK};

/// Addresses recovery needs to re-attach to an allocator found in an NVM
/// image.
#[derive(Debug, Clone, Copy)]
pub struct AllocatorLayout {
    /// Head line base (word 0 = head index, word 1 = last-update seq tag).
    pub head_base: u64,
    /// Per-block link-word array base.
    pub next_base: u64,
    /// Block arena base (line-aligned; block `b` is at `arena_base + 64 b`).
    pub arena_base: u64,
    /// Block count.
    pub blocks: u64,
}

/// The free-list allocator handle.
#[derive(Clone)]
pub struct PAlloc {
    /// One line: word 0 = head block index (or [`NONE_BLOCK`]), word 1 =
    /// sequence tag of the last metadata update (leak detection).
    head: PArray<u64>,
    /// One link word per block: next free block, [`NONE_BLOCK`] at the
    /// tail, [`IN_USE`] while allocated.
    next: PArray<u64>,
    arena_base: u64,
    blocks: u64,
}

impl PAlloc {
    /// Allocate and initialize an allocator with `blocks` one-line blocks,
    /// all free, chained in ascending order.
    pub fn new(sys: &mut MemorySystem, blocks: u64) -> Self {
        let head = PArray::<u64>::alloc_nvm(sys, 8);
        let next = PArray::<u64>::alloc_nvm(sys, blocks as usize);
        let arena_base = sys.alloc_nvm(blocks as usize * LINE_SIZE);
        let a = PAlloc {
            head,
            next,
            arena_base,
            blocks,
        };
        a.reinit(sys);
        a
    }

    /// Re-attach to an allocator found in an NVM image.
    pub fn attach(layout: AllocatorLayout) -> Self {
        PAlloc {
            head: PArray::new(layout.head_base, 8),
            next: PArray::new(layout.next_base, layout.blocks as usize),
            arena_base: layout.arena_base,
            blocks: layout.blocks,
        }
    }

    /// The persistent layout, for post-crash re-attachment.
    pub fn layout(&self) -> AllocatorLayout {
        AllocatorLayout {
            head_base: self.head.base(),
            next_base: self.next.base(),
            arena_base: self.arena_base,
            blocks: self.blocks,
        }
    }

    /// Reset all metadata to the initial all-free chain and persist it —
    /// initialization and rebuild-from-scratch recovery share this path.
    pub fn reinit(&self, sys: &mut MemorySystem) {
        for b in 0..self.blocks {
            let link = if b + 1 < self.blocks {
                b + 1
            } else {
                NONE_BLOCK
            };
            self.next.set(sys, b as usize, link);
        }
        self.head.set(sys, 0, 0);
        self.head.set(sys, 1, 0);
        self.next.persist_all(sys);
        self.head.persist_all(sys);
        sys.sfence();
    }

    /// Block count.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Payload address of block `b` (one full line).
    pub fn block_addr(&self, b: u64) -> u64 {
        self.arena_base + b * LINE_SIZE as u64
    }

    /// The head line's address (the allocator's hottest metadata line).
    pub fn head_addr(&self) -> u64 {
        self.head.addr(0)
    }

    /// The link word address for block `b`.
    pub fn next_addr(&self, b: u64) -> u64 {
        self.next.addr(b as usize)
    }

    /// Allocation phase 1: pop the head of the free list (snapshotting the
    /// head line first when undo-logged) and tag the update with `seq`.
    /// Returns the unlinked block, or `None` when exhausted. The caller
    /// must follow with [`mark_in_use`](Self::mark_in_use); the gap
    /// between the two is a legitimate crash point.
    pub fn unlink_free(
        &self,
        sys: &mut MemorySystem,
        pool: Option<&mut UndoPool>,
        seq: u64,
    ) -> Option<u64> {
        let b = self.head.get(sys, 0);
        if b == NONE_BLOCK {
            return None;
        }
        let succ = self.next.get(sys, b as usize);
        if let Some(pool) = pool {
            pool.tx_add_range_meta(sys, self.head.addr(0), 16);
        }
        self.head.set(sys, 0, succ);
        self.head.set(sys, 1, seq);
        Some(b)
    }

    /// Allocation phase 2: stamp block `b`'s link word [`IN_USE`].
    pub fn mark_in_use(&self, sys: &mut MemorySystem, pool: Option<&mut UndoPool>, b: u64) {
        if let Some(pool) = pool {
            pool.tx_add_range_meta(sys, self.next.addr(b as usize), 8);
        }
        self.next.set(sys, b as usize, IN_USE);
    }

    /// Free phase 1: point block `b`'s link word at the current head.
    /// The caller must follow with [`push_free`](Self::push_free).
    pub fn stage_free(&self, sys: &mut MemorySystem, pool: Option<&mut UndoPool>, b: u64) {
        let head = self.head.get(sys, 0);
        if let Some(pool) = pool {
            pool.tx_add_range_meta(sys, self.next.addr(b as usize), 8);
        }
        self.next.set(sys, b as usize, head);
    }

    /// Free phase 2: swing the head to block `b`, tagged with `seq`.
    pub fn push_free(&self, sys: &mut MemorySystem, pool: Option<&mut UndoPool>, b: u64, seq: u64) {
        if let Some(pool) = pool {
            pool.tx_add_range_meta(sys, self.head.addr(0), 16);
        }
        self.head.set(sys, 0, b);
        self.head.set(sys, 1, seq);
    }

    /// Raw link word of block `b` (for recovery audits).
    pub fn link_word(&self, sys: &mut MemorySystem, b: u64) -> u64 {
        self.next.get(sys, b as usize)
    }

    /// The head line's sequence tag (recovery leak detection).
    pub fn head_tag(&self, sys: &mut MemorySystem) -> u64 {
        self.head.get(sys, 1)
    }

    /// Walk the free list and return the free block set, or an error
    /// describing the corruption (out-of-range index, [`IN_USE`] link on
    /// the list, or a cycle).
    pub fn free_set(&self, sys: &mut MemorySystem) -> Result<Vec<u64>, String> {
        let mut free = Vec::new();
        let mut seen = vec![false; self.blocks as usize];
        let mut b = self.head.get(sys, 0);
        while b != NONE_BLOCK {
            if b >= self.blocks {
                return Err(format!("free-list link out of range: {b}"));
            }
            if seen[b as usize] {
                return Err(format!("free-list cycle at block {b}"));
            }
            seen[b as usize] = true;
            free.push(b);
            b = self.next.get(sys, b as usize);
            if b == IN_USE {
                return Err("free list reaches an IN_USE link (leaked metadata)".into());
            }
        }
        Ok(free)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcc_sim::system::SystemConfig;

    fn sys() -> MemorySystem {
        MemorySystem::new(SystemConfig::nvm_only(4096, 1 << 20))
    }

    fn alloc_one(a: &PAlloc, s: &mut MemorySystem, seq: u64) -> u64 {
        let b = a.unlink_free(s, None, seq).expect("blocks available");
        a.mark_in_use(s, None, b);
        b
    }

    fn free_one(a: &PAlloc, s: &mut MemorySystem, b: u64, seq: u64) {
        a.stage_free(s, None, b);
        a.push_free(s, None, b, seq);
    }

    #[test]
    fn alloc_free_recycles_blocks() {
        let mut s = sys();
        let a = PAlloc::new(&mut s, 4);
        let b0 = alloc_one(&a, &mut s, 1);
        let b1 = alloc_one(&a, &mut s, 2);
        assert_eq!((b0, b1), (0, 1));
        assert_eq!(a.free_set(&mut s).unwrap(), vec![2, 3]);
        free_one(&a, &mut s, b0, 3);
        assert_eq!(a.free_set(&mut s).unwrap(), vec![0, 2, 3]);
        assert_eq!(alloc_one(&a, &mut s, 4), 0, "LIFO reuse");
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut s = sys();
        let a = PAlloc::new(&mut s, 2);
        alloc_one(&a, &mut s, 1);
        alloc_one(&a, &mut s, 2);
        assert!(a.unlink_free(&mut s, None, 3).is_none());
    }

    #[test]
    fn audit_detects_leaked_in_use_link() {
        let mut s = sys();
        let a = PAlloc::new(&mut s, 4);
        // Simulate leaked metadata: block 1 marked IN_USE while still
        // chained from block 0 on the free list.
        a.next.set(&mut s, 1, IN_USE);
        let err = a.free_set(&mut s).unwrap_err();
        assert!(err.contains("IN_USE"), "{err}");
    }

    #[test]
    fn audit_detects_cycles() {
        let mut s = sys();
        let a = PAlloc::new(&mut s, 3);
        a.next.set(&mut s, 2, 0); // tail points back at head
        let err = a.free_set(&mut s).unwrap_err();
        assert!(err.contains("cycle"), "{err}");
    }

    #[test]
    fn undo_logged_metadata_rolls_back() {
        let mut s = sys();
        let a = PAlloc::new(&mut s, 4);
        let layout = a.layout();
        let mut pool = UndoPool::new(&mut s, 16);
        let pool_layout = pool.layout();
        pool.tx_begin(&mut s);
        let b = a.unlink_free(&mut s, Some(&mut pool), 7).unwrap();
        a.mark_in_use(&mut s, Some(&mut pool), b);
        // Force the torn metadata into NVM, then crash before commit.
        s.persist_line(a.head_addr());
        let img = s.crash();
        let mut s2 = MemorySystem::from_image(SystemConfig::nvm_only(4096, 1 << 20), &img);
        UndoPool::recover(pool_layout, &mut s2);
        let a2 = PAlloc::attach(layout);
        assert_eq!(a2.free_set(&mut s2).unwrap(), vec![0, 1, 2, 3]);
        assert!(pool.log_stats().meta_appends >= 2, "metadata attribution");
    }
}
