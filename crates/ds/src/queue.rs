//! A persistent MSC-style (Michael–Scott) linked queue on allocator
//! blocks.
//!
//! One node per allocator block (a single cache line): `[value, seq,
//! next]`. A sentinel node anchors the queue; `head` points at the
//! sentinel, `tail` at the last node. Control words carry sequence tags
//! in the same line so recovery can detect leaked (post-watermark)
//! head/tail swings — the classic unflushed-pointer bug class.
//!
//! The queue exposes *steps*, not whole operations: the workload driver
//! composes them with allocator phases, detectability records, and crash
//! polls between the steps.

use adcc_pmem::undo::UndoPool;
use adcc_sim::parray::PArray;
use adcc_sim::system::MemorySystem;

use crate::alloc::PAlloc;
use crate::NONE_BLOCK;

/// Control-array words (two lines): word 0 = head block, word 1 = last
/// dequeue seq tag; word 8 = tail block, word 9 = last enqueue seq tag.
const CTRL_WORDS: usize = 16;
const TAIL: usize = 8;

/// One node, read back from a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    /// Enqueued payload.
    pub value: u64,
    /// Sequence number of the enqueuing operation.
    pub seq: u64,
    /// Next block index, or [`NONE_BLOCK`] at the tail.
    pub next: u64,
}

/// The persistent queue handle. The sentinel block is allocated by
/// [`PQueue::init`].
#[derive(Clone)]
pub struct PQueue {
    ctrl: PArray<u64>,
}

impl PQueue {
    /// Allocate the control lines (queue not yet initialized — call
    /// [`init`](Self::init)).
    pub fn new(sys: &mut MemorySystem) -> Self {
        PQueue {
            ctrl: PArray::<u64>::alloc_nvm(sys, CTRL_WORDS),
        }
    }

    /// Re-attach at a known control base address (post-crash).
    pub fn attach(ctrl_base: u64) -> Self {
        PQueue {
            ctrl: PArray::new(ctrl_base, CTRL_WORDS),
        }
    }

    /// Control base address, for layouts and post-crash discovery.
    pub fn ctrl_base(&self) -> u64 {
        self.ctrl.base()
    }

    /// Allocate the sentinel from `alloc` and persist an empty queue —
    /// initialization and rebuild-from-scratch recovery share this path.
    pub fn init(&self, sys: &mut MemorySystem, alloc: &PAlloc) {
        let s = alloc
            .unlink_free(sys, None, 0)
            .expect("sentinel block available");
        alloc.mark_in_use(sys, None, s);
        self.write_node(sys, None, alloc, s, 0, 0);
        self.ctrl.set(sys, 0, s);
        self.ctrl.set(sys, 1, 0);
        self.ctrl.set(sys, TAIL, s);
        self.ctrl.set(sys, TAIL + 1, 0);
        self.ctrl.persist_all(sys);
        sys.persist_line(alloc.block_addr(s));
        // The sentinel left the free list: persist that before op 1 runs.
        sys.persist_line(alloc.head_addr());
        sys.persist_line(alloc.next_addr(s));
        sys.sfence();
    }

    /// Head (sentinel) block index.
    pub fn head(&self, sys: &mut MemorySystem) -> u64 {
        self.ctrl.get(sys, 0)
    }

    /// Tail block index.
    pub fn tail(&self, sys: &mut MemorySystem) -> u64 {
        self.ctrl.get(sys, TAIL)
    }

    /// `(dequeue_tag, enqueue_tag)` — the control lines' sequence tags.
    pub fn ctrl_tags(&self, sys: &mut MemorySystem) -> (u64, u64) {
        (self.ctrl.get(sys, 1), self.ctrl.get(sys, TAIL + 1))
    }

    /// Read node `b`.
    pub fn node(&self, sys: &mut MemorySystem, alloc: &PAlloc, b: u64) -> Node {
        let base = alloc.block_addr(b);
        let words = PArray::<u64>::new(base, 3);
        Node {
            value: words.get(sys, 0),
            seq: words.get(sys, 1),
            next: words.get(sys, 2),
        }
    }

    /// Write a fresh node into block `b` (`next` = none), snapshotting the
    /// block line first when undo-logged.
    pub fn write_node(
        &self,
        sys: &mut MemorySystem,
        pool: Option<&mut UndoPool>,
        alloc: &PAlloc,
        b: u64,
        value: u64,
        seq: u64,
    ) {
        let base = alloc.block_addr(b);
        if let Some(pool) = pool {
            pool.tx_add_range(sys, base, 24);
        }
        let words = PArray::<u64>::new(base, 3);
        words.set(sys, 0, value);
        words.set(sys, 1, seq);
        words.set(sys, 2, NONE_BLOCK);
    }

    /// Link `b` after node `prev` (the MSC "link tail.next" step).
    pub fn link(
        &self,
        sys: &mut MemorySystem,
        pool: Option<&mut UndoPool>,
        alloc: &PAlloc,
        prev: u64,
        b: u64,
    ) {
        let next_addr = alloc.block_addr(prev) + 16;
        if let Some(pool) = pool {
            pool.tx_add_range(sys, next_addr, 8);
        }
        PArray::<u64>::new(next_addr, 1).set(sys, 0, b);
    }

    /// Swing the tail pointer to `b`, tagging the line with `seq`.
    pub fn swing_tail(
        &self,
        sys: &mut MemorySystem,
        pool: Option<&mut UndoPool>,
        b: u64,
        seq: u64,
    ) {
        if let Some(pool) = pool {
            pool.tx_add_range(sys, self.ctrl.addr(TAIL), 16);
        }
        self.ctrl.set(sys, TAIL, b);
        self.ctrl.set(sys, TAIL + 1, seq);
    }

    /// Advance the head (dequeue: `first` becomes the new sentinel),
    /// tagging the line with `seq`.
    pub fn advance_head(
        &self,
        sys: &mut MemorySystem,
        pool: Option<&mut UndoPool>,
        first: u64,
        seq: u64,
    ) {
        if let Some(pool) = pool {
            pool.tx_add_range(sys, self.ctrl.addr(0), 16);
        }
        self.ctrl.set(sys, 0, first);
        self.ctrl.set(sys, 1, seq);
    }

    /// The control line addresses `(head_line, tail_line)`.
    pub fn ctrl_addrs(&self) -> (u64, u64) {
        (self.ctrl.addr(0), self.ctrl.addr(TAIL))
    }

    /// Walk the queue: `(contents, reachable_blocks)` where contents are
    /// the `(value, seq)` pairs of the non-sentinel nodes in FIFO order
    /// and `reachable_blocks` includes the sentinel. Errors describe
    /// structural corruption (out-of-range links, cycles, tail mismatch).
    #[allow(clippy::type_complexity)]
    pub fn walk(
        &self,
        sys: &mut MemorySystem,
        alloc: &PAlloc,
    ) -> Result<(Vec<(u64, u64)>, Vec<u64>), String> {
        let head = self.head(sys);
        let tail = self.tail(sys);
        let mut contents = Vec::new();
        let mut reachable = Vec::new();
        let mut seen = vec![false; alloc.blocks() as usize];
        let mut b = head;
        loop {
            if b >= alloc.blocks() {
                return Err(format!("queue link out of range: {b}"));
            }
            if seen[b as usize] {
                return Err(format!("queue cycle at block {b}"));
            }
            seen[b as usize] = true;
            reachable.push(b);
            let node = self.node(sys, alloc, b);
            if b != head {
                contents.push((node.value, node.seq));
            }
            if node.next == NONE_BLOCK {
                break;
            }
            b = node.next;
        }
        if b != tail {
            return Err(format!("tail {tail} is not the last reachable node {b}"));
        }
        Ok((contents, reachable))
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
    fn enqueue_dequeue_fifo_order() {
        let mut s = sys();
        let alloc = PAlloc::new(&mut s, 8);
        let q = PQueue::new(&mut s);
        q.init(&mut s, &alloc);
        for (i, v) in [10u64, 20, 30].iter().enumerate() {
            let seq = i as u64 + 1;
            let b = alloc.unlink_free(&mut s, None, seq).unwrap();
            alloc.mark_in_use(&mut s, None, b);
            q.write_node(&mut s, None, &alloc, b, *v, seq);
            let t = q.tail(&mut s);
            q.link(&mut s, None, &alloc, t, b);
            q.swing_tail(&mut s, None, b, seq);
        }
        let (contents, reachable) = q.walk(&mut s, &alloc).unwrap();
        assert_eq!(contents, vec![(10, 1), (20, 2), (30, 3)]);
        assert_eq!(reachable.len(), 4, "sentinel + 3 nodes");

        // Dequeue one: head advances, old sentinel freed.
        let sentinel = q.head(&mut s);
        let first = q.node(&mut s, &alloc, sentinel).next;
        q.advance_head(&mut s, None, first, 4);
        alloc.stage_free(&mut s, None, sentinel);
        alloc.push_free(&mut s, None, sentinel, 4);
        let (contents, _) = q.walk(&mut s, &alloc).unwrap();
        assert_eq!(contents, vec![(20, 2), (30, 3)]);
    }

    #[test]
    fn walk_detects_tail_mismatch() {
        let mut s = sys();
        let alloc = PAlloc::new(&mut s, 8);
        let q = PQueue::new(&mut s);
        q.init(&mut s, &alloc);
        q.swing_tail(&mut s, None, 5, 9); // tail points at an unlinked block
        let err = q.walk(&mut s, &alloc).unwrap_err();
        assert!(err.contains("tail"), "{err}");
    }
}
