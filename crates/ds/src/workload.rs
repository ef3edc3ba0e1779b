//! The persistent data-structure workload driver.
//!
//! A [`Workload`] owns one structure (queue or hash table), the allocator
//! beneath it, and the recoverability primitives around it, and executes
//! a seeded [`OpStream`] one operation at a time with crash polls placed
//! at the protocol's real ordering windows:
//!
//! * `PH_DS_PREP` — after the announce record persists, before the body;
//! * `PH_DS_ALLOC` — between the two halves of a two-phase allocator or
//!   counter update (the metadata window);
//! * `PH_DS_MUT` — mid-mutation, between structure writes;
//! * `PH_DS_COMMIT` — after the transaction commit / completion record.
//!
//! Every operation polls `PREP`, `MUT` and `COMMIT` exactly once (so the
//! campaign's site-grain unit space is `3 × ops`), and `ALLOC` zero or
//! more times (reachable through dense access-count triggers).
//!
//! [`recover_verify_resume`] is the other half: a pure function of the
//! crash image that re-attaches the structure, audits it, resumes the
//! stream, and verifies the final state against the host oracle.

use adcc_pmem::heap::PersistentHeap;
use adcc_pmem::stats::LogStats;
use adcc_pmem::undo::{UndoPool, UndoPoolLayout};
use adcc_sim::crash::{CrashEmulator, CrashSite, RunOutcome};
use adcc_sim::image::NvmImage;
use adcc_sim::line::LINE_SHIFT;
use adcc_sim::system::{MemorySystem, SystemConfig};

use crate::alloc::{AllocatorLayout, PAlloc};
use crate::detect::{Checkpoint, OpTable};
use crate::hash::{PHash, ProbeHit};
use crate::ops::{Op, OpKind, OpStream, OpStreamCfg};
use crate::queue::PQueue;
use crate::sites::{PH_DS_ALLOC, PH_DS_COMMIT, PH_DS_MUT, PH_DS_PREP};
use crate::NONE_BLOCK;

/// Which persistent structure a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
    /// The MSC-style persistent linked queue ([`PQueue`]).
    Queue,
    /// The open-addressing persistent hash table ([`PHash`]).
    Hash,
}

/// How the workload protects its persistent updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protection {
    /// Every operation runs inside an undo-log transaction; recovery rolls
    /// the in-flight operation back exactly.
    Undo,
    /// No transactions and no per-op flushes; a watermark checkpoint is
    /// advanced every [`WorkloadCfg::sync_ops`] operations after a batched
    /// epoch persist. Recovery relies on sequence-tag leak detection.
    Baseline,
}

/// Full workload configuration. Scenarios construct these via
/// [`WorkloadCfg::queue`] / [`WorkloadCfg::hash`] and override the stream.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadCfg {
    /// Structure under test.
    pub structure: Structure,
    /// Protection protocol.
    pub protection: Protection,
    /// Op-stream generator knobs.
    pub stream: OpStreamCfg,
    /// Allocator block count (queue only; sized so exhaustion is
    /// impossible: every op enqueues at most one node).
    pub blocks: u64,
    /// Hash table slot count (power of two).
    pub slots: u64,
    /// Baseline epoch length: ops between watermark syncs.
    pub sync_ops: u64,
    /// Undo-pool snapshot capacity in lines.
    pub undo_lines: usize,
}

impl WorkloadCfg {
    /// A queue workload over `stream` under `protection`.
    pub fn queue(protection: Protection, stream: OpStreamCfg) -> Self {
        WorkloadCfg {
            structure: Structure::Queue,
            protection,
            stream,
            blocks: stream.ops + 8,
            slots: 128,
            sync_ops: 16,
            undo_lines: 32,
        }
    }

    /// A hash-table workload over `stream` under `protection`.
    pub fn hash(protection: Protection, stream: OpStreamCfg) -> Self {
        WorkloadCfg {
            structure: Structure::Hash,
            protection,
            stream,
            blocks: 16,
            slots: 128,
            sync_ops: 16,
            undo_lines: 32,
        }
    }

    /// The memory system every ds scenario runs on: a deliberately small
    /// CPU cache (64 lines) over NVM, so unflushed baseline writes are
    /// routinely evicted — i.e. leaked — mid-window.
    pub fn system(&self) -> SystemConfig {
        SystemConfig::nvm_only(4096, 1 << 20)
    }
}

/// Addresses recovery needs to re-attach every component found in a ds
/// crash image.
#[derive(Debug, Clone, Copy)]
pub struct DsLayout {
    /// Allocator metadata and arena.
    pub alloc: AllocatorLayout,
    /// Queue control base (meaningful when the structure is a queue).
    pub queue_ctrl: u64,
    /// Hash table base (meaningful when the structure is a hash).
    pub hash_table: u64,
    /// Hash counter line base.
    pub hash_count: u64,
    /// Watermark [`Checkpoint`] base.
    pub ckpt_base: u64,
    /// [`OpTable`] base.
    pub optable_base: u64,
    /// Undo pool layout (undo protection only).
    pub undo: Option<UndoPoolLayout>,
    /// [`PersistentHeap`] root-table base.
    pub heap_base: u64,
}

/// What recovery found and did, for one crash image.
#[derive(Debug, Clone)]
pub struct DsRecovery {
    /// Whether recovery *detected* interrupted work (an active transaction
    /// rolled back, an announced-but-incomplete op, or baseline dirt —
    /// leaked post-watermark tags or a failed structural audit).
    pub detected: bool,
    /// The stream position recovery resumed from: ops `1..=resume_from`
    /// were durably applied (0 after a rebuild-from-scratch).
    pub resume_from: u64,
    /// Ops re-executed to bring the structure to the end of the stream.
    pub replayed: u64,
    /// Whether every check passed: the recovered prefix state matched the
    /// host oracle, in-flight records were coherent, and the final state
    /// after resumption matched the full-stream oracle. `false` means
    /// corruption — silent if `detected` is also `false`.
    pub matches: bool,
    /// `(client, seq)` pairs the op table reported as announced but never
    /// completed (undo protection only).
    pub in_flight: Vec<(u32, u64)>,
    /// Simulated recovery + resumption time in picoseconds.
    pub sim_time_ps: u64,
}

/// A live workload: the structure, its allocator, the recoverability
/// primitives, and the forward-execution state.
pub struct Workload {
    cfg: WorkloadCfg,
    layout: DsLayout,
    alloc: PAlloc,
    queue: Option<PQueue>,
    hash: Option<PHash>,
    ckpt: Checkpoint,
    optable: OpTable,
    pool: Option<UndoPool>,
    /// Line numbers dirtied since the last baseline epoch sync.
    dirty: Vec<u64>,
    applied: u64,
}

impl Workload {
    /// Allocate and initialize every component on `sys`, registering the
    /// roots in a [`PersistentHeap`] so recovery tooling can find them by
    /// name in a raw image.
    pub fn setup(sys: &mut MemorySystem, cfg: WorkloadCfg) -> Self {
        let mut heap = PersistentHeap::new(sys, 16);
        let alloc = PAlloc::new(sys, cfg.blocks);
        let (queue, hash) = match cfg.structure {
            Structure::Queue => {
                let q = PQueue::new(sys);
                q.init(sys, &alloc);
                (Some(q), None)
            }
            Structure::Hash => (None, Some(PHash::new(sys, cfg.slots))),
        };
        let ckpt = Checkpoint::new(sys);
        let optable = OpTable::new(sys, cfg.stream.clients);
        let pool = match cfg.protection {
            Protection::Undo => Some(UndoPool::new(sys, cfg.undo_lines)),
            Protection::Baseline => None,
        };

        let al = alloc.layout();
        heap.register(sys, "ds/alloc-head", al.head_base, 64);
        if let Some(q) = &queue {
            heap.register(sys, "ds/queue-ctrl", q.ctrl_base(), 128);
        }
        if let Some(h) = &hash {
            let (tb, cb, _) = h.layout();
            heap.register(sys, "ds/hash-table", tb, 64);
            heap.register(sys, "ds/hash-count", cb, 64);
        }
        heap.register(sys, "ds/watermark", ckpt.base(), 128);
        heap.register(sys, "ds/op-table", optable.base(), 64);

        let layout = DsLayout {
            alloc: al,
            queue_ctrl: queue.as_ref().map(|q| q.ctrl_base()).unwrap_or(0),
            hash_table: hash.as_ref().map(|h| h.layout().0).unwrap_or(0),
            hash_count: hash.as_ref().map(|h| h.layout().1).unwrap_or(0),
            ckpt_base: ckpt.base(),
            optable_base: optable.base(),
            undo: pool.as_ref().map(|p| p.layout()),
            heap_base: heap.table_base(),
        };
        Workload {
            cfg,
            layout,
            alloc,
            queue,
            hash,
            ckpt,
            optable,
            pool,
            dirty: Vec::new(),
            applied: 0,
        }
    }

    /// Re-attach a workload to the components in a recovered system.
    pub fn attach(cfg: WorkloadCfg, layout: DsLayout) -> Self {
        let (queue, hash) = match cfg.structure {
            Structure::Queue => (Some(PQueue::attach(layout.queue_ctrl)), None),
            Structure::Hash => (
                None,
                Some(PHash::attach(
                    layout.hash_table,
                    layout.hash_count,
                    cfg.slots,
                )),
            ),
        };
        Workload {
            cfg,
            layout,
            alloc: PAlloc::attach(layout.alloc),
            queue,
            hash,
            ckpt: Checkpoint::attach(layout.ckpt_base),
            optable: OpTable::attach(layout.optable_base, cfg.stream.clients),
            pool: layout.undo.map(UndoPool::attach),
            dirty: Vec::new(),
            applied: 0,
        }
    }

    /// The persistent layout, for post-crash re-attachment.
    pub fn layout(&self) -> DsLayout {
        self.layout
    }

    /// Undo-log statistics (zeroed under baseline protection).
    pub fn log_stats(&self) -> LogStats {
        self.pool
            .as_ref()
            .map(|p| p.log_stats())
            .unwrap_or_default()
    }

    /// Ops applied by this handle since setup/attach.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    fn note(&self, emu: &CrashEmulator, logs: Option<&mut Vec<LogStats>>) {
        if let Some(logs) = logs {
            while logs.len() < emu.harvest_count() {
                logs.push(self.log_stats());
            }
        }
    }

    fn mark_dirty(&mut self, addr: u64) {
        if self.cfg.protection == Protection::Baseline {
            self.dirty.push(addr >> LINE_SHIFT);
        }
    }

    /// Execute one operation with crash polls, following the protection
    /// protocol. Sidecar `logs` (batch harvest mode) are sampled
    /// immediately after every poll. Returns `Crashed` when a per-trial
    /// trigger fires mid-op.
    pub fn apply_op(
        &mut self,
        emu: &mut CrashEmulator,
        op: &Op,
        mut logs: Option<&mut Vec<LogStats>>,
    ) -> RunOutcome<()> {
        let seq = op.seq;
        let client = op.client;
        self.optable.announce(emu, client, seq);

        if emu.poll(CrashSite::new(PH_DS_PREP, seq)) {
            return RunOutcome::Crashed(emu.crash_now());
        }
        self.note(emu, logs.as_deref_mut());

        if let Some(pool) = self.pool.as_mut() {
            pool.tx_begin(emu);
        }

        let mut crashed = false;
        let result = match self.cfg.structure {
            Structure::Queue => self.queue_op(emu, op, &mut crashed, &mut logs),
            Structure::Hash => self.hash_op(emu, op, &mut crashed, &mut logs),
        };
        if crashed {
            return RunOutcome::Crashed(emu.crash_now());
        }

        // Completion record + watermark, atomic with the op's effects
        // under undo; bare cache writes under baseline.
        if let Some(pool) = self.pool.as_mut() {
            pool.tx_add_range(emu, self.optable.line_addr(client), 24);
            for a in self.ckpt.line_addrs() {
                pool.tx_add_range(emu, a, 16);
            }
        }
        self.optable.complete(emu, client, seq, result);
        self.mark_dirty(self.optable.line_addr(client));
        match self.cfg.protection {
            Protection::Undo => {
                self.ckpt.store(emu, seq);
                let pool = self.pool.as_mut().expect("undo protection has a pool");
                pool.tx_commit(emu);
            }
            Protection::Baseline => {
                if seq.is_multiple_of(self.cfg.sync_ops) {
                    let lines = std::mem::take(&mut self.dirty);
                    emu.persist_lines_batched(&lines);
                    emu.sfence();
                    self.ckpt.store(emu, seq);
                }
            }
        }

        self.applied = seq;
        if emu.poll(CrashSite::new(PH_DS_COMMIT, seq)) {
            return RunOutcome::Crashed(emu.crash_now());
        }
        self.note(emu, logs);
        RunOutcome::Completed(())
    }

    /// Queue op body: returns the op result; sets `crashed` if a poll
    /// fired (the caller unwinds). Exactly one `PH_DS_MUT` poll per op.
    fn queue_op(
        &mut self,
        emu: &mut CrashEmulator,
        op: &Op,
        crashed: &mut bool,
        logs: &mut Option<&mut Vec<LogStats>>,
    ) -> u64 {
        let seq = op.seq;
        let q = self.queue.clone().expect("queue workload");
        macro_rules! poll {
            ($phase:expr) => {
                let fired = emu.poll(CrashSite::new($phase, seq));
                self.note(emu, logs.as_deref_mut());
                if fired {
                    *crashed = true;
                    return 0;
                }
            };
        }
        match op.kind {
            OpKind::Put => {
                let b = self
                    .alloc
                    .unlink_free(emu, self.pool.as_mut(), seq)
                    .expect("allocator sized for the stream");
                self.mark_dirty(self.alloc.head_addr());
                // The classic window: the block is off the free list but
                // not yet stamped IN_USE.
                poll!(PH_DS_ALLOC);
                self.alloc.mark_in_use(emu, self.pool.as_mut(), b);
                self.mark_dirty(self.alloc.next_addr(b));
                q.write_node(emu, self.pool.as_mut(), &self.alloc, b, op.value, seq);
                self.mark_dirty(self.alloc.block_addr(b));
                // Node written but not yet linked.
                poll!(PH_DS_MUT);
                let t = q.tail(emu);
                q.link(emu, self.pool.as_mut(), &self.alloc, t, b);
                self.mark_dirty(self.alloc.block_addr(t));
                q.swing_tail(emu, self.pool.as_mut(), b, seq);
                self.mark_dirty(q.ctrl_addrs().1);
                op.value
            }
            OpKind::Get => {
                let sentinel = q.head(emu);
                let first = q.node(emu, &self.alloc, sentinel).next;
                poll!(PH_DS_MUT);
                if first == NONE_BLOCK {
                    0
                } else {
                    q.node(emu, &self.alloc, first).value
                }
            }
            OpKind::Del => {
                let sentinel = q.head(emu);
                let first = q.node(emu, &self.alloc, sentinel).next;
                poll!(PH_DS_MUT);
                if first == NONE_BLOCK {
                    return 0;
                }
                let value = q.node(emu, &self.alloc, first).value;
                q.advance_head(emu, self.pool.as_mut(), first, seq);
                self.mark_dirty(q.ctrl_addrs().0);
                // The old sentinel returns to the allocator in two phases.
                self.alloc.stage_free(emu, self.pool.as_mut(), sentinel);
                self.mark_dirty(self.alloc.next_addr(sentinel));
                poll!(PH_DS_ALLOC);
                self.alloc.push_free(emu, self.pool.as_mut(), sentinel, seq);
                self.mark_dirty(self.alloc.head_addr());
                value
            }
        }
    }

    /// Hash op body — same poll contract as [`Self::queue_op`].
    fn hash_op(
        &mut self,
        emu: &mut CrashEmulator,
        op: &Op,
        crashed: &mut bool,
        logs: &mut Option<&mut Vec<LogStats>>,
    ) -> u64 {
        let seq = op.seq;
        let h = self.hash.clone().expect("hash workload");
        macro_rules! poll {
            ($phase:expr) => {
                let fired = emu.poll(CrashSite::new($phase, seq));
                self.note(emu, logs.as_deref_mut());
                if fired {
                    *crashed = true;
                    return 0;
                }
            };
        }
        match op.kind {
            OpKind::Put => match h.probe(emu, op.key) {
                ProbeHit::Found(i) => {
                    poll!(PH_DS_MUT);
                    h.write_slot(emu, self.pool.as_mut(), i, op.key, op.value, seq);
                    self.mark_dirty(h.slot_addr(i));
                    op.value
                }
                ProbeHit::Insert(i) => {
                    poll!(PH_DS_MUT);
                    h.write_slot(emu, self.pool.as_mut(), i, op.key, op.value, seq);
                    self.mark_dirty(h.slot_addr(i));
                    // Slot live, counter stale: the metadata window.
                    poll!(PH_DS_ALLOC);
                    h.bump_count(emu, self.pool.as_mut(), 1, seq);
                    self.mark_dirty(h.count_addr());
                    op.value
                }
            },
            OpKind::Get => {
                let hit = h.probe(emu, op.key);
                poll!(PH_DS_MUT);
                match hit {
                    ProbeHit::Found(i) => h.slot_value(emu, i),
                    ProbeHit::Insert(_) => 0,
                }
            }
            OpKind::Del => {
                let hit = h.probe(emu, op.key);
                poll!(PH_DS_MUT);
                match hit {
                    ProbeHit::Found(i) => {
                        let value = h.slot_value(emu, i);
                        h.delete_slot(emu, self.pool.as_mut(), i, seq);
                        self.mark_dirty(h.slot_addr(i));
                        poll!(PH_DS_ALLOC);
                        h.bump_count(emu, self.pool.as_mut(), -1, seq);
                        self.mark_dirty(h.count_addr());
                        value
                    }
                    ProbeHit::Insert(_) => 0,
                }
            }
        }
    }

    /// Re-execute one op without polls or protection (recovery-time
    /// resumption — no crash can interrupt it).
    fn replay_op(&mut self, sys: &mut MemorySystem, op: &Op) {
        match self.cfg.structure {
            Structure::Queue => {
                let q = self.queue.as_ref().expect("queue workload");
                match op.kind {
                    OpKind::Put => {
                        let b = self
                            .alloc
                            .unlink_free(sys, None, op.seq)
                            .expect("allocator sized for the stream");
                        self.alloc.mark_in_use(sys, None, b);
                        q.write_node(sys, None, &self.alloc, b, op.value, op.seq);
                        let t = q.tail(sys);
                        q.link(sys, None, &self.alloc, t, b);
                        q.swing_tail(sys, None, b, op.seq);
                    }
                    OpKind::Get => {}
                    OpKind::Del => {
                        let sentinel = q.head(sys);
                        let first = q.node(sys, &self.alloc, sentinel).next;
                        if first != NONE_BLOCK {
                            q.advance_head(sys, None, first, op.seq);
                            self.alloc.stage_free(sys, None, sentinel);
                            self.alloc.push_free(sys, None, sentinel, op.seq);
                        }
                    }
                }
            }
            Structure::Hash => {
                let h = self.hash.as_ref().expect("hash workload");
                match op.kind {
                    OpKind::Put => match h.probe(sys, op.key) {
                        ProbeHit::Found(i) => h.write_slot(sys, None, i, op.key, op.value, op.seq),
                        ProbeHit::Insert(i) => {
                            h.write_slot(sys, None, i, op.key, op.value, op.seq);
                            h.bump_count(sys, None, 1, op.seq);
                        }
                    },
                    OpKind::Get => {}
                    OpKind::Del => {
                        if let ProbeHit::Found(i) = h.probe(sys, op.key) {
                            h.delete_slot(sys, None, i, op.seq);
                            h.bump_count(sys, None, -1, op.seq);
                        }
                    }
                }
            }
        }
    }

    /// Reset every persistent component to its initial state — the
    /// rebuild-from-scratch repair path after detected baseline dirt.
    fn rebuild(&mut self, sys: &mut MemorySystem) {
        self.alloc.reinit(sys);
        if let Some(q) = &self.queue {
            q.init(sys, &self.alloc);
        }
        if let Some(h) = &self.hash {
            h.reinit(sys);
        }
        self.ckpt.reinit(sys);
        self.optable.reinit(sys);
    }

    /// The structure's current contents, via the corruption-checking walk:
    /// queue `(value, seq)` FIFO pairs or hash `(key, value, seq)` triples
    /// re-shaped into pairs-with-key — plus the blocks reachable from the
    /// queue (empty for hash).
    #[allow(clippy::type_complexity)]
    fn audit_contents(
        &self,
        sys: &mut MemorySystem,
    ) -> Result<(Vec<(u64, u64)>, Vec<(u64, u64, u64)>, Vec<u64>), String> {
        match self.cfg.structure {
            Structure::Queue => {
                let q = self.queue.as_ref().expect("queue workload");
                let (contents, reachable) = q.walk(sys, &self.alloc)?;
                Ok((contents, Vec::new(), reachable))
            }
            Structure::Hash => {
                let h = self.hash.as_ref().expect("hash workload");
                let (live, _) = h.scan(sys);
                let (count, _) = h.count_and_tag(sys);
                if count != live.len() as u64 {
                    return Err(format!(
                        "hash counter {count} disagrees with live recount {}",
                        live.len()
                    ));
                }
                Ok((Vec::new(), live, Vec::new()))
            }
        }
    }

    /// Baseline leak scan: the largest sequence tag persisted anywhere in
    /// the structure's metadata. Anything above the watermark is a leaked
    /// post-checkpoint write.
    fn max_persisted_tag(&self, sys: &mut MemorySystem, reachable: &[u64]) -> u64 {
        let mut max_tag = self.alloc.head_tag(sys);
        match self.cfg.structure {
            Structure::Queue => {
                let q = self.queue.as_ref().expect("queue workload");
                let (deq_tag, enq_tag) = q.ctrl_tags(sys);
                max_tag = max_tag.max(deq_tag).max(enq_tag);
                for &b in reachable {
                    max_tag = max_tag.max(q.node(sys, &self.alloc, b).seq);
                }
            }
            Structure::Hash => {
                let h = self.hash.as_ref().expect("hash workload");
                let (_, slot_tag) = h.scan(sys);
                let (_, count_tag) = h.count_and_tag(sys);
                max_tag = max_tag.max(slot_tag).max(count_tag);
            }
        }
        max_tag
    }

    /// Verify a completed (crash-free) run: the structure's final state
    /// must equal the full-stream host oracle and — for queues — the
    /// block-partition audit must pass. This is the completion-side
    /// counterpart of [`recover_verify_resume`], used by the campaign
    /// layer to classify crash points that land past the end of the run.
    pub fn completed_matches(&self, sys: &mut MemorySystem, stream: &OpStream) -> bool {
        match self.audit_contents(sys) {
            Err(_) => false,
            Ok((q_contents, h_contents, reachable)) => {
                if self.audit_partition(sys, &reachable).is_err() {
                    return false;
                }
                let (oq, oh) = oracle(&self.cfg, stream, stream.len());
                q_contents == oq && h_contents == oh
            }
        }
    }

    /// Queue-only block-partition audit: reachable blocks must carry
    /// `IN_USE` allocator links, and together with the free list must
    /// partition the arena exactly.
    fn audit_partition(&self, sys: &mut MemorySystem, reachable: &[u64]) -> Result<(), String> {
        if self.cfg.structure != Structure::Queue {
            return Ok(());
        }
        let free = self.alloc.free_set(sys)?;
        let mut owner = vec![0u8; self.cfg.blocks as usize];
        for &b in reachable {
            if self.alloc.link_word(sys, b) != crate::IN_USE {
                return Err(format!("reachable block {b} is not marked IN_USE"));
            }
            owner[b as usize] += 1;
        }
        for &b in &free {
            owner[b as usize] += 2;
        }
        for (b, &o) in owner.iter().enumerate() {
            if o == 3 {
                return Err(format!("block {b} is both reachable and free"));
            }
            if o == 0 {
                return Err(format!("block {b} leaked: neither reachable nor free"));
            }
        }
        Ok(())
    }
}

/// Expected oracle state at stream position `n`, in the audit shapes.
fn oracle(cfg: &WorkloadCfg, stream: &OpStream, n: u64) -> (Vec<(u64, u64)>, Vec<(u64, u64, u64)>) {
    match cfg.structure {
        Structure::Queue => (crate::replay::host_queue_contents(stream, n), Vec::new()),
        Structure::Hash => (Vec::new(), crate::replay::host_hash_contents(stream, n)),
    }
}

/// Recover a ds crash image, verify the surviving structure against the
/// op-stream prefix, resume the stream to its end, and verify the final
/// state — the full linearizability check every ds trial is classified
/// by. Pure: the result depends only on the arguments.
pub fn recover_verify_resume(
    cfg: WorkloadCfg,
    layout: DsLayout,
    sys_cfg: SystemConfig,
    image: &NvmImage,
    stream: &OpStream,
) -> DsRecovery {
    let mut sys = MemorySystem::from_image(sys_cfg, image);
    let t0 = sys.now();
    let mut w = Workload::attach(cfg, layout);

    let mut detected = false;
    let mut matches = true;
    let mut in_flight = Vec::new();
    let mut resume_from;
    let mut rebuilt = false;

    match cfg.protection {
        Protection::Undo => {
            let undo_layout = layout.undo.expect("undo protection has a pool layout");
            let rolled_back = UndoPool::needs_recovery(&undo_layout, image);
            UndoPool::recover(undo_layout, &mut sys);
            resume_from = w.ckpt.load(&mut sys);
            in_flight = w.optable.in_flight(&mut sys);
            detected = rolled_back || !in_flight.is_empty();
            // Detectable recoverability: at most the single op after the
            // watermark may be in flight, and it must be attributed to the
            // client that issued it.
            let expected_client = stream
                .ops()
                .get(resume_from as usize)
                .map(|op| (op.client, op.seq));
            if !in_flight
                .iter()
                .all(|&(c, s)| expected_client == Some((c, s)))
                || in_flight.len() > 1
            {
                matches = false;
            }
        }
        Protection::Baseline => {
            resume_from = w.ckpt.load(&mut sys);
            // Leak detection: structural audits + post-watermark tags.
            let audit =
                w.audit_contents(&mut sys)
                    .and_then(|(q_contents, h_contents, reachable)| {
                        w.audit_partition(&mut sys, &reachable)?;
                        Ok((q_contents, h_contents, reachable))
                    });
            let dirty = match &audit {
                Err(_) => true,
                Ok((_, _, reachable)) => w.max_persisted_tag(&mut sys, reachable) > resume_from,
            };
            if dirty {
                detected = true;
                rebuilt = true;
                w.rebuild(&mut sys);
                resume_from = 0;
            }
        }
    }

    // Prefix verify: the recovered structure must equal the host oracle
    // replayed to the resumption point (vacuous after a rebuild).
    if !rebuilt {
        match w.audit_contents(&mut sys) {
            Err(_) => matches = false,
            Ok((q_contents, h_contents, _)) => {
                let (oq, oh) = oracle(&cfg, stream, resume_from);
                if q_contents != oq || h_contents != oh {
                    matches = false;
                }
            }
        }
    }

    // Resume: re-execute the rest of the stream, then final-verify.
    let mut replayed = 0;
    for op in stream.ops().iter().skip(resume_from as usize) {
        w.replay_op(&mut sys, op);
        replayed += 1;
    }
    match w.audit_contents(&mut sys) {
        Err(_) => matches = false,
        Ok((q_contents, h_contents, reachable)) => {
            if w.audit_partition(&mut sys, &reachable).is_err() {
                matches = false;
            }
            let (oq, oh) = oracle(&cfg, stream, stream.len());
            if q_contents != oq || h_contents != oh {
                matches = false;
            }
        }
    }

    DsRecovery {
        detected,
        resume_from,
        replayed,
        matches,
        in_flight,
        sim_time_ps: (sys.now() - t0).ps(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcc_sim::crash::CrashTrigger;

    fn run_to_completion(cfg: WorkloadCfg) -> (Workload, MemorySystem) {
        let stream = OpStream::generate(cfg.stream);
        let mut emu = CrashEmulator::new(cfg.system(), CrashTrigger::Never);
        let mut w = Workload::setup(emu.system_mut(), cfg);
        for op in stream.ops() {
            assert!(w.apply_op(&mut emu, op, None).completed().is_some());
        }
        (w, emu.into_system())
    }

    #[test]
    fn undo_queue_full_run_matches_oracle() {
        let cfg = WorkloadCfg::queue(Protection::Undo, OpStreamCfg::default());
        let stream = OpStream::generate(cfg.stream);
        let (w, mut sys) = run_to_completion(cfg);
        let (contents, _, _) = w.audit_contents(&mut sys).unwrap();
        assert_eq!(
            contents,
            crate::replay::host_queue_contents(&stream, stream.len())
        );
        assert!(w.log_stats().appends > 0);
        assert!(
            w.log_stats().meta_appends > 0,
            "allocator metadata attributed"
        );
    }

    #[test]
    fn baseline_hash_full_run_matches_oracle() {
        let cfg = WorkloadCfg::hash(Protection::Baseline, OpStreamCfg::default());
        let stream = OpStream::generate(cfg.stream);
        let (w, mut sys) = run_to_completion(cfg);
        let (_, live, _) = w.audit_contents(&mut sys).unwrap();
        assert_eq!(
            live,
            crate::replay::host_hash_contents(&stream, stream.len())
        );
        assert_eq!(w.log_stats(), LogStats::default(), "baseline logs nothing");
    }

    /// Crash (or harvest) at the first poll of site `(phase, index)`.
    fn first_poll(phase: u32, index: u64) -> CrashTrigger {
        let site = CrashSite::new(phase, index);
        CrashTrigger::AtSite {
            site,
            occurrence: 1,
        }
    }

    fn crash_at(cfg: WorkloadCfg, trigger: CrashTrigger) -> (DsLayout, NvmImage, u64) {
        let stream = OpStream::generate(cfg.stream);
        let mut emu = CrashEmulator::new(cfg.system(), trigger);
        let mut w = Workload::setup(emu.system_mut(), cfg);
        for op in stream.ops() {
            if let RunOutcome::Crashed(img) = w.apply_op(&mut emu, op, None) {
                let site = emu.fired_site().expect("crashed");
                return (w.layout(), img, site.index);
            }
        }
        panic!("trigger never fired");
    }

    #[test]
    fn undo_queue_recovers_exactly_from_mid_alloc_crash() {
        let cfg = WorkloadCfg::queue(Protection::Undo, OpStreamCfg::default());
        let stream = OpStream::generate(cfg.stream);
        // Crash inside the allocator metadata window of some mid-stream op.
        let (layout, img, at) = crash_at(cfg, first_poll(PH_DS_ALLOC, 20));
        let r = recover_verify_resume(cfg, layout, cfg.system(), &img, &stream);
        assert!(r.detected, "active tx must be detected");
        assert!(r.matches, "undo recovery must be exact: {r:?}");
        assert_eq!(r.resume_from, at - 1, "exactly the crashed op is lost");
        assert_eq!(r.replayed, stream.len() - r.resume_from);
    }

    #[test]
    fn undo_hash_commit_crash_loses_nothing() {
        let cfg = WorkloadCfg::hash(Protection::Undo, OpStreamCfg::default());
        let stream = OpStream::generate(cfg.stream);
        let (layout, img, at) = crash_at(cfg, first_poll(PH_DS_COMMIT, 31));
        let r = recover_verify_resume(cfg, layout, cfg.system(), &img, &stream);
        assert!(r.matches, "{r:?}");
        assert_eq!(r.resume_from, at, "committed op is stable at COMMIT");
    }

    #[test]
    fn baseline_crash_is_detected_never_silent() {
        for structure_cfg in [
            WorkloadCfg::queue(Protection::Baseline, OpStreamCfg::default()),
            WorkloadCfg::hash(Protection::Baseline, OpStreamCfg::default()),
        ] {
            let stream = OpStream::generate(structure_cfg.stream);
            for idx in [5u64, 50, 113] {
                let (layout, img, _) = crash_at(structure_cfg, first_poll(PH_DS_MUT, idx));
                let r = recover_verify_resume(
                    structure_cfg,
                    layout,
                    structure_cfg.system(),
                    &img,
                    &stream,
                );
                assert!(
                    r.matches || r.detected,
                    "silent corruption at op {idx}: {r:?}"
                );
                assert!(r.matches, "recovery must repair and match: {r:?}");
            }
        }
    }

    /// Every site-grain crash state of the four configurations recovers
    /// the oracle's answer. `PQueue::init` once left the allocator's head
    /// line dirty, so a crash before op 1 committed reused the sentinel.
    #[test]
    fn every_site_state_recovers_the_oracle_answer() {
        let phases = [PH_DS_PREP, PH_DS_MUT, PH_DS_COMMIT];
        for p in [Protection::Undo, Protection::Baseline] {
            for cfg in [WorkloadCfg::queue, WorkloadCfg::hash].map(|c| c(p, Default::default())) {
                let stream = OpStream::generate(cfg.stream);
                let mut emu = CrashEmulator::new(cfg.system(), CrashTrigger::Never);
                let mut w = Workload::setup(emu.system_mut(), cfg);
                emu.arm_harvest(
                    (0..3 * stream.len())
                        .map(|u| (first_poll(phases[(u % 3) as usize], u / 3 + 1), u)),
                );
                for op in stream.ops() {
                    assert!(w.apply_op(&mut emu, op, None).completed().is_some());
                }
                let harvests = emu.take_harvests();
                assert_eq!(harvests.len() as u64, 3 * stream.len());
                for h in harvests {
                    let img = h.image.materialize();
                    let r = recover_verify_resume(cfg, w.layout(), cfg.system(), &img, &stream);
                    assert!(r.matches, "{cfg:?} unit {}: {r:?}", h.unit);
                }
            }
        }
    }

    #[test]
    fn recovery_is_a_pure_function_of_the_image() {
        let cfg = WorkloadCfg::queue(Protection::Undo, OpStreamCfg::default());
        let stream = OpStream::generate(cfg.stream);
        let (layout, img, _) = crash_at(cfg, first_poll(PH_DS_MUT, 40));
        let a = recover_verify_resume(cfg, layout, cfg.system(), &img, &stream);
        let b = recover_verify_resume(cfg, layout, cfg.system(), &img, &stream);
        assert_eq!(a.resume_from, b.resume_from);
        assert_eq!(a.replayed, b.replayed);
        assert_eq!(a.matches, b.matches);
        assert_eq!(a.detected, b.detected);
        assert_eq!(a.sim_time_ps, b.sim_time_ps);
    }
}
