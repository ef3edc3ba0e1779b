//! The simulated memory system: CPU cache → optional volatile DRAM cache →
//! NVM, plus a volatile DRAM-direct region.
//!
//! This is the reproduction of the paper's PIN-based *crash emulator*
//! combined with its Quartz-based *NVM performance emulator*:
//!
//! * Every access goes through a data-tracking write-back cache, so the NVM
//!   backing store only observes values at eviction or flush time. At a
//!   crash, all volatile levels are discarded and the NVM image is exactly
//!   what recovery can see.
//! * Every hierarchy event charges picoseconds on a deterministic
//!   [`SimClock`] according to a [`PlatformTiming`] table, with DRAM-level
//!   stream prefetching and latency-bound NVM, mirroring the paper's
//!   "1/8 bandwidth, DRAM cache bridging the gap" configuration.
//!
//! Address map: `[0, nvm_capacity)` is NVM-homed (persistent);
//! `[DRAM_BASE, DRAM_BASE + dram_capacity)` is DRAM-homed (volatile,
//! bypasses the DRAM cache, lost at crash).

use std::ops::Range;
use std::sync::Arc;

use crate::alloc::Bump;
use crate::backing::{trimmed_len, write_growing, Backing};
use crate::clock::{Bucket, SimClock, SimTime};
use crate::hook::{self, Op};
use crate::image::{DeltaImage, NvmImage};
use crate::line::{is_dram_addr, line_of, offset_in_line, DRAM_BASE, LINE_SHIFT, LINE_SIZE};
use crate::lru::{CacheConfig, SetAssocCache, Victim};
use crate::parray::Pod;
use crate::stats::MemStats;
use crate::timing::{MediaTiming, PlatformTiming, StreamDetector};

/// Which cache-line write-back instruction the platform's persistence
/// helpers use (paper §II: `CLFLUSH` is what the paper measures; it notes
/// that `CLFLUSHOPT`/`CLWB` "should further improve performance" — the
/// `repro ablation-flush` runner quantifies by how much).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlushOp {
    /// Serializing flush: evicts the line, full per-instruction stall.
    #[default]
    Clflush,
    /// Unordered flush: evicts the line, much smaller stall.
    ClflushOpt,
    /// Unordered write-back: persists the line but keeps it resident
    /// (clean), so later re-reads still hit.
    Clwb,
}

impl FlushOp {
    /// Every flush instruction, for ablation sweeps.
    pub const ALL: [FlushOp; 3] = [FlushOp::Clflush, FlushOp::ClflushOpt, FlushOp::Clwb];

    /// Stable identifier used in tables and reports.
    pub fn name(self) -> &'static str {
        match self {
            FlushOp::Clflush => "clflush",
            FlushOp::ClflushOpt => "clflushopt",
            FlushOp::Clwb => "clwb",
        }
    }
}

/// Static configuration of a [`MemorySystem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemConfig {
    /// Geometry of the (unified, last-level) CPU cache.
    pub cpu_cache: CacheConfig,
    /// Geometry of the volatile DRAM cache in front of NVM, if present
    /// (the paper's heterogeneous platform uses 32 MB).
    pub dram_cache: Option<CacheConfig>,
    /// Cost table.
    pub timing: PlatformTiming,
    /// Capacity of the NVM region in bytes.
    pub nvm_capacity: usize,
    /// Capacity of the volatile DRAM-direct region in bytes.
    pub dram_capacity: usize,
    /// Instruction used by [`MemorySystem::flush_line`] and the
    /// `persist_*` helpers built on it.
    pub flush_op: FlushOp,
    /// Kiln/whole-system-persistence ablation: caches in front of NVM are
    /// battery-backed, so a crash drains dirty NVM-homed lines instead of
    /// discarding them (the DRAM-direct scratch region stays volatile).
    pub persistent_caches: bool,
}

impl SystemConfig {
    /// Same configuration with a different flush instruction.
    pub fn with_flush_op(mut self, op: FlushOp) -> Self {
        self.flush_op = op;
        self
    }

    /// Same configuration with battery-backed (persistent) caches.
    pub fn with_persistent_caches(mut self, on: bool) -> Self {
        self.persistent_caches = on;
        self
    }
}

impl SystemConfig {
    /// The paper's NVM-only system: NVM performs like DRAM, no DRAM cache.
    pub fn nvm_only(cpu_cache_bytes: usize, nvm_capacity: usize) -> Self {
        SystemConfig {
            cpu_cache: CacheConfig::new(cpu_cache_bytes, 8),
            dram_cache: None,
            timing: PlatformTiming::nvm_only_dram_speed(),
            nvm_capacity,
            dram_capacity: 64 << 20,
            flush_op: FlushOp::Clflush,
            persistent_caches: false,
        }
    }

    /// The paper's heterogeneous NVM/DRAM system: PCM-like NVM fronted by a
    /// volatile DRAM cache.
    pub fn heterogeneous(
        cpu_cache_bytes: usize,
        dram_cache_bytes: usize,
        nvm_capacity: usize,
    ) -> Self {
        SystemConfig {
            cpu_cache: CacheConfig::new(cpu_cache_bytes, 8),
            dram_cache: Some(CacheConfig::new(dram_cache_bytes, 8)),
            timing: PlatformTiming::heterogeneous(),
            nvm_capacity,
            dram_capacity: 64 << 20,
            flush_op: FlushOp::Clflush,
            persistent_caches: false,
        }
    }
}

/// A host-side snapshot of every deterministic counter a telemetry probe
/// diffs: event counters, per-bucket attributed time, and the clock.
///
/// Taking one is free of simulated cost. Crash-image harvesting records a
/// snapshot at each fork instant so cumulative cost profiles can be
/// reconstructed after the shared execution has moved on.
#[derive(Debug, Clone, Copy)]
pub struct CounterSnapshot {
    /// Event counters at the snapshot instant.
    pub stats: MemStats,
    /// Attributed picoseconds per [`Bucket`], in `Bucket::ALL` order.
    pub bucket_ps: [u64; Bucket::COUNT],
    /// Simulated clock at the snapshot instant, picoseconds.
    pub now_ps: u64,
}

/// The shared base a run's [`DeltaImage`]s are diffed against: an immutable
/// NVM snapshot (behind an [`Arc`], so every delta of the run shares one
/// copy) plus the write-journal epoch that validates it.
///
/// Created by [`MemorySystem::delta_base`]. Taking a new base invalidates
/// the previous one (the journal restarts); so do whole-store mutations
/// like booting the system from an image. A stale base panics at fork time
/// rather than producing a wrong image.
#[derive(Clone)]
pub struct DeltaBase {
    base: Arc<NvmImage>,
    epoch: u64,
}

impl DeltaBase {
    /// The shared base snapshot.
    pub fn image(&self) -> &Arc<NvmImage> {
        &self.base
    }

    /// Logical size of the base snapshot in bytes (the NVM pool size).
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// Whether the base snapshot is of a zero-byte pool.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// Bytes of host memory the shared base holds: the pool's written
    /// prefix when the base was taken (see [`NvmImage::resident_bytes`]).
    pub fn resident_bytes(&self) -> u64 {
        self.base.resident_bytes()
    }
}

impl std::fmt::Debug for DeltaBase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DeltaBase({:?}, epoch {})", self.base, self.epoch)
    }
}

/// The simulated memory system.
///
/// Cloning copies the whole machine — each cache's directory (tags, dirty
/// bits, replacement state) and the payloads it has filled, the backing
/// stores' written prefixes, clock, counters, stream detectors — so a clone
/// continues bit-identically to the original and independently of it. A
/// clone costs what the machine holds, not what it could: a cache copies
/// one 64-byte payload per slot it has filled since the last crash (see
/// [`crate::lru`]). Cluster-level crash-state harvesting forks per-rank
/// systems this way to replay recovery from a mid-execution boundary.
/// [`Clone::clone_from`] copies into the target's own caches and backing
/// stores, so a recycled system allocates only where the source holds more
/// than the target ever did.
pub struct MemorySystem {
    cfg: SystemConfig,
    cpu: SetAssocCache,
    dramc: Option<SetAssocCache>,
    nvm: Backing,
    dram: Backing,
    nvm_alloc: Bump,
    dram_alloc: Bump,
    clock: SimClock,
    stats: MemStats,
    streams: Detectors,
    /// The stream detectors of the machines this one leads (see
    /// [`MemorySystem::lead`]); empty unless it leads one whose detectors
    /// differ from its own.
    shadows: Vec<Shadow>,
    access_count: u64,
    events: Option<Box<crate::events::EventRecorder>>,
}

/// The two media a line moves to or from below the caches, each with its
/// own stream detector and timing.
#[derive(Clone, Copy)]
enum Medium {
    Nvm,
    Dram,
}

impl Medium {
    fn timing(self, t: &PlatformTiming) -> MediaTiming {
        match self {
            Medium::Nvm => t.nvm,
            Medium::Dram => t.dram,
        }
    }
}

/// A machine's stream detectors, one per medium.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Detectors {
    nvm: StreamDetector,
    dram: StreamDetector,
}

impl Detectors {
    fn on(&mut self, medium: Medium) -> &mut StreamDetector {
        match medium {
            Medium::Nvm => &mut self.nvm,
            Medium::Dram => &mut self.dram,
        }
    }
}

/// A follower's detectors riding beside a leader's own: fed every note the
/// leader's get, and the picoseconds their answers priced beyond the
/// leader's so far.
#[derive(Debug, Clone)]
struct Shadow {
    streams: Detectors,
    ps: i64,
}

/// A machine [`MemorySystem::lead`] vouched for: what
/// [`MemorySystem::follower_ps`] needs to price its clock off its leader's.
/// Meaningful only to the leader that issued it, or a clone of that leader;
/// `Follower::default()` is the leader itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct Follower {
    /// The leader's shadow of its detectors; `None` when they are the
    /// leader's own wherever a medium prefetches.
    shadow: Option<usize>,
    /// That shadow's picoseconds when the follower joined.
    since: i64,
}

impl Clone for MemorySystem {
    fn clone(&self) -> Self {
        MemorySystem {
            cfg: self.cfg.clone(),
            cpu: self.cpu.clone(),
            dramc: self.dramc.clone(),
            nvm: self.nvm.clone(),
            dram: self.dram.clone(),
            nvm_alloc: self.nvm_alloc.clone(),
            dram_alloc: self.dram_alloc.clone(),
            clock: self.clock.clone(),
            stats: self.stats,
            streams: self.streams.clone(),
            shadows: self.shadows.clone(),
            access_count: self.access_count,
            events: self.events.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        // Exhaustive, so a new field cannot be left stale in a recycled
        // system.
        let MemorySystem {
            cfg,
            cpu,
            dramc,
            nvm,
            dram,
            nvm_alloc,
            dram_alloc,
            clock,
            stats,
            streams,
            shadows,
            access_count,
            events,
        } = source;
        self.cfg.clone_from(cfg);
        self.cpu.clone_from(cpu);
        self.dramc.clone_from(dramc);
        self.nvm.clone_from(nvm);
        self.dram.clone_from(dram);
        self.nvm_alloc.clone_from(nvm_alloc);
        self.dram_alloc.clone_from(dram_alloc);
        self.clock.clone_from(clock);
        self.stats = *stats;
        self.streams.clone_from(streams);
        self.shadows.clone_from(shadows);
        self.access_count = *access_count;
        self.events.clone_from(events);
    }
}

impl MemorySystem {
    /// Cold system (empty caches, zeroed media) from `cfg`.
    pub fn new(mut cfg: SystemConfig) -> Self {
        if let Some(cache) = hook::cpu_cache() {
            cfg.cpu_cache = cache;
        }
        MemorySystem {
            cpu: SetAssocCache::new(cfg.cpu_cache),
            dramc: cfg.dram_cache.map(SetAssocCache::new),
            nvm: Backing::new(0, cfg.nvm_capacity),
            dram: Backing::new(DRAM_BASE, cfg.dram_capacity),
            nvm_alloc: Bump::new(0, cfg.nvm_capacity),
            dram_alloc: Bump::new(DRAM_BASE, cfg.dram_capacity),
            clock: SimClock::new(),
            stats: MemStats::default(),
            streams: Detectors::default(),
            shadows: Vec::new(),
            access_count: 0,
            events: None,
            cfg,
        }
    }

    // ------------------------------------------------------------------
    // Persistency event recording (opt-in, outcome-neutral)
    // ------------------------------------------------------------------

    /// Attach a persistency [`EventRecorder`](crate::events::EventRecorder).
    /// Recording is outcome-neutral: it never charges time or bumps stats,
    /// so an instrumented run stays bit-identical to an uninstrumented one.
    pub fn attach_recorder(&mut self, rec: crate::events::EventRecorder) {
        self.events = Some(Box::new(rec));
    }

    /// Detach and return the recorder, if one is attached.
    pub fn take_recorder(&mut self) -> Option<crate::events::EventRecorder> {
        self.events.take().map(|b| *b)
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&crate::events::EventRecorder> {
        self.events.as_deref()
    }

    /// Hand one persistency event, stamped with the NVM journal epoch, to
    /// the attached recorder (no-op without one; the crash emulator marks
    /// harvested crash points through it too).
    #[inline]
    pub(crate) fn record(&mut self, event: impl FnOnce(&mut crate::events::EventRecorder, u64)) {
        if let Some(r) = self.events.as_deref_mut() {
            event(r, self.nvm.journal_epoch());
        }
    }

    /// Recreate a system from a post-crash NVM image (recovery boots with
    /// cold caches over the surviving persistent bytes).
    pub fn from_image(cfg: SystemConfig, image: &NvmImage) -> Self {
        let held = image.prefix();
        Self::boot(cfg, held[..trimmed_len(held)].to_vec(), image.len())
    }

    /// [`MemorySystem::from_image`] for a caller that is done with the
    /// image: its prefix becomes the pool instead of being copied into it.
    pub fn from_owned_image(cfg: SystemConfig, image: NvmImage) -> Self {
        let len = image.len();
        Self::boot(cfg, image.into_prefix(), len)
    }

    fn boot(cfg: SystemConfig, prefix: Vec<u8>, len: usize) -> Self {
        let mut sys = MemorySystem::new(cfg);
        sys.nvm.restore(prefix, len);
        sys
    }

    /// Dirty reboot: boot from the raw post-crash image with **no**
    /// consistency mechanism, leaving the clock in [`Bucket::Resume`] so
    /// the whole dirty continuation is attributed as recovery-resume time
    /// (EasyCrash-style restarts run *extra* iterations; this is where
    /// their cost lands).
    pub fn dirty_reboot(cfg: SystemConfig, image: &NvmImage) -> Self {
        let mut sys = MemorySystem::from_image(cfg, image);
        sys.clock_mut().set_bucket(Bucket::Resume);
        sys
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Allocate a line-aligned persistent region.
    pub fn alloc_nvm(&mut self, size: usize) -> u64 {
        self.nvm_alloc.alloc_lines(size)
    }

    /// Allocate a persistent region starting at a chosen in-line offset
    /// (deliberate line straddling).
    pub fn alloc_nvm_at_line_offset(&mut self, size: usize, offset: usize) -> u64 {
        self.nvm_alloc.alloc_at_line_offset(size, offset)
    }

    /// Allocate a line-aligned volatile region.
    pub fn alloc_dram(&mut self, size: usize) -> u64 {
        self.dram_alloc.alloc_lines(size)
    }

    // ------------------------------------------------------------------
    // Charged element accesses
    // ------------------------------------------------------------------

    /// Charged read of `buf.len()` bytes at `addr` (may span lines).
    ///
    /// Inlined into the caller so that an access known there to sit inside
    /// one line (every `PArray` element) is a single CPU-cache line access
    /// with a constant copy length; anything else — spanning or empty —
    /// takes the out-of-line byte loop.
    #[inline]
    pub fn read_bytes(&mut self, addr: u64, buf: &mut [u8]) {
        let off = offset_in_line(addr);
        if buf.is_empty() || off + buf.len() > LINE_SIZE {
            return self.read_bytes_spanning(addr, buf);
        }
        self.charge_access();
        self.with_line(line_of(addr), |data| {
            buf.copy_from_slice(&data[off..off + buf.len()]);
            false
        });
    }

    /// Charged write of `src` at `addr` (may span lines). Inlined like
    /// [`Self::read_bytes`].
    #[inline]
    pub fn write_bytes(&mut self, addr: u64, src: &[u8]) {
        let off = offset_in_line(addr);
        if src.is_empty() || off + src.len() > LINE_SIZE {
            return self.write_bytes_spanning(addr, src);
        }
        self.charge_access();
        let line = line_of(addr);
        self.record(|r, epoch| r.store(epoch, line));
        self.with_line(line, |data| {
            data[off..off + src.len()].copy_from_slice(src);
            true
        });
    }

    /// One element access: the crash-trigger count, the counter and the
    /// CPU-side cost, whatever lines it goes on to touch (an empty access
    /// touches none).
    #[inline]
    fn charge_access(&mut self) {
        self.access_count += 1;
        self.stats.accesses += 1;
        self.clock.charge(self.cfg.timing.cpu_access_ps);
    }

    /// [`Self::read_bytes`] for any length: one charged access, then one
    /// `with_line` per line touched, in address order.
    #[inline(never)]
    pub(crate) fn read_bytes_spanning(&mut self, addr: u64, buf: &mut [u8]) {
        self.charge_access();
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr + done as u64;
            let off = offset_in_line(a);
            let take = (LINE_SIZE - off).min(buf.len() - done);
            self.with_line(line_of(a), |data| {
                buf[done..done + take].copy_from_slice(&data[off..off + take]);
                false
            });
            done += take;
        }
    }

    /// [`Self::write_bytes`] for any length: one charged access, then one
    /// store event and one `with_line` per line touched, in address
    /// order.
    #[inline(never)]
    pub(crate) fn write_bytes_spanning(&mut self, addr: u64, src: &[u8]) {
        self.charge_access();
        let mut done = 0usize;
        while done < src.len() {
            let a = addr + done as u64;
            let off = offset_in_line(a);
            let take = (LINE_SIZE - off).min(src.len() - done);
            let line = line_of(a);
            self.record(|r, epoch| r.store(epoch, line));
            self.with_line(line, |data| {
                data[off..off + take].copy_from_slice(&src[done..done + take]);
                true
            });
            done += take;
        }
    }

    // ------------------------------------------------------------------
    // Charged spans: a line-chunk of hits in closed form
    // ------------------------------------------------------------------

    /// The element loop
    ///
    /// ```text
    /// for i in 0..n {
    ///     [v_0, .., v_S-1] = f(i, [read loads[0] element i, .., read loads[L-1] element i]);
    ///     write v_0 to stores[0] element i, .., v_S-1 to stores[S-1] element i;
    /// }
    /// ```
    ///
    /// over arrays of `T` at the base addresses `loads` and `stores`,
    /// leaving every charge, counter, byte and bit of cache state that loop
    /// leaves, but paying per line rather than per element. The walk goes
    /// one line-chunk at a time: the `m` elements from `i` on for which
    /// every array stays in the line holding its element `i`. If each of
    /// those `k` lines is resident in the CPU cache, all `m·k` touches of
    /// the chunk are hits on known slots. Their bytes move on copies of the
    /// lines, one copy per slot written: every store to a slot writes its
    /// copy, an input in a written slot reads it (so it sees what the loop
    /// has written), and each written copy goes back to its slot, dirty.
    /// They are charged in closed form: the counters and one clock charge
    /// in the current bucket, the cache tick, and the replacement
    /// bookkeeping of the last round of touches alone, which is all that
    /// rounds of hits repeated leave (`SetAssocCache::close_hits`).
    /// Otherwise element `i` takes the element path — so every miss, its
    /// write-back, the DRAM cache and the stream detectors stay exact by
    /// construction — and the walk goes on from `i + 1`. The element path
    /// also takes every element that straddles a line, and all of them
    /// while a recorder is attached (it sees one store event per write).
    /// Crash triggers are evaluated only at a poll, so none falls inside a
    /// span.
    pub(crate) fn span<T: Pod, const L: usize, const S: usize>(
        &mut self,
        loads: [u64; L],
        stores: [u64; S],
        n: usize,
        mut f: impl FnMut(usize, [T; L]) -> [T; S],
    ) {
        let at = |base: u64, i: usize| base + (i * T::SIZE) as u64;
        let touches = (L + S) as u64;
        let mut hits = 0;
        let mut i = 0;
        while i < n {
            let m = self.chunk_len(
                loads.iter().chain(&stores).map(|&b| at(b, i)),
                T::SIZE,
                n - i,
            );
            let end = i + m;
            let probed = (m > 0)
                .then(|| self.resident(loads.map(|b| at(b, i))))
                .flatten()
                .and_then(|held| Some((held, self.resident(stores.map(|b| at(b, i)))?)));
            let (held, out) = match probed {
                Some(held) => held,
                None => {
                    // Element `i` on the element path, noting where each
                    // line lands; each was resident right after its own
                    // touch, and only a miss's insert can have taken it
                    // since.
                    let misses = self.stats.cpu.misses;
                    let mut held = [(0, 0); L];
                    let got = std::array::from_fn(|l| {
                        let v = self.get_elem(at(loads[l], i));
                        held[l] = self.held(at(loads[l], i), m);
                        v
                    });
                    let vs = f(i, got);
                    let mut out = [(0, 0); S];
                    for s in 0..S {
                        self.set_elem(at(stores[s], i), vs[s]);
                        out[s] = self.held(at(stores[s], i), m);
                    }
                    i += 1;
                    if i >= end
                        || self.stats.cpu.misses != misses
                            && !held
                                .iter()
                                .chain(&out)
                                .all(|&(line, slot)| self.cpu.holds(slot, line))
                    {
                        continue;
                    }
                    (held, out)
                }
            };
            // The chunk on copies of its written lines: store `s` writes
            // the copy of the first store to its slot, and an input in a
            // written slot reads that copy.
            let own: [usize; S] =
                std::array::from_fn(|s| (0..s).find(|&t| out[t].1 == out[s].1).unwrap_or(s));
            let from = held.map(|(_, slot)| out.iter().position(|&(_, o)| o == slot));
            let lines = held.map(|(_, slot)| *self.cpu.slot_data(slot));
            let mut outs = out.map(|(_, slot)| *self.cpu.slot_data(slot));
            for e in i..end {
                let got = std::array::from_fn(|l| {
                    let off = offset_in_line(at(loads[l], e));
                    let line = match from[l] {
                        Some(s) => &outs[s],
                        None => &lines[l],
                    };
                    T::from_bytes(&line[off..])
                });
                let vs = f(e, got);
                for s in 0..S {
                    vs[s].to_bytes(&mut outs[own[s]][offset_in_line(at(stores[s], e))..]);
                }
            }
            let rounds = (end - i) as u64;
            hits += touches * rounds;
            self.cpu.close_hits(&held, &out, rounds);
            for s in (0..S).filter(|&s| own[s] == s) {
                *self.cpu.slot_data(out[s].1) = outs[s];
            }
            i = end;
        }
        self.charge_hits(hits);
    }

    /// [`Self::span`] over loads of two element types, with a body that
    /// makes element accesses of its own (a gather) between one element's
    /// loads and the next's. Each chunk's first element takes the element
    /// path (a streamed line is usually new, so a probe would only add a
    /// scan). A gather's miss picks its victim by the replacement state,
    /// so the chunk's later loads keep their per-touch bookkeeping (tick,
    /// LRU stamp, tree-PLRU bits) on the slots the first touches found,
    /// and only their counters and clock charge are batched — so `f` must
    /// not read the counters or the clock. When a body's access evicts one
    /// of the two lines, the next element starts a new chunk.
    pub(crate) fn span_gather<A: Pod, B: Pod>(
        &mut self,
        loads: (u64, u64),
        n: usize,
        mut f: impl FnMut(&mut Self, A, B),
    ) {
        let addrs = |i: usize| {
            [
                loads.0 + (i * A::SIZE) as u64,
                loads.1 + (i * B::SIZE) as u64,
            ]
        };
        let mut hits = 0;
        // The two lines of the chunk in hand, their slots, and its end.
        let mut chunk = ([(0, 0); 2], 0);
        for i in 0..n {
            let [a, b] = addrs(i);
            let ([(la, sa), (lb, sb)], end) = chunk;
            let (x, y) = if i < end && self.cpu.holds(sa, la) && self.cpu.holds(sb, lb) {
                hits += 2;
                (
                    A::from_bytes(&self.cpu.touch(la, sa).data_ref()[offset_in_line(a)..]),
                    B::from_bytes(&self.cpu.touch(lb, sb).data_ref()[offset_in_line(b)..]),
                )
            } else {
                let m =
                    self.chunk_len([a], A::SIZE, n - i)
                        .min(self.chunk_len([b], B::SIZE, n - i));
                let x = self.get_elem(a);
                let held_a = self.held(a, m);
                let y = self.get_elem(b);
                chunk = ([held_a, self.held(b, m)], i + m);
                (x, y)
            };
            f(self, x, y);
        }
        self.charge_hits(hits);
    }

    /// Charged read of one `T` at `addr` ([`Self::read_bytes`]).
    #[inline]
    fn get_elem<T: Pod>(&mut self, addr: u64) -> T {
        let mut buf = [0u8; 16];
        self.read_bytes(addr, &mut buf[..T::SIZE]);
        T::from_bytes(&buf)
    }

    /// Charged write of one `T` at `addr` ([`Self::write_bytes`]).
    #[inline]
    fn set_elem<T: Pod>(&mut self, addr: u64, v: T) {
        let mut buf = [0u8; 16];
        v.to_bytes(&mut buf);
        self.write_bytes(addr, &buf[..T::SIZE]);
    }

    /// How many of the next `left` elements of `size` bytes keep every
    /// array in the line holding its element at the `first` addresses:
    /// zero when one of those elements straddles a line, and with a
    /// recorder attached.
    #[inline]
    fn chunk_len(&self, first: impl IntoIterator<Item = u64>, size: usize, left: usize) -> usize {
        if self.events.is_some() {
            return 0;
        }
        first
            .into_iter()
            .map(|a| (LINE_SIZE - offset_in_line(a)) / size)
            .min()
            .map_or(0, |room| room.min(left))
    }

    /// The line of each address and the CPU-cache slot holding it, if every
    /// one is resident; touches nothing.
    #[inline]
    fn resident<const K: usize>(&self, addrs: [u64; K]) -> Option<[(u64, usize); K]> {
        let mut held = [(0, 0); K];
        for (h, a) in held.iter_mut().zip(addrs) {
            let line = line_of(a);
            *h = (line, self.cpu.slot_of(line)?);
        }
        Some(held)
    }

    /// The line at `addr` and the CPU-cache slot holding it, right after
    /// its touch — only looked for when its chunk of `m` elements has more.
    #[inline]
    fn held(&self, addr: u64, m: usize) -> (u64, usize) {
        let line = line_of(addr);
        match m {
            0 | 1 => (line, 0),
            _ => (
                line,
                self.cpu.slot_of(line).expect("a touched line is resident"),
            ),
        }
    }

    /// `n` element accesses that each hit the CPU cache once: what
    /// [`Self::charge_access`] and a hit in [`Self::with_line`] count, for
    /// all of them at once.
    #[inline]
    fn charge_hits(&mut self, n: u64) {
        self.access_count += n;
        self.stats.accesses += n;
        self.stats.cpu.hits += n;
        self.clock.charge(n * self.cfg.timing.cpu_access_ps);
    }

    /// Apply `f` to `line`'s payload in the CPU cache; `f` returns whether
    /// it dirtied the line. A hit is handled inline; a miss fetches the
    /// line, applies `f`, then installs it (evicting as needed) — both
    /// halves out of line.
    #[inline]
    fn with_line<F: FnOnce(&mut [u8; LINE_SIZE]) -> bool>(&mut self, line: u64, f: F) {
        if let Some(mut r) = self.cpu.lookup(line) {
            self.stats.cpu.hits += 1;
            if f(r.data()) {
                r.mark_dirty();
            }
            return;
        }
        let mut data = self.fetch_missed(line);
        let dirty = f(&mut data);
        self.install(line, data, dirty);
    }

    /// Count a CPU-cache miss on `line` and fetch it from below.
    #[inline(never)]
    fn fetch_missed(&mut self, line: u64) -> [u8; LINE_SIZE] {
        self.stats.cpu.misses += 1;
        self.fetch_below(line)
    }

    /// Install a fetched line in the CPU cache, writing back its victim.
    #[inline(never)]
    fn install(&mut self, line: u64, data: [u8; LINE_SIZE], dirty: bool) {
        if let Some(victim) = self.cpu.insert(line, data, dirty) {
            self.writeback(victim);
        }
    }

    /// Fetch a line's data from below the CPU cache, charging costs.
    fn fetch_below(&mut self, line: u64) -> [u8; LINE_SIZE] {
        if is_dram_addr(line << LINE_SHIFT) {
            self.charge_line(Medium::Dram, line, MediaTiming::read_cost);
            self.stats.dram_line_reads += 1;
            return self.dram.read_line(line);
        }
        // NVM-homed: consult the DRAM cache first if present.
        if let Some(dc) = self.dramc.as_mut() {
            if let Some(r) = dc.lookup(line) {
                self.stats.dram_cache.hits += 1;
                self.clock.charge(self.cfg.timing.dram.read_cost(false));
                return *r.data_ref();
            }
            self.stats.dram_cache.misses += 1;
        }
        self.charge_line(Medium::Nvm, line, MediaTiming::read_cost);
        self.stats.nvm_line_reads += 1;
        let data = self.nvm.read_line(line);
        if let Some(v) = self
            .dramc
            .as_mut()
            .and_then(|dc| dc.insert(line, data, false))
        {
            self.dram_cache_evicted(v);
        }
        data
    }

    /// Note a line moved to or from `medium` on that medium's stream
    /// detector, and charge what `price` makes of the answer: the one place
    /// a detector is asked, and all its answer decides. A machine that leads
    /// followers with detectors of their own feeds their shadows the note,
    /// each charged what its own answer prices beyond this machine's.
    /// Out of line: inlined into its seven callers, the shadows' loop alone
    /// cost `ds-sweep` ~7 % of its states per second.
    #[inline(never)]
    fn charge_line(
        &mut self,
        medium: Medium,
        line: u64,
        price: impl Fn(&MediaTiming, bool) -> u64,
    ) {
        let timing = medium.timing(&self.cfg.timing);
        let ps = price(&timing, self.streams.on(medium).note(line));
        self.clock.charge(ps);
        for shadow in &mut self.shadows {
            let theirs = price(&timing, shadow.streams.on(medium).note(line));
            shadow.ps += theirs as i64 - ps as i64;
        }
    }

    /// Write back a line evicted from the CPU cache.
    fn writeback(&mut self, v: Victim) {
        if !v.dirty {
            self.stats.cpu.clean_evictions += 1;
            return;
        }
        self.stats.cpu.dirty_evictions += 1;
        if is_dram_addr(v.line << LINE_SHIFT) {
            self.charge_line(Medium::Dram, v.line, MediaTiming::write_cost);
            self.stats.dram_line_writes += 1;
            self.dram.write_line(v.line, &v.data);
            return;
        }
        if let Some(dc) = self.dramc.as_mut() {
            self.clock.charge(self.cfg.timing.dram.write_cost(false));
            if let Some(mut r) = dc.lookup(v.line) {
                *r.data() = v.data;
                r.mark_dirty();
                return;
            }
            // Full-line write allocation: no fill needed.
            if let Some(v2) = dc.insert(v.line, v.data, true) {
                self.dram_cache_evicted(v2);
            }
            return;
        }
        self.charge_line(Medium::Nvm, v.line, MediaTiming::write_cost);
        self.stats.nvm_line_writes += 1;
        self.nvm.write_line(v.line, &v.data);
    }

    /// Retire a line the DRAM cache evicted: a dirty victim is written
    /// back to NVM.
    #[inline]
    fn dram_cache_evicted(&mut self, v: Victim) {
        if !v.dirty {
            self.stats.dram_cache.clean_evictions += 1;
            return;
        }
        self.charge_line(Medium::Nvm, v.line, MediaTiming::write_cost);
        self.stats.nvm_line_writes += 1;
        self.stats.dram_cache.dirty_evictions += 1;
        self.nvm.write_line(v.line, &v.data);
    }

    // ------------------------------------------------------------------
    // Flush / persist primitives
    // ------------------------------------------------------------------

    /// `CLFLUSH`: evict the line containing `addr` from the CPU cache,
    /// writing it back one level if dirty. Does **not** guarantee the data
    /// reached NVM on the heterogeneous platform (it may land in the
    /// volatile DRAM cache) — that is the paper's motivating pitfall; use
    /// [`MemorySystem::persist_line`] for durability.
    #[track_caller]
    pub fn clflush(&mut self, addr: u64) {
        if hook::skips(Op::Flush) {
            return;
        }
        self.stats.clflushes += 1;
        self.clock.charge(self.cfg.timing.clflush_ps);
        self.record(|r, epoch| r.flush(epoch, line_of(addr)));
        if let Some(v) = self.cpu.remove(line_of(addr)) {
            self.writeback(v);
        }
    }

    /// `CLFLUSHOPT`: like [`MemorySystem::clflush`] but unordered, so the
    /// per-instruction stall is much smaller.
    #[track_caller]
    pub fn clflushopt(&mut self, addr: u64) {
        if hook::skips(Op::Flush) {
            return;
        }
        self.stats.clflushopts += 1;
        self.clock.charge(self.cfg.timing.clflushopt_ps);
        self.record(|r, epoch| r.flush(epoch, line_of(addr)));
        if let Some(v) = self.cpu.remove(line_of(addr)) {
            self.writeback(v);
        }
    }

    /// `CLWB`: write the line back one level if dirty, but keep it resident
    /// (clean) in the CPU cache — later re-reads still hit.
    #[track_caller]
    pub fn clwb(&mut self, addr: u64) {
        if hook::skips(Op::Flush) {
            return;
        }
        self.stats.clwbs += 1;
        self.clock.charge(self.cfg.timing.clwb_ps);
        self.record(|r, epoch| r.flush(epoch, line_of(addr)));
        if let Some(v) = self.cpu.clean_line(line_of(addr)) {
            self.writeback(v);
        }
    }

    /// Flush the line containing `addr` using the configured
    /// [`FlushOp`] (see [`SystemConfig::flush_op`]).
    #[track_caller]
    pub fn flush_line(&mut self, addr: u64) {
        match self.cfg.flush_op {
            FlushOp::Clflush => self.clflush(addr),
            FlushOp::ClflushOpt => self.clflushopt(addr),
            FlushOp::Clwb => self.clwb(addr),
        }
    }

    /// Push the line containing `addr` all the way to its home medium:
    /// CPU flush plus, for NVM-homed lines on the heterogeneous platform,
    /// eviction of the DRAM-cache copy to NVM (the paper's "flush the DRAM
    /// cache using memory copy", at line granularity).
    #[track_caller]
    pub fn persist_line(&mut self, addr: u64) {
        self.flush_line(addr);
        if is_dram_addr(addr) || hook::skips(Op::Flush) {
            return;
        }
        let line = line_of(addr);
        if let Some(v) = self.dramc.as_mut().and_then(|dc| dc.remove(line)) {
            if v.dirty {
                self.charge_line(Medium::Nvm, v.line, MediaTiming::write_cost);
                self.stats.nvm_line_writes += 1;
                self.nvm.write_line(v.line, &v.data);
            }
        }
    }

    /// Persist every line of `[addr, addr + len)` (see
    /// [`MemorySystem::persist_line`]).
    #[track_caller]
    pub fn persist_range(&mut self, addr: u64, len: usize) {
        if len == 0 {
            return;
        }
        let first = line_of(addr);
        let last = line_of(addr + len as u64 - 1);
        for line in first..=last {
            self.persist_line(line << LINE_SHIFT);
        }
    }

    /// Batched epoch persist (Pelley et al. "Memory Persistency", Joshi
    /// et al. "Efficient Persist Barriers"): persist a whole epoch's worth
    /// of lines at once. Persists within an epoch are unordered with
    /// respect to each other, so each line pays only its issue overhead and
    /// medium transfer; the medium latency is paid **once** at the barrier
    /// (all in-flight persists overlap), followed by one fence.
    ///
    /// An **empty** line set is free: no barrier is counted, no fence is
    /// issued, no time is charged. There is nothing in flight to order, and
    /// mechanisms that call this unconditionally per epoch must not have
    /// their flush/fence telemetry skewed by no-op epochs (the telemetry
    /// neutrality suite pins this).
    ///
    /// Contrast with a `persist_line` loop, which pays latency + fence
    /// serialization per line. The `repro ablation-epoch` runner compares
    /// both for the ABFT checksum flushing, where the paper's related-work
    /// section says these proposals "can be complementary to our work".
    #[track_caller]
    pub fn persist_lines_batched(&mut self, lines_in: &[u64]) {
        if lines_in.is_empty() {
            return;
        }
        self.stats.epoch_barriers += 1;
        let mut lines: Vec<u64> = if hook::skips(Op::Flush) {
            Vec::new()
        } else {
            lines_in.to_vec()
        };
        lines.sort_unstable();
        lines.dedup();
        let t = self.cfg.timing;
        let mut max_lat = 0u64;
        for &line in &lines {
            self.stats.clflushopts += 1;
            self.clock.charge(t.clflushopt_ps);
            self.record(|r, epoch| r.flush_batched(epoch, line));
            let addr = line << LINE_SHIFT;
            let cpu_victim = self.cpu.remove(line);
            if is_dram_addr(addr) {
                if let Some(v) = cpu_victim {
                    if v.dirty {
                        self.clock.charge(t.dram.line_transfer_ps);
                        self.stats.dram_line_writes += 1;
                        self.dram.write_line(line, &v.data);
                        max_lat = max_lat.max(t.dram.write_lat_ps);
                    }
                }
                continue;
            }
            // NVM-homed: the newest copy is the CPU one if dirty, else a
            // possibly-dirty DRAM-cache copy. Either way the DRAM-cache
            // copy must not linger (it would shadow NVM with stale data).
            let dc_victim = self.dramc.as_mut().and_then(|dc| dc.remove(line));
            let newest = match cpu_victim {
                Some(v) if v.dirty => Some(v.data),
                _ => dc_victim.filter(|v| v.dirty).map(|v| v.data),
            };
            if let Some(data) = newest {
                self.clock.charge(t.nvm.line_transfer_ps);
                self.stats.nvm_line_writes += 1;
                self.nvm.write_line(line, &data);
                max_lat = max_lat.max(t.nvm.write_lat_ps);
            }
        }
        self.clock.charge(max_lat);
        self.sfence();
    }

    /// `SFENCE`: order earlier flushes before later stores. Pure cost.
    #[track_caller]
    pub fn sfence(&mut self) {
        if hook::skips(Op::Fence) {
            return;
        }
        self.stats.sfences += 1;
        self.record(|r, epoch| r.fence(epoch));
        self.clock
            .charge_to(Bucket::Fence, self.cfg.timing.sfence_ps);
    }

    /// Write back every dirty line of the volatile DRAM cache to NVM,
    /// leaving lines resident but clean. The scan walks the whole cache
    /// directory (there is no per-line flush instruction for a memory-side
    /// cache), which is what makes heterogeneous checkpoints expensive.
    pub fn drain_dram_cache(&mut self) {
        let t = self.cfg.timing;
        let Some(dc) = self.dramc.as_mut() else {
            return;
        };
        self.stats.dram_drains += 1;
        let scan = dc.capacity_lines() as u64 * t.dram_drain_scan_ps;
        self.clock.charge(scan);
        let dirty = dc.clean_all();
        for v in dirty {
            self.charge_line(Medium::Nvm, v.line, MediaTiming::write_cost);
            self.stats.nvm_line_writes += 1;
            self.nvm.write_line(v.line, &v.data);
        }
    }

    // ------------------------------------------------------------------
    // Bulk helpers
    // ------------------------------------------------------------------

    /// Charged copy of `len` bytes from `src` to `dst`, line by line
    /// through the cache hierarchy (what a checkpoint memcpy does).
    pub fn copy_range(&mut self, dst: u64, src: u64, len: usize) {
        let mut done = 0usize;
        let mut buf = [0u8; LINE_SIZE];
        while done < len {
            let take = LINE_SIZE.min(len - done);
            let chunk = &mut buf[..take];
            self.read_bytes(src + done as u64, chunk);
            let chunk = &buf[..take];
            self.write_bytes(dst + done as u64, chunk);
            done += take;
        }
    }

    /// Uncharged write directly into the backing store, bypassing caches.
    /// Used to seed input data that is "already in NVM" before the measured
    /// execution begins (matrices, grids).
    pub fn seed_bytes(&mut self, addr: u64, src: &[u8]) {
        if is_dram_addr(addr) {
            self.dram.write_bytes(addr, src);
        } else {
            self.nvm.write_bytes(addr, src);
        }
    }

    /// Uncharged logical read: the value the program would observe (checking
    /// caches first). Does not disturb LRU state. For tests and debugging.
    pub fn peek_bytes(&self, addr: u64, buf: &mut [u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr + done as u64;
            let off = offset_in_line(a);
            let take = (LINE_SIZE - off).min(buf.len() - done);
            let line = line_of(a);
            let data = self.peek_line(line);
            buf[done..done + take].copy_from_slice(&data[off..off + take]);
            done += take;
        }
    }

    fn peek_line(&self, line: u64) -> [u8; LINE_SIZE] {
        if let Some(data) = self.cpu.probe(line) {
            return *data;
        }
        if let Some(dc) = &self.dramc {
            if let Some(data) = dc.probe(line) {
                return *data;
            }
        }
        let addr = line << LINE_SHIFT;
        if is_dram_addr(addr) {
            self.dram.read_line(line)
        } else {
            self.nvm.read_line(line)
        }
    }

    // ------------------------------------------------------------------
    // Compute charging and clock access
    // ------------------------------------------------------------------

    /// Charge `n` floating-point operations.
    #[inline]
    pub fn charge_flops(&mut self, n: u64) {
        self.clock
            .charge_to(Bucket::Compute, n * self.cfg.timing.flop_ps);
    }

    /// Charge raw picoseconds to the current bucket.
    #[inline]
    pub fn charge_ps(&mut self, ps: u64) {
        self.clock.charge(ps);
    }

    /// Charge I/O device time.
    #[inline]
    pub fn charge_io(&mut self, ps: u64) {
        self.clock.charge_to(Bucket::Io, ps);
    }

    /// Charge one outbound fabric message: `ps` of network time on this
    /// rank's clock plus the send counters a telemetry probe diffs. The
    /// fabric computes `ps` from its own timing model; the memory system
    /// only records it (multi-rank executions, `adcc::dist`).
    #[inline]
    pub fn charge_net_send(&mut self, bytes: u64, ps: u64) {
        self.stats.net_msgs_sent += 1;
        self.stats.net_bytes_sent += bytes;
        self.clock.charge_to(Bucket::Network, ps);
    }

    /// Charge network time that moves no payload owned by this rank:
    /// receive-side latency and barrier-synchronization waits.
    #[inline]
    pub fn charge_net_wait(&mut self, ps: u64) {
        self.clock.charge_to(Bucket::Network, ps);
    }

    /// Charge the cost of masking injected fabric faults on this rank:
    /// `dropped` lost attempts retransmitted (`retries` of them), one
    /// spurious `duplicated` transmit, a message marked `reordered`, and
    /// `ps` of network time covering the extra wire work. The fabric's
    /// fault plan computes the counts and the time; the memory system only
    /// records them (multi-rank executions, `adcc::dist`).
    #[inline]
    pub fn charge_net_faults(
        &mut self,
        dropped: u64,
        duplicated: u64,
        reordered: u64,
        retries: u64,
        ps: u64,
    ) {
        self.stats.net_dropped += dropped;
        self.stats.net_duplicated += duplicated;
        self.stats.net_reordered += reordered;
        self.stats.net_retries += retries;
        self.clock.charge_to(Bucket::Network, ps);
    }

    /// The simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The simulated clock (mutable, e.g. for bucket switching).
    pub fn clock_mut(&mut self) -> &mut SimClock {
        &mut self.clock
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Event counters since construction (they survive crashes).
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// The static configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Total element accesses so far (crash-trigger granularity).
    pub fn access_count(&self) -> u64 {
        self.access_count
    }

    /// Whether this machine and `other` have **one future**: any sequence
    /// of operations applied to both from here on charges the same
    /// picoseconds to the same buckets, moves every counter by the same
    /// amount, reads the same values and leaves the same crash images. The
    /// simulator is deterministic, so that holds exactly when every input
    /// to a later charge or read is equal, and this compares all of them —
    /// no hash, no tolerance:
    ///
    /// * the configuration, both bump allocators and the clock's current
    ///   bucket;
    /// * both caches, set by set, as (line, dirty, payload) in replacement
    ///   order (see `SetAssocCache::same_future_modulo`: exact for LRU and
    ///   FIFO, `false` for the policies whose victim depends on the way);
    /// * the NVM and DRAM backing contents;
    /// * each stream detector, position by position — unless its medium
    ///   does not prefetch, in which case its answers price nothing
    ///   ([`MediaTiming::read_cost`](crate::timing::MediaTiming::read_cost)
    ///   ignores them) and it is not an input.
    ///
    /// What it does not compare makes it answer `false`: an attached event
    /// recorder, a running write journal. What is *not* an input, and may
    /// differ: the clock's reading, the counters and the access count (only
    /// their deltas are determined), and which way of its set a line sits
    /// in. Uncharged; costs one pass over both machines' resident bytes, so
    /// it belongs between work units, never on an access path.
    pub fn same_future(&self, other: &Self) -> bool {
        self.same_future_modulo(other, &[])
    }

    /// [`MemorySystem::same_future`] with the **payload bytes** of the NVM
    /// address ranges `cells` (ascending, disjoint) exempt — in both caches'
    /// line payloads and in the NVM backing — and nothing else: whether a
    /// cell's line is resident, where it stands in the replacement order,
    /// its dirty bit, and every other byte stay exact. The simulator never
    /// prices, addresses or orders anything by payload, so two machines this
    /// vouches for charge, count and evict alike whatever is done to them;
    /// what they can differ in is what they *read* from a cell. The caller
    /// owes the rest: `cells` may name only bytes that no address, branch or
    /// charge of the code still to run depends on, and that this code
    ///
    /// * reads only to add to and write back — a **tally**, which keeps its
    ///   difference; or
    /// * overwrites before it reads, or never reads — a **dead cell**, whose
    ///   difference nothing sees and which an overwrite makes equal.
    ///
    /// Then everything outside the cells is one future.
    pub fn same_future_modulo(&self, other: &Self, cells: &[Range<u64>]) -> bool {
        self.priced_streams(&other.streams) == self.streams
            && self.same_future_but_streams(other, cells)
    }

    /// Whether `follower` has this machine's future modulo `cells` and
    /// its stream detectors — [`MemorySystem::same_future_modulo`] with the
    /// detectors exempt — and, if so, the [`Follower`] that prices them.
    ///
    /// A detector's answer only picks between two prices of one line
    /// transfer: the two machines miss, count, read and evict alike under
    /// whatever is done to both, and only their clocks drift apart. So
    /// where a prefetching medium's detectors differ, this machine — the
    /// **leader** — takes a *shadow* of the follower's, or shares the one an
    /// earlier follower left that now stands equal to them. From here on it
    /// feeds every shadow the notes its own detectors get, and
    /// [`MemorySystem::follower_ps`] reads how far the follower's clock would
    /// have moved beyond its own: exactly, as long as the two take the same
    /// operations. A shadow is a detector pair and a counter, and nothing
    /// retires one: a leader lives as long as the chain it leads.
    pub fn lead(&mut self, follower: &Self, cells: &[Range<u64>]) -> Option<Follower> {
        if !self.same_future_but_streams(follower, cells) {
            return None;
        }
        let streams = self.priced_streams(&follower.streams);
        if streams == self.streams {
            return Some(Follower::default());
        }
        let at = match self.shadows.iter().position(|s| s.streams == streams) {
            Some(at) => at,
            None => {
                self.shadows.push(Shadow { streams, ps: 0 });
                self.shadows.len() - 1
            }
        };
        Some(Follower {
            shadow: Some(at),
            since: self.shadows[at].ps,
        })
    }

    /// The picoseconds `follower`'s clock has moved beyond this machine's
    /// since [`MemorySystem::lead`] vouched for it: zero for a follower
    /// whose priced detectors were this machine's own, and for
    /// [`Follower::default`], the leader itself.
    pub fn follower_ps(&self, follower: &Follower) -> i64 {
        follower
            .shadow
            .map_or(0, |at| self.shadows[at].ps - follower.since)
    }

    /// `streams` where a medium prefetches, this machine's own where it does
    /// not (its answers price nothing there).
    fn priced_streams(&self, streams: &Detectors) -> Detectors {
        let t = &self.cfg.timing;
        let pick = |prefetch: bool, theirs: &StreamDetector, mine: &StreamDetector| {
            if prefetch { theirs } else { mine }.clone()
        };
        Detectors {
            nvm: pick(t.nvm.prefetch, &streams.nvm, &self.streams.nvm),
            dram: pick(t.dram.prefetch, &streams.dram, &self.streams.dram),
        }
    }

    /// [`MemorySystem::same_future_modulo`] but for the stream detectors.
    fn same_future_but_streams(&self, other: &Self, cells: &[Range<u64>]) -> bool {
        debug_assert!(
            cells.windows(2).all(|w| w[0].end <= w[1].start)
                && cells.iter().all(|c| c.end <= DRAM_BASE),
            "cells are ascending, disjoint NVM ranges"
        );
        self.events.is_none()
            && other.events.is_none()
            && self.cfg == other.cfg
            && self.clock.bucket() == other.clock.bucket()
            && self.nvm_alloc == other.nvm_alloc
            && self.dram_alloc == other.dram_alloc
            && self.cpu.same_future_modulo(&other.cpu, cells)
            && match (&self.dramc, &other.dramc) {
                (Some(mine), Some(theirs)) => mine.same_future_modulo(theirs, cells),
                (None, None) => true,
                _ => false,
            }
            && self.nvm.same_future_modulo(&other.nvm, cells)
            && self.dram.same_future_modulo(&other.dram, &[])
    }

    /// Whether a program reading this machine and `other` would see the
    /// same byte at every NVM and DRAM address: each machine's caches
    /// overlaid on its backing stores, as [`MemorySystem::peek_bytes`] reads
    /// them. Exact, like [`MemorySystem::same_future`], but over values
    /// only: where a line lives, whether it is dirty, the clock, counters,
    /// stream detectors, allocators and configuration are not compared
    /// (media of different address ranges answer `false`). So two machines
    /// it vouches for compute alike under code that allocates nothing, but
    /// may charge, evict and crash apart.
    ///
    /// Uncharged. A line resident in either machine's caches is compared
    /// whole, every other byte as one slice of the written prefixes per gap
    /// between such lines: between work units, never on an access path.
    pub fn same_contents(&self, other: &Self) -> bool {
        let mut lines: Vec<u64> = [self, other]
            .into_iter()
            .flat_map(|s| {
                s.cpu
                    .iter_lines()
                    .chain(s.dramc.iter().flat_map(|c| c.iter_lines()))
            })
            .map(|(line, _)| line)
            .collect();
        lines.sort_unstable();
        lines.dedup();
        let cells: Vec<Range<u64>> = lines
            .iter()
            .map(|&l| l << LINE_SHIFT..(l + 1) << LINE_SHIFT)
            .collect();
        let (nvm, dram) = cells.split_at(cells.partition_point(|c| !is_dram_addr(c.start)));
        self.nvm.same_bytes_outside(&other.nvm, nvm)
            && self.dram.same_bytes_outside(&other.dram, dram)
            && lines
                .iter()
                .all(|&l| self.peek_line(l) == other.peek_line(l))
    }

    /// Count the distinct dirty NVM-homed cache lines currently resident in
    /// the volatile hierarchy (CPU cache and, on the heterogeneous
    /// platform, the DRAM cache). This is the paper's "dirty data in the
    /// cache hierarchy" residency: the bytes a crash at this instant would
    /// expose to recovery as stale NVM. Uncharged; telemetry hook.
    pub fn dirty_nvm_lines(&self) -> u64 {
        let mut lines: Vec<u64> = self
            .cpu
            .iter_lines()
            .chain(self.dramc.iter().flat_map(|dc| dc.iter_lines()))
            .filter(|&(line, dirty)| dirty && !is_dram_addr(line << LINE_SHIFT))
            .map(|(line, _)| line)
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines.len() as u64
    }

    // ------------------------------------------------------------------
    // Crash
    // ------------------------------------------------------------------

    /// Crash the machine: every volatile level (CPU cache, DRAM cache,
    /// DRAM-direct region) is discarded and the surviving NVM image is
    /// returned. The system itself is left cold (cleared caches) so it can
    /// model the post-restart machine.
    ///
    /// With [`SystemConfig::persistent_caches`] (the Kiln /
    /// whole-system-persistence ablation), dirty NVM-homed lines are
    /// drained into NVM by the battery *before* the volatile state is
    /// discarded — uncharged, because the drain happens after the
    /// application has already died. The DRAM-direct scratch region is
    /// still lost.
    pub fn crash(&mut self) -> NvmImage {
        // Residency metadata is taken pre-drain: with battery-backed caches
        // it measures what *would* have been exposed, not what was lost.
        let dirty_lines = self.dirty_nvm_lines();
        for (line, data) in self.battery_drain() {
            self.nvm.write_line(line, &data);
        }
        self.cpu.clear();
        if let Some(dc) = self.dramc.as_mut() {
            dc.clear();
        }
        self.dram.wipe();
        // A follower crashes alike: its detectors forget as this one's do.
        self.streams = Detectors::default();
        for shadow in &mut self.shadows {
            shadow.streams = Detectors::default();
        }
        self.nvm_snapshot().with_dirty_lines(dirty_lines)
    }

    /// Non-destructive snapshot of the current NVM backing store (what
    /// *would* survive a crash right now). Uncharged; for tests/analysis.
    pub fn nvm_snapshot(&self) -> NvmImage {
        NvmImage::new(self.nvm.snapshot(), self.nvm.capacity())
    }

    /// Snapshot every deterministic counter (see [`CounterSnapshot`]).
    pub fn counter_snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            stats: self.stats,
            bucket_ps: self.clock.bucket_totals(),
            now_ps: self.clock.now().ps(),
        }
    }

    /// Take the shared base for copy-on-write crash images: snapshot the
    /// NVM pool once and start the backing store's write journal. Every
    /// subsequent [`MemorySystem::crash_fork_delta`] captures only the
    /// lines written since this call (diffed against the base, so
    /// rewrites of identical bytes are dropped too).
    ///
    /// Taking a new base restarts the journal and invalidates the previous
    /// base. Uncharged.
    pub fn delta_base(&mut self) -> DeltaBase {
        let epoch = self.nvm.mark_journal();
        DeltaBase {
            base: Arc::new(self.nvm_snapshot()),
            epoch,
        }
    }

    /// Retire the base taken by [`MemorySystem::delta_base`]: stop the write
    /// journal and free its per-line mark table (12.5% of the pool's
    /// capacity). A system that is kept around after its last fork — a
    /// batch's forward machine waiting for the merge — should not keep
    /// paying for forks it will never take. Uncharged.
    pub fn retire_delta_base(&mut self) {
        self.nvm.end_journal();
    }

    /// Fork the crash image at the current point as a copy-on-write delta
    /// against `base`: semantically identical to
    /// [`MemorySystem::crash_fork`] (honoring
    /// [`SystemConfig::persistent_caches`] the same way), but storing only
    /// the NVM lines that differ from the base snapshot. Panics if `base`
    /// is stale (a newer base was taken, or the pool was wholesale
    /// restored/wiped since). Uncharged.
    pub fn crash_fork_delta(&self, base: &DeltaBase) -> DeltaImage {
        assert_eq!(
            base.epoch,
            self.nvm.journal_epoch(),
            "stale DeltaBase: the NVM write journal was restarted since this base was taken"
        );
        let nvm_base = self.nvm.base();
        // Lines the battery would drain may never have reached the backing
        // store.
        let drain = self.battery_drain();
        let mut lines: Vec<u64> = self.nvm.journal_lines().to_vec();
        lines.extend(drain.iter().map(|&(line, _)| line));
        lines.sort_unstable();
        lines.dedup();
        let mut kept = Vec::with_capacity(lines.len());
        let mut data = Vec::with_capacity(lines.len() * LINE_SIZE);
        for &line in &lines {
            let payload = match drain.binary_search_by_key(&line, |&(l, _)| l) {
                Ok(i) => drain[i].1,
                Err(_) => self.nvm.read_line(line),
            };
            let off = (line << LINE_SHIFT) - nvm_base;
            let mut in_base = [0u8; LINE_SIZE];
            base.base.read_bytes(off, &mut in_base);
            if payload != in_base {
                kept.push(line);
                data.extend_from_slice(&payload);
            }
        }
        // The payload is shared by every unit this fork serves and lives as
        // long as the batch: give back the room reserved for lines that
        // turned out to match the base.
        kept.shrink_to_fit();
        data.shrink_to_fit();
        DeltaImage::new(Arc::clone(&base.base), kept, data).with_dirty_lines(self.dirty_nvm_lines())
    }

    /// Fork the crash image at the current point: exactly the [`NvmImage`]
    /// that [`MemorySystem::crash`] would return *right now*, without
    /// discarding any volatile state, so execution can continue.
    ///
    /// This is the cheap snapshot hook crash-injection campaigns build on:
    /// one instrumented execution can yield an image per crash point
    /// instead of re-running the application once per point. Honors
    /// [`SystemConfig::persistent_caches`] by overlaying the dirty
    /// NVM-homed cache lines the battery would drain (CPU copies supersede
    /// DRAM-cache copies, like the real drain). Uncharged.
    pub fn crash_fork(&self) -> NvmImage {
        let mut prefix = self.nvm.snapshot();
        let base = self.nvm.base();
        for (line, data) in self.battery_drain() {
            // A drained line may sit beyond anything NVM ever held.
            write_growing(&mut prefix, ((line << LINE_SHIFT) - base) as usize, &data);
        }
        NvmImage::new(prefix, self.nvm.capacity()).with_dirty_lines(self.dirty_nvm_lines())
    }

    /// What the battery of [`SystemConfig::persistent_caches`] drains into
    /// NVM at a crash, sorted by line: every dirty NVM-homed cache line,
    /// its CPU copy superseding the DRAM cache's (the newer one). Empty
    /// without battery-backed caches.
    fn battery_drain(&self) -> Vec<(u64, [u8; LINE_SIZE])> {
        if !self.cfg.persistent_caches {
            return Vec::new();
        }
        let mut drain: Vec<(u64, [u8; LINE_SIZE])> = self
            .cpu
            .iter_resident()
            .chain(self.dramc.iter().flat_map(|dc| dc.iter_resident()))
            .filter(|&(line, dirty, _)| dirty && !is_dram_addr(line << LINE_SHIFT))
            .map(|(line, _, data)| (line, *data))
            .collect();
        // Stable, so the CPU copy leads its line's run and dedup keeps it.
        drain.sort_by_key(|&(line, _)| line);
        drain.dedup_by_key(|&mut (line, _)| line);
        drain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sys() -> MemorySystem {
        // 4 KiB CPU cache, no DRAM cache, 1 MiB NVM.
        MemorySystem::new(SystemConfig::nvm_only(4096, 1 << 20))
    }

    fn hetero_sys() -> MemorySystem {
        MemorySystem::new(SystemConfig::heterogeneous(4096, 16384, 1 << 20))
    }

    #[test]
    fn read_after_write_same_value() {
        let mut s = small_sys();
        let a = s.alloc_nvm(128);
        s.write_bytes(a, &[1, 2, 3, 4]);
        let mut out = [0u8; 4];
        s.read_bytes(a, &mut out);
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn dirty_data_not_in_nvm_until_flush() {
        let mut s = small_sys();
        let a = s.alloc_nvm(64);
        s.write_bytes(a, &[9; 8]);
        // NVM still holds zeros: the write is stranded in cache.
        let img = s.nvm_snapshot();
        assert_eq!(img.read_u8(a), 0);
        s.clflush(a);
        let img = s.nvm_snapshot();
        assert_eq!(img.read_u8(a), 9);
    }

    #[test]
    fn crash_discards_cached_writes() {
        let mut s = small_sys();
        let a = s.alloc_nvm(64);
        let b = s.alloc_nvm(64);
        s.write_bytes(a, &[7; 8]);
        s.clflush(a);
        s.write_bytes(b, &[8; 8]);
        let img = s.crash();
        assert_eq!(img.read_u8(a), 7, "flushed line survives");
        assert_eq!(img.read_u8(b), 0, "unflushed line lost");
    }

    #[test]
    fn eviction_writes_back_dirty_lines() {
        let mut s = small_sys();
        // Cache is 4 KiB = 64 lines; write 128 distinct lines to force
        // evictions of the earliest ones.
        let a = s.alloc_nvm(128 * 64);
        for i in 0..128u64 {
            s.write_bytes(a + i * 64, &[i as u8; 8]);
        }
        let img = s.nvm_snapshot();
        // The very first line must have been evicted (written back).
        assert_eq!(img.read_u8(a), 0u8.wrapping_sub(0)); // value was 0
        assert_eq!(img.read_u8(a + 64), 1);
    }

    #[test]
    fn clflush_on_hetero_lands_in_dram_cache_not_nvm() {
        let mut s = hetero_sys();
        let a = s.alloc_nvm(64);
        s.write_bytes(a, &[5; 8]);
        s.clflush(a);
        // CLFLUSH pushed it only into the volatile DRAM cache.
        let img = s.nvm_snapshot();
        assert_eq!(img.read_u8(a), 0, "CLFLUSH alone is not durable on hetero");
        // A crash loses it.
        let img = s.crash();
        assert_eq!(img.read_u8(a), 0);
    }

    #[test]
    fn persist_line_is_durable_on_hetero() {
        let mut s = hetero_sys();
        let a = s.alloc_nvm(64);
        s.write_bytes(a, &[5; 8]);
        s.persist_line(a);
        let img = s.crash();
        assert_eq!(img.read_u8(a), 5);
    }

    #[test]
    fn drain_dram_cache_persists_evicted_writes() {
        let mut s = hetero_sys();
        let a = s.alloc_nvm(64);
        s.write_bytes(a, &[6; 8]);
        s.clflush(a); // now dirty in DRAM cache
        s.drain_dram_cache();
        let img = s.crash();
        assert_eq!(img.read_u8(a), 6);
    }

    #[test]
    fn copy_range_copies_values() {
        let mut s = small_sys();
        let src = s.alloc_nvm(256);
        let dst = s.alloc_nvm(256);
        let data: Vec<u8> = (0..=255u8).collect();
        s.write_bytes(src, &data[..64]);
        s.write_bytes(src + 64, &data[64..128]);
        s.write_bytes(src + 128, &data[128..192]);
        s.write_bytes(src + 192, &data[192..]);
        s.copy_range(dst, src, 256);
        let mut out = vec![0u8; 256];
        s.peek_bytes(dst, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn seed_bytes_bypasses_cache_and_clock() {
        let mut s = small_sys();
        let a = s.alloc_nvm(64);
        let before = s.now();
        s.seed_bytes(a, &[3; 64]);
        assert_eq!(s.now(), before);
        let mut out = [0u8; 4];
        s.read_bytes(a, &mut out);
        assert_eq!(out, [3; 4]);
    }

    #[test]
    fn dram_direct_lost_on_crash() {
        let mut s = small_sys();
        let a = s.alloc_dram(64);
        s.write_bytes(a, &[4; 8]);
        s.clflush(a);
        let mut out = [0u8; 8];
        s.peek_bytes(a, &mut out);
        assert_eq!(out, [4; 8]);
        s.crash();
        let mut out = [1u8; 8];
        s.peek_bytes(a, &mut out);
        assert_eq!(out, [0; 8], "DRAM-direct region wiped at crash");
    }

    #[test]
    fn time_advances_and_nvm_slower_than_cache_hits() {
        let mut s = hetero_sys();
        let a = s.alloc_nvm(64);
        let t0 = s.now();
        s.read_bytes(a, &mut [0u8; 8]); // cold miss -> NVM
        let t_miss = s.now() - t0;
        let t1 = s.now();
        s.read_bytes(a, &mut [0u8; 8]); // hit
        let t_hit = s.now() - t1;
        assert!(t_miss.ps() > 10 * t_hit.ps(), "{t_miss} !>> {t_hit}");
    }

    #[test]
    fn sfence_counts_and_charges() {
        let mut s = small_sys();
        let t0 = s.now();
        s.sfence();
        assert_eq!(s.stats().sfences, 1);
        assert!(s.now() > t0);
    }

    #[test]
    fn multi_line_access_straddles_correctly() {
        let mut s = small_sys();
        let a = s.alloc_nvm(192);
        let src: Vec<u8> = (0..100u8).collect();
        // Write 100 bytes starting 30 bytes into a line.
        s.write_bytes(a + 30, &src);
        let mut out = vec![0u8; 100];
        s.read_bytes(a + 30, &mut out);
        assert_eq!(out, src);
    }

    #[test]
    fn empty_access_is_charged_but_touches_no_line() {
        let mut s = small_sys();
        let a = s.alloc_nvm(64);
        let mut rec = crate::events::EventRecorder::new();
        rec.track_range(a, 64);
        s.attach_recorder(rec);
        let t0 = s.now();
        s.read_bytes(a, &mut []);
        s.write_bytes(a, &[]);
        assert_eq!(s.stats().accesses, 2);
        assert_eq!(s.access_count(), 2);
        assert_eq!((s.now() - t0).ps(), 2 * s.config().timing.cpu_access_ps);
        assert_eq!(s.stats().cpu, crate::stats::LevelStats::default());
        assert_eq!(s.dirty_nvm_lines(), 0);
        assert!(s.take_recorder().expect("attached").is_empty());
    }

    #[test]
    fn sixteen_bytes_at_offset_56_are_one_access_over_two_lines() {
        use crate::events::EventKind;
        let mut s = small_sys();
        let a = s.alloc_nvm(128);
        let mut rec = crate::events::EventRecorder::new();
        rec.track_range(a, 128);
        s.attach_recorder(rec);
        let src: Vec<u8> = (1..=16).collect();
        s.write_bytes(a + 56, &src);
        assert_eq!(s.stats().accesses, 1);
        assert_eq!((s.stats().cpu.hits, s.stats().cpu.misses), (0, 2));
        let mut out = [0u8; 16];
        s.read_bytes(a + 56, &mut out);
        assert_eq!(out[..], src[..]);
        assert_eq!(s.stats().accesses, 2);
        assert_eq!(s.access_count(), 2);
        assert_eq!((s.stats().cpu.hits, s.stats().cpu.misses), (2, 2));
        let kinds: Vec<EventKind> = s
            .take_recorder()
            .expect("attached")
            .events()
            .iter()
            .map(|e| e.kind)
            .collect();
        let line = line_of(a);
        assert_eq!(
            kinds,
            [
                EventKind::Store { line },
                EventKind::Store { line: line + 1 }
            ]
        );
    }

    #[test]
    fn clflushopt_is_cheaper_but_equally_durable() {
        let mut s1 = small_sys();
        let a = s1.alloc_nvm(64);
        s1.write_bytes(a, &[5; 8]);
        let t0 = s1.now();
        s1.clflush(a);
        let t_clflush = s1.now() - t0;

        let mut s2 = small_sys();
        let b = s2.alloc_nvm(64);
        s2.write_bytes(b, &[5; 8]);
        let t0 = s2.now();
        s2.clflushopt(b);
        let t_opt = s2.now() - t0;

        assert!(t_opt < t_clflush, "{t_opt} !< {t_clflush}");
        assert_eq!(s2.crash().read_u8(b), 5);
        assert_eq!(s2.stats().clflushopts, 1);
    }

    #[test]
    fn clwb_persists_but_line_stays_hot() {
        let mut s = small_sys();
        let a = s.alloc_nvm(64);
        s.write_bytes(a, &[6; 8]);
        s.clwb(a);
        // Durable...
        assert_eq!(s.nvm_snapshot().read_u8(a), 6);
        // ...and still a cache hit (no new NVM read).
        let reads_before = s.stats().nvm_line_reads;
        s.read_bytes(a, &mut [0u8; 8]);
        assert_eq!(s.stats().nvm_line_reads, reads_before);
        assert_eq!(s.stats().clwbs, 1);
    }

    #[test]
    fn clwb_on_clean_line_writes_nothing() {
        let mut s = small_sys();
        let a = s.alloc_nvm(64);
        s.read_bytes(a, &mut [0u8; 8]); // resident, clean
        let writes = s.stats().nvm_line_writes;
        s.clwb(a);
        assert_eq!(s.stats().nvm_line_writes, writes);
    }

    #[test]
    fn configured_flush_op_routes_helpers() {
        let cfg = SystemConfig::nvm_only(4096, 1 << 20).with_flush_op(FlushOp::Clwb);
        let mut s = MemorySystem::new(cfg);
        let a = s.alloc_nvm(256);
        s.write_bytes(a, &[8; 8]);
        s.persist_range(a, 256);
        assert_eq!(s.stats().clflushes, 0);
        assert!(s.stats().clwbs >= 4);
        assert_eq!(s.crash().read_u8(a), 8);
    }

    #[test]
    fn persistent_caches_save_unflushed_data_at_crash() {
        let cfg = SystemConfig::nvm_only(4096, 1 << 20).with_persistent_caches(true);
        let mut s = MemorySystem::new(cfg);
        let a = s.alloc_nvm(64);
        s.write_bytes(a, &[9; 8]);
        // No flush at all — the battery drains the cache at crash time.
        let img = s.crash();
        assert_eq!(img.read_u8(a), 9);
    }

    #[test]
    fn persistent_caches_on_hetero_drain_both_levels() {
        let cfg = SystemConfig::heterogeneous(4096, 16384, 1 << 20).with_persistent_caches(true);
        let mut s = MemorySystem::new(cfg);
        let a = s.alloc_nvm(128);
        s.write_bytes(a, &[1; 8]);
        s.clflush(a); // dirty in the DRAM cache now
        s.write_bytes(a + 64, &[2; 8]); // dirty in the CPU cache
        let img = s.crash();
        assert_eq!(img.read_u8(a), 1);
        assert_eq!(img.read_u8(a + 64), 2);
    }

    #[test]
    fn persistent_caches_still_lose_dram_direct() {
        let cfg = SystemConfig::nvm_only(4096, 1 << 20).with_persistent_caches(true);
        let mut s = MemorySystem::new(cfg);
        let a = s.alloc_dram(64);
        s.write_bytes(a, &[7; 8]);
        s.crash();
        let mut out = [9u8; 8];
        s.peek_bytes(a, &mut out);
        assert_eq!(out, [0; 8]);
    }

    #[test]
    fn crash_fork_equals_crash_image_and_preserves_the_run() {
        let mut s = small_sys();
        let a = s.alloc_nvm(64);
        let b = s.alloc_nvm(64);
        s.write_bytes(a, &[7; 8]);
        s.clflush(a);
        s.write_bytes(b, &[8; 8]); // stranded in cache
        let fork = s.crash_fork();
        // The fork is non-destructive: cached data is still visible...
        let mut out = [0u8; 8];
        s.peek_bytes(b, &mut out);
        assert_eq!(out, [8; 8]);
        // ...and the image matches what a real crash produces.
        let crashed = s.crash();
        assert_eq!(fork, crashed);
        assert_eq!(fork.read_u8(a), 7);
        assert_eq!(fork.read_u8(b), 0);
    }

    #[test]
    fn crash_fork_equals_crash_on_hetero() {
        let mut s = hetero_sys();
        let a = s.alloc_nvm(128);
        s.write_bytes(a, &[5; 8]);
        s.clflush(a); // dirty in the volatile DRAM cache
        s.write_bytes(a + 64, &[6; 8]); // dirty in the CPU cache
        let fork = s.crash_fork();
        let crashed = s.crash();
        assert_eq!(fork, crashed);
        assert_eq!(fork.read_u8(a), 0, "DRAM-cache copy is volatile");
    }

    #[test]
    fn crash_fork_drains_persistent_caches_like_crash() {
        let cfg = SystemConfig::heterogeneous(4096, 16384, 1 << 20).with_persistent_caches(true);
        let mut s = MemorySystem::new(cfg);
        let a = s.alloc_nvm(128);
        s.write_bytes(a, &[1; 8]);
        s.clflush(a); // dirty in the DRAM cache
        s.write_bytes(a + 64, &[2; 8]); // dirty in the CPU cache
        let fork = s.crash_fork();
        let crashed = s.crash();
        assert_eq!(fork, crashed);
        assert_eq!(fork.read_u8(a), 1);
        assert_eq!(fork.read_u8(a + 64), 2);
    }

    #[test]
    fn dirty_nvm_lines_track_unflushed_writes() {
        let mut s = small_sys();
        let a = s.alloc_nvm(256);
        assert_eq!(s.dirty_nvm_lines(), 0);
        s.write_bytes(a, &[1; 8]); // one dirty line
        s.write_bytes(a + 64, &[2; 8]); // second dirty line
        assert_eq!(s.dirty_nvm_lines(), 2);
        s.clflush(a); // persisted: no longer dirty anywhere
        assert_eq!(s.dirty_nvm_lines(), 1);
        // DRAM-direct writes never count as dirty persistent data.
        let d = s.alloc_dram(64);
        s.write_bytes(d, &[3; 8]);
        assert_eq!(s.dirty_nvm_lines(), 1);
        // The crash image carries the residency it observed.
        let img = s.crash();
        assert_eq!(img.dirty_lines_at_crash(), 1);
        assert_eq!(img.dirty_bytes_at_crash(), 64);
    }

    #[test]
    fn dirty_nvm_lines_dedup_across_hetero_levels() {
        let mut s = hetero_sys();
        let a = s.alloc_nvm(64);
        s.write_bytes(a, &[5; 8]);
        s.clflush(a); // dirty copy now in the DRAM cache
        assert_eq!(s.dirty_nvm_lines(), 1);
        s.write_bytes(a, &[6; 8]); // dirty again in the CPU cache too
        assert_eq!(s.dirty_nvm_lines(), 1, "same line counted once");
        let fork = s.crash_fork();
        assert_eq!(fork.dirty_lines_at_crash(), 1);
    }

    #[test]
    fn delta_fork_materializes_to_the_full_crash_fork_image() {
        let mut s = small_sys();
        let a = s.alloc_nvm(256);
        s.write_bytes(a, &[1; 8]);
        s.clflush(a); // in NVM before the base is taken
        let base = s.delta_base();
        s.write_bytes(a + 64, &[2; 8]);
        s.clflush(a + 64); // persisted after the base: must be in the delta
        s.write_bytes(a + 128, &[3; 8]); // stranded in cache: not in NVM
        let delta = s.crash_fork_delta(&base);
        let full = s.crash_fork();
        assert_eq!(delta.materialize(), full);
        assert_eq!(delta.read_u8(a), 1, "pre-base bytes come from the base");
        assert_eq!(delta.read_u8(a + 64), 2, "post-base bytes from the delta");
        assert_eq!(delta.read_u8(a + 128), 0, "cached write not durable");
        assert_eq!(delta.delta_line_count(), 1, "only the flushed line");
        assert_eq!(delta.dirty_lines_at_crash(), full.dirty_lines_at_crash());
    }

    #[test]
    fn delta_fork_drops_rewrites_of_identical_bytes() {
        let mut s = small_sys();
        let a = s.alloc_nvm(64);
        s.write_bytes(a, &[7; 8]);
        s.clflush(a);
        let base = s.delta_base();
        s.write_bytes(a, &[7; 8]); // same bytes again
        s.clflush(a);
        let delta = s.crash_fork_delta(&base);
        assert_eq!(delta.delta_line_count(), 0);
        assert_eq!(delta.materialize(), s.crash_fork());
    }

    #[test]
    fn delta_forks_accumulate_as_the_run_advances() {
        let mut s = small_sys();
        let a = s.alloc_nvm(4 * 64);
        let base = s.delta_base();
        let mut deltas = Vec::new();
        for i in 0..4u64 {
            s.write_bytes(a + i * 64, &[i as u8 + 1; 8]);
            s.clflush(a + i * 64);
            deltas.push(s.crash_fork_delta(&base));
        }
        for (i, d) in deltas.iter().enumerate() {
            assert_eq!(d.delta_line_count(), i as u64 + 1);
            // Earlier forks are unaffected by later writes.
            assert_eq!(d.read_u8(a + i as u64 * 64), i as u8 + 1);
            if i + 1 < 4 {
                assert_eq!(d.read_u8(a + (i as u64 + 1) * 64), 0);
            }
        }
        // All deltas share one base allocation.
        assert_eq!(Arc::strong_count(deltas[0].base()), 5);
    }

    #[test]
    fn delta_fork_equals_crash_fork_with_persistent_caches() {
        let cfg = SystemConfig::heterogeneous(4096, 16384, 1 << 20).with_persistent_caches(true);
        let mut s = MemorySystem::new(cfg);
        let a = s.alloc_nvm(128);
        let base = s.delta_base();
        s.write_bytes(a, &[1; 8]);
        s.clflush(a); // dirty in the DRAM cache
        s.write_bytes(a + 64, &[2; 8]); // dirty in the CPU cache
        let delta = s.crash_fork_delta(&base);
        let full = s.crash_fork();
        assert_eq!(delta.materialize(), full);
        assert_eq!(delta.read_u8(a), 1);
        assert_eq!(delta.read_u8(a + 64), 2);
    }

    #[test]
    #[should_panic(expected = "stale DeltaBase")]
    fn stale_delta_base_panics_at_fork() {
        let mut s = small_sys();
        let old = s.delta_base();
        let _new = s.delta_base();
        let _ = s.crash_fork_delta(&old);
    }

    #[test]
    fn empty_batched_persist_is_free() {
        let mut s = small_sys();
        let t0 = s.now();
        let stats0 = *s.stats();
        s.persist_lines_batched(&[]);
        assert_eq!(s.now(), t0, "no time charged");
        assert_eq!(s.stats().sfences, stats0.sfences, "no fence issued");
        assert_eq!(
            s.stats().epoch_barriers,
            stats0.epoch_barriers,
            "no barrier counted"
        );
    }

    #[test]
    fn net_charges_hit_the_network_bucket_and_counters() {
        let mut s = small_sys();
        s.charge_net_send(128, 5_000);
        s.charge_net_wait(1_000);
        assert_eq!(s.stats().net_msgs_sent, 1);
        assert_eq!(s.stats().net_bytes_sent, 128);
        assert_eq!(s.clock().bucket_total(Bucket::Network), SimTime(6_000));
        assert_eq!(s.now(), SimTime(6_000));
    }

    #[test]
    fn counter_snapshot_matches_live_counters() {
        let mut s = small_sys();
        let a = s.alloc_nvm(64);
        s.write_bytes(a, &[1; 8]);
        s.persist_line(a);
        s.sfence();
        let snap = s.counter_snapshot();
        assert_eq!(snap.now_ps, s.now().ps());
        assert_eq!(snap.stats.sfences, s.stats().sfences);
        assert_eq!(snap.bucket_ps, s.clock().bucket_totals());
    }

    #[test]
    fn from_image_restores_persistent_state() {
        let mut s = small_sys();
        let a = s.alloc_nvm(64);
        s.write_bytes(a, &[42; 8]);
        s.persist_line(a);
        let img = s.crash();
        let mut s2 = MemorySystem::new(SystemConfig::nvm_only(4096, 1 << 20));
        s2.nvm.restore(img.prefix().to_vec(), img.len());
        let mut out = [0u8; 8];
        s2.read_bytes(a, &mut out);
        assert_eq!(out, [42; 8]);
    }

    /// Where an op lands: (`true` = the DRAM-direct region, `false` = the NVM
    /// one; byte offset into it).
    type At = (bool, u64);

    /// One step of a random program for the access-path differential test.
    #[derive(Debug, Clone)]
    enum Op {
        /// Read this many bytes.
        Read(At, usize),
        /// Write this many bytes, counting up from the given value.
        Write(At, usize, u8),
        /// Read the `u64` at this offset of the NVM region, add to it, write
        /// it back: all an accumulator cell ever sees.
        Bump(u64, u8),
        Clflush(At),
        ClflushOpt(At),
        Clwb(At),
        PersistLine(At),
        /// Batched persist of the NVM lines holding these offsets.
        PersistBatched(Vec<u64>),
        Sfence,
        Drain,
        /// `crash_fork`: the image a crash here would leave, run untouched.
        Fork,
        Crash,
    }

    /// Bytes of each region the ops address: 24 lines against a 16-line
    /// CPU cache, so hits, misses and evictions all occur.
    const REGION: u64 = 24 * LINE_SIZE as u64;

    fn op_strategy() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        let at = || (any::<bool>(), 0..REGION);
        prop_oneof![
            8 => (at(), 0usize..=16).prop_map(|(at, len)| Op::Read(at, len)),
            8 => (at(), 0usize..=16, any::<u8>()).prop_map(|(at, len, v)| Op::Write(at, len, v)),
            1 => at().prop_map(Op::Clflush),
            1 => at().prop_map(Op::ClflushOpt),
            1 => at().prop_map(Op::Clwb),
            1 => at().prop_map(Op::PersistLine),
            1 => prop::collection::vec(0..REGION, 0..6).prop_map(Op::PersistBatched),
            1 => Just(Op::Sfence),
            1 => Just(Op::Drain),
            1 => Just(Op::Fork),
            1 => Just(Op::Crash),
        ]
    }

    /// What one op let the program observe.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Nothing,
        Bytes(Vec<u8>),
        Image(NvmImage),
    }

    /// The bytes `Op::Write(_, len, v)` stores.
    fn payload(len: usize, v: u8) -> Vec<u8> {
        (0..len as u8).map(|i| v.wrapping_add(i)).collect()
    }

    /// Run `op` by the public entry points, on regions based at `nvm` and
    /// `dram`.
    fn apply(sys: &mut MemorySystem, op: &Op, nvm: u64, dram: u64) -> Seen {
        let addr = |(in_dram, off): At| if in_dram { dram + off } else { nvm + off };
        match *op {
            Op::Read(at, len) => {
                let mut buf = vec![0u8; len];
                sys.read_bytes(addr(at), &mut buf);
                return Seen::Bytes(buf);
            }
            Op::Write(at, len, v) => sys.write_bytes(addr(at), &payload(len, v)),
            Op::Bump(off, by) => {
                let mut word = [0u8; 8];
                sys.read_bytes(nvm + off, &mut word);
                let sum = u64::from_le_bytes(word).wrapping_add(by.into());
                sys.write_bytes(nvm + off, &sum.to_le_bytes());
            }
            Op::Clflush(at) => sys.clflush(addr(at)),
            Op::ClflushOpt(at) => sys.clflushopt(addr(at)),
            Op::Clwb(at) => sys.clwb(addr(at)),
            Op::PersistLine(at) => sys.persist_line(addr(at)),
            Op::PersistBatched(ref offs) => {
                let lines: Vec<u64> = offs.iter().map(|&o| line_of(nvm + o)).collect();
                sys.persist_lines_batched(&lines);
            }
            Op::Sfence => sys.sfence(),
            Op::Drain => sys.drain_dram_cache(),
            Op::Fork => return Seen::Image(sys.crash_fork()),
            Op::Crash => return Seen::Image(sys.crash()),
        }
        Seen::Nothing
    }

    /// Run `ops` through two clones of one system — `fast` by the public
    /// entry points, `slow` with every access forced through the spanning
    /// loop — and require them to stay indistinguishable.
    fn access_paths_agree(cfg: SystemConfig, ops: &[Op]) -> proptest::prelude::TestCaseResult {
        use proptest::prelude::*;
        let mut fast = MemorySystem::new(cfg);
        // 16 bytes of slack: an access may start on the region's last byte.
        let nvm = fast.alloc_nvm(REGION as usize + 16);
        let dram = fast.alloc_dram(REGION as usize + 16);
        let mut rec = crate::events::EventRecorder::new();
        rec.track_range(nvm, REGION as usize + 16);
        fast.attach_recorder(rec);
        let mut slow = fast.clone();
        let addr = |(in_dram, off): At| if in_dram { dram + off } else { nvm + off };
        for (k, op) in ops.iter().enumerate() {
            let seen = apply(&mut fast, op, nvm, dram);
            let spanning = match *op {
                Op::Read(at, len) => {
                    let mut buf = vec![0xAAu8; len];
                    slow.read_bytes_spanning(addr(at), &mut buf);
                    Seen::Bytes(buf)
                }
                Op::Write(at, len, v) => {
                    slow.write_bytes_spanning(addr(at), &payload(len, v));
                    Seen::Nothing
                }
                _ => apply(&mut slow, op, nvm, dram),
            };
            prop_assert_eq!(seen, spanning, "op {}: {:?}", k, op);
            prop_assert_eq!(fast.stats(), slow.stats(), "op {}: {:?}", k, op);
            prop_assert_eq!(
                fast.clock().bucket_totals(),
                slow.clock().bucket_totals(),
                "op {}: {:?}",
                k,
                op
            );
        }
        prop_assert_eq!(fast.access_count(), slow.access_count());
        prop_assert_eq!(fast.now(), slow.now());
        prop_assert_eq!(
            fast.recorder().expect("attached").events(),
            slow.recorder().expect("attached").events()
        );
        let (a, b) = (fast.crash(), slow.crash());
        prop_assert_eq!(a.dirty_lines_at_crash(), b.dirty_lines_at_crash());
        prop_assert_eq!(a, b);
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The inlined line-local path changes no byte, counter, bucket or
        /// store event against the byte loop, on either platform under any
        /// replacement policy. (Both sides share the cache's last-hit
        /// memory; `lru.rs` tests that against the scan.)
        #[test]
        fn line_local_fast_path_equals_the_spanning_loop(
            ops in proptest::collection::vec(op_strategy(), 1..250),
        ) {
            use crate::policy::ReplacementPolicy;
            for policy in ReplacementPolicy::ALL {
                let mut nvm_only = SystemConfig::nvm_only(16 * LINE_SIZE, 1 << 16);
                nvm_only.cpu_cache = nvm_only.cpu_cache.with_policy(policy);
                access_paths_agree(nvm_only, &ops)?;

                let mut hetero =
                    SystemConfig::heterogeneous(16 * LINE_SIZE, 32 * LINE_SIZE, 1 << 16);
                hetero.cpu_cache = hetero.cpu_cache.with_policy(policy);
                hetero.dram_cache = hetero.dram_cache.map(|c| c.with_policy(policy));
                access_paths_agree(hetero, &ops)?;
            }
        }
    }
    // ------------------------------------------------------------------
    // same_future
    // ------------------------------------------------------------------

    /// Lines of the op region, its slack line included.
    const LINES: u64 = REGION / LINE_SIZE as u64 + 1;

    fn tiny_nvm_only() -> SystemConfig {
        SystemConfig::nvm_only(16 * LINE_SIZE, 1 << 16)
    }

    fn tiny_hetero() -> SystemConfig {
        SystemConfig::heterogeneous(16 * LINE_SIZE, 32 * LINE_SIZE, 1 << 16)
    }

    /// A machine with a history: every region line written (the later ones
    /// still dirty in cache, the earlier ones evicted), one persisted.
    /// Returns it with the region's first line number.
    fn warm(cfg: SystemConfig) -> (MemorySystem, u64) {
        let mut s = MemorySystem::new(cfg);
        let a = s.alloc_nvm(LINES as usize * LINE_SIZE);
        for l in 0..LINES {
            s.write_bytes(a + l * LINE_SIZE as u64, &[l as u8 + 1; 8]);
        }
        s.persist_line(a);
        (s, line_of(a))
    }

    #[test]
    fn one_differing_input_each_breaks_same_future() {
        let (a, first) = warm(tiny_nvm_only());
        assert!(a.same_future(&a.clone()));
        // The last line written, and the line written before it in its set.
        let (mru, second) = (first + LINES - 1, first + LINES - 3);
        // Two cells: a byte of the first line (persisted and evicted: NVM
        // holds its only copy) and a word of the last (dirty in cache).
        let (in_nvm, in_cache) = (first << LINE_SHIFT, mru << LINE_SHIFT);
        let cells = [in_nvm + 5..in_nvm + 6, in_cache + 32..in_cache + 40];
        // Whether `a` vouches for `b`: exactly, and with the cells' payload
        // exempt. Either way from either side.
        let vouched = |a: &MemorySystem, b: &MemorySystem, cells: &[Range<u64>]| {
            assert_eq!(a.same_future(b), b.same_future(a));
            let modulo = a.same_future_modulo(b, cells);
            assert_eq!(modulo, b.same_future_modulo(a, cells));
            (a.same_future(b), modulo)
        };
        // `exempt`: the difference is payload of a cell and nothing else.
        let differs = |what: &str, exempt: bool, change: &dyn Fn(&mut MemorySystem)| {
            let mut b = a.clone();
            change(&mut b);
            assert_eq!(vouched(&a, &b, &cells), (false, exempt), "{what}");
        };
        differs("a dirty bit, on a cell's line", false, &|b| {
            assert!(b.cpu.clean_line(mru).is_some());
        });
        differs("a payload byte", false, &|b| {
            b.cpu.lookup(mru).expect("resident").data()[63] ^= 1;
        });
        differs("a cell's payload byte", true, &|b| {
            b.cpu.lookup(mru).expect("resident").data()[32] ^= 1;
        });
        differs("the payload byte past a cell", false, &|b| {
            b.cpu.lookup(mru).expect("resident").data()[40] ^= 1;
        });
        differs("a recency swap", false, &|b| {
            assert!(b.cpu.lookup(second).is_some());
        });
        differs("a cell's line resident on one side only", false, &|b| {
            assert!(b.cpu.remove(mru).is_some());
        });
        differs("an NVM byte", false, &|b| {
            b.nvm.write_bytes(in_nvm + 70, &[0xEE]);
        });
        differs("a cell's NVM byte", true, &|b| {
            b.nvm.write_bytes(in_nvm + 5, &[0xEE]);
        });
        differs("the NVM byte past a cell", false, &|b| {
            b.nvm.write_bytes(in_nvm + 6, &[0xEE]);
        });
        differs("a DRAM byte", false, &|b| {
            b.dram.write_bytes(DRAM_BASE, &[1]);
        });
        differs("an NVM stream entry", false, &|b| {
            b.streams.nvm.note(9_999);
        });
        differs("a DRAM stream entry", false, &|b| {
            b.streams.dram.note(9_999);
        });
        differs("an allocation", false, &|b| {
            b.alloc_nvm(8);
        });
        differs("the clock's bucket", false, &|b| {
            b.clock_mut().set_bucket(Bucket::Resume);
        });
        differs("the flush instruction", false, &|b| {
            b.cfg.flush_op = FlushOp::Clwb;
        });
        differs("battery-backed caches", false, &|b| {
            b.cfg.persistent_caches = true;
        });

        // On the heterogeneous platform the DRAM cache is an input too; the
        // NVM detector is not — PCM-like NVM does not prefetch, so nothing
        // is priced by its answers.
        let (a, first) = warm(tiny_hetero());
        let mut b = a.clone();
        b.streams.nvm.note(9_999);
        assert!(a.same_future(&b));
        // The line the CPU cache evicted last: the newest of its DRAM-cache
        // set, so a lookup there moves no line past another.
        let evicted = first + LINES - 17;
        let cell = evicted << LINE_SHIFT..(evicted << LINE_SHIFT) + 8;
        let cells = std::slice::from_ref(&cell);
        let dramc = b.dramc.as_mut().expect("heterogeneous");
        dramc.lookup(evicted).expect("evicted into it").data()[7] ^= 1;
        assert_eq!(
            vouched(&a, &b, cells),
            (false, true),
            "a cell in the DRAM cache"
        );
        let dramc = b.dramc.as_mut().expect("heterogeneous");
        dramc.lookup(evicted).expect("evicted into it").data()[8] ^= 1;
        assert_eq!(vouched(&a, &b, cells), (false, false), "the byte past it");
        let mut b = a.clone();
        let dramc = b.dramc.as_mut().expect("heterogeneous");
        assert!(dramc.clean_line(first + 1).is_some(), "evicted dirty");
        assert!(!a.same_future(&b), "a DRAM-cache dirty bit went unnoticed");
    }

    /// `same_contents` reads each machine as a program would, caches over
    /// backing, from either side.
    #[test]
    fn one_differing_byte_each_breaks_same_contents() {
        let (a, first) = warm(tiny_nvm_only());
        let mru = first + LINES - 1;
        // Whether the two read alike, asked from both sides.
        let same = |a: &MemorySystem, b: &MemorySystem| {
            let answer = a.same_contents(b);
            assert_eq!(answer, b.same_contents(a), "asymmetric");
            answer
        };
        let differs = |what: &str, same_after: bool, change: &dyn Fn(&mut MemorySystem)| {
            let mut b = a.clone();
            change(&mut b);
            assert_eq!(same(&a, &b), same_after, "{what}");
        };
        assert!(same(&a, &a.clone()));
        assert!(
            a.cpu.probe(first + 1).is_none(),
            "the second line was evicted"
        );
        differs("an NVM byte under no cached line", false, &|b| {
            b.nvm.write_bytes((first + 1) << LINE_SHIFT, &[0xEE]);
        });
        differs("an NVM byte under a dirty cached line", true, &|b| {
            b.nvm.write_bytes(mru << LINE_SHIFT, &[0xEE]);
        });
        differs("a cached payload byte", false, &|b| {
            b.cpu.lookup(mru).expect("resident").data()[63] ^= 1;
        });
        differs("a DRAM byte", false, &|b| {
            b.dram.write_bytes(DRAM_BASE + 100, &[1]);
        });
        differs("a dirty line dropped unwritten", false, &|b| {
            assert!(b.cpu.remove(mru).is_some());
        });
        differs("a dirty line written back and dropped", true, &|b| {
            let victim = b.cpu.remove(mru).expect("resident");
            b.nvm.write_line(victim.line, &victim.data);
        });
        // Neither where a line lives nor what drove the machine there.
        differs("everything but a value", true, &|b| {
            b.persist_line(mru << LINE_SHIFT);
            assert!(b.cpu.lookup(first + LINES - 3).is_some());
            b.streams.nvm.note(9_999);
            b.alloc_nvm(8);
            b.charge_ps(12_345);
            b.clock_mut().set_bucket(Bucket::Resume);
            b.nvm.write_bytes(40_000, &[0; 16]);
        });
        differs("a pool of another size", false, &|b| {
            b.nvm = Backing::new(0, 1 << 17);
        });

        // The DRAM cache is overlaid too: a line it holds dirty reads
        // through to both machines.
        let (a, first) = warm(tiny_hetero());
        let evicted = first + LINES - 17;
        let mut b = a.clone();
        b.nvm.write_bytes(evicted << LINE_SHIFT, &[0xEE]);
        assert!(same(&a, &b), "under the DRAM cache's dirty copy");
        let dramc = b.dramc.as_mut().expect("heterogeneous");
        dramc.lookup(evicted).expect("evicted into it").data()[7] ^= 1;
        assert!(!same(&a, &b), "the DRAM cache's payload");
    }

    /// A dead cell — bytes the code still to run overwrites before it reads
    /// them — may hold anything: two machines that differ only there are
    /// vouched for, and once both overwrite it they are one machine, having
    /// read, charged and counted alike on the way.
    #[test]
    fn machines_that_differ_only_in_a_dead_cell_evolve_identically() {
        let (mut a, first) = warm(tiny_nvm_only());
        // A word whose line was persisted and evicted (NVM holds its only
        // copy) and a word of the last line written (dirty in cache).
        let mru = first + LINES - 1;
        let (in_nvm, in_cache) = (first << LINE_SHIFT, mru << LINE_SHIFT);
        let cells = [in_nvm + 16..in_nvm + 24, in_cache + 32..in_cache + 40];
        let mut b = a.clone();
        b.nvm.write_bytes(in_nvm + 16, &[0xAB; 8]);
        b.cpu.lookup(mru).expect("resident").data()[32..40].fill(0xCD);
        assert!(!a.same_future(&b));
        assert!(a.same_future_modulo(&b, &cells) && b.same_future_modulo(&a, &cells));

        // Overwrite both cells, then read every line around them and persist.
        let run = |s: &mut MemorySystem| {
            for cell in &cells {
                s.write_bytes(cell.start, &7u64.to_le_bytes());
            }
            let mut seen = vec![0u8; 16 * LINES as usize];
            for (l, out) in seen.chunks_exact_mut(16).enumerate() {
                s.read_bytes(((first + l as u64) << LINE_SHIFT) + 12, out);
            }
            s.persist_line(in_nvm);
            s.sfence();
            seen
        };
        assert_eq!(run(&mut a), run(&mut b));
        assert!(a.same_future(&b), "the overwrite made them one machine");
        let (sa, sb) = (a.counter_snapshot(), b.counter_snapshot());
        assert_eq!(
            (sa.stats, sa.bucket_ps, sa.now_ps, a.access_count()),
            (sb.stats, sb.bucket_ps, sb.now_ps, b.access_count())
        );
        assert_eq!(a.crash(), b.crash());
    }

    #[test]
    fn what_is_no_input_may_differ() {
        let (a, first) = warm(tiny_nvm_only());
        let mut b = a.clone();
        // The clock's reading, the counters, the access count.
        b.charge_ps(12_345);
        b.stats.sfences += 7;
        b.access_count += 3;
        // Absolute LRU stamps: re-touching the most recent line moves its
        // stamp and the tick, not the order.
        assert!(b.cpu.lookup(first + LINES - 1).is_some());
        // Zeros the backing store spells out instead of leaving implicit.
        b.nvm.write_bytes(40_000, &[0; 16]);
        b.dram.write_bytes(DRAM_BASE + 640, &[0]);
        assert!(a.same_future(&b) && b.same_future(&a));
    }

    #[test]
    fn what_is_not_compared_answers_false() {
        let (a, _) = warm(tiny_nvm_only());
        let mut recorded = a.clone();
        recorded.attach_recorder(crate::events::EventRecorder::new());
        assert!(!recorded.same_future(&recorded.clone()));
        let mut journaled = a.clone();
        journaled.delta_base();
        assert!(!journaled.same_future(&journaled.clone()));
        journaled.retire_delta_base();
        assert!(journaled.same_future(&a));
        // Way-dependent replacement: not even a clone is vouched for.
        use crate::policy::ReplacementPolicy;
        for policy in [ReplacementPolicy::TreePlru, ReplacementPolicy::Random] {
            let mut cfg = tiny_nvm_only();
            cfg.cpu_cache = cfg.cpu_cache.with_policy(policy);
            let (s, _) = warm(cfg);
            assert!(!s.same_future(&s.clone()), "{policy:?}");
        }
        let mut cfg = tiny_nvm_only();
        cfg.cpu_cache = cfg.cpu_cache.with_policy(ReplacementPolicy::Fifo);
        let (s, _) = warm(cfg);
        assert!(s.same_future(&s.clone()));
    }

    #[test]
    fn way_placement_is_no_input() {
        // Lines 0 and 2 share a CPU-cache set; which free way each landed
        // in depends on who missed first.
        let fill = |order: [u64; 2]| {
            let mut s = MemorySystem::new(tiny_hetero());
            let a = s.alloc_nvm(4 * LINE_SIZE);
            for l in order.into_iter().chain([0, 2]) {
                s.read_bytes(a + l * LINE_SIZE as u64, &mut [0u8; 8]);
            }
            s
        };
        let (a, b) = (fill([0, 2]), fill([2, 0]));
        let ways = |s: &MemorySystem| s.cpu.iter_lines().map(|r| r.0).collect::<Vec<_>>();
        assert_ne!(ways(&a), ways(&b), "the fills placed the lines alike");
        assert!(a.same_future(&b));
    }

    /// Bring a machine with any history over the op region to the one state
    /// the region's wash leaves: every line persisted with a fixed value
    /// (which empties both caches), then rewritten in cache — first in an
    /// order of the caller's choice (which decides way placement), then
    /// twice highest line first (which decides the replacement order and, a
    /// descending sweep continuing no stream, replaces every detector way).
    /// In between, `detector_turns` stream-less misses that leave nothing
    /// else behind: a zero written to a far line of the empty cache and
    /// persisted again turns the NVM detector's replacement position by one.
    /// One state, that is, but for the bytes of `cells`: those are filled
    /// with `cell_fills.0` in the persisted sweep and `cell_fills.1` in the
    /// cached ones, so two washes can disagree on them in the backing, in
    /// the caches, or in both.
    fn wash(
        sys: &mut MemorySystem,
        nvm: u64,
        ascending_first: bool,
        detector_turns: u64,
        cells: &[Range<u64>],
        cell_fills: (u8, u8),
    ) {
        let sweep = |sys: &mut MemorySystem, ascending: bool, cell_fill: u8| {
            for k in 0..LINES {
                let l = if ascending { k } else { LINES - 1 - k };
                let base = nvm + l * LINE_SIZE as u64;
                let mut data = [l as u8 | 0x80; LINE_SIZE];
                for at in cells.iter().flat_map(Range::clone) {
                    if line_of(at) == line_of(base) {
                        data[offset_in_line(at)] = cell_fill;
                    }
                }
                sys.write_bytes(base, &data);
            }
        };
        sweep(sys, false, cell_fills.0);
        sys.persist_range(nvm, LINES as usize * LINE_SIZE);
        sys.sfence();
        for turn in 0..detector_turns {
            let far = nvm + (LINES + 2 * (64 - turn)) * LINE_SIZE as u64;
            sys.write_bytes(far, &[0]);
            sys.persist_line(far);
        }
        sweep(sys, ascending_first, cell_fills.1);
        sweep(sys, false, cell_fills.1);
        sweep(sys, false, cell_fills.1);
    }

    /// Any op, or an addition to one of the words of [`CELLS`].
    fn op_or_bump_strategy() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        let words = CELLS.iter().flat_map(|c| c.clone().step_by(8)).collect();
        prop_oneof![
            3 => op_strategy(),
            1 => (proptest::sample::select(words), any::<u8>())
                .prop_map(|(word, by)| Op::Bump(word, by)),
        ]
    }

    /// The accumulator cells of the modulo runs, as offsets into the NVM
    /// region: two words of line 0 and the last word of line 14.
    const CELLS: [Range<u64>; 2] = [16..32, LINE14 + 56..LINE14 + 64];
    const LINE14: u64 = 14 * LINE_SIZE as u64;

    /// One step off the washed state, each moving a single input — on a
    /// cell's line, so exempting the cells must not exempt it: the
    /// replacement order (a read of line 14, the next victim of the 8-way
    /// set the even lines share, makes it the last), a dirty bit (`CLWB`
    /// writes back line 0, as a repeat of the detector's newest stream), a
    /// payload byte, the payload byte one past a cell, residency (`CLFLUSH`
    /// leaves line 0 in one CPU cache only).
    const NEAR_MISSES: [Op; 5] = [
        Op::Read((false, LINE14), 1),
        Op::Clwb((false, 0)),
        Op::Write((false, 9), 1, 0x11),
        Op::Write((false, 32), 1, 0x11),
        Op::Clflush((false, 0)),
    ];

    /// Every counter of `s`, in declaration order.
    fn counters(s: &MemStats) -> Vec<u64> {
        // Field names hold no digits.
        format!("{s:?}")
            .split(|c: char| !c.is_ascii_digit())
            .filter_map(|n| n.parse().ok())
            .collect()
    }

    /// Two machines with different pasts — boot images, op histories, clock
    /// readings, way placement — washed into one future, then one op
    /// suffix on both: every observation and every delta must agree.
    ///
    /// With `cells` (offsets into the NVM region) the washes leave each
    /// machine its own `cell_fills` there, the predicate is asked modulo
    /// the cells, and the suffix — which must only ever [`Op::Bump`] them —
    /// has to agree on everything but what the cells hold, and keep every
    /// cell's difference between the two machines.
    fn equal_states_have_one_future(
        cfg: SystemConfig,
        fills: (u8, u8),
        histories: (&[Op], &[Op]),
        suffix: &[Op],
        cells: &[Range<u64>],
        cell_fills: ((u8, u8), (u8, u8)),
    ) -> proptest::prelude::TestCaseResult {
        use proptest::prelude::*;
        let boot = |fill: u8, history: &[Op], ascending_first: bool| {
            let bytes = (0..LINES as usize * LINE_SIZE)
                .map(|i| fill.wrapping_mul(i as u8 | 1))
                .collect();
            let image = NvmImage::new(bytes, cfg.nvm_capacity);
            let mut sys = MemorySystem::from_image(cfg.clone(), &image);
            let nvm = sys.alloc_nvm(REGION as usize + 16);
            let dram = sys.alloc_dram(REGION as usize + 16);
            // Histories stay in NVM: the DRAM-direct region has no wash.
            for op in history {
                apply(&mut sys, op, nvm, nvm);
            }
            (sys, nvm, dram, ascending_first)
        };
        let (mut a, nvm, dram, first) = boot(fills.0, histories.0, false);
        let cells: Vec<Range<u64>> = cells.iter().map(|c| nvm + c.start..nvm + c.end).collect();
        let in_cell = |at: u64| cells.iter().any(|c| c.contains(&at));
        wash(&mut a, nvm, first, 0, &cells, cell_fills.0);
        let (b, _, _, first) = boot(fills.1, histories.1, true);
        // Where NVM prefetches, the detector's replacement position is an
        // input, and it counts every stream-less miss either past made: the
        // second machine is tried at every position. The predicate must
        // vouch for exactly one — and for none that is a near miss further.
        let washed = |turns: u64, off: Option<&Op>| {
            let mut b = b.clone();
            wash(&mut b, nvm, first, turns, &cells, cell_fills.1);
            if let Some(op) = off {
                apply(&mut b, op, nvm, dram);
            }
            b
        };
        for (turns, off) in (0..16).flat_map(|t| NEAR_MISSES.iter().map(move |off| (t, off))) {
            prop_assert!(
                !a.same_future_modulo(&washed(turns, Some(off)), &cells),
                "{:?} went unnoticed",
                off
            );
        }
        let mut b = (0..16)
            .map(|turns| washed(turns, None))
            .find(|b| a.same_future_modulo(b, &cells))
            .expect("the wash leaves one state");
        // The exemption is what vouched, wherever the fills left a trace:
        // the cached sweeps' in the caches (and, once evicted, below them),
        // the persisted sweep's in NVM where a DRAM cache absorbed every
        // eviction since.
        let ((a_persisted, a_cached), (b_persisted, b_cached)) = cell_fills;
        let backing_only = cfg.dram_cache.is_some() && a_persisted != b_persisted;
        prop_assert_eq!(
            a.same_future(&b),
            cells.is_empty() || (a_cached == b_cached && !backing_only)
        );

        // What an op showed, the cells' bytes blanked.
        let blanked = |seen: Seen, op: &Op| match (seen, op) {
            (Seen::Bytes(mut bytes), &Op::Read((false, off), _)) => {
                for (byte, at) in bytes.iter_mut().zip(nvm + off..) {
                    *byte &= u8::from(!in_cell(at)).wrapping_neg();
                }
                Seen::Bytes(bytes)
            }
            (Seen::Image(image), _) => {
                let mut bytes = image.prefix().to_vec();
                for (byte, at) in bytes.iter_mut().zip(0..) {
                    *byte &= u8::from(!in_cell(at)).wrapping_neg();
                }
                Seen::Image(NvmImage::new(bytes, image.len()))
            }
            (seen, _) => seen,
        };
        // How far apart the machines' cells stand, word by word, as a
        // reader would see them.
        let apart = |a: &MemorySystem, b: &MemorySystem| -> Vec<u64> {
            let word = |s: &MemorySystem, at: u64| {
                let mut w = [0u8; 8];
                s.peek_bytes(at, &mut w);
                u64::from_le_bytes(w)
            };
            cells
                .iter()
                .flat_map(|c| c.clone().step_by(8))
                .map(|at| word(b, at).wrapping_sub(word(a, at)))
                .collect()
        };

        let (a0, b0) = (a.counter_snapshot(), b.counter_snapshot());
        let (a_accesses, b_accesses) = (a.access_count(), b.access_count());
        let mut cells_apart = apart(&a, &b);
        for (k, op) in suffix.iter().enumerate() {
            // A plain store into a cell is not what an accumulator sees.
            if matches!(*op, Op::Write((false, off), len, _)
                if (nvm + off..nvm + off + len as u64).any(in_cell))
            {
                continue;
            }
            let (seen_a, seen_b) = (apply(&mut a, op, nvm, dram), apply(&mut b, op, nvm, dram));
            prop_assert_eq!(
                blanked(seen_a, op),
                blanked(seen_b, op),
                "op {}: {:?}",
                k,
                op
            );
            let (a1, b1) = (a.counter_snapshot(), b.counter_snapshot());
            prop_assert_eq!(a1.now_ps - a0.now_ps, b1.now_ps - b0.now_ps, "op {}", k);
            for bucket in 0..Bucket::COUNT {
                prop_assert_eq!(
                    a1.bucket_ps[bucket] - a0.bucket_ps[bucket],
                    b1.bucket_ps[bucket] - b0.bucket_ps[bucket],
                    "op {}: {:?}",
                    k,
                    Bucket::ALL[bucket]
                );
            }
            let delta = |now: &MemStats, then: &MemStats| -> Vec<u64> {
                counters(now)
                    .iter()
                    .zip(counters(then))
                    .map(|(n, t)| n - t)
                    .collect()
            };
            prop_assert_eq!(
                delta(&a1.stats, &a0.stats),
                delta(&b1.stats, &b0.stats),
                "op {}: {:?}",
                k,
                op
            );
            prop_assert_eq!(a.access_count() - a_accesses, b.access_count() - b_accesses);
            // A crash throws away each machine's cached cells and shows the
            // copies NVM held, which stand apart by whatever they did;
            // nothing else moves a cell on one machine only.
            if matches!(op, Op::Crash) {
                cells_apart = apart(&a, &b);
            }
            prop_assert_eq!(apart(&a, &b), cells_apart.clone(), "op {}: {:?}", k, op);
        }
        // Equal states stay equal: the predicate is closed under stepping.
        prop_assert!(a.same_future_modulo(&b, &cells));
        let (end_a, end_b) = (Seen::Image(a.crash()), Seen::Image(b.crash()));
        prop_assert_eq!(blanked(end_a, &Op::Crash), blanked(end_b, &Op::Crash));
        Ok(())
    }

    /// Two machines with different pasts — boot images, op histories over
    /// both regions — washed into one state, then `steps` on the second one
    /// by one: after each, [`MemorySystem::same_contents`] answers, from
    /// either side, what reading every byte of both regions answers. Reads,
    /// flushes, persists and drains keep the two alike; a store, or a crash
    /// over a dirty line, sets them apart.
    fn same_contents_reads_every_byte(
        cfg: SystemConfig,
        fills: (u8, u8),
        histories: (&[Op], &[Op]),
        steps: &[Op],
    ) -> proptest::prelude::TestCaseResult {
        use proptest::prelude::*;
        let washed = |fill: u8, history: &[Op], ascending_first: bool| {
            let bytes = (0..LINES as usize * LINE_SIZE)
                .map(|i| fill.wrapping_mul(i as u8 | 1))
                .collect();
            let image = NvmImage::new(bytes, cfg.nvm_capacity);
            let mut sys = MemorySystem::from_image(cfg.clone(), &image);
            let nvm = sys.alloc_nvm(REGION as usize + 16);
            let dram = sys.alloc_dram(REGION as usize + 16);
            for op in history {
                apply(&mut sys, op, nvm, dram);
            }
            wash(&mut sys, nvm, ascending_first, 0, &[], (0, 0));
            sys.write_bytes(dram, &[0x5A; LINES as usize * LINE_SIZE]);
            (sys, nvm, dram)
        };
        let (a, nvm, dram) = washed(fills.0, histories.0, false);
        let (mut b, ..) = washed(fills.1, histories.1, true);
        let read = |s: &MemorySystem| {
            let mut bytes = vec![0u8; 2 * LINES as usize * LINE_SIZE];
            let (in_nvm, in_dram) = bytes.split_at_mut(LINES as usize * LINE_SIZE);
            s.peek_bytes(nvm, in_nvm);
            s.peek_bytes(dram, in_dram);
            bytes
        };
        // The same contents with every cached line written back and
        // dropped: the gaps between cached lines are all there is to
        // compare.
        let uncached = |s: &MemorySystem| {
            let mut s = s.clone();
            let lines = |c: &SetAssocCache| c.iter_lines().map(|(l, _)| l).collect::<Vec<_>>();
            // The DRAM cache first: a CPU line above it is newer.
            for l in s.dramc.as_ref().map(lines).unwrap_or_default() {
                let v = s.dramc.as_mut().and_then(|c| c.remove(l)).expect("listed");
                s.nvm.write_line(l, &v.data);
            }
            for l in lines(&s.cpu) {
                let v = s.cpu.remove(l).expect("listed");
                let home = if is_dram_addr(l << LINE_SHIFT) {
                    &mut s.dram
                } else {
                    &mut s.nvm
                };
                home.write_line(l, &v.data);
            }
            s
        };
        prop_assert!(a.same_contents(&b) && b.same_contents(&a), "washed");
        for (k, op) in steps.iter().enumerate() {
            apply(&mut b, op, nvm, dram);
            let alike = read(&a) == read(&b);
            let (bare_a, bare_b) = (uncached(&a), uncached(&b));
            prop_assert_eq!(read(&bare_b), read(&b), "op {}: written back", k);
            for (x, y) in [(&a, &b), (&bare_a, &b), (&a, &bare_b), (&bare_a, &bare_b)] {
                prop_assert_eq!(x.same_contents(y), alike, "op {}: {:?}", k, op);
                prop_assert_eq!(y.same_contents(x), alike, "op {}: {:?}", k, op);
            }
        }
        Ok(())
    }

    /// Two machines with different pasts washed into one state but for the
    /// NVM detector's replacement position (`turns` stream-less misses on
    /// the second): the exact predicate vouches for one position of the
    /// ring, [`MemorySystem::lead`] for every one. Led, the second machine
    /// runs `suffix` beside the first, and a third — a clone of the second
    /// once the shadow has priced it apart from the leader, so its
    /// detectors stand equal to that shadow — joins then. After every op
    /// each follower's clock has moved by the leader's plus
    /// [`MemorySystem::follower_ps`], and everything else by the same
    /// amount.
    fn followers_read_their_clocks_off_their_leader(
        cfg: SystemConfig,
        fills: (u8, u8),
        histories: (&[Op], &[Op]),
        turns: u64,
        suffix: &[Op],
    ) -> proptest::prelude::TestCaseResult {
        use proptest::prelude::*;
        let boot = |fill: u8, history: &[Op]| {
            let bytes = (0..LINES as usize * LINE_SIZE)
                .map(|i| fill.wrapping_mul(i as u8 | 1))
                .collect();
            let image = NvmImage::new(bytes, cfg.nvm_capacity);
            let mut sys = MemorySystem::from_image(cfg.clone(), &image);
            let nvm = sys.alloc_nvm(REGION as usize + 16);
            let dram = sys.alloc_dram(REGION as usize + 16);
            // Histories stay in NVM: the DRAM-direct region has no wash.
            for op in history {
                apply(&mut sys, op, nvm, nvm);
            }
            (sys, nvm, dram)
        };
        let (mut a, nvm, dram) = boot(fills.0, histories.0);
        wash(&mut a, nvm, false, 0, &[], (0, 0));
        let (b, ..) = boot(fills.1, histories.1);
        let washed = |turns: u64| {
            let mut b = b.clone();
            wash(&mut b, nvm, true, turns, &[], (0, 0));
            b
        };
        let positions: Vec<MemorySystem> = (0..16).map(washed).collect();
        for b in &positions {
            prop_assert!(
                a.clone().lead(b, &[]).is_some(),
                "a detector position refused"
            );
            // The exact predicate tells the positions apart by their
            // detectors alone, and vouches for the one `a` stands at (which
            // two turn counts may reach).
            let one_ring = b.streams == a.streams || !cfg.timing.nvm.prefetch;
            prop_assert_eq!(a.same_future(b), one_ring);
        }
        prop_assert!(
            positions.iter().any(|b| a.same_future(b)),
            "the wash leaves one state"
        );
        let mut b = washed(turns);
        let led = a.lead(&b, &[]).expect("vouched for above");
        prop_assert_eq!(led.shadow.is_none(), a.same_future(&b));

        let charged = |s: &MemorySystem| (*s.stats(), s.access_count());
        let (a0, b0) = (charged(&a), charged(&b));
        let (a_t0, b_t0) = (a.now().ps() as i64, b.now().ps() as i64);
        let mut late: Option<(MemorySystem, Follower, i64)> = None;
        for (k, op) in suffix.iter().enumerate() {
            if late.is_none() && a.follower_ps(&led) != 0 {
                let c = b.clone();
                let joined = a.lead(&c, &[]).expect("followers stay vouched for");
                // It rides the second follower's shadow, not one of its own.
                prop_assert_eq!(a.shadows.len(), usize::from(led.shadow.is_some()));
                let offset = c.now().ps() as i64 - a.now().ps() as i64;
                late = Some((c, joined, offset));
            }
            let seen = apply(&mut a, op, nvm, dram);
            prop_assert_eq!(&seen, &apply(&mut b, op, nvm, dram), "op {}: {:?}", k, op);
            let leader_moved = a.now().ps() as i64 - a_t0;
            prop_assert_eq!(
                b.now().ps() as i64 - b_t0,
                leader_moved + a.follower_ps(&led),
                "op {}: {:?}",
                k,
                op
            );
            let moved = |now: &(MemStats, u64), then: &(MemStats, u64)| {
                let delta: Vec<u64> = counters(&now.0)
                    .iter()
                    .zip(counters(&then.0))
                    .map(|(n, t)| n - t)
                    .collect();
                (delta, now.1 - then.1)
            };
            prop_assert_eq!(
                moved(&charged(&a), &a0),
                moved(&charged(&b), &b0),
                "op {}",
                k
            );
            if let Some((c, joined, offset)) = late.as_mut() {
                prop_assert_eq!(&seen, &apply(c, op, nvm, dram), "op {}: {:?}", k, op);
                prop_assert_eq!(
                    c.now().ps() as i64,
                    a.now().ps() as i64 + *offset + a.follower_ps(joined),
                    "op {}: {:?}",
                    k,
                    op
                );
            }
        }
        prop_assert!(a.lead(&b, &[]).is_some(), "closed under stepping");
        Ok(())
    }

    /// Run `prefix` on a machine and on a control, fork the machine twice,
    /// then step on, op by op: the machine, the first fork and the control
    /// run `suffix`, the second fork runs `other`. The three on `suffix`
    /// must observe, count and charge alike throughout and crash to one
    /// image — the fork is exact, and the second fork's writes, flushes
    /// and crashes never reach the machine it was cloned from.
    fn forks_are_exact_and_independent(
        cfg: SystemConfig,
        prefix: &[Op],
        suffix: &[Op],
        other: &[Op],
    ) -> proptest::prelude::TestCaseResult {
        use proptest::prelude::*;
        let boot = || {
            let mut sys = MemorySystem::new(cfg.clone());
            let nvm = sys.alloc_nvm(REGION as usize + 16);
            let dram = sys.alloc_dram(REGION as usize + 16);
            (sys, nvm, dram)
        };
        let (mut original, nvm, dram) = boot();
        let (mut control, ..) = boot();
        for op in prefix {
            apply(&mut original, op, nvm, dram);
            apply(&mut control, op, nvm, dram);
        }
        let mut fork = original.clone();
        let mut stray = original.clone();
        let charged = |s: &MemorySystem| {
            (
                s.now(),
                s.clock().bucket_totals(),
                *s.stats(),
                s.access_count(),
            )
        };
        for k in 0..suffix.len().max(other.len()) {
            if let Some(op) = other.get(k) {
                apply(&mut stray, op, nvm, dram);
            }
            let Some(op) = suffix.get(k) else { continue };
            let seen = apply(&mut original, op, nvm, dram);
            prop_assert_eq!(
                &seen,
                &apply(&mut fork, op, nvm, dram),
                "op {}: {:?}",
                k,
                op
            );
            prop_assert_eq!(
                &seen,
                &apply(&mut control, op, nvm, dram),
                "op {}: {:?}",
                k,
                op
            );
            prop_assert_eq!(charged(&original), charged(&fork), "op {}: {:?}", k, op);
            prop_assert_eq!(charged(&original), charged(&control), "op {}: {:?}", k, op);
        }
        let image = original.crash();
        prop_assert_eq!(&image, &fork.crash());
        prop_assert_eq!(&image, &control.crash());
        Ok(())
    }

    /// Run `prefix` on a machine — with a delta base taken halfway when
    /// `journaled` — then copy it twice: into a fresh clone, and by
    /// `clone_from` into a spare with a history of its own. The spare ran
    /// `spare_ops` on regions past the machine's and on the machine's own
    /// (a longer backing prefix, more cache slots filled) under a journal
    /// of the same epoch as the machine's or a later one (`spare_bases`
    /// bases taken), so a stale prefix byte, arena entry, line mark, journal
    /// entry, epoch, tick or stream left behind would show. From the copy
    /// on, the spare and the clone run `suffix` op by op and must observe,
    /// count, charge, journal and crash alike.
    fn recycled_copies_equal_fresh_clones(
        cfg: SystemConfig,
        journaled: bool,
        (spare_bases, spare_ops): (u8, &[Op]),
        prefix: &[Op],
        suffix: &[Op],
    ) -> proptest::prelude::TestCaseResult {
        use proptest::prelude::*;
        let boot = || {
            let mut sys = MemorySystem::new(cfg.clone());
            let nvm = sys.alloc_nvm(REGION as usize + 16);
            let dram = sys.alloc_dram(REGION as usize + 16);
            (sys, nvm, dram)
        };
        let (mut original, nvm, dram) = boot();
        let (early, late) = prefix.split_at(prefix.len() / 2);
        for op in early {
            apply(&mut original, op, nvm, dram);
        }
        let base = journaled.then(|| original.delta_base());
        for op in late {
            apply(&mut original, op, nvm, dram);
        }
        let (mut spare, ..) = boot();
        let far_nvm = spare.alloc_nvm(REGION as usize + 16);
        let far_dram = spare.alloc_dram(REGION as usize + 16);
        for _ in 0..spare_bases {
            let _ = spare.delta_base();
        }
        spare.write_bytes(far_nvm + REGION, &[0xEE; 16]);
        for op in spare_ops {
            apply(&mut spare, op, far_nvm, far_dram);
            apply(&mut spare, op, nvm, dram);
        }
        spare.clone_from(&original);
        let mut fresh = original.clone();
        let charged = |s: &MemorySystem| {
            (
                s.now(),
                s.clock().bucket_totals(),
                s.clock().bucket(),
                *s.stats(),
                s.access_count(),
            )
        };
        prop_assert_eq!(charged(&spare), charged(&fresh));
        for (k, op) in suffix.iter().enumerate() {
            prop_assert_eq!(
                apply(&mut spare, op, nvm, dram),
                apply(&mut fresh, op, nvm, dram),
                "op {}: {:?}",
                k,
                op
            );
            prop_assert_eq!(charged(&spare), charged(&fresh), "op {}: {:?}", k, op);
        }
        if let Some(base) = &base {
            prop_assert_eq!(
                spare.crash_fork_delta(base).materialize(),
                fresh.crash_fork_delta(base).materialize()
            );
        }
        // The allocators too: the next allocation lands at one address.
        prop_assert_eq!(spare.alloc_nvm(8), fresh.alloc_nvm(8));
        prop_assert_eq!(spare.alloc_dram(8), fresh.alloc_dram(8));
        prop_assert_eq!(spare.crash(), fresh.crash());
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// `same_future` promises what the chained MC recovery relies on:
        /// two machines it calls equal cannot be told apart by anything
        /// that follows, however differently they got there.
        #[test]
        fn machines_with_the_same_future_stay_indistinguishable(
            fills in (proptest::prelude::any::<u8>(), proptest::prelude::any::<u8>()),
            history_a in proptest::collection::vec(op_strategy(), 0..80),
            history_b in proptest::collection::vec(op_strategy(), 0..80),
            suffix in proptest::collection::vec(op_strategy(), 1..160),
        ) {
            for cfg in [tiny_nvm_only(), tiny_hetero()] {
                let histories = (&history_a[..], &history_b[..]);
                equal_states_have_one_future(cfg, fills, histories, &suffix, &[], ((0, 0), (0, 0)))?;
            }
        }

        /// A clone is a fork: it runs exactly as the original does, and
        /// nothing it runs reaches the original — on both platforms under
        /// every replacement policy, through flushes, persists and crashes
        /// that free slots the next miss refills.
        #[test]
        fn forked_machines_run_exactly_and_independently(
            prefix in proptest::collection::vec(op_strategy(), 0..80),
            suffix in proptest::collection::vec(op_strategy(), 1..160),
            other in proptest::collection::vec(op_strategy(), 1..160),
        ) {
            use crate::policy::ReplacementPolicy;
            for policy in ReplacementPolicy::ALL {
                for mut cfg in [tiny_nvm_only(), tiny_hetero()] {
                    cfg.cpu_cache = cfg.cpu_cache.with_policy(policy);
                    cfg.dram_cache = cfg.dram_cache.map(|c| c.with_policy(policy));
                    forks_are_exact_and_independent(cfg, &prefix, &suffix, &other)?;
                }
            }
        }

        /// A recycled machine is a fresh clone: `clone_from` into a spare
        /// that held more — a longer backing prefix, a bigger arena, a
        /// running journal — runs exactly as `clone` does, on both
        /// platforms under every replacement policy, with and without a
        /// journal on the source.
        #[test]
        fn recycled_machines_run_exactly_as_fresh_clones(
            journaled in proptest::prelude::any::<bool>(),
            spare_bases in 1u8..=2,
            prefix in proptest::collection::vec(op_strategy(), 0..80),
            spare_ops in proptest::collection::vec(op_strategy(), 0..40),
            suffix in proptest::collection::vec(op_strategy(), 1..160),
        ) {
            use crate::policy::ReplacementPolicy;
            for policy in ReplacementPolicy::ALL {
                for mut cfg in [tiny_nvm_only(), tiny_hetero()] {
                    cfg.cpu_cache = cfg.cpu_cache.with_policy(policy);
                    cfg.dram_cache = cfg.dram_cache.map(|c| c.with_policy(policy));
                    let spare = (spare_bases, &spare_ops[..]);
                    recycled_copies_equal_fresh_clones(cfg, journaled, spare, &prefix, &suffix)?;
                }
            }
        }

        /// `same_future_modulo` promises what the chained MC dirty restart
        /// relies on: two machines that differ only in what their
        /// accumulator cells hold — in the backing, in the caches, in both —
        /// cannot be told apart by anything that follows and only ever adds
        /// to the cells, except by reading a cell; and each cell keeps its
        /// distance.
        #[test]
        fn machines_equal_modulo_cells_stay_indistinguishable(
            fills in (proptest::prelude::any::<u8>(), proptest::prelude::any::<u8>()),
            cell_fills in ((0u8..3, 0u8..3), (0u8..3, 0u8..3)),
            history_a in proptest::collection::vec(op_strategy(), 0..80),
            history_b in proptest::collection::vec(op_strategy(), 0..80),
            suffix in proptest::collection::vec(op_or_bump_strategy(), 1..160),
        ) {
            for cfg in [tiny_nvm_only(), tiny_hetero()] {
                let histories = (&history_a[..], &history_b[..]);
                equal_states_have_one_future(cfg, fills, histories, &suffix, &CELLS, cell_fills)?;
            }
        }

        /// `same_contents` promises what a kernel recovery's join with the
        /// crash-free run relies on: it vouches for two machines exactly
        /// when every byte a program can read of them is equal.
        #[test]
        fn same_contents_is_every_byte_read_alike(
            fills in (proptest::prelude::any::<u8>(), proptest::prelude::any::<u8>()),
            history_a in proptest::collection::vec(op_strategy(), 0..80),
            history_b in proptest::collection::vec(op_strategy(), 0..80),
            steps in proptest::collection::vec(op_strategy(), 1..40),
        ) {
            for cfg in [tiny_nvm_only(), tiny_hetero()] {
                let histories = (&history_a[..], &history_b[..]);
                same_contents_reads_every_byte(cfg, fills, histories, &steps)?;
            }
        }

        /// What [`MemorySystem::lead`] promises the chained MC dirty restart:
        /// machines equal but for their stream detectors miss, count and read
        /// alike under loads, stores, flushes, persists, drains and crashes,
        /// and the leader prices each follower's clock exactly.
        #[test]
        fn followers_clocks_are_their_leaders_plus_the_correction(
            fills in (proptest::prelude::any::<u8>(), proptest::prelude::any::<u8>()),
            history_a in proptest::collection::vec(op_strategy(), 0..80),
            history_b in proptest::collection::vec(op_strategy(), 0..80),
            turns in 0u64..16,
            suffix in proptest::collection::vec(op_strategy(), 1..160),
        ) {
            for cfg in [tiny_nvm_only(), tiny_hetero()] {
                let histories = (&history_a[..], &history_b[..]);
                followers_read_their_clocks_off_their_leader(cfg, fills, histories, turns, &suffix)?;
            }
        }
    }
}
