//! A set-associative, write-back, write-allocate cache that stores actual
//! data payloads.
//!
//! This is the core of the crash emulator: because each resident line holds
//! real bytes, the NVM backing store only sees values at eviction or
//! explicit flush time — exactly the divergence between caches and NVM that
//! the paper's PIN-based emulator observes. Each set picks its victims by
//! one of four [`ReplacementPolicy`]s (LRU unless configured otherwise).
//!
//! The cache is a compact **directory** plus a **payload arena**. A
//! directory slot is 24 bytes — tag, replacement stamp, dirty bit and the
//! index of its payload — so an 8-way tag scan reads 192 bytes. Payloads
//! are handed out in first-fill order: the first time a slot is filled it
//! takes the next arena entry, and it keeps that entry across eviction,
//! `remove` and `clean_line`; `clear` (a crash) empties the arena. The
//! arena therefore holds one payload per slot filled since the last
//! `clear`, never more than [`SetAssocCache::capacity_lines`], and a clone
//! copies the directory plus the payloads of the slots filled so far — not
//! one payload per slot the cache could hold. A new cache allocates only
//! the directory; the arena grows as slots are first filled.

use std::ops::Range;

use crate::line::{outside, LINE_SHIFT, LINE_SIZE};
use crate::policy::{PlruBits, ReplacementPolicy, XorShift};

/// Static geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Rounded down to a power-of-two number of
    /// sets times `associativity * LINE_SIZE`.
    pub capacity_bytes: usize,
    /// Ways per set.
    pub associativity: usize,
    /// Victim-selection policy (LRU unless overridden; see
    /// [`CacheConfig::with_policy`]).
    pub policy: ReplacementPolicy,
}

impl CacheConfig {
    /// Geometry for `capacity_bytes` at the given associativity (LRU).
    pub fn new(capacity_bytes: usize, associativity: usize) -> Self {
        assert!(associativity >= 1, "associativity must be at least 1");
        assert!(
            capacity_bytes >= associativity * LINE_SIZE,
            "capacity {capacity_bytes} too small for associativity {associativity}"
        );
        CacheConfig {
            capacity_bytes,
            associativity,
            policy: ReplacementPolicy::Lru,
        }
    }

    /// Same geometry with a different replacement policy.
    pub fn with_policy(mut self, policy: ReplacementPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Number of sets (a power of two).
    pub fn sets(&self) -> usize {
        let raw = self.capacity_bytes / LINE_SIZE / self.associativity;
        if raw.is_power_of_two() {
            raw
        } else {
            (raw + 1).next_power_of_two() / 2
        }
        .max(1)
    }

    /// Effective capacity after rounding, in bytes.
    pub fn effective_capacity(&self) -> usize {
        self.sets() * self.associativity * LINE_SIZE
    }
}

/// One directory entry: a line slot without its payload.
#[derive(Clone, Copy)]
struct Slot {
    /// Full line number (address >> 6); `u64::MAX` marks an invalid slot.
    tag: u64,
    /// Replacement stamp (LRU: last touch, FIFO: fill); larger is more
    /// recent.
    stamp: u64,
    /// Index of the slot's payload in the arena; `Slot::NO_PAYLOAD` until
    /// the slot is first filled.
    payload: u32,
    dirty: bool,
}

impl Slot {
    const INVALID: u64 = u64::MAX;
    const NO_PAYLOAD: u32 = u32::MAX;

    /// A slot never filled since construction or the last `clear`.
    const EMPTY: Slot = Slot {
        tag: Slot::INVALID,
        stamp: 0,
        payload: Slot::NO_PAYLOAD,
        dirty: false,
    };

    #[inline]
    fn valid(&self) -> bool {
        self.tag != Slot::INVALID
    }

    /// The slot's line as it leaves the cache (or is written back).
    fn victim(&self, arena: &[[u8; LINE_SIZE]]) -> Victim {
        Victim {
            line: self.tag,
            dirty: self.dirty,
            data: arena[self.payload as usize],
        }
    }
}

/// A line evicted (or removed) from the cache, with its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Victim {
    /// Line number of the evicted line.
    pub line: u64,
    /// Whether the line was dirty (needs write-back).
    pub dirty: bool,
    /// The line's data.
    pub data: [u8; LINE_SIZE],
}

/// Set-associative write-back cache with data payloads.
///
/// Cloning copies the directory and the arena's payloads — one per slot
/// filled since construction or the last [`SetAssocCache::clear`] — so a
/// clone costs what the cache has held, not what it could hold.
/// [`Clone::clone_from`] copies into the target's own buffers, so a
/// recycled cache of the same geometry allocates nothing.
pub struct SetAssocCache {
    sets: usize,
    assoc: usize,
    set_mask: u64,
    /// The directory, `assoc` slots per set.
    slots: Box<[Slot]>,
    /// Line payloads in first-fill order, indexed by `Slot::payload`.
    arena: Vec<[u8; LINE_SIZE]>,
    tick: u64,
    policy: ReplacementPolicy,
    /// One tree-PLRU bit field per set (only used by `TreePlru`).
    plru: Box<[PlruBits]>,
    /// Deterministic stream for the `Random` policy.
    rng: XorShift,
    /// Last-hit memory: the line the most recent scanning hit found
    /// (`Slot::INVALID` when forgotten) and the index of its slot in
    /// `slots`. A lookup of that line skips the tag scan. Valid only while
    /// no slot's tag has changed since, so everything that rewrites a tag
    /// (`insert`, `remove`, `clear`) forgets it.
    last_line: u64,
    last_slot: usize,
}

impl Clone for SetAssocCache {
    fn clone(&self) -> Self {
        SetAssocCache {
            slots: self.slots.clone(),
            arena: self.arena.clone(),
            plru: self.plru.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        // Exhaustive, so a new field cannot be left stale in a recycled
        // cache.
        let SetAssocCache {
            sets,
            assoc,
            set_mask,
            slots,
            arena,
            tick,
            policy,
            plru,
            rng,
            last_line,
            last_slot,
        } = source;
        self.sets = *sets;
        self.assoc = *assoc;
        self.set_mask = *set_mask;
        self.slots.clone_from(slots);
        self.arena.clone_from(arena);
        self.tick = *tick;
        self.policy = *policy;
        self.plru.clone_from(plru);
        self.rng = *rng;
        self.last_line = *last_line;
        self.last_slot = *last_slot;
    }
}

impl SetAssocCache {
    /// Empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        let assoc = cfg.associativity;
        // Tree-PLRU needs a power-of-two tree; other geometries degrade to
        // LRU (documented on `ReplacementPolicy::TreePlru`).
        let policy = if cfg.policy == ReplacementPolicy::TreePlru && !assoc.is_power_of_two() {
            ReplacementPolicy::Lru
        } else {
            cfg.policy
        };
        let lines = sets * assoc;
        assert!(
            lines < Slot::NO_PAYLOAD as usize,
            "{lines} line slots overflow the payload index"
        );
        SetAssocCache {
            sets,
            assoc,
            set_mask: sets as u64 - 1,
            slots: vec![Slot::EMPTY; lines].into_boxed_slice(),
            arena: Vec::new(),
            tick: 0,
            policy,
            plru: vec![PlruBits::default(); sets].into_boxed_slice(),
            rng: XorShift::new(0x9E37_79B9_7F4A_7C15),
            last_line: Slot::INVALID,
            last_slot: 0,
        }
    }

    /// The effective replacement policy.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Number of line slots.
    pub fn capacity_lines(&self) -> usize {
        self.sets * self.assoc
    }

    /// Number of currently valid lines.
    pub fn resident_lines(&self) -> usize {
        self.slots.iter().filter(|s| s.valid()).count()
    }

    #[inline]
    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let set = (line & self.set_mask) as usize;
        set * self.assoc..(set + 1) * self.assoc
    }

    #[inline]
    fn set_index(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// Look up `line`; on a hit, refresh the policy's recency state and
    /// return mutable access to its payload plus a dirty-flag setter.
    ///
    /// A repeat of the last hit line is answered from the last-hit memory
    /// without the tag scan; the tick and the policy's hit bookkeeping are
    /// the same either way.
    #[inline]
    pub fn lookup(&mut self, line: u64) -> Option<LineRef<'_>> {
        debug_assert!(line != Slot::INVALID, "the invalid tag is not a line");
        self.tick += 1;
        if line == self.last_line {
            return Some(self.hit(line, self.last_slot));
        }
        let range = self.set_range(line);
        let way = self.slots[range.clone()]
            .iter()
            .position(|s| s.tag == line)?;
        self.last_line = line;
        self.last_slot = range.start + way;
        Some(self.hit(line, self.last_slot))
    }

    /// Hit bookkeeping for `line` resident in `slots[idx]`, at the current
    /// tick.
    #[inline]
    fn hit(&mut self, line: u64, idx: usize) -> LineRef<'_> {
        let slot = &mut self.slots[idx];
        match self.policy {
            ReplacementPolicy::Lru => slot.stamp = self.tick,
            // FIFO and Random ignore re-references.
            ReplacementPolicy::Fifo | ReplacementPolicy::Random => {}
            ReplacementPolicy::TreePlru => {
                let set = (line & self.set_mask) as usize;
                self.plru[set].touch(self.assoc, idx - set * self.assoc);
            }
        }
        LineRef {
            dirty: &mut slot.dirty,
            data: &mut self.arena[slot.payload as usize],
        }
    }

    /// The slot holding `line`, if resident, found without touching
    /// anything: the last-hit memory when it names `line`, else a tag scan.
    #[inline]
    pub(crate) fn slot_of(&self, line: u64) -> Option<usize> {
        if line == self.last_line {
            return Some(self.last_slot);
        }
        let range = self.set_range(line);
        let way = self.slots[range.clone()]
            .iter()
            .position(|s| s.tag == line)?;
        Some(range.start + way)
    }

    /// Whether `slots[slot]` holds `line`.
    #[inline]
    pub(crate) fn holds(&self, slot: usize, line: u64) -> bool {
        self.slots[slot].tag == line
    }

    /// A hit on `line`, which sits in `slots[slot]`: [`Self::lookup`]'s hit
    /// without the tag check.
    #[inline]
    pub(crate) fn touch(&mut self, line: u64, slot: usize) -> LineRef<'_> {
        debug_assert!(self.holds(slot, line), "line {line:#x} not in slot {slot}");
        self.tick += 1;
        self.hit(line, slot)
    }

    /// A line-chunk of hits in closed form: what `rounds` passes of
    /// [`Self::lookup`] over the lines of `loads` and then of `stores`, in
    /// order, each resident in its given slot, leave — every store's slot
    /// dirty. An LRU stamp is the tick of its slot's last touch, FIFO and
    /// Random ignore hits, and a tree-PLRU touch sets its path's bits from
    /// the way alone: passes repeated leave what the last one leaves, so
    /// only it is written.
    #[inline]
    pub(crate) fn close_hits(
        &mut self,
        loads: &[(u64, usize)],
        stores: &[(u64, usize)],
        rounds: u64,
    ) {
        let touches = (loads.len() + stores.len()) as u64;
        let touched = loads.iter().chain(stores);
        self.tick += touches * rounds;
        match self.policy {
            ReplacementPolicy::Lru => {
                let first = self.tick + 1 - touches;
                for (i, &(_, slot)) in touched.enumerate() {
                    self.slots[slot].stamp = first + i as u64;
                }
            }
            ReplacementPolicy::Fifo | ReplacementPolicy::Random => {}
            ReplacementPolicy::TreePlru => {
                for &(line, slot) in touched {
                    let set = self.set_index(line);
                    self.plru[set].touch(self.assoc, slot - set * self.assoc);
                }
            }
        }
        for &(_, slot) in stores {
            self.slots[slot].dirty = true;
        }
    }

    /// The payload of the filled slot `slot`, touching nothing.
    #[inline]
    pub(crate) fn slot_data(&mut self, slot: usize) -> &mut [u8; LINE_SIZE] {
        &mut self.arena[self.slots[slot].payload as usize]
    }

    /// Insert `line` with `data`, evicting the set's policy victim if the
    /// set is full. The line must not already be resident (callers look up
    /// first).
    pub fn insert(&mut self, line: u64, data: [u8; LINE_SIZE], dirty: bool) -> Option<Victim> {
        self.last_line = Slot::INVALID;
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_index(line);
        let policy = self.policy;
        let assoc = self.assoc;
        let range = self.set_range(line);
        debug_assert!(
            self.slots[range.clone()].iter().all(|s| s.tag != line),
            "insert of already-resident line {line:#x}"
        );

        // Prefer an invalid slot; otherwise the policy picks the victim.
        let victim_way = {
            let slots = &self.slots[range.clone()];
            match slots.iter().position(|s| !s.valid()) {
                Some(i) => i,
                None => match policy {
                    ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                        let mut idx = 0;
                        let mut stamp = u64::MAX;
                        for (i, slot) in slots.iter().enumerate() {
                            if slot.stamp < stamp {
                                stamp = slot.stamp;
                                idx = i;
                            }
                        }
                        idx
                    }
                    ReplacementPolicy::TreePlru => self.plru[set].victim(assoc),
                    ReplacementPolicy::Random => self.rng.below(assoc),
                },
            }
        };

        let slot = &mut self.slots[range][victim_way];
        let victim = slot.valid().then(|| slot.victim(&self.arena));
        if slot.payload == Slot::NO_PAYLOAD {
            // First fill of this slot: the next arena entry is its own.
            debug_assert!(self.arena.len() < self.sets * assoc, "arena overflow");
            slot.payload = self.arena.len() as u32;
            self.arena.push(data);
        } else {
            self.arena[slot.payload as usize] = data;
        }
        *slot = Slot {
            tag: line,
            stamp: tick,
            dirty,
            ..*slot
        };
        if policy == ReplacementPolicy::TreePlru {
            self.plru[set].touch(assoc, victim_way);
        }
        victim
    }

    /// Remove `line` from the cache (CLFLUSH semantics), returning it if it
    /// was resident.
    pub fn remove(&mut self, line: u64) -> Option<Victim> {
        self.last_line = Slot::INVALID;
        let range = self.set_range(line);
        let slot = self.slots[range].iter_mut().find(|s| s.tag == line)?;
        let v = slot.victim(&self.arena);
        // The slot keeps its payload entry for its next fill.
        *slot = Slot {
            payload: slot.payload,
            ..Slot::EMPTY
        };
        Some(v)
    }

    /// `CLWB` semantics: if `line` is resident and dirty, mark it clean and
    /// return its payload for write-back — the line stays resident. Returns
    /// `None` if the line is absent or already clean.
    pub fn clean_line(&mut self, line: u64) -> Option<Victim> {
        let range = self.set_range(line);
        let slot = self.slots[range]
            .iter_mut()
            .find(|s| s.tag == line && s.dirty)?;
        slot.dirty = false;
        Some(Victim {
            dirty: true,
            ..slot.victim(&self.arena)
        })
    }

    /// Non-mutating lookup (does not touch LRU state): the line's payload
    /// if resident.
    pub fn probe(&self, line: u64) -> Option<&[u8; LINE_SIZE]> {
        let range = self.set_range(line);
        self.slots[range]
            .iter()
            .find(|s| s.tag == line)
            .map(|s| self.payload(s))
    }

    /// The payload of a filled slot.
    #[inline]
    fn payload(&self, slot: &Slot) -> &[u8; LINE_SIZE] {
        &self.arena[slot.payload as usize]
    }

    /// Iterate over all resident lines as `(line, dirty)`: the directory
    /// alone, for callers that read no payload.
    pub fn iter_lines(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        self.slots
            .iter()
            .filter(|s| s.valid())
            .map(|s| (s.tag, s.dirty))
    }

    /// Iterate over all resident lines as `(line, dirty, &data)`.
    pub fn iter_resident(&self) -> impl Iterator<Item = (u64, bool, &[u8; LINE_SIZE])> {
        self.slots
            .iter()
            .filter(|s| s.valid())
            .map(|s| (s.tag, s.dirty, self.payload(s)))
    }

    /// Mark every resident line clean and return the formerly-dirty ones
    /// (used for draining a level without invalidating it).
    pub fn clean_all(&mut self) -> Vec<Victim> {
        let mut dirty = Vec::new();
        for slot in self.slots.iter_mut() {
            if slot.valid() && slot.dirty {
                dirty.push(slot.victim(&self.arena));
                slot.dirty = false;
            }
        }
        // Deterministic order (by line number) regardless of set layout.
        dirty.sort_by_key(|v| v.line);
        dirty
    }

    /// Whether no sequence of operations can tell this cache from `other`,
    /// the payload bytes of the address ranges `cells` (ascending, disjoint)
    /// aside: same geometry, and every set holds the same lines with the
    /// same dirty bits and — outside `cells` — payloads in the same
    /// replacement order. A cell's line is still compared for residency,
    /// order and dirtiness. Under LRU and FIFO the victim is the smallest
    /// stamp of a full set, a free way is filled before any victim is chosen
    /// and new stamps exceed every old one — so which way a line sits in and
    /// what its stamp reads do not matter, only the order of the stamps.
    /// Tree-PLRU and random replacement do depend on the way; for them this
    /// answers `false` rather than compare their state. (The tick, the
    /// last-hit memory, the stamps of invalid slots and which arena entry
    /// holds a payload are not inputs to anything.)
    pub(crate) fn same_future_modulo(&self, other: &Self, cells: &[Range<u64>]) -> bool {
        if (self.sets, self.assoc, self.policy) != (other.sets, other.assoc, other.policy)
            || !matches!(
                self.policy,
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo
            )
        {
            return false;
        }
        let older_than = |set: &[Slot], s: &Slot| {
            set.iter()
                .filter(|o| o.valid() && o.stamp < s.stamp)
                .count()
        };
        let same_payload = |s: &Slot, t: &Slot| {
            let (mine, theirs) = (self.payload(s), other.payload(t));
            let base = s.tag << LINE_SHIFT;
            mine == theirs
                || outside(cells, base..base + LINE_SIZE as u64)
                    .all(|gap| mine[gap.clone()] == theirs[gap])
        };
        self.slots
            .chunks_exact(self.assoc)
            .zip(other.slots.chunks_exact(self.assoc))
            .all(|(mine, theirs)| {
                let valid = |set: &[Slot]| set.iter().filter(|s| s.valid()).count();
                valid(mine) == valid(theirs)
                    && mine.iter().filter(|s| s.valid()).all(|s| {
                        theirs.iter().find(|t| t.tag == s.tag).is_some_and(|t| {
                            t.dirty == s.dirty
                                && older_than(theirs, t) == older_than(mine, s)
                                && same_payload(s, t)
                        })
                    })
            })
    }

    /// Discard all contents without write-back (a crash).
    pub fn clear(&mut self) {
        self.slots.fill(Slot::EMPTY);
        self.arena.clear();
        for bits in self.plru.iter_mut() {
            *bits = PlruBits::default();
        }
        self.tick = 0;
        self.last_line = Slot::INVALID;
    }
}

/// Mutable view of a resident cache line: its directory entry's dirty bit
/// and its arena payload.
pub struct LineRef<'a> {
    dirty: &'a mut bool,
    data: &'a mut [u8; LINE_SIZE],
}

impl LineRef<'_> {
    /// The line's payload.
    #[inline]
    pub fn data(&mut self) -> &mut [u8; LINE_SIZE] {
        self.data
    }

    /// Read-only payload access.
    #[inline]
    pub fn data_ref(&self) -> &[u8; LINE_SIZE] {
        self.data
    }

    /// Mark the line dirty (after a store).
    #[inline]
    pub fn mark_dirty(&mut self) {
        *self.dirty = true;
    }

    /// Whether the line is dirty.
    #[inline]
    pub fn dirty(&self) -> bool {
        *self.dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways = 8 lines.
        SetAssocCache::new(CacheConfig::new(8 * LINE_SIZE, 2))
    }

    fn data(v: u8) -> [u8; LINE_SIZE] {
        [v; LINE_SIZE]
    }

    #[test]
    fn config_rounds_to_power_of_two_sets() {
        let c = CacheConfig::new(100 * LINE_SIZE, 4);
        assert!(c.sets().is_power_of_two());
        assert!(c.effective_capacity() <= 100 * LINE_SIZE + 4 * LINE_SIZE);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(c.lookup(5).is_none());
        assert!(c.insert(5, data(1), false).is_none());
        let mut r = c.lookup(5).expect("line resident after insert");
        assert_eq!(r.data()[0], 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.insert(0, data(0), false);
        c.insert(4, data(4), false);
        // Touch 0 so 4 becomes LRU.
        assert!(c.lookup(0).is_some());
        let v = c
            .insert(8, data(8), false)
            .expect("set full, victim evicted");
        assert_eq!(v.line, 4);
        assert!(c.lookup(0).is_some());
        assert!(c.lookup(8).is_some());
        assert!(c.lookup(4).is_none());
    }

    #[test]
    fn eviction_carries_dirty_payload() {
        let mut c = tiny();
        c.insert(0, data(7), true);
        c.insert(4, data(9), false);
        let v = c.insert(8, data(1), false).unwrap();
        assert_eq!(v.line, 0);
        assert!(v.dirty);
        assert_eq!(v.data, data(7));
    }

    #[test]
    fn remove_returns_payload_and_invalidates() {
        let mut c = tiny();
        c.insert(3, data(3), true);
        let v = c.remove(3).unwrap();
        assert!(v.dirty);
        assert_eq!(v.data, data(3));
        assert!(c.lookup(3).is_none());
        assert!(c.remove(3).is_none());
    }

    #[test]
    fn clean_all_reports_only_dirty_lines_sorted() {
        let mut c = tiny();
        c.insert(9, data(9), true);
        c.insert(2, data(2), false);
        c.insert(1, data(1), true);
        let drained = c.clean_all();
        let lines: Vec<u64> = drained.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![1, 9]);
        // Second drain finds nothing dirty.
        assert!(c.clean_all().is_empty());
        // Lines remain resident.
        assert!(c.lookup(9).is_some());
    }

    #[test]
    fn clear_discards_everything() {
        let mut c = tiny();
        c.insert(1, data(1), true);
        c.insert(2, data(2), true);
        c.clear();
        assert_eq!(c.resident_lines(), 0);
        assert!(c.lookup(1).is_none());
    }

    #[test]
    fn fifo_ignores_rereferences() {
        let cfg = CacheConfig::new(8 * LINE_SIZE, 2).with_policy(ReplacementPolicy::Fifo);
        let mut c = SetAssocCache::new(cfg);
        // Lines 0, 4, 8 map to set 0.
        c.insert(0, data(0), false);
        c.insert(4, data(4), false);
        // Touch 0: under LRU this would protect it, under FIFO it does not.
        assert!(c.lookup(0).is_some());
        let v = c.insert(8, data(8), false).unwrap();
        assert_eq!(v.line, 0, "FIFO evicts the first-inserted line");
    }

    #[test]
    fn plru_never_evicts_the_just_touched_line() {
        let cfg = CacheConfig::new(16 * LINE_SIZE, 4).with_policy(ReplacementPolicy::TreePlru);
        let mut c = SetAssocCache::new(cfg);
        // Four lines in set 0 (4 sets): 0, 4, 8, 12.
        for (i, l) in [0u64, 4, 8, 12].iter().enumerate() {
            c.insert(*l, data(i as u8), false);
        }
        assert!(c.lookup(12).is_some());
        let v = c.insert(16, data(9), false).unwrap();
        assert_ne!(v.line, 12, "PLRU must not evict the most recent line");
    }

    #[test]
    fn plru_on_non_power_of_two_assoc_degrades_to_lru() {
        let cfg = CacheConfig::new(12 * LINE_SIZE, 3).with_policy(ReplacementPolicy::TreePlru);
        let c = SetAssocCache::new(cfg);
        assert_eq!(c.policy(), ReplacementPolicy::Lru);
    }

    #[test]
    fn random_policy_is_deterministic_across_runs() {
        let run = || {
            let cfg = CacheConfig::new(8 * LINE_SIZE, 2).with_policy(ReplacementPolicy::Random);
            let mut c = SetAssocCache::new(cfg);
            let mut evicted = Vec::new();
            for l in 0..32u64 {
                if let Some(v) = c.insert(l * 4, data(l as u8), false) {
                    evicted.push(v.line);
                }
            }
            evicted
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn all_policies_preserve_payload_integrity() {
        for policy in ReplacementPolicy::ALL {
            let cfg = CacheConfig::new(8 * LINE_SIZE, 2).with_policy(policy);
            let mut c = SetAssocCache::new(cfg);
            c.insert(3, data(33), true);
            let v = c.remove(3).unwrap();
            assert_eq!(v.data, data(33), "{policy:?} corrupted payload");
            assert!(v.dirty);
        }
    }

    /// Everything replacement depends on, for comparing two caches.
    fn replacement_state(c: &SetAssocCache) -> (u64, Vec<(u64, u64, bool, u8)>, Vec<u64>, String) {
        (
            c.tick,
            c.slots
                .iter()
                .map(|s| {
                    let first = if s.valid() { c.payload(s)[0] } else { 0 };
                    (s.tag, s.stamp, s.dirty, first)
                })
                .collect(),
            c.plru.iter().map(|b| b.0).collect(),
            format!("{:?}", c.rng),
        )
    }

    #[test]
    fn last_hit_is_forgotten_by_insert_remove_and_clear() {
        // FIFO, so the line just hit can be the next victim.
        let cfg = CacheConfig::new(8 * LINE_SIZE, 2).with_policy(ReplacementPolicy::Fifo);
        let mut c = SetAssocCache::new(cfg);
        // Lines 0, 4, 8 map to set 0.
        c.insert(0, data(0), false);
        c.insert(4, data(4), false);
        assert!(c.lookup(0).is_some());
        assert_eq!(c.last_line, 0);
        // The remembered line is the victim: its slot now holds line 8.
        let v = c.insert(8, data(8), false).expect("set full");
        assert_eq!(v.line, 0);
        assert_eq!(c.last_line, Slot::INVALID);
        assert!(c.lookup(0).is_none(), "stale memory answered for line 0");
        assert_eq!(c.lookup(8).expect("resident").data_ref()[0], 8);

        // An insert elsewhere forgets too; the next hit scans and remembers.
        assert_eq!(c.last_line, 8);
        c.insert(1, data(1), false);
        assert_eq!(c.last_line, Slot::INVALID);
        assert_eq!(c.lookup(8).expect("resident").data_ref()[0], 8);
        assert_eq!(c.last_line, 8);

        assert!(c.remove(8).is_some());
        assert_eq!(c.last_line, Slot::INVALID);
        assert!(c.lookup(8).is_none());

        assert!(c.lookup(4).is_some());
        assert_eq!(c.last_line, 4);
        c.clear();
        assert_eq!(c.last_line, Slot::INVALID);
        assert!(c.lookup(4).is_none());
    }

    #[test]
    fn last_hit_survives_cleaning() {
        let mut c = tiny();
        c.insert(5, data(5), true);
        c.insert(6, data(6), true);
        assert!(c.lookup(5).is_some());
        assert!(c.clean_line(5).is_some());
        assert_eq!(c.last_line, 5);
        let mut r = c.lookup(5).expect("still resident");
        assert!(!r.dirty(), "the remembered slot was cleaned in place");
        r.mark_dirty();
        assert_eq!(c.clean_all().len(), 2);
        assert_eq!(c.last_line, 5);
        assert!(!c.lookup(5).expect("still resident").dirty());
    }

    #[test]
    fn remembered_hits_leave_the_state_a_scan_would() {
        for policy in ReplacementPolicy::ALL {
            // 2 sets x 4 ways over 12 lines: hits, misses, and evictions of
            // the line hit last followed by a lookup of it.
            let cfg = CacheConfig::new(8 * LINE_SIZE, 4).with_policy(policy);
            let mut fast = SetAssocCache::new(cfg);
            let mut scan = SetAssocCache::new(cfg);
            let mut rng = XorShift::new(7);
            let mut line = 0u64;
            for step in 0..20_000 {
                // Two times in three, repeat the previous line.
                if rng.below(3) == 0 {
                    line = rng.below(12) as u64;
                }
                scan.last_line = Slot::INVALID;
                let hit = fast.lookup(line).map(|r| *r.data_ref());
                assert_eq!(hit, scan.lookup(line).map(|r| *r.data_ref()));
                if hit.is_none() {
                    let payload = data(step as u8);
                    assert_eq!(
                        fast.insert(line, payload, step % 2 == 0),
                        scan.insert(line, payload, step % 2 == 0)
                    );
                }
                assert_eq!(
                    replacement_state(&fast),
                    replacement_state(&scan),
                    "{policy:?} step {step}"
                );
            }
        }
    }

    /// `close_hits` against the lookups it stands for, and two mutants of
    /// it — one that skips the hit bookkeeping (LRU stamps, tree-PLRU
    /// bits), one that leaves any one of several stores clean — which the
    /// same comparison must tell apart from the lookups.
    #[test]
    fn closed_hits_leave_what_lookups_leave() {
        for policy in ReplacementPolicy::ALL {
            // 2 sets x 4 ways over 12 lines, so touched lines share sets.
            let cfg = CacheConfig::new(8 * LINE_SIZE, 4).with_policy(policy);
            let mut c = SetAssocCache::new(cfg);
            let mut rng = XorShift::new(5);
            let (mut stamp_caught, mut dirty_caught, mut multi_caught) = (0, 0, 0);
            for step in 0..2_000u64 {
                let line = rng.below(12) as u64;
                if c.lookup(line).is_none() {
                    c.insert(line, data(step as u8), false);
                }
                // One to five resident lines, repeats allowed, the last
                // zero to three of them stores (which may share a line).
                let resident: Vec<u64> = c.iter_lines().map(|(l, _)| l).collect();
                let touched: Vec<(u64, usize)> = (0..1 + rng.below(5))
                    .map(|_| resident[rng.below(resident.len())])
                    .map(|l| (l, c.slot_of(l).expect("resident")))
                    .collect();
                let split = touched.len() - rng.below(4).min(touched.len());
                let (loads, stores) = touched.split_at(split);
                let rounds = 1 + rng.below(8) as u64;

                let mut model = c.clone();
                for _ in 0..rounds {
                    for &(l, _) in loads {
                        model.lookup(l).expect("resident");
                    }
                    for &(l, _) in stores {
                        model.lookup(l).expect("resident").mark_dirty();
                    }
                }
                let before = c.clone();
                c.close_hits(loads, stores, rounds);
                let what = format!("{policy:?} step {step}");
                assert_eq!(replacement_state(&c), replacement_state(&model), "{what}");

                let mut no_stamp = c.clone();
                for &(_, slot) in &touched {
                    no_stamp.slots[slot].stamp = before.slots[slot].stamp;
                }
                no_stamp.plru.clone_from(&before.plru);
                if replacement_state(&no_stamp) != replacement_state(&model) {
                    stamp_caught += 1;
                }
                for &(_, slot) in stores.iter().filter(|&&(_, s)| !before.slots[s].dirty) {
                    let mut no_dirty = c.clone();
                    no_dirty.slots[slot].dirty = false;
                    assert_ne!(
                        replacement_state(&no_dirty),
                        replacement_state(&model),
                        "{what}: a clean store"
                    );
                    dirty_caught += 1;
                    // A store other than the last, on a slot of its own.
                    multi_caught += usize::from(stores.last().is_some_and(|&(_, s)| s != slot));
                }
                c = model;
            }
            // FIFO and Random keep nothing on a hit.
            let stamps_matter =
                matches!(policy, ReplacementPolicy::Lru | ReplacementPolicy::TreePlru);
            assert_eq!(stamp_caught > 0, stamps_matter, "{policy:?}");
            assert!(dirty_caught > 0, "{policy:?}");
            assert!(multi_caught > 0, "{policy:?}: no store but the last caught");
        }
    }

    #[test]
    fn the_arena_holds_one_payload_per_filled_slot() {
        use std::collections::{BTreeMap, BTreeSet};
        for policy in ReplacementPolicy::ALL {
            // 2 sets x 4 ways over 24 lines: fills, evictions, flushes that
            // free a slot, refills that reuse its payload, and crashes.
            let cfg = CacheConfig::new(8 * LINE_SIZE, 4).with_policy(policy);
            let mut c = SetAssocCache::new(cfg);
            // What the cache must hold, and which slots it has filled since
            // the last crash, kept from outside.
            let mut model: BTreeMap<u64, [u8; LINE_SIZE]> = BTreeMap::new();
            let mut filled = BTreeSet::new();
            let mut rng = XorShift::new(11);
            for step in 0..5_000u64 {
                let line = rng.below(24) as u64;
                match rng.below(16) {
                    0 => {
                        let v = c.remove(line);
                        assert_eq!(v.map(|v| v.data), model.remove(&line));
                    }
                    1 => {
                        if let Some(v) = c.clean_line(line) {
                            assert_eq!(Some(&v.data), model.get(&line));
                        }
                    }
                    2 if step % 7 == 0 => {
                        c.clear();
                        model.clear();
                        filled.clear();
                    }
                    _ => match c.lookup(line).map(|r| *r.data_ref()) {
                        Some(hit) => assert_eq!(Some(&hit), model.get(&line)),
                        None => {
                            let payload = data(step as u8);
                            if let Some(v) = c.insert(line, payload, step % 2 == 0) {
                                assert_eq!(Some(v.data), model.remove(&v.line));
                            }
                            model.insert(line, payload);
                            filled.insert(c.slots.iter().position(|s| s.tag == line));
                        }
                    },
                }
                let what = format!("{policy:?} step {step}");
                assert!(c.arena.len() <= c.capacity_lines(), "{what}");
                assert_eq!(c.arena.len(), filled.len(), "{what}");
                let fork = c.clone();
                assert_eq!(fork.arena.len(), filled.len(), "{what}: a clone copies");
                let held: BTreeMap<u64, [u8; LINE_SIZE]> =
                    fork.iter_resident().map(|(l, _, d)| (l, *d)).collect();
                assert_eq!(held, model, "{what}");
            }
        }
    }

    #[test]
    fn writes_mark_dirty() {
        let mut c = tiny();
        c.insert(6, data(0), false);
        {
            let mut r = c.lookup(6).unwrap();
            r.data()[3] = 42;
            r.mark_dirty();
        }
        let v = c.remove(6).unwrap();
        assert!(v.dirty);
        assert_eq!(v.data[3], 42);
    }
}
