//! A set-associative, write-back, write-allocate cache that stores actual
//! data payloads.
//!
//! This is the core of the crash emulator: because each resident line holds
//! real bytes, the NVM backing store only sees values at eviction or
//! explicit flush time — exactly the divergence between caches and NVM that
//! the paper's PIN-based emulator observes. Replacement is true LRU within
//! each set (stamp-based).

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

/// One cache line slot.
#[derive(Clone)]
struct Slot {
    /// Full line number (address >> 6); `u64::MAX` marks an invalid slot.
    tag: u64,
    /// LRU stamp; larger is more recent.
    stamp: u64,
    dirty: bool,
    data: [u8; LINE_SIZE],
}

impl Slot {
    const INVALID: u64 = u64::MAX;

    fn invalid() -> Self {
        Slot {
            tag: Slot::INVALID,
            stamp: 0,
            dirty: false,
            data: [0; LINE_SIZE],
        }
    }

    #[inline]
    fn valid(&self) -> bool {
        self.tag != Slot::INVALID
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
#[derive(Clone)]
pub struct SetAssocCache {
    sets: usize,
    assoc: usize,
    set_mask: u64,
    slots: Box<[Slot]>,
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
        SetAssocCache {
            sets,
            assoc,
            set_mask: sets as u64 - 1,
            slots: vec![Slot::invalid(); sets * assoc].into_boxed_slice(),
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
        match self.policy {
            ReplacementPolicy::Lru => self.slots[idx].stamp = self.tick,
            // FIFO and Random ignore re-references.
            ReplacementPolicy::Fifo | ReplacementPolicy::Random => {}
            ReplacementPolicy::TreePlru => {
                let set = self.set_index(line);
                self.plru[set].touch(self.assoc, idx - set * self.assoc);
            }
        }
        LineRef {
            slot: &mut self.slots[idx],
        }
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
        let victim = if slot.valid() {
            Some(Victim {
                line: slot.tag,
                dirty: slot.dirty,
                data: slot.data,
            })
        } else {
            None
        };
        *slot = Slot {
            tag: line,
            stamp: tick,
            dirty,
            data,
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
        let slots = &mut self.slots[range];
        for slot in slots.iter_mut() {
            if slot.tag == line {
                let v = Victim {
                    line: slot.tag,
                    dirty: slot.dirty,
                    data: slot.data,
                };
                *slot = Slot::invalid();
                return Some(v);
            }
        }
        None
    }

    /// `CLWB` semantics: if `line` is resident and dirty, mark it clean and
    /// return its payload for write-back — the line stays resident. Returns
    /// `None` if the line is absent or already clean.
    pub fn clean_line(&mut self, line: u64) -> Option<Victim> {
        let range = self.set_range(line);
        for slot in self.slots[range].iter_mut() {
            if slot.tag == line {
                if !slot.dirty {
                    return None;
                }
                slot.dirty = false;
                return Some(Victim {
                    line: slot.tag,
                    dirty: true,
                    data: slot.data,
                });
            }
        }
        None
    }

    /// Non-mutating lookup (does not touch LRU state): the line's payload
    /// if resident.
    pub fn probe(&self, line: u64) -> Option<&[u8; LINE_SIZE]> {
        let range = self.set_range(line);
        self.slots[range]
            .iter()
            .find(|s| s.tag == line)
            .map(|s| &s.data)
    }

    /// Iterate over all resident lines as `(line, dirty, &data)`.
    pub fn iter_resident(&self) -> impl Iterator<Item = (u64, bool, &[u8; LINE_SIZE])> {
        self.slots
            .iter()
            .filter(|s| s.valid())
            .map(|s| (s.tag, s.dirty, &s.data))
    }

    /// Mark every resident line clean and return the formerly-dirty ones
    /// (used for draining a level without invalidating it).
    pub fn clean_all(&mut self) -> Vec<Victim> {
        let mut dirty = Vec::new();
        for slot in self.slots.iter_mut() {
            if slot.valid() && slot.dirty {
                dirty.push(Victim {
                    line: slot.tag,
                    dirty: true,
                    data: slot.data,
                });
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
    /// last-hit memory and the stamps of invalid slots are not inputs to
    /// anything.)
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
            let base = s.tag << LINE_SHIFT;
            s.data == t.data
                || outside(cells, base..base + LINE_SIZE as u64)
                    .all(|gap| s.data[gap.clone()] == t.data[gap])
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
        for slot in self.slots.iter_mut() {
            *slot = Slot::invalid();
        }
        for bits in self.plru.iter_mut() {
            *bits = PlruBits::default();
        }
        self.tick = 0;
        self.last_line = Slot::INVALID;
    }
}

/// Mutable view of a resident cache line.
pub struct LineRef<'a> {
    slot: &'a mut Slot,
}

impl LineRef<'_> {
    /// The line's payload.
    #[inline]
    pub fn data(&mut self) -> &mut [u8; LINE_SIZE] {
        &mut self.slot.data
    }

    /// Read-only payload access.
    #[inline]
    pub fn data_ref(&self) -> &[u8; LINE_SIZE] {
        &self.slot.data
    }

    /// Mark the line dirty (after a store).
    #[inline]
    pub fn mark_dirty(&mut self) {
        self.slot.dirty = true;
    }

    /// Whether the line is dirty.
    #[inline]
    pub fn dirty(&self) -> bool {
        self.slot.dirty
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
                .map(|s| (s.tag, s.stamp, s.dirty, s.data[0]))
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
