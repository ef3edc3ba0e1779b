//! The recoverable checkpoint + CAS primitives (the Memento idiom).
//!
//! Both persistent structures are built from exactly two primitives:
//!
//! * [`Checkpoint`] — a crash-atomic value cell: two sequence-tagged
//!   slots in separate cache lines; `store` writes the losing slot and
//!   persists it, `load` returns the slot with the larger tag. A crash
//!   anywhere inside `store` leaves either the old or the new value
//!   readable — never a torn one.
//! * [`OpTable`] — per-client operation records providing *detectable
//!   recoverability*: each operation persists an announcement before its
//!   body runs and records completion atomically with its effects (inside
//!   the undo transaction). After a crash, `announced > completed` tells
//!   recovery exactly which operation was in flight for each client —
//!   the detectability property a bare CAS cannot offer.

use adcc_sim::hook;
use adcc_sim::parray::PArray;
use adcc_sim::system::MemorySystem;

/// Words per slot line (one cache line).
const LINE_WORDS: usize = 8;

/// A two-slot, sequence-tagged, crash-atomic `u64` cell.
pub struct Checkpoint {
    /// Two lines: words 0..2 = slot A `(tag, value)`, words 8..10 = slot B.
    slots: PArray<u64>,
}

impl Checkpoint {
    /// Allocate and initialize a cell holding `0`.
    pub fn new(sys: &mut MemorySystem) -> Self {
        let slots = PArray::<u64>::alloc_nvm(sys, 2 * LINE_WORDS);
        slots.fill(sys, 0);
        slots.set(sys, 0, 1); // slot A: tag 1, value 0
        slots.persist_all(sys);
        sys.sfence();
        Checkpoint { slots }
    }

    /// Re-attach at a known base address (post-crash).
    pub fn attach(base: u64) -> Self {
        Checkpoint {
            slots: PArray::new(base, 2 * LINE_WORDS),
        }
    }

    /// Base address, for layouts and post-crash discovery.
    pub fn base(&self) -> u64 {
        self.slots.base()
    }

    /// Crash-atomically replace the stored value.
    pub fn store(&self, sys: &mut MemorySystem, value: u64) {
        let tag_a = self.slots.get(sys, 0);
        let tag_b = self.slots.get(sys, LINE_WORDS);
        // Overwrite the slot with the smaller tag; the winner stays valid
        // until the loser's line is durably replaced.
        let (dst, tag) = if tag_a >= tag_b {
            (LINE_WORDS, tag_a + 1)
        } else {
            (0, tag_b + 1)
        };
        self.slots.set(sys, dst, tag);
        self.slots.set(sys, dst + 1, value);
        // A seeded bug persists the *winning* (clean) slot line instead:
        // the new value never becomes durable (a redundant flush of a
        // clean line plus an unpersisted store).
        let line = if hook::seeded() {
            LINE_WORDS - dst
        } else {
            dst
        };
        sys.persist_line(self.slots.addr(line));
        sys.sfence();
    }

    /// Read the current value (the slot with the larger tag).
    pub fn load(&self, sys: &mut MemorySystem) -> u64 {
        let tag_a = self.slots.get(sys, 0);
        let tag_b = self.slots.get(sys, LINE_WORDS);
        if tag_a >= tag_b {
            self.slots.get(sys, 1)
        } else {
            self.slots.get(sys, LINE_WORDS + 1)
        }
    }

    /// Both slot line addresses (for undo-log snapshotting before an
    /// in-transaction `store`).
    pub fn line_addrs(&self) -> [u64; 2] {
        [self.slots.addr(0), self.slots.addr(LINE_WORDS)]
    }

    /// Reset to the initial state (value 0) — used by rebuild-from-scratch
    /// recovery.
    pub fn reinit(&self, sys: &mut MemorySystem) {
        self.slots.fill(sys, 0);
        self.slots.set(sys, 0, 1);
        self.slots.persist_all(sys);
        sys.sfence();
    }
}

/// Per-client announce/complete records: one cache line per client —
/// `[announced_seq, completed_seq, result]`.
pub struct OpTable {
    table: PArray<u64>,
    clients: u32,
}

impl OpTable {
    /// Allocate a table for `clients` clients, all records zeroed.
    pub fn new(sys: &mut MemorySystem, clients: u32) -> Self {
        let table = PArray::<u64>::alloc_nvm(sys, clients as usize * LINE_WORDS);
        table.fill(sys, 0);
        table.persist_all(sys);
        sys.sfence();
        OpTable { table, clients }
    }

    /// Re-attach at a known base address (post-crash).
    pub fn attach(base: u64, clients: u32) -> Self {
        OpTable {
            table: PArray::new(base, clients as usize * LINE_WORDS),
            clients,
        }
    }

    /// Base address, for layouts and post-crash discovery.
    pub fn base(&self) -> u64 {
        self.table.base()
    }

    /// The client record's line address (for undo-log snapshotting).
    pub fn line_addr(&self, client: u32) -> u64 {
        self.table.addr(client as usize * LINE_WORDS)
    }

    /// Persist the announcement that `client` is starting op `seq`.
    /// Called *before* the operation body (and outside its transaction),
    /// so the announcement survives any crash inside the op.
    pub fn announce(&self, sys: &mut MemorySystem, client: u32, seq: u64) {
        self.table.set(sys, client as usize * LINE_WORDS, seq);
        sys.persist_line(self.line_addr(client));
        sys.sfence();
    }

    /// Record completion of op `seq` with `result`. Durability is the
    /// caller's protocol: inside an undo transaction this is atomic with
    /// the op's effects; unprotected it may leak or be lost.
    pub fn complete(&self, sys: &mut MemorySystem, client: u32, seq: u64, result: u64) {
        let w = client as usize * LINE_WORDS;
        self.table.set(sys, w + 1, seq);
        self.table.set(sys, w + 2, result);
    }

    /// `(announced, completed)` for one client.
    pub fn status(&self, sys: &mut MemorySystem, client: u32) -> (u64, u64) {
        let w = client as usize * LINE_WORDS;
        (self.table.get(sys, w), self.table.get(sys, w + 1))
    }

    /// Clients whose announced op never completed — the recovery-time
    /// detectability report: `(client, in-flight seq)` pairs.
    pub fn in_flight(&self, sys: &mut MemorySystem) -> Vec<(u32, u64)> {
        (0..self.clients)
            .filter_map(|c| {
                let (a, done) = self.status(sys, c);
                (a > done).then_some((c, a))
            })
            .collect()
    }

    /// Zero every record — used by rebuild-from-scratch recovery.
    pub fn reinit(&self, sys: &mut MemorySystem) {
        self.table.fill(sys, 0);
        self.table.persist_all(sys);
        sys.sfence();
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
    fn checkpoint_store_load_roundtrip() {
        let mut s = sys();
        let ck = Checkpoint::new(&mut s);
        assert_eq!(ck.load(&mut s), 0);
        for v in [7u64, 8, 9, 100] {
            ck.store(&mut s, v);
            assert_eq!(ck.load(&mut s), v);
        }
    }

    #[test]
    fn checkpoint_survives_crash_between_stores() {
        let mut s = sys();
        let ck = Checkpoint::new(&mut s);
        ck.store(&mut s, 41);
        ck.store(&mut s, 42);
        let base = ck.base();
        let img = s.crash();
        let mut s2 = MemorySystem::from_image(SystemConfig::nvm_only(4096, 1 << 20), &img);
        let ck2 = Checkpoint::attach(base);
        assert_eq!(ck2.load(&mut s2), 42, "store persists before returning");
    }

    #[test]
    fn checkpoint_torn_store_falls_back_to_old_value() {
        let mut s = sys();
        let ck = Checkpoint::new(&mut s);
        ck.store(&mut s, 10);
        // Simulate a crash mid-store: the losing slot gets a new tag and
        // value written but never persisted (cache-resident only).
        let tag_a = ck.slots.get(&mut s, 0);
        let tag_b = ck.slots.get(&mut s, LINE_WORDS);
        let dst = if tag_a >= tag_b { LINE_WORDS } else { 0 };
        ck.slots.set(&mut s, dst, tag_a.max(tag_b) + 1);
        ck.slots.set(&mut s, dst + 1, 999);
        let base = ck.base();
        let img = s.crash(); // unpersisted slot write lost
        let mut s2 = MemorySystem::from_image(SystemConfig::nvm_only(4096, 1 << 20), &img);
        assert_eq!(Checkpoint::attach(base).load(&mut s2), 10);
    }

    #[test]
    fn optable_reports_in_flight_ops() {
        let mut s = sys();
        let t = OpTable::new(&mut s, 4);
        t.announce(&mut s, 2, 9);
        t.complete(&mut s, 2, 9, 123);
        t.announce(&mut s, 1, 10);
        // Client 1 announced op 10 but never completed it.
        assert_eq!(t.in_flight(&mut s), vec![(1, 10)]);
        assert_eq!(t.status(&mut s, 2), (9, 9));
    }
}
