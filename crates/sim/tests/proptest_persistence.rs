//! Property tests for the crash emulator's core guarantee:
//!
//! For any sequence of writes, reads, flushes and persists, (1) the program
//! always observes its own last write (cache coherence), and (2) after a
//! crash, every line's NVM value is a value that line actually held at some
//! point *no older than its last explicit persist* — i.e. the image is
//! stale-but-prefix-consistent per line, never torn and never older than a
//! persist barrier.

use proptest::prelude::*;

use adcc_sim::prelude::*;

/// One step of the random program.
#[derive(Debug, Clone)]
enum Op {
    /// Write value `v` to slot `i`.
    Write { i: usize, v: u64 },
    /// Read slot `i` and check coherence.
    Read { i: usize },
    /// CLFLUSH the line containing slot `i`.
    Flush { i: usize },
    /// Fully persist the line containing slot `i`.
    Persist { i: usize },
    /// Drain the DRAM cache (hetero only; no-op otherwise).
    Drain,
}

const SLOTS: usize = 64;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..SLOTS, any::<u64>()).prop_map(|(i, v)| Op::Write { i, v }),
        3 => (0..SLOTS).prop_map(|i| Op::Read { i }),
        1 => (0..SLOTS).prop_map(|i| Op::Flush { i }),
        1 => (0..SLOTS).prop_map(|i| Op::Persist { i }),
        1 => Just(Op::Drain),
    ]
}

/// Reference model: per slot, the history of values and the index of the
/// last value that an explicit persist forced into NVM.
struct RefModel {
    history: Vec<Vec<u64>>,
    persisted_floor: Vec<usize>,
}

impl RefModel {
    fn new() -> Self {
        RefModel {
            history: vec![vec![0]; SLOTS],
            persisted_floor: vec![0; SLOTS],
        }
    }

    fn write(&mut self, i: usize, v: u64) {
        self.history[i].push(v);
    }

    fn logical(&self, i: usize) -> u64 {
        *self.history[i].last().unwrap()
    }

    /// An explicit full persist pins the floor at the current value.
    fn persist(&mut self, i: usize) {
        self.persisted_floor[i] = self.history[i].len() - 1;
    }

    /// Acceptable post-crash values: history from the floor onward.
    fn acceptable(&self, i: usize) -> &[u64] {
        &self.history[i][self.persisted_floor[i]..]
    }
}

fn run_scenario(sys_cfg: SystemConfig, ops: &[Op], hetero: bool) -> Result<(), TestCaseError> {
    let mut sys = MemorySystem::new(sys_cfg);
    // One u64 per line so per-slot persistence is exactly per-line.
    let arr = PArray::<u64>::alloc_nvm(&mut sys, SLOTS * 8);
    let slot = |i: usize| i * 8;
    let mut model = RefModel::new();

    for op in ops {
        match *op {
            Op::Write { i, v } => {
                arr.set(&mut sys, slot(i), v);
                model.write(i, v);
            }
            Op::Read { i } => {
                let got = arr.get(&mut sys, slot(i));
                prop_assert_eq!(got, model.logical(i), "coherence violated at slot {}", i);
            }
            Op::Flush { i } => {
                sys.clflush(arr.addr(slot(i)));
                if !hetero {
                    // Without a DRAM cache, CLFLUSH is a full persist.
                    model.persist(i);
                }
            }
            Op::Persist { i } => {
                sys.persist_line(arr.addr(slot(i)));
                model.persist(i);
            }
            Op::Drain => {
                sys.drain_dram_cache();
            }
        }
    }

    let img = sys.crash();
    for i in 0..SLOTS {
        let nvm_val = img.read_u64(arr.addr(slot(i)));
        let ok = model.acceptable(i).contains(&nvm_val);
        prop_assert!(
            ok,
            "slot {i}: NVM value {nvm_val} not in acceptable suffix {:?}",
            model.acceptable(i)
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// NVM-only platform: tiny cache forces constant evictions.
    #[test]
    fn persistence_ordering_nvm_only(ops in prop::collection::vec(op_strategy(), 1..300)) {
        // 8 lines of CPU cache over 64 slots: heavy eviction pressure.
        run_scenario(SystemConfig::nvm_only(8 * 64, 1 << 16), &ops, false)?;
    }

    /// Heterogeneous platform: two volatile levels between program and NVM.
    #[test]
    fn persistence_ordering_hetero(ops in prop::collection::vec(op_strategy(), 1..300)) {
        run_scenario(
            SystemConfig::heterogeneous(8 * 64, 16 * 64, 1 << 16),
            &ops,
            true,
        )?;
    }

    /// A persist followed immediately by a crash always lands the exact value.
    #[test]
    fn persist_is_exact(vals in prop::collection::vec(any::<u64>(), 1..SLOTS)) {
        let mut sys = MemorySystem::new(SystemConfig::heterogeneous(8 * 64, 16 * 64, 1 << 16));
        let arr = PArray::<u64>::alloc_nvm(&mut sys, vals.len());
        for (i, v) in vals.iter().enumerate() {
            arr.set(&mut sys, i, *v);
        }
        arr.persist_all(&mut sys);
        let img = sys.crash();
        for (i, v) in vals.iter().enumerate() {
            prop_assert_eq!(img.read_u64(arr.addr(i)), *v);
        }
    }

    /// Copy-on-write crash forks are exact: at arbitrary points of an
    /// arbitrary program, a `DeltaImage` materializes to the byte-exact
    /// `crash_fork` image taken at the same instant — on both platforms,
    /// with forks accumulating against one shared base.
    #[test]
    fn delta_forks_materialize_exactly(
        ops in prop::collection::vec(op_strategy(), 1..300),
        hetero in any::<bool>(),
        fork_every in 1usize..40,
    ) {
        let cfg = if hetero {
            SystemConfig::heterogeneous(8 * 64, 16 * 64, 1 << 16)
        } else {
            SystemConfig::nvm_only(8 * 64, 1 << 16)
        };
        let mut sys = MemorySystem::new(cfg);
        let arr = PArray::<u64>::alloc_nvm(&mut sys, SLOTS * 8);
        let slot = |i: usize| i * 8;
        // Pre-base traffic: the base must absorb it.
        arr.set(&mut sys, 0, 7);
        sys.persist_line(arr.addr(0));
        let base = sys.delta_base();
        for (k, op) in ops.iter().enumerate() {
            match *op {
                Op::Write { i, v } => arr.set(&mut sys, slot(i), v),
                Op::Read { i } => { arr.get(&mut sys, slot(i)); }
                Op::Flush { i } => sys.clflush(arr.addr(slot(i))),
                Op::Persist { i } => sys.persist_line(arr.addr(slot(i))),
                Op::Drain => sys.drain_dram_cache(),
            }
            if k % fork_every == 0 {
                let delta = sys.crash_fork_delta(&base);
                let full = sys.crash_fork();
                let materialized = delta.materialize();
                prop_assert_eq!(materialized, full, "op {}", k);
                prop_assert_eq!(
                    delta.dirty_lines_at_crash(),
                    full.dirty_lines_at_crash(),
                    "op {}", k
                );
                // Reads through the delta agree with the full image.
                for i in 0..SLOTS {
                    prop_assert_eq!(
                        delta.read_u64(arr.addr(slot(i))),
                        full.read_u64(arr.addr(slot(i)))
                    );
                }
            }
        }
    }

    /// Simulated time is monotone and deterministic for a given op sequence.
    #[test]
    fn clock_is_deterministic(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let run = |ops: &[Op]| -> u64 {
            let mut sys = MemorySystem::new(SystemConfig::heterogeneous(8 * 64, 16 * 64, 1 << 16));
            let arr = PArray::<u64>::alloc_nvm(&mut sys, SLOTS * 8);
            let slot = |i: usize| i * 8;
            let mut last = 0u64;
            for op in ops {
                match *op {
                    Op::Write { i, v } => arr.set(&mut sys, slot(i), v),
                    Op::Read { i } => { arr.get(&mut sys, slot(i)); }
                    Op::Flush { i } => sys.clflush(arr.addr(slot(i))),
                    Op::Persist { i } => sys.persist_line(arr.addr(slot(i))),
                    Op::Drain => sys.drain_dram_cache(),
                }
                let now = sys.now().ps();
                assert!(now >= last, "clock went backwards");
                last = now;
            }
            sys.now().ps()
        };
        prop_assert_eq!(run(&ops), run(&ops));
    }
}
