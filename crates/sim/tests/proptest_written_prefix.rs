//! Model test for the written-prefix invariant of crash images.
//!
//! Images hold only the pool's written prefix plus a logical length; every
//! byte past the prefix reads as zero. This suite drives random stores —
//! low in the pool, straddling the current prefix end, and far beyond it —
//! against a dense `Vec<u8>` model of the whole pool and demands that every
//! image path agrees with the model byte for byte at every step:
//! `crash_fork()`, `crash_fork_delta().materialize()`, `DeltaImage::read*`,
//! `from_image(..)` + `peek_bytes`, and finally `crash()`.
//!
//! The model is exact in both configurations: with battery-backed caches a
//! crash image is the program's logical memory whether or not a store was
//! persisted (unpersisted lines past the prefix exercise the drain
//! overlay); with volatile caches every store is persisted at once.

use proptest::prelude::*;

use adcc_sim::prelude::*;

/// Pool size: 256 lines, far larger than the few hundred bytes a run's
/// low stores keep live, so "far" addresses really are far past the prefix.
const CAP: usize = 1 << 14;

/// Where a store lands.
#[derive(Debug, Clone, Copy)]
enum Place {
    /// In the first lines of the pool.
    Low(usize),
    /// This many bytes before the end of NVM's current written prefix
    /// (stores longer than that straddle the prefix end).
    BeforePrefixEnd(usize),
    /// Anywhere in the pool.
    Anywhere(usize),
}

#[derive(Debug, Clone)]
enum Op {
    /// Store `len` bytes of `fill` (zero fills grow the prefix with
    /// nothing but zeros); `persist` is forced on with volatile caches.
    Store {
        at: Place,
        len: usize,
        fill: u8,
        persist: bool,
    },
    /// CLFLUSH the line at `at`.
    Flush { at: Place },
    /// Drain the DRAM cache (hetero only; no-op otherwise).
    Drain,
    /// Take a fresh delta base: later forks diff against the pool as it
    /// is now, earlier growth of the prefix included.
    Rebase,
}

fn place_strategy() -> impl Strategy<Value = Place> {
    prop_oneof![
        2 => (0usize..512).prop_map(Place::Low),
        3 => (0usize..96).prop_map(Place::BeforePrefixEnd),
        2 => (0usize..CAP).prop_map(Place::Anywhere),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (place_strategy(), 1usize..160, any::<u8>(), any::<bool>(), any::<bool>()).prop_map(
            |(at, len, fill, zero, persist)| Op::Store {
                at,
                len,
                fill: if zero { 0 } else { fill },
                persist,
            }
        ),
        2 => place_strategy().prop_map(|at| Op::Flush { at }),
        1 => Just(Op::Drain),
        1 => Just(Op::Rebase),
    ]
}

/// The whole logical image as a dense vector.
fn dense(image: &NvmImage) -> Vec<u8> {
    let mut out = vec![0xAA; image.len()];
    image.read_bytes(0, &mut out);
    out
}

fn trimmed_len(bytes: &[u8]) -> usize {
    bytes.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1)
}

fn run(cfg: SystemConfig, pre: &[Op], ops: &[Op]) -> Result<(), TestCaseError> {
    let battery = cfg.persistent_caches;
    let mut sys = MemorySystem::new(cfg.clone());
    let mut model = vec![0u8; CAP];
    // End of the highest line any store touched: nothing may be resident
    // in an image beyond it.
    let mut high_water = 0usize;
    let mut base = sys.delta_base();

    for (k, op) in pre.iter().chain(ops).enumerate() {
        if k == pre.len() {
            // The base the checked forks start from is taken mid-history,
            // before the prefix grows any further.
            base = sys.delta_base();
        }
        let resolve = |sys: &MemorySystem, at: Place, len: usize| -> usize {
            let addr = match at {
                Place::Low(a) | Place::Anywhere(a) => a,
                Place::BeforePrefixEnd(back) => {
                    sys.nvm_snapshot().prefix().len().saturating_sub(back)
                }
            };
            addr.min(CAP - len)
        };
        let mut probe = 0usize;
        match *op {
            Op::Store {
                at,
                len,
                fill,
                persist,
            } => {
                let addr = resolve(&sys, at, len);
                sys.write_bytes(addr as u64, &vec![fill; len]);
                if persist || !battery {
                    sys.persist_range(addr as u64, len);
                }
                model[addr..addr + len].fill(fill);
                high_water = high_water.max((addr + len).next_multiple_of(LINE_SIZE));
                probe = addr;
            }
            Op::Flush { at } => sys.clflush(resolve(&sys, at, 1) as u64),
            Op::Drain => sys.drain_dram_cache(),
            Op::Rebase => base = sys.delta_base(),
        }

        let full = sys.crash_fork();
        prop_assert_eq!(full.len(), CAP, "op {}: len() is the pool capacity", k);
        prop_assert!(
            full.prefix().len() <= high_water,
            "op {}: {} resident bytes, nothing written past {}",
            k,
            full.prefix().len(),
            high_water
        );
        prop_assert!(dense(&full) == model, "op {}: crash_fork != model", k);

        let delta = sys.crash_fork_delta(&base);
        prop_assert_eq!(delta.len(), CAP);
        let mut through_delta = vec![0xAA; CAP];
        delta.read_bytes(0, &mut through_delta);
        prop_assert!(
            through_delta == model,
            "op {}: DeltaImage reads != model",
            k
        );
        // Typed reads at (and straddling) the store just made.
        for addr in [probe, probe.saturating_sub(3)] {
            let addr = addr.min(CAP - 8);
            let want = u64::from_le_bytes(model[addr..addr + 8].try_into().unwrap());
            prop_assert_eq!(
                delta.read_u64(addr as u64),
                want,
                "op {} delta @{}",
                k,
                addr
            );
            prop_assert_eq!(full.read_u64(addr as u64), want, "op {} full @{}", k, addr);
        }

        let materialized = delta.materialize();
        prop_assert_eq!(&materialized, &full, "op {}", k);
        prop_assert!(materialized.prefix().len() <= high_water, "op {}", k);
        prop_assert_eq!(
            materialized.resident_bytes(),
            delta.materialized_bytes(),
            "op {}",
            k
        );
        prop_assert!(
            dense(&materialized) == model,
            "op {}: materialize != model",
            k
        );

        let rebooted = MemorySystem::from_image(cfg.clone(), &materialized);
        let mut seen = vec![0xAA; CAP];
        rebooted.peek_bytes(0, &mut seen);
        prop_assert!(seen == model, "op {}: rebooted memory != model", k);
        // The reboot keeps no zero tail, so forking it stays cheap.
        prop_assert_eq!(
            rebooted.nvm_snapshot().prefix().len(),
            trimmed_len(&model),
            "op {}",
            k
        );

        let mut live = vec![0xAA; CAP];
        sys.peek_bytes(0, &mut live);
        prop_assert!(live == model, "op {}: program view != model", k);
    }

    let crashed = sys.crash();
    prop_assert_eq!(crashed.len(), CAP);
    prop_assert!(dense(&crashed) == model, "crash != model");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Battery-backed caches: unpersisted lines reach the image through
    /// the drain overlay, also when they sit beyond the written prefix.
    #[test]
    fn images_match_a_dense_model_with_persistent_caches(
        pre in prop::collection::vec(op_strategy(), 0..6),
        ops in prop::collection::vec(op_strategy(), 1..40),
        hetero in any::<bool>(),
    ) {
        let cfg = if hetero {
            SystemConfig::heterogeneous(8 * 64, 16 * 64, CAP)
        } else {
            SystemConfig::nvm_only(8 * 64, CAP)
        };
        run(cfg.with_persistent_caches(true), &pre, &ops)?;
    }

    /// Volatile caches, every store persisted: the journal and the delta
    /// lines carry the growth of the prefix.
    #[test]
    fn images_match_a_dense_model_with_volatile_caches(
        pre in prop::collection::vec(op_strategy(), 0..6),
        ops in prop::collection::vec(op_strategy(), 1..40),
        hetero in any::<bool>(),
    ) {
        let cfg = if hetero {
            SystemConfig::heterogeneous(8 * 64, 16 * 64, CAP)
        } else {
            SystemConfig::nvm_only(8 * 64, CAP)
        };
        run(cfg, &pre, &ops)?;
    }
}
