//! Cross-substrate contract tests: the persistence guarantees must hold
//! for every combination of flush instruction and replacement policy, and
//! the algorithm-directed recoveries must be insensitive to both.

use proptest::prelude::*;

use adcc::core::cg::cg_host;
use adcc::prelude::*;

/// persist_range + crash preserves data under every (flush op, policy)
/// combination, on both platforms.
#[test]
fn persist_contract_across_flushops_and_policies() {
    for op in FlushOp::ALL {
        for policy in ReplacementPolicy::ALL {
            for hetero in [false, true] {
                let mut cfg = if hetero {
                    SystemConfig::heterogeneous(4 << 10, 16 << 10, 1 << 20)
                } else {
                    SystemConfig::nvm_only(4 << 10, 1 << 20)
                }
                .with_flush_op(op);
                cfg.cpu_cache = cfg.cpu_cache.with_policy(policy);
                if let Some(dc) = cfg.dram_cache {
                    cfg.dram_cache = Some(dc.with_policy(policy));
                }
                let mut sys = MemorySystem::new(cfg);
                let x = PArray::<f64>::alloc_nvm(&mut sys, 64);
                for i in 0..64 {
                    x.set(&mut sys, i, i as f64 + 0.5);
                }
                sys.persist_range(x.base(), x.byte_len());
                sys.sfence();
                let img = sys.crash();
                for i in 0..64 {
                    assert_eq!(
                        img.read_f64(x.addr(i)),
                        i as f64 + 0.5,
                        "lost x[{i}] with op={} policy={} hetero={hetero}",
                        op.name(),
                        policy.name()
                    );
                }
            }
        }
    }
}

/// Unpersisted data is lost under every combination (no accidental
/// write-through path).
#[test]
fn unflushed_data_is_lost_across_combinations() {
    for op in FlushOp::ALL {
        for policy in ReplacementPolicy::ALL {
            let mut cfg = SystemConfig::nvm_only(64 << 10, 1 << 20).with_flush_op(op);
            cfg.cpu_cache = cfg.cpu_cache.with_policy(policy);
            let mut sys = MemorySystem::new(cfg);
            let x = PArray::<f64>::alloc_nvm(&mut sys, 8);
            x.set(&mut sys, 0, 9.0);
            // Cache is 64 KiB and we wrote one line: nothing evicts.
            let img = sys.crash();
            assert_eq!(
                img.read_f64(x.addr(0)),
                0.0,
                "unflushed write survived with op={} policy={}",
                op.name(),
                policy.name()
            );
        }
    }
}

/// CG recovery correctness is independent of the replacement policy and
/// flush instruction (the recompute *cost* varies; the answer must not).
#[test]
fn cg_recovery_correct_under_all_policies_and_ops() {
    let class = CgClass::TEST;
    let a = class.matrix(55);
    let b = class.rhs(&a);
    let iters = 8;
    let reference = cg_host(&a, &b, iters);
    for policy in ReplacementPolicy::ALL {
        for op in [FlushOp::Clflush, FlushOp::Clwb] {
            let mut cfg = SystemConfig::nvm_only(8 << 10, 64 << 20).with_flush_op(op);
            cfg.cpu_cache = cfg.cpu_cache.with_policy(policy);
            let mut sys = MemorySystem::new(cfg.clone());
            let (cg, rho0) = ExtendedCg::setup(&mut sys, &a, &b, iters);
            let trig = CrashTrigger::AtSite {
                site: CrashSite::new(adcc::core::cg::sites::PH_LINE10, 5),
                occurrence: 1,
            };
            let mut emu = CrashEmulator::from_system(sys, trig);
            let image = cg.run(&mut emu, 0, iters, rho0).crashed().expect("crash");
            let rec = cg.recover_and_resume(&image, cfg);
            assert!(
                max_diff(&rec.solution.z, &reference) < 1e-9,
                "policy={} op={}: off by {}",
                policy.name(),
                op.name(),
                max_diff(&rec.solution.z, &reference)
            );
        }
    }
}

/// Epoch-batched persistence and per-line persistence leave identical NVM
/// images (only their cost differs).
#[test]
fn epoch_and_serial_persist_produce_identical_images() {
    let build = |batched: bool| -> NvmImage {
        let mut sys = MemorySystem::new(SystemConfig::nvm_only(4 << 10, 1 << 20));
        let x = PArray::<f64>::alloc_nvm(&mut sys, 128);
        for i in 0..128 {
            x.set(&mut sys, i, (i * 3) as f64);
        }
        if batched {
            let mut e = EpochPersist::new();
            e.note_range(x.base(), x.byte_len());
            e.barrier(&mut sys);
        } else {
            sys.persist_range(x.base(), x.byte_len());
            sys.sfence();
        }
        sys.crash()
    };
    let a = build(false);
    let b = build(true);
    assert_eq!(a, b);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any random op sequence (writes, flushes, epoch barriers), every
    /// line's post-crash NVM value is the value it held at its last
    /// persist — regardless of flush instruction.
    #[test]
    fn last_persisted_value_wins(
        ops in prop::collection::vec((0u8..4, 0usize..16, any::<u8>()), 1..60),
        flush_op_idx in 0usize..3,
    ) {
        let op = FlushOp::ALL[flush_op_idx];
        let cfg = SystemConfig::nvm_only(2 << 10, 1 << 20).with_flush_op(op);
        let mut sys = MemorySystem::new(cfg);
        let x = PArray::<u8>::alloc_nvm(&mut sys, 16 * 64); // 16 lines
        // Model of what NVM must hold: last persisted value per line,
        // or any value between last-persist and now if it was evicted —
        // so track "persisted floor": after an explicit persist, NVM has
        // exactly the live value; eviction may update it further. The
        // checkable invariant: NVM never holds a value that was never
        // written.
        let mut live = [0u8; 16];
        let mut history: Vec<std::collections::HashSet<u8>> =
            vec![[0u8].into_iter().collect(); 16];
        for (kind, line, val) in &ops {
            let addr = x.base() + (*line as u64) * 64;
            match kind {
                0 | 1 => {
                    sys.write_bytes(addr, &[*val]);
                    live[*line] = *val;
                    history[*line].insert(*val);
                }
                2 => {
                    sys.persist_line(addr);
                    sys.sfence();
                }
                _ => {
                    let mut e = EpochPersist::new();
                    e.note(addr);
                    e.barrier(&mut sys);
                }
            }
        }
        // Persist everything at the end: now NVM must equal live exactly.
        sys.persist_range(x.base(), x.byte_len());
        sys.sfence();
        let img = sys.crash();
        for line in 0..16 {
            let got = img.read_u8(x.base() + line as u64 * 64);
            prop_assert_eq!(got, live[line], "line {} op {}", line, op.name());
        }
    }
}
