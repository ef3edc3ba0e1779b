//! Property tests for the extended checkpoint family: incremental
//! checkpoints must be observationally identical to full checkpoints
//! under arbitrary update/checkpoint interleavings, and diskless parity
//! must reconstruct exactly for any payload.

use proptest::prelude::*;

use adcc::prelude::*;

/// A scripted step for the incremental-equivalence test.
#[derive(Debug, Clone)]
enum Step {
    /// Write `value` at `index` (and report it dirty).
    Write { index: usize, value: f64 },
    /// Take a checkpoint.
    Checkpoint,
}

fn step_strategy(len: usize) -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (0..len, any::<f64>().prop_filter("finite", |v| v.is_finite()))
            .prop_map(|(index, value)| Step::Write { index, value }),
        1 => Just(Step::Checkpoint),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For any interleaving of writes and checkpoints, restoring the
    /// incremental checkpoint yields exactly the state at its last
    /// checkpoint — the same answer a full checkpoint gives.
    #[test]
    fn incremental_equals_full_for_any_script(
        script in prop::collection::vec(step_strategy(64), 1..40),
        page_pow in 6u32..9, // 64..256-byte pages
    ) {
        let cfg = SystemConfig::nvm_only(4 << 10, 4 << 20);
        let page = 1usize << page_pow;

        // Incremental system.
        let mut s1 = MemorySystem::new(cfg.clone());
        let x1 = PArray::<f64>::alloc_nvm(&mut s1, 64);
        let mut inc = IncrementalCheckpoint::new(
            &mut s1, vec![(x1.base(), x1.byte_len())], page, false,
        );

        // Full-checkpoint reference system.
        let mut s2 = MemorySystem::new(cfg.clone());
        let x2 = PArray::<f64>::alloc_nvm(&mut s2, 64);
        let regions2 = [(x2.base(), x2.byte_len())];
        let full = MemCheckpoint::new(&mut s2, x2.byte_len(), false);

        let mut any_ckpt = false;
        for step in &script {
            match step {
                Step::Write { index, value } => {
                    x1.set(&mut s1, *index, *value);
                    inc.mark_dirty(x1.addr(*index), 8);
                    x2.set(&mut s2, *index, *value);
                }
                Step::Checkpoint => {
                    inc.checkpoint(&mut s1);
                    full.checkpoint(&mut s2, &regions2);
                    any_ckpt = true;
                }
            }
        }
        prop_assume!(any_ckpt);

        // Diverge the live state, then restore both.
        x1.fill(&mut s1, f64::NAN);
        x2.fill(&mut s2, f64::NAN);
        let seq1 = inc.restore(&mut s1);
        let seq2 = full.restore(&mut s2, &regions2);
        prop_assert!(seq1.is_some() && seq2.is_some());
        let v1 = x1.load_vec(&mut s1);
        let v2 = x2.load_vec(&mut s2);
        for (i, (a, b)) in v1.iter().zip(&v2).enumerate() {
            prop_assert!(
                a.to_bits() == b.to_bits(),
                "element {i}: incremental {a} vs full {b}"
            );
        }
    }

    /// A crash between checkpoints never loses the last completed
    /// incremental checkpoint (even though dirty tracking is volatile).
    #[test]
    fn incremental_survives_crash_after_any_script(
        script in prop::collection::vec(step_strategy(32), 1..30),
    ) {
        let cfg = SystemConfig::nvm_only(4 << 10, 4 << 20);
        let mut sys = MemorySystem::new(cfg.clone());
        let x = PArray::<f64>::alloc_nvm(&mut sys, 32);
        let regions = vec![(x.base(), x.byte_len())];
        let mut inc = IncrementalCheckpoint::new(&mut sys, regions.clone(), 128, false);

        let mut at_last_ckpt: Option<Vec<f64>> = None;
        let mut shadow = vec![0.0f64; 32];
        for step in &script {
            match step {
                Step::Write { index, value } => {
                    x.set(&mut sys, *index, *value);
                    inc.mark_dirty(x.addr(*index), 8);
                    shadow[*index] = *value;
                }
                Step::Checkpoint => {
                    inc.checkpoint(&mut sys);
                    at_last_ckpt = Some(shadow.clone());
                }
            }
        }
        prop_assume!(at_last_ckpt.is_some());
        let layout = inc.layout();

        let image = sys.crash();
        let mut sys2 = MemorySystem::from_image(cfg, &image);
        let inc2 = IncrementalCheckpoint::attach(layout, regions, false);
        prop_assert!(inc2.restore(&mut sys2).is_some());
        let got = x.load_vec(&mut sys2);
        let want = at_last_ckpt.unwrap();
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            prop_assert!(a.to_bits() == b.to_bits(), "element {i}: {a} vs {b}");
        }
    }

    /// Diskless N+1 parity reconstructs rank 0 exactly for any payload and
    /// any group size.
    #[test]
    fn diskless_parity_reconstructs_any_payload(
        values in prop::collection::vec(
            any::<f64>().prop_filter("finite", |v| v.is_finite()), 32..=32),
        ranks in 2usize..8,
    ) {
        let cfg = SystemConfig::nvm_only(4 << 10, 4 << 20);
        let mut sys = MemorySystem::new(cfg.clone());
        let x = PArray::<f64>::alloc_nvm(&mut sys, 32);
        x.store_slice(&mut sys, &values);
        let regions = [(x.base(), x.byte_len())];
        let mut parity = ParityNode::new();
        let mut dl = DisklessCheckpoint::new(ranks, x.byte_len(), RemoteTiming::burst_buffer());
        dl.checkpoint(&mut sys, &regions, &mut parity);

        let mut fresh = MemorySystem::new(cfg);
        let _shadow = PArray::<f64>::alloc_nvm(&mut fresh, 32);
        let got = DisklessCheckpoint::reconstruct_rank0(
            &mut fresh, &regions, ranks, RemoteTiming::burst_buffer(), &parity,
        );
        prop_assert_eq!(got, Some(1));
        let back = x.load_vec(&mut fresh);
        for (i, (a, b)) in back.iter().zip(&values).enumerate() {
            prop_assert!(a.to_bits() == b.to_bits(), "element {i}: {a} vs {b}");
        }
    }
}
