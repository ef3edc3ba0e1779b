//! Fabric fault-injection properties: the adversarial physical layer of
//! [`adcc::dist::net::Fabric`] must stay deterministic, payload-safe, and
//! deadlock-free under every seeded fault plan.
//!
//! Three layers:
//!
//! 1. The fault sequence is a pure function of the plan: two fabrics built
//!    from the same config produce byte-identical delivery traces — same
//!    payloads, same sender/receiver clocks, same fault counters — and the
//!    payload stream is identical to a reliable fabric's (faults perturb
//!    only clocks and counters, never content or order).
//! 2. Loss plus duplication never deadlocks a collective: every
//!    `allreduce_sum` on a chaotic fabric completes (the bounded-retry
//!    transport guarantees delivery), produces the rank-order sum, and
//!    leaves every rank clock on the barrier frontier.
//! 3. `Fabric::clone` — the harvest-fork path — preserves the perturbation
//!    sequence: a fork taken mid-stream draws exactly the faults the
//!    original draws for every subsequent message.

use proptest::prelude::*;

use adcc::dist::cluster::{Cluster, ClusterConfig};
use adcc::dist::net::{Fabric, FaultPlan, NetTiming};
use adcc::sim::system::{MemorySystem, SystemConfig};

fn cfg() -> SystemConfig {
    SystemConfig::nvm_only(4 << 10, 1 << 16)
}

const RANKS: usize = 3;

/// An arbitrary active fault plan, spanning mild loss up to past-chaotic
/// rates. `max_retries >= 1` keeps the retry bound meaningful.
fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        0u32..=300_000,
        0u32..=120_000,
        0u32..=120_000,
        1u32..=5,
    )
        .prop_map(
            |(seed, drop_ppm, dup_ppm, reorder_ppm, max_retries)| FaultPlan {
                seed,
                drop_ppm,
                dup_ppm,
                reorder_ppm,
                max_retries,
                timeout_ps: 2_000_000,
                reorder_ps: 1_500_000,
            },
        )
}

/// A random message pattern over `RANKS` peers: `(src, hop, len)` tuples
/// where `dst = (src + hop) % RANKS` can never self-send.
fn pattern_strategy() -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    proptest::collection::vec((0..RANKS, 1..RANKS, 1usize..=48), 1..40)
}

/// One delivery record: sender clock after the send, receiver clock after
/// the delivery, and the delivered bytes.
type Trace = Vec<(u64, u64, Vec<u8>)>;

/// Drive `pattern` through a fresh fabric under `faults`, delivering each
/// message immediately, and return the full trace plus the per-rank fault
/// counters `(dropped, duplicated, reordered, retries)`.
fn run_pattern(
    faults: FaultPlan,
    pattern: &[(usize, usize, usize)],
) -> (Trace, Vec<(u64, u64, u64, u64)>) {
    let mut fabric = Fabric::with_faults(RANKS, NetTiming::cluster_2017(), 7, faults);
    let mut systems: Vec<MemorySystem> = (0..RANKS).map(|_| MemorySystem::new(cfg())).collect();
    let trace = pattern
        .iter()
        .enumerate()
        .map(|(i, &(src, hop, len))| {
            let dst = (src + hop) % RANKS;
            let payload = vec![(i % 251) as u8; len];
            fabric.send(&mut systems[src], src, dst, payload);
            let sent_ps = systems[src].now().ps();
            let got = fabric.recv(&mut systems[dst], src, dst);
            (sent_ps, systems[dst].now().ps(), got)
        })
        .collect();
    let counters = systems
        .iter()
        .map(|s| {
            let st = s.stats();
            (
                st.net_dropped,
                st.net_duplicated,
                st.net_reordered,
                st.net_retries,
            )
        })
        .collect();
    (trace, counters)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fault_sequence_is_a_pure_function_of_the_plan(
        faults in plan_strategy(),
        pattern in pattern_strategy(),
    ) {
        let (trace_a, counters_a) = run_pattern(faults, &pattern);
        let (trace_b, counters_b) = run_pattern(faults, &pattern);
        prop_assert_eq!(&trace_a, &trace_b, "same plan, same trace");
        prop_assert_eq!(&counters_a, &counters_b, "same plan, same counters");

        // Against the reliable fabric: payloads and delivery order are
        // untouched (faults perturb only clocks and counters), and the
        // logical traffic is identical message for message.
        let (reliable, reliable_counters) = run_pattern(FaultPlan::none(), &pattern);
        prop_assert_eq!(trace_a.len(), reliable.len());
        for ((_, _, faulty), (_, _, clean)) in trace_a.iter().zip(&reliable) {
            prop_assert_eq!(faulty, clean, "faults must never touch payload bytes");
        }
        for &(d, dup, re, ret) in &reliable_counters {
            prop_assert_eq!((d, dup, re, ret), (0, 0, 0, 0));
        }
        // Fault costs only ever push clocks forward, never backward.
        for ((sent_f, recv_f, _), (sent_c, recv_c, _)) in trace_a.iter().zip(&reliable) {
            prop_assert!(sent_f >= sent_c, "fault charges are nonnegative");
            prop_assert!(recv_f >= recv_c, "resequencing delays are nonnegative");
        }
    }

    #[test]
    fn lossy_duplicating_fabrics_never_deadlock_a_collective(
        seed in any::<u64>(),
        rounds in 1usize..=4,
    ) {
        // The chaotic preset: double-digit loss, frequent duplication and
        // reordering. `allreduce_sum` recv-panics on any undelivered
        // message, so mere completion is the no-deadlock proof; the value
        // and clock checks pin that the collective stayed correct.
        let mut cl = Cluster::new(
            ClusterConfig {
                ranks: 4,
                sys: cfg(),
                net: NetTiming::cluster_2017(),
                net_seed: seed,
                faults: adcc::dist::net::FaultProfile::Chaotic.plan(seed ^ 0xd15f),
            },
            None,
        );
        for round in 0..rounds {
            let contributions: Vec<f64> =
                (0..4).map(|r| (round * 4 + r) as f64 + 0.25).collect();
            let expect: f64 = contributions.iter().sum();
            let got = cl.allreduce_sum(&contributions);
            prop_assert_eq!(got.to_bits(), expect.to_bits(), "round {}", round);
            let frontier = cl.max_now_ps();
            for r in 0..4 {
                prop_assert_eq!(
                    cl.system(r).now().ps(),
                    frontier,
                    "rank {} off the barrier frontier after round {}",
                    r,
                    round
                );
            }
        }
    }

    #[test]
    fn cloned_fabrics_preserve_the_perturbation_sequence(
        faults in plan_strategy(),
        prefix in pattern_strategy(),
        suffix in pattern_strategy(),
    ) {
        // Drive the prefix, fork the fabric (the harvest-recovery path),
        // then charge the identical suffix to *fresh* memory systems on
        // both sides: any divergence in clocks or counters can only come
        // from the fabric's internal sequence state.
        let mut original = Fabric::with_faults(RANKS, NetTiming::cluster_2017(), 7, faults);
        let mut warm: Vec<MemorySystem> = (0..RANKS).map(|_| MemorySystem::new(cfg())).collect();
        for (i, &(src, hop, len)) in prefix.iter().enumerate() {
            let dst = (src + hop) % RANKS;
            original.send(&mut warm[src], src, dst, vec![(i % 251) as u8; len]);
            original.recv(&mut warm[dst], src, dst);
        }
        let mut forked = original.clone();
        prop_assert_eq!(forked.traffic(), original.traffic());

        let run_suffix = |fabric: &mut Fabric| -> (Trace, Vec<(u64, u64, u64, u64)>) {
            let mut fresh: Vec<MemorySystem> =
                (0..RANKS).map(|_| MemorySystem::new(cfg())).collect();
            let trace = suffix
                .iter()
                .enumerate()
                .map(|(i, &(src, hop, len))| {
                    let dst = (src + hop) % RANKS;
                    let payload = vec![(i % 249) as u8; len];
                    fabric.send(&mut fresh[src], src, dst, payload);
                    let sent_ps = fresh[src].now().ps();
                    let got = fabric.recv(&mut fresh[dst], src, dst);
                    (sent_ps, fresh[dst].now().ps(), got)
                })
                .collect();
            let counters = fresh
                .iter()
                .map(|s| {
                    let st = s.stats();
                    (st.net_dropped, st.net_duplicated, st.net_reordered, st.net_retries)
                })
                .collect();
            (trace, counters)
        };
        let on_original = run_suffix(&mut original);
        let on_fork = run_suffix(&mut forked);
        prop_assert_eq!(&on_original.0, &on_fork.0, "fork must replay the same trace");
        prop_assert_eq!(&on_original.1, &on_fork.1, "fork must draw the same faults");
    }
}
