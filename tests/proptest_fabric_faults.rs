//! Fabric fault-injection properties: the adversarial physical layer of
//! [`adcc::dist::net::Fabric`] must stay deterministic, payload-safe, and
//! deadlock-free under every seeded fault plan, and its in-flight arena
//! must deliver exactly what per-pair FIFO queues would.
//!
//! Four layers:
//!
//! 1. The fault sequence is a pure function of the plan: two fabrics built
//!    from the same config produce identical delivery traces — same
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
//! 4. The arena is per-pair FIFO queues: random interleavings of sends and
//!    receives over many pairs at once, with a `clone()` taken mid-flight,
//!    give the same deliveries, both-end charges and fault counters as a
//!    model holding one `VecDeque` per pair and drawing every fault with
//!    the byte-at-a-time FNV-1a.

use std::collections::VecDeque;

use proptest::prelude::*;

use adcc::dist::cluster::{Cluster, ClusterConfig};
use adcc::dist::net::{Fabric, FaultPlan, FaultProfile, NetTiming};
use adcc::sim::system::{MemorySystem, SystemConfig};

fn cfg() -> SystemConfig {
    SystemConfig::nvm_only(4 << 10, 1 << 16)
}

const RANKS: usize = 3;

/// Jitter seed of every fabric here.
const SEED: u64 = 7;

fn systems(ranks: usize) -> Vec<MemorySystem> {
    (0..ranks).map(|_| MemorySystem::new(cfg())).collect()
}

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
/// where `dst = (src + hop) % RANKS` can never self-send, each message
/// carrying 1–6 values.
fn pattern_strategy() -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    proptest::collection::vec((0..RANKS, 1..RANKS, 1usize..=6), 1..40)
}

/// Message `i`'s payload: `len` values no other message carries.
fn payload(i: usize, len: usize) -> Vec<f64> {
    (0..len).map(|k| (8 * i + k) as f64 + 0.5).collect()
}

fn send(fabric: &mut Fabric, sys: &mut MemorySystem, src: usize, dst: usize, vals: &[f64]) {
    fabric.send_with(sys, src, dst, |_, out| out.extend_from_slice(vals));
}

fn recv(fabric: &mut Fabric, sys: &mut MemorySystem, src: usize, dst: usize) -> Vec<f64> {
    fabric.recv_with(sys, src, dst, |_, vals| vals.to_vec())
}

/// One delivery record: sender clock after the send, receiver clock after
/// the delivery, and the delivered values.
type Trace = Vec<(u64, u64, Vec<f64>)>;

/// Each rank's fault counters `(dropped, duplicated, reordered, retries)`.
fn counters(systems: &[MemorySystem]) -> Vec<(u64, u64, u64, u64)> {
    systems
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
        .collect()
}

/// Drive `pattern` through `fabric`, charging fresh memory systems and
/// delivering each message immediately; the full trace plus the per-rank
/// fault counters.
fn run_on(
    fabric: &mut Fabric,
    pattern: &[(usize, usize, usize)],
) -> (Trace, Vec<(u64, u64, u64, u64)>) {
    let mut systems = systems(RANKS);
    let trace = pattern
        .iter()
        .enumerate()
        .map(|(i, &(src, hop, len))| {
            let dst = (src + hop) % RANKS;
            send(fabric, &mut systems[src], src, dst, &payload(i, len));
            let sent_ps = systems[src].now().ps();
            let got = recv(fabric, &mut systems[dst], src, dst);
            (sent_ps, systems[dst].now().ps(), got)
        })
        .collect();
    (trace, counters(&systems))
}

/// [`run_on`] a fresh fabric under `faults`.
fn run_pattern(
    faults: FaultPlan,
    pattern: &[(usize, usize, usize)],
) -> (Trace, Vec<(u64, u64, u64, u64)>) {
    run_on(
        &mut Fabric::with_faults(RANKS, NetTiming::cluster_2017(), SEED, faults),
        pattern,
    )
}

/// Byte-at-a-time FNV-1a over little-endian words, seeded by XOR into the
/// offset basis: the fabric's draws, computed the slow way.
fn fnv(seed: u64, words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for word in words {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The reference fabric: one `VecDeque` per `(src, dst)` pair, each send
/// and delivery charged from the byte-loop draws.
#[derive(Clone)]
struct QueueModel {
    ranks: usize,
    faults: FaultPlan,
    queues: Vec<VecDeque<(Vec<f64>, u64)>>,
    seq: u64,
}

impl QueueModel {
    fn new(ranks: usize, faults: FaultPlan) -> Self {
        QueueModel {
            ranks,
            faults,
            queues: vec![VecDeque::new(); ranks * ranks],
            seq: 0,
        }
    }

    fn send(&mut self, sys: &mut MemorySystem, src: usize, dst: usize, vals: Vec<f64>) {
        let t = NetTiming::cluster_2017();
        let bytes = 8 * vals.len() as u64;
        let transfer = t.transfer_cost_ps(bytes);
        let at = [src as u64, dst as u64, self.seq];
        sys.charge_net_send(bytes, transfer + fnv(SEED, &at) % (t.jitter_ps + 1));
        let f = self.faults;
        let draw = |salt: u64| (fnv(f.seed, &[at[0], at[1], at[2], salt]) % 1_000_000) as u32;
        let mut dropped = 0u64;
        while dropped < f.max_retries as u64 && draw(0x10 + dropped) < f.drop_ppm {
            dropped += 1;
        }
        let duplicated = u64::from(draw(0x01) < f.dup_ppm);
        let reordered = u64::from(draw(0x02) < f.reorder_ppm);
        if dropped + duplicated + reordered > 0 {
            let extra = dropped * (f.timeout_ps + transfer) + duplicated * transfer;
            sys.charge_net_faults(dropped, duplicated, reordered, dropped, extra);
        }
        self.queues[src * self.ranks + dst].push_back((vals, reordered * f.reorder_ps));
        self.seq += 1;
    }

    fn recv(&mut self, sys: &mut MemorySystem, src: usize, dst: usize) -> Vec<f64> {
        let (vals, reorder_ps) = self.queues[src * self.ranks + dst]
            .pop_front()
            .expect("the model only receives on a pair it holds messages for");
        sys.charge_net_wait(NetTiming::cluster_2017().latency_ps + reorder_ps);
        vals
    }

    /// Pairs holding messages, as `(src, dst)`, in pair order.
    fn busy(&self) -> Vec<(usize, usize)> {
        (0..self.queues.len())
            .filter(|&p| !self.queues[p].is_empty())
            .map(|p| (p / self.ranks, p % self.ranks))
            .collect()
    }
}

/// One side of the arena-vs-queues comparison: the fabric and the model,
/// each charging its own copy of the ranks' memory systems.
#[derive(Clone)]
struct Lockstep {
    fabric: Fabric,
    on_fabric: Vec<MemorySystem>,
    model: QueueModel,
    on_model: Vec<MemorySystem>,
}

/// Ranks of the arena-vs-queues property: twelve pairs, many in flight at
/// once.
const WIDE: usize = 4;

impl Lockstep {
    fn new(faults: FaultPlan) -> Self {
        Lockstep {
            fabric: Fabric::with_faults(WIDE, NetTiming::cluster_2017(), SEED, faults),
            on_fabric: systems(WIDE),
            model: QueueModel::new(WIDE, faults),
            on_model: systems(WIDE),
        }
    }

    /// Deliver the oldest message of `(src, dst)` on both sides.
    fn recv(&mut self, src: usize, dst: usize) -> Result<(), TestCaseError> {
        let got = recv(&mut self.fabric, &mut self.on_fabric[dst], src, dst);
        let want = self.model.recv(&mut self.on_model[dst], src, dst);
        prop_assert_eq!(got, want, "delivery on {}->{}", src, dst);
        Ok(())
    }

    /// Apply `ops` on both sides: a `kind` below 2 sends message `id` with
    /// `len` values from `src` to `src + hop`; kind 2 receives on the
    /// busy pair `pick` selects (a send when no pair is busy).
    fn run(
        &mut self,
        ops: &[(usize, usize, usize, usize)],
        first_id: usize,
    ) -> Result<(), TestCaseError> {
        for (i, &(kind, src, hop, len)) in ops.iter().enumerate() {
            let busy = self.model.busy();
            if kind == 2 && !busy.is_empty() {
                let (s, d) = busy[(src * WIDE + hop) % busy.len()];
                self.recv(s, d)?;
            } else {
                let dst = (src + hop) % WIDE;
                let vals = payload(first_id + i, len);
                send(&mut self.fabric, &mut self.on_fabric[src], src, dst, &vals);
                self.model.send(&mut self.on_model[src], src, dst, vals);
            }
            let in_flight: usize = self.model.queues.iter().map(VecDeque::len).sum();
            prop_assert_eq!(self.fabric.pending(), in_flight);
        }
        Ok(())
    }

    /// Drain every pair, then compare both sides' clocks and counters.
    fn finish(mut self) -> Result<Vec<(u64, u64)>, TestCaseError> {
        for (src, dst) in self.model.busy() {
            while !self.model.queues[src * WIDE + dst].is_empty() {
                self.recv(src, dst)?;
            }
        }
        prop_assert_eq!(self.fabric.pending(), 0);
        for (a, b) in self.on_fabric.iter().zip(&self.on_model) {
            prop_assert_eq!(a.now().ps(), b.now().ps());
            prop_assert_eq!(a.clock().bucket_totals(), b.clock().bucket_totals());
            prop_assert_eq!(*a.stats(), *b.stats());
        }
        Ok(self
            .on_fabric
            .iter()
            .map(|s| (s.now().ps(), s.stats().net_dropped))
            .collect())
    }
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
            prop_assert_eq!(faulty, clean, "faults must never touch payload values");
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
                faults: FaultProfile::Chaotic.plan(seed ^ 0xd15f),
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
        let mut original = Fabric::with_faults(RANKS, NetTiming::cluster_2017(), SEED, faults);
        let _ = run_on(&mut original, &prefix);
        let mut forked = original.clone();
        prop_assert_eq!(forked.traffic(), original.traffic());
        let on_original = run_on(&mut original, &suffix);
        let on_fork = run_on(&mut forked, &suffix);
        prop_assert_eq!(&on_original.0, &on_fork.0, "fork must replay the same trace");
        prop_assert_eq!(&on_original.1, &on_fork.1, "fork must draw the same faults");
    }

    #[test]
    fn the_arena_delivers_what_per_pair_queues_do(
        faults in plan_strategy(),
        ops in proptest::collection::vec((0usize..3, 0..WIDE, 1..WIDE, 1usize..=6), 1..80),
        cut in 0usize..80,
    ) {
        // Many pairs in flight at once; at `cut` both sides are cloned
        // mid-flight — fabric, model and the systems they charge — and
        // original and clone each run the rest and drain.
        let cut = cut.min(ops.len());
        let mut live = Lockstep::new(faults);
        live.run(&ops[..cut], 0)?;
        let fork = live.clone();
        let mut sides = Vec::new();
        for mut side in [live, fork] {
            side.run(&ops[cut..], cut)?;
            sides.push(side.finish()?);
        }
        prop_assert_eq!(&sides[0], &sides[1], "a mid-flight clone runs as its original");
    }
}
