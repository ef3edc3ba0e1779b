//! The message fabric: FIFO queues between ranks, a timing model,
//! deterministic (seeded) latency jitter, and a seeded adversarial
//! [`FaultPlan`].
//!
//! The fabric never touches payload semantics — it moves byte vectors and
//! charges simulated network time on the *sending* rank's clock (transfer)
//! and the *receiving* rank's clock (delivery latency), both into
//! [`adcc_sim::clock::Bucket::Network`]. Queues are FIFO per `(src, dst)` pair and all
//! cluster code issues sends/recvs in rank order, which is what makes
//! message matching — and therefore every distributed trial —
//! deterministic.
//!
//! Faults are modeled as an unreliable physical layer under a reliable
//! transport: every perturbation (loss, duplication, reordering) is drawn
//! as a pure FNV function of `(fault seed, src, dst, seq)`, masked by
//! bounded sender-side retransmission and receiver-side resequencing, and
//! charged into [`adcc_sim::clock::Bucket::Network`]. Payload content and
//! delivery order are never altered — only clocks and the fault counters —
//! so a faulted cluster computes the same solution on a perturbed
//! timeline, every trial stays replayable, and `Fabric::clone` preserves
//! the perturbation sequence exactly.

use std::collections::VecDeque;

use adcc_sim::system::MemorySystem;

/// Timing model of the inter-rank fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetTiming {
    /// Per-message latency charged on both ends, in picoseconds.
    pub latency_ps: u64,
    /// Fabric bandwidth in bytes per microsecond (= MB/s).
    pub bytes_per_us: u64,
    /// Upper bound (inclusive) of the seeded per-message latency jitter,
    /// in picoseconds. Zero disables jitter.
    pub jitter_ps: u64,
}

impl NetTiming {
    /// A cluster-2017-class interconnect: ~1.5 us MPI latency, ~10 GB/s
    /// effective per-rank bandwidth, 2 ns of seeded jitter.
    pub const fn cluster_2017() -> Self {
        NetTiming {
            latency_ps: 1_500_000,
            bytes_per_us: 10_000,
            jitter_ps: 2_000,
        }
    }

    /// Cost of one contiguous transfer of `bytes` (latency + serialization).
    #[inline]
    pub fn transfer_cost_ps(&self, bytes: u64) -> u64 {
        self.latency_ps + bytes * 1_000_000 / self.bytes_per_us
    }
}

/// Seeded adversarial perturbation of the fabric's physical layer.
///
/// Each rate is a per-message probability in parts-per-million; each draw
/// is an FNV-1a hash of `(seed, src, dst, seq, salt)`, so the full fault
/// sequence is a pure function of this plan plus the message order —
/// replayable across reruns, thread counts, and [`Fabric::clone`] forks.
/// The transport masks every fault: lost attempts are retransmitted (at
/// most `max_retries` per message, after `timeout_ps` each), duplicates
/// are suppressed at the receiver after one spurious transmit, and
/// reordered messages pay a resequencing delay at delivery. Costs land in
/// [`adcc_sim::clock::Bucket::Network`] and the `net_dropped` /
/// `net_duplicated` / `net_reordered` / `net_retries` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the fault draws (independent of the jitter seed).
    pub seed: u64,
    /// Probability that one transmit attempt is lost, in ppm.
    pub drop_ppm: u32,
    /// Probability that a delivered message is duplicated, in ppm.
    pub dup_ppm: u32,
    /// Probability that a delivered message arrives out of order, in ppm.
    pub reorder_ppm: u32,
    /// Retransmission bound per message (keeps barriers deadlock-free by
    /// construction: after this many losses the attempt goes through).
    pub max_retries: u32,
    /// Sender timeout before each retransmission, in picoseconds.
    pub timeout_ps: u64,
    /// Receiver resequencing delay per reordered message, in picoseconds.
    pub reorder_ps: u64,
}

impl FaultPlan {
    /// The reliable fabric: no perturbations, no extra cost.
    pub const fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_ppm: 0,
            dup_ppm: 0,
            reorder_ppm: 0,
            max_retries: 0,
            timeout_ps: 0,
            reorder_ps: 0,
        }
    }

    /// Whether any perturbation can fire.
    pub fn is_active(&self) -> bool {
        self.drop_ppm > 0 || self.dup_ppm > 0 || self.reorder_ppm > 0
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Salt XORed into a kernel's fabric jitter seed to derive its fault-plan
/// seed, so the two deterministic streams never share a seed even though
/// they are configured by one `net_seed` knob.
pub const FAULT_SEED_SALT: u64 = 0xfa17_0000_5a17_0bad;

/// Named fault-plan presets, the `campaign run --faults PROFILE` knob.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub enum FaultProfile {
    /// Reliable fabric (the default; byte-compatible with pre-fault runs).
    #[default]
    Off,
    /// A mildly congested cluster: a few percent loss, rare duplication
    /// and reordering.
    Lossy,
    /// An adversarial fabric: double-digit loss with frequent duplication
    /// and reordering, the regime resilience claims must survive.
    Chaotic,
}

impl FaultProfile {
    /// Every profile, in severity order.
    pub const ALL: [FaultProfile; 3] = [
        FaultProfile::Off,
        FaultProfile::Lossy,
        FaultProfile::Chaotic,
    ];

    /// Stable CLI/report spelling.
    pub fn name(&self) -> &'static str {
        match self {
            FaultProfile::Off => "off",
            FaultProfile::Lossy => "lossy",
            FaultProfile::Chaotic => "chaotic",
        }
    }

    /// Parse a CLI/report spelling.
    pub fn parse(text: &str) -> Result<FaultProfile, String> {
        match text {
            "off" => Ok(FaultProfile::Off),
            "lossy" => Ok(FaultProfile::Lossy),
            "chaotic" => Ok(FaultProfile::Chaotic),
            other => Err(format!(
                "unknown fault profile {other:?} (expected one of: off, lossy, chaotic)"
            )),
        }
    }

    /// The profile's concrete plan, seeded so the fault sequence is a pure
    /// function of the kernel config it derives from.
    pub fn plan(&self, seed: u64) -> FaultPlan {
        match self {
            FaultProfile::Off => FaultPlan::none(),
            FaultProfile::Lossy => FaultPlan {
                seed,
                drop_ppm: 40_000,
                dup_ppm: 15_000,
                reorder_ppm: 25_000,
                max_retries: 4,
                timeout_ps: 3_000_000,
                reorder_ps: 1_000_000,
            },
            FaultProfile::Chaotic => FaultPlan {
                seed,
                drop_ppm: 150_000,
                dup_ppm: 60_000,
                reorder_ppm: 120_000,
                max_retries: 6,
                timeout_ps: 3_000_000,
                reorder_ps: 2_000_000,
            },
        }
    }
}

/// One seeded fault draw: FNV-1a over `(seed, src, dst, seq, salt)`,
/// reduced to parts-per-million. Deliberately separate from the jitter
/// hash so enabling faults never re-rolls the jitter sequence.
fn fault_draw(seed: u64, src: usize, dst: usize, seq: u64, salt: u64) -> u32 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for word in [src as u64, dst as u64, seq, salt] {
        for b in word.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (h % 1_000_000) as u32
}

/// Cumulative fabric traffic. Trial drivers snapshot it around the
/// recovery window to price recovery traffic per recovery mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetTraffic {
    /// Messages sent.
    pub msgs: u64,
    /// Payload bytes sent.
    pub bytes: u64,
}

impl NetTraffic {
    /// Traffic accumulated since an earlier snapshot.
    pub fn since(&self, earlier: &NetTraffic) -> NetTraffic {
        NetTraffic {
            msgs: self.msgs - earlier.msgs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// One queued message: the payload plus the resequencing delay its
/// delivery owes to an injected reorder fault.
#[derive(Debug, Clone)]
struct Queued {
    payload: Vec<u8>,
    reorder_ps: u64,
}

/// The seedable FIFO message fabric between `ranks` peers.
///
/// Cloning copies the pending messages, traffic counters, and — critically
/// — the global message sequence number, so a cloned fabric draws the exact
/// same seeded jitter *and fault sequence* for its next message as the
/// original would have. An empty queue is created empty, not cloned: at a
/// superstep boundary nearly all `ranks²` of them are, so a fork costs the
/// messages in flight.
#[derive(Debug)]
pub struct Fabric {
    ranks: usize,
    timing: NetTiming,
    seed: u64,
    faults: FaultPlan,
    /// FIFO queue per `(src, dst)` pair, indexed `src * ranks + dst`.
    queues: Vec<VecDeque<Queued>>,
    /// Global message sequence number (jitter/fault decorrelation).
    seq: u64,
    traffic: NetTraffic,
}

impl Clone for Fabric {
    fn clone(&self) -> Self {
        let queues = self
            .queues
            .iter()
            .map(|q| {
                if q.is_empty() {
                    VecDeque::new()
                } else {
                    q.clone()
                }
            })
            .collect();
        Fabric { queues, ..*self }
    }
}

impl Fabric {
    /// A reliable fabric joining `ranks` peers under `timing`, with jitter
    /// drawn from `seed`.
    pub fn new(ranks: usize, timing: NetTiming, seed: u64) -> Self {
        Fabric::with_faults(ranks, timing, seed, FaultPlan::none())
    }

    /// A fabric whose physical layer misbehaves per `faults`.
    pub fn with_faults(ranks: usize, timing: NetTiming, seed: u64, faults: FaultPlan) -> Self {
        assert!(ranks >= 1, "a fabric needs at least one rank");
        Fabric {
            ranks,
            timing,
            seed,
            faults,
            queues: (0..ranks * ranks).map(|_| VecDeque::new()).collect(),
            seq: 0,
            traffic: NetTraffic::default(),
        }
    }

    /// The fabric's fault plan.
    pub fn faults(&self) -> FaultPlan {
        self.faults
    }

    /// Number of ranks on the fabric.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// The fabric's timing model.
    pub fn timing(&self) -> NetTiming {
        self.timing
    }

    /// Cumulative traffic since construction.
    pub fn traffic(&self) -> NetTraffic {
        self.traffic
    }

    /// Messages enqueued but not yet received.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Seeded per-message jitter: an FNV-1a hash of
    /// `(seed, src, dst, seq)` reduced to `[0, jitter_ps]`.
    fn jitter(&self, src: usize, dst: usize) -> u64 {
        if self.timing.jitter_ps == 0 {
            return 0;
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.seed;
        for word in [src as u64, dst as u64, self.seq] {
            for b in word.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h % (self.timing.jitter_ps + 1)
    }

    /// Send `payload` from `src` to `dst`: charge the transfer (plus
    /// seeded jitter) on the sender's clock, apply the fault plan, enqueue
    /// the bytes. The buffer is taken by value and queued as is — the
    /// sender encoded it for this message, so the fabric never copies it.
    /// Faults perturb only clocks and counters — the logical
    /// [`NetTraffic`] records exactly one message per send, so
    /// recovery-traffic comparisons are unaffected by the profile.
    pub fn send(&mut self, src_sys: &mut MemorySystem, src: usize, dst: usize, payload: Vec<u8>) {
        assert!(src < self.ranks && dst < self.ranks, "rank out of range");
        assert_ne!(src, dst, "self-sends are a cluster bug");
        let bytes = payload.len() as u64;
        let transfer = self.timing.transfer_cost_ps(bytes);
        src_sys.charge_net_send(bytes, transfer + self.jitter(src, dst));
        let mut reorder_ps = 0;
        if self.faults.is_active() {
            let f = self.faults;
            let draw = |salt: u64| fault_draw(f.seed, src, dst, self.seq, salt);
            // Lost attempts: each costs a timeout plus a retransmission,
            // bounded by `max_retries` (the attempt after the last retry
            // always succeeds, so a barrier can never deadlock).
            let mut dropped = 0u64;
            while dropped < f.max_retries as u64 && draw(0x10 + dropped) < f.drop_ppm {
                dropped += 1;
            }
            let duplicated = u64::from(draw(0x01) < f.dup_ppm);
            let reordered = u64::from(draw(0x02) < f.reorder_ppm);
            reorder_ps = reordered * f.reorder_ps;
            let extra = dropped * (f.timeout_ps + transfer) + duplicated * transfer;
            if dropped + duplicated + reordered > 0 {
                src_sys.charge_net_faults(dropped, duplicated, reordered, dropped, extra);
            }
        }
        self.queues[src * self.ranks + dst].push_back(Queued {
            payload,
            reorder_ps,
        });
        self.seq += 1;
        self.traffic.msgs += 1;
        self.traffic.bytes += bytes;
    }

    /// Receive the oldest pending message from `src` at `dst`: charge the
    /// delivery latency (plus any fault-injected resequencing delay) on
    /// the receiver's clock, dequeue the bytes.
    /// Panics if no message is pending — cluster code always sends before
    /// it receives within a phase, so an empty queue is a protocol bug.
    pub fn recv(&mut self, dst_sys: &mut MemorySystem, src: usize, dst: usize) -> Vec<u8> {
        assert!(src < self.ranks && dst < self.ranks, "rank out of range");
        let q = self.queues[src * self.ranks + dst]
            .pop_front()
            .expect("recv with no pending message (send/recv order broken)");
        dst_sys.charge_net_wait(self.timing.latency_ps + q.reorder_ps);
        q.payload
    }
}

/// Encode a slice of `f64`s as little-endian payload bytes.
pub fn encode_f64s(vals: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 8);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode a payload produced by [`encode_f64s`].
pub fn decode_f64s(bytes: &[u8]) -> Vec<f64> {
    assert!(bytes.len().is_multiple_of(8), "payload not a f64 vector");
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcc_sim::clock::Bucket;
    use adcc_sim::system::SystemConfig;

    fn sys() -> MemorySystem {
        MemorySystem::new(SystemConfig::nvm_only(4096, 1 << 16))
    }

    #[test]
    fn send_recv_roundtrips_payload_fifo() {
        let mut f = Fabric::new(2, NetTiming::cluster_2017(), 7);
        let mut a = sys();
        let mut b = sys();
        f.send(&mut a, 0, 1, encode_f64s(&[1.5, 2.5]));
        f.send(&mut a, 0, 1, encode_f64s(&[3.5]));
        assert_eq!(f.pending(), 2);
        assert_eq!(decode_f64s(&f.recv(&mut b, 0, 1)), vec![1.5, 2.5]);
        assert_eq!(decode_f64s(&f.recv(&mut b, 0, 1)), vec![3.5]);
        assert_eq!(f.pending(), 0);
        assert_eq!(f.traffic(), NetTraffic { msgs: 2, bytes: 24 });
    }

    #[test]
    fn charges_network_bucket_on_both_ends() {
        let t = NetTiming::cluster_2017();
        let mut f = Fabric::new(2, t, 0);
        let mut a = sys();
        let mut b = sys();
        f.send(&mut a, 0, 1, vec![0u8; 100]);
        let _ = f.recv(&mut b, 0, 1);
        let sent = a.clock().bucket_total(Bucket::Network).ps();
        assert!(sent >= t.transfer_cost_ps(100), "{sent}");
        assert_eq!(a.stats().net_msgs_sent, 1);
        assert_eq!(a.stats().net_bytes_sent, 100);
        assert_eq!(b.clock().bucket_total(Bucket::Network).ps(), t.latency_ps);
        assert_eq!(b.stats().net_msgs_sent, 0, "receives do not count as sends");
    }

    #[test]
    fn jitter_is_seeded_and_bounded() {
        let t = NetTiming {
            jitter_ps: 500,
            ..NetTiming::cluster_2017()
        };
        let run = |seed: u64| -> Vec<u64> {
            let mut f = Fabric::new(2, t, seed);
            (0..8)
                .map(|_| {
                    let mut a = sys();
                    f.send(&mut a, 0, 1, vec![0u8; 8]);
                    a.clock().bucket_total(Bucket::Network).ps()
                })
                .collect()
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed, same jitter sequence");
        assert_ne!(a, run(43), "different seed, different jitter");
        let base = t.transfer_cost_ps(8);
        assert!(a.iter().all(|&c| c >= base && c <= base + 500));
    }

    #[test]
    #[should_panic(expected = "no pending message")]
    fn recv_without_send_panics() {
        let mut f = Fabric::new(2, NetTiming::cluster_2017(), 0);
        let mut b = sys();
        let _ = f.recv(&mut b, 0, 1);
    }

    #[test]
    fn a_clone_with_messages_in_flight_delivers_what_the_original_does() {
        let plan = FaultProfile::Chaotic.plan(5);
        let mut f = Fabric::with_faults(4, NetTiming::cluster_2017(), 7, plan);
        let mut sender = sys();
        // Three of the sixteen queues hold messages; the rest stay empty.
        for (src, dst, n) in [(0, 1, 3), (2, 3, 1), (3, 0, 2)] {
            for i in 0..n {
                let v = (10 * src + dst + i) as f64;
                f.send(&mut sender, src, dst, encode_f64s(&[v, -v, v]));
            }
        }
        let fork = f.clone();
        assert_eq!((fork.pending(), fork.traffic()), (f.pending(), f.traffic()));
        // Each side sends on a queue in flight and an empty one, then
        // drains every queue: same bytes, same charges on both ends.
        let run = |mut f: Fabric| {
            let (mut a, mut b) = (sys(), sys());
            f.send(&mut a, 0, 1, encode_f64s(&[9.0]));
            f.send(&mut a, 1, 2, encode_f64s(&[8.0, 7.0]));
            let mut got = Vec::new();
            for (src, dst, n) in [(0, 1, 4), (1, 2, 1), (2, 3, 1), (3, 0, 2)] {
                for _ in 0..n {
                    got.push(f.recv(&mut b, src, dst));
                }
            }
            assert_eq!(f.pending(), 0);
            let charged = |s: &MemorySystem| (s.now().ps(), s.clock().bucket_totals(), *s.stats());
            (got, charged(&a), charged(&b), f.traffic())
        };
        assert_eq!(run(fork), run(f));
    }

    #[test]
    fn fault_profiles_parse_and_roundtrip() {
        for p in FaultProfile::ALL {
            assert_eq!(FaultProfile::parse(p.name()).unwrap(), p);
        }
        assert!(FaultProfile::parse("storms").is_err());
        assert!(!FaultProfile::Off.plan(7).is_active());
        assert!(FaultProfile::Lossy.plan(7).is_active());
        assert!(FaultProfile::Chaotic.plan(7).is_active());
    }

    #[test]
    fn faults_perturb_clocks_and_counters_but_never_payloads() {
        let plan = FaultProfile::Chaotic.plan(99);
        let mut f = Fabric::with_faults(2, NetTiming::cluster_2017(), 7, plan);
        let mut a = sys();
        let mut b = sys();
        let payloads: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64, -(i as f64)]).collect();
        for p in &payloads {
            f.send(&mut a, 0, 1, encode_f64s(p));
        }
        for p in &payloads {
            assert_eq!(decode_f64s(&f.recv(&mut b, 0, 1)), *p, "content intact");
        }
        let s = a.stats();
        assert!(s.net_dropped > 0, "chaotic plan drops over 64 messages");
        assert!(s.net_duplicated > 0);
        assert!(s.net_reordered > 0);
        assert_eq!(s.net_retries, s.net_dropped, "every loss is retransmitted");
        assert_eq!(s.net_msgs_sent, 64, "logical traffic is one msg per send");
        assert_eq!(f.traffic().msgs, 64);
        let reliable_recv = 64 * NetTiming::cluster_2017().latency_ps;
        assert!(
            b.clock().bucket_total(Bucket::Network).ps() > reliable_recv,
            "reordered deliveries pay resequencing latency"
        );
    }

    #[test]
    fn fault_sequence_is_a_pure_function_of_the_plan() {
        let run = |fault_seed: u64| {
            let plan = FaultProfile::Lossy.plan(fault_seed);
            let mut f = Fabric::with_faults(2, NetTiming::cluster_2017(), 7, plan);
            let mut a = sys();
            let mut b = sys();
            for i in 0..32 {
                f.send(&mut a, 0, 1, encode_f64s(&[i as f64]));
                let _ = f.recv(&mut b, 0, 1);
            }
            (
                a.clock().bucket_total(Bucket::Network).ps(),
                b.clock().bucket_total(Bucket::Network).ps(),
                a.stats().net_dropped,
                a.stats().net_duplicated,
                a.stats().net_reordered,
            )
        };
        assert_eq!(run(42), run(42), "same plan, same perturbation sequence");
        assert_ne!(run(42), run(43), "fault seed decorrelates the sequence");
    }

    #[test]
    fn enabling_faults_never_rerolls_the_jitter_sequence() {
        // The fault draws hash a salt the jitter hash does not, so a
        // faultless plan with faults *configured off* is byte-identical in
        // time to the pre-fault fabric.
        let run = |plan: FaultPlan| {
            let mut f = Fabric::with_faults(2, NetTiming::cluster_2017(), 7, plan);
            let mut a = sys();
            (0..8)
                .map(|_| {
                    f.send(&mut a, 0, 1, vec![0u8; 8]);
                    a.clock().bucket_total(Bucket::Network).ps()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(FaultPlan::none()), run(FaultProfile::Off.plan(9)));
    }
}
