//! The message fabric: FIFO delivery between ranks, a timing model,
//! deterministic (seeded) latency jitter, and a seeded adversarial
//! [`FaultPlan`].
//!
//! The fabric never touches payload semantics — it moves `f64` values and
//! charges simulated network time on the *sending* rank's clock (transfer)
//! and the *receiving* rank's clock (delivery latency), both into
//! [`adcc_sim::clock::Bucket::Network`]. Delivery is FIFO per `(src, dst)`
//! pair and all cluster code issues sends/recvs in rank order, which is
//! what makes message matching — and therefore every distributed trial —
//! deterministic. Messages in flight live in one arena per fabric, reset
//! whenever the fabric drains, so a warm fabric allocates nothing per
//! message.
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

/// FNV-1a's 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a's 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` for `k` in `0..=8`. XOR with a zero byte is the
/// identity, so hashing `k` zero bytes is one multiply by `FNV_PRIME^k`.
const PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// FNV-1a over the eight little-endian bytes of `word`, continuing from
/// `h`. The zero bytes above the word's highest nonzero byte fold into one
/// multiply, so a small word hashes in `1 + significant bytes` steps and
/// gives the byte loop's exact bits.
#[inline]
fn fnv_word(mut h: u64, mut word: u64) -> u64 {
    let mut zeros = 8;
    while word != 0 {
        h ^= word & 0xff;
        h = h.wrapping_mul(FNV_PRIME);
        word >>= 8;
        zeros -= 1;
    }
    h.wrapping_mul(PRIME_POW[zeros])
}

/// The FNV-1a state after `(seed, src, dst, seq)`: a message's jitter is
/// this state reduced, and each of its fault draws hashes one salt on top.
#[inline]
fn message_hash(seed: u64, src: usize, dst: usize, seq: u64) -> u64 {
    [src as u64, dst as u64, seq]
        .into_iter()
        .fold(FNV_OFFSET ^ seed, fnv_word)
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

/// End of a pair's message list.
const NIL: u32 = u32::MAX;

/// One message in flight: its values' span in the value arena, the
/// resequencing delay its delivery owes to an injected reorder fault, and
/// the next message of its `(src, dst)` pair.
#[derive(Debug, Clone, Copy)]
struct Msg {
    start: u32,
    len: u32,
    reorder_ps: u64,
    next: u32,
}

/// The seedable FIFO message fabric between `ranks` peers.
///
/// Messages in flight live in two arenas — headers and one `f64` value
/// vector — linked per `(src, dst)` pair from a `(head, tail)` table. The
/// first send after the fabric drains clears both arenas and keeps their
/// capacity, so a warm fabric allocates nothing per message.
///
/// Cloning copies the pair table, traffic counters, and — critically — the
/// global message sequence number, so a cloned fabric draws the exact same
/// seeded jitter *and fault sequence* for its next message as the original
/// would have. The arenas are copied only while messages are in flight; at
/// a superstep boundary the fabric is drained, so a fork copies the table
/// and gets empty arenas as large as the original's.
#[derive(Debug)]
pub struct Fabric {
    ranks: usize,
    timing: NetTiming,
    seed: u64,
    faults: FaultPlan,
    /// `(head, tail)` message index per `(src, dst)` pair, indexed
    /// `src * ranks + dst`; [`NIL`] when the pair has nothing in flight.
    pairs: Vec<(u32, u32)>,
    /// Message headers since the fabric last drained, in send order.
    msgs: Vec<Msg>,
    /// Their payload values, in send order.
    vals: Vec<f64>,
    /// Messages sent but not yet received.
    in_flight: usize,
    /// Global message sequence number (jitter/fault decorrelation).
    seq: u64,
    traffic: NetTraffic,
}

impl Clone for Fabric {
    fn clone(&self) -> Self {
        let (msgs, vals) = if self.in_flight == 0 {
            // Empty, but as warm as the original: a replay on the clone
            // sends what the original's supersteps sent.
            (
                Vec::with_capacity(self.msgs.capacity()),
                Vec::with_capacity(self.vals.capacity()),
            )
        } else {
            (self.msgs.clone(), self.vals.clone())
        };
        Fabric {
            pairs: self.pairs.clone(),
            msgs,
            vals,
            ..*self
        }
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
            pairs: vec![(NIL, NIL); ranks * ranks],
            msgs: Vec::new(),
            vals: Vec::new(),
            in_flight: 0,
            seq: 0,
            traffic: NetTraffic::default(),
        }
    }

    /// Cumulative traffic since construction.
    pub fn traffic(&self) -> NetTraffic {
        self.traffic
    }

    /// Messages sent but not yet received.
    pub fn pending(&self) -> usize {
        self.in_flight
    }

    /// Send one message from `src` to `dst`: `fill` appends the payload
    /// values — read on the sender's system — straight into the arena;
    /// then the transfer (plus seeded jitter) of 8 bytes per value is
    /// charged on the sender's clock and the fault plan applied. Faults
    /// perturb only clocks and counters — the logical [`NetTraffic`]
    /// records exactly one message per send, so recovery-traffic
    /// comparisons are unaffected by the profile.
    pub fn send_with(
        &mut self,
        src_sys: &mut MemorySystem,
        src: usize,
        dst: usize,
        fill: impl FnOnce(&mut MemorySystem, &mut Vec<f64>),
    ) {
        assert!(src < self.ranks && dst < self.ranks, "rank out of range");
        assert_ne!(src, dst, "self-sends are a cluster bug");
        if self.in_flight == 0 {
            self.msgs.clear();
            self.vals.clear();
        }
        let start = self.vals.len();
        fill(src_sys, &mut self.vals);
        let len = self
            .vals
            .len()
            .checked_sub(start)
            .expect("a send fill only appends");
        let bytes = 8 * len as u64;
        let transfer = self.timing.transfer_cost_ps(bytes);
        let jitter = if self.timing.jitter_ps == 0 {
            0
        } else {
            message_hash(self.seed, src, dst, self.seq) % (self.timing.jitter_ps + 1)
        };
        src_sys.charge_net_send(bytes, transfer + jitter);
        let mut reorder_ps = 0;
        if self.faults.is_active() {
            let f = self.faults;
            let h = message_hash(f.seed, src, dst, self.seq);
            let draw = |salt: u64| (fnv_word(h, salt) % 1_000_000) as u32;
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
        let id = u32::try_from(self.msgs.len()).expect("message arena index fits in u32");
        self.msgs.push(Msg {
            start: u32::try_from(start).expect("value arena index fits in u32"),
            len: u32::try_from(len).expect("message length fits in u32"),
            reorder_ps,
            next: NIL,
        });
        let pair = &mut self.pairs[src * self.ranks + dst];
        if pair.1 == NIL {
            pair.0 = id;
        } else {
            self.msgs[pair.1 as usize].next = id;
        }
        pair.1 = id;
        self.in_flight += 1;
        self.seq += 1;
        self.traffic.msgs += 1;
        self.traffic.bytes += bytes;
    }

    /// Receive the oldest pending message from `src` at `dst`: charge the
    /// delivery latency (plus any fault-injected resequencing delay) on
    /// the receiver's clock, then hand the receiver's system and the
    /// payload values — read in place, never copied — to `f`.
    /// Panics if no message is pending — cluster code always sends before
    /// it receives within a phase, so an empty pair is a protocol bug.
    pub fn recv_with<R>(
        &mut self,
        dst_sys: &mut MemorySystem,
        src: usize,
        dst: usize,
        f: impl FnOnce(&mut MemorySystem, &[f64]) -> R,
    ) -> R {
        assert!(src < self.ranks && dst < self.ranks, "rank out of range");
        let pair = &mut self.pairs[src * self.ranks + dst];
        assert!(
            pair.0 != NIL,
            "recv with no pending message (send/recv order broken)"
        );
        let msg = self.msgs[pair.0 as usize];
        pair.0 = msg.next;
        if msg.next == NIL {
            pair.1 = NIL;
        }
        self.in_flight -= 1;
        dst_sys.charge_net_wait(self.timing.latency_ps + msg.reorder_ps);
        let start = msg.start as usize;
        f(dst_sys, &self.vals[start..start + msg.len as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcc_sim::clock::Bucket;
    use adcc_sim::system::SystemConfig;
    use proptest::prelude::*;

    fn sys() -> MemorySystem {
        MemorySystem::new(SystemConfig::nvm_only(4096, 1 << 16))
    }

    fn send(f: &mut Fabric, sys: &mut MemorySystem, src: usize, dst: usize, vals: &[f64]) {
        f.send_with(sys, src, dst, |_, out| out.extend_from_slice(vals));
    }

    fn recv(f: &mut Fabric, sys: &mut MemorySystem, src: usize, dst: usize) -> Vec<f64> {
        f.recv_with(sys, src, dst, |_, vals| vals.to_vec())
    }

    /// The byte-at-a-time FNV-1a over little-endian words, seeded by XOR
    /// into the offset basis: the oracle the folded hash must equal.
    fn fnv_bytes(seed: u64, words: &[u64]) -> u64 {
        let mut h = FNV_OFFSET ^ seed;
        for word in words {
            for b in word.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
        h
    }

    /// What one send of `bytes` must charge by the oracle: the sender's
    /// network picoseconds, its `(dropped, duplicated, reordered)`
    /// counters, and the receiver's resequencing delay.
    fn oracle_send(
        timing: NetTiming,
        seed: u64,
        f: FaultPlan,
        [src, dst, seq]: [u64; 3],
        bytes: u64,
    ) -> (u64, (u64, u64, u64), u64) {
        let transfer = timing.transfer_cost_ps(bytes);
        let jitter = fnv_bytes(seed, &[src, dst, seq]) % (timing.jitter_ps + 1);
        let draw = |salt: u64| (fnv_bytes(f.seed, &[src, dst, seq, salt]) % 1_000_000) as u32;
        let mut dropped = 0u64;
        while dropped < f.max_retries as u64 && draw(0x10 + dropped) < f.drop_ppm {
            dropped += 1;
        }
        let duplicated = u64::from(draw(0x01) < f.dup_ppm);
        let reordered = u64::from(draw(0x02) < f.reorder_ppm);
        let extra = dropped * (f.timeout_ps + transfer) + duplicated * transfer;
        (
            transfer + jitter + extra,
            (dropped, duplicated, reordered),
            reordered * f.reorder_ps,
        )
    }

    #[test]
    fn the_folded_word_hash_is_the_byte_loop() {
        let words = [
            0,
            1,
            0xff,
            0x100,
            u64::MAX,
            1 << 63,
            0x0100_0000_0000_0001,
            0x00ff_0000_ff00_00ff,
            0x0000_0001_0000_0000,
            0x8000_0000_0000_00ff,
        ];
        for h in [FNV_OFFSET, 0, u64::MAX, FNV_OFFSET ^ 0xdead_beef] {
            for w in words {
                assert_eq!(
                    fnv_word(h, w),
                    fnv_bytes(h ^ FNV_OFFSET, &[w]),
                    "{h:#x} {w:#x}"
                );
            }
        }
        // Eight zero bytes hashed from state 1.
        assert_eq!(PRIME_POW[8], fnv_bytes(FNV_OFFSET ^ 1, &[0]));
        assert_eq!(message_hash(7, 3, 15, 0), fnv_bytes(7, &[3, 15, 0]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The folded hash equals the byte loop on random words (shifted
        /// down so every significant-byte count shows up, and with an
        /// interior byte cleared), and every jitter and fault draw equals
        /// the oracle's for random `(seed, src, dst, seq, salt)`.
        #[test]
        fn folded_draws_equal_the_byte_loop_oracle(
            h in any::<u64>(),
            word in any::<u64>(),
            shift in 0u32..64,
            seed in any::<u64>(),
            (src, dst) in (0usize..64, 0usize..64),
            seq in any::<u64>(),
            salt in 0u64..0x20,
        ) {
            for w in [word, word >> shift, word & !(0xff << (shift / 8 * 8))] {
                prop_assert_eq!(fnv_word(h, w), fnv_bytes(h ^ FNV_OFFSET, &[w]));
            }
            let words = [src as u64, dst as u64, seq];
            let prefix = message_hash(seed, src, dst, seq);
            prop_assert_eq!(prefix, fnv_bytes(seed, &words));
            prop_assert_eq!(
                fnv_word(prefix, salt),
                fnv_bytes(seed, &[words[0], words[1], seq, salt])
            );
        }

        /// Every charge a send makes — jitter, drops, duplicates, reorders,
        /// and the receiver's resequencing delay — is the oracle's.
        #[test]
        fn every_send_charges_what_the_byte_loop_oracle_draws(
            seed in any::<u64>(),
            fault_seed in any::<u64>(),
            sends in proptest::collection::vec((0usize..4, 1usize..4, 0usize..6), 1..24),
        ) {
            let timing = NetTiming::cluster_2017();
            let plan = FaultProfile::Chaotic.plan(fault_seed);
            let mut f = Fabric::with_faults(4, timing, seed, plan);
            for (seq, &(src, hop, len)) in sends.iter().enumerate() {
                let dst = (src + hop) % 4;
                let (mut a, mut b) = (sys(), sys());
                send(&mut f, &mut a, src, dst, &vec![1.0; len]);
                let _ = recv(&mut f, &mut b, src, dst);
                let at = [src as u64, dst as u64, seq as u64];
                let (sent_ps, faults, reorder_ps) = oracle_send(timing, seed, plan, at, 8 * len as u64);
                let s = a.stats();
                prop_assert_eq!(a.clock().bucket_total(Bucket::Network).ps(), sent_ps);
                prop_assert_eq!((s.net_dropped, s.net_duplicated, s.net_reordered), faults);
                prop_assert_eq!(
                    b.clock().bucket_total(Bucket::Network).ps(),
                    timing.latency_ps + reorder_ps
                );
            }
        }
    }

    #[test]
    fn send_recv_roundtrips_payload_fifo() {
        let mut f = Fabric::new(2, NetTiming::cluster_2017(), 7);
        let mut a = sys();
        let mut b = sys();
        send(&mut f, &mut a, 0, 1, &[1.5, 2.5]);
        send(&mut f, &mut a, 0, 1, &[3.5]);
        assert_eq!(f.pending(), 2);
        assert_eq!(recv(&mut f, &mut b, 0, 1), vec![1.5, 2.5]);
        assert_eq!(recv(&mut f, &mut b, 0, 1), vec![3.5]);
        assert_eq!(f.pending(), 0);
        assert_eq!(
            f.traffic(),
            NetTraffic {
                msgs: 2,
                bytes: 8 * 3
            }
        );
    }

    #[test]
    fn charges_network_bucket_on_both_ends() {
        let t = NetTiming::cluster_2017();
        let mut f = Fabric::new(2, t, 0);
        let mut a = sys();
        let mut b = sys();
        send(&mut f, &mut a, 0, 1, &[0.0; 12]);
        let _ = recv(&mut f, &mut b, 0, 1);
        let sent = a.clock().bucket_total(Bucket::Network).ps();
        assert!(sent >= t.transfer_cost_ps(8 * 12), "{sent}");
        assert_eq!(a.stats().net_msgs_sent, 1);
        assert_eq!(a.stats().net_bytes_sent, 8 * 12);
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
                    send(&mut f, &mut a, 0, 1, &[0.0]);
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
        let _ = recv(&mut f, &mut b, 0, 1);
    }

    #[test]
    fn a_clone_with_messages_in_flight_delivers_what_the_original_does() {
        let plan = FaultProfile::Chaotic.plan(5);
        let mut f = Fabric::with_faults(4, NetTiming::cluster_2017(), 7, plan);
        let mut sender = sys();
        // Three of the sixteen pairs hold messages; the rest stay empty.
        for (src, dst, n) in [(0, 1, 3), (2, 3, 1), (3, 0, 2)] {
            for i in 0..n {
                let v = (10 * src + dst + i) as f64;
                send(&mut f, &mut sender, src, dst, &[v, -v, v]);
            }
        }
        let fork = f.clone();
        assert_eq!((fork.pending(), fork.traffic()), (f.pending(), f.traffic()));
        // Each side sends on a pair in flight and an empty one, then
        // drains every pair: same values, same charges on both ends.
        let run = |mut f: Fabric| {
            let (mut a, mut b) = (sys(), sys());
            send(&mut f, &mut a, 0, 1, &[9.0]);
            send(&mut f, &mut a, 1, 2, &[8.0, 7.0]);
            let mut got = Vec::new();
            for (src, dst, n) in [(0, 1, 4), (1, 2, 1), (2, 3, 1), (3, 0, 2)] {
                for _ in 0..n {
                    got.push(recv(&mut f, &mut b, src, dst));
                }
            }
            assert_eq!(f.pending(), 0);
            let charged = |s: &MemorySystem| (s.now().ps(), s.clock().bucket_totals(), *s.stats());
            (got, charged(&a), charged(&b), f.traffic())
        };
        assert_eq!(run(fork), run(f));
    }

    #[test]
    fn a_drained_fabric_reuses_its_arenas() {
        let mut f = Fabric::new(3, NetTiming::cluster_2017(), 1);
        let (mut a, mut b) = (sys(), sys());
        send(&mut f, &mut a, 0, 1, &[1.0, 2.0, 3.0]);
        send(&mut f, &mut a, 2, 1, &[4.0]);
        assert_eq!(recv(&mut f, &mut b, 2, 1), vec![4.0]);
        // One message still in flight: the next send appends behind it.
        send(&mut f, &mut a, 0, 1, &[5.0]);
        assert_eq!((f.msgs.len(), f.vals.len()), (3, 5));
        assert_eq!(recv(&mut f, &mut b, 0, 1), vec![1.0, 2.0, 3.0]);
        assert_eq!(recv(&mut f, &mut b, 0, 1), vec![5.0]);
        assert_eq!(f.pending(), 0);
        let capacity = (f.msgs.capacity(), f.vals.capacity());
        let fork = f.clone();
        assert_eq!(
            (fork.msgs.len(), fork.vals.len()),
            (0, 0),
            "nothing in flight"
        );
        assert_eq!(
            (fork.msgs.capacity(), fork.vals.capacity()),
            capacity,
            "as warm"
        );
        send(&mut f, &mut a, 1, 0, &[6.0]);
        assert_eq!(
            (f.msgs.len(), f.vals.len()),
            (1, 1),
            "drained: arenas reset"
        );
        assert_eq!((f.msgs.capacity(), f.vals.capacity()), capacity);
        assert_eq!(recv(&mut f, &mut b, 1, 0), vec![6.0]);
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
            send(&mut f, &mut a, 0, 1, p);
        }
        for p in &payloads {
            assert_eq!(recv(&mut f, &mut b, 0, 1), *p, "content intact");
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
                send(&mut f, &mut a, 0, 1, &[i as f64]);
                let _ = recv(&mut f, &mut b, 0, 1);
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
                    send(&mut f, &mut a, 0, 1, &[0.0]);
                    a.clock().bucket_total(Bucket::Network).ps()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(FaultPlan::none()), run(FaultProfile::Off.plan(9)));
    }
}
