//! The cluster: N per-rank crash emulators joined by one [`Fabric`].
//!
//! ## Lifecycle
//!
//! 1. [`Cluster::new_multi`] builds one cold [`MemorySystem`] per rank
//!    (each with its own clock, caches, and NVM pool) and arms a failure
//!    set, at most one crash trigger per rank — rank-granular injection.
//! 2. Kernels drive the ranks in **rank order** through BSP supersteps,
//!    polling instrumented sites on every rank; a fired poll crashes that
//!    rank only ([`Cluster::crash_rank`] returns its NVM image, volatile
//!    state discarded).
//! 3. Recovery reboots the failed rank from the image
//!    ([`Cluster::reboot_rank`]) — same NVM bytes, cold caches, wiped
//!    DRAM-direct scratch — while the survivors keep their live systems.
//!
//! Collectives ([`Cluster::allreduce_sum`], [`Cluster::barrier`]) reduce
//! in rank order and synchronize the per-rank clocks to the cluster
//! frontier, charging the waits to [`Bucket::Network`].

use adcc_sim::clock::Bucket;
use adcc_sim::crash::{CrashEmulator, CrashSite, CrashTrigger, Harvest};
use adcc_sim::image::NvmImage;
use adcc_sim::system::{DeltaBase, MemorySystem, SystemConfig};

use crate::net::{Fabric, FaultPlan, NetTiming, NetTraffic};

/// Static configuration of a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of ranks.
    pub ranks: usize,
    /// Per-rank memory-system configuration (every rank is identical).
    pub sys: SystemConfig,
    /// Fabric timing model.
    pub net: NetTiming,
    /// Seed for the fabric's latency jitter.
    pub net_seed: u64,
    /// Adversarial perturbation of the fabric (see [`FaultPlan`];
    /// [`FaultPlan::none`] keeps the fabric reliable).
    pub faults: FaultPlan,
}

/// One armed failure: a rank, the trigger that fells it, and whether the
/// failure takes the node's NVM with it (node loss — the local image is
/// unrecoverable and recovery must restore from a remote store).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankFailure {
    /// The rank to fell.
    pub rank: usize,
    /// When to fell it.
    pub trigger: CrashTrigger,
    /// Whether the rank's NVM image is lost with the process.
    pub node_loss: bool,
}

impl RankFailure {
    /// A plain fail-stop process crash (NVM survives).
    pub fn crash(rank: usize, trigger: CrashTrigger) -> Self {
        RankFailure {
            rank,
            trigger,
            node_loss: false,
        }
    }

    /// A whole-node loss: the process *and* its NVM are gone.
    pub fn node_loss(rank: usize, trigger: CrashTrigger) -> Self {
        RankFailure {
            rank,
            trigger,
            node_loss: true,
        }
    }
}

/// A deterministic single-process cluster.
pub struct Cluster {
    cfg: ClusterConfig,
    emus: Vec<CrashEmulator>,
    fabric: Fabric,
    /// Per-rank node-loss arming: a `true` rank that crashes loses its
    /// NVM image too.
    node_loss: Vec<bool>,
}

impl Cluster {
    /// Build a cold cluster with a failure *set*: each entry arms its rank
    /// with a trigger (staggered sites make the failures cascade mid-trial
    /// rather than fire together); every other rank runs with
    /// [`CrashTrigger::Never`]. At most one failure per rank.
    pub fn new_multi(cfg: ClusterConfig, failures: &[RankFailure]) -> Self {
        assert!(cfg.ranks >= 2, "a cluster needs at least two ranks");
        let mut cl = Cluster {
            emus: (0..cfg.ranks)
                .map(|_| CrashEmulator::new(cfg.sys.clone(), CrashTrigger::Never))
                .collect(),
            fabric: Fabric::with_faults(cfg.ranks, cfg.net, cfg.net_seed, cfg.faults),
            node_loss: vec![false; cfg.ranks],
            cfg,
        };
        cl.arm(failures);
        cl
    }

    /// Arm a failure set on a cluster none of whose ranks is armed yet:
    /// each listed rank gets its trigger and node-loss flag. The one place
    /// a set is validated — at most one failure per rank, every rank in
    /// range — for cold clusters and forks alike.
    fn arm(&mut self, failures: &[RankFailure]) {
        for f in failures {
            assert!(
                f.rank < self.cfg.ranks,
                "crash rank {} out of range",
                f.rank
            );
            let emu = &mut self.emus[f.rank];
            assert!(
                matches!(emu.trigger(), CrashTrigger::Never),
                "rank {} armed twice",
                f.rank
            );
            emu.arm(f.trigger);
            self.node_loss[f.rank] = f.node_loss;
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.cfg.ranks
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// One rank's memory system.
    pub fn system(&self, rank: usize) -> &MemorySystem {
        self.emus[rank].system()
    }

    /// One rank's memory system (mutable).
    pub fn system_mut(&mut self, rank: usize) -> &mut MemorySystem {
        self.emus[rank].system_mut()
    }

    /// Poll an instrumented site on one rank; `true` means that rank must
    /// crash now (the kernel then calls [`Cluster::crash_rank`]).
    pub fn poll(&mut self, rank: usize, site: CrashSite) -> bool {
        self.emus[rank].poll(site)
    }

    /// Crash one rank: its volatile state is discarded and the surviving
    /// NVM image returned. Every other rank is untouched.
    pub fn crash_rank(&mut self, rank: usize) -> NvmImage {
        self.emus[rank].crash_now()
    }

    /// Whether a crash on `rank` takes its NVM image down too (armed via
    /// [`RankFailure::node_loss`]).
    pub fn node_loss(&self, rank: usize) -> bool {
        self.node_loss[rank]
    }

    /// The frontier a rebooted rank must re-join: the furthest *surviving*
    /// clock. The crashed rank's own frozen clock is excluded — after a
    /// rank that ran ahead during an earlier recovery crashes a second
    /// time, its stale timestamp must not drag the whole cluster forward
    /// (the double-reboot frontier drift the regression test pins).
    fn survivor_frontier_ps(&self, rank: usize) -> u64 {
        self.emus
            .iter()
            .enumerate()
            .filter(|(r, _)| *r != rank)
            .map(|(_, e)| e.system().now().ps())
            .max()
            .unwrap_or(0)
    }

    /// Reboot a crashed rank from its NVM image: a fresh process on the
    /// same node (cold caches, wiped DRAM scratch, NVM restored). The
    /// rank's clock is re-aligned to the survivors' frontier — the
    /// survivors cannot observe a rank restarting in the past — with the
    /// gap charged to [`Bucket::Detect`] as restart latency.
    pub fn reboot_rank(&mut self, rank: usize, image: &NvmImage) {
        let frontier = self.survivor_frontier_ps(rank);
        let sys = MemorySystem::from_image(self.cfg.sys.clone(), image);
        self.emus[rank] = CrashEmulator::from_system(sys, CrashTrigger::Never);
        let sys = self.emus[rank].system_mut();
        let behind = frontier.saturating_sub(sys.now().ps());
        sys.clock_mut().charge_to(Bucket::Detect, behind);
    }

    /// Reboot a rank whose NVM was lost with the node: a cold replacement
    /// process over *blank* NVM, clock aligned to the survivors' frontier
    /// (charged to [`Bucket::Detect`]). The caller must rebuild the rank's
    /// persistent state — e.g. via
    /// `adcc_ckpt::multilevel::restore_from_remote` — before resuming.
    pub fn reboot_rank_lost(&mut self, rank: usize) {
        let frontier = self.survivor_frontier_ps(rank);
        let sys = MemorySystem::new(self.cfg.sys.clone());
        self.emus[rank] = CrashEmulator::from_system(sys, CrashTrigger::Never);
        let sys = self.emus[rank].system_mut();
        sys.clock_mut().charge_to(Bucket::Detect, frontier);
    }

    /// Arm a harvest plan on one rank: its polls capture copy-on-write
    /// crash states instead of crashing (see
    /// [`CrashEmulator::arm_harvest`], whose delta base this returns).
    /// Capture is uncharged, so the forward execution is unperturbed.
    pub fn arm_harvest(
        &mut self,
        rank: usize,
        points: impl IntoIterator<Item = (CrashTrigger, u64)>,
    ) -> &DeltaBase {
        self.emus[rank].arm_harvest(points)
    }

    /// Take the crash states one rank's plan captured since the last
    /// drain, leaving the plan armed. Batch drivers drain at every poll
    /// boundary so each state is replayed while the cluster still holds
    /// the survivors' crash-instant volatile state.
    pub fn drain_harvests(&mut self, rank: usize) -> Vec<Harvest> {
        self.emus[rank].drain_harvests()
    }

    /// Fork the live cluster for a recovery replay: every rank's machine
    /// is cloned (clock, counters, volatile and persistent memory, and each
    /// cache's directory plus the payloads it has filled — see
    /// [`MemorySystem`]) into a fresh emulator with no trigger, and the
    /// fabric is cloned with its in-flight messages and jitter sequence. The
    /// fork observes exactly what the live cluster would if a rank died at
    /// this instant — survivors' volatile state included — and costs what
    /// the ranks hold, not what their caches could hold.
    pub fn fork(&self) -> Cluster {
        self.fork_armed(&[])
    }

    /// [`Cluster::fork`] with a failure set armed **on the fork**: each
    /// listed rank's cloned machine gets its trigger (and node-loss flag),
    /// so a replay of one harvested failure can be felled again while it
    /// recovers or resumes — the rest of a cascade. A fresh emulator has
    /// counted no polls: the caller discounts an `AtSite` occurrence by the
    /// polls of that site the live run already made on that rank. At most
    /// one failure per rank, as in [`Cluster::new_multi`].
    pub fn fork_armed(&self, pending: &[RankFailure]) -> Cluster {
        // A shell with no ranks: the one copy path fills it.
        let mut fork = Cluster {
            cfg: self.cfg.clone(),
            emus: Vec::with_capacity(self.emus.len()),
            fabric: self.fabric.clone(),
            node_loss: Vec::new(),
        };
        self.fork_armed_into(pending, &mut fork);
        fork
    }

    /// [`Cluster::fork_armed`] into an existing cluster: `into` ends up
    /// exactly as the fork would be, whatever it held or did before —
    /// rebooted ranks, fired or pending triggers, messages in flight — but
    /// its machines, caches and fabric are overwritten in place
    /// ([`Clone::clone_from`]; ranks it lacks are cloned), so a batch that
    /// replays every crash state on one spare cluster allocates only where
    /// a state holds more than the spare ever did.
    pub fn fork_armed_into(&self, pending: &[RankFailure], into: &mut Cluster) {
        // Exhaustive, so a new field cannot be left stale in the spare.
        let Cluster {
            cfg,
            emus,
            fabric,
            node_loss,
        } = self;
        into.cfg.clone_from(cfg);
        into.emus.truncate(emus.len());
        for (to, from) in into.emus.iter_mut().zip(emus) {
            to.reset_from(from.system());
        }
        let have = into.emus.len();
        into.emus.extend(
            emus[have..]
                .iter()
                .map(|e| CrashEmulator::from_system(e.system().clone(), CrashTrigger::Never)),
        );
        into.fabric.clone_from(fabric);
        into.node_loss.clone_from(node_loss);
        into.arm(pending);
    }

    /// Whether any rank still carries an armed trigger that has not fired.
    /// While one does, the rest of the run is *not* a function of the
    /// cluster's resume state alone — a crash is still to come — so a
    /// replay must not cut its tail short against a crash-free reference.
    /// A reboot disarms the rebooted rank.
    pub fn armed_pending(&self) -> bool {
        self.emus
            .iter()
            .any(|e| !e.fired() && !matches!(e.trigger(), CrashTrigger::Never))
    }

    /// Send one message from `src` to `dst`: `fill` appends the values it
    /// reads on the sender's system straight into the fabric, which then
    /// charges the transfer ([`Fabric::send_with`]).
    pub fn send_with(
        &mut self,
        src: usize,
        dst: usize,
        fill: impl FnOnce(&mut MemorySystem, &mut Vec<f64>),
    ) {
        self.fabric
            .send_with(self.emus[src].system_mut(), src, dst, fill);
    }

    /// Receive the oldest pending message from `src` at `dst`: `f` gets the
    /// receiver's system and the values in place ([`Fabric::recv_with`]).
    pub fn recv_with<R>(
        &mut self,
        src: usize,
        dst: usize,
        f: impl FnOnce(&mut MemorySystem, &[f64]) -> R,
    ) -> R {
        self.fabric
            .recv_with(self.emus[dst].system_mut(), src, dst, f)
    }

    /// Synchronize all rank clocks to the cluster frontier, charging each
    /// rank's wait to [`Bucket::Network`].
    pub fn barrier(&mut self) {
        let frontier = self.max_now_ps();
        for emu in &mut self.emus {
            let sys = emu.system_mut();
            let behind = frontier.saturating_sub(sys.now().ps());
            if behind > 0 {
                sys.charge_net_wait(behind);
            }
        }
    }

    /// All-reduce a per-rank contribution into one sum every rank holds:
    /// ranks 1..P send to rank 0, rank 0 sums **in rank order** and
    /// broadcasts, then a barrier synchronizes the clocks. Deterministic
    /// summation order makes the result bit-stable.
    pub fn allreduce_sum(&mut self, contributions: &[f64]) -> f64 {
        assert_eq!(contributions.len(), self.ranks(), "one value per rank");
        let mut sum = contributions[0];
        for r in 1..self.ranks() {
            self.send_with(r, 0, |_, out| out.push(contributions[r]));
        }
        for r in 1..self.ranks() {
            sum += self.recv_with(r, 0, |_, v| v[0]);
        }
        for r in 1..self.ranks() {
            self.send_with(0, r, |_, out| out.push(sum));
        }
        for r in 1..self.ranks() {
            let got = self.recv_with(0, r, |_, v| v[0]);
            debug_assert_eq!(got.to_bits(), sum.to_bits());
        }
        self.barrier();
        sum
    }

    /// Cumulative fabric traffic (snapshot around a recovery window to
    /// price recovery traffic).
    pub fn traffic(&self) -> NetTraffic {
        self.fabric.traffic()
    }

    /// The cluster frontier: the furthest rank clock, in picoseconds.
    pub fn max_now_ps(&self) -> u64 {
        self.emus
            .iter()
            .map(|e| e.system().now().ps())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcc_sim::parray::PArray;

    fn cfg() -> ClusterConfig {
        ClusterConfig {
            ranks: 4,
            sys: SystemConfig::nvm_only(4096, 1 << 16),
            net: NetTiming::cluster_2017(),
            net_seed: 42,
            faults: FaultPlan::none(),
        }
    }

    #[test]
    fn allreduce_sums_in_rank_order_and_syncs_clocks() {
        let mut cl = Cluster::new_multi(cfg(), &[]);
        let sum = cl.allreduce_sum(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(sum, 10.0);
        let frontier = cl.max_now_ps();
        for r in 0..cl.ranks() {
            assert_eq!(cl.system(r).now().ps(), frontier, "rank {r} not synced");
        }
        assert!(frontier > 0);
    }

    #[test]
    fn crash_hits_one_rank_only_and_reboot_restores_nvm() {
        let mut cl = Cluster::new_multi(cfg(), &[]);
        let arrays: Vec<PArray<u64>> = (0..4)
            .map(|r| {
                let a = PArray::<u64>::alloc_nvm(cl.system_mut(r), 8);
                a.store_slice(cl.system_mut(r), &[r as u64 + 1; 8]);
                a.persist_all(cl.system_mut(r));
                a
            })
            .collect();
        // Unpersisted volatile data on every rank.
        let scratch: Vec<PArray<u64>> = (0..4)
            .map(|r| {
                let s = PArray::<u64>::alloc_dram(cl.system_mut(r), 4);
                s.store_slice(cl.system_mut(r), &[99; 4]);
                s
            })
            .collect();
        let image = cl.crash_rank(2);
        assert_eq!(image.read_u64(arrays[2].addr(0)), 3, "persisted survives");
        cl.reboot_rank(2, &image);
        assert_eq!(arrays[2].peek(cl.system(2), 0), 3);
        assert_eq!(scratch[2].peek(cl.system(2), 0), 0, "DRAM scratch wiped");
        for r in [0usize, 1, 3] {
            assert_eq!(scratch[r].peek(cl.system(r), 0), 99, "rank {r} untouched");
        }
    }

    #[test]
    fn reboot_aligns_the_rank_clock_to_the_frontier() {
        let mut cl = Cluster::new_multi(cfg(), &[]);
        // Advance rank 0 far ahead.
        let a = PArray::<u64>::alloc_nvm(cl.system_mut(0), 64);
        a.fill(cl.system_mut(0), 5);
        let image = cl.crash_rank(1);
        cl.reboot_rank(1, &image);
        assert_eq!(cl.system(1).now().ps(), cl.system(0).now().ps());
        assert!(
            cl.system(1).clock().bucket_total(Bucket::Detect).ps() > 0,
            "restart latency charged to Detect"
        );
    }

    #[test]
    fn double_reboot_aligns_to_the_survivors_frontier_not_the_stale_clock() {
        let mut cl = Cluster::new_multi(cfg(), &[]);
        // First crash + reboot of rank 1.
        let image = cl.crash_rank(1);
        cl.reboot_rank(1, &image);
        // Recovery work pushes rank 1 far past every survivor.
        let a = PArray::<u64>::alloc_nvm(cl.system_mut(1), 64);
        a.fill(cl.system_mut(1), 7);
        let survivors = [0usize, 2, 3]
            .iter()
            .map(|&r| cl.system(r).now().ps())
            .max()
            .unwrap();
        assert!(cl.system(1).now().ps() > survivors, "rank 1 ran ahead");
        // A second crash lands mid-recovery: the reboot must align to the
        // survivors' frontier, not rank 1's own stale pre-crash timestamp
        // (which would drift the whole cluster forward through the next
        // barrier).
        let image = cl.crash_rank(1);
        cl.reboot_rank(1, &image);
        assert_eq!(cl.system(1).now().ps(), survivors);
    }

    #[test]
    fn lost_node_reboots_blank_at_the_survivors_frontier() {
        let mut cl = Cluster::new_multi(cfg(), &[]);
        let a = PArray::<u64>::alloc_nvm(cl.system_mut(1), 8);
        a.store_slice(cl.system_mut(1), &[7; 8]);
        a.persist_all(cl.system_mut(1));
        // Advance rank 0 past rank 1.
        let b = PArray::<u64>::alloc_nvm(cl.system_mut(0), 64);
        b.fill(cl.system_mut(0), 5);
        let _ = cl.crash_rank(1);
        cl.reboot_rank_lost(1);
        assert_eq!(a.peek(cl.system(1), 0), 0, "NVM went down with the node");
        assert_eq!(cl.system(1).now().ps(), cl.system(0).now().ps());
        assert!(cl.system(1).clock().bucket_total(Bucket::Detect).ps() > 0);
    }

    #[test]
    fn failure_sets_arm_each_listed_rank() {
        let early = CrashSite::new(crate::sites::PH_MID, 2);
        let late = CrashSite::new(crate::sites::PH_MID, 5);
        let mut cl = Cluster::new_multi(
            cfg(),
            &[
                RankFailure::crash(
                    1,
                    CrashTrigger::AtSite {
                        site: early,
                        occurrence: 1,
                    },
                ),
                RankFailure::node_loss(
                    3,
                    CrashTrigger::AtSite {
                        site: late,
                        occurrence: 1,
                    },
                ),
            ],
        );
        assert!(!cl.node_loss(1) && cl.node_loss(3));
        assert!(!cl.poll(0, early) && cl.poll(1, early));
        assert!(!cl.poll(1, late), "a fired trigger stays quiet");
        assert!(cl.poll(3, late));
    }

    #[test]
    fn an_armed_fork_carries_its_failure_set_and_a_plain_fork_none() {
        let site = CrashSite::new(crate::sites::PH_MID, 3);
        let trigger = CrashTrigger::AtSite {
            site,
            occurrence: 1,
        };
        let live = Cluster::new_multi(cfg(), &[]);
        assert!(!live.armed_pending() && !live.fork().armed_pending());
        let mut fork = live.fork_armed(&[RankFailure::node_loss(2, trigger)]);
        assert!(fork.armed_pending(), "rank 2 is still to fall");
        assert!(fork.node_loss(2) && !fork.node_loss(1));
        assert!(
            !live.node_loss(2),
            "arming a fork never touches the live run"
        );
        // A fresh emulator has counted no polls: occurrence 1 is the
        // fork's own first poll of the site, whatever the live run polled.
        assert!(!fork.poll(1, site));
        assert!(fork.poll(2, site));
        assert!(!fork.armed_pending(), "a fired trigger is spent");
    }

    #[test]
    #[should_panic(expected = "rank 2 armed twice")]
    fn an_armed_fork_refuses_two_failures_on_one_rank() {
        let trigger = |step| CrashTrigger::AtSite {
            site: CrashSite::new(crate::sites::PH_MID, step),
            occurrence: 1,
        };
        let _ = Cluster::new_multi(cfg(), &[]).fork_armed(&[
            RankFailure::crash(2, trigger(1)),
            RankFailure::node_loss(2, trigger(3)),
        ]);
    }

    #[test]
    fn rebooting_an_armed_rank_disarms_it() {
        let site = CrashSite::new(crate::sites::PH_END, 2);
        let trigger = CrashTrigger::AtSite {
            site,
            occurrence: 1,
        };
        let mut fork = Cluster::new_multi(cfg(), &[]).fork_armed(&[RankFailure::crash(1, trigger)]);
        assert!(fork.armed_pending());
        // The rank comes back as a fresh process, exactly as on the
        // per-trial path: no trigger survives a reboot.
        let image = fork.crash_rank(1);
        fork.reboot_rank(1, &image);
        assert!(!fork.armed_pending());
        assert!(!fork.poll(1, site), "the replacement process is unarmed");
    }

    #[test]
    fn armed_trigger_fires_on_the_armed_rank_only() {
        let site = CrashSite::new(crate::sites::PH_MID, 3);
        let trigger = CrashTrigger::AtSite {
            site,
            occurrence: 1,
        };
        let mut cl = Cluster::new_multi(cfg(), &[RankFailure::crash(1, trigger)]);
        assert!(!cl.poll(0, site));
        assert!(!cl.poll(2, site));
        assert!(cl.poll(1, site));
    }
}
