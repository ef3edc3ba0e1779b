//! How a partition is made durable and brought back — the one statement
//! of both protocols the distributed kernels are compared under.
//!
//! * **[`Local`]** — the paper's algorithm-directed scheme lifted to
//!   partitions. Every commit writes the new iterate into the NVM slot of
//!   parity `iter % 2` (plus an optional per-parity scalar), flushes it,
//!   fences, then publishes `iter` in a persisted counter, flushes that,
//!   fences again: *payload → fence → counter → fence*. With a remote
//!   level configured the same regions are then shipped off-node.
//!   Recovery reads the counter (under [`Bucket::Detect`]) and loads the
//!   slot it names (under [`Bucket::Resume`]); a whole-node loss first
//!   rebuilds the NVM regions from the remote level. A dirty reboot reads
//!   the same counter under `Resume`, asserts nothing and skips the
//!   scalar — it loads whatever the raw counter names.
//! * **[`Restart`]** — coordinated checkpoint/restart: a [`MemCheckpoint`]
//!   of the volatile partition plus an iterate marker every
//!   `ckpt_period` supersteps; recovery rolls **every** rank back to the
//!   agreed marker and the cluster re-executes the lost supersteps,
//!   exchanges included. Dirty reboots consult nothing.
//!
//! A kernel owns arithmetic, exchange and its copy loops; it hands the
//! loops to the mechanism as closures ([`Mechanism::add_rank`],
//! [`Mechanism::commit`]) and the mechanism hooks of [`DistKernel`]
//! ([`DistKernel::mechanism`], [`DistKernel::load_slot`] and the rest).
//! [`recover`] and [`dirty_reboot`] are the provided bodies of
//! [`DistKernel::recover`] and [`DistKernel::dirty_reboot`].
//!
//! ## Invariants (each one is canonical bytes — simulated time, telemetry)
//!
//! 1. The mechanism never walks a cell list: gather/scatter order inside a
//!    copy loop is simulated cache state, so the loops stay in the kernels.
//! 2. The commit source is not the restore destination (`x_new` → slot at
//!    commit, slot → the halo-framed `x` at restore): two loops, not one.
//! 3. Allocation order fixes addresses: slots, then the scalar pair, then
//!    — after iterate 0's payload fence — the counter; under `Restart`
//!    the scalar cell before the iterate marker.
//! 4. `Restart` stores the scalar cell on every commit, not only on
//!    checkpoint supersteps, and reads it back inside the rollback's
//!    `Resume` window right after the marker.
//! 5. A dirty reboot's counter read is `Resume`, not `Detect`; constants
//!    of the program text ([`DistKernel::dirty_constants`]) are re-set
//!    after the load, each kernel choosing its own bucket.
//! 6. Remote regions are `[statics…, slot 0, slot 1, scalar pair,
//!    counter]`, in that order.
//! 7. A kernel is cloned per replay: a clone shares every table fixed at
//!    setup (handles, region lists) and copies only [`Local`]'s remote
//!    payloads, which `clone_from` copies into its target's buffers.

use std::sync::Arc;

use adcc_ckpt::mem::MemCheckpoint;
use adcc_ckpt::multilevel::{MultilevelCheckpoint, RemoteStore, RemoteTiming};
use adcc_sim::clock::Bucket;
use adcc_sim::hook;
use adcc_sim::parray::{PArray, PScalar};
use adcc_sim::system::MemorySystem;

use crate::cluster::Cluster;
use crate::sites;
use crate::trial::{run_superstep, CrashInfo, DistKernel, Recovery, RecoveryMode};

/// What one rank hands the mechanism at setup.
pub struct Partition<'a> {
    /// `f64` elements of one iterate slot ([`Local`]).
    pub slot_len: usize,
    /// The volatile regions a coordinated checkpoint captures
    /// ([`Restart`]); the mechanism appends its own scalar cell and marker.
    pub volatile: &'a [(u64, usize)],
    /// NVM regions written once at setup that the kernel re-reads every
    /// superstep, so a lost node must get them back ([`Local`]'s remote
    /// level ships them ahead of the slots).
    pub statics: &'a [(u64, usize)],
    /// A global scalar carried with the iterate (CG's `rho`), at iterate 0.
    pub scalar: Option<f64>,
}

/// One rank's [`Local`] handles.
#[derive(Clone, Copy)]
struct Cells {
    slots: [PArray<f64>; 2],
    scalar: Option<PArray<f64>>,
    counter: PScalar<u64>,
}

/// Double-buffered iterate slots plus a persisted superstep counter.
pub struct Local {
    remote: Option<RemoteTiming>,
    /// Per rank, fixed at setup, so clones share them.
    cells: Arc<Vec<Cells>>,
    /// Per rank, what the remote level snapshots (invariant 6).
    regions: Arc<Vec<Vec<(u64, usize)>>>,
    /// Host-side: they model storage *outside* the node, so they survive
    /// node loss by construction.
    stores: Vec<RemoteStore>,
}

impl Clone for Local {
    fn clone(&self) -> Self {
        Local {
            remote: self.remote,
            cells: Arc::clone(&self.cells),
            regions: Arc::clone(&self.regions),
            stores: self.stores.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.remote = src.remote;
        self.cells.clone_from(&src.cells);
        self.regions.clone_from(&src.regions);
        self.stores.clone_from(&src.stores);
    }
}

/// One rank's [`Restart`] handles.
#[derive(Clone)]
struct Coordinated {
    /// Only NVM addresses, so it serves a rebooted process as is.
    ckpt: MemCheckpoint,
    regions: Vec<(u64, usize)>,
    scalar: Option<PArray<f64>>,
    /// Volatile iterate marker, part of the checkpoint payload.
    marker: PArray<u64>,
}

/// Coordinated checkpoints of the volatile partition.
#[derive(Clone)]
pub struct Restart {
    period: u64,
    /// Per rank, fixed at setup, so clones share them.
    ranks: Arc<Vec<Coordinated>>,
}

/// The persistence mechanism of one kernel instance, one entry per rank
/// in rank order.
pub enum Mechanism {
    /// [`RecoveryMode::AlgorithmDirected`].
    Local(Local),
    /// [`RecoveryMode::GlobalRestart`].
    Restart(Restart),
}

/// Write superstep `iter`'s iterate into the slot of its parity (and the
/// scalar into its parity cell), flush, fence — the payload half of a
/// publish.
fn persist_payload(
    sys: &mut MemorySystem,
    cells: ([PArray<f64>; 2], Option<PArray<f64>>),
    iter: u64,
    scalar: Option<f64>,
    fill: impl FnOnce(&mut MemorySystem, PArray<f64>),
) {
    let (slots, pair) = cells;
    debug_assert_eq!(pair.is_some(), scalar.is_some());
    let parity = (iter % 2) as usize;
    let pair = pair.zip(scalar);
    fill(sys, slots[parity]);
    if let Some((pair, value)) = pair {
        pair.set(sys, parity, value);
    }
    slots[parity].persist_all(sys);
    if let Some((pair, _)) = pair {
        pair.persist_all(sys);
    }
    sys.sfence();
}

impl Local {
    fn publish(&mut self, sys: &mut MemorySystem, rank: usize, iter: u64) {
        let counter = self.cells[rank].counter;
        counter.set(sys, iter);
        counter.persist(sys);
        sys.sfence();
        // No-op without a remote level, so default runs pay nothing.
        if let Some(timing) = self.remote {
            MultilevelCheckpoint::ship_to_remote(
                sys,
                &self.regions[rank],
                &mut self.stores[rank],
                timing,
                iter,
            );
        }
    }

    /// The node took its NVM with it: reboot blank and rebuild the regions
    /// from the remote level before anything reads them. Returns the
    /// payload bytes pulled.
    fn restore_lost_node(&self, cl: &mut Cluster, rank: usize, frontier: u64) -> u64 {
        let timing = self
            .remote
            .expect("node-loss trials require a remote level");
        cl.reboot_rank_lost(rank);
        let seq = MultilevelCheckpoint::restore_from_remote(
            cl.system_mut(rank),
            &self.regions[rank],
            &self.stores[rank],
            timing,
        )
        .expect("the remote level is shipped at setup");
        debug_assert_eq!(seq, frontier, "the remote ships every commit");
        self.stores[rank].bytes() as u64
    }
}

impl Clone for Mechanism {
    fn clone(&self) -> Self {
        match self {
            Mechanism::Local(local) => Mechanism::Local(local.clone()),
            Mechanism::Restart(restart) => Mechanism::Restart(restart.clone()),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        match (self, src) {
            (Mechanism::Local(to), Mechanism::Local(from)) => to.clone_from(from),
            (to, from) => *to = from.clone(),
        }
    }
}

impl Restart {
    /// Restore every rank under [`Bucket::Resume`] (a rebooted rank's
    /// checkpoint handle is the one it held). Returns the globally agreed `(iterate,
    /// scalar)` — or `None` when any rank lacks a valid level, in which
    /// case the **whole cluster** must go back to a re-derivable iterate 0
    /// (a partial rollback would mix iterates). Panics if the restored
    /// values disagree: coordinated checkpoints are taken between the same
    /// poll boundaries on every rank, so disagreement is a protocol bug,
    /// never a recoverable state.
    fn restore_all(&self, cl: &mut Cluster) -> Option<(u64, Option<f64>)> {
        let mut restored = Vec::with_capacity(self.ranks.len());
        for (r, rank) in self.ranks.iter().enumerate() {
            let sys = cl.system_mut(r);
            let prev = sys.clock_mut().set_bucket(Bucket::Resume);
            let got = rank.ckpt.restore(sys, &rank.regions).map(|_seq| {
                let iter = rank.marker.get(sys, 0);
                (iter, rank.scalar.map(|cell| cell.get(sys, 0).to_bits()))
            });
            sys.clock_mut().set_bucket(prev);
            restored.push(got);
        }
        let all = restored.into_iter().collect::<Option<Vec<_>>>()?;
        assert!(
            all.iter().all(|&got| got == all[0]),
            "coordinated checkpoints disagree across ranks: {all:?}"
        );
        let (iter, scalar) = all[0];
        Some((iter, scalar.map(f64::from_bits)))
    }
}

impl Mechanism {
    /// An empty mechanism for `mode`; ranks join through
    /// [`Mechanism::add_rank`].
    pub fn new(mode: RecoveryMode, ckpt_period: u64, remote: Option<RemoteTiming>) -> Self {
        match mode {
            RecoveryMode::AlgorithmDirected => Mechanism::Local(Local {
                remote,
                cells: Arc::default(),
                regions: Arc::default(),
                stores: Vec::new(),
            }),
            RecoveryMode::GlobalRestart => Mechanism::Restart(Restart {
                period: ckpt_period,
                ranks: Arc::default(),
            }),
        }
    }

    /// Allocate the next rank's persistent state on its system and persist
    /// iterate 0: `fill` writes the initial iterate into the slot it is
    /// given ([`Local`]), or the setup checkpoint is taken ([`Restart`]).
    pub fn add_rank(
        &mut self,
        sys: &mut MemorySystem,
        part: Partition<'_>,
        fill: impl FnOnce(&mut MemorySystem, PArray<f64>),
    ) {
        match self {
            Mechanism::Local(local) => {
                let slots = [
                    PArray::<f64>::alloc_nvm(sys, part.slot_len),
                    PArray::<f64>::alloc_nvm(sys, part.slot_len),
                ];
                let scalar = part.scalar.map(|_| PArray::<f64>::alloc_nvm(sys, 2));
                persist_payload(sys, (slots, scalar), 0, part.scalar, fill);
                let counter = PScalar::<u64>::alloc_nvm(sys);
                let mut regions = part.statics.to_vec();
                regions.extend(slots.map(|s| (s.base(), s.byte_len())));
                regions.extend(scalar.map(|p| (p.base(), p.byte_len())));
                regions.push((counter.addr(), 8));
                Arc::make_mut(&mut local.regions).push(regions);
                local.stores.push(RemoteStore::new());
                Arc::make_mut(&mut local.cells).push(Cells {
                    slots,
                    scalar,
                    counter,
                });
                local.publish(sys, local.cells.len() - 1, 0);
            }
            Mechanism::Restart(restart) => {
                let scalar = part.scalar.map(|value| {
                    let cell = PArray::<f64>::alloc_dram(sys, 1);
                    cell.set(sys, 0, value);
                    cell
                });
                let marker = PArray::<u64>::alloc_dram(sys, 1);
                marker.set(sys, 0, 0);
                let mut regions = part.volatile.to_vec();
                regions.extend(scalar.map(|cell| (cell.base(), 8)));
                regions.push((marker.base(), 8));
                let bytes = regions.iter().map(|r| r.1).sum();
                let ckpt = MemCheckpoint::new(sys, bytes, false);
                ckpt.checkpoint(sys, &regions);
                Arc::make_mut(&mut restart.ranks).push(Coordinated {
                    ckpt,
                    regions,
                    scalar,
                    marker,
                });
            }
        }
    }

    /// Make superstep `iter`'s iterate durable on `rank`. [`Local`]:
    /// `fill` writes it into the parity slot it is given, then payload →
    /// fence → counter → fence → off-node shipment. [`Restart`]: the
    /// scalar cell is stored every commit; the marker and the coordinated
    /// checkpoint only on checkpoint supersteps.
    pub fn commit(
        &mut self,
        sys: &mut MemorySystem,
        rank: usize,
        iter: u64,
        scalar: Option<f64>,
        fill: impl FnOnce(&mut MemorySystem, PArray<f64>),
    ) {
        match self {
            Mechanism::Local(local) => {
                let Cells {
                    slots,
                    scalar: pair,
                    ..
                } = local.cells[rank];
                // A seeded bug publishes (and ships off-node) first.
                let first = hook::seeded();
                if first {
                    local.publish(sys, rank, iter);
                }
                persist_payload(sys, (slots, pair), iter, scalar, fill);
                if !first {
                    local.publish(sys, rank, iter);
                }
            }
            Mechanism::Restart(restart) => {
                let Coordinated {
                    ckpt,
                    regions,
                    scalar: cell,
                    marker,
                    ..
                } = &restart.ranks[rank];
                debug_assert_eq!(cell.is_some(), scalar.is_some());
                if let Some((cell, value)) = cell.zip(scalar) {
                    cell.set(sys, 0, value);
                }
                if iter.is_multiple_of(restart.period) {
                    marker.set(sys, 0, iter);
                    ckpt.checkpoint(sys, regions);
                }
            }
        }
    }
}

/// Read the persisted counter and load the slot it names under
/// [`Bucket::Resume`]. Recovery charges the counter read to
/// [`Bucket::Detect`] and installs the slot's scalar; a `dirty` reboot has
/// no detection pass — the read is `Resume` too — and keeps the
/// survivors' scalar. Returns the counter.
fn load_named_slot<K: DistKernel + ?Sized>(
    kernel: &mut K,
    sys: &mut MemorySystem,
    rank: usize,
    cells: Cells,
    dirty: bool,
) -> u64 {
    let counter_bucket = if dirty {
        Bucket::Resume
    } else {
        Bucket::Detect
    };
    let prev = sys.clock_mut().set_bucket(counter_bucket);
    let c = cells.counter.get(sys);
    sys.clock_mut().set_bucket(Bucket::Resume);
    let parity = (c % 2) as usize;
    kernel.load_slot(sys, rank, cells.slots[parity]);
    if let Some(pair) = cells.scalar.filter(|_| !dirty) {
        // Global state; the failed rank's persisted copy matches the
        // survivors' volatile one at the frontier.
        let value = pair.get(sys, parity);
        kernel.set_scalar(value);
    }
    sys.clock_mut().set_bucket(prev);
    c
}

/// The body of [`DistKernel::recover`]: reboot the rank (from the remote
/// level when its node is gone) and bring the cluster back to the
/// pre-crash frontier under the kernel's mechanism.
pub fn recover<K: DistKernel + ?Sized>(
    kernel: &mut K,
    cl: &mut Cluster,
    crash: CrashInfo,
) -> Recovery {
    let frontier = crash.frontier();
    let rank = crash.rank;
    let remote_restore_bytes = match kernel.mechanism() {
        Mechanism::Local(local) if crash.node_loss => local.restore_lost_node(cl, rank, frontier),
        _ => {
            assert!(
                !crash.node_loss,
                "node-loss trials run the algorithm-directed mechanism"
            );
            cl.reboot_rank(rank, &crash.image);
            0
        }
    };
    let cells = match kernel.mechanism() {
        Mechanism::Local(local) => local.cells[rank],
        Mechanism::Restart(_) => return restart_recover(kernel, cl, &crash),
    };
    let c = load_named_slot(kernel, cl.system_mut(rank), rank, cells, false);
    debug_assert_eq!(c, frontier, "extended counter trails the frontier");
    // A mid-superstep crash wiped the halos/segments exchanged at the
    // superstep's start: the survivors re-send them, and the superstep
    // re-runs without its opening exchange (their volatile copies are
    // still valid). An end-of-superstep crash resumes at the next
    // superstep with a full exchange. Nothing is lost either way — the
    // restored iterate *is* the frontier.
    let mid = crash.site.phase == sites::PH_MID;
    kernel.reconstruct(cl, rank, mid);
    cl.barrier();
    Recovery {
        detected: false,
        lost_units: 0,
        resume_iter: if mid { crash.iter } else { crash.iter + 1 },
        resume_exchange: !mid,
        remote_restore_bytes,
    }
}

/// The [`Restart`] arm: coordinated rollback, then cluster-wide
/// re-execution — full exchanges included, which is exactly the recovery
/// traffic this mode pays — back to the pre-crash frontier.
///
/// Re-execution polls the same sites the lost forward window did, so a
/// *second* armed failure can land mid-recovery. It is recovered
/// recursively — each armed trigger fires at most once, so the cascade
/// terminates — and its costs fold into the returned plan.
fn restart_recover<K: DistKernel + ?Sized>(
    kernel: &mut K,
    cl: &mut Cluster,
    crash: &CrashInfo,
) -> Recovery {
    let frontier = crash.frontier();
    let ranks = cl.ranks() as u64;
    let (detected, cc) = rollback(kernel, cl);
    debug_assert!(cc <= frontier);
    let mut rec = Recovery {
        detected,
        lost_units: (frontier - cc) * ranks,
        resume_iter: frontier + 1,
        resume_exchange: true,
        remote_restore_bytes: 0,
    };
    let mut k = cc + 1;
    let mut exchange = true;
    while k <= frontier {
        match run_superstep(kernel, cl, k, exchange) {
            None => {
                k += 1;
                exchange = true;
            }
            Some(again) => {
                let inner = kernel.recover(cl, again);
                rec.detected |= inner.detected;
                rec.lost_units += inner.lost_units;
                rec.remote_restore_bytes += inner.remote_restore_bytes;
                k = inner.resume_iter;
                exchange = inner.resume_exchange;
            }
        }
    }
    rec
}

fn restart_of<K: DistKernel + ?Sized>(kernel: &mut K) -> &mut Restart {
    match kernel.mechanism() {
        Mechanism::Restart(restart) => restart,
        Mechanism::Local(_) => unreachable!("rollback is the checkpoint/restart arm"),
    }
}

/// Coordinated rollback: `(detected, restored_iterate)`. Any rank without
/// a valid level drags the whole cluster back to iterate 0 and reports
/// the state as detected-dirty.
fn rollback<K: DistKernel + ?Sized>(kernel: &mut K, cl: &mut Cluster) -> (bool, u64) {
    let rolled = match restart_of(kernel).restore_all(cl) {
        Some((iter, scalar)) => {
            if let Some(value) = scalar {
                kernel.set_scalar(value);
            }
            (false, iter)
        }
        None => {
            for r in 0..cl.ranks() {
                let marker = restart_of(kernel).ranks[r].marker;
                let sys = cl.system_mut(r);
                let prev = sys.clock_mut().set_bucket(Bucket::Resume);
                kernel.reinit(sys, r);
                marker.set(sys, 0, 0);
                sys.clock_mut().set_bucket(prev);
                kernel.reconstruct(cl, r, false);
            }
            (true, 0)
        }
    };
    cl.barrier();
    rolled
}

/// The body of [`DistKernel::dirty_reboot`]: bring the rank back with no
/// mechanism. Under [`Local`], load whatever parity slot the raw counter
/// names — no detection pass, no frontier cross-check, no assist, and the
/// global scalar keeps the survivors' volatile copy. Under [`Restart`]
/// the checkpoint *is* the mechanism, so nothing is consulted and the
/// partition stays as the reboot left it (zeros).
pub fn dirty_reboot<K: DistKernel + ?Sized>(
    kernel: &mut K,
    cl: &mut Cluster,
    crash: &CrashInfo,
) -> u64 {
    let rank = crash.rank;
    if crash.node_loss {
        cl.reboot_rank_lost(rank);
    } else {
        cl.reboot_rank(rank, &crash.image);
    }
    if let Mechanism::Local(local) = kernel.mechanism() {
        let cells = local.cells[rank];
        load_named_slot(kernel, cl.system_mut(rank), rank, cells, true);
    }
    kernel.dirty_constants(cl, rank);
    cl.barrier();
    crash.frontier() + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::RankFailure;
    use crate::grid::GridCfg;
    use crate::stencil::{DistStencil, Rod, StencilConfig};
    use crate::trial::poll_phase;
    use adcc_sim::crash::{CrashSite, CrashTrigger};
    use adcc_sim::events::{EventKind, EventRecorder};
    use adcc_sim::hook::Op;
    use adcc_sim::line::line_of;
    use std::cell::Cell;

    fn two_rank_stencil(failures: &[RankFailure]) -> (Cluster, DistStencil) {
        let cfg = StencilConfig {
            ranks: 2,
            grid: GridCfg::chain(2),
            shape: Rod { cells: 64 },
            ..StencilConfig::campaign(RecoveryMode::AlgorithmDirected)
        };
        cfg.launch(failures, DistStencil::setup)
    }

    fn cells_of(kernel: &mut DistStencil, rank: usize) -> Cells {
        match kernel.mechanism() {
            Mechanism::Local(local) => local.cells[rank],
            Mechanism::Restart(_) => unreachable!("built algorithm-directed"),
        }
    }

    /// Delegates to the stencil, noting what the rebooted rank had done
    /// when the mechanism asked for the slot load.
    struct Watched {
        inner: DistStencil,
        /// `(charged accesses, NVM line reads, slot base)` at `load_slot`.
        at_load: Cell<Option<(u64, u64, u64)>>,
    }

    impl DistKernel for Watched {
        fn iters(&self) -> u64 {
            self.inner.iters()
        }
        fn compute(&mut self, cl: &mut Cluster, iter: u64, exchange: bool) {
            self.inner.compute(cl, iter, exchange)
        }
        fn commit(&mut self, cl: &mut Cluster, iter: u64) {
            self.inner.commit(cl, iter)
        }
        fn solution(&self, cl: &Cluster) -> Vec<f64> {
            self.inner.solution(cl)
        }
        fn resume_state(&self, cl: &Cluster) -> Vec<f64> {
            self.inner.resume_state(cl)
        }
        fn mechanism(&mut self) -> &mut Mechanism {
            self.inner.mechanism()
        }
        fn load_slot(&self, sys: &mut MemorySystem, rank: usize, slot: PArray<f64>) {
            let stats = sys.stats();
            self.at_load
                .set(Some((stats.accesses, stats.nvm_line_reads, slot.base())));
            self.inner.load_slot(sys, rank, slot)
        }
        fn reconstruct(&mut self, cl: &mut Cluster, rank: usize, assist: bool) {
            self.inner.reconstruct(cl, rank, assist)
        }
    }

    /// Rank 0's commit of superstep 1 under the recorder: whether its
    /// payload is flushed and fenced before the counter is stored, and
    /// whether the counter is then flushed before the second fence.
    fn commit_order() -> (bool, bool) {
        let (mut cl, mut kernel) = two_rank_stencil(&[]);
        let cells = cells_of(&mut kernel, 0);
        kernel.compute(&mut cl, 1, true);
        let slot = cells.slots[1];
        let mut rec = EventRecorder::new();
        rec.track_range(slot.base(), slot.byte_len());
        rec.track_range(cells.counter.addr(), 8);
        cl.system_mut(0).attach_recorder(rec);
        kernel.commit(&mut cl, 1);
        let events = cl
            .system_mut(0)
            .take_recorder()
            .expect("attached")
            .into_events();

        let counter_line = line_of(cells.counter.addr());
        let slot_lines = line_of(slot.base())..=line_of(slot.base() + slot.byte_len() as u64 - 1);
        let seq_of = |want: &dyn Fn(EventKind) -> bool| -> Vec<u64> {
            let hits = events.iter().filter(|e| want(e.kind));
            hits.map(|e| e.seq).collect()
        };
        let fences = seq_of(&|k| k == EventKind::Fence);
        let slot_flushes =
            seq_of(&|k| matches!(k, EventKind::Flush { line } if slot_lines.contains(&line)));
        let counter_stores = seq_of(&|k| k == EventKind::Store { line: counter_line });
        let counter_flushes = seq_of(&|k| k == EventKind::Flush { line: counter_line });
        assert_eq!(fences.len(), 2, "payload fence, counter fence: {events:?}");
        assert_eq!(slot_flushes.len(), slot_lines.count(), "every slot line");
        assert_eq!(counter_stores.len(), 1);
        assert_eq!(counter_flushes.len(), 1);
        (
            slot_flushes.iter().all(|&s| s < fences[0]) && fences[0] < counter_stores[0],
            counter_stores[0] < counter_flushes[0] && counter_flushes[0] < fences[1],
        )
    }

    /// The one publish order and the one read order of the algorithm-
    /// directed protocol: payload flushed before the first fence, counter
    /// stored after it and flushed before the second; recovery reads the
    /// counter before any slot line.
    #[test]
    fn a_commit_publishes_payload_then_counter_and_recovery_reads_them_in_that_order() {
        assert_eq!(commit_order(), (true, true));

        // Crash rank 0 at the end of superstep 3 and recover it.
        let site = CrashSite::new(sites::PH_END, 3);
        let trigger = CrashTrigger::AtSite {
            site,
            occurrence: 1,
        };
        let (mut cl, inner) = two_rank_stencil(&[RankFailure::crash(0, trigger)]);
        let mut kernel = Watched {
            inner,
            at_load: Cell::new(None),
        };
        let crash = (1..=3)
            .find_map(|iter| run_superstep(&mut kernel, &mut cl, iter, true))
            .expect("armed");
        assert_eq!((crash.rank, crash.site), (0, site));
        let cells = cells_of(&mut kernel.inner, 0);
        recover(&mut kernel, &mut cl, crash);
        // The rebooted rank's caches are cold and its counters zero: the
        // one access before the slot loop is the counter, from NVM, and the
        // slot loaded is the one its value names.
        assert_eq!(
            kernel.at_load.get(),
            Some((1, 1, cells.slots[3 % 2].base()))
        );
        assert!(poll_phase(&mut cl, sites::PH_END, 3).is_none(), "disarmed");
    }
    /// The seeded bug in [`Mechanism::commit`], which publishes the counter
    /// before it persists the payload, is killed by the publish order.
    #[test]
    fn a_commit_that_publishes_first_is_out_of_order() {
        let (_, sites) = hook::record(commit_order);
        let seeds: Vec<_> = sites.into_iter().filter(|s| s.op == Op::Seed).collect();
        assert_eq!(seeds.len(), 1, "{seeds:?}");
        assert!(!hook::mutating(seeds[0], commit_order).0);
    }
}
