//! The paper's baseline test cases (§III-A, cases 1–5), stated once.
//!
//! The evaluation is one experiment per kernel: the plain application run
//! natively, under a checkpoint every unit (to HDD, NVM or NVM behind a
//! DRAM cache) and under one PMDK-style undo-log transaction per unit —
//! the mechanisms tuned to the same at-most-one-unit recomputation cost as
//! the algorithm-directed scheme, which is the fairness condition of
//! Figs. 4, 8 and 13. A kernel states what is its own — one unit of work,
//! the cells it publishes progress in, what a checkpoint or a transaction
//! must cover — as the hooks of [`Baseline`]; the five loops, the restore
//! and the EasyCrash-style [`dirty_restart`] are written here over them.
//!
//! The progress cell holds the count of *completed* units, so a restart
//! re-enters at the cell's value and the loop bound rejects `c > units`
//! ([`crate::iterative`]'s counter is the unit in flight instead).

use adcc_ckpt::manager::CkptManager;
use adcc_pmem::undo::{UndoPool, UndoPoolLayout};
use adcc_sim::crash::{CrashEmulator, CrashSite, CrashTrigger, RunOutcome};
use adcc_sim::image::NvmImage;
use adcc_sim::parray::PScalar;
use adcc_sim::system::{MemorySystem, SystemConfig};

use crate::traits::DirtyRestart;

/// `true` when this build carries the seeded `mutant-ckpt-stale-counter`
/// bug (see [`run_with_ckpt`]); the mutation suite reads it to know which
/// verdict to assert.
#[doc(hidden)]
pub const MUTANT_CKPT_STALE_COUNTER: bool = cfg!(feature = "mutant-ckpt-stale-counter");

/// A plain application the baseline mechanisms protect: unit `u` (an
/// iteration, a sweep, a block, a panel, a lookup) overwrites its state in
/// place, and [`progress`](Baseline::progress) counts the units completed.
pub trait Baseline {
    /// The loop-carried scalar (`rho` for CG, `()` elsewhere).
    type Carry: Copy;
    /// The answer after the last unit.
    type Answer;

    /// Units of the main loop.
    fn units(&self) -> usize;

    /// The site polled once unit `u` and its persistence step are over.
    fn end_site(&self, u: usize) -> CrashSite;

    /// Unit `u` of work, polling the sites inside it; `carry` must be the
    /// one entering `u`.
    fn unit(
        &self,
        emu: &mut CrashEmulator,
        u: usize,
        carry: Self::Carry,
    ) -> RunOutcome<Self::Carry>;

    /// The cell holding the count of completed units.
    fn progress(&self) -> PScalar<u64>;

    /// Publish the carry leaving a unit beside the progress cell (charged).
    fn store_carry(&self, sys: &mut MemorySystem, carry: Self::Carry);

    /// Read the published carry back (charged).
    fn load_carry(&self, sys: &mut MemorySystem) -> Self::Carry;

    /// What a checkpoint must cover to resume: the state a unit
    /// overwrites, the carry and the progress cell.
    fn regions(&self) -> Vec<(u64, usize)>;

    /// Rebuild the state entering unit 0 (charged) — the recovery bill
    /// when the crash beat the first checkpoint.
    fn reinit(&self, sys: &mut MemorySystem);

    /// Cache lines of data one unit snapshots into the undo log; callers
    /// size the pool as this plus their slack (see [`undo_pool`]).
    fn log_lines(&self) -> usize;

    /// What a transaction snapshots up front when it opens at unit `u`.
    /// Default: nothing — the unit logs as it goes.
    fn tx_open(&self, sys: &mut MemorySystem, pool: &mut UndoPool, u: usize) {
        let _ = (sys, pool, u);
    }

    /// Unit `u` inside an open transaction: snapshot whatever
    /// [`tx_open`](Baseline::tx_open) did not, then overwrite it. Sites
    /// inside the unit are polled through `poll`. Default: the plain unit.
    fn unit_logged<P: Poll>(
        &self,
        emu: &mut CrashEmulator,
        pool: &mut UndoPool,
        u: usize,
        carry: Self::Carry,
        poll: &mut P,
    ) -> RunOutcome<Self::Carry> {
        let _ = (pool, poll);
        self.unit(emu, u, carry)
    }

    /// Uncharged extraction of the answer after the last unit.
    fn peek(&self, sys: &MemorySystem) -> Self::Answer;
}

/// How a transactional run polls a site: the pool rides along so a caller
/// can sample its log counters at the instant of the poll.
pub trait Poll: FnMut(&mut CrashEmulator, &UndoPool, CrashSite) -> bool {}
impl<F: FnMut(&mut CrashEmulator, &UndoPool, CrashSite) -> bool> Poll for F {}

/// The [`Poll`] of a run nobody watches the log of.
pub fn poll(emu: &mut CrashEmulator, _: &UndoPool, site: CrashSite) -> bool {
    emu.poll(site)
}

/// Unwrap a completed step or hand the crash image up.
macro_rules! completed {
    ($outcome:expr) => {
        match $outcome {
            RunOutcome::Completed(v) => v,
            RunOutcome::Crashed(image) => return RunOutcome::Crashed(image),
        }
    };
}

/// Case 1: no persistence mechanism at all.
pub fn run_native<K: Baseline>(
    emu: &mut CrashEmulator,
    k: &K,
    carry0: K::Carry,
) -> RunOutcome<K::Carry> {
    let mut carry = carry0;
    for u in 0..k.units() {
        carry = completed!(k.unit(emu, u, carry));
        if emu.poll(k.end_site(u)) {
            return RunOutcome::Crashed(emu.crash_now());
        }
    }
    RunOutcome::Completed(carry)
}

/// Cases 2–4: publish progress and checkpoint every `period` units (1
/// everywhere but MC — "checkpoint at the end of each iteration results in
/// the same recomputation cost as our algorithm-based approach").
///
/// With the `mutant-ckpt-stale-counter` feature the checkpoint is taken
/// *before* progress is published, so a restore re-executes a completed
/// unit on that unit's own output — seeded for the mutation suite.
pub fn run_with_ckpt<K: Baseline>(
    emu: &mut CrashEmulator,
    k: &K,
    carry0: K::Carry,
    mgr: &mut CkptManager,
    period: usize,
) -> RunOutcome<K::Carry> {
    let mut carry = carry0;
    for u in 0..k.units() {
        carry = completed!(k.unit(emu, u, carry));
        if (u + 1).is_multiple_of(period) {
            if MUTANT_CKPT_STALE_COUNTER {
                mgr.checkpoint(emu);
            }
            k.store_carry(emu, carry);
            k.progress().set(emu, (u + 1) as u64);
            if !MUTANT_CKPT_STALE_COUNTER {
                mgr.checkpoint(emu);
            }
        }
        if emu.poll(k.end_site(u)) {
            return RunOutcome::Crashed(emu.crash_now());
        }
    }
    RunOutcome::Completed(carry)
}

/// Restore the newest checkpoint, or rebuild the initial state when none
/// exists yet. Returns `(completed_units, carry, restored)` —
/// `restored == false` means the crash beat the first checkpoint.
pub fn ckpt_restore<K: Baseline>(
    emu: &mut CrashEmulator,
    k: &K,
    carry0: K::Carry,
    mgr: &CkptManager,
) -> (usize, K::Carry, bool) {
    match mgr.restore(emu) {
        Some(_) => {
            let carry = k.load_carry(emu);
            (k.progress().get(emu) as usize, carry, true)
        }
        None => {
            k.reinit(emu);
            (0, carry0, false)
        }
    }
}

/// Run units `[from, units)` on a rebooted machine (trigger `Never`).
pub fn resume<K: Baseline>(
    emu: &mut CrashEmulator,
    k: &K,
    from: usize,
    carry: K::Carry,
) -> K::Carry {
    (from..k.units()).fold(carry, |carry, u| {
        k.unit(emu, u, carry).completed().expect("trigger is Never")
    })
}

/// An undo pool with room for one transaction of `k` plus `slack` lines.
pub fn undo_pool<K: Baseline>(sys: &mut MemorySystem, k: &K, slack: usize) -> UndoPool {
    UndoPool::new(sys, k.log_lines() + slack)
}

/// Case 5: every `period` units are one undo-log transaction, committed
/// with the progress they publish ("each iteration of the main loop of CG
/// is a transaction"). Every site is polled through `poll`.
pub fn run_with_pmem<K: Baseline>(
    emu: &mut CrashEmulator,
    k: &K,
    carry0: K::Carry,
    pool: &mut UndoPool,
    period: usize,
    mut poll: impl Poll,
) -> RunOutcome<K::Carry> {
    let commit = |emu: &mut CrashEmulator, pool: &mut UndoPool, done: usize, carry: K::Carry| {
        k.store_carry(emu, carry);
        k.progress().set(emu, done as u64);
        pool.tx_commit(emu);
    };
    let units = k.units();
    let mut carry = carry0;
    for u in 0..units {
        if u.is_multiple_of(period) {
            pool.tx_begin(emu);
            k.tx_open(emu, pool, u);
        }
        carry = completed!(k.unit_logged(emu, pool, u, carry, &mut poll));
        if (u + 1).is_multiple_of(period) {
            commit(emu, pool, u + 1, carry);
        }
        if poll(emu, pool, k.end_site(u)) {
            return RunOutcome::Crashed(emu.crash_now());
        }
    }
    if !units.is_multiple_of(period) {
        commit(emu, pool, units, carry);
    }
    RunOutcome::Completed(carry)
}

/// The carry entering unit `done` of a machine whose progress cell reads
/// `done`: nothing was published before unit 0 completed.
fn carry_at<K: Baseline>(sys: &mut MemorySystem, k: &K, done: usize, carry0: K::Carry) -> K::Carry {
    if done == 0 {
        carry0
    } else {
        k.load_carry(sys)
    }
}

/// Roll an interrupted transaction back (charged) and read where the
/// committed state stands: `(completed_units, carry)`.
pub fn pmem_restore<K: Baseline>(
    sys: &mut MemorySystem,
    k: &K,
    carry0: K::Carry,
    layout: UndoPoolLayout,
) -> (usize, K::Carry) {
    UndoPool::recover(layout, sys);
    let done = k.progress().get(sys) as usize;
    (done, carry_at(sys, k, done, carry0))
}

/// One of cases 1–5 armed on a machine: what the case owns beside the
/// kernel.
pub enum Mechanism {
    Native,
    /// A checkpoint every `period` units.
    Ckpt {
        mgr: CkptManager,
        period: usize,
    },
    /// A transaction every `period` units.
    Pmem {
        pool: UndoPool,
        period: usize,
    },
}

impl Mechanism {
    /// The forward run under this mechanism.
    pub fn run<K: Baseline>(
        &mut self,
        emu: &mut CrashEmulator,
        k: &K,
        carry0: K::Carry,
    ) -> RunOutcome<K::Carry> {
        match self {
            Mechanism::Native => run_native(emu, k, carry0),
            Mechanism::Ckpt { mgr, period } => run_with_ckpt(emu, k, carry0, mgr, *period),
            Mechanism::Pmem { pool, period } => run_with_pmem(emu, k, carry0, pool, *period, poll),
        }
    }

    /// On a machine rebooted from a crash image of [`run`](Mechanism::run):
    /// recover through the mechanism. Returns `(completed_units, carry,
    /// restored)`; a native run has nothing to restore and starts over.
    pub fn restore<K: Baseline>(
        &self,
        emu: &mut CrashEmulator,
        k: &K,
        carry0: K::Carry,
    ) -> (usize, K::Carry, bool) {
        match self {
            Mechanism::Native => {
                k.reinit(emu);
                (0, carry0, false)
            }
            Mechanism::Ckpt { mgr, .. } => ckpt_restore(emu, k, carry0, mgr),
            Mechanism::Pmem { pool, .. } => {
                let (done, carry) = pmem_restore(emu, k, carry0, pool.layout());
                (done, carry, true)
            }
        }
    }
}

/// EasyCrash-style dirty restart: reboot from the raw image and re-enter
/// the loop from the surviving progress cell and carry — no checkpoint
/// restore, no undo-log replay. With the state overwritten in place,
/// whatever mix of units survived in NVM is what the restart computes on.
pub fn dirty_restart<K: Baseline>(
    k: &K,
    image: &NvmImage,
    cfg: SystemConfig,
    carry0: K::Carry,
) -> DirtyRestart
where
    K::Answer: Into<Vec<f64>>,
{
    let mut sys = MemorySystem::dirty_reboot(cfg, image);
    let t0 = sys.now();
    let c = k.progress().get(&mut sys) as usize;
    if c > k.units() {
        // The loop bound itself rejects a counter past the end.
        return DirtyRestart::rejected((sys.now() - t0).ps());
    }
    let carry = carry_at(&mut sys, k, c, carry0);
    let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
    resume(&mut emu, k, c, carry);
    DirtyRestart {
        solution: Some(k.peek(&emu).into()),
        extra_units: (k.units() - c) as u64,
        sim_time_ps: (emu.now() - t0).ps(),
    }
}

/// The rig the per-kernel `variants` tests and this module's own run a
/// baseline case on.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cg::{sites, PlainCg};
    use crate::jacobi::PlainJacobi;
    use adcc_linalg::spd::CgClass;

    /// What one case came to.
    pub(crate) struct Ran<A> {
        pub answer: A,
        /// Simulated time of the forward run's main loop.
        pub loop_ps: u64,
        /// The unit the recovered run resumed at (`None`: no crash).
        pub resumed_from: Option<usize>,
    }

    /// The first poll of `(phase, index)`.
    pub(crate) fn at(phase: u32, index: u64) -> CrashTrigger {
        CrashTrigger::AtSite {
            site: CrashSite::new(phase, index),
            occurrence: 1,
        }
    }

    /// An NVM checkpoint every `period` units.
    pub(crate) fn ckpt<K: Baseline>(period: usize) -> impl Fn(&mut MemorySystem, &K) -> Mechanism {
        move |sys, k| Mechanism::Ckpt {
            mgr: CkptManager::new_nvm(sys, k.regions(), false),
            period,
        }
    }

    /// A transaction every `period` units, `slack` spare lines in the pool.
    pub(crate) fn pmem<K: Baseline>(
        period: usize,
        slack: usize,
    ) -> impl Fn(&mut MemorySystem, &K) -> Mechanism {
        move |sys, k| Mechanism::Pmem {
            pool: undo_pool(sys, k, slack),
            period,
        }
    }

    pub(crate) fn native<K: Baseline>(_: &mut MemorySystem, _: &K) -> Mechanism {
        Mechanism::Native
    }

    /// Run the kernel `setup` builds under the mechanism `arm` builds with
    /// `trigger` armed; a crashed run is recovered through the mechanism
    /// on a rebooted machine and resumed.
    pub(crate) fn run_case<K: Baseline>(
        cfg: &SystemConfig,
        setup: impl FnOnce(&mut MemorySystem) -> (K, K::Carry),
        arm: impl FnOnce(&mut MemorySystem, &K) -> Mechanism,
        trigger: CrashTrigger,
    ) -> Ran<K::Answer> {
        let mut sys = MemorySystem::new(cfg.clone());
        let (k, carry0) = setup(&mut sys);
        let mut mechanism = arm(&mut sys, &k);
        let t0 = sys.now();
        let mut emu = CrashEmulator::from_system(sys, trigger);
        let outcome = mechanism.run(&mut emu, &k, carry0);
        let loop_ps = (emu.now() - t0).ps();
        let mut resumed_from = None;
        if let RunOutcome::Crashed(image) = outcome {
            let sys = MemorySystem::from_image(cfg.clone(), &image);
            emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
            let (start, carry, _) = mechanism.restore(&mut emu, &k, carry0);
            resume(&mut emu, &k, start, carry);
            resumed_from = Some(start);
        }
        Ran {
            answer: k.peek(&emu),
            loop_ps,
            resumed_from,
        }
    }

    fn cfg() -> SystemConfig {
        SystemConfig::nvm_only(32 << 10, 64 << 20)
    }

    #[test]
    fn a_counter_past_the_end_is_rejected_before_the_carry_is_read() {
        let class = CgClass::TEST;
        let a = class.matrix(5);
        let b = class.rhs(&a);
        let mut sys = MemorySystem::new(cfg());
        let (cg, rho0) = PlainCg::setup(&mut sys, &a, &b, 6);
        cg.iter_cell.set(&mut sys, 7);
        cg.iter_cell.persist(&mut sys);
        let image = sys.crash();

        let mut counter_read = MemorySystem::dirty_reboot(cfg(), &image);
        let t0 = counter_read.now();
        cg.iter_cell.get(&mut counter_read);
        let one_read = (counter_read.now() - t0).ps();

        let d = dirty_restart(&cg, &image, cfg(), rho0);
        assert_eq!(d, DirtyRestart::rejected(one_read));
    }

    #[test]
    fn a_period_that_does_not_divide_the_run_commits_its_tail() {
        let class = CgClass::TEST;
        let a = class.matrix(28);
        let b = class.rhs(&a);
        let setup = |sys: &mut MemorySystem| (PlainJacobi::setup(sys, &a, &b, 10), ());
        let want = run_case(&cfg(), setup, native, CrashTrigger::Never).answer;

        // Unit 9 is an open transaction of its own when the loop ends.
        let mut sys = MemorySystem::new(cfg());
        let (jac, ()) = setup(&mut sys);
        let mut pool = undo_pool(&mut sys, &jac, 8);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        run_with_pmem(&mut emu, &jac, (), &mut pool, 3, poll)
            .completed()
            .unwrap();
        assert!(!pool.in_tx());
        assert_eq!(jac.iter_cell.get(&mut emu), 10);
        assert_eq!(jac.peek(&emu), want);
    }

    #[test]
    fn a_sparser_checkpoint_restores_to_a_multiple_of_its_period() {
        let class = CgClass::TEST;
        let a = class.matrix(29);
        let b = class.rhs(&a);
        let setup = |sys: &mut MemorySystem| PlainCg::setup(sys, &a, &b, 10);
        let want = run_case(&cfg(), setup, native, CrashTrigger::Never).answer;
        let ran = run_case(&cfg(), setup, ckpt(4), at(sites::PH_ITER_END, 6));
        assert_eq!(ran.resumed_from, Some(4), "checkpoints at 4 and 8 only");
        assert_eq!(ran.answer, want, "same arithmetic, replayed");
    }

    #[test]
    fn a_crash_before_the_first_checkpoint_restarts_from_the_rebuilt_input() {
        let class = CgClass::TEST;
        let a = class.matrix(30);
        let b = class.rhs(&a);
        let setup = |sys: &mut MemorySystem| PlainCg::setup(sys, &a, &b, 6);
        let want = run_case(&cfg(), setup, native, CrashTrigger::Never).answer;
        let ran = run_case(&cfg(), setup, ckpt(1), at(sites::PH_LINE10, 0));
        assert_eq!((ran.resumed_from, &ran.answer), (Some(0), &want));
        // A native run has nothing but the input to restart from.
        let ran = run_case(&cfg(), setup, native, at(sites::PH_ITER_END, 3));
        assert_eq!((ran.resumed_from, &ran.answer), (Some(0), &want));
    }
}
