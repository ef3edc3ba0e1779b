//! The instrumented MC transport simulation: native / basic-idea /
//! selective-flush modes, and replay-based recovery.
//!
//! One lookup's arithmetic is written once, generically over the
//! crate-private `grids::LookupMem`, and instantiated twice: charged,
//! over the simulated machine (the forward run, the dirty restart and the
//! *timed* part of recovery), and uncharged, over a crash image's own grid
//! bytes (the tally that finishes [`McSim::recover_and_resume`]).
//!
//! Replay recovery has two parts. The **timed prefix** re-executes lookups
//! `[resumed_from, crashed_at)` on a machine booted from the image: at most
//! one flush interval, the paper's recovery cost, reported as `resume_time`.
//! The **tail** `[crashed_at, lookups)` is work the crashed run had not done
//! yet; nobody times it, and all it contributes to the answer is which
//! counter each lookup bumps. Counters are only ever `get + 1 -> set`, so
//! the final counts are *additive*: (counts after the prefix) + (the tail's
//! per-type tally). A double count the prefix replay introduced stays a
//! double count, the count-total audit fires exactly as if the tail had been
//! simulated, and no simulated access is spent on it.
//!
//! [`McMode::Epoch`] recovery has no untimed tail: each counter line is
//! replayed from its own epoch to the **end of the run**, all of it timed.
//! A dirty restart re-enters the forward loop and runs it to the end too.
//! What both have instead is company: the crash states of one forward
//! execution run the same lookups with the same sampled inputs, and the
//! small caches forget where a machine started within a few dozen lookups.
//! One private lockstep driver (`McSim::lockstep`) takes such states in
//! turn: the first running one is the **pilot**, and every later one steps
//! beside it until a join predicate holds at one lookup boundary; from
//! there its clock, tallies and accesses are its own at the join plus what
//! the pilot did after it. The two kinds of replay differ only in how they
//! boot, how they step and which predicate they join on:
//!
//! * **epoch recovery** ([`McSim::recover_chain`]) joins where the two
//!   machines have the [same future](MemorySystem::same_future) — two equal
//!   states of a deterministic simulator have one future, so the tallies
//!   are the pilot's;
//! * **dirty restart** ([`McSim::dirty_chain`]) joins where they have [one
//!   future modulo the tally cells](MemorySystem::same_future_modulo) — the
//!   loop never looks at a tally, it only adds one to it, so each tally
//!   keeps the difference it had at the join.

use std::borrow::Cow;
use std::ops::Range;

use adcc_sim::clock::{Bucket, SimTime};
use adcc_sim::crash::{CrashEmulator, CrashSite, CrashTrigger, RunOutcome};
use adcc_sim::image::NvmImage;
use adcc_sim::parray::{PArray, PScalar, Pod};
use adcc_sim::system::{MemorySystem, SystemConfig};

use super::grids::{interpolate, search, Charged, LookupMem, McProblem, SimMcGrids};
use super::rng::{sample, unit_f64};
use super::{sites, XS_CHANNELS};
use crate::traits::{DirtyRestart, RecoveryReport};

/// Persistence mode of the MC loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McMode {
    /// No flushing at all (runtime baseline).
    Native,
    /// The paper's first attempt: flush only the cache line holding the
    /// loop index, every iteration (Fig. 10's "basic idea").
    Basic,
    /// The paper's fix (Fig. 11): flush `macro_xs_vector`, the five
    /// counters and the loop index every `interval` lookups (0.01% of the
    /// total in the paper).
    Selective { interval: u64 },
    /// Ablation: flush the state every iteration (the configuration the
    /// paper reports costs 16%).
    EveryIteration,
    /// Extension beyond the paper: each counter line carries an *epoch*
    /// field (the index of the last lookup that updated the line),
    /// written in the same line as the counters so NVM always holds a
    /// per-line-consistent `(counters, epoch)` pair. Recovery replays
    /// each line independently from its own epoch — **exact** results
    /// even when lines are evicted at arbitrary times, closing the
    /// small double-count window of [`McMode::Selective`]. The periodic
    /// flush only bounds the replay distance.
    Epoch { interval: u64 },
}

/// Result of a recovery + replay.
#[derive(Debug, Clone)]
pub struct McRecovery {
    /// Lookup index execution resumed from (the flushed loop index).
    pub resumed_from: u64,
    /// Final interaction-type counts after replay to completion.
    pub counts: [u64; XS_CHANNELS],
    /// Detect/resume split; `lost_units` = lookups re-executed.
    pub report: RecoveryReport,
    /// Element accesses recovery charged on its rebooted machine: a
    /// host-independent measure of the simulated work it did.
    pub accesses: u64,
}

/// Counter storage for [`McMode::Epoch`]: two cache lines, each holding
/// its counters *and* the index of the last lookup that updated them.
/// Because a line is written atomically, any NVM version of it is the
/// exact state "as of" its stored epoch.
#[derive(Clone, Copy)]
pub struct EpochCounters {
    /// Line 0: counters 0-1 then the epoch word.
    lo: PArray<u64>,
    /// Line 1: counters 2-4 then the epoch word.
    hi: PArray<u64>,
}

impl EpochCounters {
    /// Number of counters on the first line.
    const LO: usize = 2;

    fn alloc(sys: &mut MemorySystem) -> Self {
        let base = sys.alloc_nvm(2 * adcc_sim::line::LINE_SIZE);
        EpochCounters {
            lo: PArray::new(base, Self::LO + 1),
            hi: PArray::new(
                base + adcc_sim::line::LINE_SIZE as u64,
                XS_CHANNELS - Self::LO + 1,
            ),
        }
    }

    /// Record one interaction of type `t` at lookup `i` (counter += 1 and
    /// epoch := i + 1, in the same line).
    fn increment(&self, sys: &mut MemorySystem, t: usize, i: u64) {
        let (arr, idx) = if t < Self::LO {
            (self.lo, t)
        } else {
            (self.hi, t - Self::LO)
        };
        let c = arr.get(sys, idx) + 1;
        arr.set(sys, idx, c);
        arr.set(sys, arr.len() - 1, i + 1);
    }

    /// Persist both counter lines (bounds replay distance).
    fn flush(&self, sys: &mut MemorySystem) {
        sys.persist_line(self.lo.base());
        sys.persist_line(self.hi.base());
        sys.sfence();
    }

    /// The per-line epochs currently visible (charged reads).
    fn epochs(&self, sys: &mut MemorySystem) -> (u64, u64) {
        (
            self.lo.get(sys, self.lo.len() - 1),
            self.hi.get(sys, self.hi.len() - 1),
        )
    }

    /// Uncharged counter extraction.
    fn peek_counts(&self, sys: &MemorySystem) -> [u64; XS_CHANNELS] {
        let mut out = [0u64; XS_CHANNELS];
        for (t, o) in out.iter_mut().enumerate() {
            *o = if t < Self::LO {
                self.lo.peek(sys, t)
            } else {
                self.hi.peek(sys, t - Self::LO)
            };
        }
        out
    }
}

/// The MC simulation state over simulated memory.
#[derive(Clone)]
pub struct McSim {
    pub grids: SimMcGrids,
    pub problem: McProblem,
    /// The five-element macroscopic cross-section accumulator
    /// (one cache line; hot, hence chronically stale in NVM).
    pub macro_xs: PArray<f64>,
    /// The five interaction-type counters. Deliberately allocated
    /// straddling a cache-line boundary (counters 0–1 on one line, 2–4 on
    /// the next) to reproduce the paper's observation that they go stale
    /// in NVM at different times.
    pub counters: PArray<u64>,
    /// The loop index cell, alone on its cache line.
    pub idx_cell: PScalar<u64>,
    /// Epoch-tagged counter storage (only used by [`McMode::Epoch`]).
    pub epoch_counters: EpochCounters,
    pub lookups: u64,
    pub seed: u64,
    pub mode: McMode,
}

impl McSim {
    /// Seed the problem into simulated NVM and zero the mutable state.
    pub fn setup(
        sys: &mut MemorySystem,
        problem: McProblem,
        lookups: u64,
        seed: u64,
        mode: McMode,
    ) -> Self {
        let grids = SimMcGrids::seed_from(sys, &problem);
        let macro_xs = PArray::<f64>::alloc_nvm(sys, XS_CHANNELS);
        // 5 u64 counters starting 48 bytes into a line: elements 0-1 on
        // the first line, 2-4 on the second.
        let counters_base = sys.alloc_nvm_at_line_offset(XS_CHANNELS * 8, 48);
        let counters = PArray::<u64>::new(counters_base, XS_CHANNELS);
        let idx_cell = PScalar::<u64>::alloc_nvm(sys);
        let epoch_counters = EpochCounters::alloc(sys);
        McSim {
            grids,
            problem,
            macro_xs,
            counters,
            idx_cell,
            epoch_counters,
            lookups,
            seed,
            mode,
        }
    }

    /// One lookup: sample inputs, search + interpolate every nuclide of
    /// the material, accumulate `macro_xs`, and choose the interaction
    /// type via the paper's normalized-CDF extension.
    #[inline]
    fn lookup<M: LookupMem>(&self, mem: &mut M, i: u64) -> usize {
        let e = unit_f64(sample(self.seed, i, 0));
        let mat = self
            .problem
            .pick_material(unit_f64(sample(self.seed, i, 1)));
        for c in 0..XS_CHANNELS {
            mem.set_macro_xs(c, 0.0);
        }
        let grid_points = self.grids.grid_points;
        for &nuc in &self.problem.materials[mat] {
            let nuc = nuc as usize;
            let g = search(mem, grid_points, nuc, e);
            let xs = interpolate(mem, grid_points, nuc, g, e);
            for (c, v) in xs.iter().enumerate() {
                let acc = mem.macro_xs(c) + v;
                mem.set_macro_xs(c, acc);
            }
            mem.charge_flops(XS_CHANNELS as u64);
        }
        // CDF over the five macroscopic cross sections, normalized by the
        // total; a uniform draw picks the interaction type.
        let mut cdf = [0.0f64; XS_CHANNELS];
        let mut acc = 0.0;
        for (c, entry) in cdf.iter_mut().enumerate() {
            acc += mem.macro_xs(c);
            *entry = acc;
        }
        let total = cdf[XS_CHANNELS - 1];
        let x = unit_f64(sample(self.seed, i, 2));
        mem.charge_flops(2 * XS_CHANNELS as u64);
        cdf.iter()
            .position(|&c| x <= c / total)
            .unwrap_or(XS_CHANNELS - 1)
    }

    /// [`McSim::lookup`] on the simulated machine: every access charged.
    pub(super) fn one_lookup(&self, sys: &mut MemorySystem, i: u64) -> usize {
        let mut mem = Charged {
            sys,
            grids: self.grids,
            macro_xs: self.macro_xs,
        };
        self.lookup(&mut mem, i)
    }

    /// Interaction types of lookups `[from, lookups)`, tallied on the host
    /// from `image`'s own grid bytes — what simulating those lookups on a
    /// machine booted from `image` would add to the counters.
    fn tally_tail(&self, image: &NvmImage, from: u64) -> [u64; XS_CHANNELS] {
        let view = |arr: &PArray<f64>| image.view(arr.base(), arr.byte_len());
        let (energy, xs) = (view(&self.grids.energy), view(&self.grids.xs));
        let mut mem = ImageGrids {
            energy: &energy,
            xs: &xs,
            macro_xs: [0.0; XS_CHANNELS],
        };
        let mut tally = [0u64; XS_CHANNELS];
        for i in from..self.lookups {
            tally[self.lookup(&mut mem, i)] += 1;
        }
        tally
    }

    /// Flush the persistent MC state (macro_xs + counters + index).
    fn flush_state(&self, sys: &mut MemorySystem) {
        sys.persist_range(self.macro_xs.base(), self.macro_xs.byte_len());
        sys.persist_range(self.counters.base(), self.counters.byte_len());
        self.idx_cell.persist(sys);
        sys.sfence();
    }

    /// Run lookups `[from, to)`, applying the mode's flushing policy and
    /// polling the crash emulator after every lookup.
    pub fn run(&self, emu: &mut CrashEmulator, from: u64, to: u64) -> RunOutcome<()> {
        for i in from..to.min(self.lookups) {
            let t = self.one_lookup(emu, i);
            if matches!(self.mode, McMode::Epoch { .. }) {
                self.epoch_counters.increment(emu, t, i);
            } else {
                let c = self.counters.get(emu, t) + 1;
                self.counters.set(emu, t, c);
            }
            match self.mode {
                McMode::Native => {}
                McMode::Basic => {
                    // Flush only the loop-index line, every iteration.
                    self.idx_cell.set(emu, i + 1);
                    self.idx_cell.persist(emu);
                }
                McMode::Selective { interval } => {
                    if (i + 1) % interval.max(1) == 0 {
                        self.idx_cell.set(emu, i + 1);
                        self.flush_state(emu);
                    }
                }
                McMode::EveryIteration => {
                    self.idx_cell.set(emu, i + 1);
                    self.flush_state(emu);
                }
                McMode::Epoch { interval } => {
                    if (i + 1) % interval.max(1) == 0 && !MUTANT_EPOCH_NO_FLUSH {
                        self.epoch_counters.flush(emu);
                    }
                }
            }
            if emu.poll(CrashSite::new(sites::PH_LOOKUP, i)) {
                return RunOutcome::Crashed(emu.crash_now());
            }
        }
        RunOutcome::Completed(())
    }

    /// Uncharged extraction of the counters (logical values).
    pub fn peek_counts(&self, sys: &MemorySystem) -> [u64; XS_CHANNELS] {
        if matches!(self.mode, McMode::Epoch { .. }) {
            return self.epoch_counters.peek_counts(sys);
        }
        let mut out = [0u64; XS_CHANNELS];
        for (c, o) in out.iter_mut().enumerate() {
            *o = self.counters.peek(sys, c);
        }
        out
    }

    /// EasyCrash-style dirty restart: reboot from the raw image, trust the
    /// surviving `idx_cell` verbatim, and run the remaining lookups on top
    /// of whatever counter values survived. The tally audit every MC run
    /// ends with (Σ counts = lookups) rejects double- or under-counted
    /// dirty totals. A [chain](McSim::dirty_chain) of one.
    pub fn dirty_restart(&self, image: &NvmImage, cfg: SystemConfig) -> DirtyRestart {
        self.dirty_chain(&cfg, [Cow::Borrowed(image)])
            .answers
            .pop()
            .expect("one state in, one restart out")
    }

    /// [`McSim::dirty_restart`] for the crash states of **one forward
    /// execution**, in the order they were captured: the same
    /// [`DirtyRestart`] per state, field for field and picosecond for
    /// picosecond, for less simulated work. Each image is pulled from
    /// `images` when its turn comes; an owned one becomes its machine's
    /// pool, a borrowed one is copied into it.
    ///
    /// Each state boots its machine and reads the loop index; one the loop
    /// bound rejects stands past the end and is answered there. The rest go
    /// through the lockstep driver (see the module docs), joining where the
    /// two machines have [one future modulo](MemorySystem::same_future_modulo)
    /// the tally words — the only bytes here that the loop reads just to add
    /// to and that steer no address, branch or charge (the loop index, the
    /// epoch words, `macro_xs` and the grids are compared like everything
    /// else; the epoch words steer nothing on this path either, but a word
    /// this loop *overwrites* equalises by itself). A joined restart's
    /// tallies end as far above the pilot's as they stood at the join
    /// (tallies are only ever `get + 1 -> set`), and the count-total audit is
    /// evaluated on those.
    pub fn dirty_chain<'a>(
        &self,
        cfg: &SystemConfig,
        images: impl IntoIterator<Item = Cow<'a, NvmImage>>,
    ) -> Chain<DirtyRestart> {
        let cells = self.tally_cells();
        self.lockstep(
            images
                .into_iter()
                .map(|image| DirtyReentry::boot(self, cfg, image)),
            |follower, pilot| follower.emu.same_future_modulo(&pilot.emu, &cells),
        )
    }

    /// The words a run only ever adds one to, as ascending address ranges:
    /// the five tallies, wherever this mode keeps them.
    #[allow(clippy::single_range_in_vec_init)] // a list of ranges, here of one
    fn tally_cells(&self) -> Vec<Range<u64>> {
        let words = |arr: &PArray<u64>, n: usize| arr.base()..arr.base() + 8 * n as u64;
        if matches!(self.mode, McMode::Epoch { .. }) {
            let (lo, hi) = (&self.epoch_counters.lo, &self.epoch_counters.hi);
            vec![
                words(lo, EpochCounters::LO),
                words(hi, XS_CHANNELS - EpochCounters::LO),
            ]
        } else {
            vec![words(&self.counters, XS_CHANNELS)]
        }
    }

    /// Reseeded recovery: like [`McSim::recover_and_resume`], but the
    /// resumed lookups draw *fresh* randomness (a restarted production
    /// run without a replayable RNG). Results are statistically — not
    /// bitwise — equivalent to the no-crash run; MC's error tolerance is
    /// exactly why the paper's scheme works for it.
    pub fn recover_and_resume_reseeded(
        &self,
        image: &NvmImage,
        cfg: SystemConfig,
        crashed_at: u64,
        new_seed: u64,
    ) -> McRecovery {
        let reseeded = McSim {
            seed: new_seed,
            ..self.clone()
        };
        reseeded.recover_and_resume(image, cfg, crashed_at)
    }

    /// Replay-based recovery: boot from the image, read the flushed loop
    /// index (and whatever counter values NVM holds), and re-execute the
    /// remaining lookups with the *same sampled inputs* (counter-based
    /// RNG). `crashed_at` is the lookup the crash interrupted (known to
    /// the harness), used only for loss accounting. A
    /// [chain](McSim::recover_chain) of one.
    pub fn recover_and_resume(
        &self,
        image: &NvmImage,
        cfg: SystemConfig,
        crashed_at: u64,
    ) -> McRecovery {
        self.recover_chain(&cfg, [(crashed_at, Cow::Borrowed(image))])
            .answers
            .pop()
            .expect("one state in, one recovery out")
    }

    /// [`McSim::recover_and_resume`] for the crash states of **one forward
    /// execution**, as `(crashed_at, image)` in the order they were
    /// captured: the same [`McRecovery`] per state, field for field and
    /// picosecond for picosecond, for less simulated work. Each image is
    /// pulled from `states` when its turn comes; an owned one becomes its
    /// machine's pool, a borrowed one is copied into it.
    ///
    /// Outside [`McMode::Epoch`] the states are recovered one by one. In
    /// epoch mode each state boots its machine and replays from its own line
    /// epochs, through the lockstep driver (see the module docs), joining
    /// where [`MemorySystem::same_future`] holds between the two machines.
    /// A joined recovery's counts are the pilot's.
    pub fn recover_chain<'a>(
        &self,
        cfg: &SystemConfig,
        states: impl IntoIterator<Item = (u64, Cow<'a, NvmImage>)>,
    ) -> Chain<McRecovery> {
        let states = states.into_iter();
        if !matches!(self.mode, McMode::Epoch { .. }) {
            let answers: Vec<McRecovery> = states
                .map(|(crashed_at, image)| self.recover_to_crash_point(image, cfg, crashed_at))
                .collect();
            return Chain {
                simulated_accesses: answers.iter().map(|r| r.accesses).sum(),
                answers,
            };
        }
        self.lockstep(
            states.map(|(crashed_at, image)| EpochRecovery::boot(self, cfg, crashed_at, image)),
            |follower, pilot| {
                // A pre-filter, not a second condition: before the later
                // line epoch of either replay the two apply different
                // increments, but each line holds its own epoch word — past
                // the boundary in a replay that has not reached it, at or
                // before it in one that has — so `same_future` refuses those
                // boundaries by itself. The guard only saves the comparison
                // (`mutant-chain-early-join` drops it).
                (MUTANT_CHAIN_EARLY_JOIN
                    || follower.next >= follower.kind.own_until().max(pilot.kind.own_until()))
                    && follower.emu.same_future(&pilot.emu)
            },
        )
    }

    /// The one lockstep driver behind [`McSim::recover_chain`] and
    /// [`McSim::dirty_chain`]. `replays` yields the chain's states, each
    /// booted when its turn comes; `joins(follower, pilot)` is the kind's
    /// join predicate, asked only where both stand at one boundary.
    ///
    /// A state that stands past the end of the run at boot — a loop index
    /// the loop bound rejects — is answered there and joins nothing. The
    /// first other state is the **pilot**, joined to itself where it stands.
    /// Every later one advances in lockstep with it, whichever is behind
    /// stepping one lookup, until `joins` holds; there it notes its own
    /// [`Reading`] and the pilot's, and is dropped. One that reaches the end
    /// of the run unjoined is complete as it stands. Once the pilot has run
    /// to the end, every joined state adds (pilot's end − pilot's reading at
    /// its join) to its own reading — for an exact join the tallies' share
    /// of that is zero — and its kind turns the result into its answer. At
    /// most two machines are alive, and nothing is approximated: a state is
    /// joined on the full predicate or not at all.
    fn lockstep<K: ReplayKind>(
        &self,
        replays: impl Iterator<Item = Replay<K>>,
        joins: impl Fn(&Replay<K>, &Replay<K>) -> bool,
    ) -> Chain<K::Answer> {
        let mut pilot: Option<Replay<K>> = None;
        let mut stopped = Vec::new();
        let mut simulated_accesses = 0;
        for mut run in replays {
            let pilot_at = if run.next > self.lookups {
                // Answered at boot: the loop bound rejects it.
                None
            } else if let Some(pilot) = pilot.as_mut() {
                while run.next < self.lookups {
                    if run.next < pilot.next {
                        run.step(self);
                    } else if pilot.next < run.next {
                        pilot.step(self);
                    } else if joins(&run, pilot) {
                        break;
                    } else {
                        run.step(self);
                        pilot.step(self);
                    }
                }
                // At the end of the run nothing is left to read off anyone.
                (run.next < self.lookups).then(|| pilot.reading(self))
            } else {
                // The pilot joins itself where it stands.
                let at = run.reading(self);
                stopped.push(Stopped {
                    kind: run.kind,
                    own: at,
                    pilot_at: Some(at),
                });
                pilot = Some(run);
                continue;
            };
            simulated_accesses += run.emu.access_count();
            stopped.push(Stopped {
                kind: run.kind,
                own: run.reading(self),
                pilot_at,
            });
        }
        let end = pilot.map(|mut pilot| {
            while pilot.next < self.lookups {
                pilot.step(self);
            }
            simulated_accesses += pilot.emu.access_count();
            pilot.reading(self)
        });
        Chain {
            answers: stopped
                .into_iter()
                .map(|state| state.close(self, end.as_ref()))
                .collect(),
            simulated_accesses,
        }
    }

    /// Recovery in the index-flushing modes: re-execute `[flushed index,
    /// crashed_at)` timed, tally the rest of the run on the host.
    fn recover_to_crash_point(
        &self,
        image: Cow<'_, NvmImage>,
        cfg: &SystemConfig,
        crashed_at: u64,
    ) -> McRecovery {
        // The rest of the run only ever adds one to a counter per lookup:
        // tally it on the host instead of simulating it untimed — from the
        // image's own grids, so before the machine takes the image over.
        let tail = self.tally_tail(&image, crashed_at);
        let mut sys = boot(cfg, image);
        let t0 = sys.now();
        let resumed_from = self.idx_cell.get(&mut sys);
        let t1 = sys.now();
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        // Re-execute back to the crash point (measured as resume time).
        self.run(&mut emu, resumed_from, crashed_at)
            .completed()
            .expect("trigger is Never");
        let t2 = emu.now();
        let mut counts = self.peek_counts(&emu);
        for (c, n) in counts.iter_mut().zip(tail) {
            *c += n;
        }
        McRecovery {
            resumed_from,
            counts,
            report: RecoveryReport {
                detect_time: t1 - t0,
                resume_time: t2 - t1,
                lost_units: crashed_at.saturating_sub(resumed_from),
                restart_unit: resumed_from,
            },
            accesses: emu.access_count(),
        }
    }
}

/// What [`McSim::recover_chain`] or [`McSim::dirty_chain`] came to.
#[derive(Debug, Clone)]
pub struct Chain<T> {
    /// One answer per crash state, in the order the states were given.
    pub answers: Vec<T>,
    /// Element accesses the chain simulated over all its machines. (Each
    /// recovery's own `accesses` is what recovering that state alone would
    /// have charged.)
    pub simulated_accesses: u64,
}

/// `true` when this build carries the seeded `mutant-chain-early-join` bug
/// (see [`McSim::recover_chain`]); the mutation suite reads it to know which
/// verdict to assert.
#[doc(hidden)]
pub const MUTANT_CHAIN_EARLY_JOIN: bool = cfg!(feature = "mutant-chain-early-join");

/// `true` when this build carries the seeded `mutant-epoch-no-flush` bug:
/// [`McMode::Epoch`] never runs its periodic counter-line flush, so a
/// recovery's replay distance is bounded by natural eviction alone.
#[doc(hidden)]
pub const MUTANT_EPOCH_NO_FLUSH: bool = cfg!(feature = "mutant-epoch-no-flush");

/// A machine over the bytes of `image`, caches cold: an image the chain owns
/// becomes the pool, one it borrowed is copied into it.
fn boot(cfg: &SystemConfig, image: Cow<'_, NvmImage>) -> MemorySystem {
    match image {
        Cow::Borrowed(image) => MemorySystem::from_image(cfg.clone(), image),
        Cow::Owned(image) => MemorySystem::from_owned_image(cfg.clone(), image),
    }
}

/// A machine's clock, tallies and access count, as a chain reads them at a
/// lookup boundary.
#[derive(Clone, Copy)]
struct Reading {
    time: SimTime,
    counts: [u64; XS_CHANNELS],
    accesses: u64,
}

impl Reading {
    /// This reading moved on by what the pilot did from `at` to `end`.
    fn advanced(mut self, at: &Reading, end: &Reading) -> Reading {
        self.time += end.time - at.time;
        self.accesses += end.accesses - at.accesses;
        for ((c, end), at) in self.counts.iter_mut().zip(end.counts).zip(at.counts) {
            *c += end - at;
        }
        self
    }
}

/// What a kind of replay supplies to the lockstep driver besides its boot
/// and its join predicate.
trait ReplayKind: Copy {
    type Answer;

    /// Run lookup `i` on `emu`.
    fn step(&self, mc: &McSim, emu: &mut CrashEmulator, i: u64);

    /// The state's answer, given its machine's reading where its run ended
    /// — advanced by the pilot's if it joined one.
    fn answer(self, mc: &McSim, end: Reading) -> Self::Answer;
}

/// One state of a chain in flight: its machine, the boundary the machine
/// stands at, and what its kind keeps besides.
struct Replay<K> {
    emu: CrashEmulator,
    /// Lookups `..next` are done (or were, the image says).
    next: u64,
    kind: K,
}

impl<K: ReplayKind> Replay<K> {
    fn new(sys: MemorySystem, next: u64, kind: K) -> Self {
        Replay {
            emu: CrashEmulator::from_system(sys, CrashTrigger::Never),
            next,
            kind,
        }
    }

    fn step(&mut self, mc: &McSim) {
        self.kind.step(mc, &mut self.emu, self.next);
        self.next += 1;
    }

    fn reading(&self, mc: &McSim) -> Reading {
        Reading {
            time: self.emu.now(),
            counts: mc.peek_counts(&self.emu),
            accesses: self.emu.access_count(),
        }
    }
}

/// One state of a chain where its own machine stopped, until the pilot has
/// reached the end of the run.
struct Stopped<K> {
    kind: K,
    /// Its machine's reading where it stopped: final unless it joined.
    own: Reading,
    /// Where it joined: the pilot's reading at that boundary.
    pilot_at: Option<Reading>,
}

impl<K: ReplayKind> Stopped<K> {
    /// The answer, given the pilot's reading at the end of the run.
    fn close(self, mc: &McSim, end: Option<&Reading>) -> K::Answer {
        let reading = match self.pilot_at {
            None => self.own,
            Some(at) => {
                let end = end.expect("a joined pilot runs to the end");
                self.own.advanced(&at, end)
            }
        };
        self.kind.answer(mc, reading)
    }
}

/// [`McMode::Epoch`] recovery: re-execute lookups from the counter lines'
/// epochs, applying to each line the increments it missed — exact by
/// construction, each NVM line being a consistent `(counters, epoch)` pair.
#[derive(Clone, Copy)]
struct EpochRecovery {
    /// The epochs of the two counter lines as the image held them.
    epochs: (u64, u64),
    /// The lookup the crash interrupted, for loss accounting.
    crashed_at: u64,
    /// Time spent deciding where to restart.
    detect_time: SimTime,
    /// The clock when the timed replay began.
    resume_began: SimTime,
}

impl EpochRecovery {
    /// Boot `image`, read the line epochs (the detect phase) and stand at
    /// the earlier one. The timed replay opens by reading both epoch words
    /// a second time — two charged accesses of every epoch `resume_time`.
    fn boot(
        mc: &McSim,
        cfg: &SystemConfig,
        crashed_at: u64,
        image: Cow<'_, NvmImage>,
    ) -> Replay<Self> {
        let mut sys = boot(cfg, image);
        let t0 = sys.now();
        mc.epoch_counters.epochs(&mut sys);
        let resume_began = sys.now();
        let epochs = mc.epoch_counters.epochs(&mut sys);
        let kind = EpochRecovery {
            epochs,
            crashed_at,
            detect_time: resume_began - t0,
            resume_began,
        };
        Replay::new(sys, epochs.0.min(epochs.1), kind)
    }

    /// The first boundary from which the replay applies every increment,
    /// like any other replay that far along: the later line epoch.
    fn own_until(&self) -> u64 {
        self.epochs.0.max(self.epochs.1)
    }
}

impl ReplayKind for EpochRecovery {
    type Answer = McRecovery;

    fn step(&self, mc: &McSim, emu: &mut CrashEmulator, i: u64) {
        let t = mc.one_lookup(emu, i);
        let line_epoch = if t < EpochCounters::LO {
            self.epochs.0
        } else {
            self.epochs.1
        };
        if i >= line_epoch {
            mc.epoch_counters.increment(emu, t, i);
        }
    }

    fn answer(self, _: &McSim, end: Reading) -> McRecovery {
        let resumed_from = self.epochs.0.min(self.epochs.1);
        McRecovery {
            resumed_from,
            counts: end.counts,
            report: RecoveryReport {
                detect_time: self.detect_time,
                resume_time: end.time - self.resume_began,
                lost_units: self.crashed_at.saturating_sub(resumed_from),
                restart_unit: resumed_from,
            },
            accesses: end.accesses,
        }
    }
}

/// A dirty restart: the machine rebooted from a crash image as it was, with
/// no mechanism — the whole continuation is resume time — running the
/// forward loop on from the loop index the image held.
#[derive(Clone, Copy)]
struct DirtyReentry {
    /// The clock before the loop index was read.
    began: SimTime,
    /// The loop index the image held.
    idx: u64,
}

impl DirtyReentry {
    fn boot(mc: &McSim, cfg: &SystemConfig, image: Cow<'_, NvmImage>) -> Replay<Self> {
        let mut sys = boot(cfg, image);
        sys.clock_mut().set_bucket(Bucket::Resume);
        let began = sys.now();
        let idx = mc.idx_cell.get(&mut sys);
        Replay::new(sys, idx, DirtyReentry { began, idx })
    }
}

impl ReplayKind for DirtyReentry {
    type Answer = DirtyRestart;

    fn step(&self, mc: &McSim, emu: &mut CrashEmulator, i: u64) {
        mc.run(emu, i, i + 1).completed().expect("trigger is Never");
    }

    /// The audit a run ends with, on the tallies this state ends with.
    fn answer(self, mc: &McSim, end: Reading) -> DirtyRestart {
        let sim_time_ps = (end.time - self.began).ps();
        if self.idx > mc.lookups {
            // The loop bound itself rejects a counter past the end.
            return DirtyRestart::rejected(sim_time_ps);
        }
        let audited = end.counts.iter().sum::<u64>() == mc.lookups;
        DirtyRestart {
            solution: audited.then(|| end.counts.iter().map(|&c| c as f64).collect()),
            extra_units: mc.lookups - self.idx,
            sim_time_ps,
        }
    }
}

/// [`LookupMem`] over a crash image, uncharged: the grids are read straight
/// from the image's bytes and `macro_xs` lives in a local.
struct ImageGrids<'a> {
    energy: &'a [u8],
    xs: &'a [u8],
    macro_xs: [f64; XS_CHANNELS],
}

impl LookupMem for ImageGrids<'_> {
    #[inline]
    fn energy(&mut self, i: usize) -> f64 {
        f64::from_bytes(&self.energy[i * 8..])
    }
    #[inline]
    fn xs(&mut self, i: usize) -> f64 {
        f64::from_bytes(&self.xs[i * 8..])
    }
    #[inline]
    fn macro_xs(&mut self, c: usize) -> f64 {
        self.macro_xs[c]
    }
    #[inline]
    fn set_macro_xs(&mut self, c: usize, v: f64) {
        self.macro_xs[c] = v;
    }
    #[inline]
    fn charge_flops(&mut self, _n: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_problem() -> McProblem {
        McProblem::generate(36, 128, 11)
    }

    fn cfg(p: &McProblem) -> SystemConfig {
        SystemConfig::nvm_only(16 << 10, (p.grid_bytes() + (1 << 20)).next_power_of_two())
    }

    fn no_crash_counts(p: &McProblem, lookups: u64, mode: McMode) -> [u64; XS_CHANNELS] {
        let c = cfg(p);
        let mut sys = MemorySystem::new(c);
        let mc = McSim::setup(&mut sys, p.clone(), lookups, 42, mode);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        mc.run(&mut emu, 0, lookups).completed().unwrap();
        mc.peek_counts(&emu)
    }

    impl McSim {
        /// The differential oracle for the tally: recovery as it was before
        /// the tail became a host-side tally — the lookups past the crash
        /// point simulated, untimed, on the rebooted machine.
        fn recover_and_resume_simulated_tail(
            &self,
            image: &NvmImage,
            cfg: SystemConfig,
            crashed_at: u64,
        ) -> McRecovery {
            let mut sys = MemorySystem::from_image(cfg, image);
            let t0 = sys.now();
            let resumed_from = self.idx_cell.get(&mut sys);
            let t1 = sys.now();
            let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
            self.run(&mut emu, resumed_from, crashed_at)
                .completed()
                .unwrap();
            let t2 = emu.now();
            let accesses = emu.access_count();
            self.run(&mut emu, crashed_at, self.lookups)
                .completed()
                .unwrap();
            McRecovery {
                resumed_from,
                counts: self.peek_counts(&emu),
                report: RecoveryReport {
                    detect_time: t1 - t0,
                    resume_time: t2 - t1,
                    lost_units: crashed_at.saturating_sub(resumed_from),
                    restart_unit: resumed_from,
                },
                accesses,
            }
        }
    }

    /// Everything a recovery reports, in comparable form.
    fn facts(r: &McRecovery) -> (u64, [u64; XS_CHANNELS], u64, u64, u64, u64, u64) {
        (
            r.resumed_from,
            r.counts,
            r.report.detect_time.ps(),
            r.report.resume_time.ps(),
            r.report.lost_units,
            r.report.restart_unit,
            r.accesses,
        )
    }

    /// Crash images of one run of `mode`, one per lookup boundary:
    /// `images[k]` is NVM as of `k` completed lookups (`images[0]` the
    /// seeded machine before the loop).
    fn images_at_every_lookup(
        p: &McProblem,
        c: &SystemConfig,
        lookups: u64,
        mode: McMode,
    ) -> (McSim, Vec<NvmImage>) {
        let mut sys = MemorySystem::new(c.clone());
        let mc = McSim::setup(&mut sys, p.clone(), lookups, 42, mode);
        let mut images = vec![sys.crash_fork()];
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        for i in 0..lookups {
            mc.run(&mut emu, i, i + 1).completed().unwrap();
            images.push(emu.crash_fork());
        }
        (mc, images)
    }

    #[test]
    fn tallied_tail_equals_the_simulated_tail_at_every_crash_point() {
        let p = McProblem::generate(36, 32, 11);
        // Small caches: counter lines get evicted between flushes, so the
        // replayed prefix double-counts at many crash points.
        let c = SystemConfig::nvm_only(4 << 10, 1 << 20);
        let lookups = 60u64;
        let mut audits_fired = 0;
        for mode in [
            McMode::Selective { interval: 8 },
            McMode::Basic,
            McMode::EveryIteration,
            McMode::Native,
        ] {
            let (mc, images) = images_at_every_lookup(&p, &c, lookups, mode);
            for (crashed_at, image) in images.iter().enumerate() {
                let crashed_at = crashed_at as u64;
                let got = mc.recover_and_resume(image, c.clone(), crashed_at);
                let want = mc.recover_and_resume_simulated_tail(image, c.clone(), crashed_at);
                assert_eq!(
                    facts(&got),
                    facts(&want),
                    "{mode:?} crashed_at {crashed_at}"
                );
                audits_fired += u64::from(got.counts.iter().sum::<u64>() != lookups);
            }
        }
        // The comparison covered inexact recoveries too, not only clean ones.
        assert!(audits_fired > 0, "no crash point exercised the count audit");
    }

    #[test]
    fn tally_reads_the_grids_of_the_image_it_was_handed() {
        let p = McProblem::generate(36, 32, 11);
        let c = SystemConfig::nvm_only(16 << 10, 1 << 20);
        let lookups = 200u64;
        let mode = McMode::Selective { interval: 8 };
        let mut sys = MemorySystem::new(c.clone());
        let mc = McSim::setup(&mut sys, p.clone(), lookups, 42, mode);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        mc.run(&mut emu, 0, 16).completed().unwrap();
        let clean = emu.crash_fork();
        // Poison the fuel's first nuclide: every cross section of one
        // mid-grid point becomes huge, so the lookups that interpolate
        // there pick a different interaction type.
        let mut bytes = clean.prefix().to_vec();
        for ch in 0..XS_CHANNELS {
            let at = mc.grids.xs.addr(16 * XS_CHANNELS + ch) as usize;
            bytes[at..at + 8].copy_from_slice(&(1e9 * (ch + 1) as f64).to_le_bytes());
        }
        let poisoned = NvmImage::new(bytes, clean.len());

        let reference = mc.recover_and_resume(&clean, c.clone(), 16);
        let tallied = mc.recover_and_resume(&poisoned, c.clone(), 16);
        let simulated = mc.recover_and_resume_simulated_tail(&poisoned, c.clone(), 16);
        assert_eq!(facts(&tallied), facts(&simulated));
        assert_ne!(tallied.counts, reference.counts, "the poison must show");
        assert_eq!(tallied.counts.iter().sum::<u64>(), lookups);
    }

    /// Hostile caches for the epoch chain: counter lines are evicted at
    /// arbitrary times, and a replay forgets its start within a few lookups.
    fn hostile() -> SystemConfig {
        SystemConfig::heterogeneous(4 << 10, 16 << 10, 1 << 20)
    }

    const EPOCH_LOOKUPS: u64 = 96;

    /// One small epoch-mode run under [`hostile`] caches, an image at every
    /// lookup boundary, and what recovering each alone comes to: the chain
    /// of one never meets a pilot, so it is the plain simulation, and the
    /// oracle for every longer chain.
    fn epoch_run() -> &'static (McSim, Vec<NvmImage>, Vec<McRecovery>) {
        static RUN: std::sync::OnceLock<(McSim, Vec<NvmImage>, Vec<McRecovery>)> =
            std::sync::OnceLock::new();
        RUN.get_or_init(|| {
            let p = McProblem::generate(36, 32, 11);
            let mode = McMode::Epoch { interval: 8 };
            let (mc, images) = images_at_every_lookup(&p, &hostile(), EPOCH_LOOKUPS, mode);
            let alone = images
                .iter()
                .enumerate()
                .map(|(k, image)| mc.recover_and_resume(image, hostile(), k as u64))
                .collect();
            (mc, images, alone)
        })
    }

    /// Chain the states at `picks` and compare each recovery with the
    /// oracle's; the chain's simulated accesses.
    fn chain_equals_alone(
        mc: &McSim,
        images: &[NvmImage],
        alone: &[McRecovery],
        picks: &[usize],
    ) -> u64 {
        let states = picks.iter().map(|&k| (k as u64, Cow::Borrowed(&images[k])));
        let chain = mc.recover_chain(&hostile(), states);
        assert_eq!(chain.answers.len(), picks.len());
        for (got, &k) in chain.answers.iter().zip(picks) {
            assert_eq!(facts(got), facts(&alone[k]), "crashed_at {k} of {picks:?}");
        }
        chain.simulated_accesses
    }

    #[test]
    fn chained_epoch_recovery_equals_recovery_alone_at_every_crash_point() {
        let (mc, images, alone) = epoch_run();
        let total = |picks: &[usize]| picks.iter().map(|&k| alone[k].accesses).sum::<u64>();
        // Every crash point in one chain: each follower starts a lookup
        // behind the pilot and catches up with it.
        let every: Vec<usize> = (0..images.len()).collect();
        let simulated = chain_equals_alone(mc, images, alone, &every);
        assert!(
            2 * simulated < total(&every),
            "{simulated} accesses simulated, {} alone: nothing joined",
            total(&every)
        );
        // Sparse chains: the pilot is the one behind and is stepped up to
        // each follower. Crash points near the end never join anything.
        for stride in [5, 13, 31] {
            for first in 0..stride {
                let picks: Vec<usize> = (first..images.len()).step_by(stride).collect();
                let simulated = chain_equals_alone(mc, images, alone, &picks);
                assert!(simulated <= total(&picks), "{picks:?}");
            }
        }
        // The order the states come in is a matter of work, not of
        // results: a pilot from late in the run, followers from before it.
        let backwards: Vec<usize> = (0..images.len()).rev().step_by(9).collect();
        chain_equals_alone(mc, images, alone, &backwards);
    }

    #[test]
    fn a_follower_that_never_joins_runs_to_the_end_and_is_still_exact() {
        let (mc, images, alone) = epoch_run();
        // The second state's image holds other cross sections for the
        // first nuclide (in the manner of
        // `tally_reads_the_grids_of_the_image_it_was_handed`): its NVM never
        // equals the pilot's, so no boundary has the same future.
        let mut bytes = images[30].prefix().to_vec();
        for entry in 0..32 * XS_CHANNELS {
            let at = mc.grids.xs.addr(entry) as usize;
            let huge = 1e9 * (entry % XS_CHANNELS + 1) as f64;
            bytes[at..at + 8].copy_from_slice(&huge.to_le_bytes());
        }
        let poisoned = NvmImage::new(bytes, images[30].len());
        let loner = mc.recover_and_resume(&poisoned, hostile(), 30);
        assert_ne!(loner.counts, alone[30].counts, "the poison must show");

        // It comes last: stepping in lockstep with it takes the pilot to the
        // end of the run, where nobody after it could join any more.
        let states = [(10, &images[10]), (50, &images[50]), (30, &poisoned)];
        let chain = mc.recover_chain(&hostile(), states.map(|(k, i)| (k, Cow::Borrowed(i))));
        let want = [&alone[10], &alone[50], &loner];
        for (got, want) in chain.answers.iter().zip(want) {
            assert_eq!(facts(got), facts(want));
        }
        // The pilot and the loner were simulated in full, the state between
        // them only until it joined the pilot.
        let in_full = alone[10].accesses + loner.accesses;
        assert!(chain.simulated_accesses > in_full);
        assert!(chain.simulated_accesses < in_full + alone[50].accesses);
    }

    /// `image` with the loop index overwritten.
    fn with_idx(mc: &McSim, image: &NvmImage, idx: u64) -> NvmImage {
        let at = mc.idx_cell.addr() as usize;
        let mut bytes = image.prefix().to_vec();
        bytes.resize(bytes.len().max(at + 8), 0);
        bytes[at..at + 8].copy_from_slice(&idx.to_le_bytes());
        NvmImage::new(bytes, image.len())
    }

    /// Three dirty restarts of the epoch run, as the commit before chains
    /// computed them: one the audit accepts, one it rejects, one the loop
    /// bound rejects (no run writes such an index; the image is forged).
    #[test]
    fn a_dirty_chain_of_one_is_the_restart_it_always_was() {
        let (mc, images, _) = epoch_run();
        let restart = |solution: Option<[f64; XS_CHANNELS]>, extra_units, sim_time_ps| {
            let solution = solution.map(Vec::from);
            DirtyRestart {
                solution,
                extra_units,
                sim_time_ps,
            }
        };
        let counts = [17.0, 20.0, 20.0, 19.0, 20.0];
        assert_eq!(
            mc.dirty_restart(&images[1], hostile()),
            restart(Some(counts), 96, 1_330_445_000)
        );
        assert_eq!(
            mc.dirty_restart(&images[50], hostile()),
            restart(None, 96, 1_330_445_000)
        );
        let past_the_end = with_idx(mc, &images[30], EPOCH_LOOKUPS + 1);
        assert_eq!(
            mc.dirty_restart(&past_the_end, hostile()),
            restart(None, 0, 361_000)
        );
    }

    #[test]
    fn every_dirty_restart_of_a_chain_equals_its_restart_alone() {
        let p = McProblem::generate(36, 32, 11);
        let chained = |mc: &McSim, images: &[&NvmImage]| {
            mc.dirty_chain(&hostile(), images.iter().map(|&i| Cow::Borrowed(i)))
        };
        for mode in [
            McMode::Epoch { interval: 8 },
            McMode::Selective { interval: 8 },
            McMode::Basic,
            McMode::Native,
        ] {
            let (mc, mut images) = images_at_every_lookup(&p, &hostile(), EPOCH_LOOKUPS, mode);
            // Two states the loop bound rejects, one of them first in line:
            // they are answered at boot and never pilot or join anything.
            for at in [0, 40] {
                images.insert(
                    at,
                    with_idx(&mc, &images[at], EPOCH_LOOKUPS + 1 + at as u64),
                );
            }
            // The chain of one never meets a pilot: it is the plain
            // simulation, and the oracle.
            let alone: Vec<DirtyRestart> = images
                .iter()
                .map(|image| mc.dirty_restart(image, hostile()))
                .collect();
            for at in [0, 40] {
                assert_eq!((&alone[at].solution, alone[at].extra_units), (&None, 0));
            }
            let any = |want: fn(&DirtyRestart) -> bool| alone.iter().any(want);
            assert!(any(|d| d.solution.is_some()), "{mode:?}: none accepted");
            assert!(
                any(|d| d.extra_units > 0 && d.solution.is_none()),
                "{mode:?}: no crash point exercised the count audit"
            );

            let every: Vec<&NvmImage> = images.iter().collect();
            let chain = chained(&mc, &every);
            assert_eq!(chain.answers, alone, "{mode:?}");
            // In any order and any subset: what joins whom is a matter of
            // work, not of results.
            let backwards: Vec<usize> = (0..images.len()).rev().step_by(7).collect();
            let sparse: Vec<usize> = (3..images.len()).step_by(11).collect();
            for picks in [backwards, sparse] {
                let states: Vec<&NvmImage> = picks.iter().map(|&k| &images[k]).collect();
                let want: Vec<DirtyRestart> = picks.iter().map(|&k| alone[k].clone()).collect();
                assert_eq!(chained(&mc, &states).answers, want, "{mode:?} {picks:?}");
            }
            // Epoch-mode restarts all re-enter at lookup 0 of a cold
            // machine: everything after the pilot joins within a few lookups.
            if matches!(mode, McMode::Epoch { .. }) {
                let one_run = chained(&mc, &every[1..2]).simulated_accesses;
                assert!(
                    chain.simulated_accesses < 2 * one_run * every.len() as u64 / 3,
                    "{} accesses simulated, {one_run} a run",
                    chain.simulated_accesses
                );
            }
        }
    }

    #[test]
    fn a_dirty_follower_that_never_joins_runs_to_the_end_and_is_still_exact() {
        let (mc, images, _) = epoch_run();
        // As in `a_follower_that_never_joins_runs_to_the_end_and_is_still_exact`:
        // other cross sections in the second state's NVM, which is compared
        // like every byte outside the tallies.
        let mut bytes = images[30].prefix().to_vec();
        for entry in 0..32 * XS_CHANNELS {
            let at = mc.grids.xs.addr(entry) as usize;
            let huge = 1e9 * (entry % XS_CHANNELS + 1) as f64;
            bytes[at..at + 8].copy_from_slice(&huge.to_le_bytes());
        }
        let poisoned = NvmImage::new(bytes, images[30].len());
        let states = [&images[10], &poisoned, &images[50]];
        let alone = states.map(|image| mc.dirty_restart(image, hostile()));
        assert_ne!(
            alone[1],
            mc.dirty_restart(&images[30], hostile()),
            "the poison must show"
        );

        let chain = mc.dirty_chain(&hostile(), states.map(Cow::Borrowed));
        assert_eq!(chain.answers, alone);
        // Pilot and loner were simulated in full — in lockstep, which took
        // the pilot to the end of the run, where the state after them could
        // join nobody any more.
        let one_run = mc.dirty_chain(&hostile(), [Cow::Borrowed(&images[10])]);
        assert_eq!(chain.simulated_accesses, 3 * one_run.simulated_accesses);
    }

    /// The gotcha the chain has to preserve: the timed replay of **every**
    /// state opens by reading both epoch words a second time. With no
    /// lookup left to replay, those two cache hits are all a state's
    /// `resume_time` — per state, not per chain.
    #[test]
    fn every_chained_state_rereads_its_epoch_words_inside_the_timed_window() {
        let (mc, images, _) = epoch_run();
        let idle = McSim {
            lookups: 0,
            ..mc.clone()
        };
        let states = [(20, &images[20]), (40, &images[40])];
        let chain = idle.recover_chain(&hostile(), states.map(|(k, i)| (k, Cow::Borrowed(i))));
        assert_eq!(chain.answers.len(), 2);
        for r in &chain.answers {
            let hit = hostile().timing.cpu_access_ps;
            assert_eq!(r.report.resume_time.ps(), 2 * hit);
            assert!(r.report.detect_time.ps() > 2 * hit, "two cold misses");
            assert_eq!(r.accesses, 4);
        }
        assert_eq!(chain.simulated_accesses, 8);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Whatever subset of one run's crash points is chained, in poll
        /// order, each state's recovery is the one it gets alone.
        #[test]
        fn any_chain_of_one_runs_crash_points_equals_recovery_alone(
            picked in proptest::collection::vec(proptest::prelude::any::<bool>(), 97),
        ) {
            let (mc, images, alone) = epoch_run();
            let picks: Vec<usize> = (0..images.len()).filter(|&k| picked[k]).collect();
            chain_equals_alone(mc, images, alone, &picks);
        }

        /// The same for dirty restarts, in poll order or against it.
        #[test]
        fn any_dirty_chain_of_one_runs_crash_points_equals_restarts_alone(
            picked in proptest::collection::vec(proptest::prelude::any::<bool>(), 97),
            backwards in proptest::prelude::any::<bool>(),
        ) {
            static ALONE: std::sync::OnceLock<Vec<DirtyRestart>> = std::sync::OnceLock::new();
            let (mc, images, _) = epoch_run();
            let alone = ALONE.get_or_init(|| {
                let restart = |image| mc.dirty_restart(image, hostile());
                images.iter().map(restart).collect()
            });
            let mut picks: Vec<usize> = (0..images.len()).filter(|&k| picked[k]).collect();
            if backwards {
                picks.reverse();
            }
            let chain = mc.dirty_chain(&hostile(), picks.iter().map(|&k| Cow::Borrowed(&images[k])));
            let want: Vec<&DirtyRestart> = picks.iter().map(|&k| &alone[k]).collect();
            proptest::prop_assert_eq!(chain.answers.iter().collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn counts_sum_to_lookups() {
        let p = small_problem();
        let counts = no_crash_counts(&p, 500, McMode::Native);
        assert_eq!(counts.iter().sum::<u64>(), 500);
    }

    #[test]
    fn counts_are_roughly_uniform() {
        let p = small_problem();
        let n = 5_000u64;
        let counts = no_crash_counts(&p, n, McMode::Native);
        let expect = n as f64 / 5.0;
        for c in counts {
            assert!(
                (c as f64 - expect).abs() < 0.15 * expect,
                "skewed: {counts:?}"
            );
        }
    }

    #[test]
    fn modes_do_not_change_results() {
        let p = small_problem();
        let a = no_crash_counts(&p, 400, McMode::Native);
        let b = no_crash_counts(&p, 400, McMode::Basic);
        let c = no_crash_counts(&p, 400, McMode::Selective { interval: 50 });
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn counters_straddle_two_lines() {
        let p = small_problem();
        let mut sys = MemorySystem::new(cfg(&p));
        let mc = McSim::setup(&mut sys, p, 10, 1, McMode::Native);
        let first = adcc_sim::line::line_of(mc.counters.addr(0));
        let last = adcc_sim::line::line_of(mc.counters.addr(4) + 7);
        assert_eq!(last, first + 1, "counters must straddle two lines");
    }

    #[test]
    fn selective_flush_recovery_matches_no_crash_exactly() {
        let p = small_problem();
        let lookups = 2_000u64;
        let want = no_crash_counts(&p, lookups, McMode::Native);

        let c = cfg(&p);
        let mut sys = MemorySystem::new(c.clone());
        let mode = McMode::Selective { interval: 100 };
        let mc = McSim::setup(&mut sys, p.clone(), lookups, 42, mode);
        let crash_at = 900u64;
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_LOOKUP, crash_at),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = mc.run(&mut emu, 0, lookups).crashed().unwrap();
        let rec = mc.recover_and_resume(&image, c, crash_at + 1);
        // Replay RNG: with the counters snapshot-consistent at the last
        // flush, recovery reproduces the exact no-crash counts (modulo the
        // rare natural eviction between flushes; none at this small size).
        let total: u64 = rec.counts.iter().sum();
        let want_total: u64 = want.iter().sum();
        assert_eq!(total, want_total, "total samples must match");
        assert_eq!(rec.counts, want, "selective flushing must preserve results");
        assert!(
            rec.resumed_from >= 800,
            "resumed too early: {}",
            rec.resumed_from
        );
        assert!(rec.report.lost_units <= 101);
    }

    #[test]
    fn reseeded_recovery_is_statistically_equivalent() {
        let p = small_problem();
        let lookups = 8_000u64;
        let want = no_crash_counts(&p, lookups, McMode::Native);

        let c = cfg(&p);
        let mut sys = MemorySystem::new(c.clone());
        let mode = McMode::Selective { interval: 200 };
        let mc = McSim::setup(&mut sys, p.clone(), lookups, 42, mode);
        let crash_at = 2_000u64;
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_LOOKUP, crash_at),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = mc.run(&mut emu, 0, lookups).crashed().unwrap();
        let rec = mc.recover_and_resume_reseeded(&image, c, crash_at + 1, 777);
        // Different randomness after restart: totals match (no samples
        // lost), shares agree statistically (within a few percent).
        assert_eq!(rec.counts.iter().sum::<u64>(), lookups);
        for t in 0..XS_CHANNELS {
            let a = want[t] as f64 / lookups as f64;
            let b = rec.counts[t] as f64 / lookups as f64;
            assert!(
                (a - b).abs() < 0.03,
                "type {t}: {a:.4} vs {b:.4} beyond statistical tolerance"
            );
        }
    }

    #[test]
    fn epoch_mode_counts_match_other_modes_without_crash() {
        let p = small_problem();
        let a = no_crash_counts(&p, 600, McMode::Native);
        let b = no_crash_counts(&p, 600, McMode::Epoch { interval: 50 });
        assert_eq!(a, b);
    }

    #[test]
    fn epoch_recovery_is_exact_even_under_heavy_eviction() {
        // Tiny heterogeneous caches: counter lines are evicted at
        // arbitrary times between flushes — the scenario where Selective
        // replay double-counts. Epoch recovery must stay exact.
        let p = small_problem();
        let lookups = 3_000u64;
        let want = no_crash_counts(&p, lookups, McMode::Native);
        let cfg = adcc_sim::system::SystemConfig::heterogeneous(
            4 << 10,
            16 << 10,
            (p.grid_bytes() + (1 << 20)).next_power_of_two(),
        );
        for crash_at in [500u64, 1_500, 2_900] {
            let mut sys = MemorySystem::new(cfg.clone());
            let mc = McSim::setup(
                &mut sys,
                p.clone(),
                lookups,
                42,
                McMode::Epoch { interval: 100 },
            );
            let trig = CrashTrigger::AtSite {
                site: CrashSite::new(sites::PH_LOOKUP, crash_at),
                occurrence: 1,
            };
            let mut emu = CrashEmulator::from_system(sys, trig);
            let image = mc.run(&mut emu, 0, lookups).crashed().unwrap();
            let rec = mc.recover_and_resume(&image, cfg.clone(), crash_at + 1);
            assert_eq!(
                rec.counts, want,
                "epoch recovery must be exact (crash at {crash_at})"
            );
        }
    }

    #[test]
    fn basic_idea_recovery_skews_results() {
        let p = small_problem();
        let lookups = 2_000u64;
        let want = no_crash_counts(&p, lookups, McMode::Native);

        let c = cfg(&p);
        let mut sys = MemorySystem::new(c.clone());
        let mc = McSim::setup(&mut sys, p.clone(), lookups, 42, McMode::Basic);
        let crash_at = 900u64;
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_LOOKUP, crash_at),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = mc.run(&mut emu, 0, lookups).crashed().unwrap();
        let rec = mc.recover_and_resume(&image, c, crash_at + 1);
        // The counter increments stranded in cache are lost: totals fall
        // short of the no-crash run.
        let total: u64 = rec.counts.iter().sum();
        let want_total: u64 = want.iter().sum();
        assert!(
            total < want_total,
            "basic idea should lose counts: {total} vs {want_total}"
        );
    }
}
