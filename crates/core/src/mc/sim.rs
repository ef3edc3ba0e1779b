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
                    if (i + 1) % interval.max(1) == 0 {
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

    /// Epoch-mode replay: re-execute lookups from each line's own epoch,
    /// applying only the increments that line missed. Exact by
    /// construction (each NVM line is a consistent `(counters, epoch)`
    /// pair).
    fn replay_epochs(&self, sys: &mut MemorySystem) {
        let (e_lo, e_hi) = self.epoch_counters.epochs(sys);
        let start = e_lo.min(e_hi);
        for i in start..self.lookups {
            let t = self.one_lookup(sys, i);
            let line_epoch = if t < EpochCounters::LO { e_lo } else { e_hi };
            if i >= line_epoch {
                self.epoch_counters.increment(sys, t, i);
            }
        }
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
    /// dirty totals.
    pub fn dirty_restart(&self, image: &NvmImage, cfg: SystemConfig) -> DirtyRestart {
        let mut sys = MemorySystem::dirty_reboot(cfg, image);
        let t0 = sys.now();
        let idx = self.idx_cell.get(&mut sys);
        if idx > self.lookups {
            // The loop bound itself rejects a counter past the end.
            return DirtyRestart::rejected((sys.now() - t0).ps());
        }
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        self.run(&mut emu, idx, self.lookups)
            .completed()
            .expect("trigger is Never");
        let sys = emu.into_system();
        let counts = self.peek_counts(&sys);
        let total: u64 = counts.iter().sum();
        let extra = self.lookups - idx;
        let time = (sys.now() - t0).ps();
        if total != self.lookups {
            return DirtyRestart {
                solution: None,
                extra_units: extra,
                sim_time_ps: time,
            };
        }
        DirtyRestart {
            solution: Some(counts.iter().map(|&c| c as f64).collect()),
            extra_units: extra,
            sim_time_ps: time,
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
            grids: self.grids,
            problem: self.problem.clone(),
            macro_xs: self.macro_xs,
            counters: self.counters,
            idx_cell: self.idx_cell,
            epoch_counters: self.epoch_counters,
            lookups: self.lookups,
            seed: new_seed,
            mode: self.mode,
        };
        reseeded.recover_and_resume(image, cfg, crashed_at)
    }

    /// Replay-based recovery: boot from the image, read the flushed loop
    /// index (and whatever counter values NVM holds), and re-execute the
    /// remaining lookups with the *same sampled inputs* (counter-based
    /// RNG). `crashed_at` is the lookup the crash interrupted (known to
    /// the harness), used only for loss accounting.
    pub fn recover_and_resume(
        &self,
        image: &NvmImage,
        cfg: SystemConfig,
        crashed_at: u64,
    ) -> McRecovery {
        let mut sys = MemorySystem::from_image(cfg, image);
        if matches!(self.mode, McMode::Epoch { .. }) {
            let t0 = sys.now();
            let (e_lo, e_hi) = self.epoch_counters.epochs(&mut sys);
            let resumed_from = e_lo.min(e_hi);
            let t1 = sys.now();
            self.replay_epochs(&mut sys);
            let t2 = sys.now();
            return McRecovery {
                resumed_from,
                counts: self.peek_counts(&sys),
                report: RecoveryReport {
                    detect_time: t1 - t0,
                    resume_time: t2 - t1,
                    lost_units: crashed_at.saturating_sub(resumed_from),
                    restart_unit: resumed_from,
                },
                accesses: sys.access_count(),
            };
        }
        let t0 = sys.now();
        let resumed_from = self.idx_cell.get(&mut sys);
        let t1 = sys.now();
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        // Re-execute back to the crash point (measured as resume time).
        self.run(&mut emu, resumed_from, crashed_at)
            .completed()
            .expect("trigger is Never");
        let t2 = emu.now();
        // The rest of the run only ever adds one to a counter per lookup:
        // tally it on the host instead of simulating it untimed.
        let mut counts = self.peek_counts(&emu);
        for (c, n) in counts.iter_mut().zip(self.tally_tail(image, crashed_at)) {
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
