//! Cold replays read off a crash-free reference.
//!
//! A recovery or a dirty restart boots a cold machine from a crash image
//! and runs the forward loop on from the loop index the image holds. What
//! that replay charges depends on the image only through that index,
//! provided every other byte it reads is the set-up's. The bytes it may
//! differ in are its **dead cells**: `macro_xs`, which each lookup zeroes
//! before it reads it; the tallies, which it only ever reads to add one to
//! (`get + 1 -> set`), wherever any mode keeps them; and the epoch words,
//! which it writes without reading. None of them steers an address, a
//! branch or a charge. So the replays of two such images with one loop
//! index charge alike: the same clock, the same accesses and the same tally
//! *increments* on top of the tallies each booted with.
//!
//! [`ColdCheck`] is that condition, checked exactly over the delta images a
//! harvest takes: the grids bit for bit against the problem, zeros
//! everywhere else outside the dead cells and the loop index. A
//! [`ColdRecovery`] is the index-flushing modes' recovery replay itself
//! ([`McSim::index_replay`]): one built from an image the check vouches for
//! answers every such image with its loop index ([`McSim::recovery_off`]).
//! A dirty restart from `k` is that replay run to the end of the loop, so
//! any simulated restart of such an image may record its clock for every
//! other ([`McSim::restart_off`]).

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use adcc_sim::clock::SimTime;
use adcc_sim::crash::{CrashEmulator, CrashTrigger};
use adcc_sim::image::{DeltaImage, NvmImage};
use adcc_sim::line::{outside, LINE_SIZE};
use adcc_sim::parray::PArray;
use adcc_sim::system::SystemConfig;

use super::{boot, same_bits, DirtyReentry, EpochCounters, McMode, McRecovery, McSim, XS_CHANNELS};
use crate::traits::{DirtyRestart, RecoveryReport};

/// The index-flushing modes' recovery replay of one image, crash-free: the
/// loop index it booted at, the detect phase, and the machine's clock and
/// access count at every lookup boundary of its timed replay, as far as it
/// ran. (Its tallies are the host tally's: see [`McSim::recovery_off`].)
pub struct ColdRecovery {
    from: u64,
    detect_time: SimTime,
    /// The clock when the timed replay began.
    resume_began: SimTime,
    /// `at[j]`: the clock and access count after lookups `from..from + j`.
    at: Vec<(SimTime, u64)>,
}

impl McSim {
    /// Recovery in the index-flushing modes, up to `to` (at most the end of
    /// the loop): boot `image`, read the flushed loop index — the detect
    /// phase — and re-execute the lookups from there, a boundary at a time.
    /// The machine where the replay stopped, and the replay: what recovering
    /// a state crashed at `to` simulates. Built from an image [`ColdCheck`]
    /// vouches for, the replay answers every image the check vouches for
    /// that holds the same loop index ([`McSim::recovery_off`]).
    pub fn index_replay(
        &self,
        cfg: &SystemConfig,
        image: Cow<'_, NvmImage>,
        to: u64,
    ) -> (CrashEmulator, ColdRecovery) {
        let mut sys = boot(cfg, image);
        let t0 = sys.now();
        let from = self.idx_cell.get(&mut sys);
        let resume_began = sys.now();
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        let to = to.min(self.lookups);
        // Held for the process when tabled: sized exactly.
        let mut at = Vec::with_capacity(to.saturating_sub(from) as usize + 1);
        at.push((emu.now(), emu.access_count()));
        for i in from..to {
            self.run(&mut emu, i, i + 1)
                .completed()
                .expect("trigger is Never");
            at.push((emu.now(), emu.access_count()));
        }
        let replay = ColdRecovery {
            from,
            detect_time: resume_began - t0,
            resume_began,
            at,
        };
        (emu, replay)
    }

    /// The dead cells (see the module docs), ascending: `macro_xs`, the
    /// tallies of both layouts and the epoch words. Neither layout is
    /// touched in the other's modes.
    pub(super) fn dead_cells(&self) -> Vec<Range<u64>> {
        let (lo, hi) = (&self.epoch_counters.lo, &self.epoch_counters.hi);
        let mut ranges = vec![
            span(&self.macro_xs),
            span(&self.counters),
            span(lo),
            span(hi),
        ];
        ranges.sort_unstable_by_key(|r| r.start);
        ranges
    }

    /// [`McSim::dead_cells`] and the loop index, ascending.
    fn dead_and_index(&self) -> Vec<Range<u64>> {
        let idx = self.idx_cell.addr();
        let mut ranges = self.dead_cells();
        ranges.push(idx..idx + 8);
        ranges.sort_unstable_by_key(|r| r.start);
        ranges
    }

    /// Whether `image` is this run's set-up image — the problem's grids bit
    /// for bit, zeros elsewhere — outside the dead cells and the loop index:
    /// whether its cold replay charges as every such image's with its loop
    /// index does. Exact; one pass over the image's written prefix.
    /// [`ColdCheck`] asks it of each harvest's base.
    fn is_cold(&self, image: &NvmImage) -> bool {
        let view = |arr: &PArray<f64>| image.view(arr.base(), arr.byte_len());
        let prefix = image.prefix();
        // Every address range the loop's state occupies, ascending.
        let mut layout = self.dead_and_index();
        layout.extend([span(&self.grids.energy), span(&self.grids.xs)]);
        layout.sort_unstable_by_key(|r| r.start);
        same_bits(&view(&self.grids.energy), &self.problem.energy)
            && same_bits(&view(&self.grids.xs), &self.problem.xs)
            && outside(&layout, 0..prefix.len() as u64)
                .all(|gap| prefix[gap].iter().all(|&b| b == 0))
    }

    /// The tallies `read` finds in this mode's counters: what
    /// [`McSim::peek_counts`] reads on a machine booted from that image.
    fn image_counts(&self, read: impl Fn(u64) -> u64) -> [u64; XS_CHANNELS] {
        let (lo, hi) = (&self.epoch_counters.lo, &self.epoch_counters.hi);
        std::array::from_fn(|t| {
            read(match self.mode {
                McMode::Epoch { .. } if t < EpochCounters::LO => lo.addr(t),
                McMode::Epoch { .. } => hi.addr(t - EpochCounters::LO),
                _ => self.counters.addr(t),
            })
        })
    }

    /// Recovery in the index-flushing modes: re-execute `[flushed index,
    /// crashed_at)` timed, tally the rest of the run on the host.
    pub(super) fn recover_to_crash_point(
        &self,
        image: Cow<'_, NvmImage>,
        cfg: &SystemConfig,
        crashed_at: u64,
    ) -> McRecovery {
        // The rest of the run only ever adds one to a counter per lookup:
        // tally it on the host instead of simulating it untimed — from the
        // image's own grids, so before the machine takes the image over.
        let tail = self.tally_tail(&image, crashed_at);
        let (emu, replay) = self.index_replay(cfg, image, crashed_at);
        let mut counts = self.peek_counts(&emu);
        for (c, n) in counts.iter_mut().zip(tail) {
            *c += n;
        }
        let end = *replay.at.last().expect("the boundary it booted at");
        replay.answer(end, crashed_at, counts)
    }

    /// [`McSim::recover_and_resume`] of `image` to `crashed_at`, read off
    /// `reference` — for an image [`ColdCheck`] vouches for (the caller
    /// checks) that holds the loop index `reference` starts from, crashed
    /// where it [reaches](ColdRecovery::reaches); `None` otherwise. Its
    /// counts take in the timed replay's increments and the untimed tail's
    /// alike (`counts_off`).
    pub fn recovery_off(
        &self,
        reference: &ColdRecovery,
        image: &DeltaImage,
        crashed_at: u64,
    ) -> Option<McRecovery> {
        let from = image.read_u64(self.idx_cell.addr());
        if from != reference.from {
            return None;
        }
        let &end = reference
            .at
            .get(usize::try_from(crashed_at.checked_sub(from)?).ok()?)?;
        Some(reference.answer(end, crashed_at, self.counts_off(image, from)))
    }

    /// [`McSim::dirty_restart`] of an `image` [`ColdCheck`] vouches for,
    /// given `sim_time_ps`: the clock of a simulated restart of any image it
    /// vouches for from the loop index `image` holds (the caller checks
    /// both). Its tallies end as far above that restart's as they booted,
    /// and the count-total audit is evaluated on those.
    pub fn restart_off(&self, sim_time_ps: u64, image: &DeltaImage) -> DirtyRestart {
        let from = image.read_u64(self.idx_cell.addr());
        DirtyReentry::audit(self, from, sim_time_ps, self.counts_off(image, from))
    }

    /// The tallies a cold replay of `image` from loop index `from` ends the
    /// loop with: the image's own plus what lookups `[from, lookups)` add,
    /// the host tally of the image's grids, which are its base's and the
    /// problem's.
    fn counts_off(&self, image: &DeltaImage, from: u64) -> [u64; XS_CHANNELS] {
        let mut counts = self.image_counts(|addr| image.read_u64(addr));
        for (c, t) in counts.iter_mut().zip(self.tally_tail(image.base(), from)) {
            *c += t;
        }
        counts
    }
}

/// Whether delta images of one harvest are their run's set-up image outside
/// the dead cells and the loop index (see the module docs): each distinct
/// base checked once, bit for bit, and then each delta's lines against it.
pub struct ColdCheck<'a> {
    mc: &'a McSim,
    free: Vec<Range<u64>>,
    /// The last base checked, and its verdict.
    base: Option<(Arc<NvmImage>, bool)>,
}

impl ColdRecovery {
    /// Whether it answers a state crashed at `crashed_at`: from where it
    /// starts to as far as it was built.
    pub fn reaches(&self, crashed_at: u64) -> bool {
        crashed_at
            .checked_sub(self.from)
            .is_some_and(|j| j < self.at.len() as u64)
    }

    /// Whether it and `other` replayed alike as far as both ran: the loop
    /// index, the detect phase, where the timed replay began and the clock
    /// and access count at every boundary.
    pub fn agrees_with(&self, other: &ColdRecovery) -> bool {
        (self.from, self.detect_time, self.resume_began)
            == (other.from, other.detect_time, other.resume_began)
            && self.at.iter().zip(&other.at).all(|(a, b)| a == b)
    }

    /// The recovery of a state crashed at `crashed_at`, read off the
    /// boundary `(time, accesses)` of this replay, its tallies ending at
    /// `counts`.
    fn answer(
        &self,
        (time, accesses): (SimTime, u64),
        crashed_at: u64,
        counts: [u64; XS_CHANNELS],
    ) -> McRecovery {
        McRecovery {
            resumed_from: self.from,
            counts,
            report: RecoveryReport {
                detect_time: self.detect_time,
                resume_time: time - self.resume_began,
                lost_units: crashed_at.saturating_sub(self.from),
                restart_unit: self.from,
            },
            accesses,
        }
    }
}

impl<'a> ColdCheck<'a> {
    pub fn new(mc: &'a McSim) -> Self {
        ColdCheck {
            mc,
            free: mc.dead_and_index(),
            base: None,
        }
    }

    /// Whether `image` is `mc`'s set-up image outside the dead cells and the
    /// loop index.
    pub fn is_cold(&mut self, image: &DeltaImage) -> bool {
        let base = image.base();
        let base_cold = match &self.base {
            Some((checked, cold)) if Arc::ptr_eq(checked, base) => *cold,
            _ => {
                let cold = self.mc.is_cold(base);
                self.base = Some((Arc::clone(base), cold));
                cold
            }
        };
        base_cold
            && image.delta_lines().all(|(line, bytes)| {
                let start = line * LINE_SIZE as u64;
                let mut held = [0; LINE_SIZE];
                base.read_bytes(start, &mut held);
                outside(&self.free, start..start + LINE_SIZE as u64)
                    .all(|gap| bytes[gap.clone()] == held[gap])
            })
    }
}

/// The address range `arr` occupies.
fn span<T: adcc_sim::parray::Pod>(arr: &PArray<T>) -> Range<u64> {
    arr.base()..arr.base() + arr.byte_len() as u64
}
