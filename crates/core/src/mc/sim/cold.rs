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
//! branch or a charge. So the replay of such an image is the replay of the
//! set-up image with that loop index: the same clock, the same accesses and
//! the same tally *increments* on top of the tallies it booted with.
//!
//! A dirty restart from loop index `k` is that replay too, run to the end
//! of the loop: it boots the same image, reads the index once and runs the
//! loop on, one `McSim::run(i, i + 1)` at a time, as the index-flushing
//! modes' recovery does. So its clock is one number per `k`, and any
//! simulated restart of such an image from `k` may record it.
//!
//! [`ColdCheck`] is that condition, checked exactly over the delta images a
//! harvest takes: the grids bit for bit against the problem, zeros
//! everywhere else outside the dead cells and the loop index. A
//! [`ColdRecovery`] is the crash-free recovery reference, built by the
//! simulated code path it stands in for, from the set-up image itself. No
//! image is held: the set-up image is the problem's grids plus zeros. A
//! restart needs no reference but its recorded clock
//! ([`McSim::restart_off`]).

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use adcc_sim::clock::SimTime;
use adcc_sim::image::{DeltaImage, NvmImage};
use adcc_sim::line::{outside, LINE_SIZE};
use adcc_sim::parray::PArray;
use adcc_sim::system::SystemConfig;

use super::{same_bits, DirtyReentry, EpochCounters, McMode, McRecovery, McSim, XS_CHANNELS};
use crate::traits::{DirtyRestart, RecoveryReport};

/// What the cold replay of the set-up image with the loop index at `from`
/// did, crash-free: the detect phase, and the machine's clock and access
/// count at every lookup boundary of its timed replay, up to the crash point
/// it was built for. (Its tallies are the host tally's: see
/// [`McSim::recovery_off`].)
pub struct ColdRecovery {
    from: u64,
    detect_time: SimTime,
    /// The clock when the timed replay began.
    resume_began: SimTime,
    /// `at[j]`: the clock and access count after lookups `from..from + j`.
    at: Vec<(SimTime, u64)>,
}

impl McSim {
    /// The set-up image with the loop index at `idx`: the problem's grids,
    /// zeros elsewhere.
    pub(super) fn setup_image(&self, cfg: &SystemConfig, idx: u64) -> NvmImage {
        let ranges = self.layout();
        let end = ranges.iter().map(|r| r.end).max().unwrap_or(0);
        let mut bytes = vec![0; end as usize];
        for (arr, words) in [
            (&self.grids.energy, &self.problem.energy),
            (&self.grids.xs, &self.problem.xs),
        ] {
            let at = arr.base() as usize;
            for (dst, w) in bytes[at..at + arr.byte_len()]
                .chunks_exact_mut(8)
                .zip(words.iter())
            {
                dst.copy_from_slice(&w.to_le_bytes());
            }
        }
        let at = self.idx_cell.addr() as usize;
        bytes[at..at + 8].copy_from_slice(&idx.to_le_bytes());
        NvmImage::new(bytes, cfg.nvm_capacity)
    }

    /// Every address range the loop's state occupies, ascending: the two
    /// grids, then [`McSim::dead_and_index`]'s.
    fn layout(&self) -> Vec<Range<u64>> {
        let mut ranges = self.dead_and_index();
        ranges.extend([span(&self.grids.energy), span(&self.grids.xs)]);
        ranges.sort_unstable_by_key(|r| r.start);
        ranges
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
    /// whether a cold replay from it replays as one from the set-up image
    /// with its loop index does. Exact; one pass over the image's written
    /// prefix. [`ColdCheck`] asks it of each harvest's base.
    fn is_cold(&self, image: &NvmImage) -> bool {
        let view = |arr: &PArray<f64>| image.view(arr.base(), arr.byte_len());
        let prefix = image.prefix();
        same_bits(&view(&self.grids.energy), &self.problem.energy)
            && same_bits(&view(&self.grids.xs), &self.problem.xs)
            && outside(&self.layout(), 0..prefix.len() as u64)
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

    /// The crash-free cold replay of the set-up image with the loop index at
    /// `from`, to every crash point up to `to` (at most the end of the
    /// loop): the index-flushing modes' recovery, a boundary at a time.
    /// Building it to `to` simulates what recovering one state crashed at
    /// `to` does.
    pub fn cold_recovery(&self, cfg: &SystemConfig, from: u64, to: u64) -> ColdRecovery {
        let image = self.setup_image(cfg, from);
        let (mut emu, resumed_from, detect_time) = self.reboot_at_index(cfg, Cow::Owned(image));
        debug_assert_eq!(resumed_from, from);
        let resume_began = emu.now();
        // Held for the process: sized exactly, not grown by doubling.
        let lookups = from..to.min(self.lookups);
        let mut at = Vec::with_capacity(lookups.clone().count() + 1);
        at.push((emu.now(), emu.access_count()));
        for i in lookups {
            self.run(&mut emu, i, i + 1)
                .completed()
                .expect("trigger is Never");
            at.push((emu.now(), emu.access_count()));
        }
        ColdRecovery {
            from,
            detect_time,
            resume_began,
            at,
        }
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
        let &(time, accesses) = reference
            .at
            .get(usize::try_from(crashed_at.checked_sub(from)?).ok()?)?;
        Some(McRecovery {
            resumed_from: from,
            counts: self.counts_off(image, from),
            report: RecoveryReport {
                detect_time: reference.detect_time,
                resume_time: time - reference.resume_began,
                lost_units: crashed_at - from,
                restart_unit: from,
            },
            accesses,
        })
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
