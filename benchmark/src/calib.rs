//! Host-speed calibration for the timed repeats.
//!
//! The sandbox changes speed in steps that last minutes: measured, the same
//! `kernel-sweep` repeat took 2.9 s for three minutes and 3.9 s for the
//! next two, `paper-forward` read 47 M/s for twenty minutes and 65 M/s
//! before and after, and a second busy process makes everything 1.8x
//! slower. No statistic over a 16 s run can vote that away, and ten runs
//! that straddle a step spread wider than any bound the manifest may
//! declare.
//!
//! So every work item of a timed run is preceded by a short *slice* of a
//! fixed reference loop, and the run's host timings are scaled by
//! `median(slices) / REF`: they read as measured on a host where a slice
//! takes its reference time. The loop lives in the benchmark and touches no
//! code under test: no change to the repository can move it. Every run
//! prints and stores its slowdown and slice count, so raw = scaled rate /
//! slowdown.
//!
//! What it buys, on sets of ten 16 s runs with raw and scaled read off the
//! same runs (spread between quartiles over median): `ds-triage` 12.9 % raw,
//! 5.3 % scaled; `ds-sweep` 6.9 and 3.3; `dist-chaos` 5.7 and 2.9;
//! `paper-forward` 10.1 and 7.5 (max over min 1.49x and 1.20x). What it
//! costs: the slices carry noise of their own, so a set taken on a quiet
//! host reads a few points wider scaled than raw (`resilience-sweep` 3.4 %
//! raw, 6.1 % scaled), and one `kernel-sweep` set on a badly disturbed host
//! read 13 % raw and 18 % scaled. The worst case is what the bounds must
//! survive, and scaling lowers it.

use std::hint::black_box;
use std::time::Instant;

use crate::heap::UncountedZeroed;
use crate::stats::median;

/// What one slice takes on the reference sandbox (2 vCPU Xeon @ 2.1 GHz,
/// nothing else running), by the number of threads slicing at once.
fn ref_slice_s(threads: usize) -> f64 {
    if threads <= 1 {
        REF_SLICE_1T_S
    } else {
        REF_SLICE_2T_S
    }
}
const REF_SLICE_1T_S: f64 = 0.0052;
const REF_SLICE_2T_S: f64 = 0.0062;

const WAYS: usize = 8;
const SETS: usize = 512;

/// The branchy half of the reference loop: look a pseudo-random tag up in
/// its 8-way set and move it to the front. Short data-dependent loops and
/// unpredictable branches over an L1-sized table, like a cache model's.
fn lru_scan(tags: &mut [u64], steps: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut hits = 0;
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let tag = (x >> 20) & 0xffff;
        let set = &mut tags[(tag as usize % SETS) * WAYS..][..WAYS];
        let at = match set.iter().position(|&t| t == tag) {
            Some(at) => {
                hits += 1;
                at
            }
            None => WAYS - 1,
        };
        set.copy_within(..at, 1);
        set[0] = tag;
    }
    hits
}

/// Larger than glibc's largest mmap threshold (32 MiB), so the block is
/// mapped and unmapped on every slice wherever that threshold has drifted.
const FRESH_BLOCK_BYTES: usize = 40 << 20;
const PAGE: usize = 4096;

/// The kernel half: map a fresh zeroed block and write to `pages` of its
/// pages — page faults and page zeroing, what the pools of every crash
/// state cost the campaign workloads.
fn touch_fresh_pages(pages: usize) -> u8 {
    let mut block = UncountedZeroed::new(FRESH_BLOCK_BYTES);
    let bytes = block.bytes();
    for page in 0..pages {
        bytes[page * PAGE] = 1;
    }
    black_box(&mut *bytes)[PAGE * (pages / 2)]
}

/// The reference loop. Of the loops recorded beside the workloads (ALU
/// chains, walks over L1-, L2-, LLC-sized tables, a streaming sum, this
/// scan, this page-touch loop), these two together tracked every
/// workload's slow-downs best: on a disturbed host, 20-item windows of
/// campaign and forward times spread 8-13 % between quartiles raw, 5-9 %
/// scaled by an L1 walk (blind to whatever slows branches and the kernel
/// but not plain arithmetic) and 5 % scaled by this pair.
fn reference_loop(tags: &mut [u64]) {
    black_box(lru_scan(tags, 500_000));
    black_box(touch_fresh_pages(1536));
}

pub struct Calibrator {
    /// One tag table per slicing thread: as many threads as the workload
    /// uses, so a core that slows a worker slows a slice.
    tables: Vec<Vec<u64>>,
    slices_s: Vec<f64>,
}

impl Calibrator {
    pub fn new(threads: usize) -> Calibrator {
        Calibrator {
            tables: vec![vec![0u64; SETS * WAYS]; threads.max(1)],
            slices_s: Vec::new(),
        }
    }

    /// Take one slice: the reference loop on every thread at once, timed
    /// until the last thread is done.
    pub fn slice(&mut self) {
        let start = Instant::now();
        let (first, rest) = self
            .tables
            .split_first_mut()
            .expect("at least one slicing thread");
        std::thread::scope(|scope| {
            for tags in rest {
                scope.spawn(|| reference_loop(tags));
            }
            reference_loop(first);
        });
        self.slices_s.push(start.elapsed().as_secs_f64());
    }

    pub fn slices(&self) -> usize {
        self.slices_s.len()
    }

    pub fn median_slice_s(&self) -> f64 {
        median(&self.slices_s)
    }

    /// How much slower than the reference host this run's host was (above
    /// 1: slower). Multiply rates by it, divide times by it.
    pub fn slowdown(&self) -> f64 {
        self.median_slice_s() / ref_slice_s(self.tables.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_do_fixed_work_on_every_thread() {
        let mut c = Calibrator::new(2);
        let before = c.tables[0].clone();
        c.slice();
        c.slice();
        assert_eq!(c.slices(), 2);
        assert_ne!(c.tables[0], before, "the scan writes its table");
        assert_eq!(c.tables[0], c.tables[1], "every thread does the same work");
        assert!(c.slowdown() > 0.0);
    }

    #[test]
    fn slowdown_is_the_median_slice_over_the_reference() {
        let mut c = Calibrator::new(1);
        c.slices_s = vec![
            REF_SLICE_1T_S * 1.5,
            REF_SLICE_1T_S * 1.5,
            REF_SLICE_1T_S * 9.0,
        ];
        assert!(
            (c.slowdown() - 1.5).abs() < 1e-12,
            "one wild slice is voted out"
        );
    }
}
