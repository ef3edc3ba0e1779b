//! The NVM performance model.
//!
//! The paper emulates NVM with Quartz (a DRAM-based emulator that throttles
//! bandwidth and inflates latency) and configures NVM at 1/8 the DRAM
//! bandwidth (and, per its cited sources, up to 4x the latency). We replace
//! Quartz with a deterministic cost model: every cache miss, write-back,
//! flush, fence and floating-point operation charges picoseconds from a
//! [`MediaTiming`]/[`PlatformTiming`] table onto the simulated clock.
//!
//! Two details matter for reproducing the paper's overhead ratios:
//!
//! * **Stream prefetching.** Sequential misses to DRAM are amortized by
//!   hardware prefetchers on real machines, so DRAM-level streaming charges
//!   only the line-transfer cost; PCM-like NVM (and Quartz's per-miss delay
//!   injection) is latency-bound, so NVM misses charge full latency unless
//!   the preset enables prefetch for NVM too (the paper's "NVM performs the
//!   same as DRAM" configuration).
//! * **Fences.** Persist ordering (`SFENCE` after `CLFLUSH`) stalls the
//!   pipeline; logging approaches issue them per-range and pay dearly.

use serde::Serialize;

/// Timing parameters of one memory medium (DRAM or an NVM technology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct MediaTiming {
    /// Access latency for a read miss, in picoseconds.
    pub read_lat_ps: u64,
    /// Access latency for a write (write-back of one line), in picoseconds.
    pub write_lat_ps: u64,
    /// Per-line transfer time (64 bytes over the medium's bandwidth), in
    /// picoseconds.
    pub line_transfer_ps: u64,
    /// Whether sequential-stream misses to this medium are prefetched
    /// (charge transfer only, not latency).
    pub prefetch: bool,
}

impl MediaTiming {
    /// DDR3-class DRAM: ~80 ns access, ~12.8 GB/s per channel
    /// (64 B / 12.8 GB/s = 5 ns per line), prefetch-friendly.
    pub const fn dram() -> Self {
        MediaTiming {
            read_lat_ps: 80_000,
            write_lat_ps: 80_000,
            line_transfer_ps: 5_000,
            prefetch: true,
        }
    }

    /// PCM-like NVM at the paper's configuration: 4x DRAM latency and 1/8
    /// DRAM bandwidth, with no effective prefetching (Quartz injects the
    /// full extra latency per miss).
    pub const fn pcm_like() -> Self {
        MediaTiming {
            read_lat_ps: 320_000,
            write_lat_ps: 320_000,
            line_transfer_ps: 40_000,
            prefetch: false,
        }
    }

    /// The paper's optimistic configuration: NVM with the same bandwidth and
    /// latency as DRAM ("with this configuration, NVM is the same as DRAM").
    pub const fn nvm_as_dram() -> Self {
        MediaTiming::dram()
    }

    /// Cost of one line read miss given whether it continued a sequential
    /// stream.
    #[inline]
    pub fn read_cost(&self, stream_hit: bool) -> u64 {
        if stream_hit && self.prefetch {
            self.line_transfer_ps
        } else {
            self.read_lat_ps + self.line_transfer_ps
        }
    }

    /// Cost of one line write-back given whether it continued a sequential
    /// stream.
    #[inline]
    pub fn write_cost(&self, stream_hit: bool) -> u64 {
        if stream_hit && self.prefetch {
            self.line_transfer_ps
        } else {
            self.write_lat_ps + self.line_transfer_ps
        }
    }
}

/// Timing parameters of the rotating-disk checkpoint target (paper test
/// case 2: "checkpoint based on a local hard drive").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct HddTiming {
    /// Positioning (seek + rotational) latency charged once per checkpoint
    /// write, in picoseconds.
    pub seek_ps: u64,
    /// Sequential bandwidth in bytes per microsecond (= MB/s).
    pub bytes_per_us: u64,
}

impl HddTiming {
    /// A local 7200 rpm drive: ~2 ms average positioning for short bursts of
    /// sequential appends, ~150 MB/s sequential bandwidth.
    pub const fn local_disk() -> Self {
        HddTiming {
            seek_ps: 2_000_000_000,
            bytes_per_us: 150,
        }
    }

    /// Cost of one contiguous write of `bytes`.
    #[inline]
    pub fn write_cost_ps(&self, bytes: u64) -> u64 {
        self.seek_ps + bytes * 1_000_000 / self.bytes_per_us
    }
}

/// Full platform cost table used by [`crate::system::MemorySystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PlatformTiming {
    /// Cost charged for every element access (address generation + L1
    /// pipeline), in picoseconds.
    pub cpu_access_ps: u64,
    /// DRAM medium timing (used for the DRAM-direct region and for the DRAM
    /// cache level in the heterogeneous platform).
    pub dram: MediaTiming,
    /// NVM medium timing.
    pub nvm: MediaTiming,
    /// Instruction overhead of one `CLFLUSH`, excluding the write-back
    /// traffic it causes, in picoseconds.
    pub clflush_ps: u64,
    /// Instruction overhead of one `CLFLUSHOPT`: unordered with respect to
    /// other flushes, so the per-instruction stall is much smaller than
    /// serializing `CLFLUSH` (the paper notes using it "should further
    /// improve performance"), in picoseconds.
    pub clflushopt_ps: u64,
    /// Instruction overhead of one `CLWB`: like `CLFLUSHOPT` but the line
    /// stays resident (clean), so re-reads after persisting stay hits, in
    /// picoseconds.
    pub clwb_ps: u64,
    /// Cost of one `SFENCE` (persist barrier), in picoseconds.
    pub sfence_ps: u64,
    /// Cost of one double-precision floating-point operation, in
    /// picoseconds.
    pub flop_ps: u64,
    /// Per-line directory-scan cost charged when draining the DRAM cache
    /// (the heterogeneous checkpoint must walk the whole cache to find
    /// dirty lines), in picoseconds.
    pub dram_drain_scan_ps: u64,
}

impl PlatformTiming {
    /// The paper's "NVM-only" system: NVM with DRAM's performance, no DRAM
    /// cache in front.
    pub const fn nvm_only_dram_speed() -> Self {
        PlatformTiming {
            cpu_access_ps: 1_000,
            dram: MediaTiming::dram(),
            nvm: MediaTiming::nvm_as_dram(),
            clflush_ps: 20_000,
            clflushopt_ps: 6_000,
            clwb_ps: 6_000,
            sfence_ps: 100_000,
            flop_ps: 500,
            dram_drain_scan_ps: 2_500,
        }
    }

    /// The paper's heterogeneous NVM/DRAM system: PCM-like NVM (1/8
    /// bandwidth, 4x latency) with a volatile DRAM cache bridging the gap.
    pub const fn heterogeneous() -> Self {
        PlatformTiming {
            cpu_access_ps: 1_000,
            dram: MediaTiming::dram(),
            nvm: MediaTiming::pcm_like(),
            clflush_ps: 20_000,
            clflushopt_ps: 6_000,
            clwb_ps: 6_000,
            sfence_ps: 100_000,
            flop_ps: 500,
            dram_drain_scan_ps: 2_500,
        }
    }
}

/// A small next-line stream detector modelling hardware prefetch. Tracks the
/// last few miss streams; a miss that continues one of them is a "stream
/// hit" and is charged transfer-only by prefetch-capable media.
#[derive(Debug, Clone)]
pub struct StreamDetector {
    streams: [u64; Self::WAYS],
    next: usize,
}

impl StreamDetector {
    const WAYS: usize = 8;

    /// Detector with no active streams.
    pub fn new() -> Self {
        StreamDetector {
            streams: [u64::MAX - 1; Self::WAYS],
            next: 0,
        }
    }

    /// Record a miss to `line` and report whether it continued (or repeated
    /// the head of) an active stream.
    #[inline]
    pub fn note(&mut self, line: u64) -> bool {
        for s in &mut self.streams {
            if line == s.wrapping_add(1) || line == *s {
                *s = line;
                return true;
            }
        }
        self.streams[self.next] = line;
        self.next = (self.next + 1) % Self::WAYS;
        false
    }

    /// Whether every later [`StreamDetector::note`] answers the same on
    /// both detectors. The scan takes the first matching way and the ring
    /// replaces by position, so a rotated ring is *not* equivalent: the
    /// comparison is positional.
    pub(crate) fn same_future(&self, other: &Self) -> bool {
        self.streams == other.streams && self.next == other.next
    }

    /// Forget all streams (e.g. across a crash).
    pub fn reset(&mut self) {
        *self = StreamDetector::new();
    }
}

impl Default for StreamDetector {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_prefetch_amortizes_streams() {
        let d = MediaTiming::dram();
        assert!(d.read_cost(true) < d.read_cost(false));
        assert_eq!(d.read_cost(true), d.line_transfer_ps);
        assert_eq!(d.read_cost(false), d.read_lat_ps + d.line_transfer_ps);
    }

    #[test]
    fn pcm_is_latency_bound_even_for_streams() {
        let p = MediaTiming::pcm_like();
        assert_eq!(p.read_cost(true), p.read_cost(false));
        assert_eq!(p.read_cost(false), p.read_lat_ps + p.line_transfer_ps);
    }

    #[test]
    fn pcm_matches_paper_ratios() {
        let d = MediaTiming::dram();
        let p = MediaTiming::pcm_like();
        assert_eq!(p.read_lat_ps, 4 * d.read_lat_ps);
        assert_eq!(p.line_transfer_ps, 8 * d.line_transfer_ps);
    }

    #[test]
    fn stream_detector_tracks_sequences() {
        let mut s = StreamDetector::new();
        assert!(!s.note(100));
        assert!(s.note(101));
        assert!(s.note(102));
        assert!(s.note(102)); // repeated line = row-buffer hit
        assert!(!s.note(200));
        // 103 continues the first stream (still tracked in another way).
        assert!(s.note(103));
    }

    #[test]
    fn stream_detector_handles_interleaved_streams() {
        let mut s = StreamDetector::new();
        s.note(10);
        s.note(500);
        s.note(9000);
        assert!(s.note(11));
        assert!(s.note(501));
        assert!(s.note(9001));
    }

    #[test]
    fn hdd_cost_is_seek_plus_bandwidth() {
        let h = HddTiming::local_disk();
        let one_mb = h.write_cost_ps(1 << 20);
        assert!(one_mb > h.seek_ps);
        // 1 MiB at 150 MB/s is ~7 ms; with 2 ms seek total is below 10 ms.
        assert!(one_mb < 10_000_000_000);
    }
}
