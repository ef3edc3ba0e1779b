//! Deterministic simulated clock with named cost buckets.
//!
//! All costs are integer picoseconds, so simulated times are exactly
//! reproducible across runs and platforms (no floating-point accumulation).
//! The buckets let experiment runners answer questions such as the paper's
//! "51.9% of the checkpoint overhead comes from data copying and 48.1% from
//! cache flushing".

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or duration of) simulated time, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Hash)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The zero instant/duration.
    pub const ZERO: SimTime = SimTime(0);

    /// Exact picoseconds.
    #[inline]
    pub fn ps(self) -> u64 {
        self.0
    }

    /// Value in nanoseconds (lossy, display only).
    #[inline]
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Value in microseconds (lossy, display only).
    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Value in milliseconds (lossy, display only).
    #[inline]
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Value in seconds (lossy, display only).
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= 1_000_000_000_000 {
            write!(f, "{:.3} s", self.as_secs())
        } else if ps >= 1_000_000_000 {
            write!(f, "{:.3} ms", self.as_ms())
        } else if ps >= 1_000_000 {
            write!(f, "{:.3} us", self.as_us())
        } else {
            write!(f, "{:.3} ns", self.as_ns())
        }
    }
}

/// Cost attribution buckets. Every charge lands in exactly one bucket (the
/// one currently selected on the clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Bucket {
    /// Arithmetic (FLOPs and integer ops charged by the application).
    Compute = 0,
    /// Demand memory traffic of the algorithm itself.
    Memory = 1,
    /// Checkpoint data copying.
    CkptCopy = 2,
    /// Cache flushing (CLFLUSH traffic and DRAM-cache draining).
    Flush = 3,
    /// Persist barriers (SFENCE).
    Fence = 4,
    /// Undo/redo-log traffic and bookkeeping.
    Log = 5,
    /// I/O device time (HDD checkpoints).
    Io = 6,
    /// Network fabric time: message transfer and synchronization waits in
    /// multi-rank executions (`adcc::dist`).
    Network = 7,
    /// Post-crash work: deciding where to restart.
    Detect = 8,
    /// Post-crash work: re-executing lost computation.
    Resume = 9,
    /// Anything else.
    Other = 10,
}

impl Bucket {
    /// Number of buckets.
    pub const COUNT: usize = 11;

    /// Every bucket, in `Bucket as usize` order.
    pub const ALL: [Bucket; Bucket::COUNT] = [
        Bucket::Compute,
        Bucket::Memory,
        Bucket::CkptCopy,
        Bucket::Flush,
        Bucket::Fence,
        Bucket::Log,
        Bucket::Io,
        Bucket::Network,
        Bucket::Detect,
        Bucket::Resume,
        Bucket::Other,
    ];

    /// Stable identifier used in tables and reports.
    pub fn name(self) -> &'static str {
        match self {
            Bucket::Compute => "compute",
            Bucket::Memory => "memory",
            Bucket::CkptCopy => "ckpt-copy",
            Bucket::Flush => "flush",
            Bucket::Fence => "fence",
            Bucket::Log => "log",
            Bucket::Io => "io",
            Bucket::Network => "network",
            Bucket::Detect => "detect",
            Bucket::Resume => "resume",
            Bucket::Other => "other",
        }
    }
}

/// The simulated clock: a monotone total plus a per-bucket breakdown.
#[derive(Debug, Clone)]
pub struct SimClock {
    now_ps: u64,
    current: Bucket,
    buckets: [u64; Bucket::COUNT],
}

impl SimClock {
    /// A zeroed clock charging to [`Bucket::Memory`].
    pub fn new() -> Self {
        SimClock {
            now_ps: 0,
            current: Bucket::Memory,
            buckets: [0; Bucket::COUNT],
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        SimTime(self.now_ps)
    }

    /// Charge `ps` picoseconds to the currently-selected bucket.
    #[inline]
    pub fn charge(&mut self, ps: u64) {
        self.now_ps += ps;
        self.buckets[self.current as usize] += ps;
    }

    /// Charge `ps` picoseconds to an explicit bucket.
    #[inline]
    pub fn charge_to(&mut self, bucket: Bucket, ps: u64) {
        self.now_ps += ps;
        self.buckets[bucket as usize] += ps;
    }

    /// Select the bucket that subsequent [`SimClock::charge`] calls hit.
    /// Returns the previously-selected bucket so callers can restore it.
    #[inline]
    pub fn set_bucket(&mut self, bucket: Bucket) -> Bucket {
        std::mem::replace(&mut self.current, bucket)
    }

    /// Currently-selected bucket.
    #[inline]
    pub fn bucket(&self) -> Bucket {
        self.current
    }

    /// Total time charged to `bucket`.
    #[inline]
    pub fn bucket_total(&self, bucket: Bucket) -> SimTime {
        SimTime(self.buckets[bucket as usize])
    }

    /// Snapshot of every bucket's total, indexed by `Bucket as usize`.
    /// Telemetry probes diff two snapshots to attribute an execution
    /// window's time to flush/fence/log work.
    #[inline]
    pub fn bucket_totals(&self) -> [u64; Bucket::COUNT] {
        self.buckets
    }

    /// Reset the clock to zero (all buckets cleared).
    pub fn reset(&mut self) {
        *self = SimClock::new();
    }
}

impl Default for SimClock {
    fn default() -> Self {
        Self::new()
    }
}

/// RAII guard switching the clock bucket for a scope.
pub struct BucketGuard<'a> {
    clock: &'a mut SimClock,
    prev: Bucket,
}

impl<'a> BucketGuard<'a> {
    /// Switch `clock` to `bucket` until the guard drops.
    pub fn new(clock: &'a mut SimClock, bucket: Bucket) -> Self {
        let prev = clock.set_bucket(bucket);
        BucketGuard { clock, prev }
    }
}

impl Drop for BucketGuard<'_> {
    fn drop(&mut self) {
        self.clock.set_bucket(self.prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_in_buckets() {
        let mut c = SimClock::new();
        c.set_bucket(Bucket::Compute);
        c.charge(10);
        c.set_bucket(Bucket::Flush);
        c.charge(5);
        c.charge_to(Bucket::Fence, 3);
        assert_eq!(c.now(), SimTime(18));
        assert_eq!(c.bucket_total(Bucket::Compute), SimTime(10));
        assert_eq!(c.bucket_total(Bucket::Flush), SimTime(5));
        assert_eq!(c.bucket_total(Bucket::Fence), SimTime(3));
    }

    #[test]
    fn bucket_totals_sum_to_now() {
        let mut c = SimClock::new();
        for (i, b) in Bucket::ALL.iter().enumerate() {
            c.charge_to(*b, (i as u64 + 1) * 7);
        }
        let sum: u64 = Bucket::ALL.iter().map(|b| c.bucket_total(*b).ps()).sum();
        assert_eq!(sum, c.now().ps());
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimTime(1_500)), "1.500 ns");
        assert_eq!(format!("{}", SimTime(2_500_000)), "2.500 us");
        assert_eq!(format!("{}", SimTime(3_000_000_000)), "3.000 ms");
        assert_eq!(format!("{}", SimTime(4_200_000_000_000)), "4.200 s");
    }

    #[test]
    fn set_bucket_returns_previous() {
        let mut c = SimClock::new();
        let prev = c.set_bucket(Bucket::Log);
        assert_eq!(prev, Bucket::Memory);
        assert_eq!(c.bucket(), Bucket::Log);
    }

    #[test]
    fn bucket_guard_restores() {
        let mut c = SimClock::new();
        c.set_bucket(Bucket::Compute);
        {
            let g = BucketGuard::new(&mut c, Bucket::Io);
            g.clock.charge(4);
        }
        assert_eq!(c.bucket(), Bucket::Compute);
        assert_eq!(c.bucket_total(Bucket::Io), SimTime(4));
    }
}
