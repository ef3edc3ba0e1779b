//! Cache-line constants and address arithmetic.
//!
//! Everything in the simulator is expressed in terms of 64-byte cache lines,
//! matching the granularity of `CLFLUSH` on the x86 machines the paper
//! evaluates (two Xeon E5606).

/// Size of one cache line in bytes.
pub const LINE_SIZE: usize = 64;

/// log2 of [`LINE_SIZE`].
pub const LINE_SHIFT: u32 = 6;

/// Base address (40-bit offset) at which the volatile DRAM-direct region of
/// the simulated physical address space begins. Addresses below this value
/// are homed in NVM; addresses at or above it are homed in DRAM and are lost
/// on a crash.
pub const DRAM_BASE: u64 = 1 << 40;

/// Returns the line number (address divided by the line size) containing
/// `addr`.
#[inline(always)]
pub fn line_of(addr: u64) -> u64 {
    addr >> LINE_SHIFT
}

/// Returns the byte address of the first byte of the line containing `addr`.
#[inline(always)]
pub fn line_base(addr: u64) -> u64 {
    addr & !(LINE_SIZE as u64 - 1)
}

/// Returns the offset of `addr` within its cache line.
#[inline(always)]
pub fn offset_in_line(addr: u64) -> usize {
    (addr & (LINE_SIZE as u64 - 1)) as usize
}

/// Returns true if the half-open byte range `[addr, addr + len)` lies within
/// a single cache line.
#[inline(always)]
pub fn fits_in_line(addr: u64, len: usize) -> bool {
    len == 0 || line_of(addr) == line_of(addr + len as u64 - 1)
}

/// Number of lines spanned by the half-open byte range `[addr, addr + len)`.
#[inline]
pub fn lines_spanned(addr: u64, len: usize) -> u64 {
    if len == 0 {
        return 0;
    }
    line_of(addr + len as u64 - 1) - line_of(addr) + 1
}

/// The parts of the byte span `span` that no range of `cells` covers, in
/// address order, as offsets into the span. `cells` must be ascending and
/// disjoint (a range out of order only shrinks what is left out, never
/// widens it).
pub fn outside(
    cells: &[std::ops::Range<u64>],
    span: std::ops::Range<u64>,
) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
    let mut at = span.start;
    cells
        .iter()
        .cloned()
        .chain(std::iter::once(span.end..span.end))
        .filter_map(move |cell| {
            let gap = at..cell.start.min(span.end);
            at = at.max(cell.end);
            (gap.start < gap.end)
                .then(|| (gap.start - span.start) as usize..(gap.end - span.start) as usize)
        })
}

/// Converts a line count into a byte count (telemetry helper: dirty-line
/// residency and flush tallies are kept in lines, reports print bytes).
#[inline(always)]
pub const fn lines_to_bytes(lines: u64) -> u64 {
    lines * LINE_SIZE as u64
}

/// Returns true if the address is homed in the volatile DRAM-direct region.
#[inline(always)]
pub fn is_dram_addr(addr: u64) -> bool {
    addr >= DRAM_BASE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_arithmetic_basics() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(63), 0);
        assert_eq!(line_of(64), 1);
        assert_eq!(line_base(65), 64);
        assert_eq!(offset_in_line(65), 1);
        assert_eq!(offset_in_line(64), 0);
    }

    #[test]
    fn fits_in_line_boundaries() {
        assert!(fits_in_line(0, 64));
        assert!(!fits_in_line(1, 64));
        assert!(fits_in_line(56, 8));
        assert!(!fits_in_line(60, 8));
        assert!(fits_in_line(127, 1));
        assert!(fits_in_line(12345, 0));
    }

    #[test]
    fn outside_walks_the_gaps_between_cells() {
        let gaps = |cells: &[(u64, u64)], span| {
            let cells: Vec<_> = cells.iter().map(|&(from, to)| from..to).collect();
            outside(&cells, span)
                .map(|gap| (gap.start, gap.end))
                .collect::<Vec<_>>()
        };
        assert_eq!(gaps(&[], 64..128), [(0, 64)]);
        assert_eq!(gaps(&[(0, 8), (200, 300)], 64..128), [(0, 64)]);
        assert_eq!(gaps(&[(64, 80), (96, 120)], 64..128), [(16, 32), (56, 64)]);
        // Straddling either end, abutting, and covering the whole span.
        assert_eq!(gaps(&[(60, 70), (70, 72), (120, 130)], 64..128), [(8, 56)]);
        assert!(gaps(&[(0, 1000)], 64..128).is_empty());
        assert!(gaps(&[], 64..64).is_empty());
    }

    #[test]
    fn lines_spanned_counts() {
        assert_eq!(lines_spanned(0, 0), 0);
        assert_eq!(lines_spanned(0, 1), 1);
        assert_eq!(lines_spanned(0, 64), 1);
        assert_eq!(lines_spanned(0, 65), 2);
        assert_eq!(lines_spanned(63, 2), 2);
        assert_eq!(lines_spanned(0, 640), 10);
    }

    #[test]
    fn dram_addr_split() {
        assert!(!is_dram_addr(0));
        assert!(!is_dram_addr(DRAM_BASE - 1));
        assert!(is_dram_addr(DRAM_BASE));
    }
}
