//! Typed views over simulated memory.
//!
//! A [`PArray<T>`] is a handle (base address + length) to an array living in
//! the simulated address space; every `get`/`set` routes through the cache
//! hierarchy of a [`MemorySystem`] and is charged on the simulated clock.
//! Handles are `Copy` and do not borrow the system, so algorithms pass
//! `&mut MemorySystem` explicitly — mirroring how the paper's applications
//! address NVM directly.

use std::marker::PhantomData;
use std::ops::Range;

use crate::line::LINE_SIZE;
use crate::system::MemorySystem;

/// Plain-old-data element types that can live in simulated memory.
///
/// Implementations serialize as little-endian fixed-width bytes so that the
/// NVM image is well-defined and portable.
pub trait Pod: Copy + Default + 'static {
    /// Encoded size in bytes.
    const SIZE: usize;
    /// Encode into `out[..SIZE]`.
    fn to_bytes(self, out: &mut [u8]);
    /// Decode from `inp[..SIZE]`.
    fn from_bytes(inp: &[u8]) -> Self;
}

macro_rules! impl_pod {
    ($($t:ty),*) => {$(
        impl Pod for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            #[inline(always)]
            fn to_bytes(self, out: &mut [u8]) {
                out[..Self::SIZE].copy_from_slice(&self.to_le_bytes());
            }
            #[inline(always)]
            fn from_bytes(inp: &[u8]) -> Self {
                let mut b = [0u8; std::mem::size_of::<$t>()];
                b.copy_from_slice(&inp[..Self::SIZE]);
                <$t>::from_le_bytes(b)
            }
        }
    )*};
}

impl_pod!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

/// A typed array in simulated memory.
pub struct PArray<T: Pod> {
    base: u64,
    len: usize,
    _m: PhantomData<T>,
}

// Manual Copy/Clone: `derive` would bound on `T: Copy` needlessly.
impl<T: Pod> Clone for PArray<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Pod> Copy for PArray<T> {}

impl<T: Pod> PArray<T> {
    /// View `len` elements at `base`. Callers obtain `base` from the
    /// system's allocator.
    pub fn new(base: u64, len: usize) -> Self {
        PArray {
            base,
            len,
            _m: PhantomData,
        }
    }

    /// Allocate a fresh line-aligned persistent array.
    pub fn alloc_nvm(sys: &mut MemorySystem, len: usize) -> Self {
        let base = sys.alloc_nvm(len * T::SIZE);
        PArray::new(base, len)
    }

    /// Allocate a fresh line-aligned volatile array.
    pub fn alloc_dram(sys: &mut MemorySystem, len: usize) -> Self {
        let base = sys.alloc_dram(len * T::SIZE);
        PArray::new(base, len)
    }

    #[inline]
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    /// Whether the array has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base simulated address.
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Size of the array in bytes.
    #[inline]
    pub fn byte_len(&self) -> usize {
        self.len * T::SIZE
    }

    /// Address of element `i`.
    #[inline]
    pub fn addr(&self, i: usize) -> u64 {
        debug_assert!(i < self.len, "index {i} out of bounds {}", self.len);
        self.base + (i * T::SIZE) as u64
    }

    /// Charged element read.
    #[inline]
    pub fn get(&self, sys: &mut MemorySystem, i: usize) -> T {
        let mut buf = [0u8; 16];
        sys.read_bytes(self.addr(i), &mut buf[..T::SIZE]);
        T::from_bytes(&buf)
    }

    /// Charged element write.
    #[inline]
    pub fn set(&self, sys: &mut MemorySystem, i: usize, v: T) {
        let mut buf = [0u8; 16];
        v.to_bytes(&mut buf);
        sys.write_bytes(self.addr(i), &buf[..T::SIZE]);
    }

    /// Charged fill of the whole array.
    pub fn fill(&self, sys: &mut MemorySystem, v: T) {
        self.store_span(sys, |_| v);
    }

    /// Charged bulk store from a host slice.
    pub fn store_slice(&self, sys: &mut MemorySystem, src: &[T]) {
        assert_eq!(src.len(), self.len, "slice length mismatch");
        self.store_span(sys, |i| src[i]);
    }

    /// Charged bulk load into a host vector.
    pub fn load_vec(&self, sys: &mut MemorySystem) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len);
        load_span(sys, [*self], |_, [v]| out.push(v));
        out
    }

    /// Charged `self[i] = f(i)` for every `i` in order: what
    /// [`PArray::set`] in a loop charges and leaves, paid per line (see
    /// [`span`]).
    pub fn store_span(&self, sys: &mut MemorySystem, mut f: impl FnMut(usize) -> T) {
        sys.span([], [self.base], self.len, |i, []| [f(i)]);
    }

    /// Uncharged initialization directly into the backing store ("input
    /// data already resident in NVM").
    pub fn seed_slice(&self, sys: &mut MemorySystem, src: &[T]) {
        assert_eq!(src.len(), self.len, "slice length mismatch");
        let mut bytes = vec![0u8; self.byte_len()];
        for (i, v) in src.iter().enumerate() {
            v.to_bytes(&mut bytes[i * T::SIZE..]);
        }
        sys.seed_bytes(self.base, &bytes);
    }

    /// Uncharged logical peek of element `i` (sees cached values).
    pub fn peek(&self, sys: &MemorySystem, i: usize) -> T {
        let mut buf = [0u8; 16];
        sys.peek_bytes(self.addr(i), &mut buf[..T::SIZE]);
        T::from_bytes(&buf)
    }

    /// Uncharged logical peek of the elements in `range`, appended to
    /// `out` in order: exactly what [`PArray::peek`] of each returns, but
    /// gathered a line at a time — [`MemorySystem::peek_bytes`] probes each
    /// line once — rather than one probe and line copy per element.
    pub fn peek_into(&self, sys: &MemorySystem, range: Range<usize>, out: &mut Vec<T>) {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "peek range {range:?} out of bounds {}",
            self.len
        );
        // Each chunk ends at a `CHUNK`-aligned address (or just past it,
        // for an element straddling it), so no line is probed twice unless
        // an element straddles a chunk boundary.
        const CHUNK: usize = 8 * LINE_SIZE;
        let mut buf = [0u8; CHUNK + 16];
        out.reserve(range.len());
        let mut i = range.start;
        while i < range.end {
            let addr = self.addr_unchecked(i);
            let room = CHUNK - (addr % CHUNK as u64) as usize;
            let n = room.div_ceil(T::SIZE).min(range.end - i);
            let bytes = &mut buf[..n * T::SIZE];
            sys.peek_bytes(addr, bytes);
            out.extend(bytes.chunks_exact(T::SIZE).map(T::from_bytes));
            i += n;
        }
    }

    /// Persist all lines of this array to NVM.
    #[track_caller]
    pub fn persist_all(&self, sys: &mut MemorySystem) {
        sys.persist_range(self.base, self.byte_len());
    }

    /// Subarray view of `count` elements starting at `offset`.
    pub fn slice(&self, offset: usize, count: usize) -> PArray<T> {
        assert!(offset + count <= self.len, "subarray out of bounds");
        PArray::new(self.addr_unchecked(offset), count)
    }

    #[inline]
    fn addr_unchecked(&self, i: usize) -> u64 {
        self.base + (i * T::SIZE) as u64
    }
}

/// The equal length of a span's arrays.
fn span_len<'a, T: Pod>(mut arrays: impl Iterator<Item = &'a PArray<T>>) -> usize {
    let n = arrays.next().map_or(0, PArray::len);
    assert!(arrays.all(|a| a.len() == n), "span arrays differ in length");
    n
}

/// Charged `[outs[0][i], ..] = f(i, [ins[0][i], ..])` for every `i` in
/// order: the loads in array order, then the stores in array order —
/// exactly the charges, counters, cache state and bytes of that loop over
/// [`PArray::get`] and [`PArray::set`], paid per line: `MemorySystem`'s
/// span walk charges a line-chunk whose lines are all resident as hits in
/// closed form, and otherwise sends the chunk's first element down the
/// element path. Any array may alias any other, and several stores may
/// share a line.
pub fn span<T: Pod, const L: usize, const S: usize>(
    sys: &mut MemorySystem,
    ins: [PArray<T>; L],
    outs: [PArray<T>; S],
    f: impl FnMut(usize, [T; L]) -> [T; S],
) {
    let n = span_len(ins.iter().chain(&outs));
    sys.span(ins.map(|a| a.base), outs.map(|a| a.base), n, f);
}

/// [`span`] with no store: charged `f(i, [ins[0][i], ..])` for every `i`.
pub fn load_span<T: Pod, const L: usize>(
    sys: &mut MemorySystem,
    ins: [PArray<T>; L],
    mut f: impl FnMut(usize, [T; L]),
) {
    span(sys, ins, [], |i, got| {
        f(i, got);
        []
    });
}

/// [`span`] with one store: charged `out[i] = f(i, [ins[0][i], ..])` for
/// every `i`.
pub fn map_span<T: Pod, const L: usize>(
    sys: &mut MemorySystem,
    ins: [PArray<T>; L],
    out: PArray<T>,
    mut f: impl FnMut(usize, [T; L]) -> T,
) {
    span(sys, ins, [out], |i, got| [f(i, got)]);
}

/// Charged loads of `a[k]` then `b[k]` for every `k` in `range`, in
/// order, each pair handed to `f` — which may make charged accesses of its
/// own, such as a gather through an index loaded here. Charges and leaves
/// what the element loop does; the streamed loads' counters and clock
/// charge land when the span returns, so `f` must not read them (see
/// `MemorySystem`'s `span_gather`).
pub fn gather_span<A: Pod, B: Pod>(
    sys: &mut MemorySystem,
    a: PArray<A>,
    b: PArray<B>,
    range: Range<usize>,
    f: impl FnMut(&mut MemorySystem, A, B),
) {
    let (a, b) = (
        a.slice(range.start, range.len()),
        b.slice(range.start, range.len()),
    );
    sys.span_gather((a.base, b.base), range.len(), f);
}

/// A single typed cell in simulated memory (e.g. the iteration counter the
/// paper flushes once per iteration).
pub struct PScalar<T: Pod> {
    addr: u64,
    _m: PhantomData<T>,
}

impl<T: Pod> Clone for PScalar<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Pod> Copy for PScalar<T> {}

impl<T: Pod> PScalar<T> {
    /// Handle over an existing scalar at `addr`.
    pub fn new(addr: u64) -> Self {
        PScalar {
            addr,
            _m: PhantomData,
        }
    }

    /// Allocate on its own cache line in NVM (so flushing it disturbs
    /// nothing else).
    pub fn alloc_nvm(sys: &mut MemorySystem) -> Self {
        PScalar::new(sys.alloc_nvm(T::SIZE.max(1)))
    }

    #[inline]
    /// The scalar's address.
    pub fn addr(&self) -> u64 {
        self.addr
    }

    #[inline]
    /// Charged read of the scalar.
    pub fn get(&self, sys: &mut MemorySystem) -> T {
        let mut buf = [0u8; 16];
        sys.read_bytes(self.addr, &mut buf[..T::SIZE]);
        T::from_bytes(&buf)
    }

    #[inline]
    /// Charged write of the scalar.
    pub fn set(&self, sys: &mut MemorySystem, v: T) {
        let mut buf = [0u8; 16];
        v.to_bytes(&mut buf);
        sys.write_bytes(self.addr, &buf[..T::SIZE]);
    }

    /// Flush the containing line (CPU level, configured [`FlushOp`]).
    ///
    /// [`FlushOp`]: crate::system::FlushOp
    #[track_caller]
    pub fn flush(&self, sys: &mut MemorySystem) {
        sys.flush_line(self.addr);
    }

    /// Persist the containing line to NVM.
    #[track_caller]
    pub fn persist(&self, sys: &mut MemorySystem) {
        sys.persist_line(self.addr);
    }
}

/// A dense row-major typed matrix in simulated memory.
pub struct PMatrix<T: Pod> {
    data: PArray<T>,
    rows: usize,
    cols: usize,
}

impl<T: Pod> Clone for PMatrix<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Pod> Copy for PMatrix<T> {}

impl<T: Pod> PMatrix<T> {
    /// Allocate a row-major `rows x cols` matrix in NVM.
    pub fn alloc_nvm(sys: &mut MemorySystem, rows: usize, cols: usize) -> Self {
        PMatrix {
            data: PArray::alloc_nvm(sys, rows * cols),
            rows,
            cols,
        }
    }

    #[inline]
    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The backing flat array.
    pub fn array(&self) -> PArray<T> {
        self.data
    }

    #[inline]
    /// Flat element index of `(r, c)`.
    pub fn idx(&self, r: usize, c: usize) -> usize {
        debug_assert!(r < self.rows && c < self.cols);
        r * self.cols + c
    }

    #[inline]
    /// Charged read of `(r, c)`.
    pub fn get(&self, sys: &mut MemorySystem, r: usize, c: usize) -> T {
        self.data.get(sys, self.idx(r, c))
    }

    #[inline]
    /// Charged write of `(r, c)`.
    pub fn set(&self, sys: &mut MemorySystem, r: usize, c: usize, v: T) {
        self.data.set(sys, self.idx(r, c), v)
    }

    /// Uncharged logical peek of element `(r, c)` (sees cached values).
    pub fn peek(&self, sys: &MemorySystem, r: usize, c: usize) -> T {
        self.data.peek(sys, self.idx(r, c))
    }

    /// View of one row as a [`PArray`].
    pub fn row(&self, r: usize) -> PArray<T> {
        self.data.slice(r * self.cols, self.cols)
    }

    /// Address of element (r, c).
    pub fn addr(&self, r: usize, c: usize) -> u64 {
        self.data.addr(self.idx(r, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;

    fn sys() -> MemorySystem {
        MemorySystem::new(SystemConfig::nvm_only(4096, 1 << 20))
    }

    #[test]
    fn pod_roundtrip_all_types() {
        fn rt<T: Pod + PartialEq + std::fmt::Debug>(v: T) {
            let mut b = [0u8; 16];
            v.to_bytes(&mut b);
            assert_eq!(T::from_bytes(&b), v);
        }
        rt(0xABu8);
        rt(-7i8);
        rt(0xBEEFu16);
        rt(-1234i16);
        rt(0xDEAD_BEEFu32);
        rt(-123456i32);
        rt(0xDEAD_BEEF_CAFE_F00Du64);
        rt(-9_876_543_210i64);
        rt(1.5f32);
        rt(std::f64::consts::PI);
    }

    #[test]
    fn parray_get_set() {
        let mut s = sys();
        let a = PArray::<f64>::alloc_nvm(&mut s, 10);
        a.set(&mut s, 3, 2.5);
        assert_eq!(a.get(&mut s, 3), 2.5);
        assert_eq!(a.get(&mut s, 4), 0.0);
    }

    #[test]
    fn parray_store_load_roundtrip() {
        let mut s = sys();
        let a = PArray::<u32>::alloc_nvm(&mut s, 100);
        let v: Vec<u32> = (0..100).collect();
        a.store_slice(&mut s, &v);
        assert_eq!(a.load_vec(&mut s), v);
    }

    #[test]
    fn seed_slice_is_uncharged_and_visible() {
        let mut s = sys();
        let a = PArray::<f64>::alloc_nvm(&mut s, 8);
        let t0 = s.now();
        a.seed_slice(&mut s, &[1.0; 8]);
        assert_eq!(s.now(), t0);
        assert_eq!(a.get(&mut s, 7), 1.0);
    }

    #[test]
    fn slice_views_alias_parent() {
        let mut s = sys();
        let a = PArray::<u64>::alloc_nvm(&mut s, 16);
        let sub = a.slice(8, 4);
        sub.set(&mut s, 0, 99);
        assert_eq!(a.get(&mut s, 8), 99);
    }

    #[test]
    #[should_panic(expected = "subarray out of bounds")]
    fn slice_bounds_checked() {
        let mut s = sys();
        let a = PArray::<u64>::alloc_nvm(&mut s, 4);
        let _ = a.slice(2, 3);
    }

    #[test]
    fn pscalar_flush_survives_crash() {
        let mut s = sys();
        let c = PScalar::<u64>::alloc_nvm(&mut s);
        c.set(&mut s, 15);
        c.flush(&mut s);
        let img = s.crash();
        assert_eq!(img.read_u64(c.addr()), 15);
    }

    #[test]
    fn pmatrix_row_major_layout() {
        let mut s = sys();
        let m = PMatrix::<f64>::alloc_nvm(&mut s, 3, 4);
        m.set(&mut s, 1, 2, 7.0);
        assert_eq!(m.get(&mut s, 1, 2), 7.0);
        let row = m.row(1);
        assert_eq!(row.get(&mut s, 2), 7.0);
        assert_eq!(m.addr(1, 2), m.array().addr(6));
    }

    /// Bytes of each region the bulk-peek property addresses: twelve and a
    /// bit lines, so a range crosses line and gather-chunk boundaries.
    const SPAN: usize = 12 * LINE_SIZE + 8;

    /// One step of the bulk-peek property's history: a charged write of
    /// `len` copies of a byte, a persist or a CLFLUSH of one line, or a
    /// charged read that pulls a line in clean — at a byte offset of the
    /// NVM (`false`) or DRAM-homed (`true`) region.
    #[derive(Debug, Clone)]
    enum Step {
        Write(bool, usize, u8, usize),
        Persist(bool, usize),
        Clflush(bool, usize),
        Read(bool, usize),
    }

    fn step_strategy() -> impl proptest::strategy::Strategy<Value = Step> {
        use proptest::prelude::*;
        prop_oneof![
            6 => (any::<bool>(), 0..SPAN, any::<u8>(), 1usize..=24)
                .prop_map(|(d, off, v, len)| Step::Write(d, off, v, len)),
            1 => (any::<bool>(), 0..SPAN).prop_map(|(d, off)| Step::Persist(d, off)),
            1 => (any::<bool>(), 0..SPAN).prop_map(|(d, off)| Step::Clflush(d, off)),
            2 => (any::<bool>(), 0..SPAN).prop_map(|(d, off)| Step::Read(d, off)),
        ]
    }

    /// `a.peek_into(range)` appends exactly `a.peek(i)` for `i` in each
    /// range, ends clamped to the array.
    fn gathers_match<T: Pod + PartialEq + std::fmt::Debug>(
        sys: &MemorySystem,
        base: u64,
        ranges: &[(usize, usize)],
    ) -> proptest::prelude::TestCaseResult {
        let a = PArray::<T>::new(base, SPAN / T::SIZE);
        for &(x, y) in ranges.iter().chain([(0, usize::MAX)].iter()) {
            let (lo, hi) = (x.min(y).min(a.len()), x.max(y).min(a.len()));
            let mut got = vec![T::default()];
            a.peek_into(sys, lo..hi, &mut got);
            let want: Vec<T> = std::iter::once(T::default())
                .chain((lo..hi).map(|i| a.peek(sys, i)))
                .collect();
            proptest::prop_assert_eq!(got, want, "{}..{} at {:#x}", lo, hi, base);
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The line-granular gather reads what per-element peeks read,
        /// wherever the bytes sit — dirty in the CPU cache, only in the
        /// DRAM cache (heterogeneous platform), written back, in a
        /// DRAM-homed array — for element types of 1 to 8 bytes at any
        /// offset into a line, so elements straddle lines and ranges
        /// straddle gather chunks.
        #[test]
        fn a_bulk_peek_reads_what_element_peeks_read(
            offsets in (0usize..LINE_SIZE, 0usize..LINE_SIZE),
            steps in proptest::collection::vec(step_strategy(), 0..120),
            ranges in proptest::collection::vec((0usize..SPAN, 0usize..SPAN), 1..6),
        ) {
            for cfg in [
                SystemConfig::nvm_only(8 * LINE_SIZE, 1 << 16),
                SystemConfig::heterogeneous(8 * LINE_SIZE, 16 * LINE_SIZE, 1 << 16),
            ] {
                let mut s = MemorySystem::new(cfg);
                let nvm = s.alloc_nvm_at_line_offset(SPAN, offsets.0);
                let dram = s.alloc_dram(SPAN + LINE_SIZE) + offsets.1 as u64;
                let at = |in_dram: bool, off: usize| if in_dram { dram } else { nvm } + off as u64;
                for step in &steps {
                    match *step {
                        Step::Write(d, off, v, len) => {
                            let len = len.min(SPAN - off);
                            s.write_bytes(at(d, off), &vec![v; len]);
                        }
                        Step::Persist(d, off) => s.persist_line(at(d, off)),
                        Step::Clflush(d, off) => s.clflush(at(d, off)),
                        Step::Read(d, off) => s.read_bytes(at(d, off), &mut [0u8; 1]),
                    }
                }
                for base in [nvm, dram] {
                    gathers_match::<u8>(&s, base, &ranges)?;
                    gathers_match::<u16>(&s, base, &ranges)?;
                    gathers_match::<u32>(&s, base, &ranges)?;
                    gathers_match::<u64>(&s, base, &ranges)?;
                    gathers_match::<i64>(&s, base, &ranges)?;
                }
            }
        }
    }

    #[test]
    fn persist_all_survives_crash() {
        let mut s = sys();
        let a = PArray::<f64>::alloc_nvm(&mut s, 32);
        for i in 0..32 {
            a.set(&mut s, i, i as f64);
        }
        a.persist_all(&mut s);
        let img = s.crash();
        let v = img.read_f64_array(&a);
        assert_eq!(v[31], 31.0);
    }
}
