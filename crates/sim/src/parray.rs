//! Typed views over simulated memory.
//!
//! A [`PArray<T>`] is a handle (base address + length) to an array living in
//! the simulated address space; every `get`/`set` routes through the cache
//! hierarchy of a [`MemorySystem`] and is charged on the simulated clock.
//! Handles are `Copy` and do not borrow the system, so algorithms pass
//! `&mut MemorySystem` explicitly — mirroring how the paper's applications
//! address NVM directly.

use std::marker::PhantomData;

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
        for i in 0..self.len {
            self.set(sys, i, v);
        }
    }

    /// Charged bulk store from a host slice.
    pub fn store_slice(&self, sys: &mut MemorySystem, src: &[T]) {
        assert_eq!(src.len(), self.len, "slice length mismatch");
        for (i, v) in src.iter().enumerate() {
            self.set(sys, i, *v);
        }
    }

    /// Charged bulk load into a host vector.
    pub fn load_vec(&self, sys: &mut MemorySystem) -> Vec<T> {
        (0..self.len).map(|i| self.get(sys, i)).collect()
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

    /// Persist all lines of this array to NVM.
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
    pub fn flush(&self, sys: &mut MemorySystem) {
        sys.flush_line(self.addr);
    }

    /// Persist the containing line to NVM.
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
