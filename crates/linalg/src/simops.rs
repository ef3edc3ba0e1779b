//! The same kernels expressed over simulated memory: every element access
//! goes through the crash emulator's cache hierarchy, and arithmetic
//! charges FLOPs on the simulated clock.

use adcc_sim::parray::{gather_span, load_span, map_span, PArray};
use adcc_sim::system::MemorySystem;

use crate::csr::CsrMatrix;

/// A CSR matrix resident in simulated NVM.
#[derive(Clone, Copy)]
pub struct SimCsr {
    n: usize,
    nnz: usize,
    row_ptr: PArray<u32>,
    col_idx: PArray<u32>,
    vals: PArray<f64>,
}

impl SimCsr {
    /// Seed a host matrix into simulated NVM (uncharged: the input problem
    /// is "already resident" when the measured run starts).
    pub fn seed_from(sys: &mut MemorySystem, a: &CsrMatrix) -> Self {
        let n = a.n();
        let nnz = a.nnz();
        let row_ptr = PArray::<u32>::alloc_nvm(sys, n + 1);
        let col_idx = PArray::<u32>::alloc_nvm(sys, nnz.max(1));
        let vals = PArray::<f64>::alloc_nvm(sys, nnz.max(1));
        let rp: Vec<u32> = a.row_ptr().iter().map(|&x| x as u32).collect();
        row_ptr.seed_slice(sys, &rp);
        col_idx.seed_slice(sys, a.col_idx());
        vals.seed_slice(sys, a.vals());
        SimCsr {
            n,
            nnz,
            row_ptr,
            col_idx,
            vals,
        }
    }

    pub fn n(&self) -> usize {
        self.n
    }

    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// y = A x, fully through the simulator. Charges 2 FLOPs per nonzero.
    pub fn spmv(&self, sys: &mut MemorySystem, x: PArray<f64>, y: PArray<f64>) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        let mut start = self.row_ptr.get(sys, 0) as usize;
        for i in 0..self.n {
            let end = self.row_ptr.get(sys, i + 1) as usize;
            let mut acc = 0.0;
            gather_span(sys, self.col_idx, self.vals, start..end, |sys, j, v| {
                acc += v * x.get(sys, j as usize);
            });
            sys.charge_flops(2 * (end - start) as u64);
            y.set(sys, i, acc);
            start = end;
        }
    }
}

/// Dot product over simulated arrays.
pub fn dot(sys: &mut MemorySystem, a: PArray<f64>, b: PArray<f64>) -> f64 {
    let mut acc = 0.0;
    load_span(sys, [a, b], |_, [x, y]| acc += x * y);
    sys.charge_flops(2 * a.len() as u64);
    acc
}

/// out = x + beta * y over simulated arrays.
pub fn xpby(sys: &mut MemorySystem, x: PArray<f64>, beta: f64, y: PArray<f64>, out: PArray<f64>) {
    map_span(sys, [x, y], out, |_, [x, y]| x + beta * y);
    sys.charge_flops(2 * x.len() as u64);
}

/// Copy between simulated arrays.
pub fn copy(sys: &mut MemorySystem, src: PArray<f64>, dst: PArray<f64>) {
    map_span(sys, [src], dst, |_, [v]| v);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spd::random_spd;
    use adcc_sim::system::SystemConfig;

    fn sys() -> MemorySystem {
        MemorySystem::new(SystemConfig::nvm_only(64 << 10, 16 << 20))
    }

    #[test]
    fn sim_spmv_matches_native() {
        let a = random_spd(100, 4, 11);
        let mut s = sys();
        let sa = SimCsr::seed_from(&mut s, &a);
        let x_host: Vec<f64> = (0..100).map(|i| (i as f64).sin()).collect();
        let x = PArray::<f64>::alloc_nvm(&mut s, 100);
        let y = PArray::<f64>::alloc_nvm(&mut s, 100);
        x.seed_slice(&mut s, &x_host);
        sa.spmv(&mut s, x, y);
        let mut want = vec![0.0; 100];
        a.spmv(&x_host, &mut want);
        let got = y.load_vec(&mut s);
        for i in 0..100 {
            assert!((got[i] - want[i]).abs() < 1e-12, "row {i}");
        }
    }

    #[test]
    fn sim_dot_and_xpby_match_native() {
        let mut s = sys();
        let n = 257;
        let av: Vec<f64> = (0..n).map(|i| i as f64 * 0.25).collect();
        let bv: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let a = PArray::<f64>::alloc_nvm(&mut s, n);
        let b = PArray::<f64>::alloc_nvm(&mut s, n);
        let o = PArray::<f64>::alloc_nvm(&mut s, n);
        a.seed_slice(&mut s, &av);
        b.seed_slice(&mut s, &bv);
        let want: f64 = av.iter().zip(&bv).map(|(x, y)| x * y).sum();
        let got = dot(&mut s, a, b);
        assert!((got - want).abs() < 1e-9);

        xpby(&mut s, a, 2.0, b, o);
        let out = o.load_vec(&mut s);
        for i in 0..n {
            assert!((out[i] - (av[i] + 2.0 * bv[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn sim_kernels_charge_time() {
        let a = random_spd(64, 3, 5);
        let mut s = sys();
        let sa = SimCsr::seed_from(&mut s, &a);
        let x = PArray::<f64>::alloc_nvm(&mut s, 64);
        let y = PArray::<f64>::alloc_nvm(&mut s, 64);
        let t0 = s.now();
        sa.spmv(&mut s, x, y);
        assert!(s.now() > t0);
        assert!(
            s.clock()
                .bucket_total(adcc_sim::clock::Bucket::Compute)
                .ps()
                > 0
        );
    }

    #[test]
    fn sim_copy_copies() {
        let mut s = sys();
        let a = PArray::<f64>::alloc_nvm(&mut s, 10);
        let b = PArray::<f64>::alloc_nvm(&mut s, 10);
        a.seed_slice(&mut s, &[2.0; 10]);
        copy(&mut s, a, b);
        assert_eq!(b.load_vec(&mut s), vec![2.0; 10]);
    }
}
