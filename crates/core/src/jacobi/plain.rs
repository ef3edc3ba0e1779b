//! Plain weighted Jacobi: host reference and simulated baseline form.

use adcc_linalg::csr::CsrMatrix;
use adcc_linalg::simops::SimCsr;
use adcc_sim::parray::{PArray, PScalar};
use adcc_sim::system::MemorySystem;

use super::{update, OMEGA};

/// Extract `1 / diag(A)` from a CSR matrix.
pub fn inv_diag(a: &CsrMatrix) -> Vec<f64> {
    let n = a.n();
    let mut d = vec![0.0; n];
    for i in 0..n {
        for k in a.row_ptr()[i]..a.row_ptr()[i + 1] {
            if a.col_idx()[k] as usize == i {
                d[i] = 1.0 / a.vals()[k];
            }
        }
        assert!(d[i] != 0.0, "zero diagonal in row {i}");
    }
    d
}

/// Host-side reference: `iters` weighted-Jacobi iterations from x0 = 0.
/// The arithmetic order matches the simulated implementations
/// element-for-element.
pub fn jacobi_host(a: &CsrMatrix, b: &[f64], iters: usize) -> Vec<f64> {
    let n = a.n();
    assert_eq!(b.len(), n);
    let dinv = inv_diag(a);
    let mut x = vec![0.0; n];
    let mut ax = vec![0.0; n];
    for _ in 0..iters {
        a.spmv(&x, &mut ax);
        for j in 0..n {
            x[j] += OMEGA * dinv[j] * (b[j] - ax[j]);
        }
    }
    x
}

/// Plain Jacobi state resident in simulated NVM (one `x` vector,
/// overwritten every iteration) — the application under the baseline
/// mechanisms.
pub struct PlainJacobi {
    pub a: SimCsr,
    pub b: PArray<f64>,
    pub dinv: PArray<f64>,
    pub x: PArray<f64>,
    /// Scratch for `A·x` (volatile is fine: recomputed every iteration).
    pub ax: PArray<f64>,
    /// Persistent iteration counter for checkpoint/PMEM variants.
    pub iter_cell: PScalar<u64>,
    pub n: usize,
    pub iters: usize,
}

impl PlainJacobi {
    /// Seed the problem into simulated NVM with `x = 0` (uncharged input
    /// state).
    pub fn setup(sys: &mut MemorySystem, a_host: &CsrMatrix, b_host: &[f64], iters: usize) -> Self {
        let n = a_host.n();
        assert_eq!(b_host.len(), n);
        let a = SimCsr::seed_from(sys, a_host);
        let b = PArray::<f64>::alloc_nvm(sys, n);
        b.seed_slice(sys, b_host);
        let dinv = PArray::<f64>::alloc_nvm(sys, n);
        dinv.seed_slice(sys, &inv_diag(a_host));
        let x = PArray::<f64>::alloc_nvm(sys, n);
        let ax = PArray::<f64>::alloc_dram(sys, n);
        let iter_cell = PScalar::<u64>::alloc_nvm(sys);
        PlainJacobi {
            a,
            b,
            dinv,
            x,
            ax,
            iter_cell,
            n,
            iters,
        }
    }

    /// One weighted-Jacobi iteration through the simulator.
    pub fn step(&self, sys: &mut MemorySystem) {
        self.a.spmv(sys, self.x, self.ax);
        update(sys, [self.x, self.dinv, self.b, self.ax], self.x);
        sys.charge_flops(4 * self.n as u64);
    }

    /// Uncharged extraction of the current iterate.
    pub fn peek_solution(&self, sys: &MemorySystem) -> Vec<f64> {
        (0..self.n).map(|j| self.x.peek(sys, j)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcc_linalg::spd::CgClass;
    use adcc_linalg::vecops::max_diff;
    use adcc_sim::system::SystemConfig;

    #[test]
    fn host_jacobi_converges_on_dominant_spd() {
        let class = CgClass::TEST;
        let a = class.matrix(11);
        let b = class.rhs(&a);
        // Solution is the ones vector (b = A·1).
        let x = jacobi_host(&a, &b, 200);
        let err = x.iter().map(|v| (v - 1.0).abs()).fold(0.0, f64::max);
        assert!(err < 1e-6, "Jacobi failed to converge, err={err}");
    }

    #[test]
    fn host_jacobi_error_is_monotone_nonincreasing_late() {
        let class = CgClass::TEST;
        let a = class.matrix(12);
        let b = class.rhs(&a);
        let err = |iters| {
            jacobi_host(&a, &b, iters)
                .iter()
                .map(|v: &f64| (v - 1.0).abs())
                .fold(0.0, f64::max)
        };
        assert!(err(80) <= err(40));
        assert!(err(160) <= err(80));
    }

    #[test]
    fn sim_jacobi_matches_host_reference() {
        let class = CgClass::TEST;
        let a = class.matrix(13);
        let b = class.rhs(&a);
        let mut sys = MemorySystem::new(SystemConfig::nvm_only(64 << 10, 64 << 20));
        let jac = PlainJacobi::setup(&mut sys, &a, &b, 10);
        for _ in 0..10 {
            jac.step(&mut sys);
        }
        let got = jac.peek_solution(&sys);
        let want = jacobi_host(&a, &b, 10);
        assert!(max_diff(&got, &want) < 1e-12);
    }

    #[test]
    fn inv_diag_extracts_reciprocals() {
        let class = CgClass::TEST;
        let a = class.matrix(14);
        let d = inv_diag(&a);
        for i in 0..a.n() {
            for k in a.row_ptr()[i]..a.row_ptr()[i + 1] {
                if a.col_idx()[k] as usize == i {
                    assert!((d[i] * a.vals()[k] - 1.0).abs() < 1e-14);
                }
            }
        }
    }
}
