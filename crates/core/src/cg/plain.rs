//! Plain (unextended) CG, in two forms: a host reference implementation
//! and a simulated implementation with one-dimensional work vectors. The
//! simulated form is the application under the paper's *baseline*
//! mechanisms (native, checkpoint, PMEM); the extended form lives in
//! [`crate::cg::extended`].

use adcc_linalg::csr::CsrMatrix;
use adcc_linalg::simops::{self, SimCsr};
use adcc_sim::parray::{PArray, PScalar};
use adcc_sim::system::MemorySystem;

/// Host-side reference CG with x0 = 0; returns the accumulated solution
/// `z` after exactly `iters` iterations. The arithmetic order matches the
/// simulated implementations element-for-element, so results agree to
/// rounding noise.
pub fn cg_host(a: &CsrMatrix, b: &[f64], iters: usize) -> Vec<f64> {
    let n = a.n();
    assert_eq!(b.len(), n);
    let mut p = b.to_vec();
    let mut r = b.to_vec();
    let mut z = vec![0.0; n];
    let mut q = vec![0.0; n];
    let mut rho: f64 = b.iter().map(|x| x * x).sum();
    for _ in 0..iters {
        a.spmv(&p, &mut q);
        let pq: f64 = p.iter().zip(&q).map(|(x, y)| x * y).sum();
        let alpha = rho / pq;
        for j in 0..n {
            z[j] += alpha * p[j];
        }
        for j in 0..n {
            r[j] -= alpha * q[j];
        }
        let rho_new: f64 = r.iter().map(|x| x * x).sum();
        let beta = rho_new / rho;
        for j in 0..n {
            p[j] = r[j] + beta * p[j];
        }
        rho = rho_new;
    }
    z
}

/// Plain CG state resident in simulated NVM (one-dimensional vectors,
/// overwritten every iteration — the paper's Fig. 1).
pub struct PlainCg {
    pub a: SimCsr,
    pub b: PArray<f64>,
    pub p: PArray<f64>,
    pub q: PArray<f64>,
    pub r: PArray<f64>,
    pub z: PArray<f64>,
    /// Persistent scalar state for checkpoint/PMEM variants: `[rho]`.
    pub rho_cell: PScalar<f64>,
    /// Persistent iteration counter for checkpoint/PMEM variants.
    pub iter_cell: PScalar<u64>,
    pub n: usize,
    pub iters: usize,
}

impl PlainCg {
    /// Seed the problem into simulated NVM and initialize
    /// `p = r = b, z = 0` (uncharged: input state). Returns the state and
    /// the initial `rho = bᵀb`.
    pub fn setup(
        sys: &mut MemorySystem,
        a_host: &CsrMatrix,
        b_host: &[f64],
        iters: usize,
    ) -> (Self, f64) {
        let n = a_host.n();
        assert_eq!(b_host.len(), n);
        let a = SimCsr::seed_from(sys, a_host);
        let b = PArray::<f64>::alloc_nvm(sys, n);
        let p = PArray::<f64>::alloc_nvm(sys, n);
        let q = PArray::<f64>::alloc_nvm(sys, n);
        let r = PArray::<f64>::alloc_nvm(sys, n);
        let z = PArray::<f64>::alloc_nvm(sys, n);
        b.seed_slice(sys, b_host);
        p.seed_slice(sys, b_host);
        r.seed_slice(sys, b_host);
        z.seed_slice(sys, &vec![0.0; n]);
        let rho_cell = PScalar::<f64>::alloc_nvm(sys);
        let iter_cell = PScalar::<u64>::alloc_nvm(sys);
        let rho0: f64 = b_host.iter().map(|x| x * x).sum();
        (
            PlainCg {
                a,
                b,
                p,
                q,
                r,
                z,
                rho_cell,
                iter_cell,
                n,
                iters,
            },
            rho0,
        )
    }

    /// One CG iteration through the simulator; returns the new `rho`.
    pub fn step(&self, sys: &mut MemorySystem, rho: f64) -> f64 {
        self.a.spmv(sys, self.p, self.q);
        let pq = simops::dot(sys, self.p, self.q);
        let alpha = rho / pq;
        // z += alpha p ; r -= alpha q (in place).
        for j in 0..self.n {
            let v = self.z.get(sys, j) + alpha * self.p.get(sys, j);
            self.z.set(sys, j, v);
        }
        for j in 0..self.n {
            let v = self.r.get(sys, j) - alpha * self.q.get(sys, j);
            self.r.set(sys, j, v);
        }
        sys.charge_flops(4 * self.n as u64);
        let rho_new = simops::dot(sys, self.r, self.r);
        let beta = rho_new / rho;
        for j in 0..self.n {
            let v = self.r.get(sys, j) + beta * self.p.get(sys, j);
            self.p.set(sys, j, v);
        }
        sys.charge_flops(2 * self.n as u64);
        rho_new
    }

    /// The checkpointable critical regions (the paper checkpoints the
    /// vectors needed to resume: `p, r, z` plus the scalar state).
    pub fn ckpt_regions(&self) -> Vec<(u64, usize)> {
        vec![
            (self.p.base(), self.p.byte_len()),
            (self.r.base(), self.r.byte_len()),
            (self.z.base(), self.z.byte_len()),
            (self.rho_cell.addr(), 8),
            (self.iter_cell.addr(), 8),
        ]
    }

    /// Uncharged extraction of the current solution.
    pub fn peek_solution(&self, sys: &MemorySystem) -> Vec<f64> {
        (0..self.n).map(|j| self.z.peek(sys, j)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcc_linalg::spd::CgClass;
    use adcc_linalg::vecops::max_diff;
    use adcc_sim::system::SystemConfig;

    #[test]
    fn host_cg_converges_on_spd() {
        let class = CgClass::TEST;
        let a = class.matrix(1);
        let b = class.rhs(&a);
        // With b = A·1, the solution is the ones vector; diagonally
        // dominant systems converge fast.
        let z = cg_host(&a, &b, 60);
        let err = z.iter().map(|x| (x - 1.0).abs()).fold(0.0, f64::max);
        assert!(err < 1e-8, "CG failed to converge, err={err}");
    }

    #[test]
    fn sim_cg_matches_host_reference() {
        let class = CgClass::TEST;
        let a = class.matrix(2);
        let b = class.rhs(&a);
        let mut sys = MemorySystem::new(SystemConfig::nvm_only(64 << 10, 64 << 20));
        let (cg, mut rho) = PlainCg::setup(&mut sys, &a, &b, 8);
        for _ in 0..8 {
            rho = cg.step(&mut sys, rho);
        }
        let z_sim = cg.peek_solution(&sys);
        let z_host = cg_host(&a, &b, 8);
        assert!(max_diff(&z_sim, &z_host) < 1e-11);
    }

    #[test]
    fn residual_identity_holds_in_sim() {
        let class = CgClass::TEST;
        let a = class.matrix(3);
        let b = class.rhs(&a);
        let mut sys = MemorySystem::new(SystemConfig::nvm_only(64 << 10, 64 << 20));
        let (cg, mut rho) = PlainCg::setup(&mut sys, &a, &b, 5);
        for _ in 0..5 {
            rho = cg.step(&mut sys, rho);
        }
        // r should equal b - A z.
        let z = cg.peek_solution(&sys);
        let mut az = vec![0.0; a.n()];
        a.spmv(&z, &mut az);
        for j in 0..a.n() {
            let want = b[j] - az[j];
            let got = cg.r.peek(&sys, j);
            assert!((want - got).abs() < 1e-9, "row {j}: {want} vs {got}");
        }
    }
}
