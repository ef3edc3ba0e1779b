//! Plain heat stencil: host reference and simulated ping-pong baseline.

use adcc_sim::parray::{PMatrix, PScalar};
use adcc_sim::system::MemorySystem;

use super::{initial_value, sweep_row, ALPHA};

/// Host-side reference: `sweeps` explicit 5-point sweeps of the heat
/// equation on a `rows × cols` grid with fixed boundary. Returns the final
/// grid row-major.
pub fn heat_host(rows: usize, cols: usize, sweeps: usize) -> Vec<f64> {
    let mut cur = vec![0.0f64; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            cur[r * cols + c] = initial_value(rows, cols, r, c);
        }
    }
    let mut next = cur.clone();
    for _ in 0..sweeps {
        for r in 1..rows - 1 {
            for c in 1..cols - 1 {
                let i = r * cols + c;
                let v = cur[i]
                    + ALPHA
                        * (cur[i - cols] + cur[i + cols] + cur[i - 1] + cur[i + 1] - 4.0 * cur[i]);
                next[i] = v;
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// Plain ping-pong stencil in simulated NVM (two buffers, overwritten in
/// alternation) — the application under the baseline mechanisms.
pub struct PlainStencil {
    pub bufs: [PMatrix<f64>; 2],
    /// Persistent sweep counter for checkpoint/PMEM variants.
    pub sweep_cell: PScalar<u64>,
    pub rows: usize,
    pub cols: usize,
    pub sweeps: usize,
}

impl PlainStencil {
    /// Seed both buffers with the initial condition (uncharged input
    /// state; the boundary never changes afterwards).
    pub fn setup(sys: &mut MemorySystem, rows: usize, cols: usize, sweeps: usize) -> Self {
        assert!(
            rows >= 3 && cols >= 3,
            "grid too small for a 5-point stencil"
        );
        let bufs = [
            PMatrix::<f64>::alloc_nvm(sys, rows, cols),
            PMatrix::<f64>::alloc_nvm(sys, rows, cols),
        ];
        let mut row = vec![0.0f64; cols];
        for b in &bufs {
            for r in 0..rows {
                for (c, v) in row.iter_mut().enumerate() {
                    *v = initial_value(rows, cols, r, c);
                }
                b.row(r).seed_slice(sys, &row);
            }
        }
        let sweep_cell = PScalar::<u64>::alloc_nvm(sys);
        PlainStencil {
            bufs,
            sweep_cell,
            rows,
            cols,
            sweeps,
        }
    }

    /// One sweep: read `bufs[t % 2]`, write `bufs[(t + 1) % 2]`.
    pub fn sweep(&self, sys: &mut MemorySystem, t: usize) {
        let src = self.bufs[t % 2];
        let dst = self.bufs[(t + 1) % 2];
        for r in 1..self.rows - 1 {
            sweep_row(sys, src, dst, r, |_| {});
        }
        sys.charge_flops(6 * ((self.rows - 2) * (self.cols - 2)) as u64);
    }

    /// Uncharged extraction of the grid after `t` completed sweeps.
    pub fn peek_grid(&self, sys: &MemorySystem, t: usize) -> Vec<f64> {
        let b = self.bufs[t % 2];
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.push(b.peek(sys, r, c));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcc_linalg::vecops::max_diff;
    use adcc_sim::system::SystemConfig;

    #[test]
    fn host_heat_diffuses_and_conserves_sanity() {
        let g0 = heat_host(16, 16, 0);
        let g = heat_host(16, 16, 50);
        // The bump spreads: the global max decreases.
        let max0 = g0.iter().cloned().fold(f64::MIN, f64::max);
        let max = g.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max < max0, "diffusion must lower the peak: {max} vs {max0}");
        // Values stay within the initial range (maximum principle).
        let min0 = g0.iter().cloned().fold(f64::MAX, f64::min);
        for &v in &g {
            assert!(v >= min0 - 1e-12 && v <= max0 + 1e-12);
        }
    }

    #[test]
    fn boundary_stays_fixed() {
        let rows = 12;
        let cols = 10;
        let g = heat_host(rows, cols, 30);
        for r in 0..rows {
            assert_eq!(g[r * cols], initial_value(rows, cols, r, 0));
            assert_eq!(
                g[r * cols + cols - 1],
                initial_value(rows, cols, r, cols - 1)
            );
        }
        for c in 0..cols {
            assert_eq!(g[c], initial_value(rows, cols, 0, c));
            assert_eq!(
                g[(rows - 1) * cols + c],
                initial_value(rows, cols, rows - 1, c)
            );
        }
    }

    #[test]
    fn sim_stencil_matches_host() {
        let mut sys = MemorySystem::new(SystemConfig::nvm_only(16 << 10, 16 << 20));
        let st = PlainStencil::setup(&mut sys, 12, 12, 8);
        for t in 0..8 {
            st.sweep(&mut sys, t);
        }
        let got = st.peek_grid(&sys, 8);
        let want = heat_host(12, 12, 8);
        assert!(max_diff(&got, &want) < 1e-12);
    }
}
