//! Dense row-major matrices with blocked multiplication.
//!
//! The native ground truth for the ABFT matrix-multiplication experiments:
//! `C = A × B` via rank-k panel updates (the paper's Fig. 5 loop
//! structure), one output row at a time.

use rand::prelude::*;
use rand::rngs::StdRng;

/// A dense row-major f64 matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// The row-major data.
impl From<Matrix> for Vec<f64> {
    fn from(m: Matrix) -> Vec<f64> {
        m.data
    }
}

impl Matrix {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Deterministic random matrix with entries in [-1, 1].
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        Matrix { rows, cols, data }
    }

    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols);
        Matrix { rows, cols, data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn data(&self) -> &[f64] {
        &self.data
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Naive triple loop (reference for tests).
    pub fn mul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows);
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for l in 0..self.cols {
                let a = self.get(i, l);
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += a * other.get(l, j);
                }
            }
        }
        out
    }

    /// Blocked rank-k multiplication, one output row at a time:
    /// `C += A(:, s:s+k) × B(s:s+k, :)` for each panel `s`.
    pub fn mul_blocked(&self, other: &Matrix, rank: usize) -> Matrix {
        assert_eq!(self.cols, other.rows);
        assert!(rank >= 1);
        let m = self.rows;
        let n = other.cols;
        let kk = self.cols;
        let mut out = Matrix::zeros(m, n);
        let a = &self.data;
        let b = &other.data;
        for (i, crow) in out.data.chunks_mut(n).enumerate() {
            let mut s = 0;
            while s < kk {
                let send = (s + rank).min(kk);
                for l in s..send {
                    let av = a[i * kk + l];
                    if av == 0.0 {
                        continue;
                    }
                    let brow = &b[l * n..(l + 1) * n];
                    for (cj, bj) in crow.iter_mut().zip(brow) {
                        *cj += av * bj;
                    }
                }
                s = send;
            }
        }
        out
    }

    /// Largest absolute element-wise difference.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Sum of one row.
    pub fn row_sum(&self, r: usize) -> f64 {
        self.data[r * self.cols..(r + 1) * self.cols].iter().sum()
    }

    /// Sum of one column.
    pub fn col_sum(&self, c: usize) -> f64 {
        (0..self.rows).map(|r| self.get(r, c)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_mul_identity() {
        let mut i2 = Matrix::zeros(2, 2);
        i2.set(0, 0, 1.0);
        i2.set(1, 1, 1.0);
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.mul_naive(&i2), a);
    }

    #[test]
    fn blocked_matches_naive() {
        let a = Matrix::random(17, 23, 1);
        let b = Matrix::random(23, 11, 2);
        let naive = a.mul_naive(&b);
        for rank in [1, 3, 8, 23, 64] {
            let blocked = a.mul_blocked(&b, rank);
            assert!(naive.max_abs_diff(&blocked) < 1e-10, "rank {rank} diverged");
        }
    }

    #[test]
    fn row_and_col_sums() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.row_sum(0), 6.0);
        assert_eq!(a.row_sum(1), 15.0);
        assert_eq!(a.col_sum(1), 7.0);
    }

    #[test]
    fn random_is_deterministic() {
        assert_eq!(Matrix::random(4, 4, 9), Matrix::random(4, 4, 9));
        assert_ne!(Matrix::random(4, 4, 9), Matrix::random(4, 4, 10));
    }
}
