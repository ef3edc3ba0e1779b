//! Compressed sparse row matrices and SpMV.

/// A square sparse matrix in CSR format.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// Build from (row, col, value) triplets. Duplicate entries are summed.
    pub fn from_triplets(n: usize, mut triplets: Vec<(u32, u32, f64)>) -> Self {
        triplets.sort_unstable_by_key(|t| (t.0, t.1));
        let mut col_idx: Vec<u32> = Vec::with_capacity(triplets.len());
        let mut vals: Vec<f64> = Vec::with_capacity(triplets.len());
        let mut rows: Vec<u32> = Vec::with_capacity(triplets.len());
        for &(r, c, v) in &triplets {
            assert!((r as usize) < n && (c as usize) < n, "triplet out of range");
            if rows.last() == Some(&r) && col_idx.last() == Some(&c) {
                *vals.last_mut().unwrap() += v;
            } else {
                rows.push(r);
                col_idx.push(c);
                vals.push(v);
            }
        }
        let mut row_ptr = vec![0usize; n + 1];
        for &r in &rows {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        CsrMatrix {
            n,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Number of rows/columns.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Row pointers (length n + 1).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column indices.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Values.
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// y = A x (serial).
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for i in 0..self.n {
            let mut acc = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.vals[k] * x[self.col_idx[k] as usize];
            }
            y[i] = acc;
        }
    }

    /// Whether the stored pattern and values are symmetric (within `tol`).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for i in 0..self.n {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col_idx[k] as usize;
                let v = self.vals[k];
                // Find (j, i).
                let row = &self.col_idx[self.row_ptr[j]..self.row_ptr[j + 1]];
                match row.binary_search(&(i as u32)) {
                    Ok(p) => {
                        if (self.vals[self.row_ptr[j] + p] - v).abs() > tol {
                            return false;
                        }
                    }
                    Err(_) => return false,
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [2 1 0]
        // [1 3 0]
        // [0 0 4]
        CsrMatrix::from_triplets(
            3,
            vec![
                (0, 0, 2.0),
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 1, 3.0),
                (2, 2, 4.0),
            ],
        )
    }

    #[test]
    fn construction_sorted_rows() {
        let m = small();
        assert_eq!(m.n(), 3);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.row_ptr(), &[0, 2, 4, 5]);
        assert_eq!(m.col_idx(), &[0, 1, 0, 1, 2]);
    }

    #[test]
    fn duplicates_are_summed() {
        let m = CsrMatrix::from_triplets(2, vec![(0, 0, 1.0), (0, 0, 2.5), (1, 1, 1.0)]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.vals()[0], 3.5);
    }

    #[test]
    fn spmv_matches_dense() {
        let m = small();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        m.spmv(&x, &mut y);
        assert_eq!(y, [4.0, 7.0, 12.0]);
    }

    #[test]
    fn symmetry_detection() {
        assert!(small().is_symmetric(1e-12));
        let asym =
            CsrMatrix::from_triplets(2, vec![(0, 1, 1.0), (1, 0, 2.0), (0, 0, 1.0), (1, 1, 1.0)]);
        assert!(!asym.is_symmetric(1e-12));
    }

    #[test]
    fn empty_rows_are_fine() {
        let m = CsrMatrix::from_triplets(3, vec![(2, 2, 1.0)]);
        assert_eq!(m.row_ptr(), &[0, 0, 0, 1]);
        let mut y = [9.0; 3];
        m.spmv(&[1.0; 3], &mut y);
        assert_eq!(y, [0.0, 0.0, 1.0]);
    }
}
