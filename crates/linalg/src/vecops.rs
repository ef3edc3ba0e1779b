//! Native vector primitives over host slices.

/// Dot product.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// y += alpha * x.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// out = x + beta * y.
pub fn xpby(x: &[f64], beta: f64, y: &[f64], out: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    assert_eq!(x.len(), out.len());
    for i in 0..x.len() {
        out[i] = x[i] + beta * y[i];
    }
}

/// Euclidean norm.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Max elementwise difference — the match criterion of every vector
/// answer. NaN anywhere is a mismatch (`f64::INFINITY`), never masked
/// (`f64::max` drops NaN): a NaN-corrupted recovery must fail the match.
pub fn max_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).fold(0.0, |acc, (x, y)| {
        let d = (x - y).abs();
        if d.is_nan() {
            f64::INFINITY
        } else {
            acc.max(d)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_diff_propagates_nan_as_mismatch() {
        assert_eq!(max_diff(&[1.0, 2.0], &[1.0, 2.5]), 0.5);
        assert_eq!(max_diff(&[1.0, f64::NAN], &[1.0, 2.0]), f64::INFINITY);
        assert_eq!(max_diff(&[f64::NAN], &[0.0]), f64::INFINITY);
        // An all-NaN recovered iterate fails the match.
        assert!(max_diff(&[f64::NAN; 4], &[1.0; 4]) >= 1e-9);
    }

    #[test]
    fn dot_basics() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn axpy_basics() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 2.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0]);
    }

    #[test]
    fn xpby_basics() {
        let mut out = vec![0.0; 2];
        xpby(&[1.0, 2.0], 3.0, &[1.0, 1.0], &mut out);
        assert_eq!(out, vec![4.0, 5.0]);
    }

    #[test]
    fn norm_of_unit_axis() {
        assert!((norm2(&[0.0, 3.0, 4.0]) - 5.0).abs() < 1e-12);
    }
}
