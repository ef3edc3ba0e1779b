//! Property tests for the numeric substrates.

use proptest::prelude::*;

use adcc_linalg::csr::CsrMatrix;
use adcc_linalg::dense::Matrix;
use adcc_linalg::spd::random_spd;
use adcc_linalg::vecops;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Generated systems are symmetric and strictly diagonally dominant
    /// (hence SPD) for any size/density/seed.
    #[test]
    fn random_spd_is_always_spd(
        n in 4usize..200,
        extras in 1usize..8,
        seed in 0u64..1000,
    ) {
        let a = random_spd(n, extras, seed);
        prop_assert!(a.is_symmetric(1e-12));
        for i in 0..n {
            let mut diag = 0.0;
            let mut off = 0.0;
            for k in a.row_ptr()[i]..a.row_ptr()[i + 1] {
                if a.col_idx()[k] as usize == i {
                    diag = a.vals()[k];
                } else {
                    off += a.vals()[k].abs();
                }
            }
            prop_assert!(diag > off, "row {} not dominant", i);
        }
    }

    /// CSR from shuffled triplets equals CSR from sorted triplets.
    #[test]
    fn csr_construction_is_order_independent(
        mut triplets in prop::collection::vec((0u32..20, 0u32..20, -5.0f64..5.0), 1..60),
        shuffle_seed in 0u64..100,
    ) {
        // Dedup positions to avoid summation-order effects.
        triplets.sort_by_key(|t| (t.0, t.1));
        triplets.dedup_by_key(|t| (t.0, t.1));
        let sorted = CsrMatrix::from_triplets(20, triplets.clone());
        // Deterministic shuffle.
        let mut state = shuffle_seed.wrapping_add(1);
        for i in (1..triplets.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            triplets.swap(i, j);
        }
        let shuffled = CsrMatrix::from_triplets(20, triplets);
        prop_assert_eq!(sorted, shuffled);
    }

    /// Blocked GEMM equals naive GEMM for any rank.
    #[test]
    fn blocked_gemm_matches_naive(
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
        rank in 1usize..26,
        seed in 0u64..1000,
    ) {
        let a = Matrix::random(m, k, seed);
        let b = Matrix::random(k, n, seed + 1);
        let naive = a.mul_naive(&b);
        let blocked = a.mul_blocked(&b, rank);
        prop_assert!(naive.max_abs_diff(&blocked) < 1e-10);
    }

    /// Vector kernels match scalar references.
    #[test]
    fn vecops_match_reference(
        x in prop::collection::vec(-100.0f64..100.0, 1..200),
        alpha in -3.0f64..3.0,
    ) {
        let y: Vec<f64> = x.iter().map(|v| v * 0.5 + 1.0).collect();
        let want: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let got = vecops::dot(&x, &y);
        prop_assert!((want - got).abs() <= 1e-9 * want.abs().max(1.0));

        let mut y2 = y.clone();
        vecops::axpy(alpha, &x, &mut y2);
        for i in 0..x.len() {
            prop_assert!((y2[i] - (y[i] + alpha * x[i])).abs() < 1e-12);
        }

        let mut out = vec![0.0; x.len()];
        vecops::xpby(&x, alpha, &y, &mut out);
        for i in 0..x.len() {
            prop_assert!((out[i] - (x[i] + alpha * y[i])).abs() < 1e-12);
        }
    }
}
