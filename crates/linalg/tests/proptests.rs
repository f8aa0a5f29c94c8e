//! Property-based tests for the linear-algebra kernel.

use proptest::prelude::*;
use qb_linalg::{cholesky_solve, lu_solve, ridge_regression, Matrix};

fn small_f64() -> impl Strategy<Value = f64> {
    // Well-conditioned range: avoids overflow without losing generality.
    -100.0..100.0f64
}

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(small_f64(), rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (AB)C = A(BC) for conformable shapes.
    #[test]
    fn matmul_associative(a in matrix(3, 4), b in matrix(4, 2), c in matrix(2, 5)) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!((&left - &right).frobenius_norm() < 1e-6 * (1.0 + left.frobenius_norm()));
    }

    /// (A + B)ᵀ = Aᵀ + Bᵀ and (AB)ᵀ = BᵀAᵀ.
    #[test]
    fn transpose_laws(a in matrix(3, 4), b in matrix(3, 4), c in matrix(4, 2)) {
        let sum_t = (&a + &b).transpose();
        let t_sum = &a.transpose() + &b.transpose();
        prop_assert_eq!(sum_t, t_sum);
        let prod_t = a.matmul(&c).transpose();
        let t_prod = c.transpose().matmul(&a.transpose());
        prop_assert!((&prod_t - &t_prod).frobenius_norm() < 1e-8 * (1.0 + prod_t.frobenius_norm()));
    }

    /// Cholesky and LU agree on SPD systems built as AᵀA + I.
    #[test]
    fn solvers_agree_on_spd(a in matrix(5, 3), b in proptest::collection::vec(small_f64(), 3)) {
        let mut spd = a.gram();
        for i in 0..3 {
            spd[(i, i)] += 1.0;
        }
        let x1 = cholesky_solve(&spd, &b).expect("SPD");
        let x2 = lu_solve(&spd, &b).expect("nonsingular");
        for (p, q) in x1.iter().zip(&x2) {
            prop_assert!((p - q).abs() < 1e-6 * (1.0 + p.abs()));
        }
        // And the solution actually solves the system.
        let back = spd.matvec(&x1);
        for (p, q) in back.iter().zip(&b) {
            prop_assert!((p - q).abs() < 1e-5 * (1.0 + q.abs()));
        }
    }

    /// Ridge regression residuals are orthogonal-ish: increasing lambda
    /// never increases the weight norm.
    #[test]
    fn ridge_weight_norm_monotone_in_lambda(x in matrix(12, 3), y in matrix(12, 2)) {
        let w_small = ridge_regression(&x, &y, 1e-6).expect("solvable");
        let w_big = ridge_regression(&x, &y, 1e3).expect("solvable");
        prop_assert!(w_big.frobenius_norm() <= w_small.frobenius_norm() + 1e-9);
    }

    /// Cosine similarity is bounded and symmetric.
    #[test]
    fn cosine_bounds(a in proptest::collection::vec(small_f64(), 6),
                     b in proptest::collection::vec(small_f64(), 6)) {
        let s = qb_linalg::cosine_similarity(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&s));
        prop_assert!((s - qb_linalg::cosine_similarity(&b, &a)).abs() < 1e-12);
    }
}
