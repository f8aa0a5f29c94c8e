//! Linear-system solvers and the ridge-regression closed form.

use crate::Matrix;

/// Errors produced by the direct solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix is not positive definite (Cholesky) or is singular (LU).
    Singular,
    /// Operand shapes are incompatible.
    ShapeMismatch { expected: (usize, usize), got: (usize, usize) },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::Singular => write!(f, "matrix is singular or not positive definite"),
            LinalgError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected:?}, got {got:?}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Solves `A x = b` for symmetric positive-definite `A` via Cholesky
/// factorization (`A = L Lᵀ`), the fast path for normal-equation solves.
pub fn cholesky_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::ShapeMismatch { expected: (n, n), got: a.shape() });
    }
    if b.len() != n {
        return Err(LinalgError::ShapeMismatch { expected: (n, 1), got: (b.len(), 1) });
    }
    Ok(cholesky_substitute(&cholesky_factor(a)?, b))
}

/// Solves `L Lᵀ x = b` given the lower Cholesky factor `L`.
fn cholesky_substitute(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = l.rows();
    // Forward substitution: L y = b.
    let mut y = vec![0.0; n];
    for i in 0..n {
        let s: f64 = (0..i).map(|j| l[(i, j)] * y[j]).sum();
        y[i] = (b[i] - s) / l[(i, i)];
    }
    // Back substitution: Lᵀ x = y.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let s: f64 = (i + 1..n).map(|j| l[(j, i)] * x[j]).sum();
        x[i] = (y[i] - s) / l[(i, i)];
    }
    x
}

/// Computes the lower Cholesky factor `L` of an SPD matrix.
fn cholesky_factor(a: &Matrix) -> Result<Matrix, LinalgError> {
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let s: f64 = (0..j).map(|k| l[(i, k)] * l[(j, k)]).sum();
            if i == j {
                let d = a[(i, i)] - s;
                if d <= 0.0 || !d.is_finite() {
                    return Err(LinalgError::Singular);
                }
                l[(i, j)] = d.sqrt();
            } else {
                l[(i, j)] = (a[(i, j)] - s) / l[(j, j)];
            }
        }
    }
    Ok(l)
}

/// Solves `A x = b` for general square `A` via LU with partial pivoting.
pub fn lu_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::ShapeMismatch { expected: (n, n), got: a.shape() });
    }
    if b.len() != n {
        return Err(LinalgError::ShapeMismatch { expected: (n, 1), got: (b.len(), 1) });
    }
    let mut lu = a.clone();
    let mut x: Vec<f64> = b.to_vec();
    let mut perm: Vec<usize> = (0..n).collect();

    for col in 0..n {
        // Partial pivot: pick the largest magnitude in this column.
        let (pivot_row, pivot_val) = (col..n)
            .map(|r| (r, lu[(r, col)].abs()))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty column");
        if pivot_val < 1e-300 || !pivot_val.is_finite() {
            return Err(LinalgError::Singular);
        }
        if pivot_row != col {
            for c in 0..n {
                let tmp = lu[(col, c)];
                lu[(col, c)] = lu[(pivot_row, c)];
                lu[(pivot_row, c)] = tmp;
            }
            perm.swap(col, pivot_row);
            x.swap(col, pivot_row);
        }
        let pivot = lu[(col, col)];
        for r in col + 1..n {
            let factor = lu[(r, col)] / pivot;
            lu[(r, col)] = factor;
            for c in col + 1..n {
                let v = lu[(col, c)];
                lu[(r, c)] -= factor * v;
            }
            x[r] -= factor * x[col];
        }
    }
    // Back substitution with U.
    for i in (0..n).rev() {
        let s: f64 = (i + 1..n).map(|j| lu[(i, j)] * x[j]).sum();
        x[i] = (x[i] - s) / lu[(i, i)];
    }
    Ok(x)
}

/// Ridge-regularized least squares: returns the weight matrix `W`
/// (`features × targets`) minimizing `‖X W − Y‖² + λ‖W‖²`.
///
/// This is the closed-form solution `(XᵀX + λI)⁻¹ XᵀY` used by QB5000's LR
/// model (§6.1): one multi-output linear map trained jointly over all
/// clusters. The regularized Gram matrix is SPD for λ > 0, so it is
/// Cholesky-factored once and every target column is substituted through
/// the one factor; if factoring fails each column falls back to LU.
pub fn ridge_regression(x: &Matrix, y: &Matrix, lambda: f64) -> Result<Matrix, LinalgError> {
    if x.rows() != y.rows() {
        return Err(LinalgError::ShapeMismatch { expected: (x.rows(), y.cols()), got: y.shape() });
    }
    let mut gram = x.gram();
    for i in 0..gram.rows() {
        gram[(i, i)] += lambda;
    }
    let xty = x.transpose().matmul(y);
    let factor = cholesky_factor(&gram);
    let mut w = Matrix::zeros(x.cols(), y.cols());
    for t in 0..y.cols() {
        let rhs = xty.col(t);
        let col = match &factor {
            Ok(l) => cholesky_substitute(l, &rhs),
            Err(_) => lu_solve(&gram, &rhs)?,
        };
        for (i, v) in col.into_iter().enumerate() {
            w[(i, t)] = v;
        }
    }
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} != {b:?}");
        }
    }

    #[test]
    fn cholesky_solves_spd_system() {
        // A = [[4,2],[2,3]], b = [10, 8] → x = [1.75, 1.5]
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        let x = cholesky_solve(&a, &[10.0, 8.0]).unwrap();
        assert_close(&x, &[1.75, 1.5], 1e-10);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert_eq!(cholesky_solve(&a, &[1.0, 1.0]), Err(LinalgError::Singular));
    }

    #[test]
    fn lu_solves_general_system() {
        // Requires pivoting: leading zero.
        let a = Matrix::from_rows(&[vec![0.0, 2.0], vec![1.0, 1.0]]);
        let x = lu_solve(&a, &[4.0, 3.0]).unwrap();
        assert_close(&x, &[1.0, 2.0], 1e-10);
    }

    #[test]
    fn lu_rejects_singular() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(lu_solve(&a, &[1.0, 2.0]), Err(LinalgError::Singular));
    }

    #[test]
    fn lu_and_cholesky_agree_on_spd() {
        let a = Matrix::from_rows(&[
            vec![6.0, 2.0, 1.0],
            vec![2.0, 5.0, 2.0],
            vec![1.0, 2.0, 4.0],
        ]);
        let b = [1.0, 2.0, 3.0];
        let x1 = cholesky_solve(&a, &b).unwrap();
        let x2 = lu_solve(&a, &b).unwrap();
        assert_close(&x1, &x2, 1e-10);
    }

    #[test]
    fn ridge_recovers_exact_linear_map() {
        // y = 2*x0 - 3*x1, plenty of samples, tiny lambda.
        let xs: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64, (i * i % 7) as f64])
            .collect();
        let ys: Vec<Vec<f64>> = xs.iter().map(|r| vec![2.0 * r[0] - 3.0 * r[1]]).collect();
        let x = Matrix::from_rows(&xs);
        let y = Matrix::from_rows(&ys);
        let w = ridge_regression(&x, &y, 1e-9).unwrap();
        assert!((w[(0, 0)] - 2.0).abs() < 1e-5);
        assert!((w[(1, 0)] + 3.0).abs() < 1e-5);
    }

    #[test]
    fn ridge_multi_output() {
        let xs: Vec<Vec<f64>> = (1..30).map(|i| vec![i as f64, 1.0]).collect();
        let ys: Vec<Vec<f64>> = xs.iter().map(|r| vec![r[0] * 5.0, 7.0 - r[0]]).collect();
        let w = ridge_regression(&Matrix::from_rows(&xs), &Matrix::from_rows(&ys), 1e-9).unwrap();
        assert!((w[(0, 0)] - 5.0).abs() < 1e-5);
        assert!((w[(0, 1)] + 1.0).abs() < 1e-5);
        assert!((w[(1, 1)] - 7.0).abs() < 1e-4);
    }

    #[test]
    fn ridge_factors_once_and_matches_per_column_solves_bit_for_bit() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(0x51d9e);
        let mut fallbacks = 0;
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        // λ = 0 with more features than rows leaves the Gram matrix
        // singular, so the LU fallback is compared too.
        for &(rows, features) in &[(1, 1), (7, 3), (30, 12), (5, 9), (60, 41)] {
            for targets in [1, 3, 5] {
                for lambda in [0.0, 1e-9, 0.5, 1e3] {
                    let x = Matrix::from_rows(
                        &(0..rows)
                            .map(|_| (0..features).map(|_| rng.gen_range(-5.0..5.0)).collect())
                            .collect::<Vec<Vec<f64>>>(),
                    );
                    let y = Matrix::from_rows(
                        &(0..rows)
                            .map(|_| (0..targets).map(|_| rng.gen_range(-50.0..50.0)).collect())
                            .collect::<Vec<Vec<f64>>>(),
                    );
                    let mut gram = x.gram();
                    for i in 0..features {
                        gram[(i, i)] += lambda;
                    }
                    let xty = x.transpose().matmul(&y);
                    fallbacks += usize::from(cholesky_solve(&gram, &xty.col(0)).is_err());
                    let want: Result<Vec<Vec<f64>>, LinalgError> = (0..targets)
                        .map(|t| {
                            let rhs = xty.col(t);
                            cholesky_solve(&gram, &rhs).or_else(|_| lu_solve(&gram, &rhs))
                        })
                        .collect();
                    let got = ridge_regression(&x, &y, lambda);
                    let case = format!("{rows}x{features} targets={targets} λ={lambda}");
                    match (want, got) {
                        (Ok(cols), Ok(w)) => {
                            for (t, col) in cols.iter().enumerate() {
                                assert_eq!(bits(&w.col(t)), bits(col), "{case} column {t}");
                            }
                        }
                        (Err(a), Err(b)) => assert_eq!(a, b, "{case}"),
                        (want, got) => panic!("{case}: {want:?} vs {got:?}"),
                    }
                }
            }
        }
        assert!(fallbacks > 0, "some case must take the LU fallback");
    }

    #[test]
    fn ridge_shrinks_with_large_lambda() {
        let xs: Vec<Vec<f64>> = (1..10).map(|i| vec![i as f64]).collect();
        let ys: Vec<Vec<f64>> = xs.iter().map(|r| vec![r[0]]).collect();
        let w_small =
            ridge_regression(&Matrix::from_rows(&xs), &Matrix::from_rows(&ys), 1e-9).unwrap();
        let w_big =
            ridge_regression(&Matrix::from_rows(&xs), &Matrix::from_rows(&ys), 1e6).unwrap();
        assert!(w_big[(0, 0)].abs() < w_small[(0, 0)].abs());
    }
}
