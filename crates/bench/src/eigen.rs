//! Symmetric eigendecomposition via the cyclic Jacobi method.

use qb_linalg::Matrix;

/// Result of a symmetric eigendecomposition: `A = V diag(λ) Vᵀ`.
///
/// Eigenpairs are sorted by descending eigenvalue; `eigenvectors` stores one
/// eigenvector per *column*, matching the usual convention.
#[derive(Debug, Clone)]
pub struct EigenDecomposition {
    pub eigenvalues: Vec<f64>,
    pub eigenvectors: Matrix,
}

/// Computes all eigenpairs of a symmetric matrix with the cyclic Jacobi
/// rotation method. Converges quadratically; suitable for the covariance
/// matrices PCA needs (tens to a few hundred dimensions).
///
/// # Panics
/// Panics if `a` is not square.
pub fn symmetric_eigen(a: &Matrix) -> EigenDecomposition {
    let n = a.rows();
    assert_eq!(a.cols(), n, "symmetric_eigen: matrix must be square");
    let mut m = a.clone();
    let mut v = Matrix::identity(n);

    const MAX_SWEEPS: usize = 100;
    for _ in 0..MAX_SWEEPS {
        let off: f64 = off_diagonal_norm(&m);
        if off < 1e-12 {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = m[(p, q)];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                // Compute the Jacobi rotation that zeroes m[p][q].
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;

                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }

    let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (m[(i, i)], i)).collect();
    pairs.sort_by(|a, b| b.0.total_cmp(&a.0));

    let eigenvalues: Vec<f64> = pairs.iter().map(|&(val, _)| val).collect();
    let mut eigenvectors = Matrix::zeros(n, n);
    for (new_col, &(_, old_col)) in pairs.iter().enumerate() {
        for r in 0..n {
            eigenvectors[(r, new_col)] = v[(r, old_col)];
        }
    }
    EigenDecomposition { eigenvalues, eigenvectors }
}

fn off_diagonal_norm(m: &Matrix) -> f64 {
    let n = m.rows();
    let mut s = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                s += m[(i, j)] * m[(i, j)];
            }
        }
    }
    s.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_eigenvalues_sorted() {
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 5.0, 0.0],
            vec![0.0, 0.0, 3.0],
        ]);
        let e = symmetric_eigen(&a);
        assert!((e.eigenvalues[0] - 5.0).abs() < 1e-9);
        assert!((e.eigenvalues[1] - 3.0).abs() < 1e-9);
        assert!((e.eigenvalues[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn known_2x2_eigenpairs() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let e = symmetric_eigen(&a);
        assert!((e.eigenvalues[0] - 3.0).abs() < 1e-9);
        assert!((e.eigenvalues[1] - 1.0).abs() < 1e-9);
        // Eigenvector for λ=3 is (1,1)/√2 up to sign.
        let v0 = e.eigenvectors.col(0);
        assert!((v0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-8);
        assert!((v0[0] - v0[1]).abs() < 1e-8);
    }

    #[test]
    fn reconstruction_a_equals_v_lambda_vt() {
        let a = Matrix::from_rows(&[
            vec![4.0, 1.0, 2.0],
            vec![1.0, 3.0, 0.5],
            vec![2.0, 0.5, 5.0],
        ]);
        let e = symmetric_eigen(&a);
        let mut lam = Matrix::zeros(3, 3);
        for i in 0..3 {
            lam[(i, i)] = e.eigenvalues[i];
        }
        let recon = e.eigenvectors.matmul(&lam).matmul(&e.eigenvectors.transpose());
        assert!((&recon - &a).frobenius_norm() < 1e-8);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Matrix::from_rows(&[
            vec![2.0, -1.0, 0.0],
            vec![-1.0, 2.0, -1.0],
            vec![0.0, -1.0, 2.0],
        ]);
        let e = symmetric_eigen(&a);
        let vtv = e.eigenvectors.transpose().matmul(&e.eigenvectors);
        assert!((&vtv - &Matrix::identity(3)).frobenius_norm() < 1e-8);
    }
}
