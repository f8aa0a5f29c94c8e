//! # qb-linalg
//!
//! A small, dependency-free dense linear-algebra kernel that backs the
//! QB5000 forecasting models (`qb-forecast`). It intentionally implements
//! only what the models need — no BLAS bindings, no SIMD intrinsics — while
//! staying cache-friendly (row-major storage, blocked-free but
//! iterator-driven inner loops that the compiler auto-vectorizes).
//!
//! Provided functionality:
//!
//! * [`Matrix`] — row-major `f64` matrix with the usual arithmetic,
//!   transpose, and matrix multiplication.
//! * [`solve`] — linear-system solvers: Cholesky (SPD) with an LU
//!   (partial-pivoting) fallback, plus ridge-regularized least squares,
//!   which is the closed form behind the paper's LR model (§6.1).
//! * [`eigen`] — symmetric eigendecomposition via the cyclic Jacobi method.
//! * [`pca`] — principal component analysis used to reproduce the
//!   3-D input-space projection of Appendix B (Figure 15).
//!
//! All routines are deterministic; randomized initialization helpers take an
//! explicit RNG.

#![forbid(unsafe_code)]

pub mod eigen;
pub mod matrix;
pub mod pca;
pub mod solve;

pub use eigen::{symmetric_eigen, EigenDecomposition};
pub use matrix::Matrix;
pub use pca::Pca;
pub use solve::{cholesky_solve, lu_solve, ridge_regression, LinalgError};

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm of a slice.
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Cosine similarity between two vectors, the Clusterer's similarity metric
/// (§5.1). Returns 0.0 when either vector is all-zero so that a template
/// with no recorded arrivals is never judged similar to anything.
#[inline]
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    let (na, nb) = (norm(a), norm(b));
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
}

/// Squared L2 distance between two vectors.
#[inline]
pub fn sq_l2_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "sq_l2_distance: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// L2 distance, used by the logical-feature ablation clustering (§7.7).
#[inline]
pub fn l2_distance(a: &[f64], b: &[f64]) -> f64 {
    sq_l2_distance(a, b).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn norm_basic() {
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_identical_vectors_is_one() {
        let v = [0.3, 0.9, 1.7];
        assert!((cosine_similarity(&v, &v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_orthogonal_is_zero() {
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
    }

    #[test]
    fn cosine_opposite_is_minus_one() {
        assert!((cosine_similarity(&[1.0, 2.0], &[-1.0, -2.0]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
        assert_eq!(cosine_similarity(&[1.0, 2.0], &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn cosine_is_scale_invariant() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 20.0, 30.0];
        assert!((cosine_similarity(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn l2_distance_basic() {
        assert!((l2_distance(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
