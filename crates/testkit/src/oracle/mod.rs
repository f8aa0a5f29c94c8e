//! Reference oracles: naive implementations the optimized code must match.
//!
//! Each oracle re-derives its math from the paper's description with the
//! simplest possible data structures (linear scans, full rescans, dense
//! Gauss–Jordan solves) instead of sharing the optimized crates' internals,
//! so a bug in an incremental similarity table or a Cholesky path cannot
//! hide in both sides of the comparison.

mod dbscan;
mod lr;
mod reference_clusterer;
mod retemplate;

pub use dbscan::{batch_dbscan, pairwise_agreement};
pub use lr::NormalEquationsLr;
pub use reference_clusterer::{online_partition, ReferenceClusterer};
pub use retemplate::naive_template;

/// Cosine similarity, accumulated in index order (the same order as
/// `qb-linalg`) and clamped to `[-1, 1]`. Zero-norm inputs yield 0.
pub(crate) fn cosine(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "cosine: length mismatch");
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for i in 0..a.len() {
        dot += a[i] * b[i];
        na += a[i] * a[i];
        nb += b[i] * b[i];
    }
    let (na, nb) = (na.sqrt(), nb.sqrt());
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot / (na * nb)).clamp(-1.0, 1.0)
}

/// Euclidean distance (for the inverse-L2 ablation metric).
pub(crate) fn l2(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "l2: length mismatch");
    let mut s = 0.0;
    for i in 0..a.len() {
        let d = a[i] - b[i];
        s += d * d;
    }
    s.sqrt()
}
