//! Principal component analysis.
//!
//! Reproduces the dimensionality reduction of the paper's Appendix B
//! (Figure 15): projecting the kernel-regression input vectors into 3-D
//! space to visualize how spike inputs separate from normal traffic.

use qb_linalg::Matrix;

use crate::eigen::symmetric_eigen;

/// A fitted PCA projection.
#[derive(Debug, Clone)]
pub struct Pca {
    /// Per-feature means subtracted before projection.
    mean: Vec<f64>,
    /// `features × k` matrix of principal axes (columns).
    components: Matrix,
    /// Variance explained by each retained component.
    explained_variance: Vec<f64>,
}

impl Pca {
    /// Fits a `k`-component PCA on the rows of `data` (samples × features).
    ///
    /// `k` is clamped to the number of features. Uses the covariance matrix
    /// plus the Jacobi eigensolver; intended for feature counts up to a few
    /// hundred, which covers the three-week hourly windows of Appendix B.
    ///
    /// # Panics
    /// Panics if `data` has no rows.
    pub fn fit(data: &Matrix, k: usize) -> Self {
        let n = data.rows();
        assert!(n > 0, "Pca::fit: empty data");
        let d = data.cols();
        let k = k.min(d);

        let mut mean = vec![0.0; d];
        for r in 0..n {
            for (m, &x) in mean.iter_mut().zip(data.row(r)) {
                *m += x;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }

        // Covariance matrix (d × d).
        let mut cov = Matrix::zeros(d, d);
        for r in 0..n {
            let row = data.row(r);
            for i in 0..d {
                let xi = row[i] - mean[i];
                if xi == 0.0 {
                    continue;
                }
                for j in i..d {
                    cov[(i, j)] += xi * (row[j] - mean[j]);
                }
            }
        }
        let denom = (n.max(2) - 1) as f64;
        for i in 0..d {
            for j in i..d {
                cov[(i, j)] /= denom;
                cov[(j, i)] = cov[(i, j)];
            }
        }

        let eig = symmetric_eigen(&cov);
        let mut components = Matrix::zeros(d, k);
        for c in 0..k {
            for r in 0..d {
                components[(r, c)] = eig.eigenvectors[(r, c)];
            }
        }
        let explained_variance = eig.eigenvalues[..k].to_vec();
        Self { mean, components, explained_variance }
    }

    /// Projects one sample into the principal subspace.
    ///
    /// # Panics
    /// Panics if `sample.len()` differs from the fitted feature count.
    pub fn transform(&self, sample: &[f64]) -> Vec<f64> {
        assert_eq!(sample.len(), self.mean.len(), "Pca::transform: dimension mismatch");
        let centered: Vec<f64> =
            sample.iter().zip(&self.mean).map(|(x, m)| x - m).collect();
        self.components.tr_matvec(&centered)
    }

    /// Projects every row of `data`.
    pub fn transform_all(&self, data: &Matrix) -> Matrix {
        let rows: Vec<Vec<f64>> = (0..data.rows()).map(|r| self.transform(data.row(r))).collect();
        Matrix::from_rows(&rows)
    }

    /// Variance captured by each retained component, descending.
    pub fn explained_variance(&self) -> &[f64] {
        &self.explained_variance
    }

    /// Number of retained components.
    pub fn k(&self) -> usize {
        self.components.cols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_component_follows_dominant_direction() {
        // Points spread along the (1,1) diagonal with small noise in (1,-1).
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| {
                let t = i as f64 - 25.0;
                let noise = ((i * 7919) % 13) as f64 / 13.0 - 0.5;
                vec![t + noise, t - noise]
            })
            .collect();
        let data = Matrix::from_rows(&rows);
        let pca = Pca::fit(&data, 2);
        // First axis ≈ (1,1)/√2 up to sign.
        let a0 = pca.components[(0, 0)];
        let a1 = pca.components[(1, 0)];
        assert!((a0.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.05);
        assert!((a0 - a1).abs() < 0.05, "axis should be diagonal: ({a0}, {a1})");
        assert!(pca.explained_variance()[0] > pca.explained_variance()[1] * 100.0);
    }

    #[test]
    fn transform_of_mean_is_origin() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 6.0], vec![5.0, 10.0]];
        let data = Matrix::from_rows(&rows);
        let pca = Pca::fit(&data, 1);
        let proj = pca.transform(&[3.0, 6.0]);
        assert!(proj[0].abs() < 1e-9);
    }

    #[test]
    fn k_clamped_to_feature_count() {
        let data = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        let pca = Pca::fit(&data, 10);
        assert_eq!(pca.k(), 2);
    }

    #[test]
    fn projection_preserves_pairwise_order_along_main_axis() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let data = Matrix::from_rows(&rows);
        let pca = Pca::fit(&data, 1);
        let p = pca.transform_all(&data);
        let col = p.col(0);
        let increasing = col.windows(2).all(|w| w[1] > w[0]);
        let decreasing = col.windows(2).all(|w| w[1] < w[0]);
        assert!(increasing || decreasing, "1-D projection must be monotone: {col:?}");
    }
}
