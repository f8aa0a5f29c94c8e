//! Property-based tests: every Table 3 baseline is total (finite,
//! non-negative output) on arbitrary non-negative series, as the deployed
//! models are in `qb-forecast`'s proptests; and the eigensolver and PCA
//! behind Figure 15 reconstruct and center arbitrary matrices.

use proptest::prelude::*;
use qb_bench::eigen::symmetric_eigen;
use qb_bench::pca::Pca;
use qb_bench::{arma::Arma, fnn, psrnn};
use qb_forecast::{Forecaster, WindowSpec};
use qb_linalg::Matrix;

fn series_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    // 1-2 clusters, 60-120 steps, arbitrary non-negative rates incl. zeros
    // and large spikes.
    (1usize..3, 60usize..120).prop_flat_map(|(clusters, len)| {
        proptest::collection::vec(
            proptest::collection::vec(
                prop_oneof![Just(0.0f64), 0.0f64..100.0, 1e4f64..1e6],
                len,
            ),
            clusters,
        )
    })
}

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    // Well-conditioned range: avoids overflow without losing generality.
    proptest::collection::vec(-100.0..100.0f64, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

fn check_model(
    mut model: Box<dyn Forecaster>,
    series: &[Vec<f64>],
) -> Result<(), TestCaseError> {
    let spec = WindowSpec { window: 12, horizon: 3 };
    model.fit(series, spec).map_err(|e| {
        TestCaseError::fail(format!("{} failed to fit: {e}", model.name()))
    })?;
    let recent: Vec<Vec<f64>> =
        series.iter().map(|s| s[s.len() - 12..].to_vec()).collect();
    let pred = model.predict(&recent);
    prop_assert_eq!(pred.len(), series.len());
    for p in &pred {
        prop_assert!(p.is_finite(), "{} produced non-finite {}", model.name(), p);
        prop_assert!(*p >= 0.0, "{} produced negative rate {}", model.name(), p);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arma_total(series in series_strategy()) {
        check_model(Box::new(Arma::default()), &series)?;
    }

    #[test]
    fn fnn_total(series in series_strategy()) {
        let cfg = fnn::FnnConfig { epochs: 3, hidden: 8, ..Default::default() };
        check_model(Box::new(fnn::Fnn::new(cfg)), &series)?;
    }

    #[test]
    fn psrnn_total(series in series_strategy()) {
        let cfg = psrnn::PsrnnConfig { epochs: 2, state_dim: 6, ..Default::default() };
        check_model(Box::new(psrnn::Psrnn::new(cfg)), &series)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eigendecomposition reconstructs symmetric matrices.
    #[test]
    fn eigen_reconstruction(a in matrix(4, 4)) {
        // Symmetrize.
        let sym = {
            let mut s = Matrix::zeros(4, 4);
            for i in 0..4 {
                for j in 0..4 {
                    s[(i, j)] = 0.5 * (a[(i, j)] + a[(j, i)]);
                }
            }
            s
        };
        let e = symmetric_eigen(&sym);
        let mut lam = Matrix::zeros(4, 4);
        for i in 0..4 {
            lam[(i, i)] = e.eigenvalues[i];
        }
        let recon = e.eigenvectors.matmul(&lam).matmul(&e.eigenvectors.transpose());
        prop_assert!((&recon - &sym).frobenius_norm() < 1e-6 * (1.0 + sym.frobenius_norm()));
        // Eigenvalues sorted descending.
        for w in e.eigenvalues.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-9);
        }
    }

    /// PCA projection of the mean row is the origin, and projecting
    /// preserves the sample count.
    #[test]
    fn pca_centers_data(data in matrix(10, 4)) {
        let pca = Pca::fit(&data, 2);
        let projected = pca.transform_all(&data);
        prop_assert_eq!(projected.rows(), 10);
        // Column means of the projection are ~0 (centering).
        for c in 0..projected.cols() {
            let mean: f64 = projected.col(c).iter().sum::<f64>() / 10.0;
            prop_assert!(mean.abs() < 1e-6, "column {} mean {}", c, mean);
        }
    }
}
