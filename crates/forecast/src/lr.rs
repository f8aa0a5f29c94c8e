//! Linear auto-regressive model (LR, §6.1).
//!
//! "They are simple linear models that have closed-form solutions" — we
//! solve the ridge-regularized normal equations via `qb-linalg`. The model
//! regresses each cluster's future rate on the joint window of all
//! clusters' recent rates plus a bias term.

use qb_linalg::{ridge_regression, Matrix};

use crate::dataset::{encode_recent, ensure_finite, sliding_windows, ForecastError, WindowSpec};
use crate::Forecaster;

/// Closed-form ridge auto-regression.
#[derive(Debug, Clone)]
pub struct LinearRegression {
    /// L2 regularization strength.
    pub lambda: f64,
    spec: Option<WindowSpec>,
    /// `(window·clusters + 1) × clusters` weights (last row = bias).
    weights: Option<Matrix>,
    clusters: usize,
}

impl Default for LinearRegression {
    fn default() -> Self {
        Self { lambda: 1e-3, spec: None, weights: None, clusters: 0 }
    }
}

impl LinearRegression {
    pub fn new(lambda: f64) -> Self {
        Self { lambda, ..Self::default() }
    }

    /// Serialized weight count (Table 4 storage accounting: LR stores its
    /// learned weights, ~100 B in the paper's setup).
    pub fn num_parameters(&self) -> usize {
        self.weights.as_ref().map_or(0, |w| w.rows() * w.cols())
    }
}

/// Appends a constant-1 bias column.
fn with_bias(x: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(x.rows(), x.cols() + 1);
    for r in 0..x.rows() {
        let row = out.row_mut(r);
        row[..x.cols()].copy_from_slice(x.row(r));
        row[x.cols()] = 1.0;
    }
    out
}

impl Forecaster for LinearRegression {
    fn name(&self) -> &'static str {
        "LR"
    }

    fn fit(&mut self, series: &[Vec<f64>], spec: WindowSpec) -> Result<(), ForecastError> {
        let (x, y) = sliding_windows(series, spec)?;
        let xb = with_bias(&x);
        let w = ridge_regression(&xb, &y, self.lambda)
            .map_err(|e| ForecastError::Numeric(e.to_string()))?;
        ensure_finite("LR", "weights", w.as_slice().iter().copied())?;
        self.spec = Some(spec);
        self.clusters = series.len();
        self.weights = Some(w);
        Ok(())
    }

    fn predict(&self, recent: &[Vec<f64>]) -> Vec<f64> {
        let spec = self.spec.expect("LR::predict before fit");
        let w = self.weights.as_ref().expect("LR::predict before fit");
        assert_eq!(recent.len(), self.clusters, "LR::predict: cluster count changed");
        let mut x = encode_recent(recent, spec.window);
        x.push(1.0);
        (0..self.clusters)
            .map(|c| {
                let yhat: f64 = x.iter().enumerate().map(|(i, &v)| v * w[(i, c)]).sum();
                yhat.exp_m1().max(0.0)
            })
            .collect()
    }
}

// --- serialization (Table 4's "size of the learned weights") ---

const LR_MAGIC: &[u8; 4] = b"QBLR";
const LR_VERSION: u16 = 1;

impl LinearRegression {
    /// Serializes the fitted model (weights + geometry).
    ///
    /// # Panics
    /// Panics if the model has not been fitted.
    pub fn to_bytes(&self) -> Vec<u8> {
        let spec = self.spec.expect("LR::to_bytes before fit");
        let w = self.weights.as_ref().expect("LR::to_bytes before fit");
        let mut out = crate::persist::Writer::new(LR_MAGIC, LR_VERSION);
        out.f64(self.lambda);
        out.spec(spec);
        out.u64(self.clusters as u64);
        out.u64(w.rows() as u64);
        out.u64(w.cols() as u64);
        out.f64s(w.as_slice());
        out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_identity_on_lagged_series() {
        // s[t+1] = s[t]: a random walk that repeats its last value.
        let mut v = 100.0;
        let series: Vec<f64> = (0..200)
            .map(|i| {
                v += if i % 3 == 0 { 5.0 } else { -2.0 };
                v
            })
            .collect();
        let spec = WindowSpec { window: 4, horizon: 1 };
        let mut lr = LinearRegression::default();
        lr.fit(&[series.clone()], spec).unwrap();
        // Prediction from a constant window should be near that constant.
        let pred = lr.predict(&[vec![150.0; 4]]);
        assert!((pred[0] - 150.0).abs() < 20.0, "{}", pred[0]);
    }

    #[test]
    fn learns_periodic_pattern() {
        let series: Vec<f64> = (0..500)
            .map(|t| 100.0 + 80.0 * ((t % 24) as f64 / 24.0 * std::f64::consts::TAU).sin())
            .collect();
        let spec = WindowSpec { window: 24, horizon: 1 };
        let mut lr = LinearRegression::default();
        lr.fit(&[series.clone()], spec).unwrap();
        let mse = crate::evaluate_mse_log(&lr, &[series], spec, 450);
        assert!(mse < 0.05, "periodic fit should be tight: {mse}");
    }

    #[test]
    fn joint_training_shares_information() {
        // Cluster 1 is a time-shifted copy of cluster 0: the joint model
        // can use cluster 0's window to predict cluster 1 exactly.
        let base: Vec<f64> =
            (0..300).map(|t| 50.0 + 40.0 * ((t % 12) as f64).sin().abs()).collect();
        let shifted: Vec<f64> = {
            let mut s = vec![50.0; 3];
            s.extend_from_slice(&base[..297]);
            s
        };
        let spec = WindowSpec { window: 12, horizon: 3 };
        let mut lr = LinearRegression::default();
        lr.fit(&[base.clone(), shifted.clone()], spec).unwrap();
        let mse = crate::evaluate_mse_log(&lr, &[base, shifted], spec, 280);
        assert!(mse < 0.05, "shifted-copy cluster should be predictable: {mse}");
    }

    #[test]
    fn never_predicts_negative() {
        let series = vec![vec![0.0; 100]];
        let spec = WindowSpec { window: 5, horizon: 1 };
        let mut lr = LinearRegression::default();
        lr.fit(&series, spec).unwrap();
        let pred = lr.predict(&[vec![0.0; 5]]);
        assert!(pred[0] >= 0.0);
    }

    #[test]
    fn not_enough_data_propagates() {
        let mut lr = LinearRegression::default();
        let err = lr.fit(&[vec![1.0; 3]], WindowSpec { window: 4, horizon: 1 }).unwrap_err();
        assert!(matches!(err, ForecastError::NotEnoughData { .. }));
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn predict_before_fit_panics() {
        LinearRegression::default().predict(&[vec![1.0; 4]]);
    }

    #[test]
    fn parameter_count() {
        let mut lr = LinearRegression::default();
        lr.fit(&[vec![1.0; 50], vec![2.0; 50]], WindowSpec { window: 10, horizon: 1 }).unwrap();
        // (10·2 + 1) × 2
        assert_eq!(lr.num_parameters(), 42);
        // Table 4's footprint is the weights: a 62-byte header (magic,
        // version, λ, window, horizon, shape, length) and 8 bytes each.
        let bytes = lr.to_bytes().len();
        assert_eq!(bytes, 62 + 8 * lr.num_parameters());
        assert!(bytes < 1024, "LR serialization is {bytes} bytes");
    }
}

#[cfg(test)]
mod persist_tests {
    use super::*;
    use crate::persist::TestCursor;

    #[test]
    fn roundtrip_preserves_predictions() {
        let series = vec![(0..200)
            .map(|t| 50.0 + 30.0 * ((t % 24) as f64 / 24.0 * std::f64::consts::TAU).sin())
            .collect::<Vec<f64>>()];
        let spec = WindowSpec { window: 24, horizon: 2 };
        let mut lr = LinearRegression::default();
        lr.fit(&series, spec).unwrap();
        let bytes = lr.to_bytes();

        let mut r = TestCursor::new(&bytes, LR_MAGIC, LR_VERSION);
        let lambda = r.f64();
        let restored_spec = r.spec();
        let clusters = r.u64() as usize;
        let rows = r.u64() as usize;
        let cols = r.u64() as usize;
        let data = r.f64s();
        r.finish();
        let restored = LinearRegression {
            lambda,
            spec: Some(restored_spec),
            weights: Some(Matrix::from_vec(rows, cols, data)),
            clusters,
        };
        let recent = vec![series[0][170..194].to_vec()];
        assert_eq!(lr.predict(&recent), restored.predict(&recent));
        // Table 4 narrative: the LR footprint is tiny (weights only).
        assert!(bytes.len() < 1024, "LR serialization is {} bytes", bytes.len());
    }
}
