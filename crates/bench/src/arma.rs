//! Autoregressive moving-average model (ARMA, §7.2).
//!
//! "ARMA is a generalization of LR models that consists of an
//! autoregressive part and a moving average part acting on residuals."
//!
//! Fitted per cluster with the Hannan–Rissanen two-stage procedure:
//!
//! 1. fit a long autoregression to estimate the innovation sequence;
//! 2. regress the series on `p` of its own lags *and* `q` lagged estimated
//!    innovations (ridge-regularized least squares).
//!
//! Prediction iterates the recursion `horizon` steps ahead, feeding back
//! predictions and zero future innovations (their conditional mean). The
//! paper found ARMA unstable across horizons because its optimal `(p, q)`
//! depends on the series' statistical properties — we keep fixed defaults
//! for the same hyperparameter-sensitivity reason (§7.2).

use qb_linalg::{ridge_regression, Matrix};

use qb_forecast::dataset::{ensure_finite, validate_series, ForecastError, WindowSpec};
use qb_forecast::Forecaster;

/// ARMA(p, q) fitted independently per cluster.
#[derive(Debug, Clone)]
pub struct Arma {
    /// Autoregressive order.
    pub p: usize,
    /// Moving-average order.
    pub q: usize,
    /// Long-AR order for stage 1 of Hannan–Rissanen.
    pub long_ar: usize,
    spec: Option<WindowSpec>,
    /// Per-cluster: (AR coefficients, MA coefficients, intercept).
    fits: Vec<ClusterFit>,
}

#[derive(Debug, Clone)]
struct ClusterFit {
    ar: Vec<f64>,
    ma: Vec<f64>,
    intercept: f64,
    /// Residuals of the training tail, newest last (seed for prediction).
    tail_residuals: Vec<f64>,
    /// Long-AR weights used to recompute residuals at prediction time.
    long_ar_w: Vec<f64>,
    long_ar_intercept: f64,
}

impl Default for Arma {
    fn default() -> Self {
        Self { p: 8, q: 4, long_ar: 16, spec: None, fits: Vec::new() }
    }
}

impl Arma {
    pub fn new(p: usize, q: usize) -> Self {
        assert!(p > 0, "ARMA requires p > 0");
        Self { p, q, long_ar: (2 * (p + q)).max(p + 1), ..Self::default() }
    }

    /// Fits one cluster's series (already in log space).
    fn fit_cluster(&self, s: &[f64]) -> Result<ClusterFit, ForecastError> {
        let n = s.len();
        let m = self.long_ar;
        // Stage 1: long AR to estimate innovations.
        let rows = n - m;
        let mut x = Matrix::zeros(rows, m + 1);
        let mut y = Matrix::zeros(rows, 1);
        for r in 0..rows {
            let row = x.row_mut(r);
            for k in 0..m {
                row[k] = s[r + m - 1 - k];
            }
            row[m] = 1.0;
            y[(r, 0)] = s[r + m];
        }
        let w = ridge_regression(&x, &y, 1e-3)
            .map_err(|e| ForecastError::Numeric(e.to_string()))?;
        let long_ar_w: Vec<f64> = (0..m).map(|k| w[(k, 0)]).collect();
        let long_ar_intercept = w[(m, 0)];

        // Innovations for t in [m, n).
        let mut resid = vec![0.0; n];
        for t in m..n {
            let mut pred = long_ar_intercept;
            for k in 0..m {
                pred += long_ar_w[k] * s[t - 1 - k];
            }
            resid[t] = s[t] - pred;
        }

        // Stage 2: regress on p lags of s and q lags of resid.
        let start = m + self.q; // need q valid residual lags
        let rows2 = n.saturating_sub(start);
        if rows2 < self.p + self.q + 2 {
            return Err(ForecastError::NotEnoughData {
                needed: start + self.p + self.q + 2,
                got: n,
            });
        }
        let dim = self.p + self.q + 1;
        let mut x2 = Matrix::zeros(rows2, dim);
        let mut y2 = Matrix::zeros(rows2, 1);
        for r in 0..rows2 {
            let t = start + r;
            let row = x2.row_mut(r);
            for k in 0..self.p {
                row[k] = if t > k { s[t - 1 - k] } else { 0.0 };
            }
            for k in 0..self.q {
                row[self.p + k] = resid[t - 1 - k];
            }
            row[dim - 1] = 1.0;
            y2[(r, 0)] = s[t];
        }
        let w2 = ridge_regression(&x2, &y2, 1e-3)
            .map_err(|e| ForecastError::Numeric(e.to_string()))?;
        let ar: Vec<f64> = (0..self.p).map(|k| w2[(k, 0)]).collect();
        let ma: Vec<f64> = (0..self.q).map(|k| w2[(self.p + k, 0)]).collect();
        let intercept = w2[(dim - 1, 0)];
        let tail_residuals = resid[n.saturating_sub(self.q.max(1))..].to_vec();
        ensure_finite(
            "ARMA",
            "coefficients",
            ar.iter()
                .chain(&ma)
                .chain(&long_ar_w)
                .chain(&tail_residuals)
                .copied()
                .chain([intercept, long_ar_intercept]),
        )?;
        Ok(ClusterFit { ar, ma, intercept, tail_residuals, long_ar_w, long_ar_intercept })
    }

    /// Iterated multi-step prediction for one cluster from its recent
    /// (log-space) history.
    fn predict_cluster(&self, fit: &ClusterFit, recent: &[f64], horizon: usize) -> f64 {
        // Recompute residuals over the recent window with the long-AR
        // model so the MA part has fresh innovations.
        let m = self.long_ar;
        let n = recent.len();
        let mut resid = vec![0.0; n];
        for t in m.min(n)..n {
            let mut pred = fit.long_ar_intercept;
            for k in 0..m {
                pred += fit.long_ar_w[k] * recent[t - 1 - k];
            }
            resid[t] = recent[t] - pred;
        }
        if n < m {
            // Too little context to estimate innovations: fall back to the
            // training-tail residuals.
            let tail = &fit.tail_residuals;
            let len = tail.len().min(n);
            resid[n - len..].copy_from_slice(&tail[tail.len() - len..]);
        }

        let mut series: Vec<f64> = recent.to_vec();
        let mut residuals = resid;
        // Iterated forecasts of an unconstrained ARMA fit can diverge when
        // the AR polynomial has roots near the unit circle (the horizon
        // instability §7.2 observes). Clamp each step to the log-space
        // range of plausible arrival rates so the recursion stays finite —
        // the model remains "unstable" (bad), just not infinite.
        const LOG_RATE_CAP: f64 = 25.0;
        for _ in 0..horizon {
            let t = series.len();
            let mut yhat = fit.intercept;
            for (k, &a) in fit.ar.iter().enumerate() {
                if t > k {
                    yhat += a * series[t - 1 - k];
                }
            }
            for (k, &b) in fit.ma.iter().enumerate() {
                if t > k {
                    yhat += b * residuals[t - 1 - k];
                }
            }
            series.push(yhat.clamp(0.0, LOG_RATE_CAP));
            residuals.push(0.0); // E[future innovation] = 0
        }
        *series.last().expect("horizon >= 1 pushes at least one")
    }
}

impl Forecaster for Arma {
    fn name(&self) -> &'static str {
        "ARMA"
    }

    fn fit(&mut self, series: &[Vec<f64>], spec: WindowSpec) -> Result<(), ForecastError> {
        validate_series(series, spec)?;
        let min_needed = self.long_ar + self.q + self.p + self.q + 2;
        if series[0].len() < min_needed {
            return Err(ForecastError::NotEnoughData { needed: min_needed, got: series[0].len() });
        }
        let mut fits = Vec::with_capacity(series.len());
        for s in series {
            let logs: Vec<f64> = s.iter().map(|&v| v.max(0.0).ln_1p()).collect();
            fits.push(self.fit_cluster(&logs)?);
        }
        self.fits = fits;
        self.spec = Some(spec);
        Ok(())
    }

    fn predict(&self, recent: &[Vec<f64>]) -> Vec<f64> {
        let spec = self.spec.expect("ARMA::predict before fit");
        assert_eq!(recent.len(), self.fits.len(), "ARMA::predict: cluster count changed");
        recent
            .iter()
            .zip(&self.fits)
            .map(|(s, fit)| {
                let logs: Vec<f64> = s.iter().map(|&v| v.max(0.0).ln_1p()).collect();
                self.predict_cluster(fit, &logs, spec.horizon).exp_m1().max(0.0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_ar1_process() {
        // y_t = 0.8 y_{t-1} + c: deterministic AR(1) in linear space is
        // harder through the log transform, so test pattern-tracking MSE.
        let mut v: f64 = 200.0;
        let series: Vec<f64> = (0..300)
            .map(|t| {
                let shock = if t % 17 == 0 { 30.0 } else { 0.0 };
                v = 0.8 * v + 40.0 + shock;
                v
            })
            .collect();
        let spec = WindowSpec { window: 24, horizon: 1 };
        let mut arma = Arma::default();
        arma.fit(&[series.clone()], spec).unwrap();
        let mse = qb_forecast::evaluate_mse_log(&arma, &[series], spec, 260);
        assert!(mse < 0.1, "{mse}");
    }

    #[test]
    fn tracks_periodic_series() {
        let series: Vec<f64> = (0..400)
            .map(|t| 100.0 + 60.0 * ((t % 24) as f64 / 24.0 * std::f64::consts::TAU).sin())
            .collect();
        let spec = WindowSpec { window: 48, horizon: 1 };
        let mut arma = Arma { p: 24, q: 4, long_ar: 30, spec: None, fits: Vec::new() };
        arma.fit(&[series.clone()], spec).unwrap();
        let mse = qb_forecast::evaluate_mse_log(&arma, &[series], spec, 350);
        assert!(mse < 0.1, "{mse}");
    }

    #[test]
    fn multi_step_horizon_prediction() {
        let series = vec![vec![500.0; 200]];
        let spec = WindowSpec { window: 24, horizon: 12 };
        let mut arma = Arma::default();
        arma.fit(&series, spec).unwrap();
        let pred = arma.predict(&[vec![500.0; 24]]);
        assert!((pred[0] - 500.0).abs() < 100.0, "{}", pred[0]);
    }

    #[test]
    fn per_cluster_independence() {
        let a = vec![100.0; 200];
        let b: Vec<f64> = (0..200).map(|t| ((t % 5) as f64 + 1.0) * 50.0).collect();
        let spec = WindowSpec { window: 20, horizon: 1 };
        let mut arma = Arma::default();
        arma.fit(&[a, b], spec).unwrap();
        let pred = arma.predict(&[vec![100.0; 20], vec![50.0; 20]]);
        assert_eq!(pred.len(), 2);
    }

    #[test]
    fn not_enough_data_error() {
        let mut arma = Arma::default();
        assert!(matches!(
            arma.fit(&[vec![1.0; 10]], WindowSpec { window: 4, horizon: 1 }),
            Err(ForecastError::NotEnoughData { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "ARMA requires p > 0")]
    fn zero_p_panics() {
        Arma::new(0, 1);
    }
}
