//! # qb-forecast
//!
//! The QB5000 **Forecaster** (§6): models that predict the future arrival
//! rate of each template cluster. One model is trained *jointly* over all
//! tracked clusters per prediction horizon (§7.2) — the input is a window
//! of every cluster's recent rates and the output is every cluster's rate
//! `horizon` steps ahead.
//!
//! Implemented model classes (Table 3):
//!
//! | model | linear | memory | kernel |
//! |-------|--------|--------|--------|
//! | [`LinearRegression`] (LR) | ✓ | ✗ | ✗ |
//! | [`Arma`] | ✓ | ✓ | ✗ |
//! | [`KernelRegression`] (KR) | ✗ | ✗ | ✓ |
//! | [`Rnn`] (LSTM) | ✗ | ✓ | ✗ |
//! | [`Fnn`] | ✗ | ✗ | ✗ |
//! | [`Psrnn`] | ✗ | ✓ | ✓ |
//!
//! plus the composites QB5000 actually deploys:
//!
//! * [`Ensemble`] — the equal average of LR and RNN predictions (§6.1);
//! * [`Hybrid`] — ENSEMBLE corrected by KR when KR forecasts a spike more
//!   than γ (=150 %) above the ensemble (§6.1), which is the only
//!   configuration able to predict the annual Admissions deadlines (§7.3).
//!
//! All models train in `ln(1+x)` space and report linear-space rates
//! (§7.2); accuracy is measured with [`qb_timeseries::mse_log_space`].

#![forbid(unsafe_code)]

pub mod arma;
pub mod dataset;
pub mod ensemble;
pub mod fallback;
pub mod fnn;
pub mod hybrid;
pub mod kr;
pub mod lr;
pub mod nn;
pub mod persist;
pub mod properties;
pub mod psrnn;
pub mod rnn;
pub mod weighted;

pub use arma::Arma;
pub use dataset::{ensure_finite, sliding_windows, ForecastError, WindowSpec};
pub use ensemble::Ensemble;
pub use fallback::Persistence;
pub use fnn::Fnn;
pub use hybrid::{Hybrid, HybridConfig};
pub use kr::KernelRegression;
pub use lr::LinearRegression;
pub use properties::{model_properties, ModelProperties};
pub use psrnn::Psrnn;
pub use rnn::{Rnn, RnnConfig};
pub use weighted::WeightedEnsemble;

/// How far down the fallback chain HYBRID → ENSEMBLE → single model →
/// last-value persistence a composite forecaster had to degrade after
/// member training failures. Ordered: later variants are more degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationLevel {
    /// Every member trained; the composite serves as designed.
    Full,
    /// HYBRID lost its KR member: the ensemble serves without spike
    /// correction.
    Ensemble,
    /// The ensemble lost a member: a single learned model serves.
    Single,
    /// Every learned model diverged: last-value persistence serves.
    LastValue,
}

impl DegradationLevel {
    pub fn name(self) -> &'static str {
        match self {
            DegradationLevel::Full => "full",
            DegradationLevel::Ensemble => "ensemble",
            DegradationLevel::Single => "single-model",
            DegradationLevel::LastValue => "last-value",
        }
    }

    /// Stable numeric code for durable serialization (append-only).
    pub fn to_code(self) -> u8 {
        match self {
            DegradationLevel::Full => 0,
            DegradationLevel::Ensemble => 1,
            DegradationLevel::Single => 2,
            DegradationLevel::LastValue => 3,
        }
    }

    /// Inverse of [`DegradationLevel::to_code`].
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => DegradationLevel::Full,
            1 => DegradationLevel::Ensemble,
            2 => DegradationLevel::Single,
            3 => DegradationLevel::LastValue,
            _ => return None,
        })
    }
}

/// A forecasting model jointly predicting all clusters at one horizon.
///
/// `series` is cluster-major: `series[c][t]` is cluster `c`'s arrival rate
/// in time-step `t` (linear space; models transform internally).
///
/// `Send` is a supertrait so trained models can be fitted on worker
/// threads and handed back to the caller (the `qb-parallel` engine fits
/// one model per horizon concurrently).
pub trait Forecaster: Send {
    /// Short display name (matches the paper's legends).
    fn name(&self) -> &'static str;

    /// Installs an observability recorder. The default is a no-op: simple
    /// models have no composite structure to report. ENSEMBLE and HYBRID
    /// override it to count member divergences and failures
    /// (`forecast.divergences`, `forecast.member_failures`).
    fn instrument(&mut self, _recorder: &qb_obs::Recorder) {}

    /// How far down the fallback chain the last fit landed.
    /// [`DegradationLevel::Full`] for models without a fallback chain
    /// (the default); ENSEMBLE and HYBRID report their serving level.
    fn degradation(&self) -> DegradationLevel {
        DegradationLevel::Full
    }

    /// Trains on the given aligned history.
    ///
    /// Implementations may return [`ForecastError::NotEnoughData`] when the
    /// series is shorter than `spec.window + spec.horizon`.
    fn fit(&mut self, series: &[Vec<f64>], spec: WindowSpec) -> Result<(), ForecastError>;

    /// Predicts each cluster's arrival rate `spec.horizon` steps after the
    /// end of `recent`, which must contain at least `spec.window` steps per
    /// cluster (extra leading history is ignored by window-based models).
    ///
    /// # Panics
    /// Panics if called before a successful [`Forecaster::fit`] or with a
    /// cluster count differing from training.
    fn predict(&self, recent: &[Vec<f64>]) -> Vec<f64>;
}

/// Rolling evaluation used by all the §7 experiments: walk the test range,
/// predict each step from the preceding window, and return per-cluster
/// `(actual, predicted)` pairs in linear space.
///
/// `series` spans training + test; `test_start` is the first time index to
/// score (predictions use only data ending `horizon` steps before the
/// scored point).
pub fn rolling_forecast(
    model: &dyn Forecaster,
    series: &[Vec<f64>],
    spec: WindowSpec,
    test_start: usize,
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let clusters = series.len();
    let len = series.first().map_or(0, Vec::len);
    let mut actual = vec![Vec::new(); clusters];
    let mut predicted = vec![Vec::new(); clusters];
    for t in test_start..len {
        // The window that ends `horizon` steps before t.
        let input_end = match t.checked_sub(spec.horizon) {
            Some(e) if e + 1 >= spec.window => e + 1,
            _ => continue,
        };
        let recent: Vec<Vec<f64>> =
            series.iter().map(|s| s[input_end - spec.window..input_end].to_vec()).collect();
        let pred = model.predict(&recent);
        for c in 0..clusters {
            actual[c].push(series[c][t]);
            predicted[c].push(pred[c]);
        }
    }
    (actual, predicted)
}

/// Average log-space MSE across clusters for a rolling forecast.
pub fn evaluate_mse_log(
    model: &dyn Forecaster,
    series: &[Vec<f64>],
    spec: WindowSpec,
    test_start: usize,
) -> f64 {
    let (actual, predicted) = rolling_forecast(model, series, spec, test_start);
    let per_cluster: Vec<f64> = actual
        .iter()
        .zip(&predicted)
        .filter(|(a, _)| !a.is_empty())
        .map(|(a, p)| qb_timeseries::mse_log_space(a, p))
        .collect();
    assert!(!per_cluster.is_empty(), "evaluate_mse_log: no test points");
    per_cluster.iter().sum::<f64>() / per_cluster.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Constant series: every sane model must nail it.
    #[test]
    fn all_models_predict_constant_series() {
        let series = vec![vec![100.0; 200], vec![50.0; 200]];
        let spec = WindowSpec { window: 12, horizon: 1 };
        let models: Vec<Box<dyn Forecaster>> = vec![
            Box::new(LinearRegression::default()),
            Box::new(KernelRegression::default()),
            Box::new(Arma::default()),
            Box::new(Fnn::default()),
            Box::new(Rnn::new(RnnConfig { epochs: 30, ..RnnConfig::default() })),
            Box::new(Psrnn::default()),
            Box::new(Ensemble::default()),
        ];
        for mut m in models {
            m.fit(&series, spec).unwrap();
            let recent = vec![vec![100.0; 12], vec![50.0; 12]];
            let pred = m.predict(&recent);
            assert!(
                (pred[0] - 100.0).abs() < 15.0,
                "{} cluster0 pred {} far from 100",
                m.name(),
                pred[0]
            );
            assert!(
                (pred[1] - 50.0).abs() < 10.0,
                "{} cluster1 pred {} far from 50",
                m.name(),
                pred[1]
            );
        }
    }

    #[test]
    fn rolling_forecast_shapes() {
        let series =
            vec![(0..100).map(|t| (t as f64 * 0.3).sin().abs() * 10.0).collect::<Vec<_>>()];
        let spec = WindowSpec { window: 10, horizon: 2 };
        let mut m = LinearRegression::default();
        m.fit(&series, spec).unwrap();
        let (a, p) = rolling_forecast(&m, &series, spec, 80);
        assert_eq!(a[0].len(), 20);
        assert_eq!(p[0].len(), 20);
    }

    #[test]
    fn evaluate_mse_log_is_finite_and_small_for_good_model() {
        let series = vec![(0..300)
            .map(|t| 100.0 + 50.0 * ((t % 24) as f64 / 24.0 * std::f64::consts::TAU).sin())
            .collect::<Vec<f64>>()];
        let spec = WindowSpec { window: 24, horizon: 1 };
        let mut m = LinearRegression::default();
        m.fit(&series, spec).unwrap();
        let mse = evaluate_mse_log(&m, &series, spec, 250);
        assert!(mse.is_finite());
        assert!(mse < 0.5, "LR should track a pure sinusoid: {mse}");
    }
}
