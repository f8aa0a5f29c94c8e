//! The ENSEMBLE model (§6.1): the equal average of LR and RNN predictions.
//!
//! "We apply an ensemble method by equally averaging the prediction results
//! of the LR and RNN models. We also tried averaging the models with
//! weights derived from the training history, but that led to overfitting."
//!
//! Resilience: a member whose training *diverges* (non-finite loss or
//! weights) is dropped rather than failing the fit — the surviving member
//! serves alone, and if both members diverge a last-value [`Persistence`]
//! fallback serves. Data errors (shape, length) still propagate: they would
//! fail every link of the chain identically. [`Ensemble::degradation`]
//! reports how far down the chain the fit landed.

use qb_parallel::Parallelism;

use crate::dataset::{ForecastError, WindowSpec};
use crate::fallback::Persistence;
use crate::lr::LinearRegression;
use crate::rnn::{Rnn, RnnConfig};
use crate::{DegradationLevel, Forecaster};

/// Which members survived the last fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Both,
    LrOnly,
    RnnOnly,
    LastValue,
}

/// LR + RNN averaged with equal weights.
///
/// Members fit concurrently when [`Parallelism`] allows: each member is
/// self-contained and seeded independently, and their `Result`s are joined
/// in fixed member order (LR, then RNN), so the degradation chain — and
/// every output bit — is identical to a sequential run. Prediction calls
/// the members in that order on the caller.
pub struct Ensemble {
    lr: LinearRegression,
    rnn: Rnn,
    fallback: Persistence,
    mode: Mode,
    failures: Vec<(&'static str, ForecastError)>,
    par: Parallelism,
    /// Counts member divergences across fits; no-op until
    /// [`Forecaster::instrument`] installs a recorder.
    divergences: qb_obs::Counter,
    member_failures_metric: qb_obs::Counter,
}

impl Default for Ensemble {
    fn default() -> Self {
        Self::new(RnnConfig::default())
    }
}

impl Ensemble {
    pub fn new(rnn_cfg: RnnConfig) -> Self {
        Self::from_parts(LinearRegression::default(), Rnn::new(rnn_cfg))
    }

    /// Builds from already-configured members (lets the harness share
    /// settings across the standalone and ensemble evaluations).
    pub fn from_parts(lr: LinearRegression, rnn: Rnn) -> Self {
        Self {
            lr,
            rnn,
            fallback: Persistence::new(),
            mode: Mode::Both,
            failures: Vec::new(),
            par: Parallelism::from_env(),
            divergences: qb_obs::Counter::default(),
            member_failures_metric: qb_obs::Counter::default(),
        }
    }

    /// Overrides the environment-derived member parallelism (the
    /// determinism suite pins both a sequential and a 4-thread instance).
    ///
    /// It governs `fit` only, where each member trains for up to seconds.
    /// `predict` always calls LR then RNN on the calling thread: one
    /// forward pass each costs less than spawning a thread for it.
    pub fn set_parallelism(&mut self, par: Parallelism) {
        self.par = par;
    }

    /// Read access to the members, for the §7.3 per-model spike plots.
    pub fn members(&self) -> (&LinearRegression, &Rnn) {
        (&self.lr, &self.rnn)
    }

    /// How far down the fallback chain the last fit landed.
    pub fn degradation(&self) -> DegradationLevel {
        match self.mode {
            Mode::Both => DegradationLevel::Full,
            Mode::LrOnly | Mode::RnnOnly => DegradationLevel::Single,
            Mode::LastValue => DegradationLevel::LastValue,
        }
    }

    /// The member failures that caused degradation (empty when Full).
    pub fn member_failures(&self) -> &[(&'static str, ForecastError)] {
        &self.failures
    }
}

impl Forecaster for Ensemble {
    fn name(&self) -> &'static str {
        "ENSEMBLE"
    }

    fn instrument(&mut self, recorder: &qb_obs::Recorder) {
        self.divergences = recorder.counter("forecast.divergences");
        self.member_failures_metric = recorder.counter("forecast.member_failures");
    }

    fn degradation(&self) -> DegradationLevel {
        Ensemble::degradation(self)
    }

    fn fit(&mut self, series: &[Vec<f64>], spec: WindowSpec) -> Result<(), ForecastError> {
        self.failures.clear();
        self.mode = Mode::Both;
        // Disjoint member borrows fit concurrently; the join returns
        // results in member order regardless of completion order.
        let (lr, rnn, par) = (&mut self.lr, &mut self.rnn, self.par);
        let (lr_res, rnn_res) =
            par.join(move || lr.fit(series, spec), move || rnn.fit(series, spec));
        // Data errors fail the whole chain: no member could train either.
        for res in [&lr_res, &rnn_res] {
            if let Err(e) = res {
                if !e.is_model_failure() {
                    return Err(e.clone());
                }
            }
        }
        self.mode = match (lr_res, rnn_res) {
            (Ok(()), Ok(())) => Mode::Both,
            (Ok(()), Err(e)) => {
                self.failures.push(("RNN", e));
                Mode::LrOnly
            }
            (Err(e), Ok(())) => {
                self.failures.push(("LR", e));
                Mode::RnnOnly
            }
            (Err(lr_err), Err(rnn_err)) => {
                self.failures.push(("LR", lr_err));
                self.failures.push(("RNN", rnn_err));
                self.fallback.fit(series, spec)?;
                Mode::LastValue
            }
        };
        self.member_failures_metric.add(self.failures.len() as u64);
        self.divergences.add(
            self.failures.iter().filter(|(_, e)| e.is_model_failure()).count() as u64,
        );
        Ok(())
    }

    fn predict(&self, recent: &[Vec<f64>]) -> Vec<f64> {
        match self.mode {
            Mode::Both => {
                let (a, b) = (self.lr.predict(recent), self.rnn.predict(recent));
                a.iter().zip(&b).map(|(x, y)| 0.5 * (x + y)).collect()
            }
            Mode::LrOnly => self.lr.predict(recent),
            Mode::RnnOnly => self.rnn.predict(recent),
            Mode::LastValue => self.fallback.predict(recent),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_rnn() -> RnnConfig {
        RnnConfig { epochs: 15, hidden: 8, embedding: 6, ..RnnConfig::default() }
    }

    #[test]
    fn prediction_is_member_average() {
        let series = vec![(0..150)
            .map(|t| 80.0 + 40.0 * ((t % 10) as f64 / 10.0 * std::f64::consts::TAU).sin())
            .collect::<Vec<f64>>()];
        let spec = WindowSpec { window: 10, horizon: 1 };
        let mut e = Ensemble::new(quick_rnn());
        e.fit(&series, spec).unwrap();
        let recent = vec![series[0][130..140].to_vec()];
        let pred = e.predict(&recent);
        let (lr, rnn) = e.members();
        let want = 0.5 * (lr.predict(&recent)[0] + rnn.predict(&recent)[0]);
        assert!((pred[0] - want).abs() < 1e-9);
    }

    #[test]
    fn ensemble_not_worse_than_worst_member() {
        let series = vec![(0..220)
            .map(|t| 100.0 + 70.0 * ((t % 24) as f64 / 24.0 * std::f64::consts::TAU).sin())
            .collect::<Vec<f64>>()];
        let spec = WindowSpec { window: 24, horizon: 1 };
        let mut e = Ensemble::new(quick_rnn());
        e.fit(&series, spec).unwrap();
        let mse_e = crate::evaluate_mse_log(&e, &series, spec, 190);
        let (lr, rnn) = e.members();
        let mse_lr = crate::evaluate_mse_log(lr, &series, spec, 190);
        let mse_rnn = crate::evaluate_mse_log(rnn, &series, spec, 190);
        let worst = mse_lr.max(mse_rnn);
        assert!(
            mse_e <= worst + 0.05,
            "ensemble {mse_e} worse than worst member {worst}"
        );
    }

    #[test]
    fn fit_error_propagates() {
        let mut e = Ensemble::new(quick_rnn());
        assert!(e.fit(&[vec![1.0; 3]], WindowSpec { window: 10, horizon: 1 }).is_err());
    }

    #[test]
    fn rnn_divergence_degrades_to_single_member() {
        // A NaN learning rate poisons the RNN's optimizer on the first Adam
        // step; the closed-form LR member is untouched. The ensemble must
        // drop the diverged member, not fail.
        let cfg = RnnConfig { learning_rate: f64::NAN, epochs: 3, ..quick_rnn() };
        let series = vec![vec![50.0; 120]];
        let spec = WindowSpec { window: 8, horizon: 1 };
        let mut e = Ensemble::new(cfg);
        e.fit(&series, spec).unwrap();
        assert_eq!(e.degradation(), DegradationLevel::Single);
        let failures = e.member_failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, "RNN");
        assert!(matches!(failures[0].1, ForecastError::Diverged { model: "RNN", .. }));
        let pred = e.predict(&[vec![50.0; 8]]);
        assert!(pred[0].is_finite());
        assert!((pred[0] - 50.0).abs() < 15.0, "LR alone should serve: {}", pred[0]);
    }

    #[test]
    fn infinite_series_degrades_to_last_value() {
        // ∞ survives the log transform (ln(1+∞) = ∞), so both members see
        // non-finite training data and diverge; persistence must serve.
        let mut s = vec![30.0; 120];
        s[60] = f64::INFINITY;
        let spec = WindowSpec { window: 8, horizon: 1 };
        let mut e = Ensemble::new(quick_rnn());
        e.fit(&[s], spec).unwrap();
        assert_eq!(e.degradation(), DegradationLevel::LastValue);
        assert_eq!(e.member_failures().len(), 2);
        let pred = e.predict(&[vec![25.0; 8]]);
        assert_eq!(pred, vec![25.0], "last-value persistence serves");
    }

    #[test]
    fn nan_series_never_panics_and_predicts_finite() {
        // NaN rates are sanitized to 0 by the `max(0.0).ln_1p()` transform,
        // so training sees zeros; whatever the chain lands on, the
        // prediction must stay finite.
        let mut s: Vec<f64> = (0..120).map(|t| 40.0 + (t % 6) as f64).collect();
        for t in (0..120).step_by(7) {
            s[t] = f64::NAN;
        }
        let spec = WindowSpec { window: 8, horizon: 1 };
        let mut e = Ensemble::new(quick_rnn());
        e.fit(&[s.clone()], spec).unwrap();
        let pred = e.predict(&[s[112..120].to_vec()]);
        assert!(pred[0].is_finite() && pred[0] >= 0.0, "{}", pred[0]);
    }

    #[test]
    fn recorder_counts_member_divergences() {
        let rec = qb_obs::Recorder::new();
        let cfg = RnnConfig { learning_rate: f64::NAN, epochs: 3, ..quick_rnn() };
        let mut e = Ensemble::new(cfg);
        e.instrument(&rec);
        e.fit(&[vec![50.0; 120]], WindowSpec { window: 8, horizon: 1 }).unwrap();
        let snap = rec.snapshot();
        assert_eq!(snap.counters["forecast.member_failures"], 1);
        assert_eq!(snap.counters["forecast.divergences"], 1);
        assert_eq!(e.degradation(), DegradationLevel::Single);
        assert_eq!(Forecaster::degradation(&e), DegradationLevel::Single);
    }

    #[test]
    fn healthy_fit_reports_full() {
        let series = vec![vec![10.0; 80]];
        let mut e = Ensemble::new(quick_rnn());
        e.fit(&series, WindowSpec { window: 6, horizon: 1 }).unwrap();
        assert_eq!(e.degradation(), DegradationLevel::Full);
        assert!(e.member_failures().is_empty());
    }
}
