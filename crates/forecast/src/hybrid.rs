//! The HYBRID model (§6.1): ENSEMBLE corrected by KR.
//!
//! "Since KR is good at predicting spikes with a small number \[of\]
//! observations, if its predicted workload volume is above that of ENSEMBLE
//! by more than a specified threshold, γ (γ ≥ 0), then QB5000 uses the
//! result from KR as its prediction. Otherwise, it uses the result
//! generated from the ENSEMBLE model. In QB5000, we set γ to 150%."
//!
//! Per §6.2, the KR member is trained on a longer input window of the full
//! history (the paper uses three weeks of one-hour intervals) so that the
//! pre-spike ramp of a past year lands near this year's in input space
//! (Appendix B).

use qb_parallel::Parallelism;

use crate::dataset::{ForecastError, WindowSpec};
use crate::ensemble::Ensemble;
use crate::kr::KernelRegression;
use crate::rnn::RnnConfig;
use crate::{DegradationLevel, Forecaster};

/// HYBRID configuration.
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// Spike threshold γ. KR wins when `kr > γ · ensemble`. The paper's
    /// value is 150 % (= 1.5); Appendix C sweeps 100–200 %.
    pub gamma: f64,
    /// Input window for the KR member, in steps. `None` reuses the
    /// ensemble's window.
    pub kr_window: Option<usize>,
    /// RNN settings for the ensemble member.
    pub rnn: RnnConfig,
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self { gamma: 1.5, kr_window: None, rnn: RnnConfig::default() }
    }
}

/// ENSEMBLE with KR spike correction.
///
/// Resilience: if the KR member fails to train it is dropped and the
/// ensemble serves un-corrected (no spike override); the ensemble in turn
/// degrades internally (LR-only, then last-value persistence) rather than
/// failing. [`Hybrid::degradation`] reports the effective serving level.
pub struct Hybrid {
    cfg: HybridConfig,
    ensemble: Ensemble,
    kr: KernelRegression,
    /// Member-level parallelism: the ensemble and the KR corrector fit
    /// concurrently; results join in fixed member order so the degradation
    /// chain is evaluated exactly as sequentially.
    par: Parallelism,
    /// `Some` only while the KR member is trained and serving.
    kr_spec: Option<WindowSpec>,
    kr_failure: Option<ForecastError>,
    /// Counts KR-member failures/divergences; no-ops until
    /// [`Forecaster::instrument`] installs a recorder.
    divergences: qb_obs::Counter,
    member_failures_metric: qb_obs::Counter,
    spec: Option<WindowSpec>,
    /// How often KR overrode the ensemble in the last prediction batch
    /// (observability for the γ sensitivity analysis).
    pub last_overrides: std::cell::Cell<usize>,
}

impl Default for Hybrid {
    fn default() -> Self {
        Self::new(HybridConfig::default())
    }
}

impl Hybrid {
    pub fn new(cfg: HybridConfig) -> Self {
        let ensemble = Ensemble::new(cfg.rnn.clone());
        Self {
            cfg,
            ensemble,
            kr: KernelRegression::default(),
            par: Parallelism::from_env(),
            kr_spec: None,
            kr_failure: None,
            divergences: qb_obs::Counter::default(),
            member_failures_metric: qb_obs::Counter::default(),
            spec: None,
            last_overrides: std::cell::Cell::new(0),
        }
    }

    /// Overrides the environment-derived parallelism for this model and
    /// its ensemble member.
    ///
    /// It governs `fit` only, where the members train for up to seconds.
    /// `predict` always calls the ensemble then KR on the calling thread:
    /// their forward passes cost less than spawning a thread for one.
    pub fn set_parallelism(&mut self, par: Parallelism) {
        self.par = par;
        self.ensemble.set_parallelism(par);
    }

    /// The configured γ.
    pub fn gamma(&self) -> f64 {
        self.cfg.gamma
    }

    /// How far down the fallback chain the last fit landed.
    pub fn degradation(&self) -> DegradationLevel {
        let ens = self.ensemble.degradation();
        if self.kr_spec.is_some() && ens == DegradationLevel::Full {
            DegradationLevel::Full
        } else {
            // KR lost ⇒ at least Ensemble-level; a degraded ensemble
            // dominates regardless of KR's state.
            ens.max(DegradationLevel::Ensemble)
        }
    }

    /// Member failures behind the current degradation level.
    pub fn member_failures(&self) -> Vec<(&'static str, ForecastError)> {
        let mut out: Vec<(&'static str, ForecastError)> =
            self.ensemble.member_failures().to_vec();
        if let Some(e) = &self.kr_failure {
            out.push(("KR", e.clone()));
        }
        out
    }
}

impl Forecaster for Hybrid {
    fn name(&self) -> &'static str {
        "HYBRID"
    }

    fn instrument(&mut self, recorder: &qb_obs::Recorder) {
        self.ensemble.instrument(recorder);
        self.divergences = recorder.counter("forecast.divergences");
        self.member_failures_metric = recorder.counter("forecast.member_failures");
    }

    fn degradation(&self) -> DegradationLevel {
        Hybrid::degradation(self)
    }

    fn fit(&mut self, series: &[Vec<f64>], spec: WindowSpec) -> Result<(), ForecastError> {
        self.kr_spec = None;
        self.kr_failure = None;
        self.spec = None;
        let kr_window = self.cfg.kr_window.unwrap_or(spec.window);
        let kr_spec = WindowSpec { window: kr_window, horizon: spec.horizon };
        // Both members fit concurrently; results join in member order
        // (ensemble first), so the failure handling below sees exactly
        // what a sequential run would.
        let (ensemble, kr, par) = (&mut self.ensemble, &mut self.kr, self.par);
        let (ens_res, kr_res) =
            par.join(move || ensemble.fit(series, spec), move || kr.fit(series, kr_spec));
        ens_res?;
        // The KR member degrades on *any* failure, including NotEnoughData:
        // its window may be far longer than the ensemble's (three weeks in
        // §6.2), and losing spike correction beats losing the forecast.
        match kr_res {
            Ok(()) => self.kr_spec = Some(kr_spec),
            Err(e) => {
                self.member_failures_metric.inc();
                if e.is_model_failure() {
                    self.divergences.inc();
                }
                self.kr_failure = Some(e);
            }
        }
        self.spec = Some(spec);
        Ok(())
    }

    fn predict(&self, recent: &[Vec<f64>]) -> Vec<f64> {
        assert!(self.spec.is_some(), "HYBRID::predict before fit");
        // KR only scores with a trained member AND enough history for its
        // (typically longer) window; otherwise the ensemble stands alone.
        let kr_active = self.kr_spec.is_some_and(|ks| recent[0].len() >= ks.window);
        if !kr_active {
            self.last_overrides.set(0);
            return self.ensemble.predict(recent);
        }
        let (e, k) = (self.ensemble.predict(recent), self.kr.predict(recent));
        let mut overrides = 0;
        let out = e
            .iter()
            .zip(&k)
            .map(|(&ev, &kv)| {
                if kv > self.cfg.gamma * ev {
                    overrides += 1;
                    kv
                } else {
                    ev
                }
            })
            .collect();
        self.last_overrides.set(overrides);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(gamma: f64) -> HybridConfig {
        HybridConfig {
            gamma,
            kr_window: None,
            rnn: RnnConfig { epochs: 10, hidden: 8, embedding: 6, ..RnnConfig::default() },
        }
    }

    /// Baseline 10 q/s with a huge spike every 50 steps after a ramp.
    fn spiky(len: usize) -> Vec<f64> {
        (0..len)
            .map(|t| match t % 50 {
                46..=47 => 80.0,
                48..=49 => 8_000.0,
                _ => 10.0,
            })
            .collect()
    }

    #[test]
    fn kr_override_fires_on_spike_input() {
        let series = spiky(400);
        let spec = WindowSpec { window: 10, horizon: 1 };
        let mut h = Hybrid::new(quick_cfg(1.5));
        h.fit(&[series.clone()], spec).unwrap();
        // Window ending right before a spike (phase 48 next).
        let idx_end = 398; // 398 % 50 == 48 → predicting t=398
        let recent = vec![series[idx_end - 10..idx_end].to_vec()];
        let pred = h.predict(&recent);
        assert!(pred[0] > 1_000.0, "hybrid must adopt KR's spike: {}", pred[0]);
        assert_eq!(h.last_overrides.get(), 1);
    }

    #[test]
    fn no_override_on_calm_input() {
        let series = spiky(400);
        let spec = WindowSpec { window: 10, horizon: 1 };
        let mut h = Hybrid::new(quick_cfg(1.5));
        h.fit(&[series.clone()], spec).unwrap();
        let recent = vec![series[200..210].to_vec()]; // mid-baseline
        let pred = h.predict(&recent);
        assert!(pred[0] < 500.0, "{}", pred[0]);
    }

    #[test]
    fn low_gamma_overrides_more_often() {
        let series = spiky(400);
        let spec = WindowSpec { window: 10, horizon: 1 };
        let mut strict = Hybrid::new(quick_cfg(3.0));
        let mut lax = Hybrid::new(quick_cfg(1.0));
        strict.fit(&[series.clone()], spec).unwrap();
        lax.fit(&[series.clone()], spec).unwrap();
        let mut strict_overrides = 0;
        let mut lax_overrides = 0;
        for end in 50..350 {
            let recent = vec![series[end - 10..end].to_vec()];
            strict.predict(&recent);
            strict_overrides += strict.last_overrides.get();
            lax.predict(&recent);
            lax_overrides += lax.last_overrides.get();
        }
        assert!(lax_overrides >= strict_overrides, "{lax_overrides} < {strict_overrides}");
    }

    #[test]
    fn matches_ensemble_when_kr_agrees() {
        // A flat series: KR and ensemble both predict the constant, so no
        // override and hybrid == ensemble.
        let series = vec![vec![200.0; 150]];
        let spec = WindowSpec { window: 8, horizon: 1 };
        let mut h = Hybrid::new(quick_cfg(1.5));
        h.fit(&series, spec).unwrap();
        let recent = vec![vec![200.0; 8]];
        let pred = h.predict(&recent);
        assert_eq!(h.last_overrides.get(), 0);
        assert!((pred[0] - 200.0).abs() < 30.0);
    }

    #[test]
    fn kr_member_loss_degrades_to_ensemble_level() {
        // KR's window exceeds the series: the member cannot train. HYBRID
        // must drop it and serve the plain ensemble instead of failing.
        let series = vec![vec![100.0; 150]];
        let spec = WindowSpec { window: 8, horizon: 1 };
        let cfg = HybridConfig { kr_window: Some(500), ..quick_cfg(1.5) };
        let mut h = Hybrid::new(cfg);
        h.fit(&series, spec).unwrap();
        assert_eq!(h.degradation(), DegradationLevel::Ensemble);
        assert!(h.member_failures().iter().any(|(m, _)| *m == "KR"));
        let pred = h.predict(&[vec![100.0; 8]]);
        assert!(pred[0].is_finite());
        assert_eq!(h.last_overrides.get(), 0, "no KR, no overrides");
    }

    #[test]
    fn full_chain_collapse_serves_last_value() {
        // ∞ in the series diverges LR, RNN, and KR alike; the chain must
        // bottom out at persistence and still answer.
        let mut s = vec![40.0; 150];
        s[75] = f64::INFINITY;
        let spec = WindowSpec { window: 8, horizon: 1 };
        let mut h = Hybrid::new(quick_cfg(1.5));
        h.fit(&[s], spec).unwrap();
        assert_eq!(h.degradation(), DegradationLevel::LastValue);
        let pred = h.predict(&[vec![33.0; 8]]);
        assert_eq!(pred, vec![33.0]);
    }

    #[test]
    fn healthy_fit_is_full_level() {
        let series = vec![vec![100.0; 150]];
        let mut h = Hybrid::new(quick_cfg(1.5));
        h.fit(&series, WindowSpec { window: 8, horizon: 1 }).unwrap();
        assert_eq!(h.degradation(), DegradationLevel::Full);
        assert!(h.member_failures().is_empty());
    }

    #[test]
    fn recorder_counts_kr_loss_as_failure_not_divergence() {
        let rec = qb_obs::Recorder::new();
        let cfg = HybridConfig { kr_window: Some(500), ..quick_cfg(1.5) };
        let mut h = Hybrid::new(cfg);
        h.instrument(&rec);
        h.fit(&[vec![100.0; 150]], WindowSpec { window: 8, horizon: 1 }).unwrap();
        let snap = rec.snapshot();
        // KR could not train (NotEnoughData): a member failure, but not a
        // numerical divergence.
        assert_eq!(snap.counters["forecast.member_failures"], 1);
        assert_eq!(snap.counters["forecast.divergences"], 0);
        assert_eq!(Forecaster::degradation(&h), DegradationLevel::Ensemble);
    }

    #[test]
    fn short_history_falls_back_to_ensemble() {
        let series = vec![vec![100.0; 200]];
        let spec = WindowSpec { window: 8, horizon: 1 };
        let cfg = HybridConfig { kr_window: Some(50), ..quick_cfg(1.5) };
        let mut h = Hybrid::new(cfg);
        h.fit(&series, spec).unwrap();
        // Only 8 steps of context: shorter than KR's 50.
        let pred = h.predict(&[vec![100.0; 8]]);
        assert!(pred[0].is_finite());
        assert_eq!(h.last_overrides.get(), 0);
    }
}
