//! Validation-weighted ensemble — the alternative §6.1 rejects.
//!
//! "We also tried averaging the models with weights derived from the
//! training history, but that led to overfitting and generated worse
//! results." This module implements that alternative so the claim can be
//! tested (Ablation 2 of [`crate::exp_ablations`]): member weights
//! are derived from each model's error on a held-out tail of the training
//! history (inverse-MSE weighting, normalized).

use qb_forecast::{Forecaster, ForecastError, LinearRegression, Rnn, RnnConfig, WindowSpec};

/// LR + RNN averaged with validation-derived weights.
pub struct WeightedEnsemble {
    lr: LinearRegression,
    rnn: Rnn,
    /// Weight on LR (RNN gets `1 - weight_lr`). Set during fit.
    weight_lr: f64,
    /// Fraction of the training series held out for weight derivation.
    pub validation_fraction: f64,
}

impl Default for WeightedEnsemble {
    fn default() -> Self {
        Self::new(RnnConfig::default())
    }
}

impl WeightedEnsemble {
    pub fn new(rnn_cfg: RnnConfig) -> Self {
        Self {
            lr: LinearRegression::default(),
            rnn: Rnn::new(rnn_cfg),
            weight_lr: 0.5,
            validation_fraction: 0.2,
        }
    }

    /// The LR weight derived at fit time.
    pub fn weight_lr(&self) -> f64 {
        self.weight_lr
    }
}

impl Forecaster for WeightedEnsemble {
    fn name(&self) -> &'static str {
        "W-ENSEMBLE"
    }

    fn fit(&mut self, series: &[Vec<f64>], spec: WindowSpec) -> Result<(), ForecastError> {
        let (_, len) = qb_forecast::dataset::validate_series(series, spec)?;
        let n_val = ((len as f64 * self.validation_fraction) as usize).max(spec.horizon + 1);
        let split = len.saturating_sub(n_val);

        // Derive weights from held-out errors when there is room; fall back
        // to equal weights otherwise.
        let head: Vec<Vec<f64>> = series.iter().map(|s| s[..split].to_vec()).collect();
        self.weight_lr = 0.5;
        if split > spec.min_len() + 4 {
            let mut lr = LinearRegression::default();
            let mut rnn_probe = Rnn::new(RnnConfig {
                // A cheap probe: the weights, not the final model.
                epochs: 10,
                ..RnnConfig::default()
            });
            if lr.fit(&head, spec).is_ok() && rnn_probe.fit(&head, spec).is_ok() {
                let (actual, lr_pred) = qb_forecast::rolling_forecast(&lr, series, spec, split);
                let (_, rnn_pred) = qb_forecast::rolling_forecast(&rnn_probe, series, spec, split);
                let mse = |pred: &Vec<Vec<f64>>| {
                    let per: Vec<f64> = actual
                        .iter()
                        .zip(pred)
                        .filter(|(a, _)| !a.is_empty())
                        .map(|(a, p)| qb_timeseries::mse_log_space(a, p))
                        .collect();
                    per.iter().sum::<f64>() / per.len().max(1) as f64
                };
                let (m_lr, m_rnn) = (mse(&lr_pred), mse(&rnn_pred));
                // Inverse-MSE weighting: the member that validated better
                // gets proportionally more weight.
                let (inv_lr, inv_rnn) = (1.0 / (m_lr + 1e-9), 1.0 / (m_rnn + 1e-9));
                self.weight_lr = inv_lr / (inv_lr + inv_rnn);
            }
        }

        // Final members train on the full history (as §6.1's variant did).
        self.lr.fit(series, spec)?;
        self.rnn.fit(series, spec)?;
        Ok(())
    }

    fn predict(&self, recent: &[Vec<f64>]) -> Vec<f64> {
        let a = self.lr.predict(recent);
        let b = self.rnn.predict(recent);
        a.iter()
            .zip(&b)
            .map(|(x, y)| self.weight_lr * x + (1.0 - self.weight_lr) * y)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> RnnConfig {
        RnnConfig { epochs: 10, hidden: 8, embedding: 6, ..RnnConfig::default() }
    }

    #[test]
    fn weights_sum_to_one_and_favor_better_member() {
        // A pure linear-friendly series: LR should earn more weight.
        let series = vec![(0..260)
            .map(|t| 100.0 + 60.0 * ((t % 24) as f64 / 24.0 * std::f64::consts::TAU).sin())
            .collect::<Vec<f64>>()];
        let spec = WindowSpec { window: 24, horizon: 1 };
        let mut we = WeightedEnsemble::new(quick_cfg());
        we.fit(&series, spec).unwrap();
        let w = we.weight_lr();
        assert!((0.0..=1.0).contains(&w));
        assert!(w > 0.5, "LR should dominate on a linear-friendly cycle: {w}");
    }

    #[test]
    fn prediction_is_weighted_member_combination() {
        let series = vec![vec![50.0; 150]];
        let spec = WindowSpec { window: 10, horizon: 1 };
        let mut we = WeightedEnsemble::new(quick_cfg());
        we.fit(&series, spec).unwrap();
        let recent = vec![vec![50.0; 10]];
        let p = we.predict(&recent)[0];
        let lr_p = we.lr.predict(&recent)[0];
        let rnn_p = we.rnn.predict(&recent)[0];
        let expect = we.weight_lr() * lr_p + (1.0 - we.weight_lr()) * rnn_p;
        assert!((p - expect).abs() < 1e-9);
    }

    #[test]
    fn short_series_falls_back_to_equal_weights() {
        // 16 steps: enough to fit (window 10 + horizon 1) but the head
        // left after holding out validation cannot support a probe fit.
        let series = vec![vec![10.0; 16]];
        let spec = WindowSpec { window: 10, horizon: 1 };
        let mut we = WeightedEnsemble::new(quick_cfg());
        we.fit(&series, spec).unwrap();
        assert_eq!(we.weight_lr(), 0.5);
    }
}
