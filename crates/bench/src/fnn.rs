//! Feed-forward neural network (FNN, §7.2).
//!
//! "A non-linear version of the LR models in which the linear function ...
//! is replaced by a feed-forward neural network." Two tanh hidden layers
//! over the same flattened window features LR uses; no recurrence, so —
//! unlike the RNN — it cannot carry state between observations (Table 3:
//! non-linear, no memory, no kernel).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use qb_forecast::dataset::{encode_recent, ensure_finite, sliding_windows, ForecastError, WindowSpec};
use qb_forecast::nn::{Dense, Param};
use qb_forecast::Forecaster;

/// FNN hyperparameters.
#[derive(Debug, Clone)]
pub struct FnnConfig {
    pub hidden: usize,
    pub epochs: usize,
    pub learning_rate: f64,
    pub batch_size: usize,
    pub patience: usize,
    pub validation_fraction: f64,
    pub grad_clip: f64,
    pub seed: u64,
}

impl Default for FnnConfig {
    fn default() -> Self {
        Self {
            hidden: 32,
            epochs: 150,
            learning_rate: 3e-3,
            batch_size: 32,
            patience: 10,
            validation_fraction: 0.15,
            grad_clip: 5.0,
            seed: 0xF22,
        }
    }
}

/// Two-hidden-layer MLP forecaster.
pub struct Fnn {
    cfg: FnnConfig,
    l1: Option<Dense>,
    l2: Option<Dense>,
    out: Option<Dense>,
    spec: Option<WindowSpec>,
    clusters: usize,
}

impl Default for Fnn {
    fn default() -> Self {
        Self::new(FnnConfig::default())
    }
}

impl Fnn {
    pub fn new(cfg: FnnConfig) -> Self {
        Self { cfg, l1: None, l2: None, out: None, spec: None, clusters: 0 }
    }

    fn forward_cached(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let l1 = self.l1.as_ref().expect("fit first");
        let l2 = self.l2.as_ref().expect("fit first");
        let out = self.out.as_ref().expect("fit first");
        let z1 = l1.forward(x);
        let a1: Vec<f64> = z1.iter().map(|v| v.tanh()).collect();
        let z2 = l2.forward(&a1);
        let a2: Vec<f64> = z2.iter().map(|v| v.tanh()).collect();
        let y = out.forward(&a2);
        (z1, a1, z2, a2, y)
    }
}

impl Forecaster for Fnn {
    fn name(&self) -> &'static str {
        "FNN"
    }

    fn fit(&mut self, series: &[Vec<f64>], spec: WindowSpec) -> Result<(), ForecastError> {
        let (x, y) = sliding_windows(series, spec)?;
        let clusters = series.len();
        let mut rng = SmallRng::seed_from_u64(self.cfg.seed);
        self.l1 = Some(Dense::new(x.cols(), self.cfg.hidden, &mut rng));
        self.l2 = Some(Dense::new(self.cfg.hidden, self.cfg.hidden, &mut rng));
        self.out = Some(Dense::new(self.cfg.hidden, clusters, &mut rng));
        self.spec = Some(spec);
        self.clusters = clusters;

        let n = x.rows();
        // With a single example, validate on it rather than holding out the
        // only training row (which would both starve training and leak the
        // hold-out, since the loop below would still touch index 0).
        let n_val = if n >= 2 {
            ((n as f64 * self.cfg.validation_fraction) as usize).clamp(1, n - 1)
        } else {
            0
        };
        let n_train = n - n_val;

        let val_loss = |me: &Fnn| {
            // Degenerate split: score the training rows themselves.
            let range = if n_val == 0 { 0..n } else { n_train..n };
            let count = range.len().max(1);
            let mut loss = 0.0;
            for r in range {
                let (_, _, _, _, pred) = me.forward_cached(x.row(r));
                loss += pred
                    .iter()
                    .zip(y.row(r))
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>();
            }
            loss / count as f64
        };

        let mut best = f64::INFINITY;
        let mut best_weights: Option<(Dense, Dense, Dense)> = None;
        let mut stale = 0;
        let mut adam_t = 0;
        // Train on every non-held-out row (all rows in the degenerate case).
        let train_rows = if n_val == 0 { n } else { n_train };
        let mut order: Vec<usize> = (0..train_rows).collect();

        for _epoch in 0..self.cfg.epochs {
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for batch in order.chunks(self.cfg.batch_size) {
                let l1 = self.l1.as_mut().expect("set above");
                let l2 = self.l2.as_mut().expect("set above");
                let out = self.out.as_mut().expect("set above");
                l1.zero_grad();
                l2.zero_grad();
                out.zero_grad();
                for &idx in batch {
                    let xin = x.row(idx);
                    // Inline forward with caches (avoids double borrow).
                    let z1 = l1.forward(xin);
                    let a1: Vec<f64> = z1.iter().map(|v| v.tanh()).collect();
                    let z2 = l2.forward(&a1);
                    let a2: Vec<f64> = z2.iter().map(|v| v.tanh()).collect();
                    let pred = out.forward(&a2);
                    let dy: Vec<f64> = pred
                        .iter()
                        .zip(y.row(idx))
                        .map(|(a, b)| 2.0 * (a - b) / batch.len() as f64)
                        .collect();
                    let da2 = out.backward(&a2, &dy);
                    let dz2: Vec<f64> =
                        da2.iter().zip(&a2).map(|(d, a)| d * (1.0 - a * a)).collect();
                    let da1 = l2.backward(&a1, &dz2);
                    let dz1: Vec<f64> =
                        da1.iter().zip(&a1).map(|(d, a)| d * (1.0 - a * a)).collect();
                    l1.backward(xin, &dz1);
                }
                Param::clip_global_norm(
                    &mut [
                        &mut l1.w, &mut l1.b, &mut l2.w, &mut l2.b, &mut out.w, &mut out.b,
                    ],
                    self.cfg.grad_clip,
                );
                adam_t += 1;
                l1.adam_step(self.cfg.learning_rate, adam_t);
                l2.adam_step(self.cfg.learning_rate, adam_t);
                out.adam_step(self.cfg.learning_rate, adam_t);
            }
            let v = val_loss(self);
            if !v.is_finite() {
                return Err(ForecastError::Diverged {
                    model: "FNN",
                    detail: format!("validation loss {v}"),
                });
            }
            if v + 1e-9 < best {
                best = v;
                best_weights = Some((
                    self.l1.clone().expect("set"),
                    self.l2.clone().expect("set"),
                    self.out.clone().expect("set"),
                ));
                stale = 0;
            } else {
                stale += 1;
                if stale >= self.cfg.patience {
                    break;
                }
            }
        }
        if let Some((l1, l2, out)) = best_weights {
            self.l1 = Some(l1);
            self.l2 = Some(l2);
            self.out = Some(out);
        }
        ensure_finite(
            "FNN",
            "output weights",
            self.out.as_ref().expect("set above").w.value.as_slice().iter().copied(),
        )?;
        Ok(())
    }

    fn predict(&self, recent: &[Vec<f64>]) -> Vec<f64> {
        let spec = self.spec.expect("FNN::predict before fit");
        assert_eq!(recent.len(), self.clusters, "FNN::predict: cluster count changed");
        let xin = encode_recent(recent, spec.window);
        let (_, _, _, _, y) = self.forward_cached(&xin);
        y.into_iter().map(|v| v.exp_m1().max(0.0)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_periodic_series() {
        let series: Vec<f64> = (0..300)
            .map(|t| 100.0 + 60.0 * ((t % 12) as f64 / 12.0 * std::f64::consts::TAU).sin())
            .collect();
        let spec = WindowSpec { window: 12, horizon: 1 };
        let mut fnn = Fnn::default();
        fnn.fit(&[series.clone()], spec).unwrap();
        let mse = qb_forecast::evaluate_mse_log(&fnn, &[series], spec, 260);
        assert!(mse < 0.3, "FNN should fit the cycle: {mse}");
    }

    #[test]
    fn deterministic_given_seed() {
        let series = vec![(0..120).map(|t| ((t % 7) as f64 + 1.0) * 30.0).collect::<Vec<f64>>()];
        let spec = WindowSpec { window: 7, horizon: 1 };
        let mut a = Fnn::default();
        let mut b = Fnn::default();
        a.fit(&series, spec).unwrap();
        b.fit(&series, spec).unwrap();
        let recent = vec![series[0][100..107].to_vec()];
        assert_eq!(a.predict(&recent), b.predict(&recent));
    }

    #[test]
    fn output_nonnegative() {
        let series = vec![vec![0.0; 80]];
        let mut fnn = Fnn::new(FnnConfig { epochs: 5, ..FnnConfig::default() });
        fnn.fit(&series, WindowSpec { window: 8, horizon: 1 }).unwrap();
        assert!(fnn.predict(&[vec![0.0; 8]])[0] >= 0.0);
    }

    #[test]
    fn not_enough_data() {
        let mut fnn = Fnn::default();
        assert!(matches!(
            fnn.fit(&[vec![1.0; 5]], WindowSpec { window: 10, horizon: 1 }),
            Err(ForecastError::NotEnoughData { .. })
        ));
    }
}
