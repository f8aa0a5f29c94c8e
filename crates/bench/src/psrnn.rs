//! Predictive State Recurrent Neural Network (PSRNN, §7.2).
//!
//! "The key advantage ... is that they have an initialization algorithm
//! based on a method of moments that aims to start the optimization process
//! in a better position towards the global optima" (Downey et al. \[17\]).
//!
//! Faithful PSRNNs use two-stage regression over Hilbert-space embeddings.
//! This reproduction implements the same *shape* of algorithm with a
//! tractable CPU-sized substitute (documented in DESIGN.md):
//!
//! 1. **Predictive state extraction** — PCA compresses each time step's
//!    history window into an `H`-dimensional state, a moment-based linear
//!    map (the "kernel" row of Table 3: the state lives in a feature space
//!    of the history, not the raw observations).
//! 2. **Two-stage regression initialization** — ridge regressions estimate
//!    the state-transition operator `s_{t+1} ≈ A s_t + B o_t + b` and the
//!    prediction head `y ≈ C s_t + d`, giving the recurrent network its
//!    method-of-moments starting point.
//! 3. **Gradient refinement** — BPTT fine-tunes `(A, B, C, b, d)` through a
//!    `tanh` state nonlinearity, exactly how PSRNNs are refined after
//!    initialization.
//!
//! As in the paper, the moment-based start does not guarantee beating the
//! LSTM — the approximation and limited data cap its benefit (§7.2).

use qb_linalg::{ridge_regression, Matrix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use qb_forecast::dataset::{ensure_finite, validate_series, ForecastError, WindowSpec};
use qb_forecast::nn::{Dense, Param};
use qb_forecast::Forecaster;

use crate::pca::Pca;

/// PSRNN hyperparameters.
#[derive(Debug, Clone)]
pub struct PsrnnConfig {
    /// Predictive-state dimension.
    pub state_dim: usize,
    /// History-window length used to extract states (defaults to the
    /// forecasting window at fit time when 0).
    pub history: usize,
    pub epochs: usize,
    pub learning_rate: f64,
    pub batch_size: usize,
    pub grad_clip: f64,
    pub seed: u64,
}

impl Default for PsrnnConfig {
    fn default() -> Self {
        Self {
            state_dim: 20,
            history: 0,
            epochs: 30,
            learning_rate: 2e-3,
            batch_size: 16,
            grad_clip: 5.0,
            seed: 0x9599,
        }
    }
}

/// The PSRNN forecaster.
pub struct Psrnn {
    cfg: PsrnnConfig,
    /// State transition: s' = tanh(A s + B o + b).
    a: Option<Dense>,
    b_in: Option<Dense>,
    /// Prediction head y = C s + d.
    head: Option<Dense>,
    /// Initial state (mean extracted state).
    s0: Vec<f64>,
    spec: Option<WindowSpec>,
    clusters: usize,
}

impl Default for Psrnn {
    fn default() -> Self {
        Self::new(PsrnnConfig::default())
    }
}

impl Psrnn {
    pub fn new(cfg: PsrnnConfig) -> Self {
        Self { cfg, a: None, b_in: None, head: None, s0: Vec::new(), spec: None, clusters: 0 }
    }

    /// One forward step of the refined model.
    fn step(&self, s: &[f64], o: &[f64]) -> Vec<f64> {
        let a = self.a.as_ref().expect("fit first");
        let b = self.b_in.as_ref().expect("fit first");
        let za = a.forward(s);
        let zb = b.forward(o);
        za.iter().zip(&zb).map(|(x, y)| (x + y).tanh()).collect()
    }

    fn run_sequence(&self, seq: &[Vec<f64>]) -> Vec<f64> {
        let mut s = self.s0.clone();
        for o in seq {
            s = self.step(&s, o);
        }
        s
    }
}

impl Forecaster for Psrnn {
    fn name(&self) -> &'static str {
        "PSRNN"
    }

    fn fit(&mut self, series: &[Vec<f64>], spec: WindowSpec) -> Result<(), ForecastError> {
        let (clusters, len) = validate_series(series, spec)?;
        let hist = if self.cfg.history == 0 { spec.window } else { self.cfg.history };
        let state_dim = self.cfg.state_dim.min(hist * clusters);
        // Log-space observations, time-major.
        let obs: Vec<Vec<f64>> = (0..len)
            .map(|t| series.iter().map(|s| s[t].max(0.0).ln_1p()).collect())
            .collect();

        // --- Stage 1: predictive states via PCA of history windows. ---
        // State at time t summarizes obs[t-hist..t]. Checked arithmetic: a
        // configured history longer than the series must error, not wrap.
        let n_states = match len.checked_sub(hist) {
            Some(d) if d + 1 >= 4 => d + 1, // states for t = hist-1 .. len-1
            _ => return Err(ForecastError::NotEnoughData { needed: hist + 4, got: len }),
        };
        let mut hist_rows = Vec::with_capacity(n_states);
        for t in 0..n_states {
            let mut row = Vec::with_capacity(hist * clusters);
            for w in 0..hist {
                row.extend_from_slice(&obs[t + w]);
            }
            hist_rows.push(row);
        }
        let hist_mat = Matrix::from_rows(&hist_rows);
        let pca = Pca::fit(&hist_mat, state_dim);
        let states: Vec<Vec<f64>> =
            (0..n_states).map(|t| pca.transform(hist_mat.row(t))).collect();

        // --- Stage 2: two-stage regression initialization. ---
        // Transition: s_{t+1} ≈ A s_t + B o_{t+1} + b (regressed jointly).
        let mut rng = SmallRng::seed_from_u64(self.cfg.seed);
        let trans_rows = n_states - 1;
        let mut x = Matrix::zeros(trans_rows, state_dim + clusters + 1);
        let mut y = Matrix::zeros(trans_rows, state_dim);
        // The runtime recursion produces states equal to s/3.2 (the tanh of
        // the atanh-target cancels), so every regression must see states at
        // that same scale — inputs AND head features alike.
        let scaled = |sv: f64| sv.clamp(-3.0, 3.0) / 3.2;
        for t in 0..trans_rows {
            let row = x.row_mut(t);
            for (j, &sv) in states[t].iter().enumerate() {
                row[j] = scaled(sv);
            }
            // Observation that arrives between state t and t+1.
            row[state_dim..state_dim + clusters].copy_from_slice(&obs[t + hist]);
            row[state_dim + clusters] = 1.0;
            // Pre-nonlinearity target: atanh of the scaled next state.
            for (j, &sv) in states[t + 1].iter().enumerate() {
                y[(t, j)] = scaled(sv).atanh();
            }
        }
        let w = ridge_regression(&x, &y, 1e-2)
            .map_err(|e| ForecastError::Numeric(e.to_string()))?;

        let mut a = Dense::new(state_dim, state_dim, &mut rng);
        let mut b_in = Dense::new(clusters, state_dim, &mut rng);
        for j in 0..state_dim {
            for k in 0..state_dim {
                a.w.value[(j, k)] = w[(k, j)];
            }
            for k in 0..clusters {
                b_in.w.value[(j, k)] = w[(state_dim + k, j)];
            }
            // Bias lives on the `a` dense; b_in's bias stays zero.
            a.b.value[(j, 0)] = w[(state_dim + clusters, j)];
            b_in.b.value[(j, 0)] = 0.0;
        }

        // Prediction head: y_{t+h} ≈ C s_t + d, where s_t is the *refined*
        // (tanh-squashed) state. Initialize against the scaled PCA states.
        // States index t corresponds to time (t + hist - 1); target is the
        // observation `horizon` steps later.
        let mut head_rows = 0;
        for t in 0..n_states {
            if t + hist - 1 + spec.horizon < len {
                head_rows += 1;
            }
        }
        let mut xh = Matrix::zeros(head_rows, state_dim + 1);
        let mut yh = Matrix::zeros(head_rows, clusters);
        let mut r = 0;
        for t in 0..n_states {
            let target_t = t + hist - 1 + spec.horizon;
            if target_t >= len {
                continue;
            }
            let row = xh.row_mut(r);
            for (j, &sv) in states[t].iter().enumerate() {
                // Head features are the runtime states: s/3.2, not
                // tanh(s/3.2).
                row[j] = scaled(sv);
            }
            row[state_dim] = 1.0;
            yh.row_mut(r).copy_from_slice(&obs[target_t]);
            r += 1;
        }
        let wh = ridge_regression(&xh, &yh, 1e-2)
            .map_err(|e| ForecastError::Numeric(e.to_string()))?;
        let mut head = Dense::new(state_dim, clusters, &mut rng);
        for c in 0..clusters {
            for j in 0..state_dim {
                head.w.value[(c, j)] = wh[(j, c)];
            }
            head.b.value[(c, 0)] = wh[(state_dim, c)];
        }

        self.a = Some(a);
        self.b_in = Some(b_in);
        self.head = Some(head);
        self.s0 = vec![0.0; state_dim];
        self.spec = Some(spec);
        self.clusters = clusters;

        // --- Stage 3: BPTT refinement over forecasting windows. ---
        let n_examples = len - spec.window - spec.horizon + 1;
        let mut order: Vec<usize> = (0..n_examples).collect();
        let mut adam_t = 0;
        for _epoch in 0..self.cfg.epochs {
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for batch in order.chunks(self.cfg.batch_size) {
                // Zero grads.
                {
                    let a = self.a.as_mut().expect("set");
                    a.zero_grad();
                }
                {
                    let b = self.b_in.as_mut().expect("set");
                    b.zero_grad();
                }
                {
                    let h = self.head.as_mut().expect("set");
                    h.zero_grad();
                }
                for &idx in batch {
                    let seq: Vec<Vec<f64>> =
                        (0..spec.window).map(|wd| obs[idx + wd].clone()).collect();
                    let target = &obs[idx + spec.window + spec.horizon - 1];
                    // Forward with caches.
                    let mut s = self.s0.clone();
                    let mut cached: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = Vec::new();
                    for o in &seq {
                        let a = self.a.as_ref().expect("set");
                        let b = self.b_in.as_ref().expect("set");
                        let za = a.forward(&s);
                        let zb = b.forward(o);
                        let s_next: Vec<f64> =
                            za.iter().zip(&zb).map(|(x, y)| (x + y).tanh()).collect();
                        cached.push((s.clone(), o.clone(), s_next.clone()));
                        s = s_next;
                    }
                    let head = self.head.as_mut().expect("set");
                    let pred = head.forward(&s);
                    let dy: Vec<f64> = pred
                        .iter()
                        .zip(target)
                        .map(|(p, t)| 2.0 * (p - t) / batch.len() as f64)
                        .collect();
                    let mut ds = head.backward(&s, &dy);
                    for (s_prev, o, s_next) in cached.iter().rev() {
                        let dz: Vec<f64> = ds
                            .iter()
                            .zip(s_next)
                            .map(|(d, sn)| d * (1.0 - sn * sn))
                            .collect();
                        let a = self.a.as_mut().expect("set");
                        let ds_prev = a.backward(s_prev, &dz);
                        let b = self.b_in.as_mut().expect("set");
                        b.backward(o, &dz);
                        ds = ds_prev;
                    }
                }
                adam_t += 1;
                let (a, b, h) = (
                    self.a.as_mut().expect("set"),
                    self.b_in.as_mut().expect("set"),
                    self.head.as_mut().expect("set"),
                );
                Param::clip_global_norm(
                    &mut [&mut a.w, &mut a.b, &mut b.w, &mut b.b, &mut h.w, &mut h.b],
                    self.cfg.grad_clip,
                );
                a.adam_step(self.cfg.learning_rate, adam_t);
                b.adam_step(self.cfg.learning_rate, adam_t);
                h.adam_step(self.cfg.learning_rate, adam_t);
            }
            // BPTT through the tanh recursion can still blow up on hostile
            // inputs; catch it per epoch rather than after all refinement.
            let h = self.head.as_ref().expect("set");
            ensure_finite("PSRNN", "head weights", h.w.value.as_slice().iter().copied())?;
        }
        let (a, b, h) = (
            self.a.as_ref().expect("set"),
            self.b_in.as_ref().expect("set"),
            self.head.as_ref().expect("set"),
        );
        ensure_finite(
            "PSRNN",
            "weights",
            a.w.value
                .as_slice()
                .iter()
                .chain(b.w.value.as_slice())
                .chain(h.w.value.as_slice())
                .copied(),
        )?;
        Ok(())
    }

    fn predict(&self, recent: &[Vec<f64>]) -> Vec<f64> {
        let spec = self.spec.expect("PSRNN::predict before fit");
        assert_eq!(recent.len(), self.clusters, "PSRNN::predict: cluster count changed");
        let len = recent[0].len();
        assert!(len >= spec.window, "PSRNN::predict: need at least {} steps", spec.window);
        let seq: Vec<Vec<f64>> = (len - spec.window..len)
            .map(|t| recent.iter().map(|s| s[t].max(0.0).ln_1p()).collect())
            .collect();
        let s = self.run_sequence(&seq);
        let head = self.head.as_ref().expect("fit first");
        head.forward(&s).into_iter().map(|v| v.exp_m1().max(0.0)).collect()
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
        let mut m = Psrnn::default();
        m.fit(&[series.clone()], spec).unwrap();
        let mse = qb_forecast::evaluate_mse_log(&m, &[series], spec, 260);
        assert!(mse < 0.5, "PSRNN should roughly track the cycle: {mse}");
    }

    #[test]
    fn initialization_alone_is_sensible() {
        // With zero refinement epochs, the two-stage-regression init must
        // already produce finite, non-degenerate predictions.
        let series: Vec<f64> = (0..200).map(|t| 50.0 + ((t % 8) as f64) * 10.0).collect();
        let spec = WindowSpec { window: 8, horizon: 1 };
        let mut m = Psrnn::new(PsrnnConfig { epochs: 0, ..PsrnnConfig::default() });
        m.fit(&[series.clone()], spec).unwrap();
        let pred = m.predict(&[series[180..196].to_vec()]);
        assert!(pred[0].is_finite());
        assert!(pred[0] > 1.0 && pred[0] < 10_000.0, "{}", pred[0]);
    }

    #[test]
    fn deterministic_given_seed() {
        let series = vec![(0..150).map(|t| ((t % 6) as f64 + 2.0) * 25.0).collect::<Vec<f64>>()];
        let spec = WindowSpec { window: 6, horizon: 1 };
        let mut a = Psrnn::default();
        let mut b = Psrnn::default();
        a.fit(&series, spec).unwrap();
        b.fit(&series, spec).unwrap();
        let recent = vec![series[0][140..146].to_vec()];
        assert_eq!(a.predict(&recent), b.predict(&recent));
    }

    #[test]
    fn state_dim_clamped_to_feature_dim() {
        // 3-step window, 1 cluster → at most 3 state dims; must not panic.
        let series = vec![vec![5.0; 60]];
        let mut m = Psrnn::new(PsrnnConfig { state_dim: 50, epochs: 2, ..Default::default() });
        m.fit(&series, WindowSpec { window: 3, horizon: 1 }).unwrap();
        let pred = m.predict(&[vec![5.0; 3]]);
        assert!(pred[0].is_finite());
    }
}
