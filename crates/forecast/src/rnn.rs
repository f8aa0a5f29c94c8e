//! LSTM recurrent network (RNN, §6.1).
//!
//! Architecture per §7.2: "a linear embedding layer of size 25 followed by
//! two LSTM layers each with 20 cells", then a linear head mapping the final
//! hidden state to the per-cluster prediction. Trained with Adam on
//! mean-squared error in log space, BPTT through the input window,
//! global-norm gradient clipping, and early stopping when validation
//! accuracy stops improving (§7.5: "We stop training the RNN models when
//! the validation accuracy stops improving").

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::dataset::{ensure_finite, validate_series, ForecastError, WindowSpec};
use crate::nn::{Dense, LstmLayer, Param};
use crate::Forecaster;

/// Hyperparameters for the LSTM forecaster. The defaults are the paper's
/// (embedding 25, two layers of 20 cells) and are intentionally *not* tuned
/// per workload (§7.2 fixes hyperparameters across workloads/horizons).
#[derive(Debug, Clone)]
pub struct RnnConfig {
    pub embedding: usize,
    pub hidden: usize,
    /// Maximum training epochs; early stopping usually ends sooner.
    pub epochs: usize,
    pub learning_rate: f64,
    pub batch_size: usize,
    /// Stop after this many epochs without validation improvement.
    pub patience: usize,
    /// Fraction of examples held out for validation-based early stopping.
    pub validation_fraction: f64,
    pub grad_clip: f64,
    pub seed: u64,
}

impl Default for RnnConfig {
    fn default() -> Self {
        Self {
            embedding: 25,
            hidden: 20,
            epochs: 80,
            learning_rate: 5e-3,
            batch_size: 16,
            patience: 8,
            validation_fraction: 0.15,
            grad_clip: 5.0,
            seed: 0x5157,
        }
    }
}

struct Network {
    embed: Dense,
    lstm1: LstmLayer,
    lstm2: LstmLayer,
    head: Dense,
}

impl Network {
    fn new(clusters: usize, cfg: &RnnConfig, rng: &mut SmallRng) -> Self {
        Self {
            embed: Dense::new(clusters, cfg.embedding, rng),
            lstm1: LstmLayer::new(cfg.embedding, cfg.hidden, rng),
            lstm2: LstmLayer::new(cfg.hidden, cfg.hidden, rng),
            head: Dense::new(cfg.hidden, clusters, rng),
        }
    }

    /// Forward over one sequence (time-major, each step = per-cluster log
    /// rates). Returns the prediction and the caches needed for BPTT.
    fn forward(
        &self,
        seq: &[Vec<f64>],
    ) -> (Vec<f64>, Vec<Vec<f64>>, Vec<crate::nn::LstmStep>, Vec<crate::nn::LstmStep>) {
        let hidden = self.lstm1.hidden;
        let mut h1 = vec![0.0; hidden];
        let mut c1 = vec![0.0; hidden];
        let mut h2 = vec![0.0; hidden];
        let mut c2 = vec![0.0; hidden];
        let mut embeds = Vec::with_capacity(seq.len());
        let mut steps1 = Vec::with_capacity(seq.len());
        let mut steps2 = Vec::with_capacity(seq.len());
        for x in seq {
            let e = self.embed.forward(x);
            let s1 = self.lstm1.step(&e, &h1, &c1);
            h1 = s1.h.clone();
            c1 = s1.c.clone();
            let s2 = self.lstm2.step(&h1, &h2, &c2);
            h2 = s2.h.clone();
            c2 = s2.c.clone();
            embeds.push(e);
            steps1.push(s1);
            steps2.push(s2);
        }
        let y = self.head.forward(&h2);
        (y, embeds, steps1, steps2)
    }

    fn zero_grad(&mut self) {
        self.embed.zero_grad();
        self.lstm1.zero_grad();
        self.lstm2.zero_grad();
        self.head.zero_grad();
    }

    fn clip_and_step(&mut self, clip: f64, lr: f64, t: usize) {
        Param::clip_global_norm(
            &mut [
                &mut self.embed.w,
                &mut self.embed.b,
                &mut self.lstm1.wx,
                &mut self.lstm1.wh,
                &mut self.lstm1.b,
                &mut self.lstm2.wx,
                &mut self.lstm2.wh,
                &mut self.lstm2.b,
                &mut self.head.w,
                &mut self.head.b,
            ],
            clip,
        );
        self.embed.adam_step(lr, t);
        self.lstm1.adam_step(lr, t);
        self.lstm2.adam_step(lr, t);
        self.head.adam_step(lr, t);
    }

    fn num_parameters(&self) -> usize {
        self.embed.num_parameters()
            + self.lstm1.num_parameters()
            + self.lstm2.num_parameters()
            + self.head.num_parameters()
    }
}

/// The LSTM forecaster.
pub struct Rnn {
    cfg: RnnConfig,
    net: Option<Network>,
    spec: Option<WindowSpec>,
    clusters: usize,
    /// Epochs actually run before early stopping (observability/Table 4).
    pub epochs_run: usize,
}

impl Default for Rnn {
    fn default() -> Self {
        Self::new(RnnConfig::default())
    }
}

impl Rnn {
    pub fn new(cfg: RnnConfig) -> Self {
        Self { cfg, net: None, spec: None, clusters: 0, epochs_run: 0 }
    }

    /// Total trainable parameter count (Table 4 storage accounting).
    pub fn num_parameters(&self) -> usize {
        self.net.as_ref().map_or(0, Network::num_parameters)
    }

    /// Builds time-major log-space sequences and targets.
    fn make_examples(
        series: &[Vec<f64>],
        spec: WindowSpec,
    ) -> (Vec<Vec<Vec<f64>>>, Vec<Vec<f64>>) {
        let len = series[0].len();
        let n = len - spec.window - spec.horizon + 1;
        // Transform each value once; a step's cluster vector is then the
        // same in every window it appears in.
        let logs = crate::dataset::log_series(series);
        let step = |t: usize| -> Vec<f64> { logs.iter().map(|s| s[t]).collect() };
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            xs.push((i..i + spec.window).map(step).collect());
            ys.push(step(i + spec.window + spec.horizon - 1));
        }
        (xs, ys)
    }

    fn sequence_loss(net: &Network, xs: &[Vec<Vec<f64>>], ys: &[Vec<f64>]) -> f64 {
        let mut loss = 0.0;
        for (x, y) in xs.iter().zip(ys) {
            let (pred, _, _, _) = net.forward(x);
            loss += pred.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum::<f64>();
        }
        loss / xs.len().max(1) as f64
    }
}

impl Forecaster for Rnn {
    fn name(&self) -> &'static str {
        "RNN"
    }

    fn fit(&mut self, series: &[Vec<f64>], spec: WindowSpec) -> Result<(), ForecastError> {
        let (clusters, _) = validate_series(series, spec)?;
        let mut rng = SmallRng::seed_from_u64(self.cfg.seed);
        let mut net = Network::new(clusters, &self.cfg, &mut rng);

        let (xs, ys) = Self::make_examples(series, spec);
        let n = xs.len();
        // Hold out the most recent examples for validation (temporal
        // split). With a single example there is nothing to hold out:
        // validate on the training example itself rather than on an empty
        // set (whose zero loss would freeze early stopping at epoch 0).
        let n_val = if n >= 2 {
            ((n as f64 * self.cfg.validation_fraction) as usize).clamp(1, n - 1)
        } else {
            0
        };
        let n_train = n - n_val;
        let (train_x, val_x) = xs.split_at(n_train);
        let (train_y, val_y) = ys.split_at(n_train);
        let (val_x, val_y) =
            if val_x.is_empty() { (train_x, train_y) } else { (val_x, val_y) };

        let mut best_val = f64::INFINITY;
        let mut best_net: Option<Network> = None;
        let mut stale = 0;
        let mut adam_t = 0;
        self.epochs_run = 0;

        // Deterministic epoch shuffling via an LCG over indices.
        let mut order: Vec<usize> = (0..train_x.len()).collect();
        for epoch in 0..self.cfg.epochs {
            // Fisher–Yates with the seeded RNG.
            use rand::Rng;
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for batch in order.chunks(self.cfg.batch_size) {
                net.zero_grad();
                for &idx in batch {
                    let seq = &train_x[idx];
                    let target = &train_y[idx];
                    let (pred, embeds, steps1, steps2) = net.forward(seq);
                    let dy: Vec<f64> = pred
                        .iter()
                        .zip(target)
                        .map(|(a, b)| 2.0 * (a - b) / batch.len() as f64)
                        .collect();
                    // Backprop: head → lstm2 → lstm1 → embed, through time.
                    let last_h2 = &steps2.last().expect("non-empty window").h;
                    let mut dh2 = net.head.backward(last_h2, &dy);
                    let hidden = net.lstm1.hidden;
                    let mut dc2 = vec![0.0; hidden];
                    let mut dh1 = vec![0.0; hidden];
                    let mut dc1 = vec![0.0; hidden];
                    for t in (0..seq.len()).rev() {
                        let (dx2, dh2_prev, dc2_prev) =
                            net.lstm2.backward_step(&steps2[t], &dh2, &dc2);
                        // dx2 flows into lstm1's h output at step t.
                        let dh1_total: Vec<f64> =
                            dh1.iter().zip(&dx2).map(|(a, b)| a + b).collect();
                        let (dx1, dh1_prev, dc1_prev) =
                            net.lstm1.backward_step(&steps1[t], &dh1_total, &dc1);
                        net.embed.backward(&seq[t], &dx1);
                        let _ = embeds;
                        dh2 = dh2_prev;
                        dc2 = dc2_prev;
                        dh1 = dh1_prev;
                        dc1 = dc1_prev;
                    }
                }
                adam_t += 1;
                net.clip_and_step(self.cfg.grad_clip, self.cfg.learning_rate, adam_t);
            }
            self.epochs_run = epoch + 1;

            let val = Self::sequence_loss(&net, val_x, val_y);
            // Divergence guard: a non-finite validation loss means the
            // weights have left the representable range (NaN inputs or an
            // exploding update). Abort — continuing would let NaN weights
            // be silently installed once patience runs out.
            if !val.is_finite() {
                return Err(ForecastError::Diverged {
                    model: "RNN",
                    detail: format!("validation loss {val} at epoch {}", epoch + 1),
                });
            }
            if val + 1e-9 < best_val {
                best_val = val;
                best_net = Some(Network {
                    embed: net.embed.clone(),
                    lstm1: net.lstm1.clone(),
                    lstm2: net.lstm2.clone(),
                    head: net.head.clone(),
                });
                stale = 0;
            } else {
                stale += 1;
                if stale >= self.cfg.patience {
                    break;
                }
            }
        }

        let net = best_net.unwrap_or(net);
        ensure_finite("RNN", "head weights", net.head.w.value.as_slice().iter().copied())?;
        self.net = Some(net);
        self.spec = Some(spec);
        self.clusters = clusters;
        Ok(())
    }

    fn predict(&self, recent: &[Vec<f64>]) -> Vec<f64> {
        let net = self.net.as_ref().expect("RNN::predict before fit");
        let spec = self.spec.expect("RNN::predict before fit");
        assert_eq!(recent.len(), self.clusters, "RNN::predict: cluster count changed");
        let len = recent[0].len();
        assert!(len >= spec.window, "RNN::predict: need at least {} steps", spec.window);
        let seq: Vec<Vec<f64>> = (len - spec.window..len)
            .map(|t| recent.iter().map(|s| s[t].max(0.0).ln_1p()).collect())
            .collect();
        let (y, _, _, _) = net.forward(&seq);
        y.into_iter().map(|v| v.exp_m1().max(0.0)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> RnnConfig {
        RnnConfig { epochs: 40, hidden: 10, embedding: 8, patience: 40, ..RnnConfig::default() }
    }

    #[test]
    fn learns_periodic_series() {
        let series: Vec<f64> = (0..240)
            .map(|t| 100.0 + 80.0 * ((t % 12) as f64 / 12.0 * std::f64::consts::TAU).sin())
            .collect();
        let spec = WindowSpec { window: 12, horizon: 1 };
        let mut rnn = Rnn::new(quick_cfg());
        rnn.fit(&[series.clone()], spec).unwrap();
        let mse = crate::evaluate_mse_log(&rnn, &[series], spec, 200);
        assert!(mse < 0.3, "LSTM should track the cycle: {mse}");
    }

    /// Examples are cut from series transformed once; each cell is still
    /// the per-cell `ln(1 + max(x, 0))`, bit for bit, in time-major layout.
    #[test]
    fn examples_are_the_per_cell_transform_bit_for_bit() {
        let series = vec![
            vec![0.0, 3.5, -2.0, f64::NAN, 1e9, 7.0, 0.25],
            vec![5.0, 0.0, 1.0, 2.0, 9.0, 4.0, 6.0],
        ];
        let spec = WindowSpec { window: 3, horizon: 2 };
        let (xs, ys) = Rnn::make_examples(&series, spec);
        assert_eq!((xs.len(), ys.len()), (3, 3));
        let cell = |c: usize, t: usize| series[c][t].max(0.0).ln_1p().to_bits();
        for i in 0..3 {
            assert_eq!(xs[i].len(), 3);
            for w in 0..3 {
                let got: Vec<u64> = xs[i][w].iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, vec![cell(0, i + w), cell(1, i + w)]);
            }
            let got: Vec<u64> = ys[i].iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, vec![cell(0, i + 4), cell(1, i + 4)]);
        }
    }

    #[test]
    fn early_stopping_engages() {
        // Constant series: validation loss bottoms out almost immediately.
        let series = vec![vec![100.0; 120]];
        let cfg = RnnConfig { epochs: 200, patience: 3, ..quick_cfg() };
        let mut rnn = Rnn::new(cfg);
        rnn.fit(&series, WindowSpec { window: 8, horizon: 1 }).unwrap();
        assert!(rnn.epochs_run < 200, "early stopping should cut training short");
    }

    #[test]
    fn deterministic_given_seed() {
        let series = vec![(0..100).map(|t| (t % 10) as f64 * 10.0).collect::<Vec<f64>>()];
        let spec = WindowSpec { window: 10, horizon: 1 };
        let mut a = Rnn::new(quick_cfg());
        let mut b = Rnn::new(quick_cfg());
        a.fit(&series, spec).unwrap();
        b.fit(&series, spec).unwrap();
        let recent = vec![series[0][88..98].to_vec()];
        assert_eq!(a.predict(&recent), b.predict(&recent));
    }

    #[test]
    fn multi_cluster_output_dims() {
        let series = vec![vec![10.0; 60], vec![20.0; 60], vec![30.0; 60]];
        let spec = WindowSpec { window: 6, horizon: 2 };
        let mut rnn = Rnn::new(RnnConfig { epochs: 5, ..quick_cfg() });
        rnn.fit(&series, spec).unwrap();
        let pred = rnn.predict(&vec![vec![10.0; 6]; 3]);
        assert_eq!(pred.len(), 3);
        assert!(pred.iter().all(|p| *p >= 0.0));
    }

    #[test]
    fn parameter_count_matches_architecture() {
        let series = vec![vec![1.0; 50]];
        let cfg = RnnConfig { embedding: 25, hidden: 20, epochs: 1, ..RnnConfig::default() };
        let mut rnn = Rnn::new(cfg);
        rnn.fit(&series, WindowSpec { window: 5, horizon: 1 }).unwrap();
        // embed: 25·1+25, lstm1: 4·20·(25+20+1), lstm2: 4·20·(20+20+1),
        // head: 1·20+1.
        let expected = (25 + 25) + 80 * 46 + 80 * 41 + 21;
        assert_eq!(rnn.num_parameters(), expected);
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn predict_before_fit_panics() {
        Rnn::default().predict(&[vec![1.0; 24]]);
    }

    #[test]
    fn infinite_input_aborts_with_diverged() {
        // ∞ survives the ln(1+x) transform, so training loss goes
        // non-finite; the guard must abort instead of installing garbage.
        let mut s = vec![10.0; 100];
        s[50] = f64::INFINITY;
        let mut rnn = Rnn::new(RnnConfig { epochs: 5, ..quick_cfg() });
        let err = rnn.fit(&[s], WindowSpec { window: 8, horizon: 1 }).unwrap_err();
        assert!(matches!(err, ForecastError::Diverged { model: "RNN", .. }), "{err}");
    }

    #[test]
    fn nan_input_never_panics() {
        // NaN rates sanitize to 0 in the log transform; training must
        // either succeed or abort cleanly — never panic or emit NaN.
        let mut s: Vec<f64> = (0..100).map(|t| 20.0 + (t % 5) as f64).collect();
        s[10] = f64::NAN;
        s[55] = f64::NAN;
        let mut rnn = Rnn::new(RnnConfig { epochs: 5, ..quick_cfg() });
        if rnn.fit(&[s.clone()], WindowSpec { window: 8, horizon: 1 }).is_ok() {
            let pred = rnn.predict(&[s[92..100].to_vec()]);
            assert!(pred[0].is_finite() && pred[0] >= 0.0);
        }
    }

    #[test]
    fn nan_optimizer_aborts_with_diverged() {
        let cfg = RnnConfig { learning_rate: f64::NAN, epochs: 3, ..quick_cfg() };
        let mut rnn = Rnn::new(cfg);
        let err =
            rnn.fit(&[vec![10.0; 80]], WindowSpec { window: 8, horizon: 1 }).unwrap_err();
        assert!(err.is_model_failure(), "{err}");
    }
}

// --- serialization (Table 4's "serialized model object ... contains both
// the model parameters and network structure") ---

const RNN_MAGIC: &[u8; 4] = b"QBRN";
const RNN_VERSION: u16 = 1;

impl Rnn {
    /// Serializes the trained network: architecture dimensions plus every
    /// weight tensor.
    ///
    /// # Panics
    /// Panics if the model has not been fitted.
    pub fn to_bytes(&self) -> Vec<u8> {
        let net = self.net.as_ref().expect("RNN::to_bytes before fit");
        let spec = self.spec.expect("RNN::to_bytes before fit");
        let mut w = crate::persist::Writer::new(RNN_MAGIC, RNN_VERSION);
        w.spec(spec);
        w.u64(self.clusters as u64);
        w.u64(self.cfg.embedding as u64);
        w.u64(self.cfg.hidden as u64);
        for m in [
            &net.embed.w.value,
            &net.embed.b.value,
            &net.lstm1.wx.value,
            &net.lstm1.wh.value,
            &net.lstm1.b.value,
            &net.lstm2.wx.value,
            &net.lstm2.wh.value,
            &net.lstm2.b.value,
            &net.head.w.value,
            &net.head.b.value,
        ] {
            w.f64s(m.as_slice());
        }
        w.finish()
    }

    /// Restores a model serialized with [`Rnn::to_bytes`]. The restored
    /// model predicts identically; it can also be trained further (fresh
    /// optimizer state).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, crate::persist::PersistError> {
        use crate::persist::{PersistError, Reader};
        use rand::SeedableRng;
        let mut r = Reader::new(bytes, RNN_MAGIC, RNN_VERSION)?;
        let spec = r.spec()?;
        let clusters = r.usize()?;
        let embedding = r.usize()?;
        let hidden = r.usize()?;
        // Sanity-check the architecture header before allocating: a corrupt
        // file must yield PersistError, not a multi-gigabyte allocation.
        const MAX_DIM: usize = 65_536;
        if clusters == 0 || clusters > MAX_DIM || embedding == 0 || embedding > MAX_DIM
            || hidden == 0 || hidden > MAX_DIM
        {
            return Err(PersistError::Malformed(format!(
                "implausible architecture {clusters}x{embedding}x{hidden}"
            )));
        }
        let cfg = RnnConfig { embedding, hidden, ..RnnConfig::default() };
        let mut rng = rand::rngs::SmallRng::seed_from_u64(cfg.seed);
        let mut net = Network::new(clusters, &cfg, &mut rng);

        let mut load = |target: &mut qb_linalg::Matrix| -> Result<(), PersistError> {
            let data = r.f64s()?;
            if data.len() != target.rows() * target.cols() {
                return Err(PersistError::Malformed(format!(
                    "tensor size {} != {}x{}",
                    data.len(),
                    target.rows(),
                    target.cols()
                )));
            }
            target.as_mut_slice().copy_from_slice(&data);
            Ok(())
        };
        load(&mut net.embed.w.value)?;
        load(&mut net.embed.b.value)?;
        load(&mut net.lstm1.wx.value)?;
        load(&mut net.lstm1.wh.value)?;
        load(&mut net.lstm1.b.value)?;
        load(&mut net.lstm2.wx.value)?;
        load(&mut net.lstm2.wh.value)?;
        load(&mut net.lstm2.b.value)?;
        load(&mut net.head.w.value)?;
        load(&mut net.head.b.value)?;
        r.expect_end()?;
        Ok(Self { cfg, net: Some(net), spec: Some(spec), clusters, epochs_run: 0 })
    }
}

#[cfg(test)]
mod persist_tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_predictions() {
        let series = vec![(0..120)
            .map(|t| 40.0 + 20.0 * ((t % 12) as f64 / 12.0 * std::f64::consts::TAU).sin())
            .collect::<Vec<f64>>()];
        let spec = WindowSpec { window: 12, horizon: 1 };
        let mut rnn = Rnn::new(RnnConfig {
            epochs: 5,
            hidden: 6,
            embedding: 4,
            ..RnnConfig::default()
        });
        use crate::Forecaster;
        rnn.fit(&series, spec).unwrap();
        let bytes = rnn.to_bytes();
        let restored = Rnn::from_bytes(&bytes).unwrap();
        let recent = vec![series[0][100..112].to_vec()];
        assert_eq!(rnn.predict(&recent), restored.predict(&recent));
        // The RNN object dwarfs LR's footprint (Table 4's relative claim).
        assert!(bytes.len() > 2_000, "{} bytes", bytes.len());
    }

    #[test]
    fn corrupt_bytes_rejected() {
        let mut rnn = Rnn::new(RnnConfig {
            epochs: 2,
            hidden: 4,
            embedding: 3,
            ..RnnConfig::default()
        });
        use crate::Forecaster;
        rnn.fit(&[vec![5.0; 60]], WindowSpec { window: 6, horizon: 1 }).unwrap();
        let mut bytes = rnn.to_bytes();
        bytes[6] ^= 0xFF;
        // Either a read error or a size mismatch — never a panic.
        let _ = Rnn::from_bytes(&bytes);
        bytes.truncate(20);
        assert!(Rnn::from_bytes(&bytes).is_err());
    }
}
