//! The model zoo: one constructor per paper model, at quick or
//! paper-faithful effort.

use qb_forecast::{Forecaster, KernelRegression, LinearRegression, Rnn, RnnConfig};

use crate::arma::Arma;
use crate::fnn::{Fnn, FnnConfig};
use crate::psrnn::{Psrnn, PsrnnConfig};
use crate::Effort;

/// The six standalone models of Table 3, in the paper's order.
pub const STANDALONE: [&str; 6] = ["LR", "KR", "ARMA", "FNN", "RNN", "PSRNN"];

/// All eight rows of Figure 7 (standalone + composites).
pub const ALL_MODELS: [&str; 8] =
    ["LR", "KR", "ARMA", "FNN", "RNN", "PSRNN", "ENSEMBLE", "HYBRID"];

/// RNN settings per effort. `Full` is the paper architecture; `Quick`
/// shrinks it for smoke runs.
pub fn rnn_config(effort: Effort) -> RnnConfig {
    match effort {
        Effort::Full => RnnConfig { epochs: 60, ..RnnConfig::default() },
        Effort::Quick => RnnConfig {
            epochs: 15,
            hidden: 10,
            embedding: 8,
            patience: 5,
            ..RnnConfig::default()
        },
    }
}

/// Builds one standalone model by name.
///
/// # Panics
/// Panics on an unknown model name.
pub fn make_model(name: &str, effort: Effort) -> Box<dyn Forecaster> {
    match name {
        "LR" => Box::new(LinearRegression::default()),
        "KR" => Box::new(KernelRegression::default()),
        "ARMA" => Box::new(Arma::default()),
        "FNN" => {
            let mut cfg = FnnConfig::default();
            if effort.is_quick() {
                cfg.epochs = 25;
                cfg.hidden = 16;
            }
            Box::new(Fnn::new(cfg))
        }
        "RNN" => Box::new(Rnn::new(rnn_config(effort))),
        "PSRNN" => {
            let mut cfg = PsrnnConfig::default();
            if effort.is_quick() {
                cfg.epochs = 10;
                cfg.state_dim = 10;
            }
            Box::new(Psrnn::new(cfg))
        }
        other => panic!("unknown model `{other}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_builds_every_standalone_model() {
        for name in STANDALONE {
            let m = make_model(name, Effort::Quick);
            assert_eq!(m.name(), name);
        }
    }

    /// Constant series: every baseline must nail it, as the deployed
    /// models do in `qb-forecast`'s `all_models_predict_constant_series`.
    #[test]
    fn baselines_predict_constant_series() {
        let series = vec![vec![100.0; 200], vec![50.0; 200]];
        let spec = qb_forecast::WindowSpec { window: 12, horizon: 1 };
        let models: Vec<Box<dyn Forecaster>> =
            vec![Box::new(Arma::default()), Box::new(Fnn::default()), Box::new(Psrnn::default())];
        for mut m in models {
            m.fit(&series, spec).unwrap();
            let pred = m.predict(&[vec![100.0; 12], vec![50.0; 12]]);
            assert!((pred[0] - 100.0).abs() < 15.0, "{} cluster0 pred {}", m.name(), pred[0]);
            assert!((pred[1] - 50.0).abs() < 10.0, "{} cluster1 pred {}", m.name(), pred[1]);
        }
    }

    #[test]
    #[should_panic(expected = "unknown model")]
    fn unknown_model_panics() {
        make_model("GPT", Effort::Quick);
    }
}
