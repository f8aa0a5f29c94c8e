//! Supervised-dataset construction shared by every model.
//!
//! The joint multi-cluster encoding of §7.2: a training example at time `t`
//! has input `x_t = [ln(1+s_c[t-W+1..=t]) for every cluster c]` (dimension
//! `W·C`) and target `y_t = [ln(1+s_c[t+h]) for every cluster c]`
//! (dimension `C`), where `W` is the window, `h` the horizon, both counted
//! in steps of the prediction interval.

use qb_linalg::Matrix;

/// Window/horizon geometry, in steps of the prediction interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// How many trailing steps form the model input ("the last day's
    /// arrival rate" for LR/KR at a one-hour interval ⇒ 24).
    pub window: usize,
    /// How many steps ahead the model predicts.
    pub horizon: usize,
}

impl WindowSpec {
    /// Minimum series length that yields at least one training example.
    pub fn min_len(&self) -> usize {
        self.window + self.horizon
    }
}

/// Errors surfaced by model fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum ForecastError {
    /// Fewer time steps than `window + horizon`.
    NotEnoughData { needed: usize, got: usize },
    /// Cluster series have inconsistent lengths or none were given.
    MalformedSeries(String),
    /// The underlying linear solve failed.
    Numeric(String),
    /// Training produced non-finite loss or weights (NaN/∞). The model
    /// aborted mid-fit rather than serve poisoned predictions.
    Diverged { model: &'static str, detail: String },
}

impl ForecastError {
    /// Whether this failure is internal to the model (divergence, solver
    /// breakdown) rather than a property of the data. Model failures are
    /// what composite forecasters degrade across — a data error (shape,
    /// length) would fail every member of the chain identically and must
    /// reach the caller instead.
    pub fn is_model_failure(&self) -> bool {
        matches!(self, ForecastError::Diverged { .. } | ForecastError::Numeric(_))
    }
}

impl std::fmt::Display for ForecastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForecastError::NotEnoughData { needed, got } => {
                write!(f, "not enough data: need {needed} steps, got {got}")
            }
            ForecastError::MalformedSeries(m) => write!(f, "malformed series: {m}"),
            ForecastError::Numeric(m) => write!(f, "numeric failure: {m}"),
            ForecastError::Diverged { model, detail } => {
                write!(f, "{model} diverged during training: {detail}")
            }
        }
    }
}

impl std::error::Error for ForecastError {}

/// Guard used by every `fit`: fails with [`ForecastError::Diverged`] when
/// any value in `values` is non-finite. `what` names the tensor being
/// checked ("weights", "validation loss", …) for the error message.
pub fn ensure_finite(
    model: &'static str,
    what: &str,
    values: impl IntoIterator<Item = f64>,
) -> Result<(), ForecastError> {
    for (i, v) in values.into_iter().enumerate() {
        if !v.is_finite() {
            return Err(ForecastError::Diverged {
                model,
                detail: format!("{what}[{i}] = {v}"),
            });
        }
    }
    Ok(())
}

/// Validates a cluster-major series and returns `(clusters, len)`.
pub fn validate_series(series: &[Vec<f64>], spec: WindowSpec) -> Result<(usize, usize), ForecastError> {
    if series.is_empty() {
        return Err(ForecastError::MalformedSeries("no cluster series".into()));
    }
    let len = series[0].len();
    for (i, s) in series.iter().enumerate() {
        if s.len() != len {
            return Err(ForecastError::MalformedSeries(format!(
                "cluster 0 has {len} steps but cluster {i} has {}",
                s.len()
            )));
        }
    }
    if len < spec.min_len() {
        return Err(ForecastError::NotEnoughData { needed: spec.min_len(), got: len });
    }
    Ok((series.len(), len))
}

/// Builds the supervised design matrices in log space.
///
/// Returns `(X, Y)` where `X` is `N × (W·C)` and `Y` is `N × C`, with
/// `N = len − window − horizon + 1` examples.
pub fn sliding_windows(
    series: &[Vec<f64>],
    spec: WindowSpec,
) -> Result<(Matrix, Matrix), ForecastError> {
    let (clusters, len) = validate_series(series, spec)?;
    let n = len - spec.window - spec.horizon + 1;
    let mut x = Matrix::zeros(n, spec.window * clusters);
    let mut y = Matrix::zeros(n, clusters);
    // Each value sits in up to `window` rows: transform it once, then copy.
    let logs = log_series(series);
    for i in 0..n {
        let row = x.row_mut(i);
        for (c, s) in logs.iter().enumerate() {
            row[c * spec.window..][..spec.window].copy_from_slice(&s[i..i + spec.window]);
        }
        for (c, s) in logs.iter().enumerate() {
            y[(i, c)] = s[i + spec.window + spec.horizon - 1];
        }
    }
    Ok((x, y))
}

/// Every cluster's series in log space (`ln(1 + max(x, 0))`, §7.2).
pub(crate) fn log_series(series: &[Vec<f64>]) -> Vec<Vec<f64>> {
    series.iter().map(|s| qb_timeseries::log1p_series(s)).collect()
}

/// Encodes a prediction input (the last `window` steps of each cluster) as
/// a single log-space feature row matching [`sliding_windows`]' layout.
///
/// # Panics
/// Panics if any cluster has fewer than `window` steps.
pub fn encode_recent(recent: &[Vec<f64>], window: usize) -> Vec<f64> {
    let clusters = recent.len();
    let mut row = vec![0.0; window * clusters];
    for (c, s) in recent.iter().enumerate() {
        assert!(
            s.len() >= window,
            "encode_recent: cluster {c} has {} steps, window is {window}",
            s.len()
        );
        let tail = &s[s.len() - window..];
        for (w, &v) in tail.iter().enumerate() {
            row[c * window + w] = v.max(0.0).ln_1p();
        }
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_count_and_alignment() {
        let series = vec![vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]];
        let spec = WindowSpec { window: 2, horizon: 1 };
        let (x, y) = sliding_windows(&series, spec).unwrap();
        assert_eq!(x.shape(), (4, 2));
        assert_eq!(y.shape(), (4, 1));
        // First example: inputs [0,1] → target 2.
        assert!((x[(0, 0)] - 0.0f64.ln_1p()).abs() < 1e-12);
        assert!((x[(0, 1)] - 1.0f64.ln_1p()).abs() < 1e-12);
        assert!((y[(0, 0)] - 2.0f64.ln_1p()).abs() < 1e-12);
        // Last example: inputs [3,4] → target 5.
        assert!((y[(3, 0)] - 5.0f64.ln_1p()).abs() < 1e-12);
    }

    /// The log transform is applied once per series value and copied into
    /// the windows; every cell must still be the per-cell definition, bit
    /// for bit — negatives and NaN (clamped to 0) included.
    #[test]
    fn cells_are_the_per_cell_transform_bit_for_bit() {
        let series = vec![
            vec![0.0, 3.5, -2.0, f64::NAN, 1e9, 7.0, 0.25, 12.0],
            vec![5.0, 0.0, 1.0, 2.0, f64::INFINITY, 4.0, 6.0, 8.0],
        ];
        let spec = WindowSpec { window: 3, horizon: 2 };
        let (x, y) = sliding_windows(&series, spec).unwrap();
        assert_eq!(x.shape(), (4, 6));
        for i in 0..4 {
            for (c, s) in series.iter().enumerate() {
                for w in 0..3 {
                    let want = s[i + w].max(0.0).ln_1p();
                    assert_eq!(x[(i, c * 3 + w)].to_bits(), want.to_bits(), "x[{i}, {c}, {w}]");
                }
                let want = s[i + 4].max(0.0).ln_1p();
                assert_eq!(y[(i, c)].to_bits(), want.to_bits(), "y[{i}, {c}]");
            }
        }
    }

    #[test]
    fn multi_cluster_layout() {
        let series = vec![vec![1.0, 2.0, 3.0], vec![10.0, 20.0, 30.0]];
        let spec = WindowSpec { window: 2, horizon: 1 };
        let (x, y) = sliding_windows(&series, spec).unwrap();
        assert_eq!(x.shape(), (1, 4));
        assert_eq!(y.shape(), (1, 2));
        // Layout: [c0w0, c0w1, c1w0, c1w1].
        assert!((x[(0, 2)] - 10.0f64.ln_1p()).abs() < 1e-12);
    }

    #[test]
    fn horizon_shifts_target() {
        let series = vec![vec![0.0, 1.0, 2.0, 3.0, 4.0]];
        let spec = WindowSpec { window: 2, horizon: 2 };
        let (x, y) = sliding_windows(&series, spec).unwrap();
        assert_eq!(x.rows(), 2);
        // Inputs [0,1] → target at index 3.
        assert!((y[(0, 0)] - 3.0f64.ln_1p()).abs() < 1e-12);
    }

    #[test]
    fn not_enough_data_error() {
        let series = vec![vec![1.0, 2.0]];
        let err = sliding_windows(&series, WindowSpec { window: 2, horizon: 1 }).unwrap_err();
        assert_eq!(err, ForecastError::NotEnoughData { needed: 3, got: 2 });
    }

    #[test]
    fn ragged_series_error() {
        let series = vec![vec![1.0, 2.0, 3.0], vec![1.0]];
        assert!(matches!(
            sliding_windows(&series, WindowSpec { window: 1, horizon: 1 }),
            Err(ForecastError::MalformedSeries(_))
        ));
    }

    #[test]
    fn empty_series_error() {
        assert!(matches!(
            sliding_windows(&[], WindowSpec { window: 1, horizon: 1 }),
            Err(ForecastError::MalformedSeries(_))
        ));
    }

    #[test]
    fn encode_recent_takes_tail() {
        let recent = vec![vec![1.0, 2.0, 3.0, 4.0]];
        let row = encode_recent(&recent, 2);
        assert_eq!(row.len(), 2);
        assert!((row[0] - 3.0f64.ln_1p()).abs() < 1e-12);
        assert!((row[1] - 4.0f64.ln_1p()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "encode_recent")]
    fn encode_recent_short_panics() {
        encode_recent(&[vec![1.0]], 5);
    }
}
