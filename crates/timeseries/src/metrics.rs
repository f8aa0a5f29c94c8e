//! Accuracy metrics and the log-space transform pair.
//!
//! §7.2: "We take the log of the input before training the models, and
//! convert them back by taking the exponentials of the output. ... We use
//! the log of the mean squared error (MSE) as the metric."
//!
//! We follow the NoisePage reference implementation in using `ln(1+x)`
//! rather than `ln(x)` so zero-arrival intervals stay finite.

/// `ln(1 + x)` applied element-wise. Negative inputs are clamped to 0 first
/// (arrival rates are counts; a model should never be fed negatives, but the
/// clamp keeps the transform total).
pub fn log1p_series(xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|&x| x.max(0.0).ln_1p()).collect()
}

/// Inverse of [`log1p_series`]: `exp(y) - 1`, clamped at zero so a model can
/// never predict a negative arrival rate.
pub fn expm1_series(ys: &[f64]) -> Vec<f64> {
    ys.iter().map(|&y| (y.exp_m1()).max(0.0)).collect()
}

/// Plain mean squared error.
///
/// # Panics
/// Panics if the slices differ in length or are empty.
pub fn mse(actual: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(actual.len(), predicted.len(), "mse: length mismatch");
    assert!(!actual.is_empty(), "mse: empty input");
    actual
        .iter()
        .zip(predicted)
        .map(|(a, p)| (a - p) * (a - p))
        .sum::<f64>()
        / actual.len() as f64
}

/// The paper's accuracy metric: MSE computed between `ln(1+actual)` and
/// `ln(1+predicted)`. Lower is better. Both inputs are raw (linear-space)
/// arrival rates.
pub fn mse_log_space(actual: &[f64], predicted: &[f64]) -> f64 {
    let a = log1p_series(actual);
    let p = log1p_series(predicted);
    mse(&a, &p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_expm1_roundtrip() {
        let xs = vec![0.0, 1.0, 10.0, 12345.0];
        let back = expm1_series(&log1p_series(&xs));
        for (a, b) in xs.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9 * (1.0 + a), "{a} vs {b}");
        }
    }

    #[test]
    fn negative_input_clamped() {
        assert_eq!(log1p_series(&[-3.0]), vec![0.0]);
        assert_eq!(expm1_series(&[-10.0]), vec![0.0]);
    }

    #[test]
    fn mse_zero_for_perfect_prediction() {
        let xs = vec![1.0, 2.0, 3.0];
        assert_eq!(mse(&xs, &xs), 0.0);
        assert_eq!(mse_log_space(&xs, &xs), 0.0);
    }

    #[test]
    fn mse_known_value() {
        assert!((mse(&[0.0, 0.0], &[1.0, 3.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn log_space_dampens_large_errors() {
        // A 10% relative error at large scale scores tiny in log space.
        let a = vec![10_000.0];
        let p = vec![11_000.0];
        assert!(mse_log_space(&a, &p) < 0.01);
        assert!(mse(&a, &p) > 1e5);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mse_length_mismatch_panics() {
        mse(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "empty input")]
    fn mse_empty_panics() {
        mse(&[], &[]);
    }

    #[test]
    #[should_panic(expected = "empty input")]
    fn mse_log_space_empty_panics() {
        mse_log_space(&[], &[]);
    }

    #[test]
    fn single_point_mse() {
        // One observation: MSE is just the squared error of that point.
        assert_eq!(mse(&[3.0], &[5.0]), 4.0);
        let expected = (4.0f64.ln_1p() - 2.0f64.ln_1p()).powi(2);
        assert!((mse_log_space(&[4.0], &[2.0]) - expected).abs() < 1e-15);
    }

    #[test]
    fn zero_rate_series_is_finite() {
        // An all-zero actual series (a cluster that went quiet) must score
        // finitely — this is why the transform is ln(1+x), not ln(x).
        let zeros = vec![0.0; 24];
        assert_eq!(mse_log_space(&zeros, &zeros), 0.0);
        let m = mse_log_space(&zeros, &[1.0; 24]);
        assert!(m.is_finite() && m > 0.0);
        // And a model predicting zero against real traffic is also finite.
        assert!(mse_log_space(&[100.0; 24], &zeros).is_finite());
    }
}
