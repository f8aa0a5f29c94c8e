//! Property-based tests: every Table 3 baseline is total (finite,
//! non-negative output) on arbitrary non-negative series, as the deployed
//! models are in `qb-forecast`'s proptests.

use proptest::prelude::*;
use qb_bench::{arma::Arma, fnn, psrnn};
use qb_forecast::{Forecaster, WindowSpec};

fn series_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    // 1-2 clusters, 60-120 steps, arbitrary non-negative rates incl. zeros
    // and large spikes.
    (1usize..3, 60usize..120).prop_flat_map(|(clusters, len)| {
        proptest::collection::vec(
            proptest::collection::vec(
                prop_oneof![Just(0.0f64), 0.0f64..100.0, 1e4f64..1e6],
                len,
            ),
            clusters,
        )
    })
}

fn check_model(
    mut model: Box<dyn Forecaster>,
    series: &[Vec<f64>],
) -> Result<(), TestCaseError> {
    let spec = WindowSpec { window: 12, horizon: 3 };
    model.fit(series, spec).map_err(|e| {
        TestCaseError::fail(format!("{} failed to fit: {e}", model.name()))
    })?;
    let recent: Vec<Vec<f64>> =
        series.iter().map(|s| s[s.len() - 12..].to_vec()).collect();
    let pred = model.predict(&recent);
    prop_assert_eq!(pred.len(), series.len());
    for p in &pred {
        prop_assert!(p.is_finite(), "{} produced non-finite {}", model.name(), p);
        prop_assert!(*p >= 0.0, "{} produced negative rate {}", model.name(), p);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arma_total(series in series_strategy()) {
        check_model(Box::new(Arma::default()), &series)?;
    }

    #[test]
    fn fnn_total(series in series_strategy()) {
        let cfg = fnn::FnnConfig { epochs: 3, hidden: 8, ..Default::default() };
        check_model(Box::new(fnn::Fnn::new(cfg)), &series)?;
    }

    #[test]
    fn psrnn_total(series in series_strategy()) {
        let cfg = psrnn::PsrnnConfig { epochs: 2, state_dim: 6, ..Default::default() };
        check_model(Box::new(psrnn::Psrnn::new(cfg)), &series)?;
    }
}
