//! Property-based tests: every model is total (finite, non-negative
//! output) on arbitrary non-negative series, and the composites respect
//! their defining identities.

use proptest::prelude::*;
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
    fn lr_total(series in series_strategy()) {
        check_model(Box::new(qb_forecast::LinearRegression::default()), &series)?;
    }

    #[test]
    fn kr_total(series in series_strategy()) {
        check_model(Box::new(qb_forecast::KernelRegression::default()), &series)?;
    }

    #[test]
    fn rnn_total(series in series_strategy()) {
        let cfg = qb_forecast::RnnConfig {
            epochs: 2,
            hidden: 6,
            embedding: 4,
            ..Default::default()
        };
        check_model(Box::new(qb_forecast::Rnn::new(cfg)), &series)?;
    }

    /// HYBRID's defining identity: its prediction is elementwise either
    /// the ensemble's or KR's, never anything else.
    #[test]
    fn hybrid_picks_member_predictions(series in series_strategy()) {
        let spec = WindowSpec { window: 12, horizon: 3 };
        let rnn = qb_forecast::RnnConfig {
            epochs: 2, hidden: 6, embedding: 4, ..Default::default()
        };
        let mut hybrid = qb_forecast::Hybrid::new(qb_forecast::HybridConfig {
            gamma: 1.5,
            kr_window: None,
            rnn: rnn.clone(),
        });
        hybrid.fit(&series, spec).expect("fit hybrid");
        let mut ensemble = qb_forecast::Ensemble::new(rnn);
        ensemble.fit(&series, spec).expect("fit ensemble");
        let mut kr = qb_forecast::KernelRegression::default();
        kr.fit(&series, spec).expect("fit kr");

        let recent: Vec<Vec<f64>> =
            series.iter().map(|s| s[s.len() - 12..].to_vec()).collect();
        let h = hybrid.predict(&recent);
        let e = ensemble.predict(&recent);
        let k = kr.predict(&recent);
        for i in 0..h.len() {
            let matches_member =
                (h[i] - e[i]).abs() < 1e-9 || (h[i] - k[i]).abs() < 1e-9;
            prop_assert!(matches_member, "hybrid[{}]={} not ens {} nor kr {}", i, h[i], e[i], k[i]);
        }
    }

    /// The ensemble is exactly the member average.
    #[test]
    fn ensemble_is_average(series in series_strategy()) {
        let spec = WindowSpec { window: 12, horizon: 3 };
        let rnn_cfg = qb_forecast::RnnConfig {
            epochs: 2, hidden: 6, embedding: 4, ..Default::default()
        };
        let mut e = qb_forecast::Ensemble::new(rnn_cfg);
        e.fit(&series, spec).expect("fit");
        let recent: Vec<Vec<f64>> =
            series.iter().map(|s| s[s.len() - 12..].to_vec()).collect();
        let pred = e.predict(&recent);
        let (lr, rnn) = e.members();
        let lr_p = lr.predict(&recent);
        let rnn_p = rnn.predict(&recent);
        for i in 0..pred.len() {
            prop_assert!((pred[i] - 0.5 * (lr_p[i] + rnn_p[i])).abs() < 1e-9);
        }
    }
}
