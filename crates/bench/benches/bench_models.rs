//! Table 4 (model rows): training/prediction cost of LR, RNN, and KR on a
//! three-cluster hourly series.

use criterion::{criterion_group, criterion_main, Criterion};
use qb_forecast::{Forecaster, WindowSpec};

fn series() -> Vec<Vec<f64>> {
    (0..3)
        .map(|c| {
            (0..504) // three weeks hourly
                .map(|t| {
                    let phase = c as f64 * 2.0;
                    120.0
                        + 90.0
                            * (((t % 24) as f64 + phase) / 24.0 * std::f64::consts::TAU).sin()
                })
                .map(|v: f64| v.max(0.0))
                .collect()
        })
        .collect()
}

fn bench_models(c: &mut Criterion) {
    let series = series();
    let spec = WindowSpec { window: 24, horizon: 1 };
    let recent: Vec<Vec<f64>> = series.iter().map(|s| s[s.len() - 24..].to_vec()).collect();

    let mut group = c.benchmark_group("table4_models");

    group.bench_function("lr_train", |b| {
        b.iter(|| {
            let mut m = qb_forecast::LinearRegression::default();
            m.fit(&series, spec).expect("fit");
            m
        })
    });

    group.bench_function("kr_train", |b| {
        b.iter(|| {
            let mut m = qb_forecast::KernelRegression::default();
            m.fit(&series, spec).expect("fit");
            m
        })
    });
    let mut kr = qb_forecast::KernelRegression::default();
    kr.fit(&series, spec).expect("fit");
    group.bench_function("kr_predict", |b| b.iter(|| kr.predict(&recent)));

    group.bench_function("arma_train", |b| {
        b.iter(|| {
            let mut m = qb_bench::arma::Arma::default();
            m.fit(&series, spec).expect("fit");
            m
        })
    });

    group.sample_size(10);
    group.bench_function("rnn_train_10_epochs", |b| {
        b.iter(|| {
            let cfg = qb_forecast::RnnConfig {
                epochs: 10,
                patience: 10,
                ..qb_forecast::RnnConfig::default()
            };
            let mut m = qb_forecast::Rnn::new(cfg);
            m.fit(&series, spec).expect("fit");
            m
        })
    });
    let mut rnn = qb_forecast::Rnn::new(qb_forecast::RnnConfig {
        epochs: 5,
        ..qb_forecast::RnnConfig::default()
    });
    rnn.fit(&series, spec).expect("fit");
    group.bench_function("rnn_predict", |b| b.iter(|| rnn.predict(&recent)));

    group.finish();
}

criterion_group!(benches, bench_models);
criterion_main!(benches);
