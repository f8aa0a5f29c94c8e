//! Table 4 (component rows): Pre-Processor per-query cost and the
//! Clusterer's per-update cost.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use qb_preprocessor::{PreProcessor, PreProcessorConfig};
use qb_timeseries::MINUTES_PER_DAY;
use qb_workloads::{TraceConfig, Workload};

fn bench_preprocessor(c: &mut Criterion) {
    let mut group = c.benchmark_group("table4_preprocessor");

    // Fresh queries (cache miss: full parse + templatize path).
    let queries: Vec<String> = (0..4096)
        .map(|i| {
            format!(
                "SELECT a, b FROM t{} WHERE id = {} AND name = 'user{}' AND score > {}",
                i % 7,
                i,
                i * 31 % 1000,
                i % 97
            )
        })
        .collect();
    group.throughput(Throughput::Elements(queries.len() as u64));
    group.bench_function("ingest_cold", |b| {
        b.iter_batched(
            || PreProcessor::new(PreProcessorConfig::default()),
            |mut pre| {
                for (i, q) in queries.iter().enumerate() {
                    pre.ingest(i as i64, q).expect("valid");
                }
                pre
            },
            BatchSize::SmallInput,
        )
    });

    // Repeated queries (memo hit: the steady-state OLTP path).
    let hot: Vec<&String> = queries.iter().cycle().take(4096).collect();
    group.bench_function("ingest_hot", |b| {
        let mut pre = PreProcessor::new(PreProcessorConfig::default());
        for (i, q) in queries.iter().enumerate() {
            pre.ingest(i as i64, q).expect("valid");
        }
        b.iter(|| {
            for (i, q) in hot.iter().enumerate() {
                pre.ingest(i as i64, q).expect("valid");
            }
        })
    });
    group.finish();
}

fn bench_clusterer_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("table4_clusterer");
    // Build a realistic bot state from two days of BusTracker, then time
    // one full clustering update.
    let mut bot = qb5000::QueryBot5000::new(qb5000::Qb5000Config::default());
    let cfg = TraceConfig { start: 0, days: 2, scale: 0.05, seed: 1 };
    for ev in Workload::BusTracker.generator(cfg) {
        let _ = bot.ingest_weighted(ev.minute, &ev.sql, ev.count);
    }
    group.bench_function("daily_update", |b| {
        b.iter(|| bot.update_clusters(2 * MINUTES_PER_DAY))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_preprocessor, bench_clusterer_update
}
criterion_main!(benches);
