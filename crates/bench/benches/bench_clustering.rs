//! Clusterer scalability in the number of templates (§5.2), and the merge
//! step's worst case.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use qb_clusterer::{ClustererConfig, OnlineClusterer, TemplateFeature, TemplateSnapshot};
use qb_obs::Recorder;

/// Synthetic feature vectors: `n` templates spread over `patterns` distinct
/// arrival shapes with small per-template perturbations.
fn snapshots(n: usize, patterns: usize, dim: usize) -> Vec<TemplateSnapshot> {
    (0..n)
        .map(|i| {
            let p = i % patterns;
            let values: Vec<f64> = (0..dim)
                .map(|d| {
                    let base =
                        ((d + p * 3) as f64 / dim as f64 * std::f64::consts::TAU).sin() + 1.1;
                    base * (1.0 + (i % 7) as f64 * 0.01)
                })
                .collect();
            TemplateSnapshot {
                key: i as u64,
                feature: TemplateFeature::full(values),
                volume: 1.0 + (i % 13) as f64,
                last_seen: 0,
            }
        })
        .collect()
}

/// A cold start in two updates: `n` templates first seen with two sampled
/// arrivals each (a different pair of buckets per template, so each founds
/// its own cluster), then the same templates once their `families` arrival
/// shapes show. The second update's merge step takes `n` singletons down to
/// about `families` clusters.
fn cold_start_storm(
    n: usize,
    families: usize,
    dim: usize,
) -> (Vec<TemplateSnapshot>, Vec<TemplateSnapshot>) {
    let snapshot = |key: usize, values: Vec<f64>| TemplateSnapshot {
        key: key as u64,
        feature: TemplateFeature::full(values),
        volume: 1.0 + (key % 13) as f64,
        last_seen: 0,
    };
    let pairs = (0..dim).flat_map(|p| (p + 1..dim).map(move |q| (p, q)));
    let sparse = pairs
        .take(n)
        .enumerate()
        .map(|(key, (p, q))| {
            let mut values = vec![0.0; dim];
            values[p] = 1.0;
            values[q] = 1.0;
            snapshot(key, values)
        })
        .collect::<Vec<_>>();
    assert_eq!(sparse.len(), n, "dim too small for {n} distinct bucket pairs");
    let shaped = (0..n)
        .map(|key| {
            let family = key % families;
            let mut values = vec![0.0; dim];
            for b in 0..6 {
                let wobble = ((key * 7919 + b * 104_729) % 1000) as f64 / 5_000.0;
                values[(family * 5 + b * 3) % dim] = 2.0 + ((family + b) % 6) as f64 + wobble;
            }
            snapshot(key, values)
        })
        .collect();
    (sparse, shaped)
}

fn bench_online_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("clusterer_update");
    group.sample_size(10);
    for n in [50usize, 200, 800] {
        let snaps = snapshots(n, 8, 64);
        group.bench_with_input(BenchmarkId::new("templates", n), &snaps, |b, snaps| {
            b.iter(|| {
                let mut cl = OnlineClusterer::new(ClustererConfig::default());
                cl.update(snaps.clone(), 0);
                cl.num_clusters()
            })
        });
        // Same update with metric recording on: compare against the row
        // above — the observability layer's budget is < 5% overhead.
        let recorder = Recorder::new();
        group.bench_with_input(BenchmarkId::new("templates_recorded", n), &snaps, |b, snaps| {
            b.iter(|| {
                let mut cl = OnlineClusterer::new(ClustererConfig::default());
                cl.set_recorder(&recorder);
                cl.update(snaps.clone(), 0);
                cl.num_clusters()
            })
        });
    }
    // The rows above merge almost nothing (their templates join a cluster
    // in step 1). This one is the merge step's worst case: 800 singleton
    // clusters whose 24 families show in one update — hundreds of merges.
    let (sparse, shaped) = cold_start_storm(800, 24, 64);
    bench_storm(&mut group, "cold_start_storm", sparse.clone(), shaped.clone());
    // The same storm as a cold start's features are laid out: a month of
    // hourly samples sorted in time, every template younger than the last
    // 64 hours and so zero on the 436 coordinates before them. Each
    // feature is built as that lead and its suffix, never padded.
    let lattice = |snaps: Vec<TemplateSnapshot>| -> Vec<TemplateSnapshot> {
        snaps
            .into_iter()
            .map(|mut s| {
                let lead = 500 - s.feature.dim() + s.feature.lead();
                s.feature = TemplateFeature::from_suffix(lead, s.feature.suffix().to_vec(), 0);
                s
            })
            .collect()
    };
    bench_storm(&mut group, "cold_start_storm_lattice", lattice(sparse), lattice(shaped));
    group.finish();
}

/// One update that merges 800 singletons, founded from `sparse`, as their
/// `shaped` features show. Before timing it, one such update checks that
/// the clusterer stores only the features' suffixes: the
/// `clusterer.feature_coords` gauge is the sum of `dim − lead`.
fn bench_storm(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    sparse: Vec<TemplateSnapshot>,
    shaped: Vec<TemplateSnapshot>,
) {
    let mut founded = OnlineClusterer::new(ClustererConfig::default());
    founded.update(sparse, 0);
    assert_eq!(founded.num_clusters(), 800);
    let state = founded.export_state();
    let founded = || OnlineClusterer::restore(ClustererConfig::default(), state.clone());
    let recorder = Recorder::new();
    let mut checked = founded();
    checked.set_recorder(&recorder);
    checked.update(shaped.clone(), 0);
    let stored: usize = shaped.iter().map(|s| s.feature.dim() - s.feature.lead()).sum();
    assert_eq!(recorder.snapshot().gauges["clusterer.feature_coords"], stored as f64, "{name}");
    group.bench_function(BenchmarkId::new(name, 800), |b| {
        b.iter_batched(
            || (founded(), shaped.clone()),
            |(mut cl, shaped)| {
                let report = cl.update(shaped, 0);
                assert!(report.merges > 700, "{report:?}");
                cl.num_clusters()
            },
            BatchSize::LargeInput,
        )
    });
}

criterion_group!(benches, bench_online_update);
criterion_main!(benches);
