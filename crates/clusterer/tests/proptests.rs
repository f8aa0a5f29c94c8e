//! Property-based tests for the feature sampler and the online clusterer.

use proptest::prelude::*;
use qb_clusterer::{
    ClustererConfig, FeatureSampler, OnlineClusterer, SimilarityMetric, TemplateFeature,
    TemplateSnapshot,
};
use qb_timeseries::{ArrivalHistory, Interval};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `extract` is, coordinate by coordinate, the arrivals in the sample's
    /// bucket (`count_range` over `[b, b + interval)`, never clamped to
    /// the window or to `now`), and `valid_from` is the first sample at or
    /// after the template's first arrival — on histories with late
    /// records, with and without compacted minutes, and for a `first_seen`
    /// that is the history's own or any other minute. The feature stores
    /// that vector as its maximal zero lead and the suffix after it: the
    /// stored lead is the expansion's count of leading zeros, and the
    /// suffix is empty or starts with a nonzero.
    #[test]
    fn extract_matches_per_point_definition(
        recs in proptest::collection::vec((0i64..6_000, 1u64..40), 0..150),
        compact in any::<bool>(),
        now in 3_000i64..6_500,
        window in 200i64..5_000,
        width in prop_oneof![Just(1i64), Just(20), Just(60)],
        first_seen in 0i64..6_000,
        own_first_seen in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut h = ArrivalHistory::new();
        for &(t, c) in &recs {
            h.record(t, c);
        }
        if compact {
            h.compact(900);
        }
        let first_seen = match h.first_seen() {
            Some(first) if own_first_seen => first,
            _ => first_seen,
        };
        let interval = Interval::minutes(width);
        for sampler in [
            FeatureSampler::random(now, window, 64, interval, seed),
            FeatureSampler::even(now - window, now, interval),
        ] {
            let f = sampler.extract(&h, first_seen);
            let want: Vec<u64> = sampler
                .timestamps()
                .iter()
                .map(|&t| {
                    let b = interval.bucket_start(t);
                    (h.count_range(b, b + width) as f64).to_bits()
                })
                .collect();
            let dense = f.to_dense();
            let got: Vec<u64> = dense.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(f.dim(), sampler.dim());
            let zeros = dense.iter().position(|&v| v != 0.0).unwrap_or(dense.len());
            prop_assert_eq!(f.lead(), zeros);
            prop_assert_eq!(f.suffix(), &dense[zeros..]);
            prop_assert!(f.suffix().first().is_none_or(|&v| v != 0.0));
            let masked = sampler.timestamps().iter().filter(|&&t| t < first_seen).count();
            prop_assert_eq!(f.valid_from, masked);
        }
    }

    /// On whole-hour buckets — the reads `ArrivalHistory` serves from its
    /// per-hour sums — `extract` is the recorded arrivals themselves,
    /// summed here straight from the record list: late records into closed
    /// and into already compacted hours, a compaction lookback ending in
    /// mid-hour and a state round-trip change nothing.
    #[test]
    fn extract_on_whole_hours_matches_recorded_arrivals(
        recs in proptest::collection::vec((-500i64..6_000, 1u64..40), 0..150),
        lookback in prop_oneof![Just(None), (100i64..3_000).prop_map(Some)],
        round_trip in any::<bool>(),
        now in 3_000i64..6_500,
        window in 200i64..5_000,
        width in prop_oneof![Just(60i64), Just(120), Just(1440)],
        seed in any::<u64>(),
    ) {
        // The second half is recorded after the compaction, so its older
        // minutes are late arrivals on both sides of the cutoff.
        let (early, late) = recs.split_at(recs.len() / 2);
        let mut h = ArrivalHistory::new();
        for &(t, c) in early {
            h.record(t, c);
        }
        if let Some(lookback) = lookback {
            h.compact(lookback);
        }
        for &(t, c) in late {
            h.record(t, c);
        }
        if round_trip {
            h = ArrivalHistory::from_state(h.export_state());
        }
        let interval = Interval::minutes(width);
        for sampler in [
            FeatureSampler::random(now, window, 64, interval, seed),
            FeatureSampler::even(now - window, now, interval),
        ] {
            let want: Vec<u64> = sampler
                .timestamps()
                .iter()
                .map(|&t| {
                    let b = interval.bucket_start(t);
                    let arrivals: u64 =
                        recs.iter().filter(|r| interval.bucket_start(r.0) == b).map(|r| r.1).sum();
                    (arrivals as f64).to_bits()
                })
                .collect();
            let got: Vec<u64> =
                sampler.extract(&h, 0).to_dense().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got, want);
        }
    }

    /// Every template ends up in exactly one cluster, and cluster volumes
    /// sum to the total template volume.
    #[test]
    fn clusterer_partitions_templates(
        features in proptest::collection::vec(
            proptest::collection::vec(0.0f64..100.0, 6), 1..40),
        rho in 0.5f64..0.95,
    ) {
        let mut cl = OnlineClusterer::new(ClustererConfig {
            rho,
            metric: SimilarityMetric::Cosine,
            ..ClustererConfig::default()
        });
        let snaps: Vec<TemplateSnapshot> = features
            .iter()
            .enumerate()
            .map(|(i, f)| TemplateSnapshot {
                key: i as u64,
                feature: TemplateFeature::full(f.clone()),
                volume: 1.0 + i as f64,
                last_seen: 0,
            })
            .collect();
        let n = snaps.len();
        cl.update(snaps, 0);

        prop_assert_eq!(cl.num_templates(), n);
        let mut seen = std::collections::HashSet::new();
        let mut volume = 0.0;
        for c in cl.clusters() {
            prop_assert!(!c.members.is_empty(), "empty cluster survived");
            for &m in &c.members {
                prop_assert!(seen.insert(m), "template {} in two clusters", m);
            }
            volume += c.volume;
        }
        prop_assert_eq!(seen.len(), n, "every template clustered");
        let expected: f64 = (0..n).map(|i| 1.0 + i as f64).sum();
        prop_assert!((volume - expected).abs() < 1e-6);

        // Coverage ratio is monotone and reaches 1.
        let mut prev = 0.0;
        for k in 1..=cl.num_clusters() {
            let c = cl.coverage_ratio(k);
            prop_assert!(c + 1e-12 >= prev);
            prev = c;
        }
        prop_assert!((cl.coverage_ratio(cl.num_clusters()) - 1.0).abs() < 1e-9);
    }

    /// Identical feature vectors always co-cluster (similarity 1 > any
    /// valid rho).
    #[test]
    fn identical_features_co_cluster(
        f in proptest::collection::vec(0.1f64..100.0, 4),
        copies in 2usize..10,
    ) {
        let mut cl = OnlineClusterer::new(ClustererConfig::default());
        let snaps: Vec<TemplateSnapshot> = (0..copies)
            .map(|i| TemplateSnapshot {
                key: i as u64,
                feature: TemplateFeature::full(f.clone()),
                volume: 1.0,
                last_seen: 0,
            })
            .collect();
        cl.update(snaps, 0);
        prop_assert_eq!(cl.num_clusters(), 1);
    }

    /// Once updates settle, every member of a multi-member cluster is
    /// within ρ of its cluster's *final* center (the §5.2 guarantee), and
    /// replaying the same stream on a fresh clusterer reproduces the same
    /// partition. Guards the centers frozen during step 1 and the
    /// incremental merge table: a stale or un-recomputed center would
    /// break one of the two.
    #[test]
    fn rho_invariant_and_determinism_at_fixpoint(
        features in proptest::collection::vec(
            proptest::collection::vec(0.0f64..100.0, 6), 2..40),
        rho in 0.5f64..0.95,
    ) {
        let make = || -> Vec<TemplateSnapshot> {
            features
                .iter()
                .enumerate()
                .map(|(i, f)| TemplateSnapshot {
                    key: i as u64,
                    feature: TemplateFeature::full(f.clone()),
                    volume: 1.0,
                    last_seen: 0,
                })
                .collect()
        };
        let run = || {
            let mut cl = OnlineClusterer::new(ClustererConfig {
                rho,
                metric: SimilarityMetric::Cosine,
                ..ClustererConfig::default()
            });
            cl.update(make(), 0);
            let mut settled = false;
            for _ in 0..40 {
                let r = cl.update(make(), 0);
                if r.new_templates + r.reassigned + r.evicted + r.merges == 0 {
                    settled = true;
                    break;
                }
            }
            (cl, settled)
        };
        let (cl, settled) = run();
        prop_assert!(settled, "clusterer failed to settle within 40 rounds");
        for c in cl.clusters() {
            if c.members.len() < 2 {
                continue;
            }
            for &m in &c.members {
                let sim = qb_linalg::cosine_similarity(&features[m as usize], &c.center);
                prop_assert!(sim > rho, "member {} sim {} <= rho {}", m, sim, rho);
            }
        }
        // Same stream, fresh clusterer: identical partition.
        let (cl2, _) = run();
        prop_assert_eq!(cl.num_clusters(), cl2.num_clusters());
        for i in 0..features.len() as u64 {
            prop_assert_eq!(cl.cluster_of(i), cl2.cluster_of(i));
        }
    }

    /// Updates are idempotent: re-submitting identical snapshots changes
    /// nothing.
    #[test]
    fn update_idempotent(
        features in proptest::collection::vec(
            proptest::collection::vec(0.0f64..50.0, 5), 1..20),
    ) {
        let make = || -> Vec<TemplateSnapshot> {
            features
                .iter()
                .enumerate()
                .map(|(i, f)| TemplateSnapshot {
                    key: i as u64,
                    feature: TemplateFeature::full(f.clone()),
                    volume: 1.0,
                    last_seen: 0,
                })
                .collect()
        };
        let mut cl = OnlineClusterer::new(ClustererConfig::default());
        cl.update(make(), 0);
        // Let step-2 reassignments settle (bounded by template count).
        for _ in 0..features.len() {
            cl.update(make(), 0);
        }
        let before: Vec<usize> =
            (0..features.len()).map(|i| cl.cluster_of(i as u64).expect("tracked").0 as usize).collect();
        let report = cl.update(make(), 0);
        let after: Vec<usize> =
            (0..features.len()).map(|i| cl.cluster_of(i as u64).expect("tracked").0 as usize).collect();
        prop_assert_eq!(report.new_templates, 0);
        prop_assert_eq!(before, after, "assignments changed on settled re-update");
    }
}
