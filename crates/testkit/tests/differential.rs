//! Differential tests: optimized implementations vs. naive oracles.
//!
//! Each test feeds identical inputs to the production path and to an
//! independently derived reference from `qb_testkit::oracle`, then checks
//! agreement at the contract each pair documents:
//!
//! * online clusterer vs. [`ReferenceClusterer`] — **exact** (the update
//!   rule is deterministic; seeds are printed on failure), on random
//!   rounds and through a cold start's merge storm (merge list, member
//!   order, centre and volume bits);
//! * online clusterer vs. batch DBSCAN — exact on well-separated data,
//!   Rand index ≥ 0.8 on arbitrary data (online assignment is an
//!   approximation of the batch fixpoint);
//! * `LinearRegression` vs. [`NormalEquationsLr`] — same closed form via
//!   different factorizations, `|a − b| ≤ 1e-6 · (1 + |a|)`;
//! * AST templatizer vs. [`naive_template`] — identical induced
//!   partitions over the seeded corpus (template *strings* differ).

use std::collections::BTreeMap;

use qb5000::{Event, EventKind, Tracer, Value};
use qb_clusterer::{
    ClustererConfig, OnlineClusterer, SimilarityMetric, TemplateFeature, TemplateSnapshot,
    UpdateReport, EVICTION_IDLE,
};
use qb_forecast::{Forecaster, LinearRegression, WindowSpec};
use qb_testkit::corpus;
use qb_testkit::oracle::{
    batch_dbscan, naive_template, online_partition, pairwise_agreement, NormalEquationsLr,
    ReferenceClusterer,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

// --- clusterer vs. reference ---

const DIM: usize = 8;

/// Minutes between two random rounds: 0.4 of the eviction window, so a
/// template idle for two windows is evicted in the round it goes quiet
/// and an active one never is.
const ROUND_MINUTES: i64 = 2 * EVICTION_IDLE / 5;

/// Draws one arrival-rate-like feature: a scaled copy of one of a few
/// prototype patterns plus noise, so clusters, reassignments, and merges
/// all actually happen.
fn random_feature(rng: &mut SmallRng) -> Vec<f64> {
    const PROTOTYPES: [[f64; DIM]; 4] = [
        [1.0, 2.0, 4.0, 8.0, 8.0, 4.0, 2.0, 1.0],
        [9.0, 1.0, 9.0, 1.0, 9.0, 1.0, 9.0, 1.0],
        [1.0, 1.0, 1.0, 1.0, 6.0, 6.0, 6.0, 6.0],
        [5.0, 5.0, 0.0, 0.0, 0.0, 0.0, 5.0, 5.0],
    ];
    let proto = PROTOTYPES[rng.gen_range(0..PROTOTYPES.len())];
    let scale = 0.5 + 5.0 * rng.gen_range(0.0..1.0f64);
    proto
        .iter()
        .map(|v| (v * scale + rng.gen_range(0.0..1.5f64)).max(0.0))
        .collect()
}

/// One round of snapshots: refreshed features for live keys, a few new
/// keys (sometimes masked), occasionally an old `last_seen` to trigger
/// eviction later.
fn random_round(
    rng: &mut SmallRng,
    next_key: &mut u64,
    live: &mut Vec<u64>,
    now: i64,
) -> Vec<TemplateSnapshot> {
    let mut snaps = Vec::new();
    for &key in live.iter() {
        // Most templates keep arriving; ~1 in 6 goes quiet (stale
        // last_seen => eventual eviction).
        let last_seen = if rng.gen_range(0..6u32) == 0 { now - 2 * EVICTION_IDLE } else { now - 1 };
        snaps.push(TemplateSnapshot {
            key,
            feature: TemplateFeature::full(random_feature(rng)),
            volume: rng.gen_range(1.0..100.0f64),
            last_seen,
        });
    }
    for _ in 0..rng.gen_range(2..6usize) {
        let key = *next_key;
        *next_key += 1;
        live.push(key);
        let mut feature = TemplateFeature::full(random_feature(rng));
        // A third of new templates are young: mask their older coordinates
        // (the §5.1 "available timestamps" rule). Half of those recorded no
        // arrival in their first sampled buckets, so their zero lead runs
        // past the mask, as `FeatureSampler::extract` returns them: cosine
        // must still take the centre's norm from the mask on.
        if rng.gen_range(0..3u32) == 0 {
            let valid_from = rng.gen_range(1..DIM / 2);
            if rng.gen_range(0..2u32) == 0 {
                let mut values = feature.to_dense();
                values[..rng.gen_range(DIM / 2..DIM)].fill(0.0);
                feature = TemplateFeature::dense(values, valid_from);
                assert!(feature.lead() > feature.valid_from);
            }
            feature.valid_from = valid_from;
        }
        snaps.push(TemplateSnapshot { key, feature, volume: rng.gen_range(1.0..100.0f64), last_seen: now - 1 });
    }
    snaps
}

/// Feeds one round to both clusterers and compares everything they must
/// agree on: the update report, the merge list `(dst, src, moved)` in
/// order, the partition, and every cluster's member order, centre bits and
/// volume bits. (The reference recomputes every centre and volume from
/// scratch after each step, the online clusterer only where membership
/// changed; both are means over the same members in the same order.)
fn compare_update(
    online: &mut OnlineClusterer,
    reference: &mut ReferenceClusterer,
    snaps: Vec<TemplateSnapshot>,
    now: i64,
    context: &str,
) -> UpdateReport {
    // The online clusterer reports its merges through the trace.
    let tracer = Tracer::enabled();
    online.set_tracer(&tracer);
    let report = online.update(snaps.clone(), now);
    assert_eq!(report, reference.update(snaps, now), "update reports diverged ({context})");

    let field = |ev: &Event, name: &str| match ev.payload.iter().find(|(k, _)| *k == name) {
        Some((_, Value::Uint(v))) => *v,
        other => panic!("ClusterMerged without {name}: {other:?}"),
    };
    let merges: Vec<(u64, u64, usize)> = tracer
        .view()
        .of_kind(EventKind::ClusterMerged)
        .map(|ev| (field(ev, "into"), field(ev, "from"), field(ev, "moved_members") as usize))
        .collect();
    assert_eq!(merges, reference.last_merges(), "merge lists diverged ({context})");

    let expected = reference.partition();
    let got = online_partition(online, expected.keys().copied());
    assert_eq!(got, expected, "partitions diverged ({context})");
    assert_eq!(online.num_clusters(), reference.num_clusters(), "cluster counts ({context})");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for cluster in online.clusters() {
        let rc = &reference.clusters()[&cluster.id.0];
        assert_eq!(cluster.members, rc.members, "member order of {:?} ({context})", cluster.id);
        assert_eq!(
            (bits(&cluster.center), cluster.volume.to_bits()),
            (bits(&rc.center), rc.volume.to_bits()),
            "center or volume of {:?} ({context})",
            cluster.id
        );
    }
    report
}

fn clusterer_pair(metric: SimilarityMetric, rho: f64) -> (OnlineClusterer, ReferenceClusterer) {
    let config = ClustererConfig { rho, metric, ..ClustererConfig::default() };
    (OnlineClusterer::new(config), ReferenceClusterer::new(rho, metric))
}

fn assert_matches_reference(metric: SimilarityMetric, seed: u64) {
    let (mut online, mut reference) = clusterer_pair(metric, 0.8);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut next_key = 0u64;
    let mut live: Vec<u64> = Vec::new();
    for round in 0..8 {
        let now = (round + 1) * ROUND_MINUTES;
        let snaps = random_round(&mut rng, &mut next_key, &mut live, now);
        let context = format!("seed {seed:#x}, round {round}, metric {metric:?}");
        compare_update(&mut online, &mut reference, snaps, now, &context);
        live.retain(|&k| online.cluster_of(k).is_some());
    }
}

#[test]
fn clusterer_matches_reference_cosine() {
    for seed in [0x5EED_0001u64, 0x5EED_0002, 0x5EED_0003, 0x5EED_0004, 0x5EED_0005] {
        assert_matches_reference(SimilarityMetric::Cosine, seed);
    }
}

#[test]
fn clusterer_matches_reference_inverse_l2() {
    for seed in [0xB0B_0001u64, 0xB0B_0002, 0xB0B_0003] {
        assert_matches_reference(SimilarityMetric::InverseL2, seed);
    }
}

#[test]
fn clusterer_matches_reference_on_exact_ties() {
    // Random corpora never hit exact similarity ties, so build one by
    // hand: two clusters founded from *bit-identical* features in separate
    // rounds (so they never merge-by-id order accident), then a template
    // equidistant from both. Both sides must resolve the tie to the lowest
    // cluster id; `Iterator::max_by`-style last-max scans fail here.
    // Geometry (all coordinates exactly representable): founders at 0 and
    // 1 have similarity 1/(1+1) = 0.5 < ρ, so they stay separate; the tie
    // template at 0.5 sees 1/1.5 ≈ 0.667 > ρ to *both*; after it joins
    // cluster 0, the moved center (0.25) is 0.75 from the other founder —
    // 1/1.75 ≈ 0.571 < ρ, so no merge hides the decision.
    let (mut online, mut reference) = clusterer_pair(SimilarityMetric::InverseL2, 0.6);

    let snap = |key: u64, values: Vec<f64>| TemplateSnapshot {
        key,
        feature: TemplateFeature::full(values),
        volume: 1.0,
        last_seen: 0,
    };
    let r1 = vec![snap(0, vec![0.0, 0.0]), snap(1, vec![1.0, 0.0])];
    // Round 2: the tie — equidistant from both (bit-identical similarity).
    let r2 = vec![snap(0, vec![0.0, 0.0]), snap(1, vec![1.0, 0.0]), snap(2, vec![0.5, 0.0])];
    for (round, snaps) in [r1, r2].into_iter().enumerate() {
        let a = online.update(snaps.clone(), round as i64);
        let b = reference.update(snaps, round as i64);
        assert_eq!(a, b, "reports diverged in tie round {round}");
    }
    let expected = reference.partition();
    let got = online_partition(&online, expected.keys().copied());
    assert_eq!(got, expected, "tie resolved differently from the reference");
    // And the reference itself must put the tied template in cluster 0.
    assert_eq!(expected[&2], 0, "oracle must break ties to the lowest id");
}

// --- clusterer vs. reference: a cold start's merge storm ---

const STORM_DIM: usize = 32;
const STORM_TEMPLATES: u64 = 420;
const STORM_FAMILIES: u64 = 20;
const STORM_WAVES: u64 = 3;

/// What a template looks like before it has any history worth the name:
/// two sampled buckets with an arrival each, a different pair per key.
/// Two such features share at most one coordinate (cosine ≤ 0.5, L2 ≥ √2),
/// so under either metric every arrival founds its own cluster.
fn sparse_arrival_feature(key: u64) -> Vec<f64> {
    let mut left = key;
    let (mut p, mut row) = (0, STORM_DIM as u64 - 1);
    while left >= row {
        left -= row;
        row -= 1;
        p += 1;
    }
    let mut values = vec![0.0; STORM_DIM];
    values[p] = 1.0;
    values[p + 1 + left as usize] = 1.0;
    values
}

/// One family's arrival shape: six buckets of the window, rates in [2, 8).
fn storm_prototypes(rng: &mut SmallRng) -> Vec<Vec<f64>> {
    (0..STORM_FAMILIES)
        .map(|_| {
            let mut proto = vec![0.0; STORM_DIM];
            for _ in 0..6 {
                proto[rng.gen_range(0..STORM_DIM)] = rng.gen_range(2.0..8.0f64);
            }
            proto
        })
        .collect()
}

/// The features of every key in `0..live` once the families show: the
/// prototype plus a little noise on its own buckets. In even families keys
/// come in triples that share one feature bit for bit (many pairs tie on
/// similarity, and a merged pair's centre ties with the third); a few keys
/// never record an arrival in any sampled bucket (all-zero: cosine scores
/// them 0.0 against everything, inverse-L2 scores them 1.0 against each
/// other).
fn storm_family_features(rng: &mut SmallRng, protos: &[Vec<f64>], live: u64) -> Vec<Vec<f64>> {
    let mut features: Vec<Vec<f64>> = Vec::new();
    for key in 0..live {
        let family = key % STORM_FAMILIES;
        let member = key / STORM_FAMILIES;
        let feature = if key % 83 == 7 {
            vec![0.0; STORM_DIM]
        } else if family.is_multiple_of(2) && !member.is_multiple_of(3) {
            features[(key - (member % 3) * STORM_FAMILIES) as usize].clone()
        } else {
            protos[family as usize]
                .iter()
                .map(|&v| if v > 0.0 { v + rng.gen_range(-0.1..0.1f64) } else { 0.0 })
                .collect()
        };
        features.push(feature);
    }
    features
}

/// [`compare_update`] on one feature per key `0..features.len()`.
fn update_both(
    online: &mut OnlineClusterer,
    reference: &mut ReferenceClusterer,
    features: Vec<Vec<f64>>,
    now: i64,
    context: &str,
) -> UpdateReport {
    let snaps = features
        .into_iter()
        .enumerate()
        .map(|(key, values)| TemplateSnapshot {
            key: key as u64,
            feature: TemplateFeature::full(values),
            volume: 1.0 + (key % 13) as f64,
            last_seen: now,
        })
        .collect();
    compare_update(online, reference, snaps, now, context)
}

/// Templates arrive in waves as sparse singletons, then their families
/// show in one update: the merge step goes from ~420 clusters to ~20 in
/// one call. Returns the largest number of merges one update performed.
fn assert_storm_matches_reference(metric: SimilarityMetric, rho: f64) -> usize {
    let (mut online, mut reference) = clusterer_pair(metric, rho);
    let mut rng = SmallRng::seed_from_u64(0x5708_0001);
    let protos = storm_prototypes(&mut rng);
    let wave = STORM_TEMPLATES / STORM_WAVES;

    let mut most_merges = 0;
    for round in 0..STORM_WAVES + 3 {
        // Rounds 0..3 bring a third of the keys each, still sparse; round 3
        // is the storm (and admits ten late keys straight into it); the
        // two rounds after it redraw the noise, so members drift, leave
        // and re-join, and stragglers merge.
        let features: Vec<Vec<f64>> = if round < STORM_WAVES {
            (0..(round + 1) * wave).map(sparse_arrival_feature).collect()
        } else {
            storm_family_features(&mut rng, &protos, STORM_TEMPLATES + 10)
        };
        let context = format!("{metric:?}, round {round}");
        let report = update_both(&mut online, &mut reference, features, round as i64, &context);
        if round < STORM_WAVES {
            assert_eq!(report.merges, 0, "sparse arrivals must stay apart ({context})");
        }
        most_merges = most_merges.max(report.merges);
    }
    most_merges
}

#[test]
fn clusterer_matches_reference_through_cold_start_storm_cosine() {
    let merges = assert_storm_matches_reference(SimilarityMetric::Cosine, 0.8);
    assert!(merges >= 300, "the storm update performed only {merges} merges");
}

#[test]
fn clusterer_matches_reference_through_cold_start_storm_inverse_l2() {
    // 1 / (1 + d) > 0.5 ⇔ d < 1: wider than a family's noise, narrower
    // than the distance between two sparse arrivals.
    let merges = assert_storm_matches_reference(SimilarityMetric::InverseL2, 0.5);
    assert!(merges >= 300, "the storm update performed only {merges} merges");
}

// --- clusterer vs. reference: a cold start on a time-sorted lattice ---

const LATTICE_DIM: usize = 48;
const LATTICE_RESIDENTS: u64 = 40;
const LATTICE_WAVE: u64 = 340;
const LATTICE_LATE: u64 = 60;
const LATTICE_FAMILIES: u64 = 12;

/// The feature of `key` at update `round` of a cold start whose features
/// are read over time-sorted hourly samples, the last coordinate being
/// the latest hour. A key is exactly zero before the coordinate of its
/// first arrival, so the corpus is mostly zero leads, which the merge
/// step skips:
///
/// * residents (from round 0) have ≤ 8 zeros and a six-hour cycle in one
///   of four phases;
/// * the wave (round 1) and the late keys (round 3) first show as one
///   arrival in the latest hour, distinct per key, after the latest
///   sampled timestamp (`valid_from` = d, so step 1 founds a singleton for
///   each). Any two one-coordinate suffixes have cosine 1, so under cosine
///   the whole arrival merges in that update;
/// * from the update after its arrival a key's suffix grows by one
///   coordinate per update, alternating its family's two rates, and only
///   that suffix is valid: under cosine, step 2's masked re-check splits
///   the merged arrival by family; under inverse-L2 the distinct
///   singletons storm into their families. One key in 83 never records an
///   arrival in any sampled bucket (all-zero).
fn lattice_feature(rng: &mut SmallRng, key: u64, round: u64) -> TemplateFeature {
    let d = LATTICE_DIM;
    let mut values = vec![0.0; d];
    if key < LATTICE_RESIDENTS {
        let lead = (key % 8) as usize;
        for (t, v) in values.iter_mut().enumerate().skip(lead) {
            let peak = (t + key as usize % 4) % 6 < 2;
            *v = if peak { 4.0 } else { 1.0 } + rng.gen_range(0.0..0.3f64);
        }
        return TemplateFeature::dense(values, lead);
    }
    let arrival = if key < LATTICE_RESIDENTS + LATTICE_WAVE { 1 } else { 3 };
    if round == arrival {
        values[d - 1] = 1.0 + 2.0 * (key - LATTICE_RESIDENTS) as f64;
        return TemplateFeature::dense(values, d);
    }
    let lead = d - 1 - (round - arrival) as usize;
    if key % 83 != 7 {
        let family = key % LATTICE_FAMILIES;
        let rates = [1.0 + family as f64, 12.0 - family as f64];
        for (t, v) in values.iter_mut().enumerate().skip(lead) {
            *v = rates[(t - lead) % 2] + rng.gen_range(-0.1..0.1f64);
        }
    }
    TemplateFeature::dense(values, lead)
}

/// Residents, then a 340-key arrival, then the update that splits it (or,
/// under inverse-L2, storms it), a 60-key late arrival, and one more
/// update. Returns the largest number of merges one update performed.
fn assert_lattice_storm_matches_reference(metric: SimilarityMetric, rho: f64) -> usize {
    let (mut online, mut reference) = clusterer_pair(metric, rho);
    let mut rng = SmallRng::seed_from_u64(0x1A77_1CE0);
    let mut most_merges = 0;
    for round in 0..5u64 {
        let live = match round {
            0 => LATTICE_RESIDENTS,
            1 | 2 => LATTICE_RESIDENTS + LATTICE_WAVE,
            _ => LATTICE_RESIDENTS + LATTICE_WAVE + LATTICE_LATE,
        };
        let now = round as i64;
        let snaps = (0..live)
            .map(|key| TemplateSnapshot {
                key,
                feature: lattice_feature(&mut rng, key, round),
                volume: 1.0 + (key % 13) as f64,
                last_seen: now,
            })
            .collect();
        let context = format!("lattice, {metric:?}, round {round}");
        let report = compare_update(&mut online, &mut reference, snaps, now, &context);
        most_merges = most_merges.max(report.merges);
    }
    most_merges
}

#[test]
fn clusterer_matches_reference_through_lattice_storm_cosine() {
    let merges = assert_lattice_storm_matches_reference(SimilarityMetric::Cosine, 0.8);
    assert!(merges >= 300, "the storm update performed only {merges} merges");
}

#[test]
fn clusterer_matches_reference_through_lattice_storm_inverse_l2() {
    let merges = assert_lattice_storm_matches_reference(SimilarityMetric::InverseL2, 0.5);
    assert!(merges >= 300, "the storm update performed only {merges} merges");
}

#[test]
fn merge_tie_between_moved_centre_and_held_partner_goes_to_lowest_id() {
    // Four singletons, ids 0..4 in key order: X at the origin, P and Q
    // either side of (-10, 0), J at (10, 0). P and Q merge first (1/3);
    // their centre lands on (-10, 0), exactly as far from X as J is, so
    // X's next partner is a bit-for-bit tie between cluster 1 (the merged
    // P) and cluster 3 (J). The lowest pair wins: X joins P's cluster, not
    // J. (A table that only lets a moved centre displace a cached partner
    // when it is strictly better gets this wrong.)
    let (mut online, mut reference) = clusterer_pair(SimilarityMetric::InverseL2, 0.05);
    let apart = (0..4).map(|k| vec![1_000.0 * k as f64, 0.0]).collect();
    let report = update_both(&mut online, &mut reference, apart, 0, "tie, round 0");
    assert_eq!((report.clusters_created, report.merges), (4, 0));

    let close = vec![vec![0.0, 0.0], vec![-10.0, 1.0], vec![-10.0, -1.0], vec![10.0, 0.0]];
    update_both(&mut online, &mut reference, close, 1, "tie, round 1");
    assert_eq!(reference.last_merges()[..2], [(1, 2, 1), (1, 0, 1)], "oracle breaks the tie low");
}

// --- clusterer vs. batch DBSCAN ---

#[test]
fn online_equals_batch_dbscan_on_well_separated_patterns() {
    // Scaled copies of orthogonal-ish prototypes: every pairwise
    // similarity is far from ρ on both sides of the threshold, so the
    // online greedy order cannot matter and the partitions must be equal.
    let mut rng = SmallRng::seed_from_u64(0xD85C);
    let prototypes: [[f64; 6]; 3] = [
        [1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 1.0],
    ];
    let features: Vec<Vec<f64>> = (0..60)
        .map(|i| {
            let scale = 1.0 + rng.gen_range(0.0..9.0f64);
            prototypes[i % 3].iter().map(|v| v * scale).collect()
        })
        .collect();

    let batch = batch_dbscan(&features, 0.8);

    let mut online = OnlineClusterer::new(ClustererConfig::default());
    let snaps: Vec<TemplateSnapshot> = features
        .iter()
        .enumerate()
        .map(|(i, f)| TemplateSnapshot {
            key: i as u64,
            feature: TemplateFeature::full(f.clone()),
            volume: 1.0,
            last_seen: 0,
        })
        .collect();
    online.update(snaps, 0);
    let online_labels: Vec<usize> = (0..features.len())
        .map(|i| online.cluster_of(i as u64).expect("assigned").0 as usize)
        .collect();

    let agreement = pairwise_agreement(&batch, &online_labels);
    assert_eq!(agreement, 1.0, "well-separated data must partition identically");
    assert_eq!(online.num_clusters(), 3);
}

#[test]
fn online_within_rand_tolerance_of_batch_dbscan_on_mixed_data() {
    // Arbitrary data, including pairs near the ρ boundary: the online
    // single-pass assignment may split what batch DBSCAN chains together
    // (batch connectivity is transitive, online assignment is not).
    // Documented tolerance: Rand index ≥ 0.8.
    for seed in [1u64, 2, 3] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let features: Vec<Vec<f64>> =
            (0..80).map(|_| (0..DIM).map(|_| rng.gen_range(0.0..10.0f64)).collect()).collect();
        let batch = batch_dbscan(&features, 0.8);

        let mut online = OnlineClusterer::new(ClustererConfig::default());
        let snaps: Vec<TemplateSnapshot> = features
            .iter()
            .enumerate()
            .map(|(i, f)| TemplateSnapshot {
                key: i as u64,
                feature: TemplateFeature::full(f.clone()),
                volume: 1.0,
                last_seen: 0,
            })
            .collect();
        online.update(snaps, 0);
        let online_labels: Vec<usize> = (0..features.len())
            .map(|i| online.cluster_of(i as u64).expect("assigned").0 as usize)
            .collect();

        let agreement = pairwise_agreement(&batch, &online_labels);
        assert!(
            agreement >= 0.8,
            "Rand index {agreement} below documented 0.8 floor (seed {seed:#x})"
        );
    }
}

// --- LR vs. normal equations ---

#[test]
fn lr_matches_normal_equations_oracle() {
    for seed in [0x11u64, 0x22, 0x33] {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Three clusters of periodic-plus-noise rates, 200 steps.
        let series: Vec<Vec<f64>> = (0..3)
            .map(|c| {
                (0..200)
                    .map(|t| {
                        let phase = (t % (12 + c)) as f64 / (12 + c) as f64;
                        40.0 + 30.0 * (phase * std::f64::consts::TAU).sin().abs()
                            + rng.gen_range(0.0..5.0f64)
                    })
                    .collect()
            })
            .collect();

        for (window, horizon) in [(12usize, 1usize), (24, 6)] {
            let spec = WindowSpec { window, horizon };
            let mut lr = LinearRegression::default();
            lr.fit(&series, spec).expect("fit");
            let mut oracle = NormalEquationsLr::new(lr.lambda);
            oracle.fit(&series, window, horizon).expect("oracle fit");

            // Compare predictions from several distinct recent windows.
            for start in [100usize, 140, 176] {
                let recent: Vec<Vec<f64>> =
                    series.iter().map(|s| s[start..start + window].to_vec()).collect();
                let a = lr.predict(&recent);
                let b = oracle.predict(&recent);
                for (c, (&x, &y)) in a.iter().zip(&b).enumerate() {
                    assert!(
                        (x - y).abs() <= 1e-6 * (1.0 + x.abs()),
                        "LR diverged from normal equations (seed {seed:#x}, \
                         window {window}, horizon {horizon}, cluster {c}): {x} vs {y}"
                    );
                }
            }
        }
    }
}

// --- templatizer vs. naive re-templatizer ---

#[test]
fn templatizer_partition_matches_naive_oracle() {
    for seed in [0xA5u64, 0xA6, 0xA7] {
        let corpus = corpus::generate(seed, 400);

        // Group statement indices by each side's template key.
        let mut by_ast: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_naive: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, sql) in corpus.iter().enumerate() {
            let stmt = qb_sqlparse::parse_statement(sql)
                .unwrap_or_else(|e| panic!("corpus must parse: `{sql}`: {e}"));
            let ast_key = qb_preprocessor::templatize(&stmt).text;
            by_ast.entry(ast_key).or_default().push(i);
            by_naive.entry(naive_template(sql)).or_default().push(i);
        }

        // The partitions must be identical: same groups of statement
        // indices, regardless of what each side calls the template.
        let mut ast_groups: Vec<Vec<usize>> = by_ast.into_values().collect();
        let mut naive_groups: Vec<Vec<usize>> = by_naive.into_values().collect();
        ast_groups.sort();
        naive_groups.sort();
        assert_eq!(
            ast_groups, naive_groups,
            "templatizer partitions diverged on corpus seed {seed:#x}"
        );
    }
}
