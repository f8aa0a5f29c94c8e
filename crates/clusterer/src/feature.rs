//! Arrival-rate feature extraction (§5.1).
//!
//! "QB5000 first randomly samples timestamps before the current time point.
//! Then for each series of arrival rate history, QB5000 takes the subset of
//! values at those timestamps to form a vector. ... Our current
//! implementation uses 10k time points in the last month of a template's
//! arrival rate history as its feature vector."
//!
//! All templates share the same sampled-timestamp set so their vectors are
//! coordinate-aligned. For a *new* template that did not exist at the older
//! sample points, similarity is computed only over the timestamps since its
//! first arrival (the paper's "available timestamps" rule) — see
//! [`TemplateFeature::similarity`].

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use qb_timeseries::{ArrivalHistory, Interval, Minute};

/// A shared set of sampled timestamps that defines the feature space for one
/// clustering round.
#[derive(Debug, Clone)]
pub struct FeatureSampler {
    /// Sorted sample timestamps (minutes).
    timestamps: Vec<Minute>,
    /// Aggregation interval around each sample point.
    interval: Interval,
    /// Bucket start of each timestamp at `interval` (ascending, repeats
    /// where samples share a bucket) — computed once per round, read by
    /// every template's extraction.
    bucket_starts: Vec<Minute>,
}

impl FeatureSampler {
    /// Draws `n` timestamps uniformly from the window `[now - window, now)`.
    ///
    /// The paper draws 10 000 points from the trailing month; the synthetic
    /// experiments use smaller `n` (the traces are shorter and the patterns
    /// coarser), which preserves the geometry while keeping runtime small.
    ///
    /// # Panics
    /// Panics if `n == 0` or `window <= 0`.
    pub fn random(now: Minute, window: i64, n: usize, interval: Interval, seed: u64) -> Self {
        assert!(n > 0, "FeatureSampler: need at least one sample point");
        assert!(window > 0, "FeatureSampler: window must be positive");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut timestamps: Vec<Minute> =
            (0..n).map(|_| now - 1 - rng.gen_range(0..window)).collect();
        timestamps.sort_unstable();
        timestamps.dedup();
        Self::over(timestamps, interval)
    }

    /// A sampler over evenly spaced timestamps (deterministic). Only tests
    /// use it: they compare `extract` against every bucket of a range.
    pub fn even(start: Minute, end: Minute, interval: Interval) -> Self {
        let step = interval.as_minutes();
        let mut timestamps = Vec::new();
        let mut t = interval.bucket_start(start);
        while t < end {
            timestamps.push(t);
            t += step;
        }
        Self::over(timestamps, interval)
    }

    fn over(timestamps: Vec<Minute>, interval: Interval) -> Self {
        let bucket_starts = timestamps.iter().map(|&t| interval.bucket_start(t)).collect();
        Self { timestamps, interval, bucket_starts }
    }

    /// The sample timestamps (sorted ascending).
    pub fn timestamps(&self) -> &[Minute] {
        &self.timestamps
    }

    /// Feature-space dimensionality.
    pub fn dim(&self) -> usize {
        self.timestamps.len()
    }

    /// Extracts the feature vector of one template: the arrivals in each
    /// sample's bucket, read in one walk of the history per tier.
    ///
    /// Only the buckets that end after the history's first arrival can be
    /// nonzero, so one `partition_point` finds the first of them and
    /// `bucket_counts` reads the starts from there on; any exact zeros at
    /// the head of what it returns join the lead too. The feature holds
    /// what is left, the history the template has.
    pub fn extract(&self, history: &ArrivalHistory, first_seen: Minute) -> TemplateFeature {
        let width = self.interval.as_minutes();
        let from = history.first_seen().map_or(self.bucket_starts.len(), |first| {
            self.bucket_starts.partition_point(|&b| b + width <= first)
        });
        let values = history.bucket_counts(&self.bucket_starts[from..], self.interval);
        // Index of the first sample point at or after the template's first
        // arrival; earlier coordinates are masked out when comparing a new
        // template against long-lived centers.
        let valid_from = self.timestamps.partition_point(|&t| t < first_seen);
        TemplateFeature::from_suffix(from, values, valid_from)
    }
}

/// A template's feature vector plus its validity mask.
///
/// The vector has `dim()` coordinates, stored as the count of leading
/// exact zeros (`lead`) and the suffix after them. A feature is read over
/// timestamps sorted in time, so a template first seen `h` hours ago is
/// zero on every earlier coordinate, and in a deployment younger than the
/// feature window that lead is most of the vector: the suffix is as long as
/// the template's history, not the window. The lead is maximal — the
/// suffix is empty or starts with a nonzero — and every reader walks the
/// suffix at its offset.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateFeature {
    /// Leading coordinates that are exactly zero.
    lead: usize,
    /// Coordinates `lead..dim()`.
    values: Vec<f64>,
    /// Coordinates before this index predate the template's first arrival.
    pub valid_from: usize,
}

/// The number of leading coordinates of `values` that are exactly zero
/// (`values.len()` for an all-zero vector).
///
/// A sum of products that starts at the lead instead of at 0 skips only
/// exact zeros, which is how the clusterer keeps its similarities and
/// centres bit for bit while walking only what history there is.
pub(crate) fn zero_lead(values: &[f64]) -> usize {
    // Eight coordinates per test, branch-free within a block (`x == 0.0`
    // for both zeros is `x.to_bits() << 1 == 0`), so the scan vectorises.
    let zero_blocks = values
        .chunks_exact(8)
        .take_while(|block| block.iter().fold(0u64, |any, x| any | x.to_bits() << 1) == 0)
        .count();
    let from = zero_blocks * 8;
    values[from..].iter().position(|&x| x != 0.0).map_or(values.len(), |i| from + i)
}

impl TemplateFeature {
    /// A feature from its dense coordinates; the zero lead is split off.
    pub fn dense(values: Vec<f64>, valid_from: usize) -> Self {
        Self::from_suffix(0, values, valid_from)
    }

    /// A dense feature with every coordinate valid.
    pub fn full(values: Vec<f64>) -> Self {
        Self::dense(values, 0)
    }

    /// A feature of `lead + suffix.len()` coordinates that is zero on the
    /// first `lead`; exact zeros at the head of `suffix` join the lead.
    pub fn from_suffix(lead: usize, suffix: Vec<f64>, valid_from: usize) -> Self {
        let zeros = zero_lead(&suffix);
        let values = if zeros > 0 { suffix[zeros..].to_vec() } else { suffix };
        Self { lead: lead + zeros, values, valid_from }
    }

    /// Number of coordinates.
    pub fn dim(&self) -> usize {
        self.lead + self.values.len()
    }

    /// Leading coordinates that are exactly zero.
    pub fn lead(&self) -> usize {
        self.lead
    }

    /// The coordinates from [`Self::lead`] on (empty or led by a nonzero).
    pub fn suffix(&self) -> &[f64] {
        &self.values
    }

    /// The dense coordinates.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut dense = vec![0.0; self.lead];
        dense.extend_from_slice(&self.values);
        dense
    }

    /// Cosine similarity against a dense vector, restricted to the
    /// coordinates where *both* are valid.
    ///
    /// Equal, bit for bit, to `qb_linalg::cosine_similarity` over the
    /// dense coordinates from the joint mask on: the other vector's norm
    /// covers all of them, while this feature's norm and the dot product
    /// start at its lead, skipping terms that are exact zeros.
    pub fn similarity(&self, other_values: &[f64], other_valid_from: usize) -> f64 {
        let from = self.valid_from.max(other_valid_from);
        if from >= self.dim() {
            return 0.0;
        }
        let start = from.max(self.lead);
        let own = &self.values[start - self.lead..];
        let (na, nb) = (qb_linalg::norm(own), qb_linalg::norm(&other_values[from..]));
        if na == 0.0 || nb == 0.0 {
            return 0.0;
        }
        (qb_linalg::dot(own, &other_values[start..]) / (na * nb)).clamp(-1.0, 1.0)
    }

    /// `1 / (1 + L2)` against a dense vector over every coordinate, summed
    /// in coordinate order as `qb_linalg::l2_distance` sums: the lead's
    /// terms are the other vector's squares.
    pub(crate) fn inverse_l2(&self, other_values: &[f64]) -> f64 {
        assert_eq!(other_values.len(), self.dim(), "inverse_l2: length mismatch");
        let (head, tail) = other_values.split_at(self.lead);
        let sq: f64 = head
            .iter()
            .map(|y| (0.0 - y) * (0.0 - y))
            .chain(self.values.iter().zip(tail).map(|(x, y)| (x - y) * (x - y)))
            .sum();
        1.0 / (1.0 + sq.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history_with(points: &[(Minute, u64)]) -> ArrivalHistory {
        let mut h = ArrivalHistory::new();
        for &(t, c) in points {
            h.record(t, c);
        }
        h
    }

    #[test]
    fn random_sampler_in_window_and_sorted() {
        let s = FeatureSampler::random(10_000, 1_000, 200, Interval::MINUTE, 7);
        assert!(!s.timestamps().is_empty());
        for w in s.timestamps().windows(2) {
            assert!(w[0] < w[1]);
        }
        for &t in s.timestamps() {
            assert!((9_000..10_000).contains(&t), "{t} outside window");
        }
    }

    #[test]
    fn random_sampler_deterministic() {
        let a = FeatureSampler::random(500, 100, 50, Interval::MINUTE, 3);
        let b = FeatureSampler::random(500, 100, 50, Interval::MINUTE, 3);
        assert_eq!(a.timestamps(), b.timestamps());
    }

    #[test]
    fn even_sampler_spacing() {
        let s = FeatureSampler::even(0, 180, Interval::HOUR);
        assert_eq!(s.timestamps(), &[0, 60, 120]);
    }

    #[test]
    fn extract_reads_bucket_counts() {
        let h = history_with(&[(0, 5), (60, 7)]);
        let s = FeatureSampler::even(0, 120, Interval::HOUR);
        let f = s.extract(&h, 0);
        assert_eq!(f.to_dense(), vec![5.0, 7.0]);
        assert_eq!((f.lead(), f.valid_from), (0, 0));
    }

    /// The buckets that end before the first arrival are never read, and
    /// a sampled bucket after it that holds no arrival joins the lead.
    #[test]
    fn extract_stores_the_suffix_after_the_zero_lead() {
        let h = history_with(&[(130, 3), (250, 4)]);
        let s = FeatureSampler::even(0, 360, Interval::HOUR);
        let f = s.extract(&h, 130);
        assert_eq!((f.dim(), f.lead(), f.suffix()), (6, 2, &[3.0, 0.0, 4.0, 0.0][..]));
        // No sample falls in the first arrival's hour (120..180).
        let s = FeatureSampler::over(vec![0, 60, 180, 240, 300], Interval::HOUR);
        let f = s.extract(&h, 130);
        assert_eq!((f.dim(), f.lead(), f.suffix()), (5, 3, &[4.0, 0.0][..]));
        assert_eq!(f.valid_from, 2);
        // A history with no arrival is all lead.
        let f = s.extract(&ArrivalHistory::new(), 0);
        assert_eq!((f.dim(), f.lead(), f.suffix()), (5, 5, &[][..]));
    }

    #[test]
    fn dense_and_suffix_constructors_split_the_same_lead() {
        let f = TemplateFeature::dense(vec![0.0, 0.0, 2.0, 0.0, 1.0], 1);
        assert_eq!((f.dim(), f.lead(), f.suffix(), f.valid_from), (5, 2, &[2.0, 0.0, 1.0][..], 1));
        assert_eq!(f.to_dense(), vec![0.0, 0.0, 2.0, 0.0, 1.0]);
        assert_eq!(TemplateFeature::from_suffix(1, vec![0.0, 2.0, 0.0, 1.0], 1), f);
        let empty = TemplateFeature::from_suffix(3, vec![0.0, 0.0], 0);
        assert_eq!((empty.dim(), empty.lead(), empty.suffix()), (5, 5, &[][..]));
    }

    /// Reading from the lead changes where a sum starts, not what it comes
    /// to: both similarities equal `qb_linalg`'s over the dense
    /// coordinates bit for bit, for leads of every length, every mask and
    /// all-zero features and centres.
    #[test]
    fn similarities_equal_dense_linalg_bit_for_bit() {
        const D: usize = 12;
        let vector = |lead: usize, seed: usize| -> Vec<f64> {
            (0..D)
                .map(|i| {
                    let x = ((seed * 7919 + i * 104_729) % 1000) as f64 / 37.0;
                    if i < lead || (seed + i).is_multiple_of(5) { 0.0 } else { x }
                })
                .collect()
        };
        for lead in 0..=D {
            for center_lead in [0, 3, D - 1, D] {
                let center = vector(center_lead, lead + 1);
                for valid_from in [0, 2, lead, D] {
                    let dense = vector(lead, lead + 17);
                    let f = TemplateFeature::dense(dense.clone(), valid_from.min(D));
                    for other_from in [0, 5] {
                        let from = f.valid_from.max(other_from);
                        let want = if from >= D {
                            0.0
                        } else {
                            qb_linalg::cosine_similarity(&dense[from..], &center[from..])
                        };
                        let got = f.similarity(&center, other_from);
                        assert_eq!(got.to_bits(), want.to_bits(), "lead {lead}, from {from}");
                    }
                    let want = 1.0 / (1.0 + qb_linalg::l2_distance(&dense, &center));
                    assert_eq!(f.inverse_l2(&center).to_bits(), want.to_bits(), "lead {lead}");
                }
            }
        }
    }

    #[test]
    fn valid_from_masks_prehistory() {
        let h = history_with(&[(120, 3)]);
        let s = FeatureSampler::even(0, 240, Interval::HOUR);
        let f = s.extract(&h, 120);
        assert_eq!(f.valid_from, 2, "first two sample points predate the template");
    }

    #[test]
    fn zero_lead_counts_leading_zeros_of_either_sign() {
        assert_eq!(zero_lead(&[]), 0);
        for len in [1, 7, 8, 9, 17, 40] {
            assert_eq!(zero_lead(&vec![0.0; len]), len);
            for at in 0..len {
                let mut v = vec![0.0; len];
                v[..at].iter_mut().step_by(3).for_each(|x| *x = -0.0);
                v[at] = if at % 2 == 0 { 1e-300 } else { -2.0 };
                v[len - 1] = if at == len - 1 { v[at] } else { 5.0 };
                assert_eq!(zero_lead(&v), at, "len {len}, first nonzero at {at}");
            }
        }
    }

    #[test]
    fn similarity_identical_patterns_is_one() {
        let a = TemplateFeature::full(vec![1.0, 2.0, 3.0]);
        // Scaled copy: same pattern, different volume.
        let sim = a.similarity(&[10.0, 20.0, 30.0], 0);
        assert!((sim - 1.0).abs() < 1e-12);
    }

    #[test]
    fn similarity_uses_joint_mask() {
        // Old coordinates disagree wildly but are masked out for the newer
        // template.
        let newer = TemplateFeature::dense(vec![0.0, 0.0, 1.0, 2.0], 2);
        let center = vec![99.0, 0.0, 1.0, 2.0];
        assert!((newer.similarity(&center, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn similarity_empty_mask_is_zero() {
        let f = TemplateFeature::dense(vec![1.0, 2.0], 2);
        assert_eq!(f.similarity(&[1.0, 2.0], 0), 0.0);
    }
}
