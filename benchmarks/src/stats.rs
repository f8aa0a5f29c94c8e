//! Order statistics for the records: medians, percentiles with the
//! "at least ten samples beyond" rule, and the quartile spread the
//! calibration derives bounds from.

/// Percentile `p` ∈ [0, 1] of an ascending slice, linearly interpolated
/// between the two closest ranks. Empty input reads 0.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Sorts `values` ascending (total order, so a NaN cannot panic the run).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of unsorted values; sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    percentile_sorted(values, 0.5)
}

/// The percentiles a timing may be reported at, ascending, each with the
/// share of samples beyond it in parts per ten thousand (so the "ten
/// samples beyond" test is exact integer arithmetic).
const LADDER: [(f64, usize); 6] =
    [(0.75, 2500), (0.90, 1000), (0.95, 500), (0.99, 100), (0.999, 10), (0.9999, 1)];

/// The highest ladder percentile that still has at least ten samples
/// beyond it among `n` samples; `None` when even p75 has fewer.
pub fn highest_percentile(n: usize) -> Option<f64> {
    LADDER.iter().rev().find(|(_, beyond)| n * beyond >= 10 * 10_000).map(|&(p, _)| p)
}

/// A timing series reduced to what the records print: sample count,
/// median, and the tail percentile picked by [`highest_percentile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(percentile, value)`; absent when too few samples for any tail.
    pub tail: Option<(f64, f64)>,
}

/// Summarises ascending samples.
pub fn summarize(sorted: &[f64]) -> Summary {
    let n = sorted.len();
    Summary {
        n,
        p50: percentile_sorted(sorted, 0.5),
        tail: highest_percentile(n).map(|p| (p, percentile_sorted(sorted, p))),
    }
}

/// Quartile cut points `(q1, q2, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them — the driver computes a metric's spread from these.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let len = values.len();
    if len < 2 {
        return None;
    }
    let mut data = values.to_vec();
    sort(&mut data);
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile range as a share of the median — the run-to-run spread
/// the driver holds against a metric's bound.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Largest gap between any two values as a share of the median.
pub fn max_gap_share(values: &[f64]) -> Option<f64> {
    let mut data = values.to_vec();
    let mid = median(&mut data);
    let (lo, hi) = (*data.first()?, *data.last()?);
    (mid != 0.0).then(|| (hi - lo) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_sorted(&v, 0.0), 10.0);
        assert_eq!(percentile_sorted(&v, 1.0), 40.0);
        assert_eq!(percentile_sorted(&v, 0.5), 25.0);
        assert!((percentile_sorted(&v, 0.9) - 37.0).abs() < 1e-12);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(39), None);
        assert_eq!(highest_percentile(40), Some(0.75));
        assert_eq!(highest_percentile(99), Some(0.75));
        assert_eq!(highest_percentile(100), Some(0.90));
        assert_eq!(highest_percentile(200), Some(0.95));
        assert_eq!(highest_percentile(1_000), Some(0.99));
        assert_eq!(highest_percentile(10_000), Some(0.999));
        assert_eq!(highest_percentile(1_000_000), Some(0.9999));
    }

    #[test]
    fn summary_reports_count_median_and_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.5);
        let (p, value) = s.tail.expect("100 samples carry a p90");
        assert_eq!(p, 0.90);
        assert!((value - 90.1).abs() < 1e-9);
        assert_eq!(summarize(&[1.0, 2.0]).tail, None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([10, 12, 11, 15, 13], n=4) == [10.5, 12.0, 14.0]
        assert_eq!(quartiles(&[10.0, 12.0, 11.0, 15.0, 13.0]), Some((10.5, 12.0, 14.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spreads_are_shares_of_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_share(&v), Some(1.0));
        assert!((max_gap_share(&v).unwrap() - 9.0 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), None);
    }
}
