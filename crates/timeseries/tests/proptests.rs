//! Property-based tests for arrival-history storage and metrics.

use std::collections::BTreeMap;

use proptest::prelude::*;
use qb_timeseries::{
    expm1_series, log1p_series, mse_log_space, ArrivalHistory, Interval, Minute,
};

fn records() -> impl Strategy<Value = Vec<(i64, u64)>> {
    proptest::collection::vec((0i64..50_000, 1u64..100), 0..200)
}

/// The storage oracle: an arrival history over one ordered map that never
/// compacts, written for obviousness — every read is a map range scan,
/// `sample_at` is one range count per sample point.
#[derive(Default)]
struct MapHistory {
    raw: BTreeMap<Minute, u64>,
    total: u64,
}

impl MapHistory {
    fn record(&mut self, t: Minute, count: u64) {
        if count > 0 {
            *self.raw.entry(t).or_insert(0) += count;
            self.total += count;
        }
    }

    fn first_seen(&self) -> Option<Minute> {
        self.raw.keys().next().copied()
    }

    fn last_seen(&self) -> Option<Minute> {
        self.raw.keys().next_back().copied()
    }

    fn count_range(&self, start: Minute, end: Minute) -> u64 {
        if end <= start {
            return 0;
        }
        self.raw.range(start..end).map(|(_, c)| *c).sum()
    }

    fn dense_series(&self, start: Minute, end: Minute, interval: Interval) -> Vec<f64> {
        let step = interval.as_minutes();
        (0..interval.buckets_between(start, end) as i64)
            .map(|i| {
                let from = start + i * step;
                self.count_range(from, (from + step).min(end)) as f64
            })
            .collect()
    }

    fn sample_at(&self, timestamps: &[Minute], interval: Interval) -> Vec<f64> {
        timestamps
            .iter()
            .map(|&t| {
                let b = interval.bucket_start(t);
                self.count_range(b, b + interval.as_minutes()) as f64
            })
            .collect()
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// A record `ahead` minutes past the newest one (0 = the same minute).
    InOrder { ahead: i64, count: u64 },
    /// A record `back` minutes before the newest one.
    Late { back: i64, count: u64 },
    /// `compact(lookback)`.
    Compact { lookback: i64 },
    /// `export_state` → `from_state`.
    RoundTrip,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let count = || 0u64..50;
    let op = prop_oneof![
        (0i64..4, count()).prop_map(|(ahead, count)| Op::InOrder { ahead, count }),
        (0i64..90, count()).prop_map(|(ahead, count)| Op::InOrder { ahead, count }),
        (1i64..5_000, count()).prop_map(|(back, count)| Op::Late { back, count }),
        (0i64..3_000).prop_map(|lookback| Op::Compact { lookback }),
        Just(Op::RoundTrip),
    ];
    proptest::collection::vec(op, 1..80)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn hour(t: Minute) -> Minute {
    Interval::HOUR.bucket_start(t)
}

/// Every read of `h` that has a range, over windows that cut through the
/// stored minutes: with both ends on the hour at hour-multiple intervals
/// (the reads the per-hour run answers) everywhere, and with either end or
/// the interval off the hour from `exact_from` on, where compaction has
/// kept every minute. Anywhere, a half-hour read summed per hour is the
/// hour read.
fn check_range_reads(
    h: &ArrivalHistory,
    oracle: &MapHistory,
    newest: Minute,
    exact_from: Minute,
) -> Result<(), TestCaseError> {
    let oldest = oracle.first_seen().unwrap_or(newest);
    let windows = [
        (hour(oldest) - 120, hour(newest) + 120),
        (hour(newest - 700), hour(newest)),
        (hour(oldest) + 60, hour(newest) - 60),
        (hour(newest) - 60, hour(newest) + 60),
    ];
    for (start, end) in windows {
        let end = end.max(start);
        let want = oracle.count_range(start, end);
        prop_assert_eq!(h.count_range(start, end), want, "count_range({}, {})", start, end);
        for interval in [Interval::HOUR, Interval::TWO_HOURS, Interval::DAY] {
            let want = oracle.dense_series(start, end, interval);
            prop_assert_eq!(
                bits(&h.dense_series(start, end, interval)),
                bits(&want),
                "dense_series({}, {}, {:?})", start, end, interval
            );
            // Onto a buffer that already holds other members' counts.
            let mut got = vec![3.0; want.len()];
            h.add_dense_series(start, end, interval, &mut got);
            let want: Vec<f64> = want.iter().map(|v| 3.0 + v).collect();
            prop_assert_eq!(bits(&got), bits(&want));
        }
        // Sampled feature buckets: whole hours, ascending, some repeated.
        let starts: Vec<Minute> = (start..end).step_by(60).flat_map(|b| [b, b]).collect();
        for width in [60, 120, 1440] {
            let want: Vec<f64> =
                starts.iter().map(|&b| oracle.count_range(b, b + width) as f64).collect();
            let got = h.bucket_counts(&starts, Interval::minutes(width));
            prop_assert_eq!(bits(&got), bits(&want), "bucket_counts at width {}", width);
        }
        let halves = h.dense_series(start, end, Interval::THIRTY_MINUTES);
        let summed: Vec<f64> = halves.chunks(2).map(|c| c.iter().sum()).collect();
        prop_assert_eq!(bits(&summed), bits(&h.dense_series(start, end, Interval::HOUR)));
    }
    let recent = [exact_from.max(hour(newest) - 120), exact_from.max(newest - 61), newest];
    for from in recent {
        for (d_start, d_end) in [(0, 0), (1, 0), (7, 2), (0, 1), (13, -1)] {
            let (start, end) = (from + d_start, (newest + 2 + d_end).max(from + d_start));
            let want = oracle.count_range(start, end);
            prop_assert_eq!(h.count_range(start, end), want, "count_range({}, {})", start, end);
            let intervals =
                [Interval::MINUTE, Interval::minutes(7), Interval::HOUR, Interval::minutes(90)];
            for interval in intervals {
                let want = oracle.dense_series(start, end, interval);
                prop_assert_eq!(
                    bits(&h.dense_series(start, end, interval)),
                    bits(&want),
                    "dense_series({}, {}, {:?})", start, end, interval
                );
                let mut got = vec![3.0; want.len()];
                h.add_dense_series(start, end, interval, &mut got);
                let want: Vec<f64> = want.iter().map(|v| 3.0 + v).collect();
                prop_assert_eq!(bits(&got), bits(&want));
            }
            // Overlapping sub-hour buckets.
            let starts: Vec<Minute> = (start..end).step_by(7).collect();
            let want: Vec<f64> =
                starts.iter().map(|&b| oracle.count_range(b, b + 13) as f64).collect();
            let got = h.bucket_counts(&starts, Interval::minutes(13));
            prop_assert_eq!(bits(&got), bits(&want), "bucket_counts from {}", start);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Model-based differential against a history that never compacts:
    /// after any sequence of in-order, late and same-minute records (late
    /// ones landing in hours long closed, some at negative minutes, some
    /// before the first arrival), compactions under lookbacks that rise and
    /// fall and end anywhere inside an hour, and state round-trips, every
    /// whole-hour read (`count_range`, `dense_series`, `add_dense_series`,
    /// `bucket_counts`), `first_seen`, `last_seen` and `total` are exactly
    /// the model's, and every read at minute grain is too wherever the
    /// compactions so far have kept the minutes.
    #[test]
    fn run_storage_matches_map_oracle(
        ops in ops(),
        origin in prop_oneof![Just(2_000i64), Just(-1_500)],
        points in proptest::collection::vec(-300i64..9_000, 0..40),
        sample_width in prop_oneof![Just(1i64), Just(7), Just(60), Just(120), Just(1440)],
    ) {
        let mut h = ArrivalHistory::new();
        let mut oracle = MapHistory::default();
        let mut newest: Minute = origin;
        // Minutes at or after this have never been compacted.
        let mut exact_from = Minute::MIN;
        for op in ops {
            match op {
                Op::InOrder { ahead, count } => {
                    newest += ahead;
                    h.record(newest, count);
                    oracle.record(newest, count);
                }
                Op::Late { back, count } => {
                    h.record(newest - back, count);
                    oracle.record(newest - back, count);
                }
                Op::Compact { lookback } => {
                    h.compact(lookback);
                    if let Some(last) = oracle.last_seen() {
                        let cutoff = hour(last - lookback);
                        let raw = h.export_state().raw;
                        let stale = raw.iter().skip(1).any(|e| e.0 < cutoff);
                        prop_assert!(!stale, "a stale minute is left");
                        exact_from = exact_from.max(cutoff);
                    }
                }
                Op::RoundTrip => {
                    let state = h.export_state();
                    h = ArrivalHistory::from_state(state.clone());
                    prop_assert_eq!(h.export_state(), state, "round trip changed the state");
                }
            }

            prop_assert_eq!(h.first_seen(), oracle.first_seen());
            prop_assert_eq!(h.last_seen(), oracle.last_seen());
            prop_assert_eq!(h.total(), oracle.total);
            prop_assert_eq!(h.count_range(Minute::MIN, Minute::MAX), oracle.total);
            if let Some(first) = oracle.first_seen() {
                prop_assert_eq!(h.count_range(Minute::MIN, first), 0, "arrivals before the first");
            }
            let state = h.export_state();
            let kept_first = state.raw.first().map(|e| e.0);
            prop_assert_eq!(kept_first, oracle.first_seen(), "the first minute is kept");
            check_range_reads(&h, &oracle, newest, exact_from)?;
        }

        // Sample points: random ones (sparse enough to leave empty buckets
        // between them), several inside the newest record's bucket — which
        // that record straddles — one past it, and the buckets that just
        // touch and just miss the first and last stored pairs. Whole-hour
        // buckets are compared everywhere, others where minutes are kept.
        let interval = Interval::minutes(sample_width);
        let hourly = sample_width % 60 == 0;
        let first = oracle.first_seen().unwrap_or(newest);
        let last = oracle.last_seen().unwrap_or(newest);
        let mut unsorted = points;
        unsorted.extend([newest, newest - 1, newest, newest + 1, newest + 2 * sample_width]);
        unsorted.extend([first - sample_width, first - sample_width + 1, first, last, last + 1]);
        let mut sorted = unsorted.clone();
        sorted.sort_unstable();
        // The same walks with nothing stored under them.
        let before_first: Vec<Minute> =
            sorted.iter().map(|t| t - (sorted[sorted.len() - 1] - first) - 2 * sample_width).collect();
        let after_last: Vec<Minute> =
            sorted.iter().map(|t| t - sorted[0] + last + sample_width).collect();
        let kept = |ts: &[Minute]| -> Vec<Minute> {
            let exact = |t| hourly || interval.bucket_start(t) >= exact_from;
            ts.iter().copied().filter(|&t| exact(t)).collect()
        };
        for timestamps in [&sorted, &unsorted, &before_first, &after_last] {
            let timestamps = kept(timestamps);
            prop_assert_eq!(
                bits(&h.sample_at(&timestamps, interval)),
                bits(&oracle.sample_at(&timestamps, interval))
            );
            // Taken as bucket starts, the same points are unaligned, so
            // neighbouring buckets overlap; floored to the hour they are
            // aligned and (for widths past an hour) still overlap.
            let hours: Vec<Minute> = timestamps.iter().map(|&t| hour(t)).collect();
            for starts in [&timestamps, &hours] {
                let exact = |b: Minute| (hourly && b % 60 == 0) || b >= exact_from;
                let starts: Vec<Minute> = starts.iter().copied().filter(|&b| exact(b)).collect();
                let want: Vec<f64> = starts
                    .iter()
                    .map(|&b| oracle.count_range(b, b + sample_width) as f64)
                    .collect();
                prop_assert_eq!(bits(&h.bucket_counts(&starts, interval)), bits(&want));
            }
        }
        for empty in [&before_first, &after_last] {
            prop_assert!(oracle.sample_at(empty, interval).iter().all(|&v| v == 0.0));
            prop_assert!(h.sample_at(empty, interval).iter().all(|&v| v == 0.0));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Total count equals the sum of recorded counts, before and after
    /// compaction, at any read interval.
    #[test]
    fn totals_survive_compaction(recs in records(), retention in 10i64..5_000) {
        let mut h = ArrivalHistory::new();
        let expected: u64 = recs.iter().map(|(_, c)| c).sum();
        for (t, c) in &recs {
            h.record(*t, *c);
        }
        prop_assert_eq!(h.total(), expected);
        prop_assert_eq!(h.count_range(0, 50_000), expected);

        h.compact(retention);
        prop_assert_eq!(h.total(), expected);
        prop_assert_eq!(h.count_range(0, 50_000), expected);

        // Hourly reads agree with the raw series summed per hour.
        let dense = h.dense_series(0, 50_000, Interval::HOUR);
        prop_assert!((dense.iter().sum::<f64>() - expected as f64).abs() < 1e-6);
    }

    /// Dense series at any interval sums to the range total.
    #[test]
    fn dense_series_sums_match(recs in records(), k in 1i64..500) {
        let mut h = ArrivalHistory::new();
        for (t, c) in &recs {
            h.record(*t, *c);
        }
        let interval = Interval::minutes(k);
        let dense = h.dense_series(0, 50_000, interval);
        let total: f64 = dense.iter().sum();
        prop_assert!((total - h.count_range(0, 50_000) as f64).abs() < 1e-6);
    }

    /// Compaction keeps the exact first and last arrival minutes.
    #[test]
    fn compaction_preserves_bounds(recs in records()) {
        prop_assume!(!recs.is_empty());
        let mut h = ArrivalHistory::new();
        for (t, c) in &recs {
            h.record(*t, *c);
        }
        let first = h.first_seen().expect("non-empty");
        let last = h.last_seen().expect("non-empty");
        h.compact(60);
        prop_assert_eq!(h.first_seen(), Some(first));
        prop_assert_eq!(h.last_seen(), Some(last));
    }

    /// Interval bucket arithmetic: every timestamp lands in exactly the
    /// bucket whose start it floors to.
    #[test]
    fn bucket_start_consistent(t in -100_000i64..100_000, k in 1i64..10_000) {
        let iv = Interval::minutes(k);
        let b = iv.bucket_start(t);
        prop_assert!(b <= t);
        prop_assert!(t - b < k);
        prop_assert_eq!(b.rem_euclid(k), 0, "bucket start aligned to the interval");
        prop_assert_eq!(iv.bucket_start(b), b, "bucket starts are fixed points");
    }

    /// log1p/expm1 are inverse on the valid domain.
    #[test]
    fn log_roundtrip(xs in proptest::collection::vec(0.0f64..1e9, 1..50)) {
        let back = expm1_series(&log1p_series(&xs));
        for (a, b) in xs.iter().zip(&back) {
            prop_assert!((a - b).abs() <= 1e-6 * (1.0 + a.abs()));
        }
    }

    /// MSE in log space is non-negative and zero iff series are equal.
    #[test]
    fn mse_nonnegative(xs in proptest::collection::vec(0.0f64..1e6, 1..50)) {
        prop_assert_eq!(mse_log_space(&xs, &xs), 0.0);
        let shifted: Vec<f64> = xs.iter().map(|v| v + 1.0).collect();
        prop_assert!(mse_log_space(&xs, &shifted) > 0.0);
    }
}
