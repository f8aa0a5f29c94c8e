//! Property-based tests for arrival-history storage and metrics.

use std::collections::BTreeMap;

use proptest::prelude::*;
use qb_timeseries::{
    expm1_series, log1p_series, mse_log_space, ArrivalHistory, ArrivalHistoryState,
    CompactionPolicy, Interval, Minute,
};

fn records() -> impl Strategy<Value = Vec<(i64, u64)>> {
    proptest::collection::vec((0i64..50_000, 1u64..100), 0..200)
}

/// The storage oracle: an arrival history over two ordered maps, written
/// for obviousness — every read is a map range scan, `sample_at` is one
/// range count per sample point.
#[derive(Default)]
struct MapHistory {
    raw: BTreeMap<Minute, u64>,
    compacted: BTreeMap<Minute, u64>,
    width: Option<Interval>,
    total: u64,
}

impl MapHistory {
    fn record(&mut self, t: Minute, count: u64) {
        if count > 0 {
            *self.raw.entry(t).or_insert(0) += count;
            self.total += count;
        }
    }

    fn compact(&mut self, policy: &CompactionPolicy) {
        let bucket = |t| policy.compacted_interval.bucket_start(t);
        if self.width.is_some_and(|w| w != policy.compacted_interval) {
            for (t, c) in std::mem::take(&mut self.compacted) {
                *self.compacted.entry(bucket(t)).or_insert(0) += c;
            }
        }
        let Some(&newest) = self.raw.keys().next_back() else { return };
        self.width = Some(policy.compacted_interval);
        let keep = self.raw.split_off(&(newest - policy.raw_retention));
        for (t, c) in std::mem::replace(&mut self.raw, keep) {
            *self.compacted.entry(bucket(t)).or_insert(0) += c;
        }
    }

    fn first_seen(&self) -> Option<Minute> {
        self.raw.keys().chain(self.compacted.keys()).min().copied()
    }

    fn last_seen(&self) -> Option<Minute> {
        self.raw.keys().chain(self.compacted.keys()).max().copied()
    }

    fn count_range(&self, start: Minute, end: Minute) -> u64 {
        let tier = |m: &BTreeMap<Minute, u64>| m.range(start..end).map(|(_, c)| *c).sum::<u64>();
        tier(&self.raw) + tier(&self.compacted)
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

    fn export_state(&self) -> ArrivalHistoryState {
        ArrivalHistoryState {
            raw: self.raw.iter().map(|(&t, &c)| (t, c)).collect(),
            compacted: self.compacted.iter().map(|(&t, &c)| (t, c)).collect(),
            compacted_width_minutes: self.width.map(Interval::as_minutes),
            total: self.total,
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// A record `ahead` minutes past the newest one (0 = the same minute).
    InOrder { ahead: i64, count: u64 },
    /// A record `back` minutes before the newest one.
    Late { back: i64, count: u64 },
    Compact { retention: i64, width: i64 },
    /// `export_state` → `from_state`.
    RoundTrip,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let count = || 0u64..50;
    // Widths that both widen and narrow across consecutive compactions.
    let width = prop_oneof![Just(30i64), Just(60), Just(120), Just(1440)];
    let op = prop_oneof![
        (0i64..4, count()).prop_map(|(ahead, count)| Op::InOrder { ahead, count }),
        (0i64..90, count()).prop_map(|(ahead, count)| Op::InOrder { ahead, count }),
        (1i64..5_000, count()).prop_map(|(back, count)| Op::Late { back, count }),
        (10i64..3_000, width).prop_map(|(retention, width)| Op::Compact { retention, width }),
        Just(Op::RoundTrip),
    ];
    proptest::collection::vec(op, 1..80)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every read of `h` that has a range, over windows that cut through the
/// stored minutes, with both ends on the hour (the reads the hourly roll-up
/// answers) and with either end one minute off it (the reads it must not).
fn check_range_reads(
    h: &ArrivalHistory,
    oracle: &MapHistory,
    newest: Minute,
) -> Result<(), TestCaseError> {
    let hour = |t| Interval::HOUR.bucket_start(t);
    let oldest = oracle.first_seen().unwrap_or(newest);
    let windows = [
        (hour(oldest) - 120, hour(newest) + 120),
        (hour(newest - 700), hour(newest)),
        (hour(oldest) + 60, hour(newest) - 60),
        (hour(newest) - 60, hour(newest) + 60),
    ];
    for (from, to) in windows {
        for (d_start, d_end) in [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1)] {
            let (start, end) = (from + d_start, (to + d_end).max(from + d_start));
            prop_assert_eq!(
                h.count_range(start, end),
                oracle.count_range(start, end),
                "count_range({}, {})", start, end
            );
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
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Model-based differential: any sequence of in-order, late and
    /// same-minute records (late ones landing in hours long closed, some at
    /// negative minutes), compactions under changing policies whose cutoff
    /// falls anywhere inside an hour, and state round-trips leaves the run
    /// storage — the derived hourly roll-up included — answering every read
    /// exactly as the map oracle does, on the hour and one minute off it.
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
                Op::Compact { retention, width } => {
                    let policy = CompactionPolicy {
                        raw_retention: retention,
                        compacted_interval: Interval::minutes(width),
                    };
                    h.compact(&policy);
                    oracle.compact(&policy);
                }
                Op::RoundTrip => {
                    let state = h.export_state();
                    h = ArrivalHistory::from_state(state.clone());
                    prop_assert_eq!(h.export_state(), state, "round trip changed the state");
                }
            }

            let want = oracle.export_state();
            prop_assert_eq!(h.export_state(), want.clone());
            prop_assert_eq!(h.first_seen(), oracle.first_seen());
            prop_assert_eq!(h.last_seen(), oracle.last_seen());
            prop_assert_eq!(h.stored_entries(), want.raw.len() + want.compacted.len());
            prop_assert_eq!(h.total(), oracle.total);
            prop_assert_eq!(h.count_range(Minute::MIN, Minute::MAX), oracle.total);
            for (start, end) in [(newest - 700, newest - 3), (newest, newest + 1), (0, 9_000), (5, 5)] {
                prop_assert_eq!(h.count_range(start, end), oracle.count_range(start, end));
            }
            for (start, interval) in [(-120, Interval::HOUR), (7, Interval::minutes(13))] {
                let end = (newest + 2).max(start);
                prop_assert_eq!(
                    bits(&h.dense_series(start, end, interval)),
                    bits(&oracle.dense_series(start, end, interval))
                );
            }
            check_range_reads(&h, &oracle, newest)?;
        }

        // Sample points: random ones (sparse enough to leave empty buckets
        // between them), several inside the newest record's bucket — which
        // that record straddles — one past it, and the buckets that just
        // touch and just miss the first and last stored pairs.
        let interval = Interval::minutes(sample_width);
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
        for timestamps in [&sorted, &unsorted, &before_first, &after_last] {
            prop_assert_eq!(
                bits(&h.sample_at(timestamps, interval)),
                bits(&oracle.sample_at(timestamps, interval))
            );
            // Taken as bucket starts, the same points are unaligned, so
            // neighbouring buckets overlap; floored to the hour they are
            // aligned and (for widths past an hour) still overlap.
            let hours: Vec<Minute> =
                timestamps.iter().map(|&t| Interval::HOUR.bucket_start(t)).collect();
            for starts in [timestamps, &hours] {
                let want: Vec<f64> = starts
                    .iter()
                    .map(|&b| oracle.count_range(b, b + sample_width) as f64)
                    .collect();
                prop_assert_eq!(bits(&h.bucket_counts(starts, interval)), bits(&want));
            }
        }
        for empty in [&before_first, &after_last] {
            prop_assert!(oracle.sample_at(empty, interval).iter().all(|&v| v == 0.0));
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

        let policy = CompactionPolicy { raw_retention: retention, compacted_interval: Interval::HOUR };
        h.compact(&policy);
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

    /// Compaction never loses first/last-seen ordering information beyond
    /// bucket granularity.
    #[test]
    fn compaction_preserves_bounds(recs in records()) {
        prop_assume!(!recs.is_empty());
        let mut h = ArrivalHistory::new();
        for (t, c) in &recs {
            h.record(*t, *c);
        }
        let first = h.first_seen().expect("non-empty");
        let last = h.last_seen().expect("non-empty");
        let policy = CompactionPolicy { raw_retention: 60, compacted_interval: Interval::HOUR };
        h.compact(&policy);
        let f2 = h.first_seen().expect("still non-empty");
        let l2 = h.last_seen().expect("still non-empty");
        // Bucket starts may round down by at most an hour.
        prop_assert!(f2 <= first && first - f2 < 60);
        prop_assert!(l2 <= last && last - l2 < 60);
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
