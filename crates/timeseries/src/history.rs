//! Per-template arrival-rate history with tiered compaction.

use crate::{Interval, Minute, MINUTES_PER_HOUR};

/// How stale records are aggregated into coarser buckets (§4: "the system
/// aggregates stale arrival rate records into larger intervals to save
/// storage space").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Records older than this many minutes (relative to the newest record)
    /// are rolled up.
    pub raw_retention: i64,
    /// Bucket width stale records are rolled up into.
    pub compacted_interval: Interval,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        // Keep one month of raw per-minute data — the Clusterer's feature
        // window (§5.1) — and roll anything older into hourly buckets, which
        // is all the KR spike model needs (§6.2).
        Self {
            raw_retention: 31 * crate::MINUTES_PER_DAY,
            compacted_interval: Interval::HOUR,
        }
    }
}

/// The exported durable state of one [`ArrivalHistory`], produced by
/// [`ArrivalHistory::export_state`] and consumed by
/// [`ArrivalHistory::from_state`]. All plain data: the durability layer
/// owns the byte encoding.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ArrivalHistoryState {
    /// Sorted recent per-minute `(minute, count)` pairs.
    pub raw: Vec<(Minute, u64)>,
    /// Sorted compacted `(bucket_start, count)` pairs.
    pub compacted: Vec<(Minute, u64)>,
    /// Width of compacted buckets in minutes (`None` before the first
    /// compaction).
    pub compacted_width_minutes: Option<i64>,
    /// Total arrivals ever recorded.
    pub total: u64,
}

/// One storage tier: `(minute, count)` pairs sorted by minute, each minute
/// at most once.
type Run = Vec<(Minute, u64)>;

/// Adds `count` at minute `t`, keeping `run` sorted and duplicate-free.
/// In-order arrivals (the live feed) append or bump the last pair; a late
/// `t` binary-searches for its slot and shifts the tail.
fn add_to_run(run: &mut Run, t: Minute, count: u64) {
    match run.last_mut() {
        Some(last) if last.0 == t => last.1 += count,
        Some(last) if last.0 > t => match run.binary_search_by_key(&t, |e| e.0) {
            Ok(i) => run[i].1 += count,
            Err(i) => run.insert(i, (t, count)),
        },
        _ => run.push((t, count)),
    }
}

/// The pairs of `run` whose minute lies in `[start, end)` (empty when
/// `end <= start`).
fn run_range(run: &[(Minute, u64)], start: Minute, end: Minute) -> &[(Minute, u64)] {
    let tail = &run[run.partition_point(|e| e.0 < start)..];
    &tail[..tail.partition_point(|e| e.0 < end)]
}

/// Total count of the pairs of `run` whose minute lies in `[start, end)`.
fn range_sum(run: &[(Minute, u64)], start: Minute, end: Minute) -> u64 {
    run_range(run, start, end).iter().map(|e| e.1).sum()
}

/// Sorts `pairs` by minute and folds pairs sharing a minute by summing
/// (a no-op on an already sorted, duplicate-free run).
fn normalized(mut pairs: Run) -> Run {
    pairs.sort_by_key(|e| e.0);
    pairs.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1 = kept.1.saturating_add(later.1);
        }
        same
    });
    pairs
}

/// Forward cursor over one run answering a sequence of range sums. While
/// each range starts at or after the previous one's end, the whole
/// sequence costs one walk of the run; any other range repositions by
/// binary search.
struct RunCursor<'a> {
    run: &'a [(Minute, u64)],
    /// End of the previous range and the index of the first pair at or
    /// after it.
    prev_end: Minute,
    next: usize,
}

impl<'a> RunCursor<'a> {
    fn new(run: &'a [(Minute, u64)]) -> Self {
        Self { run, prev_end: Minute::MIN, next: 0 }
    }

    /// Total count in `[start, end)`, for `start <= end`.
    fn sum(&mut self, start: Minute, end: Minute) -> u64 {
        let mut i = if start >= self.prev_end {
            self.next
        } else {
            self.run.partition_point(|e| e.0 < start)
        };
        while self.run.get(i).is_some_and(|e| e.0 < start) {
            i += 1;
        }
        let mut sum = 0;
        while let Some(e) = self.run.get(i).filter(|e| e.0 < end) {
            sum += e.1;
            i += 1;
        }
        self.next = i;
        self.prev_end = end;
        sum
    }
}

/// The arrival-rate record for one query template.
///
/// Counts are stored sparsely: a minute with no arrivals occupies no space.
/// Two tiers exist — a raw per-minute run for the recent window, and a
/// compacted run at [`CompactionPolicy::compacted_interval`] granularity for
/// older history. Each tier is a `Vec` of `(minute, count)` pairs sorted by
/// minute with no minute repeated, so a range read is two binary searches
/// and a slice. Reads transparently merge both tiers.
///
/// A third run, `hourly`, is derived from `raw` and kept in memory only: a
/// read whose every boundary is a whole hour (the hourly round's features,
/// volumes, training series and prediction windows) walks it in place of
/// `raw` and so touches one pair per hour instead of one per minute. It
/// returns the same integers; see [`ArrivalHistory::add_dense_series`] for
/// the one bound under which the `f64` reads are bit-equal as well.
#[derive(Debug, Clone, Default)]
pub struct ArrivalHistory {
    /// Recent per-minute counts.
    raw: Run,
    /// Per-hour sums of `raw`, keyed by hour start: `hourly[h]` = Σ `raw` in
    /// `[h, h + 60)`, and an hour with nothing in `raw` has no pair.
    /// Derived — never exported, rebuilt by `from_state`.
    hourly: Run,
    /// Compacted counts, keyed by bucket start.
    compacted: Run,
    /// Width of compacted buckets (None until first compaction).
    compacted_width: Option<Interval>,
    /// Total arrivals ever recorded.
    total: u64,
}

impl ArrivalHistory {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `count` arrivals at minute `t`.
    ///
    /// Minutes may arrive in any order. A `t` at or after the newest raw
    /// record is O(1); a late one costs a binary search plus, for a minute
    /// not yet stored, shifting the pairs after it.
    pub fn record(&mut self, t: Minute, count: u64) {
        if count == 0 {
            return;
        }
        add_to_run(&mut self.raw, t, count);
        add_to_run(&mut self.hourly, Interval::HOUR.bucket_start(t), count);
        self.total += count;
    }

    /// Total arrivals ever recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Timestamp of the most recent arrival (raw or compacted bucket start).
    pub fn last_seen(&self) -> Option<Minute> {
        let raw_last = self.raw.last().map(|e| e.0);
        let compacted_last = self.compacted.last().map(|e| e.0);
        raw_last.max(compacted_last)
    }

    /// Timestamp of the earliest arrival.
    pub fn first_seen(&self) -> Option<Minute> {
        let raw_first = self.raw.first().map(|e| e.0);
        let compacted_first = self.compacted.first().map(|e| e.0);
        match (raw_first, compacted_first) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Number of stored entries across both persisted tiers (the storage
    /// footprint measured in Table 4). The derived hourly roll-up is not
    /// counted: it is never written anywhere and costs memory only (one
    /// pair per hour that has a raw record).
    pub fn stored_entries(&self) -> usize {
        self.raw.len() + self.compacted.len()
    }

    /// Rolls raw records older than the policy's retention window into
    /// compacted buckets. Idempotent; call periodically.
    ///
    /// If the policy's interval differs from the width used by earlier
    /// compactions, existing buckets are re-bucketed into the new width
    /// first. Widening is exact (counts move to the enclosing coarser
    /// bucket); narrowing keeps each count at its bucket-start minute,
    /// since sub-bucket resolution was already discarded.
    pub fn compact(&mut self, policy: &CompactionPolicy) {
        if self.compacted_width.is_some_and(|w| w != policy.compacted_interval) {
            for (t, c) in std::mem::take(&mut self.compacted) {
                add_to_run(&mut self.compacted, policy.compacted_interval.bucket_start(t), c);
            }
            self.compacted_width = Some(policy.compacted_interval);
        }
        let Some(&(newest, _)) = self.raw.last() else { return };
        let cutoff = newest - policy.raw_retention;
        self.compacted_width = Some(policy.compacted_interval);
        // Drain everything strictly older than the cutoff.
        let stale = self.raw.partition_point(|e| e.0 < cutoff);
        for (t, c) in self.raw.drain(..stale) {
            add_to_run(&mut self.compacted, policy.compacted_interval.bucket_start(t), c);
        }
        // The drained hours leave the roll-up too; a cutoff inside an hour
        // leaves that hour with what `raw` still holds of it.
        let hour = Interval::HOUR.bucket_start(cutoff);
        let drained = self.hourly.partition_point(|e| e.0 <= hour);
        self.hourly.drain(..drained);
        let kept = range_sum(&self.raw, hour, hour + MINUTES_PER_HOUR);
        if kept > 0 {
            self.hourly.insert(0, (hour, kept));
        }
    }

    /// The run holding the un-compacted counts for a read whose range or
    /// bucket boundaries are `bounds` and whose buckets are `step` wide:
    /// the hourly roll-up when all of those are whole hours — every hour
    /// then falls whole on one side of each boundary, so the read cannot
    /// tell it from `raw` — and `raw` otherwise.
    fn recent(&self, bounds: &[Minute], step: i64) -> &[(Minute, u64)] {
        let whole_hours = |m: &Minute| m % MINUTES_PER_HOUR == 0;
        if whole_hours(&step) && bounds.iter().all(whole_hours) {
            &self.hourly
        } else {
            &self.raw
        }
    }

    /// Total arrivals in the half-open range `[start, end)`.
    pub fn count_range(&self, start: Minute, end: Minute) -> u64 {
        // Compacted buckets are attributed entirely to their start minute;
        // after compaction sub-bucket resolution is intentionally lost.
        let recent = self.recent(&[start, end], MINUTES_PER_HOUR);
        range_sum(recent, start, end) + range_sum(&self.compacted, start, end)
    }

    /// Materializes a dense series over `[start, end)` aggregated at
    /// `interval`, one `f64` per bucket, zeros where nothing arrived.
    ///
    /// This is the input format the Clusterer and Forecaster consume.
    pub fn dense_series(&self, start: Minute, end: Minute, interval: Interval) -> Vec<f64> {
        let mut out = vec![0.0; interval.buckets_between(start, end)];
        self.add_dense_series(start, end, interval, &mut out);
        out
    }

    /// Adds this history's [`ArrivalHistory::dense_series`] over
    /// `[start, end)` onto `out` in place, so summing many histories (a
    /// cluster's members) needs no per-history buffer.
    ///
    /// When `start`, `end` and `interval` are whole hours each hour's count
    /// is added once, as `(Σ c) as f64`, rather than minute by minute as
    /// `c as f64`. Adding integer-valued `f64`s is exact below 2⁵³, so the
    /// two are bit-equal as long as every bucket of `out` stays under 2⁵³
    /// (and held an integer to begin with); past that bound either order
    /// rounds, and they may round differently.
    ///
    /// # Panics
    /// Panics if `out` is shorter than `interval.buckets_between(start, end)`.
    pub fn add_dense_series(
        &self,
        start: Minute,
        end: Minute,
        interval: Interval,
        out: &mut [f64],
    ) {
        let step = interval.as_minutes();
        for run in [self.recent(&[start, end], step), &self.compacted] {
            for &(t, c) in run_range(run, start, end) {
                out[((t - start) / step) as usize] += c as f64;
            }
        }
    }

    /// Exports the full record for durable serialization. Both tiers are
    /// already sorted `(key, count)` pairs, so identical histories export
    /// to identical state — the basis of byte-stable snapshots.
    pub fn export_state(&self) -> ArrivalHistoryState {
        ArrivalHistoryState {
            raw: self.raw.clone(),
            compacted: self.compacted.clone(),
            compacted_width_minutes: self.compacted_width.map(Interval::as_minutes),
            total: self.total,
        }
    }

    /// Rebuilds a history from exported state. Inverse of
    /// [`ArrivalHistory::export_state`]: the rebuilt record answers every
    /// read identically and continues recording/compacting from the same
    /// point.
    ///
    /// The pairs are not trusted to be in the exported order: each tier is
    /// sorted by minute, and pairs repeating a minute are folded into one
    /// by summing their counts, so `count_range` over everything still
    /// equals `total` for a state that counted them separately.
    pub fn from_state(state: ArrivalHistoryState) -> Self {
        let raw = normalized(state.raw);
        let hour_of = |&(t, c): &(Minute, u64)| (Interval::HOUR.bucket_start(t), c);
        Self {
            hourly: normalized(raw.iter().map(hour_of).collect()),
            raw,
            compacted: normalized(state.compacted),
            compacted_width: state
                .compacted_width_minutes
                .filter(|&m| m > 0)
                .map(Interval::minutes),
            total: state.total,
        }
    }

    /// Arrival counts sampled at specific minutes, aggregated at `interval`
    /// around each sample (the Clusterer's feature extraction: "QB5000 takes
    /// the subset of values at those timestamps to form a vector", §5.1).
    pub fn sample_at(&self, timestamps: &[Minute], interval: Interval) -> Vec<f64> {
        let starts: Vec<Minute> = timestamps.iter().map(|&t| interval.bucket_start(t)).collect();
        self.bucket_counts(&starts, interval)
    }

    /// Total arrivals in `[b, b + interval)` for each `b` in `starts`.
    ///
    /// With `starts` ascending and at least `interval` apart (repeats
    /// allowed — a start equal to its predecessor copies that value) each
    /// tier is walked once; any other order gives the same answers at the
    /// cost of a binary search per start that steps backwards or overlaps
    /// its predecessor. A bucket that ends at or before the first stored
    /// minute, or starts after the last, is zero without a look at either
    /// tier.
    pub fn bucket_counts(&self, starts: &[Minute], interval: Interval) -> Vec<f64> {
        let width = interval.as_minutes();
        let mut recent = RunCursor::new(self.recent(starts, width));
        let mut compacted = RunCursor::new(&self.compacted);
        // An empty history stores nothing anywhere: every bucket is "before".
        let first = self.first_seen().unwrap_or(Minute::MAX);
        let last = self.last_seen().unwrap_or(Minute::MIN);
        let mut out: Vec<f64> = Vec::with_capacity(starts.len());
        for (i, &b) in starts.iter().enumerate() {
            let value = if i > 0 && starts[i - 1] == b {
                out[i - 1]
            } else if b + width <= first || b > last {
                0.0
            } else {
                (recent.sum(b, b + width) + compacted.sum(b, b + width)) as f64
            };
            out.push(value);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_total() {
        let mut h = ArrivalHistory::new();
        h.record(5, 3);
        h.record(5, 2);
        h.record(9, 1);
        assert_eq!(h.total(), 6);
        assert_eq!(h.count_range(0, 10), 6);
        assert_eq!(h.count_range(6, 10), 1);
    }

    #[test]
    fn zero_count_is_noop() {
        let mut h = ArrivalHistory::new();
        h.record(1, 0);
        assert_eq!(h.total(), 0);
        assert_eq!(h.stored_entries(), 0);
    }

    #[test]
    fn first_last_seen() {
        let mut h = ArrivalHistory::new();
        assert_eq!(h.last_seen(), None);
        h.record(10, 1);
        h.record(100, 1);
        assert_eq!(h.first_seen(), Some(10));
        assert_eq!(h.last_seen(), Some(100));
    }

    #[test]
    fn dense_series_minute_buckets() {
        let mut h = ArrivalHistory::new();
        h.record(0, 2);
        h.record(2, 5);
        assert_eq!(h.dense_series(0, 4, Interval::MINUTE), vec![2.0, 0.0, 5.0, 0.0]);
    }

    #[test]
    fn dense_series_hour_aggregation() {
        let mut h = ArrivalHistory::new();
        h.record(0, 1);
        h.record(59, 2);
        h.record(60, 4);
        assert_eq!(h.dense_series(0, 120, Interval::HOUR), vec![3.0, 4.0]);
    }

    #[test]
    fn compaction_preserves_totals_and_hourly_series() {
        let mut h = ArrivalHistory::new();
        // Two days of arrivals, one per minute.
        for t in 0..2 * crate::MINUTES_PER_DAY {
            h.record(t, 1);
        }
        let before_hourly =
            h.dense_series(0, 2 * crate::MINUTES_PER_DAY, Interval::HOUR);
        let policy = CompactionPolicy {
            raw_retention: crate::MINUTES_PER_DAY,
            compacted_interval: Interval::HOUR,
        };
        let entries_before = h.stored_entries();
        h.compact(&policy);
        assert!(h.stored_entries() < entries_before, "compaction should shrink storage");
        assert_eq!(h.total(), 2 * crate::MINUTES_PER_DAY as u64);
        // Hourly reads are unaffected because the compacted width divides
        // the read interval.
        let after_hourly = h.dense_series(0, 2 * crate::MINUTES_PER_DAY, Interval::HOUR);
        assert_eq!(before_hourly, after_hourly);
    }

    #[test]
    fn compaction_is_idempotent() {
        let mut h = ArrivalHistory::new();
        for t in 0..3000 {
            h.record(t, 2);
        }
        let policy =
            CompactionPolicy { raw_retention: 100, compacted_interval: Interval::HOUR };
        h.compact(&policy);
        let entries = h.stored_entries();
        let series = h.dense_series(0, 3000, Interval::HOUR);
        h.compact(&policy);
        assert_eq!(h.stored_entries(), entries);
        assert_eq!(h.dense_series(0, 3000, Interval::HOUR), series);
    }

    /// Regression: changing the compaction interval mid-stream used to
    /// panic. Widening must re-bucket existing compacted entries exactly.
    #[test]
    fn interval_change_rebuckets_instead_of_panicking() {
        let mut h = ArrivalHistory::new();
        for t in 0..3 * crate::MINUTES_PER_DAY {
            h.record(t, 1);
        }
        let daily_before = h.dense_series(0, 3 * crate::MINUTES_PER_DAY, Interval::DAY);
        let hourly = CompactionPolicy {
            raw_retention: crate::MINUTES_PER_DAY,
            compacted_interval: Interval::HOUR,
        };
        h.compact(&hourly);
        // Operator retunes the policy to daily buckets: re-compact instead
        // of panicking. Hour starts land exactly on enclosing day buckets,
        // so daily reads are unchanged.
        let daily = CompactionPolicy {
            raw_retention: crate::MINUTES_PER_DAY,
            compacted_interval: Interval::DAY,
        };
        h.compact(&daily);
        assert_eq!(h.total(), 3 * crate::MINUTES_PER_DAY as u64);
        assert_eq!(h.dense_series(0, 3 * crate::MINUTES_PER_DAY, Interval::DAY), daily_before);
        // The old hourly buckets collapsed into at most one entry per day.
        assert!(h.stored_entries() <= crate::MINUTES_PER_DAY as usize + 3);
    }

    /// Narrowing the interval keeps counts at their (coarse) bucket starts
    /// — no panic, totals preserved.
    #[test]
    fn interval_narrowing_preserves_totals() {
        let mut h = ArrivalHistory::new();
        for t in 0..3000 {
            h.record(t, 2);
        }
        h.compact(&CompactionPolicy { raw_retention: 100, compacted_interval: Interval::DAY });
        h.compact(&CompactionPolicy { raw_retention: 100, compacted_interval: Interval::HOUR });
        assert_eq!(h.total(), 6000);
        assert_eq!(h.count_range(0, 3000), 6000);
    }

    #[test]
    fn sample_at_uses_bucket() {
        let mut h = ArrivalHistory::new();
        h.record(61, 7);
        h.record(62, 3);
        // Sampling any minute within the hour bucket [60,120) at hourly
        // interval returns the full bucket.
        assert_eq!(h.sample_at(&[75], Interval::HOUR), vec![10.0]);
        assert_eq!(h.sample_at(&[61], Interval::MINUTE), vec![7.0]);
        assert_eq!(h.sample_at(&[0, 61], Interval::MINUTE), vec![0.0, 7.0]);
    }

    #[test]
    fn empty_history_dense_series_is_zero() {
        let h = ArrivalHistory::new();
        assert_eq!(h.dense_series(0, 120, Interval::HOUR), vec![0.0, 0.0]);
    }

    /// Round-trip through every hourly-or-coarser read path: a compacted
    /// history must answer `count_range`, `dense_series`, and `sample_at`
    /// (the Clusterer's feature reads) exactly as the uncompacted one did.
    #[test]
    fn compaction_roundtrips_all_read_paths() {
        // Deterministic pseudo-random arrivals: bursty, with gaps.
        let mut h = ArrivalHistory::new();
        let mut x: u64 = 0x9E37_79B9;
        let span = 2 * crate::MINUTES_PER_DAY;
        for t in 0..span {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if x.is_multiple_of(5) {
                h.record(t, x % 7 + 1);
            }
        }
        let uncompacted = h.clone();
        h.compact(&CompactionPolicy {
            raw_retention: crate::MINUTES_PER_DAY / 2,
            compacted_interval: Interval::HOUR,
        });

        assert_eq!(h.total(), uncompacted.total());
        // A compacted first arrival is attributed to its bucket start, so
        // `first_seen` is preserved at bucket granularity only.
        assert_eq!(
            h.first_seen().map(|t| Interval::HOUR.bucket_start(t)),
            uncompacted.first_seen().map(|t| Interval::HOUR.bucket_start(t))
        );
        // Hour-aligned range counts are exact (sub-bucket resolution is
        // only lost *within* a compacted bucket).
        for start_h in (0..span).step_by(60 * 7) {
            let start = Interval::HOUR.bucket_start(start_h);
            assert_eq!(
                h.count_range(start, span),
                uncompacted.count_range(start, span),
                "count_range from {start}"
            );
        }
        assert_eq!(
            h.dense_series(0, span, Interval::HOUR),
            uncompacted.dense_series(0, span, Interval::HOUR)
        );
        assert_eq!(
            h.dense_series(0, span, Interval::DAY),
            uncompacted.dense_series(0, span, Interval::DAY)
        );
        let sample_points: Vec<Minute> = (0..span).step_by(97).collect();
        assert_eq!(
            h.sample_at(&sample_points, Interval::HOUR),
            uncompacted.sample_at(&sample_points, Interval::HOUR)
        );
    }

    /// Export → rebuild must be invisible to every read path and to
    /// further writes (the durable-snapshot contract).
    #[test]
    fn state_round_trip_is_exact() {
        let mut h = ArrivalHistory::new();
        for t in 0..3000 {
            h.record(t, (t as u64 % 5) + 1);
        }
        h.compact(&CompactionPolicy { raw_retention: 500, compacted_interval: Interval::HOUR });
        let mut rebuilt = ArrivalHistory::from_state(h.export_state());
        assert_eq!(rebuilt.total(), h.total());
        assert_eq!(rebuilt.stored_entries(), h.stored_entries());
        assert_eq!(rebuilt.first_seen(), h.first_seen());
        assert_eq!(
            rebuilt.dense_series(0, 3000, Interval::MINUTE),
            h.dense_series(0, 3000, Interval::MINUTE)
        );
        assert_eq!(rebuilt.export_state(), h.export_state());
        // Writes and compactions continue identically after the rebuild.
        h.record(3100, 9);
        rebuilt.record(3100, 9);
        let policy = CompactionPolicy { raw_retention: 400, compacted_interval: Interval::HOUR };
        h.compact(&policy);
        rebuilt.compact(&policy);
        assert_eq!(rebuilt.export_state(), h.export_state());
        // An empty history round-trips too.
        let empty = ArrivalHistory::from_state(ArrivalHistory::new().export_state());
        assert_eq!(empty.total(), 0);
        assert_eq!(empty.last_seen(), None);
    }

    /// `from_state` must not trust its input's order: shuffled pairs are
    /// sorted, and pairs repeating a minute fold into one by summing, so
    /// range counts keep agreeing with `total`.
    #[test]
    fn from_state_sorts_and_folds_duplicates() {
        let mut h = ArrivalHistory::new();
        for (t, c) in [(5, 2), (9, 1), (200, 4), (260, 3), (400, 8)] {
            h.record(t, c);
        }
        h.compact(&CompactionPolicy { raw_retention: 150, compacted_interval: Interval::HOUR });
        let clean = h.export_state();
        assert_eq!((clean.raw.len(), clean.compacted.len()), (2, 2));

        // Reverse both tiers and split one pair of each into two.
        let mut messy = clean.clone();
        messy.raw = vec![(400, 5), (260, 3), (400, 3)];
        messy.compacted = vec![(180, 1), (0, 3), (180, 3)];
        let rebuilt = ArrivalHistory::from_state(messy);
        assert_eq!(rebuilt.export_state(), clean);
        assert_eq!(rebuilt.count_range(Minute::MIN, Minute::MAX), rebuilt.total());
        assert_eq!(rebuilt.first_seen(), Some(0));
        assert_eq!(rebuilt.last_seen(), Some(400));
        assert_eq!(rebuilt.sample_at(&[190, 410], Interval::HOUR), vec![4.0, 8.0]);
    }

    /// Hour-aligned reads recomputed from one-minute-step reads, which the
    /// hourly roll-up cannot serve.
    fn hours_from_minutes(h: &ArrivalHistory, start: Minute, end: Minute) -> Vec<f64> {
        h.dense_series(start, end, Interval::MINUTE).chunks(60).map(|c| c.iter().sum()).collect()
    }

    /// The roll-up follows `raw` through everything that changes it: a late
    /// record into a closed hour, a compaction whose cutoff falls inside an
    /// hour, a rebuild from exported state — and is no part of that state.
    #[test]
    fn hourly_rollup_tracks_raw_through_late_records_compaction_and_rebuild() {
        let mut h = ArrivalHistory::new();
        for t in (-90..400).step_by(7) {
            h.record(t, 2);
        }
        h.record(-75, 5); // late, two closed hours back, at a negative minute
        h.record(61, 1); // late, at a minute not stored yet
        let check = |h: &ArrivalHistory| {
            assert_eq!(h.dense_series(-120, 420, Interval::HOUR), hours_from_minutes(h, -120, 420));
            assert_eq!(h.count_range(-60, 360), h.count_range(-60, 359) + h.count_range(359, 360));
            let starts: Vec<Minute> = (-180..480).step_by(60).collect();
            assert_eq!(h.bucket_counts(&starts, Interval::HOUR), h.dense_series(-180, 480, Interval::HOUR));
        };
        check(&h);
        // Newest record is minute 393: the cutoff, 158, is 38 minutes into
        // the hour starting at 120.
        h.compact(&CompactionPolicy { raw_retention: 235, compacted_interval: Interval::HOUR });
        assert_eq!(h.export_state().raw.first().map(|e| e.0), Some(162));
        check(&h);
        let rebuilt = ArrivalHistory::from_state(h.export_state());
        check(&rebuilt);
        assert_eq!(rebuilt.dense_series(-120, 420, Interval::HOUR), h.dense_series(-120, 420, Interval::HOUR));
        assert_eq!(rebuilt.export_state(), h.export_state());
        assert_eq!(h.stored_entries(), h.export_state().raw.len() + h.export_state().compacted.len());
    }

    /// `bucket_counts` answers buckets that end at or before the first
    /// stored minute, or start after the last, without reading a tier: the
    /// buckets that touch those minutes by one must still count them.
    #[test]
    fn bucket_counts_outside_the_stored_span_are_zero_and_the_edges_are_not() {
        let mut h = ArrivalHistory::new();
        h.record(119, 4);
        h.record(300, 9);
        assert_eq!(
            h.bucket_counts(&[0, 60, 120, 240, 300, 360], Interval::HOUR),
            vec![0.0, 4.0, 0.0, 0.0, 9.0, 0.0]
        );
        assert_eq!(
            h.bucket_counts(&[59, 60, 119, 120, 299, 300, 301], Interval::minutes(60)),
            vec![0.0, 4.0, 4.0, 0.0, 9.0, 9.0, 0.0]
        );
        assert_eq!(ArrivalHistory::new().bucket_counts(&[0, 60], Interval::HOUR), vec![0.0, 0.0]);
    }

    /// The exactness contract of the hourly read path, at its bound: below
    /// 2⁵³ per bucket, adding an hour's integer sum once is bit-equal to
    /// adding its minutes one by one; past it the minute-by-minute `f64`
    /// sum is the one that loses arrivals.
    #[test]
    fn hour_aligned_dense_series_is_bit_equal_to_minute_sums_below_two_pow_53() {
        const BOUND: u64 = 1 << 53;
        let mut under = ArrivalHistory::new();
        under.record(3, BOUND - 2);
        under.record(40, 1);
        let hourly = under.dense_series(0, 60, Interval::HOUR);
        assert_eq!(hourly, vec![(BOUND - 1) as f64]);
        assert_eq!(hourly[0].to_bits(), hours_from_minutes(&under, 0, 60)[0].to_bits());

        let mut over = ArrivalHistory::new();
        over.record(3, BOUND);
        over.record(40, 1);
        over.record(41, 1);
        // 2⁵³ + 1 is not an f64: each single arrival is rounded away.
        assert_eq!(hours_from_minutes(&over, 0, 60), vec![BOUND as f64]);
        assert_eq!(over.dense_series(0, 60, Interval::HOUR), vec![(BOUND + 2) as f64]);
        assert_eq!(over.count_range(0, 60), BOUND + 2);
    }

    /// A second compaction with an *older* newest-record does not resurrect
    /// or double-count anything (records keep arriving between compactions).
    #[test]
    fn compaction_roundtrip_with_interleaved_records() {
        let mut h = ArrivalHistory::new();
        for t in 0..2000 {
            h.record(t, 1);
        }
        let policy = CompactionPolicy { raw_retention: 500, compacted_interval: Interval::HOUR };
        h.compact(&policy);
        for t in 2000..4000 {
            h.record(t, 1);
        }
        h.compact(&policy);
        assert_eq!(h.total(), 4000);
        assert_eq!(h.count_range(0, 4000), 4000);
        let hourly = h.dense_series(0, 4020, Interval::HOUR);
        assert_eq!(hourly.iter().sum::<f64>(), 4000.0);
        assert!(hourly.iter().all(|&v| v <= 60.0), "no bucket can exceed one arrival/minute");
    }
}
