//! Per-template arrival-rate history: per-hour sums of everything, and
//! per-minute counts only as far back as a reader looks.

use crate::{Interval, Minute, MINUTES_PER_HOUR};

/// The exported durable state of one [`ArrivalHistory`], produced by
/// [`ArrivalHistory::export_state`] and consumed by
/// [`ArrivalHistory::from_state`]. All plain data: the durability layer
/// owns the byte encoding.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ArrivalHistoryState {
    /// The sorted per-minute `(minute, count)` pairs the history keeps: its
    /// first arrival and every arrival since its last compaction's cutoff.
    pub raw: Vec<(Minute, u64)>,
    /// Sorted per-hour `(hour start, count)` sums of the arrivals `raw` no
    /// longer holds (§4: stale records "aggregated into larger intervals
    /// to save storage space"). Hours with nothing compacted have no pair.
    pub compacted: Vec<(Minute, u64)>,
    /// Width of `compacted`'s buckets in minutes: `Some(60)` when it holds
    /// a pair. A state written while compaction took a bucket width may
    /// name another; each of its pairs counts in the hour that holds it.
    pub compacted_width_minutes: Option<i64>,
    /// Total arrivals ever recorded.
    pub total: u64,
}

/// One run: `(minute, count)` pairs sorted by minute, each minute at most
/// once.
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

/// Total count of the pairs of `run` whose minute lies in `[start, end)`.
fn range_sum(run: &[(Minute, u64)], start: Minute, end: Minute) -> u64 {
    let tail = &run[run.partition_point(|e| e.0 < start)..];
    tail[..tail.partition_point(|e| e.0 < end)].iter().map(|e| e.1).sum()
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

fn hour_of(t: Minute) -> Minute {
    Interval::HOUR.bucket_start(t)
}

fn whole_hours(m: Minute) -> bool {
    m % MINUTES_PER_HOUR == 0
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
/// Two runs of `(minute, count)` pairs, sorted by minute with no minute
/// repeated, each with a fixed role:
///
/// * `hours` — per-hour sums of every arrival ever recorded. A read whose
///   every boundary is a whole hour (the hourly round's features, volumes,
///   training series and prediction windows) walks only this run, one pair
///   per hour, and is exact over the whole history.
/// * `minutes` — per-minute counts: the first arrival's pair, which never
///   leaves, and every arrival since the cutoff of the last
///   [`ArrivalHistory::compact`]. A read with any boundary inside an
///   hour is exact wherever those minutes reach. Older hours answer it at
///   hour grain: what an hour holds beyond its kept minutes counts at the
///   hour's start (at the first arrival, in the first arrival's hour).
///
/// Counts are sparse: a minute or hour with no arrivals occupies no space.
/// See [`ArrivalHistory::add_dense_series`] for the one bound under which
/// the `f64` reads of both runs are bit-equal.
#[derive(Debug, Clone, Default)]
pub struct ArrivalHistory {
    /// `hours[h]` = Σ of every arrival recorded in `[h, h + 60)`.
    hours: Run,
    /// The first arrival, then every arrival at or after the compaction cutoff.
    /// Empty exactly when `hours` is, and `minutes[0]` lies in `hours[0]`'s
    /// hour.
    minutes: Run,
    /// Total arrivals ever recorded.
    total: u64,
}

impl ArrivalHistory {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `count` arrivals at minute `t`.
    ///
    /// Minutes may arrive in any order. A `t` at or after the newest record
    /// is O(1); a late one costs a binary search plus, for a minute not yet
    /// stored, shifting the pairs after it.
    pub fn record(&mut self, t: Minute, count: u64) {
        if count == 0 {
            return;
        }
        add_to_run(&mut self.minutes, t, count);
        add_to_run(&mut self.hours, hour_of(t), count);
        self.total += count;
    }

    /// Compacts the per-minute pairs before the hour that holds the minute
    /// `lookback` minutes before the newest arrival into the per-hour sums,
    /// except the first arrival's pair. The sums already hold their counts,
    /// so every whole-hour read is unchanged, and a read at minute grain
    /// stays exact from that hour on. Cheap when nothing is due (one
    /// comparison), so it can follow every [`ArrivalHistory::record`]:
    /// pairs leave once per hour the newest arrival crosses.
    pub fn compact(&mut self, lookback: Minute) {
        let Some(&(newest, _)) = self.minutes.last() else { return };
        let cutoff = hour_of(newest.saturating_sub(lookback));
        if self.minutes.get(1).is_some_and(|e| e.0 < cutoff) {
            let stale = 1 + self.minutes[1..].partition_point(|e| e.0 < cutoff);
            self.minutes.drain(1..stale);
        }
    }

    /// Total arrivals ever recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Minute of the most recent arrival (never compacted).
    pub fn last_seen(&self) -> Option<Minute> {
        self.minutes.last().map(|e| e.0).max(self.hours.last().map(|e| e.0))
    }

    /// Minute of the earliest arrival (never compacted).
    pub fn first_seen(&self) -> Option<Minute> {
        self.minutes.first().map(|e| e.0)
    }

    /// Number of pairs stored across both runs (the storage footprint
    /// measured in Table 4).
    pub fn stored_entries(&self) -> usize {
        self.hours.len() + self.minutes.len()
    }

    /// Total arrivals in `[a, b)`, a range inside one hour `h`: the kept
    /// minutes there, plus what the hour holds beyond them if it counts at
    /// a minute in the range (see [`ArrivalHistory`]).
    fn within_hour(&self, h: Minute, a: Minute, b: Minute) -> u64 {
        if a >= b {
            return 0;
        }
        let kept = range_sum(&self.minutes, a, b);
        let at = self.minutes.first().map_or(h, |first| first.0.max(h));
        if (a..b).contains(&at) {
            let hour = range_sum(&self.hours, h, h + 1);
            kept + hour - range_sum(&self.minutes, h, h + MINUTES_PER_HOUR)
        } else {
            kept
        }
    }

    /// Total arrivals in the half-open range `[start, end)`: whole hours
    /// from the per-hour sums, and the partial hours at either end from the
    /// kept minutes.
    pub fn count_range(&self, start: Minute, end: Minute) -> u64 {
        // Nothing counts outside the hours from the first arrival's to the
        // last's: clamping to them changes no answer, keeps whole-hour
        // bounds whole and keeps the hour arithmetic in range.
        let (Some(&(lo, _)), Some(hi)) = (self.hours.first(), self.last_seen()) else {
            return 0;
        };
        let after_last = hour_of(hi).saturating_add(MINUTES_PER_HOUR);
        let (start, end) = (start.max(lo), end.min(after_last));
        if end <= start {
            return 0;
        }
        let (first_hour, last_hour) = (hour_of(start), hour_of(end));
        if first_hour == last_hour {
            return self.within_hour(first_hour, start, end);
        }
        let inner = if whole_hours(start) { start } else { first_hour + MINUTES_PER_HOUR };
        self.within_hour(first_hour, start, inner)
            + range_sum(&self.hours, inner, last_hour)
            + self.within_hour(last_hour, last_hour, end)
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
    /// is added once, as `(Σ c) as f64`; otherwise each bucket's
    /// [`ArrivalHistory::count_range`] is added once. Adding integer-valued
    /// `f64`s is exact below 2⁵³, so either is bit-equal to adding minute
    /// by minute as long as every bucket of `out` stays under 2⁵³ (and held
    /// an integer to begin with); past that bound the orders may round
    /// differently.
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
        if whole_hours(start) && whole_hours(end) && whole_hours(step) {
            let tail = &self.hours[self.hours.partition_point(|e| e.0 < start)..];
            for &(t, c) in &tail[..tail.partition_point(|e| e.0 < end)] {
                out[((t - start) / step) as usize] += c as f64;
            }
            return;
        }
        let n = interval.buckets_between(start, end);
        for (i, slot) in out[..n].iter_mut().enumerate() {
            let from = start + i as i64 * step;
            let c = self.count_range(from, (from + step).min(end));
            if c > 0 {
                *slot += c as f64;
            }
        }
    }

    /// Exports the full record for durable serialization: the kept minutes
    /// as they are, and per hour what its kept minutes do not hold, so
    /// identical histories export to identical state — the basis of
    /// byte-stable snapshots.
    pub fn export_state(&self) -> ArrivalHistoryState {
        let mut minutes = RunCursor::new(&self.minutes);
        let compacted = self
            .hours
            .iter()
            .map(|&(h, c)| (h, c - minutes.sum(h, h + MINUTES_PER_HOUR)))
            .filter(|e| e.1 > 0)
            .collect::<Run>();
        ArrivalHistoryState {
            raw: self.minutes.clone(),
            compacted_width_minutes: (!compacted.is_empty()).then_some(MINUTES_PER_HOUR),
            compacted,
            total: self.total,
        }
    }

    /// Rebuilds a history from exported state. Inverse of
    /// [`ArrivalHistory::export_state`]: the rebuilt record answers every
    /// read identically and continues recording and compacting from the same
    /// point.
    ///
    /// The pairs are not trusted to be in the exported order: each run is
    /// sorted by minute, and pairs repeating a minute are folded into one
    /// by summing their counts, so `count_range` over everything still
    /// equals `total` for a state that counted them separately. A
    /// `compacted` pair counts in the hour that holds its minute. A state
    /// whose first hour is wholly in `compacted` (written before the first
    /// arrival's pair was kept) takes that hour's start as its first
    /// arrival.
    pub fn from_state(state: ArrivalHistoryState) -> Self {
        let mut minutes = normalized(state.raw);
        let hours = normalized(
            state.compacted.iter().chain(&minutes).map(|&(t, c)| (hour_of(t), c)).collect(),
        );
        if let Some(&(h, c)) = hours.first() {
            if minutes.first().is_none_or(|m| hour_of(m.0) != h) {
                minutes.insert(0, (h, c));
            }
        }
        Self { hours, minutes, total: state.total }
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
    /// When every start and the width are whole hours, and `starts` is
    /// ascending and at least `interval` apart (repeats allowed — a start
    /// equal to its predecessor copies that value), the per-hour run is
    /// walked once; any other order gives the same answers at the cost of
    /// a binary search per start that steps backwards or overlaps its
    /// predecessor, and other starts read [`ArrivalHistory::count_range`].
    /// A bucket that ends at or before the first arrival, or starts after
    /// the last, is zero without a look at either run.
    pub fn bucket_counts(&self, starts: &[Minute], interval: Interval) -> Vec<f64> {
        let width = interval.as_minutes();
        let hourly = whole_hours(width) && starts.iter().all(|&b| whole_hours(b));
        let mut hours = RunCursor::new(&self.hours);
        // An empty history stores nothing anywhere: every bucket is "before".
        let first = self.first_seen().unwrap_or(Minute::MAX);
        let last = self.last_seen().unwrap_or(Minute::MIN);
        let mut out: Vec<f64> = Vec::with_capacity(starts.len());
        for (i, &b) in starts.iter().enumerate() {
            let value = if i > 0 && starts[i - 1] == b {
                out[i - 1]
            } else if b + width <= first || b > last {
                0.0
            } else if hourly {
                hours.sum(b, b + width) as f64
            } else {
                self.count_range(b, b + width) as f64
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

    /// Compaction keeps the first arrival's pair and every minute from the
    /// cutoff hour on, shrinks storage, and leaves totals and every
    /// whole-hour read as they were.
    #[test]
    fn compaction_preserves_totals_and_hourly_series() {
        let mut h = ArrivalHistory::new();
        // Two days of arrivals, one per minute, from minute 7.
        let span = 2 * crate::MINUTES_PER_DAY;
        for t in 7..span {
            h.record(t, 1);
        }
        let uncompacted = h.clone();
        let entries_before = h.stored_entries();
        h.compact(90);
        assert!(h.stored_entries() < entries_before / 10, "compaction should shrink storage");
        assert_eq!(h.total(), uncompacted.total());
        assert_eq!((h.first_seen(), h.last_seen()), (Some(7), Some(span - 1)));
        for interval in [Interval::HOUR, Interval::TWO_HOURS, Interval::DAY] {
            let want = uncompacted.dense_series(0, span, interval);
            assert_eq!(h.dense_series(0, span, interval), want);
        }
        // The newest arrival is minute 2 879; its lookback of 90 minutes
        // reaches into the hour at 2 760, so minutes from there are exact.
        assert_eq!(h.export_state().raw[..2], [(7, 1), (2_760, 1)]);
        assert_eq!(h.dense_series(2_760, span, Interval::MINUTE), vec![1.0; 120]);
        assert_eq!(h.count_range(2_700, 2_761), 61, "hour 2 700 counts at its start");
        assert_eq!(h.count_range(2_701, 2_761), 1);
        // The first arrival's hour counts its compacted minutes at the first.
        assert_eq!(h.count_range(0, 7), 0);
        assert_eq!(h.count_range(7, 8), 53);
        assert_eq!(h.count_range(Minute::MIN, Minute::MAX), h.total());
    }

    #[test]
    fn compaction_is_idempotent() {
        let mut h = ArrivalHistory::new();
        for t in 0..3000 {
            h.record(t, 2);
        }
        h.compact(100);
        let state = h.export_state();
        let series = h.dense_series(0, 3000, Interval::HOUR);
        h.compact(100);
        assert_eq!(h.export_state(), state);
        assert_eq!(h.dense_series(0, 3000, Interval::HOUR), series);
        // A longer lookback cannot bring compacted minutes back.
        h.compact(1_000);
        assert_eq!(h.export_state(), state);
    }

    /// Records keep arriving between compactions: a late record before the
    /// cutoff lands in its hour and leaves the minutes at the next
    /// compaction; one before the first arrival becomes the first.
    #[test]
    fn compaction_roundtrip_with_interleaved_records() {
        let mut h = ArrivalHistory::new();
        for t in (100..1_000).step_by(10) {
            h.record(t, 2);
            h.compact(60);
        }
        h.record(305, 4);
        h.compact(60);
        assert_eq!(h.count_range(300, 360), 16);
        assert!(!h.export_state().raw.iter().any(|e| e.0 == 305));
        h.record(42, 1);
        h.compact(60);
        assert_eq!(h.first_seen(), Some(42));
        assert_eq!(h.export_state().raw[0], (42, 1));
        assert_eq!(h.count_range(42, 43), 1);
        assert_eq!(h.count_range(60, 61), 2 * 2, "the old first's hour counts at its start");
        assert_eq!(h.total(), 90 * 2 + 4 + 1);
        assert_eq!(h.count_range(0, 1_020), h.total());
        let hourly = h.dense_series(0, 1_020, Interval::HOUR);
        assert_eq!(hourly.iter().sum::<f64>(), h.total() as f64);
    }

    /// A compacted history answers `count_range`, `dense_series` and
    /// `sample_at` on whole hours (the Clusterer's feature reads) exactly as
    /// the uncompacted one did, and keeps its exact first arrival.
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
        h.compact(crate::MINUTES_PER_DAY / 2);

        assert_eq!(h.total(), uncompacted.total());
        assert_eq!(h.first_seen(), uncompacted.first_seen());
        assert_eq!(h.last_seen(), uncompacted.last_seen());
        for start_h in (0..span).step_by(60 * 7) {
            let start = Interval::HOUR.bucket_start(start_h);
            assert_eq!(h.count_range(start, span), uncompacted.count_range(start, span));
        }
        for interval in [Interval::HOUR, Interval::DAY] {
            let want = uncompacted.dense_series(0, span, interval);
            assert_eq!(h.dense_series(0, span, interval), want);
        }
        let sample_points: Vec<Minute> = (0..span).step_by(97).collect();
        assert_eq!(
            h.sample_at(&sample_points, Interval::HOUR),
            uncompacted.sample_at(&sample_points, Interval::HOUR)
        );
        // Inside the lookback, minute-grain reads are exact too.
        let recent = span - crate::MINUTES_PER_DAY / 2;
        assert_eq!(
            h.dense_series(recent, span, Interval::minutes(7)),
            uncompacted.dense_series(recent, span, Interval::minutes(7))
        );
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
        assert_eq!(h.dense_series(0, 20, Interval::TEN_MINUTES), vec![0.0, 0.0]);
    }

    /// Export → rebuild must be invisible to every read path and to
    /// further writes and compactions (the durable-snapshot contract).
    #[test]
    fn state_round_trip_is_exact() {
        let mut h = ArrivalHistory::new();
        for t in 0..3000 {
            h.record(t, (t as u64 % 5) + 1);
        }
        h.compact(500);
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
        h.compact(400);
        rebuilt.compact(400);
        assert_eq!(rebuilt.export_state(), h.export_state());
        // An empty history round-trips too.
        let empty = ArrivalHistory::from_state(ArrivalHistory::new().export_state());
        assert_eq!(empty.total(), 0);
        assert_eq!(empty.last_seen(), None);
    }

    /// `from_state` must not trust its input's order: shuffled pairs are
    /// sorted, and pairs repeating a minute fold into one by summing, so
    /// range counts keep agreeing with `total`. A state whose first hour
    /// lies wholly in `compacted` starts at that hour.
    #[test]
    fn from_state_sorts_and_folds_duplicates() {
        let messy = ArrivalHistoryState {
            raw: vec![(400, 5), (260, 3), (400, 3)],
            compacted: vec![(180, 1), (0, 3), (180, 3)],
            compacted_width_minutes: Some(1_440),
            total: 18,
        };
        let rebuilt = ArrivalHistory::from_state(messy);
        assert_eq!(
            rebuilt.export_state(),
            ArrivalHistoryState {
                raw: vec![(0, 3), (260, 3), (400, 8)],
                compacted: vec![(180, 4)],
                compacted_width_minutes: Some(60),
                total: 18,
            }
        );
        assert_eq!(rebuilt.count_range(Minute::MIN, Minute::MAX), rebuilt.total());
        assert_eq!(rebuilt.first_seen(), Some(0));
        assert_eq!(rebuilt.last_seen(), Some(400));
        assert_eq!(rebuilt.sample_at(&[190, 410], Interval::HOUR), vec![4.0, 8.0]);
    }

    /// `bucket_counts` answers buckets that end at or before the first
    /// stored minute, or start after the last, without reading a run: the
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

    /// Hour-aligned reads recomputed from one-minute-step reads.
    fn hours_from_minutes(h: &ArrivalHistory, start: Minute, end: Minute) -> Vec<f64> {
        h.dense_series(start, end, Interval::MINUTE).chunks(60).map(|c| c.iter().sum()).collect()
    }

    /// The per-hour run follows every record through everything that
    /// changes the minutes: a late record into a closed hour, a compaction
    /// whose lookback ends inside an hour, a rebuild from exported state.
    /// A minute-grain read, summed per hour, is the hour read everywhere.
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
            let hourly = h.dense_series(-180, 480, Interval::HOUR);
            assert_eq!(h.bucket_counts(&starts, Interval::HOUR), hourly);
        };
        check(&h);
        let hourly = h.dense_series(-120, 420, Interval::HOUR);
        // Newest record is minute 393: 235 minutes back is minute 158, in
        // the hour starting at 120.
        h.compact(235);
        assert_eq!(h.export_state().raw[..2], [(-90, 2), (120, 2)]);
        assert_eq!(h.dense_series(-120, 420, Interval::HOUR), hourly);
        check(&h);
        let rebuilt = ArrivalHistory::from_state(h.export_state());
        check(&rebuilt);
        assert_eq!(rebuilt.export_state(), h.export_state());
        assert_eq!(h.stored_entries(), 9 + h.export_state().raw.len());
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
}
