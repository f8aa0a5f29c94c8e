//! Round-clocked metrics retention.
//!
//! A [`MetricsHistory`] is a fixed-capacity ring of per-round
//! [`MetricsDelta`]s: each controller round contributes the *change* since
//! the previous round (counter and histogram increments, gauge levels),
//! keyed by the round number of the pipeline's `(round, seq)` logical
//! clock. Because rounds — not wall time — clock the ring, retention is
//! deterministic: two runs that execute the same rounds retain the same
//! deltas regardless of worker-pool width or how long each round took.
//!
//! Windowed queries ([`MetricsHistory::counter_increase`],
//! [`MetricsHistory::gauge_mean`], [`MetricsHistory::histogram_window`],
//! …) fold the newest `window` deltas, which is all an alert rule ever
//! needs: rates are increments over rounds, levels are gauge series, and
//! latency quantiles come from the merged bucket counts of the window.

use std::collections::VecDeque;

use qb_obs::{HistogramSnapshot, MetricsDelta, MetricsSnapshot};

/// One retained round: the logical round number and what changed in it.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundDelta {
    /// Round number on the pipeline's logical clock.
    pub round: u64,
    /// Change since the previous observed round.
    pub delta: MetricsDelta,
}

/// A fixed-capacity ring of per-round metric deltas with windowed queries.
#[derive(Debug, Clone, Default)]
pub struct MetricsHistory {
    capacity: usize,
    ring: VecDeque<RoundDelta>,
    /// The last full snapshot observed — the diff base for the next round
    /// and the level source for "current value" queries.
    latest: Option<MetricsSnapshot>,
}

impl MetricsHistory {
    /// A history retaining the most recent `capacity` rounds (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self { capacity, ring: VecDeque::with_capacity(capacity), latest: None }
    }

    /// Observes one round's full snapshot: records the delta against the
    /// previously observed snapshot (the first observation diffs against
    /// empty, so lifetime totals land in round one's delta) and evicts
    /// the oldest round beyond capacity.
    pub fn observe(&mut self, round: u64, snapshot: &MetricsSnapshot) {
        let delta = match &self.latest {
            Some(prev) => snapshot.diff(prev),
            None => snapshot.diff(&MetricsSnapshot::default()),
        };
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(RoundDelta { round, delta });
        self.latest = Some(snapshot.clone());
    }

    /// Rounds currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True before the first observation.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The ring capacity in rounds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The most recently observed round number.
    pub fn latest_round(&self) -> Option<u64> {
        self.ring.back().map(|r| r.round)
    }

    /// The most recently observed full snapshot.
    pub fn latest_snapshot(&self) -> Option<&MetricsSnapshot> {
        self.latest.as_ref()
    }

    /// The retained deltas, oldest first.
    pub fn rounds(&self) -> impl Iterator<Item = &RoundDelta> {
        self.ring.iter()
    }

    /// The newest `window` deltas, newest first.
    fn window(&self, window: usize) -> impl Iterator<Item = &RoundDelta> {
        self.ring.iter().rev().take(window.max(1))
    }

    /// Total increments of `counter` across the newest `window` rounds
    /// (0 when the counter never appeared).
    pub fn counter_increase(&self, counter: &str, window: usize) -> u64 {
        self.window(window).map(|r| r.delta.counters.get(counter).copied().unwrap_or(0)).sum()
    }

    /// Mean increments of `counter` per retained round over the newest
    /// `window` rounds (`None` before the first observation).
    pub fn counter_rate(&self, counter: &str, window: usize) -> Option<f64> {
        let rounds = self.window(window).count();
        if rounds == 0 {
            return None;
        }
        Some(self.counter_increase(counter, window) as f64 / rounds as f64)
    }

    /// Gauge levels across the newest `window` rounds, oldest first.
    /// Rounds where the gauge was not registered are skipped.
    fn gauge_series(&self, gauge: &str, window: usize) -> Vec<f64> {
        let mut series: Vec<f64> =
            self.window(window).filter_map(|r| r.delta.gauges.get(gauge).copied()).collect();
        series.reverse();
        series
    }

    /// Mean gauge level over the newest `window` rounds (`None` when the
    /// gauge never appeared in the window).
    pub fn gauge_mean(&self, gauge: &str, window: usize) -> Option<f64> {
        let series = self.gauge_series(gauge, window);
        if series.is_empty() {
            return None;
        }
        Some(series.iter().sum::<f64>() / series.len() as f64)
    }

    /// Absolute change of the gauge between the oldest and newest levels
    /// inside the window (`None` with fewer than two observations).
    pub fn gauge_change(&self, gauge: &str, window: usize) -> Option<f64> {
        let series = self.gauge_series(gauge, window);
        match (series.first(), series.last()) {
            (Some(first), Some(last)) if series.len() >= 2 => Some(last - first),
            _ => None,
        }
    }

    /// The merged histogram increments across the newest `window` rounds:
    /// per-bucket counts, sums, and event counts added element-wise.
    /// `None` when the histogram never appeared in the window. Rounds
    /// where a bound shape differs (impossible for live registries) are
    /// skipped.
    pub fn histogram_window(&self, histogram: &str, window: usize) -> Option<HistogramSnapshot> {
        let mut merged: Option<HistogramSnapshot> = None;
        for r in self.window(window) {
            let Some(h) = r.delta.histograms.get(histogram) else { continue };
            match &mut merged {
                None => merged = Some(h.clone()),
                Some(m) => {
                    if m.bounds_nanos != h.bounds_nanos || m.buckets.len() != h.buckets.len() {
                        continue;
                    }
                    for (a, b) in m.buckets.iter_mut().zip(&h.buckets) {
                        *a += b;
                    }
                    m.sum_nanos += h.sum_nanos;
                    m.count += h.count;
                }
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qb_obs::Recorder;
    use std::time::Duration;

    #[test]
    fn retention_is_bounded_and_round_keyed() {
        let rec = Recorder::new();
        let c = rec.counter("n");
        let mut h = MetricsHistory::new(3);
        for round in 1..=5 {
            c.add(round);
            h.observe(round, &rec.snapshot());
        }
        assert_eq!(h.len(), 3);
        assert_eq!(h.latest_round(), Some(5));
        let retained: Vec<u64> = h.rounds().map(|r| r.round).collect();
        assert_eq!(retained, vec![3, 4, 5]);
        // Deltas hold per-round increments, not totals.
        let incs: Vec<u64> = h.rounds().map(|r| r.delta.counters["n"]).collect();
        assert_eq!(incs, vec![3, 4, 5]);
    }

    #[test]
    fn windowed_counter_and_gauge_queries() {
        let rec = Recorder::new();
        let c = rec.counter("hits");
        let g = rec.gauge("level");
        let mut h = MetricsHistory::new(8);
        for round in 1..=4 {
            c.add(10);
            g.set(round as f64);
            h.observe(round, &rec.snapshot());
        }
        assert_eq!(h.counter_increase("hits", 2), 20);
        assert_eq!(h.counter_increase("hits", 100), 40);
        assert_eq!(h.counter_rate("hits", 4), Some(10.0));
        assert_eq!(h.gauge_mean("level", 2), Some(3.5));
        assert_eq!(h.gauge_change("level", 3), Some(2.0));
        assert_eq!(h.gauge_mean("missing", 4), None);
        assert_eq!(h.counter_increase("missing", 4), 0);
    }

    #[test]
    fn histogram_window_merges_bucket_increments() {
        let rec = Recorder::new();
        let hist = rec.histogram_with_bounds("t", &[1_000, 1_000_000]);
        let mut h = MetricsHistory::new(4);
        hist.record(Duration::from_nanos(10));
        h.observe(1, &rec.snapshot());
        hist.record(Duration::from_micros(5));
        hist.record(Duration::from_micros(7));
        h.observe(2, &rec.snapshot());
        let merged = h.histogram_window("t", 2).expect("histogram present");
        assert_eq!(merged.count, 3);
        assert_eq!(merged.buckets, vec![1, 2, 0]);
        // A one-round window sees only that round's increments.
        assert_eq!(h.histogram_window("t", 1).unwrap().count, 2);
    }
}
