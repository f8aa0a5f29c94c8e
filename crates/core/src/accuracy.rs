//! Rolling forecast-accuracy tracking (the paper's Figure 7 view).
//!
//! Every prediction the pipeline serves is also a *claim* that can be
//! scored once real arrivals for the predicted bucket land. The
//! [`AccuracyTracker`] holds each claim as pending, and when the predicted
//! bucket has fully elapsed it settles the claim against the actual
//! aggregated cluster series, pushing the squared log-space error — the
//! same `ln(1+x)` metric the §7 experiments use — into per-horizon and
//! per-cluster rolling windows.
//!
//! The rolling MSE feeds two sinks: gauges on the pipeline's
//! [`Recorder`] (`forecast.mse.h<i>`, plus per-cluster variants when
//! enabled) and the [`HorizonAccuracy`] rows of the health report that
//! [`DurablePipeline::health`](crate::DurablePipeline::health) returns
//! with a manager attached.

use std::collections::BTreeMap;

use qb_obs::{Recorder, RollingMean};
use qb_timeseries::{Interval, Minute};

use crate::pipeline::{ClusterInfo, ClusterInfoState, QueryBot5000};

/// Default rolling window: how many settled observations each (horizon,
/// cluster) mean averages over.
pub const DEFAULT_ACCURACY_WINDOW: usize = 64;

/// One horizon's rolling accuracy, as reported through
/// [`crate::PipelineHealth`].
#[derive(Debug, Clone, PartialEq)]
pub struct HorizonAccuracy {
    /// Index into the configured horizon list.
    pub horizon_idx: usize,
    /// Rolling mean of squared log-space errors; `None` until the first
    /// prediction for this horizon has matured and settled.
    pub rolling_mse: Option<f64>,
    /// Settled observations currently inside the rolling window.
    pub samples: usize,
}

/// A prediction waiting for its target bucket to elapse.
#[derive(Debug, Clone)]
struct Pending {
    horizon_idx: usize,
    /// Predicted bucket `[due, due + interval)`.
    due: Minute,
    interval: Interval,
    cluster: ClusterInfo,
    predicted: f64,
}

/// Snapshot of one [`RollingMean`], preserving the exact float sum so the
/// restored mean continues the identical numeric stream.
#[derive(Debug, Clone, PartialEq)]
pub struct RollingMeanState {
    /// Window capacity the mean was created with.
    pub capacity: usize,
    /// Values currently inside the window, oldest first.
    pub values: Vec<f64>,
    /// The running sum, verbatim (re-summing `values` would round
    /// differently).
    pub sum: f64,
    /// Evictions since the window's last wraparound re-sum — the restored
    /// window must re-sum at the same future push as the live one.
    pub since_refresh: usize,
}

fn export_mean(m: &RollingMean) -> RollingMeanState {
    RollingMeanState {
        capacity: m.capacity(),
        values: m.values(),
        sum: m.sum(),
        since_refresh: m.since_refresh(),
    }
}

fn restore_mean(s: RollingMeanState) -> RollingMean {
    RollingMean::from_parts(s.capacity, &s.values, s.sum, s.since_refresh)
}

/// Snapshot of one pending (unsettled) prediction claim.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingClaimState {
    /// Index into the configured horizon list.
    pub horizon_idx: usize,
    /// Start of the predicted bucket.
    pub due: Minute,
    /// Bucket width in minutes.
    pub interval_minutes: i64,
    /// Cluster the claim was made against, frozen at claim time.
    pub cluster: ClusterInfoState,
    /// Claimed arrival rate.
    pub predicted: f64,
}

/// Full plain-data snapshot of an [`AccuracyTracker`] — everything needed
/// to continue scoring bit-identically after a restart.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyTrackerState {
    /// Configured horizon count.
    pub horizons: usize,
    /// Rolling-window capacity.
    pub window: usize,
    /// Unsettled claims, in recording order.
    pub pending: Vec<PendingClaimState>,
    /// Per-horizon rolling error windows.
    pub overall: Vec<RollingMeanState>,
    /// Per-(horizon, cluster-id) rolling error windows, sorted by key.
    pub per_cluster: Vec<(usize, u64, RollingMeanState)>,
    /// Lifetime settled-claim count.
    pub settled_total: u64,
}

/// Scores predictions against later-observed actuals in rolling windows.
///
/// Deterministic: settlement order is the recording order, and every
/// statistic is a pure function of the (prediction, actual) stream — no
/// clocks, no sampling.
pub struct AccuracyTracker {
    horizons: usize,
    window: usize,
    pending: Vec<Pending>,
    /// Rolling error window per horizon, across all clusters.
    overall: Vec<RollingMean>,
    /// Rolling error window per (horizon, cluster).
    per_cluster: BTreeMap<(usize, u64), RollingMean>,
    settled_total: u64,
    recorder: Recorder,
    /// `forecast.mse.h<i>` gauges, aligned with `overall`.
    mse_gauges: Vec<qb_obs::Gauge>,
    settled_metric: qb_obs::Counter,
}

impl AccuracyTracker {
    /// A tracker for `horizons` prediction horizons with a rolling window
    /// of `window` settled observations per mean.
    pub fn new(horizons: usize, window: usize) -> Self {
        let window = window.max(1);
        Self {
            horizons,
            window,
            pending: Vec::new(),
            overall: (0..horizons).map(|_| RollingMean::new(window)).collect(),
            per_cluster: BTreeMap::new(),
            settled_total: 0,
            recorder: Recorder::disabled(),
            mse_gauges: vec![qb_obs::Gauge::default(); horizons],
            settled_metric: qb_obs::Counter::default(),
        }
    }

    /// Installs a [`Recorder`]: each settle updates `forecast.mse.h<i>`
    /// (and `forecast.mse.h<i>.c<id>` per cluster) gauges plus the
    /// `forecast.settled` counter.
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.recorder = recorder.clone();
        self.mse_gauges = (0..self.horizons)
            .map(|i| recorder.gauge(&format!("forecast.mse.h{i}")))
            .collect();
        self.settled_metric = recorder.counter("forecast.settled");
    }

    /// Number of configured horizons.
    pub fn horizons(&self) -> usize {
        self.horizons
    }

    /// Registers one prediction round: `predictions[c]` claims cluster
    /// `clusters[c]` will see that arrival rate in the bucket starting
    /// `horizon_steps` intervals after the bucket containing `now`.
    ///
    /// # Panics
    /// Panics if `horizon_idx` is out of range or the slices' lengths
    /// differ.
    pub fn record(
        &mut self,
        horizon_idx: usize,
        now: Minute,
        interval: Interval,
        horizon_steps: usize,
        clusters: &[ClusterInfo],
        predictions: &[f64],
    ) {
        assert!(horizon_idx < self.horizons, "horizon_idx out of range");
        assert_eq!(clusters.len(), predictions.len(), "one prediction per cluster");
        let due = interval.bucket_start(now) + horizon_steps as i64 * interval.as_minutes();
        for (cluster, &predicted) in clusters.iter().zip(predictions) {
            self.pending.push(Pending {
                horizon_idx,
                due,
                interval,
                cluster: cluster.clone(),
                predicted,
            });
        }
    }

    /// Settles every pending prediction whose target bucket has fully
    /// elapsed by `now`, scoring it against the actual aggregated series
    /// from `bot`. Returns how many claims settled.
    pub fn settle(&mut self, bot: &QueryBot5000, now: Minute) -> usize {
        let mut settled: usize = 0;
        let mut remaining = Vec::with_capacity(self.pending.len());
        for p in std::mem::take(&mut self.pending) {
            if now < p.due + p.interval.as_minutes() {
                remaining.push(p);
                continue;
            }
            let actual = bot
                .cluster_series(&p.cluster, p.due, p.due + p.interval.as_minutes(), p.interval)
                .first()
                .copied()
                .unwrap_or(0.0);
            let err = (actual.max(0.0).ln_1p() - p.predicted.max(0.0).ln_1p()).powi(2);
            // A degenerate claim — an infinite prediction from a fit with
            // less than one full history window, say — settles without
            // scoring: pushing ±∞ would poison the rolling sums for good
            // (the eviction subtraction leaves NaN behind). NaN claims are
            // already neutralized by `max(0.0)` above.
            if !err.is_finite() {
                settled += 1;
                continue;
            }
            self.overall[p.horizon_idx].push(err);
            let window = self.window;
            self.per_cluster
                .entry((p.horizon_idx, p.cluster.id.0))
                .or_insert_with(|| RollingMean::new(window))
                .push(err);
            self.mse_gauges[p.horizon_idx]
                .set(self.overall[p.horizon_idx].mean().unwrap_or(0.0));
            if self.recorder.is_enabled() {
                let (h, c) = (p.horizon_idx, p.cluster.id.0);
                if let Some(mean) = self.per_cluster[&(h, c)].mean() {
                    self.recorder.gauge(&format!("forecast.mse.h{h}.c{c}")).set(mean);
                }
            }
            settled += 1;
        }
        self.pending = remaining;
        self.settled_total += settled as u64;
        self.settled_metric.add(settled as u64);
        settled
    }

    /// Rolling log-space MSE for one horizon across all clusters (`None`
    /// until a prediction settles).
    pub fn rolling_mse(&self, horizon_idx: usize) -> Option<f64> {
        self.overall.get(horizon_idx).and_then(RollingMean::mean)
    }

    /// Plain-data snapshot of the tracker, including unsettled claims and
    /// the exact rolling-window contents.
    pub fn export_state(&self) -> AccuracyTrackerState {
        AccuracyTrackerState {
            horizons: self.horizons,
            window: self.window,
            pending: self
                .pending
                .iter()
                .map(|p| PendingClaimState {
                    horizon_idx: p.horizon_idx,
                    due: p.due,
                    interval_minutes: p.interval.as_minutes(),
                    cluster: p.cluster.export_state(),
                    predicted: p.predicted,
                })
                .collect(),
            overall: self.overall.iter().map(export_mean).collect(),
            per_cluster: self
                .per_cluster
                .iter()
                .map(|(&(h, c), m)| (h, c, export_mean(m)))
                .collect(),
            settled_total: self.settled_total,
        }
    }

    /// Rebuilds a tracker from [`AccuracyTracker::export_state`]. The
    /// recorder starts disabled — install one afterwards with
    /// [`AccuracyTracker::set_recorder`].
    pub fn restore(state: AccuracyTrackerState) -> Self {
        let mut tracker = Self::new(state.horizons, state.window);
        tracker.pending = state
            .pending
            .into_iter()
            .map(|p| Pending {
                horizon_idx: p.horizon_idx,
                due: p.due,
                interval: Interval::minutes(p.interval_minutes),
                cluster: ClusterInfo::from_state(p.cluster),
                predicted: p.predicted,
            })
            .collect();
        tracker.overall = state.overall.into_iter().map(restore_mean).collect();
        tracker.per_cluster =
            state.per_cluster.into_iter().map(|(h, c, m)| ((h, c), restore_mean(m))).collect();
        tracker.settled_total = state.settled_total;
        tracker
    }

    /// One [`HorizonAccuracy`] row per configured horizon.
    pub(crate) fn horizon_accuracy(&self) -> Vec<HorizonAccuracy> {
        self.overall
            .iter()
            .enumerate()
            .map(|(i, m)| HorizonAccuracy {
                horizon_idx: i,
                rolling_mse: m.mean(),
                samples: m.len(),
            })
            .collect()
    }
}

impl crate::pipeline::PipelineHealth {
    /// Attaches the rolling forecast-accuracy rows, completing the health
    /// report for a pipeline whose predictions are scored by an
    /// [`AccuracyTracker`].
    pub(crate) fn with_accuracy(mut self, tracker: &AccuracyTracker) -> Self {
        self.forecast_accuracy = tracker.horizon_accuracy();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Qb5000Config;
    use qb_timeseries::MINUTES_PER_DAY;

    fn fed_bot(days: i64) -> QueryBot5000 {
        let mut bot = QueryBot5000::new(Qb5000Config::default());
        for minute in 0..days * MINUTES_PER_DAY {
            bot.ingest_weighted(minute, "SELECT a FROM t WHERE id = 1", 10).unwrap();
        }
        bot.update_clusters(days * MINUTES_PER_DAY);
        bot
    }

    /// Per-cluster rolling MSE for one horizon, sorted by cluster id.
    fn per_cluster_mse(tr: &AccuracyTracker, horizon_idx: usize) -> Vec<(u64, f64)> {
        tr.per_cluster
            .range((horizon_idx, 0)..=(horizon_idx, u64::MAX))
            .filter_map(|(&(_, c), m)| m.mean().map(|v| (c, v)))
            .collect()
    }

    #[test]
    fn perfect_prediction_scores_zero() {
        let bot = fed_bot(2);
        let clusters = bot.tracked_clusters().to_vec();
        let now = MINUTES_PER_DAY; // inside recorded history
        let mut tr = AccuracyTracker::new(1, 8);
        // Claim exactly the actual: 10/min × 60 = 600 arrivals next hour.
        tr.record(0, now, Interval::HOUR, 1, &clusters, &[600.0]);
        assert_eq!(tr.pending.len(), 1);
        // Not yet matured: the predicted bucket hasn't elapsed.
        assert_eq!(tr.settle(&bot, now + 60), 0);
        assert_eq!(tr.settle(&bot, now + 121), 1);
        assert_eq!(tr.pending.len(), 0);
        let mse = tr.rolling_mse(0).unwrap();
        assert!(mse < 1e-12, "perfect claim must score ~0, got {mse}");
        assert_eq!(tr.settled_total, 1);
    }

    #[test]
    fn wrong_prediction_scores_log_space_error() {
        let bot = fed_bot(2);
        let clusters = bot.tracked_clusters().to_vec();
        let now = MINUTES_PER_DAY;
        let mut tr = AccuracyTracker::new(1, 8);
        tr.record(0, now, Interval::HOUR, 1, &clusters, &[0.0]);
        tr.settle(&bot, now + 121);
        let want = 601f64.ln().powi(2); // (ln(1+600) - ln(1+0))²
        let got = tr.rolling_mse(0).unwrap();
        assert!((got - want).abs() < 1e-9, "got {got}, want {want}");
        let per = per_cluster_mse(&tr, 0);
        assert_eq!(per.len(), 1);
        assert!((per[0].1 - want).abs() < 1e-9);
    }

    #[test]
    fn horizons_tracked_independently_and_health_rows_align() {
        let bot = fed_bot(2);
        let clusters = bot.tracked_clusters().to_vec();
        let now = MINUTES_PER_DAY;
        let mut tr = AccuracyTracker::new(2, 8);
        tr.record(0, now, Interval::HOUR, 1, &clusters, &[600.0]);
        tr.record(1, now, Interval::HOUR, 12, &clusters, &[0.0]);
        // Only the 1 h claim matures this early.
        tr.settle(&bot, now + 121);
        assert!(tr.rolling_mse(0).is_some());
        assert!(tr.rolling_mse(1).is_none());
        let rows = bot.health().with_accuracy(&tr).forecast_accuracy;
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], HorizonAccuracy { horizon_idx: 0, rolling_mse: tr.rolling_mse(0), samples: 1 });
        assert_eq!(rows[1].samples, 0);
        // The 12 h claim matures later.
        tr.settle(&bot, now + 13 * 60 + 1);
        assert!(tr.rolling_mse(1).is_some());
    }

    #[test]
    fn degenerate_claims_never_poison_the_rolling_windows() {
        // Regression: a template with less than one full history window
        // can yield a degenerate fit whose claim is ∞ (or NaN). Settling
        // such a claim must leave every mean finite — an ∞ pushed into a
        // RollingMean turns into permanent NaN once it is evicted.
        let bot = fed_bot(2);
        let clusters = bot.tracked_clusters().to_vec();
        let now = MINUTES_PER_DAY;
        let mut tr = AccuracyTracker::new(1, 2);
        for bad in [f64::INFINITY, f64::NAN, f64::NEG_INFINITY] {
            tr.record(0, now, Interval::HOUR, 1, &clusters, &[bad]);
        }
        tr.record(0, now, Interval::HOUR, 1, &clusters, &[600.0]);
        assert_eq!(tr.settle(&bot, now + 121), 4, "every claim settles, scored or not");
        assert_eq!(tr.pending.len(), 0);
        let mse = tr.rolling_mse(0).expect("finite claims still score");
        assert!(mse.is_finite(), "degenerate claims leaked into the mean: {mse}");
        // NaN and -∞ collapse to a 0.0 claim via max(0.0) and do score;
        // the +∞ claim is dropped. Push the window past capacity to prove
        // eviction stays clean.
        for _ in 0..4 {
            tr.record(0, now, Interval::HOUR, 1, &clusters, &[600.0]);
            tr.settle(&bot, now + 121);
        }
        assert!(tr.rolling_mse(0).unwrap().is_finite());
        for (_, mse) in per_cluster_mse(&tr, 0) {
            assert!(mse.is_finite(), "per-cluster mean poisoned: {mse}");
        }
    }

    #[test]
    fn short_history_window_settles_against_zero_actuals() {
        // A claim recorded against a bucket with no history at all (the
        // empty-window edge) scores against actual = 0.0 rather than
        // producing a non-finite error.
        let mut bot = QueryBot5000::new(Qb5000Config::default());
        bot.ingest_weighted(0, "SELECT a FROM t WHERE id = 1", 1).unwrap();
        bot.update_clusters(30);
        let clusters = bot.tracked_clusters().to_vec();
        assert!(!clusters.is_empty());
        let mut tr = AccuracyTracker::new(1, 8);
        // Predict one hour past a history of a single statement.
        tr.record(0, 30, Interval::HOUR, 1, &clusters, &[5.0]);
        assert_eq!(tr.settle(&bot, 4 * 60), 1);
        let mse = tr.rolling_mse(0).expect("claim settled");
        assert!(mse.is_finite());
        let want = 6f64.ln().powi(2); // (ln(1+0) - ln(1+5))²
        assert!((mse - want).abs() < 1e-9, "got {mse}, want {want}");
    }

    #[test]
    fn export_restore_round_trips_and_settles_identically() {
        let bot = fed_bot(2);
        let clusters = bot.tracked_clusters().to_vec();
        let now = MINUTES_PER_DAY;
        let mut tr = AccuracyTracker::new(2, 8);
        tr.record(0, now, Interval::HOUR, 1, &clusters, &[550.0]);
        tr.record(1, now, Interval::HOUR, 12, &clusters, &[300.0]);
        tr.settle(&bot, now + 121); // settles the 1 h claim, 12 h stays pending
        let state = tr.export_state();
        assert_eq!(state.pending.len(), 1);
        assert_eq!(state.settled_total, 1);
        let mut restored = AccuracyTracker::restore(state.clone());
        assert_eq!(restored.export_state(), state);
        // The restored tracker settles the remaining claim exactly like
        // the original would.
        let late = now + 13 * 60 + 1;
        assert_eq!(restored.settle(&bot, late), tr.settle(&bot, late));
        assert_eq!(restored.rolling_mse(1), tr.rolling_mse(1));
        assert_eq!(per_cluster_mse(&restored, 0), per_cluster_mse(&tr, 0));
        assert_eq!(restored.settled_total, tr.settled_total);
    }

    #[test]
    fn recorder_gauges_follow_the_rolling_mean() {
        let bot = fed_bot(2);
        let clusters = bot.tracked_clusters().to_vec();
        let now = MINUTES_PER_DAY;
        let rec = Recorder::new();
        let mut tr = AccuracyTracker::new(1, 8);
        tr.set_recorder(&rec);
        tr.record(0, now, Interval::HOUR, 1, &clusters, &[600.0]);
        tr.settle(&bot, now + 121);
        let snap = rec.snapshot();
        assert_eq!(snap.counters["forecast.settled"], 1);
        assert!(snap.gauges["forecast.mse.h0"] < 1e-12);
        let cluster_gauge = format!("forecast.mse.h0.c{}", clusters[0].id.0);
        assert!(snap.gauges.contains_key(&cluster_gauge));
    }
}
