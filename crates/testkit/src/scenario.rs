//! Cold start against waiting for history, scored on one churn trace.
//!
//! [`cold_vs_wait`] stages a served, cold-start pipeline so churn
//! templates land in the *new-template gap* — after the last cluster
//! update, before the retrain — exactly where a forecast consumer would
//! otherwise read `Missing`:
//!
//! ```text
//! 0 ············ cluster_cut ············ train_cut ············ end
//!   ingest            │      ingest          │      ingest        │
//!                update_clusters       ensure_trained        settle both
//!                (routing frozen)      (cold seeds publish)  trackers
//! ```
//!
//! At the train cut, every published cold-start entry becomes *two*
//! claims on an [`AccuracyTracker`] pair: the seeded estimate (cold-start
//! path) and `0.0` (the wait-for-history baseline — a reader that treats
//! `Missing` as "no arrivals"). After the rest of the trace is ingested,
//! both trackers settle against the same actual arrivals, giving a
//! per-horizon log-space MSE for each policy over identical claims.
//!
//! The invariants such a run must keep (accounting, bounds, finite
//! forecasts, width identity, and that cold start never perturbs the
//! pipeline) are checked by [`crate::sim::run`] on `serve,cold_start`
//! churn cases; this module only scores.

use qb5000::{
    AccuracyTracker, ClusterInfo, ForecastManager, ForecastService, Qb5000Config, QueryBot5000,
    RetrainOutcome,
};
use qb_clusterer::ClusterId;
use qb_forecast::LinearRegression;
use qb_preprocessor::TemplateId;
use qb_timeseries::{Interval, MINUTES_PER_DAY};
use qb_workloads::{ChurnScenario, TraceConfig};

use crate::sim::hourly_specs;

/// Trace length in days.
const DAYS: u32 = 4;
/// Forecast offsets in hours.
const HORIZONS: [usize; 2] = [1, 6];

/// What one scored run measured.
#[derive(Debug)]
pub struct ColdVsWait {
    /// Cold-start entries published (and scored) at the train cut.
    pub cold_templates: usize,
    /// Mean per-horizon log-space MSE of the cold-start estimates; `None`
    /// when no claim settled.
    pub cold_mse: Option<f64>,
    /// Same claims scored for the wait-for-history baseline (predict 0
    /// until a full window accrues).
    pub baseline_mse: Option<f64>,
}

/// Scores `scenario` at its nominal churn (intensity 1.0) over a clean,
/// seeded four-day trace at scale 0.05.
pub fn cold_vs_wait(scenario: ChurnScenario, seed: u64) -> ColdVsWait {
    let trace = TraceConfig { start: 0, days: DAYS, scale: 0.05, seed };
    let events: Vec<_> = scenario.generator(trace, 1.0).collect();
    let end = DAYS as i64 * MINUTES_PER_DAY;
    // Routing freezes at half the span (before the churn scenarios' main
    // activations) and training happens at 3/4, so churn templates
    // activating in between are unrouted at the retrain.
    let (cluster_cut, train_cut) = (end / 2, end * 3 / 4);
    let specs = hourly_specs(DAYS, &HORIZONS);

    let service = ForecastService::for_specs(&specs);
    let config = Qb5000Config::builder()
        .serve(service.clone())
        .cold_start(true)
        .build()
        .expect("served cold-start config is valid");
    let mut bot = QueryBot5000::new(config);
    let ingest = |bot: &mut QueryBot5000, lo: i64, hi: i64| {
        for ev in events.iter().filter(|ev| (lo..hi).contains(&ev.minute)) {
            let _ = bot.ingest_weighted(ev.minute, &ev.sql, ev.count);
        }
    };
    ingest(&mut bot, i64::MIN, cluster_cut);
    bot.update_clusters(cluster_cut);
    ingest(&mut bot, cluster_cut, train_cut);
    let mut mgr = ForecastManager::new(specs, || Box::new(LinearRegression::default()));
    let trained = mgr.ensure_trained(&bot, train_cut);
    assert!(matches!(trained, Ok(RetrainOutcome::Retrained { .. })), "no retrain: {trained:?}");

    // Each cold template becomes a synthetic single-member cluster, so the
    // trackers settle it against the template's own arrival series.
    let cold = service.snapshot().cold_starts().to_vec();
    let claims: Vec<ClusterInfo> = cold
        .iter()
        .map(|c| ClusterInfo {
            id: ClusterId(c.template as u64),
            volume: 0.0,
            members: vec![TemplateId(c.template)],
        })
        .collect();
    let mut cold_tracker = AccuracyTracker::new(HORIZONS.len(), 256);
    let mut base_tracker = AccuracyTracker::new(HORIZONS.len(), 256);
    for (i, &h) in HORIZONS.iter().enumerate() {
        let seeded: Vec<f64> = cold
            .iter()
            .map(|c| c.curves.get(i).and_then(|slot| slot.as_ref()).map_or(0.0, |v| v.values[0]))
            .collect();
        cold_tracker.record(i, train_cut, Interval::HOUR, h, &claims, &seeded);
        base_tracker.record(i, train_cut, Interval::HOUR, h, &claims, &vec![0.0; claims.len()]);
    }
    ingest(&mut bot, train_cut, i64::MAX);
    cold_tracker.settle(&bot, end);
    base_tracker.settle(&bot, end);

    let mean = |tracker: &AccuracyTracker| {
        let settled: Vec<f64> =
            (0..HORIZONS.len()).filter_map(|i| tracker.rolling_mse(i)).collect();
        (!settled.is_empty()).then(|| settled.iter().sum::<f64>() / settled.len() as f64)
    };
    ColdVsWait {
        cold_templates: cold.len(),
        cold_mse: mean(&cold_tracker),
        baseline_mse: mean(&base_tracker),
    }
}
