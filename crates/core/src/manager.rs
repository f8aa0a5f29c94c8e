//! Multi-horizon model management (§6.2 / §3).
//!
//! "The planning module of a self-driving DBMS also decides how far ahead
//! of time its models need to make predictions. QB5000 builds a forecasting
//! model for each required prediction horizon." And from §3: "Every time
//! the cluster assignment changes for templates, QB5000 re-trains its
//! models."
//!
//! [`ForecastManager`] owns one model per configured horizon, tracks which
//! cluster set each was trained on, and retrains lazily when the Clusterer's
//! assignments change (or on first use). Prediction always feeds the most
//! recent data into the models, per §3.
//!
//! Resilience: a failed retrain (divergence, solver breakdown) never takes
//! prediction dark. The previous models — the *last-known-good snapshot*,
//! kept together with the [`ClusterInfo`] set they were trained on — keep
//! serving, and retries are spaced by capped exponential backoff counted in
//! retrain *rounds* (calls that would retrain), not wall-clock time, so
//! replayed traces behave deterministically.

use qb_clusterer::ClusterId;
use qb_forecast::{DegradationLevel, ForecastError, Forecaster};
use qb_obs::Recorder;
use qb_parallel::ThreadPool;
use qb_timeseries::{Interval, Minute, MINUTES_PER_HOUR};
use qb_serve::{ColdStartOrigin, ServeHealth};
use qb_trace::{EventDraft, EventId, EventKind, Scope, Tracer};

use crate::accuracy::{AccuracyTracker, AccuracyTrackerState, DEFAULT_ACCURACY_WINDOW};
use crate::error::Error;
use crate::pipeline::{ClusterInfo, ClusterInfoState, ForecastJob, JobSpan, QueryBot5000};
use crate::serve::ColdSeed;

/// One prediction horizon the planning module requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HorizonSpec {
    /// Aggregation interval for this model's series.
    pub interval: Interval,
    /// Input window, in steps of `interval` (one day at the interval is the
    /// paper's choice for LR/RNN).
    pub window: usize,
    /// Steps ahead to predict.
    pub horizon: usize,
    /// Training span, in steps (the paper trains on up to three weeks).
    pub train_steps: usize,
}

impl HorizonSpec {
    /// The paper's standard hourly-interval spec for a horizon in hours.
    pub fn hourly(horizon_hours: usize) -> Self {
        Self {
            interval: Interval::HOUR,
            window: 24,
            horizon: horizon_hours,
            train_steps: 21 * 24,
        }
    }
}

/// Why (or whether) the last `ensure_trained` call retrained.
#[derive(Debug, Clone, PartialEq)]
pub enum RetrainOutcome {
    /// Models were current; nothing retrained.
    UpToDate,
    /// Models retrained (first train, or cluster assignments changed).
    Retrained { horizons: usize },
    /// Training skipped: no clusters tracked yet.
    NoClusters,
    /// Retrain failed; the last-known-good snapshot keeps serving and the
    /// next retry is `retry_after_rounds` retrain rounds away.
    RolledBack { error: ForecastError, retry_after_rounds: u64 },
    /// Inside a backoff window: the retrain was skipped, `rounds_remaining`
    /// more rounds pass before the next attempt.
    BackedOff { rounds_remaining: u64 },
}

/// Backoff cap, in skipped retrain rounds.
const MAX_BACKOFF_ROUNDS: u64 = 32;

/// Observability snapshot of the manager's failure handling.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecastHealth {
    /// Successful retrain rounds.
    pub retrain_count: u64,
    /// Failed retrain attempts since the last success.
    pub consecutive_failures: u32,
    /// Retrain rounds left in the current backoff window.
    pub backoff_remaining: u64,
    /// Total failed retrains that rolled back to a snapshot.
    pub rollbacks: u64,
    /// Message of the most recent training failure.
    pub last_error: Option<String>,
    /// True when predictions come from a last-known-good snapshot rather
    /// than models trained on the current cluster assignments.
    pub serving_snapshot: bool,
}

impl crate::pipeline::PipelineHealth {
    /// Appends the forecaster stage's last error, completing the per-stage
    /// picture for a pipeline driven through a [`ForecastManager`].
    pub fn with_forecast(mut self, fh: &ForecastHealth) -> Self {
        if let Some(e) = &fh.last_error {
            self.last_errors.push(("forecaster", e.clone()));
        }
        self
    }
}

/// Plain-data snapshot of a [`ForecastManager`]'s serving state —
/// everything except the fitted models themselves (and the model factory,
/// which is a closure and cannot be serialized).
///
/// Recovery rebuilds the models deterministically:
/// [`ForecastManager::restore`] re-runs each horizon's fit on the training
/// data reconstructed at [`ManagerState::last_train_now`], which the
/// restored arrival histories reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct ManagerState {
    /// Successful retrain rounds.
    pub retrain_count: u64,
    /// Failed retrain attempts since the last success.
    pub consecutive_failures: u32,
    /// Retrain rounds left in the current backoff window.
    pub backoff_remaining: u64,
    /// Total failed retrains that rolled back to a snapshot.
    pub rollbacks: u64,
    /// Message of the most recent training failure.
    pub last_error: Option<String>,
    /// The full cluster set the live models were trained on; the
    /// staleness check keys on its ids and sorted members.
    pub trained_on: Option<Vec<ClusterInfoState>>,
    /// Last observed degradation level per horizon.
    pub last_degradation: Vec<Option<DegradationLevel>>,
    /// `now` of the last successful retrain (`None` = never trained).
    pub last_train_now: Option<Minute>,
    /// The embedded accuracy tracker, pending claims included.
    pub accuracy: AccuracyTrackerState,
}

/// Per-horizon forecasting models with §3's retrain rule.
pub struct ForecastManager {
    specs: Vec<HorizonSpec>,
    make_model: Box<dyn Fn() -> Box<dyn Forecaster> + Send + Sync>,
    models: Vec<Option<Box<dyn Forecaster>>>,
    /// The full cluster set the live models were trained on; prediction
    /// rebuilds its input series from these (not the bot's current
    /// clusters), so a stale snapshot still knows what to predict, and
    /// [`ForecastManager::is_current`] compares their identity with the
    /// bot's.
    trained_on: Option<Vec<ClusterInfo>>,
    /// Number of retrain rounds performed (observability).
    pub retrain_count: u64,
    consecutive_failures: u32,
    backoff_remaining: u64,
    rollbacks: u64,
    last_error: Option<String>,
    /// Worker threads for the per-horizon fit fan-out (1 = sequential).
    threads: usize,
    /// Recorder handed to every freshly built model (composites count
    /// divergences through it); disabled until
    /// [`ForecastManager::set_recorder`].
    recorder: Recorder,
    /// `forecast.fit.h<i>` fit-time histograms, aligned with `specs`.
    fit_times: Vec<qb_obs::Histogram>,
    /// Wall time per retrain round (`forecast.train`).
    train_time: qb_obs::Histogram,
    predict_time: qb_obs::Histogram,
    retrains_metric: qb_obs::Counter,
    rollbacks_metric: qb_obs::Counter,
    /// Cold-start seeds published across all retrains
    /// (`forecast.cold_starts`).
    cold_starts_metric: qb_obs::Counter,
    backoffs_metric: qb_obs::Counter,
    degradation_transitions: qb_obs::Counter,
    /// `forecast.degradation.h<i>` gauges (0 = full … 3 = last-value).
    degradation_gauges: Vec<qb_obs::Gauge>,
    /// Last observed degradation level per horizon (transition detector;
    /// survives across retrain rounds even though models are rebuilt).
    last_degradation: Vec<Option<DegradationLevel>>,
    /// `now` of the last successful retrain. Durable recovery re-fits the
    /// serving models at exactly this instant (models themselves are not
    /// serialized — training is deterministic, so re-fitting on the same
    /// data reproduces them bit-identically).
    last_train_now: Option<Minute>,
    /// Rolling prediction-accuracy scorer fed by
    /// [`ForecastManager::predict_tracked`].
    accuracy: AccuracyTracker,
    /// Decision-lineage tracer; disabled until
    /// [`ForecastManager::set_tracer`].
    tracer: Tracer,
}

/// Deterministic name of a [`DegradationLevel`] for trace payloads.
fn degradation_name(level: DegradationLevel) -> &'static str {
    match level {
        DegradationLevel::Full => "full",
        DegradationLevel::Ensemble => "ensemble",
        DegradationLevel::Single => "single",
        DegradationLevel::LastValue => "last_value",
    }
}

/// Gauge encoding of a [`DegradationLevel`] (ordered, 0 = healthy).
fn degradation_index(level: DegradationLevel) -> f64 {
    match level {
        DegradationLevel::Full => 0.0,
        DegradationLevel::Ensemble => 1.0,
        DegradationLevel::Single => 2.0,
        DegradationLevel::LastValue => 3.0,
    }
}

impl ForecastManager {
    /// Creates a manager with a model factory (one fresh model per horizon
    /// per retrain round).
    pub fn new(
        specs: Vec<HorizonSpec>,
        make_model: impl Fn() -> Box<dyn Forecaster> + Send + Sync + 'static,
    ) -> Self {
        assert!(!specs.is_empty(), "ForecastManager: need at least one horizon");
        let models = specs.iter().map(|_| None).collect();
        let horizons = specs.len();
        Self {
            specs,
            make_model: Box::new(make_model),
            models,
            trained_on: None,
            retrain_count: 0,
            consecutive_failures: 0,
            backoff_remaining: 0,
            rollbacks: 0,
            last_error: None,
            threads: qb_parallel::configured_threads(),
            recorder: Recorder::disabled(),
            fit_times: vec![qb_obs::Histogram::default(); horizons],
            train_time: qb_obs::Histogram::default(),
            predict_time: qb_obs::Histogram::default(),
            retrains_metric: qb_obs::Counter::default(),
            rollbacks_metric: qb_obs::Counter::default(),
            cold_starts_metric: qb_obs::Counter::default(),
            backoffs_metric: qb_obs::Counter::default(),
            degradation_transitions: qb_obs::Counter::default(),
            degradation_gauges: vec![qb_obs::Gauge::default(); horizons],
            last_degradation: vec![None; horizons],
            last_train_now: None,
            accuracy: AccuracyTracker::new(horizons, DEFAULT_ACCURACY_WINDOW),
            tracer: Tracer::disabled(),
        }
    }

    /// Installs the pipeline's [`Tracer`] so retrain rounds leave a
    /// decision lineage: per-horizon `ModelFit`/`ModelFitFailed` events
    /// parented on the clusterer state they trained against, divergence
    /// guards and rollbacks chained off the failing fit, and degradation
    /// transitions off the serving model. Divergence and degradation
    /// downgrades also snapshot an automatic flight-recorder dump.
    /// Usually called with [`crate::QueryBot5000::tracer`].
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
    }

    /// Installs a [`Recorder`]: retrain rounds then record their wall time
    /// (`forecast.train`), per-horizon fit times (`forecast.fit.h<i>`),
    /// prediction latency, retrain/rollback/backoff counters, degradation
    /// gauges and transitions, and — via the embedded [`AccuracyTracker`]
    /// — rolling MSE gauges. Freshly built models are instrumented with
    /// the same recorder, so composite-member divergences
    /// (`forecast.divergences`) land in the same registry.
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.recorder = recorder.clone();
        self.fit_times = (0..self.specs.len())
            .map(|i| recorder.histogram(&format!("forecast.fit.h{i}")))
            .collect();
        self.train_time = recorder.histogram("forecast.train");
        self.predict_time = recorder.histogram("forecast.predict");
        self.retrains_metric = recorder.counter("forecast.retrains");
        self.rollbacks_metric = recorder.counter("forecast.rollbacks");
        self.cold_starts_metric = recorder.counter("forecast.cold_starts");
        self.backoffs_metric = recorder.counter("forecast.backoffs");
        self.degradation_transitions = recorder.counter("forecast.degradation_transitions");
        self.degradation_gauges = (0..self.specs.len())
            .map(|i| recorder.gauge(&format!("forecast.degradation.h{i}")))
            .collect();
        self.accuracy.set_recorder(recorder);
    }

    /// The configured horizons.
    pub fn specs(&self) -> &[HorizonSpec] {
        &self.specs
    }

    /// How far back, in minutes, the horizons read per-minute counts: the
    /// longest training span, plus one step, of a horizon whose interval
    /// is not whole hours (histories answer whole hours over their whole
    /// length). Register it with [`QueryBot5000::keep_minutes`] before
    /// ingesting; [`crate::DurablePipeline::attach_manager`] does.
    pub fn minute_lookback(&self) -> Minute {
        self.specs
            .iter()
            .filter(|s| s.interval.as_minutes() % MINUTES_PER_HOUR != 0)
            .map(|s| {
                let steps = s.train_steps.max(s.window + s.horizon + 1) + 1;
                steps as Minute * s.interval.as_minutes()
            })
            .max()
            .unwrap_or(0)
    }

    /// Overrides the environment-derived worker count for per-horizon
    /// training (1 = strictly sequential).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Worker threads the next retrain round will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when every horizon has a live model for the current clusters
    /// (same cluster ids AND the same member assignments — §3 retrains on
    /// any assignment change, not just on id churn).
    pub fn is_current(&self, bot: &QueryBot5000) -> bool {
        self.trained_on.as_deref().is_some_and(|on| {
            Self::cluster_state(on) == Self::cluster_state(bot.tracked_clusters())
        }) && self.models.iter().all(Option::is_some)
    }

    /// The cluster identity models are keyed on: cluster id plus its
    /// (sorted) member template ids.
    fn cluster_state(clusters: &[ClusterInfo]) -> Vec<(ClusterId, Vec<u32>)> {
        clusters
            .iter()
            .map(|c| {
                let mut members: Vec<u32> = c.members.iter().map(|m| m.0).collect();
                members.sort_unstable();
                (c.id, members)
            })
            .collect()
    }

    /// True when a full set of previously trained models exists and can
    /// keep serving predictions even though a retrain failed.
    fn has_snapshot(&self) -> bool {
        self.trained_on.is_some() && self.models.iter().all(Option::is_some)
    }

    /// Health report: retrain/rollback counters, backoff state, and the
    /// last training error (per-stage "forecaster" view of the pipeline).
    pub fn health(&self) -> ForecastHealth {
        ForecastHealth {
            retrain_count: self.retrain_count,
            consecutive_failures: self.consecutive_failures,
            backoff_remaining: self.backoff_remaining,
            rollbacks: self.rollbacks,
            last_error: self.last_error.clone(),
            serving_snapshot: self.consecutive_failures > 0 && self.has_snapshot(),
        }
    }

    /// Retrains if the tracked cluster set changed since the last round
    /// (§3's rule) or no models exist yet.
    ///
    /// A failed training round does NOT discard the previous models: they
    /// stay installed as the last-known-good snapshot (predictions keep
    /// flowing from them), the failure is recorded, and subsequent rounds
    /// back off exponentially (1, 2, 4, … skipped rounds, capped at
    /// 32) before retrying. `Err` (an
    /// [`Error::Forecast`]) is only returned when training fails with *no*
    /// snapshot to fall back on.
    pub fn ensure_trained(
        &mut self,
        bot: &QueryBot5000,
        now: Minute,
    ) -> Result<RetrainOutcome, Error> {
        if bot.tracked_clusters().is_empty() {
            return Ok(RetrainOutcome::NoClusters);
        }
        if self.is_current(bot) {
            return Ok(RetrainOutcome::UpToDate);
        }
        if self.backoff_remaining > 0 {
            self.backoff_remaining -= 1;
            self.backoffs_metric.inc();
            if self.tracer.is_enabled() {
                self.tracer.record(
                    EventDraft::new(EventKind::RetrainBackedOff)
                        .parent_opt(self.tracer.anchor(Scope::ClusterState, 0))
                        .uint("rounds_remaining", self.backoff_remaining),
                );
            }
            return Ok(RetrainOutcome::BackedOff { rounds_remaining: self.backoff_remaining });
        }
        // Gather every horizon's training job up front (cheap series
        // extraction), so the fit fan-out below owns all its inputs.
        let Ok(jobs) = Self::training_jobs(&self.specs, bot, bot.tracked_clusters(), now) else {
            // Not enough recorded history for some horizon yet.
            return Ok(RetrainOutcome::NoClusters);
        };
        // Train a complete replacement set before touching the live models,
        // so a mid-round failure can't leave horizons half-updated. Each
        // horizon fits on its own worker; results join in horizon order,
        // so the first error reported (and the failure accounting) is
        // bit-identical to a sequential run. Timings and divergence counts
        // land on thread-safe recorder handles.
        let _train_stage = self.tracer.stage("forecast.train", &self.train_time);
        let make_model = &self.make_model;
        let recorder = &self.recorder;
        let fit_times = &self.fit_times;
        let specs = &self.specs;
        let tracer_on = self.tracer.is_enabled();
        let cluster_anchor = self.tracer.anchor(Scope::ClusterState, 0);
        let fitted: Vec<(Result<Box<dyn Forecaster>, ForecastError>, Option<EventDraft>)> =
            ThreadPool::new(self.threads).map(jobs, |i, job| {
                // Workers return their trace event; the control thread
                // commits them in horizon order below, so the event stream
                // is identical at any thread count.
                let _fit_span = fit_times[i].start();
                let mut model = make_model();
                model.instrument(recorder);
                let res = model.fit(&job.series, job.spec).map(|()| model);
                let draft = tracer_on.then(|| {
                    let spec = specs[i];
                    match &res {
                        Ok(m) => EventDraft::new(EventKind::ModelFit)
                            .parent_opt(cluster_anchor)
                            .uint("horizon_idx", i as u64)
                            .uint("horizon_steps", spec.horizon as u64)
                            .uint("window", spec.window as u64)
                            .uint("clusters", job.series.len() as u64)
                            .text("model", m.name()),
                        Err(e) => {
                            let msg: String = e.to_string().chars().take(120).collect();
                            EventDraft::new(EventKind::ModelFitFailed)
                                .parent_opt(cluster_anchor)
                                .uint("horizon_idx", i as u64)
                                .text("error", &msg)
                        }
                    }
                });
                (res, draft)
            });
        let (results, drafts): (Vec<_>, Vec<_>) = fitted.into_iter().unzip();
        let fit_ids: Vec<Option<EventId>> = drafts
            .into_iter()
            .enumerate()
            .map(|(i, draft)| self.tracer.record_on_lane(draft?, 1 + i as u32))
            .collect();
        let mut fresh: Vec<Box<dyn Forecaster>> = Vec::with_capacity(results.len());
        for (i, res) in results.into_iter().enumerate() {
            match res {
                Ok(model) => fresh.push(model),
                Err(e) => {
                    self.consecutive_failures += 1;
                    let shift = (self.consecutive_failures - 1).min(63);
                    self.backoff_remaining = (1u64 << shift).min(MAX_BACKOFF_ROUNDS);
                    self.last_error = Some(e.to_string());
                    if tracer_on && matches!(e, ForecastError::Diverged { .. }) {
                        let guard = self.tracer.record(
                            EventDraft::new(EventKind::DivergenceGuard)
                                .parent_opt(fit_ids[i])
                                .uint("horizon_idx", i as u64)
                                .uint("consecutive_failures", self.consecutive_failures as u64),
                        );
                        self.tracer.trigger_dump("diverged", guard);
                    }
                    if self.has_snapshot() {
                        self.rollbacks += 1;
                        self.rollbacks_metric.inc();
                        if tracer_on {
                            self.tracer.record(
                                EventDraft::new(EventKind::RetrainRolledBack)
                                    .parent_opt(fit_ids[i])
                                    .uint("retry_after_rounds", self.backoff_remaining),
                            );
                        }
                        return Ok(RetrainOutcome::RolledBack {
                            error: e,
                            retry_after_rounds: self.backoff_remaining,
                        });
                    }
                    return Err(e.into());
                }
            }
        }
        let trained = fresh.len();
        self.models = fresh.into_iter().map(Some).collect();
        self.trained_on = Some(bot.tracked_clusters().to_vec());
        self.last_train_now = Some(now);
        self.retrain_count += 1;
        self.retrains_metric.inc();
        // Anchor each horizon to its freshly serving fit before the
        // degradation pass, so transitions chain off the new model.
        for i in 0..self.specs.len() {
            if let Some(fit) = fit_ids[i] {
                self.tracer.set_anchor(Scope::Horizon, i as u64, fit);
            }
        }
        self.observe_degradation();
        // With serving on, push this round's fresh predictions into the
        // served snapshot: one curve per (cluster, horizon slot),
        // parented on the fits that produced them, plus the accuracy/
        // degradation summary. Horizons the service doesn't carry a
        // matching slot for are skipped — the snapshot only ever serves
        // curves whose shape its metadata describes.
        if let Some(serve) = bot.serve() {
            let slots = serve.horizons().len();
            let mut rolling_mse = vec![None; slots];
            let mut model_names = vec![None; slots];
            let mut predictions = Vec::new();
            let mut parents: Vec<EventId> = Vec::new();
            for (i, spec) in self.specs.iter().enumerate() {
                let Some(slot) = serve.slot_for(spec) else { continue };
                predictions.push((slot, self.predict(bot, now, i)));
                rolling_mse[slot] = self.accuracy.rolling_mse(i);
                model_names[slot] =
                    self.models[i].as_deref().map(|m| m.name().to_string());
                if let Some(fit) = fit_ids[i] {
                    parents.push(fit);
                }
            }
            let degraded = self
                .models
                .iter()
                .flatten()
                .any(|m| m.degradation() != DegradationLevel::Full);
            let clusters =
                self.trained_on.as_deref().expect("trained_on installed just above");
            // With cold start on, seed forecasts for templates the fresh
            // routing doesn't cover (new since training, or never part of
            // a tracked cluster) so readers get a typed estimate instead
            // of Missing while the template accrues history.
            let cold = if bot.cold_start_enabled() {
                Self::cold_start_seeds(&self.specs, bot, now, clusters, &predictions)
            } else {
                Vec::new()
            };
            self.cold_starts_metric.add(cold.len() as u64);
            serve.publish_forecasts_with_cold(
                now,
                clusters,
                &predictions,
                &cold,
                Some(ServeHealth { degraded, rolling_mse, models: model_names }),
                &parents,
            );
        }
        self.consecutive_failures = 0;
        self.backoff_remaining = 0;
        self.last_error = None;
        Ok(RetrainOutcome::Retrained { horizons: trained })
    }

    /// One training job per spec over `clusters` at `now`, in spec order;
    /// `Err(i)` when horizon `i` has too little recorded history. Specs
    /// that train over the same range at the same interval (`hourly(1)`
    /// and `hourly(12)` do) train on the same cluster series, which are
    /// built for the first of them and copied for the rest.
    fn training_jobs(
        specs: &[HorizonSpec],
        bot: &QueryBot5000,
        clusters: &[ClusterInfo],
        now: Minute,
    ) -> Result<Vec<ForecastJob>, usize> {
        let mut jobs: Vec<ForecastJob> = Vec::with_capacity(specs.len());
        let mut ranges = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            let span = JobSpan::Steps(spec.train_steps);
            let (start, end) =
                bot.training_range(clusters, now, spec.interval, spec.window, spec.horizon, span);
            let range = (spec.interval, start, end);
            let series = match ranges.iter().position(|built| *built == range) {
                Some(built) => jobs[built].series.clone(),
                None => bot.all_cluster_series(clusters, start, end, spec.interval),
            };
            jobs.push(ForecastJob::over(series, clusters, spec.window, spec.horizon).ok_or(i)?);
            ranges.push(range);
        }
        Ok(jobs)
    }

    /// Cold-start seeds for templates the freshly trained routing does
    /// not cover. A template already assigned to a trained cluster is
    /// seeded from that cluster's predicted rate scaled by the template's
    /// recent share of the cluster's volume (over the first spec's window
    /// ending at the training cut); templates with no trained-cluster
    /// assignment — or no observable volume yet — get the population
    /// prior: the mean predicted per-member rate across all tracked
    /// clusters. Candidates are walked in template-id order on the
    /// control thread, so the seed list is bit-identical at any
    /// `QB_THREADS`.
    fn cold_start_seeds(
        specs: &[HorizonSpec],
        bot: &QueryBot5000,
        now: Minute,
        clusters: &[ClusterInfo],
        predictions: &[(usize, Vec<f64>)],
    ) -> Vec<ColdSeed> {
        let Some(spec) = specs.first() else { return Vec::new() };
        let pre = bot.preprocessor();
        let covered: std::collections::HashSet<u32> =
            clusters.iter().flat_map(|c| c.members.iter().map(|m| m.0)).collect();
        let member_count: usize = clusters.iter().map(|c| c.members.len()).sum();
        let prior = |predictions: &[(usize, Vec<f64>)]| -> Vec<(usize, f64)> {
            let denom = member_count.max(1) as f64;
            predictions
                .iter()
                .map(|&(slot, ref vals)| (slot, vals.iter().sum::<f64>() / denom))
                .collect()
        };
        let end = spec.interval.bucket_start(now);
        let start = end - spec.window as i64 * spec.interval.as_minutes();
        let mut seeds = Vec::new();
        for entry in pre.templates() {
            let t = entry.id;
            if covered.contains(&t.0) {
                continue;
            }
            let assigned = bot
                .clusterer()
                .cluster_of(t.0 as u64)
                .and_then(|cid| clusters.iter().position(|c| c.id == cid));
            let (origin, values) = match assigned {
                Some(j) => {
                    let tv = entry.history.count_range(start, end) as f64;
                    let cv: f64 =
                        bot.cluster_series(&clusters[j], start, end, spec.interval).iter().sum();
                    let share = if cv > 0.0 { tv / cv } else { 0.0 };
                    if share > 0.0 && share.is_finite() {
                        (
                            ColdStartOrigin::ClusterShare { cluster: clusters[j].id.0, share },
                            predictions
                                .iter()
                                .map(|&(slot, ref vals)| {
                                    (slot, vals.get(j).copied().unwrap_or(0.0) * share)
                                })
                                .collect(),
                        )
                    } else {
                        (ColdStartOrigin::PopulationPrior, prior(predictions))
                    }
                }
                None => (ColdStartOrigin::PopulationPrior, prior(predictions)),
            };
            seeds.push(ColdSeed { template: t.0, origin, values });
        }
        seeds
    }

    /// Updates the per-horizon degradation gauges after a retrain and
    /// counts level *transitions*. Models are rebuilt every round, so the
    /// previous level lives here, not in the (discarded) model.
    fn observe_degradation(&mut self) {
        for (i, model) in self.models.iter().enumerate() {
            let Some(model) = model.as_deref() else { continue };
            let level = model.degradation();
            self.degradation_gauges[i].set(degradation_index(level));
            let prev = self.last_degradation[i];
            let changed = match prev {
                Some(prev) => prev != level,
                // First observation only counts when it starts degraded.
                None => level != DegradationLevel::Full,
            };
            if changed {
                self.degradation_transitions.inc();
                if self.tracer.is_enabled() {
                    let ev = self.tracer.record(
                        EventDraft::new(EventKind::DegradationTransition)
                            .parent_opt(self.tracer.anchor(Scope::Horizon, i as u64))
                            .uint("horizon_idx", i as u64)
                            .text("from", prev.map_or("none", degradation_name))
                            .text("to", degradation_name(level)),
                    );
                    // Downgrades snapshot a flight-recorder dump; upgrades
                    // (recovery) are traced but don't warrant one.
                    let downgraded = prev
                        .is_none_or(|p| degradation_index(p) < degradation_index(level));
                    if downgraded {
                        self.tracer.trigger_dump("degraded", ev);
                    }
                }
            }
            self.last_degradation[i] = Some(level);
        }
    }

    /// Current degradation level of the serving model at one horizon
    /// (`None` before the first successful retrain).
    pub fn degradation(&self, horizon_idx: usize) -> Option<DegradationLevel> {
        self.models[horizon_idx].as_deref().map(Forecaster::degradation)
    }

    /// The cluster set predictions are currently produced for — the one the
    /// live models (or the last-known-good snapshot) were trained on.
    pub fn serving_clusters(&self) -> &[ClusterInfo] {
        self.trained_on
            .as_deref()
            .expect("ForecastManager::serving_clusters before ensure_trained")
    }

    /// Predicts every serving cluster's rate at the given horizon index,
    /// using the latest data ending at `now`.
    ///
    /// Predictions come from the models' own training-time cluster set
    /// ([`ForecastManager::serving_clusters`]) — after a failed retrain
    /// this is the last-known-good snapshot, so prediction never goes dark
    /// while retries back off.
    ///
    /// # Panics
    /// Panics if `horizon_idx` is out of range or the manager has never
    /// been trained (call [`ForecastManager::ensure_trained`] first).
    pub fn predict(&self, bot: &QueryBot5000, now: Minute, horizon_idx: usize) -> Vec<f64> {
        let _span = self.predict_time.start();
        let spec = self.specs[horizon_idx];
        let model = self.models[horizon_idx]
            .as_deref()
            .expect("ForecastManager::predict before ensure_trained");
        let clusters = self
            .trained_on
            .as_deref()
            .expect("ForecastManager::predict before ensure_trained");
        let end = spec.interval.bucket_start(now);
        let start = end - spec.window as i64 * spec.interval.as_minutes();
        model.predict(&bot.all_cluster_series(clusters, start, end, spec.interval))
    }

    /// [`ForecastManager::predict`] plus accuracy bookkeeping: settles
    /// previously recorded claims that have matured by `now`, then records
    /// this round's predictions with the embedded [`AccuracyTracker`] so a
    /// later call can score them. The rolling MSE appears in
    /// [`ForecastManager::accuracy`] and — with a recorder installed — in
    /// the `forecast.mse.h<i>` gauges.
    ///
    /// # Panics
    /// Same contract as [`ForecastManager::predict`].
    pub fn predict_tracked(
        &mut self,
        bot: &QueryBot5000,
        now: Minute,
        horizon_idx: usize,
    ) -> Vec<f64> {
        self.accuracy.settle(bot, now);
        let predictions = self.predict(bot, now, horizon_idx);
        let spec = self.specs[horizon_idx];
        let clusters = self
            .trained_on
            .as_deref()
            .expect("ForecastManager::predict_tracked before ensure_trained");
        self.accuracy.record(
            horizon_idx,
            now,
            spec.interval,
            spec.horizon,
            clusters,
            &predictions,
        );
        predictions
    }

    /// Settles the accuracy claims that have matured by `now` without
    /// predicting — what [`ForecastManager::predict_tracked`] does first —
    /// so the end of a run can score its last rounds' claims. Returns how
    /// many settled.
    pub fn settle(&mut self, bot: &QueryBot5000, now: Minute) -> usize {
        self.accuracy.settle(bot, now)
    }

    /// The rolling prediction-accuracy scorer fed by
    /// [`ForecastManager::predict_tracked`].
    pub fn accuracy(&self) -> &AccuracyTracker {
        &self.accuracy
    }

    /// Plain-data snapshot of the manager's serving state (models and the
    /// factory excluded — see [`ManagerState`]).
    pub fn export_state(&self) -> ManagerState {
        ManagerState {
            retrain_count: self.retrain_count,
            consecutive_failures: self.consecutive_failures,
            backoff_remaining: self.backoff_remaining,
            rollbacks: self.rollbacks,
            last_error: self.last_error.clone(),
            trained_on: self
                .trained_on
                .as_ref()
                .map(|on| on.iter().map(ClusterInfo::export_state).collect()),
            last_degradation: self.last_degradation.clone(),
            last_train_now: self.last_train_now,
            accuracy: self.accuracy.export_state(),
        }
    }

    /// Rebuilds a manager from [`ForecastManager::export_state`], re-fitting
    /// the serving models against `bot`'s (restored) histories at the
    /// recorded training instant.
    ///
    /// `specs` and `make_model` must match the original manager's — the
    /// factory is a closure and travels outside the serialized state. The
    /// re-fit is silent (no recorder, no tracer, sequential): install those
    /// afterwards with [`ForecastManager::set_recorder`] /
    /// [`ForecastManager::set_tracer`]. Returns [`Error::Forecast`] when a
    /// model that trained before fails to train on the restored data — that
    /// means the histories don't match the state, i.e. corruption upstream.
    pub fn restore(
        specs: Vec<HorizonSpec>,
        make_model: impl Fn() -> Box<dyn Forecaster> + Send + Sync + 'static,
        state: ManagerState,
        bot: &QueryBot5000,
    ) -> Result<Self, Error> {
        let mut mgr = Self::new(specs, make_model);
        mgr.retrain_count = state.retrain_count;
        mgr.consecutive_failures = state.consecutive_failures;
        mgr.backoff_remaining = state.backoff_remaining;
        mgr.rollbacks = state.rollbacks;
        mgr.last_error = state.last_error;
        mgr.trained_on =
            state.trained_on.map(|on| on.into_iter().map(ClusterInfo::from_state).collect());
        let mut last_degradation = state.last_degradation;
        last_degradation.resize(mgr.specs.len(), None);
        mgr.last_degradation = last_degradation;
        mgr.last_train_now = state.last_train_now;
        mgr.accuracy = AccuracyTracker::restore(state.accuracy);
        if let (Some(train_now), Some(clusters)) = (mgr.last_train_now, &mgr.trained_on) {
            let jobs = Self::training_jobs(&mgr.specs, bot, clusters, train_now).map_err(|i| {
                Error::Durability {
                    detail: format!(
                        "manager restore: horizon {i} has no training data at \
                         minute {train_now}; state and histories disagree"
                    ),
                    injected_crash: false,
                }
            })?;
            for (i, job) in jobs.iter().enumerate() {
                let mut model = (mgr.make_model)();
                model.fit(&job.series, job.spec)?;
                mgr.models[i] = Some(model);
            }
        }
        Ok(mgr)
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
            let hour = (minute / 60) % 24;
            let v = if (8..20).contains(&hour) { 30 } else { 3 };
            bot.ingest_weighted(minute, "SELECT a FROM t WHERE id = 1", v).unwrap();
        }
        bot.update_clusters(days * MINUTES_PER_DAY);
        bot
    }

    fn manager() -> ForecastManager {
        ForecastManager::new(
            vec![HorizonSpec::hourly(1), HorizonSpec::hourly(12)],
            || Box::new(qb_forecast::LinearRegression::default()),
        )
    }

    /// Whole-hour horizons read no minutes; a sub-hour one reads its
    /// training span and one step more, and the longest such look wins.
    #[test]
    fn minute_lookback_covers_sub_hour_training_spans() {
        assert_eq!(manager().minute_lookback(), 0);
        let spec = |interval, window, horizon, train_steps| HorizonSpec {
            interval,
            window,
            horizon,
            train_steps,
        };
        let ten = spec(Interval::TEN_MINUTES, 6, 3, 100);
        let ninety = spec(Interval::minutes(90), 4, 1, 2);
        let lr = || Box::new(qb_forecast::LinearRegression::default()) as Box<dyn Forecaster>;
        let mixed = ForecastManager::new(vec![HorizonSpec::hourly(1), ten, ninety], lr);
        assert_eq!(mixed.minute_lookback(), 101 * 10);
        assert_eq!(ForecastManager::new(vec![ninety], lr).minute_lookback(), 7 * 90);
    }

    #[test]
    fn trains_once_then_up_to_date() {
        let bot = fed_bot(6);
        let now = 6 * MINUTES_PER_DAY;
        let mut mgr = manager();
        assert!(!mgr.is_current(&bot));
        let r = mgr.ensure_trained(&bot, now).unwrap();
        assert_eq!(r, RetrainOutcome::Retrained { horizons: 2 });
        assert!(mgr.is_current(&bot));
        let r = mgr.ensure_trained(&bot, now).unwrap();
        assert_eq!(r, RetrainOutcome::UpToDate);
        assert_eq!(mgr.retrain_count, 1);
    }

    #[test]
    fn retrains_when_clusters_change() {
        let mut bot = fed_bot(6);
        let now = 6 * MINUTES_PER_DAY;
        let mut mgr = manager();
        mgr.ensure_trained(&bot, now).unwrap();
        // A new template with a brand-new pattern forces a new cluster.
        for minute in 0..6 * MINUTES_PER_DAY {
            let hour = (minute / 60) % 24;
            let v = if (0..6).contains(&hour) { 40 } else { 1 };
            bot.ingest_weighted(minute, "SELECT b FROM u WHERE id = 2", v).unwrap();
        }
        bot.update_clusters(now);
        assert!(!mgr.is_current(&bot), "cluster set changed");
        let r = mgr.ensure_trained(&bot, now).unwrap();
        assert!(matches!(r, RetrainOutcome::Retrained { .. }));
        assert_eq!(mgr.retrain_count, 2);
    }

    #[test]
    fn predictions_reflect_each_horizon() {
        let bot = fed_bot(8);
        let now = 8 * MINUTES_PER_DAY; // midnight
        let mut mgr = manager();
        mgr.ensure_trained(&bot, now).unwrap();
        // Horizon 1 h from midnight: night volume (~3/min ≈ 180/h).
        let short = mgr.predict(&bot, now, 0);
        // Horizon 12 h from midnight: daytime volume (~30/min ≈ 1800/h).
        let long = mgr.predict(&bot, now, 1);
        assert_eq!(short.len(), long.len());
        assert!(
            long[0] > short[0] * 2.0,
            "noon prediction {} should exceed 1am prediction {}",
            long[0],
            short[0]
        );
    }

    /// Horizons that share a training range share one series build; every
    /// job must still be what `forecast_job_with` pulls for that horizon
    /// alone, and so must the predictions of the models fitted on them.
    #[test]
    fn shared_series_jobs_equal_per_horizon_pulls() {
        let bot = fed_bot(8);
        let now = 8 * MINUTES_PER_DAY + 30;
        // Two specs with one range, one with a shorter range, then the
        // first range again.
        let short = HorizonSpec { train_steps: 5 * 24, ..HorizonSpec::hourly(3) };
        let specs =
            vec![HorizonSpec::hourly(1), HorizonSpec::hourly(12), short, HorizonSpec::hourly(6)];
        let jobs =
            ForecastManager::training_jobs(&specs, &bot, bot.tracked_clusters(), now).unwrap();
        let mut mgr = ForecastManager::new(specs.clone(), || {
            Box::new(qb_forecast::LinearRegression::default())
        });
        mgr.ensure_trained(&bot, now).unwrap();
        for (i, spec) in specs.iter().enumerate() {
            let span = JobSpan::Steps(spec.train_steps);
            let pull =
                bot.forecast_job_with(now, spec.interval, spec.window, spec.horizon, span).unwrap();
            assert_eq!(jobs[i].series, pull.series, "horizon {i}");
            assert_eq!(jobs[i].spec, pull.spec);
            let mut lr = qb_forecast::LinearRegression::default();
            assert_eq!(mgr.predict(&bot, now, i), pull.fit_predict(&mut lr).unwrap());
        }
        assert_eq!(jobs[2].series[0].len(), 5 * 24);
        assert_eq!(jobs[3].series[0].len(), jobs[0].series[0].len());
        // A horizon the history cannot cover is named by its index.
        let long = HorizonSpec { window: 24 * 8, ..HorizonSpec::hourly(1) };
        let too_long = [HorizonSpec::hourly(1), long];
        assert_eq!(
            ForecastManager::training_jobs(&too_long, &bot, bot.tracked_clusters(), now).err(),
            Some(1)
        );
    }

    #[test]
    fn no_clusters_reports_gracefully() {
        let bot = QueryBot5000::new(Qb5000Config::default());
        let mut mgr = manager();
        assert_eq!(mgr.ensure_trained(&bot, 0).unwrap(), RetrainOutcome::NoClusters);
    }

    #[test]
    #[should_panic(expected = "before ensure_trained")]
    fn predict_before_training_panics() {
        let bot = fed_bot(6);
        manager().predict(&bot, 6 * MINUTES_PER_DAY, 0);
    }

    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// A forecaster that trains as LR, except when the shared flag forces
    /// every `fit` to report divergence — simulates a model blowing up
    /// mid-retrain without touching the data path.
    struct FlakyModel {
        inner: qb_forecast::LinearRegression,
        fail: Arc<AtomicBool>,
    }

    impl Forecaster for FlakyModel {
        fn name(&self) -> &'static str {
            "FLAKY"
        }
        fn fit(
            &mut self,
            series: &[Vec<f64>],
            spec: qb_forecast::WindowSpec,
        ) -> Result<(), ForecastError> {
            if self.fail.load(Ordering::SeqCst) {
                return Err(ForecastError::Diverged {
                    model: "FLAKY",
                    detail: "forced by test".into(),
                });
            }
            self.inner.fit(series, spec)
        }
        fn predict(&self, recent: &[Vec<f64>]) -> Vec<f64> {
            self.inner.predict(recent)
        }
    }

    fn flaky_manager(fail: Arc<AtomicBool>) -> ForecastManager {
        ForecastManager::new(vec![HorizonSpec::hourly(1)], move || {
            Box::new(FlakyModel { inner: qb_forecast::LinearRegression::default(), fail: Arc::clone(&fail) })
        })
    }

    /// Mutates the bot so the cluster assignments change and the manager
    /// considers its models stale.
    fn grow_second_cluster(bot: &mut QueryBot5000, days: i64) {
        for minute in 0..days * MINUTES_PER_DAY {
            let hour = (minute / 60) % 24;
            let v = if (0..6).contains(&hour) { 40 } else { 1 };
            bot.ingest_weighted(minute, "SELECT b FROM u WHERE id = 2", v).unwrap();
        }
        bot.update_clusters(days * MINUTES_PER_DAY);
    }

    #[test]
    fn failed_retrain_rolls_back_to_snapshot() {
        let mut bot = fed_bot(6);
        let now = 6 * MINUTES_PER_DAY;
        let fail = Arc::new(AtomicBool::new(false));
        let mut mgr = flaky_manager(Arc::clone(&fail));
        mgr.ensure_trained(&bot, now).unwrap();
        let before = mgr.predict(&bot, now, 0);
        assert!(before.iter().all(|v| v.is_finite()));

        // Cluster change + a now-diverging model: retrain must fail but
        // the old snapshot keeps serving identical cluster coverage.
        grow_second_cluster(&mut bot, 6);
        fail.store(true, Ordering::SeqCst);
        let r = mgr.ensure_trained(&bot, now).unwrap();
        assert!(
            matches!(r, RetrainOutcome::RolledBack { retry_after_rounds: 1, .. }),
            "expected rollback, got {r:?}"
        );
        let after = mgr.predict(&bot, now, 0);
        assert_eq!(after.len(), before.len(), "snapshot serves its own cluster set");
        assert!(after.iter().all(|v| v.is_finite()));

        let h = mgr.health();
        assert!(h.serving_snapshot);
        assert_eq!(h.rollbacks, 1);
        assert_eq!(h.consecutive_failures, 1);
        assert!(h.last_error.unwrap().contains("FLAKY diverged"));
    }

    #[test]
    fn backoff_grows_exponentially_then_recovers() {
        let mut bot = fed_bot(6);
        let now = 6 * MINUTES_PER_DAY;
        let fail = Arc::new(AtomicBool::new(false));
        let mut mgr = flaky_manager(Arc::clone(&fail));
        mgr.ensure_trained(&bot, now).unwrap();
        grow_second_cluster(&mut bot, 6);
        fail.store(true, Ordering::SeqCst);

        // Failure #1: retry after 1 skipped round.
        let r = mgr.ensure_trained(&bot, now).unwrap();
        assert!(matches!(r, RetrainOutcome::RolledBack { retry_after_rounds: 1, .. }));
        assert!(matches!(
            mgr.ensure_trained(&bot, now).unwrap(),
            RetrainOutcome::BackedOff { rounds_remaining: 0 }
        ));
        // Failure #2: window doubles to 2 skipped rounds.
        let r = mgr.ensure_trained(&bot, now).unwrap();
        assert!(matches!(r, RetrainOutcome::RolledBack { retry_after_rounds: 2, .. }));
        assert!(matches!(
            mgr.ensure_trained(&bot, now).unwrap(),
            RetrainOutcome::BackedOff { rounds_remaining: 1 }
        ));
        assert!(matches!(
            mgr.ensure_trained(&bot, now).unwrap(),
            RetrainOutcome::BackedOff { rounds_remaining: 0 }
        ));

        // Model "recovers": the next eligible round retrains and resets
        // the failure accounting.
        fail.store(false, Ordering::SeqCst);
        let r = mgr.ensure_trained(&bot, now).unwrap();
        assert!(matches!(r, RetrainOutcome::Retrained { .. }));
        let h = mgr.health();
        assert_eq!(h.consecutive_failures, 0);
        assert_eq!(h.backoff_remaining, 0);
        assert!(!h.serving_snapshot);
        assert_eq!(h.last_error, None);
        assert_eq!(h.rollbacks, 2);
        // And the new models serve the new (two-cluster) assignment.
        assert!(mgr.is_current(&bot));
        assert_eq!(mgr.predict(&bot, now, 0).len(), bot.tracked_clusters().len());
    }

    #[test]
    fn first_train_failure_surfaces_error() {
        let bot = fed_bot(6);
        let fail = Arc::new(AtomicBool::new(true));
        let mut mgr = flaky_manager(Arc::clone(&fail));
        let err = mgr.ensure_trained(&bot, 6 * MINUTES_PER_DAY).unwrap_err();
        assert!(err.is_model_failure(), "no snapshot exists, error must surface: {err}");
        // Backoff still applies before the next attempt...
        assert!(matches!(
            mgr.ensure_trained(&bot, 6 * MINUTES_PER_DAY).unwrap(),
            RetrainOutcome::BackedOff { .. }
        ));
        // ...and recovery is possible once the model behaves.
        fail.store(false, Ordering::SeqCst);
        let r = mgr.ensure_trained(&bot, 6 * MINUTES_PER_DAY).unwrap();
        assert!(matches!(r, RetrainOutcome::Retrained { .. }));
    }

    #[test]
    fn backoff_cap_holds() {
        let mut bot = fed_bot(6);
        let now = 6 * MINUTES_PER_DAY;
        let fail = Arc::new(AtomicBool::new(false));
        let mut mgr = flaky_manager(Arc::clone(&fail));
        mgr.ensure_trained(&bot, now).unwrap();
        grow_second_cluster(&mut bot, 6);
        fail.store(true, Ordering::SeqCst);
        let mut last_window = 0;
        for _ in 0..10 {
            // Drain any backoff, then observe the next failure's window.
            loop {
                match mgr.ensure_trained(&bot, now).unwrap() {
                    RetrainOutcome::BackedOff { .. } => continue,
                    RetrainOutcome::RolledBack { retry_after_rounds, .. } => {
                        last_window = retry_after_rounds;
                        break;
                    }
                    other => panic!("unexpected outcome {other:?}"),
                }
            }
        }
        assert_eq!(last_window, MAX_BACKOFF_ROUNDS, "window saturates at the cap");
    }

    #[test]
    fn recorder_tracks_retrains_fit_times_and_degradation() {
        let bot = fed_bot(6);
        let now = 6 * MINUTES_PER_DAY;
        let rec = qb_obs::Recorder::new();
        let mut mgr = manager();
        mgr.set_recorder(&rec);
        mgr.ensure_trained(&bot, now).unwrap();
        let snap = rec.snapshot();
        assert_eq!(snap.counters["forecast.retrains"], 1);
        assert_eq!(snap.histograms["forecast.fit.h0"].count, 1);
        assert_eq!(snap.histograms["forecast.fit.h1"].count, 1);
        // LR has no fallback chain: both horizons serve at full health and
        // no transition fires.
        assert_eq!(snap.gauges["forecast.degradation.h0"], 0.0);
        assert_eq!(snap.counters["forecast.degradation_transitions"], 0);
        assert_eq!(mgr.degradation(0), Some(qb_forecast::DegradationLevel::Full));
        // A prediction records its latency.
        mgr.predict(&bot, now, 0);
        assert_eq!(rec.snapshot().histograms["forecast.predict"].count, 1);
    }

    #[test]
    fn rollback_and_backoff_rounds_hit_their_counters() {
        let mut bot = fed_bot(6);
        let now = 6 * MINUTES_PER_DAY;
        let fail = Arc::new(AtomicBool::new(false));
        let rec = qb_obs::Recorder::new();
        let mut mgr = flaky_manager(Arc::clone(&fail));
        mgr.set_recorder(&rec);
        mgr.ensure_trained(&bot, now).unwrap();
        grow_second_cluster(&mut bot, 6);
        fail.store(true, Ordering::SeqCst);
        mgr.ensure_trained(&bot, now).unwrap(); // rolled back
        mgr.ensure_trained(&bot, now).unwrap(); // backed off
        let snap = rec.snapshot();
        assert_eq!(snap.counters["forecast.retrains"], 1);
        assert_eq!(snap.counters["forecast.rollbacks"], 1);
        assert_eq!(snap.counters["forecast.backoffs"], 1);
    }

    use qb_trace::{EventKind, Tracer};

    fn traced_fed_bot(days: i64, tracer: &Tracer) -> QueryBot5000 {
        let cfg = Qb5000Config::builder().trace(tracer.clone()).build().unwrap();
        let mut bot = QueryBot5000::new(cfg);
        for minute in 0..days * MINUTES_PER_DAY {
            let hour = (minute / 60) % 24;
            let v = if (8..20).contains(&hour) { 30 } else { 3 };
            bot.ingest_weighted(minute, "SELECT a FROM t WHERE id = 1", v).unwrap();
        }
        bot.update_clusters(days * MINUTES_PER_DAY);
        bot
    }

    #[test]
    fn tracer_chains_model_fits_to_cluster_state() {
        let tracer = Tracer::enabled();
        let bot = traced_fed_bot(6, &tracer);
        let now = 6 * MINUTES_PER_DAY;
        let mut mgr = manager();
        mgr.set_tracer(bot.tracer());
        mgr.ensure_trained(&bot, now).unwrap();
        let view = tracer.view();
        assert_eq!(view.of_kind(EventKind::ModelFit).count(), 2, "one fit per horizon");
        let fit = view.latest(EventKind::ModelFit).unwrap();
        let lineage = view.explain(fit.id);
        assert!(lineage.contains("ClustersUpdated"), "fit chains to cluster state:\n{lineage}");
        // Both horizons anchored for later stages to link against.
        assert!(tracer.anchor(qb_trace::Scope::Horizon, 0).is_some());
        assert!(tracer.anchor(qb_trace::Scope::Horizon, 1).is_some());
    }

    #[test]
    fn divergence_trips_guard_rollback_and_dump() {
        let tracer = Tracer::enabled();
        let mut bot = traced_fed_bot(6, &tracer);
        let now = 6 * MINUTES_PER_DAY;
        let fail = Arc::new(AtomicBool::new(false));
        let mut mgr = flaky_manager(Arc::clone(&fail));
        mgr.set_tracer(bot.tracer());
        mgr.ensure_trained(&bot, now).unwrap();
        grow_second_cluster(&mut bot, 6);
        fail.store(true, Ordering::SeqCst);
        let r = mgr.ensure_trained(&bot, now).unwrap();
        assert!(matches!(r, RetrainOutcome::RolledBack { .. }));
        let view = tracer.view();
        let guard = view.latest(EventKind::DivergenceGuard).expect("guard event");
        let lineage = view.explain(guard.id);
        assert!(lineage.contains("ModelFitFailed"), "{lineage}");
        assert!(lineage.contains("ClustersUpdated"), "{lineage}");
        assert!(view.latest(EventKind::RetrainRolledBack).is_some());
        // The automatic dump reaches both the tracer and the pipeline's
        // health report.
        assert!(tracer.dumps().iter().any(|d| d.reason == "diverged"));
        assert!(bot.health().trace_dumps.iter().any(|d| d.reason == "diverged"));
        // The subsequent backoff round is traced too.
        mgr.ensure_trained(&bot, now).unwrap();
        assert!(tracer.view().latest(EventKind::RetrainBackedOff).is_some());
    }

    use std::sync::atomic::AtomicUsize;

    /// Trains as LR but reports whatever degradation level the shared cell
    /// dictates — simulates a composite model falling down its chain.
    struct DegradedModel {
        inner: qb_forecast::LinearRegression,
        level: Arc<AtomicUsize>,
    }

    impl Forecaster for DegradedModel {
        fn name(&self) -> &'static str {
            "DEGRADE"
        }
        fn degradation(&self) -> DegradationLevel {
            match self.level.load(Ordering::SeqCst) {
                0 => DegradationLevel::Full,
                1 => DegradationLevel::Ensemble,
                2 => DegradationLevel::Single,
                _ => DegradationLevel::LastValue,
            }
        }
        fn fit(
            &mut self,
            series: &[Vec<f64>],
            spec: qb_forecast::WindowSpec,
        ) -> Result<(), ForecastError> {
            self.inner.fit(series, spec)
        }
        fn predict(&self, recent: &[Vec<f64>]) -> Vec<f64> {
            self.inner.predict(recent)
        }
    }

    #[test]
    fn degradation_downgrade_emits_transition_and_dump() {
        let tracer = Tracer::enabled();
        let mut bot = traced_fed_bot(6, &tracer);
        let now = 6 * MINUTES_PER_DAY;
        let level = Arc::new(AtomicUsize::new(0));
        let factory_level = Arc::clone(&level);
        let mut mgr = ForecastManager::new(vec![HorizonSpec::hourly(1)], move || {
            Box::new(DegradedModel {
                inner: qb_forecast::LinearRegression::default(),
                level: Arc::clone(&factory_level),
            })
        });
        mgr.set_tracer(bot.tracer());
        mgr.ensure_trained(&bot, now).unwrap();
        assert!(tracer.view().latest(EventKind::DegradationTransition).is_none());
        // The cluster change forces a retrain; the fresh model now serves
        // two levels down the chain.
        grow_second_cluster(&mut bot, 6);
        level.store(2, Ordering::SeqCst);
        mgr.ensure_trained(&bot, now).unwrap();
        let view = tracer.view();
        let t = view.latest(EventKind::DegradationTransition).expect("transition event");
        assert!(
            t.render().contains("from=\"full\" to=\"single\""),
            "unexpected transition: {}",
            t.render()
        );
        let lineage = view.explain(t.id);
        assert!(lineage.contains("ModelFit"), "{lineage}");
        assert!(tracer.dumps().iter().any(|d| d.reason == "degraded"));
        // Recovery is traced but doesn't dump again. A third arrival
        // pattern changes the assignments so the round really retrains.
        for minute in 0..6 * MINUTES_PER_DAY {
            let hour = (minute / 60) % 24;
            let v = if (12..18).contains(&hour) { 50 } else { 2 };
            bot.ingest_weighted(minute, "SELECT c FROM w WHERE id = 3", v).unwrap();
        }
        bot.update_clusters(now);
        level.store(0, Ordering::SeqCst);
        let r = mgr.ensure_trained(&bot, now).unwrap();
        assert!(matches!(r, RetrainOutcome::Retrained { .. }), "{r:?}");
        let view = tracer.view();
        let back = view.latest(EventKind::DegradationTransition).unwrap();
        assert!(back.render().contains("to=\"full\""));
        assert_eq!(tracer.dumps().iter().filter(|d| d.reason == "degraded").count(), 1);
    }

    #[test]
    fn export_restore_reproduces_predictions_exactly() {
        let bot = fed_bot(8);
        let now = 8 * MINUTES_PER_DAY;
        let mut mgr = manager();
        mgr.ensure_trained(&bot, now).unwrap();
        mgr.predict_tracked(&bot, now, 0);
        let state = mgr.export_state();
        assert_eq!(state.retrain_count, 1);
        assert!(state.last_train_now.is_some());

        // The pipeline restarts too: its tracked clusters, which the
        // staleness check compares with the models' key, are selected
        // again rather than read from the state.
        let restored_bot =
            QueryBot5000::restore(Qb5000Config::default(), bot.export_state()).unwrap();
        let mut restored = ForecastManager::restore(
            vec![HorizonSpec::hourly(1), HorizonSpec::hourly(12)],
            || Box::new(qb_forecast::LinearRegression::default()),
            state.clone(),
            &restored_bot,
        )
        .unwrap();
        assert_eq!(restored.export_state(), state, "state survives the round trip");
        // Deterministic re-fit: bit-identical predictions at both horizons,
        // and the staleness check still says "current".
        let later = now + 121;
        assert_eq!(restored.predict(&restored_bot, later, 0), mgr.predict(&bot, later, 0));
        assert_eq!(restored.predict(&restored_bot, later, 1), mgr.predict(&bot, later, 1));
        assert!(restored.is_current(&restored_bot));
        assert_eq!(
            restored.ensure_trained(&restored_bot, later).unwrap(),
            RetrainOutcome::UpToDate
        );
        // Pending accuracy claims settle identically after the restart.
        assert_eq!(
            restored.predict_tracked(&restored_bot, later, 0),
            mgr.predict_tracked(&bot, later, 0)
        );
        assert_eq!(restored.accuracy().settled_total(), mgr.accuracy().settled_total());
        assert_eq!(restored.accuracy().rolling_mse(0), mgr.accuracy().rolling_mse(0));
    }

    #[test]
    fn untrained_manager_round_trips_without_models() {
        let mgr = manager();
        let state = mgr.export_state();
        assert_eq!(state.last_train_now, None);
        let bot = QueryBot5000::new(Qb5000Config::default());
        let restored = ForecastManager::restore(
            vec![HorizonSpec::hourly(1), HorizonSpec::hourly(12)],
            || Box::new(qb_forecast::LinearRegression::default()),
            state.clone(),
            &bot,
        )
        .unwrap();
        assert_eq!(restored.export_state(), state);
        assert!(!restored.is_current(&bot));
    }

    #[test]
    fn predict_tracked_settles_matured_claims() {
        let bot = fed_bot(8);
        let now = 8 * MINUTES_PER_DAY;
        let mut mgr = manager();
        mgr.ensure_trained(&bot, now).unwrap();
        let p = mgr.predict_tracked(&bot, now, 0);
        assert_eq!(mgr.accuracy().pending_len(), p.len());
        assert_eq!(mgr.accuracy().settled_total(), 0);
        // Two hours later the 1 h claim has matured; the next call settles
        // it before recording fresh ones.
        mgr.predict_tracked(&bot, now + 121, 0);
        assert_eq!(mgr.accuracy().settled_total(), p.len() as u64);
        assert!(mgr.accuracy().rolling_mse(0).is_some());
    }
}
