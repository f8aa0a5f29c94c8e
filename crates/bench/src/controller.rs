//! The §7.6 closed loop: QB5000 forecasts drive automatic index selection.
//!
//! "We use an index selection technique based on the one introduced by
//! AutoAdmin ... Instead of using a sample workload to generate the
//! candidate indexes, we use the predicted workload of the three largest
//! clusters generated by Clusterer. ... The system builds a new index at
//! hourly intervals based on QB5000's real-time workload predictions for
//! one-hour and twelve-hour prediction horizons. We weight the predictions
//! from the one-hour horizon higher."
//!
//! Three strategies reproduce Figures 11–12 (+ §7.7):
//!
//! * [`Strategy::Auto`] — QB5000 forecasts (arrival-rate clustering);
//! * [`Strategy::Static`] — the same advisor applied once, before the run,
//!   to a fixed sample of the entire query history;
//! * [`Strategy::AutoLogical`] — AUTO with the logical-feature clustering
//!   ablation.

use qb5000::schemas::build_database;
use qb5000::{
    ClusterInfo, ConfigError, DurablePipeline, ForecastManager, HorizonSpec, PipelineHealth,
    Qb5000Config, QueryBot5000,
};
use qb_dbsim::IndexAdvisor;
use qb_forecast::{Forecaster, LinearRegression};
use qb_monitor::{AlertChange, Monitor, MonitorConfig};
use qb_obs::{MetricsSnapshot, Recorder};
use qb_preprocessor::bind_params;
use qb_sqlparse::Statement;
use qb_timeseries::{Minute, MINUTES_PER_HOUR};
use qb_trace::{EventDraft, EventId, EventKind, Scope, Tracer};
use qb_workloads::{FaultPlan, QueryEvent, TraceConfig, Workload};

use crate::logical::{self, LOGICAL_CLUSTERER};

/// The horizons each build round blends, as `(hours, weight)` pairs: "The
/// system builds a new index at hourly intervals based on QB5000's
/// real-time workload predictions for one-hour and twelve-hour prediction
/// horizons. We weight the predictions from the one-hour horizon higher"
/// (§7.6). The controller's [`ForecastManager`] keeps one model per entry,
/// in this order; weights are normalized at use.
pub const FORECAST_BLEND: [(usize, f64); 2] = [(1, 0.7), (12, 0.3)];

/// Index-selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    Auto,
    Static,
    AutoLogical,
}

impl Strategy {
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Auto => "AUTO",
            Strategy::Static => "STATIC",
            Strategy::AutoLogical => "AUTO-LOGICAL",
        }
    }
}

/// Experiment configuration: struct-update syntax on
/// [`ControllerConfig::default`]. [`IndexSelectionExperiment::new`] checks
/// it with [`ControllerConfig::validate`].
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    pub workload: Workload,
    pub strategy: Strategy,
    /// Row-count scale for the simulated database.
    pub db_scale: f64,
    /// History fed to QB5000 before the measured run (paper: 3 weeks).
    pub history_days: u32,
    /// Measured run length in simulated hours (paper: 16).
    pub run_hours: u32,
    /// Trace volume scale.
    pub trace_scale: f64,
    /// Total indexes the strategy may build (paper: 20).
    pub index_budget: usize,
    /// How often AUTO builds an index (paper: hourly).
    pub build_period: Minute,
    /// Perf-sample bucket width in simulated minutes.
    pub report_window: Minute,
    /// Start of the measured run, minutes since the trace epoch. Chooses
    /// where in the calendar the experiment lands (Admissions should run
    /// inside the pre-deadline season for an interesting shift).
    pub run_start: Minute,
    pub seed: u64,
    /// Optional deterministic fault injection applied to both the history
    /// and the measured trace (chaos experiments; `None` = clean replay).
    pub fault_plan: Option<FaultPlan>,
    /// Worker threads for the train/score engine (default: `QB_THREADS`
    /// or the machine's cores; 1 = strictly sequential, and 0 runs as 1).
    /// Forecast outputs are bit-identical across thread counts.
    pub threads: usize,
    /// The pipeline the controller drives: recorder, tracer, durability
    /// and serving are set here, and the recorder and tracer are shared
    /// by the controller loop and its [`ForecastManager`]
    /// ([`ExperimentResult::metrics`] snapshots the recorder). A durable
    /// pipeline write-ahead logs every sighting and its snapshots carry
    /// the manager's state, so a killed experiment resumes from its
    /// directory bit-identically; a run that cannot write its durable
    /// state panics. With serving on, the manager publishes on each
    /// retrain and the controller publishes each build round's
    /// per-horizon forecasts, into slots matched by shape
    /// ([`qb5000::ForecastService::slot_for`]); give the service the
    /// [`FORECAST_BLEND`] horizons ([`qb5000::ForecastService::hourly`]).
    /// The controller overrides `max_clusters` to 3 ("the three largest
    /// clusters", §7.6), and for [`Strategy::AutoLogical`] also
    /// `cluster_feature` and `clusterer` (logical features under
    /// [`LOGICAL_CLUSTERER`], §7.7).
    pub pipeline: Qb5000Config,
    /// Continuous self-monitoring. When set, every build round feeds a
    /// metrics snapshot into a [`Monitor`]: per-round deltas
    /// are retained, the configured SLO rules are evaluated with
    /// hysteresis, and (when the config asks for a port) a live
    /// `/metrics` + `/health` + `/alerts` HTTP endpoint serves the
    /// latest published state. Monitoring forces metrics on: a disabled
    /// recorder is upgraded to an enabled one for the run. `None` (the
    /// default) monitors nothing and costs nothing.
    pub monitor: Option<MonitorConfig>,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            workload: Workload::BusTracker,
            strategy: Strategy::Auto,
            db_scale: 0.3,
            history_days: 7,
            run_hours: 16,
            trace_scale: 0.05,
            index_budget: 16,
            build_period: MINUTES_PER_HOUR,
            report_window: 30,
            run_start: 21 * qb_timeseries::MINUTES_PER_DAY,
            seed: 0x1D7,
            fault_plan: None,
            threads: qb_parallel::configured_threads(),
            pipeline: Qb5000Config::default(),
            monitor: None,
        }
    }
}

/// Shared scale check: finite and strictly positive.
fn check_scale(field: &'static str, value: f64) -> Result<(), ConfigError> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(ConfigError::BadScale { field, value })
    }
}

impl ControllerConfig {
    /// Checks the invariants the experiment assumes: a valid
    /// pipeline config, finite positive scales, at least one history day
    /// and run hour, and positive build and report periods.
    /// [`IndexSelectionExperiment::new`] calls this.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.pipeline.validate()?;
        check_scale("db_scale", self.db_scale)?;
        check_scale("trace_scale", self.trace_scale)?;
        if self.history_days == 0 {
            return Err(ConfigError::ZeroCount { field: "history_days" });
        }
        if self.run_hours == 0 {
            return Err(ConfigError::ZeroCount { field: "run_hours" });
        }
        if self.build_period <= 0 {
            return Err(ConfigError::ZeroInterval { field: "build_period" });
        }
        if self.report_window <= 0 {
            return Err(ConfigError::ZeroInterval { field: "report_window" });
        }
        Ok(())
    }
}

/// One performance sample (a point of Figures 11–12).
#[derive(Debug, Clone)]
pub struct PerfSample {
    /// Bucket start, minutes since the run began.
    pub minute: Minute,
    /// Simulated throughput: executed queries per simulated second of
    /// server busy time.
    pub throughput_qps: f64,
    /// Simulated 99th-percentile statement latency, milliseconds.
    pub p99_latency_ms: f64,
    /// Simulated execution seconds of the statements replayed in the
    /// bucket.
    pub busy_s: f64,
}

/// The full outcome of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    pub strategy: Strategy,
    pub samples: Vec<PerfSample>,
    /// Indexes built, with the run-relative minute each was created.
    pub indexes: Vec<(Minute, String)>,
    /// Total statements executed.
    pub total_queries: u64,
    /// Ingest accounting for the run (rejections, duplicates, reorders),
    /// including the forecast manager's rolling accuracy rows, one per
    /// [`FORECAST_BLEND`] horizon.
    pub health: PipelineHealth,
    /// Every metric the run's [`Recorder`] collected (empty when the
    /// config left the recorder disabled).
    pub metrics: MetricsSnapshot,
    /// Every alert firing/resolved transition the run's monitor saw, in
    /// evaluation order (empty without [`ControllerConfig::monitor`]).
    pub alert_transitions: Vec<AlertChange>,
    /// The monitor's byte-stable transition log, one line per entry of
    /// [`ExperimentResult::alert_transitions`]. Bit-identical across
    /// worker-pool widths when every rule folds deterministic signals.
    pub alert_log: Vec<String>,
}

impl ExperimentResult {
    /// Mean throughput over the final quarter of the run — the "end of
    /// experiment" comparison of §7.6.
    pub fn final_throughput(&self) -> f64 {
        self.final_mean(|s| s.throughput_qps)
    }

    /// Mean p99 latency over the final quarter of the run.
    pub fn final_latency(&self) -> f64 {
        self.final_mean(|s| s.p99_latency_ms)
    }

    fn final_mean(&self, value: fn(&PerfSample) -> f64) -> f64 {
        let n = self.samples.len();
        if n == 0 {
            return 0.0;
        }
        let tail = &self.samples[n - (n / 4).max(1)..];
        tail.iter().map(value).sum::<f64>() / tail.len() as f64
    }

    /// Simulated execution seconds of the statements replayed in the run's
    /// later half of perf buckets: the realised workload's cost under the
    /// indexes the strategy held then. Every strategy replays the same
    /// trace, so it compares them per seed without bucket noise.
    pub fn realised_cost_s(&self) -> f64 {
        let n = self.samples.len();
        self.samples[n / 2..].iter().map(|s| s.busy_s).sum()
    }
}

/// Opens the pipeline the controller loop drives, with one LR model per
/// [`FORECAST_BLEND`] horizon attached: restored from the snapshot when the
/// config's durable directory holds a manager's state, else fresh.
fn open_pipeline(qb_cfg: Qb5000Config, threads: usize) -> DurablePipeline {
    let specs = || FORECAST_BLEND.iter().map(|&(h, _)| HorizonSpec::hourly(h)).collect();
    let lr = || -> Box<dyn Forecaster> { Box::new(LinearRegression::default()) };
    let (mut pipeline, report) = DurablePipeline::open(qb_cfg)
        .expect("controller: opening the durable pipeline directory failed");
    let mut manager = match report.manager {
        Some(state) => ForecastManager::restore(specs(), lr, state, pipeline.bot())
            .expect("controller: restoring the forecast manager failed"),
        None => ForecastManager::new(specs(), lr),
    };
    manager.set_threads(threads);
    pipeline.attach_manager(manager);
    pipeline
}

/// Ingests one event. Quarantine rejections are part of a normal run and
/// already accounted in `PipelineHealth`; only a failure to make the
/// sighting durable is fatal.
fn ingest(pipeline: &mut DurablePipeline, ev: &QueryEvent) {
    if let Err(e) = pipeline.ingest_weighted(ev.minute, &ev.sql, ev.count) {
        assert!(e.stage() != "durability", "controller: durable ingest failed: {e}");
    }
}

/// Retrains on a cluster change (§3), then predicts every
/// [`FORECAST_BLEND`] horizon at `now`, recording each prediction as an
/// accuracy claim. `None` until the manager has trained once; a failed
/// first train stays on the manager's health and the round goes without
/// a forecast.
fn forecast(pipeline: &mut DurablePipeline, now: Minute) -> Option<Vec<Vec<f64>>> {
    let _ = pipeline.ensure_trained(now);
    (pipeline.manager()?.retrain_count > 0)
        .then(|| (0..FORECAST_BLEND.len()).map(|i| pipeline.predict_tracked(now, i)).collect())
}

/// One index-selection experiment: a validated [`ControllerConfig`] to run.
pub struct IndexSelectionExperiment {
    cfg: ControllerConfig,
}

impl IndexSelectionExperiment {
    /// An experiment over `cfg`, refused when [`ControllerConfig::validate`]
    /// refuses it.
    pub fn new(cfg: ControllerConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Self { cfg })
    }

    /// Runs the experiment and returns the performance series.
    pub fn run(&self) -> ExperimentResult {
        let cfg = &self.cfg;
        let threads = cfg.threads.max(1);
        let mut db = build_database(cfg.workload, cfg.db_scale, cfg.seed);

        // QB5000 models "the three largest clusters". Monitoring folds
        // metric deltas, so it needs a live registry: a monitored run with
        // a disabled recorder gets an enabled one.
        let mut qb_cfg = Qb5000Config { max_clusters: 3, ..cfg.pipeline.clone() };
        if cfg.monitor.is_some() && !qb_cfg.recorder.is_enabled() {
            qb_cfg.recorder = Recorder::new();
        }
        let mut monitor = cfg.monitor.clone().map(|mc| {
            Monitor::new(mc).expect("controller: binding the monitor scrape endpoint failed")
        });

        if cfg.strategy == Strategy::AutoLogical {
            qb_cfg.cluster_feature = Some(logical::cluster_feature);
            qb_cfg.clusterer = LOGICAL_CLUSTERER;
        }
        qb_cfg.validate().expect("controller's pipeline config is valid");
        let mut pipeline = open_pipeline(qb_cfg, threads);
        // The loop shares the pipeline's recorder and tracer (a recovered
        // durable run continues the restored trace).
        let recorder = pipeline.bot().recorder().clone();
        let tracer = pipeline.bot().tracer().clone();

        let round_time = recorder.histogram("controller.round");
        let blend_time = recorder.histogram("forecast.blend");
        let advisor_time = recorder.histogram("advisor.select");
        let rounds_metric = recorder.counter("controller.rounds");
        let indexes_metric = recorder.counter("controller.indexes_built");

        // --- Phase 1: historical warm-up (not measured, not executed). ---
        let history_start = cfg.run_start - cfg.history_days as i64 * qb_timeseries::MINUTES_PER_DAY;
        let history = TraceConfig {
            start: history_start,
            days: cfg.history_days,
            scale: cfg.trace_scale,
            seed: cfg.seed ^ 0x41,
        };
        for ev in self.trace_events(history) {
            ingest(&mut pipeline, &ev);
        }
        pipeline.update_clusters(cfg.run_start).expect("controller: durable cluster update failed");

        // STATIC builds its whole budget up front from the observed
        // history (the fixed manually-prepared sample).
        let advisor = IndexAdvisor::new(cfg.index_budget);
        let mut indexes: Vec<(Minute, String)> = Vec::new();
        if cfg.strategy == Strategy::Static {
            let static_sample: Vec<(Statement, f64)> = history_sample(pipeline.bot());
            for cand in advisor.select(&db, &static_sample) {
                let cols: Vec<&str> = cand.columns.iter().map(String::as_str).collect();
                if db.create_index(&cand.table, &cols).unwrap_or(false) {
                    indexes.push((0, cand.to_string()));
                }
            }
        }

        // --- Phase 2: the measured replay. ---
        let run = TraceConfig {
            start: cfg.run_start,
            days: cfg.run_hours.div_ceil(24).max(1),
            scale: cfg.trace_scale,
            seed: cfg.seed ^ 0x52,
        };
        let run_end = cfg.run_start + cfg.run_hours as i64 * MINUTES_PER_HOUR;
        let mut samples = Vec::new();
        let mut bucket_start = cfg.run_start;
        let mut bucket_queries: u64 = 0;
        let mut bucket_busy_us: f64 = 0.0;
        let mut bucket_latencies: Vec<(f64, u64)> = Vec::new();
        let mut next_build = cfg.run_start + cfg.build_period;
        let mut total_queries = 0u64;
        let mut monitor_round: u64 = 0;
        let mut alert_transitions: Vec<AlertChange> = Vec::new();
        let auto = matches!(cfg.strategy, Strategy::Auto | Strategy::AutoLogical);
        let per_period_budget = if auto {
            (cfg.index_budget as f64 / (cfg.run_hours as f64 * 60.0 / cfg.build_period as f64))
                .ceil() as usize
        } else {
            0
        };

        for ev in self.trace_events(run) {
            if ev.minute >= run_end {
                break;
            }
            // Periodic work due before this event.
            while ev.minute >= next_build {
                // This build tick's trace events, adopted as causal
                // parents by any alert the monitor fires below.
                let mut round_evidence: Vec<EventId> = Vec::new();
                if auto && indexes.len() < cfg.index_budget {
                    let _round_stage = tracer.stage("controller.round", &round_time);
                    rounds_metric.inc();
                    let now = next_build;
                    pipeline
                        .update_clusters(now)
                        .expect("controller: durable cluster update failed");
                    let (predicted, blend) = match forecast(&mut pipeline, now) {
                        Some(preds) => {
                            let _blend_stage = tracer.stage("forecast.blend", &blend_time);
                            let manager = pipeline.manager().expect("attached at open");
                            let clusters = manager.serving_clusters();
                            let blend = trace_blend(&tracer, clusters.len());
                            // Publish this round's per-horizon forecasts so
                            // reader threads see them at a fresh epoch,
                            // parented on the blend event for lineage.
                            if let Some(svc) = pipeline.bot().serve() {
                                let predictions: Vec<(usize, Vec<f64>)> = manager
                                    .specs()
                                    .iter()
                                    .zip(&preds)
                                    .filter_map(|(spec, p)| Some((svc.slot_for(spec)?, p.clone())))
                                    .collect();
                                if !predictions.is_empty() {
                                    svc.publish_forecasts(
                                        now,
                                        clusters,
                                        &predictions,
                                        None,
                                        blend.as_slice(),
                                    );
                                }
                            }
                            (blend_workload(pipeline.bot(), clusters, &preds, now), blend)
                        }
                        None => (Vec::new(), None),
                    };
                    round_evidence.extend(blend);
                    let advisor_step = IndexAdvisor::new(per_period_budget.max(1));
                    let _advisor_stage = tracer.stage("advisor.select", &advisor_time);
                    for (cand, gain) in advisor_step.select_with_gains(&db, &predicted) {
                        if indexes.len() >= cfg.index_budget {
                            break;
                        }
                        let cols: Vec<&str> =
                            cand.columns.iter().map(String::as_str).collect();
                        if db.create_index(&cand.table, &cols).unwrap_or(false) {
                            if tracer.is_enabled() {
                                tracer.record(
                                    EventDraft::new(EventKind::IndexBuilt)
                                        .parent_opt(blend)
                                        .text("index", &cand.to_string())
                                        .float("gain", gain)
                                        .int("minute", now - cfg.run_start),
                                );
                            }
                            indexes.push((now - cfg.run_start, cand.to_string()));
                            indexes_metric.inc();
                        }
                    }
                }
                // Self-monitoring: fold this round's metric deltas into
                // the history, evaluate the SLO rules, and publish fresh
                // state for the scrape endpoint. Runs every build tick —
                // even after the index budget is spent — so alerts keep
                // tracking the pipeline for the whole run.
                if let Some(mon) = &mut monitor {
                    monitor_round += 1;
                    alert_transitions.extend(mon.observe_round(
                        monitor_round,
                        &recorder.snapshot(),
                        &round_evidence,
                        &tracer,
                    ));
                }
                next_build += cfg.build_period;
            }
            // Flush finished perf buckets.
            while ev.minute >= bucket_start + cfg.report_window {
                samples.push(make_sample(
                    bucket_start - cfg.run_start,
                    bucket_queries,
                    bucket_busy_us,
                    &mut bucket_latencies,
                ));
                bucket_start += cfg.report_window;
                bucket_queries = 0;
                bucket_busy_us = 0.0;
            }

            // Execute and account. One execution represents `count`
            // identical statements (parameters differ in reality; the cost
            // profile is the template's).
            if let Ok(result) = db.execute_sql(&ev.sql) {
                let us = result.cost.micros(db.cost_model());
                bucket_queries += ev.count;
                total_queries += ev.count;
                bucket_busy_us += us * ev.count as f64;
                bucket_latencies.push((us, ev.count));
            }
            ingest(&mut pipeline, &ev);
        }
        // Flush remaining buckets — including empty ones — so the perf
        // series spans the whole run (Figures 11–12 plot to the end of
        // the x-axis even when the trace goes quiet).
        while bucket_start < run_end {
            samples.push(make_sample(
                bucket_start - cfg.run_start,
                bucket_queries,
                bucket_busy_us,
                &mut bucket_latencies,
            ));
            bucket_start += cfg.report_window;
            bucket_queries = 0;
            bucket_busy_us = 0.0;
        }
        // Settle whatever matured by the end of the run so the health
        // report reflects the final rolling accuracy.
        pipeline.settle(run_end);
        let mut health = pipeline.health();
        health.threads_used = threads;
        if let Some(mon) = &monitor {
            health.active_alerts = mon.active_alerts();
        }
        ExperimentResult {
            strategy: cfg.strategy,
            samples,
            indexes,
            total_queries,
            health,
            metrics: recorder.snapshot(),
            alert_log: monitor
                .as_ref()
                .map(|m| m.transition_log().to_vec())
                .unwrap_or_default(),
            alert_transitions,
        }
    }

    /// The workload event stream for one phase, with the configured fault
    /// plan applied when chaos is requested.
    fn trace_events(&self, tc: TraceConfig) -> Box<dyn Iterator<Item = QueryEvent>> {
        let events = self.cfg.workload.generator(tc);
        match &self.cfg.fault_plan {
            Some(plan) => Box::new(plan.clone().inject(events)),
            None => Box::new(events),
        }
    }
}

fn make_sample(
    minute: Minute,
    queries: u64,
    busy_us: f64,
    latencies: &mut Vec<(f64, u64)>,
) -> PerfSample {
    let throughput = if busy_us > 0.0 { queries as f64 / (busy_us / 1e6) } else { 0.0 };
    // Weighted p99.
    latencies.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = latencies.iter().map(|(_, c)| c).sum();
    let mut acc = 0u64;
    let mut p99 = 0.0;
    for (lat, c) in latencies.iter() {
        acc += c;
        p99 = *lat;
        if acc as f64 >= total as f64 * 0.99 {
            break;
        }
    }
    latencies.clear();
    PerfSample {
        minute,
        throughput_qps: throughput,
        p99_latency_ms: p99 / 1000.0,
        busy_s: busy_us / 1e6,
    }
}

/// STATIC's fixed sample: one representative per observed template with
/// uniform weight — "a fixed workload sample over the entire query history
/// that is prepared manually before the start of the experiment" (§7.6).
/// A manually-prepared sample enumerates the distinct query kinds; it does
/// not carry AUTO's volume forecasts, which is exactly the asymmetry the
/// experiment measures.
fn history_sample(bot: &QueryBot5000) -> Vec<(Statement, f64)> {
    bot.preprocessor()
        .templates()
        .iter()
        .filter_map(|e| {
            let params = e.params.items().first()?;
            let stmt = bind_params(&e.statement, params);
            Some((stmt, 1.0))
        })
        .collect()
}

/// Records one build round's forecast lineage: a `ForecastIssued` event
/// per [`FORECAST_BLEND`] horizon, parented on the manager's `ModelFit`
/// for that horizon (its [`Scope::Horizon`] anchor), and one
/// `ForecastBlended` event referencing them, parented on the cluster state.
/// Returns the blend's id for the index builds to parent on (`None` with
/// a disabled tracer).
fn trace_blend(tracer: &Tracer, clusters: usize) -> Option<EventId> {
    if !tracer.is_enabled() {
        return None;
    }
    let mut blended = EventDraft::new(EventKind::ForecastBlended)
        .parent_opt(tracer.anchor(Scope::ClusterState, 0))
        .uint("horizons", FORECAST_BLEND.len() as u64)
        .uint("clusters", clusters as u64);
    for (i, &(h, w)) in FORECAST_BLEND.iter().enumerate() {
        let issued = tracer.record(
            EventDraft::new(EventKind::ForecastIssued)
                .parent_opt(tracer.anchor(Scope::Horizon, i as u64))
                .uint("horizon_hours", h as u64)
                .uint("clusters", clusters as u64)
                .float("weight", w),
        );
        if let Some(id) = issued {
            blended = blended.reference(id);
        }
    }
    tracer.record(blended)
}

/// AUTO's predicted workload: member templates of the manager's serving
/// clusters, weighted by the blended per-horizon cluster forecasts ("we
/// weight the predictions from the one-hour horizon higher") times each
/// template's share of its cluster. `preds[i]` is [`FORECAST_BLEND`]
/// horizon `i`'s prediction, aligned with `clusters`.
fn blend_workload(
    bot: &QueryBot5000,
    clusters: &[ClusterInfo],
    preds: &[Vec<f64>],
    now: Minute,
) -> Vec<(Statement, f64)> {
    let weight_total: f64 = FORECAST_BLEND.iter().map(|&(_, w)| w).sum();
    let mut out = Vec::new();
    for (ci, cluster) in clusters.iter().enumerate() {
        let blended: f64 =
            FORECAST_BLEND.iter().zip(preds).map(|(&(_, w), p)| w * p[ci]).sum();
        let predicted_volume = blended / weight_total;
        if predicted_volume <= 0.0 || cluster.volume <= 0.0 {
            continue;
        }
        for &m in &cluster.members {
            let entry = bot.preprocessor().template(m);
            let Some(params) = entry.params.items().first() else { continue };
            // Share of the cluster's volume over the same trailing window
            // the Clusterer used — an all-time count would let long-lived
            // templates dominate shares (and shares would not sum to 1).
            let recent = entry
                .history
                .count_range(now - bot.feature_window(), now) as f64;
            let share = recent / cluster.volume.max(1.0);
            let stmt = bind_params(&entry.statement, params);
            out.push((stmt, predicted_volume * share));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qb5000::DurabilityConfig;

    fn quick_cfg(strategy: Strategy) -> ControllerConfig {
        ControllerConfig {
            workload: Workload::BusTracker,
            strategy,
            db_scale: 0.05,
            history_days: 2,
            run_hours: 4,
            trace_scale: 0.02,
            index_budget: 4,
            build_period: 60,
            report_window: 60,
            run_start: 7 * qb_timeseries::MINUTES_PER_DAY,
            seed: 9,
            ..ControllerConfig::default()
        }
    }

    fn run(cfg: ControllerConfig) -> ExperimentResult {
        IndexSelectionExperiment::new(cfg).expect("test config is valid").run()
    }

    #[test]
    fn controller_rejects_degenerate_runs() {
        let base = quick_cfg(Strategy::Auto);
        base.validate().unwrap();
        ControllerConfig::default().validate().unwrap();
        let refused = |cfg: ControllerConfig| cfg.validate().unwrap_err();
        assert_eq!(
            refused(ControllerConfig { run_hours: 0, ..base.clone() }),
            ConfigError::ZeroCount { field: "run_hours" }
        );
        assert_eq!(
            refused(ControllerConfig { history_days: 0, ..base.clone() }),
            ConfigError::ZeroCount { field: "history_days" }
        );
        assert_eq!(
            refused(ControllerConfig { build_period: 0, ..base.clone() }),
            ConfigError::ZeroInterval { field: "build_period" }
        );
        assert_eq!(
            refused(ControllerConfig { report_window: -5, ..base.clone() }),
            ConfigError::ZeroInterval { field: "report_window" }
        );
        for bad in [0.0, f64::NAN, -1.0] {
            assert!(matches!(
                refused(ControllerConfig { db_scale: bad, ..base.clone() }),
                ConfigError::BadScale { field: "db_scale", .. }
            ));
            assert!(matches!(
                refused(ControllerConfig { trace_scale: bad, ..base.clone() }),
                ConfigError::BadScale { field: "trace_scale", .. }
            ));
        }
        let pipeline = Qb5000Config { max_clusters: 0, ..Qb5000Config::default() };
        assert_eq!(
            refused(ControllerConfig { pipeline, ..base }),
            ConfigError::ZeroCount { field: "max_clusters" }
        );
    }

    #[test]
    fn new_refuses_an_invalid_struct_update_config() {
        let base = quick_cfg(Strategy::Auto);
        let refused = |cfg| IndexSelectionExperiment::new(cfg).err();
        assert_eq!(
            refused(ControllerConfig { run_hours: 0, ..base.clone() }),
            Some(ConfigError::ZeroCount { field: "run_hours" })
        );
        assert!(matches!(
            refused(ControllerConfig { db_scale: f64::NAN, ..base.clone() }),
            Some(ConfigError::BadScale { field: "db_scale", .. })
        ));
        assert!(refused(base).is_none());
    }

    #[test]
    fn threads_clamp_to_one() {
        let result = run(ControllerConfig { threads: 0, ..quick_cfg(Strategy::Static) });
        assert_eq!(result.health.threads_used, 1);
    }

    #[test]
    fn auto_builds_indexes_and_improves() {
        let auto = run(quick_cfg(Strategy::Auto));
        assert!(!auto.indexes.is_empty(), "AUTO must build indexes");
        assert!(auto.total_queries > 0);
        assert!(!auto.samples.is_empty());
        // Same run with a zero index budget is the no-index baseline;
        // compare mean throughput over the whole run rather than
        // first-bucket-vs-final-quarter, which is noise-fragile on a
        // 4-hour trace.
        let mut base_cfg = quick_cfg(Strategy::Auto);
        base_cfg.index_budget = 0;
        let none = run(base_cfg);
        let mean = |r: &ExperimentResult| {
            r.samples.iter().map(|s| s.throughput_qps).sum::<f64>() / r.samples.len() as f64
        };
        assert!(
            mean(&auto) > mean(&none),
            "AUTO should beat the no-index baseline: {} vs {}",
            mean(&auto),
            mean(&none)
        );
    }

    #[test]
    fn static_builds_upfront() {
        let result = run(quick_cfg(Strategy::Static));
        assert!(!result.indexes.is_empty());
        assert!(result.indexes.iter().all(|(t, _)| *t == 0), "all indexes at t=0");
    }

    #[test]
    fn auto_logical_runs() {
        let result = run(quick_cfg(Strategy::AutoLogical));
        assert!(result.total_queries > 0);
    }

    #[test]
    fn recorder_surfaces_rounds_and_forecast_accuracy() {
        let mut cfg = quick_cfg(Strategy::Auto);
        cfg.pipeline.recorder = Recorder::new();
        let result = run(cfg);
        let m = &result.metrics;
        let rounds = m.counters.get("controller.rounds").copied().unwrap_or(0);
        assert!(rounds > 0, "AUTO must record build rounds");
        assert_eq!(
            m.histograms.get("controller.round").map(|h| h.count),
            Some(rounds),
            "every round is timed"
        );
        assert!(
            m.counters.get("preprocessor.ingested_statements").copied().unwrap_or(0) > 0,
            "the shared recorder reaches the pre-processor"
        );
        let mut names = m.counters.keys().chain(m.gauges.keys()).chain(m.histograms.keys());
        assert!(names.all(|n| !n.starts_with("durability.")), "a plain run has no store");
        // One accuracy row per configured horizon, and the one-hour
        // horizon's claims mature within a 4-hour run.
        assert_eq!(result.health.forecast_accuracy.len(), 2);
        assert!(
            m.counters.get("forecast.settled").copied().unwrap_or(0) > 0,
            "one-hour forecasts settle against observed arrivals"
        );
    }

    #[test]
    fn disabled_recorder_yields_empty_snapshot() {
        let result = run(quick_cfg(Strategy::Static));
        assert_eq!(result.metrics, MetricsSnapshot::default());
    }

    #[test]
    fn tracer_captures_index_build_lineage() {
        let mut cfg = quick_cfg(Strategy::Auto);
        cfg.pipeline.tracer = Tracer::enabled();
        let tracer = cfg.pipeline.tracer.clone();
        let result = run(cfg);
        assert!(!result.indexes.is_empty(), "AUTO must build indexes");
        let view = tracer.view();
        let built = view.latest(EventKind::IndexBuilt).expect("IndexBuilt event");
        let lineage = view.explain(built.id);
        assert!(lineage.contains("ForecastBlended"), "{lineage}");
        assert!(lineage.contains("ForecastIssued"), "{lineage}");
        assert!(lineage.contains("ClustersUpdated"), "{lineage}");
        // The Chrome export of the run parses and carries complete spans
        // for the controller round and the advisor pass.
        let json = qb_trace::parse_json(&view.to_chrome_json()).expect("valid JSON");
        let events = json.get("traceEvents").and_then(qb_trace::Json::as_array).unwrap();
        assert!(!events.is_empty());
        for stage in ["controller.round", "advisor.select", "pipeline.update_clusters"] {
            assert!(
                events.iter().any(|e| {
                    e.get("name").and_then(qb_trace::Json::as_str) == Some(stage)
                        && e.get("ph").and_then(qb_trace::Json::as_str) == Some("X")
                }),
                "missing complete span for {stage}"
            );
        }
    }

    #[test]
    fn durable_run_matches_plain_run_bit_identically() {
        let dir = std::env::temp_dir()
            .join(format!("qb-controller-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plain = run(quick_cfg(Strategy::Auto));
        let mut cfg = quick_cfg(Strategy::Auto);
        cfg.pipeline.durability = Some(DurabilityConfig::new(&dir).snapshot_every_rounds(2));
        let durable = run(cfg);
        assert_eq!(durable.health, plain.health, "durable layer must not perturb the run");
        assert_eq!(durable.indexes, plain.indexes);
        assert_eq!(durable.total_queries, plain.total_queries);
        assert!(dir.read_dir().map(|mut d| d.next().is_some()).unwrap_or(false),
            "durable run must leave snapshot/WAL state behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_run_resumes_with_a_current_manager() {
        let dir = std::env::temp_dir()
            .join(format!("qb-controller-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = quick_cfg(Strategy::Auto);
        cfg.pipeline.durability = Some(DurabilityConfig::new(&dir).snapshot_every_rounds(2));
        // Reopen under the pipeline config the controller ran with.
        let qb_cfg = Qb5000Config { max_clusters: 3, ..cfg.pipeline.clone() };
        run(cfg);
        let (pipeline, report) = DurablePipeline::open(qb_cfg).expect("the run's directory reopens");
        let state = report.manager.expect("the snapshot carries the manager");
        let specs = FORECAST_BLEND.iter().map(|&(h, _)| HorizonSpec::hourly(h)).collect();
        let lr = || Box::new(LinearRegression::default()) as Box<dyn Forecaster>;
        let manager = ForecastManager::restore(specs, lr, state, pipeline.bot())
            .expect("the manager restores against the recovered pipeline");
        assert!(manager.retrain_count > 0, "the run trained its manager");
        assert!(manager.is_current(pipeline.bot()), "the recovered manager serves the recovered clusters");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_respected() {
        let mut cfg = quick_cfg(Strategy::Auto);
        cfg.index_budget = 2;
        let result = run(cfg);
        assert!(result.indexes.len() <= 2);
    }
}
