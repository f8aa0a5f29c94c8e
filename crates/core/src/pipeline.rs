//! The QB5000 pipeline: Pre-Processor → Clusterer → Forecaster (§3).

use qb_clusterer::{
    ClustererConfig, ClustererState, FeatureSampler, OnlineClusterer, TemplateSnapshot,
    UpdateReport,
};
use qb_forecast::{Forecaster, WindowSpec};
use qb_obs::Recorder;
use qb_parallel::ThreadPool;
use qb_preprocessor::{
    BatchItem, BatchReport, PreProcessor, PreProcessorConfig, PreProcessorState, TemplateId,
};
use qb_timeseries::{Interval, Minute, MINUTES_PER_DAY};
use qb_trace::{TraceDump, Tracer};

use crate::accuracy::HorizonAccuracy;
use crate::durable::DurabilityConfig;
use crate::error::Error;

/// Which feature the Clusterer groups templates by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureMode {
    /// Arrival-rate history feature (§5.1) — QB5000's choice.
    ArrivalRate,
    /// Logical SQL-structure feature — the §7.7 AUTO-LOGICAL ablation.
    Logical,
}

/// The clusterer settings that go with [`FeatureMode::Logical`]:
/// inverse-L2 similarity at a looser ρ of 0.30 (§7.7 adjusts ρ so the big
/// clusters have comparable volume).
pub const LOGICAL_CLUSTERER: ClustererConfig = ClustererConfig {
    rho: 0.30,
    metric: qb_clusterer::SimilarityMetric::InverseL2,
    adaptive_trigger: false,
};

/// Sampled timestamps in each template's clustering feature (§5.1). The
/// paper samples 10 000 over a month of full-scale traffic; the
/// scaled-down traces here need proportionally fewer, and feature cost
/// grows linearly with the count.
pub const FEATURE_POINTS: usize = 500;

/// The trailing window, in minutes, that features are sampled from and
/// cluster volumes are summed over: one month, as in §5.1. Features read
/// whole hours ([`FEATURE_INTERVAL`]), which every history keeps for its
/// whole length.
pub const FEATURE_WINDOW: Minute = 31 * MINUTES_PER_DAY;

/// Aggregation interval around each sampled timestamp: an hour, the
/// interval the forecasts are made at, so templates are grouped by the
/// hourly shape the forecaster models.
pub const FEATURE_INTERVAL: Interval = Interval::HOUR;

/// Seed of the feature-timestamp sampler; each update mixes in its own
/// time. Fixed so that any two runs over the same statements cluster
/// alike.
pub const FEATURE_SEED: u64 = 0x5000;

/// Framework configuration.
///
/// Construct via the validating [`Qb5000Config::builder`] (rejects ρ
/// outside `(0, 1]`, a zero cluster count, non-ratio coverage targets) or
/// struct-update syntax on [`Qb5000Config::default`] for trusted values.
#[derive(Debug, Clone)]
pub struct Qb5000Config {
    pub preprocessor: PreProcessorConfig,
    pub clusterer: ClustererConfig,
    /// Clustering feature (arrival-rate vs. logical ablation).
    pub feature_mode: FeatureMode,
    /// How many highest-volume clusters the Forecaster models (§5.3; the
    /// paper models enough clusters to cover ≥95 % of the volume, which is
    /// 3–5 on its traces).
    pub max_clusters: usize,
    /// Volume-coverage target that can stop earlier than `max_clusters`.
    pub coverage_target: f64,
    /// Observability recorder handed to every stage at construction.
    /// Defaults to [`Recorder::disabled`], which makes every metric
    /// operation a no-op.
    pub recorder: Recorder,
    /// Structured tracer (decision lineage + flight recorder) handed to
    /// every stage at construction. Defaults to [`Tracer::disabled`],
    /// which makes every trace operation a no-op.
    pub tracer: Tracer,
    /// Durable-state policy. `None` (the default) keeps the pipeline fully
    /// in-memory: [`crate::DurablePipeline::open`] then opens it with no
    /// store. `Some` makes that handle persist a snapshot + WAL lineage
    /// under the configured directory and recover from it bit-identically.
    pub durability: Option<DurabilityConfig>,
    /// Forecast serving. `None` (the default) keeps serving off; `Some`
    /// makes every cluster update publish a membership patch (and
    /// [`crate::ForecastManager::ensure_trained`] publish fresh curves)
    /// into the service's epoch-swapped snapshot, which any number of
    /// [`crate::ForecastReader`] handles query concurrently; their
    /// steady-state reads take no lock.
    pub serve: Option<crate::serve::ForecastService>,
    /// Cold-start forecasting for templates outside the trained cluster
    /// set. `false` (the default) serves such templates the classic
    /// `Missing` answer; `true` makes each retrain round also publish
    /// seeded per-template estimates — the assigned cluster's forecast
    /// scaled by the template's volume share, or a population prior when
    /// no usable assignment exists — so readers get a typed `ColdStart`
    /// answer instead of waiting a full history window. Warm (tracked
    /// cluster) forecasts are byte-identical either way.
    pub cold_start: bool,
}

impl Default for Qb5000Config {
    fn default() -> Self {
        Self {
            preprocessor: PreProcessorConfig::default(),
            clusterer: ClustererConfig::default(),
            feature_mode: FeatureMode::ArrivalRate,
            max_clusters: 5,
            coverage_target: 0.95,
            recorder: Recorder::disabled(),
            tracer: Tracer::disabled(),
            durability: None,
            serve: None,
            cold_start: false,
        }
    }
}

/// Training-span policy for [`QueryBot5000::forecast_job_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobSpan {
    /// `window + 4·horizon + 8` steps — enough history for several windows
    /// past the horizon, without assuming weeks of recorded data.
    Auto,
    /// An explicit training span in steps of the job's interval (the paper
    /// trains on up to three weeks). Clamped to the recorded history, so an
    /// over-long span never fabricates a zero-traffic prefix.
    Steps(usize),
}

impl JobSpan {
    /// The concrete step count for a given window/horizon.
    fn steps(self, window: usize, horizon: usize) -> usize {
        match self {
            JobSpan::Auto => window + 4 * horizon + 8,
            JobSpan::Steps(n) => n,
        }
    }
}

/// A tracked (modeled) cluster.
#[derive(Debug, Clone)]
pub struct ClusterInfo {
    pub id: qb_clusterer::ClusterId,
    /// Query volume in the last feature window.
    pub volume: f64,
    /// Member templates.
    pub members: Vec<TemplateId>,
}

/// Plain-data form of [`ClusterInfo`] for durable serialization.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterInfoState {
    pub id: u64,
    pub volume: f64,
    pub members: Vec<u32>,
}

impl ClusterInfo {
    /// Flattens into the plain-data durable form.
    pub fn export_state(&self) -> ClusterInfoState {
        ClusterInfoState {
            id: self.id.0,
            volume: self.volume,
            members: self.members.iter().map(|m| m.0).collect(),
        }
    }

    /// Inverse of [`ClusterInfo::export_state`].
    pub fn from_state(state: ClusterInfoState) -> Self {
        ClusterInfo {
            id: qb_clusterer::ClusterId(state.id),
            volume: state.volume,
            members: state.members.into_iter().map(TemplateId).collect(),
        }
    }
}

/// Plain-data snapshot of a [`QueryBot5000`]: the Pre-Processor's template
/// table, the Clusterer's assignment state, and the pipeline-level
/// bookkeeping (ingest accounting, order detectors). Everything needed to
/// continue ingesting with identical behavior — the durable snapshot
/// payload minus the forecaster and tracer sections. The tracked clusters
/// are not part of it: [`QueryBot5000::restore`] selects them again.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineState {
    pub pre: PreProcessorState,
    pub clusterer: ClustererState,
    pub last_update: Option<Minute>,
    pub shift_triggers: u64,
    pub ingested_statements: u64,
    pub ingested_arrivals: u64,
    pub deduplicated: u64,
    pub reordered: u64,
    pub last_ingest_minute: Option<Minute>,
    pub last_ingest_event: Option<(Minute, u64)>,
}

/// End-to-end ingest accounting for the resilience layer: how much of the
/// offered stream was accepted, rejected, or arrived suspiciously
/// (duplicate / out-of-order delivery), plus each stage's last error.
///
/// The accounting identity `ingested_statements + rejected_statements ==
/// total ingest calls` always holds — nothing is silently dropped.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineHealth {
    /// Statements accepted by the Pre-Processor.
    pub ingested_statements: u64,
    /// Weighted arrivals accepted.
    pub ingested_arrivals: u64,
    /// Statements rejected (quarantined) by the Pre-Processor.
    pub rejected_statements: u64,
    /// Weighted arrivals rejected.
    pub rejected_arrivals: u64,
    /// Ingest calls identical (same minute + SQL) to the immediately
    /// preceding call. These are still ingested — two arrivals of one
    /// query in one minute are legitimate — but a high rate flags
    /// duplicate delivery upstream.
    pub deduplicated: u64,
    /// Ingest calls whose timestamp ran backwards relative to the previous
    /// call. Arrival histories absorb them (time-keyed storage), but the
    /// count flags out-of-order delivery upstream.
    pub reordered: u64,
    /// Per-stage last error as `(stage, message)`, most recent per stage.
    pub last_errors: Vec<(&'static str, String)>,
    /// Worker threads the pipeline runs with (the ingest and feature pool
    /// resolved from `QB_THREADS` at assembly; a controller run reports
    /// `ControllerConfig::threads`; 1 = sequential).
    pub threads_used: usize,
    /// Rolling forecast-accuracy rows, one per tracked horizon. Empty
    /// unless an [`crate::AccuracyTracker`] scores this pipeline's
    /// predictions (attach via [`PipelineHealth::with_accuracy`]).
    pub forecast_accuracy: Vec<HorizonAccuracy>,
    /// Flight-recorder dumps captured so far (divergence, degradation,
    /// quarantine spikes, manual triggers) — oldest first. Empty unless
    /// the pipeline was assembled with an enabled [`Tracer`].
    pub trace_dumps: Vec<TraceDump>,
    /// Epoch of the forecast snapshot currently being served (`None`
    /// when the pipeline was assembled without [`Qb5000Config::serve`];
    /// `Some(0)` when serving is on but nothing has been published yet).
    /// The same number appears as the `serve.epoch` gauge in
    /// [`qb_obs::MetricsSnapshot`] renderings, so operators can spot
    /// serving staleness from either report.
    pub serve_epoch: Option<u64>,
    /// SLO alerts firing at report time, in rule declaration order.
    /// Empty unless a [`qb_monitor::Monitor`] watches this run (attach
    /// via `ControllerConfig::builder().monitor(...)`).
    pub active_alerts: Vec<qb_monitor::ActiveAlert>,
}

/// The assembled framework.
pub struct QueryBot5000 {
    config: Qb5000Config,
    pre: PreProcessor,
    clusterer: OnlineClusterer,
    /// Clusters selected for modeling at the last update, largest first.
    tracked: Vec<ClusterInfo>,
    /// When the clusters were last rebuilt.
    last_update: Option<Minute>,
    /// Count of early re-clusterings triggered by unseen-template bursts.
    pub shift_triggers: u64,
    /// Accepted-statement / accepted-arrival counters for `health()`.
    ingested_statements: u64,
    ingested_arrivals: u64,
    deduplicated: u64,
    reordered: u64,
    /// Timestamp of the previous ingest call (order detector).
    last_ingest_minute: Option<Minute>,
    /// (minute, SQL fingerprint) of the previous ingest call (duplicate
    /// detector; a fingerprint avoids retaining every SQL string).
    last_ingest_event: Option<(Minute, u64)>,
    /// Wall time per cluster rebuild (`pipeline.update_clusters`).
    update_time: qb_obs::Histogram,
    /// Early re-clusterings (`pipeline.shift_triggers`), mirroring
    /// [`QueryBot5000::shift_triggers`] onto the recorder.
    shift_trigger_metric: qb_obs::Counter,
    /// Worker pool for ingest ticks and feature extraction, sized from
    /// `QB_THREADS` once at assembly: resolving it reads the cgroup CPU
    /// quota when the variable is unset, which costs more than a small
    /// tick's whole ingest.
    pool: ThreadPool,
}

impl QueryBot5000 {
    /// Assembles the pipeline. The configured [`Recorder`] is installed
    /// into every stage here, so per-stage metrics (`preprocessor.*`,
    /// `clusterer.*`, `pipeline.*`) flow into one registry.
    pub fn new(mut config: Qb5000Config) -> Self {
        if let Some(serve) = &mut config.serve {
            serve.set_recorder(&config.recorder);
            serve.set_tracer(&config.tracer);
        }
        let mut pre = PreProcessor::new(config.preprocessor.clone());
        pre.set_recorder(&config.recorder);
        pre.set_tracer(&config.tracer);
        let mut clusterer = OnlineClusterer::new(config.clusterer.clone());
        clusterer.set_recorder(&config.recorder);
        clusterer.set_tracer(&config.tracer);
        config.tracer.bind_recorder(&config.recorder);
        let update_time = config.recorder.histogram("pipeline.update_clusters");
        let shift_trigger_metric = config.recorder.counter("pipeline.shift_triggers");
        Self {
            config,
            pre,
            clusterer,
            tracked: Vec::new(),
            last_update: None,
            shift_triggers: 0,
            ingested_statements: 0,
            ingested_arrivals: 0,
            deduplicated: 0,
            reordered: 0,
            last_ingest_minute: None,
            last_ingest_event: None,
            update_time,
            shift_trigger_metric,
            pool: ThreadPool::default(),
        }
    }

    /// The recorder the pipeline was assembled with (disabled unless the
    /// config installed one). Clone it to attach more components — e.g.
    /// [`crate::ForecastManager::set_recorder`] — to the same registry.
    pub fn recorder(&self) -> &Recorder {
        &self.config.recorder
    }

    /// The tracer the pipeline was assembled with (disabled unless the
    /// config installed one). Clone it to attach more components — e.g.
    /// [`crate::ForecastManager::set_tracer`] — to the same flight
    /// recorder, or query it ([`Tracer::view`]) for lineage and export.
    pub fn tracer(&self) -> &Tracer {
        &self.config.tracer
    }

    /// Forwards one query to the framework (the DBMS-side hook).
    ///
    /// Returns the template id the query mapped to. If the burst of
    /// previously-unseen templates crosses the configured threshold, the
    /// clusters are rebuilt immediately (§5.2's workload-shift trigger).
    pub fn ingest(&mut self, t: Minute, sql: &str) -> Result<TemplateId, Error> {
        self.ingest_weighted(t, sql, 1)
    }

    /// Weighted ingest for batched replay.
    ///
    /// Rejected statements are quarantined inside the Pre-Processor (see
    /// [`PreProcessor::quarantine`]) and counted in [`QueryBot5000::health`];
    /// the `Err` (an [`Error::PreProcess`]) reports the rejection but the
    /// pipeline stays healthy.
    pub fn ingest_weighted(
        &mut self,
        t: Minute,
        sql: &str,
        count: u64,
    ) -> Result<TemplateId, Error> {
        self.note_delivery(t, sql);
        let id = self.pre.ingest_weighted(t, sql, count)?;
        self.ingested_statements += 1;
        self.ingested_arrivals += count;
        self.observe(&[u64::from(id.0)], t);
        Ok(id)
    }

    /// Ingests a tick's worth of statements on the pipeline's worker pool
    /// (sized from `QB_THREADS` at assembly). See
    /// [`QueryBot5000::ingest_batch_with`].
    pub fn ingest_batch(&mut self, batch: &[BatchItem<'_>]) -> BatchReport {
        let pool = self.pool.clone();
        self.ingest_batch_with(&pool, batch)
    }

    /// Ingests a tick's worth of statements on an explicit worker pool,
    /// which a tick below the engine's fan-out floor does not use.
    ///
    /// State-equivalent to calling [`QueryBot5000::ingest_weighted`] per
    /// item in order — and bit-identical across pool widths and batch
    /// splits (see [`PreProcessor::ingest_batch`]) — except that the
    /// clusterer consumes the tick's deduplicated sighting feed at once:
    /// the workload-shift trigger (§5.2) is evaluated once per batch, and
    /// when it fires, clusters rebuild at the batch's final arrival minute.
    ///
    /// Rejected statements are quarantined and counted exactly as one at a
    /// time; the returned [`BatchReport`] carries the batch's accounting.
    pub fn ingest_batch_with(
        &mut self,
        pool: &ThreadPool,
        batch: &[BatchItem<'_>],
    ) -> BatchReport {
        let Some(last) = batch.last() else {
            return BatchReport::default();
        };
        for item in batch {
            self.note_delivery(item.minute, item.sql);
        }
        let report = self.pre.ingest_batch(pool, batch);
        self.ingested_statements += report.statements;
        self.ingested_arrivals += report.arrivals;
        let keys: Vec<u64> = report.sighted.iter().map(|id| u64::from(id.0)).collect();
        self.observe(&keys, last.minute);
        report
    }

    /// Delivery-order accounting (observability only — histories are
    /// time-keyed and absorb duplicates and reordering either way).
    fn note_delivery(&mut self, t: Minute, sql: &str) {
        use std::hash::{Hash, Hasher};
        if self.last_ingest_minute.is_some_and(|prev| t < prev) {
            self.reordered += 1;
        }
        self.last_ingest_minute = Some(t);
        let mut h = std::collections::hash_map::DefaultHasher::new();
        sql.hash(&mut h);
        let event = (t, h.finish());
        if self.last_ingest_event == Some(event) {
            self.deduplicated += 1;
        }
        self.last_ingest_event = Some(event);
    }

    /// Feeds sighted templates to the clusterer and rebuilds the clusters
    /// at `now` when the unseen-template burst trips the shift trigger.
    fn observe(&mut self, keys: &[u64], now: Minute) {
        if self.clusterer.observe_batch(keys) {
            self.shift_triggers += 1;
            self.shift_trigger_metric.inc();
            self.update_clusters(now);
        }
    }

    /// Exports the complete mutable pipeline state as plain data (durable
    /// snapshots). Pair with [`QueryBot5000::restore`] to continue an
    /// identical run in a fresh process.
    pub fn export_state(&self) -> PipelineState {
        PipelineState {
            pre: self.pre.export_state(),
            clusterer: self.clusterer.export_state(),
            last_update: self.last_update,
            shift_triggers: self.shift_triggers,
            ingested_statements: self.ingested_statements,
            ingested_arrivals: self.ingested_arrivals,
            deduplicated: self.deduplicated,
            reordered: self.reordered,
            last_ingest_minute: self.last_ingest_minute,
            last_ingest_event: self.last_ingest_event,
        }
    }

    /// Rebuilds a pipeline from exported state. `config` must match the
    /// exporting instance's configuration; the configured recorder and
    /// tracer are installed into the restored stages exactly as
    /// [`QueryBot5000::new`] would. The clusterer recomputes its centres and
    /// volumes, and the tracked clusters are selected from them again under
    /// `config`'s `max_clusters` and `coverage_target`.
    pub fn restore(config: Qb5000Config, state: PipelineState) -> Result<Self, Error> {
        let mut bot = QueryBot5000::new(config);
        let mut pre = PreProcessor::restore(bot.config.preprocessor.clone(), state.pre)?;
        pre.set_recorder(&bot.config.recorder);
        pre.set_tracer(&bot.config.tracer);
        bot.pre = pre;
        let mut clusterer =
            OnlineClusterer::restore(bot.config.clusterer.clone(), state.clusterer);
        clusterer.set_recorder(&bot.config.recorder);
        clusterer.set_tracer(&bot.config.tracer);
        bot.clusterer = clusterer;
        bot.refresh_tracked();
        bot.last_update = state.last_update;
        bot.shift_triggers = state.shift_triggers;
        bot.ingested_statements = state.ingested_statements;
        bot.ingested_arrivals = state.ingested_arrivals;
        bot.deduplicated = state.deduplicated;
        bot.reordered = state.reordered;
        bot.last_ingest_minute = state.last_ingest_minute;
        bot.last_ingest_event = state.last_ingest_event;
        Ok(bot)
    }

    /// The resilience-layer health report: ingest accounting plus the
    /// Pre-Processor's quarantine view. Combine with
    /// [`crate::manager::ForecastManager::health`] via
    /// [`PipelineHealth::with_forecast`] for the full per-stage picture.
    pub fn health(&self) -> PipelineHealth {
        let q = self.pre.quarantine();
        let mut last_errors = Vec::new();
        if let Some(e) = q.last_error() {
            last_errors.push(("pre-processor", e.to_string()));
        }
        PipelineHealth {
            ingested_statements: self.ingested_statements,
            ingested_arrivals: self.ingested_arrivals,
            rejected_statements: q.rejected_statements(),
            rejected_arrivals: q.rejected_arrivals(),
            deduplicated: self.deduplicated,
            reordered: self.reordered,
            last_errors,
            threads_used: self.pool.threads(),
            forecast_accuracy: Vec::new(),
            trace_dumps: self.config.tracer.dumps(),
            serve_epoch: self.config.serve.as_ref().map(|s| s.epoch()),
            active_alerts: Vec::new(),
        }
    }

    /// Rebuilds cluster assignments from the current arrival histories
    /// (the periodic Clusterer invocation — the paper runs it daily).
    pub fn update_clusters(&mut self, now: Minute) -> UpdateReport {
        // Each cluster refresh advances the trace's logical clock: event
        // ordering below is round-relative, never wall-clock.
        self.config.tracer.begin_round(now);
        let _stage = self.config.tracer.stage("pipeline.update_clusters", &self.update_time);
        let sampler = FeatureSampler::random(
            now,
            FEATURE_WINDOW,
            FEATURE_POINTS,
            FEATURE_INTERVAL,
            // Derive the sampler seed from the update time so features stay
            // comparable within one update but refresh across updates.
            FEATURE_SEED ^ (now as u64).rotate_left(17),
        );
        let window_start = now - FEATURE_WINDOW;
        let feature_mode = self.config.feature_mode;
        // Feature extraction fans out over fixed-size template chunks:
        // chunk boundaries depend only on the template count, and the map
        // preserves input order, so any pool width yields the same
        // snapshot vector bit for bit.
        const SNAPSHOT_CHUNK: usize = 256;
        let chunks: Vec<&[qb_preprocessor::TemplateEntry]> =
            self.pre.templates().chunks(SNAPSHOT_CHUNK).collect();
        let sampler = &sampler;
        let snapshots: Vec<TemplateSnapshot> = self
            .pool
            .map(chunks, |_, chunk| {
                chunk
                    .iter()
                    .filter_map(|e| {
                        let first = e.history.first_seen()?;
                        let last = e.history.last_seen()?;
                        let feature = match feature_mode {
                            FeatureMode::ArrivalRate => sampler.extract(&e.history, first),
                            FeatureMode::Logical => qb_clusterer::TemplateFeature::full(
                                e.logical.to_vector(16, 32),
                            ),
                        };
                        let volume = e.history.count_range(window_start, now) as f64;
                        Some(TemplateSnapshot {
                            key: e.id.0 as u64,
                            feature,
                            volume,
                            last_seen: last,
                        })
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        let report = self.clusterer.update(snapshots, now);
        self.refresh_tracked();
        self.last_update = Some(now);
        // With serving on, every cluster refresh publishes a membership
        // patch: readers route templates against the new assignments
        // immediately, while entries whose identity didn't change keep
        // their curves by structural sharing.
        if let Some(serve) = &self.config.serve {
            serve.publish_membership(now, &self.tracked);
        }
        report
    }

    fn refresh_tracked(&mut self) {
        let total: f64 = self.clusterer.clusters().map(|c| c.volume).sum();
        let mut tracked = Vec::new();
        let mut covered = 0.0;
        for c in self.clusterer.largest_clusters(self.config.max_clusters) {
            if total > 0.0 && covered / total >= self.config.coverage_target {
                break;
            }
            covered += c.volume;
            tracked.push(ClusterInfo {
                id: c.id,
                volume: c.volume,
                members: c.members.iter().map(|&k| TemplateId(k as u32)).collect(),
            });
        }
        self.tracked = tracked;
    }

    /// The clusters currently selected for modeling, largest first —
    /// refreshed by each [`QueryBot5000::update_clusters`] call under the
    /// configured `max_clusters` / `coverage_target` policy (§5.3).
    /// Aggregate one entry's arrivals with
    /// [`QueryBot5000::cluster_series`].
    pub fn tracked_clusters(&self) -> &[ClusterInfo] {
        &self.tracked
    }

    /// Fraction of total workload volume the `k` largest clusters cover
    /// (Figure 5) — the quantity `coverage_target` thresholds when
    /// [`QueryBot5000::tracked_clusters`] is selected.
    pub fn coverage_ratio(&self, k: usize) -> f64 {
        self.clusterer.coverage_ratio(k)
    }

    /// The forecast-serving service the pipeline publishes into, when the
    /// config enabled one ([`Qb5000Config::serve`]). Use it to create
    /// [`crate::ForecastReader`] handles.
    pub fn serve(&self) -> Option<&crate::serve::ForecastService> {
        self.config.serve.as_ref()
    }

    /// Whether cold-start forecasting is enabled
    /// ([`Qb5000Config::cold_start`]): retrain rounds then also publish
    /// seeded estimates for templates outside the trained cluster set.
    pub fn cold_start_enabled(&self) -> bool {
        self.config.cold_start
    }

    /// The Pre-Processor, for stats inspection (Tables 1, 2, 4).
    pub fn preprocessor(&self) -> &PreProcessor {
        &self.pre
    }

    /// The trailing window (minutes) over which cluster volumes and
    /// features are computed: [`FEATURE_WINDOW`].
    pub fn feature_window(&self) -> i64 {
        FEATURE_WINDOW
    }

    /// Registers a reader of per-minute counts that looks up to `lookback`
    /// minutes before a template's newest arrival (a series at a sub-hour
    /// interval, a read whose range ends inside an hour); see
    /// [`PreProcessor::keep_minutes`]. Whole-hour reads need no
    /// registration. Register before ingesting what the reader reads.
    pub fn keep_minutes(&mut self, lookback: Minute) {
        self.pre.keep_minutes(lookback);
    }

    /// The Clusterer, for stats inspection.
    pub fn clusterer(&self) -> &OnlineClusterer {
        &self.clusterer
    }

    /// Aggregated arrival series (sum over member templates) for one
    /// tracked cluster over `[start, end)` at `interval` — the series the
    /// Forecaster trains and scores on. Pair with
    /// [`QueryBot5000::tracked_clusters`] for the cluster list.
    pub fn cluster_series(
        &self,
        cluster: &ClusterInfo,
        start: Minute,
        end: Minute,
        interval: Interval,
    ) -> Vec<f64> {
        let n = interval.buckets_between(start, end);
        let mut out = vec![0.0; n];
        for &m in &cluster.members {
            self.pre.template(m).history.add_dense_series(start, end, interval, &mut out);
        }
        out
    }

    /// Builds a forecast job over the tracked clusters: training series
    /// ending at `now`, for a model with a `window`-step input predicting
    /// `horizon` steps of `interval` ahead. `span` chooses the training
    /// span ([`JobSpan::Auto`] for a derived default, [`JobSpan::Steps`]
    /// for an explicit count); the lookback is clamped to the earliest
    /// data actually ingested, so an over-long span never fabricates a
    /// zero-traffic prefix.
    ///
    /// Returns `None` when no clusters are tracked yet
    /// ([`QueryBot5000::update_clusters`] has not run) or the recorded
    /// history is shorter than `window + horizon + 1` steps.
    pub fn forecast_job_with(
        &self,
        now: Minute,
        interval: Interval,
        window: usize,
        horizon: usize,
        span: JobSpan,
    ) -> Option<ForecastJob> {
        let clusters = &self.tracked;
        if clusters.is_empty() {
            return None;
        }
        let (start, end) = self.training_range(clusters, now, interval, window, horizon, span);
        let series = self.all_cluster_series(clusters, start, end, interval);
        ForecastJob::over(series, clusters, window, horizon)
    }

    /// The `[start, end)` a job built at `now` trains over: `span` steps of
    /// `interval` back from `now`'s bucket, clamped to the earliest data
    /// recorded for any member — training on zero-filled pre-ingest
    /// buckets systematically biases the models low.
    pub(crate) fn training_range(
        &self,
        clusters: &[ClusterInfo],
        now: Minute,
        interval: Interval,
        window: usize,
        horizon: usize,
        span: JobSpan,
    ) -> (Minute, Minute) {
        let end = interval.bucket_start(now);
        let span = span.steps(window, horizon).max(window + horizon + 1) as i64;
        let start = end - span * interval.as_minutes();
        let earliest = clusters
            .iter()
            .flat_map(|c| c.members.iter())
            .filter_map(|&m| self.pre.template(m).history.first_seen())
            .min();
        let first_bucket = earliest.map_or(start, |first| interval.bucket_start(first));
        (start.max(first_bucket), end)
    }

    /// [`QueryBot5000::cluster_series`] of every cluster in `clusters`,
    /// cluster-major.
    pub(crate) fn all_cluster_series(
        &self,
        clusters: &[ClusterInfo],
        start: Minute,
        end: Minute,
        interval: Interval,
    ) -> Vec<Vec<f64>> {
        clusters.iter().map(|c| self.cluster_series(c, start, end, interval)).collect()
    }
}

/// A ready-to-train forecasting task over the tracked clusters.
pub struct ForecastJob {
    /// Cluster-major training series (linear space).
    pub series: Vec<Vec<f64>>,
    pub spec: WindowSpec,
    /// The clusters each series row corresponds to.
    pub clusters: Vec<ClusterInfo>,
}

impl ForecastJob {
    /// A job training on `series` (one row per cluster of `clusters`), or
    /// `None` when they are shorter than `window + horizon + 1` steps.
    pub(crate) fn over(
        series: Vec<Vec<f64>>,
        clusters: &[ClusterInfo],
        window: usize,
        horizon: usize,
    ) -> Option<Self> {
        if series.first().is_some_and(|s| s.len() < window + horizon + 1) {
            return None;
        }
        Some(Self { series, spec: WindowSpec { window, horizon }, clusters: clusters.to_vec() })
    }

    /// Fits the model on the job's series and predicts each tracked
    /// cluster's arrival rate `spec.horizon` intervals past the end of the
    /// training data. Training failures surface as [`Error::Forecast`].
    pub fn fit_predict(&self, model: &mut dyn Forecaster) -> Result<Vec<f64>, Error> {
        model.fit(&self.series, self.spec)?;
        let recent: Vec<Vec<f64>> = self
            .series
            .iter()
            .map(|s| s[s.len().saturating_sub(self.spec.window)..].to_vec())
            .collect();
        Ok(model.predict(&recent))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_cyclic(bot: &mut QueryBot5000, days: i64) {
        for minute in 0..days * MINUTES_PER_DAY {
            let hour = (minute / 60) % 24;
            let day_volume = if (6..22).contains(&hour) { 30 } else { 3 };
            bot.ingest_weighted(minute, "SELECT a FROM day_tbl WHERE id = 1", day_volume)
                .unwrap();
            // Anti-phase template.
            let night_volume = if (6..22).contains(&hour) { 2 } else { 25 };
            bot.ingest_weighted(minute, "SELECT b FROM night_tbl WHERE id = 1", night_volume)
                .unwrap();
            // A scaled copy of the day pattern: must co-cluster with it.
            bot.ingest_weighted(minute, "SELECT c FROM day_tbl2 WHERE id = 1", day_volume * 3)
                .unwrap();
        }
    }

    #[test]
    fn clusters_by_arrival_pattern_not_table() {
        let mut bot = QueryBot5000::new(Qb5000Config::default());
        feed_cyclic(&mut bot, 4);
        bot.update_clusters(4 * MINUTES_PER_DAY);
        assert_eq!(bot.clusterer().num_clusters(), 2, "day-like vs night-like");
        // The two day-shaped templates share a cluster even though they
        // touch different tables.
        let tracked = bot.tracked_clusters();
        assert!(!tracked.is_empty());
        let largest = &tracked[0];
        assert_eq!(largest.members.len(), 2);
    }

    #[test]
    fn tracked_clusters_ordered_by_volume() {
        let mut bot = QueryBot5000::new(Qb5000Config::default());
        feed_cyclic(&mut bot, 3);
        bot.update_clusters(3 * MINUTES_PER_DAY);
        let t = bot.tracked_clusters();
        for w in t.windows(2) {
            assert!(w[0].volume >= w[1].volume);
        }
    }

    #[test]
    fn cluster_series_sums_members() {
        let mut bot = QueryBot5000::new(Qb5000Config::default());
        feed_cyclic(&mut bot, 2);
        bot.update_clusters(2 * MINUTES_PER_DAY);
        let largest = bot.tracked_clusters()[0].clone();
        let series =
            bot.cluster_series(&largest, 0, 2 * MINUTES_PER_DAY, Interval::HOUR);
        assert_eq!(series.len(), 48);
        // Day pattern: hour 12 ≈ (30 + 90)/min × 60; hour 2 ≈ (3+9)×60.
        assert!(series[12] > series[2] * 5.0, "{} vs {}", series[12], series[2]);
    }

    /// `cluster_series` accumulates members in place; the result must be
    /// the member-order sum of their `dense_series`, bit for bit — also
    /// when a member's older minutes are compacted into its hours.
    #[test]
    fn cluster_series_equals_sum_of_member_series() {
        let mut bot = QueryBot5000::new(Qb5000Config::default());
        bot.keep_minutes(MINUTES_PER_DAY);
        feed_cyclic(&mut bot, 3);
        // One more day of records for one member only: its history now
        // spans both runs while its cluster-mate's newest day is empty.
        for minute in 3 * MINUTES_PER_DAY..4 * MINUTES_PER_DAY {
            bot.ingest_weighted(minute, "SELECT a FROM day_tbl WHERE id = 1", 7).unwrap();
        }
        bot.update_clusters(4 * MINUTES_PER_DAY);
        let largest = bot.tracked_clusters()[0].clone();
        assert!(largest.members.len() >= 2);
        let stored = |m| bot.preprocessor().template(m).history.export_state();
        assert!(largest.members.iter().all(|&m| !stored(m).compacted.is_empty()));

        for (start, end, interval) in [
            (0, 4 * MINUTES_PER_DAY, Interval::HOUR),
            (90, 4 * MINUTES_PER_DAY - 45, Interval::minutes(30)),
            (2 * MINUTES_PER_DAY, 4 * MINUTES_PER_DAY, Interval::DAY),
        ] {
            let mut want = vec![0.0; interval.buckets_between(start, end)];
            for &m in &largest.members {
                let series = bot.preprocessor().template_series(m, start, end, interval);
                want.iter_mut().zip(series).for_each(|(w, v)| *w += v);
            }
            let got = bot.cluster_series(&largest, start, end, interval);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "[{start}, {end}) at {interval:?}");
        }
    }

    /// Hour-aligned cluster series are read from the histories' per-hour
    /// sums; they must equal the members' one-minute series folded into
    /// the same buckets, bit for bit — with late arrivals into closed hours
    /// on both sides of the compaction cutoff, the first arrival's hour
    /// split between the two runs, and one minute off alignment at either
    /// end.
    #[test]
    fn hour_aligned_cluster_series_equals_folded_minute_series() {
        let mut bot = QueryBot5000::new(Qb5000Config::default());
        bot.keep_minutes(MINUTES_PER_DAY + 17);
        feed_cyclic(&mut bot, 3);
        let late = [45, MINUTES_PER_DAY + 59, 2 * MINUTES_PER_DAY - 61, 2 * MINUTES_PER_DAY + 600];
        for t in late {
            bot.ingest_weighted(t, "SELECT a FROM day_tbl WHERE id = 1", 11).unwrap();
            bot.ingest_weighted(t + 1, "SELECT c FROM day_tbl2 WHERE id = 1", 5).unwrap();
        }
        bot.update_clusters(3 * MINUTES_PER_DAY);
        let largest = bot.tracked_clusters()[0].clone();
        assert!(largest.members.len() >= 2);
        // The newest arrival is day 3's last minute: a day and 17 minutes
        // before it is 23:42 on day 2, in the hour from 23:00.
        let cutoff = 2 * MINUTES_PER_DAY - 60;
        let stored = |m| bot.preprocessor().template(m).history.export_state();
        for &m in &largest.members {
            let s = stored(m);
            assert_eq!((s.raw[0].0, s.raw[1].0), (0, cutoff), "the first minute, then the rest");
            assert_eq!(s.compacted.first().map(|e| e.0), Some(0), "the first hour is split");
            assert_eq!(s.compacted.last().map(|e| e.0), Some(cutoff - 60));
        }

        let end = 3 * MINUTES_PER_DAY;
        for interval in [Interval::HOUR, Interval::TWO_HOURS, Interval::DAY] {
            for (start, end) in [(0, end), (MINUTES_PER_DAY, end - 60), (1, end), (0, end - 1)] {
                let mut want = vec![0.0; interval.buckets_between(start, end)];
                for &m in &largest.members {
                    let minutes =
                        bot.preprocessor().template_series(m, start, end, Interval::MINUTE);
                    let buckets = minutes.chunks(interval.as_minutes() as usize);
                    for (w, bucket) in want.iter_mut().zip(buckets) {
                        *w += bucket.iter().sum::<f64>();
                    }
                }
                let got = bot.cluster_series(&largest, start, end, interval);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "[{start}, {end}) at {interval:?}");
            }
        }
    }

    #[test]
    fn forecast_job_end_to_end_lr() {
        let mut bot = QueryBot5000::new(Qb5000Config::default());
        feed_cyclic(&mut bot, 6);
        bot.update_clusters(6 * MINUTES_PER_DAY);
        let job = bot
            .forecast_job_with(6 * MINUTES_PER_DAY, Interval::HOUR, 24, 1, JobSpan::Auto)
            .unwrap();
        assert_eq!(job.series.len(), bot.tracked_clusters().len());
        let mut lr = qb_forecast::LinearRegression::default();
        let pred = job.fit_predict(&mut lr).unwrap();
        // The prediction for midnight (hour 0) should be low for the
        // day cluster relative to its daytime volume.
        assert_eq!(pred.len(), job.clusters.len());
        assert!(pred.iter().all(|p| p.is_finite() && *p >= 0.0));
    }

    #[test]
    fn workload_shift_triggers_early_recluster() {
        let cfg = Qb5000Config::default();
        let mut bot = QueryBot5000::new(cfg);
        feed_cyclic(&mut bot, 2);
        bot.update_clusters(2 * MINUTES_PER_DAY);
        // (The very first ingests may have tripped the bootstrap trigger
        // before any clusters existed; only the delta matters here.)
        let before = bot.shift_triggers;
        // A flood of brand-new templates (distinct tables → distinct
        // fingerprints).
        for k in 0..40 {
            let sql = format!("SELECT z FROM brand_new_{k} WHERE id = 1");
            bot.ingest(2 * MINUTES_PER_DAY + k, &sql).unwrap();
        }
        assert!(
            bot.shift_triggers > before,
            "unseen-template burst must trigger reclustering"
        );
    }

    #[test]
    fn forecast_job_none_before_clustering() {
        let bot = QueryBot5000::new(Qb5000Config::default());
        assert!(bot.forecast_job_with(100, Interval::HOUR, 4, 1, JobSpan::Auto).is_none());
    }

    #[test]
    fn pipeline_recorder_reaches_every_stage() {
        let rec = qb_obs::Recorder::new();
        let cfg = Qb5000Config::builder().recorder(rec.clone()).build().unwrap();
        let mut bot = QueryBot5000::new(cfg);
        feed_cyclic(&mut bot, 2);
        bot.update_clusters(2 * MINUTES_PER_DAY);
        let snap = rec.snapshot();
        assert!(snap.counters["preprocessor.ingested_statements"] > 0);
        assert!(snap.histograms["clusterer.update"].count > 0);
        assert!(snap.histograms["pipeline.update_clusters"].count >= 1);
        assert!(bot.recorder().is_enabled());
    }

    #[test]
    fn tracer_reaches_every_stage_and_dumps_surface_in_health() {
        use qb_trace::{EventKind, Tracer, QUARANTINE_SPIKE};
        let tracer = Tracer::enabled();
        let cfg = Qb5000Config::builder().trace(tracer.clone()).build().unwrap();
        let mut bot = QueryBot5000::new(cfg);
        feed_cyclic(&mut bot, 2);
        bot.update_clusters(2 * MINUTES_PER_DAY);
        let view = bot.tracer().view();
        assert!(view.latest(EventKind::RoundStarted).is_some());
        assert!(view.latest(EventKind::TemplateCreated).is_some());
        assert!(view.latest(EventKind::ClustersUpdated).is_some());
        // The template lineage is explorable from the cluster decision.
        let created = view.latest(EventKind::TemplateCreated).unwrap();
        assert!(view.explain(created.id).contains("QuerySeen"));
        // A burst of malformed statements crosses the spike threshold and
        // the automatic dump lands in the health report.
        for k in 0..=QUARANTINE_SPIKE as i64 {
            let _ = bot.ingest_weighted(2 * MINUTES_PER_DAY + k, "SELEC nope", 1);
        }
        let h = bot.health();
        assert_eq!(h.trace_dumps.len(), 1);
        assert_eq!(h.trace_dumps[0].reason, "quarantine_spike");
        assert!(h.trace_dumps[0].lineage.contains("QuarantineSpike"));
    }

    #[test]
    fn health_accounts_for_every_ingest_call() {
        let mut bot = QueryBot5000::new(Qb5000Config::default());
        let mut calls = 0u64;
        for minute in 0..100 {
            bot.ingest_weighted(minute, "SELECT a FROM t WHERE id = 1", 2).unwrap();
            calls += 1;
            if minute % 10 == 0 {
                // Malformed statement: quarantined, not ingested.
                assert!(bot.ingest_weighted(minute, "SELEC a FRM", 3).is_err());
                calls += 1;
            }
        }
        let h = bot.health();
        assert_eq!(h.ingested_statements + h.rejected_statements, calls);
        assert_eq!(h.ingested_statements, 100);
        assert_eq!(h.rejected_statements, 10);
        assert_eq!(h.ingested_arrivals, 200);
        assert_eq!(h.rejected_arrivals, 30);
        assert!(h.last_errors.iter().any(|(stage, _)| *stage == "pre-processor"));
    }

    #[test]
    fn health_flags_duplicates_and_reordering() {
        let mut bot = QueryBot5000::new(Qb5000Config::default());
        bot.ingest(5, "SELECT a FROM t WHERE id = 1").unwrap();
        bot.ingest(5, "SELECT a FROM t WHERE id = 1").unwrap(); // duplicate
        bot.ingest(3, "SELECT a FROM t WHERE id = 2").unwrap(); // backwards
        bot.ingest(7, "SELECT a FROM t WHERE id = 3").unwrap();
        let h = bot.health();
        assert_eq!(h.deduplicated, 1);
        assert_eq!(h.reordered, 1);
        // Suspicious events are still ingested — the counters are
        // observability, not a filter.
        assert_eq!(h.ingested_statements, 4);
    }

    #[test]
    fn healthy_pipeline_reports_no_errors() {
        let mut bot = QueryBot5000::new(Qb5000Config::default());
        bot.ingest(0, "SELECT a FROM t WHERE id = 1").unwrap();
        let h = bot.health();
        assert!(h.last_errors.is_empty());
        assert_eq!(h.rejected_statements, 0);
    }
}
