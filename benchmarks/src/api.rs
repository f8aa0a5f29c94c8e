//! The one place the benchmark touches the workspace crates.
//!
//! Everything the harness calls in `qb5000`, `qb-workloads`,
//! `qb-preprocessor`, `qb-sqlparse`, `qb-forecast`, `qb-linalg`,
//! `qb-parallel`, `qb-dbsim` and `qb-obs` is called from this file, so the
//! public surface the benchmark pins is readable here (and listed in the
//! README). A PR that changes one of these signatures edits this adapter
//! and nothing else of the benchmark.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use qb5000::schemas::build_database;
use qb5000::{
    BatchItem, DurabilityConfig, DurablePipeline, ForecastJob, ForecastManager, ForecastQuery,
    ForecastReader, ForecastService, HorizonSpec, JobSpan, Monitor, MonitorConfig, Outcome,
    PipelineState, Qb5000Config, QueryBot5000, Recorder, RetrainOutcome, Tracer,
};
use qb_dbsim::{Database, IndexAdvisor};
use qb_forecast::{
    Forecaster, Hybrid, HybridConfig, KernelRegression, LinearRegression, Rnn, RnnConfig,
};
use qb_linalg::{cholesky_solve, Matrix};
use qb_parallel::{Parallelism, ThreadPool};
use qb_preprocessor::{bind_params, templatize, PreProcessor, PreProcessorConfig};
use qb_sqlparse::{parse_statement, Statement};
use qb_workloads::Workload;

pub use qb_workloads::{daily_cycle, QueryEvent, RateFn, TemplateSpec, TraceGenerator};

pub type Minute = i64;
pub const MINUTES_PER_HOUR: Minute = 60;

/// The advisor's horizon blend, as `ControllerConfig::forecast_horizons`
/// defaults it: the one-hour horizon weighs 0.7, any longer one 0.3.
const BLEND_NEAR: f64 = 0.7;
const BLEND_FAR: f64 = 0.3;

/// Rows per table relative to `build_database`'s base sizes.
const DB_SCALE: f64 = 0.05;

/// Index budget handed to the advisor each round.
const ADVISOR_BUDGET: usize = 2;

// ---------------------------------------------------------------------------
// Trace generation (qb-workloads)
// ---------------------------------------------------------------------------

fn trace_config(seed: u64) -> qb_workloads::TraceConfig {
    // Rounds are pulled lazily, an hour at a time; ten years never runs out.
    qb_workloads::TraceConfig { start: 0, days: 3650, scale: 1.0, seed }
}

pub fn bus_tracker_trace(seed: u64) -> TraceGenerator {
    Workload::BusTracker.generator(trace_config(seed))
}

pub fn population_trace(specs: Vec<TemplateSpec>, seed: u64) -> TraceGenerator {
    TraceGenerator::new(specs, trace_config(seed))
}

// ---------------------------------------------------------------------------
// The pipeline under test (qb5000)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    Lr,
    Hybrid,
}

fn model_factory(model: Model, width: usize) -> impl Fn() -> Box<dyn Forecaster> + Send + Sync {
    move || match model {
        Model::Lr => Box::new(LinearRegression::default()),
        Model::Hybrid => {
            let mut hybrid = Hybrid::new(HybridConfig::default());
            hybrid.set_parallelism(Parallelism::new(width));
            Box::new(hybrid)
        }
    }
}

#[derive(Debug, Clone)]
pub struct PipelineSpec {
    /// Forecast horizons in hours; one model and one serving slot each.
    pub horizons: Vec<usize>,
    pub model: Model,
    /// Pool width for ingest batches and per-horizon fits.
    pub width: usize,
    /// Enables the `qb-obs` recorder (the traced run reads stage histograms).
    pub recorded: bool,
    /// `Some` runs the pipeline through `DurablePipeline` on this directory.
    pub durable_dir: Option<PathBuf>,
}

fn batch_items(events: &[QueryEvent]) -> Vec<BatchItem<'_>> {
    events.iter().map(|ev| BatchItem { minute: ev.minute, sql: &ev.sql, count: ev.count }).collect()
}

enum Engine {
    Plain { bot: QueryBot5000, manager: ForecastManager },
    Durable(DurablePipeline),
}

/// `(slot, [(cluster id, predicted rate)])` of a synchronous pull.
pub type Pulled = Vec<(usize, Vec<(u64, f64)>)>;

/// What one `ensure_trained` round did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trained {
    Retrained,
    UpToDate,
    /// `Err`, a rollback, a backoff, or no clusters: no fresh models.
    Untrained,
}

/// What `DurablePipeline::open` found.
#[derive(Debug, Clone, Copy, Default)]
pub struct Recovery {
    pub from_snapshot: bool,
    pub frames_replayed: u64,
}

pub struct Pipeline {
    engine: Engine,
    spec: PipelineSpec,
    horizon_specs: Vec<HorizonSpec>,
    service: ForecastService,
    pool: ThreadPool,
    recorder: Recorder,
}

impl Pipeline {
    /// Assembles the pipeline the way `IndexSelectionExperiment` does: one
    /// `ForecastService` shared by the pipeline (membership publishes), the
    /// manager (retrain publishes) and the caller (per-round publishes).
    /// On a durable directory that already holds state this recovers it.
    pub fn open(spec: PipelineSpec) -> Result<(Self, Recovery), String> {
        let horizon_specs: Vec<HorizonSpec> =
            spec.horizons.iter().map(|&h| HorizonSpec::hourly(h)).collect();
        let recorder = if spec.recorded { Recorder::new() } else { Recorder::disabled() };
        let mut service = ForecastService::for_specs(&horizon_specs);
        service.set_recorder(&recorder);
        let mut builder = Qb5000Config::builder().serve(service.clone()).recorder(recorder.clone());
        if let Some(dir) = &spec.durable_dir {
            // Snapshots are cut explicitly by the replayer, so each is timed.
            builder =
                builder.durability(DurabilityConfig::new(dir).snapshot_every_rounds(u64::MAX));
        }
        let config = builder.build().map_err(|e| format!("pipeline config: {e}"))?;
        let factory = model_factory(spec.model, spec.width);
        let mut recovery = Recovery::default();
        let engine = if spec.durable_dir.is_some() {
            let (mut durable, report) =
                DurablePipeline::open(config).map_err(|e| format!("durable open: {e}"))?;
            recovery = Recovery {
                from_snapshot: report.snapshot_seq.is_some(),
                frames_replayed: report.frames_replayed,
            };
            let mut manager = match report.manager {
                Some(state) => {
                    ForecastManager::restore(horizon_specs.clone(), factory, state, durable.bot())
                        .map_err(|e| format!("manager restore: {e}"))?
                }
                None => ForecastManager::new(horizon_specs.clone(), factory),
            };
            manager.set_threads(spec.width);
            durable.attach_manager(manager);
            Engine::Durable(durable)
        } else {
            let bot = QueryBot5000::new(config);
            let mut manager = ForecastManager::new(horizon_specs.clone(), factory);
            manager.set_threads(spec.width);
            manager.set_recorder(&recorder);
            Engine::Plain { bot, manager }
        };
        let pool = ThreadPool::new(spec.width);
        Ok((Self { engine, spec, horizon_specs, service, pool, recorder }, recovery))
    }

    fn bot(&self) -> &QueryBot5000 {
        match &self.engine {
            Engine::Plain { bot, .. } => bot,
            Engine::Durable(durable) => durable.bot(),
        }
    }

    fn manager(&self) -> &ForecastManager {
        match &self.engine {
            Engine::Plain { manager, .. } => manager,
            Engine::Durable(durable) => durable.manager().expect("manager attached at open"),
        }
    }

    /// One `ingest_weighted` call per event; returns how many were rejected.
    pub fn ingest_each(&mut self, events: &[QueryEvent]) -> u64 {
        let mut failed = 0;
        for ev in events {
            let result = match &mut self.engine {
                Engine::Plain { bot, .. } => bot.ingest_weighted(ev.minute, &ev.sql, ev.count),
                Engine::Durable(durable) => durable.ingest_weighted(ev.minute, &ev.sql, ev.count),
            };
            failed += u64::from(result.is_err());
        }
        failed
    }

    /// One batch call for the whole tick; returns how many were rejected.
    pub fn ingest_tick(&mut self, events: &[QueryEvent]) -> u64 {
        let batch = batch_items(events);
        match &mut self.engine {
            Engine::Plain { bot, .. } => {
                bot.ingest_batch_with(&self.pool, &batch).quarantined_statements
            }
            // The durable path sizes its pool from QB_THREADS, which the
            // process pins to the same width at start.
            Engine::Durable(durable) => match durable.ingest_batch(&batch) {
                Ok(report) => report.quarantined_statements,
                Err(_) => batch.len() as u64,
            },
        }
    }

    pub fn update_clusters(&mut self, now: Minute) -> Result<(), String> {
        match &mut self.engine {
            Engine::Plain { bot, .. } => {
                bot.update_clusters(now);
                Ok(())
            }
            Engine::Durable(durable) => {
                durable.update_clusters(now).map(drop).map_err(|e| e.to_string())
            }
        }
    }

    pub fn ensure_trained(&mut self, now: Minute) -> Trained {
        let outcome = match &mut self.engine {
            Engine::Plain { bot, manager } => manager.ensure_trained(bot, now),
            Engine::Durable(durable) => durable.ensure_trained(now),
        };
        match outcome {
            Ok(RetrainOutcome::Retrained { .. }) => Trained::Retrained,
            Ok(RetrainOutcome::UpToDate) => Trained::UpToDate,
            _ => Trained::Untrained,
        }
    }

    /// Every horizon has a live model for the current cluster assignments.
    pub fn is_current(&self) -> bool {
        self.manager().is_current(self.bot())
    }

    /// `(slot, per-cluster predicted rate)` for every horizon, aligned with
    /// [`Pipeline::serving_clusters`].
    pub fn predict_all(&self, now: Minute) -> Vec<(usize, Vec<f64>)> {
        (0..self.horizon_specs.len())
            .map(|slot| (slot, self.manager().predict(self.bot(), now, slot)))
            .collect()
    }

    /// Ids of the clusters the live models predict for.
    pub fn serving_clusters(&self) -> Vec<u64> {
        self.manager().serving_clusters().iter().map(|c| c.id.0).collect()
    }

    /// Publishes this round's predictions; returns the new epoch.
    pub fn publish(&self, now: Minute, predictions: &[(usize, Vec<f64>)]) -> u64 {
        self.service.publish_forecasts(
            now,
            self.manager().serving_clusters(),
            predictions,
            None,
            &[],
        )
    }

    pub fn epoch(&self) -> u64 {
        self.service.epoch()
    }

    /// Serving slots, one per horizon.
    pub fn slots(&self) -> usize {
        self.horizon_specs.len()
    }

    pub fn reader(&self) -> Reader {
        Reader(self.service.reader())
    }

    /// `(ingested, quarantined)` statements from the health report.
    pub fn ingest_accounting(&self) -> (u64, u64) {
        let health = self.bot().health();
        (health.ingested_statements, health.rejected_statements)
    }

    pub fn shift_triggers(&self) -> u64 {
        self.bot().shift_triggers
    }

    pub fn num_templates(&self) -> usize {
        self.bot().preprocessor().num_templates()
    }

    pub fn num_clusters(&self) -> usize {
        self.bot().clusterer().num_clusters()
    }

    /// Tracked clusters as `(id, sorted member template ids)`.
    pub fn tracked_membership(&self) -> Vec<(u64, Vec<u32>)> {
        self.bot()
            .tracked_clusters()
            .iter()
            .map(|c| {
                let mut members: Vec<u32> = c.members.iter().map(|m| m.0).collect();
                members.sort_unstable();
                (c.id.0, members)
            })
            .collect()
    }

    /// `(seconds, observations)` of every stage histogram the recorder
    /// holds; empty when the recorder is off.
    pub fn stage_totals(&self) -> BTreeMap<String, (f64, u64)> {
        self.recorder
            .snapshot()
            .histograms
            .into_iter()
            .map(|(name, h)| (name, (h.sum_nanos as f64 / 1e9, h.count)))
            .collect()
    }

    /// Replaces the models with freshly fit LR ones at `now` (publishing
    /// their curves), so the served epoch is cut exactly where
    /// [`Pipeline::sync_pull`] refits.
    pub fn refit_lr_at(&self, now: Minute) -> Result<(), String> {
        let mut fresh = ForecastManager::new(
            self.horizon_specs.clone(),
            model_factory(Model::Lr, self.spec.width),
        );
        fresh.set_threads(self.spec.width);
        match fresh.ensure_trained(self.bot(), now) {
            Ok(RetrainOutcome::Retrained { .. }) => Ok(()),
            other => Err(format!("fresh LR retrain at {now}: {other:?}")),
        }
    }

    /// A synchronous `forecast_job_with(..).fit_predict(LR)` per horizon.
    pub fn sync_pull(&self, now: Minute) -> Result<Pulled, String> {
        self.horizon_specs
            .iter()
            .enumerate()
            .map(|(slot, _)| {
                let job = self.job_at(now, slot)?;
                let pulled = job
                    .fit_predict(&mut LinearRegression::default())
                    .map_err(|e| format!("sync pull slot {slot}: {e}"))?;
                Ok((slot, job.clusters.iter().map(|c| c.id.0).zip(pulled).collect()))
            })
            .collect()
    }

    fn job_at(&self, now: Minute, slot: usize) -> Result<ForecastJob, String> {
        let spec = self.horizon_specs[slot];
        self.bot()
            .forecast_job_with(
                now,
                spec.interval,
                spec.window,
                spec.horizon,
                JobSpan::Steps(spec.train_steps),
            )
            .ok_or_else(|| format!("no forecast job for slot {slot} at minute {now}"))
    }

    /// The training job of the first horizon at `now`, for the fit probes.
    pub fn fit_job(&self, now: Minute) -> Result<FitJob, String> {
        self.job_at(now, 0).map(FitJob)
    }

    /// The weighted statements the advisor is asked about: every member of
    /// a serving cluster, bound to a sampled parameter vector, weighted by
    /// the blended cluster forecast times the template's recent share —
    /// the tail of the controller's `forecast_workload`.
    pub fn predicted_workload(
        &self,
        now: Minute,
        predictions: &[(usize, Vec<f64>)],
    ) -> Vec<(Statement, f64)> {
        let bot = self.bot();
        let mut out = Vec::new();
        let Some((_, anchor)) = predictions.first() else {
            return out;
        };
        for (ci, cluster) in self.manager().serving_clusters().iter().enumerate() {
            let near = anchor[ci];
            let blended = match predictions.get(1) {
                Some((_, far)) => BLEND_NEAR * near + BLEND_FAR * far[ci],
                None => near,
            };
            if blended <= 0.0 || cluster.volume <= 0.0 {
                continue;
            }
            for &member in &cluster.members {
                let entry = bot.preprocessor().template(member);
                let Some(params) = entry.params.items().first() else {
                    continue;
                };
                let recent = entry.history.count_range(now - bot.feature_window(), now) as f64;
                let share = recent / cluster.volume.max(1.0);
                out.push((bind_params(&entry.statement, params), blended * share));
            }
        }
        out
    }

    // --- qb-durable, through DurablePipeline -------------------------------

    fn durable_mut(&mut self) -> &mut DurablePipeline {
        match &mut self.engine {
            Engine::Durable(durable) => durable,
            Engine::Plain { .. } => panic!("durable operation on an in-memory pipeline"),
        }
    }

    pub fn durable_dir(&self) -> Option<PathBuf> {
        self.spec.durable_dir.clone()
    }

    pub fn snapshot(&mut self) -> Result<(), String> {
        self.durable_mut().snapshot().map_err(|e| e.to_string())
    }

    /// Payload bytes of the last snapshot written through this handle.
    pub fn last_snapshot_bytes(&mut self) -> u64 {
        self.durable_mut().store_stats().last_snapshot_bytes
    }

    /// The state a recovery must reproduce from snapshot plus WAL tail.
    /// (The manager's serving state is persisted by snapshots only, so it
    /// is compared through [`Pipeline::sync_pull`] instead.)
    pub fn pipeline_state(&self) -> RecoverableState {
        RecoverableState(self.bot().export_state())
    }

    /// Drops the pipeline (closing its WAL) and returns the spec to reopen
    /// the same directory with.
    pub fn close(self) -> PipelineSpec {
        self.spec
    }
}

#[derive(PartialEq)]
pub struct RecoverableState(PipelineState);

/// Bytes in the directory's WAL segments.
pub fn wal_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

// ---------------------------------------------------------------------------
// Reads (qb-serve, through ForecastReader)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
pub struct Query(ForecastQuery);

impl Query {
    pub fn top_k(k: usize, slot: usize) -> Self {
        Self(ForecastQuery::top_k(k, slot))
    }
    pub fn cluster(cluster: u64, slot: usize) -> Self {
        Self(ForecastQuery::cluster(cluster, slot))
    }
    pub fn template(template: u32, slot: usize) -> Self {
        Self(ForecastQuery::template(template, slot))
    }
}

pub struct Reader(ForecastReader);

impl Reader {
    /// `(epoch served from, whether the answer carried a curve or ranking)`.
    #[inline]
    pub fn answer(&self, query: &Query) -> (u64, bool) {
        let answer = self.0.answer(&query.0);
        let found = matches!(
            answer.outcome,
            Outcome::Curve { .. } | Outcome::ColdStart { .. } | Outcome::Ranking(_)
        );
        (answer.epoch, found)
    }

    /// What a consumer following the served membership asks about next:
    /// the first two served clusters and a member template of the first.
    pub fn targets(&self) -> Option<(u64, u64, u32)> {
        self.0.with_snapshot(|snapshot| {
            let entries = snapshot.entries();
            let first = entries.first()?;
            let second = entries.get(1).unwrap_or(first);
            Some((first.cluster, second.cluster, *first.members.first()?))
        })
    }

    /// The served rate for `(cluster, slot)` and the epoch it came from.
    pub fn served_rate(&self, cluster: u64, slot: usize) -> (u64, Option<f64>) {
        let answer = self.0.answer(&ForecastQuery::cluster(cluster, slot));
        (answer.epoch, answer.curve().and_then(|c| c.values.first().copied()))
    }
}

// ---------------------------------------------------------------------------
// Index advisor (qb-dbsim)
// ---------------------------------------------------------------------------

pub struct Advisor {
    db: Database,
    advisor: IndexAdvisor,
}

impl Advisor {
    pub fn for_bus_tracker(seed: u64) -> Self {
        Self {
            db: build_database(Workload::BusTracker, DB_SCALE, seed),
            advisor: IndexAdvisor::new(ADVISOR_BUDGET),
        }
    }

    /// Indexes the advisor would build for the predicted workload. Nothing
    /// is built, so every round asks the same database.
    pub fn select(&self, workload: &[(Statement, f64)]) -> usize {
        self.advisor.select_with_gains(&self.db, workload).len()
    }

    /// Probe: one what-if cost estimate per statement; returns how many
    /// the estimator accepted.
    pub fn estimate_costs(&self, workload: &[(Statement, f64)]) -> usize {
        workload.iter().filter(|(stmt, _)| self.db.estimate_cost(stmt, &[]).is_ok()).count()
    }
}

// ---------------------------------------------------------------------------
// Monitor (qb-monitor)
// ---------------------------------------------------------------------------

pub struct RoundMonitor {
    monitor: Monitor,
    tracer: Tracer,
}

impl RoundMonitor {
    pub fn with_default_slos(horizons: usize) -> Result<Self, String> {
        let monitor = Monitor::new(MonitorConfig::with_default_slos(horizons, 1.0))
            .map_err(|e| format!("monitor: {e}"))?;
        Ok(Self { monitor, tracer: Tracer::disabled() })
    }

    pub fn observe_round(&mut self, round: u64, pipeline: &Pipeline) -> usize {
        self.monitor.observe_round(round, &pipeline.recorder.snapshot(), &[], &self.tracer).len()
    }
}

// ---------------------------------------------------------------------------
// Probe entry points: one layer's public function at a time
// ---------------------------------------------------------------------------

/// `qb-sqlparse`: parse one statement.
pub fn parse(sql: &str) -> Option<Statement> {
    parse_statement(sql).ok()
}

/// `qb-preprocessor`: templatize an already parsed statement.
pub fn probe_templatize(statement: &Statement) -> usize {
    templatize(statement).text.len()
}

/// A bare `PreProcessor`, no clusterer or pipeline accounting around it.
pub struct BarePreprocessor(PreProcessor);

impl BarePreprocessor {
    pub fn new() -> Self {
        Self(PreProcessor::new(PreProcessorConfig::default()))
    }

    pub fn ingest_each(&mut self, events: &[QueryEvent]) {
        for ev in events {
            let _ = self.0.ingest_weighted(ev.minute, &ev.sql, ev.count);
        }
    }

    pub fn ingest_tick(&mut self, pool: &Pool, events: &[QueryEvent]) {
        self.0.ingest_batch(&pool.0, &batch_items(events));
    }
}

/// `qb-parallel`: a pool of explicit width.
pub struct Pool(ThreadPool);

impl Pool {
    pub fn new(width: usize) -> Self {
        Self(ThreadPool::new(width))
    }

    /// One fan-out over `items` empty tasks.
    pub fn map_empty(&self, items: usize) -> usize {
        self.0.map(vec![(); items], |i, ()| i).len()
    }
}

/// `qb-forecast`: the member models of the deployed HYBRID, fit alone.
#[derive(Debug, Clone, Copy)]
pub enum ProbeModel {
    Lr,
    Kr,
    Rnn,
    Hybrid,
}

pub struct FitJob(ForecastJob);

impl FitJob {
    pub fn fit_predict(&self, model: ProbeModel, width: usize) -> Result<usize, String> {
        let mut boxed: Box<dyn Forecaster> = match model {
            ProbeModel::Lr => Box::new(LinearRegression::default()),
            ProbeModel::Kr => Box::new(KernelRegression::default()),
            ProbeModel::Rnn => Box::new(Rnn::new(RnnConfig::default())),
            ProbeModel::Hybrid => model_factory(Model::Hybrid, width)(),
        };
        self.0.fit_predict(boxed.as_mut()).map(|p| p.len()).map_err(|e| e.to_string())
    }

    /// `(examples, features)` of the LR design matrix this job trains on.
    pub fn lr_design_shape(&self) -> (usize, usize) {
        let spec = self.0.spec;
        let steps = self.0.series.first().map_or(0, Vec::len);
        let examples = steps.saturating_sub(spec.window + spec.horizon - 1);
        (examples.max(1), self.0.series.len() * spec.window + 1)
    }
}

/// `qb-linalg`: a dense matrix of the given shape with deterministic fill.
pub struct Dense(Matrix);

impl Dense {
    pub fn filled(rows: usize, cols: usize) -> Self {
        let data = (0..rows * cols).map(|i| ((i * 37 % 101) as f64 + 1.0) / 101.0).collect();
        Self(Matrix::from_vec(rows, cols, data))
    }

    pub fn matvec(&self, v: &[f64]) -> f64 {
        self.0.matvec(v).iter().sum()
    }

    /// The ridge-regularised Gram matrix, as `ridge_regression` forms it.
    pub fn gram(&self) -> Dense {
        let mut gram = self.0.gram();
        for i in 0..gram.rows() {
            gram[(i, i)] += 1e-3;
        }
        Dense(gram)
    }

    pub fn cholesky_solve(&self, rhs: &[f64]) -> bool {
        cholesky_solve(&self.0, rhs).is_ok()
    }

    pub fn rows(&self) -> usize {
        self.0.rows()
    }
}
