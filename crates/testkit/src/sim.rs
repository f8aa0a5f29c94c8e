//! Deterministic end-to-end simulation runner.
//!
//! One [`SimCase`] fully determines a pipeline run: event source (paper
//! workload or churn scenario), fault intensity, seed, length, horizons
//! and model factory. [`run`] replays it through generator → fault
//! injector → pre-processor → clusterer → forecaster with any valid
//! subset of the optional [`Features`]. Each pool width replays the case
//! into a fresh pipeline (a cluster-update round every six simulated
//! hours, training at the end) and yields one [`Fingerprint`]. Every
//! invariant that applies to the enabled features is checked:
//!
//! 1. **Accounting identity** — every delivered event is either ingested
//!    or quarantined (`ingested + rejected == events_out`).
//! 2. **Bounds** — the pipeline never rejects more statements than the
//!    fault plan corrupted ([`FaultStats::max_possible_rejections`]), and
//!    it tracks at least one and at most `max_clusters` clusters.
//! 3. **No NaN leaves a model** — every forecast is finite and
//!    non-negative.
//! 4. **Degradation chain** — each level is on the documented
//!    `Full → Ensemble → Single → LastValue` chain; plain LR stays `Full`.
//! 5. **Determinism** — fingerprints (the forecast manager's state
//!    included) are bit-identical across widths and to a same-seed rerun.
//! 6. **Trace** (`trace`) — the deterministic stream, the model-fit
//!    lineage and the flight-recorder dumps join the fingerprint.
//! 7. **Batched ingest** (`ticks`) — one batch per same-minute run.
//!    Hour-sized batches are bit-identical across widths too, at least one
//!    hour batch fans out on the pool, and hour batches, halved ticks and
//!    per-event ingest leave the same Pre-Processor state and delivery
//!    accounting. A minute tick at the sweep's scales stays under the
//!    Pre-Processor's fan-out floor, so the minute ticks' width comparison
//!    covers the caller-thread path.
//! 8. **Serving** (`serve`, `cold_start`) — curves, top-K and cold-start
//!    entries at the final epoch join the fingerprint, and every served
//!    curve equals [`ForecastManager::predict`] bit for bit. Serving and
//!    cold start never perturb the pipeline: a `cold_start` case replayed
//!    with both off leaves the same state, cluster values (midway too) and
//!    forecast bits, at any fault and churn intensity.
//! 9. **Alerts** (`monitor`) — the transition log and active set join the
//!    fingerprint, and a faulted replay must trip the quarantine rule.
//! 10. **Eviction** — after every round, every template the clusterer
//!     holds arrived within [`EVICTION_IDLE`] of the round: an evicted
//!     template re-enters only on a new arrival.
//!
//! With `durable` the [`DurablePipeline`] is dropped right after the
//! middle round and again right after the next one, and each time reopened
//! from its directory with a fresh recorder, service and monitor, as a new
//! process would. A forecast manager is trained and snapshotted at the
//! middle round, before the first drop, and each recovery restores it from
//! the snapshot. The first recovery loads the middle round's snapshot
//! alone; the second replays a WAL tail with a round in it. The run must
//! then match the one without `durable` (whose manager trains at the
//! middle round too) on everything the recovery contract persists: state,
//! forecasts, served answers and the trace. The
//! values restore recomputes ([`crate::crash::derived`]) are compared
//! right after the first recovery too, before a round recomputes them.
//! The serve epoch and the alert windows restart, so they — and the trace
//! events recording them — are compared only across widths and reruns.
//! A durable replay ingests on the sweep's pool like any other, so with
//! `ticks` it is held to invariant 7 as well.
//!
//! A [`SimFailure`] prints [`repro_command`], a `cargo test` line that
//! replays the case and features via `single_seed_repro`.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use qb5000::{
    ActiveAlert, AlertCondition, AlertRule, BatchItem, DurabilityConfig, DurablePipeline,
    EventKind, ForecastManager, ForecastQuery, ForecastService, HorizonSpec, Monitor,
    MonitorConfig, PipelineHealth, PipelineState, Qb5000Config, Recorder, RetrainOutcome, Severity,
    TraceDump, TraceView, Tracer,
};
use qb_clusterer::EVICTION_IDLE;
use qb_forecast::{DegradationLevel, Forecaster, LinearRegression};
use qb_parallel::ThreadPool;
use qb_timeseries::{Interval, Minute, MINUTES_PER_DAY};
use qb_workloads::{
    ChurnScenario, FaultPlan, FaultStats, QueryEvent, TraceConfig, TraceGenerator, Workload,
};

/// Minutes between cluster-update rounds.
const ROUND_MINUTES: Minute = 6 * 60;
/// Snapshot policy of durable replays: a case has four rounds a day, so the
/// middle round always cuts a snapshot and the round after it does not.
const SNAPSHOT_EVERY_ROUNDS: u64 = 2;
/// Churn intensity of [`Source::Churn`] traces.
const CHURN_INTENSITY: f64 = 1.5;

/// Where a case's events come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    Paper(Workload),
    Churn(ChurnScenario),
}

impl Source {
    fn name(self) -> &'static str {
        match self {
            Source::Paper(w) => w.name(),
            Source::Churn(s) => s.name(),
        }
    }

    /// Inverse of [`Source::name`], case-insensitive.
    fn parse(name: &str) -> Option<Source> {
        let paper = [Workload::Admissions, Workload::BusTracker, Workload::Mooc];
        paper
            .into_iter()
            .find(|w| w.name().eq_ignore_ascii_case(name))
            .map(Source::Paper)
            .or_else(|| ChurnScenario::parse(name).map(Source::Churn))
    }
}

/// Builds one fresh forecasting model per horizon per retrain.
#[derive(Clone)]
pub struct ModelFactory(pub Arc<dyn Fn() -> Box<dyn Forecaster> + Send + Sync>);

impl std::fmt::Debug for ModelFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ModelFactory({})", (self.0)().name())
    }
}

/// One fully-seeded simulation case.
#[derive(Debug, Clone)]
pub struct SimCase {
    pub source: Source,
    /// `FaultPlan::with_intensity` knob; 0.0 runs a clean passthrough.
    pub fault_intensity: f64,
    /// Seeds the trace generator *and* the fault plan.
    pub seed: u64,
    pub days: u32,
    pub scale: f64,
    /// Forecast offsets in hours (hourly interval, 24-step window).
    pub horizons: Vec<usize>,
    pub model: ModelFactory,
}

impl SimCase {
    /// A paper-workload case: three days at scale 0.02, horizons {1, 6},
    /// linear regression.
    pub fn new(workload: Workload, fault_intensity: f64, seed: u64) -> Self {
        Self {
            source: Source::Paper(workload),
            fault_intensity,
            seed,
            days: 3,
            scale: 0.02,
            horizons: vec![1, 6],
            model: ModelFactory(Arc::new(|| Box::new(LinearRegression::default()))),
        }
    }

    /// The same defaults over a churn scenario's evolving template mix.
    pub fn churn(scenario: ChurnScenario, fault_intensity: f64, seed: u64) -> Self {
        Self {
            source: Source::Churn(scenario),
            ..Self::new(Workload::Admissions, fault_intensity, seed)
        }
    }

    fn stream(&self) -> (Vec<QueryEvent>, FaultStats) {
        let trace = TraceConfig { start: 0, days: self.days, scale: self.scale, seed: self.seed };
        let generator = match self.source {
            Source::Paper(w) => w.generator(trace),
            Source::Churn(s) => s.generator(trace, CHURN_INTENSITY),
        };
        deliver(generator, self.fault_intensity, self.seed)
    }
}

/// Hourly specs with a 24-step window, trained on all but the first day.
pub(crate) fn hourly_specs(days: u32, horizons: &[usize]) -> Vec<HorizonSpec> {
    let train_steps = (days as usize - 1) * 24;
    let spec = |horizon| HorizonSpec { interval: Interval::HOUR, window: 24, horizon, train_steps };
    horizons.iter().map(|&h| spec(h)).collect()
}

/// The stream `generator` delivers through a fault plan seeded with
/// `seed` (0.0 intensity: a clean passthrough), and the plan's statistics.
fn deliver(
    generator: TraceGenerator,
    fault_intensity: f64,
    seed: u64,
) -> (Vec<QueryEvent>, FaultStats) {
    let plan = if fault_intensity == 0.0 {
        FaultPlan::none(seed)
    } else {
        FaultPlan::with_intensity(seed, fault_intensity)
    };
    let mut injector = plan.inject(generator);
    let events = injector.by_ref().collect();
    (events, injector.stats().clone())
}

/// Invariants 1 and 2: exact accounting and a quarantine bounded by what
/// the fault plan corrupted.
fn check_accounting(
    health: &PipelineHealth,
    delivered: usize,
    stats: &FaultStats,
) -> Result<(), String> {
    let (ingested, rejected) = (health.ingested_statements, health.rejected_statements);
    if stats.events_out != delivered as u64 || ingested + rejected != delivered as u64 {
        return Err(format!(
            "accounting identity broken: delivered {delivered}, injector says {}, \
             ingested {ingested} + rejected {rejected}",
            stats.events_out
        ));
    }
    if rejected > stats.max_possible_rejections() {
        return Err(format!(
            "quarantine dropped more than the fault plan injected: rejected {rejected} > \
             malformed {} + truncated {} + duplicated {}",
            stats.malformed, stats.truncated, stats.duplicated
        ));
    }
    Ok(())
}

/// The optional pipeline features a [`run`] switches on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Features {
    /// Ingest per-minute batches through the batch engine instead of
    /// one event at a time.
    pub ticks: bool,
    pub serve: bool,
    /// Only valid together with `serve`.
    pub cold_start: bool,
    pub trace: bool,
    pub monitor: bool,
    pub durable: bool,
}

impl Features {
    const NAMES: [&'static str; 6] =
        ["ticks", "serve", "cold_start", "trace", "monitor", "durable"];

    fn flags(self) -> [bool; 6] {
        [self.ticks, self.serve, self.cold_start, self.trace, self.monitor, self.durable]
    }

    fn from_flags(f: [bool; 6]) -> Self {
        let [ticks, serve, cold_start, trace, monitor, durable] = f;
        Self { ticks, serve, cold_start, trace, monitor, durable }
    }

    fn is_valid(self) -> bool {
        self.serve || !self.cold_start
    }

    /// Every valid subset: 48 of the 64.
    pub fn all_valid() -> Vec<Features> {
        (0..64u32)
            .map(|bits| Self::from_flags(std::array::from_fn(|i| bits >> i & 1 == 1)))
            .filter(|f| f.is_valid())
            .collect()
    }

    /// Parses the comma list `Display` prints (`none` or empty for no
    /// features).
    fn parse(list: &str) -> Features {
        let mut flags = [false; 6];
        for name in list.split(',').map(str::trim).filter(|n| !n.is_empty() && *n != "none") {
            let i = Self::NAMES.iter().position(|&n| n == name);
            flags[i.unwrap_or_else(|| panic!("unknown feature {name:?}"))] = true;
        }
        Self::from_flags(flags)
    }
}

impl std::fmt::Display for Features {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let on: Vec<&str> =
            Self::NAMES.iter().zip(self.flags()).filter(|(_, on)| *on).map(|(n, _)| *n).collect();
        f.write_str(if on.is_empty() { "none".into() } else { on.join(",") }.as_str())
    }
}

/// Reader answers at the final epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    pub epoch: u64,
    /// Per horizon, per serving cluster: the curve's first value bits.
    pub curves: Vec<Vec<u64>>,
    /// Per horizon: the top-K ranking as (cluster, total bits).
    pub top_k: Vec<Option<Vec<(u64, u64)>>>,
    /// `Debug` of the cold-start entries (float `Debug` round-trips).
    pub cold: String,
}

/// The retained trace after training.
#[derive(Debug, Clone)]
pub struct Traced {
    pub view: TraceView,
    /// [`TraceView::deterministic_stream`]: no wall-clock timestamps.
    pub stream: String,
    /// `explain()` of the latest model fit.
    pub fit_lineage: String,
    pub dumps: Vec<TraceDump>,
}

impl Traced {
    /// Stream, lineage and dumps as one string; `mask_restarts` blanks
    /// what a recovered process's fresh service restarts: the serve epochs
    /// and the entries each publish shares with the one before it.
    fn render(&self, mask_restarts: bool) -> String {
        let mut text = format!("{}\n{}\n{:?}", self.stream, self.fit_lineage, self.dumps);
        if mask_restarts {
            for key in [" epoch=", " shared_entries="] {
                let parts: Vec<&str> = text
                    .split(key)
                    .enumerate()
                    .map(|(i, p)| if i == 0 { p } else { p.trim_start_matches(char::is_numeric) })
                    .collect();
                text = parts.join(&format!("{key}_"));
            }
        }
        text
    }
}

/// The monitor's view after the last round.
#[derive(Debug, Clone, PartialEq)]
pub struct Alerts {
    pub log: Vec<String>,
    pub active: Vec<ActiveAlert>,
}

/// Everything one replay is judged by.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub width: usize,
    pub state: PipelineState,
    pub derived: crate::crash::Derived,
    /// [`crate::crash::derived`] right after the middle round: for a
    /// durable replay, right after its recovery from that round's snapshot.
    pub midway: Option<crate::crash::Derived>,
    /// Per horizon: the synchronous predictions' bits.
    pub forecasts: Vec<Vec<u64>>,
    /// The trained forecast manager's exported state.
    pub manager: qb5000::ManagerState,
    pub served: Option<Served>,
    pub trace: Option<Traced>,
    pub alerts: Option<Alerts>,
}

/// Names the first part of the pipeline itself (state, cluster values,
/// forecasts) that differs between `a` and `b`.
fn pipeline_divergence(a: &Fingerprint, b: &Fingerprint) -> Option<&'static str> {
    [
        ("pipeline state", a.state == b.state),
        ("cluster centres, volumes or tracked clusters", a.derived == b.derived),
        ("cluster centres, volumes or tracked clusters at the middle round", a.midway == b.midway),
        ("forecasts", a.forecasts == b.forecasts),
    ]
    .into_iter()
    .find(|&(_, same)| !same)
    .map(|(what, _)| what)
}

/// Names the first part of `b` that differs from `a`. Across a recovery
/// only what the recovery contract persists is compared.
fn divergence(a: &Fingerprint, b: &Fingerprint, recovery: bool) -> Option<&'static str> {
    let served = |f: &Fingerprint| {
        f.served.as_ref().map(|s| (s.curves.clone(), s.top_k.clone(), s.cold.clone()))
    };
    let epoch = |f: &Fingerprint| f.served.as_ref().map(|s| s.epoch);
    let trace = |f: &Fingerprint| f.trace.as_ref().map(|t| t.render(recovery));
    let rest = [
        ("forecast manager state", a.manager == b.manager),
        ("served curves, top-K or cold-start entries", served(a) == served(b)),
        ("serve epoch", recovery || epoch(a) == epoch(b)),
        // Alert transitions record trace events, so a recovered monitor's
        // fresh windows shift the trace too.
        (
            "trace stream, fit lineage or dumps",
            recovery && a.alerts.is_some() || trace(a) == trace(b),
        ),
        ("alert log or active set", recovery || a.alerts == b.alerts),
    ];
    pipeline_divergence(a, b)
        .or_else(|| rest.into_iter().find(|&(_, same)| !same).map(|(what, _)| what))
}

/// An invariant violation, carrying the repro command.
#[derive(Debug)]
pub struct SimFailure {
    pub case: SimCase,
    pub features: Features,
    pub invariant: String,
}

impl std::fmt::Display for SimFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "simulation invariant violated: {}", self.invariant)?;
        writeln!(f, "  case: {:?}, features: {}", self.case, self.features)?;
        write!(f, "  reproduce with:\n    {}", repro_command(&self.case, self.features))
    }
}

/// The copy-pasteable single-case repro line printed on failure. It
/// replays with the default horizons and model factory.
pub fn repro_command(case: &SimCase, features: Features) -> String {
    format!(
        "QB_SIM_SEED={:#x} QB_SIM_WORKLOAD={} QB_SIM_INTENSITY={} QB_SIM_DAYS={} \
         QB_SIM_FEATURES={features} \
         cargo test -p qb-testkit --test simtest single_seed_repro -- --nocapture",
        case.seed,
        case.source.name(),
        case.fault_intensity,
        case.days,
    )
}

/// `QB_SIM_SEED`, hex with a `0x` prefix or decimal. `_` separators are
/// accepted so seeds can be pasted from source.
pub fn seed_from_env() -> Option<u64> {
    let s: String =
        std::env::var("QB_SIM_SEED").ok()?.trim().chars().filter(|&c| c != '_').collect();
    Some(match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).expect("hex QB_SIM_SEED"),
        None => s.parse().expect("numeric QB_SIM_SEED"),
    })
}

/// Parses `QB_SIM_*` environment overrides onto a default case and
/// feature set: the receiving end of [`repro_command`].
pub fn case_from_env() -> (SimCase, Features) {
    let var = |name| std::env::var(name).ok();
    let mut case = SimCase::new(Workload::Admissions, 1.0, 0x5EED);
    case.seed = seed_from_env().unwrap_or(case.seed);
    if let Some(w) = var("QB_SIM_WORKLOAD") {
        case.source = Source::parse(&w).unwrap_or_else(|| panic!("unknown QB_SIM_WORKLOAD {w:?}"));
    }
    if let Some(i) = var("QB_SIM_INTENSITY") {
        case.fault_intensity = i.parse().expect("numeric QB_SIM_INTENSITY");
    }
    if let Some(d) = var("QB_SIM_DAYS") {
        case.days = d.parse().expect("numeric QB_SIM_DAYS");
    }
    (case, var("QB_SIM_FEATURES").map_or(Features::default(), |f| Features::parse(&f)))
}

/// Deterministic SLO rules for monitored replays: counters and gauges
/// only, no wall-time quantiles, so every probe folds the same numbers
/// at every pool width.
fn sim_rules() -> Vec<AlertRule> {
    vec![
        // Fires whenever the fault plan corrupts statements (ratio rule).
        AlertRule::new(
            "sim-quarantine-share",
            Severity::Warning,
            AlertCondition::RatioAbove {
                numerator: "preprocessor.quarantined_statements".into(),
                denominator: "preprocessor.ingested_statements".into(),
                above: 0.02,
                window: 4,
            },
        ),
        // Template churn shows up as new-template bursts at cluster
        // refresh; fires on the burst, resolves once the mix settles —
        // covering both transition directions.
        AlertRule::new(
            "sim-template-burst",
            Severity::Info,
            AlertCondition::RateAbove {
                counter: "clusterer.new_templates".into(),
                per_round: 8.0,
                window: 1,
            },
        )
        .clear_rounds(2),
        // Absence rule: never fires while the replay delivers events, but
        // exercises the silent-counter path every round.
        AlertRule::new(
            "sim-ingest-stalled",
            Severity::Critical,
            AlertCondition::Absent {
                counter: "preprocessor.ingested_statements".into(),
                window: 2,
            },
        ),
    ]
}

/// How a replay groups the delivered stream into ingest calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Schedule {
    PerEvent,
    Minutes,
    Hours,
    /// Minute ticks, each split in two.
    HalvedMinutes,
}

/// Splits `events` into consecutive runs of equal `key`. Keying on runs
/// (not a global group-by) preserves delivery order even when the fault
/// plan reorders events.
fn runs_by(events: &[QueryEvent], key: impl Fn(&QueryEvent) -> i64) -> Vec<Range<usize>> {
    let mut runs = Vec::new();
    let mut start = 0;
    for i in 1..=events.len() {
        if i == events.len() || key(&events[i]) != key(&events[start]) {
            runs.push(start..i);
            start = i;
        }
    }
    runs
}

/// What one process holds: the pipeline (durable or not) and the handles
/// a restart replaces.
struct Process {
    pipeline: DurablePipeline,
    recorder: Recorder,
    service: Option<ForecastService>,
    monitor: Option<Monitor>,
}

/// Quarantine rejections are stream content; a durability error is not.
fn durable_ok<T>(result: Result<T, qb5000::Error>) {
    if let Err(e) = result {
        assert!(e.stage() != "durability", "unexpected durability error: {e}");
    }
}

/// A fresh forecast manager for `case` at pool width `width`.
fn new_manager(case: &SimCase, width: usize) -> ForecastManager {
    let factory = case.model.0.clone();
    let mut mgr = ForecastManager::new(hourly_specs(case.days, &case.horizons), move || factory());
    mgr.set_threads(width);
    mgr
}

impl Process {
    /// Starts a process, durable when `dir` is set and then recovering
    /// from it when it holds state: the pipeline, and the forecast
    /// manager its snapshot carries.
    fn open(case: &SimCase, f: Features, dir: Option<&Path>, width: usize) -> Self {
        let recorder = if f.monitor { Recorder::new() } else { Recorder::disabled() };
        let service =
            f.serve.then(|| ForecastService::for_specs(&hourly_specs(case.days, &case.horizons)));
        let mut config =
            Qb5000Config::builder().recorder(recorder.clone()).cold_start(f.cold_start);
        if f.trace {
            config = config.trace(Tracer::enabled());
        }
        if let Some(service) = &service {
            config = config.serve(service.clone());
        }
        if let Some(dir) = dir {
            let policy = DurabilityConfig::new(dir).snapshot_every_rounds(SNAPSHOT_EVERY_ROUNDS);
            config = config.durability(policy);
        }
        let config = config.build().expect("sim config is valid");
        let (mut pipeline, report) = DurablePipeline::open(config).expect("sim pipeline opens");
        if let Some(state) = report.manager {
            let factory = case.model.0.clone();
            let specs = hourly_specs(case.days, &case.horizons);
            let mut mgr = ForecastManager::restore(specs, move || factory(), state, pipeline.bot())
                .expect("the snapshot's manager restores");
            mgr.set_threads(width);
            pipeline.attach_manager(mgr);
        }
        let monitor = f.monitor.then(|| {
            Monitor::new(MonitorConfig::default().rules(sim_rules()))
                .expect("monitor without a port")
        });
        Self { pipeline, recorder, service, monitor }
    }

    fn ingest(&mut self, pool: &ThreadPool, batch: &[BatchItem<'_>], per_event: bool) {
        if per_event {
            durable_ok(self.pipeline.ingest_weighted(batch[0].minute, batch[0].sql, batch[0].count))
        } else {
            durable_ok(self.pipeline.ingest_batch_with(pool, batch))
        }
    }

    /// Trains the process's forecast manager at `now`, attaching a fresh
    /// one first if the process has none.
    fn train(
        &mut self,
        case: &SimCase,
        width: usize,
        now: Minute,
    ) -> Result<RetrainOutcome, String> {
        if self.pipeline.manager().is_none() {
            self.pipeline.attach_manager(new_manager(case, width));
        }
        self.pipeline.ensure_trained(now).map_err(|e| format!("training at minute {now}: {e}"))
    }

    /// One cluster-update round at `now`, checking invariant 10.
    fn round(&mut self, round: u64, now: Minute) -> Result<(), String> {
        self.pipeline.update_clusters(now).expect("cluster update");
        let held = self.pipeline.bot().clusterer().export_state().templates;
        if let Some(t) = held.iter().find(|t| t.last_seen < now - EVICTION_IDLE) {
            return Err(format!(
                "round {round} at minute {now} holds template {}, silent since minute {}",
                t.key, t.last_seen
            ));
        }
        let tracer = self.pipeline.bot().tracer().clone();
        if let Some(monitor) = &mut self.monitor {
            monitor.observe_round(round, &self.recorder.snapshot(), &[], &tracer);
        }
        Ok(())
    }
}

static DIRS: AtomicU64 = AtomicU64::new(0);

/// A durable replay's state directory, removed however the replay ends.
struct StateDir(PathBuf);

impl StateDir {
    fn new(seed: u64) -> Self {
        let n = DIRS.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("qb-sim-{}-{seed:x}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Replays the case into a fresh pipeline at one pool width and
/// fingerprints it, checking invariants 1–4, 8 and 10 on the way. With
/// `train_midway` the forecast manager trains at the middle round as well
/// as at the end.
fn replay(
    case: &SimCase,
    (events, stats): &(Vec<QueryEvent>, FaultStats),
    f: Features,
    width: usize,
    schedule: Schedule,
    fan_outs: &Recorder,
    train_midway: bool,
) -> Result<Fingerprint, String> {
    let pool = ThreadPool::new(width).instrumented(fan_outs);
    // Declared before the process, so it is dropped after it.
    let state_dir = f.durable.then(|| StateDir::new(case.seed));
    let dir = state_dir.as_ref().map(|d| d.0.as_path());
    let mut process = Process::open(case, f, dir, width);
    let batches = match schedule {
        Schedule::PerEvent => (0..events.len()).map(|i| i..i + 1).collect(),
        Schedule::Minutes => runs_by(events, |ev| ev.minute),
        Schedule::Hours => runs_by(events, |ev| ev.minute.div_euclid(60)),
        Schedule::HalvedMinutes => runs_by(events, |ev| ev.minute)
            .into_iter()
            .flat_map(|r| [r.start..r.start + r.len() / 2, r.start + r.len() / 2..r.end])
            .filter(|r| !r.is_empty())
            .collect(),
    };
    let end = case.days as i64 * MINUTES_PER_DAY;
    let rounds = (end / ROUND_MINUTES) as u64;
    let mut round = 0u64;
    let mut midway = None;
    let mut next_round = |process: &mut Process, round: &mut u64| -> Result<(), String> {
        *round += 1;
        let now = *round as i64 * ROUND_MINUTES;
        process.round(*round, now)?;
        if train_midway && *round == rounds / 2 {
            process.train(case, width, now)?;
            process.pipeline.snapshot().map_err(|e| format!("snapshot after training: {e}"))?;
        }
        if f.durable && (*round == rounds / 2 || *round == rounds / 2 + 1) {
            // The process dies here; a new one recovers from the directory.
            *process = Process::open(case, f, dir, width);
        }
        if *round == rounds / 2 {
            midway = Some(crate::crash::derived(process.pipeline.bot()));
        }
        Ok(())
    };
    for batch in batches {
        while round < rounds && events[batch.start].minute >= (round as i64 + 1) * ROUND_MINUTES {
            next_round(&mut process, &mut round)?;
        }
        let items: Vec<BatchItem<'_>> = events[batch]
            .iter()
            .map(|ev| BatchItem { minute: ev.minute, sql: &ev.sql, count: ev.count })
            .collect();
        process.ingest(&pool, &items, schedule == Schedule::PerEvent);
    }
    while round < rounds {
        next_round(&mut process, &mut round)?;
    }

    let bot = process.pipeline.bot();
    check_accounting(&bot.health(), events.len(), stats)?;
    let tracked = bot.tracked_clusters().len();
    let max_clusters = Qb5000Config::default().max_clusters;
    if !(1..=max_clusters).contains(&tracked) {
        return Err(format!("{tracked} clusters tracked, not between 1 and {max_clusters}"));
    }

    match process.train(case, width, end)? {
        RetrainOutcome::Retrained { .. } => {}
        // A manager trained at the middle round may already be current.
        RetrainOutcome::UpToDate if train_midway => {}
        other => return Err(format!("expected a retrain, got {other:?}")),
    }
    let (bot, mgr) = (process.pipeline.bot(), process.pipeline.manager().expect("trained above"));
    let mut forecasts = Vec::new();
    for h in 0..case.horizons.len() {
        let pred = mgr.predict(bot, end, h);
        // Invariant 3: no NaN leaves a model.
        if pred.iter().any(|v| !v.is_finite() || *v < 0.0) {
            return Err(format!("non-finite or negative forecast at horizon {h}: {pred:?}"));
        }
        // Invariant 4: the level is on the chain, and plain LR never degrades.
        let level = mgr.degradation(h).ok_or(format!("horizon {h} lost its model"))?;
        if (case.model.0)().name() == "LR" && level != DegradationLevel::Full {
            return Err(format!("LR degraded at horizon {h}: {level:?}"));
        }
        forecasts.push(pred.iter().map(|v| v.to_bits()).collect());
    }

    let served = match &process.service {
        None => None,
        Some(service) => Some(served(service, mgr, &forecasts)?),
    };
    let trace = match f.trace {
        false => None,
        true => {
            let view = bot.tracer().view();
            let fit = view.latest(EventKind::ModelFit).ok_or("no ModelFit event traced")?;
            let fit_lineage = view.explain(fit.id);
            Some(Traced {
                stream: view.deterministic_stream(),
                fit_lineage,
                dumps: bot.tracer().dumps(),
                view,
            })
        }
    };
    let alerts = process
        .monitor
        .as_ref()
        .map(|m| Alerts { log: m.transition_log().to_vec(), active: m.active_alerts() });
    let state = bot.export_state();
    let derived = crate::crash::derived(bot);
    let manager = mgr.export_state();
    Ok(Fingerprint { width, state, derived, midway, forecasts, manager, served, trace, alerts })
}

/// Invariant 8: reads every answer at the final epoch and checks each
/// served curve against the synchronous prediction.
fn served(
    service: &ForecastService,
    mgr: &ForecastManager,
    forecasts: &[Vec<u64>],
) -> Result<Served, String> {
    let reader = service.reader();
    let epoch = service.epoch();
    let clusters = mgr.serving_clusters();
    let (mut curves, mut top_k) = (Vec::new(), Vec::new());
    for (h, synchronous) in forecasts.iter().enumerate() {
        let mut row = Vec::new();
        for (cluster, &expected) in clusters.iter().zip(synchronous) {
            let answer = reader.answer(&ForecastQuery::cluster(cluster.id.0, h));
            if answer.epoch != epoch {
                return Err(format!("reader answered epoch {} != {epoch}", answer.epoch));
            }
            let curve =
                answer.curve().ok_or(format!("cluster {} horizon {h} unserved", cluster.id.0))?;
            if curve.values[0].to_bits() != expected {
                return Err(format!(
                    "served curve diverged from the synchronous prediction at cluster {}, horizon {h}",
                    cluster.id.0
                ));
            }
            row.push(expected);
        }
        curves.push(row);
        let ranking = reader.answer(&ForecastQuery::top_k(clusters.len(), h));
        top_k.push(ranking.ranking().map(|r| r.iter().map(|&(c, v)| (c, v.to_bits())).collect()));
    }
    let cold = format!("{:?}", service.snapshot().cold_starts());
    Ok(Served { epoch, curves, top_k, cold })
}

/// Batches that reached a pool instrumented with `fan_outs`.
fn pool_maps(fan_outs: &Recorder) -> u64 {
    fan_outs.snapshot().histograms.get("parallel.map").map_or(0, |h| h.count)
}

/// Replays `case` with `features` at every width and checks every
/// invariant that applies (see the module docs). Returns one fingerprint
/// per width, in `widths` order.
pub fn run(
    case: &SimCase,
    features: Features,
    widths: &[usize],
) -> Result<Vec<Fingerprint>, SimFailure> {
    assert!(!widths.is_empty() && !case.horizons.is_empty(), "empty sweep");
    assert!(features.is_valid(), "cold_start needs serve: {features}");
    let fail = |invariant: String| SimFailure { case: case.clone(), features, invariant };
    let stream = case.stream();
    // Counts the batches that reached a pool (`parallel.map`).
    let fan_outs = Recorder::new();
    // A durable cell's manager trains before its first drop, and every
    // replay it is compared with trains at the same round.
    let replay = |f: Features, width, schedule| {
        replay(case, &stream, f, width, schedule, &fan_outs, features.durable)
            .map_err(|e| fail(format!("{e} (width {width})")))
    };
    let schedule = if features.ticks { Schedule::Minutes } else { Schedule::PerEvent };
    let all_widths = |f: Features, schedule| {
        widths.iter().map(|&w| replay(f, w, schedule)).collect::<Result<Vec<_>, _>>()
    };
    let same = |a: &Fingerprint, b: &Fingerprint, what: &str| match divergence(a, b, false) {
        Some(d) => {
            Err(fail(format!("{d} diverged between widths {} and {}{what}", a.width, b.width)))
        }
        None => Ok(()),
    };

    // Invariants 5, 6, 8 and 9: every fingerprint part agrees across
    // widths and with a same-seed rerun.
    let fps = all_widths(features, schedule)?;
    let first = &fps[0];
    fps.iter().try_for_each(|fp| same(first, fp, ""))?;
    same(first, &replay(features, widths[0], schedule)?, " on a same-seed rerun")?;
    if let Some(alerts) = &first.alerts {
        if case.fault_intensity > 0.0
            && !alerts.log.iter().any(|l| l.contains("fired rule=sim-quarantine-share"))
        {
            return Err(fail(format!(
                "faulted replay never tripped the quarantine rule: {:?}",
                alerts.log
            )));
        }
    }

    if features.cold_start {
        // Invariant 8: serving and cold start never perturb the pipeline.
        // The replay without them skips `durable` too: a durable run is
        // held to the uninterrupted one below.
        let plain = Features { serve: false, cold_start: false, durable: false, ..features };
        if let Some(d) = pipeline_divergence(&replay(plain, widths[0], schedule)?, first) {
            return Err(fail(format!("{d} changed with serve and cold_start on")));
        }
    }
    if features.durable {
        let uninterrupted = replay(Features { durable: false, ..features }, widths[0], schedule)?;
        if let Some(d) = divergence(&uninterrupted, first, true) {
            return Err(fail(format!("{d} after recovery differs from the uninterrupted run")));
        }
    }
    if features.ticks {
        // Invariant 7: hour batches fan out and still agree across widths.
        // The clusterer sees one sighting feed per batch, so its shift
        // trigger may fire elsewhere, but every schedule leaves the
        // Pre-Processor state and delivery accounting the minute ticks do.
        let ingest = |s: &PipelineState| {
            let counts = [s.ingested_statements, s.ingested_arrivals, s.deduplicated, s.reordered];
            (counts, s.last_ingest_minute, s.last_ingest_event)
        };
        // Only hour batches are sure to reach the pool: at the sweep's
        // scales a minute tick stays under the fan-out floor.
        let fan_outs_before = pool_maps(&fan_outs);
        let hours = all_widths(features, Schedule::Hours)?;
        if pool_maps(&fan_outs) == fan_outs_before {
            return Err(fail(
                "no hour batch reached the pool: the width comparison is vacuous".into(),
            ));
        }
        hours.iter().try_for_each(|fp| same(&hours[0], fp, " on hour-sized batches"))?;
        let halved = replay(features, widths[0], Schedule::HalvedMinutes)?;
        let per_event =
            replay(Features { ticks: false, ..features }, widths[0], Schedule::PerEvent)?;
        for (fp, what) in [
            (&hours[0], "hour-sized batches"),
            (&halved, "tick splitting"),
            (&per_event, "per-event ingest"),
        ] {
            if fp.state.pre != first.state.pre || ingest(&fp.state) != ingest(&first.state) {
                return Err(fail(format!(
                    "{what} changed the Pre-Processor state or delivery accounting"
                )));
            }
        }
    }
    Ok(fps)
}
