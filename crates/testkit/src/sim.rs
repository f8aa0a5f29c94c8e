//! Deterministic end-to-end simulation runner.
//!
//! One [`SimCase`] fully determines a pipeline run: workload generator,
//! fault intensity, trace seed, and length. [`run_case`] replays the case
//! through generator → fault injector → pre-processor → clusterer →
//! forecaster at every requested thread-pool width and checks the
//! resilience layer's end-to-end invariants:
//!
//! 1. **Accounting identity** — every delivered event is either ingested
//!    or quarantined (`ingested + rejected == events_out`).
//! 2. **Quarantine bound** — the pipeline never rejects more statements
//!    than the fault plan corrupted
//!    ([`FaultStats::max_possible_rejections`]); with no faults, nothing
//!    is rejected.
//! 3. **No NaN leaves a model** — every forecast at every horizon is
//!    finite and non-negative.
//! 4. **Degradation chain** — each model's reported level is on the
//!    documented `Full → Ensemble → Single → LastValue` chain, and a
//!    fault-free LR run stays at `Full`.
//! 5. **Thread-width determinism** — forecasts are bit-identical across
//!    all requested pool widths.
//! 6. **Trace determinism** ([`run_traced`]) — with an enabled tracer,
//!    the deterministic event stream, decision lineage, and flight
//!    recorder dumps are byte-identical across all requested widths.
//! 7. **Batched-ingest determinism** ([`run_batched`]) — the sharded
//!    batch engine yields bit-identical pipeline state and forecasts at
//!    every width, is invariant to tick splitting, and leaves exactly the
//!    Pre-Processor state per-event ingest does.
//! 8. **Serving determinism** ([`run_served`]) — with the serving layer
//!    enabled, reader answers at the final published epoch
//!    (per-cluster curves and top-K rankings) are bit-identical across
//!    all widths, and the served curves equal the manager's synchronous
//!    predictions bit-for-bit.
//! 9. **Alert-stream determinism** ([`run_monitored`]) — with the
//!    self-monitoring layer folding per-round metric deltas and
//!    evaluating deterministic SLO rules under template churn plus fault
//!    injection, the alert firing/resolved transition log is
//!    bit-identical across all widths and byte-stable across same-seed
//!    reruns.
//!
//! On violation the harness returns a [`SimFailure`] whose `Display`
//! includes [`repro_command`] — a copy-pasteable `cargo test` invocation
//! that replays exactly this case via the `single_seed_repro` test.

use std::ops::Range;

use qb5000::{
    AlertCondition, AlertRule, BatchItem, EventKind, ForecastManager, ForecastQuery,
    ForecastService, HorizonSpec, Monitor, MonitorConfig, Qb5000Config, QueryBot5000, Recorder,
    RetrainOutcome, Severity, TraceDump, TraceView, Tracer,
};
use qb_forecast::{DegradationLevel, Forecaster, LinearRegression};
use qb_parallel::ThreadPool;
use qb_timeseries::{Interval, MINUTES_PER_DAY};
use qb_workloads::{ChurnScenario, FaultPlan, FaultStats, QueryEvent, TraceConfig, Workload};

/// One fully-seeded simulation case.
#[derive(Debug, Clone)]
pub struct SimCase {
    pub workload: Workload,
    /// `FaultPlan::with_intensity` knob; 0.0 runs a clean passthrough.
    pub fault_intensity: f64,
    /// Seeds the trace generator *and* the fault plan.
    pub seed: u64,
    pub days: u32,
    pub scale: f64,
}

impl SimCase {
    pub fn new(workload: Workload, fault_intensity: f64, seed: u64) -> Self {
        Self { workload, fault_intensity, seed, days: 3, scale: 0.02 }
    }
}

/// What a successful case run produced (for golden-style inspection).
#[derive(Debug)]
pub struct SimOutcome {
    pub stats: FaultStats,
    pub num_templates: usize,
    pub num_clusters: usize,
    /// Per-horizon forecasts from the first thread width.
    pub forecasts: Vec<Vec<f64>>,
}

/// An invariant violation, carrying the repro command.
#[derive(Debug)]
pub struct SimFailure {
    pub case: SimCase,
    pub invariant: String,
}

impl std::fmt::Display for SimFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "simulation invariant violated: {}", self.invariant)?;
        writeln!(f, "  case: {:?}", self.case)?;
        write!(f, "  reproduce with:\n    {}", repro_command(&self.case))
    }
}

/// The copy-pasteable single-case repro line printed on failure.
pub fn repro_command(case: &SimCase) -> String {
    format!(
        "QB_SIM_SEED={:#x} QB_SIM_WORKLOAD={} QB_SIM_INTENSITY={} QB_SIM_DAYS={} \
         cargo test -p qb-testkit --test simtest single_seed_repro -- --nocapture",
        case.seed,
        case.workload.name(),
        case.fault_intensity,
        case.days,
    )
}

/// Parses `QB_SIM_*` environment overrides onto a default case — the
/// receiving end of [`repro_command`].
pub fn case_from_env() -> SimCase {
    let mut case = SimCase::new(Workload::Admissions, 1.0, 0x5EED);
    if let Ok(s) = std::env::var("QB_SIM_SEED") {
        // `_` separators are accepted so seeds can be pasted from source.
        let s: String = s.trim().chars().filter(|&c| c != '_').collect();
        case.seed = s
            .strip_prefix("0x")
            .map(|h| u64::from_str_radix(h, 16).expect("hex QB_SIM_SEED"))
            .unwrap_or_else(|| s.parse().expect("numeric QB_SIM_SEED"));
    }
    if let Ok(w) = std::env::var("QB_SIM_WORKLOAD") {
        case.workload = match w.to_ascii_lowercase().as_str() {
            "admissions" => Workload::Admissions,
            "bustracker" => Workload::BusTracker,
            "mooc" => Workload::Mooc,
            other => panic!("unknown QB_SIM_WORKLOAD {other:?}"),
        };
    }
    if let Ok(i) = std::env::var("QB_SIM_INTENSITY") {
        case.fault_intensity = i.parse().expect("numeric QB_SIM_INTENSITY");
    }
    if let Ok(d) = std::env::var("QB_SIM_DAYS") {
        case.days = d.parse().expect("numeric QB_SIM_DAYS");
    }
    case
}

fn fail(case: &SimCase, invariant: String) -> SimFailure {
    SimFailure { case: case.clone(), invariant }
}

/// Replays one case at every thread width and checks invariants 1–5.
///
/// `horizons` are forecast offsets in hours (hourly interval, 24-step
/// window); `widths` are the thread-pool sizes to sweep — forecasts must
/// be bit-identical across all of them.
pub fn run_case(
    case: &SimCase,
    horizons: &[usize],
    widths: &[usize],
) -> Result<SimOutcome, SimFailure> {
    assert!(!horizons.is_empty() && !widths.is_empty(), "empty sweep");
    let trace = TraceConfig { start: 0, days: case.days, scale: case.scale, seed: case.seed };
    let plan = if case.fault_intensity == 0.0 {
        FaultPlan::none(case.seed)
    } else {
        FaultPlan::with_intensity(case.seed, case.fault_intensity)
    };
    let mut events = plan.inject(case.workload.generator(trace));
    let mut bot = QueryBot5000::new(Qb5000Config::default());
    let mut delivered = 0u64;
    for ev in events.by_ref() {
        delivered += 1;
        let _ = bot.ingest_weighted(ev.minute, &ev.sql, ev.count);
    }
    let stats = events.stats().clone();
    let health = bot.health();

    // Invariant 1: exact accounting.
    if stats.events_out != delivered
        || health.ingested_statements + health.rejected_statements != delivered
    {
        return Err(fail(
            case,
            format!(
                "accounting identity broken: delivered {delivered}, injector says {}, \
                 ingested {} + rejected {}",
                stats.events_out, health.ingested_statements, health.rejected_statements
            ),
        ));
    }
    // Invariant 2: quarantine bounded by what the plan corrupted.
    if health.rejected_statements > stats.max_possible_rejections() {
        return Err(fail(
            case,
            format!(
                "quarantine dropped more than the fault plan injected: rejected {} > \
                 malformed {} + truncated {} + duplicated {}",
                health.rejected_statements, stats.malformed, stats.truncated, stats.duplicated
            ),
        ));
    }

    let now = case.days as i64 * MINUTES_PER_DAY;
    bot.update_clusters(now);
    if bot.tracked_clusters().is_empty() {
        return Err(fail(case, "no clusters tracked after a full trace".into()));
    }

    let specs: Vec<HorizonSpec> = horizons
        .iter()
        .map(|&h| HorizonSpec {
            interval: Interval::HOUR,
            window: 24,
            horizon: h,
            train_steps: (case.days as usize - 1) * 24,
        })
        .collect();

    let mut per_width: Vec<Vec<Vec<u64>>> = Vec::new();
    let mut first_forecasts: Vec<Vec<f64>> = Vec::new();
    for &w in widths {
        let mut mgr =
            ForecastManager::new(specs.clone(), || Box::new(LinearRegression::default()));
        mgr.set_threads(w);
        let outcome = mgr
            .ensure_trained(&bot, now)
            .map_err(|e| fail(case, format!("training failed at width {w}: {e}")))?;
        if !matches!(outcome, RetrainOutcome::Retrained { .. }) {
            return Err(fail(case, format!("expected a retrain at width {w}, got {outcome:?}")));
        }
        let mut bits = Vec::new();
        for (h, _) in horizons.iter().enumerate() {
            let pred = mgr.predict(&bot, now, h);
            // Invariant 3: no NaN leaves a model.
            if pred.iter().any(|v| !v.is_finite() || *v < 0.0) {
                return Err(fail(
                    case,
                    format!("non-finite or negative forecast at width {w}, horizon {h}: {pred:?}"),
                ));
            }
            // Invariant 4: the degradation level is on the documented
            // chain, and a plain LR model never degrades.
            match mgr.degradation(h) {
                Some(
                    DegradationLevel::Full
                    | DegradationLevel::Ensemble
                    | DegradationLevel::Single
                    | DegradationLevel::LastValue,
                ) => {}
                None => return Err(fail(case, format!("horizon {h} lost its model"))),
            }
            if mgr.degradation(h) != Some(DegradationLevel::Full) {
                return Err(fail(
                    case,
                    format!("LR degraded at width {w}, horizon {h}: {:?}", mgr.degradation(h)),
                ));
            }
            if w == widths[0] {
                first_forecasts.push(pred.clone());
            }
            bits.push(pred.iter().map(|v| v.to_bits()).collect::<Vec<u64>>());
        }
        per_width.push(bits);
    }
    // Invariant 5: bit-identical forecasts across widths.
    for (i, bits) in per_width.iter().enumerate().skip(1) {
        if bits != &per_width[0] {
            return Err(fail(
                case,
                format!("forecasts diverged between widths {} and {}", widths[0], widths[i]),
            ));
        }
    }

    Ok(SimOutcome {
        stats,
        num_templates: bot.preprocessor().num_templates(),
        num_clusters: bot.tracked_clusters().len(),
        forecasts: first_forecasts,
    })
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

/// Invariant 7 — batched-ingest determinism. Replays `case` through the
/// sharded batch engine at every pool width, on two schedules — one tick
/// per consecutive same-minute run of delivered events, and one batch per
/// consecutive same-hour run — and checks:
///
/// * on each schedule, the exported pipeline state and every forecast are
///   bit-identical across widths;
/// * the comparison is not vacuous: at least one compared batch was large
///   enough for the engine to fan its shards out on the pool (per-minute
///   ticks of the paper workloads mostly run on the caller);
/// * splitting each tick in half leaves the Pre-Processor's counted
///   state (templates, histories, caches, quarantine) unchanged;
/// * the whole Pre-Processor state — templates, histories, parameter
///   reservoirs, shard slots, accounting stats, quarantine and the seed
///   chain — equals that of a per-event `ingest_weighted` replay of the
///   same stream.
pub fn run_batched(
    case: &SimCase,
    horizons: &[usize],
    widths: &[usize],
) -> Result<(), SimFailure> {
    assert!(!horizons.is_empty() && !widths.is_empty(), "empty sweep");
    let trace = TraceConfig { start: 0, days: case.days, scale: case.scale, seed: case.seed };
    let plan = if case.fault_intensity == 0.0 {
        FaultPlan::none(case.seed)
    } else {
        FaultPlan::with_intensity(case.seed, case.fault_intensity)
    };
    let events: Vec<QueryEvent> = plan.inject(case.workload.generator(trace)).collect();
    let ticks = runs_by(&events, |ev| ev.minute);
    let hours = runs_by(&events, |ev| ev.minute.div_euclid(60));
    let now = case.days as i64 * MINUTES_PER_DAY;
    // Counts the batches that reached the pool (`parallel.map`).
    let fan_outs = Recorder::new();

    let run_one = |width: usize, schedule: &[Range<usize>], halve_ticks: bool| {
        let pool = ThreadPool::new(width).instrumented(&fan_outs);
        let mut bot = QueryBot5000::new(Qb5000Config::default());
        for tick in schedule {
            let batch: Vec<BatchItem<'_>> = events[tick.clone()]
                .iter()
                .map(|ev| BatchItem { minute: ev.minute, sql: &ev.sql, count: ev.count })
                .collect();
            if halve_ticks && batch.len() > 1 {
                let mid = batch.len() / 2;
                bot.ingest_batch_with(&pool, &batch[..mid]);
                bot.ingest_batch_with(&pool, &batch[mid..]);
            } else {
                bot.ingest_batch_with(&pool, &batch);
            }
        }
        bot.update_clusters(now);
        bot
    };

    let specs: Vec<HorizonSpec> = horizons
        .iter()
        .map(|&h| HorizonSpec {
            interval: Interval::HOUR,
            window: 24,
            horizon: h,
            train_steps: (case.days as usize - 1) * 24,
        })
        .collect();

    let mut schedule_states: Vec<qb5000::PipelineState> = Vec::new();
    for (name, schedule) in [("minute", &ticks), ("hour", &hours)] {
        let mut reference: Option<(qb5000::PipelineState, Vec<Vec<u64>>)> = None;
        for &w in widths {
            let bot = run_one(w, schedule, false);
            if bot.tracked_clusters().is_empty() {
                return Err(fail(case, "no clusters tracked after a batched trace".into()));
            }
            let mut mgr =
                ForecastManager::new(specs.clone(), || Box::new(LinearRegression::default()));
            mgr.set_threads(w);
            mgr.ensure_trained(&bot, now)
                .map_err(|e| fail(case, format!("batched training failed at width {w}: {e}")))?;
            let bits: Vec<Vec<u64>> = (0..horizons.len())
                .map(|h| mgr.predict(&bot, now, h).iter().map(|v| v.to_bits()).collect())
                .collect();
            let state = bot.export_state();
            match &reference {
                None => reference = Some((state, bits)),
                Some((ref_state, ref_bits)) => {
                    if &state != ref_state {
                        return Err(fail(
                            case,
                            format!(
                                "batched pipeline state diverged between widths {} and {w} \
                                 on {name} batches",
                                widths[0]
                            ),
                        ));
                    }
                    if &bits != ref_bits {
                        return Err(fail(
                            case,
                            format!(
                                "batched forecasts diverged between widths {} and {w} \
                                 on {name} batches",
                                widths[0]
                            ),
                        ));
                    }
                }
            }
        }
        schedule_states.push(reference.expect("at least one width ran").0);
    }
    let ref_state = &schedule_states[0];
    // Hour batches are a coarser split of the same stream.
    if schedule_states[1].pre != ref_state.pre {
        return Err(fail(case, "hour-sized batches changed the Pre-Processor state".into()));
    }
    if fan_outs.snapshot().histograms.get("parallel.map").map_or(0, |h| h.count) == 0 {
        return Err(fail(
            case,
            "no compared batch reached the pool: the width comparison is vacuous".into(),
        ));
    }

    // Splitting every tick must not change any counted state.
    let halved = run_one(widths[0], &ticks, true).export_state();
    if halved.pre != ref_state.pre {
        return Err(fail(case, "tick splitting changed the Pre-Processor state".into()));
    }

    // Differential oracle: per-event ingest of the same stream.
    let mut per_event = QueryBot5000::new(Qb5000Config::default());
    for ev in &events {
        let _ = per_event.ingest_weighted(ev.minute, &ev.sql, ev.count);
    }
    if per_event.export_state().pre != ref_state.pre {
        return Err(fail(
            case,
            "per-minute ticks diverged from per-event ingest in the Pre-Processor state".into(),
        ));
    }
    Ok(())
}

/// Invariant 8 — serving determinism. Replays `case` once per width with a
/// **fresh** pipeline whose config enables the serving layer,
/// trains a manager (publishing per-horizon curves), then answers every
/// reader query shape at the final epoch and checks:
///
/// * the published epoch is identical at every width (the publication
///   schedule is part of the deterministic contract);
/// * per-cluster curve answers and the top-K ranking are bit-identical
///   across widths;
/// * every served curve equals the manager's synchronous
///   [`ForecastManager::predict`] output bit-for-bit — a reader pulling
///   from the snapshot and a caller pulling from the manager can never
///   disagree at the same epoch.
pub fn run_served(
    case: &SimCase,
    horizons: &[usize],
    widths: &[usize],
) -> Result<(), SimFailure> {
    assert!(!horizons.is_empty() && !widths.is_empty(), "empty sweep");
    let specs: Vec<HorizonSpec> = horizons
        .iter()
        .map(|&h| HorizonSpec {
            interval: Interval::HOUR,
            window: 24,
            horizon: h,
            train_steps: (case.days as usize - 1) * 24,
        })
        .collect();

    // (epoch, per-horizon per-cluster curve bits, per-horizon top-k bits)
    type ServedBits = (u64, Vec<Vec<u64>>, Vec<Vec<(u64, u64)>>);
    let mut reference: Option<ServedBits> = None;
    for &w in widths {
        let service = ForecastService::for_specs(&specs);
        let config = Qb5000Config::builder()
            .serve(service.clone())
            .build()
            .expect("default served config is valid");
        let mut bot = QueryBot5000::new(config);
        let trace = TraceConfig { start: 0, days: case.days, scale: case.scale, seed: case.seed };
        let plan = if case.fault_intensity == 0.0 {
            FaultPlan::none(case.seed)
        } else {
            FaultPlan::with_intensity(case.seed, case.fault_intensity)
        };
        for ev in plan.inject(case.workload.generator(trace)) {
            let _ = bot.ingest_weighted(ev.minute, &ev.sql, ev.count);
        }
        let now = case.days as i64 * MINUTES_PER_DAY;
        bot.update_clusters(now);
        if bot.tracked_clusters().is_empty() {
            return Err(fail(case, "no clusters tracked after a served trace".into()));
        }
        let mut mgr =
            ForecastManager::new(specs.clone(), || Box::new(LinearRegression::default()));
        mgr.set_threads(w);
        mgr.ensure_trained(&bot, now)
            .map_err(|e| fail(case, format!("served training failed at width {w}: {e}")))?;

        let reader = service.reader();
        let epoch = service.epoch();
        let clusters = mgr.serving_clusters().to_vec();
        let mut curve_bits: Vec<Vec<u64>> = Vec::new();
        let mut topk_bits: Vec<Vec<(u64, u64)>> = Vec::new();
        for (h, _) in horizons.iter().enumerate() {
            let synchronous = mgr.predict(&bot, now, h);
            let mut row = Vec::new();
            for (ci, cluster) in clusters.iter().enumerate() {
                let answer = reader.answer(&ForecastQuery::cluster(cluster.id.0, h));
                if answer.epoch != epoch {
                    return Err(fail(
                        case,
                        format!("reader at width {w} answered epoch {} != {epoch}", answer.epoch),
                    ));
                }
                let Some(curve) = answer.curve() else {
                    return Err(fail(
                        case,
                        format!("cluster {} horizon {h} unserved at width {w}", cluster.id.0),
                    ));
                };
                if curve.values[0].to_bits() != synchronous[ci].to_bits() {
                    return Err(fail(
                        case,
                        format!(
                            "served curve diverged from the synchronous prediction at \
                             width {w}, cluster {}, horizon {h}",
                            cluster.id.0
                        ),
                    ));
                }
                row.push(curve.values[0].to_bits());
            }
            curve_bits.push(row);
            let ranking = reader
                .answer(&ForecastQuery::top_k(clusters.len(), h))
                .ranking()
                .map(|r| r.iter().map(|&(c, v)| (c, v.to_bits())).collect::<Vec<_>>())
                .unwrap_or_default();
            topk_bits.push(ranking);
        }
        let bits = (epoch, curve_bits, topk_bits);
        match &reference {
            None => reference = Some(bits),
            Some(ref_bits) => {
                if &bits != ref_bits {
                    return Err(fail(
                        case,
                        format!(
                            "served answers diverged between widths {} and {w}",
                            widths[0]
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Everything one traced replay retained, for lineage inspection.
#[derive(Debug)]
pub struct TracedOutcome {
    /// Thread-pool width this replay ran at.
    pub width: usize,
    /// Snapshot of the flight recorder after training.
    pub view: TraceView,
    /// [`TraceView::deterministic_stream`] — no wall-clock timestamps.
    pub stream: String,
    /// `explain()` of the latest per-horizon model fit.
    pub fit_lineage: String,
    /// Flight-recorder dumps captured during the replay.
    pub dumps: Vec<TraceDump>,
}

/// Invariant 6 — trace determinism. Replays `case` once per width with a
/// **fresh** pipeline and an enabled [`Tracer`] (unlike [`run_case`],
/// which shares one bot, tracing must re-ingest per width so the whole
/// event stream is comparable), then checks that the deterministic stream,
/// the model-fit lineage, and the dump log are byte-identical across
/// widths. Returns one [`TracedOutcome`] per width, in `widths` order.
pub fn run_traced(
    case: &SimCase,
    horizons: &[usize],
    widths: &[usize],
    make_model: impl Fn() -> Box<dyn Forecaster> + Send + Sync + Clone + 'static,
) -> Result<Vec<TracedOutcome>, SimFailure> {
    assert!(!horizons.is_empty() && !widths.is_empty(), "empty sweep");
    let specs: Vec<HorizonSpec> = horizons
        .iter()
        .map(|&h| HorizonSpec {
            interval: Interval::HOUR,
            window: 24,
            horizon: h,
            train_steps: (case.days as usize - 1) * 24,
        })
        .collect();

    let mut outcomes: Vec<TracedOutcome> = Vec::new();
    for &w in widths {
        let tracer = Tracer::enabled();
        let config = Qb5000Config::builder()
            .trace(tracer.clone())
            .build()
            .expect("default traced config is valid");
        let mut bot = QueryBot5000::new(config);
        let trace = TraceConfig { start: 0, days: case.days, scale: case.scale, seed: case.seed };
        let plan = if case.fault_intensity == 0.0 {
            FaultPlan::none(case.seed)
        } else {
            FaultPlan::with_intensity(case.seed, case.fault_intensity)
        };
        for ev in plan.inject(case.workload.generator(trace)) {
            let _ = bot.ingest_weighted(ev.minute, &ev.sql, ev.count);
        }
        let now = case.days as i64 * MINUTES_PER_DAY;
        bot.update_clusters(now);
        if bot.tracked_clusters().is_empty() {
            return Err(fail(case, "no clusters tracked after a full trace".into()));
        }
        let mut mgr = ForecastManager::new(specs.clone(), make_model.clone());
        mgr.set_threads(w);
        mgr.set_tracer(bot.tracer());
        mgr.ensure_trained(&bot, now)
            .map_err(|e| fail(case, format!("training failed at width {w}: {e}")))?;
        let view = tracer.view();
        let fit = view
            .latest(EventKind::ModelFit)
            .ok_or_else(|| fail(case, format!("no ModelFit event traced at width {w}")))?;
        let fit_lineage = view.explain(fit.id);
        outcomes.push(TracedOutcome {
            width: w,
            stream: view.deterministic_stream(),
            fit_lineage,
            dumps: tracer.dumps(),
            view,
        });
    }

    // Invariant 6: the whole retained trace is byte-identical per width.
    let first = &outcomes[0];
    for other in outcomes.iter().skip(1) {
        if other.stream != first.stream {
            return Err(fail(
                case,
                format!("trace stream diverged between widths {} and {}", first.width, other.width),
            ));
        }
        if other.fit_lineage != first.fit_lineage {
            return Err(fail(
                case,
                format!(
                    "model-fit lineage diverged between widths {} and {}",
                    first.width, other.width
                ),
            ));
        }
        let render = |dumps: &[TraceDump]| {
            dumps
                .iter()
                .map(|d| format!("{} @r{}\n{}\n{}", d.reason, d.round, d.lineage, d.recent))
                .collect::<Vec<_>>()
                .join("\n---\n")
        };
        if render(&other.dumps) != render(&first.dumps) {
            return Err(fail(
                case,
                format!("dump log diverged between widths {} and {}", first.width, other.width),
            ));
        }
    }
    Ok(outcomes)
}

/// Deterministic SLO rules for the monitored harness: counters and gauges
/// only — no wall-time quantiles — so every probe folds the same numbers
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
            AlertCondition::Absent { counter: "preprocessor.ingested_statements".into(), window: 2 },
        ),
    ]
}

/// Invariant 9 — alert-stream determinism. Replays `case`'s fault plan
/// over a churn scenario's evolving template mix through the sharded
/// batch-ingest engine at every width, refreshing clusters and folding a
/// metrics snapshot into a [`Monitor`] every six simulated hours, and
/// checks:
///
/// * the alert firing/resolved transition log is byte-identical across
///   all requested widths;
/// * the typed active-alert set at end of run is identical across widths;
/// * a same-seed re-run at the first width reproduces the log byte for
///   byte;
/// * with a non-zero fault intensity the stream is non-vacuous (the
///   quarantine-share rule must have fired at least once).
///
/// Returns the (shared) transition log for golden-style inspection.
pub fn run_monitored(
    case: &SimCase,
    scenario: ChurnScenario,
    widths: &[usize],
) -> Result<Vec<String>, SimFailure> {
    assert!(!widths.is_empty(), "empty sweep");
    const ROUND_MINUTES: i64 = 6 * 60;

    let run_one = |w: usize| -> Result<(Vec<String>, Vec<qb5000::ActiveAlert>), SimFailure> {
        let trace = TraceConfig { start: 0, days: case.days, scale: case.scale, seed: case.seed };
        let plan = if case.fault_intensity == 0.0 {
            FaultPlan::none(case.seed)
        } else {
            FaultPlan::with_intensity(case.seed, case.fault_intensity)
        };
        let events: Vec<QueryEvent> = plan.inject(scenario.generator(trace, 1.5)).collect();
        let recorder = Recorder::new();
        let config = Qb5000Config::builder()
            .recorder(recorder.clone())
            .build()
            .expect("default monitored config is valid");
        let mut bot = QueryBot5000::new(config);
        let mut monitor = Monitor::new(MonitorConfig::default().rules(sim_rules()))
            .map_err(|e| fail(case, format!("monitor setup failed at width {w}: {e}")))?;
        let tracer = Tracer::disabled();
        let pool = ThreadPool::new(w);

        let mut round = 0u64;
        let mut next_round = ROUND_MINUTES;
        for tick in runs_by(&events, |ev| ev.minute) {
            while events[tick.start].minute >= next_round {
                round += 1;
                bot.update_clusters(next_round);
                monitor.observe_round(round, &recorder.snapshot(), &[], &tracer);
                next_round += ROUND_MINUTES;
            }
            let batch: Vec<BatchItem<'_>> = events[tick]
                .iter()
                .map(|ev| BatchItem { minute: ev.minute, sql: &ev.sql, count: ev.count })
                .collect();
            bot.ingest_batch_with(&pool, &batch);
        }
        // Settle the tail of the trace into one final round.
        round += 1;
        bot.update_clusters(case.days as i64 * MINUTES_PER_DAY);
        monitor.observe_round(round, &recorder.snapshot(), &[], &tracer);
        Ok((monitor.transition_log().to_vec(), monitor.active_alerts()))
    };

    let (first_log, first_active) = run_one(widths[0])?;
    if case.fault_intensity > 0.0
        && !first_log.iter().any(|l| l.contains("fired rule=sim-quarantine-share"))
    {
        return Err(fail(
            case,
            format!("faulted replay never tripped the quarantine rule: {first_log:?}"),
        ));
    }
    for &w in &widths[1..] {
        let (log, active) = run_one(w)?;
        if log != first_log {
            return Err(fail(
                case,
                format!("alert transition log diverged between widths {} and {w}", widths[0]),
            ));
        }
        if active != first_active {
            return Err(fail(
                case,
                format!("active-alert set diverged between widths {} and {w}", widths[0]),
            ));
        }
    }
    // Byte-stability: a same-seed re-run reproduces the exact log.
    let (again, _) = run_one(widths[0])?;
    if again != first_log {
        return Err(fail(case, "same-seed monitored re-run changed the alert log".into()));
    }
    Ok(first_log)
}
