//! Evolving-workload scenario matrix: template churn × cold start.
//!
//! One [`ScenarioCase`] fully determines an end-to-end run over a
//! [`ChurnScenario`] trace: churn intensity, fault intensity, seed, and
//! length. [`run_scenario`] replays the case through a serving pipeline
//! with the cold-start path enabled, staging the timeline so churn
//! templates land in the *new-template gap* — after the last cluster
//! update, before the retrain — exactly where a forecast-consumer would
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
//! Checked invariants:
//!
//! 1. **Accounting identity** — `ingested + rejected == delivered`, and
//!    the quarantine never exceeds what the fault plan corrupted (the
//!    chaos-suite identity, composed with churn).
//! 2. **Degradation chain** — every trained horizon reports a level on
//!    the documented `Full → Ensemble → Single → LastValue` chain.
//! 3. **Finite scoring** — both policies' MSEs are finite whenever any
//!    claim settles.
//! 4. **Thread-width bit-identity** — the served epoch, warm curve bits,
//!    cold-start entries (template, origin, share, curve bits), and both
//!    trackers' MSE bits are identical at every requested width.
//!
//! On violation the harness returns a [`ScenarioFailure`] whose `Display`
//! embeds [`scenario_repro_command`] — a copy-pasteable `cargo test` line
//! replaying exactly this case via the `single_scenario_repro` test.

use qb5000::{
    AccuracyTracker, ColdStartOrigin, ForecastManager, ForecastQuery, ForecastService,
    Qb5000Config, QueryBot5000, RetrainOutcome,
};
use qb_clusterer::ClusterId;
use qb_forecast::{DegradationLevel, LinearRegression};
use qb_preprocessor::TemplateId;
use qb_timeseries::{Interval, MINUTES_PER_DAY};
use qb_workloads::{ChurnScenario, TraceConfig};

use crate::sim::{check_accounting, deliver, hourly_specs};

/// One fully-seeded evolving-workload case.
#[derive(Debug, Clone)]
pub struct ScenarioCase {
    pub scenario: ChurnScenario,
    /// Churn intensity: 0.0 is the stable base population, 1.0 the
    /// scenario's nominal churn, larger values proportionally more.
    pub intensity: f64,
    /// `FaultPlan::with_intensity` knob; 0.0 runs a clean passthrough.
    pub fault_intensity: f64,
    /// Seeds the trace generator *and* the fault plan.
    pub seed: u64,
    pub days: u32,
    pub scale: f64,
}

impl ScenarioCase {
    pub fn new(scenario: ChurnScenario, intensity: f64, fault_intensity: f64, seed: u64) -> Self {
        Self { scenario, intensity, fault_intensity, seed, days: 4, scale: 0.05 }
    }
}

/// What one scenario run measured (taken from the first width).
#[derive(Debug)]
pub struct ScenarioOutcome {
    pub num_templates: usize,
    pub num_clusters: usize,
    /// Cold-start entries published (and scored) at the train cut.
    pub cold_templates: usize,
    /// Mean per-horizon log-space MSE of the cold-start estimates; `None`
    /// when no claim settled.
    pub cold_mse: Option<f64>,
    /// Same claims scored for the wait-for-history baseline (predict 0
    /// until a full window accrues).
    pub baseline_mse: Option<f64>,
}

/// An invariant violation, carrying the repro command.
#[derive(Debug)]
pub struct ScenarioFailure {
    pub case: ScenarioCase,
    pub invariant: String,
}

impl std::fmt::Display for ScenarioFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "scenario invariant violated: {}", self.invariant)?;
        writeln!(f, "  case: {:?}", self.case)?;
        write!(f, "  reproduce with:\n    {}", scenario_repro_command(&self.case))
    }
}

/// The copy-pasteable single-case repro line printed on failure.
pub fn scenario_repro_command(case: &ScenarioCase) -> String {
    format!(
        "QB_SIM_SEED={:#x} QB_SCENARIO={} QB_SCENARIO_INTENSITY={} QB_SIM_INTENSITY={} \
         QB_SIM_DAYS={} cargo test -p qb-testkit --test scenario_matrix single_scenario_repro \
         -- --nocapture",
        case.seed,
        case.scenario.name(),
        case.intensity,
        case.fault_intensity,
        case.days,
    )
}

/// Parses environment overrides onto a default case — the receiving end
/// of [`scenario_repro_command`]. Shares the `QB_SIM_*` spelling with
/// `sim::case_from_env` for the knobs both harnesses have.
pub fn scenario_from_env() -> ScenarioCase {
    let mut case = ScenarioCase::new(ChurnScenario::FeatureLaunch, 1.0, 0.0, 0x5EED);
    case.seed = crate::sim::seed_from_env().unwrap_or(case.seed);
    if let Ok(name) = std::env::var("QB_SCENARIO") {
        case.scenario = ChurnScenario::parse(&name)
            .unwrap_or_else(|| panic!("unknown QB_SCENARIO {name:?}"));
    }
    if let Ok(i) = std::env::var("QB_SCENARIO_INTENSITY") {
        case.intensity = i.parse().expect("numeric QB_SCENARIO_INTENSITY");
    }
    if let Ok(i) = std::env::var("QB_SIM_INTENSITY") {
        case.fault_intensity = i.parse().expect("numeric QB_SIM_INTENSITY");
    }
    if let Ok(d) = std::env::var("QB_SIM_DAYS") {
        case.days = d.parse().expect("numeric QB_SIM_DAYS");
    }
    case
}

fn fail(case: &ScenarioCase, invariant: String) -> ScenarioFailure {
    ScenarioFailure { case: case.clone(), invariant }
}

/// Everything one width measured, in bit-exact form, for the cross-width
/// identity check.
#[derive(PartialEq, Debug)]
struct WidthBits {
    epoch: u64,
    /// Per horizon, per tracked cluster: served warm curve value bits.
    warm: Vec<Vec<u64>>,
    /// Per cold entry: (template, origin discriminant, share bits, per-slot
    /// curve value bits).
    cold: Vec<(u32, u8, u64, Vec<Option<u64>>)>,
    cold_mse: Vec<Option<u64>>,
    baseline_mse: Vec<Option<u64>>,
}

/// Replays one case at every thread width and checks invariants 1–4.
///
/// `horizons` are forecast offsets in hours (hourly interval, 24-step
/// window); `widths` are the thread-pool sizes to sweep.
pub fn run_scenario(
    case: &ScenarioCase,
    horizons: &[usize],
    widths: &[usize],
) -> Result<ScenarioOutcome, ScenarioFailure> {
    assert!(!horizons.is_empty() && !widths.is_empty(), "empty sweep");
    let trace = TraceConfig { start: 0, days: case.days, scale: case.scale, seed: case.seed };
    let generator = case.scenario.generator(trace, case.intensity);
    let (events, stats) = deliver(generator, case.fault_intensity, case.seed);

    let end = case.days as i64 * MINUTES_PER_DAY;
    let span = end; // traces start at 0
    // The new-template gap: routing freezes at half the span (before the
    // churn scenarios' main activations), training happens at 3/4 — churn
    // templates activating in between are unrouted at the retrain.
    let cluster_cut = span / 2;
    let train_cut = span * 3 / 4;

    let specs = hourly_specs(case.days, horizons);

    let mut reference: Option<WidthBits> = None;
    let mut outcome: Option<ScenarioOutcome> = None;
    for &w in widths {
        let service = ForecastService::for_specs(&specs);
        let config = Qb5000Config::builder()
            .serve(service.clone())
            .cold_start(true)
            .build()
            .expect("served cold-start config is valid");
        let mut bot = QueryBot5000::new(config);
        // Stage the delivered stream by phase. Faults may reorder events
        // across the cuts, so phases partition on the event's own minute —
        // a stable, width-independent split of the identical stream.
        let phase = |lo: i64, hi: i64| events.iter().filter(move |ev| (lo..hi).contains(&ev.minute));
        for ev in phase(i64::MIN, cluster_cut) {
            let _ = bot.ingest_weighted(ev.minute, &ev.sql, ev.count);
        }
        bot.update_clusters(cluster_cut);
        if bot.tracked_clusters().is_empty() {
            return Err(fail(case, "no clusters tracked at the cluster cut".into()));
        }
        for ev in phase(cluster_cut, train_cut) {
            let _ = bot.ingest_weighted(ev.minute, &ev.sql, ev.count);
        }

        let mut mgr = ForecastManager::new(specs.clone(), || {
            Box::new(LinearRegression::default())
        });
        mgr.set_threads(w);
        let trained = mgr
            .ensure_trained(&bot, train_cut)
            .map_err(|e| fail(case, format!("training failed at width {w}: {e}")))?;
        if !matches!(trained, RetrainOutcome::Retrained { .. }) {
            return Err(fail(case, format!("expected a retrain at width {w}, got {trained:?}")));
        }
        // Invariant 2: degradation levels stay on the documented chain.
        for h in 0..horizons.len() {
            match mgr.degradation(h) {
                Some(
                    DegradationLevel::Full
                    | DegradationLevel::Ensemble
                    | DegradationLevel::Single
                    | DegradationLevel::LastValue,
                ) => {}
                None => return Err(fail(case, format!("horizon {h} lost its model"))),
            }
        }

        // Score the gap: the published cold entries vs the wait-for-history
        // baseline, as identical claims on two trackers. Each cold template
        // becomes a synthetic single-member cluster so the tracker settles
        // it against the template's own arrival series.
        let snapshot = service.snapshot();
        let cold_entries = snapshot.cold_starts().to_vec();
        let claims: Vec<qb5000::ClusterInfo> = cold_entries
            .iter()
            .map(|c| qb5000::ClusterInfo {
                id: ClusterId(c.template as u64),
                volume: 0.0,
                members: vec![TemplateId(c.template)],
            })
            .collect();
        let mut cold_tracker = AccuracyTracker::new(horizons.len(), 256);
        let mut base_tracker = AccuracyTracker::new(horizons.len(), 256);
        for (i, &h) in horizons.iter().enumerate() {
            let seeded: Vec<f64> = cold_entries
                .iter()
                .map(|c| {
                    c.curves
                        .get(i)
                        .and_then(|slot| slot.as_ref())
                        .map_or(0.0, |curve| curve.values[0])
                })
                .collect();
            let zeros = vec![0.0; claims.len()];
            cold_tracker.record(i, train_cut, Interval::HOUR, h, &claims, &seeded);
            base_tracker.record(i, train_cut, Interval::HOUR, h, &claims, &zeros);
        }

        // Deliver the future, then settle both trackers against it.
        for ev in phase(train_cut, i64::MAX) {
            let _ = bot.ingest_weighted(ev.minute, &ev.sql, ev.count);
        }
        cold_tracker.settle(&bot, end);
        base_tracker.settle(&bot, end);

        // Invariant 1: the chaos accounting identity survives churn.
        check_accounting(&bot.health(), events.len(), &stats)
            .map_err(|e| fail(case, format!("{e} (width {w})")))?;

        let mse_row = |tr: &AccuracyTracker| -> Vec<Option<f64>> {
            (0..horizons.len()).map(|i| tr.rolling_mse(i)).collect()
        };
        let cold_mses = mse_row(&cold_tracker);
        let base_mses = mse_row(&base_tracker);
        // Invariant 3: settled scores are finite.
        for (i, pair) in cold_mses.iter().zip(&base_mses).enumerate() {
            if let (Some(c), Some(b)) = (pair.0, pair.1) {
                if !c.is_finite() || !b.is_finite() {
                    return Err(fail(
                        case,
                        format!("non-finite MSE at width {w}, horizon {i}: cold {c}, base {b}"),
                    ));
                }
            }
        }

        // Bit-exact view of everything this width measured.
        let reader = service.reader();
        let warm: Vec<Vec<u64>> = (0..horizons.len())
            .map(|i| {
                mgr.serving_clusters()
                    .iter()
                    .filter_map(|c| {
                        reader
                            .answer(&ForecastQuery::cluster(c.id.0, i))
                            .curve()
                            .map(|curve| curve.values[0].to_bits())
                    })
                    .collect()
            })
            .collect();
        let cold_bits: Vec<(u32, u8, u64, Vec<Option<u64>>)> = cold_entries
            .iter()
            .map(|c| {
                let (tag, share) = match c.origin {
                    ColdStartOrigin::ClusterShare { share, .. } => (0u8, share.to_bits()),
                    ColdStartOrigin::PopulationPrior => (1u8, 0),
                };
                let curves = c
                    .curves
                    .iter()
                    .map(|slot| slot.as_ref().map(|curve| curve.values[0].to_bits()))
                    .collect();
                (c.template, tag, share, curves)
            })
            .collect();
        let bits = WidthBits {
            epoch: service.epoch(),
            warm,
            cold: cold_bits,
            cold_mse: cold_mses.iter().map(|m| m.map(f64::to_bits)).collect(),
            baseline_mse: base_mses.iter().map(|m| m.map(f64::to_bits)).collect(),
        };
        match &reference {
            None => {
                let mean = |mses: &[Option<f64>]| {
                    let settled: Vec<f64> = mses.iter().flatten().copied().collect();
                    (!settled.is_empty())
                        .then(|| settled.iter().sum::<f64>() / settled.len() as f64)
                };
                outcome = Some(ScenarioOutcome {
                    num_templates: bot.preprocessor().num_templates(),
                    num_clusters: bot.tracked_clusters().len(),
                    cold_templates: cold_entries.len(),
                    cold_mse: mean(&cold_mses),
                    baseline_mse: mean(&base_mses),
                });
                reference = Some(bits);
            }
            Some(ref_bits) => {
                // Invariant 4: bit-identical across widths.
                if &bits != ref_bits {
                    return Err(fail(
                        case,
                        format!(
                            "scenario results diverged between widths {} and {w}",
                            widths[0]
                        ),
                    ));
                }
            }
        }
    }
    Ok(outcome.expect("at least one width ran"))
}
