//! Evolving-workload scenario matrix.
//!
//! Sweeps (churn scenario × churn intensity × fault intensity × seed)
//! through the serving pipeline with the cold-start path enabled, at
//! thread widths {1, 4} and horizons {1, 6}, checking the invariants
//! documented on `qb_testkit::scenario` (chaos accounting identity under
//! churn, degradation chain, finite scoring, cross-width bit-identity).
//!
//! On failure the panic message contains a copy-pasteable one-case repro:
//!
//! ```text
//! QB_SIM_SEED=0x... QB_SCENARIO=... QB_SCENARIO_INTENSITY=... \
//!   QB_SIM_INTENSITY=... QB_SIM_DAYS=4 \
//!   cargo test -p qb-testkit --test scenario_matrix single_scenario_repro -- --nocapture
//! ```

use qb5000::{
    ForecastManager, ForecastService, HorizonSpec, Qb5000Config, QueryBot5000,
};
use qb_forecast::LinearRegression;
use qb_testkit::scenario::{run_scenario, scenario_from_env, ScenarioCase};
use qb_timeseries::{Interval, MINUTES_PER_DAY};
use qb_workloads::{ChurnScenario, TraceConfig, CHURN_SCENARIOS};

const HORIZONS: &[usize] = &[1, 6];
const WIDTHS: &[usize] = &[1, 4];

/// The checked-in seed list (also the CI matrix).
const SEEDS: &[u64] = &[0x5EED_CAFE, 0x00DD_BA11];

#[test]
fn scenario_matrix() {
    let mut ran = 0;
    // At churn intensity 0 every scenario collapses to the same stable
    // base population (gated churn templates consume no RNG), so results
    // must be identical across scenarios for a given (fault, seed) cell.
    let mut zero_churn: std::collections::BTreeMap<(u64, u64), (usize, usize, usize)> =
        std::collections::BTreeMap::new();
    for &scenario in &CHURN_SCENARIOS {
        for intensity in [0.0, 1.0] {
            for fault in [0.0, 1.0] {
                for &seed in SEEDS {
                    let case = ScenarioCase::new(scenario, intensity, fault, seed);
                    match run_scenario(&case, HORIZONS, WIDTHS) {
                        Ok(outcome) => {
                            assert!(outcome.num_clusters > 0);
                            if intensity == 0.0 {
                                let key = (fault.to_bits(), seed);
                                let row = (
                                    outcome.num_templates,
                                    outcome.num_clusters,
                                    outcome.cold_templates,
                                );
                                let prev = zero_churn.entry(key).or_insert(row);
                                assert_eq!(
                                    *prev, row,
                                    "churn-free results must be scenario-independent \
                                     ({scenario:?}, fault {fault}, seed {seed:#x})"
                                );
                            }
                            ran += 1;
                        }
                        Err(failure) => panic!("{failure}"),
                    }
                }
            }
        }
    }
    assert_eq!(ran, CHURN_SCENARIOS.len() * 2 * 2 * SEEDS.len());
}

/// The paper-motivating comparison: on burst-shaped churn (a feature
/// launch, tenant onboarding waves) the cluster-seeded cold-start
/// estimates must score a strictly better log-space MSE than the
/// wait-for-history baseline that serves nothing until a full window
/// accrues. Flash crowds are excluded by design — their 2-hour pulses may
/// already be over at settlement, where predicting 0 is optimal.
#[test]
fn cold_start_beats_wait_for_history_on_bursts() {
    for scenario in [ChurnScenario::FeatureLaunch, ChurnScenario::TenantOnboarding] {
        for &seed in SEEDS {
            let case = ScenarioCase::new(scenario, 1.0, 0.0, seed);
            let outcome = run_scenario(&case, HORIZONS, WIDTHS).unwrap_or_else(|f| panic!("{f}"));
            assert!(
                outcome.cold_templates > 0,
                "{scenario:?} seed {seed:#x}: churn must land templates in the \
                 new-template gap, got none"
            );
            let cold = outcome.cold_mse.expect("cold claims settled");
            let base = outcome.baseline_mse.expect("baseline claims settled");
            assert!(
                cold < base,
                "{scenario:?} seed {seed:#x}: cold-start MSE {cold} must beat \
                 wait-for-history {base} over {} templates",
                outcome.cold_templates
            );
        }
    }
}

/// Differential: at churn intensity 0 the cold-start-enabled pipeline is
/// byte-identical to today's — same exported pipeline state, and warm
/// forecasts bit-for-bit equal to a plain (no serving, no cold start)
/// pipeline over the same stream. Cold start only *adds* entries for
/// unrouted templates; it never perturbs ingest, clustering, or training.
#[test]
fn intensity_zero_cold_start_is_byte_identical_to_plain_pipeline() {
    let specs = vec![HorizonSpec {
        interval: Interval::HOUR,
        window: 24,
        horizon: 1,
        train_steps: 3 * 24,
    }];
    let cfg = TraceConfig { start: 0, days: 4, scale: 0.05, seed: SEEDS[0] };
    let events: Vec<_> = ChurnScenario::SchemaMigration.generator(cfg, 0.0).collect();
    let now = 4 * MINUTES_PER_DAY;

    let run = |config: Qb5000Config| {
        let mut bot = QueryBot5000::new(config);
        for ev in &events {
            bot.ingest_weighted(ev.minute, &ev.sql, ev.count).expect("valid SQL");
        }
        bot.update_clusters(now);
        let mut mgr =
            ForecastManager::new(specs.clone(), || Box::new(LinearRegression::default()));
        mgr.ensure_trained(&bot, now).expect("training succeeds");
        let bits: Vec<u64> = mgr.predict(&bot, now, 0).iter().map(|v| v.to_bits()).collect();
        (bot.export_state(), bits)
    };

    let (plain_state, plain_bits) = run(Qb5000Config::default());
    let service = ForecastService::for_specs(&specs);
    let (cold_state, cold_bits) = run(
        Qb5000Config::builder()
            .serve(service.clone())
            .cold_start(true)
            .build()
            .expect("served cold-start config is valid"),
    );
    assert_eq!(plain_state, cold_state, "pipeline state diverged with cold start on");
    assert_eq!(plain_bits, cold_bits, "warm forecasts diverged with cold start on");
    assert!(service.epoch() >= 1, "the cold-start pipeline still published");
}

/// The receiving end of the repro line every failure prints: replays
/// exactly one env-specified case with verbose output.
#[test]
fn single_scenario_repro() {
    let case = scenario_from_env();
    println!("replaying {case:?}");
    match run_scenario(&case, HORIZONS, WIDTHS) {
        Ok(outcome) => println!("ok: {outcome:?}"),
        Err(failure) => panic!("{failure}"),
    }
}
