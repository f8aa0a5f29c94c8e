//! Deterministic end-to-end simulation matrix.
//!
//! Runs the generator → fault injector → pre-processor → clusterer →
//! forecaster pipeline through `qb_testkit::sim::run` at thread widths
//! {1, 4}, checking the nine invariants documented there. The paper
//! matrices sweep (workload × fault intensity × seed) with one feature at
//! a time; `churn_matrix` sweeps (churn scenario × fault intensity × seed)
//! with serving and cold start on; `feature_sweep` runs every valid
//! feature subset together on one faulted churn case.
//!
//! On failure the panic message contains a copy-pasteable one-case repro:
//!
//! ```text
//! QB_SIM_SEED=0x... QB_SIM_WORKLOAD=... QB_SIM_INTENSITY=... QB_SIM_DAYS=3 \
//!   QB_SIM_FEATURES=serve,trace \
//!   cargo test -p qb-testkit --test simtest single_seed_repro -- --nocapture
//! ```

use qb_testkit::sim::{case_from_env, run, Features, SimCase};
use qb_workloads::{ChurnScenario, Workload, CHURN_SCENARIOS};

const WIDTHS: &[usize] = &[1, 4];

/// The checked-in seed list (also the CI matrix). New seeds can be
/// appended freely — any failure prints its own repro line.
const SEEDS: &[u64] = &[0x5EED_CAFE, 0x00DD_BA11];

/// Every paper workload × fault intensity {0, 1} × seed with `features`.
fn paper_matrix(features: Features) {
    for workload in [Workload::Admissions, Workload::BusTracker, Workload::Mooc] {
        for intensity in [0.0, 1.0] {
            for &seed in SEEDS {
                let case = SimCase::new(workload, intensity, seed);
                if let Err(failure) = run(&case, features, WIDTHS) {
                    panic!("{failure}");
                }
            }
        }
    }
}

/// Per-event ingest, no optional feature: invariants 1–5.
#[test]
fn simulation_matrix() {
    paper_matrix(Features::default());
}

/// Per-minute ticks through the batch ingest engine (invariant 7).
#[test]
fn batched_ingest_matrix() {
    paper_matrix(Features { ticks: true, ..Features::default() });
}

/// The serving layer on (invariant 8).
#[test]
fn served_forecast_matrix() {
    paper_matrix(Features { serve: true, ..Features::default() });
}

/// Every churn scenario with serving and cold start on (invariant 8):
/// templates minted after a cluster update are served cold-start
/// entries, and the pipeline must not notice.
#[test]
fn churn_matrix() {
    let cold_start = Features { serve: true, cold_start: true, ..Features::default() };
    for scenario in CHURN_SCENARIOS {
        for intensity in [0.0, 1.0] {
            for &seed in SEEDS {
                let case = SimCase::churn(scenario, intensity, seed);
                match run(&case, cold_start, WIDTHS) {
                    Ok(fps) => assert_ne!(
                        fps[0].served.as_ref().expect("served").cold,
                        "[]",
                        "{case:?}: no cold-start entry published, so the cold path went unchecked"
                    ),
                    Err(failure) => panic!("{failure}"),
                }
            }
        }
    }
}

/// The self-monitoring layer over two churn shapes (invariant 9): the
/// faulted cells must trip the quarantine-share rule.
#[test]
fn monitored_alert_matrix() {
    let monitor = Features { monitor: true, ticks: true, ..Features::default() };
    for scenario in [ChurnScenario::FeatureLaunch, ChurnScenario::FlashCrowd] {
        for intensity in [0.0, 1.0] {
            match run(&SimCase::churn(scenario, intensity, SEEDS[0]), monitor, WIDTHS) {
                Ok(fps) if intensity > 0.0 => {
                    let log = &fps[0].alerts.as_ref().expect("monitored").log;
                    assert!(!log.is_empty(), "faulted {scenario:?} produced no transitions");
                }
                Ok(_) => {}
                Err(failure) => panic!("{failure}"),
            }
        }
    }
}

/// Every valid subset of the six features (48 of 64) on one faulted
/// churn case, so each pair and triple of features runs together,
/// crash recovery included.
#[test]
fn feature_sweep() {
    let case = SimCase::churn(ChurnScenario::FeatureLaunch, 1.0, SEEDS[0]);
    let subsets = Features::all_valid();
    assert_eq!(subsets.len(), 48);
    for features in subsets {
        if let Err(failure) = run(&case, features, WIDTHS) {
            panic!("{failure}");
        }
    }
}

/// Replays exactly one case from `QB_SIM_*` environment overrides — the
/// target of the repro command a failure prints. With no overrides it
/// runs one default faulted case, so it also serves as a smoke test.
#[test]
fn single_seed_repro() {
    let (case, features) = case_from_env();
    match run(&case, features, WIDTHS) {
        Ok(fps) => println!(
            "case {case:?} with {features}: {} templates, {} clusters",
            fps[0].state.pre.entries.len(),
            fps[0].derived.1.len()
        ),
        Err(failure) => panic!("{failure}"),
    }
}
