//! Deterministic end-to-end simulation matrix.
//!
//! Sweeps (workload × fault intensity × seed) through the full generator →
//! fault injector → pre-processor → clusterer → forecaster pipeline at
//! thread widths {1, 4} and horizons {1, 6}, checking the five invariants
//! documented on `qb_testkit::sim` (accounting identity, quarantine bound,
//! finite forecasts, degradation chain, thread-width bit-identity).
//!
//! On failure the panic message contains a copy-pasteable one-case repro:
//!
//! ```text
//! QB_SIM_SEED=0x... QB_SIM_WORKLOAD=... QB_SIM_INTENSITY=... QB_SIM_DAYS=3 \
//!   cargo test -p qb-testkit --test simtest single_seed_repro -- --nocapture
//! ```

use qb_testkit::sim::{case_from_env, run_batched, run_case, run_monitored, run_served, SimCase};
use qb_workloads::{ChurnScenario, Workload};

const HORIZONS: &[usize] = &[1, 6];
const WIDTHS: &[usize] = &[1, 4];

/// The checked-in seed list (also the CI matrix). Two seeds per cell keeps
/// the full sweep under a minute; new seeds can be appended freely — any
/// failure prints its own repro line.
const SEEDS: &[u64] = &[0x5EED_CAFE, 0x0DDB_A11];

#[test]
fn simulation_matrix() {
    let workloads = [Workload::Admissions, Workload::BusTracker, Workload::Mooc];
    let mut ran = 0;
    for &workload in &workloads {
        for intensity in [0.0, 1.0] {
            for &seed in SEEDS {
                let case = SimCase::new(workload, intensity, seed);
                match run_case(&case, HORIZONS, WIDTHS) {
                    Ok(outcome) => {
                        assert!(outcome.num_clusters > 0);
                        ran += 1;
                    }
                    Err(failure) => panic!("{failure}"),
                }
            }
        }
    }
    assert_eq!(ran, workloads.len() * 2 * SEEDS.len());
}

/// The batched-ingest determinism matrix (invariant 7): every workload at
/// both fault intensities runs through the sharded batch engine, checking
/// width bit-identity, tick-split invariance, and agreement with
/// per-event ingest. One seed per cell — each case replays the trace four
/// times (two widths, one halved-tick pass, one per-event reference), so
/// this matrix costs ~2× `simulation_matrix` per seed.
#[test]
fn batched_ingest_matrix() {
    for workload in [Workload::Admissions, Workload::BusTracker, Workload::Mooc] {
        for intensity in [0.0, 1.0] {
            let case = SimCase::new(workload, intensity, SEEDS[0]);
            if let Err(failure) = run_batched(&case, HORIZONS, WIDTHS) {
                panic!("{failure}");
            }
        }
    }
}

/// The serving determinism matrix (invariant 8): every workload at both
/// fault intensities replays with the serving layer enabled,
/// checking that reader answers at the final published epoch — curves and
/// top-K rankings — are bit-identical across widths and equal the
/// manager's synchronous predictions bit-for-bit. One seed per cell, like
/// `batched_ingest_matrix`.
#[test]
fn served_forecast_matrix() {
    for workload in [Workload::Admissions, Workload::BusTracker, Workload::Mooc] {
        for intensity in [0.0, 1.0] {
            let case = SimCase::new(workload, intensity, SEEDS[0]);
            if let Err(failure) = run_served(&case, HORIZONS, WIDTHS) {
                panic!("{failure}");
            }
        }
    }
}

/// The alert-stream determinism matrix (invariant 9): churn scenarios ×
/// fault intensities replay through the sharded batch engine with a
/// monitor folding metric deltas and evaluating deterministic SLO rules
/// every six simulated hours. The firing/resolved transition log must be
/// byte-identical at widths 1 and 4 and across a same-seed re-run, and
/// the faulted cells must actually trip the quarantine-share rule.
/// Two churn shapes per intensity keeps this matrix near
/// `batched_ingest_matrix` cost (each cell replays three times).
#[test]
fn monitored_alert_matrix() {
    for scenario in [ChurnScenario::FeatureLaunch, ChurnScenario::FlashCrowd] {
        for intensity in [0.0, 1.0] {
            let case = SimCase::new(Workload::Admissions, intensity, SEEDS[0]);
            match run_monitored(&case, scenario, WIDTHS) {
                Ok(log) => {
                    if intensity > 0.0 {
                        assert!(!log.is_empty(), "faulted {scenario:?} produced no transitions");
                    }
                }
                Err(failure) => panic!("{failure}"),
            }
        }
    }
}

/// Replays exactly one case from `QB_SIM_*` environment overrides — the
/// target of the repro command printed by a `simulation_matrix` failure.
/// With no overrides it runs one default faulted case, so it also serves
/// as a smoke test.
#[test]
fn single_seed_repro() {
    let case = case_from_env();
    match run_case(&case, HORIZONS, WIDTHS) {
        Ok(outcome) => {
            println!(
                "case {case:?}: {} templates, {} clusters, faults {:?}",
                outcome.num_templates, outcome.num_clusters, outcome.stats
            );
        }
        Err(failure) => panic!("{failure}"),
    }
}
