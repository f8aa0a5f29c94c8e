//! Cold start against waiting for history on burst-shaped churn.
//!
//! The invariants of served cold-start pipelines over churn traces are
//! checked by the simulation matrix (`simtest.rs::churn_matrix`); this
//! file holds the accuracy comparison that `qb_testkit::scenario` scores.

use qb_testkit::scenario::cold_vs_wait;
use qb_workloads::ChurnScenario;

/// The seeds the simulation matrix checks in too.
const SEEDS: &[u64] = &[0x5EED_CAFE, 0x00DD_BA11];

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
            let outcome = cold_vs_wait(scenario, seed);
            assert!(
                outcome.cold_templates > 0,
                "{scenario:?} seed {seed:#x}: churn must land templates in the \
                 new-template gap, got none"
            );
            let cold = outcome.cold_mse.expect("cold claims settled");
            let base = outcome.baseline_mse.expect("baseline claims settled");
            assert!(
                cold < base && base.is_finite(),
                "{scenario:?} seed {seed:#x}: cold-start MSE {cold} must beat \
                 wait-for-history {base} over {} templates",
                outcome.cold_templates
            );
        }
    }
}
