//! Cross-crate integration: the §7.6 closed loop over the dbsim engine.

use qb_bench::controller::{
    ControllerConfig, ExperimentResult, IndexSelectionExperiment, Strategy,
};
use qb_timeseries::MINUTES_PER_DAY;
use qb_workloads::Workload;

fn base(workload: Workload) -> ControllerConfig {
    ControllerConfig {
        workload,
        strategy: Strategy::Auto,
        db_scale: 0.06,
        history_days: 2,
        run_hours: 6,
        trace_scale: 0.08,
        index_budget: 6,
        build_period: 60,
        report_window: 60,
        // Start mid-morning so the 6-hour run covers the daytime load.
        run_start: match workload {
            Workload::Admissions => 325 * MINUTES_PER_DAY + 7 * 60,
            _ => 14 * MINUTES_PER_DAY + 7 * 60,
        },
        seed: 0xE2E,
        ..ControllerConfig::default()
    }
}

fn run(cfg: ControllerConfig) -> ExperimentResult {
    IndexSelectionExperiment::new(cfg).expect("integration config is valid").run()
}

#[test]
fn auto_improves_over_the_run_bustracker() {
    let result = run(base(Workload::BusTracker));
    assert!(result.total_queries > 1_000);
    assert!(!result.indexes.is_empty(), "AUTO should build indexes");
    let first = result.samples.first().expect("samples").throughput_qps;
    assert!(
        result.final_throughput() > first,
        "throughput should improve from {first} to {}",
        result.final_throughput()
    );
}

#[test]
fn auto_improves_over_the_run_admissions() {
    let result = run(base(Workload::Admissions));
    assert!(!result.indexes.is_empty());
    let first = result.samples.first().expect("samples").throughput_qps;
    assert!(result.final_throughput() > first);
}

#[test]
fn static_and_auto_both_beat_no_indexes() {
    // A zero-budget run is the no-index baseline.
    let mut no_ix = base(Workload::BusTracker);
    no_ix.index_budget = 0;
    let baseline = run(no_ix);

    let auto = run(base(Workload::BusTracker));
    let static_ =
        run(ControllerConfig { strategy: Strategy::Static, ..base(Workload::BusTracker) });

    assert!(baseline.indexes.is_empty());
    assert!(
        auto.final_throughput() > baseline.final_throughput(),
        "AUTO {} vs baseline {}",
        auto.final_throughput(),
        baseline.final_throughput()
    );
    assert!(static_.final_throughput() > baseline.final_throughput());
}

#[test]
fn static_builds_everything_up_front_auto_incrementally() {
    let auto = run(base(Workload::BusTracker));
    let static_ =
        run(ControllerConfig { strategy: Strategy::Static, ..base(Workload::BusTracker) });
    assert!(static_.indexes.iter().all(|(t, _)| *t == 0));
    assert!(
        auto.indexes.iter().any(|(t, _)| *t > 0),
        "AUTO should keep building during the run: {:?}",
        auto.indexes
    );
}

#[test]
fn latency_drops_as_indexes_land() {
    let result = run(base(Workload::BusTracker));
    let first_p99 = result.samples.first().expect("samples").p99_latency_ms;
    let final_p99 = result.final_latency();
    assert!(
        final_p99 < first_p99,
        "p99 should drop: {first_p99} -> {final_p99}"
    );
}

#[test]
fn auto_logical_completes_with_indexes_or_not() {
    // The ablation must at least run the full loop; whether it finds good
    // indexes depends on the logical clusters (usually worse than AUTO).
    let result = run(ControllerConfig {
        strategy: Strategy::AutoLogical,
        ..base(Workload::BusTracker)
    });
    assert!(result.total_queries > 1_000);
    assert!(!result.samples.is_empty());
}
