//! Continuous self-monitoring over the §7.6 closed loop: SLO alerts fire
//! on fault-injected regressions, carry trace lineage, and the alert
//! stream is bit-identical across worker-pool widths.

use qb5000::{
    AlertChange, AlertCondition, AlertRule, ControllerConfig, IndexSelectionExperiment,
    MonitorConfig, Qb5000Config, Severity, Strategy, Tracer,
};
use qb_timeseries::MINUTES_PER_DAY;
use qb_workloads::{FaultPlan, Workload};

/// A short monitored AUTO run. The fault plan (when given) corrupts the
/// trace with malformed SQL and arrival spikes — a quarantine-share
/// regression and a forecast-accuracy regression in one plan.
fn monitored_cfg(
    threads: usize,
    fault: Option<FaultPlan>,
    monitor: MonitorConfig,
    tracer: Tracer,
) -> ControllerConfig {
    let mut b = ControllerConfig::builder()
        .workload(Workload::BusTracker)
        .strategy(Strategy::Auto)
        .db_scale(0.06)
        .history_days(2)
        .run_hours(6)
        .trace_scale(0.08)
        .index_budget(6)
        .build_period(60)
        .report_window(60)
        .run_start(14 * MINUTES_PER_DAY + 7 * 60)
        .seed(0xE2E)
        .threads(threads)
        .pipeline(Qb5000Config { tracer, ..Qb5000Config::default() })
        .monitor(monitor);
    if let Some(plan) = fault {
        b = b.fault_plan(plan);
    }
    b.build().expect("monitoring config is valid")
}

/// Heavy deterministic corruption: enough malformed SQL to push the
/// quarantine share well past the rule threshold, plus arrival spikes
/// that poison the arrival-rate histories the forecaster trains on.
fn heavy_faults() -> FaultPlan {
    FaultPlan {
        malformed_sql: 0.10,
        arrival_spike: 0.05,
        spike_factor: 40,
        ..FaultPlan::none(5)
    }
}

/// Deterministic rules only (counters + gauges — no wall-time
/// quantiles), so the alert stream is comparable across runs and widths.
fn regression_rules() -> Vec<AlertRule> {
    vec![
        AlertRule::new(
            "quarantine-spike",
            Severity::Warning,
            AlertCondition::RatioAbove {
                numerator: "preprocessor.quarantined_statements".into(),
                denominator: "preprocessor.ingested_statements".into(),
                above: 0.02,
                window: 4,
            },
        ),
        AlertRule::new(
            "forecast-quality-h0",
            Severity::Critical,
            // Calibrated between the clean run's rolling MSE (≈0.17 by
            // run end) and the spiked run's (≈0.98).
            AlertCondition::GaugeAbove {
                gauge: "forecast.mse.h0".into(),
                above: 0.5,
                window: 2,
            },
        )
        .for_rounds(2)
        .clear_rounds(2),
    ]
}

#[test]
fn faulted_regression_fires_typed_alert_with_trace_lineage() {
    let tracer = Tracer::enabled();
    let cfg = monitored_cfg(
        1,
        Some(heavy_faults()),
        MonitorConfig::default().rules(regression_rules()),
        tracer.clone(),
    );
    let result = IndexSelectionExperiment::new(cfg).run();

    // The corruption produced typed Fired transitions.
    let fired: Vec<_> = result
        .alert_transitions
        .iter()
        .filter_map(|c| match c {
            AlertChange::Fired(a) => Some(a),
            AlertChange::Resolved { .. } => None,
        })
        .collect();
    assert!(
        fired.iter().any(|a| a.rule == "quarantine-spike"),
        "10% malformed SQL must trip the quarantine-share rule: {:?}",
        result.alert_log
    );
    let quality = fired
        .iter()
        .find(|a| a.rule == "forecast-quality-h0")
        .expect("spiked arrivals must trip the forecast-quality band");
    assert_eq!(quality.severity, Severity::Critical);

    // Lineage: the firing event explains back through the round's
    // forecast-blend evidence.
    let fired_event = quality.fired_event.expect("tracing is on");
    let view = tracer.view();
    let lineage = view.explain(fired_event);
    assert!(lineage.contains("AlertFired"), "{lineage}");
    assert!(
        lineage.contains("ForecastBlended"),
        "alert evidence must reach the blend event:\n{lineage}"
    );

    // The log and the typed stream describe the same transitions.
    assert_eq!(result.alert_log.len(), result.alert_transitions.len());
    assert!(result.alert_log.iter().any(|l| l.contains("fired rule=forecast-quality-h0")));

    // Firing alerts surface through the health report too.
    for alert in &result.health.active_alerts {
        assert!(fired.iter().any(|f| f.rule == alert.rule));
    }
}

#[test]
fn clean_run_fires_no_regression_alerts() {
    let cfg = monitored_cfg(
        1,
        None,
        MonitorConfig::default().rules(regression_rules()),
        Tracer::disabled(),
    );
    let result = IndexSelectionExperiment::new(cfg).run();
    assert!(
        result.alert_log.iter().all(|l| !l.contains("rule=quarantine-spike")),
        "a clean replay must not trip the quarantine rule: {:?}",
        result.alert_log
    );
    // Monitoring forced metrics on even though the config left the
    // recorder disabled.
    assert!(result.metrics.counters["controller.rounds"] > 0);
}

#[test]
fn alert_stream_is_bit_identical_across_widths() {
    let run = |threads: usize| {
        let cfg = monitored_cfg(
            threads,
            Some(heavy_faults()),
            MonitorConfig::default().rules(regression_rules()),
            Tracer::disabled(),
        );
        IndexSelectionExperiment::new(cfg).run()
    };
    let one = run(1);
    let four = run(4);
    assert!(!one.alert_log.is_empty(), "the faulted run must produce transitions");
    assert_eq!(
        one.alert_log, four.alert_log,
        "alert transition log must be bit-identical at widths 1 and 4"
    );
    assert_eq!(one.alert_transitions, four.alert_transitions);
    assert_eq!(one.health.active_alerts, four.health.active_alerts);
    // Same-width re-run is byte-stable too.
    let again = run(4);
    assert_eq!(four.alert_log, again.alert_log);
}
