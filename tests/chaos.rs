//! Chaos suite: the full pipeline and the §7.6 closed loop under
//! deterministic fault injection.
//!
//! Escalating [`FaultPlan`]s corrupt the BusTracker trace with malformed
//! SQL, duplicate/out-of-order delivery, dropped minutes, and arrival
//! spikes. The resilience layer must (a) keep exact ingest accounting
//! (nothing silently dropped), (b) keep forecasts finite with bounded
//! cluster counts, (c) degrade a poisoned model instead of panicking, and
//! (d) still let AUTO index selection beat the no-index baseline at the
//! acceptance corruption level (5 % malformed / 2 % duplicates / 1 %
//! out-of-order — `FaultPlan::with_intensity(seed, 1.0)`).

use qb5000::{
    ControllerConfig, ForecastManager, HorizonSpec, IndexSelectionExperiment, JobSpan,
    Qb5000Config, QueryBot5000, Strategy,
};
use qb_forecast::{DegradationLevel, Ensemble, RnnConfig};
use qb_timeseries::{Interval, MINUTES_PER_DAY};
use qb_workloads::{FaultPlan, FaultStats, TraceConfig, Workload};

fn bus_trace(days: u32) -> TraceConfig {
    TraceConfig { start: 0, days, scale: 0.02, seed: 0xB5 }
}

/// Replays a faulted BusTracker trace into a fresh pipeline, returning the
/// pipeline, the injector's delivery stats, and the generated event count.
fn faulted_bot(plan: FaultPlan, days: u32) -> (QueryBot5000, FaultStats, u64) {
    let mut events = plan.inject(Workload::BusTracker.generator(bus_trace(days)));
    let mut bot = QueryBot5000::new(Qb5000Config::default());
    let mut generated = 0u64;
    for ev in events.by_ref() {
        generated += 1;
        // Rejections are quarantined and counted; the replay keeps going.
        let _ = bot.ingest_weighted(ev.minute, &ev.sql, ev.count);
    }
    (bot, events.stats().clone(), generated)
}

#[test]
fn accounting_identity_at_acceptance_intensity() {
    // 3-day BusTracker trace at the acceptance fault mix.
    let (bot, stats, generated) = faulted_bot(FaultPlan::with_intensity(7, 1.0), 3);
    let h = bot.health();

    // Nothing is silently dropped: every delivered event was either
    // ingested or rejected into quarantine.
    assert_eq!(stats.events_out, generated);
    assert_eq!(
        h.ingested_statements + h.rejected_statements,
        generated,
        "ingested + rejected must equal generated"
    );

    // The faults actually fired, and the health report saw them.
    assert!(stats.malformed > 0 && stats.duplicated > 0 && stats.reordered > 0);
    assert!(h.rejected_statements > 0, "malformed SQL must be quarantined");
    assert!(h.reordered > 0, "backdated/delayed events must be flagged");
    assert!(h.deduplicated > 0, "duplicate delivery must be flagged");
    assert!(
        h.last_errors.iter().any(|(stage, _)| *stage == "pre-processor"),
        "quarantine exposes the pre-processor's last error"
    );

    // Quarantine keeps evidence of what was rejected.
    let q = bot.preprocessor().quarantine();
    assert_eq!(q.rejected_statements(), h.rejected_statements);
    assert!(q.samples().next().is_some());
}

#[test]
fn forecasts_stay_finite_under_escalating_faults() {
    for (i, intensity) in [0.5, 1.0, 2.0].into_iter().enumerate() {
        let plan = FaultPlan::with_intensity(11 + i as u64, intensity);
        let (mut bot, _, _) = faulted_bot(plan, 3);
        let now = 3 * MINUTES_PER_DAY;
        bot.update_clusters(now);
        assert!(
            bot.tracked_clusters().len() <= Qb5000Config::default().max_clusters,
            "cluster count stays bounded at intensity {intensity}"
        );
        assert!(!bot.tracked_clusters().is_empty(), "traffic still clusters");

        let mut mgr = ForecastManager::new(
            vec![HorizonSpec {
                interval: Interval::HOUR,
                window: 24,
                horizon: 1,
                train_steps: 48,
            }],
            || Box::new(qb_forecast::LinearRegression::default()),
        );
        mgr.ensure_trained(&bot, now).expect("training survives the corrupted series");
        let pred = mgr.predict(&bot, now, 0);
        assert_eq!(pred.len(), bot.tracked_clusters().len());
        assert!(
            pred.iter().all(|v| v.is_finite() && *v >= 0.0),
            "forecasts stay finite at intensity {intensity}: {pred:?}"
        );
    }
}

#[test]
fn poisoned_model_degrades_instead_of_panicking() {
    // Corrupted data + an optimizer forced to NaN: the ensemble must fall
    // back to its healthy member, observably, with finite predictions.
    let (mut bot, _, _) = faulted_bot(FaultPlan::with_intensity(13, 1.0), 3);
    let now = 3 * MINUTES_PER_DAY;
    bot.update_clusters(now);
    let job =
        bot.forecast_job_with(now, Interval::HOUR, 24, 1, JobSpan::Auto).expect("clusters tracked");

    let mut model = Ensemble::new(RnnConfig {
        embedding: 6,
        hidden: 6,
        epochs: 4,
        learning_rate: f64::NAN,
        ..RnnConfig::default()
    });
    let pred = job.fit_predict(&mut model).expect("fit degrades, not fails");
    assert_eq!(model.degradation(), DegradationLevel::Single);
    assert!(
        model.member_failures().iter().any(|(name, e)| *name == "RNN" && e.is_model_failure()),
        "the RNN's divergence is recorded: {:?}",
        model.member_failures()
    );
    assert!(pred.iter().all(|v| v.is_finite()), "no NaN leaks into predictions: {pred:?}");
}

fn chaos_controller_cfg(index_budget: usize) -> ControllerConfig {
    ControllerConfig::builder()
        .workload(Workload::BusTracker)
        .strategy(Strategy::Auto)
        .db_scale(0.06)
        .history_days(3)
        .run_hours(6)
        .trace_scale(0.08)
        .index_budget(index_budget)
        .build_period(60)
        .report_window(60)
        .run_start(14 * MINUTES_PER_DAY + 7 * 60)
        .seed(0xE2E)
        .fault_plan(FaultPlan::with_intensity(5, 1.0))
        .threads(qb_parallel::configured_threads())
        .build()
        .expect("chaos config is valid")
}

#[test]
fn auto_beats_no_index_baseline_at_5pct_corruption() {
    let auto = IndexSelectionExperiment::new(chaos_controller_cfg(6)).run();
    assert!(!auto.samples.is_empty(), "AUTO completes with samples under faults");
    assert!(!auto.indexes.is_empty(), "AUTO still builds indexes under faults");
    assert!(auto.health.rejected_statements > 0, "faults reached the pipeline");
    assert!(auto.samples.iter().all(|s| s.throughput_qps.is_finite()));

    let baseline = IndexSelectionExperiment::new(chaos_controller_cfg(0)).run();
    let mean = |r: &qb5000::ExperimentResult| {
        r.samples.iter().map(|s| s.throughput_qps).sum::<f64>() / r.samples.len() as f64
    };
    assert!(
        mean(&auto) > mean(&baseline),
        "AUTO should beat the no-index baseline under 5% corruption: {} vs {}",
        mean(&auto),
        mean(&baseline)
    );
}
