//! Trace determinism of the §7.6 closed loop: for seeded runs, `explain()`
//! on an index-build decision returns a complete causal chain that is
//! bit-identical across thread-pool widths 1 and 4, and the Chrome trace
//! export is valid JSON with at least one complete span per stage.

use std::collections::BTreeMap;

use qb5000::{EventKind, Json, Qb5000Config, Recorder, Tracer, Value};
use qb_bench::controller::{ControllerConfig, IndexSelectionExperiment, Strategy};
use qb_timeseries::MINUTES_PER_DAY;
use qb_workloads::Workload;

fn experiment_config(threads: usize, tracer: Tracer, recorder: Recorder) -> ControllerConfig {
    ControllerConfig {
        workload: Workload::BusTracker,
        strategy: Strategy::Auto,
        db_scale: 0.05,
        history_days: 2,
        run_hours: 4,
        trace_scale: 0.02,
        index_budget: 4,
        build_period: 60,
        report_window: 60,
        run_start: 7 * MINUTES_PER_DAY,
        seed: 9,
        threads,
        pipeline: Qb5000Config { tracer, recorder, ..Qb5000Config::default() },
        ..ControllerConfig::default()
    }
}

/// Acceptance: `explain()` on an index-build decision reconstructs the
/// full chain (blend → per-horizon forecasts → fits → cluster state) and
/// the whole retained trace is bit-identical at threads 1 vs 4; every
/// stage span has one histogram observation of the same name; the
/// Chrome export is valid JSON with complete spans for every stage.
#[test]
fn index_build_lineage_bit_identical_across_widths() {
    let mut per_width = Vec::new();
    for threads in [1usize, 4] {
        let tracer = Tracer::enabled();
        let config = experiment_config(threads, tracer.clone(), Recorder::new());
        let result =
            IndexSelectionExperiment::new(config).expect("experiment config is valid").run();
        assert!(!result.indexes.is_empty(), "AUTO built no indexes at threads {threads}");
        assert_eq!(tracer.evictions(), 0, "the ring must hold every span at threads {threads}");
        let view = tracer.view();
        // One guard times a stage: its span count is its histogram count.
        let mut span_counts: BTreeMap<&str, u64> = BTreeMap::new();
        for ev in view.of_kind(EventKind::StageSpan) {
            let Some((_, Value::Text(name))) = ev.payload.first() else {
                panic!("stage span without a name: {}", ev.render())
            };
            *span_counts.entry(name).or_default() += 1;
        }
        for (name, count) in &span_counts {
            let recorded = result.metrics.histograms.get(*name).map(|h| h.count);
            assert_eq!(recorded, Some(*count), "{name} at threads {threads}");
        }
        let built = view.latest(EventKind::IndexBuilt).expect("an IndexBuilt event was traced");
        per_width.push((threads, view.deterministic_stream(), view.explain(built.id), view));
    }
    let (_, stream_1, lineage_1, view) = &per_width[0];
    let (_, stream_4, lineage_4, _) = &per_width[1];
    assert_eq!(stream_1, stream_4, "event stream diverged across thread widths");
    assert_eq!(lineage_1, lineage_4, "index-build lineage diverged across thread widths");
    for needed in ["IndexBuilt", "ForecastBlended", "ForecastIssued", "ModelFit", "ClustersUpdated"]
    {
        assert!(lineage_1.contains(needed), "{needed} missing:\n{lineage_1}");
    }

    // Acceptance: the Chrome export is valid JSON with at least one
    // complete ("X") span per pipeline stage.
    let chrome = view.to_chrome_json();
    let parsed = qb5000::parse_json(&chrome).expect("chrome export parses as JSON");
    let spans = parsed.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents array");
    assert!(!spans.is_empty(), "chrome export is empty");
    for stage in [
        "controller.round",
        "advisor.select",
        "pipeline.update_clusters",
        "clusterer.update",
        "forecast.train",
        "forecast.blend",
    ] {
        assert!(
            spans.iter().any(|s| {
                s.get("ph").and_then(|p| p.as_str()) == Some("X")
                    && s.get("name").and_then(|n| n.as_str()) == Some(stage)
            }),
            "no complete span for stage {stage}"
        );
    }

    // A fit's instant carries its commit time, which follows the cluster
    // update it trained on.
    let field = |e: &Json, key: &str| e.get(key).and_then(Json::as_f64);
    let ts_by_id: BTreeMap<u64, f64> = spans
        .iter()
        .filter_map(|e| Some((field(e.get("args")?, "id")? as u64, field(e, "ts")?)))
        .collect();
    let fits: Vec<&Json> =
        spans.iter().filter(|e| e.get("name").and_then(Json::as_str) == Some("ModelFit")).collect();
    assert!(!fits.is_empty(), "no ModelFit instant exported");
    for fit in fits {
        let args = fit.get("args").expect("args");
        let parent = field(args, "parent").expect("a fit is parented on its cluster state") as u64;
        let (ts, parent_ts) = (field(fit, "ts").expect("ts"), ts_by_id[&parent]);
        assert!(ts >= parent_ts, "fit ts {ts} before its parent's {parent_ts}");
    }
}
