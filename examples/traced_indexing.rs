//! Decision lineage for automatic index selection.
//!
//! Runs a short forecast-driven AUTO experiment with the flight recorder
//! enabled, then answers "why did the controller build that index?" with
//! `TraceView::explain` and writes the whole trace as Chrome trace-event
//! JSON — load it at <https://ui.perfetto.dev> or `chrome://tracing`.
//!
//! ```text
//! cargo run --release -p qb-bench --example traced_indexing [trace.json]
//! ```

use qb5000::{EventKind, Qb5000Config, Tracer};
use qb_bench::controller::{ControllerConfig, IndexSelectionExperiment, Strategy};
use qb_timeseries::MINUTES_PER_DAY;
use qb_workloads::Workload;

fn main() {
    let tracer = Tracer::enabled();
    let config = ControllerConfig {
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
        pipeline: Qb5000Config { tracer: tracer.clone(), ..Qb5000Config::default() },
        ..ControllerConfig::default()
    };

    println!("Running the traced AUTO experiment...");
    let result = IndexSelectionExperiment::new(config).expect("example config is valid").run();
    println!(
        "  built {} indexes | final throughput {:.0} qps\n",
        result.indexes.len(),
        result.final_throughput()
    );

    let view = tracer.view();
    println!("Flight recorder retained {} events.", view.events().len());

    // Decision lineage: walk the latest index build back to its causes —
    // the horizon blend, the per-horizon forecasts and model fits, and
    // the cluster snapshot they were trained on.
    let built = view.latest(EventKind::IndexBuilt).expect("AUTO built at least one index");
    println!("\nWhy was the last index built?\n{}", view.explain(built.id));

    // Chrome trace export: one complete span per pipeline stage, plus
    // instants for every recorded decision.
    let chrome = view.to_chrome_json();
    let spans = qb5000::parse_json(&chrome)
        .expect("export is valid JSON")
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .map(<[qb5000::Json]>::len)
        .unwrap_or(0);
    let path = std::env::args().nth(1).unwrap_or_else(|| "trace.json".into());
    std::fs::write(&path, &chrome).expect("write trace file");
    println!("Wrote {spans} trace events to {path} — open it in Perfetto to see the timeline.");
}
