//! Automatic index selection driven by forecasts (§7.6, Figures 11–12).
//!
//! Runs the BusTracker workload against the `qb-dbsim` engine three times —
//! forecast-driven AUTO, a fixed STATIC index set, and the AUTO-LOGICAL
//! clustering ablation — and prints the throughput/latency trajectories.
//!
//! ```text
//! cargo run --release -p qb-bench --example auto_indexing
//! ```

use qb_bench::controller::{ControllerConfig, IndexSelectionExperiment, Strategy};
use qb_timeseries::MINUTES_PER_DAY;
use qb_workloads::Workload;

fn main() {
    let base = ControllerConfig {
        workload: Workload::BusTracker,
        db_scale: 0.15,
        history_days: 4,
        run_hours: 10,
        trace_scale: 0.04,
        index_budget: 10,
        build_period: 60,
        report_window: 60,
        run_start: 21 * MINUTES_PER_DAY,
        seed: 0x1D7,
        ..ControllerConfig::default()
    };

    let mut results = Vec::new();
    for strategy in [Strategy::Static, Strategy::Auto, Strategy::AutoLogical] {
        println!("Running {}...", strategy.name());
        let experiment =
            IndexSelectionExperiment::new(ControllerConfig { strategy, ..base.clone() })
                .expect("example config is valid");
        results.push(experiment.run());
    }

    println!("\nThroughput over the run (queries/simulated second):");
    println!("{:>6} {:>12} {:>12} {:>14}", "hour", "STATIC", "AUTO", "AUTO-LOGICAL");
    let n = results.iter().map(|r| r.samples.len()).min().unwrap_or(0);
    for i in 0..n {
        println!(
            "{:>6} {:>12.0} {:>12.0} {:>14.0}",
            results[0].samples[i].minute / 60,
            results[0].samples[i].throughput_qps,
            results[1].samples[i].throughput_qps,
            results[2].samples[i].throughput_qps,
        );
    }

    println!("\nFinal-quarter averages:");
    for r in &results {
        println!(
            "  {:<13} throughput {:>9.0} qps | p99 {:>7.3} ms | indexes built: {}",
            r.strategy.name(),
            r.final_throughput(),
            r.final_latency(),
            r.indexes.len()
        );
    }

    println!("\nIndexes AUTO chose (build minute, index):");
    for (minute, ix) in &results[1].indexes {
        println!("  t+{minute:>4}min  {ix}");
    }
    println!("\nExpected shape (paper §7.6/§7.7): AUTO starts slower than STATIC but");
    println!("catches up as forecast-driven indexes land; AUTO-LOGICAL trails AUTO.");
}
