//! Figures 11 & 12 — the automatic index-selection experiment (§7.6) and
//! the AUTO-LOGICAL ablation (§7.7).

use qb5000::{ControllerConfig, IndexSelectionExperiment, Qb5000Config, Recorder, Strategy};
use qb_timeseries::MINUTES_PER_DAY;
use qb_workloads::Workload;

use crate::{write_csv, Effort};

fn config(workload: Workload, strategy: Strategy, effort: Effort) -> ControllerConfig {
    let quick = effort.is_quick();
    ControllerConfig::builder()
        .workload(workload)
        .strategy(strategy)
        .db_scale(if quick { 0.08 } else { 0.5 })
        .history_days(if quick { 3 } else { 14 })
        // The Admissions run must reach the next morning's review-season
        // traffic for the workload shift to land inside the window.
        .run_hours(if quick && workload != Workload::Admissions { 8 } else { 16 })
        .trace_scale(if quick { 0.03 } else { 0.08 })
        .index_budget(if quick { 5 } else { 20 })
        .build_period(60)
        .report_window(30)
        .run_start(match workload {
            // Admissions: start hours before the Dec 15 deadline so the
            // measured run crosses into review season — the workload shift
            // STATIC's history-built indexes cannot anticipate (§7.6).
            Workload::Admissions => 348 * MINUTES_PER_DAY + 18 * 60,
            _ => 21 * MINUTES_PER_DAY + 7 * 60,
        })
        .seed(0x1D7)
        .threads(qb_parallel::configured_threads())
        // Each strategy run gets its own recorder so the three parallel
        // experiments don't interleave their stage metrics.
        .pipeline(Qb5000Config { recorder: Recorder::new(), ..Qb5000Config::default() })
        .build()
        .expect("bench controller config is valid by construction")
}

/// Runs one workload under all three strategies and renders the figure.
fn run_figure(figure: &str, workload: Workload, effort: Effort) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{figure}: Index Selection ({}; simulated engine — see DESIGN.md)\n",
        workload.name()
    ));
    let mut rows: Vec<String> = Vec::new();
    let mut header = String::from("minute");
    let mut final_lines = Vec::new();

    // The three strategies are independent end-to-end runs: fan them out
    // across the worker pool and collect in the fixed strategy order.
    let strategies = [Strategy::Static, Strategy::Auto, Strategy::AutoLogical];
    let all = qb_parallel::ThreadPool::default().map(strategies.to_vec(), |_, strategy| {
        IndexSelectionExperiment::new(config(workload, strategy, effort)).run()
    });
    for (strategy, result) in strategies.iter().zip(&all) {
        header.push_str(&format!(
            ",{}_qps,{}_p99ms",
            strategy.name().to_lowercase().replace('-', "_"),
            strategy.name().to_lowercase().replace('-', "_")
        ));
        final_lines.push(format!(
            "  {:<13} final throughput {:>10.0} qps | final p99 {:>7.3} ms | {} indexes | {} queries",
            strategy.name(),
            result.final_throughput(),
            result.final_latency(),
            result.indexes.len(),
            result.total_queries,
        ));
    }
    // Align samples by index (same bucketing across runs).
    let n = all.iter().map(|r| r.samples.len()).min().unwrap_or(0);
    for i in 0..n {
        let mut line = format!("{}", all[0].samples[i].minute);
        for r in &all {
            let s = &r.samples[i];
            line.push_str(&format!(",{:.0},{:.3}", s.throughput_qps, s.p99_latency_ms));
        }
        rows.push(line);
    }
    let file = format!("{}_{}.csv", figure.to_lowercase().replace(' ', ""), workload.name().to_lowercase());
    if let Ok(p) = write_csv(&file, &header, &rows) {
        out.push_str(&format!("  time series written to {p}\n"));
    }
    for l in final_lines {
        out.push_str(&l);
        out.push('\n');
    }
    // The paper's headline comparisons.
    let sta = &all[0];
    let auto = &all[1];
    let logical = &all[2];
    out.push_str(&format!(
        "  AUTO vs STATIC final throughput: {:+.0}%  |  AUTO vs AUTO-LOGICAL: {:+.0}%\n",
        100.0 * (auto.final_throughput() / sta.final_throughput().max(1e-9) - 1.0),
        100.0 * (auto.final_throughput() / logical.final_throughput().max(1e-9) - 1.0),
    ));
    let first_auto = auto.samples.first().map_or(0.0, |s| s.throughput_qps);
    out.push_str(&format!(
        "  AUTO improvement over its own start: {:.1}x throughput\n",
        auto.final_throughput() / first_auto.max(1e-9)
    ));
    // Observability: AUTO's stage timings/counters and the rolling
    // forecast-accuracy rows (Figure 7 style, log-space MSE).
    out.push_str("  AUTO pipeline metrics:\n");
    out.push_str(&auto.metrics.render_table());
    for acc in &auto.health.forecast_accuracy {
        out.push_str(&format!(
            "  forecast accuracy h{}: rolling MSE {} over {} settled predictions\n",
            acc.horizon_idx,
            acc.rolling_mse.map_or_else(|| "n/a".to_string(), |m| format!("{m:.4}")),
            acc.samples,
        ));
    }
    out
}

/// Figure 11 — Admissions (the paper's MySQL host).
pub fn fig11(effort: Effort) -> String {
    run_figure("Figure 11", Workload::Admissions, effort)
}

/// Figure 12 — BusTracker (the paper's PostgreSQL host).
pub fn fig12(effort: Effort) -> String {
    run_figure("Figure 12", Workload::BusTracker, effort)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_respects_effort() {
        let q = config(Workload::BusTracker, Strategy::Auto, Effort::Quick);
        let f = config(Workload::BusTracker, Strategy::Auto, Effort::Full);
        assert!(q.run_hours < f.run_hours);
        assert!(q.index_budget < f.index_budget);
    }
}
