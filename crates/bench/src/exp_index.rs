//! Figures 11 & 12 — the automatic index-selection experiment (§7.6) and
//! the AUTO-LOGICAL ablation (§7.7).
//!
//! A figure's gate holds when, over the seeds, AUTO's median realised
//! cost ([`qb5000::ExperimentResult::realised_cost_s`]) is at most
//! STATIC's and AUTO-LOGICAL's is above AUTO's: §7.6 claims forecasts pick
//! indexes at least as good as a fixed history sample, and §7.7 that
//! clustering on logical features picks worse ones.

use qb5000::{
    ControllerConfig, ExperimentResult, IndexSelectionExperiment, Qb5000Config, Recorder,
    Strategy,
};
use qb_timeseries::MINUTES_PER_DAY;
use qb_workloads::Workload;

use crate::{write_csv, Effort};

/// The seed the figures' time series and metrics are printed for.
const FIGURE_SEED: u64 = 0x1D7;

/// The seeds a `seeds`-seed run covers: [`FIGURE_SEED`], then 1, 2, ….
fn seed_list(seeds: usize) -> Vec<u64> {
    std::iter::once(FIGURE_SEED).chain(1..seeds.max(1) as u64).collect()
}

fn config(workload: Workload, strategy: Strategy, effort: Effort, seed: u64) -> ControllerConfig {
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
        .seed(seed)
        .threads(qb_parallel::configured_threads())
        // Each strategy run gets its own recorder so the three parallel
        // experiments don't interleave their stage metrics.
        .pipeline(Qb5000Config { recorder: Recorder::new(), ..Qb5000Config::default() })
        .build()
        .expect("bench controller config is valid by construction")
}

/// Median (mean of the middle pair when even), minimum and maximum.
fn spread(values: impl Iterator<Item = f64>) -> (f64, f64, f64) {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    ((v[(n - 1) / 2] + v[n / 2]) / 2.0, v[0], v[n - 1])
}

/// Runs one workload under all three strategies on each seed and renders
/// the figure: seed 0x1D7's series, metrics and accuracy rows, then every
/// seed's scores and index lists and their median and range. Returns the
/// report and whether its [`gate`] held.
fn run_figure(figure: &str, workload: Workload, effort: Effort, seeds: usize) -> (String, bool) {
    let mut out = String::new();
    out.push_str(&format!(
        "{figure}: Index Selection ({}; simulated engine — see DESIGN.md)\n",
        workload.name()
    ));
    let mut rows: Vec<String> = Vec::new();
    let mut header = String::from("minute");
    let mut final_lines = Vec::new();

    // Every (seed, strategy) run is independent end to end: fan them out
    // across the worker pool and collect seed-major in strategy order.
    let strategies = [Strategy::Static, Strategy::Auto, Strategy::AutoLogical];
    let seeds = seed_list(seeds);
    let jobs: Vec<(u64, Strategy)> =
        seeds.iter().flat_map(|&seed| strategies.map(|strategy| (seed, strategy))).collect();
    let runs = qb_parallel::ThreadPool::default().map(jobs, |_, (seed, strategy)| {
        IndexSelectionExperiment::new(config(workload, strategy, effort, seed)).run()
    });
    let per_seed: Vec<&[ExperimentResult]> = runs.chunks(strategies.len()).collect();
    let all = per_seed[0];
    for (strategy, result) in strategies.iter().zip(all) {
        let column = strategy.name().to_lowercase().replace('-', "_");
        header.push_str(&format!(",{column}_qps,{column}_p99ms"));
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
        for r in all {
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

    // Per seed, each strategy's realised cost, final throughput and
    // indexes; then their median and range over the seeds.
    out.push_str("  per seed: realised cost (simulated s, run's second half) | final throughput | indexes\n");
    for (seed, results) in seeds.iter().zip(&per_seed) {
        for (strategy, r) in strategies.iter().zip(results.iter()) {
            let indexes: Vec<&str> = r.indexes.iter().map(|(_, ix)| ix.as_str()).collect();
            out.push_str(&format!(
                "    seed {seed:#x} {:<13} {:>9.3} s | {:>10.0} qps | {}\n",
                strategy.name(),
                r.realised_cost_s(),
                r.final_throughput(),
                indexes.join(" "),
            ));
        }
    }
    out.push_str(&format!("  over {} seeds, median [min … max]:\n", seeds.len()));
    let cost = |i: usize| spread(per_seed.iter().map(|r| r[i].realised_cost_s()));
    for (i, strategy) in strategies.iter().enumerate() {
        let (c, q) = (cost(i), spread(per_seed.iter().map(|r| r[i].final_throughput())));
        out.push_str(&format!(
            "    {:<13} realised cost {:.3} [{:.3} … {:.3}] s | final throughput {:.0} [{:.0} … {:.0}] qps\n",
            strategy.name(), c.0, c.1, c.2, q.0, q.1, q.2,
        ));
    }
    let ratio = spread(per_seed.iter().map(|r| r[1].realised_cost_s() / r[0].realised_cost_s()));
    out.push_str(&format!(
        "    AUTO/STATIC realised cost {:.3} [{:.3} … {:.3}]\n",
        ratio.0, ratio.1, ratio.2
    ));
    let (gate_lines, passed) = gate(cost(0).0, cost(1).0, cost(2).0);
    out.push_str(&gate_lines);
    (out, passed)
}

/// The figure's gate over the median realised costs of STATIC, AUTO and
/// AUTO-LOGICAL: AUTO's at most STATIC's (§7.6) and AUTO-LOGICAL's above
/// AUTO's (§7.7). Returns one report line per clause and whether both
/// hold.
fn gate(fixed: f64, auto: f64, logical: f64) -> (String, bool) {
    let verdict = |ok| if ok { "pass" } else { "FAIL" };
    let auto_ok = auto <= fixed;
    let logical_ok = logical > auto;
    let lines = format!(
        "  gate: AUTO median realised cost {auto:.3} s {} STATIC's {fixed:.3} s — {}\n  \
         gate: AUTO-LOGICAL median realised cost {logical:.3} s {} AUTO's {auto:.3} s — {}\n",
        if auto_ok { "<=" } else { ">" },
        verdict(auto_ok),
        if logical_ok { ">" } else { "<=" },
        verdict(logical_ok),
    );
    (lines, auto_ok && logical_ok)
}

/// Figure 11 — Admissions (the paper's MySQL host), over `seeds` seeds.
pub fn fig11(effort: Effort, seeds: usize) -> (String, bool) {
    run_figure("Figure 11", Workload::Admissions, effort, seeds)
}

/// Figure 12 — BusTracker (the paper's PostgreSQL host), over `seeds`
/// seeds.
pub fn fig12(effort: Effort, seeds: usize) -> (String, bool) {
    run_figure("Figure 12", Workload::BusTracker, effort, seeds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_respects_effort() {
        let q = config(Workload::BusTracker, Strategy::Auto, Effort::Quick, FIGURE_SEED);
        let f = config(Workload::BusTracker, Strategy::Auto, Effort::Full, FIGURE_SEED);
        assert!(q.run_hours < f.run_hours);
        assert!(q.index_budget < f.index_budget);
    }

    #[test]
    fn seed_list_leads_with_the_figure_seed() {
        assert_eq!(seed_list(0), vec![FIGURE_SEED]);
        assert_eq!(seed_list(1), vec![FIGURE_SEED]);
        assert_eq!(seed_list(4), vec![FIGURE_SEED, 1, 2, 3]);
    }

    #[test]
    fn gate_needs_auto_at_most_static_and_logical_above_auto() {
        // (STATIC, AUTO, AUTO-LOGICAL) median realised costs.
        for (costs, passes) in [
            ((1.0, 0.9, 2.0), true),
            ((1.0, 1.0, 2.0), true),
            ((1.0, 1.1, 2.0), false),
            ((1.0, 0.9, 0.9), false),
            ((1.0, 0.9, 0.5), false),
        ] {
            let (lines, passed) = gate(costs.0, costs.1, costs.2);
            assert_eq!(passed, passes, "{costs:?}");
            assert_eq!(lines.lines().count(), 2, "{lines}");
            assert!(lines.lines().nth(1).unwrap().contains("AUTO-LOGICAL"), "{lines}");
            assert_eq!(lines.contains("FAIL"), !passes, "{lines}");
        }
    }

    #[test]
    fn spread_is_median_min_max() {
        assert_eq!(spread([7.0, 1.0, 2.0].into_iter()), (2.0, 1.0, 7.0));
        assert_eq!(spread([7.0, 1.0, 4.0, 2.0].into_iter()), (3.0, 1.0, 7.0));
    }
}
