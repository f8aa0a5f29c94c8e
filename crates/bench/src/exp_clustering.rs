//! Figures 1, 3, 5, 6 and the Appendix A sensitivity study (Figures 13–14).

use qb5000::Qb5000Config;
use qb_forecast::WindowSpec;
use qb_timeseries::{Interval, MINUTES_PER_DAY};
use qb_workloads::Workload;

use crate::eval::fit_and_roll;
use crate::exp_tables::standard_run;
use crate::pipeline_run::{run_pipeline, RunOptions};
use crate::{write_csv, Effort};

const WORKLOADS: [Workload; 3] = [Workload::Admissions, Workload::BusTracker, Workload::Mooc];

/// Figure 1 — the three workload patterns, as per-minute /
/// cumulative-distinct series.
pub fn fig1(effort: Effort) -> String {
    let mut out = String::new();
    out.push_str("Figure 1: Workload Patterns\n");

    // (a) BusTracker cycles over 72 h, queries/min.
    let run = run_pipeline(
        RunOptions::new(Workload::BusTracker, 3, if effort.is_quick() { 0.05 } else { 0.3 })
            .reading_minutes(),
    );
    let series = run.total_series(0, 3 * MINUTES_PER_DAY, Interval::TEN_MINUTES);
    let rows: Vec<String> =
        series.iter().enumerate().map(|(i, v)| format!("{},{v:.1}", i * 10)).collect();
    if let Ok(p) = write_csv("fig1a_bustracker_cycles.csv", "minute,queries_per_10min", &rows) {
        out.push_str(&format!("  (a) cycles series written to {p}\n"));
    }
    let peak = series.iter().copied().fold(0.0f64, f64::max);
    let trough = series.iter().copied().fold(f64::INFINITY, f64::min);
    out.push_str(&format!("      72h series: peak {peak:.0}/10min, trough {trough:.0}/10min, peak/trough {:.1}x\n", peak / trough.max(1.0)));

    // (b) Admissions growth into the Dec 15 deadline (final week).
    let start = 341 * MINUTES_PER_DAY; // Dec 8
    let run = run_pipeline(
        RunOptions::new(Workload::Admissions, 8, if effort.is_quick() { 0.05 } else { 0.3 })
            .starting_at(start),
    );
    let series = run.total_series(start, start + 8 * MINUTES_PER_DAY, Interval::HOUR);
    let rows: Vec<String> =
        series.iter().enumerate().map(|(i, v)| format!("{i},{v:.1}")).collect();
    if let Ok(p) = write_csv("fig1b_admissions_growth.csv", "hour,queries_per_hour", &rows) {
        out.push_str(&format!("  (b) growth series written to {p}\n"));
    }
    let first_day: f64 = series[..24].iter().sum();
    let last_day: f64 = series[series.len() - 48..series.len() - 24].iter().sum();
    out.push_str(&format!(
        "      week into deadline: day-1 volume {first_day:.0}, deadline-day volume {last_day:.0} ({:.1}x growth)\n",
        last_day / first_day.max(1.0)
    ));

    // (c) MOOC workload evolution: cumulative distinct templates by day.
    let run = run_pipeline(RunOptions::new(
        Workload::Mooc,
        if effort.is_quick() { 10 } else { 40 },
        if effort.is_quick() { 0.05 } else { 0.2 },
    ));
    let rows: Vec<String> = run
        .daily
        .iter()
        .map(|d| format!("{},{}", d.day, d.num_templates))
        .collect();
    if let Ok(p) = write_csv("fig1c_mooc_evolution.csv", "day,distinct_templates", &rows) {
        out.push_str(&format!("  (c) evolution series written to {p}\n"));
    }
    let first = run.daily.first().map_or(0, |d| d.num_templates);
    let last = run.daily.last().map_or(0, |d| d.num_templates);
    out.push_str(&format!("      distinct templates: day 1 = {first}, final day = {last}\n"));
    out
}

/// Figure 3 — largest-cluster center and its top member templates.
pub fn fig3(effort: Effort) -> String {
    let mut out = String::new();
    out.push_str("Figure 3: Arrival Rate History (BusTracker largest cluster)\n");
    let run = standard_run(Workload::BusTracker, effort);
    let Some(largest) = run.bot.tracked_clusters().first().cloned() else {
        return out + "  no clusters tracked\n";
    };
    let center = run.bot.cluster_series(&largest, run.start, run.end, Interval::HOUR);
    let center_avg: Vec<f64> =
        center.iter().map(|v| v / largest.members.len() as f64).collect();

    let mut rows = Vec::new();
    let mut members = largest.members.clone();
    members.truncate(4);
    for (h, c) in center_avg.iter().enumerate() {
        let mut cells = vec![h.to_string(), format!("{c:.1}")];
        for &m in &members {
            let s = run.bot.preprocessor().template_series(
                m,
                run.start + h as i64 * 60,
                run.start + (h as i64 + 1) * 60,
                Interval::HOUR,
            );
            cells.push(format!("{:.1}", s.first().copied().unwrap_or(0.0)));
        }
        rows.push(cells.join(","));
    }
    if let Ok(p) = write_csv("fig3_cluster_center.csv", "hour,center,q1,q2,q3,q4", &rows) {
        out.push_str(&format!("  center + top-4 member series written to {p}\n"));
    }
    out.push_str(&format!(
        "  largest cluster: {} members, volume {:.0}; members share the daily cycle\n",
        largest.members.len(),
        largest.volume
    ));
    out
}

/// Figure 5 — coverage ratio of the top-1..5 clusters per workload.
pub fn fig5(effort: Effort) -> String {
    let mut out = String::new();
    out.push_str("Figure 5: Cluster Coverage (avg over days)\n");
    out.push_str("  workload     k=1     k=2     k=3     k=4     k=5\n");
    for &w in &WORKLOADS {
        let run = standard_run(w, effort);
        let mut avg = [0.0f64; 5];
        for d in &run.daily {
            for k in 0..5 {
                avg[k] += d.coverage[k];
            }
        }
        for a in &mut avg {
            *a /= run.daily.len().max(1) as f64;
        }
        out.push_str(&format!(
            "  {:<11} {:.3}   {:.3}   {:.3}   {:.3}   {:.3}\n",
            w.name(),
            avg[0],
            avg[1],
            avg[2],
            avg[3],
            avg[4]
        ));
    }
    out
}

/// Figure 6 — day-over-day changes among the five largest clusters.
pub fn fig6(effort: Effort) -> String {
    let mut out = String::new();
    out.push_str("Figure 6: Cluster Change (days with N changed clusters among top-5, %)\n");
    out.push_str("  workload       0       1       2       3      4+\n");
    for &w in &WORKLOADS {
        let run = standard_run(w, effort);
        let mut histogram = [0usize; 5];
        for pair in run.daily.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            // A top-5 cluster "changed" if its member set is absent the
            // next day (allowing identity via identical member sets).
            let changed = a
                .top5_members
                .iter()
                .filter(|m| !b.top5_members.contains(m))
                .count()
                .min(4);
            histogram[changed] += 1;
        }
        let days = histogram.iter().sum::<usize>().max(1) as f64;
        out.push_str(&format!(
            "  {:<11} {:>6.0}% {:>6.0}% {:>6.0}% {:>6.0}% {:>6.0}%\n",
            w.name(),
            100.0 * histogram[0] as f64 / days,
            100.0 * histogram[1] as f64 / days,
            100.0 * histogram[2] as f64 / days,
            100.0 * histogram[3] as f64 / days,
            100.0 * histogram[4] as f64 / days,
        ));
    }
    out
}

/// Figures 13 & 14 — sensitivity of coverage and accuracy to ρ.
pub fn fig13_14(effort: Effort) -> String {
    let mut out = String::new();
    out.push_str("Figures 13-14: Sensitivity to similarity threshold rho\n");
    out.push_str("  workload    rho   coverage(top3)  1h-MSE(log)\n");
    let rhos = [0.5, 0.6, 0.7, 0.8, 0.9];
    for &w in &WORKLOADS {
        for &rho in &rhos {
            let mut qb = Qb5000Config::default();
            qb.clusterer.rho = rho;
            qb.max_clusters = 3;
            qb.coverage_target = 2.0; // always take 3
            let days = if effort.is_quick() { 4 } else { 10 };
            let scale = if effort.is_quick() { 0.05 } else { 0.2 };
            let start = if w == Workload::Admissions { 310 * MINUTES_PER_DAY } else { 0 };
            let mut opts = RunOptions::new(w, days, scale).starting_at(start);
            opts.qb = qb;
            let run = run_pipeline(opts);
            let coverage =
                run.daily.iter().map(|d| d.coverage[2]).sum::<f64>() / run.daily.len().max(1) as f64;

            // 1-hour-horizon LR accuracy on the top-3 clusters.
            let series = run.cluster_series(run.start, run.end, Interval::HOUR);
            let mse = if !series.is_empty() && series[0].len() >= 48 {
                let spec = WindowSpec { window: 24, horizon: 1 };
                let test_start = series[0].len() - series[0].len() / 5;
                let mut lr = qb_forecast::LinearRegression::default();
                match fit_and_roll(&mut lr, &series, spec, test_start) {
                    Ok(pred) => {
                        let (actual, _) =
                            qb_forecast::rolling_forecast(&lr, &series, spec, test_start);
                        let per: Vec<f64> = actual
                            .iter()
                            .zip(&pred)
                            .filter(|(a, _)| !a.is_empty())
                            .map(|(a, p)| qb_timeseries::mse_log_space(a, p))
                            .collect();
                        per.iter().sum::<f64>() / per.len().max(1) as f64
                    }
                    Err(_) => f64::NAN,
                }
            } else {
                f64::NAN
            };
            out.push_str(&format!(
                "  {:<11} {rho:.1}   {coverage:.3}           {mse:.3}\n",
                w.name()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_coverage_high_for_topk() {
        let s = fig5(Effort::Quick);
        assert!(s.contains("BusTracker"), "{s}");
    }

    #[test]
    fn fig6_histogram_rows() {
        let s = fig6(Effort::Quick);
        assert!(s.contains('%'));
    }
}
