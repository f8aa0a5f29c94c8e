//! Tables 1–4.

use qb_forecast::{Forecaster, WindowSpec};
use qb_timeseries::{Interval, MINUTES_PER_DAY};
use qb_workloads::Workload;

use crate::pipeline_run::{run_pipeline, PipelineRun, RunOptions};
use crate::properties::{model_properties, ModelProperties};
use crate::zoo::rnn_config;
use crate::{row, Effort};

const WORKLOADS: [Workload; 3] = [Workload::Admissions, Workload::BusTracker, Workload::Mooc];

fn trace_days(effort: Effort, w: Workload) -> u32 {
    if effort.is_quick() {
        4
    } else {
        // Capped at two weeks: enough for stable per-day statistics while
        // keeping the full suite tractable (the paper replays 58–507 days).
        w.paper_trace_days().min(14)
    }
}

fn trace_scale(effort: Effort) -> f64 {
    if effort.is_quick() {
        0.05
    } else {
        0.3
    }
}

/// Runs one workload through the pipeline at the chosen effort.
pub fn standard_run(w: Workload, effort: Effort) -> PipelineRun {
    let start = match w {
        // Put Admissions in the pre-deadline season so growth is visible.
        Workload::Admissions => 310 * MINUTES_PER_DAY,
        _ => 0,
    };
    run_pipeline(RunOptions::new(w, trace_days(effort, w), trace_scale(effort)).starting_at(start))
}

/// Table 1 — sample-workload summaries.
pub fn table1(effort: Effort) -> String {
    let mut out = String::new();
    out.push_str("Table 1: Sample Workloads (synthetic reproductions; paper values in EXPERIMENTS.md)\n");
    let widths = [26usize, 14, 14, 14];
    out.push_str(&row(
        &["".into(), "Admissions".into(), "BusTracker".into(), "MOOC".into()],
        &widths,
    ));
    out.push('\n');

    let runs: Vec<PipelineRun> = WORKLOADS.iter().map(|&w| standard_run(w, effort)).collect();
    let days: Vec<f64> =
        WORKLOADS.iter().map(|&w| trace_days(effort, w) as f64).collect();

    let metric = |label: &str, f: &dyn Fn(&PipelineRun, f64) -> String, out: &mut String| {
        let mut cells = vec![label.to_string()];
        for (r, d) in runs.iter().zip(&days) {
            cells.push(f(r, *d));
        }
        out.push_str(&row(&cells, &widths));
        out.push('\n');
    };

    // Schema-size row uses the workload constants (the generators model a
    // representative subset of each application's schema).
    let mut cells = vec!["Schema tables (paper)".to_string()];
    for w in WORKLOADS {
        cells.push(w.num_tables().to_string());
    }
    out.push_str(&row(&cells, &widths));
    out.push('\n');
    metric("Trace length (days)", &|_r, d| format!("{d:.0}"), &mut out);
    metric("Avg queries per day", &|r, d| {
        format!("{:.0}", r.total_queries as f64 / d)
    }, &mut out);
    for (label, pick) in [
        ("SELECT", 0usize),
        ("INSERT", 1),
        ("UPDATE", 2),
        ("DELETE", 3),
    ] {
        metric(&format!("Num {label} [%]"), &|r, _| {
            let s = r.bot.preprocessor().stats();
            let v = [s.selects, s.inserts, s.updates, s.deletes][pick];
            format!("{v} [{:.2}%]", 100.0 * v as f64 / s.total_queries.max(1) as f64)
        }, &mut out);
    }
    out
}

/// Table 2 — workload reduction: queries → templates → clusters.
pub fn table2(effort: Effort) -> String {
    let mut out = String::new();
    out.push_str("Table 2: Workload Reduction\n");
    let widths = [26usize, 14, 14, 14];
    out.push_str(&row(
        &["".into(), "Admissions".into(), "BusTracker".into(), "MOOC".into()],
        &widths,
    ));
    out.push('\n');

    let runs: Vec<PipelineRun> = WORKLOADS.iter().map(|&w| standard_run(w, effort)).collect();
    let rows_spec: [(&str, Box<dyn Fn(&PipelineRun) -> String>); 4] = [
        ("Total queries", Box::new(|r: &PipelineRun| r.total_queries.to_string())),
        (
            "Total templates",
            Box::new(|r: &PipelineRun| r.bot.preprocessor().num_templates().to_string()),
        ),
        (
            "Avg clusters per day",
            Box::new(|r: &PipelineRun| {
                let avg = r.daily.iter().map(|d| d.num_clusters).sum::<usize>() as f64
                    / r.daily.len().max(1) as f64;
                format!("{avg:.1}")
            }),
        ),
        (
            "Reduction ratio",
            Box::new(|r: &PipelineRun| {
                let clusters = r.daily.last().map_or(1, |d| d.num_clusters).max(1);
                format!("{:.0}x", r.total_queries as f64 / clusters as f64)
            }),
        ),
    ];
    for (label, f) in rows_spec {
        let mut cells = vec![label.to_string()];
        for r in &runs {
            cells.push(f(r));
        }
        out.push_str(&row(&cells, &widths));
        out.push('\n');
    }
    out
}

/// Table 3 — forecasting-model properties (static, from [`model_properties`]).
pub fn table3() -> String {
    let mut out = String::new();
    out.push_str("Table 3: Forecasting Models\n");
    let props = model_properties();
    let widths = [8usize, 6, 6, 6, 6, 6, 6];
    let mut header = vec!["".to_string()];
    header.extend(props.iter().map(|p| p.name.to_string()));
    out.push_str(&row(&header, &widths));
    out.push('\n');
    for (label, get) in [
        ("Linear", Box::new(|p: &ModelProperties| p.linear) as Box<dyn Fn(_) -> bool>),
        ("Memory", Box::new(|p: &ModelProperties| p.memory)),
        ("Kernel", Box::new(|p: &ModelProperties| p.kernel)),
    ] {
        let mut cells = vec![label.to_string()];
        cells.extend(props.iter().map(|p| if get(p) { "yes" } else { "no" }.to_string()));
        out.push_str(&row(&cells, &widths));
        out.push('\n');
    }
    out
}

/// Table 4 — computation & storage overhead of each component.
pub fn table4(effort: Effort) -> String {
    let mut out = String::new();
    out.push_str("Table 4: Computation & Storage Overhead\n");

    for &w in &WORKLOADS {
        let run = standard_run(w, effort);
        let per_query_us =
            run.ingest_wall.as_micros() as f64 / run.total_queries.max(1) as f64;
        let cluster_per_day_ms =
            run.cluster_wall.as_millis() as f64 / run.daily.len().max(1) as f64;
        let stored: usize = run
            .bot
            .preprocessor()
            .templates()
            .iter()
            .map(|e| e.history.stored_entries())
            .sum();
        out.push_str(&format!(
            "  {:<11} Pre-Processor {per_query_us:8.2} us/query | Clusterer {cluster_per_day_ms:8.1} ms/day | history entries {stored}\n",
            w.name(),
        ));

        // Model training time/size on this workload's top clusters.
        let end = run.end;
        let start = run.start;
        let series = run.cluster_series(start, end, Interval::HOUR);
        if series.is_empty() || series[0].len() < 60 {
            continue;
        }
        let spec = WindowSpec { window: 24, horizon: 1 };

        let t0 = std::time::Instant::now();
        let mut lr = qb_forecast::LinearRegression::default();
        lr.fit(&series, spec).expect("enough data");
        let lr_time = t0.elapsed();

        let t0 = std::time::Instant::now();
        let mut rnn = qb_forecast::Rnn::new(rnn_config(effort));
        rnn.fit(&series, spec).expect("enough data");
        let rnn_time = t0.elapsed();

        let t0 = std::time::Instant::now();
        let mut kr = qb_forecast::KernelRegression::default();
        kr.fit(&series, spec).expect("enough data");
        let kr_fit = t0.elapsed();
        let t0 = std::time::Instant::now();
        let recent: Vec<Vec<f64>> =
            series.iter().map(|s| s[s.len() - 24..].to_vec()).collect();
        let _ = kr.predict(&recent);
        let kr_pred = t0.elapsed();

        out.push_str(&format!(
            "  {:<11} LR train {:>8.2?} ({} B serialized) | RNN train {:>8.2?} ({} B serialized, {} epochs) | KR fit {:>8.2?} + predict {:>8.2?} ({} stored rows)\n",
            "",
            lr_time,
            lr.to_bytes().len(),
            rnn_time,
            rnn.to_bytes().len(),
            rnn.epochs_run,
            kr_fit,
            kr_pred,
            kr.num_stored(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_is_static_and_complete() {
        let t = table3();
        for name in ["LR", "ARMA", "KR", "RNN", "FNN", "PSRNN"] {
            assert!(t.contains(name), "{t}");
        }
    }

    #[test]
    fn table1_reports_select_majority() {
        let t = table1(Effort::Quick);
        assert!(t.contains("SELECT"), "{t}");
        assert!(t.contains("Admissions"));
    }

    #[test]
    fn table2_reduction_monotone() {
        let t = table2(Effort::Quick);
        assert!(t.contains("Reduction ratio"));
    }
}
