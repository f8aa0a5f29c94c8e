//! Figures 7, 8, 9, 10, 15, 16, 17 — the forecasting experiments.

use qb_forecast::WindowSpec;
use qb_linalg::{Matrix, Pca};
use qb_timeseries::{mse_log_space, Interval, MINUTES_PER_DAY};
use qb_workloads::Workload;

use crate::eval::{evaluate_all_models, fit_and_roll};
use crate::pipeline_run::{run_pipeline, PipelineRun, RunOptions};
use crate::zoo::{rnn_config, ALL_MODELS};
use crate::{write_csv, Effort};

/// The paper's seven prediction horizons, in hours.
pub const HORIZONS_HOURS: [usize; 7] = [1, 12, 24, 48, 72, 120, 168];
pub const HORIZON_LABELS: [&str; 7] =
    ["1 Hour", "12 Hour", "1 Day", "2 Days", "3 Days", "5 Days", "1 Week"];

fn forecast_run(w: Workload, effort: Effort) -> PipelineRun {
    run_pipeline(forecast_options(w, effort))
}

fn forecast_options(w: Workload, effort: Effort) -> RunOptions {
    let days = if effort.is_quick() { 14 } else { 28 };
    let scale = if effort.is_quick() { 0.05 } else { 0.2 };
    let start = match w {
        Workload::Admissions => 300 * MINUTES_PER_DAY,
        _ => 0,
    };
    let mut opts = RunOptions::new(w, days, scale).starting_at(start);
    // Model several clusters jointly (§7.2: three for Admissions /
    // BusTracker, five for MOOC); the synthetic largest cluster covers more
    // volume than the real traces', so take the top-k outright.
    opts.qb.max_clusters = 5;
    opts.qb.coverage_target = 2.0;
    opts
}

/// Figure 7 — MSE (log space) of all eight models across horizons and
/// workloads.
pub fn fig7(effort: Effort) -> String {
    let mut out = String::new();
    out.push_str("Figure 7: Forecasting Model Evaluation (MSE in log space; lower is better)\n");
    for w in [Workload::Admissions, Workload::BusTracker, Workload::Mooc] {
        let run = forecast_run(w, effort);
        let series = run.cluster_series(run.start, run.end, Interval::HOUR);
        if series.is_empty() {
            out.push_str(&format!("  {}: no clusters tracked\n", w.name()));
            continue;
        }
        let len = series[0].len();
        out.push_str(&format!("  -- {} ({} clusters, {len} hourly steps) --\n", w.name(), series.len()));
        out.push_str(&format!("  {:<10}", "model"));
        for l in HORIZON_LABELS {
            out.push_str(&format!("{l:>9}"));
        }
        out.push('\n');

        let mut table: Vec<Vec<f64>> = vec![Vec::new(); ALL_MODELS.len()];
        for &h in &HORIZONS_HOURS {
            let spec = WindowSpec { window: 24, horizon: h };
            // Score the final fifth of the series, but leave room for the
            // window + horizon.
            let min_start = spec.window + h;
            let test_start = (len - len / 5).max(min_start + 1);
            if test_start + 1 >= len {
                for r in &mut table {
                    r.push(f64::NAN);
                }
                continue;
            }
            let eval = evaluate_all_models(&series, spec, test_start, effort, 1.5);
            for (mi, m) in ALL_MODELS.iter().enumerate() {
                table[mi].push(eval.mse(m));
            }
        }
        for (mi, m) in ALL_MODELS.iter().enumerate() {
            out.push_str(&format!("  {m:<10}"));
            for v in &table[mi] {
                out.push_str(&format!("{v:>9.2}"));
            }
            out.push('\n');
        }
        // Who-wins summary per horizon.
        out.push_str("  best:     ");
        for hi in 0..HORIZONS_HOURS.len() {
            let best = ALL_MODELS
                .iter()
                .enumerate()
                .filter(|(mi, _)| table[*mi][hi].is_finite())
                .min_by(|a, b| table[a.0][hi].total_cmp(&table[b.0][hi]))
                .map_or("-", |(_, m)| m);
            out.push_str(&format!("{best:>9}"));
        }
        out.push('\n');
    }
    out
}

/// Figure 8 — actual vs. predicted for the BusTracker largest cluster at
/// 1-hour and 1-week horizons (HYBRID).
pub fn fig8(effort: Effort) -> String {
    let mut out = String::new();
    out.push_str("Figure 8: Prediction Results (BusTracker largest cluster)\n");
    let run = forecast_run(Workload::BusTracker, effort);
    let all = run.cluster_series(run.start, run.end, Interval::HOUR);
    let Some(largest) = all.first() else { return out + "  no clusters\n" };
    let series = vec![largest.clone()];
    let len = largest.len();

    for (label, horizon) in [("1-hour", 1usize), ("1-week", 168)] {
        let spec = WindowSpec { window: 24, horizon };
        let min_start = spec.window + horizon + 1;
        let test_start = (len - len / 4).max(min_start);
        if test_start + 8 >= len {
            out.push_str(&format!("  {label}: series too short for this horizon at quick effort\n"));
            continue;
        }
        let eval = evaluate_all_models(&series, spec, test_start, effort, 1.5);
        let actual = &eval.actual[0];
        let pred = &eval.predictions["HYBRID"][0];
        let rows: Vec<String> = actual
            .iter()
            .zip(pred)
            .enumerate()
            .map(|(i, (a, p))| format!("{i},{a:.1},{p:.1}"))
            .collect();
        let name = format!("fig8_{label}_horizon.csv");
        if let Ok(p) = write_csv(&name, "hour,actual,predicted", &rows) {
            out.push_str(&format!("  {label} horizon series written to {p}\n"));
        }
        out.push_str(&format!(
            "  {label} horizon: MSE(log) {:.3} over {} points\n",
            mse_log_space(actual, pred),
            actual.len()
        ));
    }
    out.push_str("  (expect 1-hour tighter than 1-week, both tracking the daily cycle)\n");
    out
}

/// Figure 9 + Appendix C (Figure 16) — spike prediction on the two-year
/// Admissions trace.
pub fn fig9_16(effort: Effort) -> String {
    let mut out = String::new();
    out.push_str("Figure 9: Spike Prediction (Admissions, annual deadlines)\n");

    // Trace spanning the end of year 1 through the end of year 2 so the
    // training data contains last year's Dec 1 / Dec 15 spikes.
    let start = 310 * MINUTES_PER_DAY; // Nov 6, year 1
    let days: u32 = if effort.is_quick() { 420 } else { 425 };
    let scale = if effort.is_quick() { 0.01 } else { 0.05 };
    let run = run_pipeline(RunOptions::new(Workload::Admissions, days, scale).starting_at(start));
    let end = run.end;
    let series = vec![run.total_series(start, end, Interval::HOUR)];
    let len = series[0].len();

    // Test window: Nov 15 (day 319 of year 2) through the trace end.
    let test_begin_day = 365 + 319;
    let test_start = ((test_begin_day * MINUTES_PER_DAY - start) / 60) as usize;
    if test_start + 200 >= len {
        return out + "  trace too short for the spike window\n";
    }
    let horizon = 168; // "identify workload spikes one week before they occur"
    let spec = WindowSpec { window: 24, horizon };

    // LR / RNN / ENSEMBLE with the daily window; KR with a three-week
    // window over the full history (§6.2).
    let mut preds: Vec<(&str, Vec<f64>)> = Vec::new();
    let mut lr = qb_forecast::LinearRegression::default();
    let lr_pred = fit_and_roll(&mut lr, &series, spec, test_start).expect("fit LR");
    let mut rnn = qb_forecast::Rnn::new(rnn_config(effort));
    let rnn_pred = fit_and_roll(&mut rnn, &series, spec, test_start).expect("fit RNN");
    let ens: Vec<f64> = lr_pred[0]
        .iter()
        .zip(&rnn_pred[0])
        .map(|(a, b)| 0.5 * (a + b))
        .collect();
    let kr_window = 504.min(test_start - horizon - 2);
    let kr_spec = WindowSpec { window: kr_window, horizon };
    let mut kr = qb_forecast::KernelRegression::default();
    let kr_pred = fit_and_roll(&mut kr, &series, kr_spec, test_start).expect("fit KR");
    preds.push(("LR", lr_pred[0].clone()));
    preds.push(("RNN", rnn_pred[0].clone()));
    preds.push(("ENSEMBLE", ens.clone()));
    preds.push(("KR", kr_pred[0].clone()));

    let actual: Vec<f64> = series[0][test_start..].to_vec();
    let peak_actual = actual.iter().copied().fold(0.0f64, f64::max);
    let base_actual = actual.iter().sum::<f64>() / actual.len() as f64;
    out.push_str(&format!(
        "  test window: {} hourly points; actual peak {peak_actual:.0} vs mean {base_actual:.0} ({:.1}x)\n",
        actual.len(),
        peak_actual / base_actual.max(1.0)
    ));
    let mut csv_rows: Vec<String> = Vec::new();
    for (i, a) in actual.iter().enumerate() {
        let cells: Vec<String> = std::iter::once(format!("{i},{a:.0}"))
            .chain(preds.iter().map(|(_, p)| format!("{:.0}", p[i])))
            .collect();
        csv_rows.push(cells.join(","));
    }
    if let Ok(p) = write_csv("fig9_spikes.csv", "hour,actual,lr,rnn,ensemble,kr", &csv_rows) {
        out.push_str(&format!("  series written to {p}\n"));
    }
    for (name, p) in &preds {
        let peak_pred = p.iter().copied().fold(0.0f64, f64::max);
        out.push_str(&format!(
            "  {name:<9} predicted peak {peak_pred:>9.0}  ({:.0}% of actual peak)  MSE(log) {:.2}\n",
            100.0 * peak_pred / peak_actual.max(1.0),
            mse_log_space(&actual, p)
        ));
    }
    out.push_str("  (expect only KR to approach the actual peak — §7.3)\n");

    // --- Figure 16: HYBRID gamma sensitivity on the same data. ---
    out.push_str("\nFigure 16: HYBRID gamma sensitivity\n");
    for gamma in [1.0, 1.5, 2.0] {
        let hybrid: Vec<f64> = ens
            .iter()
            .zip(&kr_pred[0])
            .map(|(&e, &k)| if k > gamma * e { k } else { e })
            .collect();
        let overrides =
            ens.iter().zip(&kr_pred[0]).filter(|(&e, &k)| k > gamma * e).count();
        let peak = hybrid.iter().copied().fold(0.0f64, f64::max);
        out.push_str(&format!(
            "  gamma={gamma:.1}: MSE(log) {:.2}, predicted peak {:.0}% of actual, KR overrides {overrides}/{}\n",
            mse_log_space(&actual, &hybrid),
            100.0 * peak / peak_actual.max(1.0),
            ens.len()
        ));
    }
    out
}

/// Figure 10 — prediction accuracy and training time vs. interval.
pub fn fig10(effort: Effort) -> String {
    let mut out = String::new();
    out.push_str("Figure 10: Prediction Interval Evaluation (BusTracker, ENSEMBLE)\n");
    let run = run_pipeline(forecast_options(Workload::BusTracker, effort).reading_minutes());
    let intervals = [
        ("10min", Interval::TEN_MINUTES),
        ("20min", Interval::TWENTY_MINUTES),
        ("30min", Interval::THIRTY_MINUTES),
        ("60min", Interval::HOUR),
        ("120min", Interval::TWO_HOURS),
    ];
    let horizons_hours = [1usize, 24, 72];
    out.push_str("  horizon  interval  MSE(log)  train_time\n");
    for &hh in &horizons_hours {
        for (label, interval) in intervals {
            let series = run.cluster_series(run.start, run.end, interval);
            if series.is_empty() {
                continue;
            }
            let steps_per_hour = (60 / interval.as_minutes()).max(1) as usize;
            let window = 24 * steps_per_hour; // one day
            let horizon = hh * steps_per_hour;
            let len = series[0].len();
            let min_start = window + horizon + 1;
            let test_start = (len - len / 6).max(min_start);
            if test_start + 4 >= len {
                out.push_str(&format!("  {hh:>4}h    {label:>6}   (series too short)\n"));
                continue;
            }
            let spec = WindowSpec { window, horizon };

            let t0 = std::time::Instant::now();
            let mut lr = qb_forecast::LinearRegression::default();
            let lr_pred = fit_and_roll(&mut lr, &series, spec, test_start).expect("LR fit");
            let mut rnn = qb_forecast::Rnn::new(rnn_config(effort));
            let rnn_pred = fit_and_roll(&mut rnn, &series, spec, test_start).expect("RNN fit");
            let train_time = t0.elapsed();

            let (actual, _) = qb_forecast::rolling_forecast(&lr, &series, spec, test_start);
            let mut per_cluster = Vec::new();
            for c in 0..series.len() {
                if actual[c].is_empty() {
                    continue;
                }
                let ens: Vec<f64> = lr_pred[c]
                    .iter()
                    .zip(&rnn_pred[c])
                    .map(|(a, b)| 0.5 * (a + b))
                    .collect();
                per_cluster.push(mse_log_space(&actual[c], &ens));
            }
            let mse = per_cluster.iter().sum::<f64>() / per_cluster.len().max(1) as f64;
            out.push_str(&format!(
                "  {hh:>4}h    {label:>6}   {mse:>7.3}   {train_time:>8.2?}\n"
            ));
        }
    }
    out.push_str("  (expect: shorter intervals -> lower MSE but longer training)\n");
    out
}

/// Figure 15 — PCA projection of the KR input space (Appendix B).
pub fn fig15(effort: Effort) -> String {
    let mut out = String::new();
    out.push_str("Figure 15: Input Space Time-Progress (Admissions, 3D PCA)\n");
    let start = 310 * MINUTES_PER_DAY;
    let days: u32 = if effort.is_quick() { 420 } else { 425 };
    let scale = if effort.is_quick() { 0.01 } else { 0.05 };
    let run = run_pipeline(RunOptions::new(Workload::Admissions, days, scale).starting_at(start));
    let total = run.total_series(start, run.end, Interval::HOUR);

    // Inputs: trailing 3-week windows (one per day to keep the point count
    // plottable), in log space like the models see them.
    let window = 504.min(total.len() / 3);
    let stride = 24;
    let mut rows = Vec::new();
    let mut day_of_point = Vec::new();
    let mut t = window;
    while t < total.len() {
        let w: Vec<f64> = total[t - window..t].iter().map(|v| v.ln_1p()).collect();
        rows.push(w);
        day_of_point.push((start / MINUTES_PER_DAY) + (t as i64 / 24));
        t += stride;
    }
    if rows.len() < 10 {
        return out + "  not enough windows\n";
    }
    let data = Matrix::from_rows(&rows);
    let pca = Pca::fit(&data, 3);
    let projected = pca.transform_all(&data);

    let csv: Vec<String> = (0..projected.rows())
        .map(|i| {
            let p = projected.row(i);
            let doy = day_of_point[i].rem_euclid(365);
            format!("{},{doy},{:.3},{:.3},{:.3}", day_of_point[i], p[0], p[1], p[2])
        })
        .collect();
    if let Ok(p) = write_csv("fig15_pca.csv", "abs_day,day_of_year,pc1,pc2,pc3", &csv) {
        out.push_str(&format!("  projected trajectory written to {p}\n"));
    }

    // Spike separation: mean distance of December points (day-of-year
    // 329–365: the deadline run-up) from the centroid of the others.
    let mut normal_centroid = vec![0.0; 3];
    let mut n_normal = 0usize;
    for i in 0..projected.rows() {
        let doy = day_of_point[i].rem_euclid(365);
        if !(329..=365).contains(&doy) {
            for (c, v) in normal_centroid.iter_mut().zip(projected.row(i)) {
                *c += v;
            }
            n_normal += 1;
        }
    }
    for c in &mut normal_centroid {
        *c /= n_normal.max(1) as f64;
    }
    let mut spike_d = 0.0;
    let mut n_spike = 0usize;
    let mut normal_d = 0.0;
    for i in 0..projected.rows() {
        let d = qb_linalg::l2_distance(projected.row(i), &normal_centroid);
        let doy = day_of_point[i].rem_euclid(365);
        if (329..=365).contains(&doy) {
            spike_d += d;
            n_spike += 1;
        } else {
            normal_d += d;
        }
    }
    let spike_d = spike_d / n_spike.max(1) as f64;
    let normal_d = normal_d / n_normal.max(1) as f64;
    out.push_str(&format!(
        "  mean distance from normal centroid: deadline-season points {spike_d:.2}, other points {normal_d:.2} ({:.1}x separation)\n",
        spike_d / normal_d.max(1e-9)
    ));
    out.push_str(&format!(
        "  explained variance (top 3): {:?}\n",
        pca.explained_variance().iter().map(|v| (v * 100.0).round() / 100.0).collect::<Vec<_>>()
    ));
    out
}

/// Figure 17 — the noisy eight-phase composite workload (Appendix D).
pub fn fig17(effort: Effort) -> String {
    let mut out = String::new();
    out.push_str("Figure 17: Noisy Workload Prediction (8 OLTP-Bench-style phases)\n");
    let scale = if effort.is_quick() { 0.2 } else { 0.5 };
    // 80 hours of trace; cluster every 4 hours to adapt across phases (the
    // shift trigger also fires on phase switches).
    let mut bot = qb5000::QueryBot5000::new(qb5000::Qb5000Config::default());
    let cfg = qb_workloads::TraceConfig { start: 0, days: 4, scale, seed: 0xA17 };
    // The total series below is read at one-minute intervals.
    bot.keep_minutes(i64::from(cfg.days) * MINUTES_PER_DAY);
    let gen = qb_workloads::noisy::generator(cfg);
    let mut shift_count = 0u64;
    for ev in gen {
        let before = bot.shift_triggers;
        let _ = bot.ingest_weighted(ev.minute, &ev.sql, ev.count);
        shift_count += bot.shift_triggers - before;
    }
    let end = 80 * 60;
    bot.update_clusters(end);
    out.push_str(&format!(
        "  {} templates across phases; {} shift-triggered re-clusterings\n",
        bot.preprocessor().num_templates(),
        shift_count
    ));

    // Predict total volume at a one-hour horizon on one-minute intervals.
    let total: Vec<f64> = {
        let n = end as usize;
        let mut acc = vec![0.0; n];
        for e in bot.preprocessor().templates() {
            let s = e.history.dense_series(0, end, Interval::MINUTE);
            for (a, v) in acc.iter_mut().zip(s) {
                *a += v;
            }
        }
        acc
    };
    let series = vec![total];
    let spec = WindowSpec { window: 120, horizon: 60 };
    let test_start = series[0].len() / 2;
    let mut lr = qb_forecast::LinearRegression::default();
    let pred = fit_and_roll(&mut lr, &series, spec, test_start).expect("fit");
    let (actual, _) = qb_forecast::rolling_forecast(&lr, &series, spec, test_start);
    let rows: Vec<String> = actual[0]
        .iter()
        .zip(&pred[0])
        .enumerate()
        .map(|(i, (a, p))| format!("{},{a:.0},{p:.0}", test_start + i))
        .collect();
    if let Ok(p) = write_csv("fig17_noisy.csv", "minute,actual,predicted", &rows) {
        out.push_str(&format!("  series written to {p}\n"));
    }
    out.push_str(&format!(
        "  MSE(log) {:.2} over the second half (phases 4-8, including two unseen phase switches)\n",
        mse_log_space(&actual[0], &pred[0])
    ));
    out.push_str("  (expect the average level tracked per phase; switches and spikes missed briefly)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizons_match_paper() {
        assert_eq!(HORIZONS_HOURS.len(), HORIZON_LABELS.len());
        assert_eq!(HORIZONS_HOURS[0], 1);
        assert_eq!(HORIZONS_HOURS[6], 168);
    }
}
