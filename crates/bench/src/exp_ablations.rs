//! Ablations of QB5000's design decisions (`repro ablations`).
//!
//! Each ablation isolates one choice the paper argues for and measures the
//! alternative:
//!
//! 1. **Joint vs. independent models** — §7.2 trains one model jointly over
//!    all clusters "which improves the prediction accuracy" via information
//!    sharing. We compare joint LR against per-cluster LRs.
//! 2. **Equal vs. validation-weighted ensemble** — §6.1 rejected weighted
//!    averaging ("that led to overfitting and generated worse results").
//! 3. **Arrival-rate vs. logical clustering features, forecast quality** —
//!    §7.7 attributes AUTO-LOGICAL's loss partly to "templates within the
//!    same logical feature cluster may have multiple arrival rate
//!    patterns; this makes it more difficult for the Forecaster".
//! 4. **Semantic folding** — §4's equivalence heuristic; measures how many
//!    extra templates the tracker carries without it.
//! 5. **Adaptive shift trigger** — our implementation of §5.2's deferred
//!    future work, measured on the churny MOOC trace.

use qb5000::{Qb5000Config, QueryBot5000};
use qb_forecast::WindowSpec;
use qb_timeseries::{mse_log_space, Interval};
use qb_workloads::{TraceConfig, Workload};

use crate::eval::fit_and_roll;
use crate::logical::{self, LOGICAL_CLUSTERER};
use crate::pipeline_run::{run_pipeline, RunOptions};
use crate::Effort;

fn mse_of(actual: &[Vec<f64>], pred: &[Vec<f64>]) -> f64 {
    let per: Vec<f64> = actual
        .iter()
        .zip(pred)
        .filter(|(a, _)| !a.is_empty())
        .map(|(a, p)| mse_log_space(a, p))
        .collect();
    per.iter().sum::<f64>() / per.len().max(1) as f64
}

/// Ablation 1: joint multi-cluster LR vs. one LR per cluster.
fn joint_vs_independent(effort: Effort) -> String {
    let mut out = String::from("Ablation 1: joint vs. per-cluster models (§7.2)\n");
    let days = if effort.is_quick() { 10 } else { 21 };
    let mut opts = RunOptions::new(Workload::BusTracker, days, 0.05);
    opts.qb.max_clusters = 4;
    opts.qb.coverage_target = 2.0;
    let run = run_pipeline(opts);
    let series = run.cluster_series(run.start, run.end, Interval::HOUR);
    if series.len() < 2 {
        return out + "  (needs ≥2 clusters)\n";
    }
    let len = series[0].len();
    for horizon in [1usize, 24] {
        let spec = WindowSpec { window: 24, horizon };
        let test_start = (len - len / 5).max(spec.min_len() + 1);

        let mut joint = qb_forecast::LinearRegression::default();
        let joint_pred = fit_and_roll(&mut joint, &series, spec, test_start).expect("joint");
        let (actual, _) = qb_forecast::rolling_forecast(&joint, &series, spec, test_start);

        // Independent: one single-cluster model per cluster.
        let mut indep_pred: Vec<Vec<f64>> = Vec::new();
        for s in &series {
            let single = vec![s.clone()];
            let mut m = qb_forecast::LinearRegression::default();
            let p = fit_and_roll(&mut m, &single, spec, test_start).expect("indep");
            indep_pred.push(p.into_iter().next().expect("one cluster"));
        }
        out.push_str(&format!(
            "  horizon {horizon:>3}h: joint MSE(log) {:.4} vs independent {:.4}\n",
            mse_of(&actual, &joint_pred),
            mse_of(&actual, &indep_pred),
        ));
    }
    out.push_str("  (paper argues joint training shares information across clusters; on\n");
    out.push_str("   these synthetic traces the clusters are nearly independent, so the\n");
    out.push_str("   joint model's wider input mostly adds variance — the benefit needs\n");
    out.push_str("   genuinely correlated clusters, as in the real traces)\n");
    out
}

/// Ablation 2: equal-weight vs. validation-weighted ensemble.
fn equal_vs_weighted_ensemble(effort: Effort) -> String {
    let mut out = String::from("Ablation 2: equal vs. validation-weighted ensemble (§6.1)\n");
    let days = if effort.is_quick() { 10 } else { 21 };
    let mut opts = RunOptions::new(Workload::BusTracker, days, 0.05);
    opts.qb.max_clusters = 3;
    opts.qb.coverage_target = 2.0;
    let run = run_pipeline(opts);
    let series = run.cluster_series(run.start, run.end, Interval::HOUR);
    let len = series[0].len();
    let spec = WindowSpec { window: 24, horizon: 24 };
    let test_start = (len - len / 5).max(spec.min_len() + 1);

    let rnn_cfg = crate::zoo::rnn_config(effort);
    let mut equal = qb_forecast::Ensemble::new(rnn_cfg.clone());
    let equal_pred = fit_and_roll(&mut equal, &series, spec, test_start).expect("equal");
    let (actual, _) = qb_forecast::rolling_forecast(&equal, &series, spec, test_start);

    let mut weighted = crate::weighted::WeightedEnsemble::new(rnn_cfg);
    let weighted_pred =
        fit_and_roll(&mut weighted, &series, spec, test_start).expect("weighted");

    out.push_str(&format!(
        "  equal weights MSE(log) {:.4} | validation-weighted {:.4} (w_lr = {:.2})\n",
        mse_of(&actual, &equal_pred),
        mse_of(&actual, &weighted_pred),
        weighted.weight_lr(),
    ));
    out.push_str("  (paper rejected weighting: derived weights overfit the validation window)\n");
    out
}

/// Ablation 3: forecastability of arrival-rate vs. logical clusters.
fn feature_forecastability(effort: Effort) -> String {
    let mut out =
        String::from("Ablation 3: arrival-rate vs. logical clustering, forecast MSE (§7.7)\n");
    let days = if effort.is_quick() { 10 } else { 21 };
    let arrival_rate =
        Qb5000Config { max_clusters: 3, coverage_target: 2.0, ..Qb5000Config::default() };
    let logical = Qb5000Config {
        cluster_feature: Some(logical::cluster_feature),
        clusterer: LOGICAL_CLUSTERER,
        ..arrival_rate.clone()
    };
    for (label, qb) in [("arrival-rate", arrival_rate), ("logical", logical)] {
        let mut opts = RunOptions::new(Workload::BusTracker, days, 0.05);
        opts.qb = qb;
        let run = run_pipeline(opts);
        let series = run.cluster_series(run.start, run.end, Interval::HOUR);
        if series.is_empty() {
            out.push_str(&format!("  {label:<12}: no clusters\n"));
            continue;
        }
        let len = series[0].len();
        let spec = WindowSpec { window: 24, horizon: 1 };
        let test_start = (len - len / 5).max(spec.min_len() + 1);
        let mut lr = qb_forecast::LinearRegression::default();
        let pred = fit_and_roll(&mut lr, &series, spec, test_start).expect("fit");
        let (actual, _) = qb_forecast::rolling_forecast(&lr, &series, spec, test_start);
        out.push_str(&format!(
            "  {label:<12}: {} clusters, 1h-horizon MSE(log) {:.4}\n",
            series.len(),
            mse_of(&actual, &pred),
        ));
    }
    out.push_str("  (caveat: a logical cluster that mixes day- and night-shaped templates\n");
    out.push_str("   sums to a flatter, easier-to-forecast series — but the forecast is\n");
    out.push_str("   for the wrong unit of work, which is why AUTO-LOGICAL still loses\n");
    out.push_str("   the end-to-end index experiment of Figures 11-12)\n");
    out
}

/// Ablation 4: semantic folding on/off — template counts. One run per
/// workload reads both: without folding every distinct canonical text
/// would be its own template, and folding does not change which texts
/// arrive, so "folding off" is the distinct-text count.
fn semantic_folding(effort: Effort) -> String {
    let mut out = String::from("Ablation 4: semantic-equivalence folding (§4)\n");
    let days = if effort.is_quick() { 2 } else { 7 };
    let (mut folded, mut texts) = (0usize, 0usize);
    for w in [Workload::Admissions, Workload::BusTracker, Workload::Mooc] {
        let mut bot = QueryBot5000::new(Qb5000Config::default());
        let cfg = TraceConfig { start: 0, days, scale: 0.03, seed: 0xAB };
        for ev in w.generator(cfg) {
            let _ = bot.ingest_weighted(ev.minute, &ev.sql, ev.count);
        }
        folded += bot.preprocessor().num_templates();
        texts += bot.preprocessor().num_distinct_texts();
    }
    for (label, count_total) in [("folding on", folded), ("folding off", texts)] {
        out.push_str(&format!("  {label:<12}: {count_total} tracked templates across 3 workloads\n"));
    }
    out.push_str("  (folding keeps template counts minimal; the traces' generated SQL is\n");
    out.push_str("   already canonical, so most folding wins come from conjunct reordering)\n");
    out
}

/// Ablation 5: fixed vs. adaptive shift trigger on the churny MOOC trace.
fn adaptive_trigger(effort: Effort) -> String {
    let mut out = String::from("Ablation 5: fixed vs. adaptive workload-shift trigger (§5.2 future work)\n");
    let days = if effort.is_quick() { 20 } else { 40 };
    for (label, adaptive) in [("fixed 0.2", false), ("adaptive", true)] {
        let mut qb = Qb5000Config::default();
        qb.clusterer.adaptive_trigger = adaptive;
        let mut bot = QueryBot5000::new(qb);
        let cfg = TraceConfig { start: 0, days, scale: 0.03, seed: 0xAD };
        let mut next_daily = qb_timeseries::MINUTES_PER_DAY;
        for ev in Workload::Mooc.generator(cfg) {
            if ev.minute >= next_daily {
                bot.update_clusters(next_daily);
                next_daily += qb_timeseries::MINUTES_PER_DAY;
            }
            let _ = bot.ingest_weighted(ev.minute, &ev.sql, ev.count);
        }
        out.push_str(&format!(
            "  {label:<10}: {} early re-clusterings over {days} days of MOOC churn\n",
            bot.shift_triggers,
        ));
    }
    out.push_str("  (each early re-clustering forces model retraining — fewer is cheaper,\n");
    out.push_str("   as long as genuine phase switches still fire; see clusterer tests)\n");
    out
}

/// All five ablations.
pub fn ablations(effort: Effort) -> String {
    let mut out = String::from("=== Design-decision ablations (DESIGN.md) ===\n\n");
    out.push_str(&joint_vs_independent(effort));
    out.push('\n');
    out.push_str(&equal_vs_weighted_ensemble(effort));
    out.push('\n');
    out.push_str(&feature_forecastability(effort));
    out.push('\n');
    out.push_str(&semantic_folding(effort));
    out.push('\n');
    out.push_str(&adaptive_trigger(effort));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn semantic_folding_section_runs() {
        let s = semantic_folding(Effort::Quick);
        assert!(s.contains("folding on"));
        assert!(s.contains("folding off"));
    }
}
