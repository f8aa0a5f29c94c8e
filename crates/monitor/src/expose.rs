//! Exposition: Prometheus text with quantile gauges, and the
//! deterministic text dashboard.

use std::fmt::Write as _;

use qb_obs::snapshot::prom_name;
use qb_obs::MetricsSnapshot;

use crate::history::MetricsHistory;
use crate::rules::ActiveAlert;

/// Quantiles estimated per histogram in `/metrics`: the median and two
/// tails, so each histogram family adds three gauges to a scrape.
pub const QUANTILES: [f64; 3] = [0.5, 0.95, 0.99];

/// The `/metrics` payload: the snapshot's full Prometheus exposition
/// (counters, gauges, cumulative histogram `_bucket`/`_sum`/`_count`
/// series) plus one estimated-quantile gauge family per unlabeled
/// histogram — `<family>_quantile_seconds{quantile="0.99"} …`, one line
/// per [`QUANTILES`] entry — and an `alerts_firing{severity=…}` gauge
/// family so a scraper sees SLO state without a second endpoint.
pub(crate) fn exposition_text(snapshot: &MetricsSnapshot, alerts: &[ActiveAlert]) -> String {
    let mut out = snapshot.to_prometheus();
    for (key, hist) in &snapshot.histograms {
        // Labeled histograms would need per-series quantile labels merged
        // with `le`-style care; no pipeline stage registers one today, so
        // keep the estimator to plain families.
        if key.contains('{') || hist.count == 0 {
            continue;
        }
        let family = prom_name(key);
        let mut lines = String::new();
        for q in QUANTILES {
            let Some(nanos) = hist.quantile_nanos(q) else { continue };
            let _ = writeln!(
                lines,
                "{family}_quantile_seconds{{quantile=\"{q}\"}} {}",
                nanos / 1e9
            );
        }
        if !lines.is_empty() {
            let _ = writeln!(out, "# TYPE {family}_quantile_seconds gauge");
            out.push_str(&lines);
        }
    }
    let _ = writeln!(out, "# TYPE alerts_firing gauge");
    for severity in ["info", "warning", "critical"] {
        let n = alerts.iter().filter(|a| a.severity.as_str() == severity).count();
        let _ = writeln!(out, "alerts_firing{{severity=\"{severity}\"}} {n}");
    }
    out
}

/// A deterministic operator dashboard: active alerts, counters, gauges,
/// and histogram event counts. Only round-deterministic data is rendered
/// (no wall-time durations), so two runs of the same workload produce
/// byte-identical dashboards regardless of worker-pool width.
pub(crate) fn render_dashboard(history: &MetricsHistory, alerts: &[ActiveAlert]) -> String {
    let mut out = String::new();
    let round = history.latest_round().map_or("-".to_string(), |r| r.to_string());
    let _ = writeln!(out, "== qb5000 monitor — round {round} ==");
    if alerts.is_empty() {
        let _ = writeln!(out, "alerts: none firing");
    } else {
        let _ = writeln!(out, "alerts: {} firing", alerts.len());
        for a in alerts {
            let _ = writeln!(
                out,
                "  [{}] {}  since round {}  value {:.6}",
                a.severity, a.rule, a.since_round, a.value
            );
        }
    }
    let Some(snap) = history.latest_snapshot() else {
        let _ = writeln!(out, "(no metrics observed yet)");
        return out;
    };
    if !snap.counters.is_empty() {
        let _ = writeln!(out, "counters:");
        for (k, v) in &snap.counters {
            let window = history.capacity();
            let _ = writeln!(
                out,
                "  {k:<42} {v:>12}  (+{} over last {} rounds)",
                history.counter_increase(k, window),
                history.len().min(window),
            );
        }
    }
    if !snap.gauges.is_empty() {
        let _ = writeln!(out, "gauges:");
        for (k, v) in &snap.gauges {
            let _ = writeln!(out, "  {k:<42} {v:>12.6}");
        }
    }
    if !snap.histograms.is_empty() {
        let _ = writeln!(out, "histogram events:");
        for (k, h) in &snap.histograms {
            let _ = writeln!(out, "  {k:<42} {:>12}", h.count);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::promcheck::check_prometheus;
    use crate::rules::Severity;
    use qb_obs::Recorder;
    use std::time::Duration;

    fn alert(rule: &str, severity: Severity) -> ActiveAlert {
        ActiveAlert {
            rule: rule.into(),
            severity,
            since_round: 3,
            fired_round: 4,
            value: 2.5,
            evidence: vec![],
            fired_event: None,
        }
    }

    #[test]
    fn exposition_includes_quantiles_and_alert_gauges_and_conforms() {
        let rec = Recorder::new();
        rec.counter("pipeline.rounds").add(5);
        rec.gauge("forecast.mse.h0").set(1.25);
        let h = rec.histogram("serve.publish");
        for micros in [10, 20, 500] {
            h.record(Duration::from_micros(micros));
        }
        let text = exposition_text(&rec.snapshot(), &[alert("mse-band", Severity::Critical)]);
        assert!(text.contains("# TYPE serve_publish_quantile_seconds gauge"), "{text}");
        for q in ["0.5", "0.95", "0.99"] {
            let line = format!("serve_publish_quantile_seconds{{quantile=\"{q}\"}}");
            assert!(text.contains(&line), "{text}");
        }
        assert!(text.contains("alerts_firing{severity=\"critical\"} 1"), "{text}");
        assert!(text.contains("alerts_firing{severity=\"warning\"} 0"), "{text}");
        assert_eq!(check_prometheus(&text), Vec::<String>::new());
    }

    #[test]
    fn dashboard_is_deterministic_and_lists_alerts() {
        let rec = Recorder::new();
        rec.counter("x").add(2);
        rec.gauge("g").set(0.5);
        let mut h1 = MetricsHistory::new(4);
        h1.observe(1, &rec.snapshot());
        let mut h2 = h1.clone();
        let alerts = vec![alert("stalled", Severity::Warning)];
        let a = render_dashboard(&h1, &alerts);
        let b = render_dashboard(&h2, &alerts);
        assert_eq!(a, b);
        assert!(a.contains("round 1"));
        assert!(a.contains("[warning] stalled"));
        assert!(a.contains("x"));
        // Quiet second round: same totals, zero window increments shown.
        h2.observe(2, &rec.snapshot());
        let c = render_dashboard(&h2, &[]);
        assert!(c.contains("alerts: none firing"));
    }
}
