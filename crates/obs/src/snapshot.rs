//! Deterministic metric snapshots with Prometheus-text exposition.
//!
//! A [`MetricsSnapshot`] is an owned, sorted copy of the registry: safe to
//! ship across threads, diff between runs, or render. The pipeline's
//! determinism contract says counter values, gauge values, and histogram
//! event counts are bit-identical across worker-pool widths;
//! [`MetricsSnapshot::deterministic_view`] renders exactly that subset so
//! tests can assert equality without tripping over wall-clock durations.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One histogram's state: fixed bucket bounds (nanoseconds, ascending,
/// with an implicit +∞ bucket at the end), per-bucket counts, total
/// duration, and event count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    pub bounds_nanos: Vec<u64>,
    /// `bounds_nanos.len() + 1` entries; the last is the overflow bucket.
    pub buckets: Vec<u64>,
    pub sum_nanos: u64,
    pub count: u64,
}

impl HistogramSnapshot {
    /// Mean observation in milliseconds (0.0 when empty).
    pub fn mean_millis(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_nanos as f64 / self.count as f64 / 1e6
        }
    }

    /// Estimated `q`-quantile in nanoseconds, by linear interpolation
    /// inside the bucket holding the target rank (the same estimator as
    /// Prometheus' `histogram_quantile`). `q` is clamped to `[0, 1]`.
    ///
    /// Returns `None` when the histogram is empty, and — matching
    /// Prometheus — the largest *finite* bound when the rank lands in the
    /// `+∞` overflow bucket (`None` if no finite bound exists, i.e. the
    /// histogram is a single overflow bucket).
    pub fn quantile_nanos(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            let lower = if i == 0 { 0.0 } else { self.bounds_nanos[i - 1] as f64 };
            cum += n;
            if (cum as f64) < target {
                continue;
            }
            return match self.bounds_nanos.get(i) {
                Some(&upper) => {
                    // Rank position inside this bucket, in (0, 1].
                    let frac = (target - (cum - n) as f64) / n as f64;
                    Some(lower + (upper as f64 - lower) * frac)
                }
                // Overflow bucket: no upper bound to interpolate toward.
                None => self.bounds_nanos.last().map(|&b| b as f64),
            };
        }
        // Bucket counts always sum to `count`; unreachable unless the
        // snapshot was assembled by hand inconsistently.
        None
    }

    /// The per-bucket/count/sum increments from `prev` to `self`
    /// (element-wise saturating subtraction; a bound-shape change —
    /// impossible for live registries, whose bounds are fixed at
    /// registration — falls back to `self` verbatim).
    pub fn diff(&self, prev: &HistogramSnapshot) -> HistogramSnapshot {
        if self.bounds_nanos != prev.bounds_nanos || self.buckets.len() != prev.buckets.len() {
            return self.clone();
        }
        HistogramSnapshot {
            bounds_nanos: self.bounds_nanos.clone(),
            buckets: self
                .buckets
                .iter()
                .zip(&prev.buckets)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            sum_nanos: self.sum_nanos.saturating_sub(prev.sum_nanos),
            count: self.count.saturating_sub(prev.count),
        }
    }
}

/// The change between two [`MetricsSnapshot`]s: counter and histogram
/// *increments*, plus the gauge *levels* at the newer snapshot (gauges
/// are instantaneous readings — an arithmetic difference of levels has no
/// meaning, so the delta carries the observed value).
///
/// This is the retention unit of a metrics history ring: a sequence of
/// deltas keyed by round reconstructs any windowed rate or level query
/// without storing full snapshots.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsDelta {
    /// Counter increments since the previous snapshot. Counters absent
    /// from the previous snapshot count from zero; counters that vanished
    /// (impossible for live registries) are dropped.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels at the newer snapshot.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram bucket/count/sum increments since the previous snapshot.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsDelta {
    /// True when nothing changed and no gauge is set — the delta carries
    /// no information.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// A point-in-time copy of every registered metric, sorted by name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The deterministic subset as a stable, line-oriented text: counters,
    /// gauges (as exact bit patterns), and histogram event counts — but no
    /// durations or bucket distributions, which legitimately vary run to
    /// run. Two pipeline runs that differ only in thread count must
    /// produce identical views.
    pub fn deterministic_view(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "counter {k} {v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "gauge {k} bits={:#018x}", v.to_bits());
        }
        for (k, h) in &self.histograms {
            let _ = writeln!(out, "events {k} {}", h.count);
        }
        out
    }

    /// The change from `prev` to `self` as a [`MetricsDelta`]: counter
    /// and histogram increments (saturating — a restarted registry reads
    /// as increment 0, not underflow), gauge levels verbatim. Zero
    /// counter increments and unchanged histograms are dropped so a
    /// quiet round produces a small delta.
    pub fn diff(&self, prev: &MetricsSnapshot) -> MetricsDelta {
        let mut delta = MetricsDelta::default();
        for (k, &v) in &self.counters {
            let inc = v.saturating_sub(prev.counters.get(k).copied().unwrap_or(0));
            if inc > 0 || !prev.counters.contains_key(k) {
                delta.counters.insert(k.clone(), inc);
            }
        }
        delta.gauges = self.gauges.clone();
        for (k, h) in &self.histograms {
            let d = match prev.histograms.get(k) {
                Some(p) => h.diff(p),
                None => h.clone(),
            };
            if d.count > 0 || !prev.histograms.contains_key(k) {
                delta.histograms.insert(k.clone(), d);
            }
        }
        delta
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (metric names sanitized to `[a-zA-Z0-9_]`, histogram buckets
    /// cumulative with `le` labels in seconds).
    ///
    /// Registry keys of the form `name{k="v",...}` — as produced by
    /// [`crate::labeled_name`], which escapes backslash, double-quote,
    /// and newline in label values per the exposition format — are split
    /// into a sanitized family name plus the pre-escaped label block, so
    /// hostile label text (quotes, backslashes, newlines from raw SQL)
    /// cannot break the line-oriented format. Series of one family are
    /// grouped under a single `# TYPE` line regardless of key sort order.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, series) in group_families(&self.counters) {
            let _ = writeln!(out, "# TYPE {name} counter");
            for (labels, v) in series {
                let _ = writeln!(out, "{name}{labels} {v}");
            }
        }
        for (name, series) in group_families(&self.gauges) {
            let _ = writeln!(out, "# TYPE {name} gauge");
            for (labels, v) in series {
                let _ = writeln!(out, "{name}{labels} {}", prom_f64(*v));
            }
        }
        for (name, series) in group_families(&self.histograms) {
            let name = format!("{name}_seconds");
            let _ = writeln!(out, "# TYPE {name} histogram");
            for (labels, h) in series {
                // `le` joins any labels the series already carries.
                let le = |bound: &str| {
                    if labels.is_empty() {
                        format!("{{le=\"{bound}\"}}")
                    } else {
                        format!("{},le=\"{bound}\"}}", &labels[..labels.len() - 1])
                    }
                };
                let mut cum = 0u64;
                for (i, count) in h.buckets.iter().enumerate() {
                    cum += count;
                    match h.bounds_nanos.get(i) {
                        Some(b) => {
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cum}",
                                le(&format!("{}", *b as f64 / 1e9))
                            );
                        }
                        None => {
                            let _ = writeln!(out, "{name}_bucket{} {cum}", le("+Inf"));
                        }
                    }
                }
                let _ = writeln!(out, "{name}_sum{labels} {}", h.sum_nanos as f64 / 1e9);
                let _ = writeln!(out, "{name}_count{labels} {}", h.count);
            }
        }
        out
    }

    /// A compact human-readable stage breakdown: every histogram as
    /// `name: count × mean`, every counter and gauge on its own line.
    /// This is what `qb-bench` prints after an experiment run.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "  stage timings:");
            for (k, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "    {k:<40} {:>8} calls  {:>10.3} ms mean  {:>10.1} ms total",
                    h.count,
                    h.mean_millis(),
                    h.sum_nanos as f64 / 1e6
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "  counters:");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "    {k:<40} {v:>12}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "  gauges:");
            for (k, v) in &self.gauges {
                let _ = writeln!(out, "    {k:<40} {v:>12.6}");
            }
        }
        out
    }
}

/// The Prometheus text format *does* have non-finite literals — a
/// non-finite gauge must scrape as `NaN`/`+Inf`/`-Inf`, not break the
/// line format.
fn prom_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

/// Escapes a label *value* per the Prometheus text exposition format:
/// backslash → `\\`, double-quote → `\"`, newline → `\n`. Everything else
/// passes through untouched.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Splits a registry key into `(sanitized family name, label block)`; the
/// label block (braces included) is empty for unlabeled metrics. Only the
/// family-name half passes through [`prom_name`] — the label block was
/// escaped at registration and must not be re-mangled.
fn split_labeled_key(key: &str) -> (String, String) {
    match key.split_once('{') {
        Some((base, rest)) => (prom_name(base), format!("{{{rest}")),
        None => (prom_name(key), String::new()),
    }
}

/// Groups registry entries by sanitized family name so each family emits
/// exactly one `# TYPE` line, even when an unrelated key sorts between two
/// of its labeled series (`"a_z"` orders between `"a"` and `"a{…"`).
fn group_families<V>(entries: &BTreeMap<String, V>) -> BTreeMap<String, Vec<(String, &V)>> {
    let mut families: BTreeMap<String, Vec<(String, &V)>> = BTreeMap::new();
    for (k, v) in entries {
        let (name, labels) = split_labeled_key(k);
        families.entry(name).or_default().push((labels, v));
    }
    families
}

/// Prometheus metric names: `[a-zA-Z_:][a-zA-Z0-9_:]*`. Maps a registry
/// key (or its family half) to the name the exposition prints.
pub fn prom_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;
    use std::time::Duration;

    fn sample() -> MetricsSnapshot {
        let rec = Recorder::new();
        rec.counter("a.count").add(3);
        rec.gauge("b.ratio").set(0.5);
        let h = rec.histogram_with_bounds("c.time", &[1_000, 1_000_000]);
        h.record(Duration::from_nanos(500));
        h.record(Duration::from_micros(500));
        h.record(Duration::from_millis(5));
        rec.snapshot()
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let prom = sample().to_prometheus();
        assert!(prom.contains("# TYPE a_count counter"));
        assert!(prom.contains("a_count 3"));
        assert!(prom.contains("# TYPE b_ratio gauge"));
        assert!(prom.contains("c_time_seconds_bucket{le=\"0.000001\"} 1"));
        assert!(prom.contains("c_time_seconds_bucket{le=\"0.001\"} 2"));
        assert!(prom.contains("c_time_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(prom.contains("c_time_seconds_count 3"));
    }

    #[test]
    fn non_finite_gauges_scrape_as_prometheus_literals() {
        let rec = Recorder::new();
        rec.gauge("g.nan").set(f64::NAN);
        rec.gauge("g.pos").set(f64::INFINITY);
        rec.gauge("g.neg").set(f64::NEG_INFINITY);
        let prom = rec.snapshot().to_prometheus();
        for line in ["g_nan NaN", "g_pos +Inf", "g_neg -Inf"] {
            assert!(prom.lines().any(|l| l == line), "missing `{line}` in:\n{prom}");
        }
    }

    #[test]
    fn prometheus_escapes_hostile_label_values() {
        let rec = Recorder::new();
        // Hostile template text: embedded quotes, a backslash escape, and
        // a newline — any of which would corrupt the line-oriented format
        // if emitted raw.
        let sql = "SELECT \"name\\id\" FROM t\nWHERE x = 'a\"b'";
        rec.counter_labeled("quarantine.rejected", &[("template", sql)]).add(7);
        let prom = rec.snapshot().to_prometheus();
        assert!(prom.contains("# TYPE quarantine_rejected counter"));
        let series = prom
            .lines()
            .find(|l| l.starts_with("quarantine_rejected{"))
            .expect("labeled series emitted");
        assert_eq!(
            series,
            "quarantine_rejected{template=\"SELECT \\\"name\\\\id\\\" FROM t\\nWHERE \
             x = 'a\\\"b'\"} 7"
        );
        // The hostile value stays on one physical line.
        assert!(!series.contains('\n'));
    }

    #[test]
    fn prometheus_groups_labeled_families_under_one_type_line() {
        let rec = Recorder::new();
        rec.counter_labeled("dumps", &[("reason", "diverged")]).inc();
        rec.counter_labeled("dumps", &[("reason", "degraded")]).add(2);
        // Sorts between "dumps" and "dumps{" — must not split the family.
        rec.counter("dumps_total").add(3);
        let prom = rec.snapshot().to_prometheus();
        assert_eq!(prom.matches("# TYPE dumps counter").count(), 1);
        assert!(prom.contains("dumps{reason=\"degraded\"} 2"));
        assert!(prom.contains("dumps{reason=\"diverged\"} 1"));
        assert!(prom.contains("# TYPE dumps_total counter"));
    }

    #[test]
    fn prometheus_labeled_histogram_merges_le_label() {
        let rec = Recorder::new();
        let key = crate::labeled_name("fit", &[("horizon", "1h")]);
        let h = rec.histogram_with_bounds(&key, &[1_000]);
        h.record(Duration::from_nanos(10));
        let prom = rec.snapshot().to_prometheus();
        assert!(prom.contains("# TYPE fit_seconds histogram"));
        assert!(prom.contains("fit_seconds_bucket{horizon=\"1h\",le=\"0.000001\"} 1"));
        assert!(prom.contains("fit_seconds_bucket{horizon=\"1h\",le=\"+Inf\"} 1"));
        assert!(prom.contains("fit_seconds_count{horizon=\"1h\"} 1"));
    }

    #[test]
    fn escape_label_value_round_trips_plain_text() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    }

    #[test]
    fn deterministic_view_excludes_durations() {
        let a = sample();
        let mut b = a.clone();
        // Perturb only timing data: the view must not change.
        if let Some(h) = b.histograms.get_mut("c.time") {
            h.sum_nanos += 12345;
            h.buckets = vec![0, 2, 1];
        }
        assert_eq!(a.deterministic_view(), b.deterministic_view());
        // But a count change must show.
        if let Some(h) = b.histograms.get_mut("c.time") {
            h.count += 1;
        }
        assert_ne!(a.deterministic_view(), b.deterministic_view());
    }

    #[test]
    fn render_table_mentions_every_metric() {
        let table = sample().render_table();
        assert!(table.contains("a.count"));
        assert!(table.contains("b.ratio"));
        assert!(table.contains("c.time"));
    }

    fn hist(bounds: &[u64], buckets: &[u64]) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds_nanos: bounds.to_vec(),
            buckets: buckets.to_vec(),
            sum_nanos: 0,
            count: buckets.iter().sum(),
        }
    }

    #[test]
    fn quantile_empty_histogram_is_none() {
        assert_eq!(HistogramSnapshot::default().quantile_nanos(0.5), None);
        assert_eq!(hist(&[1_000], &[0, 0]).quantile_nanos(0.99), None);
    }

    #[test]
    fn quantile_exact_boundary_returns_the_bound() {
        // One observation per bucket: the 1/3-quantile rank lands exactly
        // on the first bucket's upper edge.
        let h = hist(&[1_000, 1_000_000], &[1, 1, 1]);
        assert_eq!(h.quantile_nanos(1.0 / 3.0), Some(1_000.0));
        assert_eq!(h.quantile_nanos(2.0 / 3.0), Some(1_000_000.0));
    }

    #[test]
    fn quantile_interpolates_within_a_bucket() {
        // All 4 observations in the (1000, 2000] bucket: p50's rank (2 of
        // 4) sits halfway through it.
        let h = hist(&[1_000, 2_000], &[0, 4, 0]);
        assert_eq!(h.quantile_nanos(0.5), Some(1_500.0));
        assert_eq!(h.quantile_nanos(0.25), Some(1_250.0));
        assert_eq!(h.quantile_nanos(1.0), Some(2_000.0));
        // First bucket interpolates from an implicit lower bound of 0.
        let low = hist(&[1_000], &[2, 0]);
        assert_eq!(low.quantile_nanos(0.5), Some(500.0));
    }

    #[test]
    fn quantile_overflow_bucket_clamps_to_last_finite_bound() {
        let h = hist(&[1_000, 1_000_000], &[0, 0, 5]);
        assert_eq!(h.quantile_nanos(0.99), Some(1_000_000.0));
        // A histogram that is nothing but an overflow bucket has no
        // finite bound to report.
        assert_eq!(hist(&[], &[3]).quantile_nanos(0.5), None);
    }

    #[test]
    fn diff_yields_counter_and_bucket_increments() {
        let rec = Recorder::new();
        let c = rec.counter("a.count");
        let g = rec.gauge("b.level");
        let h = rec.histogram_with_bounds("c.time", &[1_000]);
        c.add(3);
        g.set(1.5);
        h.record(Duration::from_nanos(10));
        let before = rec.snapshot();
        c.add(2);
        g.set(9.0);
        h.record(Duration::from_micros(5));
        let after = rec.snapshot();
        let delta = after.diff(&before);
        assert_eq!(delta.counters.get("a.count"), Some(&2));
        assert_eq!(delta.gauges.get("b.level"), Some(&9.0), "gauges carry levels, not diffs");
        let hd = &delta.histograms["c.time"];
        assert_eq!(hd.count, 1);
        assert_eq!(hd.buckets, vec![0, 1]);
        // A quiet round drops unchanged series entirely.
        let quiet = after.diff(&after);
        assert!(quiet.counters.is_empty());
        assert!(quiet.histograms.is_empty());
        assert!(!quiet.gauges.is_empty(), "gauge levels persist across quiet rounds");
    }

    #[test]
    fn diff_saturates_across_a_registry_restart() {
        let mut prev = MetricsSnapshot::default();
        prev.counters.insert("a".into(), 100);
        let mut cur = MetricsSnapshot::default();
        cur.counters.insert("a".into(), 10); // restarted: went backwards
        cur.counters.insert("b".into(), 0); // new, still zero
        let delta = cur.diff(&prev);
        assert_eq!(delta.counters.get("a"), None, "zero increment on a known counter drops");
        assert_eq!(delta.counters.get("b"), Some(&0), "new counters appear even at zero");
    }

    #[test]
    fn mean_millis() {
        let h = HistogramSnapshot {
            bounds_nanos: vec![],
            buckets: vec![2],
            sum_nanos: 4_000_000,
            count: 2,
        };
        assert_eq!(h.mean_millis(), 2.0);
        assert_eq!(HistogramSnapshot::default().mean_millis(), 0.0);
    }
}
