//! Metric definitions and every record format the benchmark writes: the
//! `workload metric value unit n` lines, the per-run JSON record, the
//! driver's result line, and `BENCHMARK.json` itself.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats;
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher }
}

pub const SETUP_S: &str = "setup_s";

/// What a user of the forecasting loop sees; every workload reports each
/// one from its untraced run.
pub const END_TO_END: [MetricDef; 5] = [
    lower(SETUP_S, "s"),
    higher("loop_stmts_per_s", "statements/s"),
    higher("ingest_stmts_per_s", "statements/s"),
    lower("round_mean_ms", "ms"),
    lower("peak_rss_mb", "MiB"),
];

/// Single-layer metrics from the traced run (layer = crate name; `core`
/// and `manager` are `qb5000`'s pipeline and `ForecastManager`). A metric
/// a workload does not exercise reads 0 there.
pub const PER_LAYER: [MetricDef; 81] = [
    higher("workloads.gen_stmts_per_s", "1/s"),
    lower("sqlparse.parse_us_per_stmt", "us"),
    lower("preprocessor.templatize_us_per_stmt", "us"),
    lower("preprocessor.ingest_seq_us_per_stmt", "us"),
    lower("preprocessor.ingest_batch_us_per_stmt", "us"),
    lower("preprocessor.ingest_batch_w1_us_per_stmt", "us"),
    lower("preprocessor.new_template_us_p50", "us"),
    lower("preprocessor.templates", "count"),
    lower("preprocessor.quarantined", "count"),
    lower("parallel.map_overhead_us", "us"),
    higher("core.rounds", "count"),
    higher("core.statements", "count"),
    lower("core.measured_wall_s", "s"),
    lower("core.speed_factor", "ratio"),
    lower("core.wall_setup_s", "s"),
    higher("core.wall_loop_stmts_per_s", "statements/s"),
    higher("core.wall_ingest_stmts_per_s", "statements/s"),
    lower("core.wall_round_mean_ms", "ms"),
    lower("core.round_ms_p50", "ms"),
    lower("core.round_ms_p90", "ms"),
    lower("core.ingest_busy_s", "s"),
    lower("core.ingest_tick_us_p50", "us"),
    lower("core.ingest_tick_us_p99", "us"),
    lower("core.ingest_overhead_us_per_stmt", "us"),
    lower("core.shift_triggers", "count"),
    lower("core.shift_rebuild_s", "s"),
    lower("core.update_clusters_busy_s", "s"),
    lower("core.update_clusters_ms_p50", "ms"),
    lower("core.update_clusters_ms_p90", "ms"),
    lower("core.update_clusters_self_s", "s"),
    lower("core.predicted_workload_us_p50", "us"),
    lower("clusterer.update_s", "s"),
    lower("clusterer.kdtree_build_s", "s"),
    lower("clusterer.assign_s", "s"),
    lower("clusterer.merge_s", "s"),
    lower("clusterer.clusters", "count"),
    lower("manager.ensure_trained_busy_s", "s"),
    lower("manager.retrain_ms_p50", "ms"),
    lower("manager.retrain_ms_p90", "ms"),
    lower("manager.retrains", "count"),
    lower("manager.retrain_ratio", "ratio"),
    lower("manager.predict_us_p50", "us"),
    lower("forecast.fit_lr_ms", "ms"),
    lower("forecast.fit_kr_ms", "ms"),
    lower("forecast.fit_rnn_ms", "ms"),
    lower("forecast.fit_hybrid_ms", "ms"),
    lower("forecast.fit_h0_s", "s"),
    lower("forecast.fit_h1_s", "s"),
    lower("linalg.matvec_ns", "ns"),
    lower("linalg.gram_us", "us"),
    lower("linalg.cholesky_solve_us", "us"),
    lower("serve.publish_us_p50", "us"),
    lower("serve.publish_us_p90", "us"),
    lower("serve.publishes", "count"),
    lower("serve.publish_obs_mean_us", "us"),
    lower("serve.visible_check_ns_p50", "ns"),
    higher("serve.reads_per_s", "1/s"),
    lower("serve.read_p50_ns", "ns"),
    lower("serve.read_p99_ns", "ns"),
    lower("serve.read_topk_ns_p50", "ns"),
    lower("serve.read_cluster_ns_p50", "ns"),
    lower("serve.read_template_ns_p50", "ns"),
    higher("serve.reader_epochs_seen", "count"),
    lower("serve.read_miss_ratio", "ratio"),
    lower("dbsim.advisor_select_ms_p50", "ms"),
    lower("dbsim.advisor_statements", "count"),
    lower("dbsim.estimate_cost_us", "us"),
    lower("durable.ingest_tick_us_p50", "us"),
    lower("durable.wal_bytes_per_stmt", "bytes"),
    lower("durable.wal_sighting_us_p50", "us"),
    lower("durable.snapshot_p50_ms", "ms"),
    lower("durable.snapshot_bytes", "bytes"),
    lower("durable.recovery_ms", "ms"),
    lower("durable.recovery_snapshot_ms", "ms"),
    lower("durable.recovery_replay_ms", "ms"),
    lower("durable.frames_replayed", "count"),
    lower("monitor.observe_round_us_p50", "us"),
    lower("trace.spans", "count"),
    lower("trace.unattributed_s", "s"),
    lower("trace.unattributed_pct", "%"),
    lower("trace.overhead_pct", "%"),
];

/// Per-layer metrics the traced run copies from the untraced run it is
/// paired with: they are end-to-end quantities of one workload (reads on
/// `serve_mixed`, snapshot and recovery on `durable_bus`), and end-to-end
/// numbers come from the untraced run.
pub const FROM_UNTRACED: [&str; 5] = [
    "serve.reads_per_s",
    "serve.read_p50_ns",
    "serve.read_p99_ns",
    "durable.snapshot_p50_ms",
    "durable.recovery_ms",
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|d| d.name == name).map_or("", |d| d.unit)
}

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    pub n: u64,
}

/// Metric name → value, in the order first set.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(&'static str, Value)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, n: u64) {
        debug_assert!(!unit_of(name).is_empty(), "metric {name} is not declared");
        let value = Value { value, n };
        match self.0.iter_mut().find(|(existing, _)| *existing == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<Value> {
        self.0.iter().find(|(existing, _)| *existing == name).map(|&(_, v)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Value)> + '_ {
        self.0.iter().copied()
    }
}

/// A timing series as the records print it: median plus the highest
/// percentile with at least ten samples beyond it, and the sample count.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: stats::Summary,
}

impl Timing {
    pub fn of(name: &'static str, unit: &'static str, sorted: &[f64]) -> Self {
        Self { name, unit, summary: stats::summarize(sorted) }
    }

    fn tail_text(&self) -> String {
        match self.summary.tail {
            Some((p, value)) => format!(" p{} {value}", 100.0 * p),
            None => String::new(),
        }
    }
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct Record {
    pub workload: &'static str,
    pub traced: bool,
    pub seed: u64,
    pub seconds: f64,
    pub commit: String,
    pub rustc: String,
    pub nproc: usize,
    pub pool_width: usize,
    pub rounds: u32,
    pub statements: u64,
    pub weighted_arrivals: u64,
    pub state_digest: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; empty on a correct run.
    pub check_failures: Vec<String>,
    pub metrics: Metrics,
    pub timings: Vec<Timing>,
    /// Cumulative measured time (reference-machine seconds) after each
    /// round, for same-work comparison of a traced run against its
    /// untraced pair.
    pub cumulative_ref_s: Vec<f64>,
}

impl Record {
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// `workload metric value unit n`, one metric per line, after one
    /// `# timing` line per timing series.
    pub fn metric_lines(&self) -> String {
        let mut out = String::new();
        for t in self.timings.iter().filter(|t| t.summary.n > 0) {
            let _ = writeln!(
                out,
                "# timing {} {} {} n {} p50 {}{}",
                self.workload,
                t.name,
                t.unit,
                t.summary.n,
                t.summary.p50,
                t.tail_text()
            );
        }
        for (name, v) in self.metrics.iter() {
            let _ =
                writeln!(out, "{} {} {} {} {}", self.workload, name, v.value, unit_of(name), v.n);
        }
        out
    }

    /// The metric lines plus the `#`-prefixed facts a paired traced run
    /// needs back: the digest and the cumulative wall per round.
    pub fn baseline_text(&self) -> String {
        let mut out = self.metric_lines();
        let _ = writeln!(out, "# state_digest {:016x}", self.state_digest);
        out.push_str("# cumulative_ref_s");
        for w in &self.cumulative_ref_s {
            let _ = write!(out, " {w}");
        }
        out.push('\n');
        out
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"workload\":{},\"mode\":{},\"seed\":{},\"seconds\":{},\"commit\":{},\"rustc\":{},\
             \"nproc\":{},\"pool_width\":{},\"rounds\":{},\"statements\":{},\
             \"weighted_arrivals\":{},\"state_digest\":\"{:016x}\",\"correct\":{},\
             \"attempted\":{},\"failed\":{},\"check_failures\":[",
            json_string(self.workload),
            json_string(if self.traced { "traced" } else { "untraced" }),
            self.seed,
            json_number(self.seconds),
            json_string(&self.commit),
            json_string(&self.rustc),
            self.nproc,
            self.pool_width,
            self.rounds,
            self.statements,
            self.weighted_arrivals,
            self.state_digest,
            self.correct(),
            self.attempted,
            self.failed,
        );
        let failures: Vec<String> = self.check_failures.iter().map(|f| json_string(f)).collect();
        out.push_str(&failures.join(","));
        out.push_str("],\"timings\":[");
        let timings: Vec<String> = self
            .timings
            .iter()
            .filter(|t| t.summary.n > 0)
            .map(|t| {
                let tail = match t.summary.tail {
                    Some((p, value)) => {
                        format!(
                            ",\"tail_percentile\":{},\"tail\":{}",
                            100.0 * p,
                            json_number(value)
                        )
                    }
                    None => String::new(),
                };
                format!(
                    "{{\"name\":{},\"unit\":{},\"n\":{},\"p50\":{}{tail}}}",
                    json_string(t.name),
                    json_string(t.unit),
                    t.summary.n,
                    json_number(t.summary.p50)
                )
            })
            .collect();
        out.push_str(&timings.join(","));
        out.push_str("],\"metrics\":{");
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{},\"n\":{}}}",
                    json_string(name),
                    json_number(v.value),
                    json_string(unit_of(name)),
                    v.n
                )
            })
            .collect();
        out.push_str(&metrics.join(","));
        out.push_str("}}");
        out
    }

    /// The driver's result line: exactly the declared metrics of the mode
    /// (end-to-end when untraced, per-layer when traced), in table order.
    pub fn result_line(&self) -> String {
        let defs: &[MetricDef] = if self.traced { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let value = self.metrics.get(d.name).map_or(0.0, |v| v.value);
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_string(d.name),
                    json_number(value),
                    json_string(d.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit measured; non-finite values (which JSON
/// cannot carry) read 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

// ---------------------------------------------------------------------------
// Reading the line format back (baseline pairing, calibration)
// ---------------------------------------------------------------------------

/// What a traced run needs from the untraced run it is paired with.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Baseline {
    pub metrics: BTreeMap<String, Value>,
    pub state_digest: Option<u64>,
    pub cumulative_ref_s: Vec<f64>,
}

pub fn parse_baseline(text: &str) -> Baseline {
    let mut baseline = Baseline::default();
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["#", "state_digest", hex] => baseline.state_digest = u64::from_str_radix(hex, 16).ok(),
            ["#", "cumulative_ref_s", rest @ ..] => {
                baseline.cumulative_ref_s = rest.iter().filter_map(|v| v.parse().ok()).collect();
            }
            [_, name, value, _, n] => {
                if let (Ok(value), Ok(n)) = (value.parse(), n.parse()) {
                    baseline.metrics.insert((*name).to_string(), Value { value, n });
                }
            }
            _ => {}
        }
    }
    baseline
}

// ---------------------------------------------------------------------------
// BENCHMARK.json and its calibration
// ---------------------------------------------------------------------------

/// The smallest bound calibration writes, and the largest the contract
/// takes.
const MIN_BOUND: f64 = 0.05;
const MAX_BOUND: f64 = 0.25;

/// Measured run-to-run noise of one end-to-end metric, worst workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Noise {
    /// Interquartile range ÷ median, as the driver computes it.
    pub iqr_share: f64,
    /// Largest gap between any two runs ÷ median.
    pub max_gap_share: f64,
    pub runs: usize,
}

impl Noise {
    /// `max(5 %, 1.5 × largest gap, 3 × quartile spread)`, capped at the
    /// contract's 25 %. Set-up time gets the cap outright.
    pub fn bound(&self, name: &str) -> f64 {
        if name == SETUP_S {
            return MAX_BOUND;
        }
        let raw = MIN_BOUND.max(1.5 * self.max_gap_share).max(3.0 * self.iqr_share);
        ((raw * 1000.0).ceil() / 1000.0).min(MAX_BOUND)
    }
}

/// Folds calibration lines (`workload metric value unit n`, several runs
/// of each workload) into per-metric noise, the worst workload deciding.
pub fn measure_noise(lines: &str) -> BTreeMap<&'static str, Noise> {
    let mut series: BTreeMap<(String, &'static str), Vec<f64>> = BTreeMap::new();
    for line in lines.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [workload, name, value, _, _] = fields.as_slice() else {
            continue;
        };
        let Some(def) = END_TO_END.iter().find(|d| d.name == *name) else {
            continue;
        };
        if let Ok(value) = value.parse::<f64>() {
            series.entry(((*workload).to_string(), def.name)).or_default().push(value);
        }
    }
    let mut noise: BTreeMap<&'static str, Noise> = BTreeMap::new();
    for ((_, name), values) in &series {
        let (Some(iqr), Some(gap)) = (stats::iqr_share(values), stats::max_gap_share(values))
        else {
            continue;
        };
        let entry = noise.entry(name).or_insert(Noise {
            iqr_share: 0.0,
            max_gap_share: 0.0,
            runs: values.len(),
        });
        entry.iqr_share = entry.iqr_share.max(iqr);
        entry.max_gap_share = entry.max_gap_share.max(gap);
        entry.runs = entry.runs.min(values.len());
    }
    noise
}

/// `BENCHMARK.json` with the given bound per end-to-end metric.
pub fn manifest(run_seconds: u32, bound_of: impl Fn(&str) -> f64) -> String {
    let mut out = String::from("{\n  \"command\": [\"bash\", \"benchmarks/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmarks\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {run_seconds},");
    out.push_str("  \"workloads\": [\n");
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!("    {{\"name\": {}, \"why\": {}}}", json_string(w.name), json_string(w.why))
        })
        .collect();
    out.push_str(&workloads.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_string(d.name),
                json_string(d.unit),
                json_string(d.better.as_str()),
                json_number(bound_of(d.name))
            )
        })
        .collect();
    out.push_str(&e2e.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(d.name),
                json_string(d.unit),
                json_string(d.better.as_str())
            )
        })
        .collect();
    out.push_str(&per_layer.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> Record {
        let mut metrics = Metrics::default();
        metrics.set("setup_s", 1.25, 3);
        metrics.set("round_mean_ms", 40.5, 120);
        metrics.set("serve.reads_per_s", 3.9e7, 1);
        Record {
            workload: "serve_mixed",
            traced: false,
            seed: 11,
            seconds: 10.0,
            commit: "abc\"def".into(),
            rustc: "rustc 1.95.0".into(),
            nproc: 2,
            pool_width: 2,
            rounds: 120,
            statements: 1000,
            weighted_arrivals: 1200,
            state_digest: 0xfeed,
            attempted: 5000,
            failed: 0,
            check_failures: vec![],
            metrics,
            timings: vec![Timing::of("round_ms", "ms", &[1.0, 2.0, 3.0])],
            cumulative_ref_s: vec![0.5, 1.0],
        }
    }

    #[test]
    fn metric_names_are_declared_once_and_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().any(|d| d.name == SETUP_S && d.unit == "s"));
        for name in FROM_UNTRACED {
            assert!(PER_LAYER.iter().any(|d| d.name == name), "{name}");
        }
    }

    #[test]
    fn baseline_round_trips_through_the_line_format() {
        let r = record();
        let parsed = parse_baseline(&r.baseline_text());
        assert_eq!(parsed.state_digest, Some(0xfeed));
        assert_eq!(parsed.cumulative_ref_s, vec![0.5, 1.0]);
        assert_eq!(parsed.metrics["round_mean_ms"], Value { value: 40.5, n: 120 });
        assert_eq!(parsed.metrics["serve.reads_per_s"].value, 3.9e7);
    }

    #[test]
    fn result_line_carries_exactly_the_modes_metrics() {
        let mut r = record();
        let line = r.result_line();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":5000,\"failed\":0,\"metrics\":{"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        assert!(line.contains("\"setup_s\":{\"value\":1.25,\"unit\":\"s\"}"));
        assert!(!line.contains("serve.reads_per_s"));
        r.traced = true;
        r.check_failures.push("digest differs".into());
        let line = r.result_line();
        assert!(line.starts_with("{\"correct\":false"));
        assert_eq!(line.matches("\"unit\"").count(), PER_LAYER.len());
        assert!(line.contains("\"serve.reads_per_s\":{\"value\":39000000,\"unit\":\"1/s\"}"));
    }

    #[test]
    fn json_record_escapes_strings_and_separates_statements_from_arrivals() {
        let json = record().to_json();
        assert!(json.contains("\"commit\":\"abc\\\"def\""));
        assert!(json.contains("\"statements\":1000,\"weighted_arrivals\":1200"));
        assert!(json.contains("\"state_digest\":\"000000000000feed\""));
        assert!(json
            .contains("\"timings\":[{\"name\":\"round_ms\",\"unit\":\"ms\",\"n\":3,\"p50\":2}]"));
        assert_eq!(json_number(f64::NAN), "0");
    }

    #[test]
    fn bounds_follow_the_worst_workloads_noise() {
        let mut lines = String::new();
        for (i, v) in [100.0, 101.0, 99.0, 100.5, 100.0].iter().enumerate() {
            lines += &format!("bus_hybrid round_mean_ms {v} ms {i}\n");
        }
        for v in [50.0, 55.0, 45.0, 52.0, 50.0] {
            lines += &format!("wide_churn round_mean_ms {v} ms 9\n");
            lines += &format!("wide_churn setup_s {v} s 3\n");
            lines += &format!("wide_churn serve.reads_per_s {v} 1/s 1\n");
        }
        let noise = measure_noise(&lines);
        assert_eq!(noise.len(), 2, "per-layer lines are ignored");
        let round = noise["round_mean_ms"];
        assert_eq!(round.runs, 5);
        assert!((round.max_gap_share - 0.2).abs() < 1e-12, "{round:?}");
        assert_eq!(round.bound("round_mean_ms"), 0.25, "3 × IQR share exceeds the cap");
        assert_eq!(noise["setup_s"].bound("setup_s"), 0.25);
        let quiet = Noise { iqr_share: 0.004, max_gap_share: 0.01, runs: 10 };
        assert_eq!(quiet.bound("round_mean_ms"), 0.05);
        let mid = Noise { iqr_share: 0.02, max_gap_share: 0.0512, runs: 10 };
        assert_eq!(mid.bound("round_mean_ms"), 0.077);
    }

    #[test]
    fn manifest_has_the_contracts_keys() {
        let text = manifest(10, |name| if name == SETUP_S { 0.25 } else { 0.1 });
        for key in ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"] {
            assert!(text.contains(&format!("\"{key}\":")), "{key}");
        }
        assert_eq!(text.matches("\"why\":").count(), 4);
        assert_eq!(text.matches("\"bound\":").count(), END_TO_END.len());
        assert!(text.contains(
            "{\"name\": \"setup_s\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.25}"
        ));
        assert!(text.len() < 64 * 1024);
    }
}
