//! Continuous self-monitoring for the forecasting pipeline: metrics
//! time-series retention, a deterministic SLO/alert engine, and a live
//! scrape endpoint.
//!
//! A self-driving DBMS cannot act on forecasts it cannot trust, so the
//! pipeline watches itself. Once per controller round the [`Monitor`]
//! ingests the pipeline's [`qb_obs::MetricsSnapshot`]:
//!
//! 1. **History** ([`MetricsHistory`]): the snapshot is diffed against
//!    the previous round and the per-round delta retained in a bounded
//!    ring keyed by round number — so retention is measured in rounds,
//!    not wall time, and is identical at any worker-pool width.
//! 2. **Rules** ([`AlertEngine`]): declarative [`AlertRule`]s (quality
//!    bands over `forecast.mse.h*`, degradation dwell, quarantine-share
//!    spikes, absence watchdogs, latency budgets) are evaluated against
//!    the history with hysteresis. Transitions are typed
//!    ([`AlertChange`]), byte-stable-logged, and causally linked into
//!    the qb-trace flight recorder so `TraceView::explain` resolves an
//!    alert back to the forecasts that tripped it.
//! 3. **Exposition** ([`exposition_text`], [`render_dashboard`],
//!    [`MonitorServer`]): each round publishes one immutable
//!    [`MonitorState`] through the qb-serve [`Swap`]; a blocking HTTP
//!    thread serves `/metrics` (Prometheus text with estimated quantile
//!    gauges), `/health`, `/alerts`, and `/dashboard` from the state it
//!    holds — scrapes are tear-free and never wait for a round's work.
//!
//! Everything except wall-time latency observations is deterministic:
//! two runs of the same workload produce bit-identical alert transition
//! streams regardless of `QB_THREADS`, which the simulation harness
//! enforces as invariant 9.

#![forbid(unsafe_code)]

pub mod expose;
pub mod history;
pub mod http;
pub mod promcheck;
pub mod rules;

use std::net::SocketAddr;
use std::sync::Arc;

use qb_obs::MetricsSnapshot;
use qb_serve::Swap;
use qb_trace::{EventId, Tracer};

pub use expose::{exposition_text, render_dashboard, QUANTILES};
pub use history::{MetricsHistory, RoundDelta};
pub use http::{MonitorServer, MonitorState};
pub use promcheck::check_prometheus;
pub use rules::{ActiveAlert, AlertChange, AlertEngine, AlertRule, Condition, Severity};

/// Rounds of per-round metric deltas a [`Monitor`] retains. The stock
/// rules look back at most 8 rounds; the rest is the dashboard's and the
/// operator's history, bounded whatever the run length.
pub const HISTORY_ROUNDS: usize = 256;

/// Configuration for a [`Monitor`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MonitorConfig {
    /// SLO rules, evaluated in declaration order each round.
    pub rules: Vec<AlertRule>,
    /// `Some(port)` serves the scrape endpoint on `127.0.0.1:port`
    /// (0 picks an ephemeral port); `None` disables HTTP entirely.
    pub http_port: Option<u16>,
}

impl MonitorConfig {
    /// The default config plus the stock deterministic SLO rule set for a
    /// pipeline forecasting `horizons` horizons:
    ///
    /// - `forecast-quality-h<i>` (critical): rolling mean of the
    ///   log-space MSE gauge `forecast.mse.h<i>` above `mse_band` for 2
    ///   consecutive rounds (4-round window), clearing after 2 clean
    ///   rounds.
    /// - `degradation-dwell-h<i>` (warning): the ladder gauge
    ///   `forecast.degradation.h<i>` sits above 0.5 (i.e. not serving
    ///   full forecasts) for 3 consecutive rounds.
    /// - `quarantine-spike` (warning): quarantined statements exceed 25%
    ///   of ingested statements over a 4-round window.
    /// - `ingest-stalled` (info): no `preprocessor.ingested_statements`
    ///   increment for 6 consecutive retained rounds.
    ///
    /// Every stock rule folds only deterministic signals (gauges and
    /// counters), so the alert stream stays bit-identical across
    /// worker-pool widths. Wall-time latency budgets are opt-in via
    /// [`MonitorConfig::with_publish_budget`].
    pub fn with_default_slos(horizons: usize, mse_band: f64) -> Self {
        let mut rules = Vec::new();
        for i in 0..horizons {
            rules.push(
                AlertRule::new(
                    &format!("forecast-quality-h{i}"),
                    Severity::Critical,
                    Condition::GaugeAbove {
                        gauge: format!("forecast.mse.h{i}"),
                        above: mse_band,
                        window: 4,
                    },
                )
                .for_rounds(2)
                .clear_rounds(2),
            );
        }
        for i in 0..horizons {
            rules.push(
                AlertRule::new(
                    &format!("degradation-dwell-h{i}"),
                    Severity::Warning,
                    Condition::GaugeAbove {
                        gauge: format!("forecast.degradation.h{i}"),
                        above: 0.5,
                        window: 1,
                    },
                )
                .for_rounds(3)
                .clear_rounds(1),
            );
        }
        rules.push(
            AlertRule::new(
                "quarantine-spike",
                Severity::Warning,
                Condition::RatioAbove {
                    numerator: "preprocessor.quarantined_statements".into(),
                    denominator: "preprocessor.ingested_statements".into(),
                    above: 0.25,
                    window: 4,
                },
            )
            .clear_rounds(2),
        );
        rules.push(AlertRule::new(
            "ingest-stalled",
            Severity::Info,
            Condition::Absent { counter: "preprocessor.ingested_statements".into(), window: 6 },
        ));
        Self { rules, ..Self::default() }
    }

    /// Adds a `serve.publish` p99 latency-budget rule. Wall-time based,
    /// so *not* deterministic — keep it out of bit-identity harnesses.
    pub fn with_publish_budget(mut self, budget_nanos: f64) -> Self {
        self.rules.push(
            AlertRule::new(
                "publish-latency-budget",
                Severity::Warning,
                Condition::QuantileAbove {
                    histogram: "serve.publish".into(),
                    q: 0.99,
                    budget_nanos,
                    window: 8,
                },
            )
            .for_rounds(2)
            .clear_rounds(2),
        );
        self
    }

    /// Replaces the rule set.
    pub fn rules(mut self, rules: Vec<AlertRule>) -> Self {
        self.rules = rules;
        self
    }

    /// Enables the HTTP scrape endpoint on `127.0.0.1:port`.
    pub fn http_port(mut self, port: u16) -> Self {
        self.http_port = Some(port);
        self
    }
}

/// The per-round orchestrator tying the layers together: observe the
/// snapshot into history, evaluate the rules, publish a fresh
/// [`MonitorState`] for the scrape endpoint.
#[derive(Debug)]
pub struct Monitor {
    history: MetricsHistory,
    engine: AlertEngine,
    state: Arc<Swap<MonitorState>>,
    server: Option<MonitorServer>,
    epoch: u64,
}

impl Monitor {
    /// Builds the monitor and, when `config.http_port` is set, binds the
    /// scrape endpoint (the only fallible step).
    pub fn new(config: MonitorConfig) -> std::io::Result<Self> {
        let state = Arc::new(Swap::new(Arc::new(MonitorState::default())));
        let server = match config.http_port {
            Some(port) => Some(MonitorServer::start(port, Arc::clone(&state))?),
            None => None,
        };
        Ok(Self {
            history: MetricsHistory::new(HISTORY_ROUNDS),
            engine: AlertEngine::new(config.rules),
            state,
            server,
            epoch: 0,
        })
    }

    /// One monitoring round: retains the snapshot's delta, evaluates
    /// every rule, publishes the resulting state, and returns the
    /// round's alert transitions. `evidence` carries the round's trace
    /// events (forecast blends, publications); alerts that fire this
    /// round adopt them as causal parents.
    pub fn observe_round(
        &mut self,
        round: u64,
        snapshot: &MetricsSnapshot,
        evidence: &[EventId],
        tracer: &Tracer,
    ) -> Vec<AlertChange> {
        self.history.observe(round, snapshot);
        let changes = self.engine.evaluate(round, &self.history, evidence, tracer);
        let alerts = self.engine.active();
        self.epoch += 1;
        self.state.publish(Arc::new(MonitorState {
            epoch: self.epoch,
            round,
            metrics: exposition_text(snapshot, &alerts),
            health: health_json(round, self.epoch, &alerts),
            alerts: alerts_json(&alerts),
            dashboard: render_dashboard(&self.history, &alerts),
        }));
        changes
    }

    /// Currently-firing alerts, in rule declaration order.
    pub fn active_alerts(&self) -> Vec<ActiveAlert> {
        self.engine.active()
    }

    /// The byte-stable alert transition log (see
    /// [`AlertEngine::transition_log`]).
    pub fn transition_log(&self) -> &[String] {
        self.engine.transition_log()
    }

    /// The transition log as one newline-joined string.
    pub fn transition_stream(&self) -> String {
        self.engine.transition_stream()
    }

    /// The retained metrics history.
    pub fn history(&self) -> &MetricsHistory {
        &self.history
    }

    /// The deterministic dashboard for the latest observed round.
    pub fn render_dashboard(&self) -> String {
        render_dashboard(&self.history, &self.engine.active())
    }

    /// The scrape endpoint's bound address, when HTTP is enabled.
    pub fn endpoint(&self) -> Option<SocketAddr> {
        self.server.as_ref().map(|s| s.addr())
    }

    /// The most recently published state (what a scrape would see).
    pub fn state(&self) -> Arc<MonitorState> {
        self.state.load()
    }
}

/// `/health` body: overall status is the loudest firing severity.
fn health_json(round: u64, epoch: u64, alerts: &[ActiveAlert]) -> String {
    let status = match alerts.iter().map(|a| a.severity).max() {
        Some(Severity::Critical) => "critical",
        Some(Severity::Warning) => "degraded",
        Some(Severity::Info) | None => "ok",
    };
    format!(
        "{{\"status\":\"{status}\",\"round\":{round},\"epoch\":{epoch},\"alerts_firing\":{}}}",
        alerts.len()
    )
}

/// JSON has no NaN/∞ literals; map them to null so the output stays
/// parseable even if an alert's value goes non-finite.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `/alerts` body: the firing set, rule order.
fn alerts_json(alerts: &[ActiveAlert]) -> String {
    let mut out = String::from("[");
    for (i, a) in alerts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"severity\":\"{}\",\"since_round\":{},\"fired_round\":{},\
             \"value\":{},\"evidence\":[{}]}}",
            a.rule,
            a.severity,
            a.since_round,
            a.fired_round,
            json_f64(a.value),
            a.evidence.iter().map(|e| e.0.to_string()).collect::<Vec<_>>().join(","),
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qb_obs::Recorder;

    #[test]
    fn default_slos_cover_quality_degradation_quarantine_and_absence() {
        let config = MonitorConfig::with_default_slos(3, -1.0).with_publish_budget(5e6);
        let names: Vec<&str> = config.rules.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"forecast-quality-h0"));
        assert!(names.contains(&"forecast-quality-h2"));
        assert!(names.contains(&"degradation-dwell-h1"));
        assert!(names.contains(&"quarantine-spike"));
        assert!(names.contains(&"ingest-stalled"));
        assert!(names.contains(&"publish-latency-budget"));
    }

    #[test]
    fn observe_round_publishes_state_and_fires_rules() {
        let rec = Recorder::new();
        let gauge = rec.gauge("forecast.mse.h0");
        let config = MonitorConfig::default().rules(vec![AlertRule::new(
            "band",
            Severity::Critical,
            Condition::GaugeAbove { gauge: "forecast.mse.h0".into(), above: 1.0, window: 1 },
        )]);
        let mut monitor = Monitor::new(config).expect("no http, cannot fail");
        let tracer = Tracer::disabled();

        gauge.set(0.5);
        assert!(monitor.observe_round(1, &rec.snapshot(), &[], &tracer).is_empty());
        let quiet = monitor.state();
        assert_eq!((quiet.epoch, quiet.round), (1, 1));
        assert!(quiet.health.contains("\"status\":\"ok\""));
        assert_eq!(quiet.alerts, "[]");
        assert_eq!(check_prometheus(&quiet.metrics), Vec::<String>::new());

        gauge.set(7.5);
        let changes = monitor.observe_round(2, &rec.snapshot(), &[], &tracer);
        assert!(matches!(&changes[0], AlertChange::Fired(a) if a.rule == "band"));
        let firing = monitor.state();
        assert_eq!(firing.epoch, 2);
        assert!(firing.health.contains("\"status\":\"critical\""));
        assert!(firing.alerts.contains("\"rule\":\"band\""));
        assert!(firing.metrics.contains("alerts_firing{severity=\"critical\"} 1"));
        assert!(firing.dashboard.contains("[critical] band"));
        assert_eq!(monitor.transition_log().len(), 1);
    }

    #[test]
    fn alerts_json_renders_non_finite_values_as_null() {
        let alert = ActiveAlert {
            rule: "band".into(),
            severity: Severity::Critical,
            since_round: 1,
            fired_round: 2,
            value: f64::NAN,
            evidence: vec![],
            fired_event: None,
        };
        let json = alerts_json(&[alert]);
        assert!(json.contains("\"value\":null"), "{json}");
        assert!(qb_trace::parse_json(&json).is_ok(), "{json}");
    }

    #[test]
    fn monitor_serves_live_state_over_http() {
        use std::io::{Read as _, Write as _};
        use std::net::TcpStream;

        let rec = Recorder::new();
        rec.counter("controller.rounds").inc();
        let mut monitor =
            Monitor::new(MonitorConfig::default().http_port(0)).expect("ephemeral bind");
        let addr = monitor.endpoint().expect("http enabled");
        let tracer = Tracer::disabled();
        monitor.observe_round(1, &rec.snapshot(), &[], &tracer);

        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("controller_rounds 1"), "{response}");
    }
}
