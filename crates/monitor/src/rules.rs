//! The declarative SLO/alert rules engine.
//!
//! An [`AlertRule`] names a [`Condition`] over the metrics history plus
//! hysteresis: the condition must hold for [`AlertRule::for_rounds`]
//! consecutive rounds before the alert fires, and stay clean for
//! [`AlertRule::clear_rounds`] consecutive rounds before it resolves —
//! so a single noisy round neither pages nor un-pages anyone.
//!
//! [`AlertEngine::evaluate`] runs once per controller round against the
//! [`MetricsHistory`] ring. Evaluation is deterministic: rules are walked
//! in declaration order, every condition folds deterministic round
//! deltas, and each transition appends one line to a byte-stable log
//! ([`AlertEngine::transition_log`]) with float observations rendered as
//! exact bit patterns — the invariant the simulation harness pins across
//! worker-pool widths.
//!
//! Transitions are also causally linked into the flight recorder: firing
//! records an [`EventKind::AlertFired`] event whose parents are the
//! evidence events of the violating round (so `TraceView::explain`
//! resolves an alert back to the forecasts that tripped it), and
//! resolution parents an [`EventKind::AlertResolved`] on the firing
//! event.

use std::fmt;

use qb_trace::{EventDraft, EventId, EventKind, Tracer};

use crate::history::MetricsHistory;

/// How loudly a violated rule should page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: worth a dashboard row, not a page.
    Info,
    /// Degraded but serving: investigate during business hours.
    Warning,
    /// SLO violation in progress: page now.
    Critical,
}

impl Severity {
    /// Stable lowercase name (exposition + trace payloads).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A predicate over the metrics history, evaluated once per round.
///
/// Every variant reads the newest `window` rounds of the ring. Missing
/// metrics evaluate as *clean* — except [`Condition::Absent`], whose whole
/// point is to notice silence (it additionally waits until the ring has
/// retained a full window, so a cold start is not mistaken for a stall).
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// Mean gauge level over the window exceeds `above` (threshold rule;
    /// with a `forecast.mse.h*` gauge this is the forecast-quality band).
    GaugeAbove { gauge: String, above: f64, window: usize },
    /// Mean gauge level over the window sits below `below`.
    GaugeBelow { gauge: String, below: f64, window: usize },
    /// Gauge moved by more than `by` (absolute) across the window
    /// (rate-of-change rule).
    ChangeAbove { gauge: String, by: f64, window: usize },
    /// Counter increments per round over the window exceed `per_round`.
    RateAbove { counter: String, per_round: f64, window: usize },
    /// Counter saw no increment for a full retained window (absence
    /// rule — e.g. no rounds, no ingest, no publications).
    Absent { counter: String, window: usize },
    /// Increments of `numerator` exceed `above` × increments of
    /// `denominator` over the window (spike-ratio rule — e.g.
    /// quarantined vs ingested statements). Clean while the denominator
    /// saw no increments.
    RatioAbove { numerator: String, denominator: String, above: f64, window: usize },
    /// The `q`-quantile of the histogram's merged window increments
    /// exceeds `budget_nanos` (latency-budget rule). Note: observed
    /// durations are wall time, so this condition is *not* deterministic
    /// across machines — keep it out of bit-identity harnesses.
    QuantileAbove { histogram: String, q: f64, budget_nanos: f64, window: usize },
}

impl Condition {
    /// Evaluates against the history: `(violated, observed value)`.
    /// The observed value is what the alert reports (gauge mean, rate,
    /// ratio, quantile, …) and lands in the trace payload bit-for-bit.
    pub fn probe(&self, history: &MetricsHistory) -> (bool, f64) {
        match self {
            Condition::GaugeAbove { gauge, above, window } => {
                match history.gauge_mean(gauge, *window) {
                    Some(mean) => (mean > *above, mean),
                    None => (false, 0.0),
                }
            }
            Condition::GaugeBelow { gauge, below, window } => {
                match history.gauge_mean(gauge, *window) {
                    Some(mean) => (mean < *below, mean),
                    None => (false, 0.0),
                }
            }
            Condition::ChangeAbove { gauge, by, window } => {
                match history.gauge_change(gauge, *window) {
                    Some(change) => (change.abs() > *by, change),
                    None => (false, 0.0),
                }
            }
            Condition::RateAbove { counter, per_round, window } => {
                match history.counter_rate(counter, *window) {
                    Some(rate) => (rate > *per_round, rate),
                    None => (false, 0.0),
                }
            }
            Condition::Absent { counter, window } => {
                if history.len() < *window {
                    return (false, 0.0);
                }
                let inc = history.counter_increase(counter, *window);
                (inc == 0, inc as f64)
            }
            Condition::RatioAbove { numerator, denominator, above, window } => {
                let den = history.counter_increase(denominator, *window);
                if den == 0 {
                    return (false, 0.0);
                }
                let ratio = history.counter_increase(numerator, *window) as f64 / den as f64;
                (ratio > *above, ratio)
            }
            Condition::QuantileAbove { histogram, q, budget_nanos, window } => {
                match history.histogram_window(histogram, *window).and_then(|h| h.quantile_nanos(*q))
                {
                    Some(v) => (v > *budget_nanos, v),
                    None => (false, 0.0),
                }
            }
        }
    }

    /// The metric name the condition watches (trace payloads, dashboard).
    pub fn metric(&self) -> &str {
        match self {
            Condition::GaugeAbove { gauge, .. }
            | Condition::GaugeBelow { gauge, .. }
            | Condition::ChangeAbove { gauge, .. } => gauge,
            Condition::RateAbove { counter, .. } | Condition::Absent { counter, .. } => counter,
            Condition::RatioAbove { numerator, .. } => numerator,
            Condition::QuantileAbove { histogram, .. } => histogram,
        }
    }
}

/// One declarative SLO: a named, severity-tagged condition with
/// hysteresis windows.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Stable rule name (exposition label, trace payload, log lines).
    pub name: String,
    pub severity: Severity,
    pub condition: Condition,
    /// Consecutive violating rounds before the alert fires (min 1).
    pub for_rounds: usize,
    /// Consecutive clean rounds before a firing alert resolves (min 1).
    pub clear_rounds: usize,
}

impl AlertRule {
    /// A rule firing after one violating round and clearing after one
    /// clean round — tighten with [`AlertRule::for_rounds`] /
    /// [`AlertRule::clear_rounds`] via struct update.
    pub fn new(name: &str, severity: Severity, condition: Condition) -> Self {
        Self { name: name.to_string(), severity, condition, for_rounds: 1, clear_rounds: 1 }
    }

    /// Sets the firing hysteresis window.
    pub fn for_rounds(mut self, rounds: usize) -> Self {
        self.for_rounds = rounds.max(1);
        self
    }

    /// Sets the clearing hysteresis window.
    pub fn clear_rounds(mut self, rounds: usize) -> Self {
        self.clear_rounds = rounds.max(1);
        self
    }
}

/// A currently-firing alert, as surfaced through `PipelineHealth` and the
/// `/alerts` endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveAlert {
    /// The violated rule's name.
    pub rule: String,
    pub severity: Severity,
    /// First round of the violating streak that fired the alert.
    pub since_round: u64,
    /// Round the alert transitioned to firing.
    pub fired_round: u64,
    /// Observed value at fire time (gauge mean, rate, ratio, …).
    pub value: f64,
    /// Trace events of the evidence window at fire time — feed any of
    /// them (or `fired_event`) to `TraceView::explain` for lineage.
    pub evidence: Vec<EventId>,
    /// The [`EventKind::AlertFired`] trace event, when tracing is on.
    pub fired_event: Option<EventId>,
}

/// One firing/resolved transition, in evaluation order.
#[derive(Debug, Clone, PartialEq)]
pub enum AlertChange {
    Fired(ActiveAlert),
    Resolved {
        rule: String,
        severity: Severity,
        /// Round the resolution happened.
        at_round: u64,
        /// Rounds the alert spent firing (fire round inclusive).
        rounds_active: u64,
    },
}

/// Per-rule hysteresis state.
#[derive(Debug, Clone, Default)]
struct RuleState {
    violating_streak: usize,
    clean_streak: usize,
    firing: Option<ActiveAlert>,
}

/// Evaluates a fixed rule set once per round, tracking hysteresis and
/// emitting typed transitions, trace events, and a byte-stable log.
#[derive(Debug, Clone)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    states: Vec<RuleState>,
    log: Vec<String>,
}

impl AlertEngine {
    /// An engine over `rules`, all quiet.
    pub fn new(rules: Vec<AlertRule>) -> Self {
        let states = vec![RuleState::default(); rules.len()];
        Self { rules, states, log: Vec::new() }
    }

    /// The configured rules, in evaluation order.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Evaluates every rule against the history for `round`. `evidence`
    /// carries the round's trace events (forecast blends, publications);
    /// alerts that fire this round adopt them as causal parents.
    pub fn evaluate(
        &mut self,
        round: u64,
        history: &MetricsHistory,
        evidence: &[EventId],
        tracer: &Tracer,
    ) -> Vec<AlertChange> {
        let mut changes = Vec::new();
        for (rule, state) in self.rules.iter().zip(&mut self.states) {
            let (violated, value) = rule.condition.probe(history);
            if violated {
                state.violating_streak += 1;
                state.clean_streak = 0;
            } else {
                state.clean_streak += 1;
                state.violating_streak = 0;
            }
            if state.firing.is_none() && state.violating_streak >= rule.for_rounds {
                let since_round = round + 1 - rule.for_rounds as u64;
                let fired_event = record_fired(tracer, rule, round, since_round, value, evidence);
                let alert = ActiveAlert {
                    rule: rule.name.clone(),
                    severity: rule.severity,
                    since_round,
                    fired_round: round,
                    value,
                    evidence: evidence.to_vec(),
                    fired_event,
                };
                self.log.push(format!(
                    "round={round} fired rule={} severity={} metric={} value_bits={:#018x} since={since_round}",
                    rule.name,
                    rule.severity,
                    rule.condition.metric(),
                    value.to_bits(),
                ));
                state.firing = Some(alert.clone());
                changes.push(AlertChange::Fired(alert));
            } else if state.clean_streak >= rule.clear_rounds {
                if let Some(alert) = state.firing.take() {
                    let rounds_active = round + 1 - alert.fired_round;
                    if tracer.is_enabled() {
                        tracer.record(
                            EventDraft::new(EventKind::AlertResolved)
                                .text("rule", &rule.name)
                                .text("severity", rule.severity.as_str())
                                .uint("round", round)
                                .uint("rounds_active", rounds_active)
                                .parent_opt(alert.fired_event),
                        );
                    }
                    self.log.push(format!(
                        "round={round} resolved rule={} severity={} active_rounds={rounds_active}",
                        rule.name, rule.severity,
                    ));
                    changes.push(AlertChange::Resolved {
                        rule: rule.name.clone(),
                        severity: rule.severity,
                        at_round: round,
                        rounds_active,
                    });
                }
            }
        }
        changes
    }

    /// Currently-firing alerts, in rule declaration order.
    pub fn active(&self) -> Vec<ActiveAlert> {
        self.states.iter().filter_map(|s| s.firing.clone()).collect()
    }

    /// Every firing/resolved transition so far, one byte-stable line per
    /// transition (float observations as exact bit patterns). Two runs of
    /// the same deterministic workload must produce identical logs
    /// regardless of worker-pool width.
    pub fn transition_log(&self) -> &[String] {
        &self.log
    }
}

/// Records the [`EventKind::AlertFired`] event: first evidence id as the
/// causal parent, the rest as references (the fan-in shape the blend and
/// publication events use).
fn record_fired(
    tracer: &Tracer,
    rule: &AlertRule,
    round: u64,
    since_round: u64,
    value: f64,
    evidence: &[EventId],
) -> Option<EventId> {
    if !tracer.is_enabled() {
        return None;
    }
    let mut draft = EventDraft::new(EventKind::AlertFired)
        .text("rule", &rule.name)
        .text("severity", rule.severity.as_str())
        .text("metric", rule.condition.metric())
        .float("value", value)
        .uint("round", round)
        .uint("since_round", since_round);
    let mut ids = evidence.iter();
    if let Some(&first) = ids.next() {
        draft = draft.parent(first);
    }
    for &id in ids {
        draft = draft.reference(id);
    }
    tracer.record(draft)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qb_obs::Recorder;

    fn observe(h: &mut MetricsHistory, round: u64, rec: &Recorder) {
        h.observe(round, &rec.snapshot());
    }

    #[test]
    fn threshold_rule_fires_and_resolves_with_hysteresis() {
        let rec = Recorder::new();
        let g = rec.gauge("mse");
        let mut h = MetricsHistory::new(16);
        let mut engine = AlertEngine::new(vec![AlertRule::new(
            "mse-band",
            Severity::Critical,
            Condition::GaugeAbove { gauge: "mse".into(), above: 1.0, window: 1 },
        )
        .for_rounds(2)
        .clear_rounds(2)]);
        let tracer = Tracer::disabled();

        // Round 1: first violation — hysteresis holds fire.
        g.set(5.0);
        observe(&mut h, 1, &rec);
        assert!(engine.evaluate(1, &h, &[], &tracer).is_empty());
        assert!(engine.active().is_empty());

        // Round 2: second consecutive violation — fires, since=1.
        observe(&mut h, 2, &rec);
        let changes = engine.evaluate(2, &h, &[], &tracer);
        assert_eq!(changes.len(), 1);
        let AlertChange::Fired(alert) = &changes[0] else { panic!("expected fire") };
        assert_eq!((alert.since_round, alert.fired_round), (1, 2));
        assert_eq!(alert.value, 5.0);
        assert_eq!(engine.active().len(), 1);

        // Rounds 3–4: one clean round is not enough to resolve.
        g.set(0.1);
        observe(&mut h, 3, &rec);
        assert!(engine.evaluate(3, &h, &[], &tracer).is_empty());
        assert_eq!(engine.active().len(), 1);
        observe(&mut h, 4, &rec);
        let changes = engine.evaluate(4, &h, &[], &tracer);
        assert!(matches!(&changes[0], AlertChange::Resolved { rounds_active: 3, .. }));
        assert!(engine.active().is_empty());

        // The byte-stable log captured both transitions with value bits.
        let log = engine.transition_log();
        assert_eq!(log.len(), 2);
        assert!(log[0].contains("fired rule=mse-band"));
        assert!(log[0].contains(&format!("value_bits={:#018x}", 5.0f64.to_bits())));
        assert!(log[1].contains("resolved rule=mse-band"));
    }

    #[test]
    fn absence_rule_waits_for_a_full_window() {
        let rec = Recorder::new();
        let c = rec.counter("rounds");
        c.inc(); // registered, but will go quiet
        let mut h = MetricsHistory::new(8);
        let mut engine = AlertEngine::new(vec![AlertRule::new(
            "stalled",
            Severity::Warning,
            Condition::Absent { counter: "rounds".into(), window: 3 },
        )]);
        let tracer = Tracer::disabled();
        observe(&mut h, 1, &rec); // carries the initial increment
        assert!(engine.evaluate(1, &h, &[], &tracer).is_empty(), "window not yet full");
        observe(&mut h, 2, &rec);
        assert!(engine.evaluate(2, &h, &[], &tracer).is_empty());
        observe(&mut h, 3, &rec);
        // Window full but round 1's increment is inside it — still clean.
        assert!(engine.evaluate(3, &h, &[], &tracer).is_empty());
        observe(&mut h, 4, &rec);
        let changes = engine.evaluate(4, &h, &[], &tracer);
        assert!(matches!(&changes[0], AlertChange::Fired(a) if a.rule == "stalled"));
        // Activity resumes: resolves after one clean round.
        c.inc();
        observe(&mut h, 5, &rec);
        assert!(matches!(&engine.evaluate(5, &h, &[], &tracer)[0], AlertChange::Resolved { .. }));
    }

    #[test]
    fn ratio_rule_spikes_on_quarantine_share() {
        let rec = Recorder::new();
        let bad = rec.counter("quarantined");
        let all = rec.counter("ingested");
        let mut h = MetricsHistory::new(8);
        let mut engine = AlertEngine::new(vec![AlertRule::new(
            "quarantine-spike",
            Severity::Warning,
            Condition::RatioAbove {
                numerator: "quarantined".into(),
                denominator: "ingested".into(),
                above: 0.5,
                window: 2,
            },
        )]);
        let tracer = Tracer::disabled();
        all.add(100);
        observe(&mut h, 1, &rec);
        assert!(engine.evaluate(1, &h, &[], &tracer).is_empty());
        bad.add(80);
        all.add(20);
        observe(&mut h, 2, &rec);
        let changes = engine.evaluate(2, &h, &[], &tracer);
        let AlertChange::Fired(alert) = &changes[0] else { panic!("expected fire") };
        assert_eq!(alert.value, 80.0 / 120.0);
    }

    #[test]
    fn fired_alert_links_evidence_into_the_trace() {
        let rec = Recorder::new();
        let g = rec.gauge("mse");
        let tracer = Tracer::enabled();
        tracer.begin_round(0);
        let blend = tracer
            .record(EventDraft::new(EventKind::ForecastBlended).uint("clusters", 2))
            .expect("enabled tracer records");
        let publish = tracer
            .record(EventDraft::new(EventKind::SnapshotPublished).uint("epoch", 1))
            .expect("enabled tracer records");
        let mut h = MetricsHistory::new(4);
        let mut engine = AlertEngine::new(vec![AlertRule::new(
            "mse-band",
            Severity::Critical,
            Condition::GaugeAbove { gauge: "mse".into(), above: 1.0, window: 1 },
        )]);
        g.set(9.0);
        h.observe(1, &rec.snapshot());
        let changes = engine.evaluate(1, &h, &[blend, publish], &tracer);
        let AlertChange::Fired(alert) = &changes[0] else { panic!("expected fire") };
        assert_eq!(alert.evidence, vec![blend, publish]);
        let fired = alert.fired_event.expect("traced");
        let view = tracer.view();
        let lineage = view.explain(fired);
        assert!(lineage.contains("ForecastBlended"), "{lineage}");
        // Resolution parents back on the firing event.
        g.set(0.0);
        h.observe(2, &rec.snapshot());
        engine.evaluate(2, &h, &[], &tracer);
        let view = tracer.view();
        let resolved = view.latest(EventKind::AlertResolved).expect("resolution traced");
        assert_eq!(resolved.parent, Some(fired));
        assert!(view.explain(resolved.id).contains("AlertFired"));
    }
}
