//! # qb-preprocessor
//!
//! The QB5000 **Pre-Processor** (§4). For every query the DBMS forwards it:
//!
//! 1. extracts the constants (WHERE-predicate values, UPDATE `SET` values,
//!    INSERT `VALUES`, batched-INSERT row counts) and replaces them with
//!    placeholders, yielding a *template*;
//! 2. normalizes spacing / case / parenthesis placement via the canonical
//!    formatter in `qb-sqlparse`;
//! 3. folds templates with equivalent *semantic features* (same tables, same
//!    predicate structure, same projections) into one tracked template;
//! 4. records the arrival-rate history per template at one-minute
//!    granularity, compacting minutes older than any reader looks into
//!    per-hour sums ([`MINUTE_RETENTION`], [`PreProcessor::keep_minutes`]);
//! 5. keeps a reservoir sample of each template's original parameters for
//!    the planning module (Vitter's Algorithm R).
//!
//! The entry points are [`PreProcessor::ingest`] for one statement and
//! [`PreProcessor::ingest_batch`] for a tick's worth. Both run the one
//! ingest engine in [`shard`]: a read-only resolve step (memo lookup, else
//! parse and templatize), on the pool for large batches, then one
//! sequential apply per statement in arrival order.

#![forbid(unsafe_code)]

pub mod fingerprint;
pub mod reservoir;
pub mod shard;
pub mod template;

use std::collections::{HashMap, VecDeque};

use qb_obs::Recorder;
use qb_sqlparse::{parse_statement, Literal, ParseError, Statement};
use qb_trace::{EventDraft, EventKind, Scope, Tracer};
use qb_timeseries::{ArrivalHistory, ArrivalHistoryState, Interval, Minute};

pub use fingerprint::{semantic_fingerprint, Fingerprint};
pub use reservoir::Reservoir;
pub use shard::{BatchItem, BatchReport};
pub use template::{bind_params, templatize, TemplatizedQuery};

/// Stable identifier of a tracked template. Indexes into the Pre-Processor's
/// template table and is the unit the Clusterer groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TemplateId(pub u32);

/// Everything QB5000 tracks about one template: what the forecaster reads
/// (its history) and what a planner binds (its text, AST and parameters).
/// Experiment-only inputs, such as the §7.7 logical features, are derived
/// from these by the experiment that reads them.
#[derive(Debug)]
pub struct TemplateEntry {
    pub id: TemplateId,
    /// The canonical templated SQL text (placeholders for constants).
    pub text: String,
    /// Statement verb (`SELECT` / `INSERT` / `UPDATE` / `DELETE`).
    pub kind: &'static str,
    /// Arrival counts: per hour over the whole history, per minute as far
    /// back as a reader looks.
    pub history: ArrivalHistory,
    /// Reservoir of original parameter vectors.
    pub params: Reservoir<Vec<Literal>>,
    /// The templated AST, kept for the dbsim executor and index advisor.
    pub statement: Statement,
}

/// Errors surfaced while ingesting a query.
#[derive(Debug, Clone, PartialEq)]
pub enum PreProcessError {
    /// The SQL string failed to parse; QB5000 skips such statements.
    Parse(ParseError),
}

impl std::fmt::Display for PreProcessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PreProcessError::Parse(e) => write!(f, "unparseable query: {e}"),
        }
    }
}

impl std::error::Error for PreProcessError {}

impl From<ParseError> for PreProcessError {
    fn from(e: ParseError) -> Self {
        PreProcessError::Parse(e)
    }
}

/// How many rejected statements the quarantine retains for inspection.
pub const QUARANTINE_SAMPLE_CAPACITY: usize = 32;

/// Longest SQL prefix (in characters) a quarantine sample stores. Bounds
/// memory even when a fault hands us a megabyte of garbage.
const QUARANTINE_SQL_PREFIX: usize = 200;

/// One rejected statement retained for inspection.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedStatement {
    pub minute: Minute,
    /// Bounded prefix of the offending SQL.
    pub sql: String,
    pub error: String,
}

/// Bounded record of statements the Pre-Processor refused.
///
/// QB5000 skips unparseable statements (§4); under fault injection that can
/// be a meaningful fraction of the stream, so instead of losing them
/// silently the Pre-Processor counts every rejection and keeps the most
/// recent [`QUARANTINE_SAMPLE_CAPACITY`] offenders in a ring buffer.
#[derive(Debug, Clone, Default)]
pub struct Quarantine {
    rejected_statements: u64,
    rejected_arrivals: u64,
    samples: VecDeque<QuarantinedStatement>,
    last_error: Option<String>,
}

impl Quarantine {
    fn admit(&mut self, minute: Minute, sql: &str, count: u64, err: &PreProcessError) {
        self.rejected_statements += 1;
        self.rejected_arrivals += count;
        let error = err.to_string();
        if self.samples.len() == QUARANTINE_SAMPLE_CAPACITY {
            self.samples.pop_front();
        }
        self.samples.push_back(QuarantinedStatement {
            minute,
            sql: sql.chars().take(QUARANTINE_SQL_PREFIX).collect(),
            error: error.clone(),
        });
        self.last_error = Some(error);
    }

    /// Rejected ingest calls (each may carry many arrivals).
    pub fn rejected_statements(&self) -> u64 {
        self.rejected_statements
    }

    /// Rejected arrivals (weighted by each call's `count`).
    pub fn rejected_arrivals(&self) -> u64 {
        self.rejected_arrivals
    }

    /// The retained samples, oldest first (at most
    /// [`QUARANTINE_SAMPLE_CAPACITY`]).
    pub fn samples(&self) -> impl Iterator<Item = &QuarantinedStatement> {
        self.samples.iter()
    }

    /// The most recent rejection's error message.
    pub fn last_error(&self) -> Option<&str> {
        self.last_error.as_deref()
    }

    /// Plain-data snapshot of the quarantine.
    pub fn export_state(&self) -> QuarantineState {
        QuarantineState {
            rejected_statements: self.rejected_statements,
            rejected_arrivals: self.rejected_arrivals,
            samples: self.samples.iter().cloned().collect(),
            last_error: self.last_error.clone(),
        }
    }

    /// Rebuilds the quarantine from a snapshot. Samples beyond
    /// [`QUARANTINE_SAMPLE_CAPACITY`] keep only the newest.
    pub fn from_state(state: QuarantineState) -> Self {
        let start = state.samples.len().saturating_sub(QUARANTINE_SAMPLE_CAPACITY);
        Self {
            rejected_statements: state.rejected_statements,
            rejected_arrivals: state.rejected_arrivals,
            samples: state.samples[start..].iter().cloned().collect(),
            last_error: state.last_error,
        }
    }
}

/// Plain-data snapshot of a [`Quarantine`] (durable-state export).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuarantineState {
    pub rejected_statements: u64,
    pub rejected_arrivals: u64,
    /// Retained samples, oldest first.
    pub samples: Vec<QuarantinedStatement>,
    pub last_error: Option<String>,
}

/// Aggregate counters for Table 1 / Table 2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    pub total_queries: u64,
    pub selects: u64,
    pub inserts: u64,
    pub updates: u64,
    pub deletes: u64,
}

/// How many parameter vectors each template keeps (§4's parameter
/// samples, drawn by reservoir sampling). A fixed bound keeps a
/// template's memory flat whatever its volume; snapshots store the
/// reservoirs and recovery rebuilds them at this capacity.
pub const RESERVOIR_CAPACITY: usize = 100;

/// Start of the chain that seeds each template's reservoir RNG. A fixed
/// seed makes parameter sampling deterministic: two runs over the same
/// statements hold the same samples.
pub const RESERVOIR_SEED: u64 = 0x5000;

/// How far back, in minutes before a template's newest arrival, its
/// history keeps per-minute counts when no reader registers a longer look
/// ([`PreProcessor::keep_minutes`]). Every reader of the hourly loop reads
/// whole hours, which the per-hour sums answer over the whole history; an
/// hour of minutes keeps the reads that end inside the current hour (a
/// round the shift trigger fires mid-hour) exact.
pub const MINUTE_RETENTION: Minute = 60;

/// The Pre-Processor's settings: none. Semantic folding (§4's final
/// step) is always on. The type remains because the benchmark harness
/// under `benchmarks/` still calls
/// `PreProcessor::new(PreProcessorConfig::default())`; everything else
/// builds a [`PreProcessor::default`].
#[derive(Debug, Clone, Default)]
pub struct PreProcessorConfig {}

/// Cached metric handles; all no-ops until [`PreProcessor::set_recorder`]
/// installs an enabled recorder.
#[derive(Debug, Default)]
struct PreMetrics {
    /// Wall time per `ingest*` call (includes cache hits).
    ingest_time: qb_obs::Histogram,
    ingested_statements: qb_obs::Counter,
    ingested_arrivals: qb_obs::Counter,
    quarantined_statements: qb_obs::Counter,
    quarantined_arrivals: qb_obs::Counter,
    cache_hits: qb_obs::Counter,
    templates: qb_obs::Gauge,
}

impl PreMetrics {
    fn resolve(recorder: &Recorder) -> Self {
        Self {
            ingest_time: recorder.histogram("preprocessor.ingest"),
            ingested_statements: recorder.counter("preprocessor.ingested_statements"),
            ingested_arrivals: recorder.counter("preprocessor.ingested_arrivals"),
            quarantined_statements: recorder.counter("preprocessor.quarantined_statements"),
            quarantined_arrivals: recorder.counter("preprocessor.quarantined_arrivals"),
            cache_hits: recorder.counter("preprocessor.cache_hits"),
            templates: recorder.gauge("preprocessor.templates"),
        }
    }
}

/// The Pre-Processor: maps raw SQL to templates and records arrival rates.
pub struct PreProcessor {
    metrics: PreMetrics,
    /// Semantic fingerprint → template id (the §4 equivalence folding).
    by_fingerprint: HashMap<Fingerprint, TemplateId>,
    /// Distinct canonical template texts seen (pre-folding), for Table 2.
    distinct_texts: HashMap<String, TemplateId>,
    entries: Vec<TemplateEntry>,
    stats: IngestStats,
    next_seed: u64,
    quarantine: Quarantine,
    tracer: Tracer,
    /// The ingest engine's raw-SQL memo. Real applications repeat the same
    /// literal strings; the memo short-circuits the parser for exact
    /// repeats. Never exported.
    memo: shard::Memo,
    /// Minutes each history keeps before its newest arrival: the longest
    /// look any reader registered, and at least [`MINUTE_RETENTION`].
    minute_lookback: Minute,
}

impl Default for PreProcessor {
    fn default() -> Self {
        Self::new(PreProcessorConfig::default())
    }
}

impl PreProcessor {
    pub fn new(config: PreProcessorConfig) -> Self {
        let PreProcessorConfig {} = config;
        Self {
            metrics: PreMetrics::default(),
            by_fingerprint: HashMap::new(),
            distinct_texts: HashMap::new(),
            entries: Vec::new(),
            stats: IngestStats::default(),
            next_seed: RESERVOIR_SEED,
            quarantine: Quarantine::default(),
            tracer: Tracer::disabled(),
            memo: shard::Memo::default(),
            minute_lookback: MINUTE_RETENTION,
        }
    }

    /// Registers a reader of per-minute counts that looks up to `lookback`
    /// minutes before a template's newest arrival: from here on every
    /// history keeps its minutes that far back (and never less than
    /// [`MINUTE_RETENTION`]). Minutes compacted before the call stay
    /// compacted, so a reader registers before the statements it reads
    /// are ingested.
    pub fn keep_minutes(&mut self, lookback: Minute) {
        self.minute_lookback = self.minute_lookback.max(lookback);
    }

    /// Installs a [`Recorder`]: subsequent ingest calls record
    /// `preprocessor.*` counters, the template-count gauge, and per-call
    /// ingest latency. Metric names resolve once, here; the hot path only
    /// touches cached handles.
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.metrics = PreMetrics::resolve(recorder);
    }

    /// Installs a [`Tracer`]: first sightings of a template emit
    /// `QuerySeen → TemplateCreated` (anchored under [`Scope::Template`]
    /// so downstream stages can link to them) and every quarantined
    /// statement emits `QueryQuarantined`. Cache hits and repeat arrivals
    /// emit nothing, keeping the hot path event-free.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
    }

    /// Ingests one query arriving at minute `t`.
    pub fn ingest(&mut self, t: Minute, sql: &str) -> Result<TemplateId, PreProcessError> {
        self.ingest_weighted(t, sql, 1)
    }

    /// Ingests `count` identical arrivals of `sql` at minute `t`.
    ///
    /// The weighted form is how the trace generators replay high-volume
    /// workloads without materializing duplicate strings. It is a batch of
    /// one through the ingest engine, run on the calling thread, so it
    /// leaves exactly the state [`PreProcessor::ingest_batch`] would.
    pub fn ingest_weighted(
        &mut self,
        t: Minute,
        sql: &str,
        count: u64,
    ) -> Result<TemplateId, PreProcessError> {
        let _span = self.metrics.ingest_time.start();
        let mut report = BatchReport::default();
        let outcome = self.ingest_one(&BatchItem { minute: t, sql, count }, &mut report);
        self.publish_metrics(&report);
        outcome
    }

    /// Interns a templated statement first seen at minute `t`, taking
    /// ownership of the canonical text and AST so the fresh-template path
    /// stores them without cloning (the dedup-map key is the one remaining
    /// copy). A fresh template is traced and counted in `report`.
    fn intern(
        &mut self,
        template: Statement,
        text: String,
        t: Minute,
        report: &mut BatchReport,
    ) -> TemplateId {
        if let Some(&id) = self.distinct_texts.get(&text) {
            return id;
        }
        let fp = semantic_fingerprint(&template);
        if let Some(&id) = self.by_fingerprint.get(&fp) {
            // A new spelling that is semantically equivalent to a known
            // template: count the distinct text but reuse the entry.
            self.distinct_texts.insert(text, id);
            return id;
        }
        let id = TemplateId(self.entries.len() as u32);
        self.next_seed = self.next_seed.wrapping_mul(6364136223846793005).wrapping_add(id.0 as u64);
        self.distinct_texts.insert(text.clone(), id);
        self.entries.push(TemplateEntry {
            id,
            kind: template.kind_name(),
            history: ArrivalHistory::new(),
            params: Reservoir::new(RESERVOIR_CAPACITY, self.next_seed),
            statement: template,
            text,
        });
        self.by_fingerprint.insert(fp, id);
        self.trace_new_template(t, id);
        report.new_templates += 1;
        id
    }

    /// Emits the `QuerySeen → TemplateCreated` pair for a just-interned
    /// template and anchors the creation event under its id.
    fn trace_new_template(&self, t: Minute, id: TemplateId) {
        if !self.tracer.is_enabled() {
            return;
        }
        let entry = &self.entries[id.0 as usize];
        let text: String = entry.text.chars().take(80).collect();
        let seen = self.tracer.record(
            EventDraft::new(EventKind::QuerySeen).int("minute", t).uint("len", entry.text.len() as u64),
        );
        let created = self.tracer.record(
            EventDraft::new(EventKind::TemplateCreated)
                .parent_opt(seen)
                .uint("template", id.0 as u64)
                .text("kind", entry.kind)
                .text("text", &text),
        );
        if let Some(created) = created {
            self.tracer.set_anchor(Scope::Template, id.0 as u64, created);
        }
    }

    /// Quarantines a statement the parser refused.
    fn reject(&mut self, item: &BatchItem<'_>, err: &PreProcessError, report: &mut BatchReport) {
        self.quarantine.admit(item.minute, item.sql, item.count, err);
        report.quarantined_statements += 1;
        report.quarantined_arrivals += item.count;
        if self.tracer.is_enabled() {
            let msg: String = err.to_string().chars().take(120).collect();
            self.tracer.record(
                EventDraft::new(EventKind::QueryQuarantined)
                    .int("minute", item.minute)
                    .uint("count", item.count)
                    .text("error", &msg),
            );
        }
    }

    /// Records `count` arrivals of template `id` at minute `t`: its
    /// history, whose minutes past the registered lookback compact into
    /// its hours, and the per-verb stats.
    fn record(&mut self, id: TemplateId, t: Minute, count: u64) {
        let entry = &mut self.entries[id.0 as usize];
        entry.history.record(t, count);
        entry.history.compact(self.minute_lookback);
        self.stats.total_queries += count;
        match entry.kind {
            "SELECT" => self.stats.selects += count,
            "INSERT" => self.stats.inserts += count,
            "UPDATE" => self.stats.updates += count,
            "DELETE" => self.stats.deletes += count,
            _ => unreachable!("kind is one of the four DML verbs"),
        }
    }

    /// All tracked templates.
    pub fn templates(&self) -> &[TemplateEntry] {
        &self.entries
    }

    /// Lookup by id.
    pub fn template(&self, id: TemplateId) -> &TemplateEntry {
        &self.entries[id.0 as usize]
    }

    /// Number of templates after semantic folding (Table 2 row 2).
    pub fn num_templates(&self) -> usize {
        self.entries.len()
    }

    /// Number of distinct canonical texts before semantic folding.
    pub fn num_distinct_texts(&self) -> usize {
        self.distinct_texts.len()
    }

    /// The rejected-statement record.
    pub fn quarantine(&self) -> &Quarantine {
        &self.quarantine
    }

    /// Ingest counters.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Dense per-interval series for one template over `[start, end)`.
    pub fn template_series(
        &self,
        id: TemplateId,
        start: Minute,
        end: Minute,
        interval: Interval,
    ) -> Vec<f64> {
        self.entries[id.0 as usize].history.dense_series(start, end, interval)
    }

    /// Exports the complete mutable state as plain data (durable-snapshot
    /// support). Everything needed to continue ingesting with *identical*
    /// behavior is captured: template table, folding/dedup maps, reservoir
    /// RNG states, ingest stats, and the quarantine. The ingest memo is
    /// not: it changes no exported state. Map contents are emitted in
    /// sorted order so the export is byte-stable across runs.
    pub fn export_state(&self) -> PreProcessorState {
        let mut distinct_texts: Vec<(String, u32)> =
            self.distinct_texts.iter().map(|(t, id)| (t.clone(), id.0)).collect();
        distinct_texts.sort();
        PreProcessorState {
            entries: self
                .entries
                .iter()
                .map(|e| TemplateEntryState {
                    text: e.text.clone(),
                    history: e.history.export_state(),
                    params_seen: e.params.seen(),
                    params_items: e.params.items().to_vec(),
                    params_rng: e.params.rng_state(),
                })
                .collect(),
            distinct_texts,
            next_seed: self.next_seed,
            stats: self.stats,
            quarantine: self.quarantine.export_state(),
        }
    }

    /// Rebuilds a Pre-Processor from exported state.
    ///
    /// Template ASTs, verbs and semantic fingerprints are reconstructed by
    /// re-parsing each entry's canonical text — templatizing canonical
    /// text is idempotent, so the rebuilt table is equivalent to the one
    /// that was exported. The ingest memo starts cold.
    pub fn restore(state: PreProcessorState) -> Result<Self, PreProcessError> {
        let mut pp = PreProcessor::default();
        for (idx, es) in state.entries.into_iter().enumerate() {
            let stmt = parse_statement(&es.text)?;
            let tq = templatize(&stmt);
            debug_assert_eq!(tq.text, es.text, "canonical template text must re-templatize to itself");
            let id = TemplateId(idx as u32);
            // First-wins: a state may hold several entries with one
            // fingerprint (snapshots from builds where folding could be
            // switched off do), and new spellings fold onto the earliest.
            pp.by_fingerprint.entry(semantic_fingerprint(&tq.template)).or_insert(id);
            pp.entries.push(TemplateEntry {
                id,
                text: es.text,
                kind: tq.template.kind_name(),
                history: ArrivalHistory::from_state(es.history),
                params: Reservoir::from_parts(
                    RESERVOIR_CAPACITY,
                    es.params_seen,
                    es.params_items,
                    es.params_rng,
                ),
                statement: tq.template,
            });
        }
        pp.distinct_texts =
            state.distinct_texts.into_iter().map(|(t, id)| (t, TemplateId(id))).collect();
        pp.next_seed = state.next_seed;
        pp.stats = state.stats;
        pp.quarantine = Quarantine::from_state(state.quarantine);
        Ok(pp)
    }
}

/// Plain-data snapshot of one [`TemplateEntry`]. The AST and verb are
/// *not* stored — they are rebuilt from the canonical text,
/// which is the compact, version-stable representation.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateEntryState {
    /// Canonical templated SQL text (placeholders for constants).
    pub text: String,
    pub history: ArrivalHistoryState,
    pub params_seen: u64,
    pub params_items: Vec<Vec<Literal>>,
    pub params_rng: [u64; 4],
}

/// Plain-data snapshot of a [`PreProcessor`] (durable-state export).
///
/// Entry order is template-id order; map fields are sorted by key so two
/// exports of identical state are identical values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PreProcessorState {
    pub entries: Vec<TemplateEntryState>,
    pub distinct_texts: Vec<(String, u32)>,
    pub next_seed: u64,
    pub stats: IngestStats,
    pub quarantine: QuarantineState,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pp() -> PreProcessor {
        PreProcessor::default()
    }

    #[test]
    fn same_template_different_constants_merge() {
        let mut p = pp();
        let a = p.ingest(0, "SELECT x FROM t WHERE id = 1").unwrap();
        let b = p.ingest(1, "SELECT x FROM t WHERE id = 999").unwrap();
        assert_eq!(a, b);
        assert_eq!(p.num_templates(), 1);
        assert_eq!(p.stats().total_queries, 2);
    }

    #[test]
    fn case_and_spacing_normalized() {
        let mut p = pp();
        let a = p.ingest(0, "select X  from T where ID=1").unwrap();
        let b = p.ingest(0, "SELECT x FROM t WHERE id = 2").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_tables_different_templates() {
        let mut p = pp();
        let a = p.ingest(0, "SELECT x FROM t WHERE id = 1").unwrap();
        let b = p.ingest(0, "SELECT x FROM u WHERE id = 1").unwrap();
        assert_ne!(a, b);
        assert_eq!(p.num_templates(), 2);
    }

    #[test]
    fn arrival_history_recorded_per_minute() {
        let mut p = pp();
        let id = p.ingest(10, "SELECT x FROM t WHERE id = 1").unwrap();
        p.ingest(10, "SELECT x FROM t WHERE id = 2").unwrap();
        p.ingest(11, "SELECT x FROM t WHERE id = 3").unwrap();
        let series = p.template_series(id, 10, 12, Interval::MINUTE);
        assert_eq!(series, vec![2.0, 1.0]);
    }

    /// Each history keeps its minutes from the hour that holds the minute
    /// `MINUTE_RETENTION` before its newest arrival, plus its first
    /// arrival; a registered reader's longer look keeps more, a shorter one
    /// changes nothing, and whole-hour reads are the same either way.
    #[test]
    fn histories_keep_minutes_as_far_back_as_a_reader_looks() {
        let feed = |p: &mut PreProcessor| {
            (0..600).map(|t| p.ingest(t, "SELECT x FROM t WHERE id = 1").unwrap()).last().unwrap()
        };
        let mut default = pp();
        let id = feed(&mut default);
        let kept = |p: &PreProcessor| p.template(id).history.export_state().raw;
        // The newest arrival is minute 599; an hour back is 539, in the
        // hour from 480.
        assert_eq!(kept(&default)[..2], [(0, 1), (480, 1)]);
        assert_eq!(kept(&default).len(), 1 + 120);

        let mut reader = pp();
        reader.keep_minutes(300);
        reader.keep_minutes(10);
        let id = feed(&mut reader);
        assert_eq!(kept(&reader).len(), 1 + 360, "minutes from the hour at 240");
        let hours = |p: &PreProcessor| p.template_series(id, 0, 600, Interval::HOUR);
        assert_eq!(hours(&reader), hours(&default));
        assert_eq!(reader.template_series(id, 240, 600, Interval::MINUTE), vec![1.0; 360]);
    }

    #[test]
    fn weighted_ingest_counts() {
        let mut p = pp();
        let id = p.ingest_weighted(0, "SELECT x FROM t WHERE id = 5", 1000).unwrap();
        assert_eq!(p.template(id).history.total(), 1000);
        assert_eq!(p.stats().selects, 1000);
    }

    #[test]
    fn kind_counters() {
        let mut p = pp();
        p.ingest(0, "SELECT x FROM t WHERE id = 1").unwrap();
        p.ingest(0, "INSERT INTO t (a) VALUES (1)").unwrap();
        p.ingest(0, "UPDATE t SET a = 2 WHERE id = 1").unwrap();
        p.ingest(0, "DELETE FROM t WHERE id = 1").unwrap();
        let s = p.stats();
        assert_eq!((s.selects, s.inserts, s.updates, s.deletes), (1, 1, 1, 1));
    }

    #[test]
    fn unparseable_sql_is_error() {
        let mut p = pp();
        assert!(p.ingest(0, "CREATE TABLE nope (x int)").is_err());
        assert_eq!(p.stats().total_queries, 0);
    }

    #[test]
    fn rejections_are_quarantined_with_samples() {
        let mut p = pp();
        assert!(p.ingest_weighted(7, "SELEC broken ((", 5).is_err());
        assert!(p.ingest(9, "").is_err());
        p.ingest(9, "SELECT x FROM t WHERE id = 1").unwrap();
        let q = p.quarantine();
        assert_eq!(q.rejected_statements(), 2);
        assert_eq!(q.rejected_arrivals(), 6);
        let samples: Vec<_> = q.samples().collect();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].minute, 7);
        assert_eq!(samples[0].sql, "SELEC broken ((");
        assert!(q.last_error().is_some());
    }

    #[test]
    fn quarantine_ring_buffer_is_bounded() {
        let mut p = pp();
        for i in 0..(QUARANTINE_SAMPLE_CAPACITY as i64 + 10) {
            let _ = p.ingest(i, &format!("NOT SQL {i}"));
        }
        let q = p.quarantine();
        assert_eq!(q.rejected_statements(), QUARANTINE_SAMPLE_CAPACITY as u64 + 10);
        assert_eq!(q.samples().count(), QUARANTINE_SAMPLE_CAPACITY);
        // Oldest entries were evicted: the ring holds the newest ones.
        assert_eq!(q.samples().next().unwrap().minute, 10);
    }

    #[test]
    fn quarantine_bounds_sql_sample_length() {
        let mut p = pp();
        let huge = format!("GARBAGE {}", "x".repeat(10_000));
        assert!(p.ingest(0, &huge).is_err());
        let sample = p.quarantine().samples().next().unwrap();
        assert!(sample.sql.chars().count() <= 200, "{}", sample.sql.len());
    }

    #[test]
    fn params_sampled() {
        let mut p = pp();
        let id = p.ingest(0, "SELECT x FROM t WHERE id = 42").unwrap();
        let entry = p.template(id);
        assert_eq!(entry.params.len(), 1);
        assert_eq!(entry.params.items()[0], vec![Literal::Integer(42)]);
    }

    #[test]
    fn raw_cache_hit_still_counts() {
        let mut p = pp();
        let a = p.ingest(0, "SELECT x FROM t WHERE id = 7").unwrap();
        let b = p.ingest(5, "SELECT x FROM t WHERE id = 7").unwrap();
        assert_eq!(a, b);
        assert_eq!(p.template(a).history.total(), 2);
    }

    #[test]
    fn recorder_counts_ingest_and_quarantine() {
        let rec = Recorder::new();
        let mut p = pp();
        p.set_recorder(&rec);
        p.ingest(0, "SELECT x FROM t WHERE id = 1").unwrap();
        p.ingest(0, "SELECT x FROM t WHERE id = 1").unwrap(); // second miss: cached
        p.ingest(0, "SELECT x FROM t WHERE id = 1").unwrap(); // memo hit
        let _ = p.ingest_weighted(1, "BROKEN ((", 3);
        let snap = rec.snapshot();
        assert_eq!(snap.counters["preprocessor.ingested_statements"], 3);
        assert_eq!(snap.counters["preprocessor.ingested_arrivals"], 3);
        assert_eq!(snap.counters["preprocessor.quarantined_statements"], 1);
        assert_eq!(snap.counters["preprocessor.quarantined_arrivals"], 3);
        assert_eq!(snap.counters["preprocessor.cache_hits"], 1);
        assert_eq!(snap.gauges["preprocessor.templates"], 1.0);
        assert_eq!(snap.histograms["preprocessor.ingest"].count, 4);
    }

    #[test]
    fn tracer_emits_template_lineage_and_quarantine() {
        let tracer = Tracer::enabled();
        let mut p = pp();
        p.set_tracer(&tracer);
        let id = p.ingest(0, "SELECT x FROM t WHERE id = 1").unwrap();
        p.ingest(1, "SELECT x FROM t WHERE id = 2").unwrap(); // repeat: silent
        let _ = p.ingest(2, "BROKEN ((");
        let view = tracer.view();
        assert_eq!(view.of_kind(EventKind::QuerySeen).count(), 1);
        assert_eq!(view.of_kind(EventKind::TemplateCreated).count(), 1);
        assert_eq!(view.of_kind(EventKind::QueryQuarantined).count(), 1);
        let anchor = tracer.anchor(Scope::Template, id.0 as u64).expect("template anchored");
        let explain = view.explain(anchor);
        assert!(explain.contains("TemplateCreated"), "{explain}");
        assert!(explain.contains("QuerySeen"), "{explain}");
    }

    #[test]
    fn state_round_trip_continues_identically() {
        let mut live = pp();
        // Exercise every stateful path: folding, quarantine, weighted
        // arrivals, and memo hits the reservoir keeps.
        live.ingest(0, "SELECT x FROM t WHERE id = 1").unwrap();
        live.ingest(0, "INSERT INTO t (a) VALUES (1)").unwrap();
        live.ingest_weighted(1, "UPDATE t SET a = 2 WHERE id = 3", 40).unwrap();
        let _ = live.ingest_weighted(2, "BROKEN ((", 5);
        for i in 0..70 {
            live.ingest(3 + i % 2, "SELECT x FROM t WHERE id = 1").unwrap();
        }

        let exported = live.export_state();
        let mut restored =
            PreProcessor::restore(exported.clone()).unwrap();
        assert_eq!(restored.export_state(), exported, "restore must be lossless");
        assert_eq!(restored.num_templates(), live.num_templates());
        assert_eq!(restored.num_distinct_texts(), live.num_distinct_texts());
        assert_eq!(restored.stats(), live.stats());
        assert_eq!(
            restored.quarantine().rejected_arrivals(),
            live.quarantine().rejected_arrivals()
        );

        // Both instances must behave identically from here on — same ids
        // and same reservoir decisions, though only the live instance's
        // cache is warm.
        let follow_up = [
            "SELECT x FROM t WHERE id = 1",
            "SELECT x FROM t WHERE id = 9",
            "DELETE FROM t WHERE id = 4",
            "SELECT x FROM t WHERE id = 1",
        ];
        for round in 0..30 {
            for sql in follow_up {
                let a = live.ingest(100 + round, sql).unwrap();
                let b = restored.ingest(100 + round, sql).unwrap();
                assert_eq!(a, b);
            }
        }
        let _ = live.ingest(200, "ALSO BROKEN ((");
        let _ = restored.ingest(200, "ALSO BROKEN ((");
        assert_eq!(live.export_state(), restored.export_state());
    }

    #[test]
    fn cache_hit_counter_identity_across_fast_and_reparse_paths() {
        // A slot hit is a hit whether the reservoir keeps it (and it
        // re-parses) or not; only the first two sightings miss, the second
        // admitting the text to the cache.
        let rec = Recorder::new();
        let mut p = pp();
        p.set_recorder(&rec);
        for _ in 0..129 {
            p.ingest(0, "SELECT x FROM t WHERE id = 1").unwrap();
        }
        let snap = rec.snapshot();
        // 129 ingests = 2 misses + 127 hits. Every one was ingested.
        assert_eq!(snap.counters["preprocessor.cache_hits"], 127);
        assert_eq!(snap.counters["preprocessor.ingested_statements"], 129);
        assert_eq!(snap.counters["preprocessor.ingested_arrivals"], 129);
        assert_eq!(p.template(TemplateId(0)).history.total(), 129);
        // Every statement reached the reservoir: the miss, the hits it
        // kept while filling (re-parsed), and the hits it drew on after.
        assert_eq!(p.template(TemplateId(0)).params.seen(), 129);
    }

    #[test]
    fn fingerprint_mapping_is_first_wins_and_survives_restore() {
        // Three spellings of one semantic template (rotated conjuncts). A
        // state that holds the first two as separate entries folds a new
        // spelling onto the *first*, not onto whichever came last.
        let spellings = [
            "SELECT x FROM t WHERE p = 1 AND q = 2 AND r = 3",
            "SELECT x FROM t WHERE q = 4 AND r = 5 AND p = 6",
            "SELECT x FROM t WHERE r = 7 AND p = 8 AND q = 9",
        ];
        let mut p = pp();
        let a = p.ingest(0, spellings[0]).unwrap();
        let mut state = p.export_state();
        let second = templatize(&parse_statement(spellings[1]).unwrap()).text;
        let first = &state.entries[0];
        assert_ne!(second, first.text, "the spellings are distinct texts");
        let entry = TemplateEntryState { text: second.clone(), ..first.clone() };
        state.entries.push(entry);
        state.distinct_texts.push((second, 1));
        state.distinct_texts.sort();

        // The hand-built round trip is lossless.
        let restored = PreProcessor::restore(state.clone()).unwrap();
        assert_eq!(restored.export_state(), state);
        assert_eq!(restored.num_templates(), 2);

        // A new spelling folds onto the first-interned template.
        let mut refolded = PreProcessor::restore(state).unwrap();
        let c = refolded.ingest(1, spellings[2]).unwrap();
        assert_eq!(c, a, "folding must target the first-interned template");
    }

    #[test]
    fn template_text_has_placeholders() {
        let mut p = pp();
        let id = p.ingest(0, "SELECT x FROM t WHERE id = 7 AND name = 'bob'").unwrap();
        let text = &p.template(id).text;
        assert!(text.contains('?'), "{text}");
        assert!(!text.contains('7') && !text.contains("bob"), "{text}");
    }
}

#[cfg(test)]
mod accounting_proptests {
    use super::*;
    use proptest::prelude::*;

    /// One ingest call, in either entry-point flavor.
    #[derive(Debug, Clone)]
    enum Op {
        /// `ingest` (weight 1).
        Plain { sql: usize, minute: Minute },
        /// `ingest_weighted` at an arbitrary weight.
        Weighted { sql: usize, minute: Minute, count: u64 },
    }

    /// A small pool mixing hot repeats (cache hits, each offered),
    /// distinct constants (fresh templates), folding spellings, and
    /// garbage (quarantine).
    const POOL: &[&str] = &[
        "SELECT x FROM t WHERE id = 1",
        "SELECT x FROM t WHERE id = 1",
        "SELECT x FROM t WHERE id = 2",
        "SELECT y FROM u WHERE a = 3 AND b = 4",
        "SELECT y FROM u WHERE b = 5 AND a = 6",
        "INSERT INTO t (a) VALUES (7)",
        "UPDATE t SET a = 8 WHERE id = 9",
        "DELETE FROM t WHERE id = 10",
        "BROKEN ((",
        "",
    ];

    fn op_strategy() -> impl Strategy<Value = Op> {
        let sql = 0..POOL.len();
        let minute = 0i64..120;
        let count = 1u64..1_000;
        prop_oneof![
            (sql.clone(), minute.clone()).prop_map(|(sql, minute)| Op::Plain { sql, minute }),
            (sql, minute, count)
                .prop_map(|(sql, minute, count)| Op::Weighted { sql, minute, count }),
        ]
    }

    proptest! {
        /// The ingest accounting identity: every weighted arrival offered
        /// to the Pre-Processor lands in exactly one of two ledgers —
        /// template arrival histories (== `stats.total_queries`) or the
        /// quarantine — across cache-hit, re-parse, and fresh-template
        /// paths at arbitrary weights.
        #[test]
        fn arrivals_in_equals_history_bumps_plus_quarantined(
            ops in proptest::collection::vec(op_strategy(), 1..400),
        ) {
            let mut p = PreProcessor::default();
            let mut offered: u64 = 0;
            for op in &ops {
                match *op {
                    Op::Plain { sql, minute } => {
                        offered += 1;
                        let _ = p.ingest(minute, POOL[sql]);
                    }
                    Op::Weighted { sql, minute, count } => {
                        offered += count;
                        let _ = p.ingest_weighted(minute, POOL[sql], count);
                    }
                }
            }
            let history_total: u64 = p.templates().iter().map(|e| e.history.total()).sum();
            prop_assert_eq!(history_total, p.stats().total_queries);
            prop_assert_eq!(
                history_total + p.quarantine().rejected_arrivals(),
                offered,
                "every offered arrival is either recorded or quarantined"
            );
            let s = p.stats();
            prop_assert_eq!(s.selects + s.inserts + s.updates + s.deletes, s.total_queries);
        }

        /// The same identity holds for the batch path, and the
        /// batch report agrees with the state it produced.
        #[test]
        fn batch_ingest_upholds_the_accounting_identity(
            ops in proptest::collection::vec(
                (0..POOL.len(), 0i64..120, 1u64..1_000), 1..400,
            ),
            width in 1usize..5,
            splits in 1usize..6,
        ) {
            let mut p = PreProcessor::default();
            let pool = qb_parallel::ThreadPool::new(width);
            let items: Vec<shard::BatchItem<'_>> = ops
                .iter()
                .map(|&(sql, minute, count)| shard::BatchItem {
                    minute,
                    sql: POOL[sql],
                    count,
                })
                .collect();
            let chunk = items.len().div_ceil(splits).max(1);
            let mut accepted = 0u64;
            let mut accepted_statements = 0u64;
            let mut quarantined = 0u64;
            for b in items.chunks(chunk) {
                let report = p.ingest_batch(&pool, b);
                accepted += report.arrivals;
                accepted_statements += report.statements;
                quarantined += report.quarantined_arrivals;
            }
            let offered: u64 = ops.iter().map(|&(_, _, c)| c).sum();
            let history_total: u64 = p.templates().iter().map(|e| e.history.total()).sum();
            prop_assert_eq!(history_total, accepted);
            prop_assert_eq!(history_total, p.stats().total_queries);
            prop_assert_eq!(accepted + quarantined, offered);
            prop_assert_eq!(p.quarantine().rejected_arrivals(), quarantined);
            // Every accepted statement, hit or miss, was offered once.
            let offered_params: u64 = p.templates().iter().map(|e| e.params.seen()).sum();
            prop_assert_eq!(offered_params, accepted_statements);
        }
    }
}

#[cfg(test)]
mod folding_tests {
    use super::*;

    /// What `repro ablations` reports as "folding on" and "folding off":
    /// without folding every distinct canonical text would be its own
    /// template, so the two counts are the templates and the texts.
    #[test]
    fn conjunct_orderings_share_a_template_but_not_a_text() {
        let mut p = PreProcessor::default();
        let a = p.ingest(0, "SELECT x FROM t WHERE p = 1 AND q = 2").unwrap();
        let b = p.ingest(0, "SELECT x FROM t WHERE q = 5 AND p = 9").unwrap();
        assert_eq!(a, b, "semantic folding merges orderings");
        assert_eq!(p.num_templates(), 1);
        assert_eq!(p.num_distinct_texts(), 2);
    }
}
