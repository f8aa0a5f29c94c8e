//! The ingest engine: every statement the Pre-Processor takes goes through
//! the two functions here, `resolve` and `PreProcessor::apply`.
//!
//! * **`resolve`** is read-only. It looks the raw SQL up in the memo — a
//!   map from raw text to the template it resolved to — and on a miss
//!   parses, templatizes and looks the template text up in the text table.
//!   It yields a memo hit, a known template with the statement's
//!   parameters, a new template, or a parse error.
//! * **`apply`** is sequential and runs once per statement in arrival
//!   order: it interns a new template, records the arrival in the history
//!   and stats, offers the statement to its template's parameter
//!   reservoir, admits a missed text to the memo, or quarantines a
//!   rejection.
//!
//! A batch below `FANOUT_MIN_STATEMENTS` resolves and applies each
//! statement on the calling thread before it looks at the next. A larger
//! one resolves in a fixed number of chunks on the pool, against a memo
//! that stays read-only until the batch applies, then applies in arrival
//! order. Both sides run the same `apply` over the same statements in the
//! same order, so template ids, the reservoir seed chain, offers,
//! quarantine admissions and trace events are those of statement-at-a-time
//! ingest, at every pool width and every cut of a stream into batches.
//!
//! The memo is a memo, not state. A hit resolves to the template a parse
//! would, and is offered to the reservoir like a miss, with the parameters
//! a parse yields; whether a statement hits therefore shows only in speed
//! and in the `cache_hits` count. Nothing of the memo is exported, and a
//! restored Pre-Processor starts with it cold. The tests in this module
//! pin it: whole exports — reservoirs included — agree across widths,
//! batch cuts, both sides of the floor, statement-at-a-time ingest and
//! memo bounds, and so does the trace stream.

use std::collections::{HashMap, HashSet};

use qb_parallel::ThreadPool;
use qb_sqlparse::{parse_statement, Literal};
use qb_timeseries::Minute;

use crate::{templatize, PreProcessError, PreProcessor, TemplateId, TemplatizedQuery};

/// One statement in an ingest batch. Borrows the raw SQL so replay loops
/// can batch without cloning strings.
#[derive(Debug, Clone, Copy)]
pub struct BatchItem<'a> {
    /// Arrival minute.
    pub minute: Minute,
    /// Raw SQL text.
    pub sql: &'a str,
    /// Weighted arrival count (identical arrivals this minute).
    pub count: u64,
}

/// What one [`PreProcessor::ingest_batch`] call did, in aggregate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchReport {
    /// Statements accepted (parsed or memo-resolved).
    pub statements: u64,
    /// Weighted arrivals accepted.
    pub arrivals: u64,
    /// Statements rejected by the parser.
    pub quarantined_statements: u64,
    /// Weighted arrivals rejected.
    pub quarantined_arrivals: u64,
    /// Templates interned for the first time by this batch.
    pub new_templates: u64,
    /// Memo hits: statements resolved to their template without a parse.
    pub cache_hits: u64,
    /// Distinct template ids sighted by this batch, ordered by first
    /// sighting. This is the clusterer's observation feed.
    pub sighted: Vec<TemplateId>,
}

/// Batches shorter than this resolve on the calling thread; longer ones
/// resolve on the pool.
///
/// A fan-out spawns and joins one scoped thread per worker, which costs
/// more than a small tick's whole resolve phase. The floor sits between the
/// tick sizes the `qb_e2e` workloads produce: `durable_bus` ticks average
/// 8.6 statements and gained 31–33 % in `ingest_stmts_per_s` from staying
/// on the caller, while `wide_churn`'s per-minute ticks hold 55–115
/// statements and lost 21 % when they never fanned out. State is
/// bit-identical on either side of it.
const FANOUT_MIN_STATEMENTS: usize = 32;

/// The pool tasks a fanned-out batch resolves in: fixed, never derived
/// from the pool width, so `parallel.tasks` is width-invariant.
const FANOUT_CHUNKS: usize = 8;

/// The memo's bound on cached texts, and the size of its doorkeeper.
const MEMO_LIMIT: usize = 65_536;

/// A statement's fingerprint: a multiplicative hash of its raw SQL taking
/// eight bytes a step (the tail zero-padded), finished with MurmurHash3's
/// 64-bit mixer. Process-stable and independent of `HashMap`'s per-process
/// `RandomState`, so the miss that admits a text to the memo, and with it
/// every hit count, repeats in every process; and cheap, because every
/// statement pays it once: on 111-byte BusTracker statements it takes
/// 24 ns, where byte-at-a-time FNV-1a (one dependent multiply per byte)
/// took 100–125 ns.
fn fingerprint(sql: &str) -> u64 {
    let step = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    let words = sql.as_bytes().chunks_exact(8);
    let tail = words.remainder();
    let mut h = words.fold(0, |h, w| step(h, u64::from_le_bytes(w.try_into().expect("8 bytes"))));
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = step(h, u64::from_le_bytes(last));
    }
    h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Parse and templatize: the work a memo hit skips.
fn parse(sql: &str) -> Result<TemplatizedQuery, PreProcessError> {
    Ok(templatize(&parse_statement(sql)?))
}

/// The parameters of a memo hit, for a reservoir that keeps it. Cannot
/// fail: a text enters the memo only after it has parsed.
fn cached_params(sql: &str) -> Vec<Literal> {
    parse(sql).expect("a cached statement has parsed before").params
}

/// The raw-SQL memo: raw text → the template it resolved to. Survives
/// across batches; never exported.
///
/// A text enters the memo on its second miss, not its first. Most raw
/// texts in a real stream never come back (literals churn), so caching
/// every miss spends most slots on statements that will never hit. The
/// doorkeeper is a fixed array of fingerprints, one per slot of the bound
/// rounded up to a power of two: a miss whose fingerprint already sits in
/// its doorkeeper entry is cached, any other miss writes its fingerprint
/// there and caches nothing. A fingerprint collision or overwrite can only
/// admit a text early or late, never map it to a wrong template, because
/// the memo stays keyed on the full text. At its bound the memo takes a
/// generational reset: it is cleared and refills with what is hot now, so
/// template churn cannot freeze it on a stale working set.
#[derive(Debug)]
pub(crate) struct Memo {
    map: HashMap<String, TemplateId>,
    doorkeeper: Vec<u64>,
    limit: usize,
}

impl Default for Memo {
    fn default() -> Self {
        Self::new(MEMO_LIMIT)
    }
}

impl Memo {
    pub(crate) fn new(limit: usize) -> Self {
        let limit = limit.max(1);
        Self { map: HashMap::new(), doorkeeper: vec![0; limit.next_power_of_two()], limit }
    }

    /// Admits `sql` (fingerprint `fp`), which a parse resolved to `id`, if
    /// this is its second miss; on its first the doorkeeper remembers it.
    fn admit(&mut self, sql: &str, fp: u64, id: TemplateId) {
        let door = fp as usize & (self.doorkeeper.len() - 1);
        // A fanned-out batch resolves against a read-only memo, so a text
        // it repeats misses again after its admission.
        if std::mem::replace(&mut self.doorkeeper[door], fp) != fp || self.map.contains_key(sql) {
            return;
        }
        if self.map.len() >= self.limit {
            self.map.clear();
        }
        self.map.insert(sql.to_string(), id);
    }
}

/// What [`resolve`] makes of one statement.
enum Resolved {
    /// A memo hit.
    Hit(TemplateId),
    /// A miss whose template text is already interned, with its
    /// parameters.
    Known(TemplateId, Vec<Literal>),
    /// A miss whose template text is new.
    New(TemplatizedQuery),
    /// The parser refused it.
    Rejected(PreProcessError),
}

/// Resolves `sql` against the memo and the template-text table, changing
/// neither; returns its fingerprint with the result.
fn resolve(
    memo: &Memo,
    distinct_texts: &HashMap<String, TemplateId>,
    sql: &str,
) -> (u64, Resolved) {
    let fp = fingerprint(sql);
    if let Some(&id) = memo.map.get(sql) {
        return (fp, Resolved::Hit(id));
    }
    let resolved = match parse(sql) {
        Ok(query) => match distinct_texts.get(&query.text) {
            Some(&id) => Resolved::Known(id, query.params),
            None => Resolved::New(query),
        },
        Err(err) => Resolved::Rejected(err),
    };
    (fp, resolved)
}

impl PreProcessor {
    /// Ingests a batch of statements.
    ///
    /// Equivalent to calling
    /// [`ingest_weighted`](PreProcessor::ingest_weighted) for each item in
    /// order: template ids, arrival histories, parameter reservoirs, ingest
    /// stats, the quarantine and trace events come out identical. A batch
    /// of at least `FANOUT_MIN_STATEMENTS` statements resolves on `pool`; a
    /// smaller one on the calling thread, where a thread hand-off would
    /// cost more than the work. The result is bit-identical for any pool
    /// width (including 1) and for any way of splitting the same stream
    /// into batches.
    pub fn ingest_batch(&mut self, pool: &ThreadPool, batch: &[BatchItem<'_>]) -> BatchReport {
        let _span = self.metrics.ingest_time.start();
        let mut report = BatchReport::default();
        let mut ids = Vec::with_capacity(batch.len());
        if batch.len() < FANOUT_MIN_STATEMENTS {
            for item in batch {
                ids.extend(self.ingest_one(item, &mut report).ok());
            }
        } else {
            let n = batch.len();
            let chunks: Vec<&[BatchItem<'_>]> = (0..FANOUT_CHUNKS)
                .map(|c| &batch[c * n / FANOUT_CHUNKS..(c + 1) * n / FANOUT_CHUNKS])
                .collect();
            let (memo, texts) = (&self.memo, &self.distinct_texts);
            let resolved = pool.map(chunks, |_, chunk| {
                chunk.iter().map(|item| resolve(memo, texts, item.sql)).collect::<Vec<_>>()
            });
            for (item, (fp, resolved)) in batch.iter().zip(resolved.into_iter().flatten()) {
                ids.extend(self.apply(item, fp, resolved, &mut report).ok());
            }
        }
        let mut seen = HashSet::new();
        report.sighted = ids.into_iter().filter(|id| seen.insert(*id)).collect();
        self.publish_metrics(&report);
        report
    }

    /// Resolves and applies one statement on the calling thread.
    pub(crate) fn ingest_one(
        &mut self,
        item: &BatchItem<'_>,
        report: &mut BatchReport,
    ) -> Result<TemplateId, PreProcessError> {
        let (fp, resolved) = resolve(&self.memo, &self.distinct_texts, item.sql);
        self.apply(item, fp, resolved, report)
    }

    /// Applies one resolved statement (fingerprint `fp`) to the state.
    fn apply(
        &mut self,
        item: &BatchItem<'_>,
        fp: u64,
        resolved: Resolved,
        report: &mut BatchReport,
    ) -> Result<TemplateId, PreProcessError> {
        let (id, params) = match resolved {
            Resolved::Hit(id) => {
                report.cache_hits += 1;
                (id, None)
            }
            Resolved::Known(id, params) => (id, Some(params)),
            Resolved::New(TemplatizedQuery { template, text, params, .. }) => {
                (self.intern(template, text, item.minute, report), Some(params))
            }
            Resolved::Rejected(err) => {
                self.reject(item, &err, report);
                return Err(err);
            }
        };
        if params.is_some() {
            // A miss: the memo admits its text on the second one.
            self.memo.admit(item.sql, fp, id);
        }
        self.record(id, item.minute, item.count);
        self.entries[id.0 as usize]
            .params
            .offer(|| params.unwrap_or_else(|| cached_params(item.sql)));
        report.statements += 1;
        report.arrivals += item.count;
        Ok(id)
    }

    /// Adds one call's accounting to the installed recorder.
    pub(crate) fn publish_metrics(&self, report: &BatchReport) {
        self.metrics.ingested_statements.add(report.statements);
        self.metrics.ingested_arrivals.add(report.arrivals);
        self.metrics.quarantined_statements.add(report.quarantined_statements);
        self.metrics.quarantined_arrivals.add(report.quarantined_arrivals);
        self.metrics.cache_hits.add(report.cache_hits);
        self.metrics.templates.set(self.entries.len() as f64);
    }
}

#[cfg(test)]
impl PreProcessor {
    /// Raw texts the memo holds.
    pub(crate) fn cached_texts(&self) -> usize {
        self.memo.map.len()
    }

    /// This Pre-Processor with an empty memo bounded at `limit` texts.
    pub(crate) fn with_memo_limit(mut self, limit: usize) -> Self {
        self.memo = Memo::new(limit);
        self
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PreProcessor, PreProcessorConfig};

    /// A stream exercising every path: folding spellings, repeats,
    /// weighted arrivals, cross-chunk duplicates, quarantine, and one
    /// string repeated 200 times, so its template's reservoir (capacity
    /// 100) fills with re-parsed hits and then keeps replacing.
    fn mixed_stream() -> Vec<(Minute, String, u64)> {
        let mut stream = Vec::new();
        for i in 0..40i64 {
            stream.push((i % 7, format!("SELECT x FROM t WHERE id = {i}"), 1 + (i as u64 % 5)));
            for k in 0..5 {
                stream.push((i % 7 + k, "SELECT y FROM hot WHERE k = 'z'".to_string(), 1));
            }
            stream.push((i % 7, format!("SELECT x FROM u{} WHERE id = 1", i % 9), 2));
            if i % 4 == 0 {
                stream.push((i % 7, format!("INSERT INTO t (a) VALUES ({i})"), 1));
            }
            if i % 5 == 0 {
                // Same template as the first family, spelled with flipped
                // conjuncts so semantic folding has work to do.
                stream.push((i % 7, format!("SELECT x FROM t WHERE p = {i} AND q = 2"), 1));
                stream.push((i % 7, format!("SELECT x FROM t WHERE q = {i} AND p = 2"), 1));
            }
            if i % 11 == 0 {
                stream.push((i % 7, format!("BROKEN (( {i}"), 3));
            }
        }
        stream
    }

    fn batch_of(stream: &[(Minute, String, u64)]) -> Vec<BatchItem<'_>> {
        stream.iter().map(|(m, s, c)| BatchItem { minute: *m, sql: s, count: *c }).collect()
    }

    fn ingest_batched(stream: &[(Minute, String, u64)], width: usize, splits: usize) -> PreProcessor {
        run_chunked(PreProcessorConfig::default(), stream, width, stream.len().div_ceil(splits))
    }

    /// Ingests `stream` under `config` in batches of `chunk` statements
    /// (the last one shorter) on a pool of `width`, checking every batch's
    /// sighting feed against its definition: the distinct templates the
    /// batch's accepted statements map to, in first-sighting order.
    fn run_chunked(
        config: PreProcessorConfig,
        stream: &[(Minute, String, u64)],
        width: usize,
        chunk: usize,
    ) -> PreProcessor {
        feed_chunked(PreProcessor::new(config), stream, width, chunk)
    }

    /// [`run_chunked`] on a given Pre-Processor.
    fn feed_chunked(
        mut pp: PreProcessor,
        stream: &[(Minute, String, u64)],
        width: usize,
        chunk: usize,
    ) -> PreProcessor {
        let pool = ThreadPool::new(width);
        for b in batch_of(stream).chunks(chunk.max(1)) {
            let report = pp.ingest_batch(&pool, b);
            let mut want: Vec<TemplateId> = Vec::new();
            for item in b {
                if let Ok(stmt) = parse_statement(item.sql) {
                    let id = pp.distinct_texts[&templatize(&stmt).text];
                    if !want.contains(&id) {
                        want.push(id);
                    }
                }
            }
            assert_eq!(report.sighted, want, "width={width} chunk={chunk}: sighting feed");
        }
        pp
    }

    #[test]
    fn batch_matches_sequential_on_mixed_stream() {
        let stream = mixed_stream();
        let mut seq = PreProcessor::new(PreProcessorConfig::default());
        for (m, s, c) in &stream {
            let _ = seq.ingest_weighted(*m, s, *c);
        }
        let batched = ingest_batched(&stream, 4, 1);
        // The whole export — ids, texts, histories, reservoir contents and
        // RNG states — must match statement-at-a-time ingest, hits the
        // reservoir keeps and re-parses included.
        assert!(
            seq.templates().iter().any(|e| e.params.seen() > e.params.capacity() as u64),
            "a reservoir must fill and start replacing"
        );
        assert_eq!(seq.export_state(), batched.export_state());
    }

    #[test]
    fn batch_state_is_width_and_split_invariant() {
        let stream = mixed_stream();
        let base = ingest_batched(&stream, 1, 1).export_state();
        for (width, splits) in [(4, 1), (1, 3), (4, 3), (3, 5), (2, 17)] {
            let other = ingest_batched(&stream, width, splits).export_state();
            assert_eq!(base, other, "width={width} splits={splits} must be bit-identical");
        }
    }

    #[test]
    fn state_is_identical_on_both_sides_of_the_fanout_floor() {
        let stream = mixed_stream();
        assert!(stream.len() > 2 * FANOUT_MIN_STATEMENTS, "the stream must reach the floor");
        let base =
            run_chunked(PreProcessorConfig::default(), &stream, 1, stream.len()).export_state();
        let chunks = [
            1,
            FANOUT_MIN_STATEMENTS - 1,
            FANOUT_MIN_STATEMENTS,
            FANOUT_MIN_STATEMENTS + 1,
            stream.len(),
        ];
        for width in [1, 2, 4] {
            for chunk in chunks {
                let other = run_chunked(PreProcessorConfig::default(), &stream, width, chunk)
                    .export_state();
                assert_eq!(base, other, "width={width} chunk={chunk} must be bit-identical");
            }
        }
    }

    #[test]
    fn trace_stream_is_identical_on_both_sides_of_the_floor() {
        let stream = mixed_stream();
        let traced = |feed: &dyn Fn(&mut PreProcessor)| {
            let tracer = qb_trace::Tracer::enabled();
            let mut pp = PreProcessor::new(PreProcessorConfig::default());
            pp.set_tracer(&tracer);
            feed(&mut pp);
            let view = tracer.view();
            assert_eq!(view.of_kind(qb_trace::EventKind::QueryQuarantined).count(), 4);
            view.deterministic_stream()
        };
        let base = traced(&|pp| {
            for (m, s, c) in &stream {
                let _ = pp.ingest_weighted(*m, s, *c);
            }
        });
        for (width, chunk) in [(1, stream.len()), (4, stream.len()), (2, 32)] {
            let batched = traced(&|pp| {
                let pool = ThreadPool::new(width);
                for b in batch_of(&stream).chunks(chunk) {
                    pp.ingest_batch(&pool, b);
                }
            });
            assert_eq!(base, batched, "width={width} chunk={chunk}");
        }
    }

    #[test]
    fn only_batches_at_the_floor_reach_the_pool() {
        let stream = mixed_stream();
        let items = batch_of(&stream);
        let rec = qb_obs::Recorder::new();
        let pool = ThreadPool::new(4).instrumented(&rec);
        let fan_outs = || rec.snapshot().histograms.get("parallel.map").map_or(0, |h| h.count);
        let mut pp = PreProcessor::new(PreProcessorConfig::default());

        let (below, rest) = items.split_at(FANOUT_MIN_STATEMENTS - 1);
        pp.ingest_batch(&pool, below);
        assert_eq!(fan_outs(), 0, "a batch below the floor must run on the caller");
        pp.ingest_batch(&pool, &rest[..FANOUT_MIN_STATEMENTS]);
        assert_eq!(fan_outs(), 1, "a batch at the floor must fan out exactly once");
    }

    #[test]
    fn report_accounts_for_every_arrival() {
        let stream = mixed_stream();
        let items = batch_of(&stream);
        let mut pp = PreProcessor::new(PreProcessorConfig::default());
        let pool = ThreadPool::new(4);
        let report = pp.ingest_batch(&pool, &items);

        let offered_stmts = items.len() as u64;
        let offered_arrivals: u64 = items.iter().map(|i| i.count).sum();
        assert_eq!(report.statements + report.quarantined_statements, offered_stmts);
        assert_eq!(report.arrivals + report.quarantined_arrivals, offered_arrivals);
        assert_eq!(pp.stats().total_queries, report.arrivals);
        let history_total: u64 = pp.templates().iter().map(|e| e.history.total()).sum();
        assert_eq!(history_total, report.arrivals);
        assert_eq!(pp.quarantine().rejected_arrivals(), report.quarantined_arrivals);

        // Each sighted id appears exactly once and exists.
        let mut seen = std::collections::HashSet::new();
        for id in &report.sighted {
            assert!(seen.insert(*id), "{id:?} sighted twice");
            assert!((id.0 as usize) < pp.num_templates());
        }
        assert_eq!(seen.len(), pp.num_templates(), "every template was sighted this batch");
    }

    #[test]
    fn every_repeat_is_offered_to_the_reservoir() {
        let mut pp = PreProcessor::new(PreProcessorConfig::default());
        let pool = ThreadPool::new(2);
        let stream: Vec<(Minute, String, u64)> =
            (0..130).map(|_| (0, "SELECT x FROM t WHERE id = 1".to_string(), 1)).collect();
        let report = pp.ingest_batch(&pool, &batch_of(&stream));
        // The batch resolves against a memo that stays read-only until it
        // applies, so every arrival parses (the second admits the text),
        // and all 130 reach the reservoir, which keeps its capacity of
        // them.
        assert_eq!(report.cache_hits, 0);
        let params = &pp.templates()[0].params;
        assert_eq!(params.seen(), 130);
        assert_eq!(params.len(), params.capacity());
        assert!(params.items().iter().all(|p| *p == [Literal::Integer(1)]));
        assert_eq!(pp.templates()[0].history.total(), 130);

        // The next batch of the same text hits on every arrival, and each
        // hit is offered too.
        let report = pp.ingest_batch(&pool, &batch_of(&stream));
        assert_eq!(report.cache_hits, 130);
        let params = &pp.templates()[0].params;
        assert_eq!(params.seen(), 260);
        assert_eq!(params.len(), params.capacity());
        assert!(params.items().iter().all(|p| *p == [Literal::Integer(1)]));
        assert_eq!(pp.templates()[0].history.total(), 260);
    }

    #[test]
    fn batch_splitting_does_not_shift_the_cadence() {
        let stream: Vec<(Minute, String, u64)> =
            (0..130).map(|_| (0, "SELECT x FROM t WHERE id = 1".to_string(), 1)).collect();
        let one = ingest_batched(&stream, 1, 1).export_state();
        let many = ingest_batched(&stream, 4, 13).export_state();
        assert_eq!(one, many);
    }

    #[test]
    fn restore_with_a_cold_cache_continues_identically() {
        let stream = mixed_stream();
        let mut live = ingest_batched(&stream, 4, 2);
        let exported = live.export_state();
        let mut restored =
            PreProcessor::restore(PreProcessorConfig::default(), exported.clone()).unwrap();
        assert_eq!(restored.export_state(), exported, "restore must be lossless");

        // The live instance's warm memo resolves repeats the restored
        // one's cold memo parses, and both reach the same state.
        let follow = mixed_stream();
        let pool = ThreadPool::new(3);
        let ra = live.ingest_batch(&pool, &batch_of(&follow));
        let rb = restored.ingest_batch(&pool, &batch_of(&follow));
        assert!(ra.cache_hits > rb.cache_hits, "{} vs {}", ra.cache_hits, rb.cache_hits);
        assert_eq!(
            BatchReport { cache_hits: 0, ..ra },
            BatchReport { cache_hits: 0, ..rb },
            "the reports differ only in cache hits"
        );
        assert_eq!(live.export_state(), restored.export_state());
    }

    /// `mixed_stream`, then texts whose admission the doorkeeper decides
    /// differently at different bounds: 30 texts seen exactly twice in a
    /// row, and a ring of 100 texts sent twice, so each repeat comes 99
    /// distinct texts after its first sighting — farther apart than every
    /// doorkeeper below 128 entries holds.
    fn admission_stream() -> Vec<(Minute, String, u64)> {
        let mut stream = mixed_stream();
        for i in 0..30i64 {
            let sql = format!("SELECT x FROM t WHERE id = {}", 1_000 + i);
            stream.push((8 + i % 3, sql.clone(), 1));
            stream.push((8 + i % 3, sql, 2));
        }
        for pass in 0..2i64 {
            for i in 0..100i64 {
                let sql = format!("SELECT y FROM hot WHERE k = 'r{i}'");
                stream.push((12 + pass, sql, 1 + (i as u64 % 3)));
            }
        }
        stream
    }

    #[test]
    fn exported_state_never_depends_on_the_cache() {
        let stream = admission_stream();
        let base = ingest_batched(&stream, 1, 1).export_state();
        let chunks = [1, 7, FANOUT_MIN_STATEMENTS, stream.len()];
        for limit in [1, 7, 64, MEMO_LIMIT] {
            for width in [1, 4] {
                for chunk in chunks {
                    let pp =
                        PreProcessor::new(PreProcessorConfig::default()).with_memo_limit(limit);
                    let other = feed_chunked(pp, &stream, width, chunk).export_state();
                    assert_eq!(
                        base, other,
                        "memo limit={limit} width={width} chunk={chunk} must be bit-identical"
                    );
                }
            }
        }
    }

    #[test]
    fn a_text_is_cached_from_its_second_miss() {
        let pool = ThreadPool::new(2);
        let sql = "SELECT x FROM t WHERE id = 1";

        // On the calling thread: miss, miss (admitted), hit.
        let mut pp = PreProcessor::new(PreProcessorConfig::default());
        let one = [BatchItem { minute: 0, sql, count: 1 }];
        let steps: Vec<(u64, usize)> = (0..3)
            .map(|_| (pp.ingest_batch(&pool, &one).cache_hits, pp.cached_texts()))
            .collect();
        assert_eq!(steps, [(0, 0), (0, 1), (1, 1)], "(hits, cached texts) per ingest");

        // Fanned out: forty one-off texts take no slot, and the repeated
        // text is admitted on its second miss but cannot hit within the
        // batch, which resolves against a read-only memo.
        let mut stream: Vec<(Minute, String, u64)> =
            (0..40).map(|i| (0, format!("SELECT x FROM t WHERE id = {}", 10 + i), 1)).collect();
        for _ in 0..3 {
            stream.push((0, sql.to_string(), 1));
        }
        assert!(stream.len() >= FANOUT_MIN_STATEMENTS, "the batch must fan out");
        let mut pp = PreProcessor::new(PreProcessorConfig::default());
        let report = pp.ingest_batch(&pool, &batch_of(&stream));
        assert_eq!(report.cache_hits, 0);
        assert_eq!(pp.cached_texts(), 1, "one-off texts must not be cached");
        // A second sighting of a one-off admits it.
        let report = pp.ingest_batch(&pool, &batch_of(&stream[..1]));
        assert_eq!((report.cache_hits, pp.cached_texts()), (0, 2));
    }

    #[test]
    fn bus_tracker_days_keep_the_memo_small() {
        // Three BusTracker days, one batch per minute as the durable
        // workload ingests them. Caching every miss would hold every
        // distinct text (the memo never reaches its bound in three days);
        // admission on the second miss keeps an eighth of that or less.
        let trace = qb_workloads::Workload::BusTracker.generator(qb_workloads::TraceConfig {
            start: 0,
            days: 3,
            scale: 1.0,
            seed: 11,
        });
        let events: Vec<(Minute, String, u64)> =
            trace.map(|e| (e.minute, e.sql, e.count)).collect();
        let distinct: HashSet<&str> = events.iter().map(|(_, sql, _)| sql.as_str()).collect();

        let mut pp = PreProcessor::new(PreProcessorConfig::default());
        let pool = ThreadPool::new(2);
        let (mut peak, mut hits) = (0, 0);
        for minute in batch_of(&events).chunk_by(|a, b| a.minute == b.minute) {
            hits += pp.ingest_batch(&pool, minute).cache_hits;
            peak = peak.max(pp.cached_texts());
        }
        assert_eq!((events.len(), distinct.len()), (35_457, 24_319));
        assert!(peak * 8 <= distinct.len(), "peak {peak} of {} distinct texts", distinct.len());
        // Caching every miss held 24 319 slots for 11 138 hits.
        assert_eq!((peak, hits), (432, 10_690));
    }

    #[test]
    fn shard_caches_evict_and_recover_under_churn() {
        // A memo of 8 texts. Each text is sent twice in a row, so its
        // second miss admits it whatever its doorkeeper entry shares.
        let mut pp = PreProcessor::new(PreProcessorConfig::default()).with_memo_limit(8);
        let pool = ThreadPool::new(2);
        let twice = |base: usize| -> Vec<(Minute, String, u64)> {
            let sql = |i: usize| format!("SELECT x FROM t WHERE id = {}", base + i / 2);
            (0..16).map(|i| (0, sql(i), 1)).collect()
        };
        let report = pp.ingest_batch(&pool, &batch_of(&twice(0)));
        assert_eq!((report.cache_hits, pp.cached_texts()), (0, 8), "the first set fills the cache");
        // Churn: the new working set's first admission trips the reset and
        // the cache refills with what is hot now...
        let report = pp.ingest_batch(&pool, &batch_of(&twice(100)));
        assert_eq!((report.cache_hits, pp.cached_texts()), (0, 8));
        // ...so repeats of the *new* set hit cache instead of re-parsing
        // forever (the fill-once-never-evict failure mode).
        let gen2: Vec<(Minute, String, u64)> = twice(100).into_iter().step_by(2).collect();
        let report = pp.ingest_batch(&pool, &batch_of(&gen2));
        assert_eq!(report.cache_hits, 8, "new working set must be fully cached after churn");
    }

    #[test]
    fn fingerprint_is_stable_and_content_addressed() {
        // Fixed values: the hash must not change between processes or
        // builds, or hit counts would stop repeating.
        for (sql, want) in [
            ("SELECT x FROM t WHERE id = 1", 0xb21e_5333_9b35_3ec9),
            ("", 0),
            ("δ unicode ≠ ascii", 0xad7d_28ce_3c2a_ef35),
        ] {
            assert_eq!(fingerprint(sql), want, "{sql:?}");
        }
        // Content-addressed, not identity-addressed: equal strings at
        // different addresses hash identically, and the tail counts.
        let a = String::from("SELECT x FROM t WHERE id = 42");
        let b = a.clone();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint("SELECT x FROM t WHERE id = 43"));
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut pp = PreProcessor::new(PreProcessorConfig::default());
        let pool = ThreadPool::new(4);
        let report = pp.ingest_batch(&pool, &[]);
        assert_eq!(report, BatchReport::default());
        assert_eq!(pp.num_templates(), 0);
    }
}
