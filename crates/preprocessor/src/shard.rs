//! The ingest engine: every statement the Pre-Processor takes goes through
//! the shard caches here.
//!
//! A statement is routed to one of a fixed number of logical shards by a
//! content hash of its raw SQL text, its `fingerprint`. Each shard owns a
//! private raw-string cache — a memo from raw SQL to template — and one
//! per-statement kernel resolves a statement against it (`Shard::touch`;
//! on a miss `parse`, then `Shard::settle`): a slot hit maps the text
//! straight to its template, and a miss parses and templatizes. The memo
//! admits a text on its second miss: the shard's doorkeeper, a fixed array
//! of fingerprints, remembers the first, so one-off texts (most of a
//! stream whose literals churn) never take a slot. Every accepted statement,
//! hit or miss, is offered to its template's parameter reservoir; a hit
//! the reservoir keeps re-parses its own text for the parameters. Two
//! drivers run that kernel, split by `FANOUT_MIN_STATEMENTS`:
//!
//! * **On the calling thread** (smaller batches, and every
//!   [`PreProcessor::ingest_weighted`] call, which is a batch of one) each
//!   statement is interned and applied — history, stats, reservoir offer,
//!   quarantine admission — before the next one is looked at, in arrival
//!   order.
//! * **Fanned out on the pool** (larger batches) the shards resolve their
//!   statements against an *immutable* view of the template table and emit
//!   coalesced history deltas, pending templates, reservoir offers and
//!   quarantine candidates. A sequential merge then interns the pendings in
//!   global first-sighting order, applies the deltas, and replays offers
//!   and admissions in arrival order.
//!
//! # Determinism invariants
//!
//! * **Routing is content-addressed.** `fingerprint` is a fixed hash of
//!   the raw bytes — never a `RandomState` hash — so a statement lands on
//!   the same shard, and is admitted to its cache on the same miss, in
//!   every process, at every pool width.
//! * **Shard count is config, not width.** `ingest_shards` fixes the
//!   logical decomposition; the worker pool merely executes shards. Widths
//!   1 and N produce byte-identical state.
//! * **Interning order is sighting order.** The caller interns in arrival
//!   order; the merge interns pendings sorted by the global batch index of
//!   their first sighting. Template ids and the seed chain feeding each
//!   reservoir RNG therefore do not depend on the side of the floor, the
//!   pool width, or how a stream is cut into batches. Offers and quarantine
//!   admissions land in arrival order on both sides.
//! * **Exported state never depends on the cache.** A hit resolves to the
//!   template a parse would, and is offered to the reservoir like a miss,
//!   with the parameters a parse yields. Whether a statement hits is
//!   therefore invisible to everything but speed and the `cache_hits`
//!   count: nothing of the cache or its doorkeeper is exported, a restored
//!   Pre-Processor starts with cold caches, and `raw_cache_limit` and
//!   `ingest_shards` bound memory and throughput only.
//!
//! The differential tests in this module pin all four: whole exports —
//! reservoirs included — agree across widths, batch splits, both sides of
//! the floor, statement-at-a-time ingest, cache bounds and shard counts.

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
    /// Statements accepted (parsed or cache-resolved).
    pub statements: u64,
    /// Weighted arrivals accepted.
    pub arrivals: u64,
    /// Statements rejected by the parser.
    pub quarantined_statements: u64,
    /// Weighted arrivals rejected.
    pub quarantined_arrivals: u64,
    /// Templates interned for the first time by this batch.
    pub new_templates: u64,
    /// Shard-cache hits: statements resolved to their template without a
    /// parse.
    pub cache_hits: u64,
    /// Distinct template ids sighted by this batch, ordered by first
    /// sighting. This is the clusterer's observation feed.
    pub sighted: Vec<TemplateId>,
}

/// Batches shorter than this run on the calling thread; longer ones fan
/// their shards out on the pool.
///
/// A fan-out spawns and joins one scoped thread per worker, which costs
/// more than a small tick's whole shard phase: on 2 vCPUs at width 2 the
/// bare engine took 20.5 µs per statement against 7.6 µs at width 1 on
/// bus-sized ticks. The floor sits between the tick sizes the
/// `qb_e2e` workloads produce: `durable_bus` ticks average 8.6 statements
/// and gained 31–33 % in `ingest_stmts_per_s` from staying on the caller
/// (median of ten pairs, seeds 11 and 37), while `wide_churn`'s per-minute
/// ticks hold 55–115 statements and lost 21 % when they never fanned out.
/// State is bit-identical on either side of it.
const FANOUT_MIN_STATEMENTS: usize = 32;

/// A statement's fingerprint: a multiplicative hash of its raw SQL taking
/// eight bytes a step (the tail zero-padded), finished with MurmurHash3's
/// 64-bit mixer. Process-stable and independent of `HashMap`'s per-process
/// `RandomState`, so the shard a statement routes to and the miss that
/// admits it to the cache, and with them every hit count, repeat in every
/// process; and cheap, because every statement pays it once: on 111-byte
/// BusTracker statements it takes 24 ns, where byte-at-a-time FNV-1a (one
/// dependent multiply per byte) took 100–125 ns.
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

/// The logical shard a fingerprint routes to.
fn route(fp: u64, shards: usize) -> usize {
    (fp % shards as u64) as usize
}

/// Where a shard-cache slot, or a statement of a fanned-out batch, points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    /// A template already in the global table.
    Known(TemplateId),
    /// The `n`-th template this shard has ever proposed; resolves through
    /// [`Shard::resolved`] once the proposing batch's merge completes.
    Pending(u32),
}

#[derive(Debug)]
struct Slot {
    target: Target,
    /// Batch tick of the most recent touch (once-per-batch sighting dedup).
    last_tick: u64,
}

/// The kernel's slow half: parse and templatize.
fn parse(sql: &str) -> Result<TemplatizedQuery, PreProcessError> {
    Ok(templatize(&parse_statement(sql)?))
}

/// The parameters of a cached statement, for a reservoir that keeps a
/// hit. Cannot fail: a slot exists only for text that has parsed.
fn cached_params(sql: &str) -> Vec<Literal> {
    parse(sql).expect("a cached statement has parsed before").params
}

/// A template text a fanned-out shard saw for the first time, carried to
/// the merge by value so interning never re-parses.
#[derive(Debug)]
struct PendingTemplate {
    /// Global batch index of the first sighting.
    first_idx: usize,
    /// Arrival minute of the first sighting (for the trace event).
    first_minute: Minute,
    text: String,
    template: qb_sqlparse::Statement,
}

/// Everything one fanned-out shard produced for one batch.
#[derive(Debug, Default)]
struct ShardOutput {
    pendings: Vec<PendingTemplate>,
    /// Coalesced history deltas: consecutive same-target same-minute
    /// arrivals merge into one record, which is what turns per-statement
    /// history updates into per-tick updates.
    deltas: Vec<(Target, Minute, u64)>,
    /// Reservoir offers, tagged with the global batch index for ordered
    /// replay at merge. A miss carries its parameters; a hit carries
    /// `None`, and the merge re-parses it only if the reservoir keeps it.
    offers: Vec<(usize, Target, Option<Vec<Literal>>)>,
    /// Parse rejections, tagged with the global batch index.
    quarantined: Vec<(usize, PreProcessError)>,
    /// First touch of each slot this batch, tagged with the global index.
    sighted: Vec<(usize, Target)>,
    statements: u64,
    arrivals: u64,
    cache_hits: u64,
}

/// One logical ingest shard: a private raw-string cache, its admission
/// doorkeeper, and the pending resolution table. Survives across batches;
/// never exported.
///
/// A text enters the cache on its second miss, not its first. Most raw
/// texts in a real stream never come back (literals churn), so caching
/// every miss spends most slots on statements that will never hit. The
/// doorkeeper is a fixed array of fingerprints, one per slot of the
/// shard's bound rounded up to a power of two: a miss whose fingerprint
/// already sits in its doorkeeper entry is cached, any other miss writes
/// its fingerprint there and caches nothing. A fingerprint collision or
/// overwrite can only admit a text early or late, never map it to a wrong
/// template, because the cache stays keyed on the full text; and since
/// exported state never depends on the cache, neither does it depend on
/// the doorkeeper.
#[derive(Debug)]
pub(crate) struct Shard {
    map: HashMap<String, Slot>,
    /// Fingerprints of texts that missed once, indexed by bits of the
    /// fingerprint that routing does not consume (see `settle`).
    doorkeeper: Vec<u64>,
    /// Pending index → interned id, appended at every merge. Slots holding
    /// `Pending` targets rewrite themselves lazily on their next touch.
    resolved: Vec<TemplateId>,
    /// Generational-reset bound for `map` (the shard's share of
    /// `raw_cache_limit`).
    limit: usize,
}

impl Shard {
    pub(crate) fn new(limit: usize) -> Self {
        let limit = limit.max(1);
        Self {
            map: HashMap::new(),
            doorkeeper: vec![0; limit.next_power_of_two()],
            resolved: Vec::new(),
            limit,
        }
    }

    /// The kernel's fast half: the target of `sql`'s slot, and whether this
    /// is the slot's first touch this batch; `None` on a miss. No
    /// allocation, one hash lookup.
    fn touch(&mut self, sql: &str, tick: u64) -> Option<(Target, bool)> {
        let slot = self.map.get_mut(sql)?;
        if let Target::Pending(p) = slot.target {
            if let Some(&id) = self.resolved.get(p as usize) {
                slot.target = Target::Known(id);
            }
        }
        let first = std::mem::replace(&mut slot.last_tick, tick) != tick;
        Some((slot.target, first))
    }

    /// Settles a miss of `sql` (fingerprint `fp`), whose parse resolved it
    /// to `target`: on the text's second miss its slot is cached, touched
    /// first this batch; on its first, the doorkeeper remembers it.
    fn settle(&mut self, sql: &str, fp: u64, target: Target, tick: u64) {
        // The shard is `fp % shards`, so within one shard the low bits are
        // correlated; the high half indexes the doorkeeper instead.
        let door = (fp >> 32) as usize & (self.doorkeeper.len() - 1);
        if std::mem::replace(&mut self.doorkeeper[door], fp) != fp {
            return;
        }
        // Generational reset: at the shard's bound the whole cache is
        // dropped and refills with what is hot now, so template churn
        // cannot freeze it on a stale working set.
        if self.map.len() >= self.limit {
            self.map.clear();
        }
        self.map.insert(sql.to_string(), Slot { target, last_tick: tick });
    }

    /// The fanned-out shard phase: resolves this shard's statements of
    /// `batch` (`routed`: batch index and fingerprint, in arrival order)
    /// against the immutable template table, proposing pending templates
    /// for texts nobody has interned.
    fn run_batch(
        &mut self,
        batch: &[BatchItem<'_>],
        routed: &[(usize, u64)],
        distinct_texts: &HashMap<String, TemplateId>,
        tick: u64,
    ) -> ShardOutput {
        let mut out = ShardOutput::default();
        // Template text → absolute pending index, for texts first proposed
        // by this very batch (not evicted with the slot cache).
        let mut local_texts: HashMap<String, u32> = HashMap::new();

        for &(idx, fp) in routed {
            let item = &batch[idx];
            let (target, params, first) = match self.touch(item.sql, tick) {
                Some((target, first)) => {
                    out.cache_hits += 1;
                    (target, None, first)
                }
                None => {
                    let TemplatizedQuery { template, text, params, .. } = match parse(item.sql) {
                        Ok(query) => query,
                        Err(err) => {
                            out.quarantined.push((idx, err));
                            continue;
                        }
                    };
                    let target = if let Some(&id) = distinct_texts.get(&text) {
                        Target::Known(id)
                    } else if let Some(&p) = local_texts.get(&text) {
                        Target::Pending(p)
                    } else {
                        let p = (self.resolved.len() + out.pendings.len()) as u32;
                        local_texts.insert(text.clone(), p);
                        out.pendings.push(PendingTemplate {
                            first_idx: idx,
                            first_minute: item.minute,
                            text,
                            template,
                        });
                        Target::Pending(p)
                    };
                    self.settle(item.sql, fp, target, tick);
                    (target, Some(params), true)
                }
            };
            if first {
                out.sighted.push((idx, target));
            }
            out.offers.push((idx, target, params));
            out.statements += 1;
            out.arrivals += item.count;
            push_delta(&mut out.deltas, target, item.minute, item.count);
        }
        out
    }

    /// Resolves a target against this shard's tables.
    fn resolve(&self, target: Target) -> TemplateId {
        match target {
            Target::Known(id) => id,
            Target::Pending(p) => self.resolved[p as usize],
        }
    }
}

fn push_delta(deltas: &mut Vec<(Target, Minute, u64)>, target: Target, minute: Minute, count: u64) {
    if let Some(last) = deltas.last_mut() {
        if last.0 == target && last.1 == minute {
            last.2 += count;
            return;
        }
    }
    deltas.push((target, minute, count));
}

impl PreProcessor {
    /// Starts a batch: materializes the shards on first use and advances
    /// the tick that dedups each slot's sightings to one per batch. Shard
    /// count and per-shard cache bounds come from config, never from the
    /// worker pool.
    pub(crate) fn begin_batch(&mut self) {
        if self.shards.is_empty() {
            let n = self.config.ingest_shards.max(1);
            let limit = (self.config.raw_cache_limit / n).max(1);
            self.shards = (0..n).map(|_| Shard::new(limit)).collect();
        }
        self.tick += 1;
    }

    /// Ingests a batch of statements through the sharded engine.
    ///
    /// Equivalent to calling
    /// [`ingest_weighted`](PreProcessor::ingest_weighted) for each item in
    /// order: template ids, arrival histories, parameter reservoirs, ingest
    /// stats and the quarantine come out identical. A batch
    /// of at least `FANOUT_MIN_STATEMENTS` statements fans out across the
    /// `ingest_shards` logical shards on `pool`, with history updates
    /// coalesced per tick; a smaller one runs on the calling thread, where
    /// a thread hand-off would cost more than the work. The result is
    /// bit-identical for any pool width (including 1) and for any way of
    /// splitting the same stream into batches; see the module docs for the
    /// invariants that guarantee it.
    pub fn ingest_batch(&mut self, pool: &ThreadPool, batch: &[BatchItem<'_>]) -> BatchReport {
        let _span = self.metrics.ingest_time.start();
        self.begin_batch();
        let mut report = BatchReport::default();
        if batch.len() < FANOUT_MIN_STATEMENTS {
            for item in batch {
                if let Ok((id, true)) = self.ingest_on_caller(item, &mut report) {
                    // Two raw spellings of one template may both be first
                    // touches of their slots.
                    if !report.sighted.contains(&id) {
                        report.sighted.push(id);
                    }
                }
            }
        } else {
            self.fan_out(pool, batch, &mut report);
        }
        self.publish_metrics(&report);
        report
    }

    /// The calling-thread driver, one statement: resolves it through its
    /// shard, interns it and applies it before the next statement is looked
    /// at. Returns the template and whether this was its slot's first touch
    /// this batch.
    pub(crate) fn ingest_on_caller(
        &mut self,
        item: &BatchItem<'_>,
        report: &mut BatchReport,
    ) -> Result<(TemplateId, bool), PreProcessError> {
        let fp = fingerprint(item.sql);
        let s = route(fp, self.shards.len());
        let tick = self.tick;
        let (id, first) = match self.shards[s].touch(item.sql, tick) {
            Some((target, first)) => {
                report.cache_hits += 1;
                let id = self.shards[s].resolve(target);
                self.record(id, item.minute, item.count);
                self.entries[id.0 as usize].params.offer(|| cached_params(item.sql));
                (id, first)
            }
            None => {
                let TemplatizedQuery { template, text, params, .. } = match parse(item.sql) {
                    Ok(query) => query,
                    Err(err) => {
                        self.reject(item, &err, report);
                        return Err(err);
                    }
                };
                let id = self.intern(template, text, item.minute, report);
                self.record(id, item.minute, item.count);
                self.entries[id.0 as usize].params.offer(|| params);
                self.shards[s].settle(item.sql, fp, Target::Known(id), tick);
                (id, true)
            }
        };
        report.statements += 1;
        report.arrivals += item.count;
        Ok((id, first))
    }

    /// The fanned-out driver: the shard phase on `pool`, then the
    /// sequential merge.
    fn fan_out(&mut self, pool: &ThreadPool, batch: &[BatchItem<'_>], report: &mut BatchReport) {
        let nshards = self.shards.len();
        let mut routed: Vec<Vec<(usize, u64)>> = vec![Vec::new(); nshards];
        for (idx, item) in batch.iter().enumerate() {
            let fp = fingerprint(item.sql);
            routed[route(fp, nshards)].push((idx, fp));
        }

        // Shard phase: mutable over shard-local state, immutable over the
        // shared template tables.
        let distinct_texts = &self.distinct_texts;
        let tick = self.tick;
        let mut outputs: Vec<ShardOutput> = pool.map_mut(&mut self.shards, |i, sh| {
            sh.run_batch(batch, &routed[i], distinct_texts, tick)
        });

        // Merge, step 1: intern pending templates in global first-sighting
        // order, so id assignment and the reservoir seed chain match
        // statement-at-a-time ingest exactly.
        let mut interned: Vec<Vec<Option<TemplateId>>> =
            outputs.iter().map(|o| vec![None; o.pendings.len()]).collect();
        let mut pendings: Vec<(usize, usize, PendingTemplate)> = Vec::new();
        for (s, out) in outputs.iter_mut().enumerate() {
            pendings.extend(out.pendings.drain(..).enumerate().map(|(local, p)| (s, local, p)));
        }
        pendings.sort_unstable_by_key(|(_, _, p)| p.first_idx);
        for (s, local, p) in pendings {
            interned[s][local] = Some(self.intern(p.template, p.text, p.first_minute, report));
        }
        for (shard, ids) in self.shards.iter_mut().zip(interned) {
            shard.resolved.extend(ids.into_iter().map(|id| id.expect("every pending interned")));
        }

        // Step 2: history deltas and kind stats. History record order is
        // commutative per minute, so shard order here is for determinism
        // of iteration, not correctness.
        for (s, out) in outputs.iter().enumerate() {
            for &(target, minute, count) in &out.deltas {
                let id = self.shards[s].resolve(target);
                self.record(id, minute, count);
            }
            report.statements += out.statements;
            report.arrivals += out.arrivals;
            report.cache_hits += out.cache_hits;
        }

        // Step 3: reservoir offers in arrival order across all shards.
        let mut offers: Vec<(usize, usize, Target, Option<Vec<Literal>>)> = Vec::new();
        for (s, out) in outputs.iter_mut().enumerate() {
            offers.extend(out.offers.drain(..).map(|(idx, target, offer)| (idx, s, target, offer)));
        }
        offers.sort_unstable_by_key(|&(idx, s, ..)| (idx, s));
        for (idx, s, target, params) in offers {
            let id = self.shards[s].resolve(target);
            let sql = batch[idx].sql;
            self.entries[id.0 as usize]
                .params
                .offer(|| params.unwrap_or_else(|| cached_params(sql)));
        }

        // Step 4: quarantine admissions in arrival order.
        let mut quarantined: Vec<(usize, PreProcessError)> =
            outputs.iter_mut().flat_map(|o| o.quarantined.drain(..)).collect();
        quarantined.sort_unstable_by_key(|&(idx, _)| idx);
        for (idx, err) in &quarantined {
            self.reject(&batch[*idx], err, report);
        }

        // Step 5: the sighting feed, deduped by template in first-sighting
        // order (two raw spellings of one template may both fire).
        let mut sighted: Vec<(usize, usize, Target)> = Vec::new();
        for (s, out) in outputs.iter().enumerate() {
            sighted.extend(out.sighted.iter().map(|&(idx, target)| (idx, s, target)));
        }
        sighted.sort_unstable_by_key(|&(idx, s, _)| (idx, s));
        let mut seen = HashSet::new();
        for (_, s, target) in sighted {
            let id = self.shards[s].resolve(target);
            if seen.insert(id) {
                report.sighted.push(id);
            }
        }
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
    /// Raw texts cached across the shards.
    pub(crate) fn cached_texts(&self) -> usize {
        self.shards.iter().map(|s| s.map.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PreProcessor, PreProcessorConfig};

    /// A stream exercising every path: folding spellings, repeats,
    /// weighted arrivals, cross-shard duplicates, quarantine, and one
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
        let mut pp = PreProcessor::new(config);
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
        // The first two arrivals parse (the second is admitted to the
        // cache) and every later one hits, yet all 130 reach the
        // reservoir, which keeps its capacity of them.
        assert_eq!(report.cache_hits, 128);
        let params = &pp.templates()[0].params;
        assert_eq!(params.seen(), 130);
        assert_eq!(params.len(), params.capacity());
        assert!(params.items().iter().all(|p| *p == [Literal::Integer(1)]));
        assert_eq!(pp.templates()[0].history.total(), 130);
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

        // The live instance's warm caches resolve repeats the restored
        // one's cold caches parse, and both reach the same state.
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
        for raw_cache_limit in [1, 7, 64, 65_536] {
            for ingest_shards in [1, 3, 8] {
                let config = PreProcessorConfig {
                    raw_cache_limit,
                    ingest_shards,
                    ..PreProcessorConfig::default()
                };
                for width in [1, 4] {
                    for chunk in chunks {
                        let other =
                            run_chunked(config.clone(), &stream, width, chunk).export_state();
                        assert_eq!(
                            base, other,
                            "raw_cache_limit={raw_cache_limit} ingest_shards={ingest_shards} \
                             width={width} chunk={chunk} must be bit-identical"
                        );
                    }
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
        // text hits from its third sighting on, within one batch.
        let mut stream: Vec<(Minute, String, u64)> =
            (0..40).map(|i| (0, format!("SELECT x FROM t WHERE id = {}", 10 + i), 1)).collect();
        for _ in 0..3 {
            stream.push((0, sql.to_string(), 1));
        }
        assert!(stream.len() >= FANOUT_MIN_STATEMENTS, "the batch must fan out");
        let mut pp = PreProcessor::new(PreProcessorConfig::default());
        let report = pp.ingest_batch(&pool, &batch_of(&stream));
        assert_eq!(report.cache_hits, 1);
        assert_eq!(pp.cached_texts(), 1, "one-off texts must not be cached");
        // A second sighting of a one-off admits it.
        let report = pp.ingest_batch(&pool, &batch_of(&stream[..1]));
        assert_eq!((report.cache_hits, pp.cached_texts()), (0, 2));
    }

    #[test]
    fn bus_tracker_days_keep_the_memo_small() {
        // Three BusTracker days, one batch per minute as the durable
        // workload ingests them. Caching every miss would hold every
        // distinct text (no shard reaches its 8 192-slot bound in three
        // days); admission on the second miss keeps an eighth of that or
        // less.
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
        assert_eq!((peak, hits), (430, 10_690));
    }

    #[test]
    fn shard_caches_evict_and_recover_under_churn() {
        // One shard so the generational-reset arithmetic is exact; the
        // multi-shard case applies the same policy per shard. Each text is
        // sent twice in a row, so its second miss admits it whatever its
        // doorkeeper entry shares.
        let mut pp = PreProcessor::new(PreProcessorConfig {
            raw_cache_limit: 8,
            ingest_shards: 1,
            ..PreProcessorConfig::default()
        });
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
    fn routing_is_deterministic_and_in_range() {
        for n in [1, 2, 8, 13] {
            for sql in ["SELECT x FROM t WHERE id = 1", "", "δ unicode ≠ ascii"] {
                let a = route(fingerprint(sql), n);
                assert_eq!(a, route(fingerprint(sql), n));
                assert!(a < n);
            }
        }
        // The hash is content-addressed, not identity-addressed: equal
        // strings at different addresses route identically.
        let a = String::from("SELECT x FROM t WHERE id = 42");
        let b = a.clone();
        assert_eq!(fingerprint(&a), fingerprint(&b));
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
