//! Sharded, batched ingest: the sustained-traffic front end.
//!
//! [`PreProcessor::ingest_batch`] processes a tick's worth of statements in
//! two phases:
//!
//! 1. **Shard phase** (on the pool at or above `FANOUT_MIN_STATEMENTS`
//!    statements, on the calling thread below it) — statements are routed
//!    to a fixed number of logical shards by a content hash of the raw SQL
//!    text. Each shard owns a private raw-string cache and resolves as much
//!    as it can against it plus *immutable* views of the shared template
//!    table, emitting per-shard outputs: coalesced arrival-history deltas
//!    for known templates, pending templates for texts it has never seen,
//!    reservoir offers, and quarantine candidates.
//! 2. **Merge phase** (sequential, deterministic) — pending templates are
//!    interned in global first-sighting order, deltas and offers are
//!    applied, and quarantine admissions replay in arrival order.
//!
//! # Determinism invariants
//!
//! * **Routing is content-addressed.** `route` is FNV-1a over the raw
//!   bytes — never a `RandomState` hash — so a statement lands on the same
//!   shard in every process, at every pool width.
//! * **Shard count is config, not width.** `ingest_shards` fixes the
//!   logical decomposition; the worker pool (or, for a small batch, the
//!   calling thread) merely executes shards. Widths 1 and N produce
//!   byte-identical state.
//! * **Merge order is sighting order.** New templates intern sorted by the
//!   global batch index of their first sighting, which makes template-id
//!   assignment (and the seed chain feeding each reservoir RNG) identical
//!   to sequential ingest of the same stream. Offers and quarantine
//!   admissions replay sorted by batch index.
//! * **Re-parse cadence is per-slot.** Each shard slot re-parses its 64th,
//!   128th, … hit based on its own counter, so the cadence is a function
//!   of the statement stream alone — splitting one batch into many, or
//!   changing the pool width, never shifts it.
//!
//! The one sequential divergence is deliberate: the single-threaded path
//! derives its re-parse cadence from a *global* hit counter, the sharded
//! path from per-slot counters, so the two paths may refresh parameter
//! reservoirs on different arrivals. Everything else — template ids,
//! histories, stats, quarantine — matches the sequential path bit for bit
//! (the differential tests in this module pin that).

use std::collections::HashMap;

use qb_parallel::ThreadPool;
use qb_sqlparse::{parse_statement, Literal};
use qb_timeseries::Minute;
use qb_trace::{EventDraft, EventKind};

use crate::{
    templatize, PreProcessError, PreProcessor, TemplateId, TemplatizedQuery,
};

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
    /// Shard-cache hits (parser bypasses).
    pub cache_hits: u64,
    /// Distinct template ids sighted by this batch, ordered by first
    /// sighting. This is the clusterer's observation feed.
    pub sighted: Vec<TemplateId>,
}

/// Batches shorter than this run the shard phase on the calling thread;
/// longer ones fan out on the pool.
///
/// A fan-out spawns and joins one scoped thread per worker, which costs
/// more than a small tick's whole shard phase: on 2 vCPUs at width 2 the
/// bare engine took 20.5 µs per statement against 7.6 µs at width 1 on
/// bus-sized ticks. The floor sits between the tick sizes the
/// `qb_e2e` workloads produce: `durable_bus` ticks average 8.6 statements
/// and gained 31–33 % in `ingest_stmts_per_s` from staying on the caller
/// (median of ten pairs, seeds 11 and 37), while `wide_churn`'s per-minute
/// ticks hold 55–115 statements and lost 21 % when they never fanned out. The decision only picks who runs the
/// shards, so state is bit-identical on either side of it.
const FANOUT_MIN_STATEMENTS: usize = 32;

/// Routes raw SQL to a logical shard. FNV-1a over the raw bytes: cheap,
/// process-stable, and independent of `HashMap`'s per-process `RandomState`
/// — the routing decision is part of the durable-state contract.
pub(crate) fn route(sql: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in sql.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// Where a shard-cache slot points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotTarget {
    /// A template already in the global table.
    Known(TemplateId),
    /// The `n`-th template this shard has ever proposed; resolves through
    /// [`Shard::resolved`] once the proposing batch's merge completes.
    Pending(u32),
}

/// A template reference inside one batch's shard output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    Known(TemplateId),
    /// Absolute pending index in the emitting shard.
    Pending(u32),
}

#[derive(Debug)]
struct Slot {
    target: SlotTarget,
    /// Touches of this slot; drives the 1-in-64 re-parse cadence.
    hits: u64,
    /// Batch tick of the most recent touch (once-per-batch sighting dedup).
    last_tick: u64,
}

/// A template text this shard saw for the first time, carried to the merge
/// phase by value so interning never re-parses.
#[derive(Debug)]
struct PendingTemplate {
    /// Global batch index of the first sighting.
    first_idx: usize,
    /// Arrival minute of the first sighting (for the trace event).
    first_minute: Minute,
    text: String,
    template: qb_sqlparse::Statement,
}

/// Everything one shard produced for one batch.
#[derive(Debug, Default)]
struct ShardOutput {
    pendings: Vec<PendingTemplate>,
    /// Coalesced history deltas: consecutive same-target same-minute
    /// arrivals merge into one record, which is what turns per-statement
    /// history updates into per-tick updates.
    deltas: Vec<(Target, Minute, u64)>,
    /// Reservoir offers, tagged with the global batch index for ordered
    /// replay at merge.
    offers: Vec<(usize, Target, Vec<Literal>)>,
    /// Parse rejections, tagged with the global batch index.
    quarantined: Vec<(usize, PreProcessError)>,
    /// First touch of each slot this batch, tagged with the global index.
    sighted: Vec<(usize, Target)>,
    statements: u64,
    arrivals: u64,
    cache_hits: u64,
}

/// One logical ingest shard: a private raw-string cache plus the pending
/// resolution table. Survives across batches; exported as part of
/// [`crate::PreProcessorState`].
#[derive(Debug, Default)]
pub(crate) struct Shard {
    map: HashMap<String, Slot>,
    /// Pending index → interned id, appended at every merge. Slots holding
    /// `Pending` targets rewrite themselves lazily on their next touch.
    resolved: Vec<TemplateId>,
    /// Monotonic batch counter; bumped at the start of every batch so
    /// `Slot::last_tick` dedups sightings without a per-batch sweep.
    tick: u64,
    /// Generational-reset bound for `map` (the shard's share of
    /// `raw_cache_limit`).
    limit: usize,
}

impl Shard {
    pub(crate) fn new(limit: usize) -> Self {
        Self { map: HashMap::new(), resolved: Vec::new(), tick: 0, limit: limit.max(1) }
    }

    /// Slots as plain data, pendings resolved. Only callable between
    /// batches (merge resolves every pending before returning).
    pub(crate) fn export_slots(&self) -> Vec<(String, TemplateId, u64)> {
        self.map
            .iter()
            .map(|(sql, slot)| {
                let id = match slot.target {
                    SlotTarget::Known(id) => id,
                    SlotTarget::Pending(p) => self.resolved[p as usize],
                };
                (sql.clone(), id, slot.hits)
            })
            .collect()
    }

    /// Reinstalls one exported slot. Ticks restart at zero, which only
    /// resets the once-per-batch sighting dedup.
    pub(crate) fn restore_slot(&mut self, sql: String, id: TemplateId, hits: u64) {
        self.map.insert(sql, Slot { target: SlotTarget::Known(id), hits, last_tick: 0 });
    }

    fn run_batch(
        &mut self,
        batch: &[BatchItem<'_>],
        idxs: &[usize],
        distinct_texts: &HashMap<String, TemplateId>,
    ) -> ShardOutput {
        self.tick += 1;
        let tick = self.tick;
        let mut out = ShardOutput::default();
        // Template text → absolute pending index, for texts first proposed
        // by this very batch (not evicted with the slot cache).
        let mut local_texts: HashMap<String, u32> = HashMap::new();

        for &idx in idxs {
            let item = &batch[idx];
            let hit = if let Some(slot) = self.map.get_mut(item.sql) {
                if let SlotTarget::Pending(p) = slot.target {
                    if (p as usize) < self.resolved.len() {
                        slot.target = SlotTarget::Known(self.resolved[p as usize]);
                    }
                }
                slot.hits += 1;
                out.cache_hits += 1;
                // Fast path: 63 of 64 touches bypass the parser entirely —
                // no allocation, one hash lookup, one delta record.
                if !slot.hits.is_multiple_of(64) {
                    let target = match slot.target {
                        SlotTarget::Known(id) => Target::Known(id),
                        SlotTarget::Pending(p) => Target::Pending(p),
                    };
                    out.statements += 1;
                    out.arrivals += item.count;
                    push_delta(&mut out.deltas, target, item.minute, item.count);
                    if slot.last_tick != tick {
                        slot.last_tick = tick;
                        out.sighted.push((idx, target));
                    }
                    continue;
                }
                true
            } else {
                false
            };

            // Slow path: either a cache miss or a slot's 64th touch (the
            // reservoir-refresh re-parse, mirroring the sequential path).
            let stmt = match parse_statement(item.sql) {
                Ok(s) => s,
                Err(e) => {
                    out.quarantined.push((idx, PreProcessError::Parse(e)));
                    continue;
                }
            };
            let TemplatizedQuery { template, text, params, .. } = templatize(&stmt);
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
            out.statements += 1;
            out.arrivals += item.count;
            out.offers.push((idx, target, params));
            push_delta(&mut out.deltas, target, item.minute, item.count);

            let slot_target = match target {
                Target::Known(id) => SlotTarget::Known(id),
                Target::Pending(p) => SlotTarget::Pending(p),
            };
            if hit {
                // Re-parse of an existing slot: retarget (normally a
                // no-op) and keep the hit counter running.
                let slot = self.map.get_mut(item.sql).expect("slot existed on the hit path");
                slot.target = slot_target;
                if slot.last_tick != tick {
                    slot.last_tick = tick;
                    out.sighted.push((idx, target));
                }
            } else {
                // Generational reset, same policy as the sequential
                // raw-string cache but bounded per shard.
                if self.map.len() >= self.limit {
                    self.map.clear();
                }
                self.map.insert(
                    item.sql.to_string(),
                    Slot { target: slot_target, hits: 0, last_tick: tick },
                );
                out.sighted.push((idx, target));
            }
        }
        out
    }

    /// Resolves a batch-output target against this shard's tables.
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
    /// Materializes the shard set on first use (or on restore). Shard
    /// count and per-shard cache bounds come from config, never from the
    /// worker pool.
    pub(crate) fn ensure_shards(&mut self) {
        if self.shards.is_empty() {
            let n = self.config.ingest_shards.max(1);
            let limit = (self.config.raw_cache_limit / n).max(1);
            self.shards = (0..n).map(|_| Shard::new(limit)).collect();
        }
    }

    /// Ingests a batch of statements through the sharded engine.
    ///
    /// Semantically equivalent to calling
    /// [`ingest_weighted`](PreProcessor::ingest_weighted) for each item in
    /// order — template ids, arrival histories, ingest stats, and the
    /// quarantine come out identical — but statements fan out across
    /// `ingest_shards` logical shards, and history updates coalesce per
    /// tick instead of landing one by one. The shards run on `pool` when
    /// the batch holds at least `FANOUT_MIN_STATEMENTS` statements and on
    /// the calling thread otherwise, where a thread hand-off would cost
    /// more than the work. The result is bit-identical for any pool width
    /// (including 1) and for any way of splitting the same stream into
    /// batches; see the module docs for the invariants that guarantee it.
    ///
    /// The only sequential divergence is which arrivals refresh the
    /// parameter reservoirs (per-slot instead of global re-parse cadence)
    /// and the raw-string cache contents (sharded instead of unified).
    pub fn ingest_batch(&mut self, pool: &ThreadPool, batch: &[BatchItem<'_>]) -> BatchReport {
        let _span = self.metrics.ingest_time.start();
        self.ensure_shards();
        let nshards = self.shards.len();

        let mut routed: Vec<Vec<usize>> = vec![Vec::new(); nshards];
        for (idx, item) in batch.iter().enumerate() {
            routed[route(item.sql, nshards)].push(idx);
        }

        // Shard phase: mutable over shard-local state, immutable over the
        // shared template tables. Small batches run it on the caller, in
        // shard order, exactly as a width-1 pool would.
        let distinct_texts = &self.distinct_texts;
        let run = |i: usize, sh: &mut Shard| sh.run_batch(batch, &routed[i], distinct_texts);
        let mut outputs: Vec<ShardOutput> = if batch.len() < FANOUT_MIN_STATEMENTS {
            self.shards.iter_mut().enumerate().map(|(i, sh)| run(i, sh)).collect()
        } else {
            pool.map_mut(&mut self.shards, run)
        };

        // Merge phase, step 1: intern pending templates in global
        // first-sighting order, so id assignment and the reservoir seed
        // chain match sequential ingest exactly.
        let mut report = BatchReport::default();
        let mut pending_order: Vec<(usize, usize, usize)> = Vec::new();
        for (s, out) in outputs.iter().enumerate() {
            for (local, p) in out.pendings.iter().enumerate() {
                pending_order.push((p.first_idx, s, local));
            }
        }
        pending_order.sort_unstable();
        let mut pending_pool: Vec<Vec<Option<PendingTemplate>>> = outputs
            .iter_mut()
            .map(|o| std::mem::take(&mut o.pendings).into_iter().map(Some).collect())
            .collect();
        let mut interned: Vec<Vec<Option<TemplateId>>> =
            pending_pool.iter().map(|p| vec![None; p.len()]).collect();
        for &(_, s, local) in &pending_order {
            let p = pending_pool[s][local].take().expect("each pending interns once");
            let before = self.entries.len();
            let id = self.intern_owned(p.template, p.text);
            if self.entries.len() > before {
                self.trace_new_template(p.first_minute, id);
                report.new_templates += 1;
            }
            interned[s][local] = Some(id);
        }
        for (s, ids) in interned.into_iter().enumerate() {
            self.shards[s]
                .resolved
                .extend(ids.into_iter().map(|id| id.expect("every pending interned")));
        }

        // Step 2: history deltas and kind stats. History record order is
        // commutative per minute, so shard order here is for determinism
        // of iteration, not correctness.
        for (s, out) in outputs.iter().enumerate() {
            for &(target, minute, count) in &out.deltas {
                let id = self.shards[s].resolve(target);
                let entry = &mut self.entries[id.0 as usize];
                entry.history.record(minute, count);
                self.stats.total_queries += count;
                match entry.kind {
                    "SELECT" => self.stats.selects += count,
                    "INSERT" => self.stats.inserts += count,
                    "UPDATE" => self.stats.updates += count,
                    "DELETE" => self.stats.deletes += count,
                    _ => unreachable!("kind is one of the four DML verbs"),
                }
            }
            report.statements += out.statements;
            report.arrivals += out.arrivals;
            report.cache_hits += out.cache_hits;
        }

        // Step 3: reservoir offers in arrival order across all shards.
        let mut offers: Vec<(usize, usize, Target, Vec<Literal>)> = Vec::new();
        for (s, out) in outputs.iter_mut().enumerate() {
            for (idx, target, params) in out.offers.drain(..) {
                offers.push((idx, s, target, params));
            }
        }
        offers.sort_unstable_by_key(|&(idx, s, ..)| (idx, s));
        for (_, s, target, params) in offers {
            let id = self.shards[s].resolve(target);
            self.entries[id.0 as usize].params.offer(params);
        }

        // Step 4: quarantine admissions in arrival order.
        let mut quarantined: Vec<(usize, PreProcessError)> = Vec::new();
        for out in &mut outputs {
            quarantined.append(&mut out.quarantined);
        }
        quarantined.sort_unstable_by_key(|&(idx, _)| idx);
        for (idx, err) in &quarantined {
            let item = &batch[*idx];
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

        // Step 5: the sighting feed, deduped by template in first-sighting
        // order (two raw spellings of one template may both fire).
        let mut sighted: Vec<(usize, usize, Target)> = Vec::new();
        for (s, out) in outputs.iter().enumerate() {
            for &(idx, target) in &out.sighted {
                sighted.push((idx, s, target));
            }
        }
        sighted.sort_unstable_by_key(|&(idx, s, _)| (idx, s));
        let mut seen = std::collections::HashSet::new();
        for (_, s, target) in sighted {
            let id = self.shards[s].resolve(target);
            if seen.insert(id) {
                report.sighted.push(id);
            }
        }

        self.metrics.ingested_statements.add(report.statements);
        self.metrics.ingested_arrivals.add(report.arrivals);
        self.metrics.quarantined_statements.add(report.quarantined_statements);
        self.metrics.quarantined_arrivals.add(report.quarantined_arrivals);
        self.metrics.cache_hits.add(report.cache_hits);
        self.metrics.templates.set(self.entries.len() as f64);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PreProcessor, PreProcessorConfig};

    /// A stream exercising every path: folding spellings, repeats,
    /// weighted arrivals, cross-shard duplicates, and quarantine.
    fn mixed_stream() -> Vec<(Minute, String, u64)> {
        let mut stream = Vec::new();
        for i in 0..40i64 {
            stream.push((i % 7, format!("SELECT x FROM t WHERE id = {i}"), 1 + (i as u64 % 5)));
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

    fn run_batched(stream: &[(Minute, String, u64)], width: usize, splits: usize) -> PreProcessor {
        run_chunked(stream, width, stream.len().div_ceil(splits))
    }

    /// Ingests `stream` in batches of `chunk` statements (the last one
    /// shorter) on a pool of `width`.
    fn run_chunked(stream: &[(Minute, String, u64)], width: usize, chunk: usize) -> PreProcessor {
        let mut pp = PreProcessor::new(PreProcessorConfig::default());
        let pool = ThreadPool::new(width);
        for b in batch_of(stream).chunks(chunk.max(1)) {
            pp.ingest_batch(&pool, b);
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
        let batched = run_batched(&stream, 4, 1);

        // The entire template table — ids, texts, histories, reservoir
        // contents and RNG states — must match the sequential path (no
        // string in this stream repeats often enough to hit a re-parse
        // cadence, so even the reservoirs agree).
        let a = seq.export_state();
        let b = batched.export_state();
        assert_eq!(a.entries, b.entries);
        assert_eq!(a.distinct_texts, b.distinct_texts);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.quarantine, b.quarantine);
        assert_eq!(a.next_seed, b.next_seed);
    }

    #[test]
    fn batch_state_is_width_and_split_invariant() {
        let stream = mixed_stream();
        let base = run_batched(&stream, 1, 1).export_state();
        for (width, splits) in [(4, 1), (1, 3), (4, 3), (3, 5), (2, 17)] {
            let other = run_batched(&stream, width, splits).export_state();
            assert_eq!(base, other, "width={width} splits={splits} must be bit-identical");
        }
    }

    #[test]
    fn state_is_identical_on_both_sides_of_the_fanout_floor() {
        let stream = mixed_stream();
        assert!(stream.len() > 2 * FANOUT_MIN_STATEMENTS, "the stream must reach the floor");
        let base = run_chunked(&stream, 1, stream.len()).export_state();
        let chunks = [
            FANOUT_MIN_STATEMENTS - 1,
            FANOUT_MIN_STATEMENTS,
            FANOUT_MIN_STATEMENTS + 1,
            stream.len(),
        ];
        for width in [1, 2, 4] {
            for chunk in chunks {
                let other = run_chunked(&stream, width, chunk).export_state();
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
    fn reparse_cadence_is_per_slot() {
        let mut pp = PreProcessor::new(PreProcessorConfig::default());
        let pool = ThreadPool::new(2);
        let stream: Vec<(Minute, String, u64)> =
            (0..130).map(|_| (0, "SELECT x FROM t WHERE id = 1".to_string(), 1)).collect();
        let report = pp.ingest_batch(&pool, &batch_of(&stream));
        // First arrival parses; touches 64 and 128 of the slot re-parse to
        // refresh the reservoir; everything else bypasses the parser.
        assert_eq!(report.cache_hits, 129);
        assert_eq!(pp.templates()[0].params.seen(), 3);
        assert_eq!(pp.templates()[0].history.total(), 130);
    }

    #[test]
    fn batch_splitting_does_not_shift_the_cadence() {
        let stream: Vec<(Minute, String, u64)> =
            (0..130).map(|_| (0, "SELECT x FROM t WHERE id = 1".to_string(), 1)).collect();
        let one = run_batched(&stream, 1, 1).export_state();
        let many = run_batched(&stream, 4, 13).export_state();
        assert_eq!(one, many);
    }

    #[test]
    fn shard_cache_survives_restore() {
        let stream = mixed_stream();
        let mut live = run_batched(&stream, 4, 2);
        let exported = live.export_state();
        assert!(!exported.shard_slots.is_empty(), "batches must populate shard caches");
        let mut restored =
            PreProcessor::restore(PreProcessorConfig::default(), exported.clone()).unwrap();
        assert_eq!(restored.export_state(), exported, "restore must be lossless");

        // Both instances continue identically through further batches.
        let follow = mixed_stream();
        let pool = ThreadPool::new(3);
        let ra = live.ingest_batch(&pool, &batch_of(&follow));
        let rb = restored.ingest_batch(&pool, &batch_of(&follow));
        assert_eq!(ra, rb);
        assert_eq!(live.export_state(), restored.export_state());
        // The second pass over the same stream is cache-dominated.
        assert!(ra.cache_hits > 0, "repeat stream must hit the shard caches");
    }

    #[test]
    fn shard_caches_evict_and_recover_under_churn() {
        // One shard so the generational-reset arithmetic is exact; the
        // multi-shard case applies the same policy per shard.
        let mut pp = PreProcessor::new(PreProcessorConfig {
            raw_cache_limit: 8,
            ingest_shards: 1,
            ..PreProcessorConfig::default()
        });
        let pool = ThreadPool::new(2);
        let gen1: Vec<(Minute, String, u64)> =
            (0..8).map(|i| (0, format!("SELECT x FROM t WHERE id = {i}"), 1)).collect();
        let gen2: Vec<(Minute, String, u64)> =
            (0..8).map(|i| (0, format!("SELECT x FROM t WHERE id = {}", 100 + i), 1)).collect();
        pp.ingest_batch(&pool, &batch_of(&gen1));
        // Churn: the new working set's first insert trips the reset and
        // the cache refills with what is hot now...
        pp.ingest_batch(&pool, &batch_of(&gen2));
        // ...so repeats of the *new* set hit cache instead of re-parsing
        // forever (the fill-once-never-evict failure mode).
        let report = pp.ingest_batch(&pool, &batch_of(&gen2));
        assert_eq!(report.cache_hits, 8, "new working set must be fully cached after churn");
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        for n in [1, 2, 8, 13] {
            for sql in ["SELECT x FROM t WHERE id = 1", "", "δ unicode ≠ ascii"] {
                let a = route(sql, n);
                assert_eq!(a, route(sql, n));
                assert!(a < n);
            }
        }
        // The hash is content-addressed, not identity-addressed: equal
        // strings at different addresses route identically.
        let a = String::from("SELECT x FROM t WHERE id = 42");
        let b = a.clone();
        assert_eq!(route(&a, 8), route(&b, 8));
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
