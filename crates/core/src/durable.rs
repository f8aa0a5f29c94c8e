//! Durable pipeline state: versioned snapshots + a sighting WAL (the
//! robustness layer over `qb-durable`).
//!
//! The in-memory pipeline is deterministic: the same ingest stream through
//! the same configuration produces bit-identical templates, clusters,
//! forecasts, and trace streams. Durability exploits that instead of
//! fighting it — the WAL records *inputs* (template sightings and
//! cluster-update instants), not effects, and recovery simply
//! replays the tail through the ordinary ingest path on top of the last
//! valid snapshot. Anything derivable (shift-triggered re-clusterings,
//! quarantine admissions, history compaction, fitted models) is *not*
//! logged; it re-derives identically.
//!
//! ## Formats
//!
//! The snapshot payload is `[u16 STATE_VERSION]` followed by the
//! [`FullState`] encoding; every record type is hand-encoded in this
//! module against [`qb_durable::Enc`]/[`qb_durable::Dec`] so the on-disk
//! layout is auditable line by line. Version 7, the only one written,
//! stores each history tier as zigzag-varint minute deltas with varint
//! counts, front-codes the sorted template-text table and writes each
//! clusterer feature as its dimension, its zero lead and the coordinates
//! after the lead; every other field is fixed-width. It holds no value
//! restore recomputes (cluster centres and volumes, the tracked clusters,
//! the manager's cluster key). A build reads its own version and the one
//! before it: version 6 decodes through a read-only path that reads and
//! drops those values. Every other payload version is refused rather than
//! guessed at; DESIGN.md ("Durability & recovery") describes both versions.
//!
//! WAL frame payloads carry one [`WalRecord`]; the frame `kind` byte is
//! the dispatch tag ([`KIND_INGEST_BATCH`], [`KIND_CLUSTER_UPDATE`], and
//! [`KIND_COMPACT`], which only older builds wrote and which replays as
//! nothing). A frame of any other kind refuses recovery.
//!
//! ## Recovery invariants
//!
//! 1. **Append-then-apply.** Every mutating [`DurablePipeline`] call
//!    appends its WAL frame *before* touching the in-memory pipeline, so a
//!    crash at any I/O boundary loses at most operations the caller never
//!    saw complete. A failed append fails the WAL segment: every later
//!    append and snapshot returns an `Err` without writing or applying
//!    until the directory is reopened, so no acknowledged frame can sit
//!    behind a torn one or reuse a failed frame's sequence number.
//! 2. **Sequence numbers dedup replay.** Frames at or below the loaded
//!    snapshot's sequence are skipped by `qb-durable`, so a crash between
//!    snapshot rename and WAL rotation cannot double-apply a sighting —
//!    which is exactly the "no quarantine double-count" guarantee:
//!    rejected statements live inside the snapshot's quarantine ring and
//!    their WAL frames are sequence-skipped, never replayed on top.
//! 3. **Replay is the ingest path.** Recovery calls the same
//!    `ingest_batch` / `update_clusters` the live pipeline uses, so a
//!    recovered process continues the exact event stream — forecasts,
//!    [`crate::PipelineHealth`], and `qb-trace` output are bit-identical
//!    to an uninterrupted run.
//! 4. **The serve epoch and alert hysteresis restart.** [`FullState`]
//!    holds the pipeline, the manager and the tracer's ring, nothing else.
//!    A recovered process starts its `ForecastService` at epoch 0 and its
//!    `Monitor` windows empty; served curves are still bit-identical, but
//!    epoch numbers, alert transitions and the trace events recording
//!    them start over.

use std::path::PathBuf;

use qb_clusterer::{ClusterRecord, ClustererState, TemplateFeature, TemplateRecord, UpdateReport};
use qb_durable::{CodecError, Dec, DurabilityError, DurableStore, Enc, FaultHook, StoreStats};
use qb_forecast::DegradationLevel;
use qb_parallel::ThreadPool;
use qb_preprocessor::{
    BatchItem, BatchReport, IngestStats, PreProcessorState, QuarantineState,
    QuarantinedStatement, TemplateEntryState, TemplateId,
};
use qb_sqlparse::ast::Literal;
use qb_timeseries::{ArrivalHistoryState, Minute};
use qb_trace::{EventRecord, Scope, TraceDump, Tracer, TracerState, Value};

use crate::accuracy::{AccuracyTrackerState, PendingClaimState, RollingMeanState};
use crate::error::Error;
use crate::manager::{ForecastManager, ManagerState, RetrainOutcome};
use crate::pipeline::{
    ClusterInfoState, PipelineHealth, PipelineState, Qb5000Config, QueryBot5000,
};

/// Version of the snapshot payload this build writes. Bump when the
/// [`FullState`] encoding changes shape. A build decodes its own version
/// and the one before it, read-only; every other version is refused, not
/// guessed at.
pub const STATE_VERSION: u16 = 7;

/// The previous payload version, which [`decode_full_state`] still reads.
/// Nothing writes it: the first snapshot after its recovery is version 7.
const STATE_VERSION_V6: u16 = 6;

/// WAL frame kind: an explicit cluster-update instant.
pub const KIND_CLUSTER_UPDATE: u8 = 2;
/// WAL frame kind: an arrival-history compaction point ([`WalRecord::Compact`]).
pub const KIND_COMPACT: u8 = 3;
/// WAL frame kind: the sightings of one ingest call — a tick, or a single
/// statement. Replay routes them back through the same engine, so state
/// re-derives identically.
pub const KIND_INGEST_BATCH: u8 = 4;

/// Durable-state policy for a pipeline: where state lives, how often a
/// full snapshot replaces WAL replay, and (for tests) where to crash.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the snapshot lineage and WAL segments.
    pub dir: PathBuf,
    /// A snapshot is cut after this many [`DurablePipeline::update_clusters`]
    /// rounds (1 = every round). Ingest frames between snapshots replay on
    /// recovery.
    pub snapshot_every_rounds: u64,
    /// Crash-injection hook consulted at every I/O boundary
    /// ([`qb_durable::IoPoint`]); [`FaultHook::none`] in production.
    pub fault_hook: FaultHook,
}

impl DurabilityConfig {
    /// A policy rooted at `dir`, snapshotting every cluster-update round,
    /// with no fault injection.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into(), snapshot_every_rounds: 1, fault_hook: FaultHook::none() }
    }

    /// Snapshot after every `n` cluster-update rounds (clamped to ≥ 1).
    pub fn snapshot_every_rounds(mut self, n: u64) -> Self {
        self.snapshot_every_rounds = n.max(1);
        self
    }

    /// Installs a crash-injection hook (tests).
    pub fn fault_hook(mut self, hook: FaultHook) -> Self {
        self.fault_hook = hook;
        self
    }
}

/// Everything a snapshot persists: the pipeline proper, the forecast
/// manager's serving state (if one is attached), and the tracer's ring
/// (if tracing is enabled).
#[derive(Debug, Clone, PartialEq)]
pub struct FullState {
    pub pipeline: PipelineState,
    pub manager: Option<ManagerState>,
    pub tracer: Option<TracerState>,
}

/// One decoded WAL frame payload.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// An explicit cluster rebuild at `now`.
    ClusterUpdate { now: Minute },
    /// A compaction point, written by builds whose histories compacted on
    /// request. It replays as nothing: histories compact as they record,
    /// so the replayed ingest frames re-derive the same state.
    Compact,
    /// The weighted sightings of one ingest call (`(minute, count, sql)`
    /// per statement, in arrival order).
    IngestBatch { items: Vec<(Minute, u64, String)> },
}

/// What [`DurablePipeline::open`] found and did. A pipeline with no
/// durability policy reports the default: no snapshot, no frames, no
/// manager.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Sequence of the loaded snapshot (`None` = fresh directory or no
    /// valid snapshot yet).
    pub snapshot_seq: Option<u64>,
    /// WAL frames replayed on top of the snapshot.
    pub frames_replayed: u64,
    /// Ingest sightings among the replayed frames.
    pub statements_replayed: u64,
    /// Newer snapshots skipped because they failed validation.
    pub corrupt_snapshots_skipped: u64,
    /// Frames already covered by the snapshot and skipped by sequence.
    pub stale_frames_skipped: u64,
    /// The forecast manager's serving state from the snapshot. The model
    /// factory is a closure and cannot be serialized, so the caller
    /// rebuilds the manager with [`ForecastManager::restore`] and hands it
    /// back via [`DurablePipeline::attach_manager`].
    pub manager: Option<ManagerState>,
}

impl RecoveryReport {
    /// True when the directory held prior state (snapshot or frames).
    pub fn recovered(&self) -> bool {
        self.snapshot_seq.is_some() || self.frames_replayed > 0
    }
}

// ---------------------------------------------------------------------------
// Codec: every versioned record type, hand-encoded.
// ---------------------------------------------------------------------------

fn bad_tag(what: &'static str, tag: u8) -> CodecError {
    CodecError::BadTag { what, tag }
}

/// Encodes one [`Literal`] (tagged: 0=Integer 1=Float 2=String 3=Boolean
/// 4=Null — append-only).
pub fn encode_literal(e: &mut Enc, lit: &Literal) {
    match lit {
        Literal::Integer(v) => {
            e.u8(0);
            e.i64(*v);
        }
        Literal::Float(v) => {
            e.u8(1);
            e.f64(*v);
        }
        Literal::String(s) => {
            e.u8(2);
            e.str(s);
        }
        Literal::Boolean(b) => {
            e.u8(3);
            e.bool(*b);
        }
        Literal::Null => e.u8(4),
    }
}

/// Inverse of [`encode_literal`].
pub fn decode_literal(d: &mut Dec) -> Result<Literal, CodecError> {
    Ok(match d.u8()? {
        0 => Literal::Integer(d.i64()?),
        1 => Literal::Float(d.f64()?),
        2 => Literal::String(d.str()?),
        3 => Literal::Boolean(d.bool()?),
        4 => Literal::Null,
        tag => return Err(bad_tag("Literal", tag)),
    })
}

/// Encodes one [`ArrivalHistoryState`]: each tier as a varint pair count,
/// then per pair a zigzag-varint minute delta and a varint count; then the
/// compaction width and total as fixed-width fields.
pub fn encode_history(e: &mut Enc, h: &ArrivalHistoryState) {
    encode_tier(e, &h.raw);
    encode_tier(e, &h.compacted);
    e.option(h.compacted_width_minutes.as_ref(), |e, w| e.i64(*w));
    e.u64(h.total);
}

/// One history tier: a varint pair count, then per pair the zigzag-varint
/// minute delta from the previous pair (the first from minute 0) and the
/// varint count. A sorted run of busy minutes costs two bytes a pair.
/// Deltas wrap, so any sequence of minutes round-trips, sorted or not.
fn encode_tier(e: &mut Enc, tier: &[(Minute, u64)]) {
    let mut prev: Minute = 0;
    e.var_seq(tier, |e, &(minute, count)| {
        e.var_i64(minute.wrapping_sub(prev));
        e.var_u64(count);
        prev = minute;
    });
}

/// Inverse of [`encode_tier`].
fn decode_tier(d: &mut Dec) -> Result<Vec<(Minute, u64)>, CodecError> {
    let mut prev: Minute = 0;
    d.var_seq(|d| {
        prev = prev.wrapping_add(d.var_i64()?);
        Ok((prev, d.var_u64()?))
    })
}

/// Inverse of [`encode_history`].
pub fn decode_history(d: &mut Dec) -> Result<ArrivalHistoryState, CodecError> {
    Ok(ArrivalHistoryState {
        raw: decode_tier(d)?,
        compacted: decode_tier(d)?,
        compacted_width_minutes: d.option(Dec::i64)?,
        total: d.u64()?,
    })
}

/// A table sorted by its text, front-coded row to row: a varint row count,
/// then per row its text against the previous row's ([`Enc::front_str`])
/// and the row's other fields, written by `rest`.
fn encode_text_table<T>(
    e: &mut Enc,
    rows: &[T],
    text: impl Fn(&T) -> &str,
    rest: impl Fn(&mut Enc, &T),
) {
    e.var_u64(rows.len() as u64);
    let mut prev = "";
    for row in rows {
        e.front_str(prev, text(row));
        rest(e, row);
        prev = text(row);
    }
}

/// Inverse of [`encode_text_table`]; `rest` reads a row's other fields
/// and assembles it around its text.
fn decode_text_table<T>(
    d: &mut Dec,
    mut rest: impl FnMut(&mut Dec, String) -> Result<T, CodecError>,
) -> Result<Vec<T>, CodecError> {
    let mut prev = String::new();
    d.var_seq(|d| {
        let text = d.front_str(&prev)?;
        prev.clone_from(&text);
        rest(d, text)
    })
}

/// A template id written as a varint.
fn decode_var_id(d: &mut Dec) -> Result<u32, CodecError> {
    let v = d.var_u64()?;
    u32::try_from(v).map_err(|_| CodecError::ImplausibleLength { what: "template id", len: v })
}

fn encode_quarantine(e: &mut Enc, q: &QuarantineState) {
    e.u64(q.rejected_statements);
    e.u64(q.rejected_arrivals);
    e.seq(&q.samples, |e, s| {
        e.i64(s.minute);
        e.str(&s.sql);
        e.str(&s.error);
    });
    e.option(q.last_error.as_ref(), |e, s| e.str(s));
}

fn decode_quarantine(d: &mut Dec) -> Result<QuarantineState, CodecError> {
    Ok(QuarantineState {
        rejected_statements: d.u64()?,
        rejected_arrivals: d.u64()?,
        samples: d.seq(|d| {
            Ok(QuarantinedStatement { minute: d.i64()?, sql: d.str()?, error: d.str()? })
        })?,
        last_error: d.option(Dec::str)?,
    })
}

fn encode_entry(e: &mut Enc, t: &TemplateEntryState) {
    e.str(&t.text);
    encode_history(e, &t.history);
    e.u64(t.params_seen);
    e.seq(&t.params_items, |e, params| e.seq(params, encode_literal));
    for w in t.params_rng {
        e.u64(w);
    }
}

fn decode_entry(d: &mut Dec) -> Result<TemplateEntryState, CodecError> {
    Ok(TemplateEntryState {
        text: d.str()?,
        history: decode_history(d)?,
        params_seen: d.u64()?,
        params_items: d.seq(|d| d.seq(decode_literal))?,
        params_rng: [d.u64()?, d.u64()?, d.u64()?, d.u64()?],
    })
}

/// Encodes one [`PreProcessorState`].
fn encode_preprocessor_state(e: &mut Enc, s: &PreProcessorState) {
    e.seq(&s.entries, encode_entry);
    encode_text_table(
        e,
        &s.distinct_texts,
        |(text, _)| text,
        |e, (_, id)| e.var_u64(u64::from(*id)),
    );
    e.u64(s.next_seed);
    e.u64(s.stats.total_queries);
    e.u64(s.stats.selects);
    e.u64(s.stats.inserts);
    e.u64(s.stats.updates);
    e.u64(s.stats.deletes);
    encode_quarantine(e, &s.quarantine);
}

/// Inverse of [`encode_preprocessor_state`].
fn decode_preprocessor_state(d: &mut Dec) -> Result<PreProcessorState, CodecError> {
    Ok(PreProcessorState {
        entries: d.seq(decode_entry)?,
        distinct_texts: decode_text_table(d, |d, text| Ok((text, decode_var_id(d)?)))?,
        next_seed: d.u64()?,
        stats: IngestStats {
            total_queries: d.u64()?,
            selects: d.u64()?,
            inserts: d.u64()?,
            updates: d.u64()?,
            deletes: d.u64()?,
        },
        quarantine: decode_quarantine(d)?,
    })
}

/// Encodes one [`ClustererState`]. Each template's feature is its
/// dimension, its zero lead and the `dim − lead` coordinates after it.
fn encode_clusterer_state(e: &mut Enc, s: &ClustererState) {
    e.seq(&s.templates, |e, t| {
        e.u64(t.key);
        e.usize(t.feature.dim());
        e.usize(t.feature.lead());
        for v in t.feature.suffix() {
            e.f64(*v);
        }
        e.usize(t.feature.valid_from);
        e.f64(t.volume);
        e.i64(t.last_seen);
        e.u64(t.cluster);
    });
    e.seq(&s.clusters, |e, c| {
        e.u64(c.id);
        e.seq(&c.members, |e, m| e.u64(*m));
    });
    e.u64(s.next_cluster);
    e.seq(&s.seen_since_update, |e, k| e.u64(*k));
    e.u64(s.unseen_since_update);
    e.f64(s.baseline_unseen_ratio);
}

/// One feature as [`encode_clusterer_state`] writes it. A lead past the
/// dimension, or a suffix longer than the bytes left, is refused before
/// anything is allocated.
fn decode_feature(d: &mut Dec) -> Result<TemplateFeature, CodecError> {
    let dim = d.usize()?;
    let lead = d.usize()?;
    if lead > dim {
        return Err(CodecError::ImplausibleLength { what: "feature lead", len: lead as u64 });
    }
    let n = dim - lead;
    if n > d.remaining() / 8 {
        return Err(CodecError::ImplausibleLength { what: "feature suffix", len: n as u64 });
    }
    let suffix = (0..n).map(|_| d.f64()).collect::<Result<Vec<_>, _>>()?;
    Ok(TemplateFeature::from_suffix(lead, suffix, d.usize()?))
}

fn decode_clusterer_state_at(d: &mut Dec, version: u16) -> Result<ClustererState, CodecError> {
    Ok(ClustererState {
        templates: d.seq(|d| {
            Ok(TemplateRecord {
                key: d.u64()?,
                feature: decode_feature(d)?,
                volume: d.f64()?,
                last_seen: d.i64()?,
                cluster: d.u64()?,
            })
        })?,
        clusters: d.seq(|d| {
            let record = ClusterRecord { id: d.u64()?, members: d.seq(Dec::u64)? };
            // Version 6 went on with the centre and volume: dropped.
            if version <= STATE_VERSION_V6 {
                d.seq(Dec::f64)?;
                d.f64()?;
            }
            Ok(record)
        })?,
        next_cluster: d.u64()?,
        seen_since_update: d.seq(Dec::u64)?,
        unseen_since_update: d.u64()?,
        baseline_unseen_ratio: d.f64()?,
    })
}

fn encode_cluster_info(e: &mut Enc, c: &ClusterInfoState) {
    e.u64(c.id);
    e.f64(c.volume);
    e.seq(&c.members, |e, m| e.u32(*m));
}

fn decode_cluster_info(d: &mut Dec) -> Result<ClusterInfoState, CodecError> {
    Ok(ClusterInfoState { id: d.u64()?, volume: d.f64()?, members: d.seq(Dec::u32)? })
}

/// Encodes one [`PipelineState`].
pub fn encode_pipeline_state(e: &mut Enc, s: &PipelineState) {
    encode_preprocessor_state(e, &s.pre);
    encode_clusterer_state(e, &s.clusterer);
    e.option(s.last_update.as_ref(), |e, m| e.i64(*m));
    e.u64(s.shift_triggers);
    e.u64(s.ingested_statements);
    e.u64(s.ingested_arrivals);
    e.u64(s.deduplicated);
    e.u64(s.reordered);
    e.option(s.last_ingest_minute.as_ref(), |e, m| e.i64(*m));
    e.option(s.last_ingest_event.as_ref(), |e, (m, fp)| {
        e.i64(*m);
        e.u64(*fp);
    });
}

fn decode_pipeline_state_at(d: &mut Dec, version: u16) -> Result<PipelineState, CodecError> {
    Ok(PipelineState {
        pre: decode_preprocessor_state(d)?,
        clusterer: decode_clusterer_state_at(d, version)?,
        last_update: {
            // Version 6 wrote the tracked clusters first: dropped.
            if version <= STATE_VERSION_V6 {
                d.seq(decode_cluster_info)?;
            }
            d.option(Dec::i64)?
        },
        shift_triggers: d.u64()?,
        ingested_statements: d.u64()?,
        ingested_arrivals: d.u64()?,
        deduplicated: d.u64()?,
        reordered: d.u64()?,
        last_ingest_minute: d.option(Dec::i64)?,
        last_ingest_event: d.option(|d| Ok((d.i64()?, d.u64()?)))?,
    })
}

fn encode_rolling_mean(e: &mut Enc, m: &RollingMeanState) {
    e.usize(m.capacity);
    e.seq(&m.values, |e, v| e.f64(*v));
    e.f64(m.sum);
    e.usize(m.since_refresh);
}

fn decode_rolling_mean(d: &mut Dec) -> Result<RollingMeanState, CodecError> {
    Ok(RollingMeanState {
        capacity: d.usize()?,
        values: d.seq(Dec::f64)?,
        sum: d.f64()?,
        since_refresh: d.usize()?,
    })
}

/// Encodes one [`AccuracyTrackerState`].
fn encode_accuracy_state(e: &mut Enc, s: &AccuracyTrackerState) {
    e.usize(s.horizons);
    e.usize(s.window);
    e.seq(&s.pending, |e, p| {
        e.usize(p.horizon_idx);
        e.i64(p.due);
        e.i64(p.interval_minutes);
        encode_cluster_info(e, &p.cluster);
        e.f64(p.predicted);
    });
    e.seq(&s.overall, encode_rolling_mean);
    e.seq(&s.per_cluster, |e, (h, c, m)| {
        e.usize(*h);
        e.u64(*c);
        encode_rolling_mean(e, m);
    });
    e.u64(s.settled_total);
}

/// Inverse of [`encode_accuracy_state`].
fn decode_accuracy_state(d: &mut Dec) -> Result<AccuracyTrackerState, CodecError> {
    Ok(AccuracyTrackerState {
        horizons: d.usize()?,
        window: d.usize()?,
        pending: d.seq(|d| {
            Ok(PendingClaimState {
                horizon_idx: d.usize()?,
                due: d.i64()?,
                interval_minutes: d.i64()?,
                cluster: decode_cluster_info(d)?,
                predicted: d.f64()?,
            })
        })?,
        overall: d.seq(decode_rolling_mean)?,
        per_cluster: d.seq(|d| Ok((d.usize()?, d.u64()?, decode_rolling_mean(d)?)))?,
        settled_total: d.u64()?,
    })
}

fn encode_degradation(e: &mut Enc, level: &Option<DegradationLevel>) {
    e.option(level.as_ref(), |e, l| e.u8(l.to_code()));
}

fn decode_degradation(d: &mut Dec) -> Result<Option<DegradationLevel>, CodecError> {
    d.option(|d| {
        let tag = d.u8()?;
        DegradationLevel::from_code(tag).ok_or(bad_tag("DegradationLevel", tag))
    })
}

/// Encodes one [`ManagerState`].
pub fn encode_manager_state(e: &mut Enc, s: &ManagerState) {
    e.u64(s.retrain_count);
    e.u32(s.consecutive_failures);
    e.u64(s.backoff_remaining);
    e.u64(s.rollbacks);
    e.option(s.last_error.as_ref(), |e, msg| e.str(msg));
    e.option(s.trained_on.as_ref(), |e, on| e.seq(on, encode_cluster_info));
    e.seq(&s.last_degradation, encode_degradation);
    e.option(s.last_train_now.as_ref(), |e, m| e.i64(*m));
    encode_accuracy_state(e, &s.accuracy);
}

/// Inverse of [`encode_manager_state`] for a `version` payload.
fn decode_manager_state_at(d: &mut Dec, version: u16) -> Result<ManagerState, CodecError> {
    Ok(ManagerState {
        retrain_count: d.u64()?,
        consecutive_failures: d.u32()?,
        backoff_remaining: d.u64()?,
        rollbacks: d.u64()?,
        last_error: d.option(Dec::str)?,
        trained_on: {
            // Version 6 wrote the cluster key (ids, sorted members) first:
            // dropped.
            if version <= STATE_VERSION_V6 {
                d.option(|d| d.seq(|d| Ok((d.u64()?, d.seq(Dec::u32)?))))?;
            }
            d.option(|d| d.seq(decode_cluster_info))?
        },
        last_degradation: d.seq(decode_degradation)?,
        last_train_now: d.option(Dec::i64)?,
        accuracy: decode_accuracy_state(d)?,
    })
}

fn encode_value(e: &mut Enc, v: &Value) {
    match v {
        Value::Int(x) => {
            e.u8(0);
            e.i64(*x);
        }
        Value::Uint(x) => {
            e.u8(1);
            e.u64(*x);
        }
        Value::Float(x) => {
            e.u8(2);
            e.f64(*x);
        }
        Value::Text(s) => {
            e.u8(3);
            e.str(s);
        }
        Value::Flag(b) => {
            e.u8(4);
            e.bool(*b);
        }
    }
}

fn decode_value(d: &mut Dec) -> Result<Value, CodecError> {
    Ok(match d.u8()? {
        0 => Value::Int(d.i64()?),
        1 => Value::Uint(d.u64()?),
        2 => Value::Float(d.f64()?),
        3 => Value::Text(d.str()?),
        4 => Value::Flag(d.bool()?),
        tag => return Err(bad_tag("trace Value", tag)),
    })
}

fn encode_event(e: &mut Enc, r: &EventRecord) {
    e.u64(r.id);
    e.u64(r.round);
    e.u64(r.seq);
    e.u32(r.lane);
    e.u8(r.kind.to_code());
    e.option(r.parent.as_ref(), |e, p| e.u64(*p));
    e.seq(&r.refs, |e, v| e.u64(*v));
    e.seq(&r.payload, |e, (k, v)| {
        e.str(k);
        encode_value(e, v);
    });
}

fn decode_event(d: &mut Dec) -> Result<EventRecord, CodecError> {
    Ok(EventRecord {
        id: d.u64()?,
        round: d.u64()?,
        seq: d.u64()?,
        lane: d.u32()?,
        kind: {
            let tag = d.u8()?;
            qb_trace::EventKind::from_code(tag).ok_or(bad_tag("EventKind", tag))?
        },
        parent: d.option(Dec::u64)?,
        refs: d.seq(Dec::u64)?,
        payload: d.seq(|d| Ok((d.str()?, decode_value(d)?)))?,
    })
}

fn encode_dump(e: &mut Enc, dump: &TraceDump) {
    e.str(&dump.reason);
    e.u64(dump.round);
    e.str(&dump.recent);
    e.str(&dump.lineage);
}

fn decode_dump(d: &mut Dec) -> Result<TraceDump, CodecError> {
    Ok(TraceDump { reason: d.str()?, round: d.u64()?, recent: d.str()?, lineage: d.str()? })
}

/// Encodes one [`TracerState`].
fn encode_tracer_state(e: &mut Enc, s: &TracerState) {
    e.u64(s.next_id);
    e.u64(s.round);
    e.u64(s.seq);
    e.u64(s.front_id);
    e.seq(&s.ring, encode_event);
    e.seq(&s.pinned, encode_event);
    e.seq(&s.pin_order, |e, v| e.u64(*v));
    e.seq(&s.anchors, |e, (scope, key, id)| {
        e.u8(scope.to_code());
        e.u64(*key);
        e.u64(*id);
    });
    e.seq(&s.dumps, encode_dump);
    e.u64(s.evictions);
    e.u64(s.round_rejects);
}

/// Inverse of [`encode_tracer_state`].
fn decode_tracer_state(d: &mut Dec) -> Result<TracerState, CodecError> {
    Ok(TracerState {
        next_id: d.u64()?,
        round: d.u64()?,
        seq: d.u64()?,
        front_id: d.u64()?,
        ring: d.seq(decode_event)?,
        pinned: d.seq(decode_event)?,
        pin_order: d.seq(Dec::u64)?,
        anchors: d.seq(|d| {
            let tag = d.u8()?;
            let scope = Scope::from_code(tag).ok_or(bad_tag("Scope", tag))?;
            Ok((scope, d.u64()?, d.u64()?))
        })?,
        dumps: d.seq(decode_dump)?,
        evictions: d.u64()?,
        round_rejects: d.u64()?,
    })
}

/// Encodes a [`FullState`] as a snapshot payload (version-prefixed).
pub fn encode_full_state(s: &FullState) -> Vec<u8> {
    let mut e = Enc::new();
    e.u16(STATE_VERSION);
    encode_pipeline_state(&mut e, &s.pipeline);
    e.option(s.manager.as_ref(), encode_manager_state);
    e.option(s.tracer.as_ref(), encode_tracer_state);
    e.finish()
}

/// Inverse of [`encode_full_state`]: verifies the version prefix and that
/// every byte is consumed. Reads [`STATE_VERSION`] and, read-only, the
/// version before it; refuses every other version.
pub fn decode_full_state(bytes: &[u8]) -> Result<FullState, DurabilityError> {
    let mut d = Dec::new(bytes);
    let version = d.u16().map_err(DurabilityError::Codec)?;
    if !(STATE_VERSION_V6..=STATE_VERSION).contains(&version) {
        return Err(DurabilityError::Corrupt(format!(
            "snapshot payload version {version}; this build reads versions \
             {STATE_VERSION_V6} and {STATE_VERSION}"
        )));
    }
    let pipeline = decode_pipeline_state_at(&mut d, version)?;
    let manager = d.option(|d| decode_manager_state_at(d, version))?;
    let tracer = d.option(decode_tracer_state)?;
    d.finish()?;
    Ok(FullState { pipeline, manager, tracer })
}

/// Encodes one [`WalRecord`] as a `(frame kind, payload)` pair.
pub fn encode_wal_record(rec: &WalRecord) -> (u8, Vec<u8>) {
    let mut e = Enc::new();
    match rec {
        WalRecord::ClusterUpdate { now } => {
            e.i64(*now);
            (KIND_CLUSTER_UPDATE, e.finish())
        }
        WalRecord::Compact => (KIND_COMPACT, e.finish()),
        WalRecord::IngestBatch { items } => (
            KIND_INGEST_BATCH,
            encode_batch_items(items.iter().map(|(minute, count, sql)| (*minute, *count, &**sql))),
        ),
    }
}

/// The [`KIND_INGEST_BATCH`] payload: a fixed-width item count, then per
/// item its minute, count and SQL. Takes borrowed items so the durable
/// ingest calls frame their statements without copying them.
fn encode_batch_items<'a>(items: impl ExactSizeIterator<Item = (Minute, u64, &'a str)>) -> Vec<u8> {
    let mut e = Enc::new();
    e.usize(items.len());
    for (minute, count, sql) in items {
        e.i64(minute);
        e.u64(count);
        e.str(sql);
    }
    e.finish()
}

/// Inverse of [`encode_wal_record`].
pub fn decode_wal_record(kind: u8, payload: &[u8]) -> Result<WalRecord, DurabilityError> {
    let mut d = Dec::new(payload);
    let rec = match kind {
        KIND_CLUSTER_UPDATE => WalRecord::ClusterUpdate { now: d.i64()? },
        KIND_COMPACT => WalRecord::Compact,
        KIND_INGEST_BATCH => WalRecord::IngestBatch {
            items: d.seq(|d| Ok((d.i64()?, d.u64()?, d.str()?)))?,
        },
        other => {
            return Err(DurabilityError::Corrupt(format!("unknown WAL record kind {other}")))
        }
    };
    d.finish()?;
    Ok(rec)
}

// ---------------------------------------------------------------------------
// DurablePipeline
// ---------------------------------------------------------------------------

/// The [`QueryBot5000`] pipeline with its forecast manager, and with the
/// WAL + snapshot store when the config sets a durability policy, so a
/// crashed process resumes bit-identically. With no policy there is no
/// store: every call applies directly, nothing is encoded or written, and
/// the pipeline computes exactly what a stored one does.
///
/// Every mutating call follows invariant 1 (append-then-apply): the WAL
/// frame is durable before the in-memory pipeline changes. An `Err` from
/// any call therefore means the operation is *not* reflected in memory; an
/// injected-crash error ([`Error::is_injected_crash`]) additionally means
/// "the process died at this I/O boundary" to test harnesses, which drop
/// the instance and re-[`open`](DurablePipeline::open). After a failed WAL
/// append every later ingest, cluster update and
/// [`snapshot`](DurablePipeline::snapshot) fails too, until the directory
/// is re-opened.
pub struct DurablePipeline {
    bot: QueryBot5000,
    /// `None` when the config sets no durability policy.
    store: Option<Store>,
    manager: Option<ForecastManager>,
}

/// A durable pipeline's store, its position in the WAL and its snapshot
/// cadence, and the `durability.*` metrics.
struct Store {
    store: DurableStore,
    /// Sequence of the last appended (or recovered) durable operation.
    seq: u64,
    snapshot_every_rounds: u64,
    rounds_since_snapshot: u64,
    snapshot_time: qb_obs::Histogram,
    snapshot_bytes: qb_obs::Gauge,
    wal_appends: qb_obs::Counter,
    wal_bytes: qb_obs::Counter,
    snapshots_metric: qb_obs::Counter,
}

impl DurablePipeline {
    /// Opens the pipeline for `config`, creating or recovering its durable
    /// state when `config.durability` sets a policy. Without one the
    /// pipeline is in-memory, and the [`RecoveryReport`] is the default.
    ///
    /// A fresh directory yields an empty pipeline; an existing one loads
    /// the newest valid snapshot (falling back past corrupt ones) and
    /// replays the WAL tail through the ordinary ingest path. If the
    /// snapshot carried forecast-manager state it is returned in the
    /// [`RecoveryReport`] for the caller to rebuild (the model factory is
    /// not serializable) and re-attach.
    pub fn open(config: Qb5000Config) -> Result<(Self, RecoveryReport), Error> {
        let mut config = config;
        let Some(policy) = config.durability.clone() else {
            let pipeline = Self { bot: QueryBot5000::new(config), store: None, manager: None };
            return Ok((pipeline, RecoveryReport::default()));
        };
        let (mut store, recovered) =
            DurableStore::open(&policy.dir, policy.fault_hook.clone())?;
        store.set_hook(policy.fault_hook.clone());
        let seq = recovered.durable_seq();

        let mut manager_state = None;
        let snapshot_seq = recovered.snapshot.as_ref().map(|s| s.seq);
        let mut bot = match recovered.snapshot {
            Some(snap) => {
                let full = decode_full_state(&snap.payload)?;
                // Restore the tracer's ring first so replayed operations
                // append to the recovered event stream, not a fresh one.
                if let Some(tstate) = full.tracer.filter(|_| config.tracer.is_enabled()) {
                    config.tracer = Tracer::restore(tstate);
                }
                manager_state = full.manager;
                QueryBot5000::restore(config, full.pipeline)?
            }
            None => QueryBot5000::new(config),
        };

        // Invariant 3: replay is the ordinary ingest path. Quarantine
        // rejections re-derive (the Err is the same one the original
        // caller saw), shift triggers re-fire, trace events re-append.
        let mut statements_replayed = 0u64;
        let mut rounds_since_snapshot = 0u64;
        for frame in &recovered.frames {
            match decode_wal_record(frame.kind, &frame.payload)? {
                WalRecord::ClusterUpdate { now } => {
                    bot.update_clusters(now);
                    rounds_since_snapshot += 1;
                }
                WalRecord::Compact => {}
                WalRecord::IngestBatch { items } => {
                    statements_replayed += items.len() as u64;
                    let batch: Vec<BatchItem<'_>> = items
                        .iter()
                        .map(|(minute, count, sql)| BatchItem {
                            minute: *minute,
                            sql,
                            count: *count,
                        })
                        .collect();
                    let _ = bot.ingest_batch(&batch);
                }
            }
        }

        let report = RecoveryReport {
            snapshot_seq,
            frames_replayed: recovered.frames.len() as u64,
            statements_replayed,
            corrupt_snapshots_skipped: recovered.corrupt_snapshots_skipped,
            stale_frames_skipped: recovered.stale_frames_skipped,
            manager: manager_state,
        };

        let rec = bot.recorder().clone();
        if report.recovered() {
            rec.counter("durability.recoveries").inc();
        } else {
            rec.counter("durability.fresh_starts").inc();
        }
        rec.counter("durability.frames_replayed").add(report.frames_replayed);
        rec.counter("durability.corrupt_snapshots_skipped")
            .add(report.corrupt_snapshots_skipped);
        rec.counter("durability.stale_frames_skipped").add(report.stale_frames_skipped);

        let store = Store {
            store,
            seq,
            snapshot_every_rounds: policy.snapshot_every_rounds,
            rounds_since_snapshot,
            snapshot_time: rec.histogram("durability.snapshot"),
            snapshot_bytes: rec.gauge("durability.snapshot_bytes"),
            wal_appends: rec.counter("durability.wal_appends"),
            wal_bytes: rec.counter("durability.wal_bytes"),
            snapshots_metric: rec.counter("durability.snapshots"),
        };
        Ok((Self { bot, store: Some(store), manager: None }, report))
    }

    /// Appends a `kind` frame holding `payload()` when there is a store;
    /// a pipeline without one encodes nothing.
    fn append(&mut self, kind: u8, payload: impl FnOnce() -> Vec<u8>) -> Result<(), Error> {
        let Some(s) = &mut self.store else { return Ok(()) };
        let seq = s.seq + 1;
        let bytes = s.store.append(seq, kind, &payload())?;
        s.seq = seq;
        s.wal_appends.inc();
        s.wal_bytes.add(bytes);
        Ok(())
    }

    /// Durably forwards one query ([`QueryBot5000::ingest`]): the sighting
    /// is WAL-framed, then applied.
    pub fn ingest(&mut self, t: Minute, sql: &str) -> Result<TemplateId, Error> {
        self.ingest_weighted(t, sql, 1)
    }

    /// Durable [`QueryBot5000::ingest_weighted`] (append-then-apply): the
    /// sighting is framed as a one-item batch, which replays exactly as the
    /// live call applied it.
    ///
    /// A quarantine rejection returns the Pre-Processor's `Err` exactly as
    /// the in-memory pipeline would — the frame stays in the WAL and the
    /// rejection re-derives identically on replay, so quarantined
    /// statements are never double-counted (they either live in a snapshot
    /// *or* replay once, per invariant 2).
    pub fn ingest_weighted(
        &mut self,
        t: Minute,
        sql: &str,
        count: u64,
    ) -> Result<TemplateId, Error> {
        self.append(KIND_INGEST_BATCH, || encode_batch_items(std::iter::once((t, count, sql))))?;
        self.bot.ingest_weighted(t, sql, count)
    }

    /// Durable [`QueryBot5000::ingest_batch`] (append-then-apply).
    ///
    /// The whole batch travels in one WAL frame, so a crash either loses
    /// the entire tick or none of it — replay routes the frame back
    /// through the ingest engine and re-derives identical state.
    pub fn ingest_batch(&mut self, batch: &[BatchItem<'_>]) -> Result<BatchReport, Error> {
        self.append(KIND_INGEST_BATCH, || {
            encode_batch_items(batch.iter().map(|it| (it.minute, it.count, it.sql)))
        })?;
        Ok(self.bot.ingest_batch(batch))
    }

    /// [`DurablePipeline::ingest_batch`] on an explicit worker pool
    /// ([`QueryBot5000::ingest_batch_with`]). The frame is the same, and
    /// replay ingests it on the pipeline's own pool.
    pub fn ingest_batch_with(
        &mut self,
        pool: &ThreadPool,
        batch: &[BatchItem<'_>],
    ) -> Result<BatchReport, Error> {
        self.append(KIND_INGEST_BATCH, || {
            encode_batch_items(batch.iter().map(|it| (it.minute, it.count, it.sql)))
        })?;
        Ok(self.bot.ingest_batch_with(pool, batch))
    }

    /// Durable [`QueryBot5000::update_clusters`]: the instant is WAL-framed
    /// and, after the rebuild, a snapshot is cut when the configured
    /// `snapshot_every_rounds` policy comes due.
    pub fn update_clusters(&mut self, now: Minute) -> Result<UpdateReport, Error> {
        let rec = WalRecord::ClusterUpdate { now };
        self.append(KIND_CLUSTER_UPDATE, || encode_wal_record(&rec).1)?;
        let report = self.bot.update_clusters(now);
        if let Some(s) = &mut self.store {
            s.rounds_since_snapshot += 1;
            if s.rounds_since_snapshot >= s.snapshot_every_rounds {
                self.snapshot()?;
            }
        }
        Ok(report)
    }

    /// Cuts a snapshot of the full pipeline state now (also called
    /// automatically by the `snapshot_every_rounds` policy). Rotates the
    /// WAL and prunes state older than the fallback snapshot. A pipeline
    /// without a store writes nothing and returns `Ok(())`.
    pub fn snapshot(&mut self) -> Result<(), Error> {
        let Some(s) = &mut self.store else { return Ok(()) };
        let _span = s.snapshot_time.start();
        let full = FullState {
            pipeline: self.bot.export_state(),
            manager: self.manager.as_ref().map(ForecastManager::export_state),
            tracer: self.bot.tracer().export_state(),
        };
        let payload = encode_full_state(&full);
        s.store.snapshot(s.seq, &payload)?;
        s.snapshot_bytes.set(payload.len() as f64);
        s.snapshots_metric.inc();
        s.rounds_since_snapshot = 0;
        Ok(())
    }

    /// Attaches a [`ForecastManager`] (fresh, or rebuilt from
    /// [`RecoveryReport::manager`] via [`ForecastManager::restore`]); its
    /// serving state joins subsequent snapshots. The pipeline's recorder
    /// and tracer are installed into it, and its
    /// [`ForecastManager::minute_lookback`] is registered. Frames that
    /// [`DurablePipeline::open`] replayed compacted at the default
    /// [`qb_preprocessor::MINUTE_RETENTION`], before any manager was
    /// attached: after such a recovery a sub-hour horizon reads exact
    /// minutes only as far back as the histories have kept them since.
    pub fn attach_manager(&mut self, mut manager: ForecastManager) {
        self.bot.keep_minutes(manager.minute_lookback());
        manager.set_recorder(self.bot.recorder());
        manager.set_tracer(self.bot.tracer());
        self.manager = Some(manager);
    }

    /// The attached manager, if any.
    pub fn manager(&self) -> Option<&ForecastManager> {
        self.manager.as_ref()
    }

    /// [`ForecastManager::ensure_trained`] against this pipeline.
    ///
    /// # Panics
    /// Panics if no manager is attached.
    pub fn ensure_trained(&mut self, now: Minute) -> Result<RetrainOutcome, Error> {
        let mgr = self
            .manager
            .as_mut()
            .expect("DurablePipeline::ensure_trained: attach_manager first");
        mgr.ensure_trained(&self.bot, now)
    }

    /// [`ForecastManager::predict_tracked`] against this pipeline.
    ///
    /// # Panics
    /// Panics if no manager is attached (see
    /// [`DurablePipeline::attach_manager`]) or the manager was never
    /// trained.
    pub fn predict_tracked(&mut self, now: Minute, horizon_idx: usize) -> Vec<f64> {
        let mgr = self
            .manager
            .as_mut()
            .expect("DurablePipeline::predict_tracked: attach_manager first");
        mgr.predict_tracked(&self.bot, now, horizon_idx)
    }

    /// [`ForecastManager::settle`] against this pipeline.
    ///
    /// # Panics
    /// Panics if no manager is attached.
    pub fn settle(&mut self, now: Minute) -> usize {
        let mgr = self.manager.as_mut().expect("DurablePipeline::settle: attach_manager first");
        mgr.settle(&self.bot, now)
    }

    /// The wrapped pipeline, read-only. Mutations must go through the
    /// durable methods so they hit the WAL.
    pub fn bot(&self) -> &QueryBot5000 {
        &self.bot
    }

    /// Health of the wrapped pipeline, with the manager's rolling
    /// forecast-accuracy rows and its last training error attached when
    /// one is present.
    pub fn health(&self) -> PipelineHealth {
        let h = self.bot.health();
        match &self.manager {
            Some(mgr) => h.with_accuracy(mgr.accuracy()).with_forecast(&mgr.health()),
            None => h,
        }
    }

    /// Sequence of the last durable operation (0 without a store).
    pub fn durable_seq(&self) -> u64 {
        self.store.as_ref().map_or(0, |s| s.seq)
    }

    /// Store activity counters (snapshot bytes/frames written; all zero
    /// without a store).
    pub fn store_stats(&self) -> StoreStats {
        self.store.as_ref().map(|s| s.store.stats()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::HorizonSpec;
    use qb_durable::IoPoint;
    use qb_timeseries::MINUTES_PER_DAY;
    use std::path::Path;

    /// Re-arms the crash-injection hook of a pipeline with a store.
    fn set_fault_hook(p: &mut DurablePipeline, hook: FaultHook) {
        p.store.as_mut().expect("a durable pipeline has a store").store.set_hook(hook);
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("qb-core-durable-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_config(dir: &Path) -> Qb5000Config {
        Qb5000Config {
            durability: Some(DurabilityConfig::new(dir)),
            ..Qb5000Config::default()
        }
    }

    /// Each tracked cluster's id, volume bits and members in order.
    fn tracked_bits(bot: &QueryBot5000) -> Vec<(u64, u64, Vec<u32>)> {
        bot.tracked_clusters()
            .iter()
            .map(|c| (c.id.0, c.volume.to_bits(), c.members.iter().map(|m| m.0).collect()))
            .collect()
    }

    fn feed(p: &mut DurablePipeline, days: i64) {
        for minute in 0..days * MINUTES_PER_DAY {
            let hour = (minute / 60) % 24;
            let v = if (8..20).contains(&hour) { 30 } else { 3 };
            p.ingest_weighted(minute, "SELECT a FROM t WHERE id = 1", v).unwrap();
            let nv = if (8..20).contains(&hour) { 2 } else { 25 };
            p.ingest_weighted(minute, "SELECT b FROM u WHERE id = 2", nv).unwrap();
        }
    }

    /// A config without a policy opens the same handle with no store: it
    /// recovers, writes and registers nothing, its snapshot is a no-op, and
    /// it computes exactly what [`QueryBot5000`] does on the same script.
    #[test]
    fn open_without_policy_has_no_store() {
        let rec = qb_obs::Recorder::new();
        let config = Qb5000Config { recorder: rec.clone(), ..Qb5000Config::default() };
        let (mut p, report) = DurablePipeline::open(config).unwrap();
        assert!(!report.recovered());
        assert_eq!(report.manager, None);
        let mut bot = QueryBot5000::new(Qb5000Config::default());
        let pool = ThreadPool::new(2);
        let sqls = ["SELECT a FROM t WHERE id = 1", "SELECT b FROM u WHERE id = 2", "SELEC broken"];
        for minute in 0..MINUTES_PER_DAY {
            let batch: Vec<BatchItem<'_>> = (sqls.iter().enumerate())
                .map(|(k, sql)| BatchItem { minute, sql, count: 1 + k as u64 })
                .collect();
            match minute % 3 {
                0 => assert_eq!(
                    p.ingest_weighted(minute, sqls[2], 2).is_err(),
                    bot.ingest_weighted(minute, sqls[2], 2).is_err()
                ),
                1 => assert_eq!(p.ingest_batch(&batch).unwrap(), bot.ingest_batch(&batch)),
                _ => assert_eq!(
                    p.ingest_batch_with(&pool, &batch).unwrap(),
                    bot.ingest_batch_with(&pool, &batch)
                ),
            }
            if minute % 360 == 359 {
                p.update_clusters(minute + 1).unwrap();
                bot.update_clusters(minute + 1);
            }
        }
        p.snapshot().unwrap();
        assert_eq!(p.durable_seq(), 0);
        assert_eq!(p.store_stats(), StoreStats::default(), "nothing written");
        let snap = rec.snapshot();
        let mut names =
            snap.counters.keys().chain(snap.gauges.keys()).chain(snap.histograms.keys());
        assert!(names.all(|name| !name.starts_with("durability.")), "{snap:?}");
        assert_eq!(p.bot().export_state(), bot.export_state());
        assert_eq!(p.health(), bot.health());
        assert_eq!(tracked_bits(p.bot()), tracked_bits(&bot));
    }

    /// A model whose every fit fails.
    struct Unfit;

    impl qb_forecast::Forecaster for Unfit {
        fn name(&self) -> &'static str {
            "UNFIT"
        }
        fn fit(
            &mut self,
            _: &[Vec<f64>],
            _: qb_forecast::WindowSpec,
        ) -> Result<(), qb_forecast::ForecastError> {
            Err(qb_forecast::ForecastError::Diverged { model: "UNFIT", detail: "by test".into() })
        }
        fn predict(&self, _: &[Vec<f64>]) -> Vec<f64> {
            unreachable!("never fitted")
        }
    }

    /// A failed train shows in the handle's health, with a store and
    /// without one.
    #[test]
    fn health_carries_the_managers_training_error() {
        let dir = tmp_dir("train-error");
        let now = 2 * MINUTES_PER_DAY;
        for config in [Qb5000Config::default(), durable_config(&dir)] {
            let (mut p, _) = DurablePipeline::open(config).unwrap();
            feed(&mut p, 2);
            p.update_clusters(now).unwrap();
            let unfit = || Box::new(Unfit) as Box<dyn qb_forecast::Forecaster>;
            p.attach_manager(ForecastManager::new(vec![HorizonSpec::hourly(1)], unfit));
            assert!(p.ensure_trained(now).is_err());
            let errors = p.health().last_errors;
            assert!(errors.iter().any(|(stage, e)| *stage == "forecaster" && e.contains("UNFIT")));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_open_reports_no_recovery() {
        let dir = tmp_dir("fresh");
        let (p, report) = DurablePipeline::open(durable_config(&dir)).unwrap();
        assert!(!report.recovered());
        assert_eq!(report.snapshot_seq, None);
        assert_eq!(p.durable_seq(), 0);
    }

    #[test]
    fn full_state_round_trips_through_bytes() {
        let dir = tmp_dir("roundtrip");
        let (mut p, _) = DurablePipeline::open(durable_config(&dir)).unwrap();
        feed(&mut p, 2);
        let _ = p.ingest_weighted(5, "SELEC broken", 3); // quarantine content
        p.update_clusters(2 * MINUTES_PER_DAY).unwrap();
        let full = FullState {
            pipeline: p.bot().export_state(),
            manager: None,
            tracer: None,
        };
        let bytes = encode_full_state(&full);
        let back = decode_full_state(&bytes).unwrap();
        assert_eq!(back, full);
    }

    #[test]
    fn version_mismatch_is_refused() {
        let full = FullState {
            pipeline: QueryBot5000::new(Qb5000Config::default()).export_state(),
            manager: None,
            tracer: None,
        };
        let mut bytes = encode_full_state(&full);
        bytes[0] = 0xFF; // clobber the version prefix
        let err = decode_full_state(&bytes).unwrap_err();
        assert!(matches!(err, DurabilityError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn wal_records_round_trip() {
        for rec in [
            WalRecord::ClusterUpdate { now: 1440 },
            WalRecord::Compact,
            WalRecord::IngestBatch { items: vec![] },
            WalRecord::IngestBatch {
                items: vec![
                    (0, 3, "SELECT 1".into()),
                    (-7, 1, String::new()),
                    (1440, u64::MAX, "SELEC broken".into()),
                ],
            },
        ] {
            let (kind, payload) = encode_wal_record(&rec);
            assert_eq!(decode_wal_record(kind, &payload).unwrap(), rec);
        }
        // Kind 1, the per-sighting frame of retired builds, is unknown now.
        let mut e = Enc::new();
        e.i64(-5);
        e.u64(42);
        e.str("SELECT 1");
        for (kind, payload) in [(1, e.finish()), (99, vec![])] {
            let err = decode_wal_record(kind, &payload).unwrap_err();
            assert!(err.to_string().contains(&format!("kind {kind}")), "{err}");
        }
    }

    /// A CRC-valid frame of a kind this build does not know is not a torn
    /// tail: `open` refuses the directory, naming the kind, rather than
    /// recovering the frames before it, and leaves every frame on disk.
    #[test]
    fn an_unknown_wal_kind_refuses_open() {
        let dir = tmp_dir("unknown-kind");
        let (kind, payload) = encode_wal_record(&WalRecord::IngestBatch {
            items: vec![(0, 3, "SELECT a FROM t WHERE id = 1".into())],
        });
        {
            let (mut store, _) = DurableStore::open(&dir, FaultHook::none()).unwrap();
            store.append(1, kind, &payload).unwrap();
            let mut e = Enc::new();
            e.i64(1);
            e.u64(2);
            e.str("SELECT a FROM t WHERE id = 1");
            store.append(2, 1, &e.finish()).unwrap();
        }
        let Err(err) = DurablePipeline::open(durable_config(&dir)) else {
            panic!("a kind-1 frame must refuse open");
        };
        assert_eq!(err.stage(), "durability");
        assert!(err.to_string().contains("unknown WAL record kind 1"), "{err}");
        let (_, recovered) = DurableStore::open(&dir, FaultHook::none()).unwrap();
        assert!(recovered.snapshot.is_none());
        assert_eq!(recovered.frames.iter().map(|f| f.kind).collect::<Vec<_>>(), [kind, 1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_frame_from_borrowed_items_equals_the_owned_record() {
        let dir = tmp_dir("batch-frame");
        let batches: [Vec<(Minute, u64, String)>; 2] = [
            vec![],
            vec![
                (0, 3, "SELECT 1".into()),
                (-7, 1, String::new()),
                (1440, 5, "SELEC broken é".into()),
            ],
        ];
        {
            let (mut p, _) = DurablePipeline::open(durable_config(&dir)).unwrap();
            for items in &batches {
                let batch: Vec<BatchItem<'_>> = items
                    .iter()
                    .map(|(minute, count, sql)| BatchItem { minute: *minute, sql, count: *count })
                    .collect();
                p.ingest_batch(&batch).unwrap();
            }
        }
        let (_, recovered) = DurableStore::open(&dir, FaultHook::none()).unwrap();
        assert_eq!(recovered.frames.len(), batches.len());
        for (frame, items) in recovered.frames.iter().zip(batches) {
            let (kind, payload) = encode_wal_record(&WalRecord::IngestBatch { items });
            assert_eq!(frame.kind, kind);
            assert_eq!(frame.payload, payload, "same bytes as the owned record");
        }
    }

    /// Guards against a regression to fixed width: a run of busy
    /// consecutive minutes costs at most 3 bytes a pair (v3: 16), and a
    /// sorted table of template texts costs well under its text.
    #[test]
    fn v4_tiers_and_text_tables_stay_small() {
        let tier: Vec<(Minute, u64)> =
            (0..10_000).map(|k| (40 * MINUTES_PER_DAY + k, 1 + (k as u64 * 37) % 900)).collect();
        let mut e = Enc::new();
        encode_tier(&mut e, &tier);
        assert!(e.len() <= 3 * tier.len(), "{} bytes for {} pairs", e.len(), tier.len());
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        assert_eq!(decode_tier(&mut d).unwrap(), tier);
        d.finish().unwrap();

        let mut texts: Vec<(String, u32)> = (0..1_000u32)
            .map(|k| {
                let text = format!(
                    "SELECT arrival FROM stop_times WHERE stop_id = ? AND route = ? AND c{} = ?",
                    k * 7919 % 100_000
                );
                (text, k)
            })
            .collect();
        texts.sort();
        let text_bytes: usize = texts.iter().map(|(text, _)| text.len()).sum();
        let encoded = |s: &PreProcessorState| {
            let mut e = Enc::new();
            encode_preprocessor_state(&mut e, s);
            e.finish()
        };
        let state = PreProcessorState { distinct_texts: texts, ..PreProcessorState::default() };
        let bytes = encoded(&state);
        let table_bytes = bytes.len() - encoded(&PreProcessorState::default()).len();
        assert!(table_bytes * 3 < text_bytes, "{table_bytes} bytes for {text_bytes} of text");
        let mut d = Dec::new(&bytes);
        assert_eq!(decode_preprocessor_state(&mut d).unwrap(), state);
        d.finish().unwrap();
    }

    /// Hostile input never panics: every truncation of a v7 payload is an
    /// error, and every single-bit flip is either an error or a different
    /// state (a flipped float or counter bit is a valid value; the snapshot
    /// file's CRC-32 rejects those before the payload is decoded). No byte
    /// is dead: none decodes to the same state when flipped. The payload
    /// holds clusterer features with a zero lead and a suffix.
    #[test]
    fn every_truncation_and_bit_flip_of_a_v7_payload_fails_cleanly() {
        let mut bot = QueryBot5000::new(Qb5000Config::default());
        for minute in (0..400).step_by(7) {
            let batch = [
                BatchItem { minute, sql: "SELECT a FROM t WHERE id = 1", count: 3 },
                BatchItem { minute, sql: "SELECT a FROM t WHERE id = 12", count: 200 },
                BatchItem { minute: minute + 1, sql: "SELECT b FROM u WHERE v = 'é'", count: 1 },
            ];
            bot.ingest_batch(&batch);
            if minute % 49 == 0 {
                let _ = bot.ingest_weighted(minute - 150, "DELETE FROM u WHERE id = 4", 2);
                let _ = bot.ingest_weighted(minute, "SELEC broken (", 1);
            }
        }
        bot.update_clusters(420);
        let full = FullState { pipeline: bot.export_state(), manager: None, tracer: None };
        let pre = &full.pipeline.pre;
        assert_eq!(pre.distinct_texts.len(), 3, "per-event and batch rows share the text table");
        assert!(pre.entries.iter().all(|e| !e.history.compacted.is_empty()));
        assert!(pre.quarantine.rejected_statements > 0);
        let templates = &full.pipeline.clusterer.templates;
        assert!(templates.iter().any(|t| t.feature.lead() > 0 && !t.feature.suffix().is_empty()));
        let bytes = encode_full_state(&full);

        for cut in 0..bytes.len() {
            assert!(decode_full_state(&bytes[..cut]).is_err(), "truncated at {cut}");
        }
        let mut flipped = bytes.clone();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                flipped[i] ^= 1 << bit;
                // Compared as bytes: `==` on floats cannot tell -0.0 from 0.0.
                if let Ok(back) = decode_full_state(&flipped) {
                    assert!(encode_full_state(&back) != bytes, "byte {i} bit {bit} is dead");
                }
                flipped[i] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn recovery_after_clean_run_is_bit_identical() {
        let dir = tmp_dir("recover");
        let now = 3 * MINUTES_PER_DAY;
        let reference = {
            let (mut p, _) = DurablePipeline::open(durable_config(&dir)).unwrap();
            feed(&mut p, 3);
            p.update_clusters(now).unwrap();
            // More sightings after the snapshot: these live only in the WAL.
            for minute in now..now + 120 {
                p.ingest_weighted(minute, "SELECT a FROM t WHERE id = 1", 7).unwrap();
            }
            (p.bot().export_state(), p.health(), p.durable_seq(), tracked_bits(p.bot()))
        };
        assert!(!reference.3.is_empty());
        let (p2, report) = DurablePipeline::open(durable_config(&dir)).unwrap();
        assert!(report.recovered());
        assert_eq!(report.snapshot_seq, Some(reference.2 - 120));
        assert_eq!(report.statements_replayed, 120);
        assert_eq!(p2.bot().export_state(), reference.0, "state replays bit-identically");
        assert_eq!(p2.health(), reference.1);
        assert_eq!(p2.durable_seq(), reference.2);
        assert_eq!(tracked_bits(p2.bot()), reference.3, "tracked clusters selected again");
    }

    #[test]
    fn batched_ingest_recovers_bit_identically() {
        let dir = tmp_dir("recover-batch");
        let batch_at = |m: Minute| {
            vec![
                (m, "SELECT a FROM t WHERE id = 1".to_string(), 4u64),
                (m, "SELECT b FROM u WHERE id = 2".to_string(), 2),
                (m, "SELEC broken".to_string(), 1),
            ]
        };
        fn as_items(owned: &[(Minute, String, u64)]) -> Vec<BatchItem<'_>> {
            owned
                .iter()
                .map(|(minute, sql, count)| BatchItem { minute: *minute, sql, count: *count })
                .collect()
        }
        let reference = {
            let (mut p, _) = DurablePipeline::open(durable_config(&dir)).unwrap();
            for m in 0..60 {
                let owned = batch_at(m);
                p.ingest_batch(&as_items(&owned)).unwrap();
            }
            p.update_clusters(60).unwrap();
            // Batches after the snapshot live only in the WAL.
            for m in 60..75 {
                let owned = batch_at(m);
                p.ingest_batch(&as_items(&owned)).unwrap();
            }
            (p.bot().export_state(), p.health(), p.durable_seq())
        };
        let (p2, report) = DurablePipeline::open(durable_config(&dir)).unwrap();
        assert!(report.recovered());
        assert_eq!(report.statements_replayed, 15 * 3);
        assert_eq!(
            p2.bot().export_state(),
            reference.0,
            "batched replay through a cold memo re-derives identical state"
        );
        assert_eq!(p2.health(), reference.1);
        assert_eq!(p2.durable_seq(), reference.2);
    }

    #[test]
    fn quarantined_statements_never_double_count() {
        let dir = tmp_dir("quarantine");
        let (mut p, _) = DurablePipeline::open(durable_config(&dir)).unwrap();
        feed(&mut p, 1);
        for k in 0..5 {
            assert!(p.ingest_weighted(100 + k, "SELEC nope", 2).is_err());
        }
        p.update_clusters(MINUTES_PER_DAY).unwrap(); // snapshot includes the ring
        assert!(p.ingest_weighted(2000, "SELEC nope again", 1).is_err()); // WAL-only
        let before = p.health();
        drop(p);
        let (p2, _) = DurablePipeline::open(durable_config(&dir)).unwrap();
        let after = p2.health();
        assert_eq!(after.rejected_statements, 6);
        assert_eq!(after.rejected_arrivals, 11);
        assert_eq!(after, before, "ingest accounting identity across crash-restart");
    }

    #[test]
    fn injected_crash_mid_append_loses_only_that_operation() {
        let dir = tmp_dir("crash-append");
        let now = MINUTES_PER_DAY;
        {
            let (mut p, _) = DurablePipeline::open(durable_config(&dir)).unwrap();
            feed(&mut p, 1);
            p.update_clusters(now).unwrap();
            set_fault_hook(&mut p, FaultHook::crash_at_point(IoPoint::WalFrameHalf));
            let err = p.ingest_weighted(now + 1, "SELECT a FROM t WHERE id = 1", 9).unwrap_err();
            assert!(err.is_injected_crash());
        }
        let (p2, report) = DurablePipeline::open(durable_config(&dir)).unwrap();
        // The torn frame was truncated; state matches the pre-crash prefix.
        assert_eq!(report.statements_replayed, 0);
        assert_eq!(p2.health().ingested_statements, 2 * MINUTES_PER_DAY as u64);
        // The pipeline keeps accepting (sequence continues past the tear).
        let (mut p2, _) = DurablePipeline::open(durable_config(&dir)).unwrap();
        p2.ingest_weighted(now + 1, "SELECT a FROM t WHERE id = 1", 9).unwrap();
    }

    #[test]
    fn a_failed_append_refuses_later_ingests_until_reopen() {
        let dir = tmp_dir("failed-append");
        let sql = "SELECT a FROM t WHERE id = 1";
        let before = {
            let (mut p, _) = DurablePipeline::open(durable_config(&dir)).unwrap();
            for minute in 0..30 {
                p.ingest_weighted(minute, sql, 2).unwrap();
            }
            set_fault_hook(&mut p, FaultHook::crash_at_point(IoPoint::WalFrameHalf));
            assert!(p.ingest_weighted(30, sql, 9).unwrap_err().is_injected_crash());
            let before = p.bot().export_state();
            set_fault_hook(&mut p, FaultHook::none());
            let batch = [BatchItem { minute: 31, sql, count: 4 }];
            let err = p.ingest_batch(&batch).unwrap_err();
            assert_eq!(err.stage(), "durability");
            assert!(!err.is_injected_crash());
            assert!(p.update_clusters(60).is_err());
            assert_eq!(p.snapshot().unwrap_err().stage(), "durability");
            assert_eq!(p.store_stats().snapshots_written, 0);
            assert_eq!(p.bot().export_state(), before, "refused calls change nothing");
            assert_eq!(p.durable_seq(), 30);
            before
        };
        // Reopening truncates the torn frame and accepts appends again.
        let (mut p, report) = DurablePipeline::open(durable_config(&dir)).unwrap();
        assert_eq!(report.frames_replayed, 30);
        assert_eq!(p.bot().export_state(), before);
        p.ingest_weighted(31, sql, 4).unwrap();
        assert_eq!(p.durable_seq(), 31);
    }

    /// Attaching a manager with a sub-hour horizon registers its lookback:
    /// histories keep the minutes it trains on, back to the hour that
    /// holds the lookback's start, and no further.
    #[test]
    fn attaching_a_sub_hour_manager_keeps_the_minutes_it_reads() {
        let dir = tmp_dir("sub-hour-manager");
        let (mut p, _) = DurablePipeline::open(durable_config(&dir)).unwrap();
        let spec = HorizonSpec {
            interval: qb_timeseries::Interval::TEN_MINUTES,
            window: 6,
            horizon: 3,
            train_steps: 30,
        };
        let manager =
            ForecastManager::new(vec![spec], || Box::new(qb_forecast::LinearRegression::default()));
        assert_eq!(manager.minute_lookback(), 310);
        p.attach_manager(manager);
        for minute in 0..12 * 60 {
            p.ingest_weighted(minute, "SELECT a FROM t WHERE id = 1", 2).unwrap();
        }
        // The newest arrival is minute 719; 310 back is 409, in the hour
        // from 360.
        let kept = p.bot().preprocessor().templates()[0].history.export_state().raw;
        assert_eq!(kept[..2], [(0, 2), (360, 2)]);
        assert_eq!(kept.len(), 1 + 360);
        drop(p);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manager_state_travels_through_snapshot() {
        let dir = tmp_dir("manager");
        let now = 6 * MINUTES_PER_DAY;
        let factory = || {
            Box::new(qb_forecast::LinearRegression::default()) as Box<dyn qb_forecast::Forecaster>
        };
        let prediction = {
            let (mut p, report) = DurablePipeline::open(durable_config(&dir)).unwrap();
            assert!(report.manager.is_none());
            feed(&mut p, 6);
            p.update_clusters(now).unwrap();
            p.attach_manager(ForecastManager::new(vec![HorizonSpec::hourly(1)], factory));
            p.ensure_trained(now).unwrap();
            let pred = p.predict_tracked(now, 0);
            p.snapshot().unwrap(); // manager state now in the snapshot
            pred
        };
        let (mut p2, report) = DurablePipeline::open(durable_config(&dir)).unwrap();
        let mstate = report.manager.expect("manager state recovered");
        let mgr = ForecastManager::restore(
            vec![HorizonSpec::hourly(1)],
            factory,
            mstate,
            p2.bot(),
        )
        .unwrap();
        p2.attach_manager(mgr);
        assert_eq!(p2.ensure_trained(now).unwrap(), RetrainOutcome::UpToDate);
        assert_eq!(p2.predict_tracked(now, 0), prediction, "warm-start predictions identical");
    }

    #[test]
    fn tracer_stream_survives_recovery() {
        let dir = tmp_dir("tracer");
        let now = MINUTES_PER_DAY;
        let make_cfg = |dir: &Path| Qb5000Config {
            tracer: qb_trace::Tracer::enabled(),
            durability: Some(DurabilityConfig::new(dir)),
            ..Qb5000Config::default()
        };
        let reference = {
            let (mut p, _) = DurablePipeline::open(make_cfg(&dir)).unwrap();
            feed(&mut p, 1);
            p.update_clusters(now).unwrap();
            for minute in now..now + 30 {
                p.ingest_weighted(minute, "SELECT a FROM t WHERE id = 1", 4).unwrap();
            }
            p.bot().tracer().export_state().unwrap()
        };
        let (p2, _) = DurablePipeline::open(make_cfg(&dir)).unwrap();
        let recovered = p2.bot().tracer().export_state().unwrap();
        assert_eq!(recovered, reference, "trace ring replays bit-identically");
    }

    #[test]
    fn snapshot_metrics_flow_to_recorder() {
        let dir = tmp_dir("metrics");
        let rec = qb_obs::Recorder::new();
        let cfg = Qb5000Config {
            recorder: rec.clone(),
            durability: Some(DurabilityConfig::new(&dir)),
            ..Qb5000Config::default()
        };
        let (mut p, _) = DurablePipeline::open(cfg).unwrap();
        feed(&mut p, 1);
        p.update_clusters(MINUTES_PER_DAY).unwrap();
        let snap = rec.snapshot();
        assert_eq!(snap.counters["durability.fresh_starts"], 1);
        assert_eq!(snap.counters["durability.snapshots"], 1);
        assert!(snap.counters["durability.wal_appends"] > 0);
        assert_eq!(snap.counters["durability.wal_bytes"], p.store_stats().wal_bytes);
        assert!(p.store_stats().wal_bytes > 2 * MINUTES_PER_DAY as u64 * (8 + 9));
        assert!(snap.gauges["durability.snapshot_bytes"] > 0.0);
        assert_eq!(snap.histograms["durability.snapshot"].count, 1);
        assert!(p.store_stats().last_snapshot_bytes > 0);
    }

    #[test]
    fn snapshot_every_n_rounds_policy_holds() {
        let dir = tmp_dir("policy");
        let cfg = Qb5000Config {
            durability: Some(DurabilityConfig::new(&dir).snapshot_every_rounds(3)),
            ..Qb5000Config::default()
        };
        let (mut p, _) = DurablePipeline::open(cfg).unwrap();
        feed(&mut p, 1);
        for round in 1..=6 {
            p.update_clusters(MINUTES_PER_DAY + round * 60).unwrap();
        }
        assert_eq!(p.store_stats().snapshots_written, 2, "6 rounds / every 3");
    }
}
