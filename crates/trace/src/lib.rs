//! # qb-trace
//!
//! Deterministic structured tracing, decision lineage, and a bounded
//! flight recorder for the QB5000 pipeline (std only, zero deps beyond
//! `qb-obs`).
//!
//! ## Design
//!
//! * **Deterministic logical clock.** Every [`Event`] carries a global id
//!   plus a `(round, seq)` logical timestamp. Rounds advance at cluster
//!   refresh boundaries ([`Tracer::begin_round`]); `seq` counts emissions
//!   within a round. No wall time participates in ids, ordering, or the
//!   deterministic stream — [`TraceView::deterministic_stream`] and
//!   [`TraceView::explain`] are bit-identical across thread-pool widths.
//!   Wall timestamps *are* captured alongside (when enabled) but feed only
//!   the Chrome trace-event export.
//! * **Decision lineage.** Events link to their causes via `parent` and
//!   `refs` ids, and pipeline stages publish [`Scope`] anchors (template
//!   id → its `TemplateCreated` event, …) so later stages can link to
//!   causes they never saw directly. [`TraceView::explain`] walks the
//!   links and reconstructs the full "why" path for any decision.
//! * **Bounded memory.** Events live in a ring of [`RING_CAPACITY`].
//!   Eviction is counted (surfaced as the `trace.ring_evictions` gauge once
//!   a [`Recorder`] is bound) and lineage survives it: whenever an event is
//!   linked as a parent/ref or anchored, the linked event is *pinned* at
//!   link time into a side map bounded by [`PIN_CAPACITY`], so `explain`
//!   never dangles.
//! * **Deterministic parallelism.** Worker closures return their
//!   [`EventDraft`]s; the control thread commits them after the join with
//!   [`Tracer::record_on_lane`] in input order, mirroring `qb-parallel`'s
//!   ordering guarantee.
//! * **One timer per stage.** [`Tracer::stage`] times a stage once and
//!   feeds both its `qb-obs` histogram and its [`EventKind::StageSpan`].
//! * **Flight-recorder dumps.** [`Tracer::trigger_dump`] (called by the
//!   pipeline on forecast divergence, degradation downgrades, and —
//!   internally — [`QUARANTINE_SPIKE`] quarantines in a round) snapshots
//!   the last [`DUMP_EVENTS`] events plus the lineage slice of the
//!   triggering decision into a [`TraceDump`].
//!
//! ```
//! use qb_trace::{EventDraft, EventKind, Tracer};
//!
//! let tracer = Tracer::enabled();
//! tracer.begin_round(0);
//! let seen = tracer.record(EventDraft::new(EventKind::QuerySeen).uint("len", 25)).unwrap();
//! let tpl = tracer
//!     .record(EventDraft::new(EventKind::TemplateCreated).parent(seen).uint("template", 0))
//!     .unwrap();
//! let view = tracer.view();
//! assert!(view.explain(tpl).contains("QuerySeen"));
//! ```

#![forbid(unsafe_code)]

pub mod chrome;
pub mod view;

pub use chrome::{parse_json, to_chrome_json, Json};
pub use view::TraceView;

use qb_obs::{Gauge, Histogram, Recorder};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Typed event kinds — the trace taxonomy. One variant per consequential
/// pipeline transition; each variant's doc says when it is emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A logical round (cluster refresh cycle) began.
    RoundStarted,
    /// First sighting of a query shape (emitted once per new template).
    QuerySeen,
    /// A new template was interned.
    TemplateCreated,
    /// A statement failed templatization and was quarantined.
    QueryQuarantined,
    /// Quarantine admissions crossed the per-round spike threshold.
    QuarantineSpike,
    /// The clusterer minted a new cluster.
    ClusterCreated,
    /// A template moved onto an existing cluster.
    ClusterAssigned,
    /// Two clusters merged.
    ClusterMerged,
    /// A template was evicted from cluster tracking.
    ClusterEvicted,
    /// One full clusterer update cycle finished.
    ClustersUpdated,
    /// A per-horizon model finished fitting.
    ModelFit,
    /// A per-horizon model fit failed.
    ModelFitFailed,
    /// The divergence guard tripped on a fitted model.
    DivergenceGuard,
    /// A model's degradation level changed.
    DegradationTransition,
    /// A retrain was rolled back to the previous model set.
    RetrainRolledBack,
    /// The retrain backoff gate deferred a retrain.
    RetrainBackedOff,
    /// A per-horizon forecast was issued.
    ForecastIssued,
    /// Multi-horizon forecasts were blended into a workload prediction.
    ForecastBlended,
    /// The advisor built an index.
    IndexBuilt,
    /// A wall-timed pipeline stage span (Chrome export only).
    StageSpan,
    /// A forecast snapshot was published to the serving layer (qb-serve
    /// epoch swap); payload carries the epoch, publication reason, and
    /// entry/sharing counts, with parents linking to the fits that
    /// produced the published curves.
    SnapshotPublished,
    /// A cold-start forecast was seeded for a template outside the
    /// trained cluster set; payload carries the template, the origin
    /// (`cluster_share` with its cluster and share, or
    /// `population_prior`), and the seeded value, with lineage to the
    /// cluster assignment the seed was derived from.
    TemplateColdStart,
    /// An alert rule transitioned to firing; payload carries the rule
    /// name, severity, the offending metric and value, and the round the
    /// condition first held, with parents linking to the evidence events
    /// of the violation window.
    AlertFired,
    /// A firing alert's clear window completed and it resolved; payload
    /// carries the rule name and the rounds the alert was active, with a
    /// parent linking back to the [`EventKind::AlertFired`] event.
    AlertResolved,
}

impl EventKind {
    /// Stable numeric code for durable serialization. Append-only: codes
    /// are part of the snapshot format and must never be reused.
    pub fn to_code(self) -> u8 {
        match self {
            EventKind::RoundStarted => 0,
            EventKind::QuerySeen => 1,
            EventKind::TemplateCreated => 2,
            EventKind::QueryQuarantined => 3,
            EventKind::QuarantineSpike => 4,
            EventKind::ClusterCreated => 5,
            EventKind::ClusterAssigned => 6,
            EventKind::ClusterMerged => 7,
            EventKind::ClusterEvicted => 8,
            EventKind::ClustersUpdated => 9,
            EventKind::ModelFit => 10,
            EventKind::ModelFitFailed => 11,
            EventKind::DivergenceGuard => 12,
            EventKind::DegradationTransition => 13,
            EventKind::RetrainRolledBack => 14,
            EventKind::RetrainBackedOff => 15,
            EventKind::ForecastIssued => 16,
            EventKind::ForecastBlended => 17,
            EventKind::IndexBuilt => 18,
            EventKind::StageSpan => 19,
            EventKind::SnapshotPublished => 20,
            EventKind::TemplateColdStart => 21,
            EventKind::AlertFired => 22,
            EventKind::AlertResolved => 23,
        }
    }

    /// Inverse of [`EventKind::to_code`].
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => EventKind::RoundStarted,
            1 => EventKind::QuerySeen,
            2 => EventKind::TemplateCreated,
            3 => EventKind::QueryQuarantined,
            4 => EventKind::QuarantineSpike,
            5 => EventKind::ClusterCreated,
            6 => EventKind::ClusterAssigned,
            7 => EventKind::ClusterMerged,
            8 => EventKind::ClusterEvicted,
            9 => EventKind::ClustersUpdated,
            10 => EventKind::ModelFit,
            11 => EventKind::ModelFitFailed,
            12 => EventKind::DivergenceGuard,
            13 => EventKind::DegradationTransition,
            14 => EventKind::RetrainRolledBack,
            15 => EventKind::RetrainBackedOff,
            16 => EventKind::ForecastIssued,
            17 => EventKind::ForecastBlended,
            18 => EventKind::IndexBuilt,
            19 => EventKind::StageSpan,
            20 => EventKind::SnapshotPublished,
            21 => EventKind::TemplateColdStart,
            22 => EventKind::AlertFired,
            23 => EventKind::AlertResolved,
            _ => return None,
        })
    }
}

/// Anchor namespaces: `(Scope, key)` names the latest defining event for
/// an entity, letting stages link to causes they never observed directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scope {
    /// Key = template id; anchors its `TemplateCreated` event.
    Template,
    /// Key = cluster id; anchors its `ClusterCreated` event.
    Cluster,
    /// Key = horizon index; anchors the latest `ModelFit` for it.
    Horizon,
    /// Key = 0; anchors the latest `ClustersUpdated` event.
    ClusterState,
}

impl Scope {
    /// Stable numeric code for durable serialization (append-only).
    pub fn to_code(self) -> u8 {
        match self {
            Scope::Template => 0,
            Scope::Cluster => 1,
            Scope::Horizon => 2,
            Scope::ClusterState => 3,
        }
    }

    /// Inverse of [`Scope::to_code`].
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => Scope::Template,
            1 => Scope::Cluster,
            2 => Scope::Horizon,
            3 => Scope::ClusterState,
            _ => return None,
        })
    }
}

/// Identifier of one recorded event; globally monotonic within a tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u64);

impl std::fmt::Display for EventId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A typed payload value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int(i64),
    Uint(u64),
    Float(f64),
    Text(String),
    Flag(bool),
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Uint(v) => write!(f, "{v}"),
            // `{}` on f64 is shortest-round-trip, so bit-identical floats
            // render byte-identically — safe for the deterministic stream.
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(v) => write!(f, "{v:?}"),
            Value::Flag(v) => write!(f, "{v}"),
        }
    }
}

/// Wall-clock span (µs since the tracer's epoch). Deliberately excluded
/// from the deterministic stream and `explain`; consumed only by the
/// Chrome exporter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WallSpan {
    pub start_micros: u64,
    pub dur_micros: u64,
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub id: EventId,
    /// Logical clock: cluster-refresh round …
    pub round: u64,
    /// … and emission sequence within the round.
    pub seq: u64,
    /// Thread-lane the event was emitted from (0 for the control thread;
    /// 1 + input index for fan-out lanes). Deterministic by construction.
    pub lane: u32,
    pub kind: EventKind,
    pub parent: Option<EventId>,
    /// Additional causal links beyond the primary parent.
    pub refs: Vec<EventId>,
    pub payload: Vec<(&'static str, Value)>,
    pub wall: Option<WallSpan>,
}

impl Event {
    /// The deterministic single-line rendering used by streams, dumps and
    /// `explain` — everything except wall time.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("{} r{}.{} lane{} {:?}", self.id, self.round, self.seq, self.lane, self.kind);
        if let Some(p) = self.parent {
            let _ = write!(out, " <-{p}");
        }
        for r in &self.refs {
            let _ = write!(out, " ~{r}");
        }
        for (k, v) in &self.payload {
            let _ = write!(out, " {k}={v}");
        }
        out
    }
}

/// An event under construction: kind, causal links, payload. Cheap to
/// build; callers should still gate draft construction behind
/// [`Tracer::is_enabled`] on hot paths.
#[derive(Debug, Clone)]
pub struct EventDraft {
    kind: EventKind,
    parent: Option<EventId>,
    refs: Vec<EventId>,
    payload: Vec<(&'static str, Value)>,
}

impl EventDraft {
    pub fn new(kind: EventKind) -> Self {
        Self { kind, parent: None, refs: Vec::new(), payload: Vec::new() }
    }

    /// Sets the primary causal parent.
    pub fn parent(mut self, id: EventId) -> Self {
        self.parent = Some(id);
        self
    }

    /// Parent, if known.
    pub fn parent_opt(self, id: Option<EventId>) -> Self {
        match id {
            Some(id) => self.parent(id),
            None => self,
        }
    }

    /// Adds a secondary causal link.
    pub fn reference(mut self, id: EventId) -> Self {
        self.refs.push(id);
        self
    }

    /// Secondary link, if known.
    pub fn reference_opt(self, id: Option<EventId>) -> Self {
        match id {
            Some(id) => self.reference(id),
            None => self,
        }
    }

    pub fn int(mut self, key: &'static str, v: i64) -> Self {
        self.payload.push((key, Value::Int(v)));
        self
    }

    pub fn uint(mut self, key: &'static str, v: u64) -> Self {
        self.payload.push((key, Value::Uint(v)));
        self
    }

    pub fn float(mut self, key: &'static str, v: f64) -> Self {
        self.payload.push((key, Value::Float(v)));
        self
    }

    pub fn text(mut self, key: &'static str, v: &str) -> Self {
        self.payload.push((key, Value::Text(v.to_string())));
        self
    }

    pub fn flag(mut self, key: &'static str, v: bool) -> Self {
        self.payload.push((key, Value::Flag(v)));
        self
    }
}

/// Ring-buffer capacity in events. A fixed bound keeps the recorder's
/// memory flat whatever the run length; lineage reaching past it survives
/// through pins.
pub const RING_CAPACITY: usize = 4096;

/// Bound on the pinned-lineage side map, as large as the ring: a linked
/// event outlives ring eviction until this many newer events are pinned.
pub const PIN_CAPACITY: usize = 4096;

/// Trailing events a dump snapshots: context around the trigger that a
/// health report can carry, without copying the whole ring into each dump.
pub const DUMP_EVENTS: usize = 48;

/// Quarantine admissions within one round that trigger an automatic
/// `QuarantineSpike` dump. A malformed burst of this size in one round is
/// an incident worth a dump; a stray bad statement is not.
pub const QUARANTINE_SPIKE: u64 = 64;

/// One flight-recorder dump: the trailing event window plus the lineage
/// slice of the decision that triggered it, both in the deterministic
/// rendering.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceDump {
    /// What fired the dump, e.g. `"diverged"`, `"degraded"`,
    /// `"quarantine_spike"`.
    pub reason: String,
    /// Logical round at dump time.
    pub round: u64,
    /// Last N events, one [`Event::render`] line each.
    pub recent: String,
    /// `explain()` of the triggering event (empty if none was given).
    pub lineage: String,
}

#[derive(Debug, Default)]
struct RecState {
    next_id: u64,
    round: u64,
    seq: u64,
    /// Id of `ring[0]`; ids are consecutive, so lookup is O(1).
    front_id: u64,
    ring: VecDeque<Event>,
    /// Events evicted from the ring but pinned because lineage links or
    /// anchors point at them.
    pinned: BTreeMap<u64, Event>,
    pin_order: VecDeque<u64>,
    anchors: BTreeMap<(Scope, u64), EventId>,
    dumps: Vec<TraceDump>,
    evictions: u64,
    /// Quarantine admissions since the round began (spike detection).
    round_rejects: u64,
    /// Observability hooks, installed by [`Tracer::bind_recorder`].
    recorder: Recorder,
    eviction_gauge: Gauge,
}

impl RecState {
    fn get(&self, id: EventId) -> Option<&Event> {
        if id.0 >= self.front_id {
            self.ring.get((id.0 - self.front_id) as usize)
        } else {
            self.pinned.get(&id.0)
        }
    }

    /// Copies a live event into the pinned map so ring eviction cannot
    /// orphan a lineage link. FIFO-bounded by [`PIN_CAPACITY`].
    fn pin(&mut self, id: EventId) {
        if self.pinned.contains_key(&id.0) {
            return;
        }
        let Some(ev) = self.get(id).cloned() else { return };
        self.pinned.insert(id.0, ev);
        self.pin_order.push_back(id.0);
        while self.pin_order.len() > PIN_CAPACITY {
            if let Some(old) = self.pin_order.pop_front() {
                self.pinned.remove(&old);
            }
        }
    }

    /// Pinned + ring, ascending by id (ring ids are all newer than pins).
    fn all_events(&self) -> Vec<Event> {
        let mut out: Vec<Event> = self
            .pinned
            .values()
            .filter(|e| e.id.0 < self.front_id)
            .cloned()
            .collect();
        out.extend(self.ring.iter().cloned());
        out
    }
}

#[derive(Debug)]
struct TraceCore {
    state: Mutex<RecState>,
    epoch: Instant,
}

/// A cloneable handle onto one flight recorder — or onto nothing at all
/// ([`Tracer::disabled`], the `Default`), in which case every operation is
/// an `Option` check and nothing else. Mirrors `qb_obs::Recorder`'s
/// enable/disable shape so the pipeline can thread both the same way.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TraceCore>>,
}

impl Tracer {
    /// An enabled tracer: a [`RING_CAPACITY`]-event ring, lineage pinned
    /// up to [`PIN_CAPACITY`] events.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(TraceCore {
                state: Mutex::new(RecState::default()),
                epoch: Instant::now(),
            })),
        }
    }

    /// The no-op tracer (the `Default`).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Installs qb-obs hooks: ring evictions surface as the
    /// `trace.ring_evictions` gauge and each dump increments
    /// `trace.dumps{reason="…"}`.
    pub fn bind_recorder(&self, rec: &Recorder) {
        if let Some(core) = &self.inner {
            let mut st = core.state.lock().expect("trace state poisoned");
            st.eviction_gauge = rec.gauge("trace.ring_evictions");
            st.eviction_gauge.set(st.evictions as f64);
            st.recorder = rec.clone();
        }
    }

    /// Advances the logical clock to `round`, resetting the in-round
    /// sequence and the quarantine spike window, and emits
    /// [`EventKind::RoundStarted`]. Returns the round event's id.
    pub fn begin_round(&self, now_minute: i64) -> Option<EventId> {
        let core = self.inner.as_ref()?;
        {
            let mut st = core.state.lock().expect("trace state poisoned");
            st.round += 1;
            st.seq = 0;
            st.round_rejects = 0;
        }
        self.record(EventDraft::new(EventKind::RoundStarted).int("now_minute", now_minute))
    }

    /// Records one event on the control lane (lane 0). Returns its id, or
    /// `None` when disabled.
    pub fn record(&self, draft: EventDraft) -> Option<EventId> {
        self.record_on_lane(draft, 0)
    }

    /// Records one event on `lane`: `1 + input index` for a draft a
    /// fan-out worker returned. The control thread commits such drafts
    /// after the join, in input order, so ids do not depend on how many
    /// threads ran the work.
    pub fn record_on_lane(&self, draft: EventDraft, lane: u32) -> Option<EventId> {
        let core = self.inner.as_ref()?;
        // Instant timestamp for the Chrome export. Never feeds ids,
        // ordering, or the deterministic stream.
        let wall =
            Some(WallSpan { start_micros: core.epoch.elapsed().as_micros() as u64, dur_micros: 0 });
        let kind = draft.kind;
        let mut st = core.state.lock().expect("trace state poisoned");
        let id = commit_locked(&mut st, draft, lane, wall);
        // Spike detection is internal to the recorder: QueryQuarantined
        // emissions are counted per round, and crossing the threshold
        // fires exactly one dump for the round.
        if kind == EventKind::QueryQuarantined {
            st.round_rejects += 1;
            if st.round_rejects == QUARANTINE_SPIKE {
                let spike = commit_locked(
                    &mut st,
                    EventDraft::new(EventKind::QuarantineSpike)
                        .parent(id)
                        .uint("rejected_this_round", QUARANTINE_SPIKE),
                    lane,
                    None,
                );
                dump_locked(&mut st, "quarantine_spike", Some(spike));
            }
        }
        Some(id)
    }

    /// Publishes `(scope, key) → id` and pins the event so the anchor
    /// outlives ring eviction.
    pub fn set_anchor(&self, scope: Scope, key: u64, id: EventId) {
        if let Some(core) = &self.inner {
            let mut st = core.state.lock().expect("trace state poisoned");
            st.pin(id);
            st.anchors.insert((scope, key), id);
        }
    }

    /// Looks up the latest anchor for `(scope, key)`.
    pub fn anchor(&self, scope: Scope, key: u64) -> Option<EventId> {
        let core = self.inner.as_ref()?;
        let st = core.state.lock().expect("trace state poisoned");
        st.anchors.get(&(scope, key)).copied()
    }

    /// Starts timing the stage `name`. When the guard drops it records
    /// the elapsed time into `hist` (the stage's histogram, usually also
    /// named `name`) and, with tracing on, a wall-timed
    /// [`EventKind::StageSpan`]. The clock is read only when `hist` or
    /// this tracer is live.
    pub fn stage(&self, name: &'static str, hist: &Histogram) -> StageGuard {
        let live = self.is_enabled() || hist.is_enabled();
        let start = live.then(Instant::now);
        StageGuard { tracer: self.clone(), hist: hist.clone(), name, start }
    }

    /// Snapshots a dump: the trailing event window plus (optionally) the
    /// lineage of `focus`. Also bumps `trace.dumps{reason="…"}` on the
    /// bound recorder. No-op when disabled.
    pub fn trigger_dump(&self, reason: &str, focus: Option<EventId>) {
        if let Some(core) = &self.inner {
            let mut st = core.state.lock().expect("trace state poisoned");
            dump_locked(&mut st, reason, focus);
        }
    }

    /// Dumps captured so far (oldest first), leaving them in place.
    pub fn dumps(&self) -> Vec<TraceDump> {
        self.inner.as_ref().map_or_else(Vec::new, |core| {
            core.state.lock().expect("trace state poisoned").dumps.clone()
        })
    }

    /// Total events evicted from the ring so far.
    pub fn evictions(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |core| core.state.lock().expect("trace state poisoned").evictions)
    }

    /// An owned, consistent view over everything currently retained
    /// (pinned lineage + ring), for queries, `explain`, and export.
    pub fn view(&self) -> TraceView {
        self.inner.as_ref().map_or_else(TraceView::empty, |core| {
            let st = core.state.lock().expect("trace state poisoned");
            TraceView::from_events(st.all_events())
        })
    }

    /// Exports the complete recorder state as plain data (durable-snapshot
    /// support). Wall spans are deliberately dropped: they never feed ids,
    /// ordering, or the deterministic stream, and a restored process has a
    /// new epoch anyway. Returns `None` when disabled.
    pub fn export_state(&self) -> Option<TracerState> {
        let core = self.inner.as_ref()?;
        let st = core.state.lock().expect("trace state poisoned");
        let record = |e: &Event| EventRecord {
            id: e.id.0,
            round: e.round,
            seq: e.seq,
            lane: e.lane,
            kind: e.kind,
            parent: e.parent.map(|p| p.0),
            refs: e.refs.iter().map(|r| r.0).collect(),
            payload: e.payload.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect(),
        };
        Some(TracerState {
            next_id: st.next_id,
            round: st.round,
            seq: st.seq,
            front_id: st.front_id,
            ring: st.ring.iter().map(record).collect(),
            pinned: st.pinned.values().map(record).collect(),
            pin_order: st.pin_order.iter().copied().collect(),
            anchors: st.anchors.iter().map(|(&(s, k), &id)| (s, k, id.0)).collect(),
            dumps: st.dumps.clone(),
            evictions: st.evictions,
            round_rejects: st.round_rejects,
        })
    }

    /// Rebuilds an enabled tracer from exported state. Restored events
    /// carry no wall spans ([`Event::render`] and the deterministic stream
    /// never read them); the logical clock, ring, pinned lineage, anchors,
    /// and dumps continue exactly where the export left off.
    pub fn restore(state: TracerState) -> Self {
        let tracer = Tracer::enabled();
        {
            let core = tracer.inner.as_ref().expect("an enabled tracer");
            let mut st = core.state.lock().expect("trace state poisoned");
            st.next_id = state.next_id;
            st.round = state.round;
            st.seq = state.seq;
            st.front_id = state.front_id;
            st.ring = state.ring.into_iter().map(restore_event).collect();
            st.pinned = state.pinned.into_iter().map(|r| (r.id, restore_event(r))).collect();
            st.pin_order = state.pin_order.into_iter().collect();
            st.anchors =
                state.anchors.into_iter().map(|(s, k, id)| ((s, k), EventId(id))).collect();
            st.dumps = state.dumps;
            st.evictions = state.evictions;
            st.round_rejects = state.round_rejects;
        }
        tracer
    }
}

/// Rehydrates one exported event (wall span intentionally absent).
fn restore_event(r: EventRecord) -> Event {
    Event {
        id: EventId(r.id),
        round: r.round,
        seq: r.seq,
        lane: r.lane,
        kind: r.kind,
        parent: r.parent.map(EventId),
        refs: r.refs.into_iter().map(EventId).collect(),
        payload: r.payload.into_iter().map(|(k, v)| (intern_key(&k), v)).collect(),
        wall: None,
    }
}

/// Interns a payload key back to `&'static str` after deserialization.
/// Event payload keys come from a small fixed vocabulary of string
/// literals, so the leaked set is bounded by that vocabulary's size.
fn intern_key(key: &str) -> &'static str {
    static KEYS: Mutex<BTreeMap<String, &'static str>> = Mutex::new(BTreeMap::new());
    let mut map = KEYS.lock().expect("trace key interner poisoned");
    if let Some(&k) = map.get(key) {
        return k;
    }
    let leaked: &'static str = Box::leak(key.to_string().into_boxed_str());
    map.insert(key.to_string(), leaked);
    leaked
}

/// Plain-data snapshot of one [`Event`] (wall span excluded by design).
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    pub id: u64,
    pub round: u64,
    pub seq: u64,
    pub lane: u32,
    pub kind: EventKind,
    pub parent: Option<u64>,
    pub refs: Vec<u64>,
    pub payload: Vec<(String, Value)>,
}

/// Plain-data snapshot of a [`Tracer`]'s recorder state (durable-state
/// export). Ring events are oldest-first; pinned events ascend by id.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TracerState {
    pub next_id: u64,
    pub round: u64,
    pub seq: u64,
    pub front_id: u64,
    pub ring: Vec<EventRecord>,
    pub pinned: Vec<EventRecord>,
    pub pin_order: Vec<u64>,
    /// `(scope, key, event id)` triples, ascending by `(scope, key)`.
    pub anchors: Vec<(Scope, u64, u64)>,
    pub dumps: Vec<TraceDump>,
    pub evictions: u64,
    pub round_rejects: u64,
}

/// Appends one event under the lock: resolves links, pins link targets,
/// assigns `(id, round, seq)`, and evicts the ring tail past capacity.
fn commit_locked(
    st: &mut RecState,
    draft: EventDraft,
    lane: u32,
    wall: Option<WallSpan>,
) -> EventId {
    let id = EventId(st.next_id);
    st.next_id += 1;
    st.seq += 1;
    // Pin at link time: anything this event points at must survive ring
    // eviction for `explain` to stay complete.
    for target in draft.parent.iter().chain(draft.refs.iter()) {
        st.pin(*target);
    }
    let ev = Event {
        id,
        round: st.round,
        seq: st.seq,
        lane,
        kind: draft.kind,
        parent: draft.parent,
        refs: draft.refs,
        payload: draft.payload,
        wall,
    };
    if st.ring.is_empty() {
        st.front_id = id.0;
    }
    st.ring.push_back(ev);
    while st.ring.len() > RING_CAPACITY {
        st.ring.pop_front();
        st.front_id += 1;
        st.evictions += 1;
    }
    st.eviction_gauge.set(st.evictions as f64);
    id
}

fn dump_locked(st: &mut RecState, reason: &str, focus: Option<EventId>) {
    let view = TraceView::from_events(st.all_events());
    let events = view.events();
    let tail_start = events.len().saturating_sub(DUMP_EVENTS);
    let mut recent = String::new();
    for ev in &events[tail_start..] {
        recent.push_str(&ev.render());
        recent.push('\n');
    }
    let lineage = focus.map_or_else(String::new, |id| view.explain(id));
    st.dumps.push(TraceDump { reason: reason.to_string(), round: st.round, recent, lineage });
    st.recorder.counter_labeled("trace.dumps", &[("reason", reason)]).inc();
}

/// RAII guard from [`Tracer::stage`]: records the stage's histogram and,
/// with tracing on, its wall-timed [`EventKind::StageSpan`] on drop.
#[derive(Debug)]
pub struct StageGuard {
    tracer: Tracer,
    hist: Histogram,
    name: &'static str,
    start: Option<Instant>,
}

impl StageGuard {
    /// Ends the stage now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        let Some(t0) = self.start else { return };
        let elapsed = t0.elapsed();
        self.hist.record(elapsed);
        if let Some(core) = &self.tracer.inner {
            let wall = WallSpan {
                start_micros: t0.duration_since(core.epoch).as_micros() as u64,
                // Clamp so sub-µs stages still export as complete spans.
                dur_micros: (elapsed.as_micros() as u64).max(1),
            };
            let draft = EventDraft::new(EventKind::StageSpan).text("stage", self.name);
            // A StageSpan is never a quarantine, so the spike check in
            // `record_on_lane` has nothing to count. A poisoned state is
            // skipped: a drop must not panic.
            if let Ok(mut st) = core.state.lock() {
                commit_locked(&mut st, draft, 0, Some(wall));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.record(EventDraft::new(EventKind::QuerySeen)), None);
        assert_eq!(t.begin_round(0), None);
        assert!(t.view().events().is_empty());
        assert!(t.dumps().is_empty());
        assert_eq!(t.evictions(), 0);
        assert_eq!(t.record_on_lane(EventDraft::new(EventKind::ModelFit), 1), None);
        t.stage("noop", &Histogram::default()).finish();
    }

    #[test]
    fn logical_clock_advances_by_round_and_seq() {
        let t = Tracer::enabled();
        t.begin_round(0);
        let a = t.record(EventDraft::new(EventKind::QuerySeen)).unwrap();
        t.begin_round(60);
        let b = t.record(EventDraft::new(EventKind::QuerySeen)).unwrap();
        let view = t.view();
        let ea = view.get(a).unwrap();
        let eb = view.get(b).unwrap();
        assert_eq!((ea.round, ea.seq), (1, 2)); // RoundStarted was seq 1
        assert_eq!((eb.round, eb.seq), (2, 2));
        assert!(b > a);
    }

    #[test]
    fn ring_wraps_exactly_at_capacity() {
        let t = Tracer::enabled();
        for _ in 0..RING_CAPACITY {
            t.record(EventDraft::new(EventKind::QuerySeen));
        }
        // Exactly at capacity: nothing evicted yet.
        assert_eq!(t.evictions(), 0);
        assert_eq!(t.view().events().len(), RING_CAPACITY);
        // Capacity + 1: the oldest event leaves and is counted.
        t.record(EventDraft::new(EventKind::QuerySeen));
        assert_eq!(t.evictions(), 1);
        let view = t.view();
        assert_eq!(view.events().len(), RING_CAPACITY);
        assert_eq!(view.events()[0].id, EventId(1));
    }

    #[test]
    fn evictions_surface_as_gauge_when_recorder_bound() {
        let rec = Recorder::new();
        let t = Tracer::enabled();
        t.bind_recorder(&rec);
        for _ in 0..RING_CAPACITY + 3 {
            t.record(EventDraft::new(EventKind::QuerySeen));
        }
        assert_eq!(rec.snapshot().gauges["trace.ring_evictions"], 3.0);
    }

    #[test]
    fn linked_events_survive_eviction() {
        let t = Tracer::enabled();
        let seen = t.record(EventDraft::new(EventKind::QuerySeen).uint("len", 9)).unwrap();
        let tpl =
            t.record(EventDraft::new(EventKind::TemplateCreated).parent(seen).uint("template", 3)).unwrap();
        t.set_anchor(Scope::Template, 3, tpl);
        // Push both originals out of the ring.
        for _ in 0..RING_CAPACITY {
            t.record(EventDraft::new(EventKind::QuerySeen));
        }
        assert_eq!(t.evictions(), 2, "both originals left the ring");
        let assigned = t
            .record(
                EventDraft::new(EventKind::ClusterAssigned)
                    .parent_opt(t.anchor(Scope::Template, 3))
                    .uint("cluster", 0),
            )
            .unwrap();
        let explain = t.view().explain(assigned);
        assert!(explain.contains("ClusterAssigned"), "{explain}");
        assert!(explain.contains("TemplateCreated"), "{explain}");
        assert!(explain.contains("QuerySeen"), "{explain}");
    }

    #[test]
    fn pins_past_capacity_drop_the_oldest() {
        let t = Tracer::enabled();
        let pinned: Vec<EventId> = (0..=PIN_CAPACITY as u64)
            .map(|key| {
                let id = t.record(EventDraft::new(EventKind::TemplateCreated)).unwrap();
                t.set_anchor(Scope::Template, key, id);
                id
            })
            .collect();
        // Push every pinned event out of the ring: only the pins remain.
        for _ in 0..RING_CAPACITY {
            t.record(EventDraft::new(EventKind::QuerySeen));
        }
        let view = t.view();
        assert!(view.get(pinned[0]).is_none(), "the oldest pin is evicted");
        assert!(pinned[1..].iter().all(|&id| view.get(id).is_some()));
    }

    #[test]
    fn quarantine_spike_fires_one_dump_per_round() {
        let rec = Recorder::new();
        let t = Tracer::enabled();
        t.bind_recorder(&rec);
        t.begin_round(0);
        for _ in 0..QUARANTINE_SPIKE - 1 {
            t.record(EventDraft::new(EventKind::QueryQuarantined));
        }
        assert!(t.dumps().is_empty(), "one admission short of the spike");
        for _ in 0..3 {
            t.record(EventDraft::new(EventKind::QueryQuarantined));
        }
        let dumps = t.dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].reason, "quarantine_spike");
        assert!(dumps[0].lineage.contains("QuarantineSpike"));
        assert_eq!(rec.snapshot().counters["trace.dumps{reason=\"quarantine_spike\"}"], 1);
        // A fresh round re-arms the trigger.
        t.begin_round(60);
        for _ in 0..QUARANTINE_SPIKE {
            t.record(EventDraft::new(EventKind::QueryQuarantined));
        }
        assert_eq!(t.dumps().len(), 2);
    }

    #[test]
    fn stage_guard_records_wall_span() {
        let rec = Recorder::new();
        let hist = rec.histogram("pipeline.update_clusters");
        let t = Tracer::enabled();
        {
            let _g = t.stage("pipeline.update_clusters", &hist);
        }
        let view = t.view();
        let span = view.latest(EventKind::StageSpan).unwrap();
        assert_eq!(span.payload[0], ("stage", Value::Text("pipeline.update_clusters".into())));
        assert!(span.wall.is_some());
        assert_eq!(hist.count(), 1);
        // The histogram alone is timed when tracing is off.
        Tracer::disabled().stage("pipeline.update_clusters", &hist).finish();
        assert_eq!(hist.count(), 2);
    }

    #[test]
    fn kind_and_scope_codes_round_trip() {
        for code in 0..=23u8 {
            let kind = EventKind::from_code(code).expect("dense code space");
            assert_eq!(kind.to_code(), code);
        }
        assert_eq!(EventKind::from_code(24), None);
        for code in 0..=3u8 {
            let scope = Scope::from_code(code).expect("dense code space");
            assert_eq!(scope.to_code(), code);
        }
        assert_eq!(Scope::from_code(4), None);
    }

    #[test]
    fn state_round_trip_continues_identical_stream() {
        let live = Tracer::enabled();
        live.begin_round(0);
        let seen = live.record(EventDraft::new(EventKind::QuerySeen).uint("len", 9)).unwrap();
        let tpl = live
            .record(EventDraft::new(EventKind::TemplateCreated).parent(seen).uint("template", 3))
            .unwrap();
        live.set_anchor(Scope::Template, 3, tpl);
        // Evict the originals so the pinned map carries real weight.
        for _ in 0..RING_CAPACITY {
            live.record(EventDraft::new(EventKind::QueryQuarantined));
        }
        assert!(live.evictions() > 0);
        live.trigger_dump("diverged", Some(tpl));

        let exported = live.export_state().unwrap();
        let restored = Tracer::restore(exported.clone());
        assert_eq!(restored.export_state().unwrap(), exported, "restore must be lossless");
        assert_eq!(
            restored.view().deterministic_stream(),
            live.view().deterministic_stream()
        );
        assert_eq!(restored.dumps(), live.dumps());
        assert_eq!(restored.evictions(), live.evictions());
        assert_eq!(restored.anchor(Scope::Template, 3), live.anchor(Scope::Template, 3));

        // Both continue identically: same ids, same rounds, same lineage.
        for t in [&live, &restored] {
            t.begin_round(60);
            let a = t
                .record(
                    EventDraft::new(EventKind::ClusterAssigned)
                        .parent_opt(t.anchor(Scope::Template, 3))
                        .uint("cluster", 1),
                )
                .unwrap();
            let explain = t.view().explain(a);
            assert!(explain.contains("TemplateCreated"), "{explain}");
        }
        assert_eq!(
            restored.view().deterministic_stream(),
            live.view().deterministic_stream()
        );
    }

    #[test]
    fn dump_snapshots_tail_and_lineage() {
        let t = Tracer::enabled();
        let first = t.record(EventDraft::new(EventKind::QuerySeen)).unwrap();
        for _ in 0..DUMP_EVENTS {
            t.record(EventDraft::new(EventKind::QuerySeen));
        }
        let a = t.record(EventDraft::new(EventKind::ModelFit).uint("horizon", 0)).unwrap();
        let b = t.record(EventDraft::new(EventKind::DivergenceGuard).parent(a)).unwrap();
        t.trigger_dump("diverged", Some(b));
        let dumps = t.dumps();
        assert_eq!(dumps.len(), 1);
        let recent: Vec<&str> = dumps[0].recent.lines().collect();
        assert_eq!(recent.len(), DUMP_EVENTS);
        let view = t.view();
        assert_eq!(recent[0], view.get(EventId(first.0 + 3)).unwrap().render());
        assert_eq!(recent[DUMP_EVENTS - 1], view.get(b).unwrap().render());
        assert!(dumps[0].lineage.contains("DivergenceGuard"));
        assert!(dumps[0].lineage.contains("ModelFit"));
    }
}
