//! # qb-obs
//!
//! Zero-dependency observability for the QB5000 pipeline (std only,
//! matching `qb-parallel`'s style): counters, gauges, fixed-bucket
//! duration histograms, and lightweight span timers behind a cloneable
//! [`Recorder`] handle.
//!
//! ## Design
//!
//! * **Cheap when disabled.** [`Recorder::disabled`] hands out handles
//!   whose hot-path operations are a single `Option` check — no atomics,
//!   no clock reads. The default everywhere is disabled, so the pipeline
//!   pays nothing unless a caller opts in.
//! * **Thread-safe.** Every handle is `Send + Sync` and backed by atomics,
//!   so `qb-parallel` workers can record from fan-out tasks (per-horizon
//!   model fits, ensemble members) without coordination.
//! * **Handle-cached.** Components resolve their metric names once (at
//!   construction or instrumentation time) into [`Counter`] / [`Gauge`] /
//!   [`Histogram`] handles; the hot path touches only the handle's atomic,
//!   never a name lookup.
//! * **Deterministic snapshots.** [`Recorder::snapshot`] returns a
//!   [`MetricsSnapshot`] with sorted keys. Counter values, gauge values,
//!   and histogram *event counts* are bit-identical across worker-pool
//!   widths (the pipeline's determinism contract); only durations vary,
//!   and [`MetricsSnapshot::deterministic_view`] excludes exactly those.
//!
//! ```
//! use qb_obs::Recorder;
//!
//! let rec = Recorder::new();
//! let ingested = rec.counter("preprocessor.ingested");
//! let ingest_time = rec.histogram("preprocessor.ingest");
//! for _ in 0..3 {
//!     let _timer = ingest_time.start(); // records its duration on drop
//!     ingested.inc();
//! }
//! let snap = rec.snapshot();
//! assert_eq!(snap.counters["preprocessor.ingested"], 3);
//! assert_eq!(snap.histograms["preprocessor.ingest"].count, 3);
//! ```

#![forbid(unsafe_code)]

pub mod rolling;
pub mod snapshot;

pub use rolling::RollingMean;
pub use snapshot::{HistogramSnapshot, MetricsDelta, MetricsSnapshot};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default histogram bucket upper bounds, in nanoseconds: 1 µs … 10 s in
/// decades. An implicit +∞ bucket catches the remainder.
pub const DEFAULT_DURATION_BOUNDS_NANOS: [u64; 8] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// The metric registry behind an enabled recorder.
#[derive(Debug, Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    /// Gauges store `f64::to_bits`.
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
}

/// A cloneable handle onto one metric registry — or onto nothing at all
/// ([`Recorder::disabled`]), in which case every operation is a no-op.
///
/// Clones share the registry, so a recorder can be handed down through the
/// pipeline (Pre-Processor, Clusterer, Forecaster, controller) and every
/// stage's metrics land in one [`MetricsSnapshot`].
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Registry>>,
}

impl Recorder {
    /// An enabled recorder with an empty registry.
    pub fn new() -> Self {
        Self { inner: Some(Arc::new(Registry::default())) }
    }

    /// The no-op recorder: handles it hands out skip all work. This is the
    /// `Default`, so instrumented components cost nothing until a caller
    /// explicitly installs an enabled recorder.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolves (registering on first use) a monotonically increasing
    /// counter. Resolve once and cache the handle; `inc`/`add` are then a
    /// single atomic op.
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self.inner.as_ref().map(|r| {
                Arc::clone(
                    r.counters
                        .lock()
                        .expect("counter registry poisoned")
                        .entry(name.to_string())
                        .or_default(),
                )
            }),
        }
    }

    /// Resolves a counter carrying Prometheus-style labels. The labels
    /// become part of the registration key (see [`labeled_name`]), so each
    /// distinct label set is its own series and the text exposition emits
    /// one `# TYPE` line per family.
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.counter(&labeled_name(name, labels))
    }

    /// Resolves (registering on first use) a last-value-wins gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge {
            cell: self.inner.as_ref().map(|r| {
                Arc::clone(
                    r.gauges
                        .lock()
                        .expect("gauge registry poisoned")
                        .entry(name.to_string())
                        .or_default(),
                )
            }),
        }
    }

    /// Resolves (registering on first use) a fixed-bucket duration
    /// histogram with the default decade bounds.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with_bounds(name, &DEFAULT_DURATION_BOUNDS_NANOS)
    }

    /// Like [`Recorder::histogram`] with explicit bucket upper bounds in
    /// nanoseconds (ascending). Bounds are fixed at registration; later
    /// calls with different bounds reuse the registered ones.
    pub fn histogram_with_bounds(&self, name: &str, bounds_nanos: &[u64]) -> Histogram {
        Histogram {
            cell: self.inner.as_ref().map(|r| {
                Arc::clone(
                    r.histograms
                        .lock()
                        .expect("histogram registry poisoned")
                        .entry(name.to_string())
                        .or_insert_with(|| Arc::new(HistogramCore::new(bounds_nanos))),
                )
            }),
        }
    }

    /// A point-in-time, sorted snapshot of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        let Some(r) = &self.inner else { return snap };
        for (k, v) in r.counters.lock().expect("counter registry poisoned").iter() {
            snap.counters.insert(k.clone(), v.load(Ordering::Relaxed));
        }
        for (k, v) in r.gauges.lock().expect("gauge registry poisoned").iter() {
            snap.gauges.insert(k.clone(), f64::from_bits(v.load(Ordering::Relaxed)));
        }
        for (k, h) in r.histograms.lock().expect("histogram registry poisoned").iter() {
            snap.histograms.insert(k.clone(), h.snapshot());
        }
        snap
    }
}

/// Builds the registration key for a labeled metric:
/// `name{k="v",...}`, with label *values* escaped per the Prometheus text
/// exposition format (backslash, double-quote, newline). Escaping happens
/// here — at registration — so hostile text (raw SQL fragments, template
/// bodies) can never corrupt the exposition output, and every exporter
/// sees an already-well-formed label block.
pub fn labeled_name(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&snapshot::escape_label_value(v));
        out.push('"');
    }
    out.push('}');
    out
}

/// A monotonically increasing counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.cell {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A last-value-wins gauge handle holding an `f64`.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// Stores `v` (last writer wins).
    pub fn set(&self, v: f64) {
        if let Some(c) = &self.cell {
            c.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 when disabled or never set).
    pub fn get(&self) -> f64 {
        self.cell.as_ref().map_or(0.0, |c| f64::from_bits(c.load(Ordering::Relaxed)))
    }
}

/// Lock-free fixed-bucket histogram over durations.
#[derive(Debug)]
struct HistogramCore {
    /// Ascending bucket upper bounds in nanoseconds; an implicit +∞ bucket
    /// follows the last bound.
    bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets (the last is the overflow bucket).
    buckets: Vec<AtomicU64>,
    sum_nanos: AtomicU64,
    count: AtomicU64,
}

impl HistogramCore {
    fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Self {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_nanos: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    fn record_nanos(&self, nanos: u64) {
        let idx = self.bounds.partition_point(|&b| b < nanos);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds_nanos: self.bounds.clone(),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// A fixed-bucket duration histogram handle.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    cell: Option<Arc<HistogramCore>>,
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, d: Duration) {
        if let Some(h) = &self.cell {
            h.record_nanos(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Starts a span: the returned guard records its lifetime into this
    /// histogram when dropped. When the recorder is disabled the guard
    /// never reads the clock.
    pub fn start(&self) -> SpanTimer {
        SpanTimer {
            hist: self.cell.clone(),
            start: self.cell.as_ref().map(|_| Instant::now()),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.cell.is_some()
    }

    /// Observations recorded so far (0 when disabled).
    pub fn count(&self) -> u64 {
        self.cell.as_ref().map_or(0, |h| h.count.load(Ordering::Relaxed))
    }
}

/// RAII span guard: records the elapsed time since [`Histogram::start`]
/// into its histogram on drop. [`SpanTimer::finish`] drops it explicitly
/// for span ends that don't coincide with scope ends.
#[derive(Debug)]
pub struct SpanTimer {
    hist: Option<Arc<HistogramCore>>,
    start: Option<Instant>,
}

impl SpanTimer {
    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let (Some(h), Some(t0)) = (&self.hist, self.start) {
            h.record_nanos(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        let c = rec.counter("x");
        c.add(5);
        assert_eq!(c.get(), 0);
        let g = rec.gauge("y");
        g.set(3.5);
        assert_eq!(g.get(), 0.0);
        let h = rec.histogram("z");
        h.start().finish();
        assert_eq!(h.count(), 0);
        let snap = rec.snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
    }

    #[test]
    fn counters_and_gauges_round_trip() {
        let rec = Recorder::new();
        let c = rec.counter("stage.events");
        c.inc();
        c.add(9);
        rec.gauge("stage.ratio").set(0.25);
        // A second handle onto the same name shares the cell.
        rec.counter("stage.events").add(10);
        let snap = rec.snapshot();
        assert_eq!(snap.counters["stage.events"], 20);
        assert_eq!(snap.gauges["stage.ratio"], 0.25);
    }

    #[test]
    fn histogram_buckets_cumulate_correctly() {
        let rec = Recorder::new();
        let h = rec.histogram_with_bounds("lat", &[100, 1_000]);
        h.record(Duration::from_nanos(50)); // bucket 0 (≤100)
        h.record(Duration::from_nanos(100)); // bucket 0 (bound inclusive)
        h.record(Duration::from_nanos(999)); // bucket 1
        h.record(Duration::from_nanos(5_000)); // overflow bucket
        let s = rec.snapshot();
        let hs = &s.histograms["lat"];
        assert_eq!(hs.buckets, vec![2, 1, 1]);
        assert_eq!(hs.count, 4);
        assert_eq!(hs.sum_nanos, 50 + 100 + 999 + 5_000);
    }

    #[test]
    fn span_timer_records_on_drop() {
        let rec = Recorder::new();
        let h = rec.histogram("span");
        {
            let _t = h.start();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(h.count(), 1);
        let snap = rec.snapshot();
        assert!(snap.histograms["span"].sum_nanos >= 1_000_000);
    }

    #[test]
    fn handles_record_from_worker_threads() {
        let rec = Recorder::new();
        let c = rec.counter("parallel.events");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(rec.snapshot().counters["parallel.events"], 4000);
    }

    #[test]
    fn labeled_metrics_are_distinct_series() {
        let rec = Recorder::new();
        rec.counter_labeled("dumps", &[("reason", "diverged")]).inc();
        rec.counter_labeled("dumps", &[("reason", "degraded")]).add(2);
        let snap = rec.snapshot();
        assert_eq!(snap.counters["dumps{reason=\"diverged\"}"], 1);
        assert_eq!(snap.counters["dumps{reason=\"degraded\"}"], 2);
    }

    #[test]
    fn labeled_name_escapes_values() {
        assert_eq!(labeled_name("m", &[]), "m");
        assert_eq!(
            labeled_name("m", &[("sql", "SELECT \"a\\b\"\nFROM t")]),
            "m{sql=\"SELECT \\\"a\\\\b\\\"\\nFROM t\"}"
        );
    }

    #[test]
    fn clones_share_one_registry() {
        let rec = Recorder::new();
        let clone = rec.clone();
        clone.counter("shared").add(7);
        assert_eq!(rec.snapshot().counters["shared"], 7);
    }
}
