//! # qb-serve — forecast serving
//!
//! The serving layer that makes QB5000's forecasts consumable *on the
//! query path* of a self-driving DBMS: an immutable, epoch-numbered
//! [`ForecastSnapshot`] published through a single-slot `Arc` store, so
//! any number of [`ForecastReader`] handles answer typed
//! [`ForecastQuery`]s at sub-microsecond latency while the pipeline keeps
//! ingesting, re-clustering, and retraining. Steady-state reads take no
//! lock; the first read after a publish takes the slot mutex for one
//! `Arc` clone.
//!
//! ## Shape
//!
//! * [`swap`] — the concurrency primitive: [`Swap`] (a `Mutex<Arc<T>>`
//!   slot with an atomic version mirror, never locked while the next
//!   value is built) and [`ReadHandle`] (a per-thread handle whose
//!   steady-state read is a single atomic version load).
//! * [`snapshot`] — the data model: [`ForecastSnapshot`],
//!   [`ClusterForecast`], [`Curve`], and the structural-sharing
//!   [`SnapshotBuilder`] (an incremental patch reallocates only the
//!   changed cluster's entry).
//! * [`query`] — the typed reader API: [`ForecastQuery`] (by cluster,
//!   by template, top-K; with staleness bounds) and [`ForecastAnswer`]
//!   (always stamped with the serving epoch).
//!
//! This crate is dependency-free by design (`std` only, plain-integer
//! ids) so a DBMS query path can link it without pulling in the
//! pipeline. The pipeline side — publication points, metrics, trace
//! events — lives in `qb-core::serve`.
//!
//! ## Quick start
//!
//! ```
//! use qb_serve::{
//!     Curve, ForecastQuery, ForecastServer, HorizonMeta, Membership, SnapshotBuilder,
//! };
//!
//! let server = ForecastServer::new(vec![HorizonMeta {
//!     interval_minutes: 60,
//!     window: 24,
//!     horizon: 1,
//! }]);
//! let reader = server.reader(); // cheap; clone one per thread
//!
//! // Publisher side: reconcile membership, patch in a fit curve.
//! server.publish(|current, _epoch| {
//!     current
//!         .rebuild()
//!         .built_at(600)
//!         .set_membership(&[Membership { cluster: 7, volume: 50.0, members: vec![1, 3] }])
//!         .set_curve(7, 0, Curve { start: 660, interval_minutes: 60, values: vec![5.5] })
//! });
//!
//! // Reader side: epoch-stamped, no lock once the handle is current.
//! let answer = reader.answer(&ForecastQuery::template(3, 0));
//! assert_eq!(answer.epoch, 1);
//! assert_eq!(answer.curve().unwrap().values, vec![5.5]);
//! ```

#![forbid(unsafe_code)]

pub mod query;
pub mod snapshot;
pub mod swap;

pub use query::{ForecastAnswer, ForecastQuery, Missing, Outcome, QueryTarget, StalenessBound};
pub use snapshot::{
    ClusterForecast, ColdStartForecast, ColdStartOrigin, Curve, ForecastSnapshot, HorizonMeta,
    Membership, ServeHealth, SnapshotBuilder,
};
pub use swap::{ReadHandle, Swap, Versioned};

use std::sync::Arc;

/// The publisher-side handle: owns the swap slot, assigns epochs, and
/// hands out [`ForecastReader`]s.
///
/// Cloning shares the slot — the pipeline keeps one clone per
/// publication point (cluster updates, retrains, controller rounds) and
/// all of them publish into the same epoch sequence.
#[derive(Debug, Clone)]
pub struct ForecastServer {
    swap: Arc<Swap<ForecastSnapshot>>,
}

impl ForecastServer {
    /// A server starting from the empty epoch-0 snapshot with the given
    /// horizon slots.
    pub fn new(horizons: Vec<HorizonMeta>) -> Self {
        Self { swap: Arc::new(Swap::new(Arc::new(ForecastSnapshot::empty(horizons)))) }
    }

    /// Publishes the snapshot `f` builds from the current one. `f`
    /// receives the current snapshot and the epoch the new one will be
    /// published at, and returns the builder; the server freezes and
    /// installs it atomically. Publishers serialize; readers never wait.
    /// Returns the new epoch.
    pub fn publish(
        &self,
        f: impl FnOnce(&ForecastSnapshot, u64) -> SnapshotBuilder,
    ) -> u64 {
        self.swap.publish_with(|current| {
            let epoch = current.epoch() + 1;
            Arc::new(f(current, epoch).build(epoch))
        })
    }

    /// A new reader over this server's snapshots; its steady-state reads
    /// take no lock.
    pub fn reader(&self) -> ForecastReader {
        ForecastReader { handle: ReadHandle::new(Arc::clone(&self.swap)) }
    }

    /// The currently served epoch (0 until the first publication).
    pub fn epoch(&self) -> u64 {
        self.swap.version()
    }

    /// The current snapshot (publisher-side convenience; readers should
    /// use their own handle).
    pub fn current(&self) -> Arc<ForecastSnapshot> {
        self.swap.load()
    }

    /// Live reader handles attached to this server.
    pub fn reader_count(&self) -> usize {
        self.swap.reader_count()
    }
}

/// A per-thread reader over a [`ForecastServer`]'s snapshots.
///
/// `Send` but not `Sync`: clone one per thread. The steady-state
/// [`ForecastReader::answer`] is a single atomic epoch load plus the
/// lookup — no locks, no shared-cache-line writes, no allocation on the
/// curve path (answers share the snapshot's curves by `Arc`). The first
/// read after a publish takes the slot mutex for one `Arc` clone.
#[derive(Debug, Clone)]
pub struct ForecastReader {
    handle: ReadHandle<ForecastSnapshot>,
}

impl ForecastReader {
    /// Answers a typed query against the current snapshot.
    pub fn answer(&self, query: &ForecastQuery) -> ForecastAnswer {
        self.handle.with(|snap| query.answer_from(snap))
    }

    /// Runs `f` against the current snapshot — the zero-copy batch path:
    /// every lookup inside `f` sees one consistent epoch.
    pub fn with_snapshot<R>(&self, f: impl FnOnce(&ForecastSnapshot) -> R) -> R {
        self.handle.with(f)
    }

    /// A strong reference to the current snapshot (pins that epoch for
    /// as long as the caller holds it).
    pub fn snapshot(&self) -> Arc<ForecastSnapshot> {
        self.handle.current()
    }

    /// The epoch currently being served.
    pub fn epoch(&self) -> u64 {
        self.handle.version()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn hourly(horizon: usize) -> HorizonMeta {
        HorizonMeta { interval_minutes: 60, window: 24, horizon }
    }

    #[test]
    fn epochs_assigned_sequentially_by_server() {
        let server = ForecastServer::new(vec![hourly(1)]);
        assert_eq!(server.epoch(), 0);
        let e1 = server.publish(|cur, _| cur.rebuild());
        let e2 = server.publish(|cur, _| cur.rebuild());
        assert_eq!((e1, e2), (1, 2));
        assert_eq!(server.current().epoch(), 2);
    }

    #[test]
    fn racing_publishers_never_collide_on_epochs() {
        let server = ForecastServer::new(vec![hourly(1)]);
        const PER_THREAD: u64 = 200;
        std::thread::scope(|s| {
            for _ in 0..4 {
                let server = server.clone();
                s.spawn(move || {
                    for _ in 0..PER_THREAD {
                        server.publish(|cur, _| cur.rebuild());
                    }
                });
            }
        });
        assert_eq!(server.epoch(), 4 * PER_THREAD, "every publish got a distinct epoch");
    }

    /// The serving-layer consistency contract: N reader threads racing a
    /// publisher that patches one cluster per epoch, where every curve
    /// value encodes the epoch it was published at. A reader seeing a
    /// half-published snapshot (entries from different epochs under one
    /// epoch number with changed membership, or a torn curve) fails the
    /// per-read assertion.
    #[test]
    fn readers_always_see_consistent_epochs() {
        let server = ForecastServer::new(vec![hourly(4)]);
        // Epoch e publishes: every cluster's curve holds e as all values
        // once patched this round; built_at also carries e.
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let reader = server.reader();
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        reader.with_snapshot(|snap| {
                            let epoch = snap.epoch();
                            assert_eq!(snap.built_at, epoch as i64, "built_at matches epoch");
                            for entry in snap.entries() {
                                for curve in entry.curves.iter().flatten() {
                                    assert!(
                                        curve.values.iter().all(|&v| v as u64 <= epoch),
                                        "curve from the future at epoch {epoch}"
                                    );
                                    assert!(
                                        curve.values.windows(2).all(|w| w[0] == w[1]),
                                        "torn curve at epoch {epoch}"
                                    );
                                }
                            }
                        });
                    }
                });
            }
            for round in 0..1_500u64 {
                server.publish(|cur, epoch| {
                    let cluster = round % 3;
                    let mut b = cur.rebuild().built_at(epoch as i64);
                    if cur.cluster(cluster).is_none() {
                        b = b.set_membership(
                            &(0..=cluster)
                                .map(|c| Membership {
                                    cluster: c,
                                    volume: 10.0,
                                    members: vec![c as u32],
                                })
                                .collect::<Vec<_>>(),
                        );
                    }
                    b.set_curve(
                        cluster,
                        (round % 4) as usize,
                        Curve {
                            start: epoch as i64,
                            interval_minutes: 60,
                            values: vec![epoch as f64; 4],
                        },
                    )
                });
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(server.epoch(), 1_500);
    }

    #[test]
    fn reader_count_visible_to_server() {
        let server = ForecastServer::new(vec![hourly(1)]);
        let r1 = server.reader();
        let r2 = r1.clone();
        assert_eq!(server.reader_count(), 2);
        drop((r1, r2));
        assert_eq!(server.reader_count(), 0);
    }
}
