//! The reader-facing query API: typed [`ForecastQuery`] /
//! [`ForecastAnswer`] pairs replacing ad-hoc tuple returns.
//!
//! A query names a *target* (a cluster, a template routed to its
//! cluster, or the top-K clusters over a horizon window), a horizon
//! slot, and a *staleness bound*. The answer always carries the epoch
//! and build time it was served from, so a caller can correlate answers
//! across readers or against the pipeline's own health report.

use std::sync::Arc;

use crate::snapshot::{ColdStartOrigin, Curve, ForecastSnapshot};

/// What a [`ForecastQuery`] asks about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryTarget {
    /// One cluster's forecast curve, by cluster id.
    Cluster(u64),
    /// The forecast curve of the cluster a template is routed to.
    Template(u32),
    /// The `k` highest-predicted-volume clusters over the horizon window.
    TopK(usize),
}

/// How stale an answer the caller will accept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StalenessBound {
    /// Any published snapshot (the default).
    #[default]
    Any,
    /// Only snapshots at or past this epoch — "I saw epoch E elsewhere;
    /// don't serve me older".
    AtLeastEpoch(u64),
    /// Only snapshots built within `max_age` minutes of the caller's
    /// `now` — wall-alignment for query-path consumers.
    BuiltWithin {
        /// The caller's current minute.
        now: i64,
        /// Maximum acceptable `now - built_at`.
        max_age: i64,
    },
}

impl StalenessBound {
    /// Whether `snapshot` satisfies the bound.
    pub fn admits(self, snapshot: &ForecastSnapshot) -> bool {
        match self {
            StalenessBound::Any => true,
            StalenessBound::AtLeastEpoch(e) => snapshot.epoch() >= e,
            StalenessBound::BuiltWithin { now, max_age } => now - snapshot.built_at <= max_age,
        }
    }
}

/// A typed forecast lookup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForecastQuery {
    /// What to look up.
    pub target: QueryTarget,
    /// Which horizon slot (index into [`ForecastSnapshot::horizons`]).
    pub horizon_idx: usize,
    /// How stale an answer is acceptable.
    pub staleness: StalenessBound,
}

impl ForecastQuery {
    /// A cluster-curve query at `horizon_idx`, any staleness.
    pub fn cluster(cluster: u64, horizon_idx: usize) -> Self {
        Self { target: QueryTarget::Cluster(cluster), horizon_idx, staleness: StalenessBound::Any }
    }

    /// A template-routed curve query at `horizon_idx`, any staleness.
    pub fn template(template: u32, horizon_idx: usize) -> Self {
        Self { target: QueryTarget::Template(template), horizon_idx, staleness: StalenessBound::Any }
    }

    /// A top-`k` ranking query at `horizon_idx`, any staleness.
    pub fn top_k(k: usize, horizon_idx: usize) -> Self {
        Self { target: QueryTarget::TopK(k), horizon_idx, staleness: StalenessBound::Any }
    }

    /// The same query with a staleness bound.
    pub fn with_staleness(mut self, staleness: StalenessBound) -> Self {
        self.staleness = staleness;
        self
    }

    /// Evaluates against a snapshot. Readers call this through
    /// [`crate::ForecastReader::answer`]; it is exposed so a caller
    /// holding a pinned `Arc<ForecastSnapshot>` can batch many queries
    /// against one consistent epoch.
    pub(crate) fn answer_from(&self, snapshot: &ForecastSnapshot) -> ForecastAnswer {
        let epoch = snapshot.epoch();
        let built_at = snapshot.built_at;
        if !self.staleness.admits(snapshot) {
            return ForecastAnswer { epoch, built_at, outcome: Outcome::TooStale };
        }
        if self.horizon_idx >= snapshot.horizons.len() {
            return ForecastAnswer {
                epoch,
                built_at,
                outcome: Outcome::NotFound(Missing::Horizon(self.horizon_idx)),
            };
        }
        let outcome = match self.target {
            QueryTarget::TopK(k) => Outcome::Ranking(snapshot.top_k(k, self.horizon_idx)),
            QueryTarget::Cluster(cluster) => self.curve_outcome(snapshot, cluster),
            QueryTarget::Template(template) => match snapshot.cluster_of_template(template) {
                None => self.cold_outcome(snapshot, template),
                Some(cluster) => self.curve_outcome(snapshot, cluster),
            },
        };
        ForecastAnswer { epoch, built_at, outcome }
    }

    fn curve_outcome(&self, snapshot: &ForecastSnapshot, cluster: u64) -> Outcome {
        match snapshot.cluster(cluster) {
            None => Outcome::NotFound(Missing::Cluster(cluster)),
            Some(entry) => match &entry.curves[self.horizon_idx] {
                None => Outcome::NotFound(Missing::Unfit { cluster, horizon_idx: self.horizon_idx }),
                Some(curve) => Outcome::Curve { cluster, curve: Arc::clone(curve) },
            },
        }
    }

    /// The cold-start fallback for an unrouted template: a seeded curve
    /// with typed provenance if one was published, otherwise the classic
    /// [`Missing::Template`].
    fn cold_outcome(&self, snapshot: &ForecastSnapshot, template: u32) -> Outcome {
        snapshot
            .cold_start(template)
            .and_then(|entry| {
                entry.curves.get(self.horizon_idx).and_then(|slot| slot.as_ref()).map(|curve| {
                    Outcome::ColdStart {
                        template,
                        origin: entry.origin,
                        curve: Arc::clone(curve),
                    }
                })
            })
            .unwrap_or(Outcome::NotFound(Missing::Template(template)))
    }
}

/// Why a query found nothing — distinguished so callers can react
/// (an unknown template may warrant a cold-start prior; an unfit curve
/// just means "ask again after the next retrain").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Missing {
    /// The cluster id is not in the tracked set.
    Cluster(u64),
    /// The template is not routed to any tracked cluster.
    Template(u32),
    /// The horizon slot index is out of range for this snapshot.
    Horizon(usize),
    /// The cluster is tracked but no model has been fit for this slot yet.
    Unfit {
        /// The tracked cluster.
        cluster: u64,
        /// The unfit horizon slot.
        horizon_idx: usize,
    },
}

/// A query's result payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A forecast curve (shared with the snapshot — no copy).
    Curve {
        /// The cluster the curve belongs to (resolved from the template
        /// for [`QueryTarget::Template`] queries).
        cluster: u64,
        /// The predicted curve.
        curve: Arc<Curve>,
    },
    /// A cold-start curve: the template is not routed to any fit tracked
    /// cluster yet, so the forecast was seeded from its cluster
    /// assignment or a population prior. The provenance is typed so a
    /// consumer can discount the estimate accordingly.
    ColdStart {
        /// The template the seed was published for.
        template: u32,
        /// How the estimate was derived.
        origin: ColdStartOrigin,
        /// The seeded curve (shared with the snapshot — no copy).
        curve: Arc<Curve>,
    },
    /// `(cluster, total predicted volume)` pairs, largest first.
    Ranking(Vec<(u64, f64)>),
    /// Nothing matched; the reason says what was missing.
    NotFound(Missing),
    /// The snapshot violated the query's staleness bound.
    TooStale,
}

/// A typed answer: the payload plus the epoch/build-time provenance every
/// consumer needs to reason about staleness.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecastAnswer {
    /// Epoch of the snapshot the answer was served from.
    pub epoch: u64,
    /// Build minute of that snapshot.
    pub built_at: i64,
    /// The result payload.
    pub outcome: Outcome,
}

impl ForecastAnswer {
    /// The curve, if the outcome carries one.
    pub fn curve(&self) -> Option<&Curve> {
        match &self.outcome {
            Outcome::Curve { curve, .. } => Some(curve),
            _ => None,
        }
    }

    /// The ranking, if the outcome carries one.
    pub fn ranking(&self) -> Option<&[(u64, f64)]> {
        match &self.outcome {
            Outcome::Ranking(r) => Some(r),
            _ => None,
        }
    }

    /// The curve regardless of provenance — a trained cluster curve or a
    /// cold-start seed. Callers that must distinguish match on
    /// [`ForecastAnswer::outcome`] or use [`ForecastAnswer::cold_origin`].
    pub fn any_curve(&self) -> Option<&Curve> {
        match &self.outcome {
            Outcome::Curve { curve, .. } | Outcome::ColdStart { curve, .. } => Some(curve),
            _ => None,
        }
    }

    /// The cold-start provenance, if the answer was served from the cold
    /// path.
    pub fn cold_origin(&self) -> Option<ColdStartOrigin> {
        match &self.outcome {
            Outcome::ColdStart { origin, .. } => Some(*origin),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{HorizonMeta, Membership, SnapshotBuilder};

    fn snapshot() -> ForecastSnapshot {
        SnapshotBuilder::fresh(
            600,
            vec![HorizonMeta { interval_minutes: 60, window: 24, horizon: 1 }],
        )
        .set_membership(&[
            Membership { cluster: 7, volume: 50.0, members: vec![1, 3] },
            Membership { cluster: 9, volume: 20.0, members: vec![2] },
        ])
        .set_curve(7, 0, Curve { start: 660, interval_minutes: 60, values: vec![5.5] })
        .build(3)
    }

    #[test]
    fn cluster_template_and_topk_targets() {
        let snap = snapshot();
        let by_cluster = ForecastQuery::cluster(7, 0).answer_from(&snap);
        assert_eq!(by_cluster.epoch, 3);
        assert_eq!(by_cluster.curve().unwrap().values, vec![5.5]);
        let by_template = ForecastQuery::template(3, 0).answer_from(&snap);
        assert_eq!(by_template.outcome, by_cluster.outcome, "template routes to its cluster");
        let ranking = ForecastQuery::top_k(2, 0).answer_from(&snap);
        assert_eq!(ranking.ranking().unwrap()[0], (7, 5.5));
    }

    #[test]
    fn not_found_reasons_are_distinguished() {
        let snap = snapshot();
        assert_eq!(
            ForecastQuery::cluster(8, 0).answer_from(&snap).outcome,
            Outcome::NotFound(Missing::Cluster(8))
        );
        assert_eq!(
            ForecastQuery::template(42, 0).answer_from(&snap).outcome,
            Outcome::NotFound(Missing::Template(42))
        );
        assert_eq!(
            ForecastQuery::cluster(9, 0).answer_from(&snap).outcome,
            Outcome::NotFound(Missing::Unfit { cluster: 9, horizon_idx: 0 })
        );
        assert_eq!(
            ForecastQuery::cluster(7, 5).answer_from(&snap).outcome,
            Outcome::NotFound(Missing::Horizon(5))
        );
    }

    #[test]
    fn unrouted_template_falls_back_to_cold_start() {
        use crate::snapshot::{ColdStartForecast, ColdStartOrigin};
        let origin = ColdStartOrigin::ClusterShare { cluster: 7, share: 0.2 };
        let snap = SnapshotBuilder::fresh(
            600,
            vec![HorizonMeta { interval_minutes: 60, window: 24, horizon: 1 }],
        )
        .set_membership(&[Membership { cluster: 7, volume: 50.0, members: vec![1, 3] }])
        .set_curve(7, 0, Curve { start: 660, interval_minutes: 60, values: vec![5.5] })
        .set_cold_starts(vec![ColdStartForecast {
            template: 42,
            origin,
            curves: vec![Some(Arc::new(Curve {
                start: 660,
                interval_minutes: 60,
                values: vec![1.1],
            }))],
        }])
        .build(3);
        let cold = ForecastQuery::template(42, 0).answer_from(&snap);
        assert_eq!(cold.cold_origin(), Some(origin));
        assert_eq!(cold.any_curve().unwrap().values, vec![1.1]);
        assert_eq!(cold.curve(), None, "curve() stays warm-only");
        // A routed template still takes the warm path.
        let warm = ForecastQuery::template(3, 0).answer_from(&snap);
        assert_eq!(warm.cold_origin(), None);
        assert_eq!(warm.curve().unwrap().values, vec![5.5]);
        assert_eq!(warm.any_curve().unwrap().values, vec![5.5]);
        // A template with neither route nor cold entry is still Missing.
        assert_eq!(
            ForecastQuery::template(99, 0).answer_from(&snap).outcome,
            Outcome::NotFound(Missing::Template(99))
        );
        // Out-of-range horizon slot on a cold entry: Missing, not a panic.
        let snap_two_h = SnapshotBuilder::fresh(
            600,
            vec![
                HorizonMeta { interval_minutes: 60, window: 24, horizon: 1 },
                HorizonMeta { interval_minutes: 60, window: 24, horizon: 6 },
            ],
        )
        .set_cold_starts(vec![ColdStartForecast {
            template: 42,
            origin,
            curves: vec![Some(Arc::new(Curve {
                start: 660,
                interval_minutes: 60,
                values: vec![1.1],
            }))],
        }])
        .build(1);
        assert_eq!(
            ForecastQuery::template(42, 1).answer_from(&snap_two_h).outcome,
            Outcome::NotFound(Missing::Template(42)),
            "cold entry without a curve for the slot is Missing"
        );
    }

    #[test]
    fn staleness_bounds() {
        let snap = snapshot(); // epoch 3, built_at 600
        let q = ForecastQuery::cluster(7, 0);
        assert!(q.with_staleness(StalenessBound::AtLeastEpoch(3)).answer_from(&snap).curve().is_some());
        assert_eq!(
            q.with_staleness(StalenessBound::AtLeastEpoch(4)).answer_from(&snap).outcome,
            Outcome::TooStale
        );
        assert!(q
            .with_staleness(StalenessBound::BuiltWithin { now: 650, max_age: 60 })
            .answer_from(&snap)
            .curve()
            .is_some());
        assert_eq!(
            q.with_staleness(StalenessBound::BuiltWithin { now: 700, max_age: 60 })
                .answer_from(&snap)
                .outcome,
            Outcome::TooStale
        );
    }
}
