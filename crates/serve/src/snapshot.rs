//! The immutable, epoch-numbered forecast snapshot and its
//! structural-sharing builder.
//!
//! A [`ForecastSnapshot`] is the unit of publication: per-cluster
//! forecast curves for every configured horizon, the template→cluster
//! routing table, and an accuracy/health summary, all frozen at one
//! epoch. Snapshots are immutable once built — readers hold `Arc`s and
//! never observe mutation — so an incremental update (one cluster
//! retrained) builds a *new* snapshot that shares every unchanged
//! [`ClusterForecast`] entry by `Arc`, touching only the patched one.
//!
//! This crate is deliberately `std`-only: cluster ids, template ids, and
//! minutes appear as plain integers (`u64`, `u32`, `i64`) mirroring the
//! pipeline's `ClusterId`, `TemplateId`, and `Minute` newtypes, so a
//! consumer can link the serving layer without pulling in the pipeline.

use std::sync::Arc;

use crate::swap::Versioned;

/// One forecast horizon the snapshot carries curves for: a model with a
/// `window`-step input predicting `horizon` steps of `interval_minutes`
/// ahead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HorizonMeta {
    /// Bucket width in minutes (60 = hourly).
    pub interval_minutes: i64,
    /// Model input window, in steps.
    pub window: usize,
    /// Steps ahead the curve extends.
    pub horizon: usize,
}

/// A predicted arrival-rate curve: `values[i]` is the forecast volume for
/// the bucket starting at `start + i * interval_minutes`.
#[derive(Debug, Clone, PartialEq)]
pub struct Curve {
    /// Minute the first forecast bucket starts at.
    pub start: i64,
    /// Bucket width in minutes.
    pub interval_minutes: i64,
    /// Predicted volume per bucket, `horizon` entries.
    pub values: Vec<f64>,
}

impl Curve {
    /// Total predicted volume over the curve — the ranking key for
    /// [`ForecastSnapshot::top_k`].
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }
}

/// One cluster's entry in a snapshot: identity, membership, and a curve
/// slot per configured horizon. `curves[h]` is `None` until a model for
/// horizon slot `h` has been fit and published.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterForecast {
    /// The pipeline's cluster id.
    pub cluster: u64,
    /// Query volume over the feature window at publication time.
    pub volume: f64,
    /// Member template ids (the template→cluster index is derived from
    /// these at build time).
    pub members: Vec<u32>,
    /// Per-horizon forecast curves, indexed like
    /// [`ForecastSnapshot::horizons`]. `Arc` so a patched snapshot shares
    /// unchanged curves and answers share with the snapshot.
    pub curves: Vec<Option<Arc<Curve>>>,
}

impl ClusterForecast {
    /// An entry with identity and membership but no fitted curves yet.
    pub fn unfit(cluster: u64, volume: f64, members: Vec<u32>, horizon_slots: usize) -> Self {
        Self { cluster, volume, members, curves: vec![None; horizon_slots] }
    }
}

/// Where a cold-start estimate came from — the provenance a reader needs
/// to weigh how much to trust a forecast served without a full history
/// window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ColdStartOrigin {
    /// Seeded from the template's cluster assignment: the assigned
    /// cluster's forecast curve scaled by the template's share of that
    /// cluster's recent arrival volume.
    ClusterShare {
        /// The cluster the new template was assigned to.
        cluster: u64,
        /// The template's fraction of the cluster's recent volume, in
        /// `[0, 1]`.
        share: f64,
    },
    /// Seeded from a population prior: the mean per-template forecast
    /// over all tracked clusters, used when the template has no usable
    /// cluster assignment yet.
    PopulationPrior,
}

/// A cold-start entry: per-horizon forecast curves for one template that
/// is *not* yet routed to a fit tracked cluster, seeded from its cluster
/// assignment or a population prior instead of a trained model.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdStartForecast {
    /// The new template's id.
    pub template: u32,
    /// How the estimate was derived.
    pub origin: ColdStartOrigin,
    /// Per-horizon curves, indexed like [`ForecastSnapshot::horizons`].
    pub curves: Vec<Option<Arc<Curve>>>,
}

/// Accuracy/health summary frozen into a snapshot, aligned with
/// [`ForecastSnapshot::horizons`] slot for slot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServeHealth {
    /// Whether the forecaster was running degraded (fallback chain
    /// active) when this snapshot was built.
    pub degraded: bool,
    /// Rolling log-space MSE per horizon slot; `None` until enough
    /// scored forecasts accumulate.
    pub rolling_mse: Vec<Option<f64>>,
    /// Model description per horizon slot (e.g. `"lr"`, `"ensemble"`);
    /// `None` for unfit slots.
    pub models: Vec<Option<String>>,
}

/// An immutable, epoch-numbered view of every published forecast.
///
/// Built by [`SnapshotBuilder`]; published through
/// [`crate::ForecastServer`]; read through [`crate::ForecastReader`].
/// Epochs increase monotonically with every publication — they are the
/// staleness currency of the whole serving layer.
#[derive(Debug)]
pub struct ForecastSnapshot {
    epoch: u64,
    /// Minute the snapshot's forecasts were built at (the pipeline `now`
    /// of the publishing round).
    pub built_at: i64,
    /// The horizon slots every entry's `curves` vector is indexed by.
    pub horizons: Arc<[HorizonMeta]>,
    /// Tracked clusters, highest-volume first (the pipeline's tracked
    /// order).
    entries: Vec<Arc<ClusterForecast>>,
    /// Sorted `(template, cluster)` pairs for binary-search routing.
    template_index: Arc<[(u32, u64)]>,
    /// Cold-start entries for templates outside the routing index,
    /// sorted by template id for binary search.
    cold: Arc<[ColdStartForecast]>,
    /// Accuracy/health summary at publication time.
    pub health: Arc<ServeHealth>,
}

impl Versioned for ForecastSnapshot {
    fn version(&self) -> u64 {
        self.epoch
    }
}

impl PartialEq for ForecastSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.epoch == other.epoch
            && self.built_at == other.built_at
            && self.horizons == other.horizons
            && self.entries.iter().zip(&other.entries).all(|(a, b)| a == b)
            && self.entries.len() == other.entries.len()
            && self.template_index == other.template_index
            && self.cold == other.cold
            && self.health == other.health
    }
}

impl ForecastSnapshot {
    /// The empty epoch-0 snapshot a server starts from: no clusters, no
    /// curves, nothing routed.
    pub fn empty(horizons: Vec<HorizonMeta>) -> Self {
        Self {
            epoch: 0,
            built_at: 0,
            horizons: horizons.into(),
            entries: Vec::new(),
            template_index: Arc::from([]),
            cold: Arc::from([]),
            health: Arc::new(ServeHealth::default()),
        }
    }

    /// The snapshot's epoch — increases with every publication.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Tracked clusters, highest-volume first.
    pub fn entries(&self) -> &[Arc<ClusterForecast>] {
        &self.entries
    }

    /// The entry for `cluster`, if tracked. Linear scan: the tracked set
    /// is small by construction (the pipeline models the few clusters
    /// covering ≥95 % of volume).
    pub fn cluster(&self, cluster: u64) -> Option<&Arc<ClusterForecast>> {
        self.entries.iter().find(|e| e.cluster == cluster)
    }

    /// The cluster `template` is routed to, if any tracked cluster
    /// contains it. Binary search over the sorted index.
    pub(crate) fn cluster_of_template(&self, template: u32) -> Option<u64> {
        self.template_index
            .binary_search_by_key(&template, |&(t, _)| t)
            .ok()
            .map(|i| self.template_index[i].1)
    }

    /// All cold-start entries, sorted by template id.
    pub fn cold_starts(&self) -> &[ColdStartForecast] {
        &self.cold
    }

    /// The cold-start entry for `template`, if one was published. Only
    /// templates *outside* the routing index carry cold entries — a
    /// template routed to a tracked cluster is served the warm curve.
    pub fn cold_start(&self, template: u32) -> Option<&ColdStartForecast> {
        self.cold.binary_search_by_key(&template, |c| c.template).ok().map(|i| &self.cold[i])
    }

    /// The `k` clusters with the highest total predicted volume over
    /// horizon slot `horizon_idx`, as `(cluster, total)` pairs, largest
    /// first. Clusters without a curve for that slot rank by `-inf` (never
    /// above a fit cluster); ties break toward the smaller cluster id so
    /// the ranking is deterministic.
    pub fn top_k(&self, k: usize, horizon_idx: usize) -> Vec<(u64, f64)> {
        let mut ranked: Vec<(u64, f64)> = self
            .entries
            .iter()
            .map(|e| {
                let total = e
                    .curves
                    .get(horizon_idx)
                    .and_then(|c| c.as_ref())
                    .map_or(f64::NEG_INFINITY, |c| c.total());
                (e.cluster, total)
            })
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }

    /// Starts an incremental rebuild sharing every entry, the routing
    /// index, the horizon table, and the health summary by `Arc` — the
    /// cheap path a single-cluster patch takes.
    pub fn rebuild(&self) -> SnapshotBuilder {
        SnapshotBuilder {
            built_at: self.built_at,
            horizons: Arc::clone(&self.horizons),
            entries: self.entries.clone(),
            template_index: Some(Arc::clone(&self.template_index)),
            cold: Arc::clone(&self.cold),
            health: Arc::clone(&self.health),
        }
    }

    /// How many entries `self` shares (pointer-identical `Arc`s) with
    /// `prev` — the structural-sharing measure tests and metrics use.
    pub fn shared_entries_with(&self, prev: &ForecastSnapshot) -> usize {
        self.entries
            .iter()
            .filter(|e| prev.entries.iter().any(|p| Arc::ptr_eq(e, p)))
            .count()
    }
}

/// Membership input to [`SnapshotBuilder::set_membership`]: one tracked
/// cluster's identity, volume, and member templates.
#[derive(Debug, Clone, PartialEq)]
pub struct Membership {
    /// The pipeline's cluster id.
    pub cluster: u64,
    /// Query volume over the feature window.
    pub volume: f64,
    /// Member template ids.
    pub members: Vec<u32>,
}

/// Builds the next [`ForecastSnapshot`], sharing unchanged structure with
/// the previous one.
///
/// Obtain via [`ForecastSnapshot::rebuild`] (incremental, shares
/// everything) or [`SnapshotBuilder::fresh`] (from scratch). The builder
/// never assigns the epoch — [`crate::ForecastServer::publish`] does,
/// under the swap's publication lock, so epochs stay monotone even with
/// racing publishers.
#[derive(Debug, Clone)]
pub struct SnapshotBuilder {
    built_at: i64,
    horizons: Arc<[HorizonMeta]>,
    entries: Vec<Arc<ClusterForecast>>,
    /// `Some` while membership is untouched (reuse the previous index);
    /// `None` once membership changed and the index must be rebuilt.
    template_index: Option<Arc<[(u32, u64)]>>,
    cold: Arc<[ColdStartForecast]>,
    health: Arc<ServeHealth>,
}

impl SnapshotBuilder {
    /// A from-scratch builder with no entries.
    pub fn fresh(built_at: i64, horizons: Vec<HorizonMeta>) -> Self {
        Self {
            built_at,
            horizons: horizons.into(),
            entries: Vec::new(),
            template_index: None,
            cold: Arc::from([]),
            health: Arc::new(ServeHealth::default()),
        }
    }

    /// Sets the build timestamp (the publishing round's `now`).
    pub fn built_at(mut self, at: i64) -> Self {
        self.built_at = at;
        self
    }

    /// The horizon slots entries are indexed by.
    pub fn horizons(&self) -> &[HorizonMeta] {
        &self.horizons
    }

    /// Reconciles the tracked-cluster set against `clusters` (the new
    /// membership, highest-volume first). An existing entry whose id,
    /// volume, and members are unchanged is kept by `Arc` — curves and
    /// all; a changed or new cluster gets a fresh entry that keeps the
    /// old curves when only volume moved (the fit is still the latest
    /// one) but drops them when membership changed (the series the model
    /// was fit on no longer exists). Clusters absent from `clusters` are
    /// dropped.
    pub fn set_membership(mut self, clusters: &[Membership]) -> Self {
        let slots = self.horizons.len();
        let old = std::mem::take(&mut self.entries);
        let mut unchanged = true;
        self.entries = clusters
            .iter()
            .map(|m| {
                if let Some(prev) = old.iter().find(|e| e.cluster == m.cluster) {
                    if prev.volume == m.volume && prev.members == m.members {
                        return Arc::clone(prev);
                    }
                    unchanged = false;
                    let curves = if prev.members == m.members {
                        prev.curves.clone()
                    } else {
                        vec![None; slots]
                    };
                    return Arc::new(ClusterForecast {
                        cluster: m.cluster,
                        volume: m.volume,
                        members: m.members.clone(),
                        curves,
                    });
                }
                unchanged = false;
                Arc::new(ClusterForecast::unfit(m.cluster, m.volume, m.members.clone(), slots))
            })
            .collect();
        if self.entries.len() != old.len() {
            unchanged = false;
        }
        if !unchanged {
            self.template_index = None;
        }
        self
    }

    /// Installs a freshly fit `curve` for `cluster` at horizon slot
    /// `horizon_idx` — the single-cluster incremental patch. Unknown
    /// clusters and out-of-range slots are ignored (the fit raced a
    /// membership change; the next full publication wins).
    pub fn set_curve(mut self, cluster: u64, horizon_idx: usize, curve: Curve) -> Self {
        if horizon_idx < self.horizons.len() {
            if let Some(entry) = self.entries.iter_mut().find(|e| e.cluster == cluster) {
                let patched = Arc::make_mut(entry);
                patched.curves[horizon_idx] = Some(Arc::new(curve));
            }
        }
        self
    }

    /// Replaces the cold-start entry set. Entries are sorted by template
    /// id (duplicates keep the first occurrence); at build time any entry
    /// whose template is routed by the final index is pruned — the warm
    /// curve supersedes the cold seed as soon as the template joins a
    /// tracked cluster.
    pub fn set_cold_starts(mut self, mut cold: Vec<ColdStartForecast>) -> Self {
        cold.sort_by_key(|c| c.template);
        cold.dedup_by_key(|c| c.template);
        self.cold = cold.into();
        self
    }

    /// Replaces the health summary.
    pub fn health(mut self, health: ServeHealth) -> Self {
        self.health = Arc::new(health);
        self
    }

    /// Freezes the builder into a snapshot at `epoch`, rebuilding the
    /// template routing index only if membership changed.
    pub fn build(self, epoch: u64) -> ForecastSnapshot {
        let template_index = self.template_index.unwrap_or_else(|| {
            let mut index: Vec<(u32, u64)> = self
                .entries
                .iter()
                .flat_map(|e| e.members.iter().map(|&t| (t, e.cluster)))
                .collect();
            index.sort_unstable();
            index.dedup_by_key(|&mut (t, _)| t);
            index.into()
        });
        let routed =
            |t: u32| template_index.binary_search_by_key(&t, |&(ti, _)| ti).is_ok();
        // Prune cold entries shadowed by the routing index; keep the Arc
        // (and its structural sharing) when nothing is shadowed.
        let cold = if self.cold.iter().any(|c| routed(c.template)) {
            self.cold.iter().filter(|c| !routed(c.template)).cloned().collect::<Vec<_>>().into()
        } else {
            self.cold
        };
        ForecastSnapshot {
            epoch,
            built_at: self.built_at,
            horizons: self.horizons,
            entries: self.entries,
            template_index,
            cold,
            health: self.health,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hourly(horizon: usize) -> HorizonMeta {
        HorizonMeta { interval_minutes: 60, window: 24, horizon }
    }

    fn membership(cluster: u64, volume: f64, members: &[u32]) -> Membership {
        Membership { cluster, volume, members: members.to_vec() }
    }

    fn curve(start: i64, values: &[f64]) -> Curve {
        Curve { start, interval_minutes: 60, values: values.to_vec() }
    }

    #[test]
    fn routing_and_lookup() {
        let snap = SnapshotBuilder::fresh(100, vec![hourly(1)])
            .set_membership(&[membership(7, 50.0, &[1, 3]), membership(9, 20.0, &[2])])
            .set_curve(7, 0, curve(160, &[5.0]))
            .build(1);
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.cluster_of_template(3), Some(7));
        assert_eq!(snap.cluster_of_template(2), Some(9));
        assert_eq!(snap.cluster_of_template(99), None);
        assert_eq!(snap.cluster(7).unwrap().curves[0].as_ref().unwrap().values, vec![5.0]);
        assert!(snap.cluster(9).unwrap().curves[0].is_none());
        assert_eq!(snap.cluster(8), None);
    }

    #[test]
    fn top_k_ranks_by_curve_total_with_deterministic_ties() {
        let snap = SnapshotBuilder::fresh(0, vec![hourly(2)])
            .set_membership(&[
                membership(1, 10.0, &[1]),
                membership(2, 10.0, &[2]),
                membership(3, 10.0, &[3]),
                membership(4, 10.0, &[4]),
            ])
            .set_curve(1, 0, curve(0, &[1.0, 1.0]))
            .set_curve(2, 0, curve(0, &[3.0, 3.0]))
            .set_curve(3, 0, curve(0, &[1.0, 1.0]))
            .build(1);
        // Cluster 4 has no curve: ranked last. 1 and 3 tie: smaller id first.
        assert_eq!(snap.top_k(4, 0), vec![
            (2, 6.0),
            (1, 2.0),
            (3, 2.0),
            (4, f64::NEG_INFINITY),
        ]);
        assert_eq!(snap.top_k(1, 0), vec![(2, 6.0)]);
    }

    #[test]
    fn incremental_patch_shares_unchanged_entries() {
        let base = SnapshotBuilder::fresh(0, vec![hourly(1)])
            .set_membership(&[
                membership(1, 30.0, &[1]),
                membership(2, 20.0, &[2]),
                membership(3, 10.0, &[3]),
            ])
            .set_curve(1, 0, curve(0, &[1.0]))
            .set_curve(2, 0, curve(0, &[2.0]))
            .set_curve(3, 0, curve(0, &[3.0]))
            .build(1);
        let patched = base.rebuild().set_curve(2, 0, curve(60, &[9.0])).build(2);
        assert_eq!(patched.shared_entries_with(&base), 2, "only cluster 2 reallocated");
        assert_eq!(patched.cluster(2).unwrap().curves[0].as_ref().unwrap().values, vec![9.0]);
        assert_eq!(patched.cluster(1).unwrap().curves[0].as_ref().unwrap().values, vec![1.0]);
        // The routing index is shared by pointer when membership is untouched.
        assert!(Arc::ptr_eq(&patched.template_index, &base.template_index));
    }

    #[test]
    fn membership_reconcile_keeps_volume_only_changes_fit() {
        let base = SnapshotBuilder::fresh(0, vec![hourly(1)])
            .set_membership(&[membership(1, 30.0, &[1, 2]), membership(2, 20.0, &[3])])
            .set_curve(1, 0, curve(0, &[4.0]))
            .set_curve(2, 0, curve(0, &[5.0]))
            .build(1);
        let next = base
            .rebuild()
            .set_membership(&[
                membership(1, 35.0, &[1, 2]), // volume moved, members same: keep curves
                membership(2, 20.0, &[3, 4]), // members changed: drop curves
            ])
            .build(2);
        assert_eq!(next.cluster(1).unwrap().curves[0].as_ref().unwrap().values, vec![4.0]);
        assert!(next.cluster(2).unwrap().curves[0].is_none());
        assert_eq!(next.cluster_of_template(4), Some(2));
        // Unchanged-everything reconcile shares by Arc.
        let same = next
            .rebuild()
            .set_membership(&[
                membership(1, 35.0, &[1, 2]),
                membership(2, 20.0, &[3, 4]),
            ])
            .build(3);
        assert_eq!(same.shared_entries_with(&next), 2);
    }

    #[test]
    fn cold_starts_route_and_are_pruned_when_template_joins_a_cluster() {
        let cold_entry = |template: u32, values: &[f64]| ColdStartForecast {
            template,
            origin: ColdStartOrigin::ClusterShare { cluster: 7, share: 0.25 },
            curves: vec![Some(Arc::new(curve(0, values)))],
        };
        let snap = SnapshotBuilder::fresh(0, vec![hourly(1)])
            .set_membership(&[membership(7, 50.0, &[1, 3])])
            .set_cold_starts(vec![cold_entry(9, &[2.5]), cold_entry(5, &[1.0])])
            .build(1);
        // Sorted by template, binary-searchable.
        assert_eq!(snap.cold_starts().len(), 2);
        assert_eq!(snap.cold_starts()[0].template, 5);
        assert_eq!(snap.cold_start(9).unwrap().curves[0].as_ref().unwrap().values, vec![2.5]);
        assert!(snap.cold_start(1).is_none(), "routed templates carry no cold entry");
        assert!(snap.cold_start(99).is_none());

        // Rebuild shares the cold list by Arc when untouched...
        let next = snap.rebuild().build(2);
        assert_eq!(next.cold_starts().len(), 2);
        // ...and prunes an entry once its template joins a tracked cluster.
        let joined = snap
            .rebuild()
            .set_membership(&[membership(7, 55.0, &[1, 3, 9])])
            .build(3);
        assert!(joined.cold_start(9).is_none(), "warm routing supersedes the cold seed");
        assert_eq!(joined.cold_start(5).unwrap().template, 5);
        assert_eq!(joined.cluster_of_template(9), Some(7));
    }

    #[test]
    fn cold_start_entry_shadowed_at_build_time() {
        // A cold entry for an already-routed template is dropped at build.
        let snap = SnapshotBuilder::fresh(0, vec![hourly(1)])
            .set_membership(&[membership(7, 50.0, &[1])])
            .set_cold_starts(vec![ColdStartForecast {
                template: 1,
                origin: ColdStartOrigin::PopulationPrior,
                curves: vec![Some(Arc::new(curve(0, &[9.0])))],
            }])
            .build(1);
        assert!(snap.cold_starts().is_empty());
    }

    #[test]
    fn dropped_cluster_leaves_index() {
        let base = SnapshotBuilder::fresh(0, vec![hourly(1)])
            .set_membership(&[membership(1, 30.0, &[1]), membership(2, 20.0, &[2])])
            .build(1);
        let next = base.rebuild().set_membership(&[membership(1, 30.0, &[1])]).build(2);
        assert_eq!(next.cluster_of_template(2), None);
        assert!(next.cluster(2).is_none());
    }
}
