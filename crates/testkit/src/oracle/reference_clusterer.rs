//! A linear-scan reference implementation of the online clusterer (§5.2).
//!
//! Mirrors the *semantics* of `qb_clusterer::OnlineClusterer` — the three
//! steps (assign / re-check / merge), frozen centers during step 1,
//! non-recursive moves, eviction, lowest-id tie-breaking — while replacing
//! every optimized structure with its naive counterpart:
//!
//! * nearest-center lookup is an O(k) scan over all clusters in ascending
//!   id order (the clusterer scans the same way);
//! * the merge step recomputes the full O(k²) pairwise similarity table
//!   from scratch on every iteration (no table kept between merges, no
//!   cached partners, no cached norms);
//! * similarities are re-derived locally ([`super::cosine`], [`super::l2`])
//!   rather than borrowed from `qb-linalg`.
//!
//! The differential tests assert the optimized clusterer produces the
//! **identical** partition, cluster ids, centers, and update report on the
//! same snapshot stream. That equality is exact, not approximate: the
//! paper's update rule is deterministic, so any divergence is a bug in one
//! of the optimized structures (this oracle is how a tie-breaking
//! inconsistency between two nearest-center lookups was found and fixed).

use std::collections::BTreeMap;

use qb_clusterer::{
    ClusterId, OnlineClusterer, SimilarityMetric, TemplateKey, TemplateSnapshot, UpdateReport,
    EVICTION_IDLE,
};

/// One reference cluster: member list in insertion order plus the
/// arithmetic-mean center.
#[derive(Debug, Clone)]
pub struct RefCluster {
    pub members: Vec<TemplateKey>,
    pub center: Vec<f64>,
    pub volume: f64,
}

/// A template's feature, dense: the oracle keeps every coordinate,
/// zeros included, where the clusterer stores the suffix after the lead.
#[derive(Debug, Clone)]
struct RefFeature {
    values: Vec<f64>,
    valid_from: usize,
}

#[derive(Debug, Clone)]
struct RefTemplate {
    feature: RefFeature,
    volume: f64,
    last_seen: i64,
    cluster: u64,
}

/// The naive clusterer. Construct with the same ρ / metric as the
/// `OnlineClusterer` under test and feed both the same snapshot stream;
/// both evict after [`EVICTION_IDLE`] idle minutes.
pub struct ReferenceClusterer {
    rho: f64,
    metric: SimilarityMetric,
    templates: BTreeMap<TemplateKey, RefTemplate>,
    clusters: BTreeMap<u64, RefCluster>,
    next_cluster: u64,
    last_merges: Vec<(u64, u64, usize)>,
}

impl ReferenceClusterer {
    pub fn new(rho: f64, metric: SimilarityMetric) -> Self {
        Self {
            rho,
            metric,
            templates: BTreeMap::new(),
            clusters: BTreeMap::new(),
            next_cluster: 0,
            last_merges: Vec::new(),
        }
    }

    /// Masked similarity of a template feature against a center — the same
    /// rule as `TemplateFeature::similarity` (coordinates before
    /// `valid_from` are excluded), re-derived naively.
    fn similarity(&self, f: &RefFeature, center: &[f64]) -> f64 {
        match self.metric {
            SimilarityMetric::Cosine => {
                let from = f.valid_from;
                if from >= f.values.len() {
                    return 0.0;
                }
                super::cosine(&f.values[from..], &center[from..])
            }
            SimilarityMetric::InverseL2 => 1.0 / (1.0 + super::l2(&f.values, center)),
        }
    }

    fn center_similarity(&self, a: &[f64], b: &[f64]) -> f64 {
        match self.metric {
            SimilarityMetric::Cosine => super::cosine(a, b),
            SimilarityMetric::InverseL2 => 1.0 / (1.0 + super::l2(a, b)),
        }
    }

    /// O(k) nearest-center scan in ascending id order; ties keep the first
    /// (lowest-id) maximum. A zero-norm unmasked cosine query matches
    /// nothing, mirroring the optimized path's normalization guard.
    fn nearest(&self, f: &RefFeature) -> Option<(u64, f64)> {
        if self.clusters.is_empty() {
            return None;
        }
        if self.metric == SimilarityMetric::Cosine && f.valid_from == 0 {
            let norm_sq: f64 = f.values.iter().map(|v| v * v).sum();
            if norm_sq == 0.0 {
                return None;
            }
        }
        let mut best: Option<(u64, f64)> = None;
        for (&id, c) in &self.clusters {
            let sim = self.similarity(f, &c.center);
            if best.is_none_or(|(_, b)| sim > b) {
                best = Some((id, sim));
            }
        }
        best
    }

    fn recompute_center(&mut self, cid: u64) {
        let Some(cluster) = self.clusters.get(&cid) else { return };
        if cluster.members.is_empty() {
            self.clusters.remove(&cid);
            return;
        }
        let members = cluster.members.clone();
        let dim = self.templates[&members[0]].feature.values.len();
        let mut center = vec![0.0; dim];
        let mut volume = 0.0;
        for m in &members {
            let s = &self.templates[m];
            for (c, v) in center.iter_mut().zip(&s.feature.values) {
                *c += v;
            }
            volume += s.volume;
        }
        for c in &mut center {
            *c /= members.len() as f64;
        }
        let cluster = self.clusters.get_mut(&cid).expect("checked above");
        cluster.center = center;
        cluster.volume = volume;
    }

    fn recompute_all_centers(&mut self) {
        let ids: Vec<u64> = self.clusters.keys().copied().collect();
        for cid in ids {
            self.recompute_center(cid);
        }
    }

    fn assign(&mut self, key: TemplateKey, feature: RefFeature, volume: f64, last_seen: i64) -> bool {
        match self.nearest(&feature) {
            Some((cid, sim)) if sim > self.rho => {
                self.clusters.get_mut(&cid).expect("live cluster").members.push(key);
                self.templates.insert(key, RefTemplate { feature, volume, last_seen, cluster: cid });
                false
            }
            _ => {
                let cid = self.next_cluster;
                self.next_cluster += 1;
                self.clusters.insert(
                    cid,
                    RefCluster { members: vec![key], center: feature.values.clone(), volume },
                );
                self.templates.insert(key, RefTemplate { feature, volume, last_seen, cluster: cid });
                true
            }
        }
    }

    /// Full-rescan merge step: the similarity table is rebuilt from scratch
    /// before every merge decision — the oracle for the optimized
    /// cached-partner table. Returns `(dst, src, moved members)` per merge.
    fn merge_step(&mut self) -> Vec<(u64, u64, usize)> {
        let mut merges = Vec::new();
        loop {
            let ids: Vec<u64> = self.clusters.keys().copied().collect();
            let mut best: Option<((u64, u64), f64)> = None;
            for i in 0..ids.len() {
                for j in i + 1..ids.len() {
                    let sim = self.center_similarity(
                        &self.clusters[&ids[i]].center,
                        &self.clusters[&ids[j]].center,
                    );
                    if sim > self.rho && best.is_none_or(|(_, b)| sim > b) {
                        best = Some(((ids[i], ids[j]), sim));
                    }
                }
            }
            let Some(((a, b), _)) = best else { break };
            let (dst, src) = if self.clusters[&a].members.len() >= self.clusters[&b].members.len() {
                (a, b)
            } else {
                (b, a)
            };
            let moved = self.clusters.remove(&src).expect("listed").members;
            for m in &moved {
                self.templates.get_mut(m).expect("member tracked").cluster = dst;
            }
            merges.push((dst, src, moved.len()));
            self.clusters.get_mut(&dst).expect("listed").members.extend(moved);
            self.recompute_center(dst);
        }
        merges
    }

    /// The three-step update on one snapshot batch — same contract as
    /// `OnlineClusterer::update`, same report.
    pub fn update(&mut self, snapshots: Vec<TemplateSnapshot>, now: i64) -> UpdateReport {
        let mut report = UpdateReport::default();

        // Refresh known templates; collect genuinely new ones in order,
        // leaving out those already idle past the eviction window.
        let cutoff = now - EVICTION_IDLE;
        let mut new_snaps = Vec::new();
        for snap in snapshots {
            match self.templates.get_mut(&snap.key) {
                Some(state) => {
                    state.feature = dense(&snap);
                    state.volume = snap.volume;
                    state.last_seen = snap.last_seen;
                }
                None if snap.last_seen >= cutoff => new_snaps.push(snap),
                None => {}
            }
        }

        // Eviction.
        let evicted: Vec<TemplateKey> = self
            .templates
            .iter()
            .filter(|(_, s)| s.last_seen < cutoff)
            .map(|(k, _)| *k)
            .collect();
        for k in evicted {
            let state = self.templates.remove(&k).expect("listed above");
            if let Some(c) = self.clusters.get_mut(&state.cluster) {
                c.members.retain(|m| *m != k);
                if c.members.is_empty() {
                    self.clusters.remove(&state.cluster);
                }
            }
            report.evicted += 1;
        }
        self.recompute_all_centers();

        // Step 2: re-check memberships (non-recursive; removals first).
        let mut to_reassign = Vec::new();
        for (&key, state) in &self.templates {
            let cluster = &self.clusters[&state.cluster];
            if cluster.members.len() == 1 {
                continue;
            }
            if self.similarity(&state.feature, &cluster.center) <= self.rho {
                to_reassign.push(key);
            }
        }
        for key in &to_reassign {
            let cid = self.templates[key].cluster;
            let c = self.clusters.get_mut(&cid).expect("member's cluster exists");
            c.members.retain(|m| m != key);
            if c.members.is_empty() {
                self.clusters.remove(&cid);
            }
        }
        self.recompute_all_centers();
        report.reassigned = to_reassign.len();

        // Step 1: assign new templates, then the step-2 removals. Centers
        // are frozen for the whole step (new clusters join the scan with
        // their founder's feature as center).
        report.new_templates = new_snaps.len();
        for snap in new_snaps {
            let created = self.assign(snap.key, dense(&snap), snap.volume, snap.last_seen);
            report.clusters_created += usize::from(created);
        }
        for key in to_reassign {
            let state = self.templates.remove(&key).expect("still tracked");
            let created = self.assign(key, state.feature, state.volume, state.last_seen);
            report.clusters_created += usize::from(created);
        }
        self.recompute_all_centers();

        // Step 3: merge.
        self.last_merges = self.merge_step();
        report.merges = self.last_merges.len();
        self.recompute_all_centers();
        report
    }

    /// `template key → cluster id` for every tracked template.
    pub fn partition(&self) -> BTreeMap<TemplateKey, u64> {
        self.templates.iter().map(|(&k, s)| (k, s.cluster)).collect()
    }

    /// All clusters by id.
    pub fn clusters(&self) -> &BTreeMap<u64, RefCluster> {
        &self.clusters
    }

    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// The latest update's merges as `(dst, src, moved members)`, in the
    /// order they were performed.
    pub fn last_merges(&self) -> &[(u64, u64, usize)] {
        &self.last_merges
    }
}

/// A snapshot's feature expanded to every coordinate.
fn dense(snap: &TemplateSnapshot) -> RefFeature {
    RefFeature { values: snap.feature.to_dense(), valid_from: snap.feature.valid_from }
}

/// Extracts the optimized clusterer's partition over `keys` in the same
/// `key → cluster id` shape as [`ReferenceClusterer::partition`]. Keys the
/// clusterer no longer tracks (evicted) are omitted.
pub fn online_partition(
    clusterer: &OnlineClusterer,
    keys: impl IntoIterator<Item = TemplateKey>,
) -> BTreeMap<TemplateKey, u64> {
    keys.into_iter()
        .filter_map(|k| clusterer.cluster_of(k).map(|ClusterId(id)| (k, id)))
        .collect()
}
