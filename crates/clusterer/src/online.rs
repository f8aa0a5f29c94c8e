//! The online modified-DBSCAN clustering algorithm (§5.2).
//!
//! Every update period the Clusterer performs three steps:
//!
//! 1. **Assign** — each new template joins the cluster whose *center* is
//!    most similar, provided the similarity exceeds ρ (kd-tree lookup);
//!    otherwise it founds a new cluster.
//! 2. **Re-check** — existing templates whose similarity to their own
//!    cluster's center dropped below ρ are removed and re-assigned via
//!    step 1. Moves are *not* applied recursively; deferred to the next
//!    period (the paper's convergence trade-off).
//! 3. **Merge** — cluster pairs whose centers are more similar than ρ merge.
//!
//! A template that stays silent longer than the eviction window is dropped.
//! Between periodic updates, the share of previously-unseen templates is
//! monitored; exceeding a threshold triggers the three steps early —
//! that is how the framework adapts to workload shifts (Appendix D).

use std::collections::{BTreeMap, BTreeSet};

use qb_obs::Recorder;
use qb_trace::{EventDraft, EventKind, Scope, Tracer};

use crate::feature::TemplateFeature;
use crate::kdtree::KdTree;
use crate::merge::{MergeStats, MergeTable};

/// Opaque template identity (the Pre-Processor's `TemplateId.0`).
pub type TemplateKey = u64;

/// Cluster identifier, unique across the lifetime of one `OnlineClusterer`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterId(pub u64);

/// Similarity metric for clustering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimilarityMetric {
    /// Cosine similarity over arrival-rate features — QB5000's choice.
    Cosine,
    /// `1 / (1 + L2)` over logical features — the §7.7 ablation. Mapped
    /// into `(0, 1]` so the same ρ threshold semantics apply.
    InverseL2,
}

impl SimilarityMetric {
    /// Similarity between a template feature and a center.
    fn similarity(self, f: &TemplateFeature, center: &[f64]) -> f64 {
        match self {
            SimilarityMetric::Cosine => f.similarity(center, 0),
            SimilarityMetric::InverseL2 => f.inverse_l2(center),
        }
    }
}

/// Minutes without an arrival after which a template leaves the
/// clusterer: a week, longer than the quiet stretches of daily and weekly
/// cycles (nights, weekends), so only templates the application stopped
/// issuing are evicted.
pub const EVICTION_IDLE: i64 = 7 * qb_timeseries::MINUTES_PER_DAY;

/// Fraction of previously-unseen templates since the last update that
/// triggers an early update (§5.2's shift detection). It is also the floor
/// of the adaptive trigger, which raises the bar for applications that
/// churn templates all the time.
pub const NEW_TEMPLATE_TRIGGER: f64 = 0.2;

/// Clusterer configuration.
#[derive(Debug, Clone)]
pub struct ClustererConfig {
    /// Similarity threshold ρ ∈ [0, 1]. Paper default: 0.8 (Appendix A).
    pub rho: f64,
    /// Metric (cosine for arrival-rate features, inverse-L2 for logical).
    pub metric: SimilarityMetric,
    /// Adapt the trigger to the workload's baseline churn instead of using
    /// the fixed threshold. §5.2 defers threshold selection as future
    /// work ("Setting this threshold properly is dependent on the
    /// performance attributes of the target DBMS"); with this enabled the
    /// clusterer tracks an exponential moving average of the steady-state
    /// unseen-template ratio and only fires when the current ratio clearly
    /// exceeds that baseline, so a naturally churny application (MOOC) does
    /// not re-cluster constantly while a phase switch still triggers.
    pub adaptive_trigger: bool,
}

impl Default for ClustererConfig {
    fn default() -> Self {
        Self {
            rho: 0.8,
            metric: SimilarityMetric::Cosine,
            adaptive_trigger: false,
        }
    }
}

/// One cluster: members plus the arithmetic-mean center (§5.2 step 1).
#[derive(Debug, Clone)]
pub struct Cluster {
    pub id: ClusterId,
    pub members: Vec<TemplateKey>,
    /// Arithmetic average of the members' feature vectors.
    pub center: Vec<f64>,
    /// Total query volume of members (for pruning, §5.3).
    pub volume: f64,
}

#[derive(Debug, Clone)]
struct TemplateState {
    feature: TemplateFeature,
    volume: f64,
    last_seen: i64,
    cluster: ClusterId,
}

/// What changed during one update cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateReport {
    pub new_templates: usize,
    pub reassigned: usize,
    pub evicted: usize,
    pub merges: usize,
    pub clusters_created: usize,
}

/// A snapshot of one template handed to [`OnlineClusterer::update`].
#[derive(Debug, Clone)]
pub struct TemplateSnapshot {
    pub key: TemplateKey,
    pub feature: TemplateFeature,
    /// Query volume in the reporting window (drives cluster pruning).
    pub volume: f64,
    /// Minute of the template's most recent arrival.
    pub last_seen: i64,
}

/// Cached metric handles; all no-ops until
/// [`OnlineClusterer::set_recorder`] installs an enabled recorder.
#[derive(Debug, Default)]
struct ClusterMetrics {
    /// Wall time per three-step update cycle.
    update_time: qb_obs::Histogram,
    /// Wall time per kd-tree construction (once per cycle).
    kdtree_build_time: qb_obs::Histogram,
    /// Wall time per step-1 assignment phase (kd queries + fresh scans).
    assign_time: qb_obs::Histogram,
    /// Wall time per step-3 merge phase.
    merge_time: qb_obs::Histogram,
    new_templates: qb_obs::Counter,
    reassigned: qb_obs::Counter,
    evicted: qb_obs::Counter,
    merges: qb_obs::Counter,
    /// Center similarities the merge step computed, rows of its table it
    /// scanned again after a merge, and coordinates its passes over the
    /// centres walked — the step's cost as counts.
    merge_pairs_scored: qb_obs::Counter,
    merge_rows_rescanned: qb_obs::Counter,
    merge_coords_read: qb_obs::Counter,
    clusters_created: qb_obs::Counter,
    num_clusters: qb_obs::Gauge,
    num_templates: qb_obs::Gauge,
    /// Coordinates the tracked templates' features store: the sum of
    /// their suffix lengths, `dim − lead` each.
    feature_coords: qb_obs::Gauge,
    /// Unseen-template ratio of the period each update cycle closed.
    unseen_ratio: qb_obs::Gauge,
}

impl ClusterMetrics {
    fn resolve(recorder: &Recorder) -> Self {
        Self {
            update_time: recorder.histogram("clusterer.update"),
            kdtree_build_time: recorder.histogram("clusterer.kdtree_build"),
            assign_time: recorder.histogram("clusterer.assign"),
            merge_time: recorder.histogram("clusterer.merge"),
            new_templates: recorder.counter("clusterer.new_templates"),
            reassigned: recorder.counter("clusterer.reassigned"),
            evicted: recorder.counter("clusterer.evicted"),
            merges: recorder.counter("clusterer.merges"),
            merge_pairs_scored: recorder.counter("clusterer.merge_pairs_scored"),
            merge_rows_rescanned: recorder.counter("clusterer.merge_rows_rescanned"),
            merge_coords_read: recorder.counter("clusterer.merge_coords_read"),
            clusters_created: recorder.counter("clusterer.clusters_created"),
            num_clusters: recorder.gauge("clusterer.num_clusters"),
            num_templates: recorder.gauge("clusterer.num_templates"),
            feature_coords: recorder.gauge("clusterer.feature_coords"),
            unseen_ratio: recorder.gauge("clusterer.unseen_ratio"),
        }
    }
}

/// The online clusterer.
pub struct OnlineClusterer {
    config: ClustererConfig,
    metrics: ClusterMetrics,
    templates: BTreeMap<TemplateKey, TemplateState>,
    clusters: BTreeMap<ClusterId, Cluster>,
    next_cluster: u64,
    /// Distinct template keys observed since the last update. A hot
    /// template observed a thousand times counts once, so it cannot
    /// dilute the unseen ratio and mask a workload shift.
    seen_since_update: BTreeSet<TemplateKey>,
    /// Distinct previously-unknown templates among [`Self::seen_since_update`].
    unseen_since_update: usize,
    /// EWMA of the per-period unseen ratio (the adaptive-trigger baseline).
    baseline_unseen_ratio: f64,
    tracer: Tracer,
}

/// Step-1 lookup context: the kd-tree over the cycle's frozen centers plus
/// the clusters born during the step.
///
/// The tree is built **once per update cycle** (it used to be rebuilt on
/// every single lookup, which made it slower than the linear scan it
/// replaces). It stays valid for the whole step because member additions
/// no longer move centers mid-step — centers are frozen at the start of
/// step 1 (the paper's non-recursive update) and recomputed once at the
/// end of the cycle. Only cluster *creation* adds a center, and those land
/// in `fresh`, scanned linearly on each lookup (few per cycle).
struct AssignCtx {
    /// kd-tree over unit-normalized pre-step centers (cosine metric only).
    tree: Option<KdTree<ClusterId>>,
    /// Clusters created during this step, not present in the tree.
    fresh: Vec<ClusterId>,
}

impl OnlineClusterer {
    pub fn new(config: ClustererConfig) -> Self {
        assert!((0.0..=1.0).contains(&config.rho), "rho must be in [0, 1]");
        Self {
            config,
            metrics: ClusterMetrics::default(),
            templates: BTreeMap::new(),
            clusters: BTreeMap::new(),
            next_cluster: 0,
            seen_since_update: BTreeSet::new(),
            unseen_since_update: 0,
            baseline_unseen_ratio: 0.0,
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a [`Recorder`]: update cycles then record `clusterer.*`
    /// phase timings (cycle, kd-tree build, assignment, merge), membership
    /// churn counters, and population gauges. Metric names resolve once,
    /// here; lookups inside the cycle only touch cached handles.
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.metrics = ClusterMetrics::resolve(recorder);
    }

    /// Installs a [`Tracer`]: update cycles then emit the cluster-churn
    /// lineage — `ClusterCreated` / `ClusterAssigned` (linked back to the
    /// member's `TemplateCreated` anchor), `ClusterMerged`,
    /// `ClusterEvicted`, and a closing `ClustersUpdated` anchored under
    /// [`Scope::ClusterState`] for the Forecaster to link model fits to.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
    }

    /// The trigger threshold currently in force: [`NEW_TEMPLATE_TRIGGER`],
    /// or — with `adaptive_trigger` — a margin above the learned baseline
    /// churn, clamped so a total template swap always fires.
    pub(crate) fn effective_trigger(&self) -> f64 {
        if self.config.adaptive_trigger {
            (3.0 * self.baseline_unseen_ratio + 0.1).clamp(NEW_TEMPLATE_TRIGGER, 0.9)
        } else {
            NEW_TEMPLATE_TRIGGER
        }
    }

    /// Records that a template was observed between updates; returns `true`
    /// when the unseen-template ratio crossed the early-update trigger.
    ///
    /// The ratio is over **distinct** templates: re-observing the same key
    /// does not grow the denominator, so one hot template repeated
    /// thousands of times cannot drown out a batch of genuinely new ones.
    pub fn observe(&mut self, key: TemplateKey) -> bool {
        if self.seen_since_update.insert(key) && !self.templates.contains_key(&key) {
            self.unseen_since_update += 1;
        }
        let observed = self.seen_since_update.len();
        let ratio = self.unseen_since_update as f64 / observed as f64;
        observed >= 10 && ratio > self.effective_trigger()
    }

    /// Records a tick's worth of observations at once (the batched-ingest
    /// feed); returns `true` when the unseen-template ratio crossed the
    /// early-update trigger.
    ///
    /// Observation state is a set, so this leaves the clusterer in exactly
    /// the state per-key [`OnlineClusterer::observe`] calls would, and the
    /// return value matches what the *last* of those calls would report:
    /// the trigger is evaluated once over the whole tick instead of per
    /// statement.
    pub fn observe_batch(&mut self, keys: &[TemplateKey]) -> bool {
        for &key in keys {
            if self.seen_since_update.insert(key) && !self.templates.contains_key(&key) {
                self.unseen_since_update += 1;
            }
        }
        let observed = self.seen_since_update.len();
        let ratio = self.unseen_since_update as f64 / observed as f64;
        observed >= 10 && ratio > self.effective_trigger()
    }

    /// Runs the three-step incremental update over fresh feature snapshots.
    ///
    /// `now` drives eviction: a template whose `last_seen` is older than
    /// `now −` [`EVICTION_IDLE`] leaves the clusterer, and an evicted
    /// template stays out. A snapshot of a template the clusterer does not
    /// hold is admitted as new only if its `last_seen` is within that
    /// window, so a template re-enters only on a fresh arrival. Every live
    /// template should appear in `snapshots`; templates absent from it
    /// keep their previous feature (but still age toward eviction).
    pub fn update(&mut self, snapshots: Vec<TemplateSnapshot>, now: i64) -> UpdateReport {
        let _stage = self.tracer.stage("clusterer.update", &self.metrics.update_time);
        let mut report = UpdateReport::default();
        // Fold the closing period's churn into the adaptive baseline.
        if !self.seen_since_update.is_empty() {
            self.metrics.unseen_ratio.set(
                self.unseen_since_update as f64 / self.seen_since_update.len() as f64,
            );
        }
        if self.seen_since_update.len() >= 10 {
            let ratio = self.unseen_since_update as f64 / self.seen_since_update.len() as f64;
            self.baseline_unseen_ratio = 0.7 * self.baseline_unseen_ratio + 0.3 * ratio;
        }
        self.unseen_since_update = 0;
        self.seen_since_update.clear();

        // Refresh features of known templates; admit unknown ones that
        // arrived within the eviction window.
        let cutoff = now - EVICTION_IDLE;
        let mut new_snaps = Vec::new();
        for snap in snapshots {
            match self.templates.get_mut(&snap.key) {
                Some(state) => {
                    state.feature = snap.feature;
                    state.volume = snap.volume;
                    state.last_seen = snap.last_seen;
                }
                None if snap.last_seen >= cutoff => new_snaps.push(snap),
                None => {}
            }
        }

        // Eviction: drop templates idle beyond the window.
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
            if self.tracer.is_enabled() {
                self.tracer.record(
                    EventDraft::new(EventKind::ClusterEvicted)
                        .parent_opt(self.tracer.anchor(Scope::Template, k))
                        .uint("template", k)
                        .uint("cluster", state.cluster.0)
                        .int("last_seen", state.last_seen),
                );
            }
        }
        self.recompute_centers();

        // Step 2: re-check existing memberships against the (possibly
        // moved) centers. Removals are collected first, then re-assigned —
        // not applied recursively.
        let mut to_reassign = Vec::new();
        for (&key, state) in &self.templates {
            let cluster = &self.clusters[&state.cluster];
            // A single-member cluster is always coherent with its center.
            if cluster.members.len() == 1 {
                continue;
            }
            let sim = self.config.metric.similarity(&state.feature, &cluster.center);
            if sim <= self.config.rho {
                to_reassign.push(key);
            }
        }
        // A center is a pure function of its cluster's member order,
        // features and volumes, all current as of the pass above; from here
        // on only clusters whose membership changes need a fresh one.
        let mut losers = BTreeSet::new();
        for key in &to_reassign {
            let cluster_id = self.templates[key].cluster;
            let c = self.clusters.get_mut(&cluster_id).expect("member's cluster exists");
            c.members.retain(|m| m != key);
            losers.insert(cluster_id);
        }
        for cid in losers {
            self.update_center(cid);
        }
        report.reassigned = to_reassign.len();

        // Step 1: assign new templates and re-assign the step-2 removals.
        // All lookups in this step run against the centers as they stand
        // right now (the paper applies center moves non-recursively), which
        // lets one kd-tree serve the whole step.
        let assign_span = self.metrics.assign_time.start();
        let mut ctx = self.assign_ctx();
        let mut gainers = BTreeSet::new();
        report.new_templates = new_snaps.len();
        for snap in new_snaps {
            let key = snap.key;
            let (cid, created) =
                self.assign(snap.key, snap.feature, snap.volume, snap.last_seen, &mut ctx);
            report.clusters_created += usize::from(created);
            gainers.insert(cid);
            self.trace_assign(key, cid, created, false);
        }
        for key in to_reassign {
            let state = self.templates.remove(&key).expect("still tracked");
            let (cid, created) =
                self.assign(key, state.feature, state.volume, state.last_seen, &mut ctx);
            report.clusters_created += usize::from(created);
            gainers.insert(cid);
            self.trace_assign(key, cid, created, true);
        }
        assign_span.finish();
        // Fold the step's additions into the centers before merging.
        for cid in gainers {
            self.update_center(cid);
        }

        // Step 3: merge clusters whose centers are closer than ρ. Each
        // merge re-centers its destination, so the step leaves every
        // center current.
        let merge_span = self.metrics.merge_time.start();
        let (merges, merge_stats) = self.merge_step();
        report.merges = merges.len();
        merge_span.finish();
        if self.tracer.is_enabled() {
            for (dst, src, moved) in merges {
                let merged = self.tracer.record(
                    EventDraft::new(EventKind::ClusterMerged)
                        .parent_opt(self.tracer.anchor(Scope::Cluster, dst.0))
                        .reference_opt(self.tracer.anchor(Scope::Cluster, src.0))
                        .uint("into", dst.0)
                        .uint("from", src.0)
                        .uint("moved_members", moved as u64),
                );
                if let Some(merged) = merged {
                    // Both ids now resolve to the merge event, so later
                    // links see the combined cluster's history.
                    self.tracer.set_anchor(Scope::Cluster, dst.0, merged);
                    self.tracer.set_anchor(Scope::Cluster, src.0, merged);
                }
            }
            let updated = self.tracer.record(
                EventDraft::new(EventKind::ClustersUpdated)
                    .int("now", now)
                    .uint("new_templates", report.new_templates as u64)
                    .uint("reassigned", report.reassigned as u64)
                    .uint("evicted", report.evicted as u64)
                    .uint("merges", report.merges as u64)
                    .uint("clusters", self.clusters.len() as u64)
                    .uint("templates", self.templates.len() as u64),
            );
            if let Some(updated) = updated {
                self.tracer.set_anchor(Scope::ClusterState, 0, updated);
            }
        }

        self.metrics.new_templates.add(report.new_templates as u64);
        self.metrics.reassigned.add(report.reassigned as u64);
        self.metrics.evicted.add(report.evicted as u64);
        self.metrics.merges.add(report.merges as u64);
        self.metrics.merge_pairs_scored.add(merge_stats.scored as u64);
        self.metrics.merge_rows_rescanned.add(merge_stats.rescanned_rows as u64);
        self.metrics.merge_coords_read.add(merge_stats.coords_read as u64);
        self.metrics.clusters_created.add(report.clusters_created as u64);
        self.metrics.num_clusters.set(self.clusters.len() as f64);
        self.metrics.num_templates.set(self.templates.len() as f64);
        let coords: usize = self.templates.values().map(|s| s.feature.suffix().len()).sum();
        self.metrics.feature_coords.set(coords as f64);
        report
    }

    /// Builds the step-1 lookup context from the current centers. Cosine
    /// lookups get a kd-tree over the unit-normalized centers; inverse-L2
    /// (and masked-feature) lookups fall back to scans, so no tree is built.
    fn assign_ctx(&self) -> AssignCtx {
        let tree = match self.config.metric {
            SimilarityMetric::Cosine => {
                let _build = self.metrics.kdtree_build_time.start();
                let items: Vec<(Vec<f64>, ClusterId)> = self
                    .clusters
                    .values()
                    .filter_map(|c| {
                        let n = qb_linalg::norm(&c.center);
                        (n > 0.0)
                            .then(|| (c.center.iter().map(|x| x / n).collect::<Vec<_>>(), c.id))
                    })
                    .collect();
                (!items.is_empty()).then(|| KdTree::build(items))
            }
            SimilarityMetric::InverseL2 => None,
        };
        AssignCtx { tree, fresh: Vec::new() }
    }

    /// Assigns one template to its best cluster (creating one if needed).
    /// Returns the chosen cluster and whether it was newly created.
    ///
    /// A joining member does **not** move the cluster center here — step-1
    /// lookups run against the centers frozen at the start of the step (the
    /// paper's non-recursive update), and `update` recomputes every center
    /// once the step completes. That freeze is what keeps `ctx.tree` valid
    /// across the whole step.
    fn assign(
        &mut self,
        key: TemplateKey,
        feature: TemplateFeature,
        volume: f64,
        last_seen: i64,
        ctx: &mut AssignCtx,
    ) -> (ClusterId, bool) {
        let best = self.nearest_center(&feature, ctx);
        match best {
            Some((cid, sim)) if sim > self.config.rho => {
                let cluster = self.clusters.get_mut(&cid).expect("lookup hit a live cluster");
                cluster.members.push(key);
                self.templates
                    .insert(key, TemplateState { feature, volume, last_seen, cluster: cid });
                (cid, false)
            }
            _ => {
                let cid = ClusterId(self.next_cluster);
                self.next_cluster += 1;
                self.clusters.insert(
                    cid,
                    Cluster {
                        id: cid,
                        members: vec![key],
                        center: feature.to_dense(),
                        volume,
                    },
                );
                self.templates
                    .insert(key, TemplateState { feature, volume, last_seen, cluster: cid });
                ctx.fresh.push(cid);
                (cid, true)
            }
        }
    }

    /// Emits the lineage event for one step-1 assignment, linking the
    /// member's template anchor to the cluster it landed in.
    fn trace_assign(&self, key: TemplateKey, cid: ClusterId, created: bool, reassigned: bool) {
        if !self.tracer.is_enabled() {
            return;
        }
        let template_anchor = self.tracer.anchor(Scope::Template, key);
        if created {
            let ev = self.tracer.record(
                EventDraft::new(EventKind::ClusterCreated)
                    .parent_opt(template_anchor)
                    .uint("cluster", cid.0)
                    .uint("template", key)
                    .flag("reassigned", reassigned),
            );
            if let Some(ev) = ev {
                self.tracer.set_anchor(Scope::Cluster, cid.0, ev);
            }
        } else {
            self.tracer.record(
                EventDraft::new(EventKind::ClusterAssigned)
                    .parent_opt(template_anchor)
                    .reference_opt(self.tracer.anchor(Scope::Cluster, cid.0))
                    .uint("cluster", cid.0)
                    .uint("template", key)
                    .flag("reassigned", reassigned),
            );
        }
    }

    /// Finds the most similar cluster center via the cycle's kd-tree
    /// (cosine) or a scan (inverse-L2, for which normalization does not
    /// apply). Clusters founded during the current step are not in the
    /// tree; they are scanned linearly from `ctx.fresh`.
    fn nearest_center(&self, feature: &TemplateFeature, ctx: &AssignCtx) -> Option<(ClusterId, f64)> {
        if self.clusters.is_empty() {
            return None;
        }
        match self.config.metric {
            // Masked features compare on a suffix; the kd-tree indexes
            // full vectors, so it only answers exactly for unmasked
            // features. Masked lookups fall back to a scan. A template is
            // masked until it is older than the feature window, so in a
            // deployment younger than the window every lookup scans.
            SimilarityMetric::Cosine if feature.valid_from == 0 => {
                let qn = qb_linalg::norm(feature.suffix());
                if qn == 0.0 {
                    return None;
                }
                let mut best: Option<(ClusterId, f64)> = None;
                if let Some(tree) = &ctx.tree {
                    // The query is densified: its lead is `+0.0 / qn`.
                    let mut q = vec![0.0; feature.lead()];
                    q.extend(feature.suffix().iter().map(|x| x / qn));
                    if let Some((&cid, _)) = tree.nearest(&q) {
                        let sim =
                            self.config.metric.similarity(feature, &self.clusters[&cid].center);
                        best = Some((cid, sim));
                    }
                }
                for &cid in &ctx.fresh {
                    let sim = self.config.metric.similarity(feature, &self.clusters[&cid].center);
                    if best.is_none_or(|(_, b)| sim > b) {
                        best = Some((cid, sim));
                    }
                }
                best
            }
            _ => self.scan_nearest(feature),
        }
    }

    fn scan_nearest(&self, feature: &TemplateFeature) -> Option<(ClusterId, f64)> {
        // First-max: on similarity ties the lowest cluster id wins
        // (`clusters` iterates ids ascending). `Iterator::max_by` keeps the
        // *last* maximum, which made this path resolve ties to the highest
        // id while the kd-tree path kept its first candidate — the
        // divergence the testkit reference clusterer flagged.
        let mut best: Option<(ClusterId, f64)> = None;
        for c in self.clusters.values() {
            let sim = self.config.metric.similarity(feature, &c.center);
            if best.is_none_or(|(_, b)| sim > b) {
                best = Some((c.id, sim));
            }
        }
        best
    }

    /// Recomputes a single cluster's center and volume from its members,
    /// dropping the cluster if it has none left.
    ///
    /// Each member is added from its zero lead on, and only the suffix from
    /// the smallest lead is divided: a coordinate starts at `+0.0`, and
    /// adding an exact zero to it, or dividing `+0.0` by the member count,
    /// leaves its bits as they were. The cost is O(members · (d − lead)).
    fn update_center(&mut self, cid: ClusterId) {
        let Some(cluster) = self.clusters.get_mut(&cid) else { return };
        if cluster.members.is_empty() {
            self.clusters.remove(&cid);
            return;
        }
        let dim = self.templates[&cluster.members[0]].feature.dim();
        cluster.center.clear();
        cluster.center.resize(dim, 0.0);
        cluster.volume = 0.0;
        let mut from = dim;
        for m in &cluster.members {
            let s = &self.templates[m];
            let lead = s.feature.lead().min(dim);
            for (c, v) in cluster.center[lead..].iter_mut().zip(s.feature.suffix()) {
                *c += v;
            }
            from = from.min(lead);
            cluster.volume += s.volume;
        }
        let n = cluster.members.len() as f64;
        for c in &mut cluster.center[from..] {
            *c /= n;
        }
    }

    fn recompute_centers(&mut self) {
        let ids: Vec<ClusterId> = self.clusters.keys().copied().collect();
        for cid in ids {
            self.update_center(cid);
        }
    }

    /// Merges cluster pairs whose centers exceed ρ similarity, greedily.
    ///
    /// The order of merges is a contract — cluster ids, member order and
    /// every center bit downstream depend on it:
    ///
    /// * the pair with the largest similarity above ρ merges first; among
    ///   equally similar pairs, the one with the smallest `(a, b)` in id
    ///   order (`a < b`);
    /// * the cluster with more members absorbs the other, and on equal
    ///   sizes the smaller id does (`>=`); the absorbed members are
    ///   appended in their order and the destination is re-centered;
    /// * a pair is scored as `(a, b)` in id order up front and as
    ///   `(dst, other)` after a merge — cosine as `dot / (|a|·|b|)` clamped
    ///   to [-1, 1] and 0.0 when either norm is zero, inverse-L2 as
    ///   `1 / (1 + distance)`.
    ///
    /// Between merges only the destination's center moves and only the
    /// source disappears, so a [`MergeTable`] built once per step stays
    /// equal to a full rescan: `k(k−1)/2` similarities up front, then per
    /// merge one O(k) pick over the rows' cached partners, one row of at
    /// most `k` similarities for the moved center, and a rescan of only
    /// the rows whose cached partner was the source or the destination.
    /// Each merge also re-centers its destination, which adds every member
    /// once. Every one of these passes starts at the vector's zero lead
    /// (see `update_center` and the `merge` module docs), so
    /// with `s` the longest suffix `d − lead` a pass walks, m merges over
    /// k clusters cost O((k² + m·k)·s + Σ members·s) arithmetic, where the
    /// sum runs over each merge's destination, and touch no more than
    /// that many cells otherwise; `s` reaches `d` only once some template
    /// is older than the feature window. The table (4·k² bytes of
    /// similarities plus a copy of the centers) is dropped on return.
    ///
    /// Returns `(dst, src, moved_members)` per merge, in merge order, and
    /// the step's work counts.
    fn merge_step(&mut self) -> (Vec<(ClusterId, ClusterId, usize)>, MergeStats) {
        let mut table =
            MergeTable::new(self.config.metric, self.config.rho, self.clusters.values());
        let mut merges = Vec::new();
        while let Some((a, b)) = table.pick() {
            // Absorb the smaller into the larger.
            let (dst_row, src_row) = if table.size(a) >= table.size(b) { (a, b) } else { (b, a) };
            let (dst, src) = (table.id(dst_row), table.id(src_row));
            let moved = self.clusters.remove(&src).expect("listed").members;
            for m in &moved {
                self.templates.get_mut(m).expect("member tracked").cluster = dst;
            }
            merges.push((dst, src, moved.len()));
            self.clusters.get_mut(&dst).expect("listed").members.extend(moved);
            self.update_center(dst);
            let merged = &self.clusters[&dst];
            table.absorb(dst_row, src_row, &merged.center, merged.members.len());
        }
        (merges, table.stats())
    }

    /// All clusters, unordered.
    pub fn clusters(&self) -> impl Iterator<Item = &Cluster> {
        self.clusters.values()
    }

    /// The `k` highest-volume clusters, descending (§5.3 pruning).
    pub fn largest_clusters(&self, k: usize) -> Vec<&Cluster> {
        let mut all: Vec<&Cluster> = self.clusters.values().collect();
        all.sort_by(|a, b| b.volume.total_cmp(&a.volume).then(a.id.cmp(&b.id)));
        all.truncate(k);
        all
    }

    /// Fraction of total volume covered by the `k` largest clusters
    /// (Figure 5).
    pub fn coverage_ratio(&self, k: usize) -> f64 {
        let total: f64 = self.clusters.values().map(|c| c.volume).sum();
        if total == 0.0 {
            return 0.0;
        }
        let top: f64 = self.largest_clusters(k).iter().map(|c| c.volume).sum();
        top / total
    }

    /// The cluster a template currently belongs to.
    pub fn cluster_of(&self, key: TemplateKey) -> Option<ClusterId> {
        self.templates.get(&key).map(|s| s.cluster)
    }

    /// Number of live clusters.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Number of tracked templates.
    pub fn num_templates(&self) -> usize {
        self.templates.len()
    }

    /// Exports the mutable state as plain data (durable-snapshot support),
    /// less what [`OnlineClusterer::restore`] recomputes: cluster centres
    /// and volumes. Templates and clusters are emitted in key order;
    /// member lists keep their insertion order, which step-1 assignment
    /// and every centre bit depend on.
    pub fn export_state(&self) -> ClustererState {
        ClustererState {
            templates: self
                .templates
                .iter()
                .map(|(&key, s)| TemplateRecord {
                    key,
                    feature: s.feature.clone(),
                    volume: s.volume,
                    last_seen: s.last_seen,
                    cluster: s.cluster.0,
                })
                .collect(),
            clusters: self
                .clusters
                .values()
                .map(|c| ClusterRecord { id: c.id.0, members: c.members.clone() })
                .collect(),
            next_cluster: self.next_cluster,
            seen_since_update: self.seen_since_update.iter().copied().collect(),
            unseen_since_update: self.unseen_since_update as u64,
            baseline_unseen_ratio: self.baseline_unseen_ratio,
        }
    }

    /// Rebuilds a clusterer from exported state. `config` must match the
    /// configuration of the exporting instance. Each centre and volume is
    /// recomputed from the members in order, as `update` leaves it, so it
    /// comes back bit-equal to the exporter's.
    pub fn restore(config: ClustererConfig, state: ClustererState) -> Self {
        let mut c = OnlineClusterer::new(config);
        c.templates = state
            .templates
            .into_iter()
            .map(|t| {
                (
                    t.key,
                    TemplateState {
                        feature: t.feature,
                        volume: t.volume,
                        last_seen: t.last_seen,
                        cluster: ClusterId(t.cluster),
                    },
                )
            })
            .collect();
        c.clusters = state
            .clusters
            .into_iter()
            .map(|r| {
                let id = ClusterId(r.id);
                (id, Cluster { id, members: r.members, center: Vec::new(), volume: 0.0 })
            })
            .collect();
        c.next_cluster = state.next_cluster;
        c.seen_since_update = state.seen_since_update.into_iter().collect();
        c.unseen_since_update = state.unseen_since_update as usize;
        c.baseline_unseen_ratio = state.baseline_unseen_ratio;
        c.recompute_centers();
        c
    }
}

/// Plain-data snapshot of one tracked template.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateRecord {
    pub key: TemplateKey,
    pub feature: TemplateFeature,
    pub volume: f64,
    pub last_seen: i64,
    pub cluster: u64,
}

/// Plain-data snapshot of one cluster. Its centre and volume are not
/// part of it: [`OnlineClusterer::restore`] recomputes them from the
/// members.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterRecord {
    pub id: u64,
    /// Members in insertion order (assignment tie-breaking depends on it).
    pub members: Vec<TemplateKey>,
}

/// Plain-data snapshot of an [`OnlineClusterer`] (durable-state export).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClustererState {
    /// Tracked templates in key order.
    pub templates: Vec<TemplateRecord>,
    /// Live clusters in id order.
    pub clusters: Vec<ClusterRecord>,
    pub next_cluster: u64,
    /// Distinct keys observed since the last update, ascending.
    pub seen_since_update: Vec<TemplateKey>,
    pub unseen_since_update: u64,
    pub baseline_unseen_ratio: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feat(values: &[f64]) -> TemplateFeature {
        TemplateFeature::full(values.to_vec())
    }

    fn snap(key: TemplateKey, values: &[f64], volume: f64) -> TemplateSnapshot {
        TemplateSnapshot { key, feature: feat(values), volume, last_seen: 0 }
    }

    fn clusterer() -> OnlineClusterer {
        OnlineClusterer::new(ClustererConfig::default())
    }

    #[test]
    fn observe_batch_matches_per_key_observation() {
        let mut per_key = clusterer();
        let mut batched = clusterer();
        // Ten known templates, then a tick mixing knowns and unknowns.
        let known: Vec<TemplateSnapshot> =
            (0..10).map(|k| snap(k, &[1.0, 2.0, 3.0], 1.0)).collect();
        per_key.update(known.clone(), 0);
        batched.update(known, 0);

        let tick: Vec<TemplateKey> = (5..25).chain(5..25).collect();
        let mut last = false;
        for &k in &tick {
            last = per_key.observe(k);
        }
        let decision = batched.observe_batch(&tick);
        assert_eq!(decision, last, "batched trigger matches the last per-key decision");
        assert!(decision, "15 unseen of 20 distinct crosses the default trigger");

        // The post-tick state is identical: both fold the same churn into
        // the adaptive baseline on the next update.
        per_key.update(Vec::new(), 1);
        batched.update(Vec::new(), 1);
        assert_eq!(per_key.effective_trigger(), batched.effective_trigger());
    }

    #[test]
    fn first_template_creates_cluster() {
        let mut c = clusterer();
        let r = c.update(vec![snap(1, &[1.0, 2.0, 3.0], 10.0)], 0);
        assert_eq!(r.new_templates, 1);
        assert_eq!(r.clusters_created, 1);
        assert_eq!(c.num_clusters(), 1);
    }

    #[test]
    fn similar_patterns_share_cluster() {
        let mut c = clusterer();
        // Same shape, different scale: cosine similarity 1.0.
        c.update(
            vec![snap(1, &[1.0, 2.0, 3.0, 4.0], 1.0), snap(2, &[10.0, 20.0, 30.0, 40.0], 1.0)],
            0,
        );
        assert_eq!(c.num_clusters(), 1);
        assert_eq!(c.cluster_of(1), c.cluster_of(2));
    }

    #[test]
    fn dissimilar_patterns_split() {
        let mut c = clusterer();
        c.update(vec![snap(1, &[1.0, 0.0, 0.0], 1.0), snap(2, &[0.0, 0.0, 1.0], 1.0)], 0);
        assert_eq!(c.num_clusters(), 2);
        assert_ne!(c.cluster_of(1), c.cluster_of(2));
    }

    #[test]
    fn center_is_arithmetic_mean() {
        let mut c = clusterer();
        c.update(vec![snap(1, &[2.0, 4.0], 1.0), snap(2, &[4.0, 8.0], 1.0)], 0);
        let clusters: Vec<&Cluster> = c.clusters().collect();
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].center, vec![3.0, 6.0]);
    }

    #[test]
    fn membership_similarity_invariant_holds() {
        // After an update, every member of a multi-member cluster is within
        // ρ of its center (the §5.2 guarantee).
        let mut c = clusterer();
        let snaps: Vec<TemplateSnapshot> = (0..20)
            .map(|i| {
                let phase = (i % 4) as f64;
                let values: Vec<f64> =
                    (0..24).map(|h| ((h as f64 + phase) * 0.3).sin().max(0.0) + 0.1).collect();
                snap(i, &values, 1.0)
            })
            .collect();
        c.update(snaps, 0);
        // Run a second cycle so step 2 has had a chance to settle.
        let snaps2: Vec<TemplateSnapshot> = (0..20)
            .map(|i| {
                let phase = (i % 4) as f64;
                let values: Vec<f64> =
                    (0..24).map(|h| ((h as f64 + phase) * 0.3).sin().max(0.0) + 0.1).collect();
                snap(i, &values, 1.0)
            })
            .collect();
        c.update(snaps2, 0);
        for cluster in c.clusters() {
            if cluster.members.len() < 2 {
                continue;
            }
            for &m in &cluster.members {
                let sim =
                    SimilarityMetric::Cosine.similarity(&c.templates[&m].feature, &cluster.center);
                assert!(sim > 0.8, "member {m} sim {sim} below rho");
            }
        }
    }

    #[test]
    fn eviction_removes_idle_templates() {
        let mut c = clusterer();
        c.update(vec![snap(1, &[1.0, 2.0], 5.0)], 0);
        assert_eq!(c.num_templates(), 1);
        // Idle exactly the eviction window: still held.
        assert_eq!(c.update(vec![], EVICTION_IDLE).evicted, 0);
        let r = c.update(vec![], 10 * EVICTION_IDLE);
        assert_eq!(r.evicted, 1);
        assert_eq!(c.num_templates(), 0);
        assert_eq!(c.num_clusters(), 0);
    }

    #[test]
    fn evicted_template_stays_evicted() {
        let mut c = clusterer();
        // Template 2 last arrived at minute 0 and stays quiet.
        let quiet = || snap(2, &[2.0, 1.0], 5.0);
        let busy = |now| TemplateSnapshot { last_seen: now, ..snap(1, &[1.0, 2.0], 5.0) };
        c.update(vec![busy(0), quiet()], 0);
        let now = EVICTION_IDLE + 60;
        assert_eq!(c.update(vec![busy(now), quiet()], now).evicted, 1);
        // Handed over again with its old `last_seen`, it stays out.
        let later = now + 60;
        let r = c.update(vec![busy(later), quiet()], later);
        assert_eq!((r.new_templates, r.evicted, r.clusters_created), (0, 0, 0));
        assert_eq!(c.cluster_of(2), None);
        assert_eq!(c.num_templates(), 1);
        // A fresh arrival re-admits it as new.
        let back = TemplateSnapshot { last_seen: later, ..snap(2, &[2.0, 1.0], 5.0) };
        assert_eq!(c.update(vec![back], later).new_templates, 1);
        assert!(c.cluster_of(2).is_some());
    }

    #[test]
    fn merge_combines_converged_clusters() {
        let mut c = clusterer();
        // Two templates created in different updates far apart, then drift
        // to the same pattern.
        c.update(vec![snap(1, &[1.0, 0.0, 0.0, 0.1], 1.0)], 0);
        c.update(vec![snap(2, &[0.0, 0.0, 1.0, 0.1], 1.0)], 0);
        assert_eq!(c.num_clusters(), 2);
        // Both now share one pattern.
        let r = c.update(
            vec![
                TemplateSnapshot { key: 1, feature: feat(&[1.0, 1.0, 1.0, 1.0]), volume: 1.0, last_seen: 0 },
                TemplateSnapshot { key: 2, feature: feat(&[2.0, 2.0, 2.0, 2.0]), volume: 1.0, last_seen: 0 },
            ],
            0,
        );
        assert_eq!(c.num_clusters(), 1, "report: {r:?}");
    }

    #[test]
    fn volume_pruning_orders_clusters() {
        let mut c = clusterer();
        c.update(
            vec![
                snap(1, &[1.0, 0.0, 0.0], 100.0),
                snap(2, &[0.0, 1.0, 0.0], 500.0),
                snap(3, &[0.0, 0.0, 1.0], 10.0),
            ],
            0,
        );
        let top = c.largest_clusters(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].volume, 500.0);
        assert_eq!(top[1].volume, 100.0);
        let cov = c.coverage_ratio(2);
        assert!((cov - 600.0 / 610.0).abs() < 1e-12);
    }

    #[test]
    fn observe_triggers_on_unseen_ratio() {
        let mut c = clusterer();
        c.update(vec![snap(1, &[1.0, 1.0], 1.0)], 0);
        // Mostly-known observations: no trigger.
        let mut triggered = false;
        for _ in 0..20 {
            triggered |= c.observe(1);
        }
        assert!(!triggered);
        // Burst of unseen templates: trigger fires.
        let mut fired = false;
        for k in 100..120 {
            fired |= c.observe(k);
        }
        assert!(fired);
    }

    #[test]
    fn reassignment_when_pattern_drifts() {
        let mut c = clusterer();
        c.update(
            vec![snap(1, &[1.0, 1.0, 0.0, 0.0], 1.0), snap(2, &[1.0, 1.0, 0.1, 0.0], 1.0)],
            0,
        );
        assert_eq!(c.num_clusters(), 1);
        // Template 2's pattern flips to the opposite shape.
        let r = c.update(
            vec![snap(1, &[1.0, 1.0, 0.0, 0.0], 1.0), snap(2, &[0.0, 0.0, 1.0, 1.0], 1.0)],
            0,
        );
        assert_eq!(c.num_clusters(), 2, "{r:?}");
        assert_ne!(c.cluster_of(1), c.cluster_of(2));
    }

    #[test]
    fn inverse_l2_metric_clusters_logical_features() {
        let cfg = ClustererConfig {
            metric: SimilarityMetric::InverseL2,
            rho: 0.5, // similarity 1/(1+d) > 0.5 ⇔ distance < 1
            ..ClustererConfig::default()
        };
        let mut c = OnlineClusterer::new(cfg);
        c.update(
            vec![
                snap(1, &[1.0, 0.0, 3.0], 1.0),
                snap(2, &[1.0, 0.5, 3.0], 1.0),  // distance 0.5 from #1
                snap(3, &[9.0, 9.0, 9.0], 1.0), // far away
            ],
            0,
        );
        assert_eq!(c.cluster_of(1), c.cluster_of(2));
        assert_ne!(c.cluster_of(1), c.cluster_of(3));
    }

    #[test]
    #[should_panic(expected = "rho must be in [0, 1]")]
    fn invalid_rho_panics() {
        OnlineClusterer::new(ClustererConfig { rho: 1.5, ..ClustererConfig::default() });
    }

    /// Regression: the unseen ratio is over *distinct* templates. A hot
    /// template observed hundreds of times used to inflate the denominator
    /// and mask a burst of genuinely new templates.
    #[test]
    fn hot_template_cannot_mask_unseen_burst() {
        let mut c = clusterer();
        c.update(vec![snap(1, &[1.0, 1.0], 1.0)], 0);
        for _ in 0..500 {
            assert!(!c.observe(1), "a known hot template alone must not fire");
        }
        // Nine genuinely new templates arrive: 9 of 10 distinct keys are
        // unseen, far above the 0.2 trigger. The 500 repeats must not
        // drown them out.
        let mut fired = false;
        for k in 100..109 {
            fired |= c.observe(k);
        }
        assert!(fired, "unseen burst was masked by repeat observations");
    }

    /// Regression: clusters founded *during* a step must be visible to
    /// later lookups in the same step even though they are not in the
    /// cycle's kd-tree (the fresh-cluster scan).
    #[test]
    fn template_joins_cluster_founded_same_step() {
        let mut c = clusterer();
        // a ⊥ b; c is parallel to b. All arrive in one update, so b's
        // cluster exists only in `ctx.fresh` when c is assigned.
        let r = c.update(
            vec![
                snap(1, &[1.0, 0.0, 0.0], 1.0),
                snap(2, &[0.0, 1.0, 0.0], 1.0),
                snap(3, &[0.0, 2.0, 0.0], 1.0),
            ],
            0,
        );
        assert_eq!(r.clusters_created, 2, "{r:?}");
        assert_eq!(c.cluster_of(2), c.cluster_of(3));
        assert_ne!(c.cluster_of(1), c.cluster_of(2));
    }

    /// Regression: `scan_nearest` must resolve similarity ties to the
    /// lowest cluster id, matching the kd-tree path. `Iterator::max_by`
    /// keeps the *last* maximum, so a template equidistant from two
    /// centers used to join the higher-id cluster.
    #[test]
    fn scan_nearest_tie_breaks_to_lowest_id() {
        let cfg = ClustererConfig {
            metric: SimilarityMetric::InverseL2,
            rho: 0.4, // 1/(1+d) > 0.4 ⇔ d < 1.5
            ..ClustererConfig::default()
        };
        let mut c = OnlineClusterer::new(cfg);
        // Two singleton clusters 2.0 apart (sim 1/3: no merge).
        c.update(vec![snap(1, &[0.0, 0.0], 1.0)], 0);
        c.update(vec![snap(2, &[2.0, 0.0], 1.0)], 0);
        assert_eq!(c.num_clusters(), 2);
        // A template exactly midway is within ρ of both centers (sim 0.5
        // each): the tie must go to the older (lower-id) cluster.
        c.update(
            vec![
                snap(1, &[0.0, 0.0], 1.0),
                snap(2, &[2.0, 0.0], 1.0),
                snap(3, &[1.0, 0.0], 1.0),
            ],
            0,
        );
        assert_eq!(c.cluster_of(3), c.cluster_of(1), "tie must favor the lowest cluster id");
    }

    #[test]
    fn state_round_trip_continues_identically() {
        // Inverse-L2 at ρ = 0.5 joins and merges below distance 1.
        for (metric, rho) in [(SimilarityMetric::Cosine, 0.8), (SimilarityMetric::InverseL2, 0.5)] {
            let config = ClustererConfig { rho, metric, adaptive_trigger: true };
            // Clusters built by merges, an eviction and features with a
            // zero lead; then churn baseline and mid-period observations.
            let (mut live, _, report) = after_mixed_update(config.clone());
            assert!(report.merges > 0 && report.evicted > 0, "{metric:?}: {report:?}");
            assert!(live.templates.values().any(|s| s.feature.lead() > 0));
            for k in [1, 2, 3, 40, 41] {
                live.observe(k);
            }
            let exported = live.export_state();
            let mut restored = OnlineClusterer::restore(config.clone(), exported.clone());
            // Recomputed, not stored: every centre and volume comes back
            // bit-equal before any update.
            assert_eq!(center_bits(&restored), center_bits(&live), "{metric:?}");
            assert_eq!(restored.export_state(), exported, "restore must be lossless");
            assert_eq!(restored.num_clusters(), live.num_clusters());
            assert_eq!(restored.num_templates(), live.num_templates());
            assert_eq!(restored.effective_trigger(), live.effective_trigger());

            // Identical behavior from here on: same trigger decisions, same
            // update reports, same resulting state.
            for k in 50..80 {
                assert_eq!(live.observe(k), restored.observe(k));
            }
            let now = 10 * EVICTION_IDLE + 60;
            let snaps = || {
                vec![
                    snap(1, &[1.0, 2.0, 0.0, 0.0, 0.0, 0.1], 5.0),
                    snap(2, &[0.0, 1.0, 0.0, 0.0, 0.0, 0.0], 3.0),
                    snap(11, &[0.0, 0.0, 5.0, 1.1, 0.0, 0.0], 2.0),
                    snap(60, &[0.0, 0.0, 0.0, 0.5, 0.5, 0.5], 1.0),
                ]
                .into_iter()
                .map(|s| TemplateSnapshot { last_seen: now, ..s })
                .collect()
            };
            let ra = live.update(snaps(), now);
            let rb = restored.update(snaps(), now);
            assert_eq!(ra, rb);
            assert_eq!(live.export_state(), restored.export_state());
            assert_eq!(center_bits(&restored), center_bits(&live));
        }
    }

    #[test]
    fn recorder_captures_cycle_metrics() {
        let rec = Recorder::new();
        let mut c = clusterer();
        c.set_recorder(&rec);
        c.update(vec![snap(1, &[1.0, 0.0], 1.0), snap(2, &[0.0, 1.0], 1.0)], 0);
        let s = rec.snapshot();
        assert_eq!(s.counters["clusterer.new_templates"], 2);
        assert_eq!(s.counters["clusterer.clusters_created"], 2);
        assert_eq!(s.counters["clusterer.merges"], 0);
        assert_eq!(s.counters["clusterer.merge_pairs_scored"], 1);
        assert_eq!(s.counters["clusterer.merge_rows_rescanned"], 0);
        assert_eq!(s.gauges["clusterer.num_clusters"], 2.0);
        assert_eq!(s.gauges["clusterer.num_templates"], 2.0);
        assert_eq!(s.histograms["clusterer.update"].count, 1);
        assert_eq!(s.histograms["clusterer.kdtree_build"].count, 1);
        assert_eq!(s.histograms["clusterer.assign"].count, 1);
        assert_eq!(s.histograms["clusterer.merge"].count, 1);
    }

    #[test]
    fn tracer_captures_cluster_churn_lineage() {
        let tracer = Tracer::enabled();
        let mut c = clusterer();
        c.set_tracer(&tracer);
        // Two orthogonal singletons, then one joins an existing cluster.
        c.update(vec![snap(1, &[1.0, 0.0, 0.0], 1.0), snap(2, &[0.0, 1.0, 0.0], 1.0)], 0);
        c.update(
            vec![
                snap(1, &[1.0, 0.0, 0.0], 1.0),
                snap(2, &[0.0, 1.0, 0.0], 1.0),
                snap(3, &[2.0, 0.0, 0.0], 1.0),
            ],
            0,
        );
        let view = tracer.view();
        assert_eq!(view.of_kind(EventKind::ClusterCreated).count(), 2);
        assert_eq!(view.of_kind(EventKind::ClusterAssigned).count(), 1);
        assert_eq!(view.of_kind(EventKind::ClustersUpdated).count(), 2);
        assert_eq!(view.of_kind(EventKind::StageSpan).count(), 2);
        // The assignment links back to the founding cluster event.
        let assigned = view.latest(EventKind::ClusterAssigned).unwrap();
        let founding = tracer.anchor(Scope::Cluster, 0).unwrap();
        assert!(assigned.refs.contains(&founding));
        assert!(tracer.anchor(Scope::ClusterState, 0).is_some());
    }

    #[test]
    fn tracer_captures_merges_and_evictions() {
        let tracer = Tracer::enabled();
        let mut c = clusterer();
        c.set_tracer(&tracer);
        c.update(vec![snap(1, &[1.0, 0.0, 0.0, 0.1], 1.0)], 0);
        c.update(vec![snap(2, &[0.0, 0.0, 1.0, 0.1], 1.0)], 0);
        // Drift to one pattern: the clusters merge.
        c.update(
            vec![
                TemplateSnapshot { key: 1, feature: feat(&[1.0, 1.0, 1.0, 1.0]), volume: 1.0, last_seen: 0 },
                TemplateSnapshot { key: 2, feature: feat(&[2.0, 2.0, 2.0, 2.0]), volume: 1.0, last_seen: 0 },
            ],
            0,
        );
        // Then both go idle long enough to evict.
        c.update(vec![], 10 * EVICTION_IDLE);
        let view = tracer.view();
        assert_eq!(view.of_kind(EventKind::ClusterMerged).count(), 1);
        assert_eq!(view.of_kind(EventKind::ClusterEvicted).count(), 2);
        let merged = view.latest(EventKind::ClusterMerged).unwrap().id;
        // Both merged ids now anchor to the merge event.
        assert_eq!(tracer.anchor(Scope::Cluster, 0), Some(merged));
        assert_eq!(tracer.anchor(Scope::Cluster, 1), Some(merged));
    }

    /// Centre and volume bits of every cluster, in id order.
    fn center_bits(c: &OnlineClusterer) -> Vec<(ClusterId, Vec<u64>, u64)> {
        c.clusters()
            .map(|k| (k.id, k.center.iter().map(|x| x.to_bits()).collect(), k.volume.to_bits()))
            .collect()
    }

    /// A clusterer under `config` after four founding cycles and one mixed
    /// cycle that evicts, reassigns, admits and merges, with that cycle's
    /// report and the number of clusters the founding cycles left. Most
    /// features have a zero lead.
    fn after_mixed_update(config: ClustererConfig) -> (OnlineClusterer, usize, UpdateReport) {
        let mut c = OnlineClusterer::new(config);
        let now = 10 * EVICTION_IDLE;
        let at = |key, values: &[f64], volume, last_seen| TemplateSnapshot {
            key,
            feature: feat(values),
            volume,
            last_seen,
        };
        // One update per pattern so each founds its own cluster: A = {1,
        // 2, 3, 4, 9}, B = {11, 12}, and the singletons 5 and 6.
        for round in [
            vec![
                at(1, &[1.0, 2.0, 0.0, 0.0, 0.0, 0.0], 3.0, 0),
                at(2, &[2.0, 4.1, 0.0, 0.0, 0.0, 0.0], 5.0, 0),
                at(3, &[1.0, 2.2, 0.0, 0.0, 0.0, 0.0], 7.0, 0),
                at(4, &[3.0, 6.0, 0.1, 0.0, 0.0, 0.0], 11.0, 0),
                at(9, &[1.2, 2.4, 0.0, 0.0, 0.0, 0.0], 2.0, 0),
            ],
            vec![
                at(11, &[0.0, 0.0, 5.0, 1.0, 0.0, 0.0], 4.0, 0),
                at(12, &[0.0, 0.0, 4.0, 1.0, 0.0, 0.0], 6.0, 0),
            ],
            vec![at(5, &[0.0, 0.0, 0.0, 0.0, 1.0, 0.0], 13.0, 0)],
            vec![at(6, &[0.0, 0.0, 0.0, 0.0, 0.0, 1.0], 17.0, 0)],
        ] {
            c.update(round, 0);
        }
        let founded = c.num_clusters();
        // Template 4 sends no snapshot and ages out of A; 3 flips shape,
        // leaving A (which gains nothing) for 5's cluster; 5 and 6 converge
        // and merge; 7 joins B, which is otherwise untouched; 8 founds a
        // cluster (so it goes under the cosine metric).
        let r = c.update(
            vec![
                at(1, &[1.0, 2.0, 0.0, 0.0, 0.0, 0.3], 3.5, now - 1),
                at(2, &[2.0, 4.1, 0.2, 0.0, 0.0, 0.0], 5.5, now - 1),
                at(3, &[0.0, 0.1, 0.0, 0.0, 2.0, 2.0], 7.5, now - 1),
                at(9, &[1.2, 2.4, 0.0, 0.0, 0.0, 0.0], 2.5, now - 1),
                at(11, &[0.0, 0.0, 5.0, 1.0, 0.0, 0.0], 4.5, now - 1),
                at(12, &[0.0, 0.0, 4.0, 1.0, 0.1, 0.0], 6.5, now - 1),
                at(5, &[0.0, 0.0, 0.0, 0.0, 1.0, 1.1], 13.5, now - 1),
                at(6, &[0.0, 0.0, 0.0, 0.0, 1.2, 1.0], 17.5, now - 1),
                at(7, &[0.0, 0.0, 2.5, 0.6, 0.0, 0.0], 19.0, now - 1),
                at(8, &[9.0, 0.0, 0.0, 0.0, 0.0, 0.0], 23.0, now - 1),
            ],
            now,
        );
        (c, founded, r)
    }

    /// Only clusters whose membership changed get a fresh center after the
    /// post-refresh pass. One cycle that evicts, reassigns, admits and
    /// merges must still leave every center and volume bit-equal to the
    /// mean computed from scratch over the members in order.
    #[test]
    fn centers_match_from_scratch_mean_after_mixed_update() {
        let (c, founded, r) = after_mixed_update(ClustererConfig::default());
        assert_eq!(founded, 4);
        assert_eq!(
            r,
            UpdateReport {
                new_templates: 2,
                reassigned: 1,
                evicted: 1,
                merges: 1,
                clusters_created: 1
            }
        );
        assert_eq!(c.cluster_of(7), c.cluster_of(11));
        assert_eq!(c.cluster_of(3), c.cluster_of(5));
        assert_eq!(c.cluster_of(5), c.cluster_of(6));
        for cluster in c.clusters() {
            let n = cluster.members.len() as f64;
            let mut center = vec![0.0; 6];
            let mut volume = 0.0;
            for m in &cluster.members {
                let s = &c.templates[m];
                center.iter_mut().zip(s.feature.to_dense()).for_each(|(c, v)| *c += v);
                volume += s.volume;
            }
            center.iter_mut().for_each(|c| *c /= n);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&cluster.center), bits(&center), "center of {:?}", cluster.id);
            assert_eq!(cluster.volume.to_bits(), volume.to_bits(), "volume of {:?}", cluster.id);
        }
    }

    /// Regression for the incremental merge table: after a merge, rows
    /// involving the merged pair must be refreshed from the *moved*
    /// destination center. A stale (b, c) entry here would chain a second
    /// merge that a full rescan would not perform.
    #[test]
    fn merge_table_refreshes_moved_center() {
        let mut c = clusterer();
        // Three singleton clusters created in separate updates (mutually
        // orthogonal at creation, so no step-1 co-assignment).
        c.update(vec![snap(1, &[1.0, 0.0, 0.0, 0.0], 1.0)], 0);
        c.update(vec![snap(2, &[0.0, 1.0, 0.0, 0.0], 1.0)], 0);
        c.update(vec![snap(3, &[0.0, 0.0, 1.0, 0.0], 1.0)], 0);
        assert_eq!(c.num_clusters(), 3);
        // Drift to unit vectors at 0°, 35° and 70°: cos 35° ≈ 0.8192
        // exceeds ρ for (a, b) and (b, c), but once a and b merge, the
        // combined center sits at 17.5° — cos 52.5° ≈ 0.61 from c, so the
        // old (b, c) similarity must NOT trigger a second merge.
        let r = c.update(
            vec![
                snap(1, &[1.0, 0.0, 0.0, 0.0], 1.0),
                snap(2, &[0.8192, 0.5736, 0.0, 0.0], 1.0),
                snap(3, &[0.3420, 0.9397, 0.0, 0.0], 1.0),
            ],
            0,
        );
        assert_eq!(r.merges, 1, "{r:?}");
        assert_eq!(c.num_clusters(), 2);
        assert_eq!(c.cluster_of(1), c.cluster_of(2));
        assert_ne!(c.cluster_of(1), c.cluster_of(3));
    }
}

#[cfg(test)]
mod adaptive_trigger_tests {
    use super::*;

    fn feat(values: &[f64]) -> TemplateFeature {
        TemplateFeature::full(values.to_vec())
    }

    fn snap(key: TemplateKey) -> TemplateSnapshot {
        TemplateSnapshot { key, feature: feat(&[1.0, 2.0]), volume: 1.0, last_seen: 0 }
    }

    /// Simulates periods of observations with a given churn ratio and
    /// returns how many triggers fired.
    fn run_periods(
        cl: &mut OnlineClusterer,
        periods: usize,
        per_period: usize,
        churn: f64,
        key_base: &mut u64,
    ) -> usize {
        let mut fires = 0;
        for _ in 0..periods {
            let mut fresh = 0;
            // Register the period's population with new templates evenly
            // interleaved among known ones (as in a real stream).
            for i in 0..per_period {
                let is_new = (((i + 1) as f64) * churn).floor() > ((i as f64) * churn).floor();
                let key = if is_new {
                    *key_base += 1;
                    fresh += 1;
                    1_000_000 + *key_base
                } else {
                    i as u64
                };
                if cl.observe(key) {
                    fires += 1;
                }
            }
            // Periodic update absorbs the new keys and learns the baseline.
            let mut snaps: Vec<TemplateSnapshot> =
                (0..per_period - fresh).map(|i| snap(i as u64)).collect();
            for j in 0..fresh {
                snaps.push(snap(1_000_000 + *key_base - j as u64));
            }
            cl.update(snaps, 0);
        }
        fires
    }

    #[test]
    fn fixed_trigger_fires_constantly_on_churny_workload() {
        let mut cl = OnlineClusterer::new(ClustererConfig::default());
        let mut kb = 0;
        // 40% steady churn: the fixed 0.2 threshold fires every period.
        let fires = run_periods(&mut cl, 6, 40, 0.4, &mut kb);
        assert!(fires >= 6, "expected constant firing, got {fires}");
    }

    #[test]
    fn adaptive_trigger_learns_baseline_churn_but_fires_on_phase_switch() {
        let mut cl = OnlineClusterer::new(ClustererConfig {
            adaptive_trigger: true,
            ..ClustererConfig::default()
        });
        let mut kb = 0;
        // Warm-up periods teach the baseline (40% churn is normal here).
        run_periods(&mut cl, 6, 40, 0.4, &mut kb);
        assert!(
            cl.effective_trigger() > 0.8,
            "baseline should have risen: {}",
            cl.effective_trigger()
        );
        // Steady churn no longer fires...
        let steady_fires = run_periods(&mut cl, 3, 40, 0.4, &mut kb);
        assert_eq!(steady_fires, 0, "steady churn must not fire adaptively");
        // ...but a full template swap (phase switch) still does.
        let mut fired = false;
        for i in 0..40 {
            fired |= cl.observe(2_000_000 + i);
        }
        assert!(fired, "a 100% unseen burst must fire even adaptively");
    }

    #[test]
    fn adaptive_floor_is_configured_trigger() {
        let cl = OnlineClusterer::new(ClustererConfig {
            adaptive_trigger: true,
            ..ClustererConfig::default()
        });
        // With no learned baseline the margin (0.1) is below the floor, so
        // the effective trigger is the fixed one.
        assert_eq!(cl.effective_trigger(), NEW_TEMPLATE_TRIGGER);
    }
}
