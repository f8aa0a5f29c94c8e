//! Pipeline-side forecast serving: publication points, metrics, and trace
//! lineage over the zero-dep `qb-serve` swap.
//!
//! [`ForecastService`] wraps a [`qb_serve::ForecastServer`] with the
//! pipeline's observability contract: every publication is timed into the
//! `serve.publish` histogram, mirrored onto the `serve.epoch` /
//! `serve.readers` gauges (so serving staleness shows up in any
//! [`qb_obs::MetricsSnapshot`] rendering), and traced as a
//! [`EventKind::SnapshotPublished`] event parented on the fits that
//! produced the published curves.
//!
//! Wiring: hand a service to
//! [`Qb5000Config::builder().serve(...)`](crate::Qb5000ConfigBuilder::serve)
//! (or [`ControllerConfig::builder().pipeline(...)`](crate::ControllerConfigBuilder::pipeline))
//! and keep a clone for [`ForecastService::reader`] handles. The pipeline
//! then publishes at three points: cluster updates (membership patches),
//! [`crate::ForecastManager::ensure_trained`] retrains (per-horizon curve
//! patches with structural sharing), and controller build rounds (the
//! blended per-round forecasts).

use std::sync::Arc;

use qb_obs::Recorder;
use qb_serve::{
    ColdStartForecast, ColdStartOrigin, Curve, ForecastReader, ForecastServer, ForecastSnapshot,
    HorizonMeta, Membership, ServeHealth,
};
use qb_timeseries::Minute;
use qb_trace::{EventDraft, EventId, EventKind, Scope, Tracer};

use crate::manager::HorizonSpec;
use crate::pipeline::ClusterInfo;

/// A seeded forecast for a template the tracked-cluster routing does not
/// yet cover — the cold-start path's publication unit. `values` pairs
/// `(slot, predicted rate)` for the horizon slots the seed covers;
/// [`ForecastService::publish_forecasts_with_cold`] turns each pair into
/// the same single-bucket curve shape as the warm per-cluster forecasts.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdSeed {
    /// Template the seed stands in for.
    pub template: u32,
    /// Where the estimate came from (cluster-rate share or population prior).
    pub origin: ColdStartOrigin,
    /// `(slot, predicted rate)` pairs; slots outside the service's horizon
    /// list are ignored.
    pub values: Vec<(usize, f64)>,
}

/// The pipeline-facing handle over the serving layer.
///
/// Cloning shares the underlying swap slot and epoch sequence; the
/// pipeline keeps one clone per publication point and the caller keeps
/// one for creating readers. Observability handles are installed when the
/// service is wired into a pipeline (mirroring every other stage), so
/// publications from inside the pipeline land on the pipeline's recorder.
#[derive(Debug, Clone)]
pub struct ForecastService {
    server: ForecastServer,
    /// Currently served epoch (`serve.epoch`).
    epoch_gauge: qb_obs::Gauge,
    /// Live reader handles (`serve.readers`).
    readers_gauge: qb_obs::Gauge,
    /// Wall time per publication (`serve.publish`).
    publish_time: qb_obs::Histogram,
    /// Cold-start entries in the latest published snapshot
    /// (`serve.cold_starts`).
    cold_gauge: qb_obs::Gauge,
    tracer: Tracer,
}

impl ForecastService {
    /// A service whose horizon slots mirror `specs` — pair with a
    /// [`crate::ForecastManager`] built from the same list.
    pub fn for_specs(specs: &[HorizonSpec]) -> Self {
        Self::with_horizons(
            specs
                .iter()
                .map(|s| HorizonMeta {
                    interval_minutes: s.interval.as_minutes(),
                    window: s.window,
                    horizon: s.horizon,
                })
                .collect(),
        )
    }

    /// A service with one hourly slot per horizon (24-step window, the
    /// shape of [`HorizonSpec::hourly`]). Pair with
    /// [`crate::FORECAST_BLEND`] hours to serve the controller's forecasts.
    pub fn hourly(horizon_hours: &[usize]) -> Self {
        Self::with_horizons(
            horizon_hours
                .iter()
                .map(|&h| HorizonMeta { interval_minutes: 60, window: 24, horizon: h })
                .collect(),
        )
    }

    /// A service with explicit horizon slots.
    pub fn with_horizons(horizons: Vec<HorizonMeta>) -> Self {
        Self {
            server: ForecastServer::new(horizons),
            epoch_gauge: qb_obs::Gauge::default(),
            readers_gauge: qb_obs::Gauge::default(),
            publish_time: qb_obs::Histogram::default(),
            cold_gauge: qb_obs::Gauge::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Installs the pipeline's [`Recorder`]: publications then maintain
    /// the `serve.epoch` / `serve.readers` gauges and the `serve.publish`
    /// latency histogram. Called by the pipeline at assembly, like every
    /// other stage's `set_recorder`.
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.epoch_gauge = recorder.gauge("serve.epoch");
        self.readers_gauge = recorder.gauge("serve.readers");
        self.publish_time = recorder.histogram("serve.publish");
        self.cold_gauge = recorder.gauge("serve.cold_starts");
    }

    /// Installs the pipeline's [`Tracer`] so each publication records a
    /// [`EventKind::SnapshotPublished`] event with lineage to the fits
    /// that produced it.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
    }

    /// A new reader over this service's snapshots; its steady-state reads
    /// take no lock. Cheap; clone one per consumer thread.
    pub fn reader(&self) -> ForecastReader {
        self.readers_gauge.set(self.server.reader_count() as f64 + 1.0);
        self.server.reader()
    }

    /// The currently served epoch (0 until the first publication).
    pub fn epoch(&self) -> u64 {
        self.server.epoch()
    }

    /// The current snapshot (publisher-side view; readers should hold
    /// their own [`ForecastReader`]).
    pub fn snapshot(&self) -> Arc<ForecastSnapshot> {
        self.server.current()
    }

    /// The horizon slots this service serves.
    pub fn horizons(&self) -> Vec<HorizonMeta> {
        self.server.current().horizons.to_vec()
    }

    /// The slot index serving `spec`'s shape, if the service carries one.
    pub fn slot_for(&self, spec: &HorizonSpec) -> Option<usize> {
        self.server.current().horizons.iter().position(|m| {
            m.interval_minutes == spec.interval.as_minutes()
                && m.window == spec.window
                && m.horizon == spec.horizon
        })
    }

    /// Publishes a membership-only patch: the tracked-cluster set changed
    /// (a cluster update ran) but no new fits exist yet. Entries whose
    /// identity, volume, and members are unchanged are shared with the
    /// previous snapshot by `Arc`; entries whose membership changed drop
    /// their stale curves. Returns the new epoch.
    pub fn publish_membership(&self, now: Minute, clusters: &[ClusterInfo]) -> u64 {
        let members = memberships(clusters);
        self.publish_traced("membership", &[], |current, _epoch| {
            current.rebuild().built_at(now).set_membership(&members)
        })
    }

    /// Publishes fresh per-horizon forecasts: reconciles membership to
    /// `clusters`, then installs one single-bucket curve per (cluster,
    /// slot) from `predictions` — `(slot, per-cluster predicted rates)`
    /// pairs aligned with `clusters`. `parents` link the trace event to
    /// the fits that produced the curves. Returns the new epoch.
    pub fn publish_forecasts(
        &self,
        now: Minute,
        clusters: &[ClusterInfo],
        predictions: &[(usize, Vec<f64>)],
        health: Option<ServeHealth>,
        parents: &[EventId],
    ) -> u64 {
        self.publish_forecasts_with_cold(now, clusters, predictions, &[], health, parents)
    }

    /// [`ForecastService::publish_forecasts`] plus cold-start seeds: each
    /// [`ColdSeed`] becomes a [`ColdStartForecast`] entry with the same
    /// single-bucket curve shape as the warm forecasts, served to readers
    /// whose template the routing index does not cover. Each seed is
    /// traced as a [`EventKind::TemplateColdStart`] event parented on the
    /// template's cluster-assignment anchor (cluster-share seeds) so the
    /// estimate's lineage reaches back to the assignment that produced
    /// it. Returns the new epoch.
    pub fn publish_forecasts_with_cold(
        &self,
        now: Minute,
        clusters: &[ClusterInfo],
        predictions: &[(usize, Vec<f64>)],
        cold: &[ColdSeed],
        health: Option<ServeHealth>,
        parents: &[EventId],
    ) -> u64 {
        let members = memberships(clusters);
        let metas = self.horizons();
        let cold_entries: Vec<ColdStartForecast> = cold
            .iter()
            .map(|seed| {
                let mut curves = vec![None; metas.len()];
                for &(slot, v) in &seed.values {
                    let Some(meta) = metas.get(slot) else { continue };
                    let bucket = now - now.rem_euclid(meta.interval_minutes)
                        + meta.horizon as i64 * meta.interval_minutes;
                    curves[slot] = Some(Arc::new(Curve {
                        start: bucket,
                        interval_minutes: meta.interval_minutes,
                        values: vec![v.max(0.0)],
                    }));
                }
                ColdStartForecast { template: seed.template, origin: seed.origin, curves }
            })
            .collect();
        self.cold_gauge.set(cold_entries.len() as f64);
        let epoch = self.publish_traced("forecasts", parents, |current, _epoch| {
            let mut b = current.rebuild().built_at(now).set_membership(&members);
            for &(slot, ref values) in predictions {
                let Some(meta) = metas.get(slot) else { continue };
                // The curve's one bucket starts `horizon` intervals past
                // the training cut — the bucket the model predicts.
                let bucket = now - now.rem_euclid(meta.interval_minutes)
                    + meta.horizon as i64 * meta.interval_minutes;
                for (cluster, &v) in members.iter().zip(values) {
                    b = b.set_curve(
                        cluster.cluster,
                        slot,
                        Curve {
                            start: bucket,
                            interval_minutes: meta.interval_minutes,
                            values: vec![v],
                        },
                    );
                }
            }
            if !cold_entries.is_empty() {
                b = b.set_cold_starts(cold_entries);
            }
            if let Some(h) = health {
                b = b.health(h);
            }
            b
        });
        if self.tracer.is_enabled() {
            for seed in cold {
                let mut draft = EventDraft::new(EventKind::TemplateColdStart)
                    .uint("template", seed.template as u64)
                    .uint("epoch", epoch);
                match seed.origin {
                    ColdStartOrigin::ClusterShare { cluster, share } => {
                        draft = draft
                            .text("origin", "cluster_share")
                            .uint("cluster", cluster)
                            .float("share", share)
                            .parent_opt(self.tracer.anchor(Scope::Cluster, cluster));
                    }
                    ColdStartOrigin::PopulationPrior => {
                        draft = draft
                            .text("origin", "population_prior")
                            .parent_opt(self.tracer.anchor(Scope::Template, seed.template as u64));
                    }
                }
                if let Some(&(slot, v)) = seed.values.first() {
                    draft = draft.uint("slot", slot as u64).float("seeded", v);
                }
                self.tracer.record(draft);
            }
        }
        epoch
    }

    /// The shared publication path: times the swap, refreshes the gauges,
    /// and records the `SnapshotPublished` trace event (first parent as
    /// the causal parent, the rest as references — the fan-in shape
    /// `ForecastBlended` uses).
    fn publish_traced(
        &self,
        reason: &'static str,
        parents: &[EventId],
        build: impl FnOnce(&ForecastSnapshot, u64) -> qb_serve::SnapshotBuilder,
    ) -> u64 {
        let span = self.publish_time.start();
        let before = self.server.current();
        let epoch = self.server.publish(build);
        let after = self.server.current();
        drop(span);
        self.epoch_gauge.set(epoch as f64);
        self.readers_gauge.set(self.server.reader_count() as f64);
        if self.tracer.is_enabled() {
            let mut draft = EventDraft::new(EventKind::SnapshotPublished)
                .text("reason", reason)
                .uint("epoch", epoch)
                .uint("clusters", after.entries().len() as u64)
                .uint("shared_entries", after.shared_entries_with(&before) as u64)
                .int("built_at", after.built_at);
            let mut parents = parents.iter();
            if let Some(&first) = parents.next() {
                draft = draft.parent(first);
            }
            for &p in parents {
                draft = draft.reference(p);
            }
            self.tracer.record(draft);
        }
        epoch
    }
}

/// [`ClusterInfo`] rows flattened into the serving layer's plain-integer
/// [`Membership`] form, preserving the tracked (largest-first) order.
fn memberships(clusters: &[ClusterInfo]) -> Vec<Membership> {
    clusters
        .iter()
        .map(|c| Membership {
            cluster: c.id.0,
            volume: c.volume,
            members: c.members.iter().map(|m| m.0).collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qb_clusterer::ClusterId;
    use qb_preprocessor::TemplateId;
    use qb_serve::{ForecastQuery, Outcome};

    fn cluster(id: u64, volume: f64, members: &[u32]) -> ClusterInfo {
        ClusterInfo {
            id: ClusterId(id),
            volume,
            members: members.iter().map(|&m| TemplateId(m)).collect(),
        }
    }

    #[test]
    fn membership_then_forecast_publication() {
        let svc = ForecastService::hourly(&[1, 12]);
        let reader = svc.reader();
        assert_eq!(svc.epoch(), 0);

        let clusters = [cluster(3, 40.0, &[1, 2]), cluster(5, 10.0, &[7])];
        assert_eq!(svc.publish_membership(600, &clusters), 1);
        // Tracked but unfit: the reader sees the routing, not a curve.
        let unfit = reader.answer(&ForecastQuery::template(2, 0));
        assert_eq!(unfit.epoch, 1);
        assert!(matches!(unfit.outcome, Outcome::NotFound(qb_serve::Missing::Unfit { .. })));

        let epoch = svc.publish_forecasts(
            600,
            &clusters,
            &[(0, vec![11.0, 3.0]), (1, vec![13.0, 5.0])],
            None,
            &[],
        );
        assert_eq!(epoch, 2);
        let one_hour = reader.answer(&ForecastQuery::cluster(3, 0));
        assert_eq!(one_hour.curve().unwrap().values, vec![11.0]);
        assert_eq!(one_hour.curve().unwrap().start, 660, "one hour past the cut");
        let twelve = reader.answer(&ForecastQuery::cluster(5, 1));
        assert_eq!(twelve.curve().unwrap().values, vec![5.0]);
        assert_eq!(twelve.curve().unwrap().start, 600 + 12 * 60);
        assert_eq!(reader.answer(&ForecastQuery::top_k(1, 0)).ranking().unwrap(), &[(3, 11.0)]);
    }

    #[test]
    fn gauges_track_epoch_and_readers() {
        let recorder = Recorder::new();
        let mut svc = ForecastService::hourly(&[1]);
        svc.set_recorder(&recorder);
        let _reader = svc.reader();
        svc.publish_membership(0, &[cluster(1, 5.0, &[1])]);
        svc.publish_membership(1, &[cluster(1, 6.0, &[1])]);
        let snap = recorder.snapshot();
        assert_eq!(snap.gauges.get("serve.epoch"), Some(&2.0));
        assert_eq!(snap.gauges.get("serve.readers"), Some(&1.0));
        assert_eq!(snap.histograms.get("serve.publish").map(|h| h.count), Some(2));
    }

    #[test]
    fn publication_is_traced_with_lineage() {
        let tracer = Tracer::enabled();
        tracer.begin_round(0);
        let anchor = tracer
            .record(EventDraft::new(EventKind::ModelFit).text("model", "LR"))
            .expect("enabled tracer records");
        let mut svc = ForecastService::hourly(&[1]);
        svc.set_tracer(&tracer);
        svc.publish_forecasts(60, &[cluster(1, 5.0, &[1])], &[(0, vec![2.0])], None, &[anchor]);
        let view = tracer.view();
        let ev = view.latest(EventKind::SnapshotPublished).expect("publication traced");
        let lineage = view.explain(ev.id);
        assert!(lineage.contains("ModelFit"), "{lineage}");
    }

    #[test]
    fn cold_seeds_become_served_cold_start_entries() {
        let recorder = Recorder::new();
        let tracer = Tracer::enabled();
        tracer.begin_round(0);
        let assignment = tracer
            .record(EventDraft::new(EventKind::ClusterCreated).uint("cluster", 3))
            .expect("enabled tracer records");
        tracer.set_anchor(Scope::Cluster, 3, assignment);
        let mut svc = ForecastService::hourly(&[1, 12]);
        svc.set_recorder(&recorder);
        svc.set_tracer(&tracer);
        let reader = svc.reader();
        let clusters = [cluster(3, 40.0, &[1, 2])];
        let cold = [
            ColdSeed {
                template: 9,
                origin: qb_serve::ColdStartOrigin::ClusterShare { cluster: 3, share: 0.25 },
                values: vec![(0, 2.75), (1, 3.25)],
            },
            ColdSeed {
                template: 11,
                origin: qb_serve::ColdStartOrigin::PopulationPrior,
                // Negative seeds are clamped to zero; out-of-range slots dropped.
                values: vec![(0, -1.0), (7, 9.0)],
            },
        ];
        svc.publish_forecasts_with_cold(600, &clusters, &[(0, vec![11.0])], &cold, None, &[]);

        // Routed templates answer warm; uncovered ones fall back cold.
        let warm = reader.answer(&ForecastQuery::template(1, 0));
        assert_eq!(warm.curve().unwrap().values, vec![11.0]);
        let seeded = reader.answer(&ForecastQuery::template(9, 1));
        assert!(matches!(
            seeded.outcome,
            Outcome::ColdStart {
                origin: qb_serve::ColdStartOrigin::ClusterShare { cluster: 3, .. },
                ..
            }
        ));
        let curve = seeded.any_curve().expect("seeded slot served");
        assert_eq!(curve.values, vec![3.25]);
        assert_eq!(curve.start, 600 + 12 * 60, "cold curves share the warm bucket formula");
        let clamped = reader.answer(&ForecastQuery::template(11, 0));
        assert_eq!(clamped.any_curve().unwrap().values, vec![0.0]);
        assert!(
            reader.answer(&ForecastQuery::template(11, 1)).any_curve().is_none(),
            "slot the seed didn't cover stays unserved"
        );

        // Gauge mirrors the published entry count; lineage reaches the
        // cluster assignment that produced the share.
        assert_eq!(recorder.snapshot().gauges.get("serve.cold_starts"), Some(&2.0));
        let view = tracer.view();
        let ev = view.latest(EventKind::TemplateColdStart).expect("seeds traced");
        assert!(view.explain(ev.id).contains("ClusterCreated") || ev.parent.is_none());
        let share_ev = view
            .events()
            .iter()
            .find(|e| {
                e.kind == EventKind::TemplateColdStart
                    && e.payload.iter().any(|(k, v)| {
                        *k == "origin" && *v == qb_trace::Value::Text("cluster_share".into())
                    })
            })
            .expect("cluster-share seed traced");
        assert_eq!(share_ev.parent, Some(assignment));
    }

    #[test]
    fn slot_lookup_matches_specs() {
        let specs = vec![HorizonSpec::hourly(1), HorizonSpec::hourly(12)];
        let svc = ForecastService::for_specs(&specs);
        assert_eq!(svc.slot_for(&specs[1]), Some(1));
        let mut other = HorizonSpec::hourly(1);
        other.window = 48;
        assert_eq!(svc.slot_for(&other), None, "window shape is part of the slot identity");
    }
}
