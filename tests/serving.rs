//! Integration tests for the forecast serving layer, whose steady-state
//! reads take no lock.
//!
//! The contracts under test:
//!
//! * pipeline publications — cluster updates and manager retrains land in
//!   reader-visible snapshots at monotonically increasing epochs;
//! * served curves are **bit-identical** to a synchronous
//!   [`QueryBot5000::forecast_job_with`] pull at the same cut;
//! * concurrent readers racing a publisher only ever observe fully
//!   consistent snapshots (no torn reads, no stale epoch mixing);
//! * incremental patch publication is semantically equal to a full
//!   republish of the same logical state (property-based);
//! * the serving epoch is part of the pipeline health report and the
//!   metrics renderings.

use proptest::prelude::*;
use qb5000::{
    ForecastManager, ForecastQuery, ForecastService, ForecastSnapshot, HorizonMeta, HorizonSpec,
    JobSpan, Membership, Outcome, Qb5000Config, QueryBot5000, Recorder, RetrainOutcome,
    SnapshotBuilder, StalenessBound,
};
use qb_forecast::{Forecaster, LinearRegression};
use qb_timeseries::MINUTES_PER_DAY;
use qb_workloads::{TraceConfig, Workload};

fn lr_factory() -> Box<dyn Forecaster> {
    Box::new(LinearRegression::default())
}

/// A pipeline with serving enabled, warmed with a deterministic trace.
fn served_bot(days: u32, service: &ForecastService) -> (QueryBot5000, i64) {
    let config = Qb5000Config::builder()
        .serve(service.clone())
        .build()
        .expect("default config is valid");
    let mut bot = QueryBot5000::new(config);
    let cfg = TraceConfig { start: 0, days, scale: 0.05, seed: 0xF0 };
    for ev in Workload::BusTracker.generator(cfg) {
        bot.ingest_weighted(ev.minute, &ev.sql, ev.count).expect("valid SQL");
    }
    let now = days as i64 * MINUTES_PER_DAY;
    bot.update_clusters(now);
    (bot, now)
}

#[test]
fn pipeline_publications_reach_readers() {
    let service = ForecastService::for_specs(&[HorizonSpec::hourly(1), HorizonSpec::hourly(12)]);
    let reader = service.reader();
    assert_eq!(service.epoch(), 0, "nothing published before the pipeline runs");

    let (bot, now) = served_bot(8, &service);
    // The cluster update published a membership patch.
    let after_update = service.epoch();
    assert!(after_update >= 1, "update_clusters publishes membership");
    let tracked = bot.tracked_clusters();
    assert!(!tracked.is_empty());
    // Tracked but unfit: routing is visible, curves are not.
    let t = tracked[0].members[0].0;
    let unfit = reader.answer(&ForecastQuery::template(t, 0));
    assert_eq!(unfit.epoch, after_update);
    assert!(matches!(unfit.outcome, Outcome::NotFound(qb5000::Missing::Unfit { .. })));

    // A manager retrain publishes per-horizon curves.
    let mut mgr =
        ForecastManager::new(vec![HorizonSpec::hourly(1), HorizonSpec::hourly(12)], lr_factory);
    let outcome = mgr.ensure_trained(&bot, now).expect("training succeeds");
    assert!(matches!(outcome, RetrainOutcome::Retrained { horizons: 2 }));
    assert!(service.epoch() > after_update, "retrain publishes a fresh epoch");

    let answer = reader.answer(&ForecastQuery::cluster(tracked[0].id.0, 0));
    let curve = answer.curve().expect("fitted cluster serves a curve");
    assert_eq!(curve.start, now + 60, "1-hour horizon starts one bucket past the cut");
    assert!(curve.values[0].is_finite());
    // Health summary rode along with the publication.
    let snap = reader.snapshot();
    assert_eq!(snap.health.models.len(), 2);
    assert!(snap.health.models.iter().all(|m| m.as_deref() == Some("LR")));

    // Staleness bounds: the snapshot admits a satisfied bound and rejects
    // an unsatisfiable one.
    let fresh = ForecastQuery::cluster(tracked[0].id.0, 0)
        .with_staleness(StalenessBound::AtLeastEpoch(service.epoch()));
    assert!(reader.answer(&fresh).curve().is_some());
    let impossible = ForecastQuery::cluster(tracked[0].id.0, 0)
        .with_staleness(StalenessBound::AtLeastEpoch(service.epoch() + 1));
    assert!(matches!(reader.answer(&impossible).outcome, Outcome::TooStale));
}

#[test]
fn served_curves_bit_identical_to_synchronous_pull() {
    let specs = vec![HorizonSpec::hourly(1), HorizonSpec::hourly(12)];
    let service = ForecastService::for_specs(&specs);
    let reader = service.reader();
    let (bot, now) = served_bot(8, &service);
    let mut mgr = ForecastManager::new(specs.clone(), lr_factory);
    mgr.ensure_trained(&bot, now).expect("training succeeds");
    let epoch = service.epoch();

    for (i, spec) in specs.iter().enumerate() {
        // The synchronous pull the serving layer replaces: fit the same
        // model shape on the same span and predict at the same cut.
        let job = bot
            .forecast_job_with(
                now,
                spec.interval,
                spec.window,
                spec.horizon,
                JobSpan::Steps(spec.train_steps),
            )
            .expect("enough history");
        let pulled = job.fit_predict(&mut LinearRegression::default()).expect("fit succeeds");
        for (ci, cluster) in job.clusters.iter().enumerate() {
            let answer = reader.answer(&ForecastQuery::cluster(cluster.id.0, i));
            assert_eq!(answer.epoch, epoch, "reader answers at the published epoch");
            let curve = answer.curve().unwrap_or_else(|| {
                panic!("cluster {} horizon {i} must serve a curve", cluster.id.0)
            });
            assert_eq!(
                curve.values[0].to_bits(),
                pulled[ci].to_bits(),
                "served curve for cluster {} horizon {i} must be bit-identical \
                 to the synchronous pull",
                cluster.id.0
            );
        }
    }
}

#[test]
fn concurrent_readers_race_publisher_without_torn_reads() {
    let service = ForecastService::with_horizons(vec![HorizonMeta {
        interval_minutes: 60,
        window: 24,
        horizon: 1,
    }]);
    const PUBLISHES: u64 = 1_500;
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let reader = service.reader();
            std::thread::spawn(move || {
                let mut last_epoch = 0;
                let mut reads = 0u64;
                // Race the publisher until the final epoch is visible —
                // every reader is guaranteed to observe at least that one.
                while last_epoch < PUBLISHES {
                    let answer = reader.answer(&ForecastQuery::cluster(7, 0));
                    // Epochs never go backwards through one handle.
                    assert!(answer.epoch >= last_epoch, "epoch regressed");
                    last_epoch = answer.epoch;
                    if answer.epoch == 0 {
                        continue;
                    }
                    // Every published snapshot encodes its epoch into both
                    // the timestamp and the curve value; a torn read would
                    // mix them.
                    assert_eq!(answer.built_at as u64, answer.epoch, "built_at torn");
                    let curve = answer.curve().expect("published snapshots carry the curve");
                    assert_eq!(curve.values[0] as u64, answer.epoch, "curve torn");
                    reads += 1;
                }
                reads
            })
        })
        .collect();
    let cluster = [qb5000::ClusterInfo {
        id: qb_clusterer::ClusterId(7),
        volume: 10.0,
        members: vec![qb_preprocessor::TemplateId(1)],
    }];
    for epoch in 1..=PUBLISHES {
        let published = service.publish_forecasts(
            epoch as i64,
            &cluster,
            &[(0, vec![epoch as f64])],
            None,
            &[],
        );
        assert_eq!(published, epoch);
    }
    let total: u64 = readers.into_iter().map(|h| h.join().expect("reader panicked")).sum();
    assert!(total >= 4, "every reader observes at least the final snapshot");
    assert_eq!(service.epoch(), PUBLISHES);
}

#[test]
fn cold_start_serves_unrouted_templates_without_touching_warm_curves() {
    let specs = vec![HorizonSpec::hourly(1), HorizonSpec::hourly(12)];
    // The same trace through two pipelines: cold start on and off. A
    // template that first appears after the cluster update is unrouted at
    // retrain time — the classic new-template gap.
    let run = |cold: bool| {
        let recorder = Recorder::new();
        let mut service = ForecastService::for_specs(&specs);
        service.set_recorder(&recorder);
        let reader = service.reader();
        let config = Qb5000Config::builder()
            .serve(service.clone())
            .recorder(recorder.clone())
            .cold_start(cold)
            .build()
            .expect("config is valid");
        let mut bot = QueryBot5000::new(config);
        let cfg = TraceConfig { start: 0, days: 8, scale: 0.05, seed: 0xF0 };
        for ev in Workload::BusTracker.generator(cfg) {
            bot.ingest_weighted(ev.minute, &ev.sql, ev.count).expect("valid SQL");
        }
        let now = 8 * MINUTES_PER_DAY;
        bot.update_clusters(now);
        for m in 0..10 {
            bot.ingest_weighted(
                now - 10 + m,
                "SELECT flags FROM launch_gates WHERE feature = 7",
                1,
            )
            .expect("valid SQL");
        }
        let new_template = bot
            .preprocessor()
            .templates()
            .last()
            .expect("template table is non-empty")
            .id;
        assert!(
            !bot.tracked_clusters().iter().any(|c| c.members.contains(&new_template)),
            "the late template must not be routed yet"
        );
        let mut mgr = ForecastManager::new(specs.clone(), lr_factory);
        mgr.set_recorder(&recorder);
        mgr.ensure_trained(&bot, now).expect("training succeeds");
        (reader, recorder, new_template, bot)
    };

    let (cold_reader, cold_recorder, template, cold_bot) = run(true);
    let (warm_reader, warm_recorder, warm_template, _warm_bot) = run(false);
    assert_eq!(template, warm_template, "identical traces produce identical template tables");

    // Off: the unrouted template is Missing, as before this feature.
    let off = warm_reader.answer(&ForecastQuery::template(template.0, 0));
    assert!(matches!(off.outcome, Outcome::NotFound(qb5000::Missing::Template(_))));
    assert_eq!(warm_recorder.snapshot().counters.get("forecast.cold_starts"), Some(&0));

    // On: the same query gets a typed seeded estimate with provenance.
    let on = cold_reader.answer(&ForecastQuery::template(template.0, 0));
    let origin = on.cold_origin().expect("cold start answers with provenance");
    let curve = on.any_curve().expect("seeded curve served");
    assert!(curve.values[0].is_finite() && curve.values[0] >= 0.0);
    assert!(on.curve().is_none(), "warm accessor stays warm-only");
    // The population prior is the mean predicted per-member rate; a
    // cluster-share seed scales its cluster's forecast. Either way the
    // estimate derives from this round's warm predictions.
    match origin {
        qb5000::ColdStartOrigin::ClusterShare { share, .. } => assert!(share > 0.0),
        qb5000::ColdStartOrigin::PopulationPrior => {}
    }
    let snap = cold_recorder.snapshot();
    assert!(snap.counters.get("forecast.cold_starts").copied().unwrap_or(0) >= 1);
    assert!(snap.gauges.get("serve.cold_starts").copied().unwrap_or(0.0) >= 1.0);

    // Warm curves are bit-identical whether or not cold start is on.
    for (i, _) in specs.iter().enumerate() {
        for cluster in cold_bot.tracked_clusters() {
            let a = cold_reader.answer(&ForecastQuery::cluster(cluster.id.0, i));
            let b = warm_reader.answer(&ForecastQuery::cluster(cluster.id.0, i));
            match (a.curve(), b.curve()) {
                (Some(ca), Some(cb)) => {
                    assert_eq!(ca.values[0].to_bits(), cb.values[0].to_bits());
                    assert_eq!((ca.start, ca.interval_minutes), (cb.start, cb.interval_minutes));
                }
                (None, None) => {}
                other => panic!("warm availability diverged: {other:?}"),
            }
        }
    }
}

#[test]
fn serve_epoch_lands_in_health_and_metrics() {
    let recorder = Recorder::new();
    let mut service = ForecastService::for_specs(&[HorizonSpec::hourly(1)]);
    service.set_recorder(&recorder);
    let config = Qb5000Config::builder()
        .serve(service.clone())
        .recorder(recorder.clone())
        .build()
        .expect("config is valid");
    let mut bot = QueryBot5000::new(config);
    let cfg = TraceConfig { start: 0, days: 2, scale: 0.05, seed: 0xF0 };
    for ev in Workload::BusTracker.generator(cfg) {
        bot.ingest_weighted(ev.minute, &ev.sql, ev.count).expect("valid SQL");
    }
    bot.update_clusters(2 * MINUTES_PER_DAY);

    let health = bot.health();
    assert_eq!(health.serve_epoch, Some(service.epoch()), "health mirrors the served epoch");
    assert!(service.epoch() >= 1);

    // A pipeline without serving reports no epoch.
    let plain = QueryBot5000::new(Qb5000Config::default());
    assert_eq!(plain.health().serve_epoch, None);

    // The gauges reach both metric renderings.
    let snap = recorder.snapshot();
    assert_eq!(snap.gauges.get("serve.epoch"), Some(&(service.epoch() as f64)));
    assert!(snap.render_table().contains("serve.epoch"), "table rendering carries the gauge");
    assert!(
        snap.to_prometheus().contains("serve_epoch"),
        "prometheus rendering carries the gauge"
    );
    assert!(
        snap.histograms.get("serve.publish").map(|h| h.count).unwrap_or(0) >= 1,
        "publications are timed"
    );
}

// --- Property: incremental patches equal a full republish. -----------------

/// A plain-Rust model of the reconcile semantics: per cluster, its volume,
/// members, and surviving per-slot curve values.
#[derive(Clone, Debug)]
struct ModelEntry {
    cluster: u64,
    volume: f64,
    members: Vec<u32>,
    curves: Vec<Option<f64>>,
}

#[derive(Clone, Debug)]
enum Op {
    /// Reconcile the tracked set to these `(cluster, volume, members)` rows.
    Members(Vec<(u64, u32, Vec<u32>)>),
    /// Patch one cluster's curve at one slot.
    Curve { cluster: u64, slot: usize, value: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        proptest::collection::vec(
            (0u64..4, 0u32..100, proptest::collection::vec(0u32..8, 0..3)),
            0..4
        )
        .prop_map(|mut rows| {
            // Cluster ids are unique in any real tracked set.
            rows.sort_by_key(|r| r.0);
            rows.dedup_by_key(|r| r.0);
            Op::Members(rows)
        }),
        (0u64..4, 0usize..2, 0u32..1000)
            .prop_map(|(cluster, slot, value)| Op::Curve { cluster, slot, value }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn incremental_publish_equals_full_republish(ops in proptest::collection::vec(op_strategy(), 1..12)) {
        let horizons = vec![
            HorizonMeta { interval_minutes: 60, window: 24, horizon: 1 },
            HorizonMeta { interval_minutes: 60, window: 24, horizon: 12 },
        ];
        let mut model: Vec<ModelEntry> = Vec::new();
        let mut current = ForecastSnapshot::empty(horizons.clone());
        for (i, op) in ops.iter().enumerate() {
            let at = i as i64;
            let epoch = current.epoch() + 1;
            match op {
                Op::Members(rows) => {
                    let members: Vec<Membership> = rows
                        .iter()
                        .map(|(c, v, m)| Membership {
                            cluster: *c,
                            volume: f64::from(*v),
                            members: m.clone(),
                        })
                        .collect();
                    current =
                        current.rebuild().built_at(at).set_membership(&members).build(epoch);
                    // Model the reconcile: same members keep curves, changed
                    // members (or a fresh cluster) start unfit.
                    model = rows
                        .iter()
                        .map(|(c, v, m)| {
                            let curves = model
                                .iter()
                                .find(|e| e.cluster == *c && e.members == *m)
                                .map_or(vec![None; 2], |e| e.curves.clone());
                            ModelEntry {
                                cluster: *c,
                                volume: f64::from(*v),
                                members: m.clone(),
                                curves,
                            }
                        })
                        .collect();
                }
                Op::Curve { cluster, slot, value } => {
                    let curve = qb5000::Curve {
                        start: at * 60,
                        interval_minutes: 60,
                        values: vec![f64::from(*value)],
                    };
                    current =
                        current.rebuild().built_at(at).set_curve(*cluster, *slot, curve).build(epoch);
                    if let Some(e) = model.iter_mut().find(|e| e.cluster == *cluster) {
                        e.curves[*slot] = Some(f64::from(*value));
                    }
                }
            }
        }

        // Full republish of the modeled final state, in one build.
        let memberships: Vec<Membership> = model
            .iter()
            .map(|e| Membership { cluster: e.cluster, volume: e.volume, members: e.members.clone() })
            .collect();
        let mut b = SnapshotBuilder::fresh(current.built_at, horizons)
            .set_membership(&memberships);
        for e in &model {
            for (slot, v) in e.curves.iter().enumerate() {
                if let Some(v) = v {
                    // Reconstruct each curve exactly as the surviving patch
                    // wrote it (the curve's own timestamps ride along).
                    let incremental = current
                        .cluster(e.cluster)
                        .and_then(|c| c.curves[slot].clone())
                        .expect("model says this curve survived");
                    prop_assert_eq!(incremental.values[0], *v, "model diverged from snapshot");
                    b = b.set_curve(e.cluster, slot, (*incremental).clone());
                }
            }
        }
        let full = b.build(current.epoch());
        prop_assert_eq!(&full, &current, "incremental patches must equal a full republish");
    }
}
