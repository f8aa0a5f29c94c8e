//! Per-layer probes of the traced run: after the loop, the workload's own
//! inputs replayed straight through one lower layer's public function,
//! and the stage histograms the recorder kept while the loop ran.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::api::{
    self, Advisor, BarePreprocessor, Dense, Minute, Pipeline, Pool, ProbeModel, QueryEvent,
};
use crate::record::Metrics;
use crate::replay::pool_width;
use crate::stats;
use crate::workloads::{Ingest, WorkloadDef};

/// Repetitions of a probe; its median is reported.
const REPS: usize = 3;

/// Single durable `ingest_weighted` calls timed (one WAL record and one
/// fsync each).
const WAL_SIGHTINGS: usize = 500;

/// `(seconds, observations)` per `qb-obs` stage histogram.
#[derive(Debug, Clone, Default)]
pub struct ObsTotals(BTreeMap<String, (f64, u64)>);

impl ObsTotals {
    pub fn read(pipeline: &Pipeline) -> Self {
        Self(pipeline.stage_totals())
    }

    /// What accrued after `earlier` was read.
    pub fn since(mut self, earlier: &Self) -> Self {
        for (stage, (secs, count)) in &mut self.0 {
            let (secs_before, count_before) = earlier.get(stage);
            *secs -= secs_before;
            *count -= count_before;
        }
        self
    }

    /// Zeros when the recorder is off or the stage never ran.
    pub fn get(&self, stage: &str) -> (f64, u64) {
        self.0.get(stage).copied().unwrap_or_default()
    }
}

/// Median over `REPS` runs of `body`, each returning the time it measured
/// in seconds.
fn median_of(mut body: impl FnMut() -> f64) -> f64 {
    let mut runs: Vec<f64> = (0..REPS).map(|_| body()).collect();
    stats::median(&mut runs)
}

fn timed(body: impl FnOnce()) -> f64 {
    let started = Instant::now();
    body();
    started.elapsed().as_secs_f64()
}

/// Per-statement cost of a bare `PreProcessor` entry point in steady
/// state: warmed on the first half of the sample (so templates exist),
/// timed on the second half (whose raw strings it has not cached).
fn bare_ingest_us(
    events: &[QueryEvent],
    mut ingest: impl FnMut(&mut BarePreprocessor, &[QueryEvent]),
) -> f64 {
    let (warm, measured) = events.split_at(events.len() / 2);
    if measured.is_empty() {
        return 0.0;
    }
    let secs = median_of(|| {
        let mut pre = BarePreprocessor::new();
        ingest(&mut pre, warm);
        timed(|| ingest(&mut pre, measured))
    });
    secs * 1e6 / measured.len() as f64
}

pub fn layers(
    def: &WorkloadDef,
    pipeline: &Pipeline,
    advisor: Option<&Advisor>,
    events: &[QueryEvent],
    now: Minute,
    core_ingest_us: f64,
    m: &mut Metrics,
) -> Result<(), String> {
    let width = pool_width(def);
    let n = events.len() as u64;

    // qb-sqlparse, qb-preprocessor: statement by statement.
    let parse_s = median_of(|| {
        timed(|| {
            events.iter().for_each(|ev| {
                black_box(api::parse(&ev.sql));
            })
        })
    });
    m.set("sqlparse.parse_us_per_stmt", parse_s * 1e6 / n.max(1) as f64, n);
    let parsed: Vec<_> = events.iter().filter_map(|ev| api::parse(&ev.sql)).collect();
    let templatize_s = median_of(|| {
        timed(|| {
            parsed.iter().for_each(|st| {
                black_box(api::probe_templatize(st));
            })
        })
    });
    m.set(
        "preprocessor.templatize_us_per_stmt",
        templatize_s * 1e6 / parsed.len().max(1) as f64,
        parsed.len() as u64,
    );

    // qb-preprocessor: the three ingest entry points, bare.
    let by_tick = |pool: Pool| {
        move |pre: &mut BarePreprocessor, evs: &[QueryEvent]| {
            evs.chunk_by(|a, b| a.minute == b.minute).for_each(|tick| pre.ingest_tick(&pool, tick));
        }
    };
    let seq_us = bare_ingest_us(events, |pre, evs| pre.ingest_each(evs));
    let batch_us = bare_ingest_us(events, by_tick(Pool::new(width)));
    let batch_w1_us = bare_ingest_us(events, by_tick(Pool::new(1)));
    m.set("preprocessor.ingest_seq_us_per_stmt", seq_us, n / 2);
    m.set("preprocessor.ingest_batch_us_per_stmt", batch_us, n / 2);
    m.set("preprocessor.ingest_batch_w1_us_per_stmt", batch_w1_us, n / 2);
    let same_entry_point = match def.ingest {
        Ingest::PerEvent => seq_us,
        Ingest::PerMinuteBatch => batch_us,
    };
    m.set("core.ingest_overhead_us_per_stmt", core_ingest_us - same_entry_point, n / 2);

    // qb-parallel: one fan-out over `width` empty items.
    const FAN_OUTS: usize = 2_000;
    let pool = Pool::new(width);
    let map_s = median_of(|| {
        timed(|| {
            (0..FAN_OUTS).for_each(|_| {
                black_box(pool.map_empty(width));
            })
        })
    });
    m.set("parallel.map_overhead_us", map_s * 1e6 / FAN_OUTS as f64, FAN_OUTS as u64);

    // qb-forecast: each member model on the final-cut job of horizon 0.
    let job = pipeline.fit_job(now)?;
    // The closed-form models are repeated; an LSTM fit runs for seconds on
    // some cuts, so RNN and HYBRID are fit once.
    for (name, model, reps) in [
        ("forecast.fit_lr_ms", ProbeModel::Lr, REPS),
        ("forecast.fit_kr_ms", ProbeModel::Kr, REPS),
        ("forecast.fit_rnn_ms", ProbeModel::Rnn, 1),
        ("forecast.fit_hybrid_ms", ProbeModel::Hybrid, 1),
    ] {
        let mut fits_s = Vec::with_capacity(reps);
        for _ in 0..reps {
            let started = Instant::now();
            job.fit_predict(model, width).map_err(|e| format!("{name}: {e}"))?;
            fits_s.push(started.elapsed().as_secs_f64());
        }
        m.set(name, stats::median(&mut fits_s) * 1e3, reps as u64);
    }

    // qb-linalg: the LSTM gate shape and the LR design-matrix shape.
    const MATVECS: usize = 20_000;
    let gate = Dense::filled(80, 45);
    let v = vec![0.5; 45];
    let matvec_s = median_of(|| {
        timed(|| {
            (0..MATVECS).for_each(|_| {
                black_box(gate.matvec(black_box(&v)));
            })
        })
    });
    m.set("linalg.matvec_ns", matvec_s * 1e9 / MATVECS as f64, MATVECS as u64);
    let (examples, features) = job.lr_design_shape();
    let design = Dense::filled(examples, features);
    let gram_s = median_of(|| timed(|| drop(black_box(design.gram()))));
    m.set("linalg.gram_us", gram_s * 1e6, REPS as u64);
    let gram = design.gram();
    let rhs = vec![1.0; gram.rows()];
    let solve_s = median_of(|| {
        timed(|| {
            black_box(gram.cholesky_solve(&rhs));
        })
    });
    m.set("linalg.cholesky_solve_us", solve_s * 1e6, REPS as u64);

    // qb-dbsim: one what-if estimate per predicted statement.
    if let Some(advisor) = advisor {
        let workload = pipeline.predicted_workload(now, &pipeline.predict_all(now));
        let estimate_s = median_of(|| {
            timed(|| {
                black_box(advisor.estimate_costs(&workload));
            })
        });
        m.set(
            "dbsim.estimate_cost_us",
            estimate_s * 1e6 / workload.len().max(1) as f64,
            workload.len() as u64,
        );
    }
    Ok(())
}

/// The durable probes, on the pipeline `recovery_ms` just reopened: a
/// recovery with no WAL tail to replay, then single durable sightings.
/// Mutates the pipeline, so it runs after every output check.
pub fn durable(
    pipeline: Pipeline,
    now: Minute,
    recovery_ms: f64,
    m: &mut Metrics,
) -> Result<Pipeline, String> {
    let mut pipeline = pipeline;
    pipeline.snapshot()?;
    let spec = pipeline.close();
    let started = Instant::now();
    let (mut pipeline, report) = Pipeline::open(spec)?;
    let snapshot_only_ms = started.elapsed().as_secs_f64() * 1e3;
    if report.frames_replayed != 0 {
        return Err(format!("a fresh snapshot left {} frames to replay", report.frames_replayed));
    }
    m.set("durable.recovery_snapshot_ms", snapshot_only_ms, 1);
    m.set("durable.recovery_replay_ms", recovery_ms - snapshot_only_ms, 1);

    let sighting = QueryEvent {
        minute: now,
        sql: "SELECT route_id, route_name, color FROM routes WHERE route_id = 7".into(),
        count: 1,
    };
    let mut sightings_us: Vec<f64> = (0..WAL_SIGHTINGS)
        .map(|_| {
            timed(|| {
                black_box(pipeline.ingest_each(std::slice::from_ref(&sighting)));
            }) * 1e6
        })
        .collect();
    m.set("durable.wal_sighting_us_p50", stats::median(&mut sightings_us), WAL_SIGHTINGS as u64);
    Ok(pipeline)
}
