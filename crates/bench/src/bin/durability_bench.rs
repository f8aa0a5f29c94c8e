//! Durability cost accounting: how much does crash-safety cost, and how
//! fast does a warm restart come back?
//!
//! Replays a BusTracker trace through a [`DurablePipeline`], timing the
//! three durable paths separately:
//!
//! * **WAL append** — per-sighting overhead of frame + fsync on the
//!   ingest path (throughput over the whole replay).
//! * **Snapshot** — full-state serialize + tmp/fsync/rename rotation,
//!   best and mean over repeated rounds, with the payload size.
//! * **Recovery** — `DurablePipeline::open` against (a) a directory whose
//!   WAL tail is empty (snapshot-only load) and (b) one carrying a tail
//!   of unsnapshotted sightings that must replay through the ingest path.
//!
//! Results land in `BENCH_durability.json` for CI to archive; the run is
//! informational and always exits 0 unless the pipeline itself fails.
//!
//! ```text
//! cargo run --release -p qb-bench --bin durability_bench
//! ```

#![forbid(unsafe_code)]

use qb5000::{DurabilityConfig, DurablePipeline, Qb5000Config};
use qb_timeseries::MINUTES_PER_DAY;
use qb_workloads::{TraceConfig, Workload};
use std::time::Instant;

const DAYS: u32 = 3;
const SCALE: f64 = 0.02;
const SEED: u64 = 0xD07A61;
const SNAPSHOT_TRIALS: usize = 8;
const TAIL_FRAMES: usize = 2_000;

fn durable_config(dir: &std::path::Path) -> Qb5000Config {
    Qb5000Config::builder()
        // Snapshots are driven explicitly below; keep the policy out of
        // the way so each phase times exactly one thing.
        .durability(DurabilityConfig::new(dir).snapshot_every_rounds(u64::MAX))
        .build()
        .expect("durability bench config is valid")
}

fn main() {
    let dir = std::env::temp_dir().join(format!("qb-durability-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let trace =
        TraceConfig { start: 0, days: DAYS, scale: SCALE, seed: SEED };
    let events: Vec<_> = Workload::BusTracker.generator(trace).collect();
    assert!(!events.is_empty(), "trace must generate work");

    // Phase 1: WAL append throughput over the full replay.
    let (mut p, _) = DurablePipeline::open(durable_config(&dir)).expect("fresh open");
    let t0 = Instant::now();
    for ev in &events {
        let _ = p.ingest_weighted(ev.minute, &ev.sql, ev.count);
    }
    let append_wall = t0.elapsed();
    p.update_clusters(DAYS as i64 * MINUTES_PER_DAY).expect("cluster update");

    // Phase 2: snapshot cost at steady state.
    let mut snapshot_times = Vec::with_capacity(SNAPSHOT_TRIALS);
    for _ in 0..SNAPSHOT_TRIALS {
        let t = Instant::now();
        p.snapshot().expect("snapshot succeeds");
        snapshot_times.push(t.elapsed());
    }
    let snapshot_bytes = p.store_stats().last_snapshot_bytes;
    let durable_seq = p.durable_seq();
    drop(p);

    // Phase 3a: recovery with an empty WAL tail (snapshot-only load).
    let t = Instant::now();
    let (p, report) = DurablePipeline::open(durable_config(&dir)).expect("snapshot-only recovery");
    let recovery_snapshot_only = t.elapsed();
    assert_eq!(report.frames_replayed, 0, "tail must be empty after a snapshot");
    assert_eq!(p.durable_seq(), durable_seq, "recovery lands on the durable seq");

    // Phase 3b: recovery with a WAL tail that replays through ingest.
    let mut p = p;
    for ev in events.iter().cycle().take(TAIL_FRAMES) {
        let _ = p.ingest_weighted(ev.minute, &ev.sql, ev.count);
    }
    drop(p);
    let t = Instant::now();
    let (p, report) = DurablePipeline::open(durable_config(&dir)).expect("tail recovery");
    let recovery_with_tail = t.elapsed();
    assert_eq!(report.frames_replayed, TAIL_FRAMES as u64, "the whole tail replays");
    drop(p);
    let _ = std::fs::remove_dir_all(&dir);

    let appends_per_sec = events.len() as f64 / append_wall.as_secs_f64();
    let best = snapshot_times.iter().min().expect("trials ran").as_secs_f64() * 1e3;
    let mean = snapshot_times.iter().map(|d| d.as_secs_f64()).sum::<f64>()
        / snapshot_times.len() as f64
        * 1e3;

    let json = format!(
        "{{\n  \"workload\": \"{}\",\n  \"days\": {DAYS},\n  \"scale\": {SCALE},\n  \
         \"statements\": {},\n  \"wal_appends_per_sec\": {appends_per_sec:.1},\n  \
         \"snapshot_bytes\": {snapshot_bytes},\n  \"snapshot_ms_best\": {best:.3},\n  \
         \"snapshot_ms_mean\": {mean:.3},\n  \"recovery_snapshot_only_ms\": {:.3},\n  \
         \"recovery_tail_frames\": {TAIL_FRAMES},\n  \"recovery_with_tail_ms\": {:.3}\n}}\n",
        Workload::BusTracker.name(),
        events.len(),
        recovery_snapshot_only.as_secs_f64() * 1e3,
        recovery_with_tail.as_secs_f64() * 1e3,
    );
    std::fs::write("BENCH_durability.json", &json).expect("BENCH_durability.json writable");
    println!("{json}");
    println!("wrote BENCH_durability.json");
}
