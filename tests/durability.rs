//! Durability integration suite (ISSUE 6).
//!
//! Four layers of evidence that crash-restart is invisible, plus a bound
//! on what it costs in snapshot bytes:
//!
//! * **Codec round-trips** — proptest drives every versioned record type
//!   through `encode → decode` and demands equality, both on synthetic
//!   leaf values ([`Literal`], [`ArrivalHistoryState`], [`WalRecord`]) and
//!   on [`FullState`]s exported from real pipelines fed proptest-generated
//!   workloads (which exercises every nested record: quarantine ring,
//!   clusterer state, accuracy tracker, manager, tracer ring).
//! * **WAL corruption fuzz** — a finished WAL segment is damaged with
//!   every [`StorageFaultKind`] (torn write, short write, bit flip,
//!   crash-before/after-fsync); recovery must come back up on the longest
//!   valid frame prefix and, after resuming the op list at `durable_seq`,
//!   land bit-identical to the never-corrupted run.
//! * **Crash-point matrix** — `qb_testkit::crash` sweeps workload ×
//!   [`IoPoint`] (plus nth-I/O samples) × thread width {1, 4}; every
//!   crashed-and-recovered run must match the uninterrupted reference in
//!   [`PipelineState`], `PipelineHealth`, forecasts (raw bits), and the
//!   deterministic trace stream. Failures print a `QB_CRASH_HOOK=…` repro
//!   command that `crash_point_repro` below replays.
//! * **Cross-version recovery** — a store directory written by a
//!   `STATE_VERSION` 6 build (`crates/testkit/fixtures/v6_store`) recovers
//!   to the pinned pipeline and manager state and prediction bits and to
//!   the state the same script reaches now (its histories at hour grain,
//!   where the old store compacted first arrivals), and re-snapshots as
//!   version 7; versions other than 6 and 7 are refused.
//! * **First arrivals** — a template's first arrival minute survives
//!   compaction, a snapshot and a WAL replay.
//! * **Snapshot size** — the snapshot of three BusTracker days stays at or
//!   under 44 300 bytes.

use proptest::prelude::*;
use qb5000::durable::{
    decode_full_state, decode_history, decode_literal, decode_wal_record, encode_full_state,
    encode_history, encode_literal, encode_manager_state, encode_pipeline_state,
    encode_wal_record, FullState, WalRecord,
};
use qb5000::{
    Dec, DurabilityConfig, DurablePipeline, Enc, ForecastManager, HorizonSpec, PipelineState,
    Qb5000Config, QueryBot5000, Tracer,
};
use qb_forecast::LinearRegression;
use qb_preprocessor::BatchItem;
use qb_sqlparse::Literal;
use qb_testkit::crash::{
    derived, hook_from_label, materialize_ops, reference_run, run_crash_matrix, run_with_crash,
    CrashCase, DurableOp, MatrixRun,
};
use qb_timeseries::{ArrivalHistory, ArrivalHistoryState, Interval, MINUTES_PER_DAY};
use qb_workloads::{StorageFaultKind, StorageFaultPlan, Workload};

use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qb-durtest-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------------
// Codec round-trips (proptest)
// ---------------------------------------------------------------------------

fn literal_strategy() -> impl Strategy<Value = Literal> {
    prop_oneof![
        any::<i64>().prop_map(Literal::Integer),
        any::<f64>().prop_filter("NaN breaks PartialEq, not the codec", |f| !f.is_nan())
            .prop_map(Literal::Float),
        ".{0,40}".prop_map(Literal::String),
        any::<bool>().prop_map(Literal::Boolean),
        Just(Literal::Null),
    ]
}

fn history_strategy() -> impl Strategy<Value = ArrivalHistoryState> {
    fn pairs() -> impl Strategy<Value = Vec<(i64, u64)>> {
        proptest::collection::vec((any::<i64>(), 1u64..1_000_000), 0..16).prop_map(|mut v| {
            v.sort_by_key(|&(m, _)| m);
            v.dedup_by_key(|&mut (m, _)| m);
            v
        })
    }
    (pairs(), pairs(), proptest::option::of(1i64..100_000), any::<u64>()).prop_map(
        |(raw, compacted, compacted_width_minutes, total)| ArrivalHistoryState {
            raw,
            compacted,
            compacted_width_minutes,
            total,
        },
    )
}

fn wal_record_strategy() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        proptest::collection::vec((any::<i64>(), any::<u64>(), ".{0,60}"), 0..4)
            .prop_map(|items| WalRecord::IngestBatch { items }),
        any::<i64>().prop_map(|now| WalRecord::ClusterUpdate { now }),
        Just(WalRecord::Compact),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    #[test]
    fn literal_round_trips(lit in literal_strategy()) {
        let mut e = Enc::new();
        encode_literal(&mut e, &lit);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        let back = decode_literal(&mut d).expect("decode what we encoded");
        d.finish().expect("no trailing bytes");
        prop_assert_eq!(back, lit);
    }

    #[test]
    fn history_round_trips(h in history_strategy()) {
        let mut e = Enc::new();
        encode_history(&mut e, &h);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        let back = decode_history(&mut d).expect("decode what we encoded");
        d.finish().expect("no trailing bytes");
        prop_assert_eq!(back, h);
    }

    #[test]
    fn wal_record_round_trips(rec in wal_record_strategy()) {
        let (kind, payload) = encode_wal_record(&rec);
        let back = decode_wal_record(kind, &payload).expect("decode what we encoded");
        prop_assert_eq!(back, rec);
    }
}

/// A tiny op grammar for driving a *real* pipeline inside proptest: the
/// exported [`FullState`] then contains realistic quarantine rings,
/// clusterer state, accuracy state, and trace events — every nested
/// record type — without hand-building any of those structs.
#[derive(Debug, Clone)]
enum MiniOp {
    Ingest { step: i64, template: usize, count: u64 },
    Update,
}

fn mini_ops() -> impl Strategy<Value = Vec<MiniOp>> {
    // ~1 update per 7 ops, the rest weighted sightings.
    let op = (0u8..7, 1i64..90, 0usize..5, 1u64..40).prop_map(|(sel, step, template, count)| {
        if sel == 6 {
            MiniOp::Update
        } else {
            MiniOp::Ingest { step, template, count }
        }
    });
    proptest::collection::vec(op, 1..60)
}

const MINI_SQL: [&str; 5] = [
    "SELECT a FROM t WHERE id = 1",
    "SELECT b FROM u WHERE id = 2",
    "INSERT INTO t VALUES (3, 'x')",
    "DELETE FROM u WHERE id = 4",
    "SELEC broken (",
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// `FullState` (pipeline + manager + tracer) survives
    /// `encode_full_state → decode_full_state` for arbitrary small runs.
    #[test]
    fn full_state_round_trips(ops in mini_ops()) {
        let cfg = Qb5000Config::builder()
            .trace(Tracer::enabled())
            .build()
            .expect("default traced config is valid");
        let mut bot = QueryBot5000::new(cfg);
        let mut now = 0i64;
        for op in &ops {
            match op {
                MiniOp::Ingest { step, template, count } => {
                    now += step;
                    let _ = bot.ingest_weighted(now, MINI_SQL[*template], *count);
                }
                MiniOp::Update => {
                    bot.update_clusters(now);
                }
            }
        }
        bot.update_clusters(now + 1);

        let mut manager =
            ForecastManager::new(vec![HorizonSpec::hourly(1)], || {
                Box::new(LinearRegression::default())
            });
        let _ = manager.ensure_trained(&bot, now + 1);

        let full = FullState {
            pipeline: bot.export_state(),
            manager: Some(manager.export_state()),
            tracer: bot.tracer().export_state(),
        };
        let bytes = encode_full_state(&full);
        let back = decode_full_state(&bytes).expect("decode what we encoded");
        prop_assert_eq!(back, full);
    }
}

// ---------------------------------------------------------------------------
// WAL corruption fuzz (satellite: torn/short/bit-flip tails)
// ---------------------------------------------------------------------------

fn plain_durable_config(dir: &PathBuf) -> Qb5000Config {
    Qb5000Config::builder()
        // No snapshot inside the run: everything lives in one WAL segment.
        .durability(DurabilityConfig::new(dir).snapshot_every_rounds(u64::MAX))
        .build()
        .expect("durable config is valid")
}

/// Damages a finished WAL segment with every [`StorageFaultKind`] at
/// several seeded split points inside its frames. Every image is tried
/// twice: alone, and followed by the segment's zero fill, as a crash
/// inside preallocated space leaves it. Recovery must (a) open cleanly,
/// (b) keep only a prefix of the op list, and (c) after resuming the rest
/// of the ops, match the never-corrupted final state bit for bit.
#[test]
fn wal_corruption_recovers_to_last_valid_frame() {
    let ops: Vec<(i64, &str, u64)> = (0..40)
        .map(|k| {
            let sql = MINI_SQL[k % MINI_SQL.len()];
            (10 * k as i64, sql, 1 + (k as u64 % 7))
        })
        .collect();

    // Clean run: final state + the pristine WAL bytes.
    let clean_dir = tmp_dir("walfuzz-clean");
    let (mut clean, _) =
        DurablePipeline::open(plain_durable_config(&clean_dir)).expect("clean open");
    for (minute, sql, count) in &ops {
        let _ = clean.ingest_weighted(*minute, sql, *count);
    }
    let clean_state = clean.bot().export_state();
    let framed = clean.store_stats().wal_bytes as usize;
    drop(clean);
    let wal_file = std::fs::read_dir(&clean_dir)
        .expect("durable dir listable")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|x| x == "qbw"))
        .expect("exactly one WAL segment after a snapshot-free run");
    let file = std::fs::read(&wal_file).expect("WAL readable");
    // The segment is its frames, then zero fill: cut at the last frame.
    let (pristine, zero_fill) = file.split_at(framed);
    assert!(!pristine.is_empty(), "40 ingests must have produced WAL frames");
    assert!(!zero_fill.is_empty() && zero_fill.iter().all(|&b| b == 0), "preallocated zeros");

    for kind in StorageFaultKind::ALL {
        for seed in 0..4u64 {
            let mut plan = StorageFaultPlan::new(seed);
            // Model the crash as interrupting the last portion of the log:
            // everything before `split` had been fsynced, the rest was the
            // in-flight write the fault mangles.
            let split = pristine.len() * (1 + seed as usize % 3) / 4;
            let damaged = plan.apply(kind, &pristine[..split], &pristine[split..]);
            for tail in [&[][..], zero_fill] {
                let image = [&damaged[..], tail].concat();
                let case = format!("{kind:?}/{seed}/{} zero bytes", tail.len());
                let dir = tmp_dir(&format!("walfuzz-{kind:?}-{seed}-{}", tail.len()));
                std::fs::create_dir_all(&dir).expect("fuzz dir creatable");
                std::fs::write(dir.join(wal_file.file_name().expect("wal name")), &image)
                    .expect("corrupted WAL writable");

                let (mut p, report) = DurablePipeline::open(plain_durable_config(&dir))
                    .unwrap_or_else(|e| panic!("recovery must absorb {case}: {e}"));
                let resume = p.durable_seq() as usize;
                assert!(
                    resume <= ops.len(),
                    "{case}: recovery cannot invent frames ({resume} > {})",
                    ops.len()
                );
                if kind == StorageFaultKind::CrashAfterFsync {
                    assert_eq!(resume, ops.len(), "{case}: a fully-fsynced image loses nothing");
                }
                assert_eq!(
                    report.frames_replayed, resume as u64,
                    "{case}: every surviving frame replays"
                );
                for (minute, sql, count) in &ops[resume..] {
                    let _ = p.ingest_weighted(*minute, sql, *count);
                }
                assert_eq!(
                    p.bot().export_state(),
                    clean_state,
                    "{case}: resumed state must be bit-identical to the clean run"
                );
                drop(p);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&clean_dir);
}

// ---------------------------------------------------------------------------
// Crash-point matrix (tentpole acceptance)
// ---------------------------------------------------------------------------

/// BusTracker, traced, snapshot every round: every IoPoint + nth samples,
/// widths 1 and 4, trace streams compared byte-for-byte.
#[test]
fn crash_matrix_bustracker_traced() {
    let mut case = CrashCase::new(Workload::BusTracker, 0xB05_7EC);
    case.days = 2;
    case.scale = 0.004;
    case.traced = true;
    let run = run_crash_matrix(&case, &[1, 8], &[1, 4], 4)
        .unwrap_or_else(|failure| panic!("{failure}"));
    assert!(run.hooks.len() > qb5000::IoPoint::ALL.len(), "nth samples must extend the sweep");
    assert_every_point_fires(&run);
}

/// A `point:` hook that never fires is a clean run, not a crash test.
fn assert_every_point_fires(run: &MatrixRun) {
    assert!(run.fired.iter().any(|l| l == "point:WalGrown"), "a segment grow must be crashed");
    for label in run.hooks.iter().filter(|l| l.starts_with("point:")) {
        assert!(run.fired.contains(label), "{label} never fired: {run:?}");
    }
}

/// MOOC (evolving template population), untraced, snapshot every 2 rounds
/// so the sweep crosses snapshot-present and WAL-tail-only recoveries.
#[test]
fn crash_matrix_mooc_multi_round_snapshots() {
    let mut case = CrashCase::new(Workload::Mooc, 0x300C);
    case.days = 2;
    case.scale = 0.004;
    case.update_every = 8 * 60;
    case.snapshot_every_rounds = 2;
    let run =
        run_crash_matrix(&case, &[1], &[1, 4], 3).unwrap_or_else(|failure| panic!("{failure}"));
    assert_every_point_fires(&run);
}

/// Satellite 2 pinned down explicitly: a stream salted with
/// quarantine-bound statements keeps its rejection accounting exactly
/// across a crash-restart at WAL and snapshot boundaries — replayed
/// rejections re-derive, snapshot-covered rejections are skipped by
/// sequence number, and nothing is ever counted twice.
#[test]
fn quarantine_accounting_survives_crash_restart() {
    let mut case = CrashCase::new(Workload::BusTracker, 0x0BAD_5EED);
    case.days = 1;
    let mut ops = Vec::new();
    for k in 0..120i64 {
        let minute = k * 7;
        if k % 5 == 0 {
            ops.push(DurableOp::Ingest {
                minute,
                sql: format!("SELEC broken {k} ("),
                count: 2,
            });
        }
        ops.push(DurableOp::Ingest {
            minute,
            sql: "SELECT a FROM t WHERE id = 1".into(),
            count: 3 + (k as u64 % 4),
        });
        if k % 40 == 39 {
            ops.push(DurableOp::UpdateClusters { now: minute + 1 });
        }
    }
    ops.push(DurableOp::UpdateClusters { now: case.end() });

    let horizons = [1];
    let widths = [1];
    let (reference, _) = reference_run(&case, &ops, &horizons, &widths);
    assert!(
        reference.health.rejected_statements > 0,
        "the salted stream must actually exercise the quarantine"
    );
    for label in ["point:WalFsync", "point:SnapshotTempSynced", "point:WalRotated", "nth:40"] {
        let (recovered, fired) = run_with_crash(&case, &ops, label, &horizons, &widths);
        assert!(fired, "{label} must crash the run");
        assert_eq!(
            recovered.health, reference.health,
            "{label}: rejection accounting must not double-count across restart"
        );
        assert_eq!(recovered.state, reference.state, "{label}: full state must match");
    }
}

/// Templates that first arrive mid-hour keep that minute while the
/// minutes after it compact into their hours: through a snapshot, a drop
/// and a WAL replay, and one more round after the recovery, the derived
/// values, every feature's `valid_from` and the whole state equal the
/// uncrashed run's. A recovery that kept only the first arrival's hour
/// would move at least one `valid_from`.
#[test]
fn recovery_keeps_each_templates_first_arrival_minute() {
    const TEMPLATES: i64 = 16;
    const HOURS: i64 = 30;
    const SNAPSHOT_HOUR: i64 = 20;
    const CRASH_HOUR: i64 = 26;
    let sql: Vec<String> =
        (0..TEMPLATES).map(|k| format!("SELECT v{k} FROM first_{k} WHERE id = 1")).collect();
    // Template k first arrives in hour k, 13 + 2k minutes in, then every
    // ten minutes on the ten.
    let first = |k: i64| k * 60 + 13 + 2 * k;
    let hour = |p: &mut DurablePipeline, h: i64| {
        let items: Vec<BatchItem<'_>> = (h * 60..h * 60 + 60)
            .flat_map(|t| (0..TEMPLATES).map(move |k| (t, k)))
            .filter(|&(t, k)| t == first(k) || (t > first(k) && t % 10 == 0))
            .map(|(minute, k)| BatchItem { minute, sql: &sql[k as usize], count: 1 + k as u64 % 3 })
            .collect();
        p.ingest_batch(&items).expect("hour batch");
        if h % 6 == 5 {
            p.update_clusters(h * 60 + 60).expect("round");
        }
    };
    let end = HOURS * 60 + 60;
    let finish = |p: &mut DurablePipeline| {
        p.update_clusters(end).expect("round after recovery");
        let state = p.bot().export_state();
        let templates = &state.clusterer.templates;
        let masks: Vec<usize> = templates.iter().map(|t| t.feature.valid_from).collect();
        (derived(p.bot()), masks, state)
    };

    let dir = tmp_dir("first-minute-reference");
    let (mut reference, _) = DurablePipeline::open(plain_durable_config(&dir)).expect("fresh open");
    (0..HOURS).for_each(|h| hour(&mut reference, h));
    let want = finish(&mut reference);
    drop(reference);
    let _ = std::fs::remove_dir_all(&dir);

    let dir = tmp_dir("first-minute-crash");
    let (mut p, _) = DurablePipeline::open(plain_durable_config(&dir)).expect("fresh open");
    for h in 0..CRASH_HOUR {
        hour(&mut p, h);
        if h == SNAPSHOT_HOUR {
            p.snapshot().expect("snapshot");
        }
    }
    drop(p);
    let (mut p, report) = DurablePipeline::open(plain_durable_config(&dir)).expect("recovers");
    assert!(report.snapshot_seq.is_some() && report.frames_replayed > 0, "{report:?}");
    for k in 0..TEMPLATES {
        let id = qb_preprocessor::TemplateId(k as u32);
        let history = &p.bot().preprocessor().template(id).history;
        assert_eq!(history.first_seen(), Some(first(k)), "template {k}'s first minute");
        let kept = history.export_state().raw;
        let compacted = kept.len() > 1 && kept[1].0 >= first(k) + 120;
        assert!(compacted, "template {k}'s next minutes compacted");
    }
    (CRASH_HOUR..HOURS).for_each(|h| hour(&mut p, h));
    let got = finish(&mut p);
    drop(p);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(got.0, want.0, "derived values after recovery");
    assert_eq!(got.1, want.1, "valid_from after recovery");
    assert_eq!(got.2, want.2, "state after recovery");

    // The same features with each first arrival floored to its hour.
    let sampler = qb_clusterer::FeatureSampler::random(
        end,
        qb5000::FEATURE_WINDOW,
        qb5000::FEATURE_POINTS,
        qb5000::FEATURE_INTERVAL,
        qb5000::FEATURE_SEED ^ (end as u64).rotate_left(17),
    );
    let floored: Vec<usize> = (0..TEMPLATES)
        .map(|k| sampler.timestamps().partition_point(|&t| t < first(k) / 60 * 60))
        .collect();
    assert_ne!(want.1, floored, "no sample falls between an hour's start and a first arrival");
}

// ---------------------------------------------------------------------------
// Snapshot size guard
// ---------------------------------------------------------------------------

/// Upper bound on the snapshot of [`snapshot_of_three_bustracker_days_stays_compact`].
/// The payload is deterministic: 39 864 bytes at `STATE_VERSION` 7 with
/// histories that keep an hour of minutes, about 10 % under the bound.
/// Keeping every minute wrote 44 730, version 6 72 630 (every cluster
/// centre and volume), version 5 125 830 (every feature coordinate),
/// version 4 223 637 (its shard-cache slots) and version 3 476 725
/// (fixed-width pairs), so a regression to any of them fails here.
const SNAPSHOT_BYTES_BOUND: u64 = 44_300;

/// Three days of BusTracker at scale 0.02 (3 136 statements), ingested per
/// event and snapshotted once after a cluster update. The snapshot stays
/// under [`SNAPSHOT_BYTES_BOUND`], a reopen loads it without replaying a
/// frame, and a 2 000-frame WAL tail written after it replays in full.
#[test]
fn snapshot_of_three_bustracker_days_stays_compact() {
    const DAYS: u32 = 3;
    const TAIL_FRAMES: usize = 2_000;
    let trace = qb_workloads::TraceConfig { start: 0, days: DAYS, scale: 0.02, seed: 0xD07A61 };
    let events: Vec<_> = Workload::BusTracker.generator(trace).collect();
    let dir = tmp_dir("snapshot-size");

    let (mut p, _) = DurablePipeline::open(plain_durable_config(&dir)).expect("fresh open");
    for ev in &events {
        let _ = p.ingest_weighted(ev.minute, &ev.sql, ev.count);
    }
    p.update_clusters(i64::from(DAYS) * MINUTES_PER_DAY).expect("cluster update");
    p.snapshot().expect("snapshot succeeds");
    let bytes = p.store_stats().last_snapshot_bytes;
    assert!(
        bytes <= SNAPSHOT_BYTES_BOUND,
        "snapshot is {bytes} bytes, over the {SNAPSHOT_BYTES_BOUND}-byte bound"
    );
    let durable_seq = p.durable_seq();
    drop(p);

    let (mut p, report) =
        DurablePipeline::open(plain_durable_config(&dir)).expect("snapshot-only recovery");
    assert_eq!(report.frames_replayed, 0, "the WAL tail is empty after a snapshot");
    assert_eq!(p.durable_seq(), durable_seq, "recovery lands on the durable seq");

    for ev in events.iter().cycle().take(TAIL_FRAMES) {
        let _ = p.ingest_weighted(ev.minute, &ev.sql, ev.count);
    }
    drop(p);
    let (_, report) = DurablePipeline::open(plain_durable_config(&dir)).expect("tail recovery");
    assert_eq!(report.frames_replayed, TAIL_FRAMES as u64, "the whole tail replays");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Cross-version recovery: a checked-in version 6 store
// ---------------------------------------------------------------------------

/// Store directory written by a version 6 build from [`run_store_script`]:
/// one snapshot (`STATE_VERSION` 6) and the WAL tail after it, plus the
/// fallback generation's segment. Its WAL segments end at their last
/// frame: the zero fill that build preallocated after it is trimmed. It
/// holds every cluster centre and volume, the tracked clusters and the
/// manager's cluster key, which version 7 leaves out.
const V6_FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/v6_store");

/// The recovered state of [`V6_FIXTURE`], pinned as FNV-1a of the bytes
/// `encode_pipeline_state` and `encode_manager_state` write for it, and the
/// raw bits of the manager's prediction at [`SCRIPT_END`]. The pins hash
/// encoded bytes, not `Debug` text, so renaming a field of either state
/// type does not move them; a change to what the state holds or to its
/// encoding does.
const STORE_STATE_BYTES_FNV: u64 = 0x4e35_ecc7_3ec7_ab3f;
const STORE_MANAGER_BYTES_FNV: u64 = 0x54c8_a964_21d7_1e38;
const STORE_PREDICTION_BITS: &[u64] = &[0x4027_8f16_4911_0159, 0x4034_040d_7beb_6fa0];

const SCRIPT_SQL: [&str; 5] = [
    "SELECT a FROM t WHERE id = 1",
    "SELECT a FROM t WHERE id = 27",
    "SELECT b, c FROM u WHERE x = 'k' AND y > 2",
    "INSERT INTO t VALUES (3, 'x')",
    "SELEC broken (",
];
/// Snapshot instant of the script, and the end of its WAL tail.
const SCRIPT_SNAPSHOT_HOUR: i64 = 72;
const SCRIPT_END: i64 = 75 * 60;

/// FNV-1a of the bytes `encode` writes.
fn encoded_fnv(encode: impl FnOnce(&mut Enc)) -> u64 {
    let mut e = Enc::new();
    encode(&mut e);
    e.finish()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn script_config(dir: &std::path::Path) -> Qb5000Config {
    Qb5000Config::builder()
        .durability(DurabilityConfig::new(dir).snapshot_every_rounds(u64::MAX))
        .build()
        .expect("fixture config is valid")
}

fn script_manager() -> ForecastManager {
    ForecastManager::new(vec![HorizonSpec::hourly(1)], || Box::new(LinearRegression::default()))
}

/// One scripted hour: a batch, and every sixth hour a late per-event
/// sighting two hours back (out-of-order minutes) and a quarantined one.
fn script_hour(p: &mut DurablePipeline, hour: i64) {
    let base = hour * 60;
    let busy = (8..20).contains(&(hour % 24));
    let owned = [
        (base + 5, SCRIPT_SQL[0], if busy { 30 } else { 3 }),
        (base + 5, SCRIPT_SQL[1], 2),
        (base + 31, SCRIPT_SQL[2], if busy { 4 } else { 20 }),
        (base + 47, SCRIPT_SQL[0], 7 + (hour as u64 % 5)),
    ];
    let batch: Vec<BatchItem<'_>> =
        owned.iter().map(|&(minute, sql, count)| BatchItem { minute, sql, count }).collect();
    p.ingest_batch(&batch).expect("fixture batch");
    if hour % 6 == 5 {
        p.ingest_weighted(base - 113, SCRIPT_SQL[3], 1 + hour as u64 % 3).expect("late sighting");
        assert!(p.ingest_weighted(base, SCRIPT_SQL[4], 1).is_err(), "quarantined");
    }
    if hour % 12 == 11 {
        p.update_clusters(base + 60).expect("fixture round");
    }
}

/// The scripted run the store fixture was written from: 72 hours with
/// rounds and a compaction, then a forecast manager trained, predicting,
/// and snapshotted with the pipeline; then a WAL tail of three more hours
/// with a compaction and a round. Returns the open pipeline.
fn run_store_script(dir: &std::path::Path) -> DurablePipeline {
    let (mut p, report) = DurablePipeline::open(script_config(dir)).expect("fresh fixture dir");
    assert!(!report.recovered());
    for hour in 0..SCRIPT_SNAPSHOT_HOUR {
        script_hour(&mut p, hour);
    }
    let now = SCRIPT_SNAPSHOT_HOUR * 60;
    p.attach_manager(script_manager());
    p.ensure_trained(now).expect("fixture training");
    p.predict_tracked(now, 0);
    p.snapshot().expect("fixture snapshot");
    for hour in SCRIPT_SNAPSHOT_HOUR..SCRIPT_END / 60 {
        script_hour(&mut p, hour);
    }
    p.update_clusters(SCRIPT_END).expect("tail round");
    p
}

/// Recovers `dir`, rebuilds the manager from the recovered state, and
/// returns the pipeline with the recovered manager state and predictions.
fn recover_store(dir: &std::path::Path) -> (DurablePipeline, qb5000::ManagerState, Vec<u64>) {
    let (mut p, report) = DurablePipeline::open(script_config(dir)).expect("fixture recovers");
    let mstate = report.manager.expect("the fixture snapshot carries manager state");
    let mgr = ForecastManager::restore(
        vec![HorizonSpec::hourly(1)],
        || Box::new(LinearRegression::default()),
        mstate.clone(),
        p.bot(),
    )
    .expect("manager restores");
    p.attach_manager(mgr);
    let bits = p
        .manager()
        .expect("attached")
        .predict(p.bot(), SCRIPT_END, 0)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    (p, mstate, bits)
}

fn copy_dir(from: &str, to: &std::path::Path) {
    std::fs::create_dir_all(to).expect("scratch dir");
    for entry in std::fs::read_dir(from).expect("fixture dir listable") {
        let path = entry.expect("fixture entry").path();
        std::fs::copy(&path, to.join(path.file_name().expect("file name"))).expect("copy");
    }
}

/// `STATE_VERSION` of the newest snapshot in `dir` (the payload's first
/// two bytes, after the 22-byte file header).
fn newest_snapshot_version(dir: &std::path::Path) -> u16 {
    let newest = std::fs::read_dir(dir)
        .expect("store dir listable")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "qbs"))
        .max()
        .expect("a snapshot");
    let bytes = std::fs::read(newest).expect("snapshot readable");
    u16::from_le_bytes([bytes[22], bytes[23]])
}

/// What a version 6 store kept of one history at every grain: its total,
/// its last arrival, the hour of its first arrival and its per-hour counts.
type HourView = (u64, Option<i64>, Option<i64>, Vec<f64>);

/// Splits `state` into the state without its histories and the clusterer's
/// `valid_from`s, each history's [`HourView`], and each template's first
/// arrival and `valid_from` (which that arrival's minute decides).
#[allow(clippy::type_complexity)]
fn hour_view(
    mut state: PipelineState,
) -> (PipelineState, Vec<HourView>, Vec<(Option<i64>, usize)>) {
    let mut firsts = Vec::new();
    let views = state
        .pre
        .entries
        .iter_mut()
        .map(|e| {
            let h = ArrivalHistory::from_state(std::mem::take(&mut e.history));
            firsts.push(h.first_seen());
            let hour = |t: Option<i64>| t.map(|t| Interval::HOUR.bucket_start(t));
            let hours = h.dense_series(-MINUTES_PER_DAY, SCRIPT_END + 60, Interval::HOUR);
            (h.total(), h.last_seen(), hour(h.first_seen()), hours)
        })
        .collect();
    let masks = state
        .clusterer
        .templates
        .iter_mut()
        .map(|t| (firsts[t.key as usize], std::mem::take(&mut t.feature.valid_from)))
        .collect();
    (state, views, masks)
}

/// A version 6 store recovers to the pinned pipeline and manager state and
/// prediction bits, to the centres, volumes and tracked clusters restore
/// recomputes, and to the state a run of the same script reaches under
/// this build: the read-only version 6 decoder drops the values version 7
/// leaves out, and the store's `KIND_COMPACT` frames replay as nothing.
/// The version 6 script compacted each history's first arrival into its
/// hour, so there the recovered histories agree with the script's at hour
/// grain (in total, last arrival, first arrival's hour and every hour's
/// count), and a feature's `valid_from` agrees where the first arrival's
/// minute does; elsewhere the recovered one, counted from the hour's start,
/// masks no more samples. Then it snapshots again, as version 7, and the
/// new snapshot recovers to the same state.
#[test]
fn v6_store_fixture_recovers_bit_identically_and_resnapshots_as_v7() {
    assert_eq!(qb5000::STATE_VERSION, 7);
    let dir = tmp_dir("v6-fixture");
    copy_dir(V6_FIXTURE, &dir);
    assert_eq!(newest_snapshot_version(&dir), 6, "the fixture is a version 6 store");

    let (mut p, mstate, bits) = recover_store(&dir);
    let state = p.bot().export_state();
    let recomputed = derived(p.bot());
    assert_eq!(
        encoded_fnv(|e| encode_pipeline_state(e, &state)),
        STORE_STATE_BYTES_FNV,
        "PipelineState as recovered before"
    );
    assert_eq!(
        encoded_fnv(|e| encode_manager_state(e, &mstate)),
        STORE_MANAGER_BYTES_FNV,
        "ManagerState as recovered before"
    );
    assert_eq!(bits, STORE_PREDICTION_BITS, "prediction bits as recovered before");
    assert!(state.pre.entries.iter().any(|e| !e.history.compacted.is_empty()));

    let live_dir = tmp_dir("v6-fixture-live");
    let live = run_store_script(&live_dir);
    assert_eq!(derived(live.bot()), recomputed, "recomputed values == the script's own");
    let (live_rest, live_hours, live_masks) = hour_view(live.bot().export_state());
    let (rest, hours, masks) = hour_view(state.clone());
    assert_eq!(live_rest, rest, "recovered == the script's own end state, but for histories");
    assert_eq!(live_hours, hours, "recovered == the script's own histories at hour grain");
    assert!(live_masks.iter().any(|&(first, _)| first.is_some_and(|t| t % 60 != 0)));
    for ((live_first, live_mask), (first, mask)) in live_masks.into_iter().zip(masks) {
        if live_first == first {
            assert_eq!(live_mask, mask, "valid_from follows the first arrival");
        } else {
            assert!(mask <= live_mask, "valid_from from the first arrival's hour");
        }
    }
    drop(live);
    let _ = std::fs::remove_dir_all(&live_dir);

    p.snapshot().expect("re-snapshot");
    drop(p);
    assert_eq!(newest_snapshot_version(&dir), qb5000::STATE_VERSION);
    let (p, mstate_again, bits_again) = recover_store(&dir);
    assert_eq!(p.bot().export_state(), state, "the new snapshot recovers the same state");
    assert_eq!(derived(p.bot()), recomputed);
    assert_eq!(mstate_again, mstate);
    assert_eq!(bits_again, bits);
    drop(p);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Versions 6 and 7 decode (6 is the fixture's); 2, 3, 5 and 8 are refused
/// before any field is read, with an error naming the versions this build
/// reads.
#[test]
fn payload_versions_other_than_6_and_7_are_refused() {
    let full = FullState {
        pipeline: QueryBot5000::new(Qb5000Config::default()).export_state(),
        manager: None,
        tracer: None,
    };
    let bytes = encode_full_state(&full);
    assert_eq!(bytes[..2], 7u16.to_le_bytes());
    assert_eq!(decode_full_state(&bytes).expect("v7 decodes"), full);
    for version in [2u16, 3, 5, 8] {
        let mut refused = bytes.clone();
        refused[..2].copy_from_slice(&version.to_le_bytes());
        let err = decode_full_state(&refused).expect_err("unknown version");
        let msg = err.to_string();
        assert!(msg.contains(&format!("version {version};")), "{msg}");
        assert!(msg.contains("reads versions 6 and 7"), "{msg}");
    }
}

/// Replays one crash hook from the environment — the target of the
/// `QB_CRASH_HOOK=… cargo test …` repro line a matrix failure prints.
#[test]
#[ignore = "repro entry point; driven by QB_CRASH_HOOK / QB_SIM_* env vars"]
fn crash_point_repro() {
    let hook = std::env::var("QB_CRASH_HOOK").expect("set QB_CRASH_HOOK=point:<IoPoint>|nth:<k>");
    hook_from_label(&hook); // validate early, with a clear panic
    let seed = qb_testkit::sim::seed_from_env().unwrap_or(0xB05_7EC);
    let workload = match std::env::var("QB_SIM_WORKLOAD").as_deref() {
        Ok("Admissions") => Workload::Admissions,
        Ok("MOOC") => Workload::Mooc,
        _ => Workload::BusTracker,
    };
    let mut case = CrashCase::new(workload, seed);
    if let Ok(days) = std::env::var("QB_SIM_DAYS") {
        case.days = days.parse().expect("QB_SIM_DAYS parses");
    }
    case.scale = 0.004;
    case.traced = true;
    let ops = materialize_ops(&case);
    let horizons = [1, 8];
    let widths = [1, 4];
    let (reference, _) = reference_run(&case, &ops, &horizons, &widths);
    let (recovered, fired) = run_with_crash(&case, &ops, &hook, &horizons, &widths);
    if let Err(detail) = qb_testkit::crash::diff(&reference, &recovered) {
        panic!("repro confirms divergence under {hook}: {detail}");
    }
    let run = if fired { "crashed and recovered" } else { "never fired: a clean run" };
    eprintln!("hook {hook} {run}; the result is bit-identical");
}
