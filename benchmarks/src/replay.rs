//! The replayer: set-up, the measured closed loop of hourly rounds, the
//! reader thread of `serve_mixed`, and the output checks.
//!
//! One replayer thread drives the pipeline the way
//! `IndexSelectionExperiment` wires it — ingest → `update_clusters` →
//! `ensure_trained` → `predict` → `publish_forecasts` → advisor — without
//! executing queries in `qb-dbsim`. Untraced and traced runs execute this
//! same code; tracing only keeps the spans and turns the recorder on.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::api::{
    self, Advisor, Minute, Pipeline, PipelineSpec, Pulled, Query, QueryEvent, Reader, RoundMonitor,
    Trained, MINUTES_PER_HOUR,
};
use crate::probes;
use crate::record::{Baseline, Metrics, Record, Timing, FROM_UNTRACED};
use crate::speed::SpeedProbe;
use crate::stats;
use crate::trace::Spans;
use crate::workloads::{Ingest, Trace, WorkloadDef, MAX_MEASURED_HOURS, SNAPSHOT_EVERY_ROUNDS};

/// Set-ups per run; `setup_s` is their median. A workload whose set-up is
/// slow stops repeating once `SETUP_BUDGET` is spent, so every run fits the
/// driver's time cap.
const SETUP_REPS: usize = 3;
const SETUP_BUDGET: Duration = Duration::from_secs(6);

/// Measured statements the traced run keeps for the per-layer probes.
const PROBE_SAMPLE: usize = 20_000;

pub struct Options {
    pub workload: &'static WorkloadDef,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub out_dir: PathBuf,
    /// The paired untraced run; required when traced.
    pub baseline: Option<Baseline>,
}

/// Pool width for ingest batches and fits: `min(nproc, 2)` — less one
/// (but at least one) where a reader thread spins beside the replayer, so
/// the two never compete with pool workers for the same cores. Set
/// explicitly wherever the API takes a width, and pinned into `QB_THREADS`
/// for the stages that size their pools from the environment.
pub fn pool_width(def: &WorkloadDef) -> usize {
    let width = nproc().min(2);
    if def.reader {
        (width - 1).max(1)
    } else {
        width
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Everything a set-up builds and the measured phase continues from.
struct Live {
    pipeline: Pipeline,
    trace: Trace,
    advisor: Option<Advisor>,
    /// Statements rejected during the preload.
    rejected: u64,
    /// Predictions of the preload's closing publish.
    predictions: Vec<(usize, Vec<f64>)>,
    /// Wall time of the set-up, and the same in reference-machine time.
    wall_s: f64,
    reference_s: f64,
}

/// Preload hours between two speed samples during set-up.
const SETUP_SPEED_EVERY_HOURS: i64 = 4;

/// Ingests one simulated minute; returns how many statements were rejected.
fn ingest_tick(pipeline: &mut Pipeline, mode: Ingest, tick: &[QueryEvent]) -> u64 {
    match mode {
        Ingest::PerEvent => pipeline.ingest_each(tick),
        Ingest::PerMinuteBatch => pipeline.ingest_tick(tick),
    }
}

/// Trace generator + database + preload, up to the first measured round:
/// the preload replays ingest and hourly cluster updates, then fits and
/// publishes once so readers and the first round start from live models.
fn set_up(
    opts: &Options,
    durable_dir: Option<PathBuf>,
    probe: &mut SpeedProbe,
) -> Result<Live, String> {
    let def = opts.workload;
    let started = Instant::now();
    let mut segment_started = started;
    let mut speed_before = probe.factor();
    let mut reference_s = 0.0;
    // Closes the segment since the last speed sample at the mean of the
    // two factors around it.
    let mut close_segment = |probe: &mut SpeedProbe| {
        let speed_after = probe.factor();
        reference_s += segment_started.elapsed().as_secs_f64() * 2.0 / (speed_before + speed_after);
        speed_before = speed_after;
        segment_started = Instant::now();
    };
    let mut trace = Trace::new(def, opts.seed);
    let advisor = def.advisor.then(|| Advisor::for_bus_tracker(opts.seed));
    let (mut pipeline, _) = Pipeline::open(PipelineSpec {
        horizons: def.horizons.to_vec(),
        model: def.model,
        width: pool_width(def),
        recorded: opts.traced,
        durable_dir,
    })?;
    let mut events = Vec::new();
    let mut rejected = 0;
    for hour in 0..def.preload_hours {
        let hour_end = (hour + 1) * MINUTES_PER_HOUR;
        trace.next_hour(hour_end, &mut events);
        for tick in events.chunk_by(|a, b| a.minute == b.minute) {
            rejected += ingest_tick(&mut pipeline, def.ingest, tick);
        }
        pipeline.update_clusters(hour_end)?;
        if (hour + 1) % SETUP_SPEED_EVERY_HOURS == 0 {
            close_segment(probe);
        }
    }
    let now = def.preload_hours * MINUTES_PER_HOUR;
    if pipeline.ensure_trained(now) != Trained::Retrained {
        return Err(format!("{}: the preload's first fit did not train", def.name));
    }
    let predictions = pipeline.predict_all(now);
    pipeline.publish(now, &predictions);
    close_segment(probe);
    let wall_s = started.elapsed().as_secs_f64();
    Ok(Live { pipeline, trace, advisor, rejected, predictions, wall_s, reference_s })
}

// ---------------------------------------------------------------------------
// The reader thread
// ---------------------------------------------------------------------------

const RUN: u8 = 0;
const PAUSE: u8 = 1;
const STOP: u8 = 2;

/// One cycle in this many is timed.
const SAMPLE_EVERY_CYCLES: u64 = 1024;
/// Cycles (of four reads) timed together as one latency sample: a single
/// `answer` is a few tens of nanoseconds, the same order as reading the
/// clock, so reads are timed by the block and divided.
const BLOCK_CYCLES: usize = 4;
/// Consecutive reads of one query kind timed as one per-kind sample.
const KIND_BLOCK: usize = 16;

#[derive(Default)]
struct ReaderStats {
    reads: u64,
    misses: u64,
    epoch_regressions: u64,
    epochs_seen: u64,
    max_epoch: u64,
    /// ns per read, one entry per timed block.
    mixed_ns: Vec<f64>,
    topk_ns: Vec<f64>,
    cluster_ns: Vec<f64>,
    template_ns: Vec<f64>,
}

impl ReaderStats {
    #[inline]
    fn read(&mut self, reader: &Reader, query: &Query) {
        let (epoch, found) = reader.answer(query);
        self.reads += 1;
        self.misses += u64::from(!found);
        if epoch > self.max_epoch {
            self.max_epoch = epoch;
            self.epochs_seen += 1;
        } else if epoch < self.max_epoch {
            self.epoch_regressions += 1;
        }
    }

    fn timed_block(&mut self, reader: &Reader, queries: &[Query], repeats: usize) -> f64 {
        let started = Instant::now();
        for _ in 0..repeats {
            for query in queries {
                self.read(reader, query);
            }
        }
        started.elapsed().as_nanos() as f64 / (repeats * queries.len()) as f64
    }
}

/// The cycle of four reads: `top_k(3,0)`, `cluster(c0,0)`,
/// `cluster(c1,last slot)`, `template(t,0)`, where `c0`, `c1` are the first
/// two served clusters and `t` a member of `c0`.
fn read_cycle(reader: &Reader, last_slot: usize) -> Option<[Query; 4]> {
    let (c0, c1, template) = reader.targets()?;
    Some([
        Query::top_k(3, 0),
        Query::cluster(c0, 0),
        Query::cluster(c1, last_slot),
        Query::template(template, 0),
    ])
}

/// A closed loop over [`read_cycle`] until told to stop, re-aiming the
/// cycle at the served membership whenever a new epoch shows up; parked
/// while the replayer generates the next hour, so reads are counted over
/// measured wall time only.
fn reader_loop(
    reader: Reader,
    mut cycle: [Query; 4],
    last_slot: usize,
    control: Arc<AtomicU8>,
) -> ReaderStats {
    let mut stats = ReaderStats::default();
    let mut cycles = 0u64;
    loop {
        // Relaxed: the flag orders nothing but this loop's own pacing.
        match control.load(Ordering::Relaxed) {
            STOP => break,
            PAUSE => {
                std::thread::park();
                continue;
            }
            _ => {}
        }
        let epochs_before = stats.epochs_seen;
        if cycles.is_multiple_of(SAMPLE_EVERY_CYCLES) {
            let mixed = stats.timed_block(&reader, &cycle, BLOCK_CYCLES);
            stats.mixed_ns.push(mixed);
            let topk = stats.timed_block(&reader, &cycle[0..1], KIND_BLOCK);
            stats.topk_ns.push(topk);
            let cluster = stats.timed_block(&reader, &cycle[1..3], KIND_BLOCK / 2);
            stats.cluster_ns.push(cluster);
            let template = stats.timed_block(&reader, &cycle[3..4], KIND_BLOCK);
            stats.template_ns.push(template);
        } else {
            for query in &cycle {
                stats.read(&reader, query);
            }
        }
        if stats.epochs_seen != epochs_before {
            cycle = read_cycle(&reader, last_slot).unwrap_or(cycle);
        }
        cycles += 1;
    }
    stats
}

struct ReaderThread {
    control: Arc<AtomicU8>,
    handle: JoinHandle<ReaderStats>,
}

impl ReaderThread {
    /// Starts parked; the replayer resumes it at the first measured hour.
    fn spawn(pipeline: &Pipeline) -> Result<Self, String> {
        let reader = pipeline.reader();
        let last_slot = pipeline.slots() - 1;
        let cycle =
            read_cycle(&reader, last_slot).ok_or("reader: nothing is served after the preload")?;
        let control = Arc::new(AtomicU8::new(PAUSE));
        let thread_control = Arc::clone(&control);
        let handle = std::thread::Builder::new()
            .name("reader".into())
            .spawn(move || reader_loop(reader, cycle, last_slot, thread_control))
            .map_err(|e| format!("reader thread: {e}"))?;
        Ok(Self { control, handle })
    }

    fn set(&self, state: u8) {
        self.control.store(state, Ordering::Relaxed);
        self.handle.thread().unpark();
    }

    fn stop(self) -> Result<ReaderStats, String> {
        self.set(STOP);
        self.handle.join().map_err(|_| "reader thread panicked".to_string())
    }
}

// ---------------------------------------------------------------------------
// The measured phase
// ---------------------------------------------------------------------------

/// Raw samples of the measured phase, reduced to metrics afterwards.
#[derive(Default)]
struct Samples {
    rounds: u32,
    statements: u64,
    arrivals: u64,
    rejected: u64,
    measured: Duration,
    /// Time inside ingest calls, shift-triggered rebuilds included.
    ingest: Duration,
    /// The machine's speed factor around each round, and the same three
    /// times in reference-machine seconds (wall ÷ that round's factor).
    speed: Vec<f64>,
    measured_ref_s: f64,
    ingest_ref_s: f64,
    round_ref_ms: Vec<f64>,
    cumulative_ref_s: Vec<f64>,
    /// Ticks that fired no shift trigger.
    tick_us: Vec<f64>,
    shift_triggers: u64,
    shift_rebuild: Duration,
    /// Per tick that minted templates: its duration ÷ templates minted.
    new_template_us: Vec<f64>,
    round_ms: Vec<f64>,
    update_ms: Vec<f64>,
    ensure_trained: Duration,
    retrain_ms: Vec<f64>,
    untrained_rounds: u64,
    predict_us: Vec<f64>,
    publish_us: Vec<f64>,
    visible_ns: Vec<f64>,
    invisible_publishes: u64,
    workload_us: Vec<f64>,
    advisor_ms: Vec<f64>,
    advisor_statements: u64,
    snapshot_ms: Vec<f64>,
    failed_snapshots: u64,
    monitor_us: Vec<f64>,
    /// Sum of the spans directly under an hour, for `trace.unattributed_s`.
    attributed: Duration,
    /// Bytes appended to the WAL over the measured phase.
    wal_bytes: u64,
    digest: Option<u64>,
}

/// Runs one adapter call inside a span of the current round and counts its
/// time as attributed.
fn timed<R>(
    spans: &mut Spans,
    s: &mut Samples,
    name: &'static str,
    call: impl FnOnce() -> R,
) -> (R, Duration) {
    let span = spans.begin(name, s.rounds);
    let result = std::hint::black_box(call());
    let took = spans.end(span);
    s.attributed += took;
    (result, took)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// FNV-1a over the words that define the forecasting state.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Template count, tracked-cluster membership and prediction bits.
fn state_digest(pipeline: &Pipeline, predictions: &[(usize, Vec<f64>)]) -> u64 {
    let mut h = Fnv::new();
    h.word(pipeline.num_templates() as u64);
    for (cluster, members) in pipeline.tracked_membership() {
        h.word(cluster);
        h.word(members.len() as u64);
        members.iter().for_each(|&m| h.word(u64::from(m)));
    }
    for (slot, values) in predictions {
        h.word(*slot as u64);
        values.iter().for_each(|v| h.word(v.to_bits()));
    }
    h.0
}

struct Measured {
    samples: Samples,
    reader: Option<ReaderStats>,
    /// The first measured statements, kept by the traced run for probes.
    probe_events: Vec<QueryEvent>,
    last_round_end: Minute,
}

fn measure(
    opts: &Options,
    live: &mut Live,
    spans: &mut Spans,
    probe: &mut SpeedProbe,
) -> Result<Measured, String> {
    let def = opts.workload;
    let mut s = Samples::default();
    let mut events: Vec<QueryEvent> = Vec::new();
    let mut probe_events = Vec::new();
    let mut monitor = (opts.traced && def.reader)
        .then(|| RoundMonitor::with_default_slos(def.horizons.len()))
        .transpose()?;
    let reader_thread = def.reader.then(|| ReaderThread::spawn(&live.pipeline)).transpose()?;
    let visible_reader = live.pipeline.reader();
    let visible_query = Query::top_k(1, 0);
    // WAL growth is read from the directory, in the traced run only.
    let wal_dir = live.pipeline.durable_dir().filter(|_| opts.traced);
    let mut wal_mark = wal_dir.as_deref().map_or(0, api::wal_bytes);
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut hour = def.preload_hours;
    let pipeline = &mut live.pipeline;
    let mut speed_before = probe.factor();

    while hour < def.preload_hours + MAX_MEASURED_HOURS {
        let round = s.rounds;
        let hour_end = (hour + 1) * MINUTES_PER_HOUR;
        live.trace.next_hour(hour_end, &mut events);
        if opts.traced && probe_events.len() < PROBE_SAMPLE {
            probe_events.extend(events.iter().take(PROBE_SAMPLE - probe_events.len()).cloned());
        }
        if let Some(reader) = &reader_thread {
            reader.set(RUN);
        }

        let hour_span = spans.begin("hour", round);
        let ingest_before = s.ingest;
        for tick in events.chunk_by(|a, b| a.minute == b.minute) {
            let templates_before = pipeline.num_templates();
            let shifts_before = pipeline.shift_triggers();
            let (rejected, took) =
                timed(spans, &mut s, "ingest_tick", || ingest_tick(pipeline, def.ingest, tick));
            s.rejected += rejected;
            s.ingest += took;
            let fired = pipeline.shift_triggers() - shifts_before;
            if fired > 0 {
                s.shift_triggers += fired;
                s.shift_rebuild += took;
            } else {
                s.tick_us.push(us(took));
            }
            let minted = pipeline.num_templates() - templates_before;
            if minted > 0 {
                s.new_template_us.push(us(took) / minted as f64);
            }
        }

        // The round: hour boundary reached → clusters updated, every
        // horizon current, forecasts published and visible to a reader at
        // the new epoch, advisor returned.
        let round_span = spans.begin("round", round);
        let (updated, took) =
            timed(spans, &mut s, "update_clusters", || pipeline.update_clusters(hour_end));
        updated?;
        s.update_ms.push(ms(took));

        let (trained, took) =
            timed(spans, &mut s, "ensure_trained", || pipeline.ensure_trained(hour_end));
        s.ensure_trained += took;
        if trained == Trained::Retrained {
            s.retrain_ms.push(ms(took));
        }
        if trained == Trained::Untrained || !pipeline.is_current() {
            s.untrained_rounds += 1;
        }

        let (predictions, took) =
            timed(spans, &mut s, "predict", || pipeline.predict_all(hour_end));
        s.predict_us.push(us(took));

        let (epoch, took) =
            timed(spans, &mut s, "publish_forecasts", || pipeline.publish(hour_end, &predictions));
        s.publish_us.push(us(took));

        let ((seen_epoch, _), took) =
            timed(spans, &mut s, "reader_visible", || visible_reader.answer(&visible_query));
        s.visible_ns.push(took.as_nanos() as f64);
        s.invisible_publishes += u64::from(seen_epoch != epoch);

        if let Some(advisor) = &live.advisor {
            let (workload, took) = timed(spans, &mut s, "predicted_workload", || {
                pipeline.predicted_workload(hour_end, &predictions)
            });
            s.workload_us.push(us(took));
            s.advisor_statements += workload.len() as u64;
            let (_, took) = timed(spans, &mut s, "advisor_select", || advisor.select(&workload));
            s.advisor_ms.push(ms(took));
        }
        let round_took = spans.end(round_span);
        s.round_ms.push(ms(round_took));

        s.statements += events.len() as u64;
        s.arrivals += events.iter().map(|ev| ev.count).sum::<u64>();
        if def.durable && (round + 1) % SNAPSHOT_EVERY_ROUNDS == 0 {
            // A snapshot rotates and prunes WAL segments, so bytes appended
            // are summed between snapshots.
            if let Some(dir) = &wal_dir {
                s.wal_bytes += api::wal_bytes(dir).saturating_sub(wal_mark);
            }
            let (snapshot, took) = timed(spans, &mut s, "snapshot", || pipeline.snapshot());
            s.failed_snapshots += u64::from(snapshot.is_err());
            s.snapshot_ms.push(ms(took));
            if let Some(dir) = &wal_dir {
                wal_mark = api::wal_bytes(dir);
            }
        }
        if let Some(monitor) = &mut monitor {
            let (_, took) = timed(spans, &mut s, "monitor_observe", || {
                monitor.observe_round(u64::from(round) + 1, pipeline)
            });
            s.monitor_us.push(us(took));
        }
        let hour_took = spans.end(hour_span);
        s.measured += hour_took;
        if let Some(reader) = &reader_thread {
            reader.set(PAUSE);
        }

        let speed_after = probe.factor();
        let speed = (speed_before + speed_after) / 2.0;
        speed_before = speed_after;
        s.speed.push(speed);
        s.measured_ref_s += hour_took.as_secs_f64() / speed;
        s.ingest_ref_s += (s.ingest - ingest_before).as_secs_f64() / speed;
        s.round_ref_ms.push(ms(round_took) / speed);
        s.cumulative_ref_s.push(s.measured_ref_s);
        s.rounds += 1;
        hour += 1;
        live.predictions = predictions;
        if s.rounds == def.digest_round {
            s.digest = Some(state_digest(pipeline, &live.predictions));
        }
        if s.measured >= budget && s.rounds >= def.digest_round {
            break;
        }
    }
    if let Some(dir) = &wal_dir {
        s.wal_bytes += api::wal_bytes(dir).saturating_sub(wal_mark);
    }
    let reader = reader_thread.map(ReaderThread::stop).transpose()?;
    Ok(Measured { samples: s, reader, probe_events, last_round_end: hour * MINUTES_PER_HOUR })
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

fn same_bits(a: &Pulled, b: &Pulled) -> bool {
    let bits = |p: &Pulled| -> Vec<(usize, Vec<(u64, u64)>)> {
        p.iter()
            .map(|(slot, rates)| (*slot, rates.iter().map(|&(c, r)| (c, r.to_bits())).collect()))
            .collect()
    };
    bits(a) == bits(b)
}

/// At the final epoch every served curve equals the manager's prediction
/// bit for bit; on LR workloads also a synchronous fit-and-pull, which is
/// returned for the recovery check.
fn check_served(
    def: &WorkloadDef,
    pipeline: &Pipeline,
    predictions: &[(usize, Vec<f64>)],
    now: Minute,
    failures: &mut Vec<String>,
) -> Option<Pulled> {
    let reader = pipeline.reader();
    let clusters = pipeline.serving_clusters();
    let epoch = pipeline.epoch();
    for (slot, values) in predictions {
        for (&cluster, predicted) in clusters.iter().zip(values) {
            let (served_epoch, served) = reader.served_rate(cluster, *slot);
            if served_epoch != epoch || served.map(f64::to_bits) != Some(predicted.to_bits()) {
                failures.push(format!(
                    "served curve of cluster {cluster} slot {slot} at epoch {served_epoch} is \
                     {served:?}, the manager predicted {predicted} (epoch {epoch})"
                ));
            }
        }
    }
    if def.model != api::Model::Lr {
        return None;
    }
    let pulled = pipeline.refit_lr_at(now).and_then(|()| pipeline.sync_pull(now));
    match pulled {
        Err(e) => {
            failures.push(e);
            None
        }
        Ok(pulled) => {
            for (slot, rates) in &pulled {
                for &(cluster, rate) in rates {
                    let (_, served) = reader.served_rate(cluster, *slot);
                    if served.map(f64::to_bits) != Some(rate.to_bits()) {
                        failures.push(format!(
                            "served curve of cluster {cluster} slot {slot} is {served:?}, a \
                             synchronous fit-and-pull gives {rate}"
                        ));
                    }
                }
            }
            Some(pulled)
        }
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    stats::sort(&mut values);
    values
}

fn set_percentile(m: &mut Metrics, name: &'static str, sorted: &[f64], p: f64) {
    m.set(name, stats::percentile_sorted(sorted, p), sorted.len() as u64);
}

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

pub fn run(opts: &Options) -> Result<Record, String> {
    let def = opts.workload;
    let width = pool_width(def);
    // Stages that size their pool from the environment (cluster feature
    // extraction, the durable batch path) get the same explicit width; the
    // caller's QB_THREADS is never read. No thread exists yet.
    std::env::set_var("QB_THREADS", width.to_string());
    let mode = if opts.traced { "traced" } else { "untraced" };
    let durable_root = opts.out_dir.join(format!("{}.{mode}.{}.d", def.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&durable_root);

    // --- set-up, several times; the last one is measured ------------------
    let mut probe = SpeedProbe::new();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut setup_ref_s = Vec::with_capacity(SETUP_REPS);
    let mut live = None;
    let setups_started = Instant::now();
    for rep in 0..SETUP_REPS {
        if rep > 0 && setups_started.elapsed() >= SETUP_BUDGET {
            break;
        }
        drop(live.take());
        let dir = def.durable.then(|| durable_root.join(format!("setup{rep}")));
        let fresh = set_up(opts, dir, &mut probe)?;
        setup_s.push(fresh.wall_s);
        setup_ref_s.push(fresh.reference_s);
        live = Some(fresh);
    }
    let mut live = live.expect("the first set-up always runs");
    let setup_statements = live.trace.generated_statements;
    let obs_before = probes::ObsTotals::read(&live.pipeline);

    // --- measured phase ---------------------------------------------------
    let mut spans = Spans::new(opts.traced);
    let Measured { samples: s, reader, probe_events, last_round_end } =
        measure(opts, &mut live, &mut spans, &mut probe)?;
    let measured_s = s.measured.as_secs_f64();
    let obs = probes::ObsTotals::read(&live.pipeline).since(&obs_before);

    // --- output checks ----------------------------------------------------
    let mut failures = Vec::new();
    let sent = setup_statements + s.statements;
    let (ingested, quarantined) = live.pipeline.ingest_accounting();
    if ingested + quarantined != sent || quarantined != 0 {
        failures.push(format!(
            "ingest accounting: sent {sent}, ingested {ingested}, quarantined {quarantined}"
        ));
    }
    let pulled =
        check_served(def, &live.pipeline, &live.predictions, last_round_end, &mut failures);
    let final_epoch = live.pipeline.epoch();
    let (reads, bad_reads) = reader.as_ref().map_or((0, 0), |r| (r.reads, r.epoch_regressions));
    if let Some(r) = &reader {
        if r.epoch_regressions > 0 || r.max_epoch > final_epoch {
            failures.push(format!(
                "reader epochs: {} regressions, highest seen {} vs published {final_epoch}",
                r.epoch_regressions, r.max_epoch
            ));
        }
    }
    let Some(digest) = s.digest else {
        return Err(format!("{}: the trace ended before round {}", def.name, def.digest_round));
    };
    if let Some(expected) = opts.baseline.as_ref().and_then(|b| b.state_digest) {
        if expected != digest {
            failures.push(format!(
                "state_digest {digest:016x} differs from the untraced run's {expected:016x}"
            ));
        }
    }

    let mut m = Metrics::default();

    // --- durable_bus: drop the pipeline and recover -----------------------
    let mut failed_recoveries = 0;
    let mut pipeline = live.pipeline;
    if def.durable {
        let snapshot_bytes = pipeline.last_snapshot_bytes();
        let before = pipeline.pipeline_state();
        let spec = pipeline.close();
        let started = Instant::now();
        let (recovered, report) = Pipeline::open(spec)?;
        let recovery_ms = ms(started.elapsed());
        pipeline = recovered;
        let repulled = pipeline.sync_pull(last_round_end).ok();
        let same_forecasts = matches!((&pulled, &repulled), (Some(a), Some(b)) if same_bits(a, b));
        if !report.from_snapshot || pipeline.pipeline_state() != before || !same_forecasts {
            failed_recoveries += 1;
            failures.push("recovered state differs from the state before the drop".into());
        }
        m.set("durable.recovery_ms", recovery_ms, 1);
        m.set("durable.frames_replayed", report.frames_replayed as f64, 1);
        m.set("durable.snapshot_bytes", snapshot_bytes as f64, 1);
        if opts.traced {
            pipeline = probes::durable(pipeline, last_round_end, recovery_ms, &mut m)?;
        }
    }

    // --- end-to-end metrics -----------------------------------------------
    let rounds = u64::from(s.rounds);
    // Timings are in reference-machine time (see `speed`); the same
    // quantities in plain wall time follow as `core.wall_*`.
    let run_speed = measured_s / s.measured_ref_s;
    let setups = setup_s.len() as u64;
    m.set("setup_s", stats::median(&mut setup_ref_s), setups);
    m.set("loop_stmts_per_s", s.statements as f64 / s.measured_ref_s, s.statements);
    m.set("ingest_stmts_per_s", s.statements as f64 / s.ingest_ref_s, s.statements);
    m.set("round_mean_ms", s.round_ref_ms.iter().sum::<f64>() / f64::from(s.rounds), rounds);
    m.set("core.speed_factor", run_speed, rounds);
    m.set("core.wall_setup_s", stats::median(&mut setup_s), setups);
    m.set("core.wall_loop_stmts_per_s", s.statements as f64 / measured_s, s.statements);
    m.set(
        "core.wall_ingest_stmts_per_s",
        s.statements as f64 / s.ingest.as_secs_f64(),
        s.statements,
    );
    let mut timings = Vec::new();
    let round_ms = sorted(s.round_ms);
    timings.push(Timing::of("round_ms", "ms", &round_ms));
    // `round_mean_ms` is a mean, not a median: rounds that retrain and
    // rounds that find the models current form two modes, and a median
    // flips between them.
    m.set("core.wall_round_mean_ms", round_ms.iter().sum::<f64>() / round_ms.len() as f64, rounds);
    set_percentile(&mut m, "core.round_ms_p50", &round_ms, 0.5);
    set_percentile(&mut m, "core.round_ms_p90", &round_ms, 0.9);
    let publish_us = sorted(s.publish_us);
    timings.push(Timing::of("publish_us", "us", &publish_us));
    set_percentile(&mut m, "serve.publish_us_p50", &publish_us, 0.5);

    // End-to-end quantities only some workloads have (plain wall time: a
    // read never leaves the L1 cache and does not slow with the kernel);
    // the traced run's record takes them from its untraced pair further down.
    if let Some(r) = &reader {
        let mixed = sorted(r.mixed_ns.clone());
        timings.push(Timing::of("read_ns", "ns", &mixed));
        m.set("serve.reads_per_s", r.reads as f64 / measured_s, r.reads);
        set_percentile(&mut m, "serve.read_p50_ns", &mixed, 0.5);
        set_percentile(&mut m, "serve.read_p99_ns", &mixed, 0.99);
    }
    let snapshot_ms = sorted(s.snapshot_ms);
    if !snapshot_ms.is_empty() {
        timings.push(Timing::of("snapshot_ms", "ms", &snapshot_ms));
        set_percentile(&mut m, "durable.snapshot_p50_ms", &snapshot_ms, 0.5);
    }

    // --- per-layer metrics from spans, counts and stage histograms --------
    m.set(
        "workloads.gen_stmts_per_s",
        live.trace.generated_statements as f64 / live.trace.generation_time.as_secs_f64(),
        live.trace.generated_statements,
    );
    m.set("preprocessor.templates", pipeline.num_templates() as f64, 1);
    m.set("preprocessor.quarantined", quarantined as f64, 1);
    set_percentile(&mut m, "preprocessor.new_template_us_p50", &sorted(s.new_template_us), 0.5);
    m.set("core.rounds", f64::from(s.rounds), 1);
    m.set("core.statements", s.statements as f64, 1);
    m.set("core.measured_wall_s", measured_s, rounds);
    let tick_us = sorted(s.tick_us);
    timings.push(Timing::of("ingest_tick_us", "us", &tick_us));
    let ingest_busy_s = (s.ingest - s.shift_rebuild).as_secs_f64();
    m.set("core.ingest_busy_s", ingest_busy_s, tick_us.len() as u64);
    set_percentile(&mut m, "core.ingest_tick_us_p50", &tick_us, 0.5);
    set_percentile(&mut m, "core.ingest_tick_us_p99", &tick_us, 0.99);
    m.set("core.shift_triggers", s.shift_triggers as f64, 1);
    m.set("core.shift_rebuild_s", s.shift_rebuild.as_secs_f64(), s.shift_triggers);
    let update_ms = sorted(s.update_ms);
    let update_busy_s = update_ms.iter().sum::<f64>() / 1e3;
    m.set("core.update_clusters_busy_s", update_busy_s, rounds);
    set_percentile(&mut m, "core.update_clusters_ms_p50", &update_ms, 0.5);
    set_percentile(&mut m, "core.update_clusters_ms_p90", &update_ms, 0.9);
    let clusterer_update = obs.get("clusterer.update");
    m.set("core.update_clusters_self_s", update_busy_s - clusterer_update.0, rounds);
    set_percentile(&mut m, "core.predicted_workload_us_p50", &sorted(s.workload_us), 0.5);
    for (name, stage) in [
        ("clusterer.update_s", "clusterer.update"),
        ("clusterer.kdtree_build_s", "clusterer.kdtree_build"),
        ("clusterer.assign_s", "clusterer.assign"),
        ("clusterer.merge_s", "clusterer.merge"),
        ("forecast.fit_h0_s", "forecast.fit.h0"),
        ("forecast.fit_h1_s", "forecast.fit.h1"),
    ] {
        let (secs, count) = obs.get(stage);
        m.set(name, secs, count);
    }
    m.set("clusterer.clusters", pipeline.num_clusters() as f64, 1);
    m.set("manager.ensure_trained_busy_s", s.ensure_trained.as_secs_f64(), rounds);
    let retrain_ms = sorted(s.retrain_ms);
    set_percentile(&mut m, "manager.retrain_ms_p50", &retrain_ms, 0.5);
    set_percentile(&mut m, "manager.retrain_ms_p90", &retrain_ms, 0.9);
    m.set("manager.retrains", retrain_ms.len() as f64, rounds);
    m.set("manager.retrain_ratio", retrain_ms.len() as f64 / f64::from(s.rounds), rounds);
    set_percentile(&mut m, "manager.predict_us_p50", &sorted(s.predict_us), 0.5);
    set_percentile(&mut m, "serve.publish_us_p90", &publish_us, 0.9);
    let (publish_s, publishes) = obs.get("serve.publish");
    m.set("serve.publishes", publishes as f64, 1);
    m.set("serve.publish_obs_mean_us", publish_s * 1e6 / publishes.max(1) as f64, publishes);
    set_percentile(&mut m, "serve.visible_check_ns_p50", &sorted(s.visible_ns), 0.5);
    if let Some(r) = reader {
        set_percentile(&mut m, "serve.read_topk_ns_p50", &sorted(r.topk_ns), 0.5);
        set_percentile(&mut m, "serve.read_cluster_ns_p50", &sorted(r.cluster_ns), 0.5);
        set_percentile(&mut m, "serve.read_template_ns_p50", &sorted(r.template_ns), 0.5);
        m.set("serve.reader_epochs_seen", r.epochs_seen as f64, 1);
        m.set("serve.read_miss_ratio", r.misses as f64 / r.reads.max(1) as f64, r.reads);
    }
    set_percentile(&mut m, "dbsim.advisor_select_ms_p50", &sorted(s.advisor_ms), 0.5);
    m.set("dbsim.advisor_statements", s.advisor_statements as f64 / f64::from(s.rounds), rounds);
    if def.durable {
        m.set(
            "durable.ingest_tick_us_p50",
            stats::percentile_sorted(&tick_us, 0.5),
            tick_us.len() as u64,
        );
        m.set("durable.wal_bytes_per_stmt", s.wal_bytes as f64 / s.statements as f64, s.statements);
    }
    set_percentile(&mut m, "monitor.observe_round_us_p50", &sorted(s.monitor_us), 0.5);
    let unattributed_s = (s.measured - s.attributed).as_secs_f64();
    m.set("trace.spans", spans.len() as f64, 1);
    m.set("trace.unattributed_s", unattributed_s, rounds);
    m.set("trace.unattributed_pct", 100.0 * unattributed_s / measured_s, rounds);

    // --- traced only: probes, the pairing with the untraced run, the trace -
    if opts.traced {
        let baseline = opts.baseline.as_ref().ok_or("a traced run needs --baseline")?;
        let core_ingest_us = ingest_busy_s * 1e6 / s.statements as f64;
        probes::layers(
            def,
            &pipeline,
            live.advisor.as_ref(),
            &probe_events,
            last_round_end,
            core_ingest_us,
            &mut m,
        )?;
        // Same work on both sides: the wall after the last round both ran.
        let common = s.cumulative_ref_s.len().min(baseline.cumulative_ref_s.len());
        let overhead_pct = match common.checked_sub(1) {
            Some(i) => 100.0 * (s.cumulative_ref_s[i] / baseline.cumulative_ref_s[i] - 1.0),
            None => 0.0,
        };
        m.set("trace.overhead_pct", overhead_pct, common as u64);
        for name in FROM_UNTRACED {
            if let Some(v) = baseline.metrics.get(name) {
                m.set(name, v.value, v.n);
            }
        }
        let path = opts.out_dir.join(format!("{}.trace.json", def.name));
        std::fs::write(&path, spans.chrome_json(def.name))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    m.set("peak_rss_mb", peak_rss_mb(), 1);

    drop(pipeline);
    let _ = std::fs::remove_dir_all(&durable_root);

    let publishes = publish_us.len() as u64;
    let snapshots = snapshot_ms.len() as u64;
    let recoveries = u64::from(def.durable);
    Ok(Record {
        workload: def.name,
        traced: opts.traced,
        seed: opts.seed,
        seconds: opts.seconds,
        commit: std::env::var("QB_E2E_COMMIT").unwrap_or_else(|_| "unknown".into()),
        rustc: std::env::var("QB_E2E_RUSTC").unwrap_or_else(|_| "unknown".into()),
        nproc: nproc(),
        pool_width: width,
        rounds: s.rounds,
        statements: s.statements,
        weighted_arrivals: s.arrivals,
        state_digest: digest,
        attempted: sent + rounds + publishes + reads + snapshots + recoveries,
        failed: live.rejected
            + s.rejected
            + s.untrained_rounds
            + s.invisible_publishes
            + s.failed_snapshots
            + failed_recoveries
            + bad_reads,
        check_failures: failures,
        metrics: m,
        timings,
        cumulative_ref_s: s.cumulative_ref_s,
    })
}
