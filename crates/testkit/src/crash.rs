//! Crash-point sweep harness for the durability layer.
//!
//! The durability contract is absolute: a process killed at *any* I/O
//! boundary, then recovered from its directory, must end the run in a
//! state bit-identical to a process that never crashed — same
//! [`PipelineState`], same [`PipelineHealth`], same forecasts at every
//! thread width, same deterministic trace stream. This module turns that
//! sentence into a sweep:
//!
//! 1. [`materialize_ops`] renders a seeded workload into the exact durable
//!    operation list a run performs (sightings + cluster-update rounds),
//!    so a crashed run knows where to resume: operation `k` carries WAL
//!    sequence `k + 1`, and recovery's `durable_seq` is therefore the
//!    index of the first operation the disk never saw.
//! 2. [`reference_run`] replays the list crash-free and fingerprints the
//!    result ([`RunFingerprint`]).
//! 3. [`run_crash_matrix`] replays the same list once per labeled crash
//!    hook ([`crash_hooks`] covers every [`IoPoint`] plus evenly-spaced
//!    nth-I/O samples), kills the pipeline where the hook fires, recovers
//!    from disk, resumes at `ops[durable_seq..]`, and diffs the final
//!    fingerprint, and [`derived`] right after recovery, against the
//!    reference. Any divergence is a [`CrashFailure`] carrying a
//!    copy-pasteable repro command.

use std::path::PathBuf;

use qb5000::{
    DurabilityConfig, DurablePipeline, FaultHook, ForecastManager, HorizonSpec, IoPoint,
    PipelineHealth, PipelineState, Qb5000Config, Qb5000ConfigBuilder, QueryBot5000,
    RetrainOutcome, Tracer,
};
use qb_forecast::LinearRegression;
use qb_timeseries::{Interval, Minute, MINUTES_PER_DAY};
use qb_workloads::{TraceConfig, Workload};

/// One fully-seeded crash-sweep case.
#[derive(Debug, Clone)]
pub struct CrashCase {
    pub workload: Workload,
    /// Seeds the trace generator.
    pub seed: u64,
    pub days: u32,
    pub scale: f64,
    /// Minutes between explicit cluster-update rounds.
    pub update_every: Minute,
    /// Snapshot policy handed to [`DurabilityConfig`].
    pub snapshot_every_rounds: u64,
    /// Replay with an enabled [`Tracer`] and compare the deterministic
    /// event streams too.
    pub traced: bool,
}

impl CrashCase {
    pub fn new(workload: Workload, seed: u64) -> Self {
        Self {
            workload,
            seed,
            days: 2,
            scale: 0.02,
            update_every: 12 * 60,
            snapshot_every_rounds: 1,
            traced: false,
        }
    }

    /// End of the trace — the instant forecasts are fingerprinted at.
    pub fn end(&self) -> Minute {
        self.days as i64 * MINUTES_PER_DAY
    }
}

/// One durable operation, in replay order. Operation `k` of the list is
/// WAL sequence `k + 1`.
#[derive(Debug, Clone, PartialEq)]
pub enum DurableOp {
    Ingest { minute: Minute, sql: String, count: u64 },
    UpdateClusters { now: Minute },
}

/// Renders the case's workload into the durable operation list: every
/// sighting in trace order, with a cluster-update round at each
/// `update_every` boundary and one closing round at the end of the trace.
pub fn materialize_ops(case: &CrashCase) -> Vec<DurableOp> {
    let trace = TraceConfig {
        start: 0,
        days: case.days,
        scale: case.scale,
        seed: case.seed,
    };
    let mut ops = Vec::new();
    let mut next_update = case.update_every;
    for ev in case.workload.generator(trace) {
        while ev.minute >= next_update {
            ops.push(DurableOp::UpdateClusters { now: next_update });
            next_update += case.update_every;
        }
        ops.push(DurableOp::Ingest { minute: ev.minute, sql: ev.sql, count: ev.count });
    }
    ops.push(DurableOp::UpdateClusters { now: case.end() });
    ops
}

/// Everything a finished run is judged by.
#[derive(Debug, Clone, PartialEq)]
pub struct RunFingerprint {
    pub state: PipelineState,
    pub derived: Derived,
    pub health: PipelineHealth,
    /// `forecasts[width_idx][horizon_idx]` as raw f64 bits — bit-identical
    /// means equal here.
    pub forecasts: Vec<Vec<Vec<u64>>>,
    /// [`qb5000::TraceView::deterministic_stream`] when the case is
    /// traced; empty otherwise.
    pub trace_stream: String,
    /// [`derived`] keyed by the count of operations applied: in a reference
    /// run at the start and after each operation that changes it (a round,
    /// or a sighting whose shift trigger re-clusters); in a crashed run
    /// once, right after recovery, before a round could recompute it.
    pub derived_at: Vec<(usize, Derived)>,
}

/// A divergence between a crashed-and-recovered run and the reference.
#[derive(Debug)]
pub struct CrashFailure {
    pub case: CrashCase,
    /// Label of the crash hook that exposed the divergence.
    pub hook: String,
    pub detail: String,
}

impl std::fmt::Display for CrashFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "durability invariant violated: {}", self.detail)?;
        writeln!(f, "  case: {:?}", self.case)?;
        writeln!(f, "  crash hook: {}", self.hook)?;
        write!(f, "  reproduce with:\n    {}", repro_command(&self.case, &self.hook))
    }
}

/// The copy-pasteable single-hook repro line printed on failure.
pub fn repro_command(case: &CrashCase, hook: &str) -> String {
    format!(
        "QB_SIM_SEED={:#x} QB_CRASH_HOOK={} QB_SIM_WORKLOAD={} QB_SIM_DAYS={} \
         cargo test -p qb-testkit --test durability crash_point_repro -- --nocapture --ignored",
        case.seed,
        hook,
        case.workload.name(),
        case.days,
    )
}

/// Builds the [`FaultHook`] a label names: `point:<IoPoint>` crashes at
/// the first visit of that boundary, `nth:<k>` at the k-th visited
/// boundary overall. Inverse of the labels [`crash_hooks`] produces.
pub fn hook_from_label(label: &str) -> FaultHook {
    if let Some(name) = label.strip_prefix("point:") {
        let point = IoPoint::ALL
            .into_iter()
            .find(|p| format!("{p:?}") == name)
            .unwrap_or_else(|| panic!("unknown IoPoint in crash hook label {label:?}"));
        FaultHook::crash_at_point(point)
    } else if let Some(n) = label.strip_prefix("nth:") {
        FaultHook::crash_at_nth(n.parse().unwrap_or_else(|_| panic!("bad crash hook {label:?}")))
    } else {
        panic!("crash hook label {label:?} must be point:<IoPoint> or nth:<k>")
    }
}

fn unique_dir(case: &CrashCase, tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "qb-crash-{}-{:x}-{}",
        std::process::id(),
        case.seed,
        tag.replace(':', "_"),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn pipeline_config(case: &CrashCase, dir: &PathBuf, hook: FaultHook) -> Qb5000Config {
    let mut builder: Qb5000ConfigBuilder = Qb5000Config::builder().durability(
        DurabilityConfig::new(dir)
            .snapshot_every_rounds(case.snapshot_every_rounds)
            .fault_hook(hook),
    );
    if case.traced {
        builder = builder.trace(Tracer::enabled());
    }
    builder.build().expect("crash-case pipeline config is valid")
}

/// Applies `ops` in order. Returns `Ok(len)` when all ops applied, or
/// `Ok(i)` with `i < ops.len()` when the injected crash fired while
/// applying `ops[i]` (the "process" is dead; drop the pipeline and
/// recover). Panics on real (non-injected) durability errors.
fn apply_ops(p: &mut DurablePipeline, ops: &[DurableOp]) -> usize {
    for (i, op) in ops.iter().enumerate() {
        let result = match op {
            DurableOp::Ingest { minute, sql, count } => {
                p.ingest_weighted(*minute, sql, *count).map(|_| ())
            }
            DurableOp::UpdateClusters { now } => p.update_clusters(*now).map(|_| ()),
        };
        match result {
            Ok(()) => {}
            Err(e) if e.is_injected_crash() => return i,
            // Quarantine rejections are normal stream content.
            Err(e) if e.stage() != "durability" => {}
            Err(e) => panic!("unexpected durability error applying op {i}: {e}"),
        }
    }
    ops.len()
}

/// What restore recomputes rather than reads from a snapshot, as bits: each
/// live cluster's id, centre and volume in id order, then each tracked
/// cluster's id, volume and members, largest first.
pub type Derived = (Vec<(u64, Vec<u64>, u64)>, Vec<(u64, u64, Vec<u32>)>);

/// [`Derived`] of `bot`.
pub fn derived(bot: &QueryBot5000) -> Derived {
    let clusters = bot.clusterer().clusters();
    let tracked = bot.tracked_clusters().iter();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
    let ids = |m: &[qb_preprocessor::TemplateId]| m.iter().map(|m| m.0).collect();
    (
        clusters.map(|c| (c.id.0, bits(&c.center), c.volume.to_bits())).collect(),
        tracked.map(|c| (c.id.0, c.volume.to_bits(), ids(&c.members))).collect(),
    )
}

/// Fingerprints a finished pipeline: exported state, [`derived`] values,
/// health, a fresh forecast manager's predictions per thread width (raw
/// bits), and the deterministic trace stream when tracing is on.
fn fingerprint(
    case: &CrashCase,
    p: &DurablePipeline,
    horizons: &[usize],
    widths: &[usize],
) -> RunFingerprint {
    let bot = p.bot();
    let now = case.end();
    let specs: Vec<HorizonSpec> = horizons
        .iter()
        .map(|&h| HorizonSpec {
            interval: Interval::HOUR,
            window: 24,
            horizon: h,
            train_steps: (case.days as usize - 1).max(1) * 24,
        })
        .collect();
    let forecasts = widths
        .iter()
        .map(|&w| {
            let mut mgr =
                ForecastManager::new(specs.clone(), || Box::new(LinearRegression::default()));
            mgr.set_threads(w);
            let outcome = mgr.ensure_trained(bot, now).expect("fingerprint training succeeds");
            if outcome == RetrainOutcome::NoClusters {
                // A stream too sparse to track clusters has no forecasts to
                // compare; state/health/trace equality still applies.
                return Vec::new();
            }
            horizons
                .iter()
                .enumerate()
                .map(|(h, _)| mgr.predict(bot, now, h).iter().map(|v| v.to_bits()).collect())
                .collect()
        })
        .collect();
    RunFingerprint {
        state: bot.export_state(),
        derived: derived(bot),
        health: p.health(),
        forecasts,
        trace_stream: if case.traced {
            bot.tracer().view().deterministic_stream()
        } else {
            String::new()
        },
        derived_at: Vec::new(),
    }
}

/// Replays the op list crash-free on a fresh directory and fingerprints
/// the result. Also returns the total count of I/O boundaries the clean
/// run visits, which bounds the meaningful `nth:` hook range.
pub fn reference_run(
    case: &CrashCase,
    ops: &[DurableOp],
    horizons: &[usize],
    widths: &[usize],
) -> (RunFingerprint, u64) {
    let dir = unique_dir(case, "reference");
    let io_points = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let counter = io_points.clone();
    let counting_hook = FaultHook::new(move |_| {
        counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        false
    });
    let (mut p, report) = DurablePipeline::open(pipeline_config(case, &dir, counting_hook))
        .expect("fresh reference directory opens");
    assert!(!report.recovered(), "reference run must start fresh");
    let mut derived_at = vec![(0, derived(p.bot()))];
    for (i, op) in ops.iter().enumerate() {
        assert_eq!(apply_ops(&mut p, std::slice::from_ref(op)), 1, "reference run must not crash");
        let now = derived(p.bot());
        if derived_at.last().is_none_or(|(_, last)| *last != now) {
            derived_at.push((i + 1, now));
        }
    }
    let mut fp = fingerprint(case, &p, horizons, widths);
    fp.derived_at = derived_at;
    drop(p);
    let _ = std::fs::remove_dir_all(&dir);
    (fp, io_points.load(std::sync::atomic::Ordering::Relaxed))
}

/// The standard hook set for a case: one `point:` hook per [`IoPoint`]
/// (first visit), plus `samples` evenly-spaced `nth:` hooks spanning the
/// run's full I/O range so late-run boundaries (post-snapshot appends,
/// rotation, pruning) are hit too.
pub fn crash_hooks(total_io_points: u64, samples: u64) -> Vec<String> {
    let mut labels: Vec<String> =
        IoPoint::ALL.iter().map(|p| format!("point:{p:?}")).collect();
    if total_io_points > 0 {
        let samples = samples.min(total_io_points);
        for i in 0..samples {
            // Evenly spaced in [1, total], deterministic, no RNG needed.
            let nth = 1 + (i * (total_io_points - 1)) / samples.max(1);
            labels.push(format!("nth:{nth}"));
        }
        labels.dedup();
    }
    labels
}

/// Runs one labeled crash hook: replay until the hook kills the process,
/// recover from the directory, take [`derived`], resume at
/// `ops[durable_seq..]`, finish, and fingerprint. Returns the fingerprint
/// and whether the hook fired: a hook that never fires yields a clean
/// run, which must also match the reference.
pub fn run_with_crash(
    case: &CrashCase,
    ops: &[DurableOp],
    label: &str,
    horizons: &[usize],
    widths: &[usize],
) -> (RunFingerprint, bool) {
    let dir = unique_dir(case, label);
    let (mut p, _) = DurablePipeline::open(pipeline_config(case, &dir, hook_from_label(label)))
        .expect("fresh crash-run directory opens");
    let crashed_at = apply_ops(&mut p, ops);
    let fired = crashed_at < ops.len();
    let mut derived_at = Vec::new();
    if fired {
        // The "process" died at an I/O boundary inside ops[crashed_at].
        drop(p);
        let (recovered, _report) =
            DurablePipeline::open(pipeline_config(case, &dir, FaultHook::none()))
                .expect("recovery after injected crash succeeds");
        p = recovered;
        // WAL sequence k+1 <=> ops[k], so durable_seq is the resume index.
        let resume = p.durable_seq() as usize;
        assert!(
            resume <= crashed_at + 1,
            "recovery cannot know about operations the caller never completed: \
             resume {resume}, crashed at {crashed_at}"
        );
        derived_at.push((resume, derived(p.bot())));
        let finished = apply_ops(&mut p, &ops[resume..]);
        assert_eq!(finished, ops.len() - resume, "resumed run must not crash again");
    }
    let mut fp = fingerprint(case, &p, horizons, widths);
    fp.derived_at = derived_at;
    drop(p);
    let _ = std::fs::remove_dir_all(&dir);
    (fp, fired)
}

/// What a [`run_crash_matrix`] sweep ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixRun {
    /// Every hook label swept.
    pub hooks: Vec<String>,
    /// The labels whose hook fired; the others ran clean.
    pub fired: Vec<String>,
}

/// The full sweep: reference, then every hook from [`crash_hooks`], each
/// diffed against the reference fingerprint.
pub fn run_crash_matrix(
    case: &CrashCase,
    horizons: &[usize],
    widths: &[usize],
    nth_samples: u64,
) -> Result<MatrixRun, CrashFailure> {
    let ops = materialize_ops(case);
    let (reference, total_io) = reference_run(case, &ops, horizons, widths);
    let hooks = crash_hooks(total_io, nth_samples);
    let mut fired = Vec::new();
    for label in &hooks {
        let (fp, crashed) = run_with_crash(case, &ops, label, horizons, widths);
        if let Err(detail) = diff(&reference, &fp) {
            return Err(CrashFailure { case: case.clone(), hook: label.clone(), detail });
        }
        if crashed {
            fired.push(label.clone());
        }
    }
    Ok(MatrixRun { hooks, fired })
}

/// First divergence between two fingerprints, described for a human.
pub fn diff(reference: &RunFingerprint, recovered: &RunFingerprint) -> Result<(), String> {
    if recovered.state != reference.state {
        return Err("recovered PipelineState differs from the uninterrupted run".into());
    }
    if recovered.derived != reference.derived {
        return Err("recovered centres, volumes or tracked clusters are not bit-identical".into());
    }
    if recovered.health != reference.health {
        return Err(format!(
            "recovered PipelineHealth differs: {:?} vs {:?}",
            recovered.health, reference.health
        ));
    }
    if recovered.forecasts != reference.forecasts {
        return Err("recovered forecasts are not bit-identical".into());
    }
    if recovered.trace_stream != reference.trace_stream {
        return Err("recovered trace stream is not byte-identical".into());
    }
    for (applied, got) in &recovered.derived_at {
        // The reference's value once `applied` operations were applied.
        let want = reference.derived_at.iter().rev().find(|(k, _)| k <= applied);
        if want.is_some_and(|(_, want)| want != got) {
            return Err(format!(
                "centres, volumes or tracked clusters right after recovery (at operation \
                 {applied}) are not bit-identical to the uninterrupted run's"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_list_is_deterministic_and_interleaves_rounds() {
        let case = CrashCase::new(Workload::BusTracker, 7);
        let a = materialize_ops(&case);
        let b = materialize_ops(&case);
        assert_eq!(a, b);
        let rounds = a
            .iter()
            .filter(|op| matches!(op, DurableOp::UpdateClusters { .. }))
            .count();
        // One per 12h boundary crossed plus the closing round.
        assert!(rounds >= 4, "2 days / 12h = 4 rounds, got {rounds}");
        assert!(
            matches!(a.last(), Some(DurableOp::UpdateClusters { now }) if *now == case.end()),
            "the list closes with the final round"
        );
    }

    #[test]
    fn hook_labels_round_trip() {
        for p in IoPoint::ALL {
            hook_from_label(&format!("point:{p:?}")); // must not panic
        }
        let h = hook_from_label("nth:3");
        assert!(!h.should_crash(IoPoint::WalAppendStart));
        assert!(!h.should_crash(IoPoint::WalFrameHalf));
        assert!(h.should_crash(IoPoint::WalFrameFull));
    }

    #[test]
    #[should_panic(expected = "must be point:<IoPoint> or nth:<k>")]
    fn bad_hook_label_panics() {
        hook_from_label("whenever");
    }

    #[test]
    fn crash_hook_set_covers_points_and_samples() {
        let labels = crash_hooks(1000, 5);
        assert_eq!(labels.len(), IoPoint::ALL.len() + 5);
        assert!(labels.iter().any(|l| l == "point:WalFrameHalf"));
        assert_eq!(labels[0], "point:WalGrown", "a first append grows before it writes");
        assert!(labels.iter().filter(|l| l.starts_with("nth:")).count() == 5);
    }
}
