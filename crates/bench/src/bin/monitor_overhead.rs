//! CI guard: self-monitoring must be (nearly) free on the control loop.
//!
//! Runs the same fault-injected AUTO experiment with the monitor detached
//! and attached (metrics recorder enabled in both modes, so the only
//! delta is the per-round snapshot diff, rule evaluation, and state
//! publication), and fails (exit 1) if the monitored run is more than
//! `QB_MONITOR_OVERHEAD_PCT` percent slower per controller round
//! (default 5%). Each measurement is the best of several trials so
//! scheduler noise doesn't produce false alarms.
//!
//! ```text
//! cargo run --release -p qb-bench --bin monitor_overhead
//! ```

#![forbid(unsafe_code)]

use qb5000::{
    ControllerConfig, IndexSelectionExperiment, MonitorConfig, Qb5000Config, Recorder, Strategy,
};
use qb_timeseries::MINUTES_PER_DAY;
use qb_workloads::{FaultPlan, Workload};
use std::time::{Duration, Instant};

const TRIALS: usize = 3;

fn experiment_cfg(monitored: bool) -> ControllerConfig {
    let mut b = ControllerConfig::builder()
        .workload(Workload::BusTracker)
        .strategy(Strategy::Auto)
        .db_scale(0.05)
        .history_days(2)
        .run_hours(6)
        .trace_scale(0.05)
        .index_budget(6)
        .build_period(60)
        .report_window(60)
        .run_start(14 * MINUTES_PER_DAY + 7 * 60)
        .seed(0xBE7C)
        .threads(qb_parallel::configured_threads())
        .fault_plan(FaultPlan::with_intensity(0xBE7C, 1.0))
        // Both modes pay for metrics, so the measured delta is the
        // monitor itself rather than the recorder it forces on.
        .pipeline(Qb5000Config { recorder: Recorder::new(), ..Qb5000Config::default() });
    if monitored {
        // The stock rule set, no HTTP endpoint: the guard times the
        // per-round observe path, not socket accept latency.
        b = b.monitor(MonitorConfig::with_default_slos(2, 0.5));
    }
    b.build().expect("overhead config is valid")
}

/// Best-of-`TRIALS` wall time per controller round for one mode.
fn measure(monitored: bool) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..TRIALS {
        let t0 = Instant::now();
        let result = IndexSelectionExperiment::new(experiment_cfg(monitored)).run();
        let wall = t0.elapsed();
        let rounds = result.metrics.counters["controller.rounds"].max(1);
        best = best.min(wall / rounds as u32);
    }
    best
}

fn main() {
    let limit: f64 = std::env::var("QB_MONITOR_OVERHEAD_PCT")
        .ok()
        .map(|s| s.parse().expect("numeric QB_MONITOR_OVERHEAD_PCT"))
        .unwrap_or(5.0);

    // Warm up caches/allocator before anything is timed.
    std::hint::black_box(IndexSelectionExperiment::new(experiment_cfg(false)).run());

    let off = measure(false);
    let on = measure(true);
    let pct = (on.as_secs_f64() - off.as_secs_f64()) / off.as_secs_f64() * 100.0;
    let verdict = if pct <= limit { "ok" } else { "FAIL" };
    println!("monitor overhead guard (limit {limit:.1}%, best of {TRIALS} trials):");
    println!(
        "  controller_round  unmonitored {:>9.3}ms | monitored {:>9.3}ms | overhead {pct:>+6.2}% \
         {verdict}",
        off.as_secs_f64() * 1e3,
        on.as_secs_f64() * 1e3,
    );
    if pct > limit {
        eprintln!("self-monitoring overhead exceeded {limit:.1}% per controller round");
        std::process::exit(1);
    }
}
