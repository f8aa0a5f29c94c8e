//! CI guard: tracing must be (nearly) free on the hot paths.
//!
//! Replays the same workload with the flight recorder off and on, times
//! the clusterer-update rounds and the forecast train/predict rounds, and
//! fails (exit 1) if the traced runs are more than `QB_TRACE_OVERHEAD_PCT`
//! percent slower (default 5%). Each measurement is the best of several
//! trials so scheduler noise doesn't produce false alarms.
//!
//! ```text
//! cargo run --release -p qb-bench --bin trace_overhead
//! ```

#![forbid(unsafe_code)]

use qb5000::{ForecastManager, HorizonSpec, QueryBot5000, RetrainOutcome, Tracer};
use qb_bench::pipeline_run::{run_pipeline, PipelineRun, RunOptions};
use qb_forecast::LinearRegression;
use qb_timeseries::{Interval, MINUTES_PER_DAY};
use qb_workloads::Workload;
use std::time::{Duration, Instant};

const TRIALS: usize = 5;
const FORECAST_ROUNDS: usize = 20;
const DAYS: u32 = 3;

fn replay(traced: bool) -> PipelineRun {
    let mut opts = RunOptions::new(Workload::BusTracker, DAYS, 0.05);
    if traced {
        opts = opts.traced(&Tracer::enabled());
    }
    run_pipeline(opts)
}

/// Steady-state forecast rounds: repeated full retrain + predict against
/// an already-built pipeline (the template/cluster event burst happened
/// during the replay, so these rounds emit only a handful of events).
fn forecast_rounds(bot: &QueryBot5000) -> Duration {
    let now = DAYS as i64 * MINUTES_PER_DAY;
    let specs = vec![
        HorizonSpec { interval: Interval::HOUR, window: 24, horizon: 1, train_steps: 48 },
        HorizonSpec { interval: Interval::HOUR, window: 24, horizon: 12, train_steps: 48 },
    ];
    let t0 = Instant::now();
    for _ in 0..FORECAST_ROUNDS {
        let mut mgr =
            ForecastManager::new(specs.clone(), || Box::new(LinearRegression::default()));
        mgr.set_tracer(bot.tracer());
        let outcome = mgr.ensure_trained(bot, now).expect("training succeeds");
        assert!(matches!(outcome, RetrainOutcome::Retrained { .. }));
        for h in 0..specs.len() {
            std::hint::black_box(mgr.predict(bot, now, h));
        }
    }
    t0.elapsed()
}

/// Best-of-`TRIALS` (cluster_wall, forecast_wall) for one mode.
fn measure(traced: bool) -> (Duration, Duration) {
    let mut best_cluster = Duration::MAX;
    let mut best_forecast = Duration::MAX;
    for _ in 0..TRIALS {
        let run = replay(traced);
        best_cluster = best_cluster.min(run.cluster_wall);
        best_forecast = best_forecast.min(forecast_rounds(&run.bot));
    }
    (best_cluster, best_forecast)
}

fn overhead_pct(untraced: Duration, traced: Duration) -> f64 {
    (traced.as_secs_f64() - untraced.as_secs_f64()) / untraced.as_secs_f64() * 100.0
}

fn main() {
    let limit: f64 = std::env::var("QB_TRACE_OVERHEAD_PCT")
        .ok()
        .map(|s| s.parse().expect("numeric QB_TRACE_OVERHEAD_PCT"))
        .unwrap_or(5.0);

    // Warm up caches/allocator before anything is timed.
    std::hint::black_box(replay(false));

    let (cluster_off, forecast_off) = measure(false);
    let (cluster_on, forecast_on) = measure(true);

    let mut failed = false;
    println!("trace overhead guard (limit {limit:.1}%, best of {TRIALS} trials):");
    for (name, off, on) in
        [("clusterer_update", cluster_off, cluster_on), ("forecast_round", forecast_off, forecast_on)]
    {
        let pct = overhead_pct(off, on);
        let verdict = if pct <= limit { "ok" } else { "FAIL" };
        println!(
            "  {name:<16} untraced {:>9.3}ms | traced {:>9.3}ms | overhead {pct:>+6.2}% {verdict}",
            off.as_secs_f64() * 1e3,
            on.as_secs_f64() * 1e3,
        );
        failed |= pct > limit;
    }
    if failed {
        eprintln!("tracing overhead exceeded {limit:.1}% on a hot path");
        std::process::exit(1);
    }
}
