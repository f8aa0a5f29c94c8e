//! Continuous self-monitoring on a live forecast-driven AUTO run.
//!
//! Runs a fault-injected index-selection experiment with the monitor
//! attached: a deterministic SLO rule set watches the forecast-quality
//! band, degradation dwell, and quarantine share, while a scrape endpoint
//! serves `/metrics`, `/health`, `/alerts`, and `/dashboard` over HTTP.
//! The main thread plays Prometheus — it scrapes the endpoint while the
//! experiment runs, validates every `/metrics` body with the bundled
//! conformance checker, then explains the fired quality alert's causal
//! lineage through the flight recorder.
//!
//! ```text
//! cargo run --release -p qb-bench --example monitored_pipeline
//! ```
//!
//! `QB_MONITOR_PORT` overrides the scrape port (default 9184). Exits
//! non-zero if no scrape succeeded, any scrape was non-conformant, or the
//! injected regression failed to fire the quality alert.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;

use qb5000::{MonitorConfig, Qb5000Config, Tracer};
use qb_bench::controller::{ControllerConfig, IndexSelectionExperiment, Strategy};
use qb_monitor::{check_prometheus, AlertChange};
use qb_timeseries::MINUTES_PER_DAY;
use qb_workloads::{FaultPlan, Workload};

/// One blocking HTTP GET against the local scrape endpoint; `None` until
/// the endpoint is up (the monitor binds inside the run), or on any
/// non-200 answer.
fn http_get(port: u16, path: &str) -> Option<String> {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n").ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    if !response.starts_with("HTTP/1.1 200") {
        return None;
    }
    response.split_once("\r\n\r\n").map(|(_, body)| body.to_string())
}

fn main() {
    let port: u16 = std::env::var("QB_MONITOR_PORT")
        .ok()
        .and_then(|p| p.parse().ok())
        .unwrap_or(9184);

    // Heavy deterministic corruption: malformed SQL inflates the
    // quarantine share and arrival spikes poison the histories the
    // forecaster trains on — enough to push the rolling log-space MSE
    // past the 0.5 quality band (a clean run of this config ends ≈0.21).
    let faults = FaultPlan {
        malformed_sql: 0.10,
        arrival_spike: 0.05,
        spike_factor: 40,
        ..FaultPlan::none(5)
    };
    let tracer = Tracer::enabled();
    let config = ControllerConfig {
        workload: Workload::BusTracker,
        strategy: Strategy::Auto,
        db_scale: 0.06,
        history_days: 2,
        // Ten hourly rounds: the rolling MSE needs a report window to
        // settle (the gauge reads 0 for the first ~3 rounds), and the
        // stock quality band averages a 4-round window — a shorter run
        // ends before two consecutive violating rounds can accrue.
        run_hours: 10,
        trace_scale: 0.08,
        index_budget: 6,
        build_period: 60,
        report_window: 60,
        run_start: 14 * MINUTES_PER_DAY + 7 * 60,
        seed: 0xE2E,
        fault_plan: Some(faults),
        pipeline: Qb5000Config { tracer: tracer.clone(), ..Qb5000Config::default() },
        monitor: Some(MonitorConfig::with_default_slos(2, 0.5).http_port(port)),
        ..ControllerConfig::default()
    };
    let experiment = IndexSelectionExperiment::new(config).expect("example config is valid");

    println!("Scrape endpoint: http://127.0.0.1:{port}/metrics (also /health /alerts /dashboard)");
    println!("Running the monitored AUTO experiment with injected faults...\n");
    let worker = std::thread::spawn(move || experiment.run());

    // Play Prometheus while the experiment runs: scrape, validate, note
    // any firing alerts the moment they appear on the wire.
    let mut scrapes = 0usize;
    let mut conformance_errors: Vec<String> = Vec::new();
    let mut wire_alert: Option<String> = None;
    while !worker.is_finished() {
        if let Some(metrics) = http_get(port, "/metrics") {
            scrapes += 1;
            let errors = check_prometheus(&metrics);
            if !errors.is_empty() && conformance_errors.is_empty() {
                conformance_errors = errors;
            }
        }
        if wire_alert.is_none() {
            if let Some(alerts) = http_get(port, "/alerts") {
                // The pre-first-round default state serves an empty body.
                if !alerts.is_empty() && alerts != "[]" {
                    wire_alert = Some(alerts);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let result = worker.join().expect("monitored run completes");

    println!("Scraped /metrics {scrapes} times while the run was live.");
    if let Some(alerts) = &wire_alert {
        println!("Caught a firing alert on the wire: {alerts}\n");
    }
    println!("Alert transition log:");
    for line in &result.alert_log {
        println!("  {line}");
    }

    // The injected regression must have tripped the quality band; walk
    // the alert back to the forecast blend that fed the violating MSE.
    let quality = result.alert_transitions.iter().find_map(|c| match c {
        AlertChange::Fired(a) if a.rule.starts_with("forecast-quality") => Some(a),
        _ => None,
    });
    match quality {
        Some(alert) => {
            let fired = alert.fired_event.expect("tracing is on");
            println!("\nWhy is {} firing?\n{}", alert.rule, tracer.view().explain(fired));
        }
        None => {
            eprintln!("FAIL: the injected regression never fired the quality alert");
            std::process::exit(1);
        }
    }

    if scrapes == 0 {
        eprintln!("FAIL: no /metrics scrape succeeded while the run was live");
        std::process::exit(1);
    }
    if !conformance_errors.is_empty() {
        eprintln!("FAIL: non-conformant /metrics exposition:");
        for e in &conformance_errors {
            eprintln!("  {e}");
        }
        std::process::exit(1);
    }
    println!("\nAll {scrapes} scrapes were Prometheus-conformant.");
}
