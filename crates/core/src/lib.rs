//! # QueryBot 5000
//!
//! A Rust reproduction of **QueryBot 5000 (QB5000)**, the query-based
//! workload-forecasting framework for self-driving DBMSs from
//! *Query-based Workload Forecasting for Self-Driving Database Management
//! Systems* (Ma et al., SIGMOD 2018).
//!
//! The framework receives the SQL stream a DBMS executes and learns to
//! predict how many queries of each kind will arrive in the future:
//!
//! 1. the **Pre-Processor** ([`qb_preprocessor`]) strips constants out of
//!    each statement, normalizes it, and folds semantically equivalent
//!    templates together, recording per-template arrival-rate histories;
//! 2. the **Clusterer** ([`qb_clusterer`]) groups templates whose arrival
//!    histories follow the same temporal pattern with an online DBSCAN
//!    variant over cosine similarity;
//! 3. the **Forecaster** ([`qb_forecast`]) trains one joint model per
//!    prediction horizon on the highest-volume clusters and serves
//!    arrival-rate predictions; the deployed model is HYBRID =
//!    avg(LR, LSTM) corrected by kernel regression for recurring spikes.
//!
//! [`QueryBot5000`] wires the three together behind a small API.
//! Configuration goes through a validating builder, and an optional
//! [`Recorder`] gives every stage zero-dependency metrics:
//!
//! ```
//! use qb5000::{JobSpan, Qb5000Config, QueryBot5000, Recorder};
//! use qb_timeseries::Interval;
//!
//! let recorder = Recorder::new();
//! let config = Qb5000Config::builder()
//!     .rho(0.8) // cosine-similarity threshold from the paper
//!     .recorder(recorder.clone())
//!     .build()
//!     .expect("rho is in (0, 1]");
//! let mut bot = QueryBot5000::new(config);
//! // Feed the framework queries as the DBMS executes them...
//! for minute in 0..600 {
//!     let volume = if (minute / 60) % 12 < 6 { 40 } else { 4 };
//!     bot.ingest_weighted(minute, "SELECT x FROM t WHERE id = 7", volume).unwrap();
//! }
//! // ...periodically re-cluster...
//! bot.update_clusters(600);
//! // ...and train a forecaster over the tracked clusters.
//! let job = bot
//!     .forecast_job_with(600, Interval::HOUR, /*window:*/ 4, /*horizon:*/ 1, JobSpan::Auto)
//!     .expect("one cluster is tracked");
//! let mut model = qb_forecast::LinearRegression::default();
//! let prediction = job.fit_predict(&mut model).unwrap();
//! assert_eq!(prediction.len(), 1); // one tracked cluster
//! // Every stage reported into the shared recorder.
//! let snapshot = recorder.snapshot();
//! assert!(snapshot.counters["preprocessor.ingested_statements"] >= 600);
//! ```
//!
//! The [`controller`] module implements the paper's §7.6 closed loop: the
//! forecasts drive an AutoAdmin-style index advisor against the `qb-dbsim`
//! engine, reproducing the AUTO / STATIC / AUTO-LOGICAL comparison of
//! Figures 11–12.
//!
//! Fallible operations across the crate return the unified [`Error`] type;
//! per-stage errors ([`PreProcessError`], [`ForecastError`], and
//! [`ConfigError`]) convert into it with `?`.

#![forbid(unsafe_code)]

pub mod accuracy;
pub mod config;
pub mod controller;
pub mod durable;
pub mod error;
pub mod manager;
pub mod pipeline;
pub mod schemas;
pub mod serve;

pub use accuracy::{
    AccuracyTracker, AccuracyTrackerState, HorizonAccuracy, PendingClaimState, RollingMeanState,
    DEFAULT_ACCURACY_WINDOW,
};
pub use config::{ControllerConfigBuilder, Qb5000ConfigBuilder};
pub use controller::{
    ControllerConfig, ExperimentResult, IndexSelectionExperiment, PerfSample, Strategy,
    FORECAST_BLEND,
};
pub use durable::{
    DurabilityConfig, DurablePipeline, FullState, RecoveryReport, WalRecord, STATE_VERSION,
};
pub use error::{ConfigError, Error};
pub use manager::{ForecastHealth, ForecastManager, HorizonSpec, ManagerState, RetrainOutcome};
pub use pipeline::{
    ClusterInfo, ClusterInfoState, FeatureMode, ForecastJob, JobSpan, PipelineHealth,
    PipelineState, Qb5000Config, QueryBot5000, FEATURE_INTERVAL, FEATURE_POINTS, FEATURE_SEED,
    FEATURE_WINDOW, LOGICAL_CLUSTERER,
};
pub use serve::{ColdSeed, ForecastService};

// The serving surface (`Qb5000Config::serve`,
// `ForecastService::reader`): the typed query/answer pair, reader handle,
// and snapshot model, re-exported so consumers query forecasts without
// depending on `qb-serve` directly.
pub use qb_serve::{
    ClusterForecast, ColdStartForecast, ColdStartOrigin, Curve, ForecastAnswer, ForecastQuery,
    ForecastReader, ForecastSnapshot, HorizonMeta, Membership, Missing, Outcome, QueryTarget,
    ServeHealth, SnapshotBuilder, StalenessBound,
};

// The self-monitoring surface (`ControllerConfig::monitor`,
// `PipelineHealth::active_alerts`): metrics-history retention, the
// deterministic SLO/alert engine, and the live scrape endpoint,
// re-exported so consumers configure monitoring without depending on
// `qb-monitor` directly.
pub use qb_monitor::{
    check_prometheus, ActiveAlert, AlertChange, AlertEngine, AlertRule,
    Condition as AlertCondition, MetricsHistory, Monitor, MonitorConfig, MonitorServer,
    MonitorState, Severity,
};

// The durable-state policy surface (`Qb5000Config::durability`) exposes the
// crash-injection hook and I/O boundary enum from `qb-durable`, so re-export
// them for harnesses and callers.
pub use qb_durable::{CodecError, Dec, DurabilityError, Enc, FaultHook, IoPoint};

// The observability handles are part of the public configuration surface
// (`Qb5000Config::recorder`), so re-export them for downstream callers.
pub use qb_obs::{MetricsSnapshot, Recorder};

// Likewise the tracing handles (`Qb5000Config::tracer`,
// `PipelineHealth::trace_dumps`) and the query/export types needed to
// consume a captured trace.
pub use qb_trace::{
    parse_json, Event, EventId, EventKind, Json, Scope, TraceDump, TraceView,
    Tracer, Value,
};

// Stage error types, re-exported so `qb5000::Error` matching doesn't force
// a dependency on the stage crates.
pub use qb_forecast::ForecastError;
pub use qb_preprocessor::PreProcessError;

// The batched-ingest surface (`QueryBot5000::ingest_batch`,
// `DurablePipeline::ingest_batch`), re-exported for callers assembling
// batches without depending on the pre-processor crate.
pub use qb_preprocessor::{BatchItem, BatchReport};

#[cfg(test)]
mod tests {
    use super::*;
    use qb_timeseries::Interval;

    #[test]
    fn doc_example_compiles_and_runs() {
        let recorder = Recorder::new();
        let config = Qb5000Config::builder()
            .rho(0.8)
            .recorder(recorder.clone())
            .build()
            .expect("rho is in (0, 1]");
        let mut bot = QueryBot5000::new(config);
        for minute in 0..600 {
            let volume = if (minute / 60) % 12 < 6 { 40 } else { 4 };
            bot.ingest_weighted(minute, "SELECT x FROM t WHERE id = 7", volume).unwrap();
        }
        bot.update_clusters(600);
        let job = bot.forecast_job_with(600, Interval::HOUR, 4, 1, JobSpan::Auto).unwrap();
        let mut model = qb_forecast::LinearRegression::default();
        let prediction = job.fit_predict(&mut model).unwrap();
        assert_eq!(prediction.len(), 1);
        assert!(recorder.snapshot().counters["preprocessor.ingested_statements"] >= 600);
    }
}
