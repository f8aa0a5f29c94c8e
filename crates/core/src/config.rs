//! Validating builders for the two public configuration structs.
//!
//! The structs themselves ([`Qb5000Config`], [`ControllerConfig`]) keep
//! public fields and a `Default` impl for struct-update syntax, but a
//! nonsense value (ρ outside `(0, 1]`, a zero cluster count, a zero
//! build period) only surfaces deep inside the pipeline — as a wrong
//! clustering, a panic, or a silent no-op. The builders reject those values at
//! construction time with a [`ConfigError`] naming the offending field.
//!
//! ```
//! use qb5000::{ConfigError, Qb5000Config};
//!
//! let cfg = Qb5000Config::builder().max_clusters(3).rho(0.8).build().unwrap();
//! assert_eq!(cfg.max_clusters, 3);
//! let err = Qb5000Config::builder().rho(0.0).build().unwrap_err();
//! assert!(matches!(err, ConfigError::RhoOutOfRange { .. }));
//! ```

use qb_clusterer::ClustererConfig;
use qb_obs::Recorder;
use qb_preprocessor::PreProcessorConfig;
use qb_timeseries::Minute;
use qb_trace::Tracer;
use qb_workloads::{FaultPlan, Workload};

use crate::controller::{ControllerConfig, Strategy};
use crate::durable::DurabilityConfig;
use crate::error::ConfigError;
use crate::pipeline::{FeatureMode, Qb5000Config};

/// Shared scale check: finite and strictly positive.
fn check_scale(field: &'static str, value: f64) -> Result<(), ConfigError> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(ConfigError::BadScale { field, value })
    }
}

impl Qb5000Config {
    /// A validating builder starting from [`Qb5000Config::default`].
    pub fn builder() -> Qb5000ConfigBuilder {
        Qb5000ConfigBuilder { cfg: Qb5000Config::default() }
    }

    /// Checks the invariants the pipeline assumes. [`Qb5000ConfigBuilder::build`]
    /// calls this; it is public so hand-assembled configs (struct-update
    /// syntax on `Default`) can be checked too.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let rho = self.clusterer.rho;
        if !(rho.is_finite() && rho > 0.0 && rho <= 1.0) {
            return Err(ConfigError::RhoOutOfRange { value: rho });
        }
        if self.max_clusters == 0 {
            return Err(ConfigError::ZeroCount { field: "max_clusters" });
        }
        let target = self.coverage_target;
        if !(target.is_finite() && target > 0.0 && target <= 1.0) {
            return Err(ConfigError::RatioOutOfRange { field: "coverage_target", value: target });
        }
        Ok(())
    }
}

/// Builder for [`Qb5000Config`]; see the [module docs](self) for the
/// validation rules.
#[derive(Debug, Clone)]
pub struct Qb5000ConfigBuilder {
    cfg: Qb5000Config,
}

impl Qb5000ConfigBuilder {
    /// Pre-Processor settings (template folding, quarantine).
    pub fn preprocessor(mut self, pre: PreProcessorConfig) -> Self {
        self.cfg.preprocessor = pre;
        self
    }

    /// Clusterer settings (ρ, metric, adaptive shift trigger).
    pub fn clusterer(mut self, clusterer: ClustererConfig) -> Self {
        self.cfg.clusterer = clusterer;
        self
    }

    /// Shortcut for the similarity threshold ρ (must end up in `(0, 1]`).
    pub fn rho(mut self, rho: f64) -> Self {
        self.cfg.clusterer.rho = rho;
        self
    }

    /// Clustering feature (arrival-rate vs. the §7.7 logical ablation).
    pub fn feature_mode(mut self, mode: FeatureMode) -> Self {
        self.cfg.feature_mode = mode;
        self
    }

    /// Maximum clusters the Forecaster models (must be ≥ 1).
    pub fn max_clusters(mut self, n: usize) -> Self {
        self.cfg.max_clusters = n;
        self
    }

    /// Volume-coverage stop target in `(0, 1]`.
    pub fn coverage_target(mut self, target: f64) -> Self {
        self.cfg.coverage_target = target;
        self
    }

    /// Observability recorder handed to every pipeline stage. Defaults to
    /// [`Recorder::disabled`] (metrics cost nothing).
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.cfg.recorder = recorder;
        self
    }

    /// Structured tracer (decision lineage + flight recorder) handed to
    /// every pipeline stage. Defaults to [`Tracer::disabled`] (tracing
    /// costs nothing).
    pub fn trace(mut self, tracer: Tracer) -> Self {
        self.cfg.tracer = tracer;
        self
    }

    /// Durable-state policy: persist a snapshot + WAL lineage under the
    /// policy's directory so [`crate::DurablePipeline::open`] can recover
    /// the pipeline bit-identically after a crash. Defaults to `None`:
    /// fully in-memory, and the same handle opens with no store.
    pub fn durability(mut self, policy: DurabilityConfig) -> Self {
        self.cfg.durability = Some(policy);
        self
    }

    /// Forecast serving: every cluster update and forecast fit publishes
    /// an immutable [`crate::ForecastSnapshot`] through the service's
    /// epoch-swapped slot, so [`crate::ForecastReader`] handles query
    /// concurrently without blocking the pipeline (steady-state reads take
    /// no lock; the first read after a publish takes the slot mutex for
    /// one `Arc` clone). Defaults to `None` (no serving layer, publication
    /// costs nothing).
    pub fn serve(mut self, service: crate::ForecastService) -> Self {
        self.cfg.serve = Some(service);
        self
    }

    /// Cold-start forecasting for templates outside the trained cluster
    /// set: retrain rounds then also publish seeded per-template
    /// estimates (cluster-rate share or population prior) so readers get
    /// a typed `ColdStart` answer instead of `Missing`. Only meaningful
    /// together with [`Qb5000ConfigBuilder::serve`]; warm forecasts are
    /// byte-identical either way. Defaults to `false`.
    pub fn cold_start(mut self, on: bool) -> Self {
        self.cfg.cold_start = on;
        self
    }

    /// Validates and returns the config.
    pub fn build(self) -> Result<Qb5000Config, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

impl ControllerConfig {
    /// A validating builder starting from [`ControllerConfig::default`].
    pub fn builder() -> ControllerConfigBuilder {
        ControllerConfigBuilder { cfg: ControllerConfig::default() }
    }

    /// Checks the invariants the experiment driver assumes;
    /// [`ControllerConfigBuilder::build`] calls this.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.pipeline.validate()?;
        check_scale("db_scale", self.db_scale)?;
        check_scale("trace_scale", self.trace_scale)?;
        if self.history_days == 0 {
            return Err(ConfigError::ZeroCount { field: "history_days" });
        }
        if self.run_hours == 0 {
            return Err(ConfigError::ZeroCount { field: "run_hours" });
        }
        if self.build_period <= 0 {
            return Err(ConfigError::ZeroInterval { field: "build_period" });
        }
        if self.report_window <= 0 {
            return Err(ConfigError::ZeroInterval { field: "report_window" });
        }
        Ok(())
    }
}

/// Builder for [`ControllerConfig`]; see the [module docs](self) for the
/// validation rules.
#[derive(Debug, Clone)]
pub struct ControllerConfigBuilder {
    cfg: ControllerConfig,
}

impl ControllerConfigBuilder {
    /// Which trace generator to replay.
    pub fn workload(mut self, workload: Workload) -> Self {
        self.cfg.workload = workload;
        self
    }

    /// Index-selection strategy (AUTO / STATIC / AUTO-LOGICAL).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.cfg.strategy = strategy;
        self
    }

    /// Row-count scale for the simulated database (finite, > 0).
    pub fn db_scale(mut self, scale: f64) -> Self {
        self.cfg.db_scale = scale;
        self
    }

    /// Warm-up history fed to QB5000 before the measured run (≥ 1 day).
    pub fn history_days(mut self, days: u32) -> Self {
        self.cfg.history_days = days;
        self
    }

    /// Measured run length in simulated hours (≥ 1).
    pub fn run_hours(mut self, hours: u32) -> Self {
        self.cfg.run_hours = hours;
        self
    }

    /// Trace volume scale (finite, > 0).
    pub fn trace_scale(mut self, scale: f64) -> Self {
        self.cfg.trace_scale = scale;
        self
    }

    /// Total indexes the strategy may build.
    pub fn index_budget(mut self, budget: usize) -> Self {
        self.cfg.index_budget = budget;
        self
    }

    /// How often AUTO builds an index, in simulated minutes (> 0).
    pub fn build_period(mut self, minutes: Minute) -> Self {
        self.cfg.build_period = minutes;
        self
    }

    /// Perf-sample bucket width in simulated minutes (> 0).
    pub fn report_window(mut self, minutes: Minute) -> Self {
        self.cfg.report_window = minutes;
        self
    }

    /// Start of the measured run, minutes since the trace epoch.
    pub fn run_start(mut self, minute: Minute) -> Self {
        self.cfg.run_start = minute;
        self
    }

    /// Experiment seed (trace generation, database population).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Deterministic fault injection for chaos runs (the default is a
    /// clean, fault-free run).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.cfg.fault_plan = Some(plan);
        self
    }

    /// Worker threads for the train/score engine (clamped to ≥ 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads.max(1);
        self
    }

    /// The pipeline the controller drives (recorder, tracer, durability,
    /// serving, clusterer settings); see [`ControllerConfig::pipeline`]
    /// for what the controller overrides. Serving slots should cover the
    /// [`crate::FORECAST_BLEND`] horizons (use
    /// [`crate::ForecastService::hourly`]); unmatched horizons are simply
    /// not published. Defaults to [`Qb5000Config::default`].
    pub fn pipeline(mut self, pipeline: Qb5000Config) -> Self {
        self.cfg.pipeline = pipeline;
        self
    }

    /// Continuous self-monitoring for the run: each build round's metric
    /// deltas are retained, the config's SLO rules are evaluated with
    /// hysteresis (alert transitions land in
    /// [`crate::ExperimentResult::alert_log`] and firing alerts in
    /// `PipelineHealth::active_alerts`), and an optional live
    /// `/metrics` + `/health` + `/alerts` endpoint serves the latest
    /// state. Monitoring forces metrics on: a disabled recorder is
    /// upgraded to an enabled one for the run. Defaults to `None`.
    pub fn monitor(mut self, monitor: qb_monitor::MonitorConfig) -> Self {
        self.cfg.monitor = Some(monitor);
        self
    }

    /// Validates and returns the config.
    pub fn build(self) -> Result<ControllerConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_pass_validation() {
        Qb5000Config::builder().build().unwrap();
        ControllerConfig::builder().build().unwrap();
        Qb5000Config::default().validate().unwrap();
        ControllerConfig::default().validate().unwrap();
    }

    #[test]
    fn builder_sets_every_pipeline_field() {
        let rec = Recorder::new();
        let cfg = Qb5000Config::builder()
            .feature_mode(FeatureMode::Logical)
            .max_clusters(4)
            .coverage_target(0.9)
            .rho(0.5)
            .recorder(rec.clone())
            .trace(Tracer::enabled())
            .build()
            .unwrap();
        assert_eq!(cfg.feature_mode, FeatureMode::Logical);
        assert_eq!(cfg.max_clusters, 4);
        assert_eq!(cfg.coverage_target, 0.9);
        assert_eq!(cfg.clusterer.rho, 0.5);
        assert!(cfg.recorder.is_enabled());
        assert!(cfg.tracer.is_enabled());
    }

    #[test]
    fn rho_out_of_range_rejected() {
        for bad in [0.0, -0.1, 1.5, f64::NAN, f64::INFINITY] {
            let err = Qb5000Config::builder().rho(bad).build().unwrap_err();
            assert!(
                matches!(err, ConfigError::RhoOutOfRange { .. }),
                "rho {bad}: {err}"
            );
        }
        // Boundary: exactly 1.0 is legal (identical features only).
        Qb5000Config::builder().rho(1.0).build().unwrap();
    }

    #[test]
    fn zero_counts_and_intervals_rejected() {
        assert_eq!(
            Qb5000Config::builder().max_clusters(0).build().unwrap_err(),
            ConfigError::ZeroCount { field: "max_clusters" }
        );
    }

    #[test]
    fn coverage_target_must_be_a_ratio() {
        for bad in [0.0, -0.5, 1.01, f64::NAN] {
            let err = Qb5000Config::builder().coverage_target(bad).build().unwrap_err();
            assert!(matches!(err, ConfigError::RatioOutOfRange { field: "coverage_target", .. }));
        }
    }

    #[test]
    fn controller_rejects_degenerate_runs() {
        assert_eq!(
            ControllerConfig::builder().run_hours(0).build().unwrap_err(),
            ConfigError::ZeroCount { field: "run_hours" }
        );
        assert_eq!(
            ControllerConfig::builder().history_days(0).build().unwrap_err(),
            ConfigError::ZeroCount { field: "history_days" }
        );
        assert_eq!(
            ControllerConfig::builder().build_period(0).build().unwrap_err(),
            ConfigError::ZeroInterval { field: "build_period" }
        );
        assert_eq!(
            ControllerConfig::builder().report_window(-5).build().unwrap_err(),
            ConfigError::ZeroInterval { field: "report_window" }
        );
        for bad in [0.0, f64::NAN, -1.0] {
            assert!(matches!(
                ControllerConfig::builder().db_scale(bad).build().unwrap_err(),
                ConfigError::BadScale { field: "db_scale", .. }
            ));
        }
    }

    #[test]
    fn threads_clamp_to_one() {
        let cfg = ControllerConfig::builder().threads(0).build().unwrap();
        assert_eq!(cfg.threads, 1);
    }
}
