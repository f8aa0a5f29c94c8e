//! The validating builder for [`Qb5000Config`].
//!
//! The struct keeps public fields and a `Default` impl for struct-update
//! syntax, but a nonsense value (ρ outside `(0, 1]`, a zero cluster count,
//! a coverage target that is no ratio) only surfaces deep inside the
//! pipeline — as a wrong clustering, a panic, or a silent no-op. The
//! builder rejects those values at construction time with a
//! [`ConfigError`] naming the offending field.
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
use qb_trace::Tracer;

use crate::durable::DurabilityConfig;
use crate::error::ConfigError;
use crate::pipeline::Qb5000Config;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_pass_validation() {
        Qb5000Config::builder().build().unwrap();
        Qb5000Config::default().validate().unwrap();
    }

    #[test]
    fn builder_sets_every_pipeline_field() {
        let rec = Recorder::new();
        let cfg = Qb5000Config::builder()
            .max_clusters(4)
            .coverage_target(0.9)
            .rho(0.5)
            .recorder(rec.clone())
            .trace(Tracer::enabled())
            .build()
            .unwrap();
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
}
