//! The crate-level error type.
//!
//! The assembled pipeline crosses three fallible stages — configuration
//! validation, Pre-Processor ingest, and Forecaster training — each with
//! its own error enum. [`Error`] unifies them so drivers that thread a
//! query stream end-to-end (`ingest` → `forecast_job_with` →
//! `ensure_trained`) handle one type, while the per-stage enums remain
//! available for callers that match on specifics.

use std::fmt;

use qb_durable::DurabilityError;
use qb_forecast::ForecastError;
use qb_preprocessor::PreProcessError;

/// A configuration value rejected by one of the validating builders
/// ([`crate::Qb5000Config::builder`], [`crate::ControllerConfig::builder`]).
///
/// Each variant names the offending field so the message pinpoints the
/// exact knob, not just "bad config".
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// Similarity threshold ρ outside `(0, 1]` (or not finite). ρ = 0
    /// would merge every template into one cluster; ρ > 1 can never be
    /// reached by cosine similarity, so no cluster would ever admit a
    /// second member.
    RhoOutOfRange { value: f64 },
    /// A duration or interval field that must be strictly positive was
    /// zero (or negative).
    ZeroInterval { field: &'static str },
    /// A count field that must be strictly positive was zero.
    ZeroCount { field: &'static str },
    /// A ratio field outside `(0, 1]` (or not finite).
    RatioOutOfRange { field: &'static str, value: f64 },
    /// A scale factor that must be finite and strictly positive.
    BadScale { field: &'static str, value: f64 },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::RhoOutOfRange { value } => {
                write!(f, "clusterer rho must be in (0, 1], got {value}")
            }
            ConfigError::ZeroInterval { field } => {
                write!(f, "{field} must be a positive number of minutes")
            }
            ConfigError::ZeroCount { field } => {
                write!(f, "{field} must be at least 1")
            }
            ConfigError::RatioOutOfRange { field, value } => {
                write!(f, "{field} must be in (0, 1], got {value}")
            }
            ConfigError::BadScale { field, value } => {
                write!(f, "{field} must be finite and > 0, got {value}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Any error the assembled `qb5000` pipeline can surface, tagged by the
/// stage it came from. Convertible from each stage's own error via `From`
/// (so `?` works across stage boundaries) and inspectable through
/// [`std::error::Error::source`].
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The Pre-Processor rejected a statement (it is quarantined, the
    /// pipeline stays healthy).
    PreProcess(PreProcessError),
    /// A forecasting model failed to train or was fed bad data.
    Forecast(ForecastError),
    /// A builder rejected a configuration value.
    Config(ConfigError),
    /// The durable-state layer failed (I/O, corruption, or an injected
    /// crash). Carried as the rendered message so `Error` stays `Clone +
    /// PartialEq`; match [`Error::is_injected_crash`] to separate injected
    /// crashes from real failures.
    Durability {
        /// Rendered [`DurabilityError`] message.
        detail: String,
        /// True when the source was an injected test crash.
        injected_crash: bool,
    },
}

impl Error {
    /// The pipeline stage the error came from, using the same stage labels
    /// as [`crate::PipelineHealth::last_errors`].
    pub fn stage(&self) -> &'static str {
        match self {
            Error::PreProcess(_) => "pre-processor",
            Error::Forecast(_) => "forecaster",
            Error::Config(_) => "config",
            Error::Durability { .. } => "durability",
        }
    }

    /// True when the error is an injected durability-test crash (harnesses
    /// treat those as "the process died here", everything else as a real
    /// failure).
    pub fn is_injected_crash(&self) -> bool {
        matches!(self, Error::Durability { injected_crash: true, .. })
    }

    /// True for forecast-model failures (divergence, solver breakdown)
    /// that degrade gracefully, as opposed to data or config errors that
    /// would fail identically on retry.
    pub fn is_model_failure(&self) -> bool {
        matches!(self, Error::Forecast(e) if e.is_model_failure())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::PreProcess(e) => write!(f, "pre-processor: {e}"),
            Error::Forecast(e) => write!(f, "forecaster: {e}"),
            Error::Config(e) => write!(f, "config: {e}"),
            Error::Durability { detail, .. } => write!(f, "durability: {detail}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::PreProcess(e) => Some(e),
            Error::Forecast(e) => Some(e),
            Error::Config(e) => Some(e),
            Error::Durability { .. } => None,
        }
    }
}

impl From<PreProcessError> for Error {
    fn from(e: PreProcessError) -> Self {
        Error::PreProcess(e)
    }
}

impl From<ForecastError> for Error {
    fn from(e: ForecastError) -> Self {
        Error::Forecast(e)
    }
}

impl From<ConfigError> for Error {
    fn from(e: ConfigError) -> Self {
        Error::Config(e)
    }
}

impl From<DurabilityError> for Error {
    fn from(e: DurabilityError) -> Self {
        Error::Durability { detail: e.to_string(), injected_crash: e.is_injected_crash() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_round_trips_preserve_the_inner_error() {
        let pe = PreProcessError::Parse(qb_sqlparse::parse_statement("SELEC").unwrap_err());
        let e: Error = pe.clone().into();
        assert_eq!(e, Error::PreProcess(pe));
        assert_eq!(e.stage(), "pre-processor");
        assert!(!e.is_model_failure());

        let fe = ForecastError::Diverged { model: "RNN", detail: "loss=NaN".into() };
        let e: Error = fe.clone().into();
        assert_eq!(e, Error::Forecast(fe));
        assert_eq!(e.stage(), "forecaster");
        assert!(e.is_model_failure());

        let ce = ConfigError::ZeroCount { field: "max_clusters" };
        let e: Error = ce.clone().into();
        assert_eq!(e, Error::Config(ce));
        assert_eq!(e.stage(), "config");
    }

    #[test]
    fn source_exposes_the_stage_error() {
        use std::error::Error as StdError;
        let e = Error::Forecast(ForecastError::Diverged {
            model: "LR",
            detail: "singular".into(),
        });
        let src = e.source().expect("source present");
        assert!(src.to_string().contains("LR"));
        assert!(e.to_string().starts_with("forecaster: "));
    }

    #[test]
    fn display_names_the_offending_field() {
        let msgs = [
            ConfigError::RhoOutOfRange { value: 1.5 }.to_string(),
            ConfigError::ZeroInterval { field: "build_period" }.to_string(),
            ConfigError::ZeroCount { field: "max_clusters" }.to_string(),
            ConfigError::RatioOutOfRange { field: "coverage_target", value: 0.0 }.to_string(),
            ConfigError::BadScale { field: "db_scale", value: f64::NAN }.to_string(),
        ];
        for m in &msgs {
            assert!(!m.is_empty());
        }
        assert!(msgs[1].contains("build_period"));
        assert!(msgs[3].contains("coverage_target"));
    }
}
