//! # qb-workloads
//!
//! Synthetic trace generators standing in for the paper's three proprietary
//! application traces (§2.1) plus the OLTP-Bench-style noisy composite of
//! Appendix D. Each generator emits a stream of timestamped SQL statements
//! whose *temporal statistics* reproduce the published properties:
//!
//! * **BusTracker** — 24-hour cycles with morning/evening rush-hour peaks,
//!   weekday/weekend modulation (Figure 1a); SELECT-dominated with steady
//!   position-ingest INSERTs (Table 1: ~98 % SELECT).
//! * **Admissions** — volume growth toward the Dec 1 / Dec 15 application
//!   deadlines, repeating annually, with post-deadline collapse and
//!   review-season activity (Figure 1b); ≥ 99 % SELECT.
//! * **MOOC** — workload evolution: new template cohorts appear when
//!   "features ship" or instructors launch courses (Figure 1c); the
//!   distinct-template count grows over the trace.
//! * **Noisy composite** — eight phases with disjoint template sets
//!   switching every 10 hours, 50 %-of-mean white noise, injected spikes
//!   (Appendix D / Figure 17).
//! * **Churn scenarios** — evolving-workload template churn over a stable
//!   base population: schema-migration drift, feature-launch bursts,
//!   tenant-onboarding waves, flash-crowd spikes, and seasonal+trend
//!   mixes ([`churn::ChurnScenario`]), exercising the cold-start path.
//!
//! Volumes are driven by seeded Poisson sampling around deterministic rate
//! functions, so traces are reproducible and the per-minute *shape* is
//! independent of the `scale` knob that keeps experiment runtimes sane
//! (DESIGN.md, "Scaled volumes").

#![forbid(unsafe_code)]

pub mod admissions;
pub mod bustracker;
pub mod churn;
pub mod faults;
pub mod mooc;
pub mod noisy;
pub mod pattern;
pub mod trace;

pub use churn::{ChurnScenario, CHURN_SCENARIOS};
pub use faults::{FaultInjector, FaultPlan, FaultStats, StorageFaultKind, StorageFaultPlan};
pub use pattern::{
    daily_cycle, deadline_growth, pulse_between, ramp_between, step_after, weekday_factor, RateFn,
};
pub use trace::{poisson, QueryEvent, TemplateSpec, TraceConfig, TraceGenerator};

use qb_timeseries::Minute;

/// The three real-world applications of §2.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    Admissions,
    BusTracker,
    Mooc,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Admissions => "Admissions",
            Workload::BusTracker => "BusTracker",
            Workload::Mooc => "MOOC",
        }
    }

    /// Number of schema tables (Table 1: 216 / 95 / 454). The generators
    /// reference a representative subset; this constant reports the
    /// modeled application's full schema size for the Table 1 harness.
    pub fn num_tables(self) -> usize {
        match self {
            Workload::Admissions => 216,
            Workload::BusTracker => 95,
            Workload::Mooc => 454,
        }
    }

    /// Trace length in days used by the paper (Table 1: 507 / 58 / 85).
    pub fn paper_trace_days(self) -> u32 {
        match self {
            Workload::Admissions => 507,
            Workload::BusTracker => 58,
            Workload::Mooc => 85,
        }
    }

    /// Builds the generator for this workload.
    pub fn generator(self, cfg: TraceConfig) -> TraceGenerator {
        match self {
            Workload::Admissions => admissions::generator(cfg),
            Workload::BusTracker => bustracker::generator(cfg),
            Workload::Mooc => mooc::generator(cfg),
        }
    }
}

/// Simulation epoch bookkeeping: the trace epoch (minute 0) is
/// **2016-01-01 00:00** on a 365-day-year calendar (leap days ignored — the
/// rate functions only need day-of-year periodicity).
pub const MINUTES_PER_YEAR: i64 = 365 * qb_timeseries::MINUTES_PER_DAY;

/// Day-of-year in `[0, 365)` for a minute timestamp.
pub fn day_of_year(t: Minute) -> f64 {
    let m = t.rem_euclid(MINUTES_PER_YEAR);
    m as f64 / qb_timeseries::MINUTES_PER_DAY as f64
}

/// Hour-of-day in `[0, 24)`.
pub fn hour_of_day(t: Minute) -> f64 {
    let m = t.rem_euclid(qb_timeseries::MINUTES_PER_DAY);
    m as f64 / 60.0
}

/// Day-of-week in `[0, 7)`; day 0 (2016-01-01) is treated as a Friday.
pub fn day_of_week(t: Minute) -> u32 {
    let day = t.div_euclid(qb_timeseries::MINUTES_PER_DAY);
    ((day + 4).rem_euclid(7)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calendar_helpers() {
        assert_eq!(hour_of_day(0), 0.0);
        assert_eq!(hour_of_day(90), 1.5);
        assert_eq!(day_of_year(0), 0.0);
        assert!((day_of_year(MINUTES_PER_YEAR + 1440) - 1.0).abs() < 1e-9);
        // Day 0 is Friday (4); day 1 Saturday (5); day 3 Monday (0).
        assert_eq!(day_of_week(0), 4);
        assert_eq!(day_of_week(1440), 5);
        assert_eq!(day_of_week(3 * 1440), 0);
    }

    #[test]
    fn workload_metadata() {
        assert_eq!(Workload::Admissions.num_tables(), 216);
        assert_eq!(Workload::BusTracker.paper_trace_days(), 58);
        assert_eq!(Workload::Mooc.name(), "MOOC");
    }
}
