//! # qb-timeseries
//!
//! Arrival-rate time-series infrastructure shared by the QB5000 components:
//!
//! * [`ArrivalHistory`] — the per-template arrival-rate record the
//!   Pre-Processor maintains (§4): per-hour counts over the whole history
//!   and per-minute counts only as far back as a reader looks.
//! * [`Interval`] — prediction/recording interval arithmetic (§6.2). The
//!   base recording granularity is one minute, the finest prediction level
//!   QB5000 offers.
//! * [`metrics`] — the paper's accuracy metric (MSE in log space) plus the
//!   `ln(1+x)` transform pair applied around model training (§7.2).
//!
//! Timestamps throughout the workspace are [`Minute`]s: whole minutes since
//! the simulation epoch. Real deployments would anchor this to wall-clock
//! time; the synthetic traces define their own epoch.

#![forbid(unsafe_code)]

pub mod history;
pub mod metrics;

pub use history::{ArrivalHistory, ArrivalHistoryState};
pub use metrics::{expm1_series, log1p_series, mse, mse_log_space};

/// Whole minutes since the simulation epoch.
pub type Minute = i64;

/// Minutes per hour.
pub const MINUTES_PER_HOUR: i64 = 60;
/// Minutes per day.
pub const MINUTES_PER_DAY: i64 = 24 * MINUTES_PER_HOUR;
/// Minutes per (7-day) week.
pub const MINUTES_PER_WEEK: i64 = 7 * MINUTES_PER_DAY;

/// A recording/prediction interval: a positive whole number of minutes.
///
/// QB5000 records at one-minute granularity and lets the planning module
/// aggregate into coarser intervals for training (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval(i64);

impl Interval {
    pub const MINUTE: Interval = Interval(1);
    pub const TEN_MINUTES: Interval = Interval(10);
    pub const TWENTY_MINUTES: Interval = Interval(20);
    pub const THIRTY_MINUTES: Interval = Interval(30);
    pub const HOUR: Interval = Interval(MINUTES_PER_HOUR);
    pub const TWO_HOURS: Interval = Interval(2 * MINUTES_PER_HOUR);
    pub const DAY: Interval = Interval(MINUTES_PER_DAY);

    /// Creates an interval of `minutes` minutes.
    ///
    /// # Panics
    /// Panics if `minutes <= 0`.
    pub fn minutes(minutes: i64) -> Self {
        assert!(minutes > 0, "Interval must be positive, got {minutes}");
        Interval(minutes)
    }

    /// Length in minutes.
    #[inline]
    pub fn as_minutes(self) -> i64 {
        self.0
    }

    /// Floors a timestamp to the start of its bucket.
    #[inline]
    pub fn bucket_start(self, t: Minute) -> Minute {
        t.div_euclid(self.0) * self.0
    }

    /// Number of buckets covering the half-open range `[start, end)`.
    ///
    /// # Panics
    /// Panics if `end < start`.
    pub fn buckets_between(self, start: Minute, end: Minute) -> usize {
        assert!(end >= start, "buckets_between: end before start");
        (((end - start) + self.0 - 1) / self.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_start_floors() {
        let h = Interval::HOUR;
        assert_eq!(h.bucket_start(0), 0);
        assert_eq!(h.bucket_start(59), 0);
        assert_eq!(h.bucket_start(60), 60);
        assert_eq!(h.bucket_start(61), 60);
    }

    #[test]
    fn bucket_start_negative_timestamps() {
        let h = Interval::HOUR;
        assert_eq!(h.bucket_start(-1), -60);
        assert_eq!(h.bucket_start(-60), -60);
        assert_eq!(h.bucket_start(-61), -120);
    }

    #[test]
    fn buckets_between_counts() {
        let h = Interval::HOUR;
        assert_eq!(h.buckets_between(0, 0), 0);
        assert_eq!(h.buckets_between(0, 1), 1);
        assert_eq!(h.buckets_between(0, 60), 1);
        assert_eq!(h.buckets_between(0, 61), 2);
        assert_eq!(h.buckets_between(0, MINUTES_PER_DAY), 24);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_interval_panics() {
        Interval::minutes(0);
    }
}
