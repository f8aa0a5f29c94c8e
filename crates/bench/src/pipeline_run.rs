//! Feeding a synthetic trace through the full QB5000 pipeline, with the
//! daily clustering cadence the paper uses ("the frequency at which it
//! performs \[the\] incremental clustering algorithm \[is\] once per day").

use qb5000::{Qb5000Config, QueryBot5000};
use qb_timeseries::{Interval, Minute, MINUTES_PER_DAY};
use qb_workloads::{TraceConfig, Workload};

/// Per-day clustering statistics collected while feeding.
#[derive(Debug, Clone)]
pub struct DailyStats {
    pub day: i64,
    pub num_clusters: usize,
    pub num_templates: usize,
    /// Coverage ratio of the top-1..=5 clusters.
    pub coverage: [f64; 5],
    /// Member sets of the five largest clusters (template ids).
    pub top5_members: Vec<Vec<u32>>,
}

/// A completed pipeline feed.
pub struct PipelineRun {
    pub bot: QueryBot5000,
    pub start: Minute,
    pub end: Minute,
    pub daily: Vec<DailyStats>,
    /// Total queries replayed.
    pub total_queries: u64,
    /// Wall time spent inside `ingest` (Table 4's Pre-Processor cost).
    pub ingest_wall: std::time::Duration,
    /// Wall time spent inside `update_clusters` (Table 4's Clusterer cost).
    pub cluster_wall: std::time::Duration,
}

/// Replay options.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub workload: Workload,
    pub start: Minute,
    pub days: u32,
    pub scale: f64,
    pub seed: u64,
    pub qb: Qb5000Config,
    /// Minutes of per-minute counts the histories keep
    /// ([`QueryBot5000::keep_minutes`]; 0 keeps the default hour).
    pub minute_lookback: Minute,
}

impl RunOptions {
    pub fn new(workload: Workload, days: u32, scale: f64) -> Self {
        Self {
            workload,
            start: 0,
            days,
            scale,
            seed: 0xBEE,
            qb: Qb5000Config::default(),
            minute_lookback: 0,
        }
    }

    /// Keeps every minute of the trace, for experiments that read series
    /// at sub-hour intervals.
    pub fn reading_minutes(mut self) -> Self {
        self.minute_lookback = i64::from(self.days) * MINUTES_PER_DAY;
        self
    }

    pub fn starting_at(mut self, start: Minute) -> Self {
        self.start = start;
        self
    }

    /// Attaches a metrics recorder to the pipeline: every stage reports
    /// counters and stage timings into it while the trace replays.
    pub fn recorded(mut self, recorder: &qb5000::Recorder) -> Self {
        self.qb.recorder = recorder.clone();
        self
    }

    /// Attaches a [`qb5000::Tracer`]: every stage records lineage events
    /// into its flight recorder while the trace replays.
    pub fn traced(mut self, tracer: &qb5000::Tracer) -> Self {
        self.qb.tracer = tracer.clone();
        self
    }
}

/// Feeds `days` of the workload through QB5000 with daily clustering.
pub fn run_pipeline(opts: RunOptions) -> PipelineRun {
    let mut bot = QueryBot5000::new(opts.qb.clone());
    bot.keep_minutes(opts.minute_lookback);
    let cfg = TraceConfig { start: opts.start, days: opts.days, scale: opts.scale, seed: opts.seed };
    let mut daily = Vec::new();
    let mut next_day_boundary = opts.start + MINUTES_PER_DAY;
    let mut total_queries = 0u64;
    let mut ingest_wall = std::time::Duration::ZERO;
    let mut cluster_wall = std::time::Duration::ZERO;

    let do_daily = |bot: &mut QueryBot5000, boundary: Minute, daily: &mut Vec<DailyStats>,
                        cluster_wall: &mut std::time::Duration| {
        let t0 = std::time::Instant::now();
        bot.update_clusters(boundary);
        *cluster_wall += t0.elapsed();
        let clusterer = bot.clusterer();
        let coverage = [
            bot.coverage_ratio(1),
            bot.coverage_ratio(2),
            bot.coverage_ratio(3),
            bot.coverage_ratio(4),
            bot.coverage_ratio(5),
        ];
        let top5_members: Vec<Vec<u32>> = clusterer
            .largest_clusters(5)
            .iter()
            .map(|c| {
                let mut m: Vec<u32> = c.members.iter().map(|&k| k as u32).collect();
                m.sort_unstable();
                m
            })
            .collect();
        daily.push(DailyStats {
            day: (boundary - opts.start) / MINUTES_PER_DAY,
            num_clusters: clusterer.num_clusters(),
            num_templates: clusterer.num_templates(),
            coverage,
            top5_members,
        });
    };

    for ev in opts.workload.generator(cfg) {
        while ev.minute >= next_day_boundary {
            do_daily(&mut bot, next_day_boundary, &mut daily, &mut cluster_wall);
            next_day_boundary += MINUTES_PER_DAY;
        }
        let t0 = std::time::Instant::now();
        let _ = bot.ingest_weighted(ev.minute, &ev.sql, ev.count);
        ingest_wall += t0.elapsed();
        total_queries += ev.count;
    }
    let end = opts.start + opts.days as i64 * MINUTES_PER_DAY;
    do_daily(&mut bot, end, &mut daily, &mut cluster_wall);

    PipelineRun { bot, start: opts.start, end, daily, total_queries, ingest_wall, cluster_wall }
}

impl PipelineRun {
    /// Cluster-major series (one row per tracked cluster) over
    /// `[start, end)` at `interval`.
    pub fn cluster_series(&self, start: Minute, end: Minute, interval: Interval) -> Vec<Vec<f64>> {
        self.bot
            .tracked_clusters()
            .iter()
            .map(|c| self.bot.cluster_series(c, start, end, interval))
            .collect()
    }

    /// Snapshot of every metric the run's recorder collected (empty when
    /// [`RunOptions::recorded`] was never called).
    pub fn metrics(&self) -> qb5000::MetricsSnapshot {
        self.bot.recorder().snapshot()
    }

    /// The workload's total per-interval series (all templates).
    pub fn total_series(&self, start: Minute, end: Minute, interval: Interval) -> Vec<f64> {
        let n = interval.buckets_between(start, end);
        let mut out = vec![0.0; n];
        for e in self.bot.preprocessor().templates() {
            let s = e.history.dense_series(start, end, interval);
            for (o, v) in out.iter_mut().zip(s) {
                *o += v;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bustracker_run_produces_daily_stats() {
        let run = run_pipeline(RunOptions::new(Workload::BusTracker, 3, 0.05));
        assert_eq!(run.daily.len(), 3);
        assert!(run.total_queries > 1000);
        let last = run.daily.last().unwrap();
        assert!(last.num_templates >= 10, "{last:?}");
        // Coverage is monotone in k.
        for w in last.coverage.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
    }

    #[test]
    fn recorded_run_collects_stage_metrics() {
        let recorder = qb5000::Recorder::new();
        let run = run_pipeline(
            RunOptions::new(Workload::BusTracker, 2, 0.05).recorded(&recorder),
        );
        let m = run.metrics();
        assert!(m.counters.get("preprocessor.ingested_statements").copied().unwrap_or(0) > 0);
        assert!(m.histograms.get("clusterer.update").is_some_and(|h| h.count >= 2));
        // An unrecorded run stays empty.
        let clean = run_pipeline(RunOptions::new(Workload::BusTracker, 2, 0.05));
        assert_eq!(clean.metrics(), qb5000::MetricsSnapshot::default());
    }

    #[test]
    fn cluster_series_nonempty_after_run() {
        let run = run_pipeline(RunOptions::new(Workload::BusTracker, 3, 0.05));
        let series = run.cluster_series(run.start, run.end, Interval::HOUR);
        assert!(!series.is_empty());
        assert_eq!(series[0].len(), 72);
        assert!(series[0].iter().sum::<f64>() > 0.0);
    }
}
