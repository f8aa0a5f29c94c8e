//! Sustained-ingest throughput for the sharded batch engine.
//!
//! Drives a [`PreProcessor`] directly (no clusterer or forecaster costs)
//! through three phases over 1M+ distinct templates:
//!
//! * **Cold** — every statement interns a brand-new template: parse +
//!   templatize + intern throughput, the worst case.
//! * **Hot** — every statement repeats a known raw SQL text with a
//!   weighted arrival count: the zero-alloc shard-cache fast path. This
//!   is the path the 1M-weighted-arrivals/sec target measures.
//! * **Churn** — a repeat stream with a fixed fraction of never-seen
//!   templates mixed in, the sustained-traffic shape that used to
//!   collapse the fill-once raw cache.
//!
//! Results land in `BENCH_ingest.json` for CI to archive; the run is
//! informational and always exits 0 unless the pipeline itself fails.
//! `QB_THREADS` sizes the worker pool; `QB_BENCH_TEMPLATES` overrides the
//! distinct-template population for quick local runs.
//!
//! ```text
//! cargo run --release -p qb-bench --bin ingest_bench
//! ```

#![forbid(unsafe_code)]

use qb_parallel::ThreadPool;
use qb_preprocessor::{BatchItem, PreProcessor, PreProcessorConfig};
use std::time::Instant;

const DEFAULT_TEMPLATES: usize = 1_000_000;
const BATCH: usize = 4096;
/// Weighted count per hot-phase statement: the fast path bumps a history
/// by `count`, so weight multiplies arrivals without extra parsing.
const HOT_WEIGHT: u64 = 4;
/// One churn op in `CHURN_NEW_EVERY` is a brand-new template.
const CHURN_NEW_EVERY: usize = 8;
const CHURN_OPS: usize = 500_000;

fn statement(i: usize) -> String {
    // Distinct table names make distinct templates (constants alone would
    // fold into one), while staying cheap to parse.
    format!("SELECT a, b FROM t{i} WHERE k = {} AND a > 7", i % 97)
}

/// Feeds `sqls[range]` through `ingest_batch` in fixed-size ticks, each
/// statement carrying `count` arrivals. Returns (statements, arrivals).
fn drive(
    pre: &mut PreProcessor,
    pool: &ThreadPool,
    sqls: &[String],
    count: u64,
) -> (u64, u64) {
    let mut statements = 0u64;
    let mut arrivals = 0u64;
    for (tick, chunk) in sqls.chunks(BATCH).enumerate() {
        let batch: Vec<BatchItem<'_>> = chunk
            .iter()
            .map(|sql| BatchItem { minute: tick as i64, sql, count })
            .collect();
        let report = pre.ingest_batch(pool, &batch);
        statements += report.statements;
        arrivals += report.arrivals;
    }
    (statements, arrivals)
}

fn main() {
    let templates: usize = std::env::var("QB_BENCH_TEMPLATES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_TEMPLATES);
    let pool = ThreadPool::default();
    let config = PreProcessorConfig {
        // Size the cache above the whole population (plus churn) so the
        // hot phase measures the fast path, not eviction.
        raw_cache_limit: templates * 2 + CHURN_OPS,
        ..PreProcessorConfig::default()
    };
    let shards = config.ingest_shards;
    let mut pre = PreProcessor::new(config);

    let sqls: Vec<String> = (0..templates).map(statement).collect();

    // Phase 1: cold — every statement is a new template.
    let t0 = Instant::now();
    let (cold_stmts, _) = drive(&mut pre, &pool, &sqls, 1);
    let cold_wall = t0.elapsed().as_secs_f64();
    assert_eq!(cold_stmts as usize, templates, "every cold statement ingests");
    assert_eq!(pre.num_templates(), templates, "every cold statement is distinct");

    // Phase 2: hot — pure repeat arrivals over the full population.
    let t0 = Instant::now();
    let (hot_stmts, hot_arrivals) = drive(&mut pre, &pool, &sqls, HOT_WEIGHT);
    let hot_wall = t0.elapsed().as_secs_f64();
    assert_eq!(pre.num_templates(), templates, "hot phase must not intern");

    // Phase 3: churn — repeats with a fixed fraction of new templates.
    let churn_sqls: Vec<String> = (0..CHURN_OPS)
        .map(|i| {
            if i % CHURN_NEW_EVERY == 0 {
                statement(templates + i) // never seen before
            } else {
                statement(i * 31 % templates) // a repeat
            }
        })
        .collect();
    let t0 = Instant::now();
    let (churn_stmts, churn_arrivals) = drive(&mut pre, &pool, &churn_sqls, HOT_WEIGHT);
    let churn_wall = t0.elapsed().as_secs_f64();

    let hot_stmts_per_sec = hot_stmts as f64 / hot_wall;
    let hot_weighted_per_sec = hot_arrivals as f64 / hot_wall;
    let json = format!(
        "{{\n  \"distinct_templates\": {templates},\n  \"threads\": {},\n  \
         \"ingest_shards\": {shards},\n  \"batch_size\": {BATCH},\n  \
         \"cold_templates_per_sec\": {:.1},\n  \
         \"hot_statements_per_sec\": {hot_stmts_per_sec:.1},\n  \
         \"hot_weight\": {HOT_WEIGHT},\n  \
         \"hot_weighted_arrivals_per_sec\": {hot_weighted_per_sec:.1},\n  \
         \"meets_1m_weighted_target\": {},\n  \
         \"churn_new_template_ratio\": {:.4},\n  \
         \"churn_statements_per_sec\": {:.1},\n  \
         \"churn_weighted_arrivals_per_sec\": {:.1}\n}}\n",
        pool.threads(),
        cold_stmts as f64 / cold_wall,
        hot_weighted_per_sec >= 1e6,
        1.0 / CHURN_NEW_EVERY as f64,
        churn_stmts as f64 / churn_wall,
        churn_arrivals as f64 / churn_wall,
    );
    std::fs::write("BENCH_ingest.json", &json).expect("BENCH_ingest.json writable");
    println!("{json}");
    println!("wrote BENCH_ingest.json");
}
