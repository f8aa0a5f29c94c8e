//! The four workloads: what traffic each replays and why it exists.
//!
//! The program under test only ever sees the generated statements; every
//! input is a function of `--seed`.

use std::time::{Duration, Instant};

use rand::Rng;

use crate::api::{
    self, daily_cycle, Minute, Model, QueryEvent, RateFn, TemplateSpec, TraceGenerator,
    MINUTES_PER_HOUR,
};

/// How a workload's statements reach the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// One `ingest_weighted` call per event.
    PerEvent,
    /// One batch call per simulated minute.
    PerMinuteBatch,
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    pub model: Model,
    /// Forecast horizons in hours (`HorizonSpec::hourly`). The longest one
    /// needs `24 + h + 1` hours of history before its first fit, which is
    /// what sizes `preload_hours`.
    pub horizons: &'static [usize],
    pub ingest: Ingest,
    /// Simulated hours replayed (ingest + hourly cluster updates + one
    /// first fit and publish) before the measured phase.
    pub preload_hours: i64,
    /// The measured phase runs at least this many rounds, and the state
    /// digest is taken at the end of exactly this round, so runs of one
    /// seed compare whatever `--seconds` let them reach.
    pub digest_round: u32,
    /// Templates live from minute 0 (population workloads; 0 = BusTracker).
    pub templates: usize,
    /// Templates activating at the top of every simulated hour past the
    /// preload.
    pub minted_per_hour: usize,
    pub advisor: bool,
    pub reader: bool,
    pub durable: bool,
}

/// Simulated hours of minting declared up front; a measured phase that
/// outlives them ends early rather than replaying a population that
/// stopped growing.
pub const MAX_MEASURED_HOURS: i64 = 600;

/// Rounds between explicit snapshots on the durable workload.
pub const SNAPSHOT_EVERY_ROUNDS: u32 = 24;

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "bus_hybrid",
        why: "The paper's deployed setup: BusTracker, per-event ingest, HYBRID at 1 h and 12 h, advisor each round; model fitting is nearly all of the loop.",
        model: Model::Hybrid,
        horizons: &[1, 12],
        ingest: Ingest::PerEvent,
        preload_hours: 48,
        digest_round: 12,
        templates: 0,
        minted_per_hour: 0,
        advisor: true,
        reader: false,
        durable: false,
    },
    WorkloadDef {
        name: "wide_churn",
        why: "Paper-scale template count with continuous minting: 800 templates plus 8 new per hour, batch ingest, LR; parsing, templatizing and clustering do the work, fitting little.",
        model: Model::Lr,
        horizons: &[1],
        ingest: Ingest::PerMinuteBatch,
        preload_hours: 30,
        digest_round: 24,
        templates: 800,
        minted_per_hour: 8,
        advisor: false,
        reader: false,
        durable: false,
    },
    WorkloadDef {
        name: "serve_mixed",
        why: "Reads beside writes: a reader thread spins on ForecastReader::answer while 600 templates are ingested and every round publishes membership and forecasts.",
        model: Model::Lr,
        horizons: &[1, 12],
        ingest: Ingest::PerMinuteBatch,
        preload_hours: 48,
        digest_round: 24,
        templates: 600,
        minted_per_hour: 0,
        advisor: false,
        reader: true,
        durable: false,
    },
    WorkloadDef {
        name: "durable_bus",
        why: "The same loop on DurablePipeline: one WAL batch record and fsync per minute, a snapshot every 24 rounds, then drop and recover; only WAL and snapshot work differs.",
        model: Model::Lr,
        horizons: &[1],
        ingest: Ingest::PerMinuteBatch,
        preload_hours: 30,
        digest_round: 48,
        templates: 0,
        minted_per_hour: 0,
        advisor: false,
        reader: false,
        durable: true,
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Arrival shapes of the population: three daily-cycle profiles (morning
/// heavy, evening heavy, broad daytime) at eight phases three hours apart.
/// Phases cover the day evenly, so every simulated hour carries about the
/// same volume and rounds are comparable; shapes this far apart stay
/// separate clusters at ρ = 0.8 while templates of one family share one.
const RATE_FAMILIES: usize = 24;

/// Mean arrivals per minute of one template at rate 1.0.
const TEMPLATE_WEIGHT: f64 = 0.05;

fn family_rate(family: usize, active_from: Minute) -> RateFn {
    let (base, am, pm) = match family % 3 {
        0 => (0.3, 5.7, 0.6),
        1 => (0.3, 0.6, 5.1),
        _ => (0.68, 1.35, 1.12),
    };
    let shift = (family / 3) as Minute * 3 * MINUTES_PER_HOUR;
    let cycle = daily_cycle(base, am, pm);
    Box::new(move |t| if t < active_from { 0.0 } else { cycle(t + shift) })
}

type SqlFactory = Box<dyn Fn(&mut rand::rngs::SmallRng, Minute) -> String + Send + Sync>;

/// Six statement shapes over per-group tables; `(group, column, shape)`
/// differ between any two templates, so none fold together.
fn statement_shape(index: usize) -> SqlFactory {
    let (g, c) = (index / 12, (index / 6) % 2);
    match index % 6 {
        0 => Box::new(move |r, _| {
            format!(
                "SELECT id, c{c}, payload FROM app_{g} WHERE c{c} = {}",
                r.gen_range(0..100_000)
            )
        }),
        1 => Box::new(move |r, _| {
            format!(
                "SELECT id, c{c} FROM app_{g} WHERE c{c} BETWEEN {} AND {} ORDER BY c{c} DESC LIMIT {}",
                r.gen_range(0..50_000),
                r.gen_range(50_000..100_000),
                r.gen_range(1..50)
            )
        }),
        2 => Box::new(move |r, _| {
            format!(
                "SELECT a.id, b.label FROM app_{g} a JOIN ref_{g} b ON a.ref_id = b.id \
                 WHERE a.c{c} = {} AND b.kind = {}",
                r.gen_range(0..100_000),
                r.gen_range(0..20)
            )
        }),
        3 => Box::new(move |r, _| {
            format!(
                "SELECT id, payload FROM app_{g} WHERE c{c} IN ({}, {}, {})",
                r.gen_range(0..100_000),
                r.gen_range(0..100_000),
                r.gen_range(0..100_000)
            )
        }),
        4 => Box::new(move |r, _| {
            format!(
                "INSERT INTO app_{g} (id, c{c}, payload) VALUES ({}, {}, 'p{}')",
                r.gen_range(0..1_000_000),
                r.gen_range(0..100_000),
                r.gen_range(0..1_000)
            )
        }),
        _ => Box::new(move |r, _| {
            format!(
                "UPDATE app_{g} SET payload = 'u{}', c{c} = {} WHERE id = {}",
                r.gen_range(0..1_000),
                r.gen_range(0..100_000),
                r.gen_range(0..1_000_000)
            )
        }),
    }
}

/// `def.templates` templates live from minute 0, then `minted_per_hour`
/// more activating at the top of each hour after the preload.
fn population(def: &WorkloadDef) -> Vec<TemplateSpec> {
    let minted = def.minted_per_hour * MAX_MEASURED_HOURS as usize;
    (0..def.templates + minted)
        .map(|i| {
            let active_from = match i.checked_sub(def.templates) {
                None => Minute::MIN,
                Some(k) => {
                    (def.preload_hours + (k / def.minted_per_hour) as Minute) * MINUTES_PER_HOUR
                }
            };
            TemplateSpec {
                make_sql: statement_shape(i),
                weight: TEMPLATE_WEIGHT,
                rate: family_rate(i % RATE_FAMILIES, active_from),
            }
        })
        .collect()
}

/// The workload's statement stream, pulled one simulated hour at a time
/// so a time-bounded run generates only what it replays.
pub struct Trace {
    generator: TraceGenerator,
    /// The first event past the last hour handed out.
    lookahead: Option<QueryEvent>,
    pub generated_statements: u64,
    pub generation_time: Duration,
}

impl Trace {
    pub fn new(def: &WorkloadDef, seed: u64) -> Self {
        let generator = if def.templates == 0 {
            api::bus_tracker_trace(seed)
        } else {
            api::population_trace(population(def), seed)
        };
        Self {
            generator,
            lookahead: None,
            generated_statements: 0,
            generation_time: Duration::ZERO,
        }
    }

    /// Replaces `out` with the events of the hour ending at `hour_end`.
    pub fn next_hour(&mut self, hour_end: Minute, out: &mut Vec<QueryEvent>) {
        let started = Instant::now();
        out.clear();
        out.extend(self.lookahead.take_if(|ev| ev.minute < hour_end));
        if self.lookahead.is_none() {
            for ev in self.generator.by_ref() {
                if ev.minute >= hour_end {
                    self.lookahead = Some(ev);
                    break;
                }
                out.push(ev);
            }
        }
        self.generated_statements += out.len() as u64;
        self.generation_time += started.elapsed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_findable() {
        for def in &WORKLOADS {
            assert_eq!(find(def.name).map(|d| d.name), Some(def.name));
            assert!(def.why.len() <= 200 && !def.why.contains('\n'), "{}", def.name);
            let longest = def.horizons.iter().max().copied().unwrap();
            assert!(def.preload_hours > 24 + longest as i64, "{}", def.name);
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn hours_partition_the_stream_in_order() {
        let def = find("wide_churn").unwrap();
        let mut by_hour = Trace::new(def, 7);
        let mut events = Vec::new();
        let mut joined = Vec::new();
        for hour in 1..=3 {
            by_hour.next_hour(hour * MINUTES_PER_HOUR, &mut events);
            assert!(events.iter().all(|e| {
                e.minute >= (hour - 1) * MINUTES_PER_HOUR && e.minute < hour * MINUTES_PER_HOUR
            }));
            joined.extend(events.iter().cloned());
        }
        let mut whole = Trace::new(def, 7);
        whole.next_hour(3 * MINUTES_PER_HOUR, &mut events);
        assert_eq!(joined, events, "hourly pulls must not drop or reorder events");
        assert_eq!(by_hour.generated_statements, joined.len() as u64);
    }

    #[test]
    fn same_seed_same_trace_and_minting_starts_after_preload() {
        let def = find("wide_churn").unwrap();
        let pull = |seed| {
            let mut trace = Trace::new(def, seed);
            let mut events = Vec::new();
            trace.next_hour(MINUTES_PER_HOUR, &mut events);
            events
        };
        assert_eq!(pull(3), pull(3));
        assert_ne!(pull(3), pull(4));
        let specs = population(def);
        assert_eq!(specs.len(), 800 + 8 * MAX_MEASURED_HOURS as usize);
        let first_minted = &specs[800];
        let start = def.preload_hours * MINUTES_PER_HOUR;
        assert_eq!((first_minted.rate)(start - 1), 0.0);
        assert!((first_minted.rate)(start) > 0.0);
        assert!((specs[808].rate)(start + MINUTES_PER_HOUR - 1) == 0.0);
        assert!((specs[0].rate)(0) > 0.0);
    }
}
