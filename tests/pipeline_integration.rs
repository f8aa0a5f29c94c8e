//! Cross-crate integration: trace generators → Pre-Processor → Clusterer.

use qb5000::{Qb5000Config, QueryBot5000};
use qb_timeseries::{Interval, MINUTES_PER_DAY};
use qb_workloads::{TraceConfig, Workload};

fn feed(workload: Workload, days: u32, scale: f64, start: i64) -> QueryBot5000 {
    let mut bot = QueryBot5000::new(Qb5000Config::default());
    let cfg = TraceConfig { start, days, scale, seed: 0xFEED };
    let mut next_daily = start + MINUTES_PER_DAY;
    for ev in workload.generator(cfg) {
        if ev.minute >= next_daily {
            bot.update_clusters(next_daily);
            next_daily += MINUTES_PER_DAY;
        }
        bot.ingest_weighted(ev.minute, &ev.sql, ev.count).expect("trace SQL parses");
    }
    bot.update_clusters(start + days as i64 * MINUTES_PER_DAY);
    bot
}

#[test]
fn bustracker_full_pipeline() {
    let bot = feed(Workload::BusTracker, 3, 0.05, 0);
    let stats = bot.preprocessor().stats();
    assert!(stats.total_queries > 3_000);
    // Millions→templates→clusters reduction (Table 2's shape).
    let templates = bot.preprocessor().num_templates();
    assert!((10..=40).contains(&templates), "{templates} templates");
    let clusters = bot.clusterer().num_clusters();
    assert!(clusters <= templates);
    assert!(clusters >= 2, "cyclic + steady patterns should separate");
    // SELECT-dominated mix.
    assert!(stats.selects as f64 / stats.total_queries as f64 > 0.9);
    // The tracked clusters cover nearly all the volume.
    assert!(bot.coverage_ratio(5) > 0.9);
}

#[test]
fn rush_hour_visible_in_largest_cluster_series() {
    let bot = feed(Workload::BusTracker, 3, 0.05, 0);
    let largest = bot.tracked_clusters()[0].clone();
    let series = bot.cluster_series(&largest, 0, 3 * MINUTES_PER_DAY, Interval::HOUR);
    // Compare 8am vs 3am averaged across the three days.
    let rush: f64 = (0..3).map(|d| series[d * 24 + 8]).sum();
    let night: f64 = (0..3).map(|d| series[d * 24 + 3]).sum();
    assert!(rush > night * 2.0, "rush {rush} vs night {night}");
}

#[test]
fn mooc_evolution_creates_new_clusters() {
    // Span the MOOC feature release (day 30): template count must grow.
    let bot_early = feed(Workload::Mooc, 3, 0.05, 0);
    let early_templates = bot_early.preprocessor().num_templates();
    let bot_late = feed(Workload::Mooc, 33, 0.02, 0);
    let late_templates = bot_late.preprocessor().num_templates();
    assert!(
        late_templates > early_templates + 5,
        "evolution: {early_templates} -> {late_templates}"
    );
}

#[test]
fn noisy_workload_phase_switches_trigger_reclustering() {
    let mut bot = QueryBot5000::new(Qb5000Config::default());
    let cfg = TraceConfig { start: 0, days: 2, scale: 0.2, seed: 5 };
    for ev in qb_workloads::noisy::generator(cfg) {
        bot.ingest_weighted(ev.minute, &ev.sql, ev.count).expect("valid");
    }
    // 48h = 4+ phases; each switch floods unseen templates.
    assert!(bot.shift_triggers >= 3, "got {} shift triggers", bot.shift_triggers);
}

#[test]
fn deterministic_replay() {
    let a = feed(Workload::BusTracker, 2, 0.05, 0);
    let b = feed(Workload::BusTracker, 2, 0.05, 0);
    assert_eq!(a.preprocessor().stats(), b.preprocessor().stats());
    assert_eq!(a.clusterer().num_clusters(), b.clusterer().num_clusters());
}

#[test]
fn admissions_deadline_growth_in_series() {
    // Trace the final two weeks before Dec 1 (day 334).
    let start = 320 * MINUTES_PER_DAY;
    let bot = feed(Workload::Admissions, 14, 0.05, start);
    let largest = bot.tracked_clusters()[0].clone();
    let series =
        bot.cluster_series(&largest, start, start + 14 * MINUTES_PER_DAY, Interval::DAY);
    let first_week: f64 = series[..7].iter().sum();
    let second_week: f64 = series[7..].iter().sum();
    assert!(
        second_week > first_week * 1.5,
        "deadline growth: {first_week} -> {second_week}"
    );
}

/// A long-lived template whose shape flips moves to the other family's
/// cluster. Every template is older than `FEATURE_WINDOW`, so its feature
/// compares on all sampled hours (`valid_from == 0`): the step-1 lookup
/// over unmasked features, which no shorter run reaches.
#[test]
fn long_lived_template_moves_to_the_family_it_now_follows() {
    let days = qb5000::FEATURE_WINDOW / MINUTES_PER_DAY + 4;
    let is_day = |hour: i64| (8..18).contains(&(hour % 24));
    let is_night = |hour: i64| !(6..20).contains(&(hour % 24));
    // Day and night families of four, on disjoint hours. Template "day_0"
    // follows the day family at a tenth of its siblings' volume until the
    // last day, then the night family's last-day surge.
    let last_day = (days - 1) * 24;
    let count = |table: &str, hour: i64| -> u64 {
        let surge = hour >= last_day;
        match table {
            "day_0" if surge => 50 * u64::from(is_night(hour)),
            "day_0" => u64::from(is_day(hour)),
            t if t.starts_with("day") => 10 * u64::from(is_day(hour)),
            _ => u64::from(is_night(hour)) * if surge { 50 } else { 1 },
        }
    };
    let tables = ["day_0", "day_1", "day_2", "day_3", "night_0", "night_1", "night_2", "night_3"];
    let mut bot = QueryBot5000::new(Qb5000Config::default());
    let mut ids = Vec::new();
    let mut report = None;
    for hour in 0..days * 24 {
        let t = hour * 60;
        if hour > 0 && hour % 24 == 0 {
            report = Some(bot.update_clusters(t));
        }
        if hour == last_day {
            let (moved, day, night) = (ids[0], ids[1], ids[4]);
            assert_eq!(bot.clusterer().cluster_of(moved), bot.clusterer().cluster_of(day));
            assert_ne!(bot.clusterer().cluster_of(moved), bot.clusterer().cluster_of(night));
        }
        for (i, table) in tables.iter().enumerate() {
            let n = count(table, hour);
            if n > 0 {
                let sql = format!("SELECT v FROM {table} WHERE k = {hour}");
                let id = bot.ingest_weighted(t, &sql, n).expect("valid SQL");
                if ids.len() == i {
                    ids.push(u64::from(id.0));
                }
            }
        }
    }
    assert_eq!(bot.shift_triggers, 0, "eight templates never reach the trigger's floor");
    let before = report.expect("daily updates ran");
    assert_eq!(before.reassigned, 0, "{before:?}");

    let report = bot.update_clusters(days * MINUTES_PER_DAY);
    let (moved, day, night) = (ids[0], ids[1], ids[4]);
    let c = bot.clusterer();
    // Step 2 took it out of the day cluster; step 1 put it in the night one.
    assert_eq!((report.reassigned, report.clusters_created, report.merges), (1, 0, 0));
    assert_eq!(c.cluster_of(moved), c.cluster_of(night), "{report:?}");
    assert_ne!(c.cluster_of(moved), c.cluster_of(day));
    assert_eq!(c.num_clusters(), 2);
    let state = c.export_state();
    let feature = &state.templates.iter().find(|t| t.key == moved).expect("held").feature;
    assert_eq!(feature.valid_from, 0, "older than the feature window");
}
