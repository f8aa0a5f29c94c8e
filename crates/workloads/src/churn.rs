//! Evolving-workload churn scenarios: the traces that exercise the
//! cold-start forecast path.
//!
//! QB5000 forecasts arrival rates of *known* clusters, but real workloads
//! keep minting query templates the clusterer has never seen: schemas
//! migrate, features launch, tenants onboard, incidents go viral. Each
//! [`ChurnScenario`] wraps the same stable storefront base population with
//! a different template-churn shape, so the cold-start forecast path and
//! the churn-facing clusterer behavior can be exercised deterministically.
//!
//! Every scenario is a plain [`TraceGenerator`]: seeded, chunk-invariant,
//! and composable with [`crate::FaultPlan`] like any other workload. The
//! `intensity` knob scales how much churn is layered on — `0.0` yields
//! *only* the stable base population (bit-identical across scenarios),
//! which is what the cold-start differential test relies on.
//!
//! Churn activation times are expressed as *fractions of the trace span*,
//! not absolute days, so a 3-day simulation case sees the same scenario
//! shape as a 40-day soak run.

use rand::Rng;

use crate::pattern::{daily_cycle, pulse_between, ramp_between, step_after, weekday_factor};
use crate::trace::{TemplateSpec, TraceConfig, TraceGenerator};
use qb_timeseries::{Minute, MINUTES_PER_DAY};

/// The template-churn scenario families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChurnScenario {
    /// Gradual schema-migration drift: legacy templates fade out over a
    /// cut-over window while renamed successors ramp in.
    SchemaMigration,
    /// A feature launch: a burst of brand-new templates activates at one
    /// release instant, mid-trace.
    FeatureLaunch,
    /// Tenant onboarding: staggered waves, each bringing a per-tenant set
    /// of templates against tenant-specific structures.
    TenantOnboarding,
    /// Flash crowds: short-lived spike templates that exist only for the
    /// duration of an incident, then vanish.
    FlashCrowd,
    /// Seasonal + trend mixes: templates that appear mid-trace and then
    /// grow along a linear trend modulated by daily/weekly seasonality.
    SeasonalTrend,
}

/// All scenarios, in matrix-sweep order.
pub const CHURN_SCENARIOS: [ChurnScenario; 5] = [
    ChurnScenario::SchemaMigration,
    ChurnScenario::FeatureLaunch,
    ChurnScenario::TenantOnboarding,
    ChurnScenario::FlashCrowd,
    ChurnScenario::SeasonalTrend,
];

impl ChurnScenario {
    pub fn name(self) -> &'static str {
        match self {
            ChurnScenario::SchemaMigration => "schema-migration",
            ChurnScenario::FeatureLaunch => "feature-launch",
            ChurnScenario::TenantOnboarding => "tenant-onboarding",
            ChurnScenario::FlashCrowd => "flash-crowd",
            ChurnScenario::SeasonalTrend => "seasonal-trend",
        }
    }

    /// Parses a scenario name as printed by [`ChurnScenario::name`] — the
    /// `QB_SIM_WORKLOAD`-style repro path uses this.
    pub fn parse(s: &str) -> Option<ChurnScenario> {
        CHURN_SCENARIOS.iter().copied().find(|c| c.name().eq_ignore_ascii_case(s))
    }

    /// Builds the generator: the stable base population plus this
    /// scenario's churn templates scaled by `intensity`.
    ///
    /// `intensity = 0.0` appends no churn templates at all, so the stream
    /// is bit-identical to the bare base population (and identical across
    /// scenarios); `1.0` is the nominal churn load; larger values add
    /// proportionally more cohorts.
    pub fn generator(self, cfg: TraceConfig, intensity: f64) -> TraceGenerator {
        assert!(intensity >= 0.0, "churn intensity must be non-negative");
        let mut templates = base_population();
        let span = cfg.days as i64 * MINUTES_PER_DAY;
        let at = move |frac: f64| -> Minute { cfg.start + (span as f64 * frac) as i64 };
        match self {
            ChurnScenario::SchemaMigration => schema_migration(&mut templates, intensity, at),
            ChurnScenario::FeatureLaunch => feature_launch(&mut templates, intensity, at),
            ChurnScenario::TenantOnboarding => tenant_onboarding(&mut templates, intensity, at),
            ChurnScenario::FlashCrowd => flash_crowd(&mut templates, intensity, at),
            ChurnScenario::SeasonalTrend => seasonal_trend(&mut templates, intensity, at),
        }
        TraceGenerator::new(templates, cfg)
    }
}

/// Number of churn cohorts for a nominal count at the given intensity.
/// `0.0` → 0; `1.0` → `nominal`; fractional intensities round up so any
/// nonzero intensity produces at least one cohort.
fn cohorts(nominal: usize, intensity: f64) -> usize {
    (nominal as f64 * intensity).ceil() as usize
}

/// Shopper diurnal rhythm shared by the base population: daily cycle with
/// a slight weekend lift (retail browsing, unlike commuter traffic).
fn shop_rate() -> crate::pattern::RateFn {
    let cycle = daily_cycle(0.3, 0.5, 1.0);
    let wk = weekday_factor(1.2);
    Box::new(move |t| cycle(t) * wk(t))
}

/// The stable storefront base population: live from minute zero in every
/// scenario, never churned. Intensity 0 yields exactly this set.
fn base_population() -> Vec<TemplateSpec> {
    let mut templates = Vec::new();
    templates.push(TemplateSpec {
        make_sql: Box::new(|rng, _| {
            format!(
                "SELECT product_id, name, price FROM products \
                 WHERE category = {} ORDER BY rank LIMIT 25",
                rng.gen_range(1..60)
            )
        }),
        weight: 14.0,
        rate: shop_rate(),
    });
    templates.push(TemplateSpec {
        make_sql: Box::new(|rng, _| {
            format!(
                "SELECT o.order_id, o.status, o.total FROM orders AS o \
                 WHERE o.customer_id = {} ORDER BY o.placed_at DESC LIMIT 10",
                rng.gen_range(1..400_000)
            )
        }),
        weight: 9.0,
        rate: shop_rate(),
    });
    templates.push(TemplateSpec {
        make_sql: Box::new(|rng, _| {
            format!(
                "SELECT c.cart_id, c.item_count, c.subtotal FROM carts AS c \
                 WHERE c.customer_id = {}",
                rng.gen_range(1..400_000)
            )
        }),
        weight: 7.0,
        rate: shop_rate(),
    });
    templates.push(TemplateSpec {
        make_sql: Box::new(|rng, _| {
            format!(
                "SELECT i.sku, i.qty FROM inventory AS i \
                 WHERE i.warehouse_id = {} AND i.sku = {}",
                rng.gen_range(1..12),
                rng.gen_range(1..80_000)
            )
        }),
        weight: 5.0,
        rate: shop_rate(),
    });
    templates.push(TemplateSpec {
        make_sql: Box::new(|rng, t| {
            format!(
                "INSERT INTO orders (customer_id, total, status, placed_at) \
                 VALUES ({}, {}, 'placed', {})",
                rng.gen_range(1..400_000),
                rng.gen_range(5..900),
                t
            )
        }),
        weight: 1.5,
        rate: shop_rate(),
    });
    templates.push(TemplateSpec {
        make_sql: Box::new(|rng, t| {
            format!(
                "UPDATE inventory SET qty = qty - {}, updated_at = {} WHERE sku = {}",
                rng.gen_range(1..4),
                t,
                rng.gen_range(1..80_000)
            )
        }),
        weight: 2.0,
        rate: shop_rate(),
    });
    templates.push(TemplateSpec {
        make_sql: Box::new(|rng, _| {
            format!("DELETE FROM carts WHERE abandoned_at < {}", rng.gen_range(0..10_000_000))
        }),
        weight: 0.3,
        rate: Box::new(|_| 1.0),
    });
    templates
}

/// Gradual schema-migration drift: each cohort is a legacy/successor pair.
/// The legacy template carries full traffic until the cut-over window
/// opens at 35 % of the trace, then fades linearly to zero by 70 % while
/// the renamed successor ramps in over the same window.
fn schema_migration(templates: &mut Vec<TemplateSpec>, intensity: f64, at: impl Fn(f64) -> Minute) {
    for k in 0..cohorts(3, intensity) {
        let stagger = 0.04 * (k % 3) as f64;
        let (from, to) = (at(0.35 + stagger), at(0.70 + stagger));
        let legacy = format!("legacy_shipments_{k}");
        let successor = format!("shipments_v2_{k}");
        {
            let ramp = ramp_between(from, to);
            let cycle = daily_cycle(0.25, 0.4, 0.8);
            templates.push(TemplateSpec {
                make_sql: Box::new(move |rng, _| {
                    format!(
                        "SELECT shipment_id, carrier, eta FROM {legacy} \
                         WHERE order_id = {} ORDER BY eta LIMIT 5",
                        rng.gen_range(1..2_000_000)
                    )
                }),
                weight: 4.0,
                rate: Box::new(move |t| (1.0 - ramp(t)) * cycle(t)),
            });
        }
        {
            let ramp = ramp_between(from, to);
            let cycle = daily_cycle(0.25, 0.4, 0.8);
            templates.push(TemplateSpec {
                make_sql: Box::new(move |rng, _| {
                    format!(
                        "SELECT shipment_id, carrier_code, eta_at FROM {successor} \
                         WHERE order_id = {} ORDER BY eta_at LIMIT 5",
                        rng.gen_range(1..2_000_000)
                    )
                }),
                weight: 4.0,
                rate: Box::new(move |t| ramp(t) * cycle(t)),
            });
        }
    }
}

/// A feature launch: every cohort's templates activate at the same release
/// instant (half-way through the trace) and stay on — the burst shape the
/// cold-start path must handle without a full history window.
fn feature_launch(templates: &mut Vec<TemplateSpec>, intensity: f64, at: impl Fn(f64) -> Minute) {
    let release = at(0.5);
    let shapes: [(f64, &str); 5] = [
        (6.0, "SELECT rec_id, product_id, score FROM recommendations WHERE customer_id = $U ORDER BY score DESC LIMIT 8"),
        (4.0, "SELECT w.wishlist_id, w.product_id FROM wishlists AS w WHERE w.customer_id = $U"),
        (3.0, "INSERT INTO wishlists (customer_id, product_id, added_at) VALUES ($U, $P, $T)"),
        (3.5, "SELECT r.review_id, r.stars, r.body FROM reviews AS r WHERE r.product_id = $P ORDER BY r.created_at DESC LIMIT 10"),
        (2.0, "INSERT INTO loyalty_points (customer_id, delta, reason, created_at) VALUES ($U, $G, 'purchase', $T)"),
    ];
    for k in 0..cohorts(5, intensity) {
        let (weight, shape) = shapes[k % shapes.len()];
        // Cohorts past the nominal five get suffixed table names so each
        // is a genuinely distinct template.
        let shape = if k < shapes.len() {
            shape.to_string()
        } else {
            shape.replace(" FROM ", &format!(" FROM x{}_", k / shapes.len())).replace(
                "INSERT INTO ",
                &format!("INSERT INTO x{}_", k / shapes.len()),
            )
        };
        let gate = step_after(release);
        let cycle = daily_cycle(0.3, 0.5, 1.0);
        templates.push(TemplateSpec {
            make_sql: Box::new(move |rng, t| {
                shape
                    .replace("$U", &rng.gen_range(1..400_000).to_string())
                    .replace("$P", &rng.gen_range(1..80_000).to_string())
                    .replace("$G", &rng.gen_range(1..500).to_string())
                    .replace("$T", &t.to_string())
            }),
            weight,
            rate: Box::new(move |t| gate(t) * cycle(t)),
        });
    }
}

/// Tenant onboarding: staggered waves between 30 % and 70 % of the trace,
/// each bringing a per-tenant template set against tenant-specific tables.
fn tenant_onboarding(templates: &mut Vec<TemplateSpec>, intensity: f64, at: impl Fn(f64) -> Minute) {
    let waves = cohorts(3, intensity);
    for w in 0..waves {
        let frac = 0.3 + 0.4 * w as f64 / waves.max(2) as f64;
        let onboard = at(frac.min(0.85));
        let events = format!("tenant_{w}_events");
        let users = format!("tenant_{w}_users");
        {
            let events = events.clone();
            let gate = step_after(onboard);
            let cycle = daily_cycle(0.3, 0.5, 0.9);
            templates.push(TemplateSpec {
                make_sql: Box::new(move |rng, _| {
                    format!(
                        "SELECT event_id, kind, payload_ref FROM {events} \
                         WHERE account_id = {} ORDER BY created_at DESC LIMIT 20",
                        rng.gen_range(1..50_000)
                    )
                }),
                weight: 5.0,
                rate: Box::new(move |t| gate(t) * cycle(t)),
            });
        }
        {
            let gate = step_after(onboard);
            let cycle = daily_cycle(0.3, 0.5, 0.9);
            templates.push(TemplateSpec {
                make_sql: Box::new(move |rng, t| {
                    format!(
                        "INSERT INTO {events} (account_id, kind, payload_ref, created_at) \
                         VALUES ({}, 'page_view', 'blob-{}', {})",
                        rng.gen_range(1..50_000),
                        rng.gen_range(1..1_000_000),
                        t
                    )
                }),
                weight: 1.5,
                rate: Box::new(move |t| gate(t) * cycle(t)),
            });
        }
        {
            let gate = step_after(onboard);
            let cycle = daily_cycle(0.2, 0.35, 0.7);
            templates.push(TemplateSpec {
                make_sql: Box::new(move |rng, _| {
                    format!(
                        "SELECT user_id, email, role FROM {users} WHERE account_id = {}",
                        rng.gen_range(1..50_000)
                    )
                }),
                weight: 2.5,
                rate: Box::new(move |t| gate(t) * cycle(t)),
            });
        }
    }
}

/// Flash crowds: each cohort is a pair of spike templates live only inside
/// a two-hour pulse window — high-volume while it lasts, gone after.
fn flash_crowd(templates: &mut Vec<TemplateSpec>, intensity: f64, at: impl Fn(f64) -> Minute) {
    for k in 0..cohorts(3, intensity) {
        let frac = 0.35 + 0.18 * (k % 4) as f64;
        let open = at(frac);
        let close = open + 120;
        let sale = format!("flash_sale_{k}");
        {
            let sale = sale.clone();
            let pulse = pulse_between(open, close);
            templates.push(TemplateSpec {
                make_sql: Box::new(move |rng, _| {
                    format!(
                        "SELECT item_id, stock_left, price FROM {sale} \
                         WHERE item_id = {} AND stock_left > 0",
                        rng.gen_range(1..200)
                    )
                }),
                weight: 30.0,
                rate: Box::new(pulse),
            });
        }
        {
            let pulse = pulse_between(open, close);
            templates.push(TemplateSpec {
                make_sql: Box::new(move |rng, t| {
                    format!(
                        "UPDATE {sale} SET stock_left = stock_left - 1, last_claim = {} \
                         WHERE item_id = {} AND stock_left > 0",
                        t,
                        rng.gen_range(1..200)
                    )
                }),
                weight: 8.0,
                rate: Box::new(pulse),
            });
        }
    }
}

/// Seasonal + trend mixes: cohorts appear at staggered points and then
/// *grow* along a linear trend toward the end of the trace, modulated by
/// daily and weekly seasonality (weekend-heavy, like holiday shopping).
fn seasonal_trend(templates: &mut Vec<TemplateSpec>, intensity: f64, at: impl Fn(f64) -> Minute) {
    for k in 0..cohorts(4, intensity) {
        let start_frac = 0.3 + 0.1 * (k % 4) as f64;
        let appear = at(start_frac);
        let end = at(1.0);
        let table = format!("seasonal_promo_{k}");
        let gate = step_after(appear);
        let trend = ramp_between(appear, end);
        let cycle = daily_cycle(0.25, 0.4, 0.9);
        let wk = weekday_factor(1.6);
        templates.push(TemplateSpec {
            make_sql: Box::new(move |rng, _| {
                format!(
                    "SELECT promo_id, discount_pct, ends_at FROM {table} \
                     WHERE region = {} ORDER BY discount_pct DESC LIMIT 12",
                    rng.gen_range(1..30)
                )
            }),
            weight: 5.0,
            // Starts at 30 % volume on appearance and trends up to full.
            rate: Box::new(move |t| gate(t) * (0.3 + 0.7 * trend(t)) * cycle(t) * wk(t)),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(days: u32) -> TraceConfig {
        TraceConfig { start: 0, days, scale: 0.2, seed: 0xC0FFEE }
    }

    fn stream(scenario: ChurnScenario, intensity: f64) -> Vec<(Minute, String, u64)> {
        scenario.generator(cfg(4), intensity).map(|e| (e.minute, e.sql, e.count)).collect()
    }

    #[test]
    fn all_sql_parses_in_every_scenario() {
        for scenario in CHURN_SCENARIOS {
            for ev in scenario.generator(cfg(4), 1.5).take(4000) {
                qb_sqlparse::parse_statement(&ev.sql).unwrap_or_else(|e| {
                    panic!("{}: unparseable `{}`: {e}", scenario.name(), ev.sql)
                });
            }
        }
    }

    #[test]
    fn intensity_zero_is_base_only_and_scenario_independent() {
        let reference = stream(ChurnScenario::SchemaMigration, 0.0);
        assert!(!reference.is_empty());
        for scenario in CHURN_SCENARIOS {
            assert_eq!(
                stream(scenario, 0.0),
                reference,
                "{} at intensity 0 must equal the bare base population",
                scenario.name()
            );
        }
        // And no churn table ever shows up.
        for (_, sql, _) in &reference {
            for marker in ["tenant_", "flash_sale_", "seasonal_promo_", "shipments_v2_"] {
                assert!(!sql.contains(marker), "churn marker {marker} at intensity 0: {sql}");
            }
        }
    }

    #[test]
    fn churn_templates_respect_activation_gates() {
        let span = 4 * MINUTES_PER_DAY;
        // Feature launch: nothing before the release minute, plenty after.
        let release = span / 2;
        let (mut before, mut after) = (0u64, 0u64);
        for ev in ChurnScenario::FeatureLaunch.generator(cfg(4), 1.0) {
            if ev.sql.contains("recommendations") || ev.sql.contains("wishlists") {
                if ev.minute < release {
                    before += 1;
                } else {
                    after += 1;
                }
            }
        }
        assert_eq!(before, 0, "launch templates must not appear before the release");
        assert!(after > 0, "launch templates must appear after the release");

        // Flash crowd: spike templates vanish once their pulse closes.
        let mut last_flash: Minute = 0;
        let mut any_flash = false;
        for ev in ChurnScenario::FlashCrowd.generator(cfg(4), 1.0) {
            if ev.sql.contains("flash_sale_") {
                last_flash = last_flash.max(ev.minute);
                any_flash = true;
            }
        }
        assert!(any_flash, "flash-crowd templates must fire inside their window");
        // Last window opens at 0.35 + 0.18*2 = 0.71 of the span, 120 min wide.
        let close = (span as f64 * 0.71) as i64 + 120;
        assert!(last_flash < close, "flash template after its window: {last_flash} >= {close}");
    }

    #[test]
    fn schema_migration_shifts_traffic_to_successor() {
        let span = 4 * MINUTES_PER_DAY;
        let (mut legacy_late, mut successor_late) = (0u64, 0u64);
        let (mut legacy_early, mut successor_early) = (0u64, 0u64);
        for ev in ChurnScenario::SchemaMigration.generator(cfg(4), 1.0) {
            let late = ev.minute > span * 3 / 4;
            if ev.sql.contains("legacy_shipments_") {
                if late {
                    legacy_late += ev.count;
                } else {
                    legacy_early += ev.count;
                }
            } else if ev.sql.contains("shipments_v2_") {
                if late {
                    successor_late += ev.count;
                } else {
                    successor_early += ev.count;
                }
            }
        }
        assert!(legacy_early > successor_early, "legacy dominates early");
        assert!(successor_late > legacy_late, "successor dominates late");
    }

    #[test]
    fn intensity_scales_distinct_template_count() {
        let distinct = |intensity: f64| {
            let mut set = std::collections::HashSet::new();
            for ev in ChurnScenario::TenantOnboarding.generator(cfg(4), intensity) {
                let stmt = qb_sqlparse::parse_statement(&ev.sql).expect("valid SQL");
                set.insert(qb_preprocessor::templatize(&stmt).text);
            }
            set.len()
        };
        let base = distinct(0.0);
        let nominal = distinct(1.0);
        let heavy = distinct(2.0);
        assert!(nominal > base, "intensity 1 adds templates: {base} vs {nominal}");
        assert!(heavy > nominal, "intensity 2 adds more: {nominal} vs {heavy}");
    }

    #[test]
    fn scenario_names_round_trip() {
        for scenario in CHURN_SCENARIOS {
            assert_eq!(ChurnScenario::parse(scenario.name()), Some(scenario));
        }
        assert_eq!(ChurnScenario::parse("no-such-scenario"), None);
    }
}
