//! Cost-model monotonicity: the two what-if laws the index advisor's
//! greedy selection silently relies on.
//!
//! 1. Adding a hypothetical index that matches a query's predicate never
//!    *increases* its estimated cost (the planner may ignore an unhelpful
//!    index, but must never be charged for its existence on reads).
//! 2. Widening a range predicate never *decreases* estimated cost —
//!    touching a superset of rows can only cost the same (sequential scan:
//!    selectivity-independent) or more (index scan: more heap fetches).
//!
//! If either law breaks, AutoAdmin's greedy subset selection can oscillate
//! or pick an index set whose "benefit" is an artifact of the cost model.

use qb_dbsim::{ColumnDef, ColumnType, CostModel, Database, IndexCandidate, TableSchema};
use qb_sqlparse::parse_statement;

const ROWS: i64 = 2_000;

fn populated_db() -> Database {
    let mut db = Database::new(CostModel::default());
    db.create_table(TableSchema::new(
        "orders",
        vec![
            ColumnDef::new("id", ColumnType::Integer),
            ColumnDef::new("qty", ColumnType::Integer),
            ColumnDef::new("label", ColumnType::Text),
        ],
    ));
    for i in 0..ROWS {
        db.execute_sql(&format!(
            "INSERT INTO orders (id, qty, label) VALUES ({i}, {}, 'w{}')",
            i % 97,
            i % 13,
        ))
        .expect("insert");
    }
    db
}

fn estimate(db: &Database, sql: &str, hypothetical: &[IndexCandidate]) -> f64 {
    let stmt = parse_statement(sql).expect("query parses");
    db.estimate_cost(&stmt, hypothetical).expect("estimate succeeds").total()
}

fn candidate(columns: &[&str]) -> IndexCandidate {
    IndexCandidate {
        table: "orders".into(),
        columns: columns.iter().map(|c| c.to_string()).collect(),
    }
}

#[test]
fn matching_index_never_increases_cost() {
    let db = populated_db();
    let queries = [
        "SELECT qty FROM orders WHERE id = 1234",
        "SELECT qty FROM orders WHERE id BETWEEN 100 AND 180",
        "SELECT id FROM orders WHERE qty = 13",
        "SELECT id FROM orders WHERE qty > 90",
        "SELECT label FROM orders WHERE id = 7 AND qty = 7",
        // Unselective: the index may be useless, but never harmful.
        "SELECT id FROM orders WHERE id >= 0",
    ];
    for sql in queries {
        for cand in [candidate(&["id"]), candidate(&["qty"]), candidate(&["id", "qty"])] {
            let without = estimate(&db, sql, &[]);
            let with = estimate(&db, sql, std::slice::from_ref(&cand));
            assert!(
                with <= without,
                "hypothetical {cand} increased cost of `{sql}`: {with} > {without}"
            );
        }
    }
}

#[test]
fn irrelevant_index_never_changes_read_cost() {
    let db = populated_db();
    let sql = "SELECT qty FROM orders WHERE id = 42";
    let without = estimate(&db, sql, &[]);
    let with = estimate(&db, sql, &[candidate(&["label"])]);
    assert_eq!(with, without, "an index on an unreferenced column must be cost-neutral");
}

#[test]
fn widening_range_never_decreases_cost() {
    let db = populated_db();
    // Nested ranges around the same midpoint, narrow → full table, costed
    // both without indexes and with a matching hypothetical index.
    let spans: Vec<(i64, i64)> =
        (0..8).map(|k| (1000 - (1 << k), 1000 + (1 << k))).chain([(0, ROWS)]).collect();
    for hypo in [vec![], vec![candidate(&["id"])]] {
        let mut prev: Option<(f64, (i64, i64))> = None;
        for &(lo, hi) in &spans {
            let sql = format!("SELECT qty FROM orders WHERE id BETWEEN {lo} AND {hi}");
            let cost = estimate(&db, &sql, &hypo);
            if let Some((prev_cost, prev_span)) = prev {
                assert!(
                    cost >= prev_cost,
                    "widening {prev_span:?} -> {:?} decreased cost {prev_cost} -> {cost} \
                     (hypothetical: {hypo:?})",
                    (lo, hi),
                );
            }
            prev = Some((cost, (lo, hi)));
        }
    }
}

#[test]
fn widening_one_sided_range_never_decreases_cost() {
    let db = populated_db();
    let hypo = [candidate(&["qty"])];
    let mut prev = None;
    for bound in (0..=96).rev().step_by(8) {
        let sql = format!("SELECT id FROM orders WHERE qty > {bound}");
        let cost = estimate(&db, &sql, &hypo);
        if let Some(prev_cost) = prev {
            assert!(
                cost >= prev_cost,
                "lowering `qty > {bound}` bound decreased cost {prev_cost} -> {cost}"
            );
        }
        prev = Some(cost);
    }
}
