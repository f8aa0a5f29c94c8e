//! # qb-dbsim
//!
//! An in-process relational engine with a calibrated cost model, standing in
//! for the MySQL / PostgreSQL servers of the paper's §7.6 index-selection
//! experiment (see DESIGN.md for the substitution argument).
//!
//! The engine stores heap tables with optional ordered secondary indexes,
//! evaluates the `qb-sqlparse` AST directly, and charges every statement a
//! simulated cost (buffer-pool-aware page I/O + per-tuple CPU). The
//! [`advisor`] module implements the AutoAdmin-style index-selection
//! algorithm the paper builds on \[12\]: best-index-per-query candidate
//! generation followed by greedy cost-based subset selection, costed with
//! what-if (hypothetical-index) estimates.
//!
//! What the simulator intentionally does **not** model: concurrency,
//! transactions, recovery, or query optimization beyond index choice —
//! none of which §7.6 exercises (it replays a single-stream workload and
//! measures how well the chosen index set fits future queries).

#![forbid(unsafe_code)]

pub mod advisor;
pub mod catalog;
pub mod cost;
pub mod exec;
pub mod expr;
pub mod storage;

pub use advisor::{IndexAdvisor, IndexCandidate};
pub use catalog::{ColumnDef, ColumnType, TableSchema, Value};
pub use cost::{Cost, CostModel};
pub use exec::{ExecError, ExecResult, QueryOutput};
pub use storage::{Index, Table};

use std::collections::BTreeMap;

use qb_sqlparse::Statement;

/// The database: named tables plus engine-wide cost parameters.
pub struct Database {
    tables: BTreeMap<String, Table>,
    cost_model: CostModel,
}

impl Database {
    pub fn new(cost_model: CostModel) -> Self {
        Self { tables: BTreeMap::new(), cost_model }
    }

    /// Creates an empty table.
    ///
    /// # Panics
    /// Panics if the table already exists.
    pub fn create_table(&mut self, schema: TableSchema) {
        let name = schema.name.clone();
        let prev = self.tables.insert(name.clone(), Table::new(schema));
        assert!(prev.is_none(), "table `{name}` already exists");
    }

    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(name)
    }

    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// Creates a secondary index on `table(columns...)`. No-op if an index
    /// on the same column list already exists. Returns whether it was new.
    pub fn create_index(&mut self, table: &str, columns: &[&str]) -> Result<bool, ExecError> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| ExecError::UnknownTable(table.to_string()))?;
        t.create_index(columns)
    }

    /// Total number of secondary indexes across tables.
    pub fn num_indexes(&self) -> usize {
        self.tables.values().map(|t| t.indexes().len()).sum()
    }

    /// Executes one parsed statement, returning rows (for SELECT) and the
    /// simulated cost.
    pub fn execute(&mut self, stmt: &Statement) -> Result<ExecResult, ExecError> {
        exec::execute(self, stmt)
    }

    /// Executes one SQL string.
    pub fn execute_sql(&mut self, sql: &str) -> Result<ExecResult, ExecError> {
        let stmt =
            qb_sqlparse::parse_statement(sql).map_err(|e| ExecError::Parse(e.to_string()))?;
        self.execute(&stmt)
    }

    /// Cost estimate for a statement **without** executing its side
    /// effects, optionally pretending the given hypothetical indexes exist
    /// (the AutoAdmin "what-if" interface).
    pub fn estimate_cost(
        &self,
        stmt: &Statement,
        hypothetical: &[advisor::IndexCandidate],
    ) -> Result<Cost, ExecError> {
        exec::estimate(self, stmt, hypothetical)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ColumnDef, ColumnType, TableSchema};

    fn db_with_table() -> Database {
        let mut db = Database::new(CostModel::default());
        db.create_table(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColumnType::Integer),
                ColumnDef::new("name", ColumnType::Text),
                ColumnDef::new("score", ColumnType::Float),
            ],
        ));
        db
    }

    #[test]
    fn insert_select_roundtrip() {
        let mut db = db_with_table();
        db.execute_sql("INSERT INTO t (id, name, score) VALUES (1, 'alice', 3.5)").unwrap();
        db.execute_sql("INSERT INTO t (id, name, score) VALUES (2, 'bob', 2.0)").unwrap();
        let r = db.execute_sql("SELECT name FROM t WHERE id = 2").unwrap();
        let QueryOutput::Rows(rows) = r.output else { panic!("expected rows") };
        assert_eq!(rows, vec![vec![Value::Text("bob".into())]]);
    }

    #[test]
    fn update_and_delete() {
        let mut db = db_with_table();
        db.execute_sql("INSERT INTO t (id, name, score) VALUES (1, 'a', 1.0), (2, 'b', 2.0)")
            .unwrap();
        let r = db.execute_sql("UPDATE t SET score = 9.0 WHERE id = 1").unwrap();
        assert_eq!(r.rows_affected, 1);
        let r = db.execute_sql("SELECT score FROM t WHERE id = 1").unwrap();
        let QueryOutput::Rows(rows) = r.output else { panic!() };
        assert_eq!(rows[0][0], Value::Float(9.0));
        let r = db.execute_sql("DELETE FROM t WHERE id = 2").unwrap();
        assert_eq!(r.rows_affected, 1);
        let r = db.execute_sql("SELECT COUNT(*) FROM t").unwrap();
        let QueryOutput::Rows(rows) = r.output else { panic!() };
        assert_eq!(rows[0][0], Value::Integer(1));
    }

    #[test]
    fn index_reduces_select_cost() {
        let mut db = db_with_table();
        for i in 0..2000 {
            db.execute_sql(&format!("INSERT INTO t (id, name, score) VALUES ({i}, 'u{i}', 1.0)"))
                .unwrap();
        }
        let slow = db.execute_sql("SELECT name FROM t WHERE id = 700").unwrap();
        db.create_index("t", &["id"]).unwrap();
        let fast = db.execute_sql("SELECT name FROM t WHERE id = 700").unwrap();
        assert!(
            fast.cost.total() < slow.cost.total() / 5.0,
            "index should cut cost: {} vs {}",
            fast.cost.total(),
            slow.cost.total()
        );
        // Same answer either way.
        assert_eq!(slow.output, fast.output);
    }

    #[test]
    fn duplicate_index_is_noop() {
        let mut db = db_with_table();
        assert!(db.create_index("t", &["id"]).unwrap());
        assert!(!db.create_index("t", &["id"]).unwrap());
        assert_eq!(db.num_indexes(), 1);
    }

    #[test]
    fn unknown_table_error() {
        let mut db = db_with_table();
        assert!(matches!(
            db.execute_sql("SELECT x FROM missing WHERE a = 1"),
            Err(ExecError::UnknownTable(_))
        ));
    }
}
