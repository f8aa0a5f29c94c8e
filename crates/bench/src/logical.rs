//! Logical feature extraction for the §7.7 ablation.
//!
//! "The logical feature vector of a template consists of the query type
//! (e.g., INSERT, SELECT, UPDATE, or DELETE), tables that it accesses, the
//! columns that it references, number of clauses (e.g., JOIN, HAVING, or
//! GROUP BY), and number of aggregations (e.g., SUM, or AVG)." Similarity is
//! measured with L2 distance in this space.
//!
//! The pipeline clusters on these through its one feature seam: set
//! `Qb5000Config::cluster_feature` to [`cluster_feature`] and
//! `Qb5000Config::clusterer` to [`LOGICAL_CLUSTERER`].

use std::collections::BTreeSet;

use qb_clusterer::{ClustererConfig, SimilarityMetric};
use qb_preprocessor::TemplateEntry;
use qb_sqlparse::{Expr, Statement};

/// The clusterer settings that go with [`cluster_feature`]: inverse-L2
/// similarity at a looser ρ of 0.30 (§7.7 adjusts ρ so the big clusters
/// have comparable volume).
pub const LOGICAL_CLUSTERER: ClustererConfig = ClustererConfig {
    rho: 0.30,
    metric: SimilarityMetric::InverseL2,
    adaptive_trigger: false,
};

/// A template's logical feature vector, for `Qb5000Config::cluster_feature`.
pub fn cluster_feature(entry: &TemplateEntry) -> Vec<f64> {
    LogicalFeatures::extract(&entry.statement).to_vector(16, 32)
}

/// The SQL aggregate functions counted as "aggregations".
const AGGREGATES: &[&str] = &["count", "sum", "avg", "min", "max"];

/// The logical features of one template.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalFeatures {
    /// 0 = SELECT, 1 = INSERT, 2 = UPDATE, 3 = DELETE.
    pub query_type: u8,
    /// Tables accessed (sorted, deduped).
    pub tables: Vec<String>,
    /// Columns referenced anywhere in the statement (sorted, deduped,
    /// unqualified names).
    pub columns: Vec<String>,
    /// Number of JOIN clauses.
    pub num_joins: usize,
    /// Number of GROUP BY expressions.
    pub num_group_by: usize,
    /// 1 if a HAVING clause is present.
    pub num_having: usize,
    /// Number of ORDER BY items.
    pub num_order_by: usize,
    /// Number of aggregate function applications.
    pub num_aggregations: usize,
}

impl LogicalFeatures {
    /// Extracts the features from a (templated or raw) statement.
    pub fn extract(stmt: &Statement) -> Self {
        let query_type = match stmt {
            Statement::Select(_) => 0,
            Statement::Insert(_) => 1,
            Statement::Update(_) => 2,
            Statement::Delete(_) => 3,
        };
        let tables = {
            let mut t = stmt.tables();
            t.sort();
            t
        };

        let mut columns = BTreeSet::new();
        let mut num_aggregations = 0;
        fn visit_expr(e: &Expr, columns: &mut BTreeSet<String>, num_aggregations: &mut usize) {
            e.walk(&mut |n| match n {
                Expr::Column { column, .. } => {
                    columns.insert(column.clone());
                }
                Expr::Function { name, .. } if AGGREGATES.contains(&name.as_str()) => {
                    *num_aggregations += 1;
                }
                _ => {}
            });
        }

        let (num_joins, num_group_by, num_having, num_order_by) = match stmt {
            Statement::Select(s) => {
                for item in &s.items {
                    visit_expr(&item.expr, &mut columns, &mut num_aggregations);
                }
                for j in &s.joins {
                    if let Some(on) = &j.on {
                        visit_expr(on, &mut columns, &mut num_aggregations);
                    }
                }
                if let Some(w) = &s.where_clause {
                    visit_expr(w, &mut columns, &mut num_aggregations);
                }
                for g in &s.group_by {
                    visit_expr(g, &mut columns, &mut num_aggregations);
                }
                if let Some(h) = &s.having {
                    visit_expr(h, &mut columns, &mut num_aggregations);
                }
                for o in &s.order_by {
                    visit_expr(&o.expr, &mut columns, &mut num_aggregations);
                }
                (s.joins.len(), s.group_by.len(), usize::from(s.having.is_some()), s.order_by.len())
            }
            Statement::Insert(i) => {
                for c in &i.columns {
                    columns.insert(c.clone());
                }
                (0, 0, 0, 0)
            }
            Statement::Update(u) => {
                for a in &u.assignments {
                    columns.insert(a.column.clone());
                    visit_expr(&a.value, &mut columns, &mut num_aggregations);
                }
                if let Some(w) = &u.where_clause {
                    visit_expr(w, &mut columns, &mut num_aggregations);
                }
                (0, 0, 0, 0)
            }
            Statement::Delete(d) => {
                if let Some(w) = &d.where_clause {
                    visit_expr(w, &mut columns, &mut num_aggregations);
                }
                (0, 0, 0, 0)
            }
        };

        LogicalFeatures {
            query_type,
            tables,
            columns: columns.into_iter().collect(),
            num_joins,
            num_group_by,
            num_having,
            num_order_by,
            num_aggregations,
        }
    }

    /// Embeds the features into a fixed-dimension numeric vector for L2
    /// clustering. Table and column identities are hashed into small
    /// buckets (a feature-hashing trick) so every template shares one
    /// space regardless of schema size.
    pub fn to_vector(&self, table_buckets: usize, column_buckets: usize) -> Vec<f64> {
        let mut v = vec![0.0; 4 + table_buckets + column_buckets + 5];
        v[self.query_type as usize] = 1.0;
        let mut idx = 4;
        for t in &self.tables {
            v[idx + bucket_of(t, table_buckets)] += 1.0;
        }
        idx += table_buckets;
        for c in &self.columns {
            v[idx + bucket_of(c, column_buckets)] += 1.0;
        }
        idx += column_buckets;
        v[idx] = self.num_joins as f64;
        v[idx + 1] = self.num_group_by as f64;
        v[idx + 2] = self.num_having as f64;
        v[idx + 3] = self.num_order_by as f64;
        v[idx + 4] = self.num_aggregations as f64;
        v
    }
}

fn bucket_of(s: &str, buckets: usize) -> usize {
    (qb_parallel::StableHasher::hash_one(s) % buckets as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use qb5000::{BatchItem, DurabilityConfig, DurablePipeline, Qb5000Config};
    use qb_sqlparse::parse_statement;

    fn lf(sql: &str) -> LogicalFeatures {
        LogicalFeatures::extract(&parse_statement(sql).unwrap())
    }

    #[test]
    fn select_features() {
        let f = lf("SELECT a, SUM(b) FROM t JOIN u ON t.id = u.id \
                    WHERE c = 1 GROUP BY a HAVING SUM(b) > 5 ORDER BY a");
        assert_eq!(f.query_type, 0);
        assert_eq!(f.tables, vec!["t", "u"]);
        assert_eq!(f.num_joins, 1);
        assert_eq!(f.num_group_by, 1);
        assert_eq!(f.num_having, 1);
        assert_eq!(f.num_order_by, 1);
        assert_eq!(f.num_aggregations, 2);
        assert!(f.columns.contains(&"a".to_string()));
        assert!(f.columns.contains(&"id".to_string()));
    }

    #[test]
    fn insert_features() {
        let f = lf("INSERT INTO t (a, b) VALUES (1, 2)");
        assert_eq!(f.query_type, 1);
        assert_eq!(f.columns, vec!["a", "b"]);
    }

    #[test]
    fn update_features() {
        let f = lf("UPDATE t SET a = 1 WHERE id = 2");
        assert_eq!(f.query_type, 2);
        assert!(f.columns.contains(&"a".to_string()));
        assert!(f.columns.contains(&"id".to_string()));
    }

    #[test]
    fn delete_features() {
        let f = lf("DELETE FROM t WHERE id = 2");
        assert_eq!(f.query_type, 3);
    }

    #[test]
    fn vector_embedding_stable_and_distinct() {
        let a = lf("SELECT a FROM t WHERE id = 1").to_vector(8, 16);
        let a2 = lf("SELECT a FROM t WHERE id = 99").to_vector(8, 16);
        let b = lf("DELETE FROM other WHERE id = 1").to_vector(8, 16);
        assert_eq!(a, a2, "constants must not affect logical features");
        assert_ne!(a, b);
        assert_eq!(a.len(), 4 + 8 + 16 + 5);
    }

    /// Ingests six hours of six structurally different templates, ending
    /// at `round`'s close, then updates the clusters.
    fn run_round(p: &mut DurablePipeline, round: i64) {
        const SQL: [&str; 6] = [
            "SELECT a, b, c, d FROM t1 JOIN t2 ON t1.id = t2.id WHERE x = 1 GROUP BY a, b, c",
            "SELECT a, b, c, e FROM t1 JOIN t2 ON t1.id = t2.id WHERE x = 2 GROUP BY a, b, c",
            "UPDATE t3 SET p = 3, q = 4, r = 5 WHERE id = 6",
            "INSERT INTO t4 (u, v, w, y, z) VALUES (1, 2, 3, 4, 5)",
            "DELETE FROM t5 WHERE id = 7",
            "SELECT COUNT(*), SUM(m), AVG(n) FROM t6 GROUP BY k HAVING SUM(m) > 3 ORDER BY k",
        ];
        for minute in (round * 360..(round + 1) * 360).step_by(10) {
            let count = |k: usize| 1 + (minute / 60 + k as i64) as u64 % 7;
            let tick: Vec<BatchItem<'_>> = (SQL.iter().enumerate())
                .map(|(k, sql)| BatchItem { minute, sql, count: count(k) })
                .collect();
            p.ingest_batch(&tick).unwrap();
        }
        p.update_clusters((round + 1) * 360).unwrap();
    }

    fn state(p: &DurablePipeline) -> (qb5000::PipelineState, Vec<qb5000::ClusterInfoState>) {
        let tracked = p.bot().tracked_clusters().iter().map(|c| c.export_state()).collect();
        (p.bot().export_state(), tracked)
    }

    /// The logical feature reaches a recovered pipeline through the config
    /// passed to `DurablePipeline::open`: replayed cluster updates use it,
    /// so a dropped and re-opened run equals an uninterrupted one.
    #[test]
    fn logical_clustering_survives_recovery() {
        let dir = std::env::temp_dir().join(format!("qb-logical-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let logical = Qb5000Config {
            cluster_feature: Some(cluster_feature),
            clusterer: LOGICAL_CLUSTERER,
            ..Qb5000Config::default()
        };
        let policy = DurabilityConfig::new(&dir).snapshot_every_rounds(2);
        let durable = Qb5000Config { durability: Some(policy), ..logical.clone() };
        let (mut plain, _) = DurablePipeline::open(logical).unwrap();
        let (mut crashed, _) = DurablePipeline::open(durable.clone()).unwrap();
        // Five rounds: snapshots after rounds 2 and 4, round 5 in the WAL.
        for round in 0..5 {
            run_round(&mut plain, round);
            run_round(&mut crashed, round);
        }
        drop(crashed);
        let (mut recovered, report) = DurablePipeline::open(durable).unwrap();
        assert!(report.frames_replayed > 0, "the last round replays from the WAL");
        assert!(recovered.bot().clusterer().num_clusters() > 1);
        assert_eq!(state(&recovered), state(&plain));
        run_round(&mut plain, 5);
        run_round(&mut recovered, 5);
        assert_eq!(state(&recovered), state(&plain));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn aggregation_count_distinguishes() {
        let plain = lf("SELECT a FROM t WHERE x = 1");
        let agg = lf("SELECT COUNT(*), AVG(a) FROM t WHERE x = 1");
        assert_eq!(plain.num_aggregations, 0);
        assert_eq!(agg.num_aggregations, 2);
    }
}
