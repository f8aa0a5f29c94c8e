//! Semantic-equivalence fingerprints.
//!
//! §4: "It considers two templates as equivalent if they access the same
//! tables, use the same predicates, and return the same projections."
//!
//! The fingerprint is a structural digest of a *templated* statement:
//! statement kind, the set of tables, the multiset of projection shapes, and
//! the multiset of predicate shapes (column, operator) with constants
//! already erased. Clause order is normalized by sorting, so
//! `WHERE a = ? AND b = ?` and `WHERE b = ? AND a = ?` fold together — the
//! heuristic approximation the paper chose over full semantic equivalence.

use std::hash::{Hash, Hasher};

use qb_parallel::StableHasher;
use qb_sqlparse::{Expr, Statement};

/// An opaque semantic fingerprint. Equal fingerprints mean the
/// Pre-Processor treats the templates as the same tracked template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint(u64);

/// Computes the semantic fingerprint of a templated statement.
pub fn semantic_fingerprint(stmt: &Statement) -> Fingerprint {
    let mut h = StableHasher::new();
    stmt.kind_name().hash(&mut h);

    let mut tables = stmt.tables();
    tables.sort();
    tables.hash(&mut h);

    match stmt {
        Statement::Select(s) => {
            let mut projections: Vec<String> =
                s.items.iter().map(|i| expr_shape(&i.expr)).collect();
            projections.sort();
            projections.hash(&mut h);
            s.distinct.hash(&mut h);

            let mut predicates = Vec::new();
            if let Some(w) = &s.where_clause {
                predicate_shapes(w, &mut predicates);
            }
            if let Some(hv) = &s.having {
                predicate_shapes(hv, &mut predicates);
            }
            for j in &s.joins {
                // Join kind changes semantics (LEFT vs INNER) even when the
                // ON predicate shape is identical.
                format!("{:?}", j.kind).hash(&mut h);
                if let Some(on) = &j.on {
                    predicate_shapes(on, &mut predicates);
                }
            }
            predicates.sort();
            predicates.hash(&mut h);

            let mut groups: Vec<String> = s.group_by.iter().map(expr_shape).collect();
            groups.sort();
            groups.hash(&mut h);

            let orders: Vec<String> = s
                .order_by
                .iter()
                .map(|o| format!("{}:{:?}", expr_shape(&o.expr), o.direction))
                .collect();
            orders.hash(&mut h);
            s.limit.is_some().hash(&mut h);
        }
        Statement::Insert(i) => {
            // Column order is semantic for INSERT (it pairs columns with
            // values) — hash in declaration order, not sorted.
            i.columns.hash(&mut h);
            i.rows.first().map_or(0, Vec::len).hash(&mut h);
        }
        Statement::Update(u) => {
            let mut cols: Vec<&str> = u.assignments.iter().map(|a| a.column.as_str()).collect();
            cols.sort();
            cols.hash(&mut h);
            let mut predicates = Vec::new();
            if let Some(w) = &u.where_clause {
                predicate_shapes(w, &mut predicates);
            }
            predicates.sort();
            predicates.hash(&mut h);
        }
        Statement::Delete(d) => {
            let mut predicates = Vec::new();
            if let Some(w) = &d.where_clause {
                predicate_shapes(w, &mut predicates);
            }
            predicates.sort();
            predicates.hash(&mut h);
        }
    }
    Fingerprint(h.finish())
}

/// A canonical string for an expression's *shape*: structure with constants
/// erased (they are already placeholders in a template, but raw statements
/// can be fingerprinted too).
fn expr_shape(e: &Expr) -> String {
    match e {
        Expr::Literal(_) | Expr::Placeholder => "?".into(),
        Expr::Column { table, column } => match table {
            Some(t) => format!("{t}.{column}"),
            None => column.clone(),
        },
        Expr::Wildcard => "*".into(),
        Expr::Binary { left, op, right } => {
            format!("({} {} {})", expr_shape(left), op.as_str(), expr_shape(right))
        }
        Expr::Unary { op, expr } => format!("({op:?} {})", expr_shape(expr)),
        Expr::Function { name, distinct, args } => {
            let args: Vec<String> = args.iter().map(expr_shape).collect();
            format!("{name}{}({})", if *distinct { "!d" } else { "" }, args.join(","))
        }
        Expr::InList { expr, negated, .. } => {
            format!("(in{} {} [?])", if *negated { "!" } else { "" }, expr_shape(expr))
        }
        Expr::InSubquery { expr, subquery, negated } => {
            let sub = semantic_fingerprint(&Statement::Select((**subquery).clone()));
            format!("(insub{} {} {:x})", if *negated { "!" } else { "" }, expr_shape(expr), sub.0)
        }
        Expr::Exists { subquery, negated } => {
            let sub = semantic_fingerprint(&Statement::Select((**subquery).clone()));
            format!("(exists{} {:x})", if *negated { "!" } else { "" }, sub.0)
        }
        Expr::Between { expr, negated, .. } => {
            format!("(between{} {})", if *negated { "!" } else { "" }, expr_shape(expr))
        }
        Expr::IsNull { expr, negated } => {
            format!("(isnull{} {})", if *negated { "!" } else { "" }, expr_shape(expr))
        }
        Expr::Subquery(s) => {
            let sub = semantic_fingerprint(&Statement::Select((**s).clone()));
            format!("(sub {:x})", sub.0)
        }
        Expr::Case { branches, else_expr } => {
            let bs: Vec<String> = branches
                .iter()
                .map(|(c, v)| format!("{}→{}", expr_shape(c), expr_shape(v)))
                .collect();
            format!(
                "(case {} else {})",
                bs.join(";"),
                else_expr.as_ref().map_or("∅".into(), |e| expr_shape(e))
            )
        }
    }
}

/// Flattens a predicate tree into its conjunct/disjunct shapes. AND is
/// flattened (order-insensitive); any other node is one shape.
fn predicate_shapes(e: &Expr, out: &mut Vec<String>) {
    match e {
        Expr::Binary { left, op, right } if op.as_str() == "AND" => {
            predicate_shapes(left, out);
            predicate_shapes(right, out);
        }
        other => out.push(expr_shape(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::templatize;
    use qb_sqlparse::parse_statement;

    fn fp(sql: &str) -> Fingerprint {
        semantic_fingerprint(&templatize(&parse_statement(sql).unwrap()).template)
    }

    #[test]
    fn constants_do_not_affect_fingerprint() {
        assert_eq!(fp("SELECT a FROM t WHERE id = 1"), fp("SELECT a FROM t WHERE id = 2"));
    }

    #[test]
    fn conjunct_order_normalized() {
        assert_eq!(
            fp("SELECT a FROM t WHERE x = 1 AND y = 2"),
            fp("SELECT a FROM t WHERE y = 9 AND x = 3")
        );
    }

    #[test]
    fn different_projections_distinct() {
        assert_ne!(fp("SELECT a FROM t WHERE id = 1"), fp("SELECT b FROM t WHERE id = 1"));
    }

    #[test]
    fn different_tables_distinct() {
        assert_ne!(fp("SELECT a FROM t WHERE id = 1"), fp("SELECT a FROM u WHERE id = 1"));
    }

    #[test]
    fn different_operators_distinct() {
        assert_ne!(fp("SELECT a FROM t WHERE id = 1"), fp("SELECT a FROM t WHERE id > 1"));
    }

    #[test]
    fn or_structure_not_conflated_with_and() {
        assert_ne!(
            fp("SELECT a FROM t WHERE x = 1 AND y = 2"),
            fp("SELECT a FROM t WHERE x = 1 OR y = 2")
        );
    }

    #[test]
    fn statement_kinds_distinct() {
        assert_ne!(fp("DELETE FROM t WHERE id = 1"), fp("SELECT * FROM t WHERE id = 1"));
    }

    #[test]
    fn insert_batch_sizes_fold_together() {
        assert_eq!(
            fp("INSERT INTO t (a, b) VALUES (1, 2)"),
            fp("INSERT INTO t (a, b) VALUES (3, 4), (5, 6)")
        );
    }

    #[test]
    fn update_assignment_sets_matter() {
        assert_ne!(
            fp("UPDATE t SET a = 1 WHERE id = 1"),
            fp("UPDATE t SET b = 1 WHERE id = 1")
        );
    }

    #[test]
    fn limit_presence_matters_but_value_does_not() {
        assert_eq!(
            fp("SELECT a FROM t WHERE x = 1 LIMIT 10"),
            fp("SELECT a FROM t WHERE x = 1 LIMIT 10")
        );
        assert_ne!(fp("SELECT a FROM t WHERE x = 1 LIMIT 10"), fp("SELECT a FROM t WHERE x = 1"));
    }
}
