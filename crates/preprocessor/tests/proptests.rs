//! Property-based tests for templating, sampling, and ingest robustness.

use proptest::prelude::*;
use qb_preprocessor::{
    bind_params, semantic_fingerprint, templatize, PreProcessor, PreProcessorConfig, Reservoir,
};
use qb_sqlparse::{format_statement, parse_statement};

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}".prop_filter("avoid keywords", |s| {
        !matches!(
            s.as_str(),
            "select" | "from" | "where" | "and" | "or" | "not" | "in" | "between" | "like"
                | "is" | "null" | "as" | "on" | "join" | "group" | "by" | "having" | "order"
                | "asc" | "desc" | "limit" | "offset" | "insert" | "into" | "values"
                | "update" | "set" | "delete" | "true" | "false" | "end" | "all"
        )
    })
}

fn literal() -> impl Strategy<Value = String> {
    prop_oneof![
        any::<i32>().prop_map(|v| v.to_string()),
        "[a-z0-9]{0,8}".prop_map(|s| format!("'{s}'")),
        (1u32..999, 1u32..99).prop_map(|(a, b)| format!("{a}.{b}")),
    ]
}

/// Random SELECT/UPDATE/DELETE with constant-bearing predicates.
fn pred() -> impl Strategy<Value = String> {
    (ident(), literal(), ident(), literal())
        .prop_map(|(c1, l1, c2, l2)| format!("{c1} = {l1} AND {c2} > {l2}"))
}

fn stmt() -> impl Strategy<Value = String> {
    prop_oneof![
        (proptest::collection::vec(ident(), 1..3), ident(), pred())
            .prop_map(|(cols, t, p)| format!("SELECT {} FROM {t} WHERE {p}", cols.join(", "))),
        (ident(), ident(), literal(), pred())
            .prop_map(|(t, c, v, p)| format!("UPDATE {t} SET {c} = {v} WHERE {p}")),
        (ident(), pred()).prop_map(|(t, p)| format!("DELETE FROM {t} WHERE {p}")),
        (ident(), proptest::collection::vec((ident(), literal()), 1..4)).prop_map(|(t, cs)| {
            let names: Vec<_> = cs.iter().map(|(c, _)| c.clone()).collect();
            let vals: Vec<_> = cs.iter().map(|(_, v)| v.clone()).collect();
            format!("INSERT INTO {t} ({}) VALUES ({})", names.join(", "), vals.join(", "))
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Templatizing leaves no literal constants behind, and binding the
    /// extracted parameters reproduces the original statement.
    #[test]
    fn templatize_bind_roundtrip(sql in stmt()) {
        let original = parse_statement(&sql).expect("generated SQL parses");
        let t = templatize(&original);
        // No literals remain in the template text (placeholders only).
        // Column names can contain digits, so check via the parameter count
        // instead: re-templatizing the template extracts nothing.
        let again = templatize(&t.template);
        prop_assert!(again.params.is_empty(), "template still had constants: {}", t.text);
        // Round trip.
        let bound = bind_params(&t.template, &t.params);
        prop_assert_eq!(
            format_statement(&bound),
            format_statement(&original),
            "bind(templatize(s)) != s for `{}`", sql
        );
    }

    /// Templatizing a template is a fixed point: running the already
    /// constant-free statement through `templatize` again changes nothing —
    /// not the canonical text, not the template AST, and (degenerately) it
    /// extracts zero parameters. Generated over the Table 1 query-type mix
    /// (SELECT/INSERT/UPDATE/DELETE with integer, decimal, and string
    /// constants).
    #[test]
    fn templatizing_a_template_is_a_fixed_point(sql in stmt()) {
        let t1 = templatize(&parse_statement(&sql).expect("generated SQL parses"));
        let t2 = templatize(&t1.template);
        prop_assert!(t2.params.is_empty(), "second pass extracted params from {}", t1.text);
        prop_assert_eq!(&t2.template, &t1.template, "template AST drifted for `{}`", sql);
        prop_assert_eq!(&t2.text, &t1.text, "template text drifted for `{}`", sql);
        // And the fixed point survives a parse round trip of the text.
        let reparsed = templatize(&parse_statement(&t1.text).expect("template text parses"));
        prop_assert_eq!(&reparsed.text, &t1.text);
    }

    /// The same statement with different constants yields the same
    /// template and fingerprint.
    #[test]
    fn constants_never_affect_identity(
        cols in proptest::collection::vec(ident(), 1..3),
        table in ident(),
        col in ident(),
        v1 in any::<i32>(),
        v2 in any::<i32>(),
    ) {
        let q1 = format!("SELECT {} FROM {table} WHERE {col} = {v1}", cols.join(", "));
        let q2 = format!("SELECT {} FROM {table} WHERE {col} = {v2}", cols.join(", "));
        let t1 = templatize(&parse_statement(&q1).expect("parses"));
        let t2 = templatize(&parse_statement(&q2).expect("parses"));
        prop_assert_eq!(&t1.text, &t2.text);
        prop_assert_eq!(
            semantic_fingerprint(&t1.template),
            semantic_fingerprint(&t2.template)
        );
    }

    /// AND-conjunct order never affects the fingerprint.
    #[test]
    fn conjunct_order_irrelevant(
        table in ident(), c1 in ident(), c2 in ident(), v1 in any::<i32>(), v2 in any::<i32>()
    ) {
        prop_assume!(c1 != c2);
        let a = format!("SELECT x FROM {table} WHERE {c1} = {v1} AND {c2} = {v2}");
        let b = format!("SELECT x FROM {table} WHERE {c2} = {v2} AND {c1} = {v1}");
        let fa = semantic_fingerprint(&templatize(&parse_statement(&a).expect("a")).template);
        let fb = semantic_fingerprint(&templatize(&parse_statement(&b).expect("b")).template);
        prop_assert_eq!(fa, fb);
    }

    /// Ingest never panics, whatever bytes arrive — malformed UTF-8 (via
    /// lossy decoding), control characters, unbalanced quotes, binary
    /// garbage. Rejections land in quarantine; the accounting identity
    /// `accepted + rejected == offered` always holds.
    #[test]
    fn ingest_never_panics_on_arbitrary_bytes(
        chunks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..48),
            1..12,
        ),
        t0 in -1_000_000_000_000i64..1_000_000_000_000,
        step in -2_000i64..2_000,
    ) {
        let mut pre = PreProcessor::new(PreProcessorConfig::default());
        let mut accepted = 0u64;
        for (i, bytes) in chunks.iter().enumerate() {
            let sql = String::from_utf8_lossy(bytes);
            let t = t0 + step * i as i64;
            if pre.ingest_weighted(t, &sql, 1 + i as u64 % 3).is_ok() {
                accepted += 1;
            }
        }
        prop_assert_eq!(
            accepted + pre.quarantine().rejected_statements(),
            chunks.len() as u64,
            "every offered statement is either accepted or quarantined"
        );
    }

    /// Ingest tolerates arbitrary timestamps — negative, decreasing, or
    /// jumping wildly — and still accounts for every arrival.
    #[test]
    fn ingest_tolerates_arbitrary_timestamps(
        ts in proptest::collection::vec(-1_000_000_000i64..1_000_000_000, 1..40),
        weight in 1u64..5,
    ) {
        let mut pre = PreProcessor::new(PreProcessorConfig::default());
        let mut id = None;
        for &t in &ts {
            id = Some(
                pre.ingest_weighted(t, "SELECT a FROM t WHERE id = 1", weight)
                    .expect("well-formed SQL always ingests"),
            );
        }
        let entry = pre.template(id.expect("at least one ingest"));
        prop_assert_eq!(entry.history.total(), ts.len() as u64 * weight);
        prop_assert_eq!(entry.history.first_seen(), ts.iter().min().copied());
    }

    /// Reservoir: size is min(capacity, offered), and the sample is always
    /// a sub-multiset of the stream.
    #[test]
    fn reservoir_invariants(cap in 1usize..20, n in 0usize..200, seed in any::<u64>()) {
        let mut r = Reservoir::new(cap, seed);
        for i in 0..n {
            r.offer(|| i);
        }
        prop_assert_eq!(r.len(), cap.min(n));
        prop_assert_eq!(r.seen(), n as u64);
        let mut seen = std::collections::HashSet::new();
        for &x in r.items() {
            prop_assert!(x < n, "sample outside stream");
            prop_assert!(seen.insert(x), "duplicate item {} in sample", x);
        }
    }
}
