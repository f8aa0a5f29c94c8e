//! Checks that the code DESIGN.md and README.md name still exists.
//!
//! Every inline code span of the two documents is scanned for Rust paths
//! (`PreProcessor::ingest_batch`, `tests/durability.rs::crash_point_repro`)
//! and for snake_case names with two or more underscores (test names,
//! config fields, metric names such as `ingest_stmts_per_s`). Every
//! segment of each path, and each such name, must occur as an identifier in
//! the Rust sources under `crates/`, `tests/`, `examples/` or
//! `benchmarks/src/`, or in `BENCHMARK.json`. A rename or a deletion that
//! leaves the documents behind fails here, naming the stale reference.

use std::collections::{BTreeSet, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/core.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("repo root")
}

fn is_identifier(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// The identifiers in `text`: maximal runs of `[A-Za-z0-9_]` that do not
/// start with a digit.
fn identifiers(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).filter(|w| is_identifier(w))
}

/// A snake_case name with at least two underscores, such as a test name.
fn is_long_snake_name(word: &str) -> bool {
    word.starts_with(|c: char| c.is_ascii_lowercase())
        && word.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        && word.split('_').all(|part| !part.is_empty())
        && word.matches('_').count() >= 2
}

/// The inline code spans of a Markdown document, fenced blocks skipped.
fn code_spans(doc: &str) -> Vec<&str> {
    let mut spans = Vec::new();
    let mut fenced = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if !fenced {
            spans.extend(line.split('`').skip(1).step_by(2));
        }
    }
    spans
}

/// The references one code span makes: every segment of each Rust path in
/// it, and each long snake_case name.
fn references(span: &str) -> BTreeSet<&str> {
    let mut refs = BTreeSet::new();
    for chunk in span.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':')) {
        let segments: Vec<&str> = chunk.split("::").collect();
        if segments.len() >= 2 && segments.iter().all(|s| is_identifier(s)) {
            refs.extend(segments);
        }
    }
    refs.extend(identifiers(span).filter(|w| is_long_snake_name(w)));
    refs
}

fn collect_rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            if !path.ends_with("target") && !path.ends_with("out") {
                collect_rust_sources(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every identifier in the sources the documents may refer to.
fn known_identifiers(root: &Path) -> HashSet<String> {
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples", "benchmarks/src"] {
        collect_rust_sources(&root.join(dir), &mut files);
    }
    files.push(root.join("BENCHMARK.json"));
    let mut known = HashSet::new();
    for file in files {
        let text = fs::read_to_string(&file).unwrap_or_else(|e| panic!("read {file:?}: {e}"));
        known.extend(identifiers(&text).map(str::to_string));
    }
    known
}

#[test]
fn every_item_the_docs_name_exists() {
    let root = repo_root();
    let known = known_identifiers(&root);
    let mut checked = BTreeSet::new();
    let mut stale = BTreeSet::new();
    for doc in ["DESIGN.md", "README.md"] {
        let text = fs::read_to_string(root.join(doc)).expect("read doc");
        for span in code_spans(&text) {
            for reference in references(span) {
                checked.insert(reference.to_string());
                if !known.contains(reference) {
                    stale.insert(format!("{doc}: `{span}` ({reference})"));
                }
            }
        }
    }
    assert!(checked.len() > 50, "only {} references found; is the scan broken?", checked.len());
    assert!(stale.is_empty(), "references to code that no longer exists:\n{stale:#?}");
}

#[test]
fn references_are_paths_and_long_snake_names() {
    let refs = |span| references(span).into_iter().collect::<Vec<_>>();
    assert_eq!(refs("PreProcessor::ingest_batch(&pool, batch)"), ["PreProcessor", "ingest_batch"]);
    assert_eq!(refs("tests/durability.rs::crash_point_repro"), ["crash_point_repro", "rs"]);
    assert_eq!(refs("a::b::c and raw_sql_text"), ["a", "b", "c", "raw_sql_text"]);
    assert!(references("QB_THREADS=4").is_empty());
    assert!(references("state_digest").is_empty(), "one underscore is too common to check");
    assert!(references("preprocessor.cache_hits x::").is_empty());
    assert_eq!(code_spans("a `b` c `d`\n```\n`e`\n```\n`f`"), ["b", "d", "f"]);
}
