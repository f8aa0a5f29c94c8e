//! Checks that the code DESIGN.md, README.md and EXPERIMENTS.md name still
//! exists.
//!
//! Every inline code span of the documents is scanned for Rust paths
//! (`PreProcessor::ingest_batch`, `tests/durability.rs::crash_point_repro`)
//! and for snake_case names with two or more underscores (test names,
//! config fields, metric names such as `ingest_stmts_per_s`). Every
//! segment of each path, and each such name, must occur as an identifier in
//! the Rust sources under `crates/`, `tests/`, `examples/` or
//! `benchmarks/src/`, or in `BENCHMARK.json`. A path into a file,
//! `<file>.rs::<name>`, must name a `fn` in a Rust source whose path ends
//! with `<file>.rs`. A rename or a deletion that leaves the documents
//! behind fails here, naming the stale reference.

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

/// The `(file, name)` pairs of the `<file>.rs::<name>` paths in one code
/// span, `file` with its directories: `tests/durability.rs::crash_point_repro`
/// gives `("tests/durability.rs", "crash_point_repro")`.
fn file_references(span: &str) -> Vec<(&str, &str)> {
    let is_path_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '.' | '-');
    let mut refs = Vec::new();
    for (at, _) in span.match_indices(".rs::") {
        let start = span[..at].rfind(|c| !is_path_char(c)).map_or(0, |i| i + 1);
        let rest = &span[at + ".rs::".len()..];
        let name = identifiers(rest).next().filter(|name| rest.starts_with(name));
        if let Some(name) = name.filter(|_| start < at) {
            refs.push((&span[start..at + ".rs".len()], name));
        }
    }
    refs
}

/// Whether `text` defines a function `name`.
fn defines_fn(text: &str, name: &str) -> bool {
    text.match_indices("fn ").any(|(at, _)| {
        let rest = &text[at + "fn ".len()..];
        rest.starts_with(name)
            && !rest[name.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
            && (at == 0 || !text[..at].ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_'))
    })
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

/// The sources the documents may refer to, by path from the repository
/// root, with their text; `BENCHMARK.json` among them.
fn sources(root: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples", "benchmarks/src"] {
        collect_rust_sources(&root.join(dir), &mut files);
    }
    files.push(root.join("BENCHMARK.json"));
    files
        .into_iter()
        .map(|file| {
            let text = fs::read_to_string(&file).unwrap_or_else(|e| panic!("read {file:?}: {e}"));
            let path = file.strip_prefix(root).expect("under the root").to_string_lossy();
            (path.replace('\\', "/"), text)
        })
        .collect()
}

#[test]
fn every_item_the_docs_name_exists() {
    let root = repo_root();
    let sources = sources(&root);
    let known: HashSet<&str> = sources.iter().flat_map(|(_, text)| identifiers(text)).collect();
    let mut checked = BTreeSet::new();
    let mut stale = BTreeSet::new();
    let mut file_refs = 0;
    for doc in ["DESIGN.md", "README.md", "EXPERIMENTS.md"] {
        let text = fs::read_to_string(root.join(doc)).expect("read doc");
        for span in code_spans(&text) {
            for reference in references(span) {
                checked.insert(reference.to_string());
                if !known.contains(reference) {
                    stale.insert(format!("{doc}: `{span}` ({reference})"));
                }
            }
            for (file, name) in file_references(span) {
                file_refs += 1;
                let defined = sources.iter().any(|(path, text)| {
                    (path == file || path.ends_with(&format!("/{file}"))) && defines_fn(text, name)
                });
                if !defined {
                    stale.insert(format!("{doc}: `{span}` (no fn {name} in {file})"));
                }
            }
        }
    }
    assert!(checked.len() > 50, "only {} references found; is the scan broken?", checked.len());
    assert!(stale.is_empty(), "references to code that no longer exists:\n{stale:#?}");
    assert!(file_refs > 0, "no `<file>.rs::<name>` reference found; is the scan broken?");
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

#[test]
fn file_references_resolve_to_a_fn_in_that_file() {
    assert_eq!(
        file_references("tests/durability.rs::crash_point_repro and a.rs::b()"),
        [("tests/durability.rs", "crash_point_repro"), ("a.rs", "b")]
    );
    assert!(file_references("lib.rs:: and x::y and .rs::z").is_empty());
    let text = "fn alpha() {}\n    fn beta_gamma(x: u8) {}\nlet refn beta = 1;";
    assert!(defines_fn(text, "alpha") && defines_fn(text, "beta_gamma"));
    assert!(!defines_fn(text, "beta") && !defines_fn(text, "gamma"));
}
