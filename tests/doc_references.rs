//! Checks that the code DESIGN.md, README.md and EXPERIMENTS.md name still
//! exists.
//!
//! Every inline code span of the documents is scanned for Rust paths
//! (`PreProcessor::ingest_batch`, `tests/durability.rs::crash_point_repro`),
//! for snake_case names with two or more underscores (test names,
//! config fields, metric names such as `ingest_stmts_per_s`), and for a
//! span that is one CamelCase name (`LogicalFeatures`). Every
//! segment of each path, and each such name, must occur as an identifier in
//! the Rust sources under `crates/`, `tests/`, `examples/` or
//! `benchmarks/src/`, or in `BENCHMARK.json`. A path into a file,
//! `<file>.rs::<name>`, must name a `fn` in a Rust source whose path ends
//! with `<file>.rs`. A rename or a deletion that leaves the documents
//! behind fails here, naming the stale reference.
//!
//! DESIGN.md must name each `#[test]` function as `<file>.rs::<name>`, so
//! that a test deleted or renamed cannot stay cited through a same-named
//! identifier elsewhere. And every section title that a Rust comment or a
//! document quotes right after naming DESIGN.md must exist there as a
//! heading or a bold lead.

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

/// A CamelCase name, such as a type or variant name: a capital first, a
/// lower-case letter somewhere, no underscore.
fn is_camel_case_name(word: &str) -> bool {
    word.starts_with(|c: char| c.is_ascii_uppercase())
        && word.chars().all(|c| c.is_ascii_alphanumeric())
        && word.chars().any(|c| c.is_ascii_lowercase())
}

/// The lines of a Markdown document outside its fenced blocks.
fn unfenced_lines(doc: &str) -> impl Iterator<Item = &str> {
    let mut fenced = false;
    doc.lines().filter(move |line| {
        let fence = line.trim_start().starts_with("```");
        fenced ^= fence;
        !fence && !fenced
    })
}

/// The inline code spans of a Markdown document, fenced blocks skipped.
fn code_spans(doc: &str) -> Vec<&str> {
    unfenced_lines(doc).flat_map(|line| line.split('`').skip(1).step_by(2)).collect()
}

/// The prose of a Markdown document: each line's text outside its inline
/// code spans, fenced blocks skipped.
fn prose(doc: &str) -> Vec<&str> {
    unfenced_lines(doc).flat_map(|line| line.split('`').step_by(2)).collect()
}

/// The references one code span makes: every segment of each Rust path in
/// it, each long snake_case name, and the span itself when it is one
/// CamelCase name.
fn references(span: &str) -> BTreeSet<&str> {
    let mut refs = BTreeSet::new();
    for chunk in span.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':')) {
        let segments: Vec<&str> = chunk.split("::").collect();
        if segments.len() >= 2 && segments.iter().all(|s| is_identifier(s)) {
            refs.extend(segments);
        }
    }
    refs.extend(identifiers(span).filter(|w| is_long_snake_name(w)));
    refs.extend(Some(span.trim()).filter(|w| is_camel_case_name(w)));
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

/// The identifier-like words of `text` with their byte offsets.
fn words_at(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let is_word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.char_indices().filter(move |&(i, c)| is_word(c) && !text[..i].ends_with(is_word)).map(
        move |(i, _)| {
            let end = text[i..].find(|c: char| !is_word(c)).map_or(text.len(), |len| i + len);
            (i, &text[i..end])
        },
    )
}

/// The `#[test]` functions `text` defines, proptest cases included: each
/// `#[test]` line followed, past attribute, comment and blank lines, by a
/// `fn`.
fn test_names(text: &str) -> Vec<&str> {
    let mut names = Vec::new();
    let mut lines = text.lines().map(str::trim);
    while let Some(line) = lines.next() {
        if line != "#[test]" {
            continue;
        }
        let decl = lines.find(|l| !(l.is_empty() || l.starts_with("#[") || l.starts_with("//")));
        if let Some((_, name)) =
            decl.and_then(|l| l.strip_prefix("fn ")).and_then(|l| words_at(l).next())
        {
            names.push(name);
        }
    }
    names
}

/// The words of `text` that name a test in `tests` other than as the
/// `<name>` of a `<file>.rs::<name>` path or as a file name. Text holding a
/// shell command (`cargo `) is exempt: a test filter there must be bare.
fn bare_test_names<'a>(text: &'a str, tests: &HashSet<&str>) -> Vec<&'a str> {
    if text.contains("cargo ") {
        return Vec::new();
    }
    words_at(text)
        .filter(|&(at, word)| {
            let after = &text[at + word.len()..];
            tests.contains(word)
                && !text[..at].ends_with(".rs::")
                && !after.starts_with(".rs")
                && !after.starts_with('/')
        })
        .map(|(_, word)| word)
        .collect()
}

/// Each run of comment lines in a Rust source, joined into one line with
/// its comment markers dropped, so a phrase wrapped across lines reads
/// whole.
fn comment_blocks(source: &str) -> Vec<String> {
    let mut blocks = Vec::new();
    let mut block = String::new();
    for line in source.lines() {
        match line.trim_start().strip_prefix("//") {
            Some(comment) => {
                block.push_str(comment.trim_start_matches(['/', '!']).trim());
                block.push(' ');
            }
            None if !block.is_empty() => blocks.push(std::mem::take(&mut block)),
            None => {}
        }
    }
    blocks.push(block);
    blocks
}

/// The section titles `text` quotes right after naming DESIGN.md, as in
/// `DESIGN.md, "Ingest engine"` or `DESIGN.md ("Ingest engine")`, line
/// breaks allowed, with the whitespace inside a title folded to one space.
fn cited_titles(text: &str) -> Vec<String> {
    text.match_indices("DESIGN.md")
        .filter_map(|(at, m)| {
            let rest = &text[at + m.len()..];
            let rest = rest.strip_prefix(',').or_else(|| rest.trim_start().strip_prefix('('))?;
            let rest = rest.trim_start().strip_prefix('"')?;
            let title = &rest[..rest.find('"')?];
            Some(title.split_whitespace().collect::<Vec<_>>().join(" "))
        })
        .collect()
}

/// The section titles DESIGN.md defines: its headings, and the bold lead
/// of each paragraph or list item (`**Segment preallocation.**`) without
/// its closing stop.
fn design_titles(doc: &str) -> HashSet<&str> {
    let mut titles = HashSet::new();
    for line in doc.lines().map(str::trim_start) {
        if line.starts_with('#') {
            titles.insert(line.trim_start_matches('#').trim());
            continue;
        }
        let numbered = line
            .split_once(". ")
            .filter(|(n, _)| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()));
        let item = line.strip_prefix("- ").or(numbered.map(|(_, rest)| rest)).unwrap_or(line);
        if let Some((lead, _)) = item.strip_prefix("**").and_then(|rest| rest.split_once("**")) {
            titles.insert(lead.trim_end_matches(['.', ':']));
        }
    }
    titles
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
fn design_names_every_test_by_its_file() {
    let root = repo_root();
    let sources = sources(&root);
    let tests: HashSet<&str> = sources.iter().flat_map(|(_, text)| test_names(text)).collect();
    assert!(tests.len() > 500, "only {} tests found; is the scan broken?", tests.len());
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let mut bare = BTreeSet::new();
    for span in code_spans(&design) {
        bare.extend(
            bare_test_names(span, &tests).into_iter().map(|name| format!("`{span}` ({name})")),
        );
    }
    // In prose only snake_case names with two or more underscores count:
    // a few tests are named with plain words (`distinct`, `arithmetic`).
    for text in prose(&design) {
        let names = bare_test_names(text, &tests).into_iter().filter(|w| is_long_snake_name(w));
        bare.extend(names.map(|name| format!("prose: {name}")));
    }
    assert!(
        bare.is_empty(),
        "DESIGN.md names tests without their file; write `<file>.rs::<name>`:\n{bare:#?}"
    );
}

#[test]
fn cited_design_sections_exist() {
    let root = repo_root();
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let titles = design_titles(&design);
    let mut texts: Vec<(String, String)> = sources(&root)
        .into_iter()
        .flat_map(|(path, text)| comment_blocks(&text).into_iter().map(move |c| (path.clone(), c)))
        .collect();
    for doc in ["DESIGN.md", "README.md", "EXPERIMENTS.md"] {
        texts.push((doc.to_string(), fs::read_to_string(root.join(doc)).expect("read doc")));
    }
    let mut cited = 0;
    let mut missing = BTreeSet::new();
    for (path, text) in &texts {
        for title in cited_titles(text) {
            cited += 1;
            if !titles.contains(title.as_str()) {
                missing.insert(format!("{path}: \"{title}\""));
            }
        }
    }
    assert!(cited >= 5, "only {cited} citations of DESIGN.md sections found; is the scan broken?");
    assert!(missing.is_empty(), "cited DESIGN.md sections that do not exist:\n{missing:#?}");
}

#[test]
fn tests_bare_names_and_wrapped_citations_are_found() {
    let source = "#[test]\n/// Doc.\n#[ignore]\nfn alpha_beta() {}\nproptest! {\n    #[test]\n    \
                  fn gamma(x in 0..3) {}\n}\n#[cfg(test)]\nfn helper() {}\n";
    assert_eq!(test_names(source), ["alpha_beta", "gamma"]);
    let tests: HashSet<&str> = ["alpha_beta", "gamma"].into();
    assert_eq!(bare_test_names("a.rs::alpha_beta, gamma and alpha_beta_x", &tests), ["gamma"]);
    assert!(bare_test_names("tests/gamma.rs and gamma/x", &tests).is_empty());
    assert!(bare_test_names("cargo test gamma", &tests).is_empty());
    let comments =
        comment_blocks("/// See DESIGN.md, \"Segment\n/// preallocation\", here.\nfn f() {}\n");
    assert_eq!(cited_titles(&comments[0]), ["Segment preallocation"]);
    let doc = "DESIGN.md (\"Ingest engine\"), DESIGN.md alone, DESIGN.md,\n\"Testing &\noracles\"";
    assert_eq!(cited_titles(doc), ["Ingest engine", "Testing & oracles"]);
    let doc = "## Ingest engine\n6. **Scaled volumes.** Text.\n- **Quarantine.** x\n**A**b **not**";
    let titles = design_titles(doc);
    assert_eq!(titles.len(), 4, "{titles:?}");
    for title in ["Ingest engine", "Scaled volumes", "Quarantine", "A"] {
        assert!(titles.contains(title), "{title} missing from {titles:?}");
    }
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
    assert!(references("HYBRID").is_empty() && references("Arc<T>").is_empty());
    assert_eq!(code_spans("a `b` c `d`\n```\n`e`\n```\n`f`"), ["b", "d", "f"]);
}

#[test]
fn a_lone_camel_case_name_must_exist() {
    let known: HashSet<&str> = identifiers("pub struct LogicalFeatures;").collect();
    let unknown = |span| references(span).into_iter().filter(|r| !known.contains(r)).count();
    assert_eq!(unknown("LogicalFeatures"), 0);
    assert_eq!(unknown("LogicalFeature"), 1, "a made-up type name must not resolve");
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
