//! Every repository path the user-facing docs name must exist.
//!
//! Scans `README.md`, `DESIGN.md`, `EXPERIMENTS.md` and `docs/*.md` (not
//! the changelogs or the roadmap, which record history) for two kinds of
//! token:
//!
//! * a path: a maximal run of path characters that starts with one of
//!   [`ROOTS`] and ends in one of [`EXTENSIONS`], resolved from the
//!   repository root;
//! * a bare file name in backticks, such as `` `BENCHMARK.json` ``, also
//!   resolved from the repository root.

use std::fs;
use std::path::{Path, PathBuf};

const ROOTS: [&str; 7] = [
    "crates/",
    "tests/",
    "benchmark/",
    "examples/",
    "compat/",
    "docs/",
    "src/",
];
const EXTENSIONS: [&str; 5] = [".rs", ".md", ".json", ".toml", ".yml"];
const BARE_EXTENSIONS: [&str; 4] = [".json", ".md", ".toml", ".yml"];

fn is_path_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | '/')
}

/// The path tokens of one line.
fn paths(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c| !is_path_char(c))
        .map(|token| token.trim_end_matches('.'))
        .filter(|token| ROOTS.iter().any(|root| token.starts_with(root)))
        .filter(|token| EXTENSIONS.iter().any(|ext| token.ends_with(ext)))
}

/// The backticked bare file names of one line.
fn bare_names(line: &str) -> impl Iterator<Item = &str> {
    line.split('`')
        .skip(1)
        .step_by(2)
        .filter(|span| !span.is_empty() && span.chars().all(|c| is_path_char(c) && c != '/'))
        .filter(|span| BARE_EXTENSIONS.iter().any(|ext| span.ends_with(ext)))
}

fn scanned_docs(root: &Path) -> Vec<PathBuf> {
    let mut docs: Vec<PathBuf> = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
        .iter()
        .map(|name| root.join(name))
        .collect();
    let mut under_docs: Vec<PathBuf> = fs::read_dir(root.join("docs"))
        .expect("read docs/")
        .map(|entry| entry.expect("docs/ entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "md"))
        .collect();
    under_docs.sort();
    docs.extend(under_docs);
    docs
}

#[test]
fn every_path_named_in_the_docs_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut named = 0;
    let mut missing = Vec::new();
    for doc in scanned_docs(root) {
        let text = fs::read_to_string(&doc).expect("read doc");
        let name = doc.strip_prefix(root).expect("doc under root").display();
        for (i, line) in text.lines().enumerate() {
            for token in paths(line).chain(bare_names(line)) {
                named += 1;
                if !root.join(token).exists() {
                    missing.push(format!("{name}:{}: {token}", i + 1));
                }
            }
        }
    }
    assert!(named > 0, "the scan found no path at all");
    assert!(
        missing.is_empty(),
        "docs name paths that do not exist:\n{}",
        missing.join("\n")
    );
}
