//! The prose docs point into the code as `path/file.rs:NNN` or as a bare
//! `dir/file.rs`. Code moves; this keeps the cheap half of those
//! references honest: every one must name a file that exists, and one
//! with a line number a file of at least `NNN` lines.

use std::path::Path;

/// Every `path.rs:NNN` in `text`, as (path, line number).
fn references(text: &str) -> Vec<(&str, usize)> {
    let is_path = |c: char| c.is_ascii_alphanumeric() || "_./-".contains(c);
    let mut found = Vec::new();
    for (at, _) in text.match_indices(".rs:") {
        let start = text[..at]
            .rfind(|c| !is_path(c))
            .map_or(0, |before| before + 1);
        let digits = &text[at + 4..];
        let digits = &digits[..digits
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(digits.len())];
        if let Ok(line) = digits.parse() {
            found.push((&text[start..at + 3], line));
        }
    }
    found
}

/// Every backticked `dir/file.rs` in `text`: a code span that is one path,
/// with a directory and no line number.
fn bare_paths(text: &str) -> Vec<&str> {
    let is_path = |span: &str| {
        span.contains('/')
            && span.ends_with(".rs")
            && span
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_./-".contains(c))
    };
    // Odd pieces of a split on backticks are the code spans' contents.
    text.split('`')
        .skip(1)
        .step_by(2)
        .filter(|s| is_path(s))
        .collect()
}

#[test]
fn file_line_references_in_the_docs_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    let mut stale = Vec::new();
    for doc in ["ARCHITECTURE.md", "DESIGN.md", "README.md"] {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        for (path, line) in references(&text) {
            checked += 1;
            match std::fs::read_to_string(root.join(path)) {
                Err(_) => stale.push(format!("{doc}: {path}:{line} — no such file")),
                Ok(code) if code.lines().count() < line => {
                    stale.push(format!("{doc}: {path}:{line} — file is shorter"))
                }
                Ok(_) => {}
            }
        }
    }
    assert!(checked > 0, "the reference scanner found nothing to check");
    assert!(stale.is_empty(), "stale references:\n{}", stale.join("\n"));
}

#[test]
fn bare_paths_in_the_docs_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    let mut stale = Vec::new();
    for doc in ["ARCHITECTURE.md", "DESIGN.md", "README.md"] {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        for path in bare_paths(&text) {
            checked += 1;
            if !root.join(path).is_file() {
                stale.push(format!("{doc}: {path} — no such file"));
            }
        }
    }
    assert!(checked > 0, "the path scanner found nothing to check");
    assert!(stale.is_empty(), "stale paths:\n{}", stale.join("\n"));
}

#[test]
fn the_scanner_reads_paths_and_line_numbers() {
    let text = "see (`crates/core/src/engine.rs:355`) and src/bin/ibis.rs:58, not lib.rs: 7";
    assert_eq!(
        references(text),
        [("crates/core/src/engine.rs", 355), ("src/bin/ibis.rs", 58)]
    );
    let text = "`src/db.rs` and (`crates/x/src/a.rs`), not `a.rs`, `b.rs:3` or `ibis.rs — x/y.rs`";
    assert_eq!(bare_paths(text), ["src/db.rs", "crates/x/src/a.rs"]);
}
