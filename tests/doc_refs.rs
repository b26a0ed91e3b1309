//! The prose docs point into the code as `path/file.rs:NNN`. Code moves;
//! this keeps the cheap half of those references honest: every one must
//! name a file that exists and has at least `NNN` lines.

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
fn the_scanner_reads_paths_and_line_numbers() {
    let text = "see (`crates/core/src/engine.rs:355`) and src/bin/ibis.rs:58, not lib.rs: 7";
    assert_eq!(
        references(text),
        [("crates/core/src/engine.rs", 355), ("src/bin/ibis.rs", 58)]
    );
}
