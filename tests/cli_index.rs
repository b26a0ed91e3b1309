//! The `ibis` binary end to end: `generate` → `index` for every encoding and
//! backend → `query --index --count` agrees with the index-free answer under
//! both semantics, and every kind of damaged index file is a runtime error
//! (exit 1, a message on stderr) — never a panic (exit 101).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const QUERY: &str = "census_15_c50 between 10 and 30 and census_47_c110 between 1 and 55";

fn ibis(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ibis"))
        .args(args)
        .output()
        .expect("the ibis binary runs")
}

fn ok(args: &[&str]) -> String {
    let out = ibis(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "ibis {args:?} failed: {stderr}");
    String::from_utf8(out.stdout).unwrap()
}

/// Runs a command that must fail with `code` and say why.
fn fails(args: &[&str], code: i32) -> String {
    let out = ibis(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(code), "ibis {args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "ibis {args:?}: {stderr}");
    stderr
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ibis_cli_index_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn generate(dir: &Path, name: &str, rows: &str) -> String {
    let data = dir.join(name).to_string_lossy().into_owned();
    let kind = ["generate", "--kind", "census", "--seed", "5"];
    ok(&[&kind[..], &["--rows", rows, "--out", &data]].concat());
    data
}

/// `QUERY`'s count under both policies, through `index` when given.
fn counts(data: &str, index: Option<&str>) -> [String; 2] {
    let mut args = vec!["query", data, QUERY, "--count"];
    if let Some(index) = index {
        args.extend(["--index", index]);
    }
    let is_match = ok(&args);
    args.push("--not-match");
    [is_match, ok(&args)]
}

#[test]
fn every_encoding_and_backend_answers_like_the_scan_through_the_cli() {
    let dir = scratch("product");
    let data = generate(&dir, "d.ibds", "600");
    let truth = counts(&data, None);
    assert_ne!(truth[0], truth[1], "the query must tell the policies apart");

    for encoding in ["bee", "bre", "bie", "dec", "adaptive"] {
        for backend in ["wah", "bbc", "plain", "adaptive"] {
            let idx = dir.join(format!("d.{encoding}.{backend}"));
            let idx = idx.to_string_lossy().into_owned();
            let build = ["index", &data, "--encoding", encoding, "--backend", backend];
            let build = [&build[..], &["--out", &idx]].concat();
            if encoding == "adaptive" && backend != "adaptive" {
                // `adaptive` names an (encoding, backend) pair already.
                fails(&build, 2);
                continue;
            }
            ok(&build);
            assert_eq!(
                counts(&data, Some(&idx)),
                truth,
                "{encoding} over {backend}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn damaged_index_files_are_runtime_errors_never_panics() {
    let dir = scratch("damage");
    let data = generate(&dir, "d.ibds", "300");
    let good = dir.join("good.idx").to_string_lossy().into_owned();
    ok(&["index", &data, "--encoding", "bre", "--out", &good]);
    let bytes = std::fs::read(&good).unwrap();
    // magic(4) version(2) backend-name length(8) backend name …
    assert_eq!((&bytes[..4], &bytes[14..17]), (&b"IBRE"[..], &b"wah"[..]));

    let query_with = |name: &str, image: &[u8]| {
        let path = dir.join(name).to_string_lossy().into_owned();
        std::fs::write(&path, image).unwrap();
        fails(&["query", &data, QUERY, "--index", &path, "--count"], 1)
    };

    let mut wrong_magic = bytes.clone();
    wrong_magic[..4].copy_from_slice(b"IBXX");
    let msg = query_with("magic.idx", &wrong_magic);
    assert!(msg.contains("unrecognized index magic"), "{msg}");

    let mut wrong_backend = bytes.clone();
    wrong_backend[14..17].copy_from_slice(b"zzz");
    let msg = query_with("backend.idx", &wrong_backend);
    assert!(msg.contains("\"zzz\""), "{msg}");

    query_with("truncated.idx", &bytes[..bytes.len() / 2]);
    query_with("stub.idx", &bytes[..3]);

    // The backend-name length field claims 2^64 − 1 bytes: `14 + len`
    // used to wrap and slice out of bounds.
    let mut hostile = bytes.clone();
    hostile[6..14].fill(0xFF);
    let msg = query_with("hostile.idx", &hostile);
    assert!(msg.contains("backend name length"), "{msg}");

    // A sound index over some other dataset.
    let other = generate(&dir, "other.ibds", "200");
    let foreign = dir.join("foreign.idx").to_string_lossy().into_owned();
    ok(&["index", &other, "--encoding", "bre", "--out", &foreign]);
    let msg = fails(&["query", &data, QUERY, "--index", &foreign, "--count"], 1);
    assert!(msg.contains("covers 200 rows"), "{msg}");

    std::fs::remove_dir_all(&dir).ok();
}
