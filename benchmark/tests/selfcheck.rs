//! The benchmark checked against its own contract: `BENCHMARK.json` and the
//! program name the same things, every name comes out exactly once, the
//! driver's limits hold, and counts repeat. Run with
//! `cargo test --release --manifest-path benchmark/Cargo.toml`: the runs need
//! an optimised build, which the program itself insists on.

use ibis_benchmark::json::Json;
use ibis_benchmark::spec::{self, Check};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_ibis-benchmark");

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<String> {
    let items = list.as_arr().expect("a list");
    items
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn keys(obj: &Json) -> Vec<&str> {
    obj.as_obj()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect()
}

fn is_name(s: &str) -> bool {
    let first = s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
    first
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_meets_the_contract_and_names_what_the_program_names() {
    let b = benchmark_json();
    assert_eq!(
        keys(&b),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );

    let paths = names_of_strings(b.get("paths").unwrap());
    assert_eq!(paths, ["benchmark"]);
    let command = names_of_strings(b.get("command").unwrap());
    assert!(command.len() <= 32 && command.iter().all(|a| a.len() <= 200));
    for arg in &command {
        assert!(
            !arg.starts_with('/') && !arg.contains(".."),
            "{arg} leaves the checkout"
        );
        if arg.contains('/') {
            assert!(arg.starts_with("benchmark/"), "{arg} is outside `paths`");
        }
    }
    let seconds = b.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    assert_eq!(seconds, spec::RUN_SECONDS);

    // Workloads: the program's, with its reasons.
    let workloads = b.get("workloads").unwrap().as_arr().unwrap();
    assert!((2..=8).contains(&workloads.len()));
    assert_eq!(workloads.len(), spec::WORKLOADS.len());
    for (listed, ours) in workloads.iter().zip(&spec::WORKLOADS) {
        assert_eq!(keys(listed), ["name", "why"]);
        assert_eq!(listed.get("name").and_then(Json::as_str), Some(ours.name));
        let why = listed.get("why").and_then(Json::as_str).unwrap();
        assert_eq!(why, ours.why);
        assert!(why.len() <= 200 && !why.contains('\n'));
    }
    // All runs, set-up and two builds, within the driver's 3,420 s, even if
    // every run were a traced one: those spend up to 11 s outside their
    // phases (set-ups, truth, warm-up, probes), and a build takes under
    // 150 s (CALIBRATION.md has both as measured).
    let runs = 4.0 + 22.0 * workloads.len() as f64;
    assert!(
        runs * (seconds + 11.0) + 300.0 <= 3420.0,
        "the runs cannot fit the driver's budget"
    );

    // End-to-end: the program's names, units, directions and bounds.
    let e2e = b.get("end_to_end").unwrap().as_arr().unwrap();
    let ours = spec::end_to_end();
    assert!((1..=16).contains(&e2e.len()));
    assert_eq!(
        names(b.get("end_to_end").unwrap()),
        ours.iter().map(|m| m.name.clone()).collect::<Vec<_>>()
    );
    for (listed, ours) in e2e.iter().zip(&ours) {
        assert_eq!(keys(listed), ["better", "bound", "name", "unit"]);
        assert_eq!(listed.get("unit").and_then(Json::as_str), Some(ours.unit));
        let better = if ours.better == spec::Better::Lower {
            "lower"
        } else {
            "higher"
        };
        assert_eq!(listed.get("better").and_then(Json::as_str), Some(better));
        let bound = listed.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", ours.name);
        match ours.check {
            Check::Share(share) => assert_eq!(bound, share, "{}", ours.name),
            // The file cannot say "exact"; it gives such a metric 1%.
            Check::Exact => assert!(bound <= 0.01, "{}", ours.name),
            other => panic!("{}: {other:?} cannot be an end-to-end check", ours.name),
        }
    }
    let setup = e2e
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        .unwrap();
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));

    // Per-layer: the workload-specific user-facing metrics, then the layers'.
    let per_layer = b.get("per_layer").unwrap().as_arr().unwrap();
    let ours = spec::per_layer_set();
    assert!((1..=128).contains(&per_layer.len()));
    assert_eq!(
        names(b.get("per_layer").unwrap()),
        ours.iter().map(|m| m.name.clone()).collect::<Vec<_>>()
    );
    for (listed, ours) in per_layer.iter().zip(&ours) {
        assert_eq!(keys(listed), ["better", "name", "unit"]);
        assert_eq!(listed.get("unit").and_then(Json::as_str), Some(ours.unit));
    }

    // Every name and unit is well-formed and no name is used twice.
    let mut seen = BTreeSet::new();
    for list in ["workloads", "end_to_end", "per_layer"] {
        for item in b.get(list).unwrap().as_arr().unwrap() {
            let name = item.get("name").and_then(Json::as_str).unwrap();
            assert!(is_name(name), "{name} is not a valid name");
            assert!(seen.insert(name.to_string()), "{name} is used twice");
            if let Some(unit) = item.get("unit").and_then(Json::as_str) {
                assert!(is_unit(unit), "{unit} is not a valid unit");
            }
        }
    }
}

fn names_of_strings(list: &Json) -> Vec<String> {
    let items = list.as_arr().expect("a list");
    items
        .iter()
        .map(|s| s.as_str().expect("a string").to_string())
        .collect()
}

fn out_dir(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("selfcheck-{tag}"))
}

/// One smoke run as the driver makes it; returns the last line, parsed.
fn driver_run(workload: &str, trace: u8, tag: &str) -> Json {
    let out = Command::new(BIN)
        .args([
            "--smoke",
            "--workload",
            workload,
            "--seed",
            "42",
            "--seconds",
            "1",
        ])
        .args(["--trace", &trace.to_string()])
        .arg("--out")
        .arg(out_dir(tag))
        .output()
        .expect("the benchmark starts");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let line = Json::parse(stdout.lines().last().expect("some output")).expect("a JSON last line");
    assert_eq!(keys(&line), ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(
        line.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: wrong answers"
    );
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    line
}

fn value(line: &Json, metric: &str) -> f64 {
    let m = line
        .get("metrics")
        .and_then(|m| m.get(metric))
        .expect("the metric is reported");
    m.get("value")
        .and_then(Json::as_f64)
        .expect("a numeric value")
}

#[test]
fn every_name_is_reported_once_per_run_and_counts_repeat() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: the benchmark refuses to measure a debug build; use --release");
        return;
    }
    let e2e = spec::end_to_end();
    let layers = spec::per_layer_set();
    for w in &spec::WORKLOADS {
        // Untraced: exactly the end-to-end names, none of them zero.
        let line = driver_run(w.name, 0, "untraced");
        let expected: Vec<&str> = e2e.iter().map(|m| m.name.as_str()).collect();
        let mut sorted = expected.clone();
        sorted.sort_unstable();
        assert_eq!(keys(line.get("metrics").unwrap()), sorted, "{}", w.name);
        for name in expected {
            assert!(value(&line, name) > 0.0, "{}: {name} is zero", w.name);
        }

        // Traced, twice: exactly the per-layer names; counts identical.
        let (first, second) = (
            driver_run(w.name, 1, "traced-a"),
            driver_run(w.name, 1, "traced-b"),
        );
        let mut sorted: Vec<&str> = layers.iter().map(|m| m.name.as_str()).collect();
        sorted.sort_unstable();
        assert_eq!(keys(first.get("metrics").unwrap()), sorted, "{}", w.name);
        for m in layers.iter().filter(|m| m.check == Check::Exact) {
            let (a, b) = (value(&first, &m.name), value(&second, &m.name));
            assert_eq!(
                a, b,
                "{}: {} is marked exact but did not repeat",
                w.name, m.name
            );
        }
        for name in w.specific {
            assert!(
                value(&first, name) > 0.0,
                "{}: {name} is this workload's to measure",
                w.name
            );
        }

        // Layer isolation, as the workloads were designed.
        let plan: f64 = spec::PLAN_CLASSES
            .iter()
            .map(|c| value(&first, &format!("storage.plan_share.{c}")))
            .sum();
        assert!(
            (plan - 1.0).abs() < 1e-9,
            "{}: plan shares sum to {plan}",
            w.name
        );
        let fsyncs = value(&first, "storage.wal.fsyncs_per_insert");
        match w.name {
            "paper_mixed" | "compact_count" => {
                assert_eq!(value(&first, "storage.shards_executed_per_query"), 1.0);
                assert_eq!(fsyncs, 0.0, "{}: the WAL should idle", w.name);
            }
            "sharded_semantics" => {
                assert!(value(&first, "storage.pruned_share.match") < 0.01);
                assert!(value(&first, "storage.pruned_share.notmatch") > 0.5);
            }
            "ingest_while_query" => assert_eq!(fsyncs, 1.0),
            _ => {}
        }
    }
}

#[test]
fn the_whole_command_writes_a_result_that_compares_equal_to_itself() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: the benchmark refuses to measure a debug build; use --release");
        return;
    }
    let dir = out_dir("all");
    let out = Command::new(BIN)
        .args(["--smoke", "--seed", "7", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = Json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(
        last.get("claim"),
        Some(&Json::Null),
        "this benchmark claims no gain"
    );

    let path = dir.join("result.json");
    let result = Json::parse(&std::fs::read_to_string(&path).unwrap()).expect("result.json parses");
    assert_eq!(result.get("claim"), Some(&Json::Null));
    for key in [
        "nproc",
        "kernel_name",
        "rustc",
        "git_commit",
        "seed",
        "default_degree",
        "wal_flush_policy",
    ] {
        assert!(
            result.get("env").unwrap().get(key).is_some(),
            "env lacks {key}"
        );
    }
    let layers = spec::per_layer_set().len();
    for w in &spec::WORKLOADS {
        let entry = result
            .get("workloads")
            .unwrap()
            .get(w.name)
            .expect("every workload is there");
        assert_eq!(
            keys(entry.get("threads").expect("thread counts per workload")),
            ["connections", "engine_threads", "load_threads"]
        );
        assert_eq!(
            entry.get("end_to_end").unwrap().as_obj().unwrap().len(),
            spec::end_to_end().len()
        );
        assert_eq!(
            entry.get("per_layer").unwrap().as_obj().unwrap().len(),
            layers
        );
        // The traced pass accounts for the time it spans.
        let spans = entry.get("trace").unwrap().as_obj().expect("span totals");
        assert!(
            spans.contains_key("request"),
            "{}: no request spans",
            w.name
        );
    }
    // No database directory is left behind.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(
            name.ends_with(".json"),
            "{name} was left in the output directory"
        );
    }

    let same = Command::new(BIN)
        .arg("compare")
        .arg(&path)
        .arg(&path)
        .output()
        .unwrap();
    let table = String::from_utf8(same.stdout).unwrap();
    assert!(
        same.status.success(),
        "a result compared with itself got worse:\n{table}"
    );
    assert!(
        !table.contains(" worse") && !table.contains(" better"),
        "{table}"
    );
    for w in &spec::WORKLOADS {
        let rows = table.lines().filter(|l| l.starts_with(w.name)).count();
        let expected = spec::end_to_end().len() + spec::COMMON_SPECIFIC.len() + w.specific.len();
        assert_eq!(rows, expected, "{}: one row per user-facing metric", w.name);
    }
}
