//! # ibis-oracle
//!
//! A seeded differential + metamorphic correctness oracle for every access
//! method in the workspace.
//!
//! The paper's central claim is that all of its index families return the
//! *same* answer set under both missing-data semantics — they differ only in
//! cost. This crate turns that claim into an always-on adversarial test rig:
//!
//! * [`gen`] derives adversarial **datasets** (empty relation, one row,
//!   cardinality 1 and 65535, all-missing/no-missing columns, row counts
//!   straddling the 31-bit WAH group and 64-bit word boundaries) and
//!   adversarial **queries** (point, full-domain, boundary-touching, empty
//!   search key, all-attribute keys, plus deliberately malformed keys —
//!   inverted intervals, the `lo = 0` missing-sentinel collision,
//!   out-of-domain bounds, duplicate and out-of-range attributes) from a
//!   seed, deterministically;
//! * [`check`] executes each case through every registered
//!   [`AccessMethod`](ibis_core::AccessMethod) over every bit-store backend,
//!   at thread degrees {1, 3, 8} and after a persistence round-trip,
//!   asserting every answer equals the sequential-scan ground truth — and
//!   verifies the metamorphic identities (interval split, semantics
//!   bridge, row-permutation invariance). Malformed
//!   queries must be *rejected with an error*, never panic, never
//!   mis-answer;
//! * [`crash`] is the durability twin of the battery: one seeded workload
//!   written through the [`DurableDb`](ibis_storage::DurableDb) WAL, then
//!   killed at arbitrary byte offsets (frame boundaries, mid-frame, inside
//!   the header) and bit-flipped; every mangled copy must recover to its
//!   exact durable prefix — rows *and* work counters — at thread degrees
//!   {1, 8} under both semantics;
//! * [`stress`] is the concurrency twin: N reader threads race one writer
//!   through a precomputed mutation schedule on a snapshot-isolated
//!   [`ConcurrentDb`](ibis_storage::ConcurrentDb); every acquired
//!   snapshot must match its exact schedule prefix (watermark-indexed)
//!   bit-identically, at every thread degree, under both semantics;
//! * [`shrink`] minimizes a failing case (rows, columns, queries,
//!   predicates, interval bounds, cardinalities) while it still fails;
//! * [`corpus`] serializes minimized repros into `tests/regressions/`,
//!   where a tier-1 replay test re-runs them forever after.
//!
//! The [`run`] entry point drives the loop; the `ibis oracle` CLI
//! subcommand wraps it:
//!
//! ```text
//! cargo run -p ibis --bin ibis -- oracle --cases 500 --seed 1
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod check;
pub mod corpus;
pub mod crash;
pub mod gen;
pub mod registry;
pub mod shrink;
pub mod stress;

mod workload;

pub use check::{CaseResult, Failure};
pub use crash::{CrashConfig, CrashReport};
pub use gen::{Case, RawPred, RawQuery};
pub use stress::{StressConfig, StressReport};

use std::path::PathBuf;

/// Configuration for one oracle run.
#[derive(Clone, Debug)]
pub struct OracleConfig {
    /// Number of generated cases to execute.
    pub cases: usize,
    /// Master seed; the same `(seed, cases)` pair replays identically.
    pub seed: u64,
    /// Directory minimized repros are written to (`tests/regressions/` in
    /// the CLI); `None` skips writing.
    pub corpus_dir: Option<PathBuf>,
    /// Stop after this many failing cases (each is shrunk and recorded).
    pub max_failures: usize,
    /// Budget of extra case executions the shrinker may spend per failure.
    pub shrink_budget: usize,
    /// Wall-clock budget per case in milliseconds; a case that takes longer
    /// is reported as a `budget/case-wall-time` failure (unshrunk — the
    /// shrinker would replay the slow case hundreds of times).
    pub case_budget_ms: u64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            cases: 200,
            seed: 1,
            corpus_dir: None,
            max_failures: 3,
            shrink_budget: 300,
            case_budget_ms: ibis_core::QUERY_BUDGET_MS,
        }
    }
}

/// One failing case, minimized.
#[derive(Debug)]
pub struct FoundBug {
    /// Index of the generated case that failed.
    pub case_idx: usize,
    /// The first failure the minimized case still exhibits.
    pub failure: Failure,
    /// The minimized case itself.
    pub minimized: Case,
    /// Where the repro was written, when a corpus directory was configured.
    pub repro_path: Option<PathBuf>,
}

/// Outcome of an oracle run.
#[derive(Debug, Default)]
pub struct OracleReport {
    /// Cases executed (may stop early at `max_failures`).
    pub cases_run: usize,
    /// Individual assertions evaluated across all cases.
    pub checks_run: u64,
    /// Failing cases, minimized.
    pub bugs: Vec<FoundBug>,
    /// Per-case wall time in milliseconds (also exported to the process
    /// metrics as the `oracle.case_ms` histogram).
    pub case_ms: ibis_obs::Histogram,
    /// The slowest cases: `(case index, milliseconds)`, slowest first,
    /// at most five entries.
    pub slowest: Vec<(usize, u64)>,
}

impl OracleReport {
    /// `true` when every case passed every check.
    pub fn ok(&self) -> bool {
        self.bugs.is_empty()
    }

    /// One-line timing summary over all executed cases.
    pub fn timing_summary(&self) -> String {
        let h = self.case_ms.snapshot();
        format!(
            "case wall time: p50 {} ms, p90 {} ms, p99 {} ms, max {} ms over {} cases",
            h.p50(),
            h.p90(),
            h.p99(),
            h.max,
            h.count
        )
    }
}

/// Runs `cfg.cases` generated cases; on failure, shrinks to a minimal repro
/// and (when configured) writes it to the corpus directory.
///
/// While the run is active the global panic hook is silenced: the checker
/// converts panics into failures via `catch_unwind`, and the shrinker may
/// re-trigger the same panic hundreds of times. The previous hook is
/// restored on return.
pub fn run(cfg: &OracleConfig) -> OracleReport {
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = run_inner(cfg);
    std::panic::set_hook(prev_hook);
    report
}

fn run_inner(cfg: &OracleConfig) -> OracleReport {
    let mut report = OracleReport::default();
    for idx in 0..cfg.cases {
        let case = gen::gen_case(cfg.seed, idx);
        let started = std::time::Instant::now();
        let result = check::check_case(&case);
        let elapsed_ms = started.elapsed().as_millis().min(u64::MAX as u128) as u64;
        ibis_obs::observe("oracle.case_ms", elapsed_ms);
        report.case_ms.record(elapsed_ms);
        report.slowest.push((idx, elapsed_ms));
        report
            .slowest
            .sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        report.slowest.truncate(5);
        report.cases_run += 1;
        report.checks_run += result.checks;
        if elapsed_ms > cfg.case_budget_ms {
            // A blown wall-clock budget is a finding in its own right, but
            // shrinking would replay the slow case over and over — report
            // the case as-is instead.
            report.bugs.push(FoundBug {
                case_idx: idx,
                failure: Failure {
                    check: "budget/case-wall-time".to_string(),
                    detail: format!(
                        "case {idx} took {elapsed_ms} ms, budget {} ms",
                        cfg.case_budget_ms
                    ),
                },
                minimized: case,
                repro_path: None,
            });
            if report.bugs.len() >= cfg.max_failures {
                break;
            }
            continue;
        }
        if result.failures.is_empty() {
            continue;
        }
        let mut budget = cfg.shrink_budget;
        let minimized = shrink::shrink(&case, &mut budget);
        let failure = check::check_case(&minimized)
            .failures
            .into_iter()
            .next()
            .unwrap_or_else(|| result.failures.into_iter().next().expect("case failed"));
        let repro_path = cfg.corpus_dir.as_ref().and_then(|dir| {
            let name = format!("oracle-{}-{idx}.repro", cfg.seed);
            let path = dir.join(name);
            let text = corpus::format_repro(&minimized, &failure);
            std::fs::create_dir_all(dir).ok()?;
            std::fs::write(&path, text).ok()?;
            Some(path)
        });
        report.bugs.push(FoundBug {
            case_idx: idx,
            failure,
            minimized,
            repro_path,
        });
        if report.bugs.len() >= cfg.max_failures {
            break;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_is_clean_and_deterministic() {
        let cfg = OracleConfig {
            cases: 6,
            seed: 99,
            ..OracleConfig::default()
        };
        let a = run(&cfg);
        assert!(a.ok(), "unexpected failures: {:?}", a.bugs);
        let b = run(&cfg);
        assert_eq!(a.checks_run, b.checks_run, "run is not deterministic");
        assert!(a.checks_run > 0);
        // Timing is recorded for every executed case.
        assert_eq!(a.case_ms.count() as usize, a.cases_run);
        assert!(!a.slowest.is_empty() && a.slowest.len() <= 5);
        assert!(a.timing_summary().contains("case wall time"));
    }

    #[test]
    fn blown_case_budget_is_a_named_failure() {
        let cfg = OracleConfig {
            cases: 4,
            seed: 99,
            case_budget_ms: 0, // everything that takes a measurable >0 ms blows it
            ..OracleConfig::default()
        };
        let report = run(&cfg);
        assert!(!report.ok(), "a zero budget must trip");
        for bug in &report.bugs {
            assert_eq!(bug.failure.check, "budget/case-wall-time");
            assert!(
                bug.failure.detail.contains("budget 0 ms"),
                "{:?}",
                bug.failure
            );
            assert!(bug.repro_path.is_none(), "budget breaches are not shrunk");
        }
    }
}
