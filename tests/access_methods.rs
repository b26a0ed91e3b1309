//! Engine-layer conformance suite: every [`AccessMethod`] registered in the
//! workspace runs the same randomized query matrix — both missing-data
//! semantics × {0, 10, 30, 50}% missing × MAR/MNAR mechanisms — and must
//! return exactly the scan ground truth. This replaces the old per-index
//! differential tests: indexes are exercised only through the common trait,
//! so a method that joins the registry is conformance-tested for free.

use ibis::core::gen::missingness::{impose_mar, impose_mnar};
use ibis::core::gen::{census_scaled, uniform_column, workload, QuerySpec};
use ibis::core::parallel::threads_started_here;
use ibis::core::scan;
use ibis::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

/// Every access method in the workspace — every bitmap encoding over every
/// backend, the VA-files and the baselines — as the oracle registers them.
fn registry(d: &Arc<Dataset>) -> Vec<Box<dyn AccessMethod>> {
    ibis::oracle::registry::methods_and_roundtripped(d).0
}

/// A complete uniform relation, small enough in dimensionality that the
/// `2^k`-expanding tree baselines stay tractable.
fn complete_base(n_rows: usize, n_attrs: usize, cardinality: u16, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    Dataset::new(
        (0..n_attrs)
            .map(|i| uniform_column(&format!("a{i}"), n_rows, cardinality, 0.0, &mut rng))
            .collect(),
    )
    .unwrap()
}

/// Imposes roughly `rate` missingness on every attribute through a
/// non-ignorable mechanism: MAR (driven by the next attribute's observed
/// value) or MNAR (driven by the cell's own value).
fn impose(base: &Dataset, mechanism: &str, rate: f64, seed: u64) -> Dataset {
    if rate == 0.0 {
        return base.clone();
    }
    let n = base.n_attrs();
    let mut d = base.clone();
    for target in 0..n {
        d = match mechanism {
            "mar" => {
                let driver = (target + 1) % n;
                impose_mar(
                    &d,
                    target,
                    driver,
                    (rate * 0.5).min(1.0),
                    (rate * 1.5).min(1.0),
                    seed + target as u64,
                )
            }
            "mnar" => impose_mnar(&d, target, (rate * 2.0).min(1.0), seed + target as u64),
            other => panic!("unknown mechanism {other}"),
        };
    }
    d
}

/// One dataset's worth of the matrix: every method × both policies × a
/// randomized workload, checked against the scan, plus the count entry
/// point and `execute_into` at a non-zero base.
fn conformance_pass(d: &Arc<Dataset>, ctx: &str, seed: u64) {
    let methods = registry(d);
    for policy in MissingPolicy::ALL {
        let spec = QuerySpec {
            n_queries: 4,
            k: 3,
            global_selectivity: 0.05,
            policy,
            candidate_attrs: vec![],
        };
        let queries = workload(d, &spec, seed);
        for m in &methods {
            for (qi, q) in queries.iter().enumerate() {
                if !m.supports(q) {
                    // The rejected in-band encoders hardwire one policy and
                    // must refuse (not mis-answer) the other.
                    assert!(
                        m.execute(q).is_err(),
                        "{} claims no support for {policy} yet answered ({ctx})",
                        m.name()
                    );
                    continue;
                }
                let truth = scan::execute(d, q);
                assert_eq!(
                    m.execute(q).unwrap(),
                    truth,
                    "{} {policy} q{qi} ({ctx})",
                    m.name()
                );
                assert_eq!(
                    m.execute_count(q).unwrap(),
                    truth.len(),
                    "{} count {policy} q{qi} ({ctx})",
                    m.name()
                );
                // Parallel execution is an implementation detail: for every
                // degree, both the rows AND the merged work counters must be
                // bit-identical to the sequential run.
                // Nor does a warmed degree start a thread: every fan-out runs
                // on the pool's parked workers.
                let (seq_rows, seq_cost) = m.execute_with_cost(q).unwrap();
                for threads in [3usize, 8] {
                    m.execute_with_cost_threads(q, threads).unwrap();
                    let started = threads_started_here();
                    let (par_rows, par_cost) = m.execute_with_cost_threads(q, threads).unwrap();
                    assert_eq!(
                        threads_started_here(),
                        started,
                        "{} started a thread at t={threads} {policy} q{qi} ({ctx})",
                        m.name()
                    );
                    assert_eq!(
                        par_rows,
                        seq_rows,
                        "{} rows diverge at t={threads} {policy} q{qi} ({ctx})",
                        m.name()
                    );
                    assert_eq!(
                        par_cost,
                        seq_cost,
                        "{} counters diverge at t={threads} {policy} q{qi} ({ctx})",
                        m.name()
                    );
                }
                // The one execute every family implements: written after a
                // caller's prefix at a shard-like base, at every degree, it
                // appends the sequential rows shifted by the base and
                // reports the sequential counters.
                const BASE: u32 = 1 << 20;
                let prefix = [2u32, 9];
                let mut expect = prefix.to_vec();
                expect.extend(seq_rows.iter().map(|row| row + BASE));
                for threads in [1usize, 3, 8] {
                    let mut out = prefix.to_vec();
                    let cost = m.execute_into(q, threads, BASE, &mut out).unwrap();
                    assert_eq!(
                        out,
                        expect,
                        "{} ids at base diverge at t={threads} {policy} q{qi} ({ctx})",
                        m.name()
                    );
                    assert_eq!(
                        cost,
                        seq_cost,
                        "{} counters at base diverge at t={threads} {policy} q{qi} ({ctx})",
                        m.name()
                    );
                }
            }
        }
    }
}

#[test]
fn matrix_mar() {
    let base = complete_base(400, 5, 12, 301);
    for (i, rate) in [0.0, 0.10, 0.30, 0.50].into_iter().enumerate() {
        let d = Arc::new(impose(&base, "mar", rate, 310 + i as u64));
        conformance_pass(&d, &format!("mar {rate}"), 320 + i as u64);
    }
}

#[test]
fn matrix_mnar() {
    let base = complete_base(400, 5, 12, 401);
    for (i, rate) in [0.0, 0.10, 0.30, 0.50].into_iter().enumerate() {
        let d = Arc::new(impose(&base, "mnar", rate, 410 + i as u64));
        conformance_pass(&d, &format!("mnar {rate}"), 420 + i as u64);
    }
}

#[test]
fn census_skew_conformance() {
    // The skewed census stand-in exercises high-cardinality and
    // high-missing attributes; 5 low-dimensional columns keep the
    // 2^k tree baselines tractable.
    let full = census_scaled(500, 103);
    let cols: Vec<Column> = (0..5).map(|a| full.column(a * 9 + 1).clone()).collect();
    let d = Arc::new(Dataset::new(cols).unwrap());
    conformance_pass(&d, "census", 501);
}

#[test]
fn extreme_ranges_across_methods() {
    let d = Arc::new(complete_base(300, 4, 9, 601));
    let d = Arc::new(impose(&d, "mnar", 0.25, 602));
    let methods = registry(&d);
    for policy in MissingPolicy::ALL {
        for attr in 0..2usize {
            let c = d.column(attr).cardinality();
            // Full domain, prefix, suffix, singleton-at-max.
            for (lo, hi) in [(1, c), (1, 1.max(c / 2)), (c.div_ceil(2).max(1), c), (c, c)] {
                let q = RangeQuery::new(vec![Predicate::range(attr, lo, hi)], policy).unwrap();
                let truth = scan::execute(&d, &q);
                for m in &methods {
                    if !m.supports(&q) {
                        continue;
                    }
                    assert_eq!(
                        m.execute(&q).unwrap(),
                        truth,
                        "{} {policy} a{attr} [{lo},{hi}]",
                        m.name()
                    );
                }
            }
        }
    }
}

#[test]
fn reordered_rows_preserve_answers_across_methods() {
    use ibis::bitmap::reorder;
    let d = census_scaled(350, 111);
    let order = reorder::cardinality_ascending_order(&d);
    let perm = reorder::lexicographic(&d, &order[..6]);
    let p = Arc::new(d.permute_rows(&perm));
    let methods: Vec<Box<dyn AccessMethod>> = vec![
        Box::new(EqualityBitmapIndex::<Wah>::build(&p)),
        Box::new(VaFile::build(&p).bind(Arc::clone(&p))),
    ];
    for policy in MissingPolicy::ALL {
        let spec = QuerySpec {
            n_queries: 5,
            k: 3,
            global_selectivity: 0.05,
            policy,
            candidate_attrs: vec![],
        };
        for q in workload(&d, &spec, 212) {
            let truth = scan::execute(&d, &q);
            for m in &methods {
                let got = reorder::map_rows(&m.execute(&q).unwrap(), &perm);
                assert_eq!(got, truth, "{} {policy} after reorder", m.name());
            }
        }
    }
}

#[test]
fn lossy_va_files_stay_exact() {
    let d = Arc::new(census_scaled(600, 113));
    for bits in [1u8, 2, 3] {
        let widths = vec![bits; d.n_attrs()];
        let methods: Vec<Box<dyn AccessMethod>> = vec![
            Box::new(VaFile::with_bits(&d, &widths).bind(Arc::clone(&d))),
            Box::new(VaPlusFile::with_bits(&d, &widths).bind(Arc::clone(&d))),
        ];
        for policy in MissingPolicy::ALL {
            let spec = QuerySpec {
                n_queries: 4,
                k: 3,
                global_selectivity: 0.05,
                policy,
                candidate_attrs: vec![],
            };
            for q in workload(&d, &spec, 214 + bits as u64) {
                let truth = scan::execute(&d, &q);
                for m in &methods {
                    assert_eq!(
                        m.execute(&q).unwrap(),
                        truth,
                        "{policy} {} {bits}b",
                        m.name()
                    );
                }
            }
        }
    }
}

#[test]
fn interval_split_metamorphic_property() {
    // result([v1, v2]) == result([v1, m]) ∪ result([m+1, v2]) for every
    // split point, on every bitmap encoding — a metamorphic check that
    // interval evaluation composes.
    let d = Arc::new(census_scaled(300, 121));
    let attr = (0..d.n_attrs())
        .find(|&a| d.column(a).cardinality() >= 8)
        .unwrap();
    let c = d.column(attr).cardinality();
    let (v1, v2) = (2u16, c - 1);
    let methods: Vec<Box<dyn AccessMethod>> = vec![
        Box::new(EqualityBitmapIndex::<Wah>::build(&d)),
        Box::new(RangeBitmapIndex::<Wah>::build(&d)),
        Box::new(IntervalBitmapIndex::<Wah>::build(&d)),
    ];
    for policy in MissingPolicy::ALL {
        let whole = RangeQuery::new(vec![Predicate::range(attr, v1, v2)], policy).unwrap();
        for m in v1..v2 {
            let left = RangeQuery::new(vec![Predicate::range(attr, v1, m)], policy).unwrap();
            let right = RangeQuery::new(vec![Predicate::range(attr, m + 1, v2)], policy).unwrap();
            for method in &methods {
                let union = method
                    .execute(&left)
                    .unwrap()
                    .union(&method.execute(&right).unwrap());
                assert_eq!(
                    union,
                    method.execute(&whole).unwrap(),
                    "{} {policy} split at {m}",
                    method.name()
                );
            }
        }
    }
}

#[test]
fn policy_difference_is_exactly_the_missing_rows() {
    // match-results \ not-match-results must be precisely the rows with at
    // least one missing queried attribute that otherwise match.
    let d = census_scaled(400, 123);
    let bre = RangeBitmapIndex::<Wah>::build(&d);
    let spec = QuerySpec {
        n_queries: 10,
        k: 3,
        global_selectivity: 0.05,
        policy: MissingPolicy::IsMatch,
        candidate_attrs: vec![],
    };
    for q in workload(&d, &spec, 124) {
        let loose = bre.execute(&q).unwrap();
        let strict = bre
            .execute(&q.with_policy(MissingPolicy::IsNotMatch))
            .unwrap();
        let extra = loose.difference(&strict);
        for r in extra.iter() {
            let has_missing_queried = q
                .predicates()
                .iter()
                .any(|p| d.cell(r as usize, p.attr).is_missing());
            assert!(
                has_missing_queried,
                "row {r} gained by match semantics without a missing cell"
            );
        }
        for r in strict.iter() {
            let all_present = q
                .predicates()
                .iter()
                .all(|p| !d.cell(r as usize, p.attr).is_missing());
            assert!(all_present, "strict row {r} has a missing queried cell");
        }
    }
}
