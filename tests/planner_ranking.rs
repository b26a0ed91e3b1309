//! The ranking is used twice and must say the same thing both times:
//! `IncompleteDb::explain` renders it as a table, `execute` dispatches on
//! it. For every one of the 128 index configurations, under both
//! semantics, on the planner-golden query grid, a database must return
//! exactly the rows and `WorkCounters` of the method `explain` names — run
//! standalone over the same base rows — plus its own delta scan.

use ibis::prelude::*;
use ibis_core::gen::{census_scaled, workload, QuerySpec};
use std::sync::Arc;

/// The `tests/planner_golden.rs` grid (2 policies × k ∈ 1..=5 × 2
/// selectivities, same seeds), four queries per cell instead of 100.
fn queries(d: &Dataset) -> Vec<RangeQuery> {
    let mut out = Vec::new();
    let mut seed = 7_000;
    for policy in MissingPolicy::ALL {
        for k in 1..=5 {
            for global_selectivity in [0.01, 0.2] {
                let spec = QuerySpec {
                    n_queries: 4,
                    k,
                    global_selectivity,
                    policy,
                    candidate_attrs: Vec::new(),
                };
                out.extend(workload(d, &spec, seed));
                seed += 1;
            }
        }
    }
    out
}

/// Every method a `DbConfig` can register, built on its own as the
/// database builds it (each bitmap family over adaptive containers), with
/// the name the registry lists it by.
fn standalone(d: &Arc<Dataset>) -> Vec<(&'static str, Box<dyn AccessMethod>)> {
    let methods: Vec<Box<dyn AccessMethod>> = vec![
        Box::new(EqualityBitmapIndex::<Adaptive>::build(d)),
        Box::new(RangeBitmapIndex::<Adaptive>::build(d)),
        Box::new(IntervalBitmapIndex::<Adaptive>::build(d)),
        Box::new(DecomposedBitmapIndex::<Adaptive>::build(d)),
        Box::new(VaFile::build(d).bind(Arc::clone(d))),
        Box::new(VaPlusFile::build(d).bind(Arc::clone(d))),
        Box::new(SequentialScan.bind(Arc::clone(d))),
    ];
    let mut named: Vec<_> = methods.into_iter().map(|m| (m.name(), m)).collect();
    // `adaptive` without `bee` lists the same equality index under the
    // label the repository's benchmark files its plans by.
    named.push((
        "bitmap-adaptive",
        Box::new(EqualityBitmapIndex::<Adaptive>::build(d)),
    ));
    named
}

#[test]
fn execute_runs_exactly_the_method_explain_names_under_every_config() {
    let d = Arc::new(census_scaled(1_200, 13));
    let qs = queries(&d);
    // Three rows of the relation again, appended as the delta; what the
    // delta scan adds to an answer is the semantic scan over just them.
    let delta = d.slice_rows(400..403);
    let delta_hits = |q: &RangeQuery| {
        let ids = ibis_core::scan::execute(&delta, q);
        RowSet::from_sorted(ids.iter().map(|r| r + d.n_rows() as u32).collect())
    };
    // What each method answers alone.
    let alone: Vec<(&'static str, Vec<(RowSet, WorkCounters)>)> = standalone(&d)
        .iter()
        .map(|(name, m)| {
            let answers = qs.iter().map(|q| m.execute_with_cost(q).unwrap());
            (*name, answers.collect())
        })
        .collect();

    let mut winners = std::collections::BTreeSet::new();
    for bits in 0u8..128 {
        let on = |bit: u8| bits & (1 << bit) != 0;
        let config = DbConfig {
            bee: on(0),
            bre: on(1),
            bie: on(2),
            decomposed: on(3),
            va: on(4),
            vaplus: on(5),
            adaptive: on(6),
        };
        let mut db = IncompleteDb::with_config((*d).clone(), config);
        for r in 0..delta.n_rows() {
            db.insert(&delta.row(r)).unwrap();
        }
        for (i, q) in qs.iter().enumerate() {
            let plan = db.explain(q).unwrap();
            let (_, answers) = alone
                .iter()
                .find(|(name, _)| *name == plan.chosen)
                .unwrap_or_else(|| panic!("{config:?} planned unknown {}", plan.chosen));
            let (base_rows, mut counters) = answers[i].clone();
            counters.entries_scanned += delta.n_rows();
            let expected = (base_rows.union(&delta_hits(q)), counters);
            for threads in [1, 3] {
                assert_eq!(
                    db.execute_with_cost_threads(q, threads).unwrap(),
                    expected,
                    "{config:?} query {i} planned on {} t={threads}",
                    plan.chosen
                );
            }
            winners.insert(plan.chosen);
        }
    }
    // Every registrable method must have won somewhere, or the sweep
    // never exercised its position in the registry.
    assert_eq!(winners.len(), alone.len(), "{winners:?}");
}
