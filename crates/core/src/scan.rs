//! Sequential-scan query evaluation — the exact, index-free ground truth.
//!
//! Every index in the workspace is differentially tested against
//! [`execute`]: for any dataset and query, an index's result must equal the
//! scan's result exactly (the paper's techniques are exact, not approximate).

use crate::{Dataset, MissingPolicy, RangeQuery, RowSet};

/// Evaluates `query` over `dataset` by scanning every record.
///
/// Works column-at-a-time: each predicate prunes the surviving id list, which
/// is both faster than row-at-a-time and mirrors how the columnar indexes
/// decompose the query.
pub fn execute(dataset: &Dataset, query: &RangeQuery) -> RowSet {
    execute_range(dataset, query, 0..dataset.n_rows())
}

/// Evaluates `query` over the row slice `rows` of `dataset` — one worker's
/// share of a partitioned scan. `execute(d, q)` is exactly
/// `execute_range(d, q, 0..n)`, and concatenating the results of disjoint
/// ascending ranges reproduces the full scan.
pub fn execute_range(
    dataset: &Dataset,
    query: &RangeQuery,
    rows: std::ops::Range<usize>,
) -> RowSet {
    let policy = query.policy();
    let mut survivors: Option<Vec<u32>> = None;
    for p in query.predicates() {
        let col = dataset.column(p.attr);
        let raw = col.raw();
        let iv = p.interval;
        let next = match survivors.take() {
            None => (rows.start as u32..rows.end as u32)
                .filter(|&r| cell_ok(raw[r as usize], iv.lo, iv.hi, policy))
                .collect(),
            Some(prev) => prev
                .into_iter()
                .filter(|&r| cell_ok(raw[r as usize], iv.lo, iv.hi, policy))
                .collect(),
        };
        survivors = Some(next);
    }
    match survivors {
        // Empty search key matches everything in the slice.
        None => RowSet::from_sorted((rows.start as u32..rows.end as u32).collect()),
        Some(out) => RowSet::from_sorted(out),
    }
}

/// Thin adapter over [`MissingPolicy::cell_matches`] — the single semantic
/// definition — over the raw in-band encoding used in the hot loop.
#[inline]
fn cell_ok(raw: u16, lo: u16, hi: u16, policy: MissingPolicy) -> bool {
    policy.cell_matches(crate::Cell::from_raw(raw), crate::Interval::new(lo, hi))
}

/// Row-at-a-time reference evaluator, deliberately naive. Used in tests to
/// cross-check [`execute`] itself.
pub fn execute_rowwise(dataset: &Dataset, query: &RangeQuery) -> RowSet {
    RowSet::from_sorted(
        (0..dataset.n_rows() as u32)
            .filter(|&r| query.matches_row(dataset, r as usize))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cell, Predicate};

    fn m() -> Cell {
        Cell::MISSING
    }
    fn v(x: u16) -> Cell {
        Cell::present(x)
    }

    fn data() -> Dataset {
        Dataset::from_rows(
            &[("a", 10), ("b", 10)],
            &[
                vec![v(5), v(5)],
                vec![m(), v(5)],
                vec![v(5), m()],
                vec![m(), m()],
                vec![v(1), v(5)],
                vec![v(5), v(9)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn two_policies_differ_exactly_on_missing_rows() {
        let d = data();
        let preds = vec![Predicate::range(0, 4, 6), Predicate::range(1, 4, 6)];
        let q_match = RangeQuery::new(preds.clone(), MissingPolicy::IsMatch).unwrap();
        let q_not = RangeQuery::new(preds, MissingPolicy::IsNotMatch).unwrap();
        assert_eq!(execute(&d, &q_match).rows(), &[0, 1, 2, 3]);
        assert_eq!(execute(&d, &q_not).rows(), &[0]);
    }

    #[test]
    fn empty_search_key_matches_everything() {
        let d = data();
        let q = RangeQuery::new(vec![], MissingPolicy::IsNotMatch).unwrap();
        assert_eq!(execute(&d, &q), RowSet::all(6));
    }

    #[test]
    fn columnwise_equals_rowwise() {
        let d = data();
        for policy in MissingPolicy::ALL {
            for lo in 1..=10u16 {
                for hi in lo..=10u16 {
                    let q = RangeQuery::new(
                        vec![Predicate::range(0, lo, hi), Predicate::range(1, 1, 5)],
                        policy,
                    )
                    .unwrap();
                    assert_eq!(
                        execute(&d, &q),
                        execute_rowwise(&d, &q),
                        "{policy} [{lo},{hi}]"
                    );
                }
            }
        }
    }

    #[test]
    fn point_query_on_single_attribute() {
        let d = data();
        let q = RangeQuery::new(vec![Predicate::point(1, 9)], MissingPolicy::IsNotMatch).unwrap();
        assert_eq!(execute(&d, &q).rows(), &[5]);
    }

    #[test]
    fn execute_range_covers_slices() {
        let d = data();
        let q = RangeQuery::new(vec![Predicate::range(0, 4, 6)], MissingPolicy::IsMatch).unwrap();
        let full = execute(&d, &q);
        let mut slices = execute_range(&d, &q, 0..3).into_rows();
        slices.extend(execute_range(&d, &q, 3..6).iter());
        assert_eq!(RowSet::from_sorted(slices), full);
        assert_eq!(execute_range(&d, &q, 2..2), RowSet::new());
    }
}
