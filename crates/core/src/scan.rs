//! Sequential-scan query evaluation — the exact, index-free ground truth.
//!
//! Every index in the workspace is differentially tested against
//! [`execute`]: for any dataset and query, an index's result must equal the
//! scan's result exactly (the paper's techniques are exact, not approximate).
//! [`execute_rowwise`] is the independent reference the kernel itself is
//! checked against.

use crate::{Dataset, MissingPolicy, RangeQuery, RowSet};
use ibis_bitvec::BitVec64;
use std::ops::Range;

/// Evaluates `query` over `dataset` by scanning every record.
pub fn execute(dataset: &Dataset, query: &RangeQuery) -> RowSet {
    execute_range(dataset, query, 0..dataset.n_rows())
}

/// Evaluates `query` over the row slice `rows` of `dataset` — one worker's
/// share of a partitioned scan. `execute(d, q)` is exactly
/// `execute_range(d, q, 0..n)`, and concatenating the results of disjoint
/// ascending ranges reproduces the full scan. The ids are the set bits of
/// [`mask`], written once at `rows.start`.
pub fn execute_range(dataset: &Dataset, query: &RangeQuery, rows: Range<usize>) -> RowSet {
    let mut ids = Vec::new();
    let start = rows.start as u32;
    mask(dataset, query, rows).ones_positions_into(start, &mut ids);
    RowSet::from_sorted(ids)
}

/// The rows of the slice `rows` that satisfy `query`, as a bit-vector whose
/// bit `i` is row `rows.start + i` — the scan kernel, which the database's
/// delta and the sequential-scan access method share. `rows.start` need not
/// be a multiple of 64.
///
/// One predicate at a time, 64 cells per word: a present value `v` passes
/// if `v − lo ≤ hi − lo` in wrapping arithmetic (one compare for both
/// bounds; the missing code 0 wraps past every span because `lo ≥ 1`), and
/// under is-match a missing cell passes too. Each word is ANDed into the
/// accumulator, and a word an earlier predicate emptied is not evaluated
/// again. An empty search key leaves every row set.
pub fn mask(dataset: &Dataset, query: &RangeQuery, rows: Range<usize>) -> BitVec64 {
    let missing_ok = query.policy() == MissingPolicy::IsMatch;
    let mut acc = BitVec64::ones(rows.len());
    for p in query.predicates() {
        let cells = &dataset.column(p.attr).raw()[rows.clone()];
        let (lo, span) = (p.interval.lo, p.interval.hi - p.interval.lo);
        acc.and_words_with(|w| {
            let word = &cells[w * 64..cells.len().min(w * 64 + 64)];
            match <&[u16; 64]>::try_from(word) {
                Ok(full) => word_mask(full, lo, span, missing_ok),
                Err(_) => word_mask(word, lo, span, missing_ok),
            }
        });
    }
    acc
}

/// Bit `i` set iff `cells[i]` passes (at most 64 cells): one byte per cell,
/// computed without a branch, then eight bytes at a time gathered into
/// their eight bits by one multiply (byte `j`'s low bit lands on bit
/// `56 + j`, and no two partial products meet, so nothing carries).
#[inline(always)]
fn word_mask(cells: &[u16], lo: u16, span: u16, missing_ok: bool) -> u64 {
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let mut pass = [0u8; 64];
    for (p, &v) in pass.iter_mut().zip(cells) {
        *p = u8::from(v.wrapping_sub(lo) <= span) | u8::from(missing_ok & (v == 0));
    }
    let mut word = 0;
    for (g, bytes) in pass.chunks_exact(8).enumerate() {
        let eight = u64::from_le_bytes(bytes.try_into().expect("eight bytes"));
        word |= (eight.wrapping_mul(GATHER) >> 56) << (8 * g);
    }
    word
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
