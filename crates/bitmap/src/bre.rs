//! Bitmap Range Encoding (BRE) — §4.3 of the paper.

use crate::engine;
use crate::index::{AttrBitmaps, AttrPrices, BitmapIndex, Encoding, Price};
use ibis_bitvec::{BitStore, BitVec64};
use ibis_core::{Column, Interval, MissingPolicy, WorkCounters};

/// The range encoding: `stored[j − 1]` is the threshold bitmap `B_{i,j}`
/// (rows with value ≤ `j`, missing counted as the smallest value) for
/// `j = 1 ..= C − 1`, and `B_{i,0}` is the missing bitmap.
#[derive(Clone, Copy, Debug)]
pub struct Range;

/// Range-encoded bitmap index over an incomplete relation.
///
/// Bitmap `B_{i,j}` flags the rows whose value for `A_i` is **≤ j**. The
/// paper treats missing data "as the next smallest possible value outside
/// the lower bound of the domain" (value 0), so a missing row is set in
/// *every* bitmap and `B_{i,0}` doubles as the missing-rows flag. `B_{i,C}`
/// is constant all-ones and is dropped, leaving `C` stored bitmaps for an
/// attribute with missing data and `C − 1` without.
///
/// Interval evaluation follows Fig. 3: every case reduces to at most an XOR
/// of two threshold bitmaps (or one complement when the range touches the
/// domain maximum) plus, under match semantics, an OR with `B_{i,0}` —
/// between 1 and 3 bitmap reads per dimension (match), 1–2 (not-match),
/// which is why BRE's query time is flat across cardinality in Fig. 5(a).
/// Threshold bitmaps are monotone with the missing rows set in every one —
/// the shape run containers exist for.
pub type RangeBitmapIndex<B> = BitmapIndex<Range, B>;

/// The stored bitmap for threshold `j` (`B_{i,j}`), if stored.
/// `j = 0` without missing data is all-zeros (not stored);
/// `j = C` is all-ones (never stored).
fn threshold<B>(a: &AttrBitmaps<B>, j: usize) -> Option<&B> {
    match j.checked_sub(1) {
        None => a.missing.as_ref(),
        Some(k) => a.stored.get(k),
    }
}

impl Encoding for Range {
    const MAGIC: &'static [u8; 4] = b"IBRE";

    const NAME: &'static str = "bitmap-range";

    fn build_attr<B: BitStore>(col: &Column) -> AttrBitmaps<B> {
        let c = col.cardinality() as usize;
        let eq = crate::equality_bitvecs(col);
        // Prefix-OR the equality bitmaps: B_j = eq_0 | … | eq_j.
        let mut acc = eq[0].clone();
        let missing = (acc.count_ones() > 0).then(|| B::from_bitvec(&acc)); // B_0
        let stored = eq[1..c]
            .iter()
            .map(|value_bv| {
                acc.or_assign(value_bv);
                B::from_bitvec(&acc) // B_1 .. B_{C-1}
            })
            .collect();
        AttrBitmaps {
            cardinality: col.cardinality(),
            param: 0,
            missing,
            stored,
        }
    }

    fn interval<B: BitStore>(
        a: &AttrBitmaps<B>,
        n_rows: usize,
        iv: Interval,
        policy: MissingPolicy,
        cost: &mut WorkCounters,
    ) -> BitVec64 {
        let c = a.cardinality as usize;
        let (v1, v2) = (iv.lo as usize, iv.hi as usize);

        // Present-and-in-range rows are B_{v2} XOR B_{v1-1}; missing rows
        // cancel in the XOR because they are set in every bitmap. The edge
        // thresholds B_0 (no missing → all-zeros) and B_C (all-ones) are
        // virtual, which yields exactly the case split of Fig. 3. Stored
        // bitmaps are borrowed and combined straight into the answer.
        let le = |j: usize, cost: &mut WorkCounters| -> Option<&B> {
            let b = threshold(a, j);
            if b.is_some() {
                cost.read_bitmap();
            }
            b
        };

        match policy {
            MissingPolicy::IsMatch => {
                if v1 == 1 {
                    // Missing counts as ≤ every threshold, so B_{v2} already
                    // includes it. [1, C] degenerates to all rows.
                    if v2 == c {
                        BitVec64::ones(n_rows)
                    } else {
                        engine::load(le(v2, cost).expect("1 ≤ v2 < C is stored"), cost)
                    }
                } else {
                    let mut base = if v2 == c {
                        engine::complement(le(v1 - 1, cost).expect("1 ≤ v1-1 < C is stored"), cost)
                    } else {
                        let hi = le(v2, cost).expect("stored");
                        let lo = le(v1 - 1, cost).expect("stored");
                        engine::xor(hi, lo, cost)
                    };
                    if let Some(m) = le(0, cost) {
                        engine::or_into(&mut base, m, cost);
                    }
                    base
                }
            }
            MissingPolicy::IsNotMatch => {
                let lower = v1 - 1; // 0 allowed: B_0 is the missing flag
                if v2 == c {
                    match le(lower, cost) {
                        Some(b) => engine::complement(b, cost),
                        None => BitVec64::ones(n_rows), // complete column, full range
                    }
                } else {
                    let hi = le(v2, cost).expect("1 ≤ v2 < C is stored");
                    match le(lower, cost) {
                        Some(b) => engine::xor(hi, b, cost),
                        None => engine::load(hi, cost),
                    }
                }
            }
        }
    }

    // §6's at most 3 bitmaps per dimension, each at its own read price: the
    // thresholds of Fig. 3 that `interval` reads, and its complement's NOT.
    #[inline]
    fn price(p: &AttrPrices<'_>, iv: Interval, policy: MissingPolicy) -> Price {
        let c = p.cardinality() as usize;
        let (v1, v2) = (iv.lo as usize, iv.hi as usize);
        // B_j's read price, when stored (the `threshold` rule).
        let le = |j: usize| match j {
            0 => p.missing(),
            j if j < c => Some(p.stored(j - 1..j)),
            _ => None,
        };
        // B_{v2} XOR B_{v1−1}, either alone when the other is absent, or
        // NOT B_{v1−1} when B_{v2} is the virtual all-ones B_C; under match
        // B_{v2} already holds the missing rows when v1 = 1, and B_0 is
        // ORed in otherwise.
        let is_match = policy == MissingPolicy::IsMatch;
        let lower = if is_match && v1 == 1 {
            None
        } else {
            le(v1 - 1)
        };
        let fresh = p.fresh();
        let base = match (le(v2), lower) {
            (Some(hi), Some(lo)) => fresh.read(hi).read(lo),
            (Some(hi), None) => fresh.read(hi),
            (None, Some(lo)) => fresh.read(lo).not_pass(),
            (None, None) => fresh,
        };
        match p.missing() {
            Some(b0) if is_match && v1 > 1 => base.read(b0),
            _ => base,
        }
    }

    // `B_1 .. B_{C−1}`; with `B_0` that is C bitmaps for an attribute with
    // missing data, C − 1 without (§4.3).
    fn stored_count(cardinality: u16, _param: u16, _has_b0: bool) -> Option<usize> {
        Some(cardinality as usize - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_bitvec::{BitVec64, Wah};
    use ibis_core::{scan, AccessMethod, Cell, Dataset, Predicate, RangeQuery, RowSet};

    fn m() -> Cell {
        Cell::MISSING
    }
    fn v(x: u16) -> Cell {
        Cell::present(x)
    }

    /// The paper's Table 3/4 worked example (same data as Table 1).
    fn table3() -> Dataset {
        Dataset::from_rows(
            &[("a1", 5)],
            &[
                vec![v(5)],
                vec![v(2)],
                vec![v(3)],
                vec![m()],
                vec![v(4)],
                vec![v(5)],
                vec![v(1)],
                vec![v(3)],
                vec![m()],
                vec![v(2)],
            ],
        )
        .unwrap()
    }

    fn bits_of<B: BitStore>(b: &B) -> String {
        let v = b.to_bitvec();
        (0..v.len())
            .map(|i| if v.get(i) { '1' } else { '0' })
            .collect()
    }

    #[test]
    fn table4_bitmaps_reproduced() {
        // Table 4 lists the range-encoded bitmaps B_{1,0}..B_{1,4}
        // (B_{1,5} ≡ all-ones is dropped).
        let idx = RangeBitmapIndex::<BitVec64>::build(&table3());
        let a = &idx.attrs[0];
        assert_eq!(idx.n_bitmaps(), 5);
        assert_eq!(bits_of(a.missing.as_ref().unwrap()), "0001000010"); // B_{1,0}
        assert_eq!(bits_of(&a.stored[0]), "0001001010"); // B_{1,1}
        assert_eq!(bits_of(&a.stored[1]), "0101001011"); // B_{1,2}
        assert_eq!(bits_of(&a.stored[2]), "0111001111"); // B_{1,3}
        assert_eq!(bits_of(&a.stored[3]), "0111101111"); // B_{1,4}
    }

    #[test]
    fn fig3_point_query_cases() {
        let d = table3();
        let idx = RangeBitmapIndex::<Wah>::build(&d);
        // Case v1 = v2 = 1, match: result is B_1 directly (missing included).
        let q = RangeQuery::new(vec![Predicate::point(0, 1)], MissingPolicy::IsMatch).unwrap();
        let (rows, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(rows.rows(), &[3, 6, 8]);
        assert_eq!(cost.bitmaps_accessed, 1);
        // Case v1 = v2 = 1, not-match: B_1 XOR B_0.
        let q = q.with_policy(MissingPolicy::IsNotMatch);
        let (rows, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(rows.rows(), &[6]);
        assert_eq!(cost.bitmaps_accessed, 2);
        // Case 1 < v1 = v2 < C, match: (B_3 XOR B_2) OR B_0 → 3 reads.
        let q = RangeQuery::new(vec![Predicate::point(0, 3)], MissingPolicy::IsMatch).unwrap();
        let (rows, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(rows.rows(), &[2, 3, 7, 8]);
        assert_eq!(cost.bitmaps_accessed, 3);
        // Case v1 = v2 = C, match: NOT(B_4) OR B_0.
        let q = RangeQuery::new(vec![Predicate::point(0, 5)], MissingPolicy::IsMatch).unwrap();
        let (rows, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(rows.rows(), &[0, 3, 5, 8]);
        assert_eq!(cost.bitmaps_accessed, 2);
        // Case v1 = v2 = C, not-match: NOT(B_4) alone.
        let q = q.with_policy(MissingPolicy::IsNotMatch);
        let (rows, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(rows.rows(), &[0, 5]);
        assert_eq!(cost.bitmaps_accessed, 1);
    }

    #[test]
    fn fig3_range_query_cases() {
        let d = table3();
        let idx = RangeBitmapIndex::<Wah>::build(&d);
        // v1 = 1 < v2 < C, match: B_{v2} alone (1 read).
        let q = RangeQuery::new(vec![Predicate::range(0, 1, 3)], MissingPolicy::IsMatch).unwrap();
        let (rows, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(rows, scan::execute(&d, &q));
        assert_eq!(cost.bitmaps_accessed, 1);
        // General range, match: (B_4 XOR B_1) OR B_0 → 3 reads.
        let q = RangeQuery::new(vec![Predicate::range(0, 2, 4)], MissingPolicy::IsMatch).unwrap();
        let (rows, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(rows, scan::execute(&d, &q));
        assert_eq!(cost.bitmaps_accessed, 3);
        // General range, not-match: B_4 XOR B_1 → 2 reads.
        let q = q.with_policy(MissingPolicy::IsNotMatch);
        let (rows, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(rows, scan::execute(&d, &q));
        assert_eq!(cost.bitmaps_accessed, 2);
        // Range touching C, not-match: NOT(B_1) → 1 read.
        let q =
            RangeQuery::new(vec![Predicate::range(0, 2, 5)], MissingPolicy::IsNotMatch).unwrap();
        let (rows, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(rows, scan::execute(&d, &q));
        assert_eq!(cost.bitmaps_accessed, 1);
    }

    #[test]
    fn full_domain_range() {
        let d = table3();
        let idx = RangeBitmapIndex::<Wah>::build(&d);
        let q = RangeQuery::new(vec![Predicate::range(0, 1, 5)], MissingPolicy::IsMatch).unwrap();
        let (rows, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(rows, RowSet::all(10));
        assert_eq!(cost.bitmaps_accessed, 0); // virtual all-ones
        let q = q.with_policy(MissingPolicy::IsNotMatch);
        let (rows, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(rows.rows(), &[0, 1, 2, 4, 5, 6, 7, 9]); // NOT(B_0)
        assert_eq!(cost.bitmaps_accessed, 1);
    }

    #[test]
    fn no_missing_column_drops_b0() {
        let col = Column::from_raw("a", 4, vec![1, 2, 3, 4, 2]).unwrap();
        let d = Dataset::new(vec![col]).unwrap();
        let idx = RangeBitmapIndex::<Wah>::build(&d);
        assert!(idx.attrs[0].missing.is_none());
        assert_eq!(idx.n_bitmaps(), 3); // C - 1
        for policy in MissingPolicy::ALL {
            for lo in 1..=4u16 {
                for hi in lo..=4u16 {
                    let q = RangeQuery::new(vec![Predicate::range(0, lo, hi)], policy).unwrap();
                    assert_eq!(idx.execute(&q).unwrap(), scan::execute(&d, &q));
                }
            }
        }
    }

    #[test]
    fn cardinality_one_attribute() {
        // C = 1: the only stored structure is B_0 (missing flag); B_1 is the
        // dropped all-ones bitmap. The paper notes the in-band alternative
        // cannot even represent this case.
        let col = Column::from_raw("flag", 1, vec![1, 0, 1, 0]).unwrap();
        let d = Dataset::new(vec![col]).unwrap();
        let idx = RangeBitmapIndex::<Wah>::build(&d);
        assert_eq!(idx.n_bitmaps(), 1);
        let q = RangeQuery::new(vec![Predicate::point(0, 1)], MissingPolicy::IsMatch).unwrap();
        assert_eq!(idx.execute(&q).unwrap(), RowSet::all(4));
        let q = q.with_policy(MissingPolicy::IsNotMatch);
        assert_eq!(idx.execute(&q).unwrap().rows(), &[0, 2]);
    }

    #[test]
    fn costs_bounded_one_to_three() {
        // §4.3: match semantics needs 1–3 bitmaps per dimension, not-match
        // 1–2 — verify across every interval of the example.
        let idx = RangeBitmapIndex::<Wah>::build(&table3());
        for lo in 1..=5u16 {
            for hi in lo..=5u16 {
                let mut cost = WorkCounters::zero();
                idx.evaluate_interval(0, Interval::new(lo, hi), MissingPolicy::IsMatch, &mut cost);
                assert!(cost.bitmaps_accessed <= 3, "match [{lo},{hi}]: {cost:?}");
                let mut cost = WorkCounters::zero();
                idx.evaluate_interval(
                    0,
                    Interval::new(lo, hi),
                    MissingPolicy::IsNotMatch,
                    &mut cost,
                );
                assert!(
                    cost.bitmaps_accessed <= 2,
                    "not-match [{lo},{hi}]: {cost:?}"
                );
            }
        }
    }

    #[test]
    fn size_report_counts() {
        let idx = RangeBitmapIndex::<BitVec64>::build(&table3());
        let r = idx.size_report();
        assert_eq!(r.per_attr[0].n_bitmaps, 5); // C with missing data
        assert_eq!(r.total_uncompressed_bytes(), 5 * 2);
    }
}
