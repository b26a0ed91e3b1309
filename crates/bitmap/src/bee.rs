//! Bitmap Equality Encoding (BEE) — §4.2 of the paper.

use crate::engine;
use crate::index::{AppendEncoding, AttrBitmaps, BitmapIndex, Encoding};
use ibis_bitvec::{BitStore, BitVec64};
use ibis_core::{Column, Interval, MissingPolicy, WorkCounters};

/// The equality encoding: `stored[v − 1]` is `B_{i,v}`, the rows whose
/// value is exactly `v`, and missing rows are flagged in `B_{i,0}`.
#[derive(Clone, Copy, Debug)]
pub struct Equality;

/// Equality-encoded bitmap index over an incomplete relation.
///
/// For attribute `A_i` with cardinality `C_i`, bitmap `B_{i,j}` (`1 ≤ j ≤
/// C_i`) flags the rows whose value is exactly `j`. Attributes that contain
/// missing data get one extra bitmap `B_{i,0}` flagging the missing rows —
/// the paper's chosen design, kept because WAH compresses the (typically
/// sparse or very dense) missing bitmap well, and because the in-band
/// alternatives break the NOT operator and cardinality-1 attributes (see
/// [`crate::rejected`]).
///
/// Query evaluation follows Fig. 2: each interval is answered by ORing the
/// cheaper of the in-range or out-of-range bitmap sets (complementing in the
/// latter case), giving the paper's worst-case bound of
/// `min(AS, 1−AS)·C + 1` bitmap reads per dimension.
///
/// Over the [`ibis_bitvec::Adaptive`] backend the work counters are
/// container-exact: every stored bitmap an interval reads is tallied once,
/// by the shape of its containers, and the plain accumulator it is combined
/// into has none.
///
/// ```
/// use ibis_bitmap::AdaptiveBitmapIndex; // = EqualityBitmapIndex<Adaptive>
/// use ibis_core::{AccessMethod, Cell, Dataset, MissingPolicy, Predicate, RangeQuery};
///
/// let data = Dataset::from_rows(
///     &[("grade", 5)],
///     &[vec![Cell::present(4)], vec![Cell::MISSING], vec![Cell::present(1)]],
/// )?;
/// let idx = AdaptiveBitmapIndex::build(&data);
/// let q = RangeQuery::new(vec![Predicate::range(0, 3, 5)], MissingPolicy::IsMatch)?;
/// let (rows, cost) = idx.execute_with_cost(&q)?;
/// assert_eq!(rows.rows(), &[0, 1]); // row 1 matches via missing
/// // Three rows are one chunk, so each stored bitmap read is one container,
/// // classified by shape.
/// assert_eq!(
///     cost.containers_array + cost.containers_bitmap + cost.containers_run,
///     cost.bitmaps_accessed,
/// );
/// # Ok::<(), ibis_core::Error>(())
/// ```
pub type EqualityBitmapIndex<B> = BitmapIndex<Equality, B>;

impl Encoding for Equality {
    const MAGIC: &'static [u8; 4] = b"IBEE";

    const NAME: &'static str = "bitmap-equality";

    fn build_attr<B: BitStore>(col: &Column) -> AttrBitmaps<B> {
        let mut bitvecs = crate::equality_bitvecs(col);
        let values_bv = bitvecs.split_off(1);
        let missing_bv = bitvecs.pop().expect("index 0 is the missing bitmap");
        AttrBitmaps {
            cardinality: col.cardinality(),
            param: 0,
            missing: (missing_bv.count_ones() > 0).then(|| B::from_bitvec(&missing_bv)),
            stored: values_bv.iter().map(B::from_bitvec).collect(),
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

        // Fig. 2: OR the in-range bitmaps when the range spans at most half
        // the domain; otherwise OR the out-of-range bitmaps and complement.
        // Choose the smaller bitmap set (the paper's prose: complement when
        // the range "includes more than half of the cardinality"; Fig. 2's
        // span test v2−v1 ≤ ⌊C/2⌋ can pick the larger side for even C —
        // comparing set sizes keeps the min(AS, 1−AS)·C + 1 bound tight).
        // Under match the in-range side takes `B_0` with it; under
        // not-match the out-of-range side does, because missing rows are 0
        // in every value bitmap and the plain complement would include them.
        let width = v2 - v1 + 1;
        let in_range = width <= c - width;
        let b0 = a
            .missing
            .iter()
            .filter(|_| in_range == (policy == MissingPolicy::IsMatch));
        if in_range {
            engine::or_all(a.stored[v1 - 1..v2].iter().chain(b0), cost)
                .expect("in-range set is non-empty")
        } else {
            let outside = a.stored[..v1 - 1].iter().chain(a.stored[v2..].iter());
            match engine::or_all(outside.chain(b0), cost) {
                Some(mut acc) => {
                    engine::not(&mut acc, cost);
                    acc
                }
                None => BitVec64::ones(n_rows), // full-domain range, no exclusions
            }
        }
    }

    // §6: min(AS, 1−AS)·C + 1 bitmaps per dimension.
    fn reads_for(w: f64, c: f64, _param: u16) -> f64 {
        w.min(c - w) + 1.0
    }

    // `Σ_i C_i` value bitmaps, plus one `B_0` per attribute with missing data.
    fn stored_count(cardinality: u16, _param: u16, _has_b0: bool) -> Option<usize> {
        Some(cardinality as usize)
    }
}

impl AppendEncoding for Equality {
    fn stored_bit(k: usize, raw: u16) -> bool {
        raw as usize == k + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdaptiveBitmapIndex;
    use ibis_bitvec::{BitVec64, Wah};
    use ibis_core::gen::synthetic_scaled;
    use ibis_core::{scan, AccessMethod, Cell, Dataset, Predicate, RangeQuery, RowSet};

    fn m() -> Cell {
        Cell::MISSING
    }
    fn v(x: u16) -> Cell {
        Cell::present(x)
    }

    /// The paper's Table 1/2 worked example: one attribute, cardinality 5,
    /// ten records, rows 4 and 9 missing (1-based).
    fn table1() -> Dataset {
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
    fn table2_bitmaps_reproduced() {
        // Table 2 of the paper lists the equality bitmaps for Table 1.
        let idx = EqualityBitmapIndex::<BitVec64>::build(&table1());
        let a = &idx.attrs[0];
        assert_eq!(bits_of(a.missing.as_ref().unwrap()), "0001000010"); // B_{1,0}
        assert_eq!(bits_of(&a.stored[0]), "0000001000"); // B_{1,1}
        assert_eq!(bits_of(&a.stored[1]), "0100000001"); // B_{1,2}
        assert_eq!(bits_of(&a.stored[2]), "0010000100"); // B_{1,3}
        assert_eq!(bits_of(&a.stored[3]), "0000100000"); // B_{1,4}
        assert_eq!(bits_of(&a.stored[4]), "1000010000"); // B_{1,5}
    }

    #[test]
    fn point_query_both_policies() {
        let d = table1();
        let idx = EqualityBitmapIndex::<Wah>::build(&d);
        let q = RangeQuery::new(vec![Predicate::point(0, 3)], MissingPolicy::IsMatch).unwrap();
        // Value 3 at rows 2, 7 (0-based); missing rows 3, 8 also match.
        assert_eq!(idx.execute(&q).unwrap().rows(), &[2, 3, 7, 8]);
        let q = q.with_policy(MissingPolicy::IsNotMatch);
        assert_eq!(idx.execute(&q).unwrap().rows(), &[2, 7]);
    }

    #[test]
    fn point_query_costs_match_paper() {
        // Match semantics needs "two bitmaps instead of one" for a point
        // query on an attribute with missing data (§4.2).
        let idx = EqualityBitmapIndex::<Wah>::build(&table1());
        let q = RangeQuery::new(vec![Predicate::point(0, 3)], MissingPolicy::IsMatch).unwrap();
        let (_, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(cost.bitmaps_accessed, 2);
        let q = q.with_policy(MissingPolicy::IsNotMatch);
        let (_, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(cost.bitmaps_accessed, 1);
    }

    #[test]
    fn wide_range_uses_complement() {
        // [1,4] over C=5 spans 4 > ⌊5/2⌋ → complement path reads only B_5
        // (plus B_0 under not-match).
        let d = table1();
        let idx = EqualityBitmapIndex::<Wah>::build(&d);
        let q = RangeQuery::new(vec![Predicate::range(0, 1, 4)], MissingPolicy::IsMatch).unwrap();
        let (rows, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(rows, scan::execute(&d, &q));
        assert_eq!(cost.bitmaps_accessed, 1);

        let q = q.with_policy(MissingPolicy::IsNotMatch);
        let (rows, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(rows, scan::execute(&d, &q));
        assert_eq!(cost.bitmaps_accessed, 2);
    }

    #[test]
    fn full_domain_range() {
        let d = table1();
        let idx = EqualityBitmapIndex::<Wah>::build(&d);
        let q = RangeQuery::new(vec![Predicate::range(0, 1, 5)], MissingPolicy::IsMatch).unwrap();
        assert_eq!(idx.execute(&q).unwrap(), RowSet::all(10));
        let q = q.with_policy(MissingPolicy::IsNotMatch);
        // Everything except the two missing rows.
        assert_eq!(idx.execute(&q).unwrap().rows(), &[0, 1, 2, 4, 5, 6, 7, 9]);
    }

    #[test]
    fn no_missing_column_stores_no_b0() {
        let col = Column::from_raw("a", 3, vec![1, 2, 3, 1]).unwrap();
        let d = Dataset::new(vec![col]).unwrap();
        let idx = EqualityBitmapIndex::<Wah>::build(&d);
        assert!(idx.attrs[0].missing.is_none());
        assert_eq!(idx.n_bitmaps(), 3);
        // Policies coincide on complete data.
        for iv in [Interval::point(2), Interval::new(1, 2), Interval::new(2, 3)] {
            let qm = RangeQuery::new(
                vec![Predicate {
                    attr: 0,
                    interval: iv,
                }],
                MissingPolicy::IsMatch,
            )
            .unwrap();
            let qn = qm.with_policy(MissingPolicy::IsNotMatch);
            assert_eq!(idx.execute(&qm).unwrap(), idx.execute(&qn).unwrap());
            assert_eq!(idx.execute(&qm).unwrap(), scan::execute(&d, &qm));
        }
    }

    #[test]
    fn size_report_counts_extra_missing_bitmap() {
        let idx = EqualityBitmapIndex::<BitVec64>::build(&table1());
        let report = idx.size_report();
        assert_eq!(report.per_attr.len(), 1);
        assert_eq!(report.per_attr[0].n_bitmaps, 6); // C=5 plus B_0
        assert_eq!(report.total_uncompressed_bytes(), 6 * 2); // ceil(10/8)=2 each
        assert!(report.total_bytes() > 0);
    }

    // The equality encoding over adaptive containers: same Fig. 2
    // evaluation as on any backend (tests/paper_examples.rs pins the
    // bitmap and op counts across all of them), with container-exact
    // words. (Table 1's equality bitmaps have ≤ 3 set bits each → a
    // single array container of 1 payload word.)

    #[test]
    fn container_counts_are_the_stored_bitmaps_read() {
        // With single-chunk data (< 2^16 rows → one container per bitmap)
        // the accounting identity is exact: every stored bitmap an interval
        // reads is tallied once, as the bitmap loaded or as the stored
        // operand of an op, and the other operand — the accumulator, here
        // and in the AND-reduce — is a plain vector with no container, so
        // `containers == bitmaps` and each op adds ⌈n/64⌉ words.
        let d = synthetic_scaled(300, 11);
        let idx = AdaptiveBitmapIndex::build(&d);
        for policy in MissingPolicy::ALL {
            let q = RangeQuery::new(
                vec![Predicate::range(102, 1, 3), Predicate::range(105, 2, 4)],
                policy,
            )
            .unwrap();
            let (_, cost) = idx.execute_with_cost(&q).unwrap();
            let touched = cost.containers_array + cost.containers_bitmap + cost.containers_run;
            assert_eq!(touched, cost.bitmaps_accessed, "{policy}");
            assert!(cost.words_processed >= cost.logical_ops * 300usize.div_ceil(64));
        }
    }

    #[test]
    fn exact_words_are_deterministic_on_the_worked_example() {
        let idx = AdaptiveBitmapIndex::build(&table1());
        // Point query, not-match: one load of one 1-word array.
        let q = RangeQuery::new(vec![Predicate::point(0, 3)], MissingPolicy::IsNotMatch).unwrap();
        let (_, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(cost.words_processed, 1);
        assert_eq!(cost.containers_array, 1);
        assert_eq!((cost.containers_bitmap, cost.containers_run), (0, 0));
        // Range [1,2] under match: load B_1 (1 word) + OR B_2 in (the
        // 1-word accumulator and a 1-word array) + OR B_0 in (likewise)
        // = 5 words, and the three stored arrays.
        let q = RangeQuery::new(vec![Predicate::range(0, 1, 2)], MissingPolicy::IsMatch).unwrap();
        let (_, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(cost.words_processed, 5);
        assert_eq!(cost.containers_array, 3);
        assert_eq!(cost.bitmaps_accessed, 3);
        assert_eq!(cost.logical_ops, 2);
    }

    #[test]
    fn measured_words_beat_the_uncompressed_charge_on_sparse_data() {
        // 70 000 rows (two chunks), cardinality 50, cyclic values: each
        // equality bitmap holds every 50th row — array containers of
        // ~1 310 entries (~330 payload words per chunk) versus the
        // uncompressed ⌈70 000/64⌉ ≈ 1 094 words the WAH backend is charged
        // per operand read.
        let rows: Vec<Vec<Cell>> = (0..70_000).map(|r| vec![v((r % 50 + 1) as u16)]).collect();
        let d = Dataset::from_rows(&[("a", 50)], &rows).unwrap();
        let q =
            RangeQuery::new(vec![Predicate::range(0, 1, 10)], MissingPolicy::IsNotMatch).unwrap();
        let (_, measured) = AdaptiveBitmapIndex::build(&d)
            .execute_with_cost(&q)
            .unwrap();
        let (_, bound) = EqualityBitmapIndex::<Wah>::build(&d)
            .execute_with_cost(&q)
            .unwrap();
        assert_eq!(
            bound.words_processed,
            (bound.bitmaps_accessed + bound.logical_ops) * 70_000usize.div_ceil(64)
        );
        assert!(
            measured.words_processed < bound.words_processed,
            "measured {} not below the uncompressed charge {}",
            measured.words_processed,
            bound.words_processed
        );
    }

    #[test]
    fn append_row_matches_rebuild() {
        let d = synthetic_scaled(120, 23);
        let mut grown = AdaptiveBitmapIndex::build(&d);
        let extra: Vec<Vec<Cell>> = vec![
            (0..d.n_attrs()).map(|_| v(1)).collect(),
            (0..d.n_attrs())
                .map(|a| if a % 3 == 0 { m() } else { v(2) })
                .collect(),
        ];
        let mut all_rows: Vec<Vec<Cell>> = (0..d.n_rows()).map(|r| d.row(r)).collect();
        for row in &extra {
            grown.append_row(row).unwrap();
            all_rows.push(row.clone());
        }
        let schema: Vec<(&str, u16)> = d
            .columns()
            .iter()
            .map(|c| (c.name(), c.cardinality()))
            .collect();
        let rebuilt = AdaptiveBitmapIndex::build(&Dataset::from_rows(&schema, &all_rows).unwrap());
        assert_eq!(grown.n_rows(), rebuilt.n_rows());
        for policy in MissingPolicy::ALL {
            let q = RangeQuery::new(vec![Predicate::range(100, 1, 3)], policy).unwrap();
            assert_eq!(grown.execute(&q).unwrap(), rebuilt.execute(&q).unwrap());
        }
        // Bad rows leave the index unchanged.
        assert!(grown.append_row(&[]).is_err());
    }

    #[test]
    fn stored_tally_is_the_container_census() {
        let d = synthetic_scaled(250, 31);
        let idx = AdaptiveBitmapIndex::build(&d);
        // < 2^16 rows → exactly one container per stored bitmap.
        assert_eq!(idx.stored_tally().containers() as usize, idx.n_bitmaps());
        // Rule-charged backends have no containers, only uncompressed words.
        let plain = EqualityBitmapIndex::<BitVec64>::build(&d);
        let t = plain.stored_tally();
        assert_eq!(t.containers(), 0);
        assert_eq!(t.words as usize, plain.n_bitmaps() * 250usize.div_ceil(64));
    }

    #[test]
    fn estimated_cost_reflects_compression() {
        let d = synthetic_scaled(400, 37);
        let adaptive = AdaptiveBitmapIndex::build(&d);
        let bee = EqualityBitmapIndex::<BitVec64>::build(&d);
        let q = RangeQuery::new(vec![Predicate::point(0, 1)], MissingPolicy::IsMatch).unwrap();
        let a = adaptive.estimated_cost(&q);
        let b = bee.estimated_cost(&q);
        assert!(a.is_finite() && a > 0.0);
        // The estimate is in the unit of the counter it predicts: the
        // uncompressed words per read for the plain backend (2 reads × 7
        // words), the mean stored container words for the adaptive one.
        assert_eq!(b, 2.0 * 400usize.div_ceil(64) as f64);
        assert!(a <= b, "adaptive {a} > plain {b}");
        // Out-of-schema predicates stay unplannable.
        let q = RangeQuery::new(vec![Predicate::point(999, 1)], MissingPolicy::IsMatch).unwrap();
        assert_eq!(adaptive.estimated_cost(&q), f64::INFINITY);
    }

    #[test]
    fn estimate_follows_appended_rows() {
        // 64 rows read as 1 word, 65 as 2; a point query plans 2 reads.
        let rows: Vec<Vec<Cell>> = (0..64).map(|r| vec![v(r % 5 + 1)]).collect();
        let mut idx = EqualityBitmapIndex::<BitVec64>::build(
            &Dataset::from_rows(&[("a", 5)], &rows).unwrap(),
        );
        let q = RangeQuery::new(vec![Predicate::point(0, 2)], MissingPolicy::IsMatch).unwrap();
        assert_eq!(idx.estimated_cost(&q), 2.0);
        idx.append_row(&[m()]).unwrap();
        assert_eq!(idx.estimated_cost(&q), 4.0);
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use crate::RangeBitmapIndex;
    use ibis_bitvec::Wah;
    use ibis_core::gen::synthetic_scaled;
    use ibis_core::{AccessMethod, Predicate, RangeQuery};

    #[test]
    fn parallel_build_equals_serial() {
        let d = synthetic_scaled(600, 81);
        let serial = EqualityBitmapIndex::<Wah>::build(&d);
        let parallel = EqualityBitmapIndex::<Wah>::build_parallel(&d, 4);
        assert_eq!(parallel.n_bitmaps(), serial.n_bitmaps());
        assert_eq!(parallel.size_bytes(), serial.size_bytes());
        let bre_s = RangeBitmapIndex::<Wah>::build(&d);
        let bre_p = RangeBitmapIndex::<Wah>::build_parallel(&d, 4);
        assert_eq!(bre_p.size_bytes(), bre_s.size_bytes());
        for policy in MissingPolicy::ALL {
            for attr in [0usize, 120, 449] {
                let c = d.column(attr).cardinality();
                let q = RangeQuery::new(vec![Predicate::range(attr, 1, c.div_ceil(2))], policy)
                    .unwrap();
                assert_eq!(parallel.execute(&q).unwrap(), serial.execute(&q).unwrap());
                assert_eq!(bre_p.execute(&q).unwrap(), bre_s.execute(&q).unwrap());
            }
        }
    }

    #[test]
    fn parallel_build_single_thread_degenerates() {
        let d = synthetic_scaled(100, 82);
        let a = EqualityBitmapIndex::<Wah>::build_parallel(&d, 1);
        let b = EqualityBitmapIndex::<Wah>::build(&d);
        assert_eq!(a.size_bytes(), b.size_bytes());
    }
}
