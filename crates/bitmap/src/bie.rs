//! Bitmap Interval Encoding (BIE) — the third classic encoding family the
//! paper cites (§2: "equality [10], range [5], **interval [5]**", Chan &
//! Ioannidis SIGMOD'99), adapted here to missing data with the same `B_0`
//! device the paper applies to BEE and BRE.
//!
//! Interval encoding stores one bitmap per *window* of `W = ⌈C/2⌉`
//! consecutive values: `I_j` flags rows whose value lies in
//! `[j, j + W − 1]`, for `j = 1 ..= C − W + 1` — about **half** the bitmaps
//! of BEE/BRE — and still answers any interval with **at most two** bitmap
//! reads:
//!
//! ```text
//! w = v2 − v1 + 1,  K = C − W + 1 (number of windows)
//! [1, C]                        → all present rows
//! w ≥ W                         → I_{v1} ∪ I_{v2−W+1}          (cover)
//! w < W, v2 < W                 → I_{v1} \ I_{v2+1}            (left edge)
//! w < W, v1 > K                 → I_{v2−W+1} \ I_{v1−W}        (right edge)
//! w < W, otherwise              → I_{v1} ∩ I_{v2−W+1}          (middle)
//! ```
//!
//! Missing rows are 0 in every window, so the AND/AND-NOT/OR plans above
//! are already correct under *missing-is-not-match*; under
//! *missing-is-match* the plan ORs `B_0` exactly as in BEE. BIE therefore
//! costs 2–3 bitmap reads per dimension (match) at roughly half the storage
//! of BRE — the missing corner of the paper's encoding-space that the
//! `ablation_encoding` experiment fills in.

use crate::engine;
use crate::index::{AttrBitmaps, BitmapIndex, Encoding};
use ibis_bitvec::{BitStore, BitVec64};
use ibis_core::{Column, Interval, MissingPolicy, WorkCounters};

/// The interval encoding: `stored[j − 1]` is the window bitmap `I_j` over
/// values `[j, j + W − 1]` for `j = 1 ..= C − W + 1`, the window width
/// `W = ⌈C/2⌉` is the attribute's parameter, and missing rows are flagged
/// in `B_{i,0}`.
#[derive(Clone, Copy, Debug)]
pub struct IntervalWindows;

/// Interval-encoded bitmap index over an incomplete relation — about half
/// the bitmaps BEE/BRE keep.
pub type IntervalBitmapIndex<B> = BitmapIndex<IntervalWindows, B>;

/// Window width `W = ⌈C/2⌉` for a domain of `c` values.
fn window_width(c: usize) -> usize {
    c.div_ceil(2).max(1)
}

impl Encoding for IntervalWindows {
    const MAGIC: &'static [u8; 4] = b"IBIE";

    const NAME: &'static str = "bitmap-interval";

    fn build_attr<B: BitStore>(col: &Column) -> AttrBitmaps<B> {
        let c = col.cardinality() as usize;
        let width = window_width(c);
        let n_windows = c - width + 1;
        let n = col.len();
        let mut missing_bv = BitVec64::zeros(n);
        let mut window_bvs = vec![BitVec64::zeros(n); n_windows];
        for (row, &raw) in col.raw().iter().enumerate() {
            if raw == 0 {
                missing_bv.set(row, true);
            } else {
                let v = raw as usize;
                // Value v lies in windows j ∈ [max(1, v−W+1), min(v, K)].
                let j_lo = v.saturating_sub(width - 1).max(1);
                let j_hi = v.min(n_windows);
                for w in &mut window_bvs[j_lo - 1..j_hi] {
                    w.set(row, true);
                }
            }
        }
        AttrBitmaps {
            cardinality: col.cardinality(),
            param: width as u16,
            missing: (missing_bv.count_ones() > 0).then(|| B::from_bitvec(&missing_bv)),
            stored: window_bvs.iter().map(B::from_bitvec).collect(),
        }
    }

    // At most two window reads plus the missing bitmap, per the table in
    // the module docs.
    fn interval<B: BitStore>(
        a: &AttrBitmaps<B>,
        n_rows: usize,
        iv: Interval,
        policy: MissingPolicy,
        cost: &mut WorkCounters,
    ) -> BitVec64 {
        let c = a.cardinality as usize;
        let w_win = a.param as usize;
        let k = a.stored.len(); // C − W + 1
        let (v1, v2) = (iv.lo as usize, iv.hi as usize);
        let width = v2 - v1 + 1;

        let win = |j: usize, cost: &mut WorkCounters| -> &B {
            cost.read_bitmap();
            &a.stored[j - 1]
        };

        // Present-rows result first; every plan leaves missing rows at 0
        // because they are 0 in all windows.
        let mut present = if width == c {
            // Full domain: all present rows. Complement of B_0, or all-ones
            // when the column is complete.
            match &a.missing {
                Some(m) => {
                    cost.read_bitmap();
                    engine::complement(m, cost)
                }
                None => BitVec64::ones(n_rows),
            }
        } else if width >= w_win {
            engine::or(win(v1, cost), win(v2 - w_win + 1, cost), cost)
        } else if v2 < w_win {
            let mut beyond = engine::complement(win(v2 + 1, cost), cost);
            engine::and_into(&mut beyond, win(v1, cost), cost);
            beyond
        } else if v1 > k {
            let mut before = engine::complement(win(v1 - w_win, cost), cost);
            engine::and_into(&mut before, win(v2 - w_win + 1, cost), cost);
            before
        } else {
            engine::and(win(v1, cost), win(v2 - w_win + 1, cost), cost)
        };

        if policy == MissingPolicy::IsMatch {
            if let Some(m) = &a.missing {
                cost.read_bitmap();
                engine::or_into(&mut present, m, cost);
            }
        }
        present
    }

    // At most two windows plus B_0 per dimension — the same worst case as
    // BRE; the tie is broken by BIE's ~half-size structure.
    fn reads_for(_w: f64, _c: f64, _param: u16) -> f64 {
        3.0
    }

    fn stored_count(cardinality: u16, param: u16, _has_b0: bool) -> Option<usize> {
        let c = cardinality as usize;
        (param as usize == window_width(c)).then(|| c - param as usize + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_bitvec::Wah;
    use ibis_core::gen::synthetic_scaled;
    use ibis_core::{scan, AccessMethod, Cell, Dataset, Predicate, RangeQuery};

    fn m() -> Cell {
        Cell::MISSING
    }
    fn v(x: u16) -> Cell {
        Cell::present(x)
    }

    fn paper_dataset() -> Dataset {
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

    #[test]
    fn window_layout() {
        // C = 5 → W = 3, K = 3 windows: [1,3], [2,4], [3,5], plus B_0.
        let idx = IntervalBitmapIndex::<BitVec64>::build(&paper_dataset());
        let a = &idx.attrs[0];
        assert_eq!(a.param, 3);
        assert_eq!(a.stored.len(), 3);
        assert!(a.missing.is_some());
        assert_eq!(idx.n_bitmaps(), 4); // vs 6 for BEE, 5 for BRE
                                        // Row values: 5 2 3 ∅ 4 5 1 3 ∅ 2
        let bits = |b: &BitVec64| -> String {
            (0..10).map(|i| if b.get(i) { '1' } else { '0' }).collect()
        };
        assert_eq!(bits(&a.stored[0]), "0110001101"); // values 1..3
        assert_eq!(bits(&a.stored[1]), "0110100101"); // values 2..4
        assert_eq!(bits(&a.stored[2]), "1010110100"); // values 3..5
    }

    #[test]
    fn exhaustive_over_many_cardinalities() {
        // Every (C, v1, v2, policy) combination for C up to 12; data covers
        // every value plus missing rows.
        for c in 1..=12u16 {
            let raw: Vec<u16> = (0..=c).chain(0..=c).collect(); // two copies incl missing
            let d = Dataset::new(vec![Column::from_raw("a", c, raw).unwrap()]).unwrap();
            let idx = IntervalBitmapIndex::<BitVec64>::build(&d);
            for policy in MissingPolicy::ALL {
                for lo in 1..=c {
                    for hi in lo..=c {
                        let q = RangeQuery::new(vec![Predicate::range(0, lo, hi)], policy).unwrap();
                        assert_eq!(
                            idx.execute(&q).unwrap(),
                            scan::execute(&d, &q),
                            "C={c} {policy} [{lo},{hi}]"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn at_most_two_windows_per_interval() {
        let d = paper_dataset();
        let idx = IntervalBitmapIndex::<Wah>::build(&d);
        for lo in 1..=5u16 {
            for hi in lo..=5u16 {
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
                let mut cost = WorkCounters::zero();
                idx.evaluate_interval(0, Interval::new(lo, hi), MissingPolicy::IsMatch, &mut cost);
                assert!(cost.bitmaps_accessed <= 3, "match [{lo},{hi}]: {cost:?}");
            }
        }
    }

    #[test]
    fn half_the_bitmaps_of_bee() {
        let d = synthetic_scaled(300, 61);
        let bie = IntervalBitmapIndex::<BitVec64>::build(&d);
        let bee = crate::EqualityBitmapIndex::<BitVec64>::build(&d);
        // Per attribute BIE keeps ⌊C/2⌋ + 1 windows (+ B_0) vs BEE's C
        // (+ B_0); over the Table 7 mix that is well under 60% of BEE.
        assert!(
            (bie.n_bitmaps() as f64) < 0.6 * bee.n_bitmaps() as f64,
            "BIE {} vs BEE {}",
            bie.n_bitmaps(),
            bee.n_bitmaps()
        );
    }

    #[test]
    fn cardinality_one_and_two() {
        let d = Dataset::new(vec![
            Column::from_raw("flag", 1, vec![1, 0, 1, 0]).unwrap(),
            Column::from_raw("bit", 2, vec![1, 2, 0, 2]).unwrap(),
        ])
        .unwrap();
        let idx = IntervalBitmapIndex::<Wah>::build(&d);
        for policy in MissingPolicy::ALL {
            for (attr, hi) in [(0usize, 1u16), (1, 2)] {
                for lo in 1..=hi {
                    for h in lo..=hi {
                        let q =
                            RangeQuery::new(vec![Predicate::range(attr, lo, h)], policy).unwrap();
                        assert_eq!(idx.execute(&q).unwrap(), scan::execute(&d, &q));
                    }
                }
            }
        }
    }
}
