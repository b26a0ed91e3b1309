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
use crate::index::{AttrBitmaps, AttrPrices, BitmapIndex, Encoding, Price};
use crate::ValueSort;
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

impl IntervalWindows {
    /// One column's windows slid over its rows grouped by value: `I_1`
    /// holds the rows of values `1..=W`, and `I_{j+1} = I_j − rows(j) +
    /// rows(j + W)`. One plain accumulator flips each present row at most
    /// twice and is encoded once per window; `B_0` is built from the
    /// missing rows, as the equality encoding builds it.
    pub(crate) fn build_sorted<B: BitStore>(col: &Column, sort: &ValueSort) -> AttrBitmaps<B> {
        let c = col.cardinality() as usize;
        let width = window_width(c);
        let n_windows = c - width + 1;
        let n = col.len();
        // A row leaving the window is set and a row entering it is clear,
        // so both are flips.
        let mut window = BitVec64::zeros(n);
        (1..=width).for_each(|v| window.toggle(sort.rows_of(v)));
        let mut stored = Vec::with_capacity(n_windows);
        stored.push(B::from_bitvec(&window));
        for j in 1..n_windows {
            window.toggle(sort.rows_of(j));
            window.toggle(sort.rows_of(j + width));
            stored.push(B::from_bitvec(&window));
        }
        let missing = sort.rows_of(0);
        AttrBitmaps {
            cardinality: col.cardinality(),
            param: width as u16,
            missing: (!missing.is_empty()).then(|| B::from_positions(n, missing)),
            stored,
        }
    }
}

impl Encoding for IntervalWindows {
    const MAGIC: &'static [u8; 4] = b"IBIE";

    const NAME: &'static str = "bitmap-interval";

    fn build_attr<B: BitStore>(col: &Column) -> AttrBitmaps<B> {
        IntervalWindows::build_sorted(col, &ValueSort::new(col, &col.value_counts()))
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

    // The windows of the module docs' table that `interval` reads, each at
    // its own read price, the NOT of the edge cases' complement, and `B_0`
    // under match.
    #[inline]
    fn price(p: &AttrPrices<'_>, iv: Interval, policy: MissingPolicy) -> Price {
        let c = p.cardinality() as usize;
        let w_win = p.param() as usize;
        let k = c - w_win + 1;
        let (v1, v2) = (iv.lo as usize, iv.hi as usize);
        let width = v2 - v1 + 1;
        let win = |j: usize| p.stored(j - 1..j);
        let fresh = p.fresh();
        let present = if width == c {
            match p.missing() {
                Some(b0) => fresh.read(b0).not_pass(),
                None => fresh,
            }
        } else if width >= w_win {
            fresh.read(win(v1)).read(win(v2 - w_win + 1))
        } else if v2 < w_win {
            fresh.read(win(v2 + 1)).not_pass().read(win(v1))
        } else if v1 > k {
            fresh
                .read(win(v1 - w_win))
                .not_pass()
                .read(win(v2 - w_win + 1))
        } else {
            fresh.read(win(v1)).read(win(v2 - w_win + 1))
        };
        match p.missing() {
            Some(b0) if policy == MissingPolicy::IsMatch => present.read(b0),
            _ => present,
        }
    }

    fn stored_count(cardinality: u16, param: u16, _has_b0: bool) -> Option<usize> {
        let c = cardinality as usize;
        (param as usize == window_width(c)).then(|| c - param as usize + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_bitvec::{Adaptive, Wah};
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

    /// The row-at-a-time build the sliding one replaced: each present row
    /// is set in every window that covers its value.
    fn per_row_reference<B: BitStore>(col: &Column) -> AttrBitmaps<B> {
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
                // Value v lies in windows j ∈ [max(1, v−W+1), min(v, K)].
                let v = raw as usize;
                let j_lo = v.saturating_sub(width - 1).max(1);
                for w in &mut window_bvs[j_lo - 1..v.min(n_windows)] {
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

    fn image<B: BitStore>(ix: &IntervalBitmapIndex<B>) -> Vec<u8> {
        let mut out = Vec::new();
        ix.write_to(&mut out).unwrap();
        out
    }

    /// Columns of every tested cardinality, each with no, some and only
    /// missing rows, uniform and clustered (values in row order, so run
    /// containers appear).
    fn shaped_columns(n: usize, seed: u64) -> Dataset {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut columns = Vec::new();
        for c in [1u16, 2, 3, 5, 20, 100] {
            for missing in [0, 30, 100] {
                let uniform = (0..n)
                    .map(|_| match next() % 100 < missing {
                        true => 0,
                        false => (next() % u64::from(c)) as u16 + 1,
                    })
                    .collect();
                let clustered = (0..n)
                    .map(|r| match missing == 100 || (missing > 0 && r % 7 == 0) {
                        true => 0,
                        false => (r * c as usize / n.max(1)) as u16 + 1,
                    })
                    .collect();
                columns.push(Column::from_raw(format!("u{c}_{missing}"), c, uniform).unwrap());
                columns.push(Column::from_raw(format!("s{c}_{missing}"), c, clustered).unwrap());
            }
        }
        Dataset::new(columns).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]

        #[test]
        fn sliding_build_writes_the_per_row_reference_bytes(
            len in 0usize..7,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let n = [0, 1, 63, 64, 65, 65_536, 65_537][len];
            let d = shaped_columns(n, seed);
            let attrs = d.columns().iter().map(per_row_reference).collect();
            let reference = IntervalBitmapIndex::<Adaptive>::new(attrs, n);
            let built = IntervalBitmapIndex::<Adaptive>::build(&d);
            proptest::prop_assert_eq!(image(&built), image(&reference));
            // What a database builds from its histograms, alongside BEE.
            let counts: Vec<Vec<usize>> = d.columns().iter().map(|c| c.value_counts()).collect();
            let (_, sorted) = crate::build_sorted::<Adaptive>(&d, &counts, true, true);
            proptest::prop_assert_eq!(image(&sorted.unwrap()), image(&built));
        }
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
