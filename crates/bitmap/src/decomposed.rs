//! Multi-component (attribute-value decomposition) bitmap index with
//! missing-data support.
//!
//! The paper's reference [4] (Chan & Ioannidis, SIGMOD'98) establishes the
//! classic space/time trade-off for bitmap indexes: decompose each value in
//! a base `⟨b⟩`, index every *digit* separately with a range encoding, and
//! evaluate ranges with the RangeEval recurrence. One component (`b ≥ C`)
//! is exactly BRE — the time-optimal end; base 2 is the bit-sliced index —
//! the space-optimal end; `b = ⌈√C⌉` (two components) sits in the sweet
//! spot with `2·(⌈√C⌉ − 1)` bitmaps per attribute instead of `C − 1`.
//!
//! This module extends the decomposition to **incomplete data** with the
//! same device the paper applies to BEE/BRE: missing rows are kept out of
//! every digit bitmap and tracked by one extra `B_0` bitmap per attribute,
//! ORed in under *missing-is-match*. A stored `present` mask (`¬B_0`)
//! doubles as the top digit threshold, so the RangeEval recurrence needs no
//! special missing cases at all.
//!
//! `ablation_decomposition` sweeps the base to chart the storage/work curve
//! the 1998 paper predicts, now under both missing semantics.

use crate::engine;
use crate::index::{AttrBitmaps, AttrPrices, BitmapIndex, Encoding, Price};
use ibis_bitvec::{BitStore, BitVec64};
use ibis_core::{Column, Dataset, Interval, MissingPolicy, WorkCounters};

/// The base-`b` decomposed range encoding. The digit base `b ≥ 2` is the
/// attribute's parameter; with `m` components (`b^m ≥ C`),
/// `stored[i·(b−1) + j]` flags the present rows whose `i`-th digit (least
/// significant first) is ≤ `j`, for `j = 0 ..= b−2`, and the last stored
/// bitmap is the all-present mask `¬B_0`, which also serves as threshold
/// `b − 1` of every component. Missing rows are flagged in `B_{i,0}`.
#[derive(Clone, Copy, Debug)]
pub struct Decomposed;

/// Range-encoded, base-`b` decomposed bitmap index over an incomplete
/// relation. [`BitmapIndex::build`] picks the space/time sweet spot
/// `b = ⌈√C⌉` per attribute (two components).
pub type DecomposedBitmapIndex<B> = BitmapIndex<Decomposed, B>;

impl<B: BitStore> DecomposedBitmapIndex<B> {
    /// Builds with one uniform digit base for every attribute (`base ≥ 2`);
    /// `2` gives the bit-sliced index.
    pub fn with_base(dataset: &Dataset, base: u16) -> Self {
        assert!(base >= 2, "digit base must be at least 2");
        Self::from_columns(dataset, |col| build_attr(col, base))
            .expect("every column is representable")
    }
}

/// Number of components `m`: the least `m` with `base^m ≥ c`.
fn n_components(base: u16, c: u16) -> usize {
    let mut m = 1;
    let mut span = base as u64;
    while span < c as u64 {
        span *= base as u64;
        m += 1;
    }
    m
}

fn build_attr<B: BitStore>(col: &Column, base: u16) -> AttrBitmaps<B> {
    let n = col.len();
    let c = col.cardinality();
    // Clamped to `C` when `C` is small.
    let base = base.clamp(2, c.max(2));

    let mut missing_bv = BitVec64::zeros(n);
    // threshold_bvs[i][j] accumulates rows with digit_i ≤ j.
    let mut threshold_bvs =
        vec![vec![BitVec64::zeros(n); base as usize - 1]; n_components(base, c)];
    for (row, &raw) in col.raw().iter().enumerate() {
        if raw == 0 {
            missing_bv.set(row, true);
            continue;
        }
        let mut v0 = (raw - 1) as u64;
        for comp in threshold_bvs.iter_mut() {
            let digit = (v0 % base as u64) as usize;
            v0 /= base as u64;
            // digit ≤ j for every stored threshold j ≥ digit.
            for t in comp.iter_mut().skip(digit) {
                t.set(row, true);
            }
        }
    }
    let present_bv = missing_bv.not();
    AttrBitmaps {
        cardinality: c,
        param: base,
        missing: (missing_bv.count_ones() > 0).then(|| B::from_bitvec(&missing_bv)),
        stored: threshold_bvs
            .iter()
            .flatten()
            .chain(std::iter::once(&present_bv))
            .map(B::from_bitvec)
            .collect(),
    }
}

/// Rows (present only) whose digit `i` is ≤ `j`; `None` means the empty
/// set (`j = −1`), `j ≥ b−1` is the all-present mask. Borrowed: the
/// RangeEval fold below combines stored bitmaps straight into its
/// accumulator.
fn le_digit<'a, B>(
    a: &'a AttrBitmaps<B>,
    i: usize,
    j: i64,
    cost: &mut WorkCounters,
) -> Option<&'a B> {
    if j < 0 {
        return None;
    }
    cost.read_bitmap();
    let per_component = a.param as usize - 1;
    if j as usize >= per_component {
        a.stored.last()
    } else {
        Some(&a.stored[i * per_component + j as usize])
    }
}

/// RangeEval: present rows with 0-based value ≤ `t` (`t = −1` → empty).
fn le_value<B: BitStore>(
    a: &AttrBitmaps<B>,
    n_rows: usize,
    t: i64,
    cost: &mut WorkCounters,
) -> BitVec64 {
    if t < 0 {
        return BitVec64::zeros(n_rows);
    }
    if t as u64 >= a.cardinality as u64 - 1 {
        cost.read_bitmap();
        return engine::load(a.stored.last().expect("present mask is stored"), cost);
    }
    // Digits of t, least significant first.
    let m = n_components(a.param, a.cardinality);
    let mut digits = Vec::with_capacity(m);
    let mut rest = t as u64;
    for _ in 0..m {
        digits.push((rest % a.param as u64) as i64);
        rest /= a.param as u64;
    }
    // Fold: res = (digit_0 ≤ d_0); then per higher component
    // res = (digit_i < d_i) ∨ ((digit_i = d_i) ∧ res).
    let mut res = match le_digit(a, 0, digits[0], cost) {
        Some(b) => engine::load(b, cost),
        None => BitVec64::zeros(n_rows),
    };
    for (i, &d) in digits.iter().enumerate().skip(1) {
        let lt = le_digit(a, i, d - 1, cost);
        let le = le_digit(a, i, d, cost).expect("d ≥ 0 is stored or present");
        // eq = le XOR lt (lt = ∅ ⇒ eq = le).
        match lt {
            Some(lt) => {
                let mut within = engine::xor(le, lt, cost);
                engine::and_into(&mut within, &res, cost);
                engine::or_into(&mut within, lt, cost);
                res = within;
            }
            None => engine::and_into(&mut res, le, cost),
        }
    }
    res
}

impl Encoding for Decomposed {
    const MAGIC: &'static [u8; 4] = b"IBDX";

    const NAME: &'static str = "bitmap-decomposed";

    fn build_attr<B: BitStore>(col: &Column) -> AttrBitmaps<B> {
        build_attr(col, (col.cardinality() as f64).sqrt().ceil() as u16)
    }

    fn interval<B: BitStore>(
        a: &AttrBitmaps<B>,
        n_rows: usize,
        iv: Interval,
        policy: MissingPolicy,
        cost: &mut WorkCounters,
    ) -> BitVec64 {
        let (v1, v2) = (iv.lo, iv.hi);
        // Present values in [v1, v2] = LE(v2−1) \ LE(v1−2) over 0-based
        // values; missing rows are absent from every digit bitmap, so the
        // subtraction needs no special case.
        let mut present = le_value(a, n_rows, v2 as i64 - 1, cost);
        if v1 > 1 {
            let mut above = le_value(a, n_rows, v1 as i64 - 2, cost);
            engine::not(&mut above, cost);
            engine::and_into(&mut present, &above, cost);
        }
        if policy == MissingPolicy::IsMatch {
            if let Some(m) = &a.missing {
                cost.read_bitmap();
                engine::or_into(&mut present, m, cost);
            }
        }
        present
    }

    // RangeEval touches ≤ 2m − 1 bitmaps per bound (m components), two
    // bounds per interval, plus B_0 — the SIGMOD'98 time/space trade-off
    // the planner should see as pricier than single-component BRE.
    fn price(p: &AttrPrices<'_>, _iv: Interval, _policy: MissingPolicy) -> Price {
        p.by_mean(4 * n_components(p.param(), p.cardinality()) - 1)
    }

    // `m·(b−1)` digit thresholds plus the present mask.
    fn stored_count(cardinality: u16, param: u16, _has_b0: bool) -> Option<usize> {
        (param >= 2).then(|| n_components(param, cardinality) * (param as usize - 1) + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_bitvec::Wah;
    use ibis_core::gen::synthetic_scaled;
    use ibis_core::{scan, AccessMethod, Predicate, RangeQuery, RowSet};

    fn column_covering(c: u16) -> Dataset {
        // Two copies of every value plus missing rows.
        let raw: Vec<u16> = (0..=c).chain(0..=c).collect();
        Dataset::new(vec![Column::from_raw("a", c, raw).unwrap()]).unwrap()
    }

    #[test]
    fn exhaustive_all_bases_and_intervals() {
        for c in [1u16, 2, 3, 5, 7, 10, 16, 27] {
            let d = column_covering(c);
            for base in [2u16, 3, 4, 10] {
                let idx = DecomposedBitmapIndex::<BitVec64>::with_base(&d, base);
                for policy in MissingPolicy::ALL {
                    for lo in 1..=c {
                        for hi in lo..=c {
                            let q =
                                RangeQuery::new(vec![Predicate::range(0, lo, hi)], policy).unwrap();
                            assert_eq!(
                                idx.execute(&q).unwrap(),
                                scan::execute(&d, &q),
                                "C={c} base={base} {policy} [{lo},{hi}]"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sqrt_base_uses_two_components() {
        let d = column_covering(100);
        let idx = DecomposedBitmapIndex::<BitVec64>::build(&d);
        let a = &idx.attrs[0];
        assert_eq!(a.param, 10);
        assert_eq!(n_components(a.param, a.cardinality), 2);
        // 2 × 9 digit thresholds + present + B_0 = 20 bitmaps, vs 100 for BRE.
        assert_eq!(idx.n_bitmaps(), 20);
    }

    #[test]
    fn bit_sliced_base_two_layout() {
        let d = column_covering(16);
        let idx = DecomposedBitmapIndex::<BitVec64>::with_base(&d, 2);
        let a = &idx.attrs[0];
        assert_eq!(n_components(a.param, a.cardinality), 4); // 2^4 = 16
        assert_eq!(a.stored.len(), 4 + 1); // one threshold per digit, plus present
    }

    #[test]
    fn base_clamped_to_cardinality() {
        // C = 2 with sqrt base would give b = 2 (fine); C = 1 degenerates.
        let d = column_covering(1);
        let idx = DecomposedBitmapIndex::<Wah>::build(&d);
        let q = RangeQuery::new(vec![Predicate::point(0, 1)], MissingPolicy::IsNotMatch).unwrap();
        assert_eq!(idx.execute(&q).unwrap(), scan::execute(&d, &q));
    }

    #[test]
    fn space_shrinks_as_base_shrinks() {
        let d = synthetic_scaled(2_000, 71);
        // Plain-backed sizes expose the bitmap-count effect directly.
        let bre_like = DecomposedBitmapIndex::<BitVec64>::with_base(&d, 101); // ≥ all C: 1 component
        let sqrt = DecomposedBitmapIndex::<BitVec64>::build(&d);
        let sliced = DecomposedBitmapIndex::<BitVec64>::with_base(&d, 2);
        assert!(sqrt.size_bytes() < bre_like.size_bytes());
        assert!(sliced.size_bytes() < sqrt.size_bytes());
    }

    #[test]
    fn work_grows_as_base_shrinks() {
        let d = column_covering(100);
        let q = RangeQuery::new(vec![Predicate::range(0, 23, 77)], MissingPolicy::IsMatch).unwrap();
        let cost_for = |base: u16| {
            let idx = DecomposedBitmapIndex::<BitVec64>::with_base(&d, base);
            idx.execute_with_cost(&q).unwrap().1.bitmaps_accessed
        };
        let one_comp = cost_for(101);
        let sliced = cost_for(2);
        assert!(one_comp <= 4, "single component ≈ BRE: {one_comp}");
        assert!(
            sliced > one_comp,
            "bit-slicing pays in reads: {sliced} vs {one_comp}"
        );
    }

    #[test]
    fn all_missing_column() {
        let d = Dataset::new(vec![Column::from_raw("a", 8, vec![0, 0, 0]).unwrap()]).unwrap();
        let idx = DecomposedBitmapIndex::<Wah>::build(&d);
        let q = RangeQuery::new(vec![Predicate::range(0, 1, 8)], MissingPolicy::IsMatch).unwrap();
        assert_eq!(idx.execute(&q).unwrap(), RowSet::all(3));
        let q = q.with_policy(MissingPolicy::IsNotMatch);
        assert!(idx.execute(&q).unwrap().is_empty());
    }
}
