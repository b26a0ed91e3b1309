//! The paper's *rejected* missing-data encodings, implemented to demonstrate
//! its objections (§4.2, "An intuitive solution…").
//!
//! Instead of storing an extra bitmap `B_{i,0}`, missing data could be
//! encoded *in band*: set `B_{i,j}[x] = 1` for **all** `j` when missing is a
//! match ([`MissingAsOnes`]), or `= 0` for all `j` when it is not
//! ([`MissingAsZeros`]). The paper rejects both because:
//!
//! 1. complement-based interval evaluation (the NOT operator) goes wrong and
//!    needs recovery operations — extra ANDs/ORs of value bitmaps;
//! 2. with the all-ones encoding, a cardinality-1 attribute cannot
//!    distinguish "value 1" from "missing" at all;
//! 3. setting a missing row to 1 in *every* bitmap of an attribute
//!    interrupts the runs of 0s and "compression decreases dramatically".
//!
//! These types exist so tests and the ablation benches can *measure* those
//! three claims rather than take them on faith. They are not part of the
//! recommended API.

use crate::engine;
use crate::index::{AttrBitmaps, AttrPrices, BitmapIndex, Encoding, Price};
use ibis_bitvec::{BitStore, BitVec64};
use ibis_core::{Column, Interval, MissingPolicy, WorkCounters};

/// Equality bitmaps with missing rows encoded as 1 in every value bitmap.
/// Only answers queries under [`MissingPolicy::IsMatch`] — the encoding
/// hard-wires the semantics, which is itself a drawback the `B_0` design
/// avoids. The attribute's parameter records whether the column has
/// missing rows (1) or not (0).
#[derive(Clone, Copy, Debug)]
pub struct MissingAsOnes;

/// Equality bitmaps with missing rows encoded as 0 in every value bitmap.
/// Only answers queries under [`MissingPolicy::IsNotMatch`]. The parameter
/// is as for [`MissingAsOnes`].
#[derive(Clone, Copy, Debug)]
pub struct MissingAsZeros;

/// The all-ones in-band index. [`BitmapIndex::try_build`] fails for any
/// cardinality-1 attribute with missing data: its single bitmap is
/// all-ones, so "value 1" cannot be told apart from "missing" (the paper's
/// objection #2). Compare its [`BitmapIndex::size_report`] against
/// [`crate::EqualityBitmapIndex`]'s to measure objection #3.
pub type InBandMatchEquality<B> = BitmapIndex<MissingAsOnes, B>;

/// The all-zeros in-band index (missing rows are simply absent from every
/// bitmap).
pub type InBandNotMatchEquality<B> = BitmapIndex<MissingAsZeros, B>;

fn build_attr<B: BitStore>(col: &Column, missing_as_one: bool) -> AttrBitmaps<B> {
    let eq = crate::equality_bitvecs(col);
    let missing = &eq[0];
    let has_missing = missing.count_ones() > 0;
    let stored = eq[1..]
        .iter()
        .map(|value_bv| {
            if missing_as_one && has_missing {
                B::from_bitvec(&value_bv.or(missing))
            } else {
                B::from_bitvec(value_bv)
            }
        })
        .collect();
    AttrBitmaps {
        cardinality: col.cardinality(),
        param: has_missing as u16,
        missing: None,
        stored,
    }
}

/// Fig. 2 with no `B_0` to consult: ORs the smaller of the in-range and
/// out-of-range bitmap sets, complementing the latter, and says whether it
/// complemented — the path on which both in-band encodings go wrong and
/// must recover.
fn smaller_side<B: BitStore>(
    a: &AttrBitmaps<B>,
    n_rows: usize,
    iv: Interval,
    cost: &mut WorkCounters,
) -> (BitVec64, bool) {
    let c = a.cardinality as usize;
    let (v1, v2) = (iv.lo as usize, iv.hi as usize);
    // Choose the smaller bitmap set (the paper's prose: complement when
    // the range "includes more than half of the cardinality"; Fig. 2's
    // span test v2−v1 ≤ ⌊C/2⌋ can pick the larger side for even C —
    // comparing set sizes keeps the min(AS, 1−AS)·C + 1 bound tight).
    let width = v2 - v1 + 1;
    if width <= c - width {
        let hit = engine::or_all(a.stored[v1 - 1..v2].iter(), cost).expect("non-empty range");
        (hit, false)
    } else {
        let outside = a.stored[..v1 - 1].iter().chain(a.stored[v2..].iter());
        let neg = match engine::or_all(outside, cost) {
            Some(mut acc) => {
                engine::not(&mut acc, cost);
                acc
            }
            None => BitVec64::ones(n_rows),
        };
        (neg, true)
    }
}

fn in_band_count(cardinality: u16, param: u16, has_b0: bool) -> Option<usize> {
    (param <= 1 && !has_b0).then_some(cardinality as usize)
}

impl Encoding for MissingAsOnes {
    const MAGIC: &'static [u8; 4] = b"IBIM";

    const NAME: &'static str = "bitmap-inband-match";

    fn build_attr<B: BitStore>(col: &Column) -> AttrBitmaps<B> {
        build_attr(col, true)
    }

    // The complement path must *recover* the missing rows it wrongly
    // drops: they are found as the AND of two distinct value bitmaps (only
    // missing rows are 1 in more than one), then ORed back — the paper's
    // recovery procedure, at +2 reads +2 ops.
    fn interval<B: BitStore>(
        a: &AttrBitmaps<B>,
        n_rows: usize,
        iv: Interval,
        _policy: MissingPolicy,
        cost: &mut WorkCounters,
    ) -> BitVec64 {
        let (mut acc, complemented) = smaller_side(a, n_rows, iv, cost);
        if complemented && a.param == 1 && a.cardinality >= 2 {
            // Recovery: missing = B_1 AND B_2 (both all-ones on missing
            // rows, disjoint on present rows).
            cost.read_bitmaps(2);
            let missing = engine::and(&a.stored[0], &a.stored[1], cost);
            engine::or_into(&mut acc, &missing, cost);
        }
        acc
    }

    // Like BEE, but the complement path pays the recovery (two extra reads
    // plus ops) — objection #1 priced in.
    fn price(p: &AttrPrices<'_>, iv: Interval, _policy: MissingPolicy) -> Price {
        let (w, c) = (iv.width() as usize, p.cardinality() as usize);
        p.by_mean(if w <= c - w { w } else { c - w + 3 })
    }

    fn stored_count(cardinality: u16, param: u16, has_b0: bool) -> Option<usize> {
        in_band_count(cardinality, param, has_b0)
    }

    fn supports(policy: MissingPolicy) -> bool {
        policy == MissingPolicy::IsMatch
    }

    fn unrepresentable(col: &Column) -> Option<&'static str> {
        (col.cardinality() == 1 && col.missing_count() > 0).then_some(
            "cardinality-1 attribute with missing data is ambiguous \
             under the in-band all-ones encoding",
        )
    }
}

impl Encoding for MissingAsZeros {
    const MAGIC: &'static [u8; 4] = b"IBIN";

    const NAME: &'static str = "bitmap-inband-notmatch";

    fn build_attr<B: BitStore>(col: &Column) -> AttrBitmaps<B> {
        build_attr(col, false)
    }

    // The complement path wrongly *includes* missing rows (they are 0
    // everywhere, so NOT turns them on); without a `B_0` the only recovery
    // is to re-derive the present-row mask by ORing **every** value bitmap
    // — `C` extra reads, which is the point.
    fn interval<B: BitStore>(
        a: &AttrBitmaps<B>,
        n_rows: usize,
        iv: Interval,
        _policy: MissingPolicy,
        cost: &mut WorkCounters,
    ) -> BitVec64 {
        let (mut acc, complemented) = smaller_side(a, n_rows, iv, cost);
        if complemented && a.param == 1 {
            let present = engine::or_all(a.stored.iter(), cost).expect("c ≥ 1");
            engine::and_into(&mut acc, &present, cost);
        }
        acc
    }

    // The complement path re-derives the present mask from all C value
    // bitmaps — objection #1's cost for this variant.
    fn price(p: &AttrPrices<'_>, iv: Interval, _policy: MissingPolicy) -> Price {
        let (w, c) = (iv.width() as usize, p.cardinality() as usize);
        p.by_mean(if w <= c - w { w } else { (c - w) + c + 1 })
    }

    fn stored_count(cardinality: u16, param: u16, has_b0: bool) -> Option<usize> {
        in_band_count(cardinality, param, has_b0)
    }

    fn supports(policy: MissingPolicy) -> bool {
        policy == MissingPolicy::IsNotMatch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EqualityBitmapIndex;
    use ibis_bitvec::Wah;
    use ibis_core::{
        gen::uniform_column, scan, AccessMethod, Cell, Dataset, Predicate, RangeQuery,
    };
    use rand::{rngs::StdRng, SeedableRng};

    fn v(x: u16) -> Cell {
        Cell::present(x)
    }
    fn m() -> Cell {
        Cell::MISSING
    }

    fn sample() -> Dataset {
        Dataset::from_rows(
            &[("a", 5)],
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
    fn match_variant_is_correct_but_costlier_on_complements() {
        let d = sample();
        let inband = InBandMatchEquality::<Wah>::try_build(&d).unwrap();
        let bee = EqualityBitmapIndex::<Wah>::build(&d);
        // Wide range [1,4] forces the complement path.
        let q = RangeQuery::new(vec![Predicate::range(0, 1, 4)], MissingPolicy::IsMatch).unwrap();
        let (rows, cost_in) = inband.execute_with_cost(&q).unwrap();
        assert_eq!(rows, scan::execute(&d, &q));
        let (_, cost_bee) = bee.execute_with_cost(&q).unwrap();
        // Paper objection #1: the recovery (AND two columns, OR back) makes
        // the in-band plan strictly more expensive.
        assert!(
            cost_in.bitmaps_accessed > cost_bee.bitmaps_accessed
                && cost_in.logical_ops > cost_bee.logical_ops,
            "in-band {cost_in:?} vs BEE {cost_bee:?}"
        );
    }

    #[test]
    fn not_match_variant_is_correct_but_reads_every_bitmap() {
        let d = sample();
        let inband = InBandNotMatchEquality::<Wah>::build(&d);
        let q =
            RangeQuery::new(vec![Predicate::range(0, 1, 4)], MissingPolicy::IsNotMatch).unwrap();
        let (rows, cost) = inband.execute_with_cost(&q).unwrap();
        assert_eq!(rows, scan::execute(&d, &q));
        // Present-mask recovery touches all C = 5 value bitmaps.
        assert!(cost.bitmaps_accessed >= 5, "{cost:?}");
    }

    #[test]
    fn cardinality_one_with_missing_is_unrepresentable() {
        // Paper objection #2.
        let col = Column::from_raw("flag", 1, vec![1, 0, 1]).unwrap();
        let d = Dataset::new(vec![col]).unwrap();
        assert!(InBandMatchEquality::<Wah>::try_build(&d).is_err());
        // Without missing data it is fine.
        let col = Column::from_raw("flag", 1, vec![1, 1, 1]).unwrap();
        let d = Dataset::new(vec![col]).unwrap();
        assert!(InBandMatchEquality::<Wah>::try_build(&d).is_ok());
    }

    #[test]
    fn in_band_ones_hurt_compression() {
        // Paper objection #3: flooding every value bitmap with the missing
        // rows interrupts 0-runs; the B_0 design compresses better.
        let mut rng = StdRng::seed_from_u64(9);
        let col = uniform_column("a", 20_000, 50, 0.3, &mut rng);
        let d = Dataset::new(vec![col]).unwrap();
        let inband = InBandMatchEquality::<Wah>::try_build(&d).unwrap();
        let bee = EqualityBitmapIndex::<Wah>::build(&d);
        let r_in = inband.size_report().compression_ratio();
        let r_bee = bee.size_report().compression_ratio();
        assert!(
            r_in > 1.5 * r_bee,
            "in-band ratio {r_in} should be much worse than BEE's {r_bee}"
        );
    }
}
