//! The paper's *rejected* missing-data encodings, implemented to demonstrate
//! its objections (§4.2, "An intuitive solution…").
//!
//! Instead of storing an extra bitmap `B_{i,0}`, missing data could be
//! encoded *in band*: set `B_{i,j}[x] = 1` for **all** `j` when missing is a
//! match ([`InBandMatchEquality`]), or `= 0` for all `j` when it is not
//! ([`InBandNotMatchEquality`]). The paper rejects both because:
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

use crate::engine::{self, BitmapExec};
use crate::size::{AttrSize, SizeReport};
use ibis_bitvec::{BitStore, BitVec64};
use ibis_core::{
    AccessMethod, Dataset, Error, Interval, MissingPolicy, RangeQuery, Result, RowSet, WorkCounters,
};
use std::sync::OnceLock;

/// Equality bitmaps with missing rows encoded as 1 in every value bitmap.
/// Only answers queries under [`MissingPolicy::IsMatch`] — the encoding
/// hard-wires the semantics, which is itself a drawback the `B_0` design
/// avoids.
#[derive(Clone, Debug)]
pub struct InBandMatchEquality<B: BitStore> {
    attrs: Vec<InBandAttr<B>>,
    n_rows: usize,
    /// Cached [`engine::words_per_read`].
    read_words: OnceLock<f64>,
}

/// Equality bitmaps with missing rows encoded as 0 in every value bitmap.
/// Only answers queries under [`MissingPolicy::IsNotMatch`].
#[derive(Clone, Debug)]
pub struct InBandNotMatchEquality<B: BitStore> {
    attrs: Vec<InBandAttr<B>>,
    n_rows: usize,
    /// Cached [`engine::words_per_read`].
    read_words: OnceLock<f64>,
}

#[derive(Clone, Debug)]
struct InBandAttr<B> {
    cardinality: u16,
    has_missing: bool,
    values: Vec<B>,
}

fn build_attrs<B: BitStore>(dataset: &Dataset, missing_as_one: bool) -> Vec<InBandAttr<B>> {
    dataset
        .columns()
        .iter()
        .map(|col| {
            let eq = crate::equality_bitvecs(col);
            let missing = &eq[0];
            let has_missing = missing.count_ones() > 0;
            let values = eq[1..]
                .iter()
                .map(|value_bv| {
                    if missing_as_one && has_missing {
                        B::from_bitvec(&value_bv.or(missing))
                    } else {
                        B::from_bitvec(value_bv)
                    }
                })
                .collect();
            InBandAttr {
                cardinality: col.cardinality(),
                has_missing,
                values,
            }
        })
        .collect()
}

fn size_report<B: BitStore>(attrs: &[InBandAttr<B>], n_rows: usize) -> SizeReport {
    SizeReport {
        per_attr: attrs
            .iter()
            .enumerate()
            .map(|(attr, a)| {
                let bytes = a.values.iter().map(B::size_bytes).sum::<usize>();
                AttrSize::new(attr, a.values.len(), bytes, n_rows)
            })
            .collect(),
    }
}

impl<B: BitStore> InBandMatchEquality<B> {
    /// Builds the index.
    ///
    /// # Errors
    /// Fails for any cardinality-1 attribute with missing data: under this
    /// encoding its single bitmap is all-ones, so "value 1" cannot be told
    /// apart from "missing" (the paper's objection #2).
    pub fn try_build(dataset: &Dataset) -> Result<Self> {
        for (attr, col) in dataset.columns().iter().enumerate() {
            if col.cardinality() == 1 && col.missing_count() > 0 {
                return Err(Error::UnrepresentableColumn {
                    attr,
                    reason: "cardinality-1 attribute with missing data is ambiguous \
                             under the in-band all-ones encoding",
                });
            }
        }
        Ok(InBandMatchEquality {
            attrs: build_attrs(dataset, true),
            n_rows: dataset.n_rows(),
            read_words: OnceLock::new(),
        })
    }

    /// Size accounting (compare against
    /// [`crate::EqualityBitmapIndex::size_report`] to measure objection #3).
    pub fn size_report(&self) -> SizeReport {
        size_report(&self.attrs, self.n_rows)
    }

    /// Evaluates one interval. The complement path must *recover* the
    /// missing rows it wrongly drops: they are found as the AND of two
    /// distinct value bitmaps (only missing rows are 1 in more than one),
    /// then ORed back — the paper's recovery procedure, at +2 reads +2 ops.
    pub fn evaluate_interval(&self, attr: usize, iv: Interval, cost: &mut WorkCounters) -> B {
        let a = &self.attrs[attr];
        let c = a.cardinality as usize;
        let (v1, v2) = (iv.lo as usize, iv.hi as usize);
        // Choose the smaller bitmap set (the paper's prose: complement when
        // the range "includes more than half of the cardinality"; Fig. 2's
        // span test v2−v1 ≤ ⌊C/2⌋ can pick the larger side for even C —
        // comparing set sizes keeps the min(AS, 1−AS)·C + 1 bound tight).
        let width = v2 - v1 + 1;
        if width <= c - width {
            engine::or_all(a.values[v1 - 1..v2].iter(), cost).expect("non-empty range")
        } else {
            let outside = a.values[..v1 - 1].iter().chain(a.values[v2..].iter());
            let neg = match engine::or_all(outside, cost) {
                Some(x) => engine::not(&x, cost),
                None => B::ones(self.n_rows),
            };
            if a.has_missing && c >= 2 {
                // Recovery: missing = B_1 AND B_2 (both all-ones on missing
                // rows, disjoint on present rows).
                cost.read_bitmaps(2);
                let missing = engine::and(&a.values[0], &a.values[1], cost);
                engine::or(&neg, &missing, cost)
            } else {
                neg
            }
        }
    }

    /// Total bytes of all stored bitmaps.
    pub fn size_bytes(&self) -> usize {
        self.size_report().total_bytes()
    }

    /// Executes a query; only [`MissingPolicy::IsMatch`] is supported.
    ///
    /// # Panics
    /// Panics on a not-match query. (The [`AccessMethod`] surface returns
    /// [`Error::UnsupportedPolicy`] instead.)
    pub fn execute_with_cost(&self, query: &RangeQuery) -> Result<(RowSet, WorkCounters)> {
        assert_eq!(
            query.policy(),
            MissingPolicy::IsMatch,
            "in-band match encoding hard-wires match semantics"
        );
        engine::run_rows(self, query, 1)
    }
}

impl<B: BitStore> BitmapExec for InBandMatchEquality<B> {
    type Store = B;

    fn exec_rows(&self) -> usize {
        self.n_rows
    }

    fn exec_attrs(&self) -> usize {
        self.attrs.len()
    }

    fn exec_cardinality(&self, attr: usize) -> u16 {
        self.attrs[attr].cardinality
    }

    fn exec_stored(&self) -> impl Iterator<Item = &B> {
        self.attrs.iter().flat_map(|a| a.values.iter())
    }

    fn exec_read_words(&self) -> &OnceLock<f64> {
        &self.read_words
    }

    fn exec_interval(
        &self,
        attr: usize,
        iv: Interval,
        _policy: MissingPolicy,
        cost: &mut WorkCounters,
    ) -> B {
        self.evaluate_interval(attr, iv, cost)
    }
}

impl<B: BitStore> AccessMethod for InBandMatchEquality<B> {
    fn name(&self) -> &'static str {
        "bitmap-inband-match"
    }

    fn supports(&self, query: &RangeQuery) -> bool {
        query.policy() == MissingPolicy::IsMatch
    }

    fn execute_with_cost(&self, query: &RangeQuery) -> Result<(RowSet, WorkCounters)> {
        if !self.supports(query) {
            return Err(Error::UnsupportedPolicy {
                method: "bitmap-inband-match",
            });
        }
        engine::run_rows(self, query, 1)
    }

    fn size_bytes(&self) -> usize {
        InBandMatchEquality::size_bytes(self)
    }

    fn execute_count(&self, query: &RangeQuery) -> Result<usize> {
        if !self.supports(query) {
            return Err(Error::UnsupportedPolicy {
                method: "bitmap-inband-match",
            });
        }
        engine::run_count(self, query)
    }

    // Like BEE, but the complement path pays the recovery (two extra reads
    // plus ops) — objection #1 priced in.
    fn estimated_cost(&self, query: &RangeQuery) -> f64 {
        engine::estimate_words(self, query, |w, c| if w <= c - w { w } else { c - w + 3.0 })
    }
}

impl<B: BitStore> InBandNotMatchEquality<B> {
    /// Builds the index (missing rows are simply absent from every bitmap).
    pub fn build(dataset: &Dataset) -> Self {
        InBandNotMatchEquality {
            attrs: build_attrs(dataset, false),
            n_rows: dataset.n_rows(),
            read_words: OnceLock::new(),
        }
    }

    /// Size accounting.
    pub fn size_report(&self) -> SizeReport {
        size_report(&self.attrs, self.n_rows)
    }

    /// Evaluates one interval. The complement path wrongly *includes*
    /// missing rows (they are 0 everywhere, so NOT turns them on); without a
    /// `B_0` the only recovery is to re-derive the present-row mask by ORing
    /// **every** value bitmap — `C` extra reads, which is the point.
    pub fn evaluate_interval(&self, attr: usize, iv: Interval, cost: &mut WorkCounters) -> B {
        let a = &self.attrs[attr];
        let c = a.cardinality as usize;
        let (v1, v2) = (iv.lo as usize, iv.hi as usize);
        // Choose the smaller bitmap set (the paper's prose: complement when
        // the range "includes more than half of the cardinality"; Fig. 2's
        // span test v2−v1 ≤ ⌊C/2⌋ can pick the larger side for even C —
        // comparing set sizes keeps the min(AS, 1−AS)·C + 1 bound tight).
        let width = v2 - v1 + 1;
        if width <= c - width {
            engine::or_all(a.values[v1 - 1..v2].iter(), cost).expect("non-empty range")
        } else {
            let outside = a.values[..v1 - 1].iter().chain(a.values[v2..].iter());
            let neg = match engine::or_all(outside, cost) {
                Some(x) => engine::not(&x, cost),
                None => B::ones(self.n_rows),
            };
            if a.has_missing {
                let present = engine::or_all(a.values.iter(), cost).expect("c ≥ 1");
                engine::and(&neg, &present, cost)
            } else {
                neg
            }
        }
    }

    /// Total bytes of all stored bitmaps.
    pub fn size_bytes(&self) -> usize {
        self.size_report().total_bytes()
    }

    /// Executes a query; only [`MissingPolicy::IsNotMatch`] is supported.
    ///
    /// # Panics
    /// Panics on a match query. (The [`AccessMethod`] surface returns
    /// [`Error::UnsupportedPolicy`] instead.)
    pub fn execute_with_cost(&self, query: &RangeQuery) -> Result<(RowSet, WorkCounters)> {
        assert_eq!(
            query.policy(),
            MissingPolicy::IsNotMatch,
            "in-band not-match encoding hard-wires not-match semantics"
        );
        engine::run_rows(self, query, 1)
    }
}

impl<B: BitStore> BitmapExec for InBandNotMatchEquality<B> {
    type Store = B;

    fn exec_rows(&self) -> usize {
        self.n_rows
    }

    fn exec_attrs(&self) -> usize {
        self.attrs.len()
    }

    fn exec_cardinality(&self, attr: usize) -> u16 {
        self.attrs[attr].cardinality
    }

    fn exec_stored(&self) -> impl Iterator<Item = &B> {
        self.attrs.iter().flat_map(|a| a.values.iter())
    }

    fn exec_read_words(&self) -> &OnceLock<f64> {
        &self.read_words
    }

    fn exec_interval(
        &self,
        attr: usize,
        iv: Interval,
        _policy: MissingPolicy,
        cost: &mut WorkCounters,
    ) -> B {
        self.evaluate_interval(attr, iv, cost)
    }
}

impl<B: BitStore> AccessMethod for InBandNotMatchEquality<B> {
    fn name(&self) -> &'static str {
        "bitmap-inband-notmatch"
    }

    fn supports(&self, query: &RangeQuery) -> bool {
        query.policy() == MissingPolicy::IsNotMatch
    }

    fn execute_with_cost(&self, query: &RangeQuery) -> Result<(RowSet, WorkCounters)> {
        if !self.supports(query) {
            return Err(Error::UnsupportedPolicy {
                method: "bitmap-inband-notmatch",
            });
        }
        engine::run_rows(self, query, 1)
    }

    fn size_bytes(&self) -> usize {
        InBandNotMatchEquality::size_bytes(self)
    }

    fn execute_count(&self, query: &RangeQuery) -> Result<usize> {
        if !self.supports(query) {
            return Err(Error::UnsupportedPolicy {
                method: "bitmap-inband-notmatch",
            });
        }
        engine::run_count(self, query)
    }

    // The complement path re-derives the present mask from all C value
    // bitmaps — objection #1's cost for this variant.
    fn estimated_cost(&self, query: &RangeQuery) -> f64 {
        engine::estimate_words(
            self,
            query,
            |w, c| if w <= c - w { w } else { (c - w) + c + 1.0 },
        )
    }
}

/// Used by tests: a `BitVec64`-backed in-band index never compresses, but
/// WAH-backed instances show the run-interruption effect.
pub type InBandMatchWah = InBandMatchEquality<ibis_bitvec::Wah>;

#[allow(unused)]
fn _assert_object_safety(_: &InBandMatchEquality<BitVec64>) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EqualityBitmapIndex;
    use ibis_bitvec::Wah;
    use ibis_core::{gen::uniform_column, scan, Cell, Column, Predicate};
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
    fn direct_path_queries_match_scan() {
        let d = sample();
        let inband_m = InBandMatchEquality::<Wah>::try_build(&d).unwrap();
        let inband_n = InBandNotMatchEquality::<Wah>::build(&d);
        for lo in 1..=5u16 {
            for hi in lo..=5u16 {
                let qm = RangeQuery::new(vec![Predicate::range(0, lo, hi)], MissingPolicy::IsMatch)
                    .unwrap();
                assert_eq!(
                    inband_m.execute_with_cost(&qm).unwrap().0,
                    scan::execute(&d, &qm)
                );
                let qn = qm.with_policy(MissingPolicy::IsNotMatch);
                assert_eq!(
                    inband_n.execute_with_cost(&qn).unwrap().0,
                    scan::execute(&d, &qn)
                );
            }
        }
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
