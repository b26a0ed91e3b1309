//! Per-shard synopses: tiny per-attribute statistics (min/max over present
//! values, missing count) that let a sharded database prove, before touching
//! any index, that *no* row of a shard can answer a query.
//!
//! The pruning rules are the paper's two missing-data semantics turned into
//! partition-elimination logic:
//!
//! * Under [`MissingPolicy::IsNotMatch`], a row must be **present and in
//!   range** on every queried attribute. A shard prunes on a predicate if the
//!   queried attribute is all-missing in the shard, or if the shard's
//!   present-value `[min, max]` envelope does not intersect the interval.
//! * Under [`MissingPolicy::IsMatch`], a missing value *is* a match — so a
//!   shard with `missing_count > 0` on a queried attribute can **never** be
//!   pruned on that attribute, no matter where the interval lies. Only an
//!   attribute with zero missing values and a disjoint envelope eliminates
//!   the shard.
//!
//! The synopsis is a *conservative over-approximation*: it is updated on
//! append but not narrowed on delete, so a pruned shard is always truly
//! empty of answers, while a non-pruned shard may still return nothing.
//!
//! ```
//! use ibis_core::synopsis::ShardSynopsis;
//! use ibis_core::{Cell, Dataset, MissingPolicy, Predicate, RangeQuery};
//!
//! // A shard where attribute 0 is all-missing and attribute 1 spans 2..=4.
//! let shard = Dataset::from_rows(
//!     &[("a", 9), ("b", 9)],
//!     &[
//!         vec![Cell::MISSING, Cell::present(2)],
//!         vec![Cell::MISSING, Cell::present(4)],
//!     ],
//! )
//! .unwrap();
//! let syn = ShardSynopsis::of(&shard);
//!
//! let on_a = RangeQuery::new(vec![Predicate::range(0, 1, 9)], MissingPolicy::IsNotMatch).unwrap();
//! // IsNotMatch + all-missing attribute: no row can be present-and-in-range.
//! assert!(syn.can_prune(&on_a));
//! // IsMatch: every row matches on a missing attribute — never prunable.
//! assert!(!syn.can_prune(&on_a.with_policy(MissingPolicy::IsMatch)));
//!
//! let off_b = RangeQuery::new(vec![Predicate::range(1, 7, 9)], MissingPolicy::IsMatch).unwrap();
//! // Attribute 1 has no missing values and its envelope [2,4] misses [7,9].
//! assert!(syn.can_prune(&off_b));
//! ```

use crate::{Cell, Column, Dataset, Interval, MissingPolicy, RangeQuery};

/// Per-attribute summary: the `[min, max]` envelope of *present* values plus
/// the missing count. `lo > hi` encodes "no present values observed yet".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttrSynopsis {
    /// Minimum present value, or `u16::MAX` when none has been observed.
    pub lo: u16,
    /// Maximum present value, or `0` when none has been observed.
    pub hi: u16,
    /// Number of rows in which this attribute is missing.
    pub missing: usize,
}

impl AttrSynopsis {
    /// The empty synopsis: no rows observed.
    pub const EMPTY: AttrSynopsis = AttrSynopsis {
        lo: u16::MAX,
        hi: 0,
        missing: 0,
    };

    /// Folds one cell into the summary.
    #[inline]
    pub fn observe(&mut self, cell: Cell) {
        match cell.value() {
            Some(v) => {
                self.lo = self.lo.min(v);
                self.hi = self.hi.max(v);
            }
            None => self.missing = self.missing.saturating_add(1),
        }
    }

    /// `true` if no present value has been observed (all rows missing, or no
    /// rows at all).
    #[inline]
    pub fn all_missing(&self) -> bool {
        self.lo > self.hi
    }

    /// `true` if some present value of this attribute could fall in `iv` —
    /// i.e. the envelope `[lo, hi]` intersects the interval.
    #[inline]
    pub fn envelope_intersects(&self, iv: Interval) -> bool {
        !self.all_missing() && self.lo <= iv.hi && iv.lo <= self.hi
    }
}

/// Summary of one shard: row count plus an [`AttrSynopsis`] per attribute.
///
/// Read off a shard's base value histograms with
/// [`ShardSynopsis::from_counts`] (or [`ShardSynopsis::of`] a dataset) and
/// extended row-by-row on append with [`ShardSynopsis::observe_row`].
/// Deletes do not narrow it — the synopsis stays a sound over-approximation
/// of what the shard might contain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSynopsis {
    /// Number of rows folded into the synopsis (base + appended).
    pub row_count: usize,
    /// One summary per attribute, in schema order.
    pub attrs: Vec<AttrSynopsis>,
}

impl ShardSynopsis {
    /// An empty synopsis over a `width`-attribute schema.
    pub fn empty(width: usize) -> ShardSynopsis {
        ShardSynopsis {
            row_count: 0,
            attrs: vec![AttrSynopsis::EMPTY; width],
        }
    }

    /// Builds the synopsis of a full dataset from its value histograms.
    pub fn of(dataset: &Dataset) -> ShardSynopsis {
        let counts: Vec<Vec<usize>> = dataset.columns().iter().map(Column::value_counts).collect();
        ShardSynopsis::from_counts(dataset.n_rows(), &counts)
    }

    /// Reads the synopsis of `row_count` rows off one value histogram per
    /// attribute, as [`Column::value_counts`] returns it: bucket 0 is the
    /// missing count, and the envelope runs from the first to the last
    /// non-empty bucket `v ≥ 1`.
    pub fn from_counts(row_count: usize, counts: &[Vec<usize>]) -> ShardSynopsis {
        let attr = |counts: &Vec<usize>| {
            let Some((&missing, present)) = counts.split_first() else {
                return AttrSynopsis::EMPTY;
            };
            let value = |i: usize| i as u16 + 1;
            AttrSynopsis {
                lo: present.iter().position(|&c| c > 0).map_or(u16::MAX, value),
                hi: present.iter().rposition(|&c| c > 0).map_or(0, value),
                missing,
            }
        };
        ShardSynopsis {
            row_count,
            attrs: counts.iter().map(attr).collect(),
        }
    }

    /// Folds one appended row (one cell per attribute, schema order) into
    /// the synopsis. Extra cells beyond the schema width are ignored.
    pub fn observe_row(&mut self, row: &[Cell]) {
        self.row_count = self.row_count.saturating_add(1);
        for (s, &cell) in self.attrs.iter_mut().zip(row) {
            s.observe(cell);
        }
    }

    /// `true` if the synopsis proves no row of the shard can match `query`
    /// under the query's own [`MissingPolicy`]. An empty shard is always
    /// prunable; an out-of-schema predicate never prunes (validation is the
    /// executor's job, not the synopsis's).
    pub fn can_prune(&self, query: &RangeQuery) -> bool {
        if self.row_count == 0 {
            return true;
        }
        query.predicates().iter().any(|p| {
            let Some(s) = self.attrs.get(p.attr) else {
                return false;
            };
            match query.policy() {
                // Present-and-in-range required: an all-missing attribute or
                // a disjoint envelope eliminates every row.
                MissingPolicy::IsNotMatch => !s.envelope_intersects(p.interval),
                // Missing matches: only a fully-present attribute with a
                // disjoint envelope can eliminate the shard.
                MissingPolicy::IsMatch => s.missing == 0 && !s.envelope_intersects(p.interval),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scan, Predicate};

    fn m() -> Cell {
        Cell::MISSING
    }
    fn v(x: u16) -> Cell {
        Cell::present(x)
    }

    fn shard() -> Dataset {
        Dataset::from_rows(
            &[("a", 10), ("b", 10)],
            &[
                vec![v(3), m()],
                vec![v(5), v(2)],
                vec![m(), v(6)],
                vec![v(4), v(4)],
            ],
        )
        .unwrap()
    }

    fn q1(attr: usize, lo: u16, hi: u16, policy: MissingPolicy) -> RangeQuery {
        RangeQuery::new(vec![Predicate::range(attr, lo, hi)], policy).unwrap()
    }

    #[test]
    fn envelope_and_missing_counts() {
        let syn = ShardSynopsis::of(&shard());
        assert_eq!(syn.row_count, 4);
        assert_eq!(
            syn.attrs[0],
            AttrSynopsis {
                lo: 3,
                hi: 5,
                missing: 1
            }
        );
        assert_eq!(
            syn.attrs[1],
            AttrSynopsis {
                lo: 2,
                hi: 6,
                missing: 1
            }
        );
    }

    #[test]
    fn not_match_prunes_on_disjoint_envelope() {
        let syn = ShardSynopsis::of(&shard());
        assert!(syn.can_prune(&q1(0, 7, 9, MissingPolicy::IsNotMatch)));
        assert!(syn.can_prune(&q1(0, 1, 2, MissingPolicy::IsNotMatch)));
        assert!(!syn.can_prune(&q1(0, 5, 9, MissingPolicy::IsNotMatch)));
    }

    #[test]
    fn is_match_with_missing_never_prunes_on_that_attribute() {
        // The paper's IsMatch semantics as a pruning rule: attribute 0 has a
        // missing value, so no interval on attribute 0 can eliminate the
        // shard — the row with the missing cell always matches there.
        let syn = ShardSynopsis::of(&shard());
        for (lo, hi) in [(7, 9), (1, 2), (1, 10)] {
            assert!(
                !syn.can_prune(&q1(0, lo, hi, MissingPolicy::IsMatch)),
                "interval {lo}..={hi} must not prune: attr 0 has missing rows"
            );
        }
    }

    #[test]
    fn is_match_prunes_only_fully_present_disjoint_attributes() {
        let data = Dataset::from_rows(
            &[("a", 10)],
            &[vec![v(2)], vec![v(3)], vec![v(4)]], // no missing values
        )
        .unwrap();
        let syn = ShardSynopsis::of(&data);
        assert!(syn.can_prune(&q1(0, 6, 9, MissingPolicy::IsMatch)));
        assert!(!syn.can_prune(&q1(0, 4, 9, MissingPolicy::IsMatch)));
    }

    #[test]
    fn not_match_prunes_all_missing_attribute_outright() {
        let data = Dataset::from_rows(&[("a", 10), ("b", 10)], &[vec![m(), v(5)], vec![m(), v(7)]])
            .unwrap();
        let syn = ShardSynopsis::of(&data);
        // Even the widest interval cannot match a value that is never there.
        assert!(syn.can_prune(&q1(0, 1, 10, MissingPolicy::IsNotMatch)));
        assert!(!syn.can_prune(&q1(0, 1, 10, MissingPolicy::IsMatch)));
    }

    #[test]
    fn empty_shard_is_always_prunable() {
        let syn = ShardSynopsis::empty(3);
        for policy in MissingPolicy::ALL {
            assert!(syn.can_prune(&q1(0, 1, 5, policy)));
        }
    }

    #[test]
    fn observe_row_matches_batch_build() {
        use crate::gen::uniform_column;
        use rand::{rngs::StdRng, SeedableRng};
        // The worked shard, an empty one, and random ones with a
        // fully-present column, an all-missing one and the widest domain.
        let mut datasets = vec![shard(), shard().slice_rows(0..0)];
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n_rows = seed as usize * 37 % 200;
            let columns = [(1u16, 0.0), (7, 0.3), (300, 0.9), (5, 1.0), (u16::MAX, 0.2)]
                .iter()
                .enumerate()
                .map(|(i, &(c, m))| uniform_column(&format!("a{i}"), n_rows, c, m, &mut rng))
                .collect();
            datasets.push(Dataset::new(columns).unwrap());
        }
        for data in &datasets {
            let mut incremental = ShardSynopsis::empty(data.n_attrs());
            for r in 0..data.n_rows() {
                incremental.observe_row(&data.row(r));
            }
            let counts: Vec<Vec<usize>> = data.columns().iter().map(Column::value_counts).collect();
            assert_eq!(
                ShardSynopsis::from_counts(data.n_rows(), &counts),
                incremental
            );
            assert_eq!(ShardSynopsis::of(data), incremental);
        }
    }

    #[test]
    fn pruning_is_sound_against_the_scan_truth() {
        // Exhaustive-ish sweep: whenever the synopsis prunes, the scan over
        // the shard must return zero rows under the same query.
        let data = shard();
        let syn = ShardSynopsis::of(&data);
        for policy in MissingPolicy::ALL {
            for attr in 0..2 {
                for lo in 1..=10u16 {
                    for hi in lo..=10u16 {
                        let q = q1(attr, lo, hi, policy);
                        if syn.can_prune(&q) {
                            assert!(
                                scan::execute(&data, &q).is_empty(),
                                "unsound prune: attr {attr} {lo}..={hi} {policy}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn out_of_schema_predicate_never_prunes() {
        let syn = ShardSynopsis::of(&shard());
        assert!(!syn.can_prune(&q1(9, 1, 2, MissingPolicy::IsNotMatch)));
    }
}
