//! The bitstring-augmented index (paper ref. [12]).
//!
//! Missing values are *completed* with the attribute's mean over the
//! non-missing values — "the goal is to avoid skewing the data by assigning
//! missing values to several distinct values" — and every record carries a
//! bitstring recording which attributes were actually missing. The
//! completed, fully-populated points go into a traditional multi-dimensional
//! index (an R-tree here).
//!
//! Because a completed coordinate is indistinguishable from a real value
//! inside the index, a `k`-attribute query must expand into `2^k`
//! subqueries — one per missing/non-missing combination of the search-key
//! attributes — with the bitstring filtering each subquery's candidates.
//! That exponential expansion is exactly why the paper rejects the approach
//! for large `k`.

use crate::rtree::{finish_tree_words, RTree, Rect};
use ibis_core::{
    AccessMethod, Answer, Dataset, MissingPolicy, RangeQuery, Result, RowSet, WorkCounters,
};

/// The bitstring-augmented baseline.
#[derive(Clone, Debug)]
pub struct BitstringAugmented {
    tree: RTree,
    /// Per-row missingness bitstring (bit `a` set ⇔ attribute `a` missing).
    /// Capped at 64 attributes, plenty for the paper's workloads.
    bitstrings: Vec<u64>,
    /// Mean-of-present completion value per attribute.
    fill: Vec<u16>,
    cardinalities: Vec<u16>,
}

impl BitstringAugmented {
    /// Builds over every attribute of `dataset` (at most 64).
    ///
    /// # Panics
    /// Panics if the dataset has more than 64 attributes.
    pub fn build(dataset: &Dataset) -> BitstringAugmented {
        let d = dataset.n_attrs();
        assert!(d <= 64, "bitstring capped at 64 attributes");
        // Completion values: rounded mean of the present values.
        let fill: Vec<u16> = dataset
            .columns()
            .iter()
            .map(|col| {
                let (mut sum, mut n) = (0u64, 0u64);
                for &raw in col.raw() {
                    if raw != 0 {
                        sum += raw as u64;
                        n += 1;
                    }
                }
                if n == 0 {
                    1 // arbitrary in-domain value; every row is missing anyway
                } else {
                    ((sum as f64 / n as f64).round() as u16).clamp(1, col.cardinality())
                }
            })
            .collect();

        let mut tree = RTree::new(d.max(1));
        let mut bitstrings = vec![0u64; dataset.n_rows()];
        let columns: Vec<&[u16]> = dataset.columns().iter().map(|c| c.raw()).collect();
        let mut point = vec![0u16; d];
        for row in 0..dataset.n_rows() {
            for (a, col) in columns.iter().enumerate() {
                let raw = col[row];
                if raw == 0 {
                    bitstrings[row] |= 1 << a;
                    point[a] = fill[a];
                } else {
                    point[a] = raw;
                }
            }
            tree.insert(&point, row as u32);
        }
        BitstringAugmented {
            tree,
            bitstrings,
            fill,
            cardinalities: dataset.columns().iter().map(|c| c.cardinality()).collect(),
        }
    }

    /// Executes a query, returning matching rows and work counters.
    pub fn execute_with_cost(&self, query: &RangeQuery) -> Result<(RowSet, WorkCounters)> {
        query.validate_schema(self.cardinalities.len(), |a| self.cardinalities[a])?;
        let mut stats = WorkCounters::default();
        let preds = query.predicates();
        let d = self.cardinalities.len();
        let base = Rect {
            lo: vec![1u16; d],
            hi: self.cardinalities.clone(),
        };

        let rows = match query.policy() {
            MissingPolicy::IsNotMatch => {
                // One subquery: all queried attributes present and in range.
                let mut rect = base;
                for p in preds {
                    rect.lo[p.attr] = p.interval.lo;
                    rect.hi[p.attr] = p.interval.hi;
                }
                stats.subqueries = 1;
                let mut queried_mask = 0u64;
                for p in preds {
                    queried_mask |= 1 << p.attr;
                }
                let rows: Vec<u32> = self
                    .tree
                    .search(&rect, &mut stats)
                    .into_iter()
                    // The completed coordinate may fall in range even though
                    // the value is missing; the bitstring rejects those.
                    .filter(|&r| self.bitstrings[r as usize] & queried_mask == 0)
                    .collect();
                RowSet::from_unsorted(rows)
            }
            MissingPolicy::IsMatch => {
                let k = preds.len();
                assert!(k <= 20, "2^k subquery expansion capped at k = 20");
                let mut all = Vec::new();
                for mask in 0u32..(1u32 << k) {
                    stats.subqueries += 1;
                    let mut rect = base.clone();
                    let mut must_miss = 0u64;
                    let mut must_have = 0u64;
                    for (i, p) in preds.iter().enumerate() {
                        if mask & (1 << i) != 0 {
                            // This attribute is "missing" in the subquery:
                            // its completed coordinate is the fill value.
                            rect.lo[p.attr] = self.fill[p.attr];
                            rect.hi[p.attr] = self.fill[p.attr];
                            must_miss |= 1 << p.attr;
                        } else {
                            rect.lo[p.attr] = p.interval.lo;
                            rect.hi[p.attr] = p.interval.hi;
                            must_have |= 1 << p.attr;
                        }
                    }
                    all.extend(
                        self.tree
                            .search(&rect, &mut stats)
                            .into_iter()
                            .filter(|&r| {
                                let bs = self.bitstrings[r as usize];
                                bs & must_miss == must_miss && bs & must_have == 0
                            }),
                    );
                }
                RowSet::from_unsorted(all)
            }
        };
        finish_tree_words(&mut stats, self.cardinalities.len());
        Ok((rows, stats))
    }

    /// Total index size in bytes: completed-point R-tree, per-row
    /// bitstrings, and completion metadata.
    pub fn size_bytes(&self) -> usize {
        self.tree.size_bytes()
            + self.bitstrings.len() * 8
            + self.fill.len() * 2
            + self.cardinalities.len() * 2
    }
}

impl AccessMethod for BitstringAugmented {
    fn name(&self) -> &'static str {
        "bitstring-augmented"
    }

    fn size_bytes(&self) -> usize {
        BitstringAugmented::size_bytes(self)
    }

    fn answer(&self, query: &RangeQuery, _threads: usize) -> Result<(Answer, WorkCounters)> {
        let mut span = ibis_obs::span("bitstring.scan");
        let (rows, cost) = BitstringAugmented::execute_with_cost(self, query)?;
        cost.record_into(&mut span);
        Ok((Answer::Ids(rows), cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_core::gen::uniform_column;
    use ibis_core::{scan, Predicate};
    use rand::{rngs::StdRng, SeedableRng};

    fn data(n: usize, d: usize, missing: f64, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::new(
            (0..d)
                .map(|i| uniform_column(&format!("a{i}"), n, 20, missing, &mut rng))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn matches_scan_both_policies() {
        let d = data(500, 3, 0.25, 31);
        let idx = BitstringAugmented::build(&d);
        for policy in MissingPolicy::ALL {
            for (lo, hi) in [(1u16, 5u16), (5, 15), (10, 20), (7, 7)] {
                let q = RangeQuery::new(
                    vec![Predicate::range(0, lo, hi), Predicate::range(2, 3, 12)],
                    policy,
                )
                .unwrap();
                assert_eq!(
                    idx.execute(&q).unwrap(),
                    scan::execute(&d, &q),
                    "{policy} [{lo},{hi}]"
                );
            }
        }
    }

    #[test]
    fn completion_hides_missing_from_plain_rect() {
        // A record missing attribute 0 is completed with the mean; a plain
        // rectangle query over that mean would return it, the bitstring must
        // reject it under not-match.
        let d = data(400, 2, 0.4, 32);
        let idx = BitstringAugmented::build(&d);
        let fill = idx.fill[0];
        let q =
            RangeQuery::new(vec![Predicate::point(0, fill)], MissingPolicy::IsNotMatch).unwrap();
        let rows = idx.execute(&q).unwrap();
        assert_eq!(rows, scan::execute(&d, &q));
        // And none of the returned rows is missing attribute 0.
        for r in rows.iter() {
            assert_eq!(idx.bitstrings[r as usize] & 1, 0);
        }
    }

    #[test]
    fn exponential_subqueries_under_match() {
        let d = data(200, 4, 0.2, 33);
        let idx = BitstringAugmented::build(&d);
        let preds: Vec<Predicate> = (0..4).map(|a| Predicate::range(a, 5, 15)).collect();
        let q = RangeQuery::new(preds, MissingPolicy::IsMatch).unwrap();
        let (rows, stats) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(stats.subqueries, 16); // 2^4
        assert_eq!(rows, scan::execute(&d, &q));
    }

    #[test]
    fn all_missing_column_handled() {
        let mut rng = StdRng::seed_from_u64(34);
        let d = Dataset::new(vec![
            uniform_column("a", 100, 10, 1.0, &mut rng),
            uniform_column("b", 100, 10, 0.0, &mut rng),
        ])
        .unwrap();
        let idx = BitstringAugmented::build(&d);
        for policy in MissingPolicy::ALL {
            let q = RangeQuery::new(
                vec![Predicate::range(0, 2, 8), Predicate::range(1, 1, 9)],
                policy,
            )
            .unwrap();
            assert_eq!(idx.execute(&q).unwrap(), scan::execute(&d, &q), "{policy}");
        }
    }
}
