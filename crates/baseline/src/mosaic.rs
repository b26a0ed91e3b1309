//! MOSAIC — multiple one-dimensional one-attribute indexes (paper ref.
//! [12], Ooi/Goh/Tan VLDB'98).
//!
//! One B+-tree per attribute, with missing data mapped to the distinguished
//! key `0`. A `k`-dimensional query decomposes into per-attribute scans —
//! "2k subqueries, one for each attribute" under match semantics (a range
//! scan plus a missing-key lookup per dimension) — whose row-id sets are
//! then intersected. The paper's §2 critique, which the work counters here
//! let experiments verify: the set operations are the expensive part, and
//! any dimension with many matches drags the whole query down.

use crate::BPlusTree;
use ibis_core::{
    AccessMethod, Answer, Dataset, MissingPolicy, RangeQuery, Result, RowSet, WorkCounters,
};

/// The MOSAIC baseline: independent B+-trees per attribute.
#[derive(Clone, Debug)]
pub struct Mosaic {
    trees: Vec<BPlusTree>,
    cardinalities: Vec<u16>,
    n_rows: usize,
}

impl Mosaic {
    /// Builds one B+-tree per column (key 0 = missing).
    pub fn build(dataset: &Dataset) -> Mosaic {
        let trees = dataset
            .columns()
            .iter()
            .map(|col| {
                BPlusTree::from_pairs(
                    col.raw()
                        .iter()
                        .enumerate()
                        .map(|(row, &raw)| (raw, row as u32)),
                )
            })
            .collect();
        Mosaic {
            trees,
            cardinalities: dataset.columns().iter().map(|c| c.cardinality()).collect(),
            n_rows: dataset.n_rows(),
        }
    }

    /// Number of per-attribute trees.
    pub fn n_attrs(&self) -> usize {
        self.trees.len()
    }

    /// Total index size in bytes: every per-attribute B+-tree.
    pub fn size_bytes(&self) -> usize {
        self.trees.iter().map(|t| t.size_bytes()).sum::<usize>() + 2 * self.cardinalities.len()
    }

    /// Executes a query, returning matching rows and work counters.
    pub fn execute_with_cost(&self, query: &RangeQuery) -> Result<(RowSet, WorkCounters)> {
        query.validate_schema(self.trees.len(), |a| self.cardinalities[a])?;
        let mut stats = WorkCounters::default();
        let mut acc: Option<RowSet> = None;
        for p in query.predicates() {
            let tree = &self.trees[p.attr];
            stats.subqueries += 1;
            let mut rows = tree.range(p.interval.lo, p.interval.hi, &mut stats);
            if query.policy() == MissingPolicy::IsMatch {
                // The second subquery of the pair: fetch the missing rows.
                stats.subqueries += 1;
                let missing = tree.lookup(0, &mut stats);
                if !missing.is_empty() {
                    stats.set_ops += 1; // union
                    rows.extend_from_slice(&missing);
                }
            }
            let set = RowSet::from_unsorted(rows);
            acc = Some(match acc {
                None => set,
                Some(prev) => {
                    stats.set_ops += 1; // intersection
                    prev.intersect(&set)
                }
            });
        }
        let rows = acc.unwrap_or_else(|| RowSet::all(self.n_rows as u32));
        // Common work currency: each scanned posting is a 4-byte row id,
        // each visited B+-tree node one 8-byte word of header/key work.
        stats.words_processed = (stats.entries_scanned * 4).div_ceil(8) + stats.nodes_visited;
        Ok((rows, stats))
    }
}

impl AccessMethod for Mosaic {
    fn name(&self) -> &'static str {
        "mosaic"
    }

    fn size_bytes(&self) -> usize {
        Mosaic::size_bytes(self)
    }

    fn answer(&self, query: &RangeQuery, _threads: usize) -> Result<(Answer, WorkCounters)> {
        let mut span = ibis_obs::span("mosaic.lookup");
        let (rows, cost) = Mosaic::execute_with_cost(self, query)?;
        cost.record_into(&mut span);
        Ok((Answer::Ids(rows), cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_core::gen::synthetic_scaled;
    use ibis_core::gen::{workload, QuerySpec};
    use ibis_core::{scan, Predicate};

    #[test]
    fn matches_scan_on_small_example() {
        use ibis_core::Cell;
        let v = Cell::present;
        let m = Cell::MISSING;
        let d = Dataset::from_rows(
            &[("a", 5), ("b", 5)],
            &[
                vec![v(5), v(1)],
                vec![v(2), m],
                vec![m, v(3)],
                vec![v(3), v(3)],
                vec![v(1), v(5)],
            ],
        )
        .unwrap();
        let idx = Mosaic::build(&d);
        for policy in MissingPolicy::ALL {
            for lo in 1..=5u16 {
                for hi in lo..=5u16 {
                    let q = RangeQuery::new(
                        vec![Predicate::range(0, lo, hi), Predicate::range(1, 1, 3)],
                        policy,
                    )
                    .unwrap();
                    assert_eq!(idx.execute(&q).unwrap(), scan::execute(&d, &q), "{policy}");
                }
            }
        }
    }

    #[test]
    fn subquery_count_is_2k_under_match() {
        let d = synthetic_scaled(400, 12);
        let idx = Mosaic::build(&d);
        let q = RangeQuery::new(
            vec![
                Predicate::range(0, 1, 1),
                Predicate::range(120, 2, 6),
                Predicate::range(300, 1, 20),
            ],
            MissingPolicy::IsMatch,
        )
        .unwrap();
        let (_, stats) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(stats.subqueries, 6); // 2k
        let q = q.with_policy(MissingPolicy::IsNotMatch);
        let (_, stats) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(stats.subqueries, 3); // k
    }

    #[test]
    fn set_operation_cost_scales_with_dimensionality() {
        let d = synthetic_scaled(400, 13);
        let idx = Mosaic::build(&d);
        let preds: Vec<Predicate> = (0..6).map(|i| Predicate::range(i * 70, 1, 2)).collect();
        let q = RangeQuery::new(preds, MissingPolicy::IsMatch).unwrap();
        let (_, stats) = idx.execute_with_cost(&q).unwrap();
        assert!(
            stats.set_ops >= 5,
            "k−1 intersections at minimum: {stats:?}"
        );
    }

    #[test]
    fn workload_differential_vs_scan() {
        let d = synthetic_scaled(600, 14);
        let idx = Mosaic::build(&d);
        for policy in MissingPolicy::ALL {
            let spec = QuerySpec {
                n_queries: 15,
                k: 4,
                global_selectivity: 0.02,
                policy,
                candidate_attrs: vec![],
            };
            for q in workload(&d, &spec, 4) {
                assert_eq!(idx.execute(&q).unwrap(), scan::execute(&d, &q), "{policy}");
            }
        }
    }

    #[test]
    fn empty_key_matches_all() {
        let d = synthetic_scaled(50, 15);
        let idx = Mosaic::build(&d);
        let q = RangeQuery::new(vec![], MissingPolicy::IsMatch).unwrap();
        assert_eq!(idx.execute(&q).unwrap().len(), 50);
    }
}
