//! The index-free baseline: a full sequential scan.

use ibis_bitvec::BitVec64;
use ibis_core::engine::SCAN_CELL_PRICE;
use ibis_core::parallel::{partition, ExecPool};
use ibis_core::{scan, AccessMethod, Dataset, RangeQuery, Result, RowSet, WorkCounters};
use std::sync::Arc;

/// Sequential scan presented through the same interface as the indexes, so
/// the benchmark harness can time every contender identically. Holds only a
/// reference-free handle (the dataset is passed at query time, like the
/// VA-file's refinement source); [`SequentialScan::bind`] closes over a
/// dataset to yield an engine-layer [`AccessMethod`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SequentialScan;

impl SequentialScan {
    /// Executes a query by scanning every record.
    pub fn execute(&self, dataset: &Dataset, query: &RangeQuery) -> Result<RowSet> {
        query.validate(dataset)?;
        Ok(scan::execute(dataset, query))
    }

    /// Executes a query with work counters (every record is an entry scan).
    pub fn execute_with_cost(
        &self,
        dataset: &Dataset,
        query: &RangeQuery,
    ) -> Result<(RowSet, WorkCounters)> {
        let mut span = ibis_obs::span("scan.scan");
        let rows = self.execute(dataset, query)?;
        let entries = dataset.n_rows() * query.dimensionality().max(1);
        let stats = WorkCounters {
            entries_scanned: entries,
            // Each scanned entry is one u16 cell: 2 bytes, 4 per word.
            words_processed: entries.div_ceil(4),
            ..WorkCounters::default()
        };
        stats.record_into(&mut span);
        Ok((rows, stats))
    }

    /// Binds the scan to a dataset, producing an [`AccessMethod`] the
    /// engine-layer registry can hold (and fall back to when no index
    /// covers a query).
    pub fn bind(self, base: Arc<Dataset>) -> BoundScan {
        BoundScan { base }
    }
}

/// A [`SequentialScan`] bound to its dataset: the always-applicable,
/// index-free access method of last resort.
#[derive(Clone, Debug)]
pub struct BoundScan {
    base: Arc<Dataset>,
}

impl BoundScan {
    /// The scan kernel over up to `threads` contiguous row slices, each
    /// slice's start beside its mask, and the merged counters. As in the
    /// VA-file, chunk spans carry the per-slice entry counts and the
    /// wrapping `scan.scan` span the merged counters, whose self delta is
    /// the once-derived word total.
    fn masks(
        &self,
        query: &RangeQuery,
        threads: usize,
    ) -> Result<(Vec<(usize, BitVec64)>, WorkCounters)> {
        query.validate(&self.base)?;
        let k = query.dimensionality().max(1);
        let mut scan_span = ibis_obs::span("scan.scan");
        let ranges = partition(self.base.n_rows(), threads);
        let (data, owned) = (Arc::clone(&self.base), query.clone());
        let partials = ExecPool::new(threads).map(ranges, move |range| {
            let mut span = ibis_obs::span("scan.chunk");
            span.add_field("rows", range.len() as u64);
            let entries = range.len() * k;
            let start = range.start;
            let mask = scan::mask(&data, &owned, range);
            if span.is_recording() {
                span.add_field("entries_scanned", entries as u64);
            }
            ((start, mask), entries)
        });
        let (slices, entries): (Vec<_>, Vec<usize>) = partials.into_iter().unzip();
        let mut stats = WorkCounters {
            entries_scanned: entries.iter().sum(),
            ..WorkCounters::default()
        };
        stats.words_processed = stats.entries_scanned.div_ceil(4);
        stats.record_into(&mut scan_span);
        Ok((slices, stats))
    }
}

impl AccessMethod for BoundScan {
    fn name(&self) -> &'static str {
        "sequential-scan"
    }

    /// A row-range–partitioned scan: the rows split into up to `threads`
    /// contiguous slices, each evaluated by the scan kernel
    /// ([`scan::mask`]) with its own entry count — one slice inline, more
    /// on the pool's parked workers — and each slice's set bits written to
    /// `out` once, at `base` plus the slice's start, in slice order. Rows
    /// and counters are identical to [`SequentialScan::execute_with_cost`]
    /// for any thread count: per-slice entry counts sum to `n · k`, and the
    /// word total is derived once from that sum (not from per-slice
    /// roundings).
    fn execute_into(
        &self,
        query: &RangeQuery,
        threads: usize,
        base: u32,
        out: &mut Vec<u32>,
    ) -> Result<WorkCounters> {
        let (slices, stats) = self.masks(query, threads)?;
        for (start, mask) in slices {
            mask.ones_positions_into(base + start as u32, out);
        }
        Ok(stats)
    }

    /// The same slices as [`execute_into`](Self::execute_into), counted
    /// by popcount: no row id is built.
    fn execute_count_with_cost(&self, query: &RangeQuery) -> Result<(usize, WorkCounters)> {
        let (slices, stats) = self.masks(query, 1)?;
        let count = slices.iter().map(|(_, mask)| mask.count_ones()).sum();
        Ok((count, stats))
    }

    /// The scan stores nothing beyond the base relation.
    fn size_bytes(&self) -> usize {
        0
    }

    /// Every row's `k` queried cells, each at [`SCAN_CELL_PRICE`].
    fn estimated_cost(&self, query: &RangeQuery) -> f64 {
        let n = self.base.n_rows() as f64;
        let k = query.dimensionality().max(1) as f64;
        n * k * SCAN_CELL_PRICE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_core::gen::synthetic_scaled;
    use ibis_core::{MissingPolicy, Predicate};

    #[test]
    fn agrees_with_core_scan_and_counts_work() {
        let d = synthetic_scaled(200, 8);
        let q = RangeQuery::new(
            vec![Predicate::range(0, 1, 1), Predicate::range(200, 1, 10)],
            MissingPolicy::IsMatch,
        )
        .unwrap();
        let (rows, stats) = SequentialScan.execute_with_cost(&d, &q).unwrap();
        assert_eq!(rows, scan::execute(&d, &q));
        assert_eq!(stats.entries_scanned, 400);
        assert_eq!(stats.words_processed, 100);
    }

    #[test]
    fn partitioned_scan_matches_sequential_rows_and_cost() {
        let d = Arc::new(synthetic_scaled(203, 8)); // odd count: uneven final slice
        let bound = SequentialScan.bind(Arc::clone(&d));
        for policy in MissingPolicy::ALL {
            let q = RangeQuery::new(
                vec![Predicate::range(0, 1, 1), Predicate::range(200, 1, 10)],
                policy,
            )
            .unwrap();
            let seq = SequentialScan.execute_with_cost(&d, &q).unwrap();
            for threads in [1, 2, 3, 8] {
                assert_eq!(
                    bound.execute_with_cost_threads(&q, threads).unwrap(),
                    seq,
                    "{policy} t={threads}"
                );
            }
        }
    }

    #[test]
    fn validates_queries() {
        let d = synthetic_scaled(50, 8);
        let q = RangeQuery::new(vec![Predicate::point(999, 1)], MissingPolicy::IsMatch).unwrap();
        assert!(SequentialScan.execute(&d, &q).is_err());
    }

    #[test]
    fn bound_scan_is_an_access_method() {
        let d = Arc::new(synthetic_scaled(120, 9));
        let am = SequentialScan.bind(Arc::clone(&d));
        assert_eq!(am.name(), "sequential-scan");
        assert_eq!(am.size_bytes(), 0);
        let q = RangeQuery::new(
            vec![Predicate::range(0, 1, 1), Predicate::range(50, 1, 5)],
            MissingPolicy::IsNotMatch,
        )
        .unwrap();
        assert_eq!(am.execute(&q).unwrap(), scan::execute(&d, &q));
        assert_eq!(am.estimated_cost(&q), 120.0 * 2.0 * SCAN_CELL_PRICE);
    }
}
