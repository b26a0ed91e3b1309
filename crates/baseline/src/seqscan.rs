//! The index-free baseline: a full sequential scan.

use ibis_bitvec::BitVec64;
use ibis_core::engine::SCAN_CELL_PRICE;
use ibis_core::parallel::{partition, ExecPool};
use ibis_core::{scan, AccessMethod, Answer, Dataset, RangeQuery, Result, RowSet, WorkCounters};
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

impl AccessMethod for BoundScan {
    fn name(&self) -> &'static str {
        "sequential-scan"
    }

    /// A row-range–partitioned scan: the rows split into up to `threads`
    /// contiguous slices cut at multiples of 64 rows, each evaluated by the
    /// scan kernel ([`scan::mask`]) with its own entry count — one slice
    /// inline, more on the pool's parked workers. Each slice's mask is a
    /// word range of the answer, so the slices join into one bit-vector by
    /// copying words. Rows and counters are identical to
    /// [`SequentialScan::execute_with_cost`] for any thread count:
    /// per-slice entry counts sum to `n · k`, and the word total is derived
    /// once from that sum (not from per-slice roundings). As in the
    /// VA-file, chunk spans carry the per-slice entry counts and the
    /// wrapping `scan.scan` span the merged counters, whose self delta is
    /// the once-derived word total.
    fn answer(&self, query: &RangeQuery, threads: usize) -> Result<(Answer, WorkCounters)> {
        query.validate(&self.base)?;
        let k = query.dimensionality().max(1);
        let mut scan_span = ibis_obs::span("scan.scan");
        let n = self.base.n_rows();
        let ranges = partition(n.div_ceil(64), threads)
            .into_iter()
            .map(|words| words.start * 64..(words.end * 64).min(n))
            .collect();
        let (data, owned) = (Arc::clone(&self.base), query.clone());
        let partials = ExecPool::new(threads).map(ranges, move |range| {
            let mut span = ibis_obs::span("scan.chunk");
            span.add_field("rows", range.len() as u64);
            let entries = range.len() * k;
            let mask = scan::mask(&data, &owned, range);
            if span.is_recording() {
                span.add_field("entries_scanned", entries as u64);
            }
            (mask, entries)
        });
        let (masks, entries): (Vec<BitVec64>, Vec<usize>) = partials.into_iter().unzip();
        let mut stats = WorkCounters {
            entries_scanned: entries.iter().sum(),
            ..WorkCounters::default()
        };
        stats.words_processed = stats.entries_scanned.div_ceil(4);
        stats.record_into(&mut scan_span);
        Ok((Answer::Bits(BitVec64::concat(masks)), stats))
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
