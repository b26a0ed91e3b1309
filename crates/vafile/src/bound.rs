//! [`AccessMethod`] adapters for the VA families.
//!
//! A [`VaFile`] needs the base dataset at query time — refinement "reads the
//! actual database pages" — so the file alone cannot implement the
//! dataset-free [`AccessMethod`] surface. Binding a file to an
//! [`Arc<Dataset>`] closes over that dependency and yields a self-contained
//! access method the engine-layer registry can hold alongside the bitmap
//! indexes.

use crate::vafile::merge_scan;
use crate::{VaFile, VaPlusFile};
use ibis_core::engine::SCAN_CELL_PRICE;
use ibis_core::parallel::{partition, ExecPool};
use ibis_core::{AccessMethod, Dataset, RangeQuery, Result, RowSet, WorkCounters};
use std::sync::Arc;

/// A [`VaFile`] bound to its base dataset.
#[derive(Clone, Debug)]
pub struct BoundVaFile {
    file: Arc<VaFile>,
    base: Arc<Dataset>,
}

/// A [`VaPlusFile`] bound to its base dataset. Only its lookup tables tell
/// it from a VA-file, so it holds the VA-file inside.
#[derive(Clone, Debug)]
pub struct BoundVaPlusFile {
    file: Arc<VaFile>,
    base: Arc<Dataset>,
}

impl VaFile {
    /// Binds the file to the dataset it was built from, producing an
    /// [`AccessMethod`].
    ///
    /// # Panics
    /// Panics if `base` has a different row count than the file.
    pub fn bind(self, base: Arc<Dataset>) -> BoundVaFile {
        assert_eq!(base.n_rows(), self.n_rows(), "dataset/index row mismatch");
        BoundVaFile {
            file: Arc::new(self),
            base,
        }
    }
}

impl VaPlusFile {
    /// Binds the file to the dataset it was built from, producing an
    /// [`AccessMethod`].
    ///
    /// # Panics
    /// Panics if `base` has a different row count than the file.
    pub fn bind(self, base: Arc<Dataset>) -> BoundVaPlusFile {
        assert_eq!(base.n_rows(), self.n_rows(), "dataset/index row mismatch");
        BoundVaPlusFile {
            file: Arc::new(self.inner),
            base,
        }
    }
}

/// The filter scan reads `n` rows × `b_i + 1` bits per queried attribute
/// (the +1 absorbs decode and boundary-refinement work): §6's
/// `(b_i + 1) / 16` of the scan's 16 bits per cell, priced against
/// [`SCAN_CELL_PRICE`].
fn estimate(file: &VaFile, query: &RangeQuery) -> f64 {
    let n = file.n_rows() as f64;
    query
        .predicates()
        .iter()
        .map(|p| match file.attrs.get(p.attr) {
            Some(a) => n * SCAN_CELL_PRICE * (a.bits as f64 + 1.0) / 16.0,
            None => f64::INFINITY,
        })
        .sum()
}

/// Executes `query` with up to `threads` workers: each of the pool's
/// parked workers runs the filter + refinement loop over a contiguous row
/// slice, and [`merge_scan`] concatenates the ordered slices. Rows and
/// counters are identical to the sequential run for any thread count.
fn execute(
    file: &Arc<VaFile>,
    base: &Arc<Dataset>,
    query: &RangeQuery,
    threads: usize,
) -> Result<(RowSet, WorkCounters)> {
    let n = file.n_rows();
    if threads <= 1 || n < 2 {
        return file.execute_with_cost(base, query);
    }
    let plans = file.plan(base, query)?;
    let scan_span = ibis_obs::span("va.scan");
    let (file, base, owned) = (Arc::clone(file), Arc::clone(base), query.clone());
    let slices = ExecPool::new(threads).map(partition(n, threads), move |rows| {
        file.scan_range(&base, &owned, &plans, rows)
    });
    Ok(merge_scan(scan_span, query, slices))
}

impl AccessMethod for BoundVaFile {
    fn name(&self) -> &'static str {
        "va-file"
    }

    fn execute_with_cost(&self, query: &RangeQuery) -> Result<(RowSet, WorkCounters)> {
        self.file.execute_with_cost(&self.base, query)
    }

    fn execute_with_cost_threads(
        &self,
        query: &RangeQuery,
        threads: usize,
    ) -> Result<(RowSet, WorkCounters)> {
        execute(&self.file, &self.base, query, threads)
    }

    fn size_bytes(&self) -> usize {
        self.file.size_bytes()
    }

    fn estimated_cost(&self, query: &RangeQuery) -> f64 {
        estimate(&self.file, query)
    }
}

impl AccessMethod for BoundVaPlusFile {
    fn name(&self) -> &'static str {
        "va-plus-file"
    }

    fn execute_with_cost(&self, query: &RangeQuery) -> Result<(RowSet, WorkCounters)> {
        self.file.execute_with_cost(&self.base, query)
    }

    fn execute_with_cost_threads(
        &self,
        query: &RangeQuery,
        threads: usize,
    ) -> Result<(RowSet, WorkCounters)> {
        execute(&self.file, &self.base, query, threads)
    }

    fn size_bytes(&self) -> usize {
        self.file.size_bytes()
    }

    fn estimated_cost(&self, query: &RangeQuery) -> f64 {
        estimate(&self.file, query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_core::gen::census_scaled;
    use ibis_core::{scan, Column, MissingPolicy, Predicate};

    #[test]
    fn bound_files_agree_with_unbound_and_scan() {
        let d = Arc::new(census_scaled(300, 90));
        let va = VaFile::build(&d).bind(Arc::clone(&d));
        let vap = VaPlusFile::build(&d).bind(Arc::clone(&d));
        for policy in MissingPolicy::ALL {
            let q = RangeQuery::new(vec![Predicate::range(0, 1, 2)], policy).unwrap();
            let expect = scan::execute(&d, &q);
            assert_eq!(va.execute(&q).unwrap(), expect, "{policy}");
            assert_eq!(vap.execute(&q).unwrap(), expect, "{policy}");
            assert_eq!(va.execute_count(&q).unwrap(), expect.len());
        }
        assert_eq!(va.name(), "va-file");
        assert_eq!(vap.name(), "va-plus-file");
        assert!(va.size_bytes() > 0);
        let q = RangeQuery::new(vec![Predicate::point(0, 1)], MissingPolicy::IsMatch).unwrap();
        assert!(va.estimated_cost(&q).is_finite());
        assert!(va.estimated_cost(&q) > 0.0);
    }

    #[test]
    fn partitioned_scan_matches_sequential_rows_and_cost() {
        // Lossy codes so the partitioned path exercises refinement and the
        // word total mixes bits scanned with cells fetched.
        let d = Arc::new(
            Dataset::new(vec![
                Column::from_raw("a", 50, (0..100).map(|i| (i % 51) as u16).collect()).unwrap(),
                Column::from_raw("b", 20, (0..100).map(|i| ((i * 7) % 21) as u16).collect())
                    .unwrap(),
            ])
            .unwrap(),
        );
        let va = VaFile::with_bits(&d, &[3, 2]).bind(Arc::clone(&d));
        let vap = VaPlusFile::with_bits(&d, &[3, 2]).bind(Arc::clone(&d));
        for policy in MissingPolicy::ALL {
            let q = RangeQuery::new(
                vec![Predicate::range(0, 10, 30), Predicate::range(1, 5, 15)],
                policy,
            )
            .unwrap();
            for m in [&va as &dyn AccessMethod, &vap] {
                let seq = m.execute_with_cost(&q).unwrap();
                assert!(seq.1.rows_refined > 0, "coarse codes must refine");
                for threads in [1, 2, 3, 8] {
                    assert_eq!(
                        m.execute_with_cost_threads(&q, threads).unwrap(),
                        seq,
                        "{} {policy} t={threads}",
                        m.name()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "row mismatch")]
    fn bind_rejects_mismatched_dataset() {
        let d = census_scaled(100, 91);
        let other = Arc::new(census_scaled(50, 92));
        let _ = VaFile::build(&d).bind(other);
    }
}
