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
use ibis_core::{AccessMethod, Answer, Dataset, RangeQuery, Result, WorkCounters};
use std::sync::Arc;

/// A [`VaFile`] or [`VaPlusFile`] bound to its base dataset. Only its
/// lookup tables tell a VA+-file from a VA-file, so both bind to the
/// VA-file inside, and differ only in the name they report.
#[derive(Clone, Debug)]
pub struct BoundVaFile {
    name: &'static str,
    file: Arc<VaFile>,
    base: Arc<Dataset>,
}

impl BoundVaFile {
    /// # Panics
    /// Panics if `base` has a different row count than `file`.
    fn new(name: &'static str, file: VaFile, base: Arc<Dataset>) -> BoundVaFile {
        assert_eq!(base.n_rows(), file.n_rows(), "dataset/index row mismatch");
        BoundVaFile {
            name,
            file: Arc::new(file),
            base,
        }
    }
}

impl VaFile {
    /// Binds the file to the dataset it was built from, producing an
    /// [`AccessMethod`].
    ///
    /// # Panics
    /// Panics if `base` has a different row count than the file.
    pub fn bind(self, base: Arc<Dataset>) -> BoundVaFile {
        BoundVaFile::new("va-file", self, base)
    }
}

impl VaPlusFile {
    /// Binds the file to the dataset it was built from, producing an
    /// [`AccessMethod`] named `"va-plus-file"`.
    ///
    /// # Panics
    /// Panics if `base` has a different row count than the file.
    pub fn bind(self, base: Arc<Dataset>) -> BoundVaFile {
        BoundVaFile::new("va-plus-file", self.inner, base)
    }
}

impl AccessMethod for BoundVaFile {
    fn name(&self) -> &'static str {
        self.name
    }

    fn size_bytes(&self) -> usize {
        self.file.size_bytes()
    }

    /// The filter scan with up to `threads` workers: each runs the filter +
    /// refinement loop over one contiguous row slice — one slice inline,
    /// more on the pool's parked workers — and `merge_scan` joins the
    /// ordered slices' ids into one answer. Rows and counters are identical
    /// to [`VaFile::execute_with_cost`] for any thread count.
    fn answer(&self, query: &RangeQuery, threads: usize) -> Result<(Answer, WorkCounters)> {
        let plans = self.file.plan(&self.base, query)?;
        let scan_span = ibis_obs::span("va.scan");
        let ranges = partition(self.file.n_rows(), threads);
        let (file, data, owned) = (
            Arc::clone(&self.file),
            Arc::clone(&self.base),
            query.clone(),
        );
        let slices = ExecPool::new(threads).map(ranges, move |rows| {
            file.scan_range(&data, &owned, &plans, rows)
        });
        let (rows, cost) = merge_scan(scan_span, query, slices);
        Ok((Answer::Ids(rows), cost))
    }

    /// The filter scan reads `n` rows × `b_i + 1` bits per queried
    /// attribute (the +1 absorbs decode and boundary-refinement work): §6's
    /// `(b_i + 1) / 16` of the scan's 16 bits per cell, priced against
    /// [`SCAN_CELL_PRICE`].
    fn estimated_cost(&self, query: &RangeQuery) -> f64 {
        let n = self.file.n_rows() as f64;
        query
            .predicates()
            .iter()
            .map(|p| match self.file.attrs.get(p.attr) {
                Some(a) => n * SCAN_CELL_PRICE * (a.bits as f64 + 1.0) / 16.0,
                None => f64::INFINITY,
            })
            .sum()
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
        // The reference is each file's own unbound, unsliced scan.
        let va = VaFile::with_bits(&d, &[3, 2]);
        let vap = VaPlusFile::with_bits(&d, &[3, 2]);
        let bound = [
            va.clone().bind(Arc::clone(&d)),
            vap.clone().bind(Arc::clone(&d)),
        ];
        for policy in MissingPolicy::ALL {
            let q = RangeQuery::new(
                vec![Predicate::range(0, 10, 30), Predicate::range(1, 5, 15)],
                policy,
            )
            .unwrap();
            for (file, m) in [&va, &vap.inner].into_iter().zip(&bound) {
                let seq = file.execute_with_cost(&d, &q).unwrap();
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
