//! The VA+-file extension: equi-depth quantization for skewed data.
//!
//! The paper's closing remark: "The same modifications made to the basic
//! VA-file to account for missing data could also be applied to the VA-plus
//! file, a technique to quantize skewed data sets described in [6]."
//! [`VaPlusFile`] does exactly that: the missing code `0^b` is unchanged,
//! but the value bins are chosen **equi-depth** from the observed value
//! histogram instead of equal-width, so heavily-populated values stop
//! flooding one bin with candidates.

use crate::vafile::default_bits;
use crate::{Quantizer, VaFile};
use ibis_core::{Dataset, RangeQuery, Result, RowSet, WorkCounters};

/// A VA-file with equi-depth (VA+-style) bins. Same storage, same query
/// path, same missing-data handling — only the lookup tables differ.
#[derive(Clone, Debug)]
pub struct VaPlusFile {
    pub(crate) inner: VaFile,
}

impl VaPlusFile {
    /// Builds with the paper's default widths `b_i = ⌈log₂(C_i + 1)⌉` and
    /// equi-depth bins fitted to `dataset`'s value distribution.
    pub fn build(dataset: &Dataset) -> VaPlusFile {
        let bits: Vec<u8> = dataset
            .columns()
            .iter()
            .map(|c| default_bits(c.cardinality()))
            .collect();
        VaPlusFile::with_bits(dataset, &bits)
    }

    /// Builds with explicit per-attribute code widths (`1..=16` bits each).
    pub fn with_bits(dataset: &Dataset, bits: &[u8]) -> VaPlusFile {
        let quantizers: Vec<Quantizer> = dataset
            .columns()
            .iter()
            .zip(bits)
            .map(|(col, &b)| {
                assert!((1..=16).contains(&b), "code width must be 1..=16 bits");
                let n_bins = ((1u32 << b) - 1).min(u16::MAX as u32) as u16;
                Quantizer::equi_depth(&col.value_counts(), n_bins)
            })
            .collect();
        VaPlusFile {
            inner: VaFile::with_quantizers(dataset, bits, quantizers),
        }
    }

    /// Number of indexed rows.
    pub fn n_rows(&self) -> usize {
        self.inner.n_rows()
    }

    /// Bits per approximation record.
    pub fn row_bits(&self) -> usize {
        self.inner.row_bits()
    }

    /// Total index size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }

    /// Executes a query exactly (filter + refinement).
    pub fn execute(&self, dataset: &Dataset, query: &RangeQuery) -> Result<RowSet> {
        self.inner.execute(dataset, query)
    }

    /// Executes a query, also returning scan/refinement counters.
    pub fn execute_with_cost(
        &self,
        dataset: &Dataset,
        query: &RangeQuery,
    ) -> Result<(RowSet, WorkCounters)> {
        self.inner.execute_with_cost(dataset, query)
    }

    /// Serializes the file. The format is identical to [`VaFile`]'s — the
    /// lookup tables already carry the equi-depth boundaries.
    pub fn write_to(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        self.inner.write_to(w)
    }

    /// Deserializes a file written by [`Self::write_to`] (or by a plain
    /// [`VaFile`]; only the boundaries differ).
    pub fn read_from(r: &mut impl std::io::Read) -> std::io::Result<VaPlusFile> {
        Ok(VaPlusFile {
            inner: VaFile::read_from(r)?,
        })
    }

    /// Writes the file to `path`.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        self.inner.save(path)
    }

    /// Reads a file from `path`.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<VaPlusFile> {
        Ok(VaPlusFile {
            inner: VaFile::load(path)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_core::gen::{census_scaled, workload, QuerySpec};
    use ibis_core::{scan, MissingPolicy};

    #[test]
    fn exact_on_skewed_data() {
        let d = census_scaled(2_000, 21);
        let bits: Vec<u8> = d
            .columns()
            .iter()
            .map(|c| {
                // Force lossy codes so the quantizer actually matters.
                (default_bits(c.cardinality()).saturating_sub(2)).max(1)
            })
            .collect();
        let vap = VaPlusFile::with_bits(&d, &bits);
        let spec = QuerySpec {
            n_queries: 20,
            k: 4,
            global_selectivity: 0.02,
            policy: MissingPolicy::IsMatch,
            candidate_attrs: vec![],
        };
        for q in workload(&d, &spec, 3) {
            assert_eq!(vap.execute(&d, &q).unwrap(), scan::execute(&d, &q));
        }
    }

    #[test]
    fn fewer_refinements_than_uniform_on_skewed_data() {
        // The VA+ rationale: on Zipf data, equal-width bins concentrate the
        // hot values in one bin; equi-depth bins spread them, cutting the
        // candidate/refinement load for the same bit budget.
        let d = census_scaled(4_000, 22);
        let bits: Vec<u8> = d
            .columns()
            .iter()
            .map(|c| (default_bits(c.cardinality()).saturating_sub(3)).max(1))
            .collect();
        let va = VaFile::with_bits(&d, &bits);
        let vap = VaPlusFile::with_bits(&d, &bits);
        let spec = QuerySpec {
            n_queries: 30,
            k: 3,
            global_selectivity: 0.02,
            policy: MissingPolicy::IsNotMatch,
            candidate_attrs: (0..d.n_attrs())
                .filter(|&a| d.column(a).cardinality() >= 30)
                .collect(),
        };
        let (mut ref_uniform, mut ref_plus) = (0usize, 0usize);
        for q in workload(&d, &spec, 7) {
            let (ru, cu) = va.execute_with_cost(&d, &q).unwrap();
            let (rp, cp) = vap.execute_with_cost(&d, &q).unwrap();
            assert_eq!(ru, rp, "both must stay exact");
            ref_uniform += cu.rows_refined;
            ref_plus += cp.rows_refined;
        }
        assert!(
            ref_plus < ref_uniform,
            "VA+ should refine less on skewed data: {ref_plus} vs {ref_uniform}"
        );
    }

    #[test]
    fn same_size_as_uniform_for_same_bits() {
        let d = census_scaled(1_000, 23);
        let va = VaFile::build(&d);
        let vap = VaPlusFile::build(&d);
        assert_eq!(va.size_bytes(), vap.size_bytes());
        assert_eq!(va.row_bits(), vap.row_bits());
    }
}
