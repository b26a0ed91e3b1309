//! The VA-file index with missing-data support (§4.5).

use crate::packed::CodedColumn;
use crate::{PackedMatrix, Quantizer};
use ibis_core::{Dataset, MissingPolicy, RangeQuery, Result, RowSet, WorkCounters};

/// Per-attribute layout inside the packed approximation file.
#[derive(Clone, Debug)]
pub(crate) struct VaAttr {
    pub(crate) cardinality: u16,
    /// Field width `b_i` in bits; codes run `0` (missing) to `2^{b_i} − 1`.
    pub(crate) bits: u8,
    /// Bit offset of this attribute's field within a row.
    pub(crate) offset: usize,
    pub(crate) quantizer: Quantizer,
}

/// The VA-file over an incomplete relation.
///
/// Build once from a [`Dataset`]; queries scan the packed approximations and
/// refine against the dataset (the in-memory stand-in for "reading actual
/// database pages"). With the paper's default `b_i = ⌈log₂(C_i + 1)⌉` the
/// approximation is lossless and refinement only fires on bins that would
/// need it — i.e. never — while [`VaFile::with_bits`] trades bits for
/// candidates exactly like the paper's Table 5 example.
#[derive(Clone, Debug)]
pub struct VaFile {
    pub(crate) attrs: Vec<VaAttr>,
    pub(crate) packed: PackedMatrix,
}

impl VaFile {
    /// Builds with the paper's default precision `b_i = ⌈log₂(C_i + 1)⌉`
    /// and uniform (equal-width) bins.
    pub fn build(dataset: &Dataset) -> VaFile {
        let bits: Vec<u8> = dataset
            .columns()
            .iter()
            .map(|c| default_bits(c.cardinality()))
            .collect();
        VaFile::with_bits(dataset, &bits)
    }

    /// Builds with explicit per-attribute code widths (each `1..=16`).
    /// Width `b` yields `2^b − 1` value bins (code 0 stays reserved for
    /// missing), so `b = 1` forces every value into one bin.
    ///
    /// # Panics
    /// Panics if `bits.len() != dataset.n_attrs()` or any width is 0 or >16.
    pub fn with_bits(dataset: &Dataset, bits: &[u8]) -> VaFile {
        let quantizers: Vec<Quantizer> = dataset
            .columns()
            .iter()
            .zip(bits)
            .map(|(col, &b)| {
                assert!((1..=16).contains(&b), "code width must be 1..=16 bits");
                Quantizer::uniform(
                    col.cardinality(),
                    ((1u32 << b) - 1).min(u16::MAX as u32) as u16,
                )
            })
            .collect();
        VaFile::with_quantizers(dataset, bits, quantizers)
    }

    pub(crate) fn with_quantizers(
        dataset: &Dataset,
        bits: &[u8],
        quantizers: Vec<Quantizer>,
    ) -> VaFile {
        assert_eq!(
            bits.len(),
            dataset.n_attrs(),
            "one code width per attribute"
        );
        let mut attrs = Vec::with_capacity(bits.len());
        let mut offset = 0usize;
        for ((col, &b), q) in dataset.columns().iter().zip(bits).zip(quantizers) {
            attrs.push(VaAttr {
                cardinality: col.cardinality(),
                bits: b,
                offset,
                quantizer: q,
            });
            offset += b as usize;
        }
        // Missing is the all-zeros code, entry 0 of every table.
        let tables: Vec<Vec<u16>> = attrs.iter().map(|a| a.quantizer.code_table()).collect();
        let columns: Vec<CodedColumn<'_>> = attrs
            .iter()
            .zip(&tables)
            .zip(dataset.columns())
            .map(|((a, codes), col)| CodedColumn {
                width: a.bits as usize,
                codes,
                values: col.raw(),
            })
            .collect();
        let packed = PackedMatrix::pack(dataset.n_rows(), &columns);
        debug_assert_eq!(packed.row_bits(), offset);
        VaFile { attrs, packed }
    }

    /// Number of indexed rows.
    pub fn n_rows(&self) -> usize {
        self.packed.n_rows()
    }

    /// Number of indexed attributes.
    pub fn n_attrs(&self) -> usize {
        self.attrs.len()
    }

    /// Bits per approximation record (`Σ b_i`).
    pub fn row_bits(&self) -> usize {
        self.packed.row_bits()
    }

    /// Total index size: packed approximations plus lookup tables. The
    /// paper's Fig. 4 size metric.
    pub fn size_bytes(&self) -> usize {
        self.packed.size_bytes()
            + self
                .attrs
                .iter()
                .map(|a| a.quantizer.size_bytes())
                .sum::<usize>()
    }

    /// The stored approximation code of (`row`, `attr`) — 0 means missing.
    pub fn code(&self, row: usize, attr: usize) -> u16 {
        let a = &self.attrs[attr];
        self.packed.get(row, a.offset, a.bits as usize)
    }

    /// Executes a query exactly (filter scan + refinement).
    ///
    /// `dataset` must be the dataset the file was built from; it plays the
    /// role of the database pages the paper reads during refinement.
    pub fn execute(&self, dataset: &Dataset, query: &RangeQuery) -> Result<RowSet> {
        Ok(self.execute_with_cost(dataset, query)?.0)
    }

    /// Executes a query, also returning scan/refinement counters.
    pub fn execute_with_cost(
        &self,
        dataset: &Dataset,
        query: &RangeQuery,
    ) -> Result<(RowSet, WorkCounters)> {
        let plans = self.plan(dataset, query)?;
        let scan_span = ibis_obs::span("va.scan");
        let whole = self.scan_range(dataset, query, &plans, 0..self.n_rows());
        Ok(merge_scan(scan_span, query, vec![whole]))
    }

    /// Validates `query` against the file and `dataset`, and compiles each
    /// predicate's filter step: its bin interval VA(v1) ..= VA(v2), plus
    /// whether each boundary bin is exact (fully inside the value interval).
    pub(crate) fn plan(&self, dataset: &Dataset, query: &RangeQuery) -> Result<Vec<Plan>> {
        query.validate_schema(self.attrs.len(), |a| self.attrs[a].cardinality)?;
        assert_eq!(
            dataset.n_rows(),
            self.n_rows(),
            "dataset/index row mismatch"
        );
        Ok(query
            .predicates()
            .iter()
            .map(|p| {
                let a = &self.attrs[p.attr];
                let (b1, b2) = (
                    a.quantizer.bin_of(p.interval.lo),
                    a.quantizer.bin_of(p.interval.hi),
                );
                Plan {
                    offset: a.offset,
                    bits: a.bits as usize,
                    b1,
                    b2,
                    needs_refine_low: !a.quantizer.bin_inside(b1, p.interval.lo, p.interval.hi),
                    needs_refine_high: !a.quantizer.bin_inside(b2, p.interval.lo, p.interval.hi),
                }
            })
            .collect())
    }

    /// One worker's share of the filter scan: filter + refinement over the
    /// row slice `rows`, returning matching ids, this slice's counters
    /// (`words_processed` left unset — [`merge_scan`] derives it from merged
    /// totals), and the approximation bits scanned.
    pub(crate) fn scan_range(
        &self,
        dataset: &Dataset,
        query: &RangeQuery,
        plans: &[Plan],
        rows: std::ops::Range<usize>,
    ) -> (Vec<u32>, WorkCounters, usize) {
        let policy = query.policy();
        let mut span = ibis_obs::span("va.chunk");
        span.add_field("rows", rows.len() as u64);
        let mut cost = WorkCounters::default();
        let mut out = Vec::new();
        let mut bits_read = 0usize;
        'rows: for row in rows {
            let mut boundary = false;
            for plan in plans {
                cost.approx_fields_read += 1;
                bits_read += plan.bits;
                let code = self.packed.get(row, plan.offset, plan.bits);
                if code == 0 {
                    // Missing: a filter-level match only under match
                    // semantics (the paper's `∨ VA(A_i) = 0^b` term).
                    if policy == MissingPolicy::IsNotMatch {
                        continue 'rows;
                    }
                } else {
                    if code < plan.b1 || code > plan.b2 {
                        continue 'rows;
                    }
                    if (code == plan.b1 && plan.needs_refine_low)
                        || (code == plan.b2 && plan.needs_refine_high)
                    {
                        boundary = true;
                    }
                }
            }
            cost.candidates += 1;
            if boundary {
                // Refinement: fetch the record and re-check exactly.
                cost.rows_refined += 1;
                if query.matches_row(dataset, row) {
                    out.push(row as u32);
                } else {
                    cost.false_positives += 1;
                }
            } else {
                out.push(row as u32);
            }
        }
        // `words_processed` is still zero here (derived from merged totals
        // by the caller), so the chunk span carries only per-slice work.
        cost.record_into(&mut span);
        (out, cost, bits_read)
    }
}

/// Merges the ordered per-slice results of one filter scan: joins the
/// slices' ids in slice order (the first slice's buffer is taken, not
/// copied) and returns them with the merged counters, identical however the
/// rows were sliced: every counter is a per-row sum, and the word total —
/// approximation bits scanned plus the 16-bit cells fetched during
/// refinement, in 64-bit words — is derived once from the merged totals
/// (summing per-slice `div_ceil`s would over-count).
/// The merged counters go on `scan_span`, the `va.scan` span the slices'
/// `va.chunk` spans sit under: its self delta is the word total, and a
/// layer above that re-records the scan's counters (`db.shard`) sees them
/// all on its direct child, so a profile's span deltas sum exactly to the
/// final counters.
pub(crate) fn merge_scan(
    mut scan_span: ibis_obs::SpanGuard,
    query: &RangeQuery,
    slices: Vec<(Vec<u32>, WorkCounters, usize)>,
) -> (RowSet, WorkCounters) {
    let mut cost = WorkCounters::default();
    let mut bits_read = 0usize;
    let mut rows = Vec::new();
    for (ids, c, bits) in slices {
        cost.merge(c);
        bits_read += bits;
        if rows.is_empty() {
            rows = ids;
        } else {
            rows.extend_from_slice(&ids);
        }
    }
    cost.words_processed =
        (bits_read + cost.rows_refined * query.dimensionality() * 16).div_ceil(64);
    cost.record_into(&mut scan_span);
    (RowSet::from_sorted(rows), cost)
}

/// One predicate's compiled filter step: its field location in the packed
/// matrix and its bin interval (see [`VaFile::plan`]).
pub(crate) struct Plan {
    offset: usize,
    bits: usize,
    b1: u16,
    b2: u16,
    /// Candidate rows in these bins need refinement.
    needs_refine_low: bool,
    needs_refine_high: bool,
}

impl VaFile {
    const MAGIC: &'static [u8; 4] = b"IBVA";
    const VERSION: u16 = 1;

    /// Serializes the VA-file: the per-attribute layout, the lookup tables,
    /// and the packed approximation matrix.
    pub fn write_to(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        use ibis_core::wire::*;
        write_header(w, Self::MAGIC, Self::VERSION)?;
        write_len(w, self.packed.n_rows())?;
        write_len(w, self.attrs.len())?;
        for a in &self.attrs {
            write_u16(w, a.cardinality)?;
            write_u8(w, a.bits)?;
            write_vec_u16(w, a.quantizer.uppers())?;
        }
        self.packed.write_payload(w)
    }

    /// Deserializes a VA-file written by [`Self::write_to`].
    pub fn read_from(r: &mut impl std::io::Read) -> std::io::Result<VaFile> {
        use crate::Quantizer;
        use ibis_core::wire::*;
        read_header(r, Self::MAGIC, Self::VERSION)?;
        let n_rows = read_len(r)?;
        let n_attrs = read_len(r)?;
        let mut attrs = Vec::with_capacity(n_attrs.min(1 << 20));
        let mut offset = 0usize;
        for _ in 0..n_attrs {
            let cardinality = read_u16(r)?;
            let bits = read_u8(r)?;
            if bits == 0 || bits > 16 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "code width outside 1..=16",
                ));
            }
            let uppers = read_vec_u16(r)?;
            let quantizer = Quantizer::from_uppers(uppers)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            if quantizer.cardinality() != cardinality || quantizer.n_bins() as u32 >= (1u32 << bits)
            {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "lookup table disagrees with cardinality or code width",
                ));
            }
            attrs.push(VaAttr {
                cardinality,
                bits,
                offset,
                quantizer,
            });
            offset += bits as usize;
        }
        let packed = crate::PackedMatrix::read_payload(r, n_rows, offset)?;
        Ok(VaFile { attrs, packed })
    }

    /// Writes the VA-file to `path` (buffered).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_to(&mut w)?;
        use std::io::Write as _;
        w.flush()
    }

    /// Reads a VA-file from `path` (buffered).
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<VaFile> {
        let mut r = std::io::BufReader::new(std::fs::File::open(path)?);
        VaFile::read_from(&mut r)
    }
}

/// The paper's default code width: `⌈log₂(C + 1)⌉`.
pub(crate) fn default_bits(cardinality: u16) -> u8 {
    let needed = cardinality as u32 + 1; // values plus the missing code
    (32 - (needed - 1).leading_zeros()).max(1) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_core::{scan, Cell, Column, Predicate};

    fn m() -> Cell {
        Cell::MISSING
    }
    fn v(x: u16) -> Cell {
        Cell::present(x)
    }

    /// The paper's Table 5 example: values {6, 1, 3, missing}, C = 6, two
    /// bits per code.
    fn table5() -> Dataset {
        Dataset::from_rows(
            &[("a", 6)],
            &[vec![v(6)], vec![v(1)], vec![v(3)], vec![m()]],
        )
        .unwrap()
    }

    #[test]
    fn default_bits_formula() {
        assert_eq!(default_bits(1), 1);
        assert_eq!(default_bits(2), 2); // codes {0,1,2} need 2 bits
        assert_eq!(default_bits(3), 2);
        assert_eq!(default_bits(5), 3);
        assert_eq!(default_bits(6), 3);
        assert_eq!(default_bits(7), 3);
        assert_eq!(default_bits(100), 7);
        assert_eq!(default_bits(165), 8);
    }

    #[test]
    fn table5_codes_reproduced() {
        let d = table5();
        let va = VaFile::with_bits(&d, &[2]);
        // Table 5: record 1 (value 6) → 11, record 2 (1) → 01,
        // record 3 (3) → 10, record 4 (missing) → 00.
        assert_eq!(va.code(0, 0), 0b11);
        assert_eq!(va.code(1, 0), 0b01);
        assert_eq!(va.code(2, 0), 0b10);
        assert_eq!(va.code(3, 0), 0b00);
    }

    #[test]
    fn table5_query_filter_and_refine() {
        // Paper: query "value in [4,5]" under match semantics returns bins
        // {00, 10, 11} as candidates; refinement rejects record 1 (value 6)…
        // wait — bin 10 = values 3-4 and bin 11 = 5-6, so candidates are
        // records 1 (11), 3 (10), 4 (00); refinement keeps only record 4
        // plus any true 4/5 values. Verified against the scan.
        let d = table5();
        let va = VaFile::with_bits(&d, &[2]);
        let q = RangeQuery::new(vec![Predicate::range(0, 4, 5)], MissingPolicy::IsMatch).unwrap();
        let (rows, cost) = va.execute_with_cost(&d, &q).unwrap();
        assert_eq!(rows, scan::execute(&d, &q));
        assert_eq!(rows.rows(), &[3]); // only the missing record matches
        assert_eq!(cost.candidates, 3); // records 0, 2, 3 pass the filter
        assert_eq!(cost.rows_refined, 2); // records 0 and 2 sit in boundary bins
        assert_eq!(cost.false_positives, 2);

        let q = q.with_policy(MissingPolicy::IsNotMatch);
        let (rows, cost) = va.execute_with_cost(&d, &q).unwrap();
        assert_eq!(rows, scan::execute(&d, &q));
        assert!(rows.is_empty());
        assert_eq!(cost.candidates, 2); // missing record no longer passes
    }

    #[test]
    fn default_precision_is_lossless() {
        // With b = ⌈log₂(C+1)⌉ every value has its own bin: no refinement.
        let d = table5();
        let va = VaFile::build(&d);
        assert_eq!(va.row_bits(), 3);
        for policy in MissingPolicy::ALL {
            for lo in 1..=6u16 {
                for hi in lo..=6u16 {
                    let q = RangeQuery::new(vec![Predicate::range(0, lo, hi)], policy).unwrap();
                    let (rows, cost) = va.execute_with_cost(&d, &q).unwrap();
                    assert_eq!(rows, scan::execute(&d, &q), "{policy} [{lo},{hi}]");
                    assert_eq!(cost.rows_refined, 0, "lossless codes never refine");
                }
            }
        }
    }

    #[test]
    fn lossy_codes_stay_exact_through_refinement() {
        let d = Dataset::new(vec![
            Column::from_raw("a", 50, (0..200).map(|i| (i % 51) as u16).collect()).unwrap(),
            Column::from_raw("b", 20, (0..200).map(|i| ((i * 7) % 21) as u16).collect()).unwrap(),
        ])
        .unwrap();
        let va = VaFile::with_bits(&d, &[3, 2]); // far below lossless
        for policy in MissingPolicy::ALL {
            let q = RangeQuery::new(
                vec![Predicate::range(0, 10, 30), Predicate::range(1, 5, 15)],
                policy,
            )
            .unwrap();
            let (rows, cost) = va.execute_with_cost(&d, &q).unwrap();
            assert_eq!(rows, scan::execute(&d, &q), "{policy}");
            assert!(cost.rows_refined > 0, "coarse codes must refine");
        }
    }

    #[test]
    fn multi_attribute_scan_reads_k_fields_per_row() {
        let d = Dataset::from_rows(
            &[("a", 4), ("b", 4), ("c", 4)],
            &[vec![v(1), v(2), v(3)], vec![v(4), m(), v(1)]],
        )
        .unwrap();
        let va = VaFile::build(&d);
        let q = RangeQuery::new(
            vec![Predicate::range(0, 1, 4), Predicate::range(1, 1, 4)],
            MissingPolicy::IsMatch,
        )
        .unwrap();
        let (_, cost) = va.execute_with_cost(&d, &q).unwrap();
        // 2 rows × 2 queried fields; attribute c is never touched.
        assert_eq!(cost.approx_fields_read, 4);
    }

    #[test]
    fn size_grows_slowly_with_cardinality() {
        // Fig. 4(a): VA size is logarithmic in C while bitmaps are linear.
        let n = 1000usize;
        let size_for = |c: u16| {
            let col = Column::from_raw(
                "a",
                c,
                (0..n).map(|i| (i % c as usize) as u16 + 1).collect(),
            )
            .unwrap();
            VaFile::build(&Dataset::new(vec![col]).unwrap()).size_bytes()
        };
        let (s2, s100) = (size_for(2), size_for(100));
        // 2 bits vs 7 bits per record: ratio 3.5, not 50.
        assert!(s100 < 5 * s2, "s2={s2} s100={s100}");
    }

    #[test]
    fn invalid_queries_rejected() {
        let d = table5();
        let va = VaFile::build(&d);
        let q = RangeQuery::new(vec![Predicate::point(2, 1)], MissingPolicy::IsMatch).unwrap();
        assert!(va.execute(&d, &q).is_err());
        let q = RangeQuery::new(vec![Predicate::point(0, 7)], MissingPolicy::IsMatch).unwrap();
        assert!(va.execute(&d, &q).is_err());
    }

    #[test]
    fn empty_key_matches_all() {
        let d = table5();
        let va = VaFile::build(&d);
        let q = RangeQuery::new(vec![], MissingPolicy::IsNotMatch).unwrap();
        assert_eq!(va.execute(&d, &q).unwrap(), RowSet::all(4));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use ibis_core::Column;
    use proptest::prelude::*;

    /// The per-cell build the code tables replaced: every present cell's
    /// bin, found by search, written at its row and field.
    fn per_cell_reference(dataset: &Dataset, va: &VaFile) -> PackedMatrix {
        let mut packed = PackedMatrix::new(dataset.n_rows(), va.row_bits());
        for (a, col) in va.attrs.iter().zip(dataset.columns()) {
            for (row, &raw) in col.raw().iter().enumerate() {
                if raw != 0 {
                    packed.set(row, a.offset, a.bits as usize, a.quantizer.bin_of(raw));
                }
            }
        }
        packed
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Code widths 1–16 side by side, so that fields straddle words at
        /// every offset, over row counts on both sides of a 64-row block.
        #[test]
        fn packed_codes_match_the_per_cell_reference(
            widths in proptest::collection::vec(1u8..17, 1..9),
            n_rows in 0usize..300,
            seed in any::<u64>(),
        ) {
            let mut x = seed | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let columns = widths
                .iter()
                .enumerate()
                .map(|(i, &b)| {
                    // Up to twice the bins the width holds, so bins span
                    // several values, or exactly as many.
                    let bins = (1u64 << b) - 1;
                    let c = (1 + next() % (2 * bins)).min(u16::MAX as u64) as u16;
                    let raw = (0..n_rows)
                        .map(|_| match next() % 5 {
                            0 => 0,
                            1 => c,
                            _ => (next() % u64::from(c)) as u16 + 1,
                        })
                        .collect();
                    Column::from_raw(format!("a{i}"), c, raw).unwrap()
                })
                .collect();
            let d = Dataset::new(columns).unwrap();
            let va = VaFile::with_bits(&d, &widths);
            prop_assert_eq!(&va.packed, &per_cell_reference(&d, &va));
            let vaplus = crate::VaPlusFile::with_bits(&d, &widths);
            prop_assert_eq!(&vaplus.inner.packed, &per_cell_reference(&d, &vaplus.inner));
        }
    }
}
