//! Multi-component (attribute-value decomposition) bitmap index with
//! missing-data support.
//!
//! The paper's reference [4] (Chan & Ioannidis, SIGMOD'98) establishes the
//! classic space/time trade-off for bitmap indexes: decompose each value in
//! a base `⟨b⟩`, index every *digit* separately with a range encoding, and
//! evaluate ranges with the RangeEval recurrence. One component (`b ≥ C`)
//! is exactly BRE — the time-optimal end; base 2 is the bit-sliced index —
//! the space-optimal end; `b = ⌈√C⌉` (two components) sits in the sweet
//! spot with `2·(⌈√C⌉ − 1)` bitmaps per attribute instead of `C − 1`.
//!
//! This module extends the decomposition to **incomplete data** with the
//! same device the paper applies to BEE/BRE: missing rows are kept out of
//! every digit bitmap and tracked by one extra `B_0` bitmap per attribute,
//! ORed in under *missing-is-match*. A stored `present` mask (`¬B_0`)
//! doubles as the top digit threshold, so the RangeEval recurrence needs no
//! special missing cases at all.
//!
//! `ablation_decomposition` sweeps the base to chart the storage/work curve
//! the 1998 paper predicts, now under both missing semantics.

use crate::engine::{self, BitmapExec};
use crate::size::{AttrSize, SizeReport};
use ibis_bitvec::{BitStore, BitVec64};
use ibis_core::{
    AccessMethod, Dataset, Interval, MissingPolicy, RangeQuery, Result, RowSet, WorkCounters,
};
use std::sync::OnceLock;

/// Range-encoded, base-`b` decomposed bitmap index over an incomplete
/// relation.
#[derive(Clone, Debug)]
pub struct DecomposedBitmapIndex<B: BitStore> {
    attrs: Vec<DecAttr<B>>,
    n_rows: usize,
    /// Cached [`engine::words_per_read`].
    read_words: OnceLock<f64>,
}

#[derive(Clone, Debug)]
struct DecAttr<B> {
    cardinality: u16,
    /// Digit base `b ≥ 2` (clamped to `C` when `C` is small).
    base: u16,
    /// Number of components `m` (`base^m ≥ C`).
    n_components: usize,
    /// `B_0`: missing rows. `None` when the column is complete.
    missing: Option<B>,
    /// All present rows (`¬B_0`); also serves as threshold `b − 1` of every
    /// component.
    present: B,
    /// `components[i][j]`: present rows whose `i`-th digit (least
    /// significant first) is ≤ `j`, for `j = 0..=b−2`.
    components: Vec<Vec<B>>,
}

impl<B: BitStore> DecomposedBitmapIndex<B> {
    /// Builds with the space/time sweet spot `b = ⌈√C⌉` per attribute
    /// (two components).
    pub fn build(dataset: &Dataset) -> Self {
        Self::with_base_fn(dataset, |c| (c as f64).sqrt().ceil() as u16)
    }

    /// Builds with one uniform digit base for every attribute (`base ≥ 2`);
    /// `2` gives the bit-sliced index.
    pub fn with_base(dataset: &Dataset, base: u16) -> Self {
        assert!(base >= 2, "digit base must be at least 2");
        Self::with_base_fn(dataset, |_| base)
    }

    fn with_base_fn(dataset: &Dataset, base_for: impl Fn(u16) -> u16) -> Self {
        let n = dataset.n_rows();
        let attrs = dataset
            .columns()
            .iter()
            .map(|col| {
                let c = col.cardinality();
                let base = base_for(c).clamp(2, c.max(2));
                let mut n_components = 1usize;
                let mut span = base as u64;
                while span < c as u64 {
                    span *= base as u64;
                    n_components += 1;
                }

                let mut missing_bv = BitVec64::zeros(n);
                // threshold_bvs[i][j] accumulates rows with digit_i ≤ j.
                let mut threshold_bvs =
                    vec![vec![BitVec64::zeros(n); base as usize - 1]; n_components];
                for (row, &raw) in col.raw().iter().enumerate() {
                    if raw == 0 {
                        missing_bv.set(row, true);
                        continue;
                    }
                    let mut v0 = (raw - 1) as u64;
                    for comp in threshold_bvs.iter_mut() {
                        let digit = (v0 % base as u64) as usize;
                        v0 /= base as u64;
                        // digit ≤ j for every stored threshold j ≥ digit.
                        for t in comp.iter_mut().skip(digit) {
                            t.set(row, true);
                        }
                    }
                }
                let present_bv = missing_bv.not();
                DecAttr {
                    cardinality: c,
                    base,
                    n_components,
                    missing: (missing_bv.count_ones() > 0).then(|| B::from_bitvec(&missing_bv)),
                    present: B::from_bitvec(&present_bv),
                    components: threshold_bvs
                        .iter()
                        .map(|comp| comp.iter().map(B::from_bitvec).collect())
                        .collect(),
                }
            })
            .collect();
        DecomposedBitmapIndex {
            attrs,
            n_rows: dataset.n_rows(),
            read_words: OnceLock::new(),
        }
    }

    /// Number of indexed rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of indexed attributes.
    pub fn n_attrs(&self) -> usize {
        self.attrs.len()
    }

    /// Total stored bitmaps: `m·(b−1)` digit thresholds plus the present
    /// mask, plus `B_0` where missing data exists.
    pub fn n_bitmaps(&self) -> usize {
        self.attrs
            .iter()
            .map(|a| {
                a.components.iter().map(Vec::len).sum::<usize>()
                    + 1
                    + usize::from(a.missing.is_some())
            })
            .sum()
    }

    /// Per-attribute and total size accounting.
    pub fn size_report(&self) -> SizeReport {
        let per_attr = self
            .attrs
            .iter()
            .enumerate()
            .map(|(attr, a)| {
                let n_bitmaps = a.components.iter().map(Vec::len).sum::<usize>()
                    + 1
                    + usize::from(a.missing.is_some());
                let bytes = a
                    .components
                    .iter()
                    .flatten()
                    .map(B::size_bytes)
                    .sum::<usize>()
                    + a.present.size_bytes()
                    + a.missing.as_ref().map_or(0, B::size_bytes);
                AttrSize::new(attr, n_bitmaps, bytes, self.n_rows)
            })
            .collect();
        SizeReport { per_attr }
    }

    /// Total bytes of all stored bitmaps.
    pub fn size_bytes(&self) -> usize {
        self.size_report().total_bytes()
    }

    /// Rows (present only) whose digit `i` is ≤ `j`; `None` means the empty
    /// set (`j = −1`), `j ≥ b−1` is the all-present mask. Borrowed, so the
    /// RangeEval fold below never deep-copies a stored bitmap just to feed
    /// an operator.
    fn le_digit<'a>(
        &self,
        a: &'a DecAttr<B>,
        i: usize,
        j: i64,
        cost: &mut WorkCounters,
    ) -> Option<&'a B> {
        if j < 0 {
            return None;
        }
        cost.read_bitmap();
        if j as u64 >= a.base as u64 - 1 {
            Some(&a.present)
        } else {
            Some(&a.components[i][j as usize])
        }
    }

    /// RangeEval: present rows with 0-based value ≤ `t` (`t = −1` → empty).
    fn le_value(&self, a: &DecAttr<B>, t: i64, cost: &mut WorkCounters) -> B {
        if t < 0 {
            return B::zeros(self.n_rows);
        }
        if t as u64 >= a.cardinality as u64 - 1 {
            cost.read_bitmap();
            return engine::fetch(&a.present, cost);
        }
        // Digits of t, least significant first.
        let mut digits = Vec::with_capacity(a.n_components);
        let mut rest = t as u64;
        for _ in 0..a.n_components {
            digits.push((rest % a.base as u64) as i64);
            rest /= a.base as u64;
        }
        // Fold: res = (digit_0 ≤ d_0); then per higher component
        // res = (digit_i < d_i) ∨ ((digit_i = d_i) ∧ res).
        let mut res = match self.le_digit(a, 0, digits[0], cost) {
            Some(b) => engine::fetch(b, cost),
            None => B::zeros(self.n_rows),
        };
        for (i, &d) in digits.iter().enumerate().skip(1) {
            let lt = self.le_digit(a, i, d - 1, cost);
            let le = self
                .le_digit(a, i, d, cost)
                .expect("d ≥ 0 is stored or present");
            // eq = le XOR lt (lt = ∅ ⇒ eq = le).
            res = match lt {
                Some(lt) => {
                    let eq = engine::xor(le, lt, cost);
                    let within = engine::and(&eq, &res, cost);
                    engine::or(&within, lt, cost)
                }
                None => engine::and(le, &res, cost),
            };
        }
        res
    }

    /// Evaluates one interval over one attribute.
    ///
    /// # Panics
    /// Panics if `attr` or the interval is out of range; [`Self::execute`]
    /// validates first.
    pub fn evaluate_interval(
        &self,
        attr: usize,
        iv: Interval,
        policy: MissingPolicy,
        cost: &mut WorkCounters,
    ) -> B {
        let a = &self.attrs[attr];
        let c = a.cardinality;
        let (v1, v2) = (iv.lo, iv.hi);
        assert!(v1 >= 1 && v2 <= c, "interval outside domain");
        // Present values in [v1, v2] = LE(v2−1) \ LE(v1−2) over 0-based
        // values; missing rows are absent from every digit bitmap, so the
        // subtraction needs no special case.
        let hi = self.le_value(a, v2 as i64 - 1, cost);
        let present = if v1 == 1 {
            hi
        } else {
            let lo = self.le_value(a, v1 as i64 - 2, cost);
            let above = engine::not(&lo, cost);
            engine::and(&hi, &above, cost)
        };
        match policy {
            MissingPolicy::IsNotMatch => present,
            MissingPolicy::IsMatch => match &a.missing {
                Some(m) => {
                    cost.read_bitmap();
                    engine::or(&present, m, cost)
                }
                None => present,
            },
        }
    }

    /// Executes a query, also returning the work counters.
    /// ([`AccessMethod::execute`] / [`AccessMethod::execute_count`] cover
    /// the plain and counting forms.)
    pub fn execute_with_cost(&self, query: &RangeQuery) -> Result<(RowSet, WorkCounters)> {
        engine::run_rows(self, query, 1)
    }
}

impl<B: BitStore> BitmapExec for DecomposedBitmapIndex<B> {
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
        self.attrs.iter().flat_map(|a| {
            a.components
                .iter()
                .flatten()
                .chain(std::iter::once(&a.present))
                .chain(a.missing.iter())
        })
    }

    fn exec_read_words(&self) -> &OnceLock<f64> {
        &self.read_words
    }

    fn exec_interval(
        &self,
        attr: usize,
        iv: Interval,
        policy: MissingPolicy,
        cost: &mut WorkCounters,
    ) -> B {
        self.evaluate_interval(attr, iv, policy, cost)
    }
}

impl<B: BitStore> AccessMethod for DecomposedBitmapIndex<B> {
    fn name(&self) -> &'static str {
        "bitmap-decomposed"
    }

    fn execute_with_cost(&self, query: &RangeQuery) -> Result<(RowSet, WorkCounters)> {
        engine::run_rows(self, query, 1)
    }

    fn execute_with_cost_threads(
        &self,
        query: &RangeQuery,
        threads: usize,
    ) -> Result<(RowSet, WorkCounters)> {
        engine::run_rows(self, query, threads)
    }

    fn size_bytes(&self) -> usize {
        DecomposedBitmapIndex::size_bytes(self)
    }

    fn execute_count(&self, query: &RangeQuery) -> Result<usize> {
        engine::run_count(self, query)
    }

    // RangeEval touches ≤ 2m − 1 bitmaps per bound (m components), two
    // bounds per interval, plus B_0 — the SIGMOD'98 time/space trade-off
    // the planner should see as pricier than single-component BRE.
    fn estimated_cost(&self, query: &RangeQuery) -> f64 {
        let wpr = engine::words_per_read(self);
        query
            .predicates()
            .iter()
            .map(|p| match self.attrs.get(p.attr) {
                Some(a) => (4.0 * a.n_components as f64 - 1.0) * wpr,
                None => f64::INFINITY,
            })
            .sum()
    }
}

impl<B: BitStore> DecomposedBitmapIndex<B> {
    const MAGIC: &'static [u8; 4] = b"IBDX";
    const VERSION: u16 = 1;

    /// Serializes the index.
    pub fn write_to(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        use ibis_core::wire::*;
        write_header(w, Self::MAGIC, Self::VERSION)?;
        write_str(w, B::backend_name())?;
        write_len(w, self.n_rows)?;
        write_len(w, self.attrs.len())?;
        for a in &self.attrs {
            write_u16(w, a.cardinality)?;
            write_u16(w, a.base)?;
            write_u8(w, a.missing.is_some() as u8)?;
            if let Some(m) = &a.missing {
                m.write_to(w)?;
            }
            a.present.write_to(w)?;
            write_len(w, a.components.len())?;
            for comp in &a.components {
                write_len(w, comp.len())?;
                for t in comp {
                    t.write_to(w)?;
                }
            }
        }
        Ok(())
    }

    /// Deserializes an index written by [`Self::write_to`].
    pub fn read_from(r: &mut impl std::io::Read) -> std::io::Result<Self> {
        use ibis_core::wire::*;
        let (n_rows, n_attrs) = crate::read_index_preamble::<B>(r, Self::MAGIC, Self::VERSION)?;
        let mut attrs = Vec::with_capacity(n_attrs.min(1 << 20));
        for _ in 0..n_attrs {
            let cardinality = read_u16(r)?;
            let base = read_u16(r)?;
            if cardinality == 0 || base < 2 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "invalid cardinality or digit base in index file",
                ));
            }
            let missing = match read_u8(r)? {
                0 => None,
                _ => Some(B::read_from(r)?),
            };
            let present = B::read_from(r)?;
            let n_components = read_len(r)?;
            // Bound the count before any work proportional to it: a corrupt
            // header can claim up to 2^64 components, and even a no-op loop
            // of that length is a denial of service.
            if n_components == 0 || n_components > 64 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "component count out of range",
                ));
            }
            // base^n_components must cover the domain without being absurd.
            let mut span = 1u64;
            for _ in 0..n_components {
                span = span.saturating_mul(base as u64);
            }
            if span < cardinality as u64 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "component count disagrees with base and cardinality",
                ));
            }
            // `n_components ≤ 64` and `len < 2^16` are validated above/below,
            // but keep both preallocations capped so a corrupt header can
            // never trigger an unbounded reservation (same guard as
            // `BitVec64::read_from`).
            let mut components = Vec::with_capacity(n_components.min(64));
            for _ in 0..n_components {
                let len = read_len(r)?;
                if len != base as usize - 1 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "threshold count disagrees with digit base",
                    ));
                }
                let mut comp = Vec::with_capacity(len.min(1 << 16));
                for _ in 0..len {
                    let t = B::read_from(r)?;
                    if t.len() != n_rows {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            "bitmap length disagrees with row count",
                        ));
                    }
                    comp.push(t);
                }
                components.push(comp);
            }
            for b in missing.iter().chain(std::iter::once(&present)) {
                if b.len() != n_rows {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "bitmap length disagrees with row count",
                    ));
                }
            }
            attrs.push(DecAttr {
                cardinality,
                base,
                n_components,
                missing,
                present,
                components,
            });
        }
        Ok(DecomposedBitmapIndex {
            attrs,
            n_rows,
            read_words: OnceLock::new(),
        })
    }

    /// Writes the index to `path` (buffered).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_to(&mut w)?;
        use std::io::Write as _;
        w.flush()
    }

    /// Reads an index from `path` (buffered).
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let mut r = std::io::BufReader::new(std::fs::File::open(path)?);
        Self::read_from(&mut r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_bitvec::Wah;
    use ibis_core::gen::{synthetic_scaled, workload, QuerySpec};
    use ibis_core::{scan, Column, Predicate};

    fn column_covering(c: u16) -> Dataset {
        // Two copies of every value plus missing rows.
        let raw: Vec<u16> = (0..=c).chain(0..=c).collect();
        Dataset::new(vec![Column::from_raw("a", c, raw).unwrap()]).unwrap()
    }

    #[test]
    fn exhaustive_all_bases_and_intervals() {
        for c in [1u16, 2, 3, 5, 7, 10, 16, 27] {
            let d = column_covering(c);
            for base in [2u16, 3, 4, 10] {
                let idx = DecomposedBitmapIndex::<BitVec64>::with_base(&d, base);
                for policy in MissingPolicy::ALL {
                    for lo in 1..=c {
                        for hi in lo..=c {
                            let q =
                                RangeQuery::new(vec![Predicate::range(0, lo, hi)], policy).unwrap();
                            assert_eq!(
                                idx.execute(&q).unwrap(),
                                scan::execute(&d, &q),
                                "C={c} base={base} {policy} [{lo},{hi}]"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sqrt_base_uses_two_components() {
        let d = column_covering(100);
        let idx = DecomposedBitmapIndex::<BitVec64>::build(&d);
        let a = &idx.attrs[0];
        assert_eq!(a.base, 10);
        assert_eq!(a.n_components, 2);
        // 2 × 9 digit thresholds + present + B_0 = 20 bitmaps, vs 100 for BRE.
        assert_eq!(idx.n_bitmaps(), 20);
    }

    #[test]
    fn bit_sliced_base_two_layout() {
        let d = column_covering(16);
        let idx = DecomposedBitmapIndex::<BitVec64>::with_base(&d, 2);
        let a = &idx.attrs[0];
        assert_eq!(a.n_components, 4); // 2^4 = 16
        assert_eq!(a.components.iter().map(Vec::len).sum::<usize>(), 4);
    }

    #[test]
    fn base_clamped_to_cardinality() {
        // C = 2 with sqrt base would give b = 2 (fine); C = 1 degenerates.
        let d = column_covering(1);
        let idx = DecomposedBitmapIndex::<Wah>::build(&d);
        let q = RangeQuery::new(vec![Predicate::point(0, 1)], MissingPolicy::IsNotMatch).unwrap();
        assert_eq!(idx.execute(&q).unwrap(), scan::execute(&d, &q));
    }

    #[test]
    fn space_shrinks_as_base_shrinks() {
        let d = synthetic_scaled(2_000, 71);
        // Plain-backed sizes expose the bitmap-count effect directly.
        let bre_like = DecomposedBitmapIndex::<BitVec64>::with_base(&d, 101); // ≥ all C: 1 component
        let sqrt = DecomposedBitmapIndex::<BitVec64>::build(&d);
        let sliced = DecomposedBitmapIndex::<BitVec64>::with_base(&d, 2);
        assert!(sqrt.size_bytes() < bre_like.size_bytes());
        assert!(sliced.size_bytes() < sqrt.size_bytes());
    }

    #[test]
    fn work_grows_as_base_shrinks() {
        let d = column_covering(100);
        let q = RangeQuery::new(vec![Predicate::range(0, 23, 77)], MissingPolicy::IsMatch).unwrap();
        let cost_for = |base: u16| {
            let idx = DecomposedBitmapIndex::<BitVec64>::with_base(&d, base);
            idx.execute_with_cost(&q).unwrap().1.bitmaps_accessed
        };
        let one_comp = cost_for(101);
        let sliced = cost_for(2);
        assert!(one_comp <= 4, "single component ≈ BRE: {one_comp}");
        assert!(
            sliced > one_comp,
            "bit-slicing pays in reads: {sliced} vs {one_comp}"
        );
    }

    #[test]
    fn multi_attribute_workload_differential() {
        let d = synthetic_scaled(500, 72);
        let idx = DecomposedBitmapIndex::<Wah>::build(&d);
        for policy in MissingPolicy::ALL {
            let spec = QuerySpec {
                n_queries: 12,
                k: 5,
                global_selectivity: 0.02,
                policy,
                candidate_attrs: vec![],
            };
            for q in workload(&d, &spec, 73) {
                assert_eq!(idx.execute(&q).unwrap(), scan::execute(&d, &q), "{policy}");
            }
        }
    }

    #[test]
    fn all_missing_column() {
        let d = Dataset::new(vec![Column::from_raw("a", 8, vec![0, 0, 0]).unwrap()]).unwrap();
        let idx = DecomposedBitmapIndex::<Wah>::build(&d);
        let q = RangeQuery::new(vec![Predicate::range(0, 1, 8)], MissingPolicy::IsMatch).unwrap();
        assert_eq!(idx.execute(&q).unwrap(), RowSet::all(3));
        let q = q.with_policy(MissingPolicy::IsNotMatch);
        assert!(idx.execute(&q).unwrap().is_empty());
    }

    #[test]
    fn invalid_queries_rejected() {
        let d = column_covering(5);
        let idx = DecomposedBitmapIndex::<Wah>::build(&d);
        let q = RangeQuery::new(vec![Predicate::point(2, 1)], MissingPolicy::IsMatch).unwrap();
        assert!(idx.execute(&q).is_err());
        let q = RangeQuery::new(vec![Predicate::point(0, 6)], MissingPolicy::IsMatch).unwrap();
        assert!(idx.execute(&q).is_err());
    }
}
