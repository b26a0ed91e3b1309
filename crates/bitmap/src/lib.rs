//! # ibis-bitmap
//!
//! The paper's primary contribution: bitmap indexes adapted to incomplete
//! databases (§4.1–§4.4 of *"Indexing Incomplete Databases"*, EDBT 2006).
//!
//! There is one index type, [`BitmapIndex<E, B>`](BitmapIndex): encoding
//! `E`'s bitmaps for every attribute, held in bit-vector backend `B`
//! ([`ibis_bitvec::BitStore`]: plain, WAH, BBC, or adaptive containers).
//! The index owns what every family shares — building, size accounting, the
//! query driver and its work counters, the file format — and
//! an [`Encoding`] says only what the paper itself varies: which bitmaps a
//! column stores, and how an interval is answered from them under either
//! [`MissingPolicy`]. The encodings, each with its index as a type alias:
//!
//! * [`Equality`] → [`EqualityBitmapIndex`] (**BEE**) — one bitmap per
//!   attribute value, plus an extra bitmap `B_{i,0}` flagging missing rows
//!   for attributes that have them (§4.2). Interval evaluation follows
//!   Fig. 2: OR the in-range bitmaps (adding `B_0` under match semantics), or
//!   complement the out-of-range OR when the range covers more than half
//!   the domain.
//! * [`Range`] → [`RangeBitmapIndex`] (**BRE**) — bitmap `B_{i,j}` holds
//!   rows with value ≤ j, with missing treated as the smallest value (below
//!   1), so missing rows are set in *every* bitmap and `B_{i,0}` doubles as
//!   the missing flag (§4.3). Interval evaluation follows Fig. 3 and touches
//!   at most 3 bitmaps per dimension (match) or 2 (not-match).
//! * [`IntervalWindows`] → [`IntervalBitmapIndex`] and [`Decomposed`] →
//!   [`DecomposedBitmapIndex`] — the interval and attribute-value-decomposed
//!   encodings of Chan & Ioannidis, with the same `B_0` device.
//! * [`rejected::MissingAsOnes`] and [`rejected::MissingAsZeros`] — the
//!   in-band missing encodings the paper considers and rejects in
//!   §4.2/§4.3, implemented to demonstrate its objections; each answers
//!   under one policy only.
//!
//! [`build_sorted`] builds the equality and interval indexes a database
//! keeps from one counting sort per column.
//! [`AdaptiveBitmapIndex`] is the name the prelude keeps for [`Equality`]
//! over [`ibis_bitvec::Adaptive`] containers, and [`reorder`]
//! holds row-reordering heuristics (the paper's future-work item for
//! improving run-length compression).
//!
//! Every encoding answers queries *exactly* under the policies it supports;
//! the encoding × backend product is tested against the sequential scan in
//! the workspace-level integration suite.
//!
//! Every encoding on every backend runs through one query driver
//! ([`engine`]), which evaluates into plain [`BitVec64`] accumulators — a
//! stored bitmap, whatever its backend, is an operand that combines itself
//! into one in place, and a count never builds row ids or even the final
//! bitmap — and reports its work in one [`ibis_core::WorkCounters`]:
//! `bitmaps_accessed` and `logical_ops` are the paper's own §6 quantities,
//! and `words_processed` (plus the `containers_*` shape counts) is the sum
//! of [`ibis_bitvec::BitStore::tally_read`] over every operand an operation
//! read — the uncompressed `⌈n/64⌉` words for an accumulator and for the
//! plain, WAH and BBC backends, the stored container payload for
//! [`ibis_bitvec::Adaptive`].
//!
//! ```
//! use ibis_bitmap::RangeBitmapIndex;
//! use ibis_bitvec::Wah;
//! use ibis_core::{AccessMethod, Cell, Dataset, MissingPolicy, Predicate, RangeQuery};
//!
//! let data = Dataset::from_rows(
//!     &[("severity", 5)],
//!     &[vec![Cell::present(4)], vec![Cell::MISSING], vec![Cell::present(1)]],
//! )?;
//! let bre = RangeBitmapIndex::<Wah>::build(&data);
//! let q = RangeQuery::new(vec![Predicate::range(0, 3, 5)], MissingPolicy::IsMatch)?;
//! assert_eq!(bre.execute(&q)?.rows(), &[0, 1]); // row 1 matches via missing
//! # Ok::<(), ibis_core::Error>(())
//! ```
//!
//! ## Adding an encoding
//!
//! An encoding is a marker type and one `impl`: a file magic and a name,
//! the column builder, the interval evaluator — written against the charged
//! operations of [`engine`], which is what fills the work counters — the
//! planner's price of that evaluator, and one fact for the loader.
//! Building, querying at any
//! thread degree, counting, size reports and save/load then come from
//! [`BitmapIndex`]. Here, equality bitmaps that never take Fig. 2's
//! complement path:
//!
//! ```
//! use ibis_bitmap::{engine, AttrBitmaps, AttrPrices, BitmapIndex, Encoding, Equality,
//!                   EqualityBitmapIndex, Price};
//! use ibis_bitvec::{BitStore, BitVec64, Wah};
//! use ibis_core::{AccessMethod, Cell, Column, Dataset, Interval, MissingPolicy, WorkCounters};
//! # use ibis_core::{Predicate, RangeQuery};
//!
//! #[derive(Clone, Copy, Debug)]
//! struct Direct;
//! impl Encoding for Direct {
//!     const MAGIC: &'static [u8; 4] = b"IBDR";
//!     const NAME: &'static str = "bitmap-direct";
//!     fn build_attr<B: BitStore>(col: &Column) -> AttrBitmaps<B> { Equality::build_attr(col) }
//!     fn stored_count(c: u16, _param: u16, _has_b0: bool) -> Option<usize> { Some(c as usize) }
//!     fn price(p: &AttrPrices<'_>, iv: Interval, policy: MissingPolicy) -> Price {
//!         let in_range = p.fresh().reads(iv.width() as usize, p.stored(iv.lo as usize - 1..iv.hi as usize));
//!         match p.missing().filter(|_| policy == MissingPolicy::IsMatch) {
//!             Some(b0) => in_range.read(b0),
//!             None => in_range,
//!         }
//!     }
//!     fn interval<B: BitStore>(a: &AttrBitmaps<B>, _n_rows: usize, iv: Interval,
//!                              policy: MissingPolicy, cost: &mut WorkCounters) -> BitVec64 {
//!         let in_range = a.stored[iv.lo as usize - 1..iv.hi as usize].iter();
//!         let b0 = a.missing.iter().filter(|_| policy == MissingPolicy::IsMatch);
//!         engine::or_all(in_range.chain(b0), cost).expect("lo ≤ hi")
//!     }
//! }
//!
//! let values = [5, 2, 3, 0, 4, 5, 1, 3, 0, 2].map(|v| vec![Cell::from_raw(v)]);
//! let data = Dataset::from_rows(&[("a1", 5)], &values)?;
//! let q = RangeQuery::new(vec![Predicate::range(0, 1, 4)], MissingPolicy::IsMatch)?;
//! let (rows, cost) = BitmapIndex::<Direct, Wah>::build(&data).execute_with_cost(&q)?;
//! let (bee_rows, bee_cost) = EqualityBitmapIndex::<Wah>::build(&data).execute_with_cost(&q)?;
//! assert_eq!(rows, bee_rows);
//! // B_1 … B_4 and B_0, where Fig. 2 complements B_5 alone.
//! assert_eq!((cost.bitmaps_accessed, bee_cost.bitmaps_accessed), (5, 1));
//! // The planner prices those five reads above Fig. 2's one.
//! let direct = BitmapIndex::<Direct, Wah>::build(&data);
//! assert!(direct.estimated_cost(&q) > EqualityBitmapIndex::<Wah>::build(&data).estimated_cost(&q));
//! # Ok::<(), ibis_core::Error>(())
//! ```
//!
//! [`MissingPolicy`]: ibis_core::MissingPolicy

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bee;
mod bie;
mod bre;
mod decomposed;
pub mod engine;
mod index;
pub mod rejected;
pub mod reorder;
pub mod size;

pub use bee::{Equality, EqualityBitmapIndex};
pub use bie::{IntervalBitmapIndex, IntervalWindows};
pub use bre::{Range, RangeBitmapIndex};
pub use decomposed::{Decomposed, DecomposedBitmapIndex};
pub use index::{
    for_each_pair, read_any, AttrBitmaps, AttrPrices, BitmapIndex, Encoding, PairVisitor, Price,
};
pub use size::{AttrSize, SizeReport};

use ibis_bitvec::{BitStore, BitVec64};
use ibis_core::{Column, Dataset};

/// The equality encoding (§4.2) stored in [`ibis_bitvec::Adaptive`]
/// roaring-style containers — the database's equality index. The planner
/// lists it as `"bitmap-equality"`, like the encoding over any backend.
pub type AdaptiveBitmapIndex = EqualityBitmapIndex<ibis_bitvec::Adaptive>;

/// Builds the equality bit vectors of one column: `out[0]` flags missing
/// rows, `out[v]` flags rows with value `v`. Shared by the range and in-band
/// encodings (BRE derives its threshold bitmaps by prefix-OR); the equality
/// and interval encodings build from a [`ValueSort`] instead.
pub(crate) fn equality_bitvecs(column: &Column) -> Vec<BitVec64> {
    let n = column.len();
    let c = column.cardinality() as usize;
    let mut out = vec![BitVec64::zeros(n); c + 1];
    for (row, &raw) in column.raw().iter().enumerate() {
        out[raw as usize].set(row, true);
    }
    out
}

/// The rows of one column grouped by value, by a counting sort whose count
/// pass is `counts`, the column's [`Column::value_counts`] (prefix-sum,
/// place). The equality encoding stores each value's rows as a bitmap; the
/// interval encoding slides its windows over them.
pub(crate) struct ValueSort {
    /// `rows[starts[v]..starts[v + 1]]` hold value `v` (`0` = missing).
    starts: Vec<usize>,
    rows: Vec<u32>,
}

impl ValueSort {
    pub(crate) fn new(column: &Column, counts: &[usize]) -> ValueSort {
        debug_assert_eq!(counts.len(), column.cardinality() as usize + 1);
        let mut starts = vec![0];
        let mut placed = 0;
        for count in counts {
            placed += count;
            starts.push(placed);
        }
        let mut next = starts.clone();
        let mut rows = vec![0u32; column.len()];
        for (row, &raw) in column.raw().iter().enumerate() {
            let at = &mut next[raw as usize];
            rows[*at] = row as u32;
            *at += 1;
        }
        ValueSort { starts, rows }
    }

    /// The ids of the rows holding value `v` (`0` = missing), ascending.
    pub(crate) fn rows_of(&self, v: usize) -> &[u32] {
        &self.rows[self.starts[v]..self.starts[v + 1]]
    }
}

/// The equality (BEE) and interval (BIE) indexes a database keeps, each
/// when asked for, from one counting sort per column whose count pass is
/// `counts` (`counts[a]` is column `a`'s [`Column::value_counts`], which a
/// database keeps for its planner anyway). Each index is identical to its
/// own [`BitmapIndex::build`]'s.
pub fn build_sorted<B: BitStore>(
    dataset: &Dataset,
    counts: &[Vec<usize>],
    equality: bool,
    interval: bool,
) -> (
    Option<EqualityBitmapIndex<B>>,
    Option<IntervalBitmapIndex<B>>,
) {
    assert_eq!(counts.len(), dataset.n_attrs(), "one histogram per column");
    let (mut eq, mut iv) = (Vec::new(), Vec::new());
    if equality || interval {
        for (col, counts) in dataset.columns().iter().zip(counts) {
            let sort = ValueSort::new(col, counts);
            if equality {
                eq.push(Equality::build_sorted(col, &sort));
            }
            if interval {
                iv.push(IntervalWindows::build_sorted(col, &sort));
            }
        }
    }
    let n = dataset.n_rows();
    (
        equality.then(|| BitmapIndex::new(eq, n)),
        interval.then(|| BitmapIndex::new(iv, n)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Encoding;
    use ibis_bitvec::{Adaptive, Wah};

    /// A column's equality bitmaps as plain vectors encode them.
    fn via_bitvecs<B: BitStore>(col: &Column) -> (Option<B>, Vec<B>) {
        let eq = equality_bitvecs(col);
        let missing = (eq[0].count_ones() > 0).then(|| B::from_bitvec(&eq[0]));
        (missing, eq[1..].iter().map(B::from_bitvec).collect())
    }

    fn check_positions_build<B: BitStore + PartialEq + std::fmt::Debug>(d: &Dataset) {
        for col in d.columns() {
            let a = crate::Equality::build_attr::<B>(col);
            let (missing, stored) = via_bitvecs::<B>(col);
            let what = format!("{} {}", B::backend_name(), col.name());
            assert_eq!(a.missing, missing, "B_0 of {what}");
            assert_eq!(a.stored, stored, "value bitmaps of {what}");
        }
    }

    #[test]
    fn positions_build_the_bitmaps_the_plain_vectors_encode() {
        use ibis_bitvec::Bbc;
        use ibis_core::gen::{census_scaled, SyntheticGroup, SyntheticSpec};
        // The benchmark's column mix: cardinality {5, 20, 100} × missing
        // {10, 30, 50}%, past one 2^16-row chunk.
        let groups = [5u16, 20, 100]
            .into_iter()
            .flat_map(|cardinality| {
                [0.1, 0.3, 0.5].map(|missing_rate| SyntheticGroup {
                    cardinality,
                    missing_rate,
                    n_cols: 1,
                })
            })
            .collect();
        let grid = SyntheticSpec {
            n_rows: 70_000,
            groups,
        }
        .generate(3);
        // Present values sorted into row order (runs), a column with no
        // missing rows (no `B_0`) and one whose values 1, 3, 4, 6 hold no row.
        let n = 70_000u32;
        let sorted = (0..n).map(|r| if r % 10 == 0 { 0 } else { (r / 701 + 1) as u16 });
        let columns = vec![
            Column::from_raw("clustered", 100, sorted.collect()).unwrap(),
            Column::from_raw("full", 3, (0..n).map(|r| (r % 3 + 1) as u16).collect()).unwrap(),
            Column::from_raw("gaps", 6, (0..n).map(|r| [2, 5][r as usize % 2]).collect()).unwrap(),
        ];
        let shaped = Dataset::new(columns).unwrap();
        for d in [&grid, &shaped, &census_scaled(3_000, 5)] {
            check_positions_build::<Adaptive>(d);
            check_positions_build::<Wah>(d);
            // Handed the histograms a database keeps, the build writes the
            // same bytes as counting the columns itself.
            let counts: Vec<Vec<usize>> = d.columns().iter().map(|c| c.value_counts()).collect();
            let bytes = |ix: crate::AdaptiveBitmapIndex| {
                let mut out = Vec::new();
                ix.write_to(&mut out).unwrap();
                out
            };
            let (sorted, _) = build_sorted::<Adaptive>(d, &counts, true, false);
            assert_eq!(
                bytes(sorted.unwrap()),
                bytes(crate::AdaptiveBitmapIndex::build(d)),
            );
        }
        for d in [&shaped, &census_scaled(2_000, 7)] {
            check_positions_build::<BitVec64>(d);
            check_positions_build::<Bbc>(d);
        }
    }
}
