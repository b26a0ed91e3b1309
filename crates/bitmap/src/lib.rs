//! # ibis-bitmap
//!
//! The paper's primary contribution: bitmap indexes adapted to incomplete
//! databases (§4.1–§4.4 of *"Indexing Incomplete Databases"*, EDBT 2006).
//!
//! There is one index type, [`BitmapIndex<E, B>`](BitmapIndex): encoding
//! `E`'s bitmaps for every attribute, held in bit-vector backend `B`
//! ([`ibis_bitvec::BitStore`]: plain, WAH, BBC, or adaptive containers).
//! The index owns what every family shares — building, size accounting, the
//! query driver and its work counters, row appends, the file format — and
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
//! operations of [`engine`], which is what fills the work counters — and
//! two small facts for the planner and the loader. Building, querying at any
//! thread degree, counting, size reports and save/load then come from
//! [`BitmapIndex`]. Here, equality bitmaps that never take Fig. 2's
//! complement path:
//!
//! ```
//! use ibis_bitmap::{engine, AttrBitmaps, BitmapIndex, Encoding, Equality, EqualityBitmapIndex};
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
//!     fn reads_for(w: f64, _c: f64, _param: u16) -> f64 { w + 1.0 }
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
    for_each_pair, read_any, AppendEncoding, AttrBitmaps, BitmapIndex, Encoding, PairVisitor,
};
pub use size::{AttrSize, SizeReport};

use ibis_bitvec::BitVec64;
use ibis_core::Column;

/// The equality encoding (§4.2) stored in [`ibis_bitvec::Adaptive`]
/// roaring-style containers — the database's equality index. The planner
/// lists it as `"bitmap-equality"`, like the encoding over any backend.
pub type AdaptiveBitmapIndex = EqualityBitmapIndex<ibis_bitvec::Adaptive>;

/// Builds the equality bit vectors of one column: `out[0]` flags missing
/// rows, `out[v]` flags rows with value `v`. Shared by the equality, range
/// and in-band encodings (BRE derives its threshold bitmaps by prefix-OR).
pub(crate) fn equality_bitvecs(column: &Column) -> Vec<BitVec64> {
    let n = column.len();
    let c = column.cardinality() as usize;
    let mut out = vec![BitVec64::zeros(n); c + 1];
    for (row, &raw) in column.raw().iter().enumerate() {
        out[raw as usize].set(row, true);
    }
    out
}
