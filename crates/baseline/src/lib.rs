//! # ibis-baseline
//!
//! The comparators the paper measures against or cites, all built from
//! scratch:
//!
//! * [`RTree`] — a classic dynamic R-tree (quadratic split), the
//!   hierarchical multi-dimensional index of the paper's **Fig. 1**
//!   motivating experiment. [`RTreeIncomplete`] wraps it with the paper's
//!   sentinel mapping (missing → a distinguished value outside the domain)
//!   and the `2^k`-subquery expansion needed for *missing-is-match*
//!   semantics — the combination whose breakdown motivates the whole paper;
//! * [`BPlusTree`] — an order-configurable in-memory B+-tree over one
//!   attribute, the substrate for MOSAIC;
//! * [`Mosaic`] — the MOSAIC technique of Ooi, Goh, Tan (paper ref. \[12\]):
//!   one B+-tree per attribute, missing mapped to a distinguished key, and
//!   result sets combined with the intersection/union set operations whose
//!   cost the paper's bitmap approach avoids;
//! * [`BitstringAugmented`] — the bitstring-augmented method of the same
//!   paper: missing values completed with the attribute mean, a per-record
//!   missingness bitstring, and `2^k` subqueries under match semantics;
//! * [`SequentialScan`] — the index-free baseline.
//!
//! Every structure returns exact answers under both
//! [`MissingPolicy`](ibis_core::MissingPolicy) variants, exposes
//! machine-independent work counters ([`ibis_core::WorkCounters`]) so the benchmark
//! harness can report shapes that survive hardware changes, and implements
//! the engine-layer [`AccessMethod`](ibis_core::AccessMethod) trait so the
//! planner can weigh it against the bitmap and VA families.
//!
//! ```
//! use ibis_baseline::RTreeIncomplete;
//! use ibis_core::{Cell, Dataset, MissingPolicy, Predicate, RangeQuery};
//!
//! let data = Dataset::from_rows(
//!     &[("x", 10), ("y", 10)],
//!     &[vec![Cell::present(5), Cell::present(5)],
//!       vec![Cell::MISSING, Cell::present(5)]],
//! )?;
//! let rtree = RTreeIncomplete::build(&data);
//! let q = RangeQuery::new(
//!     vec![Predicate::range(0, 4, 6), Predicate::range(1, 4, 6)],
//!     MissingPolicy::IsMatch,
//! )?;
//! let (rows, stats) = rtree.execute_with_cost(&q)?;
//! assert_eq!(rows.rows(), &[0, 1]);
//! assert_eq!(stats.subqueries, 2); // 2^1: only x has missing data
//! # Ok::<(), ibis_core::Error>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bitstring;
mod bptree;
mod mosaic;
mod rtree;
mod seqscan;

pub use bitstring::BitstringAugmented;
pub use bptree::BPlusTree;
pub use mosaic::Mosaic;
pub use rtree::{RTree, RTreeIncomplete, Rect};
pub use seqscan::{BoundScan, SequentialScan};
