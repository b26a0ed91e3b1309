//! # ibis-core
//!
//! Data model, query model, and workload generators for *incomplete
//! databases* — relations in which attribute values may be **missing** — as
//! defined in *"Indexing Incomplete Databases"* (Canahuate, Gibas,
//! Ferhatosmanoglu, EDBT 2006).
//!
//! The paper's model (its Section 3):
//!
//! * A database `D` has schema `(A_1, …, A_d)`. Attribute `A_i` takes integer
//!   values in `1..=C_i`, where `C_i` is the attribute's *cardinality*, or is
//!   **missing**.
//! * Retrieval uses a `k ≤ d`-dimensional search key of per-attribute
//!   intervals `v1 ≤ A_i ≤ v2`.
//! * Queries run under one of two semantics ([`MissingPolicy`]):
//!   - **missing-is-match**: a record answers the query if every *non-missing*
//!     queried attribute falls in its interval (missing values never
//!     disqualify);
//!   - **missing-is-not-match**: a record answers only if every queried
//!     attribute is present *and* in range.
//!
//! This crate supplies the substrate every index in the workspace builds on:
//!
//! * [`Cell`], [`Column`], [`Dataset`] — column-major storage with `0`
//!   reserved as the in-band missing marker (values live in `1..=C`);
//! * [`RangeQuery`] / [`Predicate`] / [`Interval`] — the query model;
//! * [`scan`] — the exact sequential-scan evaluator used as ground truth by
//!   every differential test in the workspace;
//! * [`selectivity`] — the paper's selectivity algebra
//!   `GS = Π_i ((1 − Pm_i)·AS_i + Pm_i)` and its inversion, used to generate
//!   query workloads with a controlled global selectivity;
//! * [`gen`] — dataset generators (the uniform synthetic set and the
//!   census-like skewed set of the paper's Table 7) and query-workload
//!   generators.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod answer;
mod cell;
mod column;
pub mod csv;
mod dataset;
pub mod engine;
mod error;
pub mod gen;
pub mod parallel;
pub mod parse;
mod query;
mod rowset;
pub mod scan;
pub mod selectivity;
pub mod stats;
pub mod synopsis;
pub mod wire;

pub use answer::Answer;
pub use cell::Cell;
pub use column::Column;
pub use dataset::{validate_row, Dataset};
pub use engine::{coalesce_compatible, AccessMethod, WorkCounters};
pub use error::{Error, Result};
pub use query::{Interval, MissingPolicy, Predicate, RangeQuery};
pub use rowset::RowSet;
pub use synopsis::{AttrSynopsis, ShardSynopsis};

/// The longest one query case may take, in milliseconds: the correctness
/// oracle's default per-case budget ("too slow to be right") and the query
/// server's default request deadline ("too slow to serve") are this one
/// number.
pub const QUERY_BUDGET_MS: u64 = 10_000;
