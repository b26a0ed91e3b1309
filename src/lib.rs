//! # ibis — Indexing Incomplete Databases
//!
//! A reproduction of *"Indexing Incomplete Databases"* (Canahuate, Gibas,
//! Ferhatosmanoglu, EDBT 2006): bitmap indexes (equality- and range-encoded,
//! WAH-compressed) and VA-files adapted to answer range and point queries
//! over relations with **missing data**, under both of the paper's query
//! semantics (*missing-is-match* and *missing-is-not-match*), plus the
//! baselines the paper compares against (R-tree, MOSAIC, bitstring-augmented
//! index, sequential scan).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] — data model ([`Dataset`](ibis_core::Dataset), [`RangeQuery`](ibis_core::RangeQuery), [`MissingPolicy`](ibis_core::MissingPolicy)),
//!   scan ground truth, selectivity algebra, workload generators;
//! * [`bitvec`] — the bit-vector substrate: uncompressed, WAH- and
//!   BBC-compressed vectors and roaring-style adaptive containers, behind
//!   one [`BitStore`](ibis_bitvec::BitStore) trait;
//! * [`bitmap`] — one bitmap index type,
//!   [`BitmapIndex<E, B>`](ibis_bitmap::BitmapIndex), over the paper's
//!   equality (BEE) and range (BRE) encodings, the interval and decomposed
//!   encodings, and the in-band encodings the paper rejects;
//! * [`vafile`] — the paper's VA-file and the VA+-file extension;
//! * [`baseline`] — R-tree, B+-tree, MOSAIC, bitstring-augmented index;
//! * [`storage`] — the database layer ([`db::IncompleteDb`],
//!   [`db::ShardedDb`]), the durable engine
//!   ([`DurableDb`](storage::DurableDb)): write-ahead log, checkpoints,
//!   atomic MANIFEST, backup/restore, crash recovery — and the
//!   snapshot-isolated serving layer
//!   ([`ConcurrentDb`](storage::ConcurrentDb)): reader snapshots that
//!   never wait for a mutation in progress, under streaming writes;
//! * [`server`] — networked query serving ([`Server`](server::Server),
//!   the `IBQP` wire protocol, the blocking [`Client`](server::Client)):
//!   CRC-framed requests executed in arrival order on frozen
//!   snapshots, with per-request deadlines and admission control (see the
//!   `ibis serve` CLI subcommand, and the `figures serving` experiment for
//!   latency against offered load);
//! * [`oracle`] — seeded differential + metamorphic correctness oracle over
//!   every access method (see the `ibis oracle` CLI subcommand);
//! * [`obs`] — zero-dependency observability (tracing spans, metrics,
//!   profile snapshots) behind `ibis query --profile` and
//!   [`profile::profile_method`].
//!
//! ## Quickstart
//!
//! Every index family implements the engine-layer
//! [`AccessMethod`](ibis_core::AccessMethod) trait, and [`db::IncompleteDb`]
//! plans across whichever methods it maintains:
//!
//! ```
//! use ibis::prelude::*;
//!
//! // A tiny incomplete relation: two attributes with domain 1..=5.
//! let data = Dataset::from_rows(
//!     &[("age_band", 5), ("income_band", 5)],
//!     &[
//!         vec![Cell::present(2), Cell::present(4)],
//!         vec![Cell::MISSING, Cell::present(3)],
//!         vec![Cell::present(5), Cell::MISSING],
//!     ],
//! )
//! .unwrap();
//!
//! // A database maintaining BEE, BRE and a VA-file: the paper's §6 pair
//! // (the default pairs BEE with BIE), plus the VA-file, each by name.
//! let config = DbConfig { bee: true, bre: true, va: true, ..DbConfig::none() };
//! let db = IncompleteDb::with_config(data.clone(), config);
//!
//! // One query, both semantics.
//! let key = vec![Predicate::range(0, 2, 3), Predicate::range(1, 3, 5)];
//! for policy in MissingPolicy::ALL {
//!     let q = RangeQuery::new(key.clone(), policy).unwrap();
//!     let truth = ibis::core::scan::execute(&data, &q);
//!     assert_eq!(db.execute(&q).unwrap(), truth);
//!
//!     // The planner explains its choice: every candidate with its cost
//!     // (on a 3-row relation the VA-file's few words of codes win).
//!     let plan = db.explain(&q).unwrap();
//!     assert_eq!(plan.chosen, "va-file");
//!     assert_eq!(plan.candidates.len(), 4); // bee, bre, va, seqscan
//!
//!     // Or drive one index directly through the common trait.
//!     let bee = EqualityBitmapIndex::<Wah>::build(&data);
//!     let (rows, cost) = bee.execute_with_cost(&q).unwrap();
//!     assert_eq!(rows, truth);
//!     assert!(cost.bitmaps_accessed > 0);
//! }
//! ```

#![forbid(unsafe_code)]

pub mod profile;

/// The database layer (planner registry + sharded store), re-exported from
/// [`ibis_storage`] where it lives alongside the durable engine.
pub mod db {
    pub use ibis_storage::db::*;
}

pub use ibis_baseline as baseline;
pub use ibis_bitmap as bitmap;
pub use ibis_bitvec as bitvec;
pub use ibis_core as core;
pub use ibis_obs as obs;
pub use ibis_oracle as oracle;
pub use ibis_server as server;
pub use ibis_storage as storage;
pub use ibis_vafile as vafile;

/// Commonly used items in one import.
pub mod prelude {
    pub use ibis_baseline::{
        BPlusTree, BitstringAugmented, Mosaic, RTree, RTreeIncomplete, SequentialScan,
    };
    pub use ibis_bitmap::{
        AdaptiveBitmapIndex, DecomposedBitmapIndex, EqualityBitmapIndex, IntervalBitmapIndex,
        RangeBitmapIndex,
    };
    pub use ibis_bitvec::{Adaptive, Bbc, BitVec64, Wah};
    pub use ibis_core::{
        Cell, Column, Dataset, Interval, MissingPolicy, Predicate, RangeQuery, RowSet,
    };
    pub use ibis_vafile::{VaFile, VaPlusFile};

    pub use ibis_core::{AccessMethod, WorkCounters};
    pub use ibis_obs::{Recorder, Snapshot};

    pub use crate::db::{CandidatePlan, DbConfig, IncompleteDb, Plan, ShardExecution, ShardedDb};
    pub use crate::profile::{profile_method, profile_sharded, QueryProfile};
    pub use ibis_server::{Server, ServerConfig, ServerHandle};
    pub use ibis_storage::{ConcurrentDb, DbSnapshot, DurableDb, ValidateReport};
}
