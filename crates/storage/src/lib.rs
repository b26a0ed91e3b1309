//! # ibis-storage — the database and durability layer
//!
//! Everything above the index crates and below the `ibis` facade:
//!
//! * [`db`] — the shard ([`IncompleteDb`]): one row range with its
//!   indexes, append delta, tombstones, synopsis and the §6 planner that
//!   ranks its access methods once per query;
//! * [`sharded`] — the router ([`ShardedDb`]): shards behind `Arc`,
//!   global-id offsets, synopsis pruning, fan-out and merge — and nothing
//!   that needs a shard's fields;
//! * [`wal`] — the append-only, checksummed, torn-tail-tolerant
//!   write-ahead log;
//! * [`manifest`] — the atomically-replaced MANIFEST naming the live
//!   snapshot and WAL watermark;
//! * [`engine`] — [`DurableDb`], the one writable database: a
//!   [`ShardedDb`] with an optional log (WAL → checkpoint → MANIFEST →
//!   backup, with open-time crash recovery); without a log it is the
//!   in-memory database;
//! * [`snapshot`] / [`concurrent`] — [`DbSnapshot`] (immutable frozen
//!   shard-set + watermark) and [`ConcurrentDb`] (reader snapshots that
//!   never wait for a mutation in progress, serialized writers over one
//!   [`DurableDb`], atomic publication through one
//!   `RwLock<Arc<DbSnapshot>>`).
//!
//! [`DbSnapshot`] and [`DurableDb`] are wrappers, not re-declarations: each
//! keeps only what is its own (a watermark; an optional log of WAL,
//! manifest and checkpoints) and dereferences to the [`ShardedDb`] inside
//! for reads. Neither implements `DerefMut`, so a published snapshot cannot
//! change and a logged store can only be mutated log-first.
//!
//! The durability model follows from the paper's economics: encoded bitmap
//! indexes (BEE/BRE/BIE) are expensive to update in place, so the durable
//! truth is an append-only row log plus periodic snapshots of the *data*
//! (datasets, deltas, tombstones), and every index and synopsis is a
//! rebuildable cache recomputed on load. Snapshots therefore never store
//! index bytes, and recovery is "load data, rebuild indexes, replay tail".

#![forbid(unsafe_code)]

pub mod concurrent;
pub mod db;
pub mod engine;
pub mod manifest;
pub mod sharded;
pub mod snapshot;
pub mod wal;

pub mod crc;

pub use concurrent::ConcurrentDb;
pub use db::{CandidatePlan, DbConfig, IncompleteDb, Plan, ShardExecution, ShardedDb};
pub use engine::{DurableDb, ValidateReport};
pub use manifest::Manifest;
pub use snapshot::DbSnapshot;
pub use wal::{WalRecord, WalScan};
