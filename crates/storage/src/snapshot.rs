//! [`DbSnapshot`] — an immutable, point-in-time view of a sharded database.
//!
//! A snapshot is what readers hold: the full shard-set (frozen indexes,
//! deltas, tombstones, synopses) plus a **watermark** — the number of
//! logical mutations (`insert`/`delete`/`compact`) the writer had applied
//! when this snapshot was published. Because [`ShardedDb`] keeps its
//! shards behind [`Arc`](std::sync::Arc) with copy-on-write mutation,
//! capturing a snapshot is one shallow clone (a pointer bump per shard),
//! and a published snapshot can never change underneath a reader: any
//! later mutation copies the shard it touches before writing.
//!
//! A snapshot adds exactly one thing to the frozen [`ShardedDb`] — the
//! watermark — and dereferences to it for everything else, so the whole
//! `&self` read surface (queries, counts, synopses, sizes,
//! serialization) is the router's own, documented once, there. There is
//! deliberately no `DerefMut`: nothing can mutate a published snapshot. It
//! is `Send + Sync` and is shared freely across reader threads.

use crate::sharded::ShardedDb;

/// An immutable point-in-time view of the database: frozen shard-set plus
/// the mutation watermark at which it was published.
///
/// Obtained from [`ConcurrentDb::snapshot`](crate::ConcurrentDb::snapshot);
/// every read on [`ShardedDb`] is reachable through `Deref`, so downstream
/// code (CLI, benches, the oracle) runs unchanged against a snapshot.
#[derive(Debug)]
pub struct DbSnapshot {
    db: ShardedDb,
    watermark: u64,
}

impl DbSnapshot {
    /// Freezes `db` at logical time `watermark`. The clone is O(shards):
    /// every shard is shared, not copied.
    pub(crate) fn freeze(db: &ShardedDb, watermark: u64) -> DbSnapshot {
        DbSnapshot {
            db: db.clone(),
            watermark,
        }
    }

    /// The number of logical mutations applied before this snapshot was
    /// published. Monotonically non-decreasing across successive
    /// [`snapshot`](crate::ConcurrentDb::snapshot) calls on one thread.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// The frozen shard-set itself, for callers that want the
    /// [`ShardedDb`] by name rather than through `Deref`.
    pub fn db(&self) -> &ShardedDb {
        &self.db
    }
}

impl std::ops::Deref for DbSnapshot {
    type Target = ShardedDb;

    fn deref(&self) -> &ShardedDb {
        &self.db
    }
}
