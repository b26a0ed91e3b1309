//! [`ConcurrentDb`] — snapshot-isolated concurrent serving.
//!
//! The ownership inversion that makes "readers never wait for a mutation
//! in progress" true end to end:
//!
//! * **Readers** call [`ConcurrentDb::snapshot`]: read-lock the published
//!   `RwLock<Arc<DbSnapshot>>`, clone the `Arc`, unlock. Every query runs
//!   against that frozen shard-set; a reader holding a snapshot is
//!   invisible to writers and vice versa. A reader never touches the
//!   writer mutex, so the only thing it can wait for is the single
//!   pointer store of a publication — never a mutation, a WAL append or
//!   fsync, a compaction or a checkpoint.
//! * **Writers** (`insert`/`delete`/`compact`/`checkpoint`) serialize
//!   behind one internal mutex, apply the mutation to the backend
//!   (in-memory [`ShardedDb`] or durable [`DurableDb`] — WAL first), and
//!   **publish**: shallow-clone the shard-set (copy-on-write `Arc`s, so
//!   this is a pointer bump per shard), stamp it with the bumped
//!   watermark, and swap it in under the write lock. Compaction rebuilds
//!   shards *inside the writer section* and swaps the rebuilt set in the
//!   same way — in-flight queries keep their pre-compaction snapshot and
//!   never stall.
//!
//! Publish ordering is the whole contract: the WAL append (durable
//! backend) happens before the in-memory apply, the apply happens before
//! the publication swap, and the swap is one store under the write lock —
//! so a snapshot with watermark `w` contains *exactly* the first `w`
//! logical mutations, never a torn prefix. A superseded snapshot is an
//! ordinary `Arc`: it is freed when its last holder lets go. See
//! `DESIGN.md` §14.

use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use ibis_core::Cell;

use crate::db::{invalid_input, DbConfig, ShardedDb};
use crate::engine::DurableDb;
use crate::snapshot::DbSnapshot;

/// The mutable truth behind the writer lock: either a plain in-memory
/// sharded store or the WAL-backed durable engine.
enum Backend {
    Mem(ShardedDb),
    Durable(DurableDb),
}

impl Backend {
    fn db(&self) -> &ShardedDb {
        match self {
            Backend::Mem(db) => db,
            Backend::Durable(d) => d.db(),
        }
    }
}

/// Writer state: the backend plus the logical mutation clock.
struct Writer {
    backend: Backend,
    watermark: u64,
}

/// A sharded incomplete database served under snapshot isolation:
/// readers that never wait for a mutation in progress, serialized
/// writers, atomic publication.
///
/// ```
/// use ibis_core::gen::census_scaled;
/// use ibis_core::{MissingPolicy, Predicate, RangeQuery};
/// use ibis_storage::ConcurrentDb;
///
/// let db = ConcurrentDb::new_mem(census_scaled(100, 7), 32);
/// let snap = db.snapshot(); // never waits for a writer's mutation
/// let q = RangeQuery::new(vec![Predicate::range(0, 1, 2)], MissingPolicy::IsMatch).unwrap();
/// let before = snap.execute(&q).unwrap();
/// db.delete(3).unwrap(); // writers never invalidate a held snapshot
/// assert_eq!(snap.execute(&q).unwrap(), before);
/// assert!(db.snapshot().watermark() > snap.watermark());
/// ```
pub struct ConcurrentDb {
    writer: Mutex<Writer>,
    published: RwLock<Arc<DbSnapshot>>,
    /// Fixed at construction, so asking never queues behind a writer.
    durable: bool,
}

impl ConcurrentDb {
    fn from_backend(backend: Backend) -> ConcurrentDb {
        let first = DbSnapshot::freeze(backend.db(), 0);
        ConcurrentDb {
            durable: matches!(backend, Backend::Durable(_)),
            writer: Mutex::new(Writer {
                backend,
                watermark: 0,
            }),
            published: RwLock::new(Arc::new(first)),
        }
    }

    /// Serves an in-memory sharded database (no durability).
    pub fn new_mem(dataset: ibis_core::Dataset, shard_rows: usize) -> ConcurrentDb {
        Self::from_sharded(ShardedDb::new(dataset, shard_rows))
    }

    /// Serves an existing [`ShardedDb`] (no durability).
    pub fn from_sharded(db: ShardedDb) -> ConcurrentDb {
        Self::from_backend(Backend::Mem(db))
    }

    /// Creates a durable database at `dir` and serves it. See
    /// [`DurableDb::create`].
    pub fn create_durable(
        dir: &Path,
        dataset: ibis_core::Dataset,
        shard_rows: usize,
        config: DbConfig,
    ) -> io::Result<ConcurrentDb> {
        let d = DurableDb::create(dir, dataset, shard_rows, config)?;
        Ok(Self::from_backend(Backend::Durable(d)))
    }

    /// Opens (= crash-recovers) the durable database at `dir` and serves
    /// it. See [`DurableDb::open`].
    pub fn open_durable(dir: &Path) -> io::Result<ConcurrentDb> {
        let d = DurableDb::open(dir)?;
        Ok(Self::from_backend(Backend::Durable(d)))
    }

    /// Serves an already-open [`DurableDb`].
    pub fn from_durable(db: DurableDb) -> ConcurrentDb {
        Self::from_backend(Backend::Durable(db))
    }

    /// Acquires the currently-published snapshot: read-lock, clone the
    /// `Arc`, unlock. Never touches the writer mutex, so it never waits
    /// for an insert, delete, WAL append or fsync, compaction or
    /// checkpoint in progress — only, at worst, for the single pointer
    /// store of a publication.
    pub fn snapshot(&self) -> Arc<DbSnapshot> {
        // Neither critical section on `published` can panic, so a
        // poisoned guard still holds a whole snapshot: recover it.
        let published = self
            .published
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(&published)
    }

    /// Whether mutations are WAL-backed.
    pub fn is_durable(&self) -> bool {
        self.durable
    }

    fn lock_writer(&self) -> MutexGuard<'_, Writer> {
        // A poisoned lock means a writer panicked mid-mutation; the
        // backend may hold a half-applied state, so serving must stop.
        self.writer.lock().expect("writer panicked mid-mutation")
    }

    /// Publishes `w`'s current state at its current watermark. The new
    /// snapshot is built before the write lock is taken and the superseded
    /// one is dropped after it is released: dropping a snapshot can free
    /// shard bodies, which must never happen under a lock readers take.
    fn publish(&self, w: &Writer) {
        let next = Arc::new(DbSnapshot::freeze(w.backend.db(), w.watermark));
        let mut published = self
            .published
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let superseded = std::mem::replace(&mut *published, next);
        drop(published);
        drop(superseded);
    }

    /// Appends one row (durably when WAL-backed) and publishes the new
    /// snapshot. Readers holding older snapshots are unaffected.
    pub fn insert(&self, row: &[Cell]) -> io::Result<()> {
        let mut w = self.lock_writer();
        match &mut w.backend {
            Backend::Mem(db) => db.insert(row).map_err(invalid_input)?,
            Backend::Durable(d) => d.insert(row)?,
        }
        w.watermark += 1;
        self.publish(&w);
        Ok(())
    }

    /// Tombstones a global row id; returns whether the row was alive.
    /// Counts as one logical mutation (and publishes) even on a miss, so
    /// the watermark tracks the *attempted* history deterministically.
    pub fn delete(&self, row: u32) -> io::Result<bool> {
        let mut w = self.lock_writer();
        let hit = match &mut w.backend {
            Backend::Mem(db) => db.delete(row),
            Backend::Durable(d) => d.delete(row)?,
        };
        w.watermark += 1;
        self.publish(&w);
        Ok(hit)
    }

    /// Folds deltas and tombstones into rebuilt shards, then swaps the
    /// rebuilt shard-set in atomically. In-flight queries finish on their
    /// pre-compaction snapshot; the next [`snapshot`](Self::snapshot)
    /// acquire sees the compacted one. Returns shards rebuilt.
    pub fn compact(&self) -> io::Result<usize> {
        let mut w = self.lock_writer();
        let rebuilt = match &mut w.backend {
            Backend::Mem(db) => db.compact(),
            Backend::Durable(d) => d.compact()?,
        };
        w.watermark += 1;
        self.publish(&w);
        Ok(rebuilt)
    }

    /// Rolls the WAL into a fresh on-disk snapshot (durable backend only;
    /// a no-op for in-memory serving). Not a logical mutation: the
    /// watermark does not advance and no new snapshot is published —
    /// checkpointing changes how the state is stored, not what it is.
    pub fn checkpoint(&self) -> io::Result<()> {
        let mut w = self.lock_writer();
        match &mut w.backend {
            Backend::Mem(_) => Ok(()),
            Backend::Durable(d) => d.checkpoint(),
        }
    }

    /// Runs `f` against the durable engine's read API (generation, WAL
    /// bytes, backup) under the writer lock. `None` for in-memory serving.
    pub fn with_durable<R>(&self, f: impl FnOnce(&DurableDb) -> R) -> Option<R> {
        match &self.lock_writer().backend {
            Backend::Mem(_) => None,
            Backend::Durable(d) => Some(f(d)),
        }
    }
}

impl std::fmt::Debug for ConcurrentDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("ConcurrentDb")
            .field("watermark", &snap.watermark())
            .field("n_rows", &snap.n_rows())
            .field("shards", &snap.shard_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_core::gen::census_scaled;
    use ibis_core::{MissingPolicy, Predicate, RangeQuery};

    fn q() -> RangeQuery {
        RangeQuery::new(vec![Predicate::range(0, 1, 2)], MissingPolicy::IsMatch).unwrap()
    }

    #[test]
    fn snapshots_are_isolated_from_writes() {
        let db = ConcurrentDb::new_mem(census_scaled(120, 9), 32);
        let s0 = db.snapshot();
        assert_eq!(s0.watermark(), 0);
        let before = s0.execute(&q()).unwrap();
        let row = vec![Cell::present(1); s0.n_attrs()];
        db.insert(&row).unwrap();
        assert!(db.delete(0).unwrap());
        assert!(!db.delete(9999).unwrap(), "miss still ticks the clock");
        assert!(db.compact().unwrap() >= 1);
        // The old snapshot is untouched; the new one reflects all 4 ops.
        assert_eq!(s0.execute(&q()).unwrap(), before);
        let s4 = db.snapshot();
        assert_eq!(s4.watermark(), 4);
        assert_eq!(s4.n_rows(), 120); // +1 insert, −1 delete
                                      // A snapshot taken *after* compaction is itself frozen: a further
                                      // delete is invisible to it.
        assert!(db.delete(5).unwrap());
        assert_eq!(s4.n_rows(), 120);
        assert_eq!(db.snapshot().n_rows(), 119);
        assert_eq!(db.snapshot().watermark(), 5);
    }

    #[test]
    fn watermarks_are_monotonic_per_thread() {
        let db = Arc::new(ConcurrentDb::new_mem(census_scaled(40, 11), 16));
        let writer = {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for i in 0..200u32 {
                    db.delete(i % 40).unwrap();
                }
            })
        };
        let mut last = 0;
        while last < 200 {
            let w = db.snapshot().watermark();
            assert!(w >= last, "watermark went backwards: {w} < {last}");
            last = last.max(w);
        }
        writer.join().unwrap();
        assert_eq!(db.snapshot().watermark(), 200);
    }

    #[test]
    fn superseded_snapshot_is_freed_when_its_last_holder_lets_go() {
        let db = ConcurrentDb::new_mem(census_scaled(40, 12), 16);
        let held = db.snapshot();
        let weak = Arc::downgrade(&held);
        db.delete(0).unwrap();
        db.delete(1).unwrap();
        // Two publications later the holder still keeps it alive...
        assert_eq!(weak.upgrade().expect("held").watermark(), 0);
        // ...and nothing else does: the database let go at the first one.
        drop(held);
        assert!(weak.upgrade().is_none(), "superseded snapshot leaked");
        // The published snapshot is owned by the database, not the caller.
        let weak = Arc::downgrade(&db.snapshot());
        assert_eq!(weak.upgrade().expect("published").watermark(), 2);
    }

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ibis-conc-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_returns_while_the_writer_mutex_is_held() {
        let dir = tmp("held");
        let db = Arc::new(
            ConcurrentDb::create_durable(&dir, census_scaled(60, 14), 16, DbConfig::all()).unwrap(),
        );
        // The holder sits inside the writer mutex until told to leave (or
        // five seconds pass, so a regression fails instead of hanging).
        let (entered, wait) = std::sync::mpsc::channel();
        let (release, leave) = std::sync::mpsc::channel::<()>();
        let holder = {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                db.with_durable(|_| {
                    entered.send(()).unwrap();
                    leave
                        .recv_timeout(std::time::Duration::from_secs(5))
                        .is_ok()
                })
            })
        };
        wait.recv().unwrap(); // the writer mutex is held from here on
        let snap = db.snapshot();
        let rows = snap.execute(&q()).unwrap();
        assert!(db.is_durable(), "a constant, not a writer-lock read");
        release.send(()).ok(); // the holder may have timed out and gone
        assert_eq!(
            holder.join().unwrap(),
            Some(true),
            "snapshot() or is_durable() waited out the writer mutex"
        );
        assert_eq!(rows, db.snapshot().execute(&q()).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_rows_are_invalid_input_on_both_backends_and_change_nothing() {
        let dir = tmp("invalid");
        let data = census_scaled(40, 15);
        let n_attrs = data.n_attrs();
        let durable =
            ConcurrentDb::create_durable(&dir, data.clone(), 16, DbConfig::default()).unwrap();
        let mut out_of_domain = vec![Cell::MISSING; n_attrs];
        out_of_domain[0] = Cell::present(u16::MAX);
        for db in [ConcurrentDb::new_mem(data, 16), durable] {
            let state = |db: &ConcurrentDb| {
                let snap = db.snapshot();
                let wal = db.with_durable(|d| d.wal_bytes());
                (snap.n_rows(), snap.watermark(), wal)
            };
            let before = state(&db);
            for row in [&[Cell::present(1)][..], &out_of_domain] {
                let err = db.insert(row).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
                assert_eq!(state(&db), before);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_backend_serves_and_recovers() {
        let dir = tmp("serve");
        {
            let db = ConcurrentDb::create_durable(&dir, census_scaled(60, 13), 16, DbConfig::all())
                .unwrap();
            assert!(db.is_durable());
            let row = vec![Cell::present(1); db.snapshot().n_attrs()];
            db.insert(&row).unwrap();
            db.delete(1).unwrap();
            db.checkpoint().unwrap();
            assert_eq!(
                db.snapshot().watermark(),
                2,
                "checkpoint is not a logical mutation"
            );
        }
        let db = ConcurrentDb::open_durable(&dir).unwrap();
        assert_eq!(db.snapshot().n_rows(), 60);
        assert!(db.with_durable(|d| d.generation()).unwrap() >= 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
