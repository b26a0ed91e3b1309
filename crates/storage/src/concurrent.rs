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
//!   behind one internal mutex, apply the mutation to the one
//!   [`DurableDb`] inside (WAL first when it has a log, straight to the
//!   shards when it is the in-memory database), and **publish**:
//!   shallow-clone the shard-set (copy-on-write `Arc`s, so this is a
//!   pointer bump per shard), stamp it with the bumped watermark, and swap
//!   it in under the write lock. Compaction rebuilds shards *inside the
//!   writer section* and swaps the rebuilt set in the same way — in-flight
//!   queries keep their pre-compaction snapshot and never stall.
//!
//! Publish ordering is the whole contract: the WAL append (when there is a
//! log) happens before the in-memory apply, the apply happens before the
//! publication swap, and the swap is one store under the write lock — so a
//! snapshot with watermark `w` contains *exactly* the first `w` logical
//! mutations, never a torn prefix. A superseded snapshot is an ordinary
//! `Arc`: it is freed when its last holder lets go. See `DESIGN.md` §14.

use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use ibis_core::Cell;

use crate::db::{DbConfig, ShardedDb};
use crate::engine::DurableDb;
use crate::snapshot::DbSnapshot;

/// Writer state: the database plus the logical mutation clock.
struct Writer {
    db: DurableDb,
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
    /// Serves `db`: a [`ShardedDb`] in memory, or a [`DurableDb`], whose
    /// mutations are logged first when it has a data directory.
    pub fn new(db: impl Into<DurableDb>) -> ConcurrentDb {
        let db = db.into();
        ConcurrentDb {
            durable: db.is_logged(),
            published: RwLock::new(Arc::new(DbSnapshot::freeze(&db, 0))),
            writer: Mutex::new(Writer { db, watermark: 0 }),
        }
    }

    /// Serves an in-memory sharded database (no durability).
    pub fn new_mem(dataset: ibis_core::Dataset, shard_rows: usize) -> ConcurrentDb {
        Self::new(ShardedDb::new(dataset, shard_rows))
    }

    /// Creates a durable database at `dir` and serves it. See
    /// [`DurableDb::create`].
    pub fn create_durable(
        dir: &Path,
        dataset: ibis_core::Dataset,
        shard_rows: usize,
        config: DbConfig,
    ) -> io::Result<ConcurrentDb> {
        DurableDb::create(dir, dataset, shard_rows, config).map(Self::new)
    }

    /// Opens (= crash-recovers) the durable database at `dir` and serves
    /// it. See [`DurableDb::open`].
    pub fn open_durable(dir: &Path) -> io::Result<ConcurrentDb> {
        DurableDb::open(dir).map(Self::new)
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
        // database may hold a half-applied state, so serving must stop.
        self.writer.lock().expect("writer panicked mid-mutation")
    }

    /// The one writer step: under the writer lock, apply one logical
    /// mutation, tick the watermark and publish. A mutation that fails
    /// (an invalid row, a failed WAL append) leaves the shards unchanged,
    /// so it neither ticks nor publishes.
    ///
    /// The new snapshot is built before the write lock on `published` is
    /// taken, and the superseded one is dropped after it is released:
    /// dropping a snapshot can free shard bodies, which must never happen
    /// under a lock readers take.
    fn mutate<R>(&self, apply: impl FnOnce(&mut DurableDb) -> io::Result<R>) -> io::Result<R> {
        let mut w = self.lock_writer();
        let out = apply(&mut w.db)?;
        w.watermark += 1;
        let next = Arc::new(DbSnapshot::freeze(&w.db, w.watermark));
        let mut published = self
            .published
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let superseded = std::mem::replace(&mut *published, next);
        drop(published);
        drop(superseded);
        Ok(out)
    }

    /// Appends one row (durably when WAL-backed) and publishes the new
    /// snapshot. Readers holding older snapshots are unaffected.
    pub fn insert(&self, row: &[Cell]) -> io::Result<()> {
        self.mutate(|db| db.insert(row))
    }

    /// Tombstones a global row id; returns whether the row was alive.
    /// Counts as one logical mutation (and publishes) even on a miss, so
    /// the watermark tracks the *attempted* history deterministically.
    pub fn delete(&self, row: u32) -> io::Result<bool> {
        self.mutate(|db| db.delete(row))
    }

    /// Folds deltas and tombstones into rebuilt shards, then swaps the
    /// rebuilt shard-set in atomically. In-flight queries finish on their
    /// pre-compaction snapshot; the next [`snapshot`](Self::snapshot)
    /// acquire sees the compacted one. Returns shards rebuilt.
    pub fn compact(&self) -> io::Result<usize> {
        self.mutate(DurableDb::compact)
    }

    /// Rolls the WAL into a fresh on-disk snapshot (a no-op for in-memory
    /// serving). Not a logical mutation: the watermark does not advance
    /// and no new snapshot is published — checkpointing changes how the
    /// state is stored, not what it is.
    pub fn checkpoint(&self) -> io::Result<()> {
        self.lock_writer().db.checkpoint()
    }

    /// Runs `f` against the durable engine's read API (generation, WAL
    /// bytes, backup) under the writer lock. `None` for in-memory serving.
    pub fn with_durable<R>(&self, f: impl FnOnce(&DurableDb) -> R) -> Option<R> {
        self.durable.then(|| f(&self.lock_writer().db))
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
        for (db, logged) in [(ConcurrentDb::new_mem(data, 16), false), (durable, true)] {
            assert_eq!(db.is_durable(), logged);
            assert_eq!(db.with_durable(|_| ()).is_some(), logged);
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
            // A checkpoint is not a logical mutation: it publishes nothing.
            let published = db.snapshot();
            db.checkpoint().unwrap();
            assert!(
                Arc::ptr_eq(&published, &db.snapshot()),
                "checkpoint published"
            );
            assert_eq!(db.snapshot().watermark(), before.1);
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
