//! The writable database: a [`ShardedDb`] with an optional log (WAL +
//! snapshot + MANIFEST in a data directory). Without a log it is the
//! in-memory database; with one, every mutation is logged first.
//!
//! A data directory holds three kinds of file:
//!
//! * `wal.log` — the append-only [write-ahead log](crate::wal); every
//!   mutation is fsynced here before the in-memory database changes;
//! * `snapshot-NNNNNN.ibss` — a full serialization of the sharded store
//!   (datasets, deltas, tombstones — **not** indexes or synopses, which are
//!   rebuildable caches recomputed on load);
//! * `MANIFEST` — the atomically-replaced commit point naming the live
//!   snapshot and the WAL watermark.
//!
//! Opening a directory is recovery: load the manifest's snapshot, replay
//! every WAL record past the watermark, and truncate whatever torn tail the
//! crash left. [`DurableDb::checkpoint`] rolls the log into a fresh
//! snapshot and truncates the WAL; [`DurableDb::backup`] /
//! [`DurableDb::restore`] move the whole logical state through one
//! checksummed file, byte-identically.

use crate::crc::crc32;
use crate::db::{invalid, invalid_input};
use crate::manifest::{Manifest, MANIFEST_FILE};
use crate::wal::{self, WalRecord, WalWriter};
use crate::{DbConfig, ShardedDb};
use ibis_core::wire;
use ibis_core::{Cell, Dataset};
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

const BACKUP_MAGIC: &[u8; 4] = b"IBBK";
const BACKUP_VERSION: u16 = 1;

/// File name of the write-ahead log inside a data directory.
pub const WAL_FILE: &str = "wal.log";

/// Path of the WAL inside `dir` (exposed for crash harnesses that truncate
/// or corrupt it between sessions).
pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join(WAL_FILE)
}

fn snapshot_name(generation: u64) -> String {
    format!("snapshot-{generation:06}.ibss")
}

/// A [`ShardedDb`] with an optional log. A database with a data directory
/// ([`create`](DurableDb::create), [`open`](DurableDb::open),
/// [`restore`](DurableDb::restore)) logs (and fsyncs) every mutation to the
/// WAL before it touches the shards, checkpoints into snapshots, and
/// recovers after a crash at any byte of the log. One built `From` a
/// [`ShardedDb`] has no log: it is the in-memory database, its mutations
/// go straight to the shards and [`checkpoint`](DurableDb::checkpoint) is a
/// no-op. Every read — queries, row counts, synopses — is the store's own,
/// reached through `Deref`.
///
/// ```
/// use ibis_core::{Cell, Dataset};
/// use ibis_storage::DurableDb;
///
/// let dir = std::env::temp_dir().join(format!("ibis_engine_doc_{}", std::process::id()));
/// std::fs::remove_dir_all(&dir).ok();
/// let data = Dataset::from_rows(&[("a", 9)], &[vec![Cell::present(4)]]).unwrap();
/// let mut db = DurableDb::create(&dir, data, 64, Default::default()).unwrap();
/// db.insert(&[Cell::present(7)]).unwrap();
/// drop(db); // crash!
///
/// let recovered = DurableDb::open(&dir).unwrap();
/// assert_eq!(recovered.n_rows(), 2); // the insert was replayed from the WAL
/// assert_eq!(recovered.replayed_on_open(), 1);
/// std::fs::remove_dir_all(&dir).ok();
/// ```
#[derive(Debug)]
pub struct DurableDb {
    db: ShardedDb,
    log: Option<Log>,
}

/// What a database with a data directory keeps beside its shards.
#[derive(Debug)]
struct Log {
    dir: PathBuf,
    wal: WalWriter,
    manifest: Manifest,
    replayed: u64,
}

/// The in-memory database: no directory, no log.
impl From<ShardedDb> for DurableDb {
    fn from(db: ShardedDb) -> DurableDb {
        DurableDb { db, log: None }
    }
}

impl DurableDb {
    /// Initializes `dir` with `dataset` as generation 1. Fails with
    /// [`io::ErrorKind::AlreadyExists`] if the directory already holds a
    /// database.
    pub fn create(
        dir: &Path,
        dataset: Dataset,
        shard_rows: usize,
        config: DbConfig,
    ) -> io::Result<DurableDb> {
        let db = ShardedDb::with_config(dataset, shard_rows, config);
        DurableDb::init_dir(dir, db)
    }

    fn init_dir(dir: &Path, db: ShardedDb) -> io::Result<DurableDb> {
        std::fs::create_dir_all(dir)?;
        if dir.join(MANIFEST_FILE).exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{} already holds a database", dir.display()),
            ));
        }
        let manifest = Manifest {
            generation: 1,
            snapshot: snapshot_name(1),
            watermark: 0,
        };
        write_snapshot_file(dir, &manifest.snapshot, &db)?;
        let wal = WalWriter::create(&wal_path(dir), 1)?;
        manifest.save(dir)?;
        Ok(DurableDb {
            db,
            log: Some(Log {
                dir: dir.to_path_buf(),
                wal,
                manifest,
                replayed: 0,
            }),
        })
    }

    /// Opens (recovers) the database in `dir`: loads the manifest's
    /// snapshot, rebuilds indexes and synopses, replays WAL records past
    /// the watermark, and truncates any torn tail the last crash left.
    pub fn open(dir: &Path) -> io::Result<DurableDb> {
        let mut span = ibis_obs::span("storage.open");
        let manifest = Manifest::load(dir)?;
        let snapshot_bytes = std::fs::read(dir.join(&manifest.snapshot))?;
        let mut db = ShardedDb::read_snapshot(&mut snapshot_bytes.as_slice())?;

        let wal_file = wal_path(dir);
        let scan = if wal_file.exists() {
            wal::scan(&wal_file)?
        } else {
            wal::scan_bytes(&[])
        };
        let mut replayed = 0u64;
        let mut last_seq = 0u64;
        for (seq, record) in &scan.records {
            last_seq = *seq;
            if *seq <= manifest.watermark {
                continue; // already captured by the snapshot
            }
            apply(&mut db, record)?;
            replayed += 1;
        }
        let next_seq = last_seq.max(manifest.watermark) + 1;
        let wal = if scan.header_ok {
            if scan.valid_len < scan.file_len {
                // Repair the torn tail so the next append lands on a
                // well-formed prefix.
                let f = std::fs::OpenOptions::new().write(true).open(&wal_file)?;
                f.set_len(scan.valid_len)?;
                f.sync_all()?;
            }
            WalWriter::open_at(&wal_file, next_seq, scan.valid_len)?
        } else {
            // Header lost entirely (crash before the first publish could
            // not produce this — the header is fsynced before MANIFEST —
            // but a harness truncating to < 6 bytes can): start a fresh log.
            WalWriter::create(&wal_file, next_seq)?
        };
        ibis_obs::counter_add("recovery.replayed_records", replayed);
        span.add_field("replayed_records", replayed);
        span.add_field("generation", manifest.generation);
        ibis_obs::gauge_set("storage.generation", manifest.generation as f64);
        ibis_obs::gauge_set("wal.bytes", wal.bytes() as f64);
        Ok(DurableDb {
            db,
            log: Some(Log {
                dir: dir.to_path_buf(),
                wal,
                manifest,
                replayed,
            }),
        })
    }

    /// Whether mutations are logged (the database has a data directory).
    pub(crate) fn is_logged(&self) -> bool {
        self.log.is_some()
    }

    /// Appends `record` to the log and fsyncs it, when there is a log.
    fn log(&mut self, record: &WalRecord) -> io::Result<()> {
        if let Some(log) = &mut self.log {
            log.wal.append(record)?;
        }
        Ok(())
    }

    /// Appends one row: validated, logged + fsynced, then applied. An
    /// invalid row fails with `InvalidInput` *before* reaching the log.
    pub fn insert(&mut self, row: &[Cell]) -> io::Result<()> {
        self.db.validate_row(row).map_err(invalid_input)?;
        self.log(&WalRecord::Insert(row.to_vec()))?;
        self.db.insert(row).expect("row validated before logging");
        Ok(())
    }

    /// Tombstones a global row id. Returns whether the row existed and was
    /// alive. Misses are logged too — replaying a no-op is a no-op, so
    /// recovery stays deterministic either way.
    pub fn delete(&mut self, row: u32) -> io::Result<bool> {
        self.log(&WalRecord::Delete(row))?;
        Ok(self.db.delete(row))
    }

    /// Folds deltas and tombstones into the shards (logged: compaction
    /// renumbers rows, and replay must renumber them identically). Returns
    /// the number of shards rebuilt.
    pub fn compact(&mut self) -> io::Result<usize> {
        self.log(&WalRecord::Compact)?;
        Ok(self.db.compact())
    }

    /// Rolls the WAL into a fresh snapshot: writes generation `g+1`,
    /// publishes a manifest whose watermark covers every logged record,
    /// truncates the WAL, and removes the superseded snapshot. A crash
    /// between any two of those steps recovers to a consistent state — the
    /// manifest rename is the commit point, and replay skips records at or
    /// below the watermark if the truncate never happened. A no-op without
    /// a log.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        let Some(log) = &mut self.log else {
            return Ok(());
        };
        let start = std::time::Instant::now();
        let mut span = ibis_obs::span("storage.checkpoint");
        let generation = log.manifest.generation + 1;
        let next = Manifest {
            generation,
            snapshot: snapshot_name(generation),
            watermark: log.wal.last_seq(),
        };
        write_snapshot_file(&log.dir, &next.snapshot, &self.db)?;
        next.save(&log.dir)?;
        log.wal.truncate_to_header()?;
        if log.manifest.snapshot != next.snapshot {
            std::fs::remove_file(log.dir.join(&log.manifest.snapshot)).ok();
        }
        log.manifest = next;
        span.add_field("generation", generation);
        ibis_obs::observe("checkpoint.ms", start.elapsed().as_millis() as u64);
        ibis_obs::counter_add("storage.checkpoints", 1);
        ibis_obs::gauge_set("storage.generation", generation as f64);
        Ok(())
    }

    /// Writes the current logical state to `path` as one checksummed file.
    /// Serialization is deterministic, so backup → restore → backup
    /// round-trips byte-identically.
    pub fn backup(&self, path: &Path) -> io::Result<()> {
        let mut body = Vec::new();
        self.db.write_snapshot(&mut body)?;
        let mut f = File::create(path)?;
        wire::write_header(&mut f, BACKUP_MAGIC, BACKUP_VERSION)?;
        wire::write_u32(&mut f, crc32(&body))?;
        wire::write_bytes(&mut f, &body)?;
        f.sync_all()
    }

    /// Parses a backup file back into the sharded store it captured.
    pub fn read_backup(r: &mut impl Read) -> io::Result<ShardedDb> {
        wire::read_header(r, BACKUP_MAGIC, BACKUP_VERSION)?;
        let crc = wire::read_u32(r)?;
        let body = wire::read_bytes(r)?;
        if crc32(&body) != crc {
            return Err(invalid("backup checksum mismatch"));
        }
        ShardedDb::read_snapshot(&mut body.as_slice())
    }

    /// Initializes `dir` (which must not already hold a database) from a
    /// backup file, as generation 1 with an empty WAL.
    pub fn restore(backup: &Path, dir: &Path) -> io::Result<DurableDb> {
        let mut f = File::open(backup)?;
        let db = DurableDb::read_backup(&mut f)?;
        DurableDb::init_dir(dir, db)
    }

    /// Verifies `dir` without opening it for writing: manifest and snapshot
    /// checksums, snapshot parse (indexes rebuilt and discarded), and a
    /// full WAL scan. Strict about the WAL header — a missing or garbled
    /// header is an error here, even though [`open`](DurableDb::open)
    /// tolerates it.
    pub fn validate(dir: &Path) -> io::Result<ValidateReport> {
        let manifest = Manifest::load(dir)?;
        let snapshot_bytes = std::fs::read(dir.join(&manifest.snapshot))?;
        let db = ShardedDb::read_snapshot(&mut snapshot_bytes.as_slice())?;
        let scan = wal::scan(&wal_path(dir))?;
        if !scan.header_ok {
            return Err(invalid("WAL header missing or corrupt"));
        }
        let replayable = scan
            .records
            .iter()
            .filter(|(seq, _)| *seq > manifest.watermark)
            .count() as u64;
        Ok(ValidateReport {
            generation: manifest.generation,
            watermark: manifest.watermark,
            snapshot_shards: db.shard_count(),
            snapshot_rows: db.n_rows(),
            wal_records: replayable,
            wal_bytes: scan.valid_len,
            torn_tail_bytes: scan.file_len - scan.valid_len,
        })
    }

    /// The in-memory sharded store, by name rather than through `Deref`.
    pub fn db(&self) -> &ShardedDb {
        &self.db
    }

    /// Current checkpoint generation (0 without a log).
    pub fn generation(&self) -> u64 {
        self.log.as_ref().map_or(0, |log| log.manifest.generation)
    }

    /// Current WAL length in bytes, header included (the crash harness uses
    /// the value after each mutation as its kill-offset map; 0 without a
    /// log).
    pub fn wal_bytes(&self) -> u64 {
        self.log.as_ref().map_or(0, |log| log.wal.bytes())
    }

    /// WAL records replayed by the [`open`](DurableDb::open) that produced
    /// this handle (0 for a fresh create, after a clean checkpoint, and
    /// without a log).
    pub fn replayed_on_open(&self) -> u64 {
        self.log.as_ref().map_or(0, |log| log.replayed)
    }
}

/// Reads go straight to the in-memory [`ShardedDb`]. There is deliberately
/// no `DerefMut`: `insert`/`delete`/`compact` above shadow the store's own,
/// so a mutation can only reach a logged store through the WAL.
impl std::ops::Deref for DurableDb {
    type Target = ShardedDb;

    fn deref(&self) -> &ShardedDb {
        &self.db
    }
}

/// What [`DurableDb::validate`] found in a data directory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValidateReport {
    /// Checkpoint generation of the live manifest.
    pub generation: u64,
    /// WAL watermark of the live manifest.
    pub watermark: u64,
    /// Shards held by the snapshot.
    pub snapshot_shards: usize,
    /// Live rows in the snapshot (before WAL replay).
    pub snapshot_rows: usize,
    /// Intact WAL records past the watermark (what open would replay).
    pub wal_records: u64,
    /// Bytes of the well-formed WAL prefix.
    pub wal_bytes: u64,
    /// Bytes of torn tail beyond the well-formed prefix (0 when clean).
    pub torn_tail_bytes: u64,
}

fn write_snapshot_file(dir: &Path, name: &str, db: &ShardedDb) -> io::Result<()> {
    let mut buf = Vec::new();
    db.write_snapshot(&mut buf)?;
    let mut f = File::create(dir.join(name))?;
    f.write_all(&buf)?;
    f.sync_all()
}

/// Applies one record to the shards, unlogged: what recovery replays, and
/// what an in-memory twin of a mutation history applies to follow exactly
/// the code recovery runs. Inserts re-validate (a crafted WAL can carry
/// out-of-domain cells past the CRC); failures surface as clean
/// `InvalidData` errors, never panics.
pub fn apply(db: &mut ShardedDb, record: &WalRecord) -> io::Result<()> {
    match record {
        WalRecord::Insert(row) => db.insert(row).map_err(invalid),
        WalRecord::Delete(id) => {
            db.delete(*id);
            Ok(())
        }
        WalRecord::Compact => {
            db.compact();
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_core::gen::census_scaled;
    use ibis_core::{MissingPolicy, Predicate, RangeQuery};

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ibis_engine_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// A range over attribute 0, clamped to its domain.
    fn any_query(data: &Dataset, policy: MissingPolicy) -> RangeQuery {
        let hi = data.column(0).cardinality().min(4);
        RangeQuery::new(vec![Predicate::range(0, 1, hi)], policy).unwrap()
    }

    #[test]
    fn create_open_checkpoint_cycle() {
        let dir = tmp("cycle");
        let data = census_scaled(120, 601);
        let row: Vec<Cell> = (0..data.n_attrs()).map(|a| data.cell(0, a)).collect();
        let schema = data.clone();
        let mut db = DurableDb::create(&dir, data, 50, DbConfig::default()).unwrap();
        db.insert(&row).unwrap();
        db.delete(3).unwrap();
        let twin_before = db.db().clone();
        drop(db);

        // Reopen: both mutations replay.
        let db = DurableDb::open(&dir).unwrap();
        assert_eq!(db.replayed_on_open(), 2);
        for policy in MissingPolicy::ALL {
            let q = any_query(&schema, policy);
            assert_eq!(
                db.execute_with_cost_threads(&q, 1).unwrap(),
                twin_before.execute_with_cost_threads(&q, 1).unwrap(),
            );
        }

        // Checkpoint: WAL truncated, next open replays nothing.
        let mut db = db;
        db.checkpoint().unwrap();
        assert_eq!(db.wal_bytes(), wal::WAL_HEADER_LEN);
        assert_eq!(db.generation(), 2);
        drop(db);
        let db = DurableDb::open(&dir).unwrap();
        assert_eq!(db.replayed_on_open(), 0);
        for policy in MissingPolicy::ALL {
            let q = any_query(&schema, policy);
            assert_eq!(
                db.execute_with_cost_threads(&q, 8).unwrap(),
                twin_before.execute_with_cost_threads(&q, 8).unwrap(),
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_insert_reaches_neither_log_nor_db() {
        let dir = tmp("invalid");
        let data = census_scaled(40, 602);
        let n_attrs = data.n_attrs();
        let mut db = DurableDb::create(&dir, data, 16, DbConfig::default()).unwrap();
        let before = (db.wal_bytes(), db.n_rows());
        assert!(db.insert(&[Cell::present(1)]).is_err(), "wrong width");
        assert_eq!((db.wal_bytes(), db.n_rows()), before);
        let mut row = vec![Cell::MISSING; n_attrs];
        row[0] = Cell::present(u16::MAX);
        assert!(db.insert(&row).is_err(), "out of domain");
        assert_eq!((db.wal_bytes(), db.n_rows()), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn without_a_log_mutations_go_straight_to_the_shards() {
        let data = census_scaled(40, 606);
        let row: Vec<Cell> = (0..data.n_attrs()).map(|a| data.cell(0, a)).collect();
        let mut db = DurableDb::from(ShardedDb::new(data, 16));
        db.insert(&row).unwrap();
        assert!(db.delete(3).unwrap());
        assert!(db.compact().unwrap() >= 1);
        db.checkpoint().unwrap();
        assert_eq!(db.n_rows(), 40);
        assert_eq!(
            (db.generation(), db.wal_bytes(), db.replayed_on_open()),
            (0, 0, 0)
        );
        let err = db.insert(&[Cell::present(1)]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn compaction_replays_deterministically() {
        let dir = tmp("compact");
        let data = census_scaled(60, 603);
        let row: Vec<Cell> = (0..data.n_attrs()).map(|a| data.cell(1, a)).collect();
        let schema = data.clone();
        let mut db = DurableDb::create(&dir, data, 25, DbConfig::default()).unwrap();
        db.insert(&row).unwrap();
        db.delete(0).unwrap();
        db.compact().unwrap();
        db.insert(&row).unwrap();
        let twin = db.db().clone();
        drop(db);
        let db = DurableDb::open(&dir).unwrap();
        assert_eq!(db.replayed_on_open(), 4);
        for policy in MissingPolicy::ALL {
            let q = any_query(&schema, policy);
            assert_eq!(
                db.execute_with_cost_threads(&q, 1).unwrap(),
                twin.execute_with_cost_threads(&q, 1).unwrap(),
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn backup_restore_roundtrips_byte_identically() {
        let dir = tmp("backup_src");
        let dir2 = tmp("backup_dst");
        let data = census_scaled(80, 604);
        let row: Vec<Cell> = (0..data.n_attrs()).map(|a| data.cell(2, a)).collect();
        let schema = data.clone();
        let mut db = DurableDb::create(&dir, data, 30, DbConfig::default()).unwrap();
        db.insert(&row).unwrap();
        db.delete(5).unwrap();
        let b1 = dir.join("one.ibbk");
        let b2 = dir.join("two.ibbk");
        db.backup(&b1).unwrap();
        let restored = DurableDb::restore(&b1, &dir2).unwrap();
        restored.backup(&b2).unwrap();
        assert_eq!(
            std::fs::read(&b1).unwrap(),
            std::fs::read(&b2).unwrap(),
            "backup → restore → backup must be byte-identical"
        );
        for policy in MissingPolicy::ALL {
            let q = any_query(&schema, policy);
            assert_eq!(
                restored.execute_with_cost_threads(&q, 1).unwrap(),
                db.execute_with_cost_threads(&q, 1).unwrap(),
            );
        }
        // Restoring over an existing database is refused.
        assert_eq!(
            DurableDb::restore(&b1, &dir2).unwrap_err().kind(),
            io::ErrorKind::AlreadyExists
        );
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    #[test]
    fn validate_reports_state_and_torn_tails() {
        let dir = tmp("validate");
        let data = census_scaled(50, 605);
        let row: Vec<Cell> = (0..data.n_attrs()).map(|a| data.cell(0, a)).collect();
        let mut db = DurableDb::create(&dir, data, 20, DbConfig::default()).unwrap();
        db.insert(&row).unwrap();
        db.insert(&row).unwrap();
        drop(db);
        let r = DurableDb::validate(&dir).unwrap();
        assert_eq!(r.generation, 1);
        assert_eq!(r.wal_records, 2);
        assert_eq!(r.torn_tail_bytes, 0);
        assert_eq!(r.snapshot_rows, 50);

        // Chop mid-frame: one record survives, the tail is reported torn.
        let wal_file = wal_path(&dir);
        let image = std::fs::read(&wal_file).unwrap();
        std::fs::write(&wal_file, &image[..image.len() - 3]).unwrap();
        let r = DurableDb::validate(&dir).unwrap();
        assert_eq!(r.wal_records, 1);
        assert!(r.torn_tail_bytes > 0);

        // Corrupt the snapshot: validate fails cleanly.
        let snap = dir.join(snapshot_name(1));
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&snap, &bytes).unwrap();
        assert!(DurableDb::validate(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
