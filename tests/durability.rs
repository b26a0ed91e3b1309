//! End-to-end durability: the WAL + snapshot + MANIFEST engine under
//! [`ShardedDb`], driven through the facade the way an application would.
//!
//! The deep kill-schedule coverage lives in `ibis_oracle::crash` (run by
//! the `ibis crash` CLI and the CI `storage` job); this suite pins the
//! user-visible contract: mutations survive a crash, checkpoints truncate
//! the log and make reopen replay nothing, backups restore byte-identically,
//! and a freshly recovered database answers exactly like its uncrashed twin
//! under both semantics.

use ibis::core::gen::{census_scaled, workload, QuerySpec};
use ibis::prelude::*;
use ibis::storage::{engine, wal};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ibis_durable_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn queries(d: &Dataset) -> Vec<RangeQuery> {
    let mut qs = Vec::new();
    for policy in MissingPolicy::ALL {
        let spec = QuerySpec {
            n_queries: 4,
            k: 2,
            global_selectivity: 0.1,
            policy,
            candidate_attrs: vec![],
        };
        qs.extend(workload(d, &spec, 701));
    }
    qs
}

fn row_of(d: &Dataset, i: usize) -> Vec<Cell> {
    (0..d.n_attrs()).map(|a| d.cell(i, a)).collect()
}

#[test]
fn mutations_survive_a_crash_and_match_the_uncrashed_twin() {
    let dir = tmp_dir("replay");
    let data = census_scaled(150, 700);
    let schema = data.clone();
    let mut db = DurableDb::create(&dir, data, 48, DbConfig::default()).unwrap();
    db.insert(&row_of(&schema, 3)).unwrap();
    db.insert(&row_of(&schema, 9)).unwrap();
    assert!(db.delete(5).unwrap());
    assert!(
        !db.delete(9_999).unwrap(),
        "a miss is reported, not an error"
    );
    db.compact().unwrap();
    db.insert(&row_of(&schema, 12)).unwrap();
    let twin = db.db().clone();
    drop(db); // no clean shutdown — recovery is the only close protocol

    let recovered = DurableDb::open(&dir).unwrap();
    // All six mutations replay — including the missed delete, which is
    // logged so replay stays deterministic.
    assert_eq!(recovered.replayed_on_open(), 6);
    assert_eq!(recovered.n_rows(), twin.n_rows());
    for (threads, q) in [1usize, 8]
        .iter()
        .flat_map(|t| queries(&schema).into_iter().map(move |q| (*t, q)))
    {
        assert_eq!(
            recovered.execute_with_cost_threads(&q, threads).unwrap(),
            twin.execute_with_cost_threads(&q, threads).unwrap(),
            "rows and work counters must both match at t={threads}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_truncates_the_wal_and_reopen_replays_nothing() {
    let dir = tmp_dir("checkpoint");
    let data = census_scaled(100, 702);
    let schema = data.clone();
    let mut db = DurableDb::create(&dir, data, 40, DbConfig::default()).unwrap();
    for i in 0..6 {
        db.insert(&row_of(&schema, i)).unwrap();
    }
    assert!(db.wal_bytes() > wal::WAL_HEADER_LEN);
    db.checkpoint().unwrap();
    assert_eq!(db.wal_bytes(), wal::WAL_HEADER_LEN);
    assert_eq!(db.generation(), 2);
    let rows_before = db.n_rows();
    drop(db);

    let db = DurableDb::open(&dir).unwrap();
    assert_eq!(
        db.replayed_on_open(),
        0,
        "the checkpoint absorbed every record"
    );
    assert_eq!(db.n_rows(), rows_before);

    // The directory holds exactly one snapshot: the superseded generation
    // was removed.
    let snapshots = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .ends_with(".ibss")
        })
        .count();
    assert_eq!(snapshots, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_wal_tail_recovers_the_durable_prefix() {
    let dir = tmp_dir("torn");
    let data = census_scaled(80, 703);
    let schema = data.clone();
    let mut db = DurableDb::create(&dir, data, 32, DbConfig::default()).unwrap();
    db.insert(&row_of(&schema, 1)).unwrap();
    let durable_boundary = db.wal_bytes();
    db.insert(&row_of(&schema, 2)).unwrap();
    let twin_one_insert = {
        let mut t = ShardedDb::with_config(schema.clone(), 32, DbConfig::default());
        t.insert(&row_of(&schema, 1)).unwrap();
        t
    };
    drop(db);

    // Tear mid-way through the second frame.
    let wal_file = engine::wal_path(&dir);
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal_file)
        .unwrap();
    f.set_len(durable_boundary + 3).unwrap();
    drop(f);

    let recovered = DurableDb::open(&dir).unwrap();
    assert_eq!(
        recovered.replayed_on_open(),
        1,
        "only the intact frame replays"
    );
    for q in queries(&schema) {
        assert_eq!(
            recovered.execute_with_cost_threads(&q, 1).unwrap(),
            twin_one_insert.execute_with_cost_threads(&q, 1).unwrap(),
        );
    }
    drop(recovered);
    // Recovery truncated the torn tail on disk.
    let r = DurableDb::validate(&dir).unwrap();
    assert_eq!(r.torn_tail_bytes, 0);
    assert_eq!(r.wal_records, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn backup_restore_roundtrip_is_byte_identical_and_query_equivalent() {
    let dir = tmp_dir("bak_src");
    let dir2 = tmp_dir("bak_dst");
    let data = census_scaled(120, 704);
    let schema = data.clone();
    let mut db = DurableDb::create(&dir, data, 50, DbConfig::default()).unwrap();
    db.insert(&row_of(&schema, 7)).unwrap();
    db.delete(2).unwrap();
    let b1 = dir.join("a.ibbk");
    let b2 = dir.join("b.ibbk");
    db.backup(&b1).unwrap();
    let restored = DurableDb::restore(&b1, &dir2).unwrap();
    restored.backup(&b2).unwrap();
    assert_eq!(std::fs::read(&b1).unwrap(), std::fs::read(&b2).unwrap());
    for q in queries(&schema) {
        assert_eq!(
            restored.execute_with_cost_threads(&q, 8).unwrap(),
            db.execute_with_cost_threads(&q, 8).unwrap(),
        );
    }
    // A flipped byte anywhere in the backup is rejected by its checksum.
    let mut image = std::fs::read(&b1).unwrap();
    let mid = image.len() / 2;
    image[mid] ^= 0x01;
    assert!(DurableDb::read_backup(&mut image.as_slice()).is_err());
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir2).ok();
}

#[test]
fn a_short_crash_harness_run_is_clean() {
    let report = ibis::oracle::crash::run(&ibis::oracle::CrashConfig {
        seed: 31,
        rows: 40,
        shard_rows: 16,
        phase1_ops: 4,
        phase2_ops: 6,
        kill_points: 4,
        bit_flips: 3,
        threads: vec![1, 8],
        dir: None,
    })
    .expect("harness scaffolding");
    assert!(report.ok(), "failures: {:#?}", report.failures);
    assert!(report.checks > 0);
}

/// A store with delta rows and tombstones on both sides of a shard
/// boundary: 80 base rows in shards of 30 leave a ragged third shard, ten
/// inserts fill its delta, two more open a fourth shard, and the deletes
/// straddle the 0|1 boundary (base rows) and the 2|3 boundary (delta rows).
/// The images carry the index config they were pinned with: BEE, BRE and a
/// VA-file.
fn straddling_fixture(dir: &std::path::Path) -> DurableDb {
    let data = census_scaled(80, 733);
    let extra = census_scaled(12, 734);
    let mut db = DurableDb::create(dir, data, 30, paper_pair_and_va()).unwrap();
    for i in 0..extra.n_rows() {
        db.insert(&row_of(&extra, i)).unwrap();
    }
    for id in [5, 29, 30, 89, 90] {
        assert!(db.delete(id).unwrap());
    }
    assert_eq!(db.shard_count(), 4);
    db
}

/// The straddling fixture's indexes: the paper's §6 pair {BEE, BRE}, the
/// default when its bytes were pinned, and a VA-file.
fn paper_pair_and_va() -> DbConfig {
    DbConfig {
        bee: true,
        bre: true,
        va: true,
        ..DbConfig::none()
    }
}

/// An image written under the old default, {BEE, BRE}, names range
/// encoding in its config bits: it reopens with BRE, not with today's
/// default, and answers with the rows and work counters it was written
/// with. A database built under today's default over the same mutations
/// answers with the same rows.
#[test]
fn an_image_under_the_old_default_reopens_with_range_encoding() {
    let dir = tmp_dir("old_default");
    let db = straddling_fixture(&dir);
    let mut image = Vec::new();
    db.write_snapshot(&mut image).unwrap();
    let back = ShardedDb::read_snapshot(&mut image.as_slice()).unwrap();
    assert_eq!(back.config(), paper_pair_and_va());
    assert_ne!(back.config(), DbConfig::default());

    let data = census_scaled(80, 733);
    let extra = census_scaled(12, 734);
    let mut today = ShardedDb::with_config(data.clone(), 30, DbConfig::default());
    for i in 0..extra.n_rows() {
        today.insert(&row_of(&extra, i)).unwrap();
    }
    for id in [5, 29, 30, 89, 90] {
        assert!(today.delete(id));
    }
    for q in queries(&data) {
        let live = db.execute_with_cost_threads(&q, 1).unwrap();
        assert_eq!(back.execute_with_cost_threads(&q, 1).unwrap(), live);
        assert_eq!(today.execute(&q).unwrap(), live.0);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The IBSS and IBBK bytes of the straddling fixture, recorded (length and
/// CRC-32) before the per-shard half of the codec moved into the shard
/// itself: the formats must not have noticed. A reload of either image
/// must also answer with the same rows *and* the same work counters.
#[test]
fn snapshot_and_backup_bytes_are_pinned_and_reload_identically() {
    let dir = tmp_dir("pins");
    let db = straddling_fixture(&dir);
    let mut image = Vec::new();
    db.write_snapshot(&mut image).unwrap();
    let backup = dir.join("pin.ibbk");
    db.backup(&backup).unwrap();
    let backup = std::fs::read(&backup).unwrap();
    let crc = ibis::storage::crc::crc32;
    assert_eq!((image.len(), crc(&image)), (14_915, 0xca17_6700));
    assert_eq!((backup.len(), crc(&backup)), (14_933, 0xfae6_8f10));

    let from_image = ShardedDb::read_snapshot(&mut image.as_slice()).unwrap();
    let from_backup = DurableDb::read_backup(&mut backup.as_slice()).unwrap();
    for q in queries(&census_scaled(80, 733)) {
        let live = db.execute_with_cost_threads(&q, 1).unwrap();
        assert_eq!(from_image.execute_with_cost_threads(&q, 1).unwrap(), live);
        assert_eq!(from_backup.execute_with_cost_threads(&q, 1).unwrap(), live);
    }
    std::fs::remove_dir_all(&dir).ok();
}
