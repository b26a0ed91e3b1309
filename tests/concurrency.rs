//! Concurrency conformance suite for snapshot-isolated serving.
//!
//! The contract under test: while one writer streams inserts, deletes, and
//! compactions through a [`ConcurrentDb`], every snapshot any reader
//! acquires equals a **prefix-consistent serial history** — the state
//! produced by applying exactly the first `watermark` mutations of the
//! writer's schedule, nothing more, nothing less, nothing interleaved.
//! Answers must be bit-identical (rows *and* work counters) to a serial
//! twin replay of that prefix, at thread degrees {1, 8}, under both
//! missing-data semantics, and watermarks must be monotone per reader.

use ibis::core::gen::census_scaled;
use ibis::prelude::*;
use ibis::storage::{engine, WalRecord};
use std::sync::Arc;

/// The deterministic mutation schedule shared by the writer and the
/// readers' twin replays: mostly inserts, a steady trickle of deletes
/// (some deliberately past the live range), periodic compactions.
fn schedule(schema: &Dataset, n: usize) -> Vec<WalRecord> {
    let cards: Vec<u16> = (0..schema.n_attrs())
        .map(|a| schema.column(a).cardinality())
        .collect();
    (0..n)
        .map(|i| match i % 10 {
            3 => WalRecord::Delete((i * 7 % (schema.n_rows() + i + 8)) as u32),
            9 if i % 50 == 49 => WalRecord::Compact,
            _ => WalRecord::Insert(
                cards
                    .iter()
                    .enumerate()
                    .map(|(a, &c)| {
                        if (i + a) % 6 == 0 {
                            Cell::MISSING
                        } else {
                            Cell::present(((i * 3 + a) % c as usize) as u16 + 1)
                        }
                    })
                    .collect(),
            ),
        })
        .collect()
}

/// Pushes one scheduled mutation through the serving layer's mutators.
fn apply_serving(db: &ConcurrentDb, m: &WalRecord) {
    let applied = match m {
        WalRecord::Insert(row) => db.insert(row),
        WalRecord::Delete(id) => db.delete(*id).map(drop),
        WalRecord::Compact => db.compact().map(drop),
    };
    applied.expect("scheduled mutation applies");
}

/// The probe battery: one low-range and one conjunctive query per
/// semantics, kept valid for any census-scaled schema.
fn probes(schema: &Dataset) -> Vec<RangeQuery> {
    let c0 = schema.column(0).cardinality();
    let c1 = schema.column(1).cardinality();
    MissingPolicy::ALL
        .iter()
        .flat_map(|&policy| {
            [
                RangeQuery::new(vec![Predicate::range(0, 1, c0.min(3))], policy).unwrap(),
                RangeQuery::new(
                    vec![
                        Predicate::range(0, 1, c0),
                        Predicate::range(1, (c1 / 2).max(1), c1),
                    ],
                    policy,
                )
                .unwrap(),
            ]
        })
        .collect()
}

/// Readers race the writer; each checks every acquired snapshot against a
/// serial twin replay of its watermark prefix at the given thread degrees.
fn run_conformance(readers: usize, degrees: &[usize], mutations: usize) {
    let schema = census_scaled(80, 17);
    let sched = schedule(&schema, mutations);
    let queries = probes(&schema);
    let db = Arc::new(ConcurrentDb::new(ShardedDb::new(schema.clone(), 32)));
    let twin_base = ShardedDb::new(schema, 32);
    let target = sched.len() as u64;

    std::thread::scope(|s| {
        let writer = {
            let db = Arc::clone(&db);
            let sched = &sched;
            s.spawn(move || {
                for m in sched {
                    apply_serving(&db, m);
                }
            })
        };
        // N concurrent readers, each with its own private twin.
        let (db, sched, queries, twin_base) = (&db, &sched, &queries, &twin_base);
        let spawned: Vec<_> = (0..readers)
            .map(|reader| {
                s.spawn(move || {
                    let mut twin = twin_base.clone();
                    let mut applied = 0u64;
                    let mut last_w = 0u64;
                    loop {
                        let snap = db.snapshot();
                        let w = snap.watermark();
                        assert!(
                            w >= last_w,
                            "reader {reader}: watermark regressed {last_w} → {w}"
                        );
                        last_w = w;
                        // Prefix consistency: the snapshot must equal the serial
                        // history of exactly the first `w` scheduled mutations.
                        while applied < w {
                            engine::apply(&mut twin, &sched[applied as usize])
                                .expect("valid schedule");
                            applied += 1;
                        }
                        assert_eq!(snap.n_rows(), twin.n_rows(), "reader {reader} @ w={w}");
                        for (qi, q) in queries.iter().enumerate() {
                            for &t in degrees {
                                let got = snap
                                    .execute_with_cost_threads(q, t)
                                    .expect("probe stays valid");
                                let want = twin
                                    .execute_with_cost_threads(q, t)
                                    .expect("twin agrees probe is valid");
                                assert_eq!(
                                    got.0, want.0,
                                    "reader {reader} rows diverge @ w={w} q{qi} t{t}"
                                );
                                assert_eq!(
                                    got.1, want.1,
                                    "reader {reader} counters diverge @ w={w} q{qi} t{t}"
                                );
                            }
                        }
                        if w >= target {
                            break;
                        }
                    }
                })
            })
            .collect();
        for reader in spawned {
            reader.join().expect("reader panicked");
        }
        writer.join().expect("writer panicked");
    });

    // End state: the published snapshot is the full serial history.
    let mut twin = twin_base;
    for m in &sched {
        engine::apply(&mut twin, m).expect("valid schedule");
    }
    let final_snap = db.snapshot();
    assert_eq!(final_snap.watermark(), target);
    assert_eq!(final_snap.n_rows(), twin.n_rows());
}

#[test]
fn one_reader_sees_a_prefix_consistent_history() {
    run_conformance(1, &[1, 8], 400);
}

#[test]
fn eight_readers_see_prefix_consistent_histories() {
    run_conformance(8, &[1, 8], 400);
}

#[test]
fn held_snapshots_survive_compaction_and_checkpoint() {
    // A reader holding a snapshot across compactions, checkpoints, and a
    // burst of writes must see its frozen state forever.
    let dir = std::env::temp_dir().join(format!("ibis_conc_suite_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let schema = census_scaled(60, 23);
    let sched = schedule(&schema, 150);
    let queries = probes(&schema);
    let db = ConcurrentDb::create_durable(&dir, schema.clone(), 25, DbConfig::default()).unwrap();

    let held = db.snapshot();
    let held_answers: Vec<_> = queries.iter().map(|q| held.execute(q).unwrap()).collect();
    for (i, m) in sched.iter().enumerate() {
        apply_serving(&db, m);
        if i % 40 == 39 {
            db.checkpoint().unwrap();
        }
    }
    assert_eq!(held.watermark(), 0, "held snapshot never advances");
    for (q, want) in queries.iter().zip(&held_answers) {
        assert_eq!(&held.execute(q).unwrap(), want, "held snapshot mutated");
    }
    assert_eq!(db.snapshot().watermark(), sched.len() as u64);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn watermark_names_the_exact_prefix_even_between_snapshots() {
    // Two snapshots taken around a single mutation differ by exactly that
    // mutation's effect — there is no state in between.
    let schema = census_scaled(50, 29);
    let db = ConcurrentDb::new(ShardedDb::new(schema.clone(), 20));
    let row: Vec<Cell> = (0..schema.n_attrs()).map(|_| Cell::present(1)).collect();
    let a = db.snapshot();
    db.insert(&row).unwrap();
    let b = db.snapshot();
    assert_eq!(b.watermark() - a.watermark(), 1);
    assert_eq!(b.n_rows() - a.n_rows(), 1);
}
