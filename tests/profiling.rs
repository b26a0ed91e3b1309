//! Profiling acceptance: the span tree's per-phase WorkCounters deltas sum
//! to the query's final counters, the profile JSON round-trips through the
//! snapshot parser, and the disabled recorder changes nothing.

use ibis::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard};

/// profile_method toggles the process-global recorder; serialize the tests
/// in this binary that rely on it.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn query(data: &Dataset) -> RangeQuery {
    let hi = |attr: usize| data.column(attr).cardinality().clamp(1, 9);
    RangeQuery::new(
        vec![
            Predicate::range(0, 1, hi(0)),
            Predicate::point(1, 1),
            Predicate::range(2, 1, hi(2)),
        ],
        MissingPolicy::IsMatch,
    )
    .unwrap()
}

fn methods(data: &Dataset) -> Vec<Box<dyn AccessMethod>> {
    vec![
        Box::new(EqualityBitmapIndex::<Wah>::build(data)),
        Box::new(RangeBitmapIndex::<Wah>::build(data)),
        Box::new(IntervalBitmapIndex::<Wah>::build(data)),
        Box::new(DecomposedBitmapIndex::<Wah>::build(data)),
        Box::new(EqualityBitmapIndex::<Adaptive>::build(data)),
        Box::new(RangeBitmapIndex::<Adaptive>::build(data)),
        Box::new(VaFile::build(data).bind(Arc::new(data.clone()))),
        Box::new(SequentialScan.bind(Arc::new(data.clone()))),
    ]
}

#[test]
fn span_deltas_sum_to_final_counters_for_every_method() {
    let _serial = serial();
    let data = ibis::core::gen::census_scaled(700, 91);
    let q = query(&data);
    let truth = ibis::core::scan::execute(&data, &q);
    for method in methods(&data) {
        for threads in [1, 3] {
            let prof = ibis::profile::profile_method(&*method, &q, threads).unwrap();
            assert_eq!(prof.rows, truth, "{} t={threads}", prof.method);
            assert_eq!(
                prof.span_counter_sum(),
                prof.counters,
                "phase deltas must sum to the final counters: {} t={threads}\n{}",
                prof.method,
                prof.render(),
            );
            // The root span exists, is named, and the tree renders it.
            let root = prof.snapshot.span(prof.root).unwrap();
            assert_eq!(root.name, ibis::profile::ROOT_SPAN);
            assert!(prof.render().contains(prof.method));
        }
    }
    assert!(!ibis::obs::is_enabled(), "profiling must restore disabled");
}

#[test]
fn adaptive_profiles_report_container_exact_counters() {
    let _serial = serial();
    let data = ibis::core::gen::census_scaled(500, 97);
    let q = query(&data);
    let indexes: [Box<dyn AccessMethod>; 2] = [
        Box::new(EqualityBitmapIndex::<Adaptive>::build(&data)),
        Box::new(RangeBitmapIndex::<Adaptive>::build(&data)),
    ];
    for idx in &indexes {
        for threads in [1, 3] {
            let prof = ibis::profile::profile_method(&**idx, &q, threads).unwrap();
            let c = prof.counters;
            // The per-kind container counters are live and the per-phase
            // span deltas (fetch + and_reduce) sum exactly to the final
            // counters — including the three container fields and the
            // measured word count.
            assert!(
                c.containers_array + c.containers_bitmap + c.containers_run > 0,
                "{} t={threads}",
                prof.method
            );
            assert!(c.words_processed > 0, "{} t={threads}", prof.method);
            assert_eq!(prof.span_counter_sum(), c, "t={threads}\n{}", prof.render());
        }
    }
}

#[test]
fn profile_json_round_trips_through_the_snapshot_parser() {
    let _serial = serial();
    let data = ibis::core::gen::census_scaled(400, 92);
    let bre = RangeBitmapIndex::<Wah>::build(&data);
    let prof = ibis::profile::profile_method(&bre, &query(&data), 3).unwrap();
    let text = prof.to_json();
    let parsed = Snapshot::from_json(&text).expect("profile JSON must parse");
    assert_eq!(parsed, prof.snapshot);
    // A second serialization is byte-identical (canonical form).
    assert_eq!(parsed.to_json(), text);
    // The parsed tree still carries the counter sums.
    let fetched: u64 = parsed
        .spans
        .iter()
        .filter(|s| s.name == "bitmap.fetch")
        .flat_map(|s| s.fields.iter())
        .filter(|(name, _)| name == "bitmaps_accessed")
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(fetched as usize, prof.counters.bitmaps_accessed);
}

#[test]
fn phases_aggregate_the_tree_below_the_root() {
    let _serial = serial();
    let data = ibis::core::gen::census_scaled(300, 93);
    let bee = EqualityBitmapIndex::<Wah>::build(&data);
    let prof = ibis::profile::profile_method(&bee, &query(&data), 1).unwrap();
    let phases = prof.phases();
    assert!(phases.iter().any(|(name, count, _, c)| {
        name == "bitmap.fetch" && *count == 3 && c.bitmaps_accessed > 0
    }));
    assert!(phases
        .iter()
        .any(|(name, _, _, c)| name == "bitmap.and_reduce" && c.logical_ops == 2));
    assert!(phases.iter().all(|(name, _, _, _)| name != "query"));
}

#[test]
fn sharded_profile_phases_sum_exactly_to_the_counters() {
    // `db.shard` re-records the counters its access method's spans already
    // carried; a flat per-name sum therefore reported every unit twice.
    let _serial = serial();
    let data = ibis::core::gen::census_scaled(900, 97);
    let q = query(&data);
    let mut db = ShardedDb::new(data, 200);
    db.insert(&vec![Cell::MISSING; db.n_attrs()]).unwrap(); // a delta scan too
    for threads in [1, 3] {
        let prof = ibis::profile::profile_sharded(&db, &q, threads).unwrap();
        assert!(!prof.counters.is_zero());
        // `span_counter_sum` is the sum of `phases()`' counter deltas.
        assert_eq!(
            prof.span_counter_sum(),
            prof.counters,
            "t={threads}\n{}",
            prof.render()
        );
        // The re-recording layer is charged nothing of its own.
        let shard = prof.phases().into_iter().find(|p| p.0 == "db.shard");
        assert!(shard.is_some_and(|(_, n, _, c)| n == 5 && c.is_zero()));
    }
}

#[test]
fn disabled_recorder_keeps_results_identical_and_records_nothing() {
    let _serial = serial();
    Recorder::disabled().install();
    let data = ibis::core::gen::census_scaled(300, 94);
    let q = query(&data);
    let bee = EqualityBitmapIndex::<Wah>::build(&data);
    let (rows, counters) = bee.execute_with_cost_threads(&q, 3).unwrap();
    assert_eq!(rows, ibis::core::scan::execute(&data, &q));
    assert!(counters.words_processed > 0);
    let snap = ibis::obs::snapshot();
    assert!(snap.spans.is_empty(), "disabled mode must not record spans");

    // And a profile of the same query reports the same rows and counters.
    let prof = ibis::profile::profile_method(&bee, &q, 3).unwrap();
    assert_eq!(prof.rows, rows);
    assert_eq!(prof.counters, counters);
}

#[test]
fn durable_open_emits_storage_spans_and_matching_counters() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("ibis_prof_durable_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let data = ibis::core::gen::census_scaled(150, 96);
    let row: Vec<ibis::core::Cell> = (0..data.n_attrs()).map(|a| data.cell(0, a)).collect();

    // Mutations under an enabled recorder: every append is one fsync, and
    // the logged bytes equal the WAL growth past its header.
    Recorder::enabled().install();
    let mut db = DurableDb::create(&dir, data, 50, DbConfig::default()).unwrap();
    db.insert(&row).unwrap();
    db.insert(&row).unwrap();
    db.delete(1).unwrap();
    let logged_bytes = db.wal_bytes() - ibis::storage::wal::WAL_HEADER_LEN;
    drop(db);
    let snap = ibis::obs::snapshot();
    assert_eq!(snap.counters.get("wal.fsyncs").copied(), Some(3));
    assert_eq!(
        snap.counters.get("wal.append_bytes").copied(),
        Some(logged_bytes)
    );

    // A recovery + checkpoint under a fresh recorder generation: the
    // storage.open span's field deltas must be covered by (⊆) the final
    // counters — the same invariant the query spans uphold.
    Recorder::enabled().install();
    let mut db = DurableDb::open(&dir).unwrap();
    assert_eq!(db.replayed_on_open(), 3);
    db.checkpoint().unwrap();
    let snap = ibis::obs::snapshot();
    Recorder::disabled().install();

    let open = snap
        .spans
        .iter()
        .find(|s| s.name == "storage.open")
        .expect("open is a span");
    let replayed_field = open
        .fields
        .iter()
        .find(|(n, _)| n == "replayed_records")
        .expect("span carries its replay delta")
        .1;
    let final_counter = snap
        .counters
        .get("recovery.replayed_records")
        .copied()
        .unwrap_or(0);
    assert_eq!(replayed_field, 3);
    assert!(
        replayed_field <= final_counter,
        "span delta ({replayed_field}) must be ⊆ the final counter ({final_counter})"
    );
    assert!(snap.spans.iter().any(|s| s.name == "storage.checkpoint"));
    let ckpt = snap
        .histograms
        .get("checkpoint.ms")
        .expect("checkpoint duration is observed");
    assert_eq!(ckpt.count, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn db_execution_emits_plan_and_delta_spans() {
    let _serial = serial();
    let data = ibis::core::gen::census_scaled(250, 95);
    let mut db = IncompleteDb::new(data.clone());
    let missing_row = vec![ibis::core::Cell::MISSING; data.n_attrs()];
    db.insert(&missing_row).unwrap();

    Recorder::enabled().install();
    let q = query(&data);
    let expected = db.execute_threads(&q, 2).unwrap();
    let snap = ibis::obs::snapshot();
    Recorder::disabled().install();

    let names: Vec<&str> = snap.spans.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"db.plan"), "{names:?}");
    assert!(names.contains(&"db.delta"), "{names:?}");
    let delta = snap.spans.iter().find(|s| s.name == "db.delta").unwrap();
    assert_eq!(
        delta.fields,
        vec![
            ("delta_rows".to_string(), 1),
            ("entries_scanned".to_string(), 1),
        ]
    );
    // Sanity: answers unaffected by recording.
    assert_eq!(db.execute_threads(&q, 2).unwrap(), expected);
}
