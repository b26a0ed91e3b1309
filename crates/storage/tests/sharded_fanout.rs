//! The router's fan-out on warmed workers, seen from the calling thread.
//!
//! Its own test binary: it installs the process-global span recorder,
//! which no other test in this crate's binaries may see switched on.

use ibis_core::parallel::threads_started_here;
use ibis_core::{Cell, Dataset, MissingPolicy, Predicate, RangeQuery};
use ibis_storage::ShardedDb;

/// Rows per shard: enough that the wide query's priced work, over all 64
/// shards, affords a second chunk (DESIGN.md §9).
const SHARD_ROWS: u16 = 256;

/// The `pool.worker` spans a query leaves on the calling thread (chunk 0
/// of a fanned-out map always runs there).
fn worker_spans(db: &ShardedDb, q: &RangeQuery, threads: usize) -> usize {
    let capture = ibis_obs::capture("test.query");
    db.execute_threads(q, threads).unwrap();
    let spans = capture.finish();
    spans.iter().filter(|s| s.name == "pool.worker").count()
}

#[test]
fn a_warmed_sharded_query_starts_no_thread() {
    // 64 shards of 256 rows, `a` banded by shard, `b` varying inside one:
    // the wide query prices above the fan-out threshold and fans out over
    // every shard; the point query prunes to one shard, which runs inline.
    let rows: Vec<Vec<Cell>> = (0..64 * SHARD_ROWS)
        .map(|r| vec![Cell::present(r / SHARD_ROWS + 1), Cell::present(r % 4 + 1)])
        .collect();
    let data = Dataset::from_rows(&[("a", 64), ("b", 4)], &rows).unwrap();
    let db = ShardedDb::new(data.clone(), SHARD_ROWS as usize);
    assert_eq!(db.shard_count(), 64);
    let key = |lo, hi| vec![Predicate::range(0, lo, hi), Predicate::range(1, 2, 3)];
    let wide = RangeQuery::new(key(1, 64), MissingPolicy::IsNotMatch).unwrap();
    let one = RangeQuery::new(key(10, 10), MissingPolicy::IsNotMatch).unwrap();
    // One shard: the shard's own method gets the full degree.
    let single = ShardedDb::new(data, 64 * SHARD_ROWS as usize);
    assert_eq!(single.shard_count(), 1);
    db.execute_threads(&wide, 2).unwrap(); // warms the parked workers
    single.execute_threads(&wide, 8).unwrap();
    let before = threads_started_here();
    for (q, executed, degree) in [(&wide, 64, 2), (&one, 1, 1)] {
        let exec = db.execute_with_stats_threads(q, 2).unwrap();
        assert_eq!(exec.shards_executed(), executed);
        assert_eq!(exec.degree, degree, "{executed} shards at a ceiling of 2");
        assert_eq!(exec.rows, db.execute_threads(q, 1).unwrap());
        let exec = single.execute_with_stats_threads(q, 8).unwrap();
        assert_eq!(exec.rows, db.execute_threads(q, 1).unwrap());
    }
    assert_eq!(threads_started_here(), before);

    ibis_obs::Recorder::metrics_only().install();
    let (wide_spans, one_spans) = (worker_spans(&db, &wide, 2), worker_spans(&db, &one, 2));
    ibis_obs::Recorder::disabled().install();
    assert!(wide_spans >= 1, "the wide query fans out");
    assert_eq!(one_spans, 0, "the pruned point query runs inline");
    assert_eq!(threads_started_here(), before);
}
