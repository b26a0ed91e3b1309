//! A count-only request takes the count path: the server replies with the
//! right count, builds no row-id vector on the way, and logs the counters
//! of the work it did.
//!
//! The binary counts every byte its threads allocate, so it holds one test:
//! a second one running beside it would be counted too.

use ibis::prelude::*;
use ibis::server::{Client, Response};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The system allocator, counting the bytes asked of it.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter only adds to a statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` returns, and the bytes allocated while it ran.
fn allocated_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.load(Ordering::SeqCst);
    let out = f();
    (out, ALLOCATED.load(Ordering::SeqCst) - before)
}

const DEADLINE_MS: u32 = 60_000;

#[test]
fn a_count_only_request_counts_without_building_row_ids() {
    // One attribute that every base row satisfies, then a delta with a
    // tombstone in it: the count crosses the index, the delta's word mask
    // and the tombstones.
    const N: usize = 100_000;
    let raw = (0..N).map(|r| 1 + (r % 2) as u16).collect();
    let data = Dataset::new(vec![Column::from_raw("a", 2, raw).unwrap()]).unwrap();
    let db = Arc::new(ConcurrentDb::new_mem(data, 2 * N));
    for v in [1, 2, 1] {
        db.insert(&[Cell::present(v)]).unwrap();
    }
    db.delete(N as u32 + 1).unwrap();
    let q = RangeQuery::new(vec![Predicate::range(0, 1, 2)], MissingPolicy::IsNotMatch).unwrap();
    let expect = N + 2;
    let (direct, counters) = db.snapshot().count_with_cost_threads(&q, 1).unwrap();
    assert_eq!(direct, expect);

    let config = ServerConfig {
        workers: 1,
        trace_sample: 1,
        ..ServerConfig::default()
    };
    let handle = Server::start(Arc::clone(&db), "127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.count(&q, DEADLINE_MS).unwrap(); // warm the connection and the pool

    let ids = expect * std::mem::size_of::<u32>();
    let (rows, rows_bytes) = allocated_during(|| client.query(&q, DEADLINE_MS).unwrap());
    assert!(matches!(rows, Response::Rows { ref rows, .. } if rows.len() == expect));
    // The probe sees an id vector being built: the server's and the
    // client's decoded copy.
    assert!(rows_bytes >= 2 * ids, "{rows_bytes} B for {ids} B of ids");

    let (count, count_bytes) = allocated_during(|| client.count(&q, DEADLINE_MS).unwrap());
    assert!(matches!(count, Response::Count { count, .. } if count == expect as u64));
    // The count path holds one bit per row, never four bytes.
    assert!(
        count_bytes < ids / 4,
        "{count_bytes} B allocated to count {expect} rows"
    );

    // Traced, the count request logs the count path's own counters, and
    // its phases still sum to them.
    let stats = client.stats(true).unwrap();
    let logged = stats
        .slow_queries
        .iter()
        .filter(|slow| {
            let fields = slow.counters.iter().map(|(k, v)| (k.as_str(), *v));
            WorkCounters::from_fields(fields) == counters
        })
        .count();
    assert!(
        logged >= 2,
        "both count requests log the count path's counters"
    );
    handle.shutdown();
}
