//! A living incomplete database: the [`IncompleteDb`] layer picks the right
//! index per query (the paper's §6 decision rule) and absorbs inserts
//! through a delta store, so updates don't force an index rebuild on every
//! row — the scenario the paper flags when it notes index size "becomes
//! important as database updates become more frequent".
//!
//! ```text
//! cargo run --release --example live_updates
//! ```

use ibis::core::gen::census_scaled;
use ibis::prelude::*;
use std::time::Instant;

fn main() {
    let data = census_scaled(30_000, 11);
    let n_attrs = data.n_attrs();
    // A high-cardinality attribute for the range-query demo.
    let wide_attr = (0..n_attrs)
        .max_by_key(|&a| data.column(a).cardinality())
        .expect("non-empty schema");
    let wide_card = data.column(wide_attr).cardinality();
    let mut db = IncompleteDb::new(data);
    println!(
        "database: {} rows × {} attrs, {:.1} KB of indexes\n",
        db.n_rows(),
        db.n_attrs(),
        db.index_bytes() as f64 / 1024.0
    );

    // The planner in action: a point query routes to BEE, a wide range to BIE.
    let point = RangeQuery::new(vec![Predicate::point(3, 1)], MissingPolicy::IsMatch).unwrap();
    let range = RangeQuery::new(
        vec![Predicate::range(wide_attr, 10, wide_card - 10)],
        MissingPolicy::IsMatch,
    )
    .unwrap();
    for (name, q) in [("point", &point), ("range", &range)] {
        let plan = db.explain(q).unwrap();
        let costs: Vec<String> = plan
            .candidates
            .iter()
            .map(|c| format!("{} est. {:.0} words", c.name, c.estimated_cost))
            .collect();
        println!(
            "{name} query → {} ({}), {} rows",
            plan.chosen,
            costs.join(", "),
            db.count(q).unwrap()
        );
    }

    // Stream inserts; answers stay exact throughout.
    let before = db.count(&point).unwrap();
    let range_before = db.count(&range).unwrap();
    let t = Instant::now();
    for i in 0..5_000usize {
        let mut row = vec![Cell::MISSING; n_attrs];
        row[3] = Cell::present(1 + (i % 2) as u16);
        db.insert(&row).unwrap();
    }
    println!(
        "\ninserted 5000 rows into the delta store in {:?} (delta = {})",
        t.elapsed(),
        db.delta_len()
    );
    let mid = db.count(&point).unwrap();
    assert_eq!(mid, before + 2_500); // half got value 1, all visible at once

    let t = Instant::now();
    db.compact();
    println!(
        "compacted in {:?} (delta = {})",
        t.elapsed(),
        db.delta_len()
    );
    let after = db.count(&point).unwrap();
    assert_eq!(after, mid, "compaction must not change answers");
    println!("point-query count stable across insert+compact: {before} → {mid} → {after} ✓");

    // The memory-constrained profile keeps only the VA-file (same original
    // 30k rows, so compare against the pre-insert count).
    let small = IncompleteDb::with_config(census_scaled(30_000, 11), DbConfig::compact_profile());
    assert_eq!(small.count(&range).unwrap(), range_before);
    println!(
        "\ncompact profile: {:.1} KB of indexes (vs {:.1} KB full), same exact answers ✓",
        small.index_bytes() as f64 / 1024.0,
        db.index_bytes() as f64 / 1024.0,
    );
}
