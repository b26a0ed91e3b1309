//! Shared workload vocabulary for the storage harnesses.
//!
//! The crash harness ([`crate::crash`]) and the concurrency stress harness
//! ([`crate::stress`]) drive the same mutation language — the WAL's own
//! [`WalRecord`] — against different adversaries (torn WALs vs racing
//! readers), so the seeded mutation generator and the probe-query battery
//! live here once. Their in-memory twins apply records through
//! [`ibis_storage::engine::apply`], the function WAL recovery replays
//! with.

use ibis_core::{Cell, Dataset, MissingPolicy, Predicate, RangeQuery};
use ibis_storage::{ConcurrentDb, DurableDb, WalRecord};
use rand::{rngs::StdRng, Rng};
use std::io;

/// Pushes one record through the durable engine's own mutators.
pub(crate) fn apply_durable(db: &mut DurableDb, record: &WalRecord) -> io::Result<()> {
    match record {
        WalRecord::Insert(row) => db.insert(row),
        WalRecord::Delete(id) => db.delete(*id).map(drop),
        WalRecord::Compact => db.compact().map(drop),
    }
}

/// Pushes one record through the concurrent serving layer's mutators.
pub(crate) fn apply_concurrent(db: &ConcurrentDb, record: &WalRecord) -> io::Result<()> {
    match record {
        WalRecord::Insert(row) => db.insert(row),
        WalRecord::Delete(id) => db.delete(*id).map(drop),
        WalRecord::Compact => db.compact().map(drop),
    }
}

/// One seeded workload mutation. Deletes deliberately overshoot the live id
/// range sometimes — a no-op delete must replay as a no-op everywhere.
pub(crate) fn gen_op(rng: &mut StdRng, schema: &Dataset, live_hint: u32) -> WalRecord {
    match rng.gen_range(0..8) {
        0..=4 => WalRecord::Insert(
            (0..schema.n_attrs())
                .map(|a| {
                    if rng.gen_range(0..5) == 0 {
                        Cell::MISSING
                    } else {
                        Cell::present(rng.gen_range(1..=schema.column(a).cardinality()))
                    }
                })
                .collect(),
        ),
        5..=6 => WalRecord::Delete(rng.gen_range(0..live_hint + 8)),
        _ => WalRecord::Compact,
    }
}

/// A deterministic probe battery over the schema: prefix, full-domain, and
/// conjunctive ranges, each under both missing-data semantics.
pub(crate) fn probe_queries(schema: &Dataset) -> Vec<RangeQuery> {
    let card = |a: usize| schema.column(a).cardinality();
    let mut qs = Vec::new();
    for policy in MissingPolicy::ALL {
        qs.push(
            RangeQuery::new(vec![Predicate::range(0, 1, card(0).min(4))], policy)
                .expect("prefix probe is valid"),
        );
        let last = schema.n_attrs() - 1;
        qs.push(
            RangeQuery::new(vec![Predicate::range(last, 1, card(last))], policy)
                .expect("full-domain probe is valid"),
        );
        if schema.n_attrs() >= 2 {
            let c1 = card(1);
            qs.push(
                RangeQuery::new(
                    vec![
                        Predicate::range(0, 1, card(0)),
                        Predicate::range(1, (c1 / 2).max(1), c1),
                    ],
                    policy,
                )
                .expect("conjunctive probe is valid"),
            );
        }
    }
    qs
}
