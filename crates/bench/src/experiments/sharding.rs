//! **Sharding** — query time and synopsis pruning versus shard count, at
//! 10% and 30% missing, under both missing-data semantics.
//!
//! The dataset is *clustered* on the queried attribute (values grow with
//! the row id), so a narrow range query overlaps only a contiguous band of
//! shards and each shard's `[lo, hi]` present-value envelope can eliminate
//! the rest. Expected shapes:
//!
//! * under **missing-is-not-match**, the pruned fraction grows with the
//!   shard count (finer shards ⇒ tighter envelopes) and query time falls
//!   correspondingly;
//! * under **missing-is-match**, a shard with *any* missing value on the
//!   queried attribute can never be pruned on it — at 10%/30% missing
//!   essentially every shard carries a missing value, so `pruned` stays at
//!   (or near) zero and sharding buys no skipping, only smaller per-shard
//!   indexes. That asymmetry *is* the paper's semantics, surfaced at the
//!   storage layout level.
//!
//! `degree` is the mean degree the router chose per query (DESIGN.md §9):
//! the configured degree at most, and 1 unless the surviving shards'
//! priced work pays for the workers a fan-out wakes.
//!
//! Every timed answer is asserted bit-identical to the monolithic
//! [`IncompleteDb`] over the same rows before it is reported.

use crate::config::Scale;
use crate::report::{fmt_ms, Table};
use crate::time_ms;
use ibis::prelude::{IncompleteDb, ShardedDb};
use ibis_core::gen::uniform_column;
use ibis_core::{Column, Dataset, MissingPolicy, Predicate, RangeQuery};
use rand::{rngs::StdRng, Rng, SeedableRng};

const HEADERS: [&str; 9] = [
    "missing_pct",
    "policy",
    "shards",
    "ms",
    "pruned",
    "executed",
    "hits",
    "degree",
    "mono_ms",
];

/// Domain of the clustered attribute.
const CARD: u16 = 100;
/// Interval width of each query, as a fraction of the domain.
const WIDTH: u16 = 5;
/// Shard counts swept per (missing, policy) cell.
const SHARD_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 64];

/// A dataset clustered on attribute 0: row `i` holds `⌊i·C/n⌋ + 1` there
/// (missing with probability `missing_rate`), plus one uniform attribute so
/// the per-shard index build stays realistic.
fn clustered_dataset(n_rows: usize, missing_rate: f64, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let clustered: Vec<u16> = (0..n_rows)
        .map(|i| {
            if rng.gen::<f64>() < missing_rate {
                0 // the in-band missing sentinel
            } else {
                (i * CARD as usize / n_rows.max(1)) as u16 + 1
            }
        })
        .collect();
    Dataset::new(vec![
        Column::from_raw("clustered", CARD, clustered).expect("values stay in 1..=CARD"),
        uniform_column("noise", n_rows, 10, missing_rate, &mut rng),
    ])
    .expect("columns share n_rows")
}

/// Narrow range queries on the clustered attribute at random positions.
fn queries(n: usize, policy: MissingPolicy, seed: u64) -> Vec<RangeQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let lo = rng.gen_range(1..=CARD - WIDTH);
            RangeQuery::new(vec![Predicate::range(0, lo, lo + WIDTH)], policy)
                .expect("interval stays in domain")
        })
        .collect()
}

/// Query time and shards-pruned vs shard count, 10%/30% missing, both
/// semantics. One table, one CSV (`results/sharding.csv`).
pub fn run(scale: &Scale) -> Vec<Table> {
    let mut table = Table::new(
        "sharding",
        "sharded query time (ms, whole workload) and synopsis pruning vs shard count \
         — clustered attribute, GS≈5%, both semantics",
        &HEADERS,
    );
    for missing_pct in [10u8, 30] {
        let data = clustered_dataset(
            scale.rows,
            missing_pct as f64 / 100.0,
            scale.seed + 600 + missing_pct as u64,
        );
        let mono = IncompleteDb::new(data.clone());
        for policy in MissingPolicy::ALL {
            let qs = queries(scale.queries, policy, scale.seed ^ 0x5aad);
            let truth: Vec<_> = qs.iter().map(|q| mono.execute(q).expect("valid")).collect();
            let (_, mono_ms) = time_ms(|| {
                for q in &qs {
                    std::hint::black_box(mono.execute(q).expect("valid"));
                }
            });
            for k in SHARD_COUNTS {
                let cap = data.n_rows().div_ceil(k).max(1);
                let db = ShardedDb::new(data.clone(), cap);
                let ((pruned, executed, hits, degree), ms) = time_ms(|| {
                    let (mut pruned, mut executed, mut hits, mut degree) = (0, 0, 0, 0);
                    for (q, want) in qs.iter().zip(&truth) {
                        let exec = db.execute_with_stats(q).expect("valid");
                        assert_eq!(&exec.rows, want, "sharded answer must match monolithic");
                        pruned += exec.shards_pruned;
                        executed += exec.shards_executed();
                        hits += exec.rows.len();
                        degree += exec.degree;
                    }
                    (pruned, executed, hits, degree)
                });
                table.push(vec![
                    missing_pct.to_string(),
                    policy.to_string(),
                    db.shard_count().to_string(),
                    fmt_ms(ms),
                    pruned.to_string(),
                    executed.to_string(),
                    hits.to_string(),
                    format!("{:.2}", degree as f64 / qs.len().max(1) as f64),
                    fmt_ms(mono_ms),
                ]);
            }
        }
    }
    vec![table]
}
