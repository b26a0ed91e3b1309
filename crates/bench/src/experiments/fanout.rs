//! **Fan-out prices** — what the router's degree rule (DESIGN.md §9) is
//! made of, measured in one sitting, and what the rule then does on the
//! `sharded_semantics` shape.
//!
//! Table `fanout` holds three measurements, each in µs and in the
//! planner's cost unit, beside the constant the code uses:
//!
//! * **the unit**: the plain kernel's in-place OR per 64-bit word, warm,
//!   over 1,024-word operands (DESIGN.md §8, *Cost unit*);
//! * **a cold wake-up**: from the start of a two-chunk map until a parked
//!   worker starts chunk 1, after the worker has sat parked for a set gap.
//!   Chunk 0, the caller's, waits for chunk 1 to start, so the caller
//!   never takes it back: the time is what a fanned-out query waits before
//!   its second half starts (`parallel::WAKE_PRICE`);
//! * **the visit price**: on the `sharded_semantics` relation (clustered,
//!   2,000-row shards) at degree 1, the time of an is-match query — which
//!   visits every shard — per visit, less the visit's priced words at the
//!   measured unit (`sharded::VISIT_PRICE`).
//!
//! Table `fanout_rule` runs the `sharded_semantics` queries at degree 1 and
//! at a ceiling of 2, as the benchmark does, and reports per semantics the
//! shards visited, the share of queries the rule fans out and both p50s.
//! Every answer at the ceiling of 2 is asserted equal to degree 1's.

use super::planner::{anchored, clustered};
use crate::config::Scale;
use crate::report::{fmt_ms, fmt_ratio, Table};
use ibis::prelude::{IncompleteDb, ShardedDb};
use ibis::storage::sharded::VISIT_PRICE;
use ibis_bitvec::kernel;
use ibis_core::parallel::{ExecPool, WAKES_PER_CHUNK, WAKE_PRICE};
use ibis_core::{MissingPolicy, RangeQuery};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The benchmark's shard capacity.
const SHARD_ROWS: usize = 2_000;

/// How long parked workers sit idle before each wake-up is timed.
const GAPS_US: [u64; 3] = [0, 100, 1_000];

/// Times each query is run per degree; each query keeps its median.
const ROUNDS: usize = 5;

/// The median of `xs` (which it sorts).
fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by nearest rank (sorts `xs`).
fn quantile(xs: &mut [f64], q: f64) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs.get(((xs.len() as f64 * q) as usize).min(xs.len().saturating_sub(1)))
        .copied()
        .unwrap_or(f64::NAN)
}

/// The cost unit on this host: ns per word of the plain kernel's in-place
/// OR, the median of 50 batches of 200 passes over 1,024 words.
fn unit_ns() -> f64 {
    let src: Vec<u64> = (0..1024u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut acc = vec![0u64; src.len()];
    let mut batches: Vec<f64> = (0..50)
        .map(|_| {
            let began = Instant::now();
            for _ in 0..200 {
                kernel::zip_words_in_place(&mut acc, black_box(&src), |a, b| a | b);
            }
            black_box(&acc);
            began.elapsed().as_nanos() as f64 / (200 * src.len()) as f64
        })
        .collect();
    median(&mut batches)
}

/// `samples` cold wake-ups, in µs, each after the workers sat parked for
/// `gap`.
fn wake_us(gap: Duration, samples: usize) -> Vec<f64> {
    let pool = ExecPool::new(2);
    pool.map(vec![0u8, 1], |x| x); // the worker exists from here on
    let epoch = Instant::now();
    let started = Arc::new(AtomicU64::new(0));
    (0..samples)
        .map(|_| {
            if !gap.is_zero() {
                std::thread::sleep(gap);
            }
            started.store(0, Ordering::SeqCst);
            let seen = Arc::clone(&started);
            let t0 = epoch.elapsed().as_nanos() as u64;
            pool.map(vec![0u8, 1], move |chunk| {
                if chunk == 1 {
                    seen.store(epoch.elapsed().as_nanos() as u64 + 1, Ordering::SeqCst);
                } else {
                    let deadline = Instant::now() + Duration::from_millis(10);
                    while seen.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
                        std::hint::spin_loop();
                    }
                }
            });
            (started.load(Ordering::SeqCst) - 1).saturating_sub(t0) as f64 / 1e3
        })
        .collect()
}

/// The shard the router plans `q` on (the first unpruned one; every shard
/// here holds base rows) and the summed `estimated_cost` of that plan over
/// every unpruned shard, with the number of them.
fn priced_words(shards: &[IncompleteDb], q: &RangeQuery) -> (f64, usize) {
    let live: Vec<&IncompleteDb> = shards
        .iter()
        .filter(|s| !s.synopsis().can_prune(q))
        .collect();
    let Some(first) = live.first() else {
        return (0.0, 0);
    };
    let chosen = first.explain(q).expect("valid query").chosen;
    let words = live
        .iter()
        .map(|s| {
            let plan = s.explain(q).expect("valid query");
            let c = plan.candidates.iter().find(|c| c.name == chosen);
            c.expect("one config, one registry").estimated_cost
        })
        .sum();
    (words, live.len())
}

/// Each query's median µs over [`ROUNDS`] runs at degree 1 and as many at
/// a ceiling of 2, back to back and in alternating order, so that both see
/// the same cache and worker state, with the degree the router chose at
/// the ceiling of 2.
fn time_queries(db: &ShardedDb, qs: &[RangeQuery]) -> Vec<(f64, f64, usize)> {
    let mut times = [vec![Vec::new(); qs.len()], vec![Vec::new(); qs.len()]];
    let mut degrees = vec![1; qs.len()];
    for round in 0..ROUNDS {
        for (i, q) in qs.iter().enumerate() {
            let first = (round + i) % 2;
            for pass in [first, 1 - first] {
                let began = Instant::now();
                let exec = db.execute_with_stats_threads(q, pass + 1).expect("valid");
                times[pass][i].push(began.elapsed().as_secs_f64() * 1e6);
                if pass == 1 {
                    degrees[i] = exec.degree;
                }
                black_box(exec);
            }
        }
    }
    let [mut inline, mut priced] = times;
    inline
        .iter_mut()
        .zip(&mut priced)
        .zip(degrees)
        .map(|((a, b), d)| (median(a), median(b), d))
        .collect()
}

/// The two tables.
pub fn run(scale: &Scale) -> Vec<Table> {
    let mut prices = Table::new(
        "fanout",
        "what the router's degree rule is made of: the cost unit, a cold wake-up of a \
         parked worker, and a shard visit's price beyond its words (sharded_semantics \
         shape, degree 1), with the constants the code uses",
        &["quantity", "p50_us", "p90_us", "units", "constant_units"],
    );
    let unit = unit_ns();
    let units = |us: f64| format!("{:.0}", us * 1e3 / unit);
    prices.push(vec![
        "unit (in-place OR, per word)".into(),
        format!("{:.6}", unit / 1e3),
        "-".into(),
        "1".into(),
        "1".into(),
    ]);
    let samples = (scale.queries * 2).max(10);
    for gap in GAPS_US {
        let mut us = wake_us(Duration::from_micros(gap), samples);
        let (p50, p90) = (median(&mut us), quantile(&mut us, 0.9));
        prices.push(vec![
            format!("cold wake-up, parked {gap} us"),
            fmt_ms(p50),
            fmt_ms(p90),
            units(p50),
            format!("{WAKE_PRICE:.0}"),
        ]);
    }
    let threshold = WAKES_PER_CHUNK * WAKE_PRICE;
    prices.push(vec![
        format!("fan-out threshold ({WAKES_PER_CHUNK} wake-ups per chunk)"),
        fmt_ms(threshold * unit / 1e3),
        "-".into(),
        "-".into(),
        format!("{threshold:.0}"),
    ]);

    let data = clustered(scale.rows * 128 / 100, scale.seed);
    let per_class = (scale.queries * 5 / 2).max(4);
    let qs = anchored(&data, &[1, 2, 3], per_class, scale.seed);
    let n = data.n_rows();
    let shards: Vec<IncompleteDb> = (0..n)
        .step_by(SHARD_ROWS)
        .map(|lo| IncompleteDb::new(data.slice_rows(lo..(lo + SHARD_ROWS).min(n))))
        .collect();
    let db = ShardedDb::new(data, SHARD_ROWS);
    let timed = time_queries(&db, &qs);
    for q in &qs {
        assert_eq!(
            db.execute_threads(q, 2).expect("valid"),
            db.execute_threads(q, 1).expect("valid"),
            "the degree never changes an answer"
        );
    }

    let mut visit_us = Vec::new();
    let mut beyond_us = Vec::new();
    let mut rule = Table::new(
        "fanout_rule",
        "the degree rule on the sharded_semantics shape: shards visited, share of queries \
         fanned out at a ceiling of 2, and p50 us at degree 1 and at the ceiling of 2",
        &[
            "policy",
            "queries",
            "visits_per_query",
            "fanned_out",
            "degree1_us_p50",
            "ceiling2_us_p50",
        ],
    );
    for policy in MissingPolicy::ALL {
        let (mut d1, mut d2, mut visits, mut fanned) = (Vec::new(), Vec::new(), 0, 0);
        for (i, q) in qs.iter().enumerate() {
            if q.policy() != policy {
                continue;
            }
            let (words, live) = priced_words(&shards, q);
            visits += live;
            let (inline, priced, degree) = timed[i];
            d1.push(inline);
            d2.push(priced);
            fanned += usize::from(degree > 1);
            if policy == MissingPolicy::IsMatch && live == shards.len() {
                visit_us.push(inline / live as f64);
                beyond_us.push((inline - words * unit / 1e3) / live as f64);
            }
        }
        let n = d1.len().max(1);
        rule.push(vec![
            policy.to_string(),
            d1.len().to_string(),
            format!("{:.1}", visits as f64 / n as f64),
            fmt_ratio(fanned as f64 / n as f64),
            fmt_ms(median(&mut d1)),
            fmt_ms(median(&mut d2)),
        ]);
    }
    prices.push(vec![
        "shard visit, degree 1".into(),
        fmt_ms(median(&mut visit_us)),
        fmt_ms(quantile(&mut visit_us, 0.9)),
        units(median(&mut visit_us)),
        "-".into(),
    ]);
    let beyond = median(&mut beyond_us);
    prices.push(vec![
        "shard visit beyond its words".into(),
        fmt_ms(beyond),
        fmt_ms(quantile(&mut beyond_us, 0.9)),
        units(beyond),
        format!("{VISIT_PRICE:.0}"),
    ]);
    vec![prices, rule]
}
