//! planner — planner regret: on the data and query shapes of the
//! repository benchmark's five workloads, how often the method the
//! database plans is within 1.5× of the fastest registered candidate.
//!
//! The candidates are the database's own registry
//! ([`IncompleteDb::methods`]), each called directly. Every query runs on
//! every candidate, interleaved per query (each candidate once, then the
//! next round) so that host drift hits all of them alike; a candidate's
//! time is its fastest of the rounds. A sharded
//! set plans each shard on its own, as the database does, so a query's
//! planned time is the sum of its shards' planned methods and its best
//! time the sum of each shard's fastest. Shards the synopsis prunes are
//! not visited by the database and are skipped here too. Every candidate's
//! answer — its rows, or its count for a count set — must equal the
//! first candidate's.
//!
//! A second table, `planner_sets`, compares index sets on the same five
//! shapes: {BEE, BRE} (the paper's §6 pair), {BEE, BIE} (the default) and
//! {BEE, BRE, BIE}. Each set's own database plans every query; one
//! database registering all three encodings times every candidate, so the
//! sets' planned times come from the same timings. DESIGN §8's rule picks
//! the default from it: the smallest set whose planned time is within 5%
//! of {BEE, BRE}'s on every shape.

use crate::config::Scale;
use crate::report::{fmt_ratio, Table};
use ibis::prelude::{DbConfig, IncompleteDb};
use ibis_core::gen::{self, QuerySpec, SyntheticGroup, SyntheticSpec};
use ibis_core::{Column, Dataset, MissingPolicy, RangeQuery, RowSet};
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

/// A plan within this factor of the fastest candidate counts as good.
const GOOD: f64 = 1.5;

/// Rounds each (query, candidate) pair is timed; the fastest is kept.
const ROUNDS: usize = 3;

/// `grid36`: cardinality {5, 20, 100} × missing {10, 30, 50}% × 4 uniform
/// columns — the benchmark's `paper_mixed` and `compact_count` relation.
fn grid36(n_rows: usize, seed: u64) -> Dataset {
    let groups = [5u16, 20, 100]
        .into_iter()
        .flat_map(|cardinality| {
            [0.1, 0.3, 0.5].map(|missing_rate| SyntheticGroup {
                cardinality,
                missing_rate,
                n_cols: 4,
            })
        })
        .collect();
    SyntheticSpec { n_rows, groups }.generate(seed)
}

/// The benchmark's `sharded_semantics` relation: attribute 0 (cardinality
/// 100, 10% missing) holds its present values in row order, so shards get
/// tight envelopes; eleven uniform cardinality-20 columns follow.
pub(crate) fn clustered(n_rows: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let anchor = gen::uniform_column("clustered", n_rows, 100, 0.1, &mut rng);
    let mut present: Vec<u16> = anchor.raw().iter().copied().filter(|&v| v != 0).collect();
    present.sort_unstable();
    let mut sorted = present.into_iter();
    let raw = anchor
        .raw()
        .iter()
        .map(|&v| {
            if v == 0 {
                0
            } else {
                sorted.next().expect("as many present values")
            }
        })
        .collect();
    let mut columns = vec![Column::from_raw("clustered", 100, raw).expect("in domain")];
    for i in 1..12 {
        let missing = if i % 2 == 0 { 0.1 } else { 0.3 };
        columns.push(gen::uniform_column(
            &format!("u{i}"),
            n_rows,
            20,
            missing,
            &mut rng,
        ));
    }
    Dataset::new(columns).expect("columns share a length")
}

/// `per_class` queries at global selectivity `gs` for each `k` × both
/// semantics, over `attrs` (every attribute when empty).
fn queries(
    d: &Dataset,
    ks: &[usize],
    per_class: usize,
    gs: f64,
    attrs: &[usize],
    seed: u64,
) -> Vec<RangeQuery> {
    let mut out = Vec::new();
    for (i, &k) in ks.iter().enumerate() {
        for (j, policy) in MissingPolicy::ALL.into_iter().enumerate() {
            let spec = QuerySpec {
                n_queries: per_class,
                k,
                global_selectivity: gs,
                policy,
                candidate_attrs: attrs.to_vec(),
            };
            out.extend(gen::workload(d, &spec, seed + (i * 2 + j) as u64 * 1_000));
        }
    }
    out
}

/// The `sharded_semantics` shape: three of every four queries constrain
/// the clustered attribute 0 (at `0.01^(1/k)`), the rest of their
/// selectivity spread over the other attributes.
pub(crate) fn anchored(d: &Dataset, ks: &[usize], per_class: usize, seed: u64) -> Vec<RangeQuery> {
    let others: Vec<usize> = (1..d.n_attrs()).collect();
    let mut out = queries(d, ks, per_class / 4, 0.01, &others, seed);
    let n = per_class - per_class / 4;
    for &k in ks {
        let share = 1.0 / k as f64;
        let head = queries(
            d,
            &[1],
            n,
            0.01f64.powf(share),
            &[0],
            seed + 50_000 + k as u64,
        );
        if k == 1 {
            out.extend(head);
            continue;
        }
        let tail = queries(
            d,
            &[k - 1],
            n,
            0.01f64.powf(1.0 - share),
            &others,
            seed + 60_000 + k as u64,
        );
        for (a, b) in head.iter().zip(&tail) {
            debug_assert_eq!(a.policy(), b.policy());
            let preds = a.predicates().iter().chain(b.predicates()).copied();
            out.push(RangeQuery::new(preds.collect(), a.policy()).expect("distinct attributes"));
        }
    }
    out
}

/// One query set: a relation cut into shards, its database configuration,
/// its queries and whether they are counts.
struct Set {
    name: &'static str,
    shards: Vec<IncompleteDb>,
    queries: Vec<RangeQuery>,
    count: bool,
}

fn set(
    name: &'static str,
    d: Dataset,
    shard_rows: usize,
    config: DbConfig,
    queries: Vec<RangeQuery>,
    count: bool,
) -> Set {
    let n = d.n_rows();
    let shards = (0..n)
        .step_by(shard_rows.max(1))
        .map(|lo| IncompleteDb::with_config(d.slice_rows(lo..(lo + shard_rows).min(n)), config))
        .collect();
    Set {
        name,
        shards,
        queries,
        count,
    }
}

/// What one query costs on one shard: its planned method's position in the
/// shard's registry and every registered method's fastest time, in
/// microseconds.
fn time_shard(s: &IncompleteDb, q: &RangeQuery, count: bool) -> (usize, Vec<f64>) {
    let chosen = s.explain(q).expect("valid query").chosen;
    let planned = s
        .methods()
        .position(|(name, _)| name == chosen)
        .expect("the plan names a registered method");
    let mut best = vec![f64::INFINITY; s.methods().count()];
    let mut truth: Option<Answer> = None;
    for _ in 0..ROUNDS {
        for (i, (name, m)) in s.methods().enumerate() {
            let began = Instant::now();
            let answer = if count {
                Answer::Count(m.execute_count(q).expect("valid query"))
            } else {
                Answer::Rows(m.execute_with_cost(q).expect("valid query").0)
            };
            best[i] = best[i].min(began.elapsed().as_secs_f64() * 1e6);
            match &truth {
                Some(t) => assert!(*t == answer, "{name} disagrees on {q:?}"),
                None => truth = Some(answer),
            }
        }
    }
    (planned, best)
}

/// A candidate's answer: the rows, or their count for a count set.
#[derive(PartialEq)]
enum Answer {
    Rows(RowSet),
    Count(usize),
}

/// Regret of one set: (good share, worst ratio, planned mean µs, best mean
/// µs, each candidate's mean µs had it run every shard of every query).
fn regret(set: &Set) -> (f64, f64, f64, f64, Vec<(&'static str, f64)>) {
    let names = set.shards[0].method_names();
    let mut always = vec![0.0; names.len()];
    let (mut good, mut worst, mut planned_sum, mut best_sum) = (0usize, 1.0f64, 0.0, 0.0);
    for q in &set.queries {
        let (mut planned, mut best) = (0.0, 0.0);
        for s in set.shards.iter().filter(|s| !s.synopsis().can_prune(q)) {
            let (chosen, times) = time_shard(s, q, set.count);
            planned += times[chosen];
            best += times.iter().copied().fold(f64::INFINITY, f64::min);
            for (a, t) in always.iter_mut().zip(&times) {
                *a += t;
            }
        }
        if planned <= GOOD * best {
            good += 1;
        }
        if best > 0.0 {
            worst = worst.max(planned / best);
        }
        planned_sum += planned;
        best_sum += best;
    }
    let n = set.queries.len().max(1) as f64;
    let always = names
        .into_iter()
        .zip(always.into_iter().map(|a| a / n))
        .collect();
    (
        good as f64 / n,
        worst,
        planned_sum / n,
        best_sum / n,
        always,
    )
}

/// The index sets `planner_sets` compares, the paper's pair first.
fn index_sets() -> [(&'static str, DbConfig); 3] {
    let bitmaps = |bre, bie| DbConfig {
        bee: true,
        bre,
        bie,
        ..DbConfig::none()
    };
    [
        ("bee+bre", bitmaps(true, false)),
        ("bee+bie", bitmaps(false, true)),
        ("bee+bre+bie", bitmaps(true, true)),
    ]
}

/// One `planner_sets` row per index set on one shape: its index bytes
/// per row, its share of queries planned within 1.5× of its own fastest
/// candidate, its planned mean (µs) and that mean over {BEE, BRE}'s.
fn compare_sets(
    name: &'static str,
    d: &Dataset,
    shard_rows: usize,
    queries: &[RangeQuery],
    count: bool,
) -> Vec<Vec<String>> {
    // What each set plans, shard by shard, for the shards no synopsis
    // prunes (the synopsis is the same under every set).
    let sets = index_sets();
    let mut plans = Vec::new();
    let mut bytes = Vec::new();
    for (_, config) in sets {
        let s = set(name, d.clone(), shard_rows, config, Vec::new(), count);
        let registered = s.shards[0].method_names();
        let chosen: Vec<Vec<&'static str>> = queries
            .iter()
            .map(|q| {
                let live = s.shards.iter().filter(|sh| !sh.synopsis().can_prune(q));
                live.map(|sh| sh.explain(q).expect("valid query").chosen)
                    .collect()
            })
            .collect();
        let b: usize = s.shards.iter().map(IncompleteDb::index_bytes).sum();
        bytes.push(b as f64 / d.n_rows().max(1) as f64);
        plans.push((registered, chosen));
    }
    // Every candidate of every set, timed once per (query, shard) in a
    // database of the last set, which registers them all.
    let timed = set(name, d.clone(), shard_rows, sets[2].1, Vec::new(), count);
    let names = timed.shards[0].method_names();
    let at = |method: &str| names.iter().position(|n| *n == method).expect("registered");
    let mut good = [0usize; 3];
    let mut planned_sum = [0.0f64; 3];
    for (qi, q) in queries.iter().enumerate() {
        let mut planned = [0.0f64; 3];
        let mut best = [0.0f64; 3];
        let live = timed.shards.iter().filter(|sh| !sh.synopsis().can_prune(q));
        for (k, sh) in live.enumerate() {
            let (_, times) = time_shard(sh, q, count);
            for (i, (registered, chosen)) in plans.iter().enumerate() {
                planned[i] += times[at(chosen[qi][k])];
                best[i] += registered
                    .iter()
                    .map(|m| times[at(m)])
                    .fold(f64::INFINITY, f64::min);
            }
        }
        for i in 0..3 {
            good[i] += usize::from(planned[i] <= GOOD * best[i]);
            planned_sum[i] += planned[i];
        }
    }
    let n = queries.len().max(1) as f64;
    sets.iter()
        .enumerate()
        .map(|(i, (set_name, _))| {
            vec![
                name.into(),
                (*set_name).into(),
                format!("{:.1}", bytes[i]),
                format!("{:.3}", good[i] as f64 / n),
                format!("{:.1}", planned_sum[i] / n),
                fmt_ratio(planned_sum[i] / planned_sum[0]),
            ]
        })
        .collect()
}

/// The planner experiment: one row per query set, and one per index set
/// and query set.
pub fn run(scale: &Scale) -> Vec<Table> {
    let mut table = Table::new(
        "planner",
        "planner regret: share of queries planned within 1.5x of the fastest candidate, \
         the worst ratio, and the planned against the best mean (us), on the benchmark's \
         five data and query shapes",
        &[
            "query_set",
            "queries",
            "within_1.5x",
            "worst_ratio",
            "planned_us",
            "best_us",
            "always_us",
        ],
    );
    let seed = scale.seed;
    let per_class = (scale.queries * 5 / 2).max(4);
    let grid_rows = scale.rows;
    let census_rows = (scale.rows / 2).max(1);
    let compact = DbConfig {
        adaptive: true,
        va: true,
        ..DbConfig::none()
    };
    let grid = grid36(grid_rows, seed);
    let grid_queries = queries(&grid, &[1, 2, 4, 8], per_class, 0.01, &[], seed);
    let clustered = clustered(scale.rows * 128 / 100, seed);
    let clustered_queries = anchored(&clustered, &[1, 2, 3], per_class, seed);
    let census = gen::census_scaled(census_rows, seed);
    let census_queries = queries(&census, &[1, 2, 4], per_class, 0.01, &[], seed);
    let sets = [
        (
            "paper_mixed",
            grid.clone(),
            grid_rows,
            DbConfig::default(),
            grid_queries.clone(),
            false,
        ),
        (
            "compact_count",
            grid,
            grid_rows,
            compact,
            grid_queries,
            true,
        ),
        (
            "sharded_semantics",
            clustered,
            2_000,
            DbConfig::default(),
            clustered_queries,
            false,
        ),
        (
            "served",
            census.clone(),
            census_rows,
            DbConfig::default(),
            census_queries.clone(),
            false,
        ),
        (
            "ingest_while_query",
            census,
            8_192,
            DbConfig::default(),
            census_queries,
            false,
        ),
    ];
    let mut by_set = Table::new(
        "planner_sets",
        "index sets on the benchmark's five shapes: bytes per row, the share planned within \
         1.5x of the set's fastest candidate, the planned mean (us) and its ratio to \
         {BEE, BRE}'s, every candidate timed in one database registering BEE, BRE and BIE",
        &[
            "query_set",
            "index_set",
            "bytes_per_row",
            "within_1.5x",
            "planned_us",
            "vs_bee_bre",
        ],
    );
    for (name, d, shard_rows, config, qs, count) in sets {
        // One set's indexes at a time: each is dropped before the next is built.
        for row in compare_sets(name, &d, shard_rows, &qs, count) {
            by_set.push(row);
        }
        let s = set(name, d, shard_rows, config, qs, count);
        let (good, worst, planned, best, always) = regret(&s);
        let always = always
            .iter()
            .map(|(name, us)| format!("{name} {us:.1}"))
            .collect::<Vec<_>>()
            .join(" / ");
        table.push(vec![
            s.name.into(),
            s.queries.len().to_string(),
            format!("{good:.3}"),
            fmt_ratio(worst),
            format!("{planned:.1}"),
            format!("{best:.1}"),
            always,
        ]);
    }
    vec![table, by_set]
}
