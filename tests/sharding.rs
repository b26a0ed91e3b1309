//! Sharded-execution conformance: a [`ShardedDb`] must be observationally
//! identical to a monolithic [`IncompleteDb`] over the same data — rows
//! bit-identical, merged work counters thread-degree independent — while
//! its synopsis pruning honors both missing-data semantics. The CI `shards`
//! job runs this suite under `IBIS_THREADS=1` and `IBIS_THREADS=8`, so
//! every `execute()` call here is exercised at both ambient degrees.

use ibis::oracle::gen::gen_case;
use ibis::prelude::*;
use ibis_core::gen::{census_scaled, workload, QuerySpec};

const SHARD_COUNTS: [usize; 3] = [1, 3, 7];
const THREADS: [usize; 2] = [1, 8];

fn v(x: u16) -> Cell {
    Cell::present(x)
}
fn m() -> Cell {
    Cell::MISSING
}

/// Splits `n` rows into `k` shards the way the conformance matrix means it:
/// shard capacity `⌈n/k⌉`, so exactly `k` shards when `n ≥ k`.
fn shard_capacity(n: usize, k: usize) -> usize {
    n.div_ceil(k).max(1)
}

#[test]
fn sharded_matches_monolithic_for_every_config_and_degree() {
    let data = census_scaled(280, 501);
    for config in [DbConfig::default(), DbConfig::all(), DbConfig::none()] {
        let mono = IncompleteDb::with_config(data.clone(), config);
        for k in SHARD_COUNTS {
            let cap = shard_capacity(data.n_rows(), k);
            let sharded = ShardedDb::with_config(data.clone(), cap, config);
            assert_eq!(sharded.shard_count(), k);
            for policy in MissingPolicy::ALL {
                let spec = QuerySpec {
                    n_queries: 4,
                    k: 3,
                    global_selectivity: 0.05,
                    policy,
                    candidate_attrs: vec![],
                };
                for q in workload(&data, &spec, 502) {
                    let want = mono.execute(&q).unwrap();
                    let mut counters: Option<WorkCounters> = None;
                    for threads in THREADS {
                        let (rows, c) = sharded.execute_with_cost_threads(&q, threads).unwrap();
                        assert_eq!(rows, want, "k={k} t={threads} {policy} {config:?}");
                        match &counters {
                            None => counters = Some(c),
                            Some(base) => assert_eq!(
                                c, *base,
                                "merged counters must be degree-independent: k={k} t={threads}"
                            ),
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn sharded_matches_monolithic_on_oracle_cases() {
    // The oracle's adversarial generator (duplicated rows, all-missing
    // stripes, tiny domains) through the ShardedDb itself.
    for idx in [0, 1, 2, 5, 8] {
        let case = gen_case(77, idx);
        if case.dataset.n_rows() == 0 || case.dataset.n_attrs() == 0 {
            continue;
        }
        let mono = IncompleteDb::new(case.dataset.clone());
        for k in SHARD_COUNTS {
            let cap = shard_capacity(case.dataset.n_rows(), k);
            let sharded = ShardedDb::new(case.dataset.clone(), cap);
            for raw in &case.queries {
                let Ok(q) = raw.to_query() else { continue };
                match (mono.execute(&q), sharded.execute(&q)) {
                    (Ok(want), Ok(got)) => assert_eq!(got, want, "case {idx} k={k}"),
                    (Err(_), Err(_)) => {} // both reject schema-invalid keys
                    (mono_r, shard_r) => panic!(
                        "case {idx} k={k}: divergent acceptance: monolithic {mono_r:?}, sharded {shard_r:?}"
                    ),
                }
            }
        }
    }
}

#[test]
fn is_not_match_prunes_all_missing_shard_outright() {
    // Shard 1 (rows 2..4) is all-missing on the queried attribute: under
    // IsNotMatch its synopsis must eliminate it without touching an index.
    let data = Dataset::from_rows(
        &[("a", 9)],
        &[
            vec![v(1)],
            vec![v(2)],
            vec![m()],
            vec![m()],
            vec![v(3)],
            vec![v(4)],
        ],
    )
    .unwrap();
    let db = ShardedDb::new(data, 2);
    assert_eq!(db.shard_count(), 3);
    let q = RangeQuery::new(vec![Predicate::range(0, 1, 9)], MissingPolicy::IsNotMatch).unwrap();
    let exec = db.execute_with_stats(&q).unwrap();
    assert_eq!(exec.shards_pruned, 1, "the all-missing shard is skipped");
    assert_eq!(exec.rows.rows(), &[0, 1, 4, 5]);
    assert!(db.synopsis(1).can_prune(&q));
    assert!(db.synopsis(1).attrs[0].all_missing());
}

#[test]
fn is_match_never_prunes_a_shard_with_missing_on_the_queried_attribute() {
    // The paper's IsMatch semantics as a pruning rule: missing_count > 0 on
    // a queried attribute makes the shard unprunable on that attribute —
    // for *any* interval, because the missing rows always match.
    let data = Dataset::from_rows(
        &[("a", 9)],
        &[vec![v(1)], vec![m()], vec![v(8)], vec![v(8)]],
    )
    .unwrap();
    let db = ShardedDb::new(data, 2);
    assert!(db.synopsis(0).attrs[0].missing > 0);
    for (lo, hi) in [(1, 1), (4, 5), (9, 9), (1, 9)] {
        let q = RangeQuery::new(vec![Predicate::range(0, lo, hi)], MissingPolicy::IsMatch).unwrap();
        assert!(
            !db.synopsis(0).can_prune(&q),
            "[{lo},{hi}]: shard with missing values must never be pruned under IsMatch"
        );
        // And the unpruned answer is the correct one.
        let exec = db.execute_with_stats(&q).unwrap();
        assert!(
            exec.rows.rows().contains(&1),
            "[{lo},{hi}]: row 1 is missing ⇒ matches"
        );
    }
    // The same shard *is* prunable under IsNotMatch when the envelope misses.
    let strict =
        RangeQuery::new(vec![Predicate::range(0, 4, 5)], MissingPolicy::IsNotMatch).unwrap();
    assert!(db.synopsis(0).can_prune(&strict));
}

#[test]
fn pruned_counter_and_shard_spans_surface_in_the_profile() {
    // Values grow with the row id, so a narrow interval excludes most
    // shards — the profile must carry nonzero shards.pruned and per-shard
    // db.shard spans.
    let rows: Vec<Vec<Cell>> = (0..60u16).map(|i| vec![v(i / 10 + 1)]).collect();
    let data = Dataset::from_rows(&[("a", 9)], &rows).unwrap();
    let db = ShardedDb::new(data, 10);
    assert_eq!(db.shard_count(), 6);
    let q = RangeQuery::new(vec![Predicate::point(0, 3)], MissingPolicy::IsNotMatch).unwrap();
    let prof = profile_sharded(&db, &q, 2).unwrap();
    assert_eq!(prof.method, "sharded-db");
    assert_eq!(prof.rows.rows(), (20..30).collect::<Vec<u32>>().as_slice());
    let pruned = prof.snapshot.counters.get("shards.pruned").copied();
    assert_eq!(pruned, Some(5), "5 of 6 shards lie outside the point");
    let shard_spans = prof
        .snapshot
        .spans
        .iter()
        .filter(|s| s.name == "db.shard")
        .count();
    assert_eq!(shard_spans, 1, "one db.shard span per executed shard");
    assert!(prof.snapshot.spans.iter().any(|s| s.name == "db.shards"));
}

#[test]
fn appends_and_deletes_stay_equivalent_through_compaction() {
    let data = census_scaled(120, 503);
    let mut mono = IncompleteDb::new(data.clone());
    let mut sharded = ShardedDb::new(data.clone(), 40);
    // Append a stripe of rows (some all-missing), delete a scatter of ids
    // across base, delta, and both shard interiors.
    for i in 0..30usize {
        let row: Vec<Cell> = (0..data.n_attrs())
            .map(|a| if i % 5 == 0 { m() } else { data.cell(i, a) })
            .collect();
        mono.insert(&row).unwrap();
        sharded.insert(&row).unwrap();
    }
    // Touch shard 0 (base), and the delta shard — shards 1 and 2 stay clean
    // so compaction has something to skip.
    for id in [0u32, 17, 39, 120, 125, 149] {
        assert_eq!(mono.delete(id), sharded.delete(id), "id {id}");
    }
    let spec = QuerySpec {
        n_queries: 6,
        k: 2,
        global_selectivity: 0.08,
        policy: MissingPolicy::IsMatch,
        candidate_attrs: vec![],
    };
    let queries = workload(&data, &spec, 504);
    for q in &queries {
        assert_eq!(
            sharded.execute(q).unwrap(),
            mono.execute(q).unwrap(),
            "pre-compact"
        );
    }
    assert!(mono.compact());
    let rebuilt = sharded.compact();
    assert!(
        rebuilt >= 1 && rebuilt < sharded.shard_count(),
        "dirty-only: {rebuilt}"
    );
    assert_eq!(sharded.compact(), 0, "second compact finds nothing dirty");
    assert_eq!(mono.n_rows(), sharded.n_rows());
    for q in &queries {
        assert_eq!(
            sharded.execute(q).unwrap(),
            mono.execute(q).unwrap(),
            "post-compact"
        );
    }
}

#[test]
fn aggressive_tombstones_never_underflow_row_accounting() {
    // The oracle generator never deletes; this battery tombstones far more
    // aggressively — every base row *and* every delta row, plus repeated
    // and out-of-range ids — and `n_rows` must stay total (the historical
    // `base + delta − deleted` underflow) while answers stay correct.
    for idx in [0, 1, 2, 8] {
        let case = gen_case(91, idx);
        if case.dataset.n_rows() == 0 || case.dataset.n_attrs() == 0 {
            continue;
        }
        let n = case.dataset.n_rows();
        let mut mono = IncompleteDb::new(case.dataset.clone());
        let mut sharded = ShardedDb::new(case.dataset.clone(), shard_capacity(n, 3));
        let missing_row: Vec<Cell> = vec![m(); case.dataset.n_attrs()];
        for _ in 0..3 {
            mono.insert(&missing_row).unwrap();
            sharded.insert(&missing_row).unwrap();
        }
        // Tombstone every id, twice, plus ids beyond the live range.
        for pass in 0..2 {
            for id in 0..(n as u32 + 8) {
                assert_eq!(
                    mono.delete(id),
                    sharded.delete(id),
                    "case {idx} pass {pass} id {id}"
                );
            }
        }
        assert_eq!(mono.n_rows(), 0, "case {idx}");
        assert_eq!(sharded.n_rows(), 0, "case {idx}");
        for raw in &case.queries {
            let Ok(q) = raw.to_query() else { continue };
            let Ok(rows) = mono.execute(&q) else { continue };
            assert!(rows.is_empty(), "case {idx}: everything is tombstoned");
            assert!(sharded.execute(&q).unwrap().is_empty(), "case {idx}");
        }
        mono.compact();
        sharded.compact();
        assert_eq!(mono.n_rows(), 0);
        assert_eq!(sharded.n_rows(), 0);
        // The emptied databases still accept appends and answer them.
        mono.insert(&missing_row).unwrap();
        sharded.insert(&missing_row).unwrap();
        assert_eq!(mono.n_rows(), 1);
        assert_eq!(sharded.n_rows(), 1);
    }
}

#[test]
fn shard_capacity_one_degenerates_to_row_per_shard_and_still_agrees() {
    let case = gen_case(13, 1);
    if case.dataset.n_rows() == 0 || case.dataset.n_attrs() == 0 {
        return;
    }
    let mono = IncompleteDb::new(case.dataset.clone());
    let sharded = ShardedDb::new(case.dataset.clone(), 1);
    assert_eq!(sharded.shard_count(), case.dataset.n_rows());
    for raw in &case.queries {
        let Ok(q) = raw.to_query() else { continue };
        let (Ok(want), Ok(got)) = (mono.execute(&q), sharded.execute(&q)) else {
            continue;
        };
        assert_eq!(got, want);
    }
}

#[test]
fn shard_ids_land_at_their_offsets_through_deltas_tombstones_and_an_empty_base() {
    // 80 base rows in shards of 30 leave a ragged third shard; ten inserts
    // fill its delta and two more open a fourth shard whose base is empty.
    // The deletes straddle the 0|1 boundary (base rows) and the 2|3
    // boundary (delta rows).
    let data = census_scaled(80, 505);
    let extra = census_scaled(12, 506);
    let mut mono = IncompleteDb::new(data.clone());
    let mut sharded = ShardedDb::new(data.clone(), 30);
    for i in 0..extra.n_rows() {
        let row: Vec<Cell> = (0..extra.n_attrs()).map(|a| extra.cell(i, a)).collect();
        mono.insert(&row).unwrap();
        sharded.insert(&row).unwrap();
    }
    for id in [5u32, 29, 30, 89, 90] {
        assert!(mono.delete(id) && sharded.delete(id), "id {id}");
    }
    assert_eq!(sharded.shard_count(), 4);
    let mut delta_hits = 0;
    for policy in MissingPolicy::ALL {
        for k in [1, 2, 3] {
            let spec = QuerySpec {
                n_queries: 6,
                k,
                global_selectivity: 0.2,
                policy,
                candidate_attrs: vec![],
            };
            for q in workload(&data, &spec, 507) {
                let want = mono.execute(&q).unwrap();
                let (rows, c1) = sharded.execute_with_cost_threads(&q, 1).unwrap();
                assert_eq!(rows, want, "{policy} k={k}");
                for threads in [2, 3] {
                    let (rows, c) = sharded.execute_with_cost_threads(&q, threads).unwrap();
                    assert_eq!(rows, want, "{policy} k={k} t={threads}");
                    assert_eq!(c, c1, "{policy} k={k} t={threads}");
                }
                assert_eq!(sharded.count(&q).unwrap(), want.len(), "{policy} k={k}");
                delta_hits += want.iter().filter(|&id| id >= 80).count();
            }
        }
    }
    assert!(delta_hits > 0, "some answer must reach the delta rows");
}
