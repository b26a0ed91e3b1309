//! Planner guard: `Plan.chosen` over a seeded dataset and a fixed list of
//! 2,000 queries.
//!
//! A database stores every bitmap family over adaptive containers, and each
//! bitmap estimate prices the containers of the exact bitmaps its plan
//! reads: a deterministic function of the data. The default
//! configuration's choices are pinned exactly (as a digest), the
//! `{adaptive, va}` ones query by query with a 1% tolerance (its equality
//! index is listed as `bitmap-adaptive`). Both were re-recorded once, when
//! the database's bitmaps moved from WAH to chunk-sized adaptive
//! containers. The digest was re-recorded once more when estimates moved
//! from stored words to container prices: an array entry costs ~6× a
//! bitmap word to read, so range encoding, whose thresholds are mostly
//! bitmap containers, now takes 1,151 of the 2,000 plans, where equality
//! encoding took 1,506 before. One `{adaptive, va}` plan moved, so its
//! golden stands. The digest was re-recorded a third time when the default
//! became {BEE, BIE}: interval encoding, priced by the windows it reads,
//! takes 1,292 of the 2,000 plans and equality encoding the other 708.

use ibis::prelude::*;
use ibis_core::gen::{census_scaled, workload, QuerySpec};

/// 2 policies × k ∈ 1..=5 × 2 selectivities × 100 queries.
fn queries(d: &Dataset) -> Vec<RangeQuery> {
    let mut out = Vec::with_capacity(2_000);
    let mut seed = 7_000;
    for policy in MissingPolicy::ALL {
        for k in 1..=5 {
            for global_selectivity in [0.01, 0.2] {
                let spec = QuerySpec {
                    n_queries: 100,
                    k,
                    global_selectivity,
                    policy,
                    candidate_attrs: Vec::new(),
                };
                out.extend(workload(d, &spec, seed));
                seed += 1;
            }
        }
    }
    out
}

/// The chosen method of every query, one letter each.
fn choices(config: DbConfig) -> String {
    let d = census_scaled(6_000, 13);
    let qs = queries(&d);
    let db = IncompleteDb::with_config(d, config);
    qs.iter()
        .map(|q| match db.explain(q).unwrap().chosen {
            "bitmap-equality" => 'e',
            "bitmap-range" => 'r',
            "bitmap-interval" => 'i',
            "bitmap-adaptive" => 'a',
            "va-file" => 'v',
            "sequential-scan" => 's',
            other => panic!("unexpected plan {other}"),
        })
        .collect()
}

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn default_config_plan_digest_is_unchanged() {
    let chosen = choices(DbConfig::default());
    assert_eq!(chosen.len(), 2_000);
    // More than one method must win, or the digest guards nothing.
    assert!(chosen.contains('e') && chosen.contains('i'), "{chosen}");
    assert_eq!(
        fnv1a(&chosen),
        0xbe10_e668_fefc_4eb5,
        "default-config plan choices moved"
    );
}

#[test]
fn adaptive_va_plan_moves_on_at_most_one_percent_of_queries() {
    let golden = include_str!("golden/plan_adaptive_va.txt").trim_end();
    let chosen = choices(DbConfig {
        adaptive: true,
        va: true,
        ..DbConfig::none()
    });
    assert_eq!(chosen.len(), golden.len());
    assert!(golden.contains('a') && golden.contains('v'));
    let moved = chosen
        .chars()
        .zip(golden.chars())
        .filter(|(a, b)| a != b)
        .count();
    assert!(
        moved * 100 <= golden.len(),
        "{moved} of {} plans moved",
        golden.len()
    );
}
