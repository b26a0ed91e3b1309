//! **Fig. 1** — the motivating experiment: normalized R-tree query
//! execution time versus percent missing data (2-D data, 25% global query
//! selectivity, missing-is-match semantics).
//!
//! The paper reports a 23× slowdown at just 10% missing data per attribute.
//! The slowdown has two compounding causes this harness surfaces in
//! separate columns: the `2^k` subquery expansion and the sentinel-induced
//! structure degradation (overlap), which inflates nodes visited per
//! subquery.

use crate::config::Scale;
use crate::experiments::harness::uniform_group;
use crate::report::{fmt_ms, fmt_ratio, Table};
use crate::time_ms;
use ibis_baseline::RTreeIncomplete;
use ibis_core::gen::{workload, QuerySpec};
use ibis_core::MissingPolicy;

/// Runs the sweep over missing ∈ {0, 10, …, 50}%.
pub fn run(scale: &Scale) -> Vec<Table> {
    let mut table = Table::new(
        "fig1",
        "normalized R-tree query time vs % missing (2-D, 25% selectivity, missing-is-match)",
        &[
            "pct_missing",
            "total_ms",
            "normalized",
            "nodes_visited",
            "entries",
            "subqueries",
            "overlap",
        ],
    );
    // The paper runs the *same* queries (25% global selectivity, i.e. 50%
    // per attribute in 2-D) against datasets that differ only in their
    // missing rate, so generate the workload once against the complete
    // dataset and reuse it at every missing level.
    let complete = uniform_group(scale.rtree_rows, 2, 100, 0.0, scale.seed);
    let spec = QuerySpec {
        n_queries: scale.queries,
        k: 2,
        global_selectivity: 0.25,
        policy: MissingPolicy::IsMatch,
        candidate_attrs: vec![],
    };
    let queries = workload(&complete, &spec, scale.seed + 100);

    let mut baseline_ms = None;
    for pct in [0u8, 10, 20, 30, 40, 50] {
        let d = if pct == 0 {
            complete.clone()
        } else {
            uniform_group(
                scale.rtree_rows,
                2,
                100,
                pct as f64 / 100.0,
                scale.seed + pct as u64,
            )
        };
        let idx = RTreeIncomplete::build(&d);
        let mut stats = ibis_core::WorkCounters::default();
        let (_, ms) = time_ms(|| {
            for q in &queries {
                let (_, s) = idx.execute_with_cost(q).expect("valid workload");
                stats += s;
            }
        });
        let norm = match baseline_ms {
            None => {
                baseline_ms = Some(ms);
                1.0
            }
            Some(base) => ms / base,
        };
        table.push(vec![
            pct.to_string(),
            fmt_ms(ms),
            fmt_ratio(norm),
            stats.nodes_visited.to_string(),
            stats.entries_scanned.to_string(),
            stats.subqueries.to_string(),
            fmt_ratio(idx.tree().overlap_factor()),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degradation_shape() {
        let scale = Scale {
            rtree_rows: 2_000,
            queries: 15,
            ..Scale::smoke()
        };
        let t = &run(&scale)[0];
        assert_eq!(t.rows.len(), 6);
        // Normalized time at 0% is 1 by construction.
        assert_eq!(t.rows[0][2], "1.000");
        // Work (not wall-clock, which is noisy at smoke scale) must grow
        // with missing data: the 2^k subqueries multiply node visits.
        // (Entries scanned can locally shrink because fixed GS narrows the
        // per-attribute intervals as missing grows — the added cost is in
        // traversal, which is what the paper's Fig. 1 time curve shows.)
        let nodes: Vec<usize> = t.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        assert!(
            nodes[3] > nodes[0],
            "nodes at 30% missing ({}) should exceed 0% ({})",
            nodes[3],
            nodes[0]
        );
        let subqueries: Vec<usize> = t.rows.iter().map(|r| r[5].parse().unwrap()).collect();
        assert_eq!(subqueries[0], 15); // complete data: 1 per query
        assert_eq!(subqueries[1], 60); // 2^2 per query
    }
}
