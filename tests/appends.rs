//! Index-level appends: growing an index row by row must be
//! indistinguishable from rebuilding it over the extended dataset.

use ibis::core::gen::{census_scaled, workload, QuerySpec};
use ibis::core::scan;
use ibis::prelude::*;

/// Base dataset plus the rows to stream in afterwards.
fn split() -> (Dataset, Dataset, Dataset) {
    let full = census_scaled(600, 601);
    let base_rows = 400usize;
    (
        full.slice_rows(0..base_rows),
        full.slice_rows(base_rows..600),
        full,
    )
}

fn rows_of(d: &Dataset) -> Vec<Vec<Cell>> {
    (0..d.n_rows()).map(|r| d.row(r)).collect()
}

#[test]
fn appended_bee_equals_batch_built() {
    let (base, extra, full) = split();
    let mut idx = EqualityBitmapIndex::<Wah>::build(&base);
    for row in rows_of(&extra) {
        idx.append_row(&row).unwrap();
    }
    let batch = EqualityBitmapIndex::<Wah>::build(&full);
    assert_eq!(idx.n_rows(), batch.n_rows());
    // WAH encoding is deterministic: byte-identical indexes.
    assert_eq!(idx.size_bytes(), batch.size_bytes());
    for policy in MissingPolicy::ALL {
        let spec = QuerySpec {
            n_queries: 8,
            k: 3,
            global_selectivity: 0.05,
            policy,
            candidate_attrs: vec![],
        };
        for q in workload(&full, &spec, 602) {
            assert_eq!(
                idx.execute(&q).unwrap(),
                scan::execute(&full, &q),
                "{policy}"
            );
        }
    }
}

#[test]
fn appended_bre_equals_batch_built() {
    let (base, extra, full) = split();
    let mut idx = RangeBitmapIndex::<Wah>::build(&base);
    for row in rows_of(&extra) {
        idx.append_row(&row).unwrap();
    }
    let batch = RangeBitmapIndex::<Wah>::build(&full);
    assert_eq!(idx.size_bytes(), batch.size_bytes());
    for policy in MissingPolicy::ALL {
        let spec = QuerySpec {
            n_queries: 8,
            k: 3,
            global_selectivity: 0.05,
            policy,
            candidate_attrs: vec![],
        };
        for q in workload(&full, &spec, 603) {
            assert_eq!(
                idx.execute(&q).unwrap(),
                scan::execute(&full, &q),
                "{policy}"
            );
        }
    }
}

#[test]
fn appended_vafile_equals_batch_built() {
    let (base, extra, full) = split();
    let mut va = VaFile::build(&base);
    for row in rows_of(&extra) {
        va.append_row(&row).unwrap();
    }
    assert_eq!(va.n_rows(), full.n_rows());
    for policy in MissingPolicy::ALL {
        let spec = QuerySpec {
            n_queries: 8,
            k: 3,
            global_selectivity: 0.05,
            policy,
            candidate_attrs: vec![],
        };
        for q in workload(&full, &spec, 604) {
            assert_eq!(
                va.execute(&full, &q).unwrap(),
                scan::execute(&full, &q),
                "{policy}"
            );
        }
    }
}

#[test]
fn first_missing_value_materializes_b0() {
    // Start from a complete column; appending a missing cell must create
    // the B_0 machinery on the fly for both encodings.
    let base = Dataset::from_rows(
        &[("a", 4)],
        &[
            vec![Cell::present(1)],
            vec![Cell::present(4)],
            vec![Cell::present(2)],
        ],
    )
    .unwrap();
    let mut bee = EqualityBitmapIndex::<Wah>::build(&base);
    let mut bre = RangeBitmapIndex::<Wah>::build(&base);
    assert_eq!(bee.n_bitmaps(), 4);
    assert_eq!(bre.n_bitmaps(), 3);
    bee.append_row(&[Cell::MISSING]).unwrap();
    bre.append_row(&[Cell::MISSING]).unwrap();
    assert_eq!(bee.n_bitmaps(), 5, "B_0 materialized");
    assert_eq!(bre.n_bitmaps(), 4, "B_0 materialized");
    bee.append_row(&[Cell::present(3)]).unwrap();
    bre.append_row(&[Cell::present(3)]).unwrap();

    let full = Dataset::from_rows(
        &[("a", 4)],
        &[
            vec![Cell::present(1)],
            vec![Cell::present(4)],
            vec![Cell::present(2)],
            vec![Cell::MISSING],
            vec![Cell::present(3)],
        ],
    )
    .unwrap();
    for policy in MissingPolicy::ALL {
        for lo in 1..=4u16 {
            for hi in lo..=4u16 {
                let q = RangeQuery::new(vec![Predicate::range(0, lo, hi)], policy).unwrap();
                let truth = scan::execute(&full, &q);
                assert_eq!(bee.execute(&q).unwrap(), truth, "BEE {policy} [{lo},{hi}]");
                assert_eq!(bre.execute(&q).unwrap(), truth, "BRE {policy} [{lo},{hi}]");
            }
        }
    }
}

#[test]
fn append_validation_leaves_index_unchanged() {
    let (base, _, _) = split();
    let mut idx = EqualityBitmapIndex::<Wah>::build(&base);
    let before = idx.size_bytes();
    assert!(idx.append_row(&[Cell::present(1)]).is_err(), "wrong width");
    let mut row = vec![Cell::MISSING; base.n_attrs()];
    row[0] = Cell::present(base.column(0).cardinality() + 1);
    assert!(idx.append_row(&row).is_err(), "out of domain");
    assert_eq!(idx.size_bytes(), before);
    assert_eq!(idx.n_rows(), base.n_rows());
}

#[test]
fn bbc_backend_appends_via_default_path() {
    // The BBC store uses the trait's decode/re-encode default; results must
    // still match exactly.
    let (base, extra, full) = split();
    let small_extra: Vec<Vec<Cell>> = rows_of(&extra).into_iter().take(20).collect();
    let mut idx = EqualityBitmapIndex::<Bbc>::build(&base);
    for row in &small_extra {
        idx.append_row(row).unwrap();
    }
    let q = RangeQuery::new(
        vec![Predicate::range(0, 1, base.column(0).cardinality())],
        MissingPolicy::IsNotMatch,
    )
    .unwrap();
    let trimmed = Dataset::new(
        full.columns()
            .iter()
            .map(|c| {
                Column::from_raw(
                    c.name(),
                    c.cardinality(),
                    c.raw()[..base.n_rows() + 20].to_vec(),
                )
                .unwrap()
            })
            .collect(),
    )
    .unwrap();
    assert_eq!(idx.execute(&q).unwrap(), scan::execute(&trimmed, &q));
}
