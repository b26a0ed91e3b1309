//! End-to-end persistence: every index round-trips through its on-disk
//! format and answers queries identically afterwards. The paper's index-size
//! metric is "the size of the requisite index files on disk" — these tests
//! also pin the file sizes to the in-memory accounting. Which loader
//! refuses which file (another encoding's, another backend's, a truncated
//! one) is checked for every encoding × backend pair in
//! `tests/encoding_product.rs`.

use ibis::core::gen::{census_scaled, workload, QuerySpec};
use ibis::core::scan;
use ibis::prelude::*;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ibis_persist_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn queries(d: &Dataset) -> Vec<RangeQuery> {
    let mut qs = Vec::new();
    for policy in MissingPolicy::ALL {
        let spec = QuerySpec {
            n_queries: 5,
            k: 3,
            global_selectivity: 0.05,
            policy,
            candidate_attrs: vec![],
        };
        qs.extend(workload(d, &spec, 301));
    }
    qs
}

#[test]
fn bitmap_indexes_roundtrip_through_disk() {
    let d = census_scaled(500, 300);
    let dir = tmp_dir("bitmap");
    let qs = queries(&d);

    let bee = EqualityBitmapIndex::<Wah>::build(&d);
    bee.save(dir.join("bee.idx")).unwrap();
    let bee2 = EqualityBitmapIndex::<Wah>::load(dir.join("bee.idx")).unwrap();
    assert_eq!(bee2.n_rows(), d.n_rows());
    assert_eq!(bee2.size_bytes(), bee.size_bytes());

    let bre = RangeBitmapIndex::<Wah>::build(&d);
    bre.save(dir.join("bre.idx")).unwrap();
    let bre2 = RangeBitmapIndex::<Wah>::load(dir.join("bre.idx")).unwrap();

    let bie = IntervalBitmapIndex::<Bbc>::build(&d);
    bie.save(dir.join("bie.idx")).unwrap();
    let bie2 = IntervalBitmapIndex::<Bbc>::load(dir.join("bie.idx")).unwrap();

    for q in &qs {
        let truth = scan::execute(&d, q);
        assert_eq!(bee2.execute(q).unwrap(), truth);
        assert_eq!(bre2.execute(q).unwrap(), truth);
        assert_eq!(bie2.execute(q).unwrap(), truth);
    }

    // File size ≈ bitmap bytes + bounded metadata (16 B header per bitmap,
    // a few words per attribute, one file header).
    let file_len = std::fs::metadata(dir.join("bee.idx")).unwrap().len() as usize;
    assert!(file_len >= bee.size_bytes());
    let metadata_bound = 16 * bee.n_bitmaps() + 32 * d.n_attrs() + 1024;
    assert!(
        file_len <= bee.size_bytes() + metadata_bound,
        "file {file_len} vs bitmaps {} + bound {metadata_bound}",
        bee.size_bytes()
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn vafiles_roundtrip_through_disk() {
    let d = census_scaled(400, 302);
    let dir = tmp_dir("vafile");
    let qs = queries(&d);

    let va = VaFile::build(&d);
    va.save(dir.join("va.idx")).unwrap();
    let va2 = VaFile::load(dir.join("va.idx")).unwrap();
    assert_eq!(va2.row_bits(), va.row_bits());

    let lossy = VaFile::with_bits(&d, &vec![2u8; d.n_attrs()]);
    lossy.save(dir.join("lossy.idx")).unwrap();
    let lossy2 = VaFile::load(dir.join("lossy.idx")).unwrap();

    let vap = VaPlusFile::build(&d);
    vap.save(dir.join("vap.idx")).unwrap();
    let vap2 = VaPlusFile::load(dir.join("vap.idx")).unwrap();

    for q in &qs {
        let truth = scan::execute(&d, q);
        assert_eq!(va2.execute(&d, q).unwrap(), truth);
        assert_eq!(lossy2.execute(&d, q).unwrap(), truth);
        assert_eq!(vap2.execute(&d, q).unwrap(), truth);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dataset_and_index_pipeline() {
    // Save dataset + index, reload both, query — the full cold-start path.
    let d = census_scaled(300, 304);
    let dir = tmp_dir("pipeline");
    d.save(dir.join("data.ibds")).unwrap();
    RangeBitmapIndex::<Wah>::build(&d)
        .save(dir.join("bre.idx"))
        .unwrap();

    let d2 = Dataset::load(dir.join("data.ibds")).unwrap();
    let bre = RangeBitmapIndex::<Wah>::load(dir.join("bre.idx")).unwrap();
    assert_eq!(d2, d);
    for q in queries(&d2) {
        assert_eq!(bre.execute(&q).unwrap(), scan::execute(&d2, &q));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn decomposed_index_roundtrips_through_disk() {
    let d = census_scaled(400, 310);
    let dir = tmp_dir("decomposed");
    let qs = queries(&d);
    for base in [2u16, 7] {
        let idx = DecomposedBitmapIndex::<Wah>::with_base(&d, base);
        let path = dir.join(format!("dec{base}.idx"));
        idx.save(&path).unwrap();
        let back = DecomposedBitmapIndex::<Wah>::load(&path).unwrap();
        assert_eq!(back.n_rows(), idx.n_rows());
        assert_eq!(back.size_bytes(), idx.size_bytes());
        for q in &qs {
            assert_eq!(
                back.execute(q).unwrap(),
                scan::execute(&d, q),
                "base {base}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
