//! The encoding × backend product: every [`Encoding`] of `ibis-bitmap` over
//! every [`BitStore`] of `ibis-bitvec` — including pairs nothing else
//! instantiates, such as the interval encoding over adaptive containers or
//! the decomposed one over BBC — must answer exactly like the scan under
//! both semantics, identically at every thread degree, and survive its own
//! file format while refusing everyone else's.

use ibis::bitmap::{for_each_pair, read_any, BitmapIndex, Encoding, PairVisitor};
use ibis::bitvec::BitStore;
use ibis::core::{scan, Error};
use ibis::prelude::*;

fn cells(raw: &[u16]) -> Vec<Cell> {
    let cell = |&r: &u16| {
        if r == 0 {
            Cell::MISSING
        } else {
            Cell::present(r)
        }
    };
    raw.iter().map(cell).collect()
}

/// The paper's Table 1 column, a complete column, a wider column and a
/// two-valued one with missing rows (0 is missing).
fn mixed() -> Dataset {
    let rows: Vec<Vec<Cell>> = [
        [5, 1, 8, 2],
        [2, 4, 0, 0],
        [3, 2, 3, 1],
        [0, 3, 7, 1],
        [4, 1, 1, 0],
        [5, 4, 0, 2],
        [1, 2, 5, 2],
        [3, 3, 2, 1],
        [0, 1, 6, 0],
        [2, 4, 4, 1],
    ]
    .iter()
    .map(|r| cells(r))
    .collect();
    Dataset::from_rows(&[("a", 5), ("b", 4), ("c", 8), ("d", 2)], &rows).unwrap()
}

/// Every interval of every attribute and the empty search key, under both
/// policies.
fn queries(d: &Dataset) -> Vec<RangeQuery> {
    let mut qs = Vec::new();
    for policy in MissingPolicy::ALL {
        for (attr, col) in d.columns().iter().enumerate() {
            for lo in 1..=col.cardinality() {
                for hi in lo..=col.cardinality() {
                    qs.push(RangeQuery::new(vec![Predicate::range(attr, lo, hi)], policy).unwrap());
                }
            }
        }
        qs.push(RangeQuery::new(vec![], policy).unwrap());
    }
    qs
}

/// Asserts that no pair other than (`E`, `B`) accepts `bytes`.
struct RefusedByOthers<'a> {
    bytes: &'a [u8],
    magic: &'static [u8; 4],
    backend: &'static str,
}

impl PairVisitor for RefusedByOthers<'_> {
    fn visit<E: Encoding, B: BitStore + 'static>(&mut self) {
        if (E::MAGIC, B::backend_name()) != (self.magic, self.backend) {
            assert!(
                BitmapIndex::<E, B>::read_from(&mut &*self.bytes).is_err(),
                "{} over {} loaded a {:?}/{} file",
                E::name::<B>(),
                B::backend_name(),
                self.magic,
                self.backend
            );
        }
    }
}

fn check_pair<E: Encoding, B: BitStore + 'static>() {
    let what = format!("{} over {}", E::name::<B>(), B::backend_name());
    let d = mixed();
    let ix = BitmapIndex::<E, B>::build(&d);
    let mut qs = queries(&d);
    for policy in MissingPolicy::ALL {
        let key = vec![
            Predicate::range(0, 2, 5),
            Predicate::range(2, 1, 6),
            Predicate::point(3, 2),
        ];
        qs.push(RangeQuery::new(key, policy).unwrap());
    }

    // Scan truth, the count path, and rows + counters at degrees 1/2/8.
    let mut answers = Vec::new();
    for q in &qs {
        if !ix.supports(q) {
            let refused = Err(Error::UnsupportedPolicy { method: ix.name() });
            assert_eq!(ix.execute(q), refused, "{what} {q:?}");
            assert!(ix.execute_count(q).is_err(), "{what} {q:?}");
            continue;
        }
        let (rows, cost) = ix.execute_with_cost(q).unwrap();
        assert_eq!(rows, scan::execute(&d, q), "{what} {q:?}");
        assert_eq!(ix.execute_count(q).unwrap(), rows.len(), "{what} {q:?}");
        for threads in [2, 8] {
            let par = ix.execute_with_cost_threads(q, threads).unwrap();
            assert_eq!(par, (rows.clone(), cost), "{what} t={threads} {q:?}");
        }
        answers.push((q, rows, cost));
    }
    assert!(answers.len() >= qs.len() / 2, "{what} answered too little");

    // Out-of-schema attributes and out-of-domain values are errors.
    for bad in [Predicate::point(4, 1), Predicate::point(0, 6)] {
        for policy in MissingPolicy::ALL {
            let q = RangeQuery::new(vec![bad], policy).unwrap();
            assert!(ix.execute(&q).is_err(), "{what} {q:?}");
        }
    }

    // write_to → read_from gives back the same index, typed or sniffed.
    let mut bytes = Vec::new();
    ix.write_to(&mut bytes).unwrap();
    let back = BitmapIndex::<E, B>::read_from(&mut bytes.as_slice()).unwrap();
    assert_eq!(back.n_rows(), ix.n_rows(), "{what}");
    assert_eq!(back.size_report(), ix.size_report(), "{what}");
    let mut again = Vec::new();
    back.write_to(&mut again).unwrap();
    assert_eq!(again, bytes, "{what} re-serializes differently");
    let (n_rows, sniffed) = read_any(&mut bytes.as_slice()).unwrap();
    assert_eq!((n_rows, sniffed.name()), (d.n_rows(), ix.name()), "{what}");
    for (q, rows, cost) in &answers {
        let want = (rows.clone(), *cost);
        assert_eq!(back.execute_with_cost(q).unwrap(), want, "{what} {q:?}");
        assert_eq!(sniffed.execute_with_cost(q).unwrap(), want, "{what} {q:?}");
    }

    // Nobody else's loader takes the file; damaged files are refused.
    for_each_pair(&mut RefusedByOthers {
        bytes: &bytes,
        magic: E::MAGIC,
        backend: B::backend_name(),
    });
    for cut in [0, 3, 5, 13, bytes.len() / 2, bytes.len() - 1] {
        let cut = &bytes[..cut];
        assert!(
            BitmapIndex::<E, B>::read_from(&mut &*cut).is_err(),
            "{what}"
        );
        assert!(read_any(&mut &*cut).is_err(), "{what}");
    }
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert!(BitmapIndex::<E, B>::read_from(&mut bad.as_slice()).is_err());
    assert!(read_any(&mut bad.as_slice()).is_err(), "{what}");

    // A cardinality-1 attribute with missing rows: the all-ones in-band
    // encoding cannot tell its one value from missing and must say so;
    // everyone else indexes it.
    let flag = Dataset::from_rows(&[("flag", 1)], &[cells(&[1]), cells(&[0]), cells(&[1])]);
    let flag = flag.unwrap();
    match BitmapIndex::<E, B>::try_build(&flag) {
        Err(e) => {
            assert_eq!(E::MAGIC, b"IBIM", "{what} refused: {e}");
            assert!(matches!(e, Error::UnrepresentableColumn { attr: 0, .. }));
        }
        Ok(ix) => {
            assert_ne!(E::MAGIC, b"IBIM", "{what} accepted an ambiguous column");
            for q in queries(&flag).iter().filter(|q| ix.supports(q)) {
                assert_eq!(ix.execute(q).unwrap(), scan::execute(&flag, q), "{what}");
            }
        }
    }
}

#[test]
fn every_encoding_over_every_backend_conforms() {
    struct Conformance(usize);
    impl PairVisitor for Conformance {
        fn visit<E: Encoding, B: BitStore + 'static>(&mut self) {
            check_pair::<E, B>();
            self.0 += 1;
        }
    }
    let mut pairs = Conformance(0);
    for_each_pair(&mut pairs);
    assert_eq!(pairs.0, 6 * 4, "six encodings over four backends");
}

/// 2^16 + 77 rows — two adaptive chunks, a ragged last 64-bit word and a
/// ragged last 31-bit group — textured so that every container shape and
/// both WAH word kinds occur: long value runs, scattered values with
/// scattered missing rows, and a near-alternating two-valued column.
fn chunk_crossing() -> Dataset {
    let n = (1usize << 16) + 77;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let runs: Vec<u16> = (0..n).map(|r| ((r / 5_000) % 6) as u16).collect();
    let scattered: Vec<u16> = (0..n)
        .map(|_| (next() % 12).saturating_sub(2) as u16)
        .collect();
    let flips: Vec<u16> = (0..n)
        .map(|r| if r % 7 == 0 { 0 } else { (r % 2 + 1) as u16 })
        .collect();
    Dataset::new(vec![
        Column::from_raw("runs", 5, runs).unwrap(),
        Column::from_raw("scattered", 9, scattered).unwrap(),
        Column::from_raw("flips", 2, flips).unwrap(),
    ])
    .unwrap()
}

#[test]
fn counts_rows_and_counters_agree_past_a_chunk_boundary() {
    // The count path (last AND fused with the popcount, no row ids) against
    // the row path against scan truth, and rows + counters at every degree,
    // on vectors long enough to have fills, splices across word boundaries,
    // several containers and a masked tail.
    struct Agreement<'a>(&'a Dataset, &'a [(RangeQuery, RowSet)], usize);
    impl PairVisitor for Agreement<'_> {
        fn visit<E: Encoding, B: BitStore + 'static>(&mut self) {
            let what = format!("{} over {}", E::name::<B>(), B::backend_name());
            let ix = BitmapIndex::<E, B>::build(self.0);
            for (q, truth) in self.1.iter().filter(|(q, _)| ix.supports(q)) {
                let (rows, cost) = ix.execute_with_cost(q).unwrap();
                assert_eq!(&rows, truth, "{what} {q:?}");
                assert_eq!(ix.execute_count(q).unwrap(), truth.len(), "{what} {q:?}");
                for threads in [2, 3, 8] {
                    let par = ix.execute_with_cost_threads(q, threads).unwrap();
                    assert_eq!(par, (rows.clone(), cost), "{what} t={threads} {q:?}");
                }
            }
            self.2 += 1;
        }
    }
    let d = chunk_crossing();
    let mut qs = Vec::new();
    for policy in MissingPolicy::ALL {
        // Each encoding's in-range, complement, edge and full-domain cases,
        // then the AND-reduce over one, two and three predicates.
        for (attr, lo, hi) in [
            (0, 2, 2),
            (0, 1, 4),
            (0, 1, 5),
            (1, 3, 7),
            (1, 9, 9),
            (2, 1, 1),
        ] {
            qs.push(RangeQuery::new(vec![Predicate::range(attr, lo, hi)], policy).unwrap());
        }
        let key = vec![Predicate::range(0, 2, 5), Predicate::range(1, 1, 6)];
        qs.push(RangeQuery::new(key.clone(), policy).unwrap());
        let key = [key, vec![Predicate::point(2, 2)]].concat();
        qs.push(RangeQuery::new(key, policy).unwrap());
    }
    let truths: Vec<(RangeQuery, RowSet)> = qs
        .into_iter()
        .map(|q| {
            let truth = scan::execute(&d, &q);
            (q, truth)
        })
        .collect();
    let mut pairs = Agreement(&d, &truths, 0);
    for_each_pair(&mut pairs);
    assert_eq!(pairs.2, 6 * 4);
}
