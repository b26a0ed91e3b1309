//! Property-based differential testing: arbitrary incomplete relations and
//! arbitrary range queries, every index vs the scan, both semantics.

use ibis::core::scan;
use ibis::prelude::*;
use proptest::prelude::*;

/// An arbitrary incomplete relation: 1–5 attributes of cardinality 1–12,
/// 1–60 rows, independent per-cell missingness.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (1usize..=5, 1usize..=60).prop_flat_map(|(n_attrs, n_rows)| {
        proptest::collection::vec(1u16..=12, n_attrs).prop_flat_map(move |cards| {
            let cells = cards
                .iter()
                .map(|&c| proptest::collection::vec(0u16..=c, n_rows))
                .collect::<Vec<_>>();
            cells.prop_map(move |cols| {
                Dataset::new(
                    cols.into_iter()
                        .enumerate()
                        .map(|(i, raw)| {
                            Column::from_raw(format!("a{i}"), cards[i], raw).expect("in domain")
                        })
                        .collect(),
                )
                .expect("equal lengths")
            })
        })
    })
}

/// A query valid for `d`: a subset of attributes, each with an in-domain
/// interval.
fn arb_query(d: &Dataset) -> impl Strategy<Value = RangeQuery> {
    let n_attrs = d.n_attrs();
    let cards: Vec<u16> = d.columns().iter().map(|c| c.cardinality()).collect();
    (
        proptest::sample::subsequence((0..n_attrs).collect::<Vec<_>>(), 1..=n_attrs),
        proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), n_attrs),
        any::<bool>(),
    )
        .prop_map(move |(attrs, bounds, is_match)| {
            let preds = attrs
                .into_iter()
                .map(|a| {
                    let c = cards[a];
                    let (x, y) = bounds[a];
                    let lo = 1 + (x * c as f64) as u16;
                    let lo = lo.min(c);
                    let hi = lo + (y * (c - lo + 1) as f64) as u16;
                    Predicate::range(a, lo, hi.min(c))
                })
                .collect();
            let policy = if is_match {
                MissingPolicy::IsMatch
            } else {
                MissingPolicy::IsNotMatch
            };
            RangeQuery::new(preds, policy).expect("valid by construction")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitmap_indexes_match_scan(
        (d, q) in arb_dataset().prop_flat_map(|d| {
            let q = arb_query(&d);
            (Just(d), q)
        })
    ) {
        let truth = scan::execute(&d, &q);
        prop_assert_eq!(&EqualityBitmapIndex::<Wah>::build(&d).execute(&q).unwrap(), &truth);
        prop_assert_eq!(&RangeBitmapIndex::<Wah>::build(&d).execute(&q).unwrap(), &truth);
        prop_assert_eq!(&IntervalBitmapIndex::<Wah>::build(&d).execute(&q).unwrap(), &truth);
        prop_assert_eq!(&DecomposedBitmapIndex::<Wah>::build(&d).execute(&q).unwrap(), &truth);
        prop_assert_eq!(&DecomposedBitmapIndex::<Wah>::with_base(&d, 2).execute(&q).unwrap(), &truth);
        prop_assert_eq!(&EqualityBitmapIndex::<Bbc>::build(&d).execute(&q).unwrap(), &truth);
    }

    #[test]
    fn vafiles_match_scan(
        (d, q) in arb_dataset().prop_flat_map(|d| {
            let q = arb_query(&d);
            (Just(d), q)
        })
    ) {
        let truth = scan::execute(&d, &q);
        prop_assert_eq!(&VaFile::build(&d).execute(&d, &q).unwrap(), &truth);
        prop_assert_eq!(&VaPlusFile::build(&d).execute(&d, &q).unwrap(), &truth);
        // Aggressively lossy codes still yield exact answers.
        let bits = vec![1u8; d.n_attrs()];
        prop_assert_eq!(&VaFile::with_bits(&d, &bits).execute(&d, &q).unwrap(), &truth);
    }

    #[test]
    fn baselines_match_scan(
        (d, q) in arb_dataset().prop_flat_map(|d| {
            let q = arb_query(&d);
            (Just(d), q)
        })
    ) {
        let truth = scan::execute(&d, &q);
        prop_assert_eq!(&Mosaic::build(&d).execute(&q).unwrap(), &truth);
        prop_assert_eq!(&RTreeIncomplete::build(&d).execute(&q).unwrap(), &truth);
        prop_assert_eq!(&BitstringAugmented::build(&d).execute(&q).unwrap(), &truth);
    }

    #[test]
    fn policies_nest(
        (d, q) in arb_dataset().prop_flat_map(|d| {
            let q = arb_query(&d);
            (Just(d), q)
        })
    ) {
        // Not-match answers are always a subset of match answers for the
        // same search key.
        let strict = scan::execute(&d, &q.with_policy(MissingPolicy::IsNotMatch));
        let loose = scan::execute(&d, &q.with_policy(MissingPolicy::IsMatch));
        prop_assert_eq!(strict.intersect(&loose), strict);
    }

    #[test]
    fn conjunction_monotone(
        (d, q) in arb_dataset().prop_flat_map(|d| {
            let q = arb_query(&d);
            (Just(d), q)
        })
    ) {
        // Dropping a conjunct can only grow the result set.
        prop_assume!(q.dimensionality() >= 2);
        let full = scan::execute(&d, &q);
        let fewer = RangeQuery::new(
            q.predicates()[..q.dimensionality() - 1].to_vec(),
            q.policy(),
        ).unwrap();
        let wider = scan::execute(&d, &fewer);
        prop_assert_eq!(full.intersect(&wider).len(), full.len());
    }
}

/// Row counts either side of the scan kernel's 64-row word and of a
/// 1,024-row span.
const KERNEL_LENGTHS: [usize; 8] = [0, 1, 63, 64, 65, 1_023, 1_024, 1_025];

/// SplitMix64: the case's cells and intervals from one drawn seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A `len`-row relation of three columns — one with random missing cells,
/// one all missing, one with none — and queries over it under both
/// policies: the empty key, `lo = 1`, `hi = cardinality`, the whole domain
/// and random intervals, on one attribute and on all three.
fn kernel_case(len: usize, seed: u64) -> (Dataset, Vec<RangeQuery>) {
    let mut s = seed;
    let mut draw = |n: u64| (splitmix(&mut s) % n) as u16;
    let cards: Vec<u16> = (0..3).map(|_| 1 + draw(12)).collect();
    let columns = cards
        .iter()
        .enumerate()
        .map(|(a, &c)| {
            let raw = (0..len)
                .map(|_| match a {
                    0 => draw(u64::from(c) + 1),
                    1 => 0,
                    _ => 1 + draw(u64::from(c)),
                })
                .collect();
            Column::from_raw(format!("a{a}"), c, raw).expect("in domain")
        })
        .collect();
    let d = Dataset::new(columns).expect("equal lengths");
    let mut intervals = |c: u16| {
        let lo = 1 + draw(u64::from(c));
        let hi = lo + draw(u64::from(c - lo) + 1);
        [(1, 1 + draw(u64::from(c))), (lo, c), (1, c), (lo, hi)]
    };
    let mut keys: Vec<Vec<Predicate>> = vec![vec![]];
    for (a, &c) in cards.iter().enumerate() {
        keys.extend(intervals(c).map(|(lo, hi)| vec![Predicate::range(a, lo, hi)]));
    }
    let per_attr: Vec<[(u16, u16); 4]> = cards.iter().map(|&c| intervals(c)).collect();
    keys.extend((0..4).map(|i| {
        (0..3)
            .map(|a| Predicate::range(a, per_attr[a][i].0, per_attr[a][i].1))
            .collect()
    }));
    let queries = keys
        .into_iter()
        .flat_map(|key| {
            MissingPolicy::ALL.map(|policy| RangeQuery::new(key.clone(), policy).unwrap())
        })
        .collect();
    (d, queries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The word-mask scan kernel against the row-at-a-time reference, over
    /// whole relations and over row ranges that start off a word boundary.
    #[test]
    fn scan_kernel_matches_rowwise(which in 0usize..KERNEL_LENGTHS.len(), seed in any::<u64>()) {
        let len = KERNEL_LENGTHS[which];
        let (d, queries) = kernel_case(len, seed);
        let mut s = seed ^ 0xA5A5;
        for q in &queries {
            let truth = scan::execute_rowwise(&d, q);
            prop_assert_eq!(&scan::execute(&d, q), &truth);
            prop_assert_eq!(scan::mask(&d, q, 0..len).count_ones(), truth.len());
            let start = (splitmix(&mut s) % (len as u64 + 1)) as usize;
            let end = start + (splitmix(&mut s) % ((len - start) as u64 + 1)) as usize;
            let inside: Vec<u32> = truth
                .iter()
                .filter(|&r| (start..end).contains(&(r as usize)))
                .collect();
            let range = scan::execute_range(&d, q, start..end);
            prop_assert_eq!(range.rows(), &inside[..]);
        }
    }
}
