//! The paper's worked examples (Tables 1–6) verified end to end, plus the
//! operation-count claims of §4.2/§4.3 on the same data.

use ibis::bitmap::rejected::{InBandMatchEquality, InBandNotMatchEquality};
use ibis::core::scan;
use ibis::prelude::*;

fn m() -> Cell {
    Cell::MISSING
}
fn v(x: u16) -> Cell {
    Cell::present(x)
}

/// Tables 1–4: one attribute, cardinality 5, rows
/// `5, 2, 3, ∅, 4, 5, 1, 3, ∅, 2`.
fn paper_dataset() -> Dataset {
    Dataset::from_rows(
        &[("a1", 5)],
        &[
            vec![v(5)],
            vec![v(2)],
            vec![v(3)],
            vec![m()],
            vec![v(4)],
            vec![v(5)],
            vec![v(1)],
            vec![v(3)],
            vec![m()],
            vec![v(2)],
        ],
    )
    .unwrap()
}

#[test]
fn all_indexes_answer_every_interval_on_the_paper_example() {
    let d = paper_dataset();
    let bee = EqualityBitmapIndex::<Wah>::build(&d);
    let bre = RangeBitmapIndex::<Wah>::build(&d);
    let va = VaFile::build(&d);
    let mosaic = Mosaic::build(&d);
    for policy in MissingPolicy::ALL {
        for lo in 1..=5u16 {
            for hi in lo..=5u16 {
                let q = RangeQuery::new(vec![Predicate::range(0, lo, hi)], policy).unwrap();
                let truth = scan::execute(&d, &q);
                assert_eq!(bee.execute(&q).unwrap(), truth, "BEE {policy} [{lo},{hi}]");
                assert_eq!(bre.execute(&q).unwrap(), truth, "BRE {policy} [{lo},{hi}]");
                assert_eq!(
                    va.execute(&d, &q).unwrap(),
                    truth,
                    "VA {policy} [{lo},{hi}]"
                );
                assert_eq!(
                    mosaic.execute(&q).unwrap(),
                    truth,
                    "MOSAIC {policy} [{lo},{hi}]"
                );
            }
        }
    }
}

#[test]
fn bee_worst_case_bitmap_bound_holds() {
    // §4.2: "The number of bitvectors used in the worst case to evaluate a
    // single interval is min(AS, 1−AS)·C + 1."
    let d = paper_dataset();
    let bee = EqualityBitmapIndex::<Wah>::build(&d);
    let c = 5u16;
    for lo in 1..=5u16 {
        for hi in lo..=5u16 {
            // min(AS, 1−AS)·C value bitmaps plus B_0: the paper's exact
            // worst case, now tight (the executor picks the smaller side).
            let w = (hi - lo + 1) as usize;
            let bound = w.min(c as usize - w) + 1;
            let mut cost = WorkCounters::zero();
            bee.evaluate_interval(0, Interval::new(lo, hi), MissingPolicy::IsMatch, &mut cost);
            assert!(
                cost.bitmaps_accessed <= bound,
                "[{lo},{hi}]: {} bitmaps > bound {bound}",
                cost.bitmaps_accessed
            );
        }
    }
}

#[test]
fn bre_bitmap_bounds_hold_everywhere() {
    // §4.3: match semantics 1–3 bitmaps per dimension, not-match 1–2.
    let d = paper_dataset();
    let bre = RangeBitmapIndex::<Wah>::build(&d);
    for lo in 1..=5u16 {
        for hi in lo..=5u16 {
            let mut cost = WorkCounters::zero();
            bre.evaluate_interval(0, Interval::new(lo, hi), MissingPolicy::IsMatch, &mut cost);
            assert!(
                (0..=3).contains(&cost.bitmaps_accessed),
                "match [{lo},{hi}] {cost:?}"
            );
            let mut cost = WorkCounters::zero();
            bre.evaluate_interval(
                0,
                Interval::new(lo, hi),
                MissingPolicy::IsNotMatch,
                &mut cost,
            );
            assert!(
                (0..=2).contains(&cost.bitmaps_accessed),
                "not-match [{lo},{hi}] {cost:?}"
            );
        }
    }
}

/// Three attributes of cardinality 6 with missing values in each — the
/// bitmap crate's driver-test relation — for the `k − 1` reduce ANDs.
fn three_attr_dataset() -> Dataset {
    Dataset::from_rows(
        &[("a", 6), ("b", 6), ("c", 6)],
        &[
            vec![v(5), v(2), v(1)],
            vec![m(), v(5), v(4)],
            vec![v(3), m(), v(2)],
            vec![v(2), v(4), m()],
            vec![v(6), v(1), v(6)],
            vec![v(1), v(3), v(3)],
            vec![m(), m(), m()],
            vec![v(4), v(6), v(5)],
        ],
    )
    .unwrap()
}

/// `render(counters)` for every interval of the worked example under both
/// policies (match first, `[1,1] [1,2] … [5,5]`), then for a three-predicate
/// query on [`three_attr_dataset`] at threads 1, 3 and 8 per policy.
fn counter_trace(
    one: &dyn AccessMethod,
    three: &dyn AccessMethod,
    render: fn(&WorkCounters) -> String,
) -> (String, String) {
    let mut single = Vec::new();
    let mut multi = Vec::new();
    for policy in MissingPolicy::ALL {
        for lo in 1..=5u16 {
            for hi in lo..=5u16 {
                let q = RangeQuery::new(vec![Predicate::range(0, lo, hi)], policy).unwrap();
                if !one.supports(&q) {
                    continue;
                }
                single.push(render(&one.execute_with_cost(&q).unwrap().1));
            }
        }
        let q = RangeQuery::new(
            vec![
                Predicate::range(0, 2, 5),
                Predicate::range(1, 1, 4),
                Predicate::range(2, 2, 6),
            ],
            policy,
        )
        .unwrap();
        if !three.supports(&q) {
            continue;
        }
        for threads in [1, 3, 8] {
            multi.push(render(
                &three.execute_with_cost_threads(&q, threads).unwrap().1,
            ));
        }
    }
    (single.join(" "), multi.join(" "))
}

fn families<B: ibis::bitvec::BitStore + 'static>(
    d: &Dataset,
) -> [(&'static str, Box<dyn AccessMethod>); 4] {
    [
        ("bee", Box::new(EqualityBitmapIndex::<B>::build(d))),
        ("bre", Box::new(RangeBitmapIndex::<B>::build(d))),
        ("bie", Box::new(IntervalBitmapIndex::<B>::build(d))),
        ("dec", Box::new(DecomposedBitmapIndex::<B>::build(d))),
    ]
}

#[test]
fn bitmap_and_op_counts_are_pinned_for_every_family_and_backend() {
    // `bitmaps_accessed/logical_ops` — the paper's own §6 quantities — as
    // recorded before the bitmap drivers were unified. They depend on the
    // encoding only, never on the backend or the thread degree.
    let pinned = [
        (
            "bee",
            "2/1 3/2 2/2 1/1 0/0 2/1 3/2 2/2 1/1 2/1 3/2 2/2 2/1 3/2 2/1 1/0 2/1 \
             3/3 2/2 1/1 1/0 2/1 3/3 2/2 1/0 2/1 3/3 1/0 2/1 1/0",
            "5/7 5/7 5/7 8/10 8/10 8/10",
        ),
        (
            "bre",
            "1/0 1/0 1/0 1/0 0/0 3/2 3/2 3/2 2/2 3/2 3/2 2/2 3/2 2/2 2/2 2/1 2/1 \
             2/1 2/1 1/1 2/1 2/1 2/1 1/1 2/1 2/1 1/1 2/1 1/1 1/1",
            "6/6 6/6 6/6 5/5 5/5 5/5",
        ),
        (
            "bie",
            "3/3 3/3 3/2 3/2 2/2 3/3 3/2 3/2 3/2 3/2 3/2 3/2 3/3 3/3 3/3 2/2 2/2 \
             2/1 2/1 1/1 2/2 2/1 2/1 2/1 2/1 2/1 2/1 2/2 2/2 2/2",
            "9/8 9/8 9/8 6/5 6/5 6/5",
        ),
        (
            "dec",
            "3/2 3/2 3/2 4/4 2/1 5/5 5/5 6/7 4/4 5/5 6/7 4/4 6/7 4/4 5/6 2/1 2/1 \
             2/1 3/3 1/0 4/4 4/4 5/6 3/3 4/4 5/6 3/3 5/6 3/3 4/5",
            "14/17 14/17 14/17 11/14 11/14 11/14",
        ),
    ];
    let render = |c: &WorkCounters| format!("{}/{}", c.bitmaps_accessed, c.logical_ops);
    fn check<B: ibis::bitvec::BitStore + 'static>(
        pinned: &[(&str, &str, &str); 4],
        render: fn(&WorkCounters) -> String,
    ) {
        let one = families::<B>(&paper_dataset());
        let three = families::<B>(&three_attr_dataset());
        for (((name, a), (_, b)), want) in one.iter().zip(&three).zip(pinned) {
            assert_eq!(*name, want.0);
            let (single, multi) = counter_trace(a.as_ref(), b.as_ref(), render);
            assert_eq!(single, want.1, "{name} over {}", B::backend_name());
            assert_eq!(multi, want.2, "{name} over {}", B::backend_name());
        }
    }
    check::<BitVec64>(&pinned, render);
    check::<Wah>(&pinned, render);
    check::<Bbc>(&pinned, render);
    check::<Adaptive>(&pinned, render);
}

/// bitmaps/ops/words/array/bitmap/run containers.
fn six_fields(c: &WorkCounters) -> String {
    format!(
        "{}/{}/{}/{}/{}/{}",
        c.bitmaps_accessed,
        c.logical_ops,
        c.words_processed,
        c.containers_array,
        c.containers_bitmap,
        c.containers_run
    )
}

#[test]
fn adaptive_counters_are_pinned_field_for_field() {
    // bitmaps/ops/words/array/bitmap/run containers of the equality index
    // over adaptive containers. Bitmaps and ops are as its own driver
    // reported them before it was folded into the shared one; words and
    // containers follow the accumulator rule (DESIGN.md §8): each stored
    // bitmap read is tallied once by its container, and the plain
    // accumulator it is combined into is ⌈n/64⌉ words and no container.
    let (single, multi) = counter_trace(
        &AdaptiveBitmapIndex::build(&paper_dataset()),
        &AdaptiveBitmapIndex::build(&three_attr_dataset()),
        six_fields,
    );
    assert_eq!(
        single,
        "2/1/3/2/0/0 3/2/5/3/0/0 2/2/4/2/0/0 1/1/2/1/0/0 0/0/0/0/0/0 \
         2/1/3/2/0/0 3/2/5/3/0/0 2/2/4/2/0/0 1/1/2/1/0/0 2/1/3/2/0/0 \
         3/2/5/3/0/0 2/2/4/2/0/0 2/1/3/2/0/0 3/2/5/3/0/0 2/1/3/2/0/0 \
         1/0/1/1/0/0 2/1/3/2/0/0 3/3/6/3/0/0 2/2/4/2/0/0 1/1/2/1/0/0 \
         1/0/1/1/0/0 2/1/3/2/0/0 3/3/6/3/0/0 2/2/4/2/0/0 1/0/1/1/0/0 \
         2/1/3/2/0/0 3/3/6/3/0/0 1/0/1/1/0/0 2/1/3/2/0/0 1/0/1/1/0/0"
    );
    let [m3, n3] = ["5/7/14/5/0/0", "8/10/20/8/0/0"];
    assert_eq!(multi, [m3, m3, m3, n3, n3, n3].join(" "));
}

#[test]
fn table5_vafile_example_end_to_end() {
    // Tables 5/6: values {6, 1, 3, missing} with 2-bit codes; the query
    // "value is 4 or 5" returns bins {00, 10, 11} as candidates under match
    // semantics and the exact answer after refinement.
    let d = Dataset::from_rows(
        &[("a", 6)],
        &[vec![v(6)], vec![v(1)], vec![v(3)], vec![m()]],
    )
    .unwrap();
    let va = VaFile::with_bits(&d, &[2]);
    let q = RangeQuery::new(vec![Predicate::range(0, 4, 5)], MissingPolicy::IsMatch).unwrap();
    let (rows, cost) = va.execute_with_cost(&d, &q).unwrap();
    assert_eq!(rows.rows(), &[3]);
    assert_eq!(cost.candidates, 3);
    let q = q.with_policy(MissingPolicy::IsNotMatch);
    let (rows, cost) = va.execute_with_cost(&d, &q).unwrap();
    assert!(rows.is_empty());
    assert_eq!(cost.candidates, 2);
}

#[test]
fn bee_missing_bitmap_is_the_paper_overhead() {
    // §4.2's size arithmetic: the extra B_0 per attribute with missing data
    // adds exactly n bits (uncompressed) per such attribute.
    let d = paper_dataset();
    let with = EqualityBitmapIndex::<BitVec64>::build(&d);
    let complete = Dataset::from_rows(
        &[("a1", 5)],
        &[
            vec![v(5)],
            vec![v(2)],
            vec![v(3)],
            vec![v(1)],
            vec![v(4)],
            vec![v(5)],
            vec![v(1)],
            vec![v(3)],
            vec![v(1)],
            vec![v(2)],
        ],
    )
    .unwrap();
    let without = EqualityBitmapIndex::<BitVec64>::build(&complete);
    assert_eq!(with.n_bitmaps(), without.n_bitmaps() + 1);
}

#[test]
fn count_aggregation_matches_materialized_results() {
    let d = paper_dataset();
    let bee = EqualityBitmapIndex::<Wah>::build(&d);
    let bre = RangeBitmapIndex::<Wah>::build(&d);
    let bie = IntervalBitmapIndex::<Wah>::build(&d);
    let dec = DecomposedBitmapIndex::<Wah>::build(&d);
    for policy in MissingPolicy::ALL {
        for lo in 1..=5u16 {
            for hi in lo..=5u16 {
                let q = RangeQuery::new(vec![Predicate::range(0, lo, hi)], policy).unwrap();
                let n = scan::execute(&d, &q).len();
                assert_eq!(
                    bee.execute_count(&q).unwrap(),
                    n,
                    "BEE {policy} [{lo},{hi}]"
                );
                assert_eq!(
                    bre.execute_count(&q).unwrap(),
                    n,
                    "BRE {policy} [{lo},{hi}]"
                );
                assert_eq!(
                    bie.execute_count(&q).unwrap(),
                    n,
                    "BIE {policy} [{lo},{hi}]"
                );
                assert_eq!(
                    dec.execute_count(&q).unwrap(),
                    n,
                    "DEC {policy} [{lo},{hi}]"
                );
            }
        }
    }
    // Empty search key counts everything.
    let q = RangeQuery::new(vec![], MissingPolicy::IsMatch).unwrap();
    assert_eq!(bee.execute_count(&q).unwrap(), 10);
}

/// The four two-policy families plus the two in-band encodings of §4.2.
fn encodings<B: ibis::bitvec::BitStore + 'static>(
    d: &Dataset,
) -> Vec<(&'static str, Box<dyn AccessMethod>)> {
    let mut all = Vec::from(families::<B>(d));
    all.push((
        "inband-match",
        Box::new(InBandMatchEquality::<B>::try_build(d).unwrap()),
    ));
    all.push((
        "inband-notmatch",
        Box::new(InBandNotMatchEquality::<B>::build(d)),
    ));
    all
}

/// Every encoding's full counter trace and stored-size accounting, recorded
/// at the commit before the six family structs became one
/// `BitmapIndex<E, B>`. The plain, WAH and BBC stores are charged the same
/// uncompressed words, so they share the `rule` rows.
fn encoding_ledger() -> String {
    use ibis::core::gen::census_scaled;
    use std::fmt::Write as _;
    fn counters<B: ibis::bitvec::BitStore + 'static>(class: &str, out: &mut String) {
        let one = encodings::<B>(&paper_dataset());
        let three = encodings::<B>(&three_attr_dataset());
        for ((name, a), (_, b)) in one.iter().zip(&three) {
            let (single, multi) = counter_trace(a.as_ref(), b.as_ref(), six_fields);
            writeln!(out, "counters {class} {name} single {single}").unwrap();
            writeln!(out, "counters {class} {name} multi {multi}").unwrap();
        }
    }
    fn sizes<B: ibis::bitvec::BitStore>(out: &mut String) {
        let render = |r: ibis::bitmap::SizeReport| -> String {
            let per_attr: Vec<String> = r
                .per_attr
                .iter()
                .map(|a| format!("{}/{}", a.n_bitmaps, a.bytes))
                .collect();
            per_attr.join(" ")
        };
        for (data, d) in [
            ("paper", paper_dataset()),
            ("census", census_scaled(500, 300)),
        ] {
            let reports = [
                ("bee", EqualityBitmapIndex::<B>::build(&d).size_report()),
                ("bre", RangeBitmapIndex::<B>::build(&d).size_report()),
                ("bie", IntervalBitmapIndex::<B>::build(&d).size_report()),
                ("dec", DecomposedBitmapIndex::<B>::build(&d).size_report()),
            ];
            for (name, r) in reports {
                writeln!(
                    out,
                    "size {} {name} {data} {}",
                    B::backend_name(),
                    render(r)
                )
                .unwrap();
            }
        }
    }
    let mut out = String::new();
    let mut rule = String::new();
    counters::<BitVec64>("rule", &mut rule);
    for other in [counters::<Wah>, counters::<Bbc>] {
        let mut same = String::new();
        other("rule", &mut same);
        assert_eq!(same, rule, "rule-charged stores disagree");
    }
    out.push_str(&rule);
    counters::<Adaptive>("adaptive", &mut out);
    sizes::<BitVec64>(&mut out);
    sizes::<Wah>(&mut out);
    sizes::<Bbc>(&mut out);
    sizes::<Adaptive>(&mut out);
    out
}

#[test]
fn every_encoding_keeps_its_recorded_counters_and_sizes() {
    let want = include_str!("golden/encoding_ledger.txt");
    let got = encoding_ledger();
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
