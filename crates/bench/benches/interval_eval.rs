//! Single-interval evaluation cost (the inner loop of Figs. 2/3): BEE's
//! cardinality-proportional ORs versus BRE's bounded two-bitmap plans,
//! under both missing-data semantics.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ibis_bench::experiments::harness::uniform_group;
use ibis_bitmap::{EqualityBitmapIndex, RangeBitmapIndex};
use ibis_bitvec::Wah;
use ibis_core::{Interval, MissingPolicy, WorkCounters};
use std::hint::black_box;

const N_ROWS: usize = 100_000;

fn benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("interval_eval");
    for card in [10u16, 50, 100] {
        let d = uniform_group(N_ROWS, 1, card, 0.2, 13 + card as u64);
        let bee = EqualityBitmapIndex::<Wah>::build(&d);
        let bre = RangeBitmapIndex::<Wah>::build(&d);
        // A 30%-of-domain range in the middle: direct OR path for BEE.
        let lo = card / 3;
        let hi = (lo + card * 3 / 10).min(card);
        let iv = Interval::new(lo.max(1), hi);
        for policy in MissingPolicy::ALL {
            let tag = match policy {
                MissingPolicy::IsMatch => "match",
                MissingPolicy::IsNotMatch => "notmatch",
            };
            g.bench_function(BenchmarkId::new(format!("bee/{tag}"), card), |b| {
                b.iter(|| {
                    let mut cost = WorkCounters::zero();
                    black_box(bee.evaluate_interval(0, iv, policy, &mut cost))
                })
            });
            g.bench_function(BenchmarkId::new(format!("bre/{tag}"), card), |b| {
                b.iter(|| {
                    let mut cost = WorkCounters::zero();
                    black_box(bre.evaluate_interval(0, iv, policy, &mut cost))
                })
            });
        }
    }
    g.finish();
}

criterion_group! {
    name = group;
    config = Criterion::default().sample_size(40);
    targets = benches
}
criterion_main!(group);
