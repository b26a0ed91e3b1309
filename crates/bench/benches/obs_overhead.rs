//! Overhead of the observability layer: the same query workload executed
//! with the recorder disabled (the default — every span entry point is a
//! no-op behind one relaxed atomic load) versus enabled, each query under a
//! span capture on the server's metrics-only recorder (what a traced
//! request pays; degree 1, so its time is not comparable with its
//! neighbours'), plus the raw cost of a disabled `span!` site. The disabled
//! numbers are the ones that must match the pre-instrumentation baseline
//! within noise. Each row also asserts, outside its timed loop, what its
//! mode must and must not record, so the untimed CI pass (`-- --test`)
//! fails on a broken fast path, not only on a slow one.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ibis_bench::experiments::harness::uniform_group;
use ibis_bitmap::EqualityBitmapIndex;
use ibis_bitvec::Wah;
use ibis_core::gen::{workload, QuerySpec};
use ibis_core::{AccessMethod, MissingPolicy};
use ibis_vafile::VaFile;
use std::hint::black_box;
use std::sync::Arc;

const N_ROWS: usize = 50_000;
const N_QUERIES: usize = 20;

fn benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs_overhead");
    g.sample_size(10);
    let d = Arc::new(uniform_group(N_ROWS, 16, 10, 0.10, 23));
    let methods: Vec<Box<dyn AccessMethod>> = vec![
        Box::new(EqualityBitmapIndex::<Wah>::build(&d)),
        Box::new(VaFile::build(&d).bind(Arc::clone(&d))),
    ];
    let spec = QuerySpec {
        n_queries: N_QUERIES,
        k: 4,
        global_selectivity: 0.01,
        policy: MissingPolicy::IsMatch,
        candidate_attrs: vec![],
    };
    let queries = workload(&d, &spec, 31);
    for m in &methods {
        for (mode, recorder, capture) in [
            ("disabled", ibis_obs::Recorder::disabled(), false),
            ("enabled", ibis_obs::Recorder::enabled(), false),
            ("capture-degree-1", ibis_obs::Recorder::metrics_only(), true),
        ] {
            g.bench_function(BenchmarkId::new(mode, m.name()), |b| {
                recorder.install();
                let mut captured = 0;
                b.iter(|| {
                    let rows: Vec<_> = queries
                        .iter()
                        .map(|q| {
                            // A capture sees this thread only: degree 1.
                            let request = capture.then(|| ibis_obs::capture("bench.request"));
                            let rows = m.execute_threads(q, if capture { 1 } else { 2 });
                            captured += request.map_or(0, |r| r.finish().len());
                            rows.unwrap()
                        })
                        .collect();
                    black_box(rows)
                });
                // Spans reach the global log under the full recorder only,
                // and a capture's owner only under a capture.
                let logged = ibis_obs::snapshot().spans.len();
                assert_eq!(
                    logged > 0,
                    mode == "enabled",
                    "{mode}: {logged} spans logged"
                );
                assert_eq!(captured > 0, capture, "{mode}: {captured} spans captured");
                // Discard whatever the enabled runs recorded.
                ibis_obs::Recorder::disabled().install();
            });
        }
    }
    // The per-site cost of a disabled span: one relaxed load, no clock read.
    g.bench_function("disabled-span-site", |b| {
        ibis_obs::Recorder::disabled().install();
        b.iter(|| {
            for _ in 0..1000 {
                let mut s = ibis_obs::span("bench.site");
                s.add_field("x", 1);
                black_box(&s);
            }
        });
        assert!(!ibis_obs::span("bench.site").is_recording());
    });
    g.finish();
}

criterion_group!(group, benches);
criterion_main!(group);
