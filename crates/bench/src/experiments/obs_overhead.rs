//! obs_overhead — what the observability layer costs a query (DESIGN.md
//! §11): the same workload through a BEE (WAH) index and a VA-file with
//! the recorder disabled (the default: every span entry point is one
//! relaxed atomic load), enabled, and under a per-query span capture on
//! the metrics-only recorder — what a traced server request pays. The
//! capture runs at degree 1, so that its tree stays on one thread, and its
//! time is not comparable with its neighbours' at degree 2. A last row
//! prices one disabled `span` site.
//!
//! Each mode's assertions run after its timed passes: spans reach the
//! global log under the enabled recorder only, a capture's owner only
//! under a capture, every mode answers the disabled mode's rows, and a
//! disabled site records nothing.

use crate::config::Scale;
use crate::experiments::harness::uniform_group;
use crate::report::{fmt_ratio, Table};
use crate::time_ms;
use ibis_bitmap::EqualityBitmapIndex;
use ibis_bitvec::Wah;
use ibis_core::gen::{workload, QuerySpec};
use ibis_core::{AccessMethod, MissingPolicy, RowSet};
use ibis_obs::Recorder;
use ibis_vafile::VaFile;
use std::hint::black_box;
use std::sync::Arc;

/// Timed passes over the workload per (mode, method), after one warm-up.
const PASSES: usize = 10;

/// Disabled span sites timed for the last row.
const SITES: usize = 1_000_000;

/// The recorder modes, with whether each query runs under a capture.
fn modes() -> [(&'static str, Recorder, bool); 3] {
    [
        ("disabled", Recorder::disabled(), false),
        ("enabled", Recorder::enabled(), false),
        ("capture-degree-1", Recorder::metrics_only(), true),
    ]
}

/// Recorder overhead per query and per disabled span site. One table, one
/// CSV (`results/obs_overhead.csv`).
pub fn run(scale: &Scale) -> Vec<Table> {
    let mut table = Table::new(
        "obs_overhead",
        &format!(
            "recorder overhead: ns per query by recorder mode (uniform data, 16 cols, card 10, \
             10% missing, k=4, GS=1%, mean of {PASSES} passes), then ns per disabled span site"
        ),
        &[
            "mode",
            "method",
            "ns_per_op",
            "vs_disabled",
            "spans_logged",
            "spans_captured",
        ],
    );
    let rows = (scale.rows / 2).max(1);
    let d = Arc::new(uniform_group(rows, 16, 10, 0.10, scale.seed + 1000));
    let methods: Vec<Box<dyn AccessMethod>> = vec![
        Box::new(EqualityBitmapIndex::<Wah>::build(&d)),
        Box::new(VaFile::build(&d).bind(Arc::clone(&d))),
    ];
    let spec = QuerySpec {
        n_queries: scale.queries,
        k: 4,
        global_selectivity: 0.01,
        policy: MissingPolicy::IsMatch,
        candidate_attrs: vec![],
    };
    let queries = workload(&d, &spec, scale.seed + 1010);
    for m in &methods {
        let mut disabled: Option<(f64, Vec<RowSet>)> = None;
        for (mode, recorder, capture) in modes() {
            recorder.install();
            let mut captured = 0;
            let mut pass = || -> Vec<RowSet> {
                queries
                    .iter()
                    .map(|q| {
                        let request = capture.then(|| ibis_obs::capture("bench.request"));
                        let rows = m.execute_with_cost_threads(q, if capture { 1 } else { 2 });
                        captured += request.map_or(0, |r| r.finish().len());
                        rows.expect("valid workload").0
                    })
                    .collect()
            };
            let answers = pass();
            let (_, ms) = time_ms(|| (0..PASSES).for_each(|_| drop(black_box(pass()))));
            let ns = ms * 1e6 / (PASSES * queries.len().max(1)) as f64;
            let logged = ibis_obs::snapshot().spans.len();
            assert_eq!(
                logged > 0,
                mode == "enabled",
                "{mode}: {logged} spans logged"
            );
            assert_eq!(captured > 0, capture, "{mode}: {captured} spans captured");
            let vs_disabled = match &disabled {
                None => {
                    disabled = Some((ns, answers));
                    fmt_ratio(1.0)
                }
                Some((base, rows)) => {
                    assert_eq!(&answers, rows, "{mode}: {} answers moved", m.name());
                    if capture {
                        String::new()
                    } else {
                        fmt_ratio(ns / base)
                    }
                }
            };
            table.push(vec![
                mode.into(),
                m.name().into(),
                format!("{ns:.0}"),
                vs_disabled,
                logged.to_string(),
                captured.to_string(),
            ]);
        }
    }
    // Discard whatever the enabled runs recorded.
    Recorder::disabled().install();
    let (_, ms) = time_ms(|| {
        for _ in 0..SITES {
            let mut s = ibis_obs::span("bench.site");
            s.add_field("x", 1);
            black_box(&s);
        }
    });
    assert!(!ibis_obs::span("bench.site").is_recording());
    assert!(
        ibis_obs::snapshot().spans.is_empty(),
        "a disabled site logged a span"
    );
    table.push(vec![
        "disabled-span-site".into(),
        String::new(),
        format!("{:.2}", ms * 1e6 / SITES as f64),
        String::new(),
        "0".into(),
        "0".into(),
    ]);
    vec![table]
}
