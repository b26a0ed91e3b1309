//! Results as text and as JSON.

use crate::json::Json;
use crate::spec::{self, MetricSpec, WorkloadSpec};
use crate::stats::Stat;
use crate::workloads::RunResult;
use crate::{trace, Metrics};
use std::fmt::Write as _;

pub fn stat_json(s: &Stat) -> Json {
    Json::obj([
        ("value", Json::Num(s.value)),
        ("unit", Json::str(s.unit)),
        ("samples", Json::Num(s.samples as f64)),
        ("spread", s.spread.map_or(Json::Null, Json::Num)),
    ])
}

/// `names` in spec order, each with the value `measured` holds or 0: a
/// layer that idles in a workload reports 0 there, not nothing.
pub fn filled(names: &[MetricSpec], measured: &Metrics) -> Vec<(String, Stat)> {
    names
        .iter()
        .map(|m| {
            let stat = measured.get(&m.name).cloned().unwrap_or(Stat {
                value: 0.0,
                unit: m.unit,
                samples: 0,
                spread: None,
            });
            (m.name.clone(), stat)
        })
        .collect()
}

/// The per-layer set of one run: the workload-specific user-facing metrics,
/// then the 116 layer metrics.
pub fn per_layer_set(r: &RunResult) -> Vec<(String, Stat)> {
    let names = spec::per_layer_set();
    filled(&names, &r.per_layer)
}

/// The line the driver reads: `correct`, `attempted`, `failed`, `metrics`.
pub fn driver_line(r: &RunResult, traced: bool) -> String {
    let metrics = if traced {
        per_layer_set(r)
    } else {
        filled(&spec::end_to_end(), &r.end_to_end)
    };
    Json::obj([
        ("correct", Json::Bool(r.failed == 0)),
        ("attempted", Json::Num(r.attempted.max(1) as f64)),
        ("failed", Json::Num(r.failed as f64)),
        (
            "metrics",
            Json::obj(metrics.into_iter().map(|(name, s)| {
                (
                    name,
                    Json::obj([("value", Json::Num(s.value)), ("unit", Json::str(s.unit))]),
                )
            })),
        ),
    ])
    .render()
}

/// One metric as a line of the table: name, value, unit, samples, spread.
pub fn line(out: &mut String, name: &str, s: &Stat) {
    let spread = s
        .spread
        .map_or("-".to_string(), |x| format!("{:.1}%", x * 100.0));
    writeln!(
        out,
        "  {name:<44} {:>16.4} {:<6} n={:<8} spread={spread}",
        s.value, s.unit, s.samples
    )
    .expect("string write");
}

/// Every metric of one run by name, with unit, sample count and spread.
pub fn text(r: &RunResult, traced: bool, shared: Option<&Metrics>) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "== {} ({}): attempted {}, failed {}",
        r.workload,
        if traced {
            "traced pass + layer probes"
        } else {
            "untraced"
        },
        r.attempted,
        r.failed
    )
    .expect("string write");
    for (name, s) in filled(&spec::end_to_end(), &r.end_to_end) {
        line(&mut out, &name, &s);
    }
    for (name, s) in per_layer_set(r) {
        let elsewhere = shared.is_some_and(|m| m.contains_key(&name));
        if r.per_layer.contains_key(&name) && !elsewhere {
            line(&mut out, &name, &s);
        }
    }
    if let Some(totals) = &r.trace {
        writeln!(out, "  spans (count, total, self):").expect("string write");
        for (name, t) in totals {
            writeln!(
                out,
                "    {name:<28} {:>8} {:>14.1} us {:>14.1} us",
                t.count,
                t.total_ns as f64 / 1e3,
                t.self_ns as f64 / 1e3
            )
            .expect("string write");
        }
    }
    for note in &r.notes {
        writeln!(out, "  note: {note}").expect("string write");
    }
    out
}

/// Thread and connection counts of one workload's measured phase.
pub fn threads_json(w: &WorkloadSpec) -> Json {
    Json::obj([
        ("load_threads", Json::Num(f64::from(w.load_threads))),
        ("engine_threads", Json::Num(f64::from(w.engine_threads))),
        ("connections", Json::Num(f64::from(w.connections))),
    ])
}

/// One workload's entry of `result.json`, from its untraced and traced runs.
/// A metric both runs measured is taken from the untraced one.
pub fn workload_json(w: &WorkloadSpec, untraced: &RunResult, traced: &RunResult) -> Json {
    let mut per_layer = traced.per_layer.clone();
    per_layer.extend(untraced.per_layer.clone());
    let attempted = untraced.attempted + traced.attempted;
    let failed = untraced.failed + traced.failed;
    per_layer.insert(
        "failed_share".into(),
        Stat {
            value: failed as f64 / attempted.max(1) as f64,
            unit: "ratio",
            samples: attempted,
            spread: None,
        },
    );
    let names = spec::per_layer_set();
    let stats = |v: Vec<(String, Stat)>| Json::obj(v.into_iter().map(|(k, s)| (k, stat_json(&s))));
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("threads", threads_json(w)),
        (
            "end_to_end",
            stats(filled(&spec::end_to_end(), &untraced.end_to_end)),
        ),
        ("per_layer", stats(filled(&names, &per_layer))),
        (
            "notes",
            Json::Arr(
                untraced
                    .notes
                    .iter()
                    .chain(&traced.notes)
                    .map(Json::str)
                    .collect(),
            ),
        ),
        (
            "trace",
            traced.trace.as_ref().map_or(Json::Null, trace::totals_json),
        ),
    ])
}
