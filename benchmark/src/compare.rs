//! `compare A.json B.json`: one verdict per (workload, user-facing metric),
//! B judged against A under the checks `spec.rs` shares with
//! `BENCHMARK.json`. Either side may be several runs of one commit
//! (`A1.json,A2.json,…`): the value is then their median and, from four runs
//! on, the spread is the quartile spread between the runs — the driver's own
//! check — instead of the round-to-round spread inside one run.

use crate::json::Json;
use crate::spec::{self, Better, Check, MetricSpec};
use crate::stats::{median, quartile_spread};
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// A round-to-round spread wider than the bound: the runs cannot tell.
    Unresolved,
}

struct Reading {
    value: f64,
    spread: Option<f64>,
}

fn one_reading(result: &Json, workload: &str, section: &str, metric: &str) -> Option<Reading> {
    let m = result
        .get("workloads")?
        .get(workload)?
        .get(section)?
        .get(metric)?;
    Some(Reading {
        value: m.get("value")?.as_f64()?,
        spread: m.get("spread").and_then(Json::as_f64),
    })
}

/// The reading of one side: the median over its runs.
fn reading(runs: &[Json], workload: &str, section: &str, metric: &str) -> Option<Reading> {
    let each: Vec<Reading> = runs
        .iter()
        .map(|r| one_reading(r, workload, section, metric))
        .collect::<Option<_>>()?;
    let mut values: Vec<f64> = each.iter().map(|r| r.value).collect();
    let between_runs = quartile_spread(&mut values).filter(|_| values.len() >= 4);
    let widest_inside = each.iter().filter_map(|r| r.spread).reduce(f64::max);
    Some(Reading {
        value: median(&mut values),
        spread: between_runs.or(widest_inside),
    })
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / a.abs()
    }
}

fn judge(workload: &str, m: &MetricSpec, a: &Reading, b: &Reading) -> Verdict {
    let by = worse_by(a.value, b.value, m.better);
    match m.check {
        Check::Unjudged => Verdict::Same,
        Check::Exact if by > 0.0 => Verdict::Worse,
        Check::Exact if by < 0.0 => Verdict::Better,
        Check::Exact => Verdict::Same,
        // Only a server may refuse or expire a request; in-process, one
        // failure is one too many, whatever A held.
        Check::Rise(_) if workload != spec::MAY_SHED && b.value > 0.0 => Verdict::Worse,
        Check::Rise(x) if b.value - a.value > x => Verdict::Worse,
        Check::Rise(_) => Verdict::Same,
        Check::Share(bound) => {
            let wide = |r: &Reading| r.spread.is_some_and(|s| s > bound);
            if wide(a) || wide(b) {
                Verdict::Unresolved
            } else if by > bound {
                Verdict::Worse
            } else if by < -bound {
                Verdict::Better
            } else {
                Verdict::Same
            }
        }
    }
}

/// The table and whether any row is `worse`.
pub fn compare(a: &[Json], b: &[Json]) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut any_worse = false;
    writeln!(
        out,
        "{:<20} {:<22} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A", "B", "change"
    )
    .expect("string write");
    for w in &spec::WORKLOADS {
        let sections = [
            ("end_to_end", spec::end_to_end()),
            ("per_layer", spec::specific()),
        ];
        for (section, metrics) in sections {
            for m in metrics {
                let (Some(ra), Some(rb)) = (
                    reading(a, w.name, section, &m.name),
                    reading(b, w.name, section, &m.name),
                ) else {
                    return Err(format!("{}/{} is missing from a result", w.name, m.name));
                };
                let measured = section == "end_to_end"
                    || spec::COMMON_SPECIFIC.contains(&m.name.as_str())
                    || w.specific.contains(&m.name.as_str());
                if !measured {
                    continue;
                }
                let verdict = judge(w.name, &m, &ra, &rb);
                any_worse |= verdict == Verdict::Worse;
                let change = if ra.value == 0.0 {
                    0.0
                } else {
                    (rb.value - ra.value) / ra.value * 100.0
                };
                writeln!(
                    out,
                    "{:<20} {:<22} {:>14.4} {:>14.4} {:>+7.1}%  {}",
                    w.name,
                    m.name,
                    ra.value,
                    rb.value,
                    change,
                    format!("{verdict:?}").to_lowercase()
                )
                .expect("string write");
            }
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(value: f64, spread: Option<f64>) -> Reading {
        Reading { value, spread }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let metric = |name: &str, better, check| MetricSpec {
            name: name.into(),
            unit: "",
            better,
            check,
            moves: "",
        };
        let latency = &metric("latency", Better::Lower, Check::Share(0.10));
        let rate = &metric("rate", Better::Higher, Check::Share(0.10));
        let bytes = &metric("bytes", Better::Lower, Check::Exact);
        assert_eq!(
            judge(
                "paper_mixed",
                latency,
                &r(100.0, Some(0.02)),
                &r(105.0, Some(0.02))
            ),
            Verdict::Same
        );
        assert_eq!(
            judge(
                "paper_mixed",
                latency,
                &r(100.0, Some(0.02)),
                &r(120.0, Some(0.02))
            ),
            Verdict::Worse
        );
        assert_eq!(
            judge(
                "paper_mixed",
                latency,
                &r(100.0, Some(0.02)),
                &r(80.0, None)
            ),
            Verdict::Better
        );
        assert_eq!(
            judge(
                "paper_mixed",
                latency,
                &r(100.0, Some(0.5)),
                &r(300.0, None)
            ),
            Verdict::Unresolved
        );
        assert_eq!(
            judge("paper_mixed", rate, &r(100.0, None), &r(80.0, None)),
            Verdict::Worse
        );
        assert_eq!(
            judge("paper_mixed", rate, &r(100.0, None), &r(120.0, None)),
            Verdict::Better
        );
        assert_eq!(
            judge("paper_mixed", bytes, &r(306.5, None), &r(306.5, None)),
            Verdict::Same
        );
        assert_eq!(
            judge("paper_mixed", bytes, &r(306.5, None), &r(306.6, None)),
            Verdict::Worse
        );
    }

    #[test]
    fn only_the_server_may_fail_a_request_in_a_thousand() {
        let failed = spec::specific()
            .into_iter()
            .find(|m| m.name == "failed_share")
            .unwrap();
        let verdict = |workload, a, b| judge(workload, &failed, &r(a, None), &r(b, None));
        assert_eq!(verdict("served", 0.0, 0.0005), Verdict::Same);
        assert_eq!(verdict("served", 0.0, 0.01), Verdict::Worse);
        assert_eq!(verdict("paper_mixed", 0.0, 0.0), Verdict::Same);
        assert_eq!(verdict("paper_mixed", 0.0, 0.0005), Verdict::Worse);
        // Above 0 in B is worse even where A was no better.
        assert_eq!(verdict("ingest_while_query", 0.002, 0.001), Verdict::Worse);
    }
}
