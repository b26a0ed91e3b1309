//! The differential + metamorphic check battery run against one case.
//!
//! Ground truth is always [`scan::execute`]; a second, structurally
//! independent row-wise scan cross-checks the truth itself. Every failure —
//! including a panic anywhere in a build, execute, or serialize path — is
//! converted into a [`Failure`] record so the run can continue and the
//! shrinker can re-execute the case freely.

use crate::gen::{self, Case};
use ibis_core::{
    scan, AccessMethod, Dataset, Interval, MissingPolicy, RangeQuery, RowSet, WorkCounters,
};
use ibis_storage::{DbConfig, ShardedDb};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// One violated assertion.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Which check tripped, e.g. `differential/bitmap-interval`.
    pub check: String,
    /// Human-readable detail (expected vs got, or the panic message).
    pub detail: String,
}

/// Outcome of running the battery over one case.
#[derive(Debug, Default)]
pub struct CaseResult {
    /// Assertions evaluated.
    pub checks: u64,
    /// Assertions violated.
    pub failures: Vec<Failure>,
}

/// Runs a closure, converting any panic into an `Err` carrying the payload.
fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        if let Some(s) = e.downcast_ref::<&str>() {
            format!("panicked: {s}")
        } else if let Some(s) = e.downcast_ref::<String>() {
            format!("panicked: {s}")
        } else {
            "panicked: <non-string payload>".to_string()
        }
    })
}

struct Ctx {
    result: CaseResult,
}

impl Ctx {
    fn check(&mut self, name: &str, outcome: Result<(), String>) {
        self.result.checks += 1;
        if let Err(detail) = outcome {
            self.result.failures.push(Failure {
                check: name.to_string(),
                detail,
            });
        }
    }

    /// Like [`Ctx::check`] but the assertion itself runs under `catch`.
    fn assert(&mut self, name: &str, f: impl FnOnce() -> Result<(), String>) {
        let outcome = match catch(f) {
            Ok(r) => r,
            Err(p) => Err(p),
        };
        self.check(name, outcome);
    }
}

fn fmt_rows(r: &RowSet) -> String {
    if r.len() <= 12 {
        format!("{:?}", r.rows())
    } else {
        format!("{} rows starting {:?}", r.len(), &r.rows()[..12])
    }
}

fn expect_eq(got: &RowSet, want: &RowSet) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "answer diverges: got {}, want {}",
            fmt_rows(got),
            fmt_rows(want)
        ))
    }
}

/// Thread degrees every method is replayed at; answers and work counters
/// must be bit-identical to the sequential run at each.
const THREAD_DEGREES: [usize; 3] = [1, 3, 8];

/// Shard counts the sharded metamorphic relation splits each case into.
const SHARD_COUNTS: [usize; 3] = [1, 3, 7];

/// Thread degrees the sharded relation replays at; the summed counters must
/// be identical across them.
const SHARD_THREADS: [usize; 2] = [1, 8];

/// Runs the full battery over one case.
pub fn check_case(case: &Case) -> CaseResult {
    let mut ctx = Ctx {
        result: CaseResult::default(),
    };
    let d = Arc::new(case.dataset.clone());

    // Dataset persistence round-trip: bytes in, equal dataset out.
    ctx.assert("dataset/roundtrip", || {
        let mut buf = Vec::new();
        case.dataset
            .write_to(&mut buf)
            .map_err(|e| format!("write failed: {e}"))?;
        let back =
            Dataset::read_from(&mut buf.as_slice()).map_err(|e| format!("read failed: {e}"))?;
        if back == case.dataset {
            Ok(())
        } else {
            Err("dataset differs after write/read round-trip".to_string())
        }
    });

    // Build every registry variant once per case; a panic during a build is
    // itself a finding.
    let (methods, roundtripped) = match catch(|| crate::registry::methods_and_roundtripped(&d)) {
        Ok(built) => built,
        Err(p) => {
            ctx.check("registry/build", Err(p));
            return ctx.result;
        }
    };
    let permutation = match catch(|| build_permutation(&d)) {
        Ok(p) => p,
        Err(p) => {
            ctx.check("registry/permutation-build", Err(p));
            None
        }
    };
    let sharded = match catch(|| build_routed(&d)) {
        Ok(s) => s,
        Err(p) => {
            ctx.check("registry/sharded-build", Err(p));
            Vec::new()
        }
    };
    let snapshot_pair = match catch(|| build_snapshot_pair(&d)) {
        Ok(p) => p,
        Err(p) => {
            ctx.check("registry/snapshot-build", Err(p));
            None
        }
    };

    for (qi, raw) in case.queries.iter().enumerate() {
        check_interval_api(&mut ctx, qi, raw);

        // Construction: `RangeQuery::new` accepts exactly the well-formed
        // raw keys, never panics on the rest.
        let constructed = catch(|| raw.to_query());
        let query = match constructed {
            Err(p) => {
                ctx.check(&format!("construct/q{qi}"), Err(p));
                continue;
            }
            Ok(r) => {
                ctx.check(
                    &format!("construct/q{qi}"),
                    if r.is_ok() == raw.expect_constructible() {
                        Ok(())
                    } else {
                        Err(format!(
                            "RangeQuery::new returned {:?} for {raw:?}, expected ok={}",
                            r.as_ref().map(|_| ()),
                            raw.expect_constructible()
                        ))
                    },
                );
                match r {
                    Ok(q) => q,
                    Err(_) => continue, // correctly rejected; nothing to execute
                }
            }
        };

        if query.validate(&d).is_err() {
            // Schema-invalid (out-of-range attribute or out-of-domain
            // bound): every method must refuse with an error, never panic,
            // never answer.
            for m in &methods {
                ctx.assert(&format!("reject/{}/q{qi}", m.name()), || {
                    match m.execute(&query) {
                        Err(_) => Ok(()),
                        Ok(rows) => Err(format!(
                            "schema-invalid query answered with {}",
                            fmt_rows(&rows)
                        )),
                    }
                });
            }
            continue;
        }

        // Ground truth, plus an independent row-wise cross-check of the
        // truth itself.
        let truth = match catch(|| scan::execute(&d, &query)) {
            Ok(t) => t,
            Err(p) => {
                ctx.check(&format!("truth/q{qi}"), Err(p));
                continue;
            }
        };
        ctx.assert(&format!("truth-crosscheck/q{qi}"), || {
            expect_eq(&scan::execute_rowwise(&d, &query), &truth)
        });

        for m in &methods {
            check_method(&mut ctx, m.as_ref(), &query, &truth, qi);
        }
        for (name, m) in &roundtripped {
            ctx.assert(&format!("roundtrip/{name}/q{qi}"), || match m {
                Err(e) => Err(format!("round-trip failed: {e}")),
                Ok(m) if !m.supports(&query) => Ok(()),
                Ok(m) => expect_eq(
                    &m.execute(&query).map_err(|e| format!("execute: {e}"))?,
                    &truth,
                ),
            });
        }
        if let Some((perm, perm_methods)) = &permutation {
            for m in perm_methods {
                if !m.supports(&query) {
                    continue;
                }
                ctx.assert(&format!("permutation/{}/q{qi}", m.name()), || {
                    let got = m.execute(&query).map_err(|e| format!("execute: {e}"))?;
                    expect_eq(&ibis_bitmap::reorder::map_rows(&got, perm), &truth)
                });
            }
        }

        check_interval_split(&mut ctx, &methods, &query, qi);
        check_semantics_bridge(&mut ctx, &d, &methods, &query, qi);
        check_sharded(&mut ctx, &sharded, &query, &truth, qi);
        check_snapshot_roundtrip(&mut ctx, &snapshot_pair, &query, &truth, qi);
    }
    ctx.result
}

/// Builds the durable-format metamorphic artifacts: a [`ShardedDb`] over
/// the case's dataset plus its reconstruction through the storage engine's
/// snapshot format (`write_snapshot` → `read_snapshot`) — the same path a
/// checkpoint → reopen cycle takes, with indexes and synopses rebuilt from
/// raw rows on the way back.
fn build_snapshot_pair(d: &Arc<Dataset>) -> Option<(ShardedDb, ShardedDb)> {
    let shard_rows = d.n_rows().div_ceil(3).max(1);
    let db = ShardedDb::new((**d).clone(), shard_rows);
    let mut image = Vec::new();
    db.write_snapshot(&mut image)
        .expect("snapshot of a valid store serializes");
    let back =
        ShardedDb::read_snapshot(&mut image.as_slice()).expect("snapshot of a valid store reloads");
    Some((db, back))
}

/// Metamorphic relation 4 — checkpoint round-trip: a store reconstructed
/// from its own snapshot must answer with rows *and* [`WorkCounters`]
/// bit-identical to the original (the rebuilt indexes are equivalent
/// caches, not approximations), and both must agree with the monolithic
/// truth, at thread degrees {1, 8}.
fn check_snapshot_roundtrip(
    ctx: &mut Ctx,
    pair: &Option<(ShardedDb, ShardedDb)>,
    query: &RangeQuery,
    truth: &RowSet,
    qi: usize,
) {
    let Some((orig, back)) = pair else { return };
    ctx.assert(&format!("snapshot-roundtrip/q{qi}"), || {
        for threads in SHARD_THREADS {
            let a = orig
                .execute_with_cost_threads(query, threads)
                .map_err(|e| format!("original t={threads}: {e}"))?;
            let b = back
                .execute_with_cost_threads(query, threads)
                .map_err(|e| format!("reloaded t={threads}: {e}"))?;
            expect_eq(&a.0, truth)?;
            expect_eq(&b.0, &a.0)?;
            if a.1 != b.1 {
                return Err(format!(
                    "work counters diverge after round-trip at t={threads}; reloaded\n{}\noriginal\n{}",
                    b.1, a.1
                ));
            }
        }
        Ok(())
    });
}

/// The single-family configurations the sharded relation runs under, so
/// every family is reached through the router rather than only whichever
/// one the planner prefers under the default config.
fn shard_families() -> [(&'static str, DbConfig); 4] {
    let none = DbConfig::none();
    [
        ("bee", DbConfig { bee: true, ..none }),
        ("bre", DbConfig { bre: true, ..none }),
        ("va-file", DbConfig { va: true, ..none }),
        ("seq-scan", none),
    ]
}

/// One shard count's databases, one per [`shard_families`] entry.
type Routed = (usize, [(&'static str, ShardedDb); 4]);

/// Builds a [`ShardedDb`] of `k` shards (each of `⌈n/k⌉` rows) for every
/// `k` in [`SHARD_COUNTS`] under each of the [`shard_families`].
fn build_routed(d: &Dataset) -> Vec<Routed> {
    SHARD_COUNTS
        .iter()
        .map(|&k| {
            let shard_rows = d.n_rows().div_ceil(k).max(1);
            let build = |(name, cfg)| (name, ShardedDb::with_config(d.clone(), shard_rows, cfg));
            (k, shard_families().map(build))
        })
        .collect()
}

/// Metamorphic relation 3 — sharding: the dataset served by the real
/// router ([`ShardedDb`]: synopsis pruning, fan-out, re-base, merge) at
/// `k` contiguous shards must return rows bit-identical to the monolithic
/// truth, with [`WorkCounters`] identical across thread degrees.
/// Additionally, any shard whose synopsis claims it can be pruned must
/// truly hold no answer — no truth row may fall in its id range — which is
/// the soundness of partition elimination under both semantics.
fn check_sharded(ctx: &mut Ctx, routed: &[Routed], query: &RangeQuery, truth: &RowSet, qi: usize) {
    for (k, dbs) in routed {
        ctx.assert(&format!("shard-prune/k{k}/q{qi}"), || {
            // Synopses do not depend on the index config: any family's do.
            let db = &dbs[0].1;
            for si in (0..db.shard_count()).filter(|&si| db.synopsis(si).can_prune(query)) {
                let ids = (si * db.shard_rows()) as u32..((si + 1) * db.shard_rows()) as u32;
                if let Some(hit) = truth.iter().find(|r| ids.contains(r)) {
                    return Err(format!(
                        "shard {si} pruned by its synopsis yet holds row {hit}"
                    ));
                }
            }
            Ok(())
        });
        for (name, db) in dbs {
            ctx.assert(&format!("sharded/{name}/k{k}/q{qi}"), || {
                let mut baseline: Option<WorkCounters> = None;
                for threads in SHARD_THREADS {
                    let (rows, counters) = db
                        .execute_with_cost_threads(query, threads)
                        .map_err(|e| format!("t={threads}: {e}"))?;
                    expect_eq(&rows, truth)?;
                    match &baseline {
                        None => baseline = Some(counters),
                        Some(b) if *b != counters => {
                            return Err(format!(
                                "counters diverge at t={threads}; got\n{counters}\nbaseline\n{b}"
                            ));
                        }
                        Some(_) => {}
                    }
                }
                Ok(())
            });
        }
    }
}

/// Raw [`Interval`] API invariants, probed with possibly-invalid bounds:
/// `width()` must never panic (the historical debug-mode underflow) and
/// must agree with the closed-form count; `checked` must accept exactly
/// the well-formed bounds.
fn check_interval_api(ctx: &mut Ctx, qi: usize, raw: &crate::gen::RawQuery) {
    for (pi, p) in raw.preds.iter().enumerate() {
        let (lo, hi) = (p.lo, p.hi);
        ctx.assert(&format!("interval-width/q{qi}p{pi}"), || {
            let w = Interval::new(lo, hi).width();
            let want = if hi < lo {
                0
            } else {
                hi as u32 - lo as u32 + 1
            };
            if w == want {
                Ok(())
            } else {
                Err(format!("width({lo},{hi}) = {w}, want {want}"))
            }
        });
        ctx.assert(&format!("interval-checked/q{qi}p{pi}"), || {
            let got = Interval::checked(lo, hi).is_some();
            let want = lo >= 1 && lo <= hi;
            if got == want {
                Ok(())
            } else {
                Err(format!("checked({lo},{hi}).is_some() = {got}, want {want}"))
            }
        });
    }
}

/// Per-method differential battery: supports-gate, answer, count, and the
/// thread-degree sweep with counter equality.
fn check_method(
    ctx: &mut Ctx,
    m: &dyn AccessMethod,
    query: &RangeQuery,
    truth: &RowSet,
    qi: usize,
) {
    let name = m.name();
    if !m.supports(query) {
        // A method that declares no support must refuse, not mis-answer.
        ctx.assert(&format!("supports-gate/{name}/q{qi}"), || {
            match m.execute(query) {
                Err(_) => Ok(()),
                Ok(rows) => Err(format!(
                    "claims no support yet answered with {}",
                    fmt_rows(&rows)
                )),
            }
        });
        return;
    }
    let seq = match catch(|| m.execute_with_cost(query)) {
        Err(p) => {
            ctx.check(&format!("differential/{name}/q{qi}"), Err(p));
            return;
        }
        Ok(Err(e)) => {
            ctx.check(
                &format!("differential/{name}/q{qi}"),
                Err(format!("supported query errored: {e}")),
            );
            return;
        }
        Ok(Ok(r)) => r,
    };
    ctx.check(
        &format!("differential/{name}/q{qi}"),
        expect_eq(&seq.0, truth),
    );
    ctx.assert(&format!("count/{name}/q{qi}"), || {
        let n = m.execute_count(query).map_err(|e| format!("count: {e}"))?;
        if n == truth.len() {
            Ok(())
        } else {
            Err(format!("count = {n}, want {}", truth.len()))
        }
    });
    for threads in THREAD_DEGREES {
        ctx.assert(&format!("threads-{threads}/{name}/q{qi}"), || {
            let (rows, cost) = m
                .execute_with_cost_threads(query, threads)
                .map_err(|e| format!("t={threads}: {e}"))?;
            expect_eq(&rows, &seq.0)?;
            if cost == seq.1 {
                Ok(())
            } else {
                Err(format!(
                    "work counters diverge at t={threads}; got\n{cost}\nsequential\n{}\nexcess over sequential\n{}",
                    seq.1,
                    cost.diff(&seq.1)
                ))
            }
        });
    }
}

/// Metamorphic relation 1 — interval split: for the first predicate of
/// width ≥ 2, `[lo, hi] ≡ [lo, m] ∪ [m+1, hi]` on every method.
fn check_interval_split(
    ctx: &mut Ctx,
    methods: &[Box<dyn AccessMethod>],
    query: &RangeQuery,
    qi: usize,
) {
    let Some((pi, p)) = query
        .predicates()
        .iter()
        .enumerate()
        .find(|(_, p)| p.interval.width() >= 2)
    else {
        return;
    };
    let (lo, hi) = (p.interval.lo, p.interval.hi);
    let mid = lo + (hi - lo) / 2;
    let rebuild = |new_lo: u16, new_hi: u16| -> RangeQuery {
        let mut preds = query.predicates().to_vec();
        preds[pi] = ibis_core::Predicate::range(p.attr, new_lo, new_hi);
        RangeQuery::new(preds, query.policy()).expect("split halves stay valid")
    };
    let left = rebuild(lo, mid);
    let right = rebuild(mid + 1, hi);
    for m in methods {
        if !(m.supports(query) && m.supports(&left) && m.supports(&right)) {
            continue;
        }
        ctx.assert(&format!("split/{}/q{qi}", m.name()), || {
            let whole = m.execute(query).map_err(|e| format!("whole: {e}"))?;
            let l = m.execute(&left).map_err(|e| format!("left: {e}"))?;
            let r = m.execute(&right).map_err(|e| format!("right: {e}"))?;
            expect_eq(&l.union(&r), &whole)
        });
    }
}

/// Metamorphic relation 2 — semantics bridge: the IsMatch answer is exactly
/// the IsNotMatch answer plus the matching rows that have a missing queried
/// cell; every strict row has all queried cells present.
fn check_semantics_bridge(
    ctx: &mut Ctx,
    d: &Dataset,
    methods: &[Box<dyn AccessMethod>],
    query: &RangeQuery,
    qi: usize,
) {
    if query.predicates().is_empty() {
        return;
    }
    let loose_q = query.with_policy(MissingPolicy::IsMatch);
    let strict_q = query.with_policy(MissingPolicy::IsNotMatch);
    for m in methods {
        if !(m.supports(&loose_q) && m.supports(&strict_q)) {
            continue;
        }
        ctx.assert(&format!("bridge/{}/q{qi}", m.name()), || {
            let loose = m.execute(&loose_q).map_err(|e| format!("match: {e}"))?;
            let strict = m
                .execute(&strict_q)
                .map_err(|e| format!("not-match: {e}"))?;
            if !strict.difference(&loose).is_empty() {
                return Err("IsNotMatch answer is not a subset of IsMatch".to_string());
            }
            for r in loose.difference(&strict).iter() {
                if !query
                    .predicates()
                    .iter()
                    .any(|p| gen::cell_missing(d, r, p.attr))
                {
                    return Err(format!(
                        "row {r} gained by match semantics without a missing queried cell"
                    ));
                }
            }
            for r in strict.iter() {
                if query
                    .predicates()
                    .iter()
                    .any(|p| gen::cell_missing(d, r, p.attr))
                {
                    return Err(format!("strict row {r} has a missing queried cell"));
                }
            }
            Ok(())
        });
    }
}

/// Builds the row-permutation artifacts: the lexicographic reorder
/// permutation plus two index families built over the permuted relation.
/// Returns `None` for relations the reorderer has nothing to do with.
type PermArtifacts = (Vec<u32>, Vec<Box<dyn AccessMethod>>);

fn build_permutation(d: &Arc<Dataset>) -> Option<PermArtifacts> {
    use ibis_bitmap::reorder;
    if d.n_rows() == 0 {
        return None;
    }
    let order = reorder::cardinality_ascending_order(d);
    let perm = reorder::lexicographic(d, &order);
    let p = Arc::new(d.permute_rows(&perm));
    let methods: Vec<Box<dyn AccessMethod>> = vec![
        Box::new(ibis_bitmap::EqualityBitmapIndex::<ibis_bitvec::Wah>::build(
            &p,
        )),
        Box::new(ibis_vafile::VaFile::build(&p).bind(Arc::clone(&p))),
    ];
    Some((perm, methods))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{gen_case, RawPred, RawQuery};
    use ibis_core::Column;

    #[test]
    fn clean_cases_produce_no_failures() {
        for idx in [0, 1, 7, 8] {
            let case = gen_case(42, idx);
            let r = check_case(&case);
            assert!(r.failures.is_empty(), "case {idx}: {:?}", r.failures);
            assert!(r.checks > 0);
        }
    }

    #[test]
    fn a_wrong_answer_is_detected() {
        // Sanity-check the harness itself: a dataset whose queries are fine
        // but whose expected-constructible contract is deliberately violated
        // must produce a failure.
        let dataset =
            ibis_core::Dataset::new(vec![Column::from_raw("a0", 4, vec![1, 2, 0, 4]).unwrap()])
                .unwrap();
        let case = Case {
            dataset,
            queries: vec![RawQuery {
                policy: MissingPolicy::IsMatch,
                // Inverted: RangeQuery::new must reject it. If someone
                // relaxed that validation, expect_constructible() (false)
                // would disagree and the construct check fires.
                preds: vec![RawPred {
                    attr: 0,
                    lo: 3,
                    hi: 2,
                }],
            }],
        };
        let r = check_case(&case);
        assert!(
            r.failures.is_empty(),
            "rejection is the correct behavior: {:?}",
            r.failures
        );
    }
}
