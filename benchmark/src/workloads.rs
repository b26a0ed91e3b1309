//! The five workloads. Each sets up from the seed, checks one untimed pass
//! against scan truth (which also warms caches), measures, and — in a traced
//! run — repeats a shorter pass with spans on and runs the layer probes.
//! Every time and rate is reported as measured.

use crate::layers::{self, Dataset, IndexSet, Query, QueryCall, Reply, ShardedDb};
use crate::probes::{self, put, timed_ms};
use crate::spec;
use crate::stats::{median, percentile, split_rounds, Stat, P99_MIN_SAMPLES};
use crate::trace::{self, NameTotal, Tracer, NO_SPAN};
use crate::{host, Bench, Metrics, Opts};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct RunResult {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Metrics,
    /// The workload-specific user-facing metrics and, in a traced run, the
    /// per-layer metrics.
    pub per_layer: Metrics,
    pub notes: Vec<String>,
    /// Per-span-name totals of the traced pass.
    pub trace: Option<BTreeMap<&'static str, NameTotal>>,
}

/// Latency samples and answers of one round of a measured phase.
pub struct Round {
    pub match_ns: Vec<u64>,
    pub notmatch_ns: Vec<u64>,
    pub began: Instant,
    pub ended: Instant,
    pub correct: u64,
    pub failed: u64,
}

impl Round {
    fn starting(began: Instant) -> Round {
        Round {
            match_ns: Vec::new(),
            notmatch_ns: Vec::new(),
            began,
            ended: began,
            correct: 0,
            failed: 0,
        }
    }

    fn record(&mut self, is_match: bool, ns: u64, ok: bool) {
        if is_match {
            self.match_ns.push(ns);
        } else {
            self.notmatch_ns.push(ns);
        }
        self.correct += u64::from(ok);
        self.failed += u64::from(!ok);
    }

    fn absorb(&mut self, other: Round) {
        self.match_ns.extend(other.match_ns);
        self.notmatch_ns.extend(other.notmatch_ns);
        self.ended = other.ended;
        self.correct += other.correct;
        self.failed += other.failed;
    }

    fn attempted(&self) -> u64 {
        self.correct + self.failed
    }

    fn wall_s(&self) -> f64 {
        (self.ended - self.began).as_secs_f64()
    }

    fn all_ns(&self) -> Vec<u64> {
        self.match_ns
            .iter()
            .chain(&self.notmatch_ns)
            .copied()
            .collect()
    }
}

fn asked(rounds: &[Round]) -> u64 {
    rounds.iter().map(Round::attempted).sum()
}

fn failures(rounds: &[Round]) -> u64 {
    rounds.iter().map(|r| r.failed).sum()
}

/// `n` equal time slices of `span_s` seconds from `t0`.
fn time_sliced(t0: Instant, span_s: f64, n: usize) -> Vec<Round> {
    let slice = Duration::from_secs_f64(span_s / n as f64);
    (0..n as u32)
        .map(|i| Round {
            ended: t0 + slice * (i + 1),
            ..Round::starting(t0 + slice * i)
        })
        .collect()
}

const ROUNDS: usize = 10;

/// Percentile `p` of `ns` in microseconds.
fn us_at(ns: &mut [u64], p: f64) -> f64 {
    ns.sort_unstable();
    percentile(ns, p) as f64 / 1e3
}

/// The median of per-round p50s.
fn p50_stat(rounds: &mut [&mut Vec<u64>]) -> Stat {
    let n: usize = rounds.iter().map(|ns| ns.len()).sum();
    let per_round = rounds
        .iter_mut()
        .filter(|ns| !ns.is_empty())
        .map(|ns| us_at(ns, 0.5))
        .collect();
    Stat::of_rounds(per_round, "us", n as u64)
}

/// The p99 of a phase: the median of per-round p99s where every round holds
/// enough samples for one (1,000, so ten lie beyond it), else the p99 — or
/// the highest percentile the samples support — of the phase pooled.
fn p99_stat(rounds: &mut [&mut Vec<u64>], name: &str, notes: &mut Vec<String>) -> Stat {
    let n: usize = rounds.iter().map(|ns| ns.len()).sum();
    if rounds.iter().all(|ns| ns.len() >= P99_MIN_SAMPLES) {
        let per_round = rounds.iter_mut().map(|ns| us_at(ns, 0.99)).collect();
        return Stat::of_rounds(per_round, "us", n as u64);
    }
    let mut pooled: Vec<u64> = rounds.iter().flat_map(|ns| ns.iter().copied()).collect();
    let p = if n >= P99_MIN_SAMPLES {
        0.99
    } else {
        (1.0 - 10.0 / n.max(11) as f64).max(0.5)
    };
    if p < 0.99 {
        notes.push(format!(
            "{name} holds p{:.1}: {n} samples, and a p99 needs {P99_MIN_SAMPLES} to leave ten beyond it",
            p * 100.0
        ));
    }
    let value = us_at(&mut pooled, p);
    Stat {
        value,
        unit: "us",
        samples: n as u64,
        spread: None,
    }
}

/// p50s, p99s and the rate as the median of rounds. The two semantics are
/// never pooled: they are different cost regimes. The rate is correct
/// answers over wall time.
fn summarise(
    rounds: &mut [Round],
    out: &mut Metrics,
    tails: &mut Metrics,
    notes: &mut Vec<String>,
) {
    let mut matches: Vec<_> = rounds.iter_mut().map(|r| &mut r.match_ns).collect();
    out.insert("match_us_p50".into(), p50_stat(&mut matches));
    tails.insert(
        "match_us_p99".into(),
        p99_stat(&mut matches, "match_us_p99", notes),
    );
    let mut others: Vec<_> = rounds.iter_mut().map(|r| &mut r.notmatch_ns).collect();
    out.insert("notmatch_us_p50".into(), p50_stat(&mut others));
    tails.insert(
        "notmatch_us_p99".into(),
        p99_stat(&mut others, "notmatch_us_p99", notes),
    );
    let rates = rounds
        .iter()
        .filter(|r| r.wall_s() > 0.0)
        .map(|r| r.correct as f64 / r.wall_s())
        .collect();
    let answered = rounds.iter().map(|r| r.correct).sum();
    out.insert(
        "queries_per_s".into(),
        Stat::of_rounds(rates, "1/s", answered),
    );
}

/// Median p50 over all queries of a phase, both semantics: only for the
/// ratio of a traced phase to its untraced twin.
fn overall_p50(rounds: &[Round]) -> f64 {
    let mut per_round: Vec<f64> = rounds
        .iter()
        .filter(|r| r.attempted() > 0)
        .map(|r| us_at(&mut r.all_ns(), 0.5))
        .collect();
    median(&mut per_round)
}

/// Median of `reps` timed set-ups; the last one's product is kept.
fn repeat_setup<T>(
    opts: &Opts,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(Stat, T), String> {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..opts.setup_reps() {
        drop(last.take()); // free (and, for a server, stop) the previous one first
        let began = Instant::now();
        last = Some(setup()?);
        secs.push(began.elapsed().as_secs_f64());
    }
    let n = secs.len() as u64;
    Ok((Stat::of_rounds(secs, "s", n), last.expect("reps ≥ 1")))
}

/// What the two halves of each set-up took, for the layers they belong to.
#[derive(Default)]
struct SetupParts {
    gen_ms: Vec<f64>,
    build_ms: Vec<f64>,
}

impl SetupParts {
    fn report(&mut self, out: &mut Metrics) {
        put(out, "core.gen.dataset_ms", median(&mut self.gen_ms), "ms");
        put(
            out,
            "storage.sharded_build_ms",
            median(&mut self.build_ms),
            "ms",
        );
    }
}

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

pub fn run(name: &str, opts: &Opts, standalone: &mut Option<Metrics>) -> Result<RunResult, String> {
    let mut b = Bench::new(opts);
    let mut result = match name {
        "paper_mixed" => closed_loop(&mut b, "paper_mixed", ClosedLoop::PaperMixed),
        "compact_count" => closed_loop(&mut b, "compact_count", ClosedLoop::CompactCount),
        "sharded_semantics" => closed_loop(&mut b, "sharded_semantics", ClosedLoop::Sharded),
        "ingest_while_query" => ingest(&mut b),
        "served" => served(&mut b),
        other => Err(format!("unknown workload {other}")),
    }?;
    if opts.trace {
        // The stand-alone probes do not depend on the workload: in a run of
        // all five they are measured once.
        let shared = standalone.get_or_insert_with(|| probes::standalone(&mut b));
        for (k, v) in shared.iter() {
            result
                .per_layer
                .entry(k.clone())
                .or_insert_with(|| v.clone());
        }
    }
    result.attempted += b.tally.attempted;
    result.failed += b.tally.failed;
    let share = Stat {
        value: result.failed as f64 / result.attempted.max(1) as f64,
        unit: "ratio",
        samples: result.attempted,
        spread: None,
    };
    result.per_layer.insert("failed_share".into(), share);
    Ok(result)
}

// ------------------------------------------------- workloads 1–3: closed loop

#[derive(Clone, Copy, PartialEq)]
enum ClosedLoop {
    PaperMixed,
    CompactCount,
    Sharded,
}

/// One replay of the whole query list, every answer checked.
fn replay(
    tr: &mut Tracer,
    db: &ShardedDb,
    call: QueryCall,
    queries: &[Query],
) -> Result<Round, String> {
    let mut round = Round::starting(Instant::now());
    for (i, q) in queries.iter().enumerate() {
        let t = Instant::now();
        let request = tr.open("request", NO_SPAN, i as u32);
        let answer = layers::query_sharded(tr, request, i as u32, db, call, &q.q)?;
        tr.close(request);
        let ns = t.elapsed().as_nanos() as u64;
        round.record(q.is_match, ns, answer.agrees_with(&q.truth));
    }
    round.ended = Instant::now();
    Ok(round)
}

/// Whole passes until `seconds` have gone by, grouped into [`ROUNDS`] rounds.
fn replay_for(
    db: &ShardedDb,
    call: QueryCall,
    queries: &[Query],
    seconds: f64,
) -> Result<Vec<Round>, String> {
    let mut off = Tracer::new(false);
    let began = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || began.elapsed().as_secs_f64() < seconds {
        passes.push(replay(&mut off, db, call, queries)?);
    }
    let mut passes = passes.into_iter();
    let mut rounds = Vec::new();
    for range in split_rounds(passes.len(), ROUNDS) {
        let mut round = passes.next().expect("ranges cover the passes");
        for pass in passes.by_ref().take(range.len() - 1) {
            round.absorb(pass);
        }
        rounds.push(round);
    }
    Ok(rounds)
}

fn closed_loop(b: &mut Bench, name: &'static str, kind: ClosedLoop) -> Result<RunResult, String> {
    let opts = b.opts;
    let sharded = kind == ClosedLoop::Sharded;
    let n = opts.rows(if sharded { 128_000 } else { 100_000 });
    let shard_rows = if sharded { opts.rows(2_000) } else { n };
    let (set, call) = match kind {
        ClosedLoop::PaperMixed => (IndexSet::PaperTrio, QueryCall::Execute),
        ClosedLoop::CompactCount => (IndexSet::Compact, QueryCall::Count),
        ClosedLoop::Sharded => (IndexSet::PaperTrio, QueryCall::ExecuteThreads(2)),
    };
    let mut parts = SetupParts::default();
    let (setup_s, (d, db)) = repeat_setup(opts, || {
        let (g, d) = timed_ms(|| {
            if sharded {
                layers::clustered(n, opts.seed)
            } else {
                layers::grid36(n, opts.seed)
            }
        });
        let (t, db) = timed_ms(|| layers::build_sharded(d.clone(), shard_rows, set));
        parts.gen_ms.push(g);
        parts.build_ms.push(t);
        Ok((d, db))
    })?;
    let queries = if sharded {
        layers::anchored_query_list(&d, &[1, 2, 3], opts.per_class(334), opts.seed)
    } else {
        layers::query_list(&d, &[1, 2, 4, 8], opts.per_class(250), opts.seed)
    };

    let mut notes = Vec::new();
    let mut off = Tracer::new(false);
    let warm = replay(&mut off, &db, call, &queries)?;
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let (kernel_us, rounds) = host::around(|| replay_for(&db, call, &queries, seconds));
    let mut rounds = rounds?;

    let mut e2e = Metrics::new();
    e2e.insert("setup_s".into(), setup_s);
    let mut per_layer = Metrics::new();
    summarise(&mut rounds, &mut e2e, &mut per_layer, &mut notes);
    put(
        &mut e2e,
        "index_bytes_per_row",
        layers::index_bytes_per_row(&db),
        "B",
    );
    let mut attempted = warm.attempted() + asked(&rounds);
    let mut failed = warm.failed + failures(&rounds);

    put(&mut per_layer, "host.kernel_us", kernel_us, "us");
    let mut totals = None;
    if opts.trace {
        parts.report(&mut per_layer);
        // Alternate untraced and traced passes, so drift hits both alike.
        let mut tr = Tracer::new(true);
        let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
        let began = Instant::now();
        while plain_s.is_empty() || began.elapsed().as_secs_f64() < opts.seconds / 4.0 {
            let plain = replay(&mut off, &db, call, &queries)?;
            let traced = replay(&mut tr, &db, call, &queries)?;
            attempted += plain.attempted() + traced.attempted();
            failed += plain.failed + traced.failed;
            plain_s.push(plain.wall_s());
            traced_s.push(traced.wall_s());
        }
        let share = median(&mut traced_s) / median(&mut plain_s);
        put(&mut per_layer, "trace.overhead_share", share, "ratio");
        let coverage = trace::coverage(&trace::self_times(&tr.spans), "request");
        notes.push(format!(
            "traced pass: span self times sum to {coverage:.4} of the request durations"
        ));

        let sample = &queries[..queries.len().min(opts.ops(600))];
        let probe_rows = layers::head(&d, shard_rows);
        if sharded {
            // Truth in `queries` is over all rows; the one-shard probe holds
            // only the first shard's, so give it a query list of its own.
            let own = layers::anchored_query_list(
                &probe_rows,
                &[1, 2, 3],
                opts.per_class(100),
                opts.seed,
            );
            probes::planner(b, &mut tr, probe_rows, set, &own, &mut per_layer);
            probes::shard_visit(b, &db, d.clone(), call, sample, &mut per_layer)?;
        } else {
            probes::planner(b, &mut tr, probe_rows, set, sample, &mut per_layer);
        }
        probes::shards(&db, sample, &mut per_layer)?;
        totals = Some(write_trace(opts, name, &tr)?);
    }
    Ok(RunResult {
        workload: name,
        attempted,
        failed,
        end_to_end: e2e,
        per_layer,
        notes,
        trace: totals,
    })
}

fn write_trace(
    opts: &Opts,
    name: &str,
    tr: &Tracer,
) -> Result<BTreeMap<&'static str, NameTotal>, String> {
    std::fs::create_dir_all(&opts.out_dir).map_err(text)?;
    let path = opts.out_dir.join(format!("{name}.trace.json"));
    // At most this many spans are written; the totals cover all of them.
    let kept = &tr.spans[..tr.spans.len().min(200_000)];
    std::fs::write(&path, trace::spans_json(kept).render()).map_err(text)?;
    Ok(trace::self_times(&tr.spans))
}

// ------------------------------------------------ workload 4: ingest_while_query

enum Mutation {
    Insert(Vec<layers::Cell>),
    Delete(u32),
}

/// The seed's mutation list and, per query, what each mutation does to its
/// answer — the in-memory twin every read and the recovered database are
/// checked against. No compaction runs, so row ids are stable: the `j`-th
/// insert gets id `base_rows + j`.
struct Twin {
    mutations: Vec<Mutation>,
    /// Per query: `(mutation index, row id)` of inserted rows that match.
    insert_hits: Vec<Vec<(u32, u32)>>,
    /// Per query: `(mutation index, row id)` of deletes that take a row out
    /// of its answer on the unmodified rows — a handful, so a read is checked
    /// without building the set of everything deleted so far.
    delete_hits: Vec<Vec<(u32, u32)>>,
    /// `(mutation index, row id)` of every delete, by mutation index.
    deletes: Vec<(u32, u32)>,
}

impl Twin {
    fn build(
        base: &Dataset,
        fresh: &Dataset,
        n_mutations: usize,
        queries: &[Query],
        seed: u64,
    ) -> Twin {
        let base_rows = layers::n_rows(base) as u32;
        // Distinct victims among the base rows, in an order the seed picks.
        let mut victims: Vec<u32> = (0..base_rows).collect();
        victims.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let (mut mutations, mut deletes) = (Vec::new(), Vec::new());
        let mut inserted: Vec<(u32, u32, Vec<layers::Cell>)> = Vec::new();
        for i in 0..n_mutations as u32 {
            if i % 20 == 19 {
                let id = victims[deletes.len() % victims.len()];
                deletes.push((i, id));
                mutations.push(Mutation::Delete(id));
            } else {
                let row = layers::row(fresh, inserted.len());
                inserted.push((i, base_rows + inserted.len() as u32, row.clone()));
                mutations.push(Mutation::Insert(row));
            }
        }
        let insert_hits = queries
            .iter()
            .map(|q| {
                inserted
                    .iter()
                    .filter(|(_, _, row)| layers::row_matches(&q.q, row))
                    .map(|&(at, id, _)| (at, id))
                    .collect()
            })
            .collect();
        let delete_hits = queries
            .iter()
            .map(|q| {
                let in_answer = |&&(_, id): &&(u32, u32)| q.truth.binary_search(&id).is_ok();
                deletes.iter().filter(in_answer).copied().collect()
            })
            .collect();
        Twin {
            mutations,
            insert_hits,
            delete_hits,
            deletes,
        }
    }

    fn n_inserts(n_mutations: usize) -> usize {
        n_mutations - n_mutations / 20
    }

    /// Ids deleted by the first `watermark` mutations.
    fn deleted_before(&self, watermark: u64) -> BTreeSet<u32> {
        self.deletes
            .iter()
            .take_while(|&&(at, _)| (at as u64) < watermark)
            .map(|&(_, id)| id)
            .collect()
    }

    /// The answer to query `qi` after the first `watermark` mutations.
    fn truth_at(&self, qi: usize, base_truth: &[u32], watermark: u64) -> Vec<u32> {
        let before = |hits: &[(u32, u32)]| -> Vec<u32> {
            let applied = hits.iter().take_while(|&&(at, _)| (at as u64) < watermark);
            applied.map(|&(_, id)| id).collect()
        };
        let gone = before(&self.delete_hits[qi]);
        let mut rows: Vec<u32> = base_truth
            .iter()
            .copied()
            .filter(|r| !gone.contains(r))
            .collect();
        rows.extend(before(&self.insert_hits[qi]));
        rows
    }
}

/// Sleeps, then spins, until `due`; returns how late it woke.
fn wait_until(due: Instant) -> Duration {
    loop {
        let now = Instant::now();
        if now >= due {
            return now - due;
        }
        let left = due - now;
        if left > Duration::from_micros(400) {
            std::thread::sleep(left - Duration::from_micros(300));
        } else {
            std::hint::spin_loop();
        }
    }
}

struct IngestPhase {
    rounds: Vec<Round>,
    /// Insert latencies from their due time, by round.
    insert_ns: Vec<Vec<u64>>,
    writer_s: f64,
    acked_inserts: u64,
    write_failures: u64,
}

/// What both phases of `ingest_while_query` run against.
struct Ingest<'a> {
    db: &'a layers::ConcurrentDb,
    twin: &'a Twin,
    queries: &'a [Query],
    checkpoint_every: usize,
}

/// The paced writer beside the closed-loop reader, from mutation `from`
/// for `count` mutations.
fn ingest_phase(
    tr: &mut Tracer,
    on: &Ingest,
    from: usize,
    count: usize,
) -> Result<IngestPhase, String> {
    let Ingest {
        db,
        twin,
        queries,
        checkpoint_every,
    } = *on;
    let rate = spec::INGEST_MUTATIONS_PER_S;
    let span_s = count as f64 / rate;
    let stop = AtomicBool::new(false);
    let mut writer_tr = tr.sibling();
    let mut reader_tr = tr.sibling();
    let t0 = Instant::now() + Duration::from_millis(5);
    let round_of = |at: Instant| {
        let share = at.saturating_duration_since(t0).as_secs_f64() / span_s;
        ((share * ROUNDS as f64) as usize).min(ROUNDS - 1)
    };

    let (written, read) = std::thread::scope(|s| {
        let writer = s.spawn(|| -> Result<_, String> {
            let mut insert_ns = vec![Vec::new(); ROUNDS];
            let (mut acked, mut failures) = (0u64, 0u64);
            for (i, m) in twin.mutations[from..from + count].iter().enumerate() {
                let due = t0 + Duration::from_secs_f64(i as f64 / rate);
                wait_until(due);
                let id = (from + i) as u32;
                let request = writer_tr.open("request", NO_SPAN, id);
                match m {
                    Mutation::Insert(row) => {
                        let ok = layers::insert(&mut writer_tr, request, id, db, row).is_ok();
                        writer_tr.close(request);
                        // Open loop: a write stalled behind a checkpoint
                        // counts the wait of those queued behind it.
                        insert_ns[round_of(due)].push(due.elapsed().as_nanos() as u64);
                        acked += u64::from(ok);
                        failures += u64::from(!ok);
                    }
                    Mutation::Delete(row) => {
                        let done = layers::delete(&mut writer_tr, request, id, db, *row);
                        writer_tr.close(request);
                        failures += u64::from(done.is_err());
                    }
                }
                let done = from + i + 1;
                // None in the last half interval, so recovery has a log to replay.
                if done.is_multiple_of(checkpoint_every)
                    && from + count - done >= checkpoint_every / 2
                {
                    let request = writer_tr.open("request", NO_SPAN, id);
                    let done = layers::checkpoint(&mut writer_tr, request, id, db);
                    writer_tr.close(request);
                    failures += u64::from(done.is_err());
                }
            }
            stop.store(true, Ordering::SeqCst);
            Ok((insert_ns, acked, failures, t0.elapsed().as_secs_f64()))
        });
        let reader = s.spawn(|| -> Result<_, String> {
            let mut rounds = time_sliced(t0, span_s, ROUNDS);
            wait_until(t0);
            for (n, (qi, q)) in queries.iter().enumerate().cycle().enumerate() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let began = Instant::now();
                let id = (1 << 24) + n as u32;
                let request = reader_tr.open("request", NO_SPAN, id);
                let snap = layers::snapshot(&mut reader_tr, request, id, db);
                let answer = layers::query_sharded(
                    &mut reader_tr,
                    request,
                    id,
                    layers::snapshot_db(&snap),
                    QueryCall::Execute,
                    &q.q,
                )?;
                reader_tr.close(request);
                let ns = began.elapsed().as_nanos() as u64;
                let truth = twin.truth_at(qi, &q.truth, layers::watermark(&snap));
                rounds[round_of(began)].record(q.is_match, ns, answer.agrees_with(&truth));
            }
            Ok(rounds)
        });
        (writer.join(), reader.join())
    });
    let (insert_ns, acked_inserts, write_failures, writer_s) =
        written.map_err(|_| "the writer thread panicked".to_string())??;
    let rounds = read.map_err(|_| "the reader thread panicked".to_string())??;
    tr.absorb(writer_tr);
    tr.absorb(reader_tr);
    Ok(IngestPhase {
        rounds,
        insert_ns,
        writer_s,
        acked_inserts,
        write_failures,
    })
}

fn ingest(b: &mut Bench) -> Result<RunResult, String> {
    let name = "ingest_while_query";
    let opts = b.opts;
    let n = opts.rows(50_000);
    let shard_rows = opts.rows(8_192);
    let dir: PathBuf = opts
        .out_dir
        .join(format!("{name}-{}-db", std::process::id()));
    let probe_dir = opts
        .out_dir
        .join(format!("{name}-{}-probe", std::process::id()));
    let _cleanup = DirGuard(vec![dir.clone(), probe_dir.clone()]);

    let measured_s = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let traced_s = if opts.trace { opts.seconds / 4.0 } else { 0.0 };
    let per_s = spec::INGEST_MUTATIONS_PER_S;
    let n_measured = ((measured_s * per_s) as usize).max(20);
    let n_traced = (traced_s * per_s) as usize;
    let n_mutations = n_measured + n_traced;
    // The issue's cadence: a checkpoint every 1,000 mutations (2.5 s).
    let checkpoint_every = opts.ops(1_000).max(10);

    let mut parts = SetupParts::default();
    let (setup_s, (d, db)) = repeat_setup(opts, || {
        let _ = std::fs::remove_dir_all(&dir);
        let (g, d) = timed_ms(|| layers::census(n, opts.seed));
        let (t, db) = timed_ms(|| layers::create_durable(&dir, d.clone(), shard_rows));
        parts.gen_ms.push(g);
        parts.build_ms.push(t);
        Ok((d, db.map_err(text)?))
    })?;
    let fresh = layers::census(
        Twin::n_inserts(n_mutations).max(1),
        opts.seed.wrapping_add(1),
    );
    let queries = layers::query_list(&d, &[1, 2, 4], opts.per_class(334), opts.seed);
    let twin = Twin::build(&d, &fresh, n_mutations, &queries, opts.seed);

    // Warm-up and check on the unmodified database.
    let mut off = Tracer::new(false);
    let snap = layers::snapshot(&mut off, NO_SPAN, 0, &db);
    let warm = replay(
        &mut off,
        layers::snapshot_db(&snap),
        QueryCall::Execute,
        &queries,
    )?;
    let index_bytes_per_row = layers::index_bytes_per_row(layers::snapshot_db(&snap));
    drop(snap);
    let mut notes = vec![format!(
        "writer paced at {per_s} mutations/s, one delete per 20, a checkpoint every \
         {checkpoint_every}; WAL flush policy: the engine's own, one fsync per append"
    )];

    let on = Ingest {
        db: &db,
        twin: &twin,
        queries: &queries,
        checkpoint_every,
    };
    let (kernel_us, phase) = host::around(|| ingest_phase(&mut off, &on, 0, n_measured));
    let mut phase = phase?;
    let mut e2e = Metrics::new();
    e2e.insert("setup_s".into(), setup_s);
    let mut per_layer = Metrics::new();
    summarise(&mut phase.rounds, &mut e2e, &mut per_layer, &mut notes);
    put(&mut e2e, "index_bytes_per_row", index_bytes_per_row, "B");

    put(&mut per_layer, "host.kernel_us", kernel_us, "us");
    let mut inserts: Vec<_> = phase.insert_ns.iter_mut().collect();
    per_layer.insert("insert_us_p50".into(), p50_stat(&mut inserts));
    per_layer.insert(
        "insert_us_p99".into(),
        p99_stat(&mut inserts, "insert_us_p99", &mut notes),
    );
    // The writer's own pace, unless it fell behind.
    put(
        &mut per_layer,
        "inserts_per_s",
        phase.acked_inserts as f64 / phase.writer_s,
        "1/s",
    );

    let mut attempted = warm.attempted() + asked(&phase.rounds) + n_measured as u64;
    let mut failed = warm.failed + failures(&phase.rounds) + phase.write_failures;

    let mut tr = Tracer::new(true);
    if n_traced > 0 {
        let traced = ingest_phase(&mut tr, &on, n_measured, n_traced)?;
        attempted += attempted_of(&traced);
        failed += failures(&traced.rounds) + traced.write_failures;
        // Time-driven phases have no pass time to compare: the overhead is
        // the traced phase's median query latency over the untraced one's.
        let share = overall_p50(&traced.rounds) / overall_p50(&phase.rounds);
        put(&mut per_layer, "trace.overhead_share", share, "ratio");
    }

    // Restart: drop the handle, reopen, and check what the twin says must
    // be there — every acknowledged row, and a probe of 200 queries.
    drop(db);
    // Three times: nothing checkpoints in between, so each reopening loads
    // the same snapshot and replays the same log.
    let mut recovery_s = Vec::new();
    let mut reopened = None;
    for _ in 0..3 {
        drop(reopened.take());
        let (ms, db) = timed_ms(|| layers::open_durable(&dir));
        recovery_s.push(ms / 1e3);
        reopened = Some(db.map_err(text)?);
    }
    let reopened = reopened.expect("three reopenings");
    per_layer.insert("recovery_s".into(), Stat::of_rounds(recovery_s, "s", 3));
    let snap = layers::snapshot(&mut off, NO_SPAN, 0, &reopened);
    let recovered = layers::snapshot_db(&snap);
    let w = n_mutations as u64;
    let n_base = layers::n_rows(&d) as u32;
    let gone = twin.deleted_before(w);
    let mut live: Vec<u32> = (0..n_base).filter(|r| !gone.contains(r)).collect();
    live.extend(n_base..n_base + Twin::n_inserts(n_mutations) as u32);
    let everything = layers::query_sharded(
        &mut off,
        NO_SPAN,
        0,
        recovered,
        QueryCall::Execute,
        &layers::all_rows_query(&d),
    )?;
    let lost = if everything.agrees_with(&live) {
        0
    } else {
        live.len().abs_diff(layers::live_rows(recovered)).max(1) as u64
    };
    if lost > 0 {
        notes.push(format!(
            "recovery lost or invented {lost} acknowledged rows"
        ));
    }
    attempted += 1;
    failed += lost;
    for (qi, q) in queries.iter().enumerate().take(200) {
        let answer =
            layers::query_sharded(&mut off, NO_SPAN, 0, recovered, QueryCall::Execute, &q.q)?;
        b.tally
            .check(answer.agrees_with(&twin.truth_at(qi, &q.truth, w)));
    }
    let disk = layers::dir_bytes(&dir).map_err(text)? as f64;
    put(
        &mut per_layer,
        "disk_bytes_per_row",
        disk / live.len().max(1) as f64,
        "B",
    );

    let mut totals = None;
    if opts.trace {
        parts.report(&mut per_layer);
        let sample = &queries[..queries.len().min(opts.ops(600))];
        probes::shards(recovered, sample, &mut per_layer)?;
        drop(snap);
        drop(reopened);
        // The planner and durability probes run on the first shard's rows,
        // with a query list (and truth) of their own.
        let small = layers::head(&d, shard_rows);
        let own = layers::query_list(&small, &[1, 2, 4], opts.per_class(100), opts.seed);
        probes::planner(
            b,
            &mut tr,
            small.clone(),
            IndexSet::PaperTrio,
            &own,
            &mut per_layer,
        );
        probes::durability(
            b,
            &probe_dir,
            &small,
            &fresh,
            shard_rows,
            &own,
            &mut per_layer,
        )
        .map_err(text)?;
        totals = Some(write_trace(opts, name, &tr)?);
    }
    Ok(RunResult {
        workload: name,
        attempted,
        failed,
        end_to_end: e2e,
        per_layer,
        notes,
        trace: totals,
    })
}

fn attempted_of(phase: &IngestPhase) -> u64 {
    asked(&phase.rounds) + phase.insert_ns.iter().map(|r| r.len() as u64).sum::<u64>()
}

/// Removes the benchmark's database directories when the run ends, however
/// it ends.
struct DirGuard(Vec<PathBuf>);

impl Drop for DirGuard {
    fn drop(&mut self) {
        for dir in &self.0 {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

// ------------------------------------------------------------ workload 5: served

struct Served {
    handle: Option<layers::ServerHandle>,
    conn: layers::Connection,
    db: Arc<layers::ConcurrentDb>,
    d: Dataset,
    /// Requests sent on `conn` so far: ids are sequential from 1.
    sent: u64,
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            layers::stop_server(h);
        }
    }
}

/// One served query in four asks for a count instead of rows.
fn count_only(qi: usize) -> bool {
    qi.is_multiple_of(4)
}

struct OpenLoop {
    rounds: Vec<Round>,
    late_ns: Vec<u64>,
    shed: u64,
    expired: u64,
}

/// An open-loop round holds a few hundred samples, not thousands: fewer,
/// longer rounds keep its medians steady.
const OPEN_LOOP_ROUNDS: usize = 5;

/// Exponential inter-arrivals from the seed, scaled so that exactly `n`
/// requests fall due in `seconds`: the offered rate is the same on every
/// seed.
fn schedule(n: usize, seconds: f64, seed: u64) -> Vec<f64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut at = 0.0;
    let mut due: Vec<f64> = (0..n)
        .map(|_| {
            at += -(1.0 - rng.gen::<f64>()).ln();
            at
        })
        .collect();
    let scale = seconds / (at + 1.0);
    due.iter_mut().for_each(|t| *t *= scale);
    due
}

/// One open-loop phase at `rate` requests per second: a generator thread
/// sends on schedule, a receiver thread times each reply from the instant
/// its request was *due*.
fn open_loop(
    tr: &mut Tracer,
    s: &mut Served,
    queries: &[Query],
    rate: f64,
    seconds: f64,
    seed: u64,
) -> Result<OpenLoop, String> {
    let n = ((rate * seconds) as usize).max(1);
    let due = schedule(n, seconds, seed);
    let first_id = s.sent + 1;
    s.sent += n as u64;
    let offset = first_id as usize; // so that phases start on different queries
    let t0 = Instant::now() + Duration::from_millis(5);
    let (mut gen_tr, mut recv_tr) = (tr.sibling(), tr.sibling());
    let layers::Connection { tx, rx } = &mut s.conn;
    let due = &due;

    let (sent, received) = std::thread::scope(|scope| {
        let generator = scope.spawn(|| -> Result<Vec<u64>, String> {
            let mut late = Vec::with_capacity(n);
            for (i, at) in due.iter().enumerate() {
                late.push(wait_until(t0 + Duration::from_secs_f64(*at)).as_nanos() as u64);
                let qi = (offset + i) % queries.len();
                let id =
                    layers::send_query(&mut gen_tr, i as u32, tx, &queries[qi].q, count_only(qi))
                        .map_err(text)?;
                if id != first_id + i as u64 {
                    return Err(format!(
                        "request id {id} where {} was expected",
                        first_id + i as u64
                    ));
                }
            }
            Ok(late)
        });
        let receiver = scope.spawn(|| -> Result<OpenLoop, String> {
            let mut out = OpenLoop {
                rounds: time_sliced(t0, seconds, OPEN_LOOP_ROUNDS),
                late_ns: Vec::new(),
                shed: 0,
                expired: 0,
            };
            let mut receive = || -> Result<(), String> {
                for _ in 0..n {
                    let (id, reply, began) = layers::recv(rx).map_err(text)?;
                    let end = Instant::now();
                    let i = id
                        .checked_sub(first_id)
                        .filter(|&i| i < n as u64)
                        .ok_or_else(|| format!("reply to unknown request {id}"))?
                        as usize;
                    let q = &queries[(offset + i) % queries.len()];
                    let was_due = t0 + Duration::from_secs_f64(due[i]);
                    let request = recv_tr.record("request", was_due, end, NO_SPAN, i as u32);
                    recv_tr.record("client.recv", began, end, request, i as u32);
                    let round = (due[i] / seconds * OPEN_LOOP_ROUNDS as f64) as usize;
                    let round = round.min(OPEN_LOOP_ROUNDS - 1);
                    let ns = end.saturating_duration_since(was_due).as_nanos() as u64;
                    out.rounds[round].record(q.is_match, ns, reply.agrees_with(&q.truth));
                    out.shed += u64::from(matches!(reply, Reply::Shed));
                    out.expired += u64::from(matches!(reply, Reply::Expired));
                }
                Ok(())
            };
            receive().map(|()| out)
        });
        (generator.join(), receiver.join())
    });
    let late_ns = sent.map_err(|_| "the generator thread panicked".to_string())??;
    let mut out = received.map_err(|_| "the receiver thread panicked".to_string())??;
    out.late_ns = late_ns;
    tr.absorb(gen_tr);
    tr.absorb(recv_tr);
    tr.adopt_orphans("request");
    Ok(out)
}

/// `callers` callers on the one connection, each sending its next query when
/// a reply arrives, for `seconds`: a closed loop with `callers` requests in
/// flight. A request's latency runs from its send to its reply.
fn callers(
    tr: &mut Tracer,
    s: &mut Served,
    queries: &[Query],
    callers: u64,
    seconds: f64,
) -> Result<Vec<Round>, String> {
    let first_id = s.sent + 1;
    let mut sent_at: Vec<Instant> = Vec::new();
    let mut received = 0u64;
    let began = Instant::now();
    let mut rounds = time_sliced(began, seconds, ROUNDS);
    let round_of = |at: Instant| {
        let share = (at - began).as_secs_f64() / seconds;
        ((share * ROUNDS as f64) as usize).min(ROUNDS - 1)
    };
    let mut closing = false;
    loop {
        closing |= began.elapsed().as_secs_f64() >= seconds;
        while !closing && sent_at.len() as u64 - received < callers {
            let qi = s.sent as usize % queries.len();
            let request = sent_at.len() as u32;
            sent_at.push(Instant::now());
            let id =
                layers::send_query(tr, request, &mut s.conn.tx, &queries[qi].q, count_only(qi));
            s.sent += 1;
            if id.map_err(text)? != s.sent {
                return Err(format!("request ids left their sequence at {}", s.sent));
            }
        }
        if sent_at.len() as u64 == received {
            break; // drained
        }
        let (id, reply, recv_began) = layers::recv(&mut s.conn.rx).map_err(text)?;
        let end = Instant::now();
        received += 1;
        let i = id
            .checked_sub(first_id)
            .filter(|&i| i < sent_at.len() as u64)
            .ok_or_else(|| format!("reply to unknown request {id}"))? as usize;
        let request = tr.record("request", sent_at[i], end, NO_SPAN, i as u32);
        tr.record(
            "client.recv",
            recv_began.max(sent_at[i]),
            end,
            request,
            i as u32,
        );
        let q = &queries[(id - 1) as usize % queries.len()];
        let ns = (end - sent_at[i]).as_nanos() as u64;
        rounds[round_of(sent_at[i])].record(q.is_match, ns, reply.agrees_with(&q.truth));
    }
    tr.adopt_orphans("request");
    Ok(rounds)
}

/// Callers the measured phase of `served` keeps on its connection.
const SERVED_CALLERS: u64 = 4;

fn served(b: &mut Bench) -> Result<RunResult, String> {
    let name = "served";
    let opts = b.opts;
    let n = opts.rows(50_000);
    let mut parts = SetupParts::default();
    let (setup_s, mut s) = repeat_setup(opts, || {
        let (g, d) = timed_ms(|| layers::census(n, opts.seed));
        // One shard: this workload isolates the serving path, so sharding idles.
        let (t, db) = timed_ms(|| Arc::new(layers::serve_in_memory(d.clone(), n)));
        parts.gen_ms.push(g);
        parts.build_ms.push(t);
        let (handle, conn) = layers::start_server(Arc::clone(&db), 2, 8).map_err(text)?;
        Ok(Served {
            handle: Some(handle),
            conn,
            db,
            d,
            sent: 0,
        })
    })?;
    let queries = layers::query_list(&s.d, &[1, 2, 4], opts.per_class(334), opts.seed);
    let mut notes = vec![format!(
        "closed loop, {SERVED_CALLERS} callers on one connection, 2 workers, batches of 8, 25% \
         count-only; a latency runs from a request's send to its reply"
    )];

    // Warm-up and check: every query once, one outstanding.
    let mut off = Tracer::new(false);
    let one_outstanding = probes::p50_of(b, queries.len(), |qi| {
        let q = &queries[qi];
        layers::send_query(&mut off, 0, &mut s.conn.tx, &q.q, count_only(qi))?;
        let (_, reply, _) = layers::recv(&mut s.conn.rx)?;
        s.sent += 1;
        Ok::<bool, std::io::Error>(reply.agrees_with(&q.truth))
    })
    .map_err(text)?;

    let seconds = if opts.trace {
        opts.seconds * 0.3
    } else {
        opts.seconds
    };
    let (kernel_us, rounds) =
        host::around(|| callers(&mut off, &mut s, &queries, SERVED_CALLERS, seconds));
    let mut rounds = rounds?;
    let mut e2e = Metrics::new();
    e2e.insert("setup_s".into(), setup_s);
    let mut per_layer = Metrics::new();
    summarise(&mut rounds, &mut e2e, &mut per_layer, &mut notes);
    let snap = layers::snapshot(&mut off, NO_SPAN, 0, &s.db);
    let index_bytes = layers::index_bytes_per_row(layers::snapshot_db(&snap));
    put(&mut e2e, "index_bytes_per_row", index_bytes, "B");
    let mut attempted = asked(&rounds);
    let mut failed = failures(&rounds);

    put(&mut per_layer, "host.kernel_us", kernel_us, "us");
    let mut totals = None;
    if opts.trace {
        parts.report(&mut per_layer);

        // server.overhead_us: served with one outstanding, minus the same
        // queries executed directly on a snapshot the way a worker does.
        let direct = probes::p50_of(b, queries.len(), |qi| {
            let q = &queries[qi];
            let db = layers::snapshot_db(&snap);
            layers::query_sharded(&mut off, NO_SPAN, 0, db, QueryCall::ExecuteThreads(1), &q.q)
                .map(|answer| answer.agrees_with(&q.truth))
        })?;
        let overhead = (one_outstanding.value - direct.value) / 1e3;
        put(&mut per_layer, "server.overhead_us", overhead, "us");
        let ping = probes::p50_of(b, opts.ops(400), |_| {
            layers::send_ping(&mut s.conn.tx)?;
            let (_, reply, _) = layers::recv(&mut s.conn.rx)?;
            s.sent += 1;
            Ok::<bool, std::io::Error>(matches!(reply, Reply::Pong))
        })
        .map_err(text)?;
        put(&mut per_layer, "server.ping_rtt_us", ping.value / 1e3, "us");

        let mut tr = Tracer::new(true);
        let traced = callers(
            &mut tr,
            &mut s,
            &queries,
            SERVED_CALLERS,
            opts.seconds * 0.3,
        )?;
        let share = overall_p50(&traced) / overall_p50(&rounds);
        put(&mut per_layer, "trace.overhead_share", share, "ratio");

        // The knee: open loop at a fixed high rate, timed from the instant a
        // request was due; then the flood, for what the server sustains.
        let hi_rps = spec::SERVED_HI_RPS;
        notes.push(format!(
            "hi phase: open loop at {hi_rps} req/s, exponential inter-arrivals from the seed; \
             flood: 32 callers"
        ));
        let mut hi = open_loop(
            &mut off,
            &mut s,
            &queries,
            hi_rps,
            opts.seconds * 0.25,
            opts.seed,
        )?;
        let n_hi = asked(&hi.rounds);
        // Both semantics, the whole phase pooled: a quarter of the run is too
        // short for its rounds to hold a p99 each.
        let mut all: Vec<Vec<u64>> = hi.rounds.iter().map(Round::all_ns).collect();
        let mut pooled: Vec<_> = all.iter_mut().collect();
        per_layer.insert(
            "hi_rate_us_p99".into(),
            p99_stat(&mut pooled, "hi_rate_us_p99", &mut notes),
        );
        put(
            &mut per_layer,
            "server.shed_share",
            hi.shed as f64 / n_hi.max(1) as f64,
            "ratio",
        );
        put(
            &mut per_layer,
            "server.expired_share",
            hi.expired as f64 / n_hi.max(1) as f64,
            "ratio",
        );
        hi.late_ns.sort_unstable();
        let late = percentile(&hi.late_ns, 0.99) as f64 / 1e3;
        put(&mut per_layer, "server.generator_late_us_p99", late, "us");

        let flood = callers(&mut off, &mut s, &queries, 32, opts.seconds * 0.15)?;
        let mut rates: Vec<f64> = flood
            .iter()
            .map(|r| r.correct as f64 / r.wall_s())
            .collect();
        put(&mut per_layer, "capacity_rps", median(&mut rates), "1/s");

        for phase in [&traced, &hi.rounds, &flood] {
            attempted += asked(phase);
            failed += failures(phase);
        }
        let sample = &queries[..queries.len().min(opts.ops(600))];
        probes::shards(layers::snapshot_db(&snap), sample, &mut per_layer)?;
        drop(snap);
        let d = s.d.clone();
        drop(s); // stop the server before the probes that switch its Recorder off
        probes::codec(b, &queries, &mut per_layer).map_err(text)?;
        probes::planner(b, &mut tr, d, IndexSet::PaperTrio, sample, &mut per_layer);
        totals = Some(write_trace(opts, name, &tr)?);
    } else {
        drop(snap);
        drop(s);
    }
    // The server installed the process-global Recorder; leave none behind.
    layers::obs_recorder(false);
    Ok(RunResult {
        workload: name,
        attempted,
        failed,
        end_to_end: e2e,
        per_layer,
        notes,
        trace: totals,
    })
}
