//! Single-layer probes: each times calls into one crate, from outside, on
//! inputs made from the seed. The stand-alone probes (kernels, bit vectors,
//! indexes, VA-file, scan, core) run on `grid36` in every traced run; the
//! shard, durability and server probes ride on the workload that keeps
//! their layer busy and read 0 elsewhere.

use crate::layers::{self, Dataset, IndexKind, IndexSet, PlannerProbe, Query, QueryCall};
use crate::stats::{median, percentile, Stat};
use crate::trace::{Tracer, NO_SPAN};
use crate::{Bench, Metrics};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub fn put(out: &mut Metrics, name: impl Into<String>, value: f64, unit: &'static str) {
    out.insert(name.into(), Stat::single(value, unit));
}

/// Nanoseconds per call of `f`: the median of `batches` batches, each of as
/// many calls as fill `batch_ns`.
pub fn ns_per_call(b: &Bench, mut f: impl FnMut()) -> Stat {
    let (batches, batch_ns) = if b.opts.smoke { (3, 3e5) } else { (5, 4e6) };
    let t = Instant::now();
    f();
    let once = t.elapsed().as_nanos().max(1) as f64;
    let calls = ((batch_ns / once).ceil() as usize).clamp(1, 1_000_000);
    let per_call: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    Stat::of_rounds(per_call, "ns", (batches * calls) as u64)
}

fn scaled(stat: Stat, factor: f64, unit: &'static str) -> Stat {
    Stat {
        value: stat.value * factor,
        unit,
        ..stat
    }
}

/// Milliseconds one call of `f` took, and what it returned.
pub fn timed_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_nanos() as f64 / 1e6, out)
}

/// Median nanoseconds of `n` timed calls of `op`, which says whether its
/// answer was right.
pub fn p50_of<E>(
    b: &mut Bench,
    n: usize,
    mut op: impl FnMut(usize) -> Result<bool, E>,
) -> Result<Stat, E> {
    let mut ns = Vec::with_capacity(n);
    for i in 0..n {
        let t = Instant::now();
        let ok = op(i)?;
        ns.push(t.elapsed().as_nanos() as u64);
        b.tally.check(ok);
    }
    ns.sort_unstable();
    Ok(Stat {
        value: percentile(&ns, 0.5) as f64,
        unit: "ns",
        samples: n as u64,
        spread: None,
    })
}

/// [`p50_of`] for operations that cannot fail, in microseconds.
fn p50_us_of(b: &mut Bench, n: usize, mut op: impl FnMut(usize) -> bool) -> Stat {
    let stat = p50_of(b, n, |i| Ok::<bool, std::convert::Infallible>(op(i)));
    scaled(stat.unwrap_or_else(|e| match e {}), 1e-3, "us")
}

/// Kernels, bit vectors, indexes, VA-file, scan and core, on `grid36`.
pub fn standalone(b: &mut Bench) -> Metrics {
    let mut out = Metrics::new();
    kernel(b, &mut out);
    bitvec(b, &mut out);
    let d = layers::grid36(b.opts.rows(100_000), b.opts.seed);
    let queries = layers::query_list(&d, &[1, 2, 4, 8], b.opts.per_class(60), b.opts.seed);
    indexes(b, &Arc::new(d), &queries, &mut out);
    core(b, &queries, &mut out);
    out
}

fn kernel(b: &mut Bench, out: &mut Metrics) {
    // 4 MiB per operand: larger than this host's L2, so memcpy is a roofline.
    let words = if b.opts.smoke { 1 << 14 } else { 1 << 19 };
    let mut ops = layers::kernel_ops(words, b.opts.seed);
    let bytes = ops.bytes as f64;
    // Bytes read and written per call, so the figures compare with memcpy.
    type Probe<'a> = (&'a str, f64, &'a mut Box<dyn FnMut()>);
    let probes: [Probe; 5] = [
        ("memcpy", 2.0, &mut ops.memcpy),
        ("and", 3.0, &mut ops.and),
        ("or_in_place", 3.0, &mut ops.or_in_place),
        ("popcount", 1.0, &mut ops.popcount),
        ("and_popcount", 2.0, &mut ops.and_popcount),
    ];
    for (name, operands, f) in probes {
        let ns = ns_per_call(b, f);
        let gbps = Stat {
            value: operands * bytes / ns.value,
            unit: "GB/s",
            ..ns
        };
        out.insert(format!("bitvec.kernel.{name}_gbps"), gbps);
    }
}

fn bitvec(b: &mut Bench, out: &mut Metrics) {
    let bits = if b.opts.smoke { 1 << 16 } else { 1 << 20 };
    for (i, shape) in crate::spec::SHAPES.into_iter().enumerate() {
        let planes = layers::bit_planes(shape, bits, b.opts.seed.wrapping_add(i as u64));
        for backend in crate::spec::BACKENDS.into_iter().chain(["bbc"]) {
            if backend == "bbc" && shape != "sparse" {
                continue;
            }
            let ops = layers::bit_ops(backend, &planes);
            let per_word = 1.0 / ops.words as f64;
            let and = ns_per_call(b, &ops.and);
            out.insert(
                format!("bitvec.{backend}.and_ns_per_word.{shape}"),
                scaled(and, per_word, "ns"),
            );
            if backend == "bbc" {
                continue; // the ablation row is this one figure
            }
            let fold = ns_per_call(b, &ops.or_fold16);
            out.insert(
                format!("bitvec.{backend}.or_fold16_ns_per_word.{shape}"),
                scaled(fold, per_word / 15.0, "ns"),
            );
            let not = ns_per_call(b, &ops.not);
            out.insert(
                format!("bitvec.{backend}.not_ns_per_word.{shape}"),
                scaled(not, per_word, "ns"),
            );
            put(
                out,
                format!("bitvec.{backend}.bytes_per_kbit.{shape}"),
                ops.bytes as f64 * 1000.0 / bits as f64,
                "B",
            );
            if shape == "sparse" {
                let positions = ns_per_call(b, &ops.positions);
                out.insert(
                    format!("bitvec.{backend}.positions_ns_per_hit"),
                    scaled(positions, 1.0 / ops.hits.max(1) as f64, "ns"),
                );
            }
        }
    }
}

fn indexes(b: &mut Bench, d: &Arc<Dataset>, queries: &[Query], out: &mut Metrics) {
    let mut tr = Tracer::new(false);
    let kinds = [
        ("bitmap.bee_wah", IndexKind::BeeWah),
        ("bitmap.bre_wah", IndexKind::BreWah),
        ("bitmap.bee_plain", IndexKind::BeePlain),
        ("bitmap.bre_plain", IndexKind::BrePlain),
        ("bitmap.adaptive", IndexKind::Adaptive),
        ("vafile.va", IndexKind::Va),
        ("baseline.seqscan", IndexKind::Scan),
    ];
    let n = queries.len();
    for (prefix, kind) in kinds {
        let (build_ms, index) = timed_ms(|| layers::build_index(kind, d));
        let query_us = p50_us_of(b, n, |i| {
            let q = &queries[i];
            index
                .execute(&mut tr, NO_SPAN, 0, &q.q)
                .agrees_with(&q.truth)
        });
        out.insert(format!("{prefix}.query_us"), query_us);
        if kind == IndexKind::Scan {
            continue;
        }
        let count_us = p50_us_of(b, n, |i| {
            index.count(&queries[i].q).agrees_with(&queries[i].truth)
        });
        out.insert(format!("{prefix}.count_us"), count_us);
        put(
            out,
            format!("{prefix}.bytes_per_row"),
            index.bytes_per_row(),
            "B",
        );
        put(out, format!("{prefix}.build_ms"), build_ms, "ms");
        let work = queries.iter().fold([0usize; 5], |mut acc, q| {
            for (a, w) in acc.iter_mut().zip(index.work(&q.q)) {
                *a += w;
            }
            acc
        });
        let [words, bitmaps, fields, candidates, false_positives] = work.map(|w| w as f64);
        let n = n.max(1) as f64;
        if kind == IndexKind::Va {
            put(out, "vafile.va.fields_per_query", fields / n, "count");
            let share = if candidates > 0.0 {
                false_positives / candidates
            } else {
                0.0
            };
            put(out, "vafile.va.false_positive_share", share, "ratio");
        } else {
            put(out, format!("{prefix}.words_per_query"), words / n, "count");
            if matches!(kind, IndexKind::BeeWah | IndexKind::BreWah) {
                put(
                    out,
                    format!("{prefix}.bitmaps_per_query"),
                    bitmaps / n,
                    "count",
                );
            }
        }
    }
}

fn core(b: &mut Bench, queries: &[Query], out: &mut Metrics) {
    let dispatch = ns_per_call(b, || layers::dispatch_noop(2, 64));
    out.insert(
        "core.parallel.dispatch_us".into(),
        scaled(dispatch, 1e-3, "us"),
    );
    let coalesce = ns_per_call(b, || {
        layers::coalesce(queries, 256);
    });
    out.insert("core.coalesce_us".into(), scaled(coalesce, 1e-3, "us"));
}

/// Plan choice, plan time, the database's overhead over the chosen method
/// called directly, and the cost of an installed `ibis::obs::Recorder`, on
/// the workload's own rows and queries. Records `probe` → `storage.explain`
/// + `index.<method>.execute` spans.
pub fn planner(
    b: &mut Bench,
    tr: &mut Tracer,
    d: Dataset,
    set: IndexSet,
    queries: &[Query],
    out: &mut Metrics,
) {
    let probe = PlannerProbe::build(d, set);
    let mut chosen: BTreeMap<&'static str, u64> = BTreeMap::new();
    let (mut plan_ns, mut over_ns) = (Vec::new(), Vec::new());
    for (i, q) in queries.iter().enumerate() {
        let root = tr.open("probe", NO_SPAN, i as u32);
        let t = Instant::now();
        let class = probe.explain(tr, root, i as u32, &q.q);
        plan_ns.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        let direct = probe.method(class).execute(tr, root, i as u32, &q.q);
        let mut direct_ns = t.elapsed().as_nanos() as f64;
        tr.close(root);
        // Direct, database, database, direct: whichever runs second finds the
        // bitmaps in cache, so each side goes second once.
        let t = Instant::now();
        let through_db = probe.execute(&q.q);
        std::hint::black_box(probe.execute(&q.q));
        let db_ns = t.elapsed().as_nanos() as f64;
        let mut off = Tracer::new(false);
        let t = Instant::now();
        std::hint::black_box(probe.method(class).execute(&mut off, NO_SPAN, 0, &q.q));
        direct_ns += t.elapsed().as_nanos() as f64;
        over_ns.push((db_ns - direct_ns) / 2.0);
        let ok = direct.agrees_with(&q.truth) && through_db.agrees_with(&q.truth);
        b.tally.check(ok);
        *chosen.entry(class).or_default() += 1;
    }
    let n = queries.len().max(1) as f64;
    for class in crate::spec::PLAN_CLASSES {
        let share = chosen.get(class).copied().unwrap_or(0) as f64 / n;
        put(out, format!("storage.plan_share.{class}"), share, "ratio");
    }
    plan_ns.sort_unstable();
    put(
        out,
        "storage.plan_us",
        percentile(&plan_ns, 0.5) as f64 / 1e3,
        "us",
    );
    put(
        out,
        "storage.db_overhead_us",
        median(&mut over_ns) / 1e3,
        "us",
    );

    let pass = |on: bool| {
        layers::obs_recorder(on);
        let run = || {
            for q in queries {
                std::hint::black_box(probe.execute(&q.q));
            }
        };
        timed_ms(run).0
    };
    let (off_a, on, off_b) = (pass(false), pass(true), pass(false));
    layers::obs_recorder(false);
    put(
        out,
        "obs.recorder_overhead_share",
        on / off_a.min(off_b),
        "ratio",
    );
}

/// `storage.pruned_share.*` and `storage.shards_executed_per_query`, from
/// `execute_with_stats` on the workload's database.
pub fn shards(db: &layers::ShardedDb, queries: &[Query], out: &mut Metrics) -> Result<(), String> {
    let mut sums = [[0usize; 2]; 2]; // [is_match][total, pruned]
    for q in queries {
        let (total, pruned) = layers::shard_stats(db, &q.q)?;
        sums[usize::from(q.is_match)][0] += total;
        sums[usize::from(q.is_match)][1] += pruned;
    }
    let share = |s: [usize; 2]| {
        if s[0] == 0 {
            0.0
        } else {
            s[1] as f64 / s[0] as f64
        }
    };
    put(out, "storage.pruned_share.match", share(sums[1]), "ratio");
    put(
        out,
        "storage.pruned_share.notmatch",
        share(sums[0]),
        "ratio",
    );
    let executed = (sums[0][0] + sums[1][0] - sums[0][1] - sums[1][1]) as f64;
    put(
        out,
        "storage.shards_executed_per_query",
        executed / queries.len().max(1) as f64,
        "count",
    );
    Ok(())
}

/// `storage.shard_visit_us`: what one more shard visit costs an is-match
/// query — (time on the sharded database − time on a one-shard database
/// over the same rows) ÷ shards executed, median over queries.
pub fn shard_visit(
    b: &mut Bench,
    sharded: &layers::ShardedDb,
    d: Dataset,
    call: QueryCall,
    queries: &[Query],
    out: &mut Metrics,
) -> Result<(), String> {
    let n = layers::n_rows(&d);
    let one = layers::build_sharded(d, n, IndexSet::PaperTrio);
    let mut tr = Tracer::new(false);
    let mut per_visit = Vec::new();
    for q in queries.iter().filter(|q| q.is_match) {
        let mut time = |db: &layers::ShardedDb| -> Result<f64, String> {
            let t = Instant::now();
            let answer = layers::query_sharded(&mut tr, NO_SPAN, 0, db, call, &q.q)?;
            let us = t.elapsed().as_nanos() as f64 / 1e3;
            b.tally.check(answer.agrees_with(&q.truth));
            Ok(us)
        };
        let (many, single) = (time(sharded)?, time(&one)?);
        let (total, pruned) = layers::shard_stats(sharded, &q.q)?;
        per_visit.push((many - single) / (total - pruned).max(1) as f64);
    }
    put(out, "storage.shard_visit_us", median(&mut per_visit), "us");
    Ok(())
}

fn one_pass(tr: &mut Tracer, db: &layers::ConcurrentDb, queries: &[Query]) {
    let snap = layers::snapshot(tr, NO_SPAN, 0, db);
    for q in queries {
        let db = layers::snapshot_db(&snap);
        let _ = layers::query_sharded(tr, NO_SPAN, 0, db, QueryCall::Execute, &q.q);
    }
}

/// WAL, checkpoint, publication, delta and snapshot costs, on a durable
/// database of `d` in `dir` (created and removed here).
pub fn durability(
    b: &mut Bench,
    dir: &Path,
    d: &Dataset,
    fresh: &Dataset,
    shard_rows: usize,
    queries: &[Query],
    out: &mut Metrics,
) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    let mut tr = Tracer::new(false);
    let n_fresh = layers::n_rows(fresh);
    let rows: Vec<Vec<layers::Cell>> = (0..n_fresh).map(|i| layers::row(fresh, i)).collect();
    let appends = b.opts.ops(400).min(n_fresh);

    let mut wal = layers::WalProbe::create(&dir.join("probe.wal"))?;
    let append = p50_of(b, appends, |i| wal.append(&rows[i]).map(|_| true))?;
    out.insert("storage.wal.append_us".into(), scaled(append, 1e-3, "us"));
    drop(wal);

    // The engine counts its own fsyncs and WAL bytes; read them from its
    // recorder around a run of inserts, so the counts are measured.
    let db_dir = dir.join("db");
    let db = layers::create_durable(&db_dir, d.clone(), shard_rows)?;
    layers::obs_recorder(true);
    for row in rows.iter().take(appends) {
        layers::insert(&mut tr, NO_SPAN, 0, &db, row)?;
    }
    let fsyncs = layers::obs_counter("wal.fsyncs") as f64;
    let wal_bytes = layers::obs_counter("wal.append_bytes") as f64;
    layers::obs_recorder(false);
    put(
        out,
        "storage.wal.fsyncs_per_insert",
        fsyncs / appends as f64,
        "count",
    );
    put(
        out,
        "storage.wal.bytes_per_row",
        wal_bytes / appends as f64,
        "B",
    );

    // Replay: reopen three times with `appends` records in the log (nothing
    // checkpoints, so each reopening replays them again), then three times
    // with none; the difference of the medians is the replay.
    drop(db);
    let reopen = || -> std::io::Result<(f64, layers::ConcurrentDb)> {
        let mut ms = Vec::new();
        let mut last = None;
        for _ in 0..3 {
            drop(last.take());
            let (t, db) = timed_ms(|| layers::open_durable(&db_dir));
            ms.push(t);
            last = Some(db?);
        }
        Ok((median(&mut ms), last.expect("three reopenings")))
    };
    let (with_log_ms, db) = reopen()?;
    let mut checkpoint_ms = Vec::new();
    for _ in 0..3 {
        let (ms, done) = timed_ms(|| layers::checkpoint(&mut tr, NO_SPAN, 0, &db));
        done?;
        checkpoint_ms.push(ms);
    }
    put(
        out,
        "storage.checkpoint_ms",
        median(&mut checkpoint_ms),
        "ms",
    );
    drop(db);
    let (without_log_ms, db) = reopen()?;
    drop(db);
    put(
        out,
        "storage.replay_us_per_record",
        (with_log_ms - without_log_ms).max(0.0) * 1e3 / appends as f64,
        "us",
    );

    // Publication and snapshot acquisition need no disk: in-memory backend.
    let mem = layers::serve_in_memory(d.clone(), shard_rows);
    let publishes = b.opts.ops(1_000);
    let publish = p50_of(b, publishes, |i| {
        layers::insert(&mut tr, NO_SPAN, 0, &mem, &rows[i % rows.len()]).map(|()| true)
    })?;
    out.insert("storage.publish_us".into(), scaled(publish, 1e-3, "us"));
    let acquire = ns_per_call(b, || {
        layers::snapshot(&mut tr, NO_SPAN, 0, &mem);
    });
    out.insert("storage.snapshot_acquire_ns".into(), acquire);

    // `mem` now holds ~1,000 un-compacted delta rows: time queries on them,
    // compact, and time the same queries again.
    let mut pass = || {
        let a = timed_ms(|| one_pass(&mut tr, &mem, queries)).0;
        a.min(timed_ms(|| one_pass(&mut tr, &mem, queries)).0)
    };
    let with_delta = pass();
    let (compact_ms, rebuilt) = timed_ms(|| layers::compact(&mem));
    rebuilt?;
    let compacted = pass();
    put(
        out,
        "storage.delta_query_penalty",
        with_delta / compacted,
        "ratio",
    );
    put(out, "storage.compact_ms", compact_ms, "ms");

    let mut tr = Tracer::new(false);
    let snap = layers::snapshot(&mut tr, NO_SPAN, 0, &mem);
    let (write_ms, image) = timed_ms(|| layers::write_snapshot(layers::snapshot_db(&snap)));
    let image = image?;
    let (read_ms, reread) = timed_ms(|| layers::read_snapshot(&image));
    drop(reread?);
    let mb = image.len() as f64 / 1e6;
    put(
        out,
        "storage.snapshot_write_mbps",
        mb / (write_ms / 1e3),
        "MB/s",
    );
    put(
        out,
        "storage.snapshot_read_mbps",
        mb / (read_ms / 1e3),
        "MB/s",
    );
    std::fs::remove_dir_all(dir)
}

/// The four codec steps, on the query with the largest reply.
pub fn codec(b: &mut Bench, queries: &[Query], out: &mut Metrics) -> std::io::Result<()> {
    let q = queries
        .iter()
        .max_by_key(|q| q.truth.len())
        .expect("a non-empty query list");
    if !layers::frame_round_trip(&q.q)? {
        return Err(std::io::Error::other("a framed request did not round-trip"));
    }
    let c = layers::codec(&q.q, &q.truth);
    let per_row = 1.0 / c.n_rows.max(1) as f64;
    let p = "server.protocol";
    out.insert(
        format!("{p}.request_encode_ns"),
        ns_per_call(b, &c.request_encode),
    );
    out.insert(
        format!("{p}.request_decode_ns"),
        ns_per_call(b, &c.request_decode),
    );
    let encode = ns_per_call(b, &c.rows_encode);
    out.insert(
        format!("{p}.rows_encode_ns_per_row"),
        scaled(encode, per_row, "ns"),
    );
    let decode = ns_per_call(b, &c.rows_decode);
    out.insert(
        format!("{p}.rows_decode_ns_per_row"),
        scaled(decode, per_row, "ns"),
    );
    Ok(())
}
