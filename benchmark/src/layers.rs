//! Every call into the repo under test lives in this file, so a rename in
//! `crates/*` is a one-file fix here. Each layer is measured from outside:
//! a function below makes one call into a public function, wrapped in a span
//! of the benchmark's own recorder. Nothing is added inside the crates.
//!
//! Imports are kept to `ibis::prelude`, `ibis::bitvec::{kernel, BitStore}`,
//! `ibis::core::{gen, scan, parallel, coalesce_compatible}`,
//! `ibis::server::{Client, Request, Response, protocol}`, `ibis::storage`
//! and `ibis::obs`.

use crate::trace::{SpanId, Tracer};
use ibis::bitvec::{kernel, BitStore};
use ibis::core::gen::{self, QuerySpec, SyntheticGroup, SyntheticSpec};
use ibis::core::parallel::ExecPool;
use ibis::prelude::*;
use ibis::server::client::{RecvHalf, SendHalf};
use ibis::server::protocol::{self, Frame};
use ibis::server::{Client, ErrorCode, Request, Response};
use ibis::storage::wal::{WalRecord, WalWriter};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub use ibis::prelude::{Cell, ConcurrentDb, Dataset, DbSnapshot, ServerHandle, ShardedDb};

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Pins the degree `execute`/`count` fan out at, so that neither the host's
/// core count nor `IBIS_THREADS` changes what is measured.
pub fn pin_threads(n: usize) {
    ibis::core::parallel::set_threads(n);
}

pub fn kernel_name() -> &'static str {
    kernel::kernel_name()
}

// ---------------------------------------------------------------- inputs

/// `grid36`: cardinality {5, 20, 100} × missing {10, 30, 50}% × 4 uniform
/// columns, a slice of the paper's Table 7.
pub fn grid36(n_rows: usize, seed: u64) -> Dataset {
    let mut groups = Vec::new();
    for cardinality in [5u16, 20, 100] {
        for missing_rate in [0.1, 0.3, 0.5] {
            groups.push(SyntheticGroup {
                cardinality,
                missing_rate,
                n_cols: 4,
            });
        }
    }
    SyntheticSpec { n_rows, groups }.generate(seed)
}

/// `clustered`: 12 columns; attribute 0 (cardinality 100, 10% missing) has
/// its present values sorted into row order, so contiguous shards get tight
/// envelopes; the rest are uniform, cardinality 20, 10% / 30% missing.
pub fn clustered(n_rows: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let anchor = gen::uniform_column("clustered", n_rows, 100, 0.1, &mut rng);
    let mut present: Vec<u16> = anchor.raw().iter().copied().filter(|&v| v != 0).collect();
    present.sort_unstable();
    let mut next = present.into_iter();
    let raw = anchor
        .raw()
        .iter()
        .map(|&v| {
            if v == 0 {
                0
            } else {
                next.next().expect("as many present values")
            }
        })
        .collect();
    let mut columns =
        vec![Column::from_raw("clustered", 100, raw).expect("values stay in the domain")];
    for i in 1..12 {
        let missing = if i % 2 == 0 { 0.1 } else { 0.3 };
        columns.push(gen::uniform_column(
            &format!("u{i}"),
            n_rows,
            20,
            missing,
            &mut rng,
        ));
    }
    Dataset::new(columns).expect("columns share a length")
}

/// `census`: the Zipf-skewed 48-column census stand-in.
pub fn census(n_rows: usize, seed: u64) -> Dataset {
    gen::census_scaled(n_rows, seed)
}

pub fn n_rows(d: &Dataset) -> usize {
    d.n_rows()
}

pub fn row(d: &Dataset, i: usize) -> Vec<Cell> {
    d.row(i)
}

/// Rows `0..n` of `d` as a dataset of their own.
pub fn head(d: &Dataset, n: usize) -> Dataset {
    let columns = d
        .columns()
        .iter()
        .map(|c| {
            Column::from_raw(
                c.name(),
                c.cardinality(),
                c.raw()[..n.min(c.len())].to_vec(),
            )
            .expect("a prefix of a valid column")
        })
        .collect();
    Dataset::new(columns).expect("columns share a length")
}

/// One generated query with its scan truth.
pub struct Query {
    pub q: RangeQuery,
    pub is_match: bool,
    /// `ibis::core::scan::execute` over the rows the query list was made for.
    pub truth: Vec<u32>,
}

fn with_truth(d: &Dataset, qs: Vec<RangeQuery>) -> Vec<Query> {
    qs.into_iter()
        .map(|q| Query {
            is_match: q.policy() == MissingPolicy::IsMatch,
            truth: ibis::core::scan::execute(d, &q).rows().to_vec(),
            q,
        })
        .collect()
}

fn spec(n: usize, k: usize, gs: f64, policy: MissingPolicy, attrs: Vec<usize>) -> QuerySpec {
    QuerySpec {
        n_queries: n,
        k,
        global_selectivity: gs,
        policy,
        candidate_attrs: attrs,
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// `n` queries of dimensionality `k` over `attrs`. Which attributes a query
/// constrains is fixed — query `j` takes every `stride`-th attribute from
/// the `j`-th on — so every seed's list has the same make-up of cheap and
/// costly attributes, and only where the intervals fall (and the rows
/// themselves) changes with the seed. Drawing the attributes at random too
/// made the medians of two seeds differ by 15%.
fn stratified(
    d: &Dataset,
    attrs: &[usize],
    n: usize,
    k: usize,
    gs: f64,
    policy: MissingPolicy,
    seed: u64,
) -> Vec<RangeQuery> {
    let m = attrs.len();
    let coprime = [5, 7, 11, 13].into_iter().find(|&s| gcd(s, m) == 1);
    let stride = coprime.unwrap_or(1);
    (0..n)
        .flat_map(|j| {
            let tuple = (0..k).map(|t| attrs[(j + t * stride) % m]).collect();
            gen::workload(
                d,
                &spec(1, k, gs, policy, tuple),
                seed.wrapping_add(j as u64),
            )
        })
        .collect()
}

fn class_seed(seed: u64, class: usize) -> u64 {
    seed.wrapping_mul(1_000_003)
        .wrapping_add(class as u64 * 100_000)
}

/// `per_class` queries at 1% global selectivity for each k in `ks` × each
/// semantics, shuffled by `seed`. k = 1 yields point queries, k = 8
/// intervals about half the domain wide.
pub fn query_list(d: &Dataset, ks: &[usize], per_class: usize, seed: u64) -> Vec<Query> {
    let all: Vec<usize> = (0..d.n_attrs()).collect();
    let mut qs = Vec::new();
    for (i, &k) in ks.iter().enumerate() {
        for (j, policy) in MissingPolicy::ALL.into_iter().enumerate() {
            let s = class_seed(seed, i * 2 + j);
            qs.extend(stratified(d, &all, per_class, k, 0.01, policy, s));
        }
    }
    qs.shuffle(&mut StdRng::seed_from_u64(seed));
    with_truth(d, qs)
}

/// Like [`query_list`], but three of every four queries constrain attribute
/// 0 (the clustered one), so that is-not-match can prune shards by envelope.
pub fn anchored_query_list(d: &Dataset, ks: &[usize], per_class: usize, seed: u64) -> Vec<Query> {
    let others: Vec<usize> = (1..d.n_attrs()).collect();
    let mut qs = Vec::new();
    for (i, &k) in ks.iter().enumerate() {
        for (j, policy) in MissingPolicy::ALL.into_iter().enumerate() {
            let s = class_seed(seed, (i * 2 + j) * 3);
            let free = per_class / 4;
            qs.extend(stratified(d, &others, free, k, 0.01, policy, s));
            let n = per_class - free;
            let share = 1.0 / k as f64;
            let on_anchor = stratified(d, &[0], n, 1, 0.01f64.powf(share), policy, s + 30_000);
            if k == 1 {
                qs.extend(on_anchor);
                continue;
            }
            let gs_rest = 0.01f64.powf(1.0 - share);
            let rest = stratified(d, &others, n, k - 1, gs_rest, policy, s + 60_000);
            for (a, b) in on_anchor.iter().zip(&rest) {
                let preds = a.predicates().iter().chain(b.predicates());
                qs.push(
                    RangeQuery::new(preds.copied().collect(), policy)
                        .expect("distinct, in-domain predicates"),
                );
            }
        }
    }
    qs.shuffle(&mut StdRng::seed_from_u64(seed));
    with_truth(d, qs)
}

/// Whether `row` satisfies `q` (the semantic definition, cell by cell).
pub fn row_matches(q: &RangeQuery, row: &[Cell]) -> bool {
    q.predicates()
        .iter()
        .all(|p| q.policy().cell_matches(row[p.attr], p.interval))
}

/// A query every row satisfies: attribute 0 over its whole domain, missing
/// is a match.
pub fn all_rows_query(d: &Dataset) -> RangeQuery {
    let c = d.column(0).cardinality();
    RangeQuery::new(vec![Predicate::range(0, 1, c)], MissingPolicy::IsMatch)
        .expect("the full domain is a valid interval")
}

// ------------------------------------------------------- database, in-process

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum IndexSet {
    /// `DbConfig::default()`: BEE-WAH, BRE-WAH and a VA-file.
    PaperTrio,
    /// Adaptive containers and a VA-file: the memory-constrained deployment.
    Compact,
}

fn config(set: IndexSet) -> DbConfig {
    match set {
        IndexSet::PaperTrio => DbConfig::default(),
        IndexSet::Compact => DbConfig {
            adaptive: true,
            va: true,
            ..DbConfig::none()
        },
    }
}

pub fn build_sharded(d: Dataset, shard_rows: usize, set: IndexSet) -> ShardedDb {
    ShardedDb::with_config(d, shard_rows, config(set))
}

pub fn index_bytes_per_row(db: &ShardedDb) -> f64 {
    db.index_bytes() as f64 / db.n_rows().max(1) as f64
}

pub fn live_rows(db: &ShardedDb) -> usize {
    db.n_rows()
}

/// Which public entry point a workload answers its queries through.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QueryCall {
    /// `execute`: row ids materialised, at the configured degree.
    Execute,
    /// `count`.
    Count,
    /// `execute_threads(q, n)`.
    ExecuteThreads(usize),
}

pub enum Answer {
    Rows(RowSet),
    Count(usize),
}

impl Answer {
    pub fn agrees_with(&self, truth: &[u32]) -> bool {
        match self {
            Answer::Rows(r) => r.rows() == truth,
            Answer::Count(n) => *n == truth.len(),
        }
    }
}

/// One query against a sharded database, as span `storage.execute`.
pub fn query_sharded(
    tr: &mut Tracer,
    parent: SpanId,
    request: u32,
    db: &ShardedDb,
    call: QueryCall,
    q: &RangeQuery,
) -> Result<Answer, String> {
    let span = tr.open("storage.execute", parent, request);
    let q = black_box(q);
    let answer = match call {
        QueryCall::Execute => db.execute(q).map(Answer::Rows),
        QueryCall::Count => db.count(q).map(Answer::Count),
        QueryCall::ExecuteThreads(n) => db.execute_threads(q, n).map(Answer::Rows),
    };
    tr.close(span);
    black_box(answer).map_err(text)
}

/// `(shards_total, shards_pruned)` for one query.
pub fn shard_stats(db: &ShardedDb, q: &RangeQuery) -> Result<(usize, usize), String> {
    let e = db.execute_with_stats(q).map_err(text)?;
    Ok((e.shards_total, e.shards_pruned))
}

// ------------------------------------------------ planner and standalone indexes

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum IndexKind {
    BeeWah,
    BreWah,
    BeePlain,
    BrePlain,
    Adaptive,
    Va,
    Scan,
}

/// One access method built on its own, outside any database.
pub struct Index {
    method: Arc<dyn AccessMethod>,
    span: &'static str,
    n_rows: usize,
}

pub fn build_index(kind: IndexKind, d: &Arc<Dataset>) -> Index {
    let (method, span): (Arc<dyn AccessMethod>, _) = match kind {
        IndexKind::BeeWah => (
            Arc::new(EqualityBitmapIndex::<Wah>::build(d)),
            "index.bee.execute",
        ),
        IndexKind::BreWah => (
            Arc::new(RangeBitmapIndex::<Wah>::build(d)),
            "index.bre.execute",
        ),
        IndexKind::BeePlain => (
            Arc::new(EqualityBitmapIndex::<BitVec64>::build(d)),
            "index.bee_plain.execute",
        ),
        IndexKind::BrePlain => (
            Arc::new(RangeBitmapIndex::<BitVec64>::build(d)),
            "index.bre_plain.execute",
        ),
        IndexKind::Adaptive => (
            Arc::new(AdaptiveBitmapIndex::build(d)),
            "index.adaptive.execute",
        ),
        IndexKind::Va => (
            Arc::new(VaFile::build(d).bind(Arc::clone(d))),
            "index.va.execute",
        ),
        IndexKind::Scan => (
            Arc::new(SequentialScan.bind(Arc::clone(d))),
            "index.scan.execute",
        ),
    };
    Index {
        method,
        span,
        n_rows: d.n_rows(),
    }
}

impl Index {
    pub fn execute(&self, tr: &mut Tracer, parent: SpanId, request: u32, q: &RangeQuery) -> Answer {
        let span = tr.open(self.span, parent, request);
        let rows = self.method.execute(black_box(q));
        tr.close(span);
        Answer::Rows(black_box(rows).expect("generated queries are valid"))
    }

    pub fn count(&self, q: &RangeQuery) -> Answer {
        let n = self.method.execute_count(black_box(q));
        Answer::Count(black_box(n).expect("generated queries are valid"))
    }

    /// `(words_processed, bitmaps_accessed, approx_fields_read, candidates,
    /// false_positives)` for one query; counts, so they repeat exactly.
    pub fn work(&self, q: &RangeQuery) -> [usize; 5] {
        let (_, c) = self
            .method
            .execute_with_cost(q)
            .expect("generated queries are valid");
        [
            c.words_processed,
            c.bitmaps_accessed,
            c.approx_fields_read,
            c.candidates,
            c.false_positives,
        ]
    }

    pub fn bytes_per_row(&self) -> f64 {
        self.method.size_bytes() as f64 / self.n_rows.max(1) as f64
    }
}

/// The plan classes `storage.plan_share.*` is reported over.
fn plan_class(chosen: &str) -> &'static str {
    match chosen {
        "bitmap-equality" => "bee",
        "bitmap-range" => "bre",
        "va-file" => "va",
        "bitmap-adaptive" => "adaptive",
        _ => "scan",
    }
}

/// A one-shard database with `explain`, plus each of its access methods
/// built standalone, so that plan choice, plan time and the database's own
/// overhead over the chosen method can be timed from outside.
pub struct PlannerProbe {
    db: IncompleteDb,
    methods: Vec<(&'static str, Index)>,
}

impl PlannerProbe {
    pub fn build(d: Dataset, set: IndexSet) -> PlannerProbe {
        let shared = Arc::new(d.clone());
        let kinds: &[(&'static str, IndexKind)] = match set {
            IndexSet::PaperTrio => &[
                ("bee", IndexKind::BeeWah),
                ("bre", IndexKind::BreWah),
                ("va", IndexKind::Va),
                ("scan", IndexKind::Scan),
            ],
            IndexSet::Compact => &[
                ("adaptive", IndexKind::Adaptive),
                ("va", IndexKind::Va),
                ("scan", IndexKind::Scan),
            ],
        };
        PlannerProbe {
            methods: kinds
                .iter()
                .map(|&(class, kind)| (class, build_index(kind, &shared)))
                .collect(),
            db: IncompleteDb::with_config(d, config(set)),
        }
    }

    /// `explain`, as span `storage.explain`; returns the plan class chosen.
    pub fn explain(
        &self,
        tr: &mut Tracer,
        parent: SpanId,
        request: u32,
        q: &RangeQuery,
    ) -> &'static str {
        let span = tr.open("storage.explain", parent, request);
        let plan = self.db.explain(black_box(q));
        tr.close(span);
        plan_class(black_box(plan).expect("generated queries are valid").chosen)
    }

    /// The database's single-threaded `execute` (plan + chosen method +
    /// delta merge).
    pub fn execute(&self, q: &RangeQuery) -> Answer {
        let rows = self.db.execute_threads(black_box(q), 1);
        Answer::Rows(black_box(rows).expect("generated queries are valid"))
    }

    /// The standalone method of plan class `class`, called directly.
    pub fn method(&self, class: &str) -> &Index {
        let found = self.methods.iter().find(|(c, _)| *c == class);
        &found.expect("the planner chose a registered method").1
    }
}

/// Installs (`true`) or removes (`false`) the process-global
/// `ibis::obs::Recorder`; removing discards what it recorded.
pub fn obs_recorder(on: bool) {
    if on {
        Recorder::enabled().install();
    } else {
        Recorder::disabled().install();
    }
}

/// Value of a counter of the installed `ibis::obs::Recorder` (0 if absent).
pub fn obs_counter(name: &str) -> u64 {
    ibis::obs::snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

// ------------------------------------------------------------- durable database

pub fn create_durable(dir: &Path, d: Dataset, shard_rows: usize) -> io::Result<ConcurrentDb> {
    ConcurrentDb::create_durable(dir, d, shard_rows, DbConfig::default())
}

pub fn open_durable(dir: &Path) -> io::Result<ConcurrentDb> {
    ConcurrentDb::open_durable(dir)
}

pub fn serve_in_memory(d: Dataset, shard_rows: usize) -> ConcurrentDb {
    ConcurrentDb::new_mem(d, shard_rows)
}

pub fn insert(
    tr: &mut Tracer,
    parent: SpanId,
    request: u32,
    db: &ConcurrentDb,
    row: &[Cell],
) -> io::Result<()> {
    let span = tr.open("storage.insert", parent, request);
    let r = db.insert(black_box(row));
    tr.close(span);
    r
}

pub fn delete(
    tr: &mut Tracer,
    parent: SpanId,
    request: u32,
    db: &ConcurrentDb,
    id: u32,
) -> io::Result<bool> {
    let span = tr.open("storage.delete", parent, request);
    let r = db.delete(black_box(id));
    tr.close(span);
    r
}

pub fn checkpoint(
    tr: &mut Tracer,
    parent: SpanId,
    request: u32,
    db: &ConcurrentDb,
) -> io::Result<()> {
    let span = tr.open("storage.checkpoint", parent, request);
    let r = db.checkpoint();
    tr.close(span);
    r
}

pub fn compact(db: &ConcurrentDb) -> io::Result<usize> {
    db.compact()
}

pub fn snapshot(
    tr: &mut Tracer,
    parent: SpanId,
    request: u32,
    db: &ConcurrentDb,
) -> Arc<DbSnapshot> {
    let span = tr.open("storage.snapshot", parent, request);
    let s = db.snapshot();
    tr.close(span);
    black_box(s)
}

pub fn watermark(s: &DbSnapshot) -> u64 {
    s.watermark()
}

pub fn snapshot_db(s: &DbSnapshot) -> &ShardedDb {
    s.db()
}

/// Bytes held by the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut names: Vec<_> = std::fs::read_dir(dir)?.collect::<io::Result<Vec<_>>>()?;
    names.sort_by_key(|e| e.file_name());
    let mut total = 0;
    for e in names {
        let meta = e.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// A write-ahead log opened on its own, to time one append + fsync.
pub struct WalProbe(WalWriter);

impl WalProbe {
    pub fn create(path: &Path) -> io::Result<WalProbe> {
        WalWriter::create(path, 1).map(WalProbe)
    }

    pub fn append(&mut self, row: &[Cell]) -> io::Result<u64> {
        self.0.append(black_box(&WalRecord::Insert(row.to_vec())))
    }
}

pub fn write_snapshot(db: &ShardedDb) -> io::Result<Vec<u8>> {
    let mut image = Vec::new();
    db.write_snapshot(&mut image)?;
    Ok(image)
}

/// Parses a snapshot image; rebuilds every index, as recovery does.
pub fn read_snapshot(image: &[u8]) -> io::Result<ShardedDb> {
    ShardedDb::read_snapshot(&mut black_box(image))
}

// ---------------------------------------------------------------------- server

pub struct Connection {
    pub tx: SendHalf,
    pub rx: RecvHalf,
}

/// Starts the IBQP server in-process on an ephemeral loopback port and
/// opens the benchmark's one connection to it.
pub fn start_server(
    db: Arc<ConcurrentDb>,
    workers: usize,
    max_batch: usize,
) -> io::Result<(ServerHandle, Connection)> {
    let config = ServerConfig {
        workers,
        max_batch,
        ..ServerConfig::default()
    };
    let handle = Server::start(db, "127.0.0.1:0", config)?;
    let (tx, rx) = Client::connect(handle.addr())?.into_split();
    Ok((handle, Connection { tx, rx }))
}

pub fn stop_server(handle: ServerHandle) {
    handle.shutdown();
}

pub enum Reply {
    Rows(Vec<u32>),
    Count(u64),
    Pong,
    /// `Overloaded`: refused at admission.
    Shed,
    /// `DeadlineExceeded`: expired in the queue.
    Expired,
    Other(String),
}

impl Reply {
    pub fn agrees_with(&self, truth: &[u32]) -> bool {
        match self {
            Reply::Rows(r) => r == truth,
            Reply::Count(n) => *n == truth.len() as u64,
            _ => false,
        }
    }
}

fn query_request(q: &RangeQuery, count_only: bool) -> Request {
    Request::Query {
        query: q.clone(),
        count_only,
        deadline_ms: 0,
    }
}

/// Sends one query, as span `client.send`; returns the id its reply echoes.
pub fn send_query(
    tr: &mut Tracer,
    request: u32,
    tx: &mut SendHalf,
    q: &RangeQuery,
    count_only: bool,
) -> io::Result<u64> {
    let span = tr.open("client.send", crate::trace::NO_SPAN, request);
    let id = tx.send(black_box(&query_request(q, count_only)));
    tr.close(span);
    id
}

pub fn send_ping(tx: &mut SendHalf) -> io::Result<u64> {
    tx.send(&Request::Ping)
}

/// Blocks for the next reply: `(request id, reply, when the call began)`.
pub fn recv(rx: &mut RecvHalf) -> io::Result<(u64, Reply, Instant)> {
    let began = Instant::now();
    let (id, resp) = rx.recv()?;
    let reply = match black_box(resp) {
        Response::Rows { rows, .. } => Reply::Rows(rows),
        Response::Count { count, .. } => Reply::Count(count),
        Response::Pong => Reply::Pong,
        Response::Error {
            code: ErrorCode::Overloaded,
            ..
        } => Reply::Shed,
        Response::Error {
            code: ErrorCode::DeadlineExceeded,
            ..
        } => Reply::Expired,
        other => Reply::Other(format!("{other:?}")),
    };
    Ok((id, reply, began))
}

/// The four codec steps of one query and its `n_rows`-row reply, each
/// returned as a closure to time.
pub struct Codec {
    pub n_rows: usize,
    pub request_encode: Box<dyn Fn()>,
    pub request_decode: Box<dyn Fn()>,
    pub rows_encode: Box<dyn Fn()>,
    pub rows_decode: Box<dyn Fn()>,
}

pub fn codec(q: &RangeQuery, rows: &[u32]) -> Codec {
    let request = query_request(q, false);
    let (kind, body) = request.encode();
    let request_frame = Frame {
        request_id: 1,
        kind,
        body,
    };
    let response = Response::Rows {
        watermark: 0,
        rows: rows.to_vec(),
    };
    let (kind, body) = response.encode();
    let response_frame = Frame {
        request_id: 1,
        kind,
        body,
    };
    Codec {
        n_rows: rows.len(),
        request_encode: Box::new(move || {
            black_box(black_box(&request).encode());
        }),
        request_decode: Box::new(move || {
            black_box(Request::decode(black_box(&request_frame)).expect("own encoding"));
        }),
        rows_encode: Box::new(move || {
            black_box(black_box(&response).encode());
        }),
        rows_decode: Box::new(move || {
            black_box(Response::decode(black_box(&response_frame)).expect("own encoding"));
        }),
    }
}

/// A framed request through `write_frame` + `read_frame` in memory, to make
/// sure the codec probes time what the wire carries.
pub fn frame_round_trip(q: &RangeQuery) -> io::Result<bool> {
    let request = query_request(q, true);
    let (kind, body) = request.encode();
    let mut wire = Vec::new();
    protocol::write_frame(&mut wire, 9, kind, &body)?;
    let frame = protocol::read_frame(&mut wire.as_slice())?;
    Ok(Request::decode(&frame).map_err(io::Error::other)? == request)
}

// ---------------------------------------------------------------- core probes

/// `ExecPool::new(threads).try_map` over `items` no-op items.
pub fn dispatch_noop(threads: usize, items: usize) {
    let out = ExecPool::new(threads).try_map((0..items).collect(), |i: usize| Ok(black_box(i)));
    black_box(out).expect("no-op items cannot fail");
}

/// `coalesce_compatible` over the first `n` queries, batches of 8.
pub fn coalesce(queries: &[Query], n: usize) -> usize {
    let qs: Vec<RangeQuery> = queries.iter().take(n).map(|q| q.q.clone()).collect();
    black_box(ibis::core::coalesce_compatible(black_box(&qs), 8)).len()
}

// ---------------------------------------------------------------- bitvec probes

/// Throughput closures over two 64-bit-word operands of `words` words each.
pub struct KernelOps {
    pub bytes: usize,
    pub memcpy: Box<dyn FnMut()>,
    pub and: Box<dyn FnMut()>,
    pub or_in_place: Box<dyn FnMut()>,
    pub popcount: Box<dyn FnMut()>,
    pub and_popcount: Box<dyn FnMut()>,
}

pub fn kernel_ops(words: usize, seed: u64) -> KernelOps {
    let mut rng = StdRng::seed_from_u64(seed);
    let a: Arc<Vec<u64>> = Arc::new((0..words).map(|_| rng.gen()).collect());
    let b: Arc<Vec<u64>> = Arc::new((0..words).map(|_| rng.gen()).collect());
    let (a1, a2, a3, a4) = (a.clone(), a.clone(), a.clone(), a.clone());
    let (b1, b2, b3) = (b.clone(), b.clone(), b.clone());
    let (mut o1, mut o2, mut o3) = (vec![0u64; words], vec![0u64; words], a.to_vec());
    KernelOps {
        bytes: words * 8,
        memcpy: Box::new(move || {
            o1.copy_from_slice(black_box(&a1));
            black_box(&o1);
        }),
        and: Box::new(move || {
            kernel::zip_words(black_box(&a2), black_box(&b1), &mut o2, |x, y| x & y);
            black_box(&o2);
        }),
        or_in_place: Box::new(move || {
            kernel::zip_words_in_place(&mut o3, black_box(&b2), |x, y| x | y);
            black_box(&o3);
        }),
        popcount: Box::new(move || {
            black_box(kernel::popcount_words(black_box(&a3)));
        }),
        and_popcount: Box::new(move || {
            black_box(kernel::and_popcount(black_box(&a4), black_box(&b3)));
        }),
    }
}

/// 16 random bit vectors of `bits` bits of one shape: `sparse` sets 1% of
/// the bits, `dense` 50%, `runny` alternates runs of mean length 4,096.
pub fn bit_planes(shape: &str, bits: usize, seed: u64) -> Vec<BitVec64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..16)
        .map(|_| {
            let ones: Vec<u32> = match shape {
                "runny" => {
                    let (mut out, mut at, mut set) = (Vec::new(), 0usize, rng.gen::<bool>());
                    while at < bits {
                        let run = 1 + (-(1.0 - rng.gen::<f64>()).ln() * 4096.0) as usize;
                        let end = (at + run).min(bits);
                        if set {
                            out.extend(at as u32..end as u32);
                        }
                        (at, set) = (end, !set);
                    }
                    out
                }
                _ => {
                    let p = if shape == "sparse" { 0.01 } else { 0.5 };
                    (0..bits as u32).filter(|_| rng.gen::<f64>() < p).collect()
                }
            };
            BitVec64::from_ones(bits, ones)
        })
        .collect()
}

/// The timed operations of one backend over one shape's operands.
pub struct BitOps {
    /// Uncompressed 64-bit words per operand: the divisor that makes
    /// backends comparable.
    pub words: usize,
    pub bytes: usize,
    pub hits: usize,
    pub and: Box<dyn Fn()>,
    pub or_fold16: Box<dyn Fn()>,
    pub not: Box<dyn Fn()>,
    pub positions: Box<dyn Fn()>,
}

fn bit_ops_of<B: BitStore + 'static>(planes: &[BitVec64]) -> BitOps {
    let v: Arc<Vec<B>> = Arc::new(planes.iter().map(B::from_bitvec).collect());
    let (v1, v2, v3, v4) = (v.clone(), v.clone(), v.clone(), v.clone());
    BitOps {
        words: planes[0].len().div_ceil(64),
        bytes: v[0].size_bytes(),
        hits: v[0].count_ones(),
        and: Box::new(move || {
            black_box(black_box(&v1[0]).and(black_box(&v1[1])));
        }),
        or_fold16: Box::new(move || {
            let mut acc = v2[0].clone();
            for other in &v2[1..] {
                acc = acc.or(black_box(other));
            }
            black_box(acc);
        }),
        not: Box::new(move || {
            black_box(black_box(&v3[0]).not());
        }),
        positions: Box::new(move || {
            black_box(black_box(&v4[0]).ones_positions());
        }),
    }
}

pub fn bit_ops(backend: &str, planes: &[BitVec64]) -> BitOps {
    match backend {
        "plain" => bit_ops_of::<BitVec64>(planes),
        "wah" => bit_ops_of::<Wah>(planes),
        "adaptive" => bit_ops_of::<Adaptive>(planes),
        "bbc" => bit_ops_of::<Bbc>(planes),
        other => panic!("unknown bit-vector backend {other}"),
    }
}
