//! The serving loop: accept → handshake → decode → admit → drain →
//! execute on a snapshot → respond.
//!
//! Threading model (one [`Server::start`] call):
//!
//! * **accept thread** — polls a non-blocking listener, spawning one
//!   reader thread per connection;
//! * **per-connection reader** — validates the handshake, then decodes
//!   frames. A `Ping` or a protocol rejection is answered immediately;
//!   a `Query` passes **admission control**: if the shared work queue is
//!   at its high-water mark the request is refused with
//!   [`ErrorCode::Overloaded`] right here — load is shed at the door, so
//!   queueing latency for admitted work stays bounded instead of
//!   collapsing;
//! * **per-connection writer** — drains a channel of encoded responses,
//!   so workers and the reader never block on a slow client socket;
//! * **fixed worker pool** (`config.workers` threads) — each wake drains
//!   up to `config.max_batch` queued jobs under one queue lock, acquires
//!   **one** [`ConcurrentDb::snapshot`] for the drain (never behind a
//!   mutation in progress), and answers the jobs in queue order, each
//!   through the call every other caller of the database makes:
//!   [`ShardedDb::execute_with_cost_threads`](ibis_storage::ShardedDb::execute_with_cost_threads)
//!   at degree 1. A job sampled for tracing runs that same call, in its
//!   turn, under a span capture. Each job is timed, deadline-checked,
//!   counted and answered on its own, and a panic under one job is that
//!   job's `Internal` error.
//!
//! Deadlines are enforced at the two scheduling boundaries: a job whose
//! deadline expired while queued is shed *before* execution, and a job
//! whose deadline expired *during* execution gets
//! [`ErrorCode::DeadlineExceeded`] instead of rows — an expired request
//! never returns results, and the overrun is bounded by one query
//! execution. The default deadline is [`ibis_core::QUERY_BUDGET_MS`], the
//! oracle's per-case budget too (see [`ServerConfig::default`]).

use crate::protocol::{
    read_frame, read_handshake, write_frame, write_handshake, ErrorCode, HealthReport, Request,
    Response, SlowPhase, SlowQuery, StatsReport,
};
use ibis_core::parallel::contain;
use ibis_core::{MissingPolicy, RangeQuery, RowSet, WorkCounters};
use ibis_storage::{ConcurrentDb, DbSnapshot};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, BufWriter, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for one serving instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Fixed worker-pool size draining the shared queue.
    pub workers: usize,
    /// Most queued queries one worker wake may drain, to answer in queue
    /// order on one snapshot. `1` takes the queue lock and a snapshot per
    /// query.
    pub max_batch: usize,
    /// Admission high-water mark: a query arriving while the queue holds
    /// this many jobs is refused with [`ErrorCode::Overloaded`].
    pub queue_high_water: usize,
    /// Deadline applied to requests that carry `deadline_ms = 0`.
    pub default_deadline_ms: u64,
    /// Request tracing sample rate: every `trace_sample`-th admitted query
    /// executes under a `server.request` root span whose tree feeds the
    /// slow-query log. `0` disables tracing entirely; `1` traces every
    /// query.
    pub trace_sample: u64,
    /// Capacity of the slow-query log: the N worst traced requests by
    /// total (queue + execute) latency are retained.
    pub slow_log_size: usize,
}

impl Default for ServerConfig {
    /// Defaults: 4 workers, drains of 8, a 256-deep queue,
    /// [`ibis_core::QUERY_BUDGET_MS`] as the request deadline, 1-in-8
    /// request tracing, and a 16-entry slow-query log.
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            max_batch: 8,
            queue_high_water: 256,
            default_deadline_ms: ibis_core::QUERY_BUDGET_MS,
            trace_sample: 8,
            slow_log_size: 16,
        }
    }
}

/// One admitted query waiting for a worker.
struct Job {
    query: RangeQuery,
    ticket: Ticket,
}

/// What it takes to answer an admitted query once it has executed.
struct Ticket {
    request_id: u64,
    count_only: bool,
    deadline: Instant,
    enqueued: Instant,
    /// Sampled for tracing: executes under a `server.request` span capture
    /// and feeds the slow-query log.
    traced: bool,
    reply: mpsc::Sender<(u64, Response)>,
}

/// State shared by the accept loop, readers, and the worker pool.
struct Shared {
    db: Arc<ConcurrentDb>,
    config: ServerConfig,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    /// When the server started (feeds `uptime_ms` in reports).
    started: Instant,
    /// Workers currently executing a drained job set.
    busy: AtomicUsize,
    /// Admitted-query sequence number, drives trace sampling.
    admitted_seq: AtomicU64,
    /// The N worst traced requests, sorted worst-first.
    slow_log: Mutex<Vec<SlowQuery>>,
}

/// A clone of every live connection's socket, by connection number, so that
/// shutdown can sever them. A connection removes its entry when it ends:
/// the registry holds live connections, not every connection ever accepted.
type ConnRegistry = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// The serving entry point; see the module docs for the thread layout.
pub struct Server;

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `db`. Returns a handle owning every spawned thread; dropping it
    /// shuts the server down.
    pub fn start(
        db: Arc<ConcurrentDb>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        // The telemetry plane (windowed metrics, latency histograms, span
        // tracing) runs on the process-global obs recorder. Turn it on if
        // the embedding process has not already — but never reset a
        // recording someone else (a load generator, a profiler) installed.
        // Metrics only: a server runs for as long as it is left to, and the
        // one place it wants spans, a traced request, captures its own.
        //
        // An embedder that installed `Recorder::enabled()` asked for every
        // span, and gets them: a traced request's still go to its capture,
        // but each untraced request appends its `db.*`/index spans to the
        // embedder's span log, which grows until the embedder installs a
        // new recorder. Bounding that recording is the embedder's business.
        if !ibis_obs::is_enabled() {
            ibis_obs::Recorder::metrics_only().install();
        }
        let shared = Arc::new(Shared {
            db,
            config: ServerConfig {
                workers: config.workers.max(1),
                max_batch: config.max_batch.max(1),
                queue_high_water: config.queue_high_water.max(1),
                ..config
            },
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            busy: AtomicUsize::new(0),
            admitted_seq: AtomicU64::new(0),
            slow_log: Mutex::new(Vec::new()),
        });
        let conns = ConnRegistry::default();

        let workers = (0..shared.config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || accept_loop(listener, &shared, &conns))
        };

        Ok(ServerHandle {
            addr: local_addr,
            shared,
            conns,
            accept: Some(accept),
            workers,
        })
    }
}

/// Owns a running server; [`addr`](ServerHandle::addr) is where clients
/// connect. Dropping the handle stops the accept loop, severs every open
/// connection, and joins the worker pool.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    conns: ConnRegistry,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the ephemeral port chosen).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops serving: new connections are refused, open sockets are torn
    /// down (in-flight requests may go unanswered), queued-but-unstarted
    /// jobs are dropped, and every server thread is joined.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        // Severing the sockets unblocks reader threads parked in
        // `read_frame`; their writer threads follow when the senders drop.
        for s in self.conns.lock().expect("conn registry").values() {
            let _ = s.shutdown(Shutdown::Both);
        }
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Unstarted jobs still hold reply senders; dropping them lets the
        // per-connection writer threads drain and exit.
        self.shared.queue.lock().expect("queue").clear();
    }
}

/// Polls the non-blocking listener, spawning a reader per connection.
fn accept_loop(listener: TcpListener, shared: &Arc<Shared>, conns: &ConnRegistry) {
    let mut accepted = 0u64;
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_id = accepted;
                accepted += 1;
                ibis_obs::counter_add("server.connections", 1);
                // Register a clone so shutdown can sever the socket; the
                // entry is removed when the connection ends, and the socket
                // is explicitly shut down there too (a registered clone
                // would otherwise hold it half-open).
                if let Ok(clone) = stream.try_clone() {
                    conns.lock().expect("conn registry").insert(conn_id, clone);
                }
                let shared = Arc::clone(shared);
                let conns = Arc::clone(conns);
                std::thread::spawn(move || {
                    serve_connection(&shared, stream);
                    conns.lock().expect("conn registry").remove(&conn_id);
                });
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

/// Handshake, then the read → admit / answer loop for one connection.
fn serve_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    stream.set_nodelay(true).ok();
    let Ok(read_side) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_side);
    // A peer that cannot even present the magic gets dropped silently —
    // there is no frame alignment to answer within.
    if read_handshake(&mut reader).is_err() {
        return;
    }
    if write_handshake(&mut stream).is_err() {
        return;
    }
    let (reply_tx, reply_rx) = mpsc::channel::<(u64, Response)>();
    let writer = std::thread::spawn(move || {
        let mut w = BufWriter::new(stream);
        while let Ok((id, resp)) = reply_rx.recv() {
            let (kind, body) = resp.encode();
            if write_frame(&mut w, id, kind, &body)
                .and_then(|_| w.flush())
                .is_err()
            {
                break;
            }
        }
    });

    while !shared.shutdown.load(Ordering::SeqCst) {
        match read_frame(&mut reader) {
            Ok(frame) => {
                let request_id = frame.request_id;
                match Request::decode(&frame) {
                    Ok(Request::Ping) => {
                        let _ = reply_tx.send((request_id, Response::Pong));
                    }
                    // STATS and HEALTH are answered right here on the
                    // reader thread, never enqueued: telemetry must stay
                    // observable while the worker pool is saturated.
                    Ok(Request::Stats { include_slow }) => {
                        ibis_obs::counter_add("server.stats_requests", 1);
                        let report = build_stats(shared, include_slow);
                        let _ = reply_tx.send((request_id, Response::Stats(Box::new(report))));
                    }
                    Ok(Request::Health) => {
                        let _ = reply_tx.send((request_id, Response::Health(build_health(shared))));
                    }
                    Ok(Request::Query {
                        query,
                        count_only,
                        deadline_ms,
                    }) => {
                        admit(
                            shared,
                            request_id,
                            query,
                            count_only,
                            deadline_ms,
                            &reply_tx,
                        );
                    }
                    Err(reason) => {
                        ibis_obs::counter_add("server.bad_requests", 1);
                        let _ = reply_tx.send((
                            request_id,
                            Response::Error {
                                code: ErrorCode::BadRequest,
                                message: reason,
                            },
                        ));
                    }
                }
            }
            Err(e) => {
                // Frame-level damage: the stream is no longer aligned.
                // Report it once (best effort) and drop the connection;
                // a clean client close (EOF) is not reported.
                if e.kind() == ErrorKind::InvalidData {
                    ibis_obs::counter_add("server.protocol_errors", 1);
                    let _ = reply_tx.send((
                        0,
                        Response::Error {
                            code: ErrorCode::BadRequest,
                            message: format!("protocol error: {e}"),
                        },
                    ));
                }
                break;
            }
        }
    }
    drop(reply_tx);
    let _ = writer.join();
    // Sever the socket itself: the shutdown registry still holds a clone,
    // and without this the peer would never see EOF.
    let _ = reader.get_ref().shutdown(Shutdown::Both);
}

/// Admission control: refuse with `Overloaded` at the high-water mark,
/// otherwise enqueue for the worker pool. Whichever way a request leaves
/// here, its counters are recorded under one registry lock.
fn admit(
    shared: &Shared,
    request_id: u64,
    query: RangeQuery,
    count_only: bool,
    deadline_ms: u32,
    reply: &mpsc::Sender<(u64, Response)>,
) {
    // Schema validation happens at the door, not in the worker: a query
    // naming an out-of-range attribute gets `BadRequest` here, before it
    // can take a queue slot, rather than `Internal` from a worker.
    if let Err(e) = query.validate(shared.db.snapshot().db().schema()) {
        ibis_obs::record(|m| {
            m.counter_add("server.requests", 1);
            m.counter_add("server.bad_requests", 1);
        });
        let _ = reply.send((
            request_id,
            Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("invalid search key: {e}"),
            },
        ));
        return;
    }
    let budget = if deadline_ms == 0 {
        shared.config.default_deadline_ms
    } else {
        deadline_ms as u64
    };
    let now = Instant::now();
    let mut q = shared.queue.lock().expect("work queue");
    if q.len() >= shared.config.queue_high_water {
        drop(q);
        ibis_obs::record(|m| {
            m.counter_add("server.requests", 1);
            m.counter_add("server.shed_overload", 1);
            m.window_counter_add("server.shed", 1);
        });
        let _ = reply.send((
            request_id,
            Response::Error {
                code: ErrorCode::Overloaded,
                message: format!(
                    "queue at high-water mark ({}); retry later",
                    shared.config.queue_high_water
                ),
            },
        ));
        return;
    }
    // Admission granted: count it — before the job is visible to a worker,
    // so that no reply can overtake its own admission in STATS — and sample
    // for tracing. The sequence number only advances for admitted queries
    // so a burst of shed load cannot starve the tracer.
    let seq = shared.admitted_seq.fetch_add(1, Ordering::Relaxed);
    ibis_obs::record(|m| {
        m.counter_add("server.requests", 1);
        m.counter_add("server.admitted", 1);
        m.window_counter_add("server.admitted", 1);
        m.gauge_set("server.queue_depth", (q.len() + 1) as f64);
    });
    q.push_back(Job {
        query,
        ticket: Ticket {
            request_id,
            count_only,
            deadline: now + Duration::from_millis(budget),
            enqueued: now,
            traced: shared.config.trace_sample > 0
                && seq.is_multiple_of(shared.config.trace_sample),
            reply: reply.clone(),
        },
    });
    drop(q);
    shared.available.notify_one();
}

/// One worker: drain up to `max_batch` jobs per wake, execute them in
/// queue order on one snapshot, answering each as it finishes.
fn worker_loop(shared: &Shared) {
    loop {
        let (jobs, queue_depth): (Vec<Job>, usize) = {
            let mut q = shared.queue.lock().expect("work queue");
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if !q.is_empty() {
                    break;
                }
                let (guard, _) = shared
                    .available
                    .wait_timeout(q, Duration::from_millis(50))
                    .expect("work queue");
                q = guard;
            }
            let take = q.len().min(shared.config.max_batch);
            (q.drain(..take).collect(), q.len())
        };
        let busy = shared.busy.fetch_add(1, Ordering::SeqCst) + 1;
        execute_jobs(shared, jobs, queue_depth, busy);
        let busy = shared.busy.fetch_sub(1, Ordering::SeqCst) - 1;
        ibis_obs::gauge_set("server.workers_busy", busy as f64);
    }
}

fn micros(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_micros() as u64
}

/// Sheds the expired jobs of one drain, then executes and answers the rest
/// in queue order on one snapshot (see [`execute_job`]). `queue_depth` and
/// `busy` are what the drain left behind and how many workers it made busy:
/// the two gauges, set under the same registry lock as the drain's counters.
fn execute_jobs(shared: &Shared, jobs: Vec<Job>, queue_depth: usize, busy: usize) {
    let now = Instant::now();
    let (live, expired): (Vec<Job>, Vec<Job>) =
        jobs.into_iter().partition(|j| j.ticket.deadline > now);
    let is_match = live
        .iter()
        .filter(|j| j.query.policy() == MissingPolicy::IsMatch)
        .count();
    ibis_obs::record(|m| {
        m.gauge_set("server.queue_depth", queue_depth as f64);
        m.gauge_set("server.workers_busy", busy as f64);
        for (name, n) in [
            ("server.policy_is_match", is_match),
            ("server.policy_is_not_match", live.len() - is_match),
        ] {
            if n > 0 {
                m.counter_add(name, n as u64);
                m.window_counter_add(name, n as u64);
            }
        }
        if !expired.is_empty() {
            m.counter_add("server.shed_deadline", expired.len() as u64);
            m.window_counter_add("server.expired", expired.len() as u64);
        }
    });
    for j in expired {
        let _ = j.ticket.reply.send((
            j.ticket.request_id,
            Response::Error {
                code: ErrorCode::DeadlineExceeded,
                message: "deadline expired while queued".into(),
            },
        ));
    }
    if live.is_empty() {
        return;
    }
    // One snapshot serves the whole drain: every job below
    // answers at the same watermark.
    let snap = shared.db.snapshot();
    for j in live {
        execute_job(shared, &snap, j);
    }
}

/// Executes one live job on the drain's snapshot and answers it. Its
/// telemetry is recorded under one registry lock, and *before* its reply
/// goes out: a client holding a reply finds that request counted in `STATS`.
///
/// A job sampled for tracing runs the same call under a `server.request`
/// span capture and feeds the slow-query log from the captured tree. The
/// capture keeps the request's spans on this thread's buffer and hands them
/// back here: they never reach the recorder's global span log, so tracing
/// costs O(this request) whatever the server has served before.
///
/// Degree 1 keeps the whole execution — and therefore every child span —
/// on this worker thread (the pool is the parallelism; fanning out again
/// would oversubscribe it), so the captured tree is complete. The per-phase
/// counter-field deltas of that tree sum exactly to the execution's final
/// `WorkCounters`: the PR 4 profile invariant, now visible over the wire.
fn execute_job(shared: &Shared, snap: &DbSnapshot, Job { query, ticket: t }: Job) {
    let started = Instant::now();
    // A panic anywhere under this job comes back as its error, and the
    // worker goes on draining.
    let executed = contain(|| {
        let mut root = t.traced.then(|| ibis_obs::capture("server.request"));
        if let Some(root) = &mut root {
            root.add_field("request_id", t.request_id);
        }
        // A count-only request takes the count path: no row id is built.
        let (answer, counters) = if t.count_only {
            let (count, counters) = snap.count_with_cost_threads(&query, 1)?;
            (Answer::Count(count), counters)
        } else {
            let (rows, counters) = snap.execute_with_cost_threads(&query, 1)?;
            (Answer::Rows(rows), counters)
        };
        let trace = root.map(|root| (root.id(), root.finish()));
        // Stamped after the capture is handed over: what tracing costs the
        // request is inside its `exec_us`, not beside it.
        let done = Instant::now();
        if let Some((root_id, spans)) = trace {
            note_slow(
                shared,
                SlowQuery {
                    request_id: t.request_id,
                    watermark: snap.watermark(),
                    plan: query.to_string(),
                    queue_us: micros(t.enqueued, started),
                    exec_us: micros(started, done),
                    total_us: micros(t.enqueued, done),
                    counters: nonzero_fields(&counters),
                    phases: phases_from(&spans, root_id),
                },
            );
        }
        Ok((answer, done))
    });
    let done = executed
        .as_ref()
        .map_or_else(|_| Instant::now(), |&(_, done)| done);
    let (mut expired, mut failed) = (false, false);
    let response = match executed {
        Ok(_) if done > t.deadline => {
            expired = true;
            Response::Error {
                code: ErrorCode::DeadlineExceeded,
                message: "deadline expired during execution".into(),
            }
        }
        Ok((Answer::Count(count), _)) => Response::Count {
            watermark: snap.watermark(),
            count: count as u64,
        },
        Ok((Answer::Rows(rows), _)) => Response::Rows {
            watermark: snap.watermark(),
            rows: rows.into_rows(),
        },
        Err(e) => {
            failed = true;
            Response::Error {
                code: ErrorCode::Internal,
                message: format!("execution failed: {e}"),
            }
        }
    };
    ibis_obs::record(|m| {
        let executed_as = if t.traced {
            "server.traced"
        } else {
            "server.untraced"
        };
        m.counter_add(executed_as, 1);
        let exec_us = micros(started, done);
        m.observe("server.exec_us", exec_us);
        m.window_observe("server.exec_us", exec_us);
        m.observe("server.queue_wait_us", micros(t.enqueued, started));
        let request_us = micros(t.enqueued, done);
        m.observe("server.request_us", request_us);
        m.window_observe("server.request_us", request_us);
        m.counter_add("server.responses", 1);
        m.window_counter_add("server.responses", 1);
        if expired {
            m.counter_add("server.shed_deadline", 1);
            m.window_counter_add("server.expired", 1);
        }
        if failed {
            m.counter_add("server.internal_errors", 1);
        }
    });
    let _ = t.reply.send((t.request_id, response));
}

/// What a job's execution produced: the matching rows, or only their count
/// for a count-only request.
enum Answer {
    Rows(RowSet),
    Count(usize),
}

/// The non-zero fields of `counters`, named, as the slow-query log carries
/// them.
fn nonzero_fields(counters: &WorkCounters) -> Vec<(String, u64)> {
    counters
        .fields()
        .iter()
        .filter(|&&(_, v)| v > 0)
        .map(|&(k, v)| (k.to_string(), v as u64))
        .collect()
}

/// Aggregate a captured span tree (minus its root) into the slow-query
/// log's per-phase rows. The aggregation itself — self deltas, so the
/// phases sum back to the request's final [`WorkCounters`] — is
/// [`WorkCounters::phases`], shared with `ibis query --profile`.
fn phases_from(spans: &[ibis_obs::SpanRecord], root: u64) -> Vec<SlowPhase> {
    WorkCounters::phases(spans, root)
        .into_iter()
        .map(|(name, spans, total_ns, counters)| SlowPhase {
            name,
            spans,
            total_ns,
            counters: nonzero_fields(&counters),
        })
        .collect()
}

/// Insert one traced request into the bounded slow-query log, keeping the
/// worst `slow_log_size` entries by total latency, worst-first.
fn note_slow(shared: &Shared, entry: SlowQuery) {
    let mut log = shared.slow_log.lock().expect("slow log");
    if log.len() >= shared.config.slow_log_size.max(1)
        && entry.total_us <= log.last().map_or(0, |e| e.total_us)
    {
        return;
    }
    log.push(entry);
    log.sort_by_key(|e| std::cmp::Reverse(e.total_us));
    log.truncate(shared.config.slow_log_size.max(1));
}

/// Assemble a [`StatsReport`]: headline gauges read from the serving
/// structures (correct even if the obs recorder is cold), the metric
/// registry as canonical JSON, and optionally the slow-query log.
fn build_stats(shared: &Shared, include_slow: bool) -> StatsReport {
    let queue_depth = shared.queue.lock().expect("work queue").len() as u32;
    StatsReport {
        watermark: shared.db.snapshot().watermark(),
        queue_depth,
        queue_high_water: shared.config.queue_high_water as u32,
        workers: shared.config.workers as u32,
        workers_busy: shared.busy.load(Ordering::SeqCst) as u32,
        uptime_ms: shared.started.elapsed().as_millis() as u64,
        metrics_json: ibis_obs::Registry::export().to_json(),
        slow_queries: if include_slow {
            shared.slow_log.lock().expect("slow log").clone()
        } else {
            Vec::new()
        },
    }
}

/// Assemble a [`HealthReport`]; "healthy" means admission control would
/// accept a query arriving right now.
fn build_health(shared: &Shared) -> HealthReport {
    let queue_depth = shared.queue.lock().expect("work queue").len() as u32;
    HealthReport {
        healthy: !shared.shutdown.load(Ordering::SeqCst)
            && (queue_depth as usize) < shared.config.queue_high_water,
        watermark: shared.db.snapshot().watermark(),
        queue_depth,
        queue_high_water: shared.config.queue_high_water as u32,
        workers: shared.config.workers as u32,
        uptime_ms: shared.started.elapsed().as_millis() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;

    #[test]
    fn connection_registry_holds_live_connections_only() {
        let db = Arc::new(ConcurrentDb::new_mem(
            ibis_core::gen::census_scaled(64, 1),
            64,
        ));
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let handle = Server::start(db, "127.0.0.1:0", config).unwrap();
        let mut live: Vec<Client> = (0..3)
            .map(|_| Client::connect(handle.addr()).unwrap())
            .collect();
        for _ in 0..1_000 {
            let mut short = Client::connect(handle.addr()).unwrap();
            assert!(matches!(short.ping().unwrap(), Response::Pong));
        }
        // A closed connection leaves the registry when its reader thread
        // sees the EOF, which is soon but not yet: wait for it, bounded.
        let waited = Instant::now();
        while handle.conns.lock().unwrap().len() > live.len() {
            assert!(
                waited.elapsed() < Duration::from_secs(30),
                "{} entries for {} live connections",
                handle.conns.lock().unwrap().len(),
                live.len()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(handle.conns.lock().unwrap().len(), live.len());
        for c in &mut live {
            assert!(matches!(c.ping().unwrap(), Response::Pong));
        }
        handle.shutdown();
    }
}
