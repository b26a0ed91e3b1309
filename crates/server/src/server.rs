//! The serving loop: accept → handshake → decode → admit → execute on a
//! snapshot → respond, each query run to completion on the thread that
//! read it.
//!
//! Threading model (one [`Server::start`] call):
//!
//! * **accept thread** — polls a non-blocking listener and spawns one
//!   reader per connection; when the server stops it severs every open
//!   connection and joins the readers;
//! * **per-connection reader** — validates the handshake, then decodes
//!   frames and answers `Ping`, `Stats`, `Health` and malformed requests
//!   itself. A `Query` meets **admission control**: at the queue's
//!   high-water mark it is refused with [`ErrorCode::Overloaded`], so load
//!   is shed at the door and queueing latency stays bounded. Every whole
//!   frame already buffered is admitted before anything executes, so a
//!   pipelined burst meets the door too. Then the reader **executes**:
//!   while it holds one of `config.workers` permits it drains the shared
//!   queue, up to `config.max_batch` jobs and **one**
//!   [`ConcurrentDb::snapshot`] per drain, answering each job in queue
//!   order through the call every other caller makes,
//!   [`ShardedDb::execute_with_cost_threads`](ibis_storage::ShardedDb::execute_with_cost_threads)
//!   at degree 1 (under a span capture if the job is traced). Each job is
//!   timed, deadline-checked, counted and answered on its own; a panic
//!   under one is that job's `Internal` error. A holder gives its permit
//!   back only once the queue is empty, so a reader that finds no permit
//!   free goes back to reading and a holder answers what it queued;
//! * **replies** — whichever thread answers a request writes the frame
//!   itself, encoded outside and written under the connection's writer
//!   lock. A write blocked for [`REPLY_WRITE_BOUND`] severs that
//!   connection, so a client that stops reading holds an executor no
//!   longer than that.
//!
//! Deadlines are enforced at the two scheduling boundaries: a job whose
//! deadline expired while queued is shed *before* execution, and a job
//! whose deadline expired *during* execution gets
//! [`ErrorCode::DeadlineExceeded`] instead of rows — an expired request
//! never returns results, and the overrun is bounded by one query
//! execution. The default deadline is [`ibis_core::QUERY_BUDGET_MS`], the
//! oracle's per-case budget too (see [`ServerConfig::default`]).

use crate::protocol::{
    holds_frame, read_frame, read_handshake, write_frame, write_handshake, ErrorCode, HealthReport,
    Request, Response, SlowPhase, SlowQuery, StatsReport,
};
use ibis_core::parallel::contain;
use ibis_core::{MissingPolicy, RangeQuery, RowSet, WorkCounters};
use ibis_storage::{ConcurrentDb, DbSnapshot};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, ErrorKind};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long one reply write may wait for a client to make room in its
/// socket. A write still blocked after this severs the connection: the
/// client has read nothing for this long, and the thread writing to it is
/// an executor every other connection is waiting on.
pub const REPLY_WRITE_BOUND: Duration = Duration::from_secs(2);

/// Tunables for one serving instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Most queries executing at once: the execution permits that
    /// connection readers hold while they drain the shared queue.
    pub workers: usize,
    /// Most queued queries one drain takes, to answer in queue order on
    /// one snapshot. `1` takes the queue lock and a snapshot per query.
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
    /// Defaults: 4 execution permits, drains of 8, a 256-deep queue,
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

/// One admitted query waiting for an executor.
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
    conn: Arc<Conn>,
}

/// The shared work queue and the execution permits held against it.
#[derive(Default)]
struct WorkQueue {
    jobs: VecDeque<Job>,
    /// Permits held: readers draining `jobs`, at most `config.workers`.
    busy: usize,
}

/// State shared by the accept loop and the connection readers.
struct Shared {
    db: Arc<ConcurrentDb>,
    config: ServerConfig,
    queue: Mutex<WorkQueue>,
    shutdown: AtomicBool,
    /// When the server started (feeds `uptime_ms` in reports).
    started: Instant,
    /// Admitted-query sequence number, drives trace sampling.
    admitted_seq: AtomicU64,
    /// The N worst traced requests, sorted worst-first.
    slow_log: Mutex<Vec<SlowQuery>>,
    /// A clone of every live connection's socket, by connection number, so
    /// that shutdown can sever them. A connection removes its entry when
    /// its reader ends: this holds live connections, not every connection
    /// ever accepted.
    conns: Mutex<HashMap<u64, TcpStream>>,
}

/// The sending side of one connection, shared by its reader and by every
/// executor answering one of its queries.
struct Conn {
    /// The socket itself: each reply is one vectored write, and nothing is
    /// buffered between replies.
    writer: Mutex<TcpStream>,
    /// Cleared when a reply write fails or times out: the connection is
    /// severed, and its queued jobs are dropped unexecuted.
    open: AtomicBool,
}

impl Conn {
    fn is_open(&self) -> bool {
        self.open.load(Ordering::Relaxed)
    }

    /// Writes one reply frame. A write that fails, or that blocks past
    /// [`REPLY_WRITE_BOUND`], severs the connection: the stream may now
    /// hold a torn frame.
    fn reply(&self, request_id: u64, response: Response) {
        let (kind, body) = response.encode();
        let mut w = self.writer.lock().expect("reply writer");
        if !self.is_open() {
            return;
        }
        if write_frame(&mut *w, request_id, kind, &body).is_err() {
            self.open.store(false, Ordering::Relaxed);
            ibis_obs::counter_add("server.severed", 1);
            let _ = w.shutdown(Shutdown::Both);
        }
    }

    /// Answers `request_id` with an error.
    fn refuse(&self, request_id: u64, code: ErrorCode, message: String) {
        self.reply(request_id, Response::Error { code, message });
    }
}

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
        // The telemetry plane runs on the process-global obs recorder. Turn
        // it on (metrics only: a traced request captures its own spans) if
        // the embedding process has not — but never reset a recording
        // someone else installed. An embedder that installed
        // `Recorder::enabled()` asked for every span and gets each untraced
        // request's in its span log; bounding that is the embedder's
        // business.
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
            queue: Mutex::default(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            admitted_seq: AtomicU64::new(0),
            slow_log: Mutex::new(Vec::new()),
            conns: Mutex::default(),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, &shared))
        };
        Ok(ServerHandle {
            addr: local_addr,
            shared,
            accept: Some(accept),
        })
    }
}

/// Owns a running server; [`addr`](ServerHandle::addr) is where clients
/// connect. Dropping the handle stops the accept loop, severs every open
/// connection, and joins every server thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
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
        // The accept thread severs the connections and joins the readers;
        // one that is executing finishes its current drain first.
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        // Jobs no executor reached before the stop.
        self.shared.queue.lock().expect("work queue").jobs.clear();
    }
}

/// Polls the non-blocking listener, spawning a reader per connection; once
/// the server stops, severs what is still open and joins the readers.
fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    let mut accepted = 0u64;
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_id = accepted;
                accepted += 1;
                ibis_obs::counter_add("server.connections", 1);
                stream.set_write_timeout(Some(REPLY_WRITE_BOUND)).ok();
                // Register a clone so shutdown can sever the socket; the
                // entry is removed when the connection's reader ends.
                let mut conns = shared.conns.lock().expect("conn registry");
                if let Ok(clone) = stream.try_clone() {
                    conns.insert(conn_id, clone);
                }
                drop(conns);
                let shared = Arc::clone(shared);
                readers.retain(|r| !r.is_finished());
                readers.push(std::thread::spawn(move || {
                    serve_connection(&shared, stream);
                    shared.conns.lock().expect("conn registry").remove(&conn_id);
                }));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
    // Every accepted connection is registered by now, so this reaches
    // each reader, including one accepted while the handle was dropping.
    for s in shared.conns.lock().expect("conn registry").values() {
        let _ = s.shutdown(Shutdown::Both);
    }
    for r in readers {
        let _ = r.join();
    }
}

/// Handshake, then the read → admit / answer → execute loop for one
/// connection. The socket closes when the last reply owed on it is written:
/// its queued jobs hold the connection.
fn serve_connection(shared: &Shared, mut stream: TcpStream) {
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
    let conn = Arc::new(Conn {
        writer: Mutex::new(stream),
        open: AtomicBool::new(true),
    });
    // Whether this reader admitted a query it has not yet drained for.
    let mut admitted = false;
    while !shared.shutdown.load(Ordering::SeqCst) && conn.is_open() {
        let frame = match read_frame(&mut reader) {
            Ok(frame) => frame,
            Err(e) => {
                // Frame-level damage: the stream is no longer aligned.
                // Report it once (best effort) and drop the connection;
                // a clean client close (EOF) is not reported.
                if e.kind() == ErrorKind::InvalidData {
                    ibis_obs::counter_add("server.protocol_errors", 1);
                    conn.refuse(0, ErrorCode::BadRequest, format!("protocol error: {e}"));
                }
                break;
            }
        };
        let request_id = frame.request_id;
        match Request::decode(&frame) {
            Ok(Request::Ping) => conn.reply(request_id, Response::Pong),
            // STATS and HEALTH never queue: telemetry must stay observable
            // while every execution permit is held.
            Ok(Request::Stats { include_slow }) => {
                ibis_obs::counter_add("server.stats_requests", 1);
                let report = build_stats(shared, include_slow);
                conn.reply(request_id, Response::Stats(Box::new(report)));
            }
            Ok(Request::Health) => conn.reply(request_id, Response::Health(build_health(shared))),
            Ok(Request::Query {
                query,
                count_only,
                deadline_ms,
            }) => {
                admitted |= admit(shared, &conn, request_id, query, count_only, deadline_ms);
            }
            Err(reason) => {
                ibis_obs::counter_add("server.bad_requests", 1);
                conn.refuse(request_id, ErrorCode::BadRequest, reason);
            }
        }
        // Run to completion once the burst already read is admitted.
        if admitted && !holds_frame(reader.buffer()) {
            execute_queued(shared);
            admitted = false;
        }
    }
    if admitted {
        execute_queued(shared);
    }
}

/// Admission control: refuse with `Overloaded` at the high-water mark,
/// otherwise enqueue, returning whether the query was queued. Whichever way
/// a request leaves here, its counters are recorded under one registry
/// lock.
fn admit(
    shared: &Shared,
    conn: &Arc<Conn>,
    request_id: u64,
    query: RangeQuery,
    count_only: bool,
    deadline_ms: u32,
) -> bool {
    // Schema validation happens at the door, not at execution: a query
    // naming an out-of-range attribute gets `BadRequest` here, before it
    // can take a queue slot, rather than `Internal` from an executor.
    if let Err(e) = query.validate(shared.db.snapshot().db().schema()) {
        ibis_obs::record(|m| {
            m.counter_add("server.requests", 1);
            m.counter_add("server.bad_requests", 1);
        });
        let message = format!("invalid search key: {e}");
        conn.refuse(request_id, ErrorCode::BadRequest, message);
        return false;
    }
    let budget = if deadline_ms == 0 {
        shared.config.default_deadline_ms
    } else {
        deadline_ms as u64
    };
    let now = Instant::now();
    let mut q = shared.queue.lock().expect("work queue");
    if q.jobs.len() >= shared.config.queue_high_water {
        drop(q);
        ibis_obs::record(|m| {
            m.counter_add("server.requests", 1);
            m.counter_add("server.shed_overload", 1);
            m.window_counter_add("server.shed", 1);
        });
        let high_water = shared.config.queue_high_water;
        let message = format!("queue at high-water mark ({high_water}); retry later");
        conn.refuse(request_id, ErrorCode::Overloaded, message);
        return false;
    }
    // Admission granted: count it — before the job is visible to an
    // executor, so that no reply can overtake its own admission in STATS —
    // and sample for tracing. The sequence number only advances for
    // admitted queries so a burst of shed load cannot starve the tracer.
    let seq = shared.admitted_seq.fetch_add(1, Ordering::Relaxed);
    ibis_obs::record(|m| {
        m.counter_add("server.requests", 1);
        m.counter_add("server.admitted", 1);
        m.window_counter_add("server.admitted", 1);
        m.gauge_set("server.queue_depth", (q.jobs.len() + 1) as f64);
    });
    q.jobs.push_back(Job {
        query,
        ticket: Ticket {
            request_id,
            count_only,
            deadline: now + Duration::from_millis(budget),
            enqueued: now,
            traced: shared.config.trace_sample > 0
                && seq.is_multiple_of(shared.config.trace_sample),
            conn: Arc::clone(conn),
        },
    });
    true
}

/// Drains the shared queue on the calling thread while it holds an
/// execution permit, up to `max_batch` jobs per drain, and gives the permit
/// back only once the queue is empty — so a job whose reader found no
/// permit free is answered by a holder. Without a free permit, returns at
/// once.
fn execute_queued(shared: &Shared) {
    let mut q = shared.queue.lock().expect("work queue");
    if q.busy >= shared.config.workers {
        return;
    }
    q.busy += 1;
    while !q.jobs.is_empty() && !shared.shutdown.load(Ordering::SeqCst) {
        let take = q.jobs.len().min(shared.config.max_batch);
        let jobs: Vec<Job> = q.jobs.drain(..take).collect();
        let (queue_depth, busy) = (q.jobs.len(), q.busy);
        drop(q);
        execute_jobs(shared, jobs, queue_depth, busy);
        q = shared.queue.lock().expect("work queue");
    }
    q.busy -= 1;
    let busy = q.busy;
    drop(q);
    ibis_obs::gauge_set("server.workers_busy", busy as f64);
}

fn micros(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_micros() as u64
}

/// Drops the jobs of severed connections and sheds the expired jobs of one
/// drain, then executes and answers the rest in queue order on one snapshot
/// (see [`execute_job`]). `queue_depth` and `busy` are what the drain left
/// behind and how many permits are held: the two gauges, set under the same
/// registry lock as the drain's counters.
fn execute_jobs(shared: &Shared, mut jobs: Vec<Job>, queue_depth: usize, busy: usize) {
    let owed = jobs.len();
    jobs.retain(|j| j.ticket.conn.is_open());
    let dropped = owed - jobs.len();
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
        if dropped > 0 {
            m.counter_add("server.dropped", dropped as u64);
        }
    });
    for Job { ticket: t, .. } in expired {
        let message = "deadline expired while queued".into();
        t.conn
            .refuse(t.request_id, ErrorCode::DeadlineExceeded, message);
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
/// span capture, whose spans never reach the recorder's global span log
/// (tracing costs O(this request)), and feeds the slow-query log. Degree 1
/// keeps every child span on this thread (the permits are the parallelism),
/// so the captured tree is complete and its per-phase counter deltas sum
/// exactly to the execution's final `WorkCounters`, as in
/// `ibis query --profile`.
fn execute_job(shared: &Shared, snap: &DbSnapshot, Job { query, ticket: t }: Job) {
    let started = Instant::now();
    // A panic anywhere under this job comes back as its error, and the
    // executor goes on draining.
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
    t.conn.reply(t.request_id, response);
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
    let (queue_depth, busy) = {
        let q = shared.queue.lock().expect("work queue");
        (q.jobs.len() as u32, q.busy as u32)
    };
    StatsReport {
        watermark: shared.db.snapshot().watermark(),
        queue_depth,
        queue_high_water: shared.config.queue_high_water as u32,
        workers: shared.config.workers as u32,
        workers_busy: busy,
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
    let queue_depth = shared.queue.lock().expect("work queue").jobs.len() as u32;
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
        while handle.shared.conns.lock().unwrap().len() > live.len() {
            assert!(
                waited.elapsed() < Duration::from_secs(30),
                "{} entries for {} live connections",
                handle.shared.conns.lock().unwrap().len(),
                live.len()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(handle.shared.conns.lock().unwrap().len(), live.len());
        for c in &mut live {
            assert!(matches!(c.ping().unwrap(), Response::Pong));
        }
        handle.shutdown();
    }
}
