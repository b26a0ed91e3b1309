//! serving — latency against offered load through the IBQP server
//! (DESIGN.md §15–16).
//!
//! An in-process [`Server`] over a one-shard, default-config
//! [`ConcurrentDb`] of census rows, shaped like the benchmark's `served`
//! workload: 2 workers, default drains of 8, one shared connection, point
//! and range queries under both semantics at GS = 1%, a quarter of them
//! count-only. A closed loop with 32 requests in flight measures
//! capacity; open-loop Poisson arrivals then offer 25, 50, 80, 100 and
//! 120% of it. An open-loop latency runs from the instant its
//! request was *due*, so a stall also charges the requests scheduled behind
//! it; a closed-loop one runs from its send. Latencies are of answered
//! requests: a shed or expired request is counted, not timed.
//!
//! The run checks what it measures, outside any timing: every request is
//! answered exactly once, every row or count reply equals the scan, and at
//! every point one `STATS` shows the server admitting, shedding and
//! expiring exactly what the client tallied, in a metrics export that
//! validates as Prometheus text.

use crate::config::Scale;
use crate::report::Table;
use ibis::prelude::{ConcurrentDb, Server, ServerConfig, ServerHandle};
use ibis::server::client::{RecvHalf, SendHalf};
use ibis::server::{Client, ErrorCode, Request, Response};
use ibis_core::gen::{census_scaled, workload, QuerySpec};
use ibis_core::{scan, MissingPolicy, RangeQuery, RowSet, QUERY_BUDGET_MS};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests the capacity loop keeps in flight: the benchmark's 32-caller
/// flood, which its `capacity_rps` reads.
const OUTSTANDING: usize = 32;

/// Offered load, as a share of measured capacity.
const LOAD_SHARES: [f64; 5] = [0.25, 0.5, 0.8, 1.0, 1.2];

/// Requests per point for each of `Scale::queries`: 3,000 at the paper's
/// 100, so that 30 samples lie beyond a p99.
const REQUESTS_PER_QUERY: usize = 30;

const HEADERS: [&str; 15] = [
    "load",
    "offered_rps",
    "outstanding",
    "sent",
    "ok",
    "shed",
    "expired",
    "errors",
    "served_rps",
    "p50_us",
    "p99_us",
    "gen_late_us_p99",
    "srv_admitted",
    "srv_shed",
    "srv_expired",
];

/// The query pool with its scan truth. The request with connection id `id`
/// asks query `(id - 1) % len`, for a count when that index is a multiple
/// of four.
struct Pool(Vec<(RangeQuery, RowSet)>);

impl Pool {
    fn index(&self, id: u64) -> usize {
        (id - 1) as usize % self.0.len()
    }

    fn request(&self, id: u64) -> Request {
        let qi = self.index(id);
        Request::Query {
            query: self.0[qi].0.clone(),
            count_only: qi.is_multiple_of(4),
            deadline_ms: 0,
        }
    }

    fn truth(&self, id: u64) -> &RowSet {
        &self.0[self.index(id)].1
    }
}

/// The one split connection every query travels on; ids run from 1 in
/// send order.
struct Conn<'a> {
    tx: SendHalf,
    rx: RecvHalf,
    sent: u64,
    dog: &'a Watchdog,
}

/// Owns the server, and shuts it down when the run ends or when no reply
/// has come for twice the server's default deadline. The server answers
/// every admitted request by its deadline, so that silence means a reply
/// was lost; severing the connection turns the receiver's otherwise
/// endless wait into an error.
struct Watchdog {
    began: Instant,
    last_reply_ms: AtomicU64,
}

impl Watchdog {
    fn fed(&self) {
        let now = self.began.elapsed().as_millis() as u64;
        self.last_reply_ms.store(now, Ordering::Relaxed);
    }

    fn watch(&self, server: ServerHandle, run_over: mpsc::Receiver<()>) {
        while let Err(RecvTimeoutError::Timeout) = run_over.recv_timeout(Duration::from_millis(100))
        {
            let silent = self.began.elapsed().as_millis() as u64
                - self.last_reply_ms.load(Ordering::Relaxed);
            if silent > 2 * QUERY_BUDGET_MS {
                eprintln!("serving: no reply for {silent} ms, past every deadline: one was lost");
                break;
            }
        }
        server.shutdown();
    }
}

/// One point's replies, checked as they arrive. Request `i` of the point
/// has id `first + i`.
struct Tally {
    first: u64,
    answered: Vec<bool>,
    ok: u64,
    shed: u64,
    expired: u64,
    errors: u64,
    /// Latency of each answered request, in ns.
    latency_ns: Vec<u64>,
    /// How late an open loop's generator sent each request, in ns.
    late_ns: Vec<u64>,
    wall: Duration,
}

impl Tally {
    fn new(first: u64, n: usize) -> Tally {
        Tally {
            first,
            answered: vec![false; n],
            ok: 0,
            shed: 0,
            expired: 0,
            errors: 0,
            latency_ns: Vec::with_capacity(n),
            late_ns: Vec::new(),
            wall: Duration::ZERO,
        }
    }

    /// Files the reply to `id`, received at `end`: it must be the request's
    /// first reply, and an answer must equal the scan. `origin[i]` is
    /// where request `i`'s latency starts.
    fn file(&mut self, pool: &Pool, id: u64, reply: Response, end: Instant, origin: &[Instant]) {
        let i = id
            .checked_sub(self.first)
            .map(|i| i as usize)
            .filter(|&i| i < self.answered.len())
            .unwrap_or_else(|| panic!("a reply to request {id}, which this point did not send"));
        assert!(!self.answered[i], "request {id} answered twice");
        self.answered[i] = true;
        let truth = pool.truth(id);
        match reply {
            Response::Rows { rows, .. } => assert_eq!(rows, truth.rows(), "rows of request {id}"),
            Response::Count { count, .. } => {
                assert_eq!(count, truth.len() as u64, "count of request {id}")
            }
            Response::Error {
                code: ErrorCode::Overloaded,
                ..
            } => {
                self.shed += 1;
                return;
            }
            Response::Error {
                code: ErrorCode::DeadlineExceeded,
                ..
            } => {
                self.expired += 1;
                return;
            }
            other => {
                eprintln!("request {id} failed: {other:?}");
                self.errors += 1;
                return;
            }
        }
        self.ok += 1;
        let latency = end.saturating_duration_since(origin[i]);
        self.latency_ns.push(latency.as_nanos() as u64);
    }
}

/// `n` requests with `outstanding` of them in flight, the next sent as a
/// reply frees a slot; a latency runs from the send.
fn closed_loop(conn: &mut Conn, pool: &Pool, n: usize, outstanding: usize) -> Tally {
    let mut tally = Tally::new(conn.sent + 1, n);
    let mut sent_at = Vec::with_capacity(n);
    let began = Instant::now();
    for received in 0..n {
        while sent_at.len() < n.min(received + outstanding) {
            sent_at.push(Instant::now());
            let id = conn.tx.send(&pool.request(conn.sent + 1)).expect("send");
            conn.sent += 1;
            assert_eq!(id, conn.sent, "request ids left their sequence");
        }
        let (id, reply) = conn.rx.recv().expect("a reply");
        conn.dog.fed();
        tally.file(pool, id, reply, Instant::now(), &sent_at);
    }
    tally.wall = began.elapsed();
    tally
}

/// `n` requests at exponential inter-arrival times averaging `rate` per
/// second: a generator thread sends each when due, however many are
/// outstanding, while this thread receives.
fn open_loop(conn: &mut Conn, pool: &Pool, n: usize, rate: f64, rng: &mut StdRng) -> Tally {
    let first = conn.sent + 1;
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut at = 0.0;
    let due: Vec<Instant> = (0..n)
        .map(|_| {
            at += -(1.0 - rng.gen::<f64>()).ln() / rate;
            t0 + Duration::from_secs_f64(at)
        })
        .collect();
    let Conn { tx, rx, sent, dog } = conn;
    let mut tally = std::thread::scope(|s| {
        let generator = s.spawn(|| {
            let mut late_ns = Vec::with_capacity(n);
            for (i, &when) in due.iter().enumerate() {
                if let Some(wait) = when.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                late_ns.push(Instant::now().saturating_duration_since(when).as_nanos() as u64);
                let id = first + i as u64;
                assert_eq!(tx.send(&pool.request(id)).expect("send"), id);
            }
            late_ns
        });
        let mut tally = Tally::new(first, n);
        for _ in 0..n {
            let (id, reply) = rx.recv().expect("a reply");
            dog.fed();
            tally.file(pool, id, reply, Instant::now(), &due);
        }
        tally.late_ns = generator.join().expect("the generator thread");
        tally
    });
    *sent += n as u64;
    tally.wall = t0.elapsed();
    tally
}

/// The server's cumulative `[admitted, shed, expired]` counters, read over
/// one `STATS`, whose metrics must export as valid Prometheus text.
fn server_view(probe: &mut Client) -> [u64; 3] {
    let report = probe.stats(false).expect("a STATS reply");
    let m = ibis_obs::Snapshot::from_json(&report.metrics_json).expect("STATS metrics parse");
    ibis_obs::validate_prometheus(&m.to_prometheus())
        .expect("STATS metrics export as valid Prometheus text");
    [
        "server.admitted",
        "server.shed_overload",
        "server.shed_deadline",
    ]
    .map(|c| m.counters.get(c).copied().unwrap_or(0))
}

/// The `q` quantile of `ns`, in whole µs; blank when nothing was timed.
fn quantile_us(ns: &mut [u64], q: f64) -> String {
    if ns.is_empty() {
        return String::new();
    }
    ns.sort_unstable();
    let rank = ((ns.len() as f64 * q).ceil() as usize).clamp(1, ns.len());
    format!("{:.0}", ns[rank - 1] as f64 / 1e3)
}

/// Latency against offered load. One table, one CSV
/// (`results/serving.csv`): a capacity row, then one row per load share.
pub fn run(scale: &Scale) -> Vec<Table> {
    // Half the synthetic row count: 50,000 at paper scale, the size of the
    // benchmark's `served` relation.
    let rows = (scale.rows / 2).max(1);
    let data = census_scaled(rows, scale.seed + 900);
    let mut pool = Vec::new();
    for (j, (k, policy)) in [1, 2, 4]
        .into_iter()
        .flat_map(|k| MissingPolicy::ALL.map(|p| (k, p)))
        .enumerate()
    {
        let spec = QuerySpec {
            n_queries: scale.queries,
            k,
            global_selectivity: 0.01,
            policy,
            candidate_attrs: vec![],
        };
        for q in workload(&data, &spec, scale.seed + 910 + j as u64) {
            let truth = scan::execute(&data, &q);
            pool.push((q, truth));
        }
    }
    let pool = Pool(pool);
    let n = scale.queries.max(1) * REQUESTS_PER_QUERY;

    let db = Arc::new(ConcurrentDb::new_mem(data, rows));
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let handle = Server::start(db, "127.0.0.1:0", config).expect("bind loopback");
    let addr = handle.addr();
    let dog = Watchdog {
        began: Instant::now(),
        last_reply_ms: AtomicU64::new(0),
    };
    std::thread::scope(|s| {
        let (_run_over, watching) = mpsc::channel();
        let dog = &dog;
        s.spawn(move || dog.watch(handle, watching));
        let (tx, rx) = Client::connect(addr).expect("connect").into_split();
        let mut conn = Conn {
            tx,
            rx,
            sent: 0,
            dog,
        };
        let mut probe = Client::connect(addr).expect("connect the STATS probe");
        vec![curve(&mut conn, &mut probe, &pool, n, rows, scale.seed)]
    })
}

/// The measured points, after a warm-up, as a table.
fn curve(
    conn: &mut Conn,
    probe: &mut Client,
    pool: &Pool,
    n: usize,
    rows: usize,
    seed: u64,
) -> Table {
    // Warm-up, answers checked, nothing reported. On a two-core VM that had
    // sat idle, the first second of closed-loop load ran at about 60% of the
    // rate every later second held; three points' worth covers it there.
    closed_loop(conn, pool, 3 * n, OUTSTANDING);

    let mut table = Table::new(
        "serving",
        &format!(
            "latency vs offered load through the IBQP server: {rows} census rows, one shard, \
             2 workers, one connection, 25% count-only; capacity from a closed loop with \
             {OUTSTANDING} outstanding, then open-loop Poisson arrivals timed from each \
             request's due time"
        ),
        &HEADERS,
    );
    let mut seen = server_view(probe);
    // One row per point, `offered` rps for an open loop and `None` for the
    // closed one, after one STATS shows the server agreeing with the tally.
    let mut row = |load: String, offered: Option<f64>, mut t: Tally| {
        let now = server_view(probe);
        let srv = [0, 1, 2].map(|c| now[c] - seen[c]);
        seen = now;
        assert_eq!(t.errors, 0, "{load}: requests failed");
        assert_eq!(
            srv,
            [t.ok + t.expired + t.errors, t.shed, t.expired],
            "{load}: STATS [admitted, shed, expired] disagrees with the client tally"
        );
        table.push(vec![
            load,
            offered.map_or(String::new(), |r| format!("{r:.0}")),
            offered.map_or(OUTSTANDING.to_string(), |_| String::new()),
            t.answered.len().to_string(),
            t.ok.to_string(),
            t.shed.to_string(),
            t.expired.to_string(),
            t.errors.to_string(),
            format!("{:.0}", t.ok as f64 / t.wall.as_secs_f64()),
            quantile_us(&mut t.latency_ns, 0.5),
            quantile_us(&mut t.latency_ns, 0.99),
            quantile_us(&mut t.late_ns, 0.99),
            srv[0].to_string(),
            srv[1].to_string(),
            srv[2].to_string(),
        ]);
    };

    let capacity = closed_loop(conn, pool, n, OUTSTANDING);
    let capacity_rps = capacity.ok as f64 / capacity.wall.as_secs_f64();
    row("capacity".into(), None, capacity);
    let mut rng = StdRng::seed_from_u64(seed + 920);
    for share in LOAD_SHARES {
        let rate = share * capacity_rps;
        let tally = open_loop(conn, pool, n, rate, &mut rng);
        row(format!("{:.0}%", share * 100.0), Some(rate), tally);
    }

    // Nothing is still in flight: the next reply on the connection answers
    // a ping.
    let id = conn.tx.send(&Request::Ping).expect("send a ping");
    let (got, reply) = conn.rx.recv().expect("a pong");
    assert!(
        got == id && matches!(reply, Response::Pong),
        "a stray reply after the last point: request {got}, {reply:?}"
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_capacity_row_then_five_load_rows_that_add_up() {
        let tables = run(&Scale {
            rows: 2_000,
            queries: 4,
            ..Scale::smoke()
        });
        let t = &tables[0];
        assert_eq!(t.rows.len(), 1 + LOAD_SHARES.len());
        assert_eq!(t.rows[0][0], "capacity");
        assert_eq!(t.rows[0][2], OUTSTANDING.to_string());
        for (row, share) in t.rows[1..].iter().zip(LOAD_SHARES) {
            assert_eq!(row[0], format!("{:.0}%", share * 100.0));
        }
        let col = |row: &[String], name: &str| -> u64 {
            let c = HEADERS.iter().position(|h| *h == name).expect("a column");
            row[c]
                .parse()
                .unwrap_or_else(|_| panic!("{name} = {:?}", row[c]))
        };
        for row in &t.rows {
            let (ok, shed, expired) = (col(row, "ok"), col(row, "shed"), col(row, "expired"));
            assert_eq!(ok + shed + expired, col(row, "sent"), "{row:?}");
            assert_eq!(col(row, "errors"), 0, "{row:?}");
            assert_eq!(col(row, "srv_admitted"), ok + expired, "{row:?}");
            assert_eq!(col(row, "srv_shed"), shed, "{row:?}");
            assert_eq!(col(row, "srv_expired"), expired, "{row:?}");
        }
    }
}
