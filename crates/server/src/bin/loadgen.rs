//! Open-loop load generator for `ibis-server`.
//!
//! Spawns an in-process server over a synthetic census dataset, drives it
//! with Poisson-ish arrivals (exponential inter-arrival times from a seeded
//! RNG) of a mixed point/range workload under both missing-data semantics,
//! and reports served throughput plus p50/p99 latency measured through
//! `ibis-obs` histograms.
//!
//! Two modes:
//!
//! - default (`--compare`): runs the unbatched/batched capacity comparison
//!   at 8 workers plus an overload-shedding scenario, printing one CSV row
//!   per scenario (and appending to `--csv PATH` if given);
//! - `--assert`: a single moderate-rate scenario that exits non-zero unless
//!   every request succeeded (zero errors, zero sheds) and throughput is
//!   non-zero — the CI smoke.

#![forbid(unsafe_code)]

use ibis_core::gen::{census_scaled, workload, QuerySpec};
use ibis_core::{MissingPolicy, RangeQuery};
use ibis_server::{Client, ErrorCode, Request, Response, Server, ServerConfig};
use ibis_storage::ConcurrentDb;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;
use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const LATENCY_HIST: &str = "loadgen.latency_us";

#[derive(Clone)]
struct Scenario {
    name: &'static str,
    workers: usize,
    max_batch: usize,
    queue_high_water: usize,
    /// Target arrival rate in requests/sec across all connections;
    /// 0 = flood (send as fast as the outstanding cap allows).
    rate: u64,
    conns: usize,
    duration: Duration,
    deadline_ms: u32,
}

#[derive(Clone, Copy, Default)]
struct Tally {
    sent: u64,
    ok: u64,
    shed: u64,
    expired: u64,
    errors: u64,
}

/// The server's own view of a scenario, read back over one `STATS`
/// request before shutdown — the cross-check against the client tally.
#[derive(Clone, Copy, Default)]
struct ServerSide {
    admitted: u64,
    shed: u64,
    expired: u64,
    p99_us: u64,
}

struct Outcome {
    tally: Tally,
    elapsed: Duration,
    p50_us: u64,
    p99_us: u64,
    srv: ServerSide,
    slow: Vec<ibis_server::SlowQuery>,
}

impl Outcome {
    fn throughput(&self) -> f64 {
        self.tally.ok as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Admitted jobs answer exactly once (rows/count, deadline error, or
    /// internal error), so the server's admission counter must equal the
    /// client-side non-shed response count.
    fn server_view_consistent(&self) -> bool {
        self.srv.admitted == self.tally.ok + self.tally.expired + self.tally.errors
            && self.srv.shed == self.tally.shed
    }

    fn csv_row(&self, sc: &Scenario) -> String {
        format!(
            "{},{},{},{},{:.1},{},{},{},{},{},{:.1},{},{},{},{},{},{}",
            sc.name,
            sc.workers,
            sc.max_batch,
            sc.rate,
            self.elapsed.as_secs_f64(),
            self.tally.sent,
            self.tally.ok,
            self.tally.shed,
            self.tally.expired,
            self.tally.errors,
            self.throughput(),
            self.p50_us,
            self.p99_us,
            self.srv.admitted,
            self.srv.shed,
            self.srv.expired,
            self.srv.p99_us,
        )
    }
}

const CSV_HEADER: &str = "scenario,workers,max_batch,rate_rps,duration_s,sent,ok,shed,\
expired,errors,throughput_rps,p50_us,p99_us,srv_admitted,srv_shed,srv_expired,srv_p99_us";

/// Builds the mixed workload: point and 3-attribute range queries under
/// both missing-data semantics at 5% global selectivity.
fn mixed_queries(db: &ConcurrentDb, seed: u64, per_spec: usize) -> Vec<RangeQuery> {
    let schema = db.snapshot().db().schema().clone();
    let mut queries = Vec::new();
    for (i, (k, policy)) in [
        (1, MissingPolicy::IsMatch),
        (1, MissingPolicy::IsNotMatch),
        (3, MissingPolicy::IsMatch),
        (3, MissingPolicy::IsNotMatch),
    ]
    .into_iter()
    .enumerate()
    {
        let spec = QuerySpec {
            n_queries: per_spec,
            k,
            global_selectivity: 0.05,
            policy,
            candidate_attrs: vec![],
        };
        queries.extend(workload(&schema, &spec, seed + i as u64));
    }
    queries
}

/// Drives one scenario against a fresh in-process server and returns the
/// aggregate tally plus latency quantiles.
fn run_scenario(
    db: &Arc<ConcurrentDb>,
    queries: &[RangeQuery],
    sc: &Scenario,
    seed: u64,
) -> Outcome {
    // A fresh recorder per scenario so the latency histogram starts empty.
    // Metrics only: a full recorder logs every span of every untraced
    // request, and the flood would then be measuring that log.
    ibis_obs::Recorder::metrics_only().install();
    let config = ServerConfig {
        workers: sc.workers,
        max_batch: sc.max_batch,
        queue_high_water: sc.queue_high_water,
        ..ServerConfig::default()
    };
    let handle = Server::start(Arc::clone(db), "127.0.0.1:0", config).expect("bind loopback");
    let addr = handle.addr();

    // Outstanding cap keeps flood mode from buffering unboundedly on the
    // client side; admission control bounds the server side.
    const MAX_OUTSTANDING: u64 = 256;
    let per_conn_rate = sc.rate as f64 / sc.conns as f64;
    let started = Instant::now();
    let tally = Mutex::new(Tally::default());
    std::thread::scope(|scope| {
        for conn in 0..sc.conns {
            let (mut tx, mut rx) = Client::connect(addr).expect("connect").into_split();
            let tally = &tally;
            let deadline_ms = sc.deadline_ms;
            let until = started + sc.duration;
            let sent = Arc::new(AtomicU64::new(0));
            let received = Arc::new(AtomicU64::new(0));
            let inflight: Arc<Mutex<HashMap<u64, Instant>>> = Arc::default();

            let sender = {
                let (sent, received, inflight) = (
                    Arc::clone(&sent),
                    Arc::clone(&received),
                    Arc::clone(&inflight),
                );
                move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ (conn as u64).wrapping_mul(0x9e37));
                    let mut n = 0u64;
                    while Instant::now() < until {
                        if per_conn_rate > 0.0 {
                            // Exponential inter-arrival: open-loop Poisson.
                            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                            let gap = -u.ln() / per_conn_rate;
                            std::thread::sleep(Duration::from_secs_f64(gap.min(1.0)));
                        } else {
                            while sent.load(Ordering::Acquire) - received.load(Ordering::Acquire)
                                >= MAX_OUTSTANDING
                            {
                                std::thread::sleep(Duration::from_micros(100));
                            }
                        }
                        let q = &queries[(rng.gen::<u64>() as usize) % queries.len()];
                        let req = Request::Query {
                            query: q.clone(),
                            count_only: false,
                            deadline_ms,
                        };
                        let now = Instant::now();
                        let id = match tx.send(&req) {
                            Ok(id) => id,
                            Err(_) => break,
                        };
                        inflight.lock().unwrap().insert(id, now);
                        n += 1;
                        sent.store(n, Ordering::Release);
                    }
                    n
                }
            };
            let sender = scope.spawn(sender);

            scope.spawn(move || {
                let mut local = Tally::default();
                let mut got = 0u64;
                loop {
                    // Drain until every sent request is answered; the
                    // server answers each admitted or shed request once.
                    if sender.is_finished() && got >= sent.load(Ordering::Acquire) {
                        break;
                    }
                    if got >= sent.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_micros(200));
                        continue;
                    }
                    let (id, resp) = match rx.recv() {
                        Ok(pair) => pair,
                        Err(_) => break,
                    };
                    got += 1;
                    received.store(got, Ordering::Release);
                    if let Some(t0) = inflight.lock().unwrap().remove(&id) {
                        ibis_obs::observe(LATENCY_HIST, t0.elapsed().as_micros() as u64);
                    }
                    match resp {
                        Response::Rows { .. } | Response::Count { .. } => local.ok += 1,
                        Response::Error {
                            code: ErrorCode::Overloaded,
                            ..
                        } => local.shed += 1,
                        Response::Error {
                            code: ErrorCode::DeadlineExceeded,
                            ..
                        } => local.expired += 1,
                        _ => local.errors += 1,
                    }
                }
                local.sent = got;
                let mut t = tally.lock().unwrap();
                t.sent += local.sent;
                t.ok += local.ok;
                t.shed += local.shed;
                t.expired += local.expired;
                t.errors += local.errors;
            });
        }
    });
    let elapsed = started.elapsed();

    // One STATS round-trip before shutdown: the server's own counters and
    // latency histogram for the scenario, plus its slow-query log. The
    // Prometheus export is validated here so a malformed exposition fails
    // the loadgen run (and CI) outright.
    let mut probe = Client::connect(addr).expect("stats probe");
    let report = probe.stats(true).expect("STATS request");
    let srv_snap =
        ibis_obs::Snapshot::from_json(&report.metrics_json).expect("server metrics parse");
    ibis_obs::validate_prometheus(&srv_snap.to_prometheus())
        .expect("server metrics export as valid Prometheus text");
    let c = |name: &str| srv_snap.counters.get(name).copied().unwrap_or(0);
    let srv = ServerSide {
        admitted: c("server.admitted"),
        shed: c("server.shed_overload"),
        expired: c("server.shed_deadline"),
        p99_us: srv_snap
            .histograms
            .get("server.request_us")
            .map_or(0, |h| h.p99()),
    };
    drop(probe);
    handle.shutdown();

    let snap = ibis_obs::Registry::export();
    let (p50_us, p99_us) = snap
        .histograms
        .get(LATENCY_HIST)
        .map(|h| (h.p50(), h.p99()))
        .unwrap_or((0, 0));
    let tally = *tally.lock().unwrap();
    Outcome {
        tally,
        elapsed,
        p50_us,
        p99_us,
        srv,
        slow: report.slow_queries,
    }
}

struct Args {
    rows: usize,
    seed: u64,
    duration: Duration,
    rate: u64,
    conns: usize,
    workers: usize,
    csv: Option<String>,
    slow_log: Option<String>,
    assert_clean: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--rows N] [--seed N] [--duration-secs N] [--rate RPS] \
         [--conns N] [--workers N] [--csv PATH] [--slow-log PATH] [--assert]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        rows: 20_000,
        seed: 42,
        duration: Duration::from_secs(5),
        rate: 0,
        conns: 4,
        workers: 8,
        csv: None,
        slow_log: None,
        assert_clean: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let num = |it: &mut dyn Iterator<Item = String>| -> u64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage())
        };
        match flag.as_str() {
            "--rows" => args.rows = num(&mut it) as usize,
            "--seed" => args.seed = num(&mut it),
            "--duration-secs" => args.duration = Duration::from_secs(num(&mut it)),
            "--rate" => args.rate = num(&mut it),
            "--conns" => args.conns = (num(&mut it) as usize).max(1),
            "--workers" => args.workers = (num(&mut it) as usize).max(1),
            "--csv" => args.csv = Some(it.next().unwrap_or_else(|| usage())),
            "--slow-log" => args.slow_log = Some(it.next().unwrap_or_else(|| usage())),
            "--assert" => args.assert_clean = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let db = Arc::new(ConcurrentDb::new_mem(
        census_scaled(args.rows, args.seed),
        (args.rows / 16).max(64),
    ));
    let queries = mixed_queries(&db, args.seed + 1, 16);
    eprintln!(
        "loadgen: {} rows, {} queries in pool, {} conns",
        args.rows,
        queries.len(),
        args.conns
    );

    let scenarios: Vec<Scenario> = if args.assert_clean {
        // CI smoke: moderate Poisson arrivals well under capacity with a
        // deep queue — every request must succeed.
        vec![Scenario {
            name: "smoke",
            workers: args.workers,
            max_batch: 16,
            queue_high_water: 4096,
            rate: if args.rate == 0 { 200 } else { args.rate },
            conns: args.conns,
            duration: args.duration,
            deadline_ms: 60_000,
        }]
    } else {
        let base = Scenario {
            name: "unbatched",
            workers: args.workers,
            max_batch: 1,
            queue_high_water: 1 << 20,
            rate: args.rate, // default 0 = flood, measuring capacity
            conns: args.conns,
            duration: args.duration,
            deadline_ms: 600_000,
        };
        vec![
            base.clone(),
            Scenario {
                name: "batched",
                max_batch: 16,
                ..base.clone()
            },
            // Overload: few workers, shallow queue, flooded — sheds must be
            // explicit and tail latency bounded by the queue depth.
            Scenario {
                name: "overload",
                workers: 2,
                max_batch: 8,
                queue_high_water: 64,
                ..base
            },
        ]
    };

    println!("{CSV_HEADER}");
    let mut rows = Vec::new();
    let mut slow_dump = String::new();
    let mut clean = true;
    for sc in &scenarios {
        let out = run_scenario(&db, &queries, sc, args.seed + 7);
        let row = out.csv_row(sc);
        println!("{row}");
        eprintln!(
            "  {}: {:.1} req/s served, p50 {} us, p99 {} us (server p99 {} us), \
             shed {}/{}, errors {}",
            sc.name,
            out.throughput(),
            out.p50_us,
            out.p99_us,
            out.srv.p99_us,
            out.tally.shed,
            out.srv.shed,
            out.tally.errors
        );
        if out.tally.errors > 0 || out.tally.ok == 0 {
            clean = false;
        }
        if !out.server_view_consistent() {
            eprintln!(
                "  {}: server view disagrees with tally (admitted {} vs ok+expired+errors {}, \
                 shed {} vs {})",
                sc.name,
                out.srv.admitted,
                out.tally.ok + out.tally.expired + out.tally.errors,
                out.srv.shed,
                out.tally.shed
            );
            clean = false;
        }
        if args.assert_clean && (out.tally.shed > 0 || out.tally.expired > 0) {
            clean = false;
        }
        use std::fmt::Write as _;
        let _ = writeln!(slow_dump, "# scenario {}", sc.name);
        for s in &out.slow {
            let _ = writeln!(
                slow_dump,
                "request {} total {} us (queue {} + exec {}) watermark {} plan {:?} phases {}",
                s.request_id,
                s.total_us,
                s.queue_us,
                s.exec_us,
                s.watermark,
                s.plan,
                s.phases
                    .iter()
                    .map(|p| format!("{}×{}:{}ns", p.name, p.spans, p.total_ns))
                    .collect::<Vec<_>>()
                    .join(","),
            );
        }
        rows.push(row);
    }

    if let Some(path) = &args.slow_log {
        std::fs::write(path, &slow_dump).expect("write slow log");
        eprintln!("loadgen: wrote slow-query log to {path}");
    }

    if let Some(path) = &args.csv {
        let mut f = std::fs::File::create(path).expect("create csv");
        writeln!(f, "{CSV_HEADER}").unwrap();
        for row in &rows {
            writeln!(f, "{row}").unwrap();
        }
        eprintln!("loadgen: wrote {path}");
    }

    if args.assert_clean && !clean {
        eprintln!("loadgen: FAILED assertion (errors, sheds, or zero throughput)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
