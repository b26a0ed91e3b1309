//! The telemetry plane, proven over real loopback sockets:
//!
//! * `STATS`/`HEALTH` never queue — they return while every execution
//!   permit is held and a deep backlog is still queued;
//! * `requests.admitted` is monotone across consecutive `STATS` reads, and
//!   the queue gauge is nonzero at overload;
//! * the server-side `server.request_us` histogram p99 agrees with the
//!   client's own exact per-request measurement within the log-linear
//!   histogram's ≤12.5% error (plus a little framing slack, and a 100 µs
//!   allowance for the socket work no server stamp can see);
//! * the slow-query log's per-phase span counter deltas sum **exactly** to
//!   each logged query's final `WorkCounters` — the PR 4 profile
//!   invariant, extended across the wire;
//! * what the server records about a request is O(that request): the
//!   process-global span log holds no server span after 2,000 requests or
//!   after 20,000, whoever installed the recorder.
//!
//! The obs recorder is process-global, so every test here serializes on
//! one lock and installs a fresh recorder before starting its server.

use ibis_core::gen::census_scaled;
use ibis_core::{MissingPolicy, Predicate, RangeQuery, WorkCounters};
use ibis_server::{Client, Request, Response, Server, ServerConfig};
use ibis_storage::ConcurrentDb;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn fresh_recorder() {
    ibis_obs::Recorder::enabled().install();
}

/// A deliberately expensive query (wide IsNotMatch range on the widest
/// attribute) so execution dominates framing overhead.
fn slow_query(db: &ConcurrentDb) -> RangeQuery {
    let snap = db.snapshot();
    let schema = snap.db().schema();
    let attr = (0..schema.n_attrs())
        .max_by_key(|&a| schema.column(a).cardinality())
        .unwrap();
    let c = schema.column(attr).cardinality();
    RangeQuery::new(
        vec![Predicate::range(attr, 1, c - 1)],
        MissingPolicy::IsNotMatch,
    )
    .unwrap()
}

/// A wide IsNotMatch range on every attribute that has one: 48 predicates
/// to evaluate and intersect, so execution takes milliseconds, not
/// microseconds.
fn slowest_query(db: &ConcurrentDb) -> RangeQuery {
    let snap = db.snapshot();
    let schema = snap.db().schema();
    let preds = (0..schema.n_attrs())
        .filter(|&a| schema.column(a).cardinality() >= 2)
        .map(|a| Predicate::range(a, 1, schema.column(a).cardinality() - 1))
        .collect();
    RangeQuery::new(preds, MissingPolicy::IsNotMatch).unwrap()
}

fn metrics(report: &ibis_server::StatsReport) -> ibis_obs::Snapshot {
    ibis_obs::Snapshot::from_json(&report.metrics_json).expect("STATS metrics_json parses")
}

#[test]
fn stats_and_health_answer_off_pool_while_workers_are_saturated() {
    let _serial = serial();
    fresh_recorder();
    // One slow worker, no batching, a deep queue: the pool saturates and a
    // long backlog builds while we probe telemetry from the side.
    let db = Arc::new(ConcurrentDb::new_mem(census_scaled(4000, 901), 512));
    let config = ServerConfig {
        workers: 1,
        max_batch: 1,
        queue_high_water: 1024,
        trace_sample: 0,
        ..ServerConfig::default()
    };
    let handle = Server::start(Arc::clone(&db), "127.0.0.1:0", config).unwrap();
    let req = Request::Query {
        query: slow_query(&db),
        count_only: true,
        deadline_ms: 120_000,
    };
    let (mut tx, mut rx) = Client::connect(handle.addr()).unwrap().into_split();
    let mut feed = |burst: usize| {
        for _ in 0..burst {
            tx.send(&req).unwrap();
        }
        burst
    };
    let mut sent = feed(80);

    // The single worker is busy for the whole burst; STATS and HEALTH on a
    // second connection must answer long before the backlog drains. A fast
    // build can drain a burst between two probes, so the queue is kept fed
    // until the probe has seen both a backlog and a busy worker, for up to
    // ten seconds and well below the shedding mark.
    let mut probe = Client::connect(handle.addr()).unwrap();
    let mut prev_admitted = 0u64;
    let mut saw_backlog = false;
    let mut saw_busy = false;
    let began = std::time::Instant::now();
    let mut probes = 0;
    while probes < 10
        || (!(saw_backlog && saw_busy)
            && began.elapsed() < std::time::Duration::from_secs(10)
            && sent < 800)
    {
        probes += 1;
        if !(saw_backlog && saw_busy) {
            sent += feed(8);
        }
        let s = probe.stats(false).unwrap();
        let m = metrics(&s);
        let admitted = m.counters.get("server.admitted").copied().unwrap_or(0);
        assert!(
            admitted >= prev_admitted,
            "requests.admitted regressed: {admitted} < {prev_admitted}"
        );
        prev_admitted = admitted;
        saw_backlog |= s.queue_depth > 0;
        saw_busy |= s.workers_busy > 0;
        let h = probe.health().unwrap();
        assert_eq!(h.workers, 1);
        assert_eq!(h.queue_high_water, 1024);
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(
        saw_backlog,
        "queue gauge stayed zero under an 80-deep burst"
    );
    assert!(saw_busy, "workers_busy never observed nonzero");
    assert!(prev_admitted > 0, "admitted counter never moved");

    // The backlog still drains to completion afterwards.
    for _ in 0..sent {
        match rx.recv().unwrap().1 {
            Response::Count { .. } | Response::Error { .. } => {}
            other => panic!("unexpected response {other:?}"),
        }
    }
    handle.shutdown();
}

#[test]
fn stats_shows_monotone_admitted_shed_at_overload_and_valid_prometheus() {
    let _serial = serial();
    fresh_recorder();
    // A 2-deep queue against a single slow worker: a burst must shed, and
    // STATS must expose the shed count, a (transiently) nonzero queue
    // gauge, and a Prometheus export that validates.
    let db = Arc::new(ConcurrentDb::new_mem(census_scaled(4000, 902), 512));
    let config = ServerConfig {
        workers: 1,
        max_batch: 1,
        queue_high_water: 2,
        trace_sample: 0,
        ..ServerConfig::default()
    };
    let handle = Server::start(Arc::clone(&db), "127.0.0.1:0", config).unwrap();
    let req = Request::Query {
        query: slow_query(&db),
        count_only: true,
        deadline_ms: 120_000,
    };
    let (mut tx, mut rx) = Client::connect(handle.addr()).unwrap().into_split();
    let n = 120;
    for _ in 0..n {
        tx.send(&req).unwrap();
    }
    let mut shed_seen = 0;
    for _ in 0..n {
        if let Response::Error { .. } = rx.recv().unwrap().1 {
            shed_seen += 1;
        }
    }
    assert!(shed_seen > 0, "a 2-deep queue must shed a 120-burst");

    let mut probe = Client::connect(handle.addr()).unwrap();
    let s = probe.stats(false).unwrap();
    let m = metrics(&s);
    let admitted = m.counters["server.admitted"];
    let shed = m.counters["server.shed_overload"];
    assert_eq!(m.counters["server.requests"], admitted + shed);
    assert_eq!(
        shed, shed_seen as u64,
        "server-side shed matches client view"
    );
    assert!(admitted > 0);
    // The same registry exports as valid Prometheus text.
    let prom = m.to_prometheus();
    ibis_obs::validate_prometheus(&prom).unwrap_or_else(|e| panic!("{e}\n{prom}"));
    assert!(prom.contains("ibis_server_admitted"), "{prom}");
    handle.shutdown();
}

#[test]
fn server_p99_matches_client_measurement_within_histogram_error() {
    let _serial = serial();
    fresh_recorder();
    // Closed-loop: one request outstanding, so server request_us (enqueue →
    // done) and the client's send → recv wall time measure the same event,
    // differing only by framing overhead. The histogram may then add at
    // most its ≤12.5% bucket error.
    //
    // In absolute terms the framing is a socket read and decode before the
    // server's first stamp, a reply encode and write after its last, and
    // the client's own wake-up: none of it shrinks with the query. The
    // request runs to completion on the thread that read it, so no thread
    // hand-off lies between. The p99s must agree within 15% or within
    // `HANDOFF_SLACK_US`, whichever is larger, and the server's interval
    // lies inside the client's, so its p99 is never the larger one.
    //
    // For the 15% to be what decides, 0.15 × p99 must exceed the slack, so
    // the query must take well over 667 µs: a wide range on each of the 48
    // attributes over 40,000 rows. On a 2-vCPU host it took 1.55–1.69 ms
    // at the median and 2.3–2.6 ms at the p99 over 8 optimised runs, with
    // a client − server p99 gap of 15–185 µs (0.6–7.4%); over 4
    // unoptimised runs 5.8 ms and 6.6–6.8 ms, gap 104–236 µs. The slack is
    // the largest gap measured when the query took 40–130 µs (14–26 µs
    // optimised, 32–63 µs not), rounded up.
    const HANDOFF_SLACK_US: f64 = 100.0;
    let db = Arc::new(ConcurrentDb::new_mem(census_scaled(40_000, 903), 512));
    let config = ServerConfig {
        workers: 2,
        trace_sample: 0,
        ..ServerConfig::default()
    };
    let handle = Server::start(Arc::clone(&db), "127.0.0.1:0", config).unwrap();
    let q = slowest_query(&db);
    assert_eq!(q.predicates().len(), 48);
    let mut client = Client::connect(handle.addr()).unwrap();
    // Warm both sides (snapshot faulting, allocator, connection), then
    // reset the recorder so the histogram holds exactly the measured set.
    for _ in 0..5 {
        client.count(&q, 120_000).unwrap();
    }
    // A co-scheduled test suite can steal the CPU between the server's
    // `done` stamp and the client's `recv`, inflating one client-side
    // sample past the histogram-error bound — so a disagreeing round is
    // retried on a fresh recorder rather than trusted blindly.
    let mut last = String::new();
    let agreed = (0..3).any(|_| {
        fresh_recorder();
        let rounds = 40;
        let mut lat_us: Vec<u64> = Vec::new();
        for _ in 0..rounds {
            let t0 = Instant::now();
            match client.count(&q, 120_000).unwrap() {
                Response::Count { .. } => {}
                other => panic!("unexpected {other:?}"),
            }
            lat_us.push(t0.elapsed().as_micros() as u64);
        }
        lat_us.sort_unstable();
        let client_p99 = lat_us[(lat_us.len() * 99).div_ceil(100).min(lat_us.len()) - 1] as f64;

        let s = client.stats(false).unwrap();
        let h = &metrics(&s).histograms["server.request_us"];
        assert_eq!(h.count, rounds);
        let server_p99 = h.p99() as f64;
        let rel = (client_p99 - server_p99).abs() / client_p99;
        last = format!("client={client_p99}µs server={server_p99}µs rel={rel:.3}");
        server_p99 <= client_p99
            && client_p99 - server_p99 <= (0.15 * client_p99).max(HANDOFF_SLACK_US)
    });
    assert!(agreed, "p99 disagrees beyond histogram error: {last}");
    handle.shutdown();
}

#[test]
fn slow_query_log_phase_deltas_sum_exactly_to_work_counters() {
    let _serial = serial();
    fresh_recorder();
    // Trace every query; the slow log then carries span trees whose
    // per-phase counter deltas must reproduce each query's WorkCounters.
    let db = Arc::new(ConcurrentDb::new_mem(census_scaled(800, 904), 128));
    let config = ServerConfig {
        workers: 2,
        trace_sample: 1,
        slow_log_size: 8,
        ..ServerConfig::default()
    };
    let handle = Server::start(Arc::clone(&db), "127.0.0.1:0", config).unwrap();
    let q = slow_query(&db);
    let mut client = Client::connect(handle.addr()).unwrap();
    for _ in 0..10 {
        assert!(matches!(
            client.count(&q, 120_000).unwrap(),
            Response::Count { .. }
        ));
    }
    let s = client.stats(true).unwrap();
    assert!(!s.slow_queries.is_empty(), "tracing every query must log");
    assert!(s.slow_queries.len() <= 8, "slow log is bounded");
    let mut prev_total = u64::MAX;
    for slow in &s.slow_queries {
        assert!(slow.total_us <= prev_total, "slow log is worst-first");
        prev_total = slow.total_us;
        assert!(slow.plan.contains('∈'), "plan is rendered: {:?}", slow.plan);
        assert!(!slow.phases.is_empty(), "traced request has phases");
        // Queue wait + execution account for the whole request (±1µs
        // truncation per duration split).
        assert!(
            slow.total_us.abs_diff(slow.queue_us + slow.exec_us) <= 2,
            "total {} != queue {} + exec {}",
            slow.total_us,
            slow.queue_us,
            slow.exec_us
        );
        // The wire invariant: per-phase span counter deltas sum exactly
        // to the final WorkCounters.
        let final_counters =
            WorkCounters::from_fields(slow.counters.iter().map(|(k, v)| (k.as_str(), *v)));
        let mut phase_sum = WorkCounters::zero();
        for p in &slow.phases {
            phase_sum.merge(WorkCounters::from_fields(
                p.counters.iter().map(|(k, v)| (k.as_str(), *v)),
            ));
        }
        assert!(!final_counters.is_zero(), "query did real work");
        assert_eq!(
            phase_sum, final_counters,
            "span deltas must sum to WorkCounters for request {}",
            slow.request_id
        );
    }
    // STATS without the flag omits the log but keeps the metrics.
    let lean = client.stats(false).unwrap();
    assert!(lean.slow_queries.is_empty());
    assert!(metrics(&lean).counters["server.traced"] >= 10);
    handle.shutdown();
}

/// The two slow-log invariants: queue wait + execution account for the
/// request's latency, and the per-phase span counter deltas sum exactly to
/// its final `WorkCounters`.
fn assert_slow_log_adds_up(slow_queries: &[ibis_server::SlowQuery]) {
    for slow in slow_queries {
        assert!(
            slow.total_us.abs_diff(slow.queue_us + slow.exec_us) <= 2,
            "total {} != queue {} + exec {}",
            slow.total_us,
            slow.queue_us,
            slow.exec_us
        );
        let final_counters =
            WorkCounters::from_fields(slow.counters.iter().map(|(k, v)| (k.as_str(), *v)));
        let mut phase_sum = WorkCounters::zero();
        for p in &slow.phases {
            phase_sum.merge(WorkCounters::from_fields(
                p.counters.iter().map(|(k, v)| (k.as_str(), *v)),
            ));
        }
        assert!(!final_counters.is_zero(), "query did real work");
        assert_eq!(
            phase_sum, final_counters,
            "span deltas must sum to WorkCounters for request {}",
            slow.request_id
        );
    }
}

/// Sends `n` copies of `q` on a connection of its own, at most 64
/// outstanding — under the default high-water mark, so every one is
/// admitted — and checks every reply.
fn serve_counts(handle: &ibis_server::ServerHandle, q: &RangeQuery, n: u64) {
    let req = Request::Query {
        query: q.clone(),
        count_only: true,
        deadline_ms: 120_000,
    };
    let (mut tx, mut rx) = Client::connect(handle.addr()).unwrap().into_split();
    let mut received = 0;
    for sent in 1..=n {
        tx.send(&req).unwrap();
        while sent - received >= 64 || (sent == n && received < n) {
            assert!(matches!(rx.recv().unwrap().1, Response::Count { .. }));
            received += 1;
        }
    }
}

#[test]
fn span_log_stays_empty_however_many_requests_were_served() {
    let _serial = serial();
    let db = Arc::new(ConcurrentDb::new_mem(census_scaled(800, 905), 128));
    let q = slow_query(&db);
    // No timing here, only counts. The server installs its own recorder:
    // default config, so every 8th request is traced and the rest are not.
    for n in [2_000u64, 20_000] {
        ibis_obs::Recorder::disabled().install();
        let handle =
            Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
        serve_counts(&handle, &q, n);
        // The serving path keeps the two gauges itself: any reader of the
        // registry finds them, whether or not anyone has sent STATS.
        let gauges = ibis_obs::Registry::export().gauges;
        assert!(gauges.contains_key("server.queue_depth"), "{gauges:?}");
        assert!(gauges.contains_key("server.workers_busy"), "{gauges:?}");
        let s = Client::connect(handle.addr()).unwrap().stats(true).unwrap();
        let m = metrics(&s);
        assert_eq!(m.counters["server.admitted"], n);
        assert_eq!(m.counters["server.responses"], n);
        assert_eq!(m.counters["server.traced"], n / 8);
        assert_eq!(m.counters["server.untraced"], n - n / 8);
        assert_eq!(s.slow_queries.len(), ServerConfig::default().slow_log_size);
        assert_slow_log_adds_up(&s.slow_queries);
        // Traced requests handed their spans to the slow log through a
        // capture; untraced ones recorded none. Nothing accumulates.
        let log = ibis_obs::snapshot();
        assert!(
            log.spans.is_empty(),
            "{n}: {} spans logged",
            log.spans.len()
        );
        assert_eq!(log.counters["server.admitted"], n, "same registry");
        handle.shutdown();
    }
    ibis_obs::Recorder::disabled().install();
}

#[test]
fn embedders_full_recording_is_neither_reset_nor_fed_traced_request_spans() {
    let _serial = serial();
    // The embedding process is profiling something of its own. Every
    // request here is traced (`trace_sample = 1`); an untraced one would
    // log its spans to this recording, as a full recording asks.
    fresh_recorder();
    drop(ibis_obs::span("embedder.work"));
    ibis_obs::counter_add("embedder.counter", 7);

    let db = Arc::new(ConcurrentDb::new_mem(census_scaled(800, 906), 128));
    let config = ServerConfig {
        trace_sample: 1,
        ..ServerConfig::default()
    };
    let handle = Server::start(Arc::clone(&db), "127.0.0.1:0", config).unwrap();
    let q = slow_query(&db);
    let mut logged = Vec::new();
    for n in [50, 500] {
        serve_counts(&handle, &q, n);
        logged.push(ibis_obs::snapshot().spans.len());
    }
    let s = Client::connect(handle.addr()).unwrap().stats(true).unwrap();
    assert_eq!(metrics(&s).counters["server.traced"], 550);
    assert_slow_log_adds_up(&s.slow_queries);
    handle.shutdown();

    // Every request was traced, and every trace went to the slow log, not
    // to the embedder's recording — which is still the one it started.
    let log = ibis_obs::snapshot();
    ibis_obs::Recorder::disabled().install();
    assert_eq!(logged, [1, 1], "request spans reached the global span log");
    assert_eq!(log.spans.len(), 1);
    assert_eq!(log.spans[0].name, "embedder.work");
    assert_eq!(log.counters["embedder.counter"], 7);
}
