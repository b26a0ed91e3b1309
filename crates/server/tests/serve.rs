//! End-to-end serving tests over real loopback sockets: differential
//! correctness against direct snapshot execution, admission control under
//! deliberate overload, deadline enforcement, execution permits shared by
//! many connections, a client that never reads, and protocol-error
//! handling.

use ibis_core::gen::{census_scaled, workload, QuerySpec};
use ibis_core::{MissingPolicy, Predicate, RangeQuery, RowSet};
use ibis_server::protocol::{read_frame, read_handshake, write_handshake};
use ibis_server::server::REPLY_WRITE_BOUND;
use ibis_server::{Client, ErrorCode, Request, Response, Server, ServerConfig};
use ibis_storage::ConcurrentDb;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A deliberately expensive query: a wide range on a high-cardinality
/// attribute under IsNotMatch semantics.
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

/// Point and three-attribute queries under both policies, dealt round-robin
/// so that neighbours in the result differ in policy.
fn mixed_workload(db: &ConcurrentDb, seed: u64, per_spec: usize) -> Vec<RangeQuery> {
    let schema = db.snapshot().db().schema().clone();
    let per_policy: Vec<Vec<RangeQuery>> = [
        (1, MissingPolicy::IsMatch),
        (1, MissingPolicy::IsNotMatch),
        (3, MissingPolicy::IsMatch),
        (3, MissingPolicy::IsNotMatch),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (k, policy))| {
        let spec = QuerySpec {
            n_queries: per_spec,
            k,
            global_selectivity: 0.05,
            policy,
            candidate_attrs: vec![],
        };
        workload(&schema, &spec, seed + i as u64)
    })
    .collect();
    (0..per_spec)
        .flat_map(|j| per_policy.iter().map(move |qs| qs[j].clone()))
        .collect()
}

#[test]
fn served_answers_are_bit_identical_to_direct_snapshot_execution() {
    let db = Arc::new(ConcurrentDb::new_mem(census_scaled(400, 601), 96));
    let queries = mixed_workload(&db, 602, 6);
    let snap = db.snapshot();
    let direct: Vec<RowSet> = queries
        .iter()
        .map(|q| snap.execute_threads(q, 2).unwrap())
        .collect();
    for trace_sample in [0, 1, 8] {
        for max_batch in [1, 8] {
            let ctx = format!("trace_sample={trace_sample} max_batch={max_batch}");
            let config = ServerConfig {
                trace_sample,
                max_batch,
                ..ServerConfig::default()
            };
            let handle = Server::start(Arc::clone(&db), "127.0.0.1:0", config).unwrap();
            // Pipelined, so that one drain holds several jobs: both
            // policies, rows and counts, traced and untraced side by side.
            let (mut tx, mut rx) = Client::connect(handle.addr()).unwrap().into_split();
            let ids: Vec<u64> = queries
                .iter()
                .enumerate()
                .map(|(i, q)| {
                    tx.send(&Request::Query {
                        query: q.clone(),
                        count_only: i % 3 == 0,
                        deadline_ms: 0,
                    })
                    .unwrap()
                })
                .collect();
            for _ in &ids {
                let (id, response) = rx.recv().unwrap();
                let i = ids.iter().position(|&sent| sent == id).unwrap();
                match response {
                    Response::Rows { watermark, rows } if i % 3 != 0 => {
                        assert_eq!(watermark, snap.watermark());
                        assert_eq!(rows, direct[i].rows().to_vec(), "{:?} ({ctx})", queries[i]);
                    }
                    Response::Count { watermark, count } if i % 3 == 0 => {
                        assert_eq!(watermark, snap.watermark());
                        assert_eq!(count as usize, direct[i].len(), "{:?} ({ctx})", queries[i]);
                    }
                    other => panic!("request {i} ({ctx}) got {other:?}"),
                }
            }
            handle.shutdown();
        }
    }
}

#[test]
fn one_worker_answers_in_request_order_whatever_is_traced_or_drained_together() {
    // One worker answers one connection's queue: replies must come back in
    // the order the requests went in, whichever policy each query carries,
    // whether it is traced, and however many jobs a wake drains. The slow
    // query at the head holds the worker while the rest queue up behind it,
    // so that drains really do hold several jobs.
    let db = Arc::new(ConcurrentDb::new_mem(census_scaled(4000, 609), 512));
    let slow = slow_query(&db);
    for trace_sample in [0, 1, 8] {
        for max_batch in [1, 8] {
            let config = ServerConfig {
                workers: 1,
                trace_sample,
                max_batch,
                ..ServerConfig::default()
            };
            let handle = Server::start(Arc::clone(&db), "127.0.0.1:0", config).unwrap();
            let (mut tx, mut rx) = Client::connect(handle.addr()).unwrap().into_split();
            let mut sent = vec![tx
                .send(&Request::Query {
                    query: slow.clone(),
                    count_only: true,
                    deadline_ms: 120_000,
                })
                .unwrap()];
            for i in 0..200 {
                let policy = if i % 2 == 0 {
                    MissingPolicy::IsMatch
                } else {
                    MissingPolicy::IsNotMatch
                };
                let query = RangeQuery::new(vec![Predicate::point(0, 1)], policy).unwrap();
                sent.push(
                    tx.send(&Request::Query {
                        query,
                        count_only: true,
                        deadline_ms: 120_000,
                    })
                    .unwrap(),
                );
            }
            let received: Vec<u64> = sent
                .iter()
                .map(|_| match rx.recv().unwrap() {
                    (id, Response::Count { .. }) => id,
                    other => panic!("unexpected response {other:?}"),
                })
                .collect();
            assert_eq!(
                received, sent,
                "trace_sample={trace_sample} max_batch={max_batch}"
            );
            handle.shutdown();
        }
    }
}

#[test]
fn writes_are_visible_to_later_requests_at_a_higher_watermark() {
    let db = Arc::new(ConcurrentDb::new_mem(census_scaled(120, 603), 48));
    let handle = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let q = RangeQuery::new(vec![Predicate::range(0, 1, 2)], MissingPolicy::IsMatch).unwrap();
    let Response::Rows { watermark: w0, .. } = client.query(&q, 0).unwrap() else {
        panic!("expected rows");
    };
    assert_eq!(w0, 0);
    db.delete(0).unwrap();
    let Response::Rows {
        watermark: w1,
        rows,
    } = client.query(&q, 0).unwrap()
    else {
        panic!("expected rows");
    };
    assert_eq!(w1, 1, "later requests see the published mutation");
    assert_eq!(rows, db.snapshot().execute(&q).unwrap().rows().to_vec());
    handle.shutdown();
}

#[test]
fn ping_answers_and_bad_requests_keep_the_connection() {
    let db = Arc::new(ConcurrentDb::new_mem(census_scaled(60, 604), 32));
    let n_attrs = db.snapshot().n_attrs();
    let handle = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.ping().unwrap(), Response::Pong);

    // Wire-valid but out of schema: attribute beyond the width.
    let bad = RangeQuery::new(
        vec![Predicate::range(n_attrs + 5, 1, 1)],
        MissingPolicy::IsMatch,
    )
    .unwrap();
    match client.query(&bad, 0).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected bad request, got {other:?}"),
    }
    // The connection survives the rejection.
    let good = RangeQuery::new(vec![Predicate::range(0, 1, 2)], MissingPolicy::IsMatch).unwrap();
    assert!(matches!(
        client.query(&good, 0).unwrap(),
        Response::Rows { .. }
    ));
    handle.shutdown();
}

#[test]
fn overload_sheds_explicitly_and_answers_every_request() {
    // One slow worker, a 2-deep queue: an open-loop burst must overflow
    // admission, and every overflowed request must still get an explicit
    // `Overloaded` answer rather than unbounded queueing.
    let db = Arc::new(ConcurrentDb::new_mem(census_scaled(4000, 605), 512));
    let config = ServerConfig {
        workers: 1,
        max_batch: 1,
        queue_high_water: 2,
        ..ServerConfig::default()
    };
    let handle = Server::start(Arc::clone(&db), "127.0.0.1:0", config).unwrap();
    let req = Request::Query {
        query: slow_query(&db),
        count_only: false,
        deadline_ms: 60_000,
    };
    let (mut tx, mut rx) = Client::connect(handle.addr()).unwrap().into_split();
    let n = 200;
    for _ in 0..n {
        tx.send(&req).unwrap();
    }
    let mut served = 0;
    let mut shed = 0;
    for _ in 0..n {
        match rx.recv().unwrap().1 {
            Response::Rows { .. } => served += 1,
            Response::Error {
                code: ErrorCode::Overloaded,
                ..
            } => shed += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(served + shed, n, "every request is answered exactly once");
    assert!(shed > 0, "a 2-deep queue must shed a 200-request burst");
    assert!(served > 0, "admitted requests are still served");
    handle.shutdown();
}

#[test]
fn expired_deadlines_never_return_rows() {
    // A 1 ms deadline against a backlogged single worker: late queries are
    // shed while queued (or answered DeadlineExceeded after execution) —
    // an expired request never gets rows. At 40,000 rows one query reads
    // 79 shards, so the 60 queued queries outlast the budget many times
    // over on any host (at 4,000 rows they sometimes finished inside it).
    let db = Arc::new(ConcurrentDb::new_mem(census_scaled(40_000, 606), 512));
    let config = ServerConfig {
        workers: 1,
        max_batch: 4,
        queue_high_water: 1024,
        ..ServerConfig::default()
    };
    let handle = Server::start(Arc::clone(&db), "127.0.0.1:0", config).unwrap();
    let req = Request::Query {
        query: slow_query(&db),
        count_only: false,
        deadline_ms: 1,
    };
    let (mut tx, mut rx) = Client::connect(handle.addr()).unwrap().into_split();
    let n = 60;
    for _ in 0..n {
        tx.send(&req).unwrap();
    }
    let mut expired = 0;
    for _ in 0..n {
        match rx.recv().unwrap().1 {
            Response::Rows { .. } => {}
            Response::Error {
                code: ErrorCode::DeadlineExceeded,
                ..
            } => expired += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(
        expired > 0,
        "a 1 ms budget against a 60-deep backlog must expire somewhere"
    );
    handle.shutdown();
}

#[test]
fn frame_corruption_gets_a_clean_protocol_error_then_disconnect() {
    let db = Arc::new(ConcurrentDb::new_mem(census_scaled(60, 607), 32));
    let handle = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    write_handshake(&mut stream).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    read_handshake(&mut reader).unwrap();
    // A frame head claiming a liar's length: the server must answer with a
    // protocol error and drop the connection — never hang, never panic.
    stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
    stream.write_all(&0u32.to_le_bytes()).unwrap();
    let frame = read_frame(&mut reader).unwrap();
    assert_eq!(frame.request_id, 0);
    match Response::decode(&frame).unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("protocol error"), "{message}");
        }
        other => panic!("expected protocol error, got {other:?}"),
    }
    // The server closed its side: the next read hits EOF.
    assert!(read_frame(&mut reader).is_err());
    handle.shutdown();
}

#[test]
fn garbage_handshake_is_dropped_without_serving() {
    let db = Arc::new(ConcurrentDb::new_mem(census_scaled(60, 608), 32));
    let handle = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    // No handshake comes back; the connection just closes.
    assert!(read_handshake(&mut reader).is_err());
    // A fresh, well-behaved client is unaffected.
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.ping().unwrap(), Response::Pong);
    handle.shutdown();
}

#[test]
fn a_peer_of_another_protocol_version_is_refused_at_the_handshake() {
    // Version 1 sent ROWS as bare ids; a version-2 peer would misread its
    // replies, so the two part at the handshake, before any frame.
    let hello_v1: Vec<u8> = [&b"IBQP"[..], &1u16.to_le_bytes()].concat();
    let hello_v2: Vec<u8> = [&b"IBQP"[..], &2u16.to_le_bytes()].concat();
    assert_eq!(ibis_server::protocol::PROTO_VERSION, 2);
    let db = Arc::new(ConcurrentDb::new_mem(census_scaled(60, 608), 32));
    let handle = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();

    // A version-1 client: the server sends no handshake back and closes.
    let mut old_client = TcpStream::connect(handle.addr()).unwrap();
    old_client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    old_client.write_all(&hello_v1).unwrap();
    let mut got = Vec::new();
    old_client
        .read_to_end(&mut got)
        .expect("the server closes the connection, without a hang");
    assert!(
        got.is_empty(),
        "the server answered a version-1 peer: {got:?}"
    );

    // A version-1 server: the client refuses its handshake and sends
    // nothing after its own.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let old_server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&hello_v1).unwrap();
        let mut got = Vec::new();
        stream
            .read_to_end(&mut got)
            .expect("the client closes the connection, without a hang");
        got
    });
    let Err(e) = Client::connect(addr) else {
        panic!("a version-2 client accepted a version-1 server");
    };
    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
    assert!(e.to_string().contains("version 1"), "{e}");
    assert_eq!(old_server.join().unwrap(), hello_v2, "only the handshake");

    // The server still serves a peer of its own version.
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.ping().unwrap(), Response::Pong);
    handle.shutdown();
}

/// The counter `name` in a STATS report's metrics, 0 if it never moved.
/// The recorder is process-global, so this counts what every server in
/// this test binary did.
fn counter(report: &ibis_server::StatsReport, name: &str) -> u64 {
    let m = ibis_obs::Snapshot::from_json(&report.metrics_json).unwrap();
    m.counters.get(name).copied().unwrap_or(0)
}

#[test]
fn many_connections_share_the_execution_permits_and_get_direct_answers() {
    // Eight closed-loop connections against two execution permits: most
    // readers find no permit free and leave their queries to a holder.
    // Every reply must still be the direct answer, and STATS, polled all
    // the while, must never see more queries executing than permits. The
    // rows are enough for the run to outlast many polls when optimised.
    let db = Arc::new(ConcurrentDb::new_mem(census_scaled(20_000, 611), 512));
    let queries = mixed_workload(&db, 612, 6);
    let snap = db.snapshot();
    let direct: Vec<RowSet> = queries
        .iter()
        .map(|q| snap.execute_threads(q, 1).unwrap())
        .collect();
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let handle = Server::start(Arc::clone(&db), "127.0.0.1:0", config).unwrap();
    let addr = handle.addr();
    let (connections, rounds) = (8, 4);
    let running = AtomicBool::new(true);
    std::thread::scope(|scope| {
        let callers: Vec<_> = (0..connections)
            .map(|c| {
                let (queries, direct) = (&queries, &direct);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    for r in 0..rounds {
                        for (i, q) in queries.iter().enumerate() {
                            let count_only = (i + c + r) % 4 == 0;
                            let reply = if count_only {
                                client.count(q, 0)
                            } else {
                                client.query(q, 0)
                            };
                            match reply.unwrap() {
                                Response::Rows { rows, .. } if !count_only => {
                                    assert_eq!(rows, direct[i].rows().to_vec(), "{q:?}")
                                }
                                Response::Count { count, .. } if count_only => {
                                    assert_eq!(count as usize, direct[i].len(), "{q:?}")
                                }
                                other => panic!("connection {c}, query {i}: {other:?}"),
                            }
                        }
                    }
                })
            })
            .collect();
        scope.spawn(|| {
            let mut probe = Client::connect(addr).unwrap();
            while running.load(Ordering::Relaxed) {
                let s = probe.stats(false).unwrap();
                assert!(
                    s.workers_busy <= s.workers,
                    "{} queries executing on {} permits",
                    s.workers_busy,
                    s.workers
                );
            }
        });
        for caller in callers {
            caller.join().unwrap();
        }
        running.store(false, Ordering::Relaxed);
    });
    handle.shutdown();
}

#[test]
fn a_client_that_never_reads_is_severed_and_holds_no_other_connection_up() {
    // One execution permit. Connection A pipelines 4,000 queries with big
    // replies and never reads one, so the executor writing to A blocks.
    // A reply over 120,000 rows is at most about 15 KB whichever way its
    // rows go (a bitmap over them, or ids when sparser than one in 32),
    // and the cheapest to compute is a sparse one: 3,575 rows spread over
    // the table, 14.3 KB of ids. So A's unread replies come to 57 MB,
    // more than a receive and a send buffer grow to where `tcp_rmem`
    // allows 32 MB and `tcp_wmem` 4 MB (at 2,400 queries, 34 MB, 4 runs
    // in 28 had every reply buffered and A never blocked), while its
    // 4,000 requests (132 KB) fit in them. That write may wait
    // `REPLY_WRITE_BOUND`, no longer: then A is severed, and connection
    // B's queries, queued behind A's, are answered — bit-identical to
    // direct execution.
    const SLACK: Duration = Duration::from_secs(10);
    const PIPELINED: usize = 4_000;
    let db = Arc::new(ConcurrentDb::new_mem(census_scaled(120_000, 610), 512));
    let snap = db.snapshot();
    let big_reply =
        RangeQuery::new(vec![Predicate::range(37, 5, 5)], MissingPolicy::IsNotMatch).unwrap();
    let rows = snap.execute(&big_reply).unwrap().into_rows();
    assert_eq!(rows.len(), 3_575);
    let (_, body) = Response::Rows { watermark: 0, rows }.encode();
    assert_eq!((body[8], body.len()), (0, 14_317), "ids, 14.3 KB");
    let queries = mixed_workload(&db, 613, 2);
    let direct: Vec<RowSet> = queries.iter().map(|q| snap.execute(q).unwrap()).collect();
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let handle = Server::start(Arc::clone(&db), "127.0.0.1:0", config).unwrap();
    let mut probe = Client::connect(handle.addr()).unwrap();

    let began = Instant::now();
    let (mut a_tx, mut a_rx) = Client::connect(handle.addr()).unwrap().into_split();
    for _ in 0..PIPELINED {
        a_tx.send(&Request::Query {
            query: big_reply.clone(),
            count_only: false,
            deadline_ms: 0,
        })
        .unwrap();
    }

    // B runs on its own thread, so that a reply that never comes fails
    // the test at the bound instead of hanging it.
    let (done_tx, done_rx) = mpsc::channel();
    let addr = handle.addr();
    let b_queries = queries.clone();
    let b = std::thread::spawn(move || {
        let mut b = Client::connect(addr).unwrap();
        for q in &b_queries {
            let reply = b.query(q, 0).unwrap();
            done_tx.send(reply).unwrap();
        }
    });
    for (i, q) in queries.iter().enumerate() {
        let bound = if i == 0 {
            REPLY_WRITE_BOUND + SLACK
        } else {
            SLACK
        };
        match done_rx.recv_timeout(bound) {
            Ok(Response::Rows { rows, .. }) => assert_eq!(rows, direct[i].rows().to_vec(), "{q:?}"),
            Ok(other) => panic!("B's query {i} got {other:?}"),
            Err(_) => panic!("B's query {i} unanswered after {bound:?}"),
        }
    }
    b.join().unwrap();

    // A was severed by a write that waited the whole bound, not sooner.
    let severed_at = loop {
        if counter(&probe.stats(false).unwrap(), "server.severed") > 0 {
            break began.elapsed();
        }
        assert!(
            began.elapsed() < REPLY_WRITE_BOUND + SLACK,
            "A was never severed"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(
        severed_at >= REPLY_WRITE_BOUND.mul_f64(0.9),
        "A severed after {severed_at:?}, inside the {REPLY_WRITE_BOUND:?} bound"
    );
    // What A can still read ends early: the connection is gone.
    let mut delivered = 0;
    while let Ok((_, Response::Rows { .. })) = a_rx.recv() {
        delivered += 1;
    }
    assert!(delivered < PIPELINED, "A got all {delivered} replies");
    let s = probe.stats(false).unwrap();
    assert_eq!(counter(&s, "server.severed"), 1);
    handle.shutdown();
}
