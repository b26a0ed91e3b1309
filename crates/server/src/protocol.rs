//! The `IBQP` wire protocol: length-prefixed, CRC-framed request/response
//! messages over a byte stream.
//!
//! A connection opens with a 6-byte handshake from each side (magic
//! `IBQP` + version, the same `wire::write_header` discipline as every
//! on-disk format); after that, both directions carry frames:
//!
//! ```text
//! [u32 payload_len][u32 crc32(payload)][payload]
//! payload = [u64 request_id][u8 kind][kind-specific body]
//! ```
//!
//! A frame goes to the stream in one vectored write, head and payload
//! together, so a reply leaves as one `writev` however large its body.
//!
//! A ROWS body is the snapshot watermark, then the row ids in the smaller
//! of two forms, chosen per reply (the ids form on a tie):
//!
//! ```text
//! [u64 watermark][u8 0][u64 count][u32 id × count]                  ids
//! [u64 watermark][u8 1][u32 count][u32 first][u64 n_words][u64 × n_words]
//!                                   bits: bit i set means id first + i
//! ```
//!
//! An answer is computed as a bit-vector, and one that takes in many rows
//! is many times smaller as a bitmap over `[first id, last id]` than as
//! four bytes an id; a sparse one stays ids. The decoder checks a bitmap
//! before it writes an id: it must fit in `u32`, start at `first`, end in a
//! non-zero word and hold exactly `count` ids (`ibis_core::wire::read_row_ids`).
//! The form byte is what changed in protocol version 2; a version-1 peer
//! is refused at the handshake.
//!
//! The framing mirrors the WAL (`ibis-storage/src/wal.rs`): payloads are
//! capped at [`MAX_MSG_LEN`], allocation grows with the bytes actually
//! read, and the checksum gates the body parser — so a truncated,
//! bit-flipped, or lying-length frame yields a clean [`io::Error`], never a
//! panic, a hang, or a huge reservation. Frame-level damage is
//! **connection-fatal** (the stream can no longer be trusted to be
//! aligned); *semantic* damage inside a checksummed body (an unsorted
//! search key, an unknown policy byte) is not — it decodes to an error the
//! server answers with [`ErrorCode::BadRequest`], keeping the connection.

use ibis_core::{wire, MissingPolicy, Predicate, RangeQuery};
use ibis_storage::crc::{crc32, crc32_update};
use std::io::{self, IoSlice, Read, Write};

/// Magic bytes opening every connection, in both directions.
pub const PROTO_MAGIC: &[u8; 4] = b"IBQP";
/// Protocol version carried in the handshake.
pub const PROTO_VERSION: u16 = 2;
/// Upper bound on one frame's payload. A request holds one search key and
/// a response one row-id set, so anything larger is corruption (or an
/// answer too large to serve); never allocated.
pub const MAX_MSG_LEN: usize = 1 << 24;

/// Smallest possible payload: request_id(8) + kind(1).
const MIN_MSG_LEN: usize = 9;

/// Writes the 6-byte `IBQP` handshake header.
pub fn write_handshake(w: &mut impl Write) -> io::Result<()> {
    wire::write_header(w, PROTO_MAGIC, PROTO_VERSION)
}

/// Reads and validates the peer's handshake header.
pub fn read_handshake(r: &mut impl Read) -> io::Result<()> {
    wire::read_header(r, PROTO_MAGIC, PROTO_VERSION)
}

/// One decoded frame: the correlation id, the kind tag, and the
/// checksummed body bytes (request_id and kind already stripped).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub request_id: u64,
    /// Message kind tag; see [`Request`] and [`Response`] decoders.
    pub kind: u8,
    /// Kind-specific body.
    pub body: Vec<u8>,
}

/// Writes one frame as one vectored write of its head, id/kind prefix and
/// body (more only if the writer takes part of it), so a large reply's
/// head never leaves as a segment of its own. Fails with `InvalidInput` if
/// the payload would exceed [`MAX_MSG_LEN`] — checked *before* the length
/// cast, mirroring the WAL writer's `FrameTooLarge` guard.
pub fn write_frame(w: &mut impl Write, request_id: u64, kind: u8, body: &[u8]) -> io::Result<()> {
    let len = MIN_MSG_LEN + body.len();
    if len > MAX_MSG_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload of {len} bytes exceeds MAX_MSG_LEN ({MAX_MSG_LEN})"),
        ));
    }
    // The payload is checksummed where it lies: the id/kind prefix, then
    // the body, never copied together.
    let mut id_kind = [0u8; MIN_MSG_LEN];
    id_kind[..8].copy_from_slice(&request_id.to_le_bytes());
    id_kind[8] = kind;
    let mut head = [0u8; 8];
    head[..4].copy_from_slice(&(len as u32).to_le_bytes());
    head[4..].copy_from_slice(&crc32_update(crc32(&id_kind), body).to_le_bytes());
    let mut parts = [
        IoSlice::new(&head),
        IoSlice::new(&id_kind),
        IoSlice::new(body),
    ];
    let mut rest = &mut parts[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Whether `buf` begins with a whole frame, or with a frame head
/// [`read_frame`] rejects without reading on: either way, reading the next
/// frame from a reader holding `buf` does not block.
pub(crate) fn holds_frame(buf: &[u8]) -> bool {
    let Some(head) = buf.get(..8) else {
        return false;
    };
    let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes")) as usize;
    !(MIN_MSG_LEN..=MAX_MSG_LEN).contains(&len) || buf.len() - 8 >= len
}

/// Reads one frame, validating the length cap and checksum. Any failure
/// here means the stream is no longer frame-aligned and the connection
/// must be dropped.
pub fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    let mut head = [0u8; 8];
    r.read_exact(&mut head)?;
    let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes")) as usize;
    if !(MIN_MSG_LEN..=MAX_MSG_LEN).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside {MIN_MSG_LEN}..={MAX_MSG_LEN}"),
        ));
    }
    let crc = u32::from_le_bytes(head[4..].try_into().expect("4 bytes"));
    let mut id_kind = [0u8; MIN_MSG_LEN];
    r.read_exact(&mut id_kind)?;
    // The body is read straight into the frame's vector, which grows with
    // the bytes actually present: a lying length field hits EOF cleanly,
    // never a giant reservation.
    let body = wire::read_exact_vec(r, len - MIN_MSG_LEN)?;
    if crc32_update(crc32(&id_kind), &body) != crc {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame checksum mismatch",
        ));
    }
    Ok(Frame {
        request_id: u64::from_le_bytes(id_kind[..8].try_into().expect("8 bytes")),
        kind: id_kind[8],
        body,
    })
}

/// Request kind tags.
pub mod request_kind {
    /// A [`Request::Query`](super::Request::Query).
    pub const QUERY: u8 = 1;
    /// A [`Request::Ping`](super::Request::Ping).
    pub const PING: u8 = 2;
    /// A [`Request::Stats`](super::Request::Stats).
    pub const STATS: u8 = 3;
    /// A [`Request::Health`](super::Request::Health).
    pub const HEALTH: u8 = 4;
}

/// Response kind tags.
pub mod response_kind {
    /// A [`Response::Rows`](super::Response::Rows).
    pub const ROWS: u8 = 1;
    /// A [`Response::Count`](super::Response::Count).
    pub const COUNT: u8 = 2;
    /// A [`Response::Error`](super::Response::Error).
    pub const ERROR: u8 = 3;
    /// A [`Response::Pong`](super::Response::Pong).
    pub const PONG: u8 = 4;
    /// A [`Response::Stats`](super::Response::Stats).
    pub const STATS: u8 = 5;
    /// A [`Response::Health`](super::Response::Health).
    pub const HEALTH: u8 = 6;
}

/// One client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Execute a range query against the current snapshot.
    Query {
        /// The validated search key + missing policy.
        query: RangeQuery,
        /// Reply with [`Response::Count`] instead of materialized rows.
        count_only: bool,
        /// Per-request deadline in milliseconds; `0` means "use the
        /// server's default" ([`ibis_core::QUERY_BUDGET_MS`] unless
        /// configured).
        deadline_ms: u32,
    },
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Telemetry snapshot request; answered with [`Response::Stats`].
    /// Answered on the connection's reader thread without queueing, so it
    /// answers even while every execution permit is held.
    Stats {
        /// Include the slow-query log in the report (it is the bulky
        /// part; dashboards polling every second usually skip it).
        include_slow: bool,
    },
    /// Cheap liveness + load probe; answered with [`Response::Health`].
    /// Also answered without queueing.
    Health,
}

impl Request {
    /// Encodes this request's kind tag and body.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        match self {
            Request::Query {
                query,
                count_only,
                deadline_ms,
            } => {
                let mut b = Vec::new();
                let policy = match query.policy() {
                    MissingPolicy::IsMatch => 0u8,
                    MissingPolicy::IsNotMatch => 1u8,
                };
                wire::write_u8(&mut b, policy).expect("vec write");
                wire::write_u8(&mut b, u8::from(*count_only)).expect("vec write");
                wire::write_u32(&mut b, *deadline_ms).expect("vec write");
                let preds = query.predicates();
                wire::write_u16(&mut b, preds.len() as u16).expect("vec write");
                for p in preds {
                    wire::write_u32(&mut b, p.attr as u32).expect("vec write");
                    wire::write_u16(&mut b, p.interval.lo).expect("vec write");
                    wire::write_u16(&mut b, p.interval.hi).expect("vec write");
                }
                (request_kind::QUERY, b)
            }
            Request::Ping => (request_kind::PING, Vec::new()),
            Request::Stats { include_slow } => {
                let mut b = Vec::new();
                wire::write_u8(&mut b, u8::from(*include_slow)).expect("vec write");
                (request_kind::STATS, b)
            }
            Request::Health => (request_kind::HEALTH, Vec::new()),
        }
    }

    /// Decodes a request from a CRC-validated frame. `Err(reason)` is a
    /// *semantic* rejection — the server answers it with
    /// [`ErrorCode::BadRequest`] and keeps the connection, because the
    /// checksum proved the framing itself is intact.
    pub fn decode(frame: &Frame) -> Result<Request, String> {
        let r = &mut frame.body.as_slice();
        let bad = |what: &str| format!("malformed query request: {what}");
        match frame.kind {
            request_kind::QUERY => {
                let policy = match wire::read_u8(r).map_err(|_| bad("missing policy byte"))? {
                    0 => MissingPolicy::IsMatch,
                    1 => MissingPolicy::IsNotMatch,
                    other => return Err(bad(&format!("unknown policy {other}"))),
                };
                let count_only = wire::read_u8(r).map_err(|_| bad("missing count flag"))? != 0;
                let deadline_ms = wire::read_u32(r).map_err(|_| bad("missing deadline"))?;
                let n = wire::read_u16(r).map_err(|_| bad("missing predicate count"))? as usize;
                let mut preds = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    let attr = wire::read_u32(r).map_err(|_| bad("truncated predicate"))? as usize;
                    let lo = wire::read_u16(r).map_err(|_| bad("truncated predicate"))?;
                    let hi = wire::read_u16(r).map_err(|_| bad("truncated predicate"))?;
                    preds.push(Predicate::range(attr, lo, hi));
                }
                if !r.is_empty() {
                    return Err(bad("trailing bytes"));
                }
                let query = RangeQuery::new(preds, policy)
                    .map_err(|e| format!("invalid search key: {e}"))?;
                Ok(Request::Query {
                    query,
                    count_only,
                    deadline_ms,
                })
            }
            request_kind::PING => {
                if !frame.body.is_empty() {
                    return Err(bad("ping carries a body"));
                }
                Ok(Request::Ping)
            }
            request_kind::STATS => {
                let include_slow = match wire::read_u8(r) {
                    Ok(0) => false,
                    Ok(1) => true,
                    Ok(other) => return Err(bad(&format!("unknown slow flag {other}"))),
                    Err(_) => return Err(bad("missing slow flag")),
                };
                if !r.is_empty() {
                    return Err(bad("trailing bytes"));
                }
                Ok(Request::Stats { include_slow })
            }
            request_kind::HEALTH => {
                if !frame.body.is_empty() {
                    return Err(bad("health carries a body"));
                }
                Ok(Request::Health)
            }
            other => Err(format!("unknown request kind {other}")),
        }
    }
}

/// Why a request was refused. Carried as one byte in
/// [`Response::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request decoded but was semantically invalid (bad search key,
    /// unknown policy/kind). The connection stays up.
    BadRequest,
    /// Admission control shed the request: the worker queue was past its
    /// high-water mark. Retry later against a less-loaded server.
    Overloaded,
    /// The per-request deadline expired before (or while) the query ran;
    /// no rows are returned.
    DeadlineExceeded,
    /// The engine failed executing a well-formed query.
    Internal,
}

impl ErrorCode {
    fn to_byte(self) -> u8 {
        match self {
            ErrorCode::BadRequest => 1,
            ErrorCode::Overloaded => 2,
            ErrorCode::DeadlineExceeded => 3,
            ErrorCode::Internal => 4,
        }
    }

    fn from_byte(b: u8) -> Option<ErrorCode> {
        match b {
            1 => Some(ErrorCode::BadRequest),
            2 => Some(ErrorCode::Overloaded),
            3 => Some(ErrorCode::DeadlineExceeded),
            4 => Some(ErrorCode::Internal),
            _ => None,
        }
    }
}

/// One phase of a traced request: every span sharing a name under the
/// request's root, with the summed counter-field deltas those spans
/// carried. Across all phases of one [`SlowQuery`], the counter deltas sum
/// exactly to the query's final [`SlowQuery::counters`] — the PR 4 profile
/// invariant, extended across the wire.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct SlowPhase {
    /// Span name, e.g. `"db.shard"`.
    pub name: String,
    /// Number of spans aggregated into this phase.
    pub spans: u64,
    /// Summed inclusive elapsed nanoseconds.
    pub total_ns: u64,
    /// Summed counter-field deltas (`WorkCounters` field names).
    pub counters: Vec<(String, u64)>,
}

/// One entry of the server's bounded slow-query log: the N worst traced
/// requests by total (queue + execute) latency.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct SlowQuery {
    /// The client's correlation id for the request.
    pub request_id: u64,
    /// Watermark of the snapshot that served it.
    pub watermark: u64,
    /// Human-readable plan (the query's `Display` form).
    pub plan: String,
    /// Time spent queued before a worker picked the job up, microseconds.
    pub queue_us: u64,
    /// Execution time on the worker, microseconds.
    pub exec_us: u64,
    /// End-to-end latency (queue + execute), microseconds.
    pub total_us: u64,
    /// Final `WorkCounters` of the execution, as `(field, value)` pairs.
    pub counters: Vec<(String, u64)>,
    /// Per-phase span aggregation under the request's root span.
    pub phases: Vec<SlowPhase>,
}

/// Body of a [`Response::Stats`]: headline load gauges read directly from
/// the serving structures, the full metric registry as canonical obs
/// JSON (counters, gauges, histograms, and the live windowed rings —
/// parse with `ibis_obs::Snapshot::from_json`), and optionally the
/// slow-query log.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct StatsReport {
    /// Watermark of the current serving snapshot.
    pub watermark: u64,
    /// Jobs waiting in the work queue right now.
    pub queue_depth: u32,
    /// Admission high-water mark the queue sheds at.
    pub queue_high_water: u32,
    /// Execution permits: the most queries executing at once.
    pub workers: u32,
    /// Permits held right now: queries executing.
    pub workers_busy: u32,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// `ibis_obs::Registry::export().to_json()` at snapshot time.
    pub metrics_json: String,
    /// Slow-query log, worst-first; empty unless requested.
    pub slow_queries: Vec<SlowQuery>,
}

/// Body of a [`Response::Health`]: enough to answer "should this server
/// get more traffic" in one small frame.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct HealthReport {
    /// Whether the server is accepting work (queue below high water).
    pub healthy: bool,
    /// Watermark of the current serving snapshot.
    pub watermark: u64,
    /// Jobs waiting in the work queue right now.
    pub queue_depth: u32,
    /// Admission high-water mark.
    pub queue_high_water: u32,
    /// Execution permits: the most queries executing at once.
    pub workers: u32,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
}

fn write_counter_pairs(b: &mut Vec<u8>, pairs: &[(String, u64)]) {
    wire::write_u16(b, pairs.len() as u16).expect("vec write");
    for (k, v) in pairs {
        wire::write_str(b, k).expect("vec write");
        wire::write_u64(b, *v).expect("vec write");
    }
}

fn read_counter_pairs(r: &mut &[u8]) -> io::Result<Vec<(String, u64)>> {
    let n = wire::read_u16(r)? as usize;
    let mut pairs = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        pairs.push((wire::read_str(r)?, wire::read_u64(r)?));
    }
    Ok(pairs)
}

impl StatsReport {
    fn encode_body(&self) -> Vec<u8> {
        let mut b = Vec::new();
        wire::write_u64(&mut b, self.watermark).expect("vec write");
        wire::write_u32(&mut b, self.queue_depth).expect("vec write");
        wire::write_u32(&mut b, self.queue_high_water).expect("vec write");
        wire::write_u32(&mut b, self.workers).expect("vec write");
        wire::write_u32(&mut b, self.workers_busy).expect("vec write");
        wire::write_u64(&mut b, self.uptime_ms).expect("vec write");
        wire::write_str(&mut b, &self.metrics_json).expect("vec write");
        wire::write_u16(&mut b, self.slow_queries.len() as u16).expect("vec write");
        for s in &self.slow_queries {
            wire::write_u64(&mut b, s.request_id).expect("vec write");
            wire::write_u64(&mut b, s.watermark).expect("vec write");
            wire::write_str(&mut b, &s.plan).expect("vec write");
            wire::write_u64(&mut b, s.queue_us).expect("vec write");
            wire::write_u64(&mut b, s.exec_us).expect("vec write");
            wire::write_u64(&mut b, s.total_us).expect("vec write");
            write_counter_pairs(&mut b, &s.counters);
            wire::write_u16(&mut b, s.phases.len() as u16).expect("vec write");
            for p in &s.phases {
                wire::write_str(&mut b, &p.name).expect("vec write");
                wire::write_u64(&mut b, p.spans).expect("vec write");
                wire::write_u64(&mut b, p.total_ns).expect("vec write");
                write_counter_pairs(&mut b, &p.counters);
            }
        }
        b
    }

    fn decode_body(r: &mut &[u8]) -> io::Result<StatsReport> {
        let watermark = wire::read_u64(r)?;
        let queue_depth = wire::read_u32(r)?;
        let queue_high_water = wire::read_u32(r)?;
        let workers = wire::read_u32(r)?;
        let workers_busy = wire::read_u32(r)?;
        let uptime_ms = wire::read_u64(r)?;
        let metrics_json = wire::read_str(r)?;
        let n_slow = wire::read_u16(r)? as usize;
        let mut slow_queries = Vec::with_capacity(n_slow.min(64));
        for _ in 0..n_slow {
            let request_id = wire::read_u64(r)?;
            let watermark = wire::read_u64(r)?;
            let plan = wire::read_str(r)?;
            let queue_us = wire::read_u64(r)?;
            let exec_us = wire::read_u64(r)?;
            let total_us = wire::read_u64(r)?;
            let counters = read_counter_pairs(r)?;
            let n_phases = wire::read_u16(r)? as usize;
            let mut phases = Vec::with_capacity(n_phases.min(64));
            for _ in 0..n_phases {
                phases.push(SlowPhase {
                    name: wire::read_str(r)?,
                    spans: wire::read_u64(r)?,
                    total_ns: wire::read_u64(r)?,
                    counters: read_counter_pairs(r)?,
                });
            }
            slow_queries.push(SlowQuery {
                request_id,
                watermark,
                plan,
                queue_us,
                exec_us,
                total_us,
                counters,
                phases,
            });
        }
        Ok(StatsReport {
            watermark,
            queue_depth,
            queue_high_water,
            workers,
            workers_busy,
            uptime_ms,
            metrics_json,
            slow_queries,
        })
    }
}

impl HealthReport {
    fn encode_body(&self) -> Vec<u8> {
        let mut b = Vec::new();
        wire::write_u8(&mut b, u8::from(self.healthy)).expect("vec write");
        wire::write_u64(&mut b, self.watermark).expect("vec write");
        wire::write_u32(&mut b, self.queue_depth).expect("vec write");
        wire::write_u32(&mut b, self.queue_high_water).expect("vec write");
        wire::write_u32(&mut b, self.workers).expect("vec write");
        wire::write_u64(&mut b, self.uptime_ms).expect("vec write");
        b
    }

    fn decode_body(r: &mut &[u8]) -> io::Result<HealthReport> {
        Ok(HealthReport {
            healthy: wire::read_u8(r)? != 0,
            watermark: wire::read_u64(r)?,
            queue_depth: wire::read_u32(r)?,
            queue_high_water: wire::read_u32(r)?,
            workers: wire::read_u32(r)?,
            uptime_ms: wire::read_u64(r)?,
        })
    }
}

/// One server response, correlated to its request by the echoed id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Matching global row ids, sorted ascending, plus the snapshot
    /// watermark they were computed at.
    Rows {
        /// Mutation watermark of the snapshot that served the query.
        watermark: u64,
        /// Matching global row ids, ascending.
        rows: Vec<u32>,
    },
    /// Match count (for `count_only` requests) plus the watermark.
    Count {
        /// Mutation watermark of the snapshot that served the query.
        watermark: u64,
        /// Number of matching rows.
        count: u64,
    },
    /// The request was refused or failed; see [`ErrorCode`].
    Error {
        /// Why the request was refused.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Stats`] (boxed: it is much larger than the
    /// query-path variants and must not tax their size).
    Stats(Box<StatsReport>),
    /// Answer to [`Request::Health`].
    Health(HealthReport),
}

impl Response {
    /// Encodes this response's kind tag and body.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        match self {
            Response::Rows { watermark, rows } => {
                let mut b = Vec::new();
                wire::write_u64(&mut b, *watermark).expect("vec write");
                wire::write_row_ids(&mut b, rows);
                (response_kind::ROWS, b)
            }
            Response::Count { watermark, count } => {
                let mut b = Vec::new();
                wire::write_u64(&mut b, *watermark).expect("vec write");
                wire::write_u64(&mut b, *count).expect("vec write");
                (response_kind::COUNT, b)
            }
            Response::Error { code, message } => {
                let mut b = Vec::new();
                wire::write_u8(&mut b, code.to_byte()).expect("vec write");
                wire::write_str(&mut b, message).expect("vec write");
                (response_kind::ERROR, b)
            }
            Response::Pong => (response_kind::PONG, Vec::new()),
            Response::Stats(report) => (response_kind::STATS, report.encode_body()),
            Response::Health(report) => (response_kind::HEALTH, report.encode_body()),
        }
    }

    /// Decodes a response from a CRC-validated frame. Errors are
    /// connection-fatal on the client side: a response the client cannot
    /// understand means the versions disagree or the stream is corrupt.
    pub fn decode(frame: &Frame) -> io::Result<Response> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let r = &mut frame.body.as_slice();
        let resp = match frame.kind {
            response_kind::ROWS => Response::Rows {
                watermark: wire::read_u64(r)?,
                rows: wire::read_row_ids(r)?,
            },
            response_kind::COUNT => Response::Count {
                watermark: wire::read_u64(r)?,
                count: wire::read_u64(r)?,
            },
            response_kind::ERROR => Response::Error {
                code: ErrorCode::from_byte(wire::read_u8(r)?)
                    .ok_or_else(|| bad("unknown error code"))?,
                message: wire::read_str(r)?,
            },
            response_kind::PONG => Response::Pong,
            response_kind::STATS => Response::Stats(Box::new(StatsReport::decode_body(r)?)),
            response_kind::HEALTH => Response::Health(HealthReport::decode_body(r)?),
            other => return Err(bad(&format!("unknown response kind {other}"))),
        };
        if !r.is_empty() {
            return Err(bad("trailing bytes in response body"));
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(k: usize) -> RangeQuery {
        let preds = (0..k).map(|a| Predicate::range(a, 1, 3)).collect();
        RangeQuery::new(preds, MissingPolicy::IsNotMatch).unwrap()
    }

    #[test]
    fn holds_frame_says_whether_the_next_read_can_block() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, request_kind::PING, &[]).unwrap();
        write_frame(&mut buf, 8, request_kind::HEALTH, &[1, 2, 3]).unwrap();
        let first = 8 + MIN_MSG_LEN;
        for cut in 0..=buf.len() {
            let whole = cut >= first;
            assert_eq!(holds_frame(&buf[..cut]), whole, "{cut} bytes");
        }
        assert!(holds_frame(&buf[first..]));
        assert!(!holds_frame(&buf[first..buf.len() - 1]));
        // A lying length fails the read at once, so it never blocks.
        let mut liar = u32::MAX.to_le_bytes().to_vec();
        liar.extend_from_slice(&[0; 4]);
        assert!(holds_frame(&liar));
        assert!(!holds_frame(&liar[..7]));
    }

    #[test]
    fn request_roundtrip() {
        for req in [
            Request::Query {
                query: q(3),
                count_only: true,
                deadline_ms: 250,
            },
            Request::Ping,
            Request::Stats { include_slow: true },
            Request::Stats {
                include_slow: false,
            },
            Request::Health,
        ] {
            let (kind, body) = req.encode();
            let mut buf = Vec::new();
            write_frame(&mut buf, 42, kind, &body).unwrap();
            let frame = read_frame(&mut buf.as_slice()).unwrap();
            assert_eq!(frame.request_id, 42);
            assert_eq!(Request::decode(&frame).unwrap(), req);
        }
    }

    #[test]
    fn response_roundtrip() {
        for resp in [
            Response::Rows {
                watermark: 7,
                rows: vec![1, 5, 9],
            },
            Response::Count {
                watermark: 7,
                count: 3,
            },
            Response::Error {
                code: ErrorCode::Overloaded,
                message: "queue full".into(),
            },
            Response::Pong,
            Response::Stats(Box::new(StatsReport {
                watermark: 12,
                queue_depth: 3,
                queue_high_water: 256,
                workers: 4,
                workers_busy: 2,
                uptime_ms: 5000,
                metrics_json: "{\"spans\":[]}".into(),
                slow_queries: vec![SlowQuery {
                    request_id: 77,
                    watermark: 12,
                    plan: "a0∈[1,3] ∧ a2∈[0,9] (IsNotMatch)".into(),
                    queue_us: 150,
                    exec_us: 900,
                    total_us: 1050,
                    counters: vec![("bitmap_reads".into(), 6), ("ops".into(), 4)],
                    phases: vec![SlowPhase {
                        name: "db.shard".into(),
                        spans: 2,
                        total_ns: 880_000,
                        counters: vec![("bitmap_reads".into(), 6), ("ops".into(), 4)],
                    }],
                }],
            })),
            Response::Stats(Box::default()),
            Response::Health(HealthReport {
                healthy: true,
                watermark: 12,
                queue_depth: 0,
                queue_high_water: 256,
                workers: 4,
                uptime_ms: 9,
            }),
        ] {
            let (kind, body) = resp.encode();
            let mut buf = Vec::new();
            write_frame(&mut buf, 9, kind, &body).unwrap();
            let frame = read_frame(&mut buf.as_slice()).unwrap();
            assert_eq!(Response::decode(&frame).unwrap(), resp);
        }
    }

    #[test]
    fn stats_request_rejects_bad_flag_softly() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, request_kind::STATS, &[7]).unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert!(Request::decode(&frame).unwrap_err().contains("slow flag"));
        // And a health probe with a body is semantic damage, not framing.
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, request_kind::HEALTH, &[0]).unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert!(Request::decode(&frame).unwrap_err().contains("body"));
    }

    #[test]
    fn semantic_damage_is_a_soft_error_not_a_frame_error() {
        // A search key with a duplicated attribute survives framing (CRC
        // valid) but fails decode with a reason the server can answer.
        let mut body = Vec::new();
        wire::write_u8(&mut body, 0).unwrap(); // policy
        wire::write_u8(&mut body, 0).unwrap(); // count flag
        wire::write_u32(&mut body, 0).unwrap(); // deadline
        wire::write_u16(&mut body, 2).unwrap();
        for attr in [5u32, 5] {
            wire::write_u32(&mut body, attr).unwrap();
            wire::write_u16(&mut body, 1).unwrap();
            wire::write_u16(&mut body, 1).unwrap();
        }
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, request_kind::QUERY, &body).unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert!(Request::decode(&frame).unwrap_err().contains("search key"));
    }

    #[test]
    fn frame_bytes_are_the_documented_layout() {
        // The payload is checksummed in pieces; the bytes must still be
        // `[len][crc32(payload)][payload]` over the joined payload.
        let body: Vec<u8> = (0..5000u32).map(|i| (i * 31) as u8).collect();
        let mut payload = 0x0123_4567_89AB_CDEFu64.to_le_bytes().to_vec();
        payload.push(response_kind::ROWS);
        payload.extend_from_slice(&body);
        let mut expect = (payload.len() as u32).to_le_bytes().to_vec();
        expect.extend_from_slice(&crc32(&payload).to_le_bytes());
        expect.extend_from_slice(&payload);
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x0123_4567_89AB_CDEF, response_kind::ROWS, &body).unwrap();
        assert_eq!(buf, expect);
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!((frame.request_id, frame.kind), (0x0123_4567_89AB_CDEF, 1));
        assert_eq!(frame.body, body);
    }

    /// A writer that takes whole vectored writes and logs each call's size.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<usize>,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let n = bufs.iter().map(|b| b.len()).sum();
            self.writes.push(n);
            bufs.iter().for_each(|b| self.bytes.extend_from_slice(b));
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_large_frame_reaches_the_writer_in_one_write() {
        // A body of 8 KiB or more must not leave the 17-byte head behind as
        // a write of its own: under TCP_NODELAY that is a segment of its
        // own. Straight to the socket, as the server writes, a frame is
        // one write.
        let body = vec![0xA5u8; 20_000];
        let mut direct = CountingWriter::default();
        write_frame(&mut direct, 3, response_kind::ROWS, &body).unwrap();
        assert_eq!(direct.writes, [8 + MIN_MSG_LEN + body.len()]);
        let mut expect = Vec::new();
        write_frame(&mut expect, 3, response_kind::ROWS, &body).unwrap();
        assert_eq!(direct.bytes, expect);
        // A small frame is one write too, and a writer that takes only part
        // of a vectored write gets the rest.
        let mut small = CountingWriter::default();
        write_frame(&mut small, 4, request_kind::PING, &[]).unwrap();
        assert_eq!(small.writes, [8 + MIN_MSG_LEN]);
        let mut trickle = Vec::new();
        write_frame(&mut Trickle(&mut trickle), 3, response_kind::ROWS, &body).unwrap();
        assert_eq!(trickle, direct.bytes);
    }

    /// A writer that takes at most 7 bytes of the first slice per call.
    struct Trickle<'a>(&'a mut Vec<u8>);

    impl Write for Trickle<'_> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(7);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The ROWS body of `rows` at watermark 5.
    fn rows_body(rows: &[u32]) -> Vec<u8> {
        let (kind, body) = Response::Rows {
            watermark: 5,
            rows: rows.to_vec(),
        }
        .encode();
        assert_eq!(kind, response_kind::ROWS);
        body
    }

    /// Decodes a ROWS body, asserting it is the smaller form of `rows`.
    fn rows_round_trip(rows: &[u32]) -> Result<(), String> {
        let body = rows_body(rows);
        let ids_len = 1 + 8 + 4 * rows.len();
        let smaller = match (rows.first(), rows.last()) {
            (Some(&first), Some(&last)) => {
                let bits_len = 1 + 16 + 8 * ((last - first) / 64 + 1) as usize;
                ids_len.min(bits_len)
            }
            _ => ids_len,
        };
        if body.len() != 8 + smaller {
            return Err(format!(
                "{} ids in {} body bytes, not {}",
                rows.len(),
                body.len(),
                8 + smaller
            ));
        }
        let frame = Frame {
            request_id: 1,
            kind: response_kind::ROWS,
            body,
        };
        match Response::decode(&frame) {
            Ok(Response::Rows {
                watermark: 5,
                rows: got,
            }) if got == rows => Ok(()),
            other => Err(format!("{} ids came back as {other:?}", rows.len())),
        }
    }

    #[test]
    fn rows_take_the_smaller_form_ids_on_a_tie() {
        // The empty set, a singleton, the ends of the id space.
        for rows in [
            vec![],
            vec![0],
            vec![u32::MAX],
            vec![0, u32::MAX],
            vec![u32::MAX - 1, u32::MAX],
            ((u32::MAX - 511)..=u32::MAX).collect(),
        ] {
            rows_round_trip(&rows).unwrap();
        }
        // Over w words, a bitmap (16 + 8w bytes) beats the ids (8 + 4n)
        // from n = 2w + 3; at 2w + 2 they tie and the ids are sent.
        for first in [0u32, 1, 63, 64, 1_000_003, u32::MAX - 64 * 9] {
            for w in [1u32, 2, 9] {
                let span: Vec<u32> = (0..64 * w).map(|i| first + i).collect();
                for n in [2 * w + 1, 2 * w + 2, 2 * w + 3] {
                    // n ids over the span, its first and last among them.
                    let step = (64 * w - 1) / (n - 1);
                    let mut rows: Vec<u32> =
                        (0..n - 1).map(|i| span[(i * step) as usize]).collect();
                    rows.push(span[span.len() - 1]);
                    let form = rows_body(&rows)[8];
                    let expect = u8::from(n > 2 * w + 2);
                    assert_eq!(form, expect, "first {first}, {w} words, {n} ids");
                    rows_round_trip(&rows).unwrap();
                }
            }
        }
    }

    #[test]
    fn rows_out_of_order_are_sent_as_ids() {
        // The bitmap is built as it is written; ids that turn out not to
        // ascend are rolled back to the ids form, which keeps their order.
        let mut rows: Vec<u32> = (0..500).collect();
        rows.swap(10, 400);
        let mut dup: Vec<u32> = (0..500).collect();
        dup[7] = 6;
        for rows in [rows, dup, (0..500).rev().collect()] {
            let body = rows_body(&rows);
            assert_eq!(body[8], 0, "ids form");
            let frame = Frame {
                request_id: 1,
                kind: response_kind::ROWS,
                body,
            };
            let Response::Rows { rows: got, .. } = Response::decode(&frame).unwrap() else {
                panic!("not rows");
            };
            assert_eq!(got, rows);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn rows_round_trip_in_the_smaller_form(
            first in proptest::prelude::any::<u32>(),
            near_top in 0u32..4,
            span in 1u32..5_000,
            percent in 0u64..=100,
            seed in proptest::prelude::any::<u64>(),
        ) {
            // A quarter of the sets end at u32::MAX; `first` is unaligned.
            let span = span.min(u32::MAX - first).max(1);
            let first = if near_top == 0 { u32::MAX - (span - 1) } else { first.min(u32::MAX - (span - 1)) };
            let mut x = seed | 1;
            let rows: Vec<u32> = (0..span)
                .filter(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x % 100 < percent
                })
                .map(|i| first + i)
                .collect();
            rows_round_trip(&rows)?;
        }
    }

    #[test]
    fn oversized_frames_are_refused_at_write_time() {
        let body = vec![0u8; MAX_MSG_LEN];
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, 1, request_kind::PING, &body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(buf.is_empty(), "nothing hit the stream");
    }
}
