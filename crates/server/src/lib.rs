//! # ibis-server — networked query serving for incomplete databases
//!
//! The layer between [`ibis_storage::ConcurrentDb`] and remote clients:
//!
//! * [`protocol`] — the `IBQP` wire format: a 6-byte handshake, then
//!   CRC-framed, length-capped request/response messages reusing the
//!   `wire`/`crc` discipline of every on-disk format;
//! * [`server`] — the TCP serving loop: per-connection reader/writer
//!   threads, admission control at a queue high-water mark
//!   ([`ErrorCode::Overloaded`]), per-request deadlines (default
//!   [`ibis_core::QUERY_BUDGET_MS`]), and a fixed worker pool whose
//!   workers drain the queue a few jobs per wake and answer them in queue
//!   order on one snapshot, each through the database's ordinary
//!   `execute_with_cost_threads`;
//! * [`client`] — a blocking client with a split send/receive mode for
//!   open-loop load generation (the `loadgen` bin).
//!
//! Reads are snapshot-isolated end to end: every response carries the
//! watermark of the frozen [`DbSnapshot`](ibis_storage::DbSnapshot)
//! that served it, and served answers are bit-identical to executing the
//! same query directly against that snapshot.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use protocol::{ErrorCode, HealthReport, Request, Response, SlowPhase, SlowQuery, StatsReport};
pub use server::{Server, ServerConfig, ServerHandle};
