//! # ibis-server — networked query serving for incomplete databases
//!
//! The layer between [`ibis_storage::ConcurrentDb`] and remote clients:
//!
//! * [`protocol`] — the `IBQP` wire format: a 6-byte handshake, then
//!   CRC-framed, length-capped request/response messages reusing the
//!   `wire`/`crc` discipline of every on-disk format;
//! * [`server`] — the TCP serving loop: one thread per connection that
//!   reads, admits (shedding at a queue high-water mark with
//!   [`ErrorCode::Overloaded`]), and then runs queries to completion while
//!   it holds one of a fixed number of execution permits, draining the
//!   shared queue a few jobs at a time in queue order on one snapshot,
//!   each through the database's ordinary `execute_with_cost_threads`.
//!   Whichever thread answers a query writes its reply, each write bounded
//!   by [`server::REPLY_WRITE_BOUND`]; deadlines default to
//!   [`ibis_core::QUERY_BUDGET_MS`];
//! * [`client`] — a blocking client with a split send/receive mode for
//!   pipelined and open-loop traffic (what `ibis-bench`'s `serving`
//!   experiment drives).
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
