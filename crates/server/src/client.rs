//! A blocking `IBQP` client: handshake, correlated request/response, and
//! a split send/receive mode for open-loop load generation.

use crate::protocol::{
    read_frame, read_handshake, write_frame, write_handshake, HealthReport, Request, Response,
    StatsReport,
};
use ibis_core::RangeQuery;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// One connection to an `ibis-server`, speaking strict request/response.
/// For pipelined (many-outstanding) traffic, use
/// [`Client::into_split`].
pub struct Client {
    send: SendHalf,
    recv: RecvHalf,
}

impl Client {
    /// Connects and completes the mutual handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut writer = BufWriter::new(stream.try_clone()?);
        write_handshake(&mut writer)?;
        writer.flush()?;
        let mut reader = BufReader::new(stream);
        read_handshake(&mut reader)?;
        Ok(Client {
            send: SendHalf { writer, next_id: 1 },
            recv: RecvHalf { reader },
        })
    }

    /// Sends `request` and blocks for its response.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        let id = self.send.send(request)?;
        let (got, resp) = self.recv.recv()?;
        if got != id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response id {got} does not match request id {id}"),
            ));
        }
        Ok(resp)
    }

    /// Executes `query` with `deadline_ms` (0 = server default), returning
    /// the server's response.
    pub fn query(&mut self, query: &RangeQuery, deadline_ms: u32) -> io::Result<Response> {
        self.call(&Request::Query {
            query: query.clone(),
            count_only: false,
            deadline_ms,
        })
    }

    /// Like [`Client::query`], but asks for a count instead of rows.
    pub fn count(&mut self, query: &RangeQuery, deadline_ms: u32) -> io::Result<Response> {
        self.call(&Request::Query {
            query: query.clone(),
            count_only: true,
            deadline_ms,
        })
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<Response> {
        self.call(&Request::Ping)
    }

    /// Fetches the server's telemetry snapshot. Answered by the
    /// connection's reader without queueing, so this answers even when the
    /// server is saturated.
    pub fn stats(&mut self, include_slow: bool) -> io::Result<StatsReport> {
        match self.call(&Request::Stats { include_slow })? {
            Response::Stats(report) => Ok(*report),
            Response::Error { code, message } => Err(io::Error::other(format!(
                "stats refused ({code:?}): {message}"
            ))),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response to STATS: {other:?}"),
            )),
        }
    }

    /// Fetches the server's health probe (cheap; also never queued).
    pub fn health(&mut self) -> io::Result<HealthReport> {
        match self.call(&Request::Health)? {
            Response::Health(report) => Ok(report),
            Response::Error { code, message } => Err(io::Error::other(format!(
                "health refused ({code:?}): {message}"
            ))),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response to HEALTH: {other:?}"),
            )),
        }
    }

    /// Splits into independent send/receive halves so a load generator can
    /// keep many requests outstanding (open-loop traffic) — one thread
    /// sends on schedule, another drains responses as they arrive.
    pub fn into_split(self) -> (SendHalf, RecvHalf) {
        (self.send, self.recv)
    }
}

/// The sending half of a split [`Client`]; assigns request ids.
pub struct SendHalf {
    writer: BufWriter<TcpStream>,
    next_id: u64,
}

impl SendHalf {
    /// Sends one request, returning the id its response will echo.
    pub fn send(&mut self, request: &Request) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let (kind, body) = request.encode();
        write_frame(&mut self.writer, id, kind, &body)?;
        self.writer.flush()?;
        Ok(id)
    }
}

/// The receiving half of a split [`Client`].
pub struct RecvHalf {
    reader: BufReader<TcpStream>,
}

impl RecvHalf {
    /// Blocks for the next response; returns `(request_id, response)`.
    /// Responses may arrive out of request order once multiple requests
    /// are outstanding — correlate by id.
    pub fn recv(&mut self) -> io::Result<(u64, Response)> {
        let frame = read_frame(&mut self.reader)?;
        let resp = Response::decode(&frame)?;
        Ok((frame.request_id, resp))
    }
}
