//! The blocking client: the Session verbs over a TCP connection.
//!
//! ```no_run
//! use maybms::q;
//! use ws_server::Client;
//!
//! let mut client = Client::connect("127.0.0.1:7878")?;
//! let plan = client.prepare(q("R").project(["S"]))?;
//! let rows = client.execute(&plan)?;
//! let confidences = client.confidence(&plan)?;
//! # let _ = (rows, confidences);
//! # Ok::<(), ws_server::ServiceError>(())
//! ```

use std::fmt;
use std::net::{TcpStream, ToSocketAddrs};

use maybms::{IntoQuery, UpdateExpr};
use ws_relational::{Dependency, Tuple};

use crate::wire::{read_frame, write_frame, CountingStream, Request, Response, WIRE_VERSION};

/// What went wrong on the service path: a transport fault, a server-side
/// error, or the deterministic *inconsistent worlds* outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError {
    /// Whether this is a conditioning step that emptied the world set (a
    /// deterministic, retry-proof outcome), as opposed to an I/O or plan
    /// error.
    pub inconsistent: bool,
    /// The rendered diagnosis.
    pub message: String,
}

impl ServiceError {
    fn transport(e: impl fmt::Display) -> Self {
        ServiceError {
            inconsistent: false,
            message: e.to_string(),
        }
    }

    fn protocol(got: &Response) -> Self {
        ServiceError {
            inconsistent: false,
            message: format!("unexpected response on the wire: {got:?}"),
        }
    }

    /// Whether the failure is the deterministic conditioning outcome.
    pub fn is_inconsistent(&self) -> bool {
        self.inconsistent
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.inconsistent {
            write!(f, "inconsistent worlds: {}", self.message)
        } else {
            write!(f, "service error: {}", self.message)
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::transport(e)
    }
}

/// A plan registered on the server, executable many times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemotePlan {
    id: u64,
    display: String,
    attrs: Vec<String>,
}

impl RemotePlan {
    /// The plan rendered for humans (the server-side plan-cache key).
    pub fn display(&self) -> &str {
        &self.display
    }

    /// The output schema attribute names.
    pub fn attrs(&self) -> &[String] {
        &self.attrs
    }
}

/// A blocking connection to a ws-server, speaking the Session verbs.
#[derive(Debug)]
pub struct Client {
    stream: CountingStream<TcpStream>,
    backend: String,
    seq: u64,
    /// The trace id stamped on the next request frame (1-based; the server
    /// echoes it on every response frame of that request).
    next_trace: u64,
}

impl Client {
    /// Connect and perform the hello handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServiceError> {
        let stream = TcpStream::connect(addr).map_err(ServiceError::transport)?;
        stream.set_nodelay(true).map_err(ServiceError::transport)?;
        let mut client = Client {
            stream: CountingStream::new(stream),
            backend: String::new(),
            seq: 0,
            next_trace: 1,
        };
        match client.call(&Request::Hello {
            version: WIRE_VERSION,
        })? {
            Response::HelloOk { backend, seq, .. } => {
                client.backend = backend;
                client.seq = seq;
                Ok(client)
            }
            other => Err(ServiceError::protocol(&other)),
        }
    }

    /// Which representation backs the store (`"wsd"`, `"urel"`, …).
    pub fn backend_name(&self) -> &str {
        &self.backend
    }

    /// The committed sequence number last reported by the server.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Bytes this connection has received / sent on the wire.
    pub fn wire_bytes(&self) -> (u64, u64) {
        (self.stream.bytes_in(), self.stream.bytes_out())
    }

    fn send(&mut self, request: &Request) -> Result<u64, ServiceError> {
        let trace = self.next_trace;
        self.next_trace += 1;
        write_frame(&mut self.stream, trace, &request.encode()).map_err(ServiceError::transport)?;
        Ok(trace)
    }

    fn receive(&mut self, trace: u64) -> Result<Response, ServiceError> {
        let (echoed, payload) = read_frame(&mut self.stream)
            .map_err(ServiceError::transport)?
            .ok_or_else(|| ServiceError::transport("the server hung up"))?;
        if echoed != trace {
            return Err(ServiceError::transport(format!(
                "trace id mismatch: sent request {trace}, response echoes {echoed}"
            )));
        }
        let response = Response::decode(&payload).map_err(ServiceError::transport)?;
        if let Response::Error {
            inconsistent,
            message,
        } = response
        {
            return Err(ServiceError {
                inconsistent,
                message,
            });
        }
        Ok(response)
    }

    fn call(&mut self, request: &Request) -> Result<Response, ServiceError> {
        let trace = self.send(request)?;
        self.receive(trace)
    }

    /// Register a query; the plan is sent as built and optimized remotely.
    pub fn prepare(&mut self, query: impl IntoQuery) -> Result<RemotePlan, ServiceError> {
        let plan = query.into_query();
        match self.call(&Request::Prepare { plan })? {
            Response::Prepared {
                plan,
                display,
                attrs,
            } => Ok(RemotePlan {
                id: plan,
                display,
                attrs,
            }),
            other => Err(ServiceError::protocol(&other)),
        }
    }

    /// All answer rows of a prepared plan, over the server's read snapshot.
    pub fn execute(&mut self, plan: &RemotePlan) -> Result<Vec<Tuple>, ServiceError> {
        let trace = self.send(&Request::Execute { plan: plan.id })?;
        let mut rows = Vec::new();
        loop {
            match self.receive(trace)? {
                Response::RowBatch { rows: batch, done } => {
                    rows.extend(batch);
                    if done {
                        return Ok(rows);
                    }
                }
                other => return Err(ServiceError::protocol(&other)),
            }
        }
    }

    /// Tuple confidences for a prepared plan, exact bit patterns preserved.
    pub fn confidence(&mut self, plan: &RemotePlan) -> Result<Vec<(Tuple, f64)>, ServiceError> {
        match self.call(&Request::Confidence { plan: plan.id })? {
            Response::Confidences { rows } => Ok(rows),
            other => Err(ServiceError::protocol(&other)),
        }
    }

    /// Durably apply one update through the server's group-commit path.
    pub fn apply(&mut self, update: &UpdateExpr) -> Result<f64, ServiceError> {
        match self.call(&Request::Apply {
            update: update.clone(),
        })? {
            Response::Applied { mass, seq } => {
                self.seq = seq;
                Ok(mass)
            }
            other => Err(ServiceError::protocol(&other)),
        }
    }

    /// Condition the world set on integrity constraints.
    pub fn condition(&mut self, constraints: &[Dependency]) -> Result<f64, ServiceError> {
        match self.call(&Request::Condition {
            constraints: constraints.to_vec(),
        })? {
            Response::Applied { mass, seq } => {
                self.seq = seq;
                Ok(mass)
            }
            other => Err(ServiceError::protocol(&other)),
        }
    }

    /// Snapshot + WAL truncation; returns the new generation.
    pub fn checkpoint(&mut self) -> Result<u64, ServiceError> {
        match self.call(&Request::Checkpoint)? {
            Response::Checkpointed { generation } => Ok(generation),
            other => Err(ServiceError::protocol(&other)),
        }
    }

    /// The rendered server-side session summary (service counters included).
    pub fn stats(&mut self) -> Result<String, ServiceError> {
        match self.call(&Request::Stats)? {
            Response::Stats { summary } => Ok(summary),
            other => Err(ServiceError::protocol(&other)),
        }
    }

    /// The server's metrics registry rendered in Prometheus text format
    /// (empty when the server was started without an observer).
    pub fn metrics(&mut self) -> Result<String, ServiceError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            other => Err(ServiceError::protocol(&other)),
        }
    }

    /// End the connection politely.
    pub fn close(mut self) -> Result<(), ServiceError> {
        match self.call(&Request::Close)? {
            Response::Bye => Ok(()),
            other => Err(ServiceError::protocol(&other)),
        }
    }

    /// Ask the server to stop accepting connections, then disconnect.
    pub fn shutdown_server(mut self) -> Result<(), ServiceError> {
        match self.call(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(ServiceError::protocol(&other)),
        }
    }
}
