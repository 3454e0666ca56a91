//! `watchman_client`: the typed client for the WATCHMAN wire protocol.
//!
//! [`Client`] speaks the [`crate::wire`] protocol over one TCP connection:
//!
//! * **Typed calls** — [`Client::get`], [`Client::get_many`],
//!   [`Client::peek`], [`Client::stats`], [`Client::invalidate_relation`],
//!   [`Client::rebalance_now`], [`Client::shutdown_server`];
//! * **Pipelining** — [`Client::get_many`] encodes every request frame
//!   into one buffer and sends the batch with a single write before
//!   reading the first response, and the responses are read back through
//!   a buffered [`wire::FrameReader`], so a batch pays one round trip —
//!   one `send` and, while the responses fit the reader's chunk, one `recv`
//!   — instead of one per query (the server answers a connection's requests
//!   strictly in order);
//! * **Reconnect** — a call that fails with a socket error transparently
//!   re-establishes the connection (including the handshake) and retries
//!   under the client's [`RetryPolicy`]: bounded attempts with capped
//!   exponential backoff and deterministic jitter, so a fleet of clients
//!   facing a flapping server does not reconnect in lockstep.  Retries
//!   only cover requests whose replay is safe (`GET` — answered as a hit
//!   after a lost response — `PEEK`, `STATS`, `SHUTDOWN`).
//!   `REBALANCE_NOW` and `INVALIDATE` are **not** replayed: a lost
//!   response there surfaces as an error so the caller decides.  A retried
//!   `GET` is *visible* in the server's statistics as one extra reference,
//!   which is why deterministic replays run over loopback where
//!   connections do not drop;
//! * **Overload cooperation** — a `BUSY` response (the server shedding
//!   load) is retried after the server's own retry-after hint, and
//!   surfaces as [`ClientError::Busy`] once the retry budget is spent.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the blocking, lockstep client"
)]

use std::fmt;
use std::io::{self, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use watchman_core::engine::{RetryPolicy, StatsSnapshot};
use watchman_core::telemetry::{MetricsSnapshot, TraceDump};

use crate::wire::{self, GetRequest, GetResponse, RebalanceSummary, Request, Response, WireError};

/// Everything that can go wrong on a client call.
#[derive(Debug)]
pub enum ClientError {
    /// Establishing the TCP connection failed.
    Connect {
        /// The address that could not be reached.
        addr: String,
        /// The underlying socket error.
        source: io::Error,
    },
    /// A wire-level failure: socket error, malformed frame, version
    /// mismatch.
    Wire(WireError),
    /// The server answered the request with an error response.
    Server {
        /// The server's failure description.
        message: String,
    },
    /// The server answered with a well-formed response of the wrong kind
    /// (a protocol bug on one side or the other).
    UnexpectedResponse {
        /// What the call was waiting for.
        expected: &'static str,
    },
    /// The server shed the request (`BUSY`) and the retry budget is spent.
    Busy {
        /// The server's last retry-after hint, in microseconds.
        retry_after_us: u64,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Connect { addr, source } => {
                write!(f, "cannot connect to {addr}: {source}")
            }
            ClientError::Wire(err) => write!(f, "wire error: {err}"),
            ClientError::Server { message } => write!(f, "server error: {message}"),
            ClientError::UnexpectedResponse { expected } => {
                write!(
                    f,
                    "server sent a response of the wrong kind (expected {expected})"
                )
            }
            ClientError::Busy { retry_after_us } => {
                write!(f, "server busy (retry after {retry_after_us}us)")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Connect { source, .. } => Some(source),
            ClientError::Wire(err) => Some(err),
            _ => None,
        }
    }
}

impl From<WireError> for ClientError {
    fn from(err: WireError) -> Self {
        ClientError::Wire(err)
    }
}

/// Blocking connect plus version handshake, returning the raw handshaken
/// stream.  [`Client`] builds on this; the connection-storm driver uses it
/// directly and then hands the stream to the async runtime
/// (`TcpStream::from_std`), which is why it is the **only** place outside
/// [`Client`] that touches blocking `std::net` in this crate.
pub fn connect_handshaken(addr: &str) -> Result<TcpStream, ClientError> {
    let mut stream = TcpStream::connect(addr).map_err(|source| ClientError::Connect {
        addr: addr.to_owned(),
        source,
    })?;
    let _ = stream.set_nodelay(true);
    wire::write_frame(&mut stream, &wire::encode_hello()).map_err(WireError::Io)?;
    stream.flush().map_err(WireError::Io)?;
    let body = wire::read_frame(&mut stream)?.ok_or(WireError::Truncated {
        context: "server hello",
    })?;
    let peer = wire::decode_hello(&body)?;
    if peer != wire::VERSION {
        return Err(ClientError::Wire(WireError::UnsupportedVersion { peer }));
    }
    Ok(stream)
}

/// One established connection: the handshaken stream and the reader that
/// buffers its responses.  They are made and dropped together — bytes read
/// ahead from a connection that died must never prefix the next one's.
struct Connection {
    stream: TcpStream,
    reader: wire::FrameReader,
    /// Staging buffer for outgoing batches: every pipelined request of a
    /// call is encoded here and sent as one write, reusing its capacity
    /// across calls instead of growing a fresh `Vec` per call.
    encode_buf: Vec<u8>,
}

/// A connection to a `watchmand` server.
pub struct Client {
    addr: String,
    conn: Option<Connection>,
    next_id: u64,
    /// Governs reconnect-and-retry of failed batches and the pacing of
    /// `BUSY` retries: bounded attempts, capped exponential backoff,
    /// deterministic jitter.
    reconnect: RetryPolicy,
    /// Jitter-stream cursor: advances per backoff so consecutive retries
    /// do not sleep identically.
    retry_stream: u64,
    /// Read timeout applied to the current stream *and every reconnect's*
    /// stream — a client facing a stalled server must not block forever on
    /// a connection its own retry policy would otherwise have replaced.
    read_timeout: Option<Duration>,
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client")
            .field("addr", &self.addr)
            .field("connected", &self.conn.is_some())
            .finish()
    }
}

impl Client {
    /// Connects and performs the version handshake.
    pub fn connect(addr: impl Into<String>) -> Result<Client, ClientError> {
        let mut client = Client {
            addr: addr.into(),
            conn: None,
            next_id: 0,
            reconnect: RetryPolicy::default(),
            retry_stream: 0,
            read_timeout: None,
        };
        client.ensure_connected()?;
        Ok(client)
    }

    /// Replaces the reconnect/`BUSY` retry policy (see [`RetryPolicy`]).
    /// `RetryPolicy::none()` restores fail-fast behavior: the first
    /// connection loss or `BUSY` surfaces to the caller.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.reconnect = policy;
    }

    /// Sets a read timeout on the connection — and on every connection a
    /// future reconnect establishes.  A timed-out read surfaces as an IO
    /// wire error, which the retry policy treats like any other connection
    /// loss: the cure for a server that stalls mid-response is a fresh
    /// connection, not an eternal block.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) {
        self.read_timeout = timeout;
        if let Some(conn) = &self.conn {
            let _ = conn.stream.set_read_timeout(timeout);
        }
    }

    /// Like [`Client::connect`], but retries with a fixed backoff — the
    /// load generator (and CI) use this to ride out a `watchmand` that is
    /// still starting up.
    pub fn connect_with_retries(
        addr: impl Into<String>,
        attempts: u32,
        backoff: Duration,
    ) -> Result<Client, ClientError> {
        let addr = addr.into();
        let mut result = Client::connect(addr.clone());
        for _ in 1..attempts {
            if result.is_ok() {
                break;
            }
            std::thread::sleep(backoff);
            result = Client::connect(addr.clone());
        }
        result
    }

    /// The address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn ensure_connected(&mut self) -> Result<&mut Connection, ClientError> {
        match self.conn {
            Some(ref mut conn) => Ok(conn),
            None => {
                let stream = connect_handshaken(&self.addr)?;
                if self.read_timeout.is_some() {
                    let _ = stream.set_read_timeout(self.read_timeout);
                }
                Ok(self.conn.insert(Connection {
                    stream,
                    reader: wire::FrameReader::new(),
                    encode_buf: Vec::new(),
                }))
            }
        }
    }

    /// Whether a lost-response retry of `request` is safe.  A retried `GET`
    /// is answered as a hit, `PEEK`/`STATS` read nothing, and a second
    /// `SHUTDOWN` is a no-op — but `REBALANCE_NOW` moves capacity *again*
    /// and `INVALIDATE` reports different counts on replay, so those
    /// surface the connection error to the caller instead.
    fn retry_safe(request: &Request) -> bool {
        matches!(
            request,
            Request::Get(_)
                | Request::Peek { .. }
                | Request::Stats
                | Request::Shutdown
                | Request::Metrics
                | Request::TraceDump
        )
    }

    /// The backoff before the retry numbered `attempt` (1-based), advancing
    /// the jitter stream so consecutive retries never sleep in lockstep.
    fn retry_backoff(&mut self, attempt: u32) -> Duration {
        let stream = self.retry_stream;
        self.retry_stream = self.retry_stream.wrapping_add(1);
        self.reconnect.backoff(attempt, stream)
    }

    /// Sends `requests` pipelined and returns the responses in request
    /// order.  Two recoverable outcomes are retried under the client's
    /// [`RetryPolicy`] — bounded attempts, capped exponential backoff,
    /// deterministic jitter — and only when every request in the batch is
    /// [`retry_safe`](Self::retry_safe); a lost response to a
    /// non-idempotent admin request is reported, never replayed:
    ///
    /// * a socket error or an EOF mid-protocol (the connection is gone —
    ///   a server that closed on us shows up as a truncated response
    ///   stream): reconnect with handshake, backed off so a flapping
    ///   server is not hammered in a tight loop;
    /// * a `BUSY` response anywhere in the batch (the server shedding
    ///   load): the whole batch is replayed after the server's largest
    ///   retry-after hint or the policy backoff, whichever is longer
    ///   (capped at the policy's `max_delay`).
    fn call_batch(&mut self, requests: &[Request]) -> Result<Vec<Response>, ClientError> {
        let retryable = requests.iter().all(Self::retry_safe);
        let budget = self.reconnect.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.try_call_batch(requests) {
                Err(
                    ClientError::Wire(WireError::Io(_) | WireError::Truncated { .. })
                    | ClientError::Connect { .. },
                ) if retryable && attempt < budget => {
                    self.conn = None;
                    let backoff = self.retry_backoff(attempt);
                    if !backoff.is_zero() {
                        thread::sleep(backoff);
                    }
                }
                Ok(responses)
                    if retryable
                        && attempt < budget
                        && responses
                            .iter()
                            .any(|response| matches!(response, Response::Busy { .. })) =>
                {
                    let hint = responses
                        .iter()
                        .filter_map(|response| match response {
                            Response::Busy { retry_after_us } => Some(*retry_after_us),
                            _ => None,
                        })
                        .max()
                        .unwrap_or(0);
                    let backoff = self
                        .retry_backoff(attempt)
                        .max(Duration::from_micros(hint))
                        .min(self.reconnect.max_delay.max(Duration::from_micros(hint)));
                    if !backoff.is_zero() {
                        thread::sleep(backoff);
                    }
                }
                other => return other,
            }
        }
    }

    fn try_call_batch(&mut self, requests: &[Request]) -> Result<Vec<Response>, ClientError> {
        let first_id = self.next_id;
        self.next_id += requests.len() as u64;
        let Connection {
            stream,
            reader,
            encode_buf: batch,
        } = self.ensure_connected()?;
        // Pipelining: every request frame is encoded into one contiguous
        // buffer (length prefixes interleaved in place) and the whole batch
        // goes out in a single write before the first response is read.
        batch.clear();
        for (offset, request) in requests.iter().enumerate() {
            batch.extend_from_slice(&[0; 4]);
            let frame_start = batch.len();
            wire::encode_request_into(batch, first_id + offset as u64, request);
            let frame_len = (batch.len() - frame_start) as u32;
            batch[frame_start - 4..frame_start].copy_from_slice(&frame_len.to_le_bytes());
        }
        stream.write_all(batch).map_err(WireError::Io)?;
        stream.flush().map_err(WireError::Io)?;
        let mut responses = Vec::with_capacity(requests.len());
        for offset in 0..requests.len() {
            // Whatever one `recv` brought is decoded before the next: a
            // burst of small responses costs one syscall, not two apiece.
            let body = reader
                .next_frame_from(stream)?
                .ok_or(WireError::Truncated {
                    context: "response frame",
                })?;
            let (id, response) = wire::decode_response(body)?;
            let expected = first_id + offset as u64;
            if id != expected {
                return Err(ClientError::Wire(WireError::Protocol(format!(
                    "response id {id} does not match request id {expected}"
                ))));
            }
            responses.push(response);
        }
        Ok(responses)
    }

    fn call(&mut self, request: Request) -> Result<Response, ClientError> {
        let response = self
            .call_batch(std::slice::from_ref(&request))?
            .pop()
            .ok_or(WireError::Truncated {
                context: "response frame",
            })?;
        match response {
            Response::Error { message } => Err(ClientError::Server { message }),
            Response::Busy { retry_after_us } => Err(ClientError::Busy { retry_after_us }),
            other => Ok(other),
        }
    }

    /// Looks up one query, executing it server-side on a miss.
    pub fn get(&mut self, request: GetRequest) -> Result<GetResponse, ClientError> {
        match self.call(Request::Get(request))? {
            Response::Get(response) => Ok(response),
            _ => Err(ClientError::UnexpectedResponse { expected: "GET" }),
        }
    }

    /// Looks up a batch of queries **pipelined**: all request frames are
    /// written before the first response is read, so the batch pays one
    /// round trip.  Responses come back in request order.
    pub fn get_many(&mut self, requests: Vec<GetRequest>) -> Result<Vec<GetResponse>, ClientError> {
        let wrapped: Vec<Request> = requests.into_iter().map(Request::Get).collect();
        self.call_batch(&wrapped)?
            .into_iter()
            .map(|response| match response {
                Response::Get(response) => Ok(response),
                Response::Error { message } => Err(ClientError::Server { message }),
                Response::Busy { retry_after_us } => Err(ClientError::Busy { retry_after_us }),
                _ => Err(ClientError::UnexpectedResponse { expected: "GET" }),
            })
            .collect()
    }

    /// Non-mutating probe: returns the cached set's size, or `None` when the
    /// query is not resident.  Never perturbs policy state or statistics.
    pub fn peek(&mut self, key: impl Into<String>) -> Result<Option<u64>, ClientError> {
        match self.call(Request::Peek { key: key.into() })? {
            Response::Peek {
                cached: true,
                size_bytes,
            } => Ok(Some(size_bytes)),
            Response::Peek { cached: false, .. } => Ok(None),
            _ => Err(ClientError::UnexpectedResponse { expected: "PEEK" }),
        }
    }

    /// Fetches the engine's full statistics snapshot.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        match self.call(Request::Stats)? {
            Response::Stats(snapshot) => Ok(snapshot),
            _ => Err(ClientError::UnexpectedResponse { expected: "STATS" }),
        }
    }

    /// Invalidates every cached set depending on `relation`; returns
    /// `(affected, invalidated)` counts.
    pub fn invalidate_relation(
        &mut self,
        relation: impl Into<String>,
    ) -> Result<(u32, u32), ClientError> {
        match self.call(Request::Invalidate {
            relation: relation.into(),
        })? {
            Response::Invalidate {
                affected,
                invalidated,
            } => Ok((affected, invalidated)),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "INVALIDATE",
            }),
        }
    }

    /// Runs one rebalance pass at the given logical time.
    pub fn rebalance_now(
        &mut self,
        timestamp_us: u64,
    ) -> Result<Option<RebalanceSummary>, ClientError> {
        match self.call(Request::RebalanceNow { timestamp_us })? {
            Response::RebalanceNow(outcome) => Ok(outcome),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "REBALANCE_NOW",
            }),
        }
    }

    /// Fetches the server's telemetry exposition: every counter, gauge and
    /// latency histogram as one versioned snapshot.  The load generator
    /// scrapes this mid-storm; CI asserts the scrape parses and the storm's
    /// counters moved.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ClientError> {
        match self.call(Request::Metrics)? {
            Response::Metrics(snapshot) => Ok(snapshot),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "METRICS",
            }),
        }
    }

    /// Dumps the server's flight recorder: the bounded ring of recent
    /// structured trace events, oldest first.
    pub fn trace_dump(&mut self) -> Result<TraceDump, ClientError> {
        match self.call(Request::TraceDump)? {
            Response::TraceDump(dump) => Ok(dump),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "TRACE_DUMP",
            }),
        }
    }

    /// Runs `f` on the underlying stream.  Test support: lets integration
    /// tests corrupt their own connection to exercise the reconnect path.
    #[doc(hidden)]
    pub fn with_raw_stream<R>(
        &mut self,
        f: impl FnOnce(&mut TcpStream) -> R,
    ) -> Result<R, ClientError> {
        let conn = self.ensure_connected()?;
        Ok(f(&mut conn.stream))
    }

    /// Asks the server to drain and exit.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.call(Request::Shutdown)? {
            Response::Shutdown => Ok(()),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "SHUTDOWN",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;
    use std::net::TcpListener;

    /// Serves one full exchange on `stream` by hand: handshake, then one
    /// `PEEK` request answered with a canned response.
    fn serve_one_exchange(mut stream: TcpStream) {
        let hello = wire::read_frame(&mut stream)
            .expect("hello frame")
            .expect("hello present");
        wire::decode_hello(&hello).expect("client hello");
        wire::write_frame(&mut stream, &wire::encode_hello()).expect("server hello");
        let frame = wire::read_frame(&mut stream)
            .expect("request frame")
            .expect("request present");
        let (request_id, request) = wire::decode_request(&frame).expect("decode request");
        assert!(matches!(request, Request::Peek { .. }));
        let response = Response::Peek {
            cached: false,
            size_bytes: 0,
        };
        let body = wire::encode_response(request_id, &response).expect("encode response");
        wire::write_frame(&mut stream, &body).expect("write response");
        // Drain until the client hangs up so the response is not lost to an
        // RST racing the close.
        let _ = stream.read(&mut [0u8; 64]);
    }

    /// A flapping listener: the first call succeeds, then the server drops
    /// the connection *and* refuses the next two reconnects before serving
    /// again.  The old client retried exactly once, blind and undelayed,
    /// and surfaced an error here; under the policy-driven loop the second
    /// call rides out the flap.
    #[test]
    fn policy_retries_ride_out_a_flapping_listener() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            // Connection 1: healthy exchange, then closed by the drop.
            let (stream, _) = listener.accept().expect("accept 1");
            serve_one_exchange(stream);
            // Connections 2 and 3: accepted and dropped before handshake.
            for _ in 0..2 {
                let (stream, _) = listener.accept().expect("accept flap");
                drop(stream);
            }
            // Connection 4: healthy again.
            let (stream, _) = listener.accept().expect("accept 4");
            serve_one_exchange(stream);
        });

        let mut client = Client::connect(&addr).expect("first connect");
        client.set_retry_policy(RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_micros(200),
            max_delay: Duration::from_millis(5),
            jitter_seed: 7,
        });
        client.peek("q").expect("call on healthy connection");
        // The server closed connection 1; this call must reconnect through
        // two dropped connections before the fourth accept serves it.
        client.peek("q").expect("call rides out the flap");
        // Hang up so connection 4's drain read sees EOF instead of waiting
        // on a client that never speaks again.
        drop(client);
        server.join().expect("server thread");
    }

    /// With retries disabled the first flap surfaces: the regression guard
    /// for the budget check (`attempt < max_attempts`), which must also
    /// prevent the pre-policy behavior of one free blind retry.
    #[test]
    fn fail_fast_policy_surfaces_the_first_connection_loss() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept 1");
            // The listener dies here: a reconnect attempt has nowhere to go.
            drop(listener);
            serve_one_exchange(stream);
        });
        let mut client = Client::connect(&addr).expect("connect");
        client.set_retry_policy(RetryPolicy::none());
        client.peek("q").expect("healthy call");
        // The server is closing connection 1 (this request's bytes unblock
        // its drain read); fail-fast must surface the loss, not loop.
        let err = client.peek("q").expect_err("no retry budget");
        assert!(matches!(
            err,
            ClientError::Wire(_) | ClientError::Connect { .. }
        ));
        server.join().expect("server thread");
    }
}
