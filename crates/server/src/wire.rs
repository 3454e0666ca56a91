//! The WATCHMAN wire protocol: versioned, length-prefixed binary frames.
//!
//! Every message on a connection is one **frame**:
//!
//! ```text
//! +----------------+---------------------+
//! | length: u32 LE | body: length bytes  |
//! +----------------+---------------------+
//! ```
//!
//! `length` counts only the body and must not exceed
//! [`MAX_FRAME_BYTES`]; a larger prefix is treated as a malformed stream
//! and fails the connection.  All integers are little-endian; strings are a
//! `u32` byte length followed by UTF-8 bytes; floats travel as their IEEE-754
//! bit pattern in a `u64`.
//!
//! ## Handshake
//!
//! The first frame in each direction is a **hello**:
//!
//! ```text
//! body = magic: [u8; 4] = b"WMAN" | version: u16
//! ```
//!
//! The client sends its hello first; the server answers with its own.  A
//! server that does not speak the client's version replies with its hello
//! (carrying the version it *does* speak) and closes the connection, so old
//! clients fail with a precise [`WireError::UnsupportedVersion`] instead of
//! a decode error.  Version negotiation is exact-match: [`VERSION`] bumps on
//! any incompatible change to the framing or the opcode payloads below.
//!
//! ## Requests
//!
//! ```text
//! body = request_id: u64 | opcode: u8 | payload
//! ```
//!
//! | opcode | name | payload |
//! |---|---|---|
//! | 1 | `GET` | key string, `timestamp_us: u64`, `result_bytes: u64`, `cost_blocks: u64`, `fetch_delay_us: u32`, `deadline_hint_us: u64`, `payload_prefix_cap: u32` |
//! | 2 | `PEEK` | key string |
//! | 3 | `STATS` | (empty) |
//! | 4 | `INVALIDATE` | relation string |
//! | 6 | `SHUTDOWN` | (empty) |
//! | 8 | `METRICS` | (empty) |
//! | 9 | `TRACE_DUMP` | (empty) |
//!
//! Opcodes 5 (the shard capacity-transfer call, retired in v6) and 7
//! (`SERVER_INFO`, retired in v5) are never reused.
//!
//! `GET` carries the replay protocol of the simulator: the key is the raw
//! query text, and `result_bytes`/`cost_blocks` describe what executing the
//! query against the warehouse would produce (on a miss the server
//! "executes" by materializing a payload of that size, sleeping
//! `fetch_delay_us` to stand in for the scan).  The server refuses, with an
//! error response and before any engine work, a `GET` whose `result_bytes`
//! exceeds 64 MiB or whose `fetch_delay_us` exceeds 1,000,000 µs, the grace
//! a drain gives in-flight requests.  `deadline_hint_us` is a service-time
//! budget: the server reports (but does not enforce) whether servicing
//! exceeded it.  `payload_prefix_cap` bounds how many payload
//! bytes the response carries back — metrics-only callers send 0.
//!
//! ## Responses
//!
//! ```text
//! body = request_id: u64 | status: u8 (0 = ok, 1 = error) | payload
//! ```
//!
//! An error payload is a message string.  Ok payloads per opcode:
//!
//! | request | ok payload |
//! |---|---|
//! | `GET` | `source: u8` (0 hit, 1 executed, 2 coalesced), `cost_blocks: f64`, `full_len: u64`, prefix bytes (`u32` length + bytes), `service_us: u64`, `deadline_exceeded: u8` |
//! | `PEEK` | `cached: u8`, `size_bytes: u64` |
//! | `STATS` | JSON-encoded [`StatsSnapshot`] string: the engine's counters and occupancy per shard, plus the server's shed count; taking it changes nothing |
//! | `INVALIDATE` | `affected: u32`, `invalidated: u32` |
//! | `SHUTDOWN` | (empty) |
//! | `METRICS` | JSON-encoded [`MetricsSnapshot`] string |
//! | `TRACE_DUMP` | JSON-encoded [`TraceDump`] string |
//!
//! ## Error handling rules
//!
//! Decoding is *defensive*: every read is bounds-checked and a frame that
//! cannot be decoded (bad magic, truncated payload, invalid UTF-8, trailing
//! garbage) fails **that connection only** — the server closes it and keeps
//! serving every other connection.  A *well-formed* frame with an opcode the
//! server does not know gets an error **response** instead (the request id
//! is decoded before the opcode precisely so this is possible), which is
//! what lets newer clients degrade gracefully against older servers.
//!
//! ## Buffered IO
//!
//! Framing helpers come in two tiers.  The blocking per-frame helpers
//! [`read_frame`] and [`write_frame`] issue two syscalls per frame — right
//! for the handshake and for lockstep callers with a single request in
//! flight.  Everything after the handshake, on
//! **both** ends, reads through a [`FrameReader`]: it drains every pipelined
//! frame a single `recv` returned out of a reusable buffer, filled by
//! [`poll_fill`](FrameReader::poll_fill) in a server session and by its
//! blocking twin [`fill_from`](FrameReader::fill_from) in the client, so a
//! depth-32 burst costs each side one `recv`, not 64.  Sessions answer
//! through a [`FrameWriter`], which stages each burst's responses and
//! flushes them as one vectored write.  The server crate's `clippy.toml`
//! bans [`write_frame`] outside the blocking client and load drivers.

use std::fmt;
use std::future::{poll_fn, Future};
use std::io::{self, Read, Write};
use std::task::{ready, Context, Poll};

use watchman_core::engine::StatsSnapshot;
use watchman_core::runtime::net::TcpStream as NetStream;
use watchman_core::telemetry::{MetricsSnapshot, TraceDump};

/// The handshake magic: identifies a WATCHMAN wire connection.
pub const MAGIC: [u8; 4] = *b"WMAN";

/// The protocol version this build speaks (exact-match negotiation).
///
/// v2 added the failure-domain surface: the `Stale` lookup source (a value
/// served from the last-known-good store after a failed refetch) and the
/// `BUSY` response status carrying a retry-after hint (overload shedding).
/// v3 added the telemetry admin surface: `METRICS` (the versioned
/// [`MetricsSnapshot`] exposition) and `TRACE_DUMP` (the flight recorder's
/// ring as a [`TraceDump`]).
/// v4 dropped the `fragmentation` sample series from the `STATS` body: a
/// snapshot is now a pure read, and `METRICS` derives
/// `engine.fragmentation.used_permille` from the occupancy it reports.
/// v5 retired `SERVER_INFO` (opcode 7): `METRICS` gauges the same three
/// numbers as `process.threads`, `runtime.workers` and `server.sessions`.
/// v6 retired opcode 5, which moved capacity between shards, and dropped
/// the transfer count and the per-shard capacities from the `STATS` body:
/// every shard keeps its fixed `total/N` capacity.
pub const VERSION: u16 = 6;

/// Hard upper bound on a frame body; larger length prefixes are treated as
/// stream corruption and fail the connection.
pub const MAX_FRAME_BYTES: u32 = 16 << 20;

/// Hard cap on the payload prefix a `GET` response carries, regardless of
/// the request's `payload_prefix_cap`: a cached set can be larger than a
/// frame (the server caps declared results at its own limit, not at
/// [`MAX_FRAME_BYTES`]), and a response must always fit one frame.
pub const MAX_PREFIX_BYTES: u32 = MAX_FRAME_BYTES - 1024;

/// Everything that can go wrong speaking the wire protocol.
#[derive(Debug)]
pub enum WireError {
    /// An underlying socket error.
    Io(io::Error),
    /// The peer's length prefix exceeds [`MAX_FRAME_BYTES`].
    FrameTooLarge {
        /// The declared body length.
        declared: u32,
    },
    /// The stream ended inside a frame, or a payload field ran past the end
    /// of its frame body.
    Truncated {
        /// Which decode step hit the end of the data.
        context: &'static str,
    },
    /// The handshake did not start with [`MAGIC`].
    BadMagic,
    /// The peer speaks a different protocol version.
    UnsupportedVersion {
        /// The version the peer offered (or answered with).
        peer: u16,
    },
    /// A well-formed frame carried an opcode this build does not know.
    /// Carries the request id so a server can still address its error
    /// response.
    UnknownOpcode {
        /// The unknown opcode byte.
        opcode: u8,
        /// The request id decoded before the opcode.
        request_id: u64,
    },
    /// An enum byte (status, lookup source, …) held an undefined value.
    InvalidEnum {
        /// Which field held the undefined value.
        field: &'static str,
        /// The offending byte.
        value: u8,
    },
    /// A string field was not valid UTF-8.
    InvalidUtf8,
    /// A frame body had bytes left over after its payload was fully decoded.
    TrailingBytes,
    /// The peer violated the request/response protocol (e.g. a response id
    /// that matches no outstanding request, or an unparsable STATS body).
    Protocol(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(err) => write!(f, "socket error: {err}"),
            WireError::FrameTooLarge { declared } => write!(
                f,
                "frame length {declared} exceeds the {MAX_FRAME_BYTES}-byte limit"
            ),
            WireError::Truncated { context } => {
                write!(f, "truncated frame while reading {context}")
            }
            WireError::BadMagic => f.write_str("handshake does not start with the WMAN magic"),
            WireError::UnsupportedVersion { peer } => {
                write!(
                    f,
                    "peer speaks protocol version {peer}, this build speaks {VERSION}"
                )
            }
            WireError::UnknownOpcode { opcode, .. } => write!(f, "unknown opcode {opcode}"),
            WireError::InvalidEnum { field, value } => {
                write!(f, "invalid value {value} for {field}")
            }
            WireError::InvalidUtf8 => f.write_str("string field is not valid UTF-8"),
            WireError::TrailingBytes => f.write_str("frame has trailing bytes after its payload"),
            WireError::Protocol(message) => write!(f, "protocol violation: {message}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(err: io::Error) -> Self {
        WireError::Io(err)
    }
}

/// One `GET` request: the replay protocol of the simulator carried over the
/// wire (see the [module docs](self) for field semantics).  `K` is how the
/// text is held: `String` for a request to send, `&str` for one decoded in
/// place from its frame ([`decode_request_as`]).
#[derive(Debug, Clone, PartialEq)]
pub struct GetRequest<K = String> {
    /// Raw query text; the server derives the cache key with
    /// [`QueryKey::from_raw_query`](watchman_core::key::QueryKey::from_raw_query).
    pub key: K,
    /// Logical timestamp of the reference in microseconds.
    pub timestamp_us: u64,
    /// Size of the retrieved set executing the query would produce.
    pub result_bytes: u64,
    /// Execution cost of the query in logical block reads.
    pub cost_blocks: u64,
    /// Simulated execution time of a miss, in microseconds (the stand-in
    /// for a multi-second warehouse scan; 0 for deterministic replays).
    /// The server refuses a delay above 1,000,000 µs, its drain grace.
    pub fetch_delay_us: u32,
    /// Service-time budget in microseconds; 0 means none.  Advisory: the
    /// response reports whether it was exceeded.
    pub deadline_hint_us: u64,
    /// Maximum number of payload bytes to return (0 = metrics only).  The
    /// server additionally clamps this to [`MAX_PREFIX_BYTES`] so the
    /// response always fits one frame.
    pub payload_prefix_cap: u32,
}

impl GetRequest {
    /// A metrics-only request (no payload bytes back, no simulated delay,
    /// no deadline) — what deterministic replays send.
    pub fn metrics_only(
        key: impl Into<String>,
        timestamp_us: u64,
        result_bytes: u64,
        cost_blocks: u64,
    ) -> Self {
        GetRequest {
            key: key.into(),
            timestamp_us,
            result_bytes,
            cost_blocks,
            fetch_delay_us: 0,
            deadline_hint_us: 0,
            payload_prefix_cap: 0,
        }
    }
}

/// A decoded request frame payload (`K` as in [`GetRequest`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Request<K = String> {
    /// Look up a query, executing on a miss (single-flight across every
    /// connection).
    Get(GetRequest<K>),
    /// Non-mutating admin probe: is this query cached, and how large is it?
    Peek {
        /// Raw query text of the probed key.
        key: K,
    },
    /// Fetch the engine's full [`StatsSnapshot`].
    Stats,
    /// Invalidate every cached set that depends on a base relation.
    Invalidate {
        /// The updated base relation (case-insensitive match).
        relation: K,
    },
    /// Stop accepting connections, drain in-flight requests, exit.
    Shutdown,
    /// Fetch the process-wide telemetry exposition: every counter, gauge
    /// and latency histogram as one versioned [`MetricsSnapshot`].
    Metrics,
    /// Dump the flight recorder's trace-event ring (newest events, oldest
    /// first).
    TraceDump,
}

/// Where a [`Response::Get`] value came from (mirror of
/// [`LookupSource`](watchman_core::engine::LookupSource)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireSource {
    /// Served from cache.
    Hit,
    /// This request led the execution.
    Executed,
    /// Coalesced onto another connection's in-flight execution.
    Coalesced,
    /// The fetch failed and the server degraded to the last-known-good
    /// value (see `LookupSource::Stale`).
    Stale,
}

impl fmt::Display for WireSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireSource::Hit => f.write_str("hit"),
            WireSource::Executed => f.write_str("executed"),
            WireSource::Coalesced => f.write_str("coalesced"),
            WireSource::Stale => f.write_str("stale"),
        }
    }
}

/// The per-request result of a `GET`.  `P` is how the payload prefix is
/// held: `Vec<u8>` for a decoded response, anything that derefs to the bytes
/// for one to encode (the server hands over the cached set itself).
#[derive(Debug, Clone, PartialEq)]
pub struct GetResponse<P = Vec<u8>> {
    /// How the value was obtained.
    pub source: WireSource,
    /// Execution cost of the query in block reads.
    pub cost_blocks: f64,
    /// Full size of the retrieved set in bytes.
    pub full_len: u64,
    /// The first `min(full_len, payload_prefix_cap)` payload bytes.
    pub prefix: P,
    /// Server-side service time in microseconds.
    pub service_us: u64,
    /// Whether `service_us` exceeded the request's `deadline_hint_us`.
    pub deadline_exceeded: bool,
}

/// A response frame payload (`P` as in [`GetResponse`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Response<P = Vec<u8>> {
    /// Answer to [`Request::Get`].
    Get(GetResponse<P>),
    /// Answer to [`Request::Peek`].
    Peek {
        /// Whether the key is cached.
        cached: bool,
        /// Size of the cached set (0 when absent).
        size_bytes: u64,
    },
    /// Answer to [`Request::Stats`].
    Stats(StatsSnapshot),
    /// Answer to [`Request::Invalidate`].
    Invalidate {
        /// Sets that were registered as depending on the relation.
        affected: u32,
        /// Sets that were actually resident and removed.
        invalidated: u32,
    },
    /// Answer to [`Request::Shutdown`].
    Shutdown,
    /// Answer to [`Request::Metrics`].
    Metrics(MetricsSnapshot),
    /// Answer to [`Request::TraceDump`].
    TraceDump(TraceDump),
    /// The server failed the request (unknown opcode, internal panic, …).
    Error {
        /// Human-readable failure description.
        message: String,
    },
    /// The server refused the request under overload (admission gate full,
    /// or the request's deadline hint cannot be met).  The request was NOT
    /// executed; the client should back off and retry.
    Busy {
        /// Server-suggested delay before retrying, in microseconds
        /// (0 = retry at the client's own discretion).
        retry_after_us: u64,
    },
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one frame (length prefix + body).
pub fn write_frame(writer: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let len = u32::try_from(body.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame body too large"))?;
    writer.write_all(&len.to_le_bytes())?;
    writer.write_all(body)?;
    Ok(())
}

/// Reads one frame body, enforcing [`MAX_FRAME_BYTES`] before the body is
/// allocated.
///
/// Returns `Ok(None)` on a clean EOF *between* frames; EOF inside a frame is
/// a [`WireError::Truncated`] error.
pub fn read_frame(reader: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    let mut header = [0u8; 4];
    match read_exact_or_eof(reader, &mut header)? {
        ReadOutcome::Eof => return Ok(None),
        ReadOutcome::Full => {}
    }
    let declared = u32::from_le_bytes(header);
    if declared > MAX_FRAME_BYTES {
        return Err(WireError::FrameTooLarge { declared });
    }
    let mut body = vec![0u8; declared as usize];
    reader.read_exact(&mut body).map_err(|err| {
        if err.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated {
                context: "frame body",
            }
        } else {
            WireError::Io(err)
        }
    })?;
    Ok(Some(body))
}

enum ReadOutcome {
    Full,
    Eof,
}

/// `read_exact`, except a clean EOF before the *first* byte is reported as
/// [`ReadOutcome::Eof`] instead of an error.  EOF after a partial read is a
/// truncation error.
fn read_exact_or_eof(reader: &mut impl Read, buf: &mut [u8]) -> Result<ReadOutcome, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(ReadOutcome::Eof),
            Ok(0) => {
                return Err(WireError::Truncated {
                    context: "frame header",
                })
            }
            Ok(n) => filled += n,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(WireError::Io(err)),
        }
    }
    Ok(ReadOutcome::Full)
}

// ---------------------------------------------------------------------------
// Buffered session IO
// ---------------------------------------------------------------------------

/// How many bytes a [`FrameReader`] asks the socket for per `recv`: enough
/// that a burst of pipelined metrics-only requests (~100 bytes each) lands
/// in one syscall at depth 64.
const READ_CHUNK: usize = 16 * 1024;

/// A buffered frame reader: one reusable userspace buffer per connection
/// end that drains as many pipelined frames per `recv` as arrived, instead
/// of the two-plus syscalls per frame the unbuffered [`read_frame`] costs
/// (header `read_exact`, then body).
///
/// [`FrameReader::take_frame`] hands the frame body out as a slice into the
/// buffer — no per-frame allocation — whose borrow ends when the caller is
/// done decoding; consumed bytes are reclaimed by compaction on the next
/// fill.  Oversized length prefixes fail from the four buffered header bytes
/// (no body is ever buffered for them), and EOF inside a frame reports the
/// same [`WireError::Truncated`] contexts as the unbuffered path, so the
/// two are drop-in equivalents (a property test pins this).
///
/// The split into [`frame_ready`](FrameReader::frame_ready) /
/// [`take_frame`](FrameReader::take_frame) /
/// [`poll_fill`](FrameReader::poll_fill) exists for the server's session
/// loop, which must race its fills against the shutdown signal but commit
/// to any frame whose bytes have started arriving.
pub struct FrameReader {
    /// The reusable buffer; `buf[start..end]` is unconsumed stream data.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Default for FrameReader {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameReader {
    /// An empty reader; the buffer grows to its steady state on first use.
    pub fn new() -> Self {
        FrameReader {
            buf: Vec::new(),
            start: 0,
            end: 0,
        }
    }

    /// Unconsumed bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// The buffered partial frame's declared body length, once its header's
    /// four bytes are in.
    fn declared_len(&self) -> Option<u32> {
        let header = self.buf[self.start..self.end].first_chunk::<4>()?;
        Some(u32::from_le_bytes(*header))
    }

    /// Whether a complete frame is buffered.  Fails with
    /// [`WireError::FrameTooLarge`] as soon as the four header bytes declare
    /// an oversized body — before any of that body is buffered.
    pub fn frame_ready(&self) -> Result<bool, WireError> {
        match self.declared_len() {
            None => Ok(false),
            Some(declared) if declared > MAX_FRAME_BYTES => {
                Err(WireError::FrameTooLarge { declared })
            }
            Some(declared) => Ok(self.buffered() >= 4 + declared as usize),
        }
    }

    /// Consumes the complete frame at the front of the buffer and returns
    /// its body as a slice (valid until the next call that mutates the
    /// reader).
    ///
    /// # Panics
    ///
    /// If no complete frame is buffered ([`FrameReader::frame_ready`] must
    /// have returned `Ok(true)`).
    #[expect(clippy::expect_used, reason = "the documented # Panics contract")]
    pub fn take_frame(&mut self) -> &[u8] {
        let declared = self.declared_len().expect("take_frame: header buffered") as usize;
        let body_start = self.start + 4;
        let body_end = body_start + declared;
        assert!(
            body_end <= self.end,
            "take_frame called without a complete frame"
        );
        self.start = body_end;
        &self.buf[body_start..body_end]
    }

    /// Makes room for at least `want` more bytes after `end`, compacting
    /// consumed bytes to the front before growing.
    fn ensure_room(&mut self, want: usize) {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        if self.buf.len() >= self.end + want {
            return;
        }
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() < self.end + want {
            self.buf.resize(self.end + want, 0);
        }
    }

    /// Appends bytes as if a `recv` had returned them — the pure-buffer
    /// entry the chunking and property tests drive split points through.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.ensure_room(bytes.len().max(1));
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// The space one `recv` reads into: at least [`READ_CHUNK`], and enough
    /// that a visible partial frame's whole body fits in one read.
    fn room(&mut self) -> &mut [u8] {
        let want = match self.declared_len() {
            Some(declared) => {
                let total = 4 + declared.min(MAX_FRAME_BYTES) as usize;
                total.saturating_sub(self.buffered()).max(READ_CHUNK)
            }
            None => READ_CHUNK,
        };
        self.ensure_room(want);
        &mut self.buf[self.end..]
    }

    /// Polls one `recv` into the buffer; `Ok(0)` is end-of-stream.
    pub fn poll_fill(
        &mut self,
        cx: &mut Context<'_>,
        stream: &NetStream,
    ) -> Poll<io::Result<usize>> {
        let n = ready!(stream.poll_read(cx, self.room()))?;
        self.end += n;
        Poll::Ready(Ok(n))
    }

    /// Reads more bytes from the stream into the buffer; `Ok(0)` is
    /// end-of-stream.
    pub async fn fill(&mut self, stream: &NetStream) -> io::Result<usize> {
        poll_fn(|cx| self.poll_fill(cx, stream)).await
    }

    /// The blocking twin of [`fill`](Self::fill): one `read` into the same
    /// buffer, sized the same way; `Ok(0)` is end-of-stream.
    pub fn fill_from(&mut self, reader: &mut impl Read) -> io::Result<usize> {
        loop {
            match reader.read(self.room()) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(err) => return Err(err),
            }
        }
    }

    /// Which decode step an EOF right now would truncate — mirrors the
    /// contexts [`read_frame`] reports.
    pub fn truncation_context(&self) -> &'static str {
        if self.buffered() < 4 {
            "frame header"
        } else {
            "frame body"
        }
    }

    /// What end-of-stream means right now: `Ok(None)` *between* frames,
    /// [`WireError::Truncated`] inside one.
    fn end_of_stream(&self) -> Result<Option<&[u8]>, WireError> {
        if self.buffered() == 0 {
            Ok(None)
        } else {
            Err(WireError::Truncated {
                context: self.truncation_context(),
            })
        }
    }

    /// Reads the next frame from a reactor-driven stream, returning
    /// `Ok(None)` on a clean EOF *between* frames and
    /// [`WireError::Truncated`] on EOF inside one.
    pub async fn next_frame(&mut self, stream: &NetStream) -> Result<Option<&[u8]>, WireError> {
        while !self.frame_ready()? {
            if self.fill(stream).await? == 0 {
                return self.end_of_stream();
            }
        }
        Ok(Some(self.take_frame()))
    }

    /// The blocking twin of [`next_frame`](Self::next_frame), and of
    /// [`read_frame`] with the same outcomes: the client's one read path
    /// after the handshake.
    pub fn next_frame_from(&mut self, reader: &mut impl Read) -> Result<Option<&[u8]>, WireError> {
        while !self.frame_ready()? {
            if self.fill_from(reader)? == 0 {
                return self.end_of_stream();
            }
        }
        Ok(Some(self.take_frame()))
    }

    /// Decodes the next frame against `feed`-supplied bytes only (no
    /// stream): `Ok(None)` means more bytes are needed.  This is the entry
    /// the differential tests compare against the unbuffered codec.
    pub fn try_next_fed_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        if self.frame_ready()? {
            Ok(Some(self.take_frame()))
        } else {
            Ok(None)
        }
    }
}

/// A coalescing frame writer: responses for every request decoded in the
/// same readiness burst are staged into one reusable buffer (frames are
/// encoded in place via [`encode_response_into`] — no per-frame `Vec`) and
/// flushed with a single vectored write, collapsing a pipeline-depth-64
/// burst's 64 `write_all`s into one syscall.
///
/// Server sessions must write through this — the server crate's
/// `clippy.toml` bans direct [`write_frame`] calls in session paths.
pub struct FrameWriter {
    buf: Vec<u8>,
}

impl Default for FrameWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameWriter {
    /// An empty writer; the buffer grows to its steady state on first use.
    pub fn new() -> Self {
        FrameWriter { buf: Vec::new() }
    }

    /// Whether anything is staged and unflushed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Bytes staged and not yet flushed.
    pub fn staged_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Stages one pre-encoded frame body (length prefix added here).
    pub fn stage(&mut self, body: &[u8]) -> io::Result<()> {
        let len = u32::try_from(body.len())
            .ok()
            .filter(|&len| len <= MAX_FRAME_BYTES)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame body too large"))?;
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.buf.extend_from_slice(body);
        Ok(())
    }

    /// Encodes a response frame directly into the staging buffer: the
    /// length prefix is reserved up front and backfilled once the body's
    /// size is known.  On encode failure nothing is staged.
    pub fn stage_response<P: AsRef<[u8]>>(
        &mut self,
        request_id: u64,
        response: &Response<P>,
    ) -> Result<(), WireError> {
        let frame_start = self.buf.len();
        self.buf.extend_from_slice(&[0u8; 4]);
        if let Err(error) = encode_response_into(&mut self.buf, request_id, response) {
            self.buf.truncate(frame_start);
            return Err(error);
        }
        let body_len = self.buf.len() - frame_start - 4;
        let Some(len) = u32::try_from(body_len)
            .ok()
            .filter(|&len| len <= MAX_FRAME_BYTES)
        else {
            self.buf.truncate(frame_start);
            return Err(WireError::Protocol(format!(
                "encoded response ({body_len} bytes) exceeds the frame limit"
            )));
        };
        self.buf[frame_start..frame_start + 4].copy_from_slice(&len.to_le_bytes());
        Ok(())
    }

    /// Flushes every staged frame with one vectored write and resets the
    /// buffer (also on error — the connection is failing anyway).
    pub async fn flush(&mut self, stream: &NetStream) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let started = watchman_core::telemetry::now();
        let mut stalled = false;
        let result = {
            let bufs = [self.buf.as_slice()];
            let mut write = std::pin::pin!(stream.write_all_vectored(&bufs));
            poll_fn(|cx| match write.as_mut().poll(cx) {
                Poll::Pending => {
                    stalled = true;
                    Poll::Pending
                }
                ready => ready,
            })
            .await
        };
        self.buf.clear();
        // Only flushes the peer's receive window actually suspended count
        // as write stalls; the common one-poll flush records nothing.
        if stalled {
            watchman_core::telemetry::global()
                .session_write_stall_us
                .record(watchman_core::telemetry::elapsed_us(started));
        }
        result
    }
}

// ---------------------------------------------------------------------------
// Body encoding / decoding
// ---------------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// A bounds-checked cursor over a frame body.
struct BodyReader<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    fn new(body: &'a [u8]) -> Self {
        BodyReader { body, pos: 0 }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.body.len())
            .ok_or(WireError::Truncated { context })?;
        let slice = &self.body[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, context)?[0])
    }

    fn array<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N], WireError> {
        let bytes = *self.body[self.pos..]
            .first_chunk::<N>()
            .ok_or(WireError::Truncated { context })?;
        self.pos += N;
        Ok(bytes)
    }

    fn u16(&mut self, context: &'static str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array(context)?))
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array(context)?))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array(context)?))
    }

    fn f64(&mut self, context: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    fn bytes(&mut self, context: &'static str) -> Result<Vec<u8>, WireError> {
        let len = self.u32(context)? as usize;
        Ok(self.take(len, context)?.to_vec())
    }

    fn str(&mut self, context: &'static str) -> Result<&'a str, WireError> {
        let len = self.u32(context)? as usize;
        std::str::from_utf8(self.take(len, context)?).map_err(|_| WireError::InvalidUtf8)
    }

    fn string(&mut self, context: &'static str) -> Result<String, WireError> {
        self.str(context).map(str::to_owned)
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.body.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

const OP_GET: u8 = 1;
const OP_PEEK: u8 = 2;
const OP_STATS: u8 = 3;
const OP_INVALIDATE: u8 = 4;
// Opcode 5 moved capacity between shards until v6; it is never reused.
const OP_SHUTDOWN: u8 = 6;
// Opcode 7 was `SERVER_INFO` until v5; it is never reused.
const OP_METRICS: u8 = 8;
const OP_TRACE_DUMP: u8 = 9;

const STATUS_OK: u8 = 0;
const STATUS_ERROR: u8 = 1;
const STATUS_BUSY: u8 = 2;

/// Encodes the handshake hello body.
pub fn encode_hello() -> Vec<u8> {
    let mut out = Vec::with_capacity(6);
    out.extend_from_slice(&MAGIC);
    put_u16(&mut out, VERSION);
    out
}

/// Decodes a handshake hello body, returning the peer's version.
///
/// The caller decides how to treat a version mismatch ([`VERSION`] is
/// exact-match; see the module docs) — this only validates the magic and the
/// frame shape.
pub fn decode_hello(body: &[u8]) -> Result<u16, WireError> {
    let mut reader = BodyReader::new(body);
    if reader.take(4, "hello magic")? != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = reader.u16("hello version")?;
    reader.finish()?;
    Ok(version)
}

/// Encodes a request frame body.
pub fn encode_request(request_id: u64, request: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_request_into(&mut out, request_id, request);
    out
}

/// Encodes a request frame body into an existing buffer (appending), so
/// batched callers can stage many frames without per-frame allocations.
pub fn encode_request_into(out: &mut Vec<u8>, request_id: u64, request: &Request) {
    put_u64(out, request_id);
    match request {
        Request::Get(get) => {
            put_u8(out, OP_GET);
            put_str(out, &get.key);
            put_u64(out, get.timestamp_us);
            put_u64(out, get.result_bytes);
            put_u64(out, get.cost_blocks);
            put_u32(out, get.fetch_delay_us);
            put_u64(out, get.deadline_hint_us);
            put_u32(out, get.payload_prefix_cap);
        }
        Request::Peek { key } => {
            put_u8(out, OP_PEEK);
            put_str(out, key);
        }
        Request::Stats => put_u8(out, OP_STATS),
        Request::Invalidate { relation } => {
            put_u8(out, OP_INVALIDATE);
            put_str(out, relation);
        }
        Request::Shutdown => put_u8(out, OP_SHUTDOWN),
        Request::Metrics => put_u8(out, OP_METRICS),
        Request::TraceDump => put_u8(out, OP_TRACE_DUMP),
    }
}

/// Decodes a request frame body into `(request_id, request)`.
pub fn decode_request(body: &[u8]) -> Result<(u64, Request), WireError> {
    decode_request_as(body)
}

/// The request decoder, generic over how the request holds its text:
/// `String` copies it out of the frame, `&str` reads it in place — what a
/// session does, since it is done with the frame before it reads the next.
pub fn decode_request_as<'a, K: From<&'a str>>(
    body: &'a [u8],
) -> Result<(u64, Request<K>), WireError> {
    let mut reader = BodyReader::new(body);
    let request_id = reader.u64("request id")?;
    let opcode = reader.u8("opcode")?;
    let request = match opcode {
        OP_GET => Request::Get(GetRequest {
            key: reader.str("GET key")?.into(),
            timestamp_us: reader.u64("GET timestamp")?,
            result_bytes: reader.u64("GET result bytes")?,
            cost_blocks: reader.u64("GET cost")?,
            fetch_delay_us: reader.u32("GET fetch delay")?,
            deadline_hint_us: reader.u64("GET deadline hint")?,
            payload_prefix_cap: reader.u32("GET prefix cap")?,
        }),
        OP_PEEK => Request::Peek {
            key: reader.str("PEEK key")?.into(),
        },
        OP_STATS => Request::Stats,
        OP_INVALIDATE => Request::Invalidate {
            relation: reader.str("INVALIDATE relation")?.into(),
        },
        OP_SHUTDOWN => Request::Shutdown,
        OP_METRICS => Request::Metrics,
        OP_TRACE_DUMP => Request::TraceDump,
        opcode => return Err(WireError::UnknownOpcode { opcode, request_id }),
    };
    reader.finish()?;
    Ok((request_id, request))
}

/// Encodes a response frame body.
///
/// The only fallible case is `STATS` (its snapshot travels as JSON, which
/// cannot represent non-finite floats); everything else always encodes.
pub fn encode_response(request_id: u64, response: &Response) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(64);
    encode_response_into(&mut out, request_id, response)?;
    Ok(out)
}

/// Encodes a response frame body into an existing buffer (appending) — the
/// coalescing [`FrameWriter`] stages every response of a readiness burst
/// through this without per-frame allocations.  On error the buffer may
/// hold a partial body; callers that need atomicity truncate (the
/// `FrameWriter` does).
pub fn encode_response_into<P: AsRef<[u8]>>(
    out: &mut Vec<u8>,
    request_id: u64,
    response: &Response<P>,
) -> Result<(), WireError> {
    put_u64(out, request_id);
    match response {
        Response::Error { message } => {
            put_u8(out, STATUS_ERROR);
            put_str(out, message);
            return Ok(());
        }
        Response::Busy { retry_after_us } => {
            put_u8(out, STATUS_BUSY);
            put_u64(out, *retry_after_us);
            return Ok(());
        }
        _ => put_u8(out, STATUS_OK),
    }
    match response {
        Response::Get(get) => {
            put_u8(out, OP_GET);
            let source = match get.source {
                WireSource::Hit => 0,
                WireSource::Executed => 1,
                WireSource::Coalesced => 2,
                WireSource::Stale => 3,
            };
            put_u8(out, source);
            put_f64(out, get.cost_blocks);
            put_u64(out, get.full_len);
            put_bytes(out, get.prefix.as_ref());
            put_u64(out, get.service_us);
            put_u8(out, u8::from(get.deadline_exceeded));
        }
        Response::Peek { cached, size_bytes } => {
            put_u8(out, OP_PEEK);
            put_u8(out, u8::from(*cached));
            put_u64(out, *size_bytes);
        }
        Response::Stats(snapshot) => {
            put_u8(out, OP_STATS);
            let json = serde_json::to_string(snapshot)
                .map_err(|err| WireError::Protocol(format!("snapshot serialization: {err}")))?;
            put_str(out, &json);
        }
        Response::Invalidate {
            affected,
            invalidated,
        } => {
            put_u8(out, OP_INVALIDATE);
            put_u32(out, *affected);
            put_u32(out, *invalidated);
        }
        Response::Shutdown => put_u8(out, OP_SHUTDOWN),
        Response::Metrics(snapshot) => {
            put_u8(out, OP_METRICS);
            let json = serde_json::to_string(snapshot)
                .map_err(|err| WireError::Protocol(format!("metrics serialization: {err}")))?;
            put_str(out, &json);
        }
        Response::TraceDump(dump) => {
            put_u8(out, OP_TRACE_DUMP);
            let json = serde_json::to_string(dump)
                .map_err(|err| WireError::Protocol(format!("trace serialization: {err}")))?;
            put_str(out, &json);
        }
        Response::Error { .. } | Response::Busy { .. } => unreachable!("handled above"),
    }
    Ok(())
}

/// Decodes a response frame body into `(request_id, response)`.
pub fn decode_response(body: &[u8]) -> Result<(u64, Response), WireError> {
    let mut reader = BodyReader::new(body);
    let request_id = reader.u64("response id")?;
    let status = reader.u8("status")?;
    let response = match status {
        STATUS_ERROR => Response::Error {
            message: reader.string("error message")?,
        },
        STATUS_BUSY => Response::Busy {
            retry_after_us: reader.u64("busy retry-after")?,
        },
        STATUS_OK => {
            let opcode = reader.u8("response opcode")?;
            match opcode {
                OP_GET => {
                    let source = match reader.u8("GET source")? {
                        0 => WireSource::Hit,
                        1 => WireSource::Executed,
                        2 => WireSource::Coalesced,
                        3 => WireSource::Stale,
                        value => {
                            return Err(WireError::InvalidEnum {
                                field: "lookup source",
                                value,
                            })
                        }
                    };
                    Response::Get(GetResponse {
                        source,
                        cost_blocks: reader.f64("GET cost")?,
                        full_len: reader.u64("GET full length")?,
                        prefix: reader.bytes("GET prefix")?,
                        service_us: reader.u64("GET service time")?,
                        deadline_exceeded: reader.u8("GET deadline flag")? != 0,
                    })
                }
                OP_PEEK => Response::Peek {
                    cached: reader.u8("PEEK cached")? != 0,
                    size_bytes: reader.u64("PEEK size")?,
                },
                OP_STATS => {
                    let json = reader.string("STATS body")?;
                    let snapshot: StatsSnapshot = serde_json::from_str(&json)
                        .map_err(|err| WireError::Protocol(format!("snapshot parse: {err}")))?;
                    Response::Stats(snapshot)
                }
                OP_INVALIDATE => Response::Invalidate {
                    affected: reader.u32("INVALIDATE affected")?,
                    invalidated: reader.u32("INVALIDATE invalidated")?,
                },
                OP_SHUTDOWN => Response::Shutdown,
                OP_METRICS => {
                    let json = reader.string("METRICS body")?;
                    let snapshot: MetricsSnapshot = serde_json::from_str(&json)
                        .map_err(|err| WireError::Protocol(format!("metrics parse: {err}")))?;
                    Response::Metrics(snapshot)
                }
                OP_TRACE_DUMP => {
                    let json = reader.string("TRACE_DUMP body")?;
                    let dump: TraceDump = serde_json::from_str(&json)
                        .map_err(|err| WireError::Protocol(format!("trace parse: {err}")))?;
                    Response::TraceDump(dump)
                }
                opcode => return Err(WireError::UnknownOpcode { opcode, request_id }),
            }
        }
        value => {
            return Err(WireError::InvalidEnum {
                field: "response status",
                value,
            })
        }
    };
    reader.finish()?;
    Ok((request_id, response))
}

#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "tests play the blocking peer"
)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip_request(request: Request) {
        let body = encode_request(7, &request);
        let (id, back) = decode_request(&body).expect("request decodes");
        assert_eq!(id, 7);
        assert_eq!(back, request);
    }

    fn round_trip_response(response: Response) {
        let body = encode_response(9, &response).expect("response encodes");
        let (id, back) = decode_response(&body).expect("response decodes");
        assert_eq!(id, 9);
        assert_eq!(back, response);
    }

    #[test]
    fn hello_round_trips_and_rejects_bad_magic() {
        let hello = encode_hello();
        assert_eq!(decode_hello(&hello).unwrap(), VERSION);
        let mut bad = hello.clone();
        bad[0] = b'X';
        assert!(matches!(decode_hello(&bad), Err(WireError::BadMagic)));
        assert!(matches!(
            decode_hello(&hello[..3]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Get(GetRequest {
            key: "SELECT sum(x) FROM t".to_owned(),
            timestamp_us: 123_456,
            result_bytes: 4_096,
            cost_blocks: 9_000,
            fetch_delay_us: 1_500,
            deadline_hint_us: 50_000,
            payload_prefix_cap: 64,
        }));
        round_trip_request(Request::Peek {
            key: "q".to_owned(),
        });
        round_trip_request(Request::Stats);
        round_trip_request(Request::Invalidate {
            relation: "LINEITEM".to_owned(),
        });
        round_trip_request(Request::Shutdown);
        round_trip_request(Request::Metrics);
        round_trip_request(Request::TraceDump);
    }

    #[test]
    fn responses_round_trip() {
        let get = GetResponse {
            source: WireSource::Coalesced,
            cost_blocks: 1234.5,
            full_len: 99,
            prefix: vec![1, 2, 3],
            service_us: 777,
            deadline_exceeded: true,
        };
        round_trip_response(Response::Get(get.clone()));
        // A borrowed prefix stages the same bytes as an owned one.
        let borrowed = Response::Get(GetResponse {
            prefix: &get.prefix[..],
            source: get.source,
            cost_blocks: get.cost_blocks,
            full_len: get.full_len,
            service_us: get.service_us,
            deadline_exceeded: get.deadline_exceeded,
        });
        let (mut from_borrowed, mut from_owned) = (FrameWriter::new(), FrameWriter::new());
        from_borrowed.stage_response(9, &borrowed).unwrap();
        from_owned.stage_response(9, &Response::Get(get)).unwrap();
        assert_eq!(from_borrowed.buf, from_owned.buf);
        round_trip_response(Response::Peek {
            cached: true,
            size_bytes: 512,
        });
        round_trip_response(Response::Invalidate {
            affected: 3,
            invalidated: 2,
        });
        round_trip_response(Response::Shutdown);
        round_trip_response(Response::Error {
            message: "boom".to_owned(),
        });
        round_trip_response(Response::Get(GetResponse {
            source: WireSource::Stale,
            cost_blocks: 88.25,
            full_len: 42,
            prefix: vec![9],
            service_us: 13,
            deadline_exceeded: false,
        }));
        round_trip_response(Response::Busy {
            retry_after_us: 2_500,
        });
        round_trip_response(Response::Busy { retry_after_us: 0 });
    }

    #[test]
    fn telemetry_responses_round_trip() {
        use watchman_core::telemetry::{HistogramSnapshot, TraceEvent, METRICS_SCHEMA_VERSION};

        let mut histogram = HistogramSnapshot::empty();
        histogram.record(3);
        histogram.record(1_024);
        histogram.record(250_000);
        let mut snapshot = MetricsSnapshot {
            schema: METRICS_SCHEMA_VERSION,
            uptime_us: 1_234_567,
            counters: Default::default(),
            gauges: Default::default(),
            histograms: Default::default(),
        };
        snapshot.counters.insert("fetch_retries".to_owned(), 7);
        snapshot.gauges.insert("shard_count".to_owned(), 4);
        snapshot
            .histograms
            .insert("lookup_hit_us".to_owned(), histogram);
        round_trip_response(Response::Metrics(snapshot));

        round_trip_response(Response::TraceDump(TraceDump {
            schema: METRICS_SCHEMA_VERSION,
            recorded: 43,
            events: vec![TraceEvent {
                seq: 42,
                ts_us: 1_234_567,
                kind: "fetch_retry".to_owned(),
                key: 0xDEAD_BEEF,
                a: 2,
                b: 15_000,
            }],
        }));
        round_trip_response(Response::TraceDump(TraceDump {
            schema: METRICS_SCHEMA_VERSION,
            recorded: 0,
            events: Vec::new(),
        }));
    }

    #[test]
    fn telemetry_opcodes_use_the_v3_code_points() {
        // Opcode byte values are a protocol contract: METRICS is 8,
        // TRACE_DUMP is 9, both with empty request payloads.
        let metrics = encode_request(1, &Request::Metrics);
        assert_eq!(metrics[8], 8, "METRICS is opcode 8");
        assert_eq!(metrics.len(), 9, "METRICS request has no payload");
        let trace = encode_request(1, &Request::TraceDump);
        assert_eq!(trace[8], 9, "TRACE_DUMP is opcode 9");
        assert_eq!(trace.len(), 9, "TRACE_DUMP request has no payload");
    }

    #[test]
    fn stale_source_and_busy_status_use_the_v2_code_points() {
        // The wire byte values are a protocol contract: Stale is source 3,
        // BUSY is status 2 followed by the retry-after hint.
        let body = encode_response(
            1,
            &Response::Get(GetResponse {
                source: WireSource::Stale,
                cost_blocks: 0.0,
                full_len: 0,
                prefix: Vec::new(),
                service_us: 0,
                deadline_exceeded: false,
            }),
        )
        .unwrap();
        // id(8) | status(1) | opcode(1) | source(1).
        assert_eq!(body[8], 0, "OK status");
        assert_eq!(body[10], 3, "Stale is source code 3");

        let busy = encode_response(1, &Response::Busy { retry_after_us: 7 }).unwrap();
        assert_eq!(busy[8], 2, "BUSY is status code 2");
        assert_eq!(u64::from_le_bytes(busy[9..17].try_into().unwrap()), 7);
    }

    #[test]
    fn truncated_payloads_error_instead_of_panicking() {
        let body = encode_request(
            1,
            &Request::Peek {
                key: "abc".to_owned(),
            },
        );
        for cut in 0..body.len() {
            let result = decode_request(&body[..cut]);
            assert!(
                matches!(result, Err(WireError::Truncated { .. })),
                "cut at {cut} must report truncation, got {result:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = encode_request(1, &Request::Stats);
        body.push(0xFF);
        assert!(matches!(
            decode_request(&body),
            Err(WireError::TrailingBytes)
        ));
    }

    #[test]
    fn unknown_opcode_carries_the_request_id() {
        // 5 (the retired capacity transfer) and 7 (the retired
        // `SERVER_INFO`) stay unknown.
        for unknown in [5, 7, 200] {
            let mut body = Vec::new();
            put_u64(&mut body, 55);
            put_u8(&mut body, unknown);
            match decode_request(&body) {
                Err(WireError::UnknownOpcode { opcode, request_id }) => {
                    assert_eq!(opcode, unknown);
                    assert_eq!(request_id, 55);
                }
                other => panic!("expected UnknownOpcode, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_length_prefix_fails_the_stream() {
        let mut stream: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF];
        assert!(matches!(
            read_frame(&mut stream),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, b"hello").unwrap();
        write_frame(&mut buffer, b"").unwrap();
        let mut reader: &[u8] = &buffer;
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"");
        assert!(read_frame(&mut reader).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn eof_inside_a_frame_is_truncation() {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, b"hello").unwrap();
        buffer.truncate(6); // header + 2 of 5 body bytes
        let mut reader: &[u8] = &buffer;
        assert!(matches!(
            read_frame(&mut reader),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn async_frames_interoperate_with_the_blocking_codec() {
        use std::io::Write as _;
        use watchman_core::runtime::net::TcpListener as NetListener;
        use watchman_core::runtime::{block_on, Runtime};

        let runtime = Runtime::with_workers(2);
        let listener = NetListener::bind(&runtime, "127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");

        // Async side: read two frames (the second empty), echo the first
        // back reversed, then observe the clean EOF.
        let server = runtime.spawn(async move {
            let (stream, _) = listener.accept().await.expect("accept");
            let mut reader = FrameReader::new();
            let first = reader
                .next_frame(&stream)
                .await
                .expect("first frame")
                .expect("not eof")
                .to_vec();
            let second = reader
                .next_frame(&stream)
                .await
                .expect("second frame")
                .expect("not eof");
            assert_eq!(second, b"");
            let reversed: Vec<u8> = first.iter().rev().copied().collect();
            let mut writer = FrameWriter::new();
            writer.stage(&reversed).expect("stage");
            writer.flush(&stream).await.expect("write");
            assert!(
                reader.next_frame(&stream).await.expect("eof").is_none(),
                "peer close between frames is a clean EOF"
            );
        });

        // Blocking side: the existing sync codec on a std stream.
        let mut client = std::net::TcpStream::connect(addr).expect("connect");
        write_frame(&mut client, b"watchman").unwrap();
        write_frame(&mut client, b"").unwrap();
        client.flush().unwrap();
        let echoed = read_frame(&mut client).unwrap().expect("reply");
        assert_eq!(echoed, b"namhctaw");
        drop(client);
        block_on(server).expect("server task");
    }

    /// Drains `bytes` through a [`FrameReader`] fed in chunks whose sizes
    /// `next_chunk` picks, returning the decoded frames plus the terminal
    /// outcome (`None` = clean EOF) in the same shape as
    /// [`unbuffered_replay`] so the two can be compared byte for byte.
    fn buffered_replay(
        bytes: &[u8],
        mut next_chunk: impl FnMut() -> usize,
    ) -> (Vec<Vec<u8>>, Option<String>) {
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        let mut pos = 0;
        loop {
            match reader.try_next_fed_frame() {
                Ok(Some(frame)) => frames.push(frame.to_vec()),
                Ok(None) => {
                    if pos == bytes.len() {
                        if reader.buffered() == 0 {
                            return (frames, None);
                        }
                        let error = WireError::Truncated {
                            context: reader.truncation_context(),
                        };
                        return (frames, Some(format!("{error:?}")));
                    }
                    let n = next_chunk().clamp(1, bytes.len() - pos);
                    reader.feed(&bytes[pos..pos + n]);
                    pos += n;
                }
                Err(error) => return (frames, Some(format!("{error:?}"))),
            }
        }
    }

    /// The reference: the pre-existing unbuffered codec over the same bytes.
    fn unbuffered_replay(bytes: &[u8]) -> (Vec<Vec<u8>>, Option<String>) {
        let mut reader: &[u8] = bytes;
        let mut frames = Vec::new();
        loop {
            match read_frame(&mut reader) {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => return (frames, None),
                Err(error) => return (frames, Some(format!("{error:?}"))),
            }
        }
    }

    /// A `Read` over fixed bytes that hands out at most `next_chunk()` bytes
    /// per call (and never more than the caller has room for) and counts
    /// the calls — a socket whose `recv` sizes the test scripts.
    struct ScriptedRead<'a, F> {
        bytes: &'a [u8],
        next_chunk: F,
        reads: usize,
    }

    impl<F: FnMut() -> usize> Read for ScriptedRead<'_, F> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let n = (self.next_chunk)()
                .max(1)
                .min(buf.len())
                .min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// The client's read path over `bytes`: frames and terminal outcome in
    /// the shape of [`unbuffered_replay`], plus how many reads it took.
    fn blocking_replay(
        bytes: &[u8],
        next_chunk: impl FnMut() -> usize,
    ) -> (Vec<Vec<u8>>, Option<String>, usize) {
        let mut source = ScriptedRead {
            bytes,
            next_chunk,
            reads: 0,
        };
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        let outcome = loop {
            match reader.next_frame_from(&mut source) {
                Ok(Some(frame)) => frames.push(frame.to_vec()),
                Ok(None) => break None,
                Err(error) => break Some(format!("{error:?}")),
            }
        };
        (frames, outcome, source.reads)
    }

    #[test]
    fn blocking_reader_matches_the_unbuffered_codec_at_every_split() {
        // Responses of three shapes, one of them larger than READ_CHUNK.
        let mut stream = Vec::new();
        for (id, prefix_len) in [(0u64, 0usize), (1, 5), (2, READ_CHUNK + 100), (3, 0)] {
            let response = Response::Get(GetResponse {
                source: WireSource::Hit,
                cost_blocks: 3.0,
                full_len: prefix_len as u64,
                prefix: (0..=255u8).cycle().take(prefix_len).collect(),
                service_us: id,
                deadline_exceeded: false,
            });
            write_frame(&mut stream, &encode_response(id, &response).unwrap()).unwrap();
        }
        let expected = unbuffered_replay(&stream);
        assert_eq!(expected.0.len(), 4);
        // One read of `split` bytes, then the rest: every byte offset of
        // the stream is the split point once.
        for split in 1..stream.len() {
            let mut first = true;
            let chunk = move || {
                if std::mem::take(&mut first) {
                    split
                } else {
                    usize::MAX
                }
            };
            let (frames, outcome, _) = blocking_replay(&stream, chunk);
            assert_eq!((frames, outcome), expected.clone(), "split at {split}");
        }
        for chunk in [1, 2, 3, 5, 4_096, usize::MAX] {
            let (frames, outcome, _) = blocking_replay(&stream, || chunk);
            assert_eq!((frames, outcome), expected.clone(), "chunk size {chunk}");
        }
    }

    #[test]
    fn blocking_reader_reports_eof_and_oversize_like_the_unbuffered_codec() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"good").unwrap();
        write_frame(&mut stream, b"truncated body").unwrap();
        // EOF inside the second frame's header (cut 10) and body (cut 14).
        for (cut, context) in [(10, "frame header"), (14, "frame body")] {
            let (frames, outcome, _) = blocking_replay(&stream[..cut], || 3);
            let expected = unbuffered_replay(&stream[..cut]);
            assert_eq!((frames, outcome.clone()), expected, "cut at {cut}");
            assert!(outcome.unwrap().contains(context), "cut at {cut}");
        }
        // An oversized prefix fails on its four bytes: nothing past the
        // chunk already requested is read, and no room is made for the body.
        let mut stream = Vec::new();
        write_frame(&mut stream, b"good").unwrap();
        stream.extend_from_slice(&MAX_FRAME_BYTES.saturating_add(1).to_le_bytes());
        stream.extend_from_slice(&vec![0u8; 3 * READ_CHUNK]);
        let mut source = ScriptedRead {
            bytes: &stream,
            next_chunk: || 12,
            reads: 0,
        };
        let mut reader = FrameReader::new();
        assert_eq!(
            reader.next_frame_from(&mut source).unwrap().unwrap(),
            b"good"
        );
        assert!(matches!(
            reader.next_frame_from(&mut source),
            Err(WireError::FrameTooLarge { .. })
        ));
        assert_eq!(source.reads, 1, "the header was in the first read");
        assert!(reader.buf.len() <= 2 * READ_CHUNK, "no body was buffered");
    }

    #[test]
    fn a_depth_32_burst_of_small_responses_costs_at_most_two_reads() {
        let mut stream = Vec::new();
        for id in 0..32u64 {
            let response = Response::Get(GetResponse {
                source: WireSource::Hit,
                cost_blocks: 1.0,
                full_len: 4_096,
                prefix: Vec::new(),
                service_us: 1,
                deadline_exceeded: false,
            });
            write_frame(&mut stream, &encode_response(id, &response).unwrap()).unwrap();
        }
        let mut source = ScriptedRead {
            bytes: &stream,
            next_chunk: || usize::MAX,
            reads: 0,
        };
        let mut reader = FrameReader::new();
        for id in 0..32u64 {
            let body = reader.next_frame_from(&mut source).unwrap().unwrap();
            assert_eq!(decode_response(body).unwrap().0, id);
        }
        // The unbuffered path paid two reads per response: 64.
        assert!(source.reads <= 2, "{} reads for one burst", source.reads);
    }

    #[test]
    fn buffered_reader_decodes_across_every_chunk_size() {
        // Several frames including an empty one and a large one, delivered
        // 1..N bytes at a time: every split point must yield the same
        // frames and the same clean EOF.
        let bodies: Vec<Vec<u8>> = vec![
            b"first".to_vec(),
            Vec::new(),
            (0..=255u8).cycle().take(40_000).collect(),
            b"last".to_vec(),
        ];
        let mut stream = Vec::new();
        for body in &bodies {
            write_frame(&mut stream, body).unwrap();
        }
        for chunk in 1..64 {
            let (frames, outcome) = buffered_replay(&stream, || chunk);
            assert_eq!(frames, bodies, "chunk size {chunk}");
            assert_eq!(outcome, None, "chunk size {chunk}");
        }
    }

    #[test]
    fn buffered_reader_reports_oversize_from_the_header_alone() {
        // An oversized length prefix delivered one byte at a time must fail
        // exactly like the unbuffered path, without ever buffering a body.
        let mut stream = Vec::new();
        write_frame(&mut stream, b"good").unwrap();
        stream.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        stream.extend_from_slice(&[0u8; 64]); // body bytes that must not be read
        let (frames, outcome) = buffered_replay(&stream, || 1);
        let (expected_frames, expected_outcome) = unbuffered_replay(&stream);
        assert_eq!(frames, expected_frames);
        assert_eq!(outcome, expected_outcome);
        assert!(outcome.unwrap().contains("FrameTooLarge"));
    }

    proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(192))]

        /// Differential: across random frame sequences, random chunk
        /// splits, and random corruption (truncation, oversized prefix),
        /// the buffered reader yields byte-identical frames and the same
        /// terminal error as the unbuffered codec.
        #[test]
        fn buffered_reader_matches_unbuffered_codec(
            bodies in proptest::collection::vec(
                proptest::collection::vec(0u8..255, 0..40),
                0..6,
            ),
            chunk_seed in 1u64..u64::MAX,
            mutation in 0u8..4,
        ) {
            let mut stream = Vec::new();
            for body in &bodies {
                write_frame(&mut stream, body).unwrap();
            }
            match mutation {
                // 0: clean stream.
                1 => {
                    // Truncate somewhere (possibly mid-header, mid-body).
                    let cut = (chunk_seed as usize) % (stream.len() + 1);
                    stream.truncate(cut);
                }
                2 => {
                    // Append an oversized length prefix.
                    stream.extend_from_slice(&(MAX_FRAME_BYTES + 7).to_le_bytes());
                }
                3 => {
                    // Append a partial header (EOF mid-header).
                    stream.extend_from_slice(&[9, 0]);
                }
                _ => {}
            }
            // Chunk sizes from a splitmix-style generator, 1..=17 bytes.
            let mut state = chunk_seed;
            let next_chunk = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 17) as usize + 1
            };
            let (buffered, buffered_outcome) = buffered_replay(&stream, next_chunk);
            let (unbuffered, unbuffered_outcome) = unbuffered_replay(&stream);
            prop_assert_eq!(buffered, unbuffered);
            prop_assert_eq!(buffered_outcome, unbuffered_outcome);
        }
    }

    #[test]
    fn buffered_reader_drains_sockets_and_sees_clean_eof() {
        use std::io::Write as _;
        use watchman_core::runtime::net::TcpListener as NetListener;
        use watchman_core::runtime::{block_on, Runtime};

        let runtime = Runtime::with_workers(2);
        let listener = NetListener::bind(&runtime, "127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");

        let server = runtime.spawn(async move {
            let (stream, _) = listener.accept().await.expect("accept");
            let mut reader = FrameReader::new();
            let mut frames = Vec::new();
            while let Some(frame) = reader.next_frame(&stream).await.expect("frame") {
                frames.push(frame.to_vec());
            }
            frames
        });

        // Dribble three frames a byte at a time: the buffered reader must
        // reassemble them exactly and then observe the clean EOF.
        let mut stream_bytes = Vec::new();
        write_frame(&mut stream_bytes, b"alpha").unwrap();
        write_frame(&mut stream_bytes, b"").unwrap();
        write_frame(&mut stream_bytes, b"gamma").unwrap();
        let mut client = std::net::TcpStream::connect(addr).expect("connect");
        for byte in &stream_bytes {
            client.write_all(std::slice::from_ref(byte)).unwrap();
            client.flush().unwrap();
        }
        drop(client);
        let frames = block_on(server).expect("server task");
        assert_eq!(
            frames,
            vec![b"alpha".to_vec(), Vec::new(), b"gamma".to_vec()]
        );
    }

    #[test]
    fn frame_writer_coalesces_frames_the_blocking_codec_reads() {
        use watchman_core::runtime::net::TcpListener as NetListener;
        use watchman_core::runtime::{block_on, Runtime};

        let runtime = Runtime::with_workers(1);
        let listener = NetListener::bind(&runtime, "127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");

        let server = runtime.spawn(async move {
            let (stream, _) = listener.accept().await.expect("accept");
            let mut writer = FrameWriter::new();
            writer.stage(&encode_hello()).expect("stage hello");
            for id in 0..3u64 {
                let response: Response = Response::Peek {
                    cached: id % 2 == 0,
                    size_bytes: id * 100,
                };
                writer
                    .stage_response(id, &response)
                    .expect("stage response");
            }
            assert!(!writer.is_empty());
            writer.flush(&stream).await.expect("flush burst");
            assert!(writer.is_empty(), "flush resets the staging buffer");
        });

        let mut client = std::net::TcpStream::connect(addr).expect("connect");
        let hello = read_frame(&mut client).unwrap().expect("hello frame");
        assert_eq!(decode_hello(&hello).unwrap(), VERSION);
        for id in 0..3u64 {
            let body = read_frame(&mut client).unwrap().expect("response frame");
            let (got_id, response) = decode_response(&body).expect("decodes");
            assert_eq!(got_id, id);
            assert_eq!(
                response,
                Response::Peek {
                    cached: id % 2 == 0,
                    size_bytes: id * 100,
                }
            );
        }
        block_on(server).expect("server task");
    }

    #[test]
    fn frame_writer_rejects_oversized_bodies_without_staging() {
        let mut writer = FrameWriter::new();
        let oversized = vec![0u8; MAX_FRAME_BYTES as usize + 1];
        assert!(writer.stage(&oversized).is_err());
        assert!(
            writer.is_empty(),
            "failed stage must not leave bytes behind"
        );
        writer.stage(b"ok").expect("normal frame stages");
        assert_eq!(writer.staged_bytes(), 4 + 2);
    }

    #[test]
    fn async_oversized_prefix_fails_before_allocating() {
        use std::io::Write as _;
        use watchman_core::runtime::net::TcpListener as NetListener;
        use watchman_core::runtime::{block_on, Runtime};

        let runtime = Runtime::with_workers(1);
        let listener = NetListener::bind(&runtime, "127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = runtime.spawn(async move {
            let (stream, _) = listener.accept().await.expect("accept");
            let mut reader = FrameReader::new();
            reader
                .next_frame(&stream)
                .await
                .map(|frame| frame.is_some())
        });
        let mut client = std::net::TcpStream::connect(addr).expect("connect");
        client.write_all(&[0xFF, 0xFF, 0xFF, 0xFF]).unwrap();
        assert!(matches!(
            block_on(server).expect("server task"),
            Err(WireError::FrameTooLarge { .. })
        ));
    }
}
