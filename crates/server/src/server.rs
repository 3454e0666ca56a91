//! `watchmand`: the WATCHMAN cache server.
//!
//! The server front end exposes one shared [`Watchman`] engine to many
//! network clients — the multiuser deployment of paper §3, with the network
//! in place of in-process linkage:
//!
//! * an **accept task** on the engine's runtime awaits readiness on the
//!   listening socket and spawns one **session task** per connection —
//!   sessions are tasks, not threads, so a thousand idle connections cost
//!   a thousand parked futures, not a thousand stacks;
//! * session tasks decode request frames ([`crate::wire`]) over the
//!   runtime's reactor-driven streams and execute lookups through
//!   [`Watchman::try_get_or_execute_async`] — the one `GET` path, whose
//!   fetch fails only when an installed [`FaultPlan`] says so: **hits never
//!   suspend**, and misses coalesce across *connections* through the
//!   engine's single-flight cells (two clients missing on the same query
//!   execute it once);
//! * admin opcodes (`STATS`, `PEEK`, `INVALIDATE`, `SHUTDOWN`, `METRICS`,
//!   `TRACE_DUMP`) map onto the engine's snapshot, non-mutating probe,
//!   coherence and introspection entry points.
//!
//! ## Failure isolation
//!
//! A malformed or truncated frame fails **its own connection only**: the
//! session task closes the socket and every other session keeps running.
//! Each request's handling future is polled under `catch_unwind`, so an
//! internal panic surfaces as an error *response* on that connection
//! instead of taking a worker (or the server) down.
//!
//! ## Shutdown
//!
//! `SHUTDOWN` (or [`ServerHandle::shutdown`]) fires a shutdown signal that
//! every parked task observes through its registered waker — there is no
//! polling tick.  Idle sessions close at their next frame boundary; a
//! session mid-frame or mid-request gets `DRAIN_GRACE` to finish, after
//! which the supervisor cancels the remaining tasks by shutting the runtime
//! down.  [`ServerHandle::join`] returns once the drain completes.

use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::thread;
use std::time::Duration;

use bytes::Bytes;
use watchman_core::clock::Timestamp;
use watchman_core::coherence::DependencyObserver;
use watchman_core::engine::{FailureConfig, LookupSource, PolicyKind, StatsSnapshot, Watchman};
use watchman_core::key::{QueryKey, Signature};
use watchman_core::runtime::net::{FaultInjector, TcpListener, TcpStream};
use watchman_core::runtime::{block_on, Runtime};
use watchman_core::sync::Mutex;
use watchman_core::telemetry::{self, MetricsSnapshot, TraceKind};
use watchman_core::value::{CachePayload, ExecutionCost};

use crate::fault::FaultPlan;
use crate::wire::{self, GetRequest, GetResponse, Request, Response, WireError, WireSource};

use std::future::{poll_fn, Future};

/// Hard cap on the retrieved-set size a single `GET` may declare; larger
/// requests are answered with an error instead of materializing the payload
/// (defensive: a corrupt or hostile `result_bytes` must not OOM the server).
pub const MAX_RESULT_BYTES: u64 = 64 << 20;

// The payload-prefix clamp in the GET path relies on this ordering: a
// clamped prefix plus its response header fits one frame, and no frame can
// carry more than a GET may declare.
const _: () = assert!(
    wire::MAX_PREFIX_BYTES < wire::MAX_FRAME_BYTES
        && wire::MAX_FRAME_BYTES as u64 <= MAX_RESULT_BYTES
);

/// Back-off before retrying a failed `accept` (EMFILE, transient network
/// errors) so the accept task does not spin.
const ACCEPT_RETRY_TICK: Duration = Duration::from_millis(25);

/// How long a drain waits for in-flight sessions (a frame mid-arrival, a
/// request mid-execution) before the supervisor cancels the stragglers.
/// Bounds [`ServerHandle::join`]: a client stalled mid-frame (one byte of a
/// length prefix, then silence) must not hold the whole server's shutdown
/// hostage.
const DRAIN_GRACE: Duration = Duration::from_secs(1);

/// The payload type the server caches: real bytes, deterministically
/// synthesized from the query signature (the simulated warehouse's stand-in
/// for a materialized retrieved set).
pub type ServerPayload = Bytes;

/// Configures [`serve`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Number of engine shards.
    pub shards: usize,
    /// Replacement/admission policy of every shard.
    pub policy: PolicyKind,
    /// Total cache capacity in bytes.
    pub capacity_bytes: u64,
    /// Worker count of the engine runtime — the execution multiprogramming
    /// level (each in-flight miss occupies a worker for its duration).
    /// Session tasks share this pool; they suspend while waiting on the
    /// network, so idle connections occupy no worker.
    pub runtime_workers: usize,
    /// Failure-domain configuration handed to the engine: fetch retry
    /// policy, circuit breaker, stale serving.  Every
    /// `GET` runs inside it, but only a fetch error engages it, and only an
    /// installed [`fault_plan`](Self::fault_plan) produces those.
    pub failure: FailureConfig,
    /// Maximum `GET`s allowed in flight across every session before the
    /// server sheds with `BUSY` + a retry-after hint.  `0` (the default)
    /// disables the admission gate entirely.
    pub max_inflight: usize,
    /// How long a session may stall *mid-frame* before the server evicts it
    /// (the slow-loris defence).  `None` (the default) keeps the seed
    /// behavior: a stalled peer is only bounded by shutdown's drain grace.
    pub read_deadline: Option<Duration>,
    /// Deterministic fault plan.  `Some` makes every `GET`'s fetch consult
    /// the plan's fetch schedule (an empty plan never fails one — that is
    /// what the byte-identical replay test exercises) and installs the
    /// plan's wire schedule on every accepted session stream.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards: 4,
            policy: PolicyKind::LNC_RA,
            capacity_bytes: 64 << 20,
            runtime_workers: 4,
            failure: FailureConfig::default(),
            max_inflight: 0,
            read_deadline: None,
            fault_plan: None,
        }
    }
}

/// Why the server could not start.
#[derive(Debug)]
pub enum ServerError {
    /// Binding the listening socket failed.
    Bind {
        /// The address that could not be bound.
        addr: String,
        /// The underlying socket error.
        source: io::Error,
    },
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Bind { addr, source } => write!(f, "cannot bind {addr}: {source}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Bind { source, .. } => Some(source),
        }
    }
}

type RelationResolver = fn(&QueryKey) -> Vec<String>;

/// Extracts the base relations a query reads with a FROM-clause heuristic:
/// the identifiers between `FROM` and the next clause keyword, uppercased.
/// Good enough for the synthetic warehouse's templates; a real front end
/// would consult its query plans (the engine takes any resolver).
fn resolve_relations(key: &QueryKey) -> Vec<String> {
    let mut relations = Vec::new();
    let mut in_from = false;
    for token in key.text().split('\u{1}') {
        if token.eq_ignore_ascii_case("from") {
            in_from = true;
            continue;
        }
        if in_from {
            if matches!(
                token.to_ascii_uppercase().as_str(),
                "WHERE" | "GROUP" | "ORDER" | "HAVING" | "LIMIT" | "JOIN" | "ON"
            ) {
                break;
            }
            let name: String = token
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect::<String>()
                .to_ascii_uppercase();
            if !name.is_empty() {
                relations.push(name);
            }
        }
    }
    relations
}

/// Waker bookkeeping of [`ShutdownSignal`]: one slot per long-lived waiter
/// (the accept task, the supervisor, every session), so re-polling replaces
/// the waiter's waker in place instead of growing a list without bound.
struct ShutdownWakers {
    slots: Vec<Option<Waker>>,
    free: Vec<usize>,
}

/// A one-shot broadcast: tasks park on [`poll_wait`](Self::poll_wait) and
/// every registered waker fires exactly once when [`fire`](Self::fire) is
/// called.  This replaces the old 25 ms idle tick — an idle session wakes
/// because the signal wakes it, not because it polled a flag on a timer.
struct ShutdownSignal {
    fired: AtomicBool,
    wakers: Mutex<ShutdownWakers>,
}

impl ShutdownSignal {
    fn new() -> Self {
        ShutdownSignal {
            fired: AtomicBool::new(false),
            wakers: Mutex::new(ShutdownWakers {
                slots: Vec::new(),
                free: Vec::new(),
            }),
        }
    }

    fn fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }

    /// Claims a waker slot for one long-lived waiter.
    fn register_slot(&self) -> usize {
        let mut wakers = self.wakers.lock();
        match wakers.free.pop() {
            Some(slot) => slot,
            None => {
                wakers.slots.push(None);
                wakers.slots.len() - 1
            }
        }
    }

    fn release_slot(&self, slot: usize) {
        let mut wakers = self.wakers.lock();
        wakers.slots[slot] = None;
        wakers.free.push(slot);
    }

    /// Resolves once the signal has fired; otherwise parks the caller's
    /// waker in its slot.  The fired re-check under the lock closes the race
    /// with a concurrent [`fire`](Self::fire) (fire takes the same lock to
    /// drain the slots, so a waker registered under the lock is never lost).
    fn poll_wait(&self, slot: usize, cx: &mut Context<'_>) -> Poll<()> {
        if self.fired() {
            return Poll::Ready(());
        }
        let mut wakers = self.wakers.lock();
        if self.fired() {
            return Poll::Ready(());
        }
        let entry = &mut wakers.slots[slot];
        match entry {
            Some(existing) if existing.will_wake(cx.waker()) => {}
            _ => *entry = Some(cx.waker().clone()),
        }
        Poll::Pending
    }

    /// Fires the signal (idempotent) and wakes every parked waiter.  Wakes
    /// run after the lock drops.
    fn fire(&self) {
        if self.fired.swap(true, Ordering::SeqCst) {
            return;
        }
        let woken: Vec<Waker> = {
            let mut wakers = self.wakers.lock();
            wakers.slots.iter_mut().filter_map(Option::take).collect()
        };
        for waker in woken {
            waker.wake();
        }
    }
}

/// The state every session task shares.
struct Shared {
    engine: Watchman<ServerPayload>,
    runtime: Arc<Runtime>,
    deps: Arc<DependencyObserver<RelationResolver>>,
    shutdown: ShutdownSignal,
    /// Live session count; the supervisor drains until it reaches zero.
    sessions: AtomicUsize,
    workers: usize,
    addr: SocketAddr,
    /// Admission-gate capacity ([`ServerConfig::max_inflight`]; 0 = off).
    max_inflight: usize,
    /// `GET`s currently holding an admission permit.
    inflight: AtomicUsize,
    /// Requests shed with `BUSY` (admission gate full or deadline judged
    /// unmeetable): the one count of sheds, folded into `STATS` as
    /// `StatsSnapshot::sheds` and into `METRICS` as `server.sheds` — sheds
    /// never reach the engine, so the engine cannot count them.
    sheds: AtomicU64,
    /// EWMA of `GET` service time (α = 1/8), held as [`EWMA_SCALE`] × µs
    /// (see [`ewma_step`]): the basis of the `BUSY` retry-after hint and of
    /// deadline-aware shedding.
    service_ewma_scaled: AtomicU64,
    /// Mid-frame read deadline ([`ServerConfig::read_deadline`]).
    read_deadline: Option<Duration>,
    /// Installed fault plan, if any.
    fault: Option<Arc<FaultPlan>>,
    /// Accept-order connection ids for the fault plan's wire schedule.
    conn_seq: AtomicU64,
}

/// Owns one session's slice of the shared bookkeeping (the live-session
/// count and its shutdown waker slot).  Dropping the guard releases both —
/// including when the session task is *cancelled* rather than run to
/// completion, since cancelling a task drops its future.
struct SessionGuard {
    shared: Arc<Shared>,
    slot: usize,
    /// Accept-order connection id, echoed in the open/close trace events.
    conn: u64,
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        self.shared.shutdown.release_slot(self.slot);
        let remaining = self.shared.sessions.fetch_sub(1, Ordering::SeqCst) - 1;
        telemetry::global().recorder.record(
            TraceKind::SessionClose,
            0,
            self.conn,
            remaining as u64,
        );
    }
}

/// A handle to a running server.
///
/// Dropping the handle shuts the server down and waits for it to drain.
pub struct ServerHandle {
    shared: Arc<Shared>,
    thread: Option<thread::JoinHandle<()>>,
}

impl fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.shared.addr)
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The address the server is listening on (with the ephemeral port
    /// resolved).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A handle to the served engine — tests and embedders can inspect (or
    /// pre-warm) the cache the network clients see.
    pub fn engine(&self) -> Watchman<ServerPayload> {
        self.shared.engine.clone()
    }

    /// Initiates shutdown without waiting (idempotent).
    pub fn shutdown(&self) {
        self.shared.shutdown.fire();
    }

    /// Shuts down and waits for the accept task and every session task to
    /// drain.
    pub fn join(mut self) {
        self.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }

    /// Blocks until the server exits on its own (a client `SHUTDOWN`
    /// opcode), without initiating shutdown from this side.
    pub fn wait(mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Builds the engine, binds the listener, spawns the accept task on the
/// engine's runtime and the supervisor thread that drains on shutdown.
pub fn serve(config: ServerConfig) -> Result<ServerHandle, ServerError> {
    let deps: Arc<DependencyObserver<RelationResolver>> = Arc::new(DependencyObserver::new(
        resolve_relations as RelationResolver,
    ));
    let engine: Watchman<ServerPayload> = Watchman::builder()
        .shards(config.shards)
        .policy(config.policy)
        .capacity_bytes(config.capacity_bytes)
        .runtime_workers(config.runtime_workers)
        .failure(config.failure.clone())
        .observer(deps.clone())
        .build();
    let runtime = engine.runtime();

    // The listener registers with the runtime's reactor at bind time (this
    // also creates the reactor on first use; an idle worker drives it).
    let listener =
        TcpListener::bind(&runtime, &config.addr).map_err(|source| ServerError::Bind {
            addr: config.addr.clone(),
            source,
        })?;
    let addr = listener.local_addr().map_err(|source| ServerError::Bind {
        addr: config.addr.clone(),
        source,
    })?;
    let shared = Arc::new(Shared {
        engine,
        runtime: Arc::clone(&runtime),
        deps,
        shutdown: ShutdownSignal::new(),
        sessions: AtomicUsize::new(0),
        workers: config.runtime_workers.max(1),
        addr,
        max_inflight: config.max_inflight,
        inflight: AtomicUsize::new(0),
        sheds: AtomicU64::new(0),
        service_ewma_scaled: AtomicU64::new(0),
        read_deadline: config.read_deadline,
        fault: config.fault_plan,
        conn_seq: AtomicU64::new(0),
    });

    let accept_slot = shared.shutdown.register_slot();
    let accept_shared = Arc::clone(&shared);
    drop(runtime.spawn(accept_task(listener, accept_shared, accept_slot)));

    let supervisor_slot = shared.shutdown.register_slot();
    let supervisor_shared = Arc::clone(&shared);
    #[expect(
        clippy::expect_used,
        reason = "a host that cannot spawn one thread cannot serve"
    )]
    let thread = thread::Builder::new()
        .name("watchmand-supervisor".to_owned())
        .spawn(move || supervise(supervisor_shared, supervisor_slot))
        .expect("spawn supervisor thread");

    Ok(ServerHandle {
        shared,
        thread: Some(thread),
    })
}

/// The supervisor: parks until the shutdown signal fires, gives in-flight
/// sessions [`DRAIN_GRACE`] to finish, then cancels whatever remains (a
/// connection stalled mid-frame, a fetch still executing) by shutting the
/// runtime down.  Runs on its own OS thread because it outlives the worker
/// pool it tears down.
fn supervise(shared: Arc<Shared>, slot: usize) {
    block_on(poll_fn(|cx| shared.shutdown.poll_wait(slot, cx)));
    let deadline = telemetry::now() + DRAIN_GRACE;
    while shared.sessions.load(Ordering::SeqCst) > 0 && telemetry::now() < deadline {
        thread::sleep(Duration::from_millis(5));
    }
    // Cancels the accept task (closing the listening socket) and any
    // straggler sessions, joins the workers.
    shared.runtime.shutdown();
}

/// The accept task: awaits readiness on the listening socket, spawning one
/// detached session task per connection, until the shutdown signal fires.
/// Dropping the listener on exit closes the listening socket, so new
/// connections are refused as soon as the drain starts.
async fn accept_task(listener: TcpListener, shared: Arc<Shared>, slot: usize) {
    loop {
        // Shutdown wins over a pending connection: once draining, the
        // backlog dies with the listener.
        let accepted = poll_fn(|cx| {
            if shared.shutdown.poll_wait(slot, cx).is_ready() {
                return Poll::Ready(None);
            }
            listener.poll_accept(cx).map(Some)
        })
        .await;
        match accepted {
            None => break,
            Some(Ok((mut stream, _peer))) => {
                let conn = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
                if let Some(plan) = &shared.fault {
                    let injector: Arc<dyn FaultInjector> = Arc::clone(plan) as _;
                    stream.install_fault_injector(injector, conn);
                }
                let session_slot = shared.shutdown.register_slot();
                let live = shared.sessions.fetch_add(1, Ordering::SeqCst) + 1;
                telemetry::global()
                    .recorder
                    .record(TraceKind::SessionOpen, 0, conn, live as u64);
                // The guard travels *inside* the spawned future: if the
                // runtime drops the task without polling it (a shutdown
                // race), dropping the future still releases the count and
                // the slot.
                let guard = SessionGuard {
                    shared: Arc::clone(&shared),
                    slot: session_slot,
                    conn,
                };
                drop(shared.runtime.spawn(serve_session(stream, guard)));
            }
            Some(Err(_)) if shared.shutdown.fired() => break,
            Some(Err(_)) => {
                // Transient accept failure (EMFILE under a connection
                // storm): back off instead of spinning.
                shared.runtime.sleep(ACCEPT_RETRY_TICK).await;
            }
        }
    }
    shared.shutdown.release_slot(slot);
}

/// How one `recv` into a session's [`FrameReader`](crate::wire::FrameReader) resolved.
enum Fill {
    /// More bytes arrived; the reader may now hold complete frames.
    Bytes,
    /// The peer closed the stream.
    Eof,
    /// The shutdown signal fired while the session was idle at a frame
    /// boundary.
    Drained,
    /// The socket failed — or the peer stalled mid-frame past the
    /// configured read deadline and this session is being evicted.
    Failed,
}

/// Fills the session's read buffer, racing the shutdown signal **only while
/// no frame bytes are buffered**: available bytes always win over shutdown,
/// and once a frame has started arriving the fill commits to completing it
/// (the supervisor's grace window bounds a peer that stalls mid-frame).
///
/// With a [`ServerConfig::read_deadline`] configured, a *committed* fill —
/// a frame has started arriving — additionally races that deadline: a peer
/// that opens a frame and then stops sending (the slow loris) is evicted
/// when the deadline fires, instead of holding buffer and session state
/// until shutdown.  Idle connections at a frame boundary are untouched —
/// a parked session costs nothing.
async fn fill_or_drain(
    reader: &mut wire::FrameReader,
    stream: &TcpStream,
    shared: &Shared,
    slot: usize,
) -> Fill {
    let committed = reader.buffered() > 0;
    let mut read_deadline = match shared.read_deadline {
        Some(limit) if committed => Some(Box::pin(shared.runtime.sleep(limit))),
        _ => None,
    };
    let started = telemetry::now();
    let mut stalled = false;
    let fill = poll_fn(|cx| match reader.poll_fill(cx, stream) {
        Poll::Ready(Ok(0)) => Poll::Ready(Fill::Eof),
        Poll::Ready(Ok(_)) => Poll::Ready(Fill::Bytes),
        Poll::Ready(Err(_)) => Poll::Ready(Fill::Failed),
        Poll::Pending => {
            if let Some(deadline) = read_deadline.as_mut() {
                if deadline.as_mut().poll(cx).is_ready() {
                    let telemetry = telemetry::global();
                    telemetry.slow_loris_evictions.incr();
                    telemetry.anomaly(
                        TraceKind::SlowLorisEvict,
                        0,
                        reader.buffered() as u64,
                        telemetry::elapsed_us(started),
                    );
                    return Poll::Ready(Fill::Failed);
                }
            }
            stalled = true;
            if !committed && shared.shutdown.poll_wait(slot, cx).is_ready() {
                Poll::Ready(Fill::Drained)
            } else {
                Poll::Pending
            }
        }
    })
    .await;
    // Only fills that actually suspended count as read stalls; a committed
    // fill whose bytes were already waiting records nothing.
    if stalled && committed {
        telemetry::global()
            .session_read_stall_us
            .record(telemetry::elapsed_us(started));
    }
    fill
}

/// Whether [`await_frame`] left a complete frame at the front of the
/// session's reader or the session should end.
enum Awaited {
    /// `reader.take_frame()` will yield the next request frame.
    Ready,
    /// Clean close, drain, IO failure, or a corrupt stream: the session is
    /// over (staged responses for earlier frames in the burst have been
    /// flushed best-effort).
    End,
}

/// Drives the session's reader until a complete frame is buffered.  Staged
/// responses are flushed before the session suspends for more bytes — a
/// pipelined client is waiting on exactly those responses to send its next
/// burst — and best-effort on the failure paths, so good frames decoded
/// before in-stream garbage still get their answers.
async fn await_frame(
    reader: &mut wire::FrameReader,
    writer: &mut wire::FrameWriter,
    stream: &TcpStream,
    shared: &Shared,
    slot: usize,
) -> Awaited {
    loop {
        match reader.frame_ready() {
            Ok(true) => return Awaited::Ready,
            Ok(false) => {}
            // Oversized length prefix: the stream is corrupt.  Answer what
            // was already staged, then fail this connection only.
            Err(_) => {
                let _ = writer.flush(stream).await;
                return Awaited::End;
            }
        }
        if writer.flush(stream).await.is_err() {
            return Awaited::End;
        }
        match fill_or_drain(reader, stream, shared, slot).await {
            Fill::Bytes => {}
            // Clean close between frames, drain, truncation mid-frame, or a
            // dead socket: nothing is staged (flushed just above), so end.
            Fill::Eof | Fill::Drained | Fill::Failed => return Awaited::End,
        }
    }
}

/// Polls `future` to completion with every poll wrapped in `catch_unwind`:
/// the async analogue of running a request handler inside `catch_unwind`.
/// A panic anywhere in handling (engine internals, a user observer, a
/// leader panic resumed in a waiter) resolves to `Err` instead of killing
/// the session task.
async fn catch_task_panic<F: Future>(future: F) -> Result<F::Output, ()> {
    let mut future = std::pin::pin!(future);
    poll_fn(
        |cx| match catch_unwind(AssertUnwindSafe(|| future.as_mut().poll(cx))) {
            Ok(Poll::Ready(output)) => Poll::Ready(Ok(output)),
            Ok(Poll::Pending) => Poll::Pending,
            Err(_) => Poll::Ready(Err(())),
        },
    )
    .await
}

/// One session: handshake, then a request/response loop until the client
/// hangs up, a frame fails to decode, or the server drains.  Requests on a
/// connection are handled strictly in order (pipelined clients rely on
/// response order), so the session is a plain sequential `async` loop.
///
/// IO is buffered on both sides: a [`wire::FrameReader`] drains every
/// pipelined request a single `recv` delivered, and responses accumulate in
/// a [`wire::FrameWriter`] that is flushed with one vectored write per burst
/// — right before the session suspends for more input — instead of one
/// `send` per frame.
async fn serve_session(stream: TcpStream, guard: SessionGuard) {
    let shared = Arc::clone(&guard.shared);
    let slot = guard.slot;
    let _ = stream.set_nodelay(true);
    let mut reader = wire::FrameReader::new();
    let mut writer = wire::FrameWriter::new();

    // Handshake: expect the client hello, always answer with ours (so a
    // version-mismatched client learns what this server speaks), then bail
    // on mismatch.
    let client_version = {
        match await_frame(&mut reader, &mut writer, &stream, &shared, slot).await {
            Awaited::End => return,
            Awaited::Ready => match wire::decode_hello(reader.take_frame()) {
                Ok(version) => version,
                Err(_) => return, // malformed handshake: fail this connection only
            },
        }
    };
    if writer.stage(&wire::encode_hello()).is_err() || writer.flush(&stream).await.is_err() {
        return;
    }
    if client_version != wire::VERSION {
        return;
    }

    loop {
        match await_frame(&mut reader, &mut writer, &stream, &shared, slot).await {
            Awaited::Ready => {}
            // Clean close, drain, or a malformed/truncated frame: this
            // connection ends; every other connection keeps running.
            Awaited::End => return,
        }
        // Decoded in place: the request's text borrows the reader's buffer,
        // which is not filled again until this request has been answered.
        let decoded = wire::decode_request_as::<&str>(reader.take_frame());
        let (request_id, response, shutdown_after) = match decoded {
            Ok((request_id, request)) => {
                let shutdown_after = matches!(request, Request::Shutdown);
                let response = match catch_task_panic(handle_request(&shared, request)).await {
                    Ok(response) => response,
                    Err(()) => Response::Error {
                        message: "internal panic while handling request".to_owned(),
                    },
                };
                (request_id, response, shutdown_after)
            }
            // A well-formed frame with an unknown opcode is answered, not
            // fatal: newer clients degrade gracefully.
            Err(WireError::UnknownOpcode { opcode, request_id }) => (
                request_id,
                Response::Error {
                    message: format!("unknown opcode {opcode}"),
                },
                false,
            ),
            // Any other decode failure means the stream is corrupt.  Flush
            // responses already staged for good frames in this burst, then
            // give up on the connection.
            Err(_) => {
                let _ = writer.flush(&stream).await;
                return;
            }
        };
        if writer.stage_response(request_id, &response).is_err() {
            let _ = writer.flush(&stream).await;
            return;
        }
        if shutdown_after {
            let _ = writer.flush(&stream).await;
            shared.shutdown.fire();
            return;
        }
    }
}

/// Deterministic payload bytes for a simulated execution: the query
/// signature repeated to the declared length, so replays materialize
/// identical bytes on every run.
fn synthesize_payload(signature: u64, len: u64) -> Bytes {
    let pattern = signature.to_le_bytes();
    let len = len as usize;
    let mut data = Vec::with_capacity(len);
    data.extend_from_slice(&pattern[..pattern.len().min(len)]);
    // Doubling keeps the period: every copy starts at a multiple of 8.
    while data.len() < len {
        let take = data.len().min(len - data.len());
        data.extend_from_within(..take);
    }
    Bytes::from(data)
}

/// The OS thread count of this process, from `/proc/self/status`.  `None`
/// where procfs is unavailable — the `process.threads` gauge reads 0 then.
fn process_thread_count() -> Option<u32> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_thread_count(&status)
}

fn parse_thread_count(status: &str) -> Option<u32> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|rest| rest.trim().parse().ok())
}

/// A `GET` response's payload prefix: the cached set itself, cut to length
/// where it is written into the frame — never copied out first.
struct Prefix {
    value: Arc<ServerPayload>,
    len: usize,
}

impl AsRef<[u8]> for Prefix {
    fn as_ref(&self) -> &[u8] {
        &self.value[..self.len]
    }
}

async fn handle_request(shared: &Shared, request: Request<&str>) -> Response<Prefix> {
    match request {
        Request::Get(get) => handle_get(shared, get).await,
        Request::Peek { key } => {
            let key = QueryKey::from_raw_query(key);
            match shared.engine.peek(&key) {
                Some(value) => Response::Peek {
                    cached: true,
                    size_bytes: value.size_bytes(),
                },
                None => Response::Peek {
                    cached: false,
                    size_bytes: 0,
                },
            }
        }
        Request::Stats => Response::Stats(stats_snapshot(shared)),
        Request::Invalidate { relation } => {
            let report = shared.deps.apply_update(&shared.engine, relation);
            Response::Invalidate {
                affected: report.affected.len() as u32,
                invalidated: report.invalidated.len() as u32,
            }
        }
        Request::Shutdown => Response::Shutdown,
        Request::Metrics => Response::Metrics(metrics_snapshot(shared)),
        Request::TraceDump => Response::TraceDump(telemetry::global().recorder.dump()),
    }
}

/// The engine's snapshot with the server's shed count folded in: the
/// engine never sees shed requests, so the server owns that count.
fn stats_snapshot(shared: &Shared) -> StatsSnapshot {
    let mut snapshot = shared.engine.stats_snapshot();
    snapshot.sheds = shared.sheds.load(Ordering::Relaxed);
    snapshot
}

/// Assembles the `METRICS` exposition: the process-global registry plus
/// what this server's own books hold — the engine's retry, negative-hit,
/// breaker-transition and occupancy counts and the shed count, all read
/// from one [`stats_snapshot`] — and the runtime and session state only
/// this layer can see.
fn metrics_snapshot(shared: &Shared) -> MetricsSnapshot {
    let stats = stats_snapshot(shared);
    let mut snapshot = telemetry::global().snapshot();
    let scheduler = shared.runtime.scheduler_stats();
    let mut counter = |name: &str, value: u64| {
        snapshot.counters.insert(name.to_owned(), value);
    };
    counter("runtime.scheduler.parks", scheduler.parks);
    counter("engine.fetch.retries", stats.fetch_retries);
    counter("engine.negative_hits", stats.negative_hits);
    counter("engine.breaker.transitions", stats.breaker_transitions);
    counter("server.sheds", stats.sheds);
    let mut gauge = |name: &str, value: u64| {
        snapshot.gauges.insert(name.to_owned(), value);
    };
    gauge("engine.shard_count", stats.per_shard_used.len() as u64);
    for (index, &used) in stats.per_shard_used.iter().enumerate() {
        gauge(&format!("engine.shard.{index:02}.used_bytes"), used);
    }
    gauge(
        "engine.fragmentation.used_permille",
        (stats.used_bytes.saturating_mul(1000))
            .checked_div(stats.capacity_bytes)
            .unwrap_or(0),
    );
    gauge("runtime.queue_depth", shared.runtime.queue_depth() as u64);
    gauge("runtime.workers", shared.workers as u64);
    gauge("runtime.alive_tasks", shared.runtime.alive_tasks() as u64);
    gauge(
        "server.sessions",
        shared.sessions.load(Ordering::SeqCst) as u64,
    );
    gauge(
        "server.inflight",
        shared.inflight.load(Ordering::SeqCst) as u64,
    );
    gauge("server.max_inflight", shared.max_inflight as u64);
    gauge(
        "process.threads",
        u64::from(process_thread_count().unwrap_or(0)),
    );
    gauge("server.service_ewma_us", service_ewma_us(shared));
    snapshot
}

/// An admission permit: one slot of [`ServerConfig::max_inflight`], held
/// for the duration of one `GET`'s handling.  Dropping the permit releases
/// the slot — including when the handling future is cancelled or panics,
/// since both drop the future.
struct InflightPermit<'a> {
    /// `None` when the gate is disabled (nothing to release).
    shared: Option<&'a Shared>,
}

impl<'a> InflightPermit<'a> {
    /// Claims a slot, or reports the retry-after hint to shed with.
    fn try_acquire(shared: &'a Shared) -> Result<InflightPermit<'a>, u64> {
        if shared.max_inflight == 0 {
            return Ok(InflightPermit { shared: None });
        }
        let mut current = shared.inflight.load(Ordering::SeqCst);
        loop {
            if current >= shared.max_inflight {
                return Err(retry_after_hint(shared));
            }
            match shared.inflight.compare_exchange(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    return Ok(InflightPermit {
                        shared: Some(shared),
                    })
                }
                Err(observed) => current = observed,
            }
        }
    }
}

impl Drop for InflightPermit<'_> {
    fn drop(&mut self) {
        if let Some(shared) = self.shared {
            shared.inflight.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// The `BUSY` retry-after hint: the observed service-time EWMA, clamped so
/// a cold server still hints something sane and a pathological sample
/// cannot tell clients to go away for minutes.
fn retry_after_hint(shared: &Shared) -> u64 {
    service_ewma_us(shared).clamp(1_000, 100_000)
}

/// One shed: the server's shed counter and a `Shed` anomaly trace carrying
/// the refused query's signature and the hint the client was sent.
fn record_shed(shared: &Shared, get: &GetRequest<&str>, retry_after_us: u64) {
    shared.sheds.fetch_add(1, Ordering::Relaxed);
    telemetry::global().anomaly(
        TraceKind::Shed,
        // Signature only: a shedding server has no CPU to build keys with.
        Signature::of_raw_query(get.key).value(),
        shared.inflight.load(Ordering::SeqCst) as u64,
        retry_after_us,
    );
}

/// The fixed-point scale of the service-time EWMA: it is stored as this
/// many times its value in µs, so a sample under this many µs still moves
/// it.
const EWMA_SCALE: u64 = 8;

/// One step of the service-time EWMA (α = 1/8) over `scaled`, the average
/// times [`EWMA_SCALE`]: `avg' = avg - avg/8 + sample/8`, multiplied through
/// by 8.  A zero `scaled` has seen no sample yet, so the first sample seeds
/// it.
fn ewma_step(scaled: u64, service_us: u64) -> u64 {
    if scaled == 0 {
        service_us.saturating_mul(EWMA_SCALE)
    } else {
        (scaled - scaled / 8).saturating_add(service_us)
    }
}

/// The service-time EWMA in µs.
fn service_ewma_us(shared: &Shared) -> u64 {
    shared.service_ewma_scaled.load(Ordering::Relaxed) / EWMA_SCALE
}

/// Folds one `GET`'s service time into the EWMA.
fn record_service_time(shared: &Shared, service_us: u64) {
    let previous = shared.service_ewma_scaled.load(Ordering::Relaxed);
    shared
        .service_ewma_scaled
        .store(ewma_step(previous, service_us), Ordering::Relaxed);
}

async fn handle_get(shared: &Shared, get: GetRequest<&str>) -> Response<Prefix> {
    if get.result_bytes > MAX_RESULT_BYTES {
        return Response::Error {
            message: format!(
                "result_bytes {} exceeds the {MAX_RESULT_BYTES}-byte limit",
                get.result_bytes
            ),
        };
    }
    // The fetch sleeps on this session's worker, and a drain joins that
    // worker: a delay past the drain grace would hold shutdown past it.
    if u128::from(get.fetch_delay_us) > DRAIN_GRACE.as_micros() {
        return Response::Error {
            message: format!(
                "fetch_delay_us {} exceeds the {} µs drain grace",
                get.fetch_delay_us,
                DRAIN_GRACE.as_micros()
            ),
        };
    }
    // Overload control, ahead of any engine work.  Two sheds, both answered
    // with `BUSY` + a retry-after hint instead of queueing:
    //  * the admission gate is full — more in-flight `GET`s would only grow
    //    queueing delay past every deadline;
    //  * the request carries a deadline the service-time EWMA already says
    //    the server cannot meet — doing the work anyway would burn a worker
    //    to produce an answer the client has given up on.
    let _permit = match InflightPermit::try_acquire(shared) {
        Ok(permit) => permit,
        Err(retry_after_us) => {
            record_shed(shared, &get, retry_after_us);
            return Response::Busy { retry_after_us };
        }
    };
    if shared.max_inflight > 0 && get.deadline_hint_us != 0 {
        let estimate = service_ewma_us(shared);
        if estimate > get.deadline_hint_us {
            let retry_after_us = retry_after_hint(shared);
            record_shed(shared, &get, retry_after_us);
            return Response::Busy { retry_after_us };
        }
    }
    let started = telemetry::now();
    let key = QueryKey::from_raw_query(get.key);
    let now = Timestamp::from_micros(get.timestamp_us);
    let signature = key.signature().value();
    let result_bytes = get.result_bytes;
    let cost_blocks = get.cost_blocks;
    let fetch_delay = Duration::from_micros(u64::from(get.fetch_delay_us));
    // Misses are single-flight across every connection; hits resolve on
    // the first poll without suspending the session at all, and a leader
    // runs its fetch in that same poll, on this session's worker.  Every
    // `GET` takes the engine's fallible door: the fetch consults the fault
    // plan, if one is installed, and otherwise never fails, which is
    // stat-identical to the infallible door.  A
    // terminal failure — after retry, breaker, stale serving and negative
    // cache had their say — answers this request with an error response
    // instead of killing the session.
    let plan = shared.fault.clone();
    let outcome = shared
        .engine
        .try_get_or_execute_async(&key, now, move || {
            if let Some(error) = plan.as_ref().and_then(|plan| plan.fetch_fault(signature)) {
                return Err(error);
            }
            if !fetch_delay.is_zero() {
                thread::sleep(fetch_delay);
            }
            Ok((
                synthesize_payload(signature, result_bytes),
                ExecutionCost::from_blocks(cost_blocks),
            ))
        })
        .await;
    let lookup = match outcome {
        Ok(lookup) => lookup,
        Err(failure) => {
            record_service_time(shared, telemetry::elapsed_us(started));
            return Response::Error {
                message: format!("fetch failed: {}", failure.error.message()),
            };
        }
    };
    let service_us = telemetry::elapsed_us(started);
    record_service_time(shared, service_us);
    let source = match lookup.source {
        LookupSource::Hit => WireSource::Hit,
        LookupSource::Executed => WireSource::Executed,
        LookupSource::Coalesced => WireSource::Coalesced,
        LookupSource::Stale => WireSource::Stale,
    };
    let full_len = lookup.value.size_bytes();
    // Clamp to MAX_PREFIX_BYTES: the cached set may legally be bigger than
    // a wire frame, but the response must always fit one.
    let prefix_len =
        (get.payload_prefix_cap.min(wire::MAX_PREFIX_BYTES) as usize).min(lookup.value.len());
    Response::Get(GetResponse {
        source,
        cost_blocks: get.cost_blocks as f64,
        full_len,
        prefix: Prefix {
            value: lookup.value,
            len: prefix_len,
        },
        service_us,
        deadline_exceeded: get.deadline_hint_us != 0 && service_us > get.deadline_hint_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relation_resolver_reads_the_from_clause() {
        let key = QueryKey::from_raw_query(
            "SELECT sum(l_price) FROM lineitem, orders WHERE l_orderkey = o_orderkey",
        );
        assert_eq!(resolve_relations(&key), vec!["LINEITEM", "ORDERS"]);
        let no_from = QueryKey::from_raw_query("SELECT 1");
        assert!(resolve_relations(&no_from).is_empty());
    }

    #[test]
    fn synthesized_payloads_are_deterministic_and_sized() {
        let a = synthesize_payload(0xDEAD_BEEF, 20);
        let b = synthesize_payload(0xDEAD_BEEF, 20);
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
        assert_eq!(synthesize_payload(1, 0).len(), 0);
        assert_eq!(synthesize_payload(1, 3).len(), 3);
        // The documented rule, byte for byte, across the doubling's seams.
        let signature = 0x0102_0304_0506_0708_u64;
        for len in [1u64, 7, 8, 9, 16, 23, 24, 25, 5_000] {
            let expected: Vec<u8> = signature
                .to_le_bytes()
                .into_iter()
                .cycle()
                .take(len as usize)
                .collect();
            assert_eq!(&synthesize_payload(signature, len)[..], &expected[..]);
        }
    }

    #[test]
    fn service_ewma_follows_samples_under_its_scale() {
        let mut scaled = ewma_step(0, 100);
        for _ in 0..500 {
            scaled = ewma_step(scaled, 5);
        }
        assert_eq!(
            scaled / EWMA_SCALE,
            5,
            "sub-8 µs samples pull the average down"
        );
        let mut scaled = ewma_step(0, 3);
        for _ in 0..100 {
            scaled = ewma_step(scaled, 1);
        }
        assert_eq!(
            scaled / EWMA_SCALE,
            1,
            "a small first sample does not pin it"
        );
    }

    #[test]
    fn thread_count_parses_proc_status() {
        let status = "Name:\twatchmand\nThreads:\t7\nVmPeak:\t  123 kB\n";
        assert_eq!(parse_thread_count(status), Some(7));
        assert_eq!(parse_thread_count("no such field"), None);
        // The live procfs read reports at least this thread on Linux.
        if let Some(threads) = process_thread_count() {
            assert!(threads >= 1);
        }
    }

    #[test]
    fn shutdown_signal_wakes_slots_exactly_once_and_recycles_them() {
        use std::task::Wake;

        struct Flag(AtomicBool);
        impl Wake for Flag {
            fn wake(self: Arc<Self>) {
                self.0.store(true, Ordering::SeqCst);
            }
        }

        let signal = ShutdownSignal::new();
        let a = signal.register_slot();
        let b = signal.register_slot();
        assert_ne!(a, b);

        let flag = Arc::new(Flag(AtomicBool::new(false)));
        let waker = Waker::from(Arc::clone(&flag));
        let mut cx = Context::from_waker(&waker);
        assert!(signal.poll_wait(a, &mut cx).is_pending());
        // Re-polling replaces the parked waker in place: no growth.
        assert!(signal.poll_wait(a, &mut cx).is_pending());

        signal.fire();
        assert!(flag.0.load(Ordering::SeqCst), "parked waker fired");
        assert!(signal.poll_wait(a, &mut cx).is_ready());
        assert!(signal.poll_wait(b, &mut cx).is_ready());

        // Released slots are recycled, not leaked.
        signal.release_slot(a);
        let c = signal.register_slot();
        assert_eq!(c, a);
    }
}
