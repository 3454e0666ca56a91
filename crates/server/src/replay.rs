//! Wire-backed trace replay and the one load driver, over real sockets.
//!
//! [`replay_trace_wire`] is the network twin of
//! [`watchman_sim::replay_trace_engine`]: one connection replays a
//! deterministic trace record by record (pipelined in batches of
//! `REPLAY_BATCH_RECORDS`, which the server answers in order) and
//! returns the server engine's final [`StatsSnapshot`] — byte-identical to the in-process replay of the same
//! trace on the same engine configuration, which is the end-to-end proof
//! that the wire adds no replay-visible semantics.
//!
//! [`Scenario`] is the one load driver (`loadgen`, `wire_roundtrip`, the
//! chaos tests): N connections send one [`Requests`] source, every
//! request's [`Outcome`] is counted, and one [`Report`] comes back,
//! bracketed by two `STATS` calls so it carries the server's account of the
//! same run.  Replays and sweeps run a blocking [`Client`] per thread; the
//! storm runs an async task per connection, since thousands of open
//! connections cannot each cost a client thread any more than a server
//! session can.

#![allow(
    clippy::disallowed_methods,
    reason = "load drivers time clients, not sessions"
)]

use std::collections::BTreeMap;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use serde::Serialize;
use watchman_core::engine::{RetryPolicy, StatsSnapshot};
use watchman_core::metrics::CacheStats;
use watchman_core::runtime::net::TcpStream;
use watchman_core::runtime::{block_on, Runtime};
use watchman_core::telemetry::{HistogramSnapshot, MetricsSnapshot};
use watchman_trace::Trace;

use crate::client::{connect_handshaken, Client, ClientError};
use crate::wire::{
    self, FrameReader, GetRequest, GetResponse, Request, Response, WireError, WireSource,
};

/// Records [`replay_trace_wire`] pipelines per `get_many` batch.
const REPLAY_BATCH_RECORDS: usize = 128;

/// Replays `trace` through `client` with the deterministic protocol of the
/// in-process drivers (one session, in trace order) and returns the
/// server's final snapshot.
pub fn replay_trace_wire(client: &mut Client, trace: &Trace) -> Result<StatsSnapshot, ClientError> {
    for chunk in trace.records.chunks(REPLAY_BATCH_RECORDS) {
        let batch: Vec<GetRequest> = chunk
            .iter()
            .map(|record| {
                GetRequest::metrics_only(
                    record.query_text.clone(),
                    record.timestamp_us,
                    record.result_bytes,
                    record.cost_blocks,
                )
            })
            .collect();
        client.get_many(batch)?;
    }
    client.stats()
}

/// Distinct query keys a [`Requests::Sweep`] spreads over.
pub const SWEEP_KEYS: usize = 256;
/// Declared retrieved-set size of every sweep key — together with the
/// server's capacity this sets the eviction pressure that forces refetches.
pub const SWEEP_RESULT_BYTES: u64 = 32 << 10;
/// Declared retrieved-set size of every storm key.
const STORM_RESULT_BYTES: u64 = 1_024;
/// Declared execution cost of every sweep and storm key, in blocks.
const COST_BLOCKS: u64 = 500;
/// Client-side read timeout, on top of the scenario's fetch delay per
/// batch: the escape hatch from a stalled connection (a timed-out read is
/// connection loss, retried on a fresh connection).
const READ_TIMEOUT: Duration = Duration::from_millis(500);
/// Every runner connection's retry policy for reconnects and `BUSY` pacing.
const CLIENT_RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 5,
    base_delay: Duration::from_millis(1),
    max_delay: Duration::from_millis(50),
    jitter_seed: 0xC4A0_5EED,
};
/// Client-side runtime workers driving a storm: a handful of threads on
/// each side, whatever the connection count.
const STORM_WORKERS: usize = 4;

/// Where a [`Scenario`]'s requests come from.
#[derive(Debug, Clone, Copy)]
pub enum Requests<'a> {
    /// Replays a trace, its records dealt round-robin across the
    /// connections like the in-process concurrent replay, so concurrent
    /// misses on one query coalesce *across connections*.
    Trace(&'a Trace),
    /// `rounds` requests per connection sweeping [`SWEEP_KEYS`] shared keys
    /// with a per-connection stride, so connections collide on keys
    /// (coalescing, hits) while still covering the whole keyspace
    /// (eviction pressure) — the chaos harness's traffic.  The runner
    /// scrapes `METRICS` while the sweep is live.
    Sweep {
        /// Requests each connection sends.
        rounds: usize,
    },
    /// `rounds` metrics-only requests per connection, every connection on
    /// the same per-round key (round N misses once and coalesces or hits
    /// everywhere else), every connection open at once as an async task
    /// sending one request at a time.
    Storm {
        /// Requests each connection sends.
        rounds: usize,
    },
}

/// One load run against a server: how many connections, how they send, and
/// what.
#[derive(Debug, Clone, Copy)]
pub struct Scenario<'a> {
    /// Concurrent client connections.
    pub connections: usize,
    /// Requests per pipelined batch (1 = one round trip per request).
    pub pipeline: usize,
    /// Simulated execution time attached to every request, in microseconds.
    pub fetch_delay_us: u32,
    /// What the connections send.
    pub requests: Requests<'a>,
}

/// The bucket one request's outcome lands in.  Under a
/// [`FaultPlan`](crate::fault::FaultPlan) every bucket but
/// [`Unexplained`](Outcome::Unexplained) is explained by the plan; on a
/// fault-free run only the first four should ever fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered from cache.
    Hit,
    /// Led an execution.
    Executed,
    /// Coalesced onto another connection's execution.
    Coalesced,
    /// Degraded to a last-known-good stale value after a fetch failure.
    Stale,
    /// Answered with a terminal fetch failure.
    FetchError,
    /// Still `BUSY` after the client's retry budget: the server shed it.
    Busy,
    /// Lost with a connection the client had to replace (a reset, or a
    /// stall caught by the read timeout).
    Reconnect,
    /// Anything no fault explains.
    Unexplained,
}

impl Outcome {
    /// Classifies what a client call returned for one request.
    pub fn classify(result: Result<&GetResponse, &ClientError>) -> Outcome {
        match result {
            Ok(response) => match response.source {
                WireSource::Hit => Outcome::Hit,
                WireSource::Executed => Outcome::Executed,
                WireSource::Coalesced => Outcome::Coalesced,
                WireSource::Stale => Outcome::Stale,
            },
            Err(ClientError::Server { message }) if message.starts_with("fetch failed") => {
                Outcome::FetchError
            }
            Err(ClientError::Busy { .. }) => Outcome::Busy,
            Err(ClientError::Wire(_) | ClientError::Connect { .. }) => Outcome::Reconnect,
            Err(ClientError::Server { .. } | ClientError::UnexpectedResponse { .. }) => {
                Outcome::Unexplained
            }
        }
    }
}

/// Requests per [`Outcome`] bucket.  Every request lands in exactly one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct Outcomes {
    /// [`Outcome::Hit`].
    pub hits: u64,
    /// [`Outcome::Executed`].
    pub executed: u64,
    /// [`Outcome::Coalesced`].
    pub coalesced: u64,
    /// [`Outcome::Stale`].
    pub stale: u64,
    /// [`Outcome::FetchError`].
    pub fetch_errors: u64,
    /// [`Outcome::Busy`].
    pub busy: u64,
    /// [`Outcome::Reconnect`].
    pub reconnects: u64,
    /// [`Outcome::Unexplained`].
    pub unexplained: u64,
}

impl Outcomes {
    /// Requests that completed with a usable value (fresh or stale).
    pub fn ok(&self) -> u64 {
        self.hits + self.executed + self.coalesced + self.stale
    }

    /// Requests across every bucket.
    pub fn total(&self) -> u64 {
        self.ok() + self.fetch_errors + self.busy + self.reconnects + self.unexplained
    }

    fn add(&mut self, outcome: Outcome, requests: u64) {
        *match outcome {
            Outcome::Hit => &mut self.hits,
            Outcome::Executed => &mut self.executed,
            Outcome::Coalesced => &mut self.coalesced,
            Outcome::Stale => &mut self.stale,
            Outcome::FetchError => &mut self.fetch_errors,
            Outcome::Busy => &mut self.busy,
            Outcome::Reconnect => &mut self.reconnects,
            Outcome::Unexplained => &mut self.unexplained,
        } += requests;
    }
}

/// How far the server's `STATS` moved over the run (after − before).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ServerDelta {
    /// The engine's counters, summed across shards.
    pub total: CacheStats,
    /// Requests the overload gate refused.
    pub sheds: u64,
    /// Fetch retries past the first attempt.
    pub fetch_retries: u64,
    /// Lookups answered from a key's memoized failure.
    pub negative_hits: u64,
    /// Circuit-breaker state transitions.
    pub breaker_transitions: u64,
}

impl ServerDelta {
    fn between(before: &StatsSnapshot, after: &StatsSnapshot) -> ServerDelta {
        let (b, a) = (&before.total, &after.total);
        ServerDelta {
            total: CacheStats {
                references: a.references - b.references,
                hits: a.hits - b.hits,
                coalesced: a.coalesced - b.coalesced,
                fetch_errors: a.fetch_errors - b.fetch_errors,
                stale_serves: a.stale_serves - b.stale_serves,
                total_cost: a.total_cost - b.total_cost,
                saved_cost: a.saved_cost - b.saved_cost,
                insertions_offered: a.insertions_offered - b.insertions_offered,
                admissions: a.admissions - b.admissions,
                rejections: a.rejections - b.rejections,
                evictions: a.evictions - b.evictions,
                bytes_evicted: a.bytes_evicted - b.bytes_evicted,
            },
            sheds: after.sheds - before.sheds,
            fetch_retries: after.fetch_retries - before.fetch_retries,
            negative_hits: after.negative_hits - before.negative_hits,
            breaker_transitions: after.breaker_transitions - before.breaker_transitions,
        }
    }
}

/// Both execution stacks as a storm left them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct StormProbe {
    /// The server process's OS thread count, from one `METRICS` scrape
    /// taken while every storm connection was still open (0 when the
    /// platform cannot report it).
    pub server_threads: u32,
    /// The server runtime's worker count, from the same sample.
    pub server_workers: u32,
    /// Live sessions in the same sample: the storm's connections plus the
    /// runner's admin connection.
    pub server_sessions: u32,
    /// Ready-queue raids on the client runtime: zero would mean the storm
    /// never exercised the work-stealing path.
    pub client_steals: u64,
    /// Times a client-side worker parked empty-handed.
    pub client_parks: u64,
}

/// What one [`Scenario`] run measured.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Report {
    /// Client connections.
    pub connections: usize,
    /// Requests per pipelined batch.
    pub pipeline: usize,
    /// Requests the scenario scheduled; the outcome buckets sum to this.
    pub requests: u64,
    /// Where every request landed.
    pub outcomes: Outcomes,
    /// Mean client-observed round trip, over answered batches (requests,
    /// with `pipeline == 1`), in microseconds.
    pub latency_mean_us: f64,
    /// Median round trip, in microseconds.
    pub latency_p50_us: u64,
    /// 95th-percentile round trip, in microseconds.
    pub latency_p95_us: u64,
    /// 99th-percentile round trip, in microseconds.
    pub latency_p99_us: u64,
    /// Wall-clock of the requests, in seconds.
    pub wall_s: f64,
    /// `requests / wall_s`.
    pub throughput_qps: f64,
    /// The server's own account of the run.
    pub server: ServerDelta,
    /// The storm's `METRICS` sample and client scheduler counters.
    pub storm: Option<StormProbe>,
    /// For a sweep, how far every `METRICS` counter and every histogram's
    /// sample count had moved between a scrape just before the run and the
    /// last one issued while it was live (`None` if none landed).  Deltas,
    /// because the histograms and the registry's counters are
    /// process-global.
    pub mid_run: Option<BTreeMap<String, u64>>,
}

impl Report {
    /// Checks the client's tally against the server's `STATS` delta over
    /// the same run: requests, hits, executions, coalesced, stale and
    /// fetch-error counts must match one for one.  Because both sides
    /// balance their books, a match also means no request was shed, lost
    /// with a connection or left unexplained.  Holds on any fault-free
    /// run; under a fault plan a lost request may replay, so the server
    /// can count more.
    pub fn check_tally(&self) -> Result<(), String> {
        let (seen, counted) = (&self.outcomes, &self.server.total);
        let client = [
            self.requests,
            seen.hits,
            seen.executed,
            seen.coalesced,
            seen.stale,
            seen.fetch_errors,
        ];
        let server = [
            counted.references,
            counted.hits,
            counted.misses(),
            counted.coalesced,
            counted.stale_serves,
            counted.fetch_errors,
        ];
        if client == server {
            return Ok(());
        }
        Err(format!(
            "client tally {client:?} != server STATS delta {server:?} \
             (requests, hits, executed, coalesced, stale, fetch errors)"
        ))
    }
}

impl Scenario<'_> {
    /// Runs the scenario against the server at `addr`.  Client errors do
    /// not abort the run: each one is classified and counted (the caller
    /// gates on the buckets).  Only the runner's own admin connection
    /// failing, or a storm that cannot open its connections, is an `Err`.
    pub fn run(&self, addr: &str) -> Result<Report, ClientError> {
        let connections = self.connections.max(1);
        let pipeline = self.pipeline.max(1);
        let read_timeout =
            READ_TIMEOUT + Duration::from_micros(u64::from(self.fetch_delay_us) * pipeline as u64);
        let lists: Vec<Vec<GetRequest>> = (0..connections)
            .map(|connection| self.requests_for(connection, connections))
            .collect();
        let requests = lists.iter().map(Vec::len).sum::<usize>() as u64;

        let mut admin = connect(addr, read_timeout)?;
        let before = admin.stats()?;
        let started = Instant::now();
        let (tally, storm, mid_run) = match self.requests {
            Requests::Storm { .. } => {
                let (tally, probe) = run_storm(addr, lists, &mut admin)?;
                (tally, Some(probe), None)
            }
            Requests::Trace(_) | Requests::Sweep { .. } => {
                let scraper = matches!(self.requests, Requests::Sweep { .. }).then_some(&mut admin);
                let (tally, mid_run) = run_threads(addr, lists, pipeline, read_timeout, scraper);
                (tally, None, mid_run)
            }
        };
        let wall_s = started.elapsed().as_secs_f64();
        let after = admin.stats()?;
        Ok(Report {
            connections,
            pipeline,
            requests,
            outcomes: tally.outcomes,
            latency_mean_us: tally.latency.mean(),
            latency_p50_us: tally.latency.quantile(0.50),
            latency_p95_us: tally.latency.quantile(0.95),
            latency_p99_us: tally.latency.quantile(0.99),
            wall_s,
            throughput_qps: requests as f64 / wall_s.max(f64::MIN_POSITIVE),
            server: ServerDelta::between(&before, &after),
            storm,
            mid_run,
        })
    }

    /// The requests connection `connection` of `connections` sends, in
    /// order.
    fn requests_for(&self, connection: usize, connections: usize) -> Vec<GetRequest> {
        let request =
            |key: String, timestamp_us: u64, result_bytes: u64, cost_blocks: u64| GetRequest {
                fetch_delay_us: self.fetch_delay_us,
                ..GetRequest::metrics_only(key, timestamp_us, result_bytes, cost_blocks)
            };
        match self.requests {
            Requests::Trace(trace) => trace
                .iter()
                .skip(connection)
                .step_by(connections)
                .map(|record| {
                    request(
                        record.query_text.clone(),
                        record.timestamp_us,
                        record.result_bytes,
                        record.cost_blocks,
                    )
                })
                .collect(),
            Requests::Sweep { rounds } => (0..rounds)
                .map(|round| {
                    let key = (connection + round * 7) % SWEEP_KEYS;
                    request(
                        format!("SELECT payload FROM chaos WHERE k = {key}"),
                        ((round * connections + connection) as u64 + 1) * 1_000,
                        SWEEP_RESULT_BYTES,
                        COST_BLOCKS,
                    )
                })
                .collect(),
            Requests::Storm { rounds } => (0..rounds)
                .map(|round| {
                    request(
                        format!("SELECT storm_round{round} FROM stormload"),
                        (round as u64 + 1) * 1_000,
                        STORM_RESULT_BYTES,
                        COST_BLOCKS,
                    )
                })
                .collect(),
        }
    }
}

/// One connection's tally, and merged, the run's.
struct Tally {
    outcomes: Outcomes,
    latency: HistogramSnapshot,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            outcomes: Outcomes::default(),
            latency: HistogramSnapshot::empty(),
        }
    }

    fn merge(&mut self, other: &Tally) {
        let (mine, theirs) = (&mut self.outcomes, &other.outcomes);
        mine.hits += theirs.hits;
        mine.executed += theirs.executed;
        mine.coalesced += theirs.coalesced;
        mine.stale += theirs.stale;
        mine.fetch_errors += theirs.fetch_errors;
        mine.busy += theirs.busy;
        mine.reconnects += theirs.reconnects;
        mine.unexplained += theirs.unexplained;
        self.latency.merge(&other.latency);
    }
}

fn elapsed_us(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Connects (riding out a server that is still starting) with the runner's
/// retry policy and `read_timeout`.
fn connect(addr: &str, read_timeout: Duration) -> Result<Client, ClientError> {
    let mut client = Client::connect_with_retries(addr, 20, Duration::from_millis(20))?;
    client.set_retry_policy(CLIENT_RETRY);
    client.set_read_timeout(Some(read_timeout));
    Ok(client)
}

/// How far every `METRICS` counter and every histogram's sample count moved
/// from `before` to `live`.
fn moved(before: &MetricsSnapshot, live: &MetricsSnapshot) -> BTreeMap<String, u64> {
    let counts = |metrics: &MetricsSnapshot| -> BTreeMap<String, u64> {
        let histograms = metrics
            .histograms
            .iter()
            .map(|(name, h)| (name.clone(), h.count));
        metrics
            .counters
            .clone()
            .into_iter()
            .chain(histograms)
            .collect()
    };
    let before = counts(before);
    counts(live)
        .into_iter()
        .map(|(name, now)| {
            let moved = now.saturating_sub(before.get(&name).copied().unwrap_or(0));
            (name, moved)
        })
        .collect()
}

/// The blocking transport: a thread and a [`Client`] per connection, all
/// released together once every one has connected.  With `scraper`, that
/// connection scrapes `METRICS` once before the run and then polls it until
/// the clients finish; the last scrape *issued* before they did is kept,
/// so it is a picture of a server under load.
fn run_threads(
    addr: &str,
    lists: Vec<Vec<GetRequest>>,
    pipeline: usize,
    read_timeout: Duration,
    scraper: Option<&mut Client>,
) -> (Tally, Option<BTreeMap<String, u64>>) {
    let barrier = Barrier::new(lists.len());
    let finished = AtomicBool::new(false);
    thread::scope(|scope| {
        let scraper = scraper.and_then(|admin| {
            let before = admin.metrics().ok()?;
            let finished = &finished;
            Some(scope.spawn(move || {
                let mut latest = None;
                while !finished.load(Ordering::SeqCst) {
                    if let Ok(live) = admin.metrics() {
                        latest = Some(moved(&before, &live));
                    }
                    thread::sleep(Duration::from_millis(10));
                }
                latest
            }))
        });
        let barrier = &barrier;
        let handles: Vec<_> = lists
            .into_iter()
            .map(|requests| {
                scope.spawn(move || {
                    drive_connection(addr, &requests, pipeline, read_timeout, barrier)
                })
            })
            .collect();
        let mut tally = Tally::new();
        for handle in handles {
            tally.merge(&handle.join().unwrap_or_else(|panic| resume_unwind(panic)));
        }
        finished.store(true, Ordering::SeqCst);
        let mid_run =
            scraper.and_then(|handle| handle.join().unwrap_or_else(|panic| resume_unwind(panic)));
        (tally, mid_run)
    })
}

/// One blocking connection's share of a run: connect, wait for the others,
/// send `requests` in `pipeline`-sized batches and classify every outcome.
/// A batch the client could not complete is lost as a whole: every request
/// in it lands in the failure's bucket.
fn drive_connection(
    addr: &str,
    requests: &[GetRequest],
    pipeline: usize,
    read_timeout: Duration,
    barrier: &Barrier,
) -> Tally {
    let mut tally = Tally::new();
    let mut client = connect(addr, read_timeout).ok();
    barrier.wait();
    for batch in requests.chunks(pipeline) {
        // A connection that could not be (re)established leaves the rest of
        // its requests unexplained: no fault plan cuts the server off.
        let Some(live) = client.as_mut() else {
            tally.outcomes.add(Outcome::Unexplained, batch.len() as u64);
            continue;
        };
        let sent = Instant::now();
        match live.get_many(batch.to_vec()) {
            Ok(responses) => {
                tally.latency.record(elapsed_us(sent));
                for response in &responses {
                    tally.outcomes.add(Outcome::classify(Ok(response)), 1);
                }
            }
            Err(err) => {
                let outcome = Outcome::classify(Err(&err));
                tally.outcomes.add(outcome, batch.len() as u64);
                if outcome == Outcome::Reconnect {
                    // The client's own retry budget is spent: this
                    // connection is gone (a plan reset, or a stall caught
                    // by the read timeout).  Replace it.
                    client = connect(addr, read_timeout).ok();
                }
            }
        }
    }
    tally
}

/// The storm transport: every connection open at once, each an async task
/// on a [`STORM_WORKERS`]-wide runtime.  Connects and handshakes are done
/// upfront (blocking, one at a time) so the async phase measures
/// steady-state request traffic.  Each task hands its stream back when its
/// rounds are done, so every connection is still open when `METRICS` is
/// scraped on `admin`; they close only after that.
fn run_storm(
    addr: &str,
    lists: Vec<Vec<GetRequest>>,
    admin: &mut Client,
) -> Result<(Tally, StormProbe), ClientError> {
    let runtime = Runtime::with_workers(STORM_WORKERS);
    let mut tasks = Vec::with_capacity(lists.len());
    for requests in lists {
        let stream = TcpStream::from_std(&runtime, connect_handshaken(addr)?)
            .map_err(|err| ClientError::Wire(WireError::Io(err)))?;
        tasks.push((stream, requests));
    }
    let tasks: Vec<_> = tasks
        .into_iter()
        .map(|(stream, requests)| {
            runtime.spawn(async move {
                let mut tally = Tally::new();
                let mut reader = FrameReader::new();
                let total = requests.len();
                for (id, request) in requests.into_iter().enumerate() {
                    let sent = Instant::now();
                    let result = storm_round_trip(&stream, &mut reader, id as u64, request).await;
                    let outcome = Outcome::classify(result.as_ref());
                    tally.outcomes.add(outcome, 1);
                    if result.is_ok() {
                        tally.latency.record(elapsed_us(sent));
                    }
                    if outcome == Outcome::Reconnect {
                        // A storm connection is not replaced mid-run: what
                        // it had left to send goes unexplained.
                        tally
                            .outcomes
                            .add(Outcome::Unexplained, (total - id - 1) as u64);
                        break;
                    }
                }
                (stream, tally)
            })
        })
        .collect();

    let mut tally = Tally::new();
    let mut open = Vec::with_capacity(tasks.len());
    for task in tasks {
        if let Ok((stream, part)) = block_on(task) {
            tally.merge(&part);
            open.push(stream);
        }
    }
    let metrics = admin.metrics()?;
    drop(open);
    let gauge = |name| u32::try_from(metrics.gauge(name)).unwrap_or(u32::MAX);
    let scheduler = runtime.scheduler_stats();
    Ok((
        tally,
        StormProbe {
            server_threads: gauge("process.threads"),
            server_workers: gauge("runtime.workers"),
            server_sessions: gauge("server.sessions"),
            client_steals: scheduler.steals,
            client_parks: scheduler.parks,
        },
    ))
}

/// One storm request on `stream`, answered as a [`Client`] call would
/// answer it.  The request goes out as one length-prefixed `write_all`
/// (a [`wire::FrameWriter`] flush would feed the server's write-stall
/// histogram in the same process registry); the reply is read through the
/// connection's `reader`.
async fn storm_round_trip(
    stream: &TcpStream,
    reader: &mut FrameReader,
    id: u64,
    request: GetRequest,
) -> Result<GetResponse, ClientError> {
    let body = wire::encode_request(id, &Request::Get(request));
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&body);
    stream.write_all(&frame).await.map_err(WireError::Io)?;
    let reply = reader
        .next_frame(stream)
        .await?
        .ok_or(WireError::Truncated {
            context: "response frame",
        })?;
    let (reply_id, response) = wire::decode_response(reply)?;
    if reply_id != id {
        return Err(ClientError::Wire(WireError::Protocol(format!(
            "response id {reply_id} does not match request id {id}"
        ))));
    }
    match response {
        Response::Get(response) => Ok(response),
        Response::Error { message } => Err(ClientError::Server { message }),
        Response::Busy { retry_after_us } => Err(ClientError::Busy { retry_after_us }),
        _ => Err(ClientError::UnexpectedResponse { expected: "GET" }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;

    fn answered(source: WireSource) -> GetResponse {
        GetResponse {
            source,
            cost_blocks: 1.0,
            full_len: 0,
            prefix: Vec::new(),
            service_us: 0,
            deadline_exceeded: false,
        }
    }

    #[test]
    fn classifier_maps_every_source_and_error_to_its_bucket() {
        for (source, bucket) in [
            (WireSource::Hit, Outcome::Hit),
            (WireSource::Executed, Outcome::Executed),
            (WireSource::Coalesced, Outcome::Coalesced),
            (WireSource::Stale, Outcome::Stale),
        ] {
            assert_eq!(Outcome::classify(Ok(&answered(source))), bucket);
        }
        let server = |message: &str| ClientError::Server {
            message: message.to_owned(),
        };
        for (error, bucket) in [
            (server("fetch failed: injected"), Outcome::FetchError),
            (server("no such table"), Outcome::Unexplained),
            (ClientError::Busy { retry_after_us: 5 }, Outcome::Busy),
            (
                ClientError::Wire(WireError::Truncated {
                    context: "response frame",
                }),
                Outcome::Reconnect,
            ),
            (
                ClientError::Connect {
                    addr: "127.0.0.1:1".to_owned(),
                    source: io::Error::from(io::ErrorKind::ConnectionRefused),
                },
                Outcome::Reconnect,
            ),
            (
                ClientError::UnexpectedResponse { expected: "GET" },
                Outcome::Unexplained,
            ),
        ] {
            assert_eq!(Outcome::classify(Err(&error)), bucket, "{error}");
        }
    }

    /// A report whose client tally matches its server delta exactly.
    fn balanced_report() -> Report {
        Report {
            connections: 1,
            pipeline: 1,
            requests: 10,
            outcomes: Outcomes {
                hits: 4,
                executed: 2,
                coalesced: 2,
                stale: 1,
                fetch_errors: 1,
                ..Outcomes::default()
            },
            latency_mean_us: 0.0,
            latency_p50_us: 0,
            latency_p95_us: 0,
            latency_p99_us: 0,
            wall_s: 1.0,
            throughput_qps: 10.0,
            server: ServerDelta {
                total: CacheStats {
                    references: 10,
                    hits: 4,
                    coalesced: 2,
                    stale_serves: 1,
                    fetch_errors: 1,
                    ..CacheStats::default()
                },
                ..ServerDelta::default()
            },
            storm: None,
            mid_run: None,
        }
    }

    #[test]
    fn tally_gate_rejects_a_tally_off_by_one() {
        assert_eq!(balanced_report().check_tally(), Ok(()));
        let skews: [fn(&mut Report); 7] = [
            |r| r.requests += 1,
            |r| r.outcomes.hits -= 1,
            |r| r.outcomes.executed += 1,
            |r| r.outcomes.coalesced += 1,
            |r| r.outcomes.stale -= 1,
            |r| r.outcomes.fetch_errors += 1,
            // A shed request: the client sent it, the engine never saw it.
            |r| {
                r.requests += 1;
                r.outcomes.busy += 1;
            },
        ];
        for (index, skew) in skews.iter().enumerate() {
            let mut report = balanced_report();
            skew(&mut report);
            assert!(report.check_tally().is_err(), "skew {index} passed");
        }
    }
}
