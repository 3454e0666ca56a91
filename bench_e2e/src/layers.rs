//! The adapter: the one module that names the crates under test.
//!
//! Every call the benchmark makes into `watchman-core`, `watchman-server`
//! and `watchman-sim` goes through here, so a refactor of those crates
//! (ROADMAP item 3 plans to fold `run_load`/`replay`, which is why neither
//! is used) touches this file and nothing else.  The surface is the one the
//! issue lists: `Workload`/`ExperimentScale`, `Client::{connect_with_retries,
//! get_many, invalidate_relation, stats, metrics, shutdown_server}`,
//! `serve`/`ServerConfig`, `Watchman::builder`, `PolicyKind::build`,
//! `QueryKey::from_raw_query`, the `wire` codec functions and
//! `FrameReader`/`FrameWriter`.

use std::time::Duration;

use watchman_core::clock::Timestamp;
use watchman_core::coherence::DependencyIndex;
use watchman_core::engine::{LookupSource, PolicyKind, StatsSnapshot, Watchman};
use watchman_core::key::QueryKey;
use watchman_core::policy::QueryCache;
use watchman_core::runtime::net::stats as net_stats;
use watchman_core::value::{ExecutionCost, SizedPayload};
use watchman_server::wire::{self, FrameReader, FrameWriter, Request, Response};
use watchman_server::{serve, Client, ServerConfig, ServerHandle};
use watchman_sim::{ExperimentScale, Workload};

pub use watchman_core::telemetry::MetricsSnapshot;
pub use watchman_server::wire::{GetRequest, GetResponse, WireSource};

/// The replacement policy of every configuration in this benchmark: the
/// paper's LNC-RA with its default reference window.
const POLICY: PolicyKind = PolicyKind::LncRa { k: 4 };

// ---------------------------------------------------------------------------
// trace
// ---------------------------------------------------------------------------

/// Which of the repo's trace generators feeds a workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// `Workload::tpcd`: the paper's uniform template mix.
    TpcdUniform,
    /// `Workload::tpcd_skewed`: a few dozen hot summaries against a stream
    /// of one-off detail queries.
    TpcdSkewed,
}

/// One generated query reference: what the program under test is sent.
#[derive(Clone, Copy)]
pub struct Query<'a> {
    pub text: &'a str,
    pub timestamp_us: u64,
    pub result_bytes: u64,
    pub cost_blocks: u64,
}

/// A generated trace plus the catalog facts the workloads need.
pub struct Trace {
    workload: Workload,
    /// 1 + the last timestamp: replaying the trace again with every
    /// timestamp shifted by a multiple of this keeps time strictly increasing.
    pub span_us: u64,
    pub database_bytes: u64,
    /// Base relation names, upper-case, in catalog order.
    pub relations: Vec<String>,
}

pub fn generate_trace(kind: TraceKind, queries: usize, seed: u64) -> Trace {
    let scale = ExperimentScale::quick(queries).with_seed(seed);
    let workload = match kind {
        TraceKind::TpcdUniform => Workload::tpcd(scale),
        TraceKind::TpcdSkewed => Workload::tpcd_skewed(scale),
    };
    let span_us = workload
        .trace
        .records
        .last()
        .map_or(1, |record| record.timestamp_us + 1);
    let relations = workload
        .benchmark
        .catalog()
        .relations()
        .iter()
        .map(|relation| relation.name.to_ascii_uppercase())
        .collect();
    Trace {
        database_bytes: workload.database_bytes(),
        workload,
        span_us,
        relations,
    }
}

impl Trace {
    pub fn len(&self) -> usize {
        self.workload.trace.len()
    }

    pub fn query(&self, index: usize) -> Query<'_> {
        let record = &self.workload.trace.records[index];
        Query {
            text: &record.query_text,
            timestamp_us: record.timestamp_us,
            result_bytes: record.result_bytes,
            cost_blocks: record.cost_blocks,
        }
    }

    /// Names of the base relations query `index` reads (the warehouse
    /// manager's knowledge of a query plan; the coherence rung registers
    /// these as the cached set's dependencies).
    pub fn relations_read(&self, index: usize) -> Vec<&str> {
        let instance = self.workload.trace.records[index].instance;
        self.workload
            .benchmark
            .access_counts(instance)
            .iter()
            .map(|(relation, _)| self.relations[relation.index()].as_str())
            .collect()
    }
}

// ---------------------------------------------------------------------------
// key
// ---------------------------------------------------------------------------

pub type Key = QueryKey;

pub fn derive_key(text: &str) -> Key {
    QueryKey::from_raw_query(text)
}

pub fn signature_of(key: &Key) -> u64 {
    key.signature().value()
}

/// Which of `shards` policies a key belongs to.  This mirrors the engine's
/// private routing so the bare-policy rung sees the key split the engine
/// rung sees; were the engine to route differently, the two rungs would
/// still get statistically alike quarters of the keys.
pub fn shard_of(key: &Key, shards: usize) -> usize {
    let mixed = signature_of(key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mixed >> 32) as usize % shards
}

// ---------------------------------------------------------------------------
// counters shared by the engine and the wire paths
// ---------------------------------------------------------------------------

/// The `StatsSnapshot` fields the benchmark reads, flattened.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct Counters {
    pub references: u64,
    pub hits: u64,
    pub coalesced: u64,
    pub fetch_errors: u64,
    pub stale_serves: u64,
    pub misses: u64,
    pub total_cost: f64,
    pub saved_cost: f64,
    pub offered: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub evictions: u64,
    pub sheds: u64,
    /// Resident sets at snapshot time (a level, not a counter: `since`
    /// keeps the later value).
    pub entries: u64,
}

impl Counters {
    fn of(snapshot: &StatsSnapshot) -> Counters {
        let total = &snapshot.total;
        Counters {
            references: total.references,
            hits: total.hits,
            coalesced: total.coalesced,
            fetch_errors: total.fetch_errors,
            stale_serves: total.stale_serves,
            misses: total.misses(),
            total_cost: total.total_cost,
            saved_cost: total.saved_cost,
            offered: total.insertions_offered,
            admitted: total.admissions,
            rejected: total.rejections,
            evictions: total.evictions,
            sheds: snapshot.sheds,
            entries: snapshot.entries as u64,
        }
    }

    /// The counters accumulated since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            references: self.references - earlier.references,
            hits: self.hits - earlier.hits,
            coalesced: self.coalesced - earlier.coalesced,
            fetch_errors: self.fetch_errors - earlier.fetch_errors,
            stale_serves: self.stale_serves - earlier.stale_serves,
            misses: self.misses - earlier.misses,
            total_cost: self.total_cost - earlier.total_cost,
            saved_cost: self.saved_cost - earlier.saved_cost,
            offered: self.offered - earlier.offered,
            admitted: self.admitted - earlier.admitted,
            rejected: self.rejected - earlier.rejected,
            evictions: self.evictions - earlier.evictions,
            sheds: self.sheds - earlier.sheds,
            entries: self.entries,
        }
    }

    pub fn csr(&self) -> f64 {
        self.saved_cost / self.total_cost
    }

    pub fn hit_ratio(&self) -> f64 {
        self.hits as f64 / self.references as f64
    }

    /// The engine's bookkeeping identity (ROADMAP, "correctness").
    pub fn balanced(&self) -> bool {
        self.references
            == self.hits + self.coalesced + self.fetch_errors + self.stale_serves + self.misses
    }
}

// ---------------------------------------------------------------------------
// policy (one shard's replacement/admission policy, no engine around it)
// ---------------------------------------------------------------------------

pub struct Policy(Box<dyn QueryCache<SizedPayload> + Send>);

impl Policy {
    /// What the engine builds inside itself: one policy per shard, each with
    /// an equal slice of the capacity.
    pub fn sharded(shards: usize, capacity_bytes: u64) -> Vec<Policy> {
        (0..shards)
            .map(|_| Policy(POLICY.build(capacity_bytes / shards as u64)))
            .collect()
    }

    pub fn get(&mut self, key: &Key, timestamp_us: u64) -> bool {
        self.0
            .get(key, Timestamp::from_micros(timestamp_us))
            .is_some()
    }

    /// Offers the set a miss produced; returns whether it was admitted.
    pub fn insert(&mut self, key: Key, query: Query<'_>, timestamp_us: u64) -> bool {
        self.0
            .insert(
                key,
                SizedPayload::new(query.result_bytes),
                ExecutionCost::from_blocks(query.cost_blocks),
                Timestamp::from_micros(timestamp_us),
            )
            .is_admitted()
    }

    pub fn remove(&mut self, key: &Key) -> bool {
        self.0.remove(key)
    }
}

// ---------------------------------------------------------------------------
// engine (the library front door)
// ---------------------------------------------------------------------------

/// How a lookup was answered, on either path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Source {
    Hit,
    Executed,
    Coalesced,
    Stale,
}

#[derive(Clone)]
pub struct Engine(Watchman<SizedPayload>);

impl Engine {
    pub fn new(shards: usize, capacity_bytes: u64) -> Engine {
        Engine(
            Watchman::builder()
                .shards(shards)
                .policy(POLICY)
                .capacity_bytes(capacity_bytes)
                .build(),
        )
    }

    /// One `get_or_execute`; `.1` is whether a miss was admitted.
    pub fn lookup(&self, key: &Key, query: Query<'_>, timestamp_us: u64) -> (Source, bool) {
        let (bytes, cost) = (query.result_bytes, query.cost_blocks);
        let lookup = self
            .0
            .get_or_execute(key, Timestamp::from_micros(timestamp_us), move || {
                (SizedPayload::new(bytes), ExecutionCost::from_blocks(cost))
            });
        let source = match lookup.source {
            LookupSource::Hit => Source::Hit,
            LookupSource::Executed => Source::Executed,
            LookupSource::Coalesced => Source::Coalesced,
            LookupSource::Stale => Source::Stale,
        };
        let admitted = lookup.outcome.is_some_and(|outcome| outcome.is_admitted());
        (source, admitted)
    }

    /// One `Watchman::stats_snapshot`, flattened.
    pub fn counters(&self) -> Counters {
        Counters::of(&self.0.stats_snapshot())
    }

    /// `Watchman::invalidate_relation`; returns `(affected, invalidated)`.
    pub fn invalidate_relation(&self, deps: &mut Dependencies, relation: &str) -> (usize, usize) {
        let report = self.0.invalidate_relation(&mut deps.0, relation);
        (report.affected.len(), report.invalidated.len())
    }
}

/// The relation → cached-set index an embedding application keeps.
#[derive(Default)]
pub struct Dependencies(DependencyIndex);

impl Dependencies {
    pub fn register(&mut self, key: Key, relations: Vec<&str>) {
        self.0.register(key, relations);
    }

    /// Removes and returns the keys an update to `relation` makes stale.
    pub fn take_affected(&mut self, relation: &str) -> Vec<Key> {
        self.0.take_affected_by(relation)
    }
}

/// The process-global telemetry registry, for workloads with no server to
/// ask for `METRICS`.
pub fn local_metrics() -> MetricsSnapshot {
    watchman_core::telemetry::global().snapshot()
}

/// Two `METRICS` scrapes bracketing a phase.  The registry only ever
/// accumulates, so what a phase did is the difference.
pub struct MetricsDelta<'a> {
    pub before: &'a MetricsSnapshot,
    pub after: &'a MetricsSnapshot,
}

impl MetricsDelta<'_> {
    pub fn counter(&self, name: &str) -> f64 {
        self.after
            .counter(name)
            .saturating_sub(self.before.counter(name)) as f64
    }

    pub fn gauge(&self, name: &str) -> f64 {
        self.after.gauge(name) as f64
    }

    /// Quantile `q` of the values a histogram recorded during the phase, at
    /// the histogram's own resolution (buckets up to 25% wide); 0 when it
    /// recorded nothing.
    pub fn quantile(&self, name: &str, q: f64) -> f64 {
        let Some(after) = self.after.histogram(name) else {
            return 0.0;
        };
        let mut delta = after.clone();
        if let Some(before) = self.before.histogram(name) {
            for (bucket, earlier) in delta.buckets.iter_mut().zip(&before.buckets) {
                *bucket = bucket.saturating_sub(*earlier);
            }
            delta.count = delta.count.saturating_sub(before.count);
            delta.sum = delta.sum.wrapping_sub(before.sum);
        }
        delta.quantile(q) as f64
    }
}

// ---------------------------------------------------------------------------
// wire codec and framing, isolated from any socket
// ---------------------------------------------------------------------------

pub fn get_request(
    text: &str,
    query: Query<'_>,
    timestamp_us: u64,
    payload_prefix_cap: u32,
) -> GetRequest {
    GetRequest {
        key: text.to_owned(),
        timestamp_us,
        result_bytes: query.result_bytes,
        cost_blocks: query.cost_blocks,
        fetch_delay_us: 0,
        deadline_hint_us: 0,
        payload_prefix_cap,
    }
}

/// What the server would answer `query` with on a hit: the documented
/// synthesis rule (signature bytes repeated to `result_bytes`), cut to `cap`.
pub fn synthetic_response(signature: u64, query: Query<'_>, cap: u32) -> GetResponse {
    let len = query.result_bytes.min(u64::from(cap)) as usize;
    GetResponse {
        source: WireSource::Hit,
        cost_blocks: query.cost_blocks as f64,
        full_len: query.result_bytes,
        prefix: signature
            .to_le_bytes()
            .into_iter()
            .cycle()
            .take(len)
            .collect(),
        service_us: 1,
        deadline_exceeded: false,
    }
}

pub struct WireRequest(Request);
pub struct WireResponse(Response);

pub fn wrap_request(request: GetRequest) -> WireRequest {
    WireRequest(Request::Get(request))
}

pub fn wrap_response(response: GetResponse) -> WireResponse {
    WireResponse(Response::Get(response))
}

pub fn encode_request_into(out: &mut Vec<u8>, id: u64, request: &WireRequest) {
    wire::encode_request_into(out, id, &request.0);
}

pub fn decode_request(body: &[u8]) -> bool {
    wire::decode_request(body).is_ok()
}

pub fn encode_response_into(out: &mut Vec<u8>, id: u64, response: &WireResponse) -> bool {
    wire::encode_response_into(out, id, &response.0).is_ok()
}

pub fn decode_response(body: &[u8]) -> bool {
    wire::decode_response(body).is_ok()
}

pub struct Reader(FrameReader);

impl Reader {
    pub fn new() -> Reader {
        Reader(FrameReader::new())
    }

    pub fn feed(&mut self, bytes: &[u8]) {
        self.0.feed(bytes);
    }

    /// Length of the next complete frame body, if one is buffered.
    pub fn try_next_fed_frame(&mut self) -> Option<usize> {
        self.0.try_next_fed_frame().ok().flatten().map(<[u8]>::len)
    }
}

pub struct Writer(FrameWriter);

impl Writer {
    pub fn new() -> Writer {
        Writer(FrameWriter::new())
    }

    pub fn stage_response(&mut self, id: u64, response: &WireResponse) -> bool {
        self.0.stage_response(id, &response.0).is_ok()
    }
}

// ---------------------------------------------------------------------------
// the live wire path
// ---------------------------------------------------------------------------

pub struct Connection(Client);

impl Connection {
    /// Connects with retries, riding out a `watchmand` that is still
    /// starting up.
    pub fn open(addr: &str) -> Result<Connection, String> {
        Client::connect_with_retries(addr, 200, Duration::from_millis(10))
            .map(Connection)
            .map_err(|error| error.to_string())
    }

    pub fn get_many(&mut self, batch: Vec<GetRequest>) -> Result<Vec<GetResponse>, String> {
        self.0.get_many(batch).map_err(|error| error.to_string())
    }

    /// Returns `(affected, invalidated)`.
    pub fn invalidate_relation(&mut self, relation: &str) -> Result<(u32, u32), String> {
        self.0
            .invalidate_relation(relation)
            .map_err(|error| error.to_string())
    }

    pub fn counters(&mut self) -> Result<Counters, String> {
        self.0
            .stats()
            .map(|snapshot| Counters::of(&snapshot))
            .map_err(|error| error.to_string())
    }

    pub fn metrics(&mut self) -> Result<MetricsSnapshot, String> {
        self.0.metrics().map_err(|error| error.to_string())
    }

    pub fn shutdown_server(&mut self) -> Result<(), String> {
        self.0.shutdown_server().map_err(|error| error.to_string())
    }
}

/// Flags that give a `watchmand` child the configuration every wire
/// workload shares, at `capacity_bytes`.
pub fn watchmand_args(capacity_bytes: u64) -> Vec<String> {
    [
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "1",
        "--shards",
        "4",
        "--policy",
        "lnc-ra",
        "--k",
        "4",
        "--capacity-bytes",
        &capacity_bytes.to_string(),
    ]
    .map(str::to_owned)
    .to_vec()
}

/// The same server as [`watchmand_args`] describes, inside this process, so
/// the counting allocator and `net::stats` see it (traced run only).
pub struct LocalServer(ServerHandle);

impl LocalServer {
    pub fn start(capacity_bytes: u64) -> Result<LocalServer, String> {
        serve(ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards: 4,
            policy: POLICY,
            capacity_bytes,
            runtime_workers: 1,
            ..ServerConfig::default()
        })
        .map(LocalServer)
        .map_err(|error| error.to_string())
    }

    pub fn addr(&self) -> String {
        self.0.addr().to_string()
    }

    pub fn stop(self) {
        self.0.join();
    }
}

/// `recv` + `send` syscalls the in-process server's sessions have issued.
pub fn net_syscalls() -> u64 {
    net_stats::read_syscalls() + net_stats::write_syscalls()
}
