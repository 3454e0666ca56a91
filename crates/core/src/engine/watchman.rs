//! The sharded concurrent cache engine.

use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::clock::Timestamp;
use crate::coherence::DependencyIndex;
use crate::engine::events::{CacheEvent, CacheObserver};
use crate::engine::failure::{
    BreakerState, CircuitBreaker, FailureConfig, FetchError, LookupError, NegativeCacheConfig,
    StalenessPolicy,
};
use crate::engine::policy_kind::PolicyKind;
use crate::engine::rebalance::{plan_transfer, RebalanceConfig, RebalanceOutcome, ShardSignal};
use crate::engine::single_flight::{Flight, FlightOutcome, LeaderOutcome, WaiterSlot};
use crate::key::QueryKey;
use crate::metrics::{CacheStats, FragmentationTracker};
use crate::policy::{InsertOutcome, QueryCache};
use crate::runtime::{Runtime, Sleep};
use crate::sync::{Mutex, MutexGuard};
use crate::telemetry::TraceKind;
use crate::value::{CachePayload, ExecutionCost};

/// Records a finished lookup into the outcome-keyed telemetry histograms
/// ([`crate::telemetry`]): latency from the session's first touch of the
/// engine to the resolved lookup, bucketed by how it resolved.  A coalesced
/// resolution also feeds the single-flight wait histogram — for a waiter,
/// the whole lookup *was* the wait.
fn record_lookup_telemetry(started: Option<Instant>, source: LookupSource) {
    let Some(started) = started else { return };
    let micros = crate::telemetry::elapsed_us(started);
    let telemetry = crate::telemetry::global();
    match source {
        LookupSource::Hit => telemetry.lookup_hit_us.record(micros),
        LookupSource::Executed => telemetry.lookup_executed_us.record(micros),
        LookupSource::Coalesced => {
            telemetry.lookup_coalesced_us.record(micros);
            telemetry.singleflight_wait_us.record(micros);
        }
        LookupSource::Stale => telemetry.lookup_stale_us.record(micros),
    }
}

/// The error-outcome analogue of [`record_lookup_telemetry`].
fn record_lookup_error_telemetry(started: Option<Instant>) {
    let Some(started) = started else { return };
    crate::telemetry::global()
        .lookup_error_us
        .record(crate::telemetry::elapsed_us(started));
}

/// Publishes an insert's side effects to telemetry: the shard's occupancy
/// gauge and the global eviction counter.  Called under the shard lock (both
/// targets are atomics, so this adds no lock class).
fn record_insert_telemetry(shard_index: usize, used_bytes: u64, outcome: &InsertOutcome) {
    let telemetry = crate::telemetry::global();
    telemetry.set_shard_used(shard_index, used_bytes);
    match outcome {
        InsertOutcome::Admitted { evicted } | InsertOutcome::AlreadyCached { evicted } => {
            if !evicted.is_empty() {
                telemetry.evictions.add(evicted.len() as u64);
            }
        }
        InsertOutcome::Rejected(_) => {}
    }
}

/// Pluggable key normalization applied to every key entering the engine.
///
/// The paper matches queries by exact (delimiter-compressed) text; §6 lists a
/// cheaper-than-rewrite equivalence test as future work.  The engine makes
/// that choice a configuration knob: [`KeyNormalizer::Exact`] is the paper's
/// behavior, [`KeyNormalizer::CanonicalSql`] routes every key through
/// [`crate::equivalence::canonical_key`] so syntactically different but
/// canonically equivalent queries share one cache entry, and
/// [`KeyNormalizer::Custom`] accepts any user function.
#[derive(Clone)]
pub enum KeyNormalizer {
    /// Exact query-ID matching (the paper's §3 lookup).
    Exact,
    /// Canonical-SQL matching via the [`crate::equivalence`] canonicalizer.
    CanonicalSql,
    /// A caller-supplied normalization function.
    Custom(Arc<dyn Fn(&QueryKey) -> QueryKey + Send + Sync>),
}

impl std::fmt::Debug for KeyNormalizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyNormalizer::Exact => f.write_str("Exact"),
            KeyNormalizer::CanonicalSql => f.write_str("CanonicalSql"),
            KeyNormalizer::Custom(_) => f.write_str("Custom(..)"),
        }
    }
}

impl KeyNormalizer {
    fn apply(&self, key: &QueryKey) -> QueryKey {
        match self {
            KeyNormalizer::Exact => key.clone(),
            KeyNormalizer::CanonicalSql => crate::equivalence::canonical_key(&key.to_string()),
            KeyNormalizer::Custom(normalize) => normalize(key),
        }
    }
}

/// Where a [`Watchman::get_or_execute`] result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupSource {
    /// The retrieved set was already cached.
    Hit,
    /// This session executed the query (it was the single-flight leader).
    Executed,
    /// Another session was already executing the same query; this session
    /// waited for its result instead of re-executing.
    Coalesced,
    /// The fetch failed (or the shard's circuit breaker was open) and the
    /// engine served the last-known-good value instead.  Stale serves pay
    /// their cost into `total_cost` but never into `saved_cost`, so they can
    /// not inflate the paper's cost-savings ratio.
    Stale,
}

/// The result of a [`Watchman::get_or_execute`] call.
#[derive(Debug)]
pub struct Lookup<V> {
    /// The retrieved set, shared without copying.
    pub value: Arc<V>,
    /// How the value was obtained.
    pub source: LookupSource,
    /// The admission outcome, when this session executed the query.
    pub outcome: Option<InsertOutcome>,
}

/// An owned, aggregated snapshot of the engine's statistics.
///
/// The snapshot is *atomic*: every shard is locked for the duration of the
/// read, so the per-shard capacities always sum to the configured total even
/// while a rebalance pass is moving bytes between shards.
///
/// Snapshots are serde-serializable: the server's `STATS` opcode, the
/// benchmark reports and the load generator all exchange this one schema
/// (JSON round-trips are exact — every counter is an integer and the float
/// accumulators print in shortest round-trip form).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Counters summed across every shard.
    pub total: CacheStats,
    /// The per-shard counters, indexed by shard.
    pub per_shard: Vec<CacheStats>,
    /// The per-shard capacities in bytes, indexed by shard.  With
    /// rebalancing enabled these drift away from the static `total/N` split
    /// toward the profit-heavy shards; they always sum to `capacity_bytes`.
    pub per_shard_capacity: Vec<u64>,
    /// The per-shard occupancies in bytes, indexed by shard.  Each entry is
    /// bounded by the matching `per_shard_capacity` entry.
    pub per_shard_used: Vec<u64>,
    /// Bytes currently cached, summed across shards.
    pub used_bytes: u64,
    /// Total configured capacity across shards.
    pub capacity_bytes: u64,
    /// Number of cached retrieved sets across shards.
    pub entries: usize,
    /// Number of misses whose execution was coalesced into another session's
    /// in-flight query instead of re-executing.  Equals `total.coalesced`.
    pub coalesced_misses: u64,
    /// Number of capacity transfers the rebalancer has performed.
    pub rebalances: u64,
    /// Number of fetch retries the fallible pipeline issued (attempts beyond
    /// the first, across every key).
    pub fetch_retries: u64,
    /// Number of lookups answered straight from the per-shard negative cache
    /// (a memoized recent fetch failure) without invoking the fetch closure.
    pub negative_hits: u64,
    /// Total circuit-breaker state transitions across shards
    /// (closed→open, open→half-open, half-open→closed, half-open→open).
    pub breaker_transitions: u64,
    /// Requests refused by the server's overload admission gate.  The engine
    /// itself never sheds — this is always zero in engine-produced snapshots
    /// and is filled in by `watchmand` before a STATS response is encoded.
    pub sheds: u64,
    /// Storage-fragmentation statistics (the paper's tertiary metric): each
    /// snapshot call records one `used/capacity` sample into the engine's
    /// tracker and copies the accumulated series out here.
    pub fragmentation: FragmentationTracker,
}

impl StatsSnapshot {
    /// The aggregate hit ratio.
    pub fn hit_ratio(&self) -> f64 {
        self.total.hit_ratio()
    }

    /// The aggregate cost savings ratio (the paper's primary metric).
    pub fn cost_savings_ratio(&self) -> f64 {
        self.total.cost_savings_ratio()
    }
}

/// A last-known-good value retained for stale serving after its cache entry
/// is gone (evicted or superseded by a failing refetch).
struct StaleEntry<V> {
    value: Arc<V>,
    cost: ExecutionCost,
    size_bytes: u64,
    stored: Timestamp,
}

/// A memoized fetch failure with an expiry.
struct NegativeEntry {
    error: Arc<FetchError>,
    expires: Timestamp,
}

/// Per-shard failure-domain state.  Lives *inside* the shard mutex, so it
/// introduces no new lock class: every breaker/stale/negative operation
/// happens under the same shard lock that already guards the cache and the
/// in-flight map (see CONCURRENCY.md).
struct ShardFailureState<V> {
    breaker: Option<CircuitBreaker>,
    stale: HashMap<QueryKey, StaleEntry<V>>,
    stale_order: VecDeque<QueryKey>,
    negative: HashMap<QueryKey, NegativeEntry>,
    negative_order: VecDeque<QueryKey>,
}

impl<V> ShardFailureState<V> {
    fn new(breaker: Option<CircuitBreaker>) -> Self {
        ShardFailureState {
            breaker,
            stale: HashMap::new(),
            stale_order: VecDeque::new(),
            negative: HashMap::new(),
            negative_order: VecDeque::new(),
        }
    }

    /// Record a last-known-good value.  Bounded FIFO: the oldest first-stored
    /// key is dropped once the store exceeds the policy's `max_entries`.
    fn store_stale(
        &mut self,
        key: &QueryKey,
        value: Arc<V>,
        cost: ExecutionCost,
        size_bytes: u64,
        now: Timestamp,
        policy: &StalenessPolicy,
    ) {
        if policy.max_entries == 0 {
            return;
        }
        if self
            .stale
            .insert(
                key.clone(),
                StaleEntry {
                    value,
                    cost,
                    size_bytes,
                    stored: now,
                },
            )
            .is_some()
        {
            self.stale_order.retain(|k| k != key);
        }
        self.stale_order.push_back(key.clone());
        while self.stale.len() > policy.max_entries {
            match self.stale_order.pop_front() {
                Some(evict) => {
                    self.stale.remove(&evict);
                }
                None => break,
            }
        }
    }

    /// The last-known-good value for `key`, if one exists and the staleness
    /// policy judges it worth serving at `now`.
    fn stale_for(
        &self,
        key: &QueryKey,
        now: Timestamp,
        policy: &StalenessPolicy,
    ) -> Option<(Arc<V>, ExecutionCost)> {
        let entry = self.stale.get(key)?;
        if policy.worth_serving(entry.cost, entry.size_bytes, entry.stored, now) {
            Some((Arc::clone(&entry.value), entry.cost))
        } else {
            None
        }
    }

    fn drop_stale(&mut self, key: &QueryKey) {
        if self.stale.remove(key).is_some() {
            self.stale_order.retain(|k| k != key);
        }
    }

    /// Memoize a terminal fetch failure.  Bounded FIFO like the stale store.
    fn store_negative(
        &mut self,
        key: &QueryKey,
        error: Arc<FetchError>,
        now: Timestamp,
        config: &NegativeCacheConfig,
    ) {
        if config.max_entries == 0 || config.ttl_us == 0 {
            return;
        }
        let expires = now.advanced_by(config.ttl_us);
        if self
            .negative
            .insert(key.clone(), NegativeEntry { error, expires })
            .is_some()
        {
            self.negative_order.retain(|k| k != key);
        }
        self.negative_order.push_back(key.clone());
        while self.negative.len() > config.max_entries {
            match self.negative_order.pop_front() {
                Some(evict) => {
                    self.negative.remove(&evict);
                }
                None => break,
            }
        }
    }

    /// The memoized failure for `key` if it has not expired; expired entries
    /// are removed lazily on the way past.
    fn fresh_negative(&mut self, key: &QueryKey, now: Timestamp) -> Option<Arc<FetchError>> {
        match self.negative.get(key) {
            Some(entry) if now.as_micros() < entry.expires.as_micros() => {
                Some(Arc::clone(&entry.error))
            }
            Some(_) => {
                self.negative.remove(key);
                self.negative_order.retain(|k| k != key);
                None
            }
            None => None,
        }
    }

    fn drop_negative(&mut self, key: &QueryKey) {
        if self.negative.remove(key).is_some() {
            self.negative_order.retain(|k| k != key);
        }
    }
}

struct ShardState<V> {
    cache: Box<dyn QueryCache<Arc<V>> + Send>,
    inflight: HashMap<QueryKey, Arc<Flight<V>>>,
    failure: ShardFailureState<V>,
}

struct Shard<V> {
    state: Mutex<ShardState<V>>,
}

impl<V> ShardState<V> {
    /// Removes `flight`'s cell from the in-flight table, if it is still the
    /// one registered for `key`: a racer that cloned an abandoned cell's
    /// `Arc` before its retirement can still take the orphan over and settle
    /// it, by which time the entry is gone or belongs to a fresh flight.
    fn retire(&mut self, key: &QueryKey, flight: &Arc<Flight<V>>) {
        if self
            .inflight
            .get(key)
            .is_some_and(|entry| Arc::ptr_eq(entry, flight))
        {
            self.inflight.remove(key);
        }
    }

    /// Retires a cell that no session is left to resolve.  This is the one
    /// place a half-open probe ticket is *returned*: the cell's fetch ended
    /// without an outcome for the breaker (its leader panicked or was
    /// cancelled, and nobody took the flight over), so the ticket it drew at
    /// admission goes back for the next arrival to draw.
    fn retire_unresolved(&mut self, key: &QueryKey, flight: &Arc<Flight<V>>) {
        self.retire(key, flight);
        if flight.take_probe() {
            if let Some(breaker) = self.failure.breaker.as_mut() {
                breaker.release_probe();
            }
        }
    }
}

impl<V> Shard<V> {
    fn lock(&self) -> MutexGuard<'_, ShardState<V>> {
        self.state.lock()
    }

    /// Abandons `flight` — its leader panicked, was cancelled, or passed on
    /// a takeover — waking one waiter to take it over; when no waiter holds
    /// a claim on it, retires the cell instead.  Without that, a panicking
    /// key that is never re-requested would leak its cell (and panic
    /// payload) forever.
    ///
    /// This is the single abandon path: shard lock first, then the flight's
    /// own lock inside [`Flight::abandon`], so the zero-waiter check and the
    /// removal are atomic against new sessions joining the flight.  The
    /// worst case of the orphan race described at [`ShardState::retire`] is
    /// one duplicate execution.
    fn abandon(&self, key: &QueryKey, flight: &Arc<Flight<V>>) {
        let mut state = self.lock();
        if flight.abandon() == 0 {
            state.retire_unresolved(key, flight);
        }
    }

    /// Deregisters a cancelled waiter (same lock order as
    /// [`Shard::abandon`]).  If it had been woken to take an abandoned
    /// flight over, the wake moves to the next waiter; if it was the last
    /// one, the cell is retired.
    fn forget_waiter(&self, key: &QueryKey, flight: &Arc<Flight<V>>, slot: &mut WaiterSlot) {
        let mut state = self.lock();
        if flight.forget_waiter(slot) {
            state.retire_unresolved(key, flight);
        }
    }
}

/// The rebalancer's mutable bookkeeping, behind one mutex that also
/// serializes passes.
struct RebalancePassState {
    /// Per-shard cumulative pressure (rejections + evictions) observed at
    /// the previous pass.
    last_pressure: Vec<u64>,
    /// Exponentially smoothed per-shard step gain ([`QueryCache::grow_gain`]).
    /// Instantaneous profit estimates spike transiently — a single valuable
    /// eviction inflates a shard's retained store for several passes — and
    /// paying real evictions for a spike is how a rebalancer starts
    /// thrashing.  Smoothing across passes lets only *persistent* starvation
    /// attract capacity.
    smoothed_gain: Vec<f64>,
    /// Exponentially smoothed per-shard step loss ([`QueryCache::shrink_loss`]).
    smoothed_loss: Vec<f64>,
    /// Number of passes run (including ones that moved nothing).
    pass_index: u64,
    /// The last executed transfer, as (donor, recipient, pass_index).
    /// Shrinking a shard feeds its own starvation signal (the evicted sets
    /// land in its retained store), so an unchecked planner slowly sloshes
    /// capacity back and forth between two shards; refusing to reverse the
    /// most recent transfer for a cooldown period breaks that feedback loop.
    last_transfer: Option<(usize, usize, u64)>,
}

struct RebalancerState {
    config: RebalanceConfig,
    rebalances: AtomicU64,
    /// Passes run (including ones that moved nothing), for observability and
    /// for the no-pass-on-request-path tests.
    passes: AtomicU64,
    pass: Mutex<RebalancePassState>,
    /// Thread identities of every pass, recorded in unit tests to prove that
    /// passes never run on a session thread.
    #[cfg(test)]
    pass_threads: Mutex<Vec<std::thread::ThreadId>>,
}

/// A one-shot signal the engine fires at drop to stop its background
/// rebalance task, even when the task lives on a *shared* runtime that
/// outlives the engine.
#[derive(Default)]
struct ShutdownCell {
    fired: AtomicBool,
    waker: Mutex<Option<Waker>>,
}

impl ShutdownCell {
    fn register(&self, waker: &Waker) {
        *self.waker.lock() = Some(waker.clone());
    }

    fn fire(&self) {
        self.fired.store(true, Ordering::Release);
        let waker = self.waker.lock().take();
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    fn is_fired(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }
}

/// Where the engine's runtime comes from: an externally shared one, or a
/// lazily created owned pool (no threads are spawned until the first async
/// leader or background task needs them — purely synchronous, hit-heavy
/// usage never pays for a pool).
struct RuntimeSlot {
    external: Option<Arc<Runtime>>,
    workers: usize,
    own: OnceLock<Arc<Runtime>>,
}

impl RuntimeSlot {
    fn get(&self) -> Arc<Runtime> {
        match &self.external {
            Some(runtime) => Arc::clone(runtime),
            None => Arc::clone(
                self.own
                    .get_or_init(|| Arc::new(Runtime::with_workers(self.workers))),
            ),
        }
    }
}

struct Inner<V> {
    shards: Vec<Shard<V>>,
    observers: Vec<Arc<dyn CacheObserver>>,
    normalizer: KeyNormalizer,
    policy: PolicyKind,
    total_capacity_bytes: u64,
    coalesced_misses: AtomicU64,
    /// Failure-domain configuration for the fallible fetch pipeline.
    failure: FailureConfig,
    /// Fetch retries issued by the fallible pipeline (attempts beyond the
    /// first), across every key and shard.
    fetch_retries: AtomicU64,
    /// Lookups answered straight from a shard's negative cache.
    negative_hits: AtomicU64,
    rebalancer: Option<RebalancerState>,
    runtime: RuntimeSlot,
    /// The latest logical timestamp any operation carried, in microseconds.
    /// The background rebalance task evaluates victim profits "now", and the
    /// engine's notion of now is whatever the sessions last said it was.
    latest_now: AtomicU64,
    /// Fired on drop so the background rebalance task exits promptly even on
    /// a shared runtime.
    rebalance_shutdown: OnceLock<Arc<ShutdownCell>>,
    /// Storage-fragmentation sample series, fed by [`Watchman::stats_snapshot`]
    /// (one `used/capacity` sample per snapshot).  A leaf lock: taken while
    /// holding every shard lock, never the other way around.
    fragmentation: Mutex<FragmentationTracker>,
}

impl<V> Drop for Inner<V> {
    fn drop(&mut self) {
        if let Some(cell) = self.rebalance_shutdown.get() {
            cell.fire();
        }
    }
}

/// Configures and builds a [`Watchman`] engine.
///
/// ```
/// use watchman_core::engine::{PolicyKind, Watchman};
/// use watchman_core::value::SizedPayload;
///
/// let engine: Watchman<SizedPayload> = Watchman::builder()
///     .shards(8)
///     .policy(PolicyKind::LncRa { k: 4 })
///     .capacity_bytes(64 << 20)
///     .build();
/// assert_eq!(engine.shard_count(), 8);
/// assert_eq!(engine.capacity_bytes(), 64 << 20);
/// ```
pub struct WatchmanBuilder<V> {
    shards: usize,
    policy: PolicyKind,
    capacity_bytes: u64,
    normalizer: KeyNormalizer,
    observers: Vec<Arc<dyn CacheObserver>>,
    rebalance: Option<RebalanceConfig>,
    runtime: Option<Arc<Runtime>>,
    runtime_workers: usize,
    failure: FailureConfig,
    _payload: std::marker::PhantomData<fn() -> V>,
}

impl<V> std::fmt::Debug for WatchmanBuilder<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WatchmanBuilder")
            .field("shards", &self.shards)
            .field("policy", &self.policy)
            .field("capacity_bytes", &self.capacity_bytes)
            .field("normalizer", &self.normalizer)
            .field("observers", &self.observers.len())
            .field("rebalance", &self.rebalance)
            .field("runtime", &self.runtime.is_some())
            .field("runtime_workers", &self.runtime_workers)
            .finish()
    }
}

impl<V> Default for WatchmanBuilder<V> {
    fn default() -> Self {
        WatchmanBuilder {
            shards: 1,
            policy: PolicyKind::LNC_RA,
            capacity_bytes: 0,
            normalizer: KeyNormalizer::Exact,
            observers: Vec::new(),
            rebalance: None,
            runtime: None,
            runtime_workers: 2,
            failure: FailureConfig::default(),
            _payload: std::marker::PhantomData,
        }
    }
}

impl<V> WatchmanBuilder<V> {
    /// Sets the number of shards the keyspace is hash-partitioned across.
    ///
    /// Each shard holds an independent policy instance behind its own lock,
    /// so sessions touching different shards never contend.  Values are
    /// clamped to at least 1.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the replacement/admission policy every shard runs.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the total cache capacity, split evenly across shards.
    pub fn capacity_bytes(mut self, capacity_bytes: u64) -> Self {
        self.capacity_bytes = capacity_bytes;
        self
    }

    /// Sets the key-normalization step applied to every key.
    pub fn normalizer(mut self, normalizer: KeyNormalizer) -> Self {
        self.normalizer = normalizer;
        self
    }

    /// Routes every key through the [`crate::equivalence`] canonicalizer so
    /// canonically equivalent queries share one cache entry.
    pub fn canonical_sql_matching(self) -> Self {
        self.normalizer(KeyNormalizer::CanonicalSql)
    }

    /// Subscribes an observer to the engine's [`CacheEvent`] stream.
    pub fn observer(mut self, observer: Arc<dyn CacheObserver>) -> Self {
        self.observers.push(observer);
        self
    }

    /// Enables profit-aware capacity rebalancing between shards.
    ///
    /// Without this, every shard keeps its static `total/N` split for the
    /// engine's lifetime.  Passes run on a background runtime task every
    /// [`RebalanceConfig::period`] (never on a session's request path); a
    /// `manual()` config leaves scheduling to explicit
    /// [`Watchman::rebalance_now`] calls.  See [`RebalanceConfig`] for the
    /// profit signal and pass mechanics.
    pub fn rebalance(mut self, config: RebalanceConfig) -> Self {
        self.rebalance = Some(config.sanitized());
        self
    }

    /// Shares an externally owned [`Runtime`] instead of letting the engine
    /// lazily create its own pool.  Several engines may share one runtime;
    /// each engine's background task still stops when *its* engine is
    /// dropped.
    pub fn runtime(mut self, runtime: Arc<Runtime>) -> Self {
        self.runtime = Some(runtime);
        self
    }

    /// Sets the worker count of the engine's own lazily created runtime
    /// (ignored when [`WatchmanBuilder::runtime`] supplies one).  Each
    /// in-flight fetch occupies a worker for its duration, so this is the
    /// engine's execution multiprogramming level.  Defaults to 2.
    pub fn runtime_workers(mut self, workers: usize) -> Self {
        self.runtime_workers = workers.max(1);
        self
    }

    /// Configures the failure domain of the fallible fetch pipeline
    /// ([`Watchman::try_get_or_execute`] /
    /// [`Watchman::try_get_or_execute_async`]): the leader's retry policy,
    /// the per-shard circuit breaker, the staleness policy that gates
    /// last-known-good serving, and the negative cache for memoized
    /// failures.  The default config retries transient errors with seeded
    /// exponential backoff but enables neither breaker nor stale serving.
    pub fn failure(mut self, config: FailureConfig) -> Self {
        self.failure = config;
        self
    }

    /// Builds the engine.
    ///
    /// The configured capacity is split evenly across shards (any division
    /// remainder goes to the first shards, so the shard capacities always sum
    /// to the configured total).  When the total capacity is positive but
    /// smaller than the shard count, the shard count is clamped down so that
    /// no shard is created with zero bytes — an even `total/N` split would
    /// otherwise leave shards that reject every insert with `ZeroCapacity`.
    pub fn build(self) -> Watchman<V>
    where
        V: CachePayload + Send + Sync + 'static,
    {
        // Clamp away zero-byte shards: with 0 < capacity < shards an even
        // split would hand some shards 0 bytes, silently voiding the slice of
        // the keyspace hashed onto them.
        let shard_count = if self.capacity_bytes == 0 {
            self.shards
        } else {
            self.shards
                .min(usize::try_from(self.capacity_bytes).unwrap_or(usize::MAX))
                .max(1)
        };
        let base = self.capacity_bytes / shard_count as u64;
        let remainder = self.capacity_bytes % shard_count as u64;
        let shards: Vec<Shard<V>> = (0..shard_count)
            .map(|i| {
                // Distribute the division remainder so capacities sum exactly.
                let capacity = base + u64::from((i as u64) < remainder);
                Shard {
                    // The shard index is the lock's declared rank: whenever
                    // two shard locks nest (rebalance transfers, atomic
                    // snapshots) they must be acquired in index order.
                    state: Mutex::with_rank(
                        u32::try_from(i).unwrap_or(u32::MAX),
                        ShardState {
                            cache: self.policy.build::<Arc<V>>(capacity),
                            inflight: HashMap::new(),
                            failure: ShardFailureState::new(
                                self.failure.breaker.clone().map(CircuitBreaker::new),
                            ),
                        },
                    ),
                }
            })
            .collect();
        let rebalancer = self.rebalance.as_ref().map(|config| RebalancerState {
            config: config.clone(),
            rebalances: AtomicU64::new(0),
            passes: AtomicU64::new(0),
            pass: Mutex::new(RebalancePassState {
                last_pressure: vec![0; shard_count],
                smoothed_gain: vec![0.0; shard_count],
                smoothed_loss: vec![0.0; shard_count],
                pass_index: 0,
                last_transfer: None,
            }),
            #[cfg(test)]
            pass_threads: Mutex::new(Vec::new()),
        });
        let engine = Watchman {
            inner: Arc::new(Inner {
                shards,
                observers: self.observers,
                normalizer: self.normalizer,
                policy: self.policy,
                total_capacity_bytes: self.capacity_bytes,
                coalesced_misses: AtomicU64::new(0),
                failure: self.failure,
                fetch_retries: AtomicU64::new(0),
                negative_hits: AtomicU64::new(0),
                rebalancer,
                runtime: RuntimeSlot {
                    external: self.runtime,
                    workers: self.runtime_workers,
                    own: OnceLock::new(),
                },
                latest_now: AtomicU64::new(0),
                rebalance_shutdown: OnceLock::new(),
                fragmentation: Mutex::new(FragmentationTracker::new()),
            }),
        };
        crate::telemetry::global()
            .shard_count
            .set(shard_count as u64);
        if let Some(period) = self
            .rebalance
            .and_then(|config| config.period)
            .filter(|_| shard_count >= 2)
        {
            engine.spawn_background_rebalancer(period);
        }
        engine
    }
}

/// The WATCHMAN engine: a thread-safe, sharded retrieved-set cache facade.
///
/// This is the primary public API of the library — the "library of routines
/// that may be linked with an application" of paper §3, grown into a
/// concurrent engine:
///
/// * the keyspace is hash-partitioned by query signature across N shards,
///   each an independent [`PolicyKind`] instance behind its own lock;
/// * payloads are shared as `Arc<V>`, so hits never copy retrieved sets;
/// * [`Watchman::get_or_execute`] / [`Watchman::get_or_execute_async`]
///   deduplicate concurrent misses on the same query (*single-flight*):
///   exactly one session executes the warehouse query, the rest share its
///   result.  Both entry points — and the fallible `try_*` pair — drive
///   the **same poll-based state machine**; the synchronous ones
///   [`block_on`](crate::runtime::block_on) it with an inline fetch, the
///   asynchronous ones suspend waiting sessions as futures on the engine's
///   [`Runtime`] instead of parking OS threads;
/// * admissions, rejections, evictions and invalidations are published to
///   [`CacheObserver`]s, which the coherence index and the buffer manager's
///   p₀-hint machinery subscribe to;
/// * statistics aggregate across shards into an owned [`StatsSnapshot`].
///
/// Handles are cheap to clone and share one underlying engine:
///
/// ```
/// use std::sync::Arc;
/// use watchman_core::engine::{LookupSource, PolicyKind, Watchman};
/// use watchman_core::prelude::*;
///
/// let engine: Watchman<SizedPayload> = Watchman::builder()
///     .shards(4)
///     .policy(PolicyKind::LncRa { k: 4 })
///     .capacity_bytes(1 << 20)
///     .build();
///
/// let key = QueryKey::from_raw_query("SELECT sum(price) FROM lineitem");
/// let first = engine.get_or_execute(&key, Timestamp::from_secs(1), || {
///     (SizedPayload::new(256), ExecutionCost::from_blocks(12_000))
/// });
/// assert_eq!(first.source, LookupSource::Executed);
///
/// let again = engine.get_or_execute(&key, Timestamp::from_secs(2), || {
///     unreachable!("served from cache")
/// });
/// assert_eq!(again.source, LookupSource::Hit);
/// assert_eq!(engine.stats().hits, 1);
/// ```
pub struct Watchman<V> {
    inner: Arc<Inner<V>>,
}

impl<V> Clone for Watchman<V> {
    fn clone(&self) -> Self {
        Watchman {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<V> std::fmt::Debug for Watchman<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watchman")
            .field("shards", &self.inner.shards.len())
            .field("policy", &self.inner.policy)
            .finish_non_exhaustive()
    }
}

impl<V> Watchman<V>
where
    V: CachePayload + Send + Sync + 'static,
{
    /// Starts configuring an engine.
    pub fn builder() -> WatchmanBuilder<V> {
        WatchmanBuilder::default()
    }

    /// The policy every shard runs.
    pub fn policy(&self) -> PolicyKind {
        self.inner.policy
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The runtime the engine spawns fetches and background tasks on.
    ///
    /// Lazily created on first use unless [`WatchmanBuilder::runtime`]
    /// supplied a shared one.  Applications can spawn their own session
    /// tasks here so sessions and fetches share one worker pool.
    pub fn runtime(&self) -> Arc<Runtime> {
        self.inner.runtime.get()
    }

    fn shard_index(&self, key: &QueryKey) -> usize {
        // Mix the signature before reduction: FNV's low bits correlate with
        // short key suffixes, and the paper's signature index already uses
        // the raw value.
        let mixed = key.signature().value().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((mixed >> 32) as usize) % self.inner.shards.len()
    }

    /// Folds an operation's logical timestamp into the engine's notion of
    /// "now" (used by background rebalance passes).
    fn observe_now(&self, now: Timestamp) {
        self.inner
            .latest_now
            .fetch_max(now.as_micros(), Ordering::Relaxed);
    }

    fn emit(&self, events: Vec<CacheEvent>) {
        if self.inner.observers.is_empty() {
            return;
        }
        for event in &events {
            for observer in &self.inner.observers {
                observer.on_cache_event(event);
            }
        }
    }

    fn insert_events(
        key: &QueryKey,
        size_bytes: u64,
        cost: ExecutionCost,
        outcome: &InsertOutcome,
        shard: usize,
    ) -> Vec<CacheEvent> {
        match outcome {
            InsertOutcome::Admitted { evicted } => {
                let mut events = Vec::with_capacity(evicted.len() + 1);
                for victim in evicted {
                    events.push(CacheEvent::Evicted {
                        key: victim.clone(),
                        shard,
                    });
                }
                events.push(CacheEvent::Admitted {
                    key: key.clone(),
                    size_bytes,
                    cost,
                    shard,
                });
                events
            }
            InsertOutcome::Rejected(reason) => {
                vec![CacheEvent::Rejected {
                    key: key.clone(),
                    reason: *reason,
                    shard,
                }]
            }
            // A refresh emits no Admitted event (the key was already
            // resident), but a refresh whose payload grew may still have
            // evicted victims — observers mirroring cache contents must see
            // those removals or they keep stale keys.
            InsertOutcome::AlreadyCached { evicted } => evicted
                .iter()
                .map(|victim| CacheEvent::Evicted {
                    key: victim.clone(),
                    shard,
                })
                .collect(),
        }
    }

    /// Spawns the background rebalance task on the engine's runtime.  The
    /// task holds only weak references, so it never keeps the engine (or a
    /// shared runtime) alive; the engine's drop fires its shutdown cell.
    fn spawn_background_rebalancer(&self, period: Duration) {
        let cell = Arc::new(ShutdownCell::default());
        self.inner
            .rebalance_shutdown
            .set(Arc::clone(&cell))
            .ok()
            .expect("background rebalancer spawned once");
        let runtime = self.runtime();
        let task = RebalanceTask {
            engine: Arc::downgrade(&self.inner),
            shutdown: cell,
            runtime: runtime.inner_handle(),
            sleep: runtime.sleep(period),
            period,
        };
        runtime.spawn(task);
    }

    /// Runs one rebalance pass immediately and returns what it did (or
    /// `None` when rebalancing is not configured or the shard signals do not
    /// justify a move).
    ///
    /// This is the *driver-scheduled* entry point: deterministic replays
    /// (the simulator's shard sweep) and tests call it explicitly instead of
    /// configuring a background period.  Sessions never trigger passes —
    /// `get`/`insert`/`get_or_execute` carry no rebalancing work at all.
    pub fn rebalance_now(&self, now: Timestamp) -> Option<RebalanceOutcome> {
        self.rebalance_pass(now)
    }

    fn rebalance_pass(&self, now: Timestamp) -> Option<RebalanceOutcome> {
        let rb = self.inner.rebalancer.as_ref()?;
        if self.inner.shards.len() < 2 {
            return None;
        }
        // The pass state mutex serializes passes (the background task and
        // any driver-scheduled calls).
        let mut pass = rb.pass.lock();
        rb.passes.fetch_add(1, Ordering::Relaxed);
        #[cfg(test)]
        rb.pass_threads.lock().push(std::thread::current().id());

        let total = self.inner.total_capacity_bytes;
        let floor = rb.config.floor_bytes(total, self.inner.shards.len());
        let step = rb.config.step_bytes(total, self.inner.shards.len());

        // Observe every shard's signal (one shard lock at a time) and fold
        // it into the exponentially smoothed per-shard gain/loss estimates:
        // instantaneous profit estimates spike (one valuable eviction
        // inflates a shard's retained store for a few passes), and paying
        // real evictions for a spike is how a rebalancer starts thrashing.
        const SMOOTHING: f64 = 0.4;
        let mut signals = Vec::with_capacity(self.inner.shards.len());
        let mut cumulative = Vec::with_capacity(self.inner.shards.len());
        for (i, shard) in self.inner.shards.iter().enumerate() {
            let mut state = shard.lock();
            let mut signal =
                ShardSignal::observe(state.cache.as_mut(), pass.last_pressure[i], step, now);
            cumulative.push(pass.last_pressure[i] + signal.pressure);
            pass.smoothed_loss[i] =
                (1.0 - SMOOTHING) * pass.smoothed_loss[i] + SMOOTHING * signal.loss.value();
            signal.loss = crate::profit::Profit::new(pass.smoothed_loss[i]);
            if let Some(gain) = signal.gain {
                pass.smoothed_gain[i] =
                    (1.0 - SMOOTHING) * pass.smoothed_gain[i] + SMOOTHING * gain.value();
                signal.gain = Some(crate::profit::Profit::new(pass.smoothed_gain[i]));
            }
            signals.push(signal);
        }
        pass.last_pressure.copy_from_slice(&cumulative);
        pass.pass_index += 1;

        let (donor, recipient, amount) = plan_transfer(&signals, floor, step)?;
        // Refuse to reverse the most recent transfer for a while (see
        // `RebalancePassState::last_transfer`).
        const REVERSAL_COOLDOWN_PASSES: u64 = 24;
        if let Some((last_donor, last_recipient, at)) = pass.last_transfer {
            if donor == last_recipient
                && recipient == last_donor
                && pass.pass_index.saturating_sub(at) < REVERSAL_COOLDOWN_PASSES
            {
                return None;
            }
        }

        // Transfer under BOTH shard locks (acquired in index order, the same
        // order every multi-lock path uses) so Σ capacity == total holds at
        // every point another thread can observe.
        let (low, high) = (donor.min(recipient), donor.max(recipient));
        let mut low_guard = self.inner.shards[low].lock();
        let mut high_guard = self.inner.shards[high].lock();
        let (donor_state, recipient_state) = if donor < recipient {
            (&mut *low_guard, &mut *high_guard)
        } else {
            (&mut *high_guard, &mut *low_guard)
        };
        let donor_capacity = donor_state.cache.capacity_bytes();
        let recipient_capacity = recipient_state.cache.capacity_bytes();
        // Capacities only change under the pass mutex we hold, so the
        // planned amount is still valid; be defensive anyway.
        let amount = amount.min(donor_capacity.saturating_sub(floor));
        if amount == 0 {
            return None;
        }
        let evicted = donor_state
            .cache
            .set_capacity_bytes(donor_capacity - amount, now);
        recipient_state
            .cache
            .set_capacity_bytes(recipient_capacity + amount, now);
        // The donor's evictions are real removals: publish them (under the
        // donor's lock, like every other eviction) so observer mirrors stay
        // exact.
        if !self.inner.observers.is_empty() {
            let events = evicted
                .iter()
                .map(|key| CacheEvent::Evicted {
                    key: key.clone(),
                    shard: donor,
                })
                .collect();
            self.emit(events);
        }
        drop(high_guard);
        drop(low_guard);
        pass.last_transfer = Some((donor, recipient, pass.pass_index));
        rb.rebalances.fetch_add(1, Ordering::Relaxed);
        Some(RebalanceOutcome {
            donor,
            recipient,
            moved_bytes: amount,
            evicted,
        })
    }

    /// Looks up the retrieved set for `key`, recording one query reference.
    ///
    /// Returns a shared handle to the cached value on a hit.  Callers that
    /// execute the query themselves on a miss should prefer
    /// [`Watchman::get_or_execute`], which additionally deduplicates
    /// concurrent executions.
    pub fn get(&self, key: &QueryKey, now: Timestamp) -> Option<Arc<V>> {
        self.observe_now(now);
        let key = self.inner.normalizer.apply(key);
        let index = self.shard_index(&key);
        let mut shard = self.inner.shards[index].lock();
        shard.cache.get(&key, now).map(Arc::clone)
    }

    /// Offers a freshly retrieved set for admission after a miss.
    pub fn insert(
        &self,
        key: QueryKey,
        value: V,
        cost: ExecutionCost,
        now: Timestamp,
    ) -> InsertOutcome {
        self.insert_shared(key, Arc::new(value), cost, now)
    }

    /// Offers an already-shared retrieved set for admission.
    pub fn insert_shared(
        &self,
        key: QueryKey,
        value: Arc<V>,
        cost: ExecutionCost,
        now: Timestamp,
    ) -> InsertOutcome {
        self.observe_now(now);
        let key = self.inner.normalizer.apply(&key);
        let index = self.shard_index(&key);
        let size_bytes = value.size_bytes();
        let mut shard = self.inner.shards[index].lock();
        let outcome = shard.cache.insert(key.clone(), value, cost, now);
        record_insert_telemetry(index, shard.cache.used_bytes(), &outcome);
        // Emitted under the shard lock so observers see this shard's events
        // in cache order (see the events module docs).
        if !self.inner.observers.is_empty() {
            self.emit(Self::insert_events(&key, size_bytes, cost, &outcome, index));
        }
        outcome
    }

    /// Looks up `key`; on a miss, executes `fetch` to produce the retrieved
    /// set and its observed cost, offers it for admission, and returns it.
    ///
    /// Concurrent misses on the same query are **single-flight**: exactly one
    /// session runs `fetch` (outside any lock), the others wait for its
    /// result and share it without executing.  If the leader's `fetch`
    /// panics, exactly one waiter is woken to take over as the new leader
    /// and the panic propagates out of the leader's call.
    ///
    /// This is the synchronous front door: a lock-and-`get` hit fast path,
    /// then [`block_on`](crate::runtime::block_on) over the same
    /// [`LookupFuture`] state machine [`Watchman::get_or_execute_async`]
    /// returns, with the one difference that the leader's `fetch` runs
    /// *inline on the calling thread* (so `fetch` needs no `Send + 'static`
    /// bounds and a single-threaded replay is fully deterministic).
    pub fn get_or_execute<F>(&self, key: &QueryKey, now: Timestamp, fetch: F) -> Lookup<V>
    where
        F: FnOnce() -> (V, ExecutionCost) + Unpin,
    {
        self.lookup_blocking(key, now, Infallible(Some(fetch)))
    }

    /// The asynchronous front door: like [`Watchman::get_or_execute`], but
    /// returns a [`LookupFuture`] and runs the leader's `fetch` on the
    /// engine's [`Runtime`], so a waiting session suspends (a registered
    /// waker) instead of blocking an OS thread.
    ///
    /// Thousands of sessions can wait on slow warehouse queries while the
    /// thread count stays at the runtime's worker-pool size.  The future is
    /// lazy (nothing happens until it is polled) and cancellation-safe:
    /// dropping it deregisters the session's waker, and if the session had
    /// been woken to take over an abandoned flight, the wake is passed to
    /// the next waiter.  Dropping a *leader* whose spawned fetch has not
    /// started yet cancels the execution entirely: the fetch closure is
    /// never invoked, and the flight is abandoned so a still-interested
    /// waiter takes leadership over with its own fetch (with no waiters the
    /// cell is retired).  A fetch already running is past cancellation —
    /// it completes the flight for any remaining waiters.
    ///
    /// A panicking `fetch` is re-raised on the leader session when it awaits
    /// the result, mirroring the synchronous contract; one waiter takes over
    /// the execution.
    pub fn get_or_execute_async<F>(
        &self,
        key: &QueryKey,
        now: Timestamp,
        fetch: F,
    ) -> LookupFuture<V, Infallible<F>>
    where
        F: FnOnce() -> (V, ExecutionCost) + Send + 'static,
    {
        let key = self.inner.normalizer.apply(key);
        self.lookup(key, now, Infallible(Some(fetch)), Some(spawn_fetch_task))
    }

    /// Like [`Watchman::get_or_execute_async`], but the lookup gives up once
    /// `timeout` has elapsed (measured from this call), resolving to
    /// `Err(`[`LookupTimedOut`]`)`.
    ///
    /// A timed-out lookup behaves exactly like a dropped [`LookupFuture`]:
    /// a waiter deregisters (passing along any takeover claim), and a leader
    /// whose spawned fetch has not started yet cancels it — the closure is
    /// never invoked and leadership moves to a remaining waiter.  A fetch
    /// already running finishes and its result still lands in the cache for
    /// future sessions; only *this* session stops waiting for it.
    pub fn get_or_execute_async_with_timeout<F>(
        &self,
        key: &QueryKey,
        now: Timestamp,
        timeout: Duration,
        fetch: F,
    ) -> DeadlineLookup<V, F>
    where
        F: FnOnce() -> (V, ExecutionCost) + Send + 'static,
    {
        DeadlineLookup {
            lookup: Some(self.get_or_execute_async(key, now, fetch)),
            deadline: self.runtime().sleep(timeout),
        }
    }

    /// Like [`Watchman::get_or_execute`], but the fetch is **fallible**: it
    /// returns `Result<(V, Cost), `[`FetchError`]`>`, and an error — unlike a
    /// panic — is a first-class outcome of the lookup.
    ///
    /// * **Single-flight errors are shared.** A terminal fetch error resolves
    ///   the flight for *every* coalesced waiter at once; all of them observe
    ///   the same `Arc<FetchError>` (no per-waiter re-execution, no takeover
    ///   storm).
    /// * **Retries.** The leader retries transient errors under the
    ///   configured [`crate::engine::RetryPolicy`] — bounded attempts,
    ///   exponential backoff with deterministic seeded jitter, slept on the
    ///   engine's runtime timer so replays stay byte-identical.
    /// * **Negative caching.** A terminal failure is memoized per key for a
    ///   short TTL; lookups inside the window resolve immediately
    ///   (`negative_hit == true`) without invoking the fetch.
    /// * **Graceful degradation.** When a [`StalenessPolicy`] is configured,
    ///   a failed (or breaker-refused) lookup serves the last-known-good
    ///   value as [`LookupSource::Stale`] — cost-gated by the paper's profit
    ///   machinery, paid into `total_cost` but never into `saved_cost`, so
    ///   stale serves cannot inflate the cost-savings ratio.
    /// * **Circuit breaking.** With a [`crate::engine::BreakerConfig`], a
    ///   shard whose rolling fetch-failure rate trips the threshold refuses
    ///   new executions outright (stale-serving when possible) until a
    ///   half-open probe succeeds.
    ///
    /// The infallible doors run the same state machine *outside* this
    /// failure domain: they consult neither the negative cache nor the
    /// breaker, feed neither, and a session coalesced behind a fallible
    /// leader that failed starts over with its own fetch.
    ///
    /// A **panicking** fetch keeps the infallible contract: the panic
    /// propagates to this caller and one waiter takes over the execution.
    pub fn try_get_or_execute<F>(
        &self,
        key: &QueryKey,
        now: Timestamp,
        fetch: F,
    ) -> Result<Lookup<V>, LookupError>
    where
        F: FnMut() -> Result<(V, ExecutionCost), FetchError> + Unpin,
    {
        self.lookup_blocking(key, now, Fallible(fetch))
    }

    /// The asynchronous fallible front door: like
    /// [`Watchman::try_get_or_execute`], but returns a [`LookupFuture`]
    /// and runs the leader's fetch (and its retry backoffs) on the engine's
    /// [`Runtime`], so waiting sessions suspend instead of blocking OS
    /// threads.  Cancellation behaves exactly like
    /// [`Watchman::get_or_execute_async`]: dropping the future deregisters a
    /// waiter, and a leader whose spawned fetch has not started yet cancels
    /// the execution entirely.
    pub fn try_get_or_execute_async<F>(
        &self,
        key: &QueryKey,
        now: Timestamp,
        fetch: F,
    ) -> LookupFuture<V, Fallible<F>>
    where
        F: FnMut() -> Result<(V, ExecutionCost), FetchError> + Send + 'static,
    {
        let key = self.inner.normalizer.apply(key);
        self.lookup(key, now, Fallible(fetch), Some(spawn_fetch_task))
    }

    /// The one constructor behind every front door.  `spawn` is the hook an
    /// async door supplies to run its leader fetch on the runtime; `None`
    /// runs it inline on the polling thread.
    fn lookup<M>(
        &self,
        key: QueryKey,
        now: Timestamp,
        mode: M,
        spawn: Option<SpawnFetch<V, M>>,
    ) -> LookupFuture<V, M> {
        LookupFuture {
            engine: self.clone(),
            key,
            shard: None,
            now,
            mode: Some(mode),
            spawn,
            state: LookupState::Start,
            attempts: 0,
            leader_cancel: None,
            started: None,
        }
    }

    /// The synchronous doors: the hit fast path, then the state machine
    /// driven in place with an inline fetch.
    fn lookup_blocking<M>(&self, key: &QueryKey, now: Timestamp, mode: M) -> M::Output
    where
        M: FetchMode<V> + Unpin,
    {
        self.observe_now(now);
        let started = crate::telemetry::now();
        let key = self.inner.normalizer.apply(key);
        let shard = self.shard_index(&key);
        // Hit fast path: the engine's hottest operation needs none of the
        // future machinery (engine clone, waker, pinning).  This is exactly
        // the check the future's Start state performs; on a miss the Start
        // state repeats the `get`, which is stat-neutral (misses are
        // recorded at insert, and retained-reference records deduplicate on
        // the timestamp), so sync and async doors stay byte-identical.
        {
            let mut state = self.inner.shards[shard].lock();
            if let Some(value) = state.cache.get(&key, now) {
                let lookup = Lookup {
                    value: Arc::clone(value),
                    source: LookupSource::Hit,
                    outcome: None,
                };
                drop(state);
                record_lookup_telemetry(Some(started), LookupSource::Hit);
                return M::output(Ok(lookup));
            }
        }
        let mut lookup = self.lookup(key, now, mode, None);
        lookup.shard = Some(shard);
        lookup.started = Some(started);
        crate::runtime::block_on(lookup)
    }

    /// Fetch retries the fallible pipeline has issued (attempts beyond the
    /// first, across every key and shard).
    pub fn fetch_retries(&self) -> u64 {
        self.inner.fetch_retries.load(Ordering::Relaxed)
    }

    /// Lookups answered straight from a shard's negative cache.
    pub fn negative_hits(&self) -> u64 {
        self.inner.negative_hits.load(Ordering::Relaxed)
    }

    /// The failure-domain gate in front of a new flight, under the shard
    /// lock.  `Err((error, negative_hit))` resolves the lookup without a
    /// fetch: the key has a fresh memoized failure, or the shard's breaker
    /// refuses.  `Ok(probe)` lets the fetch proceed; `probe` says the
    /// admission drew a half-open probe ticket, which the new cell carries.
    fn admit_fetch(
        &self,
        state: &mut ShardState<V>,
        key: &QueryKey,
        now: Timestamp,
    ) -> Result<bool, (Arc<FetchError>, bool)> {
        if let Some(error) = state.failure.fresh_negative(key, now) {
            self.inner.negative_hits.fetch_add(1, Ordering::Relaxed);
            crate::telemetry::global().negative_hits.incr();
            return Err((error, true));
        }
        let Some(breaker) = state.failure.breaker.as_mut() else {
            return Ok(false);
        };
        if breaker.admit(now) {
            Ok(matches!(breaker.state(), BreakerState::HalfOpen))
        } else {
            let refused = FetchError::transient("circuit breaker open: fetch refused");
            Err((Arc::new(refused), false))
        }
    }

    /// Decides whether a leader whose `attempt`-th try returned `error`
    /// tries again.  `Some(backoff)` counts and traces the retry; `None`
    /// means the error is terminal (fatal, or the budget is spent).
    fn plan_retry(&self, key: &QueryKey, attempt: u32, error: &FetchError) -> Option<Duration> {
        let retry = &self.inner.failure.retry;
        if !error.is_retryable() || attempt >= retry.max_attempts {
            return None;
        }
        self.inner.fetch_retries.fetch_add(1, Ordering::Relaxed);
        let delay = retry.backoff(attempt, key.signature().value());
        let telemetry = crate::telemetry::global();
        telemetry.fetch_retries.incr();
        telemetry.recorder.record(
            TraceKind::FetchRetry,
            key.signature().value(),
            u64::from(attempt),
            delay.as_micros() as u64,
        );
        Some(delay)
    }

    /// Completes a leader's execution: offers the value for admission,
    /// retires the in-flight entry, and publishes the resulting events.
    ///
    /// A `failure_domain` leader also updates the failure domain under the
    /// same shard lock: the breaker records a success, a fresh
    /// last-known-good copy lands in the stale store (when a
    /// [`StalenessPolicy`] is configured), and any memoized failure for the
    /// key is dropped.  Outside it none of that is touched — except that a
    /// cell carrying a half-open probe ticket (taken over from a
    /// failure-domain leader) settles the ticket whoever completes it.
    #[allow(clippy::too_many_arguments)]
    fn finish_leader_insert(
        &self,
        key: &QueryKey,
        shard_index: usize,
        flight: &Arc<Flight<V>>,
        value: Arc<V>,
        cost: ExecutionCost,
        now: Timestamp,
        failure_domain: bool,
    ) -> InsertOutcome {
        let size_bytes = value.size_bytes();
        let mut state = self.inner.shards[shard_index].lock();
        if flight.take_probe() || failure_domain {
            if let Some(breaker) = state.failure.breaker.as_mut() {
                breaker.record_success(now);
            }
        }
        if failure_domain {
            if let Some(staleness) = &self.inner.failure.staleness {
                state.failure.store_stale(
                    key,
                    Arc::clone(&value),
                    cost,
                    size_bytes,
                    now,
                    staleness,
                );
            }
            state.failure.drop_negative(key);
        }
        let outcome = state.cache.insert(key.clone(), value, cost, now);
        record_insert_telemetry(shard_index, state.cache.used_bytes(), &outcome);
        crate::telemetry::global().recorder.record(
            TraceKind::LookupExecuted,
            key.signature().value(),
            shard_index as u64,
            cost.value() as u64,
        );
        state.retire(key, flight);
        // Emitted under the shard lock: observers see this shard's events in
        // cache order.
        if !self.inner.observers.is_empty() {
            self.emit(Self::insert_events(
                key,
                size_bytes,
                cost,
                &outcome,
                shard_index,
            ));
        }
        outcome
    }

    /// Resolves a fallible leader's *terminal* fetch failure under the shard
    /// lock: retires the in-flight entry (so new arrivals start a fresh
    /// flight instead of joining a doomed one), memoizes the error in the
    /// negative cache, and feeds the breaker's rolling failure window.  The
    /// caller fails the flight cell *after* this returns — waking waiters
    /// only once the negative entry is visible keeps their stale/negative
    /// consultations consistent.
    fn fail_leader(
        &self,
        key: &QueryKey,
        shard_index: usize,
        flight: &Arc<Flight<V>>,
        error: &Arc<FetchError>,
        now: Timestamp,
    ) {
        let mut state = self.inner.shards[shard_index].lock();
        state.retire(key, flight);
        state
            .failure
            .store_negative(key, Arc::clone(error), now, &self.inner.failure.negative);
        if let Some(breaker) = state.failure.breaker.as_mut() {
            let was_open = matches!(breaker.state(), BreakerState::Open);
            breaker.record_failure(now);
            if !was_open && matches!(breaker.state(), BreakerState::Open) {
                // A freshly tripped breaker is an anomaly: snapshot the
                // flight recorder's context for the key that tripped it.
                crate::telemetry::global().anomaly(
                    TraceKind::BreakerTrip,
                    key.signature().value(),
                    shard_index as u64,
                    0,
                );
            }
        }
    }

    /// Resolves this session's share of a failed lookup: serves the
    /// last-known-good value when the staleness policy judges it worth it
    /// (recording a stale reference — cost paid, nothing saved), otherwise
    /// records an error reference and surfaces the shared error.  Every
    /// session — leader, coalesced waiter, negative-cache hit — resolves
    /// through here exactly once, so the extended reference invariant
    /// `references == hits + coalesced + fetch_errors + stale_serves +
    /// misses` holds per reference.
    fn resolve_failed_lookup(
        &self,
        key: &QueryKey,
        shard_index: usize,
        now: Timestamp,
        error: Arc<FetchError>,
        negative_hit: bool,
    ) -> Result<Lookup<V>, LookupError> {
        let mut state = self.inner.shards[shard_index].lock();
        if let Some(staleness) = &self.inner.failure.staleness {
            if let Some((value, cost)) = state.failure.stale_for(key, now, staleness) {
                state.cache.record_stale_reference(cost);
                crate::telemetry::global().recorder.record(
                    TraceKind::LookupStale,
                    key.signature().value(),
                    shard_index as u64,
                    cost.value() as u64,
                );
                return Ok(Lookup {
                    value,
                    source: LookupSource::Stale,
                    outcome: None,
                });
            }
        }
        state.cache.record_error_reference();
        crate::telemetry::global().recorder.record(
            TraceKind::LookupError,
            key.signature().value(),
            shard_index as u64,
            u64::from(negative_hit),
        );
        Err(LookupError {
            error,
            negative_hit,
        })
    }

    /// Removes the retrieved set for `key` because a warehouse update made it
    /// stale.  Returns whether it was resident.
    pub fn invalidate(&self, key: &QueryKey) -> bool {
        let key = self.inner.normalizer.apply(key);
        let index = self.shard_index(&key);
        let mut shard = self.inner.shards[index].lock();
        // Invalidated data is *wrong*, not merely old: the last-known-good
        // copy must never be stale-served after an invalidation.
        shard.failure.drop_stale(&key);
        shard.failure.drop_negative(&key);
        let removed = shard.cache.remove(&key);
        if removed && !self.inner.observers.is_empty() {
            self.emit(vec![CacheEvent::Invalidated { key, shard: index }]);
        }
        removed
    }

    /// Invalidates every cached set that `index` records as dependent on
    /// `relation`, returning the coherence report.
    ///
    /// This is the warehouse-update entry point of paper §3: the embedding
    /// application maintains the [`DependencyIndex`] (usually via a
    /// [`crate::coherence::DependencyObserver`] subscribed to this engine)
    /// and calls this when an update lands on a base relation.
    pub fn invalidate_relation(
        &self,
        index: &mut DependencyIndex,
        relation: &str,
    ) -> crate::coherence::InvalidationReport {
        crate::coherence::invalidate_affected(index, relation, |key| self.invalidate(key))
    }

    /// Looks up `key` **without** recording a query reference: no recency or
    /// frequency update, no reference-history sample, no statistics
    /// mutation.  Returns the cached payload if resident.
    ///
    /// This is the *admin* probe (the server's `PEEK` opcode, diagnostics,
    /// tests): unlike [`Watchman::get`], observing the cache this way leaves
    /// the replacement policy's state and the [`StatsSnapshot`] byte-for-byte
    /// unchanged, so monitoring never perturbs replay-visible behavior.
    pub fn peek(&self, key: &QueryKey) -> Option<Arc<V>> {
        let key = self.inner.normalizer.apply(key);
        let index = self.shard_index(&key);
        let shard = self.inner.shards[index].lock();
        shard.cache.peek(&key).map(Arc::clone)
    }

    /// Whether a retrieved set for `key` is currently cached.
    pub fn contains(&self, key: &QueryKey) -> bool {
        let key = self.inner.normalizer.apply(key);
        let index = self.shard_index(&key);
        self.inner.shards[index].lock().cache.contains(&key)
    }

    /// Number of cached retrieved sets across all shards.
    pub fn len(&self) -> usize {
        self.inner.shards.iter().map(|s| s.lock().cache.len()).sum()
    }

    /// Whether no retrieved set is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently cached across all shards.
    pub fn used_bytes(&self) -> u64 {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().cache.used_bytes())
            .sum()
    }

    /// Total configured capacity across all shards.
    ///
    /// Rebalancing moves capacity *between* shards but never changes the
    /// total, so this is a constant established at build time.
    pub fn capacity_bytes(&self) -> u64 {
        self.inner.total_capacity_bytes
    }

    /// The current per-shard capacities in bytes (an atomic snapshot: they
    /// always sum to [`Watchman::capacity_bytes`]).
    pub fn shard_capacities(&self) -> Vec<u64> {
        let guards: Vec<_> = self.inner.shards.iter().map(|s| s.lock()).collect();
        guards.iter().map(|s| s.cache.capacity_bytes()).collect()
    }

    /// Number of capacity transfers the rebalancer has performed.
    pub fn rebalance_count(&self) -> u64 {
        self.inner
            .rebalancer
            .as_ref()
            .map_or(0, |rb| rb.rebalances.load(Ordering::Relaxed))
    }

    /// Number of rebalance passes run, including ones that moved nothing.
    ///
    /// With a background period configured this grows over wall-clock time;
    /// in `manual()` mode it counts [`Watchman::rebalance_now`] calls.  It
    /// never grows from session operations — passes do not run on the
    /// request path.
    pub fn rebalance_passes(&self) -> u64 {
        self.inner
            .rebalancer
            .as_ref()
            .map_or(0, |rb| rb.passes.load(Ordering::Relaxed))
    }

    /// Fraction of capacity currently in use.
    pub fn utilization(&self) -> f64 {
        let capacity = self.capacity_bytes();
        if capacity == 0 {
            0.0
        } else {
            self.used_bytes() as f64 / capacity as f64
        }
    }

    /// The keys currently cached, across all shards, in unspecified order.
    pub fn cached_keys(&self) -> Vec<QueryKey> {
        let mut keys = Vec::new();
        for shard in &self.inner.shards {
            keys.extend(shard.lock().cache.cached_keys());
        }
        keys
    }

    /// Removes every cached retrieved set (statistics are preserved).
    pub fn clear(&self) {
        for shard in &self.inner.shards {
            shard.lock().cache.clear();
        }
    }

    /// The aggregate statistics summed across shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::new();
        for shard in &self.inner.shards {
            total.merge(&shard.lock().cache.stats_snapshot());
        }
        total
    }

    /// A full owned snapshot: aggregate and per-shard counters, occupancies,
    /// capacities, single-flight coalescing and rebalancing activity.
    ///
    /// Every shard is locked for the duration of the read (in index order,
    /// consistent with the rebalancer's lock order), so the snapshot is
    /// internally consistent: per-shard capacities sum to the configured
    /// total even while a rebalance pass runs concurrently.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let guards: Vec<_> = self.inner.shards.iter().map(|s| s.lock()).collect();
        let mut total = CacheStats::new();
        let mut per_shard = Vec::with_capacity(guards.len());
        let mut per_shard_capacity = Vec::with_capacity(guards.len());
        let mut per_shard_used = Vec::with_capacity(guards.len());
        let mut used_bytes = 0;
        let mut capacity_bytes = 0;
        let mut entries = 0;
        let mut breaker_transitions = 0;
        let telemetry = crate::telemetry::global();
        for (index, state) in guards.iter().enumerate() {
            let stats = state.cache.stats_snapshot();
            total.merge(&stats);
            per_shard.push(stats);
            let used = state.cache.used_bytes();
            let capacity = state.cache.capacity_bytes();
            telemetry.set_shard_used(index, used);
            per_shard_used.push(used);
            per_shard_capacity.push(capacity);
            used_bytes += used;
            capacity_bytes += capacity;
            entries += state.cache.len();
            breaker_transitions += state
                .failure
                .breaker
                .as_ref()
                .map_or(0, CircuitBreaker::transitions);
        }
        telemetry.shard_count.set(guards.len() as u64);
        // One occupancy sample per snapshot, taken while every shard guard
        // is still held so the sample matches the reported numbers.  The
        // tracker mutex is a leaf: nothing is acquired under it.
        let fragmentation = {
            let mut tracker = self.inner.fragmentation.lock();
            tracker.record(used_bytes, capacity_bytes);
            tracker.clone()
        };
        StatsSnapshot {
            total,
            per_shard,
            per_shard_capacity,
            per_shard_used,
            used_bytes,
            capacity_bytes,
            entries,
            coalesced_misses: self.inner.coalesced_misses.load(Ordering::Relaxed),
            rebalances: self
                .inner
                .rebalancer
                .as_ref()
                .map_or(0, |rb| rb.rebalances.load(Ordering::Relaxed)),
            fetch_retries: self.inner.fetch_retries.load(Ordering::Relaxed),
            negative_hits: self.inner.negative_hits.load(Ordering::Relaxed),
            breaker_transitions,
            sheds: 0,
            fragmentation,
        }
    }

    /// Number of in-flight single-flight cells across all shards (test
    /// instrumentation for the abandoned-cell retirement guarantee).
    #[cfg(test)]
    pub(crate) fn inflight_entries(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|shard| shard.lock().inflight.len())
            .sum()
    }

    /// Thread identities of every rebalance pass (test instrumentation for
    /// the no-pass-on-a-session-thread guarantee).
    #[cfg(test)]
    pub(crate) fn rebalance_pass_threads(&self) -> Vec<std::thread::ThreadId> {
        self.inner
            .rebalancer
            .as_ref()
            .map_or(Vec::new(), |rb| rb.pass_threads.lock().clone())
    }
}

/// How a lookup's leader obtains the retrieved set: the one parameter of
/// [`LookupFuture`].  The two implementations are the infallible doors'
/// [`Infallible`] and the `try_*` doors' [`Fallible`]; everything else —
/// hit, coalesce, lead, retry, abandonment, takeover — is the same code.
pub trait FetchMode<V> {
    /// What the lookup resolves to.
    type Output;

    /// Whether the session takes part in the failure domain: it consults
    /// the negative cache and the shard's breaker before leading, feeds
    /// breaker, stale store and negative cache when its fetch settles, and
    /// shares a coalesced leader's terminal error.  Outside the domain none
    /// of that state is read or written, and a session whose leader failed
    /// with an error starts over with its own fetch.
    const FAILURE_DOMAIN: bool;

    /// Runs one fetch attempt.
    fn attempt(&mut self) -> Result<(V, ExecutionCost), FetchError>;

    /// Converts the resolved lookup into the door's output type.
    fn output(result: Result<Lookup<V>, LookupError>) -> Self::Output;
}

/// The fetch of [`Watchman::get_or_execute`] and its async variants: runs
/// once, cannot return an error, and stays outside the failure domain.
#[derive(Debug)]
pub struct Infallible<F>(Option<F>);

impl<V, F> FetchMode<V> for Infallible<F>
where
    F: FnOnce() -> (V, ExecutionCost),
{
    type Output = Lookup<V>;
    const FAILURE_DOMAIN: bool = false;

    fn attempt(&mut self) -> Result<(V, ExecutionCost), FetchError> {
        let fetch = self.0.take().expect("leader consumes its fetch once");
        Ok(fetch())
    }

    fn output(result: Result<Lookup<V>, LookupError>) -> Lookup<V> {
        match result {
            Ok(lookup) => lookup,
            // Its own fetch never returns `Err`, it restarts instead of
            // sharing a fallible leader's error, and it never consults the
            // negative cache or the breaker.
            Err(failure) => unreachable!("infallible lookup observed a fetch error: {failure}"),
        }
    }
}

/// The fetch of [`Watchman::try_get_or_execute`] and its async variant:
/// re-invoked on every retry, inside the failure domain.
#[derive(Debug)]
pub struct Fallible<F>(F);

impl<V, F> FetchMode<V> for Fallible<F>
where
    F: FnMut() -> Result<(V, ExecutionCost), FetchError>,
{
    type Output = Result<Lookup<V>, LookupError>;
    const FAILURE_DOMAIN: bool = true;

    fn attempt(&mut self) -> Result<(V, ExecutionCost), FetchError> {
        (self.0)()
    }

    fn output(result: Result<Lookup<V>, LookupError>) -> Self::Output {
        result
    }
}

/// Times one fetch attempt into the `fetch.attempt_us` histogram.
fn timed_attempt<T>(attempt: impl FnOnce() -> T) -> T {
    let start = crate::telemetry::now();
    let result = attempt();
    crate::telemetry::global()
        .fetch_attempt_us
        .record(crate::telemetry::elapsed_us(start));
    result
}

/// The hook an async lookup uses to launch its fetch on the runtime: a
/// plain `fn` pointer, monomorphized in the async front doors (the one
/// place the fetch's `Send + 'static` bounds are in scope) and stored in the
/// [`LookupFuture`] next to the still-unboxed fetch.  A hit therefore
/// resolves without ever touching the allocator — only an actual miss, when
/// the leader transition calls this hook, pays for spawning the fetch task.
/// The final `Arc<AtomicBool>` is the leader session's cancellation flag:
/// set when the session's future is dropped, checked by the spawned task
/// before every attempt.
type SpawnFetch<V, M> =
    fn(&Watchman<V>, M, QueryKey, usize, Timestamp, Arc<Flight<V>>, u64, Arc<AtomicBool>);

/// The [`SpawnFetch`] implementation: hands the fetch to a task on the
/// engine's runtime.  Generic so the closure rides along unboxed; the task
/// future it creates is the miss path's one unavoidable allocation.  The
/// task owns the whole retry loop: backoffs are real `Sleep`s awaited on the
/// runtime timer, so a retrying leader occupies no worker while it waits.
#[allow(clippy::too_many_arguments)]
fn spawn_fetch_task<V, M>(
    engine: &Watchman<V>,
    mode: M,
    key: QueryKey,
    shard: usize,
    now: Timestamp,
    flight: Arc<Flight<V>>,
    epoch: u64,
    cancelled: Arc<AtomicBool>,
) where
    V: CachePayload + Send + Sync + 'static,
    M: FetchMode<V> + Send + 'static,
{
    let weak = Arc::downgrade(&engine.inner);
    let runtime = engine.runtime();
    let timer = runtime.inner_handle();
    runtime.spawn(run_spawned_fetch(
        weak, timer, key, shard, now, flight, epoch, cancelled, mode,
    ));
}

/// Abandons `flight` from a spawned fetch task, which holds the engine only
/// weakly: through the shard while the engine lives (so a waiterless cell is
/// retired), bare once it is gone — there is no table left to retire from.
fn abandon_from_task<V>(
    engine: &Weak<Inner<V>>,
    key: &QueryKey,
    shard: usize,
    flight: &Arc<Flight<V>>,
) {
    match engine.upgrade() {
        Some(inner) => inner.shards[shard].abandon(key, flight),
        None => {
            flight.abandon();
        }
    }
}

/// Runs a spawned leader fetch to completion on a runtime worker: invokes
/// the fetch, retrying transient errors under the engine's
/// [`RetryPolicy`](crate::engine::RetryPolicy) (sleeping the deterministic
/// backoff on the runtime timer), then admits the result, or resolves the
/// flight with the terminal error for every waiter, or — on a panic —
/// abandons it.  Holds only weak references so a task queued behind a long
/// fetch never keeps a dropped engine (or runtime) alive.
#[allow(clippy::too_many_arguments)]
async fn run_spawned_fetch<V, M>(
    engine: Weak<Inner<V>>,
    timer: Weak<crate::runtime::RuntimeInner>,
    key: QueryKey,
    shard: usize,
    now: Timestamp,
    flight: Arc<Flight<V>>,
    epoch: u64,
    cancelled: Arc<AtomicBool>,
    mut mode: M,
) where
    V: CachePayload + Send + Sync + 'static,
    M: FetchMode<V>,
{
    let mut attempt: u32 = 0;
    loop {
        // Cooperative cancellation point, re-checked before *every* attempt:
        // the leader session dropped its future (deadline elapsed,
        // connection torn down) before this task got a worker, or
        // mid-backoff.  The fetch is not invoked (again); abandoning the
        // flight wakes one still-interested waiter to take leadership over
        // with its own fetch — and with no waiters, retires the cell so the
        // next arrival starts fresh.  No panic payload is stored: the only
        // session that would re-raise it is the one that was dropped.
        if cancelled.load(Ordering::Acquire) {
            abandon_from_task(&engine, &key, shard, &flight);
            return;
        }
        attempt += 1;
        let fetched = timed_attempt(|| catch_unwind(AssertUnwindSafe(|| mode.attempt())));
        // The completion stage (insert + observer emit) runs under its own
        // catch_unwind for the same reason the inline path keeps its guard
        // armed through it: a panic in user observer code must abandon the
        // flight, not strand the waiters on a cell that never resolves.
        let settled = fetched.and_then(|fetched| {
            let (value, cost) = match fetched {
                Ok(fetched) => fetched,
                Err(error) => return Ok(Err(error)),
            };
            let value = Arc::new(value);
            catch_unwind(AssertUnwindSafe(|| {
                if let Some(inner) = engine.upgrade() {
                    let outcome = Watchman { inner }.finish_leader_insert(
                        &key,
                        shard,
                        &flight,
                        Arc::clone(&value),
                        cost,
                        now,
                        M::FAILURE_DOMAIN,
                    );
                    flight.set_outcome(outcome);
                }
            }))?;
            Ok(Ok((value, cost)))
        });
        let error = match settled {
            Ok(Ok((value, cost))) => return flight.complete(value, cost),
            Ok(Err(error)) => error,
            // A panic is re-raised on the leader session and one waiter
            // takes over.  Payload first, then abandon: the leader session
            // must observe the payload when its abandonment wake arrives.
            Err(payload) => {
                flight.set_panic(epoch, payload);
                abandon_from_task(&engine, &key, shard, &flight);
                return;
            }
        };
        let Some(inner) = engine.upgrade() else {
            return flight.fail(Arc::new(error));
        };
        let engine = Watchman { inner };
        if let Some(delay) = engine.plan_retry(&key, attempt, &error) {
            drop(engine);
            if !delay.is_zero() {
                Sleep::until(timer.clone(), crate::telemetry::now() + delay).await;
            }
            continue;
        }
        // Terminal: memoize, feed the breaker, retire the cell — then fail
        // the flight so every waiter observes the same shared error.
        let error = Arc::new(error);
        engine.fail_leader(&key, shard, &flight, &error, now);
        drop(engine);
        return flight.fail(error);
    }
}

enum LookupState<V> {
    Start,
    Waiting {
        flight: Arc<Flight<V>>,
        slot: WaiterSlot,
        /// `Some(epoch)` when this session is the leader of that leadership
        /// generation, awaiting its own spawned fetch; `None` for a
        /// coalescing waiter.
        leading: Option<u64>,
    },
    /// An *inline* leader sleeping out a retry backoff on the runtime timer.
    /// The flight stays pending (this session still leads it); waiters keep
    /// coalescing onto it while the backoff elapses.
    Backoff {
        flight: Arc<Flight<V>>,
        sleep: Sleep,
    },
    Finished,
}

/// What one poll step decided, lifted out of the state borrow so the state
/// machine can transition freely.
enum Step<V> {
    Return(Lookup<V>),
    /// Resolve a failure for *this* session: stale-serve if the staleness
    /// policy allows, otherwise surface the shared error.
    Resolve {
        error: Arc<FetchError>,
        negative_hit: bool,
    },
    BecomeWaiter(Arc<Flight<V>>),
    Lead(Arc<Flight<V>>),
    /// Won the takeover race on an abandoned flight: re-check the cache
    /// before re-executing (the failed leader may have panicked *after* its
    /// insert succeeded — e.g. in a user observer — leaving the value
    /// cached), then lead.
    TakeOver(Arc<Flight<V>>),
    Suspend,
    LeaderFailed(Option<Box<dyn std::any::Any + Send>>),
    /// A failure-domain leader failed the awaited flight with an error and
    /// this session is outside the domain: go back to `Start` and look
    /// again with its own, still unconsumed fetch.
    Restart,
}

/// The one lookup state machine: the future every async front door returns,
/// and the one [`block_on`](crate::runtime::block_on) drives in place inside
/// the synchronous doors.  `M` is the door's [`FetchMode`].
///
/// Resolves to [`Lookup`] for the infallible doors; for the `try_*` doors to
/// `Ok(`[`Lookup`]`)` — including [`LookupSource::Stale`] serves — or
/// `Err(`[`LookupError`]`)` carrying the shared `Arc<FetchError>`.
///
/// Lazy: nothing happens until first poll.  Cancellation-safe: dropping it
/// deregisters this session's waker from the flight it waits on; a dropped
/// takeover candidate passes its wake to the next waiter, and a dropped
/// leader abandons its flight to one.
pub struct LookupFuture<V, M> {
    engine: Watchman<V>,
    /// The normalized key.
    key: QueryKey,
    /// Shard index, resolved on first poll.
    shard: Option<usize>,
    now: Timestamp,
    /// The fetch; taken when a leader hands it to a spawned task.
    mode: Option<M>,
    /// How a leader runs its fetch: spawned onto the runtime through this
    /// hook (async doors), or inline on the polling thread (`None`).
    spawn: Option<SpawnFetch<V, M>>,
    state: LookupState<V>,
    /// Fetch attempts this session has made as the inline leader of the
    /// current flight (spawned leaders count inside their task instead).
    attempts: u32,
    /// Set once this session spawns a leader fetch; flipped by `Drop` so a
    /// fetch task that has not started yet observes the cancellation and
    /// never invokes the closure.
    leader_cancel: Option<Arc<AtomicBool>>,
    /// When this session first touched the engine (the synchronous doors
    /// preset it; the async ones stamp it on first poll), feeding the
    /// outcome-keyed lookup-latency telemetry.
    started: Option<Instant>,
}

impl<V, M> std::fmt::Debug for LookupFuture<V, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LookupFuture")
            .field("key", &self.key)
            .field("now", &self.now)
            .field("attempts", &self.attempts)
            .finish_non_exhaustive()
    }
}

impl<V, M> LookupFuture<V, M>
where
    M: FetchMode<V>,
{
    /// Resolves the session: records its outcome-keyed latency and wraps the
    /// result in the door's output type.
    fn finish(&mut self, result: Result<Lookup<V>, LookupError>) -> Poll<M::Output> {
        self.state = LookupState::Finished;
        match &result {
            Ok(lookup) => record_lookup_telemetry(self.started, lookup.source),
            Err(_) => record_lookup_error_telemetry(self.started),
        }
        Poll::Ready(M::output(result))
    }
}

impl<V, M> Future for LookupFuture<V, M>
where
    V: CachePayload + Send + Sync + 'static,
    M: FetchMode<V> + Unpin,
{
    type Output = M::Output;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<M::Output> {
        // All fields are Unpin (`M` by bound — every ordinary closure is),
        // so plain projection is safe without unsafe code.
        let this = self.get_mut();
        if this.started.is_none() {
            this.started = Some(crate::telemetry::now());
        }
        loop {
            let step = match &mut this.state {
                LookupState::Finished => panic!("LookupFuture polled after completion"),
                LookupState::Start => {
                    this.engine.observe_now(this.now);
                    let shard_index = *this
                        .shard
                        .get_or_insert_with(|| this.engine.shard_index(&this.key));
                    let mut state = this.engine.inner.shards[shard_index].lock();
                    if let Some(value) = state.cache.get(&this.key, this.now) {
                        Step::Return(Lookup {
                            value: Arc::clone(value),
                            source: LookupSource::Hit,
                            outcome: None,
                        })
                    } else if let Some(flight) = state.inflight.get(&this.key) {
                        // A live flight wins over a memoized failure: the
                        // in-flight leader may be retrying its way to a
                        // success this session can share.
                        Step::BecomeWaiter(Arc::clone(flight))
                    } else {
                        // A refused shard degrades without ever invoking
                        // the fetch; outside the failure domain every miss
                        // leads.
                        let admitted = if M::FAILURE_DOMAIN {
                            this.engine.admit_fetch(&mut state, &this.key, this.now)
                        } else {
                            Ok(false)
                        };
                        match admitted {
                            Ok(probe) => {
                                let flight = Arc::new(Flight::with_probe(probe));
                                state.inflight.insert(this.key.clone(), Arc::clone(&flight));
                                Step::Lead(flight)
                            }
                            Err((error, negative_hit)) => Step::Resolve {
                                error,
                                negative_hit,
                            },
                        }
                    }
                }
                LookupState::Waiting {
                    flight,
                    slot: _,
                    leading: Some(epoch),
                } => match flight.poll_leader(*epoch, cx) {
                    Poll::Pending => Step::Suspend,
                    Poll::Ready(LeaderOutcome::Done(value, _cost)) => {
                        let outcome = flight.take_outcome();
                        Step::Return(Lookup {
                            value,
                            source: LookupSource::Executed,
                            outcome,
                        })
                    }
                    Poll::Ready(LeaderOutcome::Failed(payload)) => Step::LeaderFailed(payload),
                    Poll::Ready(LeaderOutcome::Error(error)) => Step::Resolve {
                        error,
                        negative_hit: false,
                    },
                },
                LookupState::Waiting {
                    flight,
                    slot,
                    leading: None,
                } => match flight.poll_wait(slot, cx) {
                    Poll::Pending => Step::Suspend,
                    Poll::Ready(FlightOutcome::Done(value, cost)) => {
                        // A coalesced wait is still one logical reference
                        // (one-call-per-reference protocol): account it as
                        // hit-equivalent at the leader's observed cost so
                        // CSR/HR denominators cover every reference.
                        let shard_index = this.shard.expect("set before waiting");
                        {
                            let mut state = this.engine.inner.shards[shard_index].lock();
                            state.cache.record_coalesced_reference(cost);
                        }
                        this.engine
                            .inner
                            .coalesced_misses
                            .fetch_add(1, Ordering::Relaxed);
                        Step::Return(Lookup {
                            value,
                            source: LookupSource::Coalesced,
                            outcome: None,
                        })
                    }
                    // The previous leader failed and this session won the
                    // takeover race: it is the leader now, on the same
                    // flight cell, with its own (still unconsumed) fetch.
                    Poll::Ready(FlightOutcome::TakeOver) => Step::TakeOver(Arc::clone(flight)),
                    // The leader's terminal error resolved the flight for
                    // every coalesced waiter at once; inside the failure
                    // domain all of them share one `Arc<FetchError>` (and
                    // each resolves its own stale-vs-error outcome below).
                    Poll::Ready(FlightOutcome::Failed(error)) if M::FAILURE_DOMAIN => {
                        Step::Resolve {
                            error,
                            negative_hit: false,
                        }
                    }
                    // Outside it the session cannot surface an error, but it
                    // still holds its own fetch: start over — the failed
                    // cell is retired, so it leads a fresh flight.
                    Poll::Ready(FlightOutcome::Failed(_)) => Step::Restart,
                },
                LookupState::Backoff { flight, sleep } => match Pin::new(sleep).poll(cx) {
                    Poll::Pending => Step::Suspend,
                    // Backoff elapsed: resume leading the same flight with
                    // the next attempt.
                    Poll::Ready(()) => Step::Lead(Arc::clone(flight)),
                },
            };

            // Resolve a takeover into a hit or real leadership before the
            // state transition below.
            let step = match step {
                Step::TakeOver(flight) => {
                    let shard_index = this.shard.expect("set before waiting");
                    let shard = &this.engine.inner.shards[shard_index];
                    let cached = shard.lock().cache.get(&this.key, this.now).map(Arc::clone);
                    match cached {
                        // The value landed before the old leader failed (a
                        // panic in its post-insert observer emit): serve the
                        // hit instead of re-running a multi-second fetch,
                        // and pass leadership along — the next candidate
                        // repeats this check, and the last abandonment
                        // retires the cell.
                        Some(value) => {
                            shard.abandon(&this.key, &flight);
                            Step::Return(Lookup {
                                value,
                                source: LookupSource::Hit,
                                outcome: None,
                            })
                        }
                        None => {
                            // Fresh leadership on the taken-over cell: this
                            // session's own retry budget starts from zero.
                            this.attempts = 0;
                            Step::Lead(flight)
                        }
                    }
                }
                other => other,
            };

            match step {
                Step::TakeOver(_) => unreachable!("resolved into Return or Lead above"),
                Step::Suspend => return Poll::Pending,
                Step::Restart => {
                    this.state = LookupState::Start;
                    // Loop: look the key up afresh.
                }
                Step::Return(lookup) => return this.finish(Ok(lookup)),
                Step::Resolve {
                    error,
                    negative_hit,
                } => {
                    let shard_index = this.shard.expect("set before resolving");
                    let result = this.engine.resolve_failed_lookup(
                        &this.key,
                        shard_index,
                        this.now,
                        error,
                        negative_hit,
                    );
                    return this.finish(result);
                }
                Step::BecomeWaiter(flight) => {
                    this.state = LookupState::Waiting {
                        flight,
                        slot: WaiterSlot::new(),
                        leading: None,
                    };
                    // Loop: poll the flight, registering our waker.
                }
                Step::LeaderFailed(payload) => {
                    this.state = LookupState::Finished;
                    match payload {
                        // Re-raise the fetch's panic on the leader session,
                        // mirroring the synchronous contract.
                        Some(payload) => std::panic::resume_unwind(payload),
                        None => panic!("single-flight leader fetch failed"),
                    }
                }
                Step::Lead(flight) => {
                    let shard_index = this.shard.expect("set before leading");
                    match this.spawn {
                        // Inline leader: fetch (and retry) on this thread.
                        None => loop {
                            this.attempts += 1;
                            // The guard stays armed through the fetch AND, on
                            // success, the completion (insert + observer
                            // emit): a panic anywhere before `complete` —
                            // including user observer code — must wake
                            // exactly one waiter to take over this same
                            // flight cell (retiring the cell when nobody
                            // waits) instead of stranding the waiters on a
                            // flight that never resolves.  The panic itself
                            // propagates to the caller.
                            let guard = AbandonGuard {
                                shard: &this.engine.inner.shards[shard_index],
                                key: &this.key,
                                flight: &flight,
                            };
                            let mode = this
                                .mode
                                .as_mut()
                                .expect("an inline leader keeps its fetch");
                            match timed_attempt(|| mode.attempt()) {
                                Ok((value, cost)) => {
                                    let value = Arc::new(value);
                                    let outcome = this.engine.finish_leader_insert(
                                        &this.key,
                                        shard_index,
                                        &flight,
                                        Arc::clone(&value),
                                        cost,
                                        this.now,
                                        M::FAILURE_DOMAIN,
                                    );
                                    flight.complete(Arc::clone(&value), cost);
                                    std::mem::forget(guard);
                                    return this.finish(Ok(Lookup {
                                        value,
                                        source: LookupSource::Executed,
                                        outcome: Some(outcome),
                                    }));
                                }
                                Err(error) => {
                                    // The error is handled explicitly — the
                                    // flight must NOT be abandoned.
                                    std::mem::forget(guard);
                                    let retry =
                                        this.engine.plan_retry(&this.key, this.attempts, &error);
                                    if let Some(delay) = retry {
                                        if delay.is_zero() {
                                            continue;
                                        }
                                        let sleep = this.engine.runtime().sleep(delay);
                                        this.state = LookupState::Backoff { flight, sleep };
                                        // Loop: poll the backoff sleep.
                                        break;
                                    }
                                    let error = Arc::new(error);
                                    this.engine.fail_leader(
                                        &this.key,
                                        shard_index,
                                        &flight,
                                        &error,
                                        this.now,
                                    );
                                    flight.fail(Arc::clone(&error));
                                    let result = this.engine.resolve_failed_lookup(
                                        &this.key,
                                        shard_index,
                                        this.now,
                                        error,
                                        false,
                                    );
                                    return this.finish(result);
                                }
                            }
                        },
                        Some(spawn) => {
                            let mode = this.mode.take().expect("leader consumes its fetch once");
                            let epoch = flight.new_leader_epoch();
                            let cancel = Arc::new(AtomicBool::new(false));
                            this.leader_cancel = Some(Arc::clone(&cancel));
                            spawn(
                                &this.engine,
                                mode,
                                this.key.clone(),
                                shard_index,
                                this.now,
                                Arc::clone(&flight),
                                epoch,
                                cancel,
                            );
                            this.state = LookupState::Waiting {
                                flight,
                                slot: WaiterSlot::new(),
                                leading: Some(epoch),
                            };
                            // Loop: poll as leader, registering our waker.
                        }
                    }
                }
            }
        }
    }
}

impl<V, M> Drop for LookupFuture<V, M> {
    fn drop(&mut self) {
        // A cancelled *leader* flips its cancellation flag: a spawned fetch
        // task that has not started yet observes it, skips the closure
        // entirely and abandons the flight (leadership moves to a waiter; a
        // waiterless cell is retired).  A fetch already running is past the
        // check and completes the flight for the remaining waiters — either
        // way nobody is stranded.
        if let Some(cancel) = &self.leader_cancel {
            cancel.store(true, Ordering::Release);
        }
        match &mut self.state {
            // A cancelled waiter must deregister; if it had been woken to
            // take over an abandoned flight, the wake is passed along so no
            // takeover is lost, and the last waiter of an abandoned flight
            // retires the cell.
            LookupState::Waiting {
                flight,
                slot,
                leading: None,
            } => {
                let shard_index = self.shard.expect("set before waiting");
                self.engine.inner.shards[shard_index].forget_waiter(&self.key, flight, slot);
            }
            // An inline leader dropped mid-backoff still owns a pending
            // flight: abandon it so a waiter takes leadership over with its
            // own fetch (a waiterless cell is retired).
            LookupState::Backoff { flight, .. } => {
                let shard_index = self.shard.expect("set before leading");
                self.engine.inner.shards[shard_index].abandon(&self.key, flight);
            }
            _ => {}
        }
    }
}

/// Abandons the leader's flight if its inline fetch panics, so waiters are
/// not stranded on a flight that will never complete.  Exactly one waiter is
/// woken to take over leadership of the same cell; with no waiters at all
/// the cell is retired from the in-flight table (see [`Shard::abandon`]).
struct AbandonGuard<'a, V> {
    shard: &'a Shard<V>,
    key: &'a QueryKey,
    flight: &'a Arc<Flight<V>>,
}

impl<V> Drop for AbandonGuard<'_, V> {
    fn drop(&mut self) {
        self.shard.abandon(self.key, self.flight);
    }
}

/// The error a [`DeadlineLookup`] resolves to when its timeout elapses
/// before the lookup completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupTimedOut;

impl std::fmt::Display for LookupTimedOut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("lookup deadline elapsed before the query completed")
    }
}

impl std::error::Error for LookupTimedOut {}

/// The future returned by [`Watchman::get_or_execute_async_with_timeout`]:
/// a [`LookupFuture`] raced against a [`Sleep`] deadline.
///
/// Resolves to `Ok(`[`Lookup`]`)` if the lookup completes first, or
/// `Err(`[`LookupTimedOut`]`)` once the deadline fires — at which point the
/// inner lookup is dropped, which deregisters a waiter (handing along any
/// takeover claim) or cancels a leader whose fetch has not started yet.
pub struct DeadlineLookup<V, F> {
    /// `None` after the deadline fired (the drop *is* the cancellation).
    lookup: Option<LookupFuture<V, Infallible<F>>>,
    deadline: Sleep,
}

impl<V, F> std::fmt::Debug for DeadlineLookup<V, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeadlineLookup")
            .field("lookup", &self.lookup)
            .finish_non_exhaustive()
    }
}

impl<V, F> Future for DeadlineLookup<V, F>
where
    V: CachePayload + Send + Sync + 'static,
    F: FnOnce() -> (V, ExecutionCost) + Unpin,
{
    type Output = Result<Lookup<V>, LookupTimedOut>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let Some(lookup) = this.lookup.as_mut() else {
            panic!("DeadlineLookup polled after completion");
        };
        // Lookup first: a result that is ready when the deadline fires in
        // the same poll round still wins (the work was already done).
        if let Poll::Ready(lookup) = Pin::new(lookup).poll(cx) {
            this.lookup = None;
            return Poll::Ready(Ok(lookup));
        }
        match Pin::new(&mut this.deadline).poll(cx) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(()) => {
                // Dropping the lookup is the cancellation: waiter wakers
                // deregister, an unstarted leader fetch is skipped.
                this.lookup = None;
                Poll::Ready(Err(LookupTimedOut))
            }
        }
    }
}

/// The background task that runs rebalance passes every `period`.
///
/// Holds only weak references: it never keeps the engine alive, and exits
/// when the engine is dropped (the shutdown cell fires), when the runtime
/// goes away, or when the engine is gone at wake time.
struct RebalanceTask<V> {
    engine: Weak<Inner<V>>,
    shutdown: Arc<ShutdownCell>,
    runtime: Weak<crate::runtime::RuntimeInner>,
    sleep: Sleep,
    period: Duration,
}

impl<V> Future for RebalanceTask<V>
where
    V: CachePayload + Send + Sync + 'static,
{
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        loop {
            // Register before checking: a fire between check and suspend
            // must not be lost.
            this.shutdown.register(cx.waker());
            if this.shutdown.is_fired() {
                return Poll::Ready(());
            }
            match Pin::new(&mut this.sleep).poll(cx) {
                Poll::Pending => return Poll::Pending,
                Poll::Ready(()) => {
                    if this.shutdown.is_fired() {
                        return Poll::Ready(());
                    }
                    let Some(inner) = this.engine.upgrade() else {
                        return Poll::Ready(());
                    };
                    let engine = Watchman { inner };
                    let now =
                        Timestamp::from_micros(engine.inner.latest_now.load(Ordering::Relaxed));
                    engine.rebalance_pass(now);
                    drop(engine);
                    if this.runtime.upgrade().is_none() {
                        return Poll::Ready(());
                    }
                    this.sleep =
                        Sleep::until(this.runtime.clone(), crate::telemetry::now() + this.period);
                }
            }
        }
    }
}
