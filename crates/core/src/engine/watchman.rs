//! The sharded concurrent cache engine.

use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::clock::Timestamp;
use crate::coherence::DependencyIndex;
use crate::engine::builder::{KeyNormalizer, WatchmanBuilder};
use crate::engine::events::{CacheEvent, CacheObserver};
use crate::engine::failure::{
    CircuitBreaker, FailureConfig, FetchError, NegativeCacheConfig, StalenessPolicy,
};
use crate::engine::policy_kind::PolicyKind;
use crate::engine::rebalance::{plan_transfer, RebalanceConfig, RebalanceOutcome, ShardSignal};
use crate::engine::single_flight::{Flight, WaiterSlot};
use crate::key::QueryKey;
use crate::metrics::{CacheStats, FragmentationTracker};
use crate::policy::{InsertOutcome, QueryCache};
use crate::runtime::{Runtime, Sleep};
use crate::sync::{Mutex, MutexGuard};
use crate::value::{CachePayload, ExecutionCost};

/// Publishes a change to a shard's contents to telemetry — an insert, or a
/// rebalance transfer's capacity change: the shard's occupancy gauge and the
/// global eviction counter.  Called under the shard lock (both targets are
/// atomics, so this adds no lock class).
pub(super) fn record_shard_telemetry(shard_index: usize, used_bytes: u64, evicted: &[QueryKey]) {
    let telemetry = crate::telemetry::global();
    telemetry.set_shard_used(shard_index, used_bytes);
    if !evicted.is_empty() {
        telemetry.evictions.add(evicted.len() as u64);
    }
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
pub(super) struct ShardFailureState<V> {
    pub(super) breaker: Option<CircuitBreaker>,
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
    pub(super) fn store_stale(
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
    pub(super) fn stale_for(
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
    pub(super) fn store_negative(
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
    pub(super) fn fresh_negative(
        &mut self,
        key: &QueryKey,
        now: Timestamp,
    ) -> Option<Arc<FetchError>> {
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

    pub(super) fn drop_negative(&mut self, key: &QueryKey) {
        if self.negative.remove(key).is_some() {
            self.negative_order.retain(|k| k != key);
        }
    }
}

pub(super) struct ShardState<V> {
    pub(super) cache: Box<dyn QueryCache<Arc<V>> + Send>,
    pub(super) inflight: HashMap<QueryKey, Arc<Flight<V>>>,
    pub(super) failure: ShardFailureState<V>,
}

pub(super) struct Shard<V> {
    state: Mutex<ShardState<V>>,
}

impl<V> ShardState<V> {
    /// Removes `flight`'s cell from the in-flight table, if it is still the
    /// one registered for `key`: a racer that cloned an abandoned cell's
    /// `Arc` before its retirement can still take the orphan over and settle
    /// it, by which time the entry is gone or belongs to a fresh flight.
    pub(super) fn retire(&mut self, key: &QueryKey, flight: &Arc<Flight<V>>) {
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
    pub(super) fn lock(&self) -> MutexGuard<'_, ShardState<V>> {
        self.state.lock()
    }

    /// Abandons `flight` — its leader panicked, was cancelled, or passed on
    /// a takeover — waking one waiter to take it over; when no waiter holds
    /// a claim on it, retires the cell instead.  Without that, a panicking
    /// key that is never re-requested would leak its cell forever.
    ///
    /// This is the single abandon path: shard lock first, then the flight's
    /// own lock inside [`Flight::abandon`], so the zero-waiter check and the
    /// removal are atomic against new sessions joining the flight.  The
    /// worst case of the orphan race described at [`ShardState::retire`] is
    /// one duplicate execution.
    pub(super) fn abandon(&self, key: &QueryKey, flight: &Arc<Flight<V>>) {
        let mut state = self.lock();
        if flight.abandon() == 0 {
            state.retire_unresolved(key, flight);
        }
    }

    /// Deregisters a cancelled waiter (same lock order as
    /// [`Shard::abandon`]).  If it had been woken to take an abandoned
    /// flight over, the wake moves to the next waiter; if it was the last
    /// one, the cell is retired.
    pub(super) fn forget_waiter(
        &self,
        key: &QueryKey,
        flight: &Arc<Flight<V>>,
        slot: &mut WaiterSlot,
    ) {
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
/// lazily created owned pool (no threads are spawned until a retry backoff's
/// timer or a background task needs them — a lookup that never sleeps, on
/// any door, never pays for a pool).
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

pub(super) struct Inner<V> {
    pub(super) shards: Vec<Shard<V>>,
    pub(super) observers: Vec<Arc<dyn CacheObserver>>,
    pub(super) normalizer: KeyNormalizer,
    policy: PolicyKind,
    total_capacity_bytes: u64,
    /// Failure-domain configuration for the fallible fetch pipeline.
    pub(super) failure: FailureConfig,
    /// Fetch retries issued by the fallible pipeline (attempts beyond the
    /// first), across every key and shard.
    pub(super) fetch_retries: AtomicU64,
    /// Lookups answered straight from a shard's negative cache.
    pub(super) negative_hits: AtomicU64,
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
    pub(super) inner: Arc<Inner<V>>,
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

    /// Assembles the engine a [`WatchmanBuilder`] describes.
    pub(super) fn from_builder(builder: WatchmanBuilder<V>) -> Self {
        // Clamp away zero-byte shards: with 0 < capacity < shards an even
        // split would hand some shards 0 bytes, silently voiding the slice of
        // the keyspace hashed onto them.
        let shard_count = if builder.capacity_bytes == 0 {
            builder.shards
        } else {
            builder
                .shards
                .min(usize::try_from(builder.capacity_bytes).unwrap_or(usize::MAX))
                .max(1)
        };
        let base = builder.capacity_bytes / shard_count as u64;
        let remainder = builder.capacity_bytes % shard_count as u64;
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
                            cache: builder.policy.build::<Arc<V>>(capacity),
                            inflight: HashMap::new(),
                            failure: ShardFailureState::new(
                                builder.failure.breaker.clone().map(CircuitBreaker::new),
                            ),
                        },
                    ),
                }
            })
            .collect();
        let rebalancer = builder.rebalance.as_ref().map(|config| RebalancerState {
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
                observers: builder.observers,
                normalizer: builder.normalizer,
                policy: builder.policy,
                total_capacity_bytes: builder.capacity_bytes,
                failure: builder.failure,
                fetch_retries: AtomicU64::new(0),
                negative_hits: AtomicU64::new(0),
                rebalancer,
                runtime: RuntimeSlot {
                    external: builder.runtime,
                    workers: builder.runtime_workers,
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
        if let Some(period) = builder
            .rebalance
            .and_then(|config| config.period)
            .filter(|_| shard_count >= 2)
        {
            engine.spawn_background_rebalancer(period);
        }
        engine
    }

    /// The policy every shard runs.
    pub fn policy(&self) -> PolicyKind {
        self.inner.policy
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The runtime whose timer sleeps retry backoffs and which runs the
    /// engine's background tasks.
    ///
    /// Lazily created on first use unless [`WatchmanBuilder::runtime`]
    /// supplied a shared one.  Applications can spawn their own session
    /// tasks here; a session that leads a flight runs its fetch on the
    /// worker polling it.
    pub fn runtime(&self) -> Arc<Runtime> {
        self.inner.runtime.get()
    }

    pub(super) fn shard_index(&self, key: &QueryKey) -> usize {
        // Mix the signature before reduction: FNV's low bits correlate with
        // short key suffixes, and the paper's signature index already uses
        // the raw value.
        let mixed = key.signature().value().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((mixed >> 32) as usize) % self.inner.shards.len()
    }

    /// Folds an operation's logical timestamp into the engine's notion of
    /// "now" (used by background rebalance passes).
    pub(super) fn observe_now(&self, now: Timestamp) {
        self.inner
            .latest_now
            .fetch_max(now.as_micros(), Ordering::Relaxed);
    }

    pub(super) fn emit(&self, events: Vec<CacheEvent>) {
        if self.inner.observers.is_empty() {
            return;
        }
        for event in &events {
            for observer in &self.inner.observers {
                observer.on_cache_event(event);
            }
        }
    }

    pub(super) fn insert_events(
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
        // donor's lock, like every other eviction) so the registry and
        // observer mirrors stay exact.
        record_shard_telemetry(donor, donor_state.cache.used_bytes(), &evicted);
        record_shard_telemetry(recipient, recipient_state.cache.used_bytes(), &[]);
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
        record_shard_telemetry(index, shard.cache.used_bytes(), outcome.evicted());
        // Emitted under the shard lock so observers see this shard's events
        // in cache order (see the events module docs).
        if !self.inner.observers.is_empty() {
            self.emit(Self::insert_events(&key, size_bytes, cost, &outcome, index));
        }
        outcome
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
