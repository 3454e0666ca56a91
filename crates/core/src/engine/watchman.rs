//! The sharded concurrent cache engine.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::clock::Timestamp;
use crate::coherence::DependencyIndex;
use crate::engine::builder::WatchmanBuilder;
use crate::engine::events::{CacheEvent, CacheObserver};
use crate::engine::failure::{BreakerState, CircuitBreaker, FailureConfig, FetchError};
use crate::engine::lookup::Step;
use crate::engine::policy_kind::PolicyKind;
use crate::engine::rebalance::{
    floor_bytes, plan_transfer, step_bytes, RebalanceOutcome, ShardSignal,
};
use crate::engine::single_flight::{Flight, WaiterSlot};
use crate::key::QueryKey;
use crate::metrics::CacheStats;
use crate::policy::{InsertOutcome, QueryCache};
use crate::runtime::{Runtime, Sleep};
use crate::sync::{Mutex, MutexGuard};
use crate::value::{CachePayload, ExecutionCost};

/// Adds an insert's or a rebalance transfer's evictions to the registry's
/// eviction counter.  Called under the shard lock (the target is an atomic,
/// so this adds no lock class).
pub(super) fn record_evictions(evicted: &[QueryKey]) {
    if !evicted.is_empty() {
        crate::telemetry::global()
            .evictions
            .add(evicted.len() as u64);
    }
}

/// An owned, aggregated snapshot of the engine's statistics.
///
/// The snapshot is *atomic*: every shard is locked for the duration of the
/// read, so the per-shard capacities always sum to the configured total even
/// while a rebalance pass is moving bytes between shards.  Taking one is a
/// pure read: two snapshots with no operation between them are equal.
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
    /// Number of lookups answered straight from a memoized recent fetch
    /// failure in the key's slot, without invoking the fetch closure.
    pub negative_hits: u64,
    /// Total circuit-breaker state transitions across shards
    /// (closed→open, open→half-open, half-open→closed, half-open→open).
    pub breaker_transitions: u64,
    /// Requests refused by the server's overload admission gate.  The engine
    /// itself never sheds — this is always zero in engine-produced snapshots
    /// and is filled in by `watchmand` before a STATS response is encoded.
    pub sheds: u64,
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

/// How long a memoized fetch failure answers for its key, in logical
/// microseconds; the first reference after that retries the warehouse.
pub(super) const FAILURE_TTL_US: u64 = 50_000;

/// Keys per shard whose slot may hold a record: a last-known-good copy or a
/// memoized failure.  Past it, the key whose latest record is oldest loses
/// both.
pub(super) const MAX_RECORDED_KEYS: usize = 1_024;

/// What a shard knows about one key besides its cached set: the flight
/// fetching it, its last-known-good copy and its memoized failure.  The
/// slot lives in the shard's map only while it holds one of the three.
struct KeySlot<V> {
    flight: Option<Arc<Flight<V>>>,
    /// Whether `flight` holds one of the breaker's half-open probe tickets.
    /// The ticket belongs to the cell, not to a session, so it survives
    /// takeovers; whoever settles or retires the cell takes it.
    probe: bool,
    /// The last-known-good copy and its cost (kept with `serve_stale`).
    stale: Option<(Arc<V>, ExecutionCost)>,
    /// The memoized terminal failure and when it expires.
    failure: Option<(Arc<FetchError>, Timestamp)>,
    /// The store sequence under which the shard's `recorded` order lists
    /// this key, while it holds a stale copy or a failure.
    recorded_at: Option<u64>,
}

impl<V> KeySlot<V> {
    fn new() -> Self {
        KeySlot {
            flight: None,
            probe: false,
            stale: None,
            failure: None,
            recorded_at: None,
        }
    }

    fn is_empty(&self) -> bool {
        self.flight.is_none() && self.stale.is_none() && self.failure.is_none()
    }

    /// Takes `flight` out of the slot if it is still the slot's own cell,
    /// returning whether that cell held a probe ticket.  A racer that cloned
    /// an abandoned cell's `Arc` before its retirement can still take the
    /// orphan over and settle it, by which time the slot holds no flight or
    /// a fresh one: the orphan finds no ticket.
    fn retire(&mut self, flight: &Arc<Flight<V>>) -> bool {
        let own = self
            .flight
            .take_if(|own| Arc::ptr_eq(own, flight))
            .is_some();
        own && std::mem::take(&mut self.probe)
    }

    /// Takes the slot out of the store order once it holds no record.
    fn unlist_if_bare(&mut self, recorded: &mut BTreeMap<u64, QueryKey>) {
        if self.stale.is_none() && self.failure.is_none() {
            if let Some(seq) = self.recorded_at.take() {
                recorded.remove(&seq);
            }
        }
    }
}

/// One shard: its cached sets, its breaker and one slot per key it is
/// fetching or holds a record for.  The breaker and the slots live inside
/// the shard mutex, so they add no lock class (see CONCURRENCY.md).
pub(super) struct ShardState<V> {
    pub(super) cache: Box<dyn QueryCache<Arc<V>> + Send>,
    pub(super) breaker: Option<CircuitBreaker>,
    slots: HashMap<QueryKey, KeySlot<V>>,
    /// The keys whose slot holds a record, by the sequence of their latest
    /// store: the first entry is the one the bound drops next.
    recorded: BTreeMap<u64, QueryKey>,
    next_store: u64,
    /// Lookups answered from a memoized failure.
    negative_hits: u64,
}

pub(super) struct Shard<V> {
    state: Mutex<ShardState<V>>,
}

impl<V> ShardState<V> {
    /// The lookup's step after a cache miss: join the key's flight, resolve
    /// from its fresh memoized failure or the breaker's refusal without a
    /// fetch, or lead a new flight.  Outside the failure domain
    /// (`failure_domain == false`) only the flight is read, and every other
    /// miss leads.
    pub(super) fn start_flight(
        &mut self,
        key: &QueryKey,
        now: Timestamp,
        failure_domain: bool,
    ) -> Step<V> {
        let mut entry = self.slots.entry(key.clone());
        if let Entry::Occupied(occupied) = &mut entry {
            let slot = occupied.get_mut();
            // A live flight wins over a memoized failure: its leader may be
            // retrying its way to a success this session can share.
            if let Some(flight) = &slot.flight {
                return Step::BecomeWaiter(Arc::clone(flight));
            }
            match &slot.failure {
                Some((error, expires)) if failure_domain && now < *expires => {
                    self.negative_hits += 1;
                    return Step::Resolve {
                        error: Arc::clone(error),
                        negative_hit: true,
                    };
                }
                // Expired: dropped on the way past.
                Some(_) if failure_domain => {
                    slot.failure = None;
                    slot.unlist_if_bare(&mut self.recorded);
                }
                _ => {}
            }
        }
        let mut probe = false;
        if let Some(breaker) = self.breaker.as_mut().filter(|_| failure_domain) {
            if !breaker.admit(now) {
                if let Entry::Occupied(occupied) = entry {
                    if occupied.get().is_empty() {
                        occupied.remove();
                    }
                }
                let refused = FetchError::transient("circuit breaker open: fetch refused");
                return Step::Resolve {
                    error: Arc::new(refused),
                    negative_hit: false,
                };
            }
            probe = breaker.state() == BreakerState::HalfOpen;
        }
        let flight = Arc::new(Flight::new());
        let slot = entry.or_insert_with(KeySlot::new);
        slot.flight = Some(Arc::clone(&flight));
        slot.probe = probe;
        Step::Lead(flight)
    }

    /// `flight`'s fetch succeeded: retires the cell and settles its probe
    /// ticket with the breaker, which a failure-domain leader's success
    /// feeds even without one.  Inside the failure domain the key's
    /// memoized failure is dropped and `stale`, if given, becomes its
    /// last-known-good copy.
    pub(super) fn settle_success(
        &mut self,
        key: &QueryKey,
        flight: &Arc<Flight<V>>,
        now: Timestamp,
        failure_domain: bool,
        stale: Option<(Arc<V>, ExecutionCost)>,
    ) {
        let probe = self.settle(key, flight, |slot| {
            if failure_domain {
                slot.failure = None;
            }
            let stored = stale.is_some();
            slot.stale = stale.or(slot.stale.take());
            stored
        });
        if probe || failure_domain {
            if let Some(breaker) = self.breaker.as_mut() {
                breaker.record_success(now);
            }
        }
    }

    /// `flight`'s fetch failed terminally: retires the cell and memoizes
    /// `error` for the key until [`FAILURE_TTL_US`] past `now`.
    pub(super) fn settle_failure(
        &mut self,
        key: &QueryKey,
        flight: &Arc<Flight<V>>,
        error: &Arc<FetchError>,
        now: Timestamp,
    ) {
        self.settle(key, flight, |slot| {
            slot.failure = Some((Arc::clone(error), now.advanced_by(FAILURE_TTL_US)));
            true
        });
    }

    /// Retires a cell that no session is left to resolve.  This is the one
    /// place a half-open probe ticket is *returned*: the cell's fetch ended
    /// without an outcome for the breaker (its leader panicked or was
    /// cancelled, and nobody took the flight over), so the ticket it drew at
    /// admission goes back for the next arrival to draw.
    fn retire_unresolved(&mut self, key: &QueryKey, flight: &Arc<Flight<V>>) {
        if self.settle(key, flight, |_| false) {
            if let Some(breaker) = self.breaker.as_mut() {
                breaker.release_probe();
            }
        }
    }

    /// The one completion step on `key`'s slot: retires `flight` from it,
    /// then lets `update` change its records.  `update` returns whether it
    /// stored one, which moves the key to the newest end of the store order
    /// and may push the oldest key past [`MAX_RECORDED_KEYS`].  A slot left
    /// holding nothing is removed.  Returns whether the retired cell held a
    /// probe ticket.
    fn settle(
        &mut self,
        key: &QueryKey,
        flight: &Arc<Flight<V>>,
        update: impl FnOnce(&mut KeySlot<V>) -> bool,
    ) -> bool {
        let mut entry = match self.slots.entry(key.clone()) {
            Entry::Occupied(entry) => entry,
            Entry::Vacant(entry) => entry.insert_entry(KeySlot::new()),
        };
        let slot = entry.get_mut();
        let probe = slot.retire(flight);
        if update(slot) {
            if let Some(seq) = slot.recorded_at.replace(self.next_store) {
                self.recorded.remove(&seq);
            }
            self.recorded.insert(self.next_store, key.clone());
            self.next_store += 1;
        } else {
            slot.unlist_if_bare(&mut self.recorded);
        }
        if slot.is_empty() {
            entry.remove();
        }
        if self.recorded.len() > MAX_RECORDED_KEYS {
            if let Some((_, oldest)) = self.recorded.pop_first() {
                self.forget_records(&oldest);
            }
        }
        probe
    }

    /// The last-known-good copy of `key`, if its slot holds one.
    pub(super) fn stale_for(&self, key: &QueryKey) -> Option<(Arc<V>, ExecutionCost)> {
        let (value, cost) = self.slots.get(key)?.stale.as_ref()?;
        Some((Arc::clone(value), *cost))
    }

    /// Drops `key`'s last-known-good copy and memoized failure.
    fn forget_records(&mut self, key: &QueryKey) {
        let Some(slot) = self.slots.get_mut(key) else {
            return;
        };
        slot.stale = None;
        slot.failure = None;
        slot.unlist_if_bare(&mut self.recorded);
        if slot.is_empty() {
            self.slots.remove(key);
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
    /// worst case of the orphan race described at [`KeySlot::retire`] is
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
    /// Number of passes run (including ones that moved nothing): the one
    /// count [`Watchman::rebalance_passes`] reads.
    pass_index: u64,
    /// The last executed transfer, as (donor, recipient, pass_index).
    /// Shrinking a shard feeds its own starvation signal (the evicted sets
    /// land in its retained store), so an unchecked planner slowly sloshes
    /// capacity back and forth between two shards; refusing to reverse the
    /// most recent transfer for a cooldown period breaks that feedback loop.
    last_transfer: Option<(usize, usize, u64)>,
}

struct RebalancerState {
    rebalances: AtomicU64,
    pass: Mutex<RebalancePassState>,
    /// Thread identities of every pass, recorded in unit tests to prove that
    /// passes never run on a session thread.
    #[cfg(test)]
    pass_threads: Mutex<Vec<std::thread::ThreadId>>,
}

/// A one-shot signal the engine fires at drop to stop its background
/// rebalance task: the task lives on the engine's runtime, which a caller
/// holding [`Watchman::runtime`] can keep alive after the engine is gone.
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

pub(super) struct Inner<V> {
    pub(super) shards: Vec<Shard<V>>,
    pub(super) observers: Vec<Arc<dyn CacheObserver>>,
    policy: PolicyKind,
    total_capacity_bytes: u64,
    /// Failure-domain configuration for the fallible fetch pipeline.
    pub(super) failure: FailureConfig,
    /// Fetch retries issued by the fallible pipeline (attempts beyond the
    /// first), across every key and shard.
    pub(super) fetch_retries: AtomicU64,
    rebalancer: Option<RebalancerState>,
    /// The engine's own runtime, created on first use: no threads are
    /// spawned until a retry backoff's timer or a background task needs
    /// them, so a lookup that never sleeps, on any door, never pays for a
    /// pool.
    runtime: OnceLock<Arc<Runtime>>,
    /// The worker count `runtime` is created with.
    runtime_workers: usize,
    /// The latest logical timestamp any operation carried, in microseconds.
    /// The background rebalance task evaluates victim profits "now", and the
    /// engine's notion of now is whatever the sessions last said it was.
    latest_now: AtomicU64,
    /// Fired on drop so the background rebalance task exits promptly even
    /// while a caller still holds the runtime.
    rebalance_shutdown: OnceLock<Arc<ShutdownCell>>,
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
/// * [`Watchman::get_or_execute`] / [`Watchman::try_get_or_execute_async`]
///   deduplicate concurrent misses on the same query (*single-flight*):
///   exactly one session executes the warehouse query, the rest share its
///   result.  Both entry points drive the **same poll-based state
///   machine**; the synchronous one [`block_on`](crate::runtime::block_on)s
///   it with an inline fetch, the asynchronous one suspends waiting
///   sessions as futures on the engine's [`Runtime`] instead of parking OS
///   threads;
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
/// assert_eq!(engine.stats_snapshot().total.hits, 1);
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
                            breaker: builder.failure.breaker.clone().map(CircuitBreaker::new),
                            slots: HashMap::new(),
                            recorded: BTreeMap::new(),
                            next_store: 0,
                            negative_hits: 0,
                        },
                    ),
                }
            })
            .collect();
        let rebalancer = builder.rebalance.as_ref().map(|_| RebalancerState {
            rebalances: AtomicU64::new(0),
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
                policy: builder.policy,
                total_capacity_bytes: builder.capacity_bytes,
                failure: builder.failure,
                fetch_retries: AtomicU64::new(0),
                rebalancer,
                runtime: OnceLock::new(),
                runtime_workers: builder.runtime_workers,
                latest_now: AtomicU64::new(0),
                rebalance_shutdown: OnceLock::new(),
            }),
        };
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
    /// The engine owns it and creates it on first use with
    /// [`WatchmanBuilder::runtime_workers`] workers.  Applications can spawn
    /// their own session tasks here; a session that leads a flight runs its
    /// fetch on the worker polling it.
    pub fn runtime(&self) -> Arc<Runtime> {
        let inner = &self.inner;
        Arc::clone(
            inner
                .runtime
                .get_or_init(|| Arc::new(Runtime::with_workers(inner.runtime_workers))),
        )
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
    /// task holds only weak references, so it never keeps the engine (or
    /// its runtime) alive; the engine's drop fires its shutdown cell.
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
        #[cfg(test)]
        rb.pass_threads.lock().push(std::thread::current().id());

        let total = self.inner.total_capacity_bytes;
        let floor = floor_bytes(total, self.inner.shards.len());
        let step = step_bytes(total, self.inner.shards.len());

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
        record_evictions(&evicted);
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
        let index = self.shard_index(key);
        let mut shard = self.inner.shards[index].lock();
        shard.cache.get(key, now).map(Arc::clone)
    }

    /// Offers a freshly retrieved set for admission after a miss.
    pub fn insert(
        &self,
        key: QueryKey,
        value: V,
        cost: ExecutionCost,
        now: Timestamp,
    ) -> InsertOutcome {
        self.observe_now(now);
        let index = self.shard_index(&key);
        let size_bytes = value.size_bytes();
        let mut shard = self.inner.shards[index].lock();
        let outcome = shard.cache.insert(key.clone(), Arc::new(value), cost, now);
        record_evictions(outcome.evicted());
        // Emitted under the shard lock so observers see this shard's events
        // in cache order (see the events module docs).
        if !self.inner.observers.is_empty() {
            self.emit(Self::insert_events(&key, size_bytes, cost, &outcome, index));
        }
        outcome
    }

    /// Removes the retrieved set for `key` because a warehouse update made it
    /// stale.  Returns whether it was resident.
    pub fn invalidate(&self, key: &QueryKey) -> bool {
        let index = self.shard_index(key);
        let mut shard = self.inner.shards[index].lock();
        // Invalidated data is *wrong*, not merely old: the last-known-good
        // copy must never be stale-served after an invalidation, and a
        // memoized failure is no longer the warehouse's answer either.
        shard.forget_records(key);
        let removed = shard.cache.remove(key);
        if removed && !self.inner.observers.is_empty() {
            self.emit(vec![CacheEvent::Invalidated {
                key: key.clone(),
                shard: index,
            }]);
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
        let index = self.shard_index(key);
        let shard = self.inner.shards[index].lock();
        shard.cache.peek(key).map(Arc::clone)
    }

    /// Whether a retrieved set for `key` is currently cached.
    pub fn contains(&self, key: &QueryKey) -> bool {
        let index = self.shard_index(key);
        self.inner.shards[index].lock().cache.contains(key)
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
            .map_or(0, |rb| rb.pass.lock().pass_index)
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

    /// A full owned snapshot: aggregate and per-shard counters, occupancies,
    /// capacities, single-flight coalescing and rebalancing activity.
    ///
    /// Every shard is locked for the duration of the read (in index order,
    /// consistent with the rebalancer's lock order), so the snapshot is
    /// internally consistent: per-shard capacities sum to the configured
    /// total even while a rebalance pass runs concurrently.  It writes
    /// nothing, so repeated snapshots of an idle engine are equal.
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
        let mut negative_hits = 0;
        for state in &guards {
            let stats = state.cache.stats_snapshot();
            total.merge(&stats);
            per_shard.push(stats);
            let used = state.cache.used_bytes();
            let capacity = state.cache.capacity_bytes();
            per_shard_used.push(used);
            per_shard_capacity.push(capacity);
            used_bytes += used;
            capacity_bytes += capacity;
            entries += state.cache.len();
            negative_hits += state.negative_hits;
            breaker_transitions += state
                .breaker
                .as_ref()
                .map_or(0, CircuitBreaker::transitions);
        }
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
            negative_hits,
            breaker_transitions,
            sheds: 0,
        }
    }

    /// Number of in-flight single-flight cells across all shards (test
    /// instrumentation for the abandoned-cell retirement guarantee).
    #[cfg(test)]
    pub(crate) fn inflight_entries(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|shard| {
                let state = shard.lock();
                state
                    .slots
                    .values()
                    .filter(|slot| slot.flight.is_some())
                    .count()
            })
            .sum()
    }

    /// Number of key slots across all shards, whatever they hold.
    #[cfg(test)]
    pub(crate) fn slot_count(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|shard| shard.lock().slots.len())
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
