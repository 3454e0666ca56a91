//! The sharded concurrent cache engine.

use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use crate::clock::Timestamp;
use crate::coherence::DependencyIndex;
use crate::engine::builder::WatchmanBuilder;
use crate::engine::events::CacheObserver;
use crate::engine::failure::{BreakerState, CircuitBreaker, FailureConfig, FetchError};
use crate::engine::lookup::Step;
use crate::engine::policy_kind::PolicyKind;
use crate::engine::single_flight::Flight;
use crate::key::{QueryKey, SignatureMap};
use crate::metrics::CacheStats;
use crate::policy::QueryCache;
use crate::runtime::Runtime;
use crate::sync::{Mutex, MutexGuard};
use crate::value::{CachePayload, ExecutionCost};

/// Adds an insert's evictions to the registry's eviction counter.  Called
/// under the shard lock (the target is an atomic, so this adds no lock
/// class).
pub(super) fn record_evictions(evicted: &[QueryKey]) {
    if !evicted.is_empty() {
        crate::telemetry::global()
            .evictions
            .add(evicted.len() as u64);
    }
}

/// An owned, aggregated snapshot of the engine's statistics.
///
/// The snapshot reads one shard at a time.  Each shard's capacity is fixed
/// at build time and each shard's books balance under its own lock, so the
/// sums balance too.  Taking one is a pure read: two snapshots with no
/// operation between them are equal.
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
    /// The per-shard occupancies in bytes, indexed by shard.  Each entry is
    /// bounded by its shard's fixed share of `capacity_bytes`.
    pub per_shard_used: Vec<u64>,
    /// Bytes currently cached, summed across shards.
    pub used_bytes: u64,
    /// Total configured capacity across shards.
    pub capacity_bytes: u64,
    /// Number of cached retrieved sets across shards.
    pub entries: usize,
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

/// A session's claim to lead the flight with this id in its key's slot: the
/// session that started the flight, until it settles it.  The slot creates
/// the flight's cell only when a waiter joins, and hands it to the leader
/// when its success retires the flight (`cell`), so the leader can still
/// abandon it if an observer panics before the cell is completed.
pub(crate) struct Leader<V> {
    pub(crate) id: u64,
    pub(crate) cell: Option<Arc<Flight<V>>>,
}

/// The flight fetching a key, as its slot records it.
struct InFlight<V> {
    /// Names the flight for its leader.
    id: u64,
    /// The waiters' rendezvous, created by the first waiter that joins, so
    /// an uncontended miss never allocates one.
    cell: Option<Arc<Flight<V>>>,
    /// Whether the flight holds one of the breaker's half-open probe
    /// tickets: its leader's success settles it, and its abandonment
    /// returns it.
    probe: bool,
}

/// What a shard knows about one key besides its cached set: the flight
/// fetching it, its last-known-good copy and its memoized failure.  The
/// slot lives in the shard's map only while it holds one of the three.
struct KeySlot<V> {
    flight: Option<InFlight<V>>,
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
            stale: None,
            failure: None,
            recorded_at: None,
        }
    }

    fn is_empty(&self) -> bool {
        self.flight.is_none() && self.stale.is_none() && self.failure.is_none()
    }

    /// Takes the flight with id `id` out of the slot, if it is still the
    /// slot's own.  A leader whose observer panicked after its success
    /// retired the flight finds none here, or a successor's.
    fn retire(&mut self, id: u64) -> Option<InFlight<V>> {
        self.flight.take_if(|own| own.id == id)
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
pub(crate) struct ShardState<V> {
    pub(super) cache: Box<dyn QueryCache<Arc<V>> + Send>,
    pub(crate) breaker: Option<CircuitBreaker>,
    slots: SignatureMap<QueryKey, KeySlot<V>>,
    /// The keys whose slot holds a record, by the sequence of their latest
    /// store: the first entry is the one the bound drops next.
    recorded: BTreeMap<u64, QueryKey>,
    next_store: u64,
    /// The id of the shard's latest flight.
    last_flight: u64,
    /// Lookups answered from a memoized failure.
    negative_hits: u64,
    /// The references the policy never sees: coalesced, stale-served and
    /// failed lookups.  Snapshots merge them into the policy's own counts.
    pub(super) lookup_stats: CacheStats,
}

pub(crate) struct Shard<V> {
    state: Mutex<ShardState<V>>,
}

impl<V> ShardState<V> {
    /// The lookup's step after a cache miss: join the key's flight, resolve
    /// from its fresh memoized failure or the breaker's refusal without a
    /// fetch, or lead a new flight.  Outside the failure domain
    /// (`failure_domain == false`) only the flight is read, and every other
    /// miss leads.
    pub(crate) fn start_flight(
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
            if let Some(flight) = &mut slot.flight {
                let cell = flight.cell.get_or_insert_with(|| Arc::new(Flight::new()));
                return Step::BecomeWaiter(Arc::clone(cell));
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
        self.last_flight += 1;
        let id = self.last_flight;
        let slot = entry.or_insert_with(KeySlot::new);
        slot.flight = Some(InFlight {
            id,
            cell: None,
            probe,
        });
        Step::Lead(Leader { id, cell: None })
    }

    /// Flight `id`'s fetch succeeded: retires the flight.  Inside the
    /// failure domain the breaker records the success, the key's memoized
    /// failure is dropped and `stale`, if given, becomes its last-known-good
    /// copy.  Returns the retired flight's cell, if a waiter made one.
    pub(crate) fn settle_success(
        &mut self,
        key: &QueryKey,
        id: u64,
        now: Timestamp,
        failure_domain: bool,
        stale: Option<(Arc<V>, ExecutionCost)>,
    ) -> Option<Arc<Flight<V>>> {
        let retired = self.settle(key, id, |slot| {
            if failure_domain {
                slot.failure = None;
            }
            let stored = stale.is_some();
            slot.stale = stale.or(slot.stale.take());
            stored
        });
        // Only a failure-domain leader draws a probe ticket, so this also
        // settles the flight's ticket, if it drew one.
        if failure_domain {
            if let Some(breaker) = self.breaker.as_mut() {
                breaker.record_success(now);
            }
        }
        retired.and_then(|flight| flight.cell)
    }

    /// Flight `id`'s fetch failed terminally: retires the flight and
    /// memoizes `error` for the key until [`FAILURE_TTL_US`] past `now`.
    /// Returns the retired flight's cell, if a waiter made one.
    pub(super) fn settle_failure(
        &mut self,
        key: &QueryKey,
        id: u64,
        error: &Arc<FetchError>,
        now: Timestamp,
    ) -> Option<Arc<Flight<V>>> {
        let retired = self.settle(key, id, |slot| {
            slot.failure = Some((Arc::clone(error), now.advanced_by(FAILURE_TTL_US)));
            true
        });
        retired.and_then(|flight| flight.cell)
    }

    /// Retires a flight whose leader panicked or was cancelled.  This is
    /// the one place a half-open probe ticket is *returned*: the flight's
    /// fetch ended without an outcome for the breaker, so the ticket it drew
    /// at admission goes back for the next arrival to draw.  Returns the
    /// retired flight's cell, if a waiter made one.
    pub(crate) fn retire_unresolved(&mut self, key: &QueryKey, id: u64) -> Option<Arc<Flight<V>>> {
        let retired = self.settle(key, id, |_| false)?;
        if retired.probe {
            if let Some(breaker) = self.breaker.as_mut() {
                breaker.release_probe();
            }
        }
        retired.cell
    }

    /// The one completion step on `key`'s slot: retires flight `id` from
    /// it, then lets `update` change its records.  `update` returns whether
    /// it stored one, which moves the key to the newest end of the store
    /// order and may push the oldest key past [`MAX_RECORDED_KEYS`].  A slot
    /// left holding nothing is removed.  Returns the retired flight, if the
    /// slot still held it.
    fn settle(
        &mut self,
        key: &QueryKey,
        id: u64,
        update: impl FnOnce(&mut KeySlot<V>) -> bool,
    ) -> Option<InFlight<V>> {
        let mut entry = match self.slots.entry(key.clone()) {
            Entry::Occupied(entry) => entry,
            Entry::Vacant(entry) => entry.insert_entry(KeySlot::new()),
        };
        let slot = entry.get_mut();
        let retired = slot.retire(id);
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
        retired
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
    /// A shard caching with `cache`, behind `breaker` if it has one.
    pub(crate) fn new(
        cache: Box<dyn QueryCache<Arc<V>> + Send>,
        breaker: Option<CircuitBreaker>,
    ) -> Self {
        Shard {
            state: Mutex::new(ShardState {
                cache,
                breaker,
                slots: SignatureMap::default(),
                recorded: BTreeMap::new(),
                next_store: 0,
                last_flight: 0,
                negative_hits: 0,
                lookup_stats: CacheStats::new(),
            }),
        }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, ShardState<V>> {
        self.state.lock()
    }

    /// Abandons `leader`'s flight: its leader panicked or was cancelled
    /// before the fetch had an outcome.  Retires the flight from its key's
    /// slot under the shard lock — a panicking key that is never requested
    /// again must not leak it — then, with the lock dropped, abandons its
    /// cell, if it has one, which wakes every waiter to look the key up
    /// again.
    pub(crate) fn abandon(&self, key: &QueryKey, leader: &Leader<V>) {
        let retired = self.lock().retire_unresolved(key, leader.id);
        if let Some(cell) = retired.as_ref().or(leader.cell.as_ref()) {
            cell.abandon();
        }
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
    /// The engine's own runtime, created on first use: no threads are
    /// spawned until a retry backoff's timer needs them, so a lookup that
    /// never sleeps, on any door, never pays for a pool.
    runtime: OnceLock<Arc<Runtime>>,
    /// The worker count `runtime` is created with.
    runtime_workers: usize,
}

/// The WATCHMAN engine: a thread-safe, sharded retrieved-set cache facade.
///
/// This is the primary public API of the library — the "library of routines
/// that may be linked with an application" of paper §3, grown into a
/// concurrent engine:
///
/// * the keyspace is hash-partitioned by query signature across N shards,
///   each an independent [`PolicyKind`] instance behind its own lock, with
///   a fixed `total/N` share of the capacity;
/// * payloads are shared as `Arc<V>`, so hits never copy retrieved sets;
/// * [`Watchman::get_or_execute`] / [`Watchman::try_get_or_execute_async`]
///   deduplicate concurrent misses on the same query (*single-flight*):
///   exactly one session executes the warehouse query, the rest share its
///   result.  Both entry points drive the **same poll-based state
///   machine**; the synchronous one [`block_on`](crate::runtime::block_on)s
///   it with an inline fetch, the asynchronous one suspends waiting
///   sessions as futures on the engine's [`Runtime`] instead of parking OS
///   threads;
/// * every set that becomes or stops being resident is reported to the
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
                Shard::new(
                    builder.policy.build::<Arc<V>>(capacity),
                    builder.failure.breaker.clone().map(CircuitBreaker::new),
                )
            })
            .collect();
        Watchman {
            inner: Arc::new(Inner {
                shards,
                observers: builder.observers,
                policy: builder.policy,
                total_capacity_bytes: builder.capacity_bytes,
                failure: builder.failure,
                fetch_retries: AtomicU64::new(0),
                runtime: OnceLock::new(),
                runtime_workers: builder.runtime_workers,
            }),
        }
    }

    /// The policy every shard runs.
    pub fn policy(&self) -> PolicyKind {
        self.inner.policy
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The runtime whose timer sleeps retry backoffs.
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

    /// Tells the observers that every key in `removed` stopped being
    /// resident, then that `admitted` became resident.  Called under the
    /// shard lock, so they hear each shard's changes in cache order (see the
    /// events module docs).
    pub(super) fn notify(&self, removed: &[QueryKey], admitted: Option<&QueryKey>) {
        let observers = &self.inner.observers;
        for key in removed {
            observers.iter().for_each(|observer| observer.removed(key));
        }
        if let Some(key) = admitted {
            observers.iter().for_each(|observer| observer.admitted(key));
        }
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
        if removed {
            self.notify(std::slice::from_ref(key), None);
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
    /// tests): unlike a lookup, observing the cache this way leaves
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

    /// Total configured capacity across all shards, fixed at build time.
    pub fn capacity_bytes(&self) -> u64 {
        self.inner.total_capacity_bytes
    }

    /// The keys currently cached, across all shards, in unspecified order.
    pub fn cached_keys(&self) -> Vec<QueryKey> {
        let mut keys = Vec::new();
        for shard in &self.inner.shards {
            keys.extend(shard.lock().cache.cached_keys());
        }
        keys
    }

    /// Removes every cached retrieved set, reporting each to the observers
    /// as removed.  Statistics, stale copies and memoized failures are
    /// preserved.
    pub fn clear(&self) {
        for shard in &self.inner.shards {
            let mut state = shard.lock();
            let cleared = state.cache.cached_keys();
            state.cache.clear();
            self.notify(&cleared, None);
        }
    }

    /// A full owned snapshot: aggregate and per-shard counters, occupancies
    /// and failure-domain activity.
    ///
    /// Shards are read one lock at a time (see [`StatsSnapshot`]).  It writes
    /// nothing, so repeated snapshots of an idle engine are equal.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let shards = self.inner.shards.len();
        let mut total = CacheStats::new();
        let mut per_shard = Vec::with_capacity(shards);
        let mut per_shard_used = Vec::with_capacity(shards);
        let mut used_bytes = 0;
        let mut entries = 0;
        let mut breaker_transitions = 0;
        let mut negative_hits = 0;
        for shard in &self.inner.shards {
            let state = shard.lock();
            let mut stats = state.cache.stats_snapshot();
            stats.merge(&state.lookup_stats);
            total.merge(&stats);
            per_shard.push(stats);
            let used = state.cache.used_bytes();
            per_shard_used.push(used);
            used_bytes += used;
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
            per_shard_used,
            used_bytes,
            capacity_bytes: self.inner.total_capacity_bytes,
            entries,
            fetch_retries: self.inner.fetch_retries.load(Ordering::Relaxed),
            negative_hits,
            breaker_transitions,
            sheds: 0,
        }
    }

    /// Number of flights in flight across all shards, with or without a
    /// cell (test instrumentation for the abandoned-flight retirement
    /// guarantee).
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

    /// Number of in-flight flights that a waiter has given a cell.
    #[cfg(test)]
    pub(crate) fn flight_cells(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|shard| {
                let state = shard.lock();
                state
                    .slots
                    .values()
                    .filter(|slot| slot.flight.as_ref().is_some_and(|f| f.cell.is_some()))
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

    /// Each shard's fixed capacity in bytes, by shard.
    #[cfg(test)]
    pub(crate) fn shard_capacities(&self) -> Vec<u64> {
        self.inner
            .shards
            .iter()
            .map(|shard| shard.lock().cache.capacity_bytes())
            .collect()
    }
}
