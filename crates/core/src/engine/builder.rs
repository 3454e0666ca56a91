//! Engine configuration: the builder.
//!
//! The engine looks up exactly the key it is given — the paper's §3 match on
//! delimiter-compressed query text.

use std::sync::Arc;

use crate::engine::events::CacheObserver;
use crate::engine::failure::FailureConfig;
use crate::engine::policy_kind::PolicyKind;
use crate::engine::watchman::Watchman;
use crate::value::CachePayload;

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
    pub(super) shards: usize,
    pub(super) policy: PolicyKind,
    pub(super) capacity_bytes: u64,
    pub(super) observers: Vec<Arc<dyn CacheObserver>>,
    pub(super) runtime_workers: usize,
    pub(super) failure: FailureConfig,
    _payload: std::marker::PhantomData<fn() -> V>,
}

impl<V> std::fmt::Debug for WatchmanBuilder<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WatchmanBuilder")
            .field("shards", &self.shards)
            .field("policy", &self.policy)
            .field("capacity_bytes", &self.capacity_bytes)
            .field("observers", &self.observers.len())
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
            observers: Vec::new(),
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

    /// Sets the total cache capacity, split evenly across shards.  Each
    /// shard keeps its `total/N` share for the engine's lifetime.
    pub fn capacity_bytes(mut self, capacity_bytes: u64) -> Self {
        self.capacity_bytes = capacity_bytes;
        self
    }

    /// Subscribes an observer to the engine's residency changes: it hears
    /// every set that becomes or stops being resident.
    pub fn observer(mut self, observer: Arc<dyn CacheObserver>) -> Self {
        self.observers.push(observer);
        self
    }

    /// Sets the worker count of the engine's lazily created runtime
    /// ([`Watchman::runtime`]).  Each in-flight async fetch occupies a worker
    /// for its duration, so this is the engine's execution multiprogramming
    /// level.  Defaults to 2.
    pub fn runtime_workers(mut self, workers: usize) -> Self {
        self.runtime_workers = workers.max(1);
        self
    }

    /// Configures the failure domain of the fallible fetch pipeline
    /// ([`Watchman::try_get_or_execute_async`]): the leader's retry policy,
    /// the per-shard circuit breaker and whether last-known-good copies are
    /// kept for stale serving.  The default config retries transient errors
    /// with seeded exponential backoff but enables neither breaker nor stale
    /// serving; terminal failures are memoized either way.
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
        Watchman::from_builder(self)
    }
}
