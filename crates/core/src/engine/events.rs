//! Cache lifecycle events and the observer hook.
//!
//! The [`Watchman`](crate::engine::Watchman) engine emits one [`CacheEvent`]
//! for every admission, rejection, eviction and invalidation.  Subsystems
//! that need to mirror the cache's contents subscribe a [`CacheObserver`] at
//! build time instead of polling: the coherence layer keeps its
//! [`DependencyIndex`](crate::coherence::DependencyIndex) in sync this way,
//! and the buffer manager derives its p₀-redundancy hints from the same
//! stream.
//!
//! Events are emitted *while the owning shard's lock is held*, so observers
//! see each shard's events in exactly the order the cache applied them — a
//! key's `Evicted` always arrives after its `Admitted`, and mirrors built
//! from the stream (dependency indexes, cached-signature sets) never go
//! stale.  The flip side: an observer must **not** call back into the same
//! engine from [`CacheObserver::on_cache_event`] (the shard's lock is not
//! reentrant); do engine work outside the handler, as
//! [`DependencyObserver::apply_update`](crate::coherence::DependencyObserver::apply_update)
//! does.  Events from different shards may still interleave.

use crate::key::QueryKey;
use crate::policy::RejectReason;
use crate::value::ExecutionCost;

/// A cache lifecycle notification.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheEvent {
    /// A retrieved set was admitted into the cache.
    Admitted {
        /// The admitted query.
        key: QueryKey,
        /// The size of the admitted retrieved set.
        size_bytes: u64,
        /// The execution cost of the query that produced it.
        cost: ExecutionCost,
        /// The shard that now holds the set.
        shard: usize,
    },
    /// A freshly retrieved set was offered but not admitted.
    Rejected {
        /// The rejected query.
        key: QueryKey,
        /// Why admission was denied.
        reason: RejectReason,
        /// The shard that made the decision.
        shard: usize,
    },
    /// A cached set was evicted to make room for another.
    Evicted {
        /// The evicted query.
        key: QueryKey,
        /// The shard it was evicted from.
        shard: usize,
    },
    /// A cached set was removed because a warehouse update made it stale.
    Invalidated {
        /// The invalidated query.
        key: QueryKey,
        /// The shard it was removed from.
        shard: usize,
    },
}

impl CacheEvent {
    /// The query key the event concerns.
    pub fn key(&self) -> &QueryKey {
        match self {
            CacheEvent::Admitted { key, .. }
            | CacheEvent::Rejected { key, .. }
            | CacheEvent::Evicted { key, .. }
            | CacheEvent::Invalidated { key, .. } => key,
        }
    }

    /// The shard the event originated from.
    pub fn shard(&self) -> usize {
        match self {
            CacheEvent::Admitted { shard, .. }
            | CacheEvent::Rejected { shard, .. }
            | CacheEvent::Evicted { shard, .. }
            | CacheEvent::Invalidated { shard, .. } => *shard,
        }
    }
}

/// A subscriber to the engine's event stream.
///
/// Observers are shared across shards and sessions, so implementations must
/// be `Send + Sync` and should keep their handlers short: events are
/// delivered synchronously, under the emitting shard's lock, on the session
/// thread that triggered them.  Handlers must not call back into the same
/// engine (see the module docs).
pub trait CacheObserver: Send + Sync {
    /// Called once per cache lifecycle event.
    fn on_cache_event(&self, event: &CacheEvent);
}
