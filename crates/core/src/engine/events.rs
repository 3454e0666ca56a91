//! The residency observer hook.
//!
//! Subsystems that mirror which retrieved sets the
//! [`Watchman`](crate::engine::Watchman) engine holds subscribe a
//! [`CacheObserver`] at build time instead of polling.  They hear two
//! things: a set became resident ([`CacheObserver::admitted`]) or stopped
//! being resident, by eviction or by invalidation
//! ([`CacheObserver::removed`]).  A rejected offer changes nothing resident
//! and notifies nobody; a refresh of a resident set notifies only the
//! evictions a grown payload caused.  The coherence layer keeps its
//! [`DependencyIndex`](crate::coherence::DependencyIndex) in sync this way,
//! and the buffer manager derives its p₀-redundancy hints from the same
//! calls.
//!
//! Observers are called *while the owning shard's lock is held*, so they
//! hear each shard's changes in exactly the order the cache applied them:
//! an insert's victims are all `removed` before the newcomer is `admitted`,
//! and a key's `removed` always follows its `admitted`, so mirrors built
//! from the calls (dependency indexes, cached-signature sets) never go
//! stale.  The flip side: an observer must **not** call back into the same
//! engine (the shard's lock is not reentrant); do engine work outside the
//! handler, as
//! [`DependencyObserver::apply_update`](crate::coherence::DependencyObserver::apply_update)
//! does.  Calls from different shards may still interleave.

use crate::key::QueryKey;

/// A subscriber to the engine's residency changes.
///
/// Observers are shared across shards and sessions, so implementations must
/// be `Send + Sync` and should keep their handlers short: they run
/// synchronously, under the shard's lock, on the session thread that caused
/// the change.  Handlers must not call back into the same engine (see the
/// module docs).
pub trait CacheObserver: Send + Sync {
    /// `key`'s retrieved set became resident.
    fn admitted(&self, key: &QueryKey);

    /// `key`'s retrieved set stopped being resident: it was evicted or
    /// invalidated.
    fn removed(&self, key: &QueryKey);
}
