//! Cache coherence support (paper §3).
//!
//! Data warehouses are updated infrequently, but updates still happen, and a
//! retrieved set computed before an update may no longer be correct
//! afterwards.  The paper delegates detection to the warehouse manager: "the
//! warehouse manager detects whether the update is relevant to the cache
//! content and modifies the retrieved sets that are affected by the update".
//!
//! This module provides the bookkeeping a warehouse manager needs to do that
//! efficiently: a [`DependencyIndex`] records, for every cached retrieved
//! set, which base relations its query read; when a relation is updated, the
//! index returns exactly the keys whose retrieved sets must be invalidated
//! (dropped and recomputed on next reference) or refreshed incrementally.

use crate::sync::{Mutex, MutexGuard};
use std::collections::{HashMap, HashSet};

use crate::engine::CacheObserver;
use crate::key::{QueryKey, SignatureMap, SignatureState};

/// Maps base relations to the cached queries that depend on them.
///
/// The index is policy-agnostic: it stores only query keys and relation
/// names.  The embedding application registers dependencies when a retrieved
/// set is admitted, unregisters them when it is evicted, and calls
/// [`DependencyIndex::affected_by`] / [`DependencyIndex::take_affected_by`]
/// when a relation is updated.
#[derive(Debug, Default, Clone)]
pub struct DependencyIndex {
    /// relation name → keys of cached sets that read it.
    by_relation: HashMap<String, HashSet<QueryKey, SignatureState>>,
    /// key → relations it reads (needed for unregistering).
    by_key: SignatureMap<QueryKey, HashSet<String>>,
}

impl DependencyIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tracked queries.
    pub fn tracked_queries(&self) -> usize {
        self.by_key.len()
    }

    /// Number of relations with at least one dependent query.
    pub fn tracked_relations(&self) -> usize {
        self.by_relation.len()
    }

    /// Registers that the retrieved set identified by `key` was computed from
    /// the given relations.  Re-registering a key replaces its dependencies.
    pub fn register<I, S>(&mut self, key: QueryKey, relations: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.unregister(&key);
        let mut set = HashSet::new();
        for relation in relations {
            let relation = relation.into();
            self.by_relation
                .entry(relation.clone())
                .or_default()
                .insert(key.clone());
            set.insert(relation);
        }
        self.by_key.insert(key, set);
    }

    /// Removes a query from the index (typically because its retrieved set
    /// was evicted).  Returns `true` if the key was tracked.
    pub fn unregister(&mut self, key: &QueryKey) -> bool {
        match self.by_key.remove(key) {
            None => false,
            Some(relations) => {
                for relation in relations {
                    if let Some(keys) = self.by_relation.get_mut(&relation) {
                        keys.remove(key);
                        if keys.is_empty() {
                            self.by_relation.remove(&relation);
                        }
                    }
                }
                true
            }
        }
    }

    /// The relations a tracked query depends on.
    pub fn dependencies_of(&self, key: &QueryKey) -> Option<&HashSet<String>> {
        self.by_key.get(key)
    }

    /// The keys of all cached sets that read the given relation.
    pub fn affected_by(&self, relation: &str) -> Vec<QueryKey> {
        self.by_relation
            .get(relation)
            .map(|keys| keys.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Removes and returns the keys affected by an update to `relation`.
    ///
    /// This is what a warehouse manager calls when it applies an update: the
    /// returned keys must be invalidated in (removed from) the cache.
    pub fn take_affected_by(&mut self, relation: &str) -> Vec<QueryKey> {
        let keys = self.affected_by(relation);
        for key in &keys {
            self.unregister(key);
        }
        keys
    }

    /// Clears the index.
    pub fn clear(&mut self) {
        self.by_relation.clear();
        self.by_key.clear();
    }
}

/// The outcome of applying a warehouse update through
/// [`invalidate_affected`] or [`DependencyObserver::apply_update`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InvalidationReport {
    /// Keys that were tracked as dependent on the updated relation.
    pub affected: Vec<QueryKey>,
    /// The subset of `affected` that was actually resident in the cache and
    /// has been removed.
    pub invalidated: Vec<QueryKey>,
}

impl InvalidationReport {
    /// Calls `remove` on every affected key; the ones it reports resident
    /// are the invalidated ones.
    fn invalidate(affected: Vec<QueryKey>, mut remove: impl FnMut(&QueryKey) -> bool) -> Self {
        let invalidated = affected.iter().filter(|key| remove(key)).cloned().collect();
        InvalidationReport {
            affected,
            invalidated,
        }
    }
}

/// Invalidates every cached retrieved set that depends on `relation`.
///
/// `remove` is called for each affected key and should remove the entry from
/// the cache, returning `true` if it was resident (e.g.
/// [`crate::policy::lnc::LncCache::remove`]).
pub fn invalidate_affected<F>(
    index: &mut DependencyIndex,
    relation: &str,
    remove: F,
) -> InvalidationReport
where
    F: FnMut(&QueryKey) -> bool,
{
    InvalidationReport::invalidate(index.take_affected_by(relation), remove)
}

/// A [`CacheObserver`] that keeps a [`DependencyIndex`] synchronized with an
/// engine's contents.
///
/// When a set becomes resident the observer asks `resolver` which base
/// relations the query reads and registers them; when it stops being
/// resident, by eviction or invalidation, the key is unregistered.
/// Subscribe it at build time and the index never goes stale:
///
/// ```
/// use std::sync::Arc;
/// use watchman_core::coherence::DependencyObserver;
/// use watchman_core::engine::{PolicyKind, Watchman};
/// use watchman_core::prelude::*;
///
/// let deps = Arc::new(DependencyObserver::new(|key: &QueryKey| {
///     // A real front end would consult its query plans; the WATCHMAN paper's
///     // warehouse manager knows each query's base relations.
///     if key.text().contains("lineitem") { vec!["LINEITEM".to_owned()] } else { vec![] }
/// }));
/// let engine: Watchman<SizedPayload> = Watchman::builder()
///     .policy(PolicyKind::LNC_RA)
///     .capacity_bytes(1 << 20)
///     .observer(deps.clone())
///     .build();
///
/// let key = QueryKey::from_raw_query("SELECT sum(price) FROM lineitem");
/// engine.get_or_execute(&key, Timestamp::from_secs(1), || {
///     (SizedPayload::new(64), ExecutionCost::from_blocks(100))
/// });
/// assert_eq!(deps.affected_by("LINEITEM"), vec![key.clone()]);
///
/// // An update lands on LINEITEM: invalidate the dependents.
/// let report = deps.apply_update(&engine, "LINEITEM");
/// assert_eq!(report.invalidated, vec![key.clone()]);
/// assert!(!engine.contains(&key));
/// ```
pub struct DependencyObserver<F> {
    index: Mutex<DependencyIndex>,
    resolver: F,
}

impl<F> DependencyObserver<F>
where
    F: Fn(&QueryKey) -> Vec<String> + Send + Sync,
{
    /// Creates an observer that resolves a query's base relations with
    /// `resolver` at admission time.
    pub fn new(resolver: F) -> Self {
        DependencyObserver {
            index: Mutex::new(DependencyIndex::new()),
            resolver,
        }
    }

    fn lock(&self) -> MutexGuard<'_, DependencyIndex> {
        self.index.lock()
    }

    /// The keys of all tracked sets that read the given relation.
    pub fn affected_by(&self, relation: &str) -> Vec<QueryKey> {
        self.lock().affected_by(relation)
    }

    /// Applies a warehouse update to `relation`: invalidates every dependent
    /// cached set in `engine` and returns the report.
    ///
    /// The index entries for the affected keys are taken out first and the
    /// engine's resulting `removed` calls then find nothing left to
    /// unregister, so the lock is never held across the engine call.
    pub fn apply_update<V>(
        &self,
        engine: &crate::engine::Watchman<V>,
        relation: &str,
    ) -> InvalidationReport
    where
        V: crate::value::CachePayload + Send + Sync + 'static,
    {
        let affected = self.lock().take_affected_by(relation);
        InvalidationReport::invalidate(affected, |key| engine.invalidate(key))
    }
}

impl<F> CacheObserver for DependencyObserver<F>
where
    F: Fn(&QueryKey) -> Vec<String> + Send + Sync,
{
    fn admitted(&self, key: &QueryKey) {
        let relations = (self.resolver)(key);
        self.lock().register(key.clone(), relations);
    }

    fn removed(&self, key: &QueryKey) {
        self.lock().unregister(key);
    }
}

impl<F> std::fmt::Debug for DependencyObserver<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DependencyObserver").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Timestamp;
    use crate::policy::lnc::LncCache;
    use crate::policy::QueryCache;
    use crate::value::{ExecutionCost, SizedPayload};

    fn key(name: &str) -> QueryKey {
        QueryKey::new(name.to_owned())
    }

    #[test]
    fn register_and_lookup() {
        let mut index = DependencyIndex::new();
        index.register(key("q1"), ["LINEITEM", "ORDERS"]);
        index.register(key("q2"), ["ORDERS"]);
        assert_eq!(index.tracked_queries(), 2);
        assert_eq!(index.tracked_relations(), 2);
        let mut affected = index.affected_by("ORDERS");
        affected.sort();
        assert_eq!(affected, vec![key("q1"), key("q2")]);
        assert_eq!(index.affected_by("LINEITEM"), vec![key("q1")]);
        assert!(index.affected_by("PART").is_empty());
        assert_eq!(index.dependencies_of(&key("q1")).unwrap().len(), 2);
    }

    #[test]
    fn reregistering_replaces_dependencies() {
        let mut index = DependencyIndex::new();
        index.register(key("q"), ["A", "B"]);
        index.register(key("q"), ["C"]);
        assert!(index.affected_by("A").is_empty());
        assert_eq!(index.affected_by("C"), vec![key("q")]);
        assert_eq!(index.tracked_relations(), 1);
    }

    #[test]
    fn unregister_cleans_up_empty_relations() {
        let mut index = DependencyIndex::new();
        index.register(key("q"), ["A"]);
        assert!(index.unregister(&key("q")));
        assert!(!index.unregister(&key("q")));
        assert_eq!(index.tracked_relations(), 0);
        assert_eq!(index.tracked_queries(), 0);
    }

    #[test]
    fn take_affected_by_removes_from_index() {
        let mut index = DependencyIndex::new();
        index.register(key("q1"), ["A", "B"]);
        index.register(key("q2"), ["A"]);
        let taken = index.take_affected_by("A");
        assert_eq!(taken.len(), 2);
        assert_eq!(index.tracked_queries(), 0);
        assert!(index.affected_by("B").is_empty());
    }

    #[test]
    fn invalidate_affected_removes_resident_entries_from_the_cache() {
        let mut cache: LncCache<SizedPayload> = LncCache::lnc_ra(1 << 20);
        let mut index = DependencyIndex::new();
        let now = Timestamp::from_secs(1);

        for (name, relations) in [
            ("orders-summary", vec!["ORDERS", "LINEITEM"]),
            ("parts-summary", vec!["PART"]),
        ] {
            let k = key(name);
            cache.insert(
                k.clone(),
                SizedPayload::new(256),
                ExecutionCost::from_blocks(500),
                now,
            );
            index.register(k, relations);
        }
        assert_eq!(cache.len(), 2);

        // An update lands on LINEITEM: only the orders summary is affected.
        let report = invalidate_affected(&mut index, "LINEITEM", |k| cache.remove(k).is_some());
        assert!(!report.invalidated.is_empty());
        assert_eq!(report.affected, vec![key("orders-summary")]);
        assert_eq!(report.invalidated, vec![key("orders-summary")]);
        assert!(!cache.contains(&key("orders-summary")));
        assert!(cache.contains(&key("parts-summary")));

        // A second update to the same relation finds nothing left to do.
        let report = invalidate_affected(&mut index, "LINEITEM", |k| cache.remove(k).is_some());
        assert!(report.invalidated.is_empty());
        assert!(report.affected.is_empty());
    }

    #[test]
    fn invalidation_report_for_untracked_relation_is_empty() {
        let mut index = DependencyIndex::new();
        let report = invalidate_affected(&mut index, "NOWHERE", |_| true);
        assert!(report.affected.is_empty());
        assert!(report.invalidated.is_empty());
    }

    #[test]
    fn clear_resets_everything() {
        let mut index = DependencyIndex::new();
        index.register(key("q"), ["A"]);
        index.clear();
        assert_eq!(index.tracked_queries(), 0);
        assert_eq!(index.tracked_relations(), 0);
    }
}
