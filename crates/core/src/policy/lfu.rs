//! LFU (least frequently used) replacement over retrieved sets.
//!
//! One of the baselines adopted by the ADMS project (paper §5).  The victim
//! is the cached set with the fewest recorded references; ties are broken by
//! least-recent use.  Like LRU, LFU ignores retrieved-set sizes and query
//! execution costs, but unlike LRU it is not fooled by long scans of
//! never-repeated queries.
//!
//! As a [`RankRule`]: a set's rank is its `(reference count, last use)` pair
//! — the flattened form of the classic LFU frequency-bucket scheme.

use crate::clock::Timestamp;
use crate::index::SetInfo;
use crate::policy::index::OrdIndex;
use crate::policy::ranked::{RankRule, RankedCache};
use crate::value::{CachePayload, ExecutionCost};

/// Ranks a set by `(references, last use)`: fewest references first, then
/// least recent use.
#[derive(Debug, Clone, Default)]
pub struct LfuRule;

impl RankRule for LfuRule {
    type State = (u64, Timestamp);
    type Rank = (u64, Timestamp);

    fn name(&self) -> &'static str {
        "LFU"
    }

    fn rank(set: &SetInfo<Self::State>, _: Timestamp) -> Self::Rank {
        set.state
    }

    fn admit(&mut self, _: ExecutionCost, _: u64, now: Timestamp) -> Self::State {
        (1, now)
    }

    fn touch(&mut self, set: &mut SetInfo<Self::State>, now: Timestamp) {
        set.state = (set.state.0 + 1, now);
    }
}

/// A retrieved-set cache with least-frequently-used replacement.
pub type LfuCache<V> = RankedCache<V, LfuRule, OrdIndex<(u64, Timestamp)>>;

impl<V: CachePayload> LfuCache<V> {
    /// Creates an LFU cache with the given capacity in bytes.
    pub fn new(capacity_bytes: u64) -> Self {
        RankedCache::with_rule(capacity_bytes, LfuRule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ranked::contract::{self, insert, key, ts};
    use crate::policy::{InsertOutcome, QueryCache};

    #[test]
    fn evicts_least_frequently_used() {
        let mut cache = LfuCache::new(300);
        insert(&mut cache, "popular", 100, 1);
        insert(&mut cache, "unpopular", 100, 2);
        insert(&mut cache, "middling", 100, 3);
        cache.get(&key("popular"), ts(4));
        cache.get(&key("popular"), ts(5));
        cache.get(&key("middling"), ts(6));
        let outcome = insert(&mut cache, "new", 100, 7);
        assert_eq!(outcome.evicted(), &[key("unpopular")]);
        assert!(cache.contains(&key("popular")));
        assert!(cache.contains(&key("middling")));
    }

    #[test]
    fn frequency_ties_broken_by_recency() {
        let mut cache = LfuCache::new(200);
        insert(&mut cache, "older", 100, 1);
        insert(&mut cache, "newer", 100, 2);
        // Both have 1 reference; the older one must be evicted first.
        let outcome = insert(&mut cache, "incoming", 100, 3);
        assert_eq!(outcome.evicted(), &[key("older")]);
    }

    #[test]
    fn scan_resistance_compared_to_lru() {
        // A hot set referenced many times survives a burst of one-off sets.
        let mut cache = LfuCache::new(300);
        insert(&mut cache, "hot", 100, 1);
        for t in 2..10 {
            cache.get(&key("hot"), ts(t));
        }
        for i in 0..20u64 {
            let name = format!("scan{i}");
            insert(&mut cache, &name, 100, 10 + i);
        }
        assert!(cache.contains(&key("hot")));
    }

    #[test]
    fn rejects_oversized_and_zero_capacity() {
        contract::rejects_oversized_and_zero_capacity(LfuCache::new);
    }

    #[test]
    fn already_cached_increments_frequency() {
        let mut cache = LfuCache::new(300);
        insert(&mut cache, "a", 100, 1);
        assert_eq!(
            insert(&mut cache, "a", 100, 2),
            InsertOutcome::already_cached()
        );
        insert(&mut cache, "b", 100, 3);
        insert(&mut cache, "c", 100, 4);
        // "a" has 2 references, so "b" (1 reference, older) is the victim.
        let outcome = insert(&mut cache, "d", 100, 5);
        assert_eq!(outcome.evicted(), &[key("b")]);
        assert!(cache.contains(&key("a")));
    }

    #[test]
    fn capacity_invariant_holds() {
        contract::used_bytes_never_exceeds_capacity(LfuCache::new);
    }

    #[test]
    fn clear_and_stats() {
        let mut cache = LfuCache::new(300);
        insert(&mut cache, "a", 100, 1);
        cache.get(&key("a"), ts(2));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.cached_keys().len(), 0);
    }
}
