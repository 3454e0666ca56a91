//! Vanilla LRU over whole retrieved sets — the paper's primary baseline.
//!
//! Every referenced retrieved set is admitted (there is no admission
//! control); when space is needed, the least recently used sets are evicted
//! until the newcomer fits.  Reference rate, size-relative value and
//! execution cost play no role in the decision, which is exactly why LRU
//! underperforms on decision-support workloads (paper §4.2).
//!
//! As a [`RankRule`]: a set's rank is the tick of its last reference, and
//! every reference spends one tick.

use crate::clock::Timestamp;
use crate::index::SetInfo;
use crate::policy::index::OrdIndex;
use crate::policy::ranked::{RankRule, RankedCache};
use crate::value::{CachePayload, ExecutionCost};

/// Ranks a set by the tick of its last reference; the oldest tick is the
/// victim.
#[derive(Debug, Clone, Default)]
pub struct LruRule {
    next_tick: u64,
}

impl LruRule {
    /// Every reference — admission, hit or refresh — spends one tick.
    fn tick(&mut self) -> u64 {
        self.next_tick += 1;
        self.next_tick - 1
    }
}

impl RankRule for LruRule {
    /// Recency sequence number; larger = more recently used.
    type State = u64;
    type Rank = u64;

    fn name(&self) -> &'static str {
        "LRU"
    }

    fn rank(set: &SetInfo<u64>, _: Timestamp) -> u64 {
        set.state
    }

    fn admit(&mut self, _: ExecutionCost, _: u64, _: Timestamp) -> u64 {
        self.tick()
    }

    fn touch(&mut self, set: &mut SetInfo<u64>, _: Timestamp) {
        set.state = self.tick();
    }
}

/// A retrieved-set cache with least-recently-used replacement.
pub type LruCache<V> = RankedCache<V, LruRule, OrdIndex<u64>>;

impl<V: CachePayload> LruCache<V> {
    /// Creates an LRU cache with the given capacity in bytes.
    pub fn new(capacity_bytes: u64) -> Self {
        RankedCache::with_rule(capacity_bytes, LruRule::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ranked::contract::{self, insert, key, ts};
    use crate::policy::QueryCache;
    use crate::value::SizedPayload;

    #[test]
    fn evicts_least_recently_used_first() {
        let mut cache = LruCache::new(300);
        insert(&mut cache, "a", 100, 1);
        insert(&mut cache, "b", 100, 2);
        insert(&mut cache, "c", 100, 3);
        // Touch "a" so "b" becomes the LRU victim.
        assert!(cache.get(&key("a"), ts(4)).is_some());
        let outcome = insert(&mut cache, "d", 100, 5);
        assert!(outcome.is_admitted());
        assert_eq!(outcome.evicted(), &[key("b")]);
        assert!(cache.contains(&key("a")));
        assert!(cache.contains(&key("c")));
        assert!(cache.contains(&key("d")));
    }

    #[test]
    fn large_insert_evicts_multiple_victims() {
        let mut cache = LruCache::new(300);
        insert(&mut cache, "a", 100, 1);
        insert(&mut cache, "b", 100, 2);
        insert(&mut cache, "c", 100, 3);
        let outcome = insert(&mut cache, "big", 250, 4);
        assert!(outcome.is_admitted());
        assert_eq!(outcome.evicted().len(), 3);
        assert_eq!(cache.len(), 1);
        assert!(cache.used_bytes() <= 300);
    }

    #[test]
    fn admits_everything_regardless_of_cost() {
        // LRU has no admission control: a cheap huge set displaces everything.
        let mut cache = LruCache::new(1_000);
        for i in 0..10 {
            let name = format!("agg{i}");
            cache.insert(
                key(&name),
                SizedPayload::new(100),
                ExecutionCost::from_blocks(1_000),
                ts(i + 1),
            );
        }
        let outcome = cache.insert(
            key("cheap-projection"),
            SizedPayload::new(1_000),
            ExecutionCost::from_blocks(1),
            ts(100),
        );
        assert!(outcome.is_admitted());
        assert_eq!(outcome.evicted().len(), 10);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn hit_updates_recency_and_stats() {
        let mut cache = LruCache::new(500);
        insert(&mut cache, "a", 100, 1);
        assert!(cache.get(&key("a"), ts(2)).is_some());
        assert!(cache.get(&key("missing"), ts(3)).is_none());
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().references, 2);
    }

    #[test]
    fn rejects_oversized_and_zero_capacity() {
        contract::rejects_oversized_and_zero_capacity(LruCache::new);
    }

    #[test]
    fn already_cached_refreshes_size() {
        contract::already_cached_refreshes_size(LruCache::new);
    }

    #[test]
    fn clear_resets_contents() {
        contract::clear_resets_contents(LruCache::new);
    }

    #[test]
    fn used_bytes_never_exceeds_capacity() {
        contract::used_bytes_never_exceeds_capacity(LruCache::new);
    }
}
