//! LCS (Largest Cache Space) replacement over retrieved sets.
//!
//! Adopted from the ADMS project (paper §5), where it was the
//! best-performing of the {LRU, LFU, LCS} trio: the victim is always the
//! *largest* cached retrieved set, the idea being that evicting one large set
//! frees room for many small (and typically expensive-to-recompute)
//! aggregate results.  LCS uses size information but — unlike LNC-R — neither
//! reference rates nor execution costs.
//!
//! As a [`RankRule`]: a set's rank is its size, and the victim is the
//! *maximum* of the rank order.

use std::cmp::Reverse;

use crate::clock::Timestamp;
use crate::index::SetInfo;
use crate::policy::index::OrdIndex;
use crate::policy::ranked::{RankRule, RankedCache};
use crate::value::{CachePayload, ExecutionCost};

/// Ranks a set by its size; the largest is the victim, ties broken by
/// *least* recent use (hence the reversed timestamp under a maximum).
#[derive(Debug, Clone, Default)]
pub struct LcsRule;

impl RankRule for LcsRule {
    /// When the set was last used.
    type State = Timestamp;
    type Rank = (u64, Reverse<Timestamp>);
    const VICTIM_IS_MAX: bool = true;

    fn name(&self) -> &'static str {
        "LCS"
    }

    fn rank(set: &SetInfo<Timestamp>, _: Timestamp) -> Self::Rank {
        (set.size_bytes, Reverse(set.state))
    }

    fn admit(&mut self, _: ExecutionCost, _: u64, now: Timestamp) -> Timestamp {
        now
    }

    fn touch(&mut self, set: &mut SetInfo<Timestamp>, now: Timestamp) {
        set.state = now;
    }
}

/// A retrieved-set cache that always evicts the largest cached set first.
pub type LcsCache<V> = RankedCache<V, LcsRule, OrdIndex<(u64, Reverse<Timestamp>)>>;

impl<V: CachePayload> LcsCache<V> {
    /// Creates an LCS cache with the given capacity in bytes.
    pub fn new(capacity_bytes: u64) -> Self {
        RankedCache::with_rule(capacity_bytes, LcsRule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ranked::contract::{self, insert, key, ts};
    use crate::policy::{InsertOutcome, QueryCache};

    #[test]
    fn evicts_largest_set_first() {
        let mut cache = LcsCache::new(600);
        insert(&mut cache, "small", 100, 1);
        insert(&mut cache, "large", 400, 2);
        insert(&mut cache, "medium", 100, 3);
        let outcome = insert(&mut cache, "incoming", 200, 4);
        assert!(outcome.is_admitted());
        assert_eq!(outcome.evicted(), &[key("large")]);
        assert!(cache.contains(&key("small")));
        assert!(cache.contains(&key("medium")));
    }

    #[test]
    fn size_ties_broken_by_recency() {
        let mut cache = LcsCache::new(200);
        insert(&mut cache, "older", 100, 1);
        insert(&mut cache, "newer", 100, 2);
        let outcome = insert(&mut cache, "incoming", 100, 3);
        assert_eq!(outcome.evicted(), &[key("older")]);
    }

    #[test]
    fn many_small_sets_survive_one_large_arrival() {
        let mut cache = LcsCache::new(1_000);
        for i in 0..9 {
            let name = format!("small{i}");
            insert(&mut cache, &name, 100, i + 1);
        }
        // A 500-byte set arrives: LCS evicts the largest residents (all 100
        // bytes each), so five small sets go.
        let outcome = insert(&mut cache, "big", 500, 100);
        assert!(outcome.is_admitted());
        assert_eq!(outcome.evicted().len(), 4);
        assert!(cache.used_bytes() <= 1_000);
        // Later, the big set itself becomes the first victim.
        let outcome = insert(&mut cache, "small-again", 200, 101);
        assert_eq!(outcome.evicted(), &[key("big")]);
    }

    #[test]
    fn rejects_oversized_and_zero_capacity() {
        contract::rejects_oversized_and_zero_capacity(LcsCache::new);
    }

    #[test]
    fn hit_and_refresh_paths() {
        let mut cache = LcsCache::new(300);
        insert(&mut cache, "a", 100, 1);
        assert!(cache.get(&key("a"), ts(2)).is_some());
        assert_eq!(
            insert(&mut cache, "a", 150, 3),
            InsertOutcome::already_cached()
        );
        assert_eq!(cache.used_bytes(), 150);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn capacity_invariant_holds() {
        contract::used_bytes_never_exceeds_capacity(LcsCache::new);
    }

    #[test]
    fn clear_empties_cache() {
        contract::clear_resets_contents(LcsCache::new);
    }
}
