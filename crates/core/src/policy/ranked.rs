//! One ranked cache, parameterised by the rule that ranks its sets.
//!
//! The paper compares LNC-RA with LRU and LRU-K (Figure 3) and with ADMS's
//! LFU and LCS to isolate *which ingredient of the ranking* earns the cost
//! savings.  Those baselines — and GreedyDual-Size — differ in that
//! ingredient only: each keeps some state per cached set, derives a rank
//! from it, admits everything, and evicts from one end of the rank order
//! until the newcomer fits.  [`RankedCache`] is that cache, written once; a
//! [`RankRule`] supplies the rest, and [`lru`](super::lru),
//! [`lfu`](super::lfu), [`lcs`](super::lcs), [`gds`](super::gds) and
//! [`lru_k`](super::lru_k) are each one rule.
//!
//! The rule is a type parameter, so each policy is monomorphised into the
//! code a hand-written cache would be.  LNC-R/LNC-RA is *not* a rule: its
//! profit moves with the time of the decision and its admission test can
//! refuse a set, so this code would have to branch on its caller; see
//! [`lnc`](super::lnc).

use std::fmt;

use crate::clock::Timestamp;
use crate::index::{EntryId, EntryStore, KeyedEntry};
use crate::key::QueryKey;
use crate::metrics::CacheStats;
use crate::policy::index::OrdIndex;
use crate::policy::{InsertOutcome, QueryCache, RejectReason};
use crate::profit::Profit;
use crate::value::{CachePayload, ExecutionCost};

/// What distinguishes one baseline policy from another.  When
/// [`RankedCache`] calls each hook is part of the policies' observable
/// behaviour, and is stated on the hook.
pub trait RankRule: Clone + fmt::Debug {
    /// What the rule remembers about one cached set.
    type State: Clone + fmt::Debug;
    /// The victim-index key derived from that state.  Ties fall to the
    /// entry's slot: the first of a slot-order scan for a minimum, the last
    /// for a maximum.
    type Rank: Ord + Copy + fmt::Debug;

    /// The policy name reported by [`QueryCache::name`].
    const NAME: &'static str;
    /// Whether the victim is the set of *greatest* rank, not the least.
    const VICTIM_IS_MAX: bool = false;

    /// The rank of a cached set of `size_bytes` in state `state`.
    fn rank(&self, state: &Self::State, size_bytes: u64) -> Self::Rank;

    /// The state of a set about to be admitted.  Runs after the miss is
    /// counted and the size checks passed, *before* room is made.
    fn admit(
        &mut self,
        key: &QueryKey,
        cost: ExecutionCost,
        size_bytes: u64,
        now: Timestamp,
    ) -> Self::State;

    /// Completes a newcomer's state *after* room was made, where the state
    /// depends on the evictions the newcomer caused.
    fn settle(&mut self, _state: &mut Self::State) {}

    /// A reference to a cached set: a hit, or a refresh through
    /// [`QueryCache::insert`] (`cost` and `size_bytes` are then already the
    /// refreshed ones).
    fn touch(
        &mut self,
        state: &mut Self::State,
        cost: ExecutionCost,
        size_bytes: u64,
        now: Timestamp,
    );

    /// A [`QueryCache::get`] that found nothing.
    fn missed(&mut self, _key: &QueryKey, _now: Timestamp) {}

    /// A set was evicted (not invalidated); `state` is what it had.
    fn evicted(&mut self, _key: &QueryKey, _state: Self::State, _now: Timestamp) {}

    /// [`QueryCache::clear`] emptied the cache.
    fn cleared(&mut self) {}
}

#[derive(Debug, Clone)]
struct Entry<V, S> {
    key: QueryKey,
    value: V,
    size_bytes: u64,
    cost: ExecutionCost,
    state: S,
}

impl<V, S> KeyedEntry for Entry<V, S> {
    fn key(&self) -> &QueryKey {
        &self.key
    }
}

/// A retrieved-set cache that admits everything and evicts by the rank its
/// [`RankRule`] assigns.
#[derive(Debug, Clone)]
pub struct RankedCache<V, R: RankRule> {
    capacity_bytes: u64,
    entries: EntryStore<Entry<V, R::State>>,
    /// Every cached set under its current rank.
    index: OrdIndex<R::Rank>,
    pub(super) rule: R,
    used_bytes: u64,
    stats: CacheStats,
}

impl<V: CachePayload, R: RankRule> RankedCache<V, R> {
    pub(super) fn with_rule(capacity_bytes: u64, rule: R) -> Self {
        RankedCache {
            capacity_bytes,
            entries: EntryStore::new(),
            index: OrdIndex::new(),
            rule,
            used_bytes: 0,
            stats: CacheStats::new(),
        }
    }

    /// The set the rule would evict next.
    fn victim(&self) -> Option<(R::Rank, EntryId)> {
        if R::VICTIM_IS_MAX {
            self.index.max()
        } else {
            self.index.min()
        }
    }

    /// Evicts victims until `needed` more bytes fit within the capacity, or
    /// the cache runs out of victims (the caller has already rejected sets
    /// that can never fit).
    fn evict_for(&mut self, needed: u64, now: Timestamp) -> Vec<QueryKey> {
        let mut evicted = Vec::new();
        while self.used_bytes + needed > self.capacity_bytes {
            let Some((rank, id)) = self.victim() else {
                break;
            };
            self.index.remove(rank, id);
            let entry = self.entries.remove(id).expect("indexed entry is cached");
            self.used_bytes -= entry.size_bytes;
            self.stats.record_eviction(entry.size_bytes);
            self.rule.evicted(&entry.key, entry.state, now);
            evicted.push(entry.key);
        }
        evicted
    }

    /// The eviction order the pre-index implementations derived by scanning:
    /// repeatedly pick the extreme-rank entry until `needed` bytes fit.
    /// Kept as the differential-test oracle.
    #[cfg(test)]
    pub(crate) fn reference_victim_plan(&self, needed: u64) -> Vec<QueryKey> {
        let mut excluded = std::collections::HashSet::new();
        let mut used = self.used_bytes;
        let mut plan = Vec::new();
        let rank = |e: &Entry<V, R::State>| self.rule.rank(&e.state, e.size_bytes);
        while used + needed > self.capacity_bytes {
            let candidates = self.entries.iter().filter(|(id, _)| !excluded.contains(id));
            let pick = if R::VICTIM_IS_MAX {
                candidates.max_by_key(|(_, e)| rank(e))
            } else {
                candidates.min_by_key(|(_, e)| rank(e))
            };
            let Some((id, entry)) = pick else {
                break;
            };
            excluded.insert(id);
            used -= entry.size_bytes;
            plan.push(entry.key.clone());
        }
        plan
    }

    /// The eviction order the index-driven loop produces for `needed`
    /// incoming bytes: the loop itself, run on a copy.
    #[cfg(test)]
    pub(crate) fn indexed_victim_plan(&self, needed: u64, now: Timestamp) -> Vec<QueryKey>
    where
        V: Clone,
    {
        self.clone().evict_for(needed, now)
    }
}

impl<V: CachePayload, R: RankRule> QueryCache<V> for RankedCache<V, R> {
    fn name(&self) -> &'static str {
        R::NAME
    }

    fn get(&mut self, key: &QueryKey, now: Timestamp) -> Option<&V> {
        let Some(id) = self.entries.find(key) else {
            self.rule.missed(key, now);
            return None;
        };
        let entry = self.entries.by_id_mut(id)?;
        let old = self.rule.rank(&entry.state, entry.size_bytes);
        self.rule
            .touch(&mut entry.state, entry.cost, entry.size_bytes, now);
        let new = self.rule.rank(&entry.state, entry.size_bytes);
        if old != new {
            self.index.update(old, new, id);
        }
        self.stats.record_hit(entry.cost);
        Some(&entry.value)
    }

    fn insert(
        &mut self,
        key: QueryKey,
        value: V,
        cost: ExecutionCost,
        now: Timestamp,
    ) -> InsertOutcome {
        let size_bytes = value.size_bytes();
        self.stats.record_miss(cost);

        if let Some(id) = self.entries.find(&key) {
            if let Some(entry) = self.entries.by_id_mut(id) {
                let old = self.rule.rank(&entry.state, entry.size_bytes);
                self.used_bytes = self.used_bytes - entry.size_bytes + size_bytes;
                entry.value = value;
                entry.cost = cost;
                entry.size_bytes = size_bytes;
                self.rule.touch(&mut entry.state, cost, size_bytes, now);
                let new = self.rule.rank(&entry.state, size_bytes);
                if old != new {
                    self.index.update(old, new, id);
                }
            }
            // Restore the capacity invariant if the refreshed payload grew.
            let evicted = self.evict_for(0, now);
            return InsertOutcome::AlreadyCached { evicted };
        }

        if self.capacity_bytes == 0 {
            self.stats.record_admission(false);
            return InsertOutcome::Rejected(RejectReason::ZeroCapacity);
        }
        if size_bytes > self.capacity_bytes {
            self.stats.record_admission(false);
            return InsertOutcome::Rejected(RejectReason::TooLarge);
        }

        let mut state = self.rule.admit(&key, cost, size_bytes, now);
        let evicted = self.evict_for(size_bytes, now);
        self.rule.settle(&mut state);
        let rank = self.rule.rank(&state, size_bytes);
        let id = self.entries.insert(Entry {
            key,
            value,
            size_bytes,
            cost,
            state,
        });
        self.index.insert(rank, id);
        self.used_bytes += size_bytes;
        self.stats.record_admission(true);
        InsertOutcome::Admitted { evicted }
    }

    fn remove(&mut self, key: &QueryKey) -> bool {
        let Some(id) = self.entries.find(key) else {
            return false;
        };
        // Invalidation is not an eviction: the rule is not told, so whatever
        // it remembered about the set goes with the entry.
        let entry = self.entries.remove(id).expect("found entry is live");
        self.index
            .remove(self.rule.rank(&entry.state, entry.size_bytes), id);
        self.used_bytes -= entry.size_bytes;
        true
    }

    fn peek(&self, key: &QueryKey) -> Option<&V> {
        self.entries.get(key).map(|entry| &entry.value)
    }

    fn contains(&self, key: &QueryKey) -> bool {
        self.entries.contains(key)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    fn set_capacity_bytes(&mut self, capacity_bytes: u64, now: Timestamp) -> Vec<QueryKey> {
        self.capacity_bytes = capacity_bytes;
        // Shrinking below occupancy evicts in the rule's own victim order,
        // with the same side effects as demand-driven evictions.
        self.evict_for(0, now)
    }

    fn min_cached_profit(&mut self, _now: Timestamp) -> Option<Profit> {
        // None of these rules keeps a rate estimate, so the next victim is
        // priced by its estimated profit `c/s` (Eq. 6).
        let (_, id) = self.victim()?;
        let entry = self.entries.by_id(id)?;
        Some(Profit::estimated(entry.cost, entry.size_bytes))
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn record_coalesced_reference(&mut self, cost: ExecutionCost) {
        self.stats.record_coalesced(cost);
    }

    fn record_error_reference(&mut self) {
        self.stats.record_fetch_error();
    }

    fn record_stale_reference(&mut self, cost: ExecutionCost) {
        self.stats.record_stale(cost);
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
        self.used_bytes = 0;
        self.rule.cleared();
    }

    fn cached_keys(&self) -> Vec<QueryKey> {
        self.entries.iter().map(|(_, e)| e.key.clone()).collect()
    }
}

#[cfg(test)]
pub(super) mod contract {
    //! What every rule's cache does the same way, asserted once.  Each rule's
    //! test module runs the rows it always ran, under the names they always
    //! had.

    use super::*;
    use crate::value::SizedPayload;

    fn offer<R: RankRule>(
        cache: &mut RankedCache<SizedPayload, R>,
        name: &str,
        size: u64,
        now: u64,
    ) -> InsertOutcome {
        cache.insert(
            QueryKey::new(name.to_owned()),
            SizedPayload::new(size),
            // Costs vary so that a cost-aware rule ranks by more than arrival.
            ExecutionCost::from_blocks(10 + now % 7 * 80),
            Timestamp::from_micros(now),
        )
    }

    pub fn rejects_oversized_and_zero_capacity<R: RankRule>(
        new: impl Fn(u64) -> RankedCache<SizedPayload, R>,
    ) {
        assert_eq!(
            offer(&mut new(100), "big", 200, 1),
            InsertOutcome::Rejected(RejectReason::TooLarge)
        );
        assert_eq!(
            offer(&mut new(0), "any", 1, 1),
            InsertOutcome::Rejected(RejectReason::ZeroCapacity)
        );
    }

    pub fn already_cached_refreshes_size<R: RankRule>(
        new: impl Fn(u64) -> RankedCache<SizedPayload, R>,
    ) {
        let mut cache = new(500);
        offer(&mut cache, "a", 100, 1);
        let outcome = offer(&mut cache, "a", 200, 2);
        assert_eq!(outcome, InsertOutcome::already_cached());
        assert_eq!(cache.used_bytes(), 200);
        assert_eq!(cache.len(), 1);
    }

    pub fn clear_resets_contents<R: RankRule>(new: impl Fn(u64) -> RankedCache<SizedPayload, R>) {
        let mut cache = new(500);
        offer(&mut cache, "a", 100, 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.used_bytes(), 0);
        offer(&mut cache, "b", 100, 2);
        assert_eq!(cache.len(), 1);
    }

    pub fn used_bytes_never_exceeds_capacity<R: RankRule>(
        new: impl Fn(u64) -> RankedCache<SizedPayload, R>,
    ) {
        let mut cache = new(1_000);
        for i in 0..300u64 {
            let name = format!("q{}", i % 41);
            offer(&mut cache, &name, 60 + (i % 11) * 40, i + 1);
            assert!(cache.used_bytes() <= cache.capacity_bytes());
        }
    }
}
