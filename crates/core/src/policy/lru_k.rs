//! LRU-K replacement over retrieved sets (O'Neil, O'Neil & Weikum, SIGMOD'93).
//!
//! LRU-K evicts the set whose K-th most recent reference lies furthest in the
//! past (equivalently: the set with the greatest *backward K-distance*).
//! Sets with fewer than K recorded references have infinite backward
//! K-distance and are evicted first, oldest last-reference first.  Like LRU,
//! LRU-K ignores retrieved-set sizes and query execution costs; the paper
//! uses it in the "impact of K" experiment (Figure 3) to isolate the benefit
//! of the multi-reference rate estimate from the benefit of the profit
//! metric.
//!
//! Following the original LRU-K design (and paper §2.4), reference history is
//! retained for a configurable period after eviction so a re-referenced set
//! does not restart with an empty history.
//!
//! As a [`RankRule`]: a set's state is its reference history, its rank the
//! backward K-distance read off it, and the rule retains every victim's
//! record, which keeps the history in place: a miss records into it, and
//! the set's next admission takes it up.  The rule keeps a
//! `RetainedStore` as LNC does, unranked: a history expires by time, so
//! the rule queues every filing by its time and drops the front of the
//! queue once it is older than the period, skipping a filing whose record
//! was taken up, admitted or filed again since.  Time never steps back
//! inside the cache, so an expiry costs what it drops.

use std::collections::VecDeque;

use crate::clock::Timestamp;
use crate::history::{ReferenceHistory, MAX_WINDOW};
use crate::index::{EntryId, SetInfo};
use crate::policy::index::OrdIndex;
use crate::policy::ranked::{RankRule, RankedCache, VictimOrder};
use crate::retained::{Histories, RetainedStore};
use crate::value::{CachePayload, ExecutionCost};

/// Configuration for [`LruKCache`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LruKConfig {
    /// Cache capacity in bytes.
    pub capacity_bytes: u64,
    /// Number of reference times considered (the `K`), at most
    /// [`MAX_WINDOW`]: a history keeps no more samples.
    pub k: usize,
    /// How long (in microseconds of logical time) reference history is
    /// retained after eviction.  The classical guideline is the Five Minute
    /// Rule; the default is 300 seconds of logical time.
    pub retained_info_period: u64,
    /// Hard bound on retained histories.
    pub max_retained_entries: usize,
}

impl LruKConfig {
    /// LRU-K with the given capacity and window `K`, clamped to
    /// `1..=`[`MAX_WINDOW`].
    pub fn new(capacity_bytes: u64, k: usize) -> Self {
        LruKConfig {
            capacity_bytes,
            k: k.clamp(1, MAX_WINDOW),
            retained_info_period: 300 * 1_000_000,
            max_retained_entries: 16_384,
        }
    }
}

/// Ranks a set by its backward K-distance; the greatest distance is the
/// victim.
#[derive(Debug, Clone)]
pub struct LruKRule {
    k: usize,
    retained_info_period: u64,
    retained: RetainedStore<()>,
    /// `(filed at, slot)` of every history filed, oldest first.
    filings: VecDeque<(Timestamp, EntryId)>,
    /// When the history in each slot was filed.
    filed_at: Vec<Timestamp>,
}

impl LruKRule {
    pub(crate) fn new(config: &LruKConfig) -> Self {
        LruKRule {
            k: config.k.clamp(1, MAX_WINDOW),
            retained_info_period: config.retained_info_period,
            retained: RetainedStore::new(config.max_retained_entries),
            filings: VecDeque::new(),
            filed_at: Vec::new(),
        }
    }

    /// Drops retained histories filed longer ago than the retention period
    /// (the timeout-based scheme of the original LRU-K paper).
    fn expire<V>(&mut self, records: &mut Histories<V>, now: Timestamp) {
        while let Some(&(at, slot)) = self.filings.front() {
            if now.saturating_since(at) <= self.retained_info_period {
                break;
            }
            self.filings.pop_front();
            if self.current(records, (at, slot)) {
                self.retained.forget(records, slot);
            }
        }
    }

    /// Whether a queued filing still describes the history in its slot: the
    /// slot's record is retained, and was filed then.  A record admitted
    /// again in place since is cached, and stays.
    fn current<V>(&self, records: &Histories<V>, (at, slot): (Timestamp, EntryId)) -> bool {
        self.filed_at[slot.index()] == at && records.by_id(slot).is_some_and(|r| r.is_retained())
    }
}

impl RankRule for LruKRule {
    type State = ReferenceHistory;
    type Rank = (bool, u64);

    fn name(&self) -> &'static str {
        "LRU-K"
    }

    /// Entries with fewer than K samples sort first (ascending by last
    /// reference), then entries by ascending K-th most recent reference time.
    fn rank(set: &SetInfo<ReferenceHistory>, _: Timestamp) -> (bool, u64) {
        let history = &set.state;
        let full = history.sample_count() >= history.window();
        // Once full, the oldest retained sample is exactly the K-th most
        // recent one.
        let reference = if full {
            history.oldest_reference()
        } else {
            history.last_reference()
        };
        (full, reference.map_or(0, |t| t.as_micros()))
    }

    /// Expires what is due, the set's own history included, then takes the
    /// history up *before* room is made: its victims' histories are about
    /// to be filed, against the same bound.
    fn take_up<V>(
        &mut self,
        records: &mut Histories<V>,
        retained: Option<EntryId>,
        now: Timestamp,
    ) -> Option<EntryId> {
        self.expire(records, now);
        self.retained.take_up(records, retained, now)
    }

    fn admit(&mut self, _: ExecutionCost, _: u64, now: Timestamp) -> ReferenceHistory {
        ReferenceHistory::with_first_reference(self.k, now)
    }

    fn touch(&mut self, set: &mut SetInfo<ReferenceHistory>, now: Timestamp) {
        set.state.record_once(now);
    }

    /// Files the victim's history, unless the bound holds even after expiry.
    fn denied<V>(&mut self, records: &mut Histories<V>, slot: EntryId, now: Timestamp) {
        if self.retained.is_full() {
            self.expire(records, now);
        }
        if !self.retained.retain(records, slot, now) {
            return;
        }
        if self.filed_at.len() <= slot.index() {
            self.filed_at.resize(slot.index() + 1, Timestamp::ZERO);
        }
        self.filed_at[slot.index()] = now;
        self.filings.push_back((now, slot));
        // Filings of histories taken up since pile up until their time passes;
        // past twice the bound, drop them at once.
        if self.filings.len() > 2 * self.filed_at.len() {
            let filings = std::mem::take(&mut self.filings);
            let current = |&f: &(Timestamp, EntryId)| self.current(records, f);
            self.filings = filings.into_iter().filter(current).collect();
        }
    }

    fn cleared(&mut self) {
        self.retained.clear();
        self.filings.clear();
        self.filed_at.clear();
    }
}

/// A retrieved-set cache with LRU-K replacement.
///
/// Invalidation ([`QueryCache::remove`](crate::policy::QueryCache::remove))
/// discards the resident set's reference history with the set — the update
/// that triggered it may have changed the set entirely — and leaves a
/// retained history alone: its set is not resident.
pub type LruKCache<V> = RankedCache<V, LruKRule, OrdIndex<(bool, u64)>>;

impl<V: CachePayload, O: VictimOrder<LruKRule>> RankedCache<V, LruKRule, O> {
    /// Creates an LRU-K cache from a configuration.
    pub fn new(config: LruKConfig) -> Self {
        RankedCache::with_rule(config.capacity_bytes, LruKRule::new(&config))
    }

    /// Creates an LRU-K cache with the given capacity and `K`.
    pub fn with_capacity(capacity_bytes: u64, k: usize) -> Self {
        Self::new(LruKConfig::new(capacity_bytes, k))
    }

    /// The configured `K`.
    pub fn k(&self) -> usize {
        self.rule.k
    }

    /// Number of retained (post-eviction) histories currently held.
    pub fn retained_entries(&self) -> usize {
        self.rule.retained.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ranked::contract::{self, insert, key, ts};
    use crate::policy::QueryCache;
    use crate::value::SizedPayload;

    #[test]
    fn k_equals_one_behaves_like_lru() {
        let mut cache = LruKCache::with_capacity(300, 1);
        insert(&mut cache, "a", 100, 1);
        insert(&mut cache, "b", 100, 2);
        insert(&mut cache, "c", 100, 3);
        cache.get(&key("a"), ts(4));
        let outcome = insert(&mut cache, "d", 100, 5);
        assert_eq!(outcome.evicted(), &[key("b")]);
    }

    #[test]
    fn entries_with_incomplete_history_are_evicted_first() {
        let mut cache = LruKCache::with_capacity(300, 2);
        insert(&mut cache, "seasoned", 100, 1);
        cache.get(&key("seasoned"), ts(2)); // now has 2 samples
        insert(&mut cache, "rookie1", 100, 3);
        insert(&mut cache, "rookie2", 100, 4);
        // Evict one: rookies (1 sample) must go before "seasoned", and the
        // older rookie goes first.
        let outcome = insert(&mut cache, "new", 100, 5);
        assert_eq!(outcome.evicted(), &[key("rookie1")]);
        assert!(cache.contains(&key("seasoned")));
    }

    #[test]
    fn full_histories_compared_by_kth_reference() {
        let mut cache = LruKCache::with_capacity(200, 2);
        // "x": references at 1 and 10 → 2nd most recent = 1.
        // "y": references at 5 and 6 → 2nd most recent = 5.
        insert(&mut cache, "x", 100, 1);
        insert(&mut cache, "y", 100, 5);
        cache.get(&key("y"), ts(6));
        cache.get(&key("x"), ts(10));
        // Victim must be "x" (older K-th reference) even though its most
        // recent reference (10) is newer than y's (6) — the defining
        // difference between LRU and LRU-K.
        let outcome = insert(&mut cache, "z", 100, 20);
        assert_eq!(outcome.evicted(), &[key("x")]);
        assert!(cache.contains(&key("y")));
    }

    #[test]
    fn retained_history_survives_eviction_and_reinsert() {
        let mut cache = LruKCache::with_capacity(100, 2);
        insert(&mut cache, "a", 100, 1);
        cache.get(&key("a"), ts(2));
        // Evict "a" by inserting "b".
        let outcome = insert(&mut cache, "b", 100, 3);
        assert_eq!(outcome.evicted(), &[key("a")]);
        assert_eq!(cache.retained_entries(), 1);
        // Re-reference "a": its retained history plus the new reference give
        // it a full history immediately.
        assert!(cache.get(&key("a"), ts(4)).is_none());
        insert(&mut cache, "a", 100, 4);
        let entry_samples = {
            // "a" is cached again; check through public behaviour: evicting
            // now should prefer nothing with incomplete history.
            cache.len()
        };
        assert_eq!(entry_samples, 1);
        assert!(cache.contains(&key("a")));
    }

    #[test]
    fn duplicate_timestamp_misses_record_once_in_retained_history() {
        // A single-flight waiter retrying after an abandoned flight re-issues
        // the same logical reference; the retained history must count it once.
        let mut cache = LruKCache::with_capacity(100, 4);
        insert(&mut cache, "a", 100, 1);
        insert(&mut cache, "b", 100, 2); // evicts a, retains its history
        assert!(cache.get(&key("a"), ts(5)).is_none());
        assert!(cache.get(&key("a"), ts(5)).is_none()); // the retry
        let samples = cache.retained_info(&key("a")).unwrap().state.sample_count();
        assert_eq!(samples, 2, "insert-time + one miss, not two");
    }

    #[test]
    fn retained_history_expires_after_period() {
        let mut config = LruKConfig::new(100, 2);
        config.retained_info_period = 10;
        let mut cache: LruKCache<SizedPayload> = LruKCache::new(config);
        insert(&mut cache, "a", 100, 1);
        insert(&mut cache, "b", 100, 2); // evicts a, retains its history
        assert_eq!(cache.retained_entries(), 1);
        // Far in the future the retained history must be gone.
        insert(&mut cache, "c", 100, 1_000);
        assert_eq!(
            cache.retained_entries(),
            1,
            "only b's fresh eviction is retained"
        );
        assert!(cache.retained_info(&key("a")).is_none());
    }

    fn timed_out(
        period: u64,
        max_retained_entries: usize,
        capacity: u64,
    ) -> LruKCache<SizedPayload> {
        let mut config = LruKConfig::new(capacity, 2);
        config.retained_info_period = period;
        config.max_retained_entries = max_retained_entries;
        LruKCache::new(config)
    }

    #[test]
    fn retained_histories_expire_by_their_latest_filing() {
        let mut cache = timed_out(10, 16, 100);
        let retained =
            |cache: &LruKCache<SizedPayload>, name: &str| cache.retained_info(&key(name)).is_some();
        insert(&mut cache, "a", 100, 1);
        insert(&mut cache, "b", 100, 2); // a filed at 2
        insert(&mut cache, "a", 100, 3); // a taken up; b filed at 3
        insert(&mut cache, "c", 100, 8); // a filed again at 8
                                         // a's first filing is due, but a was filed again later.
        insert(&mut cache, "d", 100, 13);
        assert!(retained(&cache, "b") && retained(&cache, "a"));
        insert(&mut cache, "e", 100, 15);
        assert!(!retained(&cache, "b"), "b expires 10 after its filing");
        assert!(retained(&cache, "a"), "a expires by its latest filing");
        insert(&mut cache, "f", 100, 19);
        assert!(!retained(&cache, "a"));
        assert_eq!(cache.retained_entries(), 3);
    }

    #[test]
    fn an_expiry_leaves_a_history_admitted_again() {
        let mut cache = timed_out(10, 16, 300);
        for (name, now) in [("a", 1), ("b", 2), ("c", 3), ("d", 4)] {
            insert(&mut cache, name, 100, now); // a filed at 4
        }
        insert(&mut cache, "a", 100, 5); // a cached again in its record; b filed at 5
        assert!(cache.remove(&key("c")));
        // a's filing is due at 15, while a is cached: it stays.
        assert!(insert(&mut cache, "e", 100, 15).evicted().is_empty());
        assert!(cache.contains(&key("a")));
        assert_eq!(cache.len(), 3);
        assert!(cache.books_balance());
        assert_eq!(cache.retained_keys(), [key("b")]);
    }

    #[test]
    fn a_full_store_expires_before_it_refuses() {
        let mut cache = timed_out(10, 2, 300);
        for (name, now) in [("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 5)] {
            insert(&mut cache, name, 100, now);
        }
        assert_eq!(cache.retained_entries(), 2);
        // A refresh that grows makes room without an admission, so only the
        // victim's filing can expire histories.  Full and nothing due: the
        // victim's history is refused.
        assert_eq!(insert(&mut cache, "e", 200, 6).evicted(), &[key("c")]);
        assert!(cache.retained_info(&key("c")).is_none());
        // Full, but both held histories are due: they make room.
        assert_eq!(insert(&mut cache, "e", 300, 20).evicted(), &[key("d")]);
        assert!(cache.retained_info(&key("d")).is_some());
        assert_eq!(cache.retained_entries(), 1);
    }

    #[test]
    fn invalidation_keeps_only_retained_histories() {
        contract::invalidation_keeps_only_retained_histories(|bytes| {
            LruKCache::with_capacity(bytes, 2)
        });
    }

    #[test]
    fn rejects_oversized_sets() {
        contract::rejects_oversized_and_zero_capacity(|bytes| LruKCache::with_capacity(bytes, 2));
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut cache = LruKCache::with_capacity(1_000, 2);
        assert!(cache.get(&key("a"), ts(1)).is_none());
        insert(&mut cache, "a", 100, 1);
        assert!(cache.get(&key("a"), ts(2)).is_some());
        // One miss (counted at insert time) plus one hit.
        assert_eq!(cache.stats().references, 2);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn used_bytes_bounded_by_capacity() {
        contract::used_bytes_never_exceeds_capacity(|bytes| LruKCache::with_capacity(bytes, 3));
    }

    #[test]
    fn clear_resets_state() {
        let mut cache = LruKCache::with_capacity(200, 2);
        insert(&mut cache, "a", 100, 1);
        insert(&mut cache, "b", 150, 2);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.used_bytes(), 0);
        assert_eq!(cache.retained_entries(), 0);
    }
}
