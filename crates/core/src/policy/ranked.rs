//! One cache shell for every policy, parameterised by the rule that ranks
//! its sets and the order that finds the lowest-ranked ones.
//!
//! The paper compares LNC-RA with LRU and LRU-K (Figure 3) and with ADMS's
//! LFU and LCS to isolate *which ingredient of the ranking* earns the cost
//! savings, and every one of those policies runs the same loop: on a miss,
//! pick victims in the policy's order until the newcomer fits (Figure 1 for
//! LNC-R), apply the admission test (LNC-A, Eq. 4–8; the others admit
//! everything), and keep what is worth keeping about the sets turned away
//! (§2.4).  [`RankedCache`] is that loop, written once.  What differs is a
//! type parameter, never a branch, so each policy is monomorphised into the
//! code a hand-written cache would be:
//!
//! * a [`RankRule`] — what the policy keeps about a set, its rank, its
//!   admission test and what it retains: [`lru`](super::lru),
//!   [`lfu`](super::lfu), [`lcs`](super::lcs), [`gds`](super::gds),
//!   [`lru_k`](super::lru_k) and [`lnc`](super::lnc) are each one rule;
//! * a [`VictimOrder`] — how the lowest ranks are found: an
//!   [`OrdIndex`](super::index::OrdIndex) of static ranks for the five
//!   baselines, the [`DecayIndex`](crate::decay::DecayIndex) of Figure 1's
//!   decaying two-level order for LNC, and, in tests, a scan that re-scores
//!   and sorts every set — the one oracle both are held to.
//!
//! Time never steps back inside the shell: Eq. 3 assumes it, and callers
//! supply `now`, so every entry point raises its `now` to the latest one any
//! call passed.

use std::fmt;

use crate::clock::Timestamp;
use crate::index::{EntryId, EntryStore, KeyedEntry, SetInfo};
use crate::key::QueryKey;
use crate::metrics::CacheStats;
use crate::policy::{InsertOutcome, QueryCache, RejectReason};
use crate::profit::Profit;
use crate::value::{CachePayload, ExecutionCost};

/// What distinguishes one policy from another.  When [`RankedCache`] calls
/// each hook is part of the policies' observable behaviour, and is stated on
/// the hook; the defaults are what the baselines do: one group, admit
/// everything, retain nothing.
pub trait RankRule: Clone + fmt::Debug {
    /// What the rule keeps about one cached set.
    type State: Clone + fmt::Debug;
    /// What orders the sets of one group.  Ties fall to the entry's slot:
    /// the first of a slot-order scan for a minimum, the last for a maximum.
    type Rank: Ord + Copy + fmt::Debug;

    /// Whether the victim is the set of *greatest* rank, not the least.
    const VICTIM_IS_MAX: bool = false;
    /// Whether the rule keeps a rate estimate (Eq. 3): only then does it
    /// price a shrink ([`QueryCache::shrink_loss`]).
    const RATED: bool = false;

    /// The policy name reported by [`QueryCache::name`].
    fn name(&self) -> &'static str;

    /// Figure 1's group of a set: victims are taken from lower groups first.
    fn group(_state: &Self::State) -> usize {
        0
    }

    /// How many groups there are.
    fn groups(&self) -> usize {
        1
    }

    /// The rank of a set within its group at `now`.  An
    /// [`OrdIndex`](super::index::OrdIndex) keeps the rank a set has when it
    /// is filed or referenced, so it only serves rules that ignore `now`.
    fn rank(set: &SetInfo<Self::State>, now: Timestamp) -> Self::Rank;

    /// What the least-ranked set is worth to
    /// [`QueryCache::min_cached_profit`]; by default `c/s` (Eq. 6).
    fn price(set: &SetInfo<Self::State>, _now: Timestamp) -> Profit {
        Profit::estimated(set.cost, set.size_bytes)
    }

    /// The set's reference rate at `now`, for a [`RankRule::RATED`] rule.
    fn rate(_set: &SetInfo<Self::State>, _now: Timestamp) -> f64 {
        0.0
    }

    /// The state of a set about to be admitted.  Runs after the miss is
    /// counted and the size checks passed, *before* room is made.
    fn admit(
        &mut self,
        key: &QueryKey,
        cost: ExecutionCost,
        size: u64,
        now: Timestamp,
    ) -> Self::State;

    /// Completes a newcomer's state *after* room was made, where the state
    /// depends on the evictions the newcomer caused.
    fn settle(&mut self, _state: &mut Self::State) {}

    /// A reference to a cached set: a hit, or a refresh through
    /// [`QueryCache::insert`] (the set's cost and size are then already the
    /// refreshed ones).
    fn touch(&mut self, set: &mut SetInfo<Self::State>, now: Timestamp);

    /// A [`QueryCache::get`] that found nothing.
    fn missed(&mut self, _key: &QueryKey, _now: Timestamp) {}

    /// Whether `set` is refused before any victim is selected for the
    /// `needed` bytes it lacks.  `group_bytes` are the cached bytes by group,
    /// `cached` the number of cached sets, and `floor(g)` the victim order's
    /// lower bound on `c/s` of every set in the groups up to `g`.
    fn rejects_unseen(
        &mut self,
        _set: &SetInfo<Self::State>,
        _needed: u64,
        _group_bytes: &[u64],
        _cached: usize,
        _floor: impl FnOnce(u32) -> f64,
    ) -> bool {
        false
    }

    /// The admission test, given the victims selected to make room.
    fn admits<'e>(
        &self,
        _set: &SetInfo<Self::State>,
        _victims: impl Iterator<Item = &'e SetInfo<Self::State>>,
        _now: Timestamp,
    ) -> bool
    where
        Self::State: 'e,
    {
        true
    }

    /// A set was denied residency: evicted (not invalidated) or refused by
    /// the admission test.
    fn denied(&mut self, _set: SetInfo<Self::State>, _now: Timestamp) {}

    /// A set larger than the whole cache was refused.
    fn oversized(&mut self, _key: &QueryKey, _cost: ExecutionCost, _size: u64, _now: Timestamp) {}

    /// Runs after every admission and every refusal by the admission test;
    /// `least` prices the least-ranked cached set across groups.
    fn purge(&mut self, _least: impl FnOnce() -> Option<Profit>, _now: Timestamp) {}

    /// [`QueryCache::grow_gain`]: what `bytes` more capacity could win back.
    fn grow_gain(&mut self, _bytes: u64, _now: Timestamp) -> Option<Profit> {
        None
    }

    /// [`QueryCache::clear`] emptied the cache.
    fn cleared(&mut self) {}

    /// The keys of the histories the rule retains, in unspecified order.
    #[cfg(test)]
    fn retained_keys(&self) -> Vec<QueryKey> {
        Vec::new()
    }
}

/// How a [`RankedCache`] finds its lowest-ranked sets.  It is told when a
/// set is filed, referenced and removed, and hands sets out in order.
pub trait VictimOrder<R: RankRule>: Clone + fmt::Debug {
    /// An empty order.
    fn new() -> Self;

    /// Files the set in `slot`: just admitted, or refreshed with a new size
    /// or cost.
    fn file(&mut self, set: &SetInfo<R::State>, slot: EntryId, now: Timestamp);

    /// The set in `slot` was referenced.  A reference can only raise a
    /// decaying profit, so by default the order is not told.
    fn touch(&mut self, _set: &SetInfo<R::State>, _slot: EntryId, _now: Timestamp) {}

    /// The set in `slot` left the cache.  By default the order finds the
    /// slot empty when it next reaches it.
    fn unfile(&mut self, _slot: EntryId) {}

    /// Hands the cached sets to `take` in ascending `(group, rank, slot)`
    /// order at `now` — `(rank, slot)` order when not `by_group`, and
    /// descending for a [`RankRule::VICTIM_IS_MAX`] rule — until it returns
    /// `false`.
    fn ascend<V>(
        &mut self,
        entries: &EntryStore<Entry<V, R::State>>,
        now: Timestamp,
        by_group: bool,
        take: impl FnMut(EntryId) -> bool,
    );

    /// The least-ranked set across groups at `now` and its price.  With
    /// `within`, the owner vouches that the price is at most that: an order
    /// may then skip what it knows to be priced above it.
    fn least<V>(
        &mut self,
        entries: &EntryStore<Entry<V, R::State>>,
        now: Timestamp,
        _within: Option<Profit>,
    ) -> Option<(EntryId, Profit)> {
        let mut least = None;
        self.ascend(entries, now, false, |id| {
            least = entries.by_id(id).map(|e| (id, R::price(&e.info, now)));
            false
        });
        least
    }

    /// A lower bound on `c/s` of every cached set in the groups up to
    /// `groups`; an order that offers none answers `-∞`.
    fn least_ratio(&self, _groups: u32) -> f64 {
        f64::NEG_INFINITY
    }

    /// Forgets every set.
    fn clear(&mut self);
}

/// A cached retrieved set.
#[derive(Debug, Clone)]
pub struct Entry<V, S> {
    pub(crate) info: SetInfo<S>,
    value: V,
}

impl<V, S> KeyedEntry for Entry<V, S> {
    fn key(&self) -> &QueryKey {
        &self.info.key
    }
}

/// A retrieved-set cache whose [`RankRule`] ranks, admits and retains, and
/// whose [`VictimOrder`] finds the victims.
#[derive(Debug, Clone)]
pub struct RankedCache<V, R: RankRule, O: VictimOrder<R>> {
    capacity_bytes: u64,
    entries: EntryStore<Entry<V, R::State>>,
    pub(super) order: O,
    pub(super) rule: R,
    /// Cached bytes by group: they sum to the occupancy.
    group_bytes: Vec<u64>,
    /// The last victim selection, kept for its allocation.
    victims: Vec<EntryId>,
    stats: CacheStats,
    /// The latest `now` any call passed: every call's own is raised to it.
    latest: Timestamp,
    /// The set the last [`least`] found and its price then.  Where the rank
    /// is the decaying profit (LNC), no least is priced above it until that
    /// set is referenced, refreshed or removed: its own profit only decays,
    /// and a newcomer can only lower the minimum.
    certified: Option<(EntryId, Profit)>,
}

/// The least-ranked cached set across groups, priced by its rule, ascended
/// within the certificate, which it renews.
fn least<V, R: RankRule, O: VictimOrder<R>>(
    order: &mut O,
    entries: &EntryStore<Entry<V, R::State>>,
    certified: &mut Option<(EntryId, Profit)>,
    now: Timestamp,
) -> Option<Profit> {
    *certified = order.least(entries, now, certified.map(|(_, price)| price));
    certified.map(|(_, price)| price)
}

impl<V: CachePayload, R: RankRule, O: VictimOrder<R>> RankedCache<V, R, O> {
    pub(crate) fn with_rule(capacity_bytes: u64, rule: R) -> Self {
        RankedCache {
            capacity_bytes,
            entries: EntryStore::new(),
            order: O::new(),
            group_bytes: vec![0; rule.groups()],
            rule,
            victims: Vec::new(),
            stats: CacheStats::new(),
            latest: Timestamp::ZERO,
            certified: None,
        }
    }

    /// Raises `now` to the latest time any call passed and returns it.
    fn clock(&mut self, now: Timestamp) -> Timestamp {
        self.latest = self.latest.max(now);
        self.latest
    }

    /// The set in `slot` may be priced higher now, or be gone: it no longer
    /// certifies the least price.
    fn uncertify(&mut self, slot: EntryId) {
        if self
            .certified
            .is_some_and(|(certified, _)| certified == slot)
        {
            self.certified = None;
        }
    }

    /// Selects the victims that free at least `needed` bytes: the shortest
    /// prefix of the victim order whose sizes reach it (Figure 1), or every
    /// set when they do not.
    pub(super) fn select(&mut self, needed: u64, now: Timestamp) -> Vec<EntryId> {
        let mut victims = std::mem::take(&mut self.victims);
        victims.clear();
        if needed == 0 {
            return victims;
        }
        debug_assert!(self.books_balance(), "group bytes diverged from the sets");
        let (entries, mut freed) = (&self.entries, 0u64);
        self.order.ascend(entries, now, true, |id| {
            victims.push(id);
            freed += entries.by_id(id).map_or(0, |e| e.info.size_bytes);
            freed < needed
        });
        victims
    }

    /// Whether every group's bytes are the sum of the sizes of its sets.
    pub(crate) fn books_balance(&self) -> bool {
        let mut groups = vec![0; self.group_bytes.len()];
        for (_, e) in self.entries.iter() {
            groups[R::group(&e.info.state)] += e.info.size_bytes;
        }
        groups == self.group_bytes
    }

    /// Evicts the given sets, returning their keys.
    fn evict(&mut self, victims: Vec<EntryId>, now: Timestamp) -> Vec<QueryKey> {
        let mut evicted = Vec::with_capacity(victims.len());
        for &id in &victims {
            let Some(Entry { info, .. }) = self.entries.remove(id) else {
                continue;
            };
            self.uncertify(id);
            self.order.unfile(id);
            self.group_bytes[R::group(&info.state)] -= info.size_bytes;
            self.stats.record_eviction(info.size_bytes);
            evicted.push(info.key.clone());
            self.rule.denied(info, now);
        }
        self.victims = victims;
        evicted
    }

    /// Evicts victims until the occupancy is within the capacity.
    fn make_room(&mut self, now: Timestamp) -> Vec<QueryKey> {
        let used = self.used_bytes();
        if used <= self.capacity_bytes {
            return Vec::new();
        }
        let victims = self.select(used - self.capacity_bytes, now);
        self.evict(victims, now)
    }

    fn purge(&mut self, now: Timestamp) {
        let (order, entries, certified) = (&mut self.order, &self.entries, &mut self.certified);
        self.rule
            .purge(|| least(order, entries, certified, now), now);
    }

    /// A set the admission test turned away.
    fn refuse(&mut self, info: SetInfo<R::State>, now: Timestamp) -> InsertOutcome {
        self.rule.denied(info, now);
        self.stats.record_admission(false);
        self.purge(now);
        InsertOutcome::Rejected(RejectReason::AdmissionTest)
    }

    /// What is known about the cached set for `key`, read without recording
    /// a reference.
    pub(super) fn info(&self, key: &QueryKey) -> Option<&SetInfo<R::State>> {
        self.entries.get(key).map(|e| &e.info)
    }

    /// Removes the set for `key` without evicting it, returning its payload.
    pub(super) fn invalidate(&mut self, key: &QueryKey) -> Option<V> {
        let id = self.entries.find(key)?;
        let Entry { info, value } = self.entries.remove(id)?;
        // Invalidation is not an eviction: the rule is not told, so whatever
        // it remembered about the set goes with the entry.
        self.uncertify(id);
        self.order.unfile(id);
        self.group_bytes[R::group(&info.state)] -= info.size_bytes;
        Some(value)
    }
}

impl<V: CachePayload, R: RankRule, O: VictimOrder<R>> QueryCache<V> for RankedCache<V, R, O> {
    fn name(&self) -> &'static str {
        self.rule.name()
    }

    fn get(&mut self, key: &QueryKey, now: Timestamp) -> Option<&V> {
        let now = self.clock(now);
        let Some(id) = self.entries.find(key) else {
            self.rule.missed(key, now);
            return None;
        };
        self.uncertify(id);
        let Entry { info, value } = self.entries.by_id_mut(id)?;
        let group = R::group(&info.state);
        self.rule.touch(info, now);
        let moved = R::group(&info.state);
        if moved != group {
            self.group_bytes[group] -= info.size_bytes;
            self.group_bytes[moved] += info.size_bytes;
        }
        self.order.touch(info, id, now);
        self.stats.record_hit(info.cost);
        Some(value)
    }

    fn insert(
        &mut self,
        key: QueryKey,
        value: V,
        cost: ExecutionCost,
        now: Timestamp,
    ) -> InsertOutcome {
        let now = self.clock(now);
        let size_bytes = value.size_bytes();
        self.stats.record_miss(cost);

        if let Some(id) = self.entries.find(&key) {
            self.uncertify(id);
            let entry = self.entries.by_id_mut(id).expect("found above");
            let info = &mut entry.info;
            self.group_bytes[R::group(&info.state)] -= info.size_bytes;
            (entry.value, info.cost, info.size_bytes) = (value, cost, size_bytes);
            self.rule.touch(info, now);
            self.group_bytes[R::group(&info.state)] += size_bytes;
            // A new size or cost can lower the rank: re-file at once.
            self.order.file(info, id, now);
            // Restore the capacity invariant if the refreshed payload grew.
            let evicted = self.make_room(now);
            return InsertOutcome::AlreadyCached { evicted };
        }

        if self.capacity_bytes == 0 {
            self.stats.record_admission(false);
            return InsertOutcome::Rejected(RejectReason::ZeroCapacity);
        }
        if size_bytes > self.capacity_bytes {
            self.rule.oversized(&key, cost, size_bytes, now);
            self.stats.record_admission(false);
            return InsertOutcome::Rejected(RejectReason::TooLarge);
        }

        let state = self.rule.admit(&key, cost, size_bytes, now);
        let mut info = SetInfo {
            key,
            size_bytes,
            cost,
            state,
        };
        let free = self.capacity_bytes - self.used_bytes();
        let mut evicted = Vec::new();
        if free < size_bytes {
            let needed = size_bytes - free;
            let (order, cached) = (&self.order, self.entries.len());
            let floor = |groups| order.least_ratio(groups);
            if (self.rule).rejects_unseen(&info, needed, &self.group_bytes, cached, floor) {
                return self.refuse(info, now);
            }
            let victims = self.select(needed, now);
            let entries = &self.entries;
            let chosen = victims.iter().filter_map(|&id| entries.by_id(id));
            if !self.rule.admits(&info, chosen.map(|e| &e.info), now) {
                self.victims = victims;
                return self.refuse(info, now);
            }
            evicted = self.evict(victims, now);
        }

        self.rule.settle(&mut info.state);
        self.group_bytes[R::group(&info.state)] += size_bytes;
        let id = self.entries.insert(Entry { info, value });
        let entry = self.entries.by_id(id).expect("just inserted");
        self.order.file(&entry.info, id, now);
        self.stats.record_admission(true);
        self.purge(now);
        InsertOutcome::Admitted { evicted }
    }

    fn remove(&mut self, key: &QueryKey) -> bool {
        self.invalidate(key).is_some()
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
        self.group_bytes.iter().sum()
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    fn set_capacity_bytes(&mut self, capacity_bytes: u64, now: Timestamp) -> Vec<QueryKey> {
        let now = self.clock(now);
        self.capacity_bytes = capacity_bytes;
        // Shrinking below occupancy evicts in the rule's own victim order,
        // with the same side effects as demand-driven evictions.
        self.make_room(now)
    }

    fn min_cached_profit(&mut self, now: Timestamp) -> Option<Profit> {
        let now = self.clock(now);
        least(&mut self.order, &self.entries, &mut self.certified, now)
    }

    fn shrink_loss(&mut self, bytes: u64, now: Timestamp) -> Option<Profit> {
        let now = self.clock(now);
        if !R::RATED {
            return None;
        }
        // Shrinking into free space costs nothing.
        let used = self.used_bytes();
        let free = self.capacity_bytes.saturating_sub(used);
        if bytes <= free || self.entries.is_empty() {
            return Some(Profit::ZERO);
        }
        // Price the victims the rule would actually pick for this shrink.
        let victims = self.select((bytes - free).min(used), now);
        let entries = &self.entries;
        let loss = Profit::of_list(
            victims
                .iter()
                .filter_map(|&id| entries.by_id(id))
                .map(|e| (R::rate(&e.info, now), e.info.cost, e.info.size_bytes)),
        );
        self.victims = victims;
        Some(loss)
    }

    fn grow_gain(&mut self, bytes: u64, now: Timestamp) -> Option<Profit> {
        let now = self.clock(now);
        self.rule.grow_gain(bytes, now)
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
        self.certified = None;
        self.order.clear();
        self.group_bytes.fill(0);
        self.rule.cleared();
    }

    fn cached_keys(&self) -> Vec<QueryKey> {
        self.entries
            .iter()
            .map(|(_, e)| e.info.key.clone())
            .collect()
    }
}

#[cfg(test)]
pub(super) mod contract {
    //! What every rule's cache does the same way, asserted once.  Each rule's
    //! test module runs the rows it always ran, under the names they always
    //! had.

    use super::*;
    use crate::value::SizedPayload;

    pub fn ts(us: u64) -> Timestamp {
        Timestamp::from_micros(us)
    }

    pub fn key(name: &str) -> QueryKey {
        QueryKey::new(name.to_owned())
    }

    /// Offers a set of `size` bytes that cost 10 blocks.
    pub fn insert<R: RankRule, O: VictimOrder<R>>(
        cache: &mut RankedCache<SizedPayload, R, O>,
        name: &str,
        size: u64,
        now: u64,
    ) -> InsertOutcome {
        let (value, cost) = (SizedPayload::new(size), ExecutionCost::from_blocks(10));
        cache.insert(key(name), value, cost, ts(now))
    }

    fn offer<R: RankRule, O: VictimOrder<R>>(
        cache: &mut RankedCache<SizedPayload, R, O>,
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

    pub fn rejects_oversized_and_zero_capacity<R: RankRule, O: VictimOrder<R>>(
        new: impl Fn(u64) -> RankedCache<SizedPayload, R, O>,
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

    pub fn already_cached_refreshes_size<R: RankRule, O: VictimOrder<R>>(
        new: impl Fn(u64) -> RankedCache<SizedPayload, R, O>,
    ) {
        let mut cache = new(500);
        offer(&mut cache, "a", 100, 1);
        let outcome = offer(&mut cache, "a", 200, 2);
        assert_eq!(outcome, InsertOutcome::already_cached());
        assert_eq!(cache.used_bytes(), 200);
        assert_eq!(cache.len(), 1);
    }

    pub fn clear_resets_contents<R: RankRule, O: VictimOrder<R>>(
        new: impl Fn(u64) -> RankedCache<SizedPayload, R, O>,
    ) {
        let mut cache = new(500);
        offer(&mut cache, "a", 100, 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.used_bytes(), 0);
        offer(&mut cache, "b", 100, 2);
        assert_eq!(cache.len(), 1);
    }

    pub fn used_bytes_never_exceeds_capacity<R: RankRule, O: VictimOrder<R>>(
        new: impl Fn(u64) -> RankedCache<SizedPayload, R, O>,
    ) {
        let mut cache = new(1_000);
        for i in 0..300u64 {
            let name = format!("q{}", i % 41);
            offer(&mut cache, &name, 60 + (i % 11) * 40, i + 1);
            assert!(cache.used_bytes() <= cache.capacity_bytes());
        }
    }
}
