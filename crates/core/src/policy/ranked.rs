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
//! * a [`VictimOrder`] — how the lowest ranks are found: an `OrdIndex` of
//!   static ranks for the five baselines, the `DecayIndex` of Figure 1's
//!   decaying two-level order for LNC, and, in tests, a scan that re-scores
//!   and sorts every set — the one oracle both are held to.
//!
//! The shell keeps one record per key ([`EntryStore`]): a cached set's, or one
//! its rule retains (§2.4).  A set is evicted, refused and admitted in its
//! record's place.  Both orders are keyed by slot, and a slot outlives a
//! stay in either, so whatever reaches a record by slot checks where it
//! stands.
//!
//! Time never steps back inside the shell: Eq. 3 assumes it, and callers
//! supply `now`, so every entry point raises its `now` to the latest one any
//! call passed.

use std::fmt;

use crate::clock::Timestamp;
use crate::history::MAX_WINDOW;
use crate::index::{EntryId, EntryStore, Record, Residency, SetInfo};
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
    /// What the rule keeps about one set.
    type State: Clone + fmt::Debug;
    /// What orders the sets of one group.  Ties fall to the entry's slot:
    /// the first of a slot-order scan for a minimum, the last for a maximum.
    type Rank: Ord + Copy + fmt::Debug;

    /// Whether the victim is the set of *greatest* rank, not the least.
    const VICTIM_IS_MAX: bool = false;

    /// The policy name reported by [`QueryCache::name`].
    fn name(&self) -> &'static str;

    /// Figure 1's group of a set, at most [`MAX_WINDOW`]: victims are taken
    /// from lower groups first.
    fn group(_state: &Self::State) -> usize {
        0
    }

    /// The rank of a set within its group at `now`.  An `OrdIndex` keeps the
    /// rank a set has when it is filed or referenced, so it only serves
    /// rules that ignore `now`.
    fn rank(set: &SetInfo<Self::State>, now: Timestamp) -> Self::Rank;

    /// What the least-ranked set is worth to the §2.4 purge
    /// ([`RankRule::purge`]); by default `c/s` (Eq. 6).
    fn price(set: &SetInfo<Self::State>, _now: Timestamp) -> Profit {
        Profit::estimated(set.cost, set.size_bytes)
    }

    /// Runs first for a set about to be decided on, after the miss is
    /// counted and the size checks passed, *before* room is made, with the
    /// set's retained record.  Answers it once taken up — out of the
    /// retained order, the reference recorded on it — or `None`.
    fn take_up<V>(
        &mut self,
        _records: &mut EntryStore<V, Self::State>,
        _retained: Option<EntryId>,
        _now: Timestamp,
    ) -> Option<EntryId> {
        None
    }

    /// The state of a set [`RankRule::take_up`] found no record for.
    fn admit(&mut self, cost: ExecutionCost, size: u64, now: Timestamp) -> Self::State;

    /// Completes a newcomer's state *after* room was made, where the state
    /// depends on the evictions the newcomer caused.
    fn settle(&mut self, _state: &mut Self::State) {}

    /// A reference to a set: a hit, a refresh through [`QueryCache::insert`]
    /// (the set's cost and size are then already the refreshed ones), or a
    /// [`QueryCache::get`] that found the set's retained record.
    fn touch(&mut self, set: &mut SetInfo<Self::State>, now: Timestamp);

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

    /// The set in `slot` was denied residency: evicted (not invalidated),
    /// refused, or too large.  Its record, in neither order, is retained or,
    /// by default, removed.
    fn denied<V>(
        &mut self,
        records: &mut EntryStore<V, Self::State>,
        slot: EntryId,
        _now: Timestamp,
    ) {
        records.remove(slot);
    }

    /// Whether a set larger than the whole cache is taken up and denied; by
    /// default its record, if any, is left alone.
    fn keeps_oversized(&self) -> bool {
        false
    }

    /// Runs after every admission and every refusal by the admission test;
    /// `least` prices the least-ranked cached set across groups.
    fn purge<V>(
        &mut self,
        _records: &mut EntryStore<V, Self::State>,
        _least: impl FnOnce(&EntryStore<V, Self::State>) -> Option<Profit>,
        _now: Timestamp,
    ) {
    }

    /// [`QueryCache::clear`] emptied the cache of every record.
    fn cleared(&mut self) {}
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
    /// slot's record gone or no longer cached when it next reaches it.
    fn unfile(&mut self, _slot: EntryId) {}

    /// Hands the cached sets to `take` in ascending `(group, rank, slot)`
    /// order at `now` — `(rank, slot)` order when not `by_group`, and
    /// descending for a [`RankRule::VICTIM_IS_MAX`] rule — until it returns
    /// `false`.
    fn ascend<V>(
        &mut self,
        records: &EntryStore<V, R::State>,
        now: Timestamp,
        by_group: bool,
        take: impl FnMut(EntryId) -> bool,
    );

    /// The least-ranked set across groups at `now` and its price.  With
    /// `within`, the owner vouches that the price is at most that: an order
    /// may then skip what it knows to be priced above it.
    fn least<V>(
        &mut self,
        records: &EntryStore<V, R::State>,
        now: Timestamp,
        _within: Option<Profit>,
    ) -> Option<(EntryId, Profit)> {
        let mut least = None;
        self.ascend(records, now, false, |id| {
            least = records.by_id(id).map(|e| (id, R::price(&e.info, now)));
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

/// The set a decision is about, and its retained record if it had one.
type Newcomer<S> = (SetInfo<S>, Option<EntryId>);

/// A retrieved-set cache whose [`RankRule`] ranks, admits and retains, and
/// whose [`VictimOrder`] finds the victims.
#[derive(Debug, Clone)]
pub struct RankedCache<V, R: RankRule, O: VictimOrder<R>> {
    capacity_bytes: u64,
    records: EntryStore<V, R::State>,
    /// How many records are cached.
    cached: usize,
    pub(super) order: O,
    pub(super) rule: R,
    /// Cached bytes by group: they sum to the occupancy.
    group_bytes: [u64; MAX_WINDOW + 1],
    /// The last victim selection, kept for its allocation.
    victims: Vec<EntryId>,
    stats: CacheStats,
    /// The latest `now` any call passed: every call's own is raised to it.
    latest: Timestamp,
    /// The set the last [`least`] found and its price then.  Where the rank
    /// is the decaying profit (LNC), no least is priced above it until that
    /// set is referenced, refreshed or removed (which take it back): its own
    /// profit only decays, and a newcomer can only lower the minimum.
    certified: Option<(EntryId, Profit)>,
}

/// The least-ranked cached set across groups, priced by its rule, ascended
/// within the certificate, which it renews.
fn least<V, R: RankRule, O: VictimOrder<R>>(
    order: &mut O,
    records: &EntryStore<V, R::State>,
    certified: &mut Option<(EntryId, Profit)>,
    now: Timestamp,
) -> Option<Profit> {
    *certified = order.least(records, now, certified.map(|(_, price)| price));
    certified.map(|(_, price)| price)
}

impl<V: CachePayload, R: RankRule, O: VictimOrder<R>> RankedCache<V, R, O> {
    pub(crate) fn with_rule(capacity_bytes: u64, rule: R) -> Self {
        RankedCache {
            capacity_bytes,
            records: EntryStore::new(),
            cached: 0,
            order: O::new(),
            group_bytes: [0; MAX_WINDOW + 1],
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
        let (records, mut freed) = (&self.records, 0u64);
        self.order.ascend(records, now, true, |id| {
            victims.push(id);
            freed += records.by_id(id).map_or(0, |e| e.info.size_bytes);
            freed < needed
        });
        victims
    }

    /// Whether every group's bytes are the sum of the sizes of its cached
    /// sets, and their number the count.
    pub(crate) fn books_balance(&self) -> bool {
        let (mut groups, mut cached) = ([0; MAX_WINDOW + 1], 0);
        for (_, e) in self.records.iter().filter(|(_, e)| e.is_cached()) {
            groups[R::group(&e.info.state)] += e.info.size_bytes;
            cached += 1;
        }
        cached == self.cached && groups == self.group_bytes
    }

    /// Evicts the given sets, returning their keys.  Each leaves its record
    /// to the rule, which retains or drops it.
    fn evict(&mut self, victims: Vec<EntryId>, now: Timestamp) -> Vec<QueryKey> {
        let mut evicted = Vec::with_capacity(victims.len());
        for &id in &victims {
            let Some(record) = self.records.by_id_mut(id).filter(|e| e.is_cached()) else {
                continue;
            };
            record.residency = Residency::Pending;
            let info = &record.info;
            self.cached -= 1;
            self.certified.take_if(|(held, _)| *held == id);
            self.order.unfile(id);
            self.group_bytes[R::group(&info.state)] -= info.size_bytes;
            self.stats.record_eviction(info.size_bytes);
            evicted.push(info.key.clone());
            self.rule.denied(&mut self.records, id, now);
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
        let (order, certified) = (&mut self.order, &mut self.certified);
        (self.rule).purge(&mut self.records, |r| least(order, r, certified, now), now);
    }

    /// The set a decision is about: the history of its retained record
    /// `found`, if the rule takes it up, or a fresh state.
    fn newcomer(
        &mut self,
        found: Option<EntryId>,
        key: QueryKey,
        cost: ExecutionCost,
        size_bytes: u64,
        now: Timestamp,
    ) -> Newcomer<R::State> {
        let slot = self.rule.take_up(&mut self.records, found, now);
        let state = match slot.and_then(|slot| self.records.by_id(slot)) {
            Some(record) => record.info.state.clone(),
            None => self.rule.admit(cost, size_bytes, now),
        };
        let set = SetInfo {
            key,
            size_bytes,
            cost,
            state,
        };
        (set, slot)
    }

    /// Files the newcomer's set in its record, made if it has none yet.
    fn record(&mut self, (info, slot): Newcomer<R::State>) -> EntryId {
        let Some(slot) = slot else {
            let residency = Residency::Pending;
            return self.records.insert(Record { info, residency });
        };
        let record = self.records.by_id_mut(slot).expect("taken up");
        record.replace_info(info);
        slot
    }

    /// Hands a newcomer turned away to the rule in its record.
    fn deny(&mut self, newcomer: Newcomer<R::State>, now: Timestamp) {
        let slot = self.record(newcomer);
        self.rule.denied(&mut self.records, slot, now);
    }

    /// A newcomer the admission test turned away.
    fn refuse(&mut self, newcomer: Newcomer<R::State>, now: Timestamp) -> InsertOutcome {
        self.deny(newcomer, now);
        self.stats.record_admission(false);
        self.purge(now);
        InsertOutcome::Rejected(RejectReason::AdmissionTest)
    }

    /// What is known about the cached set for `key`, read without recording
    /// a reference.
    pub(super) fn info(&self, key: &QueryKey) -> Option<&SetInfo<R::State>> {
        let record = self.records.get(key).filter(|e| e.is_cached())?;
        Some(&record.info)
    }

    /// Removes the set for `key` without evicting it, returning its payload.
    pub(super) fn invalidate(&mut self, key: &QueryKey) -> Option<V> {
        let id = self.records.find(key)?;
        // A retained record is left alone: its set is not cached.
        if !self.records.by_id(id)?.is_cached() {
            return None;
        }
        let Record { info, residency } = self.records.remove(id)?;
        // Invalidation is not an eviction: the rule is not told, so whatever
        // it remembered about the set goes with the record.
        self.cached -= 1;
        self.certified.take_if(|(held, _)| *held == id);
        self.order.unfile(id);
        self.group_bytes[R::group(&info.state)] -= info.size_bytes;
        match residency {
            Residency::Cached(value) => Some(value),
            _ => None,
        }
    }
}

impl<V: CachePayload, R: RankRule, O: VictimOrder<R>> QueryCache<V> for RankedCache<V, R, O> {
    fn name(&self) -> &'static str {
        self.rule.name()
    }

    fn get(&mut self, key: &QueryKey, now: Timestamp) -> Option<&V> {
        let now = self.clock(now);
        let id = self.records.find(key)?;
        let Record { info, residency } = self.records.by_id_mut(id)?;
        let Residency::Cached(value) = residency else {
            // A retained history records the reference for the insert that
            // typically follows; it is still a miss.
            self.rule.touch(info, now);
            return None;
        };
        self.certified.take_if(|(held, _)| *held == id);
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

        let found = self.records.find(&key);
        if let Some(id) = found.filter(|&id| self.records.by_id(id).is_some_and(Record::is_cached))
        {
            self.certified.take_if(|(held, _)| *held == id);
            let entry = self.records.by_id_mut(id).expect("found above");
            let info = &mut entry.info;
            self.group_bytes[R::group(&info.state)] -= info.size_bytes;
            (entry.residency, info.cost, info.size_bytes) =
                (Residency::Cached(value), cost, size_bytes);
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
            if self.rule.keeps_oversized() {
                let newcomer = self.newcomer(found, key, cost, size_bytes, now);
                self.deny(newcomer, now);
            }
            self.stats.record_admission(false);
            return InsertOutcome::Rejected(RejectReason::TooLarge);
        }

        let (mut set, slot) = self.newcomer(found, key, cost, size_bytes, now);
        let free = self.capacity_bytes - self.used_bytes();
        let mut evicted = Vec::new();
        if free < size_bytes {
            let needed = size_bytes - free;
            let (order, cached) = (&self.order, self.cached);
            let floor = |groups| order.least_ratio(groups);
            if (self.rule).rejects_unseen(&set, needed, &self.group_bytes, cached, floor) {
                return self.refuse((set, slot), now);
            }
            let victims = self.select(needed, now);
            let records = &self.records;
            let chosen = victims.iter().filter_map(|&id| records.by_id(id));
            if !self.rule.admits(&set, chosen.map(|e| &e.info), now) {
                self.victims = victims;
                return self.refuse((set, slot), now);
            }
            evicted = self.evict(victims, now);
        }

        self.rule.settle(&mut set.state);
        self.group_bytes[R::group(&set.state)] += size_bytes;
        let id = self.record((set, slot));
        let entry = self.records.by_id_mut(id).expect("recorded above");
        entry.residency = Residency::Cached(value);
        self.cached += 1;
        self.order.file(&entry.info, id, now);
        self.stats.record_admission(true);
        self.purge(now);
        InsertOutcome::Admitted { evicted }
    }

    fn remove(&mut self, key: &QueryKey) -> bool {
        self.invalidate(key).is_some()
    }

    fn peek(&self, key: &QueryKey) -> Option<&V> {
        match &self.records.get(key)?.residency {
            Residency::Cached(value) => Some(value),
            _ => None,
        }
    }

    fn contains(&self, key: &QueryKey) -> bool {
        self.records.get(key).is_some_and(Record::is_cached)
    }

    fn len(&self) -> usize {
        self.cached
    }

    fn used_bytes(&self) -> u64 {
        self.group_bytes.iter().sum()
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn clear(&mut self) {
        self.records.clear();
        self.cached = 0;
        self.certified = None;
        self.order.clear();
        self.group_bytes = [0; MAX_WINDOW + 1];
        self.rule.cleared();
    }

    fn cached_keys(&self) -> Vec<QueryKey> {
        (self.records.iter())
            .filter(|(_, e)| e.is_cached())
            .map(|(_, e)| e.info.key.clone())
            .collect()
    }
}

#[cfg(test)]
impl<V: CachePayload, R: RankRule, O: VictimOrder<R>> RankedCache<V, R, O> {
    /// The price of the least-ranked cached set at `now`: what the §2.4
    /// purge compares retained histories against.
    pub(crate) fn min_cached_profit(&mut self, now: Timestamp) -> Option<Profit> {
        let now = self.clock(now);
        least(&mut self.order, &self.records, &mut self.certified, now)
    }

    /// The keys of the victims selected to free `needed` bytes at `now`, in
    /// eviction order.  Nothing is evicted.
    pub(crate) fn victim_keys(&mut self, needed: u64, now: Timestamp) -> Vec<QueryKey> {
        let now = self.clock(now);
        let victims = self.select(needed, now);
        let keys = victims
            .iter()
            .filter_map(|&id| self.records.by_id(id))
            .map(|e| e.info.key.clone())
            .collect();
        self.victims = victims;
        keys
    }

    /// What the rule retains about `key`'s set, if it retains its record.
    pub(crate) fn retained_info(&self, key: &QueryKey) -> Option<&SetInfo<R::State>> {
        let record = self.records.get(key).filter(|e| e.is_retained())?;
        Some(&record.info)
    }

    /// The keys of the retained records, in unspecified order.
    pub(crate) fn retained_keys(&self) -> Vec<QueryKey> {
        (self.records.iter())
            .filter(|(_, e)| e.is_retained())
            .map(|(_, e)| e.info.key.clone())
            .collect()
    }

    /// How many records the cache holds, cached or retained.
    pub(crate) fn records(&self) -> usize {
        self.records.len()
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

    /// Invalidation drops a cached set's record, history and all, and leaves
    /// a retained history alone, for the set's next admission to build on.
    /// `new` makes a cache with `K = 2`.
    pub fn invalidation_keeps_only_retained_histories<R, O>(
        new: impl Fn(u64) -> RankedCache<SizedPayload, R, O>,
    ) where
        R: RankRule<State = crate::history::ReferenceHistory>,
        O: VictimOrder<R>,
    {
        let mut cache = new(200);
        let reference = |cache: &mut RankedCache<SizedPayload, R, O>, name: &str, blocks, now| {
            let cost = ExecutionCost::from_blocks(blocks);
            match cache.get(&key(name), ts(now)) {
                Some(_) => InsertOutcome::already_cached(),
                None => cache.insert(key(name), SizedPayload::new(100), cost, ts(now)),
            }
        };
        // "low" has both samples, "a" one, and is evicted first by a far
        // more valuable set; "low" keeps the least cached profit under its
        // history's, which is retained.
        reference(&mut cache, "low", 1, 1);
        reference(&mut cache, "low", 1, 2);
        reference(&mut cache, "a", 10, 3);
        assert_eq!(reference(&mut cache, "b", 10_000, 4).evicted(), &[key("a")]);
        assert_eq!(cache.retained_keys(), [key("a")]);
        // Invalidating the cached "b" keeps no history of it.
        assert!(cache.remove(&key("b")));
        assert_eq!(cache.retained_keys(), [key("a")]);
        // "a" is not cached, so there is nothing to invalidate.
        assert!(!cache.remove(&key("a")));
        assert_eq!(cache.retained_keys(), [key("a")]);
        // Its history survived: its next admission has both samples.
        assert!(reference(&mut cache, "a", 10, 5).is_admitted());
        let samples = cache.info(&key("a")).map(|set| set.state.sample_count());
        assert_eq!(samples, Some(2));
        assert!(cache.retained_keys().is_empty());
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
