//! Retained reference information (paper §2.4).
//!
//! With `K > 1`, a freshly admitted retrieved set has incomplete reference
//! information and is therefore among the first eviction candidates.  If its
//! reference history were discarded together with the set, the history would
//! have to be rebuilt from scratch after every re-reference and the set could
//! never accumulate enough references to stay cached — a starvation problem
//! first described for LRU-K.
//!
//! WATCHMAN therefore *retains* the reference information (timestamps, size
//! and execution cost) of evicted and admission-rejected sets.  Instead of a
//! wall-clock timeout (the "Five Minute Rule"), retained entries are dropped
//! whenever their profit falls below the smallest profit among currently
//! cached sets: valuable histories (small, expensive, frequently referenced
//! sets) survive long, worthless ones disappear quickly, and the amount of
//! retained information automatically scales with the cache size.
//!
//! A retained history is its set's record, left in the cache's one store
//! ([`EntryStore`]) without a payload.  A `RetainedStore` keeps their
//! order, keyed by slot (what it reaches it checks is still retained), their
//! number and its bound.
//!
//! # The purge does not scan
//!
//! The rule runs after every admission and every rejection, and between
//! two decisions only the few histories *near the threshold* can have
//! crossed it.  The store therefore files every history in a decay index
//! (`crate::decay`; see there for the bound), and its `purge_below` ascends
//! it from the low-profit end, deciding every history it reaches with the
//! reference expression `profit(now) < threshold` and stopping where the
//! bound shows that nothing further can be below it.  Nor does it read every bucket: the
//! buckets are keyed by the time their bound can first cross the last
//! purge's threshold, and a purge at or under that threshold loads only the
//! buckets whose time has come (the index's "Due buckets").  A threshold
//! that rose — the least cached set was referenced or left — reads every
//! bucket and keys them all against itself.  Either way the same histories
//! are reached and dropped.  The hard-bound displacement reads the same low
//! end, in full.  A recorded reference only raises a profit, so it does
//! not touch the index: the stale position is still a valid bound and is
//! corrected when an ascent reaches it.  The bound holds because the
//! store's owner supplies monotone time: no `now` it passes is earlier than
//! one it passed before.
//!
//! LRU-K retains its histories the same way under the timeout scheme of
//! the original LRU-K design instead, and ranks them not at all
//! ([`RetainedOrder`] for `()`).

use std::fmt;

use crate::clock::Timestamp;
use crate::decay::DecayIndex;
use crate::history::ReferenceHistory;
use crate::index::{EntryId, EntryStore, Residency, SetInfo};
use crate::profit::Profit;

/// Reference metadata kept for a retrieved set that is not currently
/// cached: the set's statistics with its last (up to) K reference times.
pub type RetainedInfo = SetInfo<ReferenceHistory>;

impl RetainedInfo {
    /// The profit of the retrieved set this information describes, evaluated
    /// at time `now` using the maximal available number of reference samples
    /// (paper §2.4: fewer than K samples are used as-is).
    pub fn profit(&self, now: Timestamp) -> Profit {
        Profit::of_history(&self.state, self.cost, self.size_bytes, now)
    }
}

/// The records of a cache whose sets keep their reference history.
pub(crate) type Histories<V> = EntryStore<V, ReferenceHistory>;

/// How a `RetainedStore` finds its least profitable histories.  By
/// default it finds none: the order of a store whose histories expire by
/// time, never by profit (LRU-K's), which refuses newcomers when full.
pub trait RetainedOrder: Clone + fmt::Debug + Default {
    /// Files the history in `slot`, just retained.
    fn file(&mut self, _info: &RetainedInfo, _slot: EntryId) {}

    /// Hands the retained records to `take` in ascending
    /// `(profit, signature)` order at `now`, until it returns `false`.  With
    /// `below`, the order need only be exact for histories whose profit is
    /// under it.
    fn ascend<V>(
        &mut self,
        _records: &Histories<V>,
        _now: Timestamp,
        _below: Option<Profit>,
        _take: impl FnMut(EntryId, Profit) -> bool,
    ) {
    }
}

impl RetainedOrder for DecayIndex {
    fn file(&mut self, info: &RetainedInfo, slot: EntryId) {
        DecayIndex::file(self, info, slot);
    }

    fn ascend<V>(
        &mut self,
        records: &Histories<V>,
        now: Timestamp,
        below: Option<Profit>,
        take: impl FnMut(EntryId, Profit) -> bool,
    ) {
        // A slot cached since it was filed is a dead item; histories of
        // equal profit fall to their signature.
        let probe = |id| {
            let info = &records.by_id(id).filter(|r| r.is_retained())?.info;
            Some((info, info.key.signature().value()))
        };
        // A purge's threshold cuts off every bound at or above it, so it
        // reads only the due buckets whenever it is at or under the key.
        DecayIndex::ascend(self, now, false, below, below, probe, take);
        if let Some(threshold) = below {
            self.key(threshold);
        }
    }
}

impl RetainedOrder for () {}

/// The order, the number and the bound of a cache's retained records.
#[derive(Debug, Clone, Default)]
pub(crate) struct RetainedStore<X: RetainedOrder = DecayIndex> {
    order: X,
    /// How many records are retained.
    len: usize,
    /// What a purge is about to drop, kept for its allocation.
    doomed: Vec<EntryId>,
    /// Hard safety bound on the number of retained entries; the profit-based
    /// policy normally keeps the table far smaller, but a bound protects
    /// against pathological workloads where the cache is empty (min profit is
    /// undefined) for long stretches.
    max_entries: usize,
}

impl<X: RetainedOrder> RetainedStore<X> {
    /// Creates a store bounded to `max_entries` retained histories.
    pub(crate) fn new(max_entries: usize) -> Self {
        RetainedStore {
            max_entries: max_entries.max(1),
            ..Self::default()
        }
    }

    /// Number of retained histories.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether the store holds as many histories as its bound allows.
    pub(crate) fn is_full(&self) -> bool {
        self.len >= self.max_entries
    }

    /// Takes up the record in `slot`, if retained, for a set about to be
    /// decided on: it leaves the store, and the reference is recorded on it
    /// once (the `get` that missed recorded it already, and counting it
    /// twice would inflate the λ estimate of Eq. 3).
    pub(crate) fn take_up<V>(
        &mut self,
        records: &mut Histories<V>,
        slot: Option<EntryId>,
        now: Timestamp,
    ) -> Option<EntryId> {
        let record = records.by_id_mut(slot?).filter(|r| r.is_retained())?;
        record.residency = Residency::Pending;
        record.info.state.record_once(now);
        self.len -= 1;
        slot
    }

    /// Retains the record in `slot`, which is in neither the cache's order
    /// nor this one, as it now is.  If the store is at its hard bound, the
    /// record with the lowest profit is dropped first (ties broken by key
    /// signature, so displacement is deterministic), unless the newcomer is
    /// worth less: it is then dropped instead, and `false` returned.
    pub(crate) fn retain<V>(
        &mut self,
        records: &mut Histories<V>,
        slot: EntryId,
        now: Timestamp,
    ) -> bool {
        if self.is_full() {
            let mut worst = None;
            self.order.ascend(records, now, None, |id, profit| {
                worst = Some((id, profit));
                false
            });
            let worth = records.by_id(slot).map(|r| r.info.profit(now));
            let Some((id, _)) = worst.filter(|&(_, least)| worth >= Some(least)) else {
                records.remove(slot);
                return false;
            };
            self.forget(records, id);
        }
        let record = records.by_id_mut(slot).expect("a denied set's record");
        record.residency = Residency::Retained;
        self.order.file(&record.info, slot);
        self.len += 1;
        true
    }

    /// Drops the retained record in `slot`.
    pub(crate) fn forget<V>(&mut self, records: &mut Histories<V>, slot: EntryId) {
        records.remove(slot);
        self.len -= 1;
    }

    /// Applies the paper's retention policy: drop every retained record whose
    /// profit is smaller than `min_cached_profit`, the least profit among all
    /// currently cached retrieved sets.
    ///
    /// Returns the number of records dropped.  When the cache is empty the
    /// caller should pass [`Profit::ZERO`], which retains everything (subject
    /// to the hard bound).
    pub(crate) fn purge_below<V>(
        &mut self,
        records: &mut Histories<V>,
        min_cached_profit: Profit,
        now: Timestamp,
    ) -> usize {
        if min_cached_profit <= Profit::ZERO {
            return 0;
        }
        let doomed = &mut self.doomed;
        self.order
            .ascend(records, now, Some(min_cached_profit), |id, profit| {
                let drop = profit < min_cached_profit;
                if drop {
                    doomed.push(id);
                }
                drop
            });
        let dropped = self.doomed.len();
        for id in self.doomed.drain(..) {
            records.remove(id);
        }
        self.len -= dropped;
        dropped
    }

    /// Forgets every retained record; the records themselves are cleared by
    /// their owner.
    pub(crate) fn clear(&mut self) {
        *self = Self::new(self.max_entries);
    }
}

impl RetainedStore {
    /// Exact profit evaluations the store's ascents have asked for.
    #[cfg(test)]
    pub(crate) fn evaluations(&self) -> u64 {
        self.order.evaluations()
    }

    /// Bucket fronts the store's ascents have loaded.
    #[cfg(test)]
    pub(crate) fn fronts_loaded(&self) -> u64 {
        self.order.fronts_loaded(false)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::index::Record;
    use crate::key::QueryKey;
    use crate::value::ExecutionCost;

    /// A store over records of its own, driven as a cache drives it: a
    /// denied set is retained, a newcomer takes its history up and is then
    /// cached, and a miss records its reference.  Cached records stay, so
    /// the store's order meets slots that are no longer retained.
    #[derive(Debug, Clone)]
    pub(crate) struct Held<X: RetainedOrder = DecayIndex> {
        pub(crate) records: Histories<()>,
        pub(crate) store: RetainedStore<X>,
    }

    impl<X: RetainedOrder> Held<X> {
        pub(crate) fn new(max_entries: usize) -> Self {
            Held {
                records: EntryStore::new(),
                store: RetainedStore::new(max_entries),
            }
        }

        /// Retains `info` as a denied set: in its key's record, taken up
        /// first if retained, or in a new one.  Returns whether it is kept.
        pub(crate) fn retain(&mut self, info: RetainedInfo, now: Timestamp) -> bool {
            let slot = match self.records.find(&info.key) {
                Some(slot) => {
                    self.store.take_up(&mut self.records, Some(slot), now);
                    let record = self.records.by_id_mut(slot).expect("found");
                    record.replace_info(info);
                    record.residency = Residency::Pending;
                    slot
                }
                None => self.records.insert(Record {
                    info,
                    residency: Residency::Pending,
                }),
            };
            self.store.retain(&mut self.records, slot, now)
        }

        /// Takes the history for `key` up and caches its set, returning the
        /// history.
        pub(crate) fn take(&mut self, key: &QueryKey, now: Timestamp) -> Option<ReferenceHistory> {
            let slot = self.records.find(key).filter(|&slot| self.held(slot))?;
            self.store.take_up(&mut self.records, Some(slot), now);
            let record = self.records.by_id_mut(slot)?;
            record.residency = Residency::Cached(());
            Some(record.info.state.clone())
        }

        /// Records a miss on `key`'s retained history, if it has one.
        pub(crate) fn record(&mut self, key: &QueryKey, now: Timestamp) -> bool {
            let Some(record) = self.records.get_mut(key).filter(|r| r.is_retained()) else {
                return false;
            };
            record.info.state.record_once(now);
            true
        }

        pub(crate) fn purge_below(&mut self, threshold: Profit, now: Timestamp) -> usize {
            self.store.purge_below(&mut self.records, threshold, now)
        }

        fn held(&self, slot: EntryId) -> bool {
            self.records.by_id(slot).is_some_and(|r| r.is_retained())
        }

        pub(crate) fn get(&self, key: &QueryKey) -> Option<&RetainedInfo> {
            let slot = self.records.find(key).filter(|&slot| self.held(slot))?;
            Some(&self.records.by_id(slot)?.info)
        }

        pub(crate) fn contains(&self, key: &QueryKey) -> bool {
            self.get(key).is_some()
        }

        /// The retained histories, in unspecified order; their number is
        /// the store's.
        pub(crate) fn iter(&self) -> impl Iterator<Item = &RetainedInfo> {
            let held: Vec<&RetainedInfo> = (self.records.iter())
                .filter(|(_, r)| r.is_retained())
                .map(|(_, r)| &r.info)
                .collect();
            assert_eq!(held.len(), self.store.len(), "the count drifted");
            held.into_iter()
        }

        /// The keys retained, sorted.
        pub(crate) fn keys(&self) -> Vec<&str> {
            let mut keys: Vec<&str> = self.iter().map(|info| info.key.text()).collect();
            keys.sort_unstable();
            keys
        }

        pub(crate) fn len(&self) -> usize {
            self.iter().count()
        }
    }

    fn store(max_entries: usize) -> Held {
        Held::new(max_entries)
    }

    fn ts(us: u64) -> Timestamp {
        Timestamp::from_micros(us)
    }

    fn info(name: &str, size: u64, cost: f64, refs: &[u64], k: usize) -> RetainedInfo {
        let mut history = ReferenceHistory::new(k);
        for &r in refs {
            history.record(ts(r));
        }
        RetainedInfo {
            key: QueryKey::new(name.to_owned()),
            size_bytes: size,
            cost: ExecutionCost::from_block_reads(cost),
            state: history,
        }
    }

    #[test]
    fn record_reference_updates_existing_entry_only() {
        let mut store = store(16);
        store.retain(info("q1", 100, 50.0, &[10], 2), ts(10));
        assert!(store.record(&QueryKey::new("q1"), ts(20)));
        assert!(!store.record(&QueryKey::new("q2"), ts(20)));
        let samples = |store: &Held| {
            store
                .get(&QueryKey::new("q1"))
                .unwrap()
                .state
                .sample_count()
        };
        assert_eq!(samples(&store), 2);
        // A cached set's record is not a retained one.
        store.take(&QueryKey::new("q1"), ts(30));
        assert!(!store.record(&QueryKey::new("q1"), ts(40)));
    }

    #[test]
    fn duplicate_timestamp_references_are_recorded_once() {
        // A single-flight waiter retrying after an abandoned flight re-enters
        // the lookup path with the same logical timestamp; the retained
        // history must not count that logical reference twice.
        let mut store = store(16);
        store.retain(info("q1", 100, 50.0, &[10], 4), ts(10));
        assert!(store.record(&QueryKey::new("q1"), ts(20)));
        assert!(store.record(&QueryKey::new("q1"), ts(20)));
        let samples = |store: &Held| {
            store
                .get(&QueryKey::new("q1"))
                .unwrap()
                .state
                .sample_count()
        };
        assert_eq!(
            samples(&store),
            2,
            "the second same-timestamp record must be a no-op"
        );
        // A later reference still counts.
        assert!(store.record(&QueryKey::new("q1"), ts(30)));
        assert_eq!(samples(&store), 3);
        // Nor does the insert after the miss count it again.
        let taken = store.take(&QueryKey::new("q1"), ts(30)).unwrap();
        assert_eq!(taken.sample_count(), 3);
    }

    #[test]
    fn take_removes_the_entry() {
        let mut store = store(16);
        store.retain(info("q1", 100, 50.0, &[10], 2), ts(10));
        let taken = store.take(&QueryKey::new("q1"), ts(20)).unwrap();
        assert_eq!(
            taken.sample_count(),
            2,
            "the newcomer's reference is recorded"
        );
        assert_eq!(store.len(), 0);
        assert_eq!(store.store.len(), 0);
        assert!(store.take(&QueryKey::new("q1"), ts(20)).is_none());
        // The record stays where it was, cached.
        assert_eq!(store.records.len(), 1);
    }

    #[test]
    fn purge_drops_entries_below_min_cached_profit() {
        let mut store = store(16);
        // Valuable: small, expensive, recently referenced twice.
        store.retain(info("valuable", 10, 1_000.0, &[90, 100], 2), ts(100));
        // Worthless: huge, cheap, referenced once long ago.
        store.retain(info("worthless", 1_000_000, 1.0, &[1], 2), ts(100));
        let now = ts(200);
        let threshold = store.get(&QueryKey::new("valuable")).unwrap().profit(now);
        // Purge with a threshold equal to the valuable entry's profit: the
        // valuable entry survives (>=), the worthless one is dropped.
        let dropped = store.purge_below(threshold, now);
        assert_eq!(dropped, 1);
        assert!(store.contains(&QueryKey::new("valuable")));
        assert!(!store.contains(&QueryKey::new("worthless")));
        assert_eq!(store.records.len(), 1);
    }

    #[test]
    fn purge_with_zero_threshold_keeps_everything() {
        let mut store = store(16);
        store.retain(info("a", 10, 10.0, &[5], 2), ts(5));
        store.retain(info("b", 10, 10.0, &[6], 2), ts(6));
        assert_eq!(store.purge_below(Profit::ZERO, ts(100)), 0);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn hard_bound_displaces_lowest_profit_entry() {
        let mut store = store(2);
        store.retain(info("low", 1_000_000, 1.0, &[1], 2), ts(1));
        store.retain(info("mid", 100, 100.0, &[2], 2), ts(2));
        // Store is full; inserting a high-profit entry displaces "low".
        assert!(store.retain(info("high", 10, 10_000.0, &[3], 2), ts(3)));
        assert_eq!(store.len(), 2);
        assert!(store.contains(&QueryKey::new("high")));
        assert!(store.contains(&QueryKey::new("mid")));
        assert!(!store.contains(&QueryKey::new("low")));
        assert_eq!(store.records.len(), 2);
    }

    #[test]
    fn hard_bound_rejects_entry_worse_than_all_retained() {
        let mut store = store(2);
        store.retain(info("a", 10, 1_000.0, &[1, 2], 2), ts(2));
        store.retain(info("b", 10, 1_000.0, &[1, 2], 2), ts(2));
        assert!(!store.retain(info("junk", 1_000_000, 1.0, &[3], 2), ts(3)));
        assert_eq!(store.len(), 2);
        assert!(!store.contains(&QueryKey::new("junk")));
        assert_eq!(store.records.len(), 2, "the refused record is dropped");
    }

    #[test]
    fn reinsert_same_key_replaces_in_place_even_when_full() {
        let mut store = store(1);
        store.retain(info("a", 10, 10.0, &[1], 2), ts(1));
        let slot = store.records.find(&QueryKey::new("a"));
        store.retain(info("a", 20, 10.0, &[2], 2), ts(2));
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(&QueryKey::new("a")).unwrap().size_bytes, 20);
        assert_eq!(store.records.find(&QueryKey::new("a")), slot);
    }

    #[test]
    fn profit_of_entry_without_references_is_zero() {
        let i = info("empty", 100, 50.0, &[], 2);
        assert_eq!(i.profit(ts(10)), Profit::ZERO);
    }

    #[test]
    fn clear_and_iter() {
        let mut store = store(8);
        store.retain(info("a", 10, 10.0, &[1], 2), ts(1));
        store.retain(info("b", 10, 10.0, &[1], 2), ts(1));
        store.retain(info("c", 10, 10.0, &[1], 2), ts(1));
        store.take(&QueryKey::new("c"), ts(2));
        assert_eq!(store.keys(), ["a", "b"]);
        store.store.clear();
        store.records.clear();
        assert_eq!(store.store.len(), 0);
        assert_eq!(store.iter().count(), 0);
    }

    /// A deterministic stream of sets with weights spread over four decades.
    fn churn(i: u64, now: u64) -> RetainedInfo {
        let mixed = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
        let size = 64 + mixed % 4_000;
        let cost = 1.0 + (mixed % 9_973) as f64 * (1 + mixed % 7) as f64;
        info(&format!("churn-{i}"), size, cost, &[now], 4)
    }

    #[test]
    fn a_purge_evaluates_what_it_drops_and_a_band_not_the_store() {
        // One set is rejected every 100 µs; a set of weight w stays until its
        // profit w/age falls under the threshold.  The threshold is set so
        // that about 10 000 histories are held in steady state.
        let mut store = store(1 << 20);
        let threshold = Profit::new(1.8e-5);
        let mut now = 0;
        let step = |store: &mut Held, i: u64, now: &mut u64| {
            *now += 100;
            store.retain(churn(i, *now), ts(*now));
            store.purge_below(threshold, ts(*now))
        };
        for i in 0..60_000 {
            step(&mut store, i, &mut now);
        }
        assert!(
            (9_000..12_000).contains(&store.store.len()),
            "steady state holds {} histories",
            store.store.len()
        );
        let mut dropped_total = 0;
        for i in 60_000..62_000 {
            let before = store.store.evaluations();
            let dropped = step(&mut store, i, &mut now);
            let evaluated = (store.store.evaluations() - before) as usize;
            dropped_total += dropped;
            // What it drops, the one it stops at, and the few whose anchors
            // ran out: far inside one evaluation per non-empty bucket.
            assert!(
                evaluated <= dropped + 16 && 16 < store.store.order.occupied_buckets(),
                "a purge that dropped {dropped} of {} histories evaluated {evaluated}",
                store.store.len()
            );
        }
        assert!(dropped_total > 1_000, "the steady state must keep purging");
    }

    #[test]
    fn a_risen_threshold_reads_every_bucket() {
        use crate::policy::differential::Scan;
        let mut store = store(1 << 12);
        let mut scan: Held<Scan> = Held::new(1 << 12);
        for i in 0..400 {
            store.retain(churn(i, 100 * i), ts(100 * i));
            scan.retain(churn(i, 100 * i), ts(100 * i));
        }
        let now = ts(40_000);
        let mut held: Vec<Profit> = scan.iter().map(|info| info.profit(now)).collect();
        held.sort();
        let (least, risen) = (held[40], held[100]);
        let purge = |store: &mut Held, scan: &mut Held<Scan>, threshold| {
            let occupied = store.store.order.occupied_buckets();
            let before = store.store.fronts_loaded();
            let dropped = store.purge_below(threshold, now);
            assert_eq!(
                dropped,
                scan.purge_below(threshold, now),
                "purge at {threshold}"
            );
            (store.store.fronts_loaded() - before, occupied as u64)
        };
        purge(&mut store, &mut scan, least);
        // The least cached set was evicted, and the threshold rose past the
        // one the buckets are keyed against: every front is read.
        let (loaded, occupied) = purge(&mut store, &mut scan, risen);
        assert_eq!(loaded, occupied);
        // At the same threshold again, only the due buckets are: first those
        // holding what the last purge dropped, then the one it stops at.
        let (loaded, occupied) = purge(&mut store, &mut scan, risen);
        assert!(loaded < occupied, "{loaded} of {occupied} fronts loaded");
        let (loaded, _) = purge(&mut store, &mut scan, risen);
        assert_eq!(loaded, 1);
    }

    #[test]
    fn hard_bound_displacement_matches_the_scan() {
        use crate::policy::differential::Scan;
        // Filled to the bound with sets that tie in profit in fours (same
        // size, cost and reference): ties fall to the signature.
        let bound = 64;
        let mut store = store(bound);
        let mut scan: Held<Scan> = Held::new(bound);
        let set = |i: u64| info(&format!("tie-{i}"), 100, (1 + i / 4) as f64, &[10], 2);
        for i in 0..bound as u64 {
            store.retain(set(i), ts(20));
            scan.retain(set(i), ts(20));
        }
        // Newcomers from worthless to more valuable than anything held: each
        // displaces the scan's victim, or is dropped when the scan drops it.
        for i in 0..3 * bound as u64 {
            let newcomer = info(&format!("new-{i}"), 100, (i / 3) as f64, &[10 + i], 2);
            store.retain(newcomer.clone(), ts(30 + i));
            scan.retain(newcomer, ts(30 + i));
            assert_eq!(
                store.keys(),
                scan.keys(),
                "displacement {i} diverged from the scan"
            );
        }
        assert_eq!(store.len(), bound);
    }
}
