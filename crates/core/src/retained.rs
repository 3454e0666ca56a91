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
//! and execution cost) of evicted and admission-rejected sets in a side
//! table.  Instead of a wall-clock timeout (the "Five Minute Rule"), retained
//! entries are dropped whenever their profit falls below the smallest profit
//! among currently cached sets: valuable histories (small, expensive,
//! frequently referenced sets) survive long, worthless ones disappear
//! quickly, and the amount of retained information automatically scales with
//! the cache size.
//!
//! # The purge does not scan
//!
//! That rule runs after every admission and every rejection, and between
//! two decisions only the few histories *near the threshold* can have
//! crossed it.  The store therefore files every history in a decay index
//! (`crate::decay`; see there for the bound) and
//! [`purge_below`](RetainedStore::purge_below) ascends it from the
//! low-profit end, deciding every history it reaches with the reference
//! expression `profit(now) < threshold` and stopping where the bound shows
//! that nothing further can be below it.  Nor does it read every bucket: the
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
//! LRU-K keeps its histories in the same store under the timeout scheme of
//! the original LRU-K design instead, and ranks them not at all
//! ([`RetainedOrder`] for `()`).

use std::fmt;

use crate::clock::Timestamp;
use crate::decay::DecayIndex;
use crate::history::ReferenceHistory;
use crate::index::{EntryId, EntryStore, SetInfo};
use crate::key::QueryKey;
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

    /// Approximate number of bytes of cache metadata this entry occupies.
    pub fn metadata_bytes(&self) -> u64 {
        self.key.metadata_bytes() + self.state.metadata_bytes() + 16
    }
}

/// How a [`RetainedStore`] finds its least profitable histories.
pub trait RetainedOrder: Clone + fmt::Debug + Default {
    /// Files the history in `slot`, just inserted or replaced.
    fn file(&mut self, info: &RetainedInfo, slot: EntryId);

    /// Hands the held histories to `take` in ascending `(profit, signature)`
    /// order at `now`, until it returns `false`.  With `below`, the order
    /// need only be exact for histories whose profit is under it.
    fn ascend(
        &mut self,
        entries: &EntryStore<RetainedInfo>,
        now: Timestamp,
        below: Option<Profit>,
        take: impl FnMut(EntryId, Profit) -> bool,
    );

    /// Forgets every history.
    fn clear(&mut self);
}

impl RetainedOrder for DecayIndex {
    fn file(&mut self, info: &RetainedInfo, slot: EntryId) {
        DecayIndex::file(self, info, slot);
    }

    fn ascend(
        &mut self,
        entries: &EntryStore<RetainedInfo>,
        now: Timestamp,
        below: Option<Profit>,
        take: impl FnMut(EntryId, Profit) -> bool,
    ) {
        // Histories of equal profit fall to their signature.
        let probe = |id| {
            let info: &RetainedInfo = entries.by_id(id)?;
            Some((info, info.key.signature().value()))
        };
        // A purge's threshold cuts off every bound at or above it, so it
        // reads only the due buckets whenever it is at or under the key.
        DecayIndex::ascend(self, now, false, below, below, probe, take);
        if let Some(threshold) = below {
            self.key(threshold);
        }
    }

    fn clear(&mut self) {
        DecayIndex::clear(self);
    }
}

/// The order of a store whose histories expire by time, never by profit
/// (LRU-K's): nothing is ranked, so a full store refuses newcomers.
impl RetainedOrder for () {
    fn file(&mut self, _: &RetainedInfo, _: EntryId) {}

    fn ascend(
        &mut self,
        _: &EntryStore<RetainedInfo>,
        _: Timestamp,
        _: Option<Profit>,
        _: impl FnMut(EntryId, Profit) -> bool,
    ) {
    }

    fn clear(&mut self) {}
}

/// The side table of retained reference information.
#[derive(Debug, Clone, Default)]
pub struct RetainedStore<X: RetainedOrder = DecayIndex> {
    entries: EntryStore<RetainedInfo>,
    index: X,
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
    pub fn new(max_entries: usize) -> Self {
        RetainedStore {
            max_entries: max_entries.max(1),
            ..Self::default()
        }
    }

    /// Number of retained histories.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the store holds as many histories as its bound allows.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.max_entries
    }

    /// Total metadata bytes held by the store.
    pub fn metadata_bytes(&self) -> u64 {
        self.iter().map(RetainedInfo::metadata_bytes).sum()
    }

    /// Returns the retained information for `key`, if any.
    pub fn get(&self, key: &QueryKey) -> Option<&RetainedInfo> {
        self.entries.get(key)
    }

    /// Whether information for `key` is retained.
    pub fn contains(&self, key: &QueryKey) -> bool {
        self.entries.contains(key)
    }

    /// Records a reference to a non-cached retrieved set, if its information
    /// is retained.  Returns `true` if information for the key is retained.
    ///
    /// A reference carrying the same timestamp as the most recent recorded
    /// one is **not** recorded again: one logical reference may reach the
    /// cache twice at the same logical time (a single-flight waiter retrying
    /// after an abandoned flight re-enters the lookup path), and double
    /// counting it would inflate the λ estimate of Eq. 3.
    pub fn record_reference(&mut self, key: &QueryKey, now: Timestamp) -> bool {
        match self.entries.get_mut(key) {
            Some(info) => {
                info.state.record_once(now);
                true
            }
            None => false,
        }
    }

    /// Inserts or replaces retained information, returning the slot it was
    /// filed in.  If the store is at its hard bound, the entry with the
    /// lowest profit is dropped first (ties broken by key signature, so
    /// displacement is deterministic rather than following hash-map
    /// iteration order), unless the newcomer is worth less: it is then
    /// dropped instead, and `None` returned.
    pub fn insert(&mut self, info: RetainedInfo, now: Timestamp) -> Option<EntryId> {
        if let Some(id) = self.entries.find(&info.key) {
            // A new size or cost can lower the profit: re-file at once.
            self.index.file(&info, id);
            *self.entries.by_id_mut(id).expect("found above") = info;
            return Some(id);
        }
        if self.is_full() {
            let (entries, mut worst) = (&self.entries, None);
            self.index.ascend(entries, now, None, |id, profit| {
                worst = Some((id, profit));
                false
            });
            let (id, profit) = worst?;
            if info.profit(now) < profit {
                return None;
            }
            self.entries.remove(id);
        }
        let id = self.entries.insert(info);
        self.index
            .file(self.entries.by_id(id).expect("just inserted"), id);
        Some(id)
    }

    /// Removes and returns the retained information for `key`, typically
    /// because the retrieved set is being (re-)admitted to the cache.
    pub fn take(&mut self, key: &QueryKey) -> Option<RetainedInfo> {
        self.entries.remove_by_key(key)
    }

    /// Whether a history is filed in `slot`.
    pub(crate) fn holds(&self, slot: EntryId) -> bool {
        self.entries.by_id(slot).is_some()
    }

    /// Drops the history filed in `slot`, if any.
    pub(crate) fn remove(&mut self, slot: EntryId) {
        self.entries.remove(slot);
    }

    /// Applies the paper's retention policy: drop every retained entry whose
    /// profit is smaller than `min_cached_profit`, the least profit among all
    /// currently cached retrieved sets.
    ///
    /// Returns the number of entries dropped.  When the cache is empty the
    /// caller should pass [`Profit::ZERO`], which retains everything (subject
    /// to the hard bound).
    pub fn purge_below(&mut self, min_cached_profit: Profit, now: Timestamp) -> usize {
        let before = self.entries.len();
        if min_cached_profit > Profit::ZERO {
            let (entries, doomed) = (&self.entries, &mut self.doomed);
            self.index
                .ascend(entries, now, Some(min_cached_profit), |id, profit| {
                    let drop = profit < min_cached_profit;
                    if drop {
                        doomed.push(id);
                    }
                    drop
                });
            for id in self.doomed.drain(..) {
                self.entries.remove(id);
            }
        }
        before - self.entries.len()
    }

    /// Removes every retained entry.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
    }

    /// Iterates over retained entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &RetainedInfo> {
        self.entries.iter().map(|(_, info)| info)
    }
}

impl RetainedStore {
    /// Exact profit evaluations the store's ascents have asked for.
    #[cfg(test)]
    pub(crate) fn evaluations(&self) -> u64 {
        self.index.evaluations()
    }

    /// Bucket fronts the store's ascents have loaded.
    #[cfg(test)]
    pub(crate) fn fronts_loaded(&self) -> u64 {
        self.index.fronts_loaded(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ExecutionCost;

    fn store(max_entries: usize) -> RetainedStore {
        RetainedStore::new(max_entries)
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
        store.insert(info("q1", 100, 50.0, &[10], 2), ts(10));
        assert!(store.record_reference(&QueryKey::new("q1"), ts(20)));
        assert!(!store.record_reference(&QueryKey::new("q2"), ts(20)));
        assert_eq!(
            store
                .get(&QueryKey::new("q1"))
                .unwrap()
                .state
                .sample_count(),
            2
        );
    }

    #[test]
    fn duplicate_timestamp_references_are_recorded_once() {
        // A single-flight waiter retrying after an abandoned flight re-enters
        // the lookup path with the same logical timestamp; the retained
        // history must not count that logical reference twice.
        let mut store = store(16);
        store.insert(info("q1", 100, 50.0, &[10], 4), ts(10));
        assert!(store.record_reference(&QueryKey::new("q1"), ts(20)));
        assert!(store.record_reference(&QueryKey::new("q1"), ts(20)));
        assert_eq!(
            store
                .get(&QueryKey::new("q1"))
                .unwrap()
                .state
                .sample_count(),
            2,
            "the second same-timestamp record must be a no-op"
        );
        // A later reference still counts.
        assert!(store.record_reference(&QueryKey::new("q1"), ts(30)));
        assert_eq!(
            store
                .get(&QueryKey::new("q1"))
                .unwrap()
                .state
                .sample_count(),
            3
        );
    }

    #[test]
    fn take_removes_the_entry() {
        let mut store = store(16);
        store.insert(info("q1", 100, 50.0, &[10], 2), ts(10));
        let taken = store.take(&QueryKey::new("q1")).unwrap();
        assert_eq!(taken.size_bytes, 100);
        assert!(store.is_empty());
        assert!(store.take(&QueryKey::new("q1")).is_none());
    }

    #[test]
    fn purge_drops_entries_below_min_cached_profit() {
        let mut store = store(16);
        // Valuable: small, expensive, recently referenced twice.
        store.insert(info("valuable", 10, 1_000.0, &[90, 100], 2), ts(100));
        // Worthless: huge, cheap, referenced once long ago.
        store.insert(info("worthless", 1_000_000, 1.0, &[1], 2), ts(100));
        let now = ts(200);
        let threshold = store.get(&QueryKey::new("valuable")).unwrap().profit(now);
        // Purge with a threshold equal to the valuable entry's profit: the
        // valuable entry survives (>=), the worthless one is dropped.
        let dropped = store.purge_below(threshold, now);
        assert_eq!(dropped, 1);
        assert!(store.contains(&QueryKey::new("valuable")));
        assert!(!store.contains(&QueryKey::new("worthless")));
    }

    #[test]
    fn purge_with_zero_threshold_keeps_everything() {
        let mut store = store(16);
        store.insert(info("a", 10, 10.0, &[5], 2), ts(5));
        store.insert(info("b", 10, 10.0, &[6], 2), ts(6));
        assert_eq!(store.purge_below(Profit::ZERO, ts(100)), 0);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn hard_bound_displaces_lowest_profit_entry() {
        let mut store = store(2);
        store.insert(info("low", 1_000_000, 1.0, &[1], 2), ts(1));
        store.insert(info("mid", 100, 100.0, &[2], 2), ts(2));
        // Store is full; inserting a high-profit entry displaces "low".
        store.insert(info("high", 10, 10_000.0, &[3], 2), ts(3));
        assert_eq!(store.len(), 2);
        assert!(store.contains(&QueryKey::new("high")));
        assert!(store.contains(&QueryKey::new("mid")));
        assert!(!store.contains(&QueryKey::new("low")));
    }

    #[test]
    fn hard_bound_rejects_entry_worse_than_all_retained() {
        let mut store = store(2);
        store.insert(info("a", 10, 1_000.0, &[1, 2], 2), ts(2));
        store.insert(info("b", 10, 1_000.0, &[1, 2], 2), ts(2));
        store.insert(info("junk", 1_000_000, 1.0, &[3], 2), ts(3));
        assert_eq!(store.len(), 2);
        assert!(!store.contains(&QueryKey::new("junk")));
    }

    #[test]
    fn reinsert_same_key_replaces_in_place_even_when_full() {
        let mut store = store(1);
        store.insert(info("a", 10, 10.0, &[1], 2), ts(1));
        store.insert(info("a", 20, 10.0, &[2], 2), ts(2));
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(&QueryKey::new("a")).unwrap().size_bytes, 20);
    }

    #[test]
    fn profit_of_entry_without_references_is_zero() {
        let i = info("empty", 100, 50.0, &[], 2);
        assert_eq!(i.profit(ts(10)), Profit::ZERO);
    }

    #[test]
    fn metadata_bytes_is_positive_and_additive() {
        let mut store = store(8);
        assert_eq!(store.metadata_bytes(), 0);
        store.insert(info("a", 10, 10.0, &[1], 2), ts(1));
        let one = store.metadata_bytes();
        store.insert(info("bb", 10, 10.0, &[1, 2], 2), ts(2));
        assert!(store.metadata_bytes() > one);
    }

    #[test]
    fn clear_and_iter() {
        let mut store = store(8);
        store.insert(info("a", 10, 10.0, &[1], 2), ts(1));
        store.insert(info("b", 10, 10.0, &[1], 2), ts(1));
        assert_eq!(store.iter().count(), 2);
        store.clear();
        assert!(store.is_empty());
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
        let step = |store: &mut RetainedStore, i: u64, now: &mut u64| {
            *now += 100;
            store.insert(churn(i, *now), ts(*now));
            store.purge_below(threshold, ts(*now))
        };
        for i in 0..60_000 {
            step(&mut store, i, &mut now);
        }
        assert!(
            (9_000..12_000).contains(&store.len()),
            "steady state holds {} histories",
            store.len()
        );
        let mut dropped_total = 0;
        for i in 60_000..62_000 {
            let before = store.index.evaluations();
            let dropped = step(&mut store, i, &mut now);
            let evaluated = (store.index.evaluations() - before) as usize;
            dropped_total += dropped;
            // What it drops, the one it stops at, and the few whose anchors
            // ran out: far inside one evaluation per non-empty bucket.
            assert!(
                evaluated <= dropped + 16 && 16 < store.index.occupied_buckets(),
                "a purge that dropped {dropped} of {} histories evaluated {evaluated}",
                store.len()
            );
        }
        assert!(dropped_total > 1_000, "the steady state must keep purging");
    }

    #[test]
    fn a_risen_threshold_reads_every_bucket() {
        use crate::policy::differential::Scan;
        let mut store = store(1 << 12);
        let mut scan: RetainedStore<Scan> = RetainedStore::new(1 << 12);
        for i in 0..400 {
            store.insert(churn(i, 100 * i), ts(100 * i));
            scan.insert(churn(i, 100 * i), ts(100 * i));
        }
        let now = ts(40_000);
        let mut held: Vec<Profit> = scan.iter().map(|info| info.profit(now)).collect();
        held.sort();
        let (least, risen) = (held[40], held[100]);
        let purge = |store: &mut RetainedStore, scan: &mut RetainedStore<Scan>, threshold| {
            let (occupied, before) = (store.index.occupied_buckets(), store.fronts_loaded());
            let dropped = store.purge_below(threshold, now);
            assert_eq!(
                dropped,
                scan.purge_below(threshold, now),
                "purge at {threshold}"
            );
            (store.fronts_loaded() - before, occupied as u64)
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
        let mut scan: RetainedStore<Scan> = RetainedStore::new(bound);
        let set = |i: u64| info(&format!("tie-{i}"), 100, (1 + i / 4) as f64, &[10], 2);
        for i in 0..bound as u64 {
            store.insert(set(i), ts(20));
            scan.insert(set(i), ts(20));
        }
        // Newcomers from worthless to more valuable than anything held: each
        // displaces the scan's victim, or is dropped when the scan drops it.
        for i in 0..3 * bound as u64 {
            let newcomer = info(&format!("new-{i}"), 100, (i / 3) as f64, &[10 + i], 2);
            store.insert(newcomer.clone(), ts(30 + i));
            scan.insert(newcomer, ts(30 + i));
            let mut held: Vec<&str> = store.iter().map(|info| info.key.text()).collect();
            let mut expected: Vec<&str> = scan.iter().map(|info| info.key.text()).collect();
            held.sort_unstable();
            expected.sort_unstable();
            assert_eq!(held, expected, "displacement {i} diverged from the scan");
        }
        assert_eq!(store.len(), bound);
    }
}
