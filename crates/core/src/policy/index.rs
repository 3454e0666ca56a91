//! The ordered victim index under the rule-ranked baseline policies.
//!
//! [`RankedCache`](crate::policy::ranked::RankedCache) keeps every cached
//! set's eviction priority in an [`OrdIndex`] next to its
//! [`EntryStore`] and updates it on every
//! reference, admission, refresh and removal, so victim selection — and the
//! least cached profit that the §2.4 purge compares against — is O(log n)
//! where a scan of the cache was O(n) per victim: the heap-managed replacement of GreedyDual-Size (Cao &
//! Irani '97) and the priority-queue LNC-R implementation sketched in the
//! paper's §3.
//!
//! [`OrdIndex`] is a B-tree set of `(priority key, entry id)` pairs.  A
//! B-tree with *exact* deletion is used instead of the textbook
//! lazy-deletion binary heap: the index remembers the key each slot is filed
//! under, so stale heap items (and the rebuild sweeps they eventually force)
//! never need to exist, and reading the victims does not have to mutate the
//! structure to drain tombstones.  Every operation is O(log n).
//!
//! Tie-breaking is part of the policies' observable behaviour (deterministic
//! trace replays are asserted byte-identical), so the index encodes the tie
//! rules a scan has: `Iterator::min_by_key` returns the *first* minimal entry
//! in slot order, which the [`EntryId`] as the final key component
//! reproduces, and `Iterator::max_by_key` the *last* maximal one, which
//! reading the set from its end reproduces.
//!
//! LNC-R/LNC-RA cannot use a statically keyed index — its profit
//! `λᵢ(now)·cᵢ/sᵢ` re-evaluates the reference rate at every decision point,
//! and two sets' profits can cross as `now` advances — so its victim order is
//! the decay index instead ([`crate::decay`]).

use std::collections::BTreeSet;

use crate::clock::Timestamp;
use crate::index::{EntryId, EntryStore, SetInfo};
use crate::policy::ranked::{Entry, RankRule, VictimOrder};

/// A totally ordered `f64` wrapper (IEEE-754 `total_cmp` order), used to key
/// victim indexes by floating-point priorities such as the GreedyDual-Size
/// credit `H`.
#[derive(Debug, Clone, Copy)]
pub struct OrdF64(pub f64);

/// Equality agrees with the order: the ranked cache re-files an entry exactly
/// when its old and new keys differ, and `0.0 == -0.0` file apart.
impl PartialEq for OrdF64 {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // The same comparison the old O(n) scan used (`f64::total_cmp`), so
        // victim order is unchanged down to NaN/signed-zero corner cases.
        self.0.total_cmp(&other.0)
    }
}

/// An ordered victim index: every cached entry's eviction priority, kept in
/// a B-tree set of `(key, id)` pairs beside the key each slot is filed
/// under, so that an entry is re-keyed or removed by its slot alone.
#[derive(Debug, Clone, Default)]
pub struct OrdIndex<K: Ord + Copy> {
    set: BTreeSet<(K, EntryId)>,
    keys: Vec<Option<K>>,
}

impl<K: Ord + Copy> OrdIndex<K> {
    /// Creates an empty index.
    pub(crate) fn new() -> Self {
        OrdIndex {
            set: BTreeSet::new(),
            keys: Vec::new(),
        }
    }

    /// Number of indexed entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.set.len()
    }

    /// Files `id` under `key`, in place of the key it was filed under.
    pub(crate) fn insert(&mut self, key: K, id: EntryId) {
        if self.keys.len() <= id.index() {
            self.keys.resize(id.index() + 1, None);
        }
        match self.keys[id.index()].replace(key) {
            Some(old) if old == key => return,
            Some(old) => {
                self.set.remove(&(old, id));
            }
            None => {}
        }
        self.set.insert((key, id));
    }

    /// Removes `id`, if it is filed.
    pub(crate) fn remove(&mut self, id: EntryId) {
        if let Some(old) = self.keys.get_mut(id.index()).and_then(Option::take) {
            self.set.remove(&(old, id));
        }
    }

    /// The entry with the smallest key; ties resolve to the smallest
    /// [`EntryId`] (the first match of the old slot-order scan).
    #[cfg(test)]
    pub(crate) fn min(&self) -> Option<(K, EntryId)> {
        self.set.first().copied()
    }

    /// The entry with the largest key; ties resolve to the largest
    /// [`EntryId`] (the last match of the old slot-order scan).
    #[cfg(test)]
    pub(crate) fn max(&self) -> Option<(K, EntryId)> {
        self.set.last().copied()
    }
}

/// The order of a rule whose rank does not move with time: ranks are
/// computed when a set is filed or referenced and read back in order.  The
/// victim is the least rank (first slot among ties), or for a
/// [`RankRule::VICTIM_IS_MAX`] rule the greatest (last slot among ties).
impl<R: RankRule> VictimOrder<R> for OrdIndex<R::Rank> {
    fn new() -> Self {
        OrdIndex::new()
    }

    fn file(&mut self, set: &SetInfo<R::State>, slot: EntryId, now: Timestamp) {
        self.insert(R::rank(set, now), slot);
    }

    fn touch(&mut self, set: &SetInfo<R::State>, slot: EntryId, now: Timestamp) {
        self.insert(R::rank(set, now), slot);
    }

    fn unfile(&mut self, slot: EntryId) {
        self.remove(slot);
    }

    fn ascend<V>(
        &mut self,
        _: &EntryStore<Entry<V, R::State>>,
        _: Timestamp,
        _: bool,
        mut take: impl FnMut(EntryId) -> bool,
    ) {
        if R::VICTIM_IS_MAX {
            self.set.iter().rev().all(|&(_, id)| take(id));
        } else {
            self.set.iter().all(|&(_, id)| take(id));
        }
    }

    fn clear(&mut self) {
        self.set.clear();
        self.keys.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: usize) -> EntryId {
        EntryId::from_index_for_tests(n)
    }

    #[test]
    fn min_and_max_respect_tie_order() {
        let mut index: OrdIndex<u64> = OrdIndex::new();
        index.insert(5, id(3));
        index.insert(5, id(1));
        index.insert(9, id(2));
        index.insert(9, id(7));
        // Smallest key, then smallest id — the first slot-order match.
        assert_eq!(index.min(), Some((5, id(1))));
        // Largest key, then largest id — the last slot-order match.
        assert_eq!(index.max(), Some((9, id(7))));
    }

    #[test]
    fn update_rekeys_in_place() {
        let mut index: OrdIndex<u64> = OrdIndex::new();
        index.insert(1, id(0));
        index.insert(2, id(1));
        index.insert(10, id(0));
        assert_eq!(index.min(), Some((2, id(1))));
        assert_eq!(index.max(), Some((10, id(0))));
        assert_eq!(index.len(), 2);
    }

    #[test]
    fn ord_f64_is_total() {
        let mut keys = [OrdF64(2.0), OrdF64(-1.0), OrdF64(0.0), OrdF64(2.0)];
        keys.sort();
        assert_eq!(keys[0], OrdF64(-1.0));
        assert_eq!(keys[3], OrdF64(2.0));
        assert_ne!(OrdF64(0.0), OrdF64(-0.0));
    }
}
