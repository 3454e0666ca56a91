//! The ordered victim index under the rule-ranked baseline policies.
//!
//! [`RankedCache`](crate::policy::ranked::RankedCache) keeps every cached
//! set's eviction priority in an [`OrdIndex`] next to its
//! [`EntryStore`](crate::index::EntryStore) and updates it on every
//! reference, admission, refresh and removal, so victim selection — and
//! [`min_cached_profit`](crate::policy::QueryCache::min_cached_profit), which
//! the rebalancer polls per shard — is O(log n) where a scan of the cache was
//! O(n) per victim: the heap-managed replacement of GreedyDual-Size (Cao &
//! Irani '97) and the priority-queue LNC-R implementation sketched in the
//! paper's §3.
//!
//! [`OrdIndex`] is a B-tree set of `(priority key, entry id)` pairs.  A
//! B-tree with *exact* deletion is used instead of the textbook
//! lazy-deletion binary heap: the cache always knows an entry's current key
//! when it changes or leaves, so stale heap items (and the rebuild sweeps
//! they eventually force) never need to exist, and peeking the victim does
//! not have to mutate the structure to drain tombstones.  Every operation is
//! O(log n).
//!
//! Tie-breaking is part of the policies' observable behaviour (deterministic
//! trace replays are asserted byte-identical), so the index encodes the tie
//! rules a scan has: `Iterator::min_by_key` returns the *first* minimal entry
//! in slot order — [`OrdIndex::min`] with the [`EntryId`] as the final key
//! component returns the same entry — and `Iterator::max_by_key` returns the
//! *last* maximal one, which [`OrdIndex::max`] reproduces likewise.
//!
//! LNC-R/LNC-RA cannot use a statically keyed index — its profit
//! `λᵢ(now)·cᵢ/sᵢ` re-evaluates the reference rate at every decision point,
//! and two sets' profits can cross as `now` advances — so it keys its index
//! by a lower bound on the profit and confirms every set it reaches with the
//! exact expression; see [`crate::policy::lnc`].

use std::collections::BTreeSet;

use crate::index::EntryId;

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

/// An ordered victim index: the policy's eviction priority for every cached
/// entry, kept in a B-tree set of `(key, id)` pairs.
///
/// The cache owns the key discipline: it must [`remove`](OrdIndex::remove)
/// an entry's *current* key before mutating state the key derives from, and
/// re-[`insert`](OrdIndex::insert) the new key afterwards (or call
/// [`update`](OrdIndex::update)).  Violations are caught by the debug
/// assertions on removal.
#[derive(Debug, Clone, Default)]
pub(crate) struct OrdIndex<K: Ord + Copy> {
    set: BTreeSet<(K, EntryId)>,
}

impl<K: Ord + Copy> OrdIndex<K> {
    /// Creates an empty index.
    pub fn new() -> Self {
        OrdIndex {
            set: BTreeSet::new(),
        }
    }

    /// Number of indexed entries.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Adds an entry under its current priority key.
    pub fn insert(&mut self, key: K, id: EntryId) {
        let fresh = self.set.insert((key, id));
        debug_assert!(fresh, "victim index already holds this (key, id) pair");
    }

    /// Removes an entry by its current priority key.
    pub fn remove(&mut self, key: K, id: EntryId) {
        let found = self.set.remove(&(key, id));
        debug_assert!(found, "victim index lost track of an entry's key");
    }

    /// Re-keys an entry whose priority changed.
    pub fn update(&mut self, old_key: K, new_key: K, id: EntryId) {
        self.remove(old_key, id);
        self.insert(new_key, id);
    }

    /// The entry with the smallest key; ties resolve to the smallest
    /// [`EntryId`] (the first match of the old slot-order scan).
    pub fn min(&self) -> Option<(K, EntryId)> {
        self.set.first().copied()
    }

    /// The entry with the largest key; ties resolve to the largest
    /// [`EntryId`] (the last match of the old slot-order scan).
    pub fn max(&self) -> Option<(K, EntryId)> {
        self.set.last().copied()
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.set.clear();
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
        index.update(1, 10, id(0));
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
