//! Signature-indexed entry storage shared by all cache policies (paper §3).
//!
//! WATCHMAN speeds up cache lookup by storing a *signature* (a hash of the
//! query ID) with every cache entry; only entries whose signature matches the
//! looked-up query are compared by exact query-ID match.  [`EntryStore`]
//! packages that scheme as a slab of entries plus a key → entry-id index
//! hashed by signature: a policy's cache keeps one, with one record per
//! key, cached or retained, and gets collision-safe, allocation-friendly
//! lookups.

use crate::key::{QueryKey, SignatureMap};
use crate::value::ExecutionCost;

/// A stable handle to an entry inside an [`EntryStore`].
///
/// Ids are reused after removal, so holders must not retain an `EntryId`
/// across a `remove` of that entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntryId(usize);

impl EntryId {
    /// Returns the raw slot index (useful only for diagnostics).
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds an id from a raw slot index, for tests that exercise index
    /// structures without a backing store.
    #[cfg(test)]
    pub(crate) fn from_index_for_tests(index: usize) -> Self {
        EntryId(index)
    }
}

/// What a cache knows about a retrieved set besides its payload: the key,
/// the size and execution cost of the set, and what the policy keeps about
/// it (for LNC-R and LRU-K its reference history, which is also what is
/// retained once the set is evicted).
#[derive(Debug, Clone)]
pub struct SetInfo<S> {
    /// The query key the set belongs to.
    pub key: QueryKey,
    /// The size of the retrieved set when it was last materialized.
    pub size_bytes: u64,
    /// The execution cost of the associated query.
    pub cost: ExecutionCost,
    /// What the policy keeps about the set.
    pub state: S,
}

/// Where a set's record stands.
#[derive(Debug, Clone)]
pub(crate) enum Residency<V> {
    /// Cached with this payload, in the cache's victim order.
    Cached(V),
    /// Not cached, in the policy's retained order (§2.4).
    Retained,
    /// In neither order: the set a decision is about, or a victim.
    Pending,
}

/// The record of one key: what is known about its set, and where it stands.
#[derive(Debug, Clone)]
pub struct Record<V, S> {
    pub(crate) info: SetInfo<S>,
    pub(crate) residency: Residency<V>,
}

impl<V, S> Record<V, S> {
    pub(crate) fn is_cached(&self) -> bool {
        matches!(self.residency, Residency::Cached(_))
    }

    pub(crate) fn is_retained(&self) -> bool {
        matches!(self.residency, Residency::Retained)
    }

    /// Replaces what is known about the set with `info`, which must be for
    /// the same key.  The record keeps its own copy of the key, which the
    /// store's index shares, so `info`'s copy of the text is not kept alive
    /// beside it.
    pub(crate) fn replace_info(&mut self, info: SetInfo<S>) {
        debug_assert!(info.key == self.info.key, "a record keeps its key");
        let key = std::mem::replace(&mut self.info, info).key;
        self.info.key = key;
    }
}

/// A slab of records indexed by query-ID signature: a cache's one store,
/// with one record per key, holding payloads of type `V`.
#[derive(Debug, Clone)]
pub struct EntryStore<V, S> {
    slots: Vec<Option<Record<V, S>>>,
    free: Vec<usize>,
    /// key → id.  A `QueryKey` hashes as its signature and compares its
    /// signature before its text, so this is §3's signature index with the
    /// exact match resolving colliding signatures.
    index: SignatureMap<QueryKey, EntryId>,
    len: usize,
}

impl<V, S> EntryStore<V, S> {
    /// Creates an empty store.
    pub fn new() -> Self {
        EntryStore {
            slots: Vec::new(),
            free: Vec::new(),
            index: SignatureMap::default(),
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts an entry and returns its id.
    ///
    /// The caller must not insert two entries with the same key;
    /// [`EntryStore::find`] can be used to check first.
    pub fn insert(&mut self, entry: Record<V, S>) -> EntryId {
        let key = entry.info.key.clone();
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(entry);
                slot
            }
            None => {
                self.slots.push(Some(entry));
                self.slots.len() - 1
            }
        };
        let id = EntryId(slot);
        let replaced = self.index.insert(key, id);
        debug_assert!(replaced.is_none(), "a key is stored at most once");
        self.len += 1;
        id
    }

    /// Finds the id of the entry with the given key, resolving signature
    /// collisions by exact key comparison.
    pub fn find(&self, key: &QueryKey) -> Option<EntryId> {
        self.index.get(key).copied()
    }

    /// Returns a reference to the entry with the given key.
    pub fn get(&self, key: &QueryKey) -> Option<&Record<V, S>> {
        self.find(key).and_then(|id| self.by_id(id))
    }

    /// Returns a mutable reference to the entry with the given key.
    pub fn get_mut(&mut self, key: &QueryKey) -> Option<&mut Record<V, S>> {
        let id = self.find(key)?;
        self.by_id_mut(id)
    }

    /// Returns a reference to the entry with the given id.
    pub fn by_id(&self, id: EntryId) -> Option<&Record<V, S>> {
        self.slots.get(id.0).and_then(Option::as_ref)
    }

    /// Returns a mutable reference to the entry with the given id.
    pub fn by_id_mut(&mut self, id: EntryId) -> Option<&mut Record<V, S>> {
        self.slots.get_mut(id.0).and_then(Option::as_mut)
    }

    /// Removes and returns the entry with the given id.
    pub fn remove(&mut self, id: EntryId) -> Option<Record<V, S>> {
        let entry = self.slots.get_mut(id.0)?.take()?;
        self.index.remove(&entry.info.key);
        self.free.push(id.0);
        self.len -= 1;
        Some(entry)
    }

    /// Iterates over `(id, entry)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (EntryId, &Record<V, S>)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|e| (EntryId(i), e)))
    }

    /// Iterates over mutable entries in unspecified order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (EntryId, &mut Record<V, S>)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_mut().map(|e| (EntryId(i), e)))
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.index.clear();
        self.len = 0;
    }
}

impl<V, S> Default for EntryStore<V, S> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record whose state is a payload to tell it by.
    fn keyed(key: QueryKey, payload: u32) -> Record<(), u32> {
        let cost = ExecutionCost::from_blocks(0);
        let (size_bytes, state) = (0, payload);
        let info = SetInfo {
            key,
            size_bytes,
            cost,
            state,
        };
        Record {
            info,
            residency: Residency::Cached(()),
        }
    }

    fn entry(name: &str, payload: u32) -> Record<(), u32> {
        keyed(QueryKey::new(name.to_owned()), payload)
    }

    #[test]
    fn insert_find_remove_round_trip() {
        let mut store = EntryStore::new();
        let id = store.insert(entry("q1", 7));
        assert_eq!(store.len(), 1);
        assert_eq!(store.find(&QueryKey::new("q1")), Some(id));
        assert_eq!(store.get(&QueryKey::new("q1")).unwrap().info.state, 7);
        let removed = store.remove(id).unwrap();
        assert_eq!(removed.info.state, 7);
        assert!(store.is_empty());
        assert_eq!(store.find(&QueryKey::new("q1")), None);
    }

    #[test]
    fn missing_key_is_none() {
        let store: EntryStore<(), u32> = EntryStore::new();
        assert_eq!(store.find(&QueryKey::new("nope")), None);
        assert!(store.get(&QueryKey::new("nope")).is_none());
    }

    #[test]
    fn slots_are_reused_after_removal() {
        let mut store = EntryStore::new();
        let a = store.insert(entry("a", 1));
        store.remove(a);
        let b = store.insert(entry("b", 2));
        // The freed slot must be reused so the slab does not grow unboundedly.
        assert_eq!(a.index(), b.index());
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(&QueryKey::new("b")).unwrap().info.state, 2);
        assert!(store.get(&QueryKey::new("a")).is_none());
    }

    #[test]
    fn get_mut_allows_updates() {
        let mut store = EntryStore::new();
        store.insert(entry("q", 1));
        store.get_mut(&QueryKey::new("q")).unwrap().info.state = 99;
        assert_eq!(store.get(&QueryKey::new("q")).unwrap().info.state, 99);
    }

    #[test]
    fn iter_visits_all_live_entries() {
        let mut store = EntryStore::new();
        store.insert(entry("a", 1));
        let b = store.insert(entry("b", 2));
        store.insert(entry("c", 3));
        store.remove(b);
        let mut payloads: Vec<u32> = store.iter().map(|(_, e)| e.info.state).collect();
        payloads.sort_unstable();
        assert_eq!(payloads, vec![1, 3]);
    }

    #[test]
    fn iter_mut_allows_updates() {
        let mut store = EntryStore::new();
        store.insert(entry("a", 1));
        store.insert(entry("b", 2));
        for (_, e) in store.iter_mut() {
            e.info.state *= 10;
        }
        assert_eq!(store.get(&QueryKey::new("a")).unwrap().info.state, 10);
        assert_eq!(store.get(&QueryKey::new("b")).unwrap().info.state, 20);
    }

    #[test]
    fn clear_empties_the_store() {
        let mut store = EntryStore::new();
        store.insert(entry("a", 1));
        store.insert(entry("b", 2));
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.find(&QueryKey::new("a")), None);
        // Store remains usable after clear.
        store.insert(entry("c", 3));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn colliding_signatures_are_resolved_by_exact_match() {
        // Three keys with one signature: the ids spill into a list, and
        // removals collapse it back to one inline id and then to nothing.
        let key = |name: &str| QueryKey::with_signature_for_tests(name, 7);
        let mut store = EntryStore::new();
        let ids: Vec<EntryId> = ["a", "b", "c"]
            .into_iter()
            .zip(1..)
            .map(|(name, payload)| store.insert(keyed(key(name), payload)))
            .collect();
        assert_eq!(store.get(&key("b")).unwrap().info.state, 2);
        assert_eq!(store.find(&key("d")), None);
        store.remove(ids[1]);
        assert_eq!(store.find(&key("b")), None);
        store.remove(ids[0]);
        assert_eq!(store.get(&key("c")).unwrap().info.state, 3);
        store.remove(ids[2]);
        assert!(store.index.is_empty());
        let again = store.insert(keyed(key("a"), 4));
        assert_eq!(store.find(&key("a")), Some(again));
    }
}
