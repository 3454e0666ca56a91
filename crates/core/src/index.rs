//! Signature-indexed entry storage shared by all cache policies (paper §3).
//!
//! WATCHMAN speeds up cache lookup by storing a *signature* (a hash of the
//! query ID) with every cache entry; only entries whose signature matches the
//! looked-up query are compared by exact query-ID match.  [`EntryStore`]
//! packages that scheme as a slab of policy-specific entries plus a
//! signature → entry-id index, so every policy gets collision-safe,
//! allocation-friendly lookups without duplicating the bookkeeping.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::key::{QueryKey, SignatureMap, SignatureState};
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

/// Trait implemented by policy entry types so the store can maintain its
/// signature index.
pub trait KeyedEntry {
    /// The query key identifying this entry.
    fn key(&self) -> &QueryKey;
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

impl<S> KeyedEntry for SetInfo<S> {
    fn key(&self) -> &QueryKey {
        &self.key
    }
}

/// The ids of the entries with one signature: one inline, so that an insert
/// allocates nothing, and a list only after a collision.
#[derive(Debug, Clone)]
enum Ids {
    One(EntryId),
    Many(Vec<EntryId>),
}

impl Ids {
    fn as_slice(&self) -> &[EntryId] {
        match self {
            Ids::One(id) => std::slice::from_ref(id),
            Ids::Many(ids) => ids,
        }
    }
}

/// A slab of entries indexed by query-ID signature.
#[derive(Debug, Clone)]
pub struct EntryStore<E> {
    slots: Vec<Option<E>>,
    free: Vec<usize>,
    /// signature → ids of entries with that signature (normally exactly one).
    index: SignatureMap<u64, Ids>,
    len: usize,
}

impl<E: KeyedEntry> EntryStore<E> {
    /// Creates an empty store.
    pub fn new() -> Self {
        EntryStore {
            slots: Vec::new(),
            free: Vec::new(),
            index: SignatureMap::default(),
            len: 0,
        }
    }

    /// Creates an empty store with room for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        EntryStore {
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            index: HashMap::with_capacity_and_hasher(capacity, SignatureState::default()),
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
    /// The caller is responsible for not inserting two entries with the same
    /// key; [`EntryStore::find`] can be used to check first.  If a duplicate
    /// is inserted anyway, lookups will consistently return the first one.
    pub fn insert(&mut self, entry: E) -> EntryId {
        let signature = entry.key().signature().value();
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
        match self.index.entry(signature) {
            Entry::Vacant(vacant) => {
                vacant.insert(Ids::One(id));
            }
            Entry::Occupied(mut ids) => match ids.get_mut() {
                Ids::One(first) => *ids.get_mut() = Ids::Many(vec![*first, id]),
                Ids::Many(all) => all.push(id),
            },
        }
        self.len += 1;
        id
    }

    /// Finds the id of the entry with the given key, resolving signature
    /// collisions by exact key comparison.
    pub fn find(&self, key: &QueryKey) -> Option<EntryId> {
        let ids = self.index.get(&key.signature().value())?;
        ids.as_slice()
            .iter()
            .copied()
            .find(|id| self.slots[id.0].as_ref().is_some_and(|e| e.key() == key))
    }

    /// Whether an entry with the given key exists.
    pub fn contains(&self, key: &QueryKey) -> bool {
        self.find(key).is_some()
    }

    /// Returns a reference to the entry with the given key.
    pub fn get(&self, key: &QueryKey) -> Option<&E> {
        self.find(key).and_then(|id| self.by_id(id))
    }

    /// Returns a mutable reference to the entry with the given key.
    pub fn get_mut(&mut self, key: &QueryKey) -> Option<&mut E> {
        let id = self.find(key)?;
        self.by_id_mut(id)
    }

    /// Returns a reference to the entry with the given id.
    pub fn by_id(&self, id: EntryId) -> Option<&E> {
        self.slots.get(id.0).and_then(Option::as_ref)
    }

    /// Returns a mutable reference to the entry with the given id.
    pub fn by_id_mut(&mut self, id: EntryId) -> Option<&mut E> {
        self.slots.get_mut(id.0).and_then(Option::as_mut)
    }

    /// Removes and returns the entry with the given id.
    pub fn remove(&mut self, id: EntryId) -> Option<E> {
        let entry = self.slots.get_mut(id.0)?.take()?;
        let signature = entry.key().signature().value();
        if let Entry::Occupied(mut ids) = self.index.entry(signature) {
            match ids.get_mut() {
                Ids::One(_) => {
                    ids.remove();
                }
                Ids::Many(all) => {
                    all.retain(|&other| other != id);
                    if let [last] = all[..] {
                        *ids.get_mut() = Ids::One(last);
                    }
                }
            }
        }
        self.free.push(id.0);
        self.len -= 1;
        Some(entry)
    }

    /// Removes and returns the entry with the given key.
    pub fn remove_by_key(&mut self, key: &QueryKey) -> Option<E> {
        let id = self.find(key)?;
        self.remove(id)
    }

    /// Iterates over `(id, entry)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (EntryId, &E)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|e| (EntryId(i), e)))
    }

    /// Iterates over mutable entries in unspecified order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (EntryId, &mut E)> {
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

impl<E: KeyedEntry> Default for EntryStore<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct TestEntry {
        key: QueryKey,
        payload: u32,
    }

    impl KeyedEntry for TestEntry {
        fn key(&self) -> &QueryKey {
            &self.key
        }
    }

    fn entry(name: &str, payload: u32) -> TestEntry {
        TestEntry {
            key: QueryKey::new(name.to_owned()),
            payload,
        }
    }

    #[test]
    fn insert_find_remove_round_trip() {
        let mut store = EntryStore::new();
        let id = store.insert(entry("q1", 7));
        assert_eq!(store.len(), 1);
        assert_eq!(store.find(&QueryKey::new("q1")), Some(id));
        assert_eq!(store.get(&QueryKey::new("q1")).unwrap().payload, 7);
        let removed = store.remove(id).unwrap();
        assert_eq!(removed.payload, 7);
        assert!(store.is_empty());
        assert_eq!(store.find(&QueryKey::new("q1")), None);
    }

    #[test]
    fn missing_key_is_none() {
        let store: EntryStore<TestEntry> = EntryStore::new();
        assert_eq!(store.find(&QueryKey::new("nope")), None);
        assert!(!store.contains(&QueryKey::new("nope")));
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
        assert_eq!(store.get(&QueryKey::new("b")).unwrap().payload, 2);
        assert_eq!(store.get(&QueryKey::new("a")), None);
    }

    #[test]
    fn get_mut_allows_updates() {
        let mut store = EntryStore::new();
        store.insert(entry("q", 1));
        store.get_mut(&QueryKey::new("q")).unwrap().payload = 99;
        assert_eq!(store.get(&QueryKey::new("q")).unwrap().payload, 99);
    }

    #[test]
    fn iter_visits_all_live_entries() {
        let mut store = EntryStore::new();
        store.insert(entry("a", 1));
        let b = store.insert(entry("b", 2));
        store.insert(entry("c", 3));
        store.remove(b);
        let mut payloads: Vec<u32> = store.iter().map(|(_, e)| e.payload).collect();
        payloads.sort_unstable();
        assert_eq!(payloads, vec![1, 3]);
    }

    #[test]
    fn iter_mut_allows_updates() {
        let mut store = EntryStore::new();
        store.insert(entry("a", 1));
        store.insert(entry("b", 2));
        for (_, e) in store.iter_mut() {
            e.payload *= 10;
        }
        assert_eq!(store.get(&QueryKey::new("a")).unwrap().payload, 10);
        assert_eq!(store.get(&QueryKey::new("b")).unwrap().payload, 20);
    }

    #[test]
    fn remove_by_key_works() {
        let mut store = EntryStore::new();
        store.insert(entry("x", 5));
        assert_eq!(store.remove_by_key(&QueryKey::new("x")).unwrap().payload, 5);
        assert!(store.remove_by_key(&QueryKey::new("x")).is_none());
    }

    #[test]
    fn clear_empties_the_store() {
        let mut store = EntryStore::with_capacity(4);
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
            .map(|(name, payload)| {
                store.insert(TestEntry {
                    key: key(name),
                    payload,
                })
            })
            .collect();
        assert_eq!(store.get(&key("b")).unwrap().payload, 2);
        assert_eq!(store.find(&key("d")), None);
        store.remove(ids[1]);
        assert_eq!(store.find(&key("b")), None);
        store.remove(ids[0]);
        assert_eq!(store.get(&key("c")).unwrap().payload, 3);
        store.remove(ids[2]);
        assert!(store.index.is_empty());
        let again = store.insert(TestEntry {
            key: key("a"),
            payload: 4,
        });
        assert_eq!(store.find(&key("a")), Some(again));
    }
}
