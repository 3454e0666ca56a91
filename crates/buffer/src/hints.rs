//! Query reference sets and p₀-redundancy hints (paper §3).
//!
//! For the simulation of the WATCHMAN ↔ buffer-manager interaction, the
//! buffer manager maintains with every buffered page its *query reference
//! set*: the IDs of all queries that have referenced the page.  A page is
//! **p-redundant** if at least a fraction `p` of the queries in its reference
//! set currently have their retrieved sets cached by WATCHMAN — re-executing
//! those queries is unnecessary, so the page itself is unlikely to be read
//! again.  After caching a retrieved set, WATCHMAN sends the buffer manager a
//! hint listing all pages that are p₀-redundant for a fixed threshold p₀; the
//! buffer manager moves them to the end of its LRU chain.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use watchman_core::engine::CacheObserver;
use watchman_core::key::{QueryKey, Signature};
use watchman_core::sync::{Mutex, MutexGuard};
use watchman_warehouse::PageId;

use crate::pool::BufferPool;

/// Tracks, for every page, the set of queries that referenced it.
///
/// `max_queries_per_page` bounds the per-page set; the paper notes that
/// compression and sampling techniques can be used to keep this structure
/// small, and a bounded set is the simplest such scheme (once the bound is
/// reached, new queries are not recorded, which only makes redundancy
/// estimates conservative).
#[derive(Debug)]
pub struct QueryReferenceTracker {
    per_page: HashMap<PageId, HashSet<Signature>>,
    max_queries_per_page: usize,
}

impl Default for QueryReferenceTracker {
    /// Equivalent to [`QueryReferenceTracker::new`].  (A derived `Default`
    /// would set the per-page bound to zero, silently recording nothing.)
    fn default() -> Self {
        Self::new()
    }
}

impl QueryReferenceTracker {
    /// Creates a tracker with the default per-page bound (64 queries).
    pub fn new() -> Self {
        Self::with_bound(64)
    }

    /// Creates a tracker that records at most `max_queries_per_page` distinct
    /// queries per page.
    pub fn with_bound(max_queries_per_page: usize) -> Self {
        QueryReferenceTracker {
            per_page: HashMap::new(),
            max_queries_per_page: max_queries_per_page.max(1),
        }
    }

    /// Records that `query` referenced `page`.
    pub fn record(&mut self, page: PageId, query: Signature) {
        let set = self.per_page.entry(page).or_default();
        if set.len() < self.max_queries_per_page {
            set.insert(query);
        }
    }

    /// Records that `query` referenced every page in `pages`.
    pub fn record_all(&mut self, pages: &[PageId], query: Signature) {
        for &page in pages {
            self.record(page, query);
        }
    }

    /// The query reference set of a page (empty if the page was never seen).
    pub fn reference_set(&self, page: PageId) -> Option<&HashSet<Signature>> {
        self.per_page.get(&page)
    }

    /// Number of tracked pages.
    pub fn tracked_pages(&self) -> usize {
        self.per_page.len()
    }

    /// The fraction of `page`'s query reference set whose retrieved sets are
    /// currently cached (`is_cached` decides membership).  Returns 0 for an
    /// untracked page.
    pub fn redundancy<F>(&self, page: PageId, is_cached: F) -> f64
    where
        F: Fn(Signature) -> bool,
    {
        match self.per_page.get(&page) {
            None => 0.0,
            Some(set) if set.is_empty() => 0.0,
            Some(set) => {
                let cached = set.iter().filter(|&&sig| is_cached(sig)).count();
                cached as f64 / set.len() as f64
            }
        }
    }

    /// Returns the subset of `pages` that are p₀-redundant: pages whose
    /// redundancy is at least `threshold` (`p₀ ∈ [0, 1]`).
    ///
    /// This is the hint WATCHMAN sends to the buffer manager after caching a
    /// retrieved set.  With `threshold = 0` every tracked page qualifies
    /// (degenerating the buffer's LRU into MRU, as the paper's Figure 7
    /// shows); with `threshold = 1` only pages used exclusively by cached
    /// queries qualify.
    pub fn redundant_pages<F>(&self, pages: &[PageId], threshold: f64, is_cached: F) -> Vec<PageId>
    where
        F: Fn(Signature) -> bool,
    {
        let threshold = threshold.clamp(0.0, 1.0);
        pages
            .iter()
            .copied()
            .filter(|&page| {
                self.per_page.contains_key(&page) && self.redundancy(page, &is_cached) >= threshold
            })
            .collect()
    }

    /// Forgets all reference sets.
    pub fn clear(&mut self) {
        self.per_page.clear();
    }
}

/// A [`CacheObserver`] that turns the engine's residency changes into p₀
/// buffer hints (paper §3).
///
/// The observer mirrors the cache's contents as a set of query signatures:
/// `admitted` adds, `removed` (an eviction or an invalidation) removes.
/// When a retrieved set is admitted, it resolves the query's page accesses
/// with `resolver`, computes which of those pages are p₀-redundant against
/// the mirrored signature set, and demotes them in the shared
/// [`BufferPool`] — exactly the hint WATCHMAN sends the buffer manager after
/// caching a set, now driven automatically by the engine instead of
/// hand-wired in the simulation loop.
///
/// Query page references still need to be recorded as queries execute; call
/// [`RedundancyHintObserver::record_access`] from the execution path (misses
/// only, since hits perform no page I/O).
pub struct RedundancyHintObserver<F> {
    pool: Arc<Mutex<BufferPool>>,
    threshold: f64,
    resolver: F,
    state: Mutex<HintState>,
}

#[derive(Debug, Default)]
struct HintState {
    tracker: QueryReferenceTracker,
    cached: HashSet<Signature>,
}

impl<F> RedundancyHintObserver<F>
where
    F: Fn(&QueryKey) -> Vec<PageId> + Send + Sync,
{
    /// Creates an observer demoting pages whose redundancy reaches
    /// `threshold` (`p₀ ∈ [0, 1]`), resolving each admitted query's page
    /// accesses with `resolver`.
    pub fn new(pool: Arc<Mutex<BufferPool>>, threshold: f64, resolver: F) -> Self {
        RedundancyHintObserver {
            pool,
            threshold: threshold.clamp(0.0, 1.0),
            resolver,
            state: Mutex::new(HintState::default()),
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, HintState> {
        self.state.lock()
    }

    /// Records that `query` read every page in `pages` (call on every cache
    /// miss that executes against the warehouse).
    pub fn record_access(&self, pages: &[PageId], query: Signature) {
        self.lock_state().tracker.record_all(pages, query);
    }

    /// The shared buffer pool this observer demotes pages in.
    pub fn pool(&self) -> &Arc<Mutex<BufferPool>> {
        &self.pool
    }

    /// The number of query signatures currently mirrored as cached.
    pub fn cached_queries(&self) -> usize {
        self.lock_state().cached.len()
    }
}

impl<F> CacheObserver for RedundancyHintObserver<F>
where
    F: Fn(&QueryKey) -> Vec<PageId> + Send + Sync,
{
    fn admitted(&self, key: &QueryKey) {
        let pages = (self.resolver)(key);
        let hint = {
            let mut state = self.lock_state();
            state.cached.insert(key.signature());
            let cached = &state.cached;
            state
                .tracker
                .redundant_pages(&pages, self.threshold, |sig| cached.contains(&sig))
        };
        if !hint.is_empty() {
            self.pool.lock().demote(&hint);
        }
    }

    fn removed(&self, key: &QueryKey) {
        self.lock_state().cached.remove(&key.signature());
    }
}

impl<F> std::fmt::Debug for RedundancyHintObserver<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RedundancyHintObserver")
            .field("threshold", &self.threshold)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use watchman_warehouse::RelationId;

    fn page(p: u32) -> PageId {
        PageId::new(RelationId(0), p)
    }

    fn sig(n: u64) -> Signature {
        Signature(n)
    }

    #[test]
    fn records_and_reports_reference_sets() {
        let mut tracker = QueryReferenceTracker::new();
        tracker.record(page(1), sig(10));
        tracker.record(page(1), sig(20));
        tracker.record(page(2), sig(10));
        assert_eq!(tracker.reference_set(page(1)).unwrap().len(), 2);
        assert_eq!(tracker.reference_set(page(2)).unwrap().len(), 1);
        assert!(tracker.reference_set(page(3)).is_none());
        assert_eq!(tracker.tracked_pages(), 2);
    }

    #[test]
    fn duplicate_references_are_not_double_counted() {
        let mut tracker = QueryReferenceTracker::new();
        tracker.record(page(1), sig(10));
        tracker.record(page(1), sig(10));
        assert_eq!(tracker.reference_set(page(1)).unwrap().len(), 1);
    }

    #[test]
    fn redundancy_is_the_cached_fraction() {
        let mut tracker = QueryReferenceTracker::new();
        tracker.record_all(&[page(1)], sig(1));
        tracker.record_all(&[page(1)], sig(2));
        tracker.record_all(&[page(1)], sig(3));
        tracker.record_all(&[page(1)], sig(4));
        // 2 of the 4 referencing queries are cached → 50 % redundant.
        let cached: HashSet<Signature> = [sig(1), sig(2)].into_iter().collect();
        let redundancy = tracker.redundancy(page(1), |s| cached.contains(&s));
        assert!((redundancy - 0.5).abs() < 1e-12);
        assert_eq!(tracker.redundancy(page(9), |_| true), 0.0);
    }

    #[test]
    fn redundant_pages_filters_by_threshold() {
        let mut tracker = QueryReferenceTracker::new();
        // Page 1: only query 1 (cached) → 100 % redundant.
        tracker.record(page(1), sig(1));
        // Page 2: queries 1 (cached) and 2 (not cached) → 50 %.
        tracker.record(page(2), sig(1));
        tracker.record(page(2), sig(2));
        // Page 3: only query 2 → 0 %.
        tracker.record(page(3), sig(2));
        let cached: HashSet<Signature> = [sig(1)].into_iter().collect();
        let is_cached = |s: Signature| cached.contains(&s);
        let pages = [page(1), page(2), page(3), page(4)];
        assert_eq!(
            tracker.redundant_pages(&pages, 1.0, is_cached),
            vec![page(1)]
        );
        assert_eq!(
            tracker.redundant_pages(&pages, 0.6, is_cached),
            vec![page(1)]
        );
        assert_eq!(
            tracker.redundant_pages(&pages, 0.5, is_cached),
            vec![page(1), page(2)]
        );
        // Threshold 0: every *tracked* page qualifies (page 4 was never seen).
        assert_eq!(
            tracker.redundant_pages(&pages, 0.0, is_cached),
            vec![page(1), page(2), page(3)]
        );
    }

    #[test]
    fn per_page_bound_limits_set_growth() {
        let mut tracker = QueryReferenceTracker::with_bound(2);
        for q in 0..10 {
            tracker.record(page(1), sig(q));
        }
        assert_eq!(tracker.reference_set(page(1)).unwrap().len(), 2);
    }

    #[test]
    fn clear_forgets_everything() {
        let mut tracker = QueryReferenceTracker::new();
        tracker.record(page(1), sig(1));
        tracker.clear();
        assert_eq!(tracker.tracked_pages(), 0);
    }

    #[test]
    fn observer_demotes_redundant_pages_on_admission() {
        use watchman_core::clock::Timestamp;
        use watchman_core::engine::{PolicyKind, Watchman};
        use watchman_core::value::{ExecutionCost, SizedPayload};

        let pool = Arc::new(Mutex::new(BufferPool::new(8)));
        // Every query touches pages 1 and 2.
        let pages = vec![page(1), page(2)];
        let observer = {
            let pages = pages.clone();
            Arc::new(RedundancyHintObserver::new(
                Arc::clone(&pool),
                0.6,
                move |_key: &QueryKey| pages.clone(),
            ))
        };
        let engine: Watchman<SizedPayload> = Watchman::builder()
            .policy(PolicyKind::Lru)
            .capacity_bytes(1_000)
            .observer(observer.clone())
            .build();

        // The query executes: its pages enter the pool and the tracker.
        // Admission: both pages are used only by the now-cached query, so
        // both are p0-redundant and get demoted.
        let key = QueryKey::new("q1");
        engine.get_or_execute(&key, Timestamp::from_secs(1), || {
            {
                let mut pool = pool.lock();
                for &p in &pages {
                    pool.access(p);
                }
            }
            observer.record_access(&pages, key.signature());
            (SizedPayload::new(100), ExecutionCost::from_blocks(50))
        });
        assert_eq!(observer.cached_queries(), 1);
        assert_eq!(pool.lock().stats().demotions, 2);

        // Invalidation clears the mirrored signature.
        assert!(engine.invalidate(&key));
        assert_eq!(observer.cached_queries(), 0);
    }
}
