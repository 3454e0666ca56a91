//! Cache policies.
//!
//! The [`QueryCache`] trait is the public interface shared by the paper's
//! LNC-R / LNC-RA policies ([`lnc`]) and the comparison baselines.  All of
//! them are one cache shell, [`ranked::RankedCache`], under six rank
//! rules: LNC-R and LNC-RA ([`lnc`], one rule), vanilla LRU ([`lru`]), LRU-K
//! ([`lru_k`]), LFU ([`lfu`]), largest-space LCS ([`lcs`]) and
//! GreedyDual-Size ([`gds`]).
//!
//! # Usage protocol
//!
//! A cache client issues one [`QueryCache::get`] per logical query reference.
//! On a hit the cached retrieved set is returned and the reference is
//! accounted as saved cost.  On a miss the client executes the query against
//! the warehouse and then offers the freshly retrieved set with
//! [`QueryCache::insert`], passing the observed execution cost; the policy
//! decides whether to admit it (possibly evicting other sets) or reject it.
//! Both calls take an explicit logical [`Timestamp`] so that trace replay is
//! deterministic; a policy raises every `now` it is passed to the latest one
//! it has seen, because the rate estimate of Eq. 3 assumes time never steps
//! back.
//!
//! # Per-operation complexity
//!
//! The shell finds its victims through one of three orders instead of
//! re-scanning the cache per eviction.  With `n` cached sets and `v` victims
//! per decision:
//!
//! | order | policies | admit | hit | evict (total) | least profit (§2.4 purge) |
//! |---|---|---|---|---|---|
//! | `index` of static ranks | LRU, LRU-K³, LFU, LCS, GDS | O(log n) | O(log n) | O(v log n) | O(log n) |
//! | decay index | LNC-R, LNC-RA | O(log n) | O(1) | O(b + v log n)¹ | O(b + log n)¹ |
//! | decay index, a first-time set the bound rejects² | LNC-RA | O(K + b) + purge | — | none | — |
//! | scan (tests only) | all seven | O(1) | O(1) | O(n log n) | O(n log n) |
//!
//! ¹ LNC profits re-evaluate the Eq. 3 rate at the decision's `now`, and the
//! profits of two untouched sets can cross as time advances, so no static
//! key orders them.  The decay index files sets in `b` buckets (sample-count
//! group × the top bits of `samples·c/s`, a few dozen per group) under a
//! lower bound on their profit that holds until they are referenced again;
//! a decision merges the bucket fronts, scores the sets it hands out with
//! the reference expression, and re-scores a set it passes over only a
//! logarithmic number of times over the set's life.  A hit does not touch
//! the index.
//!
//! ² Before selecting victims for a first-time set, LNC-RA compares its
//! `c/s` with a lower bound on the `cᵢ/sᵢ` of every set Figure 1 could evict
//! for it: the least floor of the first non-empty bucket of each of the
//! `K` sample-count groups the victims can come from.  When that bound
//! already rejects the set, no victim is selected or scored; the §2.4 purge
//! that follows every decision (it prices the least profit among cached
//! sets) is the rest of the rejection.
//!
//! ³ LRU-K's admission also expires the retained histories whose period has
//! passed, at O(1) per history expired.
//!
//! The scan is the one oracle: it re-scores every set and sorts, and the
//! `differential` module (test builds only) replays random traces through
//! each policy over its index and over the scan, asserting identical
//! decisions, evictions, victim orders, least profits and retained
//! histories at every step.

pub mod gds;
pub(crate) mod index;
pub mod lcs;
pub mod lfu;
pub mod lnc;
pub mod lru;
pub mod lru_k;
pub mod ranked;

#[cfg(test)]
pub(crate) mod differential;

use std::fmt;

use crate::clock::Timestamp;
use crate::key::QueryKey;
use crate::metrics::CacheStats;
use crate::value::{CachePayload, ExecutionCost};

/// Why an offered retrieved set was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The set is larger than the entire cache.
    TooLarge,
    /// The cache has zero capacity.
    ZeroCapacity,
    /// The admission test (Eq. 4 / Eq. 7) decided the set is not worth the
    /// evictions it would require.
    AdmissionTest,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::TooLarge => f.write_str("larger than the cache"),
            RejectReason::ZeroCapacity => f.write_str("zero-capacity cache"),
            RejectReason::AdmissionTest => f.write_str("failed the admission test"),
        }
    }
}

/// The result of offering a retrieved set to the cache.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertOutcome {
    /// The set was already cached; its payload, cost and metadata were
    /// refreshed in place.  If the refreshed payload *grew*, restoring the
    /// capacity invariant may have evicted other sets: `evicted` lists their
    /// keys, exactly as [`InsertOutcome::Admitted`] does, so observers
    /// mirroring cache contents never miss a removal.
    AlreadyCached {
        /// Keys of the retrieved sets evicted because the refreshed payload
        /// grew (usually empty).
        evicted: Vec<QueryKey>,
    },
    /// The set was admitted.  `evicted` lists the keys that were removed to
    /// make room (empty if the set fit in free space).
    Admitted {
        /// Keys of the retrieved sets evicted to make room.
        evicted: Vec<QueryKey>,
    },
    /// The set was not admitted.
    Rejected(RejectReason),
}

impl InsertOutcome {
    /// An `AlreadyCached` outcome with no evictions (the common refresh case).
    pub fn already_cached() -> Self {
        InsertOutcome::AlreadyCached {
            evicted: Vec::new(),
        }
    }

    /// Whether the set ended up cached (either newly admitted or already
    /// present).
    pub fn is_cached(&self) -> bool {
        matches!(
            self,
            InsertOutcome::Admitted { .. } | InsertOutcome::AlreadyCached { .. }
        )
    }

    /// Whether the set was newly admitted by this call.
    pub fn is_admitted(&self) -> bool {
        matches!(self, InsertOutcome::Admitted { .. })
    }

    /// The keys evicted by this call (by a new admission, or by a refresh
    /// whose payload grew).
    pub fn evicted(&self) -> &[QueryKey] {
        match self {
            InsertOutcome::Admitted { evicted } | InsertOutcome::AlreadyCached { evicted } => {
                evicted
            }
            InsertOutcome::Rejected(_) => &[],
        }
    }
}

impl fmt::Display for InsertOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InsertOutcome::AlreadyCached { evicted } if evicted.is_empty() => {
                f.write_str("already cached")
            }
            InsertOutcome::AlreadyCached { evicted } => {
                write!(f, "already cached, evicted {}", evicted.len())
            }
            InsertOutcome::Admitted { evicted } if evicted.is_empty() => f.write_str("admitted"),
            InsertOutcome::Admitted { evicted } => {
                write!(f, "admitted, evicted {}", evicted.len())
            }
            InsertOutcome::Rejected(reason) => write!(f, "rejected ({reason})"),
        }
    }
}

/// The common interface of all retrieved-set cache policies.
pub trait QueryCache<V: CachePayload> {
    /// A short, stable policy name ("LNC-RA", "LRU", …) used in experiment
    /// output.
    fn name(&self) -> &'static str;

    /// Looks up the retrieved set for `key`, recording one query reference.
    ///
    /// Returns the cached value on a hit.  On a miss the caller is expected
    /// to execute the query and call [`QueryCache::insert`] with the result
    /// and its execution cost.
    fn get(&mut self, key: &QueryKey, now: Timestamp) -> Option<&V>;

    /// Offers a freshly retrieved set for admission after a miss.
    ///
    /// `cost` is the execution cost of the query that produced the set.  The
    /// same `now` that was passed to the preceding `get` should be used (or a
    /// later one).  Time never steps back inside a policy: every method that
    /// takes `now` raises it to the latest `now` any call has passed, so a
    /// lagging caller's reference is recorded at that latest time.
    fn insert(
        &mut self,
        key: QueryKey,
        value: V,
        cost: ExecutionCost,
        now: Timestamp,
    ) -> InsertOutcome;

    /// Removes the retrieved set for `key`, returning whether it was
    /// resident.
    ///
    /// This is the *invalidation* entry point used by the cache-coherence
    /// machinery and the concurrent engine: removal is not an eviction, so it
    /// is not counted in the eviction statistics and does not retain
    /// reference information.
    fn remove(&mut self, key: &QueryKey) -> bool;

    /// Returns the cached retrieved set for `key` **without** recording a
    /// reference: no recency/frequency update, no reference-history sample,
    /// no statistics mutation.
    ///
    /// This is the non-mutating *admin* probe behind
    /// [`Watchman::peek`](crate::engine::Watchman::peek): monitoring and
    /// diagnostics can observe the cache without perturbing replay-visible
    /// policy state.  Use [`QueryCache::get`] for real query references.
    fn peek(&self, key: &QueryKey) -> Option<&V>;

    /// Whether a retrieved set for `key` is currently cached.
    fn contains(&self, key: &QueryKey) -> bool;

    /// Number of cached retrieved sets.
    fn len(&self) -> usize;

    /// Whether the cache holds no retrieved sets.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently occupied by cached retrieved sets.
    fn used_bytes(&self) -> u64;

    /// Total cache capacity in bytes.
    fn capacity_bytes(&self) -> u64;

    /// Accumulated reference / cost statistics.
    fn stats(&self) -> &CacheStats;

    /// An owned snapshot of the accumulated statistics.
    ///
    /// Prefer this over [`QueryCache::stats`] when aggregating across several
    /// caches (for example the per-shard policies of the concurrent engine):
    /// owned snapshots can be summed with [`CacheStats::merge`] without
    /// holding borrows on the caches.
    fn stats_snapshot(&self) -> CacheStats {
        self.stats().clone()
    }

    /// Removes every cached retrieved set (statistics are preserved).
    fn clear(&mut self);

    /// A snapshot of the keys currently cached, in unspecified order.
    ///
    /// Used by the buffer-manager integration to determine which pages are
    /// redundant, and by tests.
    fn cached_keys(&self) -> Vec<QueryKey>;

    /// Fraction of capacity currently in use (zero for a zero-capacity
    /// cache).
    fn utilization(&self) -> f64 {
        let capacity = self.capacity_bytes();
        if capacity == 0 {
            0.0
        } else {
            self.used_bytes() as f64 / capacity as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_outcome_accessors() {
        let admitted = InsertOutcome::Admitted {
            evicted: vec![QueryKey::new("victim")],
        };
        assert!(admitted.is_cached());
        assert!(admitted.is_admitted());
        assert_eq!(admitted.evicted().len(), 1);

        let already = InsertOutcome::already_cached();
        assert!(already.is_cached());
        assert!(!already.is_admitted());
        assert!(already.evicted().is_empty());

        let grown = InsertOutcome::AlreadyCached {
            evicted: vec![QueryKey::new("displaced")],
        };
        assert!(grown.is_cached());
        assert!(!grown.is_admitted());
        assert_eq!(grown.evicted().len(), 1);

        let rejected = InsertOutcome::Rejected(RejectReason::AdmissionTest);
        assert!(!rejected.is_cached());
        assert!(!rejected.is_admitted());
        assert!(rejected.evicted().is_empty());
    }
}
