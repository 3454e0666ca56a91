//! Performance metrics (paper §2.1 and §4.1).
//!
//! The paper evaluates WATCHMAN with three metrics:
//!
//! * **Cost savings ratio (CSR)** — the fraction of total query execution
//!   cost that was saved by answering references from the cache:
//!   `CSR = Σᵢ cᵢ·hᵢ / Σᵢ cᵢ·rᵢ` (primary metric).
//! * **Hit ratio (HR)** — `HR = Σᵢ hᵢ / Σᵢ rᵢ` (secondary metric).
//! * **Average external fragmentation** — the average fraction of unused
//!   cache space (tertiary metric).
//!
//! [`CacheStats`] accumulates the counters needed for CSR and HR and is
//! maintained by every policy; [`FragmentationTracker`] samples cache
//! occupancy over time and is driven by the simulator.

use serde::{Deserialize, Serialize};

use crate::value::ExecutionCost;

/// Counters accumulated by a cache policy over its lifetime.
///
/// The counting protocol is: every logical query reference results in exactly
/// one [`record_hit`](CacheStats::record_hit), one
/// [`record_miss`](CacheStats::record_miss), one
/// [`record_coalesced`](CacheStats::record_coalesced), one
/// [`record_fetch_error`](CacheStats::record_fetch_error) *or* one
/// [`record_stale`](CacheStats::record_stale) call (policies record hits and
/// misses from their `get`/`insert` implementations; the concurrent engine
/// records coalesced, error and stale references), so
/// `references = hits + coalesced + fetch_errors + stale_serves + misses`
/// and the cost accumulators cover every reference exactly once.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Total number of query references observed.
    pub references: u64,
    /// References satisfied from the cache.
    pub hits: u64,
    /// References satisfied by waiting on another session's in-flight
    /// execution of the same query (single-flight coalescing).  Like a hit,
    /// a coalesced reference saves its full execution cost; unlike a hit, the
    /// retrieved set was not yet cached when the reference arrived.
    pub coalesced: u64,
    /// References that ended in a terminal fetch error (retry budget spent
    /// or fatal error, and no stale serve applied).  An errored reference
    /// neither paid nor saved execution cost, so it stays out of both CSR
    /// accumulators — failure must not flatter *or* tank the savings ratio.
    pub fetch_errors: u64,
    /// References answered with a last-known-good value after a fetch
    /// failure or an open circuit breaker.  A stale serve pays its refetch
    /// cost into `total_cost` but adds **nothing** to `saved_cost`: serving
    /// possibly-wrong bytes is degradation, and degradation must never
    /// inflate CSR.
    pub stale_serves: u64,
    /// Σ cᵢ over all references (the CSR denominator).
    pub total_cost: f64,
    /// Σ cᵢ over references satisfied from cache (the CSR numerator).
    pub saved_cost: f64,
    /// Number of retrieved sets offered for admission.
    pub insertions_offered: u64,
    /// Number of retrieved sets actually admitted.
    pub admissions: u64,
    /// Number of admission rejections (admission test failed or set too big).
    pub rejections: u64,
    /// Number of cached sets evicted to make room.
    pub evictions: u64,
    /// Total bytes evicted.
    pub bytes_evicted: u64,
}

impl CacheStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a reference satisfied from the cache for a set whose query
    /// execution cost is `cost`.
    pub fn record_hit(&mut self, cost: ExecutionCost) {
        self.references += 1;
        self.hits += 1;
        self.total_cost += cost.value();
        self.saved_cost += cost.value();
    }

    /// Records a reference that missed the cache and required executing a
    /// query of the given cost.
    pub fn record_miss(&mut self, cost: ExecutionCost) {
        self.references += 1;
        self.total_cost += cost.value();
    }

    /// Records a reference that was satisfied by coalescing onto another
    /// session's in-flight execution of the same query (hit-equivalent at the
    /// leader's observed cost: the reference saved `cost` without executing).
    pub fn record_coalesced(&mut self, cost: ExecutionCost) {
        self.references += 1;
        self.coalesced += 1;
        self.total_cost += cost.value();
        self.saved_cost += cost.value();
    }

    /// Records a reference that ended in a terminal fetch error.  No cost
    /// moves: the query was never answered, so there is nothing to pay or
    /// save — only the reference itself is accounted.
    pub fn record_fetch_error(&mut self) {
        self.references += 1;
        self.fetch_errors += 1;
    }

    /// Records a reference answered with a stale last-known-good value for a
    /// set whose refetch cost is `cost`.  The cost lands in the CSR
    /// denominator (the reference *wanted* a fresh answer of that price) but
    /// not the numerator: a stale serve is availability, not savings.
    pub fn record_stale(&mut self, cost: ExecutionCost) {
        self.references += 1;
        self.stale_serves += 1;
        self.total_cost += cost.value();
    }

    /// Records the outcome of an admission attempt.
    pub fn record_admission(&mut self, admitted: bool) {
        self.insertions_offered += 1;
        if admitted {
            self.admissions += 1;
        } else {
            self.rejections += 1;
        }
    }

    /// Records the eviction of a cached set of the given size.
    pub fn record_eviction(&mut self, size_bytes: u64) {
        self.evictions += 1;
        self.bytes_evicted += size_bytes;
    }

    /// Number of references that missed the cache and paid their execution
    /// cost (coalesced references neither hit nor paid; errored references
    /// paid nothing; stale serves were answered without executing).
    pub fn misses(&self) -> u64 {
        self.references - self.hits - self.coalesced - self.fetch_errors - self.stale_serves
    }

    /// The hit ratio `HR` (Eq. 17); zero when no reference has been observed.
    ///
    /// Coalesced references count as satisfied: they were answered without
    /// executing the query, exactly like cache hits.  Stale serves and
    /// errored references do **not** count as satisfied (they sit in the
    /// denominator only): HR, like CSR, reports fresh answers.
    pub fn hit_ratio(&self) -> f64 {
        if self.references == 0 {
            0.0
        } else {
            (self.hits + self.coalesced) as f64 / self.references as f64
        }
    }

    /// The cost savings ratio `CSR` (Eq. 1); zero when no cost has been
    /// observed.
    pub fn cost_savings_ratio(&self) -> f64 {
        if self.total_cost <= 0.0 {
            0.0
        } else {
            self.saved_cost / self.total_cost
        }
    }

    /// Merges another set of counters into this one (used when aggregating
    /// per-shard statistics from the concurrent wrapper).
    pub fn merge(&mut self, other: &CacheStats) {
        self.references += other.references;
        self.hits += other.hits;
        self.coalesced += other.coalesced;
        self.fetch_errors += other.fetch_errors;
        self.stale_serves += other.stale_serves;
        self.total_cost += other.total_cost;
        self.saved_cost += other.saved_cost;
        self.insertions_offered += other.insertions_offered;
        self.admissions += other.admissions;
        self.rejections += other.rejections;
        self.evictions += other.evictions;
        self.bytes_evicted += other.bytes_evicted;
    }
}

/// Samples cache occupancy to measure average external fragmentation.
///
/// The paper defines external fragmentation as the average fraction of
/// *unused* cache space; the complementary "fraction of used space" is what
/// Figure 6 plots.  The simulator records one sample after every query.
#[derive(Debug, Clone, Default)]
pub struct FragmentationTracker {
    samples: u64,
    used_fraction_sum: f64,
    min_used_fraction: f64,
    initialized: bool,
}

impl FragmentationTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one occupancy sample.  Samples with zero capacity are ignored.
    pub fn record(&mut self, used_bytes: u64, capacity_bytes: u64) {
        if capacity_bytes == 0 {
            return;
        }
        let fraction = (used_bytes as f64 / capacity_bytes as f64).clamp(0.0, 1.0);
        self.samples += 1;
        self.used_fraction_sum += fraction;
        if !self.initialized || fraction < self.min_used_fraction {
            self.min_used_fraction = fraction;
            self.initialized = true;
        }
    }

    /// Number of samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Average fraction of cache space that was in use (what Fig. 6 plots).
    pub fn average_used_fraction(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.used_fraction_sum / self.samples as f64
        }
    }

    /// The minimum observed used fraction (the paper reports "the fraction of
    /// used space never drops below …").
    pub fn min_used_fraction(&self) -> f64 {
        if self.initialized {
            self.min_used_fraction
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(c: f64) -> ExecutionCost {
        ExecutionCost::from_block_reads(c)
    }

    #[test]
    fn empty_stats_have_zero_ratios() {
        let stats = CacheStats::new();
        assert_eq!(stats.hit_ratio(), 0.0);
        assert_eq!(stats.cost_savings_ratio(), 0.0);
        assert_eq!(stats.misses(), 0);
    }

    #[test]
    fn hit_ratio_counts_references() {
        let mut stats = CacheStats::new();
        stats.record_hit(cost(10.0));
        stats.record_miss(cost(10.0));
        stats.record_miss(cost(10.0));
        stats.record_hit(cost(10.0));
        assert_eq!(stats.references, 4);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses(), 2);
        assert!((stats.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn csr_weights_by_cost() {
        let mut stats = CacheStats::new();
        // Hit on an expensive query, miss on a cheap one.
        stats.record_hit(cost(900.0));
        stats.record_miss(cost(100.0));
        assert!((stats.cost_savings_ratio() - 0.9).abs() < 1e-12);
        assert!((stats.hit_ratio() - 0.5).abs() < 1e-12);
        assert!((stats.total_cost - stats.saved_cost - 100.0).abs() < 1e-12);
    }

    #[test]
    fn csr_and_hr_diverge_for_skewed_costs() {
        let mut stats = CacheStats::new();
        // Many cheap hits, one expensive miss: HR high, CSR low.
        for _ in 0..9 {
            stats.record_hit(cost(1.0));
        }
        stats.record_miss(cost(991.0));
        assert!(stats.hit_ratio() > 0.89);
        assert!(stats.cost_savings_ratio() < 0.01);
    }

    #[test]
    fn coalesced_references_are_hit_equivalent() {
        let mut stats = CacheStats::new();
        stats.record_miss(cost(100.0)); // the leader executes
        stats.record_coalesced(cost(100.0)); // a waiter shares the result
        stats.record_hit(cost(100.0)); // a later reference hits the cache
        assert_eq!(stats.references, 3);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.coalesced, 1);
        assert_eq!(stats.misses(), 1);
        assert_eq!(
            stats.references,
            stats.hits + stats.coalesced + stats.misses()
        );
        // Two of three references saved their cost.
        assert!((stats.hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert!((stats.cost_savings_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert!((stats.total_cost - stats.saved_cost - 100.0).abs() < 1e-12);
    }

    #[test]
    fn merge_includes_coalesced() {
        let mut a = CacheStats::new();
        a.record_coalesced(cost(10.0));
        let mut b = CacheStats::new();
        b.record_coalesced(cost(5.0));
        a.merge(&b);
        assert_eq!(a.coalesced, 2);
        assert_eq!(a.references, 2);
        assert!((a.saved_cost - 15.0).abs() < 1e-12);
    }

    #[test]
    fn admission_and_eviction_counters() {
        let mut stats = CacheStats::new();
        stats.record_admission(true);
        stats.record_admission(false);
        stats.record_admission(true);
        stats.record_eviction(128);
        stats.record_eviction(64);
        assert_eq!(stats.insertions_offered, 3);
        assert_eq!(stats.admissions, 2);
        assert_eq!(stats.rejections, 1);
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.bytes_evicted, 192);
    }

    #[test]
    fn errors_and_stale_serves_partition_references() {
        let mut stats = CacheStats::new();
        stats.record_hit(cost(100.0));
        stats.record_miss(cost(100.0));
        stats.record_coalesced(cost(100.0));
        stats.record_fetch_error();
        stats.record_stale(cost(100.0));
        assert_eq!(stats.references, 5);
        assert_eq!(stats.misses(), 1);
        assert_eq!(
            stats.references,
            stats.hits + stats.coalesced + stats.fetch_errors + stats.stale_serves + stats.misses()
        );
        // CSR: hit + coalesced saved 200 of the 400 cost observed (the
        // errored reference moved no cost; the stale serve paid but saved
        // nothing).
        assert!((stats.cost_savings_ratio() - 0.5).abs() < 1e-12);
        // HR: only fresh answers count — 2 of 5.
        assert!((stats.hit_ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn stale_serves_never_inflate_csr() {
        let mut stats = CacheStats::new();
        stats.record_miss(cost(100.0));
        let before = stats.cost_savings_ratio();
        stats.record_stale(cost(900.0));
        assert!(
            stats.cost_savings_ratio() <= before,
            "a degraded answer must not look like a saving"
        );
        assert_eq!(stats.saved_cost, 0.0);
        assert!((stats.total_cost - 1_000.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_failure_counters() {
        let mut a = CacheStats::new();
        a.record_fetch_error();
        let mut b = CacheStats::new();
        b.record_stale(cost(3.0));
        b.record_fetch_error();
        a.merge(&b);
        assert_eq!(a.fetch_errors, 2);
        assert_eq!(a.stale_serves, 1);
        assert_eq!(a.references, 3);
        assert_eq!(a.misses(), 0);
    }

    #[test]
    fn merge_adds_all_counters() {
        let mut a = CacheStats::new();
        a.record_hit(cost(5.0));
        a.record_admission(true);
        let mut b = CacheStats::new();
        b.record_miss(cost(7.0));
        b.record_eviction(10);
        a.merge(&b);
        assert_eq!(a.references, 2);
        assert_eq!(a.hits, 1);
        assert!((a.total_cost - 12.0).abs() < 1e-12);
        assert_eq!(a.evictions, 1);
    }

    #[test]
    fn fragmentation_average() {
        let mut frag = FragmentationTracker::new();
        frag.record(50, 100);
        frag.record(100, 100);
        assert_eq!(frag.samples(), 2);
        assert!((frag.average_used_fraction() - 0.75).abs() < 1e-12);
        assert!((frag.min_used_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fragmentation_ignores_zero_capacity() {
        let mut frag = FragmentationTracker::new();
        frag.record(10, 0);
        assert_eq!(frag.samples(), 0);
        assert_eq!(frag.average_used_fraction(), 0.0);
        assert_eq!(frag.min_used_fraction(), 0.0);
    }

    #[test]
    fn fragmentation_clamps_overfull_samples() {
        let mut frag = FragmentationTracker::new();
        frag.record(200, 100);
        assert!((frag.average_used_fraction() - 1.0).abs() < 1e-12);
    }
}
