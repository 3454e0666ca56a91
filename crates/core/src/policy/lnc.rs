//! LNC-R / LNC-RA: the WATCHMAN replacement and admission policies (paper §2).
//!
//! * **LNC-R** (Least Normalized Cost Replacement) evicts cached retrieved
//!   sets in ascending order of profit `λᵢ·cᵢ/sᵢ`, considering sets with
//!   fewer reference samples first (their rate estimates are less reliable).
//! * **LNC-A** (Least Normalized Cost Admission) admits a newly retrieved set
//!   only if its profit exceeds the aggregate profit of the sets it would
//!   displace; first-time sets are judged by estimated profit `cᵢ/sᵢ`.
//! * **LNC-RA** is the combination of the two; it is the policy WATCHMAN
//!   deploys, and the one evaluated in Figures 3–6 of the paper.
//!
//! [`LncCache`] implements all three as one [`LncRule`] of the shared cache
//! shell ([`RankedCache`]): the admission algorithm can be turned off in
//! [`LncConfig`] to obtain plain LNC-R, which then admits every set that
//! fits (like a buffer manager would).
//!
//! # The victim order
//!
//! The paper's §3 sketches a priority-queue implementation of LNC-R, but an
//! exact profit order cannot live in a statically keyed index: the rate
//! estimate `λᵢ = K/(now − t_K)` (Eq. 3) re-evaluates at every decision
//! point, and the profits of two untouched sets can *cross* as `now`
//! advances (their profit curves are hyperbolas with different poles).
//! What does hold still is a lower bound: until a set is referenced again
//! its profit is `samples·cᵢ/sᵢ` over a time that only grows.  The cache
//! files every set in a decay index (`crate::decay`) by sample-count group,
//! the top bits of that weight and `t_K`, and reads the two-level eviction
//! order of Figure 1 off it: the index merges its buckets best-first by the
//! bound, each set it reaches is scored by the reference expression, and a
//! set is a victim once no unreached bound is at or below its
//! `(samples, profit, slot)` rank.  A decision looks at the buckets of the
//! lowest group and at the sets it hands out, not at the cache (a set it
//! passes over is re-anchored so that it is not looked at again until its
//! profit has nearly decayed to the answer's); the victims are bit-identical
//! to the reference sort (asserted by the differential property tests).
//!
//! A hit records its reference and leaves the index alone: a reference only
//! raises a set's group and profit, so the position it was filed at stays a
//! valid bound and is corrected when a decision next reaches it.  An
//! invalidation leaves a dead item behind for the same treatment.  Only a
//! refresh with a new size or cost re-files at once.  The bound needs a
//! `now` that never steps back; the shell raises every `now` it is passed to
//! the latest one it has seen, so a lagging reference is recorded at that
//! time.
//!
//! # The least cached profit
//!
//! Every admission and every rejection ends with the §2.4 purge, which needs
//! the least profit among cached sets across groups.  The shell keeps the
//! set the last such ascent found, with its profit then, as a certificate:
//! until that set is hit, refreshed, evicted or invalidated (or the cache is
//! cleared), no least can be above that profit, because the set's own profit
//! only decays and an admission only adds candidates.  Within a certificate
//! the ascent reads only the decay index's due buckets (`crate::decay`, "Due
//! buckets") and keys them against its answer, the next certificate; a
//! voided one reads every bucket.  The answer and the sets scored on the way
//! are the full ascent's, so a decision costs a bucket or two here instead of
//! one per weight class, and the purge does the same against its threshold.
//!
//! # Rejections without victims
//!
//! Most first-time sets LNC-A sees are turned away: one-off queries whose
//! `c/s` (Eq. 7) does not beat `Σcᵢ/Σsᵢ` (Eq. 8) of the sets they would
//! displace.  Eq. 8 is a mediant, at least the least `cᵢ/sᵢ` among the
//! victims, so a lower bound on that suffices to reject, and the cache has
//! one without selecting anybody.  It keeps its bytes per sample-count group
//! (updated in O(1) on admit, evict, invalidate, refresh and a hit that adds
//! a sample); Figure 1 takes every victim from the groups up to the first
//! whose cumulative bytes reach the space needed; and the decay index's
//! floors bound `cᵢ/sᵢ` from below for every set in those groups.  A set whose
//! `c/s` is at or under that bound, less a slack for the roundings of Eq. 8
//! over up to every cached set, is rejected with the same retention and purge
//! as after a selection.  Every other first-time set, and every set with a
//! history, goes through the selection and the comparison unchanged, so the
//! decisions are the reference's bit for bit; only the work differs.

use crate::clock::Timestamp;
use crate::decay::DecayIndex;
use crate::history::{ReferenceHistory, MAX_WINDOW};
use crate::index::{EntryId, EntryStore};
use crate::key::QueryKey;
use crate::policy::ranked::{Entry, RankRule, RankedCache, VictimOrder};
use crate::profit::Profit;
use crate::retained::{RetainedInfo, RetainedOrder, RetainedStore};
use crate::value::{CachePayload, ExecutionCost};

/// Configuration of an [`LncCache`].
#[derive(Debug, Clone, PartialEq)]
pub struct LncConfig {
    /// Cache capacity in bytes.  Use [`LncConfig::unbounded`] for the
    /// infinite-cache experiments.
    pub capacity_bytes: u64,
    /// Number of reference timestamps retained per set (the `K` of Eq. 3),
    /// at most [`MAX_WINDOW`]: a history keeps no more samples.
    pub k: usize,
    /// Whether the LNC-A admission test is applied (true → LNC-RA,
    /// false → LNC-R).
    pub admission: bool,
    /// Whether reference information of evicted / rejected sets is retained
    /// (paper §2.4).  Disabling this reproduces the starvation behaviour the
    /// paper warns about and is exposed for ablation experiments.
    pub retain_reference_info: bool,
    /// Hard bound on the number of retained reference-information entries.
    pub max_retained_entries: usize,
}

impl LncConfig {
    /// The default hard bound on retained reference-information entries.
    pub const DEFAULT_MAX_RETAINED: usize = 16_384;

    /// LNC-RA with the paper's default window of `K = 4` and retained
    /// reference information enabled.
    pub fn lnc_ra(capacity_bytes: u64) -> Self {
        LncConfig {
            capacity_bytes,
            k: 4,
            admission: true,
            retain_reference_info: true,
            max_retained_entries: Self::DEFAULT_MAX_RETAINED,
        }
    }

    /// LNC-R (no admission control) with `K = 4`.
    pub fn lnc_r(capacity_bytes: u64) -> Self {
        LncConfig {
            admission: false,
            ..Self::lnc_ra(capacity_bytes)
        }
    }

    /// Returns the configuration with a different reference window `K`,
    /// clamped to `1..=`[`MAX_WINDOW`].
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k.clamp(1, MAX_WINDOW);
        self
    }

    /// Returns the configuration with retained reference information enabled
    /// or disabled.
    pub fn with_retained_info(mut self, enabled: bool) -> Self {
        self.retain_reference_info = enabled;
        self
    }

    /// An effectively infinite cache (used by the Figure 2 experiment).
    pub fn unbounded() -> Self {
        Self::lnc_ra(u64::MAX)
    }
}

/// LNC-R's ranking and LNC-A's admission test over sets whose state is their
/// reference history, with the §2.4 retained histories kept in a store
/// ordered by `X`.
#[derive(Debug, Clone)]
pub struct LncRule<X: RetainedOrder = DecayIndex> {
    k: usize,
    admission: bool,
    retain_reference_info: bool,
    retained: RetainedStore<X>,
    /// Rejections the bound settled without a victim selection.
    #[cfg(test)]
    settled_by_bound: u64,
}

impl<X: RetainedOrder> LncRule<X> {
    /// The set's reference rate (Eq. 3) at `now`.
    fn rate(set: &RetainedInfo, now: Timestamp) -> f64 {
        set.state.rate(now).unwrap_or(0.0)
    }

    pub(crate) fn new(config: &LncConfig) -> Self {
        LncRule {
            k: config.k.clamp(1, MAX_WINDOW),
            admission: config.admission,
            retain_reference_info: config.retain_reference_info,
            retained: RetainedStore::new(config.max_retained_entries),
            #[cfg(test)]
            settled_by_bound: 0,
        }
    }
}

impl<X: RetainedOrder> RankRule for LncRule<X> {
    type State = ReferenceHistory;
    type Rank = Profit;

    fn name(&self) -> &'static str {
        if self.admission {
            "LNC-RA"
        } else {
            "LNC-R"
        }
    }

    /// Sets with fewer reference samples have less reliable rate estimates
    /// and are evicted first (Figure 1).
    fn group(history: &ReferenceHistory) -> usize {
        history.sample_count()
    }

    fn groups(&self) -> usize {
        self.k + 1
    }

    /// The paper's profit `λ·c/s`, which is also what the least set is worth.
    fn rank(set: &RetainedInfo, now: Timestamp) -> Profit {
        set.profit(now)
    }

    fn price(set: &RetainedInfo, now: Timestamp) -> Profit {
        set.profit(now)
    }

    /// The retained history if one exists, with the current reference, or a
    /// fresh history holding only it.
    fn admit(
        &mut self,
        key: &QueryKey,
        _: ExecutionCost,
        _: u64,
        now: Timestamp,
    ) -> ReferenceHistory {
        match self.retained.take(key) {
            Some(mut info) => {
                info.state.record_once(now);
                info.state
            }
            None => ReferenceHistory::with_first_reference(self.k, now),
        }
    }

    // Skip duplicate timestamps: a single-flight waiter retrying after an
    // abandoned flight re-issues the same logical reference, and its first
    // pass may already sit in the history via promoted retained information.
    fn touch(&mut self, set: &mut RetainedInfo, now: Timestamp) {
        set.state.record_once(now);
    }

    /// Records the reference against retained information, if any, so that
    /// the admission decision that typically follows sees it.
    fn missed(&mut self, key: &QueryKey, now: Timestamp) {
        if self.retain_reference_info {
            self.retained.record_reference(key, now);
        }
    }

    /// Whether Eq. 8 rejects a first-time set whatever victims free `needed`
    /// bytes (see "Rejections without victims").
    fn rejects_unseen(
        &mut self,
        set: &RetainedInfo,
        needed: u64,
        group_bytes: &[u64],
        cached: usize,
        floor: impl FnOnce(u32) -> f64,
    ) -> bool {
        if !self.admission || set.state.sample_count() > 1 {
            return false;
        }
        let mut cumulative = 0;
        let Some(groups) = group_bytes.iter().position(|&bytes| {
            cumulative += bytes;
            cumulative >= needed
        }) else {
            return false;
        };
        let least = floor(groups as u32);
        // With u = 2⁻⁵³ and m ≤ n victims (n cached sets): each sum of Eq. 8
        // rounds m − 1 times and the sizes are converted once each, so with
        // the quotient the computed ratio is at least (1 − 3m·u) of the exact
        // Σcᵢ/Σsᵢ, itself at least the least exact cᵢ/sᵢ.  `least` exceeds
        // that by at most (1 + 4u) (the roundings of `samples·c/s` and of
        // `floor/group`), and the product below rounds once more.  The slack
        // (n + 4)·4u covers 3m·u + 6u with room for the second-order terms,
        // so a set at or under the product is at or under Eq. 8 as computed.
        let slack = (cached + 4) as f64 * 2.0 * f64::EPSILON;
        let estimated = Profit::estimated(set.cost, set.size_bytes);
        let rejected = estimated <= Profit::new(least * (1.0 - slack));
        #[cfg(test)]
        {
            self.settled_by_bound += u64::from(rejected);
        }
        rejected
    }

    /// Past reference information compares real profits (Eq. 4 / Eq. 5); a
    /// first-time set compares estimated ones (Eq. 7 / Eq. 8).  Plain LNC-R
    /// admits everything that fits.
    fn admits<'e>(
        &self,
        set: &RetainedInfo,
        victims: impl Iterator<Item = &'e RetainedInfo>,
        now: Timestamp,
    ) -> bool {
        if !self.admission {
            true
        } else if set.state.sample_count() > 1 {
            let victims = victims.map(|v| (Self::rate(v, now), v.cost, v.size_bytes));
            set.profit(now) > Profit::of_list(victims)
        } else {
            let victims = victims.map(|v| (v.cost, v.size_bytes));
            Profit::estimated(set.cost, set.size_bytes) > Profit::estimated_of_list(victims)
        }
    }

    /// Retains the reference information of an evicted or rejected set (a
    /// rejected one may be admitted later once enough references accumulate,
    /// §2.4, last paragraph).
    fn denied(&mut self, set: RetainedInfo, now: Timestamp) {
        if self.retain_reference_info {
            self.retained.insert(set, now);
        }
    }

    /// The set can never fit; remember its references anyway.
    fn oversized(&mut self, key: &QueryKey, cost: ExecutionCost, size: u64, now: Timestamp) {
        let state = self.admit(key, cost, size, now);
        let (key, size_bytes) = (key.clone(), size);
        self.denied(
            RetainedInfo {
                key,
                size_bytes,
                cost,
                state,
            },
            now,
        );
    }

    /// The §2.4 retention policy: drop retained histories whose profit is
    /// below the least profit among cached sets.
    fn purge(&mut self, least: impl FnOnce() -> Option<Profit>, now: Timestamp) {
        if !self.retain_reference_info || self.retained.is_empty() {
            return;
        }
        if let Some(min_profit) = least() {
            self.retained.purge_below(min_profit, now);
        }
    }

    fn cleared(&mut self) {
        self.retained.clear();
    }

    #[cfg(test)]
    fn retained_keys(&self) -> Vec<QueryKey> {
        self.retained.iter().map(|info| info.key.clone()).collect()
    }
}

/// Figure 1's decaying two-level order, read off the decay index (see the
/// module docs).  A reference or an invalidation leaves it alone; sets of
/// equal profit fall to their slot, as the reference sort's do.
impl VictimOrder<LncRule> for DecayIndex {
    fn new() -> Self {
        DecayIndex::grouped()
    }

    fn file(&mut self, set: &RetainedInfo, slot: EntryId, _: Timestamp) {
        DecayIndex::file(self, set, slot);
    }

    fn ascend<V>(
        &mut self,
        entries: &EntryStore<Entry<V, ReferenceHistory>>,
        now: Timestamp,
        by_group: bool,
        mut take: impl FnMut(EntryId) -> bool,
    ) {
        let set = |id: EntryId| Some((&entries.by_id(id)?.info, id.index() as u64));
        DecayIndex::ascend(self, now, by_group, None, None, set, |id, _| take(id));
    }

    /// Reads only the due buckets within a certificate, and keys them
    /// against the answer, the next certificate.
    fn least<V>(
        &mut self,
        entries: &EntryStore<Entry<V, ReferenceHistory>>,
        now: Timestamp,
        within: Option<Profit>,
    ) -> Option<(EntryId, Profit)> {
        let set = |id: EntryId| Some((&entries.by_id(id)?.info, id.index() as u64));
        let mut least = None;
        DecayIndex::ascend(self, now, false, None, within, set, |id, profit| {
            least = Some((id, profit));
            false
        });
        if let Some((_, profit)) = least {
            self.key(profit);
        }
        least
    }

    fn least_ratio(&self, groups: u32) -> f64 {
        DecayIndex::least_ratio(self, groups)
    }

    fn clear(&mut self) {
        DecayIndex::clear(self);
    }
}

/// The LNC-R / LNC-RA retrieved-set cache.
pub type LncCache<V> = RankedCache<V, LncRule, DecayIndex>;

impl<V: CachePayload, X: RetainedOrder, O: VictimOrder<LncRule<X>>> RankedCache<V, LncRule<X>, O> {
    /// Creates a cache with the given configuration.
    pub fn new(config: LncConfig) -> Self {
        RankedCache::with_rule(config.capacity_bytes, LncRule::new(&config))
    }

    /// Creates an LNC-RA cache with capacity `capacity_bytes` and `K = 4`.
    pub fn lnc_ra(capacity_bytes: u64) -> Self {
        Self::new(LncConfig::lnc_ra(capacity_bytes))
    }

    /// Creates an LNC-R cache (no admission control) with `K = 4`.
    pub fn lnc_r(capacity_bytes: u64) -> Self {
        Self::new(LncConfig::lnc_r(capacity_bytes))
    }

    /// Number of retained reference-information entries currently held.
    pub fn retained_entries(&self) -> usize {
        self.rule.retained.len()
    }

    /// Approximate bytes of metadata used by retained reference information.
    pub fn retained_metadata_bytes(&self) -> u64 {
        self.rule.retained.metadata_bytes()
    }

    /// The profit of the cached set for `key` at time `now`, if cached.
    pub fn profit_of(&self, key: &QueryKey, now: Timestamp) -> Option<Profit> {
        Some(self.info(key)?.profit(now))
    }

    /// Removes the retrieved set for `key` from the cache, returning its
    /// payload if it was resident.
    ///
    /// This is the *invalidation* entry point used by the cache-coherence
    /// machinery ([`crate::coherence`]): when the warehouse manager applies an
    /// update that affects a cached query, the stale retrieved set is removed
    /// so the next reference recomputes it.  Unlike an eviction, an
    /// invalidation does not retain the set's reference information (the
    /// update may have changed the set's size and cost) and is not counted in
    /// the eviction statistics.
    pub fn remove(&mut self, key: &QueryKey) -> Option<V> {
        self.invalidate(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::differential::Scan;
    use crate::policy::ranked::contract::{key, ts};
    use crate::policy::{InsertOutcome, QueryCache, RejectReason};
    use crate::value::SizedPayload;

    /// The same policy over the order that re-scores and sorts.
    type ScanLnc = RankedCache<SizedPayload, LncRule<Scan>, Scan>;

    fn cost(c: f64) -> ExecutionCost {
        ExecutionCost::from_block_reads(c)
    }

    fn payload(bytes: u64) -> SizedPayload {
        SizedPayload::new(bytes)
    }

    /// Reference a query: get (miss expected) then insert.
    fn reference(
        cache: &mut impl QueryCache<SizedPayload>,
        name: &str,
        size: u64,
        c: f64,
        now: u64,
    ) -> InsertOutcome {
        let k = key(name);
        if cache.get(&k, ts(now)).is_some() {
            return InsertOutcome::already_cached();
        }
        cache.insert(k, payload(size), cost(c), ts(now))
    }

    #[test]
    fn names_reflect_admission_setting() {
        let ra: LncCache<SizedPayload> = LncCache::lnc_ra(100);
        let r: LncCache<SizedPayload> = LncCache::lnc_r(100);
        assert_eq!(ra.name(), "LNC-RA");
        assert_eq!(r.name(), "LNC-R");
    }

    #[test]
    fn get_hit_returns_value_and_updates_stats() {
        let mut cache = LncCache::lnc_ra(1_000);
        assert!(cache.get(&key("q"), ts(1)).is_none());
        cache.insert(key("q"), payload(100), cost(50.0), ts(1));
        assert!(cache.get(&key("q"), ts(2)).is_some());
        assert_eq!(cache.stats().hits, 1);
        // One miss (counted at insert time) plus one hit.
        assert_eq!(cache.stats().references, 2);
        assert!((cache.stats().saved_cost - 50.0).abs() < 1e-9);
    }

    #[test]
    fn insert_fits_in_free_space_without_eviction() {
        let mut cache = LncCache::lnc_ra(1_000);
        let outcome = reference(&mut cache, "a", 400, 10.0, 1);
        assert!(outcome.is_admitted());
        assert!(outcome.evicted().is_empty());
        assert_eq!(cache.used_bytes(), 400);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut cache = LncCache::lnc_ra(0);
        let outcome = reference(&mut cache, "a", 1, 10.0, 1);
        assert_eq!(outcome, InsertOutcome::Rejected(RejectReason::ZeroCapacity));
        assert!(cache.is_empty());
    }

    #[test]
    fn oversized_set_is_rejected_as_too_large() {
        let mut cache = LncCache::lnc_ra(100);
        let outcome = reference(&mut cache, "huge", 500, 10.0, 1);
        assert_eq!(outcome, InsertOutcome::Rejected(RejectReason::TooLarge));
    }

    #[test]
    fn reinsert_of_cached_key_refreshes_in_place() {
        let mut cache = LncCache::lnc_ra(1_000);
        reference(&mut cache, "a", 400, 10.0, 1);
        let outcome = cache.insert(key("a"), payload(300), cost(20.0), ts(2));
        assert_eq!(outcome, InsertOutcome::already_cached());
        assert_eq!(cache.used_bytes(), 300);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn admission_rejects_cheap_large_set_that_would_displace_valuable_ones() {
        // Cache full of small, expensive, frequently referenced aggregates.
        let mut cache = LncCache::lnc_ra(1_000);
        for i in 0..10 {
            let name = format!("agg{i}");
            reference(&mut cache, &name, 100, 1_000.0, i + 1);
        }
        // Reference them again so they have healthy rate estimates.
        for i in 0..10 {
            let name = format!("agg{i}");
            assert!(cache.get(&key(&name), ts(100 + i)).is_some());
        }
        assert_eq!(cache.used_bytes(), 1_000);
        // A cheap projection with a huge retrieved set shows up.
        let outcome = reference(&mut cache, "projection", 900, 10.0, 200);
        assert_eq!(
            outcome,
            InsertOutcome::Rejected(RejectReason::AdmissionTest),
            "LNC-A must not let a cheap large set evict expensive aggregates"
        );
        assert_eq!(cache.len(), 10);
    }

    #[test]
    fn lnc_r_without_admission_accepts_the_same_set() {
        let mut cache = LncCache::lnc_r(1_000);
        for i in 0..10 {
            let name = format!("agg{i}");
            reference(&mut cache, &name, 100, 1_000.0, i + 1);
        }
        let outcome = reference(&mut cache, "projection", 900, 10.0, 200);
        assert!(outcome.is_admitted(), "LNC-R admits whatever fits");
        assert!(cache.used_bytes() <= 1_000);
    }

    #[test]
    fn admission_accepts_expensive_small_set() {
        let mut cache = LncCache::lnc_ra(1_000);
        // Fill with mediocre sets.
        for i in 0..10 {
            let name = format!("med{i}");
            reference(&mut cache, &name, 100, 50.0, i + 1);
        }
        // An expensive small aggregate should displace one of them.
        let outcome = reference(&mut cache, "expensive", 100, 10_000.0, 50);
        assert!(outcome.is_admitted());
        assert!(!outcome.evicted().is_empty());
        assert!(cache.contains(&key("expensive")));
        assert!(cache.used_bytes() <= 1_000);
    }

    #[test]
    fn eviction_prefers_sets_with_fewer_reference_samples() {
        let mut cache = LncCache::new(LncConfig::lnc_r(300).with_k(3));
        // "old" has 3 reference samples, "new" only 1; both same size/cost.
        reference(&mut cache, "old", 100, 100.0, 1);
        cache.get(&key("old"), ts(10));
        cache.get(&key("old"), ts(20));
        reference(&mut cache, "new", 100, 100.0, 25);
        reference(&mut cache, "other", 100, 100.0, 30);
        assert_eq!(cache.used_bytes(), 300);
        // Force an eviction; "new"/"other" (1 sample) must go before "old".
        let outcome = reference(&mut cache, "incoming", 150, 100.0, 40);
        assert!(outcome.is_admitted());
        assert!(
            cache.contains(&key("old")),
            "the set with the full reference history must survive"
        );
    }

    #[test]
    fn victims_are_lowest_profit_first_within_same_sample_count() {
        let mut cache = LncCache::lnc_r(300);
        reference(&mut cache, "cheap", 100, 1.0, 1);
        reference(&mut cache, "pricey", 100, 1_000.0, 2);
        reference(&mut cache, "mid", 100, 100.0, 3);
        // Need 100 bytes → exactly one victim → must be "cheap".
        let outcome = reference(&mut cache, "incoming", 100, 500.0, 10);
        assert!(outcome.is_admitted());
        assert_eq!(outcome.evicted(), &[key("cheap")]);
        assert!(cache.contains(&key("pricey")));
        assert!(cache.contains(&key("mid")));
    }

    /// Five 100-byte sets filling a 500-byte LNC-RA cache, with this table
    /// at t = 100 µs (λ = samples / (100 − oldest reference), Eq. 3):
    ///
    /// ```text
    /// set  cost  refs    samples  λ      c/s  profit λ·c/s (Eq. 2)
    /// v1     50  10      1        1/90   0.5  0.005556
    /// v2    400  20      1        1/80   4    0.05
    /// v3    100  30, 60  2        2/70   1    0.028571
    /// v4    300  40, 70  2        2/60   3    0.1
    /// v5   1000  50, 80  2        2/50   10   0.4
    /// ```
    ///
    /// Figure 1 takes the one-sample group first, so a 300-byte newcomer
    /// displaces v1, v2, v3 in that order: v2 goes before v3 although its
    /// profit is higher.  For those victims Eq. 5 is
    /// (50/90 + 400/80 + 200/70) / 300 = 8.412698 / 300 = 0.028042 and
    /// Eq. 8 is (50 + 400 + 100) / 300 = 1.833333.
    fn five_sets() -> LncCache<SizedPayload> {
        let mut cache = LncCache::lnc_ra(500);
        for (name, c, at) in [
            ("v1", 50.0, 10),
            ("v2", 400.0, 20),
            ("v3", 100.0, 30),
            ("v4", 300.0, 40),
            ("v5", 1_000.0, 50),
        ] {
            assert!(reference(&mut cache, name, 100, c, at).is_admitted());
        }
        for (name, at) in [("v3", 60), ("v4", 70), ("v5", 80)] {
            assert!(cache.get(&key(name), ts(at)).is_some());
        }
        let now = ts(100);
        let profit = |name| cache.profit_of(&key(name), now).unwrap().value();
        for (name, expected) in [
            ("v1", 50.0 / 90.0 / 100.0),
            ("v2", 400.0 / 80.0 / 100.0),
            ("v3", 200.0 / 70.0 / 100.0),
            ("v4", 600.0 / 60.0 / 100.0),
            ("v5", 2_000.0 / 50.0 / 100.0),
        ] {
            assert!((profit(name) - expected).abs() < 1e-12, "{name}");
        }
        cache
    }

    fn residents(cache: &LncCache<SizedPayload>) -> Vec<QueryKey> {
        let mut keys = cache.cached_keys();
        keys.sort();
        keys
    }

    #[test]
    fn eq7_eq8_by_hand_on_five_sets() {
        let victims = vec![key("v1"), key("v2"), key("v3")];
        // The bound: 300 bytes are needed and the groups up to 2 hold all
        // 500, so it is the least c/s in them, v1's 0.5.
        let mut cache = five_sets();
        assert_eq!(cache.order.least_ratio(2), 0.5);
        // c/s = 120/300 = 0.4 ≤ 0.5: rejected by the bound, no selection.
        let outcome = reference(&mut cache, "x", 300, 120.0, 100);
        assert_eq!(
            outcome,
            InsertOutcome::Rejected(RejectReason::AdmissionTest)
        );
        assert_eq!(cache.rule.settled_by_bound, 1);
        assert_eq!(cache.len(), 5);

        // c/s = 540/300 = 1.8: above the bound, at or under Eq. 8's 1.833333,
        // so the selection runs and Eq. 7 loses the comparison.
        let mut cache = five_sets();
        let outcome = reference(&mut cache, "x", 300, 540.0, 100);
        assert_eq!(
            outcome,
            InsertOutcome::Rejected(RejectReason::AdmissionTest)
        );
        assert_eq!(cache.rule.settled_by_bound, 0);
        assert_eq!(cache.len(), 5);

        // c/s = 560/300 = 1.866667 > 1.833333: admitted over v1, v2, v3.
        let mut cache = five_sets();
        let outcome = reference(&mut cache, "x", 300, 560.0, 100);
        assert_eq!(outcome.evicted(), victims.as_slice());
        assert!(outcome.is_admitted());
        assert_eq!(residents(&cache), vec![key("v4"), key("v5"), key("x")]);
    }

    #[test]
    fn eq4_eq5_by_hand_on_five_sets() {
        // "x" is first offered at t = 90 with c/s = 0.4, under the bound, and
        // rejected; its retained history survives the purge (profit 0.4 at
        // t = 90 against a least cached profit of v1's 1/80 · 0.5).  Offered
        // again at t = 100 it has two samples, λ = 2/(100 − 90) = 0.2, so
        // Eq. 4 compares 0.2 · c/300 with Eq. 5's 0.028042: it admits for
        // c > 42.063.  The bound never applies to a set with a history, even
        // one whose c/s (0.14) is under it.
        for (c, admitted) in [(42.0, false), (43.0, true)] {
            let mut cache = five_sets();
            let first = reference(&mut cache, "x", 300, 120.0, 90);
            assert_eq!(first, InsertOutcome::Rejected(RejectReason::AdmissionTest));
            assert_eq!(cache.rule.settled_by_bound, 1);
            let outcome = reference(&mut cache, "x", 300, c, 100);
            assert_eq!(cache.rule.settled_by_bound, 1, "c = {c}");
            if admitted {
                assert_eq!(outcome.evicted(), &[key("v1"), key("v2"), key("v3")]);
                assert_eq!(residents(&cache), vec![key("v4"), key("v5"), key("x")]);
            } else {
                assert_eq!(
                    outcome,
                    InsertOutcome::Rejected(RejectReason::AdmissionTest),
                    "c = {c}"
                );
                assert_eq!(cache.len(), 5);
            }
        }
    }

    #[test]
    fn retained_reference_info_enables_later_admission() {
        // A small expensive set is initially rejected because the cache is
        // full of equally good sets; after repeated references its retained
        // history gives it a higher profit and it gets admitted.
        let mut cache = LncCache::new(LncConfig::lnc_ra(400).with_k(2));
        for i in 0..4 {
            let name = format!("resident{i}");
            reference(&mut cache, &name, 100, 100.0, i + 1);
            cache.get(&key(&name), ts(10 + i));
        }
        // First attempt: same cost/size as residents → not strictly better →
        // rejected, but its reference info is retained.
        let first = reference(&mut cache, "contender", 100, 100.0, 1_000);
        assert_eq!(first, InsertOutcome::Rejected(RejectReason::AdmissionTest));
        assert!(cache.retained_entries() > 0);
        // Re-reference the contender several times in quick succession: its
        // rate estimate becomes much higher than the residents'.
        let mut outcome = InsertOutcome::already_cached();
        for t in 0..5u64 {
            let now = 1_010 + t;
            if cache.get(&key("contender"), ts(now)).is_none() {
                outcome = cache.insert(key("contender"), payload(100), cost(100.0), ts(now));
            }
        }
        assert!(
            outcome.is_admitted(),
            "retained reference information must eventually win admission, got {outcome:?}"
        );
        assert!(cache.contains(&key("contender")));
    }

    #[test]
    fn disabling_retained_info_keeps_store_empty() {
        let mut cache: LncCache<SizedPayload> =
            LncCache::new(LncConfig::lnc_ra(200).with_retained_info(false));
        reference(&mut cache, "a", 150, 100.0, 1);
        reference(&mut cache, "b", 150, 1.0, 2); // rejected or evicts a
        reference(&mut cache, "c", 150, 1.0, 3);
        assert_eq!(cache.retained_entries(), 0);
        assert_eq!(cache.retained_metadata_bytes(), 0);
    }

    #[test]
    fn used_bytes_never_exceeds_capacity() {
        let mut cache = LncCache::lnc_ra(1_000);
        for i in 0..200u64 {
            let name = format!("q{}", i % 37);
            let size = 50 + (i % 13) * 30;
            let c = 10.0 + (i % 7) as f64 * 100.0;
            let _ = reference(&mut cache, &name, size, c, i + 1);
            assert!(cache.used_bytes() <= cache.capacity_bytes());
        }
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let mut cache = LncCache::new(LncConfig::unbounded());
        for i in 0..100u64 {
            let name = format!("q{i}");
            let outcome = reference(&mut cache, &name, 1_000_000, 10.0, i + 1);
            assert!(outcome.is_admitted());
            assert!(outcome.evicted().is_empty());
        }
        assert_eq!(cache.len(), 100);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn clear_removes_entries_but_keeps_stats() {
        let mut cache = LncCache::lnc_ra(1_000);
        reference(&mut cache, "a", 100, 10.0, 1);
        cache.get(&key("a"), ts(2));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.used_bytes(), 0);
        assert_eq!(cache.stats().hits, 1);
        assert!(!cache.contains(&key("a")));
    }

    #[test]
    fn cached_keys_lists_all_entries() {
        let mut cache = LncCache::lnc_ra(1_000);
        reference(&mut cache, "a", 100, 10.0, 1);
        reference(&mut cache, "b", 100, 10.0, 2);
        let mut keys: Vec<String> = cache
            .cached_keys()
            .into_iter()
            .map(|k| k.text().to_owned())
            .collect();
        keys.sort();
        assert_eq!(keys, vec!["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn utilization_reflects_occupancy() {
        let mut cache = LncCache::lnc_ra(1_000);
        assert_eq!(cache.utilization(), 0.0);
        reference(&mut cache, "a", 250, 10.0, 1);
        assert!((cache.utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn min_cached_profit_matches_lowest_entry() {
        let mut cache = LncCache::lnc_ra(10_000);
        reference(&mut cache, "low", 1_000, 1.0, 1);
        reference(&mut cache, "high", 10, 1_000.0, 2);
        let now = ts(100);
        let min = cache.min_cached_profit(now).unwrap();
        assert_eq!(min, cache.profit_of(&key("low"), now).unwrap());
        assert!(min < cache.profit_of(&key("high"), now).unwrap());
    }

    #[test]
    fn index_min_matches_scan_after_a_selection() {
        let mut cache = LncCache::lnc_r(2_000);
        let mut scan = ScanLnc::lnc_r(2_000);
        for i in 0..12u64 {
            let name = format!("q{i}");
            reference(&mut cache, &name, 150, 10.0 + i as f64 * 37.0, i + 1);
            reference(&mut scan, &name, 150, 10.0 + i as f64 * 37.0, i + 1);
            if i % 3 == 0 {
                cache.get(&key(&name), ts(40 + i));
                scan.get(&key(&name), ts(40 + i));
            }
        }
        let now = ts(100);
        // A selection re-files the stale sets it reaches; the minimum read
        // off the index afterwards must still be the scan's.
        let _ = cache.select(1, now);
        assert_eq!(cache.min_cached_profit(now), scan.min_cached_profit(now));
    }

    #[test]
    fn the_bound_leaves_an_eq8_that_rounds_down_to_the_selection() {
        // Victims that all have the candidate's c/s, but whose Eq. 8 sum
        // rounds below it, so the reference admits; the floor they leave is
        // exactly c/s, and only the slack keeps the bound from rejecting.
        let (m, c, s) = (2..=8u64)
            .flat_map(|m| (1..100).flat_map(move |k| (1..20).map(move |s| (m, k, s))))
            .map(|(m, k, s)| (m, f64::from(k) / 10.0, s))
            .find(|&(m, c, s)| {
                let e = Profit::estimated(cost(c), s);
                Profit::estimated_of_list((0..m).map(|_| (cost(c), s))) < e
                    && Profit::estimated(cost(c * m as f64), m * s) == e
            })
            .expect("a small search finds an Eq. 8 that rounds down");
        let mut cache = LncCache::lnc_ra(m * s);
        let mut scan = ScanLnc::lnc_ra(m * s);
        for i in 0..m {
            assert!(reference(&mut cache, &format!("v{i}"), s, c, i + 1).is_admitted());
            assert!(reference(&mut scan, &format!("v{i}"), s, c, i + 1).is_admitted());
        }
        let outcome = reference(&mut cache, "candidate", m * s, c * m as f64, 100);
        assert_eq!(
            outcome,
            reference(&mut scan, "candidate", m * s, c * m as f64, 100)
        );
        assert_eq!(outcome.evicted().len() as u64, m, "{outcome:?}");
        assert_eq!(cache.rule.settled_by_bound, 0);
    }

    /// Rejections settled without a selection on the golden skewed trace
    /// (`crates/sim/tests/golden_replay.rs`: seed 13, 4 shards), summed over
    /// the shards, beside the rejections pinned there.
    const SKEWED_RA_4_SETTLED: (u64, u64) = (4_897, 3_966);

    /// Replays the golden skewed trace through four LNC-RA shards, each
    /// reference's time moved back by `lag(i)` µs for the `i`-th record.
    fn replay_skewed(lag: impl Fn(usize) -> u64) -> Vec<LncCache<SizedPayload>> {
        use watchman_sim::{ExperimentScale, Workload};
        let trace = Workload::tpcd_skewed(ExperimentScale::quick(12_000).with_seed(13)).trace;
        let shards = 4;
        let per_shard = (trace.database_bytes as f64 * 0.01).round() as u64 / shards;
        let mut caches: Vec<LncCache<SizedPayload>> = (0..shards)
            .map(|_| LncCache::new(LncConfig::lnc_ra(per_shard).with_k(4)))
            .collect();
        for (i, record) in trace.iter().enumerate() {
            let now = ts(record.timestamp_us.saturating_sub(lag(i)));
            let key = QueryKey::from_raw_query(&record.query_text);
            let mixed = key.signature().value().wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let cache = &mut caches[((mixed >> 32) % shards) as usize];
            if cache.get(&key, now).is_none() {
                let size = payload(record.result_bytes);
                cache.insert(
                    key,
                    size,
                    ExecutionCost::from_blocks(record.cost_blocks),
                    now,
                );
            }
        }
        caches
    }

    #[test]
    fn the_bound_settles_the_golden_skewed_rejections() {
        let caches = replay_skewed(|_| 0);
        let rejections = caches.iter().map(|c| c.stats().rejections).sum();
        let settled = caches.iter().map(|c| c.rule.settled_by_bound).sum();
        assert_eq!((rejections, settled), SKEWED_RA_4_SETTLED);
    }

    /// Profit evaluations of a replay: the cache's victim order and the
    /// retained store's, over every shard.
    fn evaluations(caches: &[LncCache<SizedPayload>]) -> u64 {
        caches
            .iter()
            .map(|c| c.order.evaluations() + c.rule.retained.evaluations())
            .sum()
    }

    #[test]
    fn a_lagging_now_costs_what_an_in_order_one_costs() {
        // One reference in eight reaches its shard up to 300 ms late, as when
        // two sessions' timestamps interleave; the cache records it at the
        // latest time it has seen, and every bound stays valid.
        let in_order = evaluations(&replay_skewed(|_| 0));
        let lagging = evaluations(&replay_skewed(|i| {
            if i % 8 == 7 {
                ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % 300_001
            } else {
                0
            }
        }));
        assert!(
            lagging * 10 <= in_order * 11,
            "lagging replay evaluated {lagging} profits, in-order {in_order}"
        );
    }

    #[test]
    fn a_hit_leaves_the_index_alone() {
        let mut cache = LncCache::lnc_ra(100_000);
        for i in 0..50u64 {
            reference(&mut cache, &format!("q{i}"), 1_000, 10.0 + i as f64, i + 1);
        }
        let _ = cache.select(5_000, ts(100));
        let index = format!("{:?}", cache.order);
        let retained = format!("{:?}", cache.rule.retained);
        for i in 0..50u64 {
            assert!(cache.get(&key(&format!("q{i}")), ts(200 + i)).is_some());
        }
        assert_eq!(format!("{:?}", cache.order), index);
        assert_eq!(format!("{:?}", cache.rule.retained), retained);
    }

    /// What the golden skewed replay costs when every ascent reads every
    /// bucket: profit evaluations, and bucket fronts loaded by the ascents
    /// across groups (the least cached profit, the purge and the
    /// displacement) and by group (the victim selections).
    const SKEWED_RA_4_FULL_ASCENTS: (u64, u64, u64) = (18_163, 317_484, 27_069);

    #[test]
    fn due_buckets_score_the_same_sets_from_a_tenth_of_the_fronts() {
        let caches = replay_skewed(|_| 0);
        let across: u64 = caches
            .iter()
            .map(|c| c.order.fronts_loaded(false) + c.rule.retained.fronts_loaded())
            .sum();
        let by_group: u64 = caches.iter().map(|c| c.order.fronts_loaded(true)).sum();
        let (evaluated, across_full, by_group_full) = SKEWED_RA_4_FULL_ASCENTS;
        assert_eq!(evaluations(&caches), evaluated);
        // A selection still reads every bucket of the groups it reaches.
        assert_eq!(by_group, by_group_full);
        // The decisions are the same ones, so this is per decision too.
        assert!(
            across * 10 <= across_full,
            "the least profit and the purge loaded {across} fronts, not {across_full}"
        );
    }

    /// LNC-RA with `K = 2` over the decay index and over the scan, after
    /// three decisions at 1 600 µs: "low" (w = 0.1, referenced at 1 µs) and
    /// "high" (w = 1, at 1 500 µs) are cached, "mid" was rejected and is
    /// retained, and the purge that followed certified "low" as the least.
    fn certified_low() -> (LncCache<SizedPayload>, ScanLnc) {
        let config = LncConfig::lnc_ra(2_000).with_k(2);
        let mut both = (LncCache::new(config.clone()), ScanLnc::new(config));
        decide(&mut both, "low", 1_000, 100.0, 1);
        decide(&mut both, "high", 1_000, 1_000.0, 1_500);
        let outcome = decide(&mut both, "mid", 1_500, 100.0, 1_600);
        assert_eq!(
            outcome,
            InsertOutcome::Rejected(RejectReason::AdmissionTest)
        );
        both
    }

    /// A reference on both caches, which must decide, retain and price alike.
    fn decide(
        (cache, scan): &mut (LncCache<SizedPayload>, ScanLnc),
        name: &str,
        size: u64,
        c: f64,
        now: u64,
    ) -> InsertOutcome {
        let outcome = reference(cache, name, size, c, now);
        assert_eq!(outcome, reference(scan, name, size, c, now), "{name}");
        let held = |mut keys: Vec<QueryKey>| {
            keys.sort_unstable_by(|a, b| a.text().cmp(b.text()));
            keys
        };
        assert_eq!(
            held(cache.rule.retained_keys()),
            held(scan.rule.retained_keys()),
            "retained after {name}"
        );
        assert_eq!(
            cache.min_cached_profit(ts(now)),
            scan.min_cached_profit(ts(now))
        );
        outcome
    }

    // Each breaker below makes the least cached profit rise past the one
    // certified, so a certificate it left standing would have the next
    // decision read only buckets due against the old least, price the least
    // wrong, and purge a different set of histories than the scan.

    #[test]
    fn a_hit_on_the_certified_set_voids_the_certificate() {
        let mut both = certified_low();
        for now in [2_000, 2_001] {
            assert!(both.0.get(&key("low"), ts(now)).is_some());
            assert!(both.1.get(&key("low"), ts(now)).is_some());
        }
        decide(&mut both, "keeper", 1_000, 25.0, 2_005);
    }

    #[test]
    fn a_refresh_of_the_certified_set_voids_the_certificate() {
        let mut both = certified_low();
        for cache in [
            &mut both.0 as &mut dyn QueryCache<SizedPayload>,
            &mut both.1,
        ] {
            let refreshed = cache.insert(key("low"), payload(1_000), cost(100_000.0), ts(2_000));
            assert_eq!(refreshed, InsertOutcome::already_cached());
        }
        decide(&mut both, "keeper", 1_000, 25.0, 2_005);
    }

    #[test]
    fn evicting_the_certified_set_voids_the_certificate() {
        let mut both = certified_low();
        let outcome = decide(&mut both, "vip", 1_000, 10_000.0, 2_000);
        assert_eq!(outcome.evicted(), &[key("low")]);
    }

    #[test]
    fn invalidating_the_certified_set_voids_the_certificate() {
        let mut both = certified_low();
        assert!(both.0.remove(&key("low")).is_some());
        assert!(both.1.remove(&key("low")).is_some());
        decide(&mut both, "keeper", 1_000, 25.0, 2_005);
    }

    #[test]
    fn clear_voids_the_certificate() {
        let mut both = certified_low();
        both.0.clear();
        both.1.clear();
        // The first newcomer takes a slot the certified set held.
        decide(&mut both, "x", 1_000, 1_000.0, 2_000);
        decide(&mut both, "y", 2_000, 10.0, 2_001);
    }
}
