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
//! [`LncCache`] implements all three: the admission algorithm can be turned
//! off in [`LncConfig`] to obtain plain LNC-R, which then admits every set
//! that fits (like a buffer manager would).
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
//! refresh with a new size or cost re-files at once.  When `now` is earlier
//! than a reference already recorded (callers supply `now`) the bound is
//! void and that one decision scores and sorts every set.
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
use crate::history::ReferenceHistory;
use crate::index::{EntryId, EntryStore, KeyedEntry};
use crate::key::QueryKey;
use crate::metrics::CacheStats;
use crate::policy::{InsertOutcome, QueryCache, RejectReason};
use crate::profit::Profit;
use crate::retained::{RetainedInfo, RetainedStore};
use crate::value::{CachePayload, ExecutionCost};

/// Configuration of an [`LncCache`].
#[derive(Debug, Clone, PartialEq)]
pub struct LncConfig {
    /// Cache capacity in bytes.  Use [`LncConfig::unbounded`] for the
    /// infinite-cache experiments.
    pub capacity_bytes: u64,
    /// Number of reference timestamps retained per set (the `K` of Eq. 3).
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

    /// Returns the configuration with a different reference window `K`.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k.max(1);
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

/// A cached retrieved set: the statistics LNC-R needs — the same ones that
/// are retained when the set is evicted — and the payload.
#[derive(Debug, Clone)]
struct LncEntry<V> {
    info: RetainedInfo,
    value: V,
}

impl<V> KeyedEntry for LncEntry<V> {
    fn key(&self) -> &QueryKey {
        &self.info.key
    }
}

/// What the decay index asks of the cache: the set in a slot, and the slot
/// to order sets of equal profit as the reference's stable sort does.
fn by_slot<'s, V>(
    entries: &'s EntryStore<LncEntry<V>>,
) -> impl FnMut(EntryId) -> Option<(&'s RetainedInfo, u64)> {
    move |id| Some((&entries.by_id(id)?.info, id.index() as u64))
}

/// The LNC-R / LNC-RA retrieved-set cache.
#[derive(Debug, Clone)]
pub struct LncCache<V> {
    config: LncConfig,
    entries: EntryStore<LncEntry<V>>,
    retained: RetainedStore,
    index: DecayIndex,
    /// The latest reference recorded in any cached set's history.
    newest: Timestamp,
    /// The last victim selection, kept for its allocation.
    victims: Vec<EntryId>,
    /// Cached bytes by sample count, Figure 1's groups (index 0 unused):
    /// they sum to the occupancy.
    group_bytes: Vec<u64>,
    stats: CacheStats,
    /// Rejections the bound settled without a victim selection.
    #[cfg(test)]
    settled_by_bound: u64,
}

impl<V: CachePayload> LncCache<V> {
    /// Creates a cache with the given configuration.
    pub fn new(config: LncConfig) -> Self {
        let max_retained = config.max_retained_entries.max(1);
        LncCache {
            group_bytes: vec![0; config.k.max(1) + 1],
            config,
            entries: EntryStore::new(),
            retained: RetainedStore::new(max_retained),
            index: DecayIndex::grouped(),
            newest: Timestamp::ZERO,
            victims: Vec::new(),
            stats: CacheStats::new(),
            #[cfg(test)]
            settled_by_bound: 0,
        }
    }

    /// Creates an LNC-RA cache with capacity `capacity_bytes` and `K = 4`.
    pub fn lnc_ra(capacity_bytes: u64) -> Self {
        Self::new(LncConfig::lnc_ra(capacity_bytes))
    }

    /// Creates an LNC-R cache (no admission control) with `K = 4`.
    pub fn lnc_r(capacity_bytes: u64) -> Self {
        Self::new(LncConfig::lnc_r(capacity_bytes))
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &LncConfig {
        &self.config
    }

    /// Number of retained reference-information entries currently held.
    pub fn retained_entries(&self) -> usize {
        self.retained.len()
    }

    /// Approximate bytes of metadata used by retained reference information.
    pub fn retained_metadata_bytes(&self) -> u64 {
        self.retained.metadata_bytes()
    }

    /// The profit of the cached set for `key` at time `now`, if cached.
    pub fn profit_of(&self, key: &QueryKey, now: Timestamp) -> Option<Profit> {
        self.entries.get(key).map(|e| e.info.profit(now))
    }

    /// The smallest profit among cached sets at time `now`, or `None` if the
    /// cache is empty.
    pub fn min_cached_profit(&self, now: Timestamp) -> Option<Profit> {
        self.entries.iter().map(|(_, e)| e.info.profit(now)).min()
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
        let entry = self.entries.remove_by_key(key)?;
        self.group_bytes[entry.info.history.sample_count()] -= entry.info.size_bytes;
        Some(entry.value)
    }

    /// Selects replacement candidates to free at least `needed` bytes
    /// (the LNC-R procedure of Figure 1).
    ///
    /// Cached sets are grouped by the number of retained reference samples
    /// (1, 2, …, K); within each group they are ordered by ascending profit;
    /// the groups are concatenated in order of increasing sample count and
    /// the minimal prefix whose sizes sum to at least `needed` is returned.
    /// The prefix is read off the decay index (see the module docs).
    ///
    /// Returns `None` if even evicting every cached set would not free
    /// `needed` bytes.
    pub(crate) fn select_victims(&mut self, needed: u64, now: Timestamp) -> Option<Vec<EntryId>> {
        let mut victims = std::mem::take(&mut self.victims);
        victims.clear();
        if needed == 0 {
            return Some(victims);
        }
        debug_assert!(
            self.books_balance(),
            "group bytes diverged from the cached sets"
        );
        if self.used_bytes() < needed {
            self.victims = victims;
            return None;
        }
        let (entries, mut freed) = (&self.entries, 0u64);
        self.index.ascend(
            now,
            now >= self.newest,
            true,
            None,
            by_slot(entries),
            |id, _| {
                victims.push(id);
                freed += entries.by_id(id).map_or(0, |e| e.info.size_bytes);
                freed < needed
            },
        );
        Some(victims)
    }

    /// Whether every group's bytes are the sum of the sizes of the cached
    /// sets with that many samples.
    pub(crate) fn books_balance(&self) -> bool {
        let mut groups = vec![0; self.group_bytes.len()];
        for (_, e) in self.entries.iter() {
            groups[e.info.history.sample_count()] += e.info.size_bytes;
        }
        groups == self.group_bytes
    }

    /// Whether Eq. 8 rejects a first-time set of `cost` and `size` whatever
    /// victims free `needed` bytes (see "Rejections without victims").
    fn rejected_by_bound(&self, cost: ExecutionCost, size: u64, needed: u64) -> bool {
        let mut cumulative = 0;
        let Some(groups) = self.group_bytes.iter().position(|&bytes| {
            cumulative += bytes;
            cumulative >= needed
        }) else {
            return false;
        };
        let least = self.index.least_ratio(groups as u32);
        // With u = 2⁻⁵³ and m ≤ n victims (n cached sets): each sum of Eq. 8
        // rounds m − 1 times and the sizes are converted once each, so with
        // the quotient the computed ratio is at least (1 − 3m·u) of the exact
        // Σcᵢ/Σsᵢ, itself at least the least exact cᵢ/sᵢ.  `least` exceeds
        // that by at most (1 + 4u) (the roundings of `samples·c/s` and of
        // `floor/group`), and the product below rounds once more.  The slack
        // (n + 4)·4u covers 3m·u + 6u with room for the second-order terms,
        // so a set at or under the product is at or under Eq. 8 as computed.
        let slack = (self.entries.len() + 4) as f64 * 2.0 * f64::EPSILON;
        Profit::estimated(cost, size) <= Profit::new(least * (1.0 - slack))
    }

    /// The reference victim selection this module shipped with — an O(n)
    /// collect plus an O(n log n) stable sort per decision — kept verbatim
    /// as the differential-test oracle for the ranking-based path.
    #[cfg(test)]
    pub(crate) fn select_victims_reference(
        &self,
        needed: u64,
        now: Timestamp,
    ) -> Option<Vec<EntryId>> {
        if needed == 0 {
            return Some(Vec::new());
        }
        let total: u64 = self.entries.iter().map(|(_, e)| e.info.size_bytes).sum();
        if total < needed {
            return None;
        }
        // (sample_count, profit, id, size) for every cached set.
        let mut ranked: Vec<(usize, Profit, EntryId, u64)> = self
            .entries
            .iter()
            .map(|(id, e)| (&e.info, id))
            .map(|(e, id)| (e.history.sample_count(), e.profit(now), id, e.size_bytes))
            .collect();
        ranked.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut victims = Vec::new();
        let mut freed = 0u64;
        for (_, _, id, size) in ranked {
            if freed >= needed {
                break;
            }
            victims.push(id);
            freed += size;
        }
        Some(victims)
    }

    /// Figure 1's decision on a missed set, made over the reference victim
    /// selection with the retained history read in place: the oracle for
    /// whether [`QueryCache::insert`] admits it.
    #[cfg(test)]
    pub(crate) fn admits_reference(
        &self,
        key: &QueryKey,
        size_bytes: u64,
        cost: ExecutionCost,
        now: Timestamp,
    ) -> bool {
        let capacity = self.config.capacity_bytes;
        let used: u64 = self.entries.iter().map(|(_, e)| e.info.size_bytes).sum();
        if size_bytes > capacity || capacity == 0 {
            return false;
        }
        if capacity - used >= size_bytes {
            return true;
        }
        let Some(victims) = self.select_victims_reference(size_bytes - (capacity - used), now)
        else {
            return false;
        };
        let retained = self.retained.get(key);
        let mut history = retained.map_or_else(
            || ReferenceHistory::new(self.config.k),
            |info| info.history.clone(),
        );
        if history.last_reference() != Some(now) {
            history.record(now);
        }
        if !self.config.admission {
            true
        } else if retained.is_some() && history.sample_count() > 1 {
            let info = RetainedInfo {
                key: key.clone(),
                size_bytes,
                cost,
                history,
            };
            info.profit(now) > self.list_profit(&victims, now)
        } else {
            Profit::estimated(cost, size_bytes)
                > Profit::estimated_of_list(
                    victims
                        .iter()
                        .filter_map(|&id| self.entries.by_id(id))
                        .map(|e| (e.info.cost, e.info.size_bytes)),
                )
        }
    }

    /// The keys of the given cached entries, in order (differential tests
    /// translate victim-id plans into the key sequences evictions report).
    #[cfg(test)]
    pub(crate) fn keys_of(&self, ids: &[EntryId]) -> Vec<QueryKey> {
        ids.iter()
            .filter_map(|&id| self.entries.by_id(id).map(|e| e.info.key.clone()))
            .collect()
    }

    /// [`QueryCache::shrink_loss`] computed over the reference victim
    /// selection — the differential-test oracle.
    #[cfg(test)]
    pub(crate) fn shrink_loss_reference(&self, bytes: u64, now: Timestamp) -> Option<Profit> {
        let free = self.config.capacity_bytes.saturating_sub(self.used_bytes());
        if bytes <= free || self.entries.is_empty() {
            return Some(Profit::ZERO);
        }
        let needed = (bytes - free).min(self.used_bytes());
        let victims = self.select_victims_reference(needed, now)?;
        Some(Profit::of_list(victims.iter().filter_map(|&id| {
            self.entries
                .by_id(id)
                .map(|e| &e.info)
                .map(|e| (e.history.rate(now).unwrap_or(0.0), e.cost, e.size_bytes))
        })))
    }

    /// [`QueryCache::grow_gain`] computed by independently collecting and
    /// sorting the retained entries — the differential-test oracle.
    #[cfg(test)]
    pub(crate) fn grow_gain_reference(&self, bytes: u64, now: Timestamp) -> Option<Profit> {
        if bytes == 0 || self.retained.is_empty() {
            return Some(Profit::ZERO);
        }
        let mut candidates: Vec<(Profit, u64, f64, ExecutionCost, u64)> = self
            .retained
            .iter()
            .map(|info| {
                (
                    info.profit(now),
                    info.key.signature().value(),
                    info.history.rate(now).unwrap_or(0.0),
                    info.cost,
                    info.size_bytes,
                )
            })
            .collect();
        candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut free = bytes;
        let mut packed = Vec::new();
        for (_, _, rate, cost, size) in candidates {
            if size <= free {
                free -= size;
                packed.push((rate, cost, size));
            }
        }
        Some(Profit::of_list(packed))
    }

    /// Evicts the given entries, retaining their reference information when
    /// configured to do so.  Returns the evicted keys.
    fn evict(&mut self, victims: Vec<EntryId>, now: Timestamp) -> Vec<QueryKey> {
        let mut evicted = Vec::with_capacity(victims.len());
        for &id in &victims {
            if let Some(LncEntry { info, .. }) = self.entries.remove(id) {
                self.group_bytes[info.history.sample_count()] -= info.size_bytes;
                self.stats.record_eviction(info.size_bytes);
                evicted.push(info.key.clone());
                if self.config.retain_reference_info {
                    self.retained.insert(info, now);
                }
            }
        }
        self.victims = victims;
        evicted
    }

    /// Applies the §2.4 retention policy: drop retained histories whose
    /// profit is below the least profit among cached sets.
    fn purge_retained(&mut self, now: Timestamp) {
        if !self.config.retain_reference_info || self.retained.is_empty() {
            return;
        }
        if let Some(min_profit) = QueryCache::min_cached_profit(self, now) {
            self.retained.purge_below(min_profit, now);
        }
    }

    /// Builds the reference history to use for a set being admitted: the
    /// retained history if one exists (updated with the current reference if
    /// it has not been recorded yet), otherwise a fresh history containing
    /// only the current reference.
    fn admission_history(&mut self, key: &QueryKey, now: Timestamp) -> (ReferenceHistory, bool) {
        match self.retained.take(key) {
            Some(mut info) => {
                if info.history.last_reference() != Some(now) {
                    info.history.record(now);
                }
                (info.history, true)
            }
            None => (
                ReferenceHistory::with_first_reference(self.config.k, now),
                false,
            ),
        }
    }

    /// Records an admission rejection: the reference information of the
    /// rejected set is retained so that it may be admitted later once enough
    /// references accumulate (paper §2.4, last paragraph).
    fn retain_rejected(&mut self, info: RetainedInfo, now: Timestamp) {
        if self.config.retain_reference_info {
            self.retained.insert(info, now);
        }
        self.stats.record_admission(false);
    }

    /// A set the admission test turned away: retain it, then purge (§2.4).
    fn fail_admission(&mut self, info: RetainedInfo, now: Timestamp) -> InsertOutcome {
        self.retain_rejected(info, now);
        self.purge_retained(now);
        InsertOutcome::Rejected(RejectReason::AdmissionTest)
    }

    /// The aggregate profit (Eq. 5) of the given cached sets at `now`.
    fn list_profit(&self, victims: &[EntryId], now: Timestamp) -> Profit {
        Profit::of_list(
            victims
                .iter()
                .filter_map(|&id| self.entries.by_id(id).map(|e| &e.info))
                .map(|e| (e.history.rate(now).unwrap_or(0.0), e.cost, e.size_bytes)),
        )
    }

    fn admit(
        &mut self,
        info: RetainedInfo,
        value: V,
        evicted: Vec<QueryKey>,
        now: Timestamp,
    ) -> InsertOutcome {
        // A retained history can end after `now` when time stepped back.
        self.newest = self
            .newest
            .max(info.history.last_reference().unwrap_or(now));
        self.group_bytes[info.history.sample_count()] += info.size_bytes;
        let id = self.entries.insert(LncEntry { info, value });
        let entry = self.entries.by_id(id).expect("just inserted");
        self.index.file(&entry.info, id);
        self.stats.record_admission(true);
        debug_assert!(self.used_bytes() <= self.config.capacity_bytes);
        self.purge_retained(now);
        InsertOutcome::Admitted { evicted }
    }
}

impl<V: CachePayload> QueryCache<V> for LncCache<V> {
    fn name(&self) -> &'static str {
        if self.config.admission {
            "LNC-RA"
        } else {
            "LNC-R"
        }
    }

    fn get(&mut self, key: &QueryKey, now: Timestamp) -> Option<&V> {
        if let Some(id) = self.entries.find(key) {
            let entry = self.entries.by_id_mut(id).expect("found above");
            // Skip duplicate timestamps: a single-flight waiter retrying
            // after an abandoned flight re-issues the same logical
            // reference, and its first pass may already sit in the history
            // via promoted retained information (§2.4).
            if entry.info.history.last_reference() != Some(now) {
                let samples = entry.info.history.sample_count();
                entry.info.history.record(now);
                self.newest = self.newest.max(now);
                let size = entry.info.size_bytes;
                self.group_bytes[samples] -= size;
                self.group_bytes[entry.info.history.sample_count()] += size;
            }
            self.stats.record_hit(entry.info.cost);
            return Some(&entry.value);
        }
        // Miss: record the reference against retained information (if any) so
        // that the admission decision that typically follows sees it.
        if self.config.retain_reference_info {
            self.retained.record_reference(key, now);
        }
        None
    }

    fn insert(
        &mut self,
        key: QueryKey,
        value: V,
        cost: ExecutionCost,
        now: Timestamp,
    ) -> InsertOutcome {
        let size_bytes = value.size_bytes();
        self.stats.record_miss(cost);

        // Already cached: refresh the payload and cost, count the reference.
        if let Some(id) = self.entries.find(&key) {
            let entry = self.entries.by_id_mut(id).expect("found above");
            let old_size = entry.info.size_bytes;
            self.group_bytes[entry.info.history.sample_count()] -= old_size;
            entry.value = value;
            entry.info.cost = cost;
            entry.info.size_bytes = size_bytes;
            if entry.info.history.last_reference() != Some(now) {
                entry.info.history.record(now);
                self.newest = self.newest.max(now);
            }
            self.group_bytes[entry.info.history.sample_count()] += size_bytes;
            // A new size or cost can lower the profit: re-file at once.
            self.index.file(&entry.info, id);
            // If the refreshed payload grew, restore the capacity invariant by
            // evicting the lowest-profit sets (possibly the refreshed one).
            let mut evicted = Vec::new();
            if self.used_bytes() > self.config.capacity_bytes {
                let needed = self.used_bytes() - self.config.capacity_bytes;
                if let Some(victims) = self.select_victims(needed, now) {
                    evicted = self.evict(victims, now);
                }
            }
            return InsertOutcome::AlreadyCached { evicted };
        }

        if self.config.capacity_bytes == 0 {
            self.stats.record_admission(false);
            return InsertOutcome::Rejected(RejectReason::ZeroCapacity);
        }
        let (history, had_history) = self.admission_history(&key, now);
        let info = RetainedInfo {
            key,
            size_bytes,
            cost,
            history,
        };
        if size_bytes > self.config.capacity_bytes {
            // The set can never fit; remember its references anyway.
            self.retain_rejected(info, now);
            return InsertOutcome::Rejected(RejectReason::TooLarge);
        }

        let available = self.config.capacity_bytes - self.used_bytes();
        if available >= size_bytes {
            // Enough free space: cache unconditionally (Figure 1, middle case).
            return self.admit(info, value, Vec::new(), now);
        }

        // Not enough space: run LNC-R to find replacement candidates, unless
        // the estimated-profit test (Eq. 7 / Eq. 8) rejects a first-time set
        // whichever they are.
        let needed = size_bytes - available;
        let first_time = !(had_history && info.history.sample_count() > 1);
        if self.config.admission && first_time && self.rejected_by_bound(cost, size_bytes, needed) {
            #[cfg(test)]
            {
                self.settled_by_bound += 1;
            }
            return self.fail_admission(info, now);
        }
        let Some(victims) = self.select_victims(needed, now) else {
            // Cannot free enough space (should not happen given the size
            // check above, but be defensive).
            self.retain_rejected(info, now);
            return InsertOutcome::Rejected(RejectReason::TooLarge);
        };

        let admit = if !self.config.admission {
            // Plain LNC-R admits everything that fits.
            true
        } else if !first_time {
            // Past reference information available: compare real profits
            // (Eq. 4 / Eq. 5).
            info.profit(now) > self.list_profit(&victims, now)
        } else {
            // First-time set: compare estimated profits (Eq. 7 / Eq. 8).
            let candidate_eprofit = Profit::estimated_of_list(
                victims
                    .iter()
                    .filter_map(|&id| self.entries.by_id(id).map(|e| &e.info))
                    .map(|e| (e.cost, e.size_bytes)),
            );
            Profit::estimated(cost, size_bytes) > candidate_eprofit
        };

        if !admit {
            self.victims = victims;
            return self.fail_admission(info, now);
        }

        let evicted = self.evict(victims, now);
        self.admit(info, value, evicted, now)
    }

    fn remove(&mut self, key: &QueryKey) -> bool {
        LncCache::remove(self, key).is_some()
    }

    fn peek(&self, key: &QueryKey) -> Option<&V> {
        self.entries.get(key).map(|entry| &entry.value)
    }

    fn contains(&self, key: &QueryKey) -> bool {
        self.entries.contains(key)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn used_bytes(&self) -> u64 {
        self.group_bytes.iter().sum()
    }

    fn capacity_bytes(&self) -> u64 {
        self.config.capacity_bytes
    }

    fn set_capacity_bytes(&mut self, capacity_bytes: u64, now: Timestamp) -> Vec<QueryKey> {
        self.config.capacity_bytes = capacity_bytes;
        if self.used_bytes() <= capacity_bytes {
            return Vec::new();
        }
        // Shrink below occupancy: run LNC-R over the full cache to free the
        // overshoot, lowest-profit victims first.
        let needed = self.used_bytes() - capacity_bytes;
        match self.select_victims(needed, now) {
            Some(victims) => {
                let evicted = self.evict(victims, now);
                debug_assert!(self.used_bytes() <= self.config.capacity_bytes);
                evicted
            }
            // Unreachable: evicting everything always frees `needed`.
            None => Vec::new(),
        }
    }

    fn min_cached_profit(&mut self, now: Timestamp) -> Option<Profit> {
        // The first set of the ascent over all groups: this is the path the
        // §2.4 purge after every decision and the engine's rebalancer hit.
        let (entries, mut least) = (&self.entries, None);
        self.index.ascend(
            now,
            now >= self.newest,
            false,
            None,
            by_slot(entries),
            |_, profit| {
                least = Some(profit);
                false
            },
        );
        least
    }

    fn max_retained_profit(&mut self, now: Timestamp) -> Option<Profit> {
        self.retained.iter().map(|info| info.profit(now)).max()
    }

    fn shrink_loss(&mut self, bytes: u64, now: Timestamp) -> Option<Profit> {
        // Shrinking into free space costs nothing.
        let free = self.config.capacity_bytes.saturating_sub(self.used_bytes());
        if bytes <= free || self.entries.is_empty() {
            return Some(Profit::ZERO);
        }
        // Price the victims LNC-R would actually pick for this shrink.
        let needed = (bytes - free).min(self.used_bytes());
        let victims = self.select_victims(needed, now)?;
        let loss = self.list_profit(&victims, now);
        self.victims = victims;
        Some(loss)
    }

    fn grow_gain(&mut self, bytes: u64, now: Timestamp) -> Option<Profit> {
        if bytes == 0 || self.retained.is_empty() {
            return Some(Profit::ZERO);
        }
        // Greedily pack the most profitable retained (denied-residency) sets
        // into the hypothetical extra capacity.
        let mut free = bytes;
        let mut packed = Vec::new();
        for info in self.retained.ranked_by_profit_desc(now) {
            if info.size_bytes <= free {
                free -= info.size_bytes;
                packed.push((
                    info.history.rate(now).unwrap_or(0.0),
                    info.cost,
                    info.size_bytes,
                ));
            }
        }
        Some(Profit::of_list(packed))
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn record_coalesced_reference(&mut self, cost: ExecutionCost) {
        self.stats.record_coalesced(cost);
    }

    fn record_error_reference(&mut self) {
        self.stats.record_fetch_error();
    }

    fn record_stale_reference(&mut self, cost: ExecutionCost) {
        self.stats.record_stale(cost);
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.retained.clear();
        self.index.clear();
        self.group_bytes.fill(0);
    }

    fn cached_keys(&self) -> Vec<QueryKey> {
        self.entries
            .iter()
            .map(|(_, e)| e.info.key.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::SizedPayload;

    fn ts(us: u64) -> Timestamp {
        Timestamp::from_micros(us)
    }

    fn cost(c: f64) -> ExecutionCost {
        ExecutionCost::from_block_reads(c)
    }

    fn key(name: &str) -> QueryKey {
        QueryKey::new(name.to_owned())
    }

    fn payload(bytes: u64) -> SizedPayload {
        SizedPayload::new(bytes)
    }

    /// Reference a query: get (miss expected) then insert.
    fn reference(
        cache: &mut LncCache<SizedPayload>,
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
    fn set_capacity_shrink_evicts_lowest_profit_first() {
        let mut cache = LncCache::lnc_r(600);
        // Same size and reference pattern, ascending cost → ascending profit.
        reference(&mut cache, "cheap", 200, 1.0, 1);
        reference(&mut cache, "mid", 200, 100.0, 2);
        reference(&mut cache, "pricey", 200, 10_000.0, 3);
        for t in [10u64, 20, 30] {
            cache.get(&key("cheap"), ts(t));
            cache.get(&key("mid"), ts(t + 1));
            cache.get(&key("pricey"), ts(t + 2));
        }
        // Shrink so exactly one set must go: it must be the lowest-profit one.
        let evicted = QueryCache::set_capacity_bytes(&mut cache, 400, ts(40));
        assert_eq!(evicted, vec![key("cheap")]);
        assert!(cache.contains(&key("mid")));
        assert!(cache.contains(&key("pricey")));
        assert_eq!(cache.capacity_bytes(), 400);
        // The victim's reference information is retained (§2.4), so it can
        // win its way back in later.
        assert!(cache.retained_entries() > 0);
        // Shrink below the next set: "mid" goes before "pricey".
        let evicted = QueryCache::set_capacity_bytes(&mut cache, 200, ts(41));
        assert_eq!(evicted, vec![key("mid")]);
        assert_eq!(cache.used_bytes(), 200);
    }

    #[test]
    fn grow_gain_prices_retained_sets() {
        // Two residents whose aggregate profit rejects the contender while
        // the contender's own profit still clears the §2.4 retention bar
        // (it must beat only the *minimum* cached profit to stay retained).
        let mut cache = LncCache::lnc_ra(400);
        reference(&mut cache, "low", 200, 100.0, 1);
        reference(&mut cache, "high", 200, 10_000.0, 1);
        let outcome = cache.insert(key("contender"), payload(400), cost(400.0), ts(11));
        assert_eq!(
            outcome,
            InsertOutcome::Rejected(RejectReason::AdmissionTest)
        );
        assert_eq!(
            cache.retained_entries(),
            1,
            "the contender must be retained"
        );

        let gain = QueryCache::grow_gain(&mut cache, 400, ts(12)).unwrap();
        assert!(
            gain > Profit::ZERO,
            "a retained denied set must make extra capacity valuable"
        );
        // The retained set does not fit a 10-byte grant → no gain.
        let none = QueryCache::grow_gain(&mut cache, 10, ts(12)).unwrap();
        assert_eq!(none, Profit::ZERO);
        // Shrink loss prices the would-be victims.
        let loss = QueryCache::shrink_loss(&mut cache, 200, ts(12)).unwrap();
        assert!(loss > Profit::ZERO);
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
        for i in 0..12u64 {
            let name = format!("q{i}");
            reference(&mut cache, &name, 150, 10.0 + i as f64 * 37.0, i + 1);
            if i % 3 == 0 {
                cache.get(&key(&name), ts(40 + i));
            }
        }
        let now = ts(100);
        // A selection re-files the stale sets it reaches; the minimum read
        // off the index afterwards must still be the plain scan's.
        let _ = cache.select_victims(1, now);
        let fast = QueryCache::min_cached_profit(&mut cache, now);
        let scan = LncCache::min_cached_profit(&cache, now);
        assert_eq!(fast, scan);
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
        for i in 0..m {
            assert!(reference(&mut cache, &format!("v{i}"), s, c, i + 1).is_admitted());
        }
        assert!(cache.admits_reference(&key("candidate"), m * s, cost(c * m as f64), ts(100)));
        let outcome = reference(&mut cache, "candidate", m * s, c * m as f64, 100);
        assert_eq!(outcome.evicted().len() as u64, m, "{outcome:?}");
        assert_eq!(cache.settled_by_bound, 0);
    }

    /// Rejections settled without a selection on the golden skewed trace
    /// (`crates/sim/tests/golden_replay.rs`: seed 13, 4 shards), summed over
    /// the shards, beside the rejections pinned there.
    const SKEWED_RA_4_SETTLED: (u64, u64) = (4_897, 3_966);

    #[test]
    fn the_bound_settles_the_golden_skewed_rejections() {
        use watchman_sim::{ExperimentScale, Workload};
        let trace = Workload::tpcd_skewed(ExperimentScale::quick(12_000).with_seed(13)).trace;
        let shards = 4;
        let per_shard = (trace.database_bytes as f64 * 0.01).round() as u64 / shards;
        let mut caches: Vec<LncCache<SizedPayload>> = (0..shards)
            .map(|_| LncCache::new(LncConfig::lnc_ra(per_shard).with_k(4)))
            .collect();
        for record in trace.iter() {
            let now = ts(record.timestamp_us);
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
        let rejections = caches.iter().map(|c| c.stats().rejections).sum();
        let settled = caches.iter().map(|c| c.settled_by_bound).sum();
        assert_eq!((rejections, settled), SKEWED_RA_4_SETTLED);
    }

    #[test]
    fn a_hit_leaves_the_index_alone() {
        let mut cache = LncCache::lnc_ra(100_000);
        for i in 0..50u64 {
            reference(&mut cache, &format!("q{i}"), 1_000, 10.0 + i as f64, i + 1);
        }
        let _ = cache.select_victims(5_000, ts(100));
        let index = format!("{:?}", cache.index);
        let retained = format!("{:?}", cache.retained);
        for i in 0..50u64 {
            assert!(cache.get(&key(&format!("q{i}")), ts(200 + i)).is_some());
        }
        assert_eq!(format!("{:?}", cache.index), index);
        assert_eq!(format!("{:?}", cache.retained), retained);
    }
}
