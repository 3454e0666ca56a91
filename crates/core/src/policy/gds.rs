//! GreedyDual-Size replacement over retrieved sets.
//!
//! GreedyDual-Size (Cao & Irani, 1997) is the best-known *later* cost- and
//! size-aware caching policy; it is included as an extension baseline so the
//! ablation experiments can position LNC-RA against the algorithm that
//! eventually became the standard answer to the same problem.
//!
//! Each cached set carries a credit `H = L + c/s`, where `L` is a global
//! inflation value.  On eviction the victim is the set with the smallest `H`
//! and `L` is raised to that value; on a hit the set's credit is restored to
//! `L + c/s`.  The inflation term plays the role that the sliding-window
//! reference-rate estimate plays in LNC-R: it ages sets that have not been
//! referenced recently.
//!
//! As a [`RankRule`]: a set's rank is its credit — the ranked cache's index
//! is the exact-deletion form of the min-heap Cao & Irani manage their cache
//! with — and the rule owns `L`.

use crate::clock::Timestamp;
use crate::index::{EntryId, EntryStore, SetInfo};
use crate::policy::index::{OrdF64, OrdIndex};
use crate::policy::ranked::{RankRule, RankedCache};
use crate::profit::Profit;
use crate::value::{CachePayload, ExecutionCost};

/// Ranks a set by its credit `H`; the smallest credit is the victim.
#[derive(Debug, Clone, Default)]
pub struct GdsRule {
    /// The global inflation value `L`.
    inflation: f64,
}

impl RankRule for GdsRule {
    /// The credit value `H`.
    type State = f64;
    type Rank = OrdF64;

    fn name(&self) -> &'static str {
        "GreedyDual-Size"
    }

    fn rank(set: &SetInfo<f64>, _: Timestamp) -> OrdF64 {
        OrdF64(set.state)
    }

    /// Only the newcomer's `c/s`: its own evictions have yet to raise `L`.
    fn admit(&mut self, cost: ExecutionCost, size_bytes: u64, _: Timestamp) -> f64 {
        Profit::estimated(cost, size_bytes).value()
    }

    fn settle(&mut self, credit: &mut f64) {
        *credit += self.inflation;
    }

    fn touch(&mut self, set: &mut SetInfo<f64>, _: Timestamp) {
        set.state = self.inflation + Profit::estimated(set.cost, set.size_bytes).value();
    }

    /// Evicting the smallest-credit set raises the global inflation `L`.
    fn denied<V>(&mut self, records: &mut EntryStore<V, f64>, slot: EntryId, _: Timestamp) {
        if let Some(set) = records.remove(slot) {
            self.inflation = self.inflation.max(set.info.state);
        }
    }

    fn cleared(&mut self) {
        self.inflation = 0.0;
    }
}

/// A retrieved-set cache with GreedyDual-Size replacement.
pub type GreedyDualSizeCache<V> = RankedCache<V, GdsRule, OrdIndex<OrdF64>>;

impl<V: CachePayload> GreedyDualSizeCache<V> {
    /// Creates a GreedyDual-Size cache with the given capacity in bytes.
    pub fn new(capacity_bytes: u64) -> Self {
        RankedCache::with_rule(capacity_bytes, GdsRule::default())
    }

    /// The current global inflation value `L` (exposed for tests and
    /// diagnostics).
    pub fn inflation(&self) -> f64 {
        self.rule.inflation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ranked::contract::{self, key, ts};
    use crate::policy::{InsertOutcome, QueryCache};
    use crate::value::SizedPayload;

    fn insert_with_cost(
        cache: &mut GreedyDualSizeCache<SizedPayload>,
        name: &str,
        size: u64,
        cost: f64,
        now: u64,
    ) -> InsertOutcome {
        cache.insert(
            key(name),
            SizedPayload::new(size),
            ExecutionCost::from_block_reads(cost),
            ts(now),
        )
    }

    #[test]
    fn evicts_lowest_credit_entry() {
        let mut cache = GreedyDualSizeCache::new(300);
        // c/s: cheap = 0.01, pricey = 10.
        insert_with_cost(&mut cache, "cheap", 100, 1.0, 1);
        insert_with_cost(&mut cache, "pricey", 100, 1_000.0, 2);
        insert_with_cost(&mut cache, "mid", 100, 100.0, 3);
        let outcome = insert_with_cost(&mut cache, "incoming", 100, 500.0, 4);
        assert_eq!(outcome.evicted(), &[key("cheap")]);
        assert!(cache.contains(&key("pricey")));
    }

    #[test]
    fn inflation_rises_with_evictions() {
        let mut cache = GreedyDualSizeCache::new(200);
        insert_with_cost(&mut cache, "a", 100, 100.0, 1);
        insert_with_cost(&mut cache, "b", 100, 200.0, 2);
        assert_eq!(cache.inflation(), 0.0);
        insert_with_cost(&mut cache, "c", 100, 300.0, 3);
        assert!(cache.inflation() > 0.0);
    }

    #[test]
    fn aging_lets_new_entries_displace_stale_expensive_ones() {
        let mut cache = GreedyDualSizeCache::new(200);
        insert_with_cost(&mut cache, "stale-expensive", 100, 500.0, 1);
        insert_with_cost(&mut cache, "b", 100, 400.0, 2);
        // Repeated misses on cheap one-off sets raise L; eventually even the
        // expensive stale set is displaced.
        let mut displaced = false;
        for i in 0..50u64 {
            let name = format!("oneoff{i}");
            let outcome = insert_with_cost(&mut cache, &name, 100, 50.0, 10 + i);
            if outcome.evicted().contains(&key("stale-expensive")) {
                displaced = true;
                break;
            }
        }
        assert!(displaced, "inflation must age stale entries out");
    }

    #[test]
    fn hit_restores_credit() {
        let mut cache = GreedyDualSizeCache::new(200);
        insert_with_cost(&mut cache, "a", 100, 100.0, 1);
        insert_with_cost(&mut cache, "b", 100, 100.0, 2);
        // Push inflation up by cycling through one-off sets.
        for i in 0..5u64 {
            let name = format!("x{i}");
            insert_with_cost(&mut cache, &name, 100, 150.0, 3 + i);
        }
        // Whichever of a/b survived, hitting it must keep it above the next
        // one-off's credit so it survives one more round.
        let survivor = if cache.contains(&key("a")) { "a" } else { "b" };
        if cache.contains(&key(survivor)) {
            cache.get(&key(survivor), ts(100));
            let outcome = insert_with_cost(&mut cache, "final", 100, 50.0, 101);
            assert!(
                !outcome.evicted().contains(&key(survivor)) || !cache.contains(&key(survivor)),
                "a just-hit entry should not be the first victim against a cheaper newcomer"
            );
        }
    }

    #[test]
    fn rejects_oversized_and_zero_capacity() {
        contract::rejects_oversized_and_zero_capacity(GreedyDualSizeCache::new);
    }

    #[test]
    fn capacity_invariant_holds() {
        contract::used_bytes_never_exceeds_capacity(GreedyDualSizeCache::new);
    }

    #[test]
    fn clear_resets_inflation() {
        let mut cache = GreedyDualSizeCache::new(100);
        insert_with_cost(&mut cache, "a", 100, 10.0, 1);
        insert_with_cost(&mut cache, "b", 100, 20.0, 2);
        assert!(cache.inflation() > 0.0);
        cache.clear();
        assert_eq!(cache.inflation(), 0.0);
        assert!(cache.is_empty());
    }
}
