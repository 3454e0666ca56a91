//! Differential property tests: indexed victim selection vs. the scan/sort
//! reference implementations.
//!
//! The pre-index victim selection — for the rule-ranked baselines one
//! O(n)-per-victim scan over the rule's ranks, on [`RankedCache`]; for LNC
//! the O(n log n) sort of Figure 1 — is kept under `#[cfg(test)]` as an
//! oracle.  These properties replay random admit / reference / remove /
//! shrink traces against the real (index-driven) caches and assert, at every
//! step, that the index would pick *identical victim sequences* for a spread
//! of space demands, and that the capacity-planning signals
//! (`min_cached_profit`, `shrink_loss`, `grow_gain`) are value-identical.
//! Shrinks additionally check the *actual* eviction sequence end to end
//! against the oracle's plan, including a final shrink-to-zero drain of the
//! whole cache.
//!
//! The traces deliberately hammer the corners that break incremental
//! indexes: same-key refreshes that change sizes and priorities, removals
//! (invalidation does not evict), evictions of freshly admitted entries,
//! slot reuse after removal, and repeated decisions at both advancing and
//! unchanged timestamps.  The LNC traces add what its decay index is
//! sensitive to: time stepping *backwards*, weights drawn from a coarse grid
//! (so buckets hold several sets and profits tie exactly), and a 200-query
//! id space.  LNC-RA's admission decisions, the rejections its bound settles
//! without a selection included, are checked one by one against Figure 1's
//! decision over the scan oracle.  The §2.4 retained store is driven against
//! [`ScanRetained`], the `HashMap::retain` implementation it replaced.

use std::collections::HashMap;

use proptest::prelude::*;

use crate::clock::Timestamp;
use crate::history::ReferenceHistory;
use crate::key::QueryKey;
use crate::policy::gds::GreedyDualSizeCache;
use crate::policy::lcs::LcsCache;
use crate::policy::lfu::LfuCache;
use crate::policy::lnc::{LncCache, LncConfig};
use crate::policy::lru::LruCache;
use crate::policy::lru_k::LruKCache;
use crate::policy::ranked::{RankRule, RankedCache};
use crate::policy::QueryCache;
use crate::profit::Profit;
use crate::retained::{RetainedInfo, RetainedStore};
use crate::value::{ExecutionCost, SizedPayload};

/// One step of a generated trace.
#[derive(Debug, Clone)]
struct Op {
    /// Action selector: 0 = remove, 1 = shrink-and-regrow, else reference
    /// (get, insert on miss).
    action: u8,
    /// Which query (small id space so that repetitions occur).
    query: u8,
    /// Retrieved-set size in bytes.
    size: u64,
    /// Execution cost in block reads.
    cost: u64,
    /// Logical time increment before the operation (0 = reuse the previous
    /// timestamp, exercising the same-epoch paths; negative only in the LNC
    /// traces: two sessions can reach a shard out of order).
    advance_us: i64,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..12, 0u8..24, 1u64..2_000, 1u64..20_000, 0i64..2_000_000).prop_map(
        |(action, query, size, cost, advance_us)| Op {
            action,
            query,
            size,
            cost,
            advance_us,
        },
    )
}

/// Traces for LNC: sizes and costs from a coarse grid, a wide id space, and
/// about one step in eight going back in time.
fn lnc_op_strategy() -> impl Strategy<Value = Op> {
    (
        0u8..12,
        0u8..200,
        1u64..40,
        0u64..20,
        -300_000i64..2_000_000,
    )
        .prop_map(|(action, query, size, cost, advance_us)| Op {
            action,
            query,
            size: size * 50,
            cost: cost * 100,
            advance_us,
        })
}

fn query_key(op: &Op) -> QueryKey {
    QueryKey::new(format!("diff-query-{}", op.query))
}

/// The space demands to probe victim plans with after each step: almost
/// nothing, barely one victim, a partial drain, everything, more than
/// everything.
fn needed_probes(used: u64, capacity: u64) -> [u64; 5] {
    let free = capacity.saturating_sub(used);
    [
        1,
        free + 1,
        free + used / 2,
        free + used,
        free + used + 1_000,
    ]
}

/// Drives one policy through a trace, checking the provided oracles after
/// every step.
///
/// * `plans(cache, needed, now)` must return the `(indexed, reference)`
///   victim plans for an incoming demand of `needed` bytes;
/// * `shrink_plan(cache, new_capacity, now)` must return the oracle's
///   predicted eviction sequence for a shrink to `new_capacity`;
/// * `signals(cache, now)` hosts per-policy signal equivalence checks.
fn run_differential<C, P, S, X>(mut cache: C, ops: &[Op], plans: P, shrink_plan: S, signals: X)
where
    C: QueryCache<SizedPayload>,
    P: Fn(&mut C, u64, Timestamp) -> (Vec<QueryKey>, Vec<QueryKey>),
    S: Fn(&mut C, u64, Timestamp) -> Vec<QueryKey>,
    X: Fn(&mut C, Timestamp),
{
    let mut now = 0u64;
    for op in ops {
        now = now.saturating_add_signed(op.advance_us);
        let ts = Timestamp::from_micros(now.max(1));
        let key = query_key(op);
        match op.action {
            0 => {
                cache.remove(&key);
            }
            1 => {
                // Shrink to half the occupancy: the oracle predicts the exact
                // eviction sequence; then grow back so the trace continues.
                let capacity = cache.capacity_bytes();
                let target = cache.used_bytes() / 2;
                let expected = shrink_plan(&mut cache, target, ts);
                let evicted = cache.set_capacity_bytes(target, ts);
                assert_eq!(
                    evicted,
                    expected,
                    "{}: shrink eviction sequence diverged from the scan oracle",
                    cache.name()
                );
                cache.set_capacity_bytes(capacity, ts);
            }
            _ => {
                if cache.get(&key, ts).is_none() {
                    cache.insert(
                        key,
                        SizedPayload::new(op.size),
                        ExecutionCost::from_blocks(op.cost),
                        ts,
                    );
                }
            }
        }

        for needed in needed_probes(cache.used_bytes(), cache.capacity_bytes()) {
            let (indexed, reference) = plans(&mut cache, needed, ts);
            assert_eq!(
                indexed,
                reference,
                "{}: victim plan diverged for needed={needed}",
                cache.name()
            );
        }
        signals(&mut cache, ts);
    }

    // Final end-to-end drain: shrinking to zero must evict every cached set
    // in exactly the oracle's order.
    let ts = Timestamp::from_micros(now.max(1) + 1);
    let expected = shrink_plan(&mut cache, 0, ts);
    let evicted = cache.set_capacity_bytes(0, ts);
    assert_eq!(
        evicted,
        expected,
        "{}: full-drain eviction sequence diverged from the scan oracle",
        cache.name()
    );
    assert_eq!(cache.used_bytes(), 0);
}

/// The one property of the rule-ranked baselines: whatever the rule, the
/// index picks the victims the scan over the same ranks picks.
fn run_ranked<R: RankRule>(cache: RankedCache<SizedPayload, R>, ops: &[Op]) {
    run_differential(
        cache,
        ops,
        |cache, needed, now| {
            (
                cache.indexed_victim_plan(needed, now),
                cache.reference_victim_plan(needed),
            )
        },
        |cache, target, _| cache.reference_victim_plan(cache.capacity_bytes() - target),
        |_, _| {},
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lru_index_matches_scan_reference(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        capacity in 2_000u64..40_000,
    ) {
        run_ranked(LruCache::new(capacity), &ops);
    }

    #[test]
    fn lru_k_index_matches_scan_reference(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        capacity in 2_000u64..40_000,
    ) {
        run_ranked(LruKCache::with_capacity(capacity, 3), &ops);
    }

    #[test]
    fn lfu_index_matches_scan_reference(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        capacity in 2_000u64..40_000,
    ) {
        run_ranked(LfuCache::new(capacity), &ops);
    }

    #[test]
    fn lcs_index_matches_scan_reference(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        capacity in 2_000u64..40_000,
    ) {
        run_ranked(LcsCache::new(capacity), &ops);
    }

    #[test]
    fn gds_index_matches_scan_reference(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        capacity in 2_000u64..40_000,
    ) {
        run_ranked(GreedyDualSizeCache::new(capacity), &ops);
    }

    #[test]
    fn lnc_ranking_matches_sort_reference(
        ops in proptest::collection::vec(lnc_op_strategy(), 1..160),
        capacity in 4_000u64..120_000,
        admission in 0u8..2,
        window in 0u32..3,
    ) {
        let config = if admission == 1 {
            LncConfig::lnc_ra(capacity)
        } else {
            LncConfig::lnc_r(capacity)
        };
        run_differential(
            LncCache::<SizedPayload>::new(config.with_k(1 << window)),
            &ops,
            |cache, needed, now| {
                let reference = cache
                    .select_victims_reference(needed, now)
                    .map(|ids| cache.keys_of(&ids))
                    .unwrap_or_default();
                let indexed = cache
                    .select_victims(needed, now)
                    .map(|ids| cache.keys_of(&ids))
                    .unwrap_or_default();
                (indexed, reference)
            },
            |cache, target, now| {
                let used = cache.used_bytes();
                if used <= target {
                    return Vec::new();
                }
                let ids = cache
                    .select_victims_reference(used - target, now)
                    .expect("evicting everything frees the overshoot");
                cache.keys_of(&ids)
            },
            |cache, now| {
                assert!(cache.books_balance(), "group bytes diverged from the sets");
                // The capacity-planning signals must be value-identical to
                // their scan/sort references.
                let fast = QueryCache::min_cached_profit(cache, now);
                let scan = LncCache::min_cached_profit(cache, now);
                assert_eq!(fast, scan, "min_cached_profit fast path diverged");
                for bytes in [1u64, 500, cache.capacity_bytes() / 2, cache.capacity_bytes()] {
                    let loss_ref = cache.shrink_loss_reference(bytes, now);
                    let loss = QueryCache::shrink_loss(cache, bytes, now);
                    assert_eq!(loss, loss_ref, "shrink_loss diverged for {bytes} bytes");
                    let gain_ref = cache.grow_gain_reference(bytes, now);
                    let gain = QueryCache::grow_gain(cache, bytes, now);
                    assert_eq!(gain, gain_ref, "grow_gain diverged for {bytes} bytes");
                }
            },
        );
    }

    #[test]
    fn retained_purge_matches_scan_reference(
        ops in proptest::collection::vec(retained_op_strategy(), 1..200),
        bound in 4usize..40,
    ) {
        let mut indexed = RetainedStore::new(bound);
        let mut scan = ScanRetained { entries: HashMap::new(), max_entries: bound };
        let mut now = 1_000_000u64;
        for op in &ops {
            now = now.saturating_add_signed(op.advance_us);
            let ts = Timestamp::from_micros(now);
            let key = QueryKey::new(format!("retained-{}", op.query));
            match op.action {
                0 => {
                    let taken = indexed.take(&key).map(|info| info.history);
                    assert_eq!(taken, scan.entries.remove(&key).map(|info| info.history));
                }
                1 | 2 => {
                    assert_eq!(
                        indexed.record_reference(&key, ts),
                        scan.record_reference(&key, ts)
                    );
                }
                3..=5 => {
                    // Thresholds at, just beside and far from the profit of
                    // a history held (`==` must survive), and zero.
                    let mut held: Vec<Profit> = scan.entries.values().map(|i| i.profit(ts)).collect();
                    held.sort();
                    let at = held.get(op.pick as usize % held.len().max(1)).map_or(1.0, |p| p.value());
                    let factor = [0.0, 0.5, 1.0 - 1e-12, 1.0, 1.0, 1.0 + 1e-12, 3.0][op.pick as usize % 7];
                    let threshold = Profit::new(at * factor);
                    assert_eq!(
                        indexed.purge_below(threshold, ts),
                        scan.purge_below(threshold, ts),
                        "purge at {threshold} dropped a different number"
                    );
                }
                _ => {
                    // References on a 1 ms grid: several histories share one
                    // oldest reference.
                    let mut history = ReferenceHistory::new(1 << (op.pick % 3));
                    for back in (0..=op.pick as u64 % 3).rev() {
                        history.record(Timestamp::from_micros((now / 1_000).saturating_sub(back) * 1_000));
                    }
                    let info = RetainedInfo {
                        key,
                        size_bytes: op.size,
                        cost: ExecutionCost::from_blocks(op.cost),
                        history,
                    };
                    indexed.insert(info.clone(), ts);
                    scan.insert(info, ts);
                }
            }
            let mut left: Vec<&str> = indexed.iter().map(|info| info.key.text()).collect();
            let mut right: Vec<&str> = scan.entries.keys().map(QueryKey::text).collect();
            left.sort_unstable();
            right.sort_unstable();
            assert_eq!(left, right, "retained key sets diverged after {op:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3_000))]

    /// Every LNC-A decision — including the rejections its bound settles
    /// without a selection — is Figure 1's over the scan oracle.
    #[test]
    fn lnc_ra_admission_matches_the_reference_decision(
        ops in proptest::collection::vec(lnc_op_strategy(), 1..120),
        capacity in 2_000u64..30_000,
        window in 0u32..3,
    ) {
        let config = LncConfig::lnc_ra(capacity).with_k(1 << window);
        let mut cache = LncCache::<SizedPayload>::new(config);
        let mut now = 0u64;
        for op in &ops {
            now = now.saturating_add_signed(op.advance_us);
            let ts = Timestamp::from_micros(now.max(1));
            let key = query_key(op);
            match op.action {
                0 => {
                    cache.remove(&key);
                }
                1 => {
                    cache.set_capacity_bytes(cache.used_bytes() / 2, ts);
                    cache.set_capacity_bytes(capacity, ts);
                }
                _ if cache.get(&key, ts).is_none() => {
                    let cost = ExecutionCost::from_blocks(op.cost);
                    let expected = cache.admits_reference(&key, op.size, cost, ts);
                    let outcome = cache.insert(key, SizedPayload::new(op.size), cost, ts);
                    assert_eq!(outcome.is_admitted(), expected, "{op:?}: {outcome:?}");
                }
                _ => {}
            }
            assert!(cache.books_balance(), "group bytes diverged after {op:?}");
        }
    }
}

/// One step of a retained-store trace.
#[derive(Debug, Clone)]
struct RetainedOp {
    /// 0 = take, 1–2 = record a reference, 3–5 = purge, else insert.
    action: u8,
    query: u8,
    size: u64,
    /// Zero for a tenth of the sets: their profit is zero.
    cost: u64,
    /// Selects the purge threshold, the window and the number of references.
    pick: u8,
    advance_us: i64,
}

fn retained_op_strategy() -> impl Strategy<Value = RetainedOp> {
    (
        0u8..12,
        0u8..60,
        1u64..40,
        0u64..10,
        0u8..255,
        -2_000i64..20_000,
    )
        .prop_map(|(action, query, size, cost, pick, advance_us)| RetainedOp {
            action,
            query,
            size: size * 50,
            cost: cost * 100,
            pick,
            advance_us,
        })
}

/// The retained store as it was before the decay index — every operation a
/// scan of a hash map — kept verbatim as the oracle for [`RetainedStore`].
pub(crate) struct ScanRetained {
    pub(crate) entries: HashMap<QueryKey, RetainedInfo>,
    pub(crate) max_entries: usize,
}

impl ScanRetained {
    pub(crate) fn record_reference(&mut self, key: &QueryKey, now: Timestamp) -> bool {
        match self.entries.get_mut(key) {
            Some(info) => {
                if info.history.last_reference() != Some(now) {
                    info.history.record(now);
                }
                true
            }
            None => false,
        }
    }

    pub(crate) fn insert(&mut self, info: RetainedInfo, now: Timestamp) {
        if !self.entries.contains_key(&info.key) && self.entries.len() >= self.max_entries {
            if let Some(worst) = self
                .entries
                .values()
                .min_by_key(|i| (i.profit(now), i.key.signature().value()))
                .map(|i| i.key.clone())
            {
                let worst_profit = self.entries[&worst].profit(now);
                if info.profit(now) >= worst_profit {
                    self.entries.remove(&worst);
                } else {
                    return;
                }
            }
        }
        self.entries.insert(info.key.clone(), info);
    }

    pub(crate) fn purge_below(&mut self, min_cached_profit: Profit, now: Timestamp) -> usize {
        let before = self.entries.len();
        self.entries
            .retain(|_, info| info.profit(now) >= min_cached_profit);
        before - self.entries.len()
    }
}
