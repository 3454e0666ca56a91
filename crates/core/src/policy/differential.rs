//! Differential property tests: every policy over its index against the
//! same policy over [`Scan`].
//!
//! [`Scan`] is the victim order the indexes replaced: at every decision it
//! re-scores every set with the rule's own rank expression and sorts.  It is
//! the one oracle.  Each property replays one generated trace through a
//! policy twice — over its index (the [`OrdIndex`] of static ranks for the
//! five baselines, the decay index for LNC-R/LNC-RA) and over the scan — and
//! asserts at every step that both caches answer each `get` alike, return
//! equal [`InsertOutcome`]s (evicted keys in order), select the same victims
//! for a spread of byte targets, price the least cached profit alike, and
//! retain the same histories.  The scan offers no bound on the
//! victims' `c/s`, so it always selects them: LNC-A's shortcut is held to
//! the full selection.  The §2.4 store is driven on its own against a store
//! ordered by the scan.
//!
//! The traces deliberately hammer the corners that break incremental
//! indexes: same-key refreshes that change sizes and priorities, removals
//! (invalidation does not evict), evictions of freshly admitted entries,
//! slot reuse after removal, and repeated decisions at both advancing and
//! unchanged timestamps.  The LNC traces add what its decay index is
//! sensitive to: time stepping *backwards* (which both caches' clamp must
//! absorb alike), weights drawn from a coarse grid (so buckets hold several
//! sets and profits tie exactly), and a 200-query id space.
//!
//! [`OrdIndex`]: crate::policy::index::OrdIndex
//! [`InsertOutcome`]: crate::policy::InsertOutcome

use proptest::prelude::*;

use crate::clock::Timestamp;
use crate::decay::DecayIndex;
use crate::history::ReferenceHistory;
use crate::index::{EntryId, EntryStore, SetInfo};
use crate::key::QueryKey;
use crate::policy::gds::{GdsRule, GreedyDualSizeCache};
use crate::policy::lcs::{LcsCache, LcsRule};
use crate::policy::lfu::{LfuCache, LfuRule};
use crate::policy::lnc::{LncCache, LncConfig, LncRule};
use crate::policy::lru::{LruCache, LruRule};
use crate::policy::lru_k::{LruKCache, LruKConfig, LruKRule};
use crate::policy::ranked::{Entry, RankRule, RankedCache, VictimOrder};
use crate::policy::QueryCache;
use crate::profit::Profit;
use crate::retained::{RetainedInfo, RetainedOrder, RetainedStore};
use crate::value::{ExecutionCost, SizedPayload};

/// The order that re-scores every set at the decision's `now` and sorts.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scan;

/// Hands the keyed slots to `take` in ascending `(key, slot)` order —
/// descending when `max` — until it returns `false`.
fn walk<K: Ord + Copy>(
    mut keyed: Vec<(K, EntryId)>,
    max: bool,
    mut take: impl FnMut(EntryId, K) -> bool,
) {
    keyed.sort_unstable();
    if max {
        keyed.reverse();
    }
    for (key, id) in keyed {
        if !take(id, key) {
            break;
        }
    }
}

impl<R: RankRule> VictimOrder<R> for Scan {
    fn new() -> Self {
        Scan
    }

    fn file(&mut self, _: &SetInfo<R::State>, _: EntryId, _: Timestamp) {}

    fn ascend<V>(
        &mut self,
        entries: &EntryStore<Entry<V, R::State>>,
        now: Timestamp,
        by_group: bool,
        mut take: impl FnMut(EntryId) -> bool,
    ) {
        let keyed = entries
            .iter()
            .map(|(id, e)| {
                let group = if by_group { R::group(&e.info.state) } else { 0 };
                ((group, R::rank(&e.info, now)), id)
            })
            .collect();
        walk(keyed, R::VICTIM_IS_MAX, |id, _| take(id));
    }

    fn clear(&mut self) {}
}

impl RetainedOrder for Scan {
    fn file(&mut self, _: &RetainedInfo, _: EntryId) {}

    fn ascend(
        &mut self,
        entries: &EntryStore<RetainedInfo>,
        now: Timestamp,
        _: Option<Profit>,
        mut take: impl FnMut(EntryId, Profit) -> bool,
    ) {
        let keyed = entries
            .iter()
            .map(|(id, info)| ((info.profit(now), info.key.signature().value()), id))
            .collect();
        walk(keyed, false, |id, (profit, _)| take(id, profit));
    }

    fn clear(&mut self) {}
}

/// One step of a generated trace.
#[derive(Debug, Clone)]
struct Op {
    /// Action selector: 0 = remove, else reference (get, insert on miss).
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

/// Steps with one of `queries` ids, and sizes and costs drawn from the
/// ranges in multiples of `grid`.
fn steps(
    queries: u8,
    sizes: std::ops::Range<u64>,
    costs: std::ops::Range<u64>,
    grid: (u64, u64),
    advances: std::ops::Range<i64>,
) -> impl Strategy<Value = Op> {
    (0u8..12, 0..queries, sizes, costs, advances).prop_map(
        move |(action, query, size, cost, advance_us)| Op {
            action,
            query,
            size: size * grid.0,
            cost: cost * grid.1,
            advance_us,
        },
    )
}

fn op_strategy() -> impl Strategy<Value = Op> {
    steps(24, 1..2_000, 1..20_000, (1, 1), 0..2_000_000)
}

/// Traces for LNC: sizes and costs from a coarse grid, a wide id space, and
/// about one step in eight going back in time.
fn lnc_op_strategy() -> impl Strategy<Value = Op> {
    steps(200, 1..40, 0..20, (50, 100), -300_000..2_000_000)
}

fn query_key(op: &Op) -> QueryKey {
    QueryKey::new(format!("diff-query-{}", op.query))
}

/// The one property: `indexed` and `scan`, one policy over two orders,
/// decide alike at every step of `ops`.
fn run_differential<R, O, S>(
    mut indexed: RankedCache<SizedPayload, R, O>,
    mut scan: RankedCache<SizedPayload, S, Scan>,
    ops: &[Op],
) where
    R: RankRule,
    O: VictimOrder<R>,
    S: RankRule,
{
    let name = indexed.name();
    let mut now = 0u64;
    for op in ops {
        now = now.saturating_add_signed(op.advance_us);
        let ts = Timestamp::from_micros(now.max(1));
        let key = query_key(op);
        match op.action {
            0 => assert_eq!(
                QueryCache::remove(&mut indexed, &key),
                QueryCache::remove(&mut scan, &key)
            ),
            _ => {
                let hit = indexed.get(&key, ts).is_some();
                assert_eq!(hit, scan.get(&key, ts).is_some(), "{name}: {op:?}");
                if !hit {
                    let (value, cost) = (
                        SizedPayload::new(op.size),
                        ExecutionCost::from_blocks(op.cost),
                    );
                    assert_eq!(
                        indexed.insert(key.clone(), value, cost, ts),
                        scan.insert(key, value, cost, ts),
                        "{name}: {op:?}"
                    );
                }
            }
        }
        assert!(
            indexed.books_balance(),
            "{name}: group bytes diverged after {op:?}"
        );
        agree(&mut indexed, &mut scan, ts);
    }
}

/// The victims both caches select for a spread of byte targets, on copies,
/// up to the whole occupancy, and their least profits and retained
/// histories at `now`.
fn agree<R, O, S>(
    indexed: &mut RankedCache<SizedPayload, R, O>,
    scan: &mut RankedCache<SizedPayload, S, Scan>,
    now: Timestamp,
) where
    R: RankRule,
    O: VictimOrder<R>,
    S: RankRule,
{
    let (name, used) = (indexed.name(), indexed.used_bytes());
    for needed in [used.min(1), used - used / 2, used] {
        assert_eq!(
            indexed.clone().victim_keys(needed, now),
            scan.clone().victim_keys(needed, now),
            "{name}: victims for {needed} bytes diverged"
        );
    }
    assert_eq!(
        indexed.min_cached_profit(now),
        scan.min_cached_profit(now),
        "{name}: min_cached_profit diverged"
    );
    let retained = |mut keys: Vec<QueryKey>| {
        keys.sort_unstable_by(|a, b| a.text().cmp(b.text()));
        keys
    };
    assert_eq!(
        retained(indexed.rule.retained_keys()),
        retained(scan.rule.retained_keys()),
        "{name}: retained histories diverged"
    );
}

/// The baseline over its static-rank index and over the scan.
fn run_baseline<R: RankRule>(
    indexed: RankedCache<SizedPayload, R, impl VictimOrder<R>>,
    rule: R,
    ops: &[Op],
) {
    let scan = RankedCache::with_rule(indexed.capacity_bytes(), rule);
    run_differential(indexed, scan, ops);
}

/// LNC over the decay index and over the scan.
fn run_lnc(config: LncConfig, ops: &[Op]) {
    let scan = RankedCache::<SizedPayload, LncRule<Scan>, Scan>::new(config.clone());
    run_differential(LncCache::new(config), scan, ops);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lru_index_matches_scan_reference(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        capacity in 2_000u64..40_000,
    ) {
        run_baseline(LruCache::new(capacity), LruRule::default(), &ops);
    }

    #[test]
    fn lru_k_index_matches_scan_reference(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        capacity in 2_000u64..40_000,
    ) {
        let indexed = LruKCache::with_capacity(capacity, 3);
        run_baseline(indexed, LruKRule::new(&LruKConfig::new(capacity, 3)), &ops);
    }

    #[test]
    fn lfu_index_matches_scan_reference(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        capacity in 2_000u64..40_000,
    ) {
        run_baseline(LfuCache::new(capacity), LfuRule, &ops);
    }

    #[test]
    fn lcs_index_matches_scan_reference(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        capacity in 2_000u64..40_000,
    ) {
        run_baseline(LcsCache::new(capacity), LcsRule, &ops);
    }

    #[test]
    fn gds_index_matches_scan_reference(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        capacity in 2_000u64..40_000,
    ) {
        run_baseline(GreedyDualSizeCache::new(capacity), GdsRule::default(), &ops);
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
        run_lnc(config.with_k(1 << window), &ops);
    }

    #[test]
    fn retained_purge_matches_scan_reference(
        ops in proptest::collection::vec(retained_op_strategy(), 1..200),
        bound in 4usize..40,
    ) {
        let mut indexed: RetainedStore<DecayIndex> = RetainedStore::new(bound);
        let mut scan: RetainedStore<Scan> = RetainedStore::new(bound);
        let (mut now, mut latest) = (1_000_000u64, 0);
        for op in &ops {
            // The store's owner supplies monotone time.
            now = now.saturating_add_signed(op.advance_us);
            latest = latest.max(now);
            let ts = Timestamp::from_micros(latest);
            let key = QueryKey::new(format!("retained-{}", op.query));
            match op.action {
                0 => {
                    let taken = indexed.take(&key).map(|info| info.state);
                    assert_eq!(taken, scan.take(&key).map(|info| info.state));
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
                    let mut held: Vec<Profit> = scan.iter().map(|i| i.profit(ts)).collect();
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
                        history.record(Timestamp::from_micros((latest / 1_000).saturating_sub(back) * 1_000));
                    }
                    let info = RetainedInfo {
                        key,
                        size_bytes: op.size,
                        cost: ExecutionCost::from_blocks(op.cost),
                        state: history,
                    };
                    indexed.insert(info.clone(), ts);
                    scan.insert(info, ts);
                }
            }
            let mut left: Vec<&str> = indexed.iter().map(|info| info.key.text()).collect();
            let mut right: Vec<&str> = scan.iter().map(|info| info.key.text()).collect();
            left.sort_unstable();
            right.sort_unstable();
            assert_eq!(left, right, "retained key sets diverged after {op:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3_000))]

    /// Every LNC-A decision — including the rejections its bound settles
    /// without a selection — is the one the scan's full selection makes.
    #[test]
    fn lnc_ra_admission_matches_the_reference_decision(
        ops in proptest::collection::vec(lnc_op_strategy(), 1..120),
        capacity in 2_000u64..30_000,
        window in 0u32..3,
    ) {
        run_lnc(LncConfig::lnc_ra(capacity).with_k(1 << window), &ops);
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
