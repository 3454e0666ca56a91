//! Property-based tests over the cache policies.
//!
//! Random operation sequences are replayed against every policy and the
//! structural invariants that all of them must uphold are checked:
//!
//! * occupancy never exceeds capacity;
//! * byte accounting matches the sum of cached payload sizes;
//! * `contains` agrees with `get`;
//! * the statistics counters are internally consistent;
//! * replays are deterministic.

use proptest::prelude::*;
use watchman::prelude::*;

/// One synthetic query class in the generated workloads.
#[derive(Debug, Clone)]
struct Op {
    /// Which query (small id space so that repetitions occur).
    query: u8,
    /// Retrieved-set size in bytes.
    size: u64,
    /// Execution cost in block reads.
    cost: u64,
    /// Logical time increment before the operation.
    advance_us: u64,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..40, 1u64..4_000, 1u64..20_000, 1u64..5_000_000).prop_map(
        |(query, size, cost, advance_us)| Op {
            query,
            size,
            cost,
            advance_us,
        },
    )
}

fn policies(capacity: u64) -> Vec<Box<dyn QueryCache<SizedPayload> + Send>> {
    PolicyKind::all()
        .into_iter()
        .map(|kind| kind.build(capacity))
        .collect()
}

/// Replays the operations against one policy, checking invariants after every
/// step, and returns (hits, admissions).
fn replay_checked(cache: &mut dyn QueryCache<SizedPayload>, ops: &[Op]) -> (u64, u64) {
    let mut now = 0u64;
    for op in ops {
        now += op.advance_us;
        let key = QueryKey::new(format!("prop-query-{}", op.query));
        let ts = Timestamp::from_micros(now);
        let hit = cache.get(&key, ts).is_some();
        assert_eq!(
            hit,
            cache.contains(&key),
            "{}: get and contains disagree",
            cache.name()
        );
        if !hit {
            let outcome = cache.insert(
                key.clone(),
                SizedPayload::new(op.size),
                ExecutionCost::from_blocks(op.cost),
                ts,
            );
            if outcome.is_cached() {
                assert!(
                    cache.contains(&key),
                    "{}: admitted set must be resident",
                    cache.name()
                );
            }
            for evicted in outcome.evicted() {
                assert!(
                    !cache.contains(evicted),
                    "{}: evicted key still resident",
                    cache.name()
                );
            }
        }
        assert!(
            cache.used_bytes() <= cache.capacity_bytes(),
            "{}: occupancy {} exceeds capacity {}",
            cache.name(),
            cache.used_bytes(),
            cache.capacity_bytes()
        );
        let stats = cache.stats();
        assert!(stats.hits <= stats.references);
        assert!(stats.saved_cost <= stats.total_cost + 1e-9);
        assert!(stats.admissions + stats.rejections <= stats.insertions_offered);
    }
    (cache.stats().hits, cache.stats().admissions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_policies_uphold_structural_invariants(
        ops in proptest::collection::vec(op_strategy(), 1..250),
        capacity in 1_000u64..200_000,
    ) {
        for mut cache in policies(capacity) {
            replay_checked(cache.as_mut(), &ops);
            // Clearing always resets occupancy.
            cache.clear();
            prop_assert_eq!(cache.used_bytes(), 0);
            prop_assert_eq!(cache.len(), 0);
        }
    }

    #[test]
    fn replays_are_deterministic(
        ops in proptest::collection::vec(op_strategy(), 1..150),
        capacity in 1_000u64..100_000,
    ) {
        for kind in PolicyKind::all() {
            let mut a = kind.build(capacity);
            let mut b = kind.build(capacity);
            let ra = replay_checked(a.as_mut(), &ops);
            let rb = replay_checked(b.as_mut(), &ops);
            prop_assert_eq!(ra, rb, "{} diverged between identical replays", kind);
            prop_assert_eq!(a.stats(), b.stats());
        }
    }

    #[test]
    fn unbounded_lnc_ra_never_misses_twice(
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        // With unlimited capacity every distinct query misses exactly once.
        let mut cache: LncCache<SizedPayload> = LncCache::new(LncConfig::unbounded());
        let mut distinct = std::collections::HashSet::new();
        let mut now = 0u64;
        for op in &ops {
            now += op.advance_us;
            let key = QueryKey::new(format!("prop-query-{}", op.query));
            distinct.insert(op.query);
            let ts = Timestamp::from_micros(now);
            if cache.get(&key, ts).is_none() {
                cache.insert(
                    key,
                    SizedPayload::new(op.size),
                    ExecutionCost::from_blocks(op.cost),
                    ts,
                );
            }
        }
        prop_assert_eq!(cache.stats().misses(), distinct.len() as u64);
        prop_assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn csr_is_always_a_valid_ratio(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        capacity in 1_000u64..50_000,
    ) {
        for mut cache in policies(capacity) {
            replay_checked(cache.as_mut(), &ops);
            let stats = cache.stats();
            let csr = stats.cost_savings_ratio();
            let hr = stats.hit_ratio();
            prop_assert!((0.0..=1.0).contains(&csr), "{}: CSR {}", cache.name(), csr);
            prop_assert!((0.0..=1.0).contains(&hr), "{}: HR {}", cache.name(), hr);
        }
    }
}
