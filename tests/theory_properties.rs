//! Property-based tests for the §2.3 optimality model and the profit metric.

use proptest::prelude::*;
use watchman::prelude::*;
use watchman::sim::theory::{
    expected_cost_savings_ratio, expected_miss_cost, lnc_star, lnc_star_skipping, optimal_knapsack,
    KnapsackItem,
};

fn item_strategy() -> impl Strategy<Value = KnapsackItem> {
    (0.01f64..1.0, 1.0f64..1_000.0, 1u64..40).prop_map(|(p, c, s)| KnapsackItem::new(p, c, s))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn greedy_never_beats_the_exact_optimum(
        items in proptest::collection::vec(item_strategy(), 1..14),
        capacity in 1u64..300,
    ) {
        let greedy = lnc_star(&items, capacity);
        let skipping = lnc_star_skipping(&items, capacity);
        let optimal = optimal_knapsack(&items, capacity);
        prop_assert!(greedy.expected_saving <= optimal.expected_saving + 1e-9);
        prop_assert!(skipping.expected_saving <= optimal.expected_saving + 1e-9);
        // The skipping refinement never does worse than the plain greedy.
        prop_assert!(skipping.expected_saving >= greedy.expected_saving - 1e-9);
        // No selection exceeds the capacity.
        prop_assert!(greedy.total_size <= capacity);
        prop_assert!(skipping.total_size <= capacity);
        prop_assert!(optimal.total_size <= capacity);
    }

    #[test]
    fn theorem_one_equal_sizes_make_greedy_optimal(
        densities in proptest::collection::vec((0.01f64..1.0, 1.0f64..1_000.0), 1..12),
        size in 1u64..20,
        slots in 0usize..12,
    ) {
        // When every retrieved set has the same size, the cache can always be
        // filled exactly (assumption (11)), and Theorem 1 says the greedy
        // LNC* selection is optimal.
        let items: Vec<KnapsackItem> = densities
            .iter()
            .map(|&(p, c)| KnapsackItem::new(p, c, size))
            .collect();
        let capacity = size * slots as u64;
        let greedy = lnc_star(&items, capacity);
        let optimal = optimal_knapsack(&items, capacity);
        prop_assert!(
            (greedy.expected_saving - optimal.expected_saving).abs() < 1e-6,
            "greedy {} vs optimal {}",
            greedy.expected_saving,
            optimal.expected_saving
        );
    }

    #[test]
    fn miss_cost_and_savings_are_complementary(
        items in proptest::collection::vec(item_strategy(), 1..12),
        capacity in 1u64..200,
    ) {
        let selection = lnc_star_skipping(&items, capacity);
        let total: f64 = items.iter().map(|i| i.probability * i.cost).sum();
        let miss = expected_miss_cost(&items, &selection);
        prop_assert!((miss + selection.expected_saving - total).abs() < 1e-6);
        let csr = expected_cost_savings_ratio(&items, &selection);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&csr));
    }

    #[test]
    fn profit_ordering_is_monotone_in_cost_and_inverse_in_size(
        rate in 0.001f64..10.0,
        cost in 1.0f64..10_000.0,
        size in 1u64..1_000_000,
    ) {
        let base = Profit::of_set(rate, ExecutionCost::from_block_reads(cost), size);
        let pricier = Profit::of_set(rate, ExecutionCost::from_block_reads(cost * 2.0), size);
        let bigger = Profit::of_set(rate, ExecutionCost::from_block_reads(cost), size * 2);
        prop_assert!(pricier > base);
        prop_assert!(bigger < base);
    }

    #[test]
    fn list_profit_lies_between_member_extremes(
        members in proptest::collection::vec((0.001f64..5.0, 1.0f64..5_000.0, 1u64..10_000), 1..10),
    ) {
        let profits: Vec<Profit> = members
            .iter()
            .map(|&(r, c, s)| Profit::of_set(r, ExecutionCost::from_block_reads(c), s))
            .collect();
        let list = Profit::of_list(
            members
                .iter()
                .map(|&(r, c, s)| (r, ExecutionCost::from_block_reads(c), s)),
        );
        let min = profits.iter().copied().min().unwrap();
        let max = profits.iter().copied().max().unwrap();
        // The size-weighted aggregate profit is bounded by the member extremes.
        prop_assert!(list >= Profit::new(min.value() * (1.0 - 1e-9)));
        prop_assert!(list <= Profit::new(max.value() * (1.0 + 1e-9)));
    }

    #[test]
    fn reference_history_rate_never_exceeds_burst_rate(
        gaps in proptest::collection::vec(1u64..1_000_000, 1..20),
        k in 1usize..8,
    ) {
        // λ estimated from any window can never exceed one reference per the
        // smallest observed inter-arrival gap (scaled by the window size).
        let mut history = ReferenceHistory::new(k);
        let mut now = 0u64;
        for gap in &gaps {
            now += gap;
            history.record(Timestamp::from_micros(now));
        }
        let rate = history.rate(Timestamp::from_micros(now)).unwrap();
        prop_assert!(rate.is_finite());
        prop_assert!(rate > 0.0);
        // The window spans at least (samples - 1) minimum gaps (clamped to
        // one microsecond), which bounds the estimate from above.
        let min_gap = *gaps.iter().min().unwrap() as f64;
        let samples = history.sample_count() as f64;
        let min_elapsed = ((samples - 1.0) * min_gap).max(1.0);
        prop_assert!(rate <= samples / min_elapsed + 1e-9);
    }
}
