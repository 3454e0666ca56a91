//! Scenario-level integration tests for the LNC-RA cache manager: the
//! situations the paper uses to motivate its design decisions, exercised
//! through the public API only.

use watchman_core::prelude::*;

fn ts(secs: u64) -> Timestamp {
    Timestamp::from_secs(secs)
}

fn key(name: &str) -> QueryKey {
    QueryKey::new(name.to_owned())
}

/// References a query: get, and on miss insert with the given size and cost.
fn reference(
    cache: &mut LncCache<SizedPayload>,
    name: &str,
    size: u64,
    cost: u64,
    secs: u64,
) -> bool {
    let k = key(name);
    if cache.get(&k, ts(secs)).is_some() {
        true
    } else {
        cache.insert(
            k,
            SizedPayload::new(size),
            ExecutionCost::from_blocks(cost),
            ts(secs),
        );
        false
    }
}

#[test]
fn projection_flood_cannot_wipe_out_expensive_aggregates() {
    // The paper's motivating example (§1): caching a cheap multi-attribute
    // projection must not evict hundreds of expensive sums and averages.
    let mut cache = LncCache::lnc_ra(100 * 1_024);
    // 100 expensive 1 KB aggregates fill the cache.
    for i in 0..100 {
        reference(&mut cache, &format!("aggregate-{i}"), 1_024, 50_000, i);
    }
    // Re-reference them so their rate estimates are established.
    for round in 1..3u64 {
        for i in 0..100 {
            reference(
                &mut cache,
                &format!("aggregate-{i}"),
                1_024,
                50_000,
                200 * round + i,
            );
        }
    }
    assert_eq!(cache.len(), 100);

    // A flood of cheap large projections arrives; none of them should displace
    // the aggregate working set.
    for i in 0..50 {
        reference(
            &mut cache,
            &format!("projection-{i}"),
            60 * 1_024,
            500,
            1_000 + i,
        );
    }
    let survivors = (0..100)
        .filter(|i| cache.contains(&key(&format!("aggregate-{i}"))))
        .count();
    assert!(
        survivors >= 95,
        "only {survivors}/100 aggregates survived the projection flood"
    );
    assert!(
        cache.stats().rejections >= 40,
        "the flood should mostly be rejected"
    );
}

#[test]
fn lru_baseline_is_wiped_out_by_the_same_flood() {
    // The same scenario against vanilla LRU destroys the aggregate working
    // set — the contrast the paper draws.
    let mut cache: LruCache<SizedPayload> = LruCache::new(100 * 1_024);
    for i in 0..100u64 {
        let k = key(&format!("aggregate-{i}"));
        cache.insert(
            k,
            SizedPayload::new(1_024),
            ExecutionCost::from_blocks(50_000),
            ts(i),
        );
    }
    for i in 0..50u64 {
        let k = key(&format!("projection-{i}"));
        cache.insert(
            k,
            SizedPayload::new(60 * 1_024),
            ExecutionCost::from_blocks(500),
            ts(1_000 + i),
        );
    }
    let survivors = (0..100)
        .filter(|i| cache.contains(&key(&format!("aggregate-{i}"))))
        .count();
    assert!(
        survivors < 20,
        "LRU unexpectedly preserved {survivors}/100 aggregates"
    );
}

#[test]
fn starvation_without_retained_info_and_recovery_with_it() {
    // §2.4: with K > 1 and no retained reference information, a hot set keeps
    // getting evicted before it can accumulate enough references; retaining
    // the information fixes it.
    let run = |retained: bool| -> bool {
        let config = LncConfig::lnc_ra(4 * 1_024)
            .with_k(3)
            .with_retained_info(retained);
        let mut cache: LncCache<SizedPayload> = LncCache::new(config);
        // Residents: four established 1 KB sets re-referenced regularly.
        for i in 0..4u64 {
            reference(&mut cache, &format!("resident-{i}"), 1_024, 1_000, i);
        }
        for round in 1..6u64 {
            for i in 0..4u64 {
                reference(
                    &mut cache,
                    &format!("resident-{i}"),
                    1_024,
                    1_000,
                    round * 40 + i,
                );
            }
        }
        // The contender is equally sized but referenced far more often; it
        // should eventually be cached when its history can survive evictions.
        let mut last_hit = false;
        for r in 0..12u64 {
            last_hit = reference(&mut cache, "contender", 1_024, 1_000, 300 + r * 3);
        }
        last_hit
    };
    assert!(
        run(true),
        "with retained reference information the hot contender must end up cached"
    );
    // Without retained information the contender is starved (its history
    // restarts from scratch on every re-reference, so it keeps losing the
    // admission comparison against established residents).
    assert!(
        !run(false),
        "without retained reference information the contender should starve"
    );
}

#[test]
fn coherence_invalidation_forces_recomputation() {
    // §3: when the warehouse manager applies an update, affected retrieved
    // sets are invalidated and the next reference recomputes them.
    let mut cache: LncCache<SizedPayload> = LncCache::lnc_ra(1 << 20);
    let mut index = DependencyIndex::new();

    let orders_summary = key("SELECT o_orderpriority, count(*) FROM orders GROUP BY 1");
    cache.insert(
        orders_summary.clone(),
        SizedPayload::new(256),
        ExecutionCost::from_blocks(9_000),
        ts(1),
    );
    index.register(orders_summary.clone(), ["ORDERS", "LINEITEM"]);
    assert!(cache.get(&orders_summary, ts(2)).is_some());

    // A batch update lands on ORDERS.
    let report = invalidate_affected(&mut index, "ORDERS", |k| cache.remove(k).is_some());
    assert_eq!(report.invalidated, vec![orders_summary.clone()]);
    assert!(
        cache.get(&orders_summary, ts(3)).is_none(),
        "stale set must be gone"
    );

    // The application recomputes and re-registers.
    cache.insert(
        orders_summary.clone(),
        SizedPayload::new(256),
        ExecutionCost::from_blocks(9_000),
        ts(3),
    );
    index.register(orders_summary.clone(), ["ORDERS", "LINEITEM"]);
    assert!(cache.get(&orders_summary, ts(4)).is_some());
}

#[test]
fn drill_down_session_keeps_the_upper_levels_cached() {
    // A hierarchical drill-down: the level-0 summary is referenced before
    // every descent, deeper levels are one-off.  The summary must stay cached
    // and its repeated references must be served from the cache.
    let mut cache = LncCache::lnc_ra(16 * 1_024);
    let mut hits_on_summary = 0;
    for session in 0..20u64 {
        let t = session * 100;
        if reference(&mut cache, "level0-summary", 512, 20_000, t) {
            hits_on_summary += 1;
        }
        reference(
            &mut cache,
            &format!("level1-{}", session % 5),
            2_048,
            8_000,
            t + 10,
        );
        reference(
            &mut cache,
            &format!("level2-{session}"),
            6_000,
            3_000,
            t + 20,
        );
    }
    assert!(
        hits_on_summary >= 18,
        "the top-level summary should be served from cache ({hits_on_summary}/19 possible hits)"
    );
    assert!(cache.contains(&key("level0-summary")));
    assert!(cache.used_bytes() <= cache.capacity_bytes());
}
