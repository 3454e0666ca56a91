//! A rebalance transfer's evictions reach the process-global telemetry
//! registry, so METRICS `engine.evictions` and STATS `total.evictions`
//! agree.  This binary holds a single test: nothing else in the process
//! touches the registry, so its counts are exact.

use watchman_core::prelude::*;
use watchman_core::telemetry;

fn ts(micros: u64) -> Timestamp {
    Timestamp::from_micros(micros)
}

/// Sorts `count` probe keys by the shard a two-shard engine routes them to,
/// observed through an engine far too large to evict anything.
fn keys_by_shard(count: usize) -> [Vec<QueryKey>; 2] {
    let probe: Watchman<SizedPayload> = Watchman::builder()
        .shards(2)
        .policy(PolicyKind::LNC_RA)
        .capacity_bytes(1 << 30)
        .build();
    let mut buckets = [Vec::new(), Vec::new()];
    let mut previous = [0u64; 2];
    for i in 0..count {
        let key = QueryKey::new(format!("classify-{i}"));
        probe.insert(
            key.clone(),
            SizedPayload::new(1),
            ExecutionCost::from_blocks(1),
            ts(i as u64 + 1),
        );
        let used = probe.stats_snapshot().per_shard_used;
        for shard in 0..2 {
            if used[shard] != previous[shard] {
                buckets[shard].push(key.clone());
            }
            previous[shard] = used[shard];
        }
    }
    buckets
}

#[test]
fn rebalance_evictions_reach_the_registry() {
    const TOTAL: u64 = 20_000;
    let engine: Watchman<SizedPayload> = Watchman::builder()
        .shards(2)
        .policy(PolicyKind::LNC_RA)
        .capacity_bytes(TOTAL)
        .rebalance(
            RebalanceConfig::new()
                .manual()
                .with_min_shard_fraction(0.25)
                .with_step_fraction(0.1),
        )
        .build();
    let [hot, junk] = keys_by_shard(120);
    // Shard 0 sees a hot working set of valuable summaries that does not
    // fit its static half; shard 1 fills with one-off junk, so capacity
    // taken from it must evict.
    let hot: Vec<_> = hot.into_iter().take(15).collect();
    assert!(
        hot.len() == 15 && junk.len() >= 20,
        "probe found too few keys"
    );

    let registry = telemetry::global();
    let mut now = 0u64;
    let mut junk_round = 0usize;
    let mut evicting_transfer = None;
    for _ in 0..60 {
        for key in &hot {
            now += 1_000;
            engine.get_or_execute(key, ts(now), || {
                (
                    SizedPayload::new(1_000),
                    ExecutionCost::from_blocks(100_000),
                )
            });
        }
        for _ in 0..2 {
            let key = &junk[junk_round % junk.len()];
            junk_round += 1;
            now += 1_000;
            engine.get_or_execute(key, ts(now), || {
                (SizedPayload::new(2_000), ExecutionCost::from_blocks(1))
            });
        }
        let registry_before = registry.evictions.get();
        let stats_before = engine.stats_snapshot().total.evictions;
        let Some(outcome) = engine.rebalance_now(ts(now)) else {
            continue;
        };
        if outcome.evicted.is_empty() {
            continue;
        }
        let snapshot = engine.stats_snapshot();
        evicting_transfer = Some((
            outcome,
            registry.evictions.get() - registry_before,
            snapshot.total.evictions - stats_before,
            snapshot,
        ));
        break;
    }

    let (outcome, registry_delta, stats_delta, snapshot) =
        evicting_transfer.expect("some rebalance pass must move capacity and evict");
    assert_eq!(
        stats_delta,
        outcome.evicted.len() as u64,
        "the transfer's evictions are counted in STATS"
    );
    assert_eq!(
        registry_delta, stats_delta,
        "METRICS engine.evictions must count the transfer's evictions"
    );
    assert_eq!(
        registry.evictions.get(),
        snapshot.total.evictions,
        "the registry and the engine agree over the whole run"
    );
    for shard in [outcome.donor, outcome.recipient] {
        assert_eq!(
            registry.shard_used(shard),
            snapshot.per_shard_used[shard],
            "shard {shard}'s occupancy gauge is current after the transfer"
        );
    }
}
