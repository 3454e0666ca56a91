//! The per-shard occupancy gauges cover the first `MAX_SHARD_GAUGES` shards
//! and no others: a shard past them must not write another shard's gauge.
//! This binary holds a single test: nothing else in the process touches the
//! registry, so the gauges read back exactly what the engine wrote.

use watchman_core::prelude::*;
use watchman_core::telemetry::{self, MAX_SHARD_GAUGES};

const SHARDS: usize = 70;

fn ts(micros: u64) -> Timestamp {
    Timestamp::from_micros(micros)
}

/// The first probe key a `SHARDS`-shard engine routes to `shard`, observed
/// through an engine far too large to evict anything.
fn key_on_shard(probe: &Watchman<SizedPayload>, shard: usize) -> QueryKey {
    (0..10_000)
        .map(|i| QueryKey::new(format!("gauge-probe-{shard}-{i}")))
        .find(|key| {
            let before = probe.stats_snapshot().per_shard_used[shard];
            probe.insert(
                key.clone(),
                SizedPayload::new(1),
                ExecutionCost::from_blocks(1),
                ts(1),
            );
            probe.stats_snapshot().per_shard_used[shard] != before
        })
        .expect("some probe key lands on the shard")
}

#[test]
fn shards_past_the_gauge_array_leave_the_last_gauge_alone() {
    let probe: Watchman<SizedPayload> = Watchman::builder()
        .shards(SHARDS)
        .policy(PolicyKind::LNC_RA)
        .capacity_bytes(1 << 30)
        .build();
    let last_gauged = MAX_SHARD_GAUGES - 1;
    let on_last_gauged = key_on_shard(&probe, last_gauged);
    let on_last_shard = key_on_shard(&probe, SHARDS - 1);

    let engine: Watchman<SizedPayload> = Watchman::builder()
        .shards(SHARDS)
        .policy(PolicyKind::LNC_RA)
        .capacity_bytes(1 << 30)
        .build();
    for (key, size) in [(on_last_gauged, 100), (on_last_shard, 300)] {
        engine.insert(
            key,
            SizedPayload::new(size),
            ExecutionCost::from_blocks(1_000),
            ts(2),
        );
    }
    let snapshot = engine.stats_snapshot();
    assert_eq!(snapshot.per_shard_used.len(), SHARDS);
    assert_ne!(
        snapshot.per_shard_used[last_gauged],
        snapshot.per_shard_used[SHARDS - 1],
        "the two shards hold sets of different sizes"
    );

    let registry = telemetry::global();
    assert_eq!(
        registry.shard_used(last_gauged),
        snapshot.per_shard_used[last_gauged],
        "gauge {last_gauged} reports shard {last_gauged}, not a later shard"
    );
    let gauge = format!("engine.shard.{last_gauged:02}.used_bytes");
    assert_eq!(
        registry.snapshot().gauges.get(&gauge).copied(),
        Some(snapshot.per_shard_used[last_gauged]),
        "METRICS {gauge}"
    );
}
