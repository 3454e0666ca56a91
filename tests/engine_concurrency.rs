//! Concurrency tests for the `watchman_core::engine` subsystem: single-flight
//! execution under thread pressure, and sharded-vs-unsharded statistics
//! equivalence.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use proptest::prelude::*;
use watchman::prelude::*;

/// N threads race over M keys; every key's fetch must run exactly once, no
/// matter how many sessions miss on it concurrently.
#[test]
fn single_flight_executes_each_miss_exactly_once() {
    const THREADS: usize = 8;
    const KEYS: usize = 24;
    const ROUNDS: usize = 6;

    let engine: Watchman<SizedPayload> = Watchman::builder()
        .shards(8)
        .policy(PolicyKind::LncRa { k: 4 })
        .capacity_bytes(64 << 20) // roomy: nothing is evicted mid-test
        .build();
    let executions: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
    let executions = Arc::new(executions);
    let barrier = Arc::new(Barrier::new(THREADS));

    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let engine = engine.clone();
            let executions = Arc::clone(&executions);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                barrier.wait();
                for round in 0..ROUNDS {
                    for offset in 0..KEYS {
                        // Interleave key order per thread so different
                        // sessions collide on the same key at the same time.
                        let key_index = (offset + thread * 3) % KEYS;
                        let key = QueryKey::new(format!("stress-query-{key_index}"));
                        let now = Timestamp::from_micros((round * KEYS + offset + 1) as u64);
                        let lookup = engine.get_or_execute(&key, now, || {
                            executions[key_index].fetch_add(1, Ordering::SeqCst);
                            // Keep the flight open long enough for others to
                            // pile up behind the leader.
                            std::thread::sleep(std::time::Duration::from_micros(300));
                            (
                                SizedPayload::new(256 + key_index as u64),
                                ExecutionCost::from_blocks(1_000),
                            )
                        });
                        assert_eq!(lookup.value.size_bytes(), 256 + key_index as u64);
                    }
                }
            });
        }
    });

    for (key_index, count) in executions.iter().enumerate() {
        assert_eq!(
            count.load(Ordering::SeqCst),
            1,
            "key {key_index} executed more than once despite single-flight"
        );
    }

    let snapshot = engine.stats_snapshot();
    let total_lookups = (THREADS * KEYS * ROUNDS) as u64;
    assert_eq!(
        snapshot.total.references, total_lookups,
        "every lookup records exactly one reference (hit, miss or coalesced)"
    );
    assert_eq!(
        snapshot.total.references,
        snapshot.total.hits + snapshot.total.misses() + snapshot.total.coalesced,
        "references must partition into hits, misses and coalesced waits"
    );
    assert_eq!(
        snapshot.total.misses(),
        KEYS as u64,
        "one recorded miss per key"
    );
    // Coalesced references are hit-equivalent: they saved the leader's cost,
    // so the saved-cost accumulator must cover them.
    assert!(snapshot.total.saved_cost <= snapshot.total.total_cost + 1e-9);
    assert_eq!(snapshot.entries, KEYS);
}

/// Sessions hammer a small sharded cache while a monitor thread snapshots
/// the engine throughout: every shard's occupancy stays within its fixed
/// `total/N` share in every snapshot.
#[test]
fn concurrent_snapshots_keep_every_shard_within_its_share() {
    const THREADS: usize = 4;
    const OPS_PER_THREAD: usize = 3_000;
    const TOTAL: u64 = 100_000;
    const SHARE: u64 = TOTAL / 8;

    let engine: Watchman<SizedPayload> = Watchman::builder()
        .shards(8)
        .policy(PolicyKind::LncRa { k: 4 })
        .capacity_bytes(TOTAL)
        .build();
    let done = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let engine = engine.clone();
            let done = Arc::clone(&done);
            scope.spawn(move || {
                for i in 0..OPS_PER_THREAD {
                    // A skewed keyspace: a small hot set plus a one-off tail.
                    let hot = (i % 7) + thread;
                    let name = if i % 3 == 0 {
                        format!("tail-{thread}-{i}")
                    } else {
                        format!("hot-{hot}")
                    };
                    let now = Timestamp::from_micros((thread * OPS_PER_THREAD + i + 1) as u64);
                    engine.get_or_execute(&QueryKey::new(name), now, || {
                        (
                            SizedPayload::new(500 + (i as u64 % 11) * 400),
                            ExecutionCost::from_blocks(10 + (i as u64 % 5) * 10_000),
                        )
                    });
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Monitor: the invariants must hold in every mid-flight snapshot.
        let engine = engine.clone();
        let done = Arc::clone(&done);
        scope.spawn(move || {
            let mut checks = 0u64;
            while done.load(Ordering::SeqCst) < THREADS as u64 {
                let snapshot = engine.stats_snapshot();
                for (shard, &used) in snapshot.per_shard_used.iter().enumerate() {
                    assert!(
                        used <= SHARE,
                        "shard {shard} occupancy {used} exceeds its share {SHARE}"
                    );
                }
                checks += 1;
            }
            assert!(checks > 0);
        });
    });

    let snapshot = engine.stats_snapshot();
    assert_eq!(snapshot.capacity_bytes, TOTAL);
    assert_eq!(
        snapshot.total.references,
        (THREADS * OPS_PER_THREAD) as u64,
        "one recorded reference per lookup, coalesced included"
    );
    assert!(
        snapshot.total.evictions > 0,
        "the traffic must press on the shares"
    );
}

/// Replays a synthetic operation sequence through a sharded engine and an
/// unsharded one; with capacity for everything (no evictions), the aggregate
/// statistics must be identical.
fn op_strategy() -> impl Strategy<Value = (u8, u64, u64, u64)> {
    (0u8..60, 1u64..4_000, 1u64..20_000, 1u64..2_000_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_aggregate_stats_match_unsharded_without_evictions(
        ops in proptest::collection::vec(op_strategy(), 1..300),
        shards in 2usize..12,
    ) {
        let capacity = 1u64 << 40; // effectively infinite: no evictions
        let sharded: Watchman<SizedPayload> = Watchman::builder()
            .shards(shards)
            .policy(PolicyKind::LncRa { k: 4 })
            .capacity_bytes(capacity)
            .build();
        let unsharded: Watchman<SizedPayload> = Watchman::builder()
            .shards(1)
            .policy(PolicyKind::LncRa { k: 4 })
            .capacity_bytes(capacity)
            .build();

        let mut now = 0u64;
        for &(query, size, cost, advance) in &ops {
            now += advance;
            let key = QueryKey::new(format!("prop-query-{query}"));
            let ts = Timestamp::from_micros(now);
            for engine in [&sharded, &unsharded] {
                engine.get_or_execute(&key, ts, || {
                    (SizedPayload::new(size), ExecutionCost::from_blocks(cost))
                });
            }
        }

        let a = sharded.stats_snapshot();
        let b = unsharded.stats_snapshot();
        prop_assert_eq!(&a.total, &b.total, "aggregate stats diverged at {} shards", shards);
        prop_assert_eq!(a.used_bytes, b.used_bytes);
        prop_assert_eq!(a.entries, b.entries);
        prop_assert_eq!(a.per_shard.len(), shards);
        // Per-shard counters must partition the totals exactly.
        let refs: u64 = a.per_shard.iter().map(|s| s.references).sum();
        prop_assert_eq!(refs, a.total.references);
    }

    #[test]
    fn sharded_replay_partitions_every_counter(
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        // Small capacity: evictions and rejections happen, and the per-shard
        // counters must still sum to the aggregate.
        let engine: Watchman<SizedPayload> = Watchman::builder()
            .shards(4)
            .policy(PolicyKind::LncRa { k: 4 })
            .capacity_bytes(50_000)
            .build();
        let mut now = 0u64;
        for &(query, size, cost, advance) in &ops {
            now += advance;
            let key = QueryKey::new(format!("prop-query-{query}"));
            engine.get_or_execute(&key, Timestamp::from_micros(now), || {
                (SizedPayload::new(size), ExecutionCost::from_blocks(cost))
            });
        }
        let snapshot = engine.stats_snapshot();
        let mut summed = CacheStats::new();
        for shard in &snapshot.per_shard {
            summed.merge(shard);
        }
        prop_assert_eq!(&summed, &snapshot.total);
        prop_assert!(engine.used_bytes() <= engine.capacity_bytes());
    }

    #[test]
    fn sharded_replay_keeps_every_shard_within_its_share(
        ops in proptest::collection::vec(op_strategy(), 50..250),
        shards in 2usize..9,
    ) {
        // Small capacity: after every operation each shard's occupancy is
        // within its fixed share (`total/N`, the remainder going to the
        // first shards).
        let capacity = 40_000u64;
        let engine: Watchman<SizedPayload> = Watchman::builder()
            .shards(shards)
            .policy(PolicyKind::LncRa { k: 4 })
            .capacity_bytes(capacity)
            .build();
        let (base, remainder) = (capacity / shards as u64, capacity % shards as u64);
        let mut now = 0u64;
        for &(query, size, cost, advance) in &ops {
            now += advance;
            let key = QueryKey::new(format!("prop-query-{query}"));
            engine.get_or_execute(&key, Timestamp::from_micros(now), || {
                (SizedPayload::new(size), ExecutionCost::from_blocks(cost))
            });
            let snapshot = engine.stats_snapshot();
            for (shard, &used) in snapshot.per_shard_used.iter().enumerate() {
                let share = base + u64::from((shard as u64) < remainder);
                prop_assert!(
                    used <= share,
                    "shard {} occupancy {} exceeds its share {}",
                    shard,
                    used,
                    share
                );
            }
        }
    }
}
