//! Async execution stress tests: many session tasks on a multi-worker
//! runtime racing through [`Watchman::try_get_or_execute_async`], plus the
//! abandoned-flight restart and runtime lifecycle guarantees.
//!
//! CI runs this suite as its dedicated async stress step
//! (`cargo test --test async_stress`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use watchman::prelude::*;

fn engine(shards: usize, capacity: u64, workers: usize) -> Watchman<SizedPayload> {
    Watchman::builder()
        .shards(shards)
        .policy(PolicyKind::LncRa { k: 4 })
        .capacity_bytes(capacity)
        .runtime_workers(workers)
        .build()
}

/// Many more sessions than runtime workers race over a small key set; every
/// key's fetch must execute exactly once, and suspended sessions must not
/// hold worker threads (the pool has 4 workers for 32 sessions — if waiters
/// blocked workers, the leaders' fetches could never run and this would
/// deadlock).
#[test]
fn async_single_flight_executes_each_miss_exactly_once() {
    const SESSIONS: usize = 32;
    const KEYS: usize = 12;
    const ROUNDS: usize = 4;

    let engine = engine(8, 64 << 20, 4);
    let runtime = engine.runtime();
    let executions: Arc<Vec<AtomicU64>> = Arc::new((0..KEYS).map(|_| AtomicU64::new(0)).collect());

    let handles: Vec<_> = (0..SESSIONS)
        .map(|session| {
            let engine = engine.clone();
            let executions = Arc::clone(&executions);
            runtime.spawn(async move {
                for round in 0..ROUNDS {
                    for offset in 0..KEYS {
                        let key_index = (offset + session * 5) % KEYS;
                        let key = QueryKey::new(format!("stress-{key_index}"));
                        let now = Timestamp::from_micros((round * KEYS + offset + 1) as u64);
                        let executions = Arc::clone(&executions);
                        let lookup = engine
                            .try_get_or_execute_async(&key, now, move || {
                                executions[key_index].fetch_add(1, Ordering::SeqCst);
                                // Hold the flight open long enough for other
                                // sessions to pile up behind the leader.
                                std::thread::sleep(Duration::from_micros(500));
                                Ok((
                                    SizedPayload::new(256 + key_index as u64),
                                    ExecutionCost::from_blocks(1_000),
                                ))
                            })
                            .await
                            .expect("fetch never fails");
                        assert_eq!(lookup.value.size_bytes(), 256 + key_index as u64);
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        block_on(handle).expect("session task completed");
    }

    for (key_index, count) in executions.iter().enumerate() {
        assert_eq!(
            count.load(Ordering::SeqCst),
            1,
            "key {key_index} executed more than once despite single-flight"
        );
    }
    let snapshot = engine.stats_snapshot();
    let total_lookups = (SESSIONS * KEYS * ROUNDS) as u64;
    assert_eq!(snapshot.total.references, total_lookups);
    assert_eq!(
        snapshot.total.references,
        snapshot.total.hits + snapshot.total.coalesced + snapshot.total.misses(),
        "references must partition into hits, coalesced waits and misses"
    );
    assert_eq!(snapshot.total.misses(), KEYS as u64, "one miss per key");
    assert!(
        snapshot.total.coalesced > 0,
        "32 sessions over 12 keys must coalesce somewhere"
    );
}

/// The leader-kill regression under the async path: the first leader's fetch
/// panics mid-flight while a crowd of sessions waits.  Every waiter looks
/// the key up again, and exactly one of them leads the successor flight
/// (total fetch attempts == 2): the others join it or hit its admitted set,
/// so every surviving session is served the successor's value, and the
/// leader's own session must observe the panic.
#[test]
fn killed_async_leader_hands_over_to_exactly_one_waiter() {
    const WAITERS: usize = 12;

    let engine = engine(1, 1 << 20, 4);
    let runtime = engine.runtime();
    let attempts = Arc::new(AtomicU64::new(0));
    let key = QueryKey::new("doomed-leader");

    // The doomed leader: claims the flight, then dies mid-fetch.
    let leader = {
        let engine = engine.clone();
        let attempts = Arc::clone(&attempts);
        let key = key.clone();
        runtime.spawn(async move {
            engine
                .try_get_or_execute_async(&key, Timestamp::from_micros(1), move || {
                    attempts.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(30));
                    panic!("warehouse connection lost mid-fetch");
                })
                .await
        })
    };
    // Spawn the waiters only after the doomed leader has really claimed the
    // flight (its fetch started) — a fixed sleep is racy on a loaded box.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while attempts.load(Ordering::SeqCst) == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "leader never started its fetch"
        );
        std::thread::yield_now();
    }

    let waiters: Vec<_> = (0..WAITERS)
        .map(|i| {
            let engine = engine.clone();
            let attempts = Arc::clone(&attempts);
            let key = key.clone();
            runtime.spawn(async move {
                let lookup = engine
                    .try_get_or_execute_async(
                        &key,
                        Timestamp::from_micros(2 + i as u64),
                        move || {
                            attempts.fetch_add(1, Ordering::SeqCst);
                            Ok((SizedPayload::new(777), ExecutionCost::from_blocks(10)))
                        },
                    )
                    .await
                    .expect("the successor's fetch succeeds");
                assert_eq!(
                    lookup.value.size_bytes(),
                    777,
                    "waiter served the successor leader's value"
                );
                lookup.source
            })
        })
        .collect();

    // The leader task panicked (the fetch panicked inside the leader's own
    // poll), surfacing through its join handle.
    assert_eq!(
        block_on(leader).unwrap_err(),
        JoinError::Panicked,
        "leader session must re-raise the fetch panic"
    );
    let mut executed = 0;
    for waiter in waiters {
        match block_on(waiter).expect("waiter session completed") {
            LookupSource::Executed => executed += 1,
            LookupSource::Coalesced | LookupSource::Hit => {}
            LookupSource::Stale => unreachable!("stale needs a failed fetch"),
        }
    }
    assert_eq!(executed, 1, "exactly one waiter becomes the new leader");
    assert_eq!(
        attempts.load(Ordering::SeqCst),
        2,
        "doomed fetch once, successor fetch once — no thundering herd of retries"
    );
    assert!(engine.contains(&key));
}

/// Async sessions hammer the engine on its runtime while this thread
/// snapshots it: every shard's occupancy stays within its fixed `total/N`
/// share in every snapshot.
#[test]
fn async_snapshots_keep_every_shard_within_its_share() {
    const SESSIONS: usize = 4;
    const OPS_PER_SESSION: usize = 1_500;
    const TOTAL: u64 = 100_000;
    const SHARE: u64 = TOTAL / 8;

    let engine: Watchman<SizedPayload> = Watchman::builder()
        .shards(8)
        .policy(PolicyKind::LncRa { k: 4 })
        .capacity_bytes(TOTAL)
        .runtime_workers(3)
        .build();
    let runtime = engine.runtime();

    let done = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..SESSIONS)
        .map(|session| {
            let engine = engine.clone();
            let done = Arc::clone(&done);
            runtime.spawn(async move {
                for i in 0..OPS_PER_SESSION {
                    // A skewed keyspace: a small hot set plus a one-off tail.
                    let name = if i % 3 == 0 {
                        format!("tail-{session}-{i}")
                    } else {
                        format!("hot-{}", (i % 7) + session)
                    };
                    let now = Timestamp::from_micros((session * OPS_PER_SESSION + i + 1) as u64);
                    engine
                        .try_get_or_execute_async(&QueryKey::new(name), now, move || {
                            Ok((
                                SizedPayload::new(500 + (i as u64 % 11) * 400),
                                ExecutionCost::from_blocks(10 + (i as u64 % 5) * 10_000),
                            ))
                        })
                        .await
                        .expect("fetch never fails");
                }
                done.fetch_add(1, Ordering::SeqCst);
            })
        })
        .collect();

    // Monitor from this thread while the sessions run.
    let mut checks = 0u64;
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while done.load(Ordering::SeqCst) < SESSIONS as u64 {
        assert!(
            std::time::Instant::now() < deadline,
            "sessions never finished"
        );
        let snapshot = engine.stats_snapshot();
        for (shard, &used) in snapshot.per_shard_used.iter().enumerate() {
            assert!(used <= SHARE, "shard {shard} over its share");
        }
        checks += 1;
    }
    assert!(checks > 0);
    for handle in handles {
        block_on(handle).expect("session task completed");
    }

    let snapshot = engine.stats_snapshot();
    assert_eq!(
        snapshot.total.references,
        (SESSIONS * OPS_PER_SESSION) as u64,
        "one recorded reference per lookup, coalesced included"
    );
    assert!(
        snapshot.total.evictions > 0,
        "the traffic must press on the shares"
    );
}

/// The sync and async front doors produce identical statistics on the same
/// deterministic replay (the concurrent-engine acceptance criterion, here at
/// the facade level with a real TPC-D trace): the sim's driver against the
/// same records awaited one by one through the fallible door.
#[test]
fn tpcd_trace_sync_and_async_replays_are_byte_identical() {
    let workload = Workload::tpcd(ExperimentScale::quick(2_000).with_seed(42));
    let capacity = (workload.database_bytes() as f64 * 0.01).round() as u64;
    let build = || -> Watchman<SizedPayload> {
        Watchman::builder()
            .shards(8)
            .policy(PolicyKind::LncRa { k: 4 })
            .capacity_bytes(capacity)
            .build()
    };
    let sync_engine = build();
    let async_engine = build();
    replay_trace_engine(&workload.trace, &sync_engine, 0.01);
    for record in workload.trace.iter() {
        let now = Timestamp::from_micros(record.timestamp_us);
        let key = QueryKey::from_raw_query(&record.query_text);
        let (size, cost) = (record.result_bytes, record.cost_blocks);
        block_on(async_engine.try_get_or_execute_async(&key, now, move || {
            Ok((SizedPayload::new(size), ExecutionCost::from_blocks(cost)))
        }))
        .expect("fetch never fails");
    }
    assert_eq!(sync_engine.stats_snapshot(), async_engine.stats_snapshot());
}
