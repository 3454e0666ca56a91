//! Lock-order graph assertions over busy engine scenarios.
//!
//! These tests only exist under `--features lock-graph`: every
//! `watchman_core::sync` lock acquisition records (held class → acquired
//! class) edges into a global graph, and after driving the engine through
//! its concurrent paths the suite asserts the graph is **acyclic** (no
//! potential deadlock), **rank-disciplined** (same-class locks — the shard
//! vector — only ever nest in index order) and free of locks held across
//! task polls.  CI runs `cargo test --features lock-graph` so any future
//! code path that inverts an acquisition order fails the build with both
//! witness stacks in the panic message.

#![cfg(feature = "lock-graph")]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use watchman_core::clock::Timestamp;
use watchman_core::engine::{PolicyKind, RebalanceConfig, Watchman};
use watchman_core::key::QueryKey;
use watchman_core::runtime::block_on;
use watchman_core::sync::lock_graph;
use watchman_core::value::{CachePayload, ExecutionCost, SizedPayload};

/// The whole-engine scenario: concurrent sessions (sync and async),
/// coalesced misses, manual rebalance passes and atomic snapshots, all in
/// one process.  The graph this paints must be clean, and it must actually
/// contain edges — an empty graph would mean the instrumentation is off.
#[test]
fn busy_engine_keeps_the_lock_graph_acyclic() {
    const THREADS: usize = 4;
    const OPS: usize = 400;

    let engine: Watchman<SizedPayload> = Watchman::builder()
        .shards(4)
        .policy(PolicyKind::LncRa { k: 4 })
        .capacity_bytes(80_000)
        .rebalance(RebalanceConfig::new().manual())
        .build();
    let clock = Arc::new(AtomicU64::new(1));

    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let engine = engine.clone();
            let clock = Arc::clone(&clock);
            scope.spawn(move || {
                for i in 0..OPS {
                    let now = Timestamp::from_micros(clock.fetch_add(7, Ordering::Relaxed));
                    // A hot set shared across threads (coalescing + hits)
                    // plus a cold tail (admissions + evictions).
                    let name = if i % 3 == 0 {
                        format!("tail-{thread}-{i}")
                    } else {
                        format!("hot-{}", i % 5)
                    };
                    let key = QueryKey::new(name);
                    if i % 2 == 0 {
                        engine.get_or_execute(&key, now, || {
                            (SizedPayload::new(900), ExecutionCost::from_blocks(40))
                        });
                    } else {
                        let handle = engine.runtime().spawn(engine.try_get_or_execute_async(
                            &key,
                            now,
                            move || Ok((SizedPayload::new(900), ExecutionCost::from_blocks(40))),
                        ));
                        let lookup = block_on(handle)
                            .expect("async lookup completes")
                            .expect("fetch never fails");
                        assert!(lookup.value.size_bytes() > 0);
                    }
                    if i % 64 == 63 {
                        engine.rebalance_now(now);
                    }
                    if i % 97 == 96 {
                        let snapshot = engine.stats_snapshot();
                        assert_eq!(snapshot.per_shard_capacity.iter().sum::<u64>(), 80_000);
                    }
                }
            });
        }
    });
    assert!(
        engine.stats_snapshot().rebalances > 0,
        "no manual pass moved capacity"
    );
    engine.clear();

    let report = lock_graph::report();
    assert!(
        !report.edges.is_empty(),
        "no lock-order edges recorded — is the instrumentation compiled in?"
    );
    lock_graph::assert_clean();
}

/// The IO reactor's two lock classes — the registration table and the
/// per-registration readiness cells — are documented as **leaves** of the
/// lock hierarchy (`CONCURRENCY.md`): they may be acquired while a task's
/// future-slot lock is held (every net poll runs inside a task poll), but
/// nothing may be acquired while *they* are held.  This scenario drives
/// real sockets through the reactor with engine lookups inside the session
/// tasks, so the graph contains reactor, scheduler and shard classes
/// together, then asserts reactor classes only ever appear as edge
/// *targets* and the combined graph stays acyclic.
#[test]
fn reactor_locks_stay_leaves_of_the_hierarchy() {
    use watchman_core::runtime::net::TcpListener;

    const CONNECTIONS: usize = 8;

    let engine: Watchman<SizedPayload> = Watchman::builder()
        .shards(2)
        .policy(PolicyKind::LncRa { k: 4 })
        .capacity_bytes(40_000)
        .runtime_workers(2)
        .build();
    let runtime = engine.runtime();
    let listener = TcpListener::bind(&runtime, "127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");

    // The accept task spawns one echo session per connection; each session
    // resolves its 8-byte request through the engine (shard locks, flight
    // cells, scheduler — the full hierarchy above the reactor's leaves).
    let accept_task = {
        let runtime_for_sessions = Arc::clone(&runtime);
        let engine = engine.clone();
        runtime.spawn(async move {
            let mut sessions = Vec::new();
            for _ in 0..CONNECTIONS {
                let (stream, _peer) = listener.accept().await.expect("accept");
                let engine = engine.clone();
                sessions.push(runtime_for_sessions.spawn(async move {
                    let mut request = [0u8; 8];
                    stream.read_exact(&mut request).await.expect("read request");
                    let key = QueryKey::new(format!("conn-{}", request[0] % 4));
                    let now = Timestamp::from_micros(u64::from(request[0]) + 1);
                    let lookup = engine
                        .try_get_or_execute_async(&key, now, || {
                            Ok((SizedPayload::new(700), ExecutionCost::from_blocks(25)))
                        })
                        .await
                        .expect("fetch never fails");
                    assert!(lookup.value.size_bytes() > 0);
                    stream.write_all(&request).await.expect("write response");
                }));
            }
            for session in sessions {
                session.await.expect("session completes");
            }
        })
    };

    std::thread::scope(|scope| {
        for conn in 0..CONNECTIONS {
            scope.spawn(move || {
                use std::io::{Read, Write};
                let mut stream = std::net::TcpStream::connect(addr).expect("client connects");
                let request = [conn as u8; 8];
                stream.write_all(&request).expect("client writes");
                let mut response = [0u8; 8];
                stream.read_exact(&mut response).expect("client reads echo");
                assert_eq!(response, request);
            });
        }
    });
    block_on(accept_task).expect("accept task completes");

    let report = lock_graph::report();
    let reactor_class = |label: &str| label.contains("runtime/reactor.rs");
    assert!(
        report.edges.iter().any(|edge| reactor_class(&edge.to)),
        "no edge into a reactor lock class was recorded — did the IO path \
         run under instrumentation?\n{}",
        report.describe()
    );
    assert!(
        report.edges.iter().all(|edge| !reactor_class(&edge.from)),
        "a reactor lock was held while acquiring another lock — the \
         registration table and readiness cells must stay leaf classes:\n{}",
        report.describe()
    );
    lock_graph::assert_clean();
}

/// The work-stealing run queue's lock classes — the per-worker slot locks,
/// the injector, the idle list and the park permits (all declared in
/// `runtime/queue.rs`) — are leaves of the hierarchy, like the reactor's:
/// a waker fired during a task poll acquires a queue lock while the task's
/// future-slot lock is held (the expected inbound edge), but no queue lock
/// is ever held while acquiring anything else.  That discipline is what
/// lets `steal` raid victims in any order without ranking: each raid holds
/// exactly one victim lock at a time.  This scenario keeps two workers
/// busy with timers, yields and cross-task joins, then asserts queue
/// classes only appear as edge *targets*.
#[test]
fn run_queue_locks_stay_leaves_of_the_hierarchy() {
    use std::time::Duration;
    use watchman_core::runtime::Runtime;

    const TASKS: usize = 24;

    let runtime = Arc::new(Runtime::with_workers(2));
    let handles: Vec<_> = (0..TASKS)
        .map(|i| {
            let runtime_inner = Arc::clone(&runtime);
            runtime.spawn(async move {
                // Timer wakes exercise the unpark path; yields re-queue
                // from inside a poll (the self-wake FIFO branch); the
                // chained join wakes a sibling task from whichever worker
                // completes this one (the LIFO hand-off branch).  Between
                // them every schedule() branch runs.
                runtime_inner
                    .sleep(Duration::from_micros(i as u64 % 7))
                    .await;
                watchman_core::runtime::yield_now().await;
                let sibling = runtime_inner.spawn(async move { i * 2 });
                assert_eq!(sibling.await.expect("sibling completes"), i * 2);
                i
            })
        })
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        assert_eq!(block_on(handle).expect("task completes"), i);
    }
    drop(runtime);

    let report = lock_graph::report();
    let queue_class = |label: &str| label.contains("runtime/queue.rs");
    assert!(
        report.edges.iter().any(|edge| queue_class(&edge.to)),
        "no edge into a run-queue lock class was recorded — did the \
         scheduler run under instrumentation?\n{}",
        report.describe()
    );
    assert!(
        report.edges.iter().all(|edge| !queue_class(&edge.from)),
        "a run-queue lock was held while acquiring another lock — the slot, \
         injector, idle-list and permit locks must stay leaf classes:\n{}",
        report.describe()
    );
    lock_graph::assert_clean();
}

/// Regression pin for the rebalancer's two-lock transfer: donor and
/// recipient shard locks must be acquired in **index order** (the shard
/// index is the lock's declared rank).  If someone reorders the transfer to
/// lock donor-then-recipient, a donor with the higher index produces a rank
/// violation here, with the offending stack in the failure message.
#[test]
fn rebalancer_two_lock_transfer_keeps_index_order() {
    let engine: Watchman<SizedPayload> = Watchman::builder()
        .shards(4)
        .policy(PolicyKind::LncRa { k: 4 })
        .capacity_bytes(40_000)
        .rebalance(RebalanceConfig::new().manual())
        .build();

    // A working set exactly the size of the cache, hashed unevenly across
    // the shards: the crowded ones shed sets while the others keep free
    // space, so pressures diverge.  Run manual passes until a transfer
    // actually happens (each moves capacity donor → recipient under both
    // shard locks).  Sets fit a step (5% of a shard's 10 kB).
    let mut now_us = 1u64;
    let mut transfers = 0;
    for _ in 0..64 {
        for i in 0..200 {
            now_us += 11;
            let key = QueryKey::new(format!("skew-{}", i % 100));
            engine.get_or_execute(&key, Timestamp::from_micros(now_us), || {
                (SizedPayload::new(400), ExecutionCost::from_blocks(60))
            });
        }
        engine.rebalance_now(Timestamp::from_micros(now_us));
        transfers = engine.stats_snapshot().rebalances;
        if transfers > 0 {
            break;
        }
    }
    assert!(transfers > 0, "workload never provoked a capacity transfer");

    let report = lock_graph::report();
    assert!(
        report.ranked_nestings > 0,
        "no ranked same-class nesting recorded: the two-lock transfer path \
         did not run under instrumentation"
    );
    assert!(
        report.rank_violations.is_empty(),
        "shard locks nested out of index order:\n{}",
        report.describe()
    );
    lock_graph::assert_clean();
}
