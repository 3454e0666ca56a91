//! Lock-order graph assertions over busy engine scenarios.
//!
//! These tests only exist under `--features lock-graph`: every
//! `watchman_core::sync` lock acquisition records (held class → acquired
//! class) edges into a global graph, and after driving the engine through
//! its concurrent paths the suite asserts the graph is **acyclic** (no
//! potential deadlock), free of **same-class nesting** (no thread ever
//! holds two locks of one class, such as two shard locks) and free of
//! locks held across task polls.  CI runs `cargo test --features lock-graph` so any future
//! code path that inverts an acquisition order fails the build with both
//! witness stacks in the panic message.

#![cfg(feature = "lock-graph")]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use watchman_core::clock::Timestamp;
use watchman_core::engine::{
    FailureConfig, FetchError, LookupSource, PolicyKind, RetryPolicy, Watchman,
};
use watchman_core::key::QueryKey;
use watchman_core::runtime::block_on;
use watchman_core::sync::lock_graph;
use watchman_core::value::{CachePayload, ExecutionCost, SizedPayload};

/// The whole-engine scenario: concurrent sessions (sync and async),
/// coalesced misses and snapshots, all in one process.  The graph this paints must be clean, and it must actually
/// contain edges — an empty graph would mean the instrumentation is off.
#[test]
fn busy_engine_keeps_the_lock_graph_acyclic() {
    const THREADS: usize = 4;
    const OPS: usize = 400;

    let engine: Watchman<SizedPayload> = Watchman::builder()
        .shards(4)
        .policy(PolicyKind::LncRa { k: 4 })
        .capacity_bytes(80_000)
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
                    if i % 97 == 96 {
                        let snapshot = engine.stats_snapshot();
                        assert!(snapshot.used_bytes <= snapshot.capacity_bytes);
                    }
                }
            });
        }
    });
    engine.clear();

    let report = lock_graph::report();
    assert!(
        !report.edges.is_empty(),
        "no lock-order edges recorded — is the instrumentation compiled in?"
    );
    assert!(
        report.same_class_nestings.is_empty(),
        "a thread held two locks of one class:\n{}",
        report.describe()
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

/// The run queue's lock classes — the ready queue, the idle list and the
/// park permits (all declared in `runtime/queue.rs`) — are leaves of the
/// hierarchy, like the reactor's: a waker fired during a task poll
/// acquires a queue lock while the task's future-slot lock is held (the
/// expected inbound edge), but no queue lock is ever held while acquiring
/// anything else, so a push never holds the ready queue while it takes
/// the idle list.  This scenario keeps two workers busy with timers,
/// yields and cross-task joins, then asserts queue classes only appear as
/// edge *targets*.
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
                // Timer wakes push from whichever worker fires them;
                // yields re-queue a task from inside its own poll; the
                // chained join wakes this task from whichever worker
                // completes the sibling.
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
        "a run-queue lock was held while acquiring another lock — the ready \
         queue, idle-list and permit locks must stay leaf classes:\n{}",
        report.describe()
    );
    lock_graph::assert_clean();
}

/// An abandoned flight is retired under its shard's lock, and its cell is
/// abandoned only after that lock is dropped (CONCURRENCY.md's "shard and
/// flight locks never nest").  Two leaders abandon here, each with a
/// coalesced waiter that then looks again and leads: one whose retried
/// fetch panics, and one dropped while it sleeps out a retry backoff.  The
/// graph must hold no shard → flight edge and stay clean.
#[test]
fn abandoned_flights_take_the_flight_lock_after_the_shard_lock() {
    use std::future::Future;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::pin::Pin;
    use std::task::{Context, Waker};
    use std::time::Duration;

    fn poll_once_pending<F: Future + Unpin>(future: &mut F) {
        let mut cx = Context::from_waker(Waker::noop());
        assert!(Pin::new(future).poll(&mut cx).is_pending());
    }
    let engine_with_backoff = |backoff: Duration| -> Watchman<SizedPayload> {
        Watchman::builder()
            .shards(2)
            .policy(PolicyKind::LncRa { k: 4 })
            .capacity_bytes(40_000)
            .failure(FailureConfig {
                retry: RetryPolicy {
                    max_attempts: 2,
                    base_delay: backoff,
                    max_delay: backoff,
                    jitter_seed: 0,
                },
                ..FailureConfig::default()
            })
            .build()
    };
    let fill = || Ok((SizedPayload::new(500), ExecutionCost::from_blocks(20)));
    let now = Timestamp::from_micros(1);

    // A leader whose first attempt fails transiently and whose retry
    // panics, with a waiter registered during its backoff.
    let engine = engine_with_backoff(Duration::from_millis(1));
    let key = QueryKey::new("panicking-leader");
    let mut attempts = 0;
    let mut leader = engine.try_get_or_execute_async(&key, now, move || {
        attempts += 1;
        if attempts == 1 {
            return Err(FetchError::transient("first attempt fails"));
        }
        panic!("the retried fetch panics")
    });
    poll_once_pending(&mut leader);
    let mut waiter = engine.try_get_or_execute_async(&key, now, fill);
    poll_once_pending(&mut waiter);
    let panicked = catch_unwind(AssertUnwindSafe(|| block_on(leader)));
    assert!(panicked.is_err(), "the leader's panic propagates");
    let restarted = block_on(waiter).expect("the waiter's own fetch succeeds");
    assert_eq!(restarted.source, LookupSource::Executed);

    // A leader dropped while it sleeps out an hour-long backoff.
    let engine = engine_with_backoff(Duration::from_secs(3_600));
    let key = QueryKey::new("dropped-leader");
    let mut leader = engine.try_get_or_execute_async(&key, now, || {
        Err::<(SizedPayload, ExecutionCost), _>(FetchError::transient("backs off"))
    });
    poll_once_pending(&mut leader);
    let mut waiter = engine.try_get_or_execute_async(&key, now, fill);
    poll_once_pending(&mut waiter);
    drop(leader);
    let restarted = block_on(waiter).expect("the waiter's own fetch succeeds");
    assert_eq!(restarted.source, LookupSource::Executed);

    let report = lock_graph::report();
    assert!(
        !report
            .edges
            .iter()
            .any(|edge| edge.from.contains("engine/watchman.rs")
                && edge.to.contains("engine/single_flight.rs")),
        "a shard .state -> flight .state edge was recorded\n{}",
        report.describe()
    );
    lock_graph::assert_clean();
}

/// The checker's single-flight and run-queue models run the real shard,
/// flight-cell and run-queue code, so every schedule the explorer takes
/// them through paints the lock-order graph too — interleavings no stress
/// run is sure to reach.  The graph must stay clean, and no schedule may
/// take a flight lock while it holds a shard lock.  (The checker's
/// self-tests invert lock orders on purpose and stay out of this run.)
#[test]
fn explored_schedules_keep_the_lock_graph_clean() {
    use watchman_core::checker::explore;
    use watchman_core::checker::models::{RunQueueModel, SingleFlightModel};

    let single_flight = explore(&SingleFlightModel, 1_500);
    assert!(single_flight.exhausted, "{}", single_flight.summary());
    let run_queue = explore(&RunQueueModel, 1_500);
    for exploration in [&single_flight, &run_queue] {
        assert!(
            exploration.violations.is_empty(),
            "{}",
            exploration.summary()
        );
    }

    let report = lock_graph::report();
    assert!(
        !report
            .edges
            .iter()
            .any(|edge| edge.from.contains("engine/watchman.rs")
                && edge.to.contains("engine/single_flight.rs")),
        "an explored schedule took a flight lock under a shard lock\n{}",
        report.describe()
    );
    lock_graph::assert_clean();
}
