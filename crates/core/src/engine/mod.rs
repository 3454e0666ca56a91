//! The concurrent WATCHMAN engine: the library's primary public API.
//!
//! The paper describes WATCHMAN as "a library of routines that may be linked
//! with an application" serving a multiuser warehouse front end (§3).  This
//! module is that library surface, designed for many concurrent sessions:
//!
//! * [`Watchman`] — a builder-configured facade that hash-partitions the
//!   keyspace by query signature across N per-shard policy instances, each
//!   holding a fixed `total/N` of the capacity, and shares payloads as
//!   `Arc<V>`;
//! * [`Watchman::get_or_execute`] / [`Watchman::try_get_or_execute_async`]
//!   — the session entry points, with **single-flight** deduplication so
//!   concurrent misses on the same query execute the warehouse query exactly
//!   once.  Both front doors are thin adapters over one poll-based state
//!   machine ([`LookupFuture`]): the async door suspends waiting sessions as
//!   futures (a waiting session costs a waker, not a parked OS thread); the
//!   sync door puts a hit fast path in front and drives the same future with
//!   [`block_on`](crate::runtime::block_on).  Either way the leader fetches
//!   in the poll that takes leadership, on whichever thread polls it;
//! * [`PolicyKind`] — the one construction path for every replacement /
//!   admission policy, shared by the engine, the simulator and the examples;
//! * [`CacheObserver`] — told when a set becomes resident and when it
//!   stops being resident; the coherence
//!   [`DependencyIndex`](crate::coherence::DependencyIndex) and the buffer
//!   manager's p₀-redundancy hints subscribe to it;
//! * [`StatsSnapshot`] — owned, aggregated statistics across shards.
//!
//! ## Failure handling
//!
//! If a single-flight leader's fetch panics, the flight is *abandoned*: it
//! is retired from its key's slot, every waiter is woken to look the key up
//! again — a hit if the leader's insert landed, otherwise one of them leads
//! a fresh flight and the rest join it — and the panic unwinds out of the
//! original leader's poll.
//!
//! Expected failures — the warehouse itself erroring out — go through the
//! *fallible* front door [`Watchman::try_get_or_execute_async`], whose fetch
//! closures return `Result<(V, ExecutionCost), FetchError>`.  It runs the
//! same state machine *inside the failure domain* described next; the
//! infallible door stays outside it (it neither consults nor feeds the
//! breaker or a key's memoized failure and last-known-good copy, and a
//! session coalesced behind a fallible leader that failed starts over with
//! its own fetch).  A terminal error (retry budget from [`RetryPolicy`]
//! exhausted, or a fatal error) resolves the flight for **every** coalesced
//! waiter with one shared `Arc<FetchError>`, is memoized in the key's slot
//! for a short logical TTL, and trips the per-shard [`CircuitBreaker`] once
//! the rolling failure rate crosses its threshold.  With
//! [`FailureConfig::serve_stale`] on, a failed lookup whose key's slot holds
//! a last-known-good copy is answered from it as [`LookupSource::Stale`] —
//! accounted separately so degraded answers never inflate the paper's CSR.
//!
//! Each shard keeps one slot per key it is fetching or holds a record for:
//! the key's flight (with the breaker's half-open probe ticket, when the
//! flight drew one), its last-known-good copy and its memoized failure.  A
//! slot is removed once it holds none of them, and stale copies and
//! failures share one bound of 1,024 keys per shard, kept in store order.
//!
//! ## Quick start
//!
//! ```
//! use watchman_core::engine::{LookupSource, PolicyKind, Watchman};
//! use watchman_core::prelude::*;
//!
//! let engine: Watchman<SizedPayload> = Watchman::builder()
//!     .shards(8)
//!     .policy(PolicyKind::LncRa { k: 4 })
//!     .capacity_bytes(16 << 20)
//!     .build();
//!
//! let key = QueryKey::from_raw_query("SELECT count(*) FROM orders");
//! let lookup = engine.get_or_execute(&key, Timestamp::from_secs(1), || {
//!     // Cache miss: execute against the warehouse and report the observed
//!     // cost. Under concurrency, only one session runs this closure per
//!     // distinct query.
//!     (SizedPayload::new(512), ExecutionCost::from_blocks(9_000))
//! });
//! assert_eq!(lookup.source, LookupSource::Executed);
//! assert!(engine.contains(&key));
//! ```

mod builder;
mod events;
mod failure;
mod lookup;
mod policy_kind;
pub(crate) mod single_flight;
mod watchman;

pub use builder::WatchmanBuilder;
pub use events::CacheObserver;
pub use failure::{
    splitmix64, BreakerConfig, BreakerState, CircuitBreaker, FailureConfig, FetchError,
    LookupError, RetryPolicy,
};
#[cfg(any(test, feature = "lock-graph"))]
pub(crate) use lookup::Step;
pub use lookup::{Lookup, LookupFuture, LookupSource};
pub use policy_kind::PolicyKind;
#[cfg(any(test, feature = "lock-graph"))]
pub(crate) use watchman::{Leader, Shard};
pub use watchman::{StatsSnapshot, Watchman};

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests bound their waits in wall-clock time"
)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use super::*;
    use crate::clock::Timestamp;
    use crate::coherence::DependencyIndex;
    use crate::key::QueryKey;
    use crate::policy::InsertOutcome;
    use crate::value::{CachePayload, ExecutionCost, SizedPayload};

    fn ts(us: u64) -> Timestamp {
        Timestamp::from_micros(us)
    }

    fn key(name: &str) -> QueryKey {
        QueryKey::new(name.to_owned())
    }

    fn engine(shards: usize, capacity: u64) -> Watchman<SizedPayload> {
        Watchman::builder()
            .shards(shards)
            .policy(PolicyKind::LNC_RA)
            .capacity_bytes(capacity)
            .build()
    }

    /// Looks `key` up through the sync door, executing a `size_bytes` set
    /// of `cost` on a miss.  Returns the admission outcome of an executed
    /// lookup.
    fn execute(
        engine: &Watchman<SizedPayload>,
        key: &QueryKey,
        size_bytes: u64,
        cost: ExecutionCost,
        now: Timestamp,
    ) -> Option<InsertOutcome> {
        engine
            .get_or_execute(key, now, || (SizedPayload::new(size_bytes), cost))
            .outcome
    }

    /// Asserts the books balance in every shard and in total: each
    /// reference is a hit, a coalesced wait, a fetch error, a stale serve
    /// or a miss, and each miss offered its set for admission once.
    fn assert_books_balance(snapshot: &StatsSnapshot) {
        for stats in snapshot.per_shard.iter().chain([&snapshot.total]) {
            let resolved = stats.hits + stats.coalesced + stats.fetch_errors + stats.stale_serves;
            assert_eq!(
                stats.references,
                resolved + stats.insertions_offered,
                "{stats:?}"
            );
        }
    }

    #[test]
    fn get_or_execute_round_trip() {
        let engine = engine(4, 1 << 20);
        let executed = Arc::new(AtomicU64::new(0));
        for i in 0..3 {
            let executed = Arc::clone(&executed);
            let lookup = engine.get_or_execute(&key("q"), ts(i + 1), move || {
                executed.fetch_add(1, Ordering::SeqCst);
                (SizedPayload::new(128), ExecutionCost::from_blocks(1_000))
            });
            assert_eq!(lookup.value.size_bytes(), 128);
        }
        assert_eq!(
            executed.load(Ordering::SeqCst),
            1,
            "repeat lookups must hit"
        );
        let stats = engine.stats_snapshot().total;
        assert_eq!(stats.references, 3);
        assert_eq!(stats.hits, 2);
    }

    #[test]
    fn stats_snapshot_is_a_pure_read() {
        let engine = engine(4, 4_000);
        for i in 0..40u64 {
            engine.get_or_execute(&key(&format!("q{}", i % 13)), ts(i + 1), || {
                (SizedPayload::new(300), ExecutionCost::from_blocks(10 + i))
            });
        }
        let first = engine.stats_snapshot();
        assert!(first.used_bytes > 0 && first.total.evictions > 0);
        assert_eq!(
            engine.stats_snapshot(),
            first,
            "a snapshot must write nothing"
        );
    }

    #[test]
    fn shards_partition_the_keyspace() {
        let engine = engine(8, 64 << 20);
        for i in 0..200u32 {
            execute(
                &engine,
                &key(&format!("query-{i}")),
                100,
                ExecutionCost::from_blocks(10),
                ts(u64::from(i) + 1),
            );
        }
        assert_eq!(engine.len(), 200);
        let snapshot = engine.stats_snapshot();
        assert_eq!(snapshot.per_shard.len(), 8);
        let populated = snapshot
            .per_shard
            .iter()
            .filter(|s| s.admissions > 0)
            .count();
        assert!(populated >= 6, "only {populated}/8 shards saw admissions");
        assert_eq!(snapshot.total.admissions, 200);
        assert_eq!(snapshot.entries, 200);
    }

    #[test]
    fn capacity_splits_exactly_across_shards() {
        for shards in [1, 3, 7, 8] {
            let engine = engine(shards, 1_000_003);
            assert_eq!(engine.capacity_bytes(), 1_000_003, "{shards} shards");
            assert_eq!(
                engine.shard_capacities().iter().sum::<u64>(),
                1_000_003,
                "{shards} shards"
            );
        }
    }

    #[test]
    fn tiny_capacity_never_creates_zero_byte_shards() {
        // capacity < shards: an even split would hand some shards 0 bytes,
        // silently voiding their slice of the keyspace.  The builder clamps
        // the shard count instead.
        let engine = engine(8, 3);
        assert_eq!(engine.shard_count(), 3);
        assert_eq!(engine.capacity_bytes(), 3);
        assert!(engine
            .shard_capacities()
            .iter()
            .all(|&capacity| capacity >= 1));
        // Every shard can now hold data: a 1-byte set may lose the admission
        // test, but it must never be turned away for lack of any capacity.
        for i in 0..20 {
            let outcome = execute(
                &engine,
                &key(&format!("tiny-{i}")),
                1,
                ExecutionCost::from_blocks(10),
                ts(i + 1),
            )
            .expect("a new key executes");
            assert!(
                !matches!(
                    outcome,
                    InsertOutcome::Rejected(crate::policy::RejectReason::ZeroCapacity)
                ),
                "1-byte set must never see ZeroCapacity, got {outcome}"
            );
        }
        // A zero-capacity engine still keeps its configured shard count: the
        // whole cache is deliberately inert, not misconfigured.
        let zero = engine_with(4, 0);
        assert_eq!(zero.shard_count(), 4);
        assert_eq!(zero.capacity_bytes(), 0);
    }

    /// Counts the observer calls an engine makes, by kind: the observer
    /// tests check the calls themselves, not the engine's counters.
    #[derive(Default)]
    struct EventTally {
        admitted: AtomicU64,
        removed: AtomicU64,
    }

    impl CacheObserver for EventTally {
        fn admitted(&self, _: &QueryKey) {
            self.admitted.fetch_add(1, Ordering::SeqCst);
        }

        fn removed(&self, _: &QueryKey) {
            self.removed.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn engine_with(shards: usize, capacity: u64) -> Watchman<SizedPayload> {
        Watchman::builder()
            .shards(shards)
            .policy(PolicyKind::LNC_RA)
            .capacity_bytes(capacity)
            .build()
    }

    #[test]
    fn observers_see_admissions_evictions_and_invalidations() {
        let counters = Arc::new(EventTally::default());
        let engine: Watchman<SizedPayload> = Watchman::builder()
            .shards(1)
            .policy(PolicyKind::Lru)
            .capacity_bytes(250)
            .observer(Arc::clone(&counters) as Arc<dyn CacheObserver>)
            .build();
        // Two admissions fit; the third evicts the oldest.
        for (i, name) in ["a", "b", "c"].iter().enumerate() {
            execute(
                &engine,
                &key(name),
                100,
                ExecutionCost::from_blocks(10),
                ts(i as u64 + 1),
            );
        }
        assert_eq!(counters.admitted.load(Ordering::SeqCst), 3);
        assert_eq!(counters.removed.load(Ordering::SeqCst), 1);
        assert!(engine.invalidate(&key("c")));
        assert!(
            !engine.invalidate(&key("c")),
            "second invalidation is a no-op"
        );
        assert_eq!(counters.removed.load(Ordering::SeqCst), 2);
        // A rejection changes nothing resident and notifies nothing.
        let outcome = execute(
            &engine,
            &key("huge"),
            10_000,
            ExecutionCost::from_blocks(10),
            ts(10),
        )
        .expect("a new key executes");
        assert!(!outcome.is_cached(), "{outcome}");
        assert_eq!(counters.admitted.load(Ordering::SeqCst), 3);
        assert_eq!(counters.removed.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn the_dependency_mirror_equals_the_cache_after_every_step() {
        // Every key depends on "ALL", so the observer's mirror of it must be
        // exactly the resident set, whatever the policy did: hits, admissions
        // with victims, rejections and invalidations.
        let (mut hits, mut rejections, mut invalidations) = (0, 0, 0);
        for policy in PolicyKind::all() {
            let deps = Arc::new(crate::coherence::DependencyObserver::new(|_: &QueryKey| {
                vec!["ALL".to_owned()]
            }));
            let engine: Watchman<SizedPayload> = Watchman::builder()
                .shards(4)
                .policy(policy)
                .capacity_bytes(4_000)
                .observer(Arc::clone(&deps) as Arc<dyn CacheObserver>)
                .build();
            let mut state = 0x5EED_u64;
            for step in 0..3_000u64 {
                state = splitmix64(state);
                let name = format!("q{}", (state >> 8) % 60);
                let size = 50 + (state >> 16) % 1_150; // a shard holds 1,000
                let cost = ExecutionCost::from_blocks(1 + (state >> 32) % 1_000);
                let now = ts(step + 1);
                match state % 10 {
                    0 => invalidations += u64::from(engine.invalidate(&key(&name))),
                    _ => {
                        let lookup = engine
                            .get_or_execute(&key(&name), now, || (SizedPayload::new(size), cost));
                        hits += u64::from(lookup.source == LookupSource::Hit);
                        let rejected = lookup.outcome.is_some_and(|o| !o.is_cached());
                        rejections += u64::from(rejected);
                    }
                }
                let mirrored: std::collections::HashSet<QueryKey> =
                    deps.affected_by("ALL").into_iter().collect();
                let cached: std::collections::HashSet<QueryKey> =
                    engine.cached_keys().into_iter().collect();
                assert_eq!(mirrored, cached, "{policy} after step {step}");
            }
        }
        assert!(hits > 0 && rejections > 0 && invalidations > 0);
    }

    #[test]
    fn clear_reports_every_cleared_set_to_the_observers() {
        let deps = Arc::new(crate::coherence::DependencyObserver::new(|_: &QueryKey| {
            vec!["ALL".to_owned()]
        }));
        let engine: Watchman<SizedPayload> = Watchman::builder()
            .shards(4)
            .policy(PolicyKind::Lru)
            .capacity_bytes(1 << 20)
            .observer(Arc::clone(&deps) as Arc<dyn CacheObserver>)
            .build();
        for (i, name) in ["a", "b", "c", "d", "e"].iter().enumerate() {
            execute(
                &engine,
                &key(name),
                64,
                ExecutionCost::from_blocks(10),
                ts(i as u64 + 1),
            );
        }
        assert_eq!(deps.affected_by("ALL").len(), 5);
        engine.clear();
        assert!(engine.cached_keys().is_empty());
        assert!(deps.affected_by("ALL").is_empty(), "the index went stale");
    }

    #[test]
    fn invalidate_relation_drives_the_dependency_index() {
        let engine = engine(4, 1 << 20);
        let mut index = DependencyIndex::new();
        let cost = ExecutionCost::from_blocks(100);
        execute(&engine, &key("orders-summary"), 64, cost, ts(1));
        execute(&engine, &key("parts-summary"), 64, cost, ts(2));
        index.register(key("orders-summary"), ["ORDERS"]);
        index.register(key("parts-summary"), ["PART"]);

        let report = engine.invalidate_relation(&mut index, "ORDERS");
        assert_eq!(report.invalidated, vec![key("orders-summary")]);
        assert!(!engine.contains(&key("orders-summary")));
        assert!(engine.contains(&key("parts-summary")));
    }

    #[test]
    fn single_flight_coalesces_concurrent_misses() {
        let engine = engine(4, 4 << 20);
        let executions = Arc::new(AtomicU64::new(0));
        let sessions = 8;
        std::thread::scope(|scope| {
            for _ in 0..sessions {
                let engine = engine.clone();
                let executions = Arc::clone(&executions);
                scope.spawn(move || {
                    let lookup = engine.get_or_execute(&key("hot"), ts(1), || {
                        executions.fetch_add(1, Ordering::SeqCst);
                        // Hold the flight open long enough for the other
                        // sessions to pile up behind it.
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        (SizedPayload::new(256), ExecutionCost::from_blocks(50_000))
                    });
                    assert_eq!(lookup.value.size_bytes(), 256);
                });
            }
        });
        assert_eq!(
            executions.load(Ordering::SeqCst),
            1,
            "concurrent misses on one query must execute once"
        );
        let snapshot = engine.stats_snapshot();
        assert!(
            snapshot.total.coalesced >= 1,
            "at least one session must have coalesced"
        );
        assert_books_balance(&snapshot);
    }

    #[test]
    fn leader_panic_hands_the_flight_to_a_waiter() {
        let engine = engine(1, 1 << 20);
        let attempts = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            {
                let engine = engine.clone();
                let attempts = Arc::clone(&attempts);
                scope.spawn(move || {
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        engine.get_or_execute(&key("fragile"), ts(1), || {
                            attempts.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            panic!("warehouse connection lost");
                        })
                    }));
                    assert!(result.is_err(), "leader must propagate its panic");
                });
            }
            {
                let engine = engine.clone();
                let attempts = Arc::clone(&attempts);
                scope.spawn(move || {
                    // Join only once the doomed leader has really claimed the
                    // flight (a fixed sleep is racy on a loaded box).
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                    while attempts.load(Ordering::SeqCst) == 0 {
                        assert!(
                            std::time::Instant::now() < deadline,
                            "leader never started its fetch"
                        );
                        std::thread::yield_now();
                    }
                    let lookup = engine.get_or_execute(&key("fragile"), ts(2), || {
                        attempts.fetch_add(1, Ordering::SeqCst);
                        (SizedPayload::new(64), ExecutionCost::from_blocks(100))
                    });
                    assert_eq!(lookup.value.size_bytes(), 64);
                });
            }
        });
        assert_eq!(
            attempts.load(Ordering::SeqCst),
            2,
            "waiter must retry after abandonment"
        );
        assert!(engine.contains(&key("fragile")));
    }

    #[test]
    fn clear_and_utilization() {
        let engine = engine(2, 1_000);
        execute(
            &engine,
            &key("q"),
            100,
            ExecutionCost::from_blocks(10),
            ts(1),
        );
        assert!(engine.stats_snapshot().used_bytes > 0);
        assert_eq!(engine.cached_keys().len(), 1);
        engine.clear();
        assert!(engine.is_empty());
        assert_eq!(engine.used_bytes(), 0);
        // Statistics survive a clear.
        assert_eq!(engine.stats_snapshot().total.references, 1);
    }

    #[test]
    fn sync_and_async_paths_yield_identical_snapshots() {
        // One deterministic single-session op sequence, replayed through
        // both front doors on fresh engines: they are adapters over one
        // state machine, so every counter must match exactly.
        let sync_engine = engine(4, 40_000);
        let async_engine = engine(4, 40_000);
        for i in 0..400u64 {
            let name = format!("q{}", i % 37);
            let k = key(&name);
            let now = ts(i * 1_000 + 1);
            let size = 100 + (i % 9) * 150;
            let cost = ExecutionCost::from_blocks(500 + (i % 13) * 900);
            sync_engine.get_or_execute(&k, now, || (SizedPayload::new(size), cost));
            try_get(&async_engine, &k, now, || {
                Ok((SizedPayload::new(size), cost))
            })
            .expect("fetch never fails");
        }
        assert_eq!(sync_engine.stats_snapshot(), async_engine.stats_snapshot());
    }

    #[test]
    fn async_leader_panic_hands_the_flight_to_a_waiter() {
        // The async-path regression for abandonment: the leader's fetch is
        // killed mid-flight (panics), the waiter looks the key up again and
        // leads a fresh flight, and the panic is re-raised on the leader's
        // session.
        let engine: Watchman<SizedPayload> = Watchman::builder()
            .shards(1)
            .policy(PolicyKind::LNC_RA)
            .capacity_bytes(1 << 20)
            .runtime_workers(2)
            .build();
        let attempts = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            {
                let engine = engine.clone();
                let attempts = Arc::clone(&attempts);
                scope.spawn(move || {
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        try_get(&engine, &key("fragile"), ts(1), move || {
                            attempts.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            panic!("warehouse connection lost");
                        })
                    }));
                    assert!(result.is_err(), "leader session must re-raise the panic");
                });
            }
            {
                let engine = engine.clone();
                let attempts = Arc::clone(&attempts);
                scope.spawn(move || {
                    // Join only once the doomed leader has really claimed the
                    // flight (a fixed sleep is racy on a loaded box).
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                    while attempts.load(Ordering::SeqCst) == 0 {
                        assert!(
                            std::time::Instant::now() < deadline,
                            "leader never started its fetch"
                        );
                        std::thread::yield_now();
                    }
                    let lookup = try_get(&engine, &key("fragile"), ts(2), move || {
                        attempts.fetch_add(1, Ordering::SeqCst);
                        payload_ok(64, 100)
                    })
                    .expect("the successor's fetch succeeds");
                    assert_eq!(lookup.value.size_bytes(), 64);
                    assert_eq!(lookup.source, LookupSource::Executed);
                });
            }
        });
        assert_eq!(
            attempts.load(Ordering::SeqCst),
            2,
            "the waiter must execute once after abandonment"
        );
        assert!(engine.contains(&key("fragile")));
    }

    #[test]
    fn takeover_after_post_insert_panic_serves_the_cached_value() {
        // The leader's fetch succeeds and the insert lands, then a user
        // observer panics on the admission (still inside the leader's
        // completion).  The flight is abandoned — but the value IS cached,
        // so the woken waiter, looking again, must be served a hit instead
        // of re-running the multi-second warehouse query.
        struct PanicOnAdmit;
        impl CacheObserver for PanicOnAdmit {
            fn admitted(&self, _: &QueryKey) {
                panic!("observer failed");
            }

            fn removed(&self, _: &QueryKey) {}
        }
        let engine: Watchman<SizedPayload> = Watchman::builder()
            .shards(1)
            .policy(PolicyKind::LNC_RA)
            .capacity_bytes(1 << 20)
            .observer(Arc::new(PanicOnAdmit))
            .build();
        let fetches = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            {
                let engine = engine.clone();
                let fetches = Arc::clone(&fetches);
                scope.spawn(move || {
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        engine.get_or_execute(&key("observed"), ts(1), || {
                            fetches.fetch_add(1, Ordering::SeqCst);
                            // Keep the flight open so the waiter joins it.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            (SizedPayload::new(128), ExecutionCost::from_blocks(1_000))
                        })
                    }));
                    assert!(result.is_err(), "the observer panic must propagate");
                });
            }
            {
                let engine = engine.clone();
                let fetches = Arc::clone(&fetches);
                scope.spawn(move || {
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                    while fetches.load(Ordering::SeqCst) == 0 {
                        assert!(
                            std::time::Instant::now() < deadline,
                            "leader never started its fetch"
                        );
                        std::thread::yield_now();
                    }
                    let lookup = engine.get_or_execute(&key("observed"), ts(2), || {
                        fetches.fetch_add(1, Ordering::SeqCst);
                        (SizedPayload::new(999), ExecutionCost::from_blocks(1))
                    });
                    assert_eq!(
                        lookup.source,
                        LookupSource::Hit,
                        "the waiter must be served the already-cached value"
                    );
                    assert_eq!(lookup.value.size_bytes(), 128);
                });
            }
        });
        assert_eq!(
            fetches.load(Ordering::SeqCst),
            1,
            "the cached value must not be re-fetched"
        );
        assert!(engine.contains(&key("observed")));
        assert_eq!(
            engine.inflight_entries(),
            0,
            "the abandoned flight is retired"
        );
    }

    #[test]
    fn abandoned_flight_with_no_waiters_is_retired() {
        // Regression: a panicking fetch on a key nobody else ever requests
        // used to leave its (dead) flight cell — and the boxed panic
        // payload — in its shard forever.
        let engine = engine(2, 1 << 20);

        // Sync path: the leader panics with no waiters registered.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.get_or_execute(&key("doomed-sync"), ts(1), || {
                panic!("warehouse connection lost")
            })
        }));
        assert!(result.is_err());
        assert_eq!(
            engine.inflight_entries(),
            0,
            "sync panic must not leak an in-flight cell"
        );

        // Async path: same.  The fetch panics inside the leader's own poll,
        // so the cell is retired before the panic reaches this caller.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            try_get(&engine, &key("doomed-async"), ts(2), || {
                panic!("warehouse connection lost")
            })
        }));
        assert!(result.is_err());
        assert_eq!(
            engine.inflight_entries(),
            0,
            "async panic must not leak an in-flight cell"
        );

        // The keys are usable again afterwards (fresh flights).
        let lookup = engine.get_or_execute(&key("doomed-sync"), ts(3), || {
            (SizedPayload::new(32), ExecutionCost::from_blocks(10))
        });
        assert_eq!(lookup.source, LookupSource::Executed);
        assert_eq!(engine.inflight_entries(), 0);
    }

    #[test]
    fn one_shard_engine_matches_a_raw_policy_replay() {
        let shard_engine = engine(1, 10_000);
        let mut raw = PolicyKind::LNC_RA.build::<Arc<SizedPayload>>(10_000);
        for i in 0..400u64 {
            let name = format!("q{}", i % 23);
            let k = key(&name);
            let now = ts(i * 1_000 + 1);
            let size = 100 + (i % 7) * 30;
            let cost = ExecutionCost::from_blocks(500 + (i % 11) * 100);
            execute(&shard_engine, &k, size, cost, now);
            if raw.get(&k, now).is_none() {
                raw.insert(k, Arc::new(SizedPayload::new(size)), cost, now);
            }
        }
        assert_eq!(shard_engine.stats_snapshot().total, raw.stats_snapshot());
        assert_eq!(shard_engine.used_bytes(), raw.used_bytes());
        assert_eq!(shard_engine.len(), raw.len());
    }

    #[test]
    fn stats_snapshot_round_trips_through_json() {
        // The server's STATS opcode ships snapshots as JSON; every counter
        // (including the float cost accumulators, which print in shortest
        // round-trip form) must survive the trip bit-for-bit.
        let engine = engine(4, 4_000);
        for i in 0..300u64 {
            let k = key(&format!("q{}", i % 17));
            let now = ts(i * 1_000 + 1);
            let cost = ExecutionCost::from_block_reads(250.5 + i as f64 * 0.875);
            execute(&engine, &k, 100 + (i % 5) * 37, cost, now);
        }
        let snapshot = engine.stats_snapshot();
        assert!(snapshot.total.total_cost > 0.0);
        let json = serde_json::to_string(&snapshot).expect("snapshot serializes");
        let back: StatsSnapshot = serde_json::from_str(&json).expect("snapshot parses");
        assert_eq!(snapshot, back, "JSON round trip must be exact");
    }

    #[test]
    fn peek_leaves_stats_and_policy_state_untouched() {
        // For every policy: peek returns the payload but records nothing —
        // the snapshot (references, hits, cost accumulators) stays
        // byte-identical no matter how often the admin path probes.
        for kind in [
            PolicyKind::LNC_RA,
            PolicyKind::LNC_R,
            PolicyKind::Lru,
            PolicyKind::LruK { k: 2 },
            PolicyKind::Lfu,
            PolicyKind::Lcs,
            PolicyKind::GreedyDualSize,
        ] {
            let engine: Watchman<SizedPayload> = Watchman::builder()
                .shards(2)
                .policy(kind)
                .capacity_bytes(1 << 20)
                .build();
            for i in 0..20u64 {
                let cost = ExecutionCost::from_blocks(1_000 + i);
                execute(&engine, &key(&format!("q{i}")), 200, cost, ts(i + 1));
            }
            let before = engine.stats_snapshot();
            for _ in 0..50 {
                assert!(engine.peek(&key("q3")).is_some(), "{kind}: q3 is cached");
                assert!(engine.peek(&key("absent")).is_none());
            }
            let after = engine.stats_snapshot();
            assert_eq!(after, before, "{kind}: peek must not mutate statistics");
        }
    }

    #[test]
    fn peek_does_not_refresh_recency() {
        // LRU with room for exactly two sets: A is older than B, so the next
        // admission must evict A — even after A was peeked many times.  A
        // lookup in peek's place would have bumped A and evicted B instead.
        let engine: Watchman<SizedPayload> = Watchman::builder()
            .shards(1)
            .policy(PolicyKind::Lru)
            .capacity_bytes(200)
            .build();
        let cost = ExecutionCost::from_blocks(10);
        execute(&engine, &key("a"), 100, cost, ts(1));
        execute(&engine, &key("b"), 100, cost, ts(2));
        for i in 0..25 {
            assert!(engine.peek(&key("a")).is_some());
            assert!(ts(i).as_micros() < u64::MAX);
        }
        let outcome = execute(&engine, &key("c"), 100, cost, ts(3)).expect("c executes");
        assert_eq!(outcome.evicted(), &[key("a")], "peeking must not protect a");
        assert!(engine.contains(&key("b")));
        assert!(engine.peek(&key("a")).is_none());
    }

    // ---- fallible fetch pipeline -------------------------------------------

    /// A failure config with no retries, breaker, or stale serving: errors
    /// are terminal on the first attempt (failures are still memoized).
    fn no_retry() -> FailureConfig {
        FailureConfig {
            retry: RetryPolicy::none(),
            ..FailureConfig::default()
        }
    }

    fn payload_ok(size: u64, blocks: u64) -> Result<(SizedPayload, ExecutionCost), FetchError> {
        Ok((SizedPayload::new(size), ExecutionCost::from_blocks(blocks)))
    }

    /// The fallible door driven to completion on the calling thread.
    fn try_get<F>(
        engine: &Watchman<SizedPayload>,
        key: &QueryKey,
        now: Timestamp,
        fetch: F,
    ) -> Result<Lookup<SizedPayload>, LookupError>
    where
        F: FnMut() -> Result<(SizedPayload, ExecutionCost), FetchError> + Unpin,
    {
        crate::runtime::block_on(engine.try_get_or_execute_async(key, now, fetch))
    }

    #[test]
    fn try_path_success_is_stat_identical_to_infallible_path() {
        // The fallible front door with an always-Ok fetch must be
        // byte-identical to the infallible one: same counters, same
        // occupancy, same everything the snapshot can see.
        let plain = engine(4, 40_000);
        let fallible = engine(4, 40_000);
        for i in 0..300u64 {
            let k = key(&format!("q{}", i % 23));
            let now = ts(i * 1_000 + 1);
            let size = 100 + (i % 7) * 120;
            let cost = ExecutionCost::from_blocks(400 + (i % 11) * 800);
            plain.get_or_execute(&k, now, || (SizedPayload::new(size), cost));
            try_get(&fallible, &k, now, || Ok((SizedPayload::new(size), cost)))
                .expect("fetch never fails");
        }
        assert_eq!(plain.stats_snapshot(), fallible.stats_snapshot());
    }

    #[test]
    fn transient_errors_are_retried_within_the_budget() {
        let engine: Watchman<SizedPayload> = Watchman::builder()
            .shards(1)
            .policy(PolicyKind::LNC_RA)
            .capacity_bytes(1 << 20)
            .failure(FailureConfig {
                retry: RetryPolicy {
                    max_attempts: 3,
                    base_delay: std::time::Duration::ZERO,
                    max_delay: std::time::Duration::ZERO,
                    jitter_seed: 7,
                },
                ..FailureConfig::default()
            })
            .build();
        let attempts = AtomicU64::new(0);
        let lookup = try_get(&engine, &key("flaky"), ts(1), || {
            if attempts.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(FetchError::transient("warehouse hiccup"))
            } else {
                payload_ok(128, 1_000)
            }
        })
        .expect("third attempt succeeds");
        assert_eq!(lookup.source, LookupSource::Executed);
        assert_eq!(attempts.load(Ordering::SeqCst), 3);
        assert_eq!(engine.stats_snapshot().fetch_retries, 2);
        let stats = engine.stats_snapshot().total;
        assert_eq!(
            stats.fetch_errors, 0,
            "a retried-to-success lookup is a plain miss"
        );
        assert_eq!(stats.references, 1);
    }

    #[test]
    fn fatal_errors_are_never_retried() {
        let engine: Watchman<SizedPayload> = Watchman::builder()
            .shards(1)
            .policy(PolicyKind::LNC_RA)
            .capacity_bytes(1 << 20)
            .build();
        let attempts = AtomicU64::new(0);
        let err = try_get(&engine, &key("doomed"), ts(1), || {
            attempts.fetch_add(1, Ordering::SeqCst);
            Err::<(SizedPayload, ExecutionCost), _>(FetchError::fatal("relation dropped"))
        })
        .expect_err("fatal error surfaces");
        assert_eq!(attempts.load(Ordering::SeqCst), 1, "fatal = no retry");
        assert!(!err.error.is_retryable());
        assert!(!err.negative_hit);
        assert_eq!(engine.stats_snapshot().fetch_retries, 0);
        let stats = engine.stats_snapshot().total;
        assert_eq!(stats.fetch_errors, 1);
        assert_eq!(stats.references, 1);
        assert_eq!(stats.misses(), 0, "an errored reference is not a miss");
        assert_books_balance(&engine.stats_snapshot());
    }

    #[test]
    fn negative_cache_memoizes_terminal_failures() {
        let engine: Watchman<SizedPayload> = Watchman::builder()
            .shards(1)
            .policy(PolicyKind::LNC_RA)
            .capacity_bytes(1 << 20)
            .failure(no_retry())
            .build();
        let invocations = AtomicU64::new(0);
        let fetch = || {
            invocations.fetch_add(1, Ordering::SeqCst);
            Err::<(SizedPayload, ExecutionCost), _>(FetchError::transient("down"))
        };
        let first = try_get(&engine, &key("q"), ts(1), fetch).expect_err("fetch fails");
        assert!(!first.negative_hit);
        // Inside the TTL window: answered from the negative cache, fetch not
        // invoked, and the memoized error is the *same* Arc.
        let second = try_get(&engine, &key("q"), ts(2), fetch).expect_err("memoized failure");
        assert!(second.negative_hit);
        assert!(Arc::ptr_eq(&first.error, &second.error));
        assert_eq!(invocations.load(Ordering::SeqCst), 1);
        assert_eq!(engine.stats_snapshot().negative_hits, 1);
        // Past the TTL (default 50ms of logical time): the entry expired and
        // the fetch runs again.
        let third = try_get(&engine, &key("q"), ts(60_000), fetch).expect_err("fresh failure");
        assert!(!third.negative_hit);
        assert_eq!(invocations.load(Ordering::SeqCst), 2);
        let stats = engine.stats_snapshot().total;
        assert_eq!(stats.fetch_errors, 3, "all three references errored");
        assert_eq!(stats.references, 3);
        assert_books_balance(&engine.stats_snapshot());
    }

    #[test]
    fn stale_serving_pays_cost_but_never_saves_it() {
        let engine: Watchman<SizedPayload> = Watchman::builder()
            .shards(1)
            .policy(PolicyKind::LNC_RA)
            .capacity_bytes(1 << 20)
            .failure(FailureConfig {
                retry: RetryPolicy::none(),
                serve_stale: true,
                ..FailureConfig::default()
            })
            .build();
        // Prime: a successful fallible fetch lands the value in the cache
        // AND the shard's last-known-good store.
        try_get(&engine, &key("report"), ts(1), || payload_ok(256, 5_000))
            .expect("priming fetch succeeds");
        let saved_after_prime = engine.stats_snapshot().total.saved_cost;
        // Drop the cached copy (clear keeps statistics and the key's slot).
        engine.clear();
        // The refetch fails: the engine degrades to the last-known-good copy.
        let lookup = try_get(&engine, &key("report"), ts(10), || {
            Err::<(SizedPayload, ExecutionCost), _>(FetchError::transient("down"))
        })
        .expect("stale serve");
        assert_eq!(lookup.source, LookupSource::Stale);
        assert_eq!(lookup.value.size_bytes(), 256);
        let stats = engine.stats_snapshot().total;
        assert_eq!(stats.stale_serves, 1);
        assert_eq!(stats.fetch_errors, 0, "a stale serve is not an error");
        assert_eq!(
            stats.saved_cost, saved_after_prime,
            "stale serves must never inflate the cost-savings ratio"
        );
        assert!(
            stats.total_cost > saved_after_prime,
            "stale serves pay their cost"
        );
        assert_books_balance(&engine.stats_snapshot());
        // Invalidation kills the last-known-good copy: wrong data is worse
        // than no data.
        engine.invalidate(&key("report"));
        let err = try_get(&engine, &key("report"), ts(200_000), || {
            Err::<(SizedPayload, ExecutionCost), _>(FetchError::transient("still down"))
        })
        .expect_err("no stale copy after invalidation");
        assert!(!err.negative_hit);
    }

    #[test]
    fn breaker_opens_sheds_fetches_and_recovers_through_half_open() {
        let engine: Watchman<SizedPayload> = Watchman::builder()
            .shards(1)
            .policy(PolicyKind::LNC_RA)
            .capacity_bytes(1 << 20)
            .failure(FailureConfig {
                retry: RetryPolicy::none(),
                breaker: Some(BreakerConfig {
                    window: 8,
                    failure_threshold: 0.5,
                    min_samples: 2,
                    open_for_us: 1_000_000,
                    half_open_probes: 1,
                }),
                ..FailureConfig::default()
            })
            .build();
        let invocations = AtomicU64::new(0);
        let failing = || {
            invocations.fetch_add(1, Ordering::SeqCst);
            Err::<(SizedPayload, ExecutionCost), _>(FetchError::transient("down"))
        };
        // Two terminal failures cross min_samples at 100% failure rate: the
        // breaker opens.
        try_get(&engine, &key("a"), ts(10), failing).unwrap_err();
        try_get(&engine, &key("b"), ts(20), failing).unwrap_err();
        assert_eq!(invocations.load(Ordering::SeqCst), 2);
        // Open: the next lookup is refused without invoking the fetch.
        let refused = try_get(&engine, &key("c"), ts(30), failing).expect_err("breaker refuses");
        assert_eq!(invocations.load(Ordering::SeqCst), 2, "no fetch while open");
        assert!(refused.error.message().contains("circuit breaker open"));
        assert!(engine.stats_snapshot().breaker_transitions >= 1);
        // After open_for_us elapses, the admit IS the half-open probe; its
        // success closes the breaker again.
        let recovered = try_get(&engine, &key("c"), ts(1_100_000), || payload_ok(64, 500))
            .expect("half-open probe succeeds");
        assert_eq!(recovered.source, LookupSource::Executed);
        let snapshot = engine.stats_snapshot();
        // closed→open, open→half-open, half-open→closed.
        assert_eq!(snapshot.breaker_transitions, 3);
        // And the shard serves normally again.
        let hit =
            try_get(&engine, &key("c"), ts(1_200_000), || unreachable!("cached")).expect("hit");
        assert_eq!(hit.source, LookupSource::Hit);
    }

    /// A one-shard engine whose breaker (one probe ticket when half-open,
    /// open for a logical second) two fatally failing lookups have just
    /// tripped.  `retry` applies to later transient errors only.
    fn engine_with_tripped_breaker(retry: RetryPolicy) -> Watchman<SizedPayload> {
        let engine: Watchman<SizedPayload> = Watchman::builder()
            .shards(1)
            .policy(PolicyKind::LNC_RA)
            .capacity_bytes(1 << 20)
            .runtime_workers(1)
            .failure(FailureConfig {
                retry,
                breaker: Some(BreakerConfig {
                    window: 8,
                    failure_threshold: 0.5,
                    min_samples: 2,
                    open_for_us: 1_000_000,
                    half_open_probes: 1,
                }),
                ..FailureConfig::default()
            })
            .build();
        for (name, now) in [("a", 10), ("b", 20)] {
            try_get(&engine, &key(name), ts(now), || {
                Err::<(SizedPayload, ExecutionCost), _>(FetchError::fatal("down"))
            })
            .unwrap_err();
        }
        let refused = try_get(&engine, &key("c"), ts(30), || {
            unreachable!("breaker is open")
        })
        .expect_err("breaker refuses");
        assert!(refused.error.message().contains("circuit breaker open"));
        engine
    }

    /// Polls `future` once with a no-op waker, asserting it suspends: the
    /// deterministic way to register a session as a flight's waiter, or to
    /// park a leader in its retry backoff, before the test goes on.
    fn poll_once_pending<F: std::future::Future + Unpin>(future: &mut F) {
        let mut cx = std::task::Context::from_waker(std::task::Waker::noop());
        assert!(std::pin::Pin::new(future).poll(&mut cx).is_pending());
    }

    #[test]
    fn panicking_probe_returns_its_half_open_ticket() {
        // Regression: a half-open probe whose fetch panicked never returned
        // its ticket; with `half_open_probes: 1` the shard then refused
        // every fetch forever.
        let engine = engine_with_tripped_breaker(RetryPolicy::none());
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            try_get(&engine, &key("c"), ts(1_100_000), || {
                panic!("warehouse connection lost")
            })
        }));
        assert!(panicked.is_err(), "the probe's panic propagates");
        // The fetch panicked inside the leader's poll: the cell was retired
        // before the panic reached this caller.
        assert_eq!(engine.inflight_entries(), 0, "cell retired");
        // The ticket is back: the next arrival is the probe, long after.
        let recovered = try_get(&engine, &key("c"), ts(2_000_000_000), || {
            payload_ok(64, 500)
        })
        .expect("the returned ticket admits a new probe");
        assert_eq!(recovered.source, LookupSource::Executed);
        // closed→open, open→half-open, half-open→closed: the lost probe
        // moved no state.
        assert_eq!(engine.stats_snapshot().breaker_transitions, 3);
    }

    /// A retry policy whose one backoff outlasts any test: a leader whose
    /// first attempt fails transiently sleeps until it is dropped.
    fn retry_after_an_hour() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 2,
            base_delay: std::time::Duration::from_secs(3_600),
            max_delay: std::time::Duration::from_secs(3_600),
            jitter_seed: 0,
        }
    }

    /// A waker that records whether it was woken.
    struct WokenFlag(std::sync::atomic::AtomicBool);

    impl std::task::Wake for WokenFlag {
        fn wake(self: Arc<Self>) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    /// A one-shard engine whose leaders back off for an hour after a
    /// transient error, caching in `capacity_bytes`.
    fn engine_with_hour_backoff(capacity_bytes: u64) -> Watchman<SizedPayload> {
        Watchman::builder()
            .shards(1)
            .policy(PolicyKind::LNC_RA)
            .capacity_bytes(capacity_bytes)
            .failure(FailureConfig {
                retry: retry_after_an_hour(),
                ..FailureConfig::default()
            })
            .runtime_workers(1)
            .build()
    }

    /// Parks a leader of `key` in its hour-long backoff, registers two
    /// waiters behind it whose fetches return a `size_bytes` set, drops the
    /// leader and polls both woken waiters in order.  Returns their sources
    /// and how many times their fetches ran.
    fn abandon_behind_two_waiters(
        engine: &Watchman<SizedPayload>,
        size_bytes: u64,
    ) -> (Vec<LookupSource>, u64) {
        use std::future::Future;
        use std::task::{Context, Poll, Waker};
        let mut leader = engine.try_get_or_execute_async(&key("shared"), ts(1), || {
            Err::<(SizedPayload, ExecutionCost), _>(FetchError::transient("blip"))
        });
        // The first attempt fails inside this poll; the leader sleeps.
        poll_once_pending(&mut leader);
        assert_eq!(
            engine.stats_snapshot().fetch_retries,
            1,
            "the leader is in its backoff"
        );
        let executions = Arc::new(AtomicU64::new(0));
        let mut waiters: Vec<_> = (0..2)
            .map(|_| {
                let executions = Arc::clone(&executions);
                let flag = Arc::new(WokenFlag(std::sync::atomic::AtomicBool::new(false)));
                let waiter = engine.try_get_or_execute_async(&key("shared"), ts(2), move || {
                    executions.fetch_add(1, Ordering::SeqCst);
                    payload_ok(size_bytes, 700)
                });
                (waiter, flag)
            })
            .collect();
        for (waiter, flag) in &mut waiters {
            let waker = Waker::from(Arc::clone(flag));
            let mut cx = Context::from_waker(&waker);
            assert!(std::pin::Pin::new(waiter).poll(&mut cx).is_pending());
        }

        drop(leader);
        assert_eq!(engine.inflight_entries(), 0, "the drop retires the flight");
        let mut sources = Vec::new();
        for (index, (waiter, flag)) in waiters.iter_mut().enumerate() {
            assert!(flag.0.load(Ordering::SeqCst), "waiter {index} was woken");
            let waker = Waker::from(Arc::clone(flag));
            let mut cx = Context::from_waker(&waker);
            match std::pin::Pin::new(waiter).poll(&mut cx) {
                Poll::Ready(lookup) => sources.push(lookup.expect("its fetch succeeds").source),
                Poll::Pending => panic!("waiter {index} must resolve once woken"),
            }
        }
        (sources, executions.load(Ordering::SeqCst))
    }

    #[test]
    fn leader_dropped_in_backoff_hands_the_flight_to_one_waiter() {
        // Both waiters are woken and look again: the first leads a fresh
        // flight with its own fetch, which runs in its poll and is
        // admitted; the second hits the set.
        let engine = engine_with_hour_backoff(1 << 20);
        let (sources, executions) = abandon_behind_two_waiters(&engine, 64);
        assert_eq!(sources, [LookupSource::Executed, LookupSource::Hit]);
        assert_eq!(executions, 1);
        assert_eq!(engine.inflight_entries(), 0);
        assert_eq!(engine.slot_count(), 0);
        assert!(engine.contains(&key("shared")));
    }

    #[test]
    fn a_waiter_looking_again_after_a_refused_successor_executes() {
        // As above, but the cache is too small for the set: the successor
        // finishes and its set is refused before the second waiter looks
        // again, so that waiter misses and executes too.
        let engine = engine_with_hour_backoff(1_000);
        let (sources, executions) = abandon_behind_two_waiters(&engine, 4_096);
        assert_eq!(sources, [LookupSource::Executed, LookupSource::Executed]);
        assert_eq!(executions, 2);
        assert_eq!(engine.inflight_entries(), 0);
        assert_eq!(engine.slot_count(), 0);
        assert!(!engine.contains(&key("shared")));
    }

    #[test]
    fn cancelled_probe_leader_returns_its_half_open_ticket() {
        // A half-open probe that fails transiently sleeps out its backoff
        // while holding the shard's only ticket.  Dropped there with no
        // waiter, it must retire the cell and hand the ticket back, or the
        // shard refuses every fetch forever.
        let engine = engine_with_tripped_breaker(retry_after_an_hour());
        {
            let mut probe = engine.try_get_or_execute_async(&key("c"), ts(1_100_000), || {
                Err::<(SizedPayload, ExecutionCost), _>(FetchError::transient("still down"))
            });
            poll_once_pending(&mut probe);
            assert_eq!(
                engine.stats_snapshot().fetch_retries,
                1,
                "the probe is in its backoff"
            );
            assert_eq!(engine.inflight_entries(), 1, "probe leadership held");
            let refused = try_get(&engine, &key("d"), ts(1_100_001), || {
                unreachable!("no ticket left")
            })
            .expect_err("the one ticket is out");
            assert!(refused.error.message().contains("circuit breaker open"));
            // Dropping the future here is the cancellation.
        }
        assert_eq!(
            engine.inflight_entries(),
            0,
            "the waiterless cell is retired"
        );
        let recovered = try_get(&engine, &key("d"), ts(2_000_000_000), || {
            payload_ok(64, 500)
        })
        .expect("the returned ticket admits a new probe");
        assert_eq!(recovered.source, LookupSource::Executed);
        // closed→open, open→half-open, half-open→closed.
        assert_eq!(engine.stats_snapshot().breaker_transitions, 3);
    }

    #[test]
    fn a_flight_gets_a_cell_from_its_first_waiter_and_its_last_retires_it() {
        // The leader sleeps out a backoff holding its flight: no waiter, no
        // cell.  The first waiter to join creates the cell.  The leader is
        // the flight's last claim: its drop retires the flight at once, and
        // the woken waiter's cancellation leaves nothing behind.
        let engine = engine_with_hour_backoff(1 << 20);
        let fetch = || Err::<(SizedPayload, ExecutionCost), _>(FetchError::transient("blip"));
        let mut leader = engine.try_get_or_execute_async(&key("k"), ts(1), fetch);
        poll_once_pending(&mut leader);
        assert_eq!(engine.inflight_entries(), 1, "leadership held in backoff");
        assert_eq!(
            engine.flight_cells(),
            0,
            "an uncontended flight has no cell"
        );

        let mut waiter = engine.try_get_or_execute_async(&key("k"), ts(2), fetch);
        poll_once_pending(&mut waiter);
        assert_eq!(engine.flight_cells(), 1, "the first waiter made the cell");

        drop(leader);
        assert_eq!(
            engine.inflight_entries(),
            0,
            "the leader's drop retires the flight"
        );
        assert_eq!(engine.slot_count(), 0);
        drop(waiter);
        assert_eq!(engine.slot_count(), 0);
    }

    #[test]
    fn cancelled_leader_fetch_is_never_invoked() {
        // A session cancelled before its first poll never claims the flight
        // (the future is lazy), and a leader cancelled mid-backoff runs no
        // further attempt.  Either way the key is left with no cell, and
        // the next session starts a fresh flight.
        let engine: Watchman<SizedPayload> = Watchman::builder()
            .shards(1)
            .policy(PolicyKind::LNC_RA)
            .capacity_bytes(1 << 20)
            .failure(FailureConfig {
                retry: retry_after_an_hour(),
                ..FailureConfig::default()
            })
            .runtime_workers(1)
            .build();
        let attempts = Arc::new(AtomicU64::new(0));
        let failing = || {
            let attempts = Arc::clone(&attempts);
            move || {
                attempts.fetch_add(1, Ordering::SeqCst);
                Err::<(SizedPayload, ExecutionCost), _>(FetchError::transient("blip"))
            }
        };

        drop(engine.try_get_or_execute_async(&key("abandoned"), ts(1), failing()));
        assert_eq!(
            attempts.load(Ordering::SeqCst),
            0,
            "never polled, never run"
        );
        assert_eq!(engine.inflight_entries(), 0);

        let mut leader = engine.try_get_or_execute_async(&key("abandoned"), ts(2), failing());
        poll_once_pending(&mut leader);
        assert_eq!(attempts.load(Ordering::SeqCst), 1, "first attempt failed");
        assert_eq!(engine.inflight_entries(), 1, "leadership held in backoff");
        drop(leader);
        assert_eq!(
            engine.inflight_entries(),
            0,
            "cancelled flight cell retired"
        );
        assert_eq!(
            attempts.load(Ordering::SeqCst),
            1,
            "cancelled leader never retries"
        );

        let lookup = engine.get_or_execute(&key("abandoned"), ts(3), || {
            (SizedPayload::new(16), ExecutionCost::from_blocks(5))
        });
        assert_eq!(lookup.source, LookupSource::Executed);
    }

    #[test]
    fn leader_fetch_runs_on_the_polling_thread() {
        use std::sync::mpsc;
        let engine: Watchman<SizedPayload> = Watchman::builder()
            .shards(1)
            .policy(PolicyKind::LNC_RA)
            .capacity_bytes(1 << 20)
            .runtime_workers(2)
            .build();
        let caller = std::thread::current().id();
        let (ran_on_tx, ran_on) = mpsc::channel();
        let tx = ran_on_tx.clone();
        let lookup = engine.get_or_execute(&key("infallible"), ts(1), move || {
            tx.send(std::thread::current().id()).unwrap();
            (SizedPayload::new(64), ExecutionCost::from_blocks(700))
        });
        assert_eq!(lookup.source, LookupSource::Executed);
        assert_eq!(ran_on.recv().unwrap(), caller, "infallible door");
        let lookup = try_get(&engine, &key("fallible"), ts(2), move || {
            ran_on_tx.send(std::thread::current().id()).unwrap();
            payload_ok(64, 700)
        })
        .expect("the fetch succeeds");
        assert_eq!(lookup.source, LookupSource::Executed);
        assert_eq!(ran_on.recv().unwrap(), caller, "fallible door");
    }

    #[test]
    fn infallible_waiter_restarts_when_its_fallible_leader_fails() {
        use std::sync::mpsc;
        let engine: Watchman<SizedPayload> = Watchman::builder()
            .shards(1)
            .policy(PolicyKind::LNC_RA)
            .capacity_bytes(1 << 20)
            .failure(no_retry())
            .runtime_workers(2)
            .build();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let executions = Arc::new(AtomicU64::new(0));
        let lookup = std::thread::scope(|scope| {
            // The leader fetches in its own poll, so it leads from a thread
            // of its own while this one joins its flight.
            let leader = scope.spawn(|| {
                crate::runtime::block_on(engine.try_get_or_execute_async(
                    &key("shared"),
                    ts(1),
                    move || {
                        started_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                        Err::<(SizedPayload, ExecutionCost), _>(FetchError::fatal("warehouse gone"))
                    },
                ))
            });
            started_rx.recv().unwrap();
            // The infallible door's future, polled by hand to register it
            // as the flight's waiter.
            let mut waiter = {
                let executions = Arc::clone(&executions);
                let fetch = move || {
                    executions.fetch_add(1, Ordering::SeqCst);
                    (SizedPayload::new(64), ExecutionCost::from_blocks(700))
                };
                let mut fetch = Some(fetch);
                engine.lookup(key("shared"), ts(2), false, move || {
                    Ok(fetch.take().expect("leads once")())
                })
            };
            poll_once_pending(&mut waiter);
            release_tx.send(()).unwrap();
            leader
                .join()
                .unwrap()
                .expect_err("the leader surfaces its error");
            // The waiter cannot surface an error: it starts over, leads a
            // fresh flight past the negative entry the failure left, and
            // executes.
            crate::runtime::block_on(waiter).expect("the waiter cannot fail")
        });
        assert_eq!(lookup.source, LookupSource::Executed);
        assert_eq!(executions.load(Ordering::SeqCst), 1);
        assert_eq!(engine.inflight_entries(), 0);
        let stats = engine.stats_snapshot().total;
        assert_eq!(stats.references, 2);
        assert_eq!((stats.hits, stats.coalesced, stats.stale_serves), (0, 0, 0));
        assert_eq!(stats.fetch_errors, 1, "the leader's reference");
        assert_eq!(stats.misses(), 1, "the waiter's reference");
        assert_eq!(stats.insertions_offered, 1);
        assert_books_balance(&engine.stats_snapshot());
    }

    #[test]
    fn infallible_lookups_bypass_the_negative_cache_and_the_breaker() {
        let engine = engine_with_tripped_breaker(RetryPolicy::none());
        let memoized = try_get(&engine, &key("a"), ts(31), || {
            unreachable!("memoized or refused")
        })
        .expect_err("inside the failure domain the key stays failed");
        assert!(memoized.negative_hit);
        // Same key, same instant, open breaker: the infallible door executes.
        let lookup = engine.get_or_execute(&key("a"), ts(31), || {
            (SizedPayload::new(64), ExecutionCost::from_blocks(700))
        });
        assert_eq!(lookup.source, LookupSource::Executed);
        // And it fed nothing back: the breaker is still open.
        let refused = try_get(&engine, &key("c"), ts(32), || {
            unreachable!("breaker is open")
        })
        .expect_err("breaker still refuses");
        assert!(refused.error.message().contains("circuit breaker open"));
        assert_eq!(engine.stats_snapshot().breaker_transitions, 1);
    }

    #[test]
    fn fallible_waiter_coalesces_behind_an_infallible_leader() {
        use std::sync::mpsc;
        let engine = engine(1, 1 << 20);
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let shared = std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                engine.get_or_execute(&key("shared"), ts(1), move || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    (SizedPayload::new(64), ExecutionCost::from_blocks(700))
                })
            });
            started_rx.recv().unwrap();
            let mut waiter = engine.try_get_or_execute_async(&key("shared"), ts(2), || {
                unreachable!("waiters never execute")
            });
            poll_once_pending(&mut waiter);
            release_tx.send(()).unwrap();
            assert_eq!(leader.join().unwrap().source, LookupSource::Executed);
            crate::runtime::block_on(waiter).expect("the leader's value is shared")
        });
        assert_eq!(shared.source, LookupSource::Coalesced);
        assert_eq!(shared.value.size_bytes(), 64);
        assert_eq!(engine.stats_snapshot().total.coalesced, 1);
        assert_books_balance(&engine.stats_snapshot());
    }

    #[test]
    fn coalesced_waiters_share_one_error_arc() {
        use std::sync::mpsc;
        let engine: Watchman<SizedPayload> = Watchman::builder()
            .shards(1)
            .policy(PolicyKind::LNC_RA)
            .capacity_bytes(1 << 20)
            .failure(no_retry())
            .runtime_workers(2)
            .build();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let errors: Arc<crate::sync::Mutex<Vec<Arc<FetchError>>>> =
            Arc::new(crate::sync::Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            {
                let engine = engine.clone();
                let errors = Arc::clone(&errors);
                scope.spawn(move || {
                    let err = crate::runtime::block_on(engine.try_get_or_execute_async(
                        &key("shared"),
                        ts(1),
                        move || {
                            started_tx.send(()).unwrap();
                            release_rx.recv().unwrap();
                            Err::<(SizedPayload, ExecutionCost), _>(FetchError::fatal(
                                "warehouse gone",
                            ))
                        },
                    ))
                    .expect_err("leader observes the error");
                    errors.lock().push(err.error);
                });
            }
            // The leader's fetch has started: the flight is registered, so
            // every session below either coalesces onto it or (after the
            // failure) hits the negative cache — both share the same Arc.
            started_rx.recv().unwrap();
            for _ in 0..3 {
                let engine = engine.clone();
                let errors = Arc::clone(&errors);
                scope.spawn(move || {
                    let err = crate::runtime::block_on(engine.try_get_or_execute_async(
                        &key("shared"),
                        ts(2),
                        || unreachable!("waiters never execute"),
                    ))
                    .expect_err("waiters observe the shared error");
                    errors.lock().push(err.error);
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
            release_tx.send(()).unwrap();
        });
        let errors = errors.lock();
        assert_eq!(errors.len(), 4);
        assert!(
            errors.iter().all(|e| Arc::ptr_eq(e, &errors[0])),
            "one failure, one shared Arc for every session"
        );
        let stats = engine.stats_snapshot().total;
        assert_eq!(stats.fetch_errors, 4);
        assert_eq!(stats.references, 4);
        assert_books_balance(&engine.stats_snapshot());
    }

    #[test]
    fn async_retries_sleep_on_the_runtime_timer() {
        let engine: Watchman<SizedPayload> = Watchman::builder()
            .shards(1)
            .policy(PolicyKind::LNC_RA)
            .capacity_bytes(1 << 20)
            .failure(FailureConfig {
                retry: RetryPolicy {
                    max_attempts: 3,
                    base_delay: std::time::Duration::from_millis(2),
                    max_delay: std::time::Duration::from_millis(10),
                    jitter_seed: 42,
                },
                ..FailureConfig::default()
            })
            .runtime_workers(2)
            .build();
        let attempts = Arc::new(AtomicU64::new(0));
        let fetch_attempts = Arc::clone(&attempts);
        let lookup = crate::runtime::block_on(engine.try_get_or_execute_async(
            &key("flaky-async"),
            ts(1),
            move || {
                if fetch_attempts.fetch_add(1, Ordering::SeqCst) < 2 {
                    Err(FetchError::transient("transient"))
                } else {
                    payload_ok(64, 700)
                }
            },
        ))
        .expect("retried to success");
        assert_eq!(lookup.source, LookupSource::Executed);
        assert_eq!(attempts.load(Ordering::SeqCst), 3);
        assert_eq!(engine.stats_snapshot().fetch_retries, 2);
    }

    #[test]
    fn failure_counters_round_trip_through_json() {
        let engine: Watchman<SizedPayload> = Watchman::builder()
            .shards(2)
            .policy(PolicyKind::LNC_RA)
            .capacity_bytes(1 << 20)
            .failure(no_retry())
            .build();
        try_get(&engine, &key("ok"), ts(1), || payload_ok(100, 900)).expect("success");
        try_get(&engine, &key("bad"), ts(2), || {
            Err::<(SizedPayload, ExecutionCost), _>(FetchError::fatal("boom"))
        })
        .unwrap_err();
        try_get(&engine, &key("bad"), ts(3), || unreachable!("memoized")).unwrap_err();
        let snapshot = engine.stats_snapshot();
        assert_eq!(snapshot.total.fetch_errors, 2);
        assert_eq!(snapshot.negative_hits, 1);
        assert_eq!(snapshot.sheds, 0, "the engine never sheds; servers do");
        assert_books_balance(&snapshot);
        let json = serde_json::to_string(&snapshot).expect("snapshot serializes");
        let back: StatsSnapshot = serde_json::from_str(&json).expect("snapshot parses");
        assert_eq!(snapshot, back, "JSON round trip must be exact");
    }

    // ---- the per-key slot map ----------------------------------------------

    fn failing() -> Result<(SizedPayload, ExecutionCost), FetchError> {
        Err(FetchError::transient("down"))
    }

    #[test]
    fn oldest_recorded_key_loses_both_records_past_the_bound() {
        use super::watchman::{FAILURE_TTL_US, MAX_RECORDED_KEYS};
        let engine: Watchman<SizedPayload> = Watchman::builder()
            .shards(1)
            .policy(PolicyKind::LNC_RA)
            .capacity_bytes(1 << 20)
            .failure(FailureConfig {
                retry: RetryPolicy::none(),
                serve_stale: true,
                ..FailureConfig::default()
            })
            .build();
        // "restored" is stored first; "oldest" next, with a stale copy and
        // then a memoized failure; then the rest of the bound fills up.
        try_get(&engine, &key("restored"), ts(1), || payload_ok(64, 500)).expect("primed");
        try_get(&engine, &key("oldest"), ts(2), || payload_ok(64, 500)).expect("primed");
        engine.clear();
        let served = try_get(&engine, &key("oldest"), ts(3), failing).expect("stale serve");
        assert_eq!(served.source, LookupSource::Stale);
        for i in 0..MAX_RECORDED_KEYS - 2 {
            try_get(&engine, &key(&format!("fill{i}")), ts(4), || {
                payload_ok(64, 500)
            })
            .expect("fill");
        }
        assert_eq!(
            engine.slot_count(),
            MAX_RECORDED_KEYS,
            "exactly at the bound"
        );
        // Storing "restored" again moves it to the newest end, so one more
        // key pushes the bound past "oldest" alone.
        engine.clear();
        try_get(&engine, &key("restored"), ts(5), || payload_ok(64, 500)).expect("refetch");
        try_get(&engine, &key("newcomer"), ts(6), || payload_ok(64, 500)).expect("past bound");
        assert_eq!(engine.slot_count(), MAX_RECORDED_KEYS);

        // Inside the failure's TTL, yet "oldest" runs its fetch (no memoized
        // failure) and surfaces the error (no stale copy).
        let now = ts(7);
        assert!(now.as_micros() < 3 + FAILURE_TTL_US);
        engine.clear();
        let invocations = AtomicU64::new(0);
        let err = try_get(&engine, &key("oldest"), now, || {
            invocations.fetch_add(1, Ordering::SeqCst);
            failing()
        })
        .expect_err("neither record survives");
        assert!(!err.negative_hit);
        assert_eq!(invocations.load(Ordering::SeqCst), 1);
        let kept = try_get(&engine, &key("restored"), now, failing).expect("stale serve");
        assert_eq!(kept.source, LookupSource::Stale);
        assert_books_balance(&engine.stats_snapshot());
    }

    #[test]
    fn invalidate_drops_a_memoized_failure() {
        let engine: Watchman<SizedPayload> = Watchman::builder()
            .shards(1)
            .policy(PolicyKind::LNC_RA)
            .capacity_bytes(1 << 20)
            .failure(no_retry())
            .build();
        try_get(&engine, &key("q"), ts(1), failing).expect_err("fetch fails");
        let memoized = try_get(&engine, &key("q"), ts(2), || unreachable!("memoized"))
            .expect_err("memoized failure");
        assert!(memoized.negative_hit);
        engine.invalidate(&key("q"));
        assert_eq!(engine.slot_count(), 0, "the bare slot is removed");
        let lookup = try_get(&engine, &key("q"), ts(3), || payload_ok(64, 500))
            .expect("the warehouse is asked again");
        assert_eq!(lookup.source, LookupSource::Executed);
    }

    #[test]
    fn successful_lookups_without_stale_serving_leave_no_slot() {
        let engine: Watchman<SizedPayload> = Watchman::builder()
            .shards(4)
            .policy(PolicyKind::LNC_RA)
            .capacity_bytes(4_000)
            .failure(no_retry())
            .build();
        for i in 0..200u64 {
            let k = key(&format!("q{}", i % 37));
            let now = ts(i + 1);
            if i % 2 == 0 {
                try_get(&engine, &k, now, || payload_ok(300, 500)).expect("fetch succeeds");
            } else {
                engine.get_or_execute(&k, now, || {
                    (SizedPayload::new(300), ExecutionCost::from_blocks(500))
                });
            }
        }
        assert!(
            engine.stats_snapshot().total.misses() > 37,
            "the cache churned"
        );
        assert_eq!(engine.slot_count(), 0);
    }

    /// A hit reads the clock only when its thread samples it, one lookup in
    /// 64, and then twice (start and end).  An executed miss reads it five
    /// times, sampled or not, as it did when every lookup was timed: the
    /// lookup's start and end, the fetch attempt's start and end, and the
    /// flight recorder's timestamp.
    #[test]
    fn lookups_read_the_clock_only_when_sampled_or_missed() {
        use crate::runtime::block_on;
        use crate::telemetry::{clock_reads, LOOKUP_SAMPLE_PERIOD};

        const HITS: u64 = 640;
        // A sampled executed miss reads the clock before its probe, around
        // its fetch attempt, for its trace event and at its end; an
        // unsampled one only when its probe misses and for its trace event.
        const SAMPLED_MISS_READS: u64 = 5;
        const UNSAMPLED_MISS_READS: u64 = 2;
        fn counted(lookup: impl FnOnce()) -> u64 {
            let before = clock_reads();
            lookup();
            clock_reads() - before
        }
        // Each case runs on a fresh thread, whose first lookup is its first
        // sample.
        fn on_fresh_thread(case: impl FnOnce() + Send) {
            std::thread::scope(|scope| scope.spawn(case).join().expect("counting thread"));
        }
        let engine = engine(1, 1 << 20);
        let hot = key("hot");
        let outcome = execute(&engine, &hot, 64, ExecutionCost::from_blocks(10), ts(1));
        assert!(outcome.is_some_and(|outcome| outcome.is_admitted()));
        let fill = || (SizedPayload::new(64), ExecutionCost::from_blocks(10));

        on_fresh_thread(|| {
            let sync_hits = counted(|| {
                for i in 0..HITS {
                    let lookup = engine.get_or_execute(&hot, ts(2 + i), || unreachable!("a hit"));
                    assert_eq!(lookup.source, LookupSource::Hit);
                }
            });
            let async_hits = counted(|| {
                for i in 0..HITS {
                    let lookup =
                        block_on(engine.try_get_or_execute_async(&hot, ts(1_000 + i), || {
                            unreachable!("a hit")
                        }));
                    assert_eq!(lookup.expect("a hit").source, LookupSource::Hit);
                }
            });
            let sampled = HITS / u64::from(LOOKUP_SAMPLE_PERIOD);
            assert_eq!(sync_hits, 2 * sampled, "{HITS} hits through the sync door");
            assert_eq!(
                async_hits,
                2 * sampled,
                "{HITS} hits through the async door"
            );
        });
        for door in ["sync", "async"] {
            on_fresh_thread(|| {
                for (case, expected) in [
                    ("sampled", SAMPLED_MISS_READS),
                    ("unsampled", UNSAMPLED_MISS_READS),
                ] {
                    let miss = key(&format!("{door}-{case}"));
                    let reads = counted(|| {
                        let source = if door == "sync" {
                            engine.get_or_execute(&miss, ts(5_000), fill).source
                        } else {
                            block_on(
                                engine.try_get_or_execute_async(&miss, ts(5_000), || Ok(fill())),
                            )
                            .expect("executed")
                            .source
                        };
                        assert_eq!(source, LookupSource::Executed);
                    });
                    assert_eq!(reads, expected, "a {case} executed miss, {door} door");
                }
            });
        }
    }
}
