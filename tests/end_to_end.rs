//! End-to-end integration tests spanning every crate: warehouse → trace →
//! cache policies → metrics, exercised through the public facade.

use watchman::prelude::*;

fn tpcd_workload(queries: usize, seed: u64) -> Workload {
    Workload::tpcd(ExperimentScale::quick(queries).with_seed(seed))
}

#[test]
fn full_pipeline_is_deterministic() {
    let a = tpcd_workload(1_000, 11);
    let b = tpcd_workload(1_000, 11);
    assert_eq!(a.trace, b.trace);
    let run_a = run_policy(&a.trace, PolicyKind::LNC_RA, 0.01);
    let run_b = run_policy(&b.trace, PolicyKind::LNC_RA, 0.01);
    assert_eq!(run_a, run_b);
}

#[test]
fn no_policy_beats_the_infinite_cache() {
    let workload = tpcd_workload(1_500, 3);
    let ceiling = run_infinite(&workload.trace);
    for kind in PolicyKind::all() {
        let result = run_policy(&workload.trace, kind, 0.02);
        assert!(
            result.cost_savings_ratio <= ceiling.cost_savings_ratio + 1e-9,
            "{kind} exceeded the infinite-cache CSR"
        );
        assert!(
            result.hit_ratio <= ceiling.hit_ratio + 1e-9,
            "{kind} exceeded the infinite-cache HR"
        );
    }
}

#[test]
fn infinite_cache_matches_trace_statistics() {
    let workload = Workload::set_query(ExperimentScale::quick(1_200).with_seed(9));
    let stats = TraceStats::of(&workload.trace);
    let ceiling = run_infinite(&workload.trace);
    assert!((ceiling.hit_ratio - stats.max_hit_ratio).abs() < 1e-9);
    assert!((ceiling.cost_savings_ratio - stats.max_cost_savings_ratio).abs() < 1e-9);
}

#[test]
fn lnc_ra_beats_lru_on_both_benchmarks_at_small_caches() {
    for workload in Workload::both(ExperimentScale::quick(3_000)) {
        let lnc = run_policy(&workload.trace, PolicyKind::LNC_RA, 0.005);
        let lru = run_policy(&workload.trace, PolicyKind::Lru, 0.005);
        assert!(
            lnc.cost_savings_ratio > lru.cost_savings_ratio,
            "{}: LNC-RA ({}) must beat LRU ({})",
            workload.kind(),
            lnc.cost_savings_ratio,
            lru.cost_savings_ratio
        );
    }
}

#[test]
fn larger_caches_never_reduce_lnc_ra_cost_savings_much() {
    // CSR should be (weakly) increasing in cache size, modulo small
    // admission-heuristic noise.
    let workload = tpcd_workload(2_000, 5);
    let mut previous = 0.0;
    for fraction in [0.002, 0.01, 0.03, 0.05] {
        let result = run_policy(&workload.trace, PolicyKind::LNC_RA, fraction);
        assert!(
            result.cost_savings_ratio >= previous - 0.03,
            "CSR dropped from {previous} to {} when growing the cache to {fraction}",
            result.cost_savings_ratio
        );
        previous = previous.max(result.cost_savings_ratio);
    }
}

#[test]
fn executor_results_can_be_cached_and_served_byte_identical() {
    // Cache the actual materialized retrieved sets (not just their sizes) and
    // verify a hit returns exactly what execution returned.
    let benchmark = watchman::warehouse::tpcd::benchmark();
    let executor = QueryExecutor::new(&benchmark);
    let mut cache: LncCache<RetrievedSet> = LncCache::lnc_ra(4 << 20);
    let clock = ManualClock::new();

    // 15 distinct instances referenced 40 times: plenty of repetition.
    let instances: Vec<QueryInstance> = (0..40u32)
        .map(|i| QueryInstance::new(TemplateId((i % 5) as u16), u64::from(i % 3)))
        .collect();

    let mut executions = 0usize;
    for &instance in &instances {
        let now = clock.advance(1_000);
        let key = executor.query_key(instance);
        if let Some(cached) = cache.get(&key, now) {
            let fresh = executor.execute(instance);
            assert_eq!(
                cached, &fresh.retrieved_set,
                "cache must serve identical rows"
            );
        } else {
            let fresh = executor.execute(instance);
            executions += 1;
            cache.insert(key, fresh.retrieved_set, fresh.cost, now);
        }
    }
    assert!(
        executions < instances.len(),
        "repeated queries must hit the cache"
    );
    assert!(cache.stats().hits > 0);
}

#[test]
fn trace_round_trips_through_json() {
    let workload = tpcd_workload(200, 21);
    let json = workload.trace.to_json().expect("serialize");
    let back = Trace::from_json(&json).expect("deserialize");
    assert_eq!(workload.trace, back);
    // A replay of the deserialized trace gives identical results.
    let a = run_policy(&workload.trace, PolicyKind::Lru, 0.01);
    let b = run_policy(&back, PolicyKind::Lru, 0.01);
    assert_eq!(a, b);
}

#[test]
fn engine_serves_concurrent_sessions() {
    let benchmark = watchman::warehouse::setquery::benchmark();
    let engine: Watchman<SizedPayload> = Watchman::builder()
        .shards(4)
        .policy(PolicyKind::LNC_RA)
        .capacity_bytes(8 << 20)
        .build();
    let clock = std::sync::Arc::new(ManualClock::new());

    std::thread::scope(|scope| {
        for session in 0..4u16 {
            let engine = engine.clone();
            let clock = std::sync::Arc::clone(&clock);
            let benchmark = &benchmark;
            scope.spawn(move || {
                let executor = QueryExecutor::new(benchmark);
                for i in 0..100u64 {
                    let instance =
                        QueryInstance::new(TemplateId(((session as u64 + i) % 13) as u16), i % 11);
                    let now = clock.advance(500);
                    let key = executor.query_key(instance);
                    engine.get_or_execute(&key, now, || {
                        let result = executor.execute(instance);
                        (SizedPayload::new(result.declared_result_bytes), result.cost)
                    });
                }
            });
        }
    });

    let snapshot = engine.stats_snapshot();
    // One-call-per-reference protocol: every lookup is recorded as a hit, an
    // executed miss, or a coalesced wait on another session's execution.
    assert_eq!(snapshot.total.references, 400);
    assert_eq!(
        snapshot.total.references,
        snapshot.total.hits + snapshot.total.coalesced + snapshot.total.misses()
    );
    assert!(
        snapshot.total.hits > 0,
        "concurrent sessions must share cached results"
    );
    assert!(engine.used_bytes() <= engine.capacity_bytes());
    assert_eq!(snapshot.per_shard.len(), 4);
}

#[test]
fn async_engine_serves_suspended_sessions_end_to_end() {
    // The async front door against real executor results: session tasks on
    // the engine's runtime await lookups whose fetches execute warehouse
    // queries, and the aggregate accounting still balances.
    let benchmark = watchman::warehouse::tpcd::benchmark();
    let engine: Watchman<SizedPayload> = Watchman::builder()
        .shards(4)
        .policy(PolicyKind::LNC_RA)
        .capacity_bytes(8 << 20)
        .runtime_workers(2)
        .build();
    let runtime = engine.runtime();
    let clock = std::sync::Arc::new(ManualClock::new());

    let handles: Vec<_> = (0..4u16)
        .map(|session| {
            let engine = engine.clone();
            let clock = std::sync::Arc::clone(&clock);
            let benchmark = benchmark.clone();
            runtime.spawn(async move {
                let executor = QueryExecutor::new(&benchmark);
                for i in 0..100u64 {
                    let instance =
                        QueryInstance::new(TemplateId(((session as u64 + i) % 13) as u16), i % 11);
                    let now = clock.advance(500);
                    let key = executor.query_key(instance);
                    // The fetch runs on a runtime worker, so it owns its own
                    // benchmark copy (the closure must be Send + 'static).
                    let fetch_benchmark = benchmark.clone();
                    let lookup = engine
                        .get_or_execute_async(&key, now, move || {
                            let executor = QueryExecutor::new(&fetch_benchmark);
                            let result = executor.execute(instance);
                            (SizedPayload::new(result.declared_result_bytes), result.cost)
                        })
                        .await;
                    assert!(lookup.value.size_bytes() > 0);
                }
            })
        })
        .collect();
    for handle in handles {
        block_on(handle).expect("session task completed");
    }

    let snapshot = engine.stats_snapshot();
    assert_eq!(snapshot.total.references, 400);
    assert_eq!(
        snapshot.total.references,
        snapshot.total.hits + snapshot.total.coalesced + snapshot.total.misses()
    );
    assert!(
        snapshot.total.hits > 0,
        "sessions must share cached results"
    );
    assert!(engine.used_bytes() <= engine.capacity_bytes());
}
