//! Trace replay: drive a cache (bare policy or concurrent engine) with a
//! workload trace and collect the paper's performance metrics.
//!
//! The engine driver, [`replay_trace_engine`], is one session calling
//! [`Watchman::get_or_execute`] and is fully deterministic.

use serde::{Deserialize, Serialize};
use watchman_core::clock::Timestamp;
use watchman_core::engine::{StatsSnapshot, Watchman};
use watchman_core::key::QueryKey;
use watchman_core::metrics::{CacheStats, FragmentationTracker};
use watchman_core::policy::QueryCache;
use watchman_core::value::{ExecutionCost, SizedPayload};
use watchman_trace::Trace;

use crate::{BoxedCache, PolicyKind};

/// The metrics of one (trace, policy, cache size) run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Display label of the policy.
    pub policy: String,
    /// Cache capacity in bytes.
    pub capacity_bytes: u64,
    /// Cache capacity as a fraction of the database size.
    pub cache_fraction: f64,
    /// Cost savings ratio (the paper's primary metric).
    pub cost_savings_ratio: f64,
    /// Hit ratio.
    pub hit_ratio: f64,
    /// Average fraction of cache space in use (1 − external fragmentation).
    pub avg_used_fraction: f64,
    /// Minimum observed used fraction.
    pub min_used_fraction: f64,
    /// Number of query references replayed.
    pub references: u64,
    /// Number of admissions.
    pub admissions: u64,
    /// Number of admission rejections.
    pub rejections: u64,
    /// Number of evictions.
    pub evictions: u64,
    /// Number of shards the capacity was partitioned across (1 for bare
    /// policy replays).
    pub shards: usize,
}

impl RunResult {
    fn from_stats(
        policy: String,
        capacity_bytes: u64,
        cache_fraction: f64,
        stats: &CacheStats,
        fragmentation: &FragmentationTracker,
    ) -> RunResult {
        RunResult {
            policy,
            capacity_bytes,
            cache_fraction,
            cost_savings_ratio: stats.cost_savings_ratio(),
            hit_ratio: stats.hit_ratio(),
            avg_used_fraction: fragmentation.average_used_fraction(),
            min_used_fraction: fragmentation.min_used_fraction(),
            references: stats.references,
            admissions: stats.admissions,
            rejections: stats.rejections,
            evictions: stats.evictions,
            shards: 1,
        }
    }
}

/// Replays `trace` against an already-constructed bare cache policy.
///
/// For every trace record the runner performs the protocol described in
/// [`watchman_core::policy`]: a `get` with the record's timestamp, and on a
/// miss an `insert` carrying the record's retrieved-set size and execution
/// cost.  Occupancy is sampled after every query for the fragmentation
/// metric.
pub fn replay_trace(
    trace: &Trace,
    cache: &mut dyn QueryCache<SizedPayload>,
    cache_fraction: f64,
) -> RunResult {
    let mut fragmentation = FragmentationTracker::new();
    for record in trace.iter() {
        let now = Timestamp::from_micros(record.timestamp_us);
        let key = QueryKey::from_raw_query(&record.query_text);
        if cache.get(&key, now).is_none() {
            // Miss: "execute" the query (its cost is already recorded in the
            // trace) and offer the retrieved set for admission.
            cache.insert(
                key,
                SizedPayload::new(record.result_bytes),
                ExecutionCost::from_blocks(record.cost_blocks),
                now,
            );
        }
        fragmentation.record(cache.used_bytes(), cache.capacity_bytes());
    }
    RunResult::from_stats(
        cache.name().to_owned(),
        cache.capacity_bytes(),
        cache_fraction,
        cache.stats(),
        &fragmentation,
    )
}

/// Replays `trace` through a concurrent [`Watchman`] engine using
/// [`Watchman::get_or_execute`] — the same protocol a live multiuser front
/// end runs, here driven by one session.
pub fn replay_trace_engine(
    trace: &Trace,
    engine: &Watchman<SizedPayload>,
    cache_fraction: f64,
) -> RunResult {
    let mut fragmentation = FragmentationTracker::new();
    for record in trace.iter() {
        let now = Timestamp::from_micros(record.timestamp_us);
        let key = QueryKey::from_raw_query(&record.query_text);
        engine.get_or_execute(&key, now, || {
            (
                SizedPayload::new(record.result_bytes),
                ExecutionCost::from_blocks(record.cost_blocks),
            )
        });
        fragmentation.record(engine.used_bytes(), engine.capacity_bytes());
    }
    engine_result(engine, cache_fraction, &fragmentation)
}

fn engine_result(
    engine: &Watchman<SizedPayload>,
    cache_fraction: f64,
    fragmentation: &FragmentationTracker,
) -> RunResult {
    let snapshot = engine.stats_snapshot();
    let mut result = RunResult::from_stats(
        engine.policy().label(),
        engine.capacity_bytes(),
        cache_fraction,
        &snapshot.total,
        fragmentation,
    );
    result.shards = snapshot.per_shard.len();
    result
}

/// Builds a [`RunResult`] from an engine [`StatsSnapshot`] — the
/// constructor remote drivers use when the engine lives in another process
/// (the server crate's wire-backed replay and load generator fetch a
/// snapshot over the `STATS` opcode and report it in the same schema the
/// in-process sweeps print).
///
/// Occupancy is not sampled per reference over the wire, so the
/// fragmentation fields are zero.
pub fn run_result_from_snapshot(
    policy: String,
    capacity_bytes: u64,
    cache_fraction: f64,
    snapshot: &StatsSnapshot,
) -> RunResult {
    RunResult {
        policy,
        capacity_bytes,
        cache_fraction,
        cost_savings_ratio: snapshot.total.cost_savings_ratio(),
        hit_ratio: snapshot.total.hit_ratio(),
        avg_used_fraction: 0.0,
        min_used_fraction: 0.0,
        references: snapshot.total.references,
        admissions: snapshot.total.admissions,
        rejections: snapshot.total.rejections,
        evictions: snapshot.total.evictions,
        shards: snapshot.per_shard.len(),
    }
}

/// Builds a one-shard engine for `kind` at `cache_fraction` of the trace's
/// database size and replays the trace through it.
pub fn run_policy(trace: &Trace, kind: PolicyKind, cache_fraction: f64) -> RunResult {
    run_policy_sharded(trace, kind, cache_fraction, 1)
}

/// Like [`run_policy`], but hash-partitions the keyspace across `shards`
/// independent policy instances of `total/N` bytes each — the configuration
/// a concurrent deployment runs.  With a single replaying session the
/// aggregate metrics measure the effect of partitioning the capacity, not
/// of contention.
pub fn run_policy_sharded(
    trace: &Trace,
    kind: PolicyKind,
    cache_fraction: f64,
    shards: usize,
) -> RunResult {
    let capacity = (trace.database_bytes as f64 * cache_fraction).round() as u64;
    let engine: Watchman<SizedPayload> = Watchman::builder()
        .shards(shards)
        .policy(kind)
        .capacity_bytes(capacity)
        .build();
    replay_trace_engine(trace, &engine, cache_fraction)
}

/// Replays the trace against an effectively infinite cache (used by the
/// Figure 2 experiment and as the "inf" line of Figures 4 and 5).
pub fn run_infinite(trace: &Trace) -> RunResult {
    let mut cache: BoxedCache = PolicyKind::LNC_RA.build(u64::MAX);
    let mut result = replay_trace(trace, cache.as_mut(), f64::INFINITY);
    result.policy = "inf".to_owned();
    // Occupancy relative to an unbounded cache is meaningless.
    result.avg_used_fraction = 0.0;
    result.min_used_fraction = 0.0;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use watchman_trace::{TraceConfig, TraceGenerator, TraceStats};
    use watchman_warehouse::tpcd;

    fn quick_trace(n: usize, seed: u64) -> Trace {
        let benchmark = tpcd::benchmark();
        TraceGenerator::new(&benchmark, TraceConfig::quick(n, seed)).generate()
    }

    #[test]
    fn infinite_cache_achieves_the_trace_upper_bounds() {
        let trace = quick_trace(1_500, 1);
        let stats = TraceStats::of(&trace);
        let result = run_infinite(&trace);
        assert!((result.hit_ratio - stats.max_hit_ratio).abs() < 1e-9);
        assert!((result.cost_savings_ratio - stats.max_cost_savings_ratio).abs() < 1e-9);
        assert_eq!(result.references, trace.len() as u64);
    }

    #[test]
    fn finite_caches_never_beat_the_infinite_cache() {
        let trace = quick_trace(1_200, 2);
        let inf = run_infinite(&trace);
        for kind in PolicyKind::paper_trio() {
            let result = run_policy(&trace, kind, 0.01);
            assert!(
                result.cost_savings_ratio <= inf.cost_savings_ratio + 1e-9,
                "{kind} beat the infinite cache"
            );
            assert!(result.hit_ratio <= inf.hit_ratio + 1e-9);
        }
    }

    #[test]
    fn lnc_ra_outperforms_lru_on_small_caches() {
        // The paper's headline result: at small cache sizes LNC-RA achieves a
        // multiple of LRU's cost savings ratio on the TPC-D trace.
        let trace = quick_trace(3_000, 3);
        let lnc = run_policy(&trace, PolicyKind::LNC_RA, 0.005);
        let lru = run_policy(&trace, PolicyKind::Lru, 0.005);
        assert!(
            lnc.cost_savings_ratio > 1.5 * lru.cost_savings_ratio,
            "LNC-RA CSR {} should clearly beat LRU CSR {}",
            lnc.cost_savings_ratio,
            lru.cost_savings_ratio
        );
    }

    #[test]
    fn results_are_deterministic() {
        let trace = quick_trace(800, 4);
        let a = run_policy(&trace, PolicyKind::LNC_RA, 0.01);
        let b = run_policy(&trace, PolicyKind::LNC_RA, 0.01);
        assert_eq!(a, b);
    }

    #[test]
    fn engine_replay_matches_bare_policy_replay() {
        // One shard, one session: the engine path must reproduce the bare
        // policy replay metric for metric.
        let trace = quick_trace(1_000, 6);
        let capacity = (trace.database_bytes as f64 * 0.01).round() as u64;
        let mut bare: BoxedCache = PolicyKind::LNC_RA.build(capacity);
        let via_policy = replay_trace(&trace, bare.as_mut(), 0.01);
        let via_engine = run_policy(&trace, PolicyKind::LNC_RA, 0.01);
        assert_eq!(via_engine.references, via_policy.references);
        assert_eq!(via_engine.admissions, via_policy.admissions);
        assert_eq!(via_engine.evictions, via_policy.evictions);
        assert!((via_engine.cost_savings_ratio - via_policy.cost_savings_ratio).abs() < 1e-12);
        assert!((via_engine.hit_ratio - via_policy.hit_ratio).abs() < 1e-12);
    }

    /// Replays `trace` through `shards` bare `kind` policies holding the
    /// engine's `total/N` split, routed by signature as the engine routes.
    fn replay_routed(
        trace: &Trace,
        kind: PolicyKind,
        capacity: u64,
        shards: usize,
    ) -> Vec<BoxedCache> {
        let (base, remainder) = (capacity / shards as u64, capacity % shards as u64);
        let mut caches: Vec<BoxedCache> = (0..shards as u64)
            .map(|i| kind.build(base + u64::from(i < remainder)))
            .collect();
        for record in trace.iter() {
            let now = Timestamp::from_micros(record.timestamp_us);
            let key = QueryKey::from_raw_query(&record.query_text);
            let mixed = key.signature().value().wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let cache = &mut caches[((mixed >> 32) as usize) % shards];
            if cache.get(&key, now).is_none() {
                cache.insert(
                    key,
                    SizedPayload::new(record.result_bytes),
                    ExecutionCost::from_blocks(record.cost_blocks),
                    now,
                );
            }
        }
        caches
    }

    #[test]
    fn sharded_replay_equals_routed_bare_policies() {
        // One session: an N-shard engine makes exactly the decisions of N
        // bare policies of total/N bytes each, counter for counter.
        let trace = quick_trace(1_500, 7);
        let capacity = (trace.database_bytes as f64 * 0.01).round() as u64;
        for kind in [PolicyKind::LNC_RA, PolicyKind::LNC_R, PolicyKind::Lru] {
            for shards in [2, 4, 8] {
                let engine: Watchman<SizedPayload> = Watchman::builder()
                    .shards(shards)
                    .policy(kind)
                    .capacity_bytes(capacity)
                    .build();
                replay_trace_engine(&trace, &engine, 0.01);
                let snapshot = engine.stats_snapshot();
                let caches = replay_routed(&trace, kind, capacity, shards);
                let bare: Vec<CacheStats> = caches.iter().map(|c| c.stats_snapshot()).collect();
                let used: Vec<u64> = caches.iter().map(|c| c.used_bytes()).collect();
                assert_eq!(snapshot.per_shard, bare, "{kind} at {shards} shards");
                assert_eq!(snapshot.per_shard_used, used, "{kind} at {shards} shards");
                assert_eq!(snapshot.total.references, trace.len() as u64);
            }
        }
    }

    #[test]
    fn run_result_counts_are_consistent() {
        let trace = quick_trace(600, 5);
        let result = run_policy(&trace, PolicyKind::Lru, 0.02);
        assert_eq!(result.references, trace.len() as u64);
        assert!(result.admissions + result.rejections <= result.references);
        assert!(result.avg_used_fraction >= result.min_used_fraction);
        assert!(result.policy == "LRU");
    }
}
