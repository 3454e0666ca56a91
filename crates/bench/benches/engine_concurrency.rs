//! Multi-threaded get-heavy benchmark: the sharded engine against a 1-shard
//! configuration (one big mutex — what the long-removed `SharedCache`
//! wrapper used to be).
//!
//! Each measurement spawns `THREADS` sessions that hammer a pre-warmed
//! engine with lookups (all hits after warm-up — the contention-bound
//! regime).  A 1-shard engine serializes every session behind one lock; an
//! 8-shard engine lets sessions touching different shards acquire their
//! locks in parallel.
//!
//! Interpreting the numbers: the sharding win is a *parallelism* win, so it
//! scales with physical cores.  On a single-core host (such as the CI
//! container this was developed in) the scheduler interleaves sessions and
//! lock acquisitions are rarely contended, so the two configurations measure
//! within noise of each other; on an N-core host the 1-shard engine caps
//! get-throughput at one core's worth while the sharded engine approaches
//! N-fold scaling.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use watchman_core::engine::{LookupSource, PolicyKind, Watchman};
use watchman_core::prelude::*;

const THREADS: usize = 8;
const KEYS: usize = 512;
const OPS_PER_THREAD_PER_ITER: usize = 200;

fn warmed_engine(shards: usize) -> Watchman<SizedPayload> {
    let engine: Watchman<SizedPayload> = Watchman::builder()
        .shards(shards)
        .policy(PolicyKind::LncRa { k: 4 })
        .capacity_bytes(256 << 20)
        .build();
    for i in 0..KEYS {
        let key = QueryKey::new(format!("warm-query-{i}"));
        engine.get_or_execute(&key, Timestamp::from_micros(i as u64 + 1), || {
            (SizedPayload::new(512), ExecutionCost::from_blocks(1_000))
        });
    }
    engine
}

/// Runs `iters` rounds of the threaded get-heavy workload.  Each round is
/// timed as the duration of its slowest session (the completion time of the
/// round); timing inside the worker threads keeps the coordinator's own
/// scheduling delays out of the measurement, which matters on few-core boxes.
fn run_threaded(engine: &Watchman<SizedPayload>, iters: u64) -> Duration {
    let keys: Arc<Vec<QueryKey>> = Arc::new(
        (0..KEYS)
            .map(|i| QueryKey::new(format!("warm-query-{i}")))
            .collect(),
    );
    let tick = AtomicU64::new(1_000_000);
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        let barrier = Barrier::new(THREADS);
        let round = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|thread| {
                    let engine = engine.clone();
                    let keys = Arc::clone(&keys);
                    let barrier = &barrier;
                    let tick = &tick;
                    scope.spawn(move || {
                        barrier.wait(); // start together
                        let start = Instant::now();
                        for i in 0..OPS_PER_THREAD_PER_ITER {
                            let key = &keys[(i * 7 + thread * 61) % KEYS];
                            let now = Timestamp::from_micros(tick.fetch_add(1, Ordering::Relaxed));
                            let lookup =
                                engine.get_or_execute(key, now, || unreachable!("warmed key"));
                            assert_eq!(lookup.source, LookupSource::Hit, "warmed key must hit");
                        }
                        start.elapsed()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("session thread panicked"))
                .max()
                .unwrap_or(Duration::ZERO)
        });
        total += round;
    }
    total
}

fn bench_sharded_vs_single_mutex(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_concurrency");
    group.sample_size(12);

    let mut medians: Vec<(usize, f64)> = Vec::new();
    for shards in [1, 8] {
        let engine = warmed_engine(shards);
        // A pre-measurement probe (median of several rounds) for the summary
        // line printed after the sweep.
        let probe_rounds = 15;
        let mut rounds: Vec<Duration> = (0..probe_rounds)
            .map(|_| run_threaded(&engine, 1))
            .collect();
        rounds.sort();
        let per_op =
            rounds[probe_rounds / 2].as_nanos() as f64 / (THREADS * OPS_PER_THREAD_PER_ITER) as f64;
        medians.push((shards, per_op));

        group.bench_function(format!("{THREADS}threads_get_hit/{shards}shard"), |b| {
            b.iter_custom(|iters| run_threaded(&engine, iters))
        });
    }
    group.finish();

    if let [(_, single), (_, sharded)] = medians[..] {
        println!(
            "\n{THREADS}-thread get-heavy: 1 shard {:.0} ns/op, 8 shards {:.0} ns/op ({:.2}x)",
            single,
            sharded,
            single / sharded
        );
    }
}

criterion_group!(benches, bench_sharded_vs_single_mutex);
criterion_main!(benches);
