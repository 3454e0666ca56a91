//! Async sessions: many suspended analysts, few threads.
//!
//! WATCHMAN's premise is that warehouse queries take seconds, so a cache
//! manager must never serialize sessions behind one another's executions
//! (paper §3).  This example plays a busy morning at a warehouse front end:
//! a crowd of analyst sessions — far more sessions than the runtime has
//! worker threads — issue overlapping report queries through
//! [`Watchman::try_get_or_execute_async`].  Sessions that miss on a query
//! already in flight *suspend* (a registered waker, not a parked thread)
//! and share the leader's result when it lands; the engine's thread count
//! stays at the worker-pool size throughout.
//!
//! Run with: `cargo run --release --example async_sessions [-- --quick]`

use std::sync::Arc;
use watchman::prelude::*;
use watchman::warehouse::tpcd;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sessions: usize = if quick { 8 } else { 24 };
    let queries_per_session: u64 = if quick { 40 } else { 120 };

    // The synthetic TPC-D warehouse; every fetch below "executes" against it.
    let benchmark = tpcd::benchmark();

    // An 8-shard LNC-RA engine whose runtime has only 2 workers: at most two
    // warehouse queries execute at once (a multiprogramming level of 2), yet
    // dozens of sessions make progress because waiters suspend.
    let engine: Watchman<SizedPayload> = Watchman::builder()
        .shards(8)
        .policy(PolicyKind::LncRa { k: 4 })
        .capacity_bytes(4 << 20)
        .runtime_workers(2)
        .build();
    let runtime = engine.runtime();
    let clock = Arc::new(ManualClock::new());

    println!(
        "{sessions} analyst sessions × {queries_per_session} queries on a \
         {}-worker runtime\n",
        runtime.worker_count()
    );

    let handles: Vec<_> = (0..sessions)
        .map(|session| {
            let engine = engine.clone();
            let clock = Arc::clone(&clock);
            let benchmark = benchmark.clone();
            runtime.spawn(async move {
                let executor = QueryExecutor::new(&benchmark);
                let mut sources = [0u64; 3]; // hit, executed, coalesced
                for i in 0..queries_per_session {
                    // Analysts cluster on the same few drill-down reports,
                    // two sessions per sequence: lots of overlap between
                    // sessions → hits + coalescing.
                    let template = (session as u64 / 2 + i) % 9;
                    let instance = QueryInstance::new(TemplateId(template as u16), i % 7);
                    let key = executor.query_key(instance);
                    let now = clock.advance(1_000);
                    let fetch_benchmark = benchmark.clone();
                    let lookup = engine
                        .try_get_or_execute_async(&key, now, move || {
                            let executor = QueryExecutor::new(&fetch_benchmark);
                            let result = executor.execute(instance);
                            // The scan's latency: the leader holds its worker
                            // this long while later sessions coalesce.
                            std::thread::sleep(std::time::Duration::from_millis(1));
                            Ok((SizedPayload::new(result.declared_result_bytes), result.cost))
                        })
                        .await
                        .expect("the synthetic warehouse never fails");
                    match lookup.source {
                        LookupSource::Hit => sources[0] += 1,
                        LookupSource::Executed => sources[1] += 1,
                        LookupSource::Coalesced => sources[2] += 1,
                        // A fetch that never fails never degrades to stale.
                        LookupSource::Stale => unreachable!("stale needs a failed fetch"),
                    }
                }
                sources
            })
        })
        .collect();

    let mut totals = [0u64; 3];
    for handle in handles {
        let sources = block_on(handle).expect("session completed");
        for (total, count) in totals.iter_mut().zip(sources) {
            *total += count;
        }
    }

    let snapshot = engine.stats_snapshot();
    println!("per-session outcomes summed across sessions:");
    println!("  hits       {:>8}", totals[0]);
    println!("  executed   {:>8}", totals[1]);
    println!(
        "  coalesced  {:>8}  (suspended on another session's flight)",
        totals[2]
    );
    println!();
    println!(
        "engine: {} references = {} hits + {} coalesced + {} misses",
        snapshot.total.references,
        snapshot.total.hits,
        snapshot.total.coalesced,
        snapshot.total.misses()
    );
    println!(
        "cost savings ratio {:.3}, hit ratio {:.3}, {} sets cached ({} KB)",
        snapshot.cost_savings_ratio(),
        snapshot.hit_ratio(),
        snapshot.entries,
        snapshot.used_bytes / 1024,
    );
    assert_eq!(
        snapshot.total.references,
        (sessions as u64) * queries_per_session,
        "every lookup recorded exactly one reference"
    );
}
