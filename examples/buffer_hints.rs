//! WATCHMAN ↔ buffer-manager cooperation (paper §3, Figure 7).
//!
//! This example wires the retrieved-set engine, the page-level buffer pool
//! and the query-reference tracker together through the engine's residency
//! observer: a [`RedundancyHintObserver`] hears admissions and demotes
//! p₀-redundant pages automatically, replacing the hand-wired hint loop the
//! Figure 7 experiment runs.
//!
//! Run with: `cargo run --release --example buffer_hints`

use std::sync::Arc;

use watchman::core::sync::Mutex;
use watchman::prelude::*;
use watchman::warehouse::synthetic;
use watchman_trace::{TraceConfig, TraceGenerator};

fn main() {
    // The 14-relation, 100 MB warehouse of the paper's buffer experiment,
    // with a shortened trace so the example finishes in seconds.
    let benchmark = synthetic::benchmark();
    let trace = TraceGenerator::new(&benchmark, TraceConfig::quick(600, 7)).generate();

    println!(
        "database: {} relations, {:.0} MB",
        benchmark.catalog().relation_count(),
        benchmark.catalog().total_bytes() as f64 / (1024.0 * 1024.0)
    );
    println!("trace   : {} queries\n", trace.len());

    for p0 in [None, Some(0.6), Some(0.0)] {
        let (hit_ratio, demotions) = run_with_hints(&benchmark, &trace, p0);
        match p0 {
            None => println!("no hints        -> buffer hit ratio {hit_ratio:.3}"),
            Some(t) => println!(
                "hints, p0 = {:>3.0}% -> buffer hit ratio {hit_ratio:.3} ({demotions} pages demoted)",
                t * 100.0
            ),
        }
    }
    println!("\nModerate thresholds free buffer space held by pages whose queries are");
    println!("already answered from the WATCHMAN cache; p0 = 0% demotes everything and");
    println!("degenerates the buffer's LRU into MRU.");
}

/// Replays the trace once, returning the buffer hit ratio and the number of
/// pages the observer's hints demoted.
fn run_with_hints(benchmark: &Benchmark, trace: &Trace, p0: Option<f64>) -> (f64, u64) {
    let pool = Arc::new(Mutex::new(BufferPool::with_capacity_bytes(
        15 * 1024 * 1024,
    )));

    // The observer resolves an admitted query's page accesses from the
    // benchmark's access model, looking the query up by its cache key.  With
    // hints disabled (`p0 == None`) no observer is subscribed at all and the
    // pool runs plain LRU.
    let observer = p0.map(|threshold| {
        let benchmark = benchmark.clone();
        let instances: std::collections::HashMap<QueryKey, QueryInstance> = trace
            .iter()
            .map(|record| {
                (
                    QueryKey::from_raw_query(&record.query_text),
                    record.instance,
                )
            })
            .collect();
        Arc::new(RedundancyHintObserver::new(
            Arc::clone(&pool),
            threshold,
            move |key: &QueryKey| {
                instances
                    .get(key)
                    .map(|&instance| benchmark.page_accesses(instance))
                    .unwrap_or_default()
            },
        ))
    });

    let mut builder = Watchman::builder()
        .policy(PolicyKind::LncRa { k: 4 })
        .capacity_bytes(15 * 1024 * 1024);
    if let Some(observer) = &observer {
        builder = builder.observer(observer.clone());
    }
    let cache: Watchman<SizedPayload> = builder.build();

    for record in trace.iter() {
        let now = Timestamp::from_micros(record.timestamp_us);
        let key = QueryKey::from_raw_query(&record.query_text);
        if cache.get(&key, now).is_some() {
            continue; // answered from the retrieved-set cache: no page I/O
        }
        // Miss: the query runs against the warehouse and touches its pages.
        let pages = benchmark.page_accesses(record.instance);
        {
            let mut pool = pool.lock();
            for &page in &pages {
                pool.access(page);
            }
        }
        if let Some(observer) = &observer {
            observer.record_access(&pages, key.signature());
        }

        // Offering the set for admission triggers the observer: if admitted,
        // the now-redundant pages are demoted in the pool automatically.
        cache.insert(
            key,
            SizedPayload::new(record.result_bytes),
            ExecutionCost::from_blocks(record.cost_blocks),
            now,
        );
    }
    let pool = pool.lock();
    (pool.stats().hit_ratio(), pool.stats().demotions)
}
