//! WATCHMAN ↔ buffer-manager cooperation (paper §3, Figure 7).
//!
//! This example wires the retrieved-set engine, the page-level buffer pool
//! and the query-reference tracker together through the engine's residency
//! observer: a [`RedundancyHintObserver`] hears admissions and demotes
//! p₀-redundant pages automatically, replacing the hand-wired hint loop the
//! Figure 7 experiment runs.
//!
//! Run with: `cargo run --release --example buffer_hints`
//!
//! The example's 600-query trace is too short for the hints to matter: the
//! 15 MB cache never evicts, so every query that read a page is still
//! cached, every page is 100% redundant, and every threshold demotes the
//! same pages.  It prints what its run measured and then the paper-scale
//! Figure 7 rows committed in `FIGURES_paper.txt`, where the thresholds
//! separate.

use std::sync::Arc;

use watchman::core::sync::Mutex;
use watchman::prelude::*;
use watchman::warehouse::synthetic;
use watchman_trace::{TraceConfig, TraceGenerator};

/// The committed `run_all` output at the paper's scale (17,000 queries).
const FIGURES_PAPER: &str = include_str!("../FIGURES_paper.txt");

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

    let plain = run_with_hints(&benchmark, &trace, None);
    println!(
        "no hints         -> buffer hit ratio {:.4}; the cache ends holding {} sets, {} evicted",
        plain.hit_ratio, plain.resident, plain.evicted
    );
    for p0 in [0.6, 0.0] {
        let run = run_with_hints(&benchmark, &trace, Some(p0));
        println!(
            "hints, p0 = {:>3.0}% -> buffer hit ratio {:.4} ({:+.4} against no hints, {} pages demoted)",
            p0 * 100.0,
            run.hit_ratio,
            run.hit_ratio - plain.hit_ratio,
            run.demotions
        );
    }
    println!("\nWith nothing evicted, every page's queries are all cached, so both thresholds");
    println!("demote the same pages. At the paper's 17,000 queries (FIGURES_paper.txt):\n");
    let figure7 = FIGURES_PAPER
        .split("\n\n")
        .find(|block| block.starts_with("== Figure 7"))
        .expect("FIGURES_paper.txt holds Figure 7");
    println!("{figure7}");
}

/// What one replay of the trace measured.
struct Run {
    hit_ratio: f64,
    demotions: u64,
    resident: usize,
    evicted: u64,
}

/// Replays the trace once: the buffer hit ratio, the pages the observer's
/// hints demoted, and what the cache ends holding and evicted.
fn run_with_hints(benchmark: &Benchmark, trace: &Trace, p0: Option<f64>) -> Run {
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
        // A hit is answered from the retrieved-set cache with no page I/O.
        // A miss runs the query against the warehouse, touching its pages;
        // offering the set for admission then triggers the observer: if
        // admitted, the now-redundant pages are demoted in the pool.
        cache.get_or_execute(&key, now, || {
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
            (
                SizedPayload::new(record.result_bytes),
                ExecutionCost::from_blocks(record.cost_blocks),
            )
        });
    }
    let stats = cache.stats_snapshot();
    let pool = pool.lock();
    Run {
        hit_ratio: pool.stats().hit_ratio(),
        demotions: pool.stats().demotions,
        resident: stats.entries,
        evicted: stats.total.evictions,
    }
}
