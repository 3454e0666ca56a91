//! Quickstart: cache warehouse query results behind the Watchman engine.
//!
//! This example plays the role of a tiny warehouse front end.  It executes
//! queries from the synthetic TPC-D benchmark through the
//! [`watchman::warehouse::QueryExecutor`], caches the retrieved sets in an
//! LNC-RA [`Watchman`] engine, and prints what the cache decided and what it
//! saved.
//!
//! Run with: `cargo run --release --example quickstart`

use watchman::prelude::*;
use watchman::warehouse::tpcd;

fn main() {
    // The synthetic 30 MB TPC-D warehouse and its executor.
    let benchmark = tpcd::benchmark();
    let executor = QueryExecutor::new(&benchmark);

    // A 1 MB LNC-RA engine (the paper's configuration: K = 4, admission
    // control and retained reference information enabled). One shard is
    // plenty for a single session; a multiuser front end would raise
    // `.shards(..)` and clone the handle into every session thread.
    let cache: Watchman<RetrievedSet> = Watchman::builder()
        .policy(PolicyKind::LncRa { k: 4 })
        .capacity_bytes(1 << 20)
        .build();
    let clock = ManualClock::new();

    // A small interactive session: the analyst keeps coming back to the
    // same two summary queries while occasionally drilling down.
    let session: Vec<QueryInstance> = vec![
        QueryInstance::new(TemplateId(0), 30), // Q1, pricing summary
        QueryInstance::new(TemplateId(5), 7),  // Q6, revenue forecast
        QueryInstance::new(TemplateId(0), 30), // Q1 again — should hit
        QueryInstance::new(TemplateId(12), 987_654_321), // Q13 drill-down, never repeated
        QueryInstance::new(TemplateId(5), 7),  // Q6 again — should hit
        QueryInstance::new(TemplateId(0), 30), // Q1 again — should hit
    ];

    for instance in session {
        let now = clock.advance(1_000_000); // one second between queries
        let key = executor.query_key(instance);
        let lookup = cache.get_or_execute(&key, now, || {
            let executed = executor.execute(instance);
            (executed.retrieved_set, executed.cost)
        });
        match lookup.source {
            LookupSource::Hit => println!(
                "HIT   {:<60} -> {} rows served from cache",
                truncate(&key.to_string(), 60),
                lookup.value.len()
            ),
            LookupSource::Coalesced => println!(
                "WAIT  {:<60} -> joined another session's execution",
                truncate(&key.to_string(), 60),
            ),
            LookupSource::Executed => println!(
                "MISS  {:<60} -> executed ({} rows), {}",
                truncate(&key.to_string(), 60),
                lookup.value.len(),
                lookup
                    .outcome
                    .map(|outcome| outcome.to_string())
                    .unwrap_or_default()
            ),
            // The infallible path never degrades to stale.
            LookupSource::Stale => unreachable!("stale needs the fallible path"),
        }
    }

    let stats = cache.stats_snapshot().total;
    println!();
    println!("references          : {}", stats.references);
    println!("hits                : {}", stats.hits);
    println!("hit ratio           : {:.2}", stats.hit_ratio());
    println!("cost savings ratio  : {:.2}", stats.cost_savings_ratio());
    println!("block reads saved   : {:.0}", stats.saved_cost);
    println!(
        "cache occupancy     : {} / {} bytes",
        cache.used_bytes(),
        cache.capacity_bytes()
    );
}

fn truncate(text: &str, limit: usize) -> String {
    if text.len() <= limit {
        text.to_owned()
    } else {
        format!("{}…", &text[..limit.saturating_sub(1)])
    }
}
