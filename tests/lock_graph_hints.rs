//! Lock-order graph assertions over the buffer-hint observer.
//!
//! Only built under `--features lock-graph` (see `crates/core/src/sync.rs`).
//! A [`RedundancyHintObserver`] runs inside the engine's shard lock: on an
//! admission it takes its own `.state` lock, drops it, and only then takes
//! the buffer pool's lock to demote pages; on a removal it takes `.state`
//! alone.  CONCURRENCY.md draws both as leaves under shard `.state`.  This
//! suite drives admissions, hints and evictions and asserts exactly that
//! shape: shard → hint `.state`, shard → pool, and nothing acquired while
//! either is held.

#![cfg(feature = "lock-graph")]

use std::sync::Arc;

use watchman::core::sync::{lock_graph, Mutex};
use watchman::prelude::*;
use watchman::warehouse::{PageId, RelationId};

#[test]
fn hint_state_and_buffer_pool_stay_leaves_under_the_shard_lock() {
    let pool = Arc::new(Mutex::new(BufferPool::new(64)));
    // Every query reads the same eight pages, so once one is cached they
    // are all redundant at p0 = 50%.
    let pages: Vec<PageId> = (0..8)
        .map(|page| PageId::new(RelationId(0), page))
        .collect();
    let observer = {
        let pages = pages.clone();
        Arc::new(RedundancyHintObserver::new(
            Arc::clone(&pool),
            0.5,
            move |_key: &QueryKey| pages.clone(),
        ))
    };
    // Room for four results: later admissions evict, so `removed` runs too.
    let engine: Watchman<SizedPayload> = Watchman::builder()
        .shards(2)
        .policy(PolicyKind::Lru)
        .capacity_bytes(4_000)
        .observer(observer.clone())
        .build();

    for query in 0..16u64 {
        let key = QueryKey::new(format!("SELECT * FROM r0 WHERE q = {query}"));
        let now = Timestamp::from_micros(query + 1);
        let lookup = engine.get_or_execute(&key, now, || {
            {
                let mut pool = pool.lock();
                for &page in &pages {
                    pool.access(page);
                }
            }
            observer.record_access(&pages, key.signature());
            (SizedPayload::new(900), ExecutionCost::from_blocks(8))
        });
        assert_eq!(lookup.source, LookupSource::Executed);
    }
    assert!(pool.lock().stats().demotions > 0, "the hints demoted pages");
    assert!(
        engine.stats_snapshot().total.evictions > 0,
        "the cache evicted"
    );

    let report = lock_graph::report();
    let shard = |label: &str| label.contains("engine/watchman.rs");
    let hint = |label: &str| label.contains("buffer/src/hints.rs");
    let pool_class = |label: &str| label.contains("tests/lock_graph_hints.rs");
    for (name, target) in [
        ("hint .state", &hint as &dyn Fn(&str) -> bool),
        ("buffer pool", &pool_class),
    ] {
        assert!(
            report
                .edges
                .iter()
                .any(|edge| shard(&edge.from) && target(&edge.to)),
            "no shard .state -> {name} edge was recorded\n{}",
            report.describe()
        );
        assert!(
            report.edges.iter().all(|edge| !target(&edge.from)),
            "a lock was acquired while the {name} lock was held\n{}",
            report.describe()
        );
    }
    lock_graph::assert_clean();
}
