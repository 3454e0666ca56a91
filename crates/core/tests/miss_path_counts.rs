//! Allocations on the engine's lookup paths, counted by this binary's own
//! global allocator.
//!
//! An uncontended executed miss through the synchronous door allocates the
//! value's `Arc` and nothing else of its own: its flight gets no cell
//! unless a waiter joins.  What the policy allocates for the same decisions
//! is counted apart, by replaying the misses on a standalone LNC-RA cache:
//! a set's reference history lives inline in its entry, so what is left is
//! the victim orders' B-tree nodes and eviction lists, well under one per
//! miss.  A hit allocates nothing.  The counts are taken on a warmed
//! engine, so structures that grow geometrically are amortized away.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use watchman_core::clock::Timestamp;
use watchman_core::engine::{LookupSource, PolicyKind, Watchman};
use watchman_core::key::QueryKey;
use watchman_core::value::{ExecutionCost, SizedPayload};

/// Counts the allocations made on threads that switched counting on.
struct CountingAllocator;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
    }
}

// SAFETY: every call forwards to `System` unchanged; the counting touches
// only const-initialized thread locals, which never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The allocations `run` makes on this thread.
fn allocations(run: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|counting| counting.set(true));
    run();
    COUNTING.with(|counting| counting.set(false));
    ALLOCATIONS.with(Cell::get) - before
}

const WARM_UP_MISSES: u64 = 20_000;
const COUNTED: u64 = 1_000;
const CAPACITY_BYTES: u64 = 64 << 10;
const POLICY: PolicyKind = PolicyKind::LncRa { k: 4 };

fn key(i: u64) -> QueryKey {
    QueryKey::new(format!("SELECT revenue FROM orders WHERE id = {i}"))
}

fn now(i: u64) -> Timestamp {
    Timestamp::from_micros(10 * i)
}

/// The `i`-th miss's fetch result: sizes and costs vary so that LNC-RA
/// both admits (evicting) and rejects.
fn fetched(i: u64) -> (SizedPayload, ExecutionCost) {
    (
        SizedPayload::new(512 + (i * 7_919) % 3_584),
        ExecutionCost::from_blocks(100 + (i * 104_729) % 9_900),
    )
}

fn miss(engine: &Watchman<SizedPayload>, key: &QueryKey, i: u64) {
    let lookup = engine.get_or_execute(key, now(i), || fetched(i));
    assert_eq!(lookup.source, LookupSource::Executed);
}

#[test]
fn an_uncontended_miss_allocates_only_its_value_and_a_hit_nothing() {
    // One shard, so the engine's policy sees exactly the replay's sequence.
    let engine: Watchman<SizedPayload> = Watchman::builder()
        .shards(1)
        .policy(POLICY)
        .capacity_bytes(CAPACITY_BYTES)
        .build();
    let mut policy = POLICY.build::<Arc<SizedPayload>>(CAPACITY_BYTES);
    for i in 0..WARM_UP_MISSES {
        let key = key(i);
        miss(&engine, &key, i);
        assert!(policy.get(&key, now(i)).is_none());
        let (value, cost) = fetched(i);
        policy.insert(key, Arc::new(value), cost, now(i));
    }
    let counted = WARM_UP_MISSES..WARM_UP_MISSES + COUNTED;
    let keys: Vec<QueryKey> = counted.clone().map(key).collect();
    let values: Vec<Arc<SizedPayload>> = counted.clone().map(|i| Arc::new(fetched(i).0)).collect();

    let engine_allocations = allocations(|| {
        for (i, key) in counted.clone().zip(&keys) {
            miss(&engine, key, i);
        }
    });
    let policy_allocations = allocations(|| {
        for ((i, key), value) in counted.clone().zip(&keys).zip(values) {
            assert!(policy.get(key, now(i)).is_none());
            policy.insert(key.clone(), value, fetched(i).1, now(i));
        }
    });
    let stats = engine.stats_snapshot().total;
    assert_eq!(stats, policy.stats_snapshot(), "the replay decided alike");
    assert!(
        stats.admissions > 0 && stats.rejections > 0 && stats.evictions > 0,
        "the misses must admit, reject and evict: {stats:?}"
    );
    println!(
        "per uncontended executed miss: {:.3} allocations, {:.3} of them the policy's",
        engine_allocations as f64 / COUNTED as f64,
        policy_allocations as f64 / COUNTED as f64
    );
    assert_eq!(
        engine_allocations - policy_allocations,
        COUNTED,
        "the engine's own share of a miss is its value's Arc"
    );
    assert!(
        policy_allocations < COUNTED / 2,
        "the policy allocated {policy_allocations} times for {COUNTED} misses: \
         a per-set history block alone would be one each"
    );

    let resident = engine.cached_keys();
    assert!(!resident.is_empty());
    let later = now(WARM_UP_MISSES + COUNTED);
    let hits = allocations(|| {
        for (round, key) in resident.iter().cycle().take(COUNTED as usize).enumerate() {
            let lookup = engine.get_or_execute(key, later.advanced_by(round as u64), || {
                unreachable!("a resident key hits")
            });
            assert_eq!(lookup.source, LookupSource::Hit);
        }
    });
    assert_eq!(hits, 0, "{COUNTED} hits allocated {hits} times");
}
