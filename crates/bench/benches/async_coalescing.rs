//! Blocking vs async single-flight coalescing under contention.
//!
//! N sessions miss on the same query at once; one leads, the rest coalesce
//! onto its flight while the fetch "executes" (sleeps a few milliseconds,
//! standing in for a multi-second warehouse scan).  The same storm is run
//! two ways:
//!
//! * **blocking** — N OS threads call the synchronous
//!   `Watchman::get_or_execute`: every waiter parks a whole thread (plus the
//!   cost of creating it) for the duration of the leader's fetch;
//! * **async** — N tasks on a fixed 2-worker runtime await
//!   `Watchman::try_get_or_execute_async`: waiters suspend as registered wakers,
//!   and the thread count stays at the pool size no matter how many
//!   sessions pile up.
//!
//! The wall-clock of one storm is dominated by the fetch itself in both
//! modes (coalescing works either way); what the comparison shows is the
//! *overhead around it* — thread creation and scheduling for the blocking
//! mode versus task spawning for the async mode — which is exactly the cost
//! that grows with the session count in a real front end.  Run with
//! `--quick` for a CI-sized smoke pass.

use std::time::{Duration, Instant};

use watchman_core::engine::{PolicyKind, Watchman};
use watchman_core::prelude::*;
use watchman_core::runtime::block_on;

const FETCH_MILLIS: u64 = 3;

fn fresh_engine() -> Watchman<SizedPayload> {
    Watchman::builder()
        .shards(4)
        .policy(PolicyKind::LncRa { k: 4 })
        .capacity_bytes(64 << 20)
        .runtime_workers(2)
        .build()
}

/// One storm via the synchronous front door: N OS threads, one per session.
fn blocking_storm(engine: &Watchman<SizedPayload>, sessions: usize, round: u64) -> Duration {
    let key = QueryKey::new(format!("blocking-storm-{round}"));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for session in 0..sessions {
            let engine = engine.clone();
            let key = key.clone();
            scope.spawn(move || {
                engine.get_or_execute(
                    &key,
                    Timestamp::from_micros(round * 1_000 + session as u64 + 1),
                    || {
                        std::thread::sleep(Duration::from_millis(FETCH_MILLIS));
                        (SizedPayload::new(1_024), ExecutionCost::from_blocks(50_000))
                    },
                );
            });
        }
    });
    start.elapsed()
}

/// One storm via the asynchronous front door: N tasks on the 2-worker pool.
fn async_storm(engine: &Watchman<SizedPayload>, sessions: usize, round: u64) -> Duration {
    let runtime = engine.runtime();
    let key = QueryKey::new(format!("async-storm-{round}"));
    let start = Instant::now();
    let handles: Vec<_> = (0..sessions)
        .map(|session| {
            let engine = engine.clone();
            let key = key.clone();
            runtime.spawn(async move {
                engine
                    .try_get_or_execute_async(
                        &key,
                        Timestamp::from_micros(round * 1_000 + session as u64 + 1),
                        || {
                            std::thread::sleep(Duration::from_millis(FETCH_MILLIS));
                            Ok((SizedPayload::new(1_024), ExecutionCost::from_blocks(50_000)))
                        },
                    )
                    .await
                    .expect("fetch never fails");
            })
        })
        .collect();
    for handle in handles {
        block_on(handle).expect("session task completed");
    }
    start.elapsed()
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let rounds: u64 = if quick { 5 } else { 25 };
    println!(
        "async_coalescing: {rounds} rounds per cell, fetch {FETCH_MILLIS} ms, \
         2-worker runtime vs one OS thread per session\n"
    );
    println!(
        "{:>10} {:>16} {:>16} {:>14}",
        "sessions", "blocking/storm", "async/storm", "overhead ratio"
    );
    for sessions in [8usize, 64, 256] {
        if quick && sessions > 64 {
            continue;
        }
        let blocking_engine = fresh_engine();
        let async_engine = fresh_engine();
        // Warm both paths once (runtime creation, allocator warm-up).
        blocking_storm(&blocking_engine, sessions, 1_000_000);
        async_storm(&async_engine, sessions, 1_000_000);

        let blocking = median(
            (0..rounds)
                .map(|round| blocking_storm(&blocking_engine, sessions, round))
                .collect(),
        );
        let asynchronous = median(
            (0..rounds)
                .map(|round| async_storm(&async_engine, sessions, round))
                .collect(),
        );
        // Overhead = storm wall-clock minus the irreducible fetch.
        let fetch = Duration::from_millis(FETCH_MILLIS);
        let blocking_overhead = blocking.saturating_sub(fetch);
        let async_overhead = asynchronous.saturating_sub(fetch);
        let ratio = if async_overhead.as_nanos() == 0 {
            f64::INFINITY
        } else {
            blocking_overhead.as_nanos() as f64 / async_overhead.as_nanos() as f64
        };
        println!(
            "{:>10} {:>14.2?} {:>14.2?} {:>13.2}x",
            sessions, blocking, asynchronous, ratio
        );

        // Sanity: coalescing actually happened on both paths.
        let snapshot = async_engine.stats_snapshot();
        assert!(
            snapshot.total.coalesced > 0,
            "async storms must coalesce waiters"
        );
        let snapshot = blocking_engine.stats_snapshot();
        assert!(
            snapshot.total.coalesced > 0,
            "blocking storms must coalesce waiters"
        );
    }
    println!("\ndone");
}
