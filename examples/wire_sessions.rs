//! The cache as a network service: a `watchmand` server on loopback, three
//! analyst sessions as real TCP clients.
//!
//! Demonstrates the full wire surface:
//!
//! * concurrent clients missing on the same query **coalesce across
//!   connections** — the warehouse executes it once;
//! * a pipelined `get_many` batch pays one round trip;
//! * admin opcodes: a non-perturbing `PEEK`, a `STATS` snapshot, an
//!   `INVALIDATE` after a warehouse update, and a draining `SHUTDOWN`.
//!
//! Run with `--quick` (CI) for a smaller session count.

use std::sync::{Arc, Barrier};

use watchman::prelude::*;
use watchman::server::wire::WireSource;
use watchman::server::{serve, Client, GetRequest, ServerConfig};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sessions = if quick { 3 } else { 8 };

    // An in-process watchmand on an ephemeral loopback port — exactly what
    // the standalone binary runs.
    let server = serve(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards: 4,
        policy: PolicyKind::LncRa { k: 4 },
        capacity_bytes: 8 << 20,
        runtime_workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();
    println!("watchmand listening on {addr}");

    // --- Storm: every session asks for the same expensive report at once.
    let report = "SELECT l_returnflag, sum(l_extendedprice) FROM lineitem GROUP BY l_returnflag";
    let barrier = Arc::new(Barrier::new(sessions));
    std::thread::scope(|scope| {
        for session in 0..sessions {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("session connects");
                barrier.wait();
                let response = client
                    .get(GetRequest {
                        key: report.to_owned(),
                        timestamp_us: 1_000 + session as u64,
                        result_bytes: 4_096,
                        cost_blocks: 48_000,
                        fetch_delay_us: 2_000, // a 2 ms stand-in for the scan
                        deadline_hint_us: 0,
                        payload_prefix_cap: 8,
                    })
                    .expect("storm get");
                println!(
                    "  session {session}: {} ({} bytes, {} us)",
                    response.source, response.full_len, response.service_us
                );
            });
        }
    });

    let mut admin = Client::connect(addr).expect("admin connects");
    let snapshot = admin.stats().expect("stats");
    println!(
        "storm: {} references = {} hits + {} coalesced + {} misses (executed once)",
        snapshot.total.references,
        snapshot.total.hits,
        snapshot.total.coalesced,
        snapshot.total.misses()
    );
    assert_eq!(
        snapshot.total.misses(),
        1,
        "the report executed exactly once"
    );

    // --- Pipelining: a drill-down batch in one round trip.
    let batch: Vec<GetRequest> = (0..6)
        .map(|week| {
            GetRequest::metrics_only(
                format!("SELECT count(*) FROM orders WHERE o_week = {week}"),
                10_000 + week,
                512,
                6_000,
            )
        })
        .collect();
    let responses = admin.get_many(batch).expect("pipelined batch");
    let executed = responses
        .iter()
        .filter(|r| r.source == WireSource::Executed)
        .count();
    println!(
        "pipelined drill-down: {} queries, {executed} executed, one round trip",
        responses.len()
    );

    // --- Admin path: peek never perturbs, invalidation follows an update.
    let before = admin.stats().expect("stats");
    assert!(admin.peek(report).expect("peek").is_some());
    assert_eq!(
        before,
        admin.stats().expect("stats"),
        "peek is non-perturbing"
    );
    let (affected, invalidated) = admin
        .invalidate_relation("LINEITEM")
        .expect("invalidate after a warehouse update");
    println!("update on LINEITEM: {affected} dependent sets, {invalidated} invalidated");
    assert!(admin.peek(report).expect("peek").is_none());

    // --- Drain.
    admin.shutdown_server().expect("shutdown");
    server.wait();
    println!("server drained, done");
}
