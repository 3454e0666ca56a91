//! Lock-order graph assertion over the full wire stack.
//!
//! Compiled only under `--features lock-graph`: drives a real loopback
//! server — accept loop, session threads, engine shards, single-flight
//! coalescing, snapshots — then asserts the global lock-order graph is
//! acyclic and free of same-class nesting.  This is the networked
//! counterpart of `crates/core/tests/lock_graph.rs`: the server adds its
//! own lock classes (session registry, shutdown plumbing) on top of the
//! engine's, and a cycle between the two layers would only ever show up
//! here.

#![cfg(feature = "lock-graph")]

use std::sync::{Arc, Barrier};

use watchman_core::engine::PolicyKind;
use watchman_core::sync::lock_graph;
use watchman_server::{serve, Client, GetRequest, ServerConfig};

#[test]
fn wire_stack_keeps_the_lock_graph_acyclic() {
    const CLIENTS: usize = 6;
    const OPS: usize = 60;

    let server = serve(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards: 4,
        policy: PolicyKind::LNC_RA,
        capacity_bytes: 4 << 20,
        runtime_workers: 4,
        ..ServerConfig::default()
    })
    .expect("server binds on loopback");
    let addr = server.addr().to_string();
    let barrier = Arc::new(Barrier::new(CLIENTS));

    std::thread::scope(|scope| {
        for client_index in 0..CLIENTS {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                barrier.wait();
                for i in 0..OPS {
                    // Overlapping hot keys (cross-connection coalescing)
                    // plus a per-client tail (admissions and evictions).
                    let key = if i % 3 == 0 {
                        format!("SELECT tail FROM c{client_index} WHERE i = {i}")
                    } else {
                        format!("SELECT hot FROM shared WHERE g = {}", i % 7)
                    };
                    let response = client
                        .get(GetRequest {
                            key,
                            timestamp_us: (i as u64 + 1) * 500,
                            result_bytes: 40_000,
                            cost_blocks: 200,
                            fetch_delay_us: if i % 9 == 0 { 800 } else { 0 },
                            deadline_hint_us: 0,
                            payload_prefix_cap: 8,
                        })
                        .expect("wire get");
                    assert_eq!(response.full_len, 40_000);
                    if i % 20 == 19 {
                        client.stats().expect("wire stats");
                    }
                }
            });
        }
    });
    drop(server); // joins the accept loop and session threads

    let report = lock_graph::report();
    assert!(
        !report.edges.is_empty(),
        "no lock-order edges recorded — is the instrumentation compiled in?"
    );
    assert!(
        report.same_class_nestings.is_empty(),
        "a thread held two locks of one class:\n{}",
        report.describe()
    );
    lock_graph::assert_clean();
}
