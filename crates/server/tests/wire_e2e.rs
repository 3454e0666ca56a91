//! End-to-end tests of the networked front end over loopback.
//!
//! The acceptance proofs of the server subsystem live here:
//!
//! * a multi-client **storm** showing cross-connection miss coalescing with
//!   exactly-once execution per missed key;
//! * the **wire-backed deterministic replay** whose final `StatsSnapshot`
//!   is byte-identical to the in-process replay of the same trace;
//! * **failure isolation**: malformed and truncated frames fail their own
//!   connection only, and internal errors surface as error responses.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "tests play the blocking peer"
)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use watchman_core::engine::{PolicyKind, Watchman};
use watchman_core::telemetry::{MetricsSnapshot, METRICS_SCHEMA_VERSION};
use watchman_core::value::SizedPayload;
use watchman_server::wire::{self, Request, Response};
use watchman_server::{
    replay_trace_wire, serve, Client, ClientError, GetRequest, ServerConfig, WireSource,
};
use watchman_sim::{replay_trace_engine, ExperimentScale, Workload};

fn test_server(capacity_bytes: u64, shards: usize) -> watchman_server::ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards,
        policy: PolicyKind::LNC_RA,
        capacity_bytes,
        runtime_workers: 4,
        ..ServerConfig::default()
    })
    .expect("server binds on loopback")
}

#[test]
fn storm_executes_each_missed_key_exactly_once_across_connections() {
    const CLIENTS: usize = 8;
    const KEYS: usize = 12;
    let server = test_server(64 << 20, 4);
    let addr = server.addr().to_string();
    let barrier = Arc::new(Barrier::new(CLIENTS));

    let mut per_client: Vec<Vec<WireSource>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..CLIENTS {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            handles.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                // All clients sweep the same keys in the same order, with a
                // multi-millisecond simulated execution: concurrent misses
                // on one key must coalesce across connections.
                barrier.wait();
                let mut sources = Vec::with_capacity(KEYS);
                for key_index in 0..KEYS {
                    let response = client
                        .get(GetRequest {
                            key: format!("SELECT storm FROM relation{key_index}"),
                            timestamp_us: (key_index as u64 + 1) * 1_000,
                            result_bytes: 2_048,
                            cost_blocks: 900,
                            fetch_delay_us: 3_000,
                            deadline_hint_us: 0,
                            payload_prefix_cap: 16,
                        })
                        .expect("storm get");
                    assert_eq!(response.full_len, 2_048);
                    assert_eq!(response.prefix.len(), 16, "prefix cap honored");
                    sources.push(response.source);
                }
                sources
            }));
        }
        for handle in handles {
            per_client.push(handle.join().expect("storm client"));
        }
    });

    let executed: usize = per_client
        .iter()
        .flatten()
        .filter(|source| **source == WireSource::Executed)
        .count();
    assert_eq!(
        executed, KEYS,
        "leader count must equal the distinct missed keys (exactly-once fetch)"
    );

    let snapshot = server.engine().stats_snapshot();
    assert_eq!(snapshot.total.references, (CLIENTS * KEYS) as u64);
    assert_eq!(snapshot.total.misses(), KEYS as u64);
    assert_eq!(
        snapshot.total.references,
        snapshot.total.hits + snapshot.total.coalesced + snapshot.total.misses(),
        "references partition into hits, coalesced waits and misses"
    );
    let coalesced: usize = per_client
        .iter()
        .flatten()
        .filter(|source| **source == WireSource::Coalesced)
        .count();
    assert_eq!(coalesced as u64, snapshot.total.coalesced);
    // The barrier releases every client onto the same key at once while the
    // leader's simulated scan takes milliseconds: misses MUST have coalesced
    // across connections (this is the cross-connection single-flight proof).
    assert!(
        snapshot.total.coalesced > 0,
        "no cross-connection coalescing observed"
    );
    server.join();
}

#[test]
fn metrics_exposition_and_trace_dump_move_under_traffic() {
    // One distinct miss per key, at least 64 of them.
    const KEYS: u64 = 64;
    const HIT_ROUNDS: u64 = 2;
    const HITS: u64 = KEYS * HIT_ROUNDS;
    // One runtime worker, so every lookup runs on one thread and its
    // 1-in-64 sample lands at least once in any 64 of its hits, and in any
    // 64 of its executed misses.
    let server = serve(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards: 4,
        policy: PolicyKind::LNC_RA,
        capacity_bytes: 1 << 20,
        runtime_workers: 1,
        ..ServerConfig::default()
    })
    .expect("server binds on loopback");
    let addr = server.addr().to_string();
    let mut admin = Client::connect(addr.clone()).expect("admin connects");
    let before = admin.metrics().expect("METRICS before traffic");
    assert_eq!(before.schema, METRICS_SCHEMA_VERSION);
    let stats_before = admin.stats().expect("STATS before traffic").total;

    // Sweeps over the same keys: the first executes every key, the rest
    // are all served hits.  The latency histograms live in the
    // process-global registry, and other tests in this binary record into
    // them concurrently, so their assertions are monotonic deltas (>=).
    let mut client = Client::connect(addr).expect("client connects");
    for round in 0..=HIT_ROUNDS {
        for key_index in 0..KEYS {
            client
                .get(GetRequest::metrics_only(
                    format!("SELECT telemetry FROM relation{key_index}"),
                    round * KEYS + key_index + 1,
                    1_024,
                    700,
                ))
                .expect("traffic get");
        }
    }

    let after = admin.metrics().expect("METRICS after traffic");
    let lookups = |snapshot: &MetricsSnapshot, name: &str| {
        snapshot
            .histogram(name)
            .map_or(0, |histogram| histogram.count)
    };
    // Hits and executed misses are counted by the engine's books and timed
    // by sampling: each thread times one lookup in 64.
    let stats_after = admin.stats().expect("STATS after traffic").total;
    assert_eq!(
        stats_after.misses() - stats_before.misses(),
        KEYS,
        "the first sweep misses on every key"
    );
    assert!(
        lookups(&after, "engine.lookup.executed_us")
            >= lookups(&before, "engine.lookup.executed_us") + KEYS / 64,
        "{KEYS} executed misses on one thread must have sampled at least {} latencies",
        KEYS / 64
    );
    assert_eq!(
        stats_after.hits - stats_before.hits,
        HITS,
        "every hit sweep is served hits"
    );
    assert!(
        lookups(&after, "engine.lookup.hit_ns")
            >= lookups(&before, "engine.lookup.hit_ns") + HITS / 64,
        "{HITS} hits on one thread must have sampled at least {} hit latencies",
        HITS / 64
    );
    // The server layer fills these in at exposition time: both connections
    // of this test are open sessions, and the poll histogram moved because
    // serving the sweeps polled session tasks.
    assert!(after.gauge("server.sessions") >= 2);
    assert!(after.gauge("runtime.workers") > 0);
    assert!(
        lookups(&after, "runtime.task.poll_us") > lookups(&before, "runtime.task.poll_us"),
        "serving traffic must record task polls"
    );
    // Occupancy is read from this server's own snapshot at scrape time;
    // the executed sweep inserted 64 KiB, so some shard must show bytes.
    assert!(after.gauge("engine.shard_count") == 4);
    assert!(
        (0..4).any(|shard| after.gauge(&format!("engine.shard.{shard:02}.used_bytes")) > 0),
        "at least one shard gauge must show occupancy after the inserts"
    );
    // The paper's tertiary metric rides the same exposition: the used
    // fraction of the capacity at scrape time, in permille.  No request
    // runs between the two scrapes, so STATS sees the same occupancy.
    let stats = admin.stats().expect("STATS after traffic");
    assert!(stats.used_bytes > 0);
    assert_eq!(
        after.gauge("engine.fragmentation.used_permille"),
        stats.used_bytes * 1000 / stats.capacity_bytes,
        "the fragmentation gauge is used_bytes·1000/capacity_bytes"
    );
    assert!(after.gauge("engine.fragmentation.used_permille") > 0);

    let dump = admin.trace_dump().expect("TRACE_DUMP");
    assert_eq!(dump.schema, METRICS_SCHEMA_VERSION);
    assert!(dump.recorded > 0, "the flight recorder must be always-on");
    assert!(!dump.events.is_empty());
    assert!(
        dump.events
            .iter()
            .any(|event| event.kind == "session_open" || event.kind == "lookup_executed"),
        "the ring must hold session/lookup events from this test's traffic"
    );
    // Events are dumped oldest-first with strictly increasing sequence.
    assert!(
        dump.events.windows(2).all(|pair| pair[0].seq < pair[1].seq),
        "trace events must come out in sequence order"
    );
    server.join();
}

#[test]
fn metrics_gauge_every_shard_from_the_servers_own_snapshot() {
    // More shards than any fixed gauge array would hold: METRICS reports
    // each one, read from the same snapshot STATS serves.
    const SHARDS: usize = 70;
    let server = test_server(SHARDS as u64 * 4_096, SHARDS);
    let mut client = Client::connect(server.addr().to_string()).expect("client connects");
    for index in 0..420u64 {
        client
            .get(GetRequest::metrics_only(
                format!("SELECT gauge FROM shard{index}"),
                index + 1,
                512,
                100,
            ))
            .expect("get");
    }
    let metrics = client.metrics().expect("METRICS");
    let stats = client.stats().expect("STATS");
    assert_eq!(metrics.gauge("engine.shard_count"), SHARDS as u64);
    let gauged: Vec<u64> = (0..SHARDS)
        .map(|shard| {
            let name = format!("engine.shard.{shard:02}.used_bytes");
            *metrics
                .gauges
                .get(&name)
                .unwrap_or_else(|| panic!("{name} missing"))
        })
        .collect();
    assert_eq!(
        gauged, stats.per_shard_used,
        "one gauge per shard, equal to STATS"
    );
    assert_eq!(
        metrics
            .gauges
            .keys()
            .filter(|name| name.starts_with("engine.shard.") && name.ends_with(".used_bytes"))
            .count(),
        SHARDS,
        "no gauge for a shard that does not exist"
    );
    assert!(
        gauged[64..].iter().any(|&used| used > 0),
        "the shards past 64 must hold bytes for the check to mean anything"
    );
    server.join();
}

#[test]
fn wire_replay_is_byte_identical_to_in_process_replay() {
    // The same deterministic TPC-D trace, the same engine configuration:
    // one replayed in process through the sync front door, one replayed
    // over loopback through the wire protocol.  The final snapshots must
    // match byte for byte — the wire adds no replay-visible semantics.
    let workload = Workload::tpcd(ExperimentScale::quick(1_500));
    let trace = &workload.trace;
    let cache_fraction = 0.01;
    let capacity = (trace.database_bytes as f64 * cache_fraction).round() as u64;

    let in_process: Watchman<SizedPayload> = Watchman::builder()
        .shards(4)
        .policy(PolicyKind::LNC_RA)
        .capacity_bytes(capacity)
        .build();
    replay_trace_engine(trace, &in_process, cache_fraction);
    let expected = in_process.stats_snapshot();

    let server = serve(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards: 4,
        policy: PolicyKind::LNC_RA,
        capacity_bytes: capacity,
        runtime_workers: 2,
        ..ServerConfig::default()
    })
    .expect("server binds");
    let mut client = Client::connect(server.addr().to_string()).expect("client connects");
    let over_wire = replay_trace_wire(&mut client, trace).expect("wire replay");

    assert_eq!(
        expected, over_wire,
        "wire replay snapshot must be byte-identical to the in-process replay"
    );
    server.join();
}

#[test]
fn malformed_frames_fail_their_connection_only() {
    let server = test_server(1 << 20, 2);
    let addr = server.addr();

    // A healthy client before, throughout and after the vandalism.
    let mut healthy = Client::connect(addr.to_string()).expect("healthy client");
    healthy
        .get(GetRequest::metrics_only("SELECT a FROM t", 1_000, 128, 100))
        .expect("healthy get");

    // Vandal 1: oversized length prefix after a valid handshake.
    {
        let mut vandal = TcpStream::connect(addr).expect("vandal connects");
        wire::write_frame(&mut vandal, &wire::encode_hello()).unwrap();
        let hello = wire::read_frame(&mut vandal)
            .unwrap()
            .expect("server hello");
        assert_eq!(wire::decode_hello(&hello).unwrap(), wire::VERSION);
        vandal.write_all(&[0xFF, 0xFF, 0xFF, 0xFF]).unwrap();
        vandal.flush().unwrap();
        // The server must close this connection.
        let mut buf = [0u8; 16];
        vandal
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(vandal.read(&mut buf).unwrap_or(0), 0, "connection closed");
    }

    // Vandal 2: a truncated frame (declares 64 bytes, sends 3, hangs up).
    {
        let mut vandal = TcpStream::connect(addr).expect("vandal connects");
        wire::write_frame(&mut vandal, &wire::encode_hello()).unwrap();
        let _ = wire::read_frame(&mut vandal).unwrap();
        vandal.write_all(&64u32.to_le_bytes()).unwrap();
        vandal.write_all(&[1, 2, 3]).unwrap();
        vandal.flush().unwrap();
        drop(vandal);
    }

    // Vandal 3: garbage instead of a handshake.
    {
        let mut vandal = TcpStream::connect(addr).expect("vandal connects");
        vandal.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        vandal.flush().unwrap();
        drop(vandal);
    }

    // The healthy connection (and new ones) must be unaffected.
    let response = healthy
        .get(GetRequest::metrics_only("SELECT a FROM t", 2_000, 128, 100))
        .expect("healthy get after vandalism");
    assert_eq!(response.source, WireSource::Hit);
    let mut fresh = Client::connect(addr.to_string()).expect("fresh client");
    assert!(fresh.stats().expect("stats").total.references >= 2);
    server.join();
}

#[test]
fn unknown_opcode_gets_an_error_response_and_the_connection_survives() {
    let server = test_server(1 << 20, 1);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    wire::write_frame(&mut stream, &wire::encode_hello()).unwrap();
    let _ = wire::read_frame(&mut stream)
        .unwrap()
        .expect("server hello");

    // A well-formed frame with an opcode from the future.
    let mut body = Vec::new();
    body.extend_from_slice(&7u64.to_le_bytes());
    body.push(250);
    wire::write_frame(&mut stream, &body).unwrap();
    stream.flush().unwrap();
    let reply = wire::read_frame(&mut stream).unwrap().expect("error reply");
    let (id, response) = wire::decode_response(&reply).expect("decodes");
    assert_eq!(id, 7);
    assert!(
        matches!(response, Response::Error { ref message } if message.contains("unknown opcode")),
        "got {response:?}"
    );

    // Same connection still serves real requests.
    wire::write_frame(&mut stream, &wire::encode_request(8, &Request::Stats)).unwrap();
    stream.flush().unwrap();
    let reply = wire::read_frame(&mut stream).unwrap().expect("stats reply");
    let (id, response) = wire::decode_response(&reply).expect("decodes");
    assert_eq!(id, 8);
    assert!(matches!(response, Response::Stats(_)));
    server.join();
}

#[test]
fn version_mismatch_is_answered_with_the_server_hello_then_closed() {
    let server = test_server(1 << 20, 1);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut hello = wire::encode_hello();
    // Claim a protocol version from the future.
    hello[4] = 0xEE;
    hello[5] = 0xEE;
    wire::write_frame(&mut stream, &hello).unwrap();
    stream.flush().unwrap();
    let reply = wire::read_frame(&mut stream)
        .unwrap()
        .expect("server hello");
    assert_eq!(
        wire::decode_hello(&reply).unwrap(),
        wire::VERSION,
        "the server advertises the version it speaks"
    );
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 8];
    assert_eq!(stream.read(&mut buf).unwrap_or(0), 0, "then closes");
    server.join();
}

/// The `key` field of a `/proc/<..>/status` file.
fn status_field(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find_map(|line| line.strip_prefix(key))?;
    line.trim_start_matches(':').trim().parse().ok()
}

#[test]
fn a_depth_1_get_costs_the_worker_one_wake_up_and_no_reactor_thread_exists() {
    const REQUESTS: u64 = 2_000;
    let server = serve(ServerConfig {
        runtime_workers: 1,
        ..ServerConfig::default()
    })
    .expect("server binds on loopback");
    // The one worker names itself: a task spawned on its runtime reads the
    // thread's own procfs directory, so parallel tests' workers (same
    // thread name, other runtimes) are not counted.
    let runtime = server.engine().runtime();
    let worker = watchman_core::runtime::block_on(
        runtime.spawn(async { std::fs::read_link("/proc/thread-self") }),
    )
    .expect("probe task");
    let Ok(worker) = worker.map(|task| std::path::Path::new("/proc").join(task)) else {
        eprintln!("skipped: no /proc/thread-self on this platform");
        return server.join();
    };
    let status = || std::fs::read_to_string(worker.join("status")).expect("worker status");
    assert!(
        status().contains("watchman-runtim"),
        "the probe ran on a runtime worker: {}",
        status()
    );
    let switches = || status_field(&status(), "voluntary_ctxt_switches").expect("switch count");

    let mut client = Client::connect(server.addr().to_string()).expect("client");
    let get = |client: &mut Client, i: u64| {
        // Every key is asked for twice in a row: a miss, then a hit.
        let key = format!("SELECT wake{} FROM t", i / 2);
        client
            .get(GetRequest::metrics_only(key, (i + 1) * 1_000, 2_048, 10))
            .expect("get")
    };
    get(&mut client, 0); // handshake and first-use costs stay out of the count
    get(&mut client, 1);
    let before = switches();
    for i in 2..REQUESTS + 2 {
        let expected = if i % 2 == 0 {
            WireSource::Executed
        } else {
            WireSource::Hit
        };
        assert_eq!(get(&mut client, i).source, expected);
    }
    let per_request = (switches() - before) as f64 / REQUESTS as f64;
    assert!(
        per_request <= 1.25,
        "{per_request:.2} voluntary context switches per depth-1 GET on the worker: \
         readiness is being handed between threads again"
    );
    for task in std::fs::read_dir("/proc/self/task")
        .expect("task list")
        .flatten()
    {
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        assert!(
            !comm.starts_with("watchman-react"),
            "a reactor thread runs: {comm}"
        );
    }
    server.join();
}

#[test]
fn get_many_batches_into_one_write_and_matches_ids_in_request_order() {
    // The client encodes a pipelined batch into one contiguous buffer and
    // sends it with a single write; the server's buffered reader drains the
    // whole burst from as few recvs.  Distinguishable responses prove the
    // request-id bookkeeping: response k must answer request k (the client
    // itself errors on any id mismatch, so a success here is the proof).
    const BATCH: usize = 64;
    let server = test_server(64 << 20, 2);
    let mut client = Client::connect(server.addr().to_string()).expect("client");
    let requests: Vec<GetRequest> = (0..BATCH)
        .map(|k| {
            GetRequest::metrics_only(
                format!("SELECT batch{k} FROM t"),
                (k as u64 + 1) * 1_000,
                // Unique size per key: the response for request k is
                // identifiable by its full_len.
                100 + k as u64,
                10,
            )
        })
        .collect();
    let responses = client.get_many(requests).expect("pipelined batch");
    assert_eq!(responses.len(), BATCH);
    for (k, response) in responses.iter().enumerate() {
        assert_eq!(
            response.full_len,
            100 + k as u64,
            "response {k} answers a different request"
        );
        assert_eq!(response.source, WireSource::Executed);
    }
    // A second sweep is all hits, still in order.
    let again: Vec<GetRequest> = (0..BATCH)
        .map(|k| {
            GetRequest::metrics_only(
                format!("SELECT batch{k} FROM t"),
                (BATCH + k) as u64 * 1_000,
                100 + k as u64,
                10,
            )
        })
        .collect();
    for (k, response) in client
        .get_many(again)
        .expect("hit sweep")
        .iter()
        .enumerate()
    {
        assert_eq!(response.full_len, 100 + k as u64);
        assert_eq!(response.source, WireSource::Hit);
    }
    server.join();
}

#[test]
fn admin_opcodes_peek_without_perturbing_and_invalidate_by_relation() {
    let server = test_server(1 << 20, 2);
    let mut client = Client::connect(server.addr().to_string()).expect("client");

    let query = "SELECT sum(l_price) FROM lineitem WHERE l_year = 1995";
    client
        .get(GetRequest::metrics_only(query, 1_000, 512, 4_000))
        .expect("prime the cache");

    let before = client.stats().expect("stats before");
    for _ in 0..10 {
        assert_eq!(client.peek(query).expect("peek"), Some(512));
        assert_eq!(client.peek("SELECT nothing FROM nowhere").unwrap(), None);
    }
    let after = client.stats().expect("stats after");
    assert_eq!(before, after, "PEEK must not perturb the snapshot");

    // A warehouse update lands on LINEITEM: the dependent set is gone.
    let (affected, invalidated) = client.invalidate_relation("LINEITEM").expect("invalidate");
    assert_eq!((affected, invalidated), (1, 1));
    assert_eq!(client.peek(query).expect("peek after invalidate"), None);
    server.join();
}

#[test]
fn deadline_hint_is_reported() {
    let server = test_server(1 << 20, 1);
    let mut client = Client::connect(server.addr().to_string()).expect("client");
    let response = client
        .get(GetRequest {
            key: "SELECT slow FROM t".to_owned(),
            timestamp_us: 1_000,
            result_bytes: 64,
            cost_blocks: 100,
            fetch_delay_us: 5_000,
            deadline_hint_us: 1, // 1 us budget: a 5 ms fetch must exceed it
            payload_prefix_cap: 0,
        })
        .expect("get");
    assert_eq!(response.source, WireSource::Executed);
    assert!(response.deadline_exceeded);
    assert!(response.service_us >= 5_000);

    // A generous budget is not exceeded on the hit path.
    let hit = client
        .get(GetRequest {
            key: "SELECT slow FROM t".to_owned(),
            timestamp_us: 2_000,
            result_bytes: 64,
            cost_blocks: 100,
            fetch_delay_us: 0,
            deadline_hint_us: 10_000_000,
            payload_prefix_cap: 0,
        })
        .expect("get");
    assert_eq!(hit.source, WireSource::Hit);
    assert!(!hit.deadline_exceeded);
    server.join();
}

#[test]
fn oversized_result_bytes_is_refused_with_an_error_response() {
    let server = test_server(1 << 20, 1);
    let mut client = Client::connect(server.addr().to_string()).expect("client");
    let err = client
        .get(GetRequest::metrics_only(
            "SELECT huge FROM t",
            1_000,
            u64::MAX,
            100,
        ))
        .expect_err("oversized result must be refused");
    assert!(
        matches!(err, ClientError::Server { ref message } if message.contains("result_bytes")),
        "got {err}"
    );
    // The connection survives the refusal.
    client
        .get(GetRequest::metrics_only(
            "SELECT ok FROM t",
            2_000,
            128,
            100,
        ))
        .expect("get after refusal");
    server.join();
}

#[test]
fn fetch_delay_past_the_drain_grace_is_refused_without_sleeping() {
    let server = test_server(1 << 20, 1);
    let mut client = Client::connect(server.addr().to_string()).expect("client");
    let started = Instant::now();
    let err = client
        .get(GetRequest {
            fetch_delay_us: 1_000_001,
            ..GetRequest::metrics_only("SELECT slow FROM t", 1_000, 128, 100)
        })
        .expect_err("a delay past the drain grace must be refused");
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "refused only after {:?}",
        started.elapsed()
    );
    assert!(
        matches!(err, ClientError::Server { ref message } if message.contains("fetch_delay_us")),
        "got {err}"
    );
    server.join();
}

#[test]
fn shutdown_opcode_drains_the_server() {
    let server = test_server(1 << 20, 1);
    let addr = server.addr();
    let mut client = Client::connect(addr.to_string()).expect("client");
    client
        .get(GetRequest::metrics_only("SELECT x FROM t", 1_000, 64, 10))
        .expect("get");
    client.shutdown_server().expect("shutdown acknowledged");
    // The accept loop and session threads must drain promptly.
    server.wait();
    // New connections are refused once the listener is gone (allow a beat
    // for the OS to tear the socket down).
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match Client::connect(addr.to_string()) {
            Err(_) => break,
            Ok(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Ok(_) => panic!("server still accepting after drain"),
        }
    }
}

#[test]
fn shutdown_drains_despite_a_connection_stalled_mid_frame() {
    // A client that handshakes, sends ONE byte of a length prefix, and then
    // stalls with the socket open must not hold the drain hostage: the
    // session thread gives the in-flight frame a bounded grace window.
    let server = test_server(1 << 20, 1);
    let addr = server.addr();
    let mut staller = TcpStream::connect(addr).expect("staller connects");
    wire::write_frame(&mut staller, &wire::encode_hello()).unwrap();
    let _ = wire::read_frame(&mut staller)
        .unwrap()
        .expect("server hello");
    staller.write_all(&[0x01]).unwrap();
    staller.flush().unwrap();

    let mut admin = Client::connect(addr.to_string()).expect("admin");
    admin.shutdown_server().expect("shutdown acknowledged");

    // Join on a watchdog: the drain must finish despite the stalled frame.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.wait();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("drain must not hang on a connection stalled mid-frame");
    drop(staller);
}

#[test]
fn client_reconnects_transparently_after_a_server_side_drop() {
    // Two servers on the same port is not portable; instead, kill the
    // client's socket from underneath it by dropping the server's side:
    // shutting down only the *stream* is not exposed, so simulate the drop
    // by closing the client's own stream via a poisoned call — simplest
    // robust approximation: connect, force-close the underlying socket by
    // replacing the client, and verify a fresh call still succeeds through
    // the reconnect path.
    let server = test_server(1 << 20, 1);
    let addr = server.addr().to_string();
    let mut client = Client::connect(addr).expect("client");
    client
        .get(GetRequest::metrics_only("SELECT r FROM t", 1_000, 64, 10))
        .expect("first get");
    // Vandalize our own connection: send a garbage length prefix so the
    // server closes it, then observe the next call heal via reconnect.
    client
        .with_raw_stream(|stream| stream.write_all(&[0xFF, 0xFF, 0xFF, 0xFF]))
        .expect("reach the raw stream")
        .expect("write the garbage prefix");
    let response = client
        .get(GetRequest::metrics_only("SELECT r FROM t", 2_000, 64, 10))
        .expect("get after reconnect");
    assert_eq!(response.source, WireSource::Hit);
    server.join();
}

#[test]
fn a_connection_killed_mid_burst_leaves_no_bytes_for_the_retry() {
    use std::net::TcpListener;
    use watchman_core::engine::RetryPolicy;
    use watchman_server::wire::{GetResponse, WireError};

    // A scripted peer, so the kill can land in the middle of a frame: the
    // client reads responses through a buffer, and whatever that buffer
    // held when the connection died must not prefix the next connection's
    // first response.
    const BATCH: usize = 8;

    /// Accepts one connection, serves the handshake and reads one burst.
    fn accept_burst(listener: &TcpListener) -> (TcpStream, Vec<(u64, u64)>) {
        let (mut stream, _) = listener.accept().expect("accept");
        let hello = wire::read_frame(&mut stream).expect("hello").expect("sent");
        wire::decode_hello(&hello).expect("client hello");
        wire::write_frame(&mut stream, &wire::encode_hello()).expect("server hello");
        let burst = (0..BATCH)
            .map(|_| {
                let frame = wire::read_frame(&mut stream).expect("frame").expect("sent");
                match wire::decode_request(&frame).expect("request") {
                    (id, Request::Get(get)) => (id, get.result_bytes),
                    other => panic!("expected a GET, got {other:?}"),
                }
            })
            .collect();
        (stream, burst)
    }

    /// The response frame for request `id`, recognisable by `full_len`.
    fn answer(id: u64, full_len: u64) -> Vec<u8> {
        let response = Response::Get(GetResponse {
            source: WireSource::Hit,
            cost_blocks: 1.0,
            full_len,
            prefix: Vec::new(),
            service_us: 0,
            deadline_exceeded: false,
        });
        let mut frame = Vec::new();
        wire::write_frame(&mut frame, &wire::encode_response(id, &response).unwrap()).unwrap();
        frame
    }

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let peer = std::thread::spawn(move || {
        // Connection 1: two whole responses and most of a third, then dead.
        let (mut stream, burst) = accept_burst(&listener);
        let bytes: Vec<u8> = burst[..3]
            .iter()
            .flat_map(|&(id, full_len)| answer(id, full_len))
            .collect();
        stream
            .write_all(&bytes[..bytes.len() - 9])
            .expect("partial");
        drop(stream);
        // Connection 2: the retried burst (under fresh ids), answered whole.
        let (mut stream, burst) = accept_burst(&listener);
        for &(id, full_len) in &burst {
            stream.write_all(&answer(id, full_len)).expect("answer");
        }
        // Then a request nobody answers: only the client's read timeout
        // ends that call.  Hold the socket open until the client hangs up.
        let _ = wire::read_frame(&mut stream);
        let _ = stream.read(&mut [0u8; 1]);
    });

    let mut client = Client::connect(addr).expect("connect");
    client.set_read_timeout(Some(Duration::from_millis(200)));
    client.set_retry_policy(RetryPolicy {
        max_attempts: 2,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(5),
        jitter_seed: 7,
    });
    let requests: Vec<GetRequest> = (0..BATCH)
        .map(|k| GetRequest::metrics_only(format!("SELECT k{k} FROM t"), 1_000, 100 + k as u64, 1))
        .collect();
    let responses = client.get_many(requests).expect("the retry succeeds");
    for (k, response) in responses.iter().enumerate() {
        assert_eq!(response.full_len, 100 + k as u64, "response {k}");
    }

    // The read timeout was set before the reconnect and still binds the
    // stream the reconnect made.
    client.set_retry_policy(RetryPolicy::none());
    let started = Instant::now();
    let error = client
        .get(GetRequest::metrics_only(
            "SELECT stalled FROM t",
            2_000,
            64,
            1,
        ))
        .expect_err("nobody answers");
    assert!(
        matches!(error, ClientError::Wire(WireError::Io(_))),
        "{error:?}"
    );
    assert!(started.elapsed() < Duration::from_secs(5));
    drop(client);
    peer.join().expect("peer thread");
}
