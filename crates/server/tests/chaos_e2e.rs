//! Chaos end-to-end: the failure-domain acceptance proofs over real
//! sockets.
//!
//! * the **canonical fault-plan storm**: 8 clients hammer a server whose
//!   fetches fail on schedule and whose connections are reset and stalled
//!   mid-stream — every client-observed outcome must be explained by the
//!   plan (zero unexplained errors) and the degradation machinery must
//!   actually engage;
//! * the **doomed-key walk**: the deterministic stale-serving life cycle
//!   (warm-up, eviction, terminal refetch failure, negative-cache hit)
//!   observed step by step through one connection;
//! * the **empty-plan replay**: installing a no-op fault plan routes every
//!   GET through the fallible pipeline, and the result is byte-identical
//!   to the in-process infallible replay of the same TPC-D trace — the
//!   failure domain adds zero replay-visible semantics;
//! * **overload shedding**: a saturated admission gate answers `BUSY` with
//!   a retry-after hint instead of queueing without bound;
//! * the **slow loris**: a connection that commits to a frame and stops
//!   feeding it is evicted by the read deadline while healthy sessions
//!   proceed.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "tests play the blocking peer"
)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use watchman_core::engine::{BreakerConfig, FailureConfig, PolicyKind, RetryPolicy, Watchman};
use watchman_core::key::QueryKey;
use watchman_core::value::SizedPayload;
use watchman_server::wire;
use watchman_server::{
    replay_trace_wire, serve, Client, ClientError, FaultPlan, GetRequest, Requests, Scenario,
    ServerConfig, ServerHandle, WireSource, SWEEP_KEYS, SWEEP_RESULT_BYTES,
};
use watchman_sim::{replay_trace_engine, ExperimentScale, Workload};

/// A server wired for degradation: stale serving and the breaker enabled, a
/// small admission gate, a read deadline, and (optionally) a fault plan.
fn degradation_server(
    capacity_bytes: u64,
    shards: usize,
    max_inflight: usize,
    plan: Option<Arc<FaultPlan>>,
) -> ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards,
        capacity_bytes,
        failure: FailureConfig {
            retry: RetryPolicy::default(),
            breaker: Some(BreakerConfig::default()),
            serve_stale: true,
        },
        max_inflight,
        read_deadline: Some(Duration::from_millis(250)),
        fault_plan: plan,
        ..ServerConfig::default()
    })
    .expect("server binds on loopback")
}

#[test]
fn canonical_chaos_storm_explains_every_error() {
    let plan = Arc::new(FaultPlan::canonical(0xC4A0_5EED));
    let scenario = Scenario {
        connections: 8,
        pipeline: 1,
        fetch_delay_us: 200,
        requests: Requests::Sweep { rounds: 120 },
    };
    // Capacity far below the keyspace footprint: doomed keys must be
    // evicted so their refetches fail and stale serving engages.
    let capacity = SWEEP_KEYS as u64 * SWEEP_RESULT_BYTES / 4;
    let server = degradation_server(capacity, 4, 2, Some(Arc::clone(&plan)));
    let addr = server.addr().to_string();

    let report = scenario.run(&addr).expect("chaos storm");
    server.join();

    // The hard gate: the fault plan explains every error the clients saw.
    let outcomes = &report.outcomes;
    assert_eq!(outcomes.unexplained, 0, "unexplained client errors");
    assert_eq!(report.requests, 8 * 120);
    assert_eq!(
        outcomes.ok()
            + outcomes.fetch_errors
            + outcomes.busy
            + outcomes.reconnects
            + outcomes.unexplained,
        report.requests,
        "every request lands in exactly one client-side bucket"
    );

    // The plan really fired, on both seams.
    assert!(
        plan.injected_fetch_errors() > 0,
        "the plan injected no fetch failures"
    );
    let mut resets = plan.triggered_resets();
    resets.sort_unstable();
    assert_eq!(
        resets,
        vec![2, 5],
        "connections 2 and 5 never accumulated three reads"
    );

    // The degradation machinery engaged rather than surfacing raw errors.
    let snapshot = &report.server;
    assert!(snapshot.total.stale_serves > 0, "no stale serves");
    assert!(snapshot.sheds > 0, "the admission gate never shed");
    assert!(snapshot.fetch_retries > 0, "flaky keys were never retried");

    // Every usable response the clients saw corresponds to an engine
    // reference (sheds are refused before the engine; lost requests may
    // replay, so the engine can see a handful more).
    assert!(
        snapshot.total.references >= outcomes.ok() + outcomes.fetch_errors,
        "engine references ({}) below client-visible outcomes ({})",
        snapshot.total.references,
        outcomes.ok() + outcomes.fetch_errors
    );
}

/// Finds a key of the wanted class under `plan`'s seed by probing a
/// scratch copy: invocation 0 faults only for flaky keys, invocation 1
/// faults only for doomed keys.
fn find_key(scratch: &FaultPlan, doomed: bool, salt: &mut u64) -> String {
    loop {
        *salt += 1;
        let key = format!("SELECT payload FROM probe WHERE k = {salt}");
        // The same normalization the server applies to wire keys.
        let signature = QueryKey::from_raw_query(&key).signature().value();
        let first = scratch.fetch_fault(signature).is_some();
        let second = scratch.fetch_fault(signature).is_some();
        if doomed && !first && second {
            return key;
        }
        if !doomed && !first && !second {
            return key;
        }
    }
}

#[test]
fn doomed_key_walk_warms_evicts_then_serves_stale() {
    const SEED: u64 = 0xD00D;
    let scratch = FaultPlan::canonical(SEED);
    let mut salt = 0;
    let doomed = find_key(&scratch, true, &mut salt);
    // One shard, room for two retrieved sets: the doomed set plus a little.
    let server = degradation_server(64 << 10, 1, 0, Some(Arc::new(FaultPlan::canonical(SEED))));
    let mut client = Client::connect(server.addr().to_string()).expect("client connects");

    // Warm-up: the doomed key's first fetch succeeds, seeding the cache
    // and the stale store.
    let request = |key: &str, ts: u64| GetRequest {
        key: key.to_owned(),
        timestamp_us: ts,
        result_bytes: 32 << 10,
        cost_blocks: 100,
        fetch_delay_us: 0,
        deadline_hint_us: 0,
        payload_prefix_cap: 0,
    };
    let warm = client.get(request(&doomed, 1_000)).expect("warm-up get");
    assert_eq!(warm.source, WireSource::Executed);
    assert_eq!(
        client.get(request(&doomed, 2_000)).expect("hit").source,
        WireSource::Hit
    );

    // Eviction pressure: a handful of healthy high-profit sets, referenced
    // round after round so their arrival-rate estimates grow, push the
    // cheap doomed set out of the 64 KiB shard (its stale copy survives
    // the eviction).
    let fillers: Vec<String> = (0..4)
        .map(|_| find_key(&scratch, false, &mut salt))
        .collect();
    let mut evicted = false;
    'rounds: for round in 0..12u64 {
        for (index, key) in fillers.iter().enumerate() {
            let ts = 10_000 + round * 2_000 + index as u64 * 100;
            let response = client
                .get(GetRequest {
                    cost_blocks: 1_000_000,
                    result_bytes: 24 << 10,
                    ..request(key, ts)
                })
                .expect("filler get");
            assert_ne!(
                response.source,
                WireSource::Stale,
                "healthy keys never degrade"
            );
            if client.peek(&doomed).expect("peek").is_none() {
                evicted = true;
                break 'rounds;
            }
        }
    }
    assert!(evicted, "the doomed set was never evicted");

    // The refetch fails terminally — and the client gets the last known
    // good value, marked stale, instead of an error.
    let stale = client.get(request(&doomed, 100_000)).expect("stale serve");
    assert_eq!(stale.source, WireSource::Stale);
    assert_eq!(stale.full_len, 32 << 10, "the warm-up value, not a stub");

    // An immediate retry lands in the negative cache (50 ms TTL): same
    // stale answer, no second fetch invocation.
    let negative = client
        .get(request(&doomed, 110_000))
        .expect("negative-cache stale serve");
    assert_eq!(negative.source, WireSource::Stale);

    let snapshot = client.stats().expect("stats");
    assert_eq!(snapshot.total.stale_serves, 2);
    assert_eq!(
        snapshot.negative_hits, 1,
        "the retry never reached the fetch"
    );
    assert_eq!(
        snapshot.total.fetch_errors, 0,
        "stale serving absorbed the failure"
    );
    server.join();
}

#[test]
fn metrics_report_each_servers_own_books() {
    // Two servers in one process: a faulted one that retries, answers from
    // its negative cache and sheds, and a fault-free one.  Each server's
    // METRICS must read its own engine's and its own shed count, never the
    // other server's.
    const SEED: u64 = 0xB00C;
    let scratch = FaultPlan::canonical(SEED);
    let mut salt = 0;
    let doomed = find_key(&scratch, true, &mut salt);
    let faulted = degradation_server(1 << 20, 2, 4, Some(Arc::new(FaultPlan::canonical(SEED))));
    let mut client = Client::connect(faulted.addr().to_string()).expect("client connects");
    client.set_retry_policy(RetryPolicy::none());
    let request = |key: &str, ts: u64, deadline_hint_us: u64| GetRequest {
        key: key.to_owned(),
        timestamp_us: ts,
        result_bytes: 1_024,
        cost_blocks: 100,
        fetch_delay_us: 200,
        deadline_hint_us,
        payload_prefix_cap: 0,
    };

    // A sweep of fresh keys: the plan's flaky ones fail their first
    // attempt and succeed on the retry.
    for index in 0..100u64 {
        let key = format!("SELECT payload FROM sweep WHERE k = {index}");
        client
            .get(request(&key, 1_000 * (index + 1), 0))
            .expect("flaky keys recover on the retry");
    }
    // The doomed key: warm it, drop it and its stale copy, then refetch.
    // The refetch fails for good; the repeat is a negative-cache hit.
    client
        .get(request(&doomed, 200_000, 0))
        .expect("warm-up get");
    client.invalidate_relation("PROBE").expect("invalidate");
    for ts in [210_000, 211_000] {
        assert!(client.get(request(&doomed, ts, 0)).is_err());
    }
    // A 1 µs budget the service-time estimate says cannot be met: shed.
    assert!(matches!(
        client.get(request("SELECT shed FROM sweep", 220_000, 1)),
        Err(ClientError::Busy { .. })
    ));

    let clean = degradation_server(1 << 20, 2, 4, None);
    let mut clean_client = Client::connect(clean.addr().to_string()).expect("client connects");
    for index in 0..10u64 {
        clean_client
            .get(request(
                &format!("SELECT clean FROM t{index}"),
                index + 1,
                0,
            ))
            .expect("fault-free get");
    }
    let clean_metrics = clean_client.metrics().expect("METRICS");
    for name in [
        "engine.fetch.retries",
        "engine.negative_hits",
        "server.sheds",
    ] {
        assert_eq!(
            clean_metrics.counter(name),
            0,
            "the fault-free server reports the faulted server's {name}"
        );
    }
    clean.join();

    // The faulted server is idle: its METRICS and STATS read the same books.
    let metrics = client.metrics().expect("METRICS");
    let stats = client.stats().expect("STATS");
    assert!(stats.fetch_retries > 0, "no flaky key was retried");
    assert!(
        stats.negative_hits > 0,
        "the repeat missed the negative cache"
    );
    assert!(stats.sheds > 0, "the over-budget request was not shed");
    for (name, book) in [
        ("engine.fetch.retries", stats.fetch_retries),
        ("engine.negative_hits", stats.negative_hits),
        ("engine.breaker.transitions", stats.breaker_transitions),
        ("server.sheds", stats.sheds),
    ] {
        assert_eq!(metrics.counter(name), book, "METRICS {name} vs STATS");
    }
    faulted.join();
}

#[test]
fn empty_plan_tpcd_replay_is_byte_identical_to_in_process() {
    // The same deterministic TPC-D trace twice: in process through the
    // infallible sync front door, and over the wire through a server with
    // a *no-op fault plan* installed — which routes every GET through the
    // fallible pipeline.  Identical snapshots prove the failure domain is
    // invisible when nothing fails.
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
        fault_plan: Some(Arc::new(FaultPlan::empty(0))),
        ..ServerConfig::default()
    })
    .expect("server binds");
    let mut client = Client::connect(server.addr().to_string()).expect("client connects");
    let over_wire = replay_trace_wire(&mut client, trace).expect("wire replay");
    server.join();

    assert_eq!(
        expected, over_wire,
        "the no-op fault plan must add zero replay-visible semantics"
    );
    assert_eq!(
        serde_json::to_string(&expected).expect("snapshot serializes"),
        serde_json::to_string(&over_wire).expect("snapshot serializes"),
        "and the JSON projections match byte for byte"
    );
}

#[test]
fn saturated_admission_gate_sheds_with_a_retry_after_hint() {
    // max_inflight = 1: while one long execution holds the only permit,
    // the next request must be shed with BUSY, not queued.
    let server = degradation_server(8 << 20, 1, 1, None);
    let addr = server.addr().to_string();
    let barrier = Arc::new(Barrier::new(2));

    let slow = {
        let addr = addr.clone();
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("slow client connects");
            barrier.wait();
            client
                .get(GetRequest {
                    key: "SELECT slow FROM lineitem".to_owned(),
                    timestamp_us: 1_000,
                    result_bytes: 1_024,
                    cost_blocks: 1_000,
                    fetch_delay_us: 100_000, // holds the permit for 100 ms
                    deadline_hint_us: 0,
                    payload_prefix_cap: 0,
                })
                .expect("slow get completes")
        })
    };

    let mut shed = Client::connect(addr.clone()).expect("shed client connects");
    shed.set_retry_policy(RetryPolicy::none());
    barrier.wait();
    // Give the slow request a head start so its flight owns the permit.
    std::thread::sleep(Duration::from_millis(20));
    match shed.get(GetRequest::metrics_only(
        "SELECT shed FROM orders",
        2_000,
        128,
        10,
    )) {
        Err(ClientError::Busy { retry_after_us }) => {
            assert!(retry_after_us > 0, "BUSY must carry a retry-after hint");
        }
        other => panic!("expected BUSY, got {other:?}"),
    }

    assert_eq!(
        slow.join().expect("slow thread").source,
        WireSource::Executed
    );
    // With the permit back, the same client (and key) now succeeds — and a
    // policy-driven client would have gotten here by honoring the hint.
    let served = shed
        .get(GetRequest::metrics_only(
            "SELECT shed FROM orders",
            3_000,
            128,
            10,
        ))
        .expect("get after the permit freed");
    assert_eq!(served.source, WireSource::Executed);

    let mut admin = Client::connect(addr).expect("admin connects");
    let snapshot = admin.stats().expect("stats");
    assert!(snapshot.sheds >= 1, "the shed was not counted");
    server.join();
}

#[test]
fn slow_loris_is_evicted_while_healthy_sessions_proceed() {
    let server = serve(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        capacity_bytes: 1 << 20,
        read_deadline: Some(Duration::from_millis(100)),
        ..ServerConfig::default()
    })
    .expect("server binds");
    let addr = server.addr();

    let mut healthy = Client::connect(addr.to_string()).expect("healthy client");
    healthy
        .get(GetRequest::metrics_only("SELECT a FROM t", 1_000, 128, 100))
        .expect("healthy get");

    // The loris: a valid handshake, then a frame header promising 64 bytes
    // followed by silence.  Mid-frame silence trips the read deadline.
    let mut loris = TcpStream::connect(addr).expect("loris connects");
    wire::write_frame(&mut loris, &wire::encode_hello()).unwrap();
    let hello = wire::read_frame(&mut loris).unwrap().expect("server hello");
    assert_eq!(wire::decode_hello(&hello).unwrap(), wire::VERSION);
    loris.write_all(&64u32.to_le_bytes()).unwrap();
    loris.write_all(&[1, 2, 3]).unwrap();
    loris.flush().unwrap();

    // The server must close the connection on its own — well before this
    // generous client-side timeout.
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 16];
    assert_eq!(
        loris.read(&mut buf).unwrap_or(0),
        0,
        "the loris connection must be closed by the read deadline"
    );

    // Sessions that keep their frames flowing are unaffected.
    let response = healthy
        .get(GetRequest::metrics_only("SELECT a FROM t", 2_000, 128, 100))
        .expect("healthy get after the eviction");
    assert_eq!(response.source, WireSource::Hit);
    server.join();
}
