//! Wire-protocol cost: frame codec throughput and loopback round trips.
//!
//! Two questions about the networked front end:
//!
//! * **Codec** — how many GET request/response frames per second can one
//!   core encode and decode?  This bounds a session thread's parse
//!   overhead; it should sit far above any realistic per-connection rate.
//! * **Loopback RTT** — what does a *served* cache hit cost end to end
//!   (socket, framing, session task, shard lock) at pipeline depths 1,
//!   8 and 64?  Deep pipelines amortize the round trip, which is how the
//!   load generator reaches engine-limited throughput from few
//!   connections.
//! * **Connection scaling** — what happens when connections stop being
//!   threads?  A 64-connection trace replay reports latency and throughput
//!   (ungated), and a 512-connection storm records the session-vs-thread
//!   counts the task refactor exists for.  Both run through the server
//!   crate's `Scenario` runner, and its reports are serialized with the
//!   loopback rows and the gates to `BENCH_connection_scaling.json` at the
//!   workspace root.
//!
//! Run with `--quick` for a CI-sized smoke pass.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use serde::Serialize;
use watchman_core::engine::PolicyKind;
use watchman_core::runtime::net::stats as net_stats;
use watchman_server::wire::{self, GetRequest, Request};
use watchman_server::{serve, Client, Report, Requests, Scenario, ServerConfig};
use watchman_sim::{ExperimentScale, Workload};

/// Counts every heap allocation in the process so the loopback table can
/// report *allocations per served frame* — the number the reusable
/// session buffers exist to shrink.  Deallocations are free passes-through;
/// reallocs count (they may move the block, which is the cost we care
/// about).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System` unchanged; the counter is a
// relaxed atomic with no allocation of its own, so the allocator contract
// (including no reentrancy) is exactly `System`'s.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// One measured loopback pipeline depth: served-hit throughput plus the
/// per-frame syscall and allocation costs over the whole process (server
/// sessions drive the async `TcpStream` counters; the allocator counter
/// covers both sides of the loopback).
#[derive(Clone, Copy, Serialize)]
struct PipelineRow {
    pipeline: usize,
    frames: u64,
    throughput_qps: f64,
    syscalls_per_frame: f64,
    allocs_per_frame: f64,
}

fn sample_request() -> Request {
    Request::Get(GetRequest {
        key: "SELECT l_returnflag, sum(l_extendedprice) FROM lineitem WHERE l_shipdate <= 1995 \
              GROUP BY l_returnflag"
            .to_owned(),
        timestamp_us: 123_456_789,
        result_bytes: 3_072,
        cost_blocks: 41_000,
        fetch_delay_us: 0,
        deadline_hint_us: 0,
        payload_prefix_cap: 0,
    })
}

fn bench_codec(rounds: u64) {
    let request = sample_request();
    let start = Instant::now();
    let mut decoded = 0u64;
    for id in 0..rounds {
        let body = wire::encode_request(id, &request);
        let (back_id, _back) = wire::decode_request(&body).expect("round trip");
        assert_eq!(back_id, id);
        decoded += 1;
    }
    let elapsed = start.elapsed();
    println!(
        "codec: {decoded} GET encode+decode round trips in {elapsed:.2?} \
         ({:.0} frames/s)",
        decoded as f64 / elapsed.as_secs_f64()
    );
}

fn bench_loopback(rounds: u64) -> Vec<PipelineRow> {
    let server = serve(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards: 4,
        policy: PolicyKind::LNC_RA,
        capacity_bytes: 16 << 20,
        runtime_workers: 2,
        ..ServerConfig::default()
    })
    .expect("bench server binds");
    let mut client = Client::connect(server.addr().to_string()).expect("bench client");

    // Prime one hot key: everything after this is the served-hit path.
    let hot =
        |timestamp_us: u64| GetRequest::metrics_only("SELECT hot FROM t", timestamp_us, 512, 9_000);
    client.get(hot(1)).expect("prime");

    let mut rows = Vec::new();
    println!(
        "\n{:>10} {:>14} {:>16} {:>14} {:>16} {:>14}",
        "pipeline", "batches", "wall", "served hits/s", "syscalls/frame", "allocs/frame"
    );
    for pipeline in [1usize, 8, 64] {
        let batches = (rounds as usize / pipeline).max(8);
        let syscalls_before = net_stats::read_syscalls() + net_stats::write_syscalls();
        let allocs_before = allocation_count();
        let start = Instant::now();
        for batch_index in 0..batches {
            let batch: Vec<GetRequest> = (0..pipeline)
                .map(|i| hot((batch_index * pipeline + i + 2) as u64))
                .collect();
            let responses = client.get_many(batch).expect("hit batch");
            debug_assert_eq!(responses.len(), pipeline);
        }
        let elapsed = start.elapsed();
        let frames = (batches * pipeline) as u64;
        let syscalls = net_stats::read_syscalls() + net_stats::write_syscalls() - syscalls_before;
        let allocs = allocation_count() - allocs_before;
        let row = PipelineRow {
            pipeline,
            frames,
            throughput_qps: frames as f64 / elapsed.as_secs_f64(),
            syscalls_per_frame: syscalls as f64 / frames as f64,
            allocs_per_frame: allocs as f64 / frames as f64,
        };
        println!(
            "{:>10} {:>14} {:>16.2?} {:>14.0} {:>16.2} {:>14.2}",
            pipeline,
            batches,
            elapsed,
            row.throughput_qps,
            row.syscalls_per_frame,
            row.allocs_per_frame,
        );
        rows.push(row);
    }

    let snapshot = server.engine().stats_snapshot();
    assert!(
        snapshot.total.hits > 0,
        "the loopback rounds must be served hits"
    );
    server.join();
    rows
}

/// The unbuffered wire path's measured loopback costs at pipeline depth 64
/// (`--quick`, this container), recorded immediately before the buffered
/// `FrameReader`/`FrameWriter` landed: 3.22 syscalls and 12.05 allocations
/// per served frame (2 reads + 1 write per frame, fresh `Vec`s per body).
/// The buffered path must beat them by the ratios below.
const UNBUFFERED_SYSCALLS_PER_FRAME: f64 = 3.22;
const UNBUFFERED_ALLOCS_PER_FRAME: f64 = 12.05;
/// Required improvement ratios at pipeline 64: ≥5x fewer syscalls per
/// frame (ISSUE 8), and — since PR 15 took the served hit from 5.06 to 2.06
/// allocations (the request's key is decoded in place, the key kernel
/// allocates once, the handler is pinned on the stack) — ≥4.9x fewer
/// allocations: at most 2.46 per frame, about a fifth above what is
/// observed, so one allocation creeping back into the hit path trips it.
const SYSCALL_IMPROVEMENT_MIN: f64 = 5.0;
const ALLOC_IMPROVEMENT_MIN: f64 = 4.9;

/// The uninstrumented wire path's pipeline-64 loopback throughput (full
/// rounds, this container), measured at the commit immediately before the
/// telemetry layer landed — same day, same machine as the instrumented
/// run it gates, so the comparison prices the instrumentation rather than
/// the container's load drift (an earlier run of the same uninstrumented
/// code recorded 755 519 qps; the shared 1-core box moves that much).
/// The instrumented hot path — histogram records on every lookup,
/// suspension-detecting stall probes around every fill and flush — must
/// hold throughput to within [`TELEMETRY_OVERHEAD_MAX`] of it: the
/// layer's contract is "atomics on the side, never a lock on the hot
/// path", and this gate is where that contract is priced.
const UNINSTRUMENTED_P64_QPS: f64 = 696_563.4;
/// Allowed slowdown factor for the instrumented path at pipeline 64.  The
/// full-rounds gate trips at 1.10x; `--quick` runs only 2 000 loopback
/// rounds on a shared 1-core container, where warmup alone can halve the
/// observed rate, so the smoke pass widens to 2x — still tight enough to
/// catch a mutex or a syscall sneaking into the per-frame path.
const TELEMETRY_OVERHEAD_MAX: f64 = 1.10;
const TELEMETRY_OVERHEAD_MAX_QUICK: f64 = 2.0;

/// The gated pipeline-64 numbers beside their bounds.
#[derive(Serialize)]
struct Gate {
    unbuffered_syscalls_per_frame: f64,
    unbuffered_allocs_per_frame: f64,
    pipeline64_syscalls_per_frame: f64,
    pipeline64_syscalls_max: f64,
    pipeline64_allocs_per_frame: f64,
    pipeline64_allocs_max: f64,
    uninstrumented_p64_qps: f64,
    telemetry_overhead_max: f64,
    pipeline64_qps_observed: f64,
    pipeline64_qps_min: f64,
}

/// `BENCH_connection_scaling.json`.
#[derive(Serialize)]
struct ConnectionScaling {
    benchmark: String,
    quick: bool,
    loopback: Vec<PipelineRow>,
    replay: Report,
    storm: Report,
    gate: Gate,
}

fn bench_connection_scaling(quick: bool, loopback: Vec<PipelineRow>) {
    let overhead_max = if quick {
        TELEMETRY_OVERHEAD_MAX_QUICK
    } else {
        TELEMETRY_OVERHEAD_MAX
    };
    let queries = if quick { 3_200 } else { 12_800 };
    let storm_connections = if quick { 128 } else { 512 };

    // Row 1: 64 unpipelined connections replaying the skewed TPC-D trace,
    // capacity at 1% of the database (what `loadgen --spawn` builds).
    // Reported, not gated.
    let workload = Workload::tpcd_skewed(ExperimentScale::quick(queries));
    let capacity = (workload.database_bytes() as f64 * 0.01).round() as u64;
    let run = |scenario: Scenario<'_>| {
        let server = serve(ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            capacity_bytes: capacity,
            ..ServerConfig::default()
        })
        .expect("scaling server binds");
        let report = scenario
            .run(&server.addr().to_string())
            .expect("scaling scenario");
        server.join();
        report
    };
    let replay = run(Scenario {
        connections: 64,
        pipeline: 1,
        fetch_delay_us: 0,
        requests: Requests::Trace(&workload.trace),
    });
    println!(
        "\nconnection scaling: 64-conn replay p50 {} us  p95 {} us  p99 {} us ({:.0} q/s)",
        replay.latency_p50_us, replay.latency_p95_us, replay.latency_p99_us, replay.throughput_qps,
    );

    // Row 2: the storm — connections far past any sane thread count, with
    // the server's METRICS scraped while all of them are open.
    let storm = run(Scenario {
        connections: storm_connections,
        pipeline: 1,
        fetch_delay_us: 0,
        requests: Requests::Storm { rounds: 4 },
    });
    let probe = storm.storm.expect("a storm reports its probe");
    println!(
        "connection scaling: {storm_connections}-conn storm p50 {} us  p99 {} us  wall {:.2} s  \
         ({} sessions on {} server threads; {} client-side steals, {} parks)",
        storm.latency_p50_us,
        storm.latency_p99_us,
        storm.wall_s,
        probe.server_sessions,
        probe.server_threads,
        probe.client_steals,
        probe.client_parks,
    );

    let pipeline_64 = *loopback
        .iter()
        .find(|row| row.pipeline == 64)
        .expect("loopback sweep includes pipeline 64");
    let scaling = ConnectionScaling {
        benchmark: "wire_roundtrip/connection_scaling".to_owned(),
        quick,
        loopback,
        replay,
        storm,
        gate: Gate {
            unbuffered_syscalls_per_frame: UNBUFFERED_SYSCALLS_PER_FRAME,
            unbuffered_allocs_per_frame: UNBUFFERED_ALLOCS_PER_FRAME,
            pipeline64_syscalls_per_frame: pipeline_64.syscalls_per_frame,
            pipeline64_syscalls_max: UNBUFFERED_SYSCALLS_PER_FRAME / SYSCALL_IMPROVEMENT_MIN,
            pipeline64_allocs_per_frame: pipeline_64.allocs_per_frame,
            pipeline64_allocs_max: UNBUFFERED_ALLOCS_PER_FRAME / ALLOC_IMPROVEMENT_MIN,
            uninstrumented_p64_qps: UNINSTRUMENTED_P64_QPS,
            telemetry_overhead_max: overhead_max,
            pipeline64_qps_observed: pipeline_64.throughput_qps,
            pipeline64_qps_min: UNINSTRUMENTED_P64_QPS / overhead_max,
        },
    };
    // Cargo runs benches with the package directory as CWD; anchor the
    // report at the workspace root next to BENCH_policy_ops.json.  A
    // `--quick` run writes under `target/`, leaving the committed report.
    let under = if quick { "/../../target" } else { "/../.." };
    let dir = format!("{}{under}", env!("CARGO_MANIFEST_DIR"));
    let path = format!("{dir}/BENCH_connection_scaling.json");
    let json = serde_json::to_string_pretty(&scaling).expect("report serializes");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json + "\n")) {
        Ok(()) => println!("wrote {path}"),
        Err(error) => println!("could not write {path}: {error}"),
    }

    assert!(
        probe.server_sessions >= storm_connections as u32,
        "storm sessions ({}) below its connection count ({})",
        probe.server_sessions,
        storm_connections
    );
    assert!(
        probe.client_steals > 0,
        "storm reported zero client-side steals: {} connection tasks on 4 \
         workers never redistributed — is the work-stealing path wired in?",
        storm_connections
    );
    assert!(
        pipeline_64.syscalls_per_frame <= UNBUFFERED_SYSCALLS_PER_FRAME / SYSCALL_IMPROVEMENT_MIN,
        "buffered wire path regressed: {:.2} syscalls/frame at pipeline 64, \
         need <= {:.2} ({}x under the unbuffered baseline of {:.1})",
        pipeline_64.syscalls_per_frame,
        UNBUFFERED_SYSCALLS_PER_FRAME / SYSCALL_IMPROVEMENT_MIN,
        SYSCALL_IMPROVEMENT_MIN,
        UNBUFFERED_SYSCALLS_PER_FRAME,
    );
    assert!(
        pipeline_64.allocs_per_frame <= UNBUFFERED_ALLOCS_PER_FRAME / ALLOC_IMPROVEMENT_MIN,
        "buffered wire path regressed: {:.2} allocs/frame at pipeline 64, \
         need <= {:.2} ({}x under the unbuffered baseline of {:.1})",
        pipeline_64.allocs_per_frame,
        UNBUFFERED_ALLOCS_PER_FRAME / ALLOC_IMPROVEMENT_MIN,
        ALLOC_IMPROVEMENT_MIN,
        UNBUFFERED_ALLOCS_PER_FRAME,
    );
    assert!(
        pipeline_64.throughput_qps >= UNINSTRUMENTED_P64_QPS / overhead_max,
        "telemetry overhead gate: {:.0} qps at pipeline 64, need >= {:.0} \
         ({:.2}x of the uninstrumented baseline {:.0}) — a histogram record \
         or stall probe on the per-frame path got expensive",
        pipeline_64.throughput_qps,
        UNINSTRUMENTED_P64_QPS / overhead_max,
        overhead_max,
        UNINSTRUMENTED_P64_QPS,
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let rounds: u64 = if quick { 20_000 } else { 500_000 };
    let loopback_rounds: u64 = if quick { 2_000 } else { 50_000 };
    println!("wire_roundtrip: codec rounds {rounds}, loopback rounds {loopback_rounds}\n");
    bench_codec(rounds);
    let loopback = bench_loopback(loopback_rounds);
    bench_connection_scaling(quick, loopback);
    // The codec must never be the bottleneck of a session thread; fail the
    // bench loudly if it regresses below a floor even CI machines clear.
    let floor_start = Instant::now();
    let request = sample_request();
    for id in 0..10_000u64 {
        let body = wire::encode_request(id, &request);
        std::hint::black_box(wire::decode_request(&body).expect("round trip"));
    }
    let per_frame = floor_start.elapsed() / 10_000;
    assert!(
        per_frame < Duration::from_micros(50),
        "codec regressed: {per_frame:?} per frame"
    );
    println!("\ndone");
}
