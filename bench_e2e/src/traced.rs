//! The traced run (`--trace 1`): where the time goes, one layer at a time.
//!
//! Three parts, all on the workload's own request sequence:
//!
//! 1. a **live phase** set up exactly as the end-to-end run (child
//!    `watchmand`, same connection) but bracketed by `METRICS` scrapes and
//!    `/proc/<pid>/task` reads — what the program and the kernel count;
//! 2. two **in-process passes** over the `TRACED_REQUESTS` requests after
//!    the warm-up, one connection to a `serve()` inside this process: the
//!    first untraced (under the counting allocator and `net::stats`), the
//!    second with a span around every call — their throughput ratio is the
//!    tracing overhead;
//! 3. the **ladder**: the same requests replayed through each layer alone —
//!    key derivation, the bare policy, a 1-shard engine, the codec, the
//!    framing — so that a round trip and an engine call can each be written
//!    as a sum of parts with the residual as its own number.
//!
//! Spans are kept in memory and written to
//! `<target dir>/bench_e2e/trace-<workload>.jsonl` when the run ends.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::alloc_count::counted;
use crate::layers::{
    self, Connection, Dependencies, Engine, Key, LocalServer, MetricsDelta, Policy, Reader, Source,
    Trace, Writer,
};
use crate::procfs::CpuTime;
use crate::report::Samples;
use crate::spans::{Recorder, Total, BATCH};
use crate::stats::{mean, percentile, percentile_us};
use crate::workloads::{self, Cursor, Phase, Sequence, Spec, Timed, Until, TRACED_REQUESTS};
use crate::{engine_run, metrics, wire_run, Options, Outcome};

pub fn run(spec: &Spec, options: &Options) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let requests = if options.quick {
        TRACED_REQUESTS / 20
    } else {
        TRACED_REQUESTS
    };
    // One repeat of the end-to-end run, at a third of `--seconds` where
    // phases are time-bound; the passes and the ladder are count-bound and
    // take about the other two thirds.
    let live = match spec.phase {
        Phase::Share { .. } => Timed::Seconds(options.seconds / 3.0),
        Phase::Requests(requests) => Timed::Requests(requests),
    };
    // The trace of the end-to-end run's first repeat.
    let seed = crate::end_to_end::sub_seed(options.seed, 0);
    if spec.wire {
        live_wire(spec, seed, live, &mut outcome)?;
    } else {
        live_engine(spec, seed, live, &mut outcome)?;
    }

    let trace = layers::generate_trace(spec.trace, spec.queries, seed);
    trace_shape(&trace, &mut outcome.samples);
    let signatures = wire_run::signatures(spec, &trace);
    let mut recorder = Recorder::new();
    let samples = &mut outcome.samples;
    samples.push("trace.span_cost_ns", recorder.span_cost_ns as f64);

    let service_us = if spec.wire {
        let untraced = wire_pass(spec, &trace, &signatures, requests, None)?;
        let traced = wire_pass(spec, &trace, &signatures, requests, Some(&mut recorder))?;
        let served = untraced.tally.requests as f64;
        samples.push(
            "process.allocs_per_req",
            untraced.allocations as f64 / served,
        );
        samples.push(
            "process.alloc_bytes_per_req",
            untraced.allocated_bytes as f64 / served,
        );
        samples.push(
            "runtime.net.syscalls_per_req",
            untraced.syscalls as f64 / served,
        );
        samples.push("trace.overhead_ratio", untraced.seconds / traced.seconds);
        for pass in [&untraced, &traced] {
            outcome.attempted += pass.tally.attempted;
            outcome.failed += pass.tally.failed;
            if let Some(why) = &pass.tally.first_failure {
                outcome.violations.push(format!("in-process pass: {why}"));
            }
        }
        (traced.tally.service_hit_us + traced.tally.service_miss_us) as f64
            / traced.tally.requests as f64
    } else {
        let untraced = engine_pass(spec, &trace, requests, None);
        let traced = engine_pass(spec, &trace, requests, Some(&mut recorder));
        let calls = untraced.calls as f64;
        samples.push(
            "process.allocs_per_req",
            untraced.allocations as f64 / calls,
        );
        samples.push(
            "process.alloc_bytes_per_req",
            untraced.allocated_bytes as f64 / calls,
        );
        samples.push("trace.overhead_ratio", untraced.seconds / traced.seconds);
        outcome.attempted += untraced.calls + traced.calls;
        0.0
    };

    ladder(spec, &trace, &signatures, requests, &mut recorder, samples);
    budget(spec, &recorder, service_us, samples);

    let path = span_file(spec.name);
    match recorder.write_jsonl(&path) {
        Ok(()) => println!(
            "spans {} {} spans written",
            path.display(),
            recorder.spans().len()
        ),
        Err(error) => outcome
            .violations
            .push(format!("{}: {error}", path.display())),
    }
    // The driver wants every per-layer metric on every workload; a layer
    // this workload never entered did 0 work there.
    for metric in &metrics::PER_LAYER {
        if !outcome.samples.has(metric.name) {
            outcome.samples.push(metric.name, 0.0);
        }
    }
    Ok(outcome)
}

/// Beside the binaries, in the cargo target directory.
fn span_file(workload: &str) -> PathBuf {
    let target = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.to_path_buf()))
        .unwrap_or_else(|| PathBuf::from("."));
    target
        .join("bench_e2e")
        .join(format!("trace-{workload}.jsonl"))
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

// ---------------------------------------------------------------------------
// part 1: the live phase
// ---------------------------------------------------------------------------

fn live_wire(spec: &Spec, seed: u64, timed: Timed, outcome: &mut Outcome) -> Result<(), String> {
    let mut repeat = wire_run::repeat(spec, seed, timed, true)?;
    let scrape = repeat.scrape.take().expect("scrape was requested");
    let tally = &mut repeat.tally;
    let requests = tally.requests as f64;
    let samples = &mut outcome.samples;
    samples.push("trace.generate_s", repeat.generate_s);
    samples.push_some(
        "latency_p50_us",
        percentile_us(&mut tally.round_trip_ns, 0.5),
    );
    samples.push_some(
        "latency_p99_us",
        percentile_us(&mut tally.round_trip_ns, 0.99),
    );
    samples.push_some("hit_latency_p50_us", percentile_us(&mut tally.hit_ns, 0.5));
    samples.push_some(
        "miss_latency_p50_us",
        percentile_us(&mut tally.miss_ns, 0.5),
    );
    samples.push_some(
        "update_latency_p50_us",
        percentile_us(&mut tally.update_ns, 0.5),
    );
    samples.push(
        "failed_share",
        ratio(tally.failed as f64, tally.attempted as f64),
    );
    samples.push(
        "coherence.invalidated_per_call",
        ratio(tally.invalidated as f64, tally.updates as f64),
    );
    samples.push(
        "coherence.affected_per_call",
        ratio(tally.affected as f64, tally.updates as f64),
    );
    samples.push(
        "server.service_hit_us_mean",
        ratio(tally.service_hit_us as f64, tally.hits as f64),
    );
    samples.push(
        "server.service_miss_us_mean",
        ratio(tally.service_miss_us as f64, tally.executed as f64),
    );
    samples.push("client.rtt_mean_us", mean(&tally.round_trip_ns) / 1_000.0);
    samples.push(
        "client.cpu_us_per_req",
        repeat.client_cpu.total_us() / requests,
    );
    samples.push("process.server_threads", scrape.threads as f64);
    samples.push(
        "process.server_ctx_switches_per_req",
        scrape.switches as f64 / requests,
    );
    samples.push("telemetry.metrics_scrape_us", scrape.scrape_us);
    policy_counts(&repeat.counters, samples);
    cpu_shares(&repeat.server_cpu, samples);
    scraped(
        &MetricsDelta {
            before: &scrape.before,
            after: &scrape.after,
        },
        requests,
        samples,
    );
    outcome.attempted += tally.attempted;
    outcome.failed += tally.failed;
    outcome.violations.append(&mut repeat.violations);
    Ok(())
}

fn live_engine(spec: &Spec, seed: u64, timed: Timed, outcome: &mut Outcome) -> Result<(), String> {
    let mut repeat = engine_run::repeat(spec, seed, timed, true)?;
    let (before, after) = repeat.metrics.take().expect("scrape was requested");
    let tally = &mut repeat.tally;
    let calls = tally.calls as f64;
    let samples = &mut outcome.samples;
    samples.push("trace.generate_s", repeat.generate_s);
    // Split by outcome before sorting: `call_ns` is in call order, as
    // `sources` is.
    let mut hit_ns = tally.latencies_of(Source::Hit);
    let mut miss_ns = tally.latencies_of(Source::Executed);
    samples.push_some("hit_latency_p50_us", percentile_us(&mut hit_ns, 0.5));
    samples.push_some("miss_latency_p50_us", percentile_us(&mut miss_ns, 0.5));
    samples.push_some("latency_p50_us", percentile_us(&mut tally.call_ns, 0.5));
    samples.push_some("latency_p99_us", percentile_us(&mut tally.call_ns, 0.99));
    // No server: the process holding the cache is this one.
    samples.push("process.server_threads", repeat.threads as f64);
    samples.push(
        "process.server_ctx_switches_per_req",
        repeat.switches as f64 / calls,
    );
    policy_counts(&repeat.counters, samples);
    cpu_shares(&repeat.cpu, samples);
    scraped(
        &MetricsDelta {
            before: &before,
            after: &after,
        },
        calls,
        samples,
    );
    outcome.attempted += tally.calls;
    outcome.violations.append(&mut repeat.violations);
    Ok(())
}

fn policy_counts(counters: &layers::Counters, samples: &mut Samples) {
    samples.push("policy.admitted", counters.admitted as f64);
    samples.push("policy.rejected", counters.rejected as f64);
    samples.push("policy.evictions", counters.evictions as f64);
    samples.push(
        "policy.admit_ratio",
        ratio(counters.admitted as f64, counters.offered as f64),
    );
    samples.push(
        "policy.evictions_per_admit",
        ratio(counters.evictions as f64, counters.admitted as f64),
    );
    samples.push("policy.resident_entries", counters.entries as f64);
}

fn cpu_shares(cpu: &CpuTime, samples: &mut Samples) {
    samples.push(
        "process.server_user_cpu_share",
        ratio(cpu.user_us, cpu.total_us()),
    );
    samples.push(
        "process.server_sys_cpu_share",
        ratio(cpu.sys_us, cpu.total_us()),
    );
}

/// What the program's own telemetry says the phase did.
fn scraped(delta: &MetricsDelta<'_>, requests: f64, samples: &mut Samples) {
    for (metric, histogram, q) in [
        ("engine.lookup.hit_us.p50", "engine.lookup.hit_us", 0.50),
        ("engine.lookup.hit_us.p99", "engine.lookup.hit_us", 0.99),
        (
            "engine.lookup.executed_us.p50",
            "engine.lookup.executed_us",
            0.50,
        ),
        (
            "engine.lookup.executed_us.p99",
            "engine.lookup.executed_us",
            0.99,
        ),
        (
            "engine.singleflight.wait_us.p99",
            "engine.singleflight.wait_us",
            0.99,
        ),
        (
            "server.session.read_stall_us.p99",
            "server.session.read_stall_us",
            0.99,
        ),
        (
            "server.session.write_stall_us.p99",
            "server.session.write_stall_us",
            0.99,
        ),
        ("runtime.task.poll_us.p50", "runtime.task.poll_us", 0.50),
        ("runtime.task.poll_us.p99", "runtime.task.poll_us", 0.99),
        ("runtime.timer.lag_us.p99", "runtime.timer.lag_us", 0.99),
    ] {
        samples.push(metric, delta.quantile(histogram, q));
    }
    samples.push("engine.evictions", delta.counter("engine.evictions"));
    samples.push(
        "engine.fragmentation.used_permille",
        delta.gauge("engine.fragmentation.used_permille"),
    );
    samples.push("server.sheds", delta.counter("server.sheds"));
    samples.push("runtime.long_polls", delta.counter("runtime.long_polls"));
    samples.push(
        "runtime.reactor.wakeups_per_req",
        delta.counter("runtime.reactor.wakeups") / requests,
    );
    samples.push(
        "runtime.scheduler.steals",
        delta.counter("runtime.scheduler.steals"),
    );
    samples.push(
        "runtime.scheduler.parks_per_req",
        delta.counter("runtime.scheduler.parks") / requests,
    );
    samples.push(
        "telemetry.trace_events_per_req",
        delta.counter("telemetry.trace_events") / requests,
    );
}

/// How much the trace shares: distinct keys and the bytes they would
/// occupy if all were cached at once.
fn trace_shape(trace: &Trace, samples: &mut Samples) {
    let mut distinct: HashMap<&str, u64> = HashMap::new();
    let mut total_bytes = 0;
    for index in 0..trace.len() {
        let query = trace.query(index);
        distinct.insert(query.text, query.result_bytes);
        total_bytes += query.result_bytes;
    }
    samples.push("trace.distinct_keys", distinct.len() as f64);
    samples.push(
        "trace.footprint_bytes",
        distinct.values().sum::<u64>() as f64,
    );
    samples.push(
        "trace.mean_result_bytes",
        total_bytes as f64 / trace.len() as f64,
    );
}

// ---------------------------------------------------------------------------
// part 2: the in-process passes
// ---------------------------------------------------------------------------

struct WirePass {
    tally: wire_run::Tally,
    seconds: f64,
    allocations: u64,
    allocated_bytes: u64,
    syscalls: u64,
}

/// One connection to a fresh in-process server: the warm-up, then
/// `requests` measured requests, with a span around every call when a
/// recorder is given.
fn wire_pass(
    spec: &Spec,
    trace: &Trace,
    signatures: &[u64],
    requests: usize,
    recorder: Option<&mut Recorder>,
) -> Result<WirePass, String> {
    let server = LocalServer::start(spec.capacity_bytes(trace))?;
    let mut connection = Connection::open(&server.addr())?;
    let cursor = Cursor::new();
    let sequence = Sequence {
        spec,
        trace,
        signatures,
        cursor: &cursor,
    };
    // The warm-up only has to leave the cache in the state the measured
    // requests start from; one connection sends it in order at any depth,
    // so it goes deep and fast.
    let deep = Spec {
        pipeline: 32,
        ..*spec
    };
    let warm_up = Sequence {
        spec: &deep,
        ..sequence
    };
    let mut warm = wire_run::Tally::default();
    let until = Until::Position(spec.warmup);
    wire_run::drive(&mut connection, warm_up, until, &mut warm, None, None);
    let mut tally = wire_run::Tally::default();
    let until = Until::Position(spec.warmup + requests);
    let syscalls = layers::net_syscalls();
    let started = Instant::now();
    let ((), allocations, allocated_bytes) =
        counted(|| wire_run::drive(&mut connection, sequence, until, &mut tally, None, recorder));
    let seconds = started.elapsed().as_secs_f64();
    let syscalls = layers::net_syscalls() - syscalls;
    drop(connection);
    server.stop();
    tally.absorb_failures(warm);
    Ok(WirePass {
        tally,
        seconds,
        allocations,
        allocated_bytes,
        syscalls,
    })
}

struct EnginePass {
    calls: u64,
    seconds: f64,
    allocations: u64,
    allocated_bytes: u64,
}

fn engine_pass(
    spec: &Spec,
    trace: &Trace,
    requests: usize,
    recorder: Option<&mut Recorder>,
) -> EnginePass {
    let engine = Engine::new(engine_run::SHARDS, spec.capacity_bytes(trace));
    let cursor = Cursor::new();
    let sequence = Sequence {
        spec,
        trace,
        signatures: &[],
        cursor: &cursor,
    };
    let until = Until::Position(spec.warmup);
    engine_run::drive(
        &engine,
        sequence,
        until,
        &mut engine_run::Tally::default(),
        None,
    );
    let mut tally = engine_run::Tally::default();
    let until = Until::Position(spec.warmup + requests);
    let started = Instant::now();
    let ((), allocations, allocated_bytes) =
        counted(|| engine_run::drive(&engine, sequence, until, &mut tally, recorder));
    EnginePass {
        calls: tally.calls,
        seconds: started.elapsed().as_secs_f64(),
        allocations,
        allocated_bytes,
    }
}

// ---------------------------------------------------------------------------
// part 3: the ladder
// ---------------------------------------------------------------------------

const KEY: &str = "QueryKey::from_raw_query";
const POLICY_GET: &str = "QueryCache::get";
const POLICY_INSERT: &str = "QueryCache::insert";
const POLICY_REMOVE: &str = "QueryCache::remove";
const ENGINE_CALL: &str = "Watchman::get_or_execute";
const ENGINE_HIT: &str = "Watchman::get_or_execute[hit]";
const ENGINE_MISS: &str = "Watchman::get_or_execute[miss]";
const ENGINE_INVALIDATE: &str = "Watchman::invalidate_relation";
const ENGINE_SNAPSHOT: &str = "Watchman::stats_snapshot";
const ENCODE_REQUEST: &str = "wire::encode_request_into";
const DECODE_REQUEST: &str = "wire::decode_request";
const ENCODE_RESPONSE: &str = "wire::encode_response_into";
const DECODE_RESPONSE: &str = "wire::decode_response";
const FRAME_READER: &str = "FrameReader::feed+try_next_fed_frame";
const FRAME_WRITER: &str = "FrameWriter::stage_response";

/// The measured positions, cut into stretches of at most `BATCH` that never
/// straddle an update: the update due after position `p` (when `p + 1` is a
/// multiple of `invalidate_every`) is applied between two stretches.
fn stretches(spec: &Spec, requests: usize) -> Vec<std::ops::Range<usize>> {
    let end = spec.warmup + requests;
    let mut out = Vec::new();
    let mut start = spec.warmup;
    while start < end {
        let mut stop = end.min(start + BATCH);
        if let Some(updates_before) = start.checked_div(spec.invalidate_every) {
            stop = stop.min((updates_before + 1) * spec.invalidate_every);
        }
        out.push(start..stop);
        start = stop;
    }
    out
}

/// The relation the update due after `stretch` touches, if one is due.
fn update_after<'a>(
    spec: &Spec,
    trace: &'a Trace,
    stretch: &std::ops::Range<usize>,
) -> Option<&'a str> {
    let every = spec.invalidate_every;
    (every > 0 && stretch.end.is_multiple_of(every))
        .then(|| trace.relations[(stretch.end / every - 1) % trace.relations.len()].as_str())
}

/// `get`, and `insert` on a miss, for each position; `admitted` collects
/// the `(position, trace index)` of every set the policy let in.
fn policy_replay(
    policies: &mut [Policy],
    spec: &Spec,
    trace: &Trace,
    keys: &[Key],
    positions: std::ops::Range<usize>,
    admitted: &mut Vec<(usize, usize)>,
    mut recorder: Option<&mut Recorder>,
) {
    for position in positions {
        let request = workloads::at(spec, trace, position);
        let policy = &mut policies[layers::shard_of(&keys[position], policies.len())];
        if policy.get(&keys[position], request.timestamp_us) {
            continue;
        }
        let span = recorder
            .as_mut()
            .map(|r| r.open(POLICY_INSERT, position as u64));
        if policy.insert(keys[position].clone(), request.query, request.timestamp_us) {
            admitted.push((position, request.index));
        }
        if let (Some(recorder), Some(span)) = (recorder.as_mut(), span) {
            recorder.close(span, 1);
        }
    }
}

fn ladder(
    spec: &Spec,
    trace: &Trace,
    signatures: &[u64],
    requests: usize,
    recorder: &mut Recorder,
    samples: &mut Samples,
) {
    let end = spec.warmup + requests;
    let capacity = spec.capacity_bytes(trace);
    let stretches = stretches(spec, requests);

    // Rung: key derivation, every measured request's text.
    let rung = recorder.open("ladder.key", spec.warmup as u64);
    for stretch in &stretches {
        let span = recorder.open(KEY, stretch.start as u64);
        for position in stretch.clone() {
            std::hint::black_box(layers::derive_key(
                &workloads::at(spec, trace, position).text(),
            ));
        }
        recorder.close(span, stretch.len() as u32);
    }
    recorder.close(rung, 1);

    // The stateful rungs take ready-made keys, as the engine's callers do.
    let keys: Vec<Key> = (0..end)
        .map(|position| layers::derive_key(&workloads::at(spec, trace, position).text()))
        .collect();

    // Rungs: the bare policies — get, and insert on a miss, on the shard's
    // policy — and an engine over as many shards of the same size: the same
    // policies plus routing, the shard lock, single-flight, statistics and
    // telemetry around them.  (Not one shard with the whole capacity: LNC
    // admission is linear in a shard's entries, and one big shard costs
    // 10x what the four live ones do.)  The two replay each stretch one
    // after the other, so a slow spell of the machine lands on both sides
    // of `engine − policy`.
    let rung = recorder.open("ladder.policy+engine", spec.warmup as u64);
    let mut policies = Policy::sharded(engine_run::SHARDS, capacity);
    let engine = Engine::new(engine_run::SHARDS, capacity);
    let mut policy_dependencies = Dependencies::default();
    let mut engine_dependencies = Dependencies::default();
    let mut admitted = Vec::new();
    policy_replay(
        &mut policies,
        spec,
        trace,
        &keys,
        0..spec.warmup,
        &mut admitted,
        None,
    );
    for (position, key) in keys.iter().enumerate().take(spec.warmup) {
        let request = workloads::at(spec, trace, position);
        engine.lookup(key, request.query, request.timestamp_us);
    }
    for stretch in &stretches {
        admitted.clear();
        let span = recorder.open(POLICY_GET, stretch.start as u64);
        policy_replay(
            &mut policies,
            spec,
            trace,
            &keys,
            stretch.clone(),
            &mut admitted,
            Some(&mut *recorder),
        );
        recorder.close(span, stretch.len() as u32);
        if spec.invalidate_every > 0 {
            for &(position, index) in &admitted {
                policy_dependencies.register(keys[position].clone(), trace.relations_read(index));
            }
        }
        for position in stretch.clone() {
            let request = workloads::at(spec, trace, position);
            let span = recorder.open(ENGINE_CALL, position as u64);
            let (source, admitted) =
                engine.lookup(&keys[position], request.query, request.timestamp_us);
            let name = if source == Source::Hit {
                ENGINE_HIT
            } else {
                ENGINE_MISS
            };
            recorder.close_as(span, name, 1);
            if admitted && spec.invalidate_every > 0 {
                engine_dependencies
                    .register(keys[position].clone(), trace.relations_read(request.index));
            }
        }
        if let Some(relation) = update_after(spec, trace, stretch) {
            for key in policy_dependencies.take_affected(relation) {
                policies[layers::shard_of(&key, engine_run::SHARDS)].remove(&key);
            }
            let span = recorder.open(ENGINE_INVALIDATE, stretch.end as u64);
            engine.invalidate_relation(&mut engine_dependencies, relation);
            recorder.close(span, 1);
        }
    }
    for chunk in keys[spec.warmup..].chunks(BATCH) {
        let span = recorder.open(POLICY_REMOVE, 0);
        for key in chunk {
            let policy = &mut policies[layers::shard_of(key, engine_run::SHARDS)];
            std::hint::black_box(policy.remove(key));
        }
        recorder.close(span, chunk.len() as u32);
    }
    for _ in 0..16 {
        let span = recorder.open(ENGINE_SNAPSHOT, 0);
        std::hint::black_box(engine.counters());
        recorder.close(span, 1);
    }
    recorder.close(rung, 1);

    // Rung: codec and framing, socket-free.  Responses are what the server
    // would send on a hit (the synthesis rule, cut to the payload cap).
    let rung = recorder.open("ladder.wire", spec.warmup as u64);
    let (mut request_bytes, mut response_bytes) = (0usize, 0usize);
    for stretch in &stretches {
        let first = stretch.start as u64;
        let count = stretch.len() as u32;
        let (mut wire_requests, mut wire_responses) = (Vec::new(), Vec::new());
        for position in stretch.clone() {
            let request = workloads::at(spec, trace, position);
            wire_requests.push(layers::wrap_request(layers::get_request(
                &request.text(),
                request.query,
                request.timestamp_us,
                spec.payload_cap,
            )));
            wire_responses.push(layers::wrap_response(layers::synthetic_response(
                request.signature(signatures),
                request.query,
                spec.payload_cap,
            )));
        }
        // Frames laid end to end, as they cross a socket: `bounds` holds each
        // body's range, with its 4-byte length prefix just before it.
        let mut encode = |name: &'static str, encode_one: &mut dyn FnMut(&mut Vec<u8>, usize)| {
            let mut frames: Vec<u8> = Vec::new();
            let mut bounds = Vec::with_capacity(stretch.len());
            let span = recorder.open(name, first);
            for item in 0..stretch.len() {
                frames.extend_from_slice(&[0; 4]);
                let start = frames.len();
                encode_one(&mut frames, item);
                let len = (frames.len() - start) as u32;
                frames[start - 4..start].copy_from_slice(&len.to_le_bytes());
                bounds.push(start..frames.len());
            }
            recorder.close(span, count);
            (frames, bounds)
        };
        let (request_frames, request_bounds) = encode(ENCODE_REQUEST, &mut |out, item| {
            layers::encode_request_into(out, first + item as u64, &wire_requests[item]);
        });
        let (response_frames, response_bounds) = encode(ENCODE_RESPONSE, &mut |out, item| {
            assert!(layers::encode_response_into(
                out,
                first + item as u64,
                &wire_responses[item]
            ));
        });
        request_bytes += request_frames.len();
        response_bytes += response_frames.len();

        let span = recorder.open(DECODE_REQUEST, first);
        for body in &request_bounds {
            assert!(layers::decode_request(&request_frames[body.clone()]));
        }
        recorder.close(span, count);
        let span = recorder.open(DECODE_RESPONSE, first);
        for body in &response_bounds {
            assert!(layers::decode_response(&response_frames[body.clone()]));
        }
        recorder.close(span, count);

        // The server's reader sees as many request frames per `recv` as the
        // client pipelines.
        let mut reader = Reader::new();
        let span = recorder.open(FRAME_READER, first);
        for burst in request_bounds.chunks(spec.pipeline) {
            let bytes = burst[0].start - 4..burst[burst.len() - 1].end;
            reader.feed(&request_frames[bytes]);
            for body in burst {
                assert_eq!(reader.try_next_fed_frame(), Some(body.len()));
            }
        }
        recorder.close(span, count);
        // A writer per stretch: its buffer cannot be flushed without a
        // socket, so staging cost here includes growing it once.
        let mut writer = Writer::new();
        let span = recorder.open(FRAME_WRITER, first);
        for (item, response) in wire_responses.iter().enumerate() {
            assert!(writer.stage_response(first + item as u64, response));
        }
        recorder.close(span, count);
    }
    recorder.close(rung, 1);
    samples.push(
        "wire.request_bytes_per_op",
        request_bytes as f64 / requests as f64,
    );
    samples.push(
        "wire.response_bytes_per_op",
        response_bytes as f64 / requests as f64,
    );
}

// ---------------------------------------------------------------------------
// the additive budget
// ---------------------------------------------------------------------------

fn budget(spec: &Spec, recorder: &Recorder, service_us: f64, samples: &mut Samples) {
    let totals = recorder.totals();
    let of = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per_call = |name: &str| of(name).total_ns_per_call();

    samples.push("key.derive_ns_per_op", per_call(KEY));
    samples.push("policy.get_ns_per_op", of(POLICY_GET).self_ns_per_call());
    samples.push("policy.insert_ns_per_miss", per_call(POLICY_INSERT));
    samples.push("policy.remove_ns_per_op", per_call(POLICY_REMOVE));
    let mut inserts: Vec<u64> = recorder
        .spans()
        .iter()
        .filter(|span| span.name == POLICY_INSERT)
        .map(|span| span.duration_ns())
        .collect();
    inserts.sort_unstable();
    samples.push_some(
        "policy.insert_p99_ns",
        percentile(&inserts, 0.99).map(|ns| ns as f64),
    );
    samples.push("engine.lookup_hit_ns_per_op", per_call(ENGINE_HIT));
    samples.push("engine.lookup_miss_ns_per_op", per_call(ENGINE_MISS));
    samples.push(
        "engine.stats_snapshot_us",
        per_call(ENGINE_SNAPSHOT) / 1_000.0,
    );
    samples.push(
        "coherence.invalidate_us_per_call",
        per_call(ENGINE_INVALIDATE) / 1_000.0,
    );
    for (metric, name) in [
        ("wire.encode_request_ns_per_op", ENCODE_REQUEST),
        ("wire.decode_request_ns_per_op", DECODE_REQUEST),
        ("wire.encode_response_ns_per_op", ENCODE_RESPONSE),
        ("wire.decode_response_ns_per_op", DECODE_RESPONSE),
        ("wire.frame_reader_ns_per_frame", FRAME_READER),
        ("wire.frame_writer_stage_ns_per_frame", FRAME_WRITER),
    ] {
        samples.push(metric, per_call(name));
    }

    // engine call = policy + overhead (key derivation happens before the call).
    let (hits, misses) = (of(ENGINE_HIT), of(ENGINE_MISS));
    let engine_ns = ratio(
        (hits.total_ns + misses.total_ns) as f64,
        (hits.calls + misses.calls) as f64,
    );
    let policy_ns = of(POLICY_GET).total_ns_per_call();
    let overhead_ns = engine_ns - policy_ns;
    samples.push("engine.overhead_ns_per_op", overhead_ns);
    println!(
        "budget {} engine_call_us {:.3} = policy_us {:.3} + overhead_us {:.3} (policy share {:.1}%; key_us {:.3} before the call)",
        spec.name,
        engine_ns / 1e3,
        policy_ns / 1e3,
        overhead_ns / 1e3,
        100.0 * ratio(policy_ns, engine_ns),
        per_call(KEY) / 1e3,
    );

    // round trip = client codec + server service + server codec + residual.
    if spec.wire {
        let round_trip_us = per_call("live.get_many") / 1e3;
        let client_codec_us = (per_call(ENCODE_REQUEST) + per_call(DECODE_RESPONSE)) / 1e3;
        let server_codec_us = (per_call(DECODE_REQUEST)
            + per_call(ENCODE_RESPONSE)
            + per_call(FRAME_READER)
            + per_call(FRAME_WRITER))
            / 1e3;
        let residual_us = round_trip_us - client_codec_us - service_us - server_codec_us;
        samples.push("server.transport_residual_us_per_req", residual_us);
        println!(
            "budget {} round_trip_us {round_trip_us:.3} = client_codec_us {client_codec_us:.3} + server_service_us {service_us:.3} + server_codec_us {server_codec_us:.3} + transport_residual_us {residual_us:.3}",
            spec.name
        );
    }
    println!(
        "self-time {} span, spans, calls, total_us, self_us",
        spec.name
    );
    for (
        name,
        Total {
            spans,
            calls,
            total_ns,
            self_ns,
        },
    ) in &totals
    {
        println!(
            "self-time {} {name}, {spans}, {calls}, {:.1}, {:.1}",
            spec.name,
            *total_ns as f64 / 1e3,
            *self_ns as f64 / 1e3
        );
    }
}
