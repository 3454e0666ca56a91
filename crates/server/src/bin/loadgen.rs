//! `loadgen` — drives the simulator's workloads against a `watchmand`
//! server over real sockets, from N concurrent client connections, and
//! reports cost savings ratio and client-observed latency.
//!
//! ```text
//! loadgen (--addr HOST:PORT | --spawn) [--workload tpcd_skewed|set_query_skewed|tpcd]
//!         [--clients N] [--queries N] [--pipeline N] [--fetch-delay-us N]
//!         [--cache-fraction F] [--connections N] [--rounds N] [--quick] [--shutdown]
//! ```
//!
//! `--spawn` starts a `watchmand` in-process on an ephemeral loopback port
//! (what CI smokes); `--shutdown` sends the `SHUTDOWN` opcode when done so
//! a backgrounded `watchmand` exits cleanly.
//!
//! `--connections N` switches to the **connection storm**: N simultaneously
//! open connections (256, 1 000, …) each send `--rounds` requests, and the
//! server's `SERVER_INFO` is sampled while all of them are open.  The run
//! *fails* if the server's thread count scales with the connection count —
//! the proof that sessions are tasks on the IO reactor, not threads.
//!
//! `--chaos PLAN` switches to the **fault-injection scorecard** (implies
//! `--spawn`: the fault plan is installed server-side at bind time).  PLAN
//! is `empty` or `canonical`, optionally `:SEED`.  Two chaos storms run
//! against servers configured for degradation (stale serving, breaker,
//! overload shedding, read deadlines): a fault-free baseline under the
//! empty plan, then the requested plan.  The run *fails* unless every
//! client-observed error is explained by the plan, the degradation paths
//! actually engaged (stale serves and sheds observed), and tail latency
//! stayed within 3x of the baseline.  The scorecard lands in
//! `BENCH_fault_injection.json` at the workspace root.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use watchman_core::engine::{
    BreakerConfig, FailureConfig, NegativeCacheConfig, RetryPolicy, StalenessPolicy,
};
use watchman_server::{
    run_chaos_load, run_connection_storm, serve, ChaosOptions, ChaosReport, Client, FaultPlan,
    LoadOptions, ServerConfig, ServerHandle,
};
use watchman_sim::{run_result_from_snapshot, ExperimentScale, Workload};

struct Args {
    addr: Option<String>,
    spawn: bool,
    workload: String,
    clients: usize,
    queries: usize,
    pipeline: usize,
    fetch_delay_us: u32,
    cache_fraction: f64,
    connections: usize,
    rounds: usize,
    chaos: Option<String>,
    metrics: bool,
    shutdown: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            addr: None,
            spawn: false,
            workload: "tpcd_skewed".to_owned(),
            clients: 4,
            queries: 4_000,
            pipeline: 8,
            fetch_delay_us: 0,
            cache_fraction: 0.01,
            connections: 0,
            rounds: 4,
            chaos: None,
            metrics: false,
            shutdown: false,
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: loadgen (--addr HOST:PORT | --spawn)\n\
         \x20              [--workload tpcd_skewed|set_query_skewed|tpcd] [--clients N]\n\
         \x20              [--queries N] [--pipeline N] [--fetch-delay-us N]\n\
         \x20              [--cache-fraction F] [--connections N] [--rounds N]\n\
         \x20              [--chaos empty|canonical[:SEED]] [--metrics] [--quick] [--shutdown]"
    );
    ExitCode::FAILURE
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut args = Args::default();
    let mut quick = false;
    let mut explicit_clients = None;
    let mut explicit_queries = None;
    let mut explicit_rounds = None;
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = raw.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--addr" => args.addr = Some(iter.next().ok_or_else(usage)?.clone()),
            "--spawn" => args.spawn = true,
            "--workload" => args.workload = iter.next().ok_or_else(usage)?.clone(),
            "--clients" => {
                explicit_clients = Some(iter.next().and_then(|v| v.parse().ok()).ok_or_else(usage)?)
            }
            "--queries" => {
                explicit_queries = Some(iter.next().and_then(|v| v.parse().ok()).ok_or_else(usage)?)
            }
            "--pipeline" => {
                args.pipeline = iter.next().and_then(|v| v.parse().ok()).ok_or_else(usage)?
            }
            "--fetch-delay-us" => {
                args.fetch_delay_us = iter.next().and_then(|v| v.parse().ok()).ok_or_else(usage)?
            }
            "--cache-fraction" => {
                args.cache_fraction = iter.next().and_then(|v| v.parse().ok()).ok_or_else(usage)?
            }
            "--connections" => {
                args.connections = iter.next().and_then(|v| v.parse().ok()).ok_or_else(usage)?
            }
            "--rounds" => {
                explicit_rounds = Some(iter.next().and_then(|v| v.parse().ok()).ok_or_else(usage)?)
            }
            "--chaos" => args.chaos = Some(iter.next().ok_or_else(usage)?.clone()),
            "--metrics" => args.metrics = true,
            "--quick" => quick = true,
            "--shutdown" => args.shutdown = true,
            "--help" | "-h" => return Err(usage()),
            other => {
                eprintln!("loadgen: unknown flag {other}");
                return Err(usage());
            }
        }
    }
    // --quick shrinks the *defaults* only; explicit --clients/--queries win
    // regardless of flag order.
    if quick {
        args.queries = 600;
        args.clients = 4;
        args.rounds = 2;
    }
    if args.chaos.is_some() {
        // Chaos defaults mirror ChaosOptions; --quick shortens the storm.
        args.clients = 8;
        args.rounds = if quick { 80 } else { 200 };
    }
    if let Some(clients) = explicit_clients {
        args.clients = clients;
    }
    if let Some(queries) = explicit_queries {
        args.queries = queries;
    }
    if let Some(rounds) = explicit_rounds {
        args.rounds = rounds;
    }
    if args.chaos.is_some() {
        if args.addr.is_some() {
            eprintln!(
                "loadgen: --chaos installs the fault plan server-side; use --spawn, not --addr"
            );
            return Err(usage());
        }
        // The fault plan must be wired into the server config at bind time.
        args.spawn = true;
    }
    if args.addr.is_none() && !args.spawn {
        eprintln!("loadgen: need --addr or --spawn");
        return Err(usage());
    }
    Ok(args)
}

/// Ceiling on the server-side thread count a storm tolerates, however many
/// connections it opens.  Workers (one of them drives epoll; there is no
/// reactor thread) + supervisor + client-side
/// storm machinery (under `--spawn` the server shares the process) stay
/// comfortably below this; a thread-per-session server blows through it by
/// an order of magnitude at 256 connections.
const MAX_STORM_THREADS: u32 = 32;

/// `--metrics`: scrape the `METRICS` and `TRACE_DUMP` admin opcodes from a
/// running server, assert the exposition parses at the expected schema
/// version with the core metric families present, and print a one-screen
/// summary.  This is the CI proof that a *spawned* `watchmand` actually
/// serves the telemetry surface — not just the in-process servers the
/// tests build.
fn run_metrics_scrape(addr: &str, shutdown: bool) -> ExitCode {
    let mut client = match Client::connect_with_retries(addr, 5, Duration::from_millis(50)) {
        Ok(client) => client,
        Err(err) => {
            eprintln!("loadgen: {err}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = match client.metrics() {
        Ok(metrics) => metrics,
        Err(err) => {
            eprintln!("loadgen: METRICS scrape failed: {err}");
            return ExitCode::FAILURE;
        }
    };
    if metrics.schema != watchman_core::telemetry::METRICS_SCHEMA_VERSION {
        eprintln!(
            "loadgen: METRICS schema {} does not match the client's expected {}",
            metrics.schema,
            watchman_core::telemetry::METRICS_SCHEMA_VERSION
        );
        return ExitCode::FAILURE;
    }
    // The registry always emits the full catalog, so an absent family means
    // the exposition is broken, not that the server has been idle.
    for (family, present) in [
        ("counters", !metrics.counters.is_empty()),
        (
            "gauge engine.shard_count",
            metrics.gauge("engine.shard_count") > 0,
        ),
        (
            "histogram engine.lookup.hit_us",
            metrics.histogram("engine.lookup.hit_us").is_some(),
        ),
        (
            "histogram runtime.task.poll_us",
            metrics.histogram("runtime.task.poll_us").is_some(),
        ),
    ] {
        if !present {
            eprintln!("loadgen: METRICS exposition is missing {family}");
            return ExitCode::FAILURE;
        }
    }
    let lookups: u64 = [
        "engine.lookup.hit_us",
        "engine.lookup.executed_us",
        "engine.lookup.coalesced_us",
        "engine.lookup.stale_us",
        "engine.lookup.error_us",
    ]
    .iter()
    .filter_map(|name| metrics.histogram(name))
    .map(|h| h.count)
    .sum();
    println!(
        "loadgen: METRICS schema v{} from {addr}: {} counters, {} gauges, {} histograms; \
         {} lookups, {} retries, {} sheds, uptime {:.1} s",
        metrics.schema,
        metrics.counters.len(),
        metrics.gauges.len(),
        metrics.histograms.len(),
        lookups,
        metrics.counter("engine.fetch.retries"),
        metrics.counter("server.sheds"),
        metrics.uptime_us as f64 / 1e6,
    );
    match client.trace_dump() {
        Ok(dump) => println!(
            "loadgen: TRACE_DUMP schema v{}: {} events in the ring ({} recorded overall)",
            dump.schema,
            dump.events.len(),
            dump.recorded,
        ),
        Err(err) => {
            eprintln!("loadgen: TRACE_DUMP scrape failed: {err}");
            return ExitCode::FAILURE;
        }
    }
    if shutdown {
        if let Err(err) = client.shutdown_server() {
            eprintln!("loadgen: shutdown failed: {err}");
            return ExitCode::FAILURE;
        }
        println!("loadgen: server drained");
    }
    ExitCode::SUCCESS
}

fn run_storm(addr: &str, connections: usize, rounds: usize, shutdown: bool) -> ExitCode {
    println!(
        "loadgen: storm of {connections} concurrent connections ({rounds} rounds) against {addr}"
    );
    let report = match run_connection_storm(addr, connections, rounds) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("loadgen: {err}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "  sessions {} (storm {})  server threads {}  runtime workers {}",
        report.server_sessions, report.connections, report.server_threads, report.server_workers,
    );
    println!(
        "  latency p50 {} us  p95 {} us  p99 {} us  wall {:.2} s",
        report.latency_quantile_us(0.50),
        report.latency_quantile_us(0.95),
        report.latency_quantile_us(0.99),
        report.wall.as_secs_f64(),
    );
    println!(
        "  client scheduler: {} steals, {} parks across the storm",
        report.client_steals, report.client_parks,
    );

    // The point of the storm: sessions are tasks, not threads.
    if report.server_sessions < report.connections as u32 {
        eprintln!(
            "loadgen: server saw {} sessions, expected at least the {} storm connections",
            report.server_sessions, report.connections
        );
        return ExitCode::FAILURE;
    }
    // threads == 0 means procfs is unavailable; the session-count proof
    // above still holds there, so only the thread bound is skipped.
    if report.server_threads > MAX_STORM_THREADS {
        eprintln!(
            "loadgen: {} server threads for {} connections — sessions are costing threads",
            report.server_threads, report.connections
        );
        return ExitCode::FAILURE;
    }
    println!(
        "loadgen: thread count is bounded by the pool, not the connection count ({} threads / {} sessions)",
        report.server_threads, report.server_sessions
    );

    if shutdown {
        let mut client = match Client::connect_with_retries(addr, 5, Duration::from_millis(50)) {
            Ok(client) => client,
            Err(err) => {
                eprintln!("loadgen: {err}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(err) = client.shutdown_server() {
            eprintln!("loadgen: shutdown failed: {err}");
            return ExitCode::FAILURE;
        }
        println!("loadgen: server drained");
    }
    ExitCode::SUCCESS
}

/// Tail-latency budget for a faulted storm, as a multiple of the fault-free
/// baseline's p99.  Degradation (retries, stale serves, shed-and-retry) may
/// slow the tail, but not collapse it.
const CHAOS_P99_BUDGET: f64 = 3.0;

/// Spawns a `watchmand` configured so every degradation path can engage:
/// a capacity far below the keyspace footprint (refetches — and therefore
/// stale serving of doomed keys — require eviction pressure), stale serving
/// and the circuit breaker enabled, a small admission gate so concurrent
/// executions trip overload shedding, and a read deadline that evicts
/// stalled sessions.
fn chaos_server(plan: Arc<FaultPlan>, options: &ChaosOptions) -> Result<ServerHandle, ExitCode> {
    let footprint = options.keyspace as u64 * options.result_bytes;
    serve(ServerConfig {
        capacity_bytes: footprint / 4,
        failure: FailureConfig {
            retry: RetryPolicy::default(),
            breaker: Some(BreakerConfig::default()),
            staleness: Some(StalenessPolicy {
                max_entries: options.keyspace * 4,
                min_cost_per_byte: 0.0,
                max_age_us: None,
            }),
            negative: NegativeCacheConfig::default(),
        },
        max_inflight: 4,
        read_deadline: Some(Duration::from_millis(250)),
        fault_plan: Some(plan),
        ..ServerConfig::default()
    })
    .map_err(|err| {
        eprintln!("loadgen: {err}");
        ExitCode::FAILURE
    })
}

/// One chaos storm against a freshly spawned server; the server is drained
/// before returning.
fn chaos_storm(
    label: &str,
    plan: Arc<FaultPlan>,
    options: &ChaosOptions,
) -> Result<ChaosReport, ExitCode> {
    let server = chaos_server(plan, options)?;
    let addr = server.addr().to_string();
    let report = run_chaos_load(&addr, options).map_err(|err| {
        eprintln!("loadgen: chaos {label} storm: {err}");
        ExitCode::FAILURE
    })?;
    server.join();
    println!(
        "  {label:<9} {} requests: {} ok ({} hit / {} executed / {} coalesced / {} stale), \
         {} fetch-errors, {} busy, {} reconnects, {} unexplained",
        report.requests,
        report.ok(),
        report.hits,
        report.executed,
        report.coalesced,
        report.stale,
        report.fetch_errors,
        report.busy,
        report.reconnects,
        report.unexplained,
    );
    println!(
        "  {label:<9} p50 {} us  p95 {} us  p99 {} us  wall {:.2} s  \
         server: {} stale-serves, {} sheds, {} retries, {} negative-hits, {} breaker-transitions",
        report.latency_quantile_us(0.50),
        report.latency_quantile_us(0.95),
        report.latency_quantile_us(0.99),
        report.wall.as_secs_f64(),
        report.snapshot.total.stale_serves,
        report.snapshot.sheds,
        report.snapshot.fetch_retries,
        report.snapshot.negative_hits,
        report.snapshot.breaker_transitions,
    );
    match &report.mid_storm_metrics {
        Some(metrics) => println!(
            "  {label:<9} mid-storm METRICS (schema v{}): {} retries, {} stale-serves, \
             {} sheds, {} steals, {} trace-events, fragmentation {}permille",
            metrics.schema,
            metrics.counter("engine.fetch.retries"),
            metrics
                .histogram("engine.lookup.stale_us")
                .map_or(0, |h| h.count),
            metrics.counter("server.sheds"),
            metrics.counter("runtime.scheduler.steals"),
            metrics.counter("telemetry.trace_events"),
            metrics.gauge("engine.fragmentation.used_permille"),
        ),
        None => println!("  {label:<9} mid-storm METRICS: no scrape landed"),
    }
    Ok(report)
}

fn chaos_report_json(report: &ChaosReport) -> String {
    let snapshot =
        serde_json::to_string(&report.snapshot.total).unwrap_or_else(|_| "null".to_owned());
    let mid_storm = match &report.mid_storm_metrics {
        Some(metrics) => format!(
            "{{\"schema\": {}, \"fetch_retries\": {}, \"stale_serves\": {}, \"sheds\": {}, \
             \"scheduler_steals\": {}, \"trace_events\": {}, \"fragmentation_permille\": {}}}",
            metrics.schema,
            metrics.counter("engine.fetch.retries"),
            metrics
                .histogram("engine.lookup.stale_us")
                .map_or(0, |h| h.count),
            metrics.counter("server.sheds"),
            metrics.counter("runtime.scheduler.steals"),
            metrics.counter("telemetry.trace_events"),
            metrics.gauge("engine.fragmentation.used_permille"),
        ),
        None => "null".to_owned(),
    };
    format!(
        "{{\n      \"requests\": {}, \"ok\": {}, \"hits\": {}, \"executed\": {}, \
         \"coalesced\": {}, \"stale\": {},\n      \"fetch_errors\": {}, \"busy\": {}, \
         \"reconnects\": {}, \"unexplained\": {},\n      \"latency_us\": \
         {{\"p50\": {}, \"p95\": {}, \"p99\": {}}}, \"wall_s\": {:.3},\n      \
         \"server\": {{\"stale_serves\": {}, \"sheds\": {}, \"fetch_retries\": {}, \
         \"negative_hits\": {}, \"breaker_transitions\": {}}},\n      \
         \"mid_storm_metrics\": {mid_storm},\n      \
         \"engine_totals\": {snapshot}\n    }}",
        report.requests,
        report.ok(),
        report.hits,
        report.executed,
        report.coalesced,
        report.stale,
        report.fetch_errors,
        report.busy,
        report.reconnects,
        report.unexplained,
        report.latency_quantile_us(0.50),
        report.latency_quantile_us(0.95),
        report.latency_quantile_us(0.99),
        report.wall.as_secs_f64(),
        report.snapshot.total.stale_serves,
        report.snapshot.sheds,
        report.snapshot.fetch_retries,
        report.snapshot.negative_hits,
        report.snapshot.breaker_transitions,
    )
}

/// The `--chaos` mode: a fault-free baseline storm under the empty plan,
/// then the requested plan, then the self-gating scorecard.
fn run_chaos(spec: &str, args: &Args) -> ExitCode {
    let Some(plan) = FaultPlan::parse(spec) else {
        eprintln!("loadgen: unknown fault plan {spec:?} (want empty|canonical[:SEED])");
        return usage();
    };
    let plan = Arc::new(plan);
    let options = ChaosOptions {
        clients: args.clients,
        rounds: args.rounds,
        ..ChaosOptions::default()
    };
    println!(
        "loadgen: chaos scorecard — {} clients x {} rounds over {} keys, plan {spec}",
        options.clients, options.rounds, options.keyspace
    );

    let baseline_plan = Arc::new(FaultPlan::empty(0));
    let baseline = match chaos_storm("baseline", baseline_plan, &options) {
        Ok(report) => report,
        Err(code) => return code,
    };
    let faulted = match chaos_storm("faulted", Arc::clone(&plan), &options) {
        Ok(report) => report,
        Err(code) => return code,
    };

    // The gates.  Every client-observed outcome must be explained by the
    // plan, the degradation machinery must actually have engaged, and the
    // tail must hold.
    let baseline_p99 = baseline.latency_quantile_us(0.99).max(1);
    let faulted_p99 = faulted.latency_quantile_us(0.99);
    let p99_ratio = faulted_p99 as f64 / baseline_p99 as f64;
    let mut failures: Vec<String> = Vec::new();
    if baseline.unexplained != 0 {
        failures.push(format!(
            "baseline storm saw {} unexplained errors",
            baseline.unexplained
        ));
    }
    if faulted.unexplained != 0 {
        failures.push(format!(
            "faulted storm saw {} unexplained errors",
            faulted.unexplained
        ));
    }
    if !plan.is_noop() {
        if faulted.stale == 0 && faulted.snapshot.total.stale_serves == 0 {
            failures.push("no stale serves — graceful degradation never engaged".to_owned());
        }
        if faulted.snapshot.sheds == 0 {
            failures.push("no sheds — the overload gate never engaged".to_owned());
        }
        // Clients seeing zero of these is the success story (retries and
        // stale serves absorb them) — but the plan must really have fired.
        if plan.injected_fetch_errors() == 0 {
            failures.push("the plan injected no fetch failures".to_owned());
        }
        // The observability gate: the METRICS surface must have answered
        // while the storm was live, and the counters that prove the
        // degradation and scheduling machinery engaged must have moved.
        match &faulted.mid_storm_metrics {
            None => failures.push("no METRICS scrape landed mid-storm".to_owned()),
            Some(metrics) => {
                let mut require = |name: &str, value: u64| {
                    if value == 0 {
                        failures.push(format!("mid-storm METRICS shows zero {name}"));
                    }
                };
                require("fetch retries", metrics.counter("engine.fetch.retries"));
                require("sheds", metrics.counter("server.sheds"));
                require(
                    "stale serves",
                    metrics
                        .histogram("engine.lookup.stale_us")
                        .map_or(0, |h| h.count),
                );
                require(
                    "scheduler steals",
                    metrics.counter("runtime.scheduler.steals"),
                );
                require("trace events", metrics.counter("telemetry.trace_events"));
            }
        }
    }
    if p99_ratio > CHAOS_P99_BUDGET {
        failures.push(format!(
            "faulted p99 {faulted_p99} us is {p99_ratio:.2}x the baseline {baseline_p99} us \
             (budget {CHAOS_P99_BUDGET}x)"
        ));
    }

    let json = format!(
        "{{\n  \"benchmark\": \"loadgen/chaos\",\n  \"plan\": \"{spec}\",\n  \
         \"clients\": {},\n  \"rounds\": {},\n  \"keyspace\": {},\n  \
         \"injected_fetch_errors\": {},\n  \"triggered_resets\": {:?},\n  \
         \"triggered_stalls\": {:?},\n  \"p99_ratio\": {p99_ratio:.3},\n  \
         \"p99_budget\": {CHAOS_P99_BUDGET},\n  \"gates_failed\": {:?},\n  \
         \"baseline\": {},\n  \"faulted\": {}\n}}\n",
        options.clients,
        options.rounds,
        options.keyspace,
        plan.injected_fetch_errors(),
        plan.triggered_resets(),
        plan.triggered_stalls(),
        failures,
        chaos_report_json(&baseline),
        chaos_report_json(&faulted),
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_fault_injection.json"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("loadgen: wrote {path}"),
        Err(error) => println!("loadgen: could not write {path}: {error}"),
    }

    if failures.is_empty() {
        println!(
            "loadgen: chaos gates hold — every error explained, degradation engaged, \
             p99 {p99_ratio:.2}x baseline (budget {CHAOS_P99_BUDGET}x)"
        );
        ExitCode::SUCCESS
    } else {
        for failure in &failures {
            eprintln!("loadgen: chaos gate failed: {failure}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(code) => return code,
    };

    // --chaos: the fault-injection scorecard instead of the trace replay.
    if let Some(spec) = args.chaos.clone() {
        return run_chaos(&spec, &args);
    }

    let workload = match args.workload.as_str() {
        "tpcd_skewed" => Workload::tpcd_skewed(ExperimentScale::quick(args.queries)),
        "set_query_skewed" => Workload::set_query_skewed(ExperimentScale::quick(args.queries)),
        "tpcd" => Workload::tpcd(ExperimentScale::quick(args.queries)),
        other => {
            eprintln!("loadgen: unknown workload {other}");
            return usage();
        }
    };
    let capacity = (workload.database_bytes() as f64 * args.cache_fraction).round() as u64;

    // --spawn: an in-process watchmand on an ephemeral loopback port (the
    // exact server the standalone binary runs).
    let spawned = if args.spawn {
        match serve(ServerConfig {
            capacity_bytes: capacity,
            ..ServerConfig::default()
        }) {
            Ok(handle) => Some(handle),
            Err(err) => {
                eprintln!("loadgen: {err}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let addr = match (&args.addr, &spawned) {
        (Some(addr), _) => addr.clone(),
        (None, Some(handle)) => handle.addr().to_string(),
        (None, None) => unreachable!("validated in parse_args"),
    };

    // --metrics: scrape the telemetry admin surface instead of replaying.
    if args.metrics {
        let code = run_metrics_scrape(&addr, args.shutdown);
        if let Some(handle) = spawned {
            handle.join();
        }
        return code;
    }

    // --connections: the high-concurrency storm instead of the trace replay.
    if args.connections > 0 {
        let code = run_storm(&addr, args.connections, args.rounds, args.shutdown);
        if let Some(handle) = spawned {
            handle.join();
        }
        return code;
    }

    println!(
        "loadgen: {} queries of {} over {} clients (pipeline {}) against {addr}",
        workload.trace.len(),
        args.workload,
        args.clients,
        args.pipeline
    );

    let options = LoadOptions {
        clients: args.clients,
        pipeline: args.pipeline,
        fetch_delay_us: args.fetch_delay_us,
        payload_prefix_cap: 0,
    };
    let report = match watchman_server::run_load(&addr, &workload.trace, &options) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("loadgen: {err}");
            return ExitCode::FAILURE;
        }
    };

    let mut client = match Client::connect_with_retries(&addr, 5, Duration::from_millis(50)) {
        Ok(client) => client,
        Err(err) => {
            eprintln!("loadgen: {err}");
            return ExitCode::FAILURE;
        }
    };
    let snapshot = match client.stats() {
        Ok(snapshot) => snapshot,
        Err(err) => {
            eprintln!("loadgen: {err}");
            return ExitCode::FAILURE;
        }
    };
    let result = run_result_from_snapshot(
        format!("{} over wire", args.workload),
        capacity,
        args.cache_fraction,
        &snapshot,
    );

    println!(
        "  csr {:.4}  hr {:.4}  refs {}  hits {}  coalesced {}  misses {}",
        result.cost_savings_ratio,
        result.hit_ratio,
        snapshot.total.references,
        snapshot.total.hits,
        snapshot.total.coalesced,
        snapshot.total.misses(),
    );
    println!(
        "  throughput {:.0} q/s  batch latency mean {:.0} us  p50 {} us  p95 {} us  p99 {} us",
        report.throughput_qps(),
        report.latency_mean_us(),
        report.latency_quantile_us(0.50),
        report.latency_quantile_us(0.95),
        report.latency_quantile_us(0.99),
    );

    // Sanity: every reference must be accounted exactly once.
    if snapshot.total.references
        != snapshot.total.hits + snapshot.total.coalesced + snapshot.total.misses()
    {
        eprintln!("loadgen: reference accounting violated");
        return ExitCode::FAILURE;
    }

    if args.shutdown {
        if let Err(err) = client.shutdown_server() {
            eprintln!("loadgen: shutdown failed: {err}");
            return ExitCode::FAILURE;
        }
        println!("loadgen: server drained");
    }
    if let Some(handle) = spawned {
        handle.join();
    }
    ExitCode::SUCCESS
}
