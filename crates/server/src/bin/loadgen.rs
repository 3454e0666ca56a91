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
//! Every mode runs one [`Scenario`] and reads its one [`Report`].  A trace
//! replay or a storm *fails* unless the client's tally equals the server's
//! `STATS` delta over the run (requests, hits, executions, coalesced, stale
//! and fetch-error counts, one for one), which also holds against a server
//! that has served other traffic before.
//!
//! `--connections N` switches from the trace replay to the **connection
//! storm**: N simultaneously open connections (256, 1 000, …) each send
//! `--rounds` requests, and the server's `METRICS` is scraped while all of
//! them are open.  The run also *fails* if the server's thread count
//! scales with the connection count — the proof that sessions are tasks on
//! the IO reactor, not threads.
//!
//! `--chaos PLAN` switches to the **fault-injection scorecard** (implies
//! `--spawn`: the fault plan is installed server-side at bind time).  PLAN
//! is `empty` or `canonical`, optionally `:SEED`.  Two sweeps run against
//! servers configured for degradation (stale serving, breaker, overload
//! shedding, read deadlines): a fault-free baseline under the empty plan,
//! then the requested plan.  The gates count outcomes only: the run *fails*
//! unless every client-observed error is explained by the plan, the client
//! buckets sum to the requests, the engine saw at least every answered
//! request, the plan actually fired, and the degradation counters moved
//! while the sweep was live.  Latency is reported, not gated.  The
//! scorecard lands in `BENCH_fault_injection.json` at the workspace root.

use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use serde::Serialize;
use watchman_core::engine::{BreakerConfig, FailureConfig, RetryPolicy};
use watchman_core::telemetry::METRICS_SCHEMA_VERSION;
use watchman_server::{
    serve, Client, FaultPlan, Report, Requests, Scenario, ServerConfig, SWEEP_KEYS,
    SWEEP_RESULT_BYTES,
};
use watchman_sim::{ExperimentScale, Workload};

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
    /// A CI-sized run, whose chaos scorecard goes under `target/`.
    quick: bool,
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
            quick: false,
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

/// The value following a flag, parsed.
fn value<T: FromStr>(iter: &mut std::slice::Iter<'_, String>) -> Result<T, ExitCode> {
    iter.next().and_then(|v| v.parse().ok()).ok_or_else(usage)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut args = Args::default();
    let mut explicit_clients = None;
    let mut explicit_queries = None;
    let mut explicit_rounds = None;
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = raw.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--addr" => args.addr = Some(value(&mut iter)?),
            "--spawn" => args.spawn = true,
            "--workload" => args.workload = value(&mut iter)?,
            "--clients" => explicit_clients = Some(value(&mut iter)?),
            "--queries" => explicit_queries = Some(value(&mut iter)?),
            "--pipeline" => args.pipeline = value(&mut iter)?,
            "--fetch-delay-us" => args.fetch_delay_us = value(&mut iter)?,
            "--cache-fraction" => args.cache_fraction = value(&mut iter)?,
            "--connections" => args.connections = value(&mut iter)?,
            "--rounds" => explicit_rounds = Some(value(&mut iter)?),
            "--chaos" => args.chaos = Some(value(&mut iter)?),
            "--metrics" => args.metrics = true,
            "--quick" => args.quick = true,
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
    if args.quick {
        args.queries = 600;
        args.clients = 4;
        args.rounds = 2;
    }
    if args.chaos.is_some() {
        // The chaos sweep's defaults; --quick shortens it.
        args.clients = 8;
        args.rounds = if args.quick { 80 } else { 200 };
    }
    args.clients = explicit_clients.unwrap_or(args.clients);
    args.queries = explicit_queries.unwrap_or(args.queries);
    args.rounds = explicit_rounds.unwrap_or(args.rounds);
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

/// The live `METRICS` counts a faulted sweep must have moved: degradation
/// (retries, stale serves, sheds), scheduling and the flight recorder.
const MID_RUN_MUST_MOVE: [&str; 5] = [
    "engine.fetch.retries",
    "engine.lookup.stale_us",
    "server.sheds",
    "runtime.scheduler.parks",
    "telemetry.trace_events",
];

fn connect(addr: &str) -> Result<Client, String> {
    Client::connect_with_retries(addr, 5, Duration::from_millis(50)).map_err(|e| e.to_string())
}

/// `--metrics`: scrape the `METRICS` and `TRACE_DUMP` admin opcodes from a
/// running server, assert the exposition parses at the expected schema
/// version with the core metric families present, and print a one-screen
/// summary.  This is the CI proof that a *spawned* `watchmand` actually
/// serves the telemetry surface — not just the in-process servers the
/// tests build.
fn run_metrics_scrape(addr: &str) -> Result<(), String> {
    let mut client = connect(addr)?;
    let metrics = client
        .metrics()
        .map_err(|err| format!("METRICS scrape failed: {err}"))?;
    if metrics.schema != METRICS_SCHEMA_VERSION {
        return Err(format!(
            "METRICS schema {} does not match the client's expected {METRICS_SCHEMA_VERSION}",
            metrics.schema
        ));
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
            "histogram engine.lookup.hit_ns",
            metrics.histogram("engine.lookup.hit_ns").is_some(),
        ),
        (
            "histogram runtime.task.poll_us",
            metrics.histogram("runtime.task.poll_us").is_some(),
        ),
    ] {
        if !present {
            return Err(format!("METRICS exposition is missing {family}"));
        }
    }
    // The hit histogram holds only sampled hits, so the lookup total comes
    // from the engine's own reference count.
    let lookups = client
        .stats()
        .map_err(|err| format!("STATS scrape failed: {err}"))?
        .total
        .references;
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
    let dump = client
        .trace_dump()
        .map_err(|err| format!("TRACE_DUMP scrape failed: {err}"))?;
    println!(
        "loadgen: TRACE_DUMP schema v{}: {} events in the ring ({} recorded overall)",
        dump.schema,
        dump.events.len(),
        dump.recorded,
    );
    Ok(())
}

/// Prints a report: outcome buckets, latency, the server's account of the
/// run, and whichever probe the scenario took.
fn print_report(label: &str, report: &Report) {
    let (outcomes, server) = (&report.outcomes, &report.server);
    println!(
        "  {label:<9} {} requests: {} ok ({} hit / {} executed / {} coalesced / {} stale), \
         {} fetch-errors, {} busy, {} reconnects, {} unexplained",
        report.requests,
        outcomes.ok(),
        outcomes.hits,
        outcomes.executed,
        outcomes.coalesced,
        outcomes.stale,
        outcomes.fetch_errors,
        outcomes.busy,
        outcomes.reconnects,
        outcomes.unexplained,
    );
    println!(
        "  {label:<9} throughput {:.0} q/s  latency mean {:.0} us  p50 {} us  p95 {} us  \
         p99 {} us  wall {:.2} s",
        report.throughput_qps,
        report.latency_mean_us,
        report.latency_p50_us,
        report.latency_p95_us,
        report.latency_p99_us,
        report.wall_s,
    );
    println!(
        "  {label:<9} server: csr {:.4}  hr {:.4}  {} refs, {} stale-serves, {} sheds, \
         {} retries, {} negative-hits, {} breaker-transitions",
        server.total.cost_savings_ratio(),
        server.total.hit_ratio(),
        server.total.references,
        server.total.stale_serves,
        server.sheds,
        server.fetch_retries,
        server.negative_hits,
        server.breaker_transitions,
    );
    if let Some(storm) = &report.storm {
        println!(
            "  {label:<9} {} sessions on {} server threads ({} runtime workers); \
             client scheduler: {} parks",
            storm.server_sessions, storm.server_threads, storm.server_workers, storm.client_parks,
        );
    }
    if let Some(moved) = &report.mid_run {
        let counts: Vec<String> = MID_RUN_MUST_MOVE
            .iter()
            .map(|name| format!("{name} +{}", moved.get(*name).copied().unwrap_or(0)))
            .collect();
        println!("  {label:<9} mid-run METRICS: {}", counts.join(", "));
    }
}

/// The replay and storm modes: one scenario, its report, and its gates.
fn run_load(args: &Args, addr: &str, workload: &Workload) -> Result<(), String> {
    let scenario = if args.connections > 0 {
        println!(
            "loadgen: storm of {} concurrent connections ({} rounds) against {addr}",
            args.connections, args.rounds
        );
        Scenario {
            connections: args.connections,
            pipeline: args.pipeline,
            fetch_delay_us: args.fetch_delay_us,
            requests: Requests::Storm {
                rounds: args.rounds,
            },
        }
    } else {
        println!(
            "loadgen: {} queries of {} over {} clients (pipeline {}) against {addr}",
            workload.trace.len(),
            args.workload,
            args.clients,
            args.pipeline
        );
        Scenario {
            connections: args.clients,
            pipeline: args.pipeline,
            fetch_delay_us: args.fetch_delay_us,
            requests: Requests::Trace(&workload.trace),
        }
    };
    let report = scenario.run(addr).map_err(|err| err.to_string())?;
    let storm = report.storm;
    print_report(if storm.is_some() { "storm" } else { "replay" }, &report);
    report.check_tally()?;
    println!("loadgen: client tally matches the server's STATS delta");

    // The point of the storm: sessions are tasks, not threads.
    if let Some(storm) = storm {
        if storm.server_sessions < report.connections as u32 {
            return Err(format!(
                "server saw {} sessions, expected at least the {} storm connections",
                storm.server_sessions, report.connections
            ));
        }
        // threads == 0 means procfs is unavailable; the session-count proof
        // above still holds there, so only the thread bound is skipped.
        if storm.server_threads > MAX_STORM_THREADS {
            return Err(format!(
                "{} server threads for {} connections — sessions are costing threads",
                storm.server_threads, report.connections
            ));
        }
        println!(
            "loadgen: thread count is bounded by the pool, not the connection count \
             ({} threads / {} sessions)",
            storm.server_threads, storm.server_sessions
        );
    }
    Ok(())
}

/// One chaos sweep against a freshly spawned `watchmand` configured so
/// every degradation path can engage: a capacity far below the sweep's
/// footprint (refetches — and therefore stale serving of doomed keys —
/// require eviction pressure), stale serving and the circuit breaker
/// enabled, a small admission gate so concurrent executions trip overload
/// shedding, and a read deadline that evicts stalled sessions.  The server
/// is drained before returning.
fn chaos_sweep(
    label: &str,
    plan: Arc<FaultPlan>,
    scenario: &Scenario<'_>,
) -> Result<Report, String> {
    let server = serve(ServerConfig {
        capacity_bytes: SWEEP_KEYS as u64 * SWEEP_RESULT_BYTES / 4,
        failure: FailureConfig {
            retry: RetryPolicy::default(),
            breaker: Some(BreakerConfig::default()),
            serve_stale: true,
        },
        max_inflight: 4,
        read_deadline: Some(Duration::from_millis(250)),
        fault_plan: Some(plan),
        ..ServerConfig::default()
    })
    .map_err(|err| err.to_string())?;
    let report = scenario
        .run(&server.addr().to_string())
        .map_err(|err| format!("chaos {label} sweep: {err}"))?;
    server.join();
    print_report(label, &report);
    Ok(report)
}

/// The counted gates one chaos sweep must pass.
fn chaos_gates(label: &str, report: &Report, failures: &mut Vec<String>) {
    let outcomes = &report.outcomes;
    if outcomes.unexplained != 0 {
        failures.push(format!(
            "{label} sweep saw {} unexplained errors",
            outcomes.unexplained
        ));
    }
    if outcomes.total() != report.requests {
        failures.push(format!(
            "{label} sweep's buckets hold {} of {} requests",
            outcomes.total(),
            report.requests
        ));
    }
    // Sheds are refused before the engine, and lost requests may replay, so
    // the engine can see more references than answers but never fewer.
    let answered = outcomes.ok() + outcomes.fetch_errors;
    if report.server.total.references < answered {
        failures.push(format!(
            "{label} engine counted {} references for {answered} answered requests",
            report.server.total.references
        ));
    }
}

#[derive(Serialize)]
struct ChaosScorecard {
    benchmark: String,
    plan: String,
    injected_fetch_errors: u64,
    triggered_resets: Vec<u64>,
    triggered_stalls: Vec<u64>,
    gates_failed: Vec<String>,
    baseline: Report,
    faulted: Report,
}

/// The `--chaos` mode: a fault-free baseline sweep under the empty plan,
/// then the requested plan, then the self-gating scorecard.
fn run_chaos(spec: &str, args: &Args) -> Result<(), String> {
    let plan = FaultPlan::parse(spec)
        .map(Arc::new)
        .ok_or_else(|| format!("unknown fault plan {spec:?} (want empty|canonical[:SEED])"))?;
    let scenario = Scenario {
        connections: args.clients,
        pipeline: 1,
        fetch_delay_us: 200,
        requests: Requests::Sweep {
            rounds: args.rounds,
        },
    };
    println!(
        "loadgen: chaos scorecard — {} clients x {} rounds over {SWEEP_KEYS} keys, plan {spec}",
        args.clients, args.rounds
    );
    let baseline = chaos_sweep("baseline", Arc::new(FaultPlan::empty(0)), &scenario)?;
    let faulted = chaos_sweep("faulted", Arc::clone(&plan), &scenario)?;

    let mut failures: Vec<String> = Vec::new();
    chaos_gates("baseline", &baseline, &mut failures);
    chaos_gates("faulted", &faulted, &mut failures);
    if !plan.is_noop() {
        // Clients seeing zero fetch errors is the success story (retries
        // and stale serves absorb them) — but the plan must really have
        // fired, on both seams.
        if plan.injected_fetch_errors() == 0 {
            failures.push("the plan injected no fetch failures".to_owned());
        }
        if plan.triggered_resets().is_empty() {
            failures.push("the plan reset no connection".to_owned());
        }
        // The observability gate: the METRICS surface answered while the
        // sweep was live, and the counters that prove the degradation and
        // scheduling machinery engaged had moved by then.
        match &faulted.mid_run {
            None => failures.push("no METRICS scrape landed mid-run".to_owned()),
            Some(moved) => {
                for name in MID_RUN_MUST_MOVE {
                    if moved.get(name).copied().unwrap_or(0) == 0 {
                        failures.push(format!("mid-run METRICS shows {name} unmoved"));
                    }
                }
            }
        }
    }

    let scorecard = ChaosScorecard {
        benchmark: "loadgen/chaos".to_owned(),
        plan: spec.to_owned(),
        injected_fetch_errors: plan.injected_fetch_errors(),
        triggered_resets: plan.triggered_resets(),
        triggered_stalls: plan.triggered_stalls(),
        gates_failed: failures.clone(),
        baseline,
        faulted,
    };
    // A full run rewrites the committed scorecard at the workspace root; a
    // `--quick` run writes under `target/`, leaving the checkout as it was.
    let under = if args.quick {
        "/../../target"
    } else {
        "/../.."
    };
    let dir = format!("{}{under}", env!("CARGO_MANIFEST_DIR"));
    let path = format!("{dir}/BENCH_fault_injection.json");
    let json = serde_json::to_string_pretty(&scorecard).map_err(|err| err.to_string())?;
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json + "\n")) {
        Ok(()) => println!("loadgen: wrote {path}"),
        Err(error) => println!("loadgen: could not write {path}: {error}"),
    }

    if !failures.is_empty() {
        return Err(format!("chaos gates failed: {}", failures.join("; ")));
    }
    println!(
        "loadgen: chaos gates hold — every error explained, every request counted, \
         the plan fired and degradation engaged"
    );
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    // --chaos: the fault-injection scorecard instead of the trace replay.
    if let Some(spec) = &args.chaos {
        return run_chaos(spec, args);
    }
    let scale = ExperimentScale::quick(args.queries);
    let workload = match args.workload.as_str() {
        "tpcd_skewed" => Workload::tpcd_skewed(scale),
        "set_query_skewed" => Workload::set_query_skewed(scale),
        "tpcd" => Workload::tpcd(scale),
        other => return Err(format!("unknown workload {other}")),
    };
    let capacity = (workload.database_bytes() as f64 * args.cache_fraction).round() as u64;

    // --spawn: an in-process watchmand on an ephemeral loopback port (the
    // exact server the standalone binary runs).
    let spawned = if args.spawn {
        let config = ServerConfig {
            capacity_bytes: capacity,
            ..ServerConfig::default()
        };
        Some(serve(config).map_err(|err| err.to_string())?)
    } else {
        None
    };
    let addr = match (&args.addr, &spawned) {
        (Some(addr), _) => addr.clone(),
        (None, Some(handle)) => handle.addr().to_string(),
        (None, None) => unreachable!("validated in parse_args"),
    };

    // --metrics: scrape the telemetry admin surface instead of replaying.
    let result = if args.metrics {
        run_metrics_scrape(&addr)
    } else {
        run_load(args, &addr, &workload)
    }
    .and_then(|()| {
        if args.shutdown {
            connect(&addr)?
                .shutdown_server()
                .map_err(|err| format!("shutdown failed: {err}"))?;
            println!("loadgen: server drained");
        }
        Ok(())
    });
    if let Some(handle) = spawned {
        handle.join();
    }
    result
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(code) => return code,
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("loadgen: {message}");
            ExitCode::FAILURE
        }
    }
}
