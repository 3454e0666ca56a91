//! `watchmand` — the WATCHMAN cache server.
//!
//! Binds a TCP listener and serves the wire protocol until a client sends
//! `SHUTDOWN` (the `loadgen --shutdown` flag does, and so does
//! `Client::shutdown_server`).
//!
//! ```text
//! watchmand [--addr HOST:PORT] [--shards N] [--capacity-bytes N]
//!           [--policy lnc-ra|lnc-r|lru|lru-k|lfu|lcs|gds] [--k N]
//!           [--workers N] [--metrics-interval SECS]
//! ```
//!
//! `--k` is the reference window of the K-based policies, at most
//! `MAX_WINDOW` (8); a larger value is refused.
//!
//! `--metrics-interval SECS` logs a one-line telemetry summary (lookup
//! counts by outcome, retries, sheds, evictions, breaker trips, trace
//! events) to stderr every `SECS` seconds — the always-on operational
//! signal.  The line is read from this server's own `METRICS` exposition,
//! through a client connected to its address, so the log and a scrape can
//! never disagree; the full exposition stays behind the `METRICS` opcode.

use std::process::ExitCode;
use std::time::Duration;

use watchman_core::engine::PolicyKind;
use watchman_core::history::MAX_WINDOW;
use watchman_core::telemetry::MetricsSnapshot;
use watchman_server::{serve, Client, ServerConfig};

fn parse_policy(name: &str, k: usize) -> Option<PolicyKind> {
    Some(match name {
        "lnc-ra" => PolicyKind::LncRa { k },
        "lnc-r" => PolicyKind::LncR { k },
        "lru" => PolicyKind::Lru,
        "lru-k" => PolicyKind::LruK { k },
        "lfu" => PolicyKind::Lfu,
        "lcs" => PolicyKind::Lcs,
        "gds" => PolicyKind::GreedyDualSize,
        _ => return None,
    })
}

/// The `--metrics-interval` log line, read from one `METRICS` exposition.
fn metrics_line(metrics: &MetricsSnapshot) -> String {
    let lookups = |outcome: &str| {
        metrics
            .histogram(&format!("engine.lookup.{outcome}_us"))
            .map_or(0, |histogram| histogram.count)
    };
    format!(
        "metrics: hits={} executed={} coalesced={} stale={} errors={} \
         retries={} sheds={} evictions={} breaker_trips={} trace_events={}",
        lookups("hit"),
        lookups("executed"),
        lookups("coalesced"),
        lookups("stale"),
        lookups("error"),
        metrics.counter("engine.fetch.retries"),
        metrics.counter("server.sheds"),
        metrics.counter("engine.evictions"),
        metrics.counter("engine.breaker.trips"),
        metrics.counter("telemetry.trace_events"),
    )
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: watchmand [--addr HOST:PORT] [--shards N] [--capacity-bytes N]\n\
         \x20                [--policy lnc-ra|lnc-r|lru|lru-k|lfu|lcs|gds] [--k N]\n\
         \x20                [--workers N] [--metrics-interval SECS]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut config = ServerConfig {
        addr: "127.0.0.1:4817".to_owned(),
        ..ServerConfig::default()
    };
    let mut policy_name = "lnc-ra".to_owned();
    let mut k = 4usize;
    let mut metrics_interval_secs: u64 = 0;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |flag: &str| -> Option<String> {
            let value = iter.next().cloned();
            if value.is_none() {
                eprintln!("watchmand: {flag} needs a value");
            }
            value
        };
        match flag.as_str() {
            "--addr" => match value("--addr") {
                Some(v) => config.addr = v,
                None => return usage(),
            },
            "--shards" => match value("--shards").and_then(|v| v.parse().ok()) {
                Some(v) => config.shards = v,
                None => return usage(),
            },
            "--capacity-bytes" => match value("--capacity-bytes").and_then(|v| v.parse().ok()) {
                Some(v) => config.capacity_bytes = v,
                None => return usage(),
            },
            "--policy" => match value("--policy") {
                Some(v) => policy_name = v,
                None => return usage(),
            },
            "--k" => match value("--k").and_then(|v| v.parse().ok()) {
                Some(v) if v > MAX_WINDOW => {
                    eprintln!("watchmand: --k {v} is above the largest window, {MAX_WINDOW}");
                    return usage();
                }
                Some(v) => k = v,
                None => return usage(),
            },
            "--workers" => match value("--workers").and_then(|v| v.parse().ok()) {
                Some(v) => config.runtime_workers = v,
                None => return usage(),
            },
            "--metrics-interval" => {
                match value("--metrics-interval").and_then(|v| v.parse().ok()) {
                    Some(v) => metrics_interval_secs = v,
                    None => return usage(),
                }
            }
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("watchmand: unknown flag {other}");
                return usage();
            }
        }
    }

    let Some(policy) = parse_policy(&policy_name, k) else {
        eprintln!("watchmand: unknown policy {policy_name}");
        return usage();
    };
    config.policy = policy;

    let shards = config.shards;
    let capacity = config.capacity_bytes;
    let handle = match serve(config) {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("watchmand: {err}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "watchmand listening on {} ({policy_name}, {shards} shards, {capacity} bytes)",
        handle.addr()
    );
    if metrics_interval_secs > 0 {
        // A detached logger thread: dies with the process, so shutdown
        // needs no extra plumbing.  It keeps one connection and reconnects
        // after a failed scrape.
        let interval = Duration::from_secs(metrics_interval_secs);
        let addr = handle.addr().to_string();
        std::thread::Builder::new()
            .name("watchmand-metrics".to_owned())
            .spawn(move || {
                let mut client: Option<Client> = None;
                loop {
                    std::thread::sleep(interval);
                    let scrape = match client.as_mut() {
                        Some(client) => client.metrics(),
                        None => Client::connect(addr.as_str())
                            .and_then(|connected| client.insert(connected).metrics()),
                    };
                    match scrape {
                        Ok(metrics) => eprintln!("{}", metrics_line(&metrics)),
                        Err(err) => {
                            eprintln!("metrics: scrape failed: {err}");
                            client = None;
                        }
                    }
                }
            })
            .expect("spawn metrics logger thread");
    }
    // Serve until a client sends SHUTDOWN.
    handle.wait();
    println!("watchmand: drained, exiting");
    ExitCode::SUCCESS
}
