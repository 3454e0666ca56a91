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
//! signal.  The line is read from this server's own `STATS` snapshot (the
//! lookup counts, every reference counted) and `METRICS` exposition (the
//! rest), through a client connected to its address, so the log and a
//! scrape can never disagree; the full exposition stays behind the
//! `METRICS` opcode.

use std::process::ExitCode;
use std::time::Duration;

use watchman_core::engine::{PolicyKind, StatsSnapshot};
use watchman_core::history::MAX_WINDOW;
use watchman_core::telemetry::MetricsSnapshot;
use watchman_server::{serve, Client, ClientError, ServerConfig};

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

/// The `--metrics-interval` log line: the lookup counts by outcome from one
/// `STATS` snapshot (the lookup histograms time only a sample of hits and
/// executed lookups), everything else from one `METRICS` exposition.
fn metrics_line(stats: &StatsSnapshot, metrics: &MetricsSnapshot) -> String {
    let lookups = &stats.total;
    format!(
        "metrics: hits={} executed={} coalesced={} stale={} errors={} \
         retries={} sheds={} evictions={} breaker_trips={} trace_events={}",
        lookups.hits,
        lookups.misses(),
        lookups.coalesced,
        lookups.stale_serves,
        lookups.fetch_errors,
        metrics.counter("engine.fetch.retries"),
        metrics.counter("server.sheds"),
        metrics.counter("engine.evictions"),
        metrics.counter("engine.breaker.trips"),
        metrics.counter("telemetry.trace_events"),
    )
}

/// Reads one `STATS` snapshot and one `METRICS` exposition over `client`,
/// connecting to `addr` first when it holds no connection.
fn scrape(
    client: &mut Option<Client>,
    addr: &str,
) -> Result<(StatsSnapshot, MetricsSnapshot), ClientError> {
    let client = match client {
        Some(client) => client,
        None => client.insert(Client::connect(addr)?),
    };
    Ok((client.stats()?, client.metrics()?))
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
                    match scrape(&mut client, &addr) {
                        Ok((stats, metrics)) => eprintln!("{}", metrics_line(&stats, &metrics)),
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

#[cfg(test)]
mod tests {
    use super::*;
    use watchman_core::metrics::CacheStats;

    #[test]
    fn metrics_line_counts_every_lookup_from_stats() {
        let total = CacheStats {
            references: 1_000,
            hits: 640,
            coalesced: 30,
            fetch_errors: 4,
            stale_serves: 6,
            ..CacheStats::default()
        };
        let stats = StatsSnapshot {
            total: total.clone(),
            per_shard: vec![total],
            per_shard_used: vec![0],
            used_bytes: 0,
            capacity_bytes: 1 << 20,
            entries: 0,
            fetch_retries: 7,
            negative_hits: 2,
            breaker_transitions: 1,
            sheds: 3,
        };
        let counters = [
            ("engine.fetch.retries", 7),
            ("server.sheds", 3),
            ("engine.evictions", 12),
            ("engine.breaker.trips", 1),
            ("telemetry.trace_events", 99),
        ];
        let metrics = MetricsSnapshot {
            schema: 0,
            uptime_us: 0,
            counters: counters.map(|(name, n)| (name.to_owned(), n)).into(),
            gauges: Default::default(),
            histograms: Default::default(),
        };
        assert_eq!(
            metrics_line(&stats, &metrics),
            "metrics: hits=640 executed=320 coalesced=30 stale=6 errors=4 \
             retries=7 sheds=3 evictions=12 breaker_trips=1 trace_events=99"
        );
    }
}
