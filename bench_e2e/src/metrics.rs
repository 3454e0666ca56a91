//! The metric tables: names, units, directions and — for end-to-end
//! metrics — the regression bound.  `BENCHMARK.json` carries the same
//! tables for the driver; `tests/quick.rs` fails if the two disagree.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the reference median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the system sees.  Every one is defined, and never 0, on
/// every workload; the driver reads exactly these from a `--trace 0` run.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_qps",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "hit_latency_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p90_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "server_cpu_us_per_req",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.10,
    },
    EndToEnd {
        name: "csr",
        unit: "ratio",
        higher_is_better: true,
        bound: 0.05,
    },
    EndToEnd {
        name: "hit_ratio",
        unit: "ratio",
        higher_is_better: true,
        bound: 0.05,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn layer(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit }
}

/// One layer at a time; the driver reads exactly these from a `--trace 1`
/// run.  A layer a workload does not exercise reads 0 there (no server in
/// `engine_churn`, no updates outside `wire_update_mix`).  None of these is
/// gated; `BENCHMARK.json` records for each the direction that usually
/// accompanies a faster system.
pub const PER_LAYER: [PerLayer; 68] = [
    // These latencies and the failure share are end-to-end in nature but
    // undefined (or expected 0) on some workload, or — the median of hits
    // and misses together, and the p99 — not steady enough on the reference
    // container to gate, so they are reported here, ungated.
    layer("latency_p50_us", "us"),
    layer("latency_p99_us", "us"),
    layer("miss_latency_p50_us", "us"),
    layer("update_latency_p50_us", "us"),
    layer("failed_share", "ratio"),
    layer("trace.generate_s", "s"),
    layer("trace.distinct_keys", "count"),
    layer("trace.footprint_bytes", "B"),
    layer("trace.mean_result_bytes", "B"),
    layer("trace.overhead_ratio", "ratio"),
    layer("key.derive_ns_per_op", "ns"),
    layer("policy.get_ns_per_op", "ns"),
    layer("policy.insert_ns_per_miss", "ns"),
    layer("policy.insert_p99_ns", "ns"),
    layer("policy.remove_ns_per_op", "ns"),
    layer("policy.admitted", "count"),
    layer("policy.rejected", "count"),
    layer("policy.evictions", "count"),
    layer("policy.admit_ratio", "ratio"),
    layer("policy.evictions_per_admit", "ratio"),
    layer("policy.resident_entries", "count"),
    layer("engine.lookup_hit_ns_per_op", "ns"),
    layer("engine.lookup_miss_ns_per_op", "ns"),
    layer("engine.overhead_ns_per_op", "ns"),
    layer("engine.stats_snapshot_us", "us"),
    layer("engine.lookup.hit_us.p50", "us"),
    layer("engine.lookup.hit_us.p99", "us"),
    layer("engine.lookup.executed_us.p50", "us"),
    layer("engine.lookup.executed_us.p99", "us"),
    layer("engine.singleflight.wait_us.p99", "us"),
    layer("engine.evictions", "count"),
    layer("engine.fragmentation.used_permille", "permille"),
    layer("coherence.invalidate_us_per_call", "us"),
    layer("coherence.invalidated_per_call", "count"),
    layer("coherence.affected_per_call", "count"),
    layer("wire.encode_request_ns_per_op", "ns"),
    layer("wire.decode_request_ns_per_op", "ns"),
    layer("wire.encode_response_ns_per_op", "ns"),
    layer("wire.decode_response_ns_per_op", "ns"),
    layer("wire.frame_reader_ns_per_frame", "ns"),
    layer("wire.frame_writer_stage_ns_per_frame", "ns"),
    layer("wire.request_bytes_per_op", "B"),
    layer("wire.response_bytes_per_op", "B"),
    layer("server.service_hit_us_mean", "us"),
    layer("server.service_miss_us_mean", "us"),
    layer("server.transport_residual_us_per_req", "us"),
    layer("server.session.read_stall_us.p99", "us"),
    layer("server.session.write_stall_us.p99", "us"),
    layer("server.sheds", "count"),
    layer("runtime.task.poll_us.p50", "us"),
    layer("runtime.task.poll_us.p99", "us"),
    layer("runtime.long_polls", "count"),
    layer("runtime.reactor.wakeups_per_req", "ratio"),
    layer("runtime.scheduler.steals", "count"),
    layer("runtime.scheduler.parks_per_req", "ratio"),
    layer("runtime.timer.lag_us.p99", "us"),
    layer("runtime.net.syscalls_per_req", "ratio"),
    layer("client.rtt_mean_us", "us"),
    layer("client.cpu_us_per_req", "us"),
    layer("process.server_user_cpu_share", "ratio"),
    layer("process.server_sys_cpu_share", "ratio"),
    layer("process.server_ctx_switches_per_req", "ratio"),
    layer("process.server_threads", "count"),
    layer("process.allocs_per_req", "ratio"),
    layer("process.alloc_bytes_per_req", "B"),
    layer("telemetry.metrics_scrape_us", "us"),
    layer("telemetry.trace_events_per_req", "ratio"),
    layer("trace.span_cost_ns", "ns"),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find_map(|(n, unit)| (n == name).then_some(unit))
}
