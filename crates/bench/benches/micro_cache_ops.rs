//! Micro-benchmarks of the cache-manager hot paths: lookups (hit and miss),
//! admission with eviction, LNC-R victim selection pressure, and the
//! concurrent engine — plus an **eviction-pressure report**: every policy is
//! filled to capacity and hammered with admissions that each force an
//! eviction, measuring sustained admissions/sec beside the rates measured
//! once on the scan/sort implementations the victim indexes replaced.  The
//! report is written to `BENCH_policy_ops.json` at the workspace root so
//! the perf trajectory of the replacement machinery is recorded run over
//! run.  Pass `--quick` for a CI-sized smoke pass.

use std::time::Instant;

use criterion::{criterion_group, BatchSize, Criterion};
use watchman_core::engine::{PolicyKind, Watchman};
use watchman_core::prelude::*;

fn prefilled_lnc(entries: usize, capacity: u64) -> LncCache<SizedPayload> {
    let mut cache = LncCache::lnc_ra(capacity);
    for i in 0..entries {
        let key = QueryKey::new(format!("warm-query-{i}"));
        let now = Timestamp::from_micros(i as u64 + 1);
        cache.insert(
            key,
            SizedPayload::new(512),
            ExecutionCost::from_blocks(1_000),
            now,
        );
    }
    cache
}

fn bench_lookups(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_lookup");
    let mut cache = prefilled_lnc(1_000, 10 * 1024 * 1024);
    let hit_key = QueryKey::new("warm-query-500".to_owned());
    let miss_key = QueryKey::new("never-seen".to_owned());
    let mut tick = 1_000_000u64;
    group.bench_function("get_hit", |b| {
        b.iter(|| {
            tick += 1;
            cache.get(&hit_key, Timestamp::from_micros(tick)).is_some()
        })
    });
    group.bench_function("get_miss", |b| {
        b.iter(|| {
            tick += 1;
            cache.get(&miss_key, Timestamp::from_micros(tick)).is_none()
        })
    });
    group.finish();
}

fn bench_admission(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_admission");
    group.sample_size(20);
    // Insert into a full cache of 1 000 entries: every admission must run the
    // LNC-R victim selection over the whole cache.
    group.bench_function("insert_with_eviction_1000_entries", |b| {
        let mut counter = 0u64;
        b.iter_batched(
            || prefilled_lnc(1_000, 1_000 * 512),
            |mut cache| {
                counter += 1;
                let key = QueryKey::new(format!("newcomer-{counter}"));
                cache.insert(
                    key,
                    SizedPayload::new(2_048),
                    ExecutionCost::from_blocks(50_000),
                    Timestamp::from_micros(10_000_000 + counter),
                )
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_key_hashing(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_key");
    let raw = "SELECT l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice) \
               FROM lineitem WHERE l_shipdate <= date '1998-12-01' GROUP BY l_returnflag";
    group.bench_function("query_key_from_raw", |b| {
        b.iter(|| QueryKey::from_raw_query(raw))
    });
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_engine");
    let engine: Watchman<SizedPayload> = Watchman::builder()
        .shards(8)
        .policy(PolicyKind::LncRa { k: 4 })
        .capacity_bytes(10 * 1024 * 1024)
        .build();
    for i in 0..1_000u64 {
        engine.insert(
            QueryKey::new(format!("warm-query-{i}")),
            SizedPayload::new(512),
            ExecutionCost::from_blocks(1_000),
            Timestamp::from_micros(i + 1),
        );
    }
    let key = QueryKey::new("warm-query-100".to_owned());
    let mut tick = 2_000_000u64;
    group.bench_function("engine_get_hit", |b| {
        b.iter(|| {
            tick += 1;
            engine.get(&key, Timestamp::from_micros(tick))
        })
    });
    group.bench_function("engine_get_or_execute_hit", |b| {
        b.iter(|| {
            tick += 1;
            engine.get_or_execute(&key, Timestamp::from_micros(tick), || {
                unreachable!("warmed key must hit")
            })
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_lookups,
    bench_admission,
    bench_key_hashing,
    bench_engine
);

// ---------------------------------------------------------------------------
// Eviction-pressure report
// ---------------------------------------------------------------------------

/// Bytes per retrieved set in the pressure workload.
const PAYLOAD_BYTES: u64 = 512;

/// Admissions/sec measured once at the pre-index commit (the parent of the
/// victim-index rewrite) on this repo's 1-core CI-grade container, same
/// workload (10 000 entries, 500 pressure ops).  Kept as fixed reference
/// points so every report can state the speedup against the *actual*
/// replaced implementation.
const PRE_PR_MEASURED_10K: &[(&str, f64)] = &[
    ("LNC-RA", 3_322.0),
    ("LNC-R", 3_513.0),
    ("LRU", 1_955_256.0),
    ("LRU-4", 4_833.0),
    ("LFU", 68_279.0),
    ("LCS", 63_529.0),
    ("GreedyDual-Size", 51_637.0),
];

/// LNC admissions/sec as committed before the decay index replaced the
/// per-decision rescore and the retained-store scan (PR 13), same workload:
/// the reference points for ROADMAP item 2's "≥ 100x at 100 000 entries".
const PRE_PR_13: &[(&str, usize, f64)] = &[
    ("LNC-RA", 10_000, 7_530.2),
    ("LNC-R", 10_000, 7_827.8),
    ("LNC-RA", 100_000, 645.4),
    ("LNC-R", 100_000, 631.3),
];

/// One measured cell of the report.
struct PressureResult {
    policy: String,
    entries: usize,
    ops: u64,
    elapsed_ms: f64,
    admissions_per_sec: f64,
}

impl PressureResult {
    fn json(&self) -> String {
        format!(
            "{{\"policy\": \"{}\", \"entries\": {}, \"ops\": {}, \"elapsed_ms\": {:.3}, \"admissions_per_sec\": {:.1}}}",
            self.policy, self.entries, self.ops, self.elapsed_ms, self.admissions_per_sec
        )
    }
}

/// Sustained admissions/sec into a full cache of `entries` sets: every
/// insert must evict through the policy's replacement machinery.
fn measure_policy(kind: PolicyKind, entries: usize, ops: u64) -> PressureResult {
    let capacity = entries as u64 * PAYLOAD_BYTES;
    let mut cache = kind.build::<SizedPayload>(capacity);
    for i in 0..entries as u64 {
        cache.insert(
            QueryKey::new(format!("warm-{i}")),
            SizedPayload::new(PAYLOAD_BYTES),
            ExecutionCost::from_blocks(1_000),
            Timestamp::from_micros(i + 1),
        );
    }
    assert_eq!(cache.len(), entries, "{kind}: prefill must fill the cache");
    let base = entries as u64 + 1;
    let start = Instant::now();
    for i in 0..ops {
        // Expensive newcomers so cost-aware admission tests admit them and
        // the eviction path runs on every operation.
        cache.insert(
            QueryKey::new(format!("pressure-{i}")),
            SizedPayload::new(PAYLOAD_BYTES),
            ExecutionCost::from_blocks(50_000),
            Timestamp::from_micros(base + i),
        );
    }
    let elapsed = start.elapsed();
    PressureResult {
        policy: kind.label(),
        entries,
        ops,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        admissions_per_sec: ops as f64 / elapsed.as_secs_f64(),
    }
}

/// Operation count per cell, scaled down with the cache size so the report
/// stays CI-sized.
fn ops_for(entries: usize, quick: bool) -> u64 {
    let ops = (40_000_000 / entries.max(1)) as u64;
    let ops = ops.clamp(500, 20_000);
    if quick {
        ops / 4
    } else {
        ops
    }
}

/// How far below a committed reference rate a re-run may land before the
/// guard fails.  Generous on purpose: CI runners vary several-fold in
/// absolute throughput, and the guard's job is to catch *structural*
/// regressions — above all, debugging instrumentation (the `lock-graph`
/// feature) accidentally compiled into the default build — not to chase
/// scheduler noise.
const REFERENCE_TOLERANCE: f64 = 3.0;

/// Parses `(policy, entries, admissions_per_sec)` rows out of a previously
/// committed `BENCH_policy_ops.json` (the format this bench writes).  Only
/// the `results` section is read; the sections after it are fixed reference
/// points, not measurements of the run.
fn parse_reference(json: &str) -> Vec<(String, usize, f64)> {
    // The bench writes one result object per line; a row is complete when
    // all three fields appear on it.
    fn scalar<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let rest = &line[line.find(key)? + key.len()..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
    let mut rows = Vec::new();
    for line in json.lines() {
        if line.trim_start().starts_with(']') {
            break;
        }
        let policy = line
            .find("\"policy\": \"")
            .map(|i| &line[i + "\"policy\": \"".len()..])
            .and_then(|rest| rest.split('"').next());
        if let (Some(policy), Some(Ok(entries)), Some(Ok(rate))) = (
            policy,
            scalar(line, "\"entries\": ").map(str::parse::<usize>),
            scalar(line, "\"admissions_per_sec\": ").map(str::parse::<f64>),
        ) {
            rows.push((policy.to_owned(), entries, rate));
        }
    }
    rows
}

/// The PR 6 bench guard: with instrumentation compiled out, the measured
/// admissions/sec must stay within [`REFERENCE_TOLERANCE`] of the committed
/// reference for every (policy, entries) cell both runs cover.
fn assert_against_reference(ref_path: &str, results: &[PressureResult]) {
    let json = std::fs::read_to_string(ref_path)
        .unwrap_or_else(|error| panic!("cannot read reference {ref_path}: {error}"));
    let reference = parse_reference(&json);
    assert!(
        !reference.is_empty(),
        "reference {ref_path} contains no results — wrong file?"
    );
    println!("\nbench guard vs {ref_path} (tolerance {REFERENCE_TOLERANCE}x):");
    let mut compared = 0;
    for (policy, entries, ref_rate) in &reference {
        let Some(current) = results
            .iter()
            .find(|r| &r.policy == policy && r.entries == *entries)
        else {
            continue; // quick runs skip the 100k tier
        };
        compared += 1;
        let factor = current.admissions_per_sec / ref_rate;
        println!("{policy:>34} @{entries}: {factor:>6.2}x of reference");
        assert!(
            factor * REFERENCE_TOLERANCE >= 1.0,
            "{policy} at {entries} entries regressed to {:.0} admissions/sec \
             ({factor:.2}x of the committed {ref_rate:.0}) — is debugging \
             instrumentation compiled into the default build?",
            current.admissions_per_sec
        );
    }
    assert!(
        compared > 0,
        "no comparable cells between run and reference"
    );
    println!("bench guard passed: {compared} cells within tolerance");
}

fn eviction_pressure_report(quick: bool, assert_ref: Option<&str>) {
    let sizes: &[usize] = if quick { &[10_000] } else { &[10_000, 100_000] };
    let mut results = Vec::new();
    println!(
        "\neviction-pressure report (payload {PAYLOAD_BYTES} B, full cache, every insert evicts)\n"
    );
    println!(
        "{:>34} {:>9} {:>8} {:>12} {:>16}",
        "policy", "entries", "ops", "elapsed", "admissions/sec"
    );
    for &entries in sizes {
        for kind in PolicyKind::all() {
            let result = measure_policy(kind, entries, ops_for(entries, quick));
            println!(
                "{:>34} {:>9} {:>8} {:>9.1} ms {:>16.0}",
                result.policy,
                result.entries,
                result.ops,
                result.elapsed_ms,
                result.admissions_per_sec
            );
            results.push(result);
        }
    }

    let mut pre_pr_speedups = Vec::new();
    for &(policy, pre_pr_rate) in PRE_PR_MEASURED_10K {
        if let Some(result) = results
            .iter()
            .find(|r| r.policy == policy && r.entries == 10_000)
        {
            let factor = result.admissions_per_sec / pre_pr_rate;
            println!("{policy:>34} vs pre-PR measured: {factor:.1}x");
            pre_pr_speedups.push(format!("\"{policy}\": {factor:.2}"));
        }
    }

    let mut pre_pr_13 = Vec::new();
    for &(policy, entries, rate) in PRE_PR_13 {
        let now = results
            .iter()
            .find(|r| r.policy == policy && r.entries == entries);
        let factor = now.map_or("null".to_owned(), |r| {
            format!("{:.1}", r.admissions_per_sec / rate)
        });
        println!("{policy:>34} @{entries} vs pre-PR-13: {factor}x");
        pre_pr_13.push(format!(
            "{{\"policy\": \"{policy}\", \"entries\": {entries}, \"admissions_per_sec\": {rate:.1}, \"speedup\": {factor}}}"
        ));
    }

    let json = format!(
        "{{\n  \"benchmark\": \"micro_cache_ops/eviction_pressure\",\n  \"payload_bytes\": {},\n  \"quick\": {},\n  \"results\": [\n    {}\n  ],\n  \"pre_pr_measured_at_10k\": [\n    {}\n  ],\n  \"speedup_vs_pre_pr_at_10k\": {{{}}},\n  \"pre_pr_13\": [\n    {}\n  ]\n}}\n",
        PAYLOAD_BYTES,
        quick,
        results
            .iter()
            .map(PressureResult::json)
            .collect::<Vec<_>>()
            .join(",\n    "),
        PRE_PR_MEASURED_10K
            .iter()
            .map(|(policy, rate)| format!(
                "{{\"policy\": \"{policy}\", \"entries\": 10000, \"admissions_per_sec\": {rate:.1}}}"
            ))
            .collect::<Vec<_>>()
            .join(",\n    "),
        pre_pr_speedups.join(", "),
        pre_pr_13.join(",\n    "),
    );
    // Cargo runs benches with the package directory as CWD; anchor the
    // report at the workspace root so the committed artifact stays in place.
    // A `--quick` run writes under `target/` and leaves the committed file.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let dir = if quick {
        format!("{root}/target")
    } else {
        root.to_owned()
    };
    let path = format!("{dir}/BENCH_policy_ops.json");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &json)) {
        Ok(()) => println!("wrote {path}"),
        Err(error) => println!("could not write {path}: {error}"),
    }

    // A relative reference names a file at the workspace root.
    if let Some(ref_path) = assert_ref {
        let ref_path = std::path::Path::new(root).join(ref_path);
        assert_against_reference(&ref_path.to_string_lossy(), &results);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let assert_ref = args.iter().position(|a| a == "--assert-ref").map(|i| {
        args.get(i + 1)
            .expect("--assert-ref requires a reference JSON path")
            .clone()
    });
    benches();
    eviction_pressure_report(quick, assert_ref.as_deref());
}
