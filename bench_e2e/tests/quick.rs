//! Runs the benchmark's `--quick` mode end to end — the real binary, a real
//! `watchmand` child — and holds its output against `BENCHMARK.json`.
//!
//! ```text
//! cargo test --manifest-path bench_e2e/Cargo.toml
//! ```

use std::collections::BTreeSet;
use std::process::Command;

#[allow(dead_code)]
#[path = "../src/metrics.rs"]
mod metrics;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The objects of the top-level array `section`, each as its `"key": value`
/// pairs with string quotes stripped.  `BENCHMARK.json` holds flat objects
/// of strings and numbers, which is all this reads.
fn section(name: &str) -> Vec<Vec<(String, String)>> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{name}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {name} array"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split('{')
        .skip(1)
        .map(|object| {
            let object = &object[..object.find('}').expect("object closes")];
            // Split on the `", "` / `, "` between pairs, not on commas inside a `why`.
            object
                .split("\", \"")
                .flat_map(|part| part.split(", \""))
                .map(|pair| {
                    let (key, value) = pair.split_once("\": ").expect("key: value");
                    (
                        key.trim().trim_matches('"').to_owned(),
                        value.trim().trim_matches('"').to_owned(),
                    )
                })
                .collect()
        })
        .collect()
}

fn field<'a>(object: &'a [(String, String)], key: &str) -> &'a str {
    &object
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("object {object:?} has no {key}"))
        .1
}

fn run_quick(extra: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
        .arg("--quick")
        .args(extra)
        .output()
        .expect("bench_e2e starts");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "bench_e2e --quick {extra:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

/// `(workload, metric, unit)` of every `result` line.
fn results(stdout: &str) -> BTreeSet<(String, String, String)> {
    stdout
        .lines()
        .filter_map(|line| {
            let mut fields = line.strip_prefix("result ")?.split(' ');
            Some((
                fields.next()?.to_owned(),
                fields.next()?.to_owned(),
                fields.next()?.to_owned(),
            ))
        })
        .collect()
}

fn assert_every_json_line_is_clean(stdout: &str, workloads: usize) {
    let lines: Vec<&str> = stdout
        .lines()
        .filter(|line| line.starts_with('{'))
        .collect();
    assert_eq!(lines.len(), workloads, "one JSON line per workload");
    for line in lines {
        assert!(line.starts_with("{\"correct\": true, "), "{line}");
        assert!(line.contains("\"failed\": 0, "), "{line}");
    }
}

fn is_a_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn quick_end_to_end_run_prints_every_metric_of_every_workload() {
    let stdout = run_quick(&[]);
    let printed = results(&stdout);
    let workloads = section("workloads");
    assert_eq!(workloads.len(), 4);
    for workload in &workloads {
        let name = field(workload, "name");
        assert!(is_a_name(name), "{name}");
        // The binary prints each workload's reason; it is the one on file.
        assert!(
            stdout.contains(&format!("workload {name} — {}", field(workload, "why"))),
            "workload {name}: BENCHMARK.json and workloads.rs disagree on the why"
        );
        for metric in section("end_to_end") {
            let key = (
                name.to_owned(),
                field(&metric, "name").to_owned(),
                field(&metric, "unit").to_owned(),
            );
            assert!(printed.contains(&key), "missing result line for {key:?}");
        }
    }
    assert_every_json_line_is_clean(&stdout, workloads.len());
}

#[test]
fn quick_traced_run_prints_every_per_layer_metric_and_writes_spans() {
    let stdout = run_quick(&["--traced", "--workload", "wire_update_mix"]);
    let printed = results(&stdout);
    for metric in section("per_layer") {
        let key = (
            "wire_update_mix".to_owned(),
            field(&metric, "name").to_owned(),
            field(&metric, "unit").to_owned(),
        );
        assert!(printed.contains(&key), "missing result line for {key:?}");
    }
    assert_every_json_line_is_clean(&stdout, 1);
    assert!(stdout.contains("budget wire_update_mix round_trip_us"));
    assert!(stdout.contains("budget wire_update_mix engine_call_us"));
    let spans = stdout
        .lines()
        .find_map(|line| line.strip_prefix("spans "))
        .and_then(|rest| rest.split(' ').next())
        .expect("the span file is named");
    let first = std::fs::read_to_string(spans).expect("span file exists");
    assert!(first
        .lines()
        .next()
        .expect("has spans")
        .starts_with("{\"name\":\""));
}

#[test]
fn metric_tables_match_benchmark_json() {
    let end_to_end = section("end_to_end");
    assert_eq!(end_to_end.len(), metrics::END_TO_END.len());
    for (listed, ours) in end_to_end.iter().zip(&metrics::END_TO_END) {
        assert!(is_a_name(ours.name));
        assert_eq!(field(listed, "name"), ours.name);
        assert_eq!(field(listed, "unit"), ours.unit);
        let better = if ours.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(field(listed, "better"), better, "{}", ours.name);
        assert_eq!(
            field(listed, "bound").parse::<f64>().unwrap(),
            ours.bound,
            "{}",
            ours.name
        );
        assert!(ours.bound <= 0.25);
    }
    let per_layer = section("per_layer");
    assert_eq!(per_layer.len(), metrics::PER_LAYER.len());
    for (listed, ours) in per_layer.iter().zip(&metrics::PER_LAYER) {
        assert!(is_a_name(ours.name));
        assert_eq!(field(listed, "name"), ours.name);
        assert_eq!(field(listed, "unit"), ours.unit);
    }
    assert!(BENCHMARK_JSON.contains("\"run_seconds\": 16,"));
}
