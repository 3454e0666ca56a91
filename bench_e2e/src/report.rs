//! Output: one `result` line per (workload, metric), the driver's JSON
//! line, and `--check-against`.
//!
//! There is no JSON parser to lean on (this package depends only on the
//! crates under test), so results are written flat enough to read back by
//! splitting on spaces:
//!
//! ```text
//! result <workload> <metric> <unit> <value> <min> <max> <samples>
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::{self, END_TO_END};
use crate::stats::{summarize, Statistic, Summary};

/// Metric values of one run of one workload: one entry per repeat, of
/// which the run reports the median, or one per window of the timed
/// phases, of which it reports the best decile.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, (Statistic, Vec<f64>)>);

impl Samples {
    /// Records one repeat's value.  The name must be in the metric tables:
    /// a typo here would otherwise surface as a metric missing from the
    /// driver's JSON.
    pub fn push(&mut self, name: &'static str, value: f64) {
        assert!(metrics::unit_of(name).is_some(), "unknown metric {name}");
        self.record(name, Statistic::Median, value);
    }

    /// Records one window's value of an end-to-end metric.
    pub fn push_window(&mut self, name: &'static str, value: f64) {
        let metric = END_TO_END.iter().find(|m| m.name == name);
        let higher_is_better = metric
            .expect("windowed metrics are end-to-end")
            .higher_is_better;
        self.record(name, Statistic::BestDecile { higher_is_better }, value);
    }

    fn record(&mut self, name: &'static str, statistic: Statistic, value: f64) {
        let (recorded_as, values) = self.0.entry(name).or_insert((statistic, Vec::new()));
        assert_eq!(*recorded_as, statistic, "{name} is sampled one way per run");
        values.push(value);
    }

    /// As [`Samples::push`], for a metric this repeat could not define
    /// (too few samples beyond a percentile): nothing is recorded.
    pub fn push_some(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(value) = value {
            self.push(name, value);
        }
    }

    pub fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    pub fn summaries(&self) -> BTreeMap<&'static str, Summary> {
        self.0
            .iter()
            .filter_map(|(&name, (statistic, values))| Some((name, summarize(values, *statistic)?)))
            .collect()
    }
}

pub fn result_lines(workload: &str, summaries: &BTreeMap<&'static str, Summary>) -> String {
    let mut out = String::new();
    for (name, summary) in summaries {
        let unit = metrics::unit_of(name).expect("pushed names are in the tables");
        let _ = writeln!(
            out,
            "result {workload} {name} {unit} {} {} {} {}",
            summary.value, summary.min, summary.max, summary.samples
        );
    }
    out
}

/// The driver's line: `correct`, `attempted`, `failed` and the values of
/// `names`, every digit as measured.
pub fn json_line<'a>(
    names: impl Iterator<Item = &'a str>,
    summaries: &BTreeMap<&'static str, Summary>,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let metrics: Vec<String> = names
        .filter_map(|name| {
            let summary = summaries.get(name)?;
            let unit = metrics::unit_of(name)?;
            Some(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                summary.value
            ))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// `(workload, metric) → summary` read back from `result` lines; any other
/// line is skipped.
pub fn parse_results(text: &str) -> BTreeMap<(String, String), Summary> {
    text.lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_ascii_whitespace().collect();
            let ["result", workload, metric, _unit, value, min, max, samples] = fields[..] else {
                return None;
            };
            let summary = Summary {
                value: value.parse().ok()?,
                min: min.parse().ok()?,
                max: max.parse().ok()?,
                samples: samples.parse().ok()?,
            };
            Some(((workload.to_owned(), metric.to_owned()), summary))
        })
        .collect()
}

/// Compares this run's end-to-end values with a reference set's.  Prints
/// both sides of every pair and returns how many differ — in either
/// direction — by more than the metric's bound: two runs of one commit
/// must agree, whichever is called the reference.
pub fn check_against(
    reference: &BTreeMap<(String, String), Summary>,
    current: &BTreeMap<(String, String), Summary>,
) -> usize {
    let mut outside = 0;
    for ((workload, metric), now) in current {
        let Some(spec) = END_TO_END.iter().find(|m| m.name == metric) else {
            continue;
        };
        let Some(then) = reference.get(&(workload.clone(), metric.clone())) else {
            println!("check {workload} {metric}: not in the reference file");
            outside += 1;
            continue;
        };
        let change = (now.value - then.value) / then.value;
        let verdict = if change.abs() <= spec.bound {
            "within"
        } else {
            outside += 1;
            if (change > 0.0) == spec.higher_is_better {
                "OUTSIDE (better)"
            } else {
                "OUTSIDE (worse)"
            }
        };
        println!(
            "check {workload} {metric} [{}]: reference {} ({}..{}) now {} ({}..{}) change {:+.2}% {verdict} bound {:.0}%",
            spec.unit,
            then.value,
            then.min,
            then.max,
            now.value,
            now.min,
            now.max,
            change * 100.0,
            spec.bound * 100.0
        );
    }
    outside
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_read_back() {
        let mut samples = Samples::default();
        for value in [10.5, 9.25, 12.0] {
            samples.push("throughput_qps", value);
        }
        samples.push_some("latency_p99_us", None);
        // Per window: the best decile, not the median.
        for value in 1..=21 {
            samples.push_window("latency_p90_us", f64::from(value));
        }
        let lines = result_lines("w", &samples.summaries());
        assert_eq!(
            lines,
            "result w latency_p90_us us 3 1 21 21\nresult w throughput_qps 1/s 10.5 9.25 12 3\n"
        );
        let parsed = parse_results(&format!("env cores=2\n{lines}garbage result\n"));
        assert_eq!(parsed.len(), 2);
        assert_eq!(
            parsed[&("w".to_owned(), "throughput_qps".to_owned())].value,
            10.5
        );
    }

    #[test]
    fn check_flags_medians_outside_the_bound_in_either_direction() {
        let set = |qps: f64| {
            let mut samples = Samples::default();
            samples.push("throughput_qps", qps);
            samples.push("policy.admitted", qps); // per-layer: never gated
            parse_results(&result_lines("w", &samples.summaries()))
        };
        assert_eq!(check_against(&set(100.0), &set(110.0)), 0);
        assert_eq!(check_against(&set(100.0), &set(70.0)), 1);
        assert_eq!(check_against(&set(100.0), &set(130.0)), 1);
        assert_eq!(check_against(&BTreeMap::new(), &set(100.0)), 1);
    }

    #[test]
    fn json_line_has_the_contract_shape() {
        let mut samples = Samples::default();
        samples.push("setup_s", 0.5);
        let line = json_line(
            ["setup_s", "csr"].into_iter(),
            &samples.summaries(),
            true,
            7,
            0,
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
