//! Figure 6: external cache fragmentation.
//!
//! The optimality argument of §2.3 assumes the cache can always be filled
//! almost completely.  Figure 6 verifies that assumption experimentally by
//! measuring the average fraction of *used* cache space for LNC-RA, LNC-R and
//! LRU across cache sizes: the paper finds LNC-RA stays above 96 % used
//! (typically 98.5 %) and even the policies without admission control stay
//! above 88 %.

use serde::{Deserialize, Serialize};

use crate::runner::run_policy;
use crate::table::{percent, TextTable};
use crate::workload::{ExperimentScale, Workload};
use crate::PolicyKind;

/// The cache-size sweep used by Figure 6 (the paper starts at 0.2 %).
pub const PAPER_CACHE_FRACTIONS: [f64; 7] = [0.002, 0.005, 0.01, 0.02, 0.03, 0.04, 0.05];

/// Used-space fractions of one policy across the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FragmentationSeries {
    /// Policy label.
    pub policy: String,
    /// Average used fraction per cache fraction.
    pub avg_used: Vec<f64>,
    /// Minimum observed used fraction per cache fraction.
    pub min_used: Vec<f64>,
}

/// The Figure 6 result for one benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FragmentationResult {
    /// Benchmark label.
    pub benchmark: String,
    /// The cache fractions swept.
    pub fractions: Vec<f64>,
    /// One series per policy.
    pub series: Vec<FragmentationSeries>,
}

/// The complete Figure 6 experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FragmentationExperiment {
    /// One result per benchmark.
    pub results: Vec<FragmentationResult>,
}

impl FragmentationExperiment {
    /// Runs the experiment with the paper's sweep.
    pub fn run(scale: ExperimentScale) -> Self {
        Self::run_with_fractions(scale, &PAPER_CACHE_FRACTIONS)
    }

    /// Runs the experiment with a custom sweep.
    pub fn run_with_fractions(scale: ExperimentScale, fractions: &[f64]) -> Self {
        let policies = PolicyKind::paper_trio();
        let results = Workload::both(scale)
            .into_iter()
            .map(|workload| {
                let series = policies
                    .iter()
                    .map(|&kind| {
                        let runs: Vec<_> = fractions
                            .iter()
                            .map(|&f| run_policy(&workload.trace, kind, f))
                            .collect();
                        FragmentationSeries {
                            policy: kind.label(),
                            avg_used: runs.iter().map(|r| r.avg_used_fraction).collect(),
                            min_used: runs.iter().map(|r| r.min_used_fraction).collect(),
                        }
                    })
                    .collect();
                FragmentationResult {
                    benchmark: workload.kind().label().to_owned(),
                    fractions: fractions.to_vec(),
                    series,
                }
            })
            .collect();
        FragmentationExperiment { results }
    }

    /// Renders one table per benchmark (average used space, as in Figure 6).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for result in &self.results {
            let mut headers: Vec<String> = vec!["policy".to_owned()];
            headers.extend(result.fractions.iter().map(|f| percent(*f)));
            let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
            let mut table = TextTable::new(
                format!(
                    "Figure 6: % of cache space used ({}) vs cache size",
                    result.benchmark
                ),
                &header_refs,
            );
            for series in &result.series {
                let mut row = vec![series.policy.clone()];
                row.extend(series.avg_used.iter().map(|v| percent(*v)));
                table.push_row(row);
            }
            out.push_str(&table.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_are_well_utilized_once_warm() {
        // The assumption behind Theorem 1: unused space is a small fraction
        // of the cache.  The steady-state (average) utilization must be high
        // for every policy; LNC-RA must not be worse than the baselines by
        // more than a small margin.
        let experiment = FragmentationExperiment::run_with_fractions(
            ExperimentScale::quick(3_000),
            &[0.005, 0.02],
        );
        for result in &experiment.results {
            for series in &result.series {
                for (&fraction, &avg) in result.fractions.iter().zip(&series.avg_used) {
                    assert!(
                        avg > 0.70,
                        "{} / {} @ {:.3}: average used fraction {} too low",
                        result.benchmark,
                        series.policy,
                        fraction,
                        avg
                    );
                }
            }
        }
    }

    #[test]
    fn lnc_ra_utilization_is_competitive() {
        let experiment =
            FragmentationExperiment::run_with_fractions(ExperimentScale::quick(2_000), &[0.01]);
        for result in &experiment.results {
            let get = |label: &str| {
                result
                    .series
                    .iter()
                    .find(|s| s.policy == label)
                    .map(|s| s.avg_used[0])
                    .unwrap()
            };
            let lnc_ra = get("LNC-RA");
            let lru = get("LRU");
            assert!(
                lnc_ra > lru - 0.15,
                "{}: LNC-RA utilization {} collapsed relative to LRU {}",
                result.benchmark,
                lnc_ra,
                lru
            );
        }
    }

    #[test]
    fn render_contains_percentages() {
        let experiment =
            FragmentationExperiment::run_with_fractions(ExperimentScale::quick(400), &[0.01]);
        let rendered = experiment.render();
        assert!(rendered.contains("Figure 6"));
        assert!(rendered.contains('%'));
        assert!(rendered.contains("LNC-RA"));
    }
}
