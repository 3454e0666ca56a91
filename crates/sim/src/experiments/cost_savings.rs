//! Figures 4 and 5: cost savings ratio and hit ratio as a function of cache
//! size, plus the admission-control ablation the paper reports in §4.2.
//!
//! The paper sweeps cache sizes from 0.1 % to 5 % of the database size and
//! compares LNC-RA, LNC-R and vanilla LRU, with the infinite-cache value as
//! an upper bound.  The headline findings reproduced here:
//!
//! * LNC-RA consistently outperforms LRU, by the largest factor at the
//!   smallest cache sizes;
//! * the admission algorithm (LNC-RA vs LNC-R) always helps, again most at
//!   small cache sizes;
//! * cost savings ratios converge to the infinite-cache ceiling much faster
//!   than hit ratios.

use serde::{Deserialize, Serialize};

use crate::runner::{run_infinite, run_policy, RunResult};
use crate::table::{percent, ratio, TextTable};
use crate::workload::{ExperimentScale, Workload};
use crate::PolicyKind;

/// The cache-size sweep used by Figures 4–6 (fractions of database size).
pub const PAPER_CACHE_FRACTIONS: [f64; 8] = [0.001, 0.002, 0.005, 0.01, 0.02, 0.03, 0.04, 0.05];

/// A reduced sweep for quick runs.
pub const QUICK_CACHE_FRACTIONS: [f64; 4] = [0.002, 0.01, 0.03, 0.05];

/// Results of one benchmark's sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResult {
    /// Benchmark label.
    pub benchmark: String,
    /// The cache fractions swept.
    pub fractions: Vec<f64>,
    /// Per-policy results, indexed `[policy][fraction]`.
    pub runs: Vec<Vec<RunResult>>,
    /// Policy labels, parallel to `runs`.
    pub policies: Vec<String>,
    /// The infinite-cache upper bound.
    pub infinite: RunResult,
}

impl SweepResult {
    /// The runs of a policy by label.
    pub fn policy_runs(&self, label: &str) -> Option<&[RunResult]> {
        self.policies
            .iter()
            .position(|p| p == label)
            .map(|i| self.runs[i].as_slice())
    }

    /// The average CSR improvement factor of `a` over `b` across the sweep.
    pub fn average_csr_factor(&self, a: &str, b: &str) -> f64 {
        let (Some(a_runs), Some(b_runs)) = (self.policy_runs(a), self.policy_runs(b)) else {
            return 0.0;
        };
        let factors: Vec<f64> = a_runs
            .iter()
            .zip(b_runs)
            .filter(|(_, b)| b.cost_savings_ratio > 0.0)
            .map(|(a, b)| a.cost_savings_ratio / b.cost_savings_ratio)
            .collect();
        if factors.is_empty() {
            0.0
        } else {
            factors.iter().sum::<f64>() / factors.len() as f64
        }
    }

    /// The maximum CSR improvement factor of `a` over `b` (the paper reports
    /// it is reached at the smallest cache size).
    pub fn max_csr_factor(&self, a: &str, b: &str) -> f64 {
        let (Some(a_runs), Some(b_runs)) = (self.policy_runs(a), self.policy_runs(b)) else {
            return 0.0;
        };
        a_runs
            .iter()
            .zip(b_runs)
            .filter(|(_, b)| b.cost_savings_ratio > 0.0)
            .map(|(a, b)| a.cost_savings_ratio / b.cost_savings_ratio)
            .fold(0.0, f64::max)
    }
}

/// The complete Figures 4/5 experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostSavingsExperiment {
    /// One sweep per benchmark.
    pub sweeps: Vec<SweepResult>,
}

impl CostSavingsExperiment {
    /// Runs the experiment with the paper's cache-size sweep.
    pub fn run(scale: ExperimentScale) -> Self {
        Self::run_with_fractions(scale, &PAPER_CACHE_FRACTIONS)
    }

    /// Runs the experiment with a custom cache-size sweep.
    pub fn run_with_fractions(scale: ExperimentScale, fractions: &[f64]) -> Self {
        let policies = PolicyKind::paper_trio();
        let sweeps = Workload::both(scale)
            .into_iter()
            .map(|workload| {
                let runs: Vec<Vec<RunResult>> = policies
                    .iter()
                    .map(|&kind| {
                        fractions
                            .iter()
                            .map(|&fraction| run_policy(&workload.trace, kind, fraction))
                            .collect()
                    })
                    .collect();
                SweepResult {
                    benchmark: workload.kind().label().to_owned(),
                    fractions: fractions.to_vec(),
                    policies: policies.iter().map(PolicyKind::label).collect(),
                    runs,
                    infinite: run_infinite(&workload.trace),
                }
            })
            .collect();
        CostSavingsExperiment { sweeps }
    }

    fn render_metric(
        &self,
        title_prefix: &str,
        metric: impl Fn(&RunResult) -> f64,
        infinite_metric: impl Fn(&RunResult) -> f64,
    ) -> String {
        let mut out = String::new();
        for sweep in &self.sweeps {
            let mut headers: Vec<String> = vec!["policy".to_owned()];
            headers.extend(sweep.fractions.iter().map(|f| percent(*f)));
            let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
            let mut table = TextTable::new(
                format!(
                    "{title_prefix} ({}) vs cache size (% of database)",
                    sweep.benchmark
                ),
                &header_refs,
            );
            for (policy, runs) in sweep.policies.iter().zip(&sweep.runs) {
                let mut row = vec![policy.clone()];
                row.extend(runs.iter().map(|r| ratio(metric(r))));
                table.push_row(row);
            }
            let mut inf_row = vec!["inf".to_owned()];
            inf_row.extend(
                sweep
                    .fractions
                    .iter()
                    .map(|_| ratio(infinite_metric(&sweep.infinite))),
            );
            table.push_row(inf_row);
            out.push_str(&table.render());
            out.push('\n');
        }
        out
    }

    /// Renders the Figure 4 tables (cost savings ratio).
    pub fn render_cost_savings(&self) -> String {
        self.render_metric(
            "Figure 4: cost savings ratio",
            |r| r.cost_savings_ratio,
            |r| r.cost_savings_ratio,
        )
    }

    /// Renders the Figure 5 tables (hit ratio).
    pub fn render_hit_ratio(&self) -> String {
        self.render_metric("Figure 5: hit ratio", |r| r.hit_ratio, |r| r.hit_ratio)
    }

    /// Renders the §4.2 summary: average/maximum improvement factors of
    /// LNC-RA over LRU and over LNC-R (the admission-control ablation).
    pub fn render_summary(&self) -> String {
        let mut table = TextTable::new(
            "Section 4.2 summary: CSR improvement factors",
            &[
                "benchmark",
                "LNC-RA/LRU avg",
                "LNC-RA/LRU max",
                "LNC-RA/LNC-R avg",
                "LNC-RA/LNC-R max",
            ],
        );
        for sweep in &self.sweeps {
            table.push_row(vec![
                sweep.benchmark.clone(),
                format!("{:.2}x", sweep.average_csr_factor("LNC-RA", "LRU")),
                format!("{:.2}x", sweep.max_csr_factor("LNC-RA", "LRU")),
                format!("{:.2}x", sweep.average_csr_factor("LNC-RA", "LNC-R")),
                format!("{:.2}x", sweep.max_csr_factor("LNC-RA", "LNC-R")),
            ]);
        }
        table.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_experiment() -> CostSavingsExperiment {
        CostSavingsExperiment::run_with_fractions(
            ExperimentScale::quick(3_000),
            &[0.002, 0.01, 0.05],
        )
    }

    #[test]
    fn lnc_ra_dominates_lru_everywhere() {
        let experiment = quick_experiment();
        for sweep in &experiment.sweeps {
            let lnc = sweep.policy_runs("LNC-RA").unwrap();
            let lru = sweep.policy_runs("LRU").unwrap();
            for (a, b) in lnc.iter().zip(lru) {
                assert!(
                    a.cost_savings_ratio >= b.cost_savings_ratio * 0.98,
                    "{} @ {:.3}: LNC-RA {} < LRU {}",
                    sweep.benchmark,
                    a.cache_fraction,
                    a.cost_savings_ratio,
                    b.cost_savings_ratio
                );
            }
            assert!(
                sweep.average_csr_factor("LNC-RA", "LRU") > 1.2,
                "{}: average improvement factor too small",
                sweep.benchmark
            );
        }
    }

    #[test]
    fn improvement_is_largest_at_the_smallest_cache() {
        let experiment = quick_experiment();
        for sweep in &experiment.sweeps {
            let lnc = sweep.policy_runs("LNC-RA").unwrap();
            let lru = sweep.policy_runs("LRU").unwrap();
            let first_factor = lnc[0].cost_savings_ratio / lru[0].cost_savings_ratio.max(1e-9);
            let last_factor = lnc.last().unwrap().cost_savings_ratio
                / lru.last().unwrap().cost_savings_ratio.max(1e-9);
            assert!(
                first_factor >= last_factor * 0.8,
                "{}: improvement should not grow with cache size (first {first_factor}, last {last_factor})",
                sweep.benchmark
            );
        }
    }

    #[test]
    fn admission_control_helps_on_average() {
        let experiment = quick_experiment();
        for sweep in &experiment.sweeps {
            assert!(
                sweep.average_csr_factor("LNC-RA", "LNC-R") > 0.97,
                "{}: admission control should not hurt on average",
                sweep.benchmark
            );
        }
        // On at least one benchmark the admission algorithm must yield a
        // clear improvement (the paper reports +32 % on TPC-D).
        let best = experiment
            .sweeps
            .iter()
            .map(|s| s.average_csr_factor("LNC-RA", "LNC-R"))
            .fold(0.0, f64::max);
        assert!(best > 1.02, "admission never helped (best factor {best})");
    }

    #[test]
    fn csr_converges_to_infinite_cache_faster_than_hit_ratio() {
        let experiment = quick_experiment();
        for sweep in &experiment.sweeps {
            let lnc = sweep.policy_runs("LNC-RA").unwrap().last().unwrap();
            let csr_gap = sweep.infinite.cost_savings_ratio - lnc.cost_savings_ratio;
            let hr_gap = sweep.infinite.hit_ratio - lnc.hit_ratio;
            assert!(
                csr_gap <= hr_gap + 0.05,
                "{}: CSR should converge at least as fast as HR (gaps {csr_gap} vs {hr_gap})",
                sweep.benchmark
            );
        }
    }

    #[test]
    fn render_produces_all_three_tables() {
        let experiment =
            CostSavingsExperiment::run_with_fractions(ExperimentScale::quick(500), &[0.01, 0.05]);
        assert!(experiment.render_cost_savings().contains("Figure 4"));
        assert!(experiment.render_hit_ratio().contains("Figure 5"));
        let summary = experiment.render_summary();
        assert!(summary.contains("LNC-RA/LRU"));
        assert!(summary.contains("TPC-D"));
    }
}
