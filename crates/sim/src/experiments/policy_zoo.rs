//! Extension ablation: LNC-RA against the wider policy zoo.
//!
//! Beyond the paper's LNC-RA / LNC-R / LRU comparison, this experiment also
//! runs LRU-K, LFU, LCS (the ADMS baselines discussed in §5) and
//! GreedyDual-Size (the cost/size-aware policy that later became standard).
//! It quantifies how much of LNC-RA's advantage comes from using *any*
//! cost/size information versus from the specific profit metric and admission
//! control.

use serde::{Deserialize, Serialize};

use crate::runner::{run_policy, RunResult};
use crate::table::{percent, ratio, TextTable};
use crate::workload::{ExperimentScale, Workload};
use crate::PolicyKind;

/// The cache fractions used by the ablation.
pub const CACHE_FRACTIONS: [f64; 3] = [0.005, 0.01, 0.05];

/// Results of the zoo on one benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyZooResult {
    /// Benchmark label.
    pub benchmark: String,
    /// Cache fractions swept.
    pub fractions: Vec<f64>,
    /// Policy labels.
    pub policies: Vec<String>,
    /// Runs indexed `[policy][fraction]`.
    pub runs: Vec<Vec<RunResult>>,
}

impl PolicyZooResult {
    /// The CSR of a policy at a fraction index.
    pub fn csr(&self, policy: &str, fraction_index: usize) -> Option<f64> {
        let idx = self.policies.iter().position(|p| p == policy)?;
        self.runs[idx]
            .get(fraction_index)
            .map(|r| r.cost_savings_ratio)
    }
}

/// The complete policy-zoo ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyZooExperiment {
    /// One result per benchmark.
    pub results: Vec<PolicyZooResult>,
}

impl PolicyZooExperiment {
    /// Runs the ablation with the default fractions.
    pub fn run(scale: ExperimentScale) -> Self {
        Self::run_with_fractions(scale, &CACHE_FRACTIONS)
    }

    /// Runs the ablation with custom fractions.
    pub fn run_with_fractions(scale: ExperimentScale, fractions: &[f64]) -> Self {
        let policies = PolicyKind::all();
        let results = Workload::both(scale)
            .into_iter()
            .map(|workload| {
                let runs = policies
                    .iter()
                    .map(|&kind| {
                        fractions
                            .iter()
                            .map(|&f| run_policy(&workload.trace, kind, f))
                            .collect()
                    })
                    .collect();
                PolicyZooResult {
                    benchmark: workload.kind().label().to_owned(),
                    fractions: fractions.to_vec(),
                    policies: policies.iter().map(PolicyKind::label).collect(),
                    runs,
                }
            })
            .collect();
        PolicyZooExperiment { results }
    }

    /// Renders one CSR table per benchmark.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for result in &self.results {
            let mut headers: Vec<String> = vec!["policy".to_owned()];
            headers.extend(result.fractions.iter().map(|f| percent(*f)));
            let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
            let mut table = TextTable::new(
                format!(
                    "Ablation: CSR of the full policy zoo ({})",
                    result.benchmark
                ),
                &header_refs,
            );
            for (policy, runs) in result.policies.iter().zip(&result.runs) {
                let mut row = vec![policy.clone()];
                row.extend(runs.iter().map(|r| ratio(r.cost_savings_ratio)));
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
    fn lnc_ra_is_at_or_near_the_top_of_the_zoo() {
        let experiment =
            PolicyZooExperiment::run_with_fractions(ExperimentScale::quick(2_500), &[0.01]);
        for result in &experiment.results {
            let lnc = result.csr("LNC-RA", 0).unwrap();
            // LNC-RA must clearly dominate every cost/size-blind policy.
            for blind in ["LRU", "LRU-4", "LFU"] {
                let other = result.csr(blind, 0).unwrap();
                assert!(
                    lnc > other,
                    "{}: LNC-RA ({lnc}) beaten by the cost-blind {blind} ({other})",
                    result.benchmark
                );
            }
            // Against the other size/cost-aware policies (LCS, GreedyDual-Size)
            // LNC-RA must stay in the same league; on some workload/cache
            // combinations LCS-style size-only eviction can edge ahead.
            for policy in &result.policies {
                let other = result.csr(policy, 0).unwrap();
                assert!(
                    lnc >= other * 0.75,
                    "{}: LNC-RA ({lnc}) clearly beaten by {policy} ({other})",
                    result.benchmark
                );
            }
        }
    }

    #[test]
    fn cost_aware_policies_beat_cost_blind_ones_on_skewed_workloads() {
        // On the Set Query trace (heavily skewed costs), the cost/size-aware
        // policies (LNC-RA, GreedyDual-Size) must beat the cost-blind LRU.
        let experiment =
            PolicyZooExperiment::run_with_fractions(ExperimentScale::quick(2_500), &[0.01]);
        let sq = experiment
            .results
            .iter()
            .find(|r| r.benchmark == "Set Query")
            .unwrap();
        let lru = sq.csr("LRU", 0).unwrap();
        assert!(sq.csr("LNC-RA", 0).unwrap() > lru);
        assert!(sq.csr("GreedyDual-Size", 0).unwrap() > lru * 0.9);
    }

    #[test]
    fn render_lists_all_policies() {
        let experiment =
            PolicyZooExperiment::run_with_fractions(ExperimentScale::quick(300), &[0.01]);
        let rendered = experiment.render();
        for policy in PolicyKind::all() {
            assert!(rendered.contains(&policy.label()), "missing {policy}");
        }
    }
}
