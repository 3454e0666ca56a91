//! Optimality-gap experiment (ties the §2.3 analysis to the traces).
//!
//! Theorem 1 shows that, under a stationary reference distribution and
//! negligible fragmentation, the static selection produced by the greedy
//! LNC\* algorithm is optimal.  This experiment computes, for each benchmark
//! trace and cache size, the cost savings ratio that the *static* LNC\*
//! selection would achieve (using the trace's empirical reference counts as
//! the probability estimates, and charging one compulsory miss per distinct
//! query) and compares it with what the *on-line* LNC-RA policy actually
//! achieved.  The gap measures how much is lost to on-line estimation and
//! transient behaviour.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use watchman_warehouse::QueryInstance;

use crate::runner::run_policy;
use crate::table::{percent, ratio, TextTable};
use crate::theory::{lnc_star_skipping, KnapsackItem};
use crate::workload::{ExperimentScale, Workload};
use crate::PolicyKind;

/// One row of the optimality-gap table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimalityRow {
    /// Benchmark label.
    pub benchmark: String,
    /// Cache size as a fraction of the database.
    pub cache_fraction: f64,
    /// CSR achieved by on-line LNC-RA.
    pub online_csr: f64,
    /// CSR the static LNC\* selection would achieve on the same trace.
    pub static_csr: f64,
}

/// The complete optimality-gap experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimalityExperiment {
    /// One row per (benchmark, cache fraction).
    pub rows: Vec<OptimalityRow>,
}

/// Per-distinct-query aggregates extracted from a trace.
struct QueryAggregate {
    references: u64,
    cost_blocks: u64,
    result_bytes: u64,
}

impl OptimalityExperiment {
    /// Runs the experiment for the given cache fractions.
    pub fn run(scale: ExperimentScale, fractions: &[f64]) -> Self {
        let mut rows = Vec::new();
        for workload in Workload::both(scale) {
            let aggregates = Self::aggregate(&workload);
            let items: Vec<KnapsackItem> = aggregates
                .values()
                .map(|a| {
                    KnapsackItem::new(a.references as f64, a.cost_blocks as f64, a.result_bytes)
                })
                .collect();
            let total_cost: f64 = aggregates
                .values()
                .map(|a| a.references as f64 * a.cost_blocks as f64)
                .sum();
            for &fraction in fractions {
                let capacity = (workload.database_bytes() as f64 * fraction).round() as u64;
                let selection = lnc_star_skipping(&items, capacity);
                // A statically cached query still pays one compulsory miss to
                // materialize its retrieved set; all later references hit.
                let saved: f64 = selection
                    .chosen
                    .iter()
                    .map(|&i| (items[i].probability - 1.0).max(0.0) * items[i].cost)
                    .sum();
                let static_csr = if total_cost > 0.0 {
                    saved / total_cost
                } else {
                    0.0
                };
                let online = run_policy(&workload.trace, PolicyKind::LNC_RA, fraction);
                rows.push(OptimalityRow {
                    benchmark: workload.kind().label().to_owned(),
                    cache_fraction: fraction,
                    online_csr: online.cost_savings_ratio,
                    static_csr,
                });
            }
        }
        OptimalityExperiment { rows }
    }

    fn aggregate(workload: &Workload) -> HashMap<QueryInstance, QueryAggregate> {
        let mut aggregates: HashMap<QueryInstance, QueryAggregate> = HashMap::new();
        for record in workload.trace.iter() {
            let entry = aggregates.entry(record.instance).or_insert(QueryAggregate {
                references: 0,
                cost_blocks: record.cost_blocks,
                result_bytes: record.result_bytes,
            });
            entry.references += 1;
        }
        aggregates
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(
            "Optimality gap: on-line LNC-RA vs static LNC* selection",
            &["benchmark", "cache", "LNC-RA CSR", "LNC* CSR", "gap"],
        );
        for row in &self.rows {
            table.push_row(vec![
                row.benchmark.clone(),
                percent(row.cache_fraction),
                ratio(row.online_csr),
                ratio(row.static_csr),
                ratio(row.static_csr - row.online_csr),
            ]);
        }
        table.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_policy_comes_close_to_the_static_oracle() {
        let experiment = OptimalityExperiment::run(ExperimentScale::quick(2_500), &[0.01]);
        assert_eq!(experiment.rows.len(), 2);
        for row in &experiment.rows {
            assert!(
                row.static_csr > 0.0,
                "{}: static CSR is zero",
                row.benchmark
            );
            // The on-line policy cannot be expected to beat the informed
            // static selection by much, and must reach a reasonable fraction
            // of it.
            assert!(
                row.online_csr > 0.4 * row.static_csr,
                "{}: online {} too far below static {}",
                row.benchmark,
                row.online_csr,
                row.static_csr
            );
        }
    }

    #[test]
    fn render_mentions_both_quantities() {
        let experiment = OptimalityExperiment::run(ExperimentScale::quick(400), &[0.01]);
        let rendered = experiment.render();
        assert!(rendered.contains("LNC-RA CSR"));
        assert!(rendered.contains("LNC* CSR"));
    }
}
