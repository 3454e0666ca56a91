//! Figure 3: impact of the reference window `K`.
//!
//! With the cache fixed at 1 % of the database size, the paper varies the
//! number of retained reference times `K` and compares LNC-RA with LRU-K.
//! The finding: LRU-K improves substantially with larger `K`, while LNC-RA —
//! which already uses cost and size information — improves only mildly.

use serde::{Deserialize, Serialize};

use crate::runner::run_policy;
use crate::table::{ratio, TextTable};
use crate::workload::{ExperimentScale, Workload};
use crate::PolicyKind;

/// The cache size used throughout Figure 3: 1 % of the database.
pub const CACHE_FRACTION: f64 = 0.01;

/// CSR of one policy for each value of `K`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KSeries {
    /// Policy family label ("LNC-RA" or "LRU-K").
    pub policy: String,
    /// `(K, cost savings ratio)` pairs in ascending `K` order.
    pub points: Vec<(usize, f64)>,
}

impl KSeries {
    /// Relative CSR improvement from the smallest to the largest `K`.
    pub fn improvement(&self) -> f64 {
        match (self.points.first(), self.points.last()) {
            (Some((_, first)), Some((_, last))) if *first > 0.0 => (last - first) / first,
            _ => 0.0,
        }
    }
}

/// The Figure 3 result for one benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImpactOfKResult {
    /// Benchmark label.
    pub benchmark: String,
    /// One series per policy family.
    pub series: Vec<KSeries>,
}

/// The complete Figure 3 experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImpactOfKExperiment {
    /// One result per benchmark.
    pub results: Vec<ImpactOfKResult>,
    /// The values of `K` swept.
    pub ks: Vec<usize>,
}

impl ImpactOfKExperiment {
    /// Runs the experiment at the given scale, sweeping `K ∈ {1, 2, 3, 4}`.
    pub fn run(scale: ExperimentScale) -> Self {
        Self::run_with_ks(scale, &[1, 2, 3, 4])
    }

    /// Runs the experiment for a custom set of `K` values.
    pub fn run_with_ks(scale: ExperimentScale, ks: &[usize]) -> Self {
        let results = Workload::both(scale)
            .into_iter()
            .map(|workload| {
                let lnc_points = ks
                    .iter()
                    .map(|&k| {
                        let r =
                            run_policy(&workload.trace, PolicyKind::LncRa { k }, CACHE_FRACTION);
                        (k, r.cost_savings_ratio)
                    })
                    .collect();
                let lruk_points = ks
                    .iter()
                    .map(|&k| {
                        let r = run_policy(&workload.trace, PolicyKind::LruK { k }, CACHE_FRACTION);
                        (k, r.cost_savings_ratio)
                    })
                    .collect();
                ImpactOfKResult {
                    benchmark: workload.kind().label().to_owned(),
                    series: vec![
                        KSeries {
                            policy: "LNC-RA".to_owned(),
                            points: lnc_points,
                        },
                        KSeries {
                            policy: "LRU-K".to_owned(),
                            points: lruk_points,
                        },
                    ],
                }
            })
            .collect();
        ImpactOfKExperiment {
            results,
            ks: ks.to_vec(),
        }
    }

    /// Renders one table per benchmark.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for result in &self.results {
            let mut headers: Vec<String> = vec!["policy".to_owned()];
            headers.extend(self.ks.iter().map(|k| format!("K={k}")));
            let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
            let mut table = TextTable::new(
                format!(
                    "Figure 3: impact of K on CSR ({}, cache = 1% of database)",
                    result.benchmark
                ),
                &header_refs,
            );
            for series in &result.series {
                let mut row = vec![series.policy.clone()];
                row.extend(series.points.iter().map(|(_, csr)| ratio(*csr)));
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
    fn lruk_gains_from_k_and_lnc_ra_stays_on_top() {
        // Paper Figure 3: LRU-K improves strongly with larger K (48 % on
        // TPC-D, 29 % on Set Query), while LNC-RA — which already uses cost
        // and size information — is far less sensitive to K and dominates
        // LRU-K at every K.  (On our synthetic traces LNC-RA's CSR moves
        // mildly with K, sometimes downward; see EXPERIMENTS.md for the
        // discussion of that deviation.)
        let experiment = ImpactOfKExperiment::run_with_ks(ExperimentScale::quick(6_000), &[1, 4]);
        for result in &experiment.results {
            let lnc = &result.series[0];
            let lruk = &result.series[1];
            // LRU-K must benefit substantially from more reference history.
            assert!(
                lruk.improvement() > 0.10,
                "{}: LRU-K should gain clearly from K=1 to K=4 ({:?})",
                result.benchmark,
                lruk.points
            );
            // LNC-RA must not collapse: its worst K stays within a moderate
            // band of its best K.
            let best = lnc.points.iter().map(|p| p.1).fold(0.0, f64::max);
            let worst = lnc.points.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
            assert!(
                worst > 0.55 * best,
                "{}: LNC-RA varies too wildly with K ({:?})",
                result.benchmark,
                lnc.points
            );
            // LNC-RA with any K must beat LRU-K at the same K (it uses more
            // information).
            for (lnc_point, lruk_point) in lnc.points.iter().zip(&lruk.points) {
                assert!(
                    lnc_point.1 >= lruk_point.1,
                    "{}: LNC-RA (K={}) = {} should not be below LRU-K = {}",
                    result.benchmark,
                    lnc_point.0,
                    lnc_point.1,
                    lruk_point.1
                );
            }
        }
    }

    #[test]
    fn render_mentions_both_policies_and_all_ks() {
        let experiment = ImpactOfKExperiment::run_with_ks(ExperimentScale::quick(600), &[1, 2]);
        let rendered = experiment.render();
        assert!(rendered.contains("LNC-RA"));
        assert!(rendered.contains("LRU-K"));
        assert!(rendered.contains("K=1"));
        assert!(rendered.contains("K=2"));
    }
}
