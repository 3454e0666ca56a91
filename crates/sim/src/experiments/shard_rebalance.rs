//! Extension sweep: static vs profit-aware rebalanced shard capacity.
//!
//! The concurrent engine hash-partitions the keyspace across N shards and by
//! default splits the cache capacity statically `total/N`.  On a skewed
//! keyspace that starves hot shards.  This experiment quantifies both the
//! metric cost of static partitioning and the repair delivered by the
//! engine's profit-aware rebalancer ([`RebalanceConfig`]): a skewed trace is
//! replayed at shards ∈ {1, 2, 4, 8, 16} × a set of cache fractions, once
//! with the static split and once with rebalancing enabled, and the CSRs are
//! reported side by side (a Figure-style table the paper never had,
//! answering its §3 multiuser-deployment question).
//!
//! The sweep runs as a **matrix** over benchmarks and policies
//! ([`ShardRebalanceExperiment::run_matrix`]):
//!
//! * skewed TPC-D × LNC-RA — the paper's deployed policy, whose §2.4
//!   retained reference information gives the rebalancer its exact
//!   gain/loss signal;
//! * skewed Set Query × LNC-RA — the same question on the second benchmark;
//! * skewed TPC-D × GreedyDual-Size — a policy that retains no reference
//!   information, so the rebalancer falls back to its **pressure-only**
//!   signal (rejections + evictions).  Pressure prices neither side of a
//!   move, so this row is the honest lower bound of the mechanism.
//!
//! Replays are deterministic: the engine never rebalances on the request
//! path, and the replay driver schedules passes every
//! [`REBALANCE_EVERY_RECORDS`](crate::runner::REBALANCE_EVERY_RECORDS)
//! records instead of configuring the wall-clock background task.

use serde::{Deserialize, Serialize};
use watchman_core::engine::RebalanceConfig;

use crate::runner::{run_policy_sharded_with, RunResult};
use crate::table::{percent, ratio, TextTable};
use crate::workload::{ExperimentScale, Workload};
use crate::PolicyKind;

/// The shard counts swept.
pub const SHARD_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// The cache fractions swept on the TPC-D trace.
pub const CACHE_FRACTIONS: [f64; 2] = [0.005, 0.01];

/// The cache fractions swept on the Set Query trace.  Its database is ~3×
/// the TPC-D one and its hot report working set is proportionally smaller,
/// so shard starvation only bites at tighter fractions.
pub const SET_QUERY_FRACTIONS: [f64; 2] = [0.001, 0.002];

/// One (shards, cache fraction) cell of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardSweepCell {
    /// Number of shards.
    pub shards: usize,
    /// Cache capacity as a fraction of the database size.
    pub cache_fraction: f64,
    /// The run with the static `total/N` capacity split.
    pub static_split: RunResult,
    /// The run with profit-aware rebalancing enabled.
    pub rebalanced: RunResult,
}

impl ShardSweepCell {
    /// CSR gained (or lost) by rebalancing over the static split.
    pub fn csr_delta(&self) -> f64 {
        self.rebalanced.cost_savings_ratio - self.static_split.cost_savings_ratio
    }
}

/// The complete static-vs-rebalanced shard sweep for one (benchmark, policy)
/// pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardRebalanceExperiment {
    /// Benchmark label.
    pub benchmark: String,
    /// Display label of the policy every shard runs.
    pub policy: String,
    /// The cells, in (fraction-major, shards-minor) order.
    pub cells: Vec<ShardSweepCell>,
}

impl ShardRebalanceExperiment {
    /// The rebalance configuration the sweep uses: `manual()` scheduling
    /// (the replay driver runs a pass every 128 records — wall-clock
    /// background passes would make the replay nondeterministic).
    pub fn rebalance_config() -> RebalanceConfig {
        RebalanceConfig::new().manual()
    }

    /// Runs the sweep on the skewed TPC-D workload with LNC-RA (the paper's
    /// deployed policy) at the default shard counts and fractions.
    pub fn run(scale: ExperimentScale) -> Self {
        Self::run_with(scale, &SHARD_COUNTS, &CACHE_FRACTIONS)
    }

    /// Runs the skewed-TPC-D / LNC-RA sweep with custom shard counts and
    /// fractions.
    pub fn run_with(scale: ExperimentScale, shard_counts: &[usize], fractions: &[f64]) -> Self {
        Self::run_on(
            &Workload::tpcd_skewed(scale),
            "TPC-D (skewed)",
            PolicyKind::LNC_RA,
            shard_counts,
            fractions,
        )
    }

    /// Runs the full benchmark × policy matrix at the default shard counts,
    /// each benchmark at its own fractions (see the module docs for why each
    /// row is there).
    pub fn run_matrix(scale: ExperimentScale) -> Vec<Self> {
        let tpcd = Workload::tpcd_skewed(scale);
        let set_query = Workload::set_query_skewed(scale);
        vec![
            Self::run_on(
                &tpcd,
                "TPC-D (skewed)",
                PolicyKind::LNC_RA,
                &SHARD_COUNTS,
                &CACHE_FRACTIONS,
            ),
            Self::run_on(
                &set_query,
                "Set Query (skewed)",
                PolicyKind::LNC_RA,
                &SHARD_COUNTS,
                &SET_QUERY_FRACTIONS,
            ),
            // GreedyDual-Size retains no reference information: the
            // rebalancer falls back to the pressure-only signal.
            Self::run_on(
                &tpcd,
                "TPC-D (skewed)",
                PolicyKind::GreedyDualSize,
                &SHARD_COUNTS,
                &CACHE_FRACTIONS,
            ),
        ]
    }

    /// Runs the sweep for one workload and policy.
    pub fn run_on(
        workload: &Workload,
        benchmark_label: &str,
        kind: PolicyKind,
        shard_counts: &[usize],
        fractions: &[f64],
    ) -> Self {
        let mut cells = Vec::with_capacity(shard_counts.len() * fractions.len());
        for &fraction in fractions {
            for &shards in shard_counts {
                let static_split =
                    run_policy_sharded_with(&workload.trace, kind, fraction, shards, None);
                let rebalanced = run_policy_sharded_with(
                    &workload.trace,
                    kind,
                    fraction,
                    shards,
                    Some(Self::rebalance_config()),
                );
                cells.push(ShardSweepCell {
                    shards,
                    cache_fraction: fraction,
                    static_split,
                    rebalanced,
                });
            }
        }
        ShardRebalanceExperiment {
            benchmark: benchmark_label.to_owned(),
            policy: kind.label(),
            cells,
        }
    }

    /// The cell for a (shards, fraction) pair, if it was swept.
    pub fn cell(&self, shards: usize, fraction: f64) -> Option<&ShardSweepCell> {
        self.cells
            .iter()
            .find(|c| c.shards == shards && (c.cache_fraction - fraction).abs() < 1e-12)
    }

    /// Renders the sweep as one Figure-style table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(
            format!(
                "Shard sweep: CSR static total/N vs profit-rebalanced ({}, {})",
                self.benchmark, self.policy
            ),
            &[
                "cache",
                "shards",
                "CSR static",
                "CSR rebalanced",
                "delta",
                "HR static",
                "HR rebalanced",
                "rebalances",
            ],
        );
        for cell in &self.cells {
            table.push_row(vec![
                percent(cell.cache_fraction),
                cell.shards.to_string(),
                ratio(cell.static_split.cost_savings_ratio),
                ratio(cell.rebalanced.cost_savings_ratio),
                format!("{:+.3}", cell.csr_delta()),
                ratio(cell.static_split.hit_ratio),
                ratio(cell.rebalanced.hit_ratio),
                cell.rebalanced.rebalances.to_string(),
            ]);
        }
        table.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebalancing_meets_or_beats_the_static_split_on_a_skewed_workload() {
        let experiment =
            ShardRebalanceExperiment::run_with(ExperimentScale::quick(4_000), &[4, 8], &[0.005]);
        for cell in &experiment.cells {
            assert!(
                cell.rebalanced.cost_savings_ratio >= cell.static_split.cost_savings_ratio - 1e-9,
                "{} shards: rebalanced CSR {} fell below static CSR {}",
                cell.shards,
                cell.rebalanced.cost_savings_ratio,
                cell.static_split.cost_savings_ratio
            );
            assert!(
                cell.rebalanced.rebalances > 0,
                "{} shards: the rebalancer never moved capacity",
                cell.shards
            );
        }
        // At 8 shards the static split visibly starves hot shards; the
        // rebalancer must claw a real improvement back.
        let eight = experiment.cell(8, 0.005).unwrap();
        assert!(
            eight.csr_delta() > 0.0,
            "8 shards: rebalancing should strictly improve CSR (delta {})",
            eight.csr_delta()
        );
    }

    #[test]
    fn set_query_sweep_also_benefits_from_rebalancing() {
        let experiment = ShardRebalanceExperiment::run_on(
            &Workload::set_query_skewed(ExperimentScale::quick(4_000)),
            "Set Query (skewed)",
            PolicyKind::LNC_RA,
            &[8],
            &[0.001],
        );
        let cell = &experiment.cells[0];
        assert!(
            cell.rebalanced.rebalances > 0,
            "the rebalancer never moved capacity on Set Query"
        );
        assert!(
            cell.csr_delta() > 0.0,
            "Set Query at a starved fraction: rebalancing should improve CSR \
             (static {}, rebalanced {})",
            cell.static_split.cost_savings_ratio,
            cell.rebalanced.cost_savings_ratio
        );
    }

    #[test]
    fn pressure_only_policy_never_collapses_under_rebalancing() {
        // GreedyDual-Size retains no reference information: the rebalancer
        // falls back to pure rejection/eviction pressure.  That signal
        // prices neither side of a move, so we assert safety (no meaningful
        // CSR regression), not improvement.
        let experiment = ShardRebalanceExperiment::run_on(
            &Workload::tpcd_skewed(ExperimentScale::quick(3_000)),
            "TPC-D (skewed)",
            PolicyKind::GreedyDualSize,
            &[8],
            &[0.005],
        );
        let cell = &experiment.cells[0];
        assert!(
            cell.rebalanced.cost_savings_ratio >= cell.static_split.cost_savings_ratio - 0.02,
            "pressure-only rebalancing regressed CSR from {} to {}",
            cell.static_split.cost_savings_ratio,
            cell.rebalanced.cost_savings_ratio
        );
    }

    #[test]
    fn single_shard_rebalancing_is_a_no_op() {
        let experiment =
            ShardRebalanceExperiment::run_with(ExperimentScale::quick(1_000), &[1], &[0.01]);
        let cell = &experiment.cells[0];
        assert_eq!(cell.rebalanced.rebalances, 0);
        assert!(
            (cell.csr_delta()).abs() < 1e-12,
            "one shard has nothing to move"
        );
    }

    #[test]
    fn render_contains_every_cell() {
        let experiment =
            ShardRebalanceExperiment::run_with(ExperimentScale::quick(500), &[1, 2], &[0.01]);
        let rendered = experiment.render();
        assert!(rendered.contains("CSR rebalanced"));
        assert!(rendered.contains("LNC-RA"));
        assert_eq!(rendered.lines().count(), 3 + experiment.cells.len());
    }
}
