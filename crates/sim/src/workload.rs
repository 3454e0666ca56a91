//! Workload construction shared by all experiments.
//!
//! Each experiment needs one or both of the paper's benchmark traces.  To
//! keep experiments fast during development and exhaustive when reproducing
//! the paper, every experiment takes an [`ExperimentScale`]: the paper scale
//! replays the full 17 000-query traces, the quick scale a few thousand
//! queries (enough for every qualitative trend to be visible).

use serde::{Deserialize, Serialize};
use watchman_trace::{Trace, TraceConfig, TraceGenerator};
use watchman_warehouse::{setquery, synthetic, tpcd, Benchmark, BenchmarkKind};

/// How large an experiment run should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExperimentScale {
    /// Number of queries per trace.
    pub query_count: usize,
    /// Workload seed.
    pub seed: u64,
}

impl ExperimentScale {
    /// The paper's scale: 17 000 queries per trace.
    pub fn paper() -> Self {
        ExperimentScale {
            query_count: TraceConfig::PAPER_QUERY_COUNT,
            seed: 1996,
        }
    }

    /// A reduced scale for unit tests and micro-benchmarks.
    pub fn quick(query_count: usize) -> Self {
        ExperimentScale {
            query_count,
            seed: 1996,
        }
    }

    /// Returns the scale with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn trace_config(&self) -> TraceConfig {
        TraceConfig {
            query_count: self.query_count,
            seed: self.seed,
            mean_interarrival_us: 1_000_000,
            template_weights: None,
        }
    }
}

/// A benchmark together with a trace generated against it.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The benchmark (catalog + templates + models).
    pub benchmark: Benchmark,
    /// The generated trace.
    pub trace: Trace,
}

impl Workload {
    /// Builds the TPC-D workload at the given scale.
    pub fn tpcd(scale: ExperimentScale) -> Workload {
        let benchmark = tpcd::benchmark();
        let trace = TraceGenerator::new(&benchmark, scale.trace_config()).generate();
        Workload { benchmark, trace }
    }

    /// Builds the Set Query workload at the given scale.
    pub fn set_query(scale: ExperimentScale) -> Workload {
        let benchmark = setquery::benchmark();
        let trace = TraceGenerator::new(&benchmark, scale.trace_config()).generate();
        Workload { benchmark, trace }
    }

    /// Builds a *skewed* TPC-D workload instead of the paper's uniform
    /// template selection: a few dozen hot drill-down summaries dominate the
    /// references, against a stream of one-off detail queries.
    ///
    /// Most references go to Q10 (24 distinct instances, a few KB each) and
    /// Q1 (61 tiny instances); the bulk of the remainder goes to the
    /// never-repeating low-summarization templates Q13/Q16.  With so few
    /// distinct hot keys, the engine's signature hashing lands *unequal
    /// slices of the hot working set* on different shards — exactly the
    /// keyspace skew that starves a static `total/N` capacity split.  (A
    /// smooth popularity skew over thousands of keys would not do this:
    /// hashing would average it out across shards.)
    pub fn tpcd_skewed(scale: ExperimentScale) -> Workload {
        let benchmark = tpcd::benchmark();
        let mut weights = vec![0.5; benchmark.template_count()];
        weights[9] = 40.0; // Q10: 24 hot instances, ~3 KB results
        weights[0] = 10.0; // Q1: 61 hot instances, tiny results
        weights[12] = 30.0; // Q13: one-off detail queries (churn)
        weights[15] = 10.0; // Q16: one-off detail queries (churn)
        let config = scale.trace_config().with_weights(weights);
        let trace = TraceGenerator::new(&benchmark, config).generate();
        Workload { benchmark, trace }
    }

    /// Builds a *skewed* Set Query workload, the Set Query analogue of
    /// [`Workload::tpcd_skewed`]: a few dozen hot report queries dominate
    /// the references against a stream of one-off detail queries.
    ///
    /// Most references go to SQ5 (60 distinct full-scan report instances)
    /// and SQ6A (160 join reports with multi-KB retrieved sets) — the
    /// expensive summaries everyone re-runs, and large enough to contend for
    /// cache space; the bulk of the remainder goes to the never-repeating
    /// low-summarization templates SQ7P1 and SQ4B.  As with the TPC-D
    /// variant, hashing so few distinct hot keys lands unequal slices of the
    /// hot working set on different shards — the keyspace skew a static
    /// `total/N` capacity split cannot absorb.
    pub fn set_query_skewed(scale: ExperimentScale) -> Workload {
        let benchmark = setquery::benchmark();
        let mut weights = vec![0.5; benchmark.template_count()];
        weights[7] = 30.0; // SQ5: 60 hot instances, expensive scan reports
        weights[8] = 20.0; // SQ6A: 160 hot instances, costly joins, KB-sized
        weights[10] = 20.0; // SQ7P1: one-off large projections (churn)
        weights[6] = 20.0; // SQ4B: one-off detail queries (churn)
        let config = scale.trace_config().with_weights(weights);
        let trace = TraceGenerator::new(&benchmark, config).generate();
        Workload { benchmark, trace }
    }

    /// Builds the 14-relation buffer-experiment workload at the given scale.
    pub fn buffer_experiment(scale: ExperimentScale) -> Workload {
        let benchmark = synthetic::benchmark();
        let trace = TraceGenerator::new(&benchmark, scale.trace_config()).generate();
        Workload { benchmark, trace }
    }

    /// Both cache-experiment workloads (TPC-D and Set Query), in the order
    /// the paper's figures present them.
    pub fn both(scale: ExperimentScale) -> Vec<Workload> {
        vec![Workload::tpcd(scale), Workload::set_query(scale)]
    }

    /// The benchmark kind.
    pub fn kind(&self) -> BenchmarkKind {
        self.benchmark.kind()
    }

    /// The database size in bytes.
    pub fn database_bytes(&self) -> u64 {
        self.benchmark.catalog().total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_build_expected_trace_lengths() {
        assert_eq!(ExperimentScale::paper().query_count, 17_000);
        let workload = Workload::tpcd(ExperimentScale::quick(200));
        assert_eq!(workload.trace.len(), 200);
        assert_eq!(workload.kind(), BenchmarkKind::TpcD);
        assert!(workload.database_bytes() > 0);
    }

    #[test]
    fn both_returns_tpcd_then_set_query() {
        let workloads = Workload::both(ExperimentScale::quick(50));
        assert_eq!(workloads.len(), 2);
        assert_eq!(workloads[0].kind(), BenchmarkKind::TpcD);
        assert_eq!(workloads[1].kind(), BenchmarkKind::SetQuery);
    }

    #[test]
    fn seeds_change_traces() {
        let a = Workload::tpcd(ExperimentScale::quick(100));
        let b = Workload::tpcd(ExperimentScale::quick(100).with_seed(7));
        assert_ne!(a.trace, b.trace);
    }

    #[test]
    fn buffer_workload_uses_fourteen_relations() {
        let workload = Workload::buffer_experiment(ExperimentScale::quick(20));
        assert_eq!(workload.benchmark.catalog().relation_count(), 14);
    }
}
