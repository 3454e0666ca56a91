//! # watchman-sim
//!
//! The experiment harness of the WATCHMAN reproduction: it wires the cache
//! policies ([`watchman-core`](watchman_core)), the synthetic warehouse
//! ([`watchman-warehouse`](watchman_warehouse)), the trace generator
//! ([`watchman-trace`](watchman_trace)) and the buffer manager
//! ([`watchman-buffer`](watchman_buffer)) into the experiments of the paper's
//! evaluation section.
//!
//! * [`PolicyKind`] — named policy configurations (the engine's own type,
//!   re-exported so the experiments, the engine and the examples share one
//!   construction path), with the [`SimPayload`] / [`BoxedCache`] aliases
//!   the experiment runners use;
//! * [`workload`] — the TPC-D, Set Query and buffer-experiment workloads;
//! * [`runner`] — trace replay and metric collection;
//! * [`experiments`] — one module per paper figure (2–7) plus extension
//!   ablations;
//! * [`table`] — text-table rendering used by the figure binaries and the
//!   Criterion benches;
//! * [`theory`] — LNC\* and the exact knapsack oracle of the §2.3
//!   optimality model, behind the optimality-gap experiment.
//!
//! Each figure also has a binary (`fig2_infinite_cache`, `fig3_impact_of_k`,
//! `fig4_5_cost_savings`, `fig6_fragmentation`, `fig7_buffer_hints`,
//! `ablation_policy_zoo`, `run_all`) that runs the experiment at paper scale
//! and prints its table.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod runner;
pub mod table;
pub mod theory;
pub mod workload;

pub use experiments::{
    BufferHintExperiment, CostSavingsExperiment, FragmentationExperiment, ImpactOfKExperiment,
    InfiniteCacheExperiment, OptimalityExperiment, PolicyZooExperiment,
};
pub use runner::{
    replay_trace, replay_trace_engine, run_infinite, run_policy, run_policy_sharded,
    run_result_from_snapshot, RunResult,
};
pub use watchman_core::engine::PolicyKind;
pub use workload::{ExperimentScale, Workload};

/// The payload type used by all simulation experiments: retrieved sets are
/// represented by their size only, which is all any policy decision uses.
pub type SimPayload = watchman_core::value::SizedPayload;

/// A boxed cache policy over simulation payloads.
pub type BoxedCache = Box<dyn watchman_core::policy::QueryCache<SimPayload> + Send>;
