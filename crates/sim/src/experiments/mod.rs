//! Reproductions of the paper's evaluation (Figures 2–7) plus extension
//! ablations.
//!
//! | Module | Paper artefact |
//! |--------|----------------|
//! | [`infinite_cache`] | Figure 2 — infinite-cache CSR/HR and working-set size |
//! | [`impact_of_k`] | Figure 3 — impact of the reference window `K` |
//! | [`cost_savings`] | Figure 4 (CSR vs cache size), Figure 5 (HR vs cache size), §4.2 improvement summary |
//! | [`fragmentation`] | Figure 6 — external cache fragmentation |
//! | [`buffer_hints`] | Figure 7 — buffer-manager hit ratio vs p₀ |
//! | [`policy_zoo`] | Extension — LNC-RA vs LRU-K / LFU / LCS / GreedyDual-Size |
//! | [`optimality`] | Extension — on-line LNC-RA vs the static LNC\* oracle of §2.3 |
//!
//! Each experiment type has a `run(scale)` constructor and a `render()`
//! method that prints the same rows/series the corresponding paper figure
//! reports.

pub mod buffer_hints;
pub mod cost_savings;
pub mod fragmentation;
pub mod impact_of_k;
pub mod infinite_cache;
pub mod optimality;
pub mod policy_zoo;

pub use buffer_hints::BufferHintExperiment;
pub use cost_savings::CostSavingsExperiment;
pub use fragmentation::FragmentationExperiment;
pub use impact_of_k::ImpactOfKExperiment;
pub use infinite_cache::InfiniteCacheExperiment;
pub use optimality::OptimalityExperiment;
pub use policy_zoo::PolicyZooExperiment;
