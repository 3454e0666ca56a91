//! # watchman-warehouse
//!
//! The synthetic data-warehouse substrate for the WATCHMAN reproduction.
//!
//! The paper gathered its traces by running the TPC-D and Set Query
//! benchmarks against an Oracle 7 installation (30 MB and 100 MB databases
//! respectively) and recording, per query, the retrieval timestamp, the query
//! ID, the retrieved-set size and the execution cost in logical block reads.
//! This crate replaces that installation with a deterministic model:
//!
//! * [`catalog`] — relations, row counts and page counts for a target
//!   database size;
//! * [`template`] — query templates with parameter spaces spanning many
//!   orders of magnitude (the "drill-down analysis" distribution);
//! * [`benchmark`] — the cost, result-size and page-access models tying a
//!   catalog and its templates together;
//! * [`tpcd`], [`setquery`], [`synthetic`] — the three concrete workloads
//!   used in the paper's experiments (TPC-D, Set Query, and the 14-relation
//!   buffer-manager workload of Figure 7);
//! * [`executor`] — turns a [`template::QueryInstance`] into a cache key, an
//!   execution cost and a materialized retrieved set.
//!
//! Everything is a pure function of the query instance and the benchmark
//! seed, so traces and experiments are exactly reproducible.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod benchmark;
pub mod catalog;
pub mod executor;
pub mod hashing;
pub mod pages;
pub mod setquery;
pub mod synthetic;
pub mod template;
pub mod tpcd;

pub use benchmark::{Benchmark, BenchmarkKind};
pub use catalog::{Catalog, Relation};
pub use executor::{ExecutionResult, QueryExecutor};
pub use pages::{PageId, RelationId, PAGE_SIZE_BYTES};
pub use template::{
    AccessKind, QueryInstance, QueryTemplate, RelationAccess, RowCountModel, SummarizationLevel,
    TemplateId,
};
