//! # watchman-bench
//!
//! Benchmark harnesses for the cache-manager hot paths (`micro_cache_ops`,
//! `engine_concurrency`, `async_coalescing`) and the wire front end
//! (`wire_roundtrip`).  The paper's tables and figures are printed by the
//! `watchman-sim` binaries (`cargo run --release -p watchman-sim --bin
//! fig2_infinite_cache -- --quick`, …, `run_all`), not here.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]
