//! # WATCHMAN — a data warehouse intelligent cache manager
//!
//! This is the facade crate of the WATCHMAN reproduction (Scheuermann, Shim &
//! Vingralek, VLDB 1996).  It re-exports the workspace crates so applications
//! and the bundled examples can depend on a single crate:
//!
//! * [`core`] ([`watchman_core`]) — the cache manager itself: the concurrent
//!   [`Watchman`](watchman_core::engine::Watchman) engine (sharded, with
//!   single-flight miss deduplication and cache events), the LNC-R
//!   replacement and LNC-A admission algorithms (combined: LNC-RA), the
//!   retained-reference-information mechanism, the comparison baselines
//!   (LRU, LRU-K, LFU, LCS, GreedyDual-Size), metrics and the §2.3
//!   optimality oracles.
//! * [`warehouse`] ([`watchman_warehouse`]) — the synthetic data warehouse:
//!   TPC-D, Set Query and the 14-relation buffer workload, with cost,
//!   result-size and page-access models.
//! * [`trace`] ([`watchman_trace`]) — drill-down workload traces.
//! * [`buffer`] ([`watchman_buffer`]) — the page-level LRU buffer manager
//!   with p₀-redundancy hints, subscribable to engine cache events.
//! * [`sim`] ([`watchman_sim`]) — the experiment harness reproducing the
//!   paper's Figures 2–7 and the extension ablations.
//! * [`server`] ([`watchman_server`]) — the networked front end: the
//!   versioned wire protocol, the `watchmand` cache server (misses coalesce
//!   across client connections), a typed pipelining client and the
//!   `loadgen` load generator.
//!
//! ## Quick start
//!
//! The primary API is the engine: build it once, share cheap clones with
//! every session, and let [`get_or_execute`](watchman_core::engine::Watchman::get_or_execute)
//! run the hit-or-execute-and-admit protocol (deduplicating concurrent
//! misses on the same query):
//!
//! ```
//! use watchman::prelude::*;
//!
//! // An 8-shard LNC-RA engine with 2 MB of capacity — the paper's policy
//! // configuration (K = 4, admission control, retained reference info),
//! // ready for a multiuser front end.
//! let engine: Watchman<SizedPayload> = Watchman::builder()
//!     .shards(8)
//!     .policy(PolicyKind::LncRa { k: 4 })
//!     .capacity_bytes(2 << 20)
//!     .build();
//!
//! let query = QueryKey::from_raw_query(
//!     "SELECT o_orderpriority, count(*) FROM orders GROUP BY o_orderpriority",
//! );
//!
//! let lookup = engine.get_or_execute(&query, Timestamp::from_secs(10), || {
//!     // Cache miss: execute against the warehouse and report the observed
//!     // execution cost (in block reads).
//!     (SizedPayload::new(320), ExecutionCost::from_blocks(8_500))
//! });
//! assert_eq!(lookup.source, LookupSource::Executed);
//! assert!(engine.contains(&query));
//!
//! // Later references share the cached payload by Arc — no copying.
//! let hit = engine.get_or_execute(&query, Timestamp::from_secs(11), || unreachable!());
//! assert_eq!(hit.source, LookupSource::Hit);
//! ```
//!
//! Sessions that should *suspend* instead of blocking threads while a
//! multi-second warehouse query executes can use the asynchronous front door,
//! [`get_or_execute_async`](watchman_core::engine::Watchman::get_or_execute_async),
//! backed by the hand-rolled [`runtime`](watchman_core::runtime) — see the
//! `async_sessions` example.
//!
//! See the `examples/` directory for complete programs: `quickstart`,
//! `drill_down`, `buffer_hints`, `policy_comparison`, `async_sessions` and
//! `wire_sessions` (the cache served over TCP).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub use watchman_buffer as buffer;
pub use watchman_core as core;
pub use watchman_core::telemetry;
pub use watchman_server as server;
pub use watchman_sim as sim;
pub use watchman_trace as trace;
pub use watchman_warehouse as warehouse;

/// The most commonly used types from every workspace crate.
pub mod prelude {
    pub use watchman_buffer::{
        BufferPool, BufferStats, QueryReferenceTracker, RedundancyHintObserver,
    };
    pub use watchman_core::prelude::*;
    pub use watchman_server::{
        serve, Client, GetRequest, Report, Requests, Scenario, ServerConfig, ServerHandle,
    };
    pub use watchman_sim::{
        replay_trace, replay_trace_engine, replay_trace_engine_async,
        replay_trace_engine_concurrent, run_infinite, run_policy, run_policy_sharded,
        ExperimentScale, RunResult, Workload,
    };
    pub use watchman_trace::{Trace, TraceConfig, TraceGenerator, TraceRecord, TraceStats};
    pub use watchman_warehouse::{
        Benchmark, BenchmarkKind, ExecutionResult, QueryExecutor, QueryInstance, TemplateId,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_are_usable_together() {
        let workload = Workload::tpcd(ExperimentScale::quick(100));
        let result = run_policy(&workload.trace, PolicyKind::LNC_RA, 0.01);
        assert_eq!(result.references, 100);
    }

    #[test]
    fn engine_and_sim_share_policy_kind() {
        // PolicyKind re-exported through the sim crate and through the core
        // prelude must be the same type.
        let kind: watchman_sim::PolicyKind = PolicyKind::LNC_RA;
        let engine: Watchman<SizedPayload> = Watchman::builder()
            .policy(kind)
            .capacity_bytes(1 << 20)
            .build();
        assert_eq!(engine.policy(), PolicyKind::LNC_RA);
    }
}
