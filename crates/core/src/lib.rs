//! # watchman-core
//!
//! Core library of the WATCHMAN reproduction: the retrieved-set cache
//! manager described in *"WATCHMAN: A Data Warehouse Intelligent Cache
//! Manager"* (Scheuermann, Shim & Vingralek, VLDB 1996).
//!
//! WATCHMAN caches whole *retrieved sets* — the materialized results of
//! decision-support queries — and decides what to keep using a **profit
//! metric** that combines, for each set, its average reference rate `λᵢ`,
//! its size `sᵢ` and the execution cost `cᵢ` of the query that produced it:
//!
//! ```text
//! profit(RSᵢ) = λᵢ · cᵢ / sᵢ
//! ```
//!
//! Two complementary algorithms use this metric:
//!
//! * **LNC-R** (Least Normalized Cost Replacement) evicts cached sets in
//!   ascending profit order, considering sets with fewer reference samples
//!   first.
//! * **LNC-A** (Least Normalized Cost Admission) admits a newly retrieved set
//!   only if its profit exceeds the aggregate profit of the sets it would
//!   displace.
//!
//! Their combination, **LNC-RA**, is provided by [`policy::lnc::LncCache`],
//! alongside the comparison baselines used in the paper's evaluation (LRU,
//! LRU-K) and in follow-up literature (LFU, LCS, GreedyDual-Size).
//!
//! ## Quick start: the engine
//!
//! The primary public API is the concurrent [`engine`]: a sharded,
//! builder-configured facade serving many sessions at once, exactly the
//! "library of routines that may be linked with an application" of paper §3.
//!
//! ```
//! use watchman_core::engine::{LookupSource, PolicyKind, Watchman};
//! use watchman_core::prelude::*;
//!
//! // 8 shards, each an independent LNC-RA policy instance (K = 4), sharing
//! // 16 MB of capacity. Handles are cheap clones; one engine serves every
//! // session of a warehouse front end.
//! let engine: Watchman<SizedPayload> = Watchman::builder()
//!     .shards(8)
//!     .policy(PolicyKind::LncRa { k: 4 })
//!     .capacity_bytes(16 << 20)
//!     .build();
//!
//! let key = QueryKey::from_raw_query("SELECT sum(price) FROM lineitem WHERE year = 1995");
//!
//! // One call: hit, or execute-and-admit. Concurrent misses on the same
//! // query execute the warehouse query exactly once (single-flight).
//! let lookup = engine.get_or_execute(&key, Timestamp::from_secs(1), || {
//!     (SizedPayload::new(256), ExecutionCost::from_blocks(12_000))
//! });
//! assert_eq!(lookup.source, LookupSource::Executed);
//!
//! // Subsequent references are served from the cache, payloads shared by Arc.
//! let again = engine.get_or_execute(&key, Timestamp::from_secs(2), || unreachable!());
//! assert_eq!(again.source, LookupSource::Hit);
//! assert_eq!(engine.stats_snapshot().total.hits, 1);
//! ```
//!
//! Single-threaded tools (the simulator, the optimality oracles) can still
//! drive a bare policy through [`policy::QueryCache`]; the engine and the
//! policies share one construction path, [`engine::PolicyKind`].
//!
//! ## Crate layout
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`engine`] | **The concurrent engine**: sharded [`Watchman`] facade, poll-based single-flight misses (sync + async front doors), [`PolicyKind`], [`CacheEvent`] observers, [`StatsSnapshot`] |
//! | [`runtime`] | Hand-rolled async [`Runtime`]: worker pool, task queue, timers, epoll IO reactor with async [`net`](runtime::net) wrappers, [`block_on`] |
//! | [`key`] | Query IDs, signatures, delimiter compression (paper §3) |
//! | [`value`] | [`CachePayload`], retrieved sets, execution costs |
//! | [`clock`] | Logical timestamps and a manually driven clock |
//! | [`history`] | Sliding-window reference histories (Eq. 3) |
//! | [`profit`] | The profit and estimated-profit metrics (Eq. 2, 5, 6, 8) |
//! | [`policy`] | The [`QueryCache`] trait, LNC-R/LNC-RA and all baselines |
//! | [`retained`] | Retained reference information (§2.4) |
//! | [`coherence`] | Relation-dependency tracking and invalidation on warehouse updates (§3) |
//! | [`equivalence`] | Canonical query keys (§6): a caller applies [`canonical_key`](equivalence::canonical_key) before the engine lookup |
//! | [`metrics`] | Cost savings ratio, hit ratio, fragmentation (§4.1) |
//! | [`telemetry`] | Process-global metrics registry, latency histograms, flight recorder (see OBSERVABILITY.md) |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// `deny` rather than `forbid`: the epoll FFI in `runtime::reactor::sys` is
// the single allowed exception (scoped `#[allow]`, no crates.io in this
// build environment so there is no `libc`/`mio` to lean on).  Everything
// else in the crate remains unsafe-free.
#![deny(unsafe_code)]

pub mod checker;
pub mod clock;
pub mod coherence;
mod decay;
pub mod engine;
pub mod equivalence;
pub mod history;
pub mod index;
pub mod key;
pub mod metrics;
pub mod policy;
pub mod profit;
pub mod retained;
pub mod runtime;
pub mod sync;
pub mod telemetry;
pub mod value;

/// Convenient re-exports of the types most applications need.
pub mod prelude {
    pub use crate::clock::{ManualClock, Timestamp};
    pub use crate::coherence::{
        invalidate_affected, DependencyIndex, DependencyObserver, InvalidationReport,
    };
    pub use crate::engine::{
        BreakerConfig, CacheEvent, CacheObserver, FailureConfig, FetchError, Lookup, LookupError,
        LookupFuture, LookupSource, PolicyKind, RetryPolicy, StatsSnapshot, Watchman,
    };
    pub use crate::history::ReferenceHistory;
    pub use crate::key::{QueryKey, Signature};
    pub use crate::metrics::{CacheStats, FragmentationTracker};
    pub use crate::policy::gds::GreedyDualSizeCache;
    pub use crate::policy::lcs::LcsCache;
    pub use crate::policy::lfu::LfuCache;
    pub use crate::policy::lnc::{LncCache, LncConfig};
    pub use crate::policy::lru::LruCache;
    pub use crate::policy::lru_k::{LruKCache, LruKConfig};
    pub use crate::policy::{InsertOutcome, QueryCache, RejectReason};
    pub use crate::profit::Profit;
    pub use crate::runtime::{block_on, JoinError, JoinHandle, Runtime};
    pub use crate::telemetry::{HistogramSnapshot, MetricsSnapshot, TraceDump, TraceEvent};
    pub use crate::value::{CachePayload, Datum, ExecutionCost, RetrievedSet, Row, SizedPayload};
}

pub use prelude::*;
