//! # watchman-server
//!
//! WATCHMAN over the wire: the networked front end of the reproduction.
//!
//! The paper frames WATCHMAN as a cache manager for a *shared* data
//! warehouse — many analyst sessions hitting one service concurrently.  This
//! crate turns the in-process [`Watchman`](watchman_core::engine::Watchman)
//! engine into that service:
//!
//! * [`wire`] — the versioned, length-prefixed binary protocol (frame
//!   format and versioning rules are specified in its module docs);
//! * [`server`] — `watchmand`: an accept *task* on the engine's runtime
//!   spawns one session *task* per connection over the runtime's epoll
//!   reactor (sessions are parked futures, not threads); every `GET` is
//!   one
//!   [`try_get_or_execute_async`](watchman_core::engine::Watchman::try_get_or_execute_async)
//!   call — the fetch consults the installed [`FaultPlan`], if any — so
//!   hits never suspend and concurrent misses on one query coalesce
//!   **across connections** into a single execution;
//! * [`client`] — a typed client with pipelining and transparent
//!   reconnect;
//! * [`replay`] — the simulator's replay drivers over real sockets: a
//!   deterministic single-session replay whose final
//!   [`StatsSnapshot`](watchman_core::engine::StatsSnapshot) is
//!   byte-identical to the in-process replay of the same trace, and the
//!   one load driver, [`Scenario`]: N connections replay a trace, sweep the
//!   chaos keyspace or hold a connection storm open, every outcome lands in
//!   one [`Outcome`] bucket, and one serializable [`Report`] comes back.
//!
//! Two binaries ship with the crate: `watchmand` (the server) and `loadgen`
//! (runs scenarios over sockets — trace replay, connection storm, fault
//! injection — and gates on their reports).  See the repository README for
//! the quickstart.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]
// Session code routes fetch and IO errors into retry, stale-serve and shed;
// an unwrap turns a recoverable fault into a dead session.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod client;
pub mod fault;
pub mod replay;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError};
pub use fault::FaultPlan;
pub use replay::{
    replay_trace_wire, Outcome, Report, Requests, Scenario, SWEEP_KEYS, SWEEP_RESULT_BYTES,
};
pub use server::{serve, ServerConfig, ServerError, ServerHandle, ServerPayload};
pub use wire::{
    GetRequest, GetResponse, RebalanceSummary, Request, Response, WireError, WireSource,
};
