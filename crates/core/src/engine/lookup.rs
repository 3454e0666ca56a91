//! The lookup protocol of paper §3 — probe the cache, on a miss execute once
//! and offer the retrieved set for admission — as one poll-based state
//! machine ([`LookupFuture`]), the five front doors that adapt it, and the
//! task that runs a spawned leader fetch.

use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use crate::clock::Timestamp;
use crate::engine::failure::{BreakerState, FetchError, LookupError};
use crate::engine::single_flight::{Flight, FlightOutcome, LeaderOutcome, WaiterSlot};
use crate::engine::watchman::{record_insert_telemetry, Inner, Shard, ShardState, Watchman};
use crate::key::QueryKey;
use crate::policy::InsertOutcome;
use crate::runtime::Sleep;
use crate::telemetry::TraceKind;
use crate::value::{CachePayload, ExecutionCost};

/// Records a finished lookup into the outcome-keyed telemetry histograms
/// ([`crate::telemetry`]): latency from the session's first touch of the
/// engine to the resolved lookup, bucketed by how it resolved.  A coalesced
/// resolution also feeds the single-flight wait histogram — for a waiter,
/// the whole lookup *was* the wait.
fn record_lookup_telemetry(started: Option<Instant>, source: LookupSource) {
    let Some(started) = started else { return };
    let micros = crate::telemetry::elapsed_us(started);
    let telemetry = crate::telemetry::global();
    match source {
        LookupSource::Hit => telemetry.lookup_hit_us.record(micros),
        LookupSource::Executed => telemetry.lookup_executed_us.record(micros),
        LookupSource::Coalesced => {
            telemetry.lookup_coalesced_us.record(micros);
            telemetry.singleflight_wait_us.record(micros);
        }
        LookupSource::Stale => telemetry.lookup_stale_us.record(micros),
    }
}

/// The error-outcome analogue of [`record_lookup_telemetry`].
fn record_lookup_error_telemetry(started: Option<Instant>) {
    let Some(started) = started else { return };
    crate::telemetry::global()
        .lookup_error_us
        .record(crate::telemetry::elapsed_us(started));
}

/// Where a [`Watchman::get_or_execute`] result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupSource {
    /// The retrieved set was already cached.
    Hit,
    /// This session executed the query (it was the single-flight leader).
    Executed,
    /// Another session was already executing the same query; this session
    /// waited for its result instead of re-executing.
    Coalesced,
    /// The fetch failed (or the shard's circuit breaker was open) and the
    /// engine served the last-known-good value instead.  Stale serves pay
    /// their cost into `total_cost` but never into `saved_cost`, so they can
    /// not inflate the paper's cost-savings ratio.
    Stale,
}

/// The result of a [`Watchman::get_or_execute`] call.
#[derive(Debug)]
pub struct Lookup<V> {
    /// The retrieved set, shared without copying.
    pub value: Arc<V>,
    /// How the value was obtained.
    pub source: LookupSource,
    /// The admission outcome, when this session executed the query.
    pub outcome: Option<InsertOutcome>,
}

impl<V> Lookup<V> {
    /// A lookup this session did not execute: nothing was offered for
    /// admission, so there is no outcome.
    fn served(value: Arc<V>, source: LookupSource) -> Self {
        Lookup {
            value,
            source,
            outcome: None,
        }
    }
}

impl<V> Watchman<V>
where
    V: CachePayload + Send + Sync + 'static,
{
    /// Looks up `key`; on a miss, executes `fetch` to produce the retrieved
    /// set and its observed cost, offers it for admission, and returns it.
    ///
    /// Concurrent misses on the same query are **single-flight**: exactly one
    /// session runs `fetch` (outside any lock), the others wait for its
    /// result and share it without executing.  If the leader's `fetch`
    /// panics, exactly one waiter is woken to take over as the new leader
    /// and the panic propagates out of the leader's call.
    ///
    /// This is the synchronous front door: a lock-and-`get` hit fast path,
    /// then [`block_on`](crate::runtime::block_on) over the same
    /// [`LookupFuture`] state machine [`Watchman::get_or_execute_async`]
    /// returns, with the one difference that the leader's `fetch` runs
    /// *inline on the calling thread* (so `fetch` needs no `Send + 'static`
    /// bounds and a single-threaded replay is fully deterministic).
    pub fn get_or_execute<F>(&self, key: &QueryKey, now: Timestamp, fetch: F) -> Lookup<V>
    where
        F: FnOnce() -> (V, ExecutionCost) + Unpin,
    {
        self.lookup_blocking(key, now, Infallible(Some(fetch)))
    }

    /// The asynchronous front door: like [`Watchman::get_or_execute`], but
    /// returns a [`LookupFuture`] and runs the leader's `fetch` on the
    /// engine's [`Runtime`](crate::runtime::Runtime), so a waiting session
    /// suspends (a registered waker) instead of blocking an OS thread.
    ///
    /// Thousands of sessions can wait on slow warehouse queries while the
    /// thread count stays at the runtime's worker-pool size.  The future is
    /// lazy (nothing happens until it is polled) and cancellation-safe:
    /// dropping it deregisters the session's waker, and if the session had
    /// been woken to take over an abandoned flight, the wake is passed to
    /// the next waiter.  Dropping a *leader* whose spawned fetch has not
    /// started yet cancels the execution entirely: the fetch closure is
    /// never invoked, and the flight is abandoned so a still-interested
    /// waiter takes leadership over with its own fetch (with no waiters the
    /// cell is retired).  A fetch already running is past cancellation —
    /// it completes the flight for any remaining waiters.
    ///
    /// A panicking `fetch` is re-raised on the leader session when it awaits
    /// the result, mirroring the synchronous contract; one waiter takes over
    /// the execution.
    pub fn get_or_execute_async<F>(
        &self,
        key: &QueryKey,
        now: Timestamp,
        fetch: F,
    ) -> LookupFuture<V, Infallible<F>>
    where
        F: FnOnce() -> (V, ExecutionCost) + Send + 'static,
    {
        let key = self.inner.normalizer.apply(key);
        self.lookup(key, now, Infallible(Some(fetch)), Some(spawn_fetch_task))
    }

    /// Like [`Watchman::get_or_execute_async`], but the lookup gives up once
    /// `timeout` has elapsed (measured from this call), resolving to
    /// `Err(`[`LookupTimedOut`]`)`.
    ///
    /// A timed-out lookup behaves exactly like a dropped [`LookupFuture`]:
    /// a waiter deregisters (passing along any takeover claim), and a leader
    /// whose spawned fetch has not started yet cancels it — the closure is
    /// never invoked and leadership moves to a remaining waiter.  A fetch
    /// already running finishes and its result still lands in the cache for
    /// future sessions; only *this* session stops waiting for it.
    pub fn get_or_execute_async_with_timeout<F>(
        &self,
        key: &QueryKey,
        now: Timestamp,
        timeout: Duration,
        fetch: F,
    ) -> DeadlineLookup<V, F>
    where
        F: FnOnce() -> (V, ExecutionCost) + Send + 'static,
    {
        DeadlineLookup {
            lookup: Some(self.get_or_execute_async(key, now, fetch)),
            deadline: self.runtime().sleep(timeout),
        }
    }

    /// Like [`Watchman::get_or_execute`], but the fetch is **fallible**: it
    /// returns `Result<(V, Cost), `[`FetchError`]`>`, and an error — unlike a
    /// panic — is a first-class outcome of the lookup.
    ///
    /// * **Single-flight errors are shared.** A terminal fetch error resolves
    ///   the flight for *every* coalesced waiter at once; all of them observe
    ///   the same `Arc<FetchError>` (no per-waiter re-execution, no takeover
    ///   storm).
    /// * **Retries.** The leader retries transient errors under the
    ///   configured [`crate::engine::RetryPolicy`] — bounded attempts,
    ///   exponential backoff with deterministic seeded jitter, slept on the
    ///   engine's runtime timer so replays stay byte-identical.
    /// * **Negative caching.** A terminal failure is memoized per key for a
    ///   short TTL; lookups inside the window resolve immediately
    ///   (`negative_hit == true`) without invoking the fetch.
    /// * **Graceful degradation.** When a
    ///   [`StalenessPolicy`](crate::engine::StalenessPolicy) is configured,
    ///   a failed (or breaker-refused) lookup serves the last-known-good
    ///   value as [`LookupSource::Stale`] — cost-gated by the paper's profit
    ///   machinery, paid into `total_cost` but never into `saved_cost`, so
    ///   stale serves cannot inflate the cost-savings ratio.
    /// * **Circuit breaking.** With a [`crate::engine::BreakerConfig`], a
    ///   shard whose rolling fetch-failure rate trips the threshold refuses
    ///   new executions outright (stale-serving when possible) until a
    ///   half-open probe succeeds.
    ///
    /// The infallible doors run the same state machine *outside* this
    /// failure domain: they consult neither the negative cache nor the
    /// breaker, feed neither, and a session coalesced behind a fallible
    /// leader that failed starts over with its own fetch.
    ///
    /// A **panicking** fetch keeps the infallible contract: the panic
    /// propagates to this caller and one waiter takes over the execution.
    pub fn try_get_or_execute<F>(
        &self,
        key: &QueryKey,
        now: Timestamp,
        fetch: F,
    ) -> Result<Lookup<V>, LookupError>
    where
        F: FnMut() -> Result<(V, ExecutionCost), FetchError> + Unpin,
    {
        self.lookup_blocking(key, now, Fallible(fetch))
    }

    /// The asynchronous fallible front door: like
    /// [`Watchman::try_get_or_execute`], but returns a [`LookupFuture`]
    /// and runs the leader's fetch (and its retry backoffs) on the engine's
    /// [`Runtime`](crate::runtime::Runtime), so waiting sessions suspend
    /// instead of blocking OS threads.  Cancellation behaves exactly like
    /// [`Watchman::get_or_execute_async`]: dropping the future deregisters a
    /// waiter, and a leader whose spawned fetch has not started yet cancels
    /// the execution entirely.
    pub fn try_get_or_execute_async<F>(
        &self,
        key: &QueryKey,
        now: Timestamp,
        fetch: F,
    ) -> LookupFuture<V, Fallible<F>>
    where
        F: FnMut() -> Result<(V, ExecutionCost), FetchError> + Send + 'static,
    {
        let key = self.inner.normalizer.apply(key);
        self.lookup(key, now, Fallible(fetch), Some(spawn_fetch_task))
    }

    /// The one constructor behind every front door.  `spawn` is the hook an
    /// async door supplies to run its leader fetch on the runtime; `None`
    /// runs it inline on the polling thread.
    fn lookup<M>(
        &self,
        key: QueryKey,
        now: Timestamp,
        mode: M,
        spawn: Option<SpawnFetch<V, M>>,
    ) -> LookupFuture<V, M> {
        LookupFuture {
            engine: self.clone(),
            key,
            shard: None,
            now,
            mode: Some(mode),
            spawn,
            state: LookupState::Start,
            attempts: 0,
            leader_cancel: None,
            started: None,
        }
    }

    /// The synchronous doors: the hit fast path, then the state machine
    /// driven in place with an inline fetch.
    fn lookup_blocking<M>(&self, key: &QueryKey, now: Timestamp, mode: M) -> M::Output
    where
        M: FetchMode<V> + Unpin,
    {
        self.observe_now(now);
        let started = crate::telemetry::now();
        let key = self.inner.normalizer.apply(key);
        let shard = self.shard_index(&key);
        // Hit fast path: the engine's hottest operation needs none of the
        // future machinery (engine clone, waker, pinning).  This is exactly
        // the check the future's Start state performs; on a miss the Start
        // state repeats the `get`, which is stat-neutral (misses are
        // recorded at insert, and retained-reference records deduplicate on
        // the timestamp), so sync and async doors stay byte-identical.
        {
            let mut state = self.inner.shards[shard].lock();
            if let Some(value) = state.cache.get(&key, now) {
                let lookup = Lookup::served(Arc::clone(value), LookupSource::Hit);
                drop(state);
                record_lookup_telemetry(Some(started), LookupSource::Hit);
                return M::output(Ok(lookup));
            }
        }
        let mut lookup = self.lookup(key, now, mode, None);
        lookup.shard = Some(shard);
        lookup.started = Some(started);
        crate::runtime::block_on(lookup)
    }

    /// The failure-domain gate in front of a new flight, under the shard
    /// lock.  `Err((error, negative_hit))` resolves the lookup without a
    /// fetch: the key has a fresh memoized failure, or the shard's breaker
    /// refuses.  `Ok(probe)` lets the fetch proceed; `probe` says the
    /// admission drew a half-open probe ticket, which the new cell carries.
    fn admit_fetch(
        &self,
        state: &mut ShardState<V>,
        key: &QueryKey,
        now: Timestamp,
    ) -> Result<bool, (Arc<FetchError>, bool)> {
        if let Some(error) = state.failure.fresh_negative(key, now) {
            self.inner.negative_hits.fetch_add(1, Ordering::Relaxed);
            crate::telemetry::global().negative_hits.incr();
            return Err((error, true));
        }
        let Some(breaker) = state.failure.breaker.as_mut() else {
            return Ok(false);
        };
        if breaker.admit(now) {
            Ok(matches!(breaker.state(), BreakerState::HalfOpen))
        } else {
            let refused = FetchError::transient("circuit breaker open: fetch refused");
            Err((Arc::new(refused), false))
        }
    }

    /// Decides whether a leader whose `attempt`-th try returned `error`
    /// tries again.  `Some(backoff)` counts and traces the retry; `None`
    /// means the error is terminal (fatal, or the budget is spent).
    fn plan_retry(&self, key: &QueryKey, attempt: u32, error: &FetchError) -> Option<Duration> {
        let retry = &self.inner.failure.retry;
        if !error.is_retryable() || attempt >= retry.max_attempts {
            return None;
        }
        self.inner.fetch_retries.fetch_add(1, Ordering::Relaxed);
        let delay = retry.backoff(attempt, key.signature().value());
        let telemetry = crate::telemetry::global();
        telemetry.fetch_retries.incr();
        telemetry.recorder.record(
            TraceKind::FetchRetry,
            key.signature().value(),
            u64::from(attempt),
            delay.as_micros() as u64,
        );
        Some(delay)
    }

    /// Completes a leader's execution: offers the value for admission,
    /// retires the in-flight entry, and publishes the resulting events.
    ///
    /// A `failure_domain` leader also updates the failure domain under the
    /// same shard lock: the breaker records a success, a fresh
    /// last-known-good copy lands in the stale store (when a
    /// [`StalenessPolicy`](crate::engine::StalenessPolicy) is configured),
    /// and any memoized failure for the key is dropped.  Outside it none of
    /// that is touched — except that a cell carrying a half-open probe
    /// ticket (taken over from a failure-domain leader) settles the ticket
    /// whoever completes it.
    #[allow(clippy::too_many_arguments)]
    fn finish_leader_insert(
        &self,
        key: &QueryKey,
        shard_index: usize,
        flight: &Arc<Flight<V>>,
        value: Arc<V>,
        cost: ExecutionCost,
        now: Timestamp,
        failure_domain: bool,
    ) -> InsertOutcome {
        let size_bytes = value.size_bytes();
        let mut state = self.inner.shards[shard_index].lock();
        if flight.take_probe() || failure_domain {
            if let Some(breaker) = state.failure.breaker.as_mut() {
                breaker.record_success(now);
            }
        }
        if failure_domain {
            if let Some(staleness) = &self.inner.failure.staleness {
                state.failure.store_stale(
                    key,
                    Arc::clone(&value),
                    cost,
                    size_bytes,
                    now,
                    staleness,
                );
            }
            state.failure.drop_negative(key);
        }
        let outcome = state.cache.insert(key.clone(), value, cost, now);
        record_insert_telemetry(shard_index, state.cache.used_bytes(), &outcome);
        crate::telemetry::global().recorder.record(
            TraceKind::LookupExecuted,
            key.signature().value(),
            shard_index as u64,
            cost.value() as u64,
        );
        state.retire(key, flight);
        // Emitted under the shard lock: observers see this shard's events in
        // cache order.
        if !self.inner.observers.is_empty() {
            self.emit(Self::insert_events(
                key,
                size_bytes,
                cost,
                &outcome,
                shard_index,
            ));
        }
        outcome
    }

    /// Resolves a fallible leader's *terminal* fetch failure.  Under the
    /// shard lock: retires the in-flight entry (so new arrivals start a fresh
    /// flight instead of joining a doomed one), memoizes the error in the
    /// negative cache, and feeds the breaker's rolling failure window.  Then
    /// fails the flight cell, so every waiter observes the same shared error
    /// — waking them only once the negative entry is visible keeps their
    /// stale/negative consultations consistent.
    fn fail_leader(
        &self,
        key: &QueryKey,
        shard_index: usize,
        flight: &Arc<Flight<V>>,
        error: FetchError,
        now: Timestamp,
    ) -> Arc<FetchError> {
        let error = Arc::new(error);
        let mut state = self.inner.shards[shard_index].lock();
        state.retire(key, flight);
        state
            .failure
            .store_negative(key, Arc::clone(&error), now, &self.inner.failure.negative);
        if let Some(breaker) = state.failure.breaker.as_mut() {
            let was_open = matches!(breaker.state(), BreakerState::Open);
            breaker.record_failure(now);
            if !was_open && matches!(breaker.state(), BreakerState::Open) {
                // A freshly tripped breaker is an anomaly: snapshot the
                // flight recorder's context for the key that tripped it.
                crate::telemetry::global().anomaly(
                    TraceKind::BreakerTrip,
                    key.signature().value(),
                    shard_index as u64,
                    0,
                );
            }
        }
        drop(state);
        flight.fail(Arc::clone(&error));
        error
    }

    /// Resolves a won takeover race on an abandoned flight into a hit or real
    /// leadership.  The failed leader may have panicked *after* its insert
    /// succeeded (in a user observer's emit), leaving the value cached: then
    /// the session is served the hit instead of re-running a multi-second
    /// fetch, and passes leadership along — the next candidate repeats this
    /// check, and the last abandonment retires the cell.
    fn take_over(
        &self,
        key: &QueryKey,
        shard_index: usize,
        now: Timestamp,
        flight: Arc<Flight<V>>,
    ) -> Step<V> {
        let shard = &self.inner.shards[shard_index];
        let cached = shard.lock().cache.get(key, now).map(Arc::clone);
        let Some(value) = cached else {
            return Step::Lead(flight);
        };
        shard.abandon(key, &flight);
        Step::Return(Lookup::served(value, LookupSource::Hit))
    }

    /// Resolves this session's share of a failed lookup: serves the
    /// last-known-good value when the staleness policy judges it worth it
    /// (recording a stale reference — cost paid, nothing saved), otherwise
    /// records an error reference and surfaces the shared error.  Every
    /// session — leader, coalesced waiter, negative-cache hit — resolves
    /// through here exactly once, so the extended reference invariant
    /// `references == hits + coalesced + fetch_errors + stale_serves +
    /// misses` holds per reference.
    fn resolve_failed_lookup(
        &self,
        key: &QueryKey,
        shard_index: usize,
        now: Timestamp,
        error: Arc<FetchError>,
        negative_hit: bool,
    ) -> Result<Lookup<V>, LookupError> {
        let mut state = self.inner.shards[shard_index].lock();
        if let Some(staleness) = &self.inner.failure.staleness {
            if let Some((value, cost)) = state.failure.stale_for(key, now, staleness) {
                state.cache.record_stale_reference(cost);
                crate::telemetry::global().recorder.record(
                    TraceKind::LookupStale,
                    key.signature().value(),
                    shard_index as u64,
                    cost.value() as u64,
                );
                return Ok(Lookup::served(value, LookupSource::Stale));
            }
        }
        state.cache.record_error_reference();
        crate::telemetry::global().recorder.record(
            TraceKind::LookupError,
            key.signature().value(),
            shard_index as u64,
            u64::from(negative_hit),
        );
        Err(LookupError {
            error,
            negative_hit,
        })
    }
}

/// How a lookup's leader obtains the retrieved set: the one parameter of
/// [`LookupFuture`].  The two implementations are the infallible doors'
/// [`Infallible`] and the `try_*` doors' [`Fallible`]; everything else —
/// hit, coalesce, lead, retry, abandonment, takeover — is the same code.
pub trait FetchMode<V> {
    /// What the lookup resolves to.
    type Output;

    /// Whether the session takes part in the failure domain: it consults
    /// the negative cache and the shard's breaker before leading, feeds
    /// breaker, stale store and negative cache when its fetch settles, and
    /// shares a coalesced leader's terminal error.  Outside the domain none
    /// of that state is read or written, and a session whose leader failed
    /// with an error starts over with its own fetch.
    const FAILURE_DOMAIN: bool;

    /// Runs one fetch attempt.
    fn attempt(&mut self) -> Result<(V, ExecutionCost), FetchError>;

    /// Converts the resolved lookup into the door's output type.
    fn output(result: Result<Lookup<V>, LookupError>) -> Self::Output;
}

/// The fetch of [`Watchman::get_or_execute`] and its async variants: runs
/// once, cannot return an error, and stays outside the failure domain.
#[derive(Debug)]
pub struct Infallible<F>(Option<F>);

impl<V, F> FetchMode<V> for Infallible<F>
where
    F: FnOnce() -> (V, ExecutionCost),
{
    type Output = Lookup<V>;
    const FAILURE_DOMAIN: bool = false;

    fn attempt(&mut self) -> Result<(V, ExecutionCost), FetchError> {
        let fetch = self.0.take().expect("leader consumes its fetch once");
        Ok(fetch())
    }

    fn output(result: Result<Lookup<V>, LookupError>) -> Lookup<V> {
        match result {
            Ok(lookup) => lookup,
            // Its own fetch never returns `Err`, it restarts instead of
            // sharing a fallible leader's error, and it never consults the
            // negative cache or the breaker.
            Err(failure) => unreachable!("infallible lookup observed a fetch error: {failure}"),
        }
    }
}

/// The fetch of [`Watchman::try_get_or_execute`] and its async variant:
/// re-invoked on every retry, inside the failure domain.
#[derive(Debug)]
pub struct Fallible<F>(F);

impl<V, F> FetchMode<V> for Fallible<F>
where
    F: FnMut() -> Result<(V, ExecutionCost), FetchError>,
{
    type Output = Result<Lookup<V>, LookupError>;
    const FAILURE_DOMAIN: bool = true;

    fn attempt(&mut self) -> Result<(V, ExecutionCost), FetchError> {
        (self.0)()
    }

    fn output(result: Result<Lookup<V>, LookupError>) -> Self::Output {
        result
    }
}

/// Times one fetch attempt into the `fetch.attempt_us` histogram.
fn timed_attempt<T>(attempt: impl FnOnce() -> T) -> T {
    let start = crate::telemetry::now();
    let result = attempt();
    crate::telemetry::global()
        .fetch_attempt_us
        .record(crate::telemetry::elapsed_us(start));
    result
}

/// The hook an async lookup uses to launch its fetch on the runtime: a
/// plain `fn` pointer, monomorphized in the async front doors (the one
/// place the fetch's `Send + 'static` bounds are in scope) and stored in the
/// [`LookupFuture`] next to the still-unboxed fetch.  A hit therefore
/// resolves without ever touching the allocator — only an actual miss, when
/// the leader transition calls this hook, pays for spawning the fetch task.
/// The final `Arc<AtomicBool>` is the leader session's cancellation flag:
/// set when the session's future is dropped, checked by the spawned task
/// before every attempt.
type SpawnFetch<V, M> =
    fn(&Watchman<V>, M, QueryKey, usize, Timestamp, Arc<Flight<V>>, u64, Arc<AtomicBool>);

/// The [`SpawnFetch`] implementation: hands the fetch to a task on the
/// engine's runtime.  Generic so the closure rides along unboxed; the task
/// future it creates is the miss path's one unavoidable allocation.  The
/// task owns the whole retry loop: backoffs are real `Sleep`s awaited on the
/// runtime timer, so a retrying leader occupies no worker while it waits.
#[allow(clippy::too_many_arguments)]
fn spawn_fetch_task<V, M>(
    engine: &Watchman<V>,
    mode: M,
    key: QueryKey,
    shard: usize,
    now: Timestamp,
    flight: Arc<Flight<V>>,
    epoch: u64,
    cancelled: Arc<AtomicBool>,
) where
    V: CachePayload + Send + Sync + 'static,
    M: FetchMode<V> + Send + 'static,
{
    let weak = Arc::downgrade(&engine.inner);
    let runtime = engine.runtime();
    let timer = runtime.inner_handle();
    runtime.spawn(run_spawned_fetch(
        weak, timer, key, shard, now, flight, epoch, cancelled, mode,
    ));
}

/// Abandons `flight` from a spawned fetch task, which holds the engine only
/// weakly: through the shard while the engine lives (so a waiterless cell is
/// retired), bare once it is gone — there is no table left to retire from.
fn abandon_from_task<V>(
    engine: &Weak<Inner<V>>,
    key: &QueryKey,
    shard: usize,
    flight: &Arc<Flight<V>>,
) {
    match engine.upgrade() {
        Some(inner) => inner.shards[shard].abandon(key, flight),
        None => {
            flight.abandon();
        }
    }
}

/// Runs a spawned leader fetch to completion on a runtime worker: invokes
/// the fetch, retrying transient errors under the engine's
/// [`RetryPolicy`](crate::engine::RetryPolicy) (sleeping the deterministic
/// backoff on the runtime timer), then admits the result, or resolves the
/// flight with the terminal error for every waiter, or — on a panic —
/// abandons it.  Holds only weak references so a task queued behind a long
/// fetch never keeps a dropped engine (or runtime) alive.
#[allow(clippy::too_many_arguments)]
async fn run_spawned_fetch<V, M>(
    engine: Weak<Inner<V>>,
    timer: Weak<crate::runtime::RuntimeInner>,
    key: QueryKey,
    shard: usize,
    now: Timestamp,
    flight: Arc<Flight<V>>,
    epoch: u64,
    cancelled: Arc<AtomicBool>,
    mut mode: M,
) where
    V: CachePayload + Send + Sync + 'static,
    M: FetchMode<V>,
{
    let mut attempt: u32 = 0;
    loop {
        // Cooperative cancellation point, re-checked before *every* attempt:
        // the leader session dropped its future (deadline elapsed,
        // connection torn down) before this task got a worker, or
        // mid-backoff.  The fetch is not invoked (again); abandoning the
        // flight wakes one still-interested waiter to take leadership over
        // with its own fetch — and with no waiters, retires the cell so the
        // next arrival starts fresh.  No panic payload is stored: the only
        // session that would re-raise it is the one that was dropped.
        if cancelled.load(Ordering::Acquire) {
            abandon_from_task(&engine, &key, shard, &flight);
            return;
        }
        attempt += 1;
        let fetched = timed_attempt(|| catch_unwind(AssertUnwindSafe(|| mode.attempt())));
        // The completion stage (insert + observer emit) runs under its own
        // catch_unwind for the same reason the inline path keeps its guard
        // armed through it: a panic in user observer code must abandon the
        // flight, not strand the waiters on a cell that never resolves.
        let settled = fetched.and_then(|fetched| {
            let (value, cost) = match fetched {
                Ok(fetched) => fetched,
                Err(error) => return Ok(Err(error)),
            };
            let value = Arc::new(value);
            catch_unwind(AssertUnwindSafe(|| {
                if let Some(inner) = engine.upgrade() {
                    let outcome = Watchman { inner }.finish_leader_insert(
                        &key,
                        shard,
                        &flight,
                        Arc::clone(&value),
                        cost,
                        now,
                        M::FAILURE_DOMAIN,
                    );
                    flight.set_outcome(outcome);
                }
            }))?;
            Ok(Ok((value, cost)))
        });
        let error = match settled {
            Ok(Ok((value, cost))) => return flight.complete(value, cost),
            Ok(Err(error)) => error,
            // A panic is re-raised on the leader session and one waiter
            // takes over.  Payload first, then abandon: the leader session
            // must observe the payload when its abandonment wake arrives.
            Err(payload) => {
                flight.set_panic(epoch, payload);
                abandon_from_task(&engine, &key, shard, &flight);
                return;
            }
        };
        let Some(inner) = engine.upgrade() else {
            return flight.fail(Arc::new(error));
        };
        let engine = Watchman { inner };
        if let Some(delay) = engine.plan_retry(&key, attempt, &error) {
            drop(engine);
            if !delay.is_zero() {
                Sleep::until(timer.clone(), crate::telemetry::now() + delay).await;
            }
            continue;
        }
        // Terminal: the error is fatal, or the retry budget is spent.
        engine.fail_leader(&key, shard, &flight, error, now);
        return;
    }
}

enum LookupState<V> {
    Start,
    Waiting {
        flight: Arc<Flight<V>>,
        slot: WaiterSlot,
        /// `Some(epoch)` when this session is the leader of that leadership
        /// generation, awaiting its own spawned fetch; `None` for a
        /// coalescing waiter.
        leading: Option<u64>,
    },
    /// An *inline* leader sleeping out a retry backoff on the runtime timer.
    /// The flight stays pending (this session still leads it); waiters keep
    /// coalescing onto it while the backoff elapses.
    Backoff {
        flight: Arc<Flight<V>>,
        sleep: Sleep,
    },
    Finished,
}

/// What one poll step decided, lifted out of the state borrow so the state
/// machine can transition freely.
enum Step<V> {
    Return(Lookup<V>),
    /// Resolve a failure for *this* session: stale-serve if the staleness
    /// policy allows, otherwise surface the shared error.
    Resolve {
        error: Arc<FetchError>,
        negative_hit: bool,
    },
    BecomeWaiter(Arc<Flight<V>>),
    Lead(Arc<Flight<V>>),
    Suspend,
    LeaderFailed(Option<Box<dyn std::any::Any + Send>>),
    /// A failure-domain leader failed the awaited flight with an error and
    /// this session is outside the domain: go back to `Start` and look
    /// again with its own, still unconsumed fetch.
    Restart,
}

/// The one lookup state machine: the future every async front door returns,
/// and the one [`block_on`](crate::runtime::block_on) drives in place inside
/// the synchronous doors.  `M` is the door's fetch mode — infallible, or
/// fallible and so inside the failure domain — and is not nameable outside
/// the engine.
///
/// Resolves to [`Lookup`] for the infallible doors; for the `try_*` doors to
/// `Ok(`[`Lookup`]`)` — including [`LookupSource::Stale`] serves — or
/// `Err(`[`LookupError`]`)` carrying the shared `Arc<FetchError>`.
///
/// Lazy: nothing happens until first poll.  Cancellation-safe: dropping it
/// deregisters this session's waker from the flight it waits on; a dropped
/// takeover candidate passes its wake to the next waiter, and a dropped
/// leader abandons its flight to one.
pub struct LookupFuture<V, M> {
    engine: Watchman<V>,
    /// The normalized key.
    key: QueryKey,
    /// Shard index, resolved on first poll.
    shard: Option<usize>,
    now: Timestamp,
    /// The fetch; taken when a leader hands it to a spawned task.
    mode: Option<M>,
    /// How a leader runs its fetch: spawned onto the runtime through this
    /// hook (async doors), or inline on the polling thread (`None`).
    spawn: Option<SpawnFetch<V, M>>,
    state: LookupState<V>,
    /// Fetch attempts this session has made as the inline leader of the
    /// current flight (spawned leaders count inside their task instead).
    attempts: u32,
    /// Set once this session spawns a leader fetch; flipped by `Drop` so a
    /// fetch task that has not started yet observes the cancellation and
    /// never invokes the closure.
    leader_cancel: Option<Arc<AtomicBool>>,
    /// When this session first touched the engine (the synchronous doors
    /// preset it; the async ones stamp it on first poll), feeding the
    /// outcome-keyed lookup-latency telemetry.
    started: Option<Instant>,
}

impl<V, M> std::fmt::Debug for LookupFuture<V, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LookupFuture")
            .field("key", &self.key)
            .field("now", &self.now)
            .field("attempts", &self.attempts)
            .finish_non_exhaustive()
    }
}

impl<V, M> LookupFuture<V, M>
where
    V: CachePayload + Send + Sync + 'static,
    M: FetchMode<V>,
{
    /// Resolves this session's share of a failed lookup: a stale serve if
    /// the staleness policy allows, otherwise the shared error.
    fn resolve(&mut self, error: Arc<FetchError>, negative_hit: bool) -> Poll<M::Output> {
        let shard_index = self.shard.expect("set before resolving");
        let result = self.engine.resolve_failed_lookup(
            &self.key,
            shard_index,
            self.now,
            error,
            negative_hit,
        );
        self.finish(result)
    }

    /// Resolves the session: records its outcome-keyed latency and wraps the
    /// result in the door's output type.
    fn finish(&mut self, result: Result<Lookup<V>, LookupError>) -> Poll<M::Output> {
        self.state = LookupState::Finished;
        match &result {
            Ok(lookup) => record_lookup_telemetry(self.started, lookup.source),
            Err(_) => record_lookup_error_telemetry(self.started),
        }
        Poll::Ready(M::output(result))
    }
}

impl<V, F> LookupFuture<V, Fallible<F>> {
    /// Runs the leader's fetch on the polling thread instead of spawning
    /// it — what the synchronous doors do — for a caller that awaits this
    /// lookup before doing anything else, where a spawned fetch overlaps
    /// with nothing and costs a task, a queue push, a suspension and a
    /// second poll per miss.  Followers still suspend on their waker and
    /// retry backoffs still sleep on the runtime timer; what is given up is
    /// cancelling a fetch that has not started (it starts in the poll that
    /// takes leadership).
    pub fn in_place(mut self) -> Self {
        self.spawn = None;
        self
    }
}

impl<V, M> Future for LookupFuture<V, M>
where
    V: CachePayload + Send + Sync + 'static,
    M: FetchMode<V> + Unpin,
{
    type Output = M::Output;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<M::Output> {
        // All fields are Unpin (`M` by bound — every ordinary closure is),
        // so plain projection is safe without unsafe code.
        let this = self.get_mut();
        if this.started.is_none() {
            this.started = Some(crate::telemetry::now());
        }
        loop {
            let step = match &mut this.state {
                LookupState::Finished => panic!("LookupFuture polled after completion"),
                LookupState::Start => {
                    this.engine.observe_now(this.now);
                    let shard_index = *this
                        .shard
                        .get_or_insert_with(|| this.engine.shard_index(&this.key));
                    let mut state = this.engine.inner.shards[shard_index].lock();
                    if let Some(value) = state.cache.get(&this.key, this.now) {
                        Step::Return(Lookup::served(Arc::clone(value), LookupSource::Hit))
                    } else if let Some(flight) = state.inflight.get(&this.key) {
                        // A live flight wins over a memoized failure: the
                        // in-flight leader may be retrying its way to a
                        // success this session can share.
                        Step::BecomeWaiter(Arc::clone(flight))
                    } else {
                        // A refused shard degrades without ever invoking
                        // the fetch; outside the failure domain every miss
                        // leads.
                        let admitted = if M::FAILURE_DOMAIN {
                            this.engine.admit_fetch(&mut state, &this.key, this.now)
                        } else {
                            Ok(false)
                        };
                        match admitted {
                            Ok(probe) => {
                                let flight = Arc::new(Flight::with_probe(probe));
                                state.inflight.insert(this.key.clone(), Arc::clone(&flight));
                                Step::Lead(flight)
                            }
                            Err((error, negative_hit)) => Step::Resolve {
                                error,
                                negative_hit,
                            },
                        }
                    }
                }
                LookupState::Waiting {
                    flight,
                    slot: _,
                    leading: Some(epoch),
                } => match flight.poll_leader(*epoch, cx) {
                    Poll::Pending => Step::Suspend,
                    Poll::Ready(LeaderOutcome::Done(value, _cost)) => {
                        let outcome = flight.take_outcome();
                        Step::Return(Lookup {
                            value,
                            source: LookupSource::Executed,
                            outcome,
                        })
                    }
                    Poll::Ready(LeaderOutcome::Failed(payload)) => Step::LeaderFailed(payload),
                    Poll::Ready(LeaderOutcome::Error(error)) => Step::Resolve {
                        error,
                        negative_hit: false,
                    },
                },
                LookupState::Waiting {
                    flight,
                    slot,
                    leading: None,
                } => match flight.poll_wait(slot, cx) {
                    Poll::Pending => Step::Suspend,
                    Poll::Ready(FlightOutcome::Done(value, cost)) => {
                        // A coalesced wait is still one logical reference
                        // (one-call-per-reference protocol): account it as
                        // hit-equivalent at the leader's observed cost so
                        // CSR/HR denominators cover every reference.
                        let shard_index = this.shard.expect("set before waiting");
                        {
                            let mut state = this.engine.inner.shards[shard_index].lock();
                            state.cache.record_coalesced_reference(cost);
                        }
                        this.engine
                            .inner
                            .coalesced_misses
                            .fetch_add(1, Ordering::Relaxed);
                        Step::Return(Lookup::served(value, LookupSource::Coalesced))
                    }
                    // The previous leader failed and this session won the
                    // takeover race: it is the leader now, on the same
                    // flight cell, with its own (still unconsumed) fetch
                    // and a retry budget that starts from zero.
                    Poll::Ready(FlightOutcome::TakeOver) => {
                        let shard_index = this.shard.expect("set before waiting");
                        this.attempts = 0;
                        this.engine
                            .take_over(&this.key, shard_index, this.now, Arc::clone(flight))
                    }
                    // The leader's terminal error resolved the flight for
                    // every coalesced waiter at once; inside the failure
                    // domain all of them share one `Arc<FetchError>` (and
                    // each resolves its own stale-vs-error outcome below).
                    Poll::Ready(FlightOutcome::Failed(error)) if M::FAILURE_DOMAIN => {
                        Step::Resolve {
                            error,
                            negative_hit: false,
                        }
                    }
                    // Outside it the session cannot surface an error, but it
                    // still holds its own fetch: start over — the failed
                    // cell is retired, so it leads a fresh flight.
                    Poll::Ready(FlightOutcome::Failed(_)) => Step::Restart,
                },
                LookupState::Backoff { flight, sleep } => match Pin::new(sleep).poll(cx) {
                    Poll::Pending => Step::Suspend,
                    // Backoff elapsed: resume leading the same flight with
                    // the next attempt.
                    Poll::Ready(()) => Step::Lead(Arc::clone(flight)),
                },
            };

            match step {
                Step::Suspend => return Poll::Pending,
                Step::Restart => {
                    this.state = LookupState::Start;
                    // Loop: look the key up afresh.
                }
                Step::Return(lookup) => return this.finish(Ok(lookup)),
                Step::Resolve {
                    error,
                    negative_hit,
                } => return this.resolve(error, negative_hit),
                Step::BecomeWaiter(flight) => {
                    this.state = LookupState::Waiting {
                        flight,
                        slot: WaiterSlot::new(),
                        leading: None,
                    };
                    // Loop: poll the flight, registering our waker.
                }
                Step::LeaderFailed(payload) => {
                    this.state = LookupState::Finished;
                    match payload {
                        // Re-raise the fetch's panic on the leader session,
                        // mirroring the synchronous contract.
                        Some(payload) => std::panic::resume_unwind(payload),
                        None => panic!("single-flight leader fetch failed"),
                    }
                }
                Step::Lead(flight) => {
                    let shard_index = this.shard.expect("set before leading");
                    match this.spawn {
                        // Inline leader: fetch (and retry) on this thread.
                        None => loop {
                            this.attempts += 1;
                            // The guard stays armed through the fetch AND, on
                            // success, the completion (insert + observer
                            // emit): a panic anywhere before `complete` —
                            // including user observer code — must wake
                            // exactly one waiter to take over this same
                            // flight cell (retiring the cell when nobody
                            // waits) instead of stranding the waiters on a
                            // flight that never resolves.  The panic itself
                            // propagates to the caller.
                            let guard = AbandonGuard {
                                shard: &this.engine.inner.shards[shard_index],
                                key: &this.key,
                                flight: &flight,
                            };
                            let mode = this
                                .mode
                                .as_mut()
                                .expect("an inline leader keeps its fetch");
                            match timed_attempt(|| mode.attempt()) {
                                Ok((value, cost)) => {
                                    let value = Arc::new(value);
                                    let outcome = this.engine.finish_leader_insert(
                                        &this.key,
                                        shard_index,
                                        &flight,
                                        Arc::clone(&value),
                                        cost,
                                        this.now,
                                        M::FAILURE_DOMAIN,
                                    );
                                    flight.complete(Arc::clone(&value), cost);
                                    std::mem::forget(guard);
                                    return this.finish(Ok(Lookup {
                                        value,
                                        source: LookupSource::Executed,
                                        outcome: Some(outcome),
                                    }));
                                }
                                Err(error) => {
                                    // The error is handled explicitly — the
                                    // flight must NOT be abandoned.
                                    std::mem::forget(guard);
                                    let retry =
                                        this.engine.plan_retry(&this.key, this.attempts, &error);
                                    if let Some(delay) = retry {
                                        if delay.is_zero() {
                                            continue;
                                        }
                                        let sleep = this.engine.runtime().sleep(delay);
                                        this.state = LookupState::Backoff { flight, sleep };
                                        // Loop: poll the backoff sleep.
                                        break;
                                    }
                                    let error = this.engine.fail_leader(
                                        &this.key,
                                        shard_index,
                                        &flight,
                                        error,
                                        this.now,
                                    );
                                    return this.resolve(error, false);
                                }
                            }
                        },
                        Some(spawn) => {
                            let mode = this.mode.take().expect("leader consumes its fetch once");
                            let epoch = flight.new_leader_epoch();
                            let cancel = Arc::new(AtomicBool::new(false));
                            this.leader_cancel = Some(Arc::clone(&cancel));
                            spawn(
                                &this.engine,
                                mode,
                                this.key.clone(),
                                shard_index,
                                this.now,
                                Arc::clone(&flight),
                                epoch,
                                cancel,
                            );
                            this.state = LookupState::Waiting {
                                flight,
                                slot: WaiterSlot::new(),
                                leading: Some(epoch),
                            };
                            // Loop: poll as leader, registering our waker.
                        }
                    }
                }
            }
        }
    }
}

impl<V, M> Drop for LookupFuture<V, M> {
    fn drop(&mut self) {
        // A cancelled *leader* flips its cancellation flag: a spawned fetch
        // task that has not started yet observes it, skips the closure
        // entirely and abandons the flight (leadership moves to a waiter; a
        // waiterless cell is retired).  A fetch already running is past the
        // check and completes the flight for the remaining waiters — either
        // way nobody is stranded.
        if let Some(cancel) = &self.leader_cancel {
            cancel.store(true, Ordering::Release);
        }
        match &mut self.state {
            // A cancelled waiter must deregister; if it had been woken to
            // take over an abandoned flight, the wake is passed along so no
            // takeover is lost, and the last waiter of an abandoned flight
            // retires the cell.
            LookupState::Waiting {
                flight,
                slot,
                leading: None,
            } => {
                let shard_index = self.shard.expect("set before waiting");
                self.engine.inner.shards[shard_index].forget_waiter(&self.key, flight, slot);
            }
            // An inline leader dropped mid-backoff still owns a pending
            // flight: abandon it so a waiter takes leadership over with its
            // own fetch (a waiterless cell is retired).
            LookupState::Backoff { flight, .. } => {
                let shard_index = self.shard.expect("set before leading");
                self.engine.inner.shards[shard_index].abandon(&self.key, flight);
            }
            _ => {}
        }
    }
}

/// Abandons the leader's flight if its inline fetch panics, so waiters are
/// not stranded on a flight that will never complete.  Exactly one waiter is
/// woken to take over leadership of the same cell; with no waiters at all
/// the cell is retired from the in-flight table (see [`Shard::abandon`]).
struct AbandonGuard<'a, V> {
    shard: &'a Shard<V>,
    key: &'a QueryKey,
    flight: &'a Arc<Flight<V>>,
}

impl<V> Drop for AbandonGuard<'_, V> {
    fn drop(&mut self) {
        self.shard.abandon(self.key, self.flight);
    }
}

/// The error a [`DeadlineLookup`] resolves to when its timeout elapses
/// before the lookup completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupTimedOut;

impl std::fmt::Display for LookupTimedOut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("lookup deadline elapsed before the query completed")
    }
}

impl std::error::Error for LookupTimedOut {}

/// The future returned by [`Watchman::get_or_execute_async_with_timeout`]:
/// a [`LookupFuture`] raced against a [`Sleep`] deadline.
///
/// Resolves to `Ok(`[`Lookup`]`)` if the lookup completes first, or
/// `Err(`[`LookupTimedOut`]`)` once the deadline fires — at which point the
/// inner lookup is dropped, which deregisters a waiter (handing along any
/// takeover claim) or cancels a leader whose fetch has not started yet.
pub struct DeadlineLookup<V, F> {
    /// `None` after the deadline fired (the drop *is* the cancellation).
    lookup: Option<LookupFuture<V, Infallible<F>>>,
    deadline: Sleep,
}

impl<V, F> std::fmt::Debug for DeadlineLookup<V, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeadlineLookup")
            .field("lookup", &self.lookup)
            .finish_non_exhaustive()
    }
}

impl<V, F> Future for DeadlineLookup<V, F>
where
    V: CachePayload + Send + Sync + 'static,
    F: FnOnce() -> (V, ExecutionCost) + Unpin,
{
    type Output = Result<Lookup<V>, LookupTimedOut>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let Some(lookup) = this.lookup.as_mut() else {
            panic!("DeadlineLookup polled after completion");
        };
        // Lookup first: a result that is ready when the deadline fires in
        // the same poll round still wins (the work was already done).
        if let Poll::Ready(lookup) = Pin::new(lookup).poll(cx) {
            this.lookup = None;
            return Poll::Ready(Ok(lookup));
        }
        match Pin::new(&mut this.deadline).poll(cx) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(()) => {
                // Dropping the lookup is the cancellation: waiter wakers
                // deregister, an unstarted leader fetch is skipped.
                this.lookup = None;
                Poll::Ready(Err(LookupTimedOut))
            }
        }
    }
}
