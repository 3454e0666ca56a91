//! The lookup protocol of paper §3 — probe the cache, on a miss execute once
//! and offer the retrieved set for admission — as one poll-based state
//! machine ([`LookupFuture`]) and the two front doors that adapt it.  A
//! session that takes leadership runs its fetch inside that same poll, on
//! whichever thread polls it.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use crate::clock::Timestamp;
use crate::engine::failure::{BreakerState, FetchError, LookupError};
use crate::engine::single_flight::{Flight, FlightOutcome, WaiterSlot};
use crate::engine::watchman::{record_evictions, Leader, Shard, ShardState, Watchman};
use crate::key::QueryKey;
use crate::policy::InsertOutcome;
use crate::runtime::Sleep;
use crate::telemetry::TraceKind;
use crate::value::{CachePayload, ExecutionCost};

/// Records a finished lookup into the outcome-keyed telemetry histograms
/// ([`crate::telemetry`]): latency from the session's first touch of the
/// engine to the resolved lookup, bucketed by how it resolved.  A hit or an
/// executed lookup is recorded only when its thread `sampled` it, a hit in
/// nanoseconds (`started` is `None` for an unsampled one); every other
/// outcome missed its probe, so it is always timed, in microseconds.  A
/// coalesced resolution also feeds the single-flight wait histogram — for a
/// waiter, the whole lookup *was* the wait.
fn record_lookup_telemetry(started: Option<Instant>, sampled: bool, source: LookupSource) {
    use crate::telemetry::{elapsed_ns, elapsed_us};
    let Some(started) = started else { return };
    let telemetry = crate::telemetry::global();
    match source {
        LookupSource::Hit => telemetry.lookup_hit_ns.record(elapsed_ns(started)),
        LookupSource::Executed if sampled => {
            telemetry.lookup_executed_us.record(elapsed_us(started));
        }
        LookupSource::Executed => {}
        LookupSource::Coalesced => {
            let micros = elapsed_us(started);
            telemetry.lookup_coalesced_us.record(micros);
            telemetry.singleflight_wait_us.record(micros);
        }
        LookupSource::Stale => telemetry.lookup_stale_us.record(elapsed_us(started)),
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
    pub(super) fn served(value: Arc<V>, source: LookupSource) -> Self {
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
    /// This is the synchronous front door: one lock and one probe, which
    /// either hits or decides the miss's step, then
    /// [`block_on`](crate::runtime::block_on) over the same
    /// [`LookupFuture`] state machine [`Watchman::try_get_or_execute_async`]
    /// returns, entered with that step.  The leader's `fetch` runs on the
    /// calling thread, so it needs no `Send + 'static` bounds and a
    /// single-threaded replay is fully deterministic.
    ///
    /// It runs *outside* the failure domain of the fallible door: it
    /// consults neither memoized failures nor the breaker, feeds neither,
    /// and a session coalesced behind a fallible leader that failed starts
    /// over with its own fetch.
    pub fn get_or_execute<F>(&self, key: &QueryKey, now: Timestamp, fetch: F) -> Lookup<V>
    where
        F: FnOnce() -> (V, ExecutionCost) + Unpin,
    {
        let started = crate::telemetry::sample_lookup();
        let shard = self.shard_index(key);
        // The future's own `Start` probe, taken here: a hit needs none of the
        // future machinery (engine clone, waker, pinning), and a miss enters
        // the state machine with the step this probe decided, so it locks the
        // shard once before its fetch.
        let step = self.inner.shards[shard].lock().probe(key, now, false);
        if let Step::Return(lookup) = step {
            record_lookup_telemetry(started, started.is_some(), LookupSource::Hit);
            return lookup;
        }
        let mut lookup = self.lookup(key.clone(), now, Infallible(Some(fetch)));
        lookup.shard = Some(shard);
        lookup.state = LookupState::Start(Some(step));
        lookup.sampled = started.is_some();
        // A missed probe is always stamped; a sampled lookup keeps its
        // earlier start.
        lookup.started = Some(started.unwrap_or_else(crate::telemetry::now));
        crate::runtime::block_on(lookup)
    }

    /// The asynchronous, **fallible** front door: like
    /// [`Watchman::get_or_execute`], but the fetch returns
    /// `Result<(V, Cost), `[`FetchError`]`>`, an error — unlike a panic — is
    /// a first-class outcome of the lookup, and the door returns a
    /// [`LookupFuture`], so waiting sessions suspend (a registered waker)
    /// instead of blocking OS threads.
    ///
    /// * **Single-flight errors are shared.** A terminal fetch error resolves
    ///   the flight for *every* coalesced waiter at once; all of them observe
    ///   the same `Arc<FetchError>` (no per-waiter re-execution, no takeover
    ///   storm).
    /// * **Retries.** The leader retries transient errors under the
    ///   configured [`crate::engine::RetryPolicy`] — bounded attempts,
    ///   exponential backoff with deterministic seeded jitter, slept on the
    ///   engine's runtime timer so replays stay byte-identical.
    /// * **Negative caching.** A terminal failure is memoized in the key's
    ///   slot for 50 ms of logical time; lookups inside the window resolve
    ///   immediately (`negative_hit == true`) without invoking the fetch.
    /// * **Graceful degradation.** With
    ///   [`FailureConfig::serve_stale`](crate::engine::FailureConfig::serve_stale)
    ///   on, a failed (or breaker-refused) lookup serves the last-known-good
    ///   value the key's slot holds as [`LookupSource::Stale`] — paid into
    ///   `total_cost` but never into `saved_cost`, so stale serves cannot
    ///   inflate the cost-savings ratio.
    /// * **Circuit breaking.** With a [`crate::engine::BreakerConfig`], a
    ///   shard whose rolling fetch-failure rate trips the threshold refuses
    ///   new executions outright (stale-serving when possible) until a
    ///   half-open probe succeeds.
    ///
    /// The leader fetches in the poll that takes leadership, on whichever
    /// thread polls the future, and sleeps its retry backoffs on the
    /// engine's runtime timer.  The future is lazy (nothing happens until it
    /// is polled) and cancellation-safe: dropping it deregisters a waiter;
    /// a leader dropped during a backoff abandons its flight, so one waiter
    /// takes over with its own fetch (with no waiters the cell is retired).
    ///
    /// A **panicking** fetch keeps the infallible contract: the panic
    /// unwinds out of the leader's poll and one waiter takes over the
    /// execution.
    pub fn try_get_or_execute_async<F>(
        &self,
        key: &QueryKey,
        now: Timestamp,
        fetch: F,
    ) -> LookupFuture<V, Fallible<F>>
    where
        F: FnMut() -> Result<(V, ExecutionCost), FetchError> + Unpin,
    {
        self.lookup(key.clone(), now, Fallible(fetch))
    }

    /// The one constructor behind both front doors.
    pub(super) fn lookup<M>(&self, key: QueryKey, now: Timestamp, mode: M) -> LookupFuture<V, M> {
        LookupFuture {
            engine: self.clone(),
            key,
            shard: None,
            now,
            mode,
            state: LookupState::Start(None),
            attempts: 0,
            started: None,
            sampled: false,
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
        crate::telemetry::global().recorder.record(
            TraceKind::FetchRetry,
            key.signature().value(),
            u64::from(attempt),
            delay.as_micros() as u64,
        );
        Some(delay)
    }

    /// Completes a leader's execution: settles the key's slot, offers the
    /// value for admission, and tells the observers what became or stopped
    /// being resident.
    ///
    /// A `failure_domain` leader also updates the failure domain under the
    /// same shard lock: the breaker records a success, the slot keeps a
    /// fresh last-known-good copy (with
    /// [`FailureConfig::serve_stale`](crate::engine::FailureConfig::serve_stale)
    /// on) and drops any memoized failure.  Outside it none of that is
    /// touched — except that a cell carrying a half-open probe ticket (taken
    /// over from a failure-domain leader) settles the ticket whoever
    /// completes it.
    ///
    /// The retired flight's cell, if a waiter made one, moves into `leader`:
    /// the caller completes it, and if an observer panics first the
    /// leader's abandon guard hands it to a waiter.
    #[allow(clippy::too_many_arguments)]
    fn finish_leader_insert(
        &self,
        key: &QueryKey,
        shard_index: usize,
        leader: &mut Leader<V>,
        value: Arc<V>,
        cost: ExecutionCost,
        now: Timestamp,
        failure_domain: bool,
    ) -> InsertOutcome {
        let stale =
            (failure_domain && self.inner.failure.serve_stale).then(|| (Arc::clone(&value), cost));
        let mut state = self.inner.shards[shard_index].lock();
        if let Some(cell) = state.settle_success(key, leader.id, now, failure_domain, stale) {
            leader.cell = Some(cell);
        }
        let outcome = state.cache.insert(key.clone(), value, cost, now);
        record_evictions(outcome.evicted());
        crate::telemetry::global().recorder.record(
            TraceKind::LookupExecuted,
            key.signature().value(),
            shard_index as u64,
            cost.value() as u64,
        );
        self.notify(outcome.evicted(), outcome.is_admitted().then_some(key));
        outcome
    }

    /// Resolves a fallible leader's *terminal* fetch failure.  Under the
    /// shard lock: retires the flight from the key's slot (so new arrivals
    /// start a fresh flight instead of joining a doomed one), memoizes the
    /// error in the same slot, and feeds the breaker's rolling failure
    /// window.  Then fails the flight's cell, if it has one, so every
    /// waiter observes the same shared error — waking them only once the
    /// memoized failure is visible keeps what they read from the slot
    /// consistent.
    fn fail_leader(
        &self,
        key: &QueryKey,
        shard_index: usize,
        leader: &Leader<V>,
        error: FetchError,
        now: Timestamp,
    ) -> Arc<FetchError> {
        let error = Arc::new(error);
        let mut state = self.inner.shards[shard_index].lock();
        let retired = state.settle_failure(key, leader.id, &error, now);
        if let Some(breaker) = state.breaker.as_mut() {
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
        if let Some(cell) = retired.as_ref().or(leader.cell.as_ref()) {
            cell.fail(Arc::clone(&error));
        }
        error
    }

    /// Resolves a won takeover race on an abandoned flight into a hit or real
    /// leadership.  The failed leader may have panicked *after* its insert
    /// succeeded (in a user observer), leaving the value cached: then
    /// the session is served the hit instead of re-running a multi-second
    /// fetch, and passes leadership along — the next candidate repeats this
    /// check, and the last abandonment retires the cell.
    fn take_over(
        &self,
        key: &QueryKey,
        shard_index: usize,
        now: Timestamp,
        leader: Leader<V>,
    ) -> Step<V> {
        let shard = &self.inner.shards[shard_index];
        let cached = shard.lock().cache.get(key, now).map(Arc::clone);
        let Some(value) = cached else {
            return Step::Lead(leader);
        };
        shard.abandon(key, &leader);
        Step::Return(Lookup::served(value, LookupSource::Hit))
    }

    /// Resolves this session's share of a failed lookup: serves the
    /// last-known-good value when the key's slot holds one
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
        error: Arc<FetchError>,
        negative_hit: bool,
    ) -> Result<Lookup<V>, LookupError> {
        let mut state = self.inner.shards[shard_index].lock();
        // Slots hold no stale copy unless `serve_stale` is on.
        if let Some((value, cost)) = state.stale_for(key) {
            state.cache.record_stale_reference(cost);
            crate::telemetry::global().recorder.record(
                TraceKind::LookupStale,
                key.signature().value(),
                shard_index as u64,
                cost.value() as u64,
            );
            return Ok(Lookup::served(value, LookupSource::Stale));
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
/// [`LookupFuture`].  The two implementations are the infallible door's
/// [`Infallible`] and the fallible door's [`Fallible`]; everything else —
/// hit, coalesce, lead, retry, abandonment, takeover — is the same code.
pub trait FetchMode<V> {
    /// What the lookup resolves to.
    type Output;

    /// Whether the session takes part in the failure domain: it consults
    /// the key's memoized failure and the shard's breaker before leading,
    /// feeds the breaker and the slot's records when its fetch settles, and
    /// shares a coalesced leader's terminal error.  Outside the domain none
    /// of that state is read or written, and a session whose leader failed
    /// with an error starts over with its own fetch.
    const FAILURE_DOMAIN: bool;

    /// Runs one fetch attempt.
    fn attempt(&mut self) -> Result<(V, ExecutionCost), FetchError>;

    /// Converts the resolved lookup into the door's output type.
    fn output(result: Result<Lookup<V>, LookupError>) -> Self::Output;
}

/// The fetch of [`Watchman::get_or_execute`]: runs once, cannot return an
/// error, and stays outside the failure domain.
#[derive(Debug)]
pub struct Infallible<F>(pub(super) Option<F>);

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
            // sharing a fallible leader's error, and it never consults
            // memoized failures or the breaker.
            Err(failure) => unreachable!("infallible lookup observed a fetch error: {failure}"),
        }
    }
}

/// The fetch of [`Watchman::try_get_or_execute_async`]: re-invoked on every
/// retry, inside the failure domain.
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

/// Times one fetch attempt into the `fetch.attempt_us` histogram when its
/// lookup is `sampled`; otherwise reads no clock.
fn timed_attempt<T>(sampled: bool, attempt: impl FnOnce() -> T) -> T {
    if !sampled {
        return attempt();
    }
    let start = crate::telemetry::now();
    let result = attempt();
    crate::telemetry::global()
        .fetch_attempt_us
        .record(crate::telemetry::elapsed_us(start));
    result
}

enum LookupState<V> {
    /// Probe the cache — unless the sync door already did, leaving the step
    /// its probe decided.
    Start(Option<Step<V>>),
    /// A coalescing waiter of flight `id`, suspended on its cell's waker
    /// list.
    Waiting {
        id: u64,
        flight: Arc<Flight<V>>,
        slot: WaiterSlot,
    },
    /// A leader sleeping out a retry backoff on the runtime timer.  The
    /// flight stays pending (this session still leads it); waiters keep
    /// coalescing onto it while the backoff elapses.
    Backoff {
        leader: Leader<V>,
        sleep: Sleep,
    },
    Finished,
}

/// What one poll step decided, lifted out of the state borrow so the state
/// machine can transition freely.
pub(crate) enum Step<V> {
    Return(Lookup<V>),
    /// Resolve a failure for *this* session: stale-serve if the shard holds
    /// a last-known-good value, otherwise surface the shared error.
    Resolve {
        error: Arc<FetchError>,
        negative_hit: bool,
    },
    /// Wait on the cell of flight `id`.
    BecomeWaiter(u64, Arc<Flight<V>>),
    Lead(Leader<V>),
    Suspend,
    /// A failure-domain leader failed the awaited flight with an error and
    /// this session is outside the domain: go back to `Start` and look
    /// again with its own, still unconsumed fetch.
    Restart,
}

/// The one lookup state machine: the future
/// [`Watchman::try_get_or_execute_async`] returns, and the one
/// [`block_on`](crate::runtime::block_on) drives in place inside
/// [`Watchman::get_or_execute`].  `M` is the door's fetch mode — infallible,
/// or fallible and so inside the failure domain — and is not nameable
/// outside the engine.
///
/// Resolves to [`Lookup`] for the infallible door; for the fallible one to
/// `Ok(`[`Lookup`]`)` — including [`LookupSource::Stale`] serves — or
/// `Err(`[`LookupError`]`)` carrying the shared `Arc<FetchError>`.
///
/// Lazy: nothing happens until first poll.  The poll that takes leadership
/// runs the fetch, so a leader suspends only to sleep out a retry backoff.
/// Cancellation-safe: dropping it deregisters this session's waker from the
/// flight it waits on; a dropped takeover candidate passes its wake to the
/// next waiter, and a leader dropped mid-backoff abandons its flight to one.
pub struct LookupFuture<V, M> {
    engine: Watchman<V>,
    /// The key being looked up.
    key: QueryKey,
    /// Shard index, resolved on first poll.
    shard: Option<usize>,
    now: Timestamp,
    /// The fetch.
    mode: M,
    state: LookupState<V>,
    /// Fetch attempts this session has made as the leader of the current
    /// flight.
    attempts: u32,
    /// When this session first touched the engine, feeding the
    /// outcome-keyed lookup-latency telemetry.  The synchronous door presets
    /// it; the async one stamps it in its first `Start` step, before the
    /// probe when the thread samples the lookup and otherwise when the probe
    /// misses.  It stays `None` only for an unsampled hit.
    started: Option<Instant>,
    /// Whether the thread sampled this lookup: only a sampled lookup times
    /// its fetch attempts and records an executed outcome.
    sampled: bool,
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
    /// the shard holds a last-known-good value, otherwise the shared error.
    fn resolve(&mut self, error: Arc<FetchError>, negative_hit: bool) -> Poll<M::Output> {
        let shard_index = self.shard.expect("set before resolving");
        let result = self
            .engine
            .resolve_failed_lookup(&self.key, shard_index, error, negative_hit);
        self.finish(result)
    }

    /// Resolves the session: records its outcome-keyed latency and wraps the
    /// result in the door's output type.
    fn finish(&mut self, result: Result<Lookup<V>, LookupError>) -> Poll<M::Output> {
        self.state = LookupState::Finished;
        match &result {
            Ok(lookup) => record_lookup_telemetry(self.started, self.sampled, lookup.source),
            Err(_) => record_lookup_error_telemetry(self.started),
        }
        Poll::Ready(M::output(result))
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
        loop {
            let step = match &mut this.state {
                LookupState::Finished => panic!("LookupFuture polled after completion"),
                LookupState::Start(decided) => match decided.take() {
                    Some(step) => step,
                    None => {
                        // Only the first `Start` samples: after it, either
                        // the lookup hit and returned or its probe missed
                        // and stamped `started`.
                        if this.started.is_none() {
                            this.started = crate::telemetry::sample_lookup();
                            this.sampled = this.started.is_some();
                        }
                        let shard_index = *this
                            .shard
                            .get_or_insert_with(|| this.engine.shard_index(&this.key));
                        let step = this.engine.inner.shards[shard_index].lock().probe(
                            &this.key,
                            this.now,
                            M::FAILURE_DOMAIN,
                        );
                        if !matches!(step, Step::Return(_)) {
                            this.started.get_or_insert_with(crate::telemetry::now);
                        }
                        step
                    }
                },
                LookupState::Waiting { id, flight, slot } => match flight.poll_wait(slot, cx) {
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
                        Step::Return(Lookup::served(value, LookupSource::Coalesced))
                    }
                    // The previous leader failed and this session won the
                    // takeover race: it is the leader now, on the same
                    // flight cell, with its own (still unconsumed) fetch
                    // and a retry budget that starts from zero.
                    Poll::Ready(FlightOutcome::TakeOver) => {
                        let shard_index = this.shard.expect("set before waiting");
                        this.attempts = 0;
                        let leader = Leader {
                            id: *id,
                            cell: Some(Arc::clone(flight)),
                        };
                        this.engine
                            .take_over(&this.key, shard_index, this.now, leader)
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
                LookupState::Backoff { sleep, .. } => match Pin::new(sleep).poll(cx) {
                    Poll::Pending => Step::Suspend,
                    // Backoff elapsed: resume leading the same flight with
                    // the next attempt.
                    Poll::Ready(()) => {
                        let LookupState::Backoff { leader, .. } =
                            std::mem::replace(&mut this.state, LookupState::Finished)
                        else {
                            unreachable!("matched above")
                        };
                        Step::Lead(leader)
                    }
                },
            };

            match step {
                Step::Suspend => return Poll::Pending,
                Step::Restart => {
                    this.state = LookupState::Start(None);
                    // Loop: look the key up afresh.
                }
                Step::Return(lookup) => return this.finish(Ok(lookup)),
                Step::Resolve {
                    error,
                    negative_hit,
                } => return this.resolve(error, negative_hit),
                Step::BecomeWaiter(id, flight) => {
                    this.state = LookupState::Waiting {
                        id,
                        flight,
                        slot: WaiterSlot::new(),
                    };
                    // Loop: poll the flight, registering our waker.
                }
                Step::Lead(mut leader) => {
                    // The guard below owns the flight while the fetch runs:
                    // a leader left in `Backoff` would be abandoned a second
                    // time by `Drop` if the fetch panicked.
                    this.state = LookupState::Finished;
                    let shard_index = this.shard.expect("set before leading");
                    loop {
                        this.attempts += 1;
                        // The guard stays armed through the fetch AND, on
                        // success, the completion (insert + observer calls):
                        // a panic anywhere before `complete` — including
                        // user observer code — must wake exactly one waiter
                        // to take over this same flight (retiring it when
                        // nobody waits) instead of stranding the waiters on
                        // a flight that never resolves.  The panic itself
                        // unwinds out of this poll.
                        let guard = AbandonGuard {
                            shard: &this.engine.inner.shards[shard_index],
                            key: &this.key,
                            leader: &mut leader,
                        };
                        match timed_attempt(this.sampled, || this.mode.attempt()) {
                            Ok((value, cost)) => {
                                let value = Arc::new(value);
                                let outcome = this.engine.finish_leader_insert(
                                    &this.key,
                                    shard_index,
                                    guard.leader,
                                    Arc::clone(&value),
                                    cost,
                                    this.now,
                                    M::FAILURE_DOMAIN,
                                );
                                if let Some(cell) = &guard.leader.cell {
                                    cell.complete(Arc::clone(&value), cost);
                                }
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
                                    this.state = LookupState::Backoff { leader, sleep };
                                    // Loop: poll the backoff sleep.
                                    break;
                                }
                                let error = this.engine.fail_leader(
                                    &this.key,
                                    shard_index,
                                    &leader,
                                    error,
                                    this.now,
                                );
                                return this.resolve(error, false);
                            }
                        }
                    }
                }
            }
        }
    }
}

impl<V, M> Drop for LookupFuture<V, M> {
    fn drop(&mut self) {
        match &mut self.state {
            // A cancelled waiter must deregister; if it had been woken to
            // take over an abandoned flight, the wake is passed along so no
            // takeover is lost, and the last waiter of an abandoned flight
            // retires the cell.
            LookupState::Waiting { id, flight, slot } => {
                let shard_index = self.shard.expect("set before waiting");
                self.engine.inner.shards[shard_index].forget_waiter(&self.key, *id, flight, slot);
            }
            // A leader dropped mid-backoff, or before it ever fetched, still
            // owns a pending flight: abandon it so a waiter takes leadership
            // over with its own fetch (a waiterless flight is retired).
            LookupState::Backoff { leader, .. } | LookupState::Start(Some(Step::Lead(leader))) => {
                let shard_index = self.shard.expect("set before leading");
                self.engine.inner.shards[shard_index].abandon(&self.key, leader);
            }
            LookupState::Start(_) | LookupState::Finished => {}
        }
    }
}

/// Abandons the leader's flight if its fetch panics, so waiters are not
/// stranded on a flight that will never complete.  Exactly one waiter is
/// woken to take over leadership of the same cell; with no waiters at all
/// the flight is retired from its key's slot (see [`Shard::abandon`]).
struct AbandonGuard<'a, V> {
    shard: &'a Shard<V>,
    key: &'a QueryKey,
    leader: &'a mut Leader<V>,
}

impl<V> Drop for AbandonGuard<'_, V> {
    fn drop(&mut self) {
        self.shard.abandon(self.key, self.leader);
    }
}

impl<V: CachePayload> ShardState<V> {
    /// The lookup's first step, under the shard lock: a hit, or on a miss
    /// what [`ShardState::start_flight`] decides.  Both doors take it, so
    /// they share one probe→step rule.
    fn probe(&mut self, key: &QueryKey, now: Timestamp, failure_domain: bool) -> Step<V> {
        match self.cache.get(key, now) {
            Some(value) => Step::Return(Lookup::served(Arc::clone(value), LookupSource::Hit)),
            None => self.start_flight(key, now, failure_domain),
        }
    }
}
