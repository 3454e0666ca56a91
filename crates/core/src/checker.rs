//! A loom-lite deterministic interleaving explorer for the engine's
//! concurrency state machines.
//!
//! PRs 3–5 each shipped at least one race that was found only by staring at
//! the code (the `JoinHandle` alive-counter race, the zero-waiter cell leak,
//! the self-deadlocking `Runtime::drop`).  Stress tests shake some of those
//! out, but a stress test samples schedules at random; the bugs above lived
//! in *specific* interleavings a loaded box may never produce.  This module
//! takes the systematic route, in the spirit of loom/CHESS: run a small
//! multi-thread model under a **controlled scheduler** that permits exactly
//! one thread to run between *yield points*, enumerate every reachable
//! schedule by depth-first replay, and assert the model's invariants on each
//! one.
//!
//! ## How it works
//!
//! * A model ([`Model`]) instantiates fresh shared state plus a closure per
//!   model thread.  Threads are real OS threads, but they only execute while
//!   holding the scheduler's token; every instrumented operation on the
//!   [`Ctl`] handle ([`Ctl::point`], [`Ctl::lock`], [`Ctl::wait_flag`], …)
//!   hands the token back.
//! * At each decision point the scheduler computes the *eligible* threads
//!   (ready, or blocked on a lock that is now free / a flag that is now
//!   set), consults the schedule script, and grants the token.  Replaying a
//!   choice prefix and then always taking the first eligible thread makes
//!   runs deterministic, so the explorer can enumerate schedules
//!   depth-first: each run records how many options every decision point
//!   had, and every untaken option becomes a new prefix to explore.
//! * **Deadlocks are detected, not suffered**: a state where unfinished
//!   threads exist but none is eligible is reported with every thread's
//!   block reason.  A thread blocked forever on a wake flag that nobody
//!   will set is precisely a *lost wakeup*, and is labelled as such.
//! * Model threads assert invariants inline (plus a finale check after all
//!   threads finish); panics are caught and reported with the offending
//!   schedule.
//!
//! Virtual locks ([`Ctl::lock`]) only *model* blocking — the scheduler
//! never actually deadlocks the process.  Because exactly one model thread
//! runs at a time, models may also drive **real** engine types (the
//! single-flight model below runs the production `Flight` cell) and
//! explore their API-level interleavings safely.
//!
//! The state machines this repo most needs checked ship as built-in
//! models: [`models::SingleFlightModel`] (leader panic → restart →
//! forget_waiter), [`models::RuntimeDropModel`] (`Runtime::drop` vs a
//! worker mid-poll), [`models::ReactorRegistrationModel`] (IO-reactor event delivery vs a
//! cancelled task dropping its registration, against the real `ReadyCell`),
//! [`models::RunQueueModel`] (the run-queue push/park protocol, against
//! the real `RunQueue` — a parked worker nobody wakes while work sits
//! queued is a lost wakeup),
//! [`models::CircuitBreakerModel`] (the per-shard breaker's trip /
//! half-open / re-close cycle, against the real `CircuitBreaker`) and
//! [`models::DriverSeatModel`] (the same run queue with the reactor's
//! driver seat: one idle worker blocks in the reactor's turn instead of on
//! its condvar, and an unpark must reach it there).
//! `cargo run -p watchman-core --bin checker` explores all six; see
//! `CONCURRENCY.md`.

use std::collections::HashMap;
use std::sync::Arc;

use crate::sync::{Condvar, Mutex};

/// Why a parked model thread cannot run right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockReason {
    /// Waiting on a virtual lock currently held by another thread.
    Lock(u64),
    /// Waiting for a wake flag to be set.
    Flag(u64),
}

/// A model thread's scheduling status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Parked at a yield point, eligible to run.
    Ready,
    /// Currently holding the token.
    Running,
    /// Parked, not eligible until the blocking resource frees up.
    Blocked(BlockReason),
    /// Returned (or unwound).
    Finished,
}

/// The scheduler's shared state: one instance per schedule run.
struct CtlState {
    status: Vec<Status>,
    /// The thread currently allowed to run, if any.
    token: Option<usize>,
    /// Virtual lock table: lock id → holding thread.
    holders: HashMap<u64, usize>,
    /// Wake flags (edge state persists until explicitly cleared).
    flags: HashMap<u64, bool>,
    /// A model thread panicked with this message.
    failure: Option<String>,
    /// Tear-down: parked threads unwind instead of waiting for a token.
    abort: bool,
}

struct Controller {
    state: Mutex<CtlState>,
    changed: Condvar,
}

/// The panic payload used to unwind parked model threads at tear-down.
struct AbortToken;

impl Controller {
    fn new(threads: usize) -> Self {
        Controller {
            state: Mutex::new(CtlState {
                // Threads start as Running and park themselves at their
                // startup pause; the scheduler's "everyone parked" wait
                // therefore also covers thread startup.
                status: vec![Status::Running; threads],
                token: None,
                holders: HashMap::new(),
                flags: HashMap::new(),
                failure: None,
                abort: false,
            }),
            changed: Condvar::new(),
        }
    }

    /// Parks thread `me` with the status `classify` derives from current
    /// state, then blocks until the scheduler grants it the token.
    fn pause(&self, me: usize, classify: impl Fn(&CtlState) -> Status) {
        let mut state = self.state.lock();
        debug_assert_eq!(state.status[me], Status::Running);
        state.token = None;
        let parked_as = classify(&state);
        state.status[me] = parked_as;
        self.changed.notify_all();
        loop {
            if state.abort {
                drop(state);
                std::panic::panic_any(AbortToken);
            }
            if state.token == Some(me) {
                state.status[me] = Status::Running;
                return;
            }
            state = self.changed.wait(state);
        }
    }

    fn set_flag_raw(&self, flag: u64) {
        self.state.lock().flags.insert(flag, true);
        // No notify needed: flags are only consulted by the scheduler at
        // decision points, which the setter's own pause/finish triggers.
    }

    /// Marks `me` finished (normally or by panic) and releases the token.
    fn finish(&self, me: usize, panic_message: Option<String>) {
        let mut state = self.state.lock();
        if state.token == Some(me) {
            state.token = None;
        }
        state.status[me] = Status::Finished;
        if let Some(message) = panic_message {
            state.failure.get_or_insert(message);
        }
        self.changed.notify_all();
    }
}

/// A model thread's handle to the controlled scheduler.  Every method that
/// can interleave with other threads is a *yield point*: the token goes back
/// to the scheduler and the thread parks until rescheduled.
pub struct Ctl {
    controller: Arc<Controller>,
    id: usize,
}

impl Ctl {
    /// A plain interleaving point: any eligible thread may run next.
    pub fn point(&self) {
        self.controller.pause(self.id, |_| Status::Ready);
    }

    /// Acquires a virtual lock, blocking (in model time) while another
    /// thread holds it.  One yield point per acquisition.
    pub fn lock(&self, lock: u64) {
        loop {
            self.controller.pause(self.id, |state| {
                if state.holders.contains_key(&lock) {
                    Status::Blocked(BlockReason::Lock(lock))
                } else {
                    Status::Ready
                }
            });
            let mut state = self.controller.state.lock();
            if let std::collections::hash_map::Entry::Vacant(entry) = state.holders.entry(lock) {
                entry.insert(self.id);
                return;
            }
            // The scheduler only grants the token when the lock is free, so
            // this retry is unreachable; loop anyway rather than trust it.
        }
    }

    /// Acquires a virtual lock only if it is free right now (one yield
    /// point either way).  Mirrors `Mutex::try_lock`.
    pub fn try_lock(&self, lock: u64) -> bool {
        self.controller.pause(self.id, |_| Status::Ready);
        let mut state = self.controller.state.lock();
        if let std::collections::hash_map::Entry::Vacant(slot) = state.holders.entry(lock) {
            slot.insert(self.id);
            true
        } else {
            false
        }
    }

    /// Releases a virtual lock this thread holds.
    pub fn unlock(&self, lock: u64) {
        let mut state = self.controller.state.lock();
        let holder = state.holders.remove(&lock);
        assert_eq!(holder, Some(self.id), "unlock of a lock not held");
    }

    /// Sets a wake flag (typically called from a model waker).
    pub fn set_flag(&self, flag: u64) {
        self.controller.set_flag_raw(flag);
    }

    /// Clears a wake flag (re-arming before a poll, like a real waker slot).
    pub fn clear_flag(&self, flag: u64) {
        self.controller.state.lock().flags.insert(flag, false);
    }

    /// Reads a wake flag without yielding.
    pub fn flag(&self, flag: u64) -> bool {
        *self
            .controller
            .state
            .lock()
            .flags
            .get(&flag)
            .unwrap_or(&false)
    }

    /// Blocks (in model time) until the flag is set.  A thread parked here
    /// when no live thread will ever set the flag is a **lost wakeup**; the
    /// scheduler reports it as such.
    pub fn wait_flag(&self, flag: u64) {
        loop {
            self.controller.pause(self.id, |state| {
                if *state.flags.get(&flag).unwrap_or(&false) {
                    Status::Ready
                } else {
                    Status::Blocked(BlockReason::Flag(flag))
                }
            });
            if self.flag(flag) {
                return;
            }
        }
    }

    /// A `std::task::Waker` that sets `flag` when woken — the bridge for
    /// models that drive real poll-based engine types.
    pub fn flag_waker(&self, flag: u64) -> std::task::Waker {
        struct FlagWaker {
            controller: Arc<Controller>,
            flag: u64,
        }
        impl std::task::Wake for FlagWaker {
            fn wake(self: Arc<Self>) {
                self.controller.set_flag_raw(self.flag);
            }
            fn wake_by_ref(self: &Arc<Self>) {
                self.controller.set_flag_raw(self.flag);
            }
        }
        std::task::Waker::from(Arc::new(FlagWaker {
            controller: Arc::clone(&self.controller),
            flag,
        }))
    }
}

/// One instantiation of a model: fresh shared state baked into per-thread
/// closures, plus a finale invariant check run after every thread finishes.
/// A model thread body: runs to completion under the controlled scheduler.
pub type ThreadBody = Box<dyn FnOnce(&Ctl) + Send>;

/// One instantiation of a model: fresh shared state baked into per-thread
/// closures, plus a finale invariant check run after every thread finishes.
pub struct ModelRun {
    /// One closure per model thread, executed under the controlled scheduler.
    pub threads: Vec<ThreadBody>,
    /// Checked after all threads finish; `Err` fails the schedule.
    pub finale: Box<dyn FnOnce() -> Result<(), String> + Send>,
}

/// A concurrency state machine the explorer can enumerate.
pub trait Model {
    /// Short name for reports.
    fn name(&self) -> &'static str;
    /// Creates fresh state and threads for one schedule run.
    fn instantiate(&self) -> ModelRun;
}

/// How a single scheduled run ended.
enum RunOutcome {
    /// All threads finished and the finale check passed.
    Passed,
    /// Invariant violation or deadlock, with a description.
    Violated(String),
}

struct RunResult {
    outcome: RunOutcome,
    /// The eligible-set index taken at each decision point.
    choices: Vec<usize>,
    /// The eligible-set size at each decision point.
    options: Vec<usize>,
}

/// Safety valve against non-terminating models.
const MAX_STEPS: usize = 100_000;

thread_local! {
    /// Set inside model threads so the quiet panic hook knows their panics
    /// are caught and reported by the explorer, not genuine crashes.
    static IN_MODEL_THREAD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Model panics (invariant asserts, abort-token unwinds) are caught and
/// folded into the exploration report; without this, every violating
/// schedule would also spray a stack trace on stderr.  The hook delegates
/// non-checker panics to whatever hook was installed before.
fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_MODEL_THREAD.with(std::cell::Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Runs one schedule: replay `prefix`, then always take the first eligible
/// thread, recording every decision point's option count.
fn run_schedule(model: &dyn Model, prefix: &[usize]) -> RunResult {
    install_quiet_panic_hook();
    let run = model.instantiate();
    let thread_count = run.threads.len();
    let controller = Arc::new(Controller::new(thread_count));
    let mut choices = Vec::new();
    let mut options = Vec::new();
    let mut outcome = None;

    std::thread::scope(|scope| {
        for (id, body) in run.threads.into_iter().enumerate() {
            let ctl = Ctl {
                controller: Arc::clone(&controller),
                id,
            };
            scope.spawn(move || {
                IN_MODEL_THREAD.with(|flag| flag.set(true));
                // Every thread starts parked: wait for the first grant.
                ctl.controller.pause(id, |_| Status::Ready);
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&ctl)));
                let message = match result {
                    Ok(()) => None,
                    Err(payload) if payload.is::<AbortToken>() => None,
                    Err(payload) => Some(describe_panic(payload.as_ref())),
                };
                ctl.controller.finish(id, message);
            });
        }

        let scheduler_outcome = loop {
            let mut state = controller.state.lock();
            // Wait until the token is free and nobody is running.
            while state.token.is_some() || state.status.contains(&Status::Running) {
                state = controller.changed.wait(state);
            }
            if let Some(failure) = state.failure.take() {
                break RunOutcome::Violated(format!("model thread panicked: {failure}"));
            }
            let unfinished = state
                .status
                .iter()
                .filter(|status| **status != Status::Finished)
                .count();
            if unfinished == 0 {
                break match (run.finale)() {
                    Ok(()) => RunOutcome::Passed,
                    Err(message) => RunOutcome::Violated(format!("finale check failed: {message}")),
                };
            }
            let eligible: Vec<usize> = state
                .status
                .iter()
                .enumerate()
                .filter_map(|(id, status)| match status {
                    Status::Ready => Some(id),
                    Status::Blocked(BlockReason::Lock(lock)) => {
                        (!state.holders.contains_key(lock)).then_some(id)
                    }
                    Status::Blocked(BlockReason::Flag(flag)) => state
                        .flags
                        .get(flag)
                        .copied()
                        .unwrap_or(false)
                        .then_some(id),
                    Status::Running | Status::Finished => None,
                })
                .collect();
            if eligible.is_empty() {
                break RunOutcome::Violated(describe_deadlock(&state));
            }
            if choices.len() >= MAX_STEPS {
                break RunOutcome::Violated(format!(
                    "schedule exceeded {MAX_STEPS} steps without terminating"
                ));
            }
            let step = choices.len();
            let pick = if step < prefix.len() {
                assert!(
                    prefix[step] < eligible.len(),
                    "non-deterministic model: replay prefix no longer fits"
                );
                prefix[step]
            } else {
                0
            };
            choices.push(pick);
            options.push(eligible.len());
            state.token = Some(eligible[pick]);
            drop(state);
            controller.changed.notify_all();
        };

        // Tear down: release any threads still parked (deadlock, panic) so
        // the scope can join them.
        {
            let mut state = controller.state.lock();
            state.abort = true;
        }
        controller.changed.notify_all();
        outcome = Some(scheduler_outcome);
    });

    RunResult {
        outcome: outcome.expect("scheduler loop always sets an outcome"),
        choices,
        options,
    }
}

fn describe_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&'static str>() {
        (*message).to_owned()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

fn describe_deadlock(state: &CtlState) -> String {
    let mut parts = Vec::new();
    let mut lost_wakeup = false;
    for (id, status) in state.status.iter().enumerate() {
        match status {
            Status::Blocked(BlockReason::Lock(lock)) => {
                let holder = state.holders.get(lock);
                parts.push(format!(
                    "thread {id} blocked on lock #{lock} (held by {})",
                    holder.map_or_else(|| "nobody".to_owned(), |h| format!("thread {h}"))
                ));
            }
            Status::Blocked(BlockReason::Flag(flag)) => {
                lost_wakeup = true;
                parts.push(format!(
                    "thread {id} waiting on wake flag #{flag} that no live thread will set \
                     (lost wakeup)"
                ));
            }
            Status::Ready | Status::Running => {
                parts.push(format!("thread {id} unexpectedly {status:?}"));
            }
            Status::Finished => {}
        }
    }
    let kind = if lost_wakeup {
        "lost wakeup / deadlock"
    } else {
        "deadlock"
    };
    format!("{kind}: {}", parts.join("; "))
}

/// The result of exploring one model's schedule space.
#[derive(Debug)]
pub struct Exploration {
    /// The model's name.
    pub name: &'static str,
    /// Distinct schedules executed.
    pub schedules: usize,
    /// Every violation found, as `(schedule, description)`; the schedule is
    /// the choice list to replay it.
    pub violations: Vec<(Vec<usize>, String)>,
    /// Whether the whole schedule space was enumerated (false = the limit
    /// cut exploration short).
    pub exhausted: bool,
}

impl Exploration {
    /// A one-line summary for reports.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} schedules ({}), {} violations",
            self.name,
            self.schedules,
            if self.exhausted {
                "exhaustive"
            } else {
                "bounded"
            },
            self.violations.len()
        )
    }
}

/// Depth-first schedule enumeration with replay, bounded by `limit` runs.
///
/// Every run records the eligible-set size at each decision point; each
/// untaken option spawns a new prefix.  With a deterministic model this
/// enumerates distinct schedules without repetition, exactly once each.
pub fn explore(model: &dyn Model, limit: usize) -> Exploration {
    let mut pending: Vec<Vec<usize>> = vec![Vec::new()];
    let mut schedules = 0;
    let mut violations = Vec::new();
    let mut exhausted = true;
    while let Some(prefix) = pending.pop() {
        if schedules >= limit {
            exhausted = false;
            break;
        }
        let result = run_schedule(model, &prefix);
        schedules += 1;
        if let RunOutcome::Violated(message) = result.outcome {
            violations.push((result.choices.clone(), message));
        }
        // Queue the untaken branches discovered beyond the replayed prefix,
        // deepest first so the DFS finishes subtrees before moving on.
        for step in (prefix.len()..result.options.len()).rev() {
            for alternative in 1..result.options[step] {
                let mut branch = result.choices[..step].to_vec();
                branch.push(alternative);
                pending.push(branch);
            }
        }
    }
    Exploration {
        name: model.name(),
        schedules,
        violations,
        exhausted,
    }
}

pub mod models {
    //! The built-in models: the state machines earlier PRs shipped with
    //! hand-found races, the run queue's push/park protocol, plus a
    //! deliberately broken lock-order model that proves the explorer
    //! actually detects deadlocks.

    use super::{Ctl, Model, ModelRun, ThreadBody};
    use crate::clock::Timestamp;
    use crate::engine::single_flight::{FlightOutcome, WaiterSlot};
    use crate::engine::{Leader, PolicyKind, Shard, Step};
    use crate::key::QueryKey;
    use crate::sync::Mutex;
    use crate::value::ExecutionCost;
    use std::sync::Arc;
    use std::task::{Context, Poll};

    /// Model 1: the single-flight protocol, driving a **real** shard's key
    /// slot and the **real** `Flight` cell.
    ///
    /// Thread 0 leads the key's flight, which starts without a cell: its
    /// fetch panics inside its own poll, and the unwind abandons the flight
    /// in `Shard::abandon`'s two steps, with a scheduling point between
    /// them: it retires the flight from the slot under the shard lock, then
    /// abandons the cell, if a waiter made one, waking every waiter.
    /// Threads 1 and 2 arrive on the key through `start_flight`: while a
    /// flight is live they join it, the first of them creating its cell,
    /// and otherwise they lead a fresh one.  A waiter that finds its flight
    /// abandoned restarts and arrives again.  Thread 1 is a loyal session:
    /// it polls until it resolves.  Thread 2 is a flaky session: the first
    /// time it suspends it gives up (`Flight::forget_waiter`).  A session
    /// that leads settles its flight in the slot and completes the cell it
    /// gets back.
    ///
    /// Invariants: no schedule deadlocks (in particular, no registered
    /// waiter sleeps through the abandonment — a lost wakeup parks the
    /// loyal session forever and the scheduler reports it), every session
    /// that resolves observes the value a successor leader published, and
    /// the slot ends with no flight.
    pub struct SingleFlightModel;

    /// The value every successor leader publishes.
    const SUCCESSOR_VALUE: &str = "fetched by a successor";
    /// Wake flags: one per waiting session.
    const FLAG_LOYAL: u64 = 101;
    const FLAG_FLAKY: u64 = 102;

    type ModelShard = Shard<String>;

    /// Leads `leader`'s flight to success: its fetch, then the settle that
    /// retires it from the slot, then completing its cell, if it has one.
    fn lead(ctl: &Ctl, shard: &ModelShard, key: &QueryKey, leader: &Leader<String>) -> String {
        ctl.point();
        let retired = shard
            .lock()
            .settle_success(key, leader.id, Timestamp::ZERO, false, None);
        if let Some(cell) = retired {
            ctl.point();
            cell.complete(
                Arc::new(SUCCESSOR_VALUE.to_owned()),
                ExecutionCost::from_blocks(1),
            );
        }
        SUCCESSOR_VALUE.to_owned()
    }

    /// One session arriving on `key`: joins its live flight and polls the
    /// cell until it resolves, arriving again if the flight was abandoned,
    /// or leads a fresh flight.  Returns the observed value, or `None` when
    /// a flaky session gave up.
    fn arrive(
        ctl: &Ctl,
        shard: &ModelShard,
        key: &QueryKey,
        flag: u64,
        flaky: bool,
    ) -> Option<String> {
        let waker = ctl.flag_waker(flag);
        let mut cx = Context::from_waker(&waker);
        let mut first_suspension = true;
        // A model thread starts parked, so its first arrival is already a
        // scheduling decision; a restart arrives after one.
        'arrival: loop {
            let step = shard.lock().start_flight(key, Timestamp::ZERO, false);
            let cell = match step {
                Step::BecomeWaiter(cell) => cell,
                Step::Lead(leader) => return Some(lead(ctl, shard, key, &leader)),
                _ => panic!("outside the failure domain a miss waits or leads"),
            };
            let mut slot = WaiterSlot::new();
            loop {
                ctl.clear_flag(flag);
                ctl.point();
                match cell.poll_wait(&mut slot, &mut cx) {
                    Poll::Ready(FlightOutcome::Done(value, _)) => return Some((*value).clone()),
                    Poll::Ready(FlightOutcome::Failed(_)) => {
                        panic!("this model never fails the flight with a fetch error")
                    }
                    // Restart: look the key up again.
                    Poll::Ready(FlightOutcome::Abandoned) => continue 'arrival,
                    Poll::Pending if flaky && first_suspension => {
                        // Cancelled session: its future is dropped while the
                        // flight is unresolved.
                        ctl.point();
                        cell.forget_waiter(&mut slot);
                        return None;
                    }
                    Poll::Pending => {
                        first_suspension = false;
                        ctl.wait_flag(flag);
                    }
                }
            }
        }
    }

    impl Model for SingleFlightModel {
        fn name(&self) -> &'static str {
            "single-flight leader panic / restart / forget_waiter"
        }

        fn instantiate(&self) -> ModelRun {
            let shard: Arc<ModelShard> = Arc::new(Shard::new(PolicyKind::Lru.build(1 << 20), None));
            let key = QueryKey::new("SELECT model FROM single_flight");
            let Step::Lead(leader) = shard.lock().start_flight(&key, Timestamp::ZERO, false) else {
                panic!("the first miss on a fresh shard leads")
            };
            let observed: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));

            let panicking_leader = {
                let shard = Arc::clone(&shard);
                let key = key.clone();
                Box::new(move |ctl: &Ctl| {
                    // The fetch ran (the thread's start is a scheduling
                    // point), then panicked: the unwind abandons.
                    let retired = shard.lock().retire_unresolved(&key, leader.id);
                    if let Some(cell) = retired {
                        ctl.point();
                        cell.abandon();
                    }
                }) as ThreadBody
            };
            let session = |flag: u64, flaky: bool| {
                let shard = Arc::clone(&shard);
                let key = key.clone();
                let observed = Arc::clone(&observed);
                Box::new(move |ctl: &Ctl| {
                    let value = arrive(ctl, &shard, &key, flag, flaky);
                    assert!(flaky || value.is_some(), "a loyal session always resolves");
                    observed.lock().extend(value);
                }) as ThreadBody
            };

            ModelRun {
                threads: vec![
                    panicking_leader,
                    session(FLAG_LOYAL, false),
                    session(FLAG_FLAKY, true),
                ],
                finale: Box::new(move || {
                    let observed = observed.lock();
                    if observed.iter().any(|value| value != SUCCESSOR_VALUE) {
                        return Err(format!(
                            "a session observed a value no successor published: {observed:?}"
                        ));
                    }
                    if observed.is_empty() {
                        return Err("no session ever observed the completed flight".to_owned());
                    }
                    if shard.lock().in_flight(&key) {
                        return Err("the key's slot still holds a flight".to_owned());
                    }
                    Ok(())
                }),
            }
        }
    }

    /// Model 2: `Runtime::drop` versus a worker mid-poll, mirrored with
    /// checker primitives (the real runtime's threads cannot be scheduled
    /// from outside, so the model re-implements the exact protocol of
    /// `Runtime::drop` + `RunnableTask::run`'s shutdown epilogue:
    /// atomic-flag-first, lock-clear-sweep, non-blocking `try_cancel`,
    /// join, second sweep).
    ///
    /// Task A is being polled by the worker when shutdown starts; task B is
    /// suspended on an external waker.  Invariant: both tasks settle
    /// exactly once (a task settled twice double-decrements the alive
    /// counter; a task never settled leaves its `JoinHandle` hanging
    /// forever — both are the PR 3 bug classes).
    pub struct RuntimeDropModel;

    /// Virtual locks: the scheduler state and each task's future slot.
    const LOCK_SCHED: u64 = 0;
    const LOCK_FUT_A: u64 = 1;
    const LOCK_FUT_B: u64 = 2;
    /// Wake flag: the worker thread exited (models `join`).
    const FLAG_WORKER_DONE: u64 = 200;

    /// The mirrored runtime state (plain data; real mutual exclusion is
    /// provided by the controlled scheduler's virtual locks).
    #[derive(Default)]
    struct DropState {
        shutdown_flag: bool,
        /// `Some` while the task's future exists; dropping it settles.
        future: [bool; 2],
        /// Times each task settled (must end exactly 1 each).
        settled: [u32; 2],
    }

    impl DropState {
        fn cancel(&mut self, task: usize) {
            if self.future[task] {
                self.future[task] = false;
                self.settled[task] += 1;
            }
        }
    }

    impl Model for RuntimeDropModel {
        fn name(&self) -> &'static str {
            "Runtime::drop vs in-flight task poll"
        }

        fn instantiate(&self) -> ModelRun {
            let state = Arc::new(Mutex::new(DropState {
                shutdown_flag: false,
                future: [true, true],
                settled: [0, 0],
            }));

            let dropper = {
                let state = Arc::clone(&state);
                Box::new(move |ctl: &Ctl| {
                    // Runtime::drop, step by step.
                    state.lock().shutdown_flag = true; // atomic flag first
                    ctl.point();
                    ctl.lock(LOCK_SCHED); // clear queues under the lock
                    ctl.unlock(LOCK_SCHED);
                    // First try_cancel sweep: non-blocking on purpose.
                    for lock in [LOCK_FUT_A, LOCK_FUT_B] {
                        if ctl.try_lock(lock) {
                            state.lock().cancel((lock - LOCK_FUT_A) as usize);
                            ctl.unlock(lock);
                        }
                    }
                    // Join the worker.
                    ctl.wait_flag(FLAG_WORKER_DONE);
                    // Second sweep, after the join.
                    for lock in [LOCK_FUT_A, LOCK_FUT_B] {
                        if ctl.try_lock(lock) {
                            state.lock().cancel((lock - LOCK_FUT_A) as usize);
                            ctl.unlock(lock);
                        }
                    }
                }) as Box<dyn FnOnce(&Ctl) + Send>
            };

            let worker = {
                let state = Arc::clone(&state);
                Box::new(move |ctl: &Ctl| {
                    // RunnableTask::run for task A: hold the future-slot
                    // lock across the poll.
                    ctl.lock(LOCK_FUT_A);
                    ctl.point(); // the poll itself (returns Pending)
                    let shutting_down = state.lock().shutdown_flag;
                    if shutting_down {
                        // The poll epilogue: the cancel sweep could not take
                        // our future mutex, so drop the future here.
                        state.lock().cancel(0);
                    }
                    ctl.unlock(LOCK_FUT_A);
                    ctl.point();
                    ctl.set_flag(FLAG_WORKER_DONE); // worker exits
                }) as Box<dyn FnOnce(&Ctl) + Send>
            };

            ModelRun {
                threads: vec![dropper, worker],
                finale: Box::new(move || {
                    let state = state.lock();
                    for (task, count) in state.settled.iter().enumerate() {
                        if *count != 1 {
                            return Err(format!(
                                "task {task} settled {count} times (expected exactly once): \
                                 0 = hung JoinHandle, 2+ = double-settled alive counter"
                            ));
                        }
                    }
                    Ok(())
                }),
            }
        }
    }

    /// Model 3: reactor event delivery versus registration drop, driving
    /// the **real** `ReadyCell` from
    /// the IO reactor.  (Which thread delivers — today the worker in the
    /// driver seat — is immaterial to the cell: see model 6 for the seat.)
    ///
    /// Thread 0 is a session task's read future running the exact net-wrapper
    /// loop: `poll_ready` → non-blocking syscall → tick-checked
    /// `clear_ready` on `WouldBlock`, parking on a waker between edges.  It
    /// tolerates one suspension; if it suspends a *second* time (a spurious
    /// readable edge with no data, e.g. `EPOLLRDHUP`) the task is cancelled —
    /// its future drops, which deregisters the token from the table.  Thread
    /// 1 is the driving worker delivering two edge events for that token —
    /// one spurious, one carrying data — each time cloning the cell `Arc`
    /// out of the (virtually locked) registration table and calling
    /// `set_ready` strictly after releasing it.
    ///
    /// The schedule space covers exactly the windows `reactor.rs` documents:
    /// an event landing between the syscall and the `clear_ready` (the tick
    /// mismatch must keep the cell ready — losing that edge parks the task
    /// forever and the scheduler reports the lost wakeup), and the
    /// deregister-while-ready race where the driver has cloned the cell,
    /// the task drops the registration, and `set_ready` then wakes a stale
    /// waker on an orphaned cell (harmless by construction).  Invariants: no
    /// schedule deadlocks, the task either reads exactly once or is
    /// cancelled, and the registration is always gone at the end.
    pub struct ReactorRegistrationModel;

    /// Virtual lock guarding the model's one-entry registration table.
    const LOCK_TABLE: u64 = 20;
    /// Wake flag for the IO task's readiness waker.
    const FLAG_IO: u64 = 300;

    /// How the model's session task ended.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum IoOutcome {
        /// The read completed and the future resolved.
        Read,
        /// The task was cancelled after a second spurious suspension.
        Cancelled,
    }

    impl Model for ReactorRegistrationModel {
        fn name(&self) -> &'static str {
            "reactor event delivery vs registration drop (deregister-while-ready)"
        }

        fn instantiate(&self) -> ModelRun {
            use crate::runtime::reactor::{Dir, ReadyCell};

            // The registration table entry (`Reactor::registrations` has one
            // relevant token here); `None` means deregistered.
            let table: Arc<Mutex<Option<Arc<ReadyCell>>>> =
                Arc::new(Mutex::new(Some(Arc::new(ReadyCell::new()))));
            // Whether the peer's bytes have arrived (what the non-blocking
            // read syscall would observe).
            let data = Arc::new(Mutex::new(false));
            let outcome: Arc<Mutex<Option<IoOutcome>>> = Arc::new(Mutex::new(None));

            let io_task = {
                let table = Arc::clone(&table);
                let data = Arc::clone(&data);
                let outcome = Arc::clone(&outcome);
                Box::new(move |ctl: &Ctl| {
                    let cell = table.lock().clone().expect("registration starts live");
                    let waker = ctl.flag_waker(FLAG_IO);
                    let mut cx = Context::from_waker(&waker);
                    let mut suspensions = 0u32;
                    let finished = loop {
                        ctl.clear_flag(FLAG_IO);
                        ctl.point();
                        match cell.poll_ready(Dir::Read, &mut cx) {
                            Poll::Ready(tick) => {
                                // The non-blocking read attempt.
                                ctl.point();
                                if *data.lock() {
                                    break IoOutcome::Read;
                                }
                                // WouldBlock: clear with the observed tick.
                                // If an event landed since, this must no-op
                                // and the loop retries instead of parking.
                                cell.clear_ready(Dir::Read, tick);
                            }
                            Poll::Pending if suspensions >= 1 => {
                                // A second data-less suspension: the session
                                // is cancelled and its future drops.
                                break IoOutcome::Cancelled;
                            }
                            Poll::Pending => {
                                suspensions += 1;
                                ctl.wait_flag(FLAG_IO);
                            }
                        }
                    };
                    // Registration::drop — remove the table entry.  The
                    // driver may already hold a clone of the cell.
                    ctl.lock(LOCK_TABLE);
                    let registration = table.lock().take();
                    ctl.unlock(LOCK_TABLE);
                    assert!(
                        registration.is_some(),
                        "nothing else deregisters this token"
                    );
                    *outcome.lock() = Some(finished);
                }) as ThreadBody
            };

            let driver = {
                let table = Arc::clone(&table);
                let data = Arc::clone(&data);
                Box::new(move |ctl: &Ctl| {
                    // Two edge events for the token: a spurious readable
                    // edge (no data behind it), then the real one.
                    for event in 0..2u32 {
                        if event == 1 {
                            *data.lock() = true;
                            ctl.point();
                        }
                        // Clone out under the table lock, deliver after
                        // dropping it — the deregistration window.
                        ctl.lock(LOCK_TABLE);
                        let cell = table.lock().clone();
                        ctl.unlock(LOCK_TABLE);
                        if let Some(cell) = cell {
                            ctl.point();
                            // May target an orphaned cell by now; must stay
                            // a harmless stale wake either way.
                            cell.set_ready(true, false);
                        }
                    }
                }) as ThreadBody
            };

            ModelRun {
                threads: vec![io_task, driver],
                finale: Box::new(move || {
                    if table.lock().is_some() {
                        return Err(
                            "registration still in the table after the task ended".to_owned()
                        );
                    }
                    match *outcome.lock() {
                        Some(IoOutcome::Read) => {
                            if !*data.lock() {
                                return Err("task read before the data arrived".to_owned());
                            }
                            Ok(())
                        }
                        Some(IoOutcome::Cancelled) => Ok(()),
                        None => Err("task neither read nor was cancelled".to_owned()),
                    }
                }),
            }
        }
    }

    /// Model 4: the run queue's push/park protocol, driving the **real**
    /// `RunQueue` from the runtime.
    ///
    /// Two workers and a producer share a `RunQueue<u32>`.  The producer
    /// pushes two items from outside the pool; each worker runs the exact
    /// worker-loop idle protocol — pop, then `prepare_park`, then the
    /// mandatory *re-scan*, then park — with the blocking `park_wait`
    /// replaced by a checker wake flag.  Real permit grants are mirrored
    /// onto the flags atomically (within the granting thread's model step),
    /// so a schedule where a worker parks while an item sits unclaimed and
    /// no permit is pending is precisely a **lost wakeup**, and the
    /// scheduler reports the parked thread as such.
    ///
    /// The explored windows are the ones `queue.rs` documents: a push
    /// landing between a worker's `prepare_park` and its re-scan (the
    /// re-scan must find the item), and between the re-scan and the park
    /// (the idle-list registration must route the permit to the parked
    /// worker).  Invariants: no deadlocks, no item lost or consumed twice,
    /// and the queue drains empty.
    pub struct RunQueueModel;

    /// Park wake flags, one per model worker.
    const FLAG_PARK: [u64; 2] = [400, 401];
    /// The items the producer submits (distinct, so double-consumption is
    /// visible).
    const QUEUE_ITEMS: [u32; 2] = [11, 22];

    /// Shared tallies for the queue model.
    struct QueueModelState {
        remaining: u32,
        consumed: Vec<u32>,
    }

    /// Consumes `item`; when it was the last one, performs the end-of-run
    /// wake (the real `unpark_all`, mirrored onto both park flags) so
    /// parked workers can observe completion and exit.
    fn queue_model_consume(
        ctl: &Ctl,
        queue: &crate::runtime::queue::RunQueue<u32>,
        state: &Mutex<QueueModelState>,
        item: u32,
    ) {
        let drained = {
            let mut state = state.lock();
            state.consumed.push(item);
            state.remaining -= 1;
            state.remaining == 0
        };
        if drained {
            queue.unpark_all();
            ctl.set_flag(FLAG_PARK[0]);
            ctl.set_flag(FLAG_PARK[1]);
        }
    }

    impl Model for RunQueueModel {
        fn name(&self) -> &'static str {
            "run queue push/park (lost-wakeup hunt)"
        }

        fn instantiate(&self) -> ModelRun {
            queue_model(false)
        }
    }

    /// Model 6: model 4 with the reactor's **driver seat** — the same
    /// producer and two workers on the real
    /// `RunQueue`, but a parking worker
    /// first tries the seat, step for step as the worker loop's `drive`
    /// does: seat CAS, *then* the permit check, then "blocked in the
    /// reactor's turn", modelled as a wait on a wake-pipe flag that only
    /// the queue's real driver waker sets (installed as a checker flag
    /// waker, so the write happens inside the real `unpark`, not in a
    /// mirror).  The worker that loses the seat parks on its condvar as in
    /// model 4.  The pipe is drained and the idle list left *before* the
    /// seat is, as `Reactor::turn` and `drive` do; a byte that lands after
    /// the drain stays for the next driver, which it costs one spurious
    /// turn.
    ///
    /// The explored windows: an unpark landing between the seat CAS and the
    /// permit check (the check must see the permit), between the check and
    /// the block (the unparker must see the seat and write the pipe), and
    /// after the turn returned but before the seat is left (a stale byte,
    /// never a lost one).  A worker asleep in the turn with its permit
    /// granted and the pipe empty is the lost wakeup this model exists to
    /// rule out.  Invariants as in model 4.
    pub struct DriverSeatModel;

    /// Set by the queue's driver waker: unread bytes in the wake pipe.
    const FLAG_TURN: u64 = 402;

    impl Model for DriverSeatModel {
        fn name(&self) -> &'static str {
            "driver seat: seat CAS / permit check / blocked in turn vs unpark"
        }

        fn instantiate(&self) -> ModelRun {
            queue_model(true)
        }
    }

    /// Models 4 and 6: a producer and two workers on one real run queue;
    /// `with_seat` lets a parking worker block in the driver seat.
    fn queue_model(with_seat: bool) -> ModelRun {
        use crate::runtime::queue::RunQueue;

        let queue: Arc<RunQueue<u32>> = Arc::new(RunQueue::new(2));
        let state = Arc::new(Mutex::new(QueueModelState {
            remaining: QUEUE_ITEMS.len() as u32,
            consumed: Vec::new(),
        }));

        let producer = {
            let queue = Arc::clone(&queue);
            Box::new(move |ctl: &Ctl| {
                for item in QUEUE_ITEMS {
                    ctl.point();
                    // The real push grants permits; mirror them onto the
                    // checker flags within this same model step (no yield
                    // between), so flag and permit appear together
                    // atomically.
                    queue.push(None, item);
                    for (worker, flag) in FLAG_PARK.into_iter().enumerate() {
                        if queue.has_permit(worker) {
                            ctl.set_flag(flag);
                        }
                    }
                }
            }) as ThreadBody
        };

        let worker = |me: usize| {
            let queue = Arc::clone(&queue);
            let state = Arc::clone(&state);
            Box::new(move |ctl: &Ctl| {
                if with_seat {
                    // First call wins; both workers offer the same flag.
                    queue.set_driver_waker(ctl.flag_waker(FLAG_TURN));
                }
                loop {
                    ctl.point();
                    if let Some(item) = queue.pop() {
                        queue_model_consume(ctl, &queue, &state, item);
                        continue;
                    }
                    // The worker-loop idle protocol, step for step:
                    // register as idle FIRST...
                    ctl.point();
                    queue.prepare_park(me);
                    // ...re-scan SECOND (a push that missed the
                    // registration must be seen here)...
                    ctl.point();
                    if let Some(item) = queue.pop() {
                        queue.cancel_park(me);
                        queue_model_consume(ctl, &queue, &state, item);
                        continue;
                    }
                    if state.lock().remaining == 0 {
                        queue.cancel_park(me);
                        return;
                    }
                    // ...and only then park: in the driver seat if it is
                    // free — seat FIRST, permit check SECOND, and without a
                    // permit block until the wake pipe is written...
                    ctl.point();
                    if with_seat && queue.try_take_seat(me) {
                        ctl.point();
                        if !queue.try_take_permit(me) {
                            ctl.wait_flag(FLAG_TURN);
                            // The turn drains the pipe from the seat.
                            ctl.clear_flag(FLAG_TURN);
                        }
                        // Off the idle list, deliver, then out of the seat.
                        queue.cancel_park(me);
                        ctl.point();
                        queue.leave_seat(me);
                        continue;
                    }
                    // ...else on the condvar.  The blocking park_wait is
                    // modelled as: consume a pending permit, else wait
                    // on the mirrored flag — a wait nobody will satisfy
                    // is reported by the scheduler as a lost wakeup.
                    ctl.clear_flag(FLAG_PARK[me]);
                    ctl.point();
                    if !queue.try_take_permit(me) {
                        ctl.wait_flag(FLAG_PARK[me]);
                        let _ = queue.try_take_permit(me);
                    }
                }
            }) as ThreadBody
        };

        ModelRun {
            threads: vec![producer, worker(0), worker(1)],
            finale: Box::new(move || {
                let state = state.lock();
                if state.remaining != 0 {
                    return Err(format!(
                        "{} items never consumed (lost in the queue)",
                        state.remaining
                    ));
                }
                let mut consumed = state.consumed.clone();
                consumed.sort_unstable();
                if consumed != QUEUE_ITEMS {
                    return Err(format!(
                        "items consumed {consumed:?}, expected {QUEUE_ITEMS:?} \
                         (lost or double-consumed)"
                    ));
                }
                if !queue.drain().is_empty() {
                    return Err("queue not empty after all items consumed".to_owned());
                }
                Ok(())
            }),
        }
    }

    /// Model 5: the per-shard circuit breaker's full transition cycle,
    /// driving the **real** [`CircuitBreaker`] under the virtual shard lock
    /// it lives inside in the engine.
    ///
    /// Thread 0 is a failing session: two fetch episodes (admit under the
    /// shard lock, fetch outside it, record the failure back under the
    /// lock) whose failures trip the breaker.  Thread 1 is a recovering
    /// session: one early success that may or may not land in the rolling
    /// window before the trip, then — once the failer is done — probe
    /// fetches with timestamps past the open interval until the breaker
    /// re-closes.
    ///
    /// Invariants, on every schedule: a refused admit never happens on a
    /// closed breaker (fast-fail is only for open/half-open states); the
    /// breaker always trips (the window math is interleaving-independent);
    /// the recovering session always re-closes it within the probe budget
    /// (a breaker stuck open past its interval would starve every session
    /// on the shard); and the final transition count is exactly
    /// closed → open → half-open → closed.
    ///
    /// [`CircuitBreaker`]: crate::engine::CircuitBreaker
    pub struct CircuitBreakerModel;

    /// The virtual shard lock the breaker lives under.
    const LOCK_BREAKER_SHARD: u64 = 30;
    /// Set once the failing session has recorded both failures.
    const FLAG_FAILER_DONE: u64 = 500;
    /// The model's open interval, in logical microseconds.
    const OPEN_FOR_US: u64 = 100;

    impl Model for CircuitBreakerModel {
        fn name(&self) -> &'static str {
            "circuit breaker trip / half-open probe / re-close"
        }

        fn instantiate(&self) -> ModelRun {
            use crate::clock::Timestamp;
            use crate::engine::{BreakerConfig, BreakerState, CircuitBreaker};

            let breaker = Arc::new(Mutex::new(CircuitBreaker::new(BreakerConfig {
                window: 4,
                failure_threshold: 0.5,
                min_samples: 2,
                open_for_us: OPEN_FOR_US,
                half_open_probes: 2,
            })));

            let failer = {
                let breaker = Arc::clone(&breaker);
                Box::new(move |ctl: &Ctl| {
                    for ts in [10u64, 20] {
                        let now = Timestamp::from_micros(ts);
                        ctl.lock(LOCK_BREAKER_SHARD);
                        let admitted = breaker.lock().admit(now);
                        if !admitted {
                            // Fast-fail is legal only once the trip happened.
                            assert_ne!(
                                breaker.lock().state(),
                                BreakerState::Closed,
                                "a closed breaker refused a fetch"
                            );
                        }
                        ctl.unlock(LOCK_BREAKER_SHARD);
                        if admitted {
                            ctl.point(); // the fetch runs outside the lock
                            ctl.lock(LOCK_BREAKER_SHARD);
                            breaker.lock().record_failure(now);
                            ctl.unlock(LOCK_BREAKER_SHARD);
                        }
                        ctl.point();
                    }
                    ctl.set_flag(FLAG_FAILER_DONE);
                }) as Box<dyn FnOnce(&Ctl) + Send>
            };

            let recoverer = {
                let breaker = Arc::clone(&breaker);
                Box::new(move |ctl: &Ctl| {
                    // An early success: recorded if admitted (the window may
                    // or may not contain it when the trip is evaluated),
                    // skipped if the breaker already tripped.
                    let early = Timestamp::from_micros(15);
                    ctl.lock(LOCK_BREAKER_SHARD);
                    let admitted = breaker.lock().admit(early);
                    if !admitted {
                        assert_ne!(
                            breaker.lock().state(),
                            BreakerState::Closed,
                            "a closed breaker refused a fetch"
                        );
                    }
                    ctl.unlock(LOCK_BREAKER_SHARD);
                    if admitted {
                        ctl.point();
                        ctl.lock(LOCK_BREAKER_SHARD);
                        breaker.lock().record_success(early);
                        ctl.unlock(LOCK_BREAKER_SHARD);
                    }

                    // Recovery: strictly after the failures, with timestamps
                    // past any reachable `until` (failure times ≤ 20, so
                    // until ≤ 20 + OPEN_FOR_US < 200).
                    ctl.wait_flag(FLAG_FAILER_DONE);
                    for probe in 0..6u64 {
                        let now = Timestamp::from_micros(200 + probe * 10);
                        ctl.lock(LOCK_BREAKER_SHARD);
                        if breaker.lock().state() == BreakerState::Closed {
                            ctl.unlock(LOCK_BREAKER_SHARD);
                            return;
                        }
                        let admitted = breaker.lock().admit(now);
                        ctl.unlock(LOCK_BREAKER_SHARD);
                        ctl.point();
                        if admitted {
                            ctl.lock(LOCK_BREAKER_SHARD);
                            breaker.lock().record_success(now);
                            ctl.unlock(LOCK_BREAKER_SHARD);
                            ctl.point();
                        }
                    }
                    let state = breaker.lock().state();
                    assert_eq!(
                        state,
                        BreakerState::Closed,
                        "breaker never re-closed within the probe budget"
                    );
                }) as Box<dyn FnOnce(&Ctl) + Send>
            };

            ModelRun {
                threads: vec![failer, recoverer],
                finale: Box::new(move || {
                    let breaker = breaker.lock();
                    if breaker.state() != BreakerState::Closed {
                        return Err(format!(
                            "breaker finished {} with {} transitions, expected closed",
                            breaker.state(),
                            breaker.transitions()
                        ));
                    }
                    // Half-open is unreachable before the failer finishes
                    // (every pre-recovery timestamp is inside the open
                    // interval), so the only legal history is one trip, one
                    // half-opening, one close.
                    if breaker.transitions() != 3 {
                        return Err(format!(
                            "{} transitions, expected exactly closed → open → half-open → closed",
                            breaker.transitions()
                        ));
                    }
                    Ok(())
                }),
            }
        }
    }

    /// A deliberately broken variant — two threads taking two locks in
    /// **opposite** order — used to prove the explorer actually finds
    /// deadlocks (a checker that reports "0 violations" on everything is
    /// indistinguishable from one that checks nothing).
    pub struct InvertedLockOrderModel;

    const LOCK_A: u64 = 10;
    const LOCK_B: u64 = 11;

    impl Model for InvertedLockOrderModel {
        fn name(&self) -> &'static str {
            "inverted lock order (deadlock expected)"
        }

        fn instantiate(&self) -> ModelRun {
            let forward = Box::new(move |ctl: &Ctl| {
                ctl.lock(LOCK_A);
                ctl.point();
                ctl.lock(LOCK_B);
                ctl.unlock(LOCK_B);
                ctl.unlock(LOCK_A);
            }) as Box<dyn FnOnce(&Ctl) + Send>;
            let backward = Box::new(move |ctl: &Ctl| {
                ctl.lock(LOCK_B);
                ctl.point();
                ctl.lock(LOCK_A);
                ctl.unlock(LOCK_A);
                ctl.unlock(LOCK_B);
            }) as Box<dyn FnOnce(&Ctl) + Send>;
            ModelRun {
                threads: vec![forward, backward],
                finale: Box::new(|| Ok(())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::models::{
        CircuitBreakerModel, DriverSeatModel, InvertedLockOrderModel, ReactorRegistrationModel,
        RunQueueModel, RuntimeDropModel, SingleFlightModel,
    };
    use super::*;

    #[test]
    fn single_flight_model_is_clean() {
        let exploration = explore(&SingleFlightModel, 400);
        assert!(exploration.exhausted, "{}", exploration.summary());
        assert!(exploration.schedules > 10, "{}", exploration.summary());
        assert!(
            exploration.violations.is_empty(),
            "{}\nfirst violation: {:?}",
            exploration.summary(),
            exploration.violations.first()
        );
    }

    #[test]
    fn runtime_drop_model_is_clean_and_exhaustive() {
        let exploration = explore(&RuntimeDropModel, 5_000);
        assert!(exploration.exhausted, "{}", exploration.summary());
        assert!(
            exploration.violations.is_empty(),
            "{}\nfirst violation: {:?}",
            exploration.summary(),
            exploration.violations.first()
        );
    }

    #[test]
    fn reactor_registration_model_is_clean() {
        let exploration = explore(&ReactorRegistrationModel, 5_000);
        assert!(exploration.schedules > 10, "{}", exploration.summary());
        assert!(
            exploration.violations.is_empty(),
            "{}\nfirst violation: {:?}",
            exploration.summary(),
            exploration.violations.first()
        );
    }

    #[test]
    fn run_queue_model_is_clean() {
        let exploration = explore(&RunQueueModel, 4_000);
        assert!(exploration.schedules > 10, "{}", exploration.summary());
        assert!(
            exploration.violations.is_empty(),
            "{}\nfirst violation: {:?}",
            exploration.summary(),
            exploration.violations.first()
        );
    }

    #[test]
    fn driver_seat_model_is_clean() {
        let exploration = explore(&DriverSeatModel, 4_000);
        assert!(exploration.schedules > 10, "{}", exploration.summary());
        assert!(
            exploration.violations.is_empty(),
            "{}\nfirst violation: {:?}",
            exploration.summary(),
            exploration.violations.first()
        );
    }

    #[test]
    fn circuit_breaker_model_is_clean() {
        let exploration = explore(&CircuitBreakerModel, 5_000);
        assert!(exploration.schedules > 10, "{}", exploration.summary());
        assert!(
            exploration.violations.is_empty(),
            "{}\nfirst violation: {:?}",
            exploration.summary(),
            exploration.violations.first()
        );
    }

    #[test]
    fn explorer_detects_the_seeded_deadlock() {
        let exploration = explore(&InvertedLockOrderModel, 1_000);
        assert!(
            exploration
                .violations
                .iter()
                .any(|(_, message)| message.contains("deadlock")),
            "the inverted-order model must deadlock on some schedule: {}",
            exploration.summary()
        );
    }

    #[test]
    fn replaying_a_violation_schedule_reproduces_it() {
        let exploration = explore(&InvertedLockOrderModel, 1_000);
        let (schedule, _) = exploration.violations.first().expect("deadlock found");
        // Replaying the recorded choices must hit the same violation.
        let replay = run_schedule(&InvertedLockOrderModel, schedule);
        assert!(matches!(replay.outcome, RunOutcome::Violated(_)));
    }
}
