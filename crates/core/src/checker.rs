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
//! one thread to run between *scheduling points*, enumerate every reachable
//! schedule by depth-first replay, and assert the model's invariants on each
//! one.
//!
//! ## How it works
//!
//! * A model ([`Model`]) instantiates fresh shared state plus a closure per
//!   model thread.  Threads are real OS threads, but they only execute while
//!   holding the scheduler's token, and they run the **real** code: every
//!   [`sync::Mutex`](crate::sync::Mutex) and
//!   [`sync::Condvar`](crate::sync::Condvar) operation on a model thread is
//!   a scheduling point (the `sync` module's seam).  `lock` blocks, in
//!   model time, while another model thread holds the lock; `try_lock`
//!   yields, then tries; `Condvar::wait` releases the lock and blocks until
//!   a notify that comes after the wait began, as in std.  The [`Ctl`]
//!   handle adds what no lock expresses: plain points at atomics, syscalls
//!   and polls ([`Ctl::point`]) and wake flags for poll-based types
//!   ([`Ctl::flag_waker`], [`Ctl::wait_flag`]).
//! * At each decision point the scheduler computes the *eligible* threads
//!   (ready, or blocked on a lock that is now free / a condvar that was
//!   notified / a flag that is now set), consults the schedule script, and
//!   grants the token.  Replaying a choice prefix and then always taking the
//!   first eligible thread makes runs deterministic, so the explorer can
//!   enumerate schedules depth-first: each run records how many options
//!   every decision point had, and every untaken option becomes a new
//!   prefix to explore.
//! * **Deadlocks are detected, not suffered**: a state where unfinished
//!   threads exist but none is eligible is reported with every thread's
//!   block reason.  A thread blocked forever on a condvar nobody will
//!   notify, or a wake flag nobody will set, is precisely a *lost wakeup*,
//!   and is labelled as such.
//! * Model threads assert invariants inline (plus a finale check after all
//!   threads finish); panics are caught and reported with the offending
//!   schedule.  Bookkeeping that is not under test (tallies, what a thread
//!   saw) lives in atomics, so it adds no scheduling points.
//!
//! The scheduler never actually deadlocks the process: a model thread only
//! takes a real lock once the scheduler has granted it the lock's virtual
//! twin.
//!
//! The state machines this repo most needs checked ship as built-in
//! models: [`models::SingleFlightModel`] (leader panic → restart →
//! forget_waiter, against a real shard and `Shard::abandon`),
//! [`models::RuntimeDropModel`] (`Runtime::drop` vs a worker mid-poll),
//! [`models::ReactorRegistrationModel`] (IO-reactor event delivery vs a
//! cancelled task dropping its registration, against the real `ReadyCell`),
//! [`models::RunQueueModel`] (the run-queue push/park protocol, against
//! the real `RunQueue` and its real `park_wait` — a parked worker nobody
//! wakes while work sits queued is a lost wakeup),
//! [`models::CircuitBreakerModel`] (the per-shard breaker's trip /
//! half-open / re-close cycle, against the real `CircuitBreaker` under
//! its shard's lock) and [`models::DriverSeatModel`] (the same run queue
//! with the reactor's driver seat: one idle worker blocks in the reactor's
//! turn instead of on its condvar, and an unpark must reach it there).
//! Two self-test models must *fail*: an inverted lock order (deadlock) and
//! a predicate checked outside the condvar's lock (lost wakeup).
//! `cargo run -p watchman-core --features lock-graph --bin checker`
//! explores them all; see `CONCURRENCY.md`.  The module is compiled into
//! the crate's unit tests and `lock-graph` builds only.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use crate::sync::{Condvar, Mutex};

/// Why a parked model thread cannot run right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockReason {
    /// Waiting on the lock at this address, held by another thread.
    Lock(usize),
    /// Waiting for a notify on the condvar at this address.
    Condvar(usize),
    /// Waiting for a wake flag to be set.
    Flag(u64),
}

/// A model thread's scheduling status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Parked at a scheduling point, eligible to run.
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
    /// Virtual lock table: lock address → holding thread.
    holders: HashMap<usize, usize>,
    /// Condvar waits no notify has ended yet, as (condvar address, thread),
    /// oldest first.
    waiting: Vec<(usize, usize)>,
    /// Threads granted their start and not yet at a scheduling point.
    starting: Vec<bool>,
    /// Wake flags (edge state persists until explicitly cleared).
    flags: HashMap<u64, bool>,
    /// A model thread panicked with this message.
    failure: Option<String>,
    /// Tear-down: parked threads unwind instead of waiting for a token.
    abort: bool,
}

impl CtlState {
    /// Whether a thread parked as `status` may take the token now.
    fn eligible(&self, id: usize, status: Status) -> bool {
        match status {
            Status::Ready => true,
            Status::Blocked(BlockReason::Lock(lock)) => !self.holders.contains_key(&lock),
            Status::Blocked(BlockReason::Condvar(condvar)) => {
                !self.waiting.contains(&(condvar, id))
            }
            Status::Blocked(BlockReason::Flag(flag)) => self.flag(flag),
            Status::Running | Status::Finished => false,
        }
    }

    fn flag(&self, flag: u64) -> bool {
        self.flags.get(&flag).copied().unwrap_or(false)
    }
}

/// The scheduler proper.  Its own lock and condvar are unhooked: they are
/// how model threads hand the token around, not part of any model.
struct Controller {
    state: Mutex<CtlState>,
    changed: Condvar,
}

/// The panic payload used to unwind parked model threads at tear-down.
struct AbortToken;

impl Controller {
    fn new(threads: usize) -> Self {
        Controller {
            state: Mutex::unhooked(CtlState {
                // Threads start as Running and park themselves at their
                // startup pause; the scheduler's "everyone parked" wait
                // therefore also covers thread startup.
                status: vec![Status::Running; threads],
                token: None,
                holders: HashMap::new(),
                waiting: Vec::new(),
                starting: vec![false; threads],
                flags: HashMap::new(),
                failure: None,
                abort: false,
            }),
            changed: Condvar::unhooked(),
        }
    }

    /// Parks thread `me` until its first grant.  Its start and its first
    /// scheduling point are one decision: it runs up to and through its
    /// first lock, condvar or flag operation in one step, since a second
    /// decision there would only repeat the one that started it.
    fn start(&self, me: usize) {
        self.pause(me, Status::Ready);
        self.state.lock().starting[me] = true;
    }

    /// Parks thread `me` as `parked_as`, then blocks until the scheduler
    /// grants it the token (at once, if it is starting and may go on).
    fn pause(&self, me: usize, parked_as: Status) {
        let mut state = self.state.lock();
        debug_assert_eq!(state.status[me], Status::Running);
        if std::mem::take(&mut state.starting[me]) && state.eligible(me, parked_as) {
            return;
        }
        state.token = None;
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

    fn set_flag(&self, flag: u64, value: bool) {
        // No notify needed: flags are only consulted by the scheduler at
        // decision points, which the setter's own pause/finish triggers.
        self.state.lock().flags.insert(flag, value);
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

thread_local! {
    /// The running model thread's handle; `None` on every other thread.
    static CURRENT: RefCell<Option<Ctl>> = const { RefCell::new(None) };
}

/// The calling thread's handle, if it is a model thread: the `sync` seam
/// schedules its lock and condvar operations through it.
pub(crate) fn current() -> Option<Ctl> {
    CURRENT.try_with(|ctl| ctl.borrow().clone()).ok().flatten()
}

/// A model thread's handle to the controlled scheduler.  Every method that
/// can interleave with other threads is a *scheduling point*: the token
/// goes back to the scheduler and the thread parks until rescheduled.
#[derive(Clone)]
pub struct Ctl {
    controller: Arc<Controller>,
    id: usize,
}

impl Ctl {
    /// A plain interleaving point: any eligible thread may run next.  Models
    /// place one before a step the `sync` seam does not see: an atomic, a
    /// syscall, a poll.
    pub fn point(&self) {
        self.controller.pause(self.id, Status::Ready);
    }

    /// The seam's `Mutex::lock`: a scheduling point that blocks, in model
    /// time, while another thread holds the lock at `lock`, then holds it.
    pub(crate) fn lock(&self, lock: usize) {
        self.controller
            .pause(self.id, Status::Blocked(BlockReason::Lock(lock)));
        self.hold(lock);
    }

    /// Records this thread as the holder of the free lock at `lock`.
    pub(crate) fn hold(&self, lock: usize) {
        let previous = self.controller.state.lock().holders.insert(lock, self.id);
        debug_assert_eq!(previous, None, "the scheduler granted a held lock");
    }

    /// Releases the lock at `lock` (a guard's drop; never a scheduling
    /// point, and quiet during tear-down unwinds).
    pub(crate) fn unlock(&self, lock: usize) {
        self.controller.state.lock().holders.remove(&lock);
    }

    /// The seam's `Condvar::wait`, with the lock already released: blocks
    /// until a notify on `condvar` ends this wait — or, when `timed`, parks
    /// ready, since the timeout may fire at any time.  Returns whether a
    /// notify ended it.
    pub(crate) fn wait(&self, condvar: usize, timed: bool) -> bool {
        let me = (condvar, self.id);
        self.controller.state.lock().waiting.push(me);
        let parked_as = if timed {
            Status::Ready
        } else {
            Status::Blocked(BlockReason::Condvar(condvar))
        };
        self.controller.pause(self.id, parked_as);
        let mut state = self.controller.state.lock();
        let pending = state.waiting.iter().position(|wait| *wait == me);
        pending.map(|index| state.waiting.remove(index)).is_none()
    }

    /// The seam's `notify_one` / `notify_all`: ends the oldest wait on
    /// `condvar`, or every one.  A notify with no wait is lost, as in std.
    pub(crate) fn notify(&self, condvar: usize, all: bool) {
        let mut state = self.controller.state.lock();
        while let Some(index) = state.waiting.iter().position(|(cv, _)| *cv == condvar) {
            state.waiting.remove(index);
            if !all {
                break;
            }
        }
    }

    /// Sets a wake flag (typically called from a model waker).
    pub fn set_flag(&self, flag: u64) {
        self.controller.set_flag(flag, true);
    }

    /// Clears a wake flag (re-arming before a poll, like a real waker slot).
    pub fn clear_flag(&self, flag: u64) {
        self.controller.set_flag(flag, false);
    }

    /// Blocks (in model time) until the flag is set.  A thread parked here
    /// when no live thread will ever set the flag is a **lost wakeup**; the
    /// scheduler reports it as such.
    pub fn wait_flag(&self, flag: u64) {
        self.controller
            .pause(self.id, Status::Blocked(BlockReason::Flag(flag)));
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
                self.controller.set_flag(self.flag, true);
            }
            fn wake_by_ref(self: &Arc<Self>) {
                self.controller.set_flag(self.flag, true);
            }
        }
        std::task::Waker::from(Arc::new(FlagWaker {
            controller: Arc::clone(&self.controller),
            flag,
        }))
    }
}

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

/// Model panics (invariant asserts, abort-token unwinds) are caught and
/// folded into the exploration report; without this, every violating
/// schedule would also spray a stack trace on stderr.  The hook delegates
/// non-checker panics to whatever hook was installed before.
fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if current().is_none() {
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
                CURRENT.with(|current| *current.borrow_mut() = Some(ctl.clone()));
                ctl.controller.start(id);
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
                .filter(|(id, status)| state.eligible(*id, **status))
                .map(|(id, _)| id)
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
                    "thread {id} blocked on lock {lock:#x} (held by {})",
                    holder.map_or_else(|| "nobody".to_owned(), |h| format!("thread {h}"))
                ));
            }
            Status::Blocked(BlockReason::Condvar(condvar)) => {
                lost_wakeup = true;
                parts.push(format!(
                    "thread {id} waiting on condvar {condvar:#x} that no live thread will \
                     notify (lost wakeup)"
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
    //! hand-found races, the run queue's push/park protocol, plus two
    //! deliberately broken models that prove the explorer actually detects
    //! deadlocks and lost wakeups.

    use super::{Ctl, Model, ModelRun, ThreadBody};
    use crate::clock::Timestamp;
    use crate::engine::single_flight::{FlightOutcome, WaiterSlot};
    use crate::engine::{Leader, PolicyKind, Shard, Step};
    use crate::key::QueryKey;
    use crate::sync::{Condvar, Mutex};
    use crate::value::ExecutionCost;
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use std::sync::Arc;
    use std::task::{Context, Poll};

    /// Model 1: the single-flight protocol, driving a **real** shard's key
    /// slot, the **real** `Flight` cell and the **real** `Shard::abandon`.
    ///
    /// Thread 0 leads the key's flight, which starts without a cell: its
    /// fetch panicked, and the unwind abandons the flight in
    /// `Shard::abandon`'s two steps: it retires the flight from the slot
    /// under the shard lock, then abandons the cell, if a waiter made one,
    /// waking every waiter.  Threads 1 and 2 arrive on the key through
    /// `start_flight`: while a flight is live they join it, the first of
    /// them creating its cell, and otherwise they lead a fresh one.  A
    /// waiter that finds its flight abandoned restarts and arrives again.
    /// Thread 1 is a loyal session: it polls until it resolves.  Thread 2 is
    /// a flaky session: the first time it suspends it gives up
    /// (`Flight::forget_waiter`).  A session that leads settles its flight
    /// in the slot and completes the cell it gets back.
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
    fn lead(shard: &ModelShard, key: &QueryKey, leader: &Leader<String>) -> String {
        let retired = shard
            .lock()
            .settle_success(key, leader.id, Timestamp::ZERO, false, None);
        if let Some(cell) = retired {
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
        'arrival: loop {
            let step = shard.lock().start_flight(key, Timestamp::ZERO, false);
            let cell = match step {
                Step::BecomeWaiter(cell) => cell,
                Step::Lead(leader) => return Some(lead(shard, key, &leader)),
                _ => panic!("outside the failure domain a miss waits or leads"),
            };
            let mut slot = WaiterSlot::new();
            loop {
                ctl.clear_flag(flag);
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

            let panicking_leader = {
                let shard = Arc::clone(&shard);
                let key = key.clone();
                // The fetch ran (the thread's start is a scheduling point),
                // then panicked: the unwind abandons.
                Box::new(move |_: &Ctl| shard.abandon(&key, &leader)) as ThreadBody
            };
            let session = |flag: u64, flaky: bool| {
                let shard = Arc::clone(&shard);
                let key = key.clone();
                Box::new(
                    move |ctl: &Ctl| match arrive(ctl, &shard, &key, flag, flaky) {
                        Some(value) => assert_eq!(
                            value, SUCCESSOR_VALUE,
                            "a session observed a value no successor published"
                        ),
                        None => assert!(flaky, "a loyal session always resolves"),
                    },
                ) as ThreadBody
            };

            ModelRun {
                threads: vec![
                    panicking_leader,
                    session(FLAG_LOYAL, false),
                    session(FLAG_FLAKY, true),
                ],
                finale: Box::new(move || {
                    // A fresh arrival leads unless a flight is still live.
                    match shard.lock().start_flight(&key, Timestamp::ZERO, false) {
                        Step::Lead(_) => Ok(()),
                        _ => Err("the key's slot still holds a flight".to_owned()),
                    }
                }),
            }
        }
    }

    /// Model 2: `Runtime::drop` versus a worker mid-poll.  The real
    /// runtime's threads cannot be scheduled from outside, so the model
    /// re-implements the exact protocol of `Runtime::drop` +
    /// `RunnableTask::run`'s shutdown epilogue — atomic-flag-first,
    /// lock-clear-sweep, non-blocking `try_cancel`, join, second sweep — over
    /// `sync::Mutex` stand-ins for the scheduler lock and the two tasks'
    /// future slots.
    ///
    /// Task A is being polled by the worker when shutdown starts; task B is
    /// suspended on an external waker.  Invariant: both tasks settle
    /// exactly once (a task settled twice double-decrements the alive
    /// counter; a task never settled leaves its `JoinHandle` hanging
    /// forever — both are the PR 3 bug classes).
    pub struct RuntimeDropModel;

    /// Wake flag: the worker thread exited (models `join`).
    const FLAG_WORKER_DONE: u64 = 200;

    /// The runtime's state, as the model needs it.
    struct DropState {
        shutdown: AtomicBool,
        /// The scheduler lock the drop clears the queues under.
        scheduler: Mutex<()>,
        /// Each task's future slot: `true` while its future exists.
        futures: [Mutex<bool>; 2],
        /// Times each task settled (must end exactly 1 each).
        settled: [AtomicU32; 2],
    }

    impl DropState {
        /// Drops task `task`'s future, settling the task, if it still
        /// exists.
        fn cancel(&self, task: usize, future: &mut bool) {
            if std::mem::take(future) {
                self.settled[task].fetch_add(1, Ordering::Relaxed);
            }
        }

        /// One `try_cancel` sweep: non-blocking on purpose.
        fn sweep(&self) {
            for (task, future) in self.futures.iter().enumerate() {
                if let Some(mut future) = future.try_lock() {
                    self.cancel(task, &mut future);
                }
            }
        }
    }

    impl Model for RuntimeDropModel {
        fn name(&self) -> &'static str {
            "Runtime::drop vs in-flight task poll"
        }

        fn instantiate(&self) -> ModelRun {
            let state = Arc::new(DropState {
                shutdown: AtomicBool::new(false),
                scheduler: Mutex::new(()),
                futures: [Mutex::new(true), Mutex::new(true)],
                settled: [AtomicU32::new(0), AtomicU32::new(0)],
            });

            let dropper = {
                let state = Arc::clone(&state);
                Box::new(move |ctl: &Ctl| {
                    // Runtime::drop, step by step: the atomic flag first,
                    // then clear the queues under the scheduler lock.
                    state.shutdown.store(true, Ordering::SeqCst);
                    drop(state.scheduler.lock());
                    state.sweep();
                    // Join the worker, then sweep again.
                    ctl.wait_flag(FLAG_WORKER_DONE);
                    state.sweep();
                }) as ThreadBody
            };

            let worker = {
                let state = Arc::clone(&state);
                Box::new(move |ctl: &Ctl| {
                    // RunnableTask::run for task A: hold the future-slot
                    // lock across the poll.
                    let mut future = state.futures[0].lock();
                    ctl.point(); // the poll itself (returns Pending)
                    if state.shutdown.load(Ordering::SeqCst) {
                        // The poll epilogue: the cancel sweep could not take
                        // our future mutex, so drop the future here.
                        state.cancel(0, &mut future);
                    }
                    drop(future);
                    ctl.point();
                    ctl.set_flag(FLAG_WORKER_DONE); // worker exits
                }) as ThreadBody
            };

            ModelRun {
                threads: vec![dropper, worker],
                finale: Box::new(move || {
                    for (task, settled) in state.settled.iter().enumerate() {
                        let count = settled.load(Ordering::Relaxed);
                        if count != 1 {
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
    /// out of the registration table under its lock and calling
    /// `set_ready` strictly after releasing it.
    ///
    /// The schedule space covers exactly the windows `reactor.rs` documents:
    /// an event landing between the syscall and the `clear_ready` (the tick
    /// mismatch must keep the cell ready — losing that edge parks the task
    /// forever and the scheduler reports the lost wakeup), and the
    /// deregister-while-ready race where the driver has cloned the cell,
    /// the task drops the registration, and `set_ready` then wakes a stale
    /// waker on an orphaned cell (harmless by construction).  Invariants: no
    /// schedule deadlocks, the task reads only data that arrived, and the
    /// registration is always gone at the end.
    pub struct ReactorRegistrationModel;

    /// Wake flag for the IO task's readiness waker.
    const FLAG_IO: u64 = 300;

    impl Model for ReactorRegistrationModel {
        fn name(&self) -> &'static str {
            "reactor event delivery vs registration drop (deregister-while-ready)"
        }

        fn instantiate(&self) -> ModelRun {
            use crate::runtime::reactor::{Dir, ReadyCell};

            // The registration table entry (`Reactor::registrations` has one
            // relevant token here); `None` means deregistered.
            let cell = Arc::new(ReadyCell::new());
            let table = Arc::new(Mutex::new(Some(Arc::clone(&cell))));
            // Whether the peer's bytes have arrived (what the non-blocking
            // read syscall would observe): an atomic, so each access is an
            // explicit point.
            let data = Arc::new(AtomicBool::new(false));

            let io_task = {
                let table = Arc::clone(&table);
                let data = Arc::clone(&data);
                Box::new(move |ctl: &Ctl| {
                    let waker = ctl.flag_waker(FLAG_IO);
                    let mut cx = Context::from_waker(&waker);
                    let mut suspensions = 0u32;
                    loop {
                        ctl.clear_flag(FLAG_IO);
                        match cell.poll_ready(Dir::Read, &mut cx) {
                            Poll::Ready(tick) => {
                                // The non-blocking read attempt.
                                ctl.point();
                                if data.load(Ordering::SeqCst) {
                                    break;
                                }
                                // WouldBlock: clear with the observed tick.
                                // If an event landed since, this must no-op
                                // and the loop retries instead of parking.
                                cell.clear_ready(Dir::Read, tick);
                            }
                            // A second data-less suspension: the session is
                            // cancelled and its future drops.
                            Poll::Pending if suspensions >= 1 => break,
                            Poll::Pending => {
                                suspensions += 1;
                                ctl.wait_flag(FLAG_IO);
                            }
                        }
                    }
                    // Registration::drop — remove the table entry.  The
                    // driver may already hold a clone of the cell.
                    let registration = table.lock().take();
                    assert!(
                        registration.is_some(),
                        "nothing else deregisters this token"
                    );
                }) as ThreadBody
            };

            let driver = {
                let table = Arc::clone(&table);
                Box::new(move |ctl: &Ctl| {
                    // Two edge events for the token: a spurious readable
                    // edge (no data behind it), then the real one.
                    for event in 0..2u32 {
                        if event == 1 {
                            ctl.point();
                            data.store(true, Ordering::SeqCst);
                        }
                        // Clone out under the table lock, deliver after
                        // dropping it — the deregistration window.  The
                        // target may be an orphaned cell by now; it must
                        // stay a harmless stale wake either way.
                        let cell = table.lock().clone();
                        if let Some(cell) = cell {
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
                    Ok(())
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
    /// mandatory *re-scan*, then the real blocking `park_wait` on its
    /// condvar.  A schedule where a worker waits while an item sits
    /// unclaimed and no notify will come is precisely a **lost wakeup**,
    /// and the scheduler reports the parked thread as such.
    ///
    /// The explored windows are the ones `queue.rs` documents: a push
    /// landing between a worker's `prepare_park` and its re-scan (the
    /// re-scan must find the item), and between the re-scan and the park
    /// (the idle-list registration must route the permit to the parked
    /// worker), and a worker's whole idle protocol landing between the
    /// push's two halves, queueing and waking (the item must be queued
    /// before the push looks for an idle worker).  Invariants: no
    /// deadlocks, no item lost or consumed twice, and the queue drains
    /// empty.
    pub struct RunQueueModel;

    /// The items the producer submits (distinct, so double-consumption is
    /// visible).
    const QUEUE_ITEMS: [u32; 2] = [11, 22];

    /// Consumes `item`, marking it in `consumed` (one bit per item; a
    /// second consumption fails the model).  The last one wakes every
    /// worker, as shutdown does (`unpark_all`), so parked workers observe
    /// completion and exit.
    fn queue_model_consume(
        queue: &crate::runtime::queue::RunQueue<u32>,
        consumed: &AtomicU32,
        item: u32,
    ) {
        let bit = 1
            << QUEUE_ITEMS
                .iter()
                .position(|queued| *queued == item)
                .expect("only submitted items are queued");
        let before = consumed.fetch_or(bit, Ordering::Relaxed);
        assert_eq!(before & bit, 0, "item {item} consumed twice");
        if before | bit == ALL_CONSUMED {
            queue.unpark_all();
        }
    }

    /// `consumed` once every item is.
    const ALL_CONSUMED: u32 = (1 << QUEUE_ITEMS.len()) - 1;

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
        let consumed = Arc::new(AtomicU32::new(0));

        let producer = {
            let queue = Arc::clone(&queue);
            Box::new(move |_: &Ctl| {
                for item in QUEUE_ITEMS {
                    queue.push(None, item);
                }
            }) as ThreadBody
        };

        let worker = |me: usize| {
            let queue = Arc::clone(&queue);
            let consumed = Arc::clone(&consumed);
            Box::new(move |ctl: &Ctl| {
                if with_seat {
                    // First call wins; both workers offer the same flag.
                    queue.set_driver_waker(ctl.flag_waker(FLAG_TURN));
                }
                loop {
                    if let Some(item) = queue.pop() {
                        queue_model_consume(&queue, &consumed, item);
                        continue;
                    }
                    // The worker-loop idle protocol, step for step:
                    // register as idle FIRST...
                    queue.prepare_park(me);
                    // ...re-scan SECOND (a push that missed the
                    // registration must be seen here)...
                    if let Some(item) = queue.pop() {
                        queue.cancel_park(me);
                        queue_model_consume(&queue, &consumed, item);
                        continue;
                    }
                    if consumed.load(Ordering::Relaxed) == ALL_CONSUMED {
                        queue.cancel_park(me);
                        return;
                    }
                    // ...and only then park: in the driver seat if it is
                    // free — seat FIRST (an atomic, so an explicit point),
                    // permit check SECOND, and without a permit block until
                    // the wake pipe is written...
                    if with_seat {
                        ctl.point();
                        if queue.try_take_seat(me) {
                            if !queue.try_take_permit(me) {
                                ctl.wait_flag(FLAG_TURN);
                                // The turn drains the pipe from the seat.
                                ctl.clear_flag(FLAG_TURN);
                            }
                            // Off the idle list, deliver, then out of the
                            // seat (an atomic store).
                            queue.cancel_park(me);
                            ctl.point();
                            queue.leave_seat(me);
                            continue;
                        }
                    }
                    // ...else on the condvar.
                    queue.park_wait(me, None);
                }
            }) as ThreadBody
        };

        ModelRun {
            threads: vec![producer, worker(0), worker(1)],
            finale: Box::new(move || {
                let consumed = consumed.load(Ordering::Relaxed);
                if consumed != ALL_CONSUMED {
                    return Err(format!(
                        "items consumed {consumed:#b} of {ALL_CONSUMED:#b} (lost in the queue)"
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
    /// driving the **real** [`CircuitBreaker`] inside a **real** shard,
    /// under the shard lock it lives under in the engine.
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

    /// Set once the failing session has recorded both failures.
    const FLAG_FAILER_DONE: u64 = 500;
    /// The model's open interval, in logical microseconds.
    const OPEN_FOR_US: u64 = 100;

    /// Runs `f` on `shard`'s breaker under the shard lock.
    fn with_breaker<R>(
        shard: &ModelShard,
        f: impl FnOnce(&mut crate::engine::CircuitBreaker) -> R,
    ) -> R {
        f(shard
            .lock()
            .breaker
            .as_mut()
            .expect("the model's shard has a breaker"))
    }

    /// Asks `shard`'s breaker to admit a fetch at `now`.
    fn admit(shard: &ModelShard, now: Timestamp) -> bool {
        with_breaker(shard, |breaker| {
            let admitted = breaker.admit(now);
            // Fast-fail is legal only once the trip happened.
            assert!(
                admitted || breaker.state() != crate::engine::BreakerState::Closed,
                "a closed breaker refused a fetch"
            );
            admitted
        })
    }

    impl Model for CircuitBreakerModel {
        fn name(&self) -> &'static str {
            "circuit breaker trip / half-open probe / re-close"
        }

        fn instantiate(&self) -> ModelRun {
            use crate::engine::{BreakerConfig, BreakerState, CircuitBreaker};

            let breaker = CircuitBreaker::new(BreakerConfig {
                window: 4,
                failure_threshold: 0.5,
                min_samples: 2,
                open_for_us: OPEN_FOR_US,
                half_open_probes: 2,
            });
            let shard: Arc<ModelShard> =
                Arc::new(Shard::new(PolicyKind::Lru.build(1 << 20), Some(breaker)));

            let failer = {
                let shard = Arc::clone(&shard);
                Box::new(move |ctl: &Ctl| {
                    for ts in [10u64, 20] {
                        let now = Timestamp::from_micros(ts);
                        // The fetch runs outside the lock, between the two.
                        if admit(&shard, now) {
                            with_breaker(&shard, |breaker| breaker.record_failure(now));
                        }
                    }
                    ctl.set_flag(FLAG_FAILER_DONE);
                }) as ThreadBody
            };

            let recoverer = {
                let shard = Arc::clone(&shard);
                Box::new(move |ctl: &Ctl| {
                    // An early success: recorded if admitted (the window may
                    // or may not contain it when the trip is evaluated),
                    // skipped if the breaker already tripped.
                    let early = Timestamp::from_micros(15);
                    if admit(&shard, early) {
                        with_breaker(&shard, |breaker| breaker.record_success(early));
                    }

                    // Recovery: strictly after the failures, with timestamps
                    // past any reachable `until` (failure times ≤ 20, so
                    // until ≤ 20 + OPEN_FOR_US < 200).
                    ctl.wait_flag(FLAG_FAILER_DONE);
                    for probe in 0..6u64 {
                        let now = Timestamp::from_micros(200 + probe * 10);
                        let closed =
                            with_breaker(&shard, |breaker| breaker.state() == BreakerState::Closed);
                        if closed {
                            return;
                        }
                        if admit(&shard, now) {
                            with_breaker(&shard, |breaker| breaker.record_success(now));
                        }
                    }
                    panic!("breaker never re-closed within the probe budget");
                }) as ThreadBody
            };

            ModelRun {
                threads: vec![failer, recoverer],
                finale: Box::new(move || {
                    let (state, transitions) =
                        with_breaker(&shard, |breaker| (breaker.state(), breaker.transitions()));
                    if state != BreakerState::Closed {
                        return Err(format!(
                            "breaker finished {state} with {transitions} transitions, \
                             expected closed"
                        ));
                    }
                    // Half-open is unreachable before the failer finishes
                    // (every pre-recovery timestamp is inside the open
                    // interval), so the only legal history is one trip, one
                    // half-opening, one close.
                    if transitions != 3 {
                        return Err(format!(
                            "{transitions} transitions, expected exactly closed → open → \
                             half-open → closed"
                        ));
                    }
                    Ok(())
                }),
            }
        }
    }

    /// A deliberately broken model — two threads taking two real locks in
    /// **opposite** order — used to prove the explorer actually finds
    /// deadlocks (a checker that reports "0 violations" on everything is
    /// indistinguishable from one that checks nothing).
    pub struct InvertedLockOrderModel;

    impl Model for InvertedLockOrderModel {
        fn name(&self) -> &'static str {
            "inverted lock order (deadlock expected)"
        }

        fn instantiate(&self) -> ModelRun {
            let first = Arc::new(Mutex::new(()));
            let second = Arc::new(Mutex::new(()));
            let in_order = |outer: &Arc<Mutex<()>>, inner: &Arc<Mutex<()>>| {
                let (outer, inner) = (Arc::clone(outer), Arc::clone(inner));
                Box::new(move |_: &Ctl| {
                    let _outer = outer.lock();
                    let _inner = inner.lock();
                }) as ThreadBody
            };
            ModelRun {
                threads: vec![in_order(&first, &second), in_order(&second, &first)],
                finale: Box::new(|| Ok(())),
            }
        }
    }

    /// A deliberately broken model — a waiter that reads its predicate
    /// under a real lock, drops the lock, and only then waits on a real
    /// condvar — used to prove the explorer maps condvars faithfully: the
    /// notify that lands in the gap is lost, as in std, and the waiter
    /// sleeps forever.
    pub struct UncheckedWaitModel;

    impl Model for UncheckedWaitModel {
        fn name(&self) -> &'static str {
            "predicate read outside the wait's lock (lost wakeup expected)"
        }

        fn instantiate(&self) -> ModelRun {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let waiter = {
                let pair = Arc::clone(&pair);
                Box::new(move |_: &Ctl| {
                    let (ready, wakeup) = &*pair;
                    let seen = *ready.lock();
                    if !seen {
                        drop(wakeup.wait(ready.lock()));
                    }
                }) as ThreadBody
            };
            let notifier = Box::new(move |_: &Ctl| {
                let (ready, wakeup) = &*pair;
                *ready.lock() = true;
                wakeup.notify_one();
            }) as ThreadBody;
            ModelRun {
                threads: vec![waiter, notifier],
                finale: Box::new(|| Ok(())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::models::{
        CircuitBreakerModel, DriverSeatModel, InvertedLockOrderModel, ReactorRegistrationModel,
        RunQueueModel, RuntimeDropModel, SingleFlightModel, UncheckedWaitModel,
    };
    use super::*;

    /// Explores `model` within `limit` schedules, failing on any violation.
    fn clean(model: &dyn Model, limit: usize) -> Exploration {
        let exploration = explore(model, limit);
        assert!(
            exploration.violations.is_empty(),
            "{}\nfirst violation: {:?}",
            exploration.summary(),
            exploration.violations.first()
        );
        exploration
    }

    #[test]
    fn single_flight_model_is_clean() {
        let exploration = clean(&SingleFlightModel, 1_500);
        assert!(exploration.exhausted, "{}", exploration.summary());
    }

    #[test]
    fn runtime_drop_model_is_clean_and_exhaustive() {
        let exploration = clean(&RuntimeDropModel, 1_500);
        assert!(exploration.exhausted, "{}", exploration.summary());
    }

    #[test]
    fn reactor_registration_model_is_clean() {
        let exploration = clean(&ReactorRegistrationModel, 1_500);
        assert!(exploration.exhausted, "{}", exploration.summary());
    }

    #[test]
    fn run_queue_model_is_clean() {
        // Bounded: the schedule space is far larger than any budget.
        clean(&RunQueueModel, 4_000);
    }

    #[test]
    fn driver_seat_model_is_clean() {
        clean(&DriverSeatModel, 4_000);
    }

    #[test]
    fn circuit_breaker_model_is_clean() {
        let exploration = clean(&CircuitBreakerModel, 1_500);
        assert!(exploration.exhausted, "{}", exploration.summary());
    }

    fn finds(model: &dyn Model, violation: &str) -> Vec<usize> {
        let exploration = explore(model, 1_000);
        let found = exploration
            .violations
            .iter()
            .find(|(_, message)| message.contains(violation));
        let Some((schedule, _)) = found else {
            panic!("no {violation} found: {}", exploration.summary());
        };
        schedule.clone()
    }

    #[test]
    fn explorer_detects_the_seeded_deadlock() {
        finds(&InvertedLockOrderModel, "deadlock");
    }

    #[test]
    fn explorer_detects_the_lost_condvar_wakeup() {
        finds(&UncheckedWaitModel, "lost wakeup");
    }

    #[test]
    fn replaying_a_violation_schedule_reproduces_it() {
        let schedule = finds(&InvertedLockOrderModel, "deadlock");
        // Replaying the recorded choices must hit the same violation.
        let replay = run_schedule(&InvertedLockOrderModel, &schedule);
        assert!(matches!(replay.outcome, RunOutcome::Violated(_)));
    }
}
