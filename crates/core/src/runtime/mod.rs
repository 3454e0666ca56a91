//! A small hand-rolled async runtime for the engine's execution layer.
//!
//! Warehouse queries take seconds, so the cache manager must never serialize
//! sessions behind one another's executions (paper §3).  The poll-based
//! engine ([`Watchman::try_get_or_execute_async`]) suspends waiting sessions as
//! futures instead of parking OS threads; *something* has to poll those
//! futures, and the build environment is offline (no tokio), so this module
//! provides the minimal executor the engine needs:
//!
//! * [`Runtime`] — a configurable pool of worker threads sharing one injector
//!   queue of tasks, plus a timer heap for [`Runtime::sleep`];
//! * [`Runtime::spawn`] — submits any `Future` and returns a [`JoinHandle`]
//!   (itself a future) for its output;
//! * [`block_on`] — drives any future to completion on the calling thread,
//!   parking between polls.  This is the bridge the synchronous engine entry
//!   points use: after a lock-and-`get` hit fast path, `get_or_execute`
//!   drives the lookup future with `block_on`, so a leader's fetch runs on
//!   the calling thread and never touches the worker pool.  It must not run
//!   on a worker: a debug build panics there.
//!
//! ## Scheduling model
//!
//! The ready set is **sharded**: each worker owns a local run queue (a FIFO
//! plus a one-slot LIFO) behind its own mutex, with a global injector for
//! submissions that carry no placement hint and randomized work stealing to
//! spread load (the data plane lives in `queue.rs`):
//!
//! * **Placement follows the wake.**  A wake performed *by* a worker lands
//!   in that worker's queue — in the LIFO slot when it wakes another task
//!   (a single-flight leader waking a follower hands it off while its state
//!   is cache-hot, subject to a streak cap so hand-off chains cannot starve
//!   the FIFO), or at the FIFO back when a task re-queues itself
//!   ([`yield_now`] keeps its everything-else-first meaning); IO readiness
//!   is delivered by a worker (below) and follows the same rule.  Wakes
//!   from outside the pool go to the queue of the worker that *last
//!   polled* the task, so a session keeps returning to the same core;
//!   fresh spawns with no history go to the injector.  With one worker this
//!   degenerates to the strict FIFO executor the deterministic tests rely on.
//! * **Stealing bounds imbalance.**  A worker with an empty local queue
//!   sweeps its siblings in xorshift-randomized order and takes half of the
//!   first non-empty FIFO it finds, then falls back to the injector; every
//!   61st pop services the injector first so remote submissions cannot
//!   starve behind local wake traffic.  An idle worker parks on its own
//!   permit (no shared condvar, no thundering herd); the
//!   register-idle → re-scan → park protocol that makes parking race-free
//!   is documented in `queue.rs`, asserted leaf-level in the lock-order
//!   graph, and model-checked by the checker's work-stealing model
//!   (`CONCURRENCY.md`).
//! * **IO readiness comes from the worker that goes idle.**  The first
//!   [`net::TcpListener`]/[`net::TcpStream`] registration lazily creates
//!   the reactor — one epoll instance, no thread.  From then on one idle
//!   worker at a time holds the *driver seat* and parks in `epoll_wait`
//!   instead of on its condvar (the cell and tick protocol is documented in
//!   `reactor.rs`, the seat in `queue.rs`, both in `CONCURRENCY.md`).  A
//!   readiness wake is a push onto the driver's own queue, so the session
//!   runs on the thread `epoll_wait` returned on: one wake-up per request.
//!   A worker that leaves the seat with something to run hands it to an
//!   idle sibling first, and a busy pool polls epoll without blocking every
//!   61st task, so readiness is never stuck behind a long poll or a full
//!   queue.  Idle connections cost two parked wakers each, not threads.
//! * **Blocking closures occupy a worker.**  The engine's fetch closures are
//!   *blocking* by design (they model multi-second warehouse scans), and a
//!   leader runs its fetch inside the poll that took leadership, so a task
//!   that leads occupies its worker for the fetch's duration.  Size the pool
//!   to the number of concurrent executions you want to allow, exactly like
//!   the paper sizes its multiprogramming level; waiting *sessions* cost
//!   nothing either way because they suspend instead of holding threads.
//!   Tasks queued behind a blocked worker do not wait for it — a sibling
//!   steals them.
//! * **Timers are best-effort.**  [`Sleep`] deadlines live in one global
//!   heap guarded by an atomic earliest-deadline mirror, so the per-pop
//!   check is a single load; workers fire due timers between tasks and park
//!   against the earliest deadline (in the seat, `epoll_wait`'s timeout
//!   rounds it up to a whole millisecond).  A pool whose every worker is
//!   stuck in a long blocking fetch fires timers late.  Fine for the
//!   engine's retry backoffs, unsuitable for high-resolution timing.
//! * **Shutdown is prompt, not graceful-drain.**  Dropping the [`Runtime`]
//!   (or calling [`Runtime::shutdown`] on a shared handle) grants every
//!   worker's park permit, stops polling, drops all
//!   pending tasks (their [`JoinHandle`]s resolve to
//!   [`JoinError::Cancelled`]) and joins the workers.  In-flight polls
//!   finish; suspended tasks never run again.  Callers that want a graceful
//!   drain (the networked server) signal their tasks first and call
//!   `shutdown` only after a grace period.
//!
//! [`Runtime::scheduler_stats`] exports steal/park counters so load tests
//! can assert the stealing actually engages.
//!
//! [`Watchman::try_get_or_execute_async`]: crate::engine::Watchman::try_get_or_execute_async

#![allow(
    clippy::disallowed_methods,
    reason = "the timer heap reads the raw clock"
)]

pub mod net;
pub(crate) mod queue;
pub(crate) mod reactor;
mod task;
mod timer;

pub use queue::QueueStats;
pub use task::{JoinError, JoinHandle};
pub use timer::Sleep;

use std::cell::Cell;
use std::collections::BinaryHeap;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use crate::sync::{Condvar, Mutex};

use queue::RunQueue;
use reactor::Reactor;
use task::{RunnableTask, TaskFuture};
use timer::TimerEntry;

thread_local! {
    /// Set on worker threads: this thread's worker index plus the address
    /// of the runtime it belongs to.  `schedule` uses it to route
    /// worker-origin wakes into the waking worker's own queue.
    static WORKER_CONTEXT: Cell<Option<(usize, *const ())>> = const { Cell::new(None) };
    /// The task this thread is polling right now (null between polls), so
    /// `schedule` can tell a self-wake (requeue at the FIFO back — yield
    /// semantics) from a wake of another task (LIFO hand-off).
    static POLLING_TASK: Cell<*const ()> = const { Cell::new(std::ptr::null()) };
}

/// The shared core of a [`Runtime`]; workers and task wakers hold it via
/// `Arc`/`Weak` so dropping the `Runtime` handle is what initiates shutdown.
pub(crate) struct RuntimeInner {
    /// The sharded, work-stealing ready set (see `queue.rs`).
    queue: RunQueue<Arc<RunnableTask>>,
    /// Pending [`Sleep`] registrations, earliest deadline first.  Guarded by
    /// its own mutex — never held together with any queue lock.
    timers: Mutex<BinaryHeap<TimerEntry>>,
    /// The earliest timer deadline, as nanoseconds since `epoch`
    /// (`u64::MAX` = no timers), so the worker loop's per-iteration timer
    /// check is one atomic load instead of a heap lock.
    next_timer: AtomicU64,
    /// The runtime's birth instant; anchors the nanosecond timestamps in
    /// `next_timer`.
    epoch: Instant,
    /// Every task ever spawned and possibly still alive (pruned lazily on
    /// spawn).  Shutdown must reach tasks that are suspended with their
    /// waker held *outside* the scheduler — neither the run queues nor the
    /// timer heap references those — so their `JoinHandle`s still resolve
    /// to [`JoinError::Cancelled`] instead of hanging forever.
    tasks: Mutex<Vec<Weak<RunnableTask>>>,
    /// Tasks spawned and not yet finished (completed, panicked or dropped).
    alive: AtomicUsize,
    /// Monotonic tie-breaker for timer-heap entries.
    timer_seq: AtomicUsize,
    /// Set first by [`Runtime::shutdown`], readable everywhere lock-free: a
    /// task polled *during* shutdown drops its future itself (poll
    /// epilogue), closing the race with the cancel sweep; workers exit once
    /// they observe it.
    shutdown: AtomicBool,
    /// The IO reactor, created by the first socket registration; from then
    /// on the worker that goes idle parks in it (`drive`).
    reactor: OnceLock<Arc<Reactor>>,
}

impl RuntimeInner {
    /// Whether shutdown has begun (lock-free; see the field docs).
    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Nanoseconds from the runtime's epoch to `instant`, saturating and
    /// reserving `u64::MAX` as the "no deadline" sentinel.
    fn nanos_since_epoch(&self, instant: Instant) -> u64 {
        let nanos = instant.saturating_duration_since(self.epoch).as_nanos();
        nanos.min(u128::from(u64::MAX - 1)) as u64
    }

    /// Enqueues a task for polling.  Called from task wakers; placement
    /// follows the wake (see the [module docs](self)).
    pub(crate) fn schedule(&self, task: Arc<RunnableTask>) {
        if self.is_shutting_down() {
            // Dropping the task here settles its JoinHandle to Cancelled via
            // TaskFuture's Drop if this was the last reference; otherwise
            // the shutdown cancel sweep reaches it through the registry.
            return;
        }
        let me = std::ptr::from_ref(self).cast::<()>();
        let worker = WORKER_CONTEXT
            .with(Cell::get)
            .and_then(|(index, owner)| (owner == me).then_some(index));
        match worker {
            Some(index) => {
                let self_wake = POLLING_TASK.with(Cell::get) == Arc::as_ptr(&task).cast::<()>();
                task.set_last_worker(index);
                if self_wake {
                    self.queue.push_local_fifo(index, task);
                } else {
                    self.queue.push_local_lifo(index, task);
                }
            }
            None => self.queue.push_remote(task.last_worker(), task),
        }
    }

    /// Registers a timer; the waker fires at (or shortly after) `deadline`.
    pub(crate) fn register_timer(&self, deadline: Instant, waker: Waker) {
        let seq = self.timer_seq.fetch_add(1, Ordering::Relaxed);
        let is_earliest = {
            let mut timers = self.timers.lock();
            if self.is_shutting_down() {
                // Resolve immediately rather than strand the sleeper: the
                // waker re-polls the task, which observes the shutdown.
                // (Checked under the timer lock so the entry cannot slip in
                // behind the shutdown sweep's heap clear.)
                drop(timers);
                waker.wake();
                return;
            }
            let is_earliest = timers
                .peek()
                .is_none_or(|earliest| deadline < earliest.deadline);
            timers.push(TimerEntry {
                deadline,
                seq,
                waker,
            });
            if is_earliest {
                self.next_timer
                    .store(self.nanos_since_epoch(deadline), Ordering::Release);
            }
            is_earliest
        };
        if is_earliest {
            // An idle worker may be parked against a later (or no) deadline;
            // wake one so it recomputes its park timeout.
            self.queue.unpark_one();
        }
    }

    /// Pops due timers and fires their wakers (outside the heap lock —
    /// waking re-enters `schedule`).  One atomic load when nothing is due.
    fn fire_due_timers(&self) {
        if self.nanos_since_epoch(Instant::now()) < self.next_timer.load(Ordering::Acquire) {
            return;
        }
        let due = {
            let mut timers = self.timers.lock();
            let now = Instant::now();
            let mut due = Vec::new();
            while timers.peek().is_some_and(|entry| entry.deadline <= now) {
                let entry = timers.pop().expect("peeked entry");
                // Timer-heap lag: how far past its deadline the timer fires.
                crate::telemetry::global()
                    .timer_lag_us
                    .record(now.saturating_duration_since(entry.deadline).as_micros() as u64);
                due.push(entry.waker);
            }
            let next = timers
                .peek()
                .map_or(u64::MAX, |entry| self.nanos_since_epoch(entry.deadline));
            self.next_timer.store(next, Ordering::Release);
            due
        };
        for waker in due {
            waker.wake();
        }
    }

    /// How long a parking worker may sleep before the earliest timer is due.
    fn park_timeout(&self) -> Option<Duration> {
        match self.next_timer.load(Ordering::Acquire) {
            u64::MAX => None,
            next => {
                let now = self.nanos_since_epoch(Instant::now());
                Some(Duration::from_nanos(next.saturating_sub(now)))
            }
        }
    }

    /// Polls `task` with this worker recorded as its placement hint and as
    /// the thread's current poll (self-wake detection).
    fn run_task(&self, index: usize, task: Arc<RunnableTask>) {
        task.set_last_worker(index);
        POLLING_TASK.with(|current| current.set(Arc::as_ptr(&task).cast::<()>()));
        task.run();
        POLLING_TASK.with(|current| current.set(std::ptr::null()));
    }

    /// One turn in the driver seat, if there is a reactor and nobody drives
    /// it: `index` sleeps in `epoll_wait` (up to `timeout`) instead of on
    /// its condvar.  See [`RunQueue::try_take_seat`] for the protocol.
    fn drive(&self, index: usize, timeout: Option<Duration>) -> bool {
        let Some(reactor) = self.reactor.get() else {
            return false;
        };
        if !self.queue.try_take_seat(index) {
            return false;
        }
        let awake = || self.queue.cancel_park(index);
        if self.queue.try_take_permit(index) {
            awake();
        } else {
            reactor.turn(timeout, awake);
        }
        self.queue.leave_seat(index);
        true
    }

    fn worker_loop(self: &Arc<Self>, index: usize) {
        WORKER_CONTEXT.with(|context| {
            context.set(Some((index, Arc::as_ptr(self).cast::<()>())));
        });
        let next = || self.queue.pop(index).or_else(|| self.queue.steal(index));
        // Whether this worker has just left the driver seat, and how many
        // tasks it has run.
        let mut drove = false;
        let mut polls = 0u32;
        loop {
            if self.is_shutting_down() {
                return;
            }
            // Fire due timers first so a busy run queue cannot starve the
            // timer heap indefinitely (one atomic load when nothing is due).
            self.fire_due_timers();
            let Some(task) = next().or_else(|| {
                // Going idle: register as a parking candidate FIRST, re-scan
                // SECOND — the order that makes the park race-free (a push
                // that missed the registration is seen by this re-scan; a
                // push that saw it grants the permit; see queue.rs).
                self.queue.prepare_park(index);
                let task = next();
                if task.is_some() || self.is_shutting_down() {
                    self.queue.cancel_park(index);
                } else {
                    drove = self.drive(index, self.park_timeout());
                    if !drove {
                        self.queue.park_wait(index, self.park_timeout());
                    }
                }
                task
            }) else {
                continue;
            };
            if std::mem::take(&mut drove) {
                // Out of the seat with work that may block: an idle sibling
                // takes it over, so readiness keeps flowing.
                self.queue.unpark_one();
            }
            polls += 1;
            let look = polls.is_multiple_of(queue::INJECTOR_INTERVAL);
            if look && self.drive(index, Some(Duration::ZERO)) {
                // That turn did not block: ready sockets must not starve
                // behind a queue that never empties.  A sibling that went
                // idle during it found the seat taken: send it back.
                self.queue.unpark_one();
            }
            self.run_task(index, task);
        }
    }
}

/// A hand-rolled multi-threaded executor (see the [module docs](self)).
///
/// Dropping the runtime shuts it down: workers are woken, pending tasks are
/// dropped (their [`JoinHandle`]s resolve to [`JoinError::Cancelled`]) and
/// the worker threads are joined.
///
/// ```
/// use watchman_core::runtime::{block_on, Runtime};
///
/// let runtime = Runtime::with_workers(2);
/// let handle = runtime.spawn(async { 6 * 7 });
/// assert_eq!(block_on(handle).unwrap(), 42);
/// ```
pub struct Runtime {
    inner: Arc<RuntimeInner>,
    /// Behind a mutex so [`Runtime::shutdown`] can join through `&self`
    /// (the runtime is shared via `Arc` between the engine and the server).
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// The configured pool size ([`Runtime::worker_count`] must stay
    /// meaningful after shutdown drains the join handles).
    worker_total: usize,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("workers", &self.worker_total)
            .field("alive_tasks", &self.alive_tasks())
            .finish()
    }
}

impl Runtime {
    /// Creates a runtime with one worker per available CPU core (clamped to
    /// at most 8 — the engine's fetches are disk-bound, not CPU-bound).
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
        Self::with_workers(workers)
    }

    /// Creates a runtime with exactly `workers` worker threads (at least 1).
    ///
    /// One worker yields a deterministic, strictly FIFO executor — useful for
    /// reproducible tests.  Each blocking fetch occupies a worker for its
    /// duration, so size the pool like a multiprogramming level.
    pub fn with_workers(workers: usize) -> Self {
        let worker_total = workers.max(1);
        let inner = Arc::new(RuntimeInner {
            queue: RunQueue::new(worker_total),
            timers: Mutex::new(BinaryHeap::new()),
            next_timer: AtomicU64::new(u64::MAX),
            epoch: Instant::now(),
            tasks: Mutex::new(Vec::new()),
            alive: AtomicUsize::new(0),
            timer_seq: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            reactor: OnceLock::new(),
        });
        let workers = (0..worker_total)
            .map(|index| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("watchman-runtime-{index}"))
                    .spawn(move || inner.worker_loop(index))
                    .expect("spawn runtime worker")
            })
            .collect();
        Runtime {
            inner,
            workers: Mutex::new(workers),
            worker_total,
        }
    }

    /// Submits a future for execution and returns a [`JoinHandle`] (itself a
    /// future) for its output.
    ///
    /// Dropping the handle detaches the task; it keeps running.  If the task
    /// panics, the panic is caught by the worker and surfaced through the
    /// handle as [`JoinError::Panicked`].
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let (task, handle) = TaskFuture::package(future, Arc::downgrade(&self.inner));
        self.inner.alive.fetch_add(1, Ordering::AcqRel);
        {
            let mut tasks = self.inner.tasks.lock();
            // Checked under the registry lock: either this registration
            // lands before shutdown's registry take (and the cancel sweep
            // reaches it), or the flag — stored before that take — is
            // visible here and the task is dropped instead of queued.
            if self.inner.is_shutting_down() {
                // Spawning after shutdown: drop the task instead of queueing
                // it into a scheduler that will never poll it.  TaskFuture's
                // drop settles the handle to Cancelled and decrements alive.
                drop(tasks);
                drop(task);
                return handle;
            }
            // Lazy pruning keeps the registry proportional to live tasks.
            if tasks.len() >= 32 && tasks.len() >= 2 * self.alive_tasks() {
                tasks.retain(|task| task.strong_count() > 0);
            }
            tasks.push(Arc::downgrade(&task));
        }
        self.inner.schedule(task);
        handle
    }

    /// Returns a future that resolves once `duration` has elapsed.
    ///
    /// Timers are checked by workers between tasks, so resolution is
    /// best-effort (see the module docs).  If the runtime shuts down first,
    /// the sleep resolves immediately so the sleeping task can observe the
    /// shutdown instead of being stranded.
    pub fn sleep(&self, duration: Duration) -> Sleep {
        Sleep::until(Arc::downgrade(&self.inner), Instant::now() + duration)
    }

    /// The number of spawned tasks that have not yet finished (completed,
    /// panicked, or been dropped at shutdown).  Suspended tasks count.
    pub fn alive_tasks(&self) -> usize {
        self.inner.alive.load(Ordering::Acquire)
    }

    /// The number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.worker_total
    }

    /// Scheduler counters: steals and parks since the runtime started.
    /// Load tests use this to assert work stealing actually engages.
    pub fn scheduler_stats(&self) -> QueueStats {
        self.inner.queue.stats()
    }

    /// Ready tasks currently queued across every worker queue and the
    /// injector (the scheduler backlog).  Sampled for the METRICS
    /// exposition; each queue lock is taken one at a time, so the value is
    /// a consistent-enough gauge, not an atomic snapshot.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.depth()
    }

    /// The runtime's IO reactor, created on first use.
    pub(crate) fn reactor(&self) -> std::io::Result<Arc<Reactor>> {
        if let Some(reactor) = self.inner.reactor.get() {
            return Ok(Arc::clone(reactor));
        }
        // Two first registrations may race (the loser's candidate drops);
        // the winner's closure runs before any worker can see the reactor,
        // so none is seated without a way to interrupt it.
        let candidate = Arc::new(Reactor::new()?);
        let reactor = Arc::clone(self.inner.reactor.get_or_init(|| {
            let waker = Waker::from(Arc::clone(&candidate));
            self.inner.queue.set_driver_waker(waker);
            candidate
        }));
        // Workers already parked on their condvars predate the reactor:
        // kick one so it re-parks in the seat.
        self.inner.queue.unpark_one();
        Ok(reactor)
    }

    /// Shuts the runtime down through a shared handle: wakes every worker,
    /// drops all pending tasks (their [`JoinHandle`]s
    /// resolve to [`JoinError::Cancelled`]) and joins the worker threads.
    ///
    /// Idempotent — later calls (including the one from `Drop`) are no-ops.
    /// This exists for callers that share the runtime via `Arc` (the server
    /// shares it with the engine) and need to force-cancel outstanding tasks
    /// without being the last owner.
    pub fn shutdown(&self) {
        // Atomic flag first: a task whose poll is in progress right now
        // observes it in its poll epilogue and drops its own future.
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Drop every queued task and pending timer now: JoinHandles observe
        // Cancelled (via the registry sweep below), and task futures release
        // whatever they captured.
        let drained = self.inner.queue.drain();
        let cleared_timers = std::mem::take(&mut *self.inner.timers.lock());
        self.inner.next_timer.store(u64::MAX, Ordering::Release);
        let tasks = std::mem::take(&mut *self.inner.tasks.lock());
        drop(drained);
        drop(cleared_timers);
        // Grant every park permit — parked, seated or mid-park, no worker
        // sleeps through the flag.
        self.inner.queue.unpark_all();
        // Cancel tasks suspended on *external* wakers too (the clears above
        // cannot reach them).  try_cancel never blocks: a task whose future
        // mutex is held is being polled at this instant — possibly by THIS
        // very thread, when the runtime's last reference is released inside
        // a task — and that poll's epilogue sees the shutdown flag and drops
        // the future itself.
        for task in &tasks {
            if let Some(task) = task.upgrade() {
                task.try_cancel();
            }
        }
        let current = std::thread::current().id();
        let workers = std::mem::take(&mut *self.workers.lock());
        for worker in workers {
            // If the last external reference to an engine (and with it this
            // runtime) is dropped *inside* a task, this drop runs on a worker
            // thread; joining it would deadlock on itself, so detach it.
            if worker.thread().id() != current {
                let _ = worker.join();
            }
        }
        // Second sweep, after the join: the first one may have lost a race
        // with a poll that started before the flag was set.  Every other
        // worker has exited now, so the only mutex try_cancel can still miss
        // is one held by a poll below us on this very stack — and that
        // poll's epilogue (same thread, flag already stored) cleans up.
        for task in tasks {
            if let Some(task) = task.upgrade() {
                task.try_cancel();
            }
        }
    }
}

impl Default for Runtime {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Drives `future` to completion on the calling thread, parking between
/// polls.
///
/// This is the bridge between the synchronous world and the poll-based
/// engine: it needs no runtime of its own (any inner `spawn`s use whatever
/// runtime created them), so it works for futures that are neither `Send`
/// nor `'static`.
///
/// It must not run on a runtime worker: a nested `block_on` parks the
/// worker's thread, and with one worker per core a handful of such tasks
/// deadlock the runtime.  Debug builds panic there.
///
/// ```
/// use watchman_core::runtime::block_on;
///
/// assert_eq!(block_on(async { 2 + 2 }), 4);
/// ```
pub fn block_on<F: Future>(future: F) -> F::Output {
    debug_assert!(
        WORKER_CONTEXT.get().is_none(),
        "block_on called on a runtime worker"
    );
    struct Parker {
        notified: Mutex<bool>,
        wakeup: Condvar,
    }
    impl std::task::Wake for Parker {
        fn wake(self: Arc<Self>) {
            self.wake_by_ref();
        }
        fn wake_by_ref(self: &Arc<Self>) {
            *self.notified.lock() = true;
            self.wakeup.notify_one();
        }
    }
    thread_local! {
        // One parker per thread, reused across calls: the synchronous engine
        // entry points block_on every lookup, and allocating a fresh waker
        // per hit would show up on the hot path.  Stale wakes from a
        // previous call at worst cause one spurious re-poll, which the loop
        // tolerates.
        static PARKER: Arc<Parker> = Arc::new(Parker {
            notified: Mutex::new(false),
            wakeup: Condvar::new(),
        });
    }
    PARKER.with(|parker| {
        let waker = Waker::from(Arc::clone(parker));
        let mut cx = Context::from_waker(&waker);
        let mut future = std::pin::pin!(future);
        loop {
            if let Poll::Ready(output) = future.as_mut().poll(&mut cx) {
                return output;
            }
            let mut notified = parker.notified.lock();
            while !*notified {
                notified = parker.wakeup.wait(notified);
            }
            *notified = false;
        }
    })
}

/// Yields once: returns `Pending` on the first poll (re-waking immediately)
/// and `Ready` on the second.  Lets cooperative tasks give the FIFO queue a
/// turn; also exercises re-scheduling in tests.
pub fn yield_now() -> impl Future<Output = ()> {
    struct YieldNow {
        yielded: bool,
    }
    impl Future for YieldNow {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if self.yielded {
                Poll::Ready(())
            } else {
                self.yielded = true;
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        }
    }
    YieldNow { yielded: false }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn block_on_drives_plain_futures() {
        assert_eq!(block_on(async { 1 + 2 }), 3);
        assert_eq!(block_on(yield_now()), ());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn block_on_panics_on_a_worker() {
        let runtime = Runtime::with_workers(1);
        let nested = runtime.spawn(async { block_on(async { 1 }) });
        assert!(matches!(block_on(nested), Err(JoinError::Panicked)));
    }

    #[test]
    fn spawned_tasks_complete_and_join() {
        let runtime = Runtime::with_workers(2);
        let handles: Vec<_> = (0..16u64)
            .map(|i| runtime.spawn(async move { i * i }))
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            assert_eq!(block_on(handle).unwrap(), (i * i) as u64);
        }
        assert_eq!(runtime.alive_tasks(), 0);
    }

    #[test]
    fn tasks_wake_across_threads() {
        // A task suspends on a hand-rolled one-shot signal completed from a
        // plain OS thread: the waker must carry across threads.
        struct Signal {
            fired: Mutex<Option<u64>>,
            waker: Mutex<Option<Waker>>,
        }
        struct WaitFor(Arc<Signal>);
        impl Future for WaitFor {
            type Output = u64;
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u64> {
                *self.0.waker.lock() = Some(cx.waker().clone());
                match *self.0.fired.lock() {
                    Some(value) => Poll::Ready(value),
                    None => Poll::Pending,
                }
            }
        }
        let runtime = Runtime::with_workers(1);
        let signal = Arc::new(Signal {
            fired: Mutex::new(None),
            waker: Mutex::new(None),
        });
        let handle = runtime.spawn(WaitFor(Arc::clone(&signal)));
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            *signal.fired.lock() = Some(7);
            if let Some(waker) = signal.waker.lock().take() {
                waker.wake();
            }
        });
        assert_eq!(block_on(handle).unwrap(), 7);
    }

    #[test]
    fn panicking_task_reports_through_its_handle_and_spares_the_worker() {
        let runtime = Runtime::with_workers(1);
        let doomed = runtime.spawn(async { panic!("fetch failed") });
        assert_eq!(block_on(doomed).unwrap_err(), JoinError::Panicked);
        // The single worker survived the panic and still runs tasks.
        let ok = runtime.spawn(async { "alive" });
        assert_eq!(block_on(ok).unwrap(), "alive");
    }

    #[test]
    fn an_idle_worker_steals_from_a_blocked_workers_queue() {
        const FOLLOWERS: usize = 8;
        let runtime = Arc::new(Runtime::with_workers(2));
        let runtime_for_task = Arc::clone(&runtime);
        // The flooder spawns followers from inside its own poll — they land
        // in its worker's local queue, not the injector — then wedges that
        // worker in a synchronous sleep.  The followers can only run before
        // the sleep ends if the other worker raids the blocked one's queue,
        // so joining them all proves the steal path and the stats pin it.
        let flooder = runtime.spawn(async move {
            let followers: Vec<_> = (0..FOLLOWERS)
                .map(|i| runtime_for_task.spawn(async move { i }))
                .collect();
            std::thread::sleep(Duration::from_millis(200));
            followers
        });
        let followers = block_on(flooder).unwrap();
        for (i, follower) in followers.into_iter().enumerate() {
            assert_eq!(block_on(follower).unwrap(), i);
        }
        let stats = runtime.scheduler_stats();
        assert!(
            stats.steals > 0,
            "the idle worker never stole from the blocked one: {stats:?}"
        );
    }

    #[test]
    fn sleep_orders_by_deadline() {
        let runtime = Arc::new(Runtime::with_workers(2));
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for (label, millis) in [("slow", 40u64), ("fast", 5), ("mid", 20)] {
            let order = Arc::clone(&order);
            let sleep = runtime.sleep(Duration::from_millis(millis));
            handles.push(runtime.spawn(async move {
                sleep.await;
                order.lock().push(label);
            }));
        }
        for handle in handles {
            block_on(handle).unwrap();
        }
        assert_eq!(*order.lock(), vec!["fast", "mid", "slow"]);
    }

    #[test]
    fn dropping_the_runtime_cancels_pending_tasks() {
        let runtime = Runtime::with_workers(1);
        // A task that sleeps far longer than the test: it must be cancelled,
        // not waited for.
        let sleep = runtime.sleep(Duration::from_secs(3600));
        let parked = runtime.spawn(async move {
            sleep.await;
            42
        });
        // Give the worker a moment to suspend the task on its timer.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(runtime.alive_tasks(), 1);
        drop(runtime);
        assert_eq!(block_on(parked).unwrap_err(), JoinError::Cancelled);
    }

    #[test]
    fn dropping_the_runtime_cancels_tasks_suspended_on_external_wakers() {
        // A task parked on a waker the scheduler does not own (no ready-queue
        // or timer-heap reference): shutdown must still cancel it, or its
        // JoinHandle would hang forever.
        struct Never(Arc<Mutex<Option<Waker>>>);
        impl Future for Never {
            type Output = u64;
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u64> {
                *self.0.lock() = Some(cx.waker().clone());
                Poll::Pending
            }
        }
        let runtime = Runtime::with_workers(1);
        let external = Arc::new(Mutex::new(None));
        let handle = runtime.spawn(Never(Arc::clone(&external)));
        // Wait until the task has suspended (its waker is parked outside).
        let deadline = Instant::now() + Duration::from_secs(5);
        while external.lock().is_none() {
            assert!(Instant::now() < deadline, "task never suspended");
            std::thread::yield_now();
        }
        drop(runtime);
        assert_eq!(block_on(handle).unwrap_err(), JoinError::Cancelled);
        // The externally held waker is now stale; waking it is harmless.
        external.lock().take().unwrap().wake();
    }

    #[test]
    fn dropping_a_join_handle_detaches_the_task() {
        let runtime = Runtime::with_workers(1);
        let ran = Arc::new(AtomicU64::new(0));
        {
            let ran = Arc::clone(&ran);
            drop(runtime.spawn(async move {
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
        // `alive` drops when the poll that ran the side effect returns, a
        // moment after the side effect is visible: wait for both.
        wait_until("the detached task ran and finished", || {
            ran.load(Ordering::SeqCst) == 1 && runtime.alive_tasks() == 0
        });
    }

    /// A connected loopback pair: `(client, server side)`.
    fn socket_pair() -> (std::net::TcpStream, std::net::TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = std::net::TcpStream::connect(listener.local_addr().expect("addr"));
        let (server_side, _) = listener.accept().expect("accept");
        (client.expect("connect"), server_side)
    }

    /// Spins until `condition` holds (5 s deadline).
    fn wait_until(what: &str, condition: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !condition() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::yield_now();
        }
    }

    /// Runs `body` on its own thread and fails if it has not returned after
    /// 5 s — for tests whose failure mode is a wake that never comes.
    fn within_deadline<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
        let (done, result) = std::sync::mpsc::channel();
        std::thread::spawn(move || done.send(body()));
        result
            .recv_timeout(Duration::from_secs(5))
            .expect("no wake-up arrived within 5 s")
    }

    /// A one-shot the test thread opens: the task parked on it is woken from
    /// outside the pool, so it is filed at — and calls up — its last worker.
    #[derive(Default)]
    struct Gate {
        open: AtomicBool,
        waker: Mutex<Option<Waker>>,
    }

    impl Gate {
        async fn wait(&self) {
            std::future::poll_fn(|cx| {
                *self.waker.lock() = Some(cx.waker().clone());
                match self.open.load(Ordering::SeqCst) {
                    true => Poll::Ready(()),
                    false => Poll::Pending,
                }
            })
            .await;
        }

        fn open(&self) {
            self.open.store(true, Ordering::SeqCst);
            if let Some(waker) = self.waker.lock().take() {
                waker.wake();
            }
        }
    }

    #[test]
    fn a_driver_called_away_to_blocking_work_hands_the_seat_over() {
        use std::io::Write;
        let runtime = Arc::new(Runtime::with_workers(2));
        let idle_and_seated = || runtime.inner.queue.all_parked(true);
        let (mut client, server_side) = socket_pair();
        let stream = net::TcpStream::from_std(&runtime, server_side).expect("register");
        let rounds = Arc::new(AtomicU64::new(0));
        let reader = {
            let rounds = Arc::clone(&rounds);
            runtime.spawn(async move {
                let mut byte = [0u8; 1];
                stream.read_exact(&mut byte).await.expect("first byte");
                rounds.store(1, Ordering::SeqCst);
                stream.read_exact(&mut byte).await.expect("second byte");
                Instant::now()
            })
        };
        client.write_all(&[1]).expect("send");
        wait_until("the reader is parked on its socket", || {
            rounds.load(Ordering::SeqCst) == 1 && idle_and_seated()
        });
        // Outside submissions call up the condvar sleeper before the driver
        // (it parked last).  Keep it busy, so the blocker-to-be is first
        // polled by the driver — which then returns to the seat, the
        // sibling to its condvar.
        let napping = Arc::new(AtomicBool::new(false));
        let nap = {
            let napping = Arc::clone(&napping);
            runtime.spawn(async move {
                napping.store(true, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(50));
            })
        };
        wait_until("the sibling naps", || napping.load(Ordering::SeqCst));
        let gate = Arc::new(Gate::default());
        let blocker = {
            let gate = Arc::clone(&gate);
            runtime.spawn(async move {
                gate.wait().await;
                std::thread::sleep(Duration::from_millis(200));
            })
        };
        wait_until("the blocker is parked on its gate", || {
            gate.waker.lock().is_some()
        });
        block_on(nap).expect("nap");
        wait_until("driver seated, sibling asleep", idle_and_seated);
        // The wake goes to the blocker's last worker: the driver.  It must
        // not take the seat along into its 200 ms of blocking.
        gate.open();
        std::thread::sleep(Duration::from_millis(10));
        let readable_at = Instant::now();
        client.write_all(&[2]).expect("send");
        let served_at = block_on(reader).expect("reader");
        let waited = served_at.saturating_duration_since(readable_at);
        assert!(
            waited < Duration::from_millis(100),
            "readiness sat {waited:?} behind the blocked ex-driver: the seat was left empty"
        );
        block_on(blocker).expect("blocker");
    }

    #[test]
    fn workers_parked_before_the_reactor_existed_serve_its_first_socket() {
        use std::io::Write;
        let runtime = Runtime::with_workers(2);
        wait_until("both workers parked on condvars", || {
            runtime.inner.queue.all_parked(false)
        });
        let (mut client, server_side) = socket_pair();
        // Registered and polled from outside the pool: nothing is spawned,
        // so only the reactor's own kick can put a worker in the seat.
        let stream = net::TcpStream::from_std(&runtime, server_side).expect("register");
        let mut byte = [0u8; 1];
        let parked = {
            let mut read = std::pin::pin!(stream.read(&mut byte));
            let mut cx = Context::from_waker(Waker::noop());
            read.as_mut().poll(&mut cx)
        };
        assert!(parked.is_pending(), "nothing to read yet");
        client.write_all(&[7]).expect("send");
        let read = within_deadline(move || {
            let mut byte = [0u8; 1];
            block_on(stream.read(&mut byte)).map(|n| (n, byte[0]))
        });
        assert_eq!(read.expect("read"), (1, 7));
    }

    #[test]
    fn a_seated_worker_fires_timers_within_the_millisecond_rounding() {
        let runtime = Arc::new(Runtime::with_workers(1));
        let _listener = net::TcpListener::bind(&runtime, "127.0.0.1:0").expect("bind");
        wait_until("the worker sits in the seat", || {
            runtime.inner.queue.all_parked(true)
        });
        let lag = within_deadline(move || {
            let sleep = runtime.sleep(Duration::from_millis(5));
            block_on(runtime.spawn(async move {
                let deadline = sleep.deadline();
                sleep.await;
                Instant::now().saturating_duration_since(deadline)
            }))
        });
        // epoll_wait's timeout is whole milliseconds, rounded up: at most
        // 1 ms late by design; the rest is slack for a loaded test box.
        let lag = lag.expect("sleeper");
        assert!(
            lag < Duration::from_millis(1 + 50),
            "timer fired {lag:?} late"
        );
    }

    #[test]
    fn a_worker_that_never_idles_still_looks_at_the_reactor() {
        use std::io::Write;
        let runtime = Runtime::with_workers(1);
        let (mut client, server_side) = socket_pair();
        let stream = net::TcpStream::from_std(&runtime, server_side).expect("register");
        let done = Arc::new(AtomicBool::new(false));
        // The spinner re-queues itself forever: the one worker never parks.
        let spinner = {
            let done = Arc::clone(&done);
            runtime.spawn(async move {
                while !done.load(Ordering::SeqCst) {
                    yield_now().await;
                }
            })
        };
        let reader = runtime.spawn(async move {
            let mut byte = [0u8; 1];
            stream.read_exact(&mut byte).await.expect("read");
            done.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(10));
        client.write_all(&[1]).expect("send");
        within_deadline(move || {
            block_on(reader).expect("reader");
            block_on(spinner).expect("spinner");
        });
    }

    #[test]
    fn single_worker_runs_tasks_fifo() {
        let runtime = Runtime::with_workers(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for i in 0..8 {
            let order = Arc::clone(&order);
            handles.push(runtime.spawn(async move {
                order.lock().push(i);
            }));
        }
        for handle in handles {
            block_on(handle).unwrap();
        }
        assert_eq!(*order.lock(), (0..8).collect::<Vec<_>>());
    }
}
