//! Sharded run queues with work stealing — the scheduler's data plane.
//!
//! One global injector queue under one mutex (the previous design) makes
//! every spawn, wake and pop serialize on the same cache line; at the
//! connection counts the server targets, workers spend more time queueing
//! than polling.  This module shards the ready set:
//!
//! * **One local queue per worker** — a FIFO [`VecDeque`] plus a one-slot
//!   LIFO — each behind its *own* mutex.  Wakes performed by a worker land
//!   in that worker's queue (the task's state is hot in that core's cache);
//!   the LIFO slot runs the most recently woken task next, which turns a
//!   leader-wakes-follower chain into a cache-friendly hand-off.  A streak
//!   cap bounds LIFO hand-offs so a ping-ponging pair cannot starve the
//!   FIFO behind it.
//! * **A global injector** for submissions with no usable worker hint
//!   (fresh spawns from non-worker threads).  Workers poll it when their
//!   local queue is empty and every [`INJECTOR_INTERVAL`]-th pop regardless,
//!   so remote submissions cannot starve behind a busy local queue.
//! * **Randomized stealing** — a worker that finds nothing locally sweeps
//!   the other workers' queues in xorshift-randomized order and takes half
//!   of a victim's FIFO in one lock hold (one victim lock at a time; queue
//!   locks stay leaves of the lock-order graph, see `CONCURRENCY.md`).
//! * **Permit parkers** — an idle worker parks on its own condvar, not a
//!   shared one, so a wake targets exactly one sleeper (no thundering
//!   herd).  The park protocol is the lost-wakeup-sensitive part and is
//!   verified by the checker's `WorkStealingQueueModel`; the invariant is
//!   documented on [`RunQueue::prepare_park`].
//! * **A driver seat** — once the runtime has an IO reactor, one idle
//!   worker at a time sleeps in its `epoll_wait` instead of on its condvar:
//!   same permit, different sleep ([`RunQueue::try_take_seat`]).
//!
//! The queue is generic over the item type so the checker can drive the
//! exact production code with plain integers (`RunQueue<u32>`) under its
//! controlled scheduler.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::task::Waker;
use std::time::Duration;

use crate::sync::{Condvar, Mutex};

/// Consecutive LIFO-slot hand-offs a worker may take before it must service
/// its FIFO (starvation bound for wake chains).
const LIFO_STREAK_CAP: u8 = 16;

/// Every this-many pops, a worker services the injector *before* its local
/// queue, so remote submissions cannot starve behind local wake traffic
/// (and, at the same cadence, looks at the reactor if nobody drives it).
pub(crate) const INJECTOR_INTERVAL: u32 = 61;

/// The worker-hint value meaning "no usable worker" (submit to the
/// injector).
pub(crate) const NO_WORKER: usize = usize::MAX;

/// One worker's private ready set.
struct LocalSlot<T> {
    /// The most recently woken task; runs next (subject to the streak cap).
    lifo: Option<T>,
    /// Ready tasks in wake order.
    fifo: VecDeque<T>,
    /// Consecutive pops served from the LIFO slot.
    lifo_streak: u8,
    /// Pop counter driving the injector-interval check.
    pops: u32,
}

impl<T> LocalSlot<T> {
    fn take(&mut self) -> Option<T> {
        if self.lifo.is_some() && self.lifo_streak < LIFO_STREAK_CAP {
            self.lifo_streak += 1;
            return self.lifo.take();
        }
        if let Some(item) = self.fifo.pop_front() {
            self.lifo_streak = 0;
            return Some(item);
        }
        self.lifo_streak = 0;
        self.lifo.take()
    }
}

/// One worker's parking place: a permit the unparker grants and the parker
/// consumes.  A permit granted before the park makes the park return
/// immediately — wakes are never lost to the gap between "decided to park"
/// and "parked".
struct Parker {
    permit: Mutex<bool>,
    wakeup: Condvar,
}

/// Counters the scheduler exports ([`super::Runtime::scheduler_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Successful steals (one per victim raid, not per task moved).
    pub steals: u64,
    /// Times a worker parked with nothing to run, or took the reactor's
    /// driver seat (a busy worker does, for a look, every 61st task).
    pub parks: u64,
}

/// The sharded, work-stealing ready set (see the [module docs](self)).
pub(crate) struct RunQueue<T> {
    locals: Vec<Mutex<LocalSlot<T>>>,
    injector: Mutex<VecDeque<T>>,
    /// Workers currently parked (or about to park), in park order.  The
    /// park protocol's ordering hinges on this lock — see
    /// [`RunQueue::prepare_park`].
    idle: Mutex<Vec<usize>>,
    parkers: Vec<Parker>,
    /// The worker in (or about to enter, or just out of) the reactor's
    /// `epoll_wait`; [`NO_WORKER`] when the seat is empty.
    seat: AtomicUsize,
    /// Interrupts the seated worker's `epoll_wait`; installed with the
    /// reactor, before any worker can be seated.
    driver_waker: OnceLock<Waker>,
    /// Per-worker xorshift state for randomized steal sweeps (atomics, so
    /// stealing needs no lock on the thief's own queue).
    rng: Vec<AtomicU64>,
    steals: AtomicU64,
    parks: AtomicU64,
}

impl<T> RunQueue<T> {
    pub(crate) fn new(workers: usize) -> Self {
        RunQueue {
            locals: (0..workers)
                .map(|_| {
                    Mutex::new(LocalSlot {
                        lifo: None,
                        fifo: VecDeque::new(),
                        lifo_streak: 0,
                        pops: 0,
                    })
                })
                .collect(),
            injector: Mutex::new(VecDeque::new()),
            idle: Mutex::new(Vec::with_capacity(workers)),
            parkers: (0..workers)
                .map(|_| Parker {
                    permit: Mutex::new(false),
                    wakeup: Condvar::new(),
                })
                .collect(),
            seat: AtomicUsize::new(NO_WORKER),
            driver_waker: OnceLock::new(),
            rng: (0..workers)
                .map(|index| AtomicU64::new(0x9E37_79B9_7F4A_7C15 ^ (index as u64 + 1)))
                .collect(),
            steals: AtomicU64::new(0),
            parks: AtomicU64::new(0),
        }
    }

    pub(crate) fn stats(&self) -> QueueStats {
        QueueStats {
            steals: self.steals.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
        }
    }

    /// Submits to the back of `worker`'s FIFO (a worker re-queueing the task
    /// it is currently polling — yield semantics: everything already queued
    /// runs first).
    pub(crate) fn push_local_fifo(&self, worker: usize, item: T) {
        self.locals[worker].lock().fifo.push_back(item);
        self.unpark_one();
    }

    /// Submits to `worker`'s LIFO slot (a worker waking *another* task: run
    /// it next, its state is hot).  A task already in the slot is demoted to
    /// the FIFO back.  The driver delivering into its own empty queue wakes
    /// nobody: it runs that task next itself (handing the seat to an idle
    /// sibling as it does); anything behind it is surplus for a sibling.
    pub(crate) fn push_local_lifo(&self, worker: usize, item: T) {
        let surplus = {
            let mut local = self.locals[worker].lock();
            let displaced = local.lifo.replace(item);
            local.fifo.extend(displaced);
            !local.fifo.is_empty()
        };
        if surplus || self.seat.load(Ordering::SeqCst) != worker {
            self.unpark_one();
        }
    }

    /// Submits from outside the worker pool (external threads, spawns):
    /// to `hint`'s FIFO when the task has run on a worker before
    /// ([`NO_WORKER`] otherwise → the injector), preferring to wake that
    /// same worker.
    pub(crate) fn push_remote(&self, hint: usize, item: T) {
        if hint < self.locals.len() {
            self.locals[hint].lock().fifo.push_back(item);
            self.unpark_preferring(hint);
        } else {
            self.injector.lock().push_back(item);
            self.unpark_one();
        }
    }

    /// Pops the next item for `worker`: LIFO slot (streak-capped), then
    /// FIFO, then the injector — except every [`INJECTOR_INTERVAL`]-th pop,
    /// when the injector is serviced first.
    pub(crate) fn pop(&self, worker: usize) -> Option<T> {
        let injector_first = {
            let mut local = self.locals[worker].lock();
            local.pops = local.pops.wrapping_add(1);
            let injector_first = local.pops.is_multiple_of(INJECTOR_INTERVAL);
            if !injector_first {
                if let Some(item) = local.take() {
                    return Some(item);
                }
            }
            injector_first
        };
        if let Some(item) = self.injector.lock().pop_front() {
            return Some(item);
        }
        if injector_first {
            return self.locals[worker].lock().take();
        }
        None
    }

    /// Raids the other workers' queues in xorshift-randomized order, taking
    /// half of the first non-empty victim's FIFO (and its LIFO slot if the
    /// FIFO is empty — a task must not strand behind a victim stuck in a
    /// blocking poll).  One victim lock at a time; the surplus is re-homed
    /// into the thief's own queue under a *separate*, later lock hold, so
    /// queue locks never nest.
    pub(crate) fn steal(&self, worker: usize) -> Option<T> {
        let n = self.locals.len();
        if n > 1 {
            let start = (self.next_random(worker) % n as u64) as usize;
            for sweep in 0..n {
                let victim = (start + sweep) % n;
                if victim == worker {
                    continue;
                }
                let mut loot: VecDeque<T> = {
                    let mut local = self.locals[victim].lock();
                    if local.fifo.is_empty() {
                        local.lifo.take().into_iter().collect()
                    } else {
                        let keep = local.fifo.len() / 2;
                        local.fifo.split_off(keep)
                    }
                };
                if let Some(first) = loot.pop_front() {
                    self.steals.fetch_add(1, Ordering::Relaxed);
                    if !loot.is_empty() {
                        self.locals[worker].lock().fifo.extend(loot);
                    }
                    return Some(first);
                }
            }
        }
        self.injector.lock().pop_front()
    }

    fn next_random(&self, worker: usize) -> u64 {
        // Per-worker xorshift64; single-threaded per slot, so a plain
        // load/store pair is enough.
        let mut x = self.rng[worker].load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng[worker].store(x, Ordering::Relaxed);
        x
    }

    /// Registers `worker` as idle.  **Protocol** (verified by the checker's
    /// `WorkStealingQueueModel`): a worker must `prepare_park`, then re-scan
    /// ([`pop`](Self::pop)/[`steal`](Self::steal)), and only then
    /// [`park_wait`](Self::park_wait); a producer pushes first and takes a
    /// worker off the idle list second.  The idle-list mutex orders the two
    /// sides: either the producer sees the worker idle (and grants its
    /// permit, so the park returns immediately), or the worker registered
    /// *after* the producer's push completed — and its re-scan, which
    /// happens after registration, observes the pushed item.  Either way
    /// the wake cannot be lost.
    pub(crate) fn prepare_park(&self, worker: usize) {
        let mut idle = self.idle.lock();
        if !idle.contains(&worker) {
            idle.push(worker);
        }
    }

    /// Deregisters `worker` after its post-registration re-scan found work.
    /// A permit granted in the meantime is left pending; it costs one
    /// spurious re-scan on the next park, never a lost wake.
    pub(crate) fn cancel_park(&self, worker: usize) {
        self.idle.lock().retain(|idle| *idle != worker);
    }

    /// Installs the waker that interrupts a seated worker (first call wins).
    pub(crate) fn set_driver_waker(&self, waker: Waker) {
        let _ = self.driver_waker.set(waker);
    }

    /// Claims the driver seat for `worker`, which has registered idle and
    /// re-scanned like any parking worker.  **Protocol** (`CONCURRENCY.md`;
    /// the checker's `DriverSeatModel`): seat FIRST, permit check
    /// ([`try_take_permit`](Self::try_take_permit)) SECOND, block in the
    /// reactor's turn only without one; [`unpark`](Self::unpark) grants the
    /// permit first and reads the seat second.  The permit mutex orders the
    /// two: either the worker sees the permit, or the unparker sees it seated
    /// and writes the wake pipe — whose byte stays readable, so it interrupts
    /// an `epoll_wait` not yet entered.  Counts as a park.
    pub(crate) fn try_take_seat(&self, worker: usize) -> bool {
        let seat = &self.seat;
        let taken = seat.compare_exchange(NO_WORKER, worker, Ordering::SeqCst, Ordering::SeqCst);
        if taken.is_ok() {
            self.parks.fetch_add(1, Ordering::Relaxed);
        }
        taken.is_ok()
    }

    /// Gives up the seat — after [`cancel_park`](Self::cancel_park) and the
    /// turn's deliveries, so no wake picks the thread performing it —
    /// consuming a permit granted meanwhile (the worker re-scans anyway).
    pub(crate) fn leave_seat(&self, worker: usize) {
        self.seat.store(NO_WORKER, Ordering::SeqCst);
        self.try_take_permit(worker);
    }

    /// Consumes `worker`'s pending permit without blocking, if one was
    /// granted: the seated worker's permit check (the checker's models also
    /// use it in place of the blocking [`park_wait`](Self::park_wait)).
    pub(crate) fn try_take_permit(&self, worker: usize) -> bool {
        let mut permit = self.parkers[worker].permit.lock();
        std::mem::replace(&mut *permit, false)
    }

    /// Whether `worker` has a pending permit (checker support: the model's
    /// producer mirrors real permit grants onto checker wake flags).
    pub(crate) fn has_permit(&self, worker: usize) -> bool {
        *self.parkers[worker].permit.lock()
    }

    /// Parks `worker` until a permit arrives or `timeout` expires (`None` =
    /// no deadline).  Returns whether a permit was consumed; on timeout the
    /// worker deregisters itself from the idle list.
    pub(crate) fn park_wait(&self, worker: usize, timeout: Option<Duration>) -> bool {
        self.parks.fetch_add(1, Ordering::Relaxed);
        let parker = &self.parkers[worker];
        let granted = {
            let mut permit = parker.permit.lock();
            match timeout {
                None => {
                    while !*permit {
                        permit = parker.wakeup.wait(permit);
                    }
                }
                Some(timeout) => {
                    // One timed wait; a spurious wake just re-scans early.
                    if !*permit {
                        permit = parker.wakeup.wait_timeout(permit, timeout).0;
                    }
                }
            }
            std::mem::replace(&mut *permit, false)
        };
        if !granted {
            // Timed out: the unpark path only grants permits to workers it
            // removed from the idle list, so deregister ourselves.
            self.cancel_park(worker);
        }
        granted
    }

    /// Grants `worker`'s permit and wakes it: out of the reactor's turn if
    /// it holds the driver seat, off its condvar otherwise.
    fn unpark(&self, worker: usize) {
        {
            let mut permit = self.parkers[worker].permit.lock();
            *permit = true;
        }
        if self.seat.load(Ordering::SeqCst) != worker {
            self.parkers[worker].wakeup.notify_one();
        } else if let Some(waker) = self.driver_waker.get() {
            waker.wake_by_ref();
        }
    }

    /// Wakes one idle worker, if any (also used by the timer path when a
    /// new earliest deadline needs a parked worker to recompute its
    /// timeout).
    pub(crate) fn unpark_one(&self) {
        self.unpark_preferring(NO_WORKER);
    }

    /// Wakes `worker` if it is idle, else any other idle worker.
    fn unpark_preferring(&self, worker: usize) {
        let target = {
            let mut idle = self.idle.lock();
            match idle.iter().position(|idle| *idle == worker) {
                Some(position) => Some(idle.remove(position)),
                None => idle.pop(),
            }
        };
        if let Some(worker) = target {
            self.unpark(worker);
        }
    }

    /// Grants every worker's permit, parked or not (shutdown: a worker
    /// between `prepare_park` and `park_wait` must not sleep through it).
    pub(crate) fn unpark_all(&self) {
        for worker in 0..self.parkers.len() {
            self.unpark(worker);
        }
    }

    /// Total ready items across every local queue and the injector — the
    /// scheduler's backlog gauge.  Exposition-only: each queue lock is taken
    /// one at a time (never nested), so the count is a consistent-enough
    /// sample, not an atomic snapshot.
    pub(crate) fn depth(&self) -> usize {
        let mut depth = 0;
        for local in &self.locals {
            let local = local.lock();
            depth += local.fifo.len() + usize::from(local.lifo.is_some());
        }
        depth + self.injector.lock().len()
    }

    /// Empties every queue, returning the drained items (shutdown).
    pub(crate) fn drain(&self) -> Vec<T> {
        let mut drained = Vec::new();
        for local in &self.locals {
            let mut local = local.lock();
            drained.extend(local.lifo.take());
            drained.extend(local.fifo.drain(..));
        }
        drained.extend(self.injector.lock().drain(..));
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T> RunQueue<T> {
        /// Whether every worker is registered idle, one of them in the
        /// driver seat iff `seated`.  The runtime's tests wait on this
        /// instead of sleeping.
        pub(crate) fn all_parked(&self, seated: bool) -> bool {
            let seat_taken = self.seat.load(Ordering::SeqCst) != NO_WORKER;
            self.idle.lock().len() == self.parkers.len() && seat_taken == seated
        }
    }

    #[test]
    fn pop_prefers_lifo_then_fifo_then_injector() {
        let queue: RunQueue<u32> = RunQueue::new(2);
        queue.push_remote(NO_WORKER, 3);
        queue.push_local_fifo(0, 2);
        queue.push_local_lifo(0, 1);
        assert_eq!(queue.pop(0), Some(1));
        assert_eq!(queue.pop(0), Some(2));
        assert_eq!(queue.pop(0), Some(3));
        assert_eq!(queue.pop(0), None);
    }

    #[test]
    fn lifo_streak_cap_lets_the_fifo_through() {
        let queue: RunQueue<u32> = RunQueue::new(1);
        queue.push_local_fifo(0, 999);
        for round in 0..u32::from(LIFO_STREAK_CAP) {
            queue.push_local_lifo(0, round);
            assert_eq!(queue.pop(0), Some(round), "hand-off below the cap");
        }
        // The cap is reached: the next pop must service the FIFO even
        // though the LIFO slot is occupied.
        queue.push_local_lifo(0, 1_000);
        assert_eq!(queue.pop(0), Some(999));
        assert_eq!(queue.pop(0), Some(1_000));
    }

    #[test]
    fn displaced_lifo_tasks_demote_to_the_fifo() {
        let queue: RunQueue<u32> = RunQueue::new(1);
        queue.push_local_lifo(0, 1);
        queue.push_local_lifo(0, 2);
        assert_eq!(queue.pop(0), Some(2), "most recent wake runs first");
        assert_eq!(queue.pop(0), Some(1), "displaced task survives in fifo");
    }

    #[test]
    fn injector_interval_services_remote_work_under_local_pressure() {
        let queue: RunQueue<u32> = RunQueue::new(1);
        queue.push_remote(NO_WORKER, 7_777);
        let mut served_remote = 0;
        for _ in 0..(2 * INJECTOR_INTERVAL) {
            queue.push_local_fifo(0, 1);
            if queue.pop(0) == Some(7_777) {
                served_remote += 1;
            }
        }
        assert_eq!(served_remote, 1, "the injector item broke through");
    }

    #[test]
    fn steal_takes_half_of_the_victims_fifo() {
        let queue: RunQueue<u32> = RunQueue::new(2);
        for item in 0..8 {
            queue.push_local_fifo(0, item);
        }
        let stolen = queue.steal(1).expect("victim had work");
        let stats = queue.stats();
        assert_eq!(stats.steals, 1);
        // The thief took the back half: one returned, the rest re-homed.
        let mut thief_side = vec![stolen];
        while let Some(item) = {
            let mut local = queue.locals[1].lock();
            local.fifo.pop_front()
        } {
            thief_side.push(item);
        }
        assert_eq!(thief_side, vec![4, 5, 6, 7]);
        // The victim keeps the front half in order.
        let mut victim_side = Vec::new();
        while let Some(item) = queue.pop(0) {
            victim_side.push(item);
        }
        assert_eq!(victim_side, vec![0, 1, 2, 3]);
    }

    #[test]
    fn permits_granted_before_the_park_are_not_lost() {
        let queue: RunQueue<u32> = RunQueue::new(1);
        queue.prepare_park(0);
        // The producer runs completely before the worker parks.
        queue.push_remote(NO_WORKER, 1);
        // The permit is pending, so the park returns immediately.
        assert!(queue.park_wait(0, None));
        assert_eq!(queue.pop(0), Some(1));
    }

    #[test]
    fn park_timeout_deregisters_the_worker() {
        let queue: RunQueue<u32> = RunQueue::new(1);
        queue.prepare_park(0);
        assert!(!queue.park_wait(0, Some(Duration::from_millis(1))));
        assert!(queue.idle.lock().is_empty(), "timed-out worker left idle");
        assert_eq!(queue.stats().parks, 1);
    }

    #[test]
    fn unparking_the_seated_worker_grants_its_permit_and_interrupts_its_turn() {
        struct CountWakes(AtomicUsize);
        impl std::task::Wake for CountWakes {
            fn wake(self: std::sync::Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let interrupts = std::sync::Arc::new(CountWakes(AtomicUsize::new(0)));
        let queue: RunQueue<u32> = RunQueue::new(2);
        queue.set_driver_waker(Waker::from(std::sync::Arc::clone(&interrupts)));

        queue.prepare_park(0);
        assert!(queue.try_take_seat(0));
        assert!(!queue.try_take_seat(1), "one driver at a time");
        assert!(
            !queue.try_take_permit(0),
            "nothing granted yet: block in the turn"
        );
        queue.push_remote(NO_WORKER, 5);
        assert_eq!(interrupts.0.load(Ordering::SeqCst), 1, "wake pipe written");

        // Awake and out of the seat, the permit consumed: the next
        // submission has nobody to wake and writes no pipe.
        queue.cancel_park(0);
        queue.leave_seat(0);
        assert!(queue.try_take_seat(1), "the seat is free again");
        assert!(!queue.has_permit(0));
        queue.push_remote(NO_WORKER, 6);
        assert_eq!(interrupts.0.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn the_driver_delivering_into_its_own_empty_slot_wakes_nobody() {
        let queue: RunQueue<u32> = RunQueue::new(2);
        queue.prepare_park(1);
        assert!(queue.try_take_seat(0));
        queue.push_local_lifo(0, 1);
        assert!(!queue.has_permit(1), "the driver runs that one itself");
        queue.push_local_lifo(0, 2);
        assert!(queue.has_permit(1), "a displaced task is surplus");
        // Out of the seat a worker's wakes unpark as ever.
        queue.leave_seat(0);
        assert!(queue.try_take_permit(1));
        queue.prepare_park(1);
        queue.push_local_lifo(0, 3);
        assert!(queue.has_permit(1));
    }

    #[test]
    fn unpark_preferring_wakes_the_hinted_worker() {
        let queue: RunQueue<u32> = RunQueue::new(3);
        queue.prepare_park(0);
        queue.prepare_park(2);
        queue.push_remote(2, 9);
        assert!(queue.try_take_permit(2), "the hinted worker got the permit");
        assert!(!queue.try_take_permit(0));
        assert_eq!(queue.pop(2), Some(9));
    }
}
