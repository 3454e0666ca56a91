//! The run queue: the scheduler's ready set and its park protocol.
//!
//! * **One FIFO** — every wake and spawn pushes to the back of one
//!   [`VecDeque`] under one mutex, and every worker pops from the front, so
//!   one worker runs tasks in exactly the order they became ready.  A task
//!   queued by a worker that then blocks in a fetch is simply popped by
//!   the next idle worker.
//! * **Permit parkers** — an idle worker parks on its own condvar, not a
//!   shared one, so a wake targets exactly one sleeper (no thundering
//!   herd).  The park protocol is the lost-wakeup-sensitive part and is
//!   verified by the checker's `RunQueueModel`; the invariant is
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

/// The seat value meaning "nobody drives the reactor".
const NO_WORKER: usize = usize::MAX;

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
    /// Times a worker parked with nothing to run, or took the reactor's
    /// driver seat (a busy worker does, for a look, every 61st task).
    pub parks: u64,
}

/// The shared FIFO ready set (see the [module docs](self)).
pub(crate) struct RunQueue<T> {
    ready: Mutex<VecDeque<T>>,
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
    parks: AtomicU64,
}

impl<T> RunQueue<T> {
    pub(crate) fn new(workers: usize) -> Self {
        RunQueue {
            ready: Mutex::new(VecDeque::new()),
            idle: Mutex::new(Vec::with_capacity(workers)),
            parkers: (0..workers)
                .map(|_| Parker {
                    permit: Mutex::new(false),
                    wakeup: Condvar::new(),
                })
                .collect(),
            seat: AtomicUsize::new(NO_WORKER),
            driver_waker: OnceLock::new(),
            parks: AtomicU64::new(0),
        }
    }

    pub(crate) fn stats(&self) -> QueueStats {
        QueueStats {
            parks: self.parks.load(Ordering::Relaxed),
        }
    }

    /// Submits `item` to the back of the queue and wakes one idle worker —
    /// unless `pusher` (the worker pushing, `None` from outside the pool)
    /// is the seated driver delivering into an empty queue: it runs that
    /// item next itself, handing the seat to an idle sibling as it does.
    pub(crate) fn push(&self, pusher: Option<usize>, item: T) {
        let was_empty = {
            let mut ready = self.ready.lock();
            ready.push_back(item);
            ready.len() == 1
        };
        if !was_empty || pusher.is_none_or(|worker| self.seat.load(Ordering::SeqCst) != worker) {
            self.unpark_one();
        }
    }

    /// Pops the oldest ready item.
    pub(crate) fn pop(&self) -> Option<T> {
        self.ready.lock().pop_front()
    }

    /// Registers `worker` as idle.  **Protocol** (verified by the checker's
    /// `RunQueueModel`): a worker must `prepare_park`, then re-scan
    /// ([`pop`](Self::pop)), and only then
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
    /// granted: the seated worker's permit check.
    pub(crate) fn try_take_permit(&self, worker: usize) -> bool {
        let mut permit = self.parkers[worker].permit.lock();
        std::mem::replace(&mut *permit, false)
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
        let target = self.idle.lock().pop();
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

    /// Ready items queued right now — the scheduler's backlog gauge.
    pub(crate) fn depth(&self) -> usize {
        self.ready.lock().len()
    }

    /// Empties the queue, returning the drained items (shutdown).
    pub(crate) fn drain(&self) -> Vec<T> {
        self.ready.lock().drain(..).collect()
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
    fn pop_takes_items_in_push_order() {
        let queue: RunQueue<u32> = RunQueue::new(2);
        queue.push(None, 1);
        queue.push(Some(0), 2);
        queue.push(Some(1), 3);
        queue.push(None, 4);
        assert_eq!(queue.depth(), 4);
        assert_eq!(queue.pop(), Some(1));
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.pop(), Some(3));
        assert_eq!(queue.pop(), Some(4));
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn permits_granted_before_the_park_are_not_lost() {
        let queue: RunQueue<u32> = RunQueue::new(1);
        queue.prepare_park(0);
        // The producer runs completely before the worker parks.
        queue.push(None, 1);
        // The permit is pending, so the park returns immediately.
        assert!(queue.park_wait(0, None));
        assert_eq!(queue.pop(), Some(1));
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
        queue.push(None, 5);
        assert_eq!(interrupts.0.load(Ordering::SeqCst), 1, "wake pipe written");

        // Awake and out of the seat, the permit consumed: the next
        // submission has nobody to wake and writes no pipe.
        queue.cancel_park(0);
        queue.leave_seat(0);
        assert!(queue.try_take_seat(1), "the seat is free again");
        assert!(!queue.try_take_permit(0));
        queue.push(None, 6);
        assert_eq!(interrupts.0.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn the_driver_delivering_into_its_own_empty_slot_wakes_nobody() {
        let queue: RunQueue<u32> = RunQueue::new(2);
        queue.prepare_park(1);
        assert!(queue.try_take_seat(0));
        queue.push(Some(0), 1);
        assert!(!queue.try_take_permit(1), "the driver runs that one itself");
        queue.push(Some(0), 2);
        assert!(queue.try_take_permit(1), "a second item is surplus");
        assert_eq!(queue.drain(), vec![1, 2]);
        // Into an empty queue, an outsider's push wakes a worker, and so
        // does a worker's once it is out of the seat.
        queue.prepare_park(1);
        queue.push(None, 3);
        assert!(queue.try_take_permit(1));
        assert_eq!(queue.pop(), Some(3));
        queue.leave_seat(0);
        queue.prepare_park(1);
        queue.push(Some(0), 4);
        assert!(queue.try_take_permit(1));
    }
}
