//! Single-flight deduplication of concurrent cache misses, poll-based.
//!
//! When several sessions miss on the same query at once, only one of them —
//! the *leader* — should execute the warehouse query; the others wait for
//! the leader's result instead of issuing redundant multi-second scans.
//! [`Flight`] is the synchronization cell for one in-flight execution.  It
//! is a *future-style* cell: waiters suspend by registering a [`Waker`]
//! through [`Flight::poll_wait`] instead of blocking an OS thread on a
//! condvar, so thousands of coalesced sessions cost thousands of wakers, not
//! thousands of parked threads.
//!
//! ## The abandonment / takeover protocol
//!
//! If the leader's fetch panics the flight is [abandoned](Flight::abandon).
//! Abandonment wakes **exactly one** waiter — the takeover candidate — and
//! leaves the rest registered:
//!
//! * no thundering herd: one candidate re-executes; the others keep
//!   sleeping until the new leader completes the *same* flight cell;
//! * no lost wakeup: if the candidate is cancelled before it can take over
//!   (its future is dropped), [`Flight::forget_waiter`] wakes the next
//!   waiter in line; when the *last* waiter gives up (or none was
//!   registered at the failure), the engine retires the cell from its
//!   key's slot — panicking keys that are never re-requested must not leak
//!   cells — and the next arrival for the key starts a fresh flight.
//!
//! Takeover reuses the cell in place ([`Flight::poll_wait`] returns
//! [`FlightOutcome::TakeOver`] after atomically flipping the state back to
//! pending), so waiters registered before the failure never need to migrate
//! to a new cell.
//!
//! The leader runs its fetch inside its own poll, so a panicking fetch
//! unwinds out of the leader's session directly; the engine's guard on that
//! unwind is what abandons the cell.
//!
//! ## Errors are not panics
//!
//! A fetch that returns `Err` (the fallible pipeline) resolves the cell
//! *terminally* through [`Flight::fail`]: unlike abandonment, **every**
//! waiter is woken at once and observes the same shared
//! `Arc<FetchError>` — there is nothing to take over, because the leader
//! already spent its whole retry budget on the query.  The engine retires a
//! failed cell immediately, so the next reference to the key starts a fresh
//! flight (or is answered by the key's memoized failure).

use std::sync::Arc;

use crate::engine::failure::FetchError;

use crate::sync::{Mutex, MutexGuard};
use std::task::{Context, Poll, Waker};

use crate::value::ExecutionCost;

/// The observable state of one in-flight execution.
enum FlightState<V> {
    /// A leader is executing the query; waiters are registered by id.
    Pending {
        /// The suspended waiter sessions, in registration order.
        waiters: Vec<(u64, Waker)>,
    },
    /// The leader failed; one waiter has been woken to take over.
    Abandoned {
        /// Waiters still suspended, awaiting the takeover leader's result.
        waiters: Vec<(u64, Waker)>,
    },
    /// The leader published its result.
    Done(Arc<V>, ExecutionCost),
    /// The leader's fetch failed terminally (error, not panic): retry
    /// budget exhausted or fatal error.  Every waiter shares the error.
    Failed(Arc<FetchError>),
}

impl<V> std::fmt::Debug for FlightState<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlightState::Pending { waiters } => f
                .debug_struct("Pending")
                .field("waiters", &waiters.len())
                .finish(),
            FlightState::Abandoned { waiters } => f
                .debug_struct("Abandoned")
                .field("waiters", &waiters.len())
                .finish(),
            FlightState::Done(_, cost) => f.debug_tuple("Done").field(cost).finish(),
            FlightState::Failed(error) => f.debug_tuple("Failed").field(error).finish(),
        }
    }
}

/// What a waiter observes when its poll completes.
#[derive(Debug)]
pub enum FlightOutcome<V> {
    /// The leader produced this value at this cost.
    Done(Arc<V>, ExecutionCost),
    /// The previous leader failed and this waiter won the takeover race:
    /// the flight is pending again and the caller **is now the leader** —
    /// it must execute the query and complete (or abandon) this same cell.
    TakeOver,
    /// The leader's fetch failed terminally; every waiter observes this
    /// same shared error.  There is no takeover: the result does not exist.
    Failed(Arc<FetchError>),
}

/// A waiter's registration handle on a [`Flight`].
///
/// Create one per waiting session with [`WaiterSlot::new`]; pass it to every
/// [`Flight::poll_wait`] and hand it to [`Flight::forget_waiter`] if the
/// session gives up (drops its future) while the flight is unresolved.
#[derive(Debug, Default)]
pub struct WaiterSlot {
    id: Option<u64>,
}

impl WaiterSlot {
    /// A slot not yet registered on any flight.
    pub fn new() -> Self {
        WaiterSlot { id: None }
    }
}

/// The synchronization cell for one in-flight query execution.
pub struct Flight<V> {
    state: Mutex<FlightState<V>>,
    /// Monotonic waiter-id source.
    next_waiter: std::sync::atomic::AtomicU64,
}

impl<V> std::fmt::Debug for Flight<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Flight")
            .field("state", &*self.lock())
            .finish()
    }
}

impl<V> Flight<V> {
    /// Creates a pending flight with no registered waiters.
    pub fn new() -> Self {
        Flight {
            state: Mutex::new(FlightState::Pending {
                waiters: Vec::new(),
            }),
            next_waiter: std::sync::atomic::AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, FlightState<V>> {
        // The engine never panics while holding this lock (fetches run
        // outside it); the sync layer's poison recovery keeps waiters alive
        // even if that invariant is ever broken.
        self.state.lock()
    }

    /// Publishes the leader's result and wakes every waiter.
    pub fn complete(&self, value: Arc<V>, cost: ExecutionCost) {
        let mut state = self.lock();
        let previous = std::mem::replace(&mut *state, FlightState::Done(value, cost));
        drop(state);
        match previous {
            FlightState::Pending { waiters } | FlightState::Abandoned { waiters } => {
                for (_, waker) in waiters {
                    waker.wake();
                }
            }
            FlightState::Done(..) | FlightState::Failed(..) => {}
        }
    }

    /// Resolves the flight with a terminal fetch error, waking **every**
    /// waiter at once.  Unlike [`Flight::abandon`]
    /// there is no takeover candidate: the leader already exhausted its
    /// retry budget, so each waiter observes the same shared error (and
    /// decides for itself whether a stale serve applies).  The caller must
    /// retire the cell from its key's slot, exactly as it would after
    /// the last waiter of an abandoned cell gives up.
    ///
    /// Failing a completed (or already failed) flight is a no-op.
    pub fn fail(&self, error: Arc<FetchError>) {
        let mut state = self.lock();
        match &mut *state {
            FlightState::Pending { .. } | FlightState::Abandoned { .. } => {}
            FlightState::Done(..) | FlightState::Failed(..) => return,
        }
        let previous = std::mem::replace(&mut *state, FlightState::Failed(error));
        drop(state);
        match previous {
            FlightState::Pending { waiters } | FlightState::Abandoned { waiters } => {
                for (_, waker) in waiters {
                    waker.wake();
                }
            }
            FlightState::Done(..) | FlightState::Failed(..) => unreachable!("checked above"),
        }
    }

    /// Marks the flight as failed and wakes **exactly one** waiter to take
    /// over leadership.  Returns the number of waiters still registered after
    /// the wake — **including** the woken candidate's claim on the cell, so
    /// when it is zero (nobody waiting at all) the engine retires the cell
    /// from its key's slot instead of leaking it.
    ///
    /// Abandoning an already-abandoned flight wakes one more waiter (used
    /// when a takeover candidate is cancelled before it could lead); a
    /// completed flight is left untouched.
    pub fn abandon(&self) -> usize {
        let mut state = self.lock();
        match &mut *state {
            FlightState::Pending { waiters } => {
                let (invested, candidate) = pop_candidate(waiters);
                let waiters = std::mem::take(waiters);
                *state = FlightState::Abandoned { waiters };
                drop(state);
                if let Some(candidate) = candidate {
                    candidate.wake();
                }
                invested
            }
            FlightState::Abandoned { waiters } => {
                let (invested, candidate) = pop_candidate(waiters);
                drop(state);
                if let Some(candidate) = candidate {
                    candidate.wake();
                }
                invested
            }
            FlightState::Done(..) | FlightState::Failed(..) => 0,
        }
    }

    /// Polls the flight as a waiter.
    ///
    /// Returns [`FlightOutcome::Done`] once the leader completes, or
    /// [`FlightOutcome::TakeOver`] if the leader failed and this waiter is
    /// first to observe it — the state is atomically reset to pending and
    /// the caller becomes the new leader.  Otherwise registers (or refreshes)
    /// `slot`'s waker and suspends.
    pub fn poll_wait(&self, slot: &mut WaiterSlot, cx: &mut Context<'_>) -> Poll<FlightOutcome<V>> {
        let mut state = self.lock();
        match &mut *state {
            FlightState::Done(value, cost) => {
                let outcome = FlightOutcome::Done(Arc::clone(value), *cost);
                drop(state);
                self.deregister(slot);
                Poll::Ready(outcome)
            }
            FlightState::Failed(error) => {
                let outcome = FlightOutcome::Failed(Arc::clone(error));
                drop(state);
                self.deregister(slot);
                Poll::Ready(outcome)
            }
            FlightState::Abandoned { waiters } => {
                // First poller after the failure wins the takeover race; the
                // rest of the waiters stay registered on this same cell.
                if let Some(id) = slot.id.take() {
                    waiters.retain(|(waiter, _)| *waiter != id);
                }
                let waiters = std::mem::take(waiters);
                *state = FlightState::Pending { waiters };
                Poll::Ready(FlightOutcome::TakeOver)
            }
            FlightState::Pending { waiters } => {
                match slot.id {
                    Some(id) => {
                        if let Some(entry) = waiters.iter_mut().find(|(waiter, _)| *waiter == id) {
                            // Waker::clone_from skips the clone when both
                            // wakers would wake the same task.
                            entry.1.clone_from(cx.waker());
                        } else {
                            // Re-registering after a wake consumed the entry.
                            waiters.push((id, cx.waker().clone()));
                        }
                    }
                    None => {
                        let id = self
                            .next_waiter
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                            + 1;
                        slot.id = Some(id);
                        waiters.push((id, cx.waker().clone()));
                    }
                }
                Poll::Pending
            }
        }
    }

    /// Removes a cancelled waiter's registration (its future was dropped
    /// before the flight resolved).
    ///
    /// If the flight is currently abandoned, the cancelled waiter may have
    /// been the woken takeover candidate, so the next waiter in line is
    /// woken — at worst a spurious wake, never a lost takeover.  Returns
    /// `true` when the flight is abandoned with **no** waiter left to take
    /// it over: the caller (the engine) should then retire the cell from
    /// its key's slot so never-re-requested panicking keys do not
    /// accumulate dead cells.
    pub fn forget_waiter(&self, slot: &mut WaiterSlot) -> bool {
        let Some(id) = slot.id.take() else {
            return false;
        };
        let mut state = self.lock();
        match &mut *state {
            FlightState::Pending { waiters } => {
                waiters.retain(|(waiter, _)| *waiter != id);
                false
            }
            FlightState::Abandoned { waiters } => {
                waiters.retain(|(waiter, _)| *waiter != id);
                if waiters.is_empty() {
                    return true;
                }
                let candidate = waiters[0].1.clone();
                drop(state);
                candidate.wake();
                false
            }
            FlightState::Done(..) | FlightState::Failed(..) => false,
        }
    }

    fn deregister(&self, slot: &mut WaiterSlot) {
        if let Some(id) = slot.id.take() {
            let mut state = self.lock();
            if let FlightState::Pending { waiters } | FlightState::Abandoned { waiters } =
                &mut *state
            {
                waiters.retain(|(waiter, _)| *waiter != id);
            }
        }
    }

    /// Whether the flight has completed.
    #[cfg(test)]
    pub fn is_done(&self) -> bool {
        matches!(*self.lock(), FlightState::Done(..))
    }
}

impl<V> Default for Flight<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Pops the first registered waiter as the takeover candidate, FIFO.
/// Returns the number of waiters that were invested in the cell (the woken
/// candidate keeps its claim, so it counts) plus the candidate's waker.
fn pop_candidate(waiters: &mut Vec<(u64, Waker)>) -> (usize, Option<Waker>) {
    let invested = waiters.len();
    let candidate = if waiters.is_empty() {
        None
    } else {
        Some(waiters.remove(0).1)
    };
    (invested, candidate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::task::Wake;

    /// A waker that counts how many times it is woken.
    struct CountingWake {
        wakes: AtomicU64,
    }

    impl CountingWake {
        fn new() -> Arc<Self> {
            Arc::new(CountingWake {
                wakes: AtomicU64::new(0),
            })
        }

        fn count(&self) -> u64 {
            self.wakes.load(Ordering::SeqCst)
        }
    }

    impl Wake for CountingWake {
        fn wake(self: Arc<Self>) {
            self.wakes.fetch_add(1, Ordering::SeqCst);
        }
        fn wake_by_ref(self: &Arc<Self>) {
            self.wakes.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn register(flight: &Flight<u64>, wake: &Arc<CountingWake>) -> WaiterSlot {
        let waker = Waker::from(Arc::clone(wake));
        let mut cx = Context::from_waker(&waker);
        let mut slot = WaiterSlot::new();
        assert!(flight.poll_wait(&mut slot, &mut cx).is_pending());
        slot
    }

    #[test]
    fn complete_wakes_every_waiter_and_delivers_the_value() {
        let flight: Flight<u64> = Flight::new();
        let wakes: Vec<_> = (0..4).map(|_| CountingWake::new()).collect();
        let mut slots: Vec<_> = wakes.iter().map(|w| register(&flight, w)).collect();

        flight.complete(Arc::new(99), ExecutionCost::from_blocks(5));
        for wake in &wakes {
            assert_eq!(wake.count(), 1, "every waiter woken exactly once");
        }
        for (slot, wake) in slots.iter_mut().zip(&wakes) {
            let waker = Waker::from(Arc::clone(wake));
            let mut cx = Context::from_waker(&waker);
            match flight.poll_wait(slot, &mut cx) {
                Poll::Ready(FlightOutcome::Done(value, cost)) => {
                    assert_eq!(*value, 99);
                    assert_eq!(cost.value(), 5.0);
                }
                other => panic!("expected Done, got {other:?}"),
            }
        }
    }

    #[test]
    fn abandonment_wakes_exactly_one_waiter() {
        let flight: Flight<u64> = Flight::new();
        let wakes: Vec<_> = (0..5).map(|_| CountingWake::new()).collect();
        let _slots: Vec<_> = wakes.iter().map(|w| register(&flight, w)).collect();

        let invested = flight.abandon();
        assert_eq!(invested, 5, "all five waiters still have a claim");
        let woken: u64 = wakes.iter().map(|w| w.count()).sum();
        assert_eq!(woken, 1, "no thundering herd: exactly one waiter woken");
        // The candidate is the earliest registrant (FIFO).
        assert_eq!(wakes[0].count(), 1);
    }

    #[test]
    fn first_poller_after_abandonment_takes_over_and_the_rest_stay() {
        let flight: Flight<u64> = Flight::new();
        let candidate_wake = CountingWake::new();
        let bystander_wake = CountingWake::new();
        let mut candidate = register(&flight, &candidate_wake);
        let mut bystander = register(&flight, &bystander_wake);

        flight.abandon();
        let waker = Waker::from(Arc::clone(&candidate_wake));
        let mut cx = Context::from_waker(&waker);
        assert!(matches!(
            flight.poll_wait(&mut candidate, &mut cx),
            Poll::Ready(FlightOutcome::TakeOver)
        ));

        // The new leader completes the same cell; the bystander (never
        // re-registered, never woken in between) now observes Done.
        flight.complete(Arc::new(7), ExecutionCost::from_blocks(1));
        assert!(bystander_wake.count() >= 1, "bystander woken on completion");
        let waker = Waker::from(Arc::clone(&bystander_wake));
        let mut cx = Context::from_waker(&waker);
        assert!(matches!(
            flight.poll_wait(&mut bystander, &mut cx),
            Poll::Ready(FlightOutcome::Done(value, _)) if *value == 7
        ));
    }

    #[test]
    fn cancelled_candidate_hands_the_wake_to_the_next_waiter() {
        let flight: Flight<u64> = Flight::new();
        let first = CountingWake::new();
        let second = CountingWake::new();
        let mut first_slot = register(&flight, &first);
        let _second_slot = register(&flight, &second);

        flight.abandon();
        assert_eq!(first.count(), 1, "first waiter is the candidate");
        assert_eq!(second.count(), 0);

        // The candidate's session is cancelled before it could poll: its
        // future's drop handler forgets the registration, which must pass
        // the takeover wake along.
        flight.forget_waiter(&mut first_slot);
        assert_eq!(second.count(), 1, "next waiter woken — no lost wakeup");
    }

    #[test]
    fn abandon_after_complete_is_a_no_op() {
        let flight: Flight<u64> = Flight::new();
        flight.complete(Arc::new(1), ExecutionCost::from_blocks(1));
        assert_eq!(flight.abandon(), 0);
        assert!(flight.is_done());
    }

    #[test]
    fn fail_wakes_every_waiter_with_one_shared_error() {
        let flight: Flight<u64> = Flight::new();
        let wakes: Vec<_> = (0..4).map(|_| CountingWake::new()).collect();
        let mut slots: Vec<_> = wakes.iter().map(|w| register(&flight, w)).collect();

        let error = Arc::new(FetchError::transient("warehouse down"));
        flight.fail(Arc::clone(&error));
        for wake in &wakes {
            assert_eq!(wake.count(), 1, "unlike abandon, fail wakes everyone");
        }
        for (slot, wake) in slots.iter_mut().zip(&wakes) {
            let waker = Waker::from(Arc::clone(wake));
            let mut cx = Context::from_waker(&waker);
            match flight.poll_wait(slot, &mut cx) {
                Poll::Ready(FlightOutcome::Failed(observed)) => {
                    assert!(
                        Arc::ptr_eq(&observed, &error),
                        "the error is shared, not cloned"
                    );
                }
                other => panic!("expected Failed, got {other:?}"),
            }
        }
        // Terminal: no takeover, no further abandonment claims.
        assert_eq!(flight.abandon(), 0);
    }

    #[test]
    fn fail_after_complete_is_a_no_op() {
        let flight: Flight<u64> = Flight::new();
        flight.complete(Arc::new(42), ExecutionCost::from_blocks(1));
        flight.fail(Arc::new(FetchError::transient("late")));
        assert!(flight.is_done(), "a published result is never clawed back");
        // And the mirror image: completing a failed flight stays failed for
        // pollers that raced ahead (the engine retires failed cells, so in
        // practice nobody completes one).
        let failed: Flight<u64> = Flight::new();
        failed.fail(Arc::new(FetchError::transient("down")));
        let mut slot = WaiterSlot::new();
        let wake = CountingWake::new();
        let waker = Waker::from(Arc::clone(&wake));
        let mut cx = Context::from_waker(&waker);
        assert!(matches!(
            failed.poll_wait(&mut slot, &mut cx),
            Poll::Ready(FlightOutcome::Failed(_))
        ));
    }

    #[test]
    fn zero_waiter_abandonment_leaves_the_cell_takeover_able() {
        let flight: Flight<u64> = Flight::new();
        assert_eq!(flight.abandon(), 0);
        // A session arriving later joins the abandoned cell and immediately
        // becomes the new leader.
        let wake = CountingWake::new();
        let waker = Waker::from(Arc::clone(&wake));
        let mut cx = Context::from_waker(&waker);
        let mut slot = WaiterSlot::new();
        assert!(matches!(
            flight.poll_wait(&mut slot, &mut cx),
            Poll::Ready(FlightOutcome::TakeOver)
        ));
    }
}
