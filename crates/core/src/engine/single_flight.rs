//! Single-flight deduplication of concurrent cache misses, poll-based.
//!
//! When several sessions miss on the same query at once, only one of them —
//! the *leader* — should execute the warehouse query; the others wait for
//! the leader's result instead of issuing redundant multi-second scans.
//! [`Flight`] is the synchronization cell for one in-flight execution.  It
//! is a *future-style* cell: waiters suspend by registering a [`Waker`]
//! through [`Flight::poll_wait`] instead of blocking an OS thread on a
//! condvar, so thousands of coalesced sessions cost thousands of wakers, not
//! thousands of parked threads.  The engine makes a flight's cell only
//! when its first waiter joins: its key slot names the flight by an id,
//! and an uncontended leader never touches a cell.
//!
//! A flight has one leader from its start until it settles, and its cell
//! resolves once, waking **every** waiter, in one of three ways:
//!
//! * [`Flight::complete`] — the leader published its result, which every
//!   waiter shares;
//! * [`Flight::fail`] — the fetch failed terminally (an error, not a
//!   panic), and every waiter observes the same shared `Arc<FetchError>`:
//!   the leader already spent its whole retry budget on the query;
//! * [`Flight::abandon`] — the leader panicked or was dropped before its
//!   fetch had an outcome.  There is nothing to share, so each waiter looks
//!   the key up again: it hits if the leader's insert landed before the
//!   panic, and otherwise joins or leads a fresh flight.
//!
//! The engine retires a flight from its key's slot before it resolves the
//! cell, so a session that looks again never finds the resolved flight.
//! A waiter that gives up (drops its future) only deregisters through
//! [`Flight::forget_waiter`]; the flight stays its leader's to settle.

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
    /// The leader published its result.
    Done(Arc<V>, ExecutionCost),
    /// The leader's fetch failed terminally (error, not panic): retry
    /// budget exhausted or fatal error.  Every waiter shares the error.
    Failed(Arc<FetchError>),
    /// The leader panicked or was dropped before its fetch had an outcome.
    Abandoned,
}

impl<V> std::fmt::Debug for FlightState<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlightState::Pending { waiters } => f
                .debug_struct("Pending")
                .field("waiters", &waiters.len())
                .finish(),
            FlightState::Done(_, cost) => f.debug_tuple("Done").field(cost).finish(),
            FlightState::Failed(error) => f.debug_tuple("Failed").field(error).finish(),
            FlightState::Abandoned => f.write_str("Abandoned"),
        }
    }
}

/// What a waiter observes when its poll completes.
#[derive(Debug)]
pub enum FlightOutcome<V> {
    /// The leader produced this value at this cost.
    Done(Arc<V>, ExecutionCost),
    /// The leader's fetch failed terminally; every waiter observes this
    /// same shared error.
    Failed(Arc<FetchError>),
    /// The leader gave the flight up without an outcome: the waiter looks
    /// the key up again.
    Abandoned,
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
        self.resolve(FlightState::Done(value, cost));
    }

    /// Resolves the flight with a terminal fetch error and wakes every
    /// waiter; each observes the same shared error (and decides for itself
    /// whether a stale serve applies).
    pub fn fail(&self, error: Arc<FetchError>) {
        self.resolve(FlightState::Failed(error));
    }

    /// Resolves the flight as abandoned — its leader panicked or was
    /// dropped — and wakes every waiter to look its key up again.
    pub fn abandon(&self) {
        self.resolve(FlightState::Abandoned);
    }

    /// Moves a pending flight to the terminal `resolved` state and wakes
    /// every registered waiter.  A flight resolves once: resolving it again
    /// is a no-op, so a published result is never clawed back.
    fn resolve(&self, resolved: FlightState<V>) {
        let mut state = self.lock();
        let FlightState::Pending { waiters } = &mut *state else {
            return;
        };
        let waiters = std::mem::take(waiters);
        *state = resolved;
        drop(state);
        for (_, waker) in waiters {
            waker.wake();
        }
    }

    /// Polls the flight as a waiter.
    ///
    /// Returns the flight's outcome once it has resolved.  Otherwise
    /// registers (or refreshes) `slot`'s waker and suspends.
    pub fn poll_wait(&self, slot: &mut WaiterSlot, cx: &mut Context<'_>) -> Poll<FlightOutcome<V>> {
        let mut state = self.lock();
        let outcome = match &mut *state {
            FlightState::Done(value, cost) => FlightOutcome::Done(Arc::clone(value), *cost),
            FlightState::Failed(error) => FlightOutcome::Failed(Arc::clone(error)),
            FlightState::Abandoned => FlightOutcome::Abandoned,
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
                return Poll::Pending;
            }
        };
        // Resolving the flight consumed every registration.
        slot.id = None;
        Poll::Ready(outcome)
    }

    /// Removes a cancelled waiter's registration (its future was dropped
    /// before the flight resolved).
    pub fn forget_waiter(&self, slot: &mut WaiterSlot) {
        let Some(id) = slot.id.take() else {
            return;
        };
        if let FlightState::Pending { waiters } = &mut *self.lock() {
            waiters.retain(|(waiter, _)| *waiter != id);
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
    fn abandonment_wakes_every_waiter_and_is_terminal() {
        let flight: Flight<u64> = Flight::new();
        let wakes: Vec<_> = (0..4).map(|_| CountingWake::new()).collect();
        let mut slots: Vec<_> = wakes.iter().map(|w| register(&flight, w)).collect();

        flight.abandon();
        for wake in &wakes {
            assert_eq!(wake.count(), 1, "every waiter woken exactly once");
        }
        for (slot, wake) in slots.iter_mut().zip(&wakes) {
            let waker = Waker::from(Arc::clone(wake));
            let mut cx = Context::from_waker(&waker);
            assert!(matches!(
                flight.poll_wait(slot, &mut cx),
                Poll::Ready(FlightOutcome::Abandoned)
            ));
        }
        // Terminal: a later completion changes nothing, and a session
        // polling afterwards observes the abandonment too.
        flight.complete(Arc::new(7), ExecutionCost::from_blocks(1));
        assert!(!flight.is_done());
        let late = CountingWake::new();
        let waker = Waker::from(Arc::clone(&late));
        let mut cx = Context::from_waker(&waker);
        assert!(matches!(
            flight.poll_wait(&mut WaiterSlot::new(), &mut cx),
            Poll::Ready(FlightOutcome::Abandoned)
        ));
    }

    #[test]
    fn a_forgotten_waiter_is_not_woken() {
        let flight: Flight<u64> = Flight::new();
        let forgotten = CountingWake::new();
        let mut forgotten_slot = register(&flight, &forgotten);
        let loyal = CountingWake::new();
        let _loyal_slot = register(&flight, &loyal);

        flight.forget_waiter(&mut forgotten_slot);
        flight.complete(Arc::new(3), ExecutionCost::from_blocks(1));
        assert_eq!(forgotten.count(), 0, "a forgotten waiter is not woken");
        assert_eq!(loyal.count(), 1);
    }

    #[test]
    fn abandon_after_complete_is_a_no_op() {
        let flight: Flight<u64> = Flight::new();
        flight.complete(Arc::new(1), ExecutionCost::from_blocks(1));
        flight.abandon();
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
            assert_eq!(wake.count(), 1, "fail wakes everyone");
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
    }

    #[test]
    fn fail_after_complete_is_a_no_op() {
        let flight: Flight<u64> = Flight::new();
        flight.complete(Arc::new(42), ExecutionCost::from_blocks(1));
        flight.fail(Arc::new(FetchError::transient("late")));
        assert!(flight.is_done(), "a published result is never clawed back");
        // And the mirror image: a failed flight stays failed.
        let failed: Flight<u64> = Flight::new();
        failed.fail(Arc::new(FetchError::transient("down")));
        failed.complete(Arc::new(42), ExecutionCost::from_blocks(1));
        let mut slot = WaiterSlot::new();
        let wake = CountingWake::new();
        let waker = Waker::from(Arc::clone(&wake));
        let mut cx = Context::from_waker(&waker);
        assert!(matches!(
            failed.poll_wait(&mut slot, &mut cx),
            Poll::Ready(FlightOutcome::Failed(_))
        ));
    }
}
