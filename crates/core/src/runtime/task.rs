//! Task plumbing: the schedulable unit, its waker, and [`JoinHandle`].
//!
//! A spawned future is boxed into a [`TaskFuture`] (which routes its output —
//! or its panic — into the [`JoinHandle`]'s shared slot) and wrapped in a
//! [`RunnableTask`], the `Arc` the scheduler queues and wakers point at.

use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::task::{Context, Poll, Wake, Waker};

use crate::sync::Mutex;

use super::RuntimeInner;

/// Why a [`JoinHandle`] resolved without its task's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinError {
    /// The task panicked; the worker caught the panic.
    Panicked,
    /// The runtime shut down (or the task was otherwise dropped) before the
    /// task completed.
    Cancelled,
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::Panicked => f.write_str("task panicked"),
            JoinError::Cancelled => f.write_str("task cancelled before completion"),
        }
    }
}

impl std::error::Error for JoinError {}

/// The slot a task's output travels through to its [`JoinHandle`].
struct JoinSlot<T> {
    result: Mutex<JoinSlotState<T>>,
}

enum JoinSlotState<T> {
    Pending(Option<Waker>),
    Ready(Result<T, JoinError>),
    Taken,
}

impl<T> JoinSlot<T> {
    /// Stores the task's result, unless one is already stored: completion
    /// wins over the `Drop`-reported cancellation that follows it.
    fn finish(&self, result: Result<T, JoinError>) {
        let mut slot = self.result.lock();
        if !matches!(&*slot, JoinSlotState::Pending(_)) {
            return;
        }
        let JoinSlotState::Pending(waker) =
            std::mem::replace(&mut *slot, JoinSlotState::Ready(result))
        else {
            unreachable!("checked Pending above");
        };
        drop(slot);
        if let Some(waker) = waker {
            waker.wake();
        }
    }
}

/// A future resolving to the output of a task spawned on a
/// [`Runtime`](super::Runtime).
///
/// Dropping the handle detaches the task (it keeps running).  Awaiting it
/// yields `Ok(output)`, or a [`JoinError`] if the task panicked or the
/// runtime shut down first.
pub struct JoinHandle<T> {
    slot: Arc<JoinSlot<T>>,
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle").finish_non_exhaustive()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = Result<T, JoinError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut slot = self.slot.result.lock();
        match &mut *slot {
            JoinSlotState::Pending(waker) => {
                *waker = Some(cx.waker().clone());
                Poll::Pending
            }
            state @ JoinSlotState::Ready(_) => {
                let JoinSlotState::Ready(result) = std::mem::replace(state, JoinSlotState::Taken)
                else {
                    unreachable!("matched Ready above");
                };
                Poll::Ready(result)
            }
            JoinSlotState::Taken => panic!("JoinHandle polled after completion"),
        }
    }
}

/// Wraps a spawned future: runs it under `catch_unwind`, routes the output
/// into the [`JoinSlot`], and — via its `Drop` — reports cancellation and
/// decrements the runtime's alive-task counter exactly once no matter how
/// the task ends.
pub(crate) struct TaskFuture<F: Future> {
    // Boxed so the wrapper is `Unpin` and polling needs no unsafe pin
    // projection (the crate forbids unsafe code).
    future: Pin<Box<F>>,
    slot: Arc<JoinSlot<F::Output>>,
    runtime: Weak<RuntimeInner>,
    /// Whether this task has already settled (result delivered, alive
    /// counter decremented).  Guards against the `Drop` that follows a
    /// completed poll double-decrementing.
    settled: bool,
}

impl<F: Future> TaskFuture<F> {
    /// Delivers the task's result exactly once.  The alive counter is
    /// decremented *before* the join slot resolves: a thread that returns
    /// from joining this task must never observe it still counted alive.
    fn settle(&mut self, result: Result<F::Output, JoinError>) {
        if self.settled {
            return;
        }
        self.settled = true;
        if let Some(runtime) = self.runtime.upgrade() {
            runtime.alive.fetch_sub(1, Ordering::AcqRel);
        }
        self.slot.finish(result);
    }
}

impl<F: Future> TaskFuture<F> {
    /// Boxes `future` into a schedulable task plus the join handle for its
    /// output.
    pub(crate) fn package(
        future: F,
        runtime: Weak<RuntimeInner>,
    ) -> (Arc<RunnableTask>, JoinHandle<F::Output>)
    where
        F: Send + 'static,
        F::Output: Send + 'static,
    {
        let slot = Arc::new(JoinSlot {
            result: Mutex::new(JoinSlotState::Pending(None)),
        });
        let task = TaskFuture {
            future: Box::pin(future),
            slot: Arc::clone(&slot),
            runtime: runtime.clone(),
            settled: false,
        };
        let runnable = Arc::new(RunnableTask {
            future: Mutex::new(Some(Box::pin(task))),
            queued: AtomicBool::new(true),
            runtime,
        });
        (runnable, JoinHandle { slot })
    }
}

impl<F: Future> Future for TaskFuture<F> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        // `Pin<Box<F>>` makes the wrapper `Unpin`, so plain projection works.
        let this = self.get_mut();
        let future = this.future.as_mut();
        match catch_unwind(AssertUnwindSafe(|| future.poll(cx))) {
            Ok(Poll::Pending) => Poll::Pending,
            Ok(Poll::Ready(output)) => {
                this.settle(Ok(output));
                Poll::Ready(())
            }
            Err(_panic) => {
                this.settle(Err(JoinError::Panicked));
                Poll::Ready(())
            }
        }
    }
}

impl<F: Future> Drop for TaskFuture<F> {
    fn drop(&mut self) {
        // If the task never settled it never completed: the runtime shut
        // down with the task queued or suspended.  `settle` is a no-op after
        // a completed poll already delivered the real result.
        self.settle(Err(JoinError::Cancelled));
    }
}

/// The unit the scheduler queues: a slot holding the boxed task future, plus
/// the wake bookkeeping.
pub(crate) struct RunnableTask {
    /// `None` once the task has completed (its future is dropped in place).
    future: Mutex<Option<Pin<Box<dyn Future<Output = ()> + Send>>>>,
    /// Whether the task currently sits in the ready queue; wakes while it is
    /// being polled re-queue it exactly once.
    queued: AtomicBool,
    runtime: Weak<RuntimeInner>,
}

impl RunnableTask {
    /// Polls the task once.  Called by workers with no scheduler lock held.
    pub(crate) fn run(self: Arc<Self>) {
        // Clear the queued flag *before* polling: a wake arriving during the
        // poll must re-queue the task or its readiness would be lost.
        self.queued.store(false, Ordering::Release);
        let waker = Waker::from(Arc::clone(&self));
        let mut cx = Context::from_waker(&waker);
        let mut slot = self.future.lock();
        let Some(future) = slot.as_mut() else {
            return; // completed earlier; a stale waker re-queued it
        };
        // Lock-held-across-poll check: the worker may hold the task's own
        // future-slot mutex (taken just above, hence the one exemption) but
        // nothing else — an engine lock pinned across a suspension point
        // would serialize every session sharing it behind this task.
        #[cfg(feature = "lock-graph")]
        crate::sync::note_task_poll(1);
        // TaskFuture::poll never unwinds (it catches user panics), so the
        // worker thread survives any task.  The poll is timed into the
        // per-task poll-duration histogram; polls that exceed the
        // cooperative budget also bump the long-poll counter (a task that
        // hogs its worker starves every peer behind it).
        let poll_start = crate::telemetry::now();
        let ready = future.as_mut().poll(&mut cx).is_ready();
        let poll_us = crate::telemetry::elapsed_us(poll_start);
        let telemetry = crate::telemetry::global();
        telemetry.task_poll_us.record(poll_us);
        if poll_us >= crate::telemetry::LONG_POLL_THRESHOLD_US {
            telemetry.long_polls.incr();
        }
        if ready {
            *slot = None;
        } else if self
            .runtime
            .upgrade()
            .is_none_or(|runtime| runtime.is_shutting_down())
        {
            // Shutdown began while this poll ran: the cancel sweep in
            // Runtime::drop could not take our future mutex (we hold it), so
            // drop the future here — its Drop reports Cancelled.
            *slot = None;
        }
    }

    /// Drops the task's future in place (runtime shutdown): its `Drop`
    /// reports [`JoinError::Cancelled`] through
    /// the join handle.  Never blocks — if the future mutex is held, the
    /// task is being polled right now and that poll's epilogue performs the
    /// cleanup itself (see [`RunnableTask::run`]); a no-op if the task
    /// already completed.
    pub(crate) fn try_cancel(&self) {
        if let Some(mut slot) = self.future.try_lock() {
            *slot = None;
        }
    }
}

impl Wake for RunnableTask {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if self.queued.swap(true, Ordering::AcqRel) {
            return; // already queued
        }
        if let Some(runtime) = self.runtime.upgrade() {
            runtime.schedule(Arc::clone(self));
        }
    }
}
