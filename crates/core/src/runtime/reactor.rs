//! The IO reactor: an epoll-based readiness layer for the runtime.
//!
//! The classic readiness design (mio-shaped, hand-rolled because this build
//! environment has no crates.io): sockets are registered **edge-triggered**
//! with one epoll instance, and each registration carries a [`ReadyCell`] — a
//! small waker cell the IO futures in [`super::net`] park on.  There is no
//! reactor thread: the runtime worker that goes idle takes the **driver
//! seat** (`queue.rs`) and parks *in* [`Reactor::turn`] — one `epoll_wait`,
//! then delivery — so the thread that learns a socket is ready is the thread
//! that serves it.
//!
//! ## Wakeup protocol
//!
//! Edge-triggered epoll reports a file descriptor once per readiness
//! *transition*, so consuming code must drain until `WouldBlock` or record
//! that it did not.  The cell makes that race-free with a **tick** per
//! direction:
//!
//! 1. The IO future calls [`ReadyCell::poll_ready`].  If the direction is
//!    marked ready it gets the current tick; otherwise its waker is parked
//!    and it suspends.
//! 2. It attempts the non-blocking syscall.  Anything but `WouldBlock`
//!    resolves the future.
//! 3. On `WouldBlock` it calls [`ReadyCell::clear_ready`] *with the tick it
//!    observed*.  If a driver delivered a new event in the window between
//!    the syscall and the clear, the tick no longer matches, the clear is a
//!    no-op, and the loop retries the syscall instead of losing the edge.
//!
//! The driving worker's side is the mirror image: on an epoll event it
//! bumps the tick, marks the direction ready, and wakes the parked waker
//! **after** releasing the cell lock — into its own run queue, which wakes
//! no second thread for a task the driver runs next itself.  New
//! registrations start ready in both directions (the first syscall attempt
//! discovers the true state), which is what makes edge-triggered
//! registration sound: no event can be missed between `epoll_ctl(ADD)` and
//! the first poll.
//!
//! ## Locks
//!
//! Two lock classes, both leaves of the documented hierarchy
//! (`CONCURRENCY.md`), both taken on whichever worker is driving:
//!
//! * the **registration table** (`Reactor::registrations`), held only to
//!   insert/remove/clone-out a registration — never while a cell lock or
//!   any scheduler/engine lock is held, and dropped before the cell is
//!   touched on the event path;
//! * each **readiness cell** (`ReadyCell::state`), held only to flip
//!   ready bits and swap wakers; wakers are invoked after the guard drops,
//!   so the cell never nests into the scheduler lock.
//!
//! ## Shutdown and the deregistration race
//!
//! [`Registration::drop`] removes the token from the table *first*, then
//! issues `EPOLL_CTL_DEL`.  The driving worker may already have pulled an
//! event for that token and cloned the cell `Arc`: it will set readiness on
//! a cell whose registration is gone and wake a stale waker, which is
//! harmless by construction (waking a completed task is a no-op).  The
//! checker's deregister-while-ready model enumerates exactly this window.
//!
//! The seated worker is interrupted like any parked worker, through its
//! permit: `RunQueue::unpark` grants it and, seeing the seat held, writes a
//! byte into the wake pipe (token 0).  Runtime shutdown unparks every
//! worker, so nothing here needs stopping; the epoll fd closes with the
//! last `Arc<Reactor>` (runtime, registrations).

use std::collections::HashMap;
use std::io;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use crate::sync::Mutex;

/// The epoll FFI surface — the one place in the crate allowed to contain
/// unsafe code (`lib.rs` denies it everywhere else).  Bindings are declared
/// by hand against glibc symbols the standard library already links; the
/// wrappers below expose a fully safe API and every invariant the syscalls
/// need (valid fd, correctly sized event buffer) is enforced by the types.
#[allow(unsafe_code)]
mod sys {
    use std::ffi::c_int;
    use std::io;

    pub(super) const EPOLLIN: u32 = 0x001;
    pub(super) const EPOLLOUT: u32 = 0x004;
    pub(super) const EPOLLERR: u32 = 0x008;
    pub(super) const EPOLLHUP: u32 = 0x010;
    pub(super) const EPOLLRDHUP: u32 = 0x2000;
    pub(super) const EPOLLET: u32 = 1 << 31;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;

    /// `struct epoll_event`; packed on x86-64 (the kernel ABI carries the
    /// 64-bit payload unaligned there).
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub(super) struct EpollEvent {
        pub(super) events: u32,
        pub(super) data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// An owned epoll instance; closed on drop.
    pub(super) struct EpollFd(c_int);

    impl EpollFd {
        pub(super) fn create() -> io::Result<EpollFd> {
            // SAFETY: epoll_create1 takes no pointers; any flag value is
            // merely accepted or rejected by the kernel.
            cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) }).map(EpollFd)
        }

        pub(super) fn add(&self, fd: c_int, token: u64, interest: u32) -> io::Result<()> {
            let mut event = EpollEvent {
                events: interest,
                data: token,
            };
            // SAFETY: `event` is a live, correctly laid out epoll_event for
            // the duration of the call; the kernel copies it out.
            cvt(unsafe { epoll_ctl(self.0, EPOLL_CTL_ADD, fd, &mut event) }).map(|_| ())
        }

        pub(super) fn del(&self, fd: c_int) -> io::Result<()> {
            let mut event = EpollEvent { events: 0, data: 0 };
            // SAFETY: as in `add`; the event argument is ignored for DEL on
            // modern kernels but must still be a valid pointer for old ones.
            cvt(unsafe { epoll_ctl(self.0, EPOLL_CTL_DEL, fd, &mut event) }).map(|_| ())
        }

        /// Blocks until an event arrives or `timeout_ms` elapses (`-1` =
        /// no deadline); returns how many of `events` were filled.
        pub(super) fn wait(
            &self,
            events: &mut [EpollEvent],
            timeout_ms: c_int,
        ) -> io::Result<usize> {
            let capacity = c_int::try_from(events.len()).unwrap_or(c_int::MAX);
            // SAFETY: `events` is a live buffer of exactly `capacity`
            // epoll_event slots; the kernel writes at most that many.
            let filled =
                cvt(unsafe { epoll_wait(self.0, events.as_mut_ptr(), capacity, timeout_ms) })?;
            Ok(filled as usize)
        }
    }

    impl Drop for EpollFd {
        fn drop(&mut self) {
            // SAFETY: the fd is owned by this value and closed exactly once.
            unsafe {
                close(self.0);
            }
        }
    }
}

/// The readiness interest mask sockets are registered with: both directions
/// plus peer-shutdown, edge-triggered.
const INTEREST: u32 = sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP | sys::EPOLLET;

/// The wake pipe's reserved token.
const WAKE_TOKEN: u64 = 0;

/// Which direction of a [`ReadyCell`] an IO future is waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dir {
    /// Readable (also accept-ready for listeners).
    Read,
    /// Writable.
    Write,
}

/// One direction's readiness state.
#[derive(Default)]
struct Direction {
    /// Whether the fd is believed ready (true until a syscall proves
    /// otherwise — see the module docs on edge-triggered soundness).
    ready: bool,
    /// Bumped by every delivered event; [`ReadyCell::clear_ready`]
    /// only clears when the caller's observed tick still matches.
    tick: u64,
    /// The parked waker, if a future is suspended on this direction.
    waker: Option<Waker>,
}

struct ReadyState {
    read: Direction,
    write: Direction,
}

impl ReadyState {
    fn dir_mut(&mut self, dir: Dir) -> &mut Direction {
        match dir {
            Dir::Read => &mut self.read,
            Dir::Write => &mut self.write,
        }
    }
}

/// Per-registration readiness: ready bits, event ticks and parked wakers for
/// both directions.  A pure state machine over one internal mutex — no file
/// descriptors — so the checker can drive the registration-vs-deregistration
/// race against the real type.
pub(crate) struct ReadyCell {
    state: Mutex<ReadyState>,
}

impl ReadyCell {
    /// A fresh cell: both directions optimistically ready (the first
    /// syscall attempt discovers the true state).
    pub(crate) fn new() -> Self {
        let ready = || Direction {
            ready: true,
            ..Direction::default()
        };
        let (read, write) = (ready(), ready());
        ReadyCell {
            state: Mutex::new(ReadyState { read, write }),
        }
    }

    /// Resolves with the direction's current tick when it is marked ready;
    /// parks the task's waker otherwise.
    pub(crate) fn poll_ready(&self, dir: Dir, cx: &mut Context<'_>) -> Poll<u64> {
        let mut state = self.state.lock();
        let direction = state.dir_mut(dir);
        if direction.ready {
            Poll::Ready(direction.tick)
        } else {
            direction.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }

    /// Marks the direction not-ready after a `WouldBlock`, unless a newer
    /// event arrived since `tick` was observed (then the clear is a no-op
    /// and the caller's retry loop re-attempts the syscall).
    pub(crate) fn clear_ready(&self, dir: Dir, tick: u64) {
        let mut state = self.state.lock();
        let direction = state.dir_mut(dir);
        if direction.tick == tick {
            direction.ready = false;
        }
    }

    /// The driver's event delivery: bump ticks, set ready bits, and wake
    /// any parked wakers (strictly after the cell lock is released).
    pub(crate) fn set_ready(&self, readable: bool, writable: bool) {
        let deliver = |direction: &mut Direction| {
            direction.tick = direction.tick.wrapping_add(1);
            direction.ready = true;
            direction.waker.take()
        };
        let woken = {
            let mut state = self.state.lock();
            let read = readable.then(|| deliver(&mut state.read));
            [read, writable.then(|| deliver(&mut state.write))]
        };
        woken.into_iter().flatten().flatten().for_each(Waker::wake);
    }
}

/// The reactor: one epoll instance, a registration table, and a wake pipe.
/// Owned via `Arc` by the runtime and every live [`Registration`]; driven by
/// whichever worker holds the driver seat.
pub(crate) struct Reactor {
    epoll: sys::EpollFd,
    /// token → readiness cell.  See the module docs for the lock discipline.
    registrations: Mutex<HashMap<u64, Arc<ReadyCell>>>,
    /// Monotonic token source (token 0 is the wake pipe's).
    next_token: AtomicU64,
    /// Writing one byte brings the seated worker out of `epoll_wait`.
    wake_tx: io::PipeWriter,
    wake_rx: io::PipeReader,
}

impl Reactor {
    pub(crate) fn new() -> io::Result<Reactor> {
        let epoll = sys::EpollFd::create()?;
        let (wake_rx, wake_tx) = io::pipe()?;
        epoll.add(wake_rx.as_raw_fd(), WAKE_TOKEN, sys::EPOLLIN | sys::EPOLLET)?;
        Ok(Reactor {
            epoll,
            registrations: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(WAKE_TOKEN + 1),
            wake_tx,
            wake_rx,
        })
    }

    /// Registers `fd` (which must already be non-blocking) for
    /// edge-triggered readiness in both directions.
    pub(crate) fn register(self: &Arc<Self>, fd: i32) -> io::Result<Registration> {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let cell = Arc::new(ReadyCell::new());
        self.registrations.lock().insert(token, Arc::clone(&cell));
        if let Err(error) = self.epoll.add(fd, token, INTEREST) {
            self.registrations.lock().remove(&token);
            return Err(error);
        }
        Ok(Registration {
            reactor: Arc::clone(self),
            token,
            fd,
            cell,
        })
    }

    /// One driver turn, for the worker holding the driver seat from before
    /// the call until after it (so one thread at a time waits on the epoll
    /// fd and reads the wake pipe): a single `epoll_wait` bounded by
    /// `timeout` (rounded up to a millisecond; `None` = until an event or a
    /// wake), then `awake` — the driver leaving the idle list, so the wakes
    /// below cannot pick the thread that performs them — then delivery.
    pub(crate) fn turn(&self, timeout: Option<Duration>, awake: impl FnOnce()) {
        let timeout_ms = timeout.map_or(-1, |timeout| {
            i32::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX)
        });
        // EINTR, or an epoll fd gone bad: deliver nothing, the caller loops.
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 64];
        let filled = self.epoll.wait(&mut events, timeout_ms).unwrap_or(0);
        let events = &events[..filled];
        if events.iter().any(|event| event.data == WAKE_TOKEN) {
            // Only ever read from the seat: once it is free, bytes in the
            // pipe are the next driver's wake, and under edge-triggered
            // interest a byte read by the wrong thread is a wake the right
            // one never sees.  Partial drains are fine (every new write
            // re-fires, one wake serves any number of requests).
            let mut buf = [0u8; 64];
            let _ = io::Read::read(&mut (&self.wake_rx), &mut buf);
        }
        awake();
        if filled > 0 {
            // Per turn, not per event: the metric tells event-coalescing
            // efficiency (few wakeups, many events) from wakeup churn.
            crate::telemetry::global().reactor_wakeups.incr();
        }
        for event in events {
            // Copy out of the (possibly packed) struct before use.
            let bits = event.events;
            let token = event.data;
            // Clone out under the table lock, deliver after dropping it:
            // the two never nest.  (The wake token is in no table.)
            let cell = self.registrations.lock().get(&token).cloned();
            if let Some(cell) = cell {
                let closed = bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0;
                let readable = closed || bits & sys::EPOLLIN != 0;
                let writable = closed || bits & sys::EPOLLOUT != 0;
                cell.set_ready(readable, writable);
            }
        }
    }
}

/// Waking the reactor interrupts the seated worker's `epoll_wait`
/// (`RunQueue::unpark` holds it as the queue's driver waker).
impl Wake for Reactor {
    fn wake(self: Arc<Self>) {
        let _ = io::Write::write(&mut (&self.wake_tx), &[1]);
    }
}

/// A socket's registration with the reactor.  Dropping it deregisters the
/// fd: the table entry is removed first (so the reactor stops delivering),
/// then the epoll interest.  Must be dropped while the registered fd is
/// still open, which the `net` wrappers guarantee by field order.
pub(crate) struct Registration {
    reactor: Arc<Reactor>,
    token: u64,
    fd: i32,
    cell: Arc<ReadyCell>,
}

impl Registration {
    /// The tick protocol around one non-blocking syscall (see the module
    /// docs): attempt `op` while the cell says ready; on `WouldBlock` clear
    /// the observed tick and re-check, suspending if no event landed since.
    pub(crate) fn poll_io<T>(
        &self,
        dir: Dir,
        cx: &mut Context<'_>,
        mut op: impl FnMut() -> io::Result<T>,
    ) -> Poll<io::Result<T>> {
        loop {
            let tick = std::task::ready!(self.cell.poll_ready(dir, cx));
            match op() {
                Err(error) if error.kind() == io::ErrorKind::WouldBlock => {
                    self.cell.clear_ready(dir, tick);
                }
                Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
                result => return Poll::Ready(result),
            }
        }
    }

    /// The reactor this registration belongs to (accepted sockets register
    /// with their listener's reactor).
    pub(crate) fn reactor(&self) -> &Arc<Reactor> {
        &self.reactor
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        self.reactor.registrations.lock().remove(&self.token);
        // EPOLL_CTL_DEL can fail benignly (fd already closed elsewhere);
        // the kernel drops closed fds from interest lists on its own.
        let _ = self.reactor.epoll.del(self.fd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn count_waker(count: Arc<AtomicUsize>) -> Waker {
        struct CountWaker(Arc<AtomicUsize>);
        impl std::task::Wake for CountWaker {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        Waker::from(Arc::new(CountWaker(count)))
    }

    #[test]
    fn ready_cell_tick_protocol_never_loses_an_edge() {
        let cell = ReadyCell::new();
        let wakes = Arc::new(AtomicUsize::new(0));
        let waker = count_waker(Arc::clone(&wakes));
        let mut cx = Context::from_waker(&waker);

        // Fresh cells are optimistically ready.
        let Poll::Ready(tick) = cell.poll_ready(Dir::Read, &mut cx) else {
            panic!("fresh cell must be ready");
        };
        // Syscall returned WouldBlock; no event since: the clear sticks.
        cell.clear_ready(Dir::Read, tick);
        assert!(cell.poll_ready(Dir::Read, &mut cx).is_pending());

        // Event delivery marks ready and wakes the parked waker.
        cell.set_ready(true, false);
        assert_eq!(wakes.load(Ordering::SeqCst), 1);
        let Poll::Ready(tick) = cell.poll_ready(Dir::Read, &mut cx) else {
            panic!("cell must be ready after event");
        };

        // The race: an event lands between the syscall and the clear.  The
        // tick no longer matches, so the clear must NOT un-ready the cell.
        cell.set_ready(true, false);
        cell.clear_ready(Dir::Read, tick);
        assert!(
            cell.poll_ready(Dir::Read, &mut cx).is_ready(),
            "a stale clear must not cancel a newer event"
        );
    }

    #[test]
    fn ready_cell_directions_are_independent() {
        let cell = ReadyCell::new();
        let wakes = Arc::new(AtomicUsize::new(0));
        let waker = count_waker(Arc::clone(&wakes));
        let mut cx = Context::from_waker(&waker);

        let Poll::Ready(read_tick) = cell.poll_ready(Dir::Read, &mut cx) else {
            panic!("ready");
        };
        let Poll::Ready(write_tick) = cell.poll_ready(Dir::Write, &mut cx) else {
            panic!("ready");
        };
        cell.clear_ready(Dir::Read, read_tick);
        cell.clear_ready(Dir::Write, write_tick);
        assert!(cell.poll_ready(Dir::Read, &mut cx).is_pending());
        assert!(cell.poll_ready(Dir::Write, &mut cx).is_pending());

        // A write-only event wakes only the writer.
        cell.set_ready(false, true);
        assert_eq!(wakes.load(Ordering::SeqCst), 1);
        assert!(cell.poll_ready(Dir::Read, &mut cx).is_pending());
        assert!(cell.poll_ready(Dir::Write, &mut cx).is_ready());
    }

    #[test]
    fn a_turn_waits_its_timeout_delivers_readiness_and_hears_an_early_wake() {
        let reactor = Arc::new(Reactor::new().expect("reactor"));
        // Register a real fd (a pipe read end) and park a reader on it.
        let (rx, mut tx) = io::pipe().expect("pipe");
        let registration = reactor.register(rx.as_raw_fd()).expect("register");
        let wakes = Arc::new(AtomicUsize::new(0));
        let waker = count_waker(Arc::clone(&wakes));
        let mut cx = Context::from_waker(&waker);
        let Poll::Ready(tick) = registration.cell.poll_ready(Dir::Read, &mut cx) else {
            panic!("fresh cell must be ready");
        };
        registration.cell.clear_ready(Dir::Read, tick);
        assert!(registration
            .cell
            .poll_ready(Dir::Read, &mut cx)
            .is_pending());

        // Nothing readable: the turn returns on its (rounded-up) timeout.
        let started = std::time::Instant::now();
        reactor.turn(Some(Duration::from_micros(1_500)), || {});
        assert!(
            started.elapsed() >= Duration::from_millis(2),
            "1.5 ms rounds up"
        );
        assert_eq!(wakes.load(Ordering::SeqCst), 0);

        // Readable: the waker fires, strictly after `awake` ran.
        io::Write::write_all(&mut tx, b"x").expect("write");
        let wakes_at_awake = AtomicUsize::new(usize::MAX);
        reactor.turn(None, || {
            wakes_at_awake.store(wakes.load(Ordering::SeqCst), Ordering::SeqCst);
        });
        assert_eq!(wakes_at_awake.load(Ordering::SeqCst), 0);
        assert_eq!(wakes.load(Ordering::SeqCst), 1);

        // A wake written before the turn starts still interrupts it.
        Arc::clone(&reactor).wake();
        reactor.turn(None, || {});

        drop(registration);
        assert!(reactor.registrations.lock().is_empty());
    }
}
