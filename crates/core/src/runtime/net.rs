//! Non-blocking TCP wrappers over the runtime's IO [reactor](super::reactor).
//!
//! [`TcpListener`] and [`TcpStream`] wrap their `std::net` counterparts in
//! non-blocking mode, registered edge-triggered with the owning runtime's
//! reactor.  Their `poll_*` methods follow the reactor's tick protocol
//! (`Registration::poll_io`), and the `async` convenience methods wrap those
//! polls so protocol code can be written as plain `async fn` state machines.
//!
//! A stream is driven by **one task at a time** per direction — the wrapper
//! stores a single waker per direction, exactly like the rest of this
//! runtime's primitives.  The networked front end's sessions are strictly
//! sequential (read a frame, serve it, write the response), so this is all
//! they need.
//!
//! Accepted sockets register with the listener's reactor; a stream created
//! from an arbitrary `std::net::TcpStream` (a client side, a test harness)
//! registers via [`TcpStream::from_std`] with any [`Runtime`].

use std::future::poll_fn;
use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{ready, Context, Poll};

use super::reactor::{Dir, Registration};
use super::Runtime;

/// What a [`FaultInjector`] wants done to one IO attempt on a stream.
///
/// Faults are applied at the `poll_read`/`poll_write` seam — below the
/// framing layer, above the socket — so an injected fault is
/// indistinguishable from the network actually misbehaving: a clamped read
/// delivers a torn frame, a reset surfaces as `ECONNRESET`, a stall parks
/// the task exactly like a peer that stopped sending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Perform the IO normally.
    Pass,
    /// Let at most this many bytes through on this attempt (minimum 1), so
    /// frames arrive torn across multiple reads/writes.
    Clamp(usize),
    /// Fail the attempt with [`io::ErrorKind::ConnectionReset`] and shut the
    /// socket down, as if the peer sent an RST.
    Reset,
    /// Park the attempt forever: return `Poll::Pending` without arming a
    /// waker.  The task only runs again if something else wakes it (e.g. a
    /// server-side read deadline evicting the session, or shutdown
    /// cancelling the task).
    Stall,
}

/// A deterministic fault source consulted on every IO attempt of a stream
/// it is installed on (via [`TcpStream::install_fault_injector`]).
///
/// `op` counts *completed* operations in that direction on that stream so
/// far, so a plan keyed on (connection, operation index) replays the same
/// fault schedule on every run regardless of poll spuriousness.
pub trait FaultInjector: Send + Sync {
    /// Consulted before each read attempt.
    fn on_read(&self, conn: u64, op: u64) -> FaultAction;
    /// Consulted before each write attempt.
    fn on_write(&self, conn: u64, op: u64) -> FaultAction;
}

/// Per-stream fault-injection state: the installed injector, the stream's
/// connection id under the injector's schedule, and completed-op counters
/// per direction.
struct FaultState {
    injector: Arc<dyn FaultInjector>,
    conn: u64,
    reads: AtomicU64,
    writes: AtomicU64,
}

impl FaultState {
    fn action(&self, dir: Dir) -> FaultAction {
        match dir {
            Dir::Read => self
                .injector
                .on_read(self.conn, self.reads.load(Ordering::Relaxed)),
            Dir::Write => self
                .injector
                .on_write(self.conn, self.writes.load(Ordering::Relaxed)),
        }
    }

    fn note_completed(&self, dir: Dir) {
        match dir {
            Dir::Read => self.reads.fetch_add(1, Ordering::Relaxed),
            Dir::Write => self.writes.fetch_add(1, Ordering::Relaxed),
        };
    }
}

/// The error an injected [`FaultAction::Reset`] surfaces as.
fn injected_reset() -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionReset, "injected connection reset")
}

/// A write that accepted nothing: the stream will never take the rest.
fn write_zero() -> io::Error {
    io::Error::new(io::ErrorKind::WriteZero, "stream refused further bytes")
}

/// Process-wide counters of the read/write syscalls issued through
/// [`TcpStream`], kept so benches can report *syscalls per frame* — the
/// number the buffered wire path exists to shrink.  Counts every attempt
/// (including ones that return `WouldBlock`), because each attempt is a real
/// kernel crossing.  Relaxed atomics: the counters are observational only.
pub mod stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    static READ_SYSCALLS: AtomicU64 = AtomicU64::new(0);
    static WRITE_SYSCALLS: AtomicU64 = AtomicU64::new(0);

    pub(super) fn note_read() {
        READ_SYSCALLS.fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn note_write() {
        WRITE_SYSCALLS.fetch_add(1, Ordering::Relaxed);
    }

    /// Total read (`recv`) syscalls attempted on any [`super::TcpStream`].
    pub fn read_syscalls() -> u64 {
        READ_SYSCALLS.load(Ordering::Relaxed)
    }

    /// Total write (`send`/`writev`) syscalls attempted on any
    /// [`super::TcpStream`].
    pub fn write_syscalls() -> u64 {
        WRITE_SYSCALLS.load(Ordering::Relaxed)
    }
}

/// A TCP listener whose `accept` is readiness-driven instead of blocking a
/// thread.
pub struct TcpListener {
    // Declared before the socket so deregistration runs while the fd is
    // still open (fields drop in declaration order).
    registration: Registration,
    std: std::net::TcpListener,
}

impl TcpListener {
    /// Binds a listener and registers it with `runtime`'s reactor (creating
    /// it on first use).
    pub fn bind(runtime: &Runtime, addr: &str) -> io::Result<TcpListener> {
        let std = std::net::TcpListener::bind(addr)?;
        std.set_nonblocking(true)?;
        let registration = runtime.reactor()?.register(std.as_raw_fd())?;
        Ok(TcpListener { registration, std })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.std.local_addr()
    }

    /// Polls for an inbound connection; the accepted stream is registered
    /// with the same reactor.
    pub fn poll_accept(&self, cx: &mut Context<'_>) -> Poll<io::Result<(TcpStream, SocketAddr)>> {
        let accept = || self.std.accept();
        let (stream, peer) = ready!(self.registration.poll_io(Dir::Read, cx, accept))?;
        let stream = TcpStream::register(self.registration.reactor(), stream)?;
        Poll::Ready(Ok((stream, peer)))
    }

    /// Accepts one inbound connection.
    pub async fn accept(&self) -> io::Result<(TcpStream, SocketAddr)> {
        poll_fn(|cx| self.poll_accept(cx)).await
    }
}

/// A non-blocking TCP stream driven by the reactor.
pub struct TcpStream {
    // Field order matters: deregister before the fd closes.
    registration: Registration,
    std: std::net::TcpStream,
    /// Installed fault injector, if any.  `None` (the default) leaves the
    /// hot path a single branch.
    fault: Option<FaultState>,
}

impl TcpStream {
    /// Converts a connected `std` stream (e.g. from a blocking
    /// `connect`) into a reactor-driven one.
    pub fn from_std(runtime: &Runtime, std: std::net::TcpStream) -> io::Result<TcpStream> {
        let reactor = runtime.reactor()?;
        Self::register(&reactor, std)
    }

    fn register(
        reactor: &std::sync::Arc<super::reactor::Reactor>,
        std: std::net::TcpStream,
    ) -> io::Result<TcpStream> {
        std.set_nonblocking(true)?;
        let registration = reactor.register(std.as_raw_fd())?;
        Ok(TcpStream {
            registration,
            std,
            fault: None,
        })
    }

    /// Installs a [`FaultInjector`] on this stream under connection id
    /// `conn`.  Every subsequent read/write attempt consults the injector
    /// first; see [`FaultAction`] for the menu.
    pub fn install_fault_injector(&mut self, injector: Arc<dyn FaultInjector>, conn: u64) {
        self.fault = Some(FaultState {
            injector,
            conn,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        });
    }

    /// Resolves the injected action for one attempt in `dir`: `Ok` is the
    /// byte budget the attempt may proceed with (`usize::MAX` unclamped);
    /// `Err` is what the poll returns instead — the `Reset`'s socket
    /// shutdown + error, or the `Stall`'s waker-less `Pending`.
    fn fault_gate<T>(&self, dir: Dir) -> Result<usize, Poll<io::Result<T>>> {
        match self.fault.as_ref().map(|state| state.action(dir)) {
            None | Some(FaultAction::Pass) => Ok(usize::MAX),
            Some(FaultAction::Clamp(limit)) => Ok(limit.max(1)),
            Some(FaultAction::Reset) => {
                let _ = self.std.shutdown(std::net::Shutdown::Both);
                Err(Poll::Ready(Err(injected_reset())))
            }
            Some(FaultAction::Stall) => Err(Poll::Pending),
        }
    }

    /// One non-blocking syscall under the reactor's tick protocol, counted
    /// in [`stats`] per attempt and in the fault schedule per completion.
    fn poll_io<T>(
        &self,
        dir: Dir,
        cx: &mut Context<'_>,
        mut op: impl FnMut(&std::net::TcpStream) -> io::Result<T>,
    ) -> Poll<io::Result<T>> {
        let attempt = || {
            match dir {
                Dir::Read => stats::note_read(),
                Dir::Write => stats::note_write(),
            }
            op(&self.std)
        };
        let result = ready!(self.registration.poll_io(dir, cx, attempt));
        if let (Ok(_), Some(state)) = (&result, &self.fault) {
            state.note_completed(dir);
        }
        Poll::Ready(result)
    }

    /// The peer's address.
    pub fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.std.peer_addr()
    }

    /// Disables (or re-enables) Nagle's algorithm.
    pub fn set_nodelay(&self, nodelay: bool) -> io::Result<()> {
        self.std.set_nodelay(nodelay)
    }

    /// Polls one non-blocking read into `buf`; `Ok(0)` is end-of-stream.
    pub fn poll_read(&self, cx: &mut Context<'_>, buf: &mut [u8]) -> Poll<io::Result<usize>> {
        let limit = match self.fault_gate(Dir::Read) {
            Ok(limit) => limit.min(buf.len()),
            Err(verdict) => return verdict,
        };
        self.poll_io(Dir::Read, cx, |mut std| std.read(&mut buf[..limit]))
    }

    /// Polls one non-blocking write of `buf`.
    pub fn poll_write(&self, cx: &mut Context<'_>, buf: &[u8]) -> Poll<io::Result<usize>> {
        let limit = match self.fault_gate(Dir::Write) {
            Ok(limit) => limit.min(buf.len()),
            Err(verdict) => return verdict,
        };
        self.poll_io(Dir::Write, cx, |mut std| std.write(&buf[..limit]))
    }

    /// Polls one non-blocking vectored write of `bufs` (a single `writev`
    /// syscall covering every slice the kernel accepts in one go).
    pub fn poll_write_vectored(
        &self,
        cx: &mut Context<'_>,
        bufs: &[io::IoSlice<'_>],
    ) -> Poll<io::Result<usize>> {
        match self.fault_gate(Dir::Write) {
            Ok(usize::MAX) => self.poll_io(Dir::Write, cx, |mut std| std.write_vectored(bufs)),
            // A clamped vectored write degrades to a plain clamped write of
            // the first non-empty slice — a short `writev` is already legal,
            // so the framing layer resumes from the torn byte exactly as it
            // would after a partial kernel write.  (The gate has run: going
            // through `poll_write` would consult it twice for one op.)
            Ok(limit) => {
                let first = bufs.iter().find(|buf| !buf.is_empty());
                let first = first.map_or(&[][..], |first| &first[..limit.min(first.len())]);
                self.poll_io(Dir::Write, cx, |mut std| std.write(first))
            }
            Err(verdict) => verdict,
        }
    }

    /// Writes some bytes from `bufs` with one `writev`; returns the count
    /// accepted (which may stop mid-slice).
    pub async fn write_vectored(&self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        poll_fn(|cx| self.poll_write_vectored(cx, bufs)).await
    }

    /// Reads some bytes into `buf`; resolves with 0 at end-of-stream.
    pub async fn read(&self, buf: &mut [u8]) -> io::Result<usize> {
        poll_fn(|cx| self.poll_read(cx, buf)).await
    }

    /// Fills `buf` completely, failing with [`io::ErrorKind::UnexpectedEof`]
    /// if the stream ends first.
    pub async fn read_exact(&self, buf: &mut [u8]) -> io::Result<()> {
        let mut filled = 0;
        while filled < buf.len() {
            match self.read(&mut buf[filled..]).await? {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "stream closed mid-read",
                    ))
                }
                n => filled += n,
            }
        }
        Ok(())
    }

    /// Writes all of `buf`.
    pub async fn write_all(&self, buf: &[u8]) -> io::Result<()> {
        let mut written = 0;
        while written < buf.len() {
            match poll_fn(|cx| self.poll_write(cx, &buf[written..])).await? {
                0 => return Err(write_zero()),
                n => written += n,
            }
        }
        Ok(())
    }

    /// Writes all of `bufs`, coalescing as many slices per `writev` as the
    /// kernel will take.  Short writes resume from the first unwritten byte.
    pub async fn write_all_vectored(&self, bufs: &[&[u8]]) -> io::Result<()> {
        let total: usize = bufs.iter().map(|buf| buf.len()).sum();
        let mut written = 0usize;
        while written < total {
            // Rebuild the slice list from the first unwritten byte: a short
            // writev may have stopped mid-slice.
            let mut skip = written;
            let mut slices = Vec::with_capacity(bufs.len());
            for buf in bufs {
                if skip >= buf.len() {
                    skip -= buf.len();
                    continue;
                }
                slices.push(io::IoSlice::new(&buf[skip..]));
                skip = 0;
            }
            match self.write_vectored(&slices).await? {
                0 => return Err(write_zero()),
                n => written += n,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::block_on;
    use std::sync::Arc;

    #[test]
    fn async_accept_read_write_round_trip() {
        let runtime = Runtime::with_workers(2);
        let listener = TcpListener::bind(&runtime, "127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");

        // Server task: accept one connection, echo 4 bytes doubled.
        let server = runtime.spawn(async move {
            let (stream, _peer) = listener.accept().await.expect("accept");
            let mut buf = [0u8; 4];
            stream.read_exact(&mut buf).await.expect("read");
            let doubled: Vec<u8> = buf.iter().map(|b| b * 2).collect();
            stream.write_all(&doubled).await.expect("write");
        });

        // Client side: a *blocking* std stream is enough to drive it.
        let mut client = std::net::TcpStream::connect(addr).expect("connect");
        client.write_all(&[1, 2, 3, 4]).expect("send");
        let mut echoed = [0u8; 4];
        client.read_exact(&mut echoed).expect("recv");
        assert_eq!(echoed, [2, 4, 6, 8]);
        block_on(server).expect("server task");
    }

    #[test]
    fn vectored_write_delivers_every_slice_in_order() {
        let runtime = Runtime::with_workers(1);
        let listener = TcpListener::bind(&runtime, "127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        // Three uneven slices, including an empty one, pushed with a single
        // write_all_vectored call; the blocking client must see the exact
        // concatenation.
        let server = runtime.spawn(async move {
            let (stream, _peer) = listener.accept().await.expect("accept");
            let big = vec![7u8; 9000];
            let slices: [&[u8]; 4] = [b"head", &[], &big, b"tail"];
            stream.write_all_vectored(&slices).await.expect("writev");
        });
        let mut client = std::net::TcpStream::connect(addr).expect("connect");
        let mut received = Vec::new();
        client.read_to_end(&mut received).expect("recv");
        let mut expected = b"head".to_vec();
        expected.extend(std::iter::repeat_n(7u8, 9000));
        expected.extend_from_slice(b"tail");
        assert_eq!(received, expected);
        block_on(server).expect("server task");
    }

    #[test]
    fn syscall_counters_advance_with_traffic() {
        let reads_before = stats::read_syscalls();
        let writes_before = stats::write_syscalls();
        let runtime = Runtime::with_workers(1);
        let listener = TcpListener::bind(&runtime, "127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = runtime.spawn(async move {
            let (stream, _peer) = listener.accept().await.expect("accept");
            let mut buf = [0u8; 4];
            stream.read_exact(&mut buf).await.expect("read");
            stream.write_all(&buf).await.expect("write");
        });
        let mut client = std::net::TcpStream::connect(addr).expect("connect");
        client.write_all(&[9, 9, 9, 9]).expect("send");
        let mut echoed = [0u8; 4];
        client.read_exact(&mut echoed).expect("recv");
        block_on(server).expect("server task");
        assert!(stats::read_syscalls() > reads_before);
        assert!(stats::write_syscalls() > writes_before);
    }

    #[test]
    fn read_resolves_zero_on_peer_close() {
        let runtime = Runtime::with_workers(1);
        let listener = TcpListener::bind(&runtime, "127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = runtime.spawn(async move {
            let (stream, _) = listener.accept().await.expect("accept");
            let mut buf = [0u8; 16];
            stream.read(&mut buf).await.expect("read")
        });
        let client = std::net::TcpStream::connect(addr).expect("connect");
        drop(client); // immediate close: the async read must observe EOF
        assert_eq!(block_on(server).expect("server task"), 0);
    }

    #[test]
    fn fault_injector_clamps_and_resets_deterministically() {
        use std::io::Write as _;

        /// Clamps the first `clamp_ops` reads to one byte, then resets.
        struct Plan {
            clamp_ops: u64,
        }
        impl FaultInjector for Plan {
            fn on_read(&self, _conn: u64, op: u64) -> FaultAction {
                if op < self.clamp_ops {
                    FaultAction::Clamp(1)
                } else {
                    FaultAction::Reset
                }
            }
            fn on_write(&self, _conn: u64, _op: u64) -> FaultAction {
                FaultAction::Pass
            }
        }

        let runtime = Runtime::with_workers(1);
        let listener = TcpListener::bind(&runtime, "127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = runtime.spawn(async move {
            let (mut stream, _) = listener.accept().await.expect("accept");
            stream.install_fault_injector(Arc::new(Plan { clamp_ops: 4 }), 0);
            // Four 1-byte reads deliver the payload torn but intact...
            let mut buf = [0u8; 4];
            stream.read_exact(&mut buf).await.expect("clamped reads");
            // ...and the fifth attempt observes the injected reset.
            let err = stream.read(&mut [0u8; 4]).await.expect_err("reset");
            (buf, err.kind())
        });
        let mut client = std::net::TcpStream::connect(addr).expect("connect");
        client.write_all(&[10, 20, 30, 40]).expect("send");
        let (buf, kind) = block_on(server).expect("server task");
        assert_eq!(buf, [10, 20, 30, 40]);
        assert_eq!(kind, io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn many_concurrent_sessions_on_two_workers() {
        // 32 echo sessions over 2 workers: sessions are tasks, not threads.
        let runtime = Arc::new(Runtime::with_workers(2));
        let listener = TcpListener::bind(&runtime, "127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let accept_runtime = Arc::clone(&runtime);
        let acceptor = runtime.spawn(async move {
            let mut sessions = Vec::new();
            for _ in 0..32 {
                let (stream, _) = listener.accept().await.expect("accept");
                sessions.push(accept_runtime.spawn(async move {
                    let mut buf = [0u8; 8];
                    stream.read_exact(&mut buf).await.expect("read");
                    stream.write_all(&buf).await.expect("write");
                }));
            }
            for session in sessions {
                session.await.expect("session");
            }
        });
        let clients: Vec<_> = (0..32u8)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut client = std::net::TcpStream::connect(addr).expect("connect");
                    let payload = [i; 8];
                    client.write_all(&payload).expect("send");
                    let mut echoed = [0u8; 8];
                    client.read_exact(&mut echoed).expect("recv");
                    assert_eq!(echoed, payload);
                })
            })
            .collect();
        for client in clients {
            client.join().expect("client thread");
        }
        block_on(acceptor).expect("acceptor");
    }
}
