//! Instrumented synchronization primitives — the only place the workspace
//! touches `std::sync` locks.
//!
//! Every `Mutex`/`Condvar`/`RwLock` in `watchman-core` and `watchman-server`
//! goes through the wrappers in this module (clippy's `disallowed_types`,
//! configured in the workspace's `clippy.toml` files, enforces it).  The
//! wrappers buy two things:
//!
//! 1. **One poisoned-lock policy.**  A lock whose holder panicked is
//!    *recovered*, not unwrapped: the guard is taken from the
//!    [`PoisonError`](std::sync::PoisonError), a process-wide counter is
//!    incremented ([`poison_recoveries`]) and a diagnostic naming the lock
//!    site is written to stderr once per process.  The engine's critical
//!    sections are written to keep their data structurally valid at every
//!    panic point (fetches and user observer callbacks run *outside* the
//!    locks wherever possible, and the panic paths are tested), so
//!    recovering is safe — and it means one panicking server session can
//!    never cascade poison-unwrap aborts across every other session that
//!    shares the engine, which is exactly what the pre-migration
//!    `.lock().unwrap()` sites in session paths would have done.
//!
//! 2. **Lock-order analysis under `--features lock-graph`.**  Normally the
//!    wrappers compile to zero-cost passthroughs (a newtype around the std
//!    primitive; the only extra code is the poison-recovery closure every
//!    call site already had).  With the `lock-graph` feature enabled, every
//!    acquisition records, per thread, the stack of locks currently held
//!    and folds the nesting into a global **lock-order graph**:
//!
//!    * each lock belongs to a *class* — the source location that created
//!      it (all shard locks are one class, all single-flight cells another);
//!    * holding class A while acquiring class B adds the edge A → B, with
//!      the first witnessing acquisition stack retained for the report;
//!    * a cycle among the recorded edges is a **potential deadlock** even if
//!      no run ever deadlocked — two threads taking the classes in opposite
//!      orders only have to collide once.  `lock_graph::report` runs the
//!      cycle detection and `lock_graph::assert_clean` turns any finding
//!      into a panic with both witness stacks, which is how the CI
//!      `lock-graph` test runs gate the repo;
//!    * *same-class* nesting (a thread holding one lock of a class while
//!      it acquires another of the same class, say two shard locks) is
//!      always recorded as a violation: no path in the tree needs it, and
//!      the class graph could not order it;
//!    * the runtime's workers additionally flag any task poll entered while
//!      the polling thread holds an engine lock (**lock-held-across-poll**):
//!      a blocking fetch or a suspended task must never pin a shard or
//!      scheduler lock, or every other session on that lock serializes
//!      behind a multi-second warehouse scan.
//!
//! The acquisition checks are conservative and class-granular: they can
//! flag orders that today's code never executes concurrently, and that is
//! the point — see `CONCURRENCY.md` at the repo root for the documented
//! lock hierarchy this module enforces.

#![allow(
    clippy::disallowed_types,
    reason = "the one home of the raw std::sync locks"
)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Process-wide count of poisoned-lock recoveries (see the module docs).
static POISON_RECOVERIES: AtomicU64 = AtomicU64::new(0);
/// Whether the one-time poison diagnostic has been emitted.
static POISON_REPORTED: AtomicBool = AtomicBool::new(false);

/// How many times any lock in the process recovered from poisoning (a
/// holder panicked while inside the critical section).  Zero in a healthy
/// process; a non-zero value means some panic unwound through a critical
/// section and the affected structure's panic-safety reasoning applies.
pub fn poison_recoveries() -> u64 {
    POISON_RECOVERIES.load(Ordering::Relaxed)
}

#[cold]
fn note_poison_recovery(site: &'static std::panic::Location<'static>) {
    POISON_RECOVERIES.fetch_add(1, Ordering::Relaxed);
    if !POISON_REPORTED.swap(true, Ordering::Relaxed) {
        eprintln!(
            "watchman_core::sync: recovered a poisoned lock at {}:{} \
             (a holder panicked; state remains valid by construction — \
             further recoveries are counted but not reported)",
            site.file(),
            site.line()
        );
    }
}

#[cfg(feature = "lock-graph")]
mod instr_impl {
    //! The `lock-graph` instrumentation state: per-thread held-lock stacks
    //! and the global lock-order graph.  Internal bookkeeping deliberately
    //! uses raw `std::sync` primitives (this module is the allowed site) so
    //! instrumentation never re-enters itself.

    use std::collections::HashMap;
    use std::panic::Location;
    use std::sync::Mutex as StdMutex;

    /// A lock *class*: the source location that created the lock.  Every
    /// shard mutex is one class, every single-flight cell another.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
    pub(super) struct ClassKey {
        pub file: &'static str,
        pub line: u32,
        pub column: u32,
    }

    impl ClassKey {
        pub(super) fn of(location: &'static Location<'static>) -> Self {
            ClassKey {
                file: location.file(),
                line: location.line(),
                column: location.column(),
            }
        }

        pub(super) fn label(&self) -> String {
            format!("{}:{}", self.file, self.line)
        }
    }

    /// One entry of a thread's held-lock stack.
    #[derive(Clone)]
    pub(super) struct Held {
        pub class: ClassKey,
        /// Where `.lock()` was called (not where the lock was created).
        pub acquired_at: &'static Location<'static>,
    }

    impl Held {
        fn describe(&self) -> String {
            format!(
                "{} (locked at {}:{})",
                self.class.label(),
                self.acquired_at.file(),
                self.acquired_at.line()
            )
        }
    }

    /// The first witness recorded for a lock-order edge.
    #[derive(Clone, Debug)]
    pub struct EdgeWitness {
        /// The acquiring thread's name at witness time.
        pub thread: String,
        /// The held-lock stack, outermost first, at the moment the edge's
        /// target was acquired.
        pub held_stack: Vec<String>,
        /// Where the target lock was acquired.
        pub acquired: String,
    }

    #[derive(Default)]
    pub(super) struct Graph {
        /// Directed class edges: held → acquired, with the first witness.
        pub edges: HashMap<(ClassKey, ClassKey), EdgeWitness>,
        /// Same-class acquisitions: a lock taken while its thread held
        /// another lock of the same class.
        pub same_class_nestings: Vec<String>,
        /// Task polls entered with engine locks held.
        pub poll_violations: Vec<String>,
    }

    pub(super) static GRAPH: StdMutex<Option<Graph>> = StdMutex::new(None);

    thread_local! {
        pub(super) static HELD: std::cell::RefCell<Vec<Held>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }

    fn thread_label() -> String {
        let current = std::thread::current();
        current
            .name()
            .map_or_else(|| format!("{:?}", current.id()), str::to_owned)
    }

    pub(super) fn with_graph<R>(f: impl FnOnce(&mut Graph) -> R) -> R {
        let mut slot = GRAPH
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        f(slot.get_or_insert_with(Graph::default))
    }

    /// Records an acquisition: folds the current held stack into the graph,
    /// then pushes the new entry.  Called *after* the real lock succeeds.
    pub(super) fn on_acquire(class: ClassKey, acquired_at: &'static Location<'static>) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if !held.is_empty() {
                let stack: Vec<String> = held.iter().map(Held::describe).collect();
                let acquired = Held { class, acquired_at };
                let acquired_desc = acquired.describe();
                with_graph(|graph| {
                    for h in held.iter() {
                        if h.class == class {
                            graph.same_class_nestings.push(format!(
                                "same-class nesting on {}: acquired {} while holding [{}]",
                                thread_label(),
                                acquired_desc,
                                stack.join(", ")
                            ));
                        } else {
                            graph
                                .edges
                                .entry((h.class, class))
                                .or_insert_with(|| EdgeWitness {
                                    thread: thread_label(),
                                    held_stack: stack.clone(),
                                    acquired: acquired_desc.clone(),
                                });
                        }
                    }
                });
            }
            held.push(Held { class, acquired_at });
        });
    }

    /// Pops the innermost held entry matching `class` (guards may be
    /// dropped out of LIFO order; search from the top).
    pub(super) fn on_release(class: ClassKey) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|h| h.class == class) {
                held.remove(pos);
            }
        });
    }

    /// Flags a task poll entered with engine locks held, ignoring the
    /// `exempt_innermost` most recent acquisitions (the runtime worker holds
    /// the task's own future-slot mutex while polling it, by design).
    pub fn note_task_poll(exempt_innermost: usize) {
        HELD.with(|held| {
            let held = held.borrow();
            let watched = held.len().saturating_sub(exempt_innermost);
            if watched == 0 {
                return;
            }
            let stack: Vec<String> = held[..watched].iter().map(Held::describe).collect();
            with_graph(|graph| {
                graph.poll_violations.push(format!(
                    "task polled on {} with locks held: [{}]",
                    thread_label(),
                    stack.join(", ")
                ));
            });
        });
    }

    /// Number of instrumented locks the current thread holds.
    pub fn locks_held_on_thread() -> usize {
        HELD.with(|held| held.borrow().len())
    }
}

#[cfg(feature = "lock-graph")]
pub use instr_impl::{locks_held_on_thread, note_task_poll};

/// A mutual-exclusion lock wrapping [`std::sync::Mutex`] with the module's
/// poison policy and (under `lock-graph`) lock-order recording.
pub struct Mutex<T: ?Sized> {
    #[cfg(feature = "lock-graph")]
    class: instr_impl::ClassKey,
    inner: std::sync::Mutex<T>,
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: Default> Default for Mutex<T> {
    #[track_caller]
    fn default() -> Self {
        Self::new(T::default())
    }
}

/// The guard for a [`Mutex`].  Releases the lock (and, under `lock-graph`,
/// pops the thread's held-lock stack) on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    // Declared before `inner` so the held-stack pop precedes the real
    // unlock — the graph must never observe the lock as free while the
    // thread still holds it.
    #[cfg(feature = "lock-graph")]
    _held: HeldToken,
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// Held-stack bookkeeping for one acquisition; popping happens in `Drop`.
#[cfg(feature = "lock-graph")]
struct HeldToken {
    class: instr_impl::ClassKey,
}

#[cfg(feature = "lock-graph")]
impl Drop for HeldToken {
    fn drop(&mut self) {
        instr_impl::on_release(self.class);
    }
}

impl<T> Mutex<T> {
    /// Creates a lock.  Under `lock-graph` the *call site* becomes the
    /// lock's class in the lock-order graph.
    #[track_caller]
    pub fn new(value: T) -> Self {
        Mutex {
            #[cfg(feature = "lock-graph")]
            class: instr_impl::ClassKey::of(std::panic::Location::caller()),
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking the thread until it is available.
    ///
    /// Poisoning is recovered, counted and reported per the module policy —
    /// the returned guard is always valid.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let site = std::panic::Location::caller();
        let inner = self.inner.lock().unwrap_or_else(|poisoned| {
            note_poison_recovery(site);
            poisoned.into_inner()
        });
        #[cfg(feature = "lock-graph")]
        instr_impl::on_acquire(self.class, site);
        MutexGuard {
            #[cfg(feature = "lock-graph")]
            _held: HeldToken { class: self.class },
            inner,
        }
    }

    /// Acquires the lock only if it is free right now (poison recovered the
    /// same way as [`Mutex::lock`]); `None` if another thread holds it.
    #[track_caller]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let site = std::panic::Location::caller();
        let inner = match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::Poisoned(poisoned)) => {
                note_poison_recovery(site);
                poisoned.into_inner()
            }
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        #[cfg(feature = "lock-graph")]
        instr_impl::on_acquire(self.class, site);
        Some(MutexGuard {
            #[cfg(feature = "lock-graph")]
            _held: HeldToken { class: self.class },
            inner,
        })
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A condition variable paired with [`Mutex`], wrapping
/// [`std::sync::Condvar`].  Waits release the guard's held-stack entry for
/// their duration (the lock really is free while the thread sleeps) and
/// re-record the acquisition on wakeup.
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Condvar")
    }
}

impl Condvar {
    /// Creates a condition variable.
    pub fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Releases `guard` and blocks until notified, then reacquires.
    #[track_caller]
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let site = std::panic::Location::caller();
        #[cfg(feature = "lock-graph")]
        let (class, inner) = {
            let MutexGuard { _held, inner } = guard;
            // `_held` drops here: the stack entry is popped for the wait.
            let class = _held.class;
            drop(_held);
            (class, inner)
        };
        #[cfg(not(feature = "lock-graph"))]
        let inner = guard.inner;
        let inner = self.inner.wait(inner).unwrap_or_else(|poisoned| {
            note_poison_recovery(site);
            poisoned.into_inner()
        });
        #[cfg(feature = "lock-graph")]
        instr_impl::on_acquire(class, site);
        MutexGuard {
            #[cfg(feature = "lock-graph")]
            _held: HeldToken { class },
            inner,
        }
    }

    /// Like [`Condvar::wait`], bounded by `timeout`.  The boolean reports
    /// whether the wait timed out.
    #[track_caller]
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: std::time::Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        let site = std::panic::Location::caller();
        #[cfg(feature = "lock-graph")]
        let (class, inner) = {
            let MutexGuard { _held, inner } = guard;
            let class = _held.class;
            drop(_held);
            (class, inner)
        };
        #[cfg(not(feature = "lock-graph"))]
        let inner = guard.inner;
        let (inner, result) = self
            .inner
            .wait_timeout(inner, timeout)
            .unwrap_or_else(|poisoned| {
                note_poison_recovery(site);
                poisoned.into_inner()
            });
        #[cfg(feature = "lock-graph")]
        instr_impl::on_acquire(class, site);
        (
            MutexGuard {
                #[cfg(feature = "lock-graph")]
                _held: HeldToken { class },
                inner,
            },
            result.timed_out(),
        )
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// A reader-writer lock wrapping [`std::sync::RwLock`] with the module's
/// poison policy and (under `lock-graph`) lock-order recording.  Read
/// acquisitions participate in the graph exactly like writes: a read-side
/// nesting can deadlock against a writer just as well.
pub struct RwLock<T: ?Sized> {
    #[cfg(feature = "lock-graph")]
    class: instr_impl::ClassKey,
    inner: std::sync::RwLock<T>,
}

impl<T: std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: Default> Default for RwLock<T> {
    #[track_caller]
    fn default() -> Self {
        Self::new(T::default())
    }
}

/// The shared-read guard for an [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    #[cfg(feature = "lock-graph")]
    _held: HeldToken,
    inner: std::sync::RwLockReadGuard<'a, T>,
}

/// The exclusive-write guard for an [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    #[cfg(feature = "lock-graph")]
    _held: HeldToken,
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl<T> RwLock<T> {
    /// Creates a reader-writer lock; the call site becomes its class.
    #[track_caller]
    pub fn new(value: T) -> Self {
        RwLock {
            #[cfg(feature = "lock-graph")]
            class: instr_impl::ClassKey::of(std::panic::Location::caller()),
            inner: std::sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access (poison recovered per the module policy).
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let site = std::panic::Location::caller();
        let inner = self.inner.read().unwrap_or_else(|poisoned| {
            note_poison_recovery(site);
            poisoned.into_inner()
        });
        #[cfg(feature = "lock-graph")]
        instr_impl::on_acquire(self.class, site);
        RwLockReadGuard {
            #[cfg(feature = "lock-graph")]
            _held: HeldToken { class: self.class },
            inner,
        }
    }

    /// Acquires exclusive write access (poison recovered per the policy).
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let site = std::panic::Location::caller();
        let inner = self.inner.write().unwrap_or_else(|poisoned| {
            note_poison_recovery(site);
            poisoned.into_inner()
        });
        #[cfg(feature = "lock-graph")]
        instr_impl::on_acquire(self.class, site);
        RwLockWriteGuard {
            #[cfg(feature = "lock-graph")]
            _held: HeldToken { class: self.class },
            inner,
        }
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// The `lock-graph` report surface.  Compiled only with the feature; test
/// suites call [`assert_clean`](lock_graph::assert_clean) after driving the
/// engine and the wire server through their scenarios.
#[cfg(feature = "lock-graph")]
pub mod lock_graph {
    use super::instr_impl::{self, ClassKey, EdgeWitness};
    use std::collections::{HashMap, HashSet};

    /// One recorded lock-order edge (held class → acquired class) with the
    /// first acquisition stack that witnessed it.
    #[derive(Clone, Debug)]
    pub struct Edge {
        /// Label of the class held at acquisition time.
        pub from: String,
        /// Label of the class being acquired.
        pub to: String,
        /// The witnessing thread's name.
        pub thread: String,
        /// The full held-lock stack at witness time, outermost first.
        pub held_stack: Vec<String>,
        /// Where the target lock was acquired.
        pub acquired: String,
    }

    /// The state of the global lock-order graph.
    #[derive(Debug, Default)]
    pub struct Report {
        /// Every distinct held → acquired class edge observed.
        pub edges: Vec<Edge>,
        /// Cycles among the edges — potential deadlocks.  Each cycle is the
        /// list of its edges, so the report carries a witness stack for
        /// every direction involved.
        pub cycles: Vec<Vec<Edge>>,
        /// Same-class acquisitions: any is a violation.
        pub same_class_nestings: Vec<String>,
        /// Task polls entered with engine locks held.
        pub poll_violations: Vec<String>,
        /// Poisoned-lock recoveries observed process-wide.
        pub poison_recoveries: u64,
    }

    impl Report {
        /// Whether the recorded lock-order graph has no cycle.
        pub fn is_acyclic(&self) -> bool {
            self.cycles.is_empty()
        }

        /// Whether the run was fully clean: acyclic, no same-class nesting,
        /// and no lock was ever held across a task poll.
        pub fn is_clean(&self) -> bool {
            self.is_acyclic()
                && self.same_class_nestings.is_empty()
                && self.poll_violations.is_empty()
        }

        /// A human-readable rendering of every finding.
        pub fn describe(&self) -> String {
            let mut out = String::new();
            out.push_str(&format!(
                "lock-order graph: {} edges, {} cycles, {} same-class nestings, \
                 {} poll violations\n",
                self.edges.len(),
                self.cycles.len(),
                self.same_class_nestings.len(),
                self.poll_violations.len()
            ));
            for (i, cycle) in self.cycles.iter().enumerate() {
                out.push_str(&format!("potential deadlock cycle #{}:\n", i + 1));
                for edge in cycle {
                    out.push_str(&format!(
                        "  {} -> {} on {} (held [{}] while acquiring {})\n",
                        edge.from,
                        edge.to,
                        edge.thread,
                        edge.held_stack.join(", "),
                        edge.acquired
                    ));
                }
            }
            for violation in &self.same_class_nestings {
                out.push_str(&format!("{violation}\n"));
            }
            for violation in &self.poll_violations {
                out.push_str(&format!("poll violation: {violation}\n"));
            }
            out
        }
    }

    /// Snapshots the global graph and runs cycle detection over it.
    pub fn report() -> Report {
        let (edges, same_class_nestings, poll_violations) = instr_impl::with_graph(|graph| {
            (
                graph
                    .edges
                    .iter()
                    .map(|(k, w)| (*k, w.clone()))
                    .collect::<Vec<((ClassKey, ClassKey), EdgeWitness)>>(),
                graph.same_class_nestings.clone(),
                graph.poll_violations.clone(),
            )
        });
        let cycles = find_cycles(&edges);
        let mut edge_list: Vec<Edge> = edges.iter().map(|(k, w)| make_edge(*k, w)).collect();
        edge_list.sort_by(|a, b| (&a.from, &a.to).cmp(&(&b.from, &b.to)));
        Report {
            edges: edge_list,
            cycles,
            same_class_nestings,
            poll_violations,
            poison_recoveries: super::poison_recoveries(),
        }
    }

    /// Panics with the full report if the recorded graph has a cycle, a
    /// same-class nesting, or a lock-held-across-poll finding.
    pub fn assert_clean() {
        let report = report();
        assert!(report.is_clean(), "{}", report.describe());
    }

    /// Clears the recorded graph (per-test isolation; the per-thread held
    /// stacks are left alone — they describe live guards).
    pub fn reset() {
        instr_impl::with_graph(|graph| {
            graph.edges.clear();
            graph.same_class_nestings.clear();
            graph.poll_violations.clear();
        });
    }

    fn make_edge(key: (ClassKey, ClassKey), witness: &EdgeWitness) -> Edge {
        Edge {
            from: key.0.label(),
            to: key.1.label(),
            thread: witness.thread.clone(),
            held_stack: witness.held_stack.clone(),
            acquired: witness.acquired.clone(),
        }
    }

    /// Finds every elementary cycle reachable through a depth-first walk of
    /// the class graph, reported as edge lists.  The graph is tiny (one
    /// node per lock *creation site*), so a simple coloring DFS suffices:
    /// each back edge closes one reported cycle.
    fn find_cycles(edges: &[((ClassKey, ClassKey), EdgeWitness)]) -> Vec<Vec<Edge>> {
        let mut adjacency: HashMap<ClassKey, Vec<ClassKey>> = HashMap::new();
        let mut witness: HashMap<(ClassKey, ClassKey), &EdgeWitness> = HashMap::new();
        for ((from, to), w) in edges {
            adjacency.entry(*from).or_default().push(*to);
            witness.insert((*from, *to), w);
        }
        let mut nodes: Vec<ClassKey> = adjacency.keys().copied().collect();
        nodes.sort();
        for targets in adjacency.values_mut() {
            targets.sort();
        }

        let mut cycles = Vec::new();
        let mut done: HashSet<ClassKey> = HashSet::new();
        for &start in &nodes {
            if done.contains(&start) {
                continue;
            }
            // Iterative DFS with an explicit path stack; a back edge into
            // the current path closes a cycle.
            let mut path: Vec<ClassKey> = Vec::new();
            let mut on_path: HashSet<ClassKey> = HashSet::new();
            let mut frames: Vec<(ClassKey, usize)> = vec![(start, 0)];
            while let Some((node, next)) = frames.last().copied() {
                if next == 0 {
                    path.push(node);
                    on_path.insert(node);
                }
                let targets = adjacency.get(&node).map_or(&[][..], Vec::as_slice);
                if next < targets.len() {
                    frames.last_mut().expect("frame exists").1 += 1;
                    let target = targets[next];
                    if on_path.contains(&target) {
                        // Close the cycle target → ... → node → target.
                        let from = path
                            .iter()
                            .position(|n| *n == target)
                            .expect("target is on the path");
                        let mut cycle = Vec::new();
                        for window in path[from..].windows(2) {
                            let key = (window[0], window[1]);
                            cycle.push(make_edge(key, witness[&key]));
                        }
                        let closing = (node, target);
                        cycle.push(make_edge(closing, witness[&closing]));
                        cycles.push(cycle);
                    } else if !done.contains(&target) {
                        frames.push((target, 0));
                    }
                } else {
                    frames.pop();
                    path.pop();
                    on_path.remove(&node);
                    done.insert(node);
                }
            }
        }
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_round_trips_values() {
        let lock = Mutex::new(41);
        *lock.lock() += 1;
        assert_eq!(*lock.lock(), 42);
        assert!(lock.try_lock().is_some());
        let held = lock.lock();
        assert!(lock.try_lock().is_none(), "held lock must refuse try_lock");
        drop(held);
    }

    #[test]
    fn rwlock_round_trips_values() {
        let lock = RwLock::new(String::from("a"));
        lock.write().push('b');
        assert_eq!(&*lock.read(), "ab");
    }

    #[test]
    fn condvar_wakes_waiters() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let waiter = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                let (lock, cv) = &*pair;
                let mut ready = lock.lock();
                while !*ready {
                    ready = cv.wait(ready);
                }
            })
        };
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_all();
        }
        waiter.join().expect("waiter exits");
    }

    #[test]
    fn poisoned_locks_recover_and_are_counted() {
        let lock = Arc::new(Mutex::new(7));
        let before = poison_recoveries();
        let poisoner = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                let _guard = lock.lock();
                panic!("poison the lock");
            })
        };
        assert!(poisoner.join().is_err());
        // The panicking holder poisoned the std mutex underneath; the
        // wrapper recovers, counts, and hands out a valid guard.
        assert_eq!(*lock.lock(), 7);
        assert!(
            poison_recoveries() > before,
            "recovery must be counted ({before} before)"
        );
    }

    #[cfg(feature = "lock-graph")]
    #[test]
    fn lock_graph_records_edges_and_detects_inversion() {
        // Build a deliberate A→B / B→A inversion on two fresh lock classes
        // and check the cycle detector reports it with both witnesses.
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        {
            let _gb = b.lock();
            let _ga = a.lock();
        }
        let report = lock_graph::report();
        assert!(
            !report.is_acyclic(),
            "inverted order must produce a cycle: {}",
            report.describe()
        );
        let cycle = &report.cycles[0];
        assert!(cycle.len() >= 2, "cycle carries both edges");
        lock_graph::reset();
        assert!(lock_graph::report().is_acyclic());
    }

    #[cfg(feature = "lock-graph")]
    #[test]
    fn any_same_class_nesting_is_flagged() {
        let shards: Vec<Mutex<u32>> = (0..3).map(|_| Mutex::new(0)).collect();
        lock_graph::reset();
        {
            let _low = shards[0].lock();
            let _high = shards[2].lock();
        }
        let report = lock_graph::report();
        assert_eq!(report.same_class_nestings.len(), 1, "{}", report.describe());
        assert!(!report.is_clean());
        lock_graph::reset();
    }
}
