//! Deterministic fault plans: the chaos harness behind `loadgen --chaos`.
//!
//! A [`FaultPlan`] is a *seeded schedule* of failures, addressed by stable
//! coordinates — a query's signature for fetch faults, a connection's
//! accept-order id and completed-read count for wire faults — so the same
//! plan replays the same failure sequence on every run.  Nothing here rolls
//! live dice: the "randomness" is [`splitmix64`] over `(seed, coordinate)`,
//! which is how the storm tests can assert exact invariants (every client
//! error is *explained* by the plan) instead of eyeballing flaky ratios.
//!
//! One plan serves both failure domains the server defends:
//!
//! * **Fetch faults** — [`FaultPlan::fetch_fault`] is consulted inside the
//!   server's fetch closure.  A slice of the keyspace is *flaky* (the first
//!   attempt of each fetch episode fails with a transient error, the
//!   leader's retry succeeds) and a smaller slice is *doomed after warm-up*
//!   (the first fetch ever succeeds, every refetch fails terminally — the
//!   shape that exercises stale serving and memoized failures).
//! * **Wire faults** — the plan implements
//!   [`FaultInjector`](watchman_core::runtime::net::FaultInjector) and is
//!   installed on accepted session streams: designated connections are
//!   reset after a few reads, one is stalled mid-stream (the slow-loris the
//!   read deadline evicts), and the rest pass through untouched.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use watchman_core::engine::{splitmix64, FetchError};
use watchman_core::runtime::net::{FaultAction, FaultInjector};
use watchman_core::sync::Mutex;

/// Keys-per-thousand classified as flaky by [`FaultPlan::canonical`].
const CANONICAL_FLAKY_PERMILLE: u32 = 80;
/// Keys-per-thousand classified as doomed by [`FaultPlan::canonical`].
const CANONICAL_DOOMED_PERMILLE: u32 = 20;

/// A deterministic, seeded failure schedule.  See the module docs.
pub struct FaultPlan {
    /// Seed of every classification hash in the plan.
    seed: u64,
    /// Keys-per-thousand whose fetches fail transiently on the first
    /// attempt of each episode (the retry succeeds).
    flaky_permille: u32,
    /// Keys-per-thousand whose fetches fail terminally after the first
    /// successful episode (stale-serving fodder).
    doomed_permille: u32,
    /// Accept-order connection ids that are reset after
    /// [`reset_after_reads`](Self::reset_after_reads) completed reads.
    reset_connections: Vec<u64>,
    /// Completed reads a reset connection is allowed before the reset.
    reset_after_reads: u64,
    /// Accept-order connection ids that stall (reads park forever) after
    /// [`stall_after_reads`](Self::stall_after_reads) completed reads.
    stall_connections: Vec<u64>,
    /// Completed reads a stalled connection is allowed before the stall.
    stall_after_reads: u64,
    /// Per-key fetch invocation counts: the episode clock the flaky/doomed
    /// schedules are keyed on.
    invocations: Mutex<HashMap<u64, u64>>,
    /// Fetch faults actually injected (for scorecards).
    injected_fetch_errors: AtomicU64,
    /// Connections on which a reset has actually fired.
    triggered_resets: Mutex<Vec<u64>>,
    /// Connections on which a stall has actually fired.
    triggered_stalls: Mutex<Vec<u64>>,
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("flaky_permille", &self.flaky_permille)
            .field("doomed_permille", &self.doomed_permille)
            .field("reset_connections", &self.reset_connections)
            .field("stall_connections", &self.stall_connections)
            .finish_non_exhaustive()
    }
}

impl FaultPlan {
    /// A plan that injects nothing.  Installing it still routes every `GET`
    /// through the fallible pipeline — which is exactly what the
    /// byte-identical-replay test wants: the pipeline itself must be
    /// invisible when no fault fires.
    pub fn empty(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            flaky_permille: 0,
            doomed_permille: 0,
            reset_connections: Vec::new(),
            reset_after_reads: 0,
            stall_connections: Vec::new(),
            stall_after_reads: 0,
            invocations: Mutex::new(HashMap::new()),
            injected_fetch_errors: AtomicU64::new(0),
            triggered_resets: Mutex::new(Vec::new()),
            triggered_stalls: Mutex::new(Vec::new()),
        }
    }

    /// The canonical chaos plan: 10% of the keyspace fails fetches (8%
    /// flaky + 2% doomed after warm-up), two connections are reset after
    /// three reads, one connection stalls after two reads.
    pub fn canonical(seed: u64) -> FaultPlan {
        FaultPlan {
            flaky_permille: CANONICAL_FLAKY_PERMILLE,
            doomed_permille: CANONICAL_DOOMED_PERMILLE,
            reset_connections: vec![2, 5],
            reset_after_reads: 3,
            stall_connections: vec![9],
            stall_after_reads: 2,
            ..FaultPlan::empty(seed)
        }
    }

    /// Parses a plan spec: `empty`, `canonical`, or either with a `:seed`
    /// suffix (`canonical:42`).
    pub fn parse(spec: &str) -> Option<FaultPlan> {
        let (name, seed) = match spec.split_once(':') {
            Some((name, seed)) => (name, seed.parse().ok()?),
            None => (spec, 0xC4A0_5EED),
        };
        match name {
            "empty" => Some(FaultPlan::empty(seed)),
            "canonical" => Some(FaultPlan::canonical(seed)),
            _ => None,
        }
    }

    /// Whether the plan can inject anything at all.
    pub fn is_noop(&self) -> bool {
        self.flaky_permille == 0
            && self.doomed_permille == 0
            && self.reset_connections.is_empty()
            && self.stall_connections.is_empty()
    }

    /// How a key is classified under this plan's seed.
    fn classify(&self, signature: u64) -> KeyClass {
        let roll = splitmix64(self.seed ^ signature) % 1000;
        let flaky = u64::from(self.flaky_permille);
        let doomed = flaky + u64::from(self.doomed_permille);
        if roll < flaky {
            KeyClass::Flaky
        } else if roll < doomed {
            KeyClass::Doomed
        } else {
            KeyClass::Healthy
        }
    }

    /// Consulted by the server's fetch closure once per fetch invocation of
    /// `signature`.  Returns the fault to inject, or `None` to let the
    /// fetch succeed.
    pub fn fetch_fault(&self, signature: u64) -> Option<FetchError> {
        if self.flaky_permille == 0 && self.doomed_permille == 0 {
            return None;
        }
        let class = self.classify(signature);
        if class == KeyClass::Healthy {
            return None;
        }
        let invocation = {
            let mut invocations = self.invocations.lock();
            let slot = invocations.entry(signature).or_insert(0);
            let n = *slot;
            *slot += 1;
            n
        };
        let fault = match class {
            // Every episode's first attempt fails; the leader's retry (the
            // odd invocation) succeeds.
            KeyClass::Flaky if invocation % 2 == 0 => {
                Some(FetchError::transient("injected transient fetch failure"))
            }
            // The warm-up fetch succeeds (seeding the cache and the stale
            // store); every refetch after eviction fails for good.
            KeyClass::Doomed if invocation > 0 => {
                Some(FetchError::fatal("injected terminal fetch failure"))
            }
            _ => None,
        };
        if fault.is_some() {
            self.injected_fetch_errors.fetch_add(1, Ordering::Relaxed);
        }
        fault
    }

    /// Fetch faults actually injected so far.
    pub fn injected_fetch_errors(&self) -> u64 {
        self.injected_fetch_errors.load(Ordering::Relaxed)
    }

    /// Connections on which a reset has actually fired.
    pub fn triggered_resets(&self) -> Vec<u64> {
        self.triggered_resets.lock().clone()
    }

    /// Connections on which a stall has actually fired.
    pub fn triggered_stalls(&self) -> Vec<u64> {
        self.triggered_stalls.lock().clone()
    }

    fn note_triggered(log: &Mutex<Vec<u64>>, conn: u64) {
        let mut triggered = log.lock();
        if !triggered.contains(&conn) {
            triggered.push(conn);
        }
    }
}

/// How one key behaves under a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyClass {
    Healthy,
    Flaky,
    Doomed,
}

impl FaultInjector for FaultPlan {
    fn on_read(&self, conn: u64, op: u64) -> FaultAction {
        if self.stall_connections.contains(&conn) && op >= self.stall_after_reads {
            Self::note_triggered(&self.triggered_stalls, conn);
            return FaultAction::Stall;
        }
        if self.reset_connections.contains(&conn) && op >= self.reset_after_reads {
            Self::note_triggered(&self.triggered_resets, conn);
            return FaultAction::Reset;
        }
        FaultAction::Pass
    }

    fn on_write(&self, _conn: u64, _op: u64) -> FaultAction {
        // Wire faults fire on the read side only: a killed response is
        // indistinguishable from a reset anyway, and keeping writes clean
        // keeps the explained/unexplained error classification sharp.
        FaultAction::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_parse_and_classify_deterministically() {
        assert!(FaultPlan::parse("empty").expect("empty").is_noop());
        let canonical = FaultPlan::parse("canonical").expect("canonical");
        assert!(!canonical.is_noop());
        assert!(FaultPlan::parse("nonsense").is_none());
        let seeded = FaultPlan::parse("canonical:42").expect("seeded");
        assert_eq!(seeded.seed, 42);

        // Same seed, same classification; the roll is a pure function.
        let twin = FaultPlan::canonical(seeded.seed);
        for signature in 0..512u64 {
            assert_eq!(seeded.classify(signature), twin.classify(signature));
        }
        // ~10% of keys are faulty under the canonical permilles.
        let faulty = (0..4096u64)
            .filter(|s| canonical.classify(*s) != KeyClass::Healthy)
            .count();
        assert!((200..620).contains(&faulty), "faulty keys: {faulty}");
    }

    #[test]
    fn flaky_keys_alternate_and_doomed_keys_fail_after_warmup() {
        let plan = FaultPlan::canonical(7);
        let flaky = (0..4096u64)
            .find(|s| plan.classify(*s) == KeyClass::Flaky)
            .expect("a flaky key");
        let doomed = (0..4096u64)
            .find(|s| plan.classify(*s) == KeyClass::Doomed)
            .expect("a doomed key");

        let first = plan.fetch_fault(flaky).expect("first attempt fails");
        assert!(first.is_retryable());
        assert!(plan.fetch_fault(flaky).is_none(), "retry succeeds");
        assert!(
            plan.fetch_fault(flaky).is_some(),
            "next episode fails again"
        );

        assert!(plan.fetch_fault(doomed).is_none(), "warm-up succeeds");
        let terminal = plan.fetch_fault(doomed).expect("refetch fails");
        assert!(!terminal.is_retryable());
        assert_eq!(plan.injected_fetch_errors(), 3);
    }

    #[test]
    fn wire_schedule_targets_only_designated_connections() {
        let plan = FaultPlan::canonical(0);
        assert_eq!(plan.on_read(0, 100), FaultAction::Pass);
        assert_eq!(plan.on_read(2, 0), FaultAction::Pass);
        assert_eq!(plan.on_read(2, 3), FaultAction::Reset);
        assert_eq!(plan.on_read(5, 7), FaultAction::Reset);
        assert_eq!(plan.on_read(9, 2), FaultAction::Stall);
        assert_eq!(plan.on_write(2, 50), FaultAction::Pass);
        assert_eq!(plan.triggered_resets(), vec![2, 5]);
        assert_eq!(plan.triggered_stalls(), vec![9]);
        let empty = FaultPlan::empty(0);
        assert_eq!(empty.on_read(2, 50), FaultAction::Pass);
    }
}
