//! Failure-domain vocabulary for the fallible fetch pipeline.
//!
//! The paper prices a cached set by what refetching it would cost — which
//! presumes the warehouse answers.  This module is the engine's model of the
//! warehouse *not* answering: typed fetch errors, a bounded retry policy with
//! deterministic jitter (replay stays byte-identical), a per-shard circuit
//! breaker, and the switch that keeps last-known-good copies for stale
//! serving.
//!
//! Everything here is pure state + logical time: the breaker takes an
//! explicit `now` [`Timestamp`] instead of reading a clock, so the checker
//! can drive it through interleavings and trace replay stays deterministic.

use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use crate::clock::Timestamp;

/// Deterministic 64-bit mix (splitmix64 finalizer).  Shared by the retry
/// jitter here and the fault-injection schedules in the server crate: the
/// same seed always yields the same schedule, on any platform.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Why a fetch closure failed.
///
/// Unlike a panic (a bug in the fetch, which poisons only the leader and
/// hands the flight to a waiter), a `FetchError` is an *expected* outcome —
/// warehouse down, network partition, query killed — and resolves the
/// single-flight cell for every coalesced waiter with one shared
/// `Arc<FetchError>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchError {
    message: String,
    retryable: bool,
}

impl FetchError {
    /// A transient failure: the retry policy may re-invoke the fetch.
    pub fn transient(message: impl Into<String>) -> Self {
        FetchError {
            message: message.into(),
            retryable: true,
        }
    }

    /// A fatal failure: retrying cannot help (malformed query, permission
    /// denied); the leader fails immediately regardless of retry budget.
    pub fn fatal(message: impl Into<String>) -> Self {
        FetchError {
            message: message.into(),
            retryable: false,
        }
    }

    /// The human-readable failure description.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Whether the retry policy is allowed to re-invoke the fetch.
    pub fn is_retryable(&self) -> bool {
        self.retryable
    }
}

impl fmt::Display for FetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.retryable {
            write!(f, "fetch failed (transient): {}", self.message)
        } else {
            write!(f, "fetch failed (fatal): {}", self.message)
        }
    }
}

impl Error for FetchError {}

/// Bounded retry with exponential backoff and deterministic seeded jitter.
///
/// `max_attempts` counts every invocation including the first, so
/// `max_attempts == 1` means "never retry".  Backoff for retry *n* (1-based)
/// is `base_delay · 2ⁿ⁻¹` capped at `max_delay`, then scaled into
/// `[½·delay, delay)` by a jitter factor derived from
/// `splitmix64(jitter_seed ⊕ stream ⊕ n)` — two runs with the same seed and
/// the same per-key `stream` sleep for exactly the same durations, which is
/// what keeps chaos replays reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total fetch invocations allowed, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Ceiling on any single backoff.
    pub max_delay: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// No retries: the first error is terminal.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter_seed: 0,
        }
    }

    /// The backoff to sleep before retry `attempt` (1-based: 1 is the first
    /// retry) on jitter stream `stream` (callers pass a per-key value, e.g.
    /// the query signature, so concurrent keys don't sleep in lockstep).
    pub fn backoff(&self, attempt: u32, stream: u64) -> Duration {
        if self.base_delay.is_zero() {
            return Duration::ZERO;
        }
        let exp = attempt.saturating_sub(1).min(32);
        let raw = self
            .base_delay
            .saturating_mul(1u32.checked_shl(exp).unwrap_or(u32::MAX))
            .min(self.max_delay);
        // Jitter scales the capped delay into [½·raw, raw): full determinism,
        // no thundering herd.
        let mix = splitmix64(self.jitter_seed ^ stream.rotate_left(17) ^ u64::from(attempt));
        let fraction = 0.5 + (mix >> 11) as f64 / (1u64 << 53) as f64 * 0.5;
        raw.mul_f64(fraction)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(50),
            jitter_seed: 0x5EED_F00D,
        }
    }
}

/// Tuning for the per-shard [`CircuitBreaker`].
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerConfig {
    /// Rolling outcome window length (most recent fetch outcomes).
    pub window: usize,
    /// Failure fraction within the window that trips the breaker.
    pub failure_threshold: f64,
    /// Minimum outcomes in the window before the threshold is consulted —
    /// one early failure must not trip an empty breaker.
    pub min_samples: usize,
    /// How long (logical microseconds) the breaker stays open before
    /// half-opening.
    pub open_for_us: u64,
    /// Probe fetches admitted while half-open; all must succeed to close.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 16,
            failure_threshold: 0.5,
            min_samples: 4,
            open_for_us: 200_000,
            half_open_probes: 2,
        }
    }
}

/// The observable breaker state, for stats and assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Fetches flow; outcomes feed the rolling window.
    Closed,
    /// Fetches are refused until the open interval elapses.
    Open,
    /// A bounded number of probe fetches decide reopen vs. close.
    HalfOpen,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// A circuit breaker as a pure state machine on logical time.
///
/// The legal transitions are exactly `closed → open` (window trips),
/// `open → half-open` (open interval elapsed at an [`admit`] call),
/// `half-open → closed` (every probe succeeded) and `half-open → open`
/// (any probe failed).  Each transition increments [`transitions`].
///
/// The breaker holds no lock and reads no clock: the engine keeps one per
/// shard *inside* the shard mutex (no new lock class) and passes the
/// lookup's logical `now`, so the checker can exhaustively interleave it.
///
/// [`admit`]: CircuitBreaker::admit
/// [`transitions`]: CircuitBreaker::transitions
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: State,
    /// Rolling outcome ring: `true` = success.
    outcomes: Vec<bool>,
    /// Next ring slot to overwrite once the window is full.
    cursor: usize,
    transitions: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Closed,
    Open { until: Timestamp },
    HalfOpen { issued: u32, succeeded: u32 },
}

impl CircuitBreaker {
    /// A closed breaker with an empty window.
    pub fn new(config: BreakerConfig) -> Self {
        let window = config.window.max(1);
        CircuitBreaker {
            config,
            state: State::Closed,
            outcomes: Vec::with_capacity(window),
            cursor: 0,
            transitions: 0,
        }
    }

    /// Whether a fetch may proceed at logical time `now`.
    ///
    /// Open breakers half-open here once their interval elapses (the first
    /// admitted call *is* the first probe); half-open breakers admit at most
    /// `half_open_probes` concurrent probes.
    pub fn admit(&mut self, now: Timestamp) -> bool {
        match self.state {
            State::Closed => true,
            State::Open { until } => {
                if now >= until {
                    self.transition(State::HalfOpen {
                        issued: 1,
                        succeeded: 0,
                    });
                    true
                } else {
                    false
                }
            }
            State::HalfOpen { issued, succeeded } => {
                if issued < self.config.half_open_probes.max(1) {
                    self.state = State::HalfOpen {
                        issued: issued + 1,
                        succeeded,
                    };
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Returns a half-open probe ticket whose fetch ended without an outcome
    /// (the leader panicked or was cancelled and nobody took the flight
    /// over).  Without this the ticket stays issued forever and a half-open
    /// breaker with every probe lost refuses all fetches for good.  Outside
    /// half-open there is no ticket to return.
    pub fn release_probe(&mut self) {
        if let State::HalfOpen { issued, succeeded } = self.state {
            if issued > succeeded {
                self.state = State::HalfOpen {
                    issued: issued - 1,
                    succeeded,
                };
            }
        }
    }

    /// Records a successful fetch outcome.
    pub fn record_success(&mut self, _now: Timestamp) {
        match self.state {
            State::Closed => self.push_outcome(true),
            State::HalfOpen { issued, succeeded } => {
                let succeeded = succeeded + 1;
                if succeeded >= self.config.half_open_probes.max(1) {
                    self.outcomes.clear();
                    self.cursor = 0;
                    self.transition(State::Closed);
                } else {
                    self.state = State::HalfOpen { issued, succeeded };
                }
            }
            // A success completing while open (started before the trip) is
            // good news but not a probe; ignore it.
            State::Open { .. } => {}
        }
    }

    /// Records a failed fetch outcome, possibly tripping the breaker.
    pub fn record_failure(&mut self, now: Timestamp) {
        let reopen = Timestamp::from_micros(
            now.as_micros()
                .saturating_add(self.config.open_for_us.max(1)),
        );
        match self.state {
            State::Closed => {
                self.push_outcome(false);
                if self.outcomes.len() >= self.config.min_samples.max(1) {
                    let failures = self.outcomes.iter().filter(|ok| !**ok).count();
                    let rate = failures as f64 / self.outcomes.len() as f64;
                    if rate >= self.config.failure_threshold {
                        self.outcomes.clear();
                        self.cursor = 0;
                        self.transition(State::Open { until: reopen });
                    }
                }
            }
            State::HalfOpen { .. } => self.transition(State::Open { until: reopen }),
            // Stragglers from before the trip don't extend the open window.
            State::Open { .. } => {}
        }
    }

    /// The current observable state.
    pub fn state(&self) -> BreakerState {
        match self.state {
            State::Closed => BreakerState::Closed,
            State::Open { .. } => BreakerState::Open,
            State::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }

    /// Total state transitions so far (the stats counter).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    fn transition(&mut self, next: State) {
        // The single choke point every legal transition passes through, so
        // `transitions` and the registry's trip counter miss none.
        if matches!(next, State::Open { .. }) {
            crate::telemetry::global().breaker_trips.incr();
        }
        self.state = next;
        self.transitions += 1;
    }

    fn push_outcome(&mut self, ok: bool) {
        let window = self.config.window.max(1);
        if self.outcomes.len() < window {
            self.outcomes.push(ok);
        } else {
            self.outcomes[self.cursor] = ok;
            self.cursor = (self.cursor + 1) % window;
        }
    }
}

/// Everything the fallible pipeline needs, bundled for the builder.
///
/// A terminal failure is always memoized in its key's slot for 50 ms of
/// logical time.  Each shard keeps stale copies and memoized failures for
/// at most 1,024 keys; past that, the key whose latest record is oldest
/// loses both.
#[derive(Debug, Clone, Default)]
pub struct FailureConfig {
    /// Leader-side retry of transient fetch errors.
    pub retry: RetryPolicy,
    /// Per-shard circuit breaker; `None` disables breaking.
    pub breaker: Option<BreakerConfig>,
    /// Keep the value of every successful fallible fetch as its key's
    /// last-known-good copy, and answer a failed lookup with it; off means
    /// errors always surface.
    pub serve_stale: bool,
}

/// A terminally failed lookup, as surfaced by `try_get_or_execute_async`.
#[derive(Debug, Clone)]
pub struct LookupError {
    /// The fetch failure, shared with every coalesced waiter.
    pub error: Arc<FetchError>,
    /// Whether this reference was answered from the key's memoized failure (the
    /// warehouse was not re-consulted).
    pub negative_hit: bool,
}

impl fmt::Display for LookupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negative_hit {
            write!(f, "{} (memoized)", self.error)
        } else {
            self.error.fmt(f)
        }
    }
}

impl Error for LookupError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(self.error.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(us: u64) -> Timestamp {
        Timestamp::from_micros(us)
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(20),
            jitter_seed: 42,
        };
        for attempt in 1..=6u32 {
            let a = policy.backoff(attempt, 7);
            let b = policy.backoff(attempt, 7);
            assert_eq!(a, b, "same seed+stream+attempt must sleep identically");
            let cap = Duration::from_millis(20);
            assert!(a <= cap, "attempt {attempt}: {a:?} above cap");
            assert!(
                a >= cap / 4 || attempt < 4,
                "jitter floor is half the raw delay"
            );
        }
        // Different streams de-synchronize.
        assert_ne!(policy.backoff(1, 7), policy.backoff(1, 8));
        // Growth until the cap.
        assert!(policy.backoff(1, 7) < policy.backoff(3, 7));
    }

    #[test]
    fn backoff_with_zero_base_is_zero() {
        let policy = RetryPolicy::none();
        assert_eq!(policy.backoff(1, 0), Duration::ZERO);
        assert_eq!(policy.max_attempts, 1);
    }

    #[test]
    fn breaker_trips_after_threshold_and_recovers() {
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            window: 8,
            failure_threshold: 0.5,
            min_samples: 4,
            open_for_us: 1_000,
            half_open_probes: 2,
        });
        assert_eq!(breaker.state(), BreakerState::Closed);
        // Two failures among four samples: exactly at threshold → trip.
        breaker.record_success(ts(1));
        breaker.record_failure(ts(2));
        breaker.record_success(ts(3));
        assert_eq!(breaker.state(), BreakerState::Closed);
        breaker.record_failure(ts(4));
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(breaker.transitions(), 1);

        // Open: refuse until the interval elapses.
        assert!(!breaker.admit(ts(5)));
        assert!(breaker.admit(ts(1_004)), "interval elapsed → first probe");
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        assert!(breaker.admit(ts(1_005)), "second probe");
        assert!(!breaker.admit(ts(1_006)), "probe cap respected");

        // Both probes succeed → closed, window reset.
        breaker.record_success(ts(1_010));
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        breaker.record_success(ts(1_011));
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert_eq!(breaker.transitions(), 3);
        // The cleared window needs min_samples fresh failures to re-trip.
        breaker.record_failure(ts(1_012));
        breaker.record_failure(ts(1_013));
        breaker.record_failure(ts(1_014));
        assert_eq!(breaker.state(), BreakerState::Closed);
        breaker.record_failure(ts(1_015));
        assert_eq!(breaker.state(), BreakerState::Open);
    }

    #[test]
    fn half_open_failure_reopens() {
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            window: 4,
            failure_threshold: 0.5,
            min_samples: 2,
            open_for_us: 100,
            half_open_probes: 3,
        });
        breaker.record_failure(ts(1));
        breaker.record_failure(ts(2));
        assert_eq!(breaker.state(), BreakerState::Open);
        assert!(breaker.admit(ts(200)));
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        breaker.record_failure(ts(201));
        assert_eq!(breaker.state(), BreakerState::Open);
        assert!(!breaker.admit(ts(250)), "reopened from the failure time");
        assert!(breaker.admit(ts(302)));
    }

    #[test]
    fn released_probe_ticket_can_be_drawn_again() {
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            window: 4,
            failure_threshold: 0.5,
            min_samples: 2,
            open_for_us: 100,
            half_open_probes: 1,
        });
        breaker.record_failure(ts(1));
        breaker.record_failure(ts(2));
        assert!(breaker.admit(ts(200)), "the one probe ticket");
        assert!(!breaker.admit(ts(201)), "probe cap respected");
        // The probe's leader died without an outcome: the ticket comes back.
        breaker.release_probe();
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        assert!(breaker.admit(ts(202)), "returned ticket is drawn again");
        breaker.record_success(ts(203));
        assert_eq!(breaker.state(), BreakerState::Closed);
        // A settled probe holds no ticket, and neither does a closed breaker.
        let transitions = breaker.transitions();
        breaker.release_probe();
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert_eq!(breaker.transitions(), transitions);
    }

    #[test]
    fn breaker_window_rolls() {
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            window: 4,
            failure_threshold: 0.75,
            min_samples: 4,
            open_for_us: 100,
            half_open_probes: 1,
        });
        // Two early failures scroll out of the window before it could trip.
        breaker.record_failure(ts(1));
        breaker.record_failure(ts(2));
        for t in 3..9 {
            breaker.record_success(ts(t));
        }
        assert_eq!(breaker.state(), BreakerState::Closed);
        // Now three fresh failures in the 4-window trip it.
        breaker.record_failure(ts(10));
        breaker.record_failure(ts(11));
        breaker.record_failure(ts(12));
        assert_eq!(breaker.state(), BreakerState::Open);
    }

    #[test]
    fn fetch_error_display_and_retryability() {
        let transient = FetchError::transient("warehouse timeout");
        let fatal = FetchError::fatal("relation dropped");
        assert!(transient.is_retryable());
        assert!(!fatal.is_retryable());
        assert_eq!(
            transient.to_string(),
            "fetch failed (transient): warehouse timeout"
        );
        assert_eq!(fatal.to_string(), "fetch failed (fatal): relation dropped");
        let lookup = LookupError {
            error: Arc::new(transient),
            negative_hit: true,
        };
        assert!(lookup.to_string().ends_with("(memoized)"));
    }

    #[test]
    fn splitmix_is_stable() {
        // Pinned values: fault schedules and jitter streams must never
        // change out from under recorded benchmarks.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
    }
}
