//! Logical time used by all cache policies.
//!
//! The paper's reference-rate estimator (Eq. 3) needs a monotonically
//! non-decreasing notion of "now" that is shared between the cache manager and
//! the workload driver.  WATCHMAN traces carry their own timestamps, so the
//! library never reads the wall clock on the hot path; instead every operation
//! receives an explicit [`Timestamp`].  A [`ManualClock`] is provided for
//! drivers that want one shared authority for "now".

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// A point in logical time, measured in microseconds from an arbitrary origin.
///
/// Timestamps are plain `u64` microsecond counts.  The unit only matters in
/// that reference rates ([`crate::history::ReferenceHistory::rate`]) are
/// expressed in references per microsecond; because the profit metric is used
/// purely for *ordering* cached sets, any consistent unit yields identical
/// caching decisions.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The origin of logical time.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Creates a timestamp from a raw microsecond count.
    pub const fn from_micros(micros: u64) -> Self {
        Timestamp(micros)
    }

    /// Creates a timestamp from a whole number of milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Timestamp(millis * 1_000)
    }

    /// Creates a timestamp from a whole number of seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Timestamp(secs * 1_000_000)
    }

    /// Returns the raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the elapsed time since `earlier`, saturating at zero if
    /// `earlier` is in the future.
    pub fn saturating_since(self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Returns a timestamp advanced by `micros` microseconds.
    pub const fn advanced_by(self, micros: u64) -> Timestamp {
        Timestamp(self.0 + micros)
    }

    /// Returns the later of `self` and `other`.
    pub fn max(self, other: Timestamp) -> Timestamp {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl From<u64> for Timestamp {
    fn from(micros: u64) -> Self {
        Timestamp(micros)
    }
}

impl From<Timestamp> for u64 {
    fn from(ts: Timestamp) -> Self {
        ts.0
    }
}

/// A manually driven clock, useful in tests and trace replay.
///
/// The clock is thread-safe; `advance` and `set` use atomic operations.
#[derive(Debug, Default)]
pub struct ManualClock {
    micros: AtomicU64,
}

impl ManualClock {
    /// Creates a clock starting at [`Timestamp::ZERO`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the current logical time.
    pub fn now(&self) -> Timestamp {
        Timestamp::from_micros(self.micros.load(Ordering::SeqCst))
    }

    /// Advances the clock by `micros` microseconds and returns the new time.
    pub fn advance(&self, micros: u64) -> Timestamp {
        let new = self.micros.fetch_add(micros, Ordering::SeqCst) + micros;
        Timestamp::from_micros(new)
    }

    /// Sets the clock to an absolute time.  The clock never moves backwards:
    /// setting a time earlier than the current one is a no-op.
    pub fn set(&self, ts: Timestamp) {
        self.micros.fetch_max(ts.as_micros(), Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_round_trip() {
        let ts = Timestamp::from_micros(42);
        assert_eq!(ts.as_micros(), 42);
        assert_eq!(u64::from(ts), 42);
        assert_eq!(Timestamp::from(42u64), ts);
    }

    #[test]
    fn timestamp_units() {
        assert_eq!(Timestamp::from_millis(3).as_micros(), 3_000);
        assert_eq!(Timestamp::from_secs(2).as_micros(), 2_000_000);
    }

    #[test]
    fn saturating_since_never_underflows() {
        let early = Timestamp::from_micros(10);
        let late = Timestamp::from_micros(25);
        assert_eq!(late.saturating_since(early), 15);
        assert_eq!(early.saturating_since(late), 0);
    }

    #[test]
    fn advanced_by_adds() {
        let ts = Timestamp::from_micros(5).advanced_by(7);
        assert_eq!(ts.as_micros(), 12);
    }

    #[test]
    fn max_picks_later() {
        let a = Timestamp::from_micros(5);
        let b = Timestamp::from_micros(9);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }

    #[test]
    fn manual_clock_advances() {
        let clock = ManualClock::new();
        assert_eq!(clock.now(), Timestamp::ZERO);
        clock.advance(100);
        assert_eq!(clock.now().as_micros(), 100);
        clock.advance(50);
        assert_eq!(clock.now().as_micros(), 150);
    }

    #[test]
    fn manual_clock_never_goes_backwards() {
        let clock = ManualClock::new();
        clock.set(Timestamp::from_micros(500));
        clock.set(Timestamp::from_micros(100));
        assert_eq!(clock.now().as_micros(), 500);
        clock.set(Timestamp::from_micros(900));
        assert_eq!(clock.now().as_micros(), 900);
    }

    #[test]
    fn timestamp_display() {
        assert_eq!(Timestamp::from_micros(7).to_string(), "7us");
    }
}
