//! Reference history and reference-rate estimation (paper §2.1, Eq. 3).
//!
//! For every retrieved set `RSᵢ` WATCHMAN maintains the timestamps of the last
//! `K` references and estimates the average reference rate as
//!
//! ```text
//! λᵢ = K / (t − t_K)
//! ```
//!
//! where `t` is the current time and `t_K` is the `K`-th most recent
//! reference.  Including the *current* time in the denominator ages sets that
//! are no longer referenced.  When fewer than `K` samples are available the
//! maximal available number is used, but such sets are given higher eviction
//! priority by [`crate::policy::lnc`]'s victim selection.

use serde::{Deserialize, Serialize};

use crate::clock::Timestamp;

/// The largest reference window `K` a history keeps.  The window lives
/// inline in the history (no heap block per set), so it has a fixed bound;
/// the paper's experiments use `K ≤ 4`.
pub const MAX_WINDOW: usize = 8;

/// The sliding window of the last `K` reference timestamps to a retrieved set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReferenceHistory {
    /// The live samples, oldest first, in `times[..len]`; the slots past
    /// `len` stay [`Timestamp::ZERO`], so the derived equality compares
    /// live samples only.
    times: [Timestamp; MAX_WINDOW],
    /// Number of live samples (`≤ k`).
    len: usize,
    /// Window size `K` (`1..=MAX_WINDOW`).
    k: usize,
    /// Total number of references ever recorded (may exceed `k`).
    total_references: u64,
}

impl ReferenceHistory {
    /// Creates an empty history with window size `k`, clamped to
    /// `1..=`[`MAX_WINDOW`].
    pub fn new(k: usize) -> Self {
        ReferenceHistory {
            times: [Timestamp::ZERO; MAX_WINDOW],
            len: 0,
            k: k.clamp(1, MAX_WINDOW),
            total_references: 0,
        }
    }

    /// Creates a history containing a single reference at `now`.
    pub fn with_first_reference(k: usize, now: Timestamp) -> Self {
        let mut h = ReferenceHistory::new(k);
        h.record(now);
        h
    }

    /// The window size `K`.
    pub fn window(&self) -> usize {
        self.k
    }

    /// The live samples, oldest first.
    fn samples(&self) -> &[Timestamp] {
        &self.times[..self.len]
    }

    /// Records a reference at time `now`, dropping the oldest sample if the
    /// window is full.
    ///
    /// Timestamps are expected to be non-decreasing; an out-of-order sample is
    /// clamped to the most recent recorded time so that rate estimates remain
    /// non-negative.
    pub fn record(&mut self, now: Timestamp) {
        let now = match self.last_reference() {
            Some(last) => now.max(last),
            None => now,
        };
        if self.len == self.k {
            self.times.copy_within(1..self.k, 0);
            self.len -= 1;
        }
        self.times[self.len] = now;
        self.len += 1;
        self.total_references += 1;
    }

    /// Records a reference at `now` unless it is already the latest one: a
    /// single-flight waiter retrying after an abandoned flight re-issues the
    /// same logical reference, and counting it twice would inflate the rate.
    pub(crate) fn record_once(&mut self, now: Timestamp) {
        if self.last_reference() != Some(now) {
            self.record(now);
        }
    }

    /// Number of samples currently retained (`≤ K`).
    pub fn sample_count(&self) -> usize {
        self.len
    }

    /// Total number of references ever recorded.
    pub fn total_references(&self) -> u64 {
        self.total_references
    }

    /// Whether no reference has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The most recent reference time, if any.
    pub fn last_reference(&self) -> Option<Timestamp> {
        self.samples().last().copied()
    }

    /// The oldest retained reference time (`t_K` in Eq. 3), if any.
    pub fn oldest_reference(&self) -> Option<Timestamp> {
        self.samples().first().copied()
    }

    /// Estimates the average reference rate `λᵢ` at time `now` (Eq. 3),
    /// using the maximal available number of samples.
    ///
    /// Returns `None` if no reference has been recorded.  When `now` equals
    /// the oldest sample (all samples and the estimation instant coincide),
    /// the elapsed time is clamped to one microsecond so the estimate stays
    /// finite; such a set is simply "maximally hot".
    pub fn rate(&self, now: Timestamp) -> Option<f64> {
        let oldest = self.oldest_reference()?;
        let now = now.max(self.last_reference().unwrap_or(oldest));
        let elapsed = now.saturating_since(oldest).max(1);
        Some(self.len as f64 / elapsed as f64)
    }

    /// The number of bytes of metadata this history occupies (used when
    /// accounting for retained reference information).
    pub fn metadata_bytes(&self) -> u64 {
        (self.len * std::mem::size_of::<Timestamp>()) as u64 + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(us: u64) -> Timestamp {
        Timestamp::from_micros(us)
    }

    #[test]
    fn empty_history_has_no_rate() {
        let h = ReferenceHistory::new(2);
        assert!(h.is_empty());
        assert_eq!(h.rate(ts(100)), None);
        assert_eq!(h.last_reference(), None);
        assert_eq!(h.oldest_reference(), None);
    }

    #[test]
    fn window_is_clamped_to_at_least_one() {
        let h = ReferenceHistory::new(0);
        assert_eq!(h.window(), 1);
    }

    #[test]
    fn window_is_capped_at_max_window_and_keeps_its_newest_samples() {
        assert_eq!(ReferenceHistory::new(MAX_WINDOW + 1).window(), MAX_WINDOW);
        let mut h = ReferenceHistory::new(MAX_WINDOW);
        for i in 1..=20 {
            h.record(ts(i * 10));
        }
        assert_eq!(h.sample_count(), MAX_WINDOW);
        let newest: Vec<Timestamp> = (13..=20).map(|i| ts(i * 10)).collect();
        assert_eq!(h.samples(), newest.as_slice());
        assert_eq!(h.total_references(), 20);
    }

    #[test]
    fn equal_live_samples_make_equal_histories() {
        // One history slid past its first samples, one that never saw them.
        let mut slid = ReferenceHistory::new(2);
        let mut fresh = ReferenceHistory::new(2);
        for t in [10, 20, 30] {
            slid.record(ts(t));
        }
        fresh.record(ts(20));
        fresh.record(ts(30));
        assert_eq!(slid.samples(), fresh.samples());
        assert_ne!(slid, fresh, "total references differ");
        fresh.total_references = slid.total_references;
        assert_eq!(slid, fresh);
    }

    #[test]
    fn record_keeps_at_most_k_samples() {
        let mut h = ReferenceHistory::new(3);
        for i in 1..=10 {
            h.record(ts(i * 10));
        }
        assert_eq!(h.sample_count(), 3);
        assert_eq!(h.total_references(), 10);
        assert_eq!(h.oldest_reference(), Some(ts(80)));
        assert_eq!(h.last_reference(), Some(ts(100)));
    }

    #[test]
    fn rate_matches_equation_three() {
        // K = 2, references at t=100 and t=200, now = 300.
        // λ = 2 / (300 - 100) = 0.01 refs/us.
        let mut h = ReferenceHistory::new(2);
        h.record(ts(100));
        h.record(ts(200));
        let rate = h.rate(ts(300)).unwrap();
        assert!((rate - 0.01).abs() < 1e-12);
    }

    #[test]
    fn rate_uses_available_samples_when_fewer_than_k() {
        let mut h = ReferenceHistory::new(4);
        h.record(ts(50));
        // One sample at t=50, now=150: λ = 1 / 100.
        let rate = h.rate(ts(150)).unwrap();
        assert!((rate - 0.01).abs() < 1e-12);
    }

    #[test]
    fn rate_ages_with_time() {
        let mut h = ReferenceHistory::new(2);
        h.record(ts(100));
        h.record(ts(200));
        let early = h.rate(ts(250)).unwrap();
        let late = h.rate(ts(10_000)).unwrap();
        assert!(late < early, "rate must decay for unreferenced sets");
    }

    #[test]
    fn rate_is_finite_when_all_times_coincide() {
        let mut h = ReferenceHistory::new(3);
        h.record(ts(500));
        let rate = h.rate(ts(500)).unwrap();
        assert!(rate.is_finite());
        assert!(rate > 0.0);
    }

    #[test]
    fn out_of_order_reference_is_clamped() {
        let mut h = ReferenceHistory::new(3);
        h.record(ts(100));
        h.record(ts(50));
        assert_eq!(h.last_reference(), Some(ts(100)));
        assert!(h.rate(ts(100)).unwrap().is_finite());
    }

    #[test]
    fn rate_clamps_now_before_last_reference() {
        let mut h = ReferenceHistory::new(2);
        h.record(ts(100));
        h.record(ts(200));
        // Asking for the rate "before" the last reference must not panic or
        // produce a negative rate.
        let rate = h.rate(ts(150)).unwrap();
        assert!(rate > 0.0);
    }

    #[test]
    fn with_first_reference_has_one_sample() {
        let h = ReferenceHistory::with_first_reference(4, ts(10));
        assert_eq!(h.sample_count(), 1);
        assert_eq!(h.total_references(), 1);
    }

    #[test]
    fn metadata_bytes_scales_with_samples() {
        let mut h = ReferenceHistory::new(8);
        let empty = h.metadata_bytes();
        h.record(ts(1));
        h.record(ts(2));
        assert!(h.metadata_bytes() > empty);
    }
}
