//! The profit metric (paper §2.1–§2.2).
//!
//! WATCHMAN combines the three per-retrieved-set statistics — average
//! reference rate `λᵢ`, size `sᵢ` and query execution cost `cᵢ` — into a
//! single ranking metric:
//!
//! ```text
//! profit(RSᵢ)   = λᵢ · cᵢ / sᵢ          (Eq. 2, cached / previously seen sets)
//! e-profit(RSᵢ) =      cᵢ / sᵢ          (Eq. 6, first-time retrieved sets)
//! ```
//!
//! and, for a candidate replacement list `C`,
//!
//! ```text
//! profit(C)   = Σ λⱼ·cⱼ / Σ sⱼ           (Eq. 5)
//! e-profit(C) = Σ cⱼ    / Σ sⱼ           (Eq. 8)
//! ```
//!
//! [`Profit`] is a thin newtype over `f64` providing a total order so profit
//! values can be sorted and compared safely (NaN never occurs by
//! construction: rates, costs and sizes are finite and sizes are ≥ 1).

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::clock::Timestamp;
use crate::history::ReferenceHistory;
use crate::value::ExecutionCost;

/// A profit value; higher means more valuable to keep in cache.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Profit(f64);

impl Profit {
    /// Zero profit (a set that is free to recompute or infinitely large).
    pub const ZERO: Profit = Profit(0.0);

    /// Creates a profit from a raw value, clamping NaN and negatives to zero.
    pub fn new(value: f64) -> Self {
        if value.is_finite() && value > 0.0 {
            Profit(value)
        } else {
            Profit(0.0)
        }
    }

    /// The profit of a single retrieved set (Eq. 2): `λ · c / s`.
    pub fn of_set(rate: f64, cost: ExecutionCost, size_bytes: u64) -> Self {
        let size = size_bytes.max(1) as f64;
        Profit::new(rate * cost.value() / size)
    }

    /// The profit (Eq. 2) at `now` of a set referenced as `history` records,
    /// with the rate of Eq. 3; zero for a set never referenced.
    pub fn of_history(
        history: &ReferenceHistory,
        cost: ExecutionCost,
        size_bytes: u64,
        now: Timestamp,
    ) -> Self {
        history
            .rate(now)
            .map_or(Profit::ZERO, |rate| Profit::of_set(rate, cost, size_bytes))
    }

    /// The estimated profit of a first-time retrieved set (Eq. 6): `c / s`.
    pub fn estimated(cost: ExecutionCost, size_bytes: u64) -> Self {
        let size = size_bytes.max(1) as f64;
        Profit::new(cost.value() / size)
    }

    /// The aggregate profit of a replacement candidate list (Eq. 5):
    /// `Σ λⱼ·cⱼ / Σ sⱼ`.
    ///
    /// Returns [`Profit::ZERO`] for an empty list: evicting nothing costs
    /// nothing, so any positive-profit set wins the admission test against an
    /// empty candidate list.
    pub fn of_list<I>(items: I) -> Self
    where
        I: IntoIterator<Item = (f64, ExecutionCost, u64)>,
    {
        let mut weighted_cost = 0.0;
        let mut total_size = 0.0;
        for (rate, cost, size) in items {
            weighted_cost += rate * cost.value();
            total_size += size.max(1) as f64;
        }
        if total_size == 0.0 {
            Profit::ZERO
        } else {
            Profit::new(weighted_cost / total_size)
        }
    }

    /// The aggregate *estimated* profit of a candidate list (Eq. 8):
    /// `Σ cⱼ / Σ sⱼ`.
    pub fn estimated_of_list<I>(items: I) -> Self
    where
        I: IntoIterator<Item = (ExecutionCost, u64)>,
    {
        Profit::of_list(items.into_iter().map(|(c, s)| (1.0, c, s)))
    }

    /// The raw value.
    pub const fn value(self) -> f64 {
        self.0
    }
}

impl Eq for Profit {}

impl PartialOrd for Profit {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Profit {
    fn cmp(&self, other: &Self) -> Ordering {
        // Values are finite and non-negative by construction, so total_cmp is
        // equivalent to partial_cmp here but never panics.
        self.0.total_cmp(&other.0)
    }
}

impl fmt::Display for Profit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6e}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(c: f64) -> ExecutionCost {
        ExecutionCost::from_block_reads(c)
    }

    #[test]
    fn profit_of_set_matches_formula() {
        // λ = 0.5 refs/us, c = 200 blocks, s = 100 bytes → profit = 1.0.
        let p = Profit::of_set(0.5, cost(200.0), 100);
        assert!((p.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn estimated_profit_ignores_rate() {
        let p = Profit::estimated(cost(300.0), 150);
        assert!((p.value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn profit_is_zero_for_invalid_inputs() {
        assert_eq!(Profit::new(f64::NAN), Profit::ZERO);
        assert_eq!(Profit::new(-3.0), Profit::ZERO);
        assert_eq!(Profit::of_set(0.0, cost(10.0), 5), Profit::ZERO);
    }

    #[test]
    fn zero_size_is_clamped() {
        let p = Profit::of_set(1.0, cost(10.0), 0);
        assert!((p.value() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn list_profit_is_size_weighted() {
        // Two sets: (λ=1, c=10, s=10) and (λ=1, c=30, s=30).
        // profit(C) = (10 + 30) / (10 + 30) = 1.0
        let p = Profit::of_list(vec![(1.0, cost(10.0), 10), (1.0, cost(30.0), 30)]);
        assert!((p.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn list_profit_differs_from_average_of_profits() {
        // Set A: profit 10 (λ=1,c=10,s=1); set B: profit 0.01 (λ=1,c=1,s=100).
        // Aggregate = (10 + 1) / 101 ≈ 0.1089, not the mean of 10 and 0.01.
        let p = Profit::of_list(vec![(1.0, cost(10.0), 1), (1.0, cost(1.0), 100)]);
        assert!((p.value() - 11.0 / 101.0).abs() < 1e-12);
    }

    #[test]
    fn empty_list_has_zero_profit() {
        assert_eq!(Profit::of_list(std::iter::empty()), Profit::ZERO);
        assert_eq!(Profit::estimated_of_list(std::iter::empty()), Profit::ZERO);
    }

    #[test]
    fn estimated_list_profit() {
        let p = Profit::estimated_of_list(vec![(cost(10.0), 10), (cost(90.0), 40)]);
        assert!((p.value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ordering_is_total_and_by_value() {
        let small = Profit::new(0.5);
        let big = Profit::new(2.0);
        assert!(small < big);
        assert_eq!(small.max(big), big);
        let mut v = vec![big, Profit::ZERO, small];
        v.sort();
        assert_eq!(v, vec![Profit::ZERO, small, big]);
    }

    #[test]
    fn display_is_scientific() {
        let p = Profit::new(0.001234);
        assert!(p.to_string().contains('e'));
    }
}
