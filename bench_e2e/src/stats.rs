//! Exact order statistics over raw samples.
//!
//! The repo's own `HistogramSnapshot` has buckets up to 25% wide (a p99
//! reads 191 or 223 µs, nothing between), which cannot resolve a 10%
//! regression bound — so latencies are kept as raw nanoseconds and sorted.

/// How many samples must lie beyond a percentile for it to be reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The nearest-rank percentile `q` (in `0..=1`) of `sorted`, or `None` when
/// fewer than [`MIN_SAMPLES_BEYOND`] samples lie beyond it — a p99 of 500
/// samples is the fifth-largest value, which is an anecdote, not a statistic.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    debug_assert!(sorted.windows(2).all(|pair| pair[0] <= pair[1]));
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n < rank + MIN_SAMPLES_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Sorts `samples` in place and returns percentile `q` in microseconds.
pub fn percentile_us(samples: &mut [u64], q: f64) -> Option<f64> {
    samples.sort_unstable();
    percentile(samples, q).map(|ns| ns as f64 / 1_000.0)
}

pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&v| v as f64).sum::<f64>() / samples.len() as f64
}

/// One metric over a run: the reported value — the median of its samples,
/// or for a metric sampled per window their best decile — and the samples'
/// minimum and maximum.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub samples: usize,
}

/// Which of a metric's samples a run reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Statistic {
    /// Of samples that differ for reasons of their own (one per repeat,
    /// each on another trace).
    Median,
    /// Of samples that differ only by what the machine did to them (the
    /// windows of timed phases): the value a tenth of them are better than,
    /// by nearest rank — the upper decile when higher is better, else the
    /// lower.  See [`crate::windows`].
    BestDecile { higher_is_better: bool },
}

/// `None` for an empty slice: a metric no repeat could define is omitted,
/// never reported as 0.
pub fn summarize(values: &[f64], statistic: Statistic) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let value = match statistic {
        Statistic::Median if n % 2 == 1 => sorted[n / 2],
        Statistic::Median => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
        Statistic::BestDecile { higher_is_better } => {
            let q = if higher_is_better { 0.9 } else { 0.1 };
            sorted[((n - 1) as f64 * q).round() as usize]
        }
    };
    Some(Summary {
        value,
        min: sorted[0],
        max: sorted[n - 1],
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&samples, 0.50), Some(500));
        assert_eq!(percentile(&samples, 0.99), Some(990));
        assert_eq!(percentile(&samples, 0.0), Some(1));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly 10 beyond it; of 999, only 9.
        let enough: Vec<u64> = (1..=1000).collect();
        let short: Vec<u64> = (1..=999).collect();
        assert!(percentile(&enough, 0.99).is_some());
        assert_eq!(percentile(&short, 0.99), None);
        // The median needs 20 samples: 10 at or below it, 10 beyond.
        assert_eq!(percentile(&(1..=20).collect::<Vec<u64>>(), 0.5), Some(10));
        assert_eq!(percentile(&(1..=19).collect::<Vec<u64>>(), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        // The maximum never has anything beyond it.
        assert_eq!(percentile(&enough, 1.0), None);
    }

    #[test]
    fn percentile_us_sorts_and_converts() {
        let mut samples: Vec<u64> = (1..=40).rev().map(|v| v * 1_000).collect();
        assert_eq!(percentile_us(&mut samples, 0.5), Some(20.0));
    }

    #[test]
    fn summary_is_median_min_max() {
        let odd = summarize(&[3.0, 1.0, 2.0], Statistic::Median).unwrap();
        assert_eq!(
            (odd.value, odd.min, odd.max, odd.samples),
            (2.0, 1.0, 3.0, 3)
        );
        let even = summarize(&[4.0, 1.0, 2.0, 3.0], Statistic::Median).unwrap();
        assert_eq!(even.value, 2.5);
        assert_eq!(summarize(&[], Statistic::Median), None);
    }

    #[test]
    fn best_decile_is_on_the_better_side() {
        let values: Vec<f64> = (1..=21).map(f64::from).collect();
        let decile = |higher_is_better| {
            summarize(&values, Statistic::BestDecile { higher_is_better }).map(|s| s.value)
        };
        assert_eq!(decile(true), Some(19.0));
        assert_eq!(decile(false), Some(3.0));
        let one = summarize(
            &[5.0],
            Statistic::BestDecile {
                higher_is_better: true,
            },
        );
        assert_eq!(one.map(|s| s.value), Some(5.0));
    }
}
