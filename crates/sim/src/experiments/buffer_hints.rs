//! Figure 7: effect of WATCHMAN's hints on buffer-manager performance.
//!
//! Setup from §4.2: a 15 MB page buffer pool, a 15 MB WATCHMAN cache and a
//! 14-relation database of 100 MB total, driven by 17 000 queries producing
//! tens of millions of page references.  Every query that misses the WATCHMAN
//! cache is executed, reading its pages through the buffer pool; whenever
//! WATCHMAN admits a retrieved set it sends the buffer manager a hint listing
//! the pages of that query that are p₀-redundant, and the buffer manager
//! moves them to the end of its LRU chain.
//!
//! Sweeping p₀ from 100 % down to 0 % reproduces the paper's curve: moderate
//! thresholds improve the buffer hit ratio, while p₀ → 0 degenerates the
//! buffer's LRU into MRU and the hit ratio collapses.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use watchman_buffer::{BufferPool, RedundancyHintObserver};
use watchman_core::clock::Timestamp;
use watchman_core::engine::Watchman;
use watchman_core::key::QueryKey;
use watchman_core::sync::Mutex;
use watchman_core::value::{ExecutionCost, SizedPayload};

use crate::table::{percent, ratio, TextTable};
use crate::workload::{ExperimentScale, Workload};
use crate::PolicyKind;

/// Configuration of the buffer-interaction experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BufferHintConfig {
    /// Buffer pool size in bytes (paper: 15 MB).
    pub buffer_bytes: u64,
    /// WATCHMAN cache size in bytes (paper: 15 MB).
    pub cache_bytes: u64,
    /// The p₀ thresholds to sweep, as fractions in `[0, 1]`.
    pub thresholds: [f64; 6],
}

impl Default for BufferHintConfig {
    fn default() -> Self {
        BufferHintConfig {
            buffer_bytes: 15 * 1024 * 1024,
            cache_bytes: 15 * 1024 * 1024,
            thresholds: [1.0, 0.8, 0.6, 0.4, 0.2, 0.0],
        }
    }
}

/// One point of the Figure 7 curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BufferHintPoint {
    /// The p₀ threshold (1.0 = 100 %).
    pub threshold: f64,
    /// Buffer hit ratio at this threshold.
    pub buffer_hit_ratio: f64,
    /// Number of pages demoted by hints.
    pub demotions: u64,
    /// Total page references issued (queries that missed the WATCHMAN cache).
    pub page_references: u64,
}

/// The complete Figure 7 experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BufferHintExperiment {
    /// Buffer hit ratio without any hints (the baseline the paper's curve
    /// starts from).
    pub no_hints_hit_ratio: f64,
    /// One point per swept threshold.
    pub points: Vec<BufferHintPoint>,
}

impl BufferHintExperiment {
    /// Runs the experiment with the paper's configuration.
    pub fn run(scale: ExperimentScale) -> Self {
        Self::run_with(scale, BufferHintConfig::default())
    }

    /// Runs the experiment with a custom configuration.
    pub fn run_with(scale: ExperimentScale, config: BufferHintConfig) -> Self {
        let workload = Workload::buffer_experiment(scale);
        let no_hints = Self::run_once(&workload, &config, None);
        let points = config
            .thresholds
            .iter()
            .map(|&threshold| Self::run_once(&workload, &config, Some(threshold)))
            .collect();
        BufferHintExperiment {
            no_hints_hit_ratio: no_hints.buffer_hit_ratio,
            points,
        }
    }

    /// Replays the workload once with the given p₀ threshold (`None` = hints
    /// disabled).
    ///
    /// The hint path is observer-driven: a [`RedundancyHintObserver`]
    /// subscribed to the engine mirrors the cache's contents from its
    /// `admitted`/`removed` calls and demotes p₀-redundant pages whenever a
    /// set is admitted — the replay loop only executes queries and records
    /// page accesses.
    fn run_once(
        workload: &Workload,
        config: &BufferHintConfig,
        threshold: Option<f64>,
    ) -> BufferHintPoint {
        let pool = Arc::new(Mutex::new(BufferPool::with_capacity_bytes(
            config.buffer_bytes,
        )));
        // Hints disabled (`threshold == None`) means no observer at all: the
        // engine then emits no hints and the pool runs plain LRU.
        let observer = threshold.map(|p0| {
            let benchmark = workload.benchmark.clone();
            let instances: HashMap<QueryKey, _> = workload
                .trace
                .iter()
                .map(|record| {
                    (
                        QueryKey::from_raw_query(&record.query_text),
                        record.instance,
                    )
                })
                .collect();
            Arc::new(RedundancyHintObserver::new(
                Arc::clone(&pool),
                p0,
                move |key: &QueryKey| {
                    instances
                        .get(key)
                        .map(|&instance| benchmark.page_accesses(instance))
                        .unwrap_or_default()
                },
            ))
        });
        let mut builder = Watchman::builder()
            .policy(PolicyKind::LNC_RA)
            .capacity_bytes(config.cache_bytes);
        if let Some(observer) = &observer {
            builder = builder.observer(observer.clone());
        }
        let cache: Watchman<SizedPayload> = builder.build();

        for record in workload.trace.iter() {
            let now = Timestamp::from_micros(record.timestamp_us);
            let key = QueryKey::from_raw_query(&record.query_text);
            if cache.get(&key, now).is_some() {
                // Retrieved set served from the WATCHMAN cache: the query is
                // not executed and reads no pages.
                continue;
            }
            // Execute the query: read its pages through the buffer pool and
            // remember which query touched which page.
            let pages = workload.benchmark.page_accesses(record.instance);
            {
                let mut pool = pool.lock();
                for &page in &pages {
                    pool.access(page);
                }
            }
            if let Some(observer) = &observer {
                observer.record_access(&pages, key.signature());
            }

            // Offering the set triggers the observer's hint on admission.
            cache.insert(
                key,
                SizedPayload::new(record.result_bytes),
                ExecutionCost::from_blocks(record.cost_blocks),
                now,
            );
        }

        let pool = pool.lock();
        BufferHintPoint {
            threshold: threshold.unwrap_or(f64::NAN),
            buffer_hit_ratio: pool.stats().hit_ratio(),
            demotions: pool.stats().demotions,
            page_references: pool.stats().references,
        }
    }

    /// The best hit ratio achieved over the sweep and its threshold.
    pub fn best_point(&self) -> Option<&BufferHintPoint> {
        self.points
            .iter()
            .max_by(|a, b| a.buffer_hit_ratio.total_cmp(&b.buffer_hit_ratio))
    }

    /// Renders the Figure 7 table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(
            "Figure 7: buffer hit ratio vs p0 threshold (15 MB pool, 15 MB cache)",
            &["p0", "buffer hit ratio", "demotions", "page refs"],
        );
        table.push_row(vec![
            "no hints".to_owned(),
            ratio(self.no_hints_hit_ratio),
            "0".to_owned(),
            "-".to_owned(),
        ]);
        for point in &self.points {
            table.push_row(vec![
                percent(point.threshold),
                ratio(point.buffer_hit_ratio),
                point.demotions.to_string(),
                point.page_references.to_string(),
            ]);
        }
        table.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hints_at_moderate_thresholds_do_not_hurt_and_zero_threshold_collapses() {
        // The paper-scale buffer/cache sizes with a shortened trace: the pool
        // must be large enough relative to the per-query page footprint for
        // the hit ratio to be meaningful.
        let experiment = BufferHintExperiment::run_with(
            ExperimentScale::quick(500),
            BufferHintConfig::default(),
        );
        assert_eq!(experiment.points.len(), 6);
        let baseline = experiment.no_hints_hit_ratio;
        assert!(
            baseline > 0.05,
            "baseline buffer hit ratio {baseline} is meaningless"
        );
        // Moderate thresholds (p0 >= 0.6) must be at least roughly as good as
        // no hints at all.
        for point in experiment.points.iter().filter(|p| p.threshold >= 0.6) {
            assert!(
                point.buffer_hit_ratio > baseline - 0.05,
                "p0={} hit ratio {} collapsed below baseline {}",
                point.threshold,
                point.buffer_hit_ratio,
                baseline
            );
        }
        // p0 = 0 demotes every tracked page on every hint and must not be the
        // best configuration, nor meaningfully beat the no-hint baseline.
        let zero = experiment.points.last().unwrap();
        let best = experiment.best_point().unwrap();
        assert!(zero.buffer_hit_ratio <= best.buffer_hit_ratio + 1e-9);
        assert!(
            zero.buffer_hit_ratio < baseline + 0.02,
            "p0=0 ({}) should not meaningfully beat the no-hint baseline ({})",
            zero.buffer_hit_ratio,
            baseline
        );
        // Hints must actually fire.
        assert!(experiment.points.iter().any(|p| p.demotions > 0));
    }

    #[test]
    fn page_reference_counts_are_substantial() {
        let experiment = BufferHintExperiment::run_with(
            ExperimentScale::quick(150),
            BufferHintConfig::default(),
        );
        for point in &experiment.points {
            assert!(point.page_references > 10_000);
        }
    }

    #[test]
    fn render_lists_every_threshold() {
        let experiment = BufferHintExperiment::run_with(
            ExperimentScale::quick(100),
            BufferHintConfig::default(),
        );
        let rendered = experiment.render();
        assert!(rendered.contains("Figure 7"));
        assert!(rendered.contains("no hints"));
        assert!(rendered.contains("100.0%"));
        assert!(rendered.contains("0.0%"));
    }
}
