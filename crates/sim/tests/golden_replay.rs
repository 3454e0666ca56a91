//! Golden replays: fixed-seed quick TPC-D traces through the bare LNC
//! policies, final counters pinned to constants.
//!
//! LNC's victim order and §2.4 purge are allowed to get *faster*, never
//! *different*: every decision must stay the one the reference expressions
//! (`profit(now) < m`, ascending `(samples, profit, id)`) make.  The
//! constants below were captured before the decay index replaced the
//! per-decision scans and must not be edited by a change that claims to be
//! exact.

use watchman_core::prelude::*;
use watchman_sim::{ExperimentScale, Workload};
use watchman_trace::Trace;

/// `(hits, saved_cost, admissions, rejections, evictions, bytes_evicted,
/// retained_entries)` summed over the shards.
type Golden = (u64, u64, u64, u64, u64, u64, usize);

/// Replays `trace` through `shards` bare policies of `capacity / shards`
/// bytes each, routed by signature like the engine routes.
fn replay(trace: &Trace, admission: bool, shards: usize) -> Golden {
    let capacity = (trace.database_bytes as f64 * 0.01).round() as u64;
    let per_shard = capacity / shards as u64;
    let mut caches: Vec<LncCache<SizedPayload>> = (0..shards)
        .map(|_| {
            let config = if admission {
                LncConfig::lnc_ra(per_shard)
            } else {
                LncConfig::lnc_r(per_shard)
            };
            LncCache::new(config.with_k(4))
        })
        .collect();
    for record in trace.iter() {
        let now = Timestamp::from_micros(record.timestamp_us);
        let key = QueryKey::from_raw_query(&record.query_text);
        let mixed = key.signature().value().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let cache = &mut caches[((mixed >> 32) as usize) % shards];
        if cache.get(&key, now).is_none() {
            cache.insert(
                key,
                SizedPayload::new(record.result_bytes),
                ExecutionCost::from_blocks(record.cost_blocks),
                now,
            );
        }
    }
    let mut total = CacheStats::new();
    let mut retained = 0;
    for cache in &caches {
        total.merge(cache.stats());
        retained += cache.retained_entries();
    }
    // Costs are whole block counts, so the sum is an exact integer.
    assert_eq!(total.saved_cost.fract(), 0.0);
    (
        total.hits,
        total.saved_cost as u64,
        total.admissions,
        total.rejections,
        total.evictions,
        total.bytes_evicted,
        retained,
    )
}

fn uniform() -> Trace {
    Workload::tpcd(ExperimentScale::quick(12_000).with_seed(13)).trace
}

fn skewed() -> Trace {
    Workload::tpcd_skewed(ExperimentScale::quick(12_000).with_seed(13)).trace
}

#[test]
fn uniform_lnc_ra() {
    let trace = uniform();
    assert_eq!(
        [replay(&trace, true, 1), replay(&trace, true, 4)],
        [UNIFORM_RA_1, UNIFORM_RA_4]
    );
}

#[test]
fn uniform_lnc_r() {
    let trace = uniform();
    assert_eq!(
        [replay(&trace, false, 1), replay(&trace, false, 4)],
        [UNIFORM_R_1, UNIFORM_R_4]
    );
}

#[test]
fn skewed_lnc_ra() {
    let trace = skewed();
    assert_eq!(
        [replay(&trace, true, 1), replay(&trace, true, 4)],
        [SKEWED_RA_1, SKEWED_RA_4]
    );
}

#[test]
fn skewed_lnc_r() {
    let trace = skewed();
    assert_eq!(
        [replay(&trace, false, 1), replay(&trace, false, 4)],
        [SKEWED_R_1, SKEWED_R_4]
    );
}

const UNIFORM_RA_1: Golden = (4_571, 14_142_091, 1_239, 6_190, 793, 769_264, 2_518);
const UNIFORM_RA_4: Golden = (4_891, 14_991_609, 1_718, 5_391, 1_112, 1_071_032, 1_734);
const UNIFORM_R_1: Golden = (4_623, 14_206_446, 7_377, 0, 6_747, 25_692_312, 1_289);
const UNIFORM_R_4: Golden = (4_527, 13_916_145, 7_473, 0, 6_835, 26_087_904, 1_222);
const SKEWED_RA_1: Golden = (6_232, 19_389_377, 906, 4_862, 384, 1_227_920, 2_522);
const SKEWED_RA_4: Golden = (6_233, 19_386_819, 870, 4_897, 358, 1_116_552, 1_298);
const SKEWED_R_1: Golden = (6_123, 18_991_867, 5_877, 0, 5_641, 37_825_344, 1_723);
const SKEWED_R_4: Golden = (6_093, 18_867_948, 5_907, 0, 5_707, 37_872_888, 535);
