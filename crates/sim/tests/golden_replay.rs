//! Golden replays: fixed-seed quick TPC-D traces through the bare policies,
//! final counters pinned to constants.
//!
//! LNC's victim order and §2.4 purge are allowed to get *faster*, never
//! *different*: every decision must stay the one the reference expressions
//! (`profit(now) < m`, ascending `(samples, profit, id)`) make.  The LNC
//! constants below were captured before the decay index replaced the
//! per-decision scans; the baseline constants (LRU, LRU-4, LFU, LCS,
//! GreedyDual-Size) were captured on the five separate per-policy caches
//! before they became rank rules of one ranked cache.  Neither set may be
//! edited by a change that claims to be exact.

use watchman_core::prelude::*;
use watchman_sim::{ExperimentScale, Workload};
use watchman_trace::Trace;

/// `(hits, saved_cost, admissions, rejections, evictions, bytes_evicted)`
/// summed over the shards.
type Counters = (u64, u64, u64, u64, u64, u64);

/// [`Counters`] plus the LNC retained entries summed over the shards.
type Golden = (u64, u64, u64, u64, u64, u64, usize);

/// [`Counters`] plus one policy-owned number per shard: LRU-4's retained
/// histories, the bits of GreedyDual-Size's final inflation `L`, and the
/// resident sets for the policies with no state of their own.
type BaselineGolden = (Counters, &'static [u64]);

/// Replays `trace` through `shards` bare policies of `capacity / shards`
/// bytes each, routed by signature like the engine routes.
fn replay_through<C: QueryCache<SizedPayload>>(
    trace: &Trace,
    shards: usize,
    make: impl Fn(u64) -> C,
) -> (Counters, Vec<C>) {
    let capacity = (trace.database_bytes as f64 * 0.01).round() as u64;
    let per_shard = capacity / shards as u64;
    let mut caches: Vec<C> = (0..shards).map(|_| make(per_shard)).collect();
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
    for cache in &caches {
        total.merge(cache.stats());
    }
    // Costs are whole block counts, so the sum is an exact integer.
    assert_eq!(total.saved_cost.fract(), 0.0);
    let counters = (
        total.hits,
        total.saved_cost as u64,
        total.admissions,
        total.rejections,
        total.evictions,
        total.bytes_evicted,
    );
    (counters, caches)
}

fn replay(trace: &Trace, admission: bool, shards: usize) -> Golden {
    let (c, caches) = replay_through(trace, shards, |per_shard| {
        let config = if admission {
            LncConfig::lnc_ra(per_shard)
        } else {
            LncConfig::lnc_r(per_shard)
        };
        LncCache::<SizedPayload>::new(config.with_k(4))
    });
    let retained = caches.iter().map(LncCache::retained_entries).sum();
    (c.0, c.1, c.2, c.3, c.4, c.5, retained)
}

/// Both traces × {1, 4} shards through one baseline policy, against its four
/// pinned results (uniform 1, uniform 4, skewed 1, skewed 4).
fn assert_baseline<C: QueryCache<SizedPayload>>(
    make: impl Fn(u64) -> C,
    extra: impl Fn(&C) -> u64,
    golden: [BaselineGolden; 4],
) {
    let mut runs = Vec::new();
    for trace in [uniform(), skewed()] {
        for shards in [1, 4] {
            let (counters, caches) = replay_through(&trace, shards, &make);
            runs.push((counters, caches.iter().map(&extra).collect::<Vec<u64>>()));
        }
    }
    let golden: Vec<(Counters, Vec<u64>)> = golden.iter().map(|g| (g.0, g.1.to_vec())).collect();
    assert_eq!(runs, golden);
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

#[test]
fn baseline_lru() {
    assert_baseline(LruCache::new, |c| c.len() as u64, LRU);
}

#[test]
fn baseline_lru_4() {
    assert_baseline(
        |bytes| LruKCache::with_capacity(bytes, 4),
        |c| c.retained_entries() as u64,
        LRU_4,
    );
}

#[test]
fn baseline_lfu() {
    assert_baseline(LfuCache::new, |c| c.len() as u64, LFU);
}

#[test]
fn baseline_lcs() {
    assert_baseline(LcsCache::new, |c| c.len() as u64, LCS);
}

#[test]
fn baseline_greedy_dual_size() {
    assert_baseline(
        GreedyDualSizeCache::new,
        |c| c.inflation().to_bits(),
        GREEDY_DUAL_SIZE,
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

const LRU: [BaselineGolden; 4] = [
    ((1_146, 3_526_053, 10_854, 0, 10_739, 27_832_240), &[115]),
    (
        (1_165, 3_599_666, 10_835, 0, 10_702, 27_811_384),
        &[22, 44, 23, 44],
    ),
    ((3_802, 10_430_403, 8_198, 0, 8_138, 42_687_880), &[60]),
    (
        (3_708, 10_167_764, 8_292, 0, 8_237, 43_007_112),
        &[13, 15, 14, 13],
    ),
];
const LRU_4: [BaselineGolden; 4] = [
    ((2_220, 6_962_987, 9_780, 0, 9_609, 25_168_864), &[188]),
    (
        (2_204, 6_771_893, 9_796, 0, 9_641, 25_260_040),
        &[52, 45, 48, 55],
    ),
    ((5_514, 16_001_794, 6_486, 0, 6_387, 38_244_512), &[142]),
    (
        (5_497, 15_910_311, 6_503, 0, 6_409, 38_268_448),
        &[43, 38, 33, 33],
    ),
];
const LFU: [BaselineGolden; 4] = [
    ((2_465, 7_594_081, 9_535, 0, 9_371, 25_009_328), &[164]),
    (
        (2_611, 7_967_699, 9_389, 0, 9_195, 25_267_744),
        &[58, 42, 43, 51],
    ),
    ((5_679, 16_824_052, 6_321, 0, 6_209, 38_113_080), &[112]),
    (
        (5_666, 16_766_762, 6_334, 0, 6_225, 38_143_104),
        &[28, 30, 22, 29],
    ),
];
const LCS: [BaselineGolden; 4] = [
    ((5_509, 18_698_559, 6_491, 0, 4_873, 28_109_008), &[1_618]),
    (
        (5_288, 17_695_656, 6_712, 0, 5_162, 28_109_896),
        &[386, 383, 391, 390],
    ),
    ((2_165, 8_590_483, 9_835, 0, 9_224, 51_139_040), &[611]),
    (
        (3_018, 10_831_678, 8_982, 0, 8_393, 48_356_792),
        &[152, 159, 133, 145],
    ),
];
const GREEDY_DUAL_SIZE: [BaselineGolden; 4] = [
    (
        (4_228, 15_548_860, 7_772, 0, 6_766, 27_925_736),
        &[4_636_599_689_358_828_362],
    ),
    (
        (4_103, 15_117_937, 7_897, 0, 6_944, 27_966_688),
        &[
            4_637_368_988_751_655_730,
            4_637_651_626_871_563_671,
            4_636_565_347_180_488_553,
            4_636_678_592_976_776_433,
        ],
    ),
    (
        (4_476, 14_024_797, 7_524, 0, 7_312, 42_387_520),
        &[4_638_538_008_752_197_708],
    ),
    (
        (4_244, 13_319_939, 7_756, 0, 7_556, 43_082_536),
        &[
            4_638_864_451_720_029_196,
            4_639_659_736_870_497_084,
            4_637_868_394_937_358_643,
            4_638_451_724_942_825_404,
        ],
    ),
];
