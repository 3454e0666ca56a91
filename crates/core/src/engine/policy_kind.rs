//! Named cache-policy configurations.
//!
//! [`PolicyKind`] is a small, serializable description of a policy (and its
//! parameters) that can be instantiated into a boxed [`QueryCache`] of any
//! capacity and payload type.  It is the single construction path shared by
//! the concurrent [`Watchman`](crate::engine::Watchman) engine, the
//! simulation harness and the examples, so every layer builds policies the
//! same way.

use serde::{Deserialize, Serialize};

use crate::policy::gds::GreedyDualSizeCache;
use crate::policy::lcs::LcsCache;
use crate::policy::lfu::LfuCache;
use crate::policy::lnc::{LncCache, LncConfig};
use crate::policy::lru::LruCache;
use crate::policy::lru_k::LruKCache;
use crate::policy::QueryCache;
use crate::value::CachePayload;

/// A named, parameterized cache policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// LNC-RA (replacement + admission) with reference window `k`.
    LncRa {
        /// The reference window `K`, at most
        /// [`MAX_WINDOW`](crate::history::MAX_WINDOW) (larger values
        /// are clamped to it).
        k: usize,
    },
    /// LNC-R (replacement only) with reference window `k`.
    LncR {
        /// The reference window `K`, at most
        /// [`MAX_WINDOW`](crate::history::MAX_WINDOW) (larger values
        /// are clamped to it).
        k: usize,
    },
    /// Vanilla LRU (the paper's primary baseline).
    Lru,
    /// LRU-K with reference window `k`.
    LruK {
        /// The reference window `K`, at most
        /// [`MAX_WINDOW`](crate::history::MAX_WINDOW) (larger values
        /// are clamped to it).
        k: usize,
    },
    /// Least frequently used.
    Lfu,
    /// Largest cache space (evict the biggest set first).
    Lcs,
    /// GreedyDual-Size.
    GreedyDualSize,
}

impl PolicyKind {
    /// The paper's default LNC-RA configuration (`K = 4`).
    pub const LNC_RA: PolicyKind = PolicyKind::LncRa { k: 4 };
    /// The paper's default LNC-R configuration (`K = 4`).
    pub const LNC_R: PolicyKind = PolicyKind::LncR { k: 4 };

    /// The three policies compared in Figures 4–6.
    pub fn paper_trio() -> Vec<PolicyKind> {
        vec![Self::LNC_RA, Self::LNC_R, PolicyKind::Lru]
    }

    /// The full policy zoo used by the extension ablation.
    pub fn all() -> Vec<PolicyKind> {
        vec![
            Self::LNC_RA,
            Self::LNC_R,
            PolicyKind::Lru,
            PolicyKind::LruK { k: 4 },
            PolicyKind::Lfu,
            PolicyKind::Lcs,
            PolicyKind::GreedyDualSize,
        ]
    }

    /// A stable display label.
    pub fn label(&self) -> String {
        match self {
            PolicyKind::LncRa { k } if *k == 4 => "LNC-RA".to_owned(),
            PolicyKind::LncRa { k } => format!("LNC-RA(K={k})"),
            PolicyKind::LncR { k } if *k == 4 => "LNC-R".to_owned(),
            PolicyKind::LncR { k } => format!("LNC-R(K={k})"),
            PolicyKind::Lru => "LRU".to_owned(),
            PolicyKind::LruK { k } => format!("LRU-{k}"),
            PolicyKind::Lfu => "LFU".to_owned(),
            PolicyKind::Lcs => "LCS".to_owned(),
            PolicyKind::GreedyDualSize => "GreedyDual-Size".to_owned(),
        }
    }

    /// Instantiates the policy with the given capacity in bytes.
    ///
    /// The returned cache is `Send` so it can live inside one shard of the
    /// concurrent engine; plain single-threaded use works the same way.
    // A `_` arm would let a new variant compile with no policy behind it.
    // Clippy reports a `_` standing for one variant under the second lint.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn build<V>(&self, capacity_bytes: u64) -> Box<dyn QueryCache<V> + Send>
    where
        V: CachePayload + Send + 'static,
    {
        match *self {
            PolicyKind::LncRa { k } => {
                Box::new(LncCache::new(LncConfig::lnc_ra(capacity_bytes).with_k(k)))
            }
            PolicyKind::LncR { k } => {
                Box::new(LncCache::new(LncConfig::lnc_r(capacity_bytes).with_k(k)))
            }
            PolicyKind::Lru => Box::new(LruCache::new(capacity_bytes)),
            PolicyKind::LruK { k } => Box::new(LruKCache::with_capacity(capacity_bytes, k)),
            PolicyKind::Lfu => Box::new(LfuCache::new(capacity_bytes)),
            PolicyKind::Lcs => Box::new(LcsCache::new(capacity_bytes)),
            PolicyKind::GreedyDualSize => Box::new(GreedyDualSizeCache::new(capacity_bytes)),
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Timestamp;
    use crate::key::QueryKey;
    use crate::value::{ExecutionCost, SizedPayload};

    #[test]
    fn labels_are_stable() {
        assert_eq!(PolicyKind::LNC_RA.label(), "LNC-RA");
        assert_eq!(PolicyKind::LncRa { k: 2 }.label(), "LNC-RA(K=2)");
        assert_eq!(PolicyKind::Lru.label(), "LRU");
        assert_eq!(PolicyKind::LruK { k: 3 }.label(), "LRU-3");
        assert_eq!(PolicyKind::GreedyDualSize.to_string(), "GreedyDual-Size");
    }

    #[test]
    fn paper_trio_and_zoo_composition() {
        assert_eq!(PolicyKind::paper_trio().len(), 3);
        assert_eq!(PolicyKind::all().len(), 7);
    }

    #[test]
    fn every_kind_builds_a_working_cache() {
        for kind in PolicyKind::all() {
            let mut cache = kind.build::<SizedPayload>(10_000);
            assert_eq!(cache.capacity_bytes(), 10_000);
            let key = QueryKey::new("q");
            assert!(cache.get(&key, Timestamp::from_micros(1)).is_none());
            let outcome = cache.insert(
                key.clone(),
                SizedPayload::new(100),
                ExecutionCost::from_blocks(50),
                Timestamp::from_micros(1),
            );
            assert!(outcome.is_cached(), "{kind}: first insert must be cached");
            assert!(cache.get(&key, Timestamp::from_micros(2)).is_some());
            assert!(cache.remove(&key), "{kind}: remove must report residency");
            assert!(!cache.contains(&key), "{kind}: removed key must be gone");
            assert_eq!(cache.used_bytes(), 0, "{kind}: removal must release bytes");
        }
    }

    #[test]
    fn round_trips_through_json() {
        for kind in PolicyKind::all() {
            let json = serde_json::to_string(&kind).expect("serialize");
            let back: PolicyKind = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(kind, back);
        }
    }
}
