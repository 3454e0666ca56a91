//! The decay index: sets in ascending profit order without re-scoring them.
//!
//! A set's profit (Eq. 2 with the Eq. 3 rate) is `w / (now − t_K)` with the
//! *weight* `w = samples·cost/size` and `t_K` its oldest retained reference.
//! It changes at every decision, but between two references of the set it
//! only decays, and it decays along a curve two numbers describe.  The index
//! files each set under a **bucket** — its Figure 1 sample-count group and
//! the top bits of `w` — and inside the bucket by an **anchor** time, at
//! first `t_K`.  Every set filed in a bucket from anchor `a` on then has a
//! profit at `now` of at least
//!
//! ```text
//! floor · (1 − 2⁻⁴⁰) / max(1, now − a)
//! ```
//!
//! where `floor` is the least weight filed in the bucket (the 2⁻⁴⁰ covers
//! the handful of f64 roundings between this expression and the reference
//! one).  [`DecayIndex::ascend`] merges the bucket fronts best-first by that
//! bound and has every set it reaches scored by the **unchanged reference
//! expression**; a set is handed out once no unreached set's bound is at or
//! below its exact rank.  The bound only decides *which sets are looked at*,
//! never how they compare, so the order is bit for bit the one a full
//! re-score and sort produces.
//!
//! A set that was reached but not handed out had a profit `p` above its
//! bound.  It is re-filed under the latest anchor that keeps the bound under
//! `p` now — `now − floor/p` — which keeps it under the profit from now on,
//! because the bound decays faster than the profit (`floor ≤ w`).  The set is
//! next reached when most of the time it has left above the current answer
//! has passed, so over its life it is scored a logarithmic number of times:
//! a decision costs the buckets of one group plus the sets it hands out, not
//! the sets near them.  Each bucket keeps its front item at hand, so the
//! ascent loads a group into the merge with one heapify over the fronts of
//! its non-empty buckets and walks a tree only to step past an item it
//! reached.
//!
//! # The floors' second reader
//!
//! A floor is also a bound that does not decay: `floor/group` is at most
//! `cost/size` of every set filed in the bucket, because the weights filed
//! there are `group·cost/size`.  A set is filed in a group no higher than
//! its sample count, so the least such ratio over the groups up to `g`,
//! [`DecayIndex::least_ratio`], bounds `cost/size` of every set with at most
//! `g` samples; LNC-A uses it to reject a first-time set without selecting
//! its victims (see `crate::policy::lnc`).  Weights ascend within a group,
//! so only each group's first non-empty bucket is read.
//!
//! # Stale and dead items
//!
//! Items are `(bucket, anchor, slot)`, and the index knows the position of
//! each slot's item.  It is not told when a set is referenced or removed:
//!
//! * a reference can only raise a set's sample count and weight and move its
//!   `t_K` forward, so the position it was filed at remains a valid lower
//!   bound (a *stale* item), corrected when an ascent next re-files the set.
//!   The one change that can *lower* a profit — a new size or cost — must be
//!   [`file`](DecayIndex::file)d by the owner at once;
//! * a removed set leaves its item behind (a *dead* item: the owner's probe
//!   finds the slot empty).  It is dropped when reached or when the slot is
//!   filed again, whichever comes first; slots are reused, so there are never
//!   more dead items than the owner once held sets.
//!
//! The bound assumes what Eq. 3 assumes: the owner's `now` never steps back,
//! so no recorded reference and no chosen anchor lies after it.  Weights
//! outside `1e±250`, where a profit could leave the normal f64 range, live
//! in buckets whose floor is zero: their sets are always looked at.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::ops::Bound::{Excluded, Unbounded};

use crate::clock::Timestamp;
use crate::index::EntryId;
use crate::profit::Profit;
use crate::retained::RetainedInfo;

/// Mantissa bits of the weight that take part in the bucket key: a bucket
/// spans weights within 2⁻³ of each other.
const MANTISSA_BITS: u32 = 3;

/// The factor that keeps a bound below the reference expression's roundings.
const SLACK: f64 = 1.0 - 1.0 / (1u64 << 40) as f64;

/// What decides where a set is filed, read off the set as it is now.
#[derive(Debug, Clone, Copy)]
struct Spot {
    group: u32,
    weight: f64,
    oldest: Timestamp,
}

impl Spot {
    fn of(set: &RetainedInfo, grouped: bool) -> Spot {
        let samples = set.state.sample_count();
        let group = if grouped { samples } else { 0 };
        Spot {
            group: u32::try_from(group).unwrap_or(u32::MAX),
            weight: samples as f64 * set.cost.value() / set.size_bytes.max(1) as f64,
            oldest: set.state.oldest_reference().unwrap_or(Timestamp::ZERO),
        }
    }

    /// The bucket a set with these statistics belongs to.  Weight bits are
    /// zero for weights the bound does not cover.
    fn bucket(&self) -> (u32, u16) {
        let bounded = (1e-250..=1e250).contains(&self.weight);
        let bits = self.weight.to_bits() >> (52 - MANTISSA_BITS);
        (self.group, if bounded { bits as u16 } else { 0 })
    }
}

#[derive(Debug, Clone)]
struct Bucket {
    group: u32,
    weight_bits: u16,
    /// The least weight filed since the bucket was last empty.
    floor: f64,
    items: BTreeSet<Item>,
    /// `items.first()`, kept so that an ascent reads a front without
    /// walking the tree.
    front: Option<Item>,
}

impl Bucket {
    fn bound(&self, anchor: Timestamp, now: Timestamp) -> Profit {
        Profit::new(self.floor * SLACK / now.saturating_since(anchor).max(1) as f64)
    }

    fn insert(&mut self, item: Item) {
        self.items.insert(item);
        if self.front.is_none_or(|front| item < front) {
            self.front = Some(item);
        }
    }

    fn remove(&mut self, item: &Item) {
        self.items.remove(item);
        if self.front == Some(*item) {
            self.front = self.items.first().copied();
            if self.front.is_none() {
                self.floor = f64::INFINITY;
            }
        }
    }
}

/// `(anchor, slot)`: a set filed in a bucket.
type Item = (Timestamp, EntryId);
/// `(group, weight_bits, anchor)`: where a slot's item sits.
type Position = (u32, u16, Timestamp);
/// `(group, bound, bucket, anchor, slot)`: the oldest unreached item of a
/// bucket.
type Front = (u32, Profit, usize, Timestamp, EntryId);
/// `(group, profit, tie)`: a reached set's exact rank.
type Rank = (u32, Profit, u64);

/// The parameters of one ascent.
#[derive(Clone, Copy)]
struct Ascent {
    now: Timestamp,
    by_group: bool,
    below: Option<Profit>,
}

impl Ascent {
    fn group_of(&self, group: u32) -> u32 {
        if self.by_group {
            group
        } else {
            0
        }
    }
}

/// The victim order of LNC-R/LNC-RA and of the §2.4 retained store: see
/// the module docs.
#[derive(Debug, Clone, Default)]
pub struct DecayIndex {
    /// Whether sets are filed by sample-count group; an owner that never
    /// ascends by group does with a fourth of the buckets.
    grouped: bool,
    /// Ascending `(group, weight_bits)`.
    buckets: Vec<Bucket>,
    /// By slot; meaningless for a slot never filed.
    positions: Vec<Position>,
    /// Exact profit evaluations ascents have asked for.
    evaluations: u64,
    // Scratch of an ascent, kept for its allocations: the bucket fronts, the
    // reached sets by rank, and what was learnt about each (`true` once
    // handed out).
    fronts: BinaryHeap<Reverse<Front>>,
    reached: BinaryHeap<Reverse<(Rank, usize)>>,
    scored: Vec<(EntryId, Spot, Profit, bool)>,
}

impl DecayIndex {
    /// An index that can ascend by sample-count group.
    pub(crate) fn grouped() -> Self {
        DecayIndex {
            grouped: true,
            ..Self::default()
        }
    }

    /// Files `slot`'s `set` by what it is now, anchored at its oldest
    /// reference, in place of the slot's earlier item.
    pub(crate) fn file(&mut self, set: &RetainedInfo, slot: EntryId) {
        self.place(&Spot::of(set, self.grouped), slot, None);
    }

    fn bucket_at(&self, key: (u32, u16)) -> Result<usize, usize> {
        self.buckets
            .binary_search_by_key(&key, |b| (b.group, b.weight_bits))
    }

    /// `scored` is the set's profit at the time given, when an ascent has
    /// just found it above the bound: the anchor moves up to where the bound
    /// meets it.
    fn place(&mut self, spot: &Spot, slot: EntryId, scored: Option<(Profit, Timestamp)>) {
        if self.positions.len() <= slot.index() {
            self.positions.resize(slot.index() + 1, Position::default());
        }
        let (group, weight_bits, anchor) = self.positions[slot.index()];
        if let Ok(at) = self.bucket_at((group, weight_bits)) {
            self.buckets[at].remove(&(anchor, slot));
        }
        let (group, weight_bits) = spot.bucket();
        let at = self.bucket_at((group, weight_bits)).unwrap_or_else(|at| {
            let bucket = Bucket {
                group,
                weight_bits,
                floor: f64::INFINITY,
                items: BTreeSet::new(),
                front: None,
            };
            self.buckets.insert(at, bucket);
            at
        });
        let bucket = &mut self.buckets[at];
        let weight = if weight_bits == 0 { 0.0 } else { spot.weight };
        bucket.floor = bucket.floor.min(weight);
        let anchor = match scored {
            Some((profit, now)) if bucket.floor > 0.0 && profit > Profit::ZERO => {
                let age = ((bucket.floor / profit.value()) as u64).saturating_add(1);
                let met = Timestamp::from_micros(now.as_micros().saturating_sub(age));
                spot.oldest.max(met)
            }
            _ => spot.oldest,
        };
        bucket.insert((anchor, slot));
        self.positions[slot.index()] = (group, weight_bits, anchor);
    }

    pub(crate) fn clear(&mut self) {
        self.buckets.clear();
    }

    /// The least `floor/group` over the non-empty buckets of groups up to
    /// `groups` (see "The floors' second reader"); infinite for none.
    pub(crate) fn least_ratio(&self, groups: u32) -> f64 {
        debug_assert!(self.grouped, "an ungrouped floor bounds samples·cost/size");
        let (mut least, mut at) = (f64::INFINITY, 0);
        while let Some(bucket) = self.buckets.get(at).filter(|b| b.group <= groups) {
            if bucket.front.is_none() {
                at += 1;
                continue;
            }
            least = least.min(bucket.floor / f64::from(bucket.group));
            at += self.buckets[at..].partition_point(|b| b.group == bucket.group);
        }
        least
    }

    #[cfg(test)]
    pub(crate) fn evaluations(&self) -> u64 {
        self.evaluations
    }

    #[cfg(test)]
    pub(crate) fn occupied_buckets(&self) -> usize {
        self.buckets.iter().filter(|b| b.front.is_some()).count()
    }

    /// Hands the filed sets to `take` in ascending `(group, profit, tie)`
    /// order at `now` — `(profit, tie)` order over all groups unless
    /// `by_group` — until it returns `false`.  With `below`, sets whose bound
    /// is not under it are never looked at: the ascent ends early, and is
    /// exact for every set whose profit is under `below`.  `now` is at or
    /// after every earlier ascent's and every reference the owner recorded.
    /// `probe` is asked for the set in the slot of every item the merge
    /// reaches (`None` is an empty slot) and for what orders it among sets of
    /// equal profit.
    pub(crate) fn ascend<'s>(
        &mut self,
        now: Timestamp,
        by_group: bool,
        below: Option<Profit>,
        mut probe: impl FnMut(EntryId) -> Option<(&'s RetainedInfo, u64)>,
        mut take: impl FnMut(EntryId, Profit) -> bool,
    ) {
        let ascent = Ascent {
            now,
            by_group,
            below,
        };
        self.fronts.clear();
        self.reached.clear();
        self.scored.clear();
        // The first bucket whose front is not in the merge yet.
        let mut unloaded = 0;
        loop {
            // The least rank a set not reached yet can have.
            let horizon = match (self.fronts.peek(), self.buckets.get(unloaded)) {
                (Some(&Reverse((group, bound, ..))), _) => Some((group, bound)),
                (None, Some(bucket)) => Some((ascent.group_of(bucket.group), Profit::ZERO)),
                (None, None) => None,
            };
            if let Some(&Reverse(((group, profit, _), at))) = self.reached.peek() {
                if horizon.is_none_or(|h| (group, profit) < h) {
                    self.reached.pop();
                    self.scored[at].3 = true;
                    if take(self.scored[at].0, profit) {
                        continue;
                    }
                    break;
                }
            }
            match (self.fronts.pop(), horizon) {
                (Some(Reverse(front)), _) => self.reach(ascent, front, &mut probe),
                // Load the fronts of the next group's buckets into the (empty)
                // merge with one heapify.
                (None, Some((group, _))) => {
                    let mut fronts = std::mem::take(&mut self.fronts).into_vec();
                    while let Some(bucket) = self.buckets.get(unloaded) {
                        if ascent.group_of(bucket.group) != group {
                            break;
                        }
                        if let Some(item) = bucket.front {
                            fronts.extend(self.front_of(ascent, unloaded, item));
                        }
                        unloaded += 1;
                    }
                    self.fronts = BinaryHeap::from(fronts);
                }
                (None, None) => break,
            }
        }
        // The sets reached and kept are re-filed only now: an item moved
        // during the merge could land ahead of its bucket's front and be
        // reached a second time.
        for at in 0..self.scored.len() {
            let (slot, spot, profit, handed_out) = self.scored[at];
            if !handed_out {
                self.place(&spot, slot, Some((profit, now)));
            }
        }
    }

    /// The merge entry for bucket `at`'s `item`, unless its bound is not
    /// under the ascent's `below`.  Inlined: it runs once per merge step,
    /// and left to the compiler a call per step showed in LNC's decisions.
    #[inline]
    fn front_of(&self, ascent: Ascent, at: usize, (anchor, slot): Item) -> Option<Reverse<Front>> {
        let bucket = &self.buckets[at];
        let bound = bucket.bound(anchor, ascent.now);
        let front = (ascent.group_of(bucket.group), bound, at, anchor, slot);
        ascent
            .below
            .is_none_or(|below| bound < below)
            .then_some(Reverse(front))
    }

    fn reach<'s>(
        &mut self,
        ascent: Ascent,
        front: Front,
        probe: &mut impl FnMut(EntryId) -> Option<(&'s RetainedInfo, u64)>,
    ) {
        let (_, _, at, anchor, slot) = front;
        let item = (anchor, slot);
        let bucket = &self.buckets[at];
        let position = (bucket.group, bucket.weight_bits, anchor);
        if let Some(&next) = bucket.items.range((Excluded(item), Unbounded)).next() {
            self.fronts.extend(self.front_of(ascent, at, next));
        }
        let live = self.positions[slot.index()] == position;
        match if live { probe(slot) } else { None } {
            None => self.buckets[at].remove(&item),
            Some((set, tie)) => {
                self.evaluations += 1;
                let (spot, profit) = (Spot::of(set, self.grouped), set.profit(ascent.now));
                let rank = (ascent.group_of(spot.group), profit, tie);
                self.reached.push(Reverse((rank, self.scored.len())));
                self.scored.push((slot, spot, profit, false));
            }
        }
    }
}
